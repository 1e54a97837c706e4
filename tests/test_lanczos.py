"""The Lanczos path: on large sparse networks the svps statistic and the
SCORE basis come from ARPACK, and agree with the dense solves.

The tests lower spectral.LANCZOS_MIN_N so that small networks take the
path, and compare each result with the dense one on the same network.
"""

import copy
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse import csr_array

from commscale import selection, spectral
from commscale.fitting import FittedStep, _variance_profile, fit_step
from commscale.model import EDGE_LAWS
from commscale.network import WeightedAdjacency, regularize
from commscale.scaling import scaled_matrix, sinkhorn_symmetric
from commscale.selection import MethodSpec, select, svps_statistic
from commscale.spectral import Assignment
from test_selection import sampled_counts

# 17% and 18% of the entries nonzero, under LANCZOS_MAX_DENSITY
NETWORKS = {"n150": ((40, 50, 60), 0.1), "n75": ((20, 25, 30), 0.1)}


@pytest.fixture
def lanczos_calls(monkeypatch):
    """Lower LANCZOS_MIN_N to 2 and record each Lanczos call's k."""
    monkeypatch.setattr(spectral, "LANCZOS_MIN_N", 2)
    calls = []
    original = spectral._lanczos

    def recording(matrix, k, vectors=True):
        calls.append(k)
        return original(matrix, k, vectors)

    monkeypatch.setattr(spectral, "_lanczos", recording)
    monkeypatch.setattr(selection, "_lanczos", recording)
    return calls


def network(name):
    sizes, rho = NETWORKS[name]
    return sampled_counts(sizes, rho=rho)[0]


def on_dense_path(run):
    """run() with the default LANCZOS_MIN_N and an empty step memo of its own."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "LANCZOS_MIN_N", 1000)
        patch.setattr(selection, "_steps", (None, {}))
        return run()


def test_default_constants_keep_small_networks_dense():
    adj = network("n150")
    assert spectral.LANCZOS_MIN_N == 1000 and spectral.LANCZOS_MAX_DENSITY == 0.25
    assert spectral._sparse_weights(copy.copy(adj)) is None


def test_predicate_needs_size_and_sparsity(monkeypatch):
    adj = network("n150")
    monkeypatch.setattr(spectral, "LANCZOS_MIN_N", adj.n)
    csr = spectral._sparse_weights(copy.copy(adj))
    assert csr is not None and np.array_equal(csr.toarray(), adj.weights)
    monkeypatch.setattr(spectral, "LANCZOS_MIN_N", adj.n + 1)
    assert spectral._sparse_weights(copy.copy(adj)) is None
    monkeypatch.setattr(spectral, "LANCZOS_MIN_N", 2)
    monkeypatch.setattr(spectral, "LANCZOS_MAX_DENSITY", np.count_nonzero(adj.weights) / adj.n ** 2 * 0.99)
    assert spectral._sparse_weights(copy.copy(adj)) is None


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_selection_matches_dense_path(name, lanczos_calls):
    adj = network(name)
    run = lambda: select(adj, MethodSpec("svps"), restarts=5)
    dense = on_dense_path(run)
    assert lanczos_calls == []
    sparse = run()
    # a basis of m pairs at each m >= 2, and m + 1 values per statistic
    assert sorted(lanczos_calls) == sorted([s.m for s in sparse.steps if s.m >= 2] + [s.m + 1 for s in sparse.steps])
    assert sparse.k_hat == dense.k_hat and len(sparse.steps) > 1
    assert [(s.m, s.status) for s in sparse.steps] == [(s.m, s.status) for s in dense.steps]
    for a, b in zip(sparse.steps, dense.steps):
        assert abs(a.value - b.value) <= 1e-10 * abs(b.value)
    # a second run, clustering afresh, is bit-identical
    selection._steps = (None, {})
    assert run().to_csv() == sparse.to_csv()


def test_statistic_scales_through_scaled_matrix(lanczos_calls, monkeypatch):
    # both paths scale with selection.scaled_matrix, once per statistic:
    # the CSR weights on the Lanczos path, the dense ones otherwise
    adj = network("n150")
    kinds = []
    original = selection.scaled_matrix
    monkeypatch.setattr(selection, "scaled_matrix",
                        lambda matrix, psi: kinds.append(getattr(matrix, "format", "dense")) or original(matrix, psi))
    run = lambda: select(adj, MethodSpec("svps"), restarts=5)
    dense = on_dense_path(run)
    assert kinds == ["dense"] * len(dense.steps) and len(dense.steps) > 1
    kinds.clear()
    sparse = run()
    assert all(step.status == "ok" for step in sparse.steps)
    assert kinds == ["csr"] * len(sparse.steps)


def test_basis_matches_dense_columns(lanczos_calls):
    adj = network("n150")
    dense = spectral.leading_eigpairs(adj.weights)[1]
    net = copy.copy(adj)
    for m in range(1, 13):
        basis = spectral._basis(net, "score", m)
        assert basis.shape == (adj.n, m)
        assert np.abs(basis - dense[:, :m]).max() <= 1e-10
        assert spectral._basis(net, "score", m) is basis
    # one decomposition of m pairs per m
    assert lanczos_calls == list(range(1, 13))
    # a second network object decomposes again, bit for bit the same
    assert np.array_equal(spectral._basis(copy.copy(adj), "score", 12), spectral._basis(net, "score", 12))


def test_leading_pairs_keep_order_and_signs(lanczos_calls):
    adj = network("n75")
    vectors = spectral._basis(copy.copy(adj), "score", 6)
    assert lanczos_calls == [6]
    values, ordered = spectral._ordered(*spectral._lanczos(spectral._csr(adj.weights), 6))
    assert np.array_equal(ordered, vectors)
    dense_values, _ = spectral.leading_eigpairs(adj.weights)
    assert np.allclose(values, dense_values[:6], rtol=1e-12, atol=0)
    assert (np.diff(np.abs(values)) <= 0).all()
    assert (vectors.sum(axis=0) > 0).all()
    assert not values.flags.writeable and not vectors.flags.writeable


def test_large_k_falls_back_to_dense(lanczos_calls):
    adj = network("n75")
    n = adj.n
    assert spectral._lanczos(spectral._csr(adj.weights), n - 1) is None
    dense = spectral.leading_eigpairs(adj.weights)[1]
    net = copy.copy(adj)
    assert np.array_equal(spectral._basis(net, "score", n - 1), dense[:, :n - 1])
    assert np.array_equal(spectral._basis(net, "score", n), dense)
    assert lanczos_calls == [n - 1, n - 1, n]
    # a statistic with k = m + 1 = n - 1 is the dense eigvalsh one
    m = n - 2
    labels = np.arange(n) % m
    fitted = FittedStep(m=m, assignment=Assignment(labels, m), block_sums=np.ones((m, m)) + np.eye(m),
                        totals=np.bincount(labels), degrees=np.ones(n), law=EDGE_LAWS["poisson"])
    value = svps_statistic(copy.copy(adj), fitted)
    assert lanczos_calls[-1] == n - 1
    assert value == on_dense_path(lambda: svps_statistic(copy.copy(adj), fitted))


def test_no_convergence_falls_back_to_dense(lanczos_calls, monkeypatch):
    import scipy.sparse.linalg as linalg

    tries = []

    def no_convergence(matrix, k, **kwargs):
        tries.append(k)
        raise linalg.ArpackNoConvergence("no convergence", np.empty(0), np.empty((matrix.shape[0], 0)))

    monkeypatch.setattr(linalg, "eigsh", no_convergence)
    adj = network("n150")
    dense = spectral.leading_eigpairs(adj.weights)[1]
    net = copy.copy(adj)
    for m in range(1, 6):
        assert np.array_equal(spectral._basis(net, "score", m), dense[:, :m])
    # one try per m, not repeated when the basis is asked for again
    assert np.array_equal(spectral._basis(net, "score", 3), dense[:, :3])
    assert tries == [1, 2, 3, 4, 5] and lanczos_calls == [1, 2, 3, 4, 5]
    fitted = fit_step(adj, Assignment(np.repeat([0, 1, 2], (40, 50, 60)), 3))
    # the dense fallback solves the scaled CSR weights made dense; they are scaled once
    scalings = []
    scale = selection.scaled_matrix
    monkeypatch.setattr(selection, "scaled_matrix", lambda *args: scalings.append(1) or scale(*args))
    value = svps_statistic(copy.copy(adj), fitted)
    assert len(scalings) == 1
    monkeypatch.setattr(selection, "scaled_matrix", scale)
    assert tries[-1] == 4 and lanczos_calls[-1] == 4
    assert value == on_dense_path(lambda: svps_statistic(copy.copy(adj), fitted))
    run = lambda: select(adj, MethodSpec("svps"), restarts=5)
    monkeypatch.setattr(selection, "_steps", (None, {}))
    assert run().to_csv() == on_dense_path(run).to_csv()


def test_regularized_network_stays_dense(lanczos_calls):
    adj = regularize(network("n150"), 0.1)
    assert spectral._sparse_weights(copy.copy(adj)) is None
    trace = select(adj, MethodSpec("svps"), restarts=5)
    assert len(trace.steps) > 1 and lanczos_calls == []


def test_rsc_basis_stays_dense(lanczos_calls, monkeypatch):
    adj = network("n150")
    ks = []
    original = spectral.leading_eigpairs
    monkeypatch.setattr(spectral, "leading_eigpairs", lambda matrix, **kw: ks.append(kw) or original(matrix, **kw))
    trace = select(adj, MethodSpec("svps", "rsc"), restarts=5)
    # the statistic takes the Lanczos path; the regularised RSC matrix does not
    assert ks == [{}] and lanczos_calls == [step.m + 1 for step in trace.steps]


def test_statistic_finds_eigenvectors_a_swap_negates(lanczos_calls):
    # two equal halves that a swap maps onto each other: every eigenvector
    # is either symmetric or antisymmetric under the swap, and the latter
    # are orthogonal to the vector of ones
    rng = np.random.default_rng(0)
    h = 100
    inner = np.triu(rng.random((h, h)) < 0.1, 1).astype(float)
    inner += inner.T
    cross = np.triu(rng.random((h, h)) < 0.02, 1).astype(float)
    cross += cross.T
    adj = WeightedAdjacency(np.block([[inner, cross], [cross, inner]]))
    dense = np.sort(np.abs(np.linalg.eigvalsh(adj.weights)))[::-1]
    for k in range(2, 9):
        values = np.sort(np.abs(spectral._lanczos(spectral._csr(adj.weights), k, vectors=False)))[::-1]
        assert np.allclose(values, dense[:k], rtol=1e-10, atol=0), k
    fitted = fit_step(adj, Assignment(np.repeat([0, 1], h), 2))
    value = svps_statistic(copy.copy(adj), fitted)
    assert lanczos_calls[-1] == 3
    assert value == pytest.approx(on_dense_path(lambda: svps_statistic(copy.copy(adj), fitted)), rel=1e-10)


def test_regular_network_is_deterministic(lanczos_calls):
    # the vector of ones is an eigenvector of a ring lattice, a start from
    # which ARPACK would restart at its own random state
    n = 60
    ring = np.zeros((n, n))
    for hop in (1, 2, 3):
        ring[np.arange(n), (np.arange(n) + hop) % n] = 1.0
    ring += ring.T
    dense = np.sort(np.abs(np.linalg.eigvalsh(ring)))[::-1]
    for k in range(2, 8):
        first, second = (spectral._lanczos(spectral._csr(ring), k, vectors=False) for _ in range(2))
        assert np.array_equal(first, second), k
        assert np.allclose(np.sort(np.abs(first))[::-1], dense[:k], rtol=1e-10, atol=0), k


def test_values_alone_are_solved_to_the_values_tolerance(lanczos_calls, monkeypatch):
    import scipy.sparse.linalg as linalg

    solves = []
    original = linalg.eigsh

    def recording(matrix, k, **kwargs):
        solves.append((kwargs["return_eigenvectors"], kwargs["tol"]))
        return original(matrix, k, **kwargs)

    monkeypatch.setattr(linalg, "eigsh", recording)
    trace = select(network("n150"), MethodSpec("svps"), restarts=5)
    # a basis of m pairs at each m >= 2, and one values-only statistic per step
    basis = [(True, 0)] * sum(step.m >= 2 for step in trace.steps)
    values = [(False, spectral.LANCZOS_VALUES_TOL)] * len(trace.steps)
    assert sorted(solves) == sorted(basis + values) and len(trace.steps) > 1
    assert spectral.LANCZOS_VALUES_TOL == 1e-10


def test_statistic_at_the_bulk_edge_matches_dense_values():
    # n = 1200 takes the Lanczos path at the default LANCZOS_MIN_N; at m = K
    # the wanted value sits at the edge of the bulk, where Lanczos is slowest
    adj, labels = sampled_counts((400, 400, 400), rho=0.06)
    assert spectral._sparse_weights(copy.copy(adj)) is not None
    for m in (1, 2, 3):
        fitted = fit_step(adj, Assignment(np.minimum(labels, m - 1), m))
        value = svps_statistic(copy.copy(adj), fitted)
        psi = sinkhorn_symmetric(_variance_profile(fitted)).psi
        dense = np.sort(np.abs(np.linalg.eigvalsh(scaled_matrix(adj.weights, psi))))[::-1][m]
        assert abs(value - dense) <= 1e-10 * dense, m


# float64 matrices with empty rows, zero, -0.0 and diagonal entries
sparse_squares = arrays(
    np.float64,
    st.tuples(st.integers(0, 9), st.integers(0, 9)),
    elements=st.sampled_from([0.0, -0.0, 1.0, -2.5, 3e-300, 1e300]),
)


@settings(max_examples=100, deadline=None)
@given(sparse_squares)
@example(np.zeros((4, 4)))
@example(np.diag([1.0, -0.0, 0.0, 2.0]))
@example(np.array([[0.0, -0.0], [-0.0, 0.0]]))
def test_csr_build_matches_scipy(dense):
    ours, ref = spectral._csr(dense), csr_array(dense)
    assert ours.shape == ref.shape and ours.format == "csr"
    for name in ("indptr", "indices", "data"):
        a, b = getattr(ours, name), getattr(ref, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert np.array_equal(ours.data.view(np.uint64), ref.data.view(np.uint64))
    assert ours.has_canonical_format and ref.has_canonical_format


def test_import_does_not_load_sparse_linalg():
    code = "import sys, commscale; print('scipy.sparse.linalg' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
