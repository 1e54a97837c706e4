"""Property tests: edge-list round trips, relabelling invariance, isolated nodes,
NaN at every positivity guard, batched k-means on tie-heavy rows, the
certified nearest centre against the exact one, selections with a warm
step memo, and the step likelihood against the dense sum."""

import io

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from commscale import selection, spectral
from commscale.datasets import load_lesmis
from commscale.fitting import FitError, fit_step
from commscale.model import (
    EDGE_LAWS,
    EdgeDistribution,
    make_rng,
    mean_matrix,
    sample_network,
    simulation_params,
)
from commscale.network import WeightedAdjacency, load_edge_list, regularize
from commscale.scaling import sinkhorn_symmetric
from commscale.selection import (
    MethodSpec,
    cbic_score,
    log_likelihood,
    score_select,
    select,
    svps_select,
    svps_statistic,
)
from commscale.spectral import Assignment
from test_spectral import assert_kmeans_matches_reference

weights = st.floats(min_value=0, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def edge_lists(draw):
    """(indexing, ids, records): a chain through every id plus extra records.

    Any weight may be zero, all of them included: the written list of an
    all-zero network holds one zero self-loop per node.
    """
    indexing = draw(st.sampled_from([0, 1]))
    ids = sorted(draw(st.sets(st.integers(indexing, indexing + 30), min_size=2, max_size=8)))
    records = [(u, v, draw(weights)) for u, v in zip(ids, ids[1:])]
    records += draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids), weights), max_size=12))
    return indexing, ids, draw(st.permutations(records))


@settings(max_examples=60, deadline=None)
@given(edge_lists())
@example((0, [0, 1], [(0, 1, 0.0)]))
@example((1, [2, 5, 9], [(5, 9, 0.0), (2, 5, 0.0), (9, 9, 0.0)]))
def test_edge_list_write_then_load_is_exact(case):
    indexing, ids, records = case
    text = "".join(f"{u} {v} {w!r}\n" for u, v, w in records)
    adj = load_edge_list(io.StringIO(text), indexing=indexing)
    # ids are relabelled 0..n-1 in numeric order, gaps or not
    index = {orig: k for k, orig in enumerate(ids)}
    expected = np.zeros((len(ids), len(ids)))
    for u, v, w in records:
        i, j = index[u], index[v]
        expected[i, j] += w
        if i != j:
            expected[j, i] += w
    assert adj.node_names == tuple(str(i) for i in ids)
    assert np.array_equal(adj.weights, expected)
    # the list is rendered 0-based; shift its ids to the base it is loaded in
    text = "".join(f"{int(u) + indexing} {int(v) + indexing} {w}\n" for u, v, w in
                   (line.split() for line in adj.to_edge_list().splitlines()))
    again = load_edge_list(io.StringIO(text), indexing=indexing, n=adj.n)
    assert np.array_equal(again.weights, adj.weights)


@st.composite
def networks_with_isolated_nodes(draw):
    """Symmetric weights on 2..8 nodes, a drawn set of them of degree zero."""
    n = draw(st.integers(2, 8))
    w = draw(arrays(np.float64, (n, n), elements=st.one_of(st.just(0.0), weights)))
    w = np.triu(w) + np.triu(w, 1).T
    isolated = list(draw(st.sets(st.integers(0, n - 1))))
    w[isolated, :] = 0.0
    w[:, isolated] = 0.0
    return w


@settings(max_examples=60, deadline=None)
@given(networks_with_isolated_nodes())
@example(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.5], [0.0, 1.5, 0.0]]))
@example(np.array([[0.0, 2.0, 0.0, 0.0], [2.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]))
@example(np.array([[1.0, 2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
@example(np.zeros((3, 3)))
def test_edge_list_round_trip_keeps_isolated_nodes(w):
    # isolated first, in the middle, last and everywhere; loaded without n,
    # so a node missing from the list would shift the later ones
    adj = WeightedAdjacency(w)
    again = load_edge_list(io.StringIO(adj.to_edge_list()))
    assert again.n == adj.n
    assert np.array_equal(again.weights, adj.weights)


def sampled_network(seed, k):
    rng = make_rng(np.random.SeedSequence((seed, k)))
    model = simulation_params(k, 0.3, 3, (12, 15, 18), rng)
    adj = sample_network(mean_matrix(model), EdgeDistribution("poisson"), rng)
    return adj, Assignment(model.labels, k)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.sampled_from([2, 3]), data=st.data())
def test_fit_and_statistic_invariant_under_relabelling(seed, k, data):
    adj, assignment = sampled_network(seed, k)
    perm = np.array(data.draw(st.permutations(range(adj.n))))
    moved = WeightedAdjacency(adj.weights[np.ix_(perm, perm)])
    moved_assignment = Assignment(assignment.labels[perm], k)
    fitted = fit_step(adj, assignment)
    refit = fit_step(moved, moved_assignment)
    np.testing.assert_allclose(refit.theta, fitted.theta[perm], rtol=1e-12, atol=0)
    np.testing.assert_allclose(refit.block_matrix, fitted.block_matrix, rtol=1e-12, atol=0)
    for name in ("mean", "variance"):
        np.testing.assert_allclose(
            getattr(refit, name), getattr(fitted, name)[np.ix_(perm, perm)], rtol=1e-12, atol=0
        )
    value = svps_statistic(adj, fitted)
    assert abs(svps_statistic(moved, refit) - value) <= 1e-8 * abs(value)


@settings(max_examples=6, deadline=None)
@given(pad=st.integers(1, 3), clusterer=st.sampled_from(["score", "rsc"]), seed=st.integers(0, 100))
def test_isolated_nodes_never_raise(pad, clusterer, seed):
    w = load_lesmis().weights
    n = w.shape[0] + pad
    padded = np.zeros((n, n))
    padded[: w.shape[0], : w.shape[0]] = w
    adj = WeightedAdjacency(padded)
    # degenerate steps are recorded as typed failures, never raised
    for trace in (
        svps_select(adj, clusterer=clusterer, seed=seed, restarts=3),
        score_select(adj, "poisson", clusterer=clusterer, seed=seed, restarts=3),
    ):
        assert trace.steps
        assert all(step.status == "ok" or step.note for step in trace.steps)


NAN = float("nan")
PAIR = WeightedAdjacency(np.array([[1.0, 2.0], [2.0, 0.0]]))


# NaN compares false both ways, so each guard is written to reject what
# is not positive (or not nonnegative) rather than to accept what is not
# below its bound
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: MethodSpec("svps", epsilon=NAN), "epsilon"),
        (lambda: MethodSpec("cbic", lam=NAN), "lam"),
        (lambda: cbic_score(PAIR, fit_step(PAIR, Assignment(np.zeros(2, dtype=int), 1)), lam=NAN), "lam"),
        (lambda: sinkhorn_symmetric(np.array([[1.0, 2.0], [2.0, 5.0]]), tol=NAN), "tol"),
        (lambda: regularize(PAIR, NAN), "tau"),
        (lambda: simulation_params(2, NAN, 3.0, (10, 10), make_rng(0)), "rho"),
        (lambda: simulation_params(2, 0.3, NAN, (10, 10), make_rng(0)), "rho and r"),
    ],
    ids=["MethodSpec-epsilon", "MethodSpec-lam", "cbic_score-lam", "sinkhorn-tol", "regularize-tau",
         "simulation_params-rho", "simulation_params-r"],
)
def test_positivity_guards_reject_nan(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@st.composite
def integer_row_sets(draw):
    """(rows, m, seed, restarts): small integer rows, full of exact distance
    ties, some scaled so that squared distances underflow: every one at
    1e-170, and those of rows one apart in a coordinate at 1e-162."""
    n, d = draw(st.integers(1, 30)), draw(st.integers(1, 10))
    values = draw(st.lists(st.integers(-2, 2), min_size=n * d, max_size=n * d))
    rows = np.array(values, dtype=float).reshape(n, d) * draw(st.sampled_from([1.0, 1e-162, 1e-170]))
    return rows, draw(st.integers(1, n)), draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 5))


@settings(max_examples=60, deadline=None)
@given(integer_row_sets())
def test_batched_kmeans_matches_sequential_reference_on_integer_rows(case):
    rows, m, seed, restarts = case
    assert_kmeans_matches_reference(rows, m, seed=seed, restarts=restarts)


@st.composite
def rows_and_centres(draw):
    """(rows (n, d), centres (r, m, d)) on one small integer grid, full of
    exact distance ties and centres that coincide, mapped by one of: as
    they are, offset by 1e6 at 1e-4 apart (|x|^2 - 2 x.c + |c|^2 cancels),
    scaled by 1e-162 (squared distances underflow unevenly) or by 1e160
    (|x|^2 overflows)."""
    n, d, r, m = (draw(st.integers(1, top)) for top in (20, 4, 3, 6))
    size = n * d + r * m * d
    grid = np.array(draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size)), dtype=float)
    scale, offset = draw(st.sampled_from([(1.0, 0.0), (1e-4, 1e6), (1e-162, 0.0), (1e160, 0.0)]))
    grid = grid * scale + offset
    return grid[:n * d].reshape(n, d), grid[n * d:].reshape(r, m, d)


@settings(max_examples=200, deadline=None)
@given(rows_and_centres())
# the least h is that of the farther centre, 9e-8 away against 2e-8
@example((1e6 + 1e-4 * np.array([[-1.0, -1, -1]]), 1e6 + 1e-4 * np.array([[[2.0, -1, -1], [0, 0, -1]]])))
def test_certified_nearest_equals_exact_nearest(case):
    x, centers = case
    r, n = centers.shape[0], x.shape[0]
    rows, points = np.divmod(np.arange(r * n), n)
    with np.errstate(invalid="ignore", over="ignore"):
        labels = spectral._nearest(x, centers, spectral._point_parts(x))[0]
        exact = spectral._exact_nearest(x, centers, rows, points)
    assert np.array_equal(labels, exact.reshape(r, n))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 14), net_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 3),
       mean=st.sampled_from([0.3, 1.0, 4.0]))
def test_warm_step_memo_equals_cold(n, net_seed, seed, mean):
    rng = np.random.default_rng(net_seed)
    upper = np.triu(rng.poisson(mean, size=(n, n)))
    weights = upper + np.triu(upper, 1).T
    runs = [(MethodSpec(selector, clusterer), dist)
            for clusterer in ("score", "rsc")
            for selector, dist in (("svps", None), ("cbic", "poisson"), ("icl", "bernoulli"))]

    def outputs(cold):
        selection._steps = (None, {})
        out = []
        # two network objects with the same weights, one binarized
        for adj in (WeightedAdjacency(weights), WeightedAdjacency(weights), WeightedAdjacency(weights > 0)):
            for spec, dist in runs:
                if cold:
                    selection._steps = (None, {})
                try:
                    out.append(select(adj, spec, dist=dist, m_max=4, seed=seed, restarts=2).to_csv())
                except FitError as exc:  # bernoulli on counts above 1
                    out.append(str(exc))
        return out

    assert outputs(cold=False) == outputs(cold=True)


@st.composite
def fitted_count_steps(draw):
    """(network, fitted step) under a drawn law: counts on 2..30 nodes in m
    groups, some nodes drawn isolated, maybe no weight between group 0 and
    the rest, and maybe every positive weight 5e-10 off its count."""
    law = EDGE_LAWS[draw(st.sampled_from(sorted(EDGE_LAWS)))]
    n = draw(st.integers(2, 30))
    m = draw(st.integers(1, min(n, 4)))
    labels = np.array(draw(st.permutations(np.arange(n) % m)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.poisson(draw(st.sampled_from([0.5, 2.0, 6.0])), size=(n, n))).astype(float)
    w = upper + np.triu(upper, 1).T
    if law.kind == "binomial":
        w = np.minimum(w, law.trials)
    if draw(st.booleans()):
        w[np.not_equal.outer(labels == 0, labels == 0)] = 0.0
    isolated = list(draw(st.sets(st.integers(0, n - 1), max_size=2)))
    w[isolated, :] = w[:, isolated] = 0.0
    if draw(st.booleans()):
        w[w > 0] += 5e-10
    adj = WeightedAdjacency(w)
    try:
        return adj, fit_step(adj, Assignment(labels, m), law)
    except FitError:  # a group with no weight inside
        assume(False)


@settings(max_examples=80, deadline=None)
@given(fitted_count_steps())
def test_step_likelihood_equals_the_dense_sum(case):
    # a poisson step with integer weights and no zero mean scores in block
    # form, equal up to rounding; every other step is the dense sum itself
    adj, fitted = case
    dense = log_likelihood(adj, fitted.mean, fitted.law)
    value = selection._step_log_likelihood(adj, fitted)
    counts = np.array_equal(adj.weights, np.round(adj.weights))
    if fitted.law.kind == "poisson" and counts and (fitted.mean > 0).all():
        assert value == pytest.approx(dense, rel=1e-13, abs=0)
    else:
        assert value == dense
