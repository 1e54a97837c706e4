import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

from commscale.scaling import ScalingError, scaled_matrix, sinkhorn_symmetric


def raw_alternating_oracle(v, sweeps=4000):
    """Undamped fixed point x <- 1/(Vx).

    The raw iteration can 2-cycle, but its even/odd subsequences
    converge; the scaling vector is the geometric mean of two
    consecutive iterates.
    """
    x = np.ones(v.shape[0])
    for _ in range(sweeps):
        x_next = 1.0 / (v @ x)
        psi = np.sqrt(x * x_next)
        x = x_next
    return psi


def random_positive(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.2, 3.0, size=(n, n))
    return (v + v.T) / 2


def residual_of(v, psi):
    return np.max(np.abs(psi * (v @ psi) - 1.0))


def test_all_ones_closed_form():
    for n in (2, 3, 10):
        result = sinkhorn_symmetric(np.ones((n, n)))
        assert np.allclose(result.psi, 1 / np.sqrt(n), atol=1e-12)
        assert result.residual <= 1e-10


def test_two_by_two_closed_form():
    result = sinkhorn_symmetric(np.array([[1.0, 3.0], [3.0, 1.0]]))
    assert np.allclose(result.psi, [0.5, 0.5], atol=1e-12)


def test_matches_raw_alternating_oracle():
    v = random_positive(5, seed=7)
    result = sinkhorn_symmetric(v, tol=1e-12)
    oracle = raw_alternating_oracle(v)
    assert np.allclose(result.psi, oracle, atol=1e-10)


def test_residual_contract_and_bounds():
    for seed in range(5):
        v = random_positive(20, seed)
        result = sinkhorn_symmetric(v, tol=1e-10)
        assert residual_of(v, result.psi) <= 1e-10
        n = v.shape[0]
        lo = (1 / np.sqrt(n)) * np.sqrt(v.min()) / v.max()
        hi = (1 / np.sqrt(n)) * np.sqrt(v.max()) / v.min()
        assert np.all(result.psi >= lo - 1e-15)
        assert np.all(result.psi <= hi + 1e-15)


def test_uniqueness_from_perturbed_starts():
    v = random_positive(12, seed=3)
    base = sinkhorn_symmetric(v, tol=1e-11).psi
    for factor in (2.0, 0.5):
        res = sinkhorn_symmetric(v, tol=1e-11, initial=factor * 1 / np.sqrt(v.sum(axis=1)))
        assert np.allclose(res.psi, base, atol=10 * 1e-11)


def test_permutation_equivariance():
    v = random_positive(9, seed=5)
    rng = np.random.default_rng(1)
    perm = rng.permutation(9)
    base = sinkhorn_symmetric(v, tol=1e-11).psi
    moved = sinkhorn_symmetric(v[np.ix_(perm, perm)], tol=1e-11).psi
    assert np.allclose(moved, base[perm], atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(c=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 100))
def test_scale_law(c, seed):
    v = random_positive(6, seed)
    psi = sinkhorn_symmetric(v, tol=1e-11).psi
    scaled = sinkhorn_symmetric(c * v, tol=1e-11).psi
    assert np.allclose(scaled, psi / np.sqrt(c), atol=10 * 1e-11 / np.sqrt(min(c, 1.0)))


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sinkhorn_symmetric(np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        sinkhorn_symmetric(np.array([[1.0, 2.0], [3.0, 1.0]]))
    with pytest.raises(ValueError):
        sinkhorn_symmetric(np.ones((2, 3)))
    # a negative budget is a bad argument, not a scaling that failed to converge
    with pytest.raises(ValueError, match="max_iter"):
        sinkhorn_symmetric(np.ones((2, 2)), max_iter=-1)
    # symmetric to within rounding is not symmetric: one ulp off is rejected
    off = np.array([[1.0, 2.0], [2.0000000000000004, 1.0]])
    with pytest.raises(ValueError, match="exactly symmetric"):
        sinkhorn_symmetric(off)
    # NaN and infinite entries are named as such, before the symmetry check
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite, strictly positive"):
            sinkhorn_symmetric(np.array([[1.0, bad], [bad, 1.0]]))
        with pytest.raises(ValueError, match="finite, strictly positive"):
            sinkhorn_symmetric(np.array([[1.0, bad], [2.0, 1.0]]))
        with pytest.raises(ValueError, match="initial"):
            sinkhorn_symmetric(np.ones((2, 2)), initial=[bad, 1.0])


def test_iteration_budget_error_carries_diagnostics():
    v = np.array([[1.0, 2.0], [2.0, 5.0]])
    with pytest.raises(ScalingError) as info:
        sinkhorn_symmetric(v, max_iter=0)
    assert info.value.iterations == 0
    assert info.value.residual > 0


def test_scaled_matrix():
    a = np.diag([2.0, 3.0])
    psi = np.array([4.0, 9.0])
    s = scaled_matrix(a, psi)
    assert np.allclose(s, np.diag([8.0, 27.0]))
    assert np.array_equal(s, s.T)
    assert np.allclose(scaled_matrix(a, np.ones(2)), a)
    for bad in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="psi"):
            scaled_matrix(a, np.array([1.0, bad]))
    # a CSR input: its stored entries scaled as the dense ones, bit for bit
    rng = np.random.default_rng(4)
    a = rng.uniform(0.1, 3.0, size=(30, 30)) * (rng.random((30, 30)) < 0.2)
    a = np.triu(a) + np.triu(a, 1).T
    psi = rng.uniform(0.01, 7.0, size=30)
    csr = csr_array(a)
    before = (csr.data.copy(), csr.indices.copy(), csr.indptr.copy())
    scaled = scaled_matrix(csr, psi)
    assert scaled.format == "csr" and (a == 0).any()
    assert np.array_equal(scaled.toarray(), scaled_matrix(a, psi))
    # the input is left as it was
    assert all(np.array_equal(x, y) for x, y in zip((csr.data, csr.indices, csr.indptr), before))
    assert np.array_equal(csr.toarray(), a)


def test_double_application_row_sums():
    v = random_positive(8, seed=11)
    psi = sinkhorn_symmetric(v, tol=1e-12).psi
    rows = (np.diag(psi) @ v @ np.diag(psi)).sum(axis=1)
    assert np.allclose(rows, 1.0, atol=1e-11)
