import numpy as np
import pytest

from commscale.model import (
    DcsbmModel,
    EdgeDistribution,
    VarianceFunction,
    make_rng,
    mean_matrix,
    sample_network,
    simulation_params,
)


def two_block_example():
    # theta=(2,1), one node per block, off-diagonal connectivity 1/2
    return DcsbmModel(
        theta=np.array([2.0, 1.0]),
        labels=np.array([0, 1]),
        connectivity=np.array([[1.0, 0.5], [0.5, 1.0]]),
    )


def test_variance_functions():
    mu = np.array([[0.5, 1.5], [1.5, 0.5]])
    assert np.array_equal(VarianceFunction("identity")(mu), mu)
    assert np.allclose(VarianceFunction("bernoulli")(np.array([0.5])), [0.25])
    assert np.allclose(VarianceFunction("scaled_linear", 2.0)(mu), 2 * mu)
    with pytest.raises(ValueError):
        VarianceFunction("cubic")
    with pytest.raises(ValueError):
        VarianceFunction("scaled_linear", 0.0)


def test_edge_distribution_validation():
    assert EdgeDistribution("poisson").trials == 5
    with pytest.raises(ValueError):
        EdgeDistribution("uniform")


def test_model_validation():
    theta = np.ones(4)
    labels = np.array([0, 0, 1, 1])
    good = np.array([[1.0, 0.3], [0.3, 1.0]])
    DcsbmModel(theta, labels, good)
    with pytest.raises(ValueError, match="diagonal"):
        DcsbmModel(theta, labels, np.array([[0.9, 0.3], [0.3, 1.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        DcsbmModel(theta, labels, np.array([[1.0, 0.3], [0.4, 1.0]]))
    with pytest.raises(ValueError, match="nonempty"):
        DcsbmModel(theta, np.zeros(4, dtype=int), good)
    with pytest.raises(ValueError, match="positive"):
        DcsbmModel(np.array([1.0, 1, 1, 0]), labels, good)


def test_mean_matrix_hand_example():
    m = mean_matrix(two_block_example())
    assert np.allclose(m, np.array([[4.0, 1.0], [1.0, 1.0]]))


def test_mean_matrix_rank_equals_k():
    rng = make_rng(11)
    for k in (2, 3, 5):
        model = simulation_params(k, 0.2, 3, (10, 14, 9, 12, 8), rng)
        sv = np.linalg.svd(mean_matrix(model), compute_uv=False)
        assert np.sum(sv > 1e-9 * sv[0]) == k


def test_spectral_lower_bound_with_own_constants():
    # |lambda_K(M)| >= c0 * theta_min^2 * n where c0 is the smallest of
    # the balance, degree-ratio, connectivity-floor and spectrum constants
    rng = make_rng(29)
    for k in (2, 3):
        model = simulation_params(k, 0.12, 2, (50, 100, 150), rng)
        m = mean_matrix(model)
        eigs = np.linalg.eigvalsh(m)
        lam_k = np.sort(np.abs(eigs))[::-1][k - 1]
        b = model.connectivity
        n = model.n
        sizes = np.bincount(model.labels)
        c0 = min(
            sizes.min() / n,
            model.theta.min() / model.theta.max(),
            b.min(),
            np.abs(np.linalg.eigvalsh(b)).min(),
        )
        assert lam_k >= c0 * model.theta.min() ** 2 * n


def test_theta_mixture_mean():
    from commscale.model import _sample_theta

    rng = make_rng(101)
    draws = _sample_theta(rng, 1_000_000)
    # E = 0.8*1.0 + 0.1*0.5 + 0.1*1.5 = 1.0
    assert abs(draws.mean() - 1.0) < 0.01
    assert draws.min() >= 0.5 and draws.max() <= 1.5


def test_simulation_params_identifiable_form():
    rng = make_rng(7)
    model = simulation_params(3, 0.06, 3, (50, 100, 150), rng)
    assert np.allclose(np.diag(model.connectivity), 1.0)
    # the induced mean equals the raw rho*(1 + r*1{k==l}) recipe
    raw_b = 0.06 * (np.ones((3, 3)) + 3 * np.eye(3))
    raw_theta = model.theta / np.sqrt(0.06 * 4)
    expected = np.outer(raw_theta, raw_theta) * raw_b[np.ix_(model.labels, model.labels)]
    assert np.allclose(mean_matrix(model), expected, rtol=1e-12)


def test_simulation_params_validation():
    rng = make_rng(0)
    with pytest.raises(ValueError, match="exceeds"):
        simulation_params(4, 0.1, 2, (10, 20, 30), rng)


def test_sampling_deterministic_and_symmetric():
    model = two_block_example()
    m = np.kron(mean_matrix(model), np.ones((20, 20))) / 4
    a1 = sample_network(m, EdgeDistribution("poisson"), make_rng(5)).weights
    a2 = sample_network(m, EdgeDistribution("poisson"), make_rng(5)).weights
    assert np.array_equal(a1, a2)
    assert np.array_equal(a1, a1.T)


def test_poisson_moment_check():
    m = np.full((2, 2), 0.36)
    rng = make_rng(13)
    draws = np.array(
        [sample_network(m, EdgeDistribution("poisson"), rng).weights[0, 1] for _ in range(10_000)]
    )
    tol = 3 * np.sqrt(0.36 / len(draws))
    assert abs(draws.mean() - 0.36) < tol


def test_binomial_degenerate_and_caps():
    m5 = np.full((3, 3), 5.0)
    adj = sample_network(m5, EdgeDistribution("binomial"), make_rng(1))
    assert np.all(adj.weights == 5.0)
    with pytest.raises(ValueError, match="cap"):
        sample_network(np.full((2, 2), 5.1), EdgeDistribution("binomial"), make_rng(1))
    with pytest.raises(ValueError, match="max M < 5"):
        sample_network(m5, EdgeDistribution("negative_binomial"), make_rng(1))


def test_zero_diagonal_switch():
    m = np.full((4, 4), 2.0)
    adj = sample_network(m, EdgeDistribution("poisson"), make_rng(3), zero_diagonal=True)
    assert np.all(np.diag(adj.weights) == 0)
