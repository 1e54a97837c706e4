import numpy as np
import pytest

from commscale.model import (
    EDGE_LAWS,
    Dcsbm,
    EdgeDistribution,
    make_rng,
    mean_matrix,
    sample_network,
    simulation_params,
)


def two_block_example():
    # theta=(2,1), one node per block, off-diagonal connectivity 1/2
    return Dcsbm(
        theta=np.array([2.0, 1.0]),
        labels=np.array([0, 1]),
        connectivity=np.array([[1.0, 0.5], [0.5, 1.0]]),
    )


@pytest.mark.parametrize("name", sorted(EDGE_LAWS))
def test_sampler_and_variance_agree(name):
    # the empirical variance of a constant-mean sample is the law's
    # variance at the empirical (actual) mean; for the negative binomial
    # the actual mean is not the mean parameter
    law = EDGE_LAWS[name]
    n = 600
    adj = sample_network(np.full((n, n), 0.4 if name == "bernoulli" else 2.0), law, make_rng(8))
    upper = adj.weights[np.triu_indices(n)]
    want = law.variance(upper.mean())
    assert upper.var() == pytest.approx(want, rel=1e-12 if name == "bernoulli" else 0.03)
    # on a varying mean, the draws are the direct numpy calls' on the same
    # seed, taken over the upper triangle row by row
    raw = make_rng(9).uniform(0.0, 0.9, size=(30, 30))
    mean = (raw + raw.T) / 2
    mu, t = mean[np.triu_indices(30)], law.trials
    direct = {
        "poisson": lambda rng: rng.poisson(mu),
        "binomial": lambda rng: rng.binomial(t, mu / t),
        "negative_binomial": lambda rng: rng.negative_binomial(t, 1.0 - mu / t),
    }[law.kind]
    drawn = sample_network(mean, law, make_rng(10)).weights[np.triu_indices(30)]
    assert np.array_equal(drawn, direct(make_rng(10)))


def test_variance_functions():
    # each law's variance function nu(mu); poisson is a copy of mu, and
    # the one-trial binomial is mu*(1 - mu) bit for bit
    mu = np.array([[0.5, 1.5], [1.5, 0.5]])
    poisson = EDGE_LAWS["poisson"].variance(mu)
    assert np.array_equal(poisson, mu) and not np.shares_memory(poisson, mu)
    p = np.array([0.0, 0.25, 0.5, 0.9])
    assert np.array_equal(EdgeDistribution("binomial", trials=1).variance(p), p * (1.0 - p))
    assert np.array_equal(EDGE_LAWS["bernoulli"].variance(p), p * (1.0 - p))
    assert np.allclose(EDGE_LAWS["binomial"].variance(mu), mu * (1 - mu / 5), rtol=1e-15)
    assert np.allclose(EDGE_LAWS["negbinom"].variance(mu), mu + mu**2 / 5, rtol=1e-15)


def test_edge_distribution_validation():
    assert EdgeDistribution("poisson").trials == 5
    with pytest.raises(ValueError):
        EdgeDistribution("uniform")
    # trials is an integer >= 1; a fractional, NaN or infinite count
    # would sample one law and give the variance of another
    assert EdgeDistribution("binomial", trials=np.int64(3)).trials == 3
    for trials in (0, -2, 2.5, 5.0, float("nan"), float("inf"), "5", True):
        with pytest.raises(ValueError, match=r"trials must be an integer >= 1, got "):
            EdgeDistribution("binomial", trials=trials)


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
        n = len(model.theta)
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
    cases = [
        (4, 0.1, 2, (10, 20, 30), "exceeds"),
        (0, 0.1, 2, (10, 20), "need k >= 1"),
        (2, 0.1, 2, (0, 20), r"block sizes must be >= 1, got \[0, 20\]"),
        (2, 0.1, 2, (-3, 20), r"block sizes must be >= 1, got \[-3, 20\]"),
        (2, np.inf, 2, (10, 20), "rho and r must be finite"),
        (2, 0.1, np.inf, (10, 20), "rho and r must be finite"),
        (2, -np.inf, 2, (10, 20), "rho and r must be positive"),
        (2, 0.0, 2, (10, 20), "rho and r must be positive"),
    ]
    for k, rho, r, sizes, message in cases:
        with pytest.raises(ValueError, match=message):
            simulation_params(k, rho, r, sizes, make_rng(0))
    # only the first k sizes are used, so later ones are not checked
    assert len(simulation_params(1, 0.1, 2, (10, 0), make_rng(0)).theta) == 10


def test_simulation_params_counts_are_integers():
    # k and the block sizes are integers >= 1 (numpy integers too, a bool not)
    for k in (2.5, True):
        with pytest.raises(ValueError, match=rf"^k must be an integer >= 1, got {k}$"):
            simulation_params(k, 0.1, 2, (10, 20, 30), make_rng(0))
    for sizes in ((2.5, 3.7), (True, 20), (10, 2.5)):
        with pytest.raises(ValueError, match=r"^block size must be an integer >= 1, got "):
            simulation_params(2, 0.1, 2, sizes, make_rng(0))
    model = simulation_params(np.int64(2), 0.1, 2, np.array([10, 20]), make_rng(0))
    assert model.labels.tolist() == [0] * 10 + [1] * 20


def test_simulation_params_returns_a_plain_record():
    model = simulation_params(2, 0.2, 3, (3, 4), make_rng(0))
    theta, labels, connectivity = model
    assert model._fields == ("theta", "labels", "connectivity")
    assert labels.tolist() == [0, 0, 0, 1, 1, 1, 1] and theta.shape == (7,)
    assert np.array_equal(connectivity, np.array([[1.0, 0.25], [0.25, 1.0]]))


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


def test_negative_binomial_moment_check():
    # failures before the 5th success at success probability 1 - mu/5:
    # mean mu / (1 - mu/5), variance mean / (1 - mu/5)
    mu, trials = 2.0, 5
    mean = mu / (1 - mu / trials)
    rng = make_rng(17)
    draws = np.array(
        [sample_network(np.full((2, 2), mu), EdgeDistribution("negative_binomial"), rng).weights[0, 1]
         for _ in range(10_000)]
    )
    tol = 3 * np.sqrt(mean / (1 - mu / trials) / len(draws))
    assert abs(draws.mean() - mean) < tol
    assert abs(draws.mean() - mu) > 10 * tol  # the documented mean mismatch


@pytest.mark.parametrize(
    "mean, message",
    [
        (np.ones((2, 3)), "mean must be square"),
        (np.ones(3), "mean must be square"),
        (np.array([[1.0, -0.5], [-0.5, 1.0]]), "mean entries must be nonnegative"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), "mean entries must be finite"),
        (np.array([[1.0, np.inf], [np.inf, 1.0]]), "mean entries must be finite"),
        (np.array([[1.0, 5.0], [0.0, 1.0]]), "mean must be exactly symmetric"),
        (np.array([[1.0, 2.0], [np.nextafter(2.0, 3.0), 1.0]]), "mean must be exactly symmetric"),
    ],
)
def test_sample_network_checks_its_mean(mean, message):
    with pytest.raises(ValueError, match=message):
        sample_network(mean, EdgeDistribution("poisson"), make_rng(0))


def test_binomial_degenerate_and_caps():
    m5 = np.full((3, 3), 5.0)
    adj = sample_network(m5, EdgeDistribution("binomial"), make_rng(1))
    assert np.all(adj.weights == 5.0)
    with pytest.raises(ValueError, match="binomial mean cap exceeded: needs max mean <= 5, got 5.1"):
        sample_network(np.full((2, 2), 5.1), EdgeDistribution("binomial"), make_rng(1))
    with pytest.raises(ValueError, match="negative_binomial mean cap exceeded: needs max mean < 5, got 5$"):
        sample_network(m5, EdgeDistribution("negative_binomial"), make_rng(1))


def test_zero_diagonal_switch():
    m = np.full((4, 4), 2.0)
    adj = sample_network(m, EdgeDistribution("poisson"), make_rng(3), zero_diagonal=True)
    assert np.all(np.diag(adj.weights) == 0)
