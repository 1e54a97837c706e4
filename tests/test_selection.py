import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from commscale import selection, spectral
from commscale.datasets import load_lesmis
from commscale.fitting import FitError, fit_step
from commscale.model import EDGE_LAWS, EdgeDistribution, make_rng, mean_matrix, sample_network, simulation_params
from commscale.network import WeightedAdjacency, binarize, regularize
from commscale.selection import (
    MethodSpec,
    cbic_score,
    icl_score,
    log_likelihood,
    score_select,
    select,
    svps_select,
    svps_statistic,
)
from commscale.spectral import Assignment, ClusterError


def noiseless_adjacency(sizes, rho=0.3, r=3, seed=8):
    rng = np.random.default_rng(seed)
    k = len(sizes)
    labels = np.repeat(np.arange(k), sizes)
    theta = rng.uniform(0.6, 1.4, size=sum(sizes))
    b = rho * (np.ones((k, k)) + r * np.eye(k))
    m = np.outer(theta, theta) * b[np.ix_(labels, labels)]
    return WeightedAdjacency(m), labels


def sampled_counts(sizes, seed=8, rho=0.3):
    # integer-valued Poisson sample, for likelihoods that check counts
    rng = make_rng(seed)
    model = simulation_params(len(sizes), rho, 3, sizes, rng)
    adj = sample_network(mean_matrix(model), EdgeDistribution("poisson"), rng)
    return adj, model.labels


def test_likelihood_trivial_contributions():
    # diagonal entries count once, off-diagonal zeros twice
    a = WeightedAdjacency(np.diag([0.0, 1.0]))
    mu = np.array([[0.7, 0.2], [0.2, 1.0]])
    assert log_likelihood(a, mu, "poisson") == pytest.approx(-0.7 - 1.0 - 2 * 0.2)
    a = WeightedAdjacency(np.diag([1.0, 0.0]))
    mu = np.array([[0.5, 0.2], [0.2, 0.5]])
    expected = 2 * math.log(0.5) + 2 * math.log(0.8)
    assert log_likelihood(a, mu, "bernoulli") == pytest.approx(expected)


def test_likelihood_counts_offdiagonal_pairs_twice():
    a = WeightedAdjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))
    mu = np.array([[0.3, 0.8], [0.8, 0.3]])
    expected = 2 * (math.log(0.8) - 0.8) + 2 * (-0.3)
    assert log_likelihood(a, mu, "poisson") == pytest.approx(expected)


def test_likelihood_binomial_and_negbinom_values():
    a = WeightedAdjacency(np.array([[2.0, 1.0], [1.0, 0.0]]))
    mu = np.array([[1.5, 0.5], [0.5, 1.0]])
    assert log_likelihood(a, mu, "binomial") == pytest.approx(
        stats.binom.logpmf(a.weights, 5, mu / 5).sum())
    assert log_likelihood(a, mu, "negbinom") == pytest.approx(
        stats.nbinom.logpmf(a.weights, 5, 1 - mu / 5).sum())


@pytest.mark.parametrize("law", ["poisson", "binomial", "bernoulli", "negbinom"])
def test_likelihood_equals_scipy_stats_exactly(law):
    # scipy.stats is the reference: the same sum, bit for bit, with means
    # at zero (floored), at or above the trial cap, and weights within
    # 1e-9 of an integer
    rng = np.random.default_rng(7)
    trials = 1 if law == "bernoulli" else 5
    top = trials if law in ("binomial", "bernoulli") else 12
    cap = 1 - 1e-8
    for n in range(2, 42):
        counts = rng.integers(0, top + 1, size=(n, n))
        counts = np.triu(counts) + np.triu(counts, 1).T
        jitter = rng.uniform(-9e-10, 9e-10, size=(n, n))
        weights = np.clip(counts + np.triu(jitter) + np.triu(jitter, 1).T, 0, None)
        mean = rng.gamma(1.0, 1.5, size=(n, n))
        mean[rng.random((n, n)) < 0.2] = 0.0
        mean[rng.random((n, n)) < 0.2] = trials
        mean[rng.random((n, n)) < 0.2] = 2.5 * trials
        mean[0, 0] = 0.4
        mu = np.maximum(mean, 1e-8 * mean[mean > 0].mean())
        if law == "poisson":
            want = stats.poisson.logpmf(counts, mu)
        elif law == "negbinom":
            want = stats.nbinom.logpmf(counts, trials, 1 - np.minimum(mu / trials, cap))
        else:
            want = stats.binom.logpmf(counts, trials, np.minimum(mu / trials, cap))
        assert log_likelihood(WeightedAdjacency(weights), mean, law) == float(want.sum()), n


def test_likelihood_rejects_misshaped_means():
    a = WeightedAdjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))
    for mean in (np.array([[0.5]]), np.array([0.5, 0.5]), np.ones((3, 3)), np.ones((2, 2, 1))):
        with pytest.raises(ValueError, match="mean must have shape"):
            log_likelihood(a, mean, "poisson")


def test_likelihood_support_errors():
    mu = np.ones((2, 2))
    with pytest.raises(ValueError, match="integer"):
        log_likelihood(WeightedAdjacency(np.diag([0.5, 0.0])), mu, "poisson")
    with pytest.raises(ValueError, match="<= 5"):
        log_likelihood(WeightedAdjacency(np.diag([6.0, 0.0])), mu, "binomial")
    with pytest.raises(ValueError, match="<= 1"):
        log_likelihood(WeightedAdjacency(np.diag([2.0, 0.0])), mu / 2, "bernoulli")
    with pytest.raises(ValueError, match="unknown"):
        log_likelihood(WeightedAdjacency(np.diag([1.0, 0.0])), mu, "gamma")


def test_score_select_checks_the_law_before_clustering(monkeypatch):
    # weights outside the law's support are a typed failure of the whole
    # selection, raised before any step is clustered
    def unreachable(*args, **kwargs):
        raise AssertionError("clustered despite weights outside the law")

    monkeypatch.setattr(selection, "score_cluster", unreachable)
    half = WeightedAdjacency(load_lesmis().weights / 2)
    with pytest.raises(FitError, match="poisson likelihood needs integer weights"):
        score_select(half, dist="poisson")
    with pytest.raises(FitError, match="binomial law needs weights <= 1"):
        score_select(load_lesmis(), dist="bernoulli", method="icl")


def test_svps_checks_the_law_range_before_clustering(monkeypatch):
    # under a binomial law a weight above the trials fails svps before any
    # clustering, as it fails the scores; the law is only svps's variance,
    # so non-integer weights in its range still run
    def unreachable(*args, **kwargs):
        raise AssertionError("clustered despite weights outside the law")

    lesmis = load_lesmis()  # weights up to 31
    with monkeypatch.context() as patched:
        patched.setattr(selection, "score_cluster", unreachable)
        for law, trials in (("bernoulli", 1), ("binomial", 5)):
            with pytest.raises(FitError, match=f"^binomial law needs weights <= {trials}$"):
                svps_select(lesmis, law)
    half = WeightedAdjacency(binarize(lesmis).weights / 2)
    trace = svps_select(half, "bernoulli", m_max=2, restarts=2)
    assert [step.m for step in trace.steps] == [1, 2]
    assert svps_select(regularize(lesmis, 0.1), "negbinom", m_max=2, restarts=2).steps


def test_likelihood_caps_boundary_means():
    # a fitted mean at the trial cap must stay finite
    zeros = WeightedAdjacency(np.zeros((2, 2)))
    value = log_likelihood(zeros, np.full((2, 2), 5.0), "binomial")
    assert np.isfinite(value)
    value = log_likelihood(zeros, np.full((2, 2), 2.0), "bernoulli")
    assert np.isfinite(value)


def fitted_for(adj, labels, m):
    return fit_step(adj, Assignment(labels, m))


def test_penalties_match_closed_form():
    adj, labels = sampled_counts((5, 7, 9))
    n = adj.n
    fitted = fitted_for(adj, labels, 3)
    ll = log_likelihood(adj, fitted.mean, "poisson")
    expected_pen = n * math.log(3) + 3 * 4 / 2 * math.log(n)
    assert cbic_score(adj, fitted) == pytest.approx(ll - expected_pen, rel=1e-12)
    sizes = fitted.assignment.sizes
    entropy = float(sum(s * math.log(n / s) for s in sizes))
    expected_icl = entropy + 3 * 5 / 2 * math.log(n)
    assert icl_score(adj, fitted) == pytest.approx(ll - expected_icl, rel=1e-12)


def test_penalty_m1_special_cases():
    adj, labels = sampled_counts((6, 6))
    n = adj.n
    fitted = fitted_for(adj, np.zeros(n, dtype=int), 1)
    ll = log_likelihood(adj, fitted.mean, "poisson")
    # cbic: n log 1 + log n = log n; icl: zero entropy + (3/2) log n
    assert cbic_score(adj, fitted) == pytest.approx(ll - math.log(n))
    assert icl_score(adj, fitted) == pytest.approx(ll - 1.5 * math.log(n))


def test_icl_entropy_equal_blocks():
    adj, labels = sampled_counts((10, 10))
    fitted = fitted_for(adj, labels, 2)
    n = adj.n
    ll = log_likelihood(adj, fitted.mean, "poisson")
    expected = ll - (n * math.log(2) + 2 * 4 / 2 * math.log(n))
    assert icl_score(adj, fitted) == pytest.approx(expected)


def test_scores_read_the_fitted_steps_law():
    # a 0/1 network lies in every law's support; each law's step is scored
    # under its own likelihood, with the penalties of the closed form
    adj, labels = sampled_counts((10, 12, 14))
    adj = binarize(adj)
    n, m = adj.n, 3
    lls = set()
    for law in EDGE_LAWS.values():
        fitted = fit_step(adj, Assignment(labels, m), law)
        ll = log_likelihood(adj, fitted.mean, fitted.law)
        cbic_pen = 0.5 * n * math.log(m) + m * (m + 1) / 2 * math.log(n)
        assert cbic_score(adj, fitted, lam=0.5) == pytest.approx(ll - cbic_pen, rel=1e-12)
        sizes = fitted.assignment.sizes
        icl_pen = float(sum(s * math.log(n / s) for s in sizes)) + m * (m + 2) / 2 * math.log(n)
        assert icl_score(adj, fitted) == pytest.approx(ll - icl_pen, rel=1e-12)
        lls.add(ll)
    assert len(lls) == len(EDGE_LAWS)


def test_select_score_argmax_rules(monkeypatch):
    # cbic/icl take the argmax over the ok steps, ties going to the smallest m;
    # every step m <= 4 of this network fits, so the script decides each one
    adj, _ = sampled_counts((10, 12, 14))
    scores = {}

    def scripted(a, fitted, lam=1.0):
        if scores.get(fitted.m) is None:
            raise FitError("scripted failure")
        return scores[fitted.m]

    monkeypatch.setattr(selection, "cbic_score", scripted)

    def k_hat(table, m_max):
        scores.clear()
        scores.update(table)
        return select(adj, MethodSpec("cbic"), dist="poisson", m_max=m_max, restarts=2).k_hat

    assert k_hat({1: -5.0, 2: -3.0, 3: -4.0}, 3) == 2
    assert k_hat({1: -3.0, 2: -3.0}, 2) == 1
    assert k_hat({1: -1.0, 2: -2.0, 3: -1.0}, 3) == 1
    assert k_hat({1: -2.0, 2: -1.0, 3: -1.0, 4: -1.0}, 4) == 2
    assert k_hat({4: 0.0}, 4) == 4
    assert k_hat({}, 3) is None


def test_svps_noiseless_trace_shape():
    adj, _ = noiseless_adjacency((12, 18, 20))
    trace = svps_select(adj, epsilon=0.05, seed=0)
    assert trace.k_hat == 3
    values = [s.value for s in trace.steps]
    assert all(v > trace.threshold for v in values[:-1])
    scaled_norm = np.abs(np.linalg.eigvalsh(adj.weights)).max()
    assert values[-1] <= 1e-8 * scaled_norm


def test_svps_stopping_matches_trace():
    adj, _ = noiseless_adjacency((15, 25))
    trace = svps_select(adj, epsilon=0.05, seed=0)
    below = [s.m for s in trace.steps if s.status == "ok" and s.value < trace.threshold]
    assert trace.k_hat == min(below)
    assert trace.steps[-1].m == trace.k_hat


def test_svps_no_stop_returns_none():
    adj, _ = noiseless_adjacency((15, 25))
    trace = svps_select(adj, epsilon=0.05, m_max=1, seed=0)
    assert trace.k_hat is None
    assert len(trace.steps) == 1


def test_svps_failed_steps_never_stop(monkeypatch):
    adj, labels = noiseless_adjacency((15, 25))
    score_cluster = selection.score_cluster

    def failing_at_1(a, m, **kwargs):
        if m == 1:
            raise ClusterError("forced failure")
        return score_cluster(a, m, **kwargs)

    monkeypatch.setattr(selection, "score_cluster", failing_at_1)
    trace = svps_select(adj, epsilon=0.05, seed=0)
    assert trace.steps[0].status == "failed"
    assert trace.steps[0].value == math.inf
    assert trace.k_hat == 2


def test_svps_statistic_requires_room():
    adj, labels = noiseless_adjacency((3, 3))
    fitted = fitted_for(adj, labels, 2)
    with pytest.raises(ValueError):
        svps_statistic(
            WeightedAdjacency(np.eye(6)),
            fit_step(WeightedAdjacency(np.ones((6, 6))), Assignment(np.arange(6), 6)),
        )


def test_trace_csv_deterministic():
    adj, _ = noiseless_adjacency((12, 18, 20))
    csv1 = svps_select(adj, epsilon=0.05, seed=4).to_csv()
    csv2 = svps_select(adj, epsilon=0.05, seed=4).to_csv()
    assert csv1 == csv2
    assert csv1.splitlines()[0] == "method,m,value,status,selected"


def test_score_select_noiseless():
    rng = make_rng(2)
    model = simulation_params(3, 0.15, 3, (30, 40, 50), rng)
    adj = sample_network(mean_matrix(model), EdgeDistribution("poisson"), rng)
    trace = score_select(adj, dist="poisson", method="cbic", m_range=range(1, 7), seed=0)
    assert trace.k_hat == 3
    trace = score_select(adj, dist="poisson", method="icl", m_range=range(1, 7), seed=0)
    assert trace.k_hat == 3


def test_score_select_excludes_failed_steps(monkeypatch):
    adj, _ = sampled_counts((15, 25))
    score_cluster = selection.score_cluster

    def failing_at_2(a, m, **kwargs):
        if m == 2:
            raise ClusterError("forced failure")
        return score_cluster(a, m, **kwargs)

    monkeypatch.setattr(selection, "score_cluster", failing_at_2)
    trace = score_select(adj, dist="poisson", method="cbic", m_range=range(1, 4))
    failed = [s for s in trace.steps if s.status == "failed"]
    assert [s.m for s in failed] == [2]
    assert trace.k_hat in (1, 3)


def test_score_select_requires_known_method():
    adj, _ = noiseless_adjacency((6, 6))
    with pytest.raises(ValueError):
        score_select(adj, dist="poisson", method="aic")


def test_svps_small_network_clamps_to_n_minus_1():
    # the statistic needs m + 1 <= n, so a 10-node network is tested at m <= 9
    trace = svps_select(WeightedAdjacency(np.zeros((10, 10))), restarts=3)
    assert [s.m for s in trace.steps] == list(range(1, 10))
    assert all(s.status == "failed" for s in trace.steps)
    assert trace.k_hat is None


def test_score_select_small_network_clamps_to_n():
    adj = WeightedAdjacency(np.zeros((10, 10)))
    for method in ("cbic", "icl"):
        trace = score_select(adj, dist="poisson", method=method, m_range=range(1, 13), restarts=3)
        assert [s.m for s in trace.steps] == list(range(1, 11))
        assert trace.k_hat is None


def structureless_counts():
    """Poisson counts of mean 5 between every pair of 40 nodes: svps stops at m = 1."""
    return sample_network(np.full((40, 40), 5.0), EdgeDistribution("poisson"), make_rng(0))


def test_selectors_reject_fewer_than_one_restart():
    # a bad argument, not a failed step at every m, nor a k_hat from a
    # selection that stops before it clusters
    adj = load_lesmis()
    with pytest.raises(ValueError, match="restarts"):
        svps_select(adj, restarts=0)
    with pytest.raises(ValueError, match="restarts"):
        score_select(adj, dist="poisson", method="cbic", clusterer="rsc", restarts=0)
    flat = structureless_counts()
    assert select(flat, MethodSpec("svps"), restarts=2).k_hat == 1
    for selector in ("svps", "cbic", "icl"):
        for restarts in (0, -1, 2.5, np.float64(2.0), None):
            with pytest.raises(ValueError, match=r"^restarts must be an integer >= 1, got "):
                select(flat, MethodSpec(selector), dist="poisson", restarts=restarts)


def test_select_rejects_m_max_below_one():
    adj, _ = sampled_counts((6, 6))
    for selector in ("svps", "cbic", "icl"):
        with pytest.raises(ValueError, match=r"^m_max must be an integer >= 1, got 0$"):
            select(adj, MethodSpec(selector), dist="poisson", m_max=0)
    with pytest.raises(ValueError, match=r"^m_max must be an integer >= 1, got -1$"):
        svps_select(adj, m_max=-1)
    for m_max in (2.5, np.float64(3.0), "3", [3]):
        with pytest.raises(ValueError, match=r"^m_max must be an integer >= 1, got "):
            select(adj, MethodSpec("svps"), m_max=m_max, restarts=2)
    cbic = MethodSpec("cbic")
    trace = select(adj, cbic, dist="poisson", m_max=np.int64(3), restarts=np.int64(2))
    assert trace.to_csv() == select(adj, cbic, dist="poisson", m_max=3, restarts=2).to_csv()


def test_score_select_takes_only_cbic_icl_from_m_1():
    adj, _ = sampled_counts((6, 6))
    for m_range in (range(2, 5), range(1, 5, 2), [1, 2, 3], range(1, 1)):
        with pytest.raises(ValueError, match="m_range|m_max"):
            score_select(adj, dist="poisson", m_range=m_range)
    with pytest.raises(ValueError, match="cbic or icl"):
        score_select(adj, dist="poisson", method="svps")


def test_select_requires_a_law_for_likelihood_selectors():
    adj, _ = sampled_counts((6, 6))
    with pytest.raises(ValueError, match="likelihood"):
        select(adj, MethodSpec("cbic"))


def test_one_law_splits_between_svps_and_the_scores():
    # every step is fitted under the one law; CBIC and ICL take it as their
    # likelihood and read only the fitted mean, while svps scales by the
    # law's variance, whose cap fails every step on binarized Les Miserables.
    # From m = 5 on, SCORE leaves a group without internal edges, whatever the law
    flat = binarize(load_lesmis())
    svps = svps_select(flat, "bernoulli", restarts=5)
    assert svps.k_hat is None and [step.status for step in svps.steps] == ["failed"] * 12
    for selector in ("cbic", "icl"):
        trace = select(flat, MethodSpec(selector), dist="bernoulli", restarts=5)
        assert [step.status for step in trace.steps] == ["ok"] * 4 + ["failed"] * 6, selector
        for step, svps_step in zip(trace.steps, svps.steps):
            if step.status == "ok":
                assert svps_step.note.startswith("binomial variance needs means < 1, got max ")
            else:
                assert step.note == svps_step.note and step.note.endswith("has zero within-group weight")


def test_select_matches_direct_calls():
    # select adds no behaviour of its own: every cell of the Les Miserables
    # grid and every method of the simulation panel gives the same trace
    # as the selector called directly with the same arguments
    restarts = 5
    lesmis = load_lesmis()
    flat = binarize(lesmis)
    for clusterer in ("score", "rsc"):
        for tau in (0.05, 0.1, 0.25, 0.5):
            adj = regularize(lesmis, tau)
            got = select(adj, MethodSpec("svps", clusterer), seed=1, restarts=restarts)
            want = svps_select(adj, epsilon=0.05, m_max=12, clusterer=clusterer, seed=1, restarts=restarts)
            assert got.to_csv() == want.to_csv()
        grid = [(lesmis, "poisson")] + ([(flat, "bernoulli")] if clusterer == "score" else [])
        for adj, dist in grid:
            for method in ("cbic", "icl"):
                got = select(adj, MethodSpec(method, clusterer), dist=dist, seed=1, restarts=restarts)
                want = score_select(
                    adj, dist=dist, method=method, m_range=range(1, 11),
                    clusterer=clusterer, seed=1, restarts=restarts,
                )
                assert got.to_csv() == want.to_csv()

    k = 3
    adj, _ = sampled_counts((20, 30, 25))
    dist = EdgeDistribution("poisson")
    for selector in ("svps", "cbic", "icl"):
        for clusterer in ("score", "rsc"):
            spec = MethodSpec(selector, clusterer)
            if selector == "svps":
                m_max = max(12, k + 4)
                want = svps_select(adj, epsilon=spec.epsilon, m_max=m_max, clusterer=clusterer,
                                   seed=2, restarts=restarts)
            else:
                m_max = k + 4
                want = score_select(adj, dist=dist, method=selector, m_range=range(1, m_max + 1),
                                    clusterer=clusterer, seed=2, lam=spec.lam, restarts=restarts)
            got = select(adj, spec, dist=dist, m_max=m_max, seed=2, restarts=restarts)
            assert got.to_csv() == want.to_csv()


@pytest.mark.parametrize("clusterer", ["score", "rsc"])
def test_each_selection_decomposes_its_clustering_matrix_once(clusterer, monkeypatch):
    calls = []
    decompose = spectral.leading_eigpairs

    def counting(matrix):
        calls.append(matrix.shape)
        return decompose(matrix)

    monkeypatch.setattr(spectral, "leading_eigpairs", counting)
    adj, _ = sampled_counts((12, 14, 16))
    fields = dict(vars(adj))
    # on one network and seed, svps stops before m = 6 but keeps the first 6
    # columns of its basis, so cbic clusters its later steps from them; cbic
    # at m_max = 8 decomposes again and widens the kept basis for icl
    for spec, dist, m_max, decompositions in ((MethodSpec("svps", clusterer), None, 6, 1),
                                              (MethodSpec("cbic", clusterer), "poisson", 6, 0),
                                              (MethodSpec("cbic", clusterer), "poisson", 8, 1),
                                              (MethodSpec("icl", clusterer), "poisson", 8, 0)):
        calls.clear()
        trace = select(adj, spec, dist=dist, m_max=m_max, restarts=2)
        assert 1 < len(trace.steps) < 6 if spec.selector == "svps" else len(trace.steps) == m_max
        assert calls == [(adj.n, adj.n)] * decompositions, (spec.label, m_max)
        assert selection._steps[1][clusterer,].shape == (adj.n, m_max)
    # the memo went with the selection's copy of the network
    assert vars(adj).keys() == fields.keys()
    assert all(vars(adj)[key] is value for key, value in fields.items())

    # a Poisson sample with no community structure: svps stops at m = 1
    rng = make_rng(0)
    model = simulation_params(1, 0.5, 1.0, (40,), rng)
    adj = sample_network(mean_matrix(model), EdgeDistribution("poisson"), rng)
    calls.clear()
    trace = select(adj, MethodSpec("svps", clusterer), restarts=2)
    assert [step.m for step in trace.steps] == [1] and trace.k_hat == 1
    assert calls == []


@pytest.mark.parametrize("selector,law", [("cbic", "poisson"), ("icl", "bernoulli"), ("cbic", "negbinom")])
def test_each_selection_builds_its_likelihood_terms_once(selector, law, monkeypatch):
    builds, steps, dense = [], [], []
    terms, likelihood = EdgeDistribution.data_terms, selection.log_likelihood
    step_likelihood = selection._step_log_likelihood

    def counting_terms(law, values):
        builds.append(law)
        return terms(law, values)

    def counting_steps(*args):
        steps.append(args[1].m)
        return step_likelihood(*args)

    def counting_likelihood(*args):
        dense.append(args[1].shape)
        return likelihood(*args)

    monkeypatch.setattr(EdgeDistribution, "data_terms", counting_terms)
    monkeypatch.setattr(selection, "_step_log_likelihood", counting_steps)
    monkeypatch.setattr(selection, "log_likelihood", counting_likelihood)
    adj, _ = sampled_counts((12, 14, 16))
    if law == "bernoulli":
        adj = binarize(adj)
    fields = dict(vars(adj))
    trace = select(adj, MethodSpec(selector), dist=law, m_max=5, restarts=2)
    ok = [step for step in trace.steps if step.status == "ok"]
    assert len(ok) > 1 and len(steps) == len(ok)
    # poisson steps on this network score in block form, the others at the dense mean
    assert len(dense) == (0 if law == "poisson" else len(ok))
    assert len(builds) == 1
    # the memo went with the selection's copy of the network
    assert vars(adj).keys() == fields.keys()


def test_import_does_not_load_scipy_stats():
    # no scipy module at all until the first likelihood, which loads
    # scipy.special (and never scipy.stats); svps on Les Miserables takes
    # the dense path, so it loads none
    code = (
        "import sys, commscale\n"
        "loaded = lambda: sorted(name for name in sys.modules if name.split('.')[0] == 'scipy')\n"
        "adj = commscale.load_lesmis()\n"
        "commscale.select(adj, commscale.MethodSpec('svps'), restarts=2)\n"
        "print(loaded())\n"
        "commscale.select(adj, commscale.MethodSpec('cbic'), dist='poisson', m_max=3, restarts=2)\n"
        "print('scipy.special' in sys.modules, 'scipy.stats' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\nTrue False\n"
