"""The step memo: selectors that share a network, clusterer, m, seed and
restart count cluster that step once, and reuse it bit for bit.

The memo holds only the last network's assignments and clustering bases,
keyed by a digest of its weights, so it can never hand one network's
labels or basis to another.
"""

import copy
import gc
import hashlib
import sys
import threading
import types
from collections import Counter

import numpy as np
import pytest

from commscale import bench, selection, spectral
from commscale.datasets import load_lesmis
from commscale.fitting import FitError
from commscale.model import EdgeDistribution, make_rng, mean_matrix, sample_network, simulation_params
from commscale.network import WeightedAdjacency, binarize, regularize
from commscale.selection import MethodSpec, select
from commscale.spectral import Assignment


def count_layers(patch) -> Counter:
    """Count the kmeans and leading_eigpairs calls made from now on."""
    counts = Counter()
    for attr in ("kmeans", "leading_eigpairs"):
        original = getattr(spectral, attr)

        def counting(*args, _attr=attr, _original=original, **kwargs):
            counts[_attr] += 1
            return _original(*args, **kwargs)

        patch.setattr(spectral, attr, counting)
    return counts


@pytest.fixture(scope="module")
def lesmis_runs():
    """run_lesmis at seeds 0 then 3 in one process, once with the memo
    emptied before every selection (cold) and once without (warm): each
    selection's trace, each table, and the layer calls of each seed."""
    runs = {}
    with pytest.MonkeyPatch.context() as patch:
        for cold in (True, False):
            patch.setattr(selection, "_steps", (None, {}))
            traces, tables, calls = [], [], []

            def recording(*args, **kwargs):
                if cold:
                    selection._steps = (None, {})
                trace = select(*args, **kwargs)
                traces.append(trace.to_csv())
                return trace

            patch.setattr(bench, "select", recording)
            for seed in (0, 3):
                with pytest.MonkeyPatch.context() as counted:
                    counts = count_layers(counted)
                    tables.append(bench.run_lesmis(load_lesmis(), seed=seed))
                calls.append(dict(counts))
            runs["cold" if cold else "warm"] = traces, tables, calls
    return runs


def test_lesmis_grid_is_the_same_with_a_warm_memo(lesmis_runs):
    cold_traces, cold_tables, _ = lesmis_runs["cold"]
    warm_traces, warm_tables, _ = lesmis_runs["warm"]
    assert len(warm_traces) == 2 * 14
    assert warm_traces == cold_traces
    assert warm_tables == cold_tables


def test_run_lesmis_clusters_each_step_key_once(lesmis_runs):
    _, cold_tables, cold_calls = lesmis_runs["cold"]
    _, warm_tables, warm_calls = lesmis_runs["warm"]
    assert cold_calls[0] == {"kmeans": 98, "leading_eigpairs": 14}
    # cbic and icl share every step on a network; so do the two binarized copies
    assert warm_calls[0] == {"kmeans": 71, "leading_eigpairs": 11}
    assert warm_tables[0] == cold_tables[0]


def test_run_experiment_clusters_each_step_of_a_replicate_once(monkeypatch):
    # every method of a replicate clusters with the replicate's one seed,
    # so each (clusterer, m) past m = 1 is one kmeans call, whichever
    # methods evaluate it
    evaluated = set()

    def recording(adj, spec, **kwargs):
        trace = select(adj, spec, **kwargs)
        evaluated.update((spec.clusterer, step.m) for step in trace.steps if step.m > 1)
        return trace

    monkeypatch.setattr(bench, "select", recording)
    methods = tuple(MethodSpec(s, c) for s in ("svps", "cbic", "icl") for c in ("score", "rsc"))
    config = bench.ExperimentConfig(
        distribution=EdgeDistribution("poisson"), rho=0.3, r=3.0, k_list=(3,), n_all=(20, 30, 25),
        methods=methods, replicates=1,
    )
    counts = count_layers(monkeypatch)
    table = bench.run_experiment(config)
    assert len(table.rows) == 6
    # cbic and icl score m = 1..K + 4 on both clusterers; svps stops earlier
    assert {m for _, m in evaluated} == set(range(2, 8))
    assert counts["kmeans"] == len(evaluated) == 12


def test_selections_on_one_network_decompose_each_clustering_matrix_once(monkeypatch):
    # the six methods of a sim-panel network, each with its own seed: no
    # step is shared, but each clusterer's basis is decomposed once
    rng = make_rng(4)
    adj = sample_network(mean_matrix(simulation_params(3, 0.2, 3, (30, 40, 50), rng)), EdgeDistribution("poisson"), rng)
    methods = [MethodSpec(s, c) for s in ("svps", "cbic", "icl") for c in ("score", "rsc")]

    def traces(cold):
        out = []
        for seed, spec in enumerate(methods):
            if cold:
                selection._steps = (None, {})
            dist = None if spec.selector == "svps" else "poisson"
            out.append(select(adj, spec, dist=dist, m_max=7, seed=seed, restarts=3).to_csv())
        return out

    cold = traces(cold=True)
    selection._steps = (None, {})
    counts = count_layers(monkeypatch)
    assert traces(cold=False) == cold
    assert counts["leading_eigpairs"] == 2
    assert counts["kmeans"] == sum(len(csv.splitlines()) - 2 for csv in cold)


def test_separate_binarized_copies_share_steps(monkeypatch):
    counts = count_layers(monkeypatch)
    lesmis = load_lesmis()
    first = select(binarize(lesmis), MethodSpec("cbic"), dist="bernoulli", m_max=4, restarts=2)
    assert counts == {"kmeans": 3, "leading_eigpairs": 1}
    counts.clear()
    second = select(binarize(lesmis), MethodSpec("icl"), dist="bernoulli", m_max=4, restarts=2)
    assert counts == {}
    assert [s.status for s in first.steps] == [s.status for s in second.steps] == ["ok"] * 4


def test_any_change_to_the_step_key_misses(monkeypatch):
    counts = count_layers(monkeypatch)
    lesmis = load_lesmis()
    base = dict(m=3, clusterer="score", seed=0, restarts=2)

    def step(net=lesmis, **change):
        counts.clear()
        try:
            return selection._cluster_and_fit(copy.copy(net), **{**base, **change})
        except FitError:  # the assignment was clustered, and is memoised, before the fit failed
            return None

    first = step()
    assert counts["kmeans"] == 1
    again = step()
    assert counts["kmeans"] == 0
    assert again.assignment is first.assignment
    assert np.array_equal(again.mean, first.mean)
    for change in (dict(seed=1), dict(restarts=3), dict(clusterer="rsc"), dict(m=4)):
        step(**change)
        assert counts["kmeans"] == 1, change
    weights = lesmis.weights.copy()
    weights[0, 11] = weights[11, 0] = np.nextafter(weights[0, 11], np.inf)
    moved = WeightedAdjacency(weights)
    assert moved.weights[0, 11] != lesmis.weights[0, 11]
    step(moved)
    assert counts["kmeans"] == 1
    # the moved network replaced the memo, so the first key misses again
    step()
    assert counts["kmeans"] == 1


def test_lanczos_path_keys_the_memo_by_the_csr_weights(monkeypatch):
    # large sparse networks are keyed by their CSR weights, not the dense ones
    monkeypatch.setattr(spectral, "LANCZOS_MIN_N", 2)
    counts = count_layers(monkeypatch)
    rng = make_rng(5)
    mean = mean_matrix(simulation_params(3, 0.1, 3, (30, 40, 50), rng))
    weights = sample_network(mean, EdgeDistribution("poisson"), rng).weights.copy()
    first, second = WeightedAdjacency(weights.copy()), WeightedAdjacency(weights.copy())
    assert spectral._sparse_weights(copy.copy(first)) is not None
    base = dict(m=3, clusterer="score", seed=0, restarts=2)

    def step(net):
        counts.clear()
        return selection._cluster_and_fit(copy.copy(net), **base)

    labels = step(first).assignment
    assert counts["kmeans"] == 1
    # a network built separately with equal weights shares the step
    assert step(second).assignment is labels
    assert counts["kmeans"] == 0
    digest = selection._steps[0]
    assert digest[:2] == ("csr", weights.shape)
    # one ulp on one weight (both triangles) misses
    i, j = map(int, np.argwhere(np.triu(weights, 1) > 0)[0])
    weights[i, j] = weights[j, i] = np.nextafter(weights[i, j], np.inf)
    step(WeightedAdjacency(weights))
    assert counts["kmeans"] == 1
    assert selection._steps[0] != digest


def test_memo_holds_only_the_last_networks_labels():
    lesmis = load_lesmis()
    rng = make_rng(3)
    other = sample_network(
        mean_matrix(simulation_params(2, 0.3, 3, (15, 20), rng)), EdgeDistribution("poisson"), rng
    )
    assert other.n != lesmis.n
    select(lesmis, MethodSpec("svps"), m_max=4, restarts=2)
    select(other, MethodSpec("cbic", "rsc"), dist="poisson", m_max=4, restarts=2)
    digest, entries = selection._steps
    assert digest == (other.weights.shape, hashlib.sha1(other.weights).digest())
    assert sorted(entries) == [("rsc",)] + [("rsc", m, 0, 2) for m in range(1, 5)]
    assert all(isinstance(entries[key], Assignment) for key in entries if len(key) == 4)
    # every array the memo reaches is one network-B label vector, or the
    # leading m_max columns of its RSC basis: nothing n x n
    arrays, seen, stack = [], set(), [selection._steps]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        else:
            stack.extend(gc.get_referents(obj))
    assert sorted(a.shape for a in arrays) == [(other.n,)] * 4 + [(other.n, 4)]
    assert all(a.base is None for a in arrays)
    basis = entries["rsc",]
    assert not basis.flags.writeable
    assert np.array_equal(basis, spectral._basis(copy.copy(other), "rsc", 4))


def test_a_numpy_integer_seed_is_memoised_as_its_int(monkeypatch):
    lesmis = load_lesmis()
    runs = {}
    for seed in (7, np.int64(7)):
        monkeypatch.setattr(selection, "_steps", (None, {}))
        with pytest.MonkeyPatch.context() as patch:
            counts = count_layers(patch)
            traces = [select(lesmis, MethodSpec(selector), dist="poisson", m_max=3, seed=seed, restarts=2).to_csv()
                      for selector in ("cbic", "icl")]
        runs[type(seed)] = (traces, counts["kmeans"], sorted(selection._steps[1]))
    # ICL reuses CBIC's two clustered steps (m = 2, 3) under either spelling
    assert runs[int] == runs[np.int64]
    assert runs[int][1] == 2
    assert runs[int][2] == [("score",)] + [("score", m, 7, 2) for m in (1, 2, 3)]


@pytest.mark.parametrize("seed", [None, 7.0, (4, 2), -1], ids=["none", "float", "entropy-sequence", "negative"])
def test_seeds_that_are_not_integers_at_least_zero_raise_before_clustering(seed, monkeypatch):
    counts = count_layers(monkeypatch)
    for selector, dist in (("svps", None), ("cbic", "poisson")):
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got "):
            select(load_lesmis(), MethodSpec(selector), dist=dist, m_max=3, seed=seed, restarts=2)
    assert counts["kmeans"] == 0
    assert selection._steps == (None, {})


def test_a_memo_replaced_during_a_step_is_only_missed(monkeypatch):
    # a step on network B runs while network A's step is clustering, as a
    # concurrent caller would; A's labels must not land in B's memo
    lesmis = load_lesmis()
    other = regularize(lesmis, 0.5)
    key = dict(m=3, clusterer="score", seed=0, restarts=2)
    cold_b = selection._cluster_and_fit(copy.copy(other), **key).assignment.labels
    selection._steps = (None, {})
    cluster = selection.score_cluster
    interleaved = []

    def interleaving(adj, m, **kwargs):
        if adj.weights is lesmis.weights and not interleaved:
            interleaved.append(selection._cluster_and_fit(copy.copy(other), **key))
        return cluster(adj, m, **kwargs)

    monkeypatch.setattr(selection, "score_cluster", interleaving)
    labels_a = selection._cluster_and_fit(copy.copy(lesmis), **key).assignment.labels
    assert not np.array_equal(labels_a, cold_b)
    assert np.array_equal(interleaved[0].assignment.labels, cold_b)
    assert np.array_equal(selection._cluster_and_fit(copy.copy(other), **key).assignment.labels, cold_b)


def test_threads_on_two_networks_only_miss():
    # each thread alternates between two networks, so the memo is replaced
    # under the others; a thread may lose its entries but never read the
    # other network's labels
    lesmis = load_lesmis()
    nets = [lesmis, binarize(lesmis)]
    spec = MethodSpec("cbic", "rsc")

    def run(adj):
        return select(adj, spec, dist="bernoulli" if adj is nets[1] else "poisson", m_max=4, restarts=2).to_csv()

    want = []
    for adj in nets:
        selection._steps = (None, {})
        want.append(run(adj))
    got, errors = [], []

    def worker(offset):
        try:
            for i in range(4):
                index = (i + offset) % 2
                got.append((index, run(nets[index])))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(got) == 4 * 4
    assert all(csv == want[index] for index, csv in got)
