import numpy as np
import pytest

from commscale import spectral
from commscale.datasets import load_lesmis
from commscale.model import make_rng
from commscale.network import WeightedAdjacency
from commscale.spectral import (
    Assignment,
    ClusterError,
    kmeans,
    leading_eigpairs,
    rsc_cluster,
    score_cluster,
)


def same_partition(a, b):
    """Label-permutation-invariant partition equality."""
    a = np.asarray(a)
    b = np.asarray(b)
    mapping = {}
    for x, y in zip(a, b):
        if x in mapping and mapping[x] != y:
            return False
        mapping[x] = y
    return len(set(mapping.values())) == len(mapping)


def block_adjacency(sizes, rng=None, theta=None):
    labels = np.repeat(np.arange(len(sizes)), sizes)
    n = len(labels)
    b = np.full((len(sizes), len(sizes)), 0.3) + 0.7 * np.eye(len(sizes))
    if theta is None:
        theta = np.ones(n)
    m = np.outer(theta, theta) * b[np.ix_(labels, labels)]
    return WeightedAdjacency(m), labels


def test_leading_eigpairs_quadratic_oracle():
    # eigenvalues of [[4,1],[1,1]] solve t^2 - 5t + 3 = 0
    a = np.array([[4.0, 1.0], [1.0, 1.0]])
    values, _ = leading_eigpairs(a)
    expected = np.array([(5 + np.sqrt(13)) / 2, (5 - np.sqrt(13)) / 2])
    assert np.allclose(values[:2], expected, atol=1e-12)


def test_leading_eigpairs_rank_one():
    theta = np.array([1.0, 2.0, 2.0])
    values, vectors = leading_eigpairs(np.outer(theta, theta))
    assert np.isclose(values[0], 9.0)
    assert np.allclose(vectors[:, 0], theta / 3.0)


def test_leading_eigpairs_identity_ties():
    values, _ = leading_eigpairs(np.eye(4))
    assert np.allclose(values[:2], [1.0, 1.0])


def test_magnitude_order_mixes_signs():
    a = np.diag([1.0, -3.0, 2.0])
    values, _ = leading_eigpairs(a)
    assert np.allclose(values[:3], [-3.0, 2.0, 1.0])


def test_positive_before_negative_on_magnitude_tie():
    values, _ = leading_eigpairs(np.diag([-2.0, 2.0]))
    assert np.allclose(values[:2], [2.0, -2.0])


def test_sign_convention():
    theta = np.array([1.0, 2.0, 2.0])
    _, vectors = leading_eigpairs(np.outer(theta, theta))
    assert vectors[:, 0].sum() > 0
    # zero-sum eigenvector: make the largest-magnitude entry positive
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    _, vectors = leading_eigpairs(a)
    second = vectors[:, 1]
    assert np.isclose(second.sum(), 0.0, atol=1e-12)
    assert second[np.argmax(np.abs(second))] > 0


def test_eigpair_residual_and_orthonormality():
    rng = np.random.default_rng(17)
    a = rng.normal(size=(30, 30))
    a = a + a.T
    values, vectors = leading_eigpairs(a)
    norm = np.linalg.norm(a, 2)
    for k in range(7):
        v = vectors[:, k]
        assert np.linalg.norm(a @ v - values[k] * v) <= 1e-6 * norm
    assert np.allclose(vectors[:, :7].T @ vectors[:, :7], np.eye(7), atol=1e-8)


def test_leading_eigpairs_returns_every_pair_read_only():
    values, vectors = leading_eigpairs(np.diag([1.0, -3.0, 2.0]))
    assert values.shape == (3,) and vectors.shape == (3, 3)
    for array in (values, vectors):
        with pytest.raises(ValueError):
            array[0] = 0.0
    with pytest.raises(ValueError, match="square"):
        leading_eigpairs(np.ones((2, 3)))


def test_kmeans_recovers_separated_clusters():
    rng = np.random.default_rng(2)
    pts = np.vstack([rng.normal(0, 0.05, (20, 2)), rng.normal(5, 0.05, (30, 2))])
    out = kmeans(pts, 2, seed=0)
    truth = np.repeat([0, 1], [20, 30])
    assert same_partition(truth, out.labels)
    assert sorted(out.sizes) == [20, 30]


def test_kmeans_single_cluster_and_determinism():
    pts = np.random.default_rng(0).normal(size=(10, 3))
    assert np.array_equal(kmeans(pts, 1).labels, np.zeros(10, dtype=int))
    a = kmeans(pts, 3, seed=9).labels
    b = kmeans(pts, 3, seed=9).labels
    assert np.array_equal(a, b)


def test_kmeans_validation():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError, match=r"^m=4 out of range 1\.\.3$"):
        kmeans(pts, 4)
    for m in (0, 2.5, np.float64(2.0), "2", None):
        with pytest.raises(ValueError, match=r"^m must be an integer >= 1, got "):
            kmeans(pts, m)
    assert kmeans(np.arange(6.0).reshape(3, 2), np.int64(2)).m == 2
    for rows in (np.zeros(3), np.zeros((3, 0))):
        with pytest.raises(ValueError, match="rows must be 2-d with at least one column"):
            kmeans(rows, 1)
    # m equal to n is fine: one point per cluster
    out = kmeans(np.arange(6.0).reshape(3, 2), 3)
    assert sorted(out.sizes) == [1, 1, 1]


def test_assignment_requires_every_cluster_nonempty():
    with pytest.raises(ValueError, match="empty cluster: only 2 of 3 used"):
        Assignment(np.array([0, 0, 2, 2]), 3)
    with pytest.raises(ValueError, match="labels must be 1-d"):
        Assignment(np.zeros((2, 2), dtype=int), 1)
    with pytest.raises(ValueError, match="m must be >= 1"):
        Assignment(np.zeros(3, dtype=int), 0)
    for labels in ([0, 1, 2], [-1, 0, 1]):
        with pytest.raises(ValueError, match="labels out of range"):
            Assignment(np.array(labels), 2)


def test_basis_rejects_m_out_of_range():
    adj = WeightedAdjacency(np.ones((3, 3)))
    for clusterer in ("score", "rsc"):
        for m in (0, 4):
            with pytest.raises(ValueError, match=f"m={m} out of range 1..3"):
                spectral._basis(adj, clusterer, m)


def kmeans_rows(monkeypatch, cluster, adj, m):
    """The rows cluster(adj, m) hands to spectral.kmeans."""
    calls = []

    def recording(rows, m, seed=0, restarts=50):
        calls.append(np.array(rows))
        return Assignment(np.arange(len(rows)) % m, m)

    with monkeypatch.context() as patch:
        patch.setattr(spectral, "kmeans", recording)
        cluster(adj, m)
    assert len(calls) == 1
    return calls[0]


def test_score_cluster_ratios_clamped_and_finite(monkeypatch):
    adj, _ = block_adjacency((5, 5))
    ratios = kmeans_rows(monkeypatch, score_cluster, adj, 2)
    assert ratios.shape == (10, 1)
    assert np.all(np.abs(ratios) <= np.log(10) + 1e-12)
    # a zero leading-eigenvector entry must not produce nan: u_1 = e_1,
    # so row 1 is 1/0 (clamped to log 3) and row 2 is 0/0 (mapped to 0)
    adj = WeightedAdjacency(np.diag([3.0, 2.0, 1.0]))
    ratios = kmeans_rows(monkeypatch, score_cluster, adj, 2)
    assert np.all(np.isfinite(ratios))
    assert np.array_equal(ratios[:, 0], [0.0, np.log(3), 0.0])


def test_score_cluster_noiseless_exact_recovery():
    rng = np.random.default_rng(8)
    for sizes in ((12, 18), (10, 15, 20)):
        theta = rng.uniform(0.6, 1.4, size=sum(sizes))
        adj, labels = block_adjacency(sizes, theta=theta)
        out = score_cluster(adj, len(sizes), seed=1)
        assert same_partition(labels, out.labels)


def test_score_cluster_m1():
    adj, _ = block_adjacency((4, 4))
    assert np.array_equal(score_cluster(adj, 1).labels, np.zeros(8, dtype=int))


def test_rsc_cluster_noiseless_exact_recovery():
    rng = np.random.default_rng(21)
    theta = rng.uniform(0.6, 1.4, size=45)
    adj, labels = block_adjacency((10, 15, 20), theta=theta)
    out = rsc_cluster(adj, 3, seed=1)
    assert same_partition(labels, out.labels)


def test_rsc_handles_isolated_node():
    w = np.zeros((5, 5))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    adj = WeightedAdjacency(w)
    out = rsc_cluster(adj, 2, seed=0)
    assert out.labels.shape == (5,)


def test_rsc_all_zero_network():
    # zero mean degree adds no regularization, so every degree is zero and
    # the normalized adjacency is zero rather than a division by zero
    for m in (2, 3):
        out = rsc_cluster(WeightedAdjacency(np.zeros((6, 6))), m, seed=0, restarts=3)
        assert out.labels.shape == (6,)
        assert out.m == m


def test_clustering_permutation_equivariance():
    rng = np.random.default_rng(4)
    theta = rng.uniform(0.6, 1.4, size=20)
    adj, _ = block_adjacency((8, 12), theta=theta)
    perm = rng.permutation(20)
    permuted = WeightedAdjacency(adj.weights[np.ix_(perm, perm)])
    base = score_cluster(adj, 2, seed=3).labels
    moved = score_cluster(permuted, 2, seed=3).labels
    assert same_partition(base[perm], moved)


def test_cluster_seed_changes_are_contained():
    # different seeds may relabel but must keep the noiseless partition
    adj, labels = block_adjacency((10, 14))
    for seed in range(4):
        assert same_partition(labels, score_cluster(adj, 2, seed=seed).labels)


def test_kmeans_rejects_fewer_than_one_restart():
    pts = np.arange(8.0).reshape(4, 2)
    for restarts in (0, -1, 2.5, np.float64(2.0), None):
        with pytest.raises(ValueError, match=r"^restarts must be an integer >= 1, got "):
            kmeans(pts, 2, restarts=restarts)
        with pytest.raises(ValueError, match=r"^restarts must be an integer >= 1, got "):
            kmeans(pts, 1, restarts=restarts)
    assert np.array_equal(kmeans(pts, 2, restarts=np.int64(3)).labels, kmeans(pts, 2, restarts=3).labels)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kmeans_rejects_non_finite_rows(bad, monkeypatch):
    rows = np.random.default_rng(6).normal(size=(20, 2))
    rows[7, 1] = bad
    monkeypatch.setattr(spectral, "_plusplus_draws", None)
    for m in (1, 3):
        with pytest.raises(ValueError, match="^rows must be finite$"):
            kmeans(rows, m)


# Sequential k-means, one restart at a time, drawing k-means++ centres with
# Generator.choice: the reference the batched kmeans must reproduce label
# for label.

def reference_plusplus_init(x, m, rng):
    """(centres, doomed): the k-means++ starts, and whether a centre found
    every distance zero and drew integers(n) instead."""
    n = x.shape[0]
    centers = np.empty((m, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    doomed = False
    for k in range(1, m):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            doomed = True
            idx = rng.integers(n)
        centers[k] = x[idx]
        d2 = np.minimum(d2, ((x - centers[k]) ** 2).sum(axis=1))
    return centers, doomed


def reference_lloyd(x, m, rng, reseeds):
    """One restart: (wcss, labels), or None if a cluster emptied."""
    n = x.shape[0]
    centers = reference_plusplus_init(x, m, rng)[0]
    prev = np.inf
    for _ in range(spectral.KMEANS_MAX_ITER):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        point_d2 = d2[np.arange(n), labels]
        counts = np.bincount(labels, minlength=m)
        if (counts == 0).any():
            reseeds.append(m)
            pd = point_d2.copy()
            for k in np.flatnonzero(counts == 0):
                far = int(pd.argmax())
                centers[k] = x[far]
                pd[far] = -1.0
            continue
        wcss = point_d2.sum()
        for k in range(m):
            centers[k] = x[labels == k].mean(axis=0)
        if prev - wcss <= spectral.KMEANS_TOL * max(wcss, np.finfo(float).tiny):
            break
        prev = wcss
    d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    if (np.bincount(labels, minlength=m) == 0).any():
        return None
    return d2[np.arange(n), labels].sum(), labels


def assert_kmeans_matches_reference(rows, m, seed=0, restarts=50):
    """Same k-means++ starts and labels in every restart and the same
    chosen Assignment.

    A reference restart that draws past a zero-distance centre must end
    with an empty cluster. When every restart does, _plusplus_init and
    kmeans must raise ClusterError; else the other restarts' starts must
    match and the doomed ones end empty whatever their further centres.
    Returns the number of empty-cluster reseeds the reference made.
    """
    x = np.asarray(rows, dtype=float)
    children = np.random.SeedSequence(seed).spawn(restarts)
    reseeds = []
    ref = [reference_lloyd(x, m, np.random.default_rng(c), reseeds) for c in children]
    starts = [reference_plusplus_init(x, m, np.random.default_rng(c)) for c in children]
    doomed = np.array([d for _, d in starts])
    for i in np.flatnonzero(doomed):
        assert ref[i] is None, f"restart {i}"

    if doomed.all():
        with pytest.raises(ClusterError, match=f"^every k-means restart left one of {m} clusters empty$"):
            spectral._plusplus_init(x, m, seed, restarts)
    else:
        centers = spectral._plusplus_init(x, m, seed, restarts)
        for i in np.flatnonzero(~doomed):
            assert np.array_equal(centers[i], starts[i][0]), f"restart {i}"
        labels, _, counts = spectral._lloyd(x, centers)
        for i, result in enumerate(ref):
            assert (result is None) == (counts[i] == 0).any(), f"restart {i}"
            if result is not None:
                assert np.array_equal(labels[i], result[1]), f"restart {i}"

    best = None
    for result in ref:
        if result is not None and (best is None or result[0] < best[0]):
            best = result
    if best is None:
        with pytest.raises(ClusterError, match=f"^every k-means restart left one of {m} clusters empty$"):
            kmeans(rows, m, seed=seed, restarts=restarts)
    else:
        assert np.array_equal(kmeans(rows, m, seed=seed, restarts=restarts).labels, best[1])
    return len(reseeds)


@pytest.mark.parametrize("clusterer", [score_cluster, rsc_cluster])
def test_kmeans_matches_sequential_reference_on_lesmis(clusterer, monkeypatch):
    calls = []
    batched = spectral.kmeans

    def recording(rows, m, seed=0, restarts=50):
        calls.append((np.array(rows), m, seed, restarts))
        return batched(rows, m, seed=seed, restarts=restarts)

    monkeypatch.setattr(spectral, "kmeans", recording)
    adj = load_lesmis()
    for m in range(2, 11):
        clusterer(adj, m, seed=m)
    assert [c[1] for c in calls] == list(range(2, 11))
    # SCORE at m = 2 clusters one column of ratios (d = 1)
    assert calls[0][0].shape[1] == (1 if clusterer is score_cluster else 2)
    for rows, m, seed, restarts in calls:
        assert_kmeans_matches_reference(rows, m, seed=seed, restarts=restarts)


def test_kmeans_matches_sequential_reference_in_one_dimension():
    pts = np.random.default_rng(5).normal(size=(40, 1)) * [[3.0]]
    for m in (2, 3, 5):
        assert_kmeans_matches_reference(pts, m, seed=1)


def test_kmeans_matches_sequential_reference_through_empty_cluster_reseed():
    # 27 rows resampled with replacement from 27 points in the plane; at
    # m = 7 and 8 one restart's Lloyd step empties a cluster
    rng = np.random.default_rng(18)
    n, d = int(rng.integers(6, 30)), int(rng.integers(1, 4))
    pts = rng.standard_normal((n, d))
    rows = pts[rng.integers(0, n, size=n)]
    assert len(np.unique(rows, axis=0)) < n
    assert sum(assert_kmeans_matches_reference(rows, m) for m in (7, 8)) > 0


def test_kmeans_matches_sequential_reference_one_row_per_cluster():
    rows = np.random.default_rng(3).normal(size=(9, 2))
    assert_kmeans_matches_reference(rows, 9, seed=2, restarts=7)
    assert sorted(kmeans(rows, 9, seed=2, restarts=7).sizes) == [1] * 9


def test_kmeans_matches_sequential_reference_when_every_restart_empties():
    # three distinct rows cannot fill four clusters
    rows = np.repeat(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]), [4, 3, 5], axis=0)
    assert assert_kmeans_matches_reference(rows, 4, restarts=5) > 0
    assert_kmeans_matches_reference(rows, 3, restarts=5)


# kmeans memoises the last (seed, restarts, n)'s k-means++ draws. Whatever
# ran before, a call must give the labels it gives on an empty memo.

def cold_kmeans(rows, m, seed, restarts):
    """kmeans's labels, or ClusterError, on an empty draw memo."""
    spectral._plusplus_draws.cache_clear()
    return warm_kmeans(rows, m, seed, restarts)


def warm_kmeans(rows, m, seed, restarts):
    try:
        return kmeans(rows, m, seed=seed, restarts=restarts).labels.tolist()
    except ClusterError:
        return ClusterError


def assert_history_free(calls):
    """Each (rows, m, seed, restarts) in turn gives its cold labels, and the
    first matches the sequential reference afterwards."""
    expected = [cold_kmeans(*call) for call in calls]
    spectral._plusplus_draws.cache_clear()
    assert [warm_kmeans(*call) for call in calls] == expected
    assert_kmeans_matches_reference(calls[0][0], calls[0][1], seed=calls[0][2], restarts=calls[0][3])


def spread_rows(n, seed=4):
    return np.random.default_rng(seed).normal(size=(n, 2))


def three_points(n):
    """n rows on three distinct points: every k-means++ restart finds all
    distances zero at the fourth centre, so m >= 4 raises ClusterError."""
    return np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])[np.arange(n) % 3]


def test_kmeans_draws_ignore_a_larger_m_run_first():
    rows = spread_rows(40)
    assert_history_free([(rows, 2, 3, 8), (rows, 5, 3, 8), (rows, 2, 3, 8), (rows, 4, 3, 8)])


def test_kmeans_draws_ignore_another_seed_restarts_or_n_between():
    rows = spread_rows(40)
    calls = [(rows, 3, 1, 8), (rows, 3, 2, 8), (rows, 4, 1, 8), (rows, 3, 1, 5), (rows, 5, 1, 8)]
    calls += [(spread_rows(30), 3, 1, 8), (rows, 6, 1, 8), (spread_rows(50), 6, 1, 8)]
    assert_history_free(calls)


def test_kmeans_draws_ignore_a_zero_distance_call_between():
    # the three-point call stops at the fourth centre of every restart;
    # the calls after it read tape columns past that point
    rows = spread_rows(30)
    calls = [(rows, 2, 0, 6), (three_points(30), 6, 0, 6), (rows, 8, 0, 6), (three_points(30), 3, 0, 6)]
    assert cold_kmeans(*calls[1]) is ClusterError
    assert_history_free(calls)
    # the reference draws integers(n) three times per restart there, past
    # two uniforms, and ends every restart with an empty cluster
    assert_kmeans_matches_reference(three_points(30), 6, seed=0, restarts=6)


@pytest.mark.parametrize("m", [4, 6])
def test_rows_that_cannot_fill_m_clusters_fail_before_any_assignment(m, monkeypatch):
    calls = []
    assign = spectral._assign
    monkeypatch.setattr(spectral, "_assign", lambda *args: calls.append(args) or assign(*args))
    with pytest.raises(ClusterError, match=f"^every k-means restart left one of {m} clusters empty$"):
        kmeans(three_points(30), m)
    assert calls == []
    kmeans(three_points(30), 3)
    assert calls


def test_restarts_whose_distances_underflow_unevenly_are_kept_apart():
    # 0 and 3e-162 are 1e-323 apart squared, but 1.5e-162 is at distance 0
    # from both: a restart that starts there finds every distance zero and
    # ends empty, while one that starts at either end splits the rows
    rows = np.array([[0.0], [1.5e-162], [3e-162]])
    for seed in range(4):
        first, _ = spectral._plusplus_draws(seed, 5, 3)
        assert 1 in first and set(first) - {1}
        assert_kmeans_matches_reference(rows, 2, seed=seed, restarts=5)
        assert sorted(kmeans(rows, 2, seed=seed, restarts=5).sizes) == [1, 2]


@pytest.mark.parametrize(
    "seed", [None, 1.5, -1, [3], (4, 2), np.float64(3.0)], ids=["none", "float", "negative", "list", "tuple", "numpy-float"]
)
def test_clusterers_take_only_an_integer_seed(seed):
    rows = spread_rows(12)
    adj, _ = block_adjacency((6, 6))
    with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got "):
        kmeans(rows, 2, seed=seed)
    for m in (1, 2):
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got "):
            score_cluster(adj, m, seed=seed)
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got "):
            rsc_cluster(adj, m, seed=seed)


def test_clusterers_check_m_and_restarts_at_every_m():
    lesmis = load_lesmis()
    with pytest.raises(ValueError, match=r"^m must be an integer >= 1, got 2\.5$"):
        score_cluster(lesmis, 2.5)
    with pytest.raises(ValueError, match=r"^restarts must be an integer >= 1, got 0$"):
        score_cluster(lesmis, 1, restarts=0)
    with pytest.raises(ValueError, match=r"^restarts must be an integer >= 1, got 2\.5$"):
        rsc_cluster(lesmis, 1, restarts=2.5)
    for clusterer in (score_cluster, rsc_cluster):
        for m in (0, np.float64(2.0), None):
            with pytest.raises(ValueError, match=r"^m must be an integer >= 1, got "):
                clusterer(lesmis, m)
        assert clusterer(lesmis, np.int64(1), restarts=np.int64(1)).m == 1


def test_clusterers_take_a_numpy_integer_seed():
    rows = spread_rows(12)
    adj, _ = block_adjacency((6, 6))
    assert np.array_equal(kmeans(rows, 3, seed=np.int64(3)).labels, kmeans(rows, 3, seed=3).labels)
    for clusterer in (score_cluster, rsc_cluster):
        assert np.array_equal(clusterer(adj, 2, seed=np.uint8(3)).labels, clusterer(adj, 2, seed=3).labels)


# The eigenpairs and SCORE ratios as they were computed before the basis
# was shared across m: one full decomposition per (matrix, m), cut to m
# pairs. The shared basis must reproduce them bit for bit.

def reference_leading_eigpairs(matrix, m):
    vals, vecs = np.linalg.eigh(np.asarray(matrix, dtype=float))
    order = np.lexsort((-vals, -np.abs(vals)))[:m]
    vals = vals[order]
    vecs = vecs[:, order]
    for j in range(m):
        s = vecs[:, j].sum()
        if s < 0:
            vecs[:, j] = -vecs[:, j]
        elif s == 0:
            i = int(np.abs(vecs[:, j]).argmax())
            if vecs[i, j] < 0:
                vecs[:, j] = -vecs[:, j]
    return vals, vecs


def reference_score_ratios(matrix, m):
    n = matrix.shape[0]
    _, vecs = reference_leading_eigpairs(matrix, m)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = vecs[:, 1:] / vecs[:, :1]
    ratios = np.nan_to_num(ratios, nan=0.0, posinf=np.inf, neginf=-np.inf)
    clamp = np.log(n)
    return np.clip(ratios, -clamp, clamp)


def reference_rsc_matrix(adj):
    n = adj.n
    a_reg = adj.weights + 0.25 * adj.weights.sum(axis=1).mean() / n
    dsum = a_reg.sum(axis=1)
    with np.errstate(divide="ignore"):
        inv_sqrt = np.where(dsum > 0, 1.0 / np.sqrt(dsum), 0.0)
    return a_reg * np.outer(inv_sqrt, inv_sqrt)


def reference_rsc_rows(adj, m):
    rows = reference_leading_eigpairs(reference_rsc_matrix(adj), m)[1].copy()
    norms = np.linalg.norm(rows, axis=1)
    keep = norms > 0
    rows[keep] /= norms[keep, None]
    return rows


# a nonnegative matrix whose eigenvector for lambda = 1, (1, 0, -1) / sqrt 2,
# sums to exactly zero in floating point
ZERO_SUM = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 2.0], [0.0, 2.0, 1.0]])


@pytest.mark.parametrize(
    "adj, ms",
    [(load_lesmis(), range(2, 11)), (WeightedAdjacency(ZERO_SUM), range(2, 4))],
    ids=["lesmis", "zero-sum-eigenvector"],
)
def test_shared_basis_matches_per_m_decomposition(adj, ms, monkeypatch):
    raw = np.linalg.eigh(ZERO_SUM)[1]
    assert any(raw[:, j].sum() == 0 for j in range(3))
    for matrix in (adj.weights, reference_rsc_matrix(adj)):
        values, vectors = leading_eigpairs(matrix)
        for m in (1, *ms):
            ref_values, ref_vectors = reference_leading_eigpairs(matrix, m)
            assert np.array_equal(values[:m], ref_values)
            assert np.array_equal(vectors[:, :m], ref_vectors)
    for m in ms:
        score_rows = kmeans_rows(monkeypatch, score_cluster, adj, m)
        assert np.array_equal(score_rows, reference_score_ratios(adj.weights, m))
        assert np.array_equal(kmeans_rows(monkeypatch, rsc_cluster, adj, m), reference_rsc_rows(adj, m))


# Inputs on which the matmul candidates cannot certify every label, so
# _nearest recomputes those points exactly: exact distance ties, a large
# offset that cancels in |x|^2 - 2 x.c + |c|^2, d = 17, where numpy's
# pairwise sum runs two blocks of 8 and a remainder, and rows so far out
# that |x|^2 overflows. Repeated rows tie
# only at centres that coincide, which takes m above the 4 distinct rows:
# k-means++ then raises ClusterError before any assignment.

def tie_grid():
    return np.array([[i, j] for i in range(6) for j in range(6)], dtype=float)


def duplicated_rows():
    rng = np.random.default_rng(11)
    return np.repeat(rng.normal(size=(4, 3)), [12, 9, 7, 2], axis=0)


def offset_rows():
    return 1e6 + 0.01 * np.random.default_rng(12).normal(size=(60, 2))


def integer_rows_d17():
    return np.random.default_rng(13).integers(0, 3, size=(40, 17)).astype(float)


def huge_rows():
    # |x|^2 overflows, so every matmul candidate and WCSS estimate is NaN
    return 1e160 + 1e150 * np.random.default_rng(14).normal(size=(30, 2))


@pytest.fixture
def exact_points(monkeypatch):
    """The number of points _nearest has sent to _exact_nearest so far."""
    seen = []
    exact = spectral._exact_nearest

    def recording(x, centers, rows, points):
        seen.append(len(points))
        return exact(x, centers, rows, points)

    monkeypatch.setattr(spectral, "_exact_nearest", recording)
    return lambda: sum(seen)


@pytest.mark.parametrize(
    "rows, ms, exact",
    [(tie_grid(), (2, 4, 5), True), (duplicated_rows(), (3, 5), False), (offset_rows(), (2, 3), True),
     (integer_rows_d17(), (17,), True),
     pytest.param(huge_rows(), (2, 3), True, marks=pytest.mark.filterwarnings("error::RuntimeWarning"))],
    ids=["integer-grid-ties", "duplicated-rows", "offset-1e6", "d17-m17", "huge-1e160"],
)
def test_kmeans_matches_sequential_reference_through_exact_fallback(rows, ms, exact, exact_points):
    for seed in (0, 1):
        for m in ms:
            assert_kmeans_matches_reference(rows, m, seed=seed, restarts=10)
    assert (exact_points() > 0) == exact


def test_certified_labels_skip_the_exact_fallback(exact_points):
    rows = np.random.default_rng(2).normal(size=(40, 3))
    assert_kmeans_matches_reference(rows, 3, restarts=5)
    assert exact_points() == 0


# _lloyd decides its WCSS test from _assign's estimates, and computes exact
# distances only where their bound cannot decide it, for empty-cluster
# reseeds and for the final pick. A restart that stops on a label repeat
# keeps that iteration's labels; the others are labelled afresh.

@pytest.fixture
def lloyd_work(monkeypatch):
    """What _lloyd has done so far: "exact", the restarts whose exact
    distances _point_d2 computed, and "outside", the restarts labelled by
    _nearest outside an iteration's _assign (a fresh final assignment, or
    the earlier assignment of an exact WCSS test)."""
    work = {"exact": 0, "outside": 0}
    point_d2, nearest, assign = spectral._point_d2, spectral._nearest, spectral._assign

    def recording_point_d2(xt, centers, labels):
        work["exact"] += len(centers)
        return point_d2(xt, centers, labels)

    def recording_nearest(x, centers, parts):
        work["outside"] += len(centers)
        return nearest(x, centers, parts)

    def recording_assign(x, centers, parts):
        work["outside"] -= len(centers)
        return assign(x, centers, parts)

    monkeypatch.setattr(spectral, "_point_d2", recording_point_d2)
    monkeypatch.setattr(spectral, "_nearest", recording_nearest)
    monkeypatch.setattr(spectral, "_assign", recording_assign)
    return work


def test_exact_wcss_only_where_the_bound_cannot_decide(lloyd_work):
    # one _lloyd and one kmeans call per reference check; neither reseeds
    rows = np.random.default_rng(2).normal(size=(40, 3))
    assert assert_kmeans_matches_reference(rows, 3, restarts=5) == 0
    assert lloyd_work["exact"] == 2 * 5
    # a 1e6 offset puts the bound far above 1e-9 * WCSS, so every test
    # after the first computes the WCSS exactly
    for m in (2, 3):
        lloyd_work["exact"] = 0
        assert assert_kmeans_matches_reference(offset_rows(), m, restarts=10) == 0
        assert lloyd_work["exact"] > 2 * 10


@pytest.mark.parametrize(
    "constant, value, fresh",
    [("KMEANS_TOL", spectral.KMEANS_TOL, 0), ("KMEANS_TOL", 1e-2, 2), ("KMEANS_MAX_ITER", 1, 5)],
    ids=["default-all-repeat", "tol-1e-2-mixed", "one-iteration-all-fresh"],
)
def test_final_labels_reuse_a_repeat_or_come_fresh(constant, value, fresh, lloyd_work, monkeypatch):
    # the reference reads the same constants; on these rows no WCSS test
    # needs the exact sums, so every restart labelled outside an iteration
    # was labelled afresh
    monkeypatch.setattr(spectral, constant, value)
    rows = np.random.default_rng(2).normal(size=(40, 3))
    assert_kmeans_matches_reference(rows, 3, restarts=5)
    assert lloyd_work == {"exact": 2 * 5, "outside": 2 * fresh}


@pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 16, 17, 24, 129, 300])
def test_exact_distances_add_in_numpy_pairwise_order(d):
    rng = np.random.default_rng(d)
    x = rng.normal(size=(30, d)) * rng.uniform(0, 1e3, size=(30, 1))
    centers = rng.normal(size=(4, d))
    got = spectral._sq_dist(np.ascontiguousarray(x.T), lambda j: centers[:, j, None])
    assert np.array_equal(got, ((x - centers[:, None, :]) ** 2).sum(axis=-1))
