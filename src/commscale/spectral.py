"""Spectral utilities: leading eigenpairs, k-means, SCORE and RSC.

Eigendecompositions are full dense symmetric solves; at the network
sizes handled here that is cheaper and more robust near eigenvalue
multiplicities than iterative solvers. SCORE and RSC decompose their
clustering matrix once per network object and take the first m columns
of that basis at every m, so a selection decomposes it once.

k-means runs all of its k-means++ restarts together as (restarts, n, m)
array operations. Each restart still draws from its own generator
spawned from the seed and stops at its own convergence test, so its
labels are those it would reach alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import WeightedAdjacency

__all__ = [
    "Assignment",
    "ClusterError",
    "leading_eigpairs",
    "kmeans",
    "score_cluster",
    "rsc_cluster",
]

# Lloyd iterations per k-means restart, and the relative WCSS decrease
# below which a restart stops early
KMEANS_MAX_ITER = 100
KMEANS_TOL = 1e-9


class ClusterError(RuntimeError):
    """Clustering produced an empty cluster in every restart."""


@dataclass(frozen=True)
class Assignment:
    """Hard clustering into m nonempty groups, labels in 0..m-1."""

    labels: np.ndarray
    m: int

    def __post_init__(self):
        labels = np.array(self.labels, dtype=int)
        if labels.ndim != 1:
            raise ValueError("labels must be 1-d")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if labels.min() < 0 or labels.max() >= self.m:
            raise ValueError("labels out of range")
        if len(np.unique(labels)) != self.m:
            raise ValueError(f"empty cluster: only {len(np.unique(labels))} of {self.m} used")
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)

    @property
    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.m)


def leading_eigpairs(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs of a symmetric matrix as read-only (values, vectors).

    Ordered by descending |lambda|; for tied magnitudes the positive
    eigenvalue comes first. Column j of vectors belongs to values[j], so
    the first m columns are the m leading pairs. Each vector's sign is
    fixed so its entry sum is positive (largest-magnitude entry made
    positive when the sum is exactly zero).
    """
    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    vals, vecs = np.linalg.eigh(a)
    # primary key |lambda| descending, secondary key lambda descending
    order = np.lexsort((-vals, -np.abs(vals)))
    vals = vals[order]
    vecs = vecs[:, order]
    # one column sum at a time: a single vecs.sum(axis=0) adds in another
    # order, and its last-ulp differences can move a sum across zero
    for j in range(n):
        s = vecs[:, j].sum()
        if s < 0:
            vecs[:, j] = -vecs[:, j]
        elif s == 0:
            i = int(np.abs(vecs[:, j]).argmax())
            if vecs[i, j] < 0:
                vecs[:, j] = -vecs[:, j]
    vals.flags.writeable = False
    vecs.flags.writeable = False
    return vals, vecs


def _plusplus_init(x: np.ndarray, m: int, rngs: list[np.random.Generator]) -> np.ndarray:
    """(r, m, d) k-means++ starts, one restart per generator.

    Each generator draws what Generator.choice(n, p=d2 / total) would:
    one random() mapped through the normalized cumulative sum, or
    integers(n) when every row sits on a centre already.
    """
    n = x.shape[0]
    centers = np.empty((len(rngs), m, x.shape[1]))
    centers[:, 0] = x[[rng.integers(n) for rng in rngs]]
    d2 = ((x - centers[:, 0, None, :]) ** 2).sum(axis=2)
    for k in range(1, m):
        total = d2.sum(axis=1)
        spread = total > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            cdf = (d2 / total[:, None]).cumsum(axis=1)
            cdf /= cdf[:, -1:]
        draws = np.array([rng.random() if s else rng.integers(n) for rng, s in zip(rngs, spread)])
        # a uniform draw u picks cdf.searchsorted(u, side="right"), the
        # count of entries <= u; an integer draw is the index itself
        idx = np.where(spread, (cdf <= draws[:, None]).sum(axis=1), draws.astype(np.intp))
        centers[:, k] = x[idx]
        d2 = np.minimum(d2, ((x - centers[:, k, None, :]) ** 2).sum(axis=2))
    return centers


def _assign(x: np.ndarray, centers: np.ndarray):
    """Per restart: nearest-centre labels (r, n), their squared distances
    (r, n) and the cluster sizes (r, m). Distance ties go to the lower
    centre index.

    Distances are built one (r, n, d) slab per centre, so each is summed
    over the coordinates exactly as ((x - c) ** 2).sum() of one row is.
    """
    r, m, _ = centers.shape
    d2 = np.empty((r, x.shape[0], m))
    for k in range(m):
        d2[:, :, k] = ((x - centers[:, k, None, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=2)
    point_d2 = np.take_along_axis(d2, labels[:, :, None], axis=2)[:, :, 0]
    bins = labels + m * np.arange(r)[:, None]
    counts = np.bincount(bins.ravel(), minlength=r * m).reshape(r, m)
    return labels, point_d2, counts


def _lloyd(x: np.ndarray, centers: np.ndarray) -> None:
    """Lloyd's algorithm on every restart at once, updating centers in place.

    A restart leaves the batch at its own convergence test and its
    centres are not touched again. A restart whose assignment empties a
    cluster reseeds each empty one at its farthest remaining point and
    spends the iteration on that, as a single run would.
    """
    n, d = x.shape
    r, m, _ = centers.shape
    prev = np.full(r, np.inf)
    active = np.arange(r)
    for _ in range(KMEANS_MAX_ITER):
        if active.size == 0:
            break
        batch = centers[active]
        labels, point_d2, counts = _assign(x, batch)
        empty = (counts == 0).any(axis=1)
        # reseed each empty cluster at the point farthest from its centre
        for i in np.flatnonzero(empty):
            pd = point_d2[i].copy()
            for k in np.flatnonzero(counts[i] == 0):
                far = int(pd.argmax())
                batch[i, k] = x[far]
                pd[far] = -1.0
        full = ~empty
        # one bin per (restart, cluster, coordinate); bincount adds the rows
        # in order, as x[labels == k].sum(axis=0) does
        a = len(active)
        cells = (labels + m * np.arange(a)[:, None])[:, :, None] * d + np.arange(d)
        sums = np.bincount(cells.ravel(), np.broadcast_to(x, (a, n, d)).ravel(), a * m * d)
        batch[full] = sums.reshape(a, m, d)[full] / counts[full][:, :, None]
        wcss = point_d2.sum(axis=1)
        converged = full & (prev[active] - wcss <= KMEANS_TOL * np.maximum(wcss, np.finfo(float).tiny))
        prev[active[full]] = wcss[full]
        centers[active] = batch
        active = active[~converged]


def kmeans(rows: np.ndarray, m: int, seed=0, restarts: int = 50) -> Assignment:
    """k-means with k-means++ starts; best of ``restarts`` runs by WCSS.

    The restarts run as one batch, each drawing from its own generator
    spawned from ``SeedSequence(seed)``, so the result does not depend on
    the batching. Deterministic given the seed; WCSS ties keep the lowest
    restart index. Raises ClusterError if every restart ends with an
    empty cluster, which can only happen when m exceeds the number of
    distinct rows.
    """
    x = np.asarray(rows, dtype=float)
    if x.ndim != 2:
        raise ValueError("rows must be 2-d")
    n = x.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"m={m} out of range 1..{n}")
    if restarts < 1:
        raise ValueError(f"restarts={restarts} must be >= 1")
    if m == 1:
        return Assignment(np.zeros(n, dtype=int), 1)
    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(restarts)]
    centers = _plusplus_init(x, m, rngs)
    _lloyd(x, centers)
    labels, point_d2, counts = _assign(x, centers)
    valid = np.flatnonzero((counts > 0).all(axis=1))
    if valid.size == 0:
        raise ClusterError(f"every k-means restart left one of {m} clusters empty")
    wcss = point_d2[valid].sum(axis=1)
    best = valid[wcss.argmin()]
    return Assignment(labels[best], m)


def _basis(adj: WeightedAdjacency, clusterer: str) -> np.ndarray:
    """The eigenvectors of the clusterer's matrix, computed once per network object.

    The memo lives in the network's instance dict, so it goes when the
    network does; select runs on a shallow copy to keep it per selection.
    """
    key = f"_{clusterer}_basis"
    memo = vars(adj)
    if key not in memo:
        if clusterer == "score":
            matrix = adj.weights
        else:
            a_reg = adj.weights + 0.25 * adj.weights.sum(axis=1).mean() / adj.n
            dsum = a_reg.sum(axis=1)
            with np.errstate(divide="ignore"):
                inv_sqrt = np.where(dsum > 0, 1.0 / np.sqrt(dsum), 0.0)
            matrix = a_reg * np.outer(inv_sqrt, inv_sqrt)
        memo[key] = leading_eigpairs(matrix)[1]
    return memo[key]


def score_cluster(adj: WeightedAdjacency, m: int, seed=0, restarts: int = 50) -> Assignment:
    """SCORE: k-means on the n x (m-1) eigenvector ratios of the adjacency.

    Column k holds u_{k+1}(i) / u_1(i), clamped to [-log n, log n].
    Entries where u_1(i) = 0 are mapped to the clamp bound (0 when the
    numerator is also 0). m = 1 returns the single-cluster assignment.
    """
    n = adj.n
    if not 1 <= m <= n:
        raise ValueError(f"m={m} out of range 1..{n}")
    if m == 1:
        return Assignment(np.zeros(n, dtype=int), 1)
    vectors = _basis(adj, "score")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = vectors[:, 1:m] / vectors[:, :1]
    ratios = np.nan_to_num(ratios, nan=0.0, posinf=np.inf, neginf=-np.inf)
    clamp = np.log(n)
    return kmeans(np.clip(ratios, -clamp, clamp), m, seed=seed, restarts=restarts)


def rsc_cluster(adj: WeightedAdjacency, m: int, seed=0, restarts: int = 50) -> Assignment:
    """Regularized spectral clustering.

    Adds 0.25 * mean degree / n to every entry, forms the normalized
    adjacency D^{-1/2} A_reg D^{-1/2} (zero-degree rows stay zero),
    takes the top-m eigenvectors by magnitude, l2-normalizes the rows
    (zero rows stay zero) and k-means them.
    """
    n = adj.n
    if not 1 <= m <= n:
        raise ValueError(f"m={m} out of range 1..{n}")
    if m == 1:
        return Assignment(np.zeros(n, dtype=int), 1)
    rows = _basis(adj, "rsc")[:, :m].copy()
    norms = np.linalg.norm(rows, axis=1)
    keep = norms > 0
    rows[keep] /= norms[keep, None]
    return kmeans(rows, m, seed=seed, restarts=restarts)
