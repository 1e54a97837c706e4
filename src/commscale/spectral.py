"""Spectral utilities: leading eigenpairs, k-means, SCORE and RSC.

Eigendecompositions are full dense symmetric solves, except on large
sparse networks: from LANCZOS_MIN_N nodes up, with at most
LANCZOS_MAX_DENSITY of the entries nonzero, the svps statistic and the
SCORE basis come from ARPACK's Lanczos iteration (scipy's eigsh) on a
CSR copy of the weights, the statistic's values to LANCZOS_VALUES_TOL
relative and the basis to machine precision. Below that size, and on
denser networks, a dense solve is faster (on one x86-64 core, an
n = 1200 network with every entry nonzero took 0.2 s in eigvalsh and up
to 0.5 s in eigsh), and it is more robust near eigenvalue
multiplicities. SCORE and RSC decompose their clustering matrix once
per network object and take the first m columns of that basis at every
m; selection.select starts each selection from the leading columns the
step memo kept for the same weights, so selections on one network
decompose it once between them. On the Lanczos path SCORE finds the m
leading pairs once per m.

k-means runs all of its k-means++ restarts together, as one compact
batch of the restarts still active. One matmul gives h = |c|^2 - 2 c.x
for every point and centre of every restart; reductions over the centre
axis take each point's least h and count the centres within a
forward-error bound of it, and a point where that count is one is
certified and labelled with that centre. Points it cannot certify (ties,
near ties) are labelled from the distances ((x - c) ** 2).sum() itself
gives, so the labels do not depend on the BLAS, and a Lloyd iteration
is a fixed number of array passes whatever m. The same matmul estimates
each restart's WCSS within a closed-form bound, which decides the
convergence test where it can; exact distances, summed in numpy's own
order, are computed for the tests it cannot decide, for empty-cluster
reseeds and once for every restart's final labels. Each restart draws
from its own generator and stops at its own convergence test (or when
its labels repeat), so its labels are those it would reach alone. The
k-means++ draws of the last (seed, restarts, n) are memoised: each
restart's first draw and a tape of its next n - 1 uniforms, enough for
any m, so calls that share a seed, as the steps of a selection do, spawn
their generators once. A seed is an integer >= 0 (numpy integers too,
a bool not), the rule select and ExperimentConfig apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .network import WeightedAdjacency, _checked_int

__all__ = [
    "Assignment",
    "ClusterError",
    "kmeans",
    "score_cluster",
    "rsc_cluster",
]

# Lloyd iterations per k-means restart, and the relative WCSS decrease
# below which a restart stops early
KMEANS_MAX_ITER = 100
KMEANS_TOL = 1e-9
# networks with at least this many nodes and at most this share of their
# entries nonzero take the Lanczos path
LANCZOS_MIN_N = 1000
LANCZOS_MAX_DENSITY = 0.25
# ARPACK's tolerance for a values-only solve (the svps statistic). It
# accepts a Ritz value theta once its residual is <= tol * |theta|, and a
# symmetric matrix then has an eigenvalue within that residual of theta,
# so each value is within 1e-10 relative of an eigenvalue. From 1e-8 up
# ARPACK missed the second copy of a double eigenvalue (a ring lattice).
# Basis solves stay at 0, machine precision: k-means reads their vectors.
LANCZOS_VALUES_TOL = 1e-10
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


class ClusterError(RuntimeError):
    """Clustering left a cluster empty in every restart, or the rows cannot fill m clusters."""


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


def _csr(dense: np.ndarray, mask: np.ndarray | None = None):
    """dense as a CSR array, bit for bit scipy.sparse.csr_array(dense): the
    same indptr, indices, data and index dtype, built from one mask,
    dense != 0 (passed in when the caller has it).

    Entries equal to zero (-0.0 too) are not stored. The indices are int32
    unless the shape or the number of stored entries needs int64, the rule
    the dense conversion applies.
    """
    from scipy.sparse import csr_array, get_index_dtype

    if mask is None:
        mask = dense != 0
    flat = np.flatnonzero(mask)
    index = get_index_dtype(maxval=max(flat.size, *dense.shape))
    indptr = np.zeros(dense.shape[0] + 1, dtype=index)
    np.cumsum(np.count_nonzero(mask, axis=1), out=indptr[1:])
    indices = (flat % dense.shape[1]).astype(index)
    return csr_array((dense.ravel()[flat], indices, indptr), shape=dense.shape)


def _sparse_weights(adj: WeightedAdjacency):
    """adj's weights as a CSR array when the network takes the Lanczos
    path, else None.

    The path is taken from LANCZOS_MIN_N nodes up when at most
    LANCZOS_MAX_DENSITY of the n^2 entries are nonzero, counted on the
    mask that then builds the CSR array. Both constants are read at call
    time; the answer is memoised on the network object as the clusterers'
    basis is.
    """
    memo = vars(adj)
    if "_csr" not in memo:
        memo["_csr"] = None
        if adj.n >= LANCZOS_MIN_N:
            mask = adj.weights != 0
            if np.count_nonzero(mask) <= LANCZOS_MAX_DENSITY * adj.n ** 2:
                memo["_csr"] = _csr(adj.weights, mask)
    return memo["_csr"]


def _lanczos(matrix, k: int, vectors: bool = True):
    """ARPACK's k largest-magnitude eigenvalues (and vectors) of a symmetric
    CSR array: pairs to machine precision, values alone to
    LANCZOS_VALUES_TOL relative. None when k >= n - 1 or ARPACK does not
    converge: the caller then solves densely.

    The start vector is fixed, so the result is deterministic, and
    pseudo-random: the vector of ones is an eigenvector of every regular
    network, on which ARPACK restarts from its own random state, and is
    orthogonal to every eigenvector that a swap of two equal halves
    negates, which it then misses.
    """
    n = matrix.shape[0]
    if k >= n - 1:
        return None
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    v0 = np.random.default_rng(0).uniform(0.5, 1.5, n)
    tol = 0 if vectors else LANCZOS_VALUES_TOL
    try:
        return eigsh(matrix, k=k, which="LM", v0=v0, tol=tol, return_eigenvectors=vectors)
    except ArpackNoConvergence:
        return None


def _ordered(vals: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (values, vectors) of a dense or a Lanczos solve, read-only,
    in leading_eigpairs's order and with its sign rule."""
    # primary key |lambda| descending, secondary key lambda descending
    order = np.lexsort((-vals, -np.abs(vals)))
    vals = vals[order]
    vecs = vecs[:, order]
    # one column sum at a time: a single vecs.sum(axis=0) adds in another
    # order, and its last-ulp differences can move a sum across zero
    for j in range(vecs.shape[1]):
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


def leading_eigpairs(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs of a dense symmetric matrix as read-only (values,
    vectors), from one dense solve.

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
    return _ordered(*np.linalg.eigh(a))


def _sq_dist(xt: np.ndarray, coord) -> np.ndarray:
    """((x - c) ** 2).sum(axis=-1) bit for bit, one coordinate at a time from
    xt = x.T and coord(j), coordinate j of each centre broadcast to (r, n).

    The terms are added as numpy's pairwise sum adds a contiguous row: in
    turn below 8; else in 8 interleaved accumulators joined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the rest in turn; past 128,
    as two halves split at a multiple of 8.
    """
    d = len(xt)
    if d > 128:
        mid = d // 16 * 8
        return _sq_dist(xt[:mid], coord) + _sq_dist(xt[mid:], lambda j: coord(mid + j))
    terms = ((coord(j) - xt[j]) ** 2 for j in range(d))
    width = 8 if d >= 8 else 1
    acc = [next(terms) for _ in range(width)]
    for i in range(d // width * width - width):
        acc[i % width] += next(terms)
    total = acc[0] if width == 1 else ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for term in terms:
        total += term
    return total


@lru_cache(maxsize=1)
def _plusplus_draws(seed: int, restarts: int, n: int) -> tuple:
    """(first, tape) of the last (seed, restarts, n), read-only: restart
    i's first draw integers(n) and a (restarts, n - 1) tape of its next
    n - 1 random() draws.

    rng.random(n - 1) gives the values of n - 1 single random() calls,
    and m <= n centres read at most n - 1 of them, so every m reads a
    prefix of one tape.
    """
    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(restarts)]
    first = np.array([rng.integers(n) for rng in rngs])
    tape = np.array([rng.random(n - 1) for rng in rngs])
    first.flags.writeable = tape.flags.writeable = False
    return first, tape


def _plusplus_init(x: np.ndarray, m: int, seed: int, restarts: int) -> np.ndarray:
    """(restarts, m, d) k-means++ starts, restart i drawing what
    default_rng(SeedSequence(seed).spawn(restarts)[i]) would.

    Generator.choice(n, p=d2 / total) draws one random() mapped through
    the normalized cumulative sum. Centre 0 takes the first draw of
    _plusplus_draws and centre k its tape column k - 1. Once a restart's
    rows all sit on its first k centres (total = 0) it is doomed: every
    assignment labels each row below k, each of those centres keeping its
    own row, so clusters k.. stay empty through every reseed. Its further
    centres are row 0; ClusterError once every restart is doomed.
    """
    n = x.shape[0]
    first, tape = _plusplus_draws(seed, restarts, n)
    xt = np.ascontiguousarray(x.T)
    centers = np.empty((restarts, m, x.shape[1]))
    centers[:, 0] = x[first]
    d2 = _sq_dist(xt, lambda j: centers[:, 0, j, None])
    for k in range(1, m):
        total = d2.sum(axis=1)
        if not (total > 0).any():
            raise ClusterError(f"every k-means restart left one of {m} clusters empty")
        with np.errstate(divide="ignore", invalid="ignore"):
            cdf = (d2 / total[:, None]).cumsum(axis=1)
            cdf /= cdf[:, -1:]
        # a uniform draw u picks cdf.searchsorted(u, side="right"), the
        # count of entries <= u (none of a doomed restart's NaNs)
        idx = (cdf <= tape[:, k - 1, None]).sum(axis=1)
        centers[:, k] = x[idx]
        d2 = np.minimum(d2, _sq_dist(xt, lambda j: centers[:, k, j, None]))
    return centers


def _exact_nearest(x: np.ndarray, centers: np.ndarray, rows: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Nearest of centers[rows] to x[points] by ((x - c) ** 2).sum(), ties to the lower index."""
    d2 = [((x[points] - centers[rows, k]) ** 2).sum(axis=1) for k in range(centers.shape[1])]
    return np.argmin(d2, axis=0)


def _point_parts(x: np.ndarray) -> tuple:
    """[x, 1]^T, |x|^2 per row, the part of _nearest's bound each row adds,
    24 (d + 1) eps |x|^2 + tiny, the sum of |x|^2 and x^T, contiguous: what
    _nearest and _assign read of x, and the x^T _point_d2 reads."""
    x_norms = (x ** 2).sum(axis=1)
    x_bound = 24 * (x.shape[1] + 1) * _EPS * x_norms + _TINY
    return np.column_stack([x, np.ones(len(x))]).T, x_norms, x_bound, x_norms.sum(), np.ascontiguousarray(x.T)


def _point_d2(xt: np.ndarray, centers: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """((x - c) ** 2).sum() of each point to its labelled centre, (r, n), bit
    for bit, from xt = x.T contiguous, (r, m, d) centres and (r, n) labels."""
    r, m, d = centers.shape
    flat = labels + m * np.arange(r)[:, None]
    coords = np.ascontiguousarray(centers.reshape(r * m, d).T)
    return _sq_dist(xt, lambda j: coords[j].take(flat))


def _nearest(x: np.ndarray, centers: np.ndarray, parts: tuple):
    """Per restart: nearest-centre labels (r, n), those of ((x - c) ** 2).sum()
    per row and centre with ties to the lower centre, whatever the BLAS;
    with the least h + |x|^2 per point (r, n) and M per restart (r,), which
    _assign reads. parts is _point_parts(x). Called under _lloyd's errstate.

    One matmul gives every h_k = |c_k|^2 - 2 c_k.x (|x|^2 is common to all
    k); a reduction over the centre axis gives the least, b. Let u = 2**-53,
    g_j = ju / (1 - ju), M = max_k |c_k|^2 and s = 2 (M + |x|^2) >= (|c_k|
    + |x|)^2. h_k, a rounded |c_k|^2 added by a length-(d + 1) dot product
    in any order, fused or not, is within g_(2d+1) s of its exact value; the
    reference distance is within g_(d+2) s of |x - c_k|^2. So every centre
    whose h exceeds b by more than G = 2 (g_(2d+1) + g_(d+2)) s <= 24 (d +
    1) u (M + |x|^2) is strictly farther by reference distance than the
    centre of b. The bound is 24 (d + 1) eps (M + |x|^2) + tiny, at least
    twice G plus the least normal number for underflow, added as 24 (d + 1)
    eps M and _point_parts's 24 (d + 1) eps |x|^2 + tiny; one comparison
    marks every centre with h <= b + bound, rounded, b's own among them. A
    point is certified where exactly one centre is marked: every other h
    then exceeds the rounded b + bound, so exceeds b by more than bound - u
    (|b| + bound). |b| <= 2 s makes u |b| at most a twelfth of G's bound 24
    (d + 1) u (M + |x|^2), so the gap is more than G, the rest of the
    factor 2 covering the rounding of M, |x|^2 and the bound. The certified
    label is that centre, read as the sum of k over the marked centres. The
    count is a uint8 reduce, or the least unsigned type that holds m, so it
    cannot wrap to 1. An h that overflows needs M + |x|^2 to overflow too:
    the bound is then inf and every centre, or none, is marked; a NaN h
    makes b NaN and marks none. Points not certified (ties, near ties, inf,
    NaN) are labelled by _exact_nearest.
    """
    r, m, d = centers.shape
    x1t, x_norms, x_bound = parts[:3]
    flat_centers = centers.reshape(r * m, d)
    norms = (flat_centers ** 2).sum(axis=1)
    h = (np.column_stack([-2.0 * flat_centers, norms]) @ x1t).reshape(r, m, -1)
    best = np.minimum.reduce(h, axis=1)
    peak = norms.reshape(r, m).max(axis=1)
    limit = (24 * (d + 1) * _EPS * peak)[:, None] + x_bound
    limit += best
    marked = (h <= limit[:, None]).view(np.uint8)
    count_type = np.min_scalar_type(m)
    count = np.add.reduce(marked, axis=1, dtype=count_type)
    labels = np.einsum("k,rkn->rn", np.arange(m, dtype=count_type), marked).astype(np.intp)
    unsure = np.flatnonzero(count != 1)
    if unsure.size:
        rows, points = np.divmod(unsure, h.shape[2])
        labels[rows, points] = _exact_nearest(x, centers, rows, points)
    best += x_norms
    return labels, best, peak


def _assign(x: np.ndarray, centers: np.ndarray, parts: tuple, offsets: np.ndarray):
    """Per restart: _nearest's labels (r, n), the cluster sizes (r, m), an
    estimate of the WCSS (r,) with a bound (r,) on its distance from the
    exact one, _point_d2 of these labels summed, and the flat bins labels +
    offsets, offsets being m times each restart's row (r, 1), which the
    centre sums read. parts is _point_parts(x). Called under _lloyd's
    errstate.

    The estimate sums least h + |x|^2 over the points. Each term is within
    half the point's bound of its exact distance (the least of values each
    that close to a reference distance is that close to the least), so the
    sums differ by at most the bounds summed, 24 (d + 1) eps (n M + sum
    |x|^2) + n tiny, in closed form per restart. The error returned is
    twice that, plus n eps (|estimate| + twice that sum) for the rounding
    of both sums.
    """
    r, m, d = centers.shape
    n, x_norm_sum = x.shape[0], parts[3]
    labels, least, peak = _nearest(x, centers, parts)
    wcss = least.sum(axis=1)
    bound_sum = 24 * (d + 1) * _EPS * (n * peak + x_norm_sum) + n * _TINY
    err = 2 * bound_sum + n * _EPS * (np.abs(wcss) + 2 * bound_sum)
    bins = (labels + offsets).ravel()
    counts = np.bincount(bins, minlength=r * m).reshape(r, m)
    return labels, counts, wcss, err, bins


def _lloyd(x: np.ndarray, centers: np.ndarray):
    """Lloyd's algorithm on every restart at once, leaving each restart's
    final centres in centers; returns each restart's final labels (r, n),
    their exact squared distances (_point_d2) and the cluster sizes (r, m),
    those _nearest of the final centres gives.

    A restart leaves the batch at its own convergence test, prev - wcss <=
    KMEANS_TOL * wcss on the exact WCSS of its last two assignments that
    left no cluster empty, or when its labels repeat those of its last
    iteration: the same labels give the same centres, so the test would
    pass next time with nothing moved, and that iteration's labels are its
    final ones. The test is decided from _assign's estimates when their
    error bounds cannot change its outcome; else from the exact WCSS of
    both assignments, the earlier one from the centres kept for it. A
    restart whose assignment empties a cluster reseeds each empty one at
    its farthest remaining point by exact distance and spends the iteration
    on that, as a single run would. So exact distances are computed once
    more, for every restart's final assignment, and a fresh assignment only
    for restarts that did not stop on a repeat.

    The active restarts are one compact batch, in restart order: their
    ids, centres, last labels and what their test reads. A restart's
    centres and labels are written back to centers and last when it
    leaves, and the batch shrinks then only. Every iteration is a fixed
    number of array operations, whatever the batch size and m, besides one
    bincount per coordinate for the centre sums and the work on restarts
    whose test or assignment needs exact distances.
    """
    n, d = x.shape
    r, m, _ = centers.shape
    offsets = m * np.arange(r)[:, None]
    last = np.empty((r, n), dtype=np.intp)
    repeated = np.zeros(r, dtype=bool)
    with np.errstate(invalid="ignore", over="ignore"):
        parts = _point_parts(x)
        xt = parts[4]
        tiled = np.tile(x.T, r)
        # the batch: restart ids, centres, last full labels (-1 after an
        # empty cluster), and the WCSS, its error and the centres of the
        # last assignment that left no cluster empty
        ids, batch, batch_last = np.arange(r), centers.copy(), np.full((r, n), -1, dtype=np.intp)
        prev, prev_err, prev_centers = np.full(r, np.inf), np.zeros(r), np.empty_like(centers)
        for _ in range(KMEANS_MAX_ITER):
            if ids.size == 0:
                break
            a = ids.size
            labels, counts, wcss, err, bins = _assign(x, batch, parts, offsets[:a])
            full = (counts > 0).all(axis=1)
            all_full = full.all()
            repeat = full & (labels == batch_last).all(axis=1)
            # the margin of prev - wcss <= KMEANS_TOL * max(wcss, tiny) is
            # within doubt of the exact one; an exact inf prev (a first test)
            # fails it, and a margin not clear of doubt is decided by the
            # exact WCSS
            margin = KMEANS_TOL * np.maximum(wcss, _TINY) - (prev - wcss)
            doubt = 2 * (prev_err + err) + 4 * _EPS * (np.abs(prev) + np.abs(wcss))
            converged = margin > doubt
            sure = (np.abs(margin) > doubt) | (prev == np.inf) & (prev_err == 0) | ~full | repeat
            if not sure.all():
                i = np.flatnonzero(~sure)
                wcss[i], err[i] = _point_d2(xt, batch[i], labels[i]).sum(axis=1), 0.0
                redo = i[prev_err[i] != 0]
                if redo.size:
                    before = prev_centers[redo]
                    prev[redo] = _point_d2(xt, before, _nearest(x, before, parts)[0]).sum(axis=1)
                converged[i] = prev[i] - wcss[i] <= KMEANS_TOL * np.maximum(wcss[i], _TINY)
            # one bin per (restart, cluster) and coordinate; bincount adds the
            # rows in order, as x[labels == k].sum(axis=0) does
            sums = np.stack([np.bincount(bins, col[:a * n], a * m) for col in tiled], axis=1).reshape(a, m, d)
            if all_full:
                prev, prev_err, prev_centers = wcss, err, batch
                batch, batch_last = sums / counts[:, :, None], labels
            else:
                # reseed each empty cluster at the point farthest from its centre
                empty = np.flatnonzero(~full)
                for i, pd in zip(empty, _point_d2(xt, batch[empty], labels[empty])):
                    for k in np.flatnonzero(counts[i] == 0):
                        far = int(pd.argmax())
                        batch[i, k] = x[far]
                        pd[far] = -1.0
                prev[full], prev_err[full], prev_centers[full] = wcss[full], err[full], batch[full]
                batch[full] = sums[full] / counts[full][:, :, None]
                batch_last = np.where(full[:, None], labels, -1)
            leave = full & (converged | repeat)
            if leave.any():
                gone = ids[leave]
                centers[gone], last[gone], repeated[gone] = batch[leave], batch_last[leave], repeat[leave]
                stay = ~leave
                ids, batch, batch_last = ids[stay], batch[stay], batch_last[stay]
                prev, prev_err, prev_centers = prev[stay], prev_err[stay], prev_centers[stay]
        # the restarts still active after KMEANS_MAX_ITER iterations
        centers[ids], last[ids] = batch, batch_last
        rest = np.flatnonzero(~repeated)
        if rest.size:
            last[rest] = _nearest(x, centers[rest], parts)[0]
        counts = np.bincount((last + offsets).ravel(), minlength=r * m).reshape(r, m)
        return last, _point_d2(xt, centers, last), counts


def kmeans(rows: np.ndarray, m: int, seed=0, restarts: int = 50) -> Assignment:
    """k-means with k-means++ starts; best of ``restarts`` runs by WCSS.

    The restarts run as one batch, each drawing from its own generator
    spawned from ``SeedSequence(seed)``, so the result does not depend on
    the batching. Deterministic given the seed; WCSS ties keep the lowest
    restart index. The seed is an integer >= 0, m (<= n) and restarts
    integers >= 1 (numpy integers too) and the rows finite, else
    ValueError. The draws come from a memo of the last (seed, restarts,
    n), whose entries are prefixes of each generator's stream, so labels
    do not depend on the calls before. Raises ClusterError if every
    restart ends with an empty cluster, known in k-means++ when m exceeds
    the number of distinct rows (or distances underflow to 0).
    """
    x = np.asarray(rows, dtype=float)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError("rows must be 2-d with at least one column")
    if not np.isfinite(x).all():
        raise ValueError("rows must be finite")
    n = x.shape[0]
    m = _checked_int(m, "m", 1)
    if m > n:
        raise ValueError(f"m={m} out of range 1..{n}")
    restarts, seed = _checked_int(restarts, "restarts", 1), _checked_int(seed, "seed")
    if m == 1:
        return Assignment(np.zeros(n, dtype=int), 1)
    labels, point_d2, counts = _lloyd(x, _plusplus_init(x, m, seed, restarts))
    valid = np.flatnonzero((counts > 0).all(axis=1))
    if valid.size == 0:
        raise ClusterError(f"every k-means restart left one of {m} clusters empty")
    wcss = point_d2[valid].sum(axis=1)
    best = valid[wcss.argmin()]
    return Assignment(labels[best], m)


def _basis_key(clusterer: str) -> str:
    """The instance-dict key under which _basis memoises a clusterer's dense basis."""
    return f"_{clusterer}_basis"


def _basis(adj: WeightedAdjacency, clusterer: str, m: int) -> np.ndarray:
    """The m leading eigenvectors of the clusterer's matrix, whose full
    basis is computed once per network object, and again when the memo
    holds fewer than m columns (select seeds it with those the step memo
    kept).

    On the Lanczos path (_sparse_weights), SCORE's basis holds only the m
    leading pairs of the CSR weights instead, computed once per m, so its
    columns depend on the network and m only; where _lanczos returns None,
    they are the first m columns of the dense basis. RSC's regularised
    matrix has no zero entry, so it is always solved densely. The memo
    lives in the network's instance dict, so it goes when the network
    does; select runs on a shallow copy, so the n x n basis lasts for one
    selection only.
    """
    if not 1 <= m <= adj.n:
        raise ValueError(f"m={m} out of range 1..{adj.n}")
    memo = vars(adj)
    csr = _sparse_weights(adj) if clusterer == "score" else None
    if csr is not None:
        key = f"_score_basis{m}"
        if key not in memo:
            pairs = _lanczos(csr, m)
            memo[key] = None if pairs is None else _ordered(*pairs)[1]
        if memo[key] is not None:
            return memo[key]
    key = _basis_key(clusterer)
    if key not in memo or memo[key].shape[1] < m:
        if clusterer == "score":
            matrix = adj.weights
        else:
            a_reg = adj.weights + 0.25 * adj.weights.sum(axis=1).mean() / adj.n
            dsum = a_reg.sum(axis=1)
            with np.errstate(divide="ignore"):
                inv_sqrt = np.where(dsum > 0, 1.0 / np.sqrt(dsum), 0.0)
            matrix = a_reg * np.outer(inv_sqrt, inv_sqrt)
        memo[key] = leading_eigpairs(matrix)[1]
    return memo[key][:, :m]


def score_cluster(adj: WeightedAdjacency, m: int, seed=0, restarts: int = 50) -> Assignment:
    """SCORE: k-means on the n x (m-1) eigenvector ratios of the adjacency.

    Column k holds u_{k+1}(i) / u_1(i), clamped to [-log n, log n].
    Entries where u_1(i) = 0 are mapped to the clamp bound (0 when the
    numerator is also 0). m = 1 returns the single-cluster assignment.
    m, restarts and the seed are checked as kmeans checks them, at every m.
    """
    m = _checked_int(m, "m", 1)
    _checked_int(restarts, "restarts", 1), _checked_int(seed, "seed")
    if m == 1:
        return Assignment(np.zeros(adj.n, dtype=int), 1)
    vectors = _basis(adj, "score", m)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = vectors[:, 1:] / vectors[:, :1]
    ratios = np.nan_to_num(ratios, nan=0.0, posinf=np.inf, neginf=-np.inf)
    clamp = np.log(adj.n)
    return kmeans(np.clip(ratios, -clamp, clamp), m, seed=seed, restarts=restarts)


def rsc_cluster(adj: WeightedAdjacency, m: int, seed=0, restarts: int = 50) -> Assignment:
    """Regularized spectral clustering.

    Adds 0.25 * mean degree / n to every entry, forms the normalized
    adjacency D^{-1/2} A_reg D^{-1/2} (zero-degree rows stay zero),
    takes the top-m eigenvectors by magnitude, l2-normalizes the rows
    (zero rows stay zero) and k-means them. m, restarts and the seed are
    checked as kmeans checks them, at every m.
    """
    m = _checked_int(m, "m", 1)
    _checked_int(restarts, "restarts", 1), _checked_int(seed, "seed")
    if m == 1:
        return Assignment(np.zeros(adj.n, dtype=int), 1)
    rows = _basis(adj, "rsc", m).copy()
    norms = np.linalg.norm(rows, axis=1)
    keep = norms > 0
    rows[keep] /= norms[keep, None]
    return kmeans(rows, m, seed=seed, restarts=restarts)
