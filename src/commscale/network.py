"""Weighted network container and edge-list I/O.

load_edge_list reads a network from a path or a stream, and
WeightedAdjacency.to_edge_list renders one as text; writing a file is
the caller's. Networks are dense symmetric nonnegative matrices. Up to
n of about a thousand dense storage is both simpler and faster than
sparse; on larger networks with few nonzero entries, spectral keeps a
CSR copy of the weights for its Lanczos path (spectral.LANCZOS_MIN_N).
"""

from __future__ import annotations

import numbers
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "WeightedAdjacency",
    "EdgeListError",
    "load_edge_list",
    "regularize",
    "binarize",
]


class EdgeListError(ValueError):
    """Malformed or inconsistent edge-list input."""


def _checked_int(value, name: str, least: int = 0) -> int:
    """value as an int if it is an integer >= least (numpy integers too, a
    bool not), else ValueError naming it."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class WeightedAdjacency:
    """Symmetric nonnegative weight matrix with optional node names.

    Parameters
    ----------
    weights : (n, n) array
        Symmetric, entrywise nonnegative and finite, n >= 2. The stored
        array is a read-only copy.
    node_names : tuple of str, optional
        Original node identifiers, index-aligned with the matrix.
    """

    weights: np.ndarray
    node_names: tuple[str, ...] | None = field(default=None)

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weights must be square, got shape {w.shape}")
        if w.shape[0] < 2:
            raise ValueError("need at least 2 nodes")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if (w < 0).any():
            raise ValueError("weights must be nonnegative")
        if not np.array_equal(w, w.T):
            raise ValueError("weights must be exactly symmetric")
        if self.node_names is not None and len(self.node_names) != w.shape[0]:
            raise ValueError("node_names length does not match matrix size")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def to_edge_list(self) -> str:
        """The nonzero upper triangle (incl. diagonal) as "u v w" lines,
        and an "i i 0.0" line for each node i of degree zero.

        Node ids are 0-based, in row-major order. Weights have
        repr-roundtrip precision, and every node appears in some line, so
        load_edge_list of the text gives the weights back exactly,
        isolated nodes included.
        """
        w = self.weights
        written = np.triu(w) != 0
        isolated = np.flatnonzero(~w.any(axis=1))
        written[isolated, isolated] = True
        iu, ju = np.nonzero(written)
        return "".join(f"{i} {j} {float(w[i, j])!r}\n" for i, j in zip(iu.tolist(), ju.tolist()))


@contextmanager
def open_text(source):
    """Yield source if it is a stream, else the UTF-8 text file it names,
    closed on exit; a stream passed in stays open."""
    if hasattr(source, "read"):
        yield source
        return
    with open(source, encoding="utf-8") as stream:
        yield stream


def load_edge_list(source, *, indexing: int = 0, n: int | None = None) -> WeightedAdjacency:
    """Read a whitespace-separated "u v w" edge list into a matrix.

    Lines starting with '#' and blank lines are skipped. Node ids must be
    integers in base ``indexing`` (0 or 1); they are relabeled to 0..n-1
    preserving numeric order, and the original ids are kept as node
    names. Duplicate records add their weights. Self-loop records set
    the diagonal once (no mirror double-counting). Pass ``n`` to declare
    the node count up front, in which case out-of-range ids are an error
    and a list with no records is the all-zero network on n nodes;
    without ``n`` it is an error.
    """
    if indexing not in (0, 1):
        raise ValueError("indexing must be 0 or 1")
    if n is not None:
        n = _checked_int(n, "n")
    records = []
    with open_text(source) as stream:
        for lineno, raw in enumerate(stream, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise EdgeListError(f"line {lineno}: expected 'u v w', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
                w = float(parts[2])
            except ValueError:
                raise EdgeListError(f"line {lineno}: could not parse {line!r}") from None
            if not np.isfinite(w):
                raise EdgeListError(f"line {lineno}: non-finite weight")
            if w < 0:
                raise EdgeListError(f"line {lineno}: negative weight {w}")
            records.append((u - indexing, v - indexing, w))
    if not records and n is None:
        raise EdgeListError("empty edge list")

    ids = sorted({u for u, _, _ in records} | {v for _, v, _ in records})
    if n is not None:
        bad = [i for i in ids if not 0 <= i < n]
        if bad:
            raise EdgeListError(f"node id {bad[0] + indexing} out of declared range")
        index = {i: i for i in range(n)}
        size = n
    else:
        if ids[0] < 0:
            raise EdgeListError(f"node id {ids[0] + indexing} below indexing base {indexing}")
        index = {orig: k for k, orig in enumerate(ids)}
        size = len(ids)
    if size < 2:
        raise EdgeListError("need at least 2 nodes")

    w = np.zeros((size, size))
    for u, v, val in records:
        i, j = index[u], index[v]
        if i == j:
            w[i, i] += val
        else:
            w[i, j] += val
            w[j, i] += val
    names = tuple(str(orig + indexing) for orig in sorted(index, key=index.get))
    return WeightedAdjacency(w, node_names=names)


def regularize(adj: WeightedAdjacency, tau: float) -> WeightedAdjacency:
    """Add tau to every entry (tau * all-ones matrix), tau >= 0."""
    if not tau >= 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    if tau == 0:
        return adj
    return WeightedAdjacency(adj.weights + tau, node_names=adj.node_names)


def binarize(adj: WeightedAdjacency) -> WeightedAdjacency:
    """Replace every positive weight with 1."""
    return WeightedAdjacency((adj.weights > 0).astype(float), node_names=adj.node_names)
