"""Symmetric scaling of a positive matrix to a doubly stochastic form.

For a finite, strictly positive and exactly symmetric V (symmetrise one
symmetric only to within rounding with (V + V.T) / 2 first) there is a
unique positive psi with sum_i V_ij psi_i psi_j = 1 for every j. The raw
update psi <- 1/(V psi) can oscillate between two accumulation points,
so the iteration takes the geometric mean of the current iterate and the
raw update, a contraction on positive matrices. The iteration reads V
only through V @ psi, so a profile with block structure (_BlockProfile,
built by the fit) runs the same loop without an n x n array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ScalingResult", "ScalingError", "sinkhorn_symmetric", "scaled_matrix"]


class ScalingError(RuntimeError):
    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(f"{message} (iterations={iterations}, residual={residual:.3e})")
        self.iterations = iterations
        self.residual = residual


@dataclass(frozen=True)
class ScalingResult:
    """Scaling factors psi with convergence diagnostics.

    residual is max_j |sum_i V_ij psi_i psi_j - 1| at the returned psi.
    """

    psi: np.ndarray
    iterations: int
    residual: float

    def __post_init__(self):
        psi = np.array(self.psi, dtype=float)
        psi.flags.writeable = False
        object.__setattr__(self, "psi", psi)


class _BlockProfile:
    """V_ij = sum_r u_r[i] * G_r[k, l] * u_r[j] for i in group k, j in group l.

    terms holds the pairs (u_r, G_r): a length-n factor and an m x m
    block matrix. V @ psi costs O(n + m^2) per term. The caller ensures
    what sinkhorn_symmetric checks of a dense V: every G_r is finite and
    exactly symmetric and every entry of V is positive.
    """

    def __init__(self, labels: np.ndarray, terms: tuple[tuple[np.ndarray, np.ndarray], ...]):
        self.labels = labels
        self.terms = terms
        self.shape = (len(labels), len(labels))

    def __matmul__(self, psi: np.ndarray) -> np.ndarray:
        return sum(u * (g @ np.bincount(self.labels, u * psi, len(g)))[self.labels] for u, g in self.terms)


def sinkhorn_symmetric(
    matrix: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    initial: np.ndarray | None = None,
) -> ScalingResult:
    """Solve psi * (V @ psi) = 1 elementwise for finite, positive, exactly symmetric V.

    Iterates psi <- sqrt(psi / (V @ psi)) from psi_i = 1/sqrt(row sum)
    (or the given finite positive ``initial``), stopping when the max row-sum
    residual of Psi V Psi drops to tol. Raises ScalingError with
    diagnostics if max_iter is exhausted. The fixed point is unique, so
    the starting point only affects the iteration count. V is a dense
    array, or a _BlockProfile from the fit, whose rows are summed as V @ 1.
    """
    block = isinstance(matrix, _BlockProfile)  # checked where the fit builds it
    v = matrix if block else np.asarray(matrix, dtype=float)
    n = v.shape[0]
    if not block:
        if v.shape != (n, n):
            raise ValueError("matrix must be square")
        if not ((v > 0) & (v < np.inf)).all():
            raise ValueError("matrix must have finite, strictly positive entries")
        if not np.array_equal(v, v.T):
            raise ValueError("matrix must be exactly symmetric")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    if initial is None:
        psi = 1.0 / np.sqrt(v @ np.ones(n) if block else v.sum(axis=1))
    else:
        psi = np.array(initial, dtype=float)
        if psi.shape != (n,) or not ((psi > 0) & (psi < np.inf)).all():
            raise ValueError("initial must be a finite positive length-n vector")
    residual = np.inf
    for iteration in range(max_iter + 1):
        prod = v @ psi
        residual = float(np.abs(psi * prod - 1.0).max())
        if residual <= tol:
            return ScalingResult(psi=psi, iterations=iteration, residual=residual)
        psi = np.sqrt(psi / prod)
    raise ScalingError("scaling did not converge", iterations=max_iter, residual=residual)


def scaled_matrix(matrix, psi: np.ndarray):
    """S = Psi^{1/2} A Psi^{1/2}, i.e. S_ij = A_ij * (sqrt(psi_i) * sqrt(psi_j)), for a
    dense A, or for a CSR A's stored entries, bit for bit the same, in a new CSR array."""
    psi = np.asarray(psi, dtype=float)
    if not ((psi > 0) & (psi < np.inf)).all():
        raise ValueError("psi must be finite and positive")
    root = np.sqrt(psi)
    if getattr(matrix, "format", None) == "csr":
        scaled = matrix.astype(float)  # a copy
        scaled.data *= root[np.repeat(np.arange(len(root)), np.diff(scaled.indptr))] * root[scaled.indices]
        return scaled
    return np.asarray(matrix, dtype=float) * np.outer(root, root)
