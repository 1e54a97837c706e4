"""Plug-in estimation of weighted block-model parameters.

Given an adjacency matrix and a candidate assignment into m groups, the
estimators are closed-form functions of the block weight sums
S_kl = 1_k' A 1_l and the block degree totals t_k = 1_k' A 1:

    theta_i = sqrt(S_kk) / t_k * d_i          (i in group k)
    B_kl    = S_kl / sqrt(S_kk * S_ll)
    M_ij    = S_kl / (t_k * t_l) * d_i * d_j  (i in k, j in l)

The variance profile is nu(M) entrywise, floored to stay strictly
positive so that the doubly-stochastic scaling downstream exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import VarianceFunction
from .network import WeightedAdjacency
from .spectral import Assignment

__all__ = ["FitError", "FittedStep", "fit_step"]

VARIANCE_FLOOR_SCALE = 1e-8


class FitError(RuntimeError):
    """Degenerate fitting step (zero block weight or empty cluster)."""


@dataclass(frozen=True)
class FittedStep:
    """All m-group plug-in estimates for one step of the sequential fit."""

    m: int
    assignment: Assignment
    theta: np.ndarray
    block_matrix: np.ndarray
    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        for name in ("theta", "block_matrix", "mean", "variance"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def floor_positive(values: np.ndarray) -> np.ndarray:
    """Floor entries at 1e-8 times the mean positive entry."""
    pos = values[values > 0]
    if pos.size == 0:
        raise FitError("matrix has no positive entries to calibrate the floor")
    return np.maximum(values, VARIANCE_FLOOR_SCALE * pos.mean())


def fit_step(
    adj: WeightedAdjacency, assignment: Assignment, variance_fn: VarianceFunction | None = None
) -> FittedStep:
    """Compute all plug-in estimates for one candidate group count.

    The block sums S, the group totals t and the degrees d are formed
    once. Raises FitError when some S_kk is not strictly positive (the
    weights are nonnegative, so t_k >= S_kk > 0 follows), or when a
    bernoulli variance meets a mean of 1 or more.
    """
    if variance_fn is None:
        variance_fn = VarianceFunction("identity")
    w = adj.weights
    labels = assignment.labels
    onehot = np.zeros((adj.n, assignment.m))
    onehot[np.arange(adj.n), labels] = 1.0
    s = onehot.T @ w @ onehot
    s = (s + s.T) / 2.0
    d = w.sum(axis=1)
    totals = onehot.T @ d
    if (np.diag(s) <= 0).any():
        k = int(np.flatnonzero(np.diag(s) <= 0)[0])
        raise FitError(f"group {k} has zero within-group weight")
    root = np.sqrt(np.diag(s))
    mean = (s / np.outer(totals, totals))[np.ix_(labels, labels)] * np.outer(d, d)
    if variance_fn.kind == "bernoulli" and (mean >= 1.0).any():
        raise FitError(f"bernoulli variance needs means < 1, got max {mean.max():.6g}")
    return FittedStep(
        m=assignment.m,
        assignment=assignment,
        theta=root[labels] / totals[labels] * d,
        block_matrix=s / np.outer(root, root),
        mean=mean,
        variance=floor_positive(variance_fn(mean)),
    )
