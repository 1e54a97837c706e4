"""Plug-in estimation of weighted block-model parameters.

Given an adjacency matrix and a candidate assignment into m groups, the
estimators are closed-form functions of the block weight sums
S_kl = 1_k' A 1_l, the block degree totals t_k = 1_k' A 1 and the degrees d:

    theta_i = sqrt(S_kk) / t_k * d_i          (i in group k)
    B_kl    = S_kl / sqrt(S_kk * S_ll)
    M_ij    = C_kl * d_i * d_j                (i in k, j in l, C_kl = S_kl / (t_k * t_l))

fit_step forms S, t and d only. theta, B, the n x n mean M and the
variance profile nu(M) are built on first read; CBIC, ICL and
`commscale fit` read them, svps does not. nu is the variance of the
step's edge law (EdgeDistribution.variance), floored at 1e-8 times its
mean positive entry so that the doubly-stochastic scaling downstream
exists. The floor binds only near a zero entry of nu(M): at an isolated
node or a zero between-block sum. Where it cannot bind, svps scales
nu(M) in block form, O(n + m^2) per product (_variance_profile).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import EDGE_LAWS, EdgeDistribution
from .network import WeightedAdjacency
from .scaling import _BlockProfile
from .spectral import Assignment

__all__ = ["FitError", "FittedStep", "fit_step"]

VARIANCE_FLOOR_SCALE = 1e-8


class FitError(RuntimeError):
    """Degenerate fitting step (zero block weight or empty cluster)."""


def _frozen(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class FittedStep:
    """All m-group plug-in estimates for one step of the sequential fit.

    theta, block_matrix, mean and variance are built from block_sums (S),
    totals (t) and degrees (d) on first read, as read-only arrays.
    """

    m: int
    assignment: Assignment
    block_sums: np.ndarray
    totals: np.ndarray
    degrees: np.ndarray
    law: EdgeDistribution

    def __post_init__(self):
        for name in ("block_sums", "totals", "degrees"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @cached_property
    def theta(self) -> np.ndarray:
        labels = self.assignment.labels
        root = np.sqrt(np.diag(self.block_sums))
        return _frozen(root[labels] / self.totals[labels] * self.degrees)

    @cached_property
    def block_matrix(self) -> np.ndarray:
        root = np.sqrt(np.diag(self.block_sums))
        return _frozen(self.block_sums / np.outer(root, root))

    @cached_property
    def mean(self) -> np.ndarray:
        labels, totals, d = self.assignment.labels, self.totals, self.degrees
        return _frozen((self.block_sums / np.outer(totals, totals))[np.ix_(labels, labels)] * np.outer(d, d))

    @cached_property
    def variance(self) -> np.ndarray:
        return _frozen(floor_positive(self.law.variance(self.mean)))


def floor_positive(values: np.ndarray) -> np.ndarray:
    """Floor entries at 1e-8 times the mean positive entry."""
    pos = values[values > 0]
    if pos.size == 0:
        raise FitError("matrix has no positive entries to calibrate the floor")
    return np.maximum(values, VARIANCE_FLOOR_SCALE * pos.mean())


def _degree_range(fitted: FittedStep) -> tuple[np.ndarray, np.ndarray]:
    """The smallest and the largest degree in each group."""
    labels, d = fitted.assignment.labels, fitted.degrees
    dmin, dmax = np.full(fitted.m, np.inf), np.full(fitted.m, -np.inf)
    np.minimum.at(dmin, labels, d)
    np.maximum.at(dmax, labels, d)
    return dmin, dmax


def _variance_profile(fitted: FittedStep) -> _BlockProfile | np.ndarray:
    """fitted's variance profile in block form, or fitted.variance where the floor may bind.

    Over block (k, l) the mean runs from C_kl dmin_k dmin_l to C_kl dmax_k dmax_l,
    and nu is monotone or concave, so nu at those ends bounds the profile
    from below, as fitted.variance would round it. The floor's mean of
    nu(M) is summed from the block form; the margin 1e-6 covers its
    rounding. Entries: d_i C_kl d_j, plus d_i^2 Q_kl d_j^2 for the law's
    quadratic coefficient Q. FitError where a mean reaches law.variance_cap.
    """
    labels, d, law, totals = fitted.assignment.labels, fitted.degrees, fitted.law, fitted.totals
    c = fitted.block_sums / np.outer(totals, totals)
    dmin, dmax = _degree_range(fitted)
    top = c * np.outer(dmax, dmax)
    if top.max() >= law.variance_cap:
        raise FitError(f"{law.kind} variance needs means < {law.variance_cap}, got max {top.max():.6g}")
    q = law.quadratic(c)
    profile = _BlockProfile(labels, ((d, c),) if q is None else ((d, c), (d * d, q)))
    smallest = np.minimum(law.variance(c * np.outer(dmin, dmin)), law.variance(top)).min()
    mean = (profile @ np.ones(d.size)).sum() / d.size**2
    return profile if smallest > VARIANCE_FLOOR_SCALE * (1 + 1e-6) * mean else fitted.variance


def fit_step(
    adj: WeightedAdjacency, assignment: Assignment, law: EdgeDistribution = EDGE_LAWS["poisson"]
) -> FittedStep:
    """Compute the block sums S, the group totals t and the degrees d for
    one candidate group count; law gives the variance profile.

    Raises FitError when some S_kk is not strictly positive (the
    weights are nonnegative, so t_k >= S_kk > 0 follows).
    """
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
    return FittedStep(assignment.m, assignment, s, totals, d, law)
