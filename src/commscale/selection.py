"""Selecting the number of communities.

select is the one stepwise driver: for m = 1, 2, ... it clusters and
fits m groups, evaluates the step, then stops or goes on. The sequential
variance-profile test (svps) stops at the first m where the (m+1)-th
largest eigenvalue magnitude of the adjacency, scaled by the fitted
variance profile, falls below 2 + epsilon. The penalized-likelihood
baselines (CBIC, ICL) score every m and take the argmax.

Every step is fitted under the selection's one edge law. The
log-likelihood sums the law's log mass over data terms built once per
selection; it equals the scipy.stats logpmf sum bit for bit.
"""

from __future__ import annotations

import copy
import hashlib
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .fitting import FitError, FittedStep, _variance_profile, fit_step, floor_positive
from .model import EDGE_LAWS, EdgeDistribution, edge_law
from .network import WeightedAdjacency
from .scaling import ScalingError, scaled_matrix, sinkhorn_symmetric
from .spectral import ClusterError, _checked_int, _lanczos, _sparse_weights, rsc_cluster, score_cluster

__all__ = [
    "MethodSpec",
    "StepRecord",
    "SelectionTrace",
    "svps_statistic",
    "svps_select",
    "log_likelihood",
    "cbic_score",
    "icl_score",
    "score_select",
    "select",
]


@dataclass(frozen=True)
class MethodSpec:
    """One selector variant: svps with an epsilon, or cbic/icl with lambda."""

    selector: str
    clusterer: str = "score"
    epsilon: float = 0.05
    lam: float = 1.0

    def __post_init__(self):
        if self.selector not in ("svps", "cbic", "icl"):
            raise ValueError(f"unknown selector {self.selector!r}")
        if self.clusterer not in ("score", "rsc"):
            raise ValueError(f"unknown clusterer {self.clusterer!r}")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not self.lam >= 0:
            raise ValueError("lam must be nonnegative")

    @property
    def label(self) -> str:
        if self.selector == "svps":
            return f"svps-{self.clusterer}-eps{self.epsilon:g}"
        if self.selector == "cbic" and self.lam != 1.0:
            return f"cbic-{self.clusterer}-lam{self.lam:g}"
        return f"{self.selector}-{self.clusterer}"


@dataclass(frozen=True)
class StepRecord:
    """One evaluated candidate m: the statistic or score, and fit status."""

    m: int
    value: float
    status: str  # "ok" or "failed"
    note: str = ""


@dataclass(frozen=True)
class SelectionTrace:
    method: str  # "svps", "cbic" or "icl"
    steps: tuple[StepRecord, ...]
    k_hat: int | None
    threshold: float | None = None  # svps only; k_hat is None when no step crossed it

    def to_csv(self) -> str:
        lines = ["method,m,value,status,selected"]
        for rec in self.steps:
            sel = "1" if rec.m == self.k_hat else "0"
            lines.append(f"{self.method},{rec.m},{rec.value!r},{rec.status},{sel}")
        return "\n".join(lines) + "\n"


def svps_statistic(adj: WeightedAdjacency, fitted: FittedStep) -> float:
    """|lambda_{m+1}| of the scaled adjacency Psi^{1/2} A Psi^{1/2}.

    Psi solves the doubly-stochastic scaling of fitted.law's variance at
    the fitted mean, in the form fitting._variance_profile gives. Scaling
    failures propagate as ScalingError. On the Lanczos path
    (spectral._sparse_weights) ARPACK finds the m + 1 leading magnitudes
    of the scaled CSR weights to spectral.LANCZOS_VALUES_TOL relative,
    made dense only if ARPACK gives up.
    """
    if fitted.m + 1 > adj.n:
        raise ValueError(f"statistic needs m+1 <= n, got m={fitted.m}, n={adj.n}")
    scaling = sinkhorn_symmetric(_variance_profile(fitted))
    csr = _sparse_weights(adj)
    scaled = scaled_matrix(adj.weights if csr is None else csr, scaling.psi)
    values = None if csr is None else _lanczos(scaled, fitted.m + 1, vectors=False)
    if values is None:
        values = np.linalg.eigvalsh(scaled if csr is None else scaled.toarray())
    mags = np.sort(np.abs(values))[::-1]
    return float(mags[fitted.m])


# The last network's step assignments, (weights digest, {(clusterer, m,
# seed, restarts): Assignment}). The digest is (shape, SHA-1 of the dense
# weights), or ("csr", shape, SHA-1 of the CSR weights' indptr, indices
# and data) on the Lanczos path. A new network replaces the whole pair, so
# a caller still holding the old pair can only miss.
_steps: tuple = (None, {})


def _cluster_and_fit(
    adj: WeightedAdjacency, m: int, clusterer: str, seed: int, restarts: int, law=EDGE_LAWS["poisson"]
) -> FittedStep:
    """Cluster adj into m groups with SCORE ("score") or RSC ("rsc"), then fit.

    The assignment is memoised in _steps, so selectors sharing a network
    and seed cluster each m once. The clusterers and fit_step are looked
    up in this module at call time, so a wrapper installed on these
    attributes sees every clustering and fit.
    """
    global _steps
    memo = vars(adj)
    if "_digest" not in memo:
        csr = _sparse_weights(adj)
        if csr is None:
            memo["_digest"] = (adj.weights.shape, hashlib.sha1(np.ascontiguousarray(adj.weights)).digest())
        else:
            # shape and index dtype fix where indptr, indices and data meet in the hash
            digest = hashlib.sha1(csr.indptr)
            digest.update(csr.indices)
            digest.update(csr.data)
            memo["_digest"] = ("csr", csr.shape, digest.digest())
    steps = _steps
    if steps[0] != memo["_digest"]:
        steps = _steps = (memo["_digest"], {})
    key = (clusterer, m, seed, restarts)
    if key not in steps[1]:
        steps[1][key] = (score_cluster if clusterer == "score" else rsc_cluster)(adj, m, seed=seed, restarts=restarts)
    return fit_step(adj, steps[1][key], law)


def _data_terms(adj: WeightedAdjacency, law: EdgeDistribution) -> tuple[np.ndarray, ...]:
    """law.data_terms of adj's weights, memoised per network object and law as the basis is."""
    key = f"_{law.kind}{law.trials}_terms"
    memo = vars(adj)
    if key not in memo:
        memo[key] = law.data_terms(adj.weights)
    return memo[key]


def log_likelihood(adj: WeightedAdjacency, mean: np.ndarray, dist) -> float:
    """Log mass of adj's weights given entrywise means of the same shape.

    The sum runs over all ordered node pairs, so each off-diagonal pair
    contributes twice (once per direction) and each diagonal entry once.
    dist is an EdgeDistribution or a name that model.edge_law accepts;
    "bernoulli" is the binomial law with one trial. Mean entries are
    floored positive as in fitting, and the law caps probability-type
    parameters (EdgeDistribution.log_mass). Weights outside the law's
    support raise ValueError.
    """
    law = edge_law(dist)
    mean = np.asarray(mean, dtype=float)
    if mean.shape != adj.weights.shape:
        raise ValueError(f"mean must have shape {adj.weights.shape}, got {mean.shape}")
    return float(law.log_mass(_data_terms(adj, law), floor_positive(mean)).sum())


def cbic_score(adj: WeightedAdjacency, fitted: FittedStep, lam: float = 1.0) -> float:
    """log f(A | M) - [lam * n * log m + m(m+1)/2 * log n], under fitted.law."""
    if not lam >= 0:
        raise ValueError("lam must be nonnegative")
    n = adj.n
    m = fitted.m
    penalty = lam * n * math.log(m) + m * (m + 1) / 2.0 * math.log(n)
    return log_likelihood(adj, fitted.mean, fitted.law) - penalty


def icl_score(adj: WeightedAdjacency, fitted: FittedStep) -> float:
    """log f(A | M) - [sum_k n_k log(n/n_k) + m(m+2)/2 * log n], under fitted.law."""
    n = adj.n
    m = fitted.m
    sizes = fitted.assignment.sizes
    entropy = float((sizes * np.log(n / sizes)).sum())
    penalty = entropy + m * (m + 2) / 2.0 * math.log(n)
    return log_likelihood(adj, fitted.mean, fitted.law) - penalty


def select(
    adj: WeightedAdjacency,
    spec: MethodSpec,
    *,
    dist=None,
    m_max: int | None = None,
    seed: int = 0,
    restarts: int = 50,
) -> SelectionTrace:
    """Run the selector a MethodSpec names over m = 1..m_max (12 for svps, 10 else).

    svps tests m <= n - 1 and k_hat is the first m whose statistic is
    below 2 + epsilon; cbic/icl score m <= n and k_hat is the argmax,
    ties to the smallest m. Failed steps record +inf (svps) or -inf and
    are never selected. dist is the edge law, an EdgeDistribution or an
    EDGE_LAWS name, and every step is fitted under it: svps scales by its
    variance (poisson when dist is None), cbic/icl need it as likelihood.
    Weights outside the law's range (svps) or support (cbic/icl, whose
    data terms are built then) raise FitError, and a k-means seed that is
    not an integer >= 0, or an m_max or restarts that is not an integer
    >= 1 (numpy's pass), ValueError, before any clustering.

    The steps run on a shallow copy of adj, which shares its weights, so
    the clusterers' eigenvector memo, the Lanczos path's CSR weights and
    the likelihood's data terms last for this selection only; the step
    assignments are shared with later selections on equal weights.
    """
    adj = copy.copy(adj)
    svps = spec.selector == "svps"
    if m_max is None:
        m_max = 12 if svps else 10
    elif isinstance(m_max, numbers.Integral) and m_max < 1:
        raise ValueError("m_max must be >= 1")
    m_max, restarts = _checked_int(m_max, "m_max", 1), _checked_int(restarts, "restarts", 1)
    seed = _checked_int(seed, "seed")
    if dist is None and not svps:
        raise ValueError(f"{spec.selector} needs a likelihood law")
    law = edge_law("poisson" if dist is None else dist)
    try:
        if svps:  # the law is only a variance here, so non-integer weights pass
            law.check_weights(adj.weights)
        else:
            _data_terms(adj, law)
    except ValueError as exc:
        raise FitError(str(exc)) from None
    if svps:
        last, failed, threshold = adj.n - 1, math.inf, 2.0 + spec.epsilon
    else:
        last, failed, threshold = adj.n, -math.inf, None
    steps = []
    for m in range(1, min(m_max, last) + 1):
        try:
            fitted = _cluster_and_fit(adj, m, spec.clusterer, seed, restarts, law)
            if svps:
                value = svps_statistic(adj, fitted)
            elif spec.selector == "cbic":
                value = cbic_score(adj, fitted, lam=spec.lam)
            else:
                value = icl_score(adj, fitted)
        except (FitError, ClusterError, ScalingError) as exc:
            steps.append(StepRecord(m=m, value=failed, status="failed", note=str(exc)))
            continue
        steps.append(StepRecord(m=m, value=value, status="ok"))
        if svps and value < threshold:
            break
    ok = [step for step in steps if step.status == "ok"]
    if svps:
        k_hat = ok[-1].m if ok and ok[-1].value < threshold else None
    else:
        k_hat = max(ok, key=lambda step: (step.value, -step.m)).m if ok else None
    return SelectionTrace(method=spec.selector, steps=tuple(steps), k_hat=k_hat, threshold=threshold)


def svps_select(
    adj: WeightedAdjacency,
    dist=None,
    epsilon: float = 0.05,
    m_max: int = 12,
    clusterer="score",
    seed=0,
    restarts: int = 50,
) -> SelectionTrace:
    """select with MethodSpec("svps", clusterer, epsilon=epsilon)."""
    spec = MethodSpec("svps", clusterer, epsilon=epsilon)
    return select(adj, spec, dist=dist, m_max=m_max, seed=seed, restarts=restarts)


def score_select(
    adj: WeightedAdjacency,
    dist,
    method: str = "cbic",
    m_range=range(1, 11),
    clusterer="score",
    seed=0,
    lam: float = 1.0,
    restarts: int = 50,
) -> SelectionTrace:
    """select with MethodSpec(method, clusterer, lam=lam) and m_range = range(1, m_max + 1)."""
    if method not in ("cbic", "icl"):
        raise ValueError(f"method must be cbic or icl, got {method!r}")
    m_max = len(m_range)
    if m_range != range(1, m_max + 1):
        raise ValueError(f"m_range must be range(1, m_max + 1), got {m_range!r}")
    spec = MethodSpec(method, clusterer, lam=lam)
    return select(adj, spec, dist=dist, m_max=m_max, seed=seed, restarts=restarts)
