"""Selecting the number of communities.

select is the one stepwise driver: for m = 1, 2, ... it clusters and
fits m groups, evaluates the step, then stops or goes on. The sequential
variance-profile test (svps) stops at the first m where the (m+1)-th
largest eigenvalue magnitude of the adjacency, scaled by the fitted
variance profile, falls below 2 + epsilon. The penalized-likelihood
baselines (CBIC, ICL) score every m and take the argmax.

Every step is fitted under the selection's one edge law. log_likelihood
sums the law's log mass at the given mean, with scipy.special, over data
terms built once per selection; it equals the scipy.stats logpmf sum bit
for bit. CBIC and ICL take it at the step's n x n mean only where a
weight is not exactly its count or the law's log mass does not split
into blocks. A Poisson step otherwise scores from its block sums, totals
and degrees, less sum log A_ij! over the distinct counts, equal up to
rounding and with numpy and math alone: a Poisson selection on exact
counts builds no n x n likelihood array and loads no scipy module. On
perfbench's sim-panel that keeps peak RSS near 75 MB, against about
92 MB with scipy.special loaded (2-core x86_64 Linux).
"""

from __future__ import annotations

import copy
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .fitting import FitError, FittedStep, _variance_profile, fit_step
from .model import EDGE_LAWS, EdgeDistribution, edge_law
from .network import WeightedAdjacency, _checked_int
from .scaling import ScalingError, scaled_matrix, sinkhorn_symmetric
from .spectral import ClusterError, _basis_key, _lanczos, _sparse_weights, rsc_cluster, score_cluster

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
    """One selector variant: svps with an epsilon, cbic with lambda, or icl; other knobs keep their defaults."""

    selector: str
    clusterer: str = "score"
    epsilon: float = 0.05
    lam: float = 1.0

    def __post_init__(self):
        if self.selector not in ("svps", "cbic", "icl"):
            raise ValueError(f"unknown selector {self.selector!r}")
        if self.clusterer not in ("score", "rsc"):
            raise ValueError(f"unknown clusterer {self.clusterer!r}")
        if self.selector != "svps" and self.epsilon != 0.05:
            raise ValueError(f"epsilon applies to svps only, got {self.epsilon!r} for {self.selector}")
        if self.selector != "cbic" and self.lam != 1.0:
            raise ValueError(f"lam applies to cbic only, got {self.lam!r} for {self.selector}")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not self.lam >= 0:
            raise ValueError("lam must be nonnegative")

    @property
    def label(self) -> str:
        if self.selector == "svps":
            return f"svps-{self.clusterer}-eps{self.epsilon:g}"
        if self.lam != 1.0:
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


# The last network's step assignments and clustering bases, (weights
# digest, {(clusterer, m, seed, restarts): Assignment, (clusterer,): basis}).
# A basis is the leading min(n, m_max) columns, read-only, of the dense
# eigenvectors spectral._basis memoises. The digest is (shape, SHA-1 of the
# dense weights), or ("csr", shape, SHA-1 of the CSR weights' indptr,
# indices and data) on the Lanczos path. A new network replaces the whole
# pair, so a caller still holding the old pair can only miss.
_steps: tuple = (None, {})


def _memo_entries(adj: WeightedAdjacency) -> dict:
    """The step memo's entries for adj's weights, replacing the memo when it
    holds another network's."""
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
    return steps[1]


def _cluster_and_fit(
    adj: WeightedAdjacency, m: int, clusterer: str, seed: int, restarts: int, law=EDGE_LAWS["poisson"]
) -> FittedStep:
    """Cluster adj into m groups with SCORE ("score") or RSC ("rsc"), then fit.

    The assignment is memoised in _steps, so selectors sharing a network
    and seed cluster each m once. The clusterers and fit_step are looked
    up in this module at call time, so a wrapper installed on these
    attributes sees every clustering and fit.
    """
    entries = _memo_entries(adj)
    key = (clusterer, m, seed, restarts)
    if key not in entries:
        entries[key] = (score_cluster if clusterer == "score" else rsc_cluster)(adj, m, seed=seed, restarts=restarts)
    return fit_step(adj, entries[key], law)


def _data_terms(adj: WeightedAdjacency, law: EdgeDistribution) -> tuple[np.ndarray, ...]:
    """law.data_terms of adj's weights, memoised per network object and law as the basis is."""
    key = f"_{law.kind}{law.trials}_terms"
    memo = vars(adj)
    if key not in memo:
        memo[key] = law.data_terms(adj.weights)
    return memo[key]


def _mean_free_sum(adj: WeightedAdjacency) -> float | None:
    """sum log A_ij! over all ordered pairs, the poisson log mass's mean-free
    term, memoised on adj; None where a weight is not an integer exactly,
    since block sums of the weights then miss the counts' k log mu. Each
    distinct count above 1 takes one math.lgamma, times its multiplicity."""
    memo = vars(adj)
    if "_log_factorials" not in memo:
        w = adj.weights
        total = None
        if np.array_equal(np.round(w), w):
            values, repeats = np.unique(w[w > 1], return_counts=True)
            total = math.fsum(r * math.lgamma(v + 1.0) for v, r in zip(values.tolist(), repeats.tolist()))
        memo["_log_factorials"] = total
    return memo["_log_factorials"]


def log_likelihood(adj: WeightedAdjacency, mean: np.ndarray, dist) -> float:
    """Log mass of adj's weights given entrywise means of the same shape.

    The sum runs over all ordered node pairs, so each off-diagonal pair
    contributes twice (once per direction) and each diagonal entry once.
    dist is an EdgeDistribution or a name that model.edge_law accepts;
    "bernoulli" is the binomial law with one trial. The law caps
    probability-type parameters (EdgeDistribution.log_mass). A zero mean
    gives log mass 0 at a zero count and -inf at a positive one. A
    negative or non-finite mean entry, or a weight outside the law's
    support, raises ValueError.
    """
    law = edge_law(dist)
    mean = np.asarray(mean, dtype=float)
    if mean.shape != adj.weights.shape:
        raise ValueError(f"mean must have shape {adj.weights.shape}, got {mean.shape}")
    if not (np.isfinite(mean).all() and (mean >= 0).all()):
        raise ValueError("mean entries must be finite and nonnegative")
    return float(law.log_mass(_data_terms(adj, law), mean).sum())


def _step_log_likelihood(adj: WeightedAdjacency, fitted: FittedStep) -> float:
    """log f(A | M) at a fitted step's mean M, under fitted.law.

    In block form, O(m^2 + n) (EdgeDistribution.block_log_mass), where the
    law's log mass splits and every weight is its count. Zero means, where
    S_kl = 0 or d_i = 0, meet zero counts only and add 0 to either form,
    which then differ in rounding only. Otherwise log_likelihood of fitted.mean.
    """
    law = fitted.law
    part = law.block_log_mass(fitted.block_sums, fitted.totals, fitted.degrees)
    if part is not None:
        constant = _mean_free_sum(adj)
        if constant is not None:
            return part - constant
    return log_likelihood(adj, fitted.mean, law)


def cbic_score(adj: WeightedAdjacency, fitted: FittedStep, lam: float = 1.0) -> float:
    """log f(A | M) - [lam * n * log m + m(m+1)/2 * log n], under fitted.law."""
    if not lam >= 0:
        raise ValueError("lam must be nonnegative")
    n = adj.n
    m = fitted.m
    penalty = lam * n * math.log(m) + m * (m + 1) / 2.0 * math.log(n)
    return _step_log_likelihood(adj, fitted) - penalty


def icl_score(adj: WeightedAdjacency, fitted: FittedStep) -> float:
    """log f(A | M) - [sum_k n_k log(n/n_k) + m(m+2)/2 * log n], under fitted.law."""
    n = adj.n
    m = fitted.m
    sizes = fitted.assignment.sizes
    entropy = float((sizes * np.log(n / sizes)).sum())
    penalty = entropy + m * (m + 2) / 2.0 * math.log(n)
    return _step_log_likelihood(adj, fitted) - penalty


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
    Weights outside the law's range (svps) or support (cbic/icl,
    EdgeDistribution.counts) raise FitError, and a k-means seed that is
    not an integer >= 0, or an m_max or restarts that is not an integer
    >= 1 (numpy's pass), ValueError, before any clustering.

    The steps run on a shallow copy of adj, which shares its weights, so
    the clusterers' eigenvector memo, the Lanczos path's CSR weights and
    the likelihood's data terms last for this selection only. The step
    memo shares the step assignments with later selections on equal
    weights, and the clusterer's dense basis cut to its leading
    min(n, m_max) columns: the copy starts from it, and a wider basis
    decomposed here replaces it.
    """
    adj = copy.copy(adj)
    svps = spec.selector == "svps"
    if m_max is None:
        m_max = 12 if svps else 10
    m_max, restarts = _checked_int(m_max, "m_max", 1), _checked_int(restarts, "restarts", 1)
    seed = _checked_int(seed, "seed")
    if dist is None and not svps:
        raise ValueError(f"{spec.selector} needs a likelihood law")
    law = edge_law("poisson" if dist is None else dist)
    try:
        if svps:  # the law is only a variance here, so non-integer weights pass
            law.check_weights(adj.weights)
        else:
            law.counts(adj.weights)
    except ValueError as exc:
        raise FitError(str(exc)) from None
    if svps:
        last, failed, threshold = adj.n - 1, math.inf, 2.0 + spec.epsilon
    else:
        last, failed, threshold = adj.n, -math.inf, None
    # seed the copy with the basis an earlier selection on these weights
    # decomposed, and keep its leading columns for later ones
    entries, basis_key = _memo_entries(adj), _basis_key(spec.clusterer)
    kept = entries.get((spec.clusterer,))
    if kept is not None:
        vars(adj).setdefault(basis_key, kept)
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
    basis = vars(adj).get(basis_key)
    width = 0 if basis is None else min(basis.shape[1], m_max)
    if width > (0 if kept is None else kept.shape[1]):
        kept = basis[:, :width].copy()
        kept.flags.writeable = False
        entries[spec.clusterer,] = kept
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
