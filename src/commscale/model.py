"""Weighted degree-corrected block model: parameters, means, sampling.

A model is a plain record in the identifiable form with unit-diagonal
community connectivity; simulation_params rescales the usual recipe
with connectivity rho*(1 + r*1{k==l}) into that form, which leaves the
mean matrix unchanged. Inputs are checked where they enter:
simulation_params checks its numbers, sample_network its mean.
EdgeDistribution is the one place that knows each edge law's rules. Its
log mass methods import scipy.special when first called, so importing
commscale, or a selection that evaluates no likelihood, loads no scipy
module.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .network import WeightedAdjacency

__all__ = [
    "EdgeDistribution",
    "mean_matrix",
    "simulation_params",
    "sample_network",
    "make_rng",
]

# theta mixture of the simulation recipe: Uniform(0.6, 1.4) w.p. 0.8,
# and point masses at 0.5 and 1.5 w.p. 0.1 each
THETA_MIXTURE = ((0.8, (0.6, 1.4)), (0.1, 0.5), (0.1, 1.5))


@dataclass(frozen=True)
class EdgeDistribution:
    """An edge law: its sampler and mean cap, range, support, variance and log mass.

    kind is "poisson", "binomial" or "negative_binomial"; the latter two
    use the trial count t = trials, an integer >= 1 (default 5, as in
    the simulation recipes). The negative binomial with mean parameter mu
    counts failures before the t-th success with success probability
    1 - mu/t, so its actual mean is mu / (1 - mu/t): a deliberate mean
    mismatch.
    """

    kind: str
    trials: int = 5

    _KINDS = ("poisson", "binomial", "negative_binomial")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown distribution {self.kind!r}")
        if not (isinstance(self.trials, numbers.Integral) and self.trials >= 1):
            raise ValueError(f"trials must be an integer >= 1, got {self.trials!r}")

    def check_mean(self, peak: float) -> None:
        """The sampler's mean cap: peak <= t (binomial) or peak < t (negative binomial)."""
        bound = {"binomial": "<=", "negative_binomial": "<"}.get(self.kind)
        if bound is not None and (peak > self.trials or (bound == "<" and peak == self.trials)):
            raise ValueError(f"{self.kind} mean cap exceeded: needs max mean {bound} {self.trials}, got {peak:g}")

    def sample(self, mu: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Poisson(mu), Binom(t, mu/t) or NegBinom(t, 1 - mu/t) draws under the mean cap."""
        if self.kind == "poisson":
            return rng.poisson(mu)
        self.check_mean(mu.max())
        p = mu / self.trials
        if self.kind == "binomial":
            return rng.binomial(self.trials, p)
        return rng.negative_binomial(self.trials, 1.0 - p)

    def check_weights(self, weights: np.ndarray) -> None:
        """The law's range: the binomial needs weights <= t, the others any."""
        if self.kind == "binomial" and (weights > self.trials).any():
            raise ValueError(f"binomial law needs weights <= {self.trials}")

    def data_terms(self, weights: np.ndarray) -> tuple[np.ndarray, ...]:
        """Counts k, mean-free term c and failures f of the log mass, or
        ValueError off the support (integers in range). c is log k!, log C(t, k)
        with f = t - k, or log C(t + k - 1, k) with f = k, as scipy.stats forms them."""
        from scipy.special import gammaln

        k = np.round(weights)
        if not np.allclose(weights, k, rtol=0, atol=1e-9):
            raise ValueError(f"{self.kind.replace('_', ' ')} likelihood needs integer weights")
        self.check_weights(k)
        t = self.trials
        if self.kind == "poisson":
            return k, gammaln(k + 1), None
        if self.kind == "binomial":
            return k, gammaln(t + 1) - (gammaln(k + 1) + gammaln(t - k + 1)), t - k
        return k, gammaln(t + k) - gammaln(k + 1) - gammaln(t), k

    def log_mass(self, terms: tuple[np.ndarray, ...], mu: np.ndarray) -> np.ndarray:
        """Entrywise log mass, grouped as scipy.stats groups it, of the counts of terms
        (data_terms) at means mu > 0; probabilities are capped at 1 - 1e-8."""
        from scipy.special import xlog1py, xlogy

        k, c, f = terms
        if self.kind == "poisson":
            return (xlogy(k, mu) - c) - mu
        p = np.minimum(mu / self.trials, 1.0 - 1e-8)
        if self.kind == "binomial":
            return (c + xlogy(k, p)) + xlog1py(f, -p)
        p = 1.0 - p
        return (c + self.trials * np.log(p)) + xlog1py(f, -p)

    def block_log_mass(self, s: np.ndarray, t: np.ndarray, d: np.ndarray) -> float | None:
        """The log mass summed over all ordered pairs, less its mean-free term c,
        at means mu_ij = C_kl d_i d_j with C = s / t t^T, for counts with block
        sums s, group totals t and degrees d: sum S log C + 2 sum d log d - sum S
        (poisson). None for the binomial laws, whose log(1 - p) does not split."""
        if self.kind != "poisson":
            return None
        from scipy.special import xlogy

        return float(xlogy(s, s / np.outer(t, t)).sum() + 2.0 * xlogy(d, d).sum() - s.sum())

    def variance(self, mu: np.ndarray) -> np.ndarray:
        """The law's variance at actual mean mu: mu (poisson), mu*(1 - mu/t)
        (binomial) or mu*(1 + mu/t) (negative binomial), t = trials."""
        mu = np.asarray(mu, dtype=float)
        if self.kind == "poisson":
            return mu.copy()
        if self.kind == "binomial":
            return mu * (1.0 - mu / self.trials)
        return mu * (1.0 + mu / self.trials)

    @property
    def variance_cap(self) -> float:
        """The mean where the binomial variance reaches zero, t; inf for the others."""
        return self.trials if self.kind == "binomial" else math.inf

    def quadratic(self, c: np.ndarray) -> np.ndarray | None:
        """Q with variance(d_i C_kl d_j) = d_i C_kl d_j + d_i^2 Q_kl d_j^2: -C^2/t, C^2/t or None."""
        if self.kind == "poisson":
            return None
        return (-(c * c) if self.kind == "binomial" else c * c) / self.trials


# The edge laws that can be named by a string, and the one place the
# names are spelled; "bernoulli" is the binomial law with one trial.
EDGE_LAWS = {
    "poisson": EdgeDistribution("poisson"),
    "binomial": EdgeDistribution("binomial"),
    "negbinom": EdgeDistribution("negative_binomial"),
    "bernoulli": EdgeDistribution("binomial", trials=1),
}


def edge_law(law) -> EdgeDistribution:
    """The EdgeDistribution given as itself, by an EDGE_LAWS name or by its kind."""
    if isinstance(law, EdgeDistribution):
        return law
    return EDGE_LAWS[law] if law in EDGE_LAWS else EdgeDistribution(law)


class Dcsbm(NamedTuple):
    """Degree-corrected block model in identifiable form: theta (n,),
    labels (n,) in 0..K-1, connectivity (K, K) with unit diagonal."""

    theta: np.ndarray
    labels: np.ndarray
    connectivity: np.ndarray


def make_rng(seed) -> np.random.Generator:
    """Counter-based generator (Philox) from a seed or SeedSequence."""
    return np.random.Generator(np.random.Philox(seed))


def mean_matrix(model: Dcsbm) -> np.ndarray:
    """M[i, j] = theta_i * theta_j * B[label_i, label_j]; rank K."""
    blocks = model.connectivity[np.ix_(model.labels, model.labels)]
    return np.outer(model.theta, model.theta) * blocks


def _sample_theta(rng: np.random.Generator, n: int) -> np.ndarray:
    cats = rng.choice(3, size=n, p=[w for w, _ in THETA_MIXTURE])
    lo, hi = THETA_MIXTURE[0][1]
    unif = rng.uniform(lo, hi, size=n)
    return np.where(cats == 0, unif, np.where(cats == 1, THETA_MIXTURE[1][1], THETA_MIXTURE[2][1]))


def simulation_params(k: int, rho: float, r: float, block_sizes, rng: np.random.Generator) -> Dcsbm:
    """Build a simulation model for K communities.

    Raw connectivity is rho*(1 + r*1{k==l}) on the first ``k`` entries of
    ``block_sizes``; theta is i.i.d. from the 0.8/0.1/0.1 mixture. The
    returned model is rescaled to identifiable form: connectivity divided
    by rho*(1+r) and sqrt(rho*(1+r)) folded into theta. rho and r must
    be finite and positive, and the first k block sizes at least 1.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if k > len(block_sizes):
        raise ValueError(f"k={k} exceeds the {len(block_sizes)} available block sizes")
    if not (rho > 0 and r > 0):
        raise ValueError("rho and r must be positive")
    if not np.isfinite((rho, r)).all():
        raise ValueError("rho and r must be finite")
    sizes = [int(s) for s in block_sizes[:k]]
    if min(sizes) < 1:
        raise ValueError(f"block sizes must be >= 1, got {sizes}")
    n = int(sum(sizes))
    labels = np.repeat(np.arange(k), sizes)
    theta = _sample_theta(rng, n)
    scale = rho * (1.0 + r)
    connectivity = rho * (np.ones((k, k)) + r * np.eye(k)) / scale
    return Dcsbm(theta * np.sqrt(scale), labels, connectivity)


def sample_network(
    mean: np.ndarray, dist: EdgeDistribution, rng: np.random.Generator, zero_diagonal: bool = False
) -> WeightedAdjacency:
    """Sample the upper triangle (incl. diagonal) and mirror it.

    The mean must be square, finite, nonnegative and exactly symmetric,
    the rule WeightedAdjacency applies to weights.

    Each entry is one draw of dist.sample, under the law's mean cap.
    """
    mean = np.asarray(mean, dtype=float)
    n = mean.shape[0]
    if mean.shape != (n, n):
        raise ValueError("mean must be square")
    if (mean < 0).any():
        raise ValueError("mean entries must be nonnegative")
    if not np.isfinite(mean).all():
        raise ValueError("mean entries must be finite")
    if not np.array_equal(mean, mean.T):
        raise ValueError("mean must be exactly symmetric")
    iu = np.triu_indices(n)
    a = np.zeros((n, n))
    a[iu] = dist.sample(mean[iu], rng)
    a = a + np.triu(a, 1).T
    if zero_diagonal:
        np.fill_diagonal(a, 0.0)
    return WeightedAdjacency(a)
