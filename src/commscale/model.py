"""Weighted degree-corrected block model: parameters, means, sampling.

A model is stored in the identifiable form with unit-diagonal community
connectivity; the usual simulation recipe with connectivity
rho*(1 + r*1{k==l}) is rescaled into that form on construction, which
leaves the mean matrix unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import WeightedAdjacency

__all__ = [
    "VarianceFunction",
    "EdgeDistribution",
    "DcsbmModel",
    "mean_matrix",
    "simulation_params",
    "sample_network",
    "make_rng",
]

# theta mixture of the simulation recipe: Uniform(0.6, 1.4) w.p. 0.8,
# and point masses at 0.5 and 1.5 w.p. 0.1 each
THETA_MIXTURE = ((0.8, (0.6, 1.4)), (0.1, 0.5), (0.1, 1.5))


@dataclass(frozen=True)
class VarianceFunction:
    """Entrywise mean-to-variance map nu(mu).

    kind is one of "identity" (nu(mu) = mu), "bernoulli"
    (nu(mu) = mu*(1-mu), valid on (0,1)) or "scaled_linear"
    (nu(mu) = c*mu).
    """

    kind: str
    c: float = 1.0

    _KINDS = ("identity", "bernoulli", "scaled_linear")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown variance kind {self.kind!r}")
        if self.kind == "scaled_linear" and not self.c > 0:
            raise ValueError("scaled_linear needs c > 0")

    def __call__(self, mu: np.ndarray) -> np.ndarray:
        mu = np.asarray(mu, dtype=float)
        if self.kind == "identity":
            return mu.copy()
        if self.kind == "bernoulli":
            return mu * (1.0 - mu)
        return self.c * mu


@dataclass(frozen=True)
class EdgeDistribution:
    """Edge-weight law used for sampling and likelihoods.

    kind is "poisson", "binomial" or "negative_binomial"; the latter two
    use the trial count trials (default 5, as in the simulation
    recipes). The negative binomial with mean parameter mu counts
    failures before the trials-th success with success probability
    1 - mu/trials, so its actual mean is mu / (1 - mu/trials): a
    deliberate mean mismatch.
    """

    kind: str
    trials: int = 5

    _KINDS = ("poisson", "binomial", "negative_binomial")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown distribution {self.kind!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


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


@dataclass(frozen=True)
class DcsbmModel:
    """Degree-corrected block model in identifiable form.

    theta : (n,) positive degree parameters.
    labels : (n,) community indices in 0..K-1, every community nonempty.
    connectivity : (K, K) symmetric, entries in (0, 1], unit diagonal.
    """

    theta: np.ndarray
    labels: np.ndarray
    connectivity: np.ndarray

    def __post_init__(self):
        theta = np.array(self.theta, dtype=float)
        labels = np.array(self.labels, dtype=int)
        b = np.array(self.connectivity, dtype=float)
        if theta.ndim != 1 or labels.shape != theta.shape:
            raise ValueError("theta and labels must be 1-d and same length")
        if (theta <= 0).any():
            raise ValueError("theta must be positive")
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError("connectivity must be square")
        k = b.shape[0]
        if not np.allclose(b, b.T, rtol=0, atol=1e-12):
            raise ValueError("connectivity must be symmetric")
        if np.abs(np.diag(b) - 1.0).max() > 1e-12:
            raise ValueError("connectivity diagonal must be 1 (identifiable form)")
        if (b <= 0).any() or (b > 1 + 1e-12).any():
            raise ValueError("connectivity entries must lie in (0, 1]")
        if labels.min() < 0 or labels.max() >= k:
            raise ValueError("labels out of range")
        if len(np.unique(labels)) != k:
            raise ValueError("every community must be nonempty")
        theta.flags.writeable = False
        labels.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "connectivity", b)

    @property
    def n(self) -> int:
        return self.theta.shape[0]

    @property
    def k(self) -> int:
        return self.connectivity.shape[0]


def make_rng(seed) -> np.random.Generator:
    """Counter-based generator (Philox) from a seed or SeedSequence."""
    return np.random.Generator(np.random.Philox(seed))


def mean_matrix(model: DcsbmModel) -> np.ndarray:
    """M[i, j] = theta_i * theta_j * B[label_i, label_j]; rank K."""
    blocks = model.connectivity[np.ix_(model.labels, model.labels)]
    return np.outer(model.theta, model.theta) * blocks


def _sample_theta(rng: np.random.Generator, n: int) -> np.ndarray:
    cats = rng.choice(3, size=n, p=[w for w, _ in THETA_MIXTURE])
    lo, hi = THETA_MIXTURE[0][1]
    unif = rng.uniform(lo, hi, size=n)
    return np.where(cats == 0, unif, np.where(cats == 1, THETA_MIXTURE[1][1], THETA_MIXTURE[2][1]))


def simulation_params(
    k: int,
    rho: float,
    r: float,
    block_sizes,
    rng: np.random.Generator,
) -> DcsbmModel:
    """Build a simulation model for K communities.

    Raw connectivity is rho*(1 + r*1{k==l}) on the first ``k`` entries of
    ``block_sizes``; theta is i.i.d. from the 0.8/0.1/0.1 mixture. The
    returned model is rescaled to identifiable form: connectivity divided
    by rho*(1+r) and sqrt(rho*(1+r)) folded into theta.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if k > len(block_sizes):
        raise ValueError(f"k={k} exceeds the {len(block_sizes)} available block sizes")
    if not (rho > 0 and r > 0):
        raise ValueError("rho and r must be positive")
    sizes = [int(s) for s in block_sizes[:k]]
    n = int(sum(sizes))
    labels = np.repeat(np.arange(k), sizes)
    theta = _sample_theta(rng, n)
    scale = rho * (1.0 + r)
    connectivity = rho * (np.ones((k, k)) + r * np.eye(k)) / scale
    return DcsbmModel(
        theta=theta * np.sqrt(scale),
        labels=labels,
        connectivity=connectivity,
    )


def sample_network(
    mean: np.ndarray,
    dist: EdgeDistribution,
    rng: np.random.Generator,
    zero_diagonal: bool = False,
) -> WeightedAdjacency:
    """Sample the upper triangle (incl. diagonal) and mirror it.

    poisson draws Poisson(M_ij); binomial draws Binom(t, M_ij/t) and
    requires max M <= t; negative_binomial counts failures before the
    t-th success with success probability 1 - M_ij/t and requires
    max M < t, where t is dist.trials (default 5).
    """
    mean = np.asarray(mean, dtype=float)
    n = mean.shape[0]
    if mean.shape != (n, n):
        raise ValueError("mean must be square")
    if (mean < 0).any():
        raise ValueError("mean entries must be nonnegative")
    iu = np.triu_indices(n)
    mu = mean[iu]
    if dist.kind == "poisson":
        vals = rng.poisson(mu)
    elif dist.kind == "binomial":
        if mu.max() > dist.trials:
            raise ValueError(f"binomial mean cap exceeded: max M = {mu.max()} > {dist.trials}")
        vals = rng.binomial(dist.trials, mu / dist.trials)
    else:
        if mu.max() >= dist.trials:
            raise ValueError(f"negative_binomial needs max M < {dist.trials}, got {mu.max()}")
        vals = rng.negative_binomial(dist.trials, 1.0 - mu / dist.trials)
    a = np.zeros((n, n))
    a[iu] = vals
    a = a + np.triu(a, 1).T
    if zero_diagonal:
        np.fill_diagonal(a, 0.0)
    return WeightedAdjacency(a)
