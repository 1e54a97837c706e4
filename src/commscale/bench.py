"""Monte-Carlo accuracy experiments and the Les Miserables study.

run_experiment draws replicate networks from a simulation model and
records how often each selector recovers the true community count.
A replicate's network and its one k-means seed both derive from (base
seed, K, replicate index) only, on separate streams: the networks never
change when methods are added or reordered, and every method of a
replicate clusters with the same seed, so the methods are paired and
share their clustered steps, as every cell of run_lesmis does.
"""

from __future__ import annotations

import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, fields
from itertools import repeat

import numpy as np

from .fitting import FitError
from .model import THETA_MIXTURE, EdgeDistribution, edge_law, make_rng, mean_matrix, sample_network, simulation_params
from .network import WeightedAdjacency, _checked_int, binarize, open_text, regularize
from .selection import MethodSpec, select

__all__ = [
    "ExperimentConfig",
    "Table",
    "parse_config",
    "run_experiment",
    "run_lesmis",
]


@dataclass(frozen=True)
class ExperimentConfig:
    distribution: EdgeDistribution
    rho: float
    r: float
    k_list: tuple[int, ...]
    n_all: tuple[int, ...]
    methods: tuple[MethodSpec, ...]
    replicates: int = 100
    seed: int = 0
    zero_diagonal: bool = False

    def __post_init__(self):
        _checked_int(self.replicates, "replicates", 1)
        _checked_int(self.seed, "seed")
        if not self.methods:
            raise ValueError("need at least one method")
        for key in ("k_list", "n_all"):
            entries = getattr(self, key)
            if not entries:
                raise ValueError(f"{key} must not be empty")
            for value in entries:
                if isinstance(value, numbers.Real) and value < 1:
                    raise ValueError(f"{key} entries must be >= 1, got {entries}")
                _checked_int(value, f"{key} entry", 1)
        for key in ("rho", "r"):
            if not 0 < getattr(self, key) < np.inf:
                raise ValueError(f"{key} must be finite and positive, got {getattr(self, key)}")
        if len(set(self.k_list)) < len(self.k_list):
            raise ValueError(f"k_list must not repeat a value, got {self.k_list}")
        if max(self.k_list) > len(self.n_all):
            raise ValueError("k_list exceeds available block sizes")
        # the sampler's mean cap, checked up front at the mixture's largest theta
        top = max(np.max(theta) for _, theta in THETA_MIXTURE)
        self.distribution.check_mean(self.rho * (1 + self.r) * top * top)
        labels = [spec.label for spec in self.methods]
        if len(set(labels)) < len(labels):
            raise ValueError(f"methods must have distinct labels, got {labels}")


@dataclass(frozen=True)
class Table:
    """A result table: column names and rows in a stable order."""

    header: tuple[str, ...]
    rows: tuple[tuple, ...]

    def to_csv(self) -> str:
        """The header, then the rows in order, RFC-4180 quoted, "\\n" line ends."""
        import csv
        import io

        sink = io.StringIO()
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(self.header)
        writer.writerows(self.rows)
        return sink.getvalue()


def _parse_method(tokens, lineno) -> MethodSpec:
    if len(tokens) < 2:
        raise ValueError(f"line {lineno}: method needs 'selector clusterer [key=value]'")
    kwargs = {"selector": tokens[0], "clusterer": tokens[1]}
    options = {"epsilon": "epsilon", "lambda": "lam"}
    try:
        for tok in tokens[2:]:
            key, _, value = tok.partition("=")
            if key not in options:
                raise ValueError(f"unknown method option {tok!r}")
            kwargs[options[key]] = float(value)
        return MethodSpec(**kwargs)
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _integers(value: str) -> tuple[int, ...]:
    return tuple(int(t) for t in value.split(","))


def _boolean(value: str) -> bool:
    if value.lower() not in _BOOLEANS:
        raise ValueError(value)
    return _BOOLEANS[value.lower()]


# per key but distribution and methods: conversion, what it must be
_CONVERSIONS = {
    "rho": (float, "a number"),
    "r": (float, "a number"),
    "k_list": (_integers, "comma-separated integers"),
    "n_all": (_integers, "comma-separated integers"),
    "replicates": (int, "an integer"),
    "seed": (int, "an integer"),
    "zero_diagonal": (_boolean, "true or false"),
}


def parse_config(source) -> ExperimentConfig:
    """Read a key=value experiment config.

    Recognized keys: distribution, rho, r, k_list, n_all, replicates,
    seed, zero_diagonal, each at most once, and one 'method = selector
    clusterer [...]' line per method. '#' starts a comment. zero_diagonal
    is true, yes, 1, false, no or 0 in any case. Any other key, a
    repeated one, or a value of the wrong kind is a ValueError naming its
    line. The keys, which of them are required, and the defaults are
    ExperimentConfig's fields; methods is read from the method lines only.
    """
    defaults = {field.name: field.default for field in fields(ExperimentConfig) if field.name != "methods"}
    scalars = {}
    methods = []
    with open_text(source) as stream:
        for lineno, raw in enumerate(stream, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise ValueError(f"line {lineno}: expected 'key = value'")
            key = key.strip()
            value = value.strip()
            if key == "method":
                methods.append(_parse_method(value.split(), lineno))
            elif key not in defaults:
                raise ValueError(f"line {lineno}: unknown key {key!r}")
            elif key in scalars:
                raise ValueError(f"line {lineno}: repeated key {key!r}")
            else:
                scalars[key] = (value, lineno)
    missing = {key for key, default in defaults.items() if default is MISSING} - set(scalars)
    if missing:
        raise ValueError(f"config is missing keys: {sorted(missing)}")
    values = {}
    for key, (convert, what) in _CONVERSIONS.items():
        if key in scalars:
            value, lineno = scalars[key]
            try:
                values[key] = convert(value)
            except ValueError:
                raise ValueError(f"line {lineno}: {key} must be {what}, got {value!r}") from None
    return ExperimentConfig(distribution=edge_law(scalars["distribution"][0]), methods=tuple(methods), **values)


def _k_hat(adj, spec: MethodSpec, **kwargs):
    """The selector's estimate, or None when select's up-front check of the law's range or support fails."""
    try:
        return select(adj, spec, **kwargs).k_hat
    except FitError:
        return None


def _network(seed: int, k: int, rep: int, rho, r, n_all, law, zero_diagonal: bool = False) -> WeightedAdjacency:
    """Replicate rep's network at K = k, drawn from SeedSequence((seed, k, rep)) only."""
    rng = make_rng(np.random.SeedSequence((seed, k, rep)))
    model = simulation_params(k, rho, r, n_all, rng)
    return sample_network(mean_matrix(model), law, rng, zero_diagonal=zero_diagonal)


def _replicate(config: ExperimentConfig, k: int, rep: int) -> dict:
    """Sample one network and run every method on it with one k-means seed."""
    adj = _network(config.seed, k, rep, config.rho, config.r, config.n_all, config.distribution, config.zero_diagonal)
    # one k-means seed for every method, on a stream apart from the network's
    seed = np.random.SeedSequence((config.seed, k, rep, 1)).generate_state(1)[0]
    return {
        spec.label: _k_hat(
            adj,
            spec,
            # svps keeps the poisson variance until ROADMAP item 1 measures the law's own
            dist=None if spec.selector == "svps" else config.distribution,
            m_max=max(12, k + 4) if spec.selector == "svps" else k + 4,
            seed=seed,
        )
        for spec in config.methods
    }


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> Table:
    """Accuracy of every method at every K over seeded replicates.

    Parallel and serial execution give identical tables; results are
    aggregated in (K, replicate) order regardless of completion order.
    """
    jobs = _checked_int(jobs, "jobs", 1)
    tasks = [(k, rep) for k in config.k_list for rep in range(config.replicates)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            ks, reps = zip(*tasks)
            results = list(pool.map(_replicate, repeat(config), ks, reps, chunksize=4))
    else:
        results = [_replicate(config, k, rep) for k, rep in tasks]
    by_key = dict(zip(tasks, results))
    rows = []
    for k in config.k_list:
        for spec in sorted(config.methods, key=lambda s: s.label):
            estimates = [by_key[(k, rep)][spec.label] for rep in range(config.replicates)]
            got = [e for e in estimates if e is not None]
            hits = sum(1 for e in got if e == k)
            failures = config.replicates - len(got)
            mean_khat = f"{np.mean(got):.6g}" if got else ""
            rows.append((k, spec.label, hits / config.replicates, config.replicates, mean_khat, failures))
    header = ("K", "method", "accuracy", "replicates", "mean_khat", "failures")
    return Table(header, tuple(rows))


def run_lesmis(
    adj: WeightedAdjacency,
    tau_list=(0.05, 0.1, 0.25, 0.5),
    seed: int = 0,
    epsilon: float = 0.05,
) -> Table:
    """The weighted-network study grid.

    For each clusterer: the sequential test on the regularized matrix at
    every tau, then CBIC and ICL on the raw weighted matrix with poisson
    likelihood, then CBIC and ICL on the binarized matrix with bernoulli
    likelihood. Each cell takes select's m_max, 12 for svps and 10 for CBIC
    and ICL. Cells that fail record an empty estimate.
    """
    grid = []  # (network, spec, likelihood, variant)
    for clusterer in ("score", "rsc"):
        svps = MethodSpec("svps", clusterer, epsilon=epsilon)
        grid += [(regularize(adj, tau), svps, None, f"tau={tau:g}") for tau in tau_list]
        grid += [(adj, MethodSpec(s, clusterer), "poisson", "weighted") for s in ("cbic", "icl")]
    flat = binarize(adj)
    grid += [(flat, MethodSpec(s, "score"), "bernoulli", "binarized") for s in ("cbic", "icl")]
    rows = []
    for network, spec, dist, variant in grid:
        k_hat = _k_hat(network, spec, dist=dist, seed=seed)
        rows.append((spec.clusterer, spec.selector, variant, "" if k_hat is None else k_hat))
    return Table(("clusterer", "selector", "variant", "k_hat"), tuple(rows))

