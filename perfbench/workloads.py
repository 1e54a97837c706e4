"""Benchmark workloads: the networks each pass builds and the selections run on them.

A pass is the unit a run repeats until its time is up, so every run
measures whole passes of one fixed mix of selections. Inputs derive
from the workload seed and the pass index only. Import this module only
after benchenv.import_commscale().
"""

from __future__ import annotations

import dataclasses
import zlib
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

import commscale as cs

# Fixed arguments of the workloads: run_lesmis's svps epsilon, and the
# Poisson DCSBM density and degree spread of configs/sim1_rho006.cfg.
LESMIS_EPSILON = 0.05
RHO = 0.06
R = 3.0


@dataclass(frozen=True)
class Task:
    """One selection: prepare its input network, then call the selector."""

    label: str
    method: str  # "svps", "cbic" or "icl"
    m_range: tuple[int, ...]  # candidate m in order; svps may stop early
    true_k: int | None
    prepare: Callable[[], object]
    select: Callable[[object], object]


def derived_seed(*keys: int) -> int:
    return int(np.random.SeedSequence(keys).generate_state(1)[0])


def sample_poisson_dcsbm(k, rho, r, block_sizes, *keys):
    """One network as bench._replicate samples it, from SeedSequence(keys)."""
    rng = cs.make_rng(np.random.SeedSequence(keys))
    model = cs.simulation_params(k, rho, r, block_sizes, rng)
    return cs.sample_network(cs.mean_matrix(model), cs.EdgeDistribution("poisson"), rng)


def _svps(label, prepare, true_k, m_max, **kwargs) -> Task:
    return Task(
        label, "svps", tuple(range(1, m_max + 1)), true_k, prepare,
        lambda adj: cs.svps_select(adj, m_max=m_max, **kwargs),
    )


def _score(label, prepare, true_k, method, m_range, **kwargs) -> Task:
    return Task(
        label, method, tuple(m_range), true_k, prepare,
        lambda adj: cs.score_select(adj, method=method, m_range=m_range, **kwargs),
    )


@dataclass(frozen=True)
class LesmisGrid:
    """The run_lesmis grid on the bundled Les Miserables network.

    Pass p repeats the grid with k-means seed base + p, where base
    derives from the workload seed.
    """

    name: ClassVar[str] = "lesmis-grid"
    taus: tuple[float, ...] = (0.05, 0.1, 0.25, 0.5)
    m_max: int = 12
    score_m_max: int = 10
    restarts: int = 50

    def setup(self, seed):
        return cs.load_lesmis()

    def networks(self, seed, rep, state):
        return state

    def tasks(self, seed, rep, adj) -> list[Task]:
        kseed = derived_seed(seed) + rep
        m_range = range(1, self.score_m_max + 1)
        common = dict(seed=kseed, restarts=self.restarts)
        out = []
        for clusterer in ("score", "rsc"):
            for tau in self.taus:
                out.append(_svps(
                    f"svps-{clusterer}-tau{tau:g}", lambda tau=tau: cs.regularize(adj, tau), None,
                    self.m_max, epsilon=LESMIS_EPSILON, clusterer=clusterer, **common,
                ))
            for method in ("cbic", "icl"):
                out.append(_score(
                    f"{method}-{clusterer}-weighted", lambda: adj, None, method, m_range,
                    dist="poisson", clusterer=clusterer, **common,
                ))
        for method in ("cbic", "icl"):
            out.append(_score(
                f"{method}-score-binarized", lambda: cs.binarize(adj), None, method, m_range,
                dist="bernoulli", clusterer="score", **common,
            ))
        return out


@dataclass(frozen=True)
class SvpsLarge:
    """svps_select with SCORE and the defaults on one fresh large DCSBM per pass."""

    name: ClassVar[str] = "svps-n1200"
    block_sizes: tuple[int, ...] = (400, 400, 400)  # one block per community
    restarts: int = 50

    def setup(self, seed):
        return None

    def networks(self, seed, rep, state):
        return sample_poisson_dcsbm(len(self.block_sizes), RHO, R, self.block_sizes, seed, rep)

    def tasks(self, seed, rep, adj) -> list[Task]:
        return [_svps(
            "svps-score", lambda: adj, len(self.block_sizes), 12,
            clusterer="score", seed=derived_seed(seed, rep), restarts=self.restarts,
        )]


@dataclass(frozen=True)
class SimPanel:
    """One replicate per pass of a trimmed simulation panel.

    Networks, method seeds and selector arguments are those of
    bench._replicate for a config with this panel's fields and the
    workload seed, so pass p is replicate p of run_experiment.
    """

    name: ClassVar[str] = "sim-panel"
    k_list: tuple[int, ...] = (2, 3, 4, 5, 6)
    n_all: tuple[int, ...] = (50, 100, 150, 50, 100, 150)
    methods: tuple[tuple[str, str], ...] = (
        ("svps", "score"), ("svps", "rsc"), ("cbic", "score"),
        ("cbic", "rsc"), ("icl", "score"), ("icl", "rsc"),
    )
    restarts: int = 50

    def setup(self, seed):
        return None

    def networks(self, seed, rep, state):
        return [sample_poisson_dcsbm(k, RHO, R, self.n_all, seed, k, rep) for k in self.k_list]

    def tasks(self, seed, rep, nets) -> list[Task]:
        dist = cs.EdgeDistribution("poisson")
        out = []
        for k, adj in zip(self.k_list, nets):
            for selector, clusterer in self.methods:
                spec = cs.MethodSpec(selector, clusterer)
                common = dict(
                    clusterer=clusterer, restarts=self.restarts,
                    seed=derived_seed(seed, k, rep, zlib.crc32(spec.label.encode())),
                )
                label = f"K{k}-{spec.label}"
                if selector == "svps":
                    out.append(_svps(label, lambda adj=adj: adj, k, max(12, k + 4), epsilon=spec.epsilon, **common))
                else:
                    out.append(_score(
                        label, lambda adj=adj: adj, k, selector, range(1, k + 5),
                        dist=dist, lam=spec.lam, **common,
                    ))
        return out

    def experiment_config(self, seed):
        """The one-replicate run_experiment config whose replicate 0 is pass 0."""
        return cs.ExperimentConfig(
            distribution=cs.EdgeDistribution("poisson"),
            rho=RHO,
            r=R,
            k_list=self.k_list,
            n_all=self.n_all,
            methods=tuple(cs.MethodSpec(s, c) for s, c in self.methods),
            replicates=1,
            seed=seed,
        )


WORKLOADS = {w.name: w for w in (LesmisGrid(), SvpsLarge(), SimPanel())}
KINDS = {cls.__name__: cls for cls in (LesmisGrid, SvpsLarge, SimPanel)}


def to_spec(workload) -> dict:
    return {"kind": type(workload).__name__, "fields": dataclasses.asdict(workload)}


def _tuples(value):
    return tuple(_tuples(v) for v in value) if isinstance(value, (list, tuple)) else value


def from_spec(spec: dict):
    fields = {key: _tuples(value) for key, value in spec["fields"].items()}
    return KINDS[spec["kind"]](**fields)
