"""Write the selection traces of a fixed set of runs, one CSV per run.

The set is the Les Miserables grid at k-means seeds 0 and 3 with both
clusterers, and replicate 0 of configs/sim1_rho006.cfg at K = 2..6 with
all six of its methods, each run as bench.run_lesmis and
bench.run_experiment would. Each file holds SelectionTrace.to_csv(), or
the message of the domain error the run raised. Dumping two checkouts
and comparing the directories shows whether a change moved any output:

    python3 tools/dump_outputs.py /tmp/parent-out --root ../parent
    python3 tools/dump_outputs.py /tmp/change-out
    diff -r /tmp/parent-out /tmp/change-out

--root names the checkout whose src/commscale is imported (default:
this one). The grid and panel definitions come from this file, so the
two dumps cover the same runs. BLAS and OpenMP are pinned to one thread,
as in the benchmark.
"""

from __future__ import annotations

import argparse
import os
import sys
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
LESMIS_SEEDS = (0, 3)
TAUS = (0.05, 0.1, 0.25, 0.5)
PANEL_CONFIG = HERE / "configs" / "sim1_rho006.cfg"
PANEL_KS = (2, 3, 4, 5, 6)


def import_commscale(root: Path):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    init = root / "src" / "commscale" / "__init__.py"
    sys.path.insert(0, str(root / "src"))
    import commscale

    if Path(commscale.__file__).resolve() != init.resolve():
        raise SystemExit(f"imported commscale from {commscale.__file__}, not from {init}")
    return commscale


def lesmis_runs(cs):
    """(name, network, spec, law, m_max, seed) for the grid of run_lesmis."""
    adj = cs.load_lesmis()
    flat = cs.binarize(adj)
    for seed in LESMIS_SEEDS:
        for clusterer in ("score", "rsc"):
            svps = cs.MethodSpec("svps", clusterer, epsilon=0.05)
            for tau in TAUS:
                yield f"lesmis-seed{seed}-{svps.label}-tau{tau:g}", cs.regularize(adj, tau), svps, None, None, seed
            for selector in ("cbic", "icl"):
                spec = cs.MethodSpec(selector, clusterer)
                yield f"lesmis-seed{seed}-{spec.label}-weighted", adj, spec, "poisson", 10, seed
                yield f"lesmis-seed{seed}-{spec.label}-binarized", flat, spec, "bernoulli", 10, seed


def panel_runs(cs):
    """(name, network, spec, law, m_max, seed) for replicate 0 of the panel."""
    import numpy as np

    config = cs.parse_config(PANEL_CONFIG)
    rep = 0
    for k in PANEL_KS:
        # network and method seeds as bench._replicate derives them, spelled
        # out here so that the dump depends on public names only
        rng = cs.make_rng(np.random.SeedSequence((config.seed, k, rep)))
        model = cs.simulation_params(k, config.rho, config.r, config.n_all, rng)
        adj = cs.sample_network(cs.mean_matrix(model), config.distribution, rng, zero_diagonal=config.zero_diagonal)
        for spec in config.methods:
            key = (config.seed, k, rep, zlib.crc32(spec.label.encode()))
            seed = int(np.random.SeedSequence(key).generate_state(1)[0])
            m_max = max(12, k + 4) if spec.selector == "svps" else k + 4
            yield f"panel-K{k}-rep{rep}-{spec.label}", adj, spec, config.distribution, m_max, seed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--root", type=Path, default=HERE, help="checkout to import commscale from")
    args = parser.parse_args(argv)
    cs = import_commscale(args.root.resolve())
    domain_errors = (cs.FitError, cs.ClusterError, cs.ScalingError)
    args.outdir.mkdir(parents=True, exist_ok=True)
    count = 0
    for runs in (lesmis_runs(cs), panel_runs(cs)):
        for name, adj, spec, law, m_max, seed in runs:
            try:
                text = cs.select(adj, spec, dist=law, m_max=m_max, seed=seed).to_csv()
            except domain_errors as exc:
                text = f"{type(exc).__name__}: {exc}\n"
            (args.outdir / f"{name}.csv").write_text(text, encoding="utf-8")
            count += 1
    print(f"wrote {count} traces to {args.outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
