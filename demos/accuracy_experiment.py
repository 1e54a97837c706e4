"""Run one of the shipped accuracy experiments and print the table.

Every config under configs/ describes one panel of the simulation
study: a weight distribution, a (rho, r) pair, the K values to sweep,
and the selector/clusterer combinations to compare. The full 100
replicates take a while for the large-K settings, so this demo trims
the replicate count by default; pass --replicates 100 to reproduce a
panel exactly.
"""

import argparse
import dataclasses
import sys

from commscale import parse_config, run_experiment

DEFAULT_CONFIG = "configs/sim1_rho012.cfg"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=DEFAULT_CONFIG)
    parser.add_argument("--replicates", type=int, default=20)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)

    config = parse_config(args.config)
    if args.replicates != config.replicates:
        config = dataclasses.replace(config, replicates=args.replicates)
    print(f"config {args.config}: {config.distribution.kind}, "
          f"rho={config.rho:g}, r={config.r:g}, K in {list(config.k_list)}, "
          f"{config.replicates} replicates, {len(config.methods)} methods",
          file=sys.stderr)

    table = run_experiment(config, jobs=args.jobs)
    sys.stdout.write(table.to_csv())


if __name__ == "__main__":
    main()
