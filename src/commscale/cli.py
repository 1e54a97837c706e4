"""Command line interface.

Exit codes: 0 on success, 1 on usage errors (bad flags, missing
required combinations), 2 on data or convergence errors. Stdout gets a
one-line human summary; machine-readable artifacts are written only to
``--out`` paths. Each ``cmd_*`` returns (artifact text, summary), and
``main`` alone writes the one and prints the other.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

import numpy as np

from . import bench as bench_mod
from .datasets import load_lesmis
from .fitting import FitError
from .model import EDGE_LAWS
from .network import binarize, load_edge_list, regularize
from .scaling import ScalingError, sinkhorn_symmetric
from .selection import MethodSpec, _cluster_and_fit, select
from .spectral import ClusterError

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions, not exits, and
    takes every negative float literal (-1e-3, -inf, -nan) as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern matches only -1 and -1.5 forms; the
        # subparsers are built with this class too
        self._negative_number_matcher = re.compile(
            r"^-(\d[\d_]*\.?[\d_]*|\.\d[\d_]*)(e[+-]?\d[\d_]*)?$|^-(inf|infinity|nan)$", re.IGNORECASE
        )

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _comma_list(convert):
    """An argparse type reading comma-separated values with convert; its
    name is what argparse's message calls a value it cannot read."""
    def parse(text: str) -> tuple:
        return tuple(convert(t) for t in text.split(","))
    parse.__name__ = f"comma-separated {convert.__name__}"
    return parse


def _add_network_flags(sub):
    """The flags of select and fit: the network, its preparation and its clustering."""
    sub.add_argument("--input", required=True, help="edge list file (u v w per line)")
    sub.add_argument("--indexing", type=int, choices=(0, 1), default=0,
                     help="node index base of the input file (default 0)")
    sub.add_argument("--tau", type=float, default=0.0,
                     help="regularization added to every entry (default 0)")
    sub.add_argument("--binarize", action="store_true",
                     help="replace positive weights with 1 before anything else")
    sub.add_argument("--cluster", choices=("score", "rsc"), default="score")
    sub.add_argument("--kmeans-restarts", type=int, default=50)


def _add_common_flags(sub, func, seeded):
    """--seed where the command reads it, --out and --quiet everywhere."""
    if seeded:
        sub.add_argument("--seed", type=int, default=None,
                         help="base seed (default $COMMSCALE_SEED or 0)")
    sub.add_argument("--out", help="write the machine-readable artifact here")
    sub.add_argument("--quiet", action="store_true", help="suppress the stdout summary")
    sub.set_defaults(func=func)


def build_parser() -> _Parser:
    parser = _Parser(prog="commscale", description=__doc__)
    subs = parser.add_subparsers(dest="command", parser_class=_Parser)

    sel = subs.add_parser("select", help="estimate the number of communities")
    _add_network_flags(sel)
    sel.add_argument("--method", choices=("svps", "cbic", "icl"), default="svps")
    sel.add_argument("--epsilon", type=float, default=0.05,
                     help="svps threshold is 2 + epsilon (default 0.05)")
    sel.add_argument("--kmax", type=int, default=None,
                     help="largest candidate m (default 12 for svps, 10 for cbic/icl)")
    sel.add_argument("--law", choices=tuple(EDGE_LAWS), default=None,
                     help="edge law: the svps variance (default poisson) and the cbic/icl likelihood "
                          "(required for those methods)")
    _add_common_flags(sel, cmd_select, seeded=True)

    fit = subs.add_parser("fit", help="fit one stepwise model and emit its parameters")
    _add_network_flags(fit)
    fit.add_argument("--m", type=int, required=True, help="number of groups to fit")
    _add_common_flags(fit, cmd_fit, seeded=True)

    scale = subs.add_parser("scale", help="doubly-stochastic scaling of a positive matrix")
    scale.add_argument("--input", required=True, help="square matrix as CSV")
    scale.add_argument("--tol", type=float, default=1e-10)
    scale.add_argument("--max-iter", type=int, default=10_000)
    _add_common_flags(scale, cmd_scale, seeded=False)

    sim = subs.add_parser("simulate", help="sample one network from the simulation model")
    sim.add_argument("--dist", choices=tuple(law for law in EDGE_LAWS if law != "bernoulli"),
                     default="poisson")
    sim.add_argument("--rho", type=float, required=True)
    sim.add_argument("--r", type=float, required=True)
    sim.add_argument("--k", type=int, required=True, help="number of communities")
    sim.add_argument("--n-all", type=_comma_list(int), default="50,100,150",
                     help="comma-separated block sizes; the first k are used")
    sim.add_argument("--replicate", type=int, default=0,
                     help="replicate index: bench run's network of that replicate at this k (default 0)")
    sim.add_argument("--zero-diagonal", action="store_true", help="zero self-loops after sampling")
    _add_common_flags(sim, cmd_simulate, seeded=True)

    ben = subs.add_parser("bench", help="accuracy experiments and the case study")
    ben_subs = ben.add_subparsers(dest="bench_command", parser_class=_Parser)

    run = ben_subs.add_parser("run", help="run a config file of Monte-Carlo replicates")
    run.add_argument("--config", required=True, help="experiment config (key = value lines)")
    run.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    _add_common_flags(run, cmd_bench_run, seeded=False)

    les = ben_subs.add_parser("lesmis", help="the full case-study grid on one network")
    les.add_argument("--input", default=None,
                     help="edge list (default: the packaged co-occurrence network)")
    les.add_argument("--indexing", type=int, choices=(0, 1), default=0)
    les.add_argument("--tau", type=_comma_list(float), default="0.05,0.1,0.25,0.5",
                     help="comma-separated regularization values")
    les.add_argument("--epsilon", type=float, default=0.05)
    _add_common_flags(les, cmd_bench_lesmis, seeded=True)

    return parser


def _validate(args) -> None:
    if getattr(args, "func", None) is None:
        raise UsageError("commscale: a subcommand is required (see --help)")
    command = " ".join(filter(None, (args.command, getattr(args, "bench_command", None))))
    if command == "select" and args.method in ("cbic", "icl") and args.law is None:
        raise UsageError(f"commscale select: --law is required for --method {args.method}")
    if "seed" in vars(args) and args.seed is None:
        env = os.environ.get("COMMSCALE_SEED") or "0"
        try:
            args.seed = int(env)
        except ValueError:
            args.seed = -1  # rejected just below, with the variable's text
        if args.seed < 0:
            raise UsageError(f"commscale {command}: COMMSCALE_SEED must be an integer >= 0, got {env!r}")
    # NaN fails every comparison, so "not > 0" rejects it too
    for flag in ("epsilon", "tol", "rho", "r"):
        value = getattr(args, flag, 1.0)
        if not value > 0:
            raise UsageError(f"commscale {command}: --{flag} must be positive")
        if flag in ("rho", "r") and value == np.inf:
            raise UsageError(f"commscale {command}: --{flag} must be finite")
    tau = getattr(args, "tau", 0.0)
    if not all(t >= 0 for t in (tau if command == "bench lesmis" else (tau,))):
        raise UsageError(f"commscale {command}: --tau must be >= 0")
    # integer flags and their least values; a command without the flag skips it
    for flag, least in (("seed", 0), ("replicate", 0), ("max_iter", 0), ("kmax", 1), ("m", 1), ("k", 1),
                        ("kmeans_restarts", 1), ("jobs", 1)):
        if getattr(args, flag, None) is not None and getattr(args, flag) < least:
            raise UsageError(f"commscale {command}: --{flag.replace('_', '-')} must be >= {least}")
    n_all = getattr(args, "n_all", None)
    if n_all is not None and min(n_all) < 1:
        raise UsageError(f"commscale {command}: --n-all sizes must be >= 1")
    if n_all is not None and args.k > len(n_all):
        raise UsageError(f"commscale {command}: --k must be <= {len(n_all)}, the number of --n-all sizes")


def _load_network(args):
    adj = load_edge_list(args.input, indexing=args.indexing)
    if args.binarize:
        adj = binarize(adj)
    if args.tau:
        adj = regularize(adj, args.tau)
    return adj


def cmd_select(args) -> tuple[str, str]:
    trace = select(
        _load_network(args),
        MethodSpec(args.method, args.cluster, epsilon=args.epsilon),
        dist=args.law,
        m_max=args.kmax,
        seed=args.seed,
        restarts=args.kmeans_restarts,
    )
    return trace.to_csv(), f"K_hat={trace.k_hat if trace.k_hat is not None else 'none'}"


def cmd_fit(args) -> tuple[str, str]:
    fitted = _cluster_and_fit(
        _load_network(args), args.m, args.cluster, args.seed, args.kmeans_restarts
    )
    lines = ["quantity,i,j,value"]
    for i, value in enumerate(fitted.theta):
        lines.append(f"theta,{i},,{float(value)!r}")
    for k in range(fitted.m):
        for l in range(fitted.m):
            lines.append(f"block_matrix,{k},{l},{float(fitted.block_matrix[k, l])!r}")
    for k, size in enumerate(fitted.assignment.sizes):
        lines.append(f"block_size,{k},,{size}")
    sizes = ",".join(str(s) for s in fitted.assignment.sizes)
    return "\n".join(lines) + "\n", f"m={fitted.m} sizes=({sizes})"


def cmd_scale(args) -> tuple[str, str]:
    matrix = np.loadtxt(args.input, delimiter=",", ndmin=2)
    result = sinkhorn_symmetric(matrix, tol=args.tol, max_iter=args.max_iter)
    lines = ["psi"] + [repr(float(p)) for p in result.psi]
    psi = ", ".join(f"{p:.5f}" for p in result.psi)
    summary = f"psi=({psi}) iterations={result.iterations} residual={result.residual:.3e}"
    return "\n".join(lines) + "\n", summary


def cmd_simulate(args) -> tuple[str, str]:
    adj = bench_mod._network(args.seed, args.k, args.replicate, args.rho, args.r, args.n_all, EDGE_LAWS[args.dist],
                             args.zero_diagonal)
    nonzero = int(np.count_nonzero(np.triu(adj.weights)))
    return adj.to_edge_list(), f"n={adj.n} k={args.k} nonzero_pairs={nonzero}"


def cmd_bench_run(args) -> tuple[str, str]:
    config = bench_mod.parse_config(args.config)
    table = bench_mod.run_experiment(config, jobs=args.jobs)
    return table.to_csv(), f"rows={len(table.rows)} replicates={config.replicates}"


def cmd_bench_lesmis(args) -> tuple[str, str]:
    if args.input is None:
        adj = load_lesmis()
    else:
        adj = load_edge_list(args.input, indexing=args.indexing)
    table = bench_mod.run_lesmis(adj, tau_list=args.tau, seed=args.seed, epsilon=args.epsilon)
    return table.to_csv(), f"cells={len(table.rows)}"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _validate(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        artifact, summary = args.func(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as stream:
                stream.write(artifact)
    except (FitError, ClusterError, ScalingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
