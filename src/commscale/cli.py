"""Command line interface.

Exit codes: 0 on success, 1 on usage errors (bad flags, missing
required combinations), 2 on data or convergence errors. Stdout gets a
one-line human summary; machine-readable artifacts are written only to
``--out`` paths.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import bench as bench_mod
from .datasets import load_lesmis
from .fitting import FitError
from .model import EDGE_LAWS, VarianceFunction, make_rng, mean_matrix, sample_network, simulation_params
from .network import EdgeListError, binarize, load_edge_list, open_text, regularize, write_edge_list
from .scaling import ScalingError, sinkhorn_symmetric
from .selection import MethodSpec, _cluster_and_fit, select
from .spectral import ClusterError

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions, not exits."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(t) for t in text.split(","))


def _add_io_flags(sub, input_required=True):
    sub.add_argument("--input", required=input_required, help="edge list file (u v w per line)")
    sub.add_argument("--indexing", type=int, choices=(0, 1), default=0,
                     help="node index base of the input file (default 0)")
    sub.add_argument("--tau", type=float, default=0.0,
                     help="regularization added to every entry (default 0)")


def _add_common_flags(sub):
    sub.add_argument("--seed", type=int, default=None,
                     help="base seed (default $COMMSCALE_SEED or 0)")
    sub.add_argument("--out", help="write the machine-readable artifact here")
    sub.add_argument("--quiet", action="store_true", help="suppress the stdout summary")


def build_parser() -> _Parser:
    parser = _Parser(prog="commscale", description=__doc__)
    subs = parser.add_subparsers(dest="command", parser_class=_Parser)

    sel = subs.add_parser("select", help="estimate the number of communities")
    _add_io_flags(sel)
    sel.add_argument("--method", choices=("svps", "cbic", "icl"), default="svps")
    sel.add_argument("--epsilon", type=float, default=0.05,
                     help="svps threshold is 2 + epsilon (default 0.05)")
    sel.add_argument("--kmax", type=int, default=None,
                     help="largest candidate m (default 12 for svps, 10 for cbic/icl)")
    sel.add_argument("--cluster", choices=("score", "rsc"), default="score")
    sel.add_argument("--variance", choices=("identity", "bernoulli"), default="identity",
                     help="variance function for the svps profile (default identity)")
    sel.add_argument("--likelihood", choices=tuple(EDGE_LAWS), default=None,
                     help="edge law for cbic/icl (required for those methods)")
    sel.add_argument("--binarize", action="store_true",
                     help="replace positive weights with 1 before anything else")
    sel.add_argument("--kmeans-restarts", type=int, default=50)
    _add_common_flags(sel)
    sel.set_defaults(func=cmd_select)

    fit = subs.add_parser("fit", help="fit one stepwise model and emit its parameters")
    _add_io_flags(fit)
    fit.add_argument("--m", type=int, required=True, help="number of groups to fit")
    fit.add_argument("--cluster", choices=("score", "rsc"), default="score")
    fit.add_argument("--binarize", action="store_true")
    fit.add_argument("--kmeans-restarts", type=int, default=50)
    _add_common_flags(fit)
    fit.set_defaults(func=cmd_fit)

    scale = subs.add_parser("scale", help="doubly-stochastic scaling of a positive matrix")
    scale.add_argument("--input", required=True, help="square matrix as CSV")
    scale.add_argument("--tol", type=float, default=1e-10)
    scale.add_argument("--max-iter", type=int, default=10_000)
    _add_common_flags(scale)
    scale.set_defaults(func=cmd_scale)

    sim = subs.add_parser("simulate", help="sample one network from the simulation model")
    sim.add_argument("--dist", choices=tuple(law for law in EDGE_LAWS if law != "bernoulli"),
                     default="poisson")
    sim.add_argument("--rho", type=float, required=True)
    sim.add_argument("--r", type=float, required=True)
    sim.add_argument("--k", type=int, required=True, help="number of communities")
    sim.add_argument("--n-all", default="50,100,150",
                     help="comma-separated block sizes; the first k are used")
    sim.add_argument("--replicate", type=int, default=0,
                     help="replicate index folded into the stream seed (default 0)")
    sim.add_argument("--zero-diagonal", action="store_true", help="zero self-loops after sampling")
    _add_common_flags(sim)
    sim.set_defaults(func=cmd_simulate)

    ben = subs.add_parser("bench", help="accuracy experiments and the case study")
    ben_subs = ben.add_subparsers(dest="bench_command", parser_class=_Parser)

    run = ben_subs.add_parser("run", help="run a config file of Monte-Carlo replicates")
    run.add_argument("--config", required=True, help="experiment config (key = value lines)")
    run.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    _add_common_flags(run)
    run.set_defaults(func=cmd_bench_run)

    les = ben_subs.add_parser("lesmis", help="the full case-study grid on one network")
    les.add_argument("--input", default=None,
                     help="edge list (default: the packaged co-occurrence network)")
    les.add_argument("--indexing", type=int, choices=(0, 1), default=0)
    les.add_argument("--tau", type=_floats, default="0.05,0.1,0.25,0.5",
                     help="comma-separated regularization values")
    les.add_argument("--epsilon", type=float, default=0.05)
    _add_common_flags(les)
    les.set_defaults(func=cmd_bench_lesmis)

    return parser


def _validate(args) -> None:
    if getattr(args, "func", None) is None:
        raise UsageError("commscale: a subcommand is required (see --help)")
    command = " ".join(filter(None, (args.command, getattr(args, "bench_command", None))))
    if command == "select" and args.method in ("cbic", "icl") and args.likelihood is None:
        raise UsageError(f"commscale select: --likelihood is required for --method {args.method}")
    if args.seed is None and command in ("select", "fit", "simulate", "bench lesmis"):
        env = os.environ.get("COMMSCALE_SEED") or "0"
        try:
            args.seed = int(env)
        except ValueError:
            args.seed = -1  # rejected just below, with the variable's text
        if args.seed < 0:
            raise UsageError(f"commscale {command}: COMMSCALE_SEED must be an integer >= 0, got {env!r}")
    # NaN fails every comparison, so "not > 0" rejects it too
    for flag in ("epsilon", "tol", "rho", "r"):
        if not getattr(args, flag, 1.0) > 0:
            raise UsageError(f"commscale {command}: --{flag} must be positive")
    tau = getattr(args, "tau", 0.0)
    if not all(t >= 0 for t in (tau if command == "bench lesmis" else (tau,))):
        raise UsageError(f"commscale {command}: --tau must be >= 0")
    # integer flags and their least values; a command without the flag skips it
    for flag, least in (("seed", 0), ("replicate", 0), ("max_iter", 0), ("kmax", 1), ("m", 1), ("k", 1),
                        ("kmeans_restarts", 1), ("jobs", 1)):
        if getattr(args, flag, None) is not None and getattr(args, flag) < least:
            raise UsageError(f"commscale {command}: --{flag.replace('_', '-')} must be >= {least}")


def _load_network(args):
    adj = load_edge_list(args.input, indexing=args.indexing)
    if getattr(args, "binarize", False):
        adj = binarize(adj)
    if getattr(args, "tau", 0.0):
        adj = regularize(adj, args.tau)
    return adj


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _write_text(path: str, text: str) -> None:
    with open_text(path, "w") as stream:
        stream.write(text)


def cmd_select(args) -> int:
    trace = select(
        _load_network(args),
        MethodSpec(args.method, args.cluster, epsilon=args.epsilon),
        dist=args.likelihood,
        variance_fn=VarianceFunction(args.variance),
        m_max=args.kmax,
        seed=args.seed,
        restarts=args.kmeans_restarts,
    )
    if args.out:
        _write_text(args.out, trace.to_csv())
    _say(args, f"K_hat={trace.k_hat if trace.k_hat is not None else 'none'}")
    return 0


def cmd_fit(args) -> int:
    fitted = _cluster_and_fit(
        _load_network(args), args.m, args.cluster, args.seed, args.kmeans_restarts
    )
    if args.out:
        lines = ["quantity,i,j,value"]
        for i, value in enumerate(fitted.theta):
            lines.append(f"theta,{i},,{float(value)!r}")
        for k in range(fitted.m):
            for l in range(fitted.m):
                lines.append(f"block_matrix,{k},{l},{float(fitted.block_matrix[k, l])!r}")
        for k, size in enumerate(fitted.assignment.sizes):
            lines.append(f"block_size,{k},,{size}")
        _write_text(args.out, "\n".join(lines) + "\n")
    sizes = ",".join(str(s) for s in fitted.assignment.sizes)
    _say(args, f"m={fitted.m} sizes=({sizes})")
    return 0


def cmd_scale(args) -> int:
    matrix = np.loadtxt(args.input, delimiter=",", ndmin=2)
    result = sinkhorn_symmetric(matrix, tol=args.tol, max_iter=args.max_iter)
    if args.out:
        lines = ["psi"] + [repr(float(p)) for p in result.psi]
        _write_text(args.out, "\n".join(lines) + "\n")
    psi = ", ".join(f"{p:.5f}" for p in result.psi)
    _say(args, f"psi=({psi}) iterations={result.iterations} residual={result.residual:.3e}")
    return 0


def cmd_simulate(args) -> int:
    n_all = tuple(int(t) for t in args.n_all.split(","))
    rng = make_rng(np.random.SeedSequence((args.seed, args.k, args.replicate)))
    model = simulation_params(args.k, args.rho, args.r, n_all, rng)
    adj = sample_network(mean_matrix(model), EDGE_LAWS[args.dist], rng,
                         zero_diagonal=args.zero_diagonal)
    if args.out:
        write_edge_list(adj, args.out)
    nonzero = int(np.count_nonzero(np.triu(adj.weights)))
    _say(args, f"n={adj.n} k={args.k} nonzero_pairs={nonzero}")
    return 0


def cmd_bench_run(args) -> int:
    config = bench_mod.parse_config(args.config)
    table = bench_mod.run_experiment(config, jobs=args.jobs)
    if args.out:
        bench_mod.emit_csv(table, args.out)
    _say(args, f"rows={len(table.rows)} replicates={config.replicates}")
    return 0


def cmd_bench_lesmis(args) -> int:
    if args.input is None:
        adj = load_lesmis()
    else:
        adj = load_edge_list(args.input, indexing=args.indexing)
    table = bench_mod.run_lesmis(adj, tau_list=args.tau, seed=args.seed, epsilon=args.epsilon)
    if args.out:
        bench_mod.emit_csv(table, args.out)
    _say(args, f"cells={len(table.rows)}")
    return 0


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
        return args.func(args)
    except (EdgeListError, FitError, ClusterError, ScalingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
