"""Run one commscale benchmark workload and print its metrics.

Usage:
    python3 perfbench/run.py --workload lesmis-grid --seed 1 --seconds 25 --trace 0

The last line of standard output is a JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The lines before it
print every metric with its unit, the environment and the output
checksum. --out appends the full record to a JSON-lines file.
"""

import argparse
import json
import sys
from pathlib import Path

import benchenv

DEFAULT_SEED = 0  # the seed reference.json is recorded for
OUT_DIR = Path(__file__).resolve().parent / "out"


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(result: dict, env: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  seconds {result['seconds']:g}  "
          f"trace {int(result['trace'])}  passes {result['passes']}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"  {name:30s} {_fmt(metric['value']):>14s} {metric['unit']}")
    report = result["report"]
    if result["trace"]:
        from harness import WORKLOAD_LAYER

        for name, unit in WORKLOAD_LAYER.items():
            print(f"  {name:30s} {_fmt(report[name]):>14s} {unit}")
        print("  time share of selection spans: " + ", ".join(
            f"{name} {share:.1%}" for name, share in report["shares"].items()))
        if report["not_traced"]:
            print("  not traced: " + ", ".join(report["not_traced"]))
    else:
        n = result["attempted"]
        p90 = report["select_s_p90"]
        print(f"  {'select_s_p50':30s} {_fmt(report['select_s_p50']):>14s} s ({n} selections)")
        if p90 is None:
            print(f"  {'select_s_p90':30s} {'omitted':>14s} (needs >= 100 selections, run has {n})")
        else:
            print(f"  {'select_s_p90':30s} {_fmt(p90):>14s} s")
        print(f"  {'error_frac':30s} {_fmt(report['error_frac']):>14s} ratio ({result['failed']}/{n})")
        if "khat_accuracy" in report:
            print(f"  {'khat_accuracy':30s} {_fmt(report['khat_accuracy']):>14s} ratio")
        else:
            print(f"  {'khat_accuracy':30s} {'omitted':>14s} (no true K on this workload)")
    print(f"checksum {result['checksum']} over {result['checksum_selections']} pass-0 selections; "
          f"reference-checked {result['reference_checked']}/{result['attempted']} selections, "
          "self-consistency checked for all")
    for line in result["failures"]:
        print("FAILED " + line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the full result record to this JSON-lines file")
    args = parser.parse_args(argv)
    benchenv.pin_threads()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        benchenv.import_commscale()
    except benchenv.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from harness import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    spans = None
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), spans_path=spans)
    env = benchenv.environment(args.seed)
    print_report(result, env)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with args.out.open("a", encoding="utf-8") as sink:
            sink.write(json.dumps({**result, "env": env}) + "\n")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
