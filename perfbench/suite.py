"""Run every workload of BENCHMARK.json over several seeds and print every metric.

Usage:
    python3 perfbench/suite.py --label base --seeds 1-10
    python3 perfbench/suite.py --label pr --seeds 11-20 --roots ../parent .

Each run is one process of run.py, for BENCHMARK.json's run_seconds;
records are appended to perfbench/out/<label>.jsonl (one root) or
<label>-A.jsonl and <label>-B.jsonl (two roots). With two roots, the roots are checkouts of
two commits that hold the same perfbench/ directory; the side that runs
first alternates from seed to seed, and the two sets are compared at
the end with compare.py's rules.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"), help="e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--roots", nargs="+", type=Path, default=[HERE.parent])
    args = parser.parse_args(argv)
    if len(args.roots) > 2:
        parser.error("give one root, or two to compare")

    outs = [HERE / "out" / f"{args.label}.jsonl"] if len(args.roots) == 1 else [
        HERE / "out" / f"{args.label}-{side}.jsonl" for side in "AB"
    ]
    outs[0].parent.mkdir(exist_ok=True)
    sides = list(zip(args.roots, outs))
    benchmark = json.loads(compare.BENCHMARK.read_text())
    for i, seed in enumerate(args.seeds):
        for workload in (w["name"] for w in benchmark["workloads"]):
            for root, out in sides if i % 2 == 0 else sides[::-1]:
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                       "--seconds", str(benchmark["run_seconds"]), "--trace", str(args.trace), "--out", str(out.resolve())]
                done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
                last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
                print(f"{root} {workload} seed {seed}: exit {done.returncode} {last}", flush=True)
                if done.returncode != 0:
                    print(done.stderr, file=sys.stderr)
                    return 1
    specs = compare.metric_specs()
    runs = [compare.load(out) for out in outs]
    if len(runs) == 1:
        lines = compare.format_summary(compare.summary(runs[0]), specs)
    else:
        lines = compare.compare(runs[0], runs[1], specs)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
