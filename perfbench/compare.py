"""Summarise benchmark result sets, or compare the sets of two commits.

Usage:
    python3 perfbench/compare.py out/base.jsonl              # one set
    python3 perfbench/compare.py out/base.jsonl out/new.jsonl

The inputs are JSON-lines files written by run.py --out (suite.py
writes them). With two sets, runs pair up by workload and seed; for
each workload and end-to-end metric the table gives each side's median
and quartiles, the share of pairs each side won, and a verdict:

  unresolved  a side's quartile spread exceeds the metric's bound, and
              not every run of one side beats every run of the other
  worse       the second median is worse by more than the bound
  better      the second side won at least 9/10 of the pairs and the
              medians differ by more than the first side's quartile spread
  same        none of these

Bounds and directions come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
P90_MIN_SAMPLES = 100  # so that at least ten samples lie beyond the 90th percentile


def load(path) -> dict:
    """{(workload, trace): {seed: record}}; a later record for a seed replaces an earlier one."""
    runs = defaultdict(dict)
    with open(path, encoding="utf-8") as source:
        for line in source:
            if line.strip():
                rec = json.loads(line)
                runs[(rec["workload"], rec["trace"])][rec["seed"]] = rec
    return runs


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[-1]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values) -> float | None:
    """Quartile distance as a share of the median; None when the median is 0."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else None


def _metric_values(records, name):
    return [rec["metrics"][name]["value"] for rec in records if name in rec["metrics"]]


def _stats(values) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": spread(values)}


def summary(runs) -> dict:
    """Per workload and mode: each metric's median, quartiles and spread, plus the printed extras."""
    out = {}
    for (workload, trace), by_seed in sorted(runs.items()):
        records = [by_seed[s] for s in sorted(by_seed)]
        entry = {
            "runs": len(records),
            "seeds": sorted(by_seed),
            "metrics": {name: {**_stats(_metric_values(records, name)), "unit": unit}
                        for name, unit in _units(records).items()},
            "checksums": {str(s): by_seed[s]["checksum"] for s in sorted(by_seed)},
            "failed": sum(rec["failed"] for rec in records),
            "attempted": sum(rec["attempted"] for rec in records),
        }
        if trace:
            numeric = [k for k, v in records[0]["report"].items() if isinstance(v, float)]
            entry["report"] = {k: statistics.median(rec["report"][k] for rec in records) for k in numeric}
            entry["report"]["shares"] = records[0]["report"]["shares"]
        else:
            times = [t for rec in records for t in rec["selection_times"]]
            entry["select_s_p50_per_run"] = _stats([rec["report"]["select_s_p50"] for rec in records])
            entry["pooled_selections"] = len(times)
            entry["pooled_select_s_p50"] = statistics.median(times)
            entry["pooled_select_s_p90"] = p90(times) if len(times) >= P90_MIN_SAMPLES else None
            accuracy = [rec["report"]["khat_accuracy"] for rec in records if "khat_accuracy" in rec["report"]]
            if accuracy:
                entry["khat_accuracy"] = statistics.mean(accuracy)
        out.setdefault(workload, {})["traced" if trace else "untraced"] = entry
    return out


def format_summary(doc, specs) -> list[str]:
    lines = []
    for workload, modes in doc.items():
        for mode, entry in modes.items():
            lines.append(f"{workload} ({mode}, {entry['runs']} runs, seeds {entry['seeds']})")
            for name, m in entry["metrics"].items():
                bound = specs.get(name, {}).get("bound")
                over = bound is not None and m["spread"] is not None and m["spread"] > bound
                within = "" if bound is None else f"  bound {bound:g}{' EXCEEDED' if over else ''}"
                spread_text = "-" if m["spread"] is None else f"{m['spread']:.3f}"
                lines.append(f"  {name:30s} median {m['median']:.6g} {m['unit']}  quartiles [{m['q1']:.6g}, "
                             f"{m['q3']:.6g}]  spread {spread_text}{within}")
            if mode == "untraced":
                p50 = entry["select_s_p50_per_run"]
                lines.append(f"  {'select_s_p50':30s} median {p50['median']:.6g} s  quartiles [{p50['q1']:.6g}, "
                             f"{p50['q3']:.6g}]  spread {p50['spread']:.3f} (not gated)")
                pooled = f"  pooled select_s_p50 {entry['pooled_select_s_p50']:.6g} s over {entry['pooled_selections']} selections"
                if entry["pooled_select_s_p90"] is not None:
                    pooled += f"; select_s_p90 {entry['pooled_select_s_p90']:.6g} s"
                lines.append(pooled)
                lines.append(f"  error_frac {entry['failed'] / entry['attempted']:.6g} ({entry['failed']}/{entry['attempted']})")
                if "khat_accuracy" in entry:
                    lines.append(f"  khat_accuracy {entry['khat_accuracy']:.6g} (mean over runs)")
            else:
                for name, value in entry["report"].items():
                    if name != "shares":
                        lines.append(f"  {name:30s} median {value:.6g}")
            lines.append("  checksums " + " ".join(f"{s}:{c}" for s, c in entry["checksums"].items()))
    return lines


def _units(records) -> dict:
    units = {}
    for rec in records:
        for name, metric in rec["metrics"].items():
            units.setdefault(name, metric["unit"])
    return units


def verdict(a, b, better: str, bound: float | None) -> tuple[str, float, float]:
    """(verdict, share of pairs the first side won, share the second won)."""
    sign = 1.0 if better == "higher" else -1.0
    wins_a = sum(sign * (x - y) > 0 for x, y in zip(a, b)) / len(a)
    wins_b = sum(sign * (y - x) > 0 for x, y in zip(a, b)) / len(a)
    if bound is None:
        return "-", wins_a, wins_b
    _, med_a, _ = quartiles(a)
    _, med_b, _ = quartiles(b)
    separated = min(sign * y for y in b) > max(sign * x for x in a) or max(sign * y for y in b) < min(sign * x for x in a)
    spreads = [x for x in (spread(a), spread(b)) if x is not None]
    if spreads and max(spreads) > bound and not separated:
        return "unresolved", wins_a, wins_b
    if sign * (med_a - med_b) > bound * abs(med_a):
        return "worse", wins_a, wins_b
    q1, _, q3 = quartiles(a)
    if wins_b >= 0.9 and abs(med_b - med_a) > q3 - q1:
        return "better", wins_a, wins_b
    return "same", wins_a, wins_b


def compare(runs_a, runs_b, specs) -> list[str]:
    lines = []
    for key in sorted(set(runs_a) & set(runs_b)):
        seeds = sorted(set(runs_a[key]) & set(runs_b[key]))
        if not seeds:
            continue
        workload, trace = key
        ra = [runs_a[key][s] for s in seeds]
        rb = [runs_b[key][s] for s in seeds]
        lines.append(f"{workload} ({'traced' if trace else 'untraced'}, {len(seeds)} pairs)")
        for name, unit in _units(ra).items():
            a, b = _metric_values(ra, name), _metric_values(rb, name)
            if len(a) != len(b) or not a:
                continue
            spec = specs.get(name, {})
            word, wins_a, wins_b = verdict(a, b, spec.get("better", "lower"), spec.get("bound"))
            qa, qb = quartiles(a), quartiles(b)
            lines.append(
                f"  {name:30s} A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {unit}"
                f"  won A {wins_a:.0%} B {wins_b:.0%}  {word}"
            )
        if not trace:
            a, b = ([rec["report"]["select_s_p50"] for rec in side] for side in (ra, rb))
            _, wins_a, wins_b = verdict(a, b, "lower", None)
            qa, qb = quartiles(a), quartiles(b)
            lines.append(
                f"  {'select_s_p50 (not gated)':30s} A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  B {qb[1]:.6g} "
                f"[{qb[0]:.6g}, {qb[2]:.6g}] s  won A {wins_a:.0%} B {wins_b:.0%}"
            )
        differ = [s for s in seeds if runs_a[key][s]["checksum"] != runs_b[key][s]["checksum"]]
        lines.append("  checksums " + ("match" if not differ else f"DIFFER for seeds {differ}"))
        failed = [sum(r["failed"] for r in side) for side in (ra, rb)]
        lines.append(f"  failed selections A {failed[0]} B {failed[1]}")
    return lines


def metric_specs() -> dict:
    doc = json.loads(BENCHMARK.read_text())
    return {m["name"]: m for m in doc["end_to_end"] + doc["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("results", nargs="+", type=Path, help="one or two JSON-lines result files")
    parser.add_argument("--json", action="store_true", help="print one set's summary as JSON")
    args = parser.parse_args(argv)
    if len(args.results) > 2:
        parser.error("give one result set to summarise or two to compare")
    specs = metric_specs()
    runs = [load(path) for path in args.results]
    if args.json and len(runs) == 1:
        first = next(iter(next(iter(runs[0].values())).values()))
        print(json.dumps({"env": first["env"], "workloads": summary(runs[0])}, indent=1))
    elif len(runs) == 1:
        print("\n".join(format_summary(summary(runs[0]), specs)))
    else:
        print("\n".join(compare(runs[0], runs[1], specs)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
