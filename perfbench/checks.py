"""Output checks for selections: reference values, self-consistency, checksums.

An output is {"k_hat", "threshold", "steps"} with steps as [m, value,
status] and value None where the selector recorded a non-finite value.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
# Step values may drift by this share of max(1, |reference|); k_hat must match exactly.
REL_TOL = 1e-8


def output_of(trace) -> dict:
    return {
        "k_hat": trace.k_hat,
        "threshold": trace.threshold,
        "steps": [[s.m, s.value if math.isfinite(s.value) else None, s.status] for s in trace.steps],
    }


def _argmax_smallest_m(pairs):
    best = None
    for m, value in sorted(pairs):
        if best is None or value > best[1]:
            best = (m, value)
    return None if best is None else best[0]


def self_check(task, out: dict) -> str | None:
    """Why the output contradicts its own steps, or None when it is consistent."""
    ms = [s[0] for s in out["steps"]]
    ok = [(m, v) for m, v, status in out["steps"] if status == "ok"]
    if any(v is None for _, v in ok):
        return "an ok step has a non-finite value"
    if task.method == "svps":
        if ms != list(task.m_range[: len(ms)]):
            return f"svps steps {ms} are not a prefix of m = {task.m_range[0]}..{task.m_range[-1]}"
        below = [m for m, v in ok if v < out["threshold"]]
        if below and below[0] != ms[-1]:
            return f"svps went on after m={below[0]} fell below the threshold"
        if not below and len(ms) != len(task.m_range):
            return "svps stopped before m_max without crossing the threshold"
        expect = below[0] if below else None
    else:
        if ms != list(task.m_range):
            return f"{task.method} steps {ms} differ from m_range {list(task.m_range)}"
        expect = _argmax_smallest_m(ok)
    if out["k_hat"] != expect:
        return f"k_hat={out['k_hat']} but the ok steps give {expect}"
    return None


def reference_check(ref: dict, out: dict) -> str | None:
    """Why the output differs from the recorded one, or None when it matches."""
    if ref["k_hat"] != out["k_hat"]:
        return f"k_hat={out['k_hat']}, reference {ref['k_hat']}"
    if len(ref["steps"]) != len(out["steps"]):
        return f"{len(out['steps'])} steps, reference {len(ref['steps'])}"
    for (m, v, status), (rm, rv, rstatus) in zip(out["steps"], ref["steps"]):
        if (m, status) != (rm, rstatus):
            return f"step m={m} {status}, reference m={rm} {rstatus}"
        if (v is None) != (rv is None) or (v is not None and abs(v - rv) > REL_TOL * max(1.0, abs(rv))):
            return f"step m={m} value {v!r}, reference {rv!r}"
    return None


def load_reference(workload_name: str, spec: dict, seed: int) -> list | None:
    """Recorded passes for this workload and seed, or None if there are none."""
    if not REFERENCE_PATH.is_file():
        return None
    entry = json.loads(REFERENCE_PATH.read_text()).get(workload_name)
    if entry is None or entry["seed"] != seed or entry["spec"] != json.loads(json.dumps(spec)):
        return None
    return entry["passes"]


def checksum(records) -> str:
    """Digest of labels, k_hat and step values to 9 significant digits."""
    rows = []
    for label, out in records:
        if out is None:
            rows.append([label, "error"])
            continue
        steps = [[m, None if v is None else f"{v:.9g}", status] for m, v, status in out["steps"]]
        rows.append([label, out["k_hat"], steps])
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
