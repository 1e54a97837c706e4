"""One benchmark run: set-up timing, timed passes, output checks and metrics.

Import only after benchenv.import_commscale().
"""

from __future__ import annotations

import dataclasses
import json
import math
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import commscale as cs

from checks import checksum, load_reference, output_of, reference_check, self_check
from compare import P90_MIN_SAMPLES, p90
from tracer import ROOT_SPAN, Tracer
from workloads import SimPanel, Task, to_spec

HERE = Path(__file__).resolve().parent
PROBE = HERE / "setup_probe.py"
# fresh-process set-up probes per untraced run, spread evenly over its measured time
SETUP_PROBES = 5
# run_experiment in the traced run: one replicate of the panel with two of
# its six methods, which keeps a traced sim-panel run under two minutes
EXPERIMENT_PANEL = SimPanel(methods=(("svps", "score"), ("cbic", "score")))

END_TO_END = {
    "setup_s": "s",
    "selections_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "spectral.eig_s": "s",
    "spectral.eig_calls": "count",
    "spectral.eig_n3": "count",
    "spectral.eig_distinct_ratio": "ratio",
    "spectral.kmeans_s": "s",
    "spectral.kmeans_calls": "count",
    "spectral.cluster_self_s": "s",
    "fitting.fit_s": "s",
    "fitting.fit_calls": "count",
    "fitting.fit_bytes": "B",
    "scaling.sinkhorn_s": "s",
    "scaling.sinkhorn_calls": "count",
    "scaling.sinkhorn_iters": "count",
    "scaling.scaled_matrix_s": "s",
    "selection.statistic_self_s": "s",
    "selection.loglik_calls": "count",
    "selection.steps": "count",
    "selection.failed_steps": "count",
    "selection.self_s": "s",
    "bench.experiment_s_jobs1": "s",
    "bench.experiment_s_jobs2": "s",
    "bench.parallel_efficiency": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}
# Layer times that are zero on some workload by construction; printed, not gated.
WORKLOAD_LAYER = {
    "selection.loglik_s": "s",
    "model.sample_s": "s",
    "network.load_s": "s",
    "network.transform_s": "s",
}


@dataclass
class Selection:
    task: Task
    rep: int
    pos: int  # index within its pass
    seconds: float
    out: dict | None
    error: str | None


def setup_seconds(workload, seed: int) -> float:
    """One fresh-process set-up time: import commscale and build pass 0's inputs."""
    done = subprocess.run(
        [sys.executable, str(PROBE), json.dumps(to_spec(workload)), str(seed)],
        capture_output=True, text=True, timeout=170, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-2000:]}")
    return float(done.stdout.split()[-1])


def run_pass(tasks, rep: int, tracer: Tracer | None = None, first: int = 0):
    """Run one pass of selections; returns its records and wall time."""
    records = []
    begin = perf_counter()
    for pos, task in enumerate(tasks):
        adj = task.prepare()
        with tracer.selection(first + pos) if tracer else nullcontext():
            start = perf_counter()
            try:
                trace, error = task.select(adj), None
            except Exception as exc:  # a selection that raises is a failed operation, and the run goes on
                trace, error = None, f"{type(exc).__name__}: {exc}"
            seconds = perf_counter() - start
        # keep no reference to the input network, so finished passes free their memory
        bare = dataclasses.replace(task, prepare=None, select=None)
        records.append(Selection(bare, rep, pos, seconds, None if trace is None else output_of(trace), error))
    return records, perf_counter() - begin


def reference_covers(rec: Selection, reference) -> bool:
    return reference is not None and rec.rep < len(reference)


def failure(rec: Selection, reference) -> str | None:
    if rec.error is not None:
        return rec.error
    reason = self_check(rec.task, rec.out)
    if reason is None and reference_covers(rec, reference):
        ref = reference[rec.rep][rec.pos]
        reason = f"reference is for {ref['label']}" if ref["label"] != rec.task.label else reference_check(ref, rec.out)
    return reason


def _passes(seconds, body, between=None):
    """Call body(rep) for whole passes, at least one, and stop at the pass
    boundary nearest to `seconds` of measured time.

    between(measured) runs before each pass with the seconds measured so
    far, and once after the last pass with math.inf; its time is not measured.
    """
    measured, rep = 0.0, 0
    while rep == 0 or measured + measured / rep / 2 < seconds:
        if between is not None:
            between(measured)
        start = perf_counter()
        body(rep)
        measured += perf_counter() - start
        rep += 1
    if between is not None:
        between(math.inf)
    return rep


def measure(workload, seed: int, seconds: float, trace: bool = False, reference=None, spans_path=None) -> dict:
    """Run one workload and return the result record.

    reference: recorded passes to compare against; by default the ones in
    reference.json when they were recorded for this workload and seed.
    """
    if reference is None:
        reference = load_reference(workload.name, to_spec(workload), seed)
    if trace:
        return _measure_traced(workload, seed, seconds, reference, spans_path)
    state = workload.setup(seed)
    records = []
    pass_seconds = []
    setup = []

    def probe(measured):
        # spread through the run, the probes see the same drift of the machine's speed as the passes
        while len(setup) < SETUP_PROBES and measured >= len(setup) * seconds / SETUP_PROBES:
            setup.append(setup_seconds(workload, seed))

    def body(rep):
        tasks = workload.tasks(seed, rep, workload.networks(seed, rep, state))
        recs, wall = run_pass(tasks, rep)
        records.extend(recs)
        pass_seconds.append(wall)

    passes = _passes(seconds, body, probe)
    reasons = [failure(rec, reference) for rec in records]
    times = [rec.seconds for rec in records]
    metrics = {
        "setup_s": statistics.median(setup),
        "selections_per_s": len(records) / sum(pass_seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = {
        "select_s_p50": statistics.median(times),
        "select_s_p90": p90(times) if len(times) >= P90_MIN_SAMPLES else None,
        "error_frac": sum(r is not None for r in reasons) / len(records),
    }
    if any(rec.task.true_k is not None for rec in records):
        hits = sum(rec.out is not None and rec.out["k_hat"] == rec.task.true_k for rec in records)
        report["khat_accuracy"] = hits / len(records)
    extra = {"setup_samples": setup, "pass_seconds": pass_seconds, "selection_times": times}
    return _result(workload, seed, seconds, False, records, reasons, reference, passes,
                   _with_units(metrics, END_TO_END), report, extra)


def _measure_traced(workload, seed, seconds, reference, spans_path):
    """Each pass runs untraced and traced on the same inputs; outputs must agree."""
    tracer = Tracer(cs)
    with tracer.installed():
        state = workload.setup(seed)
    traced, reasons = [], []
    walls = {False: 0.0, True: 0.0}  # by traced

    def body(rep):
        tracer.new_pass()
        with tracer.installed():
            nets = workload.networks(seed, rep, state)
        tasks = workload.tasks(seed, rep, nets)
        # alternate which runs first, so that the order does not bias trace.overhead
        for traced_pass in (False, True) if rep % 2 == 0 else (True, False):
            if traced_pass:
                with tracer.installed():
                    recs, wall = run_pass(tasks, rep, tracer, first=len(traced))
            else:
                plain, wall = run_pass(tasks, rep)
            walls[traced_pass] += wall
        for a, b in zip(plain, recs):
            reason = failure(b, reference)
            if reason is None and (a.out != b.out or a.error != b.error):
                reason = "traced output differs from the untraced one"
            reasons.append(reason)
        traced.extend(recs)

    passes = _passes(seconds, body)
    config = EXPERIMENT_PANEL.experiment_config(seed)
    start = perf_counter()
    cs.run_experiment(config, jobs=1)
    jobs1 = perf_counter() - start
    start = perf_counter()
    cs.run_experiment(config, jobs=2)
    jobs2 = perf_counter() - start
    if spans_path is not None:
        tracer.write(spans_path)

    calls, duration, self_time = tracer.totals()
    inside = {span.name for span in tracer.spans if span.selection is not None} - {ROOT_SPAN}
    n = len(traced)
    steps = [s for rec in traced if rec.out is not None for s in rec.out["steps"]]
    layers = {
        "spectral.eig_s": duration["spectral.eig"] / n,
        "spectral.eig_calls": calls["spectral.eig"] / n,
        "spectral.eig_n3": tracer.counts["eig_n3"] / n,
        "spectral.eig_distinct_ratio": tracer.counts["eig_distinct"] / max(calls["spectral.eig"], 1),
        "spectral.kmeans_s": duration["spectral.kmeans"] / n,
        "spectral.kmeans_calls": calls["spectral.kmeans"] / n,
        "spectral.cluster_self_s": self_time["spectral.cluster"] / n,
        "fitting.fit_s": duration["fitting.fit"] / n,
        "fitting.fit_calls": calls["fitting.fit"] / n,
        "fitting.fit_bytes": tracer.counts["fit_bytes"] / n,
        "scaling.sinkhorn_s": duration["scaling.sinkhorn"] / n,
        "scaling.sinkhorn_calls": calls["scaling.sinkhorn"] / n,
        "scaling.sinkhorn_iters": tracer.counts["sinkhorn_iters"] / n,
        "scaling.scaled_matrix_s": duration["scaling.scaled_matrix"] / n,
        "selection.statistic_self_s": self_time["selection.statistic"] / n,
        "selection.loglik_calls": calls["selection.loglik"] / n,
        "selection.steps": len(steps) / n,
        "selection.failed_steps": sum(s[2] != "ok" for s in steps) / n,
        "selection.self_s": self_time[ROOT_SPAN] / n,
        "bench.experiment_s_jobs1": jobs1,
        "bench.experiment_s_jobs2": jobs2,
        "bench.parallel_efficiency": jobs1 / (2 * jobs2),
        "trace.coverage": 1.0 - self_time[ROOT_SPAN] / duration[ROOT_SPAN],
        "trace.overhead": walls[False] / walls[True],
    }
    report = {
        "selection.loglik_s": duration["selection.loglik"] / n,
        "model.sample_s": duration["model.sample"] / passes,
        "network.load_s": duration["network.load"],
        "network.transform_s": duration["network.transform"] / n,
        "shares": {name: duration[name] / duration[ROOT_SPAN] for name in sorted(inside)},
        "untraced_selections_per_s": n / walls[False],
        "traced_selections_per_s": n / walls[True],
        "not_traced": tracer.missing,
    }
    return _result(workload, seed, seconds, True, traced, reasons, reference, passes,
                   _with_units(layers, PER_LAYER), report, {})


def _with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _result(workload, seed, seconds, trace, records, reasons, reference, passes, metrics, report, extra):
    failed = sum(r is not None for r in reasons)
    first_pass = [(rec.task.label, rec.out) for rec in records if rec.rep == 0]
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
        "report": report,
        "passes": passes,
        "reference_checked": sum(reference_covers(rec, reference) for rec in records),
        "checksum": checksum(first_pass),
        "checksum_selections": len(first_pass),
        "failures": [f"pass {rec.rep} {rec.task.label}: {r}" for rec, r in zip(records, reasons) if r][:20],
        "outputs": [[rec.rep, rec.task.label, rec.out] for rec in records],
        **extra,
    }
