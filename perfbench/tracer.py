"""Spans around calls into commscale's layers, recorded from outside the package.

Each layer function is wrapped at the module attribute its caller
resolves at call time, and restored when the tracer is uninstalled.
Spans stay in memory; a layer's self time is its span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# (module under commscale, or "" for the package; attribute; span name)
TARGETS = (
    ("selection", "score_cluster", "spectral.cluster"),
    ("selection", "rsc_cluster", "spectral.cluster"),
    ("spectral", "leading_eigpairs", "spectral.eig"),
    ("spectral", "kmeans", "spectral.kmeans"),
    ("selection", "fit_step", "fitting.fit"),
    ("selection", "svps_statistic", "selection.statistic"),
    ("selection", "sinkhorn_symmetric", "scaling.sinkhorn"),
    ("selection", "scaled_matrix", "scaling.scaled_matrix"),
    ("selection", "log_likelihood", "selection.loglik"),
    ("", "load_lesmis", "network.load"),
    ("", "regularize", "network.transform"),
    ("", "binarize", "network.transform"),
    ("", "simulation_params", "model.sample"),
    ("", "mean_matrix", "model.sample"),
    ("", "sample_network", "model.sample"),
)
ROOT_SPAN = "selection"
FINGERPRINT_SPAN = "trace.fingerprint"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    selection: int | None


class Tracer:
    def __init__(self, cs):
        self.cs = cs
        self.spans: list[Span] = []
        self.counts = defaultdict(float)  # eig_n3, fit_bytes, sinkhorn_iters, eig_distinct
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._selection: int | None = None
        self._pass_inputs: set[str] = set()

    @contextmanager
    def span(self, name: str):
        self.spans.append(Span(name, perf_counter(), 0.0, self._stack[-1] if self._stack else None, self._selection))
        index = len(self.spans) - 1
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index].end = perf_counter()
            self._stack.pop()

    @contextmanager
    def selection(self, index: int):
        self._selection = index
        try:
            with self.span(ROOT_SPAN):
                yield
        finally:
            self._selection = None

    def new_pass(self) -> None:
        """Distinct eigen inputs are counted per pass, where each network is used once."""
        self._pass_inputs = set()

    def _note_eig(self, args, kwargs, result):
        matrix = np.ascontiguousarray(args[0] if args else kwargs["matrix"])
        self.counts["eig_n3"] += float(matrix.shape[0]) ** 3
        # a span of its own, so that hashing counts in no layer's time
        with self.span(FINGERPRINT_SPAN):
            key = hashlib.sha1(matrix.data).hexdigest()
        if key not in self._pass_inputs:
            self._pass_inputs.add(key)
            self.counts["eig_distinct"] += 1

    def _note_fit(self, args, kwargs, result):
        arrays = (result.theta, result.block_matrix, result.mean, result.variance, result.assignment.labels)
        self.counts["fit_bytes"] += sum(a.nbytes for a in arrays)

    def _note_sinkhorn(self, args, kwargs, result):
        self.counts["sinkhorn_iters"] += result.iterations

    def _wrap(self, fn, name):
        note = {
            "spectral.eig": self._note_eig,
            "fitting.fit": self._note_fit,
            "scaling.sinkhorn": self._note_sinkhorn,
        }.get(name)

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if note is not None:
                note(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name in TARGETS:
                owner = getattr(self.cs, module) if module else self.cs
                if not hasattr(owner, attr):
                    where = f"commscale.{module}.{attr}" if module else f"commscale.{attr}"
                    if where not in self.missing:
                        self.missing.append(where)
                        print(f"trace: {where} not found, not traced", file=sys.stderr)
                    continue
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self):
        """Per span name: (calls, total duration, total self time)."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        calls = defaultdict(int)
        duration = defaultdict(float)
        self_time = defaultdict(float)
        for index, span in enumerate(self.spans):
            calls[span.name] += 1
            duration[span.name] += span.end - span.start
            self_time[span.name] += span.end - span.start - child_time[index]
        return calls, duration, self_time

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as sink:
            for index, span in enumerate(self.spans):
                sink.write(json.dumps({"id": index, **span.__dict__}) + "\n")
