"""Every layer the benchmark tracer wraps must exist on the package.

perfbench/tracer.py wraps module attributes by name and skips a name it
cannot find, so a rename in the package would silently shrink the
benchmark's layer coverage. The first test fails on such a rename
instead; the second checks that every caller of the cluster-and-fit
step still reaches the wrapped attributes at call time; the last runs
the tracer itself over a selection on the Lanczos path.
"""

import importlib.util
import shutil
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import commscale
from commscale import selection, spectral
from commscale.cli import main
from commscale.datasets import lesmis_path, load_lesmis
from commscale.selection import MethodSpec, select
from test_selection import sampled_counts

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while it loads
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_trace_target_resolves():
    targets = load_tracer().TARGETS
    assert targets
    missing = []
    for module, attr, _ in targets:
        owner = getattr(commscale, module) if module else commscale
        if not callable(getattr(owner, attr, None)):
            missing.append(f"commscale.{module}.{attr}" if module else f"commscale.{attr}")
    assert missing == []


# the layers the benchmark's "spectral.cluster" and "fitting.fit" spans wrap
STEP_LAYERS = ("score_cluster", "rsc_cluster", "fit_step")


@pytest.mark.parametrize("clusterer", ["score", "rsc"])
def test_every_caller_goes_through_the_wrapped_step_layers(clusterer, monkeypatch, tmp_path):
    # a name bound at import time would keep resolving in the test above
    # while calls bypassed the wrapper; count what the wrappers really see
    wrapped = {(module, attr) for module, attr, _ in load_tracer().TARGETS}
    assert {("selection", attr) for attr in STEP_LAYERS} <= wrapped
    calls = Counter()
    for attr in STEP_LAYERS:
        original = getattr(selection, attr)

        def counting(*args, _attr=attr, _original=original, **kwargs):
            calls[_attr] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(selection, attr, counting)
    adj = load_lesmis()
    path = tmp_path / "lesmis.tsv"
    shutil.copy(lesmis_path(), path)
    callers = {
        "svps_select": lambda: selection.svps_select(adj, m_max=2, clusterer=clusterer, restarts=2),
        "score_select": lambda: selection.score_select(
            adj, "poisson", m_range=range(1, 3), clusterer=clusterer, restarts=2
        ),
        "fit": lambda: main(
            ["fit", "--input", str(path), "--m", "2", "--cluster", clusterer,
             "--kmeans-restarts", "2", "--quiet"]
        ),
    }
    other = "rsc_cluster" if clusterer == "score" else "score_cluster"
    for caller, run in callers.items():
        calls.clear()
        # the callers share a network and seed; start each from an empty
        # step memo so that it clusters rather than reusing the last one's steps
        monkeypatch.setattr(selection, "_steps", (None, {}))
        run()
        assert calls[f"{clusterer}_cluster"] >= 1, caller
        assert calls["fit_step"] == calls[f"{clusterer}_cluster"], caller
        assert calls[other] == 0, caller
    # a repeat reuses every step from the memo: it still fits through the
    # wrapped fit_step, and clusters nothing
    callers["score_select"]()
    calls.clear()
    callers["score_select"]()
    assert calls == {"fit_step": 2}


@pytest.mark.parametrize("clusterer", ["score", "rsc"])
def test_tracer_runs_a_lanczos_selection_unchanged(clusterer, monkeypatch):
    # the tracer notes each leading_eigpairs input as a dense array; on the
    # Lanczos path the CSR weights must reach ARPACK without passing there
    monkeypatch.setattr(spectral, "LANCZOS_MIN_N", 2)
    adj = sampled_counts((40, 50, 60), rho=0.1)[0]
    assert spectral._sparse_weights(adj) is not None
    run = lambda: select(adj, MethodSpec("svps", clusterer), restarts=5)
    untraced = run().to_csv()
    tracer = load_tracer().Tracer(commscale)
    raised, eig_inputs = [], []
    wrap = tracer._wrap

    def checked_wrap(fn, name):
        traced = wrap(fn, name)

        def checked(*args, **kwargs):
            if name == "spectral.eig":
                eig_inputs.append(args[0] if args else kwargs["matrix"])
            try:
                return traced(*args, **kwargs)
            except BaseException as exc:
                raised.append((name, exc))
                raise

        return checked

    tracer._wrap = checked_wrap
    monkeypatch.setattr(selection, "_steps", (None, {}))
    with tracer.installed():
        with tracer.selection(0):
            traced = run().to_csv()
    assert tracer.missing == []
    assert traced == untraced
    assert raised == []
    assert all(type(matrix) is np.ndarray for matrix in eig_inputs)
    # SCORE's basis comes from ARPACK; RSC's regularised matrix is solved densely
    assert len(eig_inputs) == (0 if clusterer == "score" else 1)
    # every step clustered inside the wrapped clusterer
    calls, _, _ = tracer.totals()
    assert calls["spectral.cluster"] == len(untraced.splitlines()) - 1 > 2
