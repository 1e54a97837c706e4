"""Every layer the benchmark tracer wraps must exist on the package.

perfbench/tracer.py wraps module attributes by name and skips a name it
cannot find, so a rename in the package would silently shrink the
benchmark's layer coverage. This test fails on such a rename instead.
"""

import importlib.util
import sys
from pathlib import Path

import commscale

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
