"""Process environment of a benchmark run.

pin_threads must run before numpy is first imported, because BLAS and
OpenMP read their thread counts once, at load time.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class SourceMissing(RuntimeError):
    """The checkout does not hold the commscale sources."""


def pin_threads() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads must run before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_commscale():
    """Import commscale from this checkout's src/, never from elsewhere."""
    init = SRC / "commscale" / "__init__.py"
    if not init.is_file():
        raise SourceMissing(f"no commscale sources at {init.relative_to(ROOT)}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import commscale

    if Path(commscale.__file__).resolve() != init.resolve():
        raise SourceMissing(f"commscale was imported from {commscale.__file__}, not from src/")
    return commscale


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.split()
    # a checkout nested in some other repository is not that repository's commit
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _source_digest() -> str:
    """sha256 over the package files, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "commscale").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": _git_commit(),
        "source_digest": _source_digest(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }
