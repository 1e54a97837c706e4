"""Self-tests of the benchmark. Run: python3 -m pytest -q perfbench"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchenv  # noqa: E402

cs = benchenv.import_commscale()

import checks  # noqa: E402
import harness  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, LesmisGrid, SimPanel, SvpsLarge, to_spec  # noqa: E402

ROOT = benchenv.ROOT
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "lesmis-grid": LesmisGrid(taus=(0.5,), m_max=4, score_m_max=3, restarts=2),
    "svps-n1200": SvpsLarge(block_sizes=(30, 30, 30), restarts=2),
    "sim-panel": SimPanel(k_list=(2, 3), n_all=(30, 30, 30), restarts=2),
}


@pytest.fixture
def tiny_experiment(monkeypatch):
    monkeypatch.setattr(harness, "EXPERIMENT_PANEL", SimPanel(k_list=(2,), n_all=(30, 30), methods=(("svps", "score"),)))


def test_metric_tables_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == harness.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert set(TINY) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_run_emits_every_metric(name, tiny_experiment):
    for trace, expected in ((False, harness.END_TO_END), (True, harness.PER_LAYER)):
        result = harness.measure(TINY[name], seed=3, seconds=0.01, trace=trace)
        assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())
        assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"]
        assert result["reference_checked"] == 0


def test_corrupted_reference_counts_as_failure():
    workload = TINY["lesmis-grid"]
    first = harness.measure(workload, seed=5, seconds=0.01)
    reference = [[{"label": label, **out} for rep, label, out in first["outputs"] if rep == 0]]
    assert harness.measure(workload, seed=5, seconds=0.01, reference=reference)["failed"] == 0

    wrong_k = copy.deepcopy(reference)
    wrong_k[0][0]["k_hat"] = 99
    result = harness.measure(workload, seed=5, seconds=0.01, reference=wrong_k)
    assert result["failed"] >= 1 and result["report"]["error_frac"] > 0 and not result["correct"]

    drifted = copy.deepcopy(reference)
    step = next(s for s in drifted[0][-1]["steps"] if s[1] is not None)
    step[1] += 1e-6 * max(1.0, abs(step[1]))
    assert harness.measure(workload, seed=5, seconds=0.01, reference=drifted)["report"]["error_frac"] > 0


def test_traced_and_untraced_outputs_are_identical(tiny_experiment):
    workload = TINY["sim-panel"]
    plain = harness.measure(workload, seed=2, seconds=0.01)
    traced = harness.measure(workload, seed=2, seconds=0.01, trace=True)
    first = [o for o in plain["outputs"] if o[0] == 0]
    assert first == [o for o in traced["outputs"] if o[0] == 0]
    assert plain["checksum"] == traced["checksum"]
    assert traced["failed"] == 0


def test_tracer_restores_every_wrapped_attribute():
    originals = [getattr(getattr(cs, mod) if mod else cs, attr) for mod, attr, _ in TARGETS]
    tracer = Tracer(cs)
    with tracer.installed():
        assert getattr(cs.spectral, "kmeans") is not originals[3]
    assert originals == [getattr(getattr(cs, mod) if mod else cs, attr) for mod, attr, _ in TARGETS]
    assert not tracer.missing


def test_self_check_rejects_inconsistent_outputs():
    task = TINY["lesmis-grid"].tasks(0, 0, cs.load_lesmis())[0]
    out = {"k_hat": 2, "threshold": 2.05, "steps": [[1, 3.0, "ok"], [2, 1.5, "ok"], [3, 1.2, "ok"]]}
    assert "went on" in checks.self_check(task, out)
    out = {"k_hat": 1, "threshold": 2.05, "steps": [[1, 3.0, "ok"], [2, 1.5, "ok"]]}
    assert "k_hat=1" in checks.self_check(task, out)


def test_reference_covers_default_seed_of_every_workload():
    for name, workload in WORKLOADS.items():
        assert checks.load_reference(name, to_spec(workload), 0), name


def _run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_cli_last_line_is_the_result_object():
    done = _run_cli(ROOT, "--workload", "lesmis-grid", "--seed", "0", "--seconds", "0.01", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 14
    assert "reference-checked 14/14 selections" in done.stdout


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run_cli(tmp_path, "--workload", "lesmis-grid", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
