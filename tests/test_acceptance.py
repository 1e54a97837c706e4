"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line for its criterion before asserting,
so a plain pytest run documents the full scorecard.
"""

import math
import shutil
import time

import numpy as np
import pytest

import commscale as cs
from commscale.cli import main
from commscale.datasets import lesmis_path, load_lesmis
from commscale.fitting import fit_step
from commscale.model import EdgeDistribution, make_rng, mean_matrix, sample_network, simulation_params
from commscale.network import WeightedAdjacency
from commscale.scaling import scaled_matrix, sinkhorn_symmetric
from commscale.selection import _step_log_likelihood, cbic_score, icl_score, svps_select, svps_statistic
from commscale.spectral import Assignment, score_cluster


def report(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def noiseless_fixture(k, base=(40, 60, 80), rho=0.3, r=3):
    sizes = tuple(base[i % len(base)] for i in range(k))
    labels = np.repeat(np.arange(k), sizes)
    rng = np.random.default_rng(100 + k)
    theta = rng.uniform(0.6, 1.4, size=sum(sizes))
    b = rho * (np.ones((k, k)) + r * np.eye(k))
    m = np.outer(theta, theta) * b[np.ix_(labels, labels)]
    return WeightedAdjacency(m), labels


def test_criterion_1_sinkhorn_contract():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst_res = 0.0
    for i in range(100):
        n = (50, 200, 500)[i % 3]
        v = rng.uniform(0.1, 4.0, size=(n, n))
        v = (v + v.T) / 2
        res = sinkhorn_symmetric(v, tol=1e-10)
        worst_res = max(worst_res, float(np.abs(res.psi * (v @ res.psi) - 1).max()))
        lo = (1 / math.sqrt(n)) * math.sqrt(v.min()) / v.max()
        hi = (1 / math.sqrt(n)) * math.sqrt(v.max()) / v.min()
        bounds_ok = np.all(res.psi >= lo - 1e-15) and np.all(res.psi <= hi + 1e-15)
        other = sinkhorn_symmetric(v, tol=1e-10, initial=2.0 / np.sqrt(v.sum(axis=1)))
        unique_ok = np.allclose(res.psi, other.psi, atol=1e-9)
        if not (worst_res <= 1e-10 and bounds_ok and unique_ok):
            report(1, False, f"matrix {i}: residual={worst_res:.2e}")
    elapsed = time.perf_counter() - start
    report(1, worst_res <= 1e-10 and elapsed < 5.0,
           f"100 matrices, worst residual {worst_res:.2e}, {elapsed:.2f}s")


def test_criterion_2_plugin_oracle_exactness():
    rng_plan = np.random.default_rng(2)
    worst = 0.0
    for i in range(50):
        k = int(rng_plan.integers(1, 5))
        sizes = tuple(int(s) for s in rng_plan.integers(8, 40, size=k))
        rho = float(rng_plan.uniform(0.1, 0.5))
        r = float(rng_plan.uniform(1, 4))
        model = simulation_params(k, rho, r, sizes, make_rng(1000 + i))
        adj = WeightedAdjacency(mean_matrix(model))
        fitted = fit_step(adj, Assignment(model.labels, k))
        worst = max(
            worst,
            float(np.abs(fitted.block_matrix / model.connectivity - 1).max()),
            float(np.abs(fitted.mean / mean_matrix(model) - 1).max()),
        )
    # block-sum identity on noisy samples
    identity_worst = 0.0
    for i in range(10):
        model = simulation_params(3, 0.3, 2, (20, 30, 25), make_rng(2000 + i))
        adj = sample_network(mean_matrix(model), EdgeDistribution("poisson"), make_rng(3000 + i))
        mean = fit_step(adj, Assignment(model.labels, 3)).mean
        onehot = np.eye(3)[model.labels]
        lhs = onehot.T @ mean @ onehot
        rhs = onehot.T @ adj.weights @ onehot
        identity_worst = max(identity_worst, float(np.abs(lhs / rhs - 1).max()))
    ok = worst <= 1e-10 and identity_worst <= 1e-10
    report(2, ok, f"oracle rel err {worst:.2e}, block-sum rel err {identity_worst:.2e}")


def test_criterion_3_noiseless_end_to_end():
    start = time.perf_counter()
    results = {}
    for k in range(2, 7):
        adj, _ = noiseless_fixture(k)
        trace = svps_select(adj, epsilon=0.05, seed=0)
        again = svps_select(adj, epsilon=0.05, seed=0)
        values = [s.value for s in trace.steps]
        # norm of the scaled adjacency at the stopping step
        assignment = score_cluster(adj, k, seed=0)
        fitted = fit_step(adj, assignment)
        scaling = sinkhorn_symmetric(fitted.variance)
        norm = float(np.abs(np.linalg.eigvalsh(scaled_matrix(adj.weights, scaling.psi))).max())
        results[k] = (
            trace.k_hat == k
            and trace.to_csv() == again.to_csv()
            and all(v > 2.05 for v in values[:-1])
            and values[-1] <= 1e-8 * norm
        )
    elapsed = time.perf_counter() - start
    ok = all(results.values()) and elapsed < 2.0
    report(3, ok, f"K_hat==K for K=2..6: {results}, {elapsed:.2f}s")


def null_setting_replicate(rep, sizes=(50, 100, 150), key=3):
    rng = make_rng(np.random.SeedSequence((777, key, rep)))
    model = simulation_params(3, 0.12, 2, sizes, rng)
    adj = sample_network(mean_matrix(model), EdgeDistribution("poisson"), rng)
    return model, adj


def test_criterion_4_null_statistic():
    start = time.perf_counter()
    hits = 0
    for rep in range(100):
        model, adj = null_setting_replicate(rep)
        fitted = fit_step(adj, Assignment(model.labels, 3))
        if svps_statistic(adj, fitted) < 2.2:
            hits += 1
    elapsed = time.perf_counter() - start
    report(4, hits >= 90 and elapsed < 60.0, f"T<2.2 in {hits}/100, {elapsed:.1f}s")


def underfit_limit(model, assignment):
    """Population limit of the statistic for an underfit assignment.

    Fits the assignment on the noiseless mean, scales the mean by that
    fit's variance profile and takes lambda = |lambda_{m+1}|. A signal
    eigenvalue lambda > 1 over a noise bulk with edge 2 appears at
    lambda + 1/lambda (Benaych-Georges & Nadakuditi 2011).
    """
    mean = mean_matrix(model)
    fitted = fit_step(WeightedAdjacency(mean), assignment)
    psi = sinkhorn_symmetric(fitted.variance).psi
    lam = float(np.sort(np.abs(np.linalg.eigvalsh(scaled_matrix(mean, psi))))[::-1][assignment.m])
    return lam + 1.0 / lam


def underfit_replicates(sizes, key):
    """Statistic T and its limit p at m = 2, the two largest blocks merged."""
    values, limits = [], []
    for rep in range(100):
        model, adj = null_setting_replicate(rep, sizes, key)
        merged = Assignment(np.where(model.labels == 2, 1, model.labels), 2)
        values.append(svps_statistic(adj, fit_step(adj, merged)))
        limits.append(underfit_limit(model, merged))
    return np.array(values), np.array(limits)


def test_criterion_5_underfitting_statistic():
    # K = 3 Poisson DCSBM (rho = 0.12, r = 2) fitted at m = 2 with the two
    # largest blocks merged, which respects the nonsplitting property.
    # The statistic tends to lambda + 1/lambda, lambda = |lambda_3| of the
    # mean scaled by the merged fit's variance profile, and grows with n.
    # At blocks (50, 100, 150) that limit lies in about [2.4, 2.8], so
    # there T must clear the 2.05 threshold and track its limit. T > 3
    # is checked at blocks (100, 200, 300), where the limit exceeds 3.
    start = time.perf_counter()
    small_t, small_p = underfit_replicates((50, 100, 150), key=3)
    large_t, large_p = underfit_replicates((100, 200, 300), key=5)
    elapsed = time.perf_counter() - start
    above_threshold = int((small_t > 2.05).sum())
    near_limit = int((np.abs(small_t - small_p) <= 0.2).sum())
    above_3 = int((large_t > 3.0).sum())
    ok = above_threshold >= 90 and near_limit >= 90 and above_3 >= 90 and elapsed < 30.0
    report(5, ok,
           f"n=300: T>2.05 in {above_threshold}/100, |T-p|<=0.2 in {near_limit}/100, "
           f"T in [{small_t.min():.3f}, {small_t.max():.3f}], "
           f"p in [{small_p.min():.3f}, {small_p.max():.3f}]; "
           f"n=600: T>3 in {above_3}/100, "
           f"T in [{large_t.min():.3f}, {large_t.max():.3f}], "
           f"p in [{large_p.min():.3f}, {large_p.max():.3f}]; {elapsed:.1f}s")


def test_criterion_6_simulation_accuracy():
    start = time.perf_counter()
    config = cs.ExperimentConfig(
        distribution=EdgeDistribution("poisson"),
        rho=0.12,
        r=2,
        k_list=(2, 3),
        n_all=(50, 100, 150),
        methods=(cs.MethodSpec("svps", "score", epsilon=0.05),),
        replicates=100,
        seed=0,
    )
    table = cs.run_experiment(config)
    accuracy = {row[0]: row[2] for row in table.rows}
    elapsed = time.perf_counter() - start
    ok = all(accuracy[k] >= 0.8 for k in (2, 3)) and elapsed < 600.0
    report(6, ok, f"accuracy {accuracy}, {elapsed:.1f}s")


def test_criterion_7_lesmis_reproduction():
    start = time.perf_counter()
    table = cs.run_lesmis(load_lesmis(), seed=0)
    cells = {(r[0], r[1], r[2]): r[3] for r in table.rows}
    svps_cells = {key: v for key, v in cells.items() if key[1] == "svps"}
    membership_ok = all(v in (6, 7) for v in svps_cells.values())
    anchors_ok = (
        cells[("score", "svps", "tau=0.1")] == 6
        and cells[("score", "svps", "tau=0.5")] == 6
    )
    binarized_ok = (
        cells[("score", "cbic", "binarized")] == 3
        and cells[("score", "icl", "binarized")] == 3
    )
    elapsed = time.perf_counter() - start
    ok = membership_ok and anchors_ok and binarized_ok and elapsed < 60.0
    report(7, ok, f"svps cells {sorted(svps_cells.values())}, "
                  f"binarized cbic/icl {cells[('score', 'cbic', 'binarized')]}/"
                  f"{cells[('score', 'icl', 'binarized')]}, {elapsed:.1f}s")


def test_criterion_8_penalty_transcription():
    rng = np.random.default_rng(8)
    worst = 0.0
    for i in range(20):
        n = int(rng.integers(12, 40))
        m = int(rng.integers(1, 5))
        w = rng.poisson(2.0, size=(n, n)).astype(float) + 1.0
        w = np.triu(w) + np.triu(w, 1).T
        adj = WeightedAdjacency(w)
        labels = np.sort(rng.integers(0, m, size=n))
        labels[:m] = np.arange(m)  # keep every group nonempty
        fitted = fit_step(adj, Assignment(labels, m))
        # the likelihood the scores take, here in block form; its rounding
        # differs from the dense sum's by about 1e-15 relative
        ll = _step_log_likelihood(adj, fitted)
        cbic_pen = n * math.log(m) + m * (m + 1) / 2 * math.log(n)
        sizes = fitted.assignment.sizes
        icl_pen = float(sum(s * math.log(n / s) for s in sizes)) + m * (m + 2) / 2 * math.log(n)
        worst = max(
            worst,
            abs(cbic_score(adj, fitted) - (ll - cbic_pen)),
            abs(icl_score(adj, fitted) - (ll - icl_pen)),
        )
    report(8, worst <= 1e-12, f"worst penalty transcription error {worst:.2e}")


def run_cli(args, tmp_path, capsys, name):
    out = tmp_path / name
    code = main([a.replace("OUT", str(out)) for a in args])
    captured = capsys.readouterr()
    artifact = out.read_text() if out.exists() else ""
    return code, captured.out, captured.err, artifact


def test_criterion_9_cli_determinism(tmp_path, capsys):
    lesmis = str(tmp_path / "lesmis.tsv")
    shutil.copy(lesmis_path(), lesmis)
    ones = tmp_path / "ones3.csv"
    ones.write_text("1,1,1\n1,1,1\n1,1,1\n")
    examples = {
        "select-svps": (
            ["select", "--method", "svps", "--input", lesmis, "--tau", "0.1",
             "--cluster", "score", "--epsilon", "0.05", "--seed", "1", "--out", "OUT"],
            0, "K_hat=6\n",
        ),
        "scale-ones": (["scale", "--input", str(ones)], 0, "psi=(0.57735, 0.57735, 0.57735)"),
        "cbic-no-likelihood": (
            ["select", "--method", "cbic", "--input", lesmis], 1, "",
        ),
        "bench-lesmis": (
            ["bench", "lesmis", "--input", lesmis, "--tau", "0.05,0.1,0.25,0.5",
             "--seed", "0", "--out", "OUT"],
            0, "cells=14\n",
        ),
    }
    failures = []
    for name, (args, want_code, want_out) in examples.items():
        first = run_cli(args, tmp_path, capsys, name)
        second = run_cli(args, tmp_path, capsys, name)
        if first != second:
            failures.append(f"{name}: reruns differ")
        if first[0] != want_code:
            failures.append(f"{name}: exit {first[0]} != {want_code}")
        if want_out and not first[1].startswith(want_out):
            failures.append(f"{name}: stdout {first[1]!r}")
    report(9, not failures, "; ".join(failures) or "4 CLI examples byte-identical on rerun")
