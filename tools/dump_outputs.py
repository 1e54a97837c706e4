"""Write the outputs of a fixed set of runs, one file per run.

The set covers:

- selection traces: the Les Miserables grid at k-means seeds 0 and 3
  with both clusterers, and replicate 0 of configs/sim1_rho006.cfg at
  K = 2..6 with all six of its methods on the replicate's one k-means
  seed, each run through select as bench.run_lesmis and
  bench.run_experiment would, and again through svps_select and
  score_select as perfbench calls them (shorthand-*);
- svps_select on the benchmark's n = 1200 network of seed 0, pass 0,
  which takes the Lanczos path: ARPACK solves the statistic to 1e-10
  relative, so its step values can differ from those of a dense solve,
  or of a change to that tolerance, in the last digits;
- svps_select on both sides of the variance floor's rule: Les Miserables
  with one isolated node added, and two disconnected copies of it, where
  the floor can bind and the dense profile is scaled; Les Miserables
  under the negative binomial variance, whose two-term profile is scaled
  in block form, so step values can differ from the dense scaling's in
  the last digits; and the binarized network under the bernoulli
  variance, whose fits all fail on a mean of 1 or more; and cbic and icl
  under the poisson law on the first two, whose zero means score 0 in
  the block form as in the dense likelihood;
- cbic and icl under the poisson law on Les Miserables with every weight
  times 1000, whose counts up to 31000 take the block form's sum of
  log A_ij! over distinct counts, and with every positive weight 5e-10
  off its count, which the block form's exact-count rule sends to the
  dense likelihood;
- tables: run_lesmis at seeds 0 and 3, and run_experiment on two
  replicates of configs/sim1_rho006.cfg at jobs 1 and 2, as
  Table.to_csv renders them;
- CLI runs of select, fit, scale, simulate, bench run and bench lesmis,
  each with its exit code, stdout, stderr and --out file, error cases
  and flags a command does not declare included (scale on a matrix one
  ulp off symmetric and on one with an inf entry, select under the
  bernoulli law on weighted Les Miserables, bench run on a config naming
  its law negbinom, simulate with --n-all sizes that are not integers,
  below 1 or fewer than --k, bench lesmis with a --tau that is not a
  number), some with COMMSCALE_SEED set, and select on the list
  simulate writes at a rho small enough to leave nodes of degree zero;
- library calls with bad arguments, among them sinkhorn_symmetric on a
  matrix one ulp off symmetric, on NaN and inf entries and from a NaN
  initial, scaled_matrix with a NaN psi, sample_network on an
  asymmetric and on a NaN mean, svps_select under the bernoulli law on
  weighted Les Miserables, EdgeDistribution with a trial count that
  is not an integer >= 1, select at a numpy integer seed (its trace
  is the one at the equal int) and at a tuple seed, kmeans on a NaN row
  and at an m or restarts of 2.5, and select at an m_max of 2.5 and at
  0 restarts on a structureless network, where svps stops at m = 1;
  kmeans, select and ExperimentConfig given True for an integer, and
  ExperimentConfig at 2.5 replicates;
- kmeans on inputs full of distance ties, on rows offset by 1e6, on 17
  columns at m = 17, on 300 rows offset by 1e6 at m = 257, on rows
  1.5e-162 apart whose squared distances underflow unevenly and on rows
  near 1e160 whose squared norms overflow, at seeds 0 and 1: the chosen
  labels and every restart's WCSS, so the exact fallback of the
  assignment shows too;
  and at m = 5 then m = 2 on one seed and rows, so the second call
  reads the k-means++ draws the first left memoised;
- svps, cbic and icl traces on networks sampled from the binomial (5
  trials) and negative binomial laws, each selector given the sampling
  law, and log_likelihood less the cbic and icl penalties under every
  likelihood law on random counts whose means include zeros and values
  at or past the trial cap, so every branch of the
  likelihood shows.

A trace file holds SelectionTrace.to_csv(), or the message of the error
the run raised. Dumping two checkouts and comparing the directories
shows whether a change moved any output:

    python3 ../parent/tools/dump_outputs.py /tmp/parent-out --root ../parent
    python3 tools/dump_outputs.py /tmp/change-out
    diff -r /tmp/parent-out /tmp/change-out

--root names the checkout whose src/commscale is imported (default:
this one). Dump each checkout with its own copy of this file: the runs
are spelled in the names and flags of the checkout they belong to, and
a run whose spelling changed would otherwise run something else. BLAS
and OpenMP are pinned to one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import os
import shutil
import sys
import tempfile
from functools import partial
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parents[1]
LESMIS_SEEDS = (0, 3)
TAUS = (0.05, 0.1, 0.25, 0.5)
PANEL_CONFIG = HERE / "configs" / "sim1_rho006.cfg"
PANEL_KS = (2, 3, 4, 5, 6)
EXPERIMENT_REPLICATES = 2
RESTARTS = 50

# small bench-run configs: three head lines, one method line, CONFIG_TAIL
RUN_CONFIGS = {
    "negbinom-over-cap": ("distribution = negative_binomial\nrho = 1\nr = 3\n", "svps score"),
    "negbinom": ("distribution = negbinom\nrho = 0.2\nr = 3\n", "svps score\nmethod = cbic score"),
    "shared-label": ("distribution = poisson\nrho = 0.3\nr = 3\n",
                     "svps score epsilon=0.05\nmethod = svps score epsilon=0.0500000001"),
    "negative-epsilon": ("distribution = poisson\nrho = 0.3\nr = 3\n", "svps score epsilon=-1"),
    "negative-lambda": ("distribution = poisson\nrho = 0.3\nr = 3\n", "cbic score lambda=-1"),
    "nan-epsilon": ("distribution = poisson\nrho = 0.3\nr = 3\n", "svps score epsilon=nan"),
    "nan-lambda": ("distribution = poisson\nrho = 0.3\nr = 3\n", "cbic score lambda=nan"),
    "nan-rho": ("distribution = poisson\nrho = nan\nr = 3\n", "svps score"),
}
CONFIG_TAIL = "k_list = 2\nn_all = 12,14\nreplicates = 1\nseed = 0\n"
# a config that runs, for the --jobs cases
VALID_CONFIG = f"distribution = poisson\nrho = 0.3\nr = 3\nmethod = svps score\n{CONFIG_TAIL}"


def import_commscale(root: Path):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("COMMSCALE_SEED", None)
    init = root / "src" / "commscale" / "__init__.py"
    sys.path.insert(0, str(root / "src"))
    import commscale

    if Path(commscale.__file__).resolve() != init.resolve():
        raise SystemExit(f"imported commscale from {commscale.__file__}, not from {init}")
    return commscale


def lesmis_runs(cs):
    """(name, network, spec, law, m_max, seed) for the grid of run_lesmis."""
    adj = cs.load_lesmis()
    flat = cs.binarize(adj)
    for seed in LESMIS_SEEDS:
        for clusterer in ("score", "rsc"):
            svps = cs.MethodSpec("svps", clusterer, epsilon=0.05)
            for tau in TAUS:
                yield f"lesmis-seed{seed}-{svps.label}-tau{tau:g}", cs.regularize(adj, tau), svps, None, 12, seed
            for selector in ("cbic", "icl"):
                spec = cs.MethodSpec(selector, clusterer)
                yield f"lesmis-seed{seed}-{spec.label}-weighted", adj, spec, "poisson", 10, seed
                yield f"lesmis-seed{seed}-{spec.label}-binarized", flat, spec, "bernoulli", 10, seed


def panel_runs(cs):
    """(name, network, spec, law, m_max, seed) for replicate 0 of the panel."""
    import numpy as np

    config = cs.parse_config(PANEL_CONFIG)
    rep = 0
    for k in PANEL_KS:
        # the network and the replicate's one k-means seed as bench._replicate
        # derives them, spelled out here so that the dump depends on public names only
        rng = cs.make_rng(np.random.SeedSequence((config.seed, k, rep)))
        model = cs.simulation_params(k, config.rho, config.r, config.n_all, rng)
        adj = cs.sample_network(cs.mean_matrix(model), config.distribution, rng, zero_diagonal=config.zero_diagonal)
        seed = int(np.random.SeedSequence((config.seed, k, rep, 1)).generate_state(1)[0])
        for spec in config.methods:
            m_max = max(12, k + 4) if spec.selector == "svps" else k + 4
            yield f"panel-K{k}-rep{rep}-{spec.label}", adj, spec, config.distribution, m_max, seed


def law_runs(cs):
    """(name, network, spec, law, m_max, seed) for every selector on binomial and negbinom samples."""
    for law in (cs.EdgeDistribution("binomial"), cs.EdgeDistribution("negative_binomial")):
        for k in (2, 3):
            rng = cs.make_rng(k)
            model = cs.simulation_params(k, 0.2, 3.0, (20, 25, 30)[:k], rng)
            adj = cs.sample_network(cs.mean_matrix(model), law, rng)
            for selector in ("svps", "cbic", "icl"):
                spec = cs.MethodSpec(selector)
                yield f"law-{law.kind}-K{k}-{spec.label}", adj, spec, law, k + 4, 0


def large_svps_run(cs):
    """(file name, call) for svps_select on the svps-n1200 network of
    seed 0, pass 0, with the network and k-means seed that
    perfbench.workloads.sample_poisson_dcsbm(3, 0.06, 3.0, (400, 400, 400),
    0, 0) and derived_seed(0, 0) give."""
    import numpy as np

    keys = (0, 0)
    rng = cs.make_rng(np.random.SeedSequence(keys))
    model = cs.simulation_params(3, 0.06, 3.0, (400, 400, 400), rng)
    adj = cs.sample_network(cs.mean_matrix(model), cs.EdgeDistribution("poisson"), rng)
    seed = int(np.random.SeedSequence(keys).generate_state(1)[0])
    return "svps-n1200-seed0-pass0.csv", partial(cs.svps_select, adj, m_max=12, clusterer="score", seed=seed,
                                                  restarts=RESTARTS)


def floor_rule_runs(cs):
    """(file name, call) for svps_select on networks on both sides of the variance floor's rule,
    and select with cbic and icl under the poisson law on the two with zero means."""
    import numpy as np

    adj = cs.load_lesmis()
    n = adj.n
    isolated = np.zeros((n + 1, n + 1))
    isolated[:n, :n] = adj.weights
    two = np.zeros((2 * n, 2 * n))
    two[:n, :n] = two[n:, n:] = adj.weights
    common = dict(seed=0, restarts=RESTARTS)
    yield "svps-lesmis-isolated-node.csv", partial(cs.svps_select, cs.WeightedAdjacency(isolated), **common)
    yield "svps-lesmis-two-copies.csv", partial(cs.svps_select, cs.WeightedAdjacency(two), **common)
    yield "svps-lesmis-binarized-bernoulli.csv", partial(cs.svps_select, cs.binarize(adj), "bernoulli", **common)
    yield "svps-lesmis-negbinom.csv", partial(cs.svps_select, adj, "negbinom", **common)
    for method in ("cbic", "icl"):
        spec = cs.MethodSpec(method)
        for name, weights in (("isolated-node", isolated), ("two-copies", two)):
            yield f"{method}-lesmis-{name}.csv", partial(cs.select, cs.WeightedAdjacency(weights), spec,
                                                         dist="poisson", **common)


def count_rule_runs(cs):
    """(file name, call) for select with cbic and icl under the poisson law on
    Les Miserables scaled to large counts and moved just off its counts."""
    import numpy as np

    w = cs.load_lesmis().weights
    networks = {"times1000": 1000.0 * w, "near-integer": np.where(w > 0, w + 5e-10, 0.0)}
    for method in ("cbic", "icl"):
        spec = cs.MethodSpec(method)
        for name, weights in networks.items():
            yield f"{method}-lesmis-{name}.csv", partial(cs.select, cs.WeightedAdjacency(weights), spec,
                                                         dist="poisson", seed=0, restarts=RESTARTS)


def trace_runs(cs):
    """(file name, call) for every trace, through select and through the shorthands."""
    for runs in (lesmis_runs(cs), panel_runs(cs), law_runs(cs)):
        for name, adj, spec, law, m_max, seed in runs:
            yield f"{name}.csv", partial(cs.select, adj, spec, dist=law, m_max=m_max, seed=seed, restarts=RESTARTS)
            common = dict(clusterer=spec.clusterer, seed=seed, restarts=RESTARTS)
            if spec.selector == "svps":
                call = partial(cs.svps_select, adj, law, m_max=m_max, epsilon=spec.epsilon, **common)
            else:
                call = partial(cs.score_select, adj, method=spec.selector, m_range=range(1, m_max + 1),
                               dist=law, lam=spec.lam, **common)
            yield f"shorthand-{name}.csv", call
    yield large_svps_run(cs)
    yield from floor_rule_runs(cs)
    yield from count_rule_runs(cs)


def table_runs(cs):
    """(file name, call returning a table) for run_lesmis and run_experiment."""
    for seed in LESMIS_SEEDS:
        yield f"table-lesmis-seed{seed}.csv", partial(cs.run_lesmis, cs.load_lesmis(), seed=seed)
    config = dataclasses.replace(cs.parse_config(PANEL_CONFIG), replicates=EXPERIMENT_REPLICATES)
    for jobs in (1, 2):
        name = f"table-{PANEL_CONFIG.stem}-reps{EXPERIMENT_REPLICATES}-jobs{jobs}.csv"
        yield name, partial(cs.run_experiment, config, jobs=jobs)


def api_error_runs(cs):
    """(file name, call) for library calls with arguments at or past their bounds."""
    import numpy as np

    adj = cs.load_lesmis()
    yield "api-svps-m_max0.txt", partial(cs.svps_select, adj, m_max=0, restarts=2)
    for selector in ("cbic", "icl"):
        spec = cs.MethodSpec(selector)
        yield f"api-{selector}-m_max0.txt", partial(cs.select, adj, spec, dist="poisson", m_max=0, restarts=2)
    yield "api-score_select-range2.txt", partial(cs.score_select, adj, "poisson", m_range=range(2, 5), restarts=2)
    yield "api-score_select-svps.txt", partial(cs.score_select, adj, "poisson", method="svps", restarts=2)
    yield "api-svps-epsilon0.txt", partial(cs.svps_select, adj, epsilon=0.0, restarts=2)
    yield "api-cbic-lam-negative.txt", partial(cs.score_select, adj, "poisson", lam=-1.0, restarts=2)
    v = np.array([[1.0, 2.0], [2.0, 5.0]])
    for max_iter in (-1, 0, 100):
        yield f"api-sinkhorn-max_iter{max_iter}.txt", partial(cs.sinkhorn_symmetric, v, max_iter=max_iter)
    nan = float("nan")
    yield "api-svps-epsilon-nan.txt", partial(cs.svps_select, adj, epsilon=nan, m_max=3, restarts=2)
    yield "api-cbic-lam-nan.txt", partial(cs.score_select, adj, "poisson", lam=nan, m_range=range(1, 4), restarts=2)
    yield "api-sinkhorn-tol-nan.txt", partial(cs.sinkhorn_symmetric, v, tol=nan, max_iter=100)
    # the scaling's input rules: exact symmetry, finite entries and psi
    off = np.array([[1.0, 2.0], [2.0000000000000004, 5.0]])
    yield "api-sinkhorn-one-ulp-asymmetric.txt", partial(cs.sinkhorn_symmetric, off)
    for name, bad in (("nan", nan), ("inf", float("inf"))):
        yield f"api-sinkhorn-{name}-entry.txt", partial(cs.sinkhorn_symmetric, np.array([[1.0, bad], [bad, 5.0]]))
    yield "api-sinkhorn-initial-nan.txt", partial(cs.sinkhorn_symmetric, v, initial=np.array([nan, 1.0]))
    yield "api-scaled_matrix-psi-nan.txt", partial(cs.scaled_matrix, np.eye(2), np.array([nan, 1.0]))
    yield "api-regularize-tau-nan.txt", partial(cs.regularize, adj, nan)
    yield "api-simulation_params-rho-nan.txt", partial(cs.simulation_params, 2, nan, 3.0, (10, 10), cs.make_rng(0))
    yield "api-simulation_params-r-nan.txt", partial(cs.simulation_params, 2, 0.3, nan, (10, 10), cs.make_rng(0))
    yield "api-simulation_params-block-size0.txt", partial(cs.simulation_params, 2, 0.3, 3.0, (0, 10), cs.make_rng(0))
    yield "api-simulation_params-rho-inf.txt", partial(cs.simulation_params, 2, float("inf"), 3.0, (10, 10),
                                                       cs.make_rng(0))
    # a binomial weight above the trials fails svps before clustering
    yield "api-svps-lesmis-bernoulli.txt", partial(cs.svps_select, adj, "bernoulli", restarts=2)
    for name, trials in (("0", 0), ("2.5", 2.5), ("nan", nan), ("inf", float("inf"))):
        yield f"api-EdgeDistribution-trials-{name}.txt", partial(cs.EdgeDistribution, "binomial", trials)
    poisson = cs.EdgeDistribution("poisson")
    for name, mean in (("asymmetric", [[1.0, 5.0], [0.0, 1.0]]), ("nan", [[1.0, nan], [nan, 1.0]])):
        yield f"api-sample_network-{name}-mean.txt", partial(cs.sample_network, np.array(mean), poisson, cs.make_rng(0))
    cbic = cs.MethodSpec("cbic")
    for name, seed in (("numpy-int", np.int64(7)), ("tuple", (4, 2))):
        yield f"api-select-seed-{name}.txt", partial(cs.select, adj, cbic, dist="poisson", m_max=4, seed=seed, restarts=2)
    rows = np.random.default_rng(15).normal(size=(20, 2))
    yield "api-kmeans-nan-row.txt", partial(cs.kmeans, np.vstack([rows, [nan, 0.0]]), 3)
    yield "api-kmeans-m2.5.txt", partial(cs.kmeans, rows, 2.5)
    yield "api-kmeans-restarts2.5.txt", partial(cs.kmeans, rows, 3, restarts=2.5)
    yield "api-select-m_max2.5.txt", partial(cs.select, adj, cbic, dist="poisson", m_max=2.5, restarts=2)
    flat = cs.sample_network(np.full((40, 40), 5.0), poisson, cs.make_rng(0))
    yield "api-svps-structureless-restarts0.txt", partial(cs.select, flat, cs.MethodSpec("svps"), restarts=0)
    config = cs.parse_config(io.StringIO(VALID_CONFIG))
    for jobs in (0, -3):
        yield f"api-run_experiment-jobs{jobs}.txt", partial(cs.run_experiment, config, jobs=jobs)
    # a bool is not an integer argument, and replicates is one
    yield "api-kmeans-seed-true.txt", partial(cs.kmeans, rows, 3, seed=True)
    yield "api-kmeans-m-true.txt", partial(cs.kmeans, rows, True, seed=False)
    yield "api-select-seed-true.txt", partial(cs.select, adj, cbic, dist="poisson", m_max=4, seed=True, restarts=2)
    yield "api-ExperimentConfig-seed-true.txt", partial(dataclasses.replace, config, seed=True)
    yield "api-ExperimentConfig-replicates2.5.txt", partial(dataclasses.replace, config, replicates=2.5)


def kmeans_runs(cs):
    """(file name, call) for kmeans on tie, duplicate, cancellation, underflow
    and overflow inputs, and at more centres than a uint8 counts."""
    import numpy as np

    rng = np.random.default_rng
    inputs = {
        "integer-grid": (np.array([[i, j] for i in range(6) for j in range(6)], dtype=float), 4),
        "duplicated": (np.repeat(rng(11).normal(size=(4, 3)), [12, 9, 7, 2], axis=0), 5),
        "offset-1e6": (1e6 + 0.01 * rng(12).normal(size=(60, 2)), 3),
        "d17": (rng(13).integers(0, 3, size=(40, 17)).astype(float), 17),
        # every point marks all 257 centres at first
        "offset-1e6-n300": (1e6 + 0.01 * rng(12).normal(size=(300, 2)), 257),
        # 1.5e-162 apart squares to 0, 3e-162 apart does not
        "underflow-1e-162": (1.5e-162 * rng(17).integers(0, 3, size=(30, 1)), 2),
        # |x|^2 overflows, so every matmul candidate and WCSS estimate is NaN
        "huge-1e160": (1e160 + 1e150 * rng(14).normal(size=(30, 2)), 3),
    }
    for name, (rows, m) in inputs.items():
        for seed in (0, 1):
            yield f"kmeans-{name}-m{m}-seed{seed}.txt", partial(describe_kmeans, cs, rows, m, seed)
    # m = 2 right after m = 5 at one seed, which reads a prefix of the draws m = 5 made
    spread = rng(14).normal(size=(40, 2))
    yield "kmeans-m5-then-m2-seed0.txt", lambda: "".join(f"m {m}\n{describe_kmeans(cs, spread, m, 0)}" for m in (5, 2))


def describe_kmeans(cs, rows, m, seed) -> str:
    """kmeans's labels (or its error), then each restart's final WCSS by repr."""
    try:
        text = f"labels {cs.kmeans(rows, m, seed=seed, restarts=RESTARTS).labels.tolist()}\n"
    except cs.ClusterError as exc:
        text = f"ClusterError: {exc}\n"
    # the restarts as kmeans runs them; k-means++ raises when no restart
    # can fill m clusters, and each would end with one empty
    spectral = cs.spectral
    try:
        _, point_d2, counts = spectral._lloyd(rows, spectral._plusplus_init(rows, m, seed, RESTARTS))
    except cs.ClusterError:
        return text + "".join(f"restart {i} wcss empty cluster\n" for i in range(RESTARTS))
    for i in range(RESTARTS):
        wcss = repr(float(point_d2[i].sum())) if (counts[i] > 0).all() else "empty cluster"
        text += f"restart {i} wcss {wcss}\n"
    return text


def likelihood_runs(cs):
    """(file name, call) for the cbic and icl scores on random counts, per law."""
    for law in ("poisson", "binomial", "bernoulli", "negbinom"):
        yield f"likelihood-{law}.txt", partial(describe_scores, cs, law)


def describe_scores(cs, law) -> str:
    """repr of the cbic and icl scores at m = 2 on symmetric counts, one line per n.

    The inputs are built like those of the exact likelihood test in
    tests/test_selection.py, with another seed and other sizes. Their means
    are not block-model means, so each score is log_likelihood at the mean
    less its penalty, spelled as cbic_score (lam = 1) and icl_score spell it.
    """
    import math

    import numpy as np

    rng = np.random.default_rng(21)
    trials = 1 if law == "bernoulli" else 5
    top = trials if law in ("binomial", "bernoulli") else 12
    text = ""
    for n in (2, 3, 9, 30):
        # counts within 1e-9 of an integer
        jitter = rng.uniform(-9e-10, 9e-10, size=(n, n))
        weights = np.clip(rng.integers(0, top + 1, size=(n, n)) + jitter, 0, None)
        adj = cs.WeightedAdjacency(np.triu(weights) + np.triu(weights, 1).T)
        mean = rng.gamma(1.0, 1.5, size=(n, n))
        mean[rng.random((n, n)) < 0.2] = 0.0
        mean[rng.random((n, n)) < 0.2] = trials
        mean[rng.random((n, n)) < 0.2] = 2.5 * trials
        mean[0, 0] = 0.4
        sizes = cs.Assignment(np.arange(n) % 2, 2).sizes
        ll = cs.log_likelihood(adj, mean, law)
        cbic = ll - (1.0 * n * math.log(2) + 2 * 3 / 2.0 * math.log(n))
        icl = ll - (float((sizes * np.log(n / sizes)).sum()) + 2 * 4 / 2.0 * math.log(n))
        text += f"n {n} cbic {cbic!r} icl {icl!r}\n"
    return text


def cli_runs(cs, tmp: Path):
    """(file name, argv) for the CLI; OUT in argv stands for a fresh --out
    path, and an --out file named outright is kept for the runs after it."""
    lesmis = str(cs.lesmis_path())
    matrix = tmp / "matrix.csv"
    matrix.write_text("1,2\n2,5\n", encoding="utf-8")
    off_matrices = {"one-ulp-asymmetric": "1,2\n2.0000000000000004,5\n", "inf-entry": "1,inf\ninf,5\n"}
    for name, text in off_matrices.items():
        (tmp / f"{name}.csv").write_text(text, encoding="utf-8")
    yield "cli-select-svps.txt", ["select", "--input", lesmis, "--tau", "0.1", "--seed", "1", "--out", "OUT"]
    yield "cli-select-svps-rsc-bernoulli.txt", [
        "select", "--input", lesmis, "--binarize", "--cluster", "rsc", "--law", "bernoulli",
        "--kmax", "5", "--seed", "2", "--out", "OUT"]
    yield "cli-select-svps-bernoulli-weighted.txt", ["select", "--input", lesmis, "--law", "bernoulli", "--out", "OUT"]
    yield "cli-select-cbic-binarized.txt", [
        "select", "--method", "cbic", "--input", lesmis, "--binarize", "--law", "bernoulli",
        "--seed", "0", "--out", "OUT"]
    yield "cli-select-icl-rsc.txt", [
        "select", "--method", "icl", "--cluster", "rsc", "--input", lesmis, "--law", "poisson",
        "--kmax", "6", "--seed", "4", "--out", "OUT"]
    yield "cli-select-icl-outside-support.txt", [
        "select", "--method", "icl", "--input", lesmis, "--tau", "0.1", "--law", "poisson", "--out", "OUT"]
    yield "cli-select-kmax0.txt", ["select", "--input", lesmis, "--kmax", "0", "--out", "OUT"]
    yield "cli-select-epsilon0.txt", ["select", "--input", lesmis, "--epsilon", "0", "--out", "OUT"]
    yield "cli-select-epsilon-nan.txt", ["select", "--input", lesmis, "--epsilon", "nan", "--out", "OUT"]
    yield "cli-select-seed-negative.txt", ["select", "--input", lesmis, "--seed", "-1", "--out", "OUT"]
    yield "cli-select-tau-negative.txt", ["select", "--input", lesmis, "--tau", "-0.5", "--out", "OUT"]
    yield "cli-select-tau-nan.txt", ["select", "--input", lesmis, "--tau", "nan", "--out", "OUT"]
    yield "cli-fit-score.txt", ["fit", "--input", lesmis, "--m", "3", "--seed", "0", "--out", "OUT"]
    yield "cli-fit-rsc.txt", ["fit", "--input", lesmis, "--m", "4", "--cluster", "rsc", "--seed", "1", "--out", "OUT"]
    yield "cli-fit-seed-negative.txt", ["fit", "--input", lesmis, "--m", "3", "--seed", "-1", "--out", "OUT"]
    yield "cli-fit-tau-nan.txt", ["fit", "--input", lesmis, "--m", "3", "--tau", "nan", "--out", "OUT"]
    yield "cli-scale.txt", ["scale", "--input", str(matrix), "--out", "OUT"]
    yield "cli-scale-max-iter0.txt", ["scale", "--input", str(matrix), "--max-iter", "0", "--out", "OUT"]
    yield "cli-scale-max-iter-negative.txt", ["scale", "--input", str(matrix), "--max-iter", "-1", "--out", "OUT"]
    yield "cli-scale-tol0.txt", ["scale", "--input", str(matrix), "--tol", "0", "--out", "OUT"]
    yield "cli-scale-tol-nan.txt", ["scale", "--input", str(matrix), "--tol", "nan", "--out", "OUT"]
    for name in off_matrices:
        yield f"cli-scale-{name}.txt", ["scale", "--input", str(tmp / f"{name}.csv"), "--out", "OUT"]
    yield "cli-simulate.txt", ["simulate", "--rho", "0.12", "--r", "2", "--k", "3", "--seed", "0", "--out", "OUT"]
    yield "cli-simulate-negbinom.txt", [
        "simulate", "--dist", "negbinom", "--rho", "0.2", "--r", "3", "--k", "2", "--n-all", "20,30",
        "--seed", "5", "--out", "OUT"]
    yield "cli-simulate-negbinom-over-cap.txt", [
        "simulate", "--dist", "negbinom", "--rho", "1", "--r", "3", "--k", "2", "--out", "OUT"]
    yield "cli-simulate-rho-nan.txt", ["simulate", "--rho", "nan", "--r", "2", "--k", "2", "--out", "OUT"]
    yield "cli-simulate-rho-inf.txt", ["simulate", "--rho", "inf", "--r", "2", "--k", "2", "--out", "OUT"]
    yield "cli-simulate-k0.txt", ["simulate", "--rho", "0.12", "--r", "2", "--k", "0", "--out", "OUT"]
    # at a tiny rho some nodes, not only the last, have degree zero; select
    # reads the list simulate wrote, so a node lost in writing shows in both
    tiny = tmp / "simulate-rho-tiny.tsv"
    yield "cli-simulate-rho-tiny.txt", ["simulate", "--rho", "0.02", "--r", "2", "--k", "2", "--seed", "0",
                                        "--out", str(tiny)]
    yield "cli-select-simulated-rho-tiny.txt", ["select", "--input", str(tiny), "--seed", "0", "--out", "OUT"]
    yield "cli-simulate-replicate-negative.txt", [
        "simulate", "--rho", "0.12", "--r", "2", "--k", "2", "--replicate", "-1", "--out", "OUT"]
    for name, k, n_all in (("n-all-not-integer", "2", "50,abc"), ("n-all-zero", "2", "0,5"),
                           ("k-over-n-all", "3", "50,60")):
        yield f"cli-simulate-{name}.txt", [
            "simulate", "--rho", "0.1", "--r", "2", "--k", k, "--n-all", n_all, "--out", "OUT"]
    yield "cli-bench-lesmis-seed3.txt", ["bench", "lesmis", "--seed", "3", "--out", "OUT"]
    yield "cli-bench-lesmis-epsilon-nan.txt", ["bench", "lesmis", "--epsilon", "nan", "--out", "OUT"]
    yield "cli-bench-lesmis-seed-negative.txt", ["bench", "lesmis", "--seed", "-1", "--out", "OUT"]
    yield "cli-bench-lesmis-tau-negative.txt", ["bench", "lesmis", "--tau", "0.1,-0.5", "--out", "OUT"]
    yield "cli-bench-lesmis-tau-not-number.txt", ["bench", "lesmis", "--tau", "abc", "--out", "OUT"]
    copy = tmp / "lesmis.tsv"
    shutil.copy(lesmis, copy)
    yield "cli-bench-lesmis-input.txt", ["bench", "lesmis", "--input", str(copy), "--tau", "0.1", "--out", "OUT"]
    for name, (head, method) in RUN_CONFIGS.items():
        config = tmp / f"{name}.cfg"
        config.write_text(f"{head}method = {method}\n{CONFIG_TAIL}", encoding="utf-8")
        yield f"cli-bench-run-{name}.txt", ["bench", "run", "--config", str(config), "--out", "OUT"]
    # values of the wrong kind, named with their key and line, and values out of range
    for name, text in (("zero-diagonal-typo", f"{VALID_CONFIG}zero_diagonal = ture\n"),
                       ("fractional-replicates", VALID_CONFIG.replace("replicates = 1", "replicates = 2.5")),
                       ("n-all-zero", VALID_CONFIG.replace("n_all = 12,14", "n_all = 0,20")),
                       ("k-list-zero", VALID_CONFIG.replace("k_list = 2", "k_list = 0"))):
        config = tmp / f"{name}.cfg"
        config.write_text(text, encoding="utf-8")
        yield f"cli-bench-run-{name}.txt", ["bench", "run", "--config", str(config), "--out", "OUT"]
    valid = tmp / "valid.cfg"
    valid.write_text(VALID_CONFIG, encoding="utf-8")
    for jobs in ("1", "2", "0", "-3"):
        yield f"cli-bench-run-jobs{jobs}.txt", ["bench", "run", "--config", str(valid), "--jobs", jobs, "--out", "OUT"]
    # commands that seed from elsewhere (the config) or not at all
    yield "cli-bench-run-seed1.txt", ["bench", "run", "--config", str(valid), "--seed", "1", "--out", "OUT"]
    yield "cli-scale-seed1.txt", ["scale", "--input", str(matrix), "--seed", "1", "--out", "OUT"]


def cli_seed_variable_runs(cs):
    """(file name, COMMSCALE_SEED, argv) for runs that take the seed from the variable."""
    argv = ["select", "--input", str(cs.lesmis_path()), "--tau", "0.1", "--kmax", "3", "--out", "OUT"]
    for name, value in (("1", "1"), ("abc", "abc"), ("negative", "-1")):
        yield f"cli-select-seed-variable-{name}.txt", value, argv


def run_cli(main, argv, out: Path, seed_variable=None) -> str:
    """Exit code, stdout, stderr and the --out file of one CLI run, with
    COMMSCALE_SEED set to seed_variable, or unset when that is None. OUT in
    argv stands for out."""
    argv = [str(out) if arg == "OUT" else arg for arg in argv]
    out = Path(argv[argv.index("--out") + 1])
    if out.exists():
        out.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    env = {key: value for key, value in os.environ.items() if key != "COMMSCALE_SEED"}
    if seed_variable is not None:
        env["COMMSCALE_SEED"] = seed_variable
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            mock.patch.dict(os.environ, env, clear=True):
        code = main(argv)
    # bytes, not text, so a change of line ends shows in the dump
    written = out.read_bytes().decode("utf-8") if out.exists() else "(not written)\n"
    return f"exit {code}\n--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}--- out\n{written}"


def describe(result) -> str:
    if hasattr(result, "to_csv"):
        return result.to_csv()
    if hasattr(result, "psi"):
        return f"psi {[float(p) for p in result.psi]!r}\niterations {result.iterations}\n"
    return f"{result!r}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--root", type=Path, default=HERE, help="checkout to import commscale from")
    args = parser.parse_args(argv)
    cs = import_commscale(args.root.resolve())
    from commscale.cli import main as cli_main

    domain_errors = (cs.FitError, cs.ClusterError, cs.ScalingError)
    args.outdir.mkdir(parents=True, exist_ok=True)
    count = 0

    def write(name: str, text: str) -> None:
        nonlocal count
        (args.outdir / name).write_text(text, encoding="utf-8")
        count += 1

    def outcome(call, errors) -> str:
        try:
            return describe(call())
        except errors as exc:
            return f"{type(exc).__name__}: {exc}\n"

    for name, call in trace_runs(cs):
        write(name, outcome(call, domain_errors))
    for name, call in api_error_runs(cs):
        write(name, outcome(call, (*domain_errors, ValueError)))
    for name, call in (*kmeans_runs(cs), *likelihood_runs(cs)):
        write(name, call())
    for name, call in table_runs(cs):
        write(name, call().to_csv())
    with tempfile.TemporaryDirectory() as tmp:
        for name, cli_argv in cli_runs(cs, Path(tmp)):
            write(name, run_cli(cli_main, cli_argv, Path(tmp) / "out"))
        for name, value, cli_argv in cli_seed_variable_runs(cs):
            write(name, run_cli(cli_main, cli_argv, Path(tmp) / "out", seed_variable=value))
    print(f"wrote {count} files to {args.outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
