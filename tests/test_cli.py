import argparse
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from commscale import bench
from commscale.cli import build_parser, main
from commscale.datasets import lesmis_path, load_lesmis
from commscale.model import EdgeDistribution
from commscale.network import WeightedAdjacency


@pytest.fixture()
def lesmis_file(tmp_path):
    dest = tmp_path / "lesmis.tsv"
    shutil.copy(lesmis_path(), dest)
    return str(dest)


def test_select_svps_lesmis(lesmis_file, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(
        [
            "select", "--method", "svps", "--input", lesmis_file, "--tau", "0.1",
            "--cluster", "score", "--epsilon", "0.05", "--seed", "1", "--out", str(out),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == "K_hat=6\n"
    lines = out.read_text().splitlines()
    assert lines[0] == "method,m,value,status,selected"
    assert lines[-1].startswith("svps,6,") and lines[-1].endswith(",ok,1")


def test_select_requires_likelihood_for_cbic(lesmis_file, capsys):
    code = main(["select", "--method", "cbic", "--input", lesmis_file])
    assert code == 1
    assert "--law is required for --method cbic" in capsys.readouterr().err


def test_select_missing_input_is_usage_error(capsys):
    assert main(["select", "--method", "svps"]) == 1
    assert "--input" in capsys.readouterr().err


def test_select_cbic_binarized(lesmis_file, capsys):
    code = main(
        [
            "select", "--method", "cbic", "--input", lesmis_file, "--binarize",
            "--law", "bernoulli", "--seed", "0",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == "K_hat=3\n"


def test_data_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("0 1 -2\n")
    assert main(["select", "--input", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_scale_ones(tmp_path, capsys):
    path = tmp_path / "ones3.csv"
    path.write_text("1,1,1\n1,1,1\n1,1,1\n")
    assert main(["scale", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("psi=(0.57735, 0.57735, 0.57735)")


def test_scale_convergence_failure(tmp_path, capsys):
    path = tmp_path / "v.csv"
    path.write_text("1,2\n2,5\n")
    assert main(["scale", "--input", str(path), "--max-iter", "0"]) == 2
    assert "residual" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("1,2\n2.0000000000000004,5\n", "error: matrix must be exactly symmetric\n"),
        ("1,inf\ninf,5\n", "error: matrix must have finite, strictly positive entries\n"),
    ],
)
def test_scale_rejects_matrix_off_the_rule(text, message, tmp_path, capsys):
    path = tmp_path / "v.csv"
    path.write_text(text)
    assert main(["scale", "--input", str(path)]) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--max-iter", "-1"], "--max-iter must be >= 0"),
        (["--tol", "0"], "--tol must be positive"),
        (["--tol", "-0.001"], "--tol must be positive"),
        (["--tol", "nan"], "--tol must be positive"),
    ],
)
def test_scale_bad_budget_is_usage_error(flags, message, tmp_path, capsys):
    path = tmp_path / "v.csv"
    path.write_text("1,2\n2,5\n")
    assert main(["scale", "--input", str(path), *flags]) == 1
    assert message in capsys.readouterr().err


def test_select_nan_epsilon_is_usage_error(lesmis_file, capsys):
    assert main(["select", "--input", lesmis_file, "--epsilon", "nan"]) == 1
    assert "--epsilon must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-0.5", "nan"])
def test_bench_lesmis_epsilon_out_of_range_is_usage_error(value, tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert main(["bench", "lesmis", "--epsilon", value, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "commscale bench lesmis: --epsilon must be positive\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "flag, values",
    [("--rho", ("0", "-0.1", "nan", "inf", "-inf")), ("--r", ("0", "-2", "nan", "inf", "-1e3"))],
)
def test_simulate_rho_r_out_of_range_is_usage_error(flag, values, tmp_path, capsys):
    out = tmp_path / "sim.tsv"
    for value in values:
        given = {"--rho": "0.3", "--r": "3", flag: value}
        args = ["simulate", "--rho", given["--rho"], "--r", given["--r"], "--k", "2", "--out", str(out)]
        assert main(args) == 1, value
        captured = capsys.readouterr()
        rule = "finite" if value == "inf" else "positive"
        assert captured.err == f"commscale simulate: {flag} must be {rule}\n"
        assert captured.out == "" and not out.exists()


def seeded_commands(parser, prefix=()):
    """Names of the subcommands whose parser declares --seed, in declaration order."""
    names = [" ".join(prefix)] if "--seed" in parser._option_string_actions else []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                names += seeded_commands(sub, (*prefix, name))
    return names


# the least argv of each command that may declare --seed; LESMIS stands for
# the copied network file
ARGV = {
    "select": ["select", "--input", "LESMIS"],
    "fit": ["fit", "--input", "LESMIS", "--m", "2"],
    "simulate": ["simulate", "--rho", "0.3", "--r", "3", "--k", "2"],
    "bench lesmis": ["bench", "lesmis"],
}
# (argv, command name) of each command that reads --seed or COMMSCALE_SEED
SEEDED = [(ARGV[name], name) for name in seeded_commands(build_parser())]


def run_seeded(argv, lesmis_file, out, *flags):
    return main([lesmis_file if arg == "LESMIS" else arg for arg in argv] + [*flags, "--out", str(out)])


@pytest.mark.parametrize("argv, name", SEEDED, ids=[name for _, name in SEEDED])
def test_negative_seed_is_usage_error(argv, name, lesmis_file, tmp_path, capsys):
    out = tmp_path / "out.txt"
    assert run_seeded(argv, lesmis_file, out, "--seed", "-1") == 1
    captured = capsys.readouterr()
    assert captured.err == f"commscale {name}: --seed must be >= 0\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("value", ["abc", "-1", "2.5"])
@pytest.mark.parametrize("argv, name", SEEDED, ids=[name for _, name in SEEDED])
def test_bad_seed_variable_is_usage_error(argv, name, value, lesmis_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COMMSCALE_SEED", value)
    out = tmp_path / "out.txt"
    assert run_seeded(argv, lesmis_file, out) == 1
    captured = capsys.readouterr()
    assert captured.err == f"commscale {name}: COMMSCALE_SEED must be an integer >= 0, got {value!r}\n"
    assert captured.out == "" and not out.exists()
    # --seed overrides the variable, which is then never read
    assert run_seeded(argv, lesmis_file, out, "--seed", "0", "--quiet") == 0


# "-1e-3" is a value, not an option: argparse's own negative-number pattern misses it
TAU_CASES = [(ARGV[name], name, value) for name in ("select", "fit", "bench lesmis") for value in ("-0.5", "nan", "-1e-3")]
TAU_CASES.append((ARGV["bench lesmis"], "bench lesmis", "0.1,-0.5"))


@pytest.mark.parametrize("argv, name, value", TAU_CASES, ids=[f"{name}-{value}" for _, name, value in TAU_CASES])
def test_tau_out_of_range_is_usage_error(argv, name, value, lesmis_file, tmp_path, capsys):
    out = tmp_path / "out.txt"
    assert run_seeded(argv, lesmis_file, out, "--tau", value) == 1
    captured = capsys.readouterr()
    assert captured.err == f"commscale {name}: --tau must be >= 0\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [("--k", "0", "--k must be >= 1"), ("--k", "-2", "--k must be >= 1"),
     ("--replicate", "-1", "--replicate must be >= 0")],
)
def test_simulate_k_and_replicate_out_of_range_is_usage_error(flag, value, message, tmp_path, capsys):
    out = tmp_path / "sim.tsv"
    assert run_seeded(ARGV["simulate"], "", out, flag, value) == 1
    captured = capsys.readouterr()
    assert captured.err == f"commscale simulate: {message}\n"
    assert captured.out == "" and not out.exists()


SIMULATE = ["simulate", "--rho", "0.1", "--r", "2"]


# the message names the list's kind, not the function that reads it
@pytest.mark.parametrize(
    "argv, message",
    [
        ([*SIMULATE, "--k", "2", "--n-all", "50,abc"],
         "commscale simulate: argument --n-all: invalid comma-separated int value: '50,abc'"),
        ([*SIMULATE, "--k", "2", "--n-all", "0,5"], "commscale simulate: --n-all sizes must be >= 1"),
        ([*SIMULATE, "--k", "3", "--n-all", "50,60"], "commscale simulate: --k must be <= 2, the number of --n-all sizes"),
        (["bench", "lesmis", "--tau", "abc"],
         "commscale bench lesmis: argument --tau: invalid comma-separated float value: 'abc'"),
    ],
    ids=["n-all-not-integer", "n-all-zero", "k-over-n-all", "tau-not-number"],
)
def test_bad_comma_list_is_usage_error(argv, message, tmp_path, capsys):
    out = tmp_path / "out.txt"
    assert main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"{message}\n"
    assert captured.out == "" and not out.exists()


def test_fit_emits_parameters(lesmis_file, tmp_path, capsys):
    out = tmp_path / "fit.csv"
    code = main(["fit", "--input", lesmis_file, "--m", "3", "--seed", "0", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.startswith("m=3 sizes=(")
    lines = out.read_text().splitlines()
    assert lines[0] == "quantity,i,j,value"
    assert sum(1 for l in lines if l.startswith("theta,")) == 77
    assert sum(1 for l in lines if l.startswith("block_matrix,")) == 9
    assert sum(1 for l in lines if l.startswith("block_size,")) == 3


@pytest.fixture()
def half_weights_file(tmp_path):
    # Les Miserables with every weight halved: outside the poisson support
    dest = tmp_path / "half.tsv"
    dest.write_text(WeightedAdjacency(load_lesmis().weights / 2).to_edge_list(), encoding="utf-8")
    return str(dest)


def test_select_likelihood_outside_support_is_data_error(half_weights_file, capsys):
    code = main(["select", "--method", "cbic", "--input", half_weights_file, "--law", "poisson"])
    assert code == 2
    assert capsys.readouterr().err == "error: poisson likelihood needs integer weights\n"


def test_select_svps_weights_above_the_trials_is_data_error(capsys):
    # Les Miserables has weights up to 31: outside the bernoulli range for
    # every selector, so svps fails before it clusters, as cbic does
    lesmis = str(lesmis_path())
    for method in ("svps", "cbic"):
        code = main(["select", "--method", method, "--input", lesmis, "--law", "bernoulli"])
        assert code == 2
        assert capsys.readouterr() == ("", "error: binomial law needs weights <= 1\n")


def test_bench_lesmis_non_integer_weights_keeps_other_cells(half_weights_file, tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code = main(["bench", "lesmis", "--input", half_weights_file, "--tau", "0.1", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == "cells=8\n"
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 8
    for clusterer, selector, variant, k_hat in rows:
        assert (k_hat == "") == (variant == "weighted"), (clusterer, selector, variant)


def test_fit_m_below_one_is_usage_error(lesmis_file, capsys):
    assert main(["fit", "--input", lesmis_file, "--m", "0"]) == 1
    assert capsys.readouterr().err == "commscale fit: --m must be >= 1\n"


@pytest.mark.parametrize("command", [["select"], ["fit", "--m", "3"]])
@pytest.mark.parametrize("restarts", ["0", "-2"])
def test_kmeans_restarts_below_one_is_usage_error(lesmis_file, capsys, command, restarts):
    args = [*command, "--input", lesmis_file, "--kmeans-restarts", restarts]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err == f"commscale {command[0]}: --kmeans-restarts must be >= 1\n"
    assert captured.out == ""


def test_simulate_round_trip(tmp_path, capsys):
    out = tmp_path / "sim.tsv"
    args = [
        "simulate", "--dist", "poisson", "--rho", "0.3", "--r", "3", "--k", "2",
        "--n-all", "15,20", "--seed", "7", "--out", str(out),
    ]
    assert main(args) == 0
    first = out.read_text()
    summary = capsys.readouterr().out
    assert summary.startswith("n=35 k=2")
    assert main(args) == 0
    assert out.read_text() == first

    from commscale.network import load_edge_list

    adj = load_edge_list(str(out), n=35)
    assert adj.n == 35


def test_simulate_writes_the_replicate_network_of_bench_run(tmp_path, capsys, monkeypatch):
    # simulate --seed S --k K --replicate R and run_experiment's replicate R
    # at K sample through one recipe, so they are one network
    from commscale.network import load_edge_list
    from commscale.selection import MethodSpec

    networks = []
    select = bench.select

    def capturing(adj, spec, **kwargs):
        networks.append(adj.weights.copy())
        return select(adj, spec, **kwargs)

    monkeypatch.setattr(bench, "select", capturing)
    config = bench.ExperimentConfig(
        distribution=EdgeDistribution("negative_binomial"), rho=0.2, r=3.0, k_list=(3,), n_all=(12, 15, 9),
        methods=(MethodSpec("cbic"),), replicates=3, seed=4, zero_diagonal=True,
    )
    bench.run_experiment(config)
    assert len(networks) == 3
    for rep, weights in enumerate(networks):
        out = tmp_path / f"rep{rep}.tsv"
        argv = ["simulate", "--dist", "negbinom", "--rho", "0.2", "--r", "3", "--k", "3",
                "--n-all", "12,15,9", "--zero-diagonal", "--seed", "4", "--replicate", str(rep), "--out", str(out)]
        assert main(argv) == 0
        assert np.array_equal(load_edge_list(str(out), n=36).weights, weights)
    assert not np.array_equal(networks[0], networks[1])
    capsys.readouterr()


def test_bench_lesmis_packaged_default(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code = main(["bench", "lesmis", "--tau", "0.1,0.5", "--seed", "0", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "clusterer,selector,variant,k_hat"
    assert "score,svps,tau=0.1,6" in lines
    assert "score,svps,tau=0.5,6" in lines


def test_bench_run_config(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "distribution = poisson\nrho = 0.3\nr = 3\nk_list = 2\nn_all = 20,30\n"
        "replicates = 3\nseed = 1\nmethod = svps score epsilon=0.05\n"
    )
    out = tmp_path / "table.csv"
    assert main(["bench", "run", "--config", str(cfg), "--out", str(out)]) == 0
    first = out.read_text()
    assert first.splitlines()[0] == "K,method,accuracy,replicates,mean_khat,failures"
    assert main(["bench", "run", "--config", str(cfg), "--out", str(out), "--jobs", "2"]) == 0
    assert out.read_text() == first


TINY_CONFIG = "distribution = poisson\nrho = 0.3\nr = 3\nk_list = 2\nn_all = 20,30\nreplicates = 2\nmethod = svps score\n"
# (argv, the artifact of the same call) of each command whose artifact renders itself
RENDERED = {
    "simulate": (
        ["simulate", "--rho", "0.3", "--r", "3", "--k", "2", "--n-all", "15,20", "--seed", "7", "--replicate", "1"],
        lambda cfg: bench._network(7, 2, 1, 0.3, 3.0, (15, 20), EdgeDistribution("poisson")).to_edge_list(),
    ),
    "bench run": (
        ["bench", "run", "--config", "CONFIG"],
        lambda cfg: bench.run_experiment(bench.parse_config(cfg)).to_csv(),
    ),
    "bench lesmis": (
        ["bench", "lesmis", "--tau", "0.1", "--seed", "3"],
        lambda cfg: bench.run_lesmis(load_lesmis(), tau_list=(0.1,), seed=3).to_csv(),
    ),
}


@pytest.mark.parametrize("command", list(RENDERED))
def test_out_file_holds_the_rendered_artifact(command, tmp_path, capsys):
    # main writes the text byte for byte: UTF-8 and "\n" line ends on every platform
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG, encoding="utf-8")
    argv, render = RENDERED[command]
    out = tmp_path / "artifact.txt"
    assert main([str(cfg) if arg == "CONFIG" else arg for arg in argv] + ["--out", str(out)]) == 0
    written = out.read_bytes()
    assert written == render(str(cfg)).encode("utf-8")
    assert written.endswith(b"\n") and b"\r" not in written
    capsys.readouterr()


@pytest.mark.parametrize("command", ["bench run", "scale"])
def test_seed_on_a_command_that_does_not_read_it_is_usage_error(command, tmp_path, capsys):
    # bench run seeds from its config's seed key; scale draws nothing
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("distribution = poisson\nrho = 0.3\nr = 3\nk_list = 2\nn_all = 20,30\nmethod = svps score\n")
    matrix = tmp_path / "v.csv"
    matrix.write_text("1,2\n2,5\n")
    argv = {"bench run": ["bench", "run", "--config", str(cfg)], "scale": ["scale", "--input", str(matrix)]}
    out = tmp_path / "out.txt"
    assert main([*argv[command], "--seed", "1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "commscale: unrecognized arguments: --seed 1\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_bench_run_jobs_below_one_is_usage_error(jobs, tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("distribution = poisson\nrho = 0.3\nr = 3\nk_list = 2\nn_all = 20,30\nmethod = svps score\n")
    out = tmp_path / "table.csv"
    assert main(["bench", "run", "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 1
    assert "--jobs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "subcommand" in capsys.readouterr().err


def test_help_exits_zero_and_lists_flags(capsys):
    assert main(["select", "--help"]) == 0
    text = capsys.readouterr().out
    for flag in ("--method", "--epsilon", "--kmax", "--cluster", "--law", "--tau", "--seed", "--binarize"):
        assert flag in text


def test_seed_env_fallback(lesmis_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COMMSCALE_SEED", "1")
    code = main(["select", "--input", lesmis_file, "--tau", "0.1"])
    assert code == 0
    assert capsys.readouterr().out == "K_hat=6\n"


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "commscale.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "select" in proc.stdout


def test_select_tiny_all_zero_network_reports_none(tmp_path, capsys):
    # 10 isolated nodes: every step fails, which is an answer, not an error
    path = tmp_path / "zeros.tsv"
    path.write_text("".join(f"{i} {i} 0\n" for i in range(10)))
    assert main(["select", "--input", str(path), "--kmeans-restarts", "3"]) == 0
    assert capsys.readouterr().out == "K_hat=none\n"
    code = main(["select", "--input", str(path), "--method", "cbic", "--law", "poisson",
                 "--kmax", "12", "--kmeans-restarts", "3"])
    assert code == 0
    assert capsys.readouterr().out == "K_hat=none\n"


def readme_commands():
    """Every `commscale ...` line of README's sh blocks, continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, flags=re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("commscale "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_readme_cli_examples_parse():
    # a removed or renamed flag cannot linger in the documented examples
    commands = readme_commands()
    assert len(commands) >= 7
    assert ["--law", "bernoulli"] in [argv[-2:] for argv in commands]
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
