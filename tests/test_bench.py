import hashlib
import io
import textwrap
from pathlib import Path

import numpy as np
import pytest

from commscale import bench
from commscale.bench import (
    ExperimentConfig,
    MethodSpec,
    Table,
    parse_config,
    run_experiment,
    run_lesmis,
)
from commscale.datasets import load_lesmis
from commscale.fitting import FitError
from commscale.model import EdgeDistribution
from commscale.network import WeightedAdjacency


def small_config(**overrides):
    base = dict(
        distribution=EdgeDistribution("poisson"),
        rho=0.3,
        r=3,
        k_list=(2,),
        n_all=(20, 30, 25),
        methods=(MethodSpec("svps", "score", epsilon=0.05),),
        replicates=6,
        seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_parse_config_round_trip():
    text = textwrap.dedent(
        """\
        # comment line
        distribution = poisson
        rho = 0.12
        r = 2          # inline comment
        k_list = 2,3
        n_all = 50,100,150
        replicates = 7
        seed = 3
        method = svps score epsilon=0.05
        method = cbic rsc lambda=0.5
        """
    )
    config = parse_config(io.StringIO(text))
    assert config.rho == 0.12
    assert config.k_list == (2, 3)
    assert config.replicates == 7
    assert config.methods[0] == MethodSpec("svps", "score", epsilon=0.05)
    assert config.methods[1].lam == 0.5
    assert config.methods[1].clusterer == "rsc"


def test_config_reads_the_law_names():
    # distribution takes every name model.edge_law takes, as simulate --dist
    # does; the shipped configs spell each law by its kind, and the digest
    # of their reprs is the one they had when only kinds were read
    head = "rho = 0.1\nr = 1\nk_list = 2\nn_all = 20,30\nmethod = cbic score\n"
    configs = {
        name: parse_config(io.StringIO(f"distribution = {name}\n{head}"))
        for name in ("negbinom", "negative_binomial", "bernoulli")
    }
    assert configs["negbinom"] == configs["negative_binomial"]
    assert repr(configs["negbinom"]) == repr(configs["negative_binomial"])
    assert configs["bernoulli"].distribution == EdgeDistribution("binomial", trials=1)
    with pytest.raises(ValueError, match="unknown distribution 'gamma'"):
        parse_config(io.StringIO(f"distribution = gamma\n{head}"))
    paths = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
    text = "".join(f"{path.name} {parse_config(path)!r}\n" for path in paths)
    assert len(paths) == 15
    assert hashlib.sha256(text.encode()).hexdigest() == "e3e06f4002491b0a3e2a9c27c20b47f9f03894e7db493afea2a58effb75f3d72"


def test_parse_config_missing_keys():
    with pytest.raises(ValueError, match="missing"):
        parse_config(io.StringIO("rho = 0.1\n"))
    with pytest.raises(ValueError, match="line 1"):
        parse_config(io.StringIO("just some words\n"))


def test_method_spec_validation_and_labels():
    assert MethodSpec("svps", "score", epsilon=0.02).label == "svps-score-eps0.02"
    assert MethodSpec("cbic", "rsc").label == "cbic-rsc"
    assert MethodSpec("icl", "score").label == "icl-score"
    with pytest.raises(ValueError):
        MethodSpec("other", "score")
    with pytest.raises(ValueError):
        MethodSpec("svps", "dbscan")
    for epsilon in (0.0, -1.0):
        with pytest.raises(ValueError, match="epsilon"):
            MethodSpec("svps", epsilon=epsilon)
    with pytest.raises(ValueError, match="lam"):
        MethodSpec("cbic", lam=-0.5)
    # a knob the selector does not read is an error, not dropped
    for selector in ("svps", "icl"):
        with pytest.raises(ValueError, match=rf"^lam applies to cbic only, got 0.5 for {selector}$"):
            MethodSpec(selector, lam=0.5)
    for selector in ("cbic", "icl"):
        with pytest.raises(ValueError, match=rf"^epsilon applies to svps only, got 9 for {selector}$"):
            MethodSpec(selector, epsilon=9)
    assert MethodSpec("icl", lam=1, epsilon=0.05).label == "icl-score"


def test_config_validation():
    for replicates in (0, 2.5, True, None):
        with pytest.raises(ValueError, match=rf"^replicates must be an integer >= 1, got {replicates}$"):
            small_config(replicates=replicates)
    assert small_config(replicates=np.int64(2)).replicates == 2
    # peak mean rho (1 + r) 1.5^2 = 11.25
    with pytest.raises(ValueError, match="binomial mean cap exceeded: needs max mean <= 5, got 11.25"):
        small_config(distribution=EdgeDistribution("binomial"), rho=1.0, r=4.0)
    with pytest.raises(ValueError, match="block sizes"):
        small_config(k_list=(5,))
    with pytest.raises(ValueError, match="need at least one method"):
        small_config(methods=())


@pytest.mark.parametrize(
    "key,entries,message",
    [("k_list", (True,), "k_list entry must be an integer >= 1, got True"),
     ("n_all", (12.5, 14), "n_all entry must be an integer >= 1, got 12.5"),
     ("n_all", (20, None), "n_all entry must be an integer >= 1, got None"),
     ("k_list", (2, 0), r"k_list entries must be >= 1, got \(2, 0\)")],
)
def test_config_checks_each_list_entry_is_an_integer(key, entries, message):
    # select's integer rule: numpy integers pass, a bool or a float does not
    with pytest.raises(ValueError, match=f"^{message}$"):
        small_config(**{key: entries})
    assert small_config(k_list=(np.int64(2),)).k_list == (2,)


@pytest.mark.parametrize("k_list", [(2, 2), (2, 3, 2)])
def test_config_rejects_a_repeated_k(k_list):
    # a repeat would sample and select every task of that K twice
    with pytest.raises(ValueError, match=r"^k_list must not repeat a value, got \("):
        small_config(k_list=k_list)


@pytest.mark.parametrize("key", ["k_list", "n_all"])
def test_config_rejects_an_empty_list_by_key(key):
    with pytest.raises(ValueError, match=f"^{key} must not be empty$"):
        small_config(**{key: ()})


@pytest.mark.parametrize(
    "seed", [-1, 2.0, None, (4, 2), True], ids=["negative", "float", "none", "entropy-sequence", "true"]
)
def test_config_seed_checked_before_any_replicate(seed, monkeypatch):
    # the seed rule is select's: an integer >= 0, numpy's included
    calls = []
    monkeypatch.setattr(bench, "_replicate", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got "):
        run_experiment(small_config(seed=seed))
    assert calls == []
    assert small_config(seed=np.int64(7)).seed == 7


def test_config_file_seed_checked_before_any_replicate(monkeypatch):
    calls = []
    monkeypatch.setattr(bench, "_replicate", lambda *args: calls.append(args))
    text = "distribution = poisson\nrho = 0.3\nr = 3\nk_list = 2\nn_all = 20,30\nmethod = svps score\nseed = -1\n"
    with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got -1$"):
        run_experiment(parse_config(io.StringIO(text)))
    assert calls == []


def test_negative_binomial_cap_checked_up_front():
    # the sampler needs max M < trials; peak mean rho (1 + r) 1.5^2 = 9 here
    with pytest.raises(ValueError, match="negative_binomial mean cap exceeded: needs max mean < 5, got 9$"):
        small_config(distribution=EdgeDistribution("negative_binomial"), rho=1.0, r=3.0)
    # at peak == trials the binomial is allowed and the negative binomial is not
    small_config(distribution=EdgeDistribution("binomial", trials=9), rho=1.0, r=3.0)
    with pytest.raises(ValueError, match="mean cap"):
        small_config(distribution=EdgeDistribution("negative_binomial", trials=9), rho=1.0, r=3.0)
    # every shipped config stays valid
    configs = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
    assert len(configs) == 15
    for path in configs:
        parse_config(path)


def test_method_labels_must_be_distinct():
    # run_experiment keys results by label, so two specs sharing one
    # would both report one spec's estimates
    twins = (MethodSpec("svps", epsilon=0.05), MethodSpec("svps", epsilon=0.0500000001))
    assert twins[0] != twins[1] and twins[0].label == twins[1].label
    with pytest.raises(ValueError, match="distinct labels"):
        small_config(methods=twins)
    text = "distribution = poisson\nrho = 0.3\nr = 3\nk_list = 2\nn_all = 20,30\n"
    text += "method = cbic score\nmethod = cbic score lambda=1\n"
    with pytest.raises(ValueError, match="distinct labels"):
        parse_config(io.StringIO(text))


@pytest.mark.parametrize(
    "method, message",
    [
        ("svps score epsilon=-1", "line 3: epsilon must be positive"),
        ("svps score epsilon=0", "line 3: epsilon must be positive"),
        ("cbic rsc lambda=-1", "line 3: lam must be nonnegative"),
        ("icl score lambda=0.5", "line 3: lam applies to cbic only, got 0.5 for icl"),
        ("cbic score epsilon=0.1", "line 3: epsilon applies to svps only, got 0.1 for cbic"),
        ("aic score", "line 3: unknown selector 'aic'"),
        ("svps dbscan", "line 3: unknown clusterer 'dbscan'"),
        ("svps score epsilon=abc", "line 3: could not convert"),
        ("svps score tau=1", "line 3: unknown method option 'tau=1'"),
        ("svps", "line 3: method needs 'selector clusterer"),
    ],
)
def test_parse_config_reports_method_errors_by_line(method, message):
    text = f"distribution = poisson\nrho = 0.3\nmethod = {method}\nr = 3\nk_list = 2\nn_all = 20,30\n"
    with pytest.raises(ValueError, match=message):
        parse_config(io.StringIO(text))


@pytest.mark.parametrize(
    "line, message",
    [
        ("replicate = 3", "line 3: unknown key 'replicate'"),
        ("rho = 0.5", "line 3: repeated key 'rho'"),
    ],
)
def test_parse_config_rejects_unknown_and_repeated_keys_by_line(line, message):
    text = f"distribution = poisson\nrho = 0.3\n{line}\nr = 3\nk_list = 2\nn_all = 20,30\nmethod = svps score\n"
    with pytest.raises(ValueError, match=message):
        parse_config(io.StringIO(text))


@pytest.mark.parametrize(
    "line, message",
    [
        ("zero_diagonal = ture", "line 3: zero_diagonal must be true or false, got 'ture'"),
        ("zero_diagonal = on", "line 3: zero_diagonal must be true or false, got 'on'"),
        ("replicates = 2.5", r"line 3: replicates must be an integer, got '2\.5'"),
        ("seed = 1e3", "line 3: seed must be an integer, got '1e3'"),
    ],
)
def test_parse_config_rejects_bad_values_by_key_and_line(line, message):
    text = f"distribution = poisson\nrho = 0.3\n{line}\nr = 3\nk_list = 2\nn_all = 20,30\nmethod = svps score\n"
    with pytest.raises(ValueError, match=message):
        parse_config(io.StringIO(text))


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("rho", "0.3x", "line 2: rho must be a number, got '0.3x'"),
        ("r", "", "line 3: r must be a number, got ''"),
        ("k_list", "2,x", "line 4: k_list must be comma-separated integers, got '2,x'"),
        ("n_all", "20,30.5", r"line 5: n_all must be comma-separated integers, got '20,30\.5'"),
        # well-formed numbers out of range, named by key
        ("k_list", "0", r"k_list entries must be >= 1, got \(0,\)"),
        ("k_list", "2,-1", r"k_list entries must be >= 1, got \(2, -1\)"),
        ("k_list", "2,2", r"k_list must not repeat a value, got \(2, 2\)"),
        ("n_all", "0,20", r"n_all entries must be >= 1, got \(0, 20\)"),
        ("n_all", "-3,20", r"n_all entries must be >= 1, got \(-3, 20\)"),
        ("n_all", "20,30,0", r"n_all entries must be >= 1, got \(20, 30, 0\)"),
        ("rho", "inf", "rho must be finite and positive, got inf"),
        ("rho", "nan", "rho must be finite and positive, got nan"),
        ("rho", "0", "rho must be finite and positive, got 0"),
        ("r", "inf", "r must be finite and positive, got inf"),
        ("r", "-2", "r must be finite and positive, got -2"),
    ],
)
def test_parse_config_names_bad_required_numbers(key, value, message):
    values = {"rho": "0.3", "r": "3", "k_list": "2", "n_all": "20,30", key: value}
    text = "distribution = poisson\n" + "".join(f"{k} = {v}\n" for k, v in values.items()) + "method = svps score\n"
    with pytest.raises(ValueError, match=message):
        parse_config(io.StringIO(text))


@pytest.mark.parametrize("value, expected", [("TRUE", True), ("yes", True), ("1", True),
                                             ("False", False), ("NO", False), ("0", False)])
def test_parse_config_zero_diagonal_values(value, expected):
    text = f"distribution = poisson\nrho = 0.3\nr = 3\nk_list = 2\nn_all = 20,30\nmethod = svps score\nzero_diagonal = {value}\n"
    assert parse_config(io.StringIO(text)).zero_diagonal is expected


def test_run_experiment_accounting():
    table = run_experiment(small_config())
    assert len(table.rows) == 1
    k, method, accuracy, replicates, mean_khat, failures = table.rows[0]
    assert k == 2 and replicates == 6
    assert 0.0 <= accuracy <= 1.0
    hits = round(accuracy * replicates)
    misses = replicates - hits - failures
    assert hits + misses + failures == replicates


def test_run_experiment_reproducible_and_parallel_equal():
    config = small_config(replicates=5)
    a = run_experiment(config, jobs=1)
    b = run_experiment(config, jobs=1)
    c = run_experiment(config, jobs=2)
    assert a == b == c


def test_run_experiment_rejects_fewer_than_one_job():
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs"):
            run_experiment(small_config(replicates=1), jobs=jobs)
    # a bool or a fraction is no worker count, checked before any replicate runs
    for jobs in (2.5, True):
        with pytest.raises(ValueError, match=rf"^jobs must be an integer >= 1, got {jobs}$"):
            run_experiment(small_config(replicates=1), jobs=jobs)


def test_adding_methods_keeps_sampled_networks():
    # replicate streams depend only on (seed, K, rep), so per-method
    # results are unchanged when another method joins the config
    one = run_experiment(small_config())
    both = run_experiment(
        small_config(
            methods=(
                MethodSpec("svps", "score", epsilon=0.05),
                MethodSpec("icl", "score"),
            )
        )
    )
    svps_rows = [r for r in both.rows if r[1] == "svps-score-eps0.05"]
    assert svps_rows == list(one.rows)


def test_table_to_csv_shape_and_determinism():
    # the file main writes from this text is checked in test_cli
    header = ("K", "method", "accuracy", "replicates", "mean_khat", "failures")
    table = Table(header, ((2, "svps-score-eps0.05", 1.0, 4, "2", 0), (3, "a,b", 0.5, 4, "", 1)))
    text = table.to_csv()
    assert text == table.to_csv()
    assert text == (
        "K,method,accuracy,replicates,mean_khat,failures\n"
        "2,svps-score-eps0.05,1.0,4,2,0\n"
        '3,"a,b",0.5,4,,1\n'
    )
    assert Table(header, ()).to_csv() == "K,method,accuracy,replicates,mean_khat,failures\n"


def test_run_lesmis_grid_layout():
    table = run_lesmis(load_lesmis(), tau_list=(0.1,), seed=0)
    keys = [(r[0], r[1], r[2]) for r in table.rows]
    assert keys == [
        ("score", "svps", "tau=0.1"),
        ("score", "cbic", "weighted"),
        ("score", "icl", "weighted"),
        ("rsc", "svps", "tau=0.1"),
        ("rsc", "cbic", "weighted"),
        ("rsc", "icl", "weighted"),
        ("score", "cbic", "binarized"),
        ("score", "icl", "binarized"),
    ]
    assert table.rows[0][3] == 6


def test_run_lesmis_non_integer_weights_empty_only_the_weighted_likelihood_cells():
    half = WeightedAdjacency(load_lesmis().weights / 2)
    table = run_lesmis(half, tau_list=(0.1,))
    assert len(table.rows) == 8
    for clusterer, selector, variant, k_hat in table.rows:
        if variant == "weighted":
            assert k_hat == "", (clusterer, selector)
        else:
            assert isinstance(k_hat, int), (clusterer, selector, variant)


def test_domain_errors_count_as_failures(monkeypatch):
    def failing(*args, **kwargs):
        raise FitError("forced failure")

    monkeypatch.setattr(bench, "select", failing)
    table = run_experiment(small_config(replicates=2))
    assert table.rows == ((2, "svps-score-eps0.05", 0.0, 2, "", 2),)
    table = run_lesmis(load_lesmis(), tau_list=(0.1,))
    assert len(table.rows) == 8
    assert all(row[3] == "" for row in table.rows)


def test_programming_errors_propagate(monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("not a domain error")

    monkeypatch.setattr(bench, "select", broken)
    with pytest.raises(KeyError):
        run_experiment(small_config(replicates=1))
    with pytest.raises(KeyError):
        run_lesmis(load_lesmis(), tau_list=(0.1,))
