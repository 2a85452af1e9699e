import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import surfmc
from helpers import read_results_csv
from surfmc import ConfigError, ExperimentConfig, build_layout, harness
from surfmc.cli import main as cli_main
from surfmc.harness import (
    ENHANCED,
    FREE_ENERGY,
    SINGLE_TEMP,
    STANDARD,
    TRUNCATION_MARKER,
    CampaignCell,
    build_half_chain,
    fatal_pattern_suite,
    format_results_csv,
    make_model,
    oracle_check,
    paired_comparison_pvalue,
    run_campaign,
    scaling_probe,
    write_plot_data,
    write_results_csv,
)
from surfmc.stats import mcnemar_one_sided_pvalue, wilson_interval


def tiny_config(**kw):
    base = dict(
        L_values=(3,),
        p_values=(0.1,),
        seed=9,
        max_trials=128,
        target_logical_errors=None,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config validation


@pytest.mark.parametrize(
    "kw",
    [
        dict(L_values=()),
        dict(L_values=(1,)),
        dict(p_values=(0.8,)),
        dict(p_values=(-0.1,)),
        dict(model_kind="bogus"),
        dict(algorithms=("nope",)),
        dict(algorithms=()),
        dict(max_trials=None),  # no stop rule at all
        dict(max_trials=0),
        dict(workers=0),
        dict(n_sample=0),
        dict(n_temperatures=4),
        dict(L_values=("a",)),
        dict(p_values=("0.1",)),
        # no logical error ever happens at p = 0, so the target is never met
        dict(p_values=(0.1, 0.0), max_trials=None, target_logical_errors=500),
        dict(burn_in=-1),
        dict(refine_steps=-1),
        dict(beta_star_factor=-0.5),
        # beta_bar is undefined once a flip is at least as likely as none
        dict(model_kind="independent_xz", p_values=(0.1, 0.6)),
        dict(model_kind="independent_xz", p_values=(0.5,)),
        dict(seed="1"),
        dict(seed=-1),
        dict(burn_in="x"),
        dict(max_trials=10.5),
        dict(n_temperatures="21"),
        dict(beta_star_factor="0.85"),
        dict(model_kind=["depolarizing"]),
        dict(beta_star_factor=math.nan),
    ],
)
def test_config_rejects(kw):
    with pytest.raises(ConfigError):
        tiny_config(**kw).validate()


@pytest.mark.parametrize(
    "kw",
    [
        dict(L_values=(3, 5, 3)),
        dict(p_values=(0.1, 0.10)),
        dict(p_values=(0.1, 0.13, np.float64(0.13))),
        dict(algorithms=(STANDARD, SINGLE_TEMP, STANDARD)),
    ],
)
def test_config_rejects_repeated_cells(kw):
    # a repeated value would run its cells twice, on different streams
    with pytest.raises(ConfigError, match="must not repeat"):
        tiny_config(**kw).validate()


@pytest.mark.parametrize(
    "kw",
    [
        dict(L_values=(1,)),
        dict(p_values=(math.nan,)),
        dict(seed=True),
        # fields that take no None: before, each failed later with a TypeError
        dict(n_temperatures=None),
        dict(workers=None),
    ],
)
def test_config_is_valid_once_built(kw):
    with pytest.raises(ConfigError):
        tiny_config(**kw)


@pytest.mark.parametrize(
    "kw", [dict(L_values=3), dict(p_values=0.1), dict(algorithms=STANDARD)]
)
def test_config_refuses_a_scalar_or_string_for_a_list(kw):
    # before, a scalar raised TypeError and a string was read letter by letter
    (name, value), = kw.items()
    with pytest.raises(ConfigError, match=f"^{name} must be a list, got {value!r}$"):
        tiny_config(**kw)


def test_config_stores_lists_as_tuples():
    cfg = tiny_config(L_values=[3, 5], p_values=[0.1], algorithms=[STANDARD, ENHANCED])
    assert (cfg.L_values, cfg.p_values, cfg.algorithms) == ((3, 5), (0.1,), (STANDARD, ENHANCED))


def test_make_model():
    assert make_model("depolarizing", 0.1).kind == "depolarizing"
    m = make_model("independent_xz", 0.1)
    assert m.p_b == m.p_p == 0.1
    with pytest.raises(ConfigError):
        make_model("bogus", 0.1)


# ---------------------------------------------------------------------------
# campaigns


def test_noise_free_campaign_has_zero_rates():
    res = run_campaign(tiny_config(p_values=(0.0,)))
    cell = res.cell(3, 0.0)
    assert cell.trials == 128
    assert all(f == 0 for f in cell.failures.values())
    for row in res.rows():
        assert row[6] == 0.0


def test_campaign_deterministic_bytes():
    cfg = tiny_config()
    a = format_results_csv(run_campaign(cfg))
    b = format_results_csv(run_campaign(cfg))
    assert a == b


def test_campaign_worker_count_invariance():
    small = tiny_config(max_trials=64)
    serial = format_results_csv(run_campaign(small))
    parallel = format_results_csv(run_campaign(tiny_config(max_trials=64, workers=2)))
    assert serial == parallel


def test_campaign_worker_count_invariance_over_several_batches(monkeypatch):
    # the error target is met in the fifth 64-trial batch, so two and three
    # workers both run batches past the stop that must be dropped unmerged
    monkeypatch.delenv("SURFMC_WORKERS", raising=False)
    results = [
        run_campaign(tiny_config(max_trials=None, target_logical_errors=25, workers=workers))
        for workers in (1, 2, 3)
    ]
    assert results[0].cell(3, 0.1).trials == 5 * 64
    serial, *parallel = [format_results_csv(r) for r in results]
    assert parallel == [serial, serial]


def test_campaign_exact_trial_budget():
    res = run_campaign(tiny_config(max_trials=100))
    assert res.cell(3, 0.1).trials == 100


def test_campaign_stops_on_target_errors():
    cfg = tiny_config(max_trials=100_000, target_logical_errors=12)
    res = run_campaign(cfg)
    cell = res.cell(3, 0.1)
    assert min(cell.failures[a] for a in cfg.algorithms) >= 12
    # paired mode: the stop counts the slowest algorithm, so batch overshoot
    # aside, nothing runs much past the target
    assert cell.trials <= 100_000


def test_paired_trials_share_syndromes():
    cfg = tiny_config(max_trials=64)
    res = run_campaign(cfg, keep_trials=True)
    records = res.cell(3, 0.1).records
    assert len(records) == 64
    for rec in records:
        assert set(rec.verdicts) == set(cfg.algorithms)
        assert set(rec.successes) == set(cfg.algorithms)
        for alg in cfg.algorithms:
            assert rec.successes[alg] == (rec.verdicts[alg] == rec.true_class)
    assert len({r.trial for r in records}) == 64


def test_csv_round_trip(tmp_path):
    res = run_campaign(tiny_config(max_trials=64))
    path = tmp_path / "out.csv"
    write_results_csv(res, str(path))
    rows = read_results_csv(path)
    assert rows == res.rows()


def test_plot_data(tmp_path):
    cfg = tiny_config(max_trials=128, p_values=(0.05, 0.1))
    res = run_campaign(cfg)
    files = write_plot_data(res, str(tmp_path))
    assert len(files) == len(cfg.L_values) * (len(cfg.algorithms) - 1)
    for path in files:
        lines = open(path).read().strip().split("\n")
        assert len(lines) == 2
        for line in lines:
            p, ratio = line.split()
            float(p), float(ratio)


def test_campaign_hands_burn_in_to_free_energy(monkeypatch):
    # before, free_energy rows ignored burn_in; it is passed positionally, as
    # every other argument of the call
    seen = []
    real = harness.decode_free_energy

    def spy(*args):
        seen.append(args[7])
        return real(*args)

    monkeypatch.setattr(harness, "decode_free_energy", spy)
    run_campaign(tiny_config(algorithms=(FREE_ENERGY,), burn_in=5, max_trials=2))
    assert seen == [5, 5]


def test_numpy_cell_values_write_python_number_bytes(tmp_path):
    # numpy scalars from a caller's sweep: the CSV and plot files read as for
    # Python numbers, not "np.float64(0.1)"
    outputs = []
    for L, p in ((3, 0.1), (np.int64(3), np.float64(0.1))):
        res = run_campaign(tiny_config(L_values=(L,), p_values=(p,), max_trials=16))
        files = write_plot_data(res, str(tmp_path / type(p).__name__))
        outputs.append((format_results_csv(res),
                        [(os.path.basename(f), Path(f).read_bytes()) for f in files]))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].splitlines()[1].startswith("3,0.1,depolarizing,")


def test_paired_comparison_pvalue_bookkeeping():
    cell = CampaignCell(L=3, p=0.1)
    cell.trials = 100
    cell.failures = {STANDARD: 30, ENHANCED: 20, SINGLE_TEMP: 10}
    cell.discordant = {
        (STANDARD, ENHANCED): (15, 5),
        (STANDARD, SINGLE_TEMP): (25, 5),
        (ENHANCED, SINGLE_TEMP): (14, 4),
    }
    ref, pv = paired_comparison_pvalue(cell, SINGLE_TEMP, (STANDARD, ENHANCED))
    assert ref == ENHANCED  # the harder (lower-rate) reference
    assert pv == pytest.approx(mcnemar_one_sided_pvalue(14, 4))


def test_sampler_beats_standard_near_threshold():
    # documented direction check: at L=5, p=0.13 the sampler's rate is below
    # plain matching's with high confidence in a paired campaign
    cfg = ExperimentConfig(
        L_values=(5,), p_values=(0.13,), seed=513,
        algorithms=(STANDARD, SINGLE_TEMP),
        target_logical_errors=500, max_trials=20_000,
    )
    res = run_campaign(cfg)
    cell = res.cell(5, 0.13)
    assert cell.rate(SINGLE_TEMP) < cell.rate(STANDARD)
    ref, pvalue = paired_comparison_pvalue(cell, SINGLE_TEMP, (STANDARD,))
    assert ref == STANDARD and pvalue <= 0.05


# ---------------------------------------------------------------------------
# statistics helpers


def test_wilson_edge_cases():
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0 and 0 < hi < 0.1


def test_wilson_shrinks_like_sqrt():
    lo1, hi1 = wilson_interval(50, 500)
    lo4, hi4 = wilson_interval(200, 2000)
    assert (hi4 - lo4) == pytest.approx((hi1 - lo1) / 2, rel=0.12)


def test_mcnemar():
    assert mcnemar_one_sided_pvalue(0, 0) == 1.0
    assert mcnemar_one_sided_pvalue(10, 10) > 0.5
    assert mcnemar_one_sided_pvalue(30, 5) < 0.001
    # one-sided: favoring the candidate gives small p, the reverse large
    assert mcnemar_one_sided_pvalue(5, 30) > 0.999


# ---------------------------------------------------------------------------
# fatal patterns


def test_build_half_chain(layout5):
    frame = build_half_chain(layout5, 3, y_at=1)
    assert frame.weight() == 3
    paulis = [frame.pauli_at(q) for q in range(layout5.n_qubits) if frame.pauli_at(q) != "I"]
    assert sorted(paulis) == ["X", "X", "Y"]


def test_build_half_chain_reaches_the_far_boundary(layout3):
    # length L runs from boundary to boundary, and y_at may mark its last qubit
    frame = build_half_chain(layout3, 3, y_at=2)
    assert layout3.syndrome_of(frame).p_anyons == ()
    assert [frame.pauli_at(layout3.qubit_index[(r, 2)]) for r in (4, 2, 0)] == ["X", "X", "Y"]


@pytest.mark.parametrize("length, y_at, name", [
    (4, None, "length"), (0, None, "length"), (-1, None, "length"),
    (2.0, None, "length"), (True, None, "length"),
    (2, 5, "y_at"), (2, 2, "y_at"), (2, -1, "y_at"), (2, 1.0, "y_at"), (2, True, "y_at"),
])
def test_build_half_chain_refuses_bad_length_or_y_at(layout3, length, y_at, name):
    with pytest.raises(surfmc.InvalidParameterError, match=f"^{name} must be an integer in"):
        build_half_chain(layout3, length, y_at)


def test_fatal_pattern_suite_passes():
    report = fatal_pattern_suite((3, 5))
    assert report.all_passed
    assert len(report.cases) == 6
    assert "PASS" in report.summary()


def test_fatal_pattern_suite_rejects_even_L():
    from surfmc import InvalidParameterError

    with pytest.raises(InvalidParameterError):
        fatal_pattern_suite((4,))


# ---------------------------------------------------------------------------
# oracle check and scaling probe


def test_oracle_check_quick():
    res = oracle_check(L=3, p=0.1, n_syndromes=80, n_sample_factor=4, seed=7)
    assert res.passed
    assert res.agreement >= res.pass_bar
    assert 0.7 <= res.oracle_success <= 1.0
    assert "PASS" in res.summary()


ORACLE_LINE = (
    "agreement(single-temperature, oracle) = 0.9233 over 300 syndromes; oracle "
    "success = 0.9233 (pass bar 0.8932), single-temperature success = 0.9000 -> PASS"
)


def test_oracle_check_output_pinned_cold_and_warm():
    # the first call runs with the matcher memos cleared; the second reads
    # the memos the first filled
    from surfmc import matching

    memos = (matching._solve_species, matching._descend)
    for memo in memos:
        memo.cache_clear()
    assert oracle_check(3, 0.1, 300, seed=2024).summary() == ORACLE_LINE
    assert all(memo.cache_info().currsize for memo in memos)
    assert oracle_check(3, 0.1, 300, seed=2024).summary() == ORACLE_LINE


def _oracle_check_per_syndrome(L, p, n_syndromes, seed, n_sample_factor=10):
    """``oracle_check`` as a plain loop that decodes every syndrome afresh."""
    from surfmc import (
        decode_enhanced, decode_single_temperature, default_single_temp_config, sample_frame,
    )
    from surfmc.oracle import exact_decoder

    layout = build_layout(L)
    model = make_model("depolarizing", p)
    cfg = default_single_temp_config(model, layout)
    cfg = dataclasses.replace(cfg, n_sample=n_sample_factor * cfg.n_sample)
    agree = oracle_ok = sampler_ok = 0
    syndromes = []
    for i in range(n_syndromes):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i, 0)))
        )
        frame = sample_frame(model, layout, rng)
        syndrome = layout.syndrome_of(frame)
        syndromes.append(syndrome)
        _, chain_set = decode_enhanced(layout, syndrome, model)
        verdict = decode_single_temperature(
            layout, syndrome, model, cfg, chain_set,
            np.random.SeedSequence(seed, spawn_key=(i, 1)),
        )
        oracle_cls = exact_decoder(layout, syndrome, model)
        true_cls = layout.class_of(frame)
        agree += verdict.cls == oracle_cls
        oracle_ok += oracle_cls == true_cls
        sampler_ok += verdict.cls == true_cls
    s = oracle_ok / n_syndromes
    bar = s - 1.96 * math.sqrt(s * (1.0 - s) / n_syndromes)
    result = harness.OracleCheckResult(
        n_syndromes, agree / n_syndromes, s, sampler_ok / n_syndromes, bar,
        agree / n_syndromes >= bar,
    )
    return result, syndromes


@pytest.mark.parametrize("p", [0.05, 0.10])
def test_oracle_check_equals_a_per_syndrome_loop(p):
    # the per-call table decodes each distinct syndrome once; every field
    # equals the loop that decodes each syndrome afresh
    expected, syndromes = _oracle_check_per_syndrome(3, p, 400, seed=17)
    assert len(set(syndromes)) < len(syndromes)  # the table is reused
    assert oracle_check(3, p, 400, seed=17) == expected


def test_oracle_check_decides_each_distinct_syndrome_once(monkeypatch):
    calls = {"exact_decoder": [], "decode_enhanced": []}
    for name in calls:
        def counting(layout, syndrome, model, _fn=getattr(harness, name), _seen=calls[name]):
            _seen.append(syndrome)
            return _fn(layout, syndrome, model)
        monkeypatch.setattr(harness, name, counting)
    layout, model = build_layout(3), make_model("depolarizing", 0.05)
    syndromes = [
        layout.syndrome_of(harness.sample_frame(model, layout, np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(5, spawn_key=(i, 0))))))
        for i in range(200)
    ]
    oracle_check(3, 0.05, 200, n_sample_factor=1, seed=5)
    distinct = list(dict.fromkeys(syndromes))
    assert len(distinct) < len(syndromes)
    assert calls["exact_decoder"] == calls["decode_enhanced"] == distinct


def test_scaling_probe_structure():
    res = scaling_probe(
        p=0.12, L_values=(3,), seed=31, target_errors=40, max_trials=600,
        max_n_sample=16,
    )
    assert res.p == 0.12
    assert len(res.points) == 1
    pt = res.points[0]
    assert pt.L == 3
    if not pt.resolved:
        assert pt.upper_bound is None and pt.lower_bound >= 1
    assert res.exponent is None  # single size: fit refused
    assert "scaling probe" in res.summary()


# ---------------------------------------------------------------------------
# CLI


def test_cli_campaign(tmp_path):
    out = tmp_path / "res.csv"
    code = cli_main([
        "campaign", "--L", "3", "--p", "0.1", "--seed", "5",
        "--trials", "64", "--out", str(out),
        "--plot-data-dir", str(tmp_path / "plots"),
    ])
    assert code == 0
    rows = read_results_csv(out)
    assert {r[3] for r in rows} == {STANDARD, ENHANCED, SINGLE_TEMP}
    assert all(r[4] == 64 for r in rows)
    assert (tmp_path / "plots").is_dir()


def test_cli_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "L_values": [3],
        "p_values": [0.1],
        "seed": 123,
        "max_trials": 64,
        "target_logical_errors": None,
        "algorithms": ["standard_mwpm"],
    }))
    out = tmp_path / "res.csv"
    code = cli_main([
        "campaign", "--config", str(cfg_file), "--seed", "777", "--out", str(out),
    ])
    assert code == 0
    rows = read_results_csv(out)
    assert all(r[9] == 777 for r in rows)  # flag overrides file seed
    assert {r[3] for r in rows} == {STANDARD}


def test_cli_config_errors(tmp_path, capsys):
    bad_files = []
    for k, bad in enumerate((
        {"L_values": 3},
        {"L_values": ["a"]},
        {"burn_in": "x"},
        {"seed": "1"},
        {"max_trials": 10.5},
        {"n_sample": 2.5},
        {"beta_star_factor": "0.85"},
        {"beta_star_factor": math.nan},  # json writes and reads NaN
        {"model_kind": 3},
    )):
        path = tmp_path / f"cfg{k}.json"
        path.write_text(json.dumps({"L_values": [3], "p_values": [0.1], "seed": 1,
                                    "max_trials": 10, **bad}))
        bad_files.append(["campaign", "--config", str(path)])
    out = ["--out", str(tmp_path / "res.csv")]
    for argv in [
        ["campaign", "--p", "0.1", "--seed", "1"],  # missing --L
        ["campaign", "--L", "3", "--p", "0.9", "--seed", "1", "--trials", "10"],
        ["campaign", "--L", "3", "--p", "0.1", "--seed", "1",
         "--config", str(tmp_path / "missing.json")],
        *bad_files,
        ["campaign", "--L", "3", "--p", "0", "--seed", "1"],  # would never end
        ["campaign", "--L", "3", "--p", "0.1", "--seed", "1", "--trials", "10",
         "--refine-steps", "-1"],
        ["campaign", "--L", "3", "--p", "0.1", "--seed", "1", "--trials", "10",
         "--beta-star-factor", "-1"],
        # the samplers would silently copy the matcher: beta_bar is undefined
        ["campaign", "--model", "independent_xz", "--L", "3", "--p", "0.6", "--seed", "1",
         "--trials", "64", "--algorithms", "enhanced_mwpm,single_temperature"],
        ["scaling-probe", "--p", "0.1", "--L", "", "--seed", "1"],
        ["scaling-probe", "--p", "0.1", "--L", "3", "--seed", "1", "--confidence", "1.5"],
        # a cap below the smallest n_sample the search tries
        ["scaling-probe", "--p", "0.1", "--L", "3", "--seed", "1", "--max-n-sample", "0"],
        ["scaling-probe", "--p", "0.1", "--L", "3", "--seed", "1", "--max-n-sample", "-5"],
        # no trial fails at p = 0, so no n_sample can certify
        ["scaling-probe", "--p", "0", "--L", "3", "--seed", "1"],
        ["fatal-patterns", "--L", ""],
        ["oracle-check", "--seed", "-1", "--syndromes", "2"],
        ["oracle-check", "--syndromes", "2", "--n-sample-factor", "0"],
        # bad flag values and unknown flags, caught by the parser
        ["campaign", "--L", "3,x", "--p", "0.1", "--seed", "1"],
        ["campaign", "--L", "3", "--p", "0.1", "--seed", "1", "--trials", "abc"],
        ["campaign", "--L", "3", "--p", "0.1", "--seed", "1", "--no-such-flag"],
        ["no-such-command"],
    ]:
        code = cli_main(argv + out if argv[0] == "campaign" else argv)
        captured = capsys.readouterr()
        assert code == 1, argv
        assert len(captured.err.strip().splitlines()) == 1, (argv, captured.err)
        assert captured.out == "", argv
    assert not (tmp_path / "res.csv").exists()


@pytest.mark.parametrize(
    "cells",
    [
        ["--L", "3,3", "--p", "0.1"],
        ["--L", "3", "--p", "0.1,0.10"],
        ["--L", "3", "--p", "0.1", "--algorithms", "standard_mwpm,standard_mwpm"],
    ],
)
def test_cli_campaign_refuses_repeated_cells(capsys, tmp_path, cells):
    out = tmp_path / "res.csv"
    code = cli_main(["campaign", *cells, "--trials", "2", "--seed", "1", "--out", str(out),
                     "--plot-data-dir", str(tmp_path / "plots")])
    captured = capsys.readouterr()
    assert code == 1
    assert len(captured.err.strip().splitlines()) == 1 and "must not repeat" in captured.err
    assert captured.out == ""
    assert not out.exists() and not (tmp_path / "plots").exists()


@pytest.mark.parametrize(
    "override",
    [
        {"p_values": [False]},
        {"max_trials": True},
        {"seed": True},
        {"n_sample": True},
        {"beta_star_factor": True},
    ],
    ids=["p_false", "max_trials_true", "seed_true", "n_sample_true", "beta_star_factor_true"],
)
def test_cli_campaign_refuses_json_booleans(capsys, tmp_path, override):
    # a JSON true or false is a Python bool, which is a number: before, it
    # ran as 1 or 0 (p = 0 cells printed and written as "False")
    config = {"L_values": [3], "p_values": [0.1], "seed": 1, "max_trials": 2, **override}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "res.csv"
    code = cli_main(["campaign", "--config", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert len(captured.err.strip().splitlines()) == 1, captured.err
    assert captured.out == ""
    assert not out.exists()


def test_cli_fatal_patterns():
    assert cli_main(["fatal-patterns", "--L", "3,5"]) == 0


def test_cli_oracle_check():
    code = cli_main([
        "oracle-check", "--L", "3", "--p", "0.1", "--syndromes", "40",
        "--n-sample-factor", "3", "--seed", "7",
    ])
    assert code == 0


def test_workers_env_override(monkeypatch):
    monkeypatch.setenv("SURFMC_WORKERS", "1")
    cfg = tiny_config(max_trials=64, workers=4)
    expected = format_results_csv(run_campaign(tiny_config(max_trials=64)))
    assert format_results_csv(run_campaign(cfg)) == expected


@pytest.mark.parametrize("value", ["abc", "0", "-2"])
def test_cli_rejects_bad_workers_env(monkeypatch, capsys, tmp_path, value):
    monkeypatch.setenv("SURFMC_WORKERS", value)
    code = cli_main(["campaign", "--L", "3", "--p", "0.1", "--seed", "1",
                     "--trials", "10", "--out", str(tmp_path / "res.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert "SURFMC_WORKERS" in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "res.csv").exists()


@pytest.mark.parametrize("out", ["no_such_dir/res.csv", "."])
def test_cli_campaign_checks_out_path_before_running(monkeypatch, capsys, tmp_path, out):
    def never(cfg):
        raise AssertionError("run_campaign ran before the output path was checked")

    monkeypatch.setattr("surfmc.cli.run_campaign", never)
    code = cli_main(["campaign", "--L", "3", "--p", "0.1", "--seed", "1", "--trials", "5",
                     "--out", str(tmp_path / out)])
    captured = capsys.readouterr()
    assert code == 1
    assert len(captured.err.strip().splitlines()) == 1 and captured.out == ""


@pytest.mark.parametrize("plot_dir", ["x.csv", "x.csv/plots"])
def test_cli_campaign_checks_plot_data_dir_before_running(monkeypatch, capsys, tmp_path,
                                                          plot_dir):
    # an existing file, or a path below one, can never hold the plot data
    def never(cfg):
        raise AssertionError("run_campaign ran before --plot-data-dir was checked")

    monkeypatch.setattr("surfmc.cli.run_campaign", never)
    (tmp_path / "x.csv").write_text("")
    code = cli_main(["campaign", "--L", "3", "--p", "0.1", "--seed", "1", "--trials", "5",
                     "--out", str(tmp_path / "y.csv"),
                     "--plot-data-dir", str(tmp_path / plot_dir)])
    captured = capsys.readouterr()
    assert code == 1
    assert "--plot-data-dir" in captured.err and len(captured.err.strip().splitlines()) == 1
    assert captured.out == "" and not (tmp_path / "y.csv").exists()


def test_cli_campaign_plot_data_needs_standard(monkeypatch, capsys, tmp_path):
    # every ratio is the standard_mwpm rate over another's: without it the
    # flag used to be dropped silently after the whole campaign had run
    def never(cfg):
        raise AssertionError("run_campaign ran before --plot-data-dir was checked")

    monkeypatch.setattr("surfmc.cli.run_campaign", never)
    code = cli_main(["campaign", "--L", "3", "--p", "0.1", "--seed", "1", "--trials", "4",
                     "--algorithms", "enhanced_mwpm,single_temperature",
                     "--out", str(tmp_path / "y.csv"),
                     "--plot-data-dir", str(tmp_path / "plots")])
    captured = capsys.readouterr()
    assert code == 1
    assert "--plot-data-dir" in captured.err and len(captured.err.strip().splitlines()) == 1
    assert captured.out == "" and not (tmp_path / "y.csv").exists()
    assert not (tmp_path / "plots").exists()


@pytest.mark.parametrize("field", ["n_temperatures", "workers", "burn_in"])
def test_cli_campaign_refuses_null_for_a_required_field(monkeypatch, capsys, tmp_path, field):
    def never(cfg):
        raise AssertionError("run_campaign ran on an invalid config")

    monkeypatch.setattr("surfmc.cli.run_campaign", never)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"L_values": [3], "p_values": [0.1], "seed": 1,
                                "max_trials": 2, field: None}))
    code = cli_main(["campaign", "--config", str(path), "--out", str(tmp_path / "y.csv")])
    captured = capsys.readouterr()
    assert code == 1
    assert field in captured.err and len(captured.err.strip().splitlines()) == 1
    assert captured.out == "" and not (tmp_path / "y.csv").exists()


def test_cli_campaign_interrupt_flushes_partial_results(monkeypatch, capsys, tmp_path):
    # Ctrl-C in the first cell: the partial CSV and the plot data are written,
    # and the run exits 130 with one line on stderr
    monkeypatch.delenv("SURFMC_WORKERS", raising=False)
    real = harness._run_one_trial

    def interrupted(spec, trial):
        if spec.cell_index == 0 and trial == 3:
            raise KeyboardInterrupt
        return real(spec, trial)

    monkeypatch.setattr(harness, "_run_one_trial", interrupted)
    out = tmp_path / "res.csv"
    code = cli_main(["campaign", "--L", "3,5", "--p", "0.1", "--seed", "1", "--trials", "8",
                     "--out", str(out), "--plot-data-dir", str(tmp_path / "plots")])
    err = capsys.readouterr().err
    assert code == 130
    assert out.read_text().splitlines()[-1] == TRUNCATION_MARKER
    assert len(err.strip().splitlines()) == 1 and err.startswith("interrupted")
    # no cell ran a trial, so every ratio file is there and empty
    plots = sorted((tmp_path / "plots").iterdir())
    assert [f.name for f in plots] == [
        f"ratio_standard_over_{alg}_L{L}.dat"
        for alg in (ENHANCED, SINGLE_TEMP) for L in (3, 5)
    ]
    assert all(f.read_text() == "" for f in plots)


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as stop:
        cli_main(["--help"])
    assert stop.value.code == 0
    assert "campaign" in capsys.readouterr().out


@pytest.mark.parametrize("count", ["0", "-3"])
def test_cli_oracle_check_rejects_syndrome_count(capsys, count):
    code = cli_main(["oracle-check", "--syndromes", count])
    err = capsys.readouterr().err
    assert code == 1
    assert "n_syndromes" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("count", [2.5, 3.0])
def test_oracle_check_takes_an_integer_syndrome_count(count):
    with pytest.raises(surfmc.InvalidParameterError, match="n_syndromes"):
        oracle_check(3, 0.1, count)


@pytest.mark.parametrize(
    "call",
    [
        lambda: oracle_check(3, 0.1, 2, seed=1.5),
        lambda: oracle_check(3, 0.1, 2, seed=True),
        lambda: scaling_probe(0.1, (3,), seed=1, target_errors=1, max_trials=8,
                              max_n_sample=2.5),
        # p = 0.9 would score with negative energy weights
        lambda: fatal_pattern_suite((3,), p=0.9),
    ],
    ids=["oracle_seed_1.5", "oracle_seed_true", "probe_max_n_sample_2.5", "fatal_p_0.9"],
)
def test_entry_points_refuse_bad_numbers(call):
    with pytest.raises((ConfigError, surfmc.InvalidParameterError)) as err:
        call()
    assert "\n" not in str(err.value)


def test_import_loads_neither_networkx_nor_scipy():
    # networkx is imported only by the tests, as the reference matcher; scipy
    # by no module, not even on the run paths: a four-algorithm campaign and
    # its CSV, the oracle check and the paired p-value
    code = (
        "import sys, surfmc; "
        "from surfmc.harness import ALGORITHMS, format_results_csv, oracle_check, "
        "paired_comparison_pvalue; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'networkx', 'scipy'})); "
        "result = surfmc.run_campaign(surfmc.ExperimentConfig(L_values=(3,), p_values=(0.1,), "
        "seed=3, algorithms=ALGORITHMS, max_trials=8, target_logical_errors=None)); "
        "format_results_csv(result); "
        "paired_comparison_pvalue(result.cells[0], ALGORITHMS[2], ALGORITHMS[:2]); "
        "oracle_check(3, 0.1, 5); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(surfmc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]", "[]"]


def test_python_dash_m_runs_the_cli():
    src = str(Path(surfmc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-m", "surfmc", "fatal-patterns", "--L", "3"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert "PASS" in out.stdout
