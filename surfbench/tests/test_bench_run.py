"""Benchmark plumbing: worker-count invariance, metric names, refusal to run
without sources."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import calibrate
import run
import workloads
from surfmc.harness import format_results_csv, run_campaign

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_matchers_campaign_csv_is_identical_at_two_workers_and_one(monkeypatch):
    monkeypatch.delenv("SURFMC_WORKERS", raising=False)
    w = workloads.WORKLOADS["matchers-L11-p0.13-w2"]
    seed = workloads.round_seed(7, 0)
    # 96 trials: a 64-trial and a 32-trial batch, one per pool process
    pooled = format_results_csv(run_campaign(w.config(seed, trials=96)))
    serial = format_results_csv(run_campaign(w.config(seed, trials=96, workers=1)))
    assert w.workers == 2
    assert pooled == serial


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_runs_print_every_declared_metric(capsys):
    spec = _spec()
    args = ["--workload", "free-energy-L5-p0.13", "--seed", "3", "--seconds", "0.1"]
    assert run.main(args + ["--trace", "0"]) == 0
    plain = _last_json(capsys)
    assert run.main(args + ["--trace", "1"]) == 0
    traced = _last_json(capsys)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert set(plain["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for result in (plain, traced):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] == 16
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for result in (plain, traced):
        for name, metric in result["metrics"].items():
            assert metric["unit"] == units[name]
    assert all(plain["metrics"][m]["value"] > 0 for m in plain["metrics"])
    assert traced["metrics"]["mcmc.steps"]["value"] == 80 * 5 ** 4


def test_oracle_round_times_every_syndrome_once():
    out = workloads.run_workload("oracle-L3-p0.10", 5, 0.1)
    assert out.correct and out.failed == 0 and out.attempted == 1000
    assert len(out.trial_seconds) == len(out.scaled_trial_seconds) == 1000
    assert min(out.trial_seconds) > 0.0
    assert sum(out.trial_seconds) == pytest.approx(out.work_seconds)
    # a checkpoint before the round, after it, and about every CHECKPOINT_S in it
    assert len(out.slowdowns) >= 2 + int(out.work_seconds / workloads.CHECKPOINT_S) // 2


def test_scaled_times_divide_by_the_slowdown():
    out = workloads.RunOutcome()
    out.add_times([0.010, 0.030], 2.0)
    assert out.trial_seconds == [0.010, 0.030]
    assert out.scaled_trial_seconds == pytest.approx([0.005, 0.015])
    assert calibrate.kernel() == 12  # a perfect matching of 24 vertices
    assert 0.0 < calibrate.slowdown() < 100.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "surfbench"), tmp_path / "surfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "surfbench/run.py", "--workload", "paper-L7-p0.10",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
