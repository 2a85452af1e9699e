"""The benchmark workloads, their timed loops and their output checks.

A run repeats whole rounds until its time budget is spent (see
``_another_round``).  A campaign round is one ``run_campaign`` call with a
fixed trial budget; an oracle round is one ``oracle_check`` call.  Every
round draws its master seed from the run seed and the round number, so one
run seed always gives the same inputs.  One operation is one trial, or one
syndrome of ``oracle_check``; it fails if its round raises or its own output
check fails.  Host-speed checkpoints (``calibrate.py``) are taken between
rounds, and inside oracle rounds; every measured interval is also kept
scaled by the host's slowdown over it.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import os
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from surfmc import harness
from surfmc.harness import (
    ENHANCED,
    FREE_ENERGY,
    SINGLE_TEMP,
    STANDARD,
    ExperimentConfig,
    format_results_csv,
)

import calibrate
import reference as ref

#: significance level of the one-sided "sampler is worse" McNemar check
MCNEMAR_ALPHA = 1e-3

#: least time between two host-speed checkpoints inside an oracle round
CHECKPOINT_S = 0.25


@dataclass(frozen=True)
class Campaign:
    L: int
    p: float
    algorithms: tuple[str, ...]
    refine_steps: int | None
    workers: int
    round_trials: int
    candidate: str          # must not be worse than the better of the references
    references: tuple[str, ...]

    def config(self, seed: int, trials: int | None = None, workers: int | None = None):
        return ExperimentConfig(
            L_values=(self.L,), p_values=(self.p,), seed=seed,
            algorithms=self.algorithms, refine_steps=self.refine_steps,
            target_logical_errors=None, max_trials=trials or self.round_trials,
            workers=workers or self.workers,
        )


@dataclass(frozen=True)
class OracleCheck:
    L: int
    p: float
    round_syndromes: int


# Campaign rounds are short (about 0.5 s at L = 5 and 7) so that the
# host-speed checkpoints between them follow the host's drift closely.
WORKLOADS = {
    # the paper's headline comparison at default settings (n_sample = L^4)
    "paper-L7-p0.10": Campaign(
        7, 0.10, (STANDARD, ENHANCED, SINGLE_TEMP), 0, 1, 32,
        SINGLE_TEMP, (STANDARD, ENHANCED)),
    # near threshold, blossom-bound, refinement on, the only pool workload;
    # 128 trials are two 64-trial batches, one per worker.  Not in
    # BENCHMARK.json: its trials run in pool processes, where the parent's
    # checkpoints cannot follow the host's drift, and its run-to-run spread
    # stays too close to the bound (see README.md); it runs on request
    "matchers-L11-p0.13-w2": Campaign(
        11, 0.13, (STANDARD, ENHANCED), None, 2, 128,
        ENHANCED, (STANDARD,)),
    # 80 short chains per trial over 20 temperatures, mostly accepted moves
    "free-energy-L5-p0.13": Campaign(
        5, 0.13, (ENHANCED, FREE_ENERGY), 0, 1, 16,
        FREE_ENERGY, (ENHANCED,)),
    # exact enumeration; the pass bar is self-calibrated and a sound sampler
    # failed it for 1 of 40 seeds at 64 syndromes, so a call holds 1000
    "oracle-L3-p0.10": OracleCheck(3, 0.10, 1000),
}


def round_seed(run_seed: int, round_index: int) -> int:
    return int(np.random.SeedSequence([run_seed, round_index]).generate_state(1)[0])


def _another_round(start: float, seconds: float, rounds: int) -> bool:
    """Start a round unless the run would then end more than half a mean
    round past its time budget; every run does at least one round."""
    elapsed = time.perf_counter() - start
    return rounds == 0 or elapsed + 0.5 * elapsed / rounds < seconds


class _PoolPeak(concurrent.futures.ProcessPoolExecutor):
    """Process pool that notes its workers' peak RSS before shutting down."""

    peak_kb = 0

    def shutdown(self, wait=True, *, cancel_futures=False):
        total = 0
        for pid in list(getattr(self, "_processes", None) or {}):
            try:
                with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1])
            except OSError:
                pass
        _PoolPeak.peak_kb = max(_PoolPeak.peak_kb, total)
        super().shutdown(wait=wait, cancel_futures=cancel_futures)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest concurrent pool, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return (own + _PoolPeak.peak_kb) / 1024.0


@dataclass
class RunOutcome:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    work_seconds: float = 0.0    # wall time of the operations, checkpoints excluded
    scaled_seconds: float = 0.0  # the same, scaled to the reference host speed
    pool_seconds: float = 0.0    # workers x wall time of the operations
    trial_seconds: list = field(default_factory=list)         # per operation
    scaled_trial_seconds: list = field(default_factory=list)  # the same, scaled
    slowdowns: list = field(default_factory=list)  # host slowdown at each checkpoint
    records: list = field(default_factory=list)  # TrialRecords of every round
    notes: list = field(default_factory=list)

    def fail_check(self, message: str) -> None:
        self.correct = False
        self.notes.append(message)

    def add_times(self, seconds, slowdown: float) -> None:
        """Operation times measured while the host ran ``slowdown`` times
        slower than the reference."""
        self.trial_seconds += list(seconds)
        self.scaled_trial_seconds += [t / slowdown for t in seconds]


class _Checkpoints:
    """Host slowdown at checkpoints; an interval between two checkpoints is
    scaled by their mean."""

    def __init__(self, out: RunOutcome):
        self.out = out
        self.last = self.take()

    def take(self) -> float:
        f = calibrate.slowdown()
        self.out.slowdowns.append(f)
        return f

    def close_interval(self) -> float:
        """Take a checkpoint; return the slowdown of the interval it closes."""
        before, self.last = self.last, self.take()
        return 0.5 * (before + self.last)


def _check_campaign_round(w: Campaign, result, out: RunOutcome) -> int:
    """Output checks of one round; returns the number of failed trials."""
    cell = result.cells[0]
    n = w.round_trials
    bad = 0
    ids = [r.trial for r in cell.records]
    if ids != list(range(n)) or cell.trials != n:
        out.notes.append(f"trial ids {ids[:3]}...{ids[-3:]} for a budget of {n}")
        return n
    failures = dict.fromkeys(w.algorithms, 0)
    for rec in cell.records:
        ok = (set(rec.verdicts) == set(w.algorithms)
              and all(rec.verdicts[a] in ref.LABELS for a in w.algorithms)
              and rec.true_class in ref.LABELS
              and all(rec.successes[a] == (rec.verdicts[a] == rec.true_class)
                      for a in w.algorithms)
              and rec.wall_time > 0.0)
        bad += not ok
        for a in w.algorithms:
            failures[a] += not rec.successes.get(a, False)
    lines = format_results_csv(result).splitlines()
    rows = [line.split(",") for line in lines[1:]]
    if ([r[3] for r in rows] != list(w.algorithms)
            or any(int(r[4]) != n or int(r[5]) != failures[r[3]] for r in rows)):
        out.notes.append(f"CSV rows disagree with the trial records: {lines}")
        return n
    return bad


def _run_campaign_rounds(w: Campaign, seed: int, seconds: float, out: RunOutcome) -> None:
    checkpoints = _Checkpoints(out)
    start = time.perf_counter()
    rnd = 0
    while _another_round(start, seconds, rnd):
        cfg = w.config(round_seed(seed, rnd))
        out.attempted += w.round_trials
        t0 = time.perf_counter()
        try:
            result = harness.run_campaign(cfg, keep_trials=True)
        except Exception as exc:  # counted as failed operations, reported
            out.failed += w.round_trials
            out.notes.append(f"round {rnd}: {exc!r}")
            checkpoints.close_interval()
            rnd += 1
            continue
        wall = time.perf_counter() - t0
        slowdown = checkpoints.close_interval()
        out.failed += _check_campaign_round(w, result, out)
        out.work_seconds += wall
        out.scaled_seconds += wall / slowdown
        out.pool_seconds += w.workers * wall
        out.add_times([r.wall_time for r in result.cells[0].records], slowdown)
        out.records += result.cells[0].records
        rnd += 1
    _check_mcnemar(w, out)


def _check_mcnemar(w: Campaign, out: RunOutcome) -> None:
    records = out.records
    fails = {a: sum(not r.successes[a] for r in records) for a in w.algorithms}
    best = min(w.references, key=lambda a: (fails[a], a))
    cand_only = sum(1 for r in records if not r.successes[w.candidate] and r.successes[best])
    ref_only = sum(1 for r in records if r.successes[w.candidate] and not r.successes[best])
    pvalue = ref.mcnemar_worse_pvalue(cand_only, ref_only)
    out.notes.append(
        f"{w.candidate} vs {best}: discordant {cand_only}/{ref_only}, "
        f"P(worse) p-value {pvalue:.3g}; failures "
        + ", ".join(f"{a} {fails[a]}/{len(records)} "
                    f"[{ref.wilson(fails[a], len(records))[0]:.4f}, "
                    f"{ref.wilson(fails[a], len(records))[1]:.4f}]" for a in w.algorithms))
    if pvalue < MCNEMAR_ALPHA:
        out.fail_check(f"{w.candidate} is worse than {best} (McNemar p = {pvalue:.3g})")


def _run_oracle_rounds(w: OracleCheck, seed: int, seconds: float, out: RunOutcome) -> None:
    """An oracle round is one long ``oracle_check`` call, so a run also takes
    checkpoints inside it, at most every ``CHECKPOINT_S`` seconds, through
    its only hook: a wrapper of ``sample_frame`` that notes when each
    syndrome starts.  A syndrome's wall time runs from its start to the next
    call of the hook (or the end of the round), so checkpoints are left out."""
    checkpoints = _Checkpoints(out)
    starts: list[float] = []   # when each syndrome's sampling begins
    ends: list[float] = []     # when the hook was entered after each syndrome
    marks: list[int] = []      # syndrome index before which a checkpoint was taken
    factors: list[float] = []  # slowdown of the interval each checkpoint closes
    original = harness.sample_frame

    def stamped(*args, **kwargs):
        now = time.perf_counter()
        if starts:
            ends.append(now)
            if now - starts[marks[-1]] >= CHECKPOINT_S:
                marks.append(len(starts))
                factors.append(checkpoints.close_interval())
        else:
            marks.append(0)
        starts.append(time.perf_counter())
        return original(*args, **kwargs)

    harness.sample_frame = stamped
    try:
        start = time.perf_counter()
        rnd = 0
        while _another_round(start, seconds, rnd):
            out.attempted += w.round_syndromes
            starts.clear(), ends.clear(), marks.clear(), factors.clear()
            try:
                result = harness.oracle_check(w.L, w.p, w.round_syndromes,
                                              seed=round_seed(seed, rnd))
            except Exception as exc:  # counted as failed operations, reported
                out.failed += w.round_syndromes
                out.notes.append(f"round {rnd}: {exc!r}")
                checkpoints.close_interval()
                rnd += 1
                continue
            ends.append(time.perf_counter())
            factors.append(checkpoints.close_interval())
            marks.append(len(starts))
            for k, f in enumerate(factors):
                times = [ends[i] - starts[i] for i in range(marks[k], marks[k + 1])]
                out.add_times(times, f)
                out.work_seconds += sum(times)
                out.pool_seconds += sum(times)
                out.scaled_seconds += sum(times) / f
            if result.n_syndromes != w.round_syndromes:
                out.failed += w.round_syndromes
            elif not result.passed:
                out.fail_check(f"round {rnd}: oracle check failed: {result.summary()}")
            else:
                out.notes.append(f"round {rnd}: {result.summary()}")
            rnd += 1
    finally:
        harness.sample_frame = original


def run_workload(name: str, seed: int, seconds: float, timed_block=None) -> RunOutcome:
    """Warm up, then run timed rounds of one workload inside ``timed_block()``
    (the tracing context of a traced run; nothing for an untraced one)."""
    w = WORKLOADS[name]
    out = RunOutcome()
    _PoolPeak.peak_kb = 0
    os.environ.pop(harness.WORKERS_ENV_VAR, None)
    # lazy imports and the layout cache fill here, untimed
    if isinstance(w, Campaign):
        harness.run_campaign(w.config(seed, trials=2, workers=1))
    else:
        harness.oracle_check(w.L, w.p, 2, seed=seed)
    original_pool = concurrent.futures.ProcessPoolExecutor
    concurrent.futures.ProcessPoolExecutor = _PoolPeak
    try:
        with timed_block() if timed_block else contextlib.nullcontext():
            if isinstance(w, Campaign):
                _run_campaign_rounds(w, seed, seconds, out)
            else:
                _run_oracle_rounds(w, seed, seconds, out)
    finally:
        concurrent.futures.ProcessPoolExecutor = original_pool
    return out


def end_to_end_metrics(out: RunOutcome, setup: dict) -> dict:
    """Times are scaled to the reference host speed (see calibrate.py)."""
    done = out.attempted - out.failed
    ms = np.asarray(out.scaled_trial_seconds) * 1e3
    return {
        "trials_per_s": (done / out.scaled_seconds, "trial/s"),
        "trial_ms_p50": (float(np.percentile(ms, 50)), "ms"),
        "trial_ms_p90": (float(np.percentile(ms, 90)), "ms"),
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def time_summary(out: RunOutcome) -> str:
    """Scaled and unscaled figures and the host's slowdown, for standard error."""
    ms = np.asarray(out.trial_seconds) * 1e3
    f = np.asarray(out.slowdowns)
    done = out.attempted - out.failed
    return (f"scaled: {done / out.scaled_seconds:.3f} trial/s; "
            f"unscaled: {done / out.work_seconds:.3f} trial/s, "
            f"p50 {np.percentile(ms, 50):.3f} ms, p90 {np.percentile(ms, 90):.3f} ms; "
            f"host slowdown at {len(f)} checkpoints: median {np.median(f):.3f}, "
            f"range {f.min():.3f}-{f.max():.3f}")
