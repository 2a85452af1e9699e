"""Seeded Monte Carlo campaigns comparing decoders, with paired trials.

Every enabled decoder sees the identical sampled error and syndrome in each
trial, which slashes the variance of rate-ratio estimates; per-trial random
streams are derived from the master seed with counter-based spawn keys, so the
worker count never changes any result and identical configs produce
byte-identical CSV output.  Campaigns run until every enabled algorithm has
accumulated the target number of logical errors (or a fixed trial budget is
exhausted), evaluated at fixed batch boundaries.
"""

from __future__ import annotations

import concurrent.futures
import functools
import math
import numbers
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, InvalidParameterError, _check_count
from .geometry import CodeLayout, PauliFrame, build_layout
from .matching import decode_both, decode_enhanced
from .mcmc import (
    SingleTempConfig,
    decode_free_energy,
    decode_single_temperature,
    default_single_temp_config,
    free_energy_temperatures,
)
from .noise import DEPOLARIZING, INDEPENDENT_XZ, NoiseModel, sample_frame
from .oracle import exact_decoder
from .stats import mcnemar_one_sided_pvalue, wilson_interval

STANDARD = "standard_mwpm"
ENHANCED = "enhanced_mwpm"
SINGLE_TEMP = "single_temperature"
FREE_ENERGY = "free_energy"
ALGORITHMS = (STANDARD, ENHANCED, SINGLE_TEMP, FREE_ENERGY)

WORKERS_ENV_VAR = "SURFMC_WORKERS"
CSV_HEADER = "L,p,model,algorithm,trials,failures,rate,ci_low,ci_high,seed"
TRUNCATION_MARKER = "# truncated"

_BATCH_SIZE = 64


@dataclass(frozen=True)
class ExperimentConfig:
    """Campaign definition; the seed is mandatory (no wall-clock seeding)."""

    L_values: tuple[int, ...]
    p_values: tuple[float, ...]
    seed: int
    model_kind: str = DEPOLARIZING
    algorithms: tuple[str, ...] = (STANDARD, ENHANCED, SINGLE_TEMP)
    n_sample: int | None = None            # None: L^4 per code size
    beta_star_factor: float | None = None  # None: 1.0 depolarizing, 0.85 independent
    n_temperatures: int = 21
    burn_in: int = 0
    # 0 keeps the matcher verdicts (and the sampler seeds) as the bare
    # matching outputs; None turns on the zero-temperature tightening for both
    refine_steps: int | None = 0
    target_logical_errors: int | None = 500
    max_trials: int | None = None
    workers: int = 1

    def validate(self) -> None:
        if not self.L_values or any(
            not isinstance(L, numbers.Integral) or L < 2 for L in self.L_values
        ):
            raise ConfigError(f"L values must all be integers >= 2, got {self.L_values}")
        if not self.p_values or any(
            not isinstance(p, numbers.Real) or not 0.0 <= p < 0.75 for p in self.p_values
        ):
            raise ConfigError(f"p values must lie in [0, 0.75), got {self.p_values}")
        if self.model_kind not in (DEPOLARIZING, INDEPENDENT_XZ):
            raise ConfigError(f"unsupported model kind {self.model_kind!r}")
        if self.model_kind == INDEPENDENT_XZ and max(self.p_values) >= 0.5:
            # beyond p = 1/2 a flip is likelier than none: beta_bar is undefined
            raise ConfigError(
                f"p values must lie in [0, 0.5) for {INDEPENDENT_XZ} noise, got {self.p_values}"
            )
        bad = [a for a in self.algorithms if a not in ALGORITHMS]
        if bad or not self.algorithms:
            raise ConfigError(f"unknown algorithms {bad}; choose from {ALGORITHMS}")
        if self.target_logical_errors is None and self.max_trials is None:
            raise ConfigError("need a stop rule: target_logical_errors or max_trials")
        if self.max_trials is None and 0.0 in self.p_values:
            raise ConfigError(
                "p = 0 makes no logical errors, so it never reaches the error "
                "target; give a trial budget"
            )
        if self.seed is None:
            raise ConfigError("a master seed is mandatory")
        for name, v, low in (
            ("seed", self.seed, 0),
            ("target_logical_errors", self.target_logical_errors, 1),
            ("max_trials", self.max_trials, 1),
            ("workers", self.workers, 1),
            ("n_sample", self.n_sample, 1),
            ("n_temperatures", self.n_temperatures, 3),
            ("burn_in", self.burn_in, 0),
            ("refine_steps", self.refine_steps, 0),
            ("beta_star_factor", self.beta_star_factor, 0),
        ):
            if v is None:
                continue
            integer = name != "beta_star_factor"
            if not isinstance(v, numbers.Integral if integer else numbers.Real):
                kind = "an integer" if integer else "a number"
                raise ConfigError(f"{name} must be {kind}, got {v!r}")
            if not v >= low:  # NaN fails too
                raise ConfigError(f"{name} must be >= {low}, got {v}")
        if self.n_temperatures % 2 == 0:
            raise ConfigError("n_temperatures must be odd and >= 3")


def make_model(kind: str, p: float) -> NoiseModel:
    """Campaign channel for one sweep point (independent noise is symmetric)."""
    if kind == DEPOLARIZING:
        return NoiseModel.depolarizing(p)
    if kind == INDEPENDENT_XZ:
        return NoiseModel.independent_xz(p, p)
    raise ConfigError(f"unsupported model kind {kind!r}")


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    true_class: str
    verdicts: dict[str, str]
    successes: dict[str, bool]
    wall_time: float


@dataclass
class CampaignCell:
    L: int
    p: float
    trials: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    discordant: dict[tuple[str, str], tuple[int, int]] = field(default_factory=dict)
    records: list[TrialRecord] = field(default_factory=list)
    truncated: bool = False

    def rate(self, algorithm: str) -> float:
        return self.failures[algorithm] / self.trials if self.trials else 0.0


@dataclass
class CampaignResult:
    config: ExperimentConfig
    cells: list[CampaignCell]

    @property
    def truncated(self) -> bool:
        return any(c.truncated for c in self.cells)

    def cell(self, L: int, p: float) -> CampaignCell:
        for c in self.cells:
            if c.L == L and c.p == p:
                return c
        raise KeyError((L, p))

    def rows(self) -> list[tuple]:
        out = []
        for c in self.cells:
            for alg in self.config.algorithms:
                rate = c.rate(alg)
                lo, hi = wilson_interval(c.failures[alg], c.trials)
                out.append(
                    (c.L, c.p, self.config.model_kind, alg, c.trials,
                     c.failures[alg], rate, lo, hi, self.config.seed)
                )
        return out


@functools.lru_cache(maxsize=8)
def _cached_layout(L: int) -> CodeLayout:
    return build_layout(L)


@dataclass(frozen=True)
class _CellSpec:
    """Picklable per-cell work description for the trial workers."""

    cfg: ExperimentConfig
    L: int
    p: float
    cell_index: int
    sampler: SingleTempConfig | None  # None when beta_bar is undefined (p = 0)


def _run_one_trial(spec: _CellSpec, trial: int) -> TrialRecord:
    t0 = time.perf_counter()
    cfg = spec.cfg
    layout = _cached_layout(spec.L)
    model = make_model(cfg.model_kind, spec.p)
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(cfg.seed, spawn_key=(spec.cell_index, trial, 0)))
    )
    frame = sample_frame(model, layout, rng)
    true_cls = layout.class_of(frame)
    syndrome = layout.syndrome_of(frame)

    std_verdict, enh_verdict, chain_set = decode_both(
        layout, syndrome, model, refine_steps=cfg.refine_steps
    )
    verdicts: dict[str, str] = {}
    for alg in cfg.algorithms:
        if alg == STANDARD:
            verdict = std_verdict
        elif alg == ENHANCED or spec.sampler is None:
            # noiseless channel: the posterior is a point mass and sampling
            # is undefined, so the matcher verdict stands
            verdict = enh_verdict
        else:
            seed_seq = np.random.SeedSequence(
                cfg.seed,
                spawn_key=(spec.cell_index, trial, 1 if alg == SINGLE_TEMP else 2),
            )
            if alg == SINGLE_TEMP:
                verdict = decode_single_temperature(
                    layout, syndrome, model, spec.sampler, chain_set, seed_seq
                )
            else:
                temps = free_energy_temperatures(model, cfg.n_temperatures)
                verdict = decode_free_energy(
                    layout, syndrome, model, temps, spec.sampler.n_sample, chain_set, seed_seq
                )
        verdicts[alg] = verdict.cls.label
    successes = {alg: verdicts[alg] == true_cls.label for alg in cfg.algorithms}
    return TrialRecord(trial, true_cls.label, verdicts, successes, time.perf_counter() - t0)


def _run_trial_batch(spec: _CellSpec, start: int, count: int) -> list[TrialRecord]:
    return [_run_one_trial(spec, t) for t in range(start, start + count)]


def _merge_batch(cell: CampaignCell, algs: tuple[str, ...], batch: list[TrialRecord],
                 keep_trials: bool) -> None:
    for rec in batch:
        cell.trials += 1
        for alg in algs:
            if not rec.successes[alg]:
                cell.failures[alg] += 1
        for i, a in enumerate(algs):
            for b in algs[i + 1:]:
                fa, fb = cell.discordant[(a, b)]
                if not rec.successes[a] and rec.successes[b]:
                    fa += 1
                elif rec.successes[a] and not rec.successes[b]:
                    fb += 1
                cell.discordant[(a, b)] = (fa, fb)
        if keep_trials:
            cell.records.append(rec)


def _cell_spec(cfg: ExperimentConfig, cell_index: int, L: int, p: float) -> _CellSpec:
    sampler = None  # beta_bar is undefined at p = 0
    if p > 0:
        sampler = default_single_temp_config(
            make_model(cfg.model_kind, p), _cached_layout(L), cfg.n_sample,
            cfg.beta_star_factor, cfg.burn_in,
        )
    return _CellSpec(cfg, L, p, cell_index, sampler)


def _stop_reached(cfg: ExperimentConfig, cell: CampaignCell) -> bool:
    if cfg.max_trials is not None and cell.trials >= cfg.max_trials:
        return True
    if cfg.target_logical_errors is not None:
        # paired mode: run until the slowest algorithm reaches the target
        if min(cell.failures[a] for a in cfg.algorithms) >= cfg.target_logical_errors:
            return True
    return False


def _workers(cfg: ExperimentConfig) -> int:
    """The worker count: ``SURFMC_WORKERS`` when set, else the config's."""
    raw = os.environ.get(WORKERS_ENV_VAR)
    if raw is None:
        return cfg.workers
    bad = ConfigError(f"{WORKERS_ENV_VAR} must be an integer >= 1, got {raw!r}")
    try:
        workers = int(raw)
    except ValueError:
        raise bad from None
    if workers < 1:
        raise bad
    return workers


def run_campaign(cfg: ExperimentConfig, keep_trials: bool = False) -> CampaignResult:
    """Run the sweep; deterministic in (config, seed), whatever the worker count."""
    cfg.validate()
    workers = _workers(cfg)
    cells: list[CampaignCell] = []
    cell_index = 0
    executor = None
    if workers > 1:
        executor = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
    try:
        for L in cfg.L_values:
            for p in cfg.p_values:
                spec = _cell_spec(cfg, cell_index, L, p)
                cell = CampaignCell(L=L, p=p)
                cell.failures = {a: 0 for a in cfg.algorithms}
                cell.discordant = {
                    (a, b): (0, 0)
                    for i, a in enumerate(cfg.algorithms)
                    for b in cfg.algorithms[i + 1:]
                }
                try:
                    next_trial = 0

                    def batch_size(start: int) -> int:
                        if cfg.max_trials is None:
                            return _BATCH_SIZE
                        return max(0, min(_BATCH_SIZE, cfg.max_trials - start))

                    while not _stop_reached(cfg, cell):
                        starts = [next_trial + k * _BATCH_SIZE for k in range(max(1, workers))]
                        sizes = [batch_size(s) for s in starts]
                        if executor is None:
                            batches = [_run_trial_batch(spec, starts[0], sizes[0])]
                        else:
                            batches = list(
                                executor.map(_run_trial_batch, [spec] * len(starts), starts, sizes)
                            )
                        for batch in batches:  # merged in trial-id order
                            _merge_batch(cell, cfg.algorithms, batch, keep_trials)
                            next_trial += _BATCH_SIZE
                            if _stop_reached(cfg, cell):
                                break
                except KeyboardInterrupt:
                    cell.truncated = True
                    cells.append(cell)
                    raise _CampaignInterrupted(CampaignResult(cfg, cells))
                cells.append(cell)
                cell_index += 1
    finally:
        if executor is not None:
            executor.shutdown()
    return CampaignResult(cfg, cells)


class _CampaignInterrupted(Exception):
    """Carries partial results out of an interrupted campaign."""

    def __init__(self, result: CampaignResult):
        self.result = result
        super().__init__("campaign interrupted")


def paired_comparison_pvalue(
    cell: CampaignCell, candidate: str, references: tuple[str, ...]
) -> tuple[str, float]:
    """One-sided evidence that the candidate's rate is below the best reference's.

    The reference with the lowest observed rate is tested (the hardest bar);
    returns (chosen reference, exact McNemar p-value).
    """
    ref = min(references, key=lambda a: (cell.failures[a], a))
    key = (candidate, ref) if (candidate, ref) in cell.discordant else (ref, candidate)
    a, b = cell.discordant[key]
    cand_only, ref_only = (a, b) if key[0] == candidate else (b, a)
    return ref, mcnemar_one_sided_pvalue(n_favor=ref_only, n_against=cand_only)


# ---------------------------------------------------------------------------
# CSV and plot-data output


def format_results_csv(result: CampaignResult) -> str:
    lines = [CSV_HEADER]
    for row in result.rows():
        L, p, model, alg, trials, failures, rate, lo, hi, seed = row
        lines.append(
            f"{L},{p!r},{model},{alg},{trials},{failures},{rate!r},{lo!r},{hi!r},{seed}"
        )
    if result.truncated:
        lines.append(TRUNCATION_MARKER)
    return "\n".join(lines) + "\n"


def write_results_csv(result: CampaignResult, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_results_csv(result))


def write_plot_data(result: CampaignResult, directory: str) -> list[str]:
    """Two-column rate-ratio files (standard MWPM rate over each algorithm's),
    one file per (L, algorithm) pair, in the style of the ratio figures.

    Only cells that ran at least one trial contribute a line, so the partial
    result of an interrupted campaign writes what it has."""
    if STANDARD not in result.config.algorithms:
        return []
    os.makedirs(directory, exist_ok=True)
    ran = {(c.L, c.p): c for c in result.cells if c.trials}
    written = []
    for L in result.config.L_values:
        for alg in result.config.algorithms:
            if alg == STANDARD:
                continue
            path = os.path.join(directory, f"ratio_standard_over_{alg}_L{L}.dat")
            with open(path, "w", encoding="utf-8") as fh:
                for p in result.config.p_values:
                    cell = ran.get((L, p))
                    if cell is None:
                        continue
                    r_std, r_alg = cell.rate(STANDARD), cell.rate(alg)
                    ratio = r_std / r_alg if r_alg > 0 else math.inf
                    fh.write(f"{p!r} {ratio!r}\n")
            written.append(path)
    return written


# ---------------------------------------------------------------------------
# deterministic fatal-pattern suite


@dataclass(frozen=True)
class FatalPatternCase:
    L: int
    name: str
    standard_correct: bool
    enhanced_correct: bool
    expected_standard: bool
    expected_enhanced: bool

    @property
    def passed(self) -> bool:
        return (self.standard_correct == self.expected_standard
                and self.enhanced_correct == self.expected_enhanced)


@dataclass(frozen=True)
class FatalPatternReport:
    cases: tuple[FatalPatternCase, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def summary(self) -> str:
        lines = []
        for c in self.cases:
            lines.append(
                f"L={c.L} {c.name}: standard {'ok' if c.standard_correct else 'WRONG'} "
                f"(expected {'ok' if c.expected_standard else 'WRONG'}), "
                f"enhanced {'ok' if c.enhanced_correct else 'WRONG'} "
                f"(expected {'ok' if c.expected_enhanced else 'WRONG'}) -> "
                f"{'PASS' if c.passed else 'FAIL'}"
            )
        return "\n".join(lines)


def build_half_chain(layout: CodeLayout, length: int, y_at: int | None = None) -> PauliFrame:
    """Bit-flip chain growing inward from the high boundary in the center column.

    ``y_at`` marks one chain qubit (index counted from the boundary) as a
    sigma-y instead of a sigma-x.
    """
    L = layout.L
    col = L - 1 if (L - 1) % 2 == 0 else L - 2
    rows = [layout.span - 2 * k for k in range(length)]
    frame = layout.identity_frame()
    for k, r in enumerate(rows):
        q = layout.qubit_index[(r, col)]
        frame.set_pauli(q, "Y" if k == y_at else "X")
    return frame


def fatal_pattern_suite(L_values: tuple[int, ...], p: float = 0.1) -> FatalPatternReport:
    """Deterministic low-rate separation tests on half-code bit-flip chains.

    A pure chain of (L+1)/2 flips fools both matchers (they prefer the
    (L-1)/2 completion on the wrong side); marking one interior flip as a
    sigma-y leaves phase-flip anyons along the line, which the class-forced
    decoder uses to recover the true class while plain matching still fails.
    """
    if not L_values:
        raise InvalidParameterError("fatal patterns need at least one L")
    cases = []
    model = make_model(DEPOLARIZING, p)
    for L in L_values:
        if L % 2 == 0 or L < 3:
            raise InvalidParameterError(f"fatal patterns need odd L >= 3, got {L}")
        layout = _cached_layout(L)
        long_len = (L + 1) // 2
        patterns = (
            ("y_marked_half_chain", build_half_chain(layout, long_len, y_at=long_len // 2),
             False, True),
            ("pure_x_half_chain", build_half_chain(layout, long_len), False, False),
            ("short_chain", build_half_chain(layout, (L - 1) // 2), True, True),
        )
        for name, frame, expect_std, expect_enh in patterns:
            true_cls = layout.class_of(frame)
            syndrome = layout.syndrome_of(frame)
            std, enh, _ = decode_both(layout, syndrome, model)
            cases.append(FatalPatternCase(
                L, name,
                std.cls == true_cls, enh.cls == true_cls,
                expect_std, expect_enh,
            ))
    return FatalPatternReport(tuple(cases))


# ---------------------------------------------------------------------------
# oracle agreement check (small codes)


@dataclass(frozen=True)
class OracleCheckResult:
    n_syndromes: int
    agreement: float        # fraction where the sampler matches the oracle
    oracle_success: float   # the oracle's own success rate against the truth
    sampler_success: float
    pass_bar: float         # lower 95% bound of the measured oracle success
    passed: bool

    def summary(self) -> str:
        return (
            f"agreement(single-temperature, oracle) = {self.agreement:.4f} over "
            f"{self.n_syndromes} syndromes; oracle success = {self.oracle_success:.4f} "
            f"(pass bar {self.pass_bar:.4f}), single-temperature success = "
            f"{self.sampler_success:.4f} -> {'PASS' if self.passed else 'FAIL'}"
        )


def oracle_check(
    L: int = 3,
    p: float = 0.1,
    n_syndromes: int = 300,
    n_sample_factor: int = 10,
    seed: int = 2024,
) -> OracleCheckResult:
    """Compare the single-temperature decoder against exact enumeration.

    The pass bar is self-calibrating: the sampler must agree with the oracle
    at least as often as the oracle itself matches the sampled truth (a
    near-optimal decoder tracks the oracle's verdicts more closely than those
    verdicts track the random truth), with the bar set at the lower 95%
    confidence bound of the measured oracle success rate.

    The bar is measured on the same syndromes as the agreement, so a sound
    sampler fails it by chance when ``n_syndromes`` is small:
    ``oracle_check(3, 0.1, 64, seed=12)`` agrees on 0.8594 of its syndromes
    against a bar of 0.9013 and fails; it is the one failure among seeds
    0-39 at 64 syndromes.  Keep the default of 300 syndromes or more.
    """
    _check_count("n_syndromes", n_syndromes, 1)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    layout = _cached_layout(L)
    model = make_model(DEPOLARIZING, p)
    cfg = default_single_temp_config(model, layout)
    cfg = replace(cfg, n_sample=n_sample_factor * cfg.n_sample)
    agree = oracle_ok = sampler_ok = 0
    for i in range(n_syndromes):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i, 0)))
        )
        frame = sample_frame(model, layout, rng)
        true_cls = layout.class_of(frame)
        syndrome = layout.syndrome_of(frame)
        _, chain_set = decode_enhanced(layout, syndrome, model)
        verdict = decode_single_temperature(
            layout, syndrome, model, cfg, chain_set,
            np.random.SeedSequence(seed, spawn_key=(i, 1)),
        )
        oracle_cls = exact_decoder(layout, syndrome, model)
        agree += verdict.cls == oracle_cls
        oracle_ok += oracle_cls == true_cls
        sampler_ok += verdict.cls == true_cls
    s = oracle_ok / n_syndromes
    bar = s - 1.96 * math.sqrt(s * (1.0 - s) / n_syndromes)
    return OracleCheckResult(
        n_syndromes,
        agree / n_syndromes,
        s,
        sampler_ok / n_syndromes,
        pass_bar=bar,
        passed=agree / n_syndromes >= bar,
    )


# ---------------------------------------------------------------------------
# n_sample scaling probe


@dataclass(frozen=True)
class ScalingProbePoint:
    L: int
    n_sample: int | None   # minimal n_sample certifying parity, None if unresolved
    lower_bound: int
    upper_bound: int | None

    @property
    def resolved(self) -> bool:
        return self.n_sample is not None


@dataclass(frozen=True)
class ScalingProbeResult:
    p: float
    points: tuple[ScalingProbePoint, ...]
    exponent: float | None  # log-log fit over resolved points, None if refused

    def summary(self) -> str:
        lines = [f"scaling probe at p={self.p}"]
        for pt in self.points:
            if pt.resolved:
                lines.append(f"L={pt.L}: n_sample* = {pt.n_sample}")
            else:
                lines.append(
                    f"L={pt.L}: unresolved (bounds [{pt.lower_bound}, {pt.upper_bound}])"
                )
        lines.append(
            f"log-log exponent: {self.exponent:.3f}" if self.exponent is not None
            else "log-log exponent: refused (need >= 2 resolved sizes)"
        )
        return "\n".join(lines)


def _probe_certifies(cfg: ExperimentConfig, L: int, p: float, n_sample: int,
                     alpha: float) -> bool:
    result = run_campaign(replace(cfg, L_values=(L,), p_values=(p,), n_sample=n_sample))
    cell = result.cell(L, p)
    _, pvalue = paired_comparison_pvalue(cell, SINGLE_TEMP, (STANDARD, ENHANCED))
    return pvalue <= alpha


def scaling_probe(
    p: float,
    L_values: tuple[int, ...],
    seed: int,
    confidence: float = 0.95,
    target_errors: int = 200,
    max_trials: int = 50_000,
    max_n_sample: int | None = None,
) -> ScalingProbeResult:
    """Binary-search the minimal n_sample at which the single-temperature
    decoder provably beats the better matcher, then fit the growth exponent."""
    if not p > 0:  # no trial fails at p = 0, so no n_sample can certify
        raise ConfigError(f"a scaling probe needs p > 0, got {p}")
    if not 0.0 < confidence < 1.0:
        raise ConfigError(f"confidence must lie in (0, 1), got {confidence}")
    if max_n_sample is not None and max_n_sample < 1:
        raise ConfigError(f"max_n_sample must be >= 1, got {max_n_sample}")
    alpha = 1.0 - confidence
    base = ExperimentConfig(
        L_values=tuple(L_values), p_values=(p,), seed=seed,
        algorithms=(STANDARD, ENHANCED, SINGLE_TEMP),
        target_logical_errors=target_errors, max_trials=max_trials,
    )
    base.validate()
    points = []
    for L in L_values:
        cap = max_n_sample if max_n_sample is not None else 4 * L ** 4
        lo, hi = 1, None
        n = 1
        while n <= cap:
            if _probe_certifies(base, L, p, n, alpha):
                hi = n
                break
            lo = n
            n *= 2
        if hi is None:
            points.append(ScalingProbePoint(L, None, lo, None))
            continue
        while hi - lo > max(1, lo // 8):
            mid = (lo + hi) // 2
            if _probe_certifies(base, L, p, mid, alpha):
                hi = mid
            else:
                lo = mid
        points.append(ScalingProbePoint(L, hi, lo, hi))
    resolved = [pt for pt in points if pt.resolved]
    exponent = None
    if len(resolved) >= 2:
        xs = np.log([pt.L for pt in resolved])
        ys = np.log([pt.n_sample for pt in resolved])
        exponent = float(np.polyfit(xs, ys, 1)[0])
    return ScalingProbeResult(p, tuple(points), exponent)
