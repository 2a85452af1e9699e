"""Acceptance suite: one test per release criterion, one printed line each.

The heavy campaigns (criteria 5 and 6) dominate the runtime; everything is
seeded, so reruns are bit-identical.
"""

import math

import numpy as np

from helpers import brute_force_free_boundary_weight, brute_force_min_matching
from surfmc import (
    CLASS_I,
    EQUIV_CLASSES,
    ExperimentConfig,
    MeasurementModel,
    MetropolisChain,
    NoiseModel,
    SpacetimeChain,
    Syndrome,
    beta_bar,
    build_layout,
    decode_enhanced,
    decode_standard,
    enumerate_orbit,
    exact_boltzmann,
    initial_hypothesis,
    min_weight_perfect_matching,
    parallel_sweep_schedule,
    run_parallel_sweep,
    sample_frame,
    sample_record,
    spacetime_energy,
)
from surfmc.harness import (
    ENHANCED,
    SINGLE_TEMP,
    STANDARD,
    fatal_pattern_suite,
    oracle_check,
    paired_comparison_pvalue,
    run_campaign,
)
from surfmc import matching
from surfmc.matching import SPECIES_P, SPECIES_S
from surfmc.stats import wilson_interval

MODEL = NoiseModel.depolarizing(0.1)
BB = beta_bar(MODEL)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_oracle_minimality():
    # every class hypothesis of the class-forced decoder reaches the exact
    # in-class minimum weight, verified by full orbit enumeration
    layout = build_layout(3)
    rng = np.random.default_rng(101)
    n_syndromes = 200
    checked = misses = 0
    for _ in range(n_syndromes):
        frame = sample_frame(MODEL, layout, rng)
        syndrome = layout.syndrome_of(frame)
        _, chain_set = decode_enhanced(layout, syndrome, MODEL)
        for cls in EQUIV_CLASSES:
            orbit = enumerate_orbit(layout, chain_set.frame_for(cls))
            checked += 1
            if chain_set.weights[cls.index] != orbit.min_weight:
                misses += 1
    _report(
        1, misses == 0,
        f"L=3 p=0.1: {checked} class hypotheses over {n_syndromes} syndromes, "
        f"{misses} above the exact in-class minimum",
    )


def test_criterion_02_metropolis_matches_exact_averages():
    layout = build_layout(3)
    rng = np.random.default_rng(202)
    worst = 0.0
    for s in range(5):
        frame = sample_frame(MODEL, layout, rng)
        syndrome = layout.syndrome_of(frame)
        _, chain_set = decode_enhanced(layout, syndrome, MODEL)
        for cls in EQUIV_CLASSES:
            seed = chain_set.frame_for(cls)
            chain = MetropolisChain(
                layout, MODEL, BB, seed,
                np.random.Generator(np.random.PCG64(
                    np.random.SeedSequence(202, spawn_key=(s, cls.index))
                )),
            )
            chain.run(1_000_000)
            chain.verify_confinement()
            _, exact_n = exact_boltzmann(enumerate_orbit(layout, seed), BB)
            dev = abs(chain.estimate - exact_n) / chain.standard_error()
            worst = max(worst, dev)
    _report(
        2, worst <= 3.0,
        f"L=3 beta=beta_bar(0.1), 5 syndromes x 4 classes x 1e6 steps: "
        f"worst |<n> - exact| = {worst:.2f} standard errors (limit 3)",
    )


def test_criterion_03_decoder_vs_oracle_agreement():
    res = oracle_check(L=3, p=0.1, n_syndromes=300, n_sample_factor=10, seed=303)
    _report(
        3, res.passed,
        f"agreement with exact decoder {res.agreement:.4f} vs oracle success "
        f"{res.oracle_success:.4f} (bar {res.pass_bar:.4f}); sampler success "
        f"{res.sampler_success:.4f} over {res.n_syndromes} syndromes",
    )


def test_criterion_04_low_p_separation():
    report = fatal_pattern_suite((3, 5, 7))
    print()
    print(report.summary())
    _report(
        4, report.all_passed,
        f"{sum(c.passed for c in report.cases)}/{len(report.cases)} deterministic "
        f"fatal-pattern cases at L in (3, 5, 7)",
    )


def test_criterion_05_sampler_not_worse_than_matchers():
    cfg = ExperimentConfig(
        L_values=(7,), p_values=(0.10,), seed=505,
        algorithms=(STANDARD, ENHANCED, SINGLE_TEMP),
        target_logical_errors=500, max_trials=60_000,
    )
    res = run_campaign(cfg)
    cell = res.cell(7, 0.10)
    ref, pvalue = paired_comparison_pvalue(cell, SINGLE_TEMP, (STANDARD, ENHANCED))
    rate_c = cell.rate(SINGLE_TEMP)
    rate_ref = cell.rate(ref)
    ok = rate_c <= rate_ref and pvalue <= 0.05
    _report(
        5, ok,
        f"L=7 p=0.10, {cell.trials} paired trials: rate(single-temperature) = "
        f"{rate_c:.4f} vs best matcher ({ref}) = {rate_ref:.4f}; "
        f"one-sided McNemar p = {pvalue:.2e} (need <= 0.05)",
    )


def test_criterion_06_proof_of_principle_point():
    cfg = ExperimentConfig(
        L_values=(6,), p_values=(0.13,), seed=606,
        algorithms=(SINGLE_TEMP,),
        refine_steps=None,  # seed chains from the tightened minimum-weight hypotheses
        target_logical_errors=600, max_trials=40_000,
    )
    res = run_campaign(cfg)
    cell = res.cell(6, 0.13)
    rate = cell.rate(SINGLE_TEMP)
    lo, hi = wilson_interval(cell.failures[SINGLE_TEMP], cell.trials)
    _report(
        6, hi < 0.13,
        f"L=6 p=0.13: single-temperature rate {rate:.4f}, Wilson 95% interval "
        f"[{lo:.4f}, {hi:.4f}] (upper bound must fall below 0.13)",
    )


def test_criterion_07_infinite_temperature_endpoint():
    layout = build_layout(4)
    rng = np.random.default_rng(707)
    frame = sample_frame(MODEL, layout, rng)
    syndrome = layout.syndrome_of(frame)
    _, chain_set = decode_enhanced(layout, syndrome, MODEL)
    chain = MetropolisChain(
        layout, MODEL, 0.0, chain_set.frame_for(CLASS_I), np.random.default_rng(7070)
    )
    chain.run(250_000)
    expect = 0.75 * layout.n_qubits
    dev = abs(chain.estimate - expect) / chain.standard_error()
    _report(
        7, dev <= 3.0 and expect == 18.75,
        f"beta=0 at L=4: <n> = {chain.estimate:.4f} vs (3/4) n_qubits = {expect}, "
        f"deviation {dev:.2f} standard errors (limit 3)",
    )


def test_criterion_08_parallel_sweep_equivalence():
    # slow orbit modes at L=9 make single-run batch errors dishonest, so each
    # estimate is the mean of independent replicas (honest between-replica
    # errors) after a burn-in long enough for both samplers to equilibrate
    # within the seed's basin; probe counts are matched between samplers
    layout = build_layout(9)
    schedule = parallel_sweep_schedule(layout, rectangle_size=2)
    probes = len(schedule.groups[0])
    burn, window, replicas = 32_000, 16_000, 10
    rng = np.random.default_rng(808)
    worst = 0.0
    pairs = 0
    for s in range(20):
        frame = sample_frame(MODEL, layout, rng)
        syndrome = layout.syndrome_of(frame)
        _, chain_set = decode_enhanced(layout, syndrome, MODEL, refine_steps=0)
        for cls in EQUIV_CLASSES:
            seed = chain_set.frame_for(cls)
            seq_est, par_est = [], []
            for r in range(replicas):
                chain = MetropolisChain(
                    layout, MODEL, BB, seed,
                    np.random.Generator(np.random.PCG64(
                        np.random.SeedSequence(808, spawn_key=(s, cls.index, 0, r))
                    )),
                )
                chain.run(burn, accumulate=False)
                chain.run(window)
                seq_est.append(chain.estimate)
                par = run_parallel_sweep(
                    layout, MODEL, BB, seed, schedule, window // probes,
                    np.random.Generator(np.random.PCG64(
                        np.random.SeedSequence(808, spawn_key=(s, cls.index, 1, r))
                    )),
                    burn_in=burn // probes,
                )
                par_est.append(par.estimate)
            se = math.hypot(
                np.std(seq_est, ddof=1) / math.sqrt(replicas),
                np.std(par_est, ddof=1) / math.sqrt(replicas),
            )
            dev = abs(np.mean(seq_est) - np.mean(par_est)) / se
            worst = max(worst, dev)
            pairs += 1
    _report(
        8, worst <= 3.0,
        f"L=9 p=0.1: {pairs} sequential-vs-parallel estimate pairs "
        f"({replicas} replicas each), worst deviation {worst:.2f} combined "
        f"standard errors (limit 3)",
    )


def test_criterion_09_matching_optimality():
    rng = np.random.default_rng(909)
    layouts = {L: build_layout(L) for L in (3, 4, 5)}
    checked = 0
    mismatches = 0

    def check(n, edges):
        nonlocal checked, mismatches
        if n == 0 or n > 12:
            return
        expect = brute_force_min_matching(n, edges)
        checked += 1
        if expect is None:
            try:
                min_weight_perfect_matching(n, edges)
                mismatches += 1
            except Exception:
                pass
        elif min_weight_perfect_matching(n, edges).total_weight != expect:
            mismatches += 1

    while checked < 600:  # unstructured graphs
        n = int(rng.integers(1, 7)) * 2
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.7:
                    edges.append((i, j, int(rng.integers(0, 13))))
        check(n, tuple(edges))
    while checked < 1000:  # decoder-shaped graphs
        layout = layouts[int(rng.choice((3, 4, 5)))]
        species = SPECIES_P if rng.random() < 0.5 else SPECIES_S
        stabs = layout.z_stabilizers if species == SPECIES_P else layout.x_stabilizers
        # up to 10 anyons: class-bit graphs of up to 12 vertices
        k = min(int(rng.integers(0, 11)), len(stabs))
        anyons = tuple(sorted(rng.choice(len(stabs), size=k, replace=False).tolist()))
        style = int(rng.integers(0, 3))
        if style in (0, 1):  # the graph of class bit ``style``
            sites = matching._anyon_sites(layout, anyons, species)
            check(*matching._class_graph(layout, *sites, style))
        elif anyons:  # plain matching on a one-species syndrome
            syndrome = Syndrome(anyons, ()) if species == SPECIES_P else Syndrome((), anyons)
            verdict = decode_standard(layout, syndrome, MODEL)
            checked += 1
            if verdict.scores[verdict.cls] != brute_force_free_boundary_weight(
                layout, anyons, species
            ):
                mismatches += 1
    _report(
        9, mismatches == 0,
        f"{checked} matching problems and plain-matching decodes (<= 12 vertices) "
        f"against brute-force enumeration, {mismatches} mismatches",
    )


def test_criterion_10_spacetime_invariants():
    layout = build_layout(3)
    mm = MeasurementModel.from_probabilities(MODEL, 0.1)
    rng = np.random.default_rng(1010)
    record, _ = sample_record(layout, MODEL, mm, 3, rng)
    hyp = initial_hypothesis(layout, record)
    cls = hyp.aggregate_class(layout)
    chain = SpacetimeChain(layout, MODEL, mm, hyp, rng)
    n_moves = 100_000
    failures = 0
    for step in range(n_moves):
        chain.step()
        if (step + 1) % 1000 == 0:
            ok = (
                chain.n == chain.hyp.error_count(MODEL)
                and chain.m == chain.hyp.flip_count()
                and chain.hyp.is_consistent(layout)
                and chain.hyp.aggregate_class(layout) == cls
            )
            failures += not ok
    energy_exact = spacetime_energy(chain.hyp, MODEL, mm, layout)
    energy_ok = chain.energy == energy_exact
    _report(
        10, failures == 0 and energy_ok,
        f"L=3 t_max=3: {n_moves} random moves, {failures} checkpoint violations; "
        f"incremental energy {chain.energy:.6f} == recomputed {energy_exact:.6f}",
    )
