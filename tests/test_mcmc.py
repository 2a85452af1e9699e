import math

import numpy as np
import pytest

from helpers import reference_metropolis
from surfmc import (
    CLASS_I,
    EQUIV_CLASSES,
    DecoderInternalError,
    InvalidParameterError,
    MetropolisChain,
    NoiseModel,
    PauliFrame,
    SingleTempConfig,
    Syndrome,
    beta_bar,
    build_layout,
    decode_enhanced,
    decode_free_energy,
    decode_single_temperature,
    default_single_temp_config,
    error_score,
    free_energy_temperatures,
    parallel_sweep_schedule,
    run_parallel_sweep,
    sample_frame,
    zero_temperature_score,
)
from surfmc import mcmc, noise
from surfmc.errors import ConfigError, _check_count, _check_number
from surfmc.mcmc import SweepResult, batch_means_se
from surfmc.noise import score_delta
from surfmc.oracle import enumerate_orbit, exact_boltzmann
from surfmc.stats import simpson

MODEL = NoiseModel.depolarizing(0.1)
BB = beta_bar(MODEL)


def seeded_chain_set(layout, rng, model=MODEL):
    frame = sample_frame(model, layout, rng)
    syn = layout.syndrome_of(frame)
    _, chain_set = decode_enhanced(layout, syn, model)
    return syn, frame, chain_set


def test_config_validation():
    for args, kwargs, name in (
        ((1.0, 0), {}, "n_sample"),
        ((1.0, 10), {"burn_in": -1}, "burn_in"),
        # non-integer step counts used to fail only later, inside ``run``
        ((1.0, 2.5), {}, "n_sample"),
        ((1.0, 10), {"burn_in": 1.5}, "burn_in"),
        # NaN used to fail only when a chain was built
        ((math.nan, 10), {}, "beta_star"),
        ((-0.5, 10), {}, "beta_star"),
    ):
        with pytest.raises(InvalidParameterError, match=name):
            SingleTempConfig(*args, **kwargs)
    cfg = SingleTempConfig(math.inf, np.int64(5), burn_in=np.int64(0))
    assert cfg.n_sample == 5


def test_bools_are_not_counts(layout3):
    # True is a numbers.Integral equal to 1; as a count it is a slip
    with pytest.raises(InvalidParameterError, match="n_steps"):
        _check_count("n_steps", True, 0)
    chain = MetropolisChain(
        layout3, MODEL, BB, layout3.identity_frame(), np.random.default_rng(0)
    )
    with pytest.raises(InvalidParameterError, match="n_steps"):
        chain.run(True)
    assert chain.step_count == 0
    for args, name in (((True, True), "beta_star"), ((1.0, True), "n_sample")):
        with pytest.raises(InvalidParameterError, match=name):
            SingleTempConfig(*args)
    with pytest.raises(InvalidParameterError, match="burn_in"):
        SingleTempConfig(1.0, 10, burn_in=False)


def test_check_number():
    for value in (0, 2.5, np.float64(0.5), math.inf):
        _check_number("beta", value, 0)
    _check_number("p", np.float64(0.1), 0, 0.75)
    for value, below in ((-0.5, None), (math.nan, None), (True, None), ("1", None),
                         (None, None), (0.75, 0.75), (math.inf, 0.75)):
        with pytest.raises(InvalidParameterError, match="p must be"):
            _check_number("p", value, 0, below)
    with pytest.raises(ConfigError, match=r"seed must be an integer >= 0, got 1\.5"):
        _check_count("seed", 1.5, 0, ConfigError)


@pytest.mark.parametrize("beta", [True, "1"])
def test_chain_beta_must_be_a_real_number(layout3, beta):
    # True ran at beta = 1; "1" failed with a TypeError in the comparison
    with pytest.raises(InvalidParameterError, match="beta must be >= 0"):
        MetropolisChain(layout3, MODEL, beta, layout3.identity_frame(),
                        np.random.default_rng(0))
    chain = MetropolisChain(layout3, MODEL, math.inf, layout3.identity_frame(),
                            np.random.default_rng(0))
    with pytest.raises(InvalidParameterError, match="beta must be >= 0"):
        chain._restart(beta)


def test_default_config(layout4):
    cfg = default_single_temp_config(MODEL, layout4)
    assert cfg.beta_star == pytest.approx(BB)
    assert cfg.n_sample == 4 ** 4
    indep = NoiseModel.independent_xz(0.1, 0.1)
    cfg2 = default_single_temp_config(indep, layout4)
    assert cfg2.beta_star == pytest.approx(0.85 * beta_bar(indep))


def test_chain_rejects_nan_beta(layout3):
    # NaN compares False with everything, so it would reject every uphill move
    with pytest.raises(InvalidParameterError, match="beta must be >= 0"):
        MetropolisChain(layout3, MODEL, math.nan, layout3.identity_frame(),
                        np.random.default_rng(0))


def test_chain_rejects_unsupported_model(layout3):
    # A model outside the integer-count kinds is refused when it is built,
    # so it never reaches the chain.
    with pytest.raises(InvalidParameterError, match="unknown noise model kind"):
        MetropolisChain(
            layout3, NoiseModel("general_pauli", 0.05, 0.05, 0.05), 1.0,
            layout3.identity_frame(), np.random.default_rng(0),
        )


def test_zero_temperature_never_increases_weight(layout4, rng):
    frame = sample_frame(NoiseModel.depolarizing(0.3), layout4, rng)
    chain = MetropolisChain(layout4, MODEL, math.inf, frame, rng)
    prev = chain.current_n
    for _ in range(500):
        chain.step()
        assert chain.current_n <= prev
        prev = chain.current_n
    chain.run(5000)
    assert chain.current_n <= prev
    chain.verify_confinement()


def test_infinite_temperature_endpoint(layout4):
    # beta = 0 explores the orbit uniformly: <n> -> (3/4) n_qubits = 18.75
    chain = MetropolisChain(
        layout4, MODEL, 0.0, layout4.identity_frame(), np.random.default_rng(8)
    )
    chain.run(150_000)
    assert zero_temperature_score(MODEL, layout4) == pytest.approx(18.75)
    assert abs(chain.estimate - 18.75) <= 3 * chain.standard_error()


def test_chain_matches_exact_boltzmann(layout3, rng):
    syn, _, chain_set = seeded_chain_set(layout3, rng)
    for cls in (CLASS_I, EQUIV_CLASSES[3]):
        seed = chain_set.frame_for(cls)
        chain = MetropolisChain(layout3, MODEL, BB, seed, np.random.default_rng(3))
        chain.run(300_000)
        chain.verify_confinement()
        _, exact_n = exact_boltzmann(enumerate_orbit(layout3, seed), BB)
        assert abs(chain.estimate - exact_n) <= 4 * chain.standard_error()


def test_chain_confinement(layout4, rng):
    frame = sample_frame(MODEL, layout4, rng)
    syn = layout4.syndrome_of(frame)
    cls = layout4.class_of(frame)
    chain = MetropolisChain(layout4, MODEL, BB, frame, rng)
    chain.run(20_000)
    assert layout4.syndrome_of(chain.frame) == syn
    assert layout4.class_of(chain.frame) == cls
    chain.verify_confinement()


@pytest.mark.parametrize("plane", ["x", "z"])
def test_confinement_check_fires(layout4, rng, plane):
    # a flipped qubit moves the syndrome, an applied logical only the class
    logical = layout4.logical_x_mask if plane == "x" else layout4.logical_z_mask
    frame = sample_frame(MODEL, layout4, rng)
    for off_orbit, escape in ((1 << 5, "syndrome"), (logical, "equivalence class")):
        chain = MetropolisChain(layout4, MODEL, BB, frame, np.random.default_rng(2))
        chain.run(2000)
        chain.verify_confinement()
        if plane == "x":
            chain._x ^= off_orbit
        else:
            chain._z ^= off_orbit
        with pytest.raises(DecoderInternalError, match=escape):
            chain.verify_confinement()


def test_detailed_balance_small_orbit():
    # empirical state distribution over the 2^4-element orbit vs Boltzmann
    lay = build_layout(2)
    beta = 1.0
    states = []
    frame = lay.identity_frame()
    states.append((frame.x, frame.z))
    for k in range(1, 1 << lay.n_stab):
        g = (k & -k).bit_length() - 1
        frame = lay.apply_stabilizer(frame, lay.stabilizers[g])
        states.append((frame.x, frame.z))
    weights = {s: PauliFrame(lay.n_qubits, *s).weight() for s in states}
    z = sum(math.exp(-beta * w) for w in weights.values())
    exact = {s: math.exp(-beta * w) / z for s, w in weights.items()}

    chain = MetropolisChain(lay, MODEL, beta, lay.identity_frame(), np.random.default_rng(17))
    counts = {s: 0 for s in states}
    n = 400_000
    chain.run(0)
    for _ in range(n):
        chain.step()
        counts[(chain.frame.x, chain.frame.z)] += 1
    for s in states:
        assert abs(counts[s] / n - exact[s]) <= 0.012


def test_single_temperature_decoder_trivial_gap(layout5):
    # one error next to a boundary: seed weights differ by >= L-1, so a short
    # run cannot overturn the matcher verdict
    q = layout5.qubit_index[(0, 4)]
    frame = PauliFrame.from_paulis(layout5.n_qubits, {q: "X"})
    syn = layout5.syndrome_of(frame)
    enh, chain_set = decode_enhanced(layout5, syn, MODEL)
    cfg = SingleTempConfig(BB, 16)
    verdict = decode_single_temperature(
        layout5, syn, MODEL, cfg, chain_set, np.random.SeedSequence(5)
    )
    assert verdict.cls == enh.cls == layout5.class_of(frame)


def test_single_temperature_deterministic(layout3, rng):
    syn, _, chain_set = seeded_chain_set(layout3, rng)
    cfg = SingleTempConfig(BB, 2000)
    a = decode_single_temperature(
        layout3, syn, MODEL, cfg, chain_set, np.random.SeedSequence(77)
    )
    b = decode_single_temperature(
        layout3, syn, MODEL, cfg, chain_set, np.random.SeedSequence(77)
    )
    assert a.cls == b.cls and a.scores == b.scores


def test_mean_count_monotone_in_beta(layout3, rng):
    syn, _, chain_set = seeded_chain_set(layout3, rng)
    temps = free_energy_temperatures(MODEL, 21)
    seed = chain_set.frame_for(CLASS_I)
    means, ses = [], []
    for k, beta in enumerate(temps):
        if beta == 0.0:
            means.append(zero_temperature_score(MODEL, layout3))
            ses.append(0.0)
            continue
        chain = MetropolisChain(layout3, MODEL, float(beta), seed, np.random.default_rng(100 + k))
        chain.run(30_000)
        means.append(chain.estimate)
        ses.append(chain.standard_error())
    for i in range(len(means) - 1):
        slack = 3 * math.hypot(ses[i], ses[i + 1])
        assert means[i + 1] <= means[i] + slack


def test_free_energy_temperature_grid():
    temps = free_energy_temperatures(MODEL, 21)
    assert len(temps) == 21
    assert temps[0] == 0.0 and temps[-1] == pytest.approx(BB)
    with pytest.raises(InvalidParameterError):
        free_energy_temperatures(MODEL, 20)


@pytest.mark.parametrize("count", [21.0, 5.0])
def test_free_energy_temperatures_take_an_integer_count(count):
    with pytest.raises(InvalidParameterError, match="temperature count"):
        free_energy_temperatures(MODEL, count)


@pytest.mark.parametrize("n_steps", [2.5, 3.0, -3])
def test_chain_run_takes_an_integer_step_count(layout3, n_steps):
    chain = MetropolisChain(layout3, MODEL, BB, layout3.identity_frame(), np.random.default_rng(0))
    with pytest.raises(InvalidParameterError, match="n_steps"):
        chain.run(n_steps)
    chain.run(np.int64(2))
    assert chain.step_count == 2


def test_free_energy_rejects_bad_grids(layout3, rng):
    syn, _, chain_set = seeded_chain_set(layout3, rng)
    with pytest.raises(InvalidParameterError):
        decode_free_energy(
            layout3, syn, MODEL, np.linspace(0, BB, 20), 100, chain_set,
            np.random.SeedSequence(0),
        )
    with pytest.raises(InvalidParameterError):
        decode_free_energy(
            layout3, syn, MODEL, np.array([0.1, 0.2, 0.3]), 100, chain_set,
            np.random.SeedSequence(0),
        )
    # a column of temperatures ended in a bare TypeError
    with pytest.raises(InvalidParameterError, match="one-dimensional"):
        decode_free_energy(
            layout3, syn, MODEL, free_energy_temperatures(MODEL, 3).reshape(3, 1), 100,
            chain_set, np.random.SeedSequence(0),
        )


@pytest.mark.parametrize(
    "temps",
    [
        [0.0, "a", 1.0],                   # ended in numpy's bare ValueError
        [0.0, 1 + 2j, 2.0],                # ended in a bare TypeError
        [0.0, None, 1.0],                  # was refused as not equidistant
        [0.0, True, 2.0],                  # ran as 1.0
        np.array([0.0, math.nan, 1.0]),    # was refused as not equidistant
        np.array([0.0, -0.5, -1.0]),       # ran on negative temperatures
    ],
    ids=repr,
)
def test_free_energy_refuses_bad_grid_entries(layout3, rng, temps):
    syn, _, chain_set = seeded_chain_set(layout3, rng)
    with pytest.raises(InvalidParameterError, match="temperature grid entries must be >= 0"):
        decode_free_energy(layout3, syn, MODEL, temps, 100, chain_set, np.random.SeedSequence(0))


@pytest.mark.parametrize("n_sample", [0, -5, 2.5])
def test_free_energy_rejects_bad_sample_count(layout3, rng, n_sample):
    syn, _, chain_set = seeded_chain_set(layout3, rng)
    with pytest.raises(InvalidParameterError, match="n_sample"):
        decode_free_energy(
            layout3, syn, MODEL, free_energy_temperatures(MODEL, 3), n_sample, chain_set,
            np.random.SeedSequence(0),
        )


def test_free_energy_equals_independent_chains(layout3, rng):
    # one seed state per class must not move a bit: rebuild every chain on
    # its own from the class seed frame and the class's RNG stream
    syn, _, chain_set = seeded_chain_set(layout3, rng)
    temps = free_energy_temperatures(MODEL, 21)
    n_sample = 3000  # three batches, two full: a finite standard error
    verdict = decode_free_energy(
        layout3, syn, MODEL, temps, n_sample, chain_set, np.random.SeedSequence(31)
    )
    rngs = mcmc._class_chain_rngs(np.random.SeedSequence(31))
    for cls in EQUIV_CLASSES:
        means, ses = [zero_temperature_score(MODEL, layout3)], [0.0]
        for beta in temps[1:]:
            chain = MetropolisChain(
                layout3, MODEL, float(beta), chain_set.frame_for(cls), rngs[cls.index]
            )
            chain.run(n_sample)
            means.append(chain.estimate)
            ses.append(chain.standard_error())
        est = verdict.detail["free_energy"][cls]
        assert est.means.tolist() == means and est.ses.tolist() == ses


def test_decoders_build_and_run_chains_through_the_traced_methods(layout3, rng, monkeypatch):
    # the benchmark counts chains at MetropolisChain.__init__ and steps at
    # MetropolisChain.run; one chain per class is built, and every
    # temperature it samples passes run and verify_confinement
    counts = {"chains": 0, "steps": 0, "verified": 0}
    init, run, verify = (
        MetropolisChain.__init__, MetropolisChain.run, MetropolisChain.verify_confinement
    )

    def counted_init(self, *args, **kwargs):
        counts["chains"] += 1
        init(self, *args, **kwargs)

    def counted_run(self, n_steps, accumulate=True):
        counts["steps"] += n_steps
        run(self, n_steps, accumulate)

    def counted_verify(self):
        counts["verified"] += 1
        verify(self)

    monkeypatch.setattr(MetropolisChain, "__init__", counted_init)
    monkeypatch.setattr(MetropolisChain, "run", counted_run)
    monkeypatch.setattr(MetropolisChain, "verify_confinement", counted_verify)
    syn, _, chain_set = seeded_chain_set(layout3, rng)
    n_sample = 81
    decode_free_energy(
        layout3, syn, MODEL, free_energy_temperatures(MODEL, 21), n_sample, chain_set,
        np.random.SeedSequence(2),
    )
    assert counts == {"chains": 4, "steps": 4 * 20 * n_sample, "verified": 4 * 20}
    counts.update(chains=0, steps=0, verified=0)
    decode_free_energy(
        layout3, syn, MODEL, free_energy_temperatures(MODEL, 21), n_sample, chain_set,
        np.random.SeedSequence(2), burn_in=17,
    )
    assert counts == {"chains": 4, "steps": 4 * 20 * (17 + n_sample), "verified": 4 * 20}
    counts.update(chains=0, steps=0, verified=0)
    cfg = SingleTempConfig(BB, n_sample, burn_in=17)
    decode_single_temperature(layout3, syn, MODEL, cfg, chain_set, np.random.SeedSequence(3))
    assert counts == {"chains": 4, "steps": 4 * (17 + n_sample), "verified": 4}


def _per_temperature_means(layout, model, betas, chain_set, seed_seq, n_sample, burn_in):
    """Per class, the means and SEs of one chain restarted at each beta and
    run there with an empty feed, so that ``run`` draws its own blocks."""
    rngs = mcmc._class_chain_rngs(seed_seq)
    sampled = {}
    for cls in EQUIV_CLASSES:
        chain = MetropolisChain(layout, model, betas[0], chain_set.frame_for(cls), rngs[cls.index])
        means, ses = [], []
        for beta in betas:
            chain._restart(beta)
            if burn_in:
                chain.run(burn_in, accumulate=False)
            chain.run(n_sample)
            assert not chain._feed
            means.append(chain.estimate)
            ses.append(batch_means_se(chain._batch_sums))
        sampled[cls] = means, ses
    return sampled


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("L", [3, 5])
@pytest.mark.parametrize("model", [MODEL, NoiseModel.independent_xz(0.1, 0.1)], ids=["dep", "ind"])
@pytest.mark.parametrize("burn_in", [0, 17])
def test_sampler_decodes_equal_chains_run_per_temperature(L, model, burn_in):
    # the prefetched feed and its one level pass move no bit: 2100 steps are
    # two full batches and a short one, and 20 temperatures of them need
    # more than one feed per class
    layout = build_layout(L)
    rng = np.random.default_rng(L)
    n_sample = 2100
    assert 20 * (burn_in + n_sample) > mcmc._FEED_DRAWS
    temps = free_energy_temperatures(model, 21)
    for k in range(2):
        syn, _, chain_set = seeded_chain_set(layout, rng, model)
        cfg = SingleTempConfig(beta_bar(model), n_sample, burn_in)
        single = decode_single_temperature(
            layout, syn, model, cfg, chain_set, np.random.SeedSequence([L, k, 1])
        )
        ref = _per_temperature_means(
            layout, model, [cfg.beta_star], chain_set, np.random.SeedSequence([L, k, 1]),
            n_sample, burn_in,
        )
        for cls in EQUIV_CLASSES:
            single_cls = [single.scores[cls], single.detail["se"][cls]]
            assert _bits(single_cls) == _bits(ref[cls][0] + ref[cls][1])

        free = decode_free_energy(
            layout, syn, model, temps, n_sample, chain_set, np.random.SeedSequence([L, k, 2]),
            burn_in,
        )
        ref = _per_temperature_means(
            layout, model, temps[1:].tolist(), chain_set, np.random.SeedSequence([L, k, 2]),
            n_sample, burn_in,
        )
        coef = np.full(21, 2.0)
        coef[1::2] = 4.0
        coef[0] = coef[-1] = 1.0
        coef *= (temps[1] - temps[0]) / 3.0
        for cls in EQUIV_CLASSES:
            est = free.detail["free_energy"][cls]
            means = [zero_temperature_score(model, layout), *ref[cls][0]]
            ses = [0.0, *ref[cls][1]]
            integral = simpson(means, temps)
            integral_se = float(np.sqrt(np.sum((coef * np.array(ses)) ** 2)))
            log_z = layout.n_stab * math.log(2.0) - integral
            assert _bits(est.means) == _bits(means) and _bits(est.ses) == _bits(ses)
            assert _bits([est.integral, est.integral_se, est.log_z]) == _bits(
                [integral, integral_se, log_z]
            )


def test_feed_holds_at_most_its_bound(layout3, rng, monkeypatch):
    # the draws of one prefetch stay under the bound, whatever the grid size
    fed = []
    prefetch = MetropolisChain._prefetch

    def counted(self, betas, sizes):
        fed.append(len(betas) * sum(sizes))
        prefetch(self, betas, sizes)

    monkeypatch.setattr(MetropolisChain, "_prefetch", counted)
    syn, _, chain_set = seeded_chain_set(layout3, rng)
    decode_free_energy(
        layout3, syn, MODEL, free_energy_temperatures(MODEL, 21), 1500, chain_set,
        np.random.SeedSequence(1), burn_in=100,
    )
    per_feed = mcmc._FEED_DRAWS // 1600  # temperatures per feed
    assert len(fed) == 4 * -(-20 // per_feed) > 4 and max(fed) <= mcmc._FEED_DRAWS
    # too long for the bound, or a single temperature: run draws its own blocks
    fed.clear()
    decode_free_energy(
        layout3, syn, MODEL, free_energy_temperatures(MODEL, 3), mcmc._FEED_DRAWS // 2 + 1,
        chain_set, np.random.SeedSequence(1),
    )
    for n_sample in (81, mcmc._FEED_DRAWS + 1):
        cfg = SingleTempConfig(BB, n_sample, burn_in=10)
        decode_single_temperature(layout3, syn, MODEL, cfg, chain_set, np.random.SeedSequence(2))
    assert fed == []


def test_run_refuses_a_feed_of_another_beta_or_size(layout3):
    frame = layout3.identity_frame()
    chain = MetropolisChain(layout3, MODEL, BB, frame, np.random.default_rng(0))
    chain._prefetch([BB], [100])
    chain._restart(0.5)
    with pytest.raises(DecoderInternalError, match="feed holds 100 steps at beta"):
        chain.run(100)
    chain._prefetch([0.5, BB], [100, 50])
    with pytest.raises(DecoderInternalError, match="run asks for 99"):
        chain.run(99)
    # the next call finds the feed's next entry: 50 steps at 0.5
    chain.run(50)
    with pytest.raises(DecoderInternalError, match="feed holds 100 steps at beta"):
        chain.run(100)


def test_free_energy_log_z_matches_oracle(layout3, rng):
    syn, _, chain_set = seeded_chain_set(layout3, rng)
    temps = free_energy_temperatures(MODEL, 21)
    verdict = decode_free_energy(
        layout3, syn, MODEL, temps, 40_000, chain_set, np.random.SeedSequence(9)
    )
    estimates = verdict.detail["free_energy"]
    for cls in EQUIV_CLASSES:
        exact_log_z, _ = exact_boltzmann(
            enumerate_orbit(layout3, chain_set.frame_for(cls)), BB
        )
        est = estimates[cls]
        assert est.log_z == pytest.approx(
            layout3.n_stab * math.log(2) - est.integral
        )
        # statistical noise plus a small Simpson bias allowance
        assert math.isfinite(est.integral_se)
        assert abs(est.log_z - exact_log_z) <= 3 * est.integral_se + 0.2


def test_free_energy_agrees_with_single_temperature(layout5):
    n_syndromes = 500
    n_sample = layout5.L ** 4
    temps = free_energy_temperatures(MODEL, 21)
    cfg = SingleTempConfig(BB, n_sample)
    agree = 0
    for i in range(n_syndromes):
        rng = np.random.default_rng(900 + i)
        frame = sample_frame(MODEL, layout5, rng)
        syn = layout5.syndrome_of(frame)
        _, chain_set = decode_enhanced(layout5, syn, MODEL, refine_steps=0)
        v_st = decode_single_temperature(
            layout5, syn, MODEL, cfg, chain_set,
            np.random.SeedSequence(1900, spawn_key=(i,)),
        )
        # quieter nodes than the single-temperature run: the integrand's
        # low-beta tail is large but nearly class-independent, so node noise
        # dominates the integral differences unless it is suppressed
        v_fe = decode_free_energy(
            layout5, syn, MODEL, temps, 4 * n_sample, chain_set,
            np.random.SeedSequence(2900, spawn_key=(i,)),
        )
        agree += v_st.cls == v_fe.cls
    assert agree / n_syndromes >= 0.95


def test_distinguishability_grows_with_code_size():
    # below threshold the averaged gap between the best false class and the
    # true class (min over false classes of <n>, minus <n> of the true class)
    # widens with L (checked qualitatively on a small grid)
    model = NoiseModel.depolarizing(0.14)
    seed = 1414
    gaps = {}
    for L in (5, 7, 9):
        layout = build_layout(L)
        cfg = default_single_temp_config(model, layout)
        per_syndrome = []
        for i in range(150):
            rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(L, i, 0)))
            )
            frame = sample_frame(model, layout, rng)
            syndrome = layout.syndrome_of(frame)
            _, chain_set = decode_enhanced(layout, syndrome, model)
            scores = decode_single_temperature(
                layout, syndrome, model, cfg, chain_set,
                np.random.SeedSequence(seed, spawn_key=(L, i, 1)),
            ).scores
            true_cls = layout.class_of(frame)
            false_min = min(v for c, v in scores.items() if c != true_cls)
            per_syndrome.append(false_min - scores[true_cls])
        gaps[L] = float(np.mean(per_syndrome))
    assert gaps[5] > 0
    assert gaps[5] < gaps[7] < gaps[9]


def test_degenerate_tie_breaks_to_identity(layout3):
    # all four scores equal: fixed priority picks the identity class
    syn = Syndrome((), ())
    _, chain_set = decode_enhanced(layout3, syn, MODEL)
    scores = {c: 1.0 for c in EQUIV_CLASSES}
    from surfmc.matching import _pick_class

    assert _pick_class(scores) == CLASS_I


# ---------------------------------------------------------------------------
# parallel sweep


def test_schedule_validation(layout5):
    for size in (1, 2.5):
        with pytest.raises(InvalidParameterError, match="rectangle_size"):
            parallel_sweep_schedule(layout5, rectangle_size=size)


def test_parallel_sweep_rejects_schedule_of_another_layout(layout3, layout5):
    # an L = 3 schedule on an L = 5 chain used to probe 12 of its 40
    # stabilizers; an L = 5 schedule on an L = 3 chain ended in an IndexError
    for layout, other in ((layout5, layout3), (layout3, layout5)):
        with pytest.raises(InvalidParameterError, match="span"):
            run_parallel_sweep(
                layout, MODEL, BB, layout.identity_frame(),
                parallel_sweep_schedule(other, rectangle_size=2), 10,
                np.random.default_rng(1),
            )


def test_schedule_coloring_invariant():
    for L, size in ((5, 2), (9, 2), (9, 4), (13, 3)):
        lay = build_layout(L)
        sched = parallel_sweep_schedule(lay, rectangle_size=size)
        for group in sched.groups:
            for i, a in enumerate(group):
                for b in group[i + 1:]:
                    assert (
                        sched.rectangles[a].qubit_mask & sched.rectangles[b].qubit_mask
                    ) == 0
        # every stabilizer belongs to exactly one rectangle, every qubit to one
        # at least
        assigned = [s for r in sched.rectangles for s in r.stab_indices]
        assert sorted(assigned) == list(range(lay.n_stab))
        covered = 0
        for rect in sched.rectangles:
            covered |= rect.qubit_mask
        assert covered == (1 << lay.n_qubits) - 1


def test_degenerate_schedule_is_sequential(layout3):
    sched = parallel_sweep_schedule(layout3, rectangle_size=50)
    assert sched.degenerate
    assert len(sched.rectangles) == 1
    assert len(sched.rectangles[0].stab_indices) == layout3.n_stab
    assert len(sched.groups) == 1
    result = run_parallel_sweep(
        layout3, MODEL, BB, layout3.identity_frame(), sched, 2000,
        np.random.default_rng(3),
    )
    assert isinstance(result, SweepResult)
    assert result.steps == 2000


@pytest.mark.parametrize(
    "n_steps, burn_in, name",
    [(10, -4, "burn_in"), (0, 0, "n_steps"), (-3, 0, "n_steps"), (2.5, 0, "n_steps"),
     (10, 1.5, "burn_in")],
)
def test_parallel_sweep_rejects_bad_step_counts(layout3, n_steps, burn_in, name):
    # a negative burn-in used to run fewer steps than SweepResult.steps reported
    sched = parallel_sweep_schedule(layout3, rectangle_size=2)
    with pytest.raises(InvalidParameterError, match=name):
        run_parallel_sweep(
            layout3, MODEL, BB, layout3.identity_frame(), sched, n_steps,
            np.random.default_rng(3), burn_in=burn_in,
        )


def test_schedule_dump(layout5):
    sched = parallel_sweep_schedule(layout5, rectangle_size=2)
    text = sched.dump_text()
    assert "rect 0" in text and "group" in text


def test_parallel_matches_sequential(layout5, rng):
    # stationary equivalence: discard the heat-up transient in both samplers
    sched = parallel_sweep_schedule(layout5, rectangle_size=2)
    probes_per_step = len(sched.groups[0])
    for trial in range(5):
        frame = sample_frame(MODEL, layout5, rng)
        syn = layout5.syndrome_of(frame)
        _, chain_set = decode_enhanced(layout5, syn, MODEL)
        for cls in (CLASS_I, EQUIV_CLASSES[1]):
            seed = chain_set.frame_for(cls)
            chain = MetropolisChain(
                layout5, MODEL, BB, seed, np.random.default_rng(50 + trial)
            )
            chain.run(8_000, accumulate=False)
            chain.run(60_000)
            par = run_parallel_sweep(
                layout5, MODEL, BB, seed, sched, 60_000 // probes_per_step,
                np.random.default_rng(150 + trial),
                burn_in=8_000 // probes_per_step,
            )
            combined = math.hypot(chain.standard_error(), par.standard_error)
            assert abs(chain.estimate - par.estimate) <= 3 * combined


MODELS = [MODEL, NoiseModel.independent_xz(0.1, 0.1)]


@pytest.mark.parametrize("model", MODELS)
def test_batch_loop_matches_delta(rng, model):
    table = mcmc._delta_table(model.kind)
    delta = score_delta(model)
    for L in (2, 3, 5, 7):
        layout = build_layout(L)
        moves = mcmc._layout_moves(layout)
        for _ in range(20):
            frame = sample_frame(NoiseModel.depolarizing(0.4), layout, rng)
            x, z = frame.x, frame.z
            n = error_score(model, frame)
            states = moves.local_states(frame)
            for s, stab in enumerate(layout.stabilizers):
                x_plane = stab.kind == "X"
                d = delta(x, z, stab.mask, x_plane)
                assert table[states[s]] == d
                moved = PauliFrame(
                    layout.n_qubits, *((x ^ stab.mask, z) if x_plane else (x, z ^ stab.mask))
                )
                assert error_score(model, moved) == n + d
                # beta = 0 accepts every move, beta = inf only non-increasing ones
                for beta, accepts in ((0.0, True), (math.inf, d <= 0)):
                    chain = MetropolisChain(layout, model, beta, frame, np.random.default_rng(0))
                    cum = chain._moves([s], chain._levels(np.array([0.5])))
                    after, n_after = (moved, n + d) if accepts else (frame, n)
                    assert (chain.frame, chain.current_n, cum) == (after, n_after, n_after)
                    assert chain._states == moves.local_states(after)


@pytest.mark.parametrize("model", MODELS)
def test_levels_decide_as_the_threshold_test(layout3, model):
    # accepting iff Delta n <= level must be u < exp(-beta Delta n) (always
    # for Delta n <= 0), also for u on a threshold and on its neighbours
    temps = free_energy_temperatures(model, 21)
    for beta in (0.0, math.inf, beta_bar(model), *map(float, temps[1:])):
        chain = MetropolisChain(
            layout3, model, beta, layout3.identity_frame(), np.random.default_rng(0)
        )
        thresholds = [math.exp(-beta * d) for d in (1, 2, 3, 4)]
        assert chain._thresholds.tolist() == sorted(thresholds)
        us = [0.0, np.nextafter(1.0, 0.0)]
        for t in thresholds:
            us += [t, np.nextafter(t, 0.0), np.nextafter(t, 1.0)]
        us = sorted({float(u) for u in us if 0.0 <= u < 1.0})
        levels = chain._levels(np.array(us))
        assert levels == bytes(chain._levels(np.array([[u]]))[0] for u in us)
        for u, k in zip(us, levels):
            for d in range(-4, 5):
                assert (d <= k) == (d <= 0 or u < math.exp(-beta * d)), (beta, u, d)


@pytest.mark.parametrize("model", MODELS)
def test_feed_levels_equal_levels_row_by_row(layout3, model):
    # the one-pass levels of a prefetched feed decide as each beta's own
    # searchsorted, also on the thresholds of every grid beta and their
    # neighbours
    betas = [0.0, *map(float, free_energy_temperatures(model, 21)[1:]), math.inf]
    us = {0.0, float(np.nextafter(1.0, 0.0))}
    for beta in betas:
        for d in (1, 2, 3, 4):
            t = math.exp(-beta * d)
            us |= {t, float(np.nextafter(t, 0.0)), float(np.nextafter(t, 1.0))}
    us = np.array(sorted(u for u in us if 0.0 <= u < 1.0))
    matrix = np.tile(us, (len(betas), 1))
    expect = b"".join(
        MetropolisChain(layout3, model, beta, layout3.identity_frame(),
                        np.random.default_rng(0))._levels(us)
        for beta in betas
    )
    assert mcmc._feed_levels(betas, matrix) == expect
    for k, beta in enumerate(betas):
        row = expect[k * len(us):(k + 1) * len(us)]
        assert mcmc._feed_levels([beta], matrix[k:k + 1]) == row
        assert mcmc._feed_levels([beta, beta], matrix[:2]) == row * 2


@pytest.mark.parametrize("L", [3, 4, 7])
@pytest.mark.parametrize("model", MODELS)
def test_chain_local_states_follow_frame(L, model):
    layout = build_layout(L)
    for beta in (0.0, beta_bar(model), math.inf):
        frame = sample_frame(model, layout, np.random.default_rng(L))
        chain = MetropolisChain(layout, model, beta, frame, np.random.default_rng(7))
        # checked often: a missed flip undoes itself on the next accepted move.
        # A hot run leaves the states stale, so they are read as the table
        # loop reads them, rebuilt when stale
        for _ in range(30):
            chain.run(100)
            assert chain._local_states() == chain._local.local_states(chain.frame)
            chain.step()
            assert chain._states == chain._local.local_states(chain.frame)


def test_layout_move_cache_shared_by_equal_layouts():
    # built on the first chain's use; a layout built from a numpy distance is
    # the same layout, so its chains share the table
    noise._layout_moves.cache_clear()
    layout = build_layout(3)
    frame = sample_frame(MODEL, layout, np.random.default_rng(1))
    chain = MetropolisChain(layout, MODEL, BB, frame, np.random.default_rng(2))
    other = MetropolisChain(build_layout(np.int64(3)), MODEL, BB, frame, np.random.default_rng(3))
    assert other._local is chain._local is noise._layout_moves(layout)
    assert noise._layout_moves.cache_info().misses == 1


# L = 12 has 264 stabilizers, one more byte than an index container of
# bytes holds
@pytest.mark.parametrize("L", [5, 7, 12])
@pytest.mark.parametrize("model", MODELS)
def test_chain_matches_reference_loop(L, model):
    layout = build_layout(L)
    plan = [("burn", 700), ("step",), ("run", 2500), ("step",), ("step",), ("run", 1500)]
    # run takes the frame loop below mcmc._FRAME_LOOP_BELOW and the table loop
    # from it on; steps always take the table loop
    betas = (0.0, 0.3, 1.0, 1.4, beta_bar(model), math.inf)
    assert mcmc._FRAME_LOOP_BELOW not in betas
    for k, beta in enumerate(betas):
        frame = sample_frame(model, layout, np.random.default_rng(100 + k))
        chain = MetropolisChain(layout, model, beta, frame, np.random.default_rng(k))
        for call in plan:
            if call[0] == "step":
                chain.step()
            else:
                chain.run(call[1], accumulate=call[0] == "run")
        ref_frame, ref_cum, ref_steps, ref_batches = reference_metropolis(
            layout, model, beta, frame, np.random.default_rng(k), plan
        )
        assert (chain.frame.x, chain.frame.z) == ref_frame
        assert chain.cumulative_n == ref_cum and chain.step_count == ref_steps
        assert chain._batch_sums == ref_batches


@pytest.mark.parametrize("model", MODELS)
def test_run_takes_the_frame_loop_below_the_switch(layout5, model, monkeypatch):
    calls = []
    for name in ("_moves", "_frame_moves"):
        def counted(self, idx, levels, loop=getattr(MetropolisChain, name), name=name):
            calls.append(name)
            return loop(self, idx, levels)

        monkeypatch.setattr(MetropolisChain, name, counted)
    switch = mcmc._FRAME_LOOP_BELOW
    frame = sample_frame(model, layout5, np.random.default_rng(3))
    for beta, loop in (
        (0.0, "_frame_moves"),
        (float(np.nextafter(switch, 0.0)), "_frame_moves"),
        (switch, "_moves"),
        (beta_bar(model), "_moves"),
        (math.inf, "_moves"),
    ):
        chain = MetropolisChain(layout5, model, beta, frame, np.random.default_rng(4))
        calls.clear()
        chain.run(3000)  # three blocks of at most 1024 draws
        assert calls == [loop] * 3, beta
        calls.clear()
        chain.step()
        assert calls == ["_moves"], beta
        assert chain._states == chain._local.local_states(chain.frame)


def test_chain_rejects_frame_of_another_layout(layout3, layout5, rng):
    frame = sample_frame(MODEL, layout5, rng)
    with pytest.raises(InvalidParameterError):
        MetropolisChain(layout3, MODEL, BB, frame, np.random.default_rng(1))
    with pytest.raises(InvalidParameterError):
        run_parallel_sweep(
            layout3, MODEL, BB, frame, parallel_sweep_schedule(layout3, 2), 10,
            np.random.default_rng(1),
        )


def test_step_is_run_on_one_proposal(layout4):
    frame = sample_frame(MODEL, layout4, np.random.default_rng(1))
    a = MetropolisChain(layout4, MODEL, BB, frame, np.random.default_rng(2))
    b = MetropolisChain(layout4, MODEL, BB, frame, np.random.default_rng(2))
    for _ in range(300):
        a.step()
        b.run(1)
    assert a.frame == b.frame
    assert a.cumulative_n == b.cumulative_n and a.step_count == b.step_count == 300
    # step() records no batch, so it leaves the standard error undefined
    with pytest.raises(InvalidParameterError):
        a.standard_error()
    assert math.isfinite(b.standard_error())


def test_batch_means_se():
    assert batch_means_se([(4, 8), (4, 12), (2, 100)]) == pytest.approx(0.5)
    assert math.isnan(batch_means_se([(4, 8), (2, 100)]))
    assert math.isnan(batch_means_se([]))


def test_free_energy_se_nan_with_single_batch_chains(layout5, rng):
    # n_sample = L^4 = 625 is one RNG batch per chain: no batch-means SE exists
    syn, _, chain_set = seeded_chain_set(layout5, rng)
    verdict = decode_free_energy(
        layout5, syn, MODEL, free_energy_temperatures(MODEL, 3), 625, chain_set,
        np.random.SeedSequence(4),
    )
    for est in verdict.detail["free_energy"].values():
        assert math.isnan(est.ses[1]) and math.isnan(est.integral_se)
