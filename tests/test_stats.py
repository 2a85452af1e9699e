"""The in-package numerics against scipy: the Wilson quantile, the Simpson and
log-sum-exp transcriptions (bit-equal) and the exact McNemar tail."""

import math
from fractions import Fraction

import numpy as np
import pytest

from surfmc import NoiseModel, build_layout, free_energy_temperatures, sample_frame
from surfmc.oracle import class_orbits
from surfmc.stats import Z_95, logsumexp, mcnemar_one_sided_pvalue, simpson

scipy_integrate = pytest.importorskip("scipy.integrate")
scipy_special = pytest.importorskip("scipy.special")
scipy_stats = pytest.importorskip("scipy.stats")


def _bits(v) -> str:
    return repr(float(v))


def test_wilson_quantile_is_scipys():
    assert Z_95 == float(scipy_stats.norm.ppf(0.975))


def _odd_grids(rng, count):
    for t in range(count):
        n = 2 * int(rng.integers(1, 25)) + 1
        if t % 3 == 0:
            x = np.sort(rng.uniform(0.0, 5.0, n))
        elif t % 3 == 1:
            x = np.linspace(0.0, rng.uniform(0.1, 3.0), n)
        else:  # repeated points: zero spacings take scipy's guarded branches
            x = np.sort(np.repeat(rng.uniform(0.0, 2.0, (n + 1) // 2), 2)[:n])
        yield x, rng.normal(0.0, 10.0, n) * rng.choice([1e-3, 1.0, 1e3])


def test_simpson_bit_equal_on_random_odd_grids():
    rng = np.random.default_rng(11)
    for x, y in _odd_grids(rng, 600):
        assert _bits(simpson(y, x)) == _bits(scipy_integrate.simpson(y, x=x))


@pytest.mark.parametrize(
    "model", [NoiseModel.depolarizing(0.1), NoiseModel.independent_xz(0.13, 0.13)]
)
@pytest.mark.parametrize("count", [3, 5, 21])
def test_simpson_bit_equal_on_free_energy_grids(model, count):
    temps = free_energy_temperatures(model, count)
    rng = np.random.default_rng(count)
    for _ in range(50):
        means = rng.uniform(0.0, 40.0, count)
        assert _bits(simpson(means, temps)) == _bits(scipy_integrate.simpson(means, x=temps))


@pytest.mark.parametrize("n", [2, 4])
def test_simpson_rejects_even_point_counts(n):
    with pytest.raises(ValueError):
        simpson(np.ones(n), np.arange(float(n)))


def _log_terms(histogram: dict[int, int], beta: float) -> np.ndarray:
    # the oracle's own construction (exact_boltzmann)
    weights = np.array(sorted(histogram), dtype=float)
    counts = np.array([histogram[int(w)] for w in weights], dtype=float)
    return -beta * weights + np.log(counts)


def test_logsumexp_bit_equal_on_random_histograms():
    rng = np.random.default_rng(5)
    for t in range(2000):
        k = int(rng.integers(1, 30))
        weights = rng.choice(60, size=k, replace=False)
        counts = rng.integers(1, 4 if t % 2 else 10**6, size=k)  # few counts: ties
        histogram = dict(zip(weights.tolist(), counts.tolist()))
        for beta in (0.0, float(rng.uniform(0.0, 3.0)), 40.0):
            terms = _log_terms(histogram, beta)
            assert _bits(logsumexp(terms)) == _bits(scipy_special.logsumexp(terms))


@pytest.mark.parametrize(
    "terms",
    [
        [0.0], [3.5], [-2.0, -2.0], [1.0, 1.0, 1.0, -4.0],
        [-math.inf], [-math.inf, 2.0], [1e308, 1e308],
    ],
)
def test_logsumexp_bit_equal_on_edge_inputs(terms):
    terms = np.array(terms)
    assert _bits(logsumexp(terms)) == _bits(scipy_special.logsumexp(terms))


def test_logsumexp_bit_equal_on_oracle_orbits():
    layout = build_layout(3)
    model = NoiseModel.depolarizing(0.1)
    for seed in range(20):
        frame = sample_frame(model, layout, np.random.default_rng(seed))
        for orbit in class_orbits(layout, layout.syndrome_of(frame)).values():
            for beta in (0.0, 0.5, 1.5):
                terms = _log_terms(orbit.weight_histogram, beta)
                assert _bits(logsumexp(terms)) == _bits(scipy_special.logsumexp(terms))


def _exact_tail(n_favor: int, n_against: int) -> float:
    n = n_favor + n_against
    if n == 0:
        return 1.0
    return float(Fraction(sum(math.comb(n, k) for k in range(n_favor, n + 1)), 2**n))


def test_mcnemar_equals_exact_fraction_up_to_60():
    for n in range(61):
        for k in range(n + 1):
            assert mcnemar_one_sided_pvalue(k, n - k) == _exact_tail(k, n - k)


def test_mcnemar_agrees_with_binomial_survival():
    rng = np.random.default_rng(8)
    for _ in range(2000):
        n = int(rng.integers(1, 400))
        k = int(rng.integers(0, n + 1))
        want = float(scipy_stats.binom.sf(k - 1, n, 0.5))
        assert mcnemar_one_sided_pvalue(k, n - k) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_mcnemar_is_finite_at_large_n():
    for k in (0, 1, 2500, 2600, 4999, 5000):
        p = mcnemar_one_sided_pvalue(k, 5000 - k)
        assert math.isfinite(p) and 0.0 <= p <= 1.0
    assert mcnemar_one_sided_pvalue(0, 5000) == 1.0
    assert mcnemar_one_sided_pvalue(2500, 2500) > 0.5
