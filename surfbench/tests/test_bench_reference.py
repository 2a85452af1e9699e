"""The benchmark's reference computations against brute force on small inputs."""

import itertools
import math

import numpy as np
import pytest
from scipy.stats import binom

import reference as ref
import surfmc
from surfmc.stats import wilson_interval


def _code(L):
    return ref.RefCode(L, surfmc.build_layout(L).qubit_coords)


def _random_frame(rng, n):
    nbytes = (n + 7) // 8
    mask = (1 << n) - 1
    return (int.from_bytes(rng.bytes(nbytes), "little") & mask,
            int.from_bytes(rng.bytes(nbytes), "little") & mask)


def _brute_pairing(pair, boundary):
    """Every choice of boundary-matched anyons, every pairing of the rest."""
    n = len(boundary)
    best = math.inf
    for k in range(n + 1):
        for exits in itertools.combinations(range(n), k):
            rest = [i for i in range(n) if i not in exits]
            if len(rest) % 2:
                continue
            cost = sum(boundary[i] for i in exits)
            for perm in itertools.permutations(rest):
                c = cost + sum(pair[perm[i]][perm[i + 1]] for i in range(0, len(perm), 2))
                best = min(best, c)
    return best


@pytest.mark.parametrize("L", [3, 5, 7])
def test_min_pairing_weight_equals_brute_force(L):
    code = _code(L)
    rng = np.random.default_rng(L)
    for _ in range(60):
        for species, checks in (("p", code.z_checks), ("s", code.x_checks)):
            n = int(rng.integers(0, 7))
            anyons = sorted(rng.choice(len(checks), size=n, replace=False).tolist())
            pair, boundary = code.pairing_problem(anyons, species)
            assert ref.min_pairing_weight(pair, boundary) == _brute_pairing(pair, boundary)


def test_min_pairing_weight_equals_standard_matching():
    L = 5
    layout = surfmc.build_layout(L)
    code = _code(L)
    model = surfmc.NoiseModel.depolarizing(0.12)
    rng = np.random.default_rng(5)
    for _ in range(40):
        frame = surfmc.sample_frame(model, layout, rng)
        syn = code.syndrome(frame.x, frame.z)
        verdict = surfmc.decode_standard(layout, layout.syndrome_of(frame), model)
        dp = sum(ref.min_pairing_weight(*code.pairing_problem(a, sp))
                 for a, sp in ((syn[0], "p"), (syn[1], "s")))
        assert verdict.scores[verdict.cls] == dp


@pytest.mark.parametrize("L", [2, 3, 5, 7])
def test_syndrome_agrees_with_layout(L):
    layout = surfmc.build_layout(L)
    code = _code(L)
    rng = np.random.default_rng(L)
    for _ in range(200):
        x, z = _random_frame(rng, layout.n_qubits)
        s = layout.syndrome_of(surfmc.PauliFrame(layout.n_qubits, x, z))
        assert code.syndrome(x, z) == (s.p_anyons, s.s_anyons)


def _group(code):
    out = set()
    gens = code.stabilizer_generators()
    for picks in itertools.product((0, 1), repeat=len(gens)):
        x = z = 0
        for on, (mask, x_plane) in zip(picks, gens):
            if on:
                if x_plane:
                    x ^= mask
                else:
                    z ^= mask
        out.add((x, z))
    return out


def test_class_changes_exactly_with_logical_operators():
    """Frames with one syndrome share a class iff they differ by a stabilizer
    product (brute-force group membership at L = 3)."""
    L = 3
    layout = surfmc.build_layout(L)
    code = _code(L)
    group = _group(code)
    assert len(group) == 1 << len(code.stabilizer_generators())
    gens = code.stabilizer_generators()
    rng = np.random.default_rng(3)
    for _ in range(300):
        fx, fz = _random_frame(rng, layout.n_qubits)
        hx = hz = 0
        for mask, x_plane in gens:
            if rng.random() < 0.5:
                if x_plane:
                    hx ^= mask
                else:
                    hz ^= mask
        a, b = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        col = 2 * int(rng.integers(0, L))  # any even column carries a logical X
        row = 2 * int(rng.integers(0, L))  # any even row carries a logical Z
        if a:
            hx ^= sum(1 << q for q, (r, c) in enumerate(layout.qubit_coords)
                      if c == col and r % 2 == 0)
        if b:
            hz ^= sum(1 << q for q, (r, c) in enumerate(layout.qubit_coords)
                      if r == row and c % 2 == 0)
        gx, gz = fx ^ hx, fz ^ hz
        assert code.syndrome(gx, gz) == code.syndrome(fx, fz)
        same = code.class_label(gx, gz) == code.class_label(fx, fz)
        assert same == ((hx, hz) in group) == (a == 0 and b == 0)
        bit_v = ref.LABELS.index(code.class_label(gx, gz)) & 1
        assert bit_v ^ (ref.LABELS.index(code.class_label(fx, fz)) & 1) == a


def test_direct_orbit_equals_brute_force_at_L2():
    code = _code(2)
    group = _group(code)
    direct = ref.DirectOrbit(code)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x, z = _random_frame(rng, code.n_qubits)
        brute = {}
        for gx, gz in group:
            w = ((x ^ gx) | (z ^ gz)).bit_count()
            brute[w] = brute.get(w, 0) + 1
        assert direct.histogram(x, z) == brute


def test_direct_orbit_equals_gray_code_enumeration_at_L3():
    layout = surfmc.build_layout(3)
    direct = ref.DirectOrbit(_code(3))
    rng = np.random.default_rng(33)
    for _ in range(20):
        x, z = _random_frame(rng, layout.n_qubits)
        orbit = surfmc.enumerate_orbit(layout, surfmc.PauliFrame(layout.n_qubits, x, z))
        assert direct.histogram(x, z) == orbit.weight_histogram
        assert sum(direct.histogram(x, z).values()) == 4096


@pytest.mark.parametrize("a,b", [(0, 0), (3, 0), (0, 5), (7, 3), (12, 30), (40, 41)])
def test_mcnemar_equals_binomial_tail(a, b):
    expected = 1.0 if a + b == 0 else float(binom.sf(a - 1, a + b, 0.5))
    assert ref.mcnemar_worse_pvalue(a, b) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("k,n", [(0, 10), (3, 10), (10, 10), (17, 1000), (0, 0)])
def test_wilson_equals_package_interval(k, n):
    assert ref.wilson(k, n) == pytest.approx(wilson_interval(k, n), rel=1e-12, abs=1e-15)
