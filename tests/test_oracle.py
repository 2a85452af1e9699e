import math

import numpy as np
import pytest

from surfmc import (
    CLASS_I,
    EQUIV_CLASSES,
    InvalidParameterError,
    NoiseModel,
    PauliFrame,
    Syndrome,
    build_layout,
    decode_enhanced,
    enumerate_orbit,
    exact_boltzmann,
    exact_class_distribution,
    exact_decoder,
    sample_frame,
)

MODEL = NoiseModel.depolarizing(0.1)


def test_orbit_identity_l2():
    lay = build_layout(2)
    orbit = enumerate_orbit(lay, lay.identity_frame())
    assert orbit.orbit_size == 16
    assert orbit.weight_histogram[0] == 1
    assert orbit.min_weight == 0


def test_orbit_identity_l3(layout3):
    orbit = enumerate_orbit(layout3, layout3.identity_frame())
    assert orbit.orbit_size == 4096
    assert orbit.weight_histogram[0] == 1
    assert orbit.min_weight == 0


def test_orbit_single_error(layout3):
    q = layout3.qubit_index[(0, 0)]
    rep = PauliFrame.from_paulis(layout3.n_qubits, {q: "X"})
    orbit = enumerate_orbit(layout3, rep)
    assert orbit.min_weight == 1


def test_enumeration_bound():
    lay = build_layout(4)  # 24 stabilizers: over the desk-scale bound
    with pytest.raises(InvalidParameterError):
        enumerate_orbit(lay, lay.identity_frame())


def test_orbit_rejects_representative_of_another_layout(layout3, rng):
    for L in (2, 5):
        lay = build_layout(L)
        with pytest.raises(InvalidParameterError):
            enumerate_orbit(layout3, sample_frame(MODEL, lay, rng))


def test_boltzmann_limits(layout3):
    q = layout3.qubit_index[(2, 2)]
    rep = PauliFrame.from_paulis(layout3.n_qubits, {q: "X"})
    orbit = enumerate_orbit(layout3, rep)
    _, mean_cold = exact_boltzmann(orbit, 60.0)
    assert mean_cold == pytest.approx(orbit.min_weight, abs=1e-6)
    log_z0, mean_hot = exact_boltzmann(orbit, 0.0)
    assert log_z0 == pytest.approx(layout3.n_stab * math.log(2.0))
    hist_mean = sum(w * c for w, c in orbit.weight_histogram.items()) / orbit.orbit_size
    assert mean_hot == pytest.approx(hist_mean)


def test_orbit_representative_invariance(layout3, rng):
    frame = sample_frame(MODEL, layout3, rng)
    orbit_a = enumerate_orbit(layout3, frame)
    deformed = frame
    for _ in range(5):
        stab = layout3.stabilizers[int(rng.integers(0, layout3.n_stab))]
        deformed = layout3.apply_stabilizer(deformed, stab)
    orbit_b = enumerate_orbit(layout3, deformed)
    assert orbit_a.weight_histogram == orbit_b.weight_histogram


def test_exact_decoder_empty(layout3):
    assert exact_decoder(layout3, Syndrome((), ()), MODEL) == CLASS_I


def test_exact_decoder_prefers_correlated_minimum(layout3):
    # anyon pattern whose true minimum puts a bit- and a phase-flip on one qubit
    frame = PauliFrame.from_paulis(
        layout3.n_qubits,
        {layout3.qubit_index[(1, 1)]: "X", layout3.qubit_index[(2, 2)]: "Y"},
    )
    syn = layout3.syndrome_of(frame)
    assert exact_decoder(layout3, syn, MODEL) == layout3.class_of(frame)


def test_exact_decoder_rejects_other_models(layout3):
    with pytest.raises(InvalidParameterError):
        exact_decoder(layout3, Syndrome((), ()), NoiseModel.independent_xz(0.1, 0.1))


def test_class_distribution_normalized(layout3, rng):
    for _ in range(20):
        frame = sample_frame(MODEL, layout3, rng)
        syn = layout3.syndrome_of(frame)
        dist = exact_class_distribution(layout3, syn, MODEL)
        assert sum(dist.values()) == pytest.approx(1.0)
        assert all(v >= 0 for v in dist.values())
        best = max(EQUIV_CLASSES, key=lambda c: (dist[c], -c.index))
        assert best == exact_decoder(layout3, syn, MODEL)


def test_distribution_invariant_under_representative(layout3, rng):
    frame = sample_frame(MODEL, layout3, rng)
    syn = layout3.syndrome_of(frame)
    a = exact_class_distribution(layout3, syn, MODEL)
    b = exact_class_distribution(layout3, syn, MODEL)
    for cls in EQUIV_CLASSES:
        assert a[cls] == pytest.approx(b[cls])


def test_orbit_beta0_mean_is_reported_per_orbit(layout3, rng):
    # per-orbit infinite-temperature means coincide with (3/4) n_qubits
    # because every qubit sees the full local Pauli group uniformly
    frame = sample_frame(MODEL, layout3, rng)
    _, chain_set = decode_enhanced(layout3, layout3.syndrome_of(frame), MODEL)
    for cls in EQUIV_CLASSES:
        orbit = enumerate_orbit(layout3, chain_set.frame_for(cls))
        _, mean0 = exact_boltzmann(orbit, 0.0)
        assert mean0 == pytest.approx(0.75 * layout3.n_qubits)


def test_orbit_matches_stabilizer_walk(layout3, rng):
    # independent of the subset-XOR tables: apply generators along a Gray code
    for _ in range(3):
        frame = sample_frame(MODEL, layout3, rng)
        walk = {}
        f = frame
        for k in range(1 << layout3.n_stab):
            if k:
                f = layout3.apply_stabilizer(f, layout3.stabilizers[(k & -k).bit_length() - 1])
            walk[f.weight()] = walk.get(f.weight(), 0) + 1
        assert enumerate_orbit(layout3, frame).weight_histogram == walk
