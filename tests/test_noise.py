import math

import numpy as np
import pytest

from surfmc import (
    InvalidParameterError,
    NoiseModel,
    PauliFrame,
    beta_bar,
    build_layout,
    chain_energy,
    error_score,
    sample_frame,
)
from surfmc.noise import DEPOLARIZING, score_delta


def test_depolarizing_expansion():
    m = NoiseModel.depolarizing(0.3)
    assert m.p_x == m.p_y == m.p_z == pytest.approx(0.1)
    assert m.p_i == pytest.approx(0.7)
    assert sum(m.probs) == pytest.approx(1.0)


def test_independent_expansion():
    m = NoiseModel.independent_xz(0.2, 0.05)
    assert m.p_x == pytest.approx(0.2 * 0.95)
    assert m.p_z == pytest.approx(0.05 * 0.8)
    assert m.p_y == pytest.approx(0.2 * 0.05)


def test_invalid_probabilities():
    with pytest.raises(InvalidParameterError):
        NoiseModel.depolarizing(1.0)
    with pytest.raises(InvalidParameterError):
        NoiseModel.independent_xz(-0.1, 0.2)
    with pytest.raises(InvalidParameterError):
        NoiseModel(DEPOLARIZING, 0.5, 0.4, 0.3)  # components sum above 1


@pytest.mark.parametrize(
    "make",
    [
        lambda: NoiseModel.depolarizing("0.1"),
        lambda: NoiseModel.depolarizing(False),
        lambda: NoiseModel(DEPOLARIZING, "0.1", 0.0, 0.0),
    ],
    ids=["str", "bool", "component_str"],
)
def test_rates_must_be_real_numbers(make):
    # a string used to fail with a TypeError in the comparison
    with pytest.raises(InvalidParameterError):
        make()


def test_beta_bar_values():
    assert beta_bar(NoiseModel.depolarizing(0.75)) == pytest.approx(0.0)
    assert beta_bar(NoiseModel.depolarizing(0.1)) == pytest.approx(math.log(27.0))
    assert beta_bar(NoiseModel.depolarizing(0.189)) == pytest.approx(
        math.log(3 * 0.811 / 0.189)
    )
    assert beta_bar(NoiseModel.independent_xz(0.1, 0.1)) == pytest.approx(math.log(9.0))


def test_beta_bar_monotone():
    ps = np.linspace(0.01, 0.74, 40)
    vals = [beta_bar(NoiseModel.depolarizing(p)) for p in ps]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_beta_bar_domain_errors():
    with pytest.raises(InvalidParameterError):
        beta_bar(NoiseModel.depolarizing(0.0))
    with pytest.raises(InvalidParameterError):
        beta_bar(NoiseModel.independent_xz(0.1, 0.2))  # asymmetric


def test_chain_energy_examples(layout3):
    model = NoiseModel.depolarizing(0.1)
    assert chain_energy(model, layout3.identity_frame()) == 0.0
    frame = PauliFrame.from_paulis(layout3.n_qubits, {q: "X" for q in range(5)})
    assert chain_energy(model, frame) == pytest.approx(5 * math.log(27.0))
    indep = NoiseModel.independent_xz(0.1, 0.1)
    y_frame = PauliFrame.from_paulis(layout3.n_qubits, {3: "Y"})
    assert chain_energy(indep, y_frame) == pytest.approx(2 * math.log(9.0))


def test_chain_energy_y_counts_once(layout3):
    model = NoiseModel.depolarizing(0.2)
    y = PauliFrame.from_paulis(layout3.n_qubits, {0: "Y"})
    x = PauliFrame.from_paulis(layout3.n_qubits, {0: "X"})
    assert chain_energy(model, y) == pytest.approx(chain_energy(model, x))


def test_chain_energy_zero_component_rejected(layout3):
    model = NoiseModel.independent_xz(0.1, 0.0)  # p_y = p_b * p_p = 0
    frame = PauliFrame.from_paulis(layout3.n_qubits, {0: "Y"})
    with pytest.raises(InvalidParameterError):
        chain_energy(model, frame)
    # unused zero components are fine
    x_only = PauliFrame.from_paulis(layout3.n_qubits, {0: "X"})
    assert chain_energy(model, x_only) > 0


def test_error_score(layout3):
    frame = PauliFrame.from_paulis(layout3.n_qubits, {0: "Y", 1: "X", 2: "Z"})
    assert error_score(NoiseModel.depolarizing(0.1), frame) == 3
    assert error_score(NoiseModel.independent_xz(0.1, 0.1), frame) == 4


@pytest.mark.parametrize(
    "model", [NoiseModel.depolarizing(0.1), NoiseModel.independent_xz(0.1, 0.1)]
)
def test_score_delta_is_error_score_change(layout3, rng, model):
    # arbitrary masks, not just stabilizers: refinement flips compound moves
    delta = score_delta(model)
    nq = layout3.n_qubits
    for _ in range(200):
        x, z, mask = (int(v) for v in rng.integers(0, 1 << nq, size=3))
        before = error_score(model, PauliFrame(nq, x, z))
        for x_plane, moved in ((True, (x ^ mask, z)), (False, (x, z ^ mask))):
            after = error_score(model, PauliFrame(nq, *moved))
            assert delta(x, z, mask, x_plane) == after - before


def test_sample_frame_p0(layout3, rng):
    model = NoiseModel.depolarizing(0.0)
    for _ in range(10):
        assert sample_frame(model, layout3, rng).weight() == 0


def test_sample_frame_uniform_point(layout4):
    # p = 3/4 makes all four Paulis equally likely
    model = NoiseModel.depolarizing(0.75)
    rng = np.random.default_rng(5)
    n = 4000
    mean = sum(sample_frame(model, layout4, rng).weight() for _ in range(n)) / n
    expect = 0.75 * layout4.n_qubits
    se = math.sqrt(layout4.n_qubits * 0.75 * 0.25 / n)
    assert abs(mean - expect) <= 3 * se


def test_sample_frame_binomial_mean():
    # 481 qubits at p = 0.1: mean weight 48.1, checked to 3 sigma
    layout = build_layout(16)
    assert layout.n_qubits == 481
    model = NoiseModel.depolarizing(0.1)
    rng = np.random.default_rng(11)
    n = 100_000
    total = 0
    for _ in range(n):
        total += sample_frame(model, layout, rng).weight()
    mean = total / n
    se = math.sqrt(481 * 0.1 * 0.9 / n)
    assert abs(mean - 48.1) <= 3 * se


def test_sample_frame_reproducible(layout4):
    model = NoiseModel.depolarizing(0.13)
    a = sample_frame(model, layout4, np.random.default_rng(42))
    b = sample_frame(model, layout4, np.random.default_rng(42))
    assert a == b


def test_relative_probability_matches_boltzmann():
    # enumerate every frame of the L=2 code and compare exact channel
    # probabilities with the exp(-beta_bar n) form
    lay = build_layout(2)
    p = 0.1
    model = NoiseModel.depolarizing(p)
    bb = beta_bar(model)
    probs = {}
    for x in range(1 << lay.n_qubits):
        for z in range(1 << lay.n_qubits):
            frame = PauliFrame(lay.n_qubits, x, z)
            prob = 1.0
            for q in range(lay.n_qubits):
                prob *= (1 - p) if frame.pauli_at(q) == "I" else p / 3.0
            probs[(x, z)] = (prob, frame.weight())
    (p0, n0) = probs[(0, 0)]
    for prob, n in probs.values():
        assert prob / p0 == pytest.approx(math.exp(-bb * n), rel=1e-9)
