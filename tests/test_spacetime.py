import math

import numpy as np
import pytest

from surfmc import (
    InconsistentHypothesisError,
    InvalidMoveError,
    InvalidParameterError,
    MeasurementModel,
    MeasurementRecord,
    NoiseModel,
    PauliFrame,
    SpacetimeChain,
    SpacetimeHypothesis,
    beta_bar,
    build_layout,
    deformation_move,
    initial_hypothesis,
    sample_record,
    spacetime_energy,
)

MODEL = NoiseModel.depolarizing(0.1)


def test_xi_values():
    mm = MeasurementModel.from_probabilities(MODEL, 0.1)
    assert mm.xi == pytest.approx(math.log(9.0) / math.log(27.0))
    assert mm.xi == pytest.approx(2.0 / 3.0)
    assert MeasurementModel.from_probabilities(MODEL, 0.5).xi == pytest.approx(0.0)


def test_xi_monotone_and_sign():
    values = [
        MeasurementModel.from_probabilities(MODEL, pm).xi
        for pm in (0.05, 0.1, 0.2, 0.3, 0.49)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v > 0 for v in values)
    assert MeasurementModel.from_probabilities(MODEL, 0.6).xi < 0
    with pytest.raises(InvalidParameterError):
        MeasurementModel.from_probabilities(MODEL, 0.0)


@pytest.mark.parametrize("p_m", ["0.1", None, True, False, 0.1j, [0.1], math.nan, 1.0, -0.1])
def test_measurement_model_refuses_anything_but_a_rate(p_m):
    with pytest.raises(InvalidParameterError, match="p_M must be a real number in"):
        MeasurementModel.from_probabilities(MODEL, p_m)


def test_record_validation():
    with pytest.raises(InvalidParameterError):
        MeasurementRecord(1, (0,))
    with pytest.raises(InvalidParameterError):
        MeasurementRecord(3, (0, 0))


@pytest.mark.parametrize("observed", [(1.5, 0, 0), (True, 0, 0), (0, -1, 0), (0, 0, "1")], ids=repr)
def test_record_refuses_entries_that_are_not_counts(observed):
    # (1.5, 0, 0) and (True, 0, 0) were accepted, and spacetime_energy of
    # the initial hypothesis then ended in a bare TypeError
    with pytest.raises(InvalidParameterError, match="observed round [1-3] must be an integer >= 0"):
        MeasurementRecord(3, observed)


def test_record_stores_a_list_as_a_tuple(layout3):
    record = MeasurementRecord(3, [0, 1, 0])
    assert record.observed == (0, 1, 0) and record == MeasurementRecord(3, (0, 1, 0))
    assert hash(record) == hash(MeasurementRecord(3, (0, 1, 0)))
    assert initial_hypothesis(layout3, record).is_consistent(layout3)


@pytest.mark.parametrize("observed", [(0, 1 << 40, 0), (0, 0, 1 << 12), ((1 << 13) - 1, 0, 0)])
def test_initial_hypothesis_refuses_bits_of_missing_stabilizers(layout3, observed):
    # L = 3 has 12 stabilizers; (0, 1 << 40, 0) was reported consistent
    with pytest.raises(InvalidParameterError, match=r"observed round [1-3] must be an integer "
                                                    r"in \[0, 4095\]"):
        initial_hypothesis(layout3, MeasurementRecord(3, observed))
    top = MeasurementRecord(3, (0, (1 << 12) - 1, 0))
    assert initial_hypothesis(layout3, top).is_consistent(layout3)


def test_round_count_must_be_an_integer(layout3):
    # 3.0 was accepted, then failed with a TypeError in initial_hypothesis
    # or in sample_record's range
    with pytest.raises(InvalidParameterError, match="t_max"):
        MeasurementRecord(3.0, (0, 0, 0))
    mm = MeasurementModel.from_probabilities(MODEL, 0.1)
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidParameterError, match="t_max"):
        sample_record(layout3, MODEL, mm, 3.0, rng)
    # checked before it samples: the stream is untouched
    assert rng.random() == np.random.default_rng(0).random()


def test_trivial_energy(layout3):
    mm = MeasurementModel.from_probabilities(MODEL, 0.1)
    record = MeasurementRecord(3, (0, 0, 0))
    hyp = initial_hypothesis(layout3, record)
    assert spacetime_energy(hyp, MODEL, mm, layout3) == 0.0


def test_all_flips_hypothesis_always_consistent(layout3, rng):
    mm = MeasurementModel.from_probabilities(MODEL, 0.15)
    record, _ = sample_record(layout3, MODEL, mm, 4, rng)
    hyp = initial_hypothesis(layout3, record)
    assert hyp.is_consistent(layout3)
    assert hyp.error_count(MODEL) == 0
    assert hyp.flip_count() == sum(o.bit_count() for o in record.observed)


def test_sampled_truth_is_consistent(layout3, rng):
    mm = MeasurementModel.from_probabilities(MODEL, 0.1)
    record, truth = sample_record(layout3, MODEL, mm, 5, rng)
    assert truth.is_consistent(layout3)


def test_inconsistent_hypothesis_rejected(layout3):
    mm = MeasurementModel.from_probabilities(MODEL, 0.1)
    record = MeasurementRecord(3, (0, 1, 0))
    hyp = SpacetimeHypothesis(
        record, [layout3.identity_frame(), layout3.identity_frame()], [0, 0, 0]
    )
    with pytest.raises(InconsistentHypothesisError):
        spacetime_energy(hyp, MODEL, mm, layout3)


def test_deformation_involution(layout3, rng):
    mm = MeasurementModel.from_probabilities(MODEL, 0.1)
    record, _ = sample_record(layout3, MODEL, mm, 4, rng)
    hyp = initial_hypothesis(layout3, record)
    q = int(rng.integers(0, layout3.n_qubits))
    once = deformation_move(layout3, hyp, q, 2, "X")
    assert once.is_consistent(layout3)
    twice = deformation_move(layout3, once, q, 2, "X")
    assert twice.frames == hyp.frames and twice.flips == hyp.flips


def test_deformation_boundary_times_rejected(layout3):
    record = MeasurementRecord(3, (0, 0, 0))
    hyp = initial_hypothesis(layout3, record)
    for t in (0, 1, 3, 4, 2.5):
        with pytest.raises(InvalidMoveError):
            deformation_move(layout3, hyp, 0, t)
    with pytest.raises(InvalidParameterError):
        deformation_move(layout3, hyp, 0, 2, pauli="Q")


def test_transient_syndrome_two_explanations(layout3):
    # a syndrome seen at t=2 only: either both adjacent measurements lied, or
    # the qubit erred in [1,2] and the error was undone in [2,3]; one
    # deformation move converts between the two hypotheses
    mm = MeasurementModel.from_probabilities(MODEL, 0.1)
    q = layout3.qubit_index[(2, 2)]
    err = PauliFrame.from_paulis(layout3.n_qubits, {q: "X"})
    syn_bits = layout3.syndrome_bits(err)
    record = MeasurementRecord(3, (0, syn_bits, 0))

    flips_hyp = initial_hypothesis(layout3, record)
    assert flips_hyp.flip_count() == 2 and flips_hyp.error_count(MODEL) == 0
    assert spacetime_energy(flips_hyp, MODEL, mm, layout3) == pytest.approx(2 * mm.xi)

    data_hyp = deformation_move(layout3, flips_hyp, q, 2, "X")
    assert data_hyp.is_consistent(layout3)
    assert data_hyp.flip_count() == 0 and data_hyp.error_count(MODEL) == 2
    assert spacetime_energy(data_hyp, MODEL, mm, layout3) == pytest.approx(2.0)
    assert data_hyp.frames[0].pauli_at(q) == "X"
    assert data_hyp.frames[1].pauli_at(q) == "X"


def test_deformation_preserves_aggregate_class(layout3, rng):
    mm = MeasurementModel.from_probabilities(MODEL, 0.1)
    record, truth = sample_record(layout3, MODEL, mm, 4, rng)
    cls = truth.aggregate_class(layout3)
    hyp = truth
    for _ in range(50):
        q = int(rng.integers(0, layout3.n_qubits))
        t = int(rng.integers(2, 4))
        pauli = "X" if rng.random() < 0.5 else "Z"
        hyp = deformation_move(layout3, hyp, q, t, pauli)
        assert hyp.is_consistent(layout3)
    assert hyp.aggregate_class(layout3) == cls


def test_chain_preserves_record_class_and_counters(layout3, rng):
    mm = MeasurementModel.from_probabilities(MODEL, 0.1)
    record, _ = sample_record(layout3, MODEL, mm, 3, rng)
    hyp = initial_hypothesis(layout3, record)
    cls = hyp.aggregate_class(layout3)
    chain = SpacetimeChain(layout3, MODEL, mm, hyp, rng)
    for _ in range(2000):
        chain.step()
        assert chain.n == chain.hyp.error_count(MODEL)
        assert chain.m == chain.hyp.flip_count()
    assert chain.hyp.is_consistent(layout3)
    assert chain.hyp.aggregate_class(layout3) == cls
    assert chain.energy == pytest.approx(
        spacetime_energy(chain.hyp, MODEL, mm, layout3)
    )


def test_chain_rejects_inconsistent_seed(layout3):
    mm = MeasurementModel.from_probabilities(MODEL, 0.1)
    record = MeasurementRecord(3, (0, 1, 0))
    bad = SpacetimeHypothesis(
        record, [layout3.identity_frame(), layout3.identity_frame()], [0, 0, 0]
    )
    with pytest.raises(InconsistentHypothesisError):
        SpacetimeChain(layout3, MODEL, mm, bad, np.random.default_rng(0))


@pytest.mark.parametrize("qubit", [-1, 13, 40, 2.5, True])
def test_deformation_qubit_out_of_range_rejected(layout3, qubit):
    assert layout3.n_qubits == 13
    hyp = initial_hypothesis(layout3, MeasurementRecord(3, (0, 0, 0)))
    with pytest.raises(InvalidParameterError, match="deformation qubit"):
        deformation_move(layout3, hyp, qubit, 2, "X")


def test_deformation_takes_numpy_qubit_index():
    # 1 << np.int64(70) overflows; the move must shift a Python int
    layout = build_layout(7)
    hyp = initial_hypothesis(layout, MeasurementRecord(3, (0, 0, 0)))
    moved = deformation_move(layout, hyp, np.int64(70), 2, "X")
    assert moved.frames == deformation_move(layout, hyp, 70, 2, "X").frames
    assert moved.frames[0].x == 1 << 70 and moved.is_consistent(layout)


@pytest.mark.parametrize("beta", [-1.0, math.nan])
def test_chain_rejects_negative_or_nan_beta(layout3, beta):
    mm = MeasurementModel.from_probabilities(MODEL, 0.1)
    hyp = initial_hypothesis(layout3, MeasurementRecord(3, (0, 0, 0)))
    with pytest.raises(InvalidParameterError, match="beta must be >= 0"):
        SpacetimeChain(layout3, MODEL, mm, hyp, np.random.default_rng(0), beta=beta)


@pytest.mark.parametrize("beta", [True, "1"])
def test_chain_beta_must_be_a_real_number(layout3, beta):
    # True ran at beta = 1; "1" failed with a TypeError in the comparison
    mm = MeasurementModel.from_probabilities(MODEL, 0.1)
    hyp = initial_hypothesis(layout3, MeasurementRecord(3, (0, 0, 0)))
    with pytest.raises(InvalidParameterError, match="beta must be >= 0"):
        SpacetimeChain(layout3, MODEL, mm, hyp, np.random.default_rng(0), beta=beta)
    assert SpacetimeChain(layout3, MODEL, mm, hyp, np.random.default_rng(0),
                          beta=math.inf).beta == math.inf


def test_chain_at_zero_temperature_never_raises_energy(layout3, rng):
    mm = MeasurementModel.from_probabilities(MODEL, 0.1)
    record, _ = sample_record(layout3, MODEL, mm, 4, rng)
    chain = SpacetimeChain(layout3, MODEL, mm, initial_hypothesis(layout3, record), rng,
                           beta=math.inf)
    energy = chain.energy
    for _ in range(500):
        chain.step()
        assert chain.energy <= energy + 1e-12
        energy = chain.energy


@pytest.mark.parametrize("n_steps", [2.5, -1])
def test_chain_run_takes_an_integer_step_count(layout3, n_steps):
    mm = MeasurementModel.from_probabilities(MODEL, 0.1)
    hyp = initial_hypothesis(layout3, MeasurementRecord(3, (0, 0, 0)))
    chain = SpacetimeChain(layout3, MODEL, mm, hyp, np.random.default_rng(0))
    with pytest.raises(InvalidParameterError, match="n_steps"):
        chain.run(n_steps)
