import dataclasses
import pickle

import numpy as np
import pytest

from surfmc import (
    CLASS_I,
    CLASS_X,
    CLASS_Y,
    CLASS_Z,
    EQUIV_CLASSES,
    InvalidParameterError,
    PauliFrame,
    build_layout,
)


@pytest.mark.parametrize(
    "L,n_qubits,n_stab",
    [(2, 5, 4), (3, 13, 12), (4, 25, 24)],
)
def test_counts(L, n_qubits, n_stab):
    lay = build_layout(L)
    assert lay.n_qubits == n_qubits
    assert lay.n_stab == n_stab == 2 * L * (L - 1)
    assert len(lay.z_stabilizers) == len(lay.x_stabilizers) == n_stab // 2
    assert lay.n_qubits == lay.n_stab + 1


def test_rejects_small_L():
    with pytest.raises(InvalidParameterError):
        build_layout(1)


def test_code_distance_is_an_integer():
    # a numpy integer from a caller's sweep builds the same layout, with the
    # distance stored as a Python int
    layout = build_layout(np.int64(3))
    assert type(layout.L) is int and layout.dump_text() == build_layout(3).dump_text()
    for L in (3.0, True):
        with pytest.raises(InvalidParameterError, match="code distance"):
            build_layout(L)


def test_stabilizer_supports(layout4):
    sizes = {len(s.qubits) for s in layout4.stabilizers}
    assert sizes == {3, 4}
    span = layout4.span
    for s in layout4.stabilizers:
        r, c = s.coord
        interior = 0 < r < span and 0 < c < span
        if interior:
            assert len(s.qubits) == 4
        assert s.mask.bit_count() == len(s.qubits)


def test_stabilizers_commute(layout4):
    for zs in layout4.z_stabilizers:
        for xs in layout4.x_stabilizers:
            assert (zs.mask & xs.mask).bit_count() % 2 == 0


def test_syndrome_identity(layout3):
    assert layout3.syndrome_of(layout3.identity_frame()).is_empty


def test_syndrome_single_x_interior(layout3):
    q = layout3.qubit_index[(2, 2)]
    frame = PauliFrame.from_paulis(layout3.n_qubits, {q: "X"})
    syn = layout3.syndrome_of(frame)
    assert len(syn.p_anyons) == 2 and len(syn.s_anyons) == 0
    coords = {layout3.z_stabilizers[i].coord for i in syn.p_anyons}
    assert coords == {(1, 2), (3, 2)}


def test_syndrome_single_y_interior(layout3):
    q = layout3.qubit_index[(2, 2)]
    frame = PauliFrame.from_paulis(layout3.n_qubits, {q: "Y"})
    syn = layout3.syndrome_of(frame)
    assert len(syn.p_anyons) == 2 and len(syn.s_anyons) == 2
    assert {layout3.x_stabilizers[i].coord for i in syn.s_anyons} == {(2, 1), (2, 3)}


def test_apply_stabilizer_on_identity(layout3):
    stab = layout3.x_stabilizers[0]
    frame = layout3.apply_stabilizer(layout3.identity_frame(), stab)
    assert frame.x == stab.mask and frame.z == 0
    assert frame.weight() == len(stab.qubits)


def test_apply_stabilizer_involution(layout3, rng):
    frame = PauliFrame(
        layout3.n_qubits,
        int(rng.integers(0, 1 << layout3.n_qubits)),
        int(rng.integers(0, 1 << layout3.n_qubits)),
    )
    for stab in layout3.stabilizers:
        twice = layout3.apply_stabilizer(layout3.apply_stabilizer(frame, stab), stab)
        assert twice == frame


def test_apply_stabilizer_z_becomes_y(layout3):
    stab = next(s for s in layout3.x_stabilizers if len(s.qubits) == 4)
    q = stab.qubits[0]
    frame = PauliFrame.from_paulis(layout3.n_qubits, {q: "Z"})
    out = layout3.apply_stabilizer(frame, stab)
    assert out.pauli_at(q) == "Y"
    assert all(out.pauli_at(p) == "X" for p in stab.qubits[1:])
    assert out.weight() - frame.weight() == len(stab.qubits) - 1


def test_stabilizers_preserve_syndrome_and_class(layout3, rng):
    for _ in range(20):
        frame = PauliFrame(
            layout3.n_qubits,
            int(rng.integers(0, 1 << layout3.n_qubits)),
            int(rng.integers(0, 1 << layout3.n_qubits)),
        )
        syn = layout3.syndrome_of(frame)
        cls = layout3.class_of(frame)
        stab = layout3.stabilizers[int(rng.integers(0, layout3.n_stab))]
        out = layout3.apply_stabilizer(frame, stab)
        assert layout3.syndrome_of(out) == syn
        assert layout3.class_of(out) == cls


def test_class_examples(layout3):
    assert layout3.class_of(layout3.identity_frame()) == CLASS_I
    assert layout3.class_of(layout3.logical_x_frame()) == CLASS_X
    assert layout3.class_of(layout3.logical_z_frame()) == CLASS_Z
    # sigma-y on the whole logical-X support flips both parities at L=3
    y_frame = PauliFrame(
        layout3.n_qubits, layout3.logical_x_mask, layout3.logical_x_mask
    )
    assert layout3.class_of(y_frame) == CLASS_Y


def test_class_bilinearity(layout4, rng):
    n = layout4.n_qubits
    for _ in range(50):
        f = PauliFrame(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))
        g = PauliFrame(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))
        assert layout4.class_of(f * g) == layout4.class_of(f) ^ layout4.class_of(g)


def test_class_group_structure():
    for a in EQUIV_CLASSES:
        assert a ^ CLASS_I == a
        assert a ^ a == CLASS_I
    assert CLASS_X ^ CLASS_Z == CLASS_Y


def test_stabilizer_subgroup_exhaustive(layout3):
    # every product of stabilizers has empty syndrome and trivial class
    frame = layout3.identity_frame()
    seen_weights = set()
    for k in range(1, 1 << layout3.n_stab):
        g = (k & -k).bit_length() - 1
        frame = layout3.apply_stabilizer(frame, layout3.stabilizers[g])
        seen_weights.add(frame.weight())
        if k % 512 == 0 or k < 64:
            assert layout3.syndrome_of(frame).is_empty
            assert layout3.class_of(frame) == CLASS_I
    assert 0 not in seen_weights  # identity appears only at k=0


def test_logicals_commute_with_stabilizers(layout4):
    for s in layout4.z_stabilizers:
        # logical X is x-type: only Z-stabilizers could anticommute
        assert (layout4.logical_x_mask & s.mask).bit_count() % 2 == 0
    for s in layout4.x_stabilizers:
        assert (layout4.logical_z_mask & s.mask).bit_count() % 2 == 0
    assert (layout4.logical_x_mask & layout4.logical_z_mask).bit_count() % 2 == 1


def test_logical_weights(layout5):
    assert layout5.logical_x_frame().weight() == layout5.L
    assert layout5.logical_z_frame().weight() == layout5.L


def test_dump_text(layout3):
    text = layout3.dump_text()
    lines = text.strip().split("\n")
    assert lines[0] == "layout L=3 qubits=13 stabilizers=12"
    assert sum(1 for ln in lines if ln.startswith("qubit ")) == 13
    assert sum(1 for ln in lines if ln.startswith("stab ")) == 12
    assert text == layout3.dump_text()  # stable


def test_frame_helpers(layout3):
    frame = PauliFrame.from_paulis(layout3.n_qubits, {0: "X", 1: "Z", 2: "Y"})
    assert frame.pauli_at(0) == "X"
    assert frame.pauli_at(1) == "Z"
    assert frame.pauli_at(2) == "Y"
    assert frame.pauli_at(3) == "I"
    assert frame.weight() == 3
    assert (frame * frame).weight() == 0


def test_frame_is_immutable(layout3):
    frame = PauliFrame.from_paulis(layout3.n_qubits, {0: "X", 1: "Z"})
    for name in ("n_qubits", "x", "z"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(frame, name, 0)
    assert frame == PauliFrame(layout3.n_qubits, 1, 2)
    assert not hasattr(frame, "set_pauli") and not hasattr(frame, "copy")


def test_equal_frames_hash_equal_and_serve_as_keys(layout3):
    n = layout3.n_qubits
    frame, twin = PauliFrame(n, 5, 3), PauliFrame.from_paulis(n, {0: "Y", 1: "Z", 2: "X"})
    assert frame == twin and frame is not twin and hash(frame) == hash(twin)
    assert frame != PauliFrame(n + 1, 5, 3) and frame != PauliFrame(n, 3, 5)
    assert len({frame, twin, PauliFrame(n, 3, 5)}) == 2
    assert {frame: "a"}[twin] == "a"


def test_frame_pickles_to_an_equal_frame(layout3):
    frame = PauliFrame(layout3.n_qubits, layout3.logical_x_mask, 6)
    assert pickle.loads(pickle.dumps(frame)) == frame


def _packed(layout, syndrome):
    """A syndrome as a bitmask over global stabilizer indices, written out
    from the stabilizers' own global indices."""
    return sum(1 << layout.z_stabilizers[a].index for a in syndrome.p_anyons) + sum(
        1 << layout.x_stabilizers[a].index for a in syndrome.s_anyons
    )


def _test_frames(layout, rng):
    """60 seeded random frames, dense and sparse, then every one-qubit frame."""
    n = layout.n_qubits

    def plane(sparse):
        bits = (1 << n) - 1
        for _ in range(3 if sparse else 1):
            bits &= int.from_bytes(rng.bytes(n), "big")
        return bits

    frames = [PauliFrame(n, plane(k % 2), plane(k % 3 == 0)) for k in range(60)]
    return frames + [PauliFrame.from_paulis(n, {q: p}) for q in range(n) for p in "XYZ"]


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7])
def test_syndrome_bits_pack_syndrome_of(L):
    layout = build_layout(L)
    for frame in _test_frames(layout, np.random.default_rng(L)):
        assert layout.syndrome_bits(frame) == _packed(layout, layout.syndrome_of(frame))


@pytest.mark.parametrize("L", range(2, 12))
def test_shift_parities_equal_per_stabilizer_parities(L):
    # the shift-and-XOR rule against each stabilizer's own popcount parity
    layout = build_layout(L)
    for frame in _test_frames(layout, np.random.default_rng(100 + L)):
        odd_z = [s for s in layout.z_stabilizers if (frame.x & s.mask).bit_count() & 1]
        odd_x = [s for s in layout.x_stabilizers if (frame.z & s.mask).bit_count() & 1]
        syndrome = layout.syndrome_of(frame)
        assert syndrome.p_anyons == tuple(s.species_index for s in odd_z)
        assert syndrome.s_anyons == tuple(s.species_index for s in odd_x)
        z_checks, x_checks = layout.check_parities(frame)
        assert (z_checks.bit_count(), x_checks.bit_count()) == (len(odd_z), len(odd_x))
        # the constructor checks nothing: bits past the last qubit are ignored,
        # as the per-stabilizer masks ignore them
        high = (frame.x | frame.z) << layout.n_qubits
        padded = PauliFrame(layout.n_qubits, frame.x | high, frame.z | high)
        assert layout.syndrome_of(padded) == syndrome


BAD_PAULIS = [
    ({13: "X"}, "qubit must be an integer in \\[0, 12\\], got 13"),
    ({-1: "Z"}, "qubit must be an integer in \\[0, 12\\], got -1"),
    ({500: "X"}, "qubit must be an integer in \\[0, 12\\], got 500"),
    ({1.0: "X"}, "qubit must be an integer"),
    ({True: "Y"}, "qubit must be an integer"),
    ({"1": "X"}, "qubit must be an integer"),
    ({1: "W"}, "a Pauli must be I, X, Y or Z, got 'W'"),
    ({1: "x"}, "a Pauli must be I, X, Y or Z, got 'x'"),
    ({1: "XY"}, "a Pauli must be I, X, Y or Z, got 'XY'"),
    ({1: None}, "a Pauli must be I, X, Y or Z, got None"),
]


@pytest.mark.parametrize("paulis, match", BAD_PAULIS, ids=[repr(c[0]) for c in BAD_PAULIS])
def test_from_paulis_refuses_bad_qubits_and_letters(layout3, paulis, match):
    with pytest.raises(InvalidParameterError, match=match):
        PauliFrame.from_paulis(layout3.n_qubits, paulis)


def test_from_paulis_takes_numpy_qubits_as_python_ints():
    # at 85 qubits (L = 7) a numpy index past bit 63 used to lose its bit
    frame = PauliFrame.from_paulis(85, {np.int64(70): "X", np.int64(84): "Y", 3: "I"})
    assert frame == PauliFrame(85, (1 << 70) | (1 << 84), 1 << 84)
    assert type(frame.x) is int and type(frame.z) is int
    assert repr(frame) == "PauliFrame({70: 'X', 84: 'Y'})"
