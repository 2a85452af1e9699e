import math

import numpy as np
import pytest

from conftest import (
    brute_force_free_boundary_weight,
    brute_force_min_matching,
    networkx_min_weight_perfect_matching,
)
from surfmc import (
    CLASS_I,
    EQUIV_CLASSES,
    DecoderInternalError,
    InfeasibleMatchingError,
    InvalidParameterError,
    NoiseModel,
    PauliFrame,
    Syndrome,
    beta_bar,
    build_layout,
    build_problem,
    chain_energy,
    chain_from_matching,
    decode_both,
    decode_enhanced,
    decode_standard,
    min_weight_perfect_matching,
    refine_frame,
)
from surfmc.matching import SPECIES_P, SPECIES_S, boundary_distances, free_boundary_chain
from surfmc import blossom, matching
from surfmc.oracle import enumerate_orbit

MODEL = NoiseModel.depolarizing(0.1)


def random_syndrome(layout, rng, model=MODEL):
    from surfmc import sample_frame

    frame = sample_frame(model, layout, rng)
    return layout.syndrome_of(frame), frame


# ---------------------------------------------------------------------------
# problem construction


def test_empty_problem(layout3):
    prob = build_problem(layout3, (), SPECIES_P, False)
    assert prob.n_vertices == 0 and prob.edges == ()
    m = min_weight_perfect_matching(prob.n_vertices, prob.edges)
    assert m.pairs == () and m.total_weight == 0
    assert chain_from_matching(layout3, prob, m).weight() == 0


def test_three_anyon_problem_shape(layout5):
    # three detected anyons plus their boundary partners: six vertices,
    # anyons 0..2 first, then partner 3 + i of anyon i
    prob = build_problem(layout5, (0, 7, 12), SPECIES_P, False)
    assert prob.n_vertices == 6
    assert prob.coords == tuple(layout5.z_stabilizers[a].coord for a in (0, 7, 12))
    weights = {(u, v): w for u, v, w in prob.edges}
    for i, c in enumerate(prob.coords):
        dists = boundary_distances(layout5, SPECIES_P, c)
        assert dists[prob.homes[i]] == min(dists)
        assert weights[(i, 3 + i)] == min(dists)
        assert not any((i, v) in weights for v in range(3, 6) if v != 3 + i)
    # partners only join each other, at weight 0
    assert all(w == 0 for (u, v), w in weights.items() if u >= 3)
    m = min_weight_perfect_matching(prob.n_vertices, prob.edges)
    frame = chain_from_matching(layout5, prob, m)
    assert frame.weight() == m.total_weight
    syn = layout5.syndrome_of(frame)
    assert syn.p_anyons == (0, 7, 12) and syn.s_anyons == ()


def test_forced_problem_adds_extras(layout3):
    # one anyon (vertex 0), its partner (1), and the extras 2 + b of boundary b
    prob = build_problem(layout3, (0,), SPECIES_P, True)
    assert prob.n_vertices == 4
    weights = {(u, v): w for u, v, w in prob.edges}
    assert weights[(2, 3)] == layout3.L
    assert (weights[(0, 2)], weights[(0, 3)]) == boundary_distances(
        layout3, SPECIES_P, prob.coords[0]
    )
    assert weights[(1, 2 + prob.homes[0])] == 0 and (1, 3 - prob.homes[0]) not in weights


def test_empty_syndrome_flip_gives_bare_logical(layout3):
    for species, cls_bit in ((SPECIES_P, "bit_v"), (SPECIES_S, "bit_h")):
        prob = build_problem(layout3, (), species, True)
        assert prob.n_vertices == 2
        m = min_weight_perfect_matching(prob.n_vertices, prob.edges)
        assert m.total_weight == layout3.L
        frame = chain_from_matching(layout3, prob, m)
        assert frame.weight() == 3
        assert layout3.syndrome_of(frame).is_empty
        assert getattr(layout3.class_of(frame), cls_bit) == 1


def test_forced_matchings_flip_class(layout5, rng):
    for _ in range(20):
        syn, _ = random_syndrome(layout5, rng)
        for species, anyons in ((SPECIES_P, syn.p_anyons), (SPECIES_S, syn.s_anyons)):
            plain = build_problem(layout5, anyons, species, False)
            forced = build_problem(layout5, anyons, species, True)
            f_plain = chain_from_matching(
                layout5, plain, min_weight_perfect_matching(plain.n_vertices, plain.edges)
            )
            f_forced = chain_from_matching(
                layout5, forced, min_weight_perfect_matching(forced.n_vertices, forced.edges)
            )
            a = layout5.class_of(f_plain)
            b = layout5.class_of(f_forced)
            if species == SPECIES_P:
                assert a.bit_v != b.bit_v and a.bit_h == b.bit_h == 0
            else:
                assert a.bit_h != b.bit_h and a.bit_v == b.bit_v == 0


# ---------------------------------------------------------------------------
# matcher optimality and feasibility


def _random_raw_edges(rng, n):
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.7:
                edges.append((i, j, int(rng.integers(0, 13))))
    return tuple(edges)


def test_matcher_equals_brute_force_raw(rng):
    for _ in range(120):
        n = int(rng.integers(1, 7)) * 2
        edges = _random_raw_edges(rng, n)
        expect = brute_force_min_matching(n, edges)
        if expect is None:
            with pytest.raises(InfeasibleMatchingError):
                min_weight_perfect_matching(n, edges)
        else:
            assert min_weight_perfect_matching(n, edges).total_weight == expect


def test_matcher_equals_brute_force_structured(layout4, rng):
    for _ in range(60):
        k = int(rng.integers(0, 5))
        anyons = tuple(
            sorted(rng.choice(len(layout4.z_stabilizers), size=k, replace=False).tolist())
        )
        for flip in (False, True):
            prob = build_problem(layout4, anyons, SPECIES_P, flip)
            if not prob.n_vertices:
                continue
            expect = brute_force_min_matching(prob.n_vertices, prob.edges)
            assert expect is not None
            assert min_weight_perfect_matching(prob.n_vertices, prob.edges).total_weight == expect
        std = decode_standard(layout4, Syndrome(anyons, ()), MODEL)
        expect = brute_force_free_boundary_weight(layout4, anyons, SPECIES_P)
        assert std.scores[std.cls] == expect


def test_odd_vertex_count_rejected():
    with pytest.raises(InfeasibleMatchingError):
        min_weight_perfect_matching(1, ())
    with pytest.raises(InfeasibleMatchingError):
        min_weight_perfect_matching(3, ((0, 1, 1), (1, 2, 1)))


def _same_as_networkx(n, edges):
    try:
        expect = networkx_min_weight_perfect_matching(n, edges)
    except InfeasibleMatchingError:
        with pytest.raises(InfeasibleMatchingError):
            min_weight_perfect_matching(n, edges)
        return False
    assert min_weight_perfect_matching(n, edges) == expect
    return True


def test_pairs_equal_networkx_on_decoder_problems(rng):
    # the exact pairs, not just the weight: ties must go the same way
    checked = 0
    for L in (3, 5, 7, 9):
        layout = build_layout(L)
        for p in (0.10, 0.15):
            model = NoiseModel.depolarizing(p)
            for _ in range(12):
                syn, _ = random_syndrome(layout, rng, model)
                for species, anyons in ((SPECIES_P, syn.p_anyons), (SPECIES_S, syn.s_anyons)):
                    for flip in (False, True):
                        prob = build_problem(layout, anyons, species, flip)
                        checked += _same_as_networkx(prob.n_vertices, prob.edges)
    assert checked == 4 * 2 * 12 * 4


def test_pairs_equal_networkx_on_raw_graphs(rng):
    feasible = infeasible = 0
    for _ in range(300):
        n = int(rng.integers(1, 9)) * 2
        density = rng.uniform(0.1, 1.0)
        isolated = int(rng.integers(n)) if rng.random() < 0.2 else -1
        edges = [
            (i, j, int(rng.integers(0, 13)))
            for i in range(n)
            for j in range(i + 1, n)
            if isolated not in (i, j) and rng.random() < density
        ]
        rng.shuffle(edges)
        ok = _same_as_networkx(n, tuple(edges))
        feasible += ok
        infeasible += not ok
    assert feasible > 50 and infeasible > 50


def test_certificate_rejects_non_optimal_matching():
    # max-weight K4: the optimum {0-2, 1-3} weighs 10, {0-1, 2-3} only 2
    edges = [(0, 1, 1), (2, 3, 1), (0, 2, 5), (1, 3, 5), (0, 3, 1), (1, 2, 1)]
    no_blossoms = ([-1] * 4, {}, [])
    blossom.verify_optimum(edges, [2, 3, 0, 1], [5, 5, 5, 5], *no_blossoms)
    # duals tight on the matched edges leave edge 0-2 with negative slack
    with pytest.raises(DecoderInternalError, match="negative slack"):
        blossom.verify_optimum(edges, [1, 0, 3, 2], [1, 1, 1, 1], *no_blossoms)
    # duals feasible everywhere leave the matched edges with positive slack
    with pytest.raises(DecoderInternalError, match="not tight"):
        blossom.verify_optimum(edges, [1, 0, 3, 2], [5, 5, 5, 5], *no_blossoms)
    # a single vertex must have zero dual
    with pytest.raises(DecoderInternalError, match="single vertex"):
        blossom.verify_optimum(edges, [2, -1, 0, -1], [5, 5, 5, 5], *no_blossoms)


def test_solver_checks_its_certificate(layout5, monkeypatch):
    calls = []
    check = blossom.verify_optimum
    monkeypatch.setattr(
        blossom, "verify_optimum", lambda *args: calls.append(1) or check(*args)
    )
    for flip in (False, True):
        prob = build_problem(layout5, (0, 7, 12), SPECIES_P, flip)
        min_weight_perfect_matching(prob.n_vertices, prob.edges)
    assert len(calls) == 2


@pytest.mark.parametrize("decode", [decode_both, decode_standard])
def test_decoders_solve_through_module_hook(layout5, rng, monkeypatch, decode):
    # tracing wraps matching.min_weight_perfect_matching to count and time
    # solves, so every decode must reach the solver through that name; per
    # species one free-boundary solve on the anyons (plus a boundary vertex
    # when their count is odd) and one gadget of the other class flip
    calls = []
    solve = matching.min_weight_perfect_matching
    monkeypatch.setattr(
        matching, "min_weight_perfect_matching", lambda n, edges: calls.append(n) or solve(n, edges)
    )
    for _ in range(10):
        syn, _ = random_syndrome(layout5, rng)
        calls.clear()
        decode(layout5, syn, MODEL)
        assert len(calls) == 4
        for k, n in enumerate((len(syn.p_anyons), len(syn.s_anyons))):
            assert calls[2 * k] == n + n % 2
            assert calls[2 * k + 1] in (2 * n, 2 * n + 2)


def test_free_boundary_solve_equals_both_gadgets():
    # the n-vertex solve reaches the lighter of the two class-pure gadget
    # optima (networkx as the reference) and lies in the class it reports
    rng = np.random.default_rng(4242)
    models = [NoiseModel.depolarizing(p) for p in (0.10, 0.13)]
    checked = 0
    for L, count in ((5, 500), (7, 300), (9, 150), (11, 100)):
        layout = build_layout(L)
        for k in range(count):
            syn, _ = random_syndrome(layout, rng, models[k % 2])
            for species, anyons, bit in (
                (SPECIES_P, syn.p_anyons, "bit_v"),
                (SPECIES_S, syn.s_anyons, "bit_h"),
            ):
                flip, (frame, weight, _) = free_boundary_chain(layout, anyons, species)
                plain = build_problem(layout, anyons, species, False)
                forced = build_problem(layout, anyons, species, True)
                m_plain = networkx_min_weight_perfect_matching(plain.n_vertices, plain.edges)
                m_forced = networkx_min_weight_perfect_matching(forced.n_vertices, forced.edges)
                assert weight == frame.weight() == min(m_plain.total_weight,
                                                       m_forced.total_weight)
                plain_bit = getattr(layout.class_of(chain_from_matching(layout, plain, m_plain)),
                                    bit)
                assert getattr(layout.class_of(frame), bit) == plain_bit ^ flip
                got = layout.syndrome_of(frame)
                assert (got.p_anyons, got.s_anyons) == (
                    (anyons, ()) if species == SPECIES_P else ((), anyons))
            checked += 1
    assert checked >= 1000


def _boundary0_ends(prob, m):
    """Chain ends on boundary 0: anyon-to-boundary-0 pairs, plus one for the
    extra-extra pair, whose reference logical runs from boundary 0 to 1.

    With n anyons, vertex n + j is anyon j's partner on boundary homes[j]
    and vertex 2n + b the extra of boundary b.
    """
    n = len(prob.coords)
    ends = 0
    for u, v in m.pairs:
        if u < n <= v:
            ends += (prob.homes[v - n] if v < 2 * n else v - 2 * n) == 0
        ends += u >= 2 * n
    return ends


def test_class_bit_is_parity_of_boundary0_ends(rng):
    # row-first paths between anyons never touch row 0 or column 0, so a
    # species' class bit is fixed by where its chains leave the lattice
    for L in (5, 7):
        layout = build_layout(L)
        for _ in range(25):
            syn, _ = random_syndrome(layout, rng, NoiseModel.depolarizing(0.13))
            for species, anyons, bit in (
                (SPECIES_P, syn.p_anyons, "bit_v"),
                (SPECIES_S, syn.s_anyons, "bit_h"),
            ):
                for flip in (False, True):
                    prob = build_problem(layout, anyons, species, flip)
                    m = min_weight_perfect_matching(prob.n_vertices, prob.edges)
                    cls = layout.class_of(chain_from_matching(layout, prob, m))
                    assert getattr(cls, bit) == _boundary0_ends(prob, m) % 2


def _x_on(layout, coords):
    return PauliFrame.from_paulis(layout.n_qubits, {layout.qubit_index[rc]: "X" for rc in coords})


def test_two_anyons_pair_directly(layout5):
    # stabilizer-lattice distance 2, cheaper than the combined boundary exits
    idx = {s.coord: s.species_index for s in layout5.z_stabilizers}
    anyons = tuple(sorted((idx[(3, 4)], idx[(7, 4)])))
    v = decode_standard(layout5, Syndrome(anyons, ()), MODEL)
    assert v.scores == {CLASS_I: 2.0}
    assert v.correction == _x_on(layout5, [(4, 4), (6, 4)])


def test_single_anyon_pairs_with_boundary(layout5):
    idx = {s.coord: s.species_index for s in layout5.z_stabilizers}
    v = decode_standard(layout5, Syndrome((idx[(1, 2)],), ()), MODEL)
    assert v.scores == {v.cls: 1.0}
    assert v.correction == _x_on(layout5, [(0, 2)])


def test_single_pair_chain(layout5):
    idx = {s.coord: s.species_index for s in layout5.z_stabilizers}
    anyons = tuple(sorted((idx[(3, 2)], idx[(5, 6)])))
    prob = build_problem(layout5, anyons, SPECIES_P, False)
    m = min_weight_perfect_matching(prob.n_vertices, prob.edges)
    frame = chain_from_matching(layout5, prob, m)
    assert frame.weight() == m.total_weight
    syn = layout5.syndrome_of(frame)
    assert syn.p_anyons == anyons and syn.s_anyons == ()


# ---------------------------------------------------------------------------
# standard decoder


def test_standard_empty_syndrome(layout5):
    v = decode_standard(layout5, Syndrome((), ()), MODEL)
    assert v.cls == CLASS_I and v.correction.weight() == 0


def test_standard_corrects_single_error(layout5):
    q = layout5.qubit_index[(0, 4)]
    frame = PauliFrame.from_paulis(layout5.n_qubits, {q: "X"})
    v = decode_standard(layout5, layout5.syndrome_of(frame), MODEL)
    assert layout5.class_of(v.correction * frame) == CLASS_I


def test_standard_fails_on_majority_chain(layout5):
    # (L+1)/2 bit flips in a line: the matcher prefers the shorter completion
    from surfmc.harness import build_half_chain

    frame = build_half_chain(layout5, 3)
    v = decode_standard(layout5, layout5.syndrome_of(frame), MODEL)
    assert v.cls != layout5.class_of(frame)


def test_standard_pairs_across_mixed_boundaries(layout5):
    # two adjacent anyons whose virtual partners sit on opposite boundaries:
    # leftover virtuals must annihilate across boundaries at zero cost
    idx = {s.coord: s.species_index for s in layout5.z_stabilizers}
    anyons = tuple(sorted((idx[(3, 4)], idx[(5, 4)])))
    frame = decode_standard(layout5, Syndrome(anyons, ()), MODEL).correction
    assert frame.weight() == 1


def test_standard_tie_prefers_fewer_boundary_exits(layout5):
    # a direct pair (class I) and two boundary exits (class X) both weigh 3
    idx = {s.coord: s.species_index for s in layout5.z_stabilizers}
    anyons = tuple(sorted((idx[(1, 2)], idx[(5, 4)])))
    syn = Syndrome(anyons, ())
    _, chain_set = decode_enhanced(layout5, syn, MODEL, refine_steps=0)
    assert chain_set.weights[:2] == (3, 3)
    v = decode_standard(layout5, syn, MODEL)
    assert v.cls == CLASS_I and v.scores == {CLASS_I: 3.0}
    assert v.correction == _x_on(layout5, [(2, 2), (4, 2), (5, 3)])


def test_free_boundary_tie_prefers_direct_pair(layout5):
    # both anyons sit one step from boundary 0: the direct pair and the two
    # exits both weigh 2, and the direct path has no exits
    idx = {s.coord: s.species_index for s in layout5.z_stabilizers}
    anyons = tuple(sorted((idx[(1, 2)], idx[(1, 6)])))
    flip, (frame, weight, exits) = free_boundary_chain(layout5, anyons, SPECIES_P)
    assert (flip, weight, exits) == (False, 2, 0)
    assert frame == _x_on(layout5, [(1, 3), (1, 5)])
    v = decode_standard(layout5, Syndrome(anyons, ()), MODEL)
    assert v.cls == CLASS_I and v.correction == frame


def test_free_boundary_tie_prefers_fewest_exits():
    # four anyons one step from boundary 0, four columns apart: every
    # pairing weighs 4, and only the two neighbouring pairs need no exit
    layout = build_layout(7)
    idx = {s.coord: s.species_index for s in layout.z_stabilizers}
    anyons = tuple(sorted(idx[(1, c)] for c in (0, 4, 8, 12)))
    flip, (frame, weight, exits) = free_boundary_chain(layout, anyons, SPECIES_P)
    assert (flip, weight, exits) == (False, 4, 0)
    assert frame == _x_on(layout, [(1, 1), (1, 3), (1, 9), (1, 11)])
    assert decode_standard(layout, Syndrome(anyons, ()), MODEL).correction == frame


def test_free_boundary_odd_count_uses_boundary_vertex(layout5):
    # a cross-home direct pair (flipping the class) and a lone anyon that
    # exits through the boundary vertex at boundary 0
    idx = {s.coord: s.species_index for s in layout5.z_stabilizers}
    anyons = tuple(sorted((idx[(3, 2)], idx[(5, 2)], idx[(1, 8)])))
    flip, (frame, weight, exits) = free_boundary_chain(layout5, anyons, SPECIES_P)
    assert (flip, weight, exits) == (True, 2, 1)
    assert frame == _x_on(layout5, [(4, 2), (0, 8)])
    v = decode_standard(layout5, Syndrome(anyons, ()), MODEL)
    assert v.scores == {v.cls: 2.0} and v.correction == frame


def test_standard_full_tie_prefers_unforced(layout4):
    # mid-row anyon on the even code: one exit of weight 2 towards either
    # boundary; the unforced matching exits at row -1, its home boundary
    idx = {s.coord: s.species_index for s in layout4.z_stabilizers}
    v = decode_standard(layout4, Syndrome((idx[(3, 2)],), ()), MODEL)
    assert v.scores == {v.cls: 2.0}
    assert v.correction == _x_on(layout4, [(0, 2), (2, 2)])


def test_standard_weight_equals_brute_force(rng):
    for L in (3, 4, 5):
        layout = build_layout(L)
        for _ in range(30):
            syn, _ = random_syndrome(layout, rng, NoiseModel.depolarizing(0.13))
            v = decode_standard(layout, syn, MODEL)
            expect = sum(brute_force_free_boundary_weight(layout, anyons, species)
                         for species, anyons in ((SPECIES_P, syn.p_anyons),
                                                 (SPECIES_S, syn.s_anyons)))
            assert v.scores == {v.cls: float(expect)}
            assert v.correction.x.bit_count() + v.correction.z.bit_count() == expect
            assert layout.syndrome_of(v.correction) == syn


def test_both_standard_verdict_equals_decode_standard(layout5, rng):
    for _ in range(50):
        syn, _ = random_syndrome(layout5, rng)
        std, _, _ = decode_both(layout5, syn, MODEL)
        alone = decode_standard(layout5, syn, MODEL)
        assert (std.cls, std.scores, std.correction) == (alone.cls, alone.scores, alone.correction)


# ---------------------------------------------------------------------------
# class-forced decoder


def test_enhanced_empty_syndrome(layout3):
    verdict, chain_set = decode_enhanced(layout3, Syndrome((), ()), MODEL)
    assert verdict.cls == CLASS_I
    assert verdict.scores[CLASS_I] == 0.0
    assert chain_set.weights[0] == 0
    L = layout3.L
    assert chain_set.weights[1] == L and chain_set.weights[2] == L
    assert chain_set.weights[3] == 2 * L - 1
    assert all(
        layout3.syndrome_of(f).is_empty for f in chain_set.frames
    )


def test_enhanced_covers_all_classes(layout5, rng):
    for _ in range(25):
        syn, _ = random_syndrome(layout5, rng)
        _, chain_set = decode_enhanced(layout5, syn, MODEL, refine_steps=0)
        classes = {layout5.class_of(f) for f in chain_set.frames}
        assert classes == set(EQUIV_CLASSES)
        for cls in EQUIV_CLASSES:
            assert layout5.class_of(chain_set.frame_for(cls)) == cls
            assert layout5.syndrome_of(chain_set.frame_for(cls)) == syn


def test_enhanced_correlated_tiebreak(layout3):
    # two phase-flips' worth of anyons around one qubit of a bit-flip path:
    # the correlated count prefers the hypothesis where they share a qubit
    start = PauliFrame.from_paulis(
        layout3.n_qubits,
        {layout3.qubit_index[(1, 1)]: "X", layout3.qubit_index[(2, 2)]: "Y"},
    )
    syn = layout3.syndrome_of(start)
    verdict, chain_set = decode_enhanced(layout3, syn, MODEL)
    assert layout3.class_of(start) == CLASS_I
    assert verdict.cls == CLASS_I
    assert chain_set.weights[CLASS_I.index] == 2
    assert verdict.scores[CLASS_I] == pytest.approx(2 * beta_bar(MODEL))
    # the bare matcher output cannot beat the tightened hypothesis
    _, bare = decode_enhanced(layout3, syn, MODEL, refine_steps=0)
    assert bare.weights[CLASS_I.index] >= 2


def test_refine_frame_finds_shared_qubit(layout3):
    # corner-path realization of the same hypothesis, one stabilizer away
    start = PauliFrame.from_paulis(
        layout3.n_qubits,
        {
            layout3.qubit_index[(2, 0)]: "X",
            layout3.qubit_index[(3, 1)]: "X",
            layout3.qubit_index[(2, 2)]: "Z",
        },
    )
    refined = refine_frame(layout3, MODEL, start, 4096)
    assert refined.weight() == 2
    assert layout3.syndrome_of(refined) == layout3.syndrome_of(start)
    assert layout3.class_of(refined) == layout3.class_of(start)


def test_enhanced_never_scores_worse_than_standard(layout5, rng):
    for _ in range(30):
        syn, _ = random_syndrome(layout5, rng)
        std, enh, _ = decode_both(layout5, syn, MODEL)
        assert min(enh.scores.values()) <= chain_energy(MODEL, std.correction) + 1e-9


def test_enhanced_deterministic(layout5, rng):
    syn, _ = random_syndrome(layout5, rng)
    v1, c1 = decode_enhanced(layout5, syn, MODEL)
    v2, c2 = decode_enhanced(layout5, syn, MODEL)
    assert v1.cls == v2.cls
    assert c1.frames == c2.frames


def test_chain_set_matches_oracle_minimum(layout3, rng):
    for _ in range(60):
        syn, _ = random_syndrome(layout3, rng)
        _, chain_set = decode_enhanced(layout3, syn, MODEL)
        for cls in EQUIV_CLASSES:
            orbit = enumerate_orbit(layout3, chain_set.frame_for(cls))
            assert chain_set.weights[cls.index] == orbit.min_weight


def test_enhanced_beats_standard_on_y_marked_chain(layout5):
    from surfmc.harness import build_half_chain

    frame = build_half_chain(layout5, 3, y_at=1)
    syn = layout5.syndrome_of(frame)
    true_cls = layout5.class_of(frame)
    std = decode_standard(layout5, syn, MODEL)
    enh, _ = decode_enhanced(layout5, syn, MODEL)
    assert std.cls != true_cls
    assert enh.cls == true_cls


def test_independent_model_scoring(layout3, rng):
    # per-species energies: no sigma-y discount for uncorrelated noise
    model = NoiseModel.independent_xz(0.08, 0.08)
    for _ in range(10):
        syn, _ = random_syndrome(layout3, rng, model)
        verdict, chain_set = decode_enhanced(layout3, syn, model)
        for cls in EQUIV_CLASSES:
            f = chain_set.frame_for(cls)
            expect = (f.x.bit_count() + f.z.bit_count()) * math.log(0.92 / 0.08)
            assert verdict.scores[cls] == pytest.approx(expect)


def test_refine_rejects_model_without_integer_count(layout3):
    # A model outside the integer-count kinds is refused when it is built,
    # so it never reaches the refinement.
    with pytest.raises(InvalidParameterError, match="unknown noise model kind"):
        refine_frame(
            layout3, NoiseModel("general_pauli", 0.05, 0.02, 0.05),
            layout3.identity_frame(), 64,
        )


def test_refine_independent_noise_keeps_syndrome_and_class(layout5, rng):
    model = NoiseModel.independent_xz(0.1, 0.1)
    for _ in range(20):
        syn, frame = random_syndrome(layout5, rng, model)
        refined = refine_frame(layout5, model, frame, 256)
        assert layout5.syndrome_of(refined) == syn
        assert layout5.class_of(refined) == layout5.class_of(frame)
        assert chain_energy(model, refined) <= chain_energy(model, frame) + 1e-9
