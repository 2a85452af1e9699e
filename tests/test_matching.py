import dataclasses
import itertools
import math

import numpy as np
import pytest

from helpers import (
    brute_force_class_weight,
    brute_force_free_boundary_weight,
    brute_force_min_matching,
    networkx_min_weight_perfect_matching,
    reference_refine_frame,
    reference_refinement_moves,
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
    chain_energy,
    decode_both,
    decode_enhanced,
    decode_standard,
    min_weight_perfect_matching,
    refine_frame,
)
from surfmc.matching import (
    SPECIES_P,
    SPECIES_S,
    Matching,
    _species_chains,
    boundary_distances,
    class_chain,
)
from surfmc import blossom, matching, sample_frame
from surfmc.noise import _layout_moves
from surfmc.oracle import enumerate_orbit, exact_decoder

MODEL = NoiseModel.depolarizing(0.1)


def random_syndrome(layout, rng, model=MODEL):
    from surfmc import sample_frame

    frame = sample_frame(model, layout, rng)
    return layout.syndrome_of(frame), frame


def class_graph(layout, anyons, species, bit):
    """(vertex count, edges) of the matching that ``class_chain`` solves."""
    return matching._class_graph(layout, *matching._anyon_sites(layout, anyons, species), bit)


def species_anyons(syn):
    return ((SPECIES_P, syn.p_anyons, "bit_v"), (SPECIES_S, syn.s_anyons, "bit_h"))


# ---------------------------------------------------------------------------
# problem construction


def test_empty_problem(layout3):
    assert class_graph(layout3, (), SPECIES_P, 0) == (0, [])
    m = min_weight_perfect_matching(0, [])
    assert m.pairs == () and m.total_weight == 0
    assert class_chain(layout3, (), SPECIES_P, 0) == (layout3.identity_frame(), 0, 0)


def test_three_anyon_problem_shape(layout5):
    # three anyons, vertices 0..2, and one boundary vertex 3: boundary 1 for
    # class bit 0, boundary 0 for class bit 1; edges weigh K w + exits, K = 5
    anyons = (0, 7, 12)
    coords = [layout5.z_stabilizers[a].coord for a in anyons]
    dists = [boundary_distances(layout5, SPECIES_P, c) for c in coords]
    for bit in (0, 1):
        n_vertices, edges = class_graph(layout5, anyons, SPECIES_P, bit)
        assert n_vertices == 4
        weights = {(u, v): w for u, v, w in edges}
        assert len(weights) == len(edges) == 6
        for i in range(3):
            assert weights[(i, 3)] == 5 * dists[i][1 - bit] + 1
            for j in range(i + 1, 3):
                d = (abs(coords[i][0] - coords[j][0]) + abs(coords[i][1] - coords[j][1])) // 2
                via = min(dists[i][b] + dists[j][b] for b in (0, 1))
                assert weights[(i, j)] == (5 * d if d <= via else 5 * via + 2)
        frame, weight, exits = class_chain(layout5, anyons, SPECIES_P, bit)
        m = min_weight_perfect_matching(n_vertices, edges)
        assert (weight, exits) == divmod(m.total_weight, 5)
        assert frame.weight() == weight
        syn = layout5.syndrome_of(frame)
        assert syn.p_anyons == anyons and syn.s_anyons == ()


def test_forced_problem_adds_extras(layout3):
    # an even count needs no boundary for class bit 0; class bit 1 adds
    # boundary 0 (vertex 2) and boundary 1 (vertex 3), joined at weight L
    anyons = (0, 4)
    assert class_graph(layout3, anyons, SPECIES_P, 0)[0] == 2
    n_vertices, edges = class_graph(layout3, anyons, SPECIES_P, 1)
    assert n_vertices == 4
    weights = {(u, v): w for u, v, w in edges}
    k = len(anyons) + 2
    assert weights[(2, 3)] == k * layout3.L
    for i, a in enumerate(anyons):
        d0, d1 = boundary_distances(layout3, SPECIES_P, layout3.z_stabilizers[a].coord)
        assert (weights[(i, 2)], weights[(i, 3)]) == (k * d0 + 1, k * d1 + 1)


def test_empty_syndrome_flip_gives_bare_logical(layout3):
    for species, cls_bit in ((SPECIES_P, "bit_v"), (SPECIES_S, "bit_h")):
        assert class_graph(layout3, (), species, 1) == (2, [(0, 1, 2 * layout3.L)])
        frame, weight, exits = class_chain(layout3, (), species, 1)
        assert (weight, exits) == (layout3.L, 0)
        assert frame.weight() == 3
        assert layout3.syndrome_of(frame).is_empty
        assert getattr(layout3.class_of(frame), cls_bit) == 1


def test_forced_matchings_flip_class(rng):
    # the chain of each class bit lies in that class and leaves the other
    # species' bit at 0
    for L in (5, 7):
        layout = build_layout(L)
        for _ in range(25):
            syn, _ = random_syndrome(layout, rng, NoiseModel.depolarizing(0.13))
            for species, anyons, attr in species_anyons(syn):
                other = "bit_h" if attr == "bit_v" else "bit_v"
                for bit in (0, 1):
                    cls = layout.class_of(class_chain(layout, anyons, species, bit)[0])
                    assert (getattr(cls, attr), getattr(cls, other)) == (bit, 0)


def _boundary0_ends(layout, anyons, species, bit, m):
    """Chain ends on boundary 0 in a class-bit-``bit`` matching: anyons
    matched to the boundary-0 vertex, two per anyon pair routed through
    boundary 0, and one for the boundary-boundary pair, whose reference
    logical runs from boundary 0 to 1."""
    coords, dists = matching._anyon_sites(layout, anyons, species)
    n = len(coords)
    bounds = matching._class_boundaries(n, bit)
    ends = 0
    for u, v in m.pairs:
        if v < n:
            via = matching._pair_via(
                matching.anyon_distance(coords[u], coords[v]), dists[u], dists[v]
            )
            ends += 2 * (via == 0)
        elif u < n:
            ends += bounds[v - n] == 0
        else:
            ends += 1
    return ends


def test_class_bit_is_parity_of_boundary0_ends(rng):
    # row-first paths between anyons never touch row 0 or column 0, so a
    # species' class bit is fixed by where its chains leave the lattice
    for L in (5, 7):
        layout = build_layout(L)
        for _ in range(25):
            syn, _ = random_syndrome(layout, rng, NoiseModel.depolarizing(0.13))
            for species, anyons, attr in species_anyons(syn):
                for bit in (0, 1):
                    m = min_weight_perfect_matching(*class_graph(layout, anyons, species, bit))
                    cls = layout.class_of(class_chain(layout, anyons, species, bit)[0])
                    ends = _boundary0_ends(layout, anyons, species, bit, m)
                    assert getattr(cls, attr) == ends % 2 == bit


def test_species_chains_equal_brute_force():
    # every class-pure chain is the lightest of its class bit, against an
    # exhaustive reference; the chains reproduce their anyons and weigh
    # their matching weight
    rng = np.random.default_rng(4242)
    models = [NoiseModel.depolarizing(p) for p in (0.10, 0.13, 0.16)]
    checked = 0
    for L, count in ((3, 150), (4, 150), (5, 250)):
        layout = build_layout(L)
        for k in range(count):
            syn, _ = random_syndrome(layout, rng, models[k % 3])
            chains = _species_chains(layout, syn)
            for species, anyons, attr in species_anyons(syn):
                bits = set()
                for flip in (False, True):
                    frame, weight, _ = chains[(species, flip)]
                    bit = getattr(layout.class_of(frame), attr)
                    bits.add(bit)
                    assert weight == frame.weight()
                    assert weight == brute_force_class_weight(layout, anyons, species, bit)
                    got = layout.syndrome_of(frame)
                    assert (got.p_anyons, got.s_anyons) == (
                        (anyons, ()) if species == SPECIES_P else ((), anyons))
                    checked += 1
                assert bits == {0, 1}
    assert checked >= 2000


def test_class_forced_takes_far_boundary_exit(layout5):
    # class X: the direct pair (3,0)-(5,0) plus (5,8) exiting at row -1,
    # its far boundary, weighs 4; a matcher that offers each anyon only its
    # home boundary finds 6
    idx = {s.coord: s.species_index for s in layout5.z_stabilizers}
    anyons = tuple(sorted(idx[c] for c in ((3, 0), (5, 0), (5, 8))))
    _, chain_set = decode_enhanced(layout5, Syndrome(anyons, ()), MODEL, refine_steps=0)
    assert chain_set.weights == (3, 4, 8, 8)


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
        for bit in (0, 1):
            n_vertices, edges = class_graph(layout4, anyons, SPECIES_P, bit)
            if not n_vertices:
                continue
            expect = brute_force_min_matching(n_vertices, edges)
            assert expect is not None
            assert min_weight_perfect_matching(n_vertices, edges).total_weight == expect
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
                    for bit in (0, 1):
                        checked += _same_as_networkx(*class_graph(layout, anyons, species, bit))
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


def _edge_matrix(n, edges):
    matrix = np.zeros((n, n), dtype=np.int64)
    for u, v, w in edges:
        matrix[u, v] = matrix[v, u] = w
    return matrix


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7])
def test_dense_class_matrix_equals_edge_list(L):
    # the matrix each class solve hands the solver, cut from the species'
    # shared block, is the graph ``_class_graph`` lists edge by edge, and
    # solving either form gives the same pairs and weight
    layout = build_layout(L)
    rng = np.random.default_rng(700 + L)
    anyon_sets = [((), ()), ((0,), (0,)), ((layout.n_stab // 2 - 1,), (1,))]
    for p in (0.05, 0.13, 0.2):
        for _ in range(8):
            syn, _ = random_syndrome(layout, rng, NoiseModel.depolarizing(p))
            anyon_sets.append((syn.p_anyons, syn.s_anyons))
    checked = 0
    for p_anyons, s_anyons in anyon_sets:
        for species, anyons in ((SPECIES_P, p_anyons), (SPECIES_S, s_anyons)):
            block = matching._species_graph(layout, species).block(anyons)
            for bit in (0, 1):
                n, edges = class_graph(layout, anyons, species, bit)
                matrix, _ = matching._class_matrix(block, bit)
                assert matrix.shape == (n, n)
                assert np.array_equal(matrix, _edge_matrix(n, edges))
                assert min_weight_perfect_matching(n, matrix) == min_weight_perfect_matching(
                    n, edges)
                checked += 1
    assert checked == len(anyon_sets) * 4


def test_dense_pairs_equal_networkx_on_tied_complete_graphs(rng):
    # weights in {1, 2, 3} tie often; listed in ascending order, a complete
    # graph has the dense solver's vertex order and neighbour lists
    for n in range(2, 13, 2):
        for _ in range(40):
            upper = np.triu(rng.integers(1, 4, size=(n, n)), 1)
            matrix = upper + upper.T
            edges = [(u, v, int(matrix[u, v])) for u in range(n) for v in range(u + 1, n)]
            expect = networkx_min_weight_perfect_matching(n, edges)
            assert min_weight_perfect_matching(n, matrix) == expect
            assert min_weight_perfect_matching(n, edges) == expect


def test_solver_input_told_apart_by_type():
    # rows of three ints are edges unless they come as a numpy array, which
    # is always a weight matrix
    rows = [[0, 1, 5], [2, 3, 7], [0, 2, 1]]
    as_edges = Matching(((0, 1), (2, 3)), 12)
    assert min_weight_perfect_matching(4, rows) == as_edges
    assert min_weight_perfect_matching(4, [tuple(r) for r in rows]) == as_edges
    with pytest.raises(InvalidParameterError):
        min_weight_perfect_matching(4, np.array(rows))
    with pytest.raises(InvalidParameterError, match="symmetric"):
        min_weight_perfect_matching(3, np.array(rows))
    with pytest.raises(InfeasibleMatchingError):  # an odd complete graph
        min_weight_perfect_matching(3, np.array([[0, 1, 5], [1, 0, 2], [5, 2, 0]]))
    with pytest.raises(InvalidParameterError):
        min_weight_perfect_matching(2, np.array([[0.0, 1.5], [1.5, 0.0]]))
    assert min_weight_perfect_matching(0, np.zeros((0, 0), dtype=int)) == Matching((), 0)
    # the diagonal is never read
    matrix = np.array([[9, 1, 4, 4], [1, -9, 4, 4], [4, 4, 0, 2], [4, 4, 2, 7]])
    assert min_weight_perfect_matching(4, matrix) == Matching(((0, 1), (2, 3)), 3)


BAD_SOLVER_INPUT = [
    (2, [(0, -1, 3)], "edge end must be an integer in \\[0, 1\\], got -1"),
    (2, [(0, 5, 3)], "edge end must be an integer in \\[0, 1\\], got 5"),
    (2, [(1.0, 0, 3)], "edge end must be an integer in \\[0, 1\\], got 1.0"),
    (2, [(0, True, 3)], "edge end must be an integer in \\[0, 1\\], got True"),
    (0, [(0, 0, 3)], "edge end must be an integer in \\[0, -1\\], got 0"),
    (2, [(0, 1, 2.5)], "edge weight must be an integer, got 2.5"),
    (2, [(0, 1, True)], "edge weight must be an integer, got True"),
    (2, [(0, 1, "3")], "edge weight must be an integer, got '3'"),
    # a pair ended in a bare ValueError from unpacking it
    (2, [(0, 1)], "an edge must be a triple \\(u, v, w\\), got \\(0, 1\\)"),
    (2, [(0, 1, 2, 3)], "an edge must be a triple \\(u, v, w\\), got \\(0, 1, 2, 3\\)"),
    (2, [7], "an edge must be a triple \\(u, v, w\\), got 7"),
    (3.0, [(0, 1, 1)], "vertex count must be an integer >= 0, got 3.0"),
    (-2, [], "vertex count must be an integer >= 0, got -2"),
    (True, [], "vertex count must be an integer >= 0, got True"),
    (2.0, np.array([[0, 1], [1, 0]]), "vertex count must be an integer >= 0, got 2.0"),
]


@pytest.mark.parametrize(
    "n, edges, match",
    BAD_SOLVER_INPUT,
    ids=[f"{n!r}-{'matrix' if isinstance(e, np.ndarray) else repr(e)}"
         for n, e, _ in BAD_SOLVER_INPUT],
)
def test_solver_refuses_bad_vertex_counts_ends_and_weights(n, edges, match):
    # the bad end -1 ended in min() of an empty sequence, 5 in an IndexError,
    # weight 2.5 was solved, and n = 3.0 ended in a TypeError
    with pytest.raises(InvalidParameterError, match=match):
        min_weight_perfect_matching(n, edges)


def test_solver_takes_numpy_integer_counts_ends_and_weights():
    edges = [(np.int64(0), np.int64(1), np.int64(4)), (2, 3, -1)]
    assert min_weight_perfect_matching(np.int64(4), edges) == Matching(((0, 1), (2, 3)), 3)
    dense = np.array([[0, 4], [4, 0]])
    assert min_weight_perfect_matching(np.int64(2), dense) == Matching(((0, 1),), 4)


@pytest.mark.parametrize("bit", [-1, 2, True, 1.0, None], ids=repr)
def test_class_chain_refuses_bad_class_bits(layout3, bit):
    # at L = 3 with p-anyons (1, 2), bit -1 returned a 3-flip chain with 2
    # exits and bit 2 raised InfeasibleMatchingError
    with pytest.raises(InvalidParameterError, match="class bit must be an integer in \\[0, 1\\]"):
        class_chain(layout3, (1, 2), SPECIES_P, bit)


def test_species_graph_built_on_first_use_and_shared_by_equal_layouts():
    # a layout is fixed by its L: a numpy distance builds the same one, and
    # both share one graph per species; the distance is checked before the
    # layout cache is read
    matching._species_graph.cache_clear()
    layout = build_layout(4)
    assert build_layout(np.int64(4)) is layout
    with pytest.raises(InvalidParameterError, match="code distance"):
        build_layout(4.0)
    class_chain(layout, (1, 2), SPECIES_S, 1)
    assert matching._species_graph.cache_info().misses == 1
    graph = matching._species_graph(build_layout(np.int64(4)), SPECIES_S)
    assert graph is matching._species_graph(layout, SPECIES_S) and graph.layout is layout
    assert matching._species_graph.cache_info().misses == 1
    with pytest.raises(InvalidParameterError, match="species"):
        matching._species_graph(layout, "q")


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
    for bit in (0, 1):
        class_chain(layout5, (0, 7, 12), SPECIES_P, bit)
    assert len(calls) == 2


@pytest.mark.parametrize("decode", [decode_both, decode_standard])
def test_decoders_solve_through_module_hook(rng, monkeypatch, decode):
    # tracing wraps matching.min_weight_perfect_matching to count and time
    # solves, so every decode must reach the solver through that name; per
    # species one solve for class bit 0 (the anyons, plus boundary 1 when
    # their count is odd) and one for class bit 1 (plus boundary 0, and
    # boundary 1 when their count is even).  With the chain memo cleared
    # every species solves; decoding the syndrome again solves nothing
    calls = []
    solve = matching.min_weight_perfect_matching
    monkeypatch.setattr(
        matching, "min_weight_perfect_matching", lambda n, edges: calls.append(n) or solve(n, edges)
    )
    for _ in range(10):
        layout = build_layout(5)
        syn, _ = random_syndrome(layout, rng)
        matching._solve_species.cache_clear()
        calls.clear()
        first = decode(layout, syn, MODEL)
        assert len(calls) == 4
        for k, n in enumerate((len(syn.p_anyons), len(syn.s_anyons))):
            assert calls[2 * k: 2 * k + 2] == ([n + 1] * 2 if n % 2 else [n, n + 2])
        calls.clear()
        assert decode(layout, syn, MODEL) == first
        assert calls == []


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
    frame, weight, exits = class_chain(layout5, anyons, SPECIES_P, 0)
    assert (weight, exits) == (3, 0) and frame.weight() == weight
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
    # two adjacent anyons with opposite home boundaries: the direct pair of
    # weight 1 beats both the same-boundary exits and the cross-home exits
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
    frame = _x_on(layout5, [(1, 3), (1, 5)])
    assert _species_chains(layout5, Syndrome(anyons, ()))[(SPECIES_P, False)] == (frame, 2, 0)
    v = decode_standard(layout5, Syndrome(anyons, ()), MODEL)
    assert v.cls == CLASS_I and v.correction == frame


def test_free_boundary_tie_prefers_fewest_exits():
    # four anyons one step from boundary 0, four columns apart: every
    # pairing weighs 4, and only the two neighbouring pairs need no exit
    layout = build_layout(7)
    idx = {s.coord: s.species_index for s in layout.z_stabilizers}
    anyons = tuple(sorted(idx[(1, c)] for c in (0, 4, 8, 12)))
    frame = _x_on(layout, [(1, 1), (1, 3), (1, 9), (1, 11)])
    assert _species_chains(layout, Syndrome(anyons, ()))[(SPECIES_P, False)] == (frame, 4, 0)
    assert decode_standard(layout, Syndrome(anyons, ()), MODEL).correction == frame


def test_free_boundary_odd_count_uses_boundary_vertex(layout5):
    # a cross-home direct pair (flipping the class) and a lone anyon that
    # exits at boundary 0, the boundary vertex of class bit 1
    idx = {s.coord: s.species_index for s in layout5.z_stabilizers}
    anyons = tuple(sorted((idx[(3, 2)], idx[(5, 2)], idx[(1, 8)])))
    frame = _x_on(layout5, [(4, 2), (0, 8)])
    assert _species_chains(layout5, Syndrome(anyons, ()))[(SPECIES_P, True)] == (frame, 2, 1)
    assert class_chain(layout5, anyons, SPECIES_P, 1) == (frame, 2, 1)
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


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7, 11])
@pytest.mark.parametrize(
    "model",
    [
        NoiseModel.depolarizing(0.13),
        NoiseModel.independent_xz(0.12, 0.07),
        NoiseModel.depolarizing(0.2),
    ],
)
def test_refine_matches_reference_descent(L, model):
    # the table-driven descent must return the frame of the one that calls
    # score_delta on every move: same move order, ceiling, ties and budget stop.
    # Energies summed along two paths can miss a tie by an ulp; on these
    # inputs (at L = 5 and 7, p = 0.2 and independent noise) a descent that
    # took any smaller energy as better, not one smaller by over 1e-9,
    # would return another frame
    layout = build_layout(L)
    rng = np.random.default_rng(100 + L)
    _, hypotheses = decode_enhanced(
        layout, layout.syndrome_of(sample_frame(model, layout, rng)), model, refine_steps=0
    )
    raw = [
        sample_frame(p, layout, rng)
        for p in (model, NoiseModel.depolarizing(0.3))
        for _ in range(4)
    ]
    for frame in (*hypotheses.frames, *raw):
        for budget in (1, 2, 7, 256, 4096):
            refined = refine_frame(layout, model, frame, budget)
            assert refined == reference_refine_frame(layout, model, frame, budget), budget


@pytest.mark.parametrize("L", [2, 3, 6])
def test_compound_flip_lists_follow_frame(L, rng):
    layout = build_layout(L)
    local = _layout_moves(layout)
    compounds = reference_refinement_moves(layout)[layout.n_stab:]
    assert [(mask, x_plane) for mask, x_plane, _ in local.compounds] == compounds
    for _ in range(5):
        frame = sample_frame(NoiseModel.depolarizing(0.4), layout, rng)
        states = local.local_states(frame)
        for mask, x_plane, flips in local.compounds:
            moved = PauliFrame(layout.n_qubits, mask if x_plane else 0, 0 if x_plane else mask)
            expect = states.copy()
            for t, bits in flips:
                expect[t] ^= bits
            assert local.local_states(frame * moved) == expect


@pytest.mark.parametrize("budget", [-1, -7, 2.5])
def test_refinement_budgets_are_counts(layout3, budget):
    # a negative budget used to return the input silently, and 2.5 ran
    syn = layout3.syndrome_of(sample_frame(MODEL, layout3, np.random.default_rng(4)))
    with pytest.raises(InvalidParameterError, match="plateau_budget"):
        refine_frame(layout3, MODEL, layout3.identity_frame(), budget)
    for decode in (decode_enhanced, decode_both):
        with pytest.raises(InvalidParameterError, match="refine_steps"):
            decode(layout3, syn, MODEL, refine_steps=budget)


def test_refinement_budgets_accept_small_and_numpy_counts(layout3):
    frame = sample_frame(MODEL, layout3, np.random.default_rng(5))
    syn = layout3.syndrome_of(frame)
    for budget in (0, 1, np.int64(0), np.int64(64)):
        assert refine_frame(layout3, MODEL, frame, budget) == refine_frame(
            layout3, MODEL, frame, int(budget)
        )
        for decode in (decode_enhanced, decode_both):
            assert decode(layout3, syn, MODEL, refine_steps=budget) == decode(
                layout3, syn, MODEL, refine_steps=int(budget)
            )
    assert refine_frame(layout3, MODEL, frame, 0) == frame
    assert refine_frame(layout3, MODEL, frame, 1) == frame


def test_refine_rejects_frame_of_another_layout(layout3, layout5, rng):
    frame = sample_frame(MODEL, layout5, rng)
    for budget in (0, 256):
        with pytest.raises(InvalidParameterError):
            refine_frame(layout3, MODEL, frame, budget)


@pytest.mark.parametrize("budget", [-1, 2.5])
def test_refine_steps_checked_before_matching(layout3, monkeypatch, budget):
    # the budget used to be checked only after the four matchings had run
    calls = []
    chains = matching._species_chains
    monkeypatch.setattr(matching, "_species_chains", lambda *a: calls.append(1) or chains(*a))
    syn = layout3.syndrome_of(sample_frame(MODEL, layout3, np.random.default_rng(4)))
    for decode in (decode_enhanced, decode_both):
        with pytest.raises(InvalidParameterError, match="refine_steps"):
            decode(layout3, syn, MODEL, refine_steps=budget)
    assert calls == []


MEMO_MODELS = (NoiseModel.depolarizing(0.13), NoiseModel.independent_xz(0.12, 0.07))
MATCHER_MEMOS = (matching._solve_species, matching._descend)
# the descent memo holds the four class hypotheses of _MEMO_SIZE syndromes
MEMO_BOUNDS = {matching._solve_species: matching._MEMO_SIZE,
               matching._descend: 4 * matching._MEMO_SIZE}


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7])
def test_memoized_decode_equals_cold_decode(L):
    # the memos see every syndrome under both models and all budgets before
    # they are read; each cold decode runs with both memos cleared
    budgets = (0, 256, 4096)
    layout = build_layout(L)
    rng = np.random.default_rng(300 + L)
    syndromes = [layout.syndrome_of(sample_frame(model, layout, rng)) for model in MEMO_MODELS]
    runs = list(itertools.product(syndromes, MEMO_MODELS, budgets))
    for syn, model, budget in runs:
        decode_both(layout, syn, model, refine_steps=budget)
    warm = [decode_both(layout, syn, model, refine_steps=budget) for syn, model, budget in runs]
    for (syn, model, budget), expect in zip(runs, warm):
        for memo in MATCHER_MEMOS:
            memo.cache_clear()
        assert decode_both(layout, syn, model, refine_steps=budget) == expect


def test_refine_memo_keys_on_model_and_budget():
    # one layout refines each frame under both models and several budgets
    layout = build_layout(5)
    rng = np.random.default_rng(11)
    for _ in range(4):
        frame = sample_frame(NoiseModel.depolarizing(0.2), layout, rng)
        for model in MEMO_MODELS:
            for budget in (2, 7, 256):
                expect = reference_refine_frame(layout, model, frame, budget)
                assert refine_frame(layout, model, frame, budget) == expect
                assert refine_frame(layout, model, frame, budget) == expect


def test_memo_frames_are_immutable_and_equal_cold_decode():
    # the memos hand out the frames they store, which is safe only because
    # no caller can edit one.  Each cold result is computed with both memos
    # cleared; the first warm pass fills both memos and the second reads them
    layout = build_layout(5)
    syn, _ = random_syndrome(layout, np.random.default_rng(8))
    _, bare = decode_enhanced(layout, syn, MODEL, refine_steps=0)
    calls = (
        lambda: decode_both(layout, syn, MODEL),
        lambda: tuple(_species_chains(layout, syn).values()),
        lambda: tuple(refine_frame(layout, MODEL, f, 256) for f in bare.frames),
    )
    cold = []
    for call in calls:
        for memo in MATCHER_MEMOS:
            memo.cache_clear()
        cold.append(call())
    first = [call() for call in calls]
    (std, enh, chain_set), chains, refined = warm = [call() for call in calls]
    assert first == warm == cold
    assert all(a[0] is b[0] for a, b in zip(first[1], chains))
    assert all(a is b for a, b in zip(first[2], refined))
    returned = (std.correction, enh.correction, *chain_set.frames,
                *(c[0] for c in chains), *refined)
    for frame, name in itertools.product(returned, ("n_qubits", "x", "z")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(frame, name, 0)


def test_memos_hold_at_most_their_bound():
    layout = build_layout(7)
    for memo in MATCHER_MEMOS:
        memo.cache_clear()
    # distinct anyon sets of one to three anyons, cheap to match; each
    # syndrome adds one entry per species
    sets = itertools.chain.from_iterable(
        itertools.combinations(range(len(layout.z_stabilizers)), k) for k in (1, 2, 3)
    )
    for anyons in itertools.islice(sets, matching._MEMO_SIZE // 2 + 10):
        _species_chains(layout, Syndrome(anyons, anyons))
    # distinct frames, each a budget-2 descent
    rng = np.random.default_rng(12)
    for _ in range(MEMO_BOUNDS[matching._descend] + 10):
        refine_frame(layout, MODEL, sample_frame(MODEL, layout, rng), 2)
    for memo, bound in MEMO_BOUNDS.items():
        info = memo.cache_info()
        assert info.misses >= bound + 10
        assert info.currsize <= info.maxsize == bound


@pytest.mark.parametrize("model", MEMO_MODELS)
def test_matcher_memos_shared_by_equal_layouts(model):
    # the first decode runs with the memos cleared; a layout built from a
    # numpy distance is the same layout, and reads what the first filled
    layout = build_layout(5)
    syn = layout.syndrome_of(sample_frame(model, layout, np.random.default_rng(1)))
    for memo in MATCHER_MEMOS:
        memo.cache_clear()
    cold = decode_both(layout, syn, model, refine_steps=256)
    misses = [memo.cache_info().misses for memo in MATCHER_MEMOS]
    assert all(misses)
    assert decode_both(build_layout(np.int64(5)), syn, model, refine_steps=256) == cold
    assert [memo.cache_info().misses for memo in MATCHER_MEMOS] == misses


BAD_ANYONS = [(-1,), (2, 1), (1, 1), (99,), (1.0, 2), (True,)]


def _both_class_chains(layout, syn, model):
    return [class_chain(layout, anyons, species, 0) for species, anyons, _ in species_anyons(syn)]


@pytest.mark.parametrize("anyons", BAD_ANYONS, ids=repr)
@pytest.mark.parametrize(
    "decode", [decode_standard, decode_enhanced, decode_both, _both_class_chains, exact_decoder]
)
def test_decoders_refuse_bad_anyon_indices(layout3, decode, anyons):
    # a hand-built syndrome at L = 3 (6 stabilizers of each kind) whose
    # anyons are not strictly increasing integers in [0, 6) is refused in
    # one line, not wrapped, indexed past or passed to the solver, and never
    # stored, so a second try is refused too
    for syn in (Syndrome(anyons, ()), Syndrome((), anyons)) * 2:
        with pytest.raises(InvalidParameterError, match="anyons must be strictly increasing"):
            decode(layout3, syn, MODEL)


@pytest.mark.parametrize("anyons", [(1.0, 2), (True, 2)], ids=repr)
@pytest.mark.parametrize("decode", [decode_standard, decode_enhanced, decode_both])
def test_float_or_bool_anyons_refused_after_equal_set_is_stored(layout3, decode, anyons):
    # (1.0, 2) and (True, 2) equal (1, 2) and hash as it does: they are
    # refused even once that set's chains are in the memo
    decode(layout3, Syndrome((1, 2), (1, 2)), MODEL)
    for syn in (Syndrome(anyons, ()), Syndrome((), anyons)):
        with pytest.raises(InvalidParameterError, match="anyons must be strictly increasing"):
            decode(layout3, syn, MODEL)
