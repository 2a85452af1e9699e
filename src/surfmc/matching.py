"""Anyon matching graphs and the two matching-based decoders.

Each species of anyon gets two exact minimum-weight perfect matchings, one
per class parity.  The first is the free-boundary problem on the species' n
anyons alone (``free_boundary_chain``): anyons i and j pair at
min(d_ij, h_i + h_j), where h is the distance to the anyon's home (closer)
boundary, realised as the direct path when d_ij <= h_i + h_j and as both
anyons exiting at home otherwise; with n odd, one boundary vertex joins each
anyon at h_i.  Its optimum is the lightest chain overall, so it is also the
lightest of its own class parity, which flips relative to the unforced
gadget below exactly when it holds an odd number of cross-home direct pairs.
Its edges weigh K w + (boundary exits) with K = n + 2, more than any
matching's exit count, so among the lightest matchings it returns one with
the fewest exits.

The other parity is solved on a gadget (``build_problem``).  The unforced
gadget holds the real anyons, their virtual partners on the home boundary,
and a zero-weight clique among each boundary's virtuals.  The forced gadget
adds one extra virtual anyon per absorbing boundary (joined to the
boundary's virtuals at zero weight, to every real anyon at its distance to
that boundary, and to the opposite extra at weight L), so every perfect
matching of it realizes the complementary class bit.  A vertex's position is
its role: with n anyons, vertex i < n is anyon i, vertex n + i is anyon i's
virtual partner on its home boundary, and in the forced gadget vertex
2n + b is the extra virtual of boundary b.

All solves go through ``min_weight_perfect_matching`` to ``blossom``,
surfmc's own exact primal-dual blossom solver on dense integer weights, which
checks an optimality certificate on every solve.  Where several perfect
matchings have the minimum weight, the one returned is fixed by that solver's
vertex and neighbour scan order, which follows the order of the edge list;
the order was taken over from networkx, so the matchings (ties included) are
the ones networkx returns.

Standard decoding takes, per species, the lighter of the two chains (ties go
to fewer boundary exits, then to the unforced one): plain matching with free
boundaries.  The class-forced decoder combines the 2x2 chains into one
minimum-weight hypothesis per equivalence class and compares the four under
the true correlated error count, where an x- and a z-error on the same qubit
cost one sigma-y rather than two errors.

A deterministic zero-temperature descent (stabilizer moves that never increase
the correlated energy, with best-seen tracking) optionally tightens each class
hypothesis before the comparison; matching alone can miss correlated minima
when equally-short paths could have been routed through a shared qubit.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

from .blossom import min_weight_matching
from .errors import DecoderInternalError, InfeasibleMatchingError, InvalidParameterError
from .geometry import (
    EQUIV_CLASSES,
    CodeLayout,
    Coord,
    EquivalenceClass,
    PauliFrame,
    Syndrome,
)
from .noise import NoiseModel, chain_energy, qubit_energy_weights, score_delta

SPECIES_P = "p"  # violated Z-stabilizers, repaired with sigma-x chains
SPECIES_S = "s"  # violated X-stabilizers, repaired with sigma-z chains


def default_plateau_budget(layout: CodeLayout) -> int:
    """Default refinement search budget: effectively exhaustive on codes small
    enough for oracle cross-checks, cost-capped on production sizes."""
    return 4096 if layout.n_stab <= 16 else 256


def boundary_distances(layout: CodeLayout, species: str, coord: Coord) -> tuple[int, int]:
    """Distances (in single-qubit errors) to the two absorbing boundaries."""
    r, c = coord
    edge = 2 * layout.L - 1
    if species == SPECIES_P:
        return (r + 1) // 2, (edge - r) // 2
    return (c + 1) // 2, (edge - c) // 2


def _virtual_coord(layout: CodeLayout, species: str, coord: Coord, boundary: int) -> Coord:
    r, c = coord
    edge = 2 * layout.L - 1
    if species == SPECIES_P:
        return (-1 if boundary == 0 else edge, c)
    return (r, -1 if boundary == 0 else edge)


def anyon_distance(a: Coord, b: Coord) -> int:
    """Manhattan distance on the stabilizer sublattice (grid steps of 2)."""
    return (abs(a[0] - b[0]) + abs(a[1] - b[1])) // 2


@dataclass(frozen=True)
class MatchingProblem:
    """One species' matching graph, its vertices numbered by role (module
    docstring): ``coords[i]`` and ``homes[i]`` are anyon i's site and home
    boundary."""

    species: str
    force_class_flip: bool
    coords: tuple[Coord, ...]
    homes: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]

    @property
    def n_vertices(self) -> int:
        return 2 * len(self.coords) + 2 * self.force_class_flip


@dataclass(frozen=True)
class Matching:
    pairs: tuple[tuple[int, int], ...]  # (u, v) with u < v, sorted
    total_weight: int


def _anyon_sites(
    layout: CodeLayout, anyons: tuple[int, ...], species: str
) -> tuple[tuple[Coord, ...], list[tuple[int, int]], tuple[int, ...]]:
    """Sites, distances to both absorbing boundaries and home (closer)
    boundaries of one species' anyons; ties go toward boundary 0."""
    if species not in (SPECIES_P, SPECIES_S):
        raise InvalidParameterError(f"unknown species {species!r}")
    stabs = layout.z_stabilizers if species == SPECIES_P else layout.x_stabilizers
    coords = tuple(stabs[a].coord for a in anyons)
    dists = [boundary_distances(layout, species, c) for c in coords]
    homes = tuple(0 if d0 <= d1 else 1 for d0, d1 in dists)
    return coords, dists, homes


def build_problem(
    layout: CodeLayout,
    anyons: tuple[int, ...],
    species: str,
    force_class_flip: bool = False,
) -> MatchingProblem:
    """Matching graph over the given anyons of one species.

    Each real anyon gets a virtual partner on its closer absorbing boundary
    (ties toward boundary 0); same-boundary virtuals form a zero-weight
    clique.  With ``force_class_flip`` two extra virtuals are added as
    described in the module docstring, guaranteeing a feasible problem whose
    every perfect matching flips the species' class bit.
    """
    coords, dists, homes = _anyon_sites(layout, anyons, species)
    edges: list[tuple[int, int, int]] = []
    n = len(anyons)

    for i in range(n):
        for j in range(i + 1, n):
            edges.append((i, j, anyon_distance(coords[i], coords[j])))
    for i in range(n):
        edges.append((i, n + i, dists[i][homes[i]]))
    for i in range(n):
        for j in range(i + 1, n):
            if homes[i] == homes[j]:
                edges.append((n + i, n + j, 0))

    if force_class_flip:
        e0, e1 = 2 * n, 2 * n + 1
        for i in range(n):
            edges.append((n + i, e0 + homes[i], 0))
        for i in range(n):
            edges.append((i, e0, dists[i][0]))
            edges.append((i, e1, dists[i][1]))
        edges.append((e0, e1, layout.L))

    return MatchingProblem(species, force_class_flip, coords, homes, tuple(edges))


def min_weight_perfect_matching(n: int, edges: Sequence[tuple[int, int, int]]) -> Matching:
    """Globally minimal perfect matching of the graph on vertices 0 .. n-1
    with weighted ``edges`` (exact blossom algorithm).

    Raises ``InfeasibleMatchingError`` when the graph has no perfect
    matching, and ``DecoderInternalError`` if the solver's optimality
    certificate fails.
    """
    pairs, weight = min_weight_matching(n, edges)
    if 2 * len(pairs) != n:
        raise InfeasibleMatchingError("no perfect matching exists")
    return Matching(tuple(pairs), weight)


def _path_mask(layout: CodeLayout, a: Coord, b: Coord) -> int:
    """Qubits of the row-first Manhattan path between two sublattice sites."""
    index = layout.qubit_index
    mask = 0
    r, c = a
    r2, c2 = b
    step = 2 if r2 > r else -2
    while r != r2:
        mask |= 1 << index[(r + step // 2, c)]
        r += step
    step = 2 if c2 > c else -2
    while c != c2:
        mask |= 1 << index[(r, c + step // 2)]
        c += step
    return mask


def _exit_mask(layout: CodeLayout, species: str, coord: Coord, boundary: int) -> int:
    """Qubits of the straight path from an anyon out through ``boundary``."""
    return _path_mask(layout, coord, _virtual_coord(layout, species, coord, boundary))


def _species_frame(layout: CodeLayout, species: str, mask: int) -> PauliFrame:
    """A species' chain: sigma-x on ``mask`` for p, sigma-z for s."""
    if species == SPECIES_P:
        return PauliFrame(layout.n_qubits, mask, 0)
    return PauliFrame(layout.n_qubits, 0, mask)


def chain_from_matching(
    layout: CodeLayout, problem: MatchingProblem, matching: Matching
) -> PauliFrame:
    """Realize matched pairs as error paths (sigma-x for p, sigma-z for s).

    Real-real pairs walk row-first; real-boundary pairs exit straight; the
    extra-extra pair contributes the reference logical operator; all other
    virtual pairs contribute nothing.
    """
    mask = 0
    coords = problem.coords
    n = len(coords)
    for u, v in matching.pairs:  # u < v, so u is the real anyon of a mixed pair
        if u >= n:
            if u >= 2 * n:  # the two extras
                mask ^= (
                    layout.logical_x_mask
                    if problem.species == SPECIES_P
                    else layout.logical_z_mask
                )
            continue
        if v < n:
            a, b = sorted((coords[u], coords[v]))
            mask ^= _path_mask(layout, a, b)
        else:  # anyon u's own partner n + u, or the extra 2n + b
            boundary = problem.homes[u] if v < 2 * n else v - 2 * n
            mask ^= _exit_mask(layout, problem.species, coords[u], boundary)
    return _species_frame(layout, problem.species, mask)


@dataclass(frozen=True)
class DecoderVerdict:
    cls: EquivalenceClass
    scores: dict[EquivalenceClass, float]
    correction: PauliFrame
    detail: dict | None = None


@dataclass(frozen=True)
class ClassChainSet:
    """One syndrome-consistent hypothesis per equivalence class (class-index order)."""

    frames: tuple[PauliFrame, PauliFrame, PauliFrame, PauliFrame]
    weights: tuple[int, int, int, int]

    def frame_for(self, cls: EquivalenceClass) -> PauliFrame:
        return self.frames[cls.index]


def _pick_class(scores: dict[EquivalenceClass, float]) -> EquivalenceClass:
    return min(EQUIV_CLASSES, key=lambda c: (scores[c], c.index))


def _safe_energy(model: NoiseModel, frame: PauliFrame) -> float:
    """Chain energy, with probability-zero hypotheses scored as +inf."""
    try:
        return chain_energy(model, frame)
    except InvalidParameterError:
        return math.inf


def decode_standard(layout: CodeLayout, syndrome: Syndrome, model: NoiseModel) -> DecoderVerdict:
    """Plain matching: each species takes the lighter of its two class-pure
    chains, with no class awareness across species."""
    return _standard_from_chains(layout, _species_chains(layout, syndrome))


_PLATEAU_TOL = 1e-12


def _refinement_moves(layout: CodeLayout) -> list[tuple[int, bool]]:
    """Stabilizer moves plus logical-translation compounds, as (mask, x_plane).

    The compounds are products of one full stabilizer column (or row); they
    shift a logical-operator line sideways by one step, letting the descent
    hop the unit energy barrier between parallel logical representatives.
    """
    moves: list[tuple[int, bool]] = [(s.mask, s.kind == "X") for s in layout.stabilizers]
    span = layout.span
    for c in range(1, span, 2):  # X-stabilizer column c: x on columns c-1 and c+1
        mask = 0
        for s in layout.x_stabilizers:
            if s.coord[1] == c:
                mask ^= s.mask
        moves.append((mask, True))
    for r in range(1, span, 2):  # Z-stabilizer row r: z on rows r-1 and r+1
        mask = 0
        for s in layout.z_stabilizers:
            if s.coord[0] == r:
                mask ^= s.mask
        moves.append((mask, False))
    return moves


def refine_frame(
    layout: CodeLayout,
    model: NoiseModel,
    frame: PauliFrame,
    plateau_budget: int,
) -> PauliFrame:
    """Zero-temperature tightening: the best frame reachable from the input by
    stabilizer moves along energy-non-increasing paths.

    Breadth-first search over at most ``plateau_budget`` states, so plateaus
    of equally-short reroutings are crossed and every downhill basin reachable
    through them is inspected rather than greedily committing to the first
    one.  Deterministic, and never leaves the syndrome/class orbit.  The
    energy of a move is its plane's weight times the Metropolis count change.
    """
    delta = score_delta(model)
    weights = qubit_energy_weights(model)
    if plateau_budget <= 0 or not all(map(math.isfinite, weights)):
        return frame.copy()
    w_x, _, w_z = weights
    moves = [(mask, x_plane, w_x if x_plane else w_z)
             for mask, x_plane in _refinement_moves(layout)]
    # allow excursions one error above the start so equal-weight reroutings
    # separated by a unit barrier are still reached
    ceiling = max(weights) + _PLATEAU_TOL
    start = (frame.x, frame.z)
    best = start
    best_e = 0.0  # energies tracked relative to the start frame
    visited = {start}
    queue = deque([(frame.x, frame.z, 0.0)])
    while queue:
        x, z, e = queue.popleft()
        for mask, x_plane, w in moves:
            if len(visited) >= plateau_budget:
                queue.clear()
                break
            ne = e + w * delta(x, z, mask, x_plane)
            if ne > ceiling:
                continue
            key = (x ^ mask, z) if x_plane else (x, z ^ mask)
            if key in visited:
                continue
            visited.add(key)
            queue.append((key[0], key[1], ne))
            if ne < best_e - 1e-9:
                best = key
                best_e = ne
    return PauliFrame(frame.n_qubits, best[0], best[1])


#: (chain, matching weight, boundary exits) of one class-pure matching
SpeciesChain = tuple[PauliFrame, int, int]


def free_boundary_chain(
    layout: CodeLayout, anyons: tuple[int, ...], species: str
) -> tuple[bool, SpeciesChain]:
    """Plain matching with free boundaries, solved on the anyons alone.

    Anyons i and j pair at min(d_ij, h_i + h_j), where h is the distance to
    the home boundary: along the direct path when d_ij <= h_i + h_j, else by
    both exiting at home.  With n odd, boundary vertex n joins anyon i at h_i.
    Each edge weighs K w + (its boundary exits) with K = n + 2, more than any
    matching's exits, so the solver returns the fewest exits among the
    minimum-weight matchings.

    Returns ``(flip, chain)``: the chain lies in the class of
    ``build_problem(..., flip)``, where ``flip`` is the parity of its
    cross-home direct pairs, and its weight is the minimum over both flips.
    """
    coords, dists, homes = _anyon_sites(layout, anyons, species)
    h = [d[b] for d, b in zip(dists, homes)]
    n = len(coords)
    k = n + 2
    edges = []
    direct = set()
    for i in range(n):
        for j in range(i + 1, n):
            d = anyon_distance(coords[i], coords[j])
            if d <= h[i] + h[j]:
                direct.add((i, j))
                edges.append((i, j, k * d))
            else:
                edges.append((i, j, k * (h[i] + h[j]) + 2))
    if n % 2:
        edges.extend((i, n, k * h[i] + 1) for i in range(n))
    m = min_weight_perfect_matching(n + n % 2, edges)
    mask = 0
    flip = False
    for u, v in m.pairs:
        if (u, v) in direct:
            mask ^= _path_mask(layout, *sorted((coords[u], coords[v])))
            flip ^= homes[u] != homes[v]
        else:  # both exit at home, or u alone when v is the boundary vertex
            for a in (u, v) if v < n else (u,):
                mask ^= _exit_mask(layout, species, coords[a], homes[a])
    weight, exits = divmod(m.total_weight, k)
    return flip, (_species_frame(layout, species, mask), weight, exits)


def _species_chains(
    layout: CodeLayout, syndrome: Syndrome
) -> dict[tuple[str, bool], SpeciesChain]:
    """The four class-pure matchings, keyed by (species, force_class_flip):
    per species the free-boundary solve, under the flip of its class, and
    the gadget of the other flip."""
    chains: dict[tuple[str, bool], SpeciesChain] = {}
    for species, anyons in ((SPECIES_P, syndrome.p_anyons), (SPECIES_S, syndrome.s_anyons)):
        flip, chain = free_boundary_chain(layout, anyons, species)
        chains[(species, flip)] = chain
        prob = build_problem(layout, anyons, species, not flip)
        m = min_weight_perfect_matching(prob.n_vertices, prob.edges)
        n = len(anyons)
        exits = sum((u < n) != (v < n) for u, v in m.pairs)
        chains[(species, not flip)] = (chain_from_matching(layout, prob, m), m.total_weight, exits)
    return chains


def _standard_from_chains(
    layout: CodeLayout, chains: dict[tuple[str, bool], SpeciesChain]
) -> DecoderVerdict:
    frame = layout.identity_frame()
    total = 0
    for species in (SPECIES_P, SPECIES_S):
        # lighter chain first, then fewer boundary exits, then unforced
        flip = min((False, True), key=lambda f: (*chains[(species, f)][1:], f))
        chain, weight, _ = chains[(species, flip)]
        frame = frame * chain
        total += weight
    cls = layout.class_of(frame)
    return DecoderVerdict(cls, {cls: float(total)}, frame)


def _enhanced_from_chains(
    layout: CodeLayout,
    syndrome: Syndrome,
    model: NoiseModel,
    chains: dict[tuple[str, bool], SpeciesChain],
    refine_steps: int | None,
) -> tuple[DecoderVerdict, ClassChainSet]:
    if refine_steps is None:
        refine_steps = default_plateau_budget(layout)

    frames: list[PauliFrame | None] = [None] * 4
    for fp in (False, True):
        for fs in (False, True):
            combined = chains[(SPECIES_P, fp)][0] * chains[(SPECIES_S, fs)][0]
            cls = layout.class_of(combined)
            if refine_steps:
                combined = refine_frame(layout, model, combined, refine_steps)
            if frames[cls.index] is not None:
                raise DecoderInternalError("class forcing produced a duplicate class")
            if layout.syndrome_of(combined) != syndrome:
                raise DecoderInternalError("class hypothesis does not match the syndrome")
            frames[cls.index] = combined

    frames_t = tuple(frames)  # all four slots filled: classes were distinct
    scores = {c: _safe_energy(model, frames_t[c.index]) for c in EQUIV_CLASSES}
    cls = _pick_class(scores)
    verdict = DecoderVerdict(cls, scores, frames_t[cls.index])
    chain_set = ClassChainSet(frames_t, tuple(f.weight() for f in frames_t))
    return verdict, chain_set


def decode_enhanced(
    layout: CodeLayout,
    syndrome: Syndrome,
    model: NoiseModel,
    refine_steps: int | None = None,
) -> tuple[DecoderVerdict, ClassChainSet]:
    """Class-forced matching: one minimum-weight hypothesis per class.

    Per species, solves the free-boundary matching and the gadget of the
    other class flip (four matchings), combines them into the 2x2 class
    hypotheses, tightens each with the zero-temperature descent
    (``refine_steps`` is its search budget; ``0`` disables it and reproduces
    the bare matcher comparison, ``None`` picks a size-dependent default),
    and scores them under the true correlated model.  Returns the winning
    verdict and the per-class chain set used to seed the Monte Carlo
    decoders.
    """
    chains = _species_chains(layout, syndrome)
    return _enhanced_from_chains(layout, syndrome, model, chains, refine_steps)


def decode_both(
    layout: CodeLayout,
    syndrome: Syndrome,
    model: NoiseModel,
    refine_steps: int | None = None,
) -> tuple[DecoderVerdict, DecoderVerdict, ClassChainSet]:
    """Standard and class-forced verdicts, both read off the same four matchings."""
    chains = _species_chains(layout, syndrome)
    enh, chain_set = _enhanced_from_chains(layout, syndrome, model, chains, refine_steps)
    return _standard_from_chains(layout, chains), enh, chain_set
