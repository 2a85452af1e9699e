"""Anyon matching graphs and the two matching-based decoders.

Each species of anyon gets two exact minimum-weight perfect matchings.  The
unforced problem holds the real anyons, their virtual partners on the closer
absorbing boundary, and a zero-weight clique among each boundary's virtuals.
The forced problem adds one extra virtual anyon per absorbing boundary (joined
to the boundary's virtuals at zero weight, to every real anyon at its distance
to that boundary, and to the opposite extra at weight L), so every perfect
matching of it realizes the complementary class bit.

Both are solved by ``blossom``, surfmc's own exact primal-dual blossom solver
on dense integer weights.  Where several perfect matchings have the minimum
weight, the one returned is fixed by that solver's vertex and neighbour scan
order, which follows the order of ``MatchingProblem.edges``; the order was
taken over from networkx, so the matchings (ties included) are the ones
networkx returns.

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
from .noise import NoiseModel, chain_energy, qubit_energy_weights

SPECIES_P = "p"  # violated Z-stabilizers, repaired with sigma-x chains
SPECIES_S = "s"  # violated X-stabilizers, repaired with sigma-z chains

REAL = "real"
VIRTUAL = "virtual"
EXTRA = "extra"

def default_plateau_budget(layout: CodeLayout) -> int:
    """Default refinement search budget: effectively exhaustive on codes small
    enough for oracle cross-checks, cost-capped on production sizes."""
    return 4096 if layout.n_stab <= 16 else 256


def anyon_coord(layout: CodeLayout, species: str, index: int) -> Coord:
    stabs = layout.z_stabilizers if species == SPECIES_P else layout.x_stabilizers
    return stabs[index].coord


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
class MatchVertex:
    kind: str                 # real | virtual | extra
    coord: Coord | None       # None for extras (they sit on a whole boundary)
    boundary: int | None      # None for reals
    anyon: int | None = None  # species index, reals only


@dataclass(frozen=True)
class MatchingProblem:
    species: str
    force_class_flip: bool
    vertices: tuple[MatchVertex, ...]
    edges: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class Matching:
    pairs: tuple[tuple[int, int], ...]
    total_weight: int


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
    if species not in (SPECIES_P, SPECIES_S):
        raise InvalidParameterError(f"unknown species {species!r}")
    vertices: list[MatchVertex] = []
    edges: list[tuple[int, int, int]] = []
    n = len(anyons)

    coords = [anyon_coord(layout, species, a) for a in anyons]
    dists = [boundary_distances(layout, species, c) for c in coords]
    homes = [0 if d0 <= d1 else 1 for d0, d1 in dists]

    for a, c in zip(anyons, coords):
        vertices.append(MatchVertex(REAL, c, None, a))
    for c, b in zip(coords, homes):
        vertices.append(MatchVertex(VIRTUAL, _virtual_coord(layout, species, c, b), b))

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
        vertices.append(MatchVertex(EXTRA, None, 0))
        vertices.append(MatchVertex(EXTRA, None, 1))
        for i in range(n):
            if homes[i] == 0:
                edges.append((n + i, e0, 0))
            else:
                edges.append((n + i, e1, 0))
        for i in range(n):
            edges.append((i, e0, dists[i][0]))
            edges.append((i, e1, dists[i][1]))
        edges.append((e0, e1, layout.L))

    return MatchingProblem(species, force_class_flip, tuple(vertices), tuple(edges))


def min_weight_perfect_matching(problem: MatchingProblem) -> Matching:
    """Globally minimal perfect matching (exact blossom algorithm).

    Raises ``InfeasibleMatchingError`` when the graph has no perfect
    matching, and ``DecoderInternalError`` if the solver's optimality
    certificate fails.
    """
    n = len(problem.vertices)
    if n == 0:
        return Matching((), 0)
    if n % 2:
        raise InfeasibleMatchingError(f"odd vertex count {n}")
    pairs, weight = min_weight_matching(n, problem.edges)
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


def chain_from_matching(
    layout: CodeLayout, problem: MatchingProblem, matching: Matching
) -> PauliFrame:
    """Realize matched pairs as error paths (sigma-x for p, sigma-z for s).

    Real-real pairs walk row-first; real-boundary pairs exit straight; the
    extra-extra pair contributes the reference logical operator; all other
    virtual pairs contribute nothing.
    """
    mask = 0
    verts = problem.vertices
    for u, v in matching.pairs:
        vu, vv = verts[u], verts[v]
        if vu.kind != REAL and vv.kind != REAL:
            if vu.kind == EXTRA and vv.kind == EXTRA:
                mask ^= (
                    layout.logical_x_mask
                    if problem.species == SPECIES_P
                    else layout.logical_z_mask
                )
            continue
        if vv.kind == REAL and vu.kind != REAL:
            vu, vv = vv, vu
        # vu is real here
        if vv.kind == REAL:
            a, b = sorted((vu.coord, vv.coord))
            mask ^= _path_mask(layout, a, b)
        else:
            target = (
                vv.coord
                if vv.kind == VIRTUAL
                else _virtual_coord(layout, problem.species, vu.coord, vv.boundary)
            )
            mask ^= _path_mask(layout, vu.coord, target)
    if problem.species == SPECIES_P:
        return PauliFrame(layout.n_qubits, mask, 0)
    return PauliFrame(layout.n_qubits, 0, mask)


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
    energy of a move is its plane's weight times the Metropolis count change,
    so models without an integer error count are rejected.
    """
    from .mcmc import MoveKernel  # mcmc imports this module

    delta = MoveKernel(layout, model).delta
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


def _species_chains(
    layout: CodeLayout, syndrome: Syndrome
) -> dict[tuple[str, bool], SpeciesChain]:
    """The four class-pure matchings, keyed by (species, force_class_flip)."""
    chains: dict[tuple[str, bool], SpeciesChain] = {}
    for species, anyons in ((SPECIES_P, syndrome.p_anyons), (SPECIES_S, syndrome.s_anyons)):
        for flip in (False, True):
            prob = build_problem(layout, anyons, species, flip)
            m = min_weight_perfect_matching(prob)
            verts = prob.vertices
            exits = sum((verts[u].kind == REAL) != (verts[v].kind == REAL) for u, v in m.pairs)
            chains[(species, flip)] = (chain_from_matching(layout, prob, m), m.total_weight, exits)
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
    if refine_steps and not all(map(math.isfinite, qubit_energy_weights(model))):
        refine_steps = 0  # noiseless components make descent moves ill-defined

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

    Runs the matcher with and without the class flip for each species (four
    matchings), combines them into the 2x2 class hypotheses, tightens each
    with the zero-temperature descent (``refine_steps`` is its search budget;
    ``0`` disables it and reproduces the bare matcher comparison, ``None``
    picks a size-dependent default), and scores them under the true
    correlated model.  Returns the winning verdict and the per-class chain
    set used to seed the Monte Carlo decoders.
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
