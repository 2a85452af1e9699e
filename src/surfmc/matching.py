"""Anyon matching graphs and the two matching-based decoders.

Each species of anyon gets two exact minimum-weight perfect matchings, one
per class bit (``class_chain``).  The only qubits a species' chain shares with
the reference logical that reads its class bit are the links into boundary 0
(row 0 for p, column 0 for s), so the class bit is the parity of the chain's
ends on boundary 0.  The lightest chain with a given bit is therefore a
minimum T-join (Edmonds-Johnson) on the lattice with each absorbing boundary
collapsed to one vertex: the odd-degree set is the n anyons, plus boundary 0
when the bit is 1, plus boundary 1 when n + bit is odd.  It is solved as a
perfect matching on those n, n + 1 or n + 2 vertices under the collapsed
lattice's shortest-path weights.  Vertex i < n is anyon i, and the boundary
vertices follow, boundary 0 first.  Anyons i and j pair at
min(d_ij, a_i + a_j, b_i + b_j), where a and b are the distances to
boundaries 0 and 1, realised as the direct row-first path or as both anyons
exiting through that boundary; anyon i joins boundary b at its distance to
b; the two boundaries join at weight L, realised as the reference logical.
Every edge weighs K w + (its boundary exits: one per anyon that leaves the
lattice, none for the logical) with K = n + 2, more than any matching's exit
count, so among the lightest matchings the solver returns one with the
fewest exits.

All solves go through ``min_weight_perfect_matching`` to ``blossom``,
surfmc's own exact primal-dual blossom solver on dense integer weights, which
checks an optimality certificate on every solve.  Where several perfect
matchings have the minimum weight, the one returned is fixed by that solver's
vertex and neighbour scan order, which follows the order of the edge list;
the order was taken over from networkx, so the matchings (ties included) are
the ones networkx returns.

Standard decoding takes, per species, the lighter of the two chains (ties go
to fewer boundary exits, then to the unforced one, the class of every anyon
exiting at its home, closer boundary): plain matching with free
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

import functools
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
from .noise import (
    NoiseModel,
    _delta_table,
    _layout_moves,
    chain_energy,
    qubit_energy_weights,
    score_delta,
)

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


def _boundary_site(layout: CodeLayout, species: str, coord: Coord, boundary: int) -> Coord:
    """The site just past ``boundary`` in line with the anyon at ``coord``."""
    r, c = coord
    edge = 2 * layout.L - 1
    if species == SPECIES_P:
        return (-1 if boundary == 0 else edge, c)
    return (r, -1 if boundary == 0 else edge)


def anyon_distance(a: Coord, b: Coord) -> int:
    """Manhattan distance on the stabilizer sublattice (grid steps of 2)."""
    return (abs(a[0] - b[0]) + abs(a[1] - b[1])) // 2


@dataclass(frozen=True)
class Matching:
    pairs: tuple[tuple[int, int], ...]  # (u, v) with u < v, sorted
    total_weight: int


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
    return _path_mask(layout, coord, _boundary_site(layout, species, coord, boundary))


def _species_frame(layout: CodeLayout, species: str, mask: int) -> PauliFrame:
    """A species' chain: sigma-x on ``mask`` for p, sigma-z for s."""
    if species == SPECIES_P:
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


@functools.lru_cache(maxsize=64)
def _energy_tables(model: NoiseModel) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Energy change w * Delta n of a single-stabilizer move, indexed by the
    stabilizer's local state: (z-plane table, x-plane table), built from the
    model's Delta n table once per model."""
    w_x, _, w_z = qubit_energy_weights(model)
    table = _delta_table(model)
    return tuple(w_z * d for d in table), tuple(w_x * d for d in table)


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
    one.  Deterministic, and never leaves the syndrome/class orbit; a frame of
    another layout is rejected.  The moves are every stabilizer, then the
    logical-translation compounds of the layout's move tables (one full
    X-stabilizer column or Z-stabilizer row).  The energy of a move is its
    plane's weight times the Metropolis count change.  Each queued state
    carries the local states of all stabilizers (a child's are its parent's
    XORed with the move's flip list), so a single-stabilizer move costs one
    lookup in the model's table of w * Delta n, built from the Delta n table
    that ``mcmc.MetropolisChain`` reads; a compound calls
    ``noise.score_delta``.  Those n_stab ints per queued state are the
    descent's memory: one L = 11 descent at a budget of 50,000 states peaks
    near 80 MB of Python objects, about 7x what the frames alone take; at the
    default budgets it stays under 1 MB.
    """
    if frame.n_qubits != layout.n_qubits:
        raise InvalidParameterError(
            f"frame has {frame.n_qubits} qubits, the layout {layout.n_qubits}"
        )
    weights = qubit_energy_weights(model)
    # the start alone fills a budget of 1
    if plateau_budget <= 1 or not all(map(math.isfinite, weights)):
        return frame.copy()
    local = _layout_moves(layout)
    delta = score_delta(model)
    w_x, _, w_z = weights
    tables = _energy_tables(model)
    singles = [(tables[x_plane], mask, x_plane, flips)
               for mask, x_plane, flips in zip(local.masks, local.x_kind, local.flips)]
    compounds = [(mask, x_plane, w_x if x_plane else w_z, flips)
                 for mask, x_plane, flips in local.compounds]
    # allow excursions one error above the start so equal-weight reroutings
    # separated by a unit barrier are still reached
    ceiling = max(weights) + _PLATEAU_TOL
    start = (frame.x, frame.z)
    best = start
    best_e = 0.0  # energies tracked relative to the start frame
    visited = {start}
    queue = deque([(frame.x, frame.z, 0.0, local.local_states(frame))])

    def enqueue(key, ne, states, flips) -> bool:
        """Queue an unseen state reached by a move with flip list ``flips``;
        True once ``visited`` has reached the budget."""
        nonlocal best, best_e
        visited.add(key)
        child = states.copy()
        for t, bits in flips:
            child[t] ^= bits
        queue.append((*key, ne, child))
        if ne < best_e - 1e-9:
            best = key
            best_e = ne
        return len(visited) >= plateau_budget

    while queue:
        x, z, e, states = queue.popleft()
        for (table, mask, x_plane, flips), state in zip(singles, states):
            ne = e + table[state]
            if ne > ceiling:
                continue
            key = (x ^ mask, z) if x_plane else (x, z ^ mask)
            if key not in visited and enqueue(key, ne, states, flips):
                return PauliFrame(frame.n_qubits, *best)
        for mask, x_plane, w, flips in compounds:
            ne = e + w * delta(x, z, mask, x_plane)
            if ne > ceiling:
                continue
            key = (x ^ mask, z) if x_plane else (x, z ^ mask)
            if key not in visited and enqueue(key, ne, states, flips):
                return PauliFrame(frame.n_qubits, *best)
    return PauliFrame(frame.n_qubits, *best)


#: (chain, matching weight, boundary exits) of one class-pure matching
SpeciesChain = tuple[PauliFrame, int, int]


def _anyon_sites(
    layout: CodeLayout, anyons: tuple[int, ...], species: str
) -> tuple[tuple[Coord, ...], list[tuple[int, int]]]:
    """Sites of one species' anyons and their distances to both absorbing
    boundaries."""
    if species not in (SPECIES_P, SPECIES_S):
        raise InvalidParameterError(f"unknown species {species!r}")
    stabs = layout.z_stabilizers if species == SPECIES_P else layout.x_stabilizers
    coords = tuple(stabs[a].coord for a in anyons)
    return coords, [boundary_distances(layout, species, c) for c in coords]


def _pair_via(d: int, di: tuple[int, int], dj: tuple[int, int]) -> int | None:
    """How two anyons at distance ``d`` pair: ``None`` for the direct path,
    else the boundary both exit through (ties go to the direct path, then to
    boundary 0)."""
    via = 0 if di[0] + dj[0] <= di[1] + dj[1] else 1
    return None if d <= di[via] + dj[via] else via


def _class_boundaries(n: int, bit: int) -> tuple[int, ...]:
    """Boundary vertices of the class-bit-``bit`` graph on n anyons, in
    vertex order: 0 when ``bit`` is 1, 1 when n + ``bit`` is odd."""
    return tuple(b for b, odd in ((0, bit), (1, (n + bit) % 2)) if odd)


def _class_graph(
    layout: CodeLayout, coords: tuple[Coord, ...], dists: list[tuple[int, int]], bit: int
) -> tuple[int, list[tuple[int, int, int]]]:
    """(vertex count, edges) of the matching that ``class_chain`` solves,
    numbered as in the module docstring."""
    n = len(coords)
    k = n + 2
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            d = anyon_distance(coords[i], coords[j])
            via = _pair_via(d, dists[i], dists[j])
            w = k * d if via is None else k * (dists[i][via] + dists[j][via]) + 2
            edges.append((i, j, w))
    bounds = _class_boundaries(n, bit)
    for v, b in enumerate(bounds, n):
        edges.extend((i, v, k * dists[i][b] + 1) for i in range(n))
    if len(bounds) == 2:
        edges.append((n, n + 1, k * layout.L))
    return n + len(bounds), edges


def class_chain(
    layout: CodeLayout, anyons: tuple[int, ...], species: str, bit: int
) -> SpeciesChain:
    """The lightest chain of one species whose class bit is ``bit``, and
    among the lightest one with the fewest boundary exits, as
    ``(frame, weight, exits)``: a minimum T-join solved as a perfect matching
    (module docstring)."""
    coords, dists = _anyon_sites(layout, anyons, species)
    n = len(coords)
    m = min_weight_perfect_matching(*_class_graph(layout, coords, dists, bit))
    bounds = _class_boundaries(n, bit)
    mask = 0
    for u, v in m.pairs:
        if v < n:
            via = _pair_via(anyon_distance(coords[u], coords[v]), dists[u], dists[v])
            if via is None:
                mask ^= _path_mask(layout, *sorted((coords[u], coords[v])))
            else:
                mask ^= _exit_mask(layout, species, coords[u], via)
                mask ^= _exit_mask(layout, species, coords[v], via)
        elif u < n:
            mask ^= _exit_mask(layout, species, coords[u], bounds[v - n])
        else:  # boundary 0 to boundary 1: the reference logical
            mask ^= layout.logical_x_mask if species == SPECIES_P else layout.logical_z_mask
    weight, exits = divmod(m.total_weight, n + 2)
    return _species_frame(layout, species, mask), weight, exits


def _species_chains(
    layout: CodeLayout, syndrome: Syndrome
) -> dict[tuple[str, bool], SpeciesChain]:
    """The four class-pure matchings, keyed by (species, flip).  ``flip`` is
    set when the chain's class bit differs from that of every anyon exiting
    at its home (closer, ties toward 0) boundary, which is the parity of the
    anyons whose home is boundary 0."""
    chains: dict[tuple[str, bool], SpeciesChain] = {}
    for species, anyons in ((SPECIES_P, syndrome.p_anyons), (SPECIES_S, syndrome.s_anyons)):
        _, dists = _anyon_sites(layout, anyons, species)
        home0 = sum(d0 <= d1 for d0, d1 in dists) % 2
        for bit in (0, 1):
            chains[(species, bool(bit ^ home0))] = class_chain(layout, anyons, species, bit)
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

    Per species, solves the lightest chain of each class bit (four
    matchings), combines them into the 2x2 class hypotheses, tightens each
    with the zero-temperature descent (``refine_steps`` is its search
    budget; ``0`` disables it and reproduces the bare matcher comparison,
    ``None`` picks a size-dependent default), and scores them under the true
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
