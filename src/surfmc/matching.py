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

Each layout builds, on first use, one complete graph per species
(``_SpeciesGraph``, cached by ``_species_graph``): pair weights in units of K
and exit counts for every pair of the species' stabilizers and the two
boundaries, as numpy tables, and the chain mask of each edge, built when a
matching first uses it.  A species' two class bits share one block of that
graph: the (n + 2) x (n + 2) weights K w + exits of its anyons and both
boundaries, cut out once (``_SpeciesGraph.block``); each bit's graph is the
block's sub-matrix on the anyons and that bit's 0-2 boundaries
(``_class_matrix``).  ``_class_graph`` lists the same graph edge by edge.

All solves go through ``min_weight_perfect_matching`` to ``blossom``,
surfmc's own exact primal-dual blossom solver, which checks an optimality
certificate on every solve.  The decoders hand it the dense weight matrix;
it also takes an edge list.  Where several perfect matchings have the
minimum weight, the one returned is fixed by that solver's vertex and
neighbour scan order: networkx's order on the edge list, and on a dense
matrix the ascending order that the same complete graph gets when its edges
are listed in ascending order, so the matchings (ties included) are the ones
networkx returns.

Standard decoding takes, per species, the lighter of the two chains (ties go
to fewer boundary exits, then to the unforced one, the class of every anyon
exiting at its home, closer boundary): plain matching with free
boundaries.  The class-forced decoder combines the 2x2 chains into one
hypothesis per equivalence class, minimal per species but not always under
the correlated count, and compares the four under that true correlated
error count, where an x- and a z-error on the same qubit cost one sigma-y
rather than two errors.

A deterministic zero-temperature descent (stabilizer moves that never increase
the correlated energy, with best-seen tracking) optionally tightens each class
hypothesis before the comparison; matching alone can miss correlated minima
when equally-short paths could have been routed through a shared qubit.

Both stages draw no randomness, and small codes at low p see the same anyon
sets again and again, so both are memoized.  A layout is fixed by its L, so
every table or memo derived from one is a ``functools.lru_cache`` of its
arguments: ``_solve_species`` keeps one species' two class chains, as
``(flip, frame, weight, exits)``, under ``(layout, species, anyons)``, and
``_descend`` the refined frame under ``(layout, model, x, z,
plateau_budget)``.  Over all layouts, ``_solve_species`` holds at most
``_MEMO_SIZE`` entries and ``_descend``, which sees a syndrome's four class
hypotheses, ``4 * _MEMO_SIZE``; each evicts the least recently used.  Every
decode checks each species' anyons before the lookup, so a bad set is
refused whatever was decoded before (a float or bool equal to a stored
set's indices would otherwise read its entry) and is never stored.  A
``PauliFrame`` is an immutable value, so every call hands out the stored
frames themselves.
``class_chain``, ``min_weight_perfect_matching`` and ``oracle.exact_decoder``
are not memoized, so their callers always see real solves;
``harness.oracle_check`` keeps each distinct syndrome's class-forced chain
set and exact verdict in a table that lives for one call.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections import deque
from collections.abc import Sequence, Sized
from dataclasses import dataclass

import numpy as np

from .blossom import dense_min_weight_matching, min_weight_matching
from .errors import (
    DecoderInternalError,
    InfeasibleMatchingError,
    InvalidParameterError,
    _check_anyons,
    _check_count,
    _is_number,
)
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

#: entries in the chain memo, a quarter of the descent memo's (module docstring)
_MEMO_SIZE = 2048


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


def min_weight_perfect_matching(
    n: int, edges: Sequence[tuple[int, int, int]] | np.ndarray
) -> Matching:
    """Globally minimal perfect matching of the graph on vertices 0 .. n-1
    (exact blossom algorithm).

    ``edges`` is either a sequence of weighted edges ``(u, v, w)`` or, as a
    numpy array, the n x n symmetric weight matrix of the complete graph
    (diagonal ignored).  The two are told apart by type alone, so a 3 x 3
    matrix never reads as three edges.  Refuses a vertex count that is not
    an integer >= 0, an edge that is not a triple, and an edge whose ends
    are not vertices or whose weight is not an integer.  Raises
    ``InfeasibleMatchingError`` when the graph has no perfect matching, and
    ``DecoderInternalError`` if the solver's optimality certificate fails.
    """
    _check_count("vertex count", n, 0)
    if isinstance(edges, np.ndarray):
        if edges.shape != (n, n) or edges.dtype.kind not in "iu":
            raise InvalidParameterError(
                f"the weights of {n} vertices must be an {n} x {n} integer matrix, "
                f"got {edges.dtype} of shape {edges.shape}"
            )
        if (edges != edges.T).any():
            raise InvalidParameterError("the weight matrix must be symmetric")
        pairs, weight = dense_min_weight_matching(edges)
    else:
        for edge in edges:
            if not isinstance(edge, Sized) or len(edge) != 3:
                raise InvalidParameterError(f"an edge must be a triple (u, v, w), got {edge!r}")
            u, v, w = edge
            _check_count("edge end", u, 0, high=n - 1)
            _check_count("edge end", v, 0, high=n - 1)
            if not _is_number(w, numbers.Integral):
                raise InvalidParameterError(f"edge weight must be an integer, got {w!r}")
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
    table = _delta_table(model.kind)
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

    The descent is memoized on ``(layout, model, frame.x, frame.z,
    plateau_budget)`` (module docstring), so a frame seen before costs one
    lookup and gets the stored frame.
    """
    if frame.n_qubits != layout.n_qubits:
        raise InvalidParameterError(
            f"frame has {frame.n_qubits} qubits, the layout {layout.n_qubits}"
        )
    _check_count("plateau_budget", plateau_budget, 0)
    weights = qubit_energy_weights(model)
    # the start alone fills a budget of 1
    if plateau_budget <= 1 or not all(map(math.isfinite, weights)):
        return frame
    return _descend(layout, model, frame.x, frame.z, plateau_budget)


@functools.lru_cache(maxsize=4 * _MEMO_SIZE)  # four class hypotheses per syndrome
def _descend(
    layout: CodeLayout, model: NoiseModel, x: int, z: int, plateau_budget: int
) -> PauliFrame:
    """``refine_frame``'s breadth-first descent from ``(x, z)``: the best
    frame found."""
    local = _layout_moves(layout)
    delta = score_delta(model)
    weights = qubit_energy_weights(model)
    w_x, _, w_z = weights
    tables = _energy_tables(model)
    singles = [(tables[x_plane], mask, x_plane, flips)
               for mask, x_plane, flips in zip(local.masks, local.x_kind, local.flips)]
    compounds = [(mask, x_plane, w_x if x_plane else w_z, flips)
                 for mask, x_plane, flips in local.compounds]
    # allow excursions one error above the start so equal-weight reroutings
    # separated by a unit barrier are still reached
    ceiling = max(weights) + _PLATEAU_TOL
    best = (x, z)
    best_e = 0.0  # energies tracked relative to the start frame
    visited = {best}
    queue = deque([(x, z, 0.0, local.local_states(PauliFrame(layout.n_qubits, x, z)))])

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
                return PauliFrame(layout.n_qubits, *best)
        for mask, x_plane, w, flips in compounds:
            ne = e + w * delta(x, z, mask, x_plane)
            if ne > ceiling:
                continue
            key = (x ^ mask, z) if x_plane else (x, z ^ mask)
            if key not in visited and enqueue(key, ne, states, flips):
                return PauliFrame(layout.n_qubits, *best)
    return PauliFrame(layout.n_qubits, *best)


#: (chain, matching weight, boundary exits) of one class-pure matching
SpeciesChain = tuple[PauliFrame, int, int]


def _anyon_sites(
    layout: CodeLayout, anyons: tuple[int, ...], species: str
) -> tuple[tuple[Coord, ...], list[tuple[int, int]]]:
    """Sites of one species' anyons and their distances to both absorbing
    boundaries, read off the species graph."""
    graph = _species_graph(layout, species)
    return tuple(graph.coords[a] for a in anyons), [graph.dists[a] for a in anyons]


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
    numbered as in the module docstring: the edge-list description of the
    matrix that ``_class_matrix`` builds from the species tables."""
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


class _SpeciesGraph:
    """One species' complete matching graph on a layout, built on first use.

    Vertex a < m, for the species' m stabilizers, is stabilizer a; m and
    m + 1 are boundaries 0 and 1.  Edge (a, b) weighs ``units[a, b]``
    single-qubit errors and leaves the lattice ``exits[a, b]`` times (module
    docstring): two stabilizers pair at min(d_ab, a_a + a_b, b_a + b_b), with
    2 exits when through a boundary; a stabilizer joins a boundary at its
    distance to it, with 1 exit; the boundaries join at L, with none.  The
    graph a class chain is solved on is the subgraph on the anyons and its
    boundaries, at K units + exits per edge.  ``route(a, b)`` is the qubit
    mask of edge (a, b)'s chain; masks are built only for edges that some
    matching used, since the full table grows as L^5 bits.
    """

    def __init__(self, layout: CodeLayout, species: str):
        self.layout = layout
        self.species = species
        stabs = layout.z_stabilizers if species == SPECIES_P else layout.x_stabilizers
        self.coords = [s.coord for s in stabs]
        self.dists = [boundary_distances(layout, species, c) for c in self.coords]
        #: anyon a's home (closer, ties toward 0) boundary is boundary 0
        self.home0 = [d0 <= d1 for d0, d1 in self.dists]
        m = self.m = len(stabs)
        rows, cols = np.array(self.coords).T
        to0, to1 = np.array(self.dists).T
        direct = (abs(rows[:, None] - rows) + abs(cols[:, None] - cols)) // 2
        via = np.minimum(to0[:, None] + to0, to1[:, None] + to1)
        self.units = np.zeros((m + 2, m + 2), dtype=np.int64)
        self.exits = np.zeros((m + 2, m + 2), dtype=np.int8)
        # ties go to the direct path
        self.units[:m, :m] = np.minimum(direct, via)
        self.exits[:m, :m] = np.where(direct <= via, 0, 2)
        for b, to in ((m, to0), (m + 1, to1)):
            self.units[:m, b] = self.units[b, :m] = to
            self.exits[:m, b] = self.exits[b, :m] = 1
        self.units[m, m + 1] = self.units[m + 1, m] = layout.L
        self._routes: dict[int, int] = {}

    def block(self, anyons: tuple[int, ...]) -> np.ndarray:
        """Weights, K = n + 2 units plus exits, of the graph on the n anyons
        then boundaries 0 and 1: both class bits' graphs are subgraphs.
        A pure table read: callers check the anyons first."""
        verts = np.array((*anyons, self.m, self.m + 1))
        rows = verts[:, None]
        return (len(anyons) + 2) * self.units[rows, verts] + self.exits[rows, verts]

    def route(self, a: int, b: int) -> int:
        """Qubit mask of the chain that edge (a, b) stands for."""
        if a > b:
            a, b = b, a
        key = a * (self.m + 2) + b
        mask = self._routes.get(key)
        if mask is None:
            mask = self._routes[key] = self._build_route(a, b)
        return mask

    def _build_route(self, a: int, b: int) -> int:
        layout, species, coords, m = self.layout, self.species, self.coords, self.m
        if a >= m:  # boundary 0 to boundary 1: the reference logical
            return layout.logical_x_mask if species == SPECIES_P else layout.logical_z_mask
        if b >= m:
            return _exit_mask(layout, species, coords[a], b - m)
        via = _pair_via(anyon_distance(coords[a], coords[b]), self.dists[a], self.dists[b])
        if via is None:
            return _path_mask(layout, *sorted((coords[a], coords[b])))
        return (_exit_mask(layout, species, coords[a], via)
                ^ _exit_mask(layout, species, coords[b], via))


@functools.lru_cache(maxsize=32)
def _species_graph(layout: CodeLayout, species: str) -> _SpeciesGraph:
    if species not in (SPECIES_P, SPECIES_S):
        raise InvalidParameterError(f"unknown species {species!r}")
    return _SpeciesGraph(layout, species)


def _class_matrix(block: np.ndarray, bit: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The class-bit-``bit`` graph as a sub-matrix of ``block``: its anyons
    and boundaries (``_class_boundaries``), and their rows of the block."""
    n = len(block) - 2
    bounds = _class_boundaries(n, bit)
    keep = (*range(n), *(n + b for b in bounds))
    if bounds == (1,):  # boundary 1 without boundary 0: drop row and column n
        rows = np.array(keep)
        return block[rows[:, None], rows], keep
    return block[:len(keep), :len(keep)], keep


def _solve_class(
    graph: _SpeciesGraph, anyons: tuple[int, ...], block: np.ndarray, bit: int
) -> SpeciesChain:
    """``class_chain``'s ``(frame, weight, exits)``, from the anyons' block."""
    matrix, keep = _class_matrix(block, bit)
    m = min_weight_perfect_matching(len(keep), matrix)
    verts = (*anyons, graph.m, graph.m + 1)
    mask = 0
    for u, v in m.pairs:
        mask ^= graph.route(verts[keep[u]], verts[keep[v]])
    weight, exits = divmod(m.total_weight, len(anyons) + 2)
    return _species_frame(graph.layout, graph.species, mask), weight, exits


def class_chain(
    layout: CodeLayout, anyons: tuple[int, ...], species: str, bit: int
) -> SpeciesChain:
    """The lightest chain of one species whose class bit is ``bit``, and
    among the lightest one with the fewest boundary exits, as
    ``(frame, weight, exits)``: a minimum T-join solved as a perfect matching
    (module docstring)."""
    graph = _species_graph(layout, species)
    _check_anyons(f"{species}-anyons", anyons, graph.m)
    _check_count("class bit", bit, 0, high=1)
    return _solve_class(graph, anyons, graph.block(anyons), bit)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _solve_species(
    layout: CodeLayout, species: str, anyons: tuple[int, ...]
) -> tuple[tuple[bool, PauliFrame, int, int], ...]:
    """One species' two class-pure matchings, as ``(flip, frame, weight,
    exits)`` per class bit: one block of weights serves both bits."""
    graph = _species_graph(layout, species)
    block = graph.block(anyons)
    home0 = sum(graph.home0[a] for a in anyons) % 2
    return tuple((bool(bit ^ home0), *_solve_class(graph, anyons, block, bit)) for bit in (0, 1))


def _species_chains(
    layout: CodeLayout, syndrome: Syndrome
) -> dict[tuple[str, bool], SpeciesChain]:
    """The four class-pure matchings, keyed by (species, flip).  ``flip`` is
    set when the chain's class bit differs from that of every anyon exiting
    at its home (closer, ties toward 0) boundary, which is the parity of the
    anyons whose home is boundary 0.  The solves are memoized on (layout,
    species, anyons), and every call checks the anyons before the lookup and
    gets the stored frames."""
    chains: dict[tuple[str, bool], SpeciesChain] = {}
    for species, anyons in ((SPECIES_P, syndrome.p_anyons), (SPECIES_S, syndrome.s_anyons)):
        _check_anyons(f"{species}-anyons", anyons, _species_graph(layout, species).m)
        for flip, frame, weight, exits in _solve_species(layout, species, anyons):
            chains[(species, flip)] = (frame, weight, exits)
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


def _refine_budget(layout: CodeLayout, refine_steps: int | None) -> int:
    """The descent budget ``refine_steps`` asks for, checked before any
    matching runs."""
    if refine_steps is None:
        return default_plateau_budget(layout)
    _check_count("refine_steps", refine_steps, 0)
    return refine_steps


def _enhanced_from_chains(
    layout: CodeLayout,
    syndrome: Syndrome,
    model: NoiseModel,
    chains: dict[tuple[str, bool], SpeciesChain],
    refine_steps: int,
) -> tuple[DecoderVerdict, ClassChainSet]:
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
    """Class-forced matching: one hypothesis per class, minimal per species.

    Per species, solves the lightest chain of each class bit (four
    matchings), combines them into the 2x2 class hypotheses, tightens each
    with the zero-temperature descent (``refine_steps`` is its search
    budget; ``0`` disables it and reproduces the bare matcher comparison,
    ``None`` picks a size-dependent default), and scores them under the true
    correlated model.  Returns the winning verdict and the per-class chain
    set used to seed the Monte Carlo decoders.
    """
    refine_steps = _refine_budget(layout, refine_steps)
    chains = _species_chains(layout, syndrome)
    return _enhanced_from_chains(layout, syndrome, model, chains, refine_steps)


def decode_both(
    layout: CodeLayout,
    syndrome: Syndrome,
    model: NoiseModel,
    refine_steps: int | None = None,
) -> tuple[DecoderVerdict, DecoderVerdict, ClassChainSet]:
    """Standard and class-forced verdicts, both read off the same four matchings."""
    refine_steps = _refine_budget(layout, refine_steps)
    chains = _species_chains(layout, syndrome)
    enh, chain_set = _enhanced_from_chains(layout, syndrome, model, chains, refine_steps)
    return _standard_from_chains(layout, chains), enh, chain_set
