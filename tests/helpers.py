"""Reference implementations and readers the test modules import by name.

They live outside ``conftest.py`` because ``surfbench/tests`` has a
``conftest.py`` too, and a module importing from "conftest" would get
whichever of the two pytest loaded last.
"""

import functools
import math
from collections import deque
from pathlib import Path

import networkx as nx

from surfmc import InfeasibleMatchingError, Matching, PauliFrame, error_score
from surfmc.harness import CSV_HEADER
from surfmc.noise import qubit_energy_weights, score_delta


def read_results_csv(path) -> list[tuple]:
    """Rows of a campaign CSV, typed as ``CampaignResult.rows()`` types them."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    rows = []
    for line in lines[1:]:
        if line.startswith("#"):
            continue
        f = line.split(",")
        rows.append(
            (int(f[0]), float(f[1]), f[2], f[3], int(f[4]), int(f[5]),
             float(f[6]), float(f[7]), float(f[8]), int(f[9]))
        )
    return rows


def brute_force_min_matching(n_vertices: int, edges) -> int | None:
    """Exhaustive minimum over all perfect matchings; None if infeasible.

    Independent of the production matcher: direct recursion over pairings.
    """
    adj = {}
    for u, v, w in edges:
        adj.setdefault(u, {})[v] = min(w, adj.get(u, {}).get(v, w))
        adj.setdefault(v, {})[u] = min(w, adj.get(v, {}).get(u, w))
    if n_vertices == 0:
        return 0

    def rec(unmatched: frozenset) -> int | None:
        if not unmatched:
            return 0
        u = min(unmatched)
        best = None
        for v, w in adj.get(u, {}).items():
            if v in unmatched and v != u:
                sub = rec(unmatched - {u, v})
                if sub is not None and (best is None or w + sub < best):
                    best = w + sub
        return best

    return rec(frozenset(range(n_vertices)))


def networkx_min_weight_perfect_matching(n: int, edges) -> Matching:
    """Reference matcher: networkx's blossom on the graph with vertices
    0 .. n-1 and weighted ``edges``.

    ``surfmc.blossom`` is a port of this solver, with the same vertex and
    neighbour order, so it must return these exact pairs, ties included.
    """
    if n == 0:
        return Matching((), 0)
    if n % 2:
        raise InfeasibleMatchingError(f"odd vertex count {n}")
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    weight = {}
    for u, v, w in edges:
        graph.add_edge(u, v, weight=w)
        weight[(u, v)] = weight[(v, u)] = w
    mate = nx.min_weight_matching(graph)
    if 2 * len(mate) != n:
        raise InfeasibleMatchingError("no perfect matching exists")
    pairs = tuple(sorted(tuple(sorted(p)) for p in mate))
    return Matching(pairs, sum(weight[p] for p in pairs))


def brute_force_free_boundary_weight(layout, anyons, species: str) -> int:
    """Minimum free-boundary pairing of one species' anyons; exhaustive.

    Each anyon pairs with another at their lattice distance or exits at its
    nearer absorbing boundary (rows -1 / 2L-1 for "p", columns for "s").
    Independent of the production matcher: recursion over pairings, memoized
    on the set of anyons still unpaired.
    """
    stabs = layout.z_stabilizers if species == "p" else layout.x_stabilizers
    coords = [stabs[a].coord for a in anyons]
    edge = 2 * layout.L - 1
    axis = 0 if species == "p" else 1
    exits = [min((rc[axis] + 1) // 2, (edge - rc[axis]) // 2) for rc in coords]

    @functools.cache
    def rec(unpaired: int) -> int:
        if not unpaired:
            return 0
        u = (unpaired & -unpaired).bit_length() - 1
        rest = unpaired & ~(1 << u)
        best = exits[u] + rec(rest)
        for v in range(u + 1, len(coords)):
            if rest >> v & 1:
                (r1, c1), (r2, c2) = coords[u], coords[v]
                dist = (abs(r1 - r2) + abs(c1 - c2)) // 2
                best = min(best, dist + rec(rest & ~(1 << v)))
        return best

    return rec((1 << len(coords)) - 1)


def brute_force_class_weight(layout, anyons, species: str, bit: int) -> int:
    """Lightest chain of one species' anyons whose class bit is ``bit``;
    exhaustive.

    Each anyon pairs with another at their lattice distance or exits at
    boundary 0 or 1 (rows -1 / 2L-1 for "p", columns for "s"); the class bit
    is the parity of the exits at boundary 0, and a bare logical (weight L)
    flips it.  Independent of the production matcher: recursion over
    pairings, memoized on the anyons still unpaired and the parity so far.
    """
    stabs = layout.z_stabilizers if species == "p" else layout.x_stabilizers
    coords = [stabs[a].coord for a in anyons]
    edge = 2 * layout.L - 1
    axis = 0 if species == "p" else 1
    exits = [((rc[axis] + 1) // 2, (edge - rc[axis]) // 2) for rc in coords]

    @functools.cache
    def rec(unpaired: int, parity: int) -> int:
        if not unpaired:
            return 0 if parity == bit else layout.L
        u = (unpaired & -unpaired).bit_length() - 1
        rest = unpaired & ~(1 << u)
        best = min(exits[u][0] + rec(rest, parity ^ 1), exits[u][1] + rec(rest, parity))
        for v in range(u + 1, len(coords)):
            if rest >> v & 1:
                (r1, c1), (r2, c2) = coords[u], coords[v]
                dist = (abs(r1 - r2) + abs(c1 - c2)) // 2
                best = min(best, dist + rec(rest & ~(1 << v), parity))
        return best

    return rec((1 << len(coords)) - 1, 0)


def reference_metropolis(layout, model, beta, frame, rng, plan):
    """Reference for ``MetropolisChain``: Delta n from ``noise.score_delta`` on
    the whole frame, the chain's RNG draws and its accept test.

    ``plan`` lists calls in order: ``("run", n_steps)``, ``("burn", n_steps)``
    (a run that accumulates nothing) or ``("step",)``.  Returns the final
    (x, z), the cumulative count, the step count and the batch sums.
    """
    delta = score_delta(model)
    stabs = layout.stabilizers
    x, z, n = frame.x, frame.z, error_score(model, frame)
    cumulative, steps, batch_sums = 0, 0, []

    def propose(s, u):
        nonlocal x, z, n
        stab = stabs[s]
        d = delta(x, z, stab.mask, stab.kind == "X")
        if d <= 0 or u < math.exp(-beta * d):
            if stab.kind == "X":
                x ^= stab.mask
            else:
                z ^= stab.mask
            n += d
        return n

    for call in plan:
        if call[0] == "step":
            s = int(rng.integers(0, len(stabs)))
            cumulative += propose(s, float(rng.random()))
            steps += 1
            continue
        n_steps = call[1]
        chunk = max(1024, n_steps // 32)
        done = 0
        while done < n_steps:
            todo = min(chunk, n_steps - done)
            idx = rng.integers(0, len(stabs), size=todo).tolist()
            us = rng.random(size=todo).tolist()
            cum = sum(propose(s, u) for s, u in zip(idx, us))
            done += todo
            if call[0] == "run":
                cumulative += cum
                steps += todo
                batch_sums.append((todo, cum))
    return (x, z), cumulative, steps, batch_sums


def reference_refinement_moves(layout) -> list[tuple[int, bool]]:
    """Stabilizer moves plus logical-translation compounds, as (mask, x_plane),
    in the order the refinement descent tries them.

    The compounds are products of one full stabilizer column (or row); they
    shift a logical-operator line sideways by one step.
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


def reference_refine_frame(layout, model, frame, plateau_budget):
    """Reference for ``matching.refine_frame``: the same breadth-first descent
    with every move's Delta n from ``noise.score_delta`` on the whole frame."""
    delta = score_delta(model)
    weights = qubit_energy_weights(model)
    if plateau_budget <= 0 or not all(map(math.isfinite, weights)):
        return frame
    w_x, _, w_z = weights
    moves = [(mask, x_plane, w_x if x_plane else w_z)
             for mask, x_plane in reference_refinement_moves(layout)]
    # allow excursions one error above the start so equal-weight reroutings
    # separated by a unit barrier are still reached
    ceiling = max(weights) + 1e-12
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
