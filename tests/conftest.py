import functools

import networkx as nx
import numpy as np
import pytest

from surfmc import InfeasibleMatchingError, Matching, build_layout


@pytest.fixture(scope="session")
def layout3():
    return build_layout(3)


@pytest.fixture(scope="session")
def layout4():
    return build_layout(4)


@pytest.fixture(scope="session")
def layout5():
    return build_layout(5)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


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


def networkx_min_weight_perfect_matching(problem) -> Matching:
    """Reference matcher: networkx's blossom on the problem's graph.

    ``surfmc.blossom`` is a port of this solver, with the same vertex and
    neighbour order, so it must return these exact pairs, ties included.
    """
    n = len(problem.vertices)
    if n == 0:
        return Matching((), 0)
    if n % 2:
        raise InfeasibleMatchingError(f"odd vertex count {n}")
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    weight = {}
    for u, v, w in problem.edges:
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
