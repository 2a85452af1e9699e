"""Exact minimum-weight matching: the primal-dual blossom algorithm on dense
integer weights.

A port of networkx 3.6's ``min_weight_matching`` / ``max_weight_matching``,
which is J. van Rantwijk's implementation of the O(n^3) algorithm in Z. Galil,
"Efficient algorithms for finding maximum matching in graphs", ACM Computing
Surveys 18 (1986), after J. Edmonds.  The algorithm, its stages and its scan
order are unchanged; the state moved from dicts keyed by nodes and blossom
objects to lists indexed by integers (blossoms take ids after the vertices and
are recycled when expanded), edge slacks read a dense weight matrix, allowed
edges carry a per-stage stamp, and the recursive expansions are plain
recursion instead of a trampoline.  The vertex order (first appearance in the
inverted graph's edge list) and every neighbour list keep networkx's order, so
ties are decided as networkx decides them and the same matching comes out.
The optimality certificate is kept and checked on every solve: a violated
condition raises ``DecoderInternalError``.

There are two entries into the one solver core (``_max_weight_matching``,
which takes twice the inverted weights as a dense matrix and one neighbour
list per vertex).  ``min_weight_matching`` takes an edge list and converts it,
as networkx would, into vertex order, neighbour lists and inverted weights.
``dense_min_weight_matching`` takes the weight matrix of a complete graph,
which is every graph the decoders solve; inverting it takes a few numpy
operations, and its neighbour lists are the ascending ones, cached per vertex
count.  A complete graph whose edges are listed in ascending order has
exactly that vertex order and those neighbour lists, so both entries return
the same matching on it.

networkx is distributed under the 3-clause BSD licence:

   Copyright (c) 2004-2025, NetworkX Developers
   Aric Hagberg <hagberg@lanl.gov>
   Dan Schult <dschult@colgate.edu>
   Pieter Swart <swart@lanl.gov>
   All rights reserved.

   Redistribution and use in source and binary forms, with or without
   modification, are permitted provided that the following conditions are
   met:

     * Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

     * Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

     * Neither the name of the NetworkX Developers nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

   THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
   "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
   LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
   A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
   OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
   SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
   LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
   DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
   THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
   (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
   OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Sequence

import numpy as np

from .errors import DecoderInternalError


def min_weight_matching(
    n: int, edges: Iterable[tuple[int, int, int]]
) -> tuple[list[tuple[int, int]], int]:
    """Minimum-weight maximum-cardinality matching of a graph on vertices
    ``0 .. n-1`` with integer edge weights.

    Returns the matched pairs ``(u, v)``, ``u < v``, in sorted order, and
    their total weight.  A repeated edge keeps its first position and its
    last weight.  As in networkx, the weights are inverted (``1 + max - w``)
    and a maximum-weight maximum-cardinality matching is solved on the
    inverted graph, whose vertices are numbered in order of first appearance
    and whose neighbour lists follow the edge order.
    """
    nbrs: list[dict[int, int]] = [{} for _ in range(n)]
    for u, v, w in edges:
        nbrs[u][v] = w
        nbrs[v][u] = w
    if not any(nbrs):
        return [], 0
    top = 1 + max(max(adj.values()) for adj in nbrs if adj)

    order: list[int] = []  # original vertex of each solver vertex
    index = [-1] * n
    inverted: list[tuple[int, int, int]] = []
    for u in range(n):
        for v, w in nbrs[u].items():
            if v < u:
                continue  # listed when v was scanned
            if index[u] < 0:
                index[u] = len(order)
                order.append(u)
            if index[v] < 0:
                index[v] = len(order)
                order.append(v)
            if u != v:  # self-loops never join a matching
                inverted.append((index[u], index[v], top - w))

    nv = len(order)
    adj: list[list[int]] = [[] for _ in range(nv)]
    # 2 * weight, so that 2 * slack(v, w) = dualvar[v] + dualvar[w] - w2[v][w]
    w2 = [[0] * nv for _ in range(nv)]
    for i, j, wt in inverted:
        adj[i].append(j)
        adj[j].append(i)
        w2[i][j] = w2[j][i] = 2 * wt
    mate = _max_weight_matching(
        w2, adj, max((wt for _, _, wt in inverted), default=0), inverted
    )
    pairs = sorted(
        (min(order[a], order[b]), max(order[a], order[b]))
        for a, b in enumerate(mate)
        if a < b
    )
    return pairs, sum(nbrs[u][v] for u, v in pairs)


def dense_min_weight_matching(weights: np.ndarray) -> tuple[list[tuple[int, int]], int]:
    """``min_weight_matching`` of the complete graph whose edge ``(u, v)``
    weighs ``weights[u, v]``, for a symmetric integer matrix (the diagonal is
    ignored).

    The same solver on the same inverted weights, without the edge list: the
    complete graph listed edge by edge in ascending order numbers its
    vertices in index order and gives every vertex its other vertices in
    ascending order, so the cached ascending neighbour lists reproduce that
    scan order, and ties fall as on the edge list.
    """
    nv = len(weights)
    if nv < 2:
        return [], 0
    weights = np.asarray(weights, dtype=np.int64)  # 2 * weight must not wrap
    adj, rows, cols, edge_ends = _complete_graph(nv)
    top = int(weights[rows, cols].max()) + 1
    inverted = top - weights  # the diagonal is never read
    edge_weights = inverted[rows, cols]
    mate = _max_weight_matching(
        (2 * inverted).tolist(), adj, int(edge_weights.max()),
        zip(*edge_ends, edge_weights.tolist()),
    )
    pairs = [(a, b) for a, b in enumerate(mate) if a < b]
    return pairs, sum(top - int(inverted[a, b]) for a, b in pairs)


@functools.lru_cache(maxsize=128)
def _complete_graph(nv: int) -> tuple:
    """The complete graph on ``nv`` vertices: ascending neighbour lists, the
    edges' ends as index arrays, and the same ends as lists."""
    adj = tuple(tuple(w for w in range(nv) if w != v) for v in range(nv))
    rows, cols = np.triu_indices(nv, 1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return adj, rows, cols, (tuple(rows.tolist()), tuple(cols.tolist()))


def _max_weight_matching(
    w2: list[list[int]],
    adj: Sequence[Sequence[int]],
    maxweight: int,
    edges: Iterable[tuple[int, int, int]],
) -> list[int]:
    """networkx's ``max_weight_matching(G, maxcardinality=True)``.

    ``adj[v]`` lists v's neighbours (no self-loops) in the order networkx
    would scan them, ``w2[v][w]`` is twice the weight of edge (v, w),
    ``maxweight`` the largest edge weight, and ``edges`` lists every edge as
    ``(v, w, weight)`` once, for the optimality certificate, which is
    checked on every call.  Returns ``mate``, with ``-1`` for a single
    vertex.
    """
    nv = len(adj)

    # Ids 0 .. nv-1 are vertices, nv .. 2nv-1 non-trivial blossoms (at most
    # (nv - 1) / 2 exist at a time).  An id >= nv is a blossom.
    nb = 2 * nv
    free_ids = list(range(nb - 1, nv - 1, -1))

    # mate[v] is v's partner, or -1 while v is single.
    mate = [-1] * nv
    # label[b] of a top-level blossom: 0 free, 1 S, 2 T (5 = S with a
    # breadcrumb during scan_blossom).  label[w] == 2 of a vertex inside a
    # T-blossom means w is reachable from an S-vertex outside the blossom.
    label = [0] * nb
    # labeledge[b] = (v, w): the edge through which b got its label (w in b),
    # or None if b's base is single.
    labeledge: list[tuple[int, int] | None] = [None] * nb
    # inblossom[v]: the top-level blossom containing vertex v.
    inblossom = list(range(nv))
    # blossomparent[b]: the parent (sub-)blossom, or -1 at top level.
    blossomparent = [-1] * nb
    # blossombase[b]: the base vertex of (sub-)blossom b.
    blossombase = list(range(nv)) + [-1] * nv
    # bestedge[w] of a free vertex: least-slack edge from an S-vertex;
    # bestedge[b] of a top-level S-blossom: least-slack edge to another one.
    bestedge: list[tuple[int, int] | None] = [None] * nb
    # dualvar[v] = 2 u(v); initially u(v) = maxweight / 2.
    dualvar = [maxweight] * nv
    # blossomdual[b] = z(b) of each live blossom, in creation order: the
    # order networkx's dicts keep, which decides ties between deltas.
    blossomdual: dict[int, int] = {}
    # childs[b]: sub-blossoms from the base round the cycle; bedges[b][i] is
    # the edge (v, w) from childs[b][i] to childs[b][i + 1].
    childs: list[list[int]] = [[] for _ in range(nb)]
    bedges: list[list[tuple[int, int]]] = [[] for _ in range(nb)]
    # mybestedges[b] of a top-level S-blossom: least-slack edges to
    # neighbouring S-blossoms, or None when not computed.
    mybestedges: list[list[tuple[int, int]] | None] = [None] * nb
    # allowed[v][w] == stamp: edge (v, w) is known to have zero slack this
    # stage.
    allowed = [[0] * nv for _ in range(nv)]
    stamp = 0
    # newly discovered S-vertices
    queue: list[int] = []

    def leaves(b: int) -> list[int]:
        out = []
        stack = childs[b][:]
        while stack:
            t = stack.pop()
            if t >= nv:
                stack.extend(childs[t])
            else:
                out.append(t)
        return out

    def assign_label(w: int, t: int, v: int | None) -> None:
        # Label the top-level blossom of w with t, reached from v.
        b = inblossom[w]
        label[w] = label[b] = t
        labeledge[w] = labeledge[b] = None if v is None else (v, w)
        bestedge[w] = bestedge[b] = None
        if t == 1:
            if b >= nv:
                queue.extend(leaves(b))
            else:
                queue.append(b)
        else:
            # T: label its mate (the base's mate) S.
            base = blossombase[b]
            assign_label(mate[base], 1, base)

    def scan_blossom(v: int, w: int) -> int:
        # Trace back from v and w; return the base of a new blossom, or -1
        # if an augmenting path was found.
        path = []
        base = -1
        while v != -1:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            path.append(b)
            label[b] = 5
            if labeledge[b] is None:
                v = -1  # b's base is single
            else:
                v = labeledge[b][0]
                b = inblossom[v]
                v = labeledge[b][0]  # b is a T-blossom
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base: int, v: int, w: int) -> None:
        # New S-blossom with the given base, closed by edge (v, w).
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = free_ids.pop()
        blossombase[b] = base
        blossomparent[b] = -1
        blossomparent[bb] = b
        childs[b] = path = []
        bedges[b] = edgs = [(v, w)]
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            v = labeledge[bv][0]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        edgs.reverse()
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            edgs.append((labeledge[bw][1], labeledge[bw][0]))
            w = labeledge[bw][0]
            bw = inblossom[w]
        label[b] = 1
        labeledge[b] = labeledge[bb]
        blossomdual[b] = 0
        for v in leaves(b):
            if label[inblossom[v]] == 2:
                queue.append(v)  # a T-vertex turns S
            inblossom[v] = b
        bestedgeto: dict[int, tuple[int, int]] = {}
        for bv in path:
            if bv >= nv:
                if mybestedges[bv] is not None:
                    nblist = mybestedges[bv]
                    mybestedges[bv] = None
                else:
                    nblist = [(v, w) for v in leaves(bv) for w in adj[v]]
            else:
                nblist = [(bv, w) for w in adj[bv]]
            for k in nblist:
                i, j = k
                if inblossom[j] == b:
                    i, j = j, i
                bj = inblossom[j]
                if bj != b and label[bj] == 1:
                    best = bestedgeto.get(bj)
                    if best is None or (
                        dualvar[i] + dualvar[j] - w2[i][j]
                        < dualvar[best[0]] + dualvar[best[1]] - w2[best[0]][best[1]]
                    ):
                        bestedgeto[bj] = k
            bestedge[bv] = None
        mybestedges[b] = list(bestedgeto.values())
        mybestedge = None
        mybestslack = 0
        for k in mybestedges[b]:
            kslack = dualvar[k[0]] + dualvar[k[1]] - w2[k[0]][k[1]]
            if mybestedge is None or kslack < mybestslack:
                mybestedge = k
                mybestslack = kslack
        bestedge[b] = mybestedge

    def expand_blossom(b: int, endstage: bool) -> None:
        ch = childs[b]
        for s in ch:
            blossomparent[s] = -1
            if s >= nv:
                if endstage and blossomdual[s] == 0:
                    expand_blossom(s, endstage)
                else:
                    for v in leaves(s):
                        inblossom[v] = s
            else:
                inblossom[s] = s
        if not endstage and label[b] == 2:
            # Relabel the sub-blossoms of an expanding T-blossom, from the
            # one through which it got its label round to the base.
            ed = bedges[b]
            entrychild = inblossom[labeledge[b][1]]
            j = ch.index(entrychild)
            if j & 1:
                j -= len(ch)  # odd: go forward and wrap
                jstep = 1
            else:
                jstep = -1  # even: go backward
            v, w = labeledge[b]
            while j != 0:
                if jstep == 1:
                    p, q = ed[j]
                else:
                    q, p = ed[j - 1]
                label[w] = 0
                label[q] = 0
                assign_label(w, 2, v)
                allowed[p][q] = allowed[q][p] = stamp
                j += jstep
                if jstep == 1:
                    v, w = ed[j]
                else:
                    w, v = ed[j - 1]
                allowed[v][w] = allowed[w][v] = stamp
                j += jstep
            # the base sub-blossom becomes T without labelling its mate
            bw = ch[j]
            label[w] = label[bw] = 2
            labeledge[w] = labeledge[bw] = (v, w)
            bestedge[bw] = None
            j += jstep
            while ch[j] != entrychild:
                # A sub-blossom reached from an S-vertex outside becomes T.
                bv = ch[j]
                if label[bv] == 1:
                    j += jstep
                    continue
                if bv >= nv:
                    for v in leaves(bv):
                        if label[v]:
                            break
                else:
                    v = bv
                if label[v]:
                    label[v] = 0
                    label[mate[blossombase[bv]]] = 0
                    assign_label(v, 2, labeledge[v][0])
                j += jstep
        label[b] = 0
        labeledge[b] = None
        bestedge[b] = None
        mybestedges[b] = None
        blossomparent[b] = -1
        blossombase[b] = -1
        del blossomdual[b]
        free_ids.append(b)

    def augment_blossom(b: int, v: int) -> None:
        # Swap matched and unmatched edges on the path from v to b's base.
        t = v
        while blossomparent[t] != b:
            t = blossomparent[t]
        if t >= nv:
            augment_blossom(t, v)
        ch = childs[b]
        ed = bedges[b]
        i = j = ch.index(t)
        if i & 1:
            j -= len(ch)
            jstep = 1
        else:
            jstep = -1
        while j != 0:
            j += jstep
            t = ch[j]
            if jstep == 1:
                w, x = ed[j]
            else:
                x, w = ed[j - 1]
            if t >= nv:
                augment_blossom(t, w)
            j += jstep
            t = ch[j]
            if t >= nv:
                augment_blossom(t, x)
            mate[w] = x
            mate[x] = w
        # rotate so that the new base comes first
        childs[b] = ch[i:] + ch[:i]
        bedges[b] = ed[i:] + ed[:i]
        blossombase[b] = blossombase[childs[b][0]]

    def augment_matching(v: int, w: int) -> None:
        # Augment along the path through S-vertices v and w.
        for s, j in ((v, w), (w, v)):
            while True:
                bs = inblossom[s]
                if bs >= nv:
                    augment_blossom(bs, s)
                mate[s] = j
                if labeledge[bs] is None:
                    break  # reached a single vertex
                t = labeledge[bs][0]
                bt = inblossom[t]
                s, j = labeledge[bt]
                if bt >= nv:
                    augment_blossom(bt, j)
                mate[j] = s

    zeros = [0] * nb
    nones = [None] * nb
    while True:
        # A stage: find one augmenting path.
        label[:] = zeros
        labeledge[:] = nones
        bestedge[:] = nones
        for b in blossomdual:
            mybestedges[b] = None
        stamp += 1
        queue.clear()
        for v in range(nv):
            if mate[v] == -1 and label[inblossom[v]] == 0:
                assign_label(v, 1, None)

        augmented = False
        while True:
            # A substage: label along tight edges, else adjust the duals.
            while queue and not augmented:
                v = queue.pop()
                dv = dualvar[v]
                w2v = w2[v]
                allowv = allowed[v]
                for w in adj[v]:
                    bv = inblossom[v]
                    bw = inblossom[w]
                    if bv == bw:
                        continue  # internal to a blossom
                    if allowv[w] != stamp:
                        kslack = dv + dualvar[w] - w2v[w]
                        if kslack <= 0:
                            allowv[w] = allowed[w][v] = stamp
                    if allowv[w] == stamp:
                        if label[bw] == 0:
                            # (C1) w is free: label it T and its mate S
                            assign_label(w, 2, v)
                        elif label[bw] == 1:
                            # (C2) w is an S-vertex: a blossom or a path
                            base = scan_blossom(v, w)
                            if base != -1:
                                add_blossom(base, v, w)
                            else:
                                augment_matching(v, w)
                                augmented = True
                                break
                        elif label[w] == 0:
                            # w is inside a T-blossom and not reached yet
                            label[w] = 2
                            labeledge[w] = (v, w)
                    elif label[bw] == 1:
                        best = bestedge[bv]
                        if best is None or kslack < (
                            dualvar[best[0]] + dualvar[best[1]] - w2[best[0]][best[1]]
                        ):
                            bestedge[bv] = (v, w)
                    elif label[w] == 0:
                        best = bestedge[w]
                        if best is None or kslack < (
                            dualvar[best[0]] + dualvar[best[1]] - w2[best[0]][best[1]]
                        ):
                            bestedge[w] = (v, w)
            if augmented:
                break

            # No augmenting path on tight edges: take the least delta (all
            # pre-multiplied by two).  Max-cardinality has no delta1.
            deltatype = -1
            delta = 0
            deltaedge = None
            deltablossom = -1
            # delta2: least slack from an S-vertex to a free vertex
            for v in range(nv):
                best = bestedge[v]
                if label[inblossom[v]] == 0 and best is not None:
                    d = dualvar[best[0]] + dualvar[best[1]] - w2[best[0]][best[1]]
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 2
                        deltaedge = best
            # delta3: half the least slack between two S-blossoms; vertices
            # first, then blossoms in creation order
            for ids in (range(nv), blossomdual):
                for b in ids:
                    best = bestedge[b]
                    if blossomparent[b] == -1 and label[b] == 1 and best is not None:
                        d = (dualvar[best[0]] + dualvar[best[1]] - w2[best[0]][best[1]]) // 2
                        if deltatype == -1 or d < delta:
                            delta = d
                            deltatype = 3
                            deltaedge = best
            # delta4: least z of a T-blossom
            for b, z in blossomdual.items():
                if (
                    blossomparent[b] == -1
                    and label[b] == 2
                    and (deltatype == -1 or z < delta)
                ):
                    delta = z
                    deltatype = 4
                    deltablossom = b
            if deltatype == -1:
                # Optimum reached; a last update makes it verifiable.
                deltatype = 1
                delta = max(0, min(dualvar))

            for v in range(nv):
                lb = label[inblossom[v]]
                if lb == 1:
                    dualvar[v] -= delta
                elif lb == 2:
                    dualvar[v] += delta
            for b in blossomdual:
                if blossomparent[b] == -1:
                    if label[b] == 1:
                        blossomdual[b] += delta
                    elif label[b] == 2:
                        blossomdual[b] -= delta

            if deltatype == 1:
                break
            if deltatype == 4:
                expand_blossom(deltablossom, False)
            else:
                v, w = deltaedge
                allowed[v][w] = allowed[w][v] = stamp
                queue.append(v)

        if not augmented:
            break
        # End of a stage: expand the S-blossoms whose dual fell to zero.
        for b in list(blossomdual):
            if b in blossomdual and blossomparent[b] == -1 and label[b] == 1 and blossomdual[b] == 0:
                expand_blossom(b, True)

    verify_optimum(edges, mate, dualvar, blossomparent, blossomdual, bedges)
    return mate


def verify_optimum(
    edges: Iterable[tuple[int, int, int]],
    mate: Sequence[int],
    dualvar: Sequence[int],
    blossomparent: Sequence[int],
    blossomdual: dict[int, int],
    bedges: Sequence[Sequence[tuple[int, int]]],
) -> None:
    """Optimality certificate of a maximum-weight maximum-cardinality
    matching (networkx's ``verifyOptimum``).

    ``edges`` are ``(v, w, weight)`` without self-loops, ``mate[v]`` is -1
    for a single vertex, ``dualvar`` holds 2 u(v), ``blossomparent`` maps each
    vertex and blossom id to its parent (-1 at top level), ``blossomdual``
    holds z(b) of every blossom and ``bedges[b]`` its cycle edges.  Raises
    ``DecoderInternalError`` if a dual is negative, an edge has negative
    slack, a matched edge has positive slack, a single vertex has a non-zero
    dual, or a blossom with positive dual is not full.
    """
    vdualoffset = max(0, -min(dualvar))  # vertex duals may be negative
    if any(z < 0 for z in blossomdual.values()):
        raise DecoderInternalError("blossom: negative blossom dual")
    for i, j, wt in edges:
        s = dualvar[i] + dualvar[j] - 2 * wt
        if blossomparent[i] != -1 and blossomparent[j] != -1:
            # add the duals of the blossoms that contain both ends
            iblossoms = [i]
            jblossoms = [j]
            while blossomparent[iblossoms[-1]] != -1:
                iblossoms.append(blossomparent[iblossoms[-1]])
            while blossomparent[jblossoms[-1]] != -1:
                jblossoms.append(blossomparent[jblossoms[-1]])
            for bi, bj in zip(reversed(iblossoms), reversed(jblossoms)):
                if bi != bj:
                    break
                s += 2 * blossomdual[bi]
        if s < 0:
            raise DecoderInternalError(f"blossom: edge ({i}, {j}) has negative slack")
        if mate[i] == j or mate[j] == i:
            if mate[i] != j or mate[j] != i or s != 0:
                raise DecoderInternalError(f"blossom: matched edge ({i}, {j}) is not tight")
    for v, m in enumerate(mate):
        if m == -1 and dualvar[v] + vdualoffset != 0:
            raise DecoderInternalError(f"blossom: single vertex {v} has a non-zero dual")
        if m != -1 and mate[m] != v:
            raise DecoderInternalError(f"blossom: mate of {v} is not symmetric")
    for b, z in blossomdual.items():
        if z > 0:
            ed = bedges[b]
            if len(ed) % 2 != 1 or any(mate[i] != j or mate[j] != i for i, j in ed[1::2]):
                raise DecoderInternalError(f"blossom: blossom {b} has a positive dual but is not full")
