"""Host-speed calibration: a fixed kernel timed between the measured work.

The benchmark host shares its cores with other tenants, and its speed drifts
by a factor of up to 2 in phases that last from seconds to minutes.  Every
end-to-end time metric is therefore scaled to a host of reference speed: a
run times this kernel at checkpoints between its rounds (for the oracle
workload, also every quarter second inside a round) and around each set-up
interpreter, and divides each measured interval by the host's slowdown at
that time, ``kernel time / REFERENCE_S``.

The kernel is a maximum-weight matching of a fixed complete graph on 24
vertices with networkx: pure-Python, allocation-heavy graph code like the
bulk of a surfmc trial.  It does not call surfmc, so a change to surfmc
moves the scaled figures in the same proportion as the raw ones; only the
host's drift is divided out.  The raw figures are printed beside the scaled
ones on standard error.
"""

from __future__ import annotations

import statistics
import time

import networkx as nx
import numpy as np

#: the kernel's time on the reference host (2-vCPU Xeon VM, Python 3.11,
#: networkx 3.6) in a quiet phase; any fixed value would do, it only sets
#: the scale of the scaled figures
REFERENCE_S = 0.0040

#: kernel calls per checkpoint; the median is taken
CALLS = 3


def _graph() -> nx.Graph:
    rng = np.random.default_rng(20130211)
    g = nx.Graph()
    for i in range(24):
        for j in range(i + 1, 24):
            g.add_edge(i, j, weight=int(rng.integers(1, 50)))
    return g


_GRAPH = _graph()


def kernel() -> int:
    return len(nx.max_weight_matching(_GRAPH, maxcardinality=True))


def slowdown() -> float:
    """The host's current slowdown against the reference (1.0 = reference)."""
    times = []
    for _ in range(CALLS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / REFERENCE_S
