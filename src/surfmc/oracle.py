"""Brute-force ground truth on small codes.

Enumerates the full stabilizer subgroup (2^n_stab elements) to obtain the
exact weight histogram of an equivalence class, and from it exact partition
functions, Boltzmann averages, and in-class minimum weights.  X-stabilizers
act on the x plane and Z-stabilizers on the z plane only, so the orbit is the
outer product of the subset-XOR tables of the two kinds, and its weights are
popcounts taken as whole numpy arrays.  Restricted to n_stab <= 16; the L = 3
code (2^12 = 4096 deformations per class) is the main use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, _check_anyons
from .geometry import (
    EQUIV_CLASSES,
    CodeLayout,
    EquivalenceClass,
    PauliFrame,
    Syndrome,
)
from .noise import DEPOLARIZING, NoiseModel, beta_bar
from .stats import logsumexp

ENUMERATION_LIMIT = 16


@dataclass(frozen=True)
class ClassOrbit:
    """Weight histogram of one class's full stabilizer orbit."""

    cls: EquivalenceClass
    representative: PauliFrame
    weight_histogram: dict[int, int]

    @property
    def orbit_size(self) -> int:
        return sum(self.weight_histogram.values())

    @property
    def min_weight(self) -> int:
        return min(w for w, c in self.weight_histogram.items() if c)


def _subset_xor(masks: list[int]) -> np.ndarray:
    """XOR of every subset of ``masks``; bit i of the index selects masks[i]."""
    table = np.zeros(1, dtype=np.int64)
    for m in masks:
        table = np.concatenate([table, table ^ m])
    return table


def _popcounts(n_bits: int) -> np.ndarray:
    """Bit counts of 0 .. 2^n_bits - 1."""
    table = np.zeros(1 << n_bits, dtype=np.intp)
    for b in range(n_bits):
        table[1 << b:2 << b] = table[:1 << b] + 1
    return table


@functools.lru_cache(maxsize=16)
def _orbit_tables(layout: CodeLayout) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A layout's side of the enumeration, built once per layout: the
    subset-XOR tables of the X- and Z-stabilizer masks and the popcounts of
    every n_qubits-bit word."""
    return (_subset_xor([s.mask for s in layout.x_stabilizers]),
            _subset_xor([s.mask for s in layout.z_stabilizers]),
            _popcounts(layout.n_qubits))


def enumerate_orbit(layout: CodeLayout, representative: PauliFrame) -> ClassOrbit:
    """Histogram the weights of representative * S over the whole stabilizer group."""
    m = layout.n_stab
    if m > ENUMERATION_LIMIT:
        raise InvalidParameterError(
            f"orbit enumeration is desk-scale only (n_stab <= {ENUMERATION_LIMIT}, got {m})"
        )
    if representative.n_qubits != layout.n_qubits:
        raise InvalidParameterError(
            f"representative has {representative.n_qubits} qubits, "
            f"the layout {layout.n_qubits}"
        )
    x_flips, z_flips, popcounts = _orbit_tables(layout)
    xs = representative.x ^ x_flips
    zs = representative.z ^ z_flips
    weights = popcounts[xs[:, None] | zs[None, :]]
    counts = np.bincount(weights.ravel(), minlength=layout.n_qubits + 1).tolist()
    histogram = {w: c for w, c in enumerate(counts) if c}
    return ClassOrbit(layout.class_of(representative), representative, histogram)


def exact_boltzmann(orbit: ClassOrbit, beta: float) -> tuple[float, float]:
    """Exact (log Z_E, <n>_beta) of the orbit at inverse temperature beta.

    Z is relative (a frame-independent constant is dropped throughout), so at
    beta = 0 it equals the orbit size 2^n_stab.
    """
    weights = np.array(sorted(orbit.weight_histogram), dtype=float)
    counts = np.array([orbit.weight_histogram[int(w)] for w in weights], dtype=float)
    log_terms = -beta * weights + np.log(counts)
    log_z = logsumexp(log_terms)
    probs = np.exp(log_terms - log_z)
    mean_n = float(np.dot(weights, probs))
    return log_z, mean_n


def class_orbits(layout: CodeLayout, syndrome: Syndrome) -> dict[EquivalenceClass, ClassOrbit]:
    """Orbits of all four classes.

    The histogram is representative-invariant, so the representatives are the
    syndrome's pure error (sigma-x from each p-anyon straight up to row -1,
    sigma-z from each s-anyon straight left to column -1) times each of I,
    X_L, Z_L and X_L Z_L.
    """
    _check_anyons("p-anyons", syndrome.p_anyons, len(layout.z_stabilizers))
    _check_anyons("s-anyons", syndrome.s_anyons, len(layout.x_stabilizers))
    index = layout.qubit_index
    x = z = 0
    for a in syndrome.p_anyons:
        r, c = layout.z_stabilizers[a].coord
        x ^= sum(1 << index[(k, c)] for k in range(0, r, 2))
    for a in syndrome.s_anyons:
        r, c = layout.x_stabilizers[a].coord
        z ^= sum(1 << index[(r, k)] for k in range(0, c, 2))
    orbits = (enumerate_orbit(layout, PauliFrame(layout.n_qubits, x ^ lx, z ^ lz))
              for lx in (0, layout.logical_x_mask) for lz in (0, layout.logical_z_mask))
    by_cls = {orbit.cls: orbit for orbit in orbits}
    return {cls: by_cls[cls] for cls in EQUIV_CLASSES}


def exact_class_log_z(
    layout: CodeLayout, syndrome: Syndrome, model: NoiseModel
) -> dict[EquivalenceClass, float]:
    """Exact relative log Z_E(beta_bar) for each class (depolarizing only)."""
    if model.kind != DEPOLARIZING:
        raise InvalidParameterError(
            "the exact oracle is defined for depolarizing noise, where chain "
            f"probability depends on weight alone (got {model.kind!r})"
        )
    bb = beta_bar(model)
    orbits = class_orbits(layout, syndrome)
    return {cls: exact_boltzmann(orbits[cls], bb)[0] for cls in EQUIV_CLASSES}


def exact_class_distribution(
    layout: CodeLayout, syndrome: Syndrome, model: NoiseModel
) -> dict[EquivalenceClass, float]:
    """Exact posterior probability of each class given the syndrome."""
    log_z = exact_class_log_z(layout, syndrome, model)
    shift = max(log_z.values())
    raw = {cls: math.exp(v - shift) for cls, v in log_z.items()}
    total = sum(raw.values())
    return {cls: v / total for cls, v in raw.items()}


def exact_decoder(
    layout: CodeLayout, syndrome: Syndrome, model: NoiseModel
) -> EquivalenceClass:
    """Most probable equivalence class by exhaustive enumeration."""
    log_z = exact_class_log_z(layout, syndrome, model)
    return max(EQUIV_CLASSES, key=lambda c: (log_z[c], -c.index))
