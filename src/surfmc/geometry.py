"""Planar surface-code lattice: qubits, stabilizers, logicals, equivalence classes.

Coordinate scheme (one integer grid for everything):

* data qubits sit at points ``(r, c)`` with ``0 <= r, c <= 2L-2`` and ``r + c`` even;
* Z-stabilizers sit at ``(odd r, even c)``, X-stabilizers at ``(even r, odd c)``;
* each stabilizer acts on the grid-adjacent qubits ``(r±1, c), (r, c±1)``,
  clipped at the grid edge (3-qubit stabilizers on the boundary rows/columns).

Violated Z-stabilizers ("p-anyons", created by bit flips) are absorbed at the
virtual rows ``r = -1`` and ``r = 2L-1``; violated X-stabilizers ("s-anyons",
created by phase flips) at the virtual columns ``c = -1`` and ``c = 2L-1``.
This is a 90-degree-rotated but isomorphic version of the usual convention
that places the s-anyon boundaries on top/bottom.

Reference logicals: ``X_L`` is sigma-x on every qubit of column ``c = 0`` and
``Z_L`` is sigma-z on every qubit of row ``r = 0``; they cross at qubit (0, 0).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import InvalidParameterError, _check_count

Coord = tuple[int, int]


@dataclass(frozen=True)
class EquivalenceClass:
    """One of the four logical classes, labelled by two parity bits.

    ``bit_h`` is the parity of the frame's Z-component over the support of the
    reference logical X (it detects Z_L-ness), ``bit_v`` the parity of the
    X-component over the reference logical Z (detects X_L-ness).  The group
    law is bitwise XOR (Z2 x Z2).
    """

    bit_h: int
    bit_v: int

    def __xor__(self, other: "EquivalenceClass") -> "EquivalenceClass":
        return EQUIV_CLASSES[(self.index ^ other.index)]

    @property
    def index(self) -> int:
        return (self.bit_h << 1) | self.bit_v

    @property
    def label(self) -> str:
        return ("I", "X", "Z", "Y")[self.index]

    def __repr__(self) -> str:
        return f"EquivalenceClass({self.label})"


#: The four classes in fixed tie-break priority order: I < X < Z < Y.
EQUIV_CLASSES: tuple[EquivalenceClass, ...] = (
    EquivalenceClass(0, 0),
    EquivalenceClass(0, 1),
    EquivalenceClass(1, 0),
    EquivalenceClass(1, 1),
)

CLASS_I, CLASS_X, CLASS_Z, CLASS_Y = EQUIV_CLASSES


@dataclass(frozen=True, slots=True)
class PauliFrame:
    """Per-qubit Pauli assignment, bit-packed as two integer bit-planes.

    Bit ``q`` of ``x`` is set iff qubit ``q`` carries an X-component, bit ``q``
    of ``z`` iff it carries a Z-component (both set = sigma-y).  Integers act
    as arbitrarily wide bit vectors, so stabilizer application is a single XOR
    and weights are single popcounts.  A frame is an immutable value: every
    operation returns a new one, so frames are shared freely and never copied.
    """

    n_qubits: int
    x: int = 0
    z: int = 0

    def weight(self) -> int:
        """Number of qubits carrying a non-identity Pauli (sigma-y counts once)."""
        return (self.x | self.z).bit_count()

    def __mul__(self, other: "PauliFrame") -> "PauliFrame":
        """Pauli product, phases dropped (XOR of the bit-planes)."""
        return PauliFrame(self.n_qubits, self.x ^ other.x, self.z ^ other.z)

    def pauli_at(self, q: int) -> str:
        xb = (self.x >> q) & 1
        zb = (self.z >> q) & 1
        return ("I", "X", "Z", "Y")[xb | (zb << 1)]

    @classmethod
    def from_paulis(cls, n_qubits: int, paulis: dict[int, str]) -> "PauliFrame":
        """The frame with Pauli ``paulis[q]`` (one of I, X, Y, Z) on each qubit q."""
        x = z = 0
        for q, p in paulis.items():
            _check_count("qubit", q, 0, high=n_qubits - 1)
            if p not in ("I", "X", "Y", "Z"):
                raise InvalidParameterError(f"a Pauli must be I, X, Y or Z, got {p!r}")
            x |= (p in ("X", "Y")) << int(q)
            z |= (p in ("Z", "Y")) << int(q)
        return cls(n_qubits, x, z)

    def __repr__(self) -> str:
        support = {q: self.pauli_at(q) for q in range(self.n_qubits) if self.pauli_at(q) != "I"}
        return f"PauliFrame({support})"


@dataclass(frozen=True)
class Stabilizer:
    """One parity check: a sigma-x or sigma-z product on 3 or 4 adjacent qubits."""

    index: int            # position in CodeLayout.stabilizers
    species_index: int    # position within its own kind's list
    kind: str             # "X" or "Z"
    coord: Coord
    qubits: tuple[int, ...]
    mask: int             # bitmask over qubit indices


@dataclass(frozen=True)
class Syndrome:
    """Violated stabilizers: indices into the per-species stabilizer lists."""

    p_anyons: tuple[int, ...]  # violated Z-stabilizers (bit-flip endpoints)
    s_anyons: tuple[int, ...]  # violated X-stabilizers (phase-flip endpoints)

    @property
    def is_empty(self) -> bool:
        return not self.p_anyons and not self.s_anyons


class _ShiftRule(NamedTuple):
    """The layout's constants of the shift-and-XOR check parities: bit masks
    over qubit indices, and each site bit's species index."""

    qubits: int        # every qubit of the layout
    z_sites: int       # each Z check's top qubit (r - 1, c)
    z_left: int        # the Z sites with a qubit at (r, c - 1)
    z_right: int       # the Z sites with a qubit at (r, c + 1)
    x_sites: int       # each X check's left qubit (r, c - 1), plus L - 1
    z_index: list[int | None]  # site bit -> species index
    x_index: list[int | None]


def _set_bits(bits: int, index: list[int | None]) -> tuple[int, ...]:
    """``index`` of every set bit of ``bits``, lowest bit first."""
    out = []
    while bits:
        top = bits.bit_length() - 1
        out.append(index[top])
        bits ^= 1 << top
    out.reverse()
    return tuple(out)


@dataclass(frozen=True)
class CodeLayout:
    """Distance-L planar surface code: immutable once built, shareable read-only.

    Equal layouts have one L, and a layout hashes as its L."""

    L: int
    qubit_coords: tuple[Coord, ...]
    qubit_index: dict[Coord, int] = field(repr=False)
    z_stabilizers: tuple[Stabilizer, ...] = field(repr=False)
    x_stabilizers: tuple[Stabilizer, ...] = field(repr=False)
    stabilizers: tuple[Stabilizer, ...] = field(repr=False)  # Z block then X block
    logical_x_mask: int = field(repr=False)  # sigma-x on column c=0 (reference X_L)
    logical_z_mask: int = field(repr=False)  # sigma-z on row r=0 (reference Z_L)
    _shift_rule: _ShiftRule = field(repr=False, compare=False)

    @property
    def n_qubits(self) -> int:
        return len(self.qubit_coords)

    @property
    def n_stab(self) -> int:
        return len(self.stabilizers)

    @property
    def span(self) -> int:
        """Largest grid coordinate (2L - 2)."""
        return 2 * self.L - 2

    def identity_frame(self) -> PauliFrame:
        return PauliFrame(self.n_qubits)

    def check_parities(self, frame: PauliFrame) -> tuple[int, int]:
        """The parity of every Z check over the frame's x plane and of every X
        check over its z plane, each at its site bit (``syndrome_of``).

        Qubits are numbered row by row, 2L - 1 to a pair of rows, so a check's
        support lies at fixed index offsets from its site bit, and one shift
        per offset XORs every check's support bits onto its site at once.  A
        Z check's site is its top qubit q; its others are q + L - 1 (left,
        absent in column c = 0), q + L (right, absent in the last column) and
        q + 2L - 1 (bottom), so the two side shifts are masked to the checks
        that have that qubit.  An X check's site is its left qubit's index
        plus L - 1: its left and right qubits are L - 1 and L - 2 indices
        lower, the qubit under it one index higher and the qubit over it
        2L - 2 lower.  The missing qubits of the top and bottom rows fall
        outside the frame's bits, so the X rule needs no mask.
        """
        L = self.L
        qubits, z_sites, z_left, z_right, x_sites, _, _ = self._shift_rule
        x = frame.x & qubits
        z = frame.z & qubits
        z_checks = (x ^ (x >> (L - 1) & z_left) ^ (x >> L & z_right) ^ x >> (2 * L - 1)) & z_sites
        x_checks = (z << (L - 1) ^ z << (L - 2) ^ z >> 1 ^ z << (2 * L - 2)) & x_sites
        return z_checks, x_checks

    def syndrome_of(self, frame: PauliFrame) -> Syndrome:
        """Stabilizers that anticommute with the frame.

        A Z-stabilizer is flagged iff the frame's X-component overlaps its
        support an odd number of times, and vice versa.  The parities come
        from ``check_parities``, a few shifts and XORs over the whole frame,
        and only the flagged checks are looked up.
        """
        z_checks, x_checks = self.check_parities(frame)
        rule = self._shift_rule
        return Syndrome(_set_bits(z_checks, rule.z_index), _set_bits(x_checks, rule.x_index))

    def syndrome_bits(self, frame: PauliFrame) -> int:
        """``syndrome_of`` packed as a bitmask over global stabilizer indices
        (spacetime use): Z anyons at their own index, X anyons after the Z
        block."""
        syndrome, offset = self.syndrome_of(frame), len(self.z_stabilizers)
        return (sum(1 << a for a in syndrome.p_anyons)
                + sum(1 << offset + a for a in syndrome.s_anyons))

    def apply_stabilizer(self, frame: PauliFrame, stab: Stabilizer) -> PauliFrame:
        """Frame multiplied by the stabilizer; syndrome and class are unchanged."""
        if stab.kind == "X":
            return PauliFrame(frame.n_qubits, frame.x ^ stab.mask, frame.z)
        return PauliFrame(frame.n_qubits, frame.x, frame.z ^ stab.mask)

    def class_of(self, frame: PauliFrame) -> EquivalenceClass:
        """Equivalence class of a frame; frames with equal syndrome are
        stabilizer-equivalent iff their classes agree."""
        bit_h = (frame.z & self.logical_x_mask).bit_count() & 1
        bit_v = (frame.x & self.logical_z_mask).bit_count() & 1
        return EQUIV_CLASSES[(bit_h << 1) | bit_v]

    def logical_x_frame(self) -> PauliFrame:
        return PauliFrame(self.n_qubits, self.logical_x_mask, 0)

    def logical_z_frame(self) -> PauliFrame:
        return PauliFrame(self.n_qubits, 0, self.logical_z_mask)

    def __hash__(self) -> int:
        # an L fixes every field; tables derived from a layout are cached on it
        return hash(self.L)

    def dump_text(self) -> str:
        """Line-oriented debug dump, stable (r, c) ordering."""
        lines = [f"layout L={self.L} qubits={self.n_qubits} stabilizers={self.n_stab}"]
        for i, (r, c) in enumerate(self.qubit_coords):
            lines.append(f"qubit {i} ({r},{c})")
        for s in self.stabilizers:
            qs = ",".join(str(q) for q in s.qubits)
            lines.append(f"stab {s.index} {s.kind} ({s.coord[0]},{s.coord[1]}) qubits={qs}")
        return "\n".join(lines) + "\n"


def build_layout(L: int) -> CodeLayout:
    """Build the distance-L planar layout (L >= 2).

    Produces L^2 + (L-1)^2 qubits and 2L(L-1) stabilizers, split equally
    between the two kinds.  Layouts are cached by L, so every caller of one
    distance shares one layout and the tables derived from it.
    """
    _check_count("code distance", L, 2)
    return _build_layout(int(L))  # keep a numpy integer out of the layout's sizes


@functools.lru_cache(maxsize=16)
def _build_layout(L: int) -> CodeLayout:
    span = 2 * L - 2
    qubit_coords = tuple(
        (r, c)
        for r in range(span + 1)
        for c in range(span + 1)
        if (r + c) % 2 == 0
    )
    qubit_index = {rc: i for i, rc in enumerate(qubit_coords)}

    def make_stab(index: int, species_index: int, kind: str, r: int, c: int) -> Stabilizer:
        qs = []
        for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 0 <= rr <= span and 0 <= cc <= span:
                qs.append(qubit_index[(rr, cc)])
        qs.sort()
        mask = 0
        for q in qs:
            mask |= 1 << q
        return Stabilizer(index, species_index, kind, (r, c), tuple(qs), mask)

    z_stabs = []
    for r in range(1, span, 2):
        for c in range(0, span + 1, 2):
            z_stabs.append(make_stab(len(z_stabs), len(z_stabs), "Z", r, c))
    x_stabs = []
    for r in range(0, span + 1, 2):
        for c in range(1, span, 2):
            x_stabs.append(
                make_stab(len(z_stabs) + len(x_stabs), len(x_stabs), "X", r, c)
            )

    logical_x_mask = 0
    for r in range(0, span + 1, 2):
        logical_x_mask |= 1 << qubit_index[(r, 0)]
    logical_z_mask = 0
    for c in range(0, span + 1, 2):
        logical_z_mask |= 1 << qubit_index[(0, c)]

    # the sites of the shift rule (``CodeLayout.check_parities``): a Z check's
    # top qubit, an X check's left qubit plus L - 1
    z_site = [qubit_index[(s.coord[0] - 1, s.coord[1])] for s in z_stabs]
    x_site = [qubit_index[(s.coord[0], s.coord[1] - 1)] + L - 1 for s in x_stabs]

    def mask(bits) -> int:
        return sum(1 << b for b in bits)

    def species(sites: list[int]) -> list[int | None]:
        index: list[int | None] = [None] * (max(sites) + 1)
        for i, b in enumerate(sites):
            index[b] = i
        return index

    shift_rule = _ShiftRule(
        qubits=(1 << len(qubit_coords)) - 1,
        z_sites=mask(z_site),
        z_left=mask(b for b, s in zip(z_site, z_stabs) if s.coord[1] > 0),
        z_right=mask(b for b, s in zip(z_site, z_stabs) if s.coord[1] < span),
        x_sites=mask(x_site),
        z_index=species(z_site),
        x_index=species(x_site),
    )

    return CodeLayout(
        L=L,
        qubit_coords=qubit_coords,
        qubit_index=qubit_index,
        z_stabilizers=tuple(z_stabs),
        x_stabilizers=tuple(x_stabs),
        stabilizers=tuple(z_stabs) + tuple(x_stabs),
        logical_x_mask=logical_x_mask,
        logical_z_mask=logical_z_mask,
        _shift_rule=shift_rule,
    )
