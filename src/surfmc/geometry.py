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

    def syndrome_of(self, frame: PauliFrame) -> Syndrome:
        """Stabilizers that anticommute with the frame.

        A Z-stabilizer is flagged iff the frame's X-component overlaps its
        support an odd number of times, and vice versa.
        """
        fx, fz = frame.x, frame.z
        p = tuple(
            s.species_index for s in self.z_stabilizers if (fx & s.mask).bit_count() & 1
        )
        s = tuple(
            s.species_index for s in self.x_stabilizers if (fz & s.mask).bit_count() & 1
        )
        return Syndrome(p, s)

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

    return CodeLayout(
        L=L,
        qubit_coords=qubit_coords,
        qubit_index=qubit_index,
        z_stabilizers=tuple(z_stabs),
        x_stabilizers=tuple(x_stabs),
        stabilizers=tuple(z_stabs) + tuple(x_stabs),
        logical_x_mask=logical_x_mask,
        logical_z_mask=logical_z_mask,
    )
