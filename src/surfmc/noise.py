"""Pauli noise channels, frame sampling, and channel-to-temperature conversion.

Every model is a single-qubit channel rho -> p_I rho + p_x X rho X + p_y Y rho Y
+ p_z Z rho Z applied independently per qubit.  There are two kinds:
depolarizing noise, and independent bit and phase flips.  For depolarizing
noise the relative probability of an error chain with n single-qubit errors
is exp(-beta_bar * n) with beta_bar = -log((p/3)/(1-p)), which is what the
Metropolis decoders sample.

The count change Delta n of flipping a mask in one plane is written once, as
``score_delta``.  For single-stabilizer moves it is also tabulated by the
stabilizer's local state (the x and z bits of its 3-4 qubits): the table
(``_delta_table``, once per model kind) and the layout's side of it
(``_layout_moves``: each stabilizer's local-state gather and the flip lists
that keep local states current after a move, once per layout) serve both
the Metropolis chains of ``mcmc`` and the refinement descent of ``matching``.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, _check_number
from .geometry import CodeLayout, PauliFrame

DEPOLARIZING = "depolarizing"
INDEPENDENT_XZ = "independent_xz"


@dataclass(frozen=True)
class NoiseModel:
    kind: str
    p_x: float
    p_y: float
    p_z: float
    # raw channel parameters, kept for temperature conversion
    p: float | None = None
    p_b: float | None = None
    p_p: float | None = None

    def __post_init__(self):
        if self.kind not in (DEPOLARIZING, INDEPENDENT_XZ):
            raise InvalidParameterError(f"unknown noise model kind {self.kind!r}")
        for name, v in (("p_x", self.p_x), ("p_y", self.p_y), ("p_z", self.p_z)):
            _check_number(name, v, 0, 1)
        if self.p_i < 0.0 or self.p_i > 1.0:
            raise InvalidParameterError(
                f"component probabilities sum to {1 - self.p_i}, must be <= 1"
            )

    @property
    def p_i(self) -> float:
        return 1.0 - (self.p_x + self.p_y + self.p_z)

    @property
    def probs(self) -> tuple[float, float, float, float]:
        return (self.p_i, self.p_x, self.p_y, self.p_z)

    @classmethod
    def depolarizing(cls, p: float) -> "NoiseModel":
        _check_number("depolarizing rate p", p, 0, 1)
        return cls(DEPOLARIZING, p / 3.0, p / 3.0, p / 3.0, p=p)

    @classmethod
    def independent_xz(cls, p_b: float, p_p: float) -> "NoiseModel":
        _check_number("p_b", p_b, 0, 1)
        _check_number("p_p", p_p, 0, 1)
        return cls(
            INDEPENDENT_XZ,
            p_b * (1.0 - p_p),
            p_b * p_p,
            p_p * (1.0 - p_b),
            p_b=p_b,
            p_p=p_p,
        )


def beta_bar(model: NoiseModel) -> float:
    """Reference inverse temperature of the channel.

    Depolarizing: -log((p/3)/(1-p)) for 0 < p <= 3/4 (0 exactly at p = 3/4).
    Independent bit/phase flips: defined only in the symmetric case p_b = p_p,
    as log((1-p_b)/p_b); the asymmetric case has no prescribed reference
    temperature and is rejected.
    """
    if model.kind == DEPOLARIZING:
        p = model.p
        if p is None or not 0.0 < p <= 0.75:
            raise InvalidParameterError(
                f"beta_bar needs 0 < p <= 3/4 for depolarizing noise, got {p}"
            )
        return -math.log((p / 3.0) / (1.0 - p))
    if model.p_b != model.p_p:
        raise InvalidParameterError(
            "beta_bar undefined for asymmetric independent noise "
            f"(p_b={model.p_b}, p_p={model.p_p})"
        )
    pb = model.p_b
    if pb is None or not 0.0 < pb < 0.5:
        raise InvalidParameterError(
            f"beta_bar needs 0 < p_b < 1/2 for independent noise, got {pb}"
        )
    return math.log((1.0 - pb) / pb)


def qubit_energy_weights(model: NoiseModel) -> tuple[float, float, float]:
    """Per-qubit energies (w_x, w_y, w_z) with w_P = -log(p_P / p_I), w_I = 0.

    For depolarizing noise all three equal beta_bar; for independent noise
    w_x = log((1-p_b)/p_b), w_z = log((1-p_p)/p_p) and w_y = w_x + w_z, i.e.
    the energy is beta_b * n_b + beta_p * n_p with sigma-y counted in both
    species.
    """
    p_i = model.p_i
    if p_i <= 0.0:
        raise InvalidParameterError("energy weights need p_I > 0")

    def w(p_comp: float) -> float:
        if p_comp <= 0.0:
            return math.inf
        return -math.log(p_comp / p_i)

    return (w(model.p_x), w(model.p_y), w(model.p_z))


def chain_energy(model: NoiseModel, frame: PauliFrame) -> float:
    """Energy of an error chain: the negative log of its relative probability.

    Depolarizing: beta_bar * weight (sigma-y counts once).  Raises if the
    frame uses a Pauli component of probability zero.
    """
    n_y = (frame.x & frame.z).bit_count()
    n_x = frame.x.bit_count() - n_y
    n_z = frame.z.bit_count() - n_y
    if n_x == 0 and n_y == 0 and n_z == 0:
        return 0.0
    w_x, w_y, w_z = qubit_energy_weights(model)
    total = 0.0
    for count, w, name in ((n_x, w_x, "p_x"), (n_y, w_y, "p_y"), (n_z, w_z, "p_z")):
        if count:
            if math.isinf(w):
                raise InvalidParameterError(
                    f"frame uses a Pauli component with {name} = 0"
                )
            total += count * w
    return total


def error_score(model: NoiseModel, frame: PauliFrame) -> int:
    """Integer error count the Metropolis chains track.

    Depolarizing: sigma-y-counts-once weight, so the energy is
    beta_bar * score.  Independent bit/phase flips: n_b + n_p (sigma-y counts
    in both species), matching the per-species energy decomposition.
    """
    if model.kind == INDEPENDENT_XZ:
        return frame.x.bit_count() + frame.z.bit_count()
    return frame.weight()


def _delta_depolarizing(x: int, z: int, mask: int, x_plane: bool) -> int:
    if not x_plane:
        x, z = z, x  # the formula flips the x plane
    return (((x ^ mask) | z) & mask).bit_count() - ((x | z) & mask).bit_count()


def _delta_independent(x: int, z: int, mask: int, x_plane: bool) -> int:
    flipped = x if x_plane else z
    return ((flipped ^ mask) & mask).bit_count() - (flipped & mask).bit_count()


_DELTAS = {DEPOLARIZING: _delta_depolarizing, INDEPENDENT_XZ: _delta_independent}


def score_delta(model: NoiseModel) -> Callable[[int, int, int, bool], int]:
    """The model's count change Delta n: ``delta(x, z, mask, x_plane)`` is how
    much ``error_score`` of the frame (x, z) changes when ``mask`` is flipped
    in its x plane (else its z plane)."""
    return _DELTAS[model.kind]


# A stabilizer's local state: bit i is its own plane's bit (x for an X
# stabilizer, z for a Z one) on its i-th support qubit, bit 4 + i the other
# plane's.  4-qubit supports index the Delta n table directly; 3-qubit ones
# carry the offset of the table's second block above the 8 bits moves flip.
_OFFSET_3 = 256
_BIT_WEIGHTS = np.array([1 << i for i in range(8)], dtype=np.uint8)


class _LayoutMoves:
    """The layout's side of the table-driven move, built once per layout:
    masks, kinds, block offsets, the bit gather behind ``local_states``, each
    stabilizer's flip list, and the compound moves of the refinement descent."""

    def __init__(self, layout: CodeLayout):
        stabs = layout.stabilizers
        nq = layout.n_qubits
        self.n_qubits = nq
        self.masks = [s.mask for s in stabs]
        self.x_kind = [s.kind == "X" for s in stabs]
        self.offsets = np.array([_OFFSET_3 * (len(s.qubits) == 3) for s in stabs])
        # states are gathered from the bits of x | z << nq; its bit 2 nq is
        # always clear and stands in for the missing qubit of 3-qubit supports
        pad = [2 * nq] * 4
        self.n_bytes = 2 * nq // 8 + 1
        gather = []
        for s in stabs:
            xs = (list(s.qubits) + pad)[:4]
            zs = ([nq + q for q in s.qubits] + pad)[:4]
            gather.append(xs + zs if s.kind == "X" else zs + xs)
        self.gather = np.array(gather)
        # flips[s]: (t, bits) for every stabilizer t sharing a qubit with s,
        # itself included; accepting s XORs bits into t's local state
        holders: list[list[tuple[int, int]]] = [[] for _ in range(nq)]
        for t, stab in enumerate(stabs):
            for i, q in enumerate(stab.qubits):
                holders[q].append((t, i))
        self.flips = []
        for stab in stabs:
            bits: dict[int, int] = {}
            for q in stab.qubits:
                for t, i in holders[q]:
                    plane = 0 if stabs[t].kind == stab.kind else 4
                    bits[t] = bits.get(t, 0) | 1 << (plane + i)
            self.flips.append(tuple(bits.items()))
        # compounds: (mask, x_plane, flips) of the product of one full
        # X-stabilizer column (x on columns c - 1 and c + 1) or Z-stabilizer
        # row (z on rows r - 1 and r + 1), the moves of matching.refine_frame
        # after the single stabilizers.  They shift a logical-operator line
        # sideways by one step, letting the descent hop the unit energy
        # barrier between parallel logical representatives.
        self.compounds = []
        for kind, axis in (("X", 1), ("Z", 0)):
            for line in range(1, layout.span, 2):
                mask = 0
                bits = {}
                for s in stabs:
                    if s.kind == kind and s.coord[axis] == line:
                        mask ^= s.mask
                        for t, b in self.flips[s.index]:
                            bits[t] = bits.get(t, 0) ^ b
                flips = tuple((t, b) for t, b in bits.items() if b)
                self.compounds.append((mask, kind == "X", flips))

    def local_states(self, frame: PauliFrame) -> list[int]:
        """Every stabilizer's Delta n table index in ``frame``."""
        if frame.n_qubits != self.n_qubits:
            raise InvalidParameterError(
                f"frame has {frame.n_qubits} qubits, the layout {self.n_qubits}"
            )
        packed = (frame.x | frame.z << self.n_qubits).to_bytes(self.n_bytes, "little")
        bits = np.unpackbits(np.frombuffer(packed, np.uint8), bitorder="little")
        return (self.offsets | bits[self.gather] @ _BIT_WEIGHTS).tolist()


@functools.lru_cache(maxsize=16)
def _layout_moves(layout: CodeLayout) -> _LayoutMoves:
    return _LayoutMoves(layout)


@functools.lru_cache(maxsize=len(_DELTAS))
def _delta_table(kind: str) -> list[int]:
    """Delta n indexed by local state: the ``score_delta`` of a model of
    ``kind`` on every local state of a 4- and then a 3-qubit support."""
    delta = _DELTAS[kind]
    return [delta(state & 15, state >> 4, mask, True)
            for mask in (0b1111, 0b111)
            for state in range(256)]


def sample_frame(model: NoiseModel, layout: CodeLayout, rng: np.random.Generator) -> PauliFrame:
    """Draw one error frame, each qubit independently I/X/Y/Z per the model."""
    n = layout.n_qubits
    cum = np.cumsum(model.probs)
    cum[-1] = 1.0  # guard against fp round-off
    codes = np.searchsorted(cum, rng.random(n), side="right")
    x_bits = (codes == 1) | (codes == 2)
    z_bits = (codes == 2) | (codes == 3)
    x = int.from_bytes(np.packbits(x_bits, bitorder="little").tobytes(), "little")
    z = int.from_bytes(np.packbits(z_bits, bitorder="little").tobytes(), "little")
    return PauliFrame(n, x, z)
