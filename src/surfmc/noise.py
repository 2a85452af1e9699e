"""Pauli noise channels, frame sampling, and channel-to-temperature conversion.

Every model is a single-qubit channel rho -> p_I rho + p_x X rho X + p_y Y rho Y
+ p_z Z rho Z applied independently per qubit.  There are two kinds:
depolarizing noise, and independent bit and phase flips.  For depolarizing
noise the relative probability of an error chain with n single-qubit errors
is exp(-beta_bar * n) with beta_bar = -log((p/3)/(1-p)), which is what the
Metropolis decoders sample.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
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
            if not 0.0 <= v < 1.0:
                raise InvalidParameterError(f"{name}={v} outside [0, 1)")
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
        if not 0.0 <= p < 1.0:
            raise InvalidParameterError(f"depolarizing rate p={p} outside [0, 1)")
        return cls(DEPOLARIZING, p / 3.0, p / 3.0, p / 3.0, p=p)

    @classmethod
    def independent_xz(cls, p_b: float, p_p: float) -> "NoiseModel":
        for name, v in (("p_b", p_b), ("p_p", p_p)):
            if not 0.0 <= v < 1.0:
                raise InvalidParameterError(f"{name}={v} outside [0, 1)")
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


def score_delta(model: NoiseModel) -> Callable[[int, int, int, bool], int]:
    """The model's count change Delta n: ``delta(x, z, mask, x_plane)`` is how
    much ``error_score`` of the frame (x, z) changes when ``mask`` is flipped
    in its x plane (else its z plane)."""
    return _delta_independent if model.kind == INDEPENDENT_XZ else _delta_depolarizing


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
