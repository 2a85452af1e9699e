"""Decoding substrate for imperfect stabilizer measurements.

With measurement rounds t = 1..t_max, a hypothesis states which data qubit
erred in which interval [t, t+1] and which measurement was wrong at which
time.  A hypothesis with n data errors and m wrong measurements has energy
n + xi * m, where xi = log((1-p_M)/p_M) / beta_bar sets the relative cost of a
measurement error.  Hypotheses are deformed by (a) applying a stabilizer to
one interval frame and (b) the elementary spacetime move: toggling an error on
one qubit in two consecutive intervals while inverting the flip hypotheses of
the anticommuting measurements at the shared time.  Both preserve the
measurement record and the time-aggregated equivalence class, so a Metropolis
chain over them explores exactly one spacetime equivalence class.

Moves are restricted to interior times 1 < t < t_max; the time-boundary
behavior of the equivalence classes is deliberately left open.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InconsistentHypothesisError,
    InvalidMoveError,
    InvalidParameterError,
)
from .geometry import CodeLayout, EquivalenceClass, PauliFrame
from .noise import NoiseModel, beta_bar, error_score, score_delta


@dataclass(frozen=True)
class MeasurementModel:
    """Uniform per-measurement error probability and its derived weight xi."""

    p_m: float
    xi: float

    @classmethod
    def from_probabilities(cls, model: NoiseModel, p_m: float) -> "MeasurementModel":
        if not 0.0 < p_m < 1.0:
            raise InvalidParameterError(f"p_M={p_m} outside (0, 1)")
        xi = math.log((1.0 - p_m) / p_m) / beta_bar(model)
        return cls(p_m, xi)


@dataclass(frozen=True)
class MeasurementRecord:
    """Observed syndrome bits per measurement round, t = 1..t_max."""

    t_max: int
    observed: tuple[int, ...]  # bitmask over global stabilizer indices, len t_max

    def __post_init__(self):
        if self.t_max < 2:
            raise InvalidParameterError(f"need t_max >= 2, got {self.t_max}")
        if len(self.observed) != self.t_max:
            raise InvalidParameterError("record length must equal t_max")


@dataclass
class SpacetimeHypothesis:
    """Candidate explanation of a measurement record.

    ``frames[k]`` holds the data errors of interval [k+1, k+2] (so there are
    t_max - 1 frames); ``flips[k]`` is the bitmask of measurements claimed
    wrong at time t = k+1.
    """

    record: MeasurementRecord
    frames: list[PauliFrame]
    flips: list[int]

    def copy(self) -> "SpacetimeHypothesis":
        return SpacetimeHypothesis(
            self.record, [f.copy() for f in self.frames], list(self.flips)
        )

    def is_consistent(self, layout: CodeLayout) -> bool:
        """Predicted record (cumulative syndrome XOR flips) matches the observed one."""
        cum = layout.identity_frame()
        for t in range(1, self.record.t_max + 1):
            predicted = layout.syndrome_bits(cum) ^ self.flips[t - 1]
            if predicted != self.record.observed[t - 1]:
                return False
            if t <= len(self.frames):
                cum = cum * self.frames[t - 1]
        return True

    def aggregate_frame(self, layout: CodeLayout) -> PauliFrame:
        cum = layout.identity_frame()
        for f in self.frames:
            cum = cum * f
        return cum

    def aggregate_class(self, layout: CodeLayout) -> EquivalenceClass:
        return layout.class_of(self.aggregate_frame(layout))

    def error_count(self, model: NoiseModel) -> int:
        return sum(error_score(model, f) for f in self.frames)

    def flip_count(self) -> int:
        return sum(f.bit_count() for f in self.flips)


def initial_hypothesis(layout: CodeLayout, record: MeasurementRecord) -> SpacetimeHypothesis:
    """The always-consistent seed: every discrepancy is a measurement flip."""
    frames = [layout.identity_frame() for _ in range(record.t_max - 1)]
    return SpacetimeHypothesis(record, frames, list(record.observed))


def spacetime_energy(
    hyp: SpacetimeHypothesis,
    model: NoiseModel,
    mm: MeasurementModel,
    layout: CodeLayout,
) -> float:
    """Energy n + xi * m of a consistent hypothesis."""
    if not hyp.is_consistent(layout):
        raise InconsistentHypothesisError(
            "hypothesis does not reproduce the measurement record"
        )
    return hyp.error_count(model) + mm.xi * hyp.flip_count()


def _anticommuting_mask(layout: CodeLayout, qubit: int, pauli: str) -> int:
    """Global-index bitmask of stabilizers anticommuting with pauli on qubit."""
    bit = 1 << qubit
    mask = 0
    stabs = layout.z_stabilizers if pauli == "X" else layout.x_stabilizers
    for s in stabs:
        if s.mask & bit:
            mask |= 1 << s.index
    return mask


def deformation_move(
    layout: CodeLayout,
    hyp: SpacetimeHypothesis,
    qubit: int,
    t: int,
    pauli: str = "X",
) -> SpacetimeHypothesis:
    """Toggle ``pauli`` on ``qubit`` in intervals [t-1, t] and [t, t+1] and
    invert the flip hypotheses of the anticommuting measurements at time t.

    Only interior times 1 < t < t_max are valid; the move is an involution and
    preserves consistency and the aggregated class.
    """
    if not 1 < t < hyp.record.t_max:
        raise InvalidMoveError(f"deformation time must satisfy 1 < t < t_max, got {t}")
    if pauli not in ("X", "Z"):
        raise InvalidParameterError(f"deformation pauli must be X or Z, got {pauli!r}")
    out = hyp.copy()
    bit = 1 << qubit
    for k in (t - 2, t - 1):  # interval [t-1, t] is frames[t-2]
        if pauli == "X":
            out.frames[k].x ^= bit
        else:
            out.frames[k].z ^= bit
    out.flips[t - 1] ^= _anticommuting_mask(layout, qubit, pauli)
    return out


def sample_record(
    layout: CodeLayout,
    model: NoiseModel,
    mm: MeasurementModel,
    t_max: int,
    rng: np.random.Generator,
) -> tuple[MeasurementRecord, SpacetimeHypothesis]:
    """Simulate noisy rounds; returns the observed record and the true hypothesis."""
    from .noise import sample_frame

    frames = [sample_frame(model, layout, rng) for _ in range(t_max - 1)]
    n_stab = layout.n_stab
    observed = []
    flips = []
    cum = layout.identity_frame()
    for t in range(1, t_max + 1):
        flip_bits = 0
        draws = rng.random(n_stab)
        for s in range(n_stab):
            if draws[s] < mm.p_m:
                flip_bits |= 1 << s
        observed.append(layout.syndrome_bits(cum) ^ flip_bits)
        flips.append(flip_bits)
        if t <= t_max - 1:
            cum = cum * frames[t - 1]
    record = MeasurementRecord(t_max, tuple(observed))
    return record, SpacetimeHypothesis(record, frames, flips)


class SpacetimeChain:
    """Metropolis over spatial stabilizer moves and deformation moves.

    Proposals are uniform over all (stabilizer, interval) and (qubit, interior
    time, X/Z) moves; acceptance is exp(-beta * delta(n + xi * m)).  Error and
    flip counts are tracked incrementally as exact integers.
    """

    def __init__(
        self,
        layout: CodeLayout,
        model: NoiseModel,
        mm: MeasurementModel,
        hyp: SpacetimeHypothesis,
        rng: np.random.Generator,
        beta: float | None = None,
    ):
        if not hyp.is_consistent(layout):
            raise InconsistentHypothesisError("chain seed is inconsistent")
        self.layout = layout
        self.model = model
        self.mm = mm
        self.rng = rng
        self.beta = beta_bar(model) if beta is None else beta
        self.hyp = hyp.copy()
        self.n = hyp.error_count(model)
        self.m = hyp.flip_count()
        self._delta = score_delta(model)
        t_max = hyp.record.t_max
        self._n_spatial = layout.n_stab * (t_max - 1)
        self._n_deform = 2 * layout.n_qubits * max(0, t_max - 2)
        self._anti = {
            (q, p): _anticommuting_mask(layout, q, p)
            for q in range(layout.n_qubits)
            for p in ("X", "Z")
        }

    @property
    def energy(self) -> float:
        return self.n + self.mm.xi * self.m

    def step(self) -> None:
        total = self._n_spatial + self._n_deform
        pick = int(self.rng.integers(0, total))
        if pick < self._n_spatial:
            stab = self.layout.stabilizers[pick % self.layout.n_stab]
            k = pick // self.layout.n_stab
            frame = self.hyp.frames[k]
            dn = self._delta(frame.x, frame.z, stab.mask, stab.kind == "X")
            if self._accept(dn):
                if stab.kind == "X":
                    frame.x ^= stab.mask
                else:
                    frame.z ^= stab.mask
                self.n += dn
            return
        pick -= self._n_spatial
        q = pick % self.layout.n_qubits
        pick //= self.layout.n_qubits
        t = 2 + pick % (self.hyp.record.t_max - 2)
        pauli = "X" if pick // (self.hyp.record.t_max - 2) == 0 else "Z"
        bit = 1 << q
        dn = sum(
            self._delta(f.x, f.z, bit, pauli == "X") for f in self.hyp.frames[t - 2:t]
        )
        anti = self._anti[(q, pauli)]
        flips = self.hyp.flips[t - 1]
        dm = (flips ^ anti).bit_count() - flips.bit_count()
        if self._accept(dn + self.mm.xi * dm):
            for k in (t - 2, t - 1):
                frame = self.hyp.frames[k]
                if pauli == "X":
                    frame.x ^= bit
                else:
                    frame.z ^= bit
            self.hyp.flips[t - 1] ^= anti
            self.n += dn
            self.m += dm

    def _accept(self, delta_energy: float) -> bool:
        if delta_energy <= 0:
            return True
        return float(self.rng.random()) < math.exp(-self.beta * delta_energy)

    def run(self, n_steps: int) -> None:
        for _ in range(n_steps):
            self.step()
