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
chain over them explores exactly one spacetime equivalence class.  Each move
is one data tuple (the frames it toggles, then the flip slot and mask it
inverts), which ``SpacetimeChain`` scores and applies through one path and
``deformation_move`` applies to a copy.

Moves are restricted to interior times 1 < t < t_max; the time-boundary
behavior of the equivalence classes is deliberately left open.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    InconsistentHypothesisError, InvalidMoveError, InvalidParameterError, _check_count,
)
from .geometry import CodeLayout, EquivalenceClass, PauliFrame
from .noise import NoiseModel, beta_bar, error_score, sample_frame, score_delta

#: (frame index, mask, x plane) toggles, then the flip slot and its mask.
Move = tuple[tuple[tuple[int, int, bool], ...], int, int]


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
        """Predicted record matches the observed one."""
        return _predicted_record(layout, self.frames, self.flips) == self.record.observed

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


def _predicted_record(layout: CodeLayout, frames, flips: list[int]) -> tuple[int, ...]:
    """Per round, the syndrome of all earlier frames XOR that round's flips."""
    cum = layout.identity_frame()
    predicted = []
    for t, flip in enumerate(flips):
        predicted.append(layout.syndrome_bits(cum) ^ flip)
        if t < len(frames):
            cum = cum * frames[t]
    return tuple(predicted)


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


def _deformation(layout: CodeLayout, qubit: int, t: int, pauli: str) -> Move:
    """``pauli`` on ``qubit`` in frames t-2 and t-1, and its syndrome at slot t-1."""
    bit = 1 << qubit
    x_plane = pauli == "X"
    error = PauliFrame(layout.n_qubits, bit if x_plane else 0, 0 if x_plane else bit)
    return ((t - 2, bit, x_plane), (t - 1, bit, x_plane)), t - 1, layout.syndrome_bits(error)


def _apply(hyp: SpacetimeHypothesis, move: Move) -> None:
    toggles, slot, flip_mask = move
    for k, mask, x_plane in toggles:
        frame = hyp.frames[k]
        if x_plane:
            frame.x ^= mask
        else:
            frame.z ^= mask
    hyp.flips[slot] ^= flip_mask


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
    if not isinstance(t, numbers.Integral) or not 1 < t < hyp.record.t_max:
        raise InvalidMoveError(
            f"deformation time must be an integer with 1 < t < t_max, got {t!r}"
        )
    if pauli not in ("X", "Z"):
        raise InvalidParameterError(f"deformation pauli must be X or Z, got {pauli!r}")
    if not isinstance(qubit, numbers.Integral) or not 0 <= qubit < layout.n_qubits:
        raise InvalidParameterError(
            f"deformation qubit must be an integer in [0, {layout.n_qubits}), got {qubit!r}"
        )
    out = hyp.copy()
    _apply(out, _deformation(layout, int(qubit), t, pauli))  # a numpy int would overflow
    return out


def sample_record(
    layout: CodeLayout,
    model: NoiseModel,
    mm: MeasurementModel,
    t_max: int,
    rng: np.random.Generator,
) -> tuple[MeasurementRecord, SpacetimeHypothesis]:
    """Simulate noisy rounds; returns the observed record and the true hypothesis."""
    frames = [sample_frame(model, layout, rng) for _ in range(t_max - 1)]
    flips = [
        sum(1 << int(s) for s in np.flatnonzero(rng.random(layout.n_stab) < mm.p_m))
        for _ in range(t_max)
    ]
    record = MeasurementRecord(t_max, _predicted_record(layout, frames, flips))
    return record, SpacetimeHypothesis(record, frames, flips)


class SpacetimeChain:
    """Metropolis over spatial stabilizer moves and deformation moves.

    Proposals are uniform over the move table: every (interval, stabilizer)
    move, then every (X/Z, interior time, qubit) deformation; acceptance is
    exp(-beta * delta(n + xi * m)).  Error and flip counts are tracked
    incrementally as exact integers.
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
        self.beta = beta_bar(model) if beta is None else beta
        if not self.beta >= 0:
            raise InvalidParameterError(f"beta must be >= 0, got {self.beta}")
        self.layout = layout
        self.model = model
        self.mm = mm
        self.rng = rng
        self.hyp = hyp.copy()
        self.n = hyp.error_count(model)
        self.m = hyp.flip_count()
        self._delta = score_delta(model)
        t_max = hyp.record.t_max
        self._moves: list[Move] = [
            (((k, s.mask, s.kind == "X"),), 0, 0)
            for k in range(t_max - 1)
            for s in layout.stabilizers
        ] + [
            _deformation(layout, q, t, pauli)
            for pauli in ("X", "Z")
            for t in range(2, t_max)
            for q in range(layout.n_qubits)
        ]

    @property
    def energy(self) -> float:
        return self.n + self.mm.xi * self.m

    def step(self) -> None:
        move = self._moves[int(self.rng.integers(0, len(self._moves)))]
        toggles, slot, flip_mask = move
        frames = self.hyp.frames
        dn = sum(self._delta(frames[k].x, frames[k].z, mask, x) for k, mask, x in toggles)
        flips = self.hyp.flips[slot]
        dm = (flips ^ flip_mask).bit_count() - flips.bit_count()
        delta = dn + self.mm.xi * dm
        if delta <= 0 or float(self.rng.random()) < math.exp(-self.beta * delta):
            _apply(self.hyp, move)
            self.n += dn
            self.m += dm

    def run(self, n_steps: int) -> None:
        _check_count("n_steps", n_steps, 0)
        for _ in range(n_steps):
            self.step()
