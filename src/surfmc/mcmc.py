"""Metropolis sampling over stabilizer deformations and the MCMC decoders.

A chain deforms an error frame only by multiplying stabilizers, so its
syndrome and equivalence class are invariants; at inverse temperature beta it
samples frames with probability proportional to exp(-beta * n), where n is the
model's error count (sigma-y counts once for depolarizing noise).  One step
picks a stabilizer uniformly at random, computes the count change Delta n on
its 3-4 support qubits, applies it when Delta n <= 0 and with probability
exp(-beta * Delta n) otherwise, then accumulates the post-move count.
``MoveKernel`` holds that move for one layout and noise model: the masks, the
acceptance table, the reference ``delta`` and the batch loop; the chains, the
rectangle sweep, the refinement descent and the spacetime chain all use it.

The single-temperature decoder runs one chain per equivalence class from the
minimum-weight hypothesis of that class and picks the class with the smallest
average count; the free-energy variant instead integrates the average count
over an equidistant temperature grid with Simpson's rule.  A rectangle
partition of the code allows many non-overlapping stabilizers to be probed per
step for parallel operation.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import DecoderInternalError, InvalidParameterError
from .geometry import EQUIV_CLASSES, CodeLayout, EquivalenceClass, PauliFrame, Syndrome
from .matching import ClassChainSet, DecoderVerdict, _pick_class
from .noise import DEPOLARIZING, INDEPENDENT_XZ, NoiseModel, beta_bar, error_score

_CHUNK_BATCHES = 32


@dataclass(frozen=True)
class SingleTempConfig:
    """Parameters of the single-temperature decoder."""

    beta_star: float
    n_sample: int
    burn_in: int = 0

    def __post_init__(self):
        if self.n_sample < 1:
            raise InvalidParameterError(f"n_sample must be >= 1, got {self.n_sample}")
        if self.burn_in < 0:
            raise InvalidParameterError(f"burn_in must be >= 0, got {self.burn_in}")


def default_single_temp_config(
    model: NoiseModel,
    layout: CodeLayout,
    n_sample: int | None = None,
    beta_star_factor: float | None = None,
    burn_in: int = 0,
) -> SingleTempConfig:
    """beta* = beta_bar (0.85 * beta_bar for independent noise), n_sample = L^4."""
    if beta_star_factor is None:
        beta_star_factor = 0.85 if model.kind == INDEPENDENT_XZ else 1.0
    if n_sample is None:
        n_sample = layout.L ** 4
    return SingleTempConfig(beta_star_factor * beta_bar(model), n_sample, burn_in)


def batch_means_se(batch_sums: list[tuple[int, int]]) -> float:
    """Batch-means standard error of a mean count from (steps, summed count)
    batches; only batches as long as the first count, NaN with fewer than two."""
    means = [c / s for s, c in batch_sums if s == batch_sums[0][0]]
    if len(means) < 2:
        return math.nan
    return float(np.std(means, ddof=1) / math.sqrt(len(means)))


class MoveKernel:
    """The single-stabilizer move of one layout under one noise model.

    Holds the stabilizer masks and kinds and the acceptance table.  ``delta``
    is the reference change Delta n of the model's error count
    (``noise.error_score``) when one stabilizer, or any mask, is multiplied
    into a frame; ``batch`` is the Metropolis loop every chain drives, with
    the same formulas written inline per model because it is the hot path.
    """

    def __init__(self, layout: CodeLayout, model: NoiseModel):
        if model.kind not in (DEPOLARIZING, INDEPENDENT_XZ):
            raise InvalidParameterError(
                f"Metropolis chains need an integer error count; model kind "
                f"{model.kind!r} has none"
            )
        self.independent = model.kind == INDEPENDENT_XZ
        self.masks = [s.mask for s in layout.stabilizers]
        self.x_kind = [s.kind == "X" for s in layout.stabilizers]

    @staticmethod
    def acceptance(beta: float) -> list[float]:
        """Metropolis acceptance probability indexed by Delta n."""
        # Delta n of a single 3-4 qubit stabilizer move is at most 4
        if math.isinf(beta):
            return [1.0, 0.0, 0.0, 0.0, 0.0]
        return [1.0] + [math.exp(-beta * d) for d in (1, 2, 3, 4)]

    def delta(self, x: int, z: int, mask: int, x_plane: bool) -> int:
        """Count change of flipping ``mask`` in the x plane (else the z plane)."""
        if not x_plane:
            x, z = z, x  # the formulas below flip the x plane
        if self.independent:
            return ((x ^ mask) & mask).bit_count() - (x & mask).bit_count()
        return (((x ^ mask) | z) & mask).bit_count() - ((x | z) & mask).bit_count()

    def batch(
        self, x: int, z: int, n: int, idx: list[int], us: list[float], acc: list[float]
    ) -> tuple[int, int, int, int]:
        """Propose the stabilizers ``idx`` in turn, accepting a move of
        Delta n > 0 iff its uniform draw is below ``acc[Delta n]``.

        Returns the final (x, z, n) and the sum of the post-move counts.
        """
        masks = self.masks
        x_kind = self.x_kind
        cum = 0
        if self.independent:
            for s, u in zip(idx, us):
                m = masks[s]
                if x_kind[s]:
                    d = ((x ^ m) & m).bit_count() - (x & m).bit_count()
                    if d <= 0 or u < acc[d]:
                        x ^= m
                        n += d
                else:
                    d = ((z ^ m) & m).bit_count() - (z & m).bit_count()
                    if d <= 0 or u < acc[d]:
                        z ^= m
                        n += d
                cum += n
        else:
            for s, u in zip(idx, us):
                m = masks[s]
                if x_kind[s]:
                    nx = x ^ m
                    d = ((nx | z) & m).bit_count() - ((x | z) & m).bit_count()
                    if d <= 0 or u < acc[d]:
                        x = nx
                        n += d
                else:
                    nz = z ^ m
                    d = ((nz | x) & m).bit_count() - ((x | z) & m).bit_count()
                    if d <= 0 or u < acc[d]:
                        z = nz
                        n += d
                cum += n
        return x, z, n, cum


class MetropolisChain:
    """One Markov chain over the stabilizer orbit of its seed frame.

    The frame is owned by the chain (single writer).  ``run`` is the bulk
    sampler; ``step`` is the same path on a single proposal, and records no
    batch for ``standard_error``.  ``estimate`` is the running average of the
    error count over all proposals since the end of burn-in; by default
    nothing is discarded, since heating up from a minimum-weight seed is
    faster than cooling from a random one.
    """

    def __init__(
        self,
        layout: CodeLayout,
        model: NoiseModel,
        beta: float,
        frame: PauliFrame,
        rng: np.random.Generator,
    ):
        self._kernel = MoveKernel(layout, model)
        if beta < 0:
            raise InvalidParameterError(f"beta must be >= 0, got {beta}")
        self.layout = layout
        self.model = model
        self.beta = beta
        self.rng = rng
        self._x = frame.x
        self._z = frame.z
        self._acc = MoveKernel.acceptance(beta)
        self._n = error_score(model, frame)
        self.step_count = 0
        self.cumulative_n = 0
        self._batch_sums: list[tuple[int, int]] = []  # (steps, summed counts)
        self._seed_syndrome = layout.syndrome_of(frame)
        self._seed_class = layout.class_of(frame)

    @property
    def frame(self) -> PauliFrame:
        return PauliFrame(self.layout.n_qubits, self._x, self._z)

    @property
    def current_n(self) -> int:
        return self._n

    @property
    def estimate(self) -> float:
        """Running <n> estimate over all accumulated proposals."""
        if self.step_count == 0:
            raise InvalidParameterError("no steps accumulated yet")
        return self.cumulative_n / self.step_count

    def standard_error(self) -> float:
        """Batch-means standard error of ``estimate`` (autocorrelation-aware)."""
        se = batch_means_se(self._batch_sums)
        if math.isnan(se):
            raise InvalidParameterError("need >= 2 equal batches for a standard error")
        return se

    def step(self) -> None:
        """Advance by one proposal and accumulate the post-move count."""
        # scalar draws continue the stream exactly as size-1 block draws would
        s = int(self.rng.integers(0, len(self._kernel.masks)))
        u = float(self.rng.random())
        self.cumulative_n += self._moves([s], [u])
        self.step_count += 1

    def _moves(self, idx: list[int], us: list[float]) -> int:
        """Make the proposals; returns the summed post-move counts."""
        self._x, self._z, self._n, cum = self._kernel.batch(
            self._x, self._z, self._n, idx, us, self._acc
        )
        return cum

    def run(self, n_steps: int, accumulate: bool = True) -> None:
        """Advance by ``n_steps`` proposals (tight loop, block-drawn randomness)."""
        n_stab = len(self._kernel.masks)
        chunk_size = max(1024, n_steps // _CHUNK_BATCHES)
        done = 0
        while done < n_steps:
            todo = min(chunk_size, n_steps - done)
            idx = self.rng.integers(0, n_stab, size=todo).tolist()
            us = self.rng.random(size=todo).tolist()
            cum = self._moves(idx, us)
            done += todo
            if accumulate:
                self.step_count += todo
                self.cumulative_n += cum
                self._batch_sums.append((todo, cum))

    def verify_confinement(self) -> None:
        """Assert the chain never left its seed's syndrome/class orbit."""
        frame = self.frame
        if self.layout.syndrome_of(frame) != self._seed_syndrome:
            raise DecoderInternalError("chain escaped its syndrome orbit")
        if self.layout.class_of(frame) != self._seed_class:
            raise DecoderInternalError("chain escaped its equivalence class")


def _class_chain_rngs(seed_seq: np.random.SeedSequence) -> list[np.random.Generator]:
    return [np.random.Generator(np.random.PCG64(child)) for child in seed_seq.spawn(4)]


def decode_single_temperature(
    layout: CodeLayout,
    syndrome: Syndrome,
    model: NoiseModel,
    cfg: SingleTempConfig,
    seeds: ClassChainSet,
    seed_seq: np.random.SeedSequence,
) -> DecoderVerdict:
    """Sample <n> at beta* in every class; correct per the class with the
    smallest value.

    Chains start from the minimum-weight hypothesis of each class and are
    fully determined by ``seed_seq``.
    """
    rngs = _class_chain_rngs(seed_seq)
    scores: dict[EquivalenceClass, float] = {}
    ses: dict[EquivalenceClass, float] = {}
    for cls in EQUIV_CLASSES:
        chain = MetropolisChain(
            layout, model, cfg.beta_star, seeds.frame_for(cls), rngs[cls.index]
        )
        if cfg.burn_in:
            chain.run(cfg.burn_in, accumulate=False)
        chain.run(cfg.n_sample)
        chain.verify_confinement()
        scores[cls] = chain.estimate
        ses[cls] = batch_means_se(chain._batch_sums)
    cls = _pick_class(scores)
    return DecoderVerdict(cls, scores, seeds.frame_for(cls), detail={"se": ses})


def distinguishability(
    scores: dict[EquivalenceClass, float], true_class: EquivalenceClass | None
) -> float:
    """min over false classes of <n> minus <n> of the true class.

    Positive means the syndrome is correctable; requires knowing the true
    class, so this only exists in simulation mode.
    """
    if true_class is None:
        raise InvalidParameterError("distinguishability needs the true class")
    false_min = min(v for c, v in scores.items() if c != true_class)
    return false_min - scores[true_class]


def zero_temperature_score(model: NoiseModel, layout: CodeLayout) -> float:
    """Exact <n> at beta = 0 (uniform over the orbit), per qubit marginals.

    Every qubit sees the full local Pauli group uniformly, so the depolarizing
    count averages (3/4) n_qubits; the independent-noise count (sigma-y in
    both species) averages n_qubits.
    """
    if model.kind == INDEPENDENT_XZ:
        return float(layout.n_qubits)
    return 0.75 * layout.n_qubits


def free_energy_temperatures(model: NoiseModel, count: int = 21) -> np.ndarray:
    """Equidistant inverse-temperature grid on [0, beta_bar], odd point count."""
    if count < 3 or count % 2 == 0:
        raise InvalidParameterError(f"temperature count must be odd and >= 3, got {count}")
    return np.linspace(0.0, beta_bar(model), count)


@dataclass(frozen=True)
class FreeEnergyEstimate:
    betas: np.ndarray
    means: np.ndarray
    ses: np.ndarray
    integral: float
    integral_se: float
    log_z: float = field(default=math.nan)


def decode_free_energy(
    layout: CodeLayout,
    syndrome: Syndrome,
    model: NoiseModel,
    temps: np.ndarray,
    n_sample: int,
    seeds: ClassChainSet,
    seed_seq: np.random.SeedSequence,
) -> DecoderVerdict:
    """Thermodynamic-integration decoder.

    Samples <n> per class at each positive grid temperature (n_sample steps
    each, fresh chain from the class seed), substitutes the closed form at
    beta = 0, integrates with composite Simpson, and corrects per the class
    with the smallest integral, i.e. the largest log Z = n_stab log 2 -
    integral.  Per-class estimates are attached as ``detail["free_energy"]``.
    """
    temps = np.asarray(temps, dtype=float)
    if len(temps) < 3 or len(temps) % 2 == 0:
        raise InvalidParameterError("temperature grid must have an odd count >= 3")
    if temps[0] != 0.0:
        raise InvalidParameterError("temperature grid must start at beta = 0")
    steps = np.diff(temps)
    if not np.allclose(steps, steps[0]):
        raise InvalidParameterError("temperature grid must be equidistant")

    from scipy.integrate import simpson  # here, not at the top: slow to import

    rngs = _class_chain_rngs(seed_seq)
    h = float(steps[0])
    simpson_coef = np.ones(len(temps))
    simpson_coef[1:-1:2] = 4.0
    simpson_coef[2:-1:2] = 2.0
    simpson_coef *= h / 3.0

    estimates: dict[EquivalenceClass, FreeEnergyEstimate] = {}
    scores: dict[EquivalenceClass, float] = {}
    for cls in EQUIV_CLASSES:
        means = np.empty(len(temps))
        ses = np.zeros(len(temps))
        means[0] = zero_temperature_score(model, layout)
        for k, beta in enumerate(temps[1:], start=1):
            chain = MetropolisChain(
                layout, model, float(beta), seeds.frame_for(cls), rngs[cls.index]
            )
            chain.run(n_sample)
            chain.verify_confinement()
            means[k] = chain.estimate
            ses[k] = batch_means_se(chain._batch_sums)
        integral = float(simpson(means, x=temps))
        # NaN as soon as one positive-temperature chain has no standard error
        integral_se = float(np.sqrt(np.sum((simpson_coef * ses) ** 2)))
        log_z = layout.n_stab * math.log(2.0) - integral
        estimates[cls] = FreeEnergyEstimate(temps, means, ses, integral, integral_se, log_z)
        scores[cls] = integral

    cls = _pick_class(scores)
    return DecoderVerdict(
        cls, scores, seeds.frame_for(cls), detail={"free_energy": estimates}
    )


# ---------------------------------------------------------------------------
# rectangle-partition parallel sweep


@dataclass(frozen=True)
class SweepRectangle:
    index: int
    row_band: tuple[int, int]  # inclusive grid-coordinate range
    col_band: tuple[int, int]
    group: int
    stab_indices: tuple[int, ...]
    qubit_mask: int


@dataclass(frozen=True)
class ParallelSweepSchedule:
    rectangle_size: int
    row_bounds: tuple[int, ...]
    col_bounds: tuple[int, ...]
    rectangles: tuple[SweepRectangle, ...]
    groups: tuple[tuple[int, ...], ...]  # non-empty groups, cycled in order
    qubit_discounts: tuple[float, ...]   # 1 / (number of containing rectangles)
    degenerate: bool

    def discounted_rectangle_counts(self, frame: PauliFrame) -> list[float]:
        """Per-rectangle error counts with shared-line qubits discounted by 1/2
        and corner qubits by 1/4; their sum equals the frame weight."""
        support = frame.x | frame.z
        out = []
        for rect in self.rectangles:
            bits = support & rect.qubit_mask
            total = 0.0
            while bits:
                q = (bits & -bits).bit_length() - 1
                total += self.qubit_discounts[q]
                bits &= bits - 1
            out.append(total)
        return out

    def dump_text(self) -> str:
        n_rows = len(self.row_bounds) - 1
        n_cols = len(self.col_bounds) - 1
        lines = [
            f"parallel sweep: {n_rows}x{n_cols} rectangles, size={self.rectangle_size} "
            f"cells, degenerate={self.degenerate}"
        ]
        for rect in self.rectangles:
            lines.append(
                f"rect {rect.index} rows={rect.row_band} cols={rect.col_band} "
                f"group={rect.group} stabs={len(rect.stab_indices)}"
            )
        grid = []
        for i in range(n_rows):
            row = " ".join(
                f"{i * n_cols + j}:g{self.rectangles[i * n_cols + j].group}"
                for j in range(n_cols)
            )
            grid.append(row)
        return "\n".join(lines + grid) + "\n"


def _band_bounds(span: int, band_units: int) -> list[int]:
    bounds = list(range(0, span, band_units))
    bounds.append(span)
    if len(bounds) >= 3 and bounds[-1] - bounds[-2] < 2:
        del bounds[-2]  # undersized trailing band merges into its neighbor
    return bounds


def parallel_sweep_schedule(layout: CodeLayout, rectangle_size: int = 4) -> ParallelSweepSchedule:
    """Tile the code into rectangles of ``rectangle_size`` stabilizer cells.

    Adjacent rectangles overlap along qubit lines; the four-coloring by
    (row parity, column parity) guarantees that rectangles of one group share
    no qubits, so their stabilizers can be probed concurrently.  A rectangle
    larger than the code degenerates to a single-rectangle schedule that is
    probed every step (sequential behavior).
    """
    if rectangle_size < 2:
        raise InvalidParameterError(f"rectangle_size must be >= 2, got {rectangle_size}")
    span = layout.span
    units = 2 * rectangle_size
    row_bounds = _band_bounds(span, units)
    col_bounds = _band_bounds(span, units)
    n_rows = len(row_bounds) - 1
    n_cols = len(col_bounds) - 1

    def band_of(bounds: list[int], v: int) -> int:
        return min(bisect_right(bounds, v) - 1, len(bounds) - 2)

    rect_stabs: list[list[int]] = [[] for _ in range(n_rows * n_cols)]
    for s in layout.stabilizers:
        r, c = s.coord
        rect_stabs[band_of(row_bounds, r) * n_cols + band_of(col_bounds, c)].append(s.index)

    qubit_mult = [0] * layout.n_qubits
    rectangles = []
    for i in range(n_rows):
        for j in range(n_cols):
            mask = 0
            r_lo, r_hi = row_bounds[i], row_bounds[i + 1]
            c_lo, c_hi = col_bounds[j], col_bounds[j + 1]
            for q, (r, c) in enumerate(layout.qubit_coords):
                if r_lo <= r <= r_hi and c_lo <= c <= c_hi:
                    mask |= 1 << q
                    qubit_mult[q] += 1
            rectangles.append(
                SweepRectangle(
                    index=i * n_cols + j,
                    row_band=(r_lo, r_hi),
                    col_band=(c_lo, c_hi),
                    group=2 * (i % 2) + (j % 2),
                    stab_indices=tuple(rect_stabs[i * n_cols + j]),
                    qubit_mask=mask,
                )
            )

    groups: list[list[int]] = [[] for _ in range(4)]
    for rect in rectangles:
        groups[rect.group].append(rect.index)
    nonempty = tuple(tuple(g) for g in groups if g)
    return ParallelSweepSchedule(
        rectangle_size=rectangle_size,
        row_bounds=tuple(row_bounds),
        col_bounds=tuple(col_bounds),
        rectangles=tuple(rectangles),
        groups=nonempty,
        qubit_discounts=tuple(1.0 / m for m in qubit_mult),
        degenerate=len(rectangles) == 1,
    )


@dataclass
class SweepResult:
    estimate: float
    standard_error: float
    steps: int
    frame: PauliFrame


def run_parallel_sweep(
    layout: CodeLayout,
    model: NoiseModel,
    beta: float,
    frame: PauliFrame,
    schedule: ParallelSweepSchedule,
    n_steps: int,
    rng: np.random.Generator,
    burn_in: int = 0,
) -> SweepResult:
    """Estimate <n> with the rectangle-partition schedule.

    Step i probes one uniformly chosen stabilizer in every rectangle of group
    (i mod n_groups); probed stabilizers never share a qubit, so the combined
    update equals the parallel one.  The error count is accumulated after
    every step, once ``burn_in`` steps have been discarded.
    """
    kernel = MoveKernel(layout, model)
    acc = kernel.acceptance(beta)
    seed_syndrome = layout.syndrome_of(frame)
    seed_class = layout.class_of(frame)

    group_rects = [
        [schedule.rectangles[r].stab_indices for r in group] for group in schedule.groups
    ]
    n_groups = len(group_rects)
    x, z = frame.x, frame.z
    cur = error_score(model, frame)
    cum = 0
    batch_sums: list[tuple[int, int]] = []
    chunk = max(256, n_steps // _CHUNK_BATCHES)
    max_rects = max(len(g) for g in group_rects)

    done = -burn_in
    while done < n_steps:
        todo = min(chunk, n_steps - done) if done >= 0 else -done
        pick = rng.random(size=(todo, max_rects)).tolist()
        us = rng.random(size=(todo, max_rects)).tolist()
        chunk_cum = 0
        for i in range(todo):
            rects = group_rects[(done + i) % n_groups]
            row_pick = pick[i]
            idx = [ids[int(row_pick[k] * len(ids))] for k, ids in enumerate(rects)]
            x, z, cur, _ = kernel.batch(x, z, cur, idx, us[i], acc)
            chunk_cum += cur
        if done >= 0:
            cum += chunk_cum
            batch_sums.append((todo, chunk_cum))
        done += todo

    out = PauliFrame(layout.n_qubits, x, z)
    if layout.syndrome_of(out) != seed_syndrome or layout.class_of(out) != seed_class:
        raise DecoderInternalError("parallel sweep escaped its orbit")
    se = batch_means_se(batch_sums)
    return SweepResult(cum / n_steps, se, n_steps, out)
