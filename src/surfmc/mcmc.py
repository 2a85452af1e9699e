"""Metropolis sampling over stabilizer deformations and the MCMC decoders.

A chain deforms an error frame only by multiplying stabilizers, so its
syndrome and equivalence class are invariants; at inverse temperature beta it
samples frames with probability proportional to exp(-beta * n), where n is the
model's error count (sigma-y counts once for depolarizing noise and twice, once
per species, for independent bit and phase flips).  One step
picks a stabilizer uniformly at random, computes the count change Delta n on
its 3-4 support qubits, applies it when Delta n <= 0 and with probability
exp(-beta * Delta n) otherwise, then accumulates the post-move count.
``MetropolisChain`` reads Delta n from a table indexed by the stabilizer's
local state (the x and z bits of its support, at most 8 bits) and updates
the local states of the at most nine overlapping stabilizers only when a
move is accepted.  The table and the layout's local-state machinery live in
``noise``, next to ``score_delta`` from which the table is built; the
refinement descent in ``matching`` reads the same table, and the spacetime
chain calls ``score_delta`` directly.

Hot chains take a second loop.  Near beta = 0 most moves are accepted, and
each accepted move of the table loop updates up to nine local states, while
the count of the whole proposed frame (one XOR, one OR and one
``bit_count`` for depolarizing noise; one XOR and a ``bit_count`` of the
moved plane for independent noise) costs the same at any beta.  So ``run``
takes this frame loop below ``_FRAME_LOOP_BELOW`` = 1.25, where it was
measured faster (at L = 5-11, 120-140 ns per step against about 340 for the
table loop at beta = 0.15), and leaves the local states stale; at and above
it, where most moves are rejected, the table loop stays: about twice as fast
at beta_bar.  A chain's beta changes only at a restart, which restores the
seed's states, so the table loop of ``run`` never meets stale states; only
``step``, which takes the table loop at any beta, rebuilds them, and a hot
run that a restart follows rebuilds nothing.  Both loops make the same
decisions on the same draws, so the choice moves no output.

The accept test works on integer acceptance levels.  A uniform draw u in
[0, 1) has level k, the number of the four thresholds exp(-beta * d),
d = 1..4, that lie above it; since the thresholds fall with d, u <
exp(-beta * Delta n) iff Delta n <= k, and every Delta n <= 0 is accepted
(k >= 0).  The levels of a block of draws come from one ``np.searchsorted``
against the thresholds in ascending order, which makes the same IEEE
comparisons as testing u against each threshold: beta = 0 gives k = 4
(every move accepted), beta = inf gives k = 0 (only non-increasing moves).
The loop reads its feed packed: the levels as ``bytes``, one per draw, and
the stabilizer indices as an ``array`` of the generator's int64 draws, so no
list of Python ints is built per block and no index is narrowed at any code
size.  The draws themselves, their order and their sizes are those of the
reference loop (``tests/helpers.py``).

Both sampling decoders run one chain per equivalence class, on that class's
random stream, and restart it from the class's minimum-weight hypothesis at
each inverse temperature they sample.  Their fixed costs are paid once per
class, not once per temperature: before the chain's first run,
``_class_means`` draws the blocks of every run the class will make (a feed of
at most ``_FEED_DRAWS`` draws at a time), with the calls ``run`` would make,
in the same order, and turns all their uniforms into levels in one pass over a
matrix with one row per temperature.  ``run`` is still called once per
temperature and burn-in, and takes its blocks from the feed; the draws, and so
every output, are those of runs that draw their own.  A class sampled at a
single temperature (the single-temperature decoder) has no feed: there is
nothing to share, and its runs draw as they go.  The single-temperature
decoder samples beta* alone and picks the class with the smallest average
count; the free-energy variant instead integrates the average count over an
equidistant temperature grid with Simpson's rule.  A rectangle partition of
the code allows many non-overlapping stabilizers to be probed per step for
parallel operation; that sweep drives a ``MetropolisChain`` with the
partition's proposals, drawn per block in numpy and fed to the loop one step
at a time.
"""

from __future__ import annotations

import functools
import math
from array import array
from bisect import bisect_right
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import DecoderInternalError, InvalidParameterError, _check_count, _check_number
from .geometry import CLASS_I, EQUIV_CLASSES, CodeLayout, EquivalenceClass, PauliFrame, Syndrome
from .matching import ClassChainSet, DecoderVerdict, _pick_class
from .noise import INDEPENDENT_XZ, NoiseModel, _delta_table, _layout_moves, beta_bar, error_score
from .stats import simpson_sum, simpson_terms

_CHUNK_BATCHES = 32
# the most draws a chain's pending feed holds (``MetropolisChain._prefetch``):
# one class's whole free-energy grid at L = 5 (20 x 625), six temperatures of
# it at L = 7; when fewer than two temperatures fit, ``run`` draws its own
_FEED_DRAWS = 1 << 14
# ``run`` takes the frame loop below this inverse temperature and the table
# loop at or above it: the measured crossover of their per-step costs, 1.12 to
# 1.31 at L = 5-11 for both noise kinds (README, Notes)
_FRAME_LOOP_BELOW = 1.25


@dataclass(frozen=True)
class SingleTempConfig:
    """Parameters of the single-temperature decoder."""

    beta_star: float
    n_sample: int
    burn_in: int = 0

    def __post_init__(self):
        _check_number("beta_star", self.beta_star, 0)
        _check_count("n_sample", self.n_sample, 1)
        _check_count("burn_in", self.burn_in, 0)


def default_single_temp_config(
    model: NoiseModel,
    layout: CodeLayout,
    n_sample: int | None = None,
    beta_star_factor: float | None = None,
    burn_in: int = 0,
) -> SingleTempConfig:
    """beta* = beta_bar (0.85 * beta_bar for independent noise), n_sample = L^4.

    The only place these defaults are resolved: campaigns and the oracle
    check build their sampler settings here.
    """
    if beta_star_factor is None:
        beta_star_factor = 0.85 if model.kind == INDEPENDENT_XZ else 1.0
    if n_sample is None:
        n_sample = layout.L ** 4
    return SingleTempConfig(beta_star_factor * beta_bar(model), n_sample, burn_in)


def _chunk_sizes(n_steps: int) -> list[int]:
    """The sizes of the blocks in which ``run`` draws ``n_steps`` proposals."""
    chunk = max(1024, n_steps // _CHUNK_BATCHES)
    full, rest = divmod(n_steps, chunk)
    return [chunk] * full + ([rest] if rest else [])


def batch_means_se(batch_sums: list[tuple[int, int]]) -> float:
    """Batch-means standard error of a mean count from (steps, summed count)
    batches; only batches as long as the first count, NaN with fewer than two."""
    means = [c / s for s, c in batch_sums if s == batch_sums[0][0]]
    if len(means) < 2:
        return math.nan
    return float(np.std(means, ddof=1) / math.sqrt(len(means)))


@functools.lru_cache(maxsize=256)
def _thresholds(beta: float) -> np.ndarray:
    """The acceptance probabilities exp(-beta * d) of Delta n = d = 4, 3, 2, 1,
    in ascending order for ``np.searchsorted``; read-only, shared by every
    chain at ``beta``."""
    # Delta n of a single 3-4 qubit stabilizer move is at most 4
    thresholds = np.array([math.exp(-beta * d) for d in (4, 3, 2, 1)])
    thresholds.setflags(write=False)
    return thresholds


@functools.lru_cache(maxsize=16)
def _threshold_columns(betas: tuple[float, ...]) -> tuple[np.ndarray, ...]:
    """``_thresholds`` of every beta of ``betas`` as four read-only columns,
    one per Delta n, to compare against a matrix with one row per beta."""
    rows = np.array([_thresholds(beta) for beta in betas])
    columns = tuple(np.ascontiguousarray(rows[:, [d]]) for d in range(4))
    for column in columns:
        column.setflags(write=False)
    return columns


def _feed_levels(betas: list[float], us: np.ndarray) -> bytes:
    """The acceptance levels of uniform draws, one byte per draw: ``us`` holds
    as many equal rows as ``betas`` (one after the other, in C order), and
    row i is drawn at ``betas[i]``.  One comparison per threshold column over
    the whole matrix, each the same IEEE comparison as testing u against a
    threshold, so the levels equal those of ``_levels`` row by row."""
    us = us.reshape(len(betas), -1)
    above = [(us < column).view(np.uint8) for column in _threshold_columns(tuple(betas))]
    return (above[0] + above[1] + above[2] + above[3]).tobytes()


class MetropolisChain:
    """One Markov chain over the stabilizer orbit of its seed frame.

    The chain owns its frame, error count and the local states of its
    stabilizers (single writer) and keeps them across calls; a frame of
    another layout is rejected.  The seed frame is kept as given (frames are
    immutable values), and its local states and count are computed once;
    ``_restart``, which the constructor ends in and the decoders call at each
    temperature, returns to them at a new beta with empty tallies.
    ``_moves`` is the Metropolis loop: it reads
    Delta n from the model's table (``noise.score_delta`` on every local
    state, built once per model kind) and accepts a move iff Delta n is at
    most the acceptance level of its uniform draw (``_levels``: the number of
    thresholds exp(-beta * d), d = 1..4, above the draw).  An accepted move
    XORs its flip list into the states of the at most nine stabilizers that
    share a qubit with it (built once per layout).  ``run`` is the bulk
    sampler.  Below beta = ``_FRAME_LOOP_BELOW`` it runs ``_frame_moves``
    instead, which accepts on the count of the whole proposed frame against
    the same level and keeps no local states; it marks them stale.  Its
    beta changes only at a restart, which restores the seed's states, so
    ``run``'s table loop never meets stale states, and only ``step`` (the
    table loop at any beta) rebuilds them, through ``_local_states``.
    ``_moves`` does not check: the sweep calls it once per step, on a chain
    that never runs hot.  Each loop is the faster one on its side of that
    beta, and the two decide alike.  ``run`` draws its blocks itself, or
    takes them from the chain's feed, which ``_prefetch`` fills with the same
    draws for the coming calls, their levels computed in one pass; a call at
    another beta or size than the feed was drawn for raises
    ``DecoderInternalError``.  ``step`` is the table loop on a single
    proposal, and records no batch for ``standard_error``.  The rectangle
    sweep makes its own proposals through the table loop.  ``estimate`` is
    the running average of the error count over all proposals since the end
    of burn-in; by default nothing is discarded, since heating up from a
    minimum-weight seed is faster than cooling from a random one.
    """

    def __init__(
        self,
        layout: CodeLayout,
        model: NoiseModel,
        beta: float,
        frame: PauliFrame,
        rng: np.random.Generator,
    ):
        self.layout = layout
        self.rng = rng
        self._local = _layout_moves(layout)
        self._table = _delta_table(model.kind)
        self._independent = model.kind == INDEPENDENT_XZ
        self._seed = frame
        self._seed_states = self._local.local_states(frame)
        self._seed_n = error_score(model, frame)
        # (beta, n_steps, blocks) of the coming run calls (``_prefetch``)
        self._feed: deque[tuple[float, int, list[tuple[array, bytes]]]] = deque()
        self._restart(beta)

    def _restart(self, beta: float) -> None:
        """Return to the seed frame, its local states and count at inverse
        temperature ``beta``, with empty tallies; draws nothing from ``rng``."""
        _check_number("beta", beta, 0)
        self._beta = beta
        self._thresholds = _thresholds(beta)
        self._x = self._seed.x
        self._z = self._seed.z
        self._states = self._seed_states.copy()
        self._n = self._seed_n
        self.step_count = 0
        self.cumulative_n = 0
        self._batch_sums: list[tuple[int, int]] = []  # (steps, summed counts)

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
        # scalar and size-1 block draws continue the stream alike, so this is
        # run(1) without the batch record
        s = int(self.rng.integers(0, len(self._local.masks)))
        levels = self._levels(self.rng.random(size=1))
        self._local_states()
        self.cumulative_n += self._moves([s], levels)
        self.step_count += 1

    def _local_states(self) -> list[int]:
        """The local states of the current frame.  A hot ``run`` leaves them
        stale (None), and they are rebuilt here when ``step`` needs them; a
        restart or another hot run may come first."""
        if self._states is None:
            self._states = self._local.local_states(self.frame)
        return self._states

    def _levels(self, us: np.ndarray) -> bytes:
        """Acceptance levels of the uniform draws ``us``, one byte (0-4) per
        draw in C order: the number of thresholds exp(-beta * d), d = 1..4,
        above each draw."""
        below = self._thresholds.searchsorted(us, side="right")
        return (4 - below).astype(np.uint8).tobytes()

    def _moves(self, idx: Iterable[int], levels: Iterable[int]) -> int:
        """Propose the stabilizers ``idx`` in turn, accepting a move iff its
        Delta n is at most the acceptance level of its draw; returns the
        summed post-move counts."""
        local = self._local
        masks = local.masks
        x_kind = local.x_kind
        flips = local.flips
        table = self._table
        states = self._states
        x, z, n = self._x, self._z, self._n
        cum = 0
        for s, k in zip(idx, levels):
            d = table[states[s]]
            if d <= k:
                n += d
                if x_kind[s]:
                    x ^= masks[s]
                else:
                    z ^= masks[s]
                for t, bits in flips[s]:
                    states[t] ^= bits
            cum += n
        self._x, self._z, self._n = x, z, n
        return cum

    def _frame_moves(self, idx: Iterable[int], levels: Iterable[int]) -> int:
        """``_moves`` without local states: each proposal's count is that of
        the whole proposed frame, compared with the current count plus the
        acceptance level.  Leaves ``_states`` stale; ``run`` marks them so."""
        local = self._local
        masks = local.masks
        x_kind = local.x_kind
        x, z, n = self._x, self._z, self._n
        cum = 0
        if self._independent:
            # sigma-y counts in both planes: a move changes only its own
            # plane's count
            nx = x.bit_count()
            nz = n - nx
            for s, k in zip(idx, levels):
                if x_kind[s]:
                    y = x ^ masks[s]
                    c = y.bit_count()
                    if c <= nx + k:
                        x, nx = y, c
                else:
                    y = z ^ masks[s]
                    c = y.bit_count()
                    if c <= nz + k:
                        z, nz = y, c
                cum += nx + nz
            n = nx + nz
        else:
            for s, k in zip(idx, levels):
                if x_kind[s]:
                    y = x ^ masks[s]
                    c = (y | z).bit_count()
                    if c <= n + k:
                        x, n = y, c
                else:
                    y = z ^ masks[s]
                    c = (x | y).bit_count()
                    if c <= n + k:
                        z, n = y, c
                cum += n
        self._x, self._z, self._n = x, z, n
        return cum

    def run(self, n_steps: int, accumulate: bool = True) -> None:
        """Advance by ``n_steps`` proposals (tight loop, block-drawn randomness).

        The blocks come from the feed when ``_prefetch`` queued this call,
        which must then be at the beta and size it was drawn for; otherwise
        they are drawn here, one block at a time."""
        _check_count("n_steps", n_steps, 0)
        if self._feed:
            beta, size, blocks = self._feed.popleft()
            if beta != self._beta or size != n_steps:
                raise DecoderInternalError(
                    f"the feed holds {size} steps at beta = {beta}, "
                    f"run asks for {n_steps} at beta = {self._beta}"
                )
        else:
            blocks = self._draw(n_steps)
        if self._beta < _FRAME_LOOP_BELOW:
            moves = self._frame_moves
            self._states = None
        else:
            moves = self._moves
        for idx, levels in blocks:
            cum = moves(idx, levels)
            if accumulate:
                self._accumulate(len(idx), cum)

    def _draw(self, n_steps: int) -> Iterator[tuple[array, bytes]]:
        """The blocks of ``n_steps`` proposals, each drawn when it is needed:
        the stabilizer indices, then the uniforms turned into levels."""
        n_stab = len(self._local.masks)
        for todo in _chunk_sizes(n_steps):
            idx = array("q", self.rng.integers(0, n_stab, size=todo).tobytes())
            yield idx, self._levels(self.rng.random(size=todo))

    def _prefetch(self, betas: list[float], sizes: list[int]) -> None:
        """Queue the blocks of the coming ``run`` calls: one call per entry of
        ``sizes`` at each of ``betas`` in turn.

        The draws are those the calls would make, in the same order; the
        uniforms of each beta fill one row of a matrix, and all rows become
        acceptance levels in one pass (``_feed_levels``).  Each call then
        finds its blocks in the feed."""
        n_stab = len(self._local.masks)
        integers, random = self.rng.integers, self.rng.random
        us = np.empty(len(betas) * sum(sizes))
        calls = []
        start = 0
        for beta in betas:
            for size in sizes:
                blocks = []
                for todo in _chunk_sizes(size):
                    end = start + todo
                    idx = array("q", integers(0, n_stab, size=todo).tobytes())
                    blocks.append((idx, start, end))
                    random(out=us[start:end])
                    start = end
                calls.append((beta, size, blocks))
        levels = _feed_levels(betas, us)
        for beta, size, blocks in calls:
            self._feed.append((beta, size, [(idx, levels[a:b]) for idx, a, b in blocks]))

    def _accumulate(self, steps: int, cum: int) -> None:
        """Record one batch of ``steps`` steps whose post-move counts sum to ``cum``."""
        self.step_count += steps
        self.cumulative_n += cum
        self._batch_sums.append((steps, cum))

    def verify_confinement(self) -> None:
        """Assert the chain never left its seed's syndrome/class orbit.

        Syndrome and class are XOR-linear, so the frame stays in the orbit
        iff its product with the seed frame violates no check and has class I.
        """
        moved = PauliFrame(self.layout.n_qubits, self._x ^ self._seed.x, self._z ^ self._seed.z)
        if self.layout.check_parities(moved) != (0, 0):
            raise DecoderInternalError("chain escaped its syndrome orbit")
        if self.layout.class_of(moved) != CLASS_I:
            raise DecoderInternalError("chain escaped its equivalence class")


def _class_chain_rngs(seed_seq: np.random.SeedSequence) -> list[np.random.Generator]:
    return [np.random.Generator(np.random.PCG64(child)) for child in seed_seq.spawn(4)]


def _class_means(
    layout: CodeLayout,
    model: NoiseModel,
    betas: list[float],
    seeds: ClassChainSet,
    seed_seq: np.random.SeedSequence,
    n_sample: int,
    burn_in: int = 0,
) -> dict[EquivalenceClass, tuple[list[float], list[float]]]:
    """Per class, <n> and its batch-means SE (NaN with fewer than two full
    batches) at each of ``betas``.

    One chain per class, on the class's stream, is restarted from the class
    seed at every beta and run for ``burn_in`` then ``n_sample`` steps; its
    confinement is checked after every beta, since the next restart would
    hide an escape.  With several betas, the draws of as many of them as
    ``_FEED_DRAWS`` holds are made before the first of them runs
    (``MetropolisChain._prefetch``).
    """
    rngs = _class_chain_rngs(seed_seq)
    sizes = [burn_in, n_sample] if burn_in else [n_sample]
    per_feed = _FEED_DRAWS // (burn_in + n_sample)  # temperatures drawn at once
    if len(betas) < 2 or per_feed < 2:
        per_feed = 0  # a feed of one temperature saves nothing: run draws its own
    sampled = {}
    for cls in EQUIV_CLASSES:
        chain = MetropolisChain(layout, model, betas[0], seeds.frame_for(cls), rngs[cls.index])
        means, ses = [], []
        for k, beta in enumerate(betas):
            if per_feed and k % per_feed == 0:
                chain._prefetch(betas[k:k + per_feed], sizes)
            chain._restart(beta)
            if burn_in:
                chain.run(burn_in, accumulate=False)
            chain.run(n_sample)
            chain.verify_confinement()
            means.append(chain.estimate)
            ses.append(batch_means_se(chain._batch_sums))
        sampled[cls] = (means, ses)
    return sampled


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
    sampled = _class_means(
        layout, model, [cfg.beta_star], seeds, seed_seq, cfg.n_sample, cfg.burn_in
    )
    scores = {cls: means[0] for cls, (means, _) in sampled.items()}
    ses = {cls: se[0] for cls, (_, se) in sampled.items()}
    cls = _pick_class(scores)
    return DecoderVerdict(cls, scores, seeds.frame_for(cls), detail={"se": ses})


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
    _check_count("temperature count", count, 3)
    if count % 2 == 0:
        raise InvalidParameterError(f"temperature count must be odd, got {count!r}")
    return np.linspace(0.0, beta_bar(model), count)


@dataclass(frozen=True)
class FreeEnergyEstimate:
    betas: np.ndarray
    means: np.ndarray
    ses: np.ndarray
    integral: float
    integral_se: float
    log_z: float = field(default=math.nan)


@functools.lru_cache(maxsize=16)
def _grid_weights(temps: tuple[float, ...]) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Check a free-energy temperature grid, and compute once per grid what
    depends on it alone: its Simpson terms and the Simpson weights of the
    integral's standard error (all read-only)."""
    for beta in temps:
        _check_number("temperature grid entries", beta, 0)
    grid = np.array(temps)
    if len(grid) < 3 or len(grid) % 2 == 0:
        raise InvalidParameterError("temperature grid must have an odd count >= 3")
    if grid[0] != 0.0:
        raise InvalidParameterError("temperature grid must start at beta = 0")
    steps = np.diff(grid)
    if not np.allclose(steps, steps[0]):
        raise InvalidParameterError("temperature grid must be equidistant")
    h = float(steps[0])
    simpson_coef = np.ones(len(grid))
    simpson_coef[1:-1:2] = 4.0
    simpson_coef[2:-1:2] = 2.0
    simpson_coef *= h / 3.0
    terms = simpson_terms(grid)
    for weights in (*terms, simpson_coef):
        weights.setflags(write=False)
    return terms, simpson_coef


def decode_free_energy(
    layout: CodeLayout,
    syndrome: Syndrome,
    model: NoiseModel,
    temps: np.ndarray,
    n_sample: int,
    seeds: ClassChainSet,
    seed_seq: np.random.SeedSequence,
    burn_in: int = 0,
) -> DecoderVerdict:
    """Thermodynamic-integration decoder.

    Samples <n> per class at each positive grid temperature (``burn_in``
    discarded steps, then n_sample steps, from one chain per class restarted
    from the class seed at every temperature), substitutes the closed form at
    beta = 0, integrates with composite Simpson, and corrects per the class
    with the smallest integral, i.e. the largest log Z = n_stab log 2 -
    integral.  Per-class estimates are attached as ``detail["free_energy"]``.
    """
    _check_count("n_sample", n_sample, 1)
    _check_count("burn_in", burn_in, 0)
    if not (isinstance(temps, np.ndarray) and temps.dtype.kind == "f"):
        # a float array holds reals, which ``_grid_weights`` checks once per grid
        for beta in np.asarray(temps, dtype=object).flat:
            _check_number("temperature grid entries", beta, 0)
    temps = np.asarray(temps, dtype=float)
    if temps.ndim != 1:
        raise InvalidParameterError(
            f"temperature grid must be one-dimensional, got shape {temps.shape}"
        )
    betas = temps.tolist()
    terms, simpson_coef = _grid_weights(tuple(betas))

    sampled = _class_means(layout, model, betas[1:], seeds, seed_seq, n_sample, burn_in)
    estimates: dict[EquivalenceClass, FreeEnergyEstimate] = {}
    scores: dict[EquivalenceClass, float] = {}
    for cls, (sampled_means, sampled_ses) in sampled.items():
        means = np.array([zero_temperature_score(model, layout), *sampled_means])
        ses = np.array([0.0, *sampled_ses])
        integral = simpson_sum(means, terms)
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
    degenerate: bool

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
    _check_count("rectangle_size", rectangle_size, 2)
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

    rectangles = []
    for i in range(n_rows):
        for j in range(n_cols):
            mask = 0
            r_lo, r_hi = row_bounds[i], row_bounds[i + 1]
            c_lo, c_hi = col_bounds[j], col_bounds[j + 1]
            for q, (r, c) in enumerate(layout.qubit_coords):
                if r_lo <= r <= r_hi and c_lo <= c <= c_hi:
                    mask |= 1 << q
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
    every step, once ``burn_in`` steps have been discarded.  The moves are
    those of a ``MetropolisChain``, which keeps the frame, its local states
    and count for the whole run and checks its confinement at the end.
    """
    _check_count("n_steps", n_steps, 1)
    _check_count("burn_in", burn_in, 0)
    if schedule.row_bounds[-1] != layout.span or schedule.col_bounds[-1] != layout.span:
        raise InvalidParameterError(
            f"the schedule tiles a code of span {schedule.row_bounds[-1]}, "
            f"the layout has span {layout.span}"
        )
    chain = MetropolisChain(layout, model, beta, frame, rng)
    groups = [[schedule.rectangles[r].stab_indices for r in group] for group in schedule.groups]
    n_groups = len(groups)
    widths = [len(rects) for rects in groups]  # proposals per step
    max_rects = max(widths)
    # per group and rectangle slot: its stabilizer count and where its
    # stabilizers start in ``flat`` (0 and 0 in the unused slots)
    flat = np.array([s for rects in groups for ids in rects for s in ids])
    counts = np.zeros((n_groups, max_rects))
    starts = np.zeros((n_groups, max_rects), dtype=np.intp)
    offset = 0
    for g, rects in enumerate(groups):
        for k, ids in enumerate(rects):
            counts[g, k] = len(ids)
            starts[g, k] = offset
            offset += len(ids)
    chunk = max(256, n_steps // _CHUNK_BATCHES)

    done = -burn_in
    while done < n_steps:
        todo = min(chunk, n_steps - done) if done >= 0 else -done
        step_groups = (done + np.arange(todo)) % n_groups
        # truncating the float64 product u * count picks as int(u * count)
        picks = (rng.random(size=(todo, max_rects)) * counts[step_groups]).astype(np.intp)
        stabs = flat[starts[step_groups] + picks].ravel().tolist()
        levels = chain._levels(rng.random(size=(todo, max_rects)))
        chunk_cum = 0
        for i, g in enumerate(step_groups.tolist()):
            row = i * max_rects
            chain._moves(stabs[row:row + widths[g]], levels[row:row + max_rects])
            chunk_cum += chain.current_n
        if done >= 0:
            chain._accumulate(todo, chunk_cum)
        done += todo

    chain.verify_confinement()
    return SweepResult(
        chain.estimate, batch_means_se(chain._batch_sums), n_steps, chain.frame
    )
