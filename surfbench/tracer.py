"""Span recording around surfmc's public layer functions (traced runs only).

Each wrapped call records a span ``(id, name, start, end, parent, trial,
count)`` in memory; ``parent`` is the id of the enclosing wrapped call or -1,
``trial`` identifies the operation (every trial and every oracle syndrome
starts with exactly one ``sample_frame`` call, which opens a new trial id),
and ``count`` is the work a call reports (Metropolis proposals, orbit states).
Wrapped calls may also capture a small payload of their inputs and outputs
for the correctness checks, which run after the timed part.

Campaigns with workers > 1 run trials in forked pool processes, which
inherit the wrappers.  A pool process cannot hand its spans back through
the harness, so it appends them to a spill file each time its outermost
span closes; ``collect`` merges the spill files into the in-memory record.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import pickle
import time

from surfmc import geometry, harness, matching, mcmc, oracle


class Tracer:
    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.owner = os.getpid()
        self._pid = self.owner
        self.spans: list[tuple] = []
        self.captures: list[tuple] = []  # (trial, name, payload)
        self._stack: list[int] = []
        self._next_id = 0
        self._trials = 0
        self.trial = None

    def _adopt_fork(self) -> None:
        # a forked pool process starts with a copy of the parent's record
        self._pid = os.getpid()
        self.spans, self.captures, self._stack = [], [], []
        self._trials = 0

    def wrap(self, name, fn, count=None, capture=None, top_only=False, opens_trial=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if top_only and self._stack:
                return fn(*args, **kwargs)
            if os.getpid() != self._pid:
                self._adopt_fork()
            if opens_trial:
                self.trial = (self._pid, self._trials)
                self._trials += 1
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self.trial,
                               count(*args, **kwargs) if count else 0))
            if capture is not None:
                self.captures.append((self.trial, name, capture(result, *args, **kwargs)))
            if not self._stack and self._pid != self.owner:
                self._spill()
            return result

        return wrapper

    def _spill(self) -> None:
        path = os.path.join(self.spill_dir, f"spill-{self._pid}.pkl")
        with open(path, "ab") as fh:
            pickle.dump((self.spans, self.captures), fh)
        self.spans, self.captures = [], []

    def collect(self) -> list[tuple[list, list]]:
        """Per-process (spans, captures), this process first; removes spill files."""
        out = [(self.spans, self.captures)]
        for fname in sorted(os.listdir(self.spill_dir)):
            if not fname.startswith("spill-"):
                continue
            path = os.path.join(self.spill_dir, fname)
            spans, captures = [], []
            with open(path, "rb") as fh:  # written by this run's own pool processes
                while True:
                    try:
                        s, c = pickle.load(fh)
                    except EOFError:
                        break
                    spans += s
                    captures += c
            os.remove(path)
            out.append((spans, captures))
        return out


def _frame(f) -> tuple[int, int]:
    return f.x, f.z


def _syndrome(s) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return tuple(s.p_anyons), tuple(s.s_anyons)


def _verdict(v) -> tuple:
    return v.cls.label, _frame(v.correction), {c.label: float(x) for c, x in v.scores.items()}


def _chain_set(cs) -> tuple:
    return tuple(_frame(f) for f in cs.frames), tuple(cs.weights)


# capture payloads: plain ints and strings, so pool processes can spill them
def _cap_sample(result, model, layout, rng):
    return layout.L, _frame(result)


def _cap_standard(result, layout, syndrome, model):
    return _syndrome(syndrome), _verdict(result)


def _cap_both(result, layout, syndrome, model, refine_steps=None):
    std, enh, cs = result
    return _syndrome(syndrome), _verdict(std), _verdict(enh), _chain_set(cs)


def _cap_enhanced(result, layout, syndrome, model, refine_steps=None):
    enh, cs = result
    return _syndrome(syndrome), _verdict(enh), _chain_set(cs)


def _cap_refine(result, layout, model, frame, plateau_budget):
    return _frame(frame), _frame(result)


def _cap_sampler(result, layout, syndrome, model, *args):
    return _syndrome(syndrome), _verdict(result)


def _cap_orbit(result, layout, representative):
    return _frame(representative), dict(result.weight_histogram)


def _cap_exact(result, layout, syndrome, model):
    return _syndrome(syndrome), model.p, result.label


def _run_steps(chain, n_steps, accumulate=True):
    return n_steps


def _orbit_states(layout, representative):
    return 1 << layout.n_stab


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    sample = tracer.wrap("noise.sample_frame", harness.sample_frame,
                         capture=_cap_sample, opens_trial=True)
    standard = tracer.wrap("matching.decode_standard", matching.decode_standard,
                           capture=_cap_standard)
    enhanced = tracer.wrap("matching.decode_enhanced", matching.decode_enhanced,
                           capture=_cap_enhanced)
    patches = [
        (harness, "sample_frame", sample),
        (harness, "decode_standard", standard),
        (matching, "decode_standard", standard),
        (harness, "decode_both", tracer.wrap("matching.decode_both", matching.decode_both,
                                             capture=_cap_both)),
        (harness, "decode_enhanced", enhanced),
        (oracle, "decode_enhanced", enhanced),
        (matching, "min_weight_perfect_matching",
         tracer.wrap("matching.min_weight_perfect_matching",
                     matching.min_weight_perfect_matching)),
        (matching, "refine_frame", tracer.wrap("matching.refine_frame", matching.refine_frame,
                                               capture=_cap_refine)),
        (harness, "decode_single_temperature",
         tracer.wrap("mcmc.decode_single_temperature", mcmc.decode_single_temperature,
                     capture=_cap_sampler)),
        (harness, "decode_free_energy",
         tracer.wrap("mcmc.decode_free_energy", mcmc.decode_free_energy,
                     capture=_cap_sampler)),
        (mcmc.MetropolisChain, "__init__",
         tracer.wrap("mcmc.chain_init", mcmc.MetropolisChain.__init__)),
        (mcmc.MetropolisChain, "run",
         tracer.wrap("mcmc.run", mcmc.MetropolisChain.run, count=_run_steps)),
        (mcmc.MetropolisChain, "verify_confinement",
         tracer.wrap("mcmc.verify_confinement", mcmc.MetropolisChain.verify_confinement)),
        (harness, "exact_decoder", tracer.wrap("oracle.exact_decoder", oracle.exact_decoder,
                                               capture=_cap_exact)),
        (oracle, "enumerate_orbit", tracer.wrap("oracle.enumerate_orbit", oracle.enumerate_orbit,
                                                count=_orbit_states, capture=_cap_orbit)),
        # only the calls the harness makes itself (syndrome and true class of
        # the sampled frame) are spans; nested checks inside layers are not
        (geometry.CodeLayout, "syndrome_of",
         tracer.wrap("geometry.syndrome_of", geometry.CodeLayout.syndrome_of, top_only=True)),
        (geometry.CodeLayout, "class_of",
         tracer.wrap("geometry.class_of", geometry.CodeLayout.class_of, top_only=True)),
    ]
    saved = []
    for owner, attr, wrapper in patches:
        if attr in vars(owner):
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def write_spans(per_process, path: str) -> None:
    """One JSON line per span: name, start, end, parent id, trial id, count."""
    with open(path, "w", encoding="utf-8") as fh:
        for spans, _ in per_process:
            for sid, name, start, end, parent, trial, count in spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "trial": trial, "count": count}) + "\n")
