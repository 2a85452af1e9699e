"""Per-layer metrics and output checks computed from a traced run's spans."""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np

import surfmc
from surfmc.harness import ENHANCED, FREE_ENERGY, SINGLE_TEMP, STANDARD

import reference as ref

#: decode_standard weights are checked against the subset DP on syndromes
#: whose species both have at most this many anyons (2^12 DP states)
DP_MAX_ANYONS = 12

# spans whose time counts as "sample + syndrome" of a trial
_SAMPLE_SPANS = ("noise.sample_frame", "geometry.syndrome_of", "geometry.class_of")
_CLASS_FORCED = ("matching.decode_both", "matching.decode_enhanced")


def layer_metrics(per_process, out, import_s: float) -> dict:
    """Every per-layer metric, per trial (one oracle syndrome counts as a trial)."""
    total = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    solver_us: list[float] = []
    class_forced = 0.0
    trials = set()
    top_level = defaultdict(float)  # trial -> time inside outermost layer calls
    for spans, _ in per_process:
        children = defaultdict(list)
        for span in spans:
            children[span[4]].append(span)
        for sid, name, start, end, parent, trial, count in spans:
            dur = end - start
            total[name] += dur
            calls[name] += 1
            work[name] += count
            if parent == -1:
                top_level[trial] += dur
            if name == "noise.sample_frame":
                trials.add(trial)
            elif name == "matching.min_weight_perfect_matching":
                solver_us.append(dur * 1e6)
            elif name in _CLASS_FORCED:
                inner = sum(c[3] - c[2] for c in children[sid]
                            if c[1] in ("matching.decode_standard", "matching.refine_frame"))
                class_forced += dur - inner
    n = max(1, len(trials))
    per_trial_ms = {k: total[k] * 1e3 / n for k in total}
    steps = work["mcmc.run"]
    states = work["oracle.enumerate_orbit"]
    chains = calls["mcmc.chain_init"]
    if out.records:  # campaigns: trial wall time as the harness measured it
        busy = sum(r.wall_time for r in out.records)
        done = len(out.records)
    else:
        busy = sum(top_level.values())
        done = n
    metrics = {
        "noise.sample_us": (sum(total[k] for k in _SAMPLE_SPANS) * 1e6 / n, "us"),
        "matching.standard_ms": (per_trial_ms.get("matching.decode_standard", 0.0), "ms"),
        "matching.class_forced_ms": (class_forced * 1e3 / n, "ms"),
        "matching.solver_calls": (calls["matching.min_weight_perfect_matching"] / n, "count"),
        "matching.solver_us_p50": (_pct(solver_us, 50), "us"),
        "matching.solver_us_p90": (_pct(solver_us, 90), "us"),
        "matching.refine_ms": (per_trial_ms.get("matching.refine_frame", 0.0), "ms"),
        "mcmc.steps": (steps / n, "count"),
        "mcmc.ns_per_step": (total["mcmc.run"] * 1e9 / steps if steps else 0.0, "ns"),
        "mcmc.single_temp_ms": (per_trial_ms.get("mcmc.decode_single_temperature", 0.0), "ms"),
        "mcmc.free_energy_ms": (per_trial_ms.get("mcmc.decode_free_energy", 0.0), "ms"),
        "mcmc.chain_overhead_us": (
            (total["mcmc.chain_init"] + total["mcmc.verify_confinement"]) * 1e6 / chains
            if chains else 0.0, "us"),
        "oracle.exact_decoder_ms": (per_trial_ms.get("oracle.exact_decoder", 0.0), "ms"),
        "oracle.orbit_ns_per_state": (
            total["oracle.enumerate_orbit"] * 1e9 / states if states else 0.0, "ns"),
        "harness.busy_share": (busy / out.pool_seconds if out.pool_seconds else 0.0, "ratio"),
        "harness.overhead_ms": ((out.pool_seconds - busy) * 1e3 / max(1, done), "ms"),
        "setup.import_s": (import_s, "s"),
    }
    return metrics


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


class TracedChecks:
    """Checks every traced trial against the reference computations."""

    def __init__(self):
        self._codes: dict[int, ref.RefCode] = {}
        self._orbits: dict[int, ref.DirectOrbit] = {}
        self.failed = 0
        self.notes: list[str] = []
        self.dp_checked = 0
        self.anyons: dict[str, list[int]] = {"p": [], "s": []}
        self.verdict_rows: list[tuple] = []

    def code(self, L: int) -> ref.RefCode:
        if L not in self._codes:
            self._codes[L] = ref.RefCode(L, surfmc.build_layout(L).qubit_coords)
        return self._codes[L]

    def run(self, per_process, algorithms) -> None:
        for _, captures in per_process:
            by_trial: dict = defaultdict(list)
            for trial, name, payload in captures:
                by_trial[trial].append((name, payload))
            for trial, items in by_trial.items():
                problem = self._check_trial(items, algorithms)
                if problem:
                    self.failed += 1
                    if len(self.notes) < 5:
                        self.notes.append(f"trial {trial}: {problem}")

    def _check_trial(self, items, algorithms) -> str | None:
        if items[0][0] != "noise.sample_frame":
            return "trial does not start with sample_frame"
        L, (x, z) = items[0][1]
        code = self.code(L)
        syn = code.syndrome(x, z)
        true_cls = code.class_label(x, z)
        self.anyons["p"].append(len(syn[0]))
        self.anyons["s"].append(len(syn[1]))
        verdicts: dict[str, str] = {}
        orbits: dict[str, dict[int, int]] = {}
        problem = None
        for name, payload in items[1:]:
            found = None
            if name == "matching.decode_standard":
                s, v = payload
                found = self._standard(code, syn, s, v)
                verdicts.setdefault(STANDARD, v[0])
            elif name == "matching.decode_both":
                s, std, enh, cs = payload
                found = self._class_set(code, syn, s, enh, cs)
                verdicts[STANDARD] = std[0]
                verdicts[ENHANCED] = enh[0]
            elif name == "matching.decode_enhanced":
                s, enh, cs = payload
                found = self._class_set(code, syn, s, enh, cs)
            elif name == "matching.refine_frame":
                found = self._refined(code, *payload)
            elif name in ("mcmc.decode_single_temperature", "mcmc.decode_free_energy"):
                s, v = payload
                found = self._correction(code, syn, s, v)
                alg = SINGLE_TEMP if name == "mcmc.decode_single_temperature" else FREE_ENERGY
                verdicts[alg] = v[0]
            elif name == "oracle.enumerate_orbit":
                (rx, rz), hist = payload
                if L not in self._orbits:
                    self._orbits[L] = ref.DirectOrbit(code)
                if hist != self._orbits[L].histogram(rx, rz):
                    found = "orbit histogram differs from direct enumeration"
                orbits[code.class_label(rx, rz)] = hist
            elif name == "oracle.exact_decoder":
                s, p, label = payload
                found = self._exact(syn, s, p, label, orbits)
            problem = problem or found
        if algorithms:
            self.verdict_rows.append((true_cls,) + tuple(verdicts.get(a) for a in algorithms))
        return problem

    @staticmethod
    def _refined(code, before, after) -> str | None:
        (ix, iz), (ox, oz) = before, after
        if code.syndrome(ox, oz) != code.syndrome(ix, iz):
            return "refinement changed the syndrome"
        if code.class_label(ox, oz) != code.class_label(ix, iz):
            return "refinement changed the class"
        if (ox | oz).bit_count() > (ix | iz).bit_count():
            return "refinement made the hypothesis heavier"
        return None

    def _correction(self, code, syn, s, verdict) -> str | None:
        if tuple(map(tuple, s)) != syn:
            return f"decoder saw syndrome {s}, the frame has {syn}"
        label, (cx, cz), _ = verdict
        if code.syndrome(cx, cz) != syn:
            return "correction does not reproduce the syndrome"
        if code.class_label(cx, cz) != label:
            return f"correction is in class {code.class_label(cx, cz)}, verdict says {label}"
        return None

    def _standard(self, code, syn, s, verdict) -> str | None:
        problem = self._correction(code, syn, s, verdict)
        if problem:
            return problem
        if max(len(syn[0]), len(syn[1])) > DP_MAX_ANYONS:
            return None
        self.dp_checked += 1
        dp = sum(ref.min_pairing_weight(*code.pairing_problem(a, sp))
                 for a, sp in ((syn[0], "p"), (syn[1], "s")))
        label, _, scores = verdict
        if scores[label] != dp:
            return f"standard matching weight {scores[label]} != subset-DP weight {dp}"
        return None

    def _class_set(self, code, syn, s, verdict, chain_set) -> str | None:
        problem = self._correction(code, syn, s, verdict)
        if problem:
            return problem
        frames, weights = chain_set
        for i, (fx, fz) in enumerate(frames):
            if code.syndrome(fx, fz) != syn:
                return f"class-{ref.LABELS[i]} hypothesis does not reproduce the syndrome"
            if code.class_label(fx, fz) != ref.LABELS[i]:
                return f"class-{ref.LABELS[i]} hypothesis lies in another class"
            if weights[i] != (fx | fz).bit_count():
                return f"class-{ref.LABELS[i]} weight {weights[i]} is not its frame's weight"
        if tuple(verdict[1]) != tuple(frames[ref.LABELS.index(verdict[0])]):
            return "verdict correction is not the hypothesis of its class"
        return None

    def _exact(self, syn, s, p, label, orbits) -> str | None:
        if tuple(map(tuple, s)) != syn:
            return "exact decoder saw another syndrome"
        if len(orbits) != 4:
            return f"exact decoder enumerated classes {sorted(orbits)}, not all four"
        beta = ref.depolarizing_beta(p)
        log_z = {c: ref.log_partition(h, beta) for c, h in orbits.items()}
        if log_z[label] < max(log_z.values()) - 1e-9:
            return f"exact decoder chose {label}, direct enumeration favours another class"
        return None

    def compare_records(self, records, algorithms) -> None:
        """Traced verdicts and own true classes must be the records' multiset."""
        rows = Counter((r.true_class,) + tuple(r.verdicts[a] for a in algorithms)
                       for r in records)
        traced = Counter(self.verdict_rows)
        if rows != traced:
            mismatched = max(sum((rows - traced).values()), sum((traced - rows).values()))
            self.failed += mismatched
            self.notes.append(
                f"{mismatched} trial records disagree with the traced frames and verdicts")

    def input_summary(self) -> str:
        parts = []
        for sp, counts in self.anyons.items():
            if counts:
                parts.append(f"{sp}-anyons per syndrome: mean {np.mean(counts):.1f}, "
                             f"p95 {np.percentile(counts, 95):.0f}, max {max(counts)}")
        parts.append(f"{self.dp_checked} standard matchings checked against the subset DP")
        return "; ".join(parts)
