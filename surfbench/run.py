"""surfmc benchmark: decoder-campaign throughput end to end, layer costs traced.

    python3 surfbench/run.py --workload paper-L7-p0.10 --seed 1 --seconds 25 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with no layer
wrapped, their times scaled to a host of reference speed (calibrate.py);
with ``--trace 1`` the same workload runs with every public layer function
wrapped and the metrics are the per-layer ones.  Diagnostics go to standard
error.  See surfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".surfbench")

#: fresh interpreters started to time set-up; the median is reported
SETUP_PROBES = 5

_PROBE = (
    "import json, time\n"
    "t0 = time.perf_counter()\n"
    "import surfmc\n"
    "t1 = time.perf_counter()\n"
    "for L in {sizes}:\n"
    "    surfmc.build_layout(L)\n"
    "print(json.dumps([t1 - t0, time.perf_counter() - t0]))\n"
)


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("SURFMC_WORKERS", None)  # it would override the configured worker count
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(sizes: tuple[int, ...]) -> dict:
    """Median import and import-plus-layouts time over fresh interpreters,
    each scaled by the host's slowdown around it (see calibrate.py)."""
    import calibrate

    imports, totals = [], []
    before = calibrate.slowdown()
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE.format(sizes=tuple(sizes))],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=120,
            check=True,
        )
        import_s, total_s = json.loads(proc.stdout.strip().splitlines()[-1])
        after = calibrate.slowdown()
        slowdown, before = 0.5 * (before + after), after
        imports.append(import_s / slowdown)
        totals.append(total_s / slowdown)
    return {"import_s": statistics.median(imports), "setup_s": statistics.median(totals)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "surfmc", "__init__.py")):
        print(f"error: no surfmc sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    os.environ.pop("SURFMC_WORKERS", None)
    sys.path[:0] = [SRC, HERE]

    import workloads  # noqa: E402  (needs the paths above)

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setup = measure_setup((workloads.WORKLOADS[args.workload].L,))

    if args.trace:
        import layers
        import tracer as tr

        shutil.rmtree(OUT_DIR, ignore_errors=True)
        os.makedirs(OUT_DIR)
        rec = tr.Tracer(OUT_DIR)
        out = workloads.run_workload(args.workload, args.seed, args.seconds,
                                     timed_block=lambda: tr.traced(rec))
        per_process = rec.collect()
        checks = layers.TracedChecks()
        algorithms = getattr(workloads.WORKLOADS[args.workload], "algorithms", ())
        checks.run(per_process, algorithms)
        if algorithms:
            checks.compare_records(out.records, algorithms)
        out.failed += checks.failed
        out.notes += checks.notes
        out.notes.append(checks.input_summary())
        metrics = layers.layer_metrics(per_process, out, setup["import_s"])
        tr.write_spans(per_process, os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        out = workloads.run_workload(args.workload, args.seed, args.seconds)
        metrics = workloads.end_to_end_metrics(out, setup)

    out.notes.append(workloads.time_summary(out))
    for note in out.notes:
        print(note, file=sys.stderr)
    result = {
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
