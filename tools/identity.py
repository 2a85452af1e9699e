"""Identity evidence for a refactor: the hashes of seeded surfmc outputs.

Runs four seeded campaigns, each at ``--workers 1`` and ``--workers 2``, two
``oracle-check`` lines (the second at p = 0.05, where most syndromes repeat
one seen earlier in the call, so it covers the reuse of a syndrome's
decoded verdicts), the deterministic ``fatal-patterns`` suite and
``tools/sampler_detail.py`` (the sampling decoders' per-class means, standard
errors, integrals and log Z, which the CSVs' verdict counts do not show), all
in a temporary directory, then prints one ``name sha256`` line per output (each
oracle summary line follows its hash).  Run it at two commits and compare the
printed lines: equal hashes mean byte-identical outputs.  Exits 1 if a command
fails or if any campaign CSV differs between the two worker counts.  The
children import ``surfmc`` from this checkout's ``src``, and
``SURFMC_WORKERS`` is dropped from their environment, since it would override
``--workers``.  About 16 s on a 2-CPU host:

    python3 tools/identity.py
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SAMPLER_DETAIL = Path(__file__).resolve().with_name("sampler_detail.py")

CAMPAIGNS = {
    "L5-p0.13-enhanced-free-energy":
        "--L 5 --p 0.13 --algorithms enhanced_mwpm,free_energy --seed 42 --trials 200",
    "L5,7-p0.10": "--L 5,7 --p 0.10 --seed 42 --trials 300",
    "independent-L5-p0.08":
        "--model independent_xz --L 5 --p 0.08 --algorithms "
        "standard_mwpm,enhanced_mwpm,single_temperature,free_energy --seed 7 --trials 150",
    "L3,6-refine-256":
        "--L 3,6 --p 0.10,0.13 --algorithms standard_mwpm,enhanced_mwpm,single_temperature "
        "--refine-steps 256 --trials 200 --seed 606",
}
ORACLES = {
    "oracle-check": "oracle-check --L 3 --p 0.1 --syndromes 300 --seed 2024",
    "oracle-check-p0.05": "oracle-check --L 3 --p 0.05 --syndromes 2000 --seed 5",
}
FATAL_PATTERNS = "fatal-patterns --L 3,5,7"


def run(args: str, cwd: str) -> subprocess.CompletedProcess:
    """``python -m surfmc`` with ``args``, or the script ``args`` if it is one."""
    env = dict(os.environ)
    env.pop("SURFMC_WORKERS", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command = [args] if args.endswith(".py") else ["-m", "surfmc", *args.split()]
    return subprocess.run([sys.executable, *command],
                          cwd=cwd, env=env, capture_output=True, text=True)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in CAMPAIGNS.items():
            digests = set()
            for workers in (1, 2):
                out = Path(tmp, f"{name}-w{workers}.csv")
                proc = run(f"campaign {args} --workers {workers} --out {out}", tmp)
                if proc.returncode:
                    print(f"{out.name} FAILED (exit {proc.returncode}): {proc.stderr.strip()}")
                    ok = False
                    continue
                digest = sha256(out.read_bytes())
                digests.add(digest)
                print(f"{out.name} {digest}", flush=True)
            if len(digests) > 1:
                print(f"{name}: the CSV differs between worker counts")
                ok = False
        for name, args in ORACLES.items():
            proc = run(args, tmp)
            print(f"{name} {sha256(proc.stdout.encode())}")
            print(proc.stdout.strip() or proc.stderr.strip())
            ok = ok and proc.returncode == 0
        for name, args in (("fatal-patterns", FATAL_PATTERNS),
                           ("sampler-detail", str(SAMPLER_DETAIL))):
            proc = run(args, tmp)
            print(f"{name} {sha256(proc.stdout.encode())}")
            if proc.returncode:
                print(f"{name} FAILED (exit {proc.returncode}): {proc.stderr.strip()}")
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
