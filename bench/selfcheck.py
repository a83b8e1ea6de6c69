"""Determinism self-check of the traced run.

    python3 bench/selfcheck.py --workload batch_sweep --seconds 15

Runs the traced benchmark twice with one seed and once with another.  The
two same-seed runs must report identical work counts (graded term products
and coefficient sizes, ring working sets, boundary cache statistics); the
other seed must report the same metric names.  Exits 1 on a mismatch.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
COUNTS = ("graded.mul_term_products", "graded.max_coeff_bits", "tautring.monomials.", "boundary.spq_cache_")


def traced(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description="determinism self-check of the traced run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    first = traced(args.workload, args.seed, args.seconds)
    second = traced(args.workload, args.seed, args.seconds)
    other = traced(args.workload, args.seed + 1, args.seconds)
    counts = sorted(name for name in first if name.startswith(COUNTS))
    ok = True
    for name in counts:
        same = first[name] == second[name]
        ok &= same
        print(f"{'ok  ' if same else 'DIFF'} {name}: {first[name]} / {second[name]} (seed {args.seed + 1}: {other[name]})")
    if sorted(first) != sorted(other):
        ok = False
        print(f"DIFF metric names between seeds {args.seed} and {args.seed + 1}")
    print("determinism self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
