"""The abtaut benchmark: one workload per run, inputs generated from a seed.

    python3 bench/run.py --workload cli_interactive --seed 1 --seconds 15 --trace 0

Workloads (see BENCHMARK.json for why each exists):
  cli_interactive  short fresh-process CLI requests, about 5 % malformed
  ring_session     one library process querying the rings of genus 4..8
  batch_sweep      three heavy fresh-process jobs, repeated

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it runs
a fixed, seed-determined work list twice (untraced, then traced) and reports
the per-layer metrics, the tracing overhead and the acceptance-budget
headroom.  Every answer is checked against references that share no code
with abtaut.  The last line of stdout is the result:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
Lines before it record the environment and the workload's own figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys

from common import ROOT, RUN_DIR, SRC, Result

WORKLOADS = ("cli_interactive", "ring_session", "batch_sweep")


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with (ROOT / "BENCHMARK.json").open() as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "abtaut" / "__init__.py").is_file():
        print(f"bench: no abtaut sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    # one CPU for the benchmark and every child: on shared machines the CPUs
    # differ in speed from moment to moment, and a process that migrates
    # between them is timed on a mix of both
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    RUN_DIR.mkdir()
    result = Result()
    try:
        if args.workload == "ring_session":
            import ring_session

            ring_session.run_workload(args.seed, args.seconds, bool(args.trace), result)
        else:
            import cli_workloads

            cli_workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), result)
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)

    env = {
        "python": platform.python_version(),
        "nproc": len(cpus),
        "pinned_cpu": min(cpus),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "interpreter_floor_ms": result.detail.pop("interpreter_floor_ms"),
    }
    print("env " + json.dumps(env))
    failing = result.failed + result.known_defects
    detail = {
        "attempted": result.attempted,
        "failed": result.failed,
        "known_defects": result.known_defects,
        "fail_ratio": failing / result.attempted if result.attempted else 0.0,
        **result.detail,
    }
    print("detail " + json.dumps(detail))
    for failure in result.failures:
        print("failed " + failure)
    units = declared_units(bool(args.trace))
    if set(units) != set(result.metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(result.metrics))}")
    metrics = {name: {"value": result.metrics[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": result.failed == 0, "attempted": result.attempted, "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
