"""Paths, child processes and statistics shared by the workloads."""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
PYCACHE = SRC / "abtaut" / "__pycache__"

# acceptance budgets from tests/test_acceptance.py, in ms
ACCEPTANCE_BUDGET_MS = {1: 10, 2: 1000, 3: 10000, 4: 1000, 5: 60000, 6: 10, 7: 1000}


class CheckError(Exception):
    """An answer that differs from the reference, or a wrong exit code."""


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    known_defects: int = 0

    def record(self, label: str, error: Exception | None, known_defect: bool = False) -> None:
        """Count one checked operation.  ``known_defect`` marks an outcome
        that matches a documented defect exactly: it is reported in the
        fail ratio and listed, but kept out of ``failed``."""
        self.attempted += 1
        if known_defect:
            self.known_defects += 1
            if len(self.failures) < 10:
                self.failures.append(f"known defect: {label}: {error}")
        elif error is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{label}: {error}")


def child_env() -> dict:
    """The environment of every child: abtaut importable from src, bytecode
    written beside the sources (as an installed package would have it)."""
    env = dict(os.environ)
    for key in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX", "PYTHONSTARTUP", "PYTHONINSPECT"):
        env.pop(key, None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_python(args: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    """Run the interpreter on ``args``; seconds from spawn to exit."""
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    return time.perf_counter() - started, proc


def median_wall_ms(args: list[str], env: dict, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        elapsed, proc = run_python(args, env)
        if proc.returncode != 0:
            raise RuntimeError(f"python {' '.join(args)} failed: {proc.stderr.strip()}")
        times.append(elapsed * 1000.0)
    return statistics.median(times)


def bytecode_warmup_s(env: dict, replicas: int = 5) -> float:
    """Set-up of a fresh-process workload: compile and import abtaut.cli from
    a checkout without bytecode.  Median over ``replicas`` cold compiles; the
    last one leaves the bytecode in place for the timed requests."""
    times = []
    for _ in range(replicas):
        shutil.rmtree(PYCACHE, ignore_errors=True)
        elapsed, proc = run_python(["-c", "import abtaut.cli"], env)
        if proc.returncode != 0:
            raise RuntimeError(f"import abtaut.cli failed: {proc.stderr.strip()}")
        times.append(elapsed)
    return statistics.median(times)


class Speed:
    """Samples of the machine's current speed, taken between operations.

    The machines this runs on are shared, and their speed drifts by tens of
    percent within seconds; every operation slows by about the same factor.
    A reference task that no change to abtaut can affect is therefore timed
    after each operation (or round), and each end-to-end time is reported at
    a fixed nominal speed: ``raw * nominal / median(nearby samples)``.  The
    reference is of the operation's kind: the interpreter floor
    (``python -c pass``) for fresh-process requests, an in-process Fraction
    loop for library queries, and a fresh process running half a second of
    Fraction arithmetic for batch jobs, which last seconds.
    """

    NOMINAL_S = {"floor": 0.040, "compute": 0.003, "job": 0.500}
    # Akiyama-Tanigawa up to B_350: Fraction arithmetic, no abtaut code
    JOB = (
        "from fractions import Fraction\n"
        "row = []\n"
        "for m in range(350):\n"
        "    row.append(Fraction(1, m + 1))\n"
        "    for j in range(m, 0, -1):\n"
        "        row[j - 1] = j * (row[j - 1] - row[j])\n"
    )

    def __init__(self, kind: str, env: dict | None = None):
        self.kind = kind
        self.env = env
        self.groups: list[list[float]] = []

    def sample(self, repeats: int) -> None:
        """Append one group of ``repeats`` samples."""
        group = []
        for _ in range(repeats):
            if self.kind in ("floor", "job"):
                elapsed, _ = run_python(["-c", "pass" if self.kind == "floor" else self.JOB], self.env)
            else:
                started = time.perf_counter()
                x, table = Fraction(1, 3), {}
                for i in range(1, 400):
                    x = x * Fraction(i, i + 1) + Fraction(1, i)
                    table[(i, x.denominator % 7)] = x
                elapsed = time.perf_counter() - started
            group.append(elapsed)
        self.groups.append(group)

    @property
    def nominal(self) -> float:
        return self.NOMINAL_S[self.kind]

    def median_s(self) -> float:
        return statistics.median(x for group in self.groups for x in group)

    def factor(self) -> float:
        """One factor from every sample."""
        return self.nominal / self.median_s()

    def op_factors(self, before: int, after: int) -> list[float]:
        """One factor per operation, for groups sampled once before the
        first operation and once after each: operation k lies between
        groups k and k+1 and is scaled by the ``before`` groups up to it and
        the ``after`` groups from it on."""
        out = []
        for k in range(len(self.groups) - 1):
            near = [x for group in self.groups[max(0, k + 1 - before) : k + 1 + after] for x in group]
            out.append(self.nominal / statistics.median(near))
        return out


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (p in 0..1)."""
    ordered = sorted(values)
    k = (len(ordered) - 1) * p
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def latency_metrics(seconds: list[float]) -> dict:
    """The end-to-end latency metrics of one run, per operation."""
    return {
        "op_p50_ms": percentile(seconds, 0.5) * 1000.0,
        "op_p90_ms": percentile(seconds, 0.9) * 1000.0,
        "ops_per_s": len(seconds) / sum(seconds),
    }


def overhead(traced: list[float], untraced: list[float]) -> dict:
    """Tracing overhead: traced over untraced (speed-scaled) latency, same inputs."""
    return {
        "trace.overhead_p50": percentile(traced, 0.5) / percentile(untraced, 0.5),
        "trace.overhead_p90": percentile(traced, 0.9) / percentile(untraced, 0.9),
    }


def acceptance_report(env: dict, result: Result) -> dict:
    """Criteria 1-7 timed in a fresh process, as per-layer metrics."""
    _, proc = run_python([str(BENCH / "acceptance.py")], env)
    error = None
    report = {}
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or report["failed"]:
            error = CheckError(f"criteria {report.get('failed')} gave wrong values")
    except (ValueError, IndexError, KeyError) as exc:
        error = CheckError(f"acceptance report unreadable ({exc}): {proc.stderr.strip()[-300:]}")
    result.record("acceptance", error)
    metrics = {f"acceptance.c{n}_ms": report.get(f"c{n}_ms", 0.0) for n in ACCEPTANCE_BUDGET_MS}
    result.detail["acceptance_budget_ms"] = {f"c{n}": budget for n, budget in ACCEPTANCE_BUDGET_MS.items()}
    return metrics
