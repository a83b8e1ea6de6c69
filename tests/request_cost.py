"""Print what a fresh CLI request costs: the interpreter, the import of
``abtaut.cli`` in three parts, the request above the import, and the
interpreter's shutdown that ``abtaut.cli.run`` skips.

Each row is the median wall time, from spawn to exit, of N fresh processes
pinned to one CPU:

* ``python -c pass``, the floor: the interpreter's start and exit;
* ``python -c "import fractions"``, the floor and most of what abtaut
  imports from the standard library;
* ``python -c "import abtaut"``, the floor and the library, the import that
  the ring_session benchmark's ``setup_s`` times;
* ``python -c "import abtaut.cli"``, the floor and the whole import;
* each of these again, ended by ``os._exit`` as ``run`` ends a request;
* a ``constant``, a ``reduce`` and a ``verify --check grr`` request, served
  as the ``abtaut`` console script serves them, through ``run``;
* the same requests through ``main`` and then the normal exit.

The start, the three parts of the import (standard library, library and
CLI), the shutdown and the request above the import are differences of
these medians; a trace of the functions inside the process
cannot see the shutdown.  Run from the repository root::

    python tests/request_cost.py [N]

N defaults to 21.  The children import abtaut from ``src``, write bytecode
beside the sources, as an installed package has it, and buffer stdout as
by default.  The script only reports; it never fails on a time.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

REQUESTS = (
    ["constant", "--g", "2"],
    ["reduce", "--g", "5", "--monomial", "l1^3*l2 - 2*l5 + l1^15"],
    ["verify", "--check", "grr", "--gmax", "40"],
)
# main and the normal exit, as the console script served a request before run
_NORMAL_EXIT = "import sys, abtaut.cli; sys.exit(abtaut.cli.main())"


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _wall_ms(args: list[str], env: dict) -> float:
    started = time.perf_counter()
    done = subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=120)
    elapsed = (time.perf_counter() - started) * 1000.0
    if done.returncode != 0:
        raise SystemExit(f"python {' '.join(args)} exited {done.returncode}: {done.stderr.decode()[-300:]}")
    return elapsed


def main(argv: list[str]) -> None:
    runs = int(argv[0]) if argv else 21
    pinned = "not pinned"
    if hasattr(os, "sched_setaffinity"):
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})  # the children inherit the one CPU
        pinned = f"pinned to CPU {cpu}"
    rows = {
        "python -c pass": ["-c", "pass"],
        "python -c pass, os._exit": ["-c", "import os; os._exit(0)"],
    }
    for module in ("fractions", "abtaut", "abtaut.cli"):
        rows[f"import {module}"] = ["-c", f"import {module}"]
        rows[f"import {module}, os._exit"] = ["-c", f"import os, {module}; os._exit(0)"]
    for request in REQUESTS:
        rows[" ".join(request)] = ["-c", "import abtaut.cli; abtaut.cli.run()", *request]
        rows[f"{' '.join(request)}, normal exit"] = ["-c", _NORMAL_EXIT, *request]
    env = _env()
    times: dict[str, list[float]] = {name: [] for name in rows}
    for round_ in range(runs + 1):  # round 0 writes the bytecode and is not counted
        for name, args in rows.items():
            elapsed = _wall_ms(args, env)
            if round_:
                times[name].append(elapsed)
    median = {name: statistics.median(values) for name, values in times.items()}

    print(f"python {platform.python_version()}, {runs} runs per row, {pinned}")
    print(" median ms  process")
    for name, value in median.items():
        print(f"{value:10.2f}  {name}")
    start, imported = median["python -c pass, os._exit"], median["import abtaut.cli, os._exit"]
    stdlib, library = median["import fractions, os._exit"], median["import abtaut, os._exit"]
    print("\n    ms  derived")
    print(f"{start:6.2f}  interpreter start")
    print(f"{imported - start:6.2f}  import of abtaut.cli, of which")
    print(f"{stdlib - start:6.2f}    fractions, most of what abtaut imports from the standard library")
    print(f"{library - stdlib:6.2f}    the library above it (import abtaut)")
    print(f"{imported - library:6.2f}    the CLI above the library (import abtaut.cli)")
    print(f"{median['python -c pass'] - start:6.2f}  shutdown of the bare interpreter")
    print(f"{median['import abtaut.cli'] - imported:6.2f}  shutdown after the import")
    print("\nms above the import  served  normal exit  shutdown skipped")
    for request in REQUESTS:
        name = " ".join(request)
        served, normal = median[name] - imported, median[f"{name}, normal exit"] - imported
        print(f"{request[0]:19s} {served:7.2f} {normal:12.2f} {normal - served:17.2f}")


if __name__ == "__main__":
    main(sys.argv[1:])
