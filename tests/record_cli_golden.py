"""Record the stdout of a fixed set of CLI requests as golden files.

Each request's stdout, as ``abtaut.cli.main`` writes it, is stored byte for
byte in ``tests/data/cli_golden/<name>.out``.  ``tests/test_cli.py`` and the CI
workflow compare the current stdout with these files.  The files in the
repository were recorded from the commit before the boundary quotients moved
to their own recurrence; they are a fixed reference and are never
regenerated to make a failing comparison pass.

    PYTHONPATH=src python tests/record_cli_golden.py OUTDIR   # write OUTDIR/<name>.out
    python tests/record_cli_golden.py --list                   # name, tab, shell-quoted argv
"""

from __future__ import annotations

import contextlib
import io
import shlex
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "data" / "cli_golden"

# (name, argv); every request exits 0.
REQUESTS = (
    ("verify_grr_gmax100", ["verify", "--check", "grr", "--gmax", "100"]),
    ("verify_all_gmax5", ["verify", "--check", "all", "--gmax", "5"]),
    ("verify_recursion_gmax30", ["verify", "--check", "recursion", "--gmax", "30"]),
    ("satake_g12_json", ["satake", "--g", "12"]),
    ("satake_g12_text", ["satake", "--g", "12", "--format", "text"]),
    ("satake_g12_csv", ["satake", "--g", "12", "--format", "csv"]),
    ("satake_g12_p7", ["satake", "--g", "12", "--p", "7"]),
    ("constant_g1", ["constant", "--g", "1"]),
    ("constant_g2", ["constant", "--g", "2"]),
    ("constant_g3", ["constant", "--g", "3"]),
    ("zeta_g50", ["zeta", "--g", "50"]),
    ("bernoulli_n800", ["bernoulli", "--n", "800"]),
    ("ring_g6_dims", ["ring", "--g", "6", "--show", "dims"]),
    ("ring_g6_basis", ["ring", "--g", "6", "--show", "basis"]),
    ("ring_g6_pairing_d10", ["ring", "--g", "6", "--show", "pairing", "--degree", "10"]),
    ("reduce_g5", ["reduce", "--g", "5", "--monomial", "l1^3*l2 - 2*l5 + l1^15"]),
)


def run(argv: list[str]) -> tuple[int, bytes]:
    """The exit code and the stdout bytes of one in-process CLI request."""
    from abtaut.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue().encode("utf-8")


def record(directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, argv in REQUESTS:
        code, stdout = run(argv)
        if code != 0:
            raise SystemExit(f"{shlex.join(argv)} exited {code}")
        (directory / f"{name}.out").write_bytes(stdout)


def main(args: list[str]) -> int:
    if args == ["--list"]:
        for name, argv in REQUESTS:
            print(f"{name}\t{shlex.join(argv)}")
        return 0
    # an option-like argument is a usage error, not a directory to create
    if len(args) != 1 or args[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    record(Path(args[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
