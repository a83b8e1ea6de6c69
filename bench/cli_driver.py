"""Traced stand-in for ``python -m abtaut.cli``: one fresh process per request.

    python3 bench/cli_driver.py SPANS_JSON REQUEST_ID -- ARGV...

The driver imports abtaut, wraps the traced functions, calls
``abtaut.cli.main(ARGV)`` and writes its spans and counters to SPANS_JSON.
Exit code, stdout and stderr are those of the CLI (an uncaught exception
still prints its traceback and exits 1), and every memo table starts as cold
as in an untraced request.
"""

import sys

import abtaut.cli

from tracing import Tracer, install


def main() -> None:
    spans_path, request = sys.argv[1], int(sys.argv[2])
    if sys.argv[3] != "--":
        raise SystemExit("usage: cli_driver.py SPANS_JSON REQUEST_ID -- ARGV...")
    tracer = Tracer()
    tracer.request = request
    install(tracer)
    try:
        code = abtaut.cli.main(sys.argv[4:])
    finally:
        tracer.dump(spans_path)
    sys.exit(code)


if __name__ == "__main__":
    main()
