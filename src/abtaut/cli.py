"""Command-line surface: single-value queries, verification runs and table
generation, all with exact rational output.

Each invocation writes one line-delimited JSON object per result to stdout
(``--format text`` for humans, ``--format csv`` for the satake table).
Timing goes to stderr so that identical invocations produce byte-identical
stdout.  Exit codes: 0 pass/info, 1 check failure, 2 usage error or output
that stdout cannot take (closed, full or unable to encode it); a stderr that
cannot be written changes no exit code.

``main`` serves one request and returns its exit code; it writes and
flushes all of its output itself.  The console script and ``python -m
abtaut.cli`` enter through ``run``, which ends the process with that code
as soon as ``main`` returns, without the interpreter's shutdown.

The options are read from the command table ``_COMMANDS`` by ``_parse``,
which follows argparse's rules without importing it: argparse and the
gettext and locale modules it loads cost a fresh request more than abtaut's
own modules do.
"""

from __future__ import annotations

import json
import os
import re
import sys
import time
from collections import namedtuple
from types import SimpleNamespace

from . import boundary, charclass, satake, tautring
from .rationals import bernoulli, boundary_constant, zeta_negative_odd

__all__ = [
    "main",
    "run",
    "MAX_BERNOULLI_N",
    "MAX_ZETA_GENUS",
    "MAX_BOREL_SERRE_GENUS",
    "MAX_GRR_GENUS",
    "MAX_RECURSION_GENUS",
    "MAX_SATAKE_GENUS",
    "MAX_SATAKE_PRIME",
]

# Input caps, each checked before any work starts.  The least value and the
# cap of an option are fields of its row in the command table _COMMANDS, and
# verify's caps per check are in _CHECKS.  Python reads and prints integers of at
# most 4300 digits by default (MAX_PRINTED_DIGITS).  B_2064 is
# the first Bernoulli number with a longer numerator, zeta(1-2g) has one from
# g = 1032 on, and the satake table has one from g = 75 on.  The p-rank
# constant (p - 1)(p^2 - 1)...(p^g - 1) has about g(g+1)/2 log10(p) digits,
# and a normal form printed by reduce can outgrow its input, so both are
# checked against the limit itself, before they are printed; the primality
# test of satake --p is trial division.  The ring cap is
# tautring.MAX_RING_GENUS, checked by build_ring.  Times on a 2-CPU x86-64
# machine with Python 3.11: B_2000 about 35 ms; verify --check borel-serre
# --g 8 a median of 7.8 s (7.2-9.5 s) and 94 MB peak RSS as a fresh process;
# grr about 0.02 s and recursion about 0.15 s at genus 100, against 0.15-0.2 s
# and 3.5 s at genus 200; verify --gmax 100 takes about 0.065 s for grr and
# 2.6 s for recursion.  The grr times include the Bernoulli numbers and the
# boundary quotients of a cold process, pinned to one CPU.
MAX_PRINTED_DIGITS = 4300
MAX_BERNOULLI_N = 2000
MAX_ZETA_GENUS = 1000
MAX_BOREL_SERRE_GENUS = 8
MAX_GRR_GENUS = 100
MAX_RECURSION_GENUS = 100
MAX_SATAKE_GENUS = 74
MAX_SATAKE_PRIME = 10 ** 6


def _envelope(command: str, status: str, payload: dict) -> dict:
    return {"command": command, "status": status, "payload": payload}


# -- command handlers ----------------------------------------------------


def _cmd_bernoulli(args) -> list[dict]:
    return [_envelope("bernoulli", "info", {"n": args.n, "value": str(bernoulli(args.n))})]


def _cmd_zeta(args) -> list[dict]:
    return [_envelope("zeta", "info", {"g": args.g, "value": str(zeta_negative_odd(args.g))})]


def _cmd_constant(args) -> list[dict]:
    return [_envelope("constant", "info", {"g": args.g, "value": str(boundary_constant(args.g))})]


def _cmd_ring(args) -> list[dict]:
    g = args.g
    ring = tautring.build_ring(g)
    if args.show == "dims":
        payload = {"g": g, "socle_degree": ring.socle_degree, "dims": ring.dimension_profile()}
        return [_envelope("ring", "info", payload)]
    if args.show == "basis":
        if args.degree is not None:
            degrees = [args.degree]
        else:
            degrees = list(range(ring.socle_degree + 1))
        basis = {str(d): [str(m) for m in ring.basis_monomials(d)] for d in degrees}
        return [_envelope("ring", "info", {"g": g, "basis": basis})]
    # the parser's choices leave "pairing" as the only other --show value here
    if args.degree is None:
        raise ValueError("--degree is required with --show pairing")
    matrix = ring.pairing_matrix(args.degree)
    det = tautring.determinant(matrix)
    payload = {
        "g": g,
        "degree": args.degree,
        "matrix": [[str(x) for x in row] for row in matrix],
        "nonsingular": det != 0,
    }
    return [_envelope("ring", "info", payload)]


def _cmd_reduce(args) -> list[dict]:
    ring = tautring.build_ring(args.g)
    if re.search(rf"\d{{{MAX_PRINTED_DIGITS + 1}}}", args.monomial):
        raise ValueError(f"--monomial has a number of more than {MAX_PRINTED_DIGITS} digits")
    poly = ring.ring.parse(args.monomial)
    nf = ring.normal_form(poly)
    limit = 10 ** MAX_PRINTED_DIGITS
    if any(abs(c.numerator) >= limit or c.denominator >= limit for c in nf.coordinates.values()):
        raise ValueError(f"the normal form of --monomial has a coefficient of more than {MAX_PRINTED_DIGITS} digits")
    payload = {"g": args.g, "input": args.monomial, "value": str(nf)}
    return [_envelope("reduce", "info", payload)]


# name: (module, report function, genus cap).  Each check is looked up on
# its module when it runs, so that a wrapper installed on the module after
# import, such as a tracer's, sees the call.
_CHECKS = {
    "grr": (boundary, "grr_report", MAX_GRR_GENUS),
    "borel-serre": (charclass, "borel_serre_check", MAX_BOREL_SERRE_GENUS),
    "ring": (tautring, "ring_report", tautring.MAX_RING_GENUS),
    "recursion": (satake, "recursion_check", MAX_RECURSION_GENUS),
}


def _cmd_verify(args) -> list[dict]:
    if args.gmax is None and args.g is None:
        raise ValueError("verify requires --g or --gmax")
    # The caps are checked on the top genus before the genera are listed, so
    # that a huge --gmax is a usage error rather than a huge list.
    top = args.g if args.gmax is None else args.gmax
    names = list(_CHECKS) if args.check == "all" else [args.check]
    for name in names:
        cap = _CHECKS[name][2]
        if top > cap:
            raise ValueError(f"{name} is capped at genus {cap}, got {top}")
    genera = range(1, top + 1) if args.gmax is not None else [top]
    envelopes = []
    for g in genera:
        for name in names:
            module, function, _ = _CHECKS[name]
            report = getattr(module, function)(g)
            status = "pass" if report.ok else "fail"
            envelopes.append(_envelope("verify", status, {"check": name, **report.as_payload()}))
    return envelopes


def _cmd_satake(args) -> list[dict]:
    if args.p is not None and args.format == "csv":
        raise ValueError("--p cannot be combined with --format csv: the p-rank constant has no stratum columns")
    g = args.g
    rows = satake.stratum_table(g, args.i)
    envelopes = [_envelope("satake", "info", row) for row in rows]
    if args.p is not None:
        value = satake.p_rank_constant(g, args.p)
        if value >= 10 ** MAX_PRINTED_DIGITS:
            raise ValueError(
                f"the p-rank constant for --g {g} --p {args.p} has more than {MAX_PRINTED_DIGITS} digits"
            )
        envelopes.append(
            _envelope("satake", "info", {"g": g, "p": args.p, "p_rank_zero_constant": str(value)})
        )
    return envelopes


def _render(envelopes: list[dict], fmt: str) -> str:
    """The text of the envelopes in one output format.  In text format a
    value prints as is if it is a str and as JSON otherwise."""
    if fmt == "json":
        return "".join(json.dumps(env, ensure_ascii=False) + "\n" for env in envelopes)
    if fmt == "text":
        lines = []
        for env in envelopes:
            lines += [f"command: {env['command']}", f"status: {env['status']}"]
            for key, value in env["payload"].items():
                lines.append(f"{key}: {value if isinstance(value, str) else json.dumps(value, ensure_ascii=False)}")
        return "".join(line + "\n" for line in lines)
    # the parser's choices leave the satake table as the only csv output
    import csv  # only this path needs it; the other requests skip its import
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["g", "i", "coefficient", "label", "matches_thm34"])
    for row in (env["payload"] for env in envelopes):
        label = "{" + ",".join(str(x) for x in row["label"]) + "}"
        matches = "" if row["matches_thm34"] is None else str(row["matches_thm34"]).lower()
        writer.writerow([row["g"], row["i"], row["coefficient"], label, matches])
    return out.getvalue()


# -- the command line ----------------------------------------------------

# command: (handler, help, options).  An option that is not given is None,
# --format "json"; main checks a given int against its least value and its
# cap, where the option has them, before the handler runs.
_Option = namedtuple("_Option", "kind choices required help least cap", defaults=(None, None))
_FORMAT = _Option(str, ("json", "text"), False, "output format")


def _genus(cap: int | None = None) -> _Option:
    return _Option(int, None, True, "genus", 1, cap)


_COMMANDS = {
    "bernoulli": (
        _cmd_bernoulli,
        "Bernoulli number B_n",
        {"--n": _Option(int, None, True, "index", 0, MAX_BERNOULLI_N), "--format": _FORMAT},
    ),
    "zeta": (_cmd_zeta, "zeta(1-2g)", {"--g": _genus(MAX_ZETA_GENUS), "--format": _FORMAT}),
    "constant": (
        _cmd_constant,
        "the boundary constant (-1)^g zeta(1-2g)",
        {"--g": _genus(MAX_ZETA_GENUS), "--format": _FORMAT},
    ),
    "ring": (
        _cmd_ring,
        "tautological ring structure queries",
        {
            "--g": _genus(),
            "--show": _Option(str, ("dims", "basis", "pairing"), True, "what to print"),
            "--degree": _Option(int, None, False, "one degree of the basis; required with pairing"),
            "--format": _FORMAT,
        },
    ),
    "reduce": (
        _cmd_reduce,
        "normal form of a polynomial in l1..lg",
        {"--g": _genus(), "--monomial": _Option(str, None, True, "e.g. 'l1^6' or '2*l2 - l1^2'"), "--format": _FORMAT},
    ),
    "verify": (
        _cmd_verify,
        "run a verification",
        {
            "--check": _Option(str, (*_CHECKS, "all"), True, "the check to run"),
            "--g": _Option(int, None, False, "run the check for this genus", 1),
            "--gmax": _Option(int, None, False, "run the check for every genus 1..GMAX", 1),
            "--format": _FORMAT,
        },
    ),
    "satake": (
        _cmd_satake,
        "stratum-class constant table",
        {
            "--g": _genus(MAX_SATAKE_GENUS),
            "--i": _Option(int, None, False, "one stratum index"),
            "--p": _Option(int, None, False, "also emit the p-rank-zero constant for this prime", cap=MAX_SATAKE_PRIME),
            "--format": _Option(str, ("json", "text", "csv"), False, "output format"),
        },
    ),
}
# (command, option): the option it cannot be given with
_EXCLUDES = {("verify", "--g"): "--gmax", ("verify", "--gmax"): "--g"}
_HELP = ("-h", "--help")
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _help(commands: list[str]) -> str:
    lines = [
        f"usage: abtaut {'|'.join(commands)} [OPTIONS]",
        "",
        "Exact computations in the tautological ring of moduli of abelian varieties.",
    ]
    for command in commands:
        _, summary, options = _COMMANDS[command]
        lines += ["", f"{command}: {summary}"]
        for name, option in options.items():
            value = "{" + ",".join(option.choices) + "}" if option.choices else name[2:].upper()
            lines.append(f"  {name} {value}{' (required)' if option.required else ''}  {option.help}")
    return "\n".join(lines) + "\n"


def _option(word: str, names) -> tuple | None:
    """argparse's reading of one word: None for a value, else the option it
    names exactly or by a unique prefix (None for no option) and the value
    after its "=" (None without one)."""
    if word[:1] != "-" or word == "-":
        return None
    name, sep, value = word.partition("=")
    if word != "--":  # argparse's end of options, which names no option here
        matches = [n for n in names if n == name] or [n for n in names if name[:2] == "--" and n.startswith(name)]
        if len(matches) > 1:
            raise ValueError(f"ambiguous option: {word} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if sep else None
    if _NEGATIVE_NUMBER.match(word) or " " in word:
        return None
    return None, None


def _parse(argv: list[str]) -> SimpleNamespace | str:
    """The command, its handler and its option values, as argparse's
    namespace held them, read by argparse's rules: --opt value or
    --opt=value, a unique prefix for a name, the last value of a repeated
    option.  The help text for -h or --help; a ValueError for a usage
    error."""
    if not argv:
        raise ValueError("the following arguments are required: command")
    command = argv[0]
    name, _ = _option(command, _HELP) or (None, None)
    if name:
        return _help(list(_COMMANDS))
    if command not in _COMMANDS:
        raise ValueError(f"argument command: invalid choice: {command!r} (choose from {', '.join(_COMMANDS)})")
    handler, _, options = _COMMANDS[command]
    names = [*_HELP, *options]
    values = {name[2:]: None for name in options}
    values["format"] = "json"
    extras = []
    words = iter(argv[1:])
    for word in words:
        name, value = _option(word, names) or (None, None)
        if name is None:
            extras.append(word)
            continue
        if name in _HELP:
            return _help([command])
        if value is None:
            value = next(words, None)
            if value is None or _option(value, names) is not None:
                raise ValueError(f"argument {name}: expected one argument")
        elif value == "--":
            raise ValueError(f"argument {name}: expected a value, got '--'")
        option = options[name]
        if option.kind is int:
            try:
                value = int(value)
            except ValueError:
                raise ValueError(f"argument {name}: invalid int value: {value!r}") from None
        if option.choices and value not in option.choices:
            raise ValueError(f"argument {name}: invalid choice: {value!r} (choose from {', '.join(option.choices)})")
        other = _EXCLUDES.get((command, name))
        if other and values[other[2:]] is not None:
            raise ValueError(f"argument {name}: not allowed with argument {other}")
        values[name[2:]] = value
    missing = [name for name, option in options.items() if option.required and values[name[2:]] is None]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise ValueError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=command, handler=handler, **values)


def _check_bounds(args: SimpleNamespace) -> None:
    for name, option in _COMMANDS[args.command][2].items():
        value = getattr(args, name[2:])
        if value is not None and option.least is not None and value < option.least:
            raise ValueError(f"{name} must be >= {option.least}, got {value}")
        if value is not None and option.cap is not None and value > option.cap:
            raise ValueError(f"{name} is capped at {option.cap}, got {value}")


def _write(name: str, text: str) -> Exception | None:
    """Write text to sys.<name> and flush it, so that nothing of it waits
    in a buffer when the process ends.  None, or the error when the stream
    is None or cannot take the text; then, as the SIGPIPE note of the signal
    module's docs advises, its descriptor points at os.devnull, so that any
    later flush of the stream, such as the interpreter's at a normal exit
    after an in-process call, writes what is left there and cannot fail
    again."""
    stream = getattr(sys, name)
    try:
        if stream is None:
            raise OSError(f"{name} is closed")
        stream.write(text)
        stream.flush()
        return None
    except (OSError, UnicodeEncodeError) as exc:
        try:
            fd = stream.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
        except (AttributeError, OSError, ValueError):
            return exc  # no descriptor to point anywhere
        try:
            os.dup2(devnull, fd)
        finally:
            os.close(devnull)
        return exc


def main(argv: list[str] | None = None) -> int:
    """Serve one request and return its exit code; no failed write escapes.
    _parse reads argv, the bounds are checked, the handler computes and
    _render makes the text.  Then _write writes stdout once and stderr at
    most once: a usage error or the elapsed time.  A stdout that cannot take
    the text ends in exit 2 with one stderr line; a stderr that cannot be
    written changes no exit code."""
    line = None
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):
            text, code = args, 0
        else:
            _check_bounds(args)
            started = time.perf_counter()
            envelopes = args.handler(args)
            line = f"elapsed_ms={(time.perf_counter() - started) * 1000.0:.3f}"
            text = _render(envelopes, args.format)
            code = 1 if any(env["status"] == "fail" for env in envelopes) else 0
    except ValueError as exc:
        text, code, line = "", 2, f"abtaut: error: {exc}"
    failure = _write("stdout", text) if text else None
    if failure is not None:
        code, line = 2, f"abtaut: error: cannot write the output: {failure}"
    if line is not None:
        _write("stderr", line + "\n")
    return code


def run() -> None:
    """The process entry of the console script and of ``python -m
    abtaut.cli``: serve one request with ``main`` and end the process with
    its exit code by ``os._exit``, skipping the interpreter's shutdown.

    That shutdown, full garbage-collection passes over the heap and then
    the clearing of every module, takes longer than most handlers, and
    skipping it loses nothing: ``main`` has flushed stdout and stderr, or
    pointed a stream that failed at os.devnull, and abtaut registers no
    atexit handler, keeps no file open and starts no thread.  An exception
    that escapes ``main`` never reaches ``os._exit``, so it still prints its
    traceback and exits 1.  In-process callers call ``main``, which
    returns."""
    os._exit(main())


if __name__ == "__main__":
    run()
