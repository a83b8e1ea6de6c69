"""Command-line surface: single-value queries, verification runs and table
generation, all with exact rational output.

Each invocation writes one line-delimited JSON object per result to stdout
(``--format text`` for humans, ``--format csv`` for the satake table).
Timing goes to stderr so that identical invocations produce byte-identical
stdout.  Exit codes: 0 pass/info, 1 check failure, 2 usage error.

The options are read from the command table ``_COMMANDS`` by ``_parse``,
which follows argparse's rules without importing it: argparse and the
gettext and locale modules it loads cost a fresh request more than abtaut's
own modules do.
"""

from __future__ import annotations

import json
import re
import sys
import time
from types import SimpleNamespace

from . import boundary, charclass, satake, tautring
from .rationals import bernoulli, boundary_constant, zeta_negative_odd

__all__ = [
    "main",
    "MAX_BERNOULLI_N",
    "MAX_ZETA_GENUS",
    "MAX_BOREL_SERRE_GENUS",
    "MAX_GRR_GENUS",
    "MAX_RECURSION_GENUS",
    "MAX_SATAKE_GENUS",
    "MAX_SATAKE_PRIME",
]

# Input caps, each checked before any work starts.  Python reads and prints
# integers of at most 4300 digits by default (MAX_PRINTED_DIGITS).  B_2064 is
# the first Bernoulli number with a longer numerator, zeta(1-2g) has one from
# g = 1032 on, and the satake table has one from g = 75 on.  The p-rank
# constant (p - 1)(p^2 - 1)...(p^g - 1) has about g(g+1)/2 log10(p) digits,
# and a normal form printed by reduce can outgrow its input, so both are
# checked against the limit itself, before they are printed; the primality
# test of satake --p is trial division.  The ring cap is
# tautring.MAX_RING_GENUS, checked by build_ring.  Times on a 2-CPU x86-64
# machine with Python 3.11: B_2000 about 35 ms; borel_serre_check about
# 15 s and 106 MB peak RSS at genus 8; grr about 0.02 s and recursion about
# 0.15 s at genus 100, against 0.15-0.2 s and 3.5 s at genus 200; verify
# --gmax 100 takes about 0.065 s for grr and 2.6 s for recursion.  The grr
# times include the Bernoulli numbers and the boundary quotients of a cold
# process, pinned to one CPU.
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


def _emit(envelopes: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        for env in envelopes:
            out.write(json.dumps(env, ensure_ascii=False) + "\n")
        return
    # the parser's choices leave "text" as the only other format here
    for env in envelopes:
        out.write(f"command: {env['command']}\n")
        out.write(f"status: {env['status']}\n")
        for key, value in env["payload"].items():
            out.write(f"{key}: {_text_value(value)}\n")


def _text_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (list, dict)):
        return json.dumps(value, ensure_ascii=False)
    return str(value)


def _positive(name: str, value: int) -> int:
    if value < 1:
        raise ValueError(f"--{name} must be >= 1, got {value}")
    return value


def _capped(name: str, value: int, cap: int) -> int:
    if value > cap:
        raise ValueError(f"--{name} is capped at {cap}, got {value}")
    return value


# -- command handlers ----------------------------------------------------


def _cmd_bernoulli(args) -> list[dict]:
    if args.n < 0:
        raise ValueError(f"--n must be >= 0, got {args.n}")
    _capped("n", args.n, MAX_BERNOULLI_N)
    return [_envelope("bernoulli", "info", {"n": args.n, "value": str(bernoulli(args.n))})]


def _cmd_zeta(args) -> list[dict]:
    g = _capped("g", _positive("g", args.g), MAX_ZETA_GENUS)
    return [_envelope("zeta", "info", {"g": g, "value": str(zeta_negative_odd(g))})]


def _cmd_constant(args) -> list[dict]:
    g = _capped("g", _positive("g", args.g), MAX_ZETA_GENUS)
    return [_envelope("constant", "info", {"g": g, "value": str(boundary_constant(g))})]


def _cmd_ring(args) -> list[dict]:
    g = _positive("g", args.g)
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
    g = _positive("g", args.g)
    ring = tautring.build_ring(g)
    if re.search(rf"\d{{{MAX_PRINTED_DIGITS + 1}}}", args.monomial):
        raise ValueError(f"--monomial has a number of more than {MAX_PRINTED_DIGITS} digits")
    poly = ring.ring.parse(args.monomial)
    nf = ring.normal_form(poly)
    limit = 10 ** MAX_PRINTED_DIGITS
    if any(abs(c.numerator) >= limit or c.denominator >= limit for c in nf.coordinates.values()):
        raise ValueError(f"the normal form of --monomial has a coefficient of more than {MAX_PRINTED_DIGITS} digits")
    payload = {"g": g, "input": args.monomial, "value": str(nf)}
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
    top = _positive("gmax", args.gmax) if args.gmax is not None else _positive("g", args.g)
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
    g = _capped("g", _positive("g", args.g), MAX_SATAKE_GENUS)
    if args.p is not None:
        _capped("p", args.p, MAX_SATAKE_PRIME)
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


def _satake_csv(envelopes: list[dict], out) -> None:
    import csv  # only this path needs it; the other requests skip its import

    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["g", "i", "coefficient", "label", "matches_thm34"])
    for env in envelopes:
        row = env["payload"]
        writer.writerow(
            [
                row["g"],
                row["i"],
                row["coefficient"],
                "{" + ",".join(str(x) for x in row["label"]) + "}",
                "" if row["matches_thm34"] is None else str(row["matches_thm34"]).lower(),
            ]
        )


# -- the command line ----------------------------------------------------

# command: (handler, help, options), each option (type, choices or None,
# required, help).  An option that is not given is None, --format "json".
_GENUS = (int, None, True, "genus")
_FORMAT = (str, ("json", "text"), False, "output format")
_COMMANDS = {
    "bernoulli": (_cmd_bernoulli, "Bernoulli number B_n", {"--n": (int, None, True, "index"), "--format": _FORMAT}),
    "zeta": (_cmd_zeta, "zeta(1-2g)", {"--g": _GENUS, "--format": _FORMAT}),
    "constant": (_cmd_constant, "the boundary constant (-1)^g zeta(1-2g)", {"--g": _GENUS, "--format": _FORMAT}),
    "ring": (
        _cmd_ring,
        "tautological ring structure queries",
        {
            "--g": _GENUS,
            "--show": (str, ("dims", "basis", "pairing"), True, "what to print"),
            "--degree": (int, None, False, "one degree of the basis; required with pairing"),
            "--format": _FORMAT,
        },
    ),
    "reduce": (
        _cmd_reduce,
        "normal form of a polynomial in l1..lg",
        {"--g": _GENUS, "--monomial": (str, None, True, "e.g. 'l1^6' or '2*l2 - l1^2'"), "--format": _FORMAT},
    ),
    "verify": (
        _cmd_verify,
        "run a verification",
        {
            "--check": (str, (*_CHECKS, "all"), True, "the check to run"),
            "--g": (int, None, False, "run the check for this genus"),
            "--gmax": (int, None, False, "run the check for every genus 1..GMAX"),
            "--format": _FORMAT,
        },
    ),
    "satake": (
        _cmd_satake,
        "stratum-class constant table",
        {
            "--g": _GENUS,
            "--i": (int, None, False, "one stratum index"),
            "--p": (int, None, False, "also emit the p-rank-zero constant for this prime"),
            "--format": (str, ("json", "text", "csv"), False, "output format"),
        },
    ),
}
# (command, option): the option it cannot be given with
_EXCLUDES = {("verify", "--g"): "--gmax", ("verify", "--gmax"): "--g"}
_HELP = ("-h", "--help")
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _usage_error(message: str):
    print(f"abtaut: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _help(commands: list[str]):
    lines = [
        f"usage: abtaut {'|'.join(commands)} [OPTIONS]",
        "",
        "Exact computations in the tautological ring of moduli of abelian varieties.",
    ]
    for command in commands:
        _, summary, options = _COMMANDS[command]
        lines += ["", f"{command}: {summary}"]
        for name, (_, choices, required, text) in options.items():
            value = "{" + ",".join(choices) + "}" if choices else name[2:].upper()
            lines.append(f"  {name} {value}{' (required)' if required else ''}  {text}")
    print("\n".join(lines))
    raise SystemExit(0)


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
            _usage_error(f"ambiguous option: {name} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if sep else None
    if _NEGATIVE_NUMBER.match(word) or " " in word:
        return None
    return None, None


def _parse(argv: list[str]) -> SimpleNamespace:
    """The command, its handler and its option values, as argparse's
    namespace held them, read by argparse's rules: --opt value or
    --opt=value, a unique prefix for a name, the last value of a repeated
    option.  A usage error is one stderr line and SystemExit(2), except
    --opt=--, a ValueError as the handlers raise."""
    if not argv:
        _usage_error("the following arguments are required: command")
    command = argv[0]
    name, _ = _option(command, _HELP) or (None, None)
    if name:
        _help(list(_COMMANDS))
    if command not in _COMMANDS:
        _usage_error(f"argument command: invalid choice: {command!r} (choose from {', '.join(_COMMANDS)})")
    handler, _, options = _COMMANDS[command]
    names = [*options, *_HELP]
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
            _help([command])
        if value is None:
            value = next(words, None)
            if value is None or _option(value, names) is not None:
                _usage_error(f"argument {name}: expected one argument")
        elif value == "--":
            raise ValueError(f"argument {name}: expected a value, got '--'")
        kind, choices, _, _ = options[name]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _usage_error(f"argument {name}: invalid int value: {value!r}")
        if choices and value not in choices:
            _usage_error(f"argument {name}: invalid choice: {value!r} (choose from {', '.join(choices)})")
        other = _EXCLUDES.get((command, name))
        if other and values[other[2:]] is not None:
            _usage_error(f"argument {name}: not allowed with argument {other}")
        values[name[2:]] = value
    missing = [name for name, (_, _, required, _) in options.items() if required and values[name[2:]] is None]
    if missing:
        _usage_error(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _usage_error(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=command, handler=handler, **values)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        started = time.perf_counter()
        envelopes = args.handler(args)
    except ValueError as exc:
        print(f"abtaut: error: {exc}", file=sys.stderr)
        return 2
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    if args.format == "csv":
        _satake_csv(envelopes, sys.stdout)
    else:
        _emit(envelopes, args.format, sys.stdout)
    print(f"elapsed_ms={elapsed_ms:.3f}", file=sys.stderr)
    return 1 if any(env["status"] == "fail" for env in envelopes) else 0


if __name__ == "__main__":
    sys.exit(main())
