"""Command-line surface: single-value queries, verification runs and table
generation, all with exact rational output.

Each invocation writes one line-delimited JSON object per result to stdout
(``--format text`` for humans, ``--format csv`` for the satake table).
Timing goes to stderr so that identical invocations produce byte-identical
stdout.  Exit codes: 0 pass/info, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys
import time

from . import boundary, charclass, satake, tautring
from .rationals import bernoulli, boundary_constant, zeta_negative_odd

__all__ = [
    "main",
    "build_parser",
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
# machine with Python 3.11: B_2000 about 1.2 s; borel_serre_check about
# 27 s and 106 MB peak RSS at genus 8; grr about 0.3 s and recursion about
# 0.15 s at genus 100, against 2 s and 3.7 s at genus 200.
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
    if fmt == "text":
        for env in envelopes:
            out.write(f"command: {env['command']}\n")
            out.write(f"status: {env['status']}\n")
            for key, value in env["payload"].items():
                out.write(f"{key}: {_text_value(value)}\n")
        return
    raise ValueError(f"unknown format {fmt!r}")


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
    if args.show == "pairing":
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
    raise ValueError(f"unknown --show value {args.show!r}")


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
    if args.gmax is not None:
        genera = list(range(1, _positive("gmax", args.gmax) + 1))
    else:
        genera = [_positive("g", args.g)]
    names = list(_CHECKS) if args.check == "all" else [args.check]
    for name in names:
        cap = _CHECKS[name][2]
        if genera[-1] > cap:
            raise ValueError(f"{name} is capped at genus {cap}, got {genera[-1]}")
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

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
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
    out.write(buffer.getvalue())


class _Parser(argparse.ArgumentParser):
    """Reports its own usage errors in one stderr line, as the handlers do;
    subparsers are built from the same class."""

    def error(self, message: str):
        self.exit(2, f"abtaut: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="abtaut",
        description="Exact computations in the tautological ring of moduli of abelian varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, csv_ok=False):
        choices = ["json", "text", "csv"] if csv_ok else ["json", "text"]
        p.add_argument("--format", choices=choices, default="json", help="output format")

    p = sub.add_parser("bernoulli", help="Bernoulli number B_n")
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    p.set_defaults(handler=_cmd_bernoulli)

    p = sub.add_parser("zeta", help="zeta(1-2g)")
    p.add_argument("--g", type=int, required=True)
    add_format(p)
    p.set_defaults(handler=_cmd_zeta)

    p = sub.add_parser("constant", help="the boundary constant (-1)^g zeta(1-2g)")
    p.add_argument("--g", type=int, required=True)
    add_format(p)
    p.set_defaults(handler=_cmd_constant)

    p = sub.add_parser("ring", help="tautological ring structure queries")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--show", choices=["dims", "basis", "pairing"], required=True)
    p.add_argument("--degree", type=int, default=None)
    add_format(p)
    p.set_defaults(handler=_cmd_ring)

    p = sub.add_parser("reduce", help="normal form of a polynomial in l1..lg")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--monomial", type=str, required=True, help="e.g. 'l1^6' or '2*l2 - l1^2'")
    add_format(p)
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("verify", help="run a verification")
    p.add_argument("--check", choices=[*_CHECKS, "all"], required=True)
    genus = p.add_mutually_exclusive_group()
    genus.add_argument("--g", type=int, default=None)
    genus.add_argument("--gmax", type=int, default=None, help="run the check for every genus 1..GMAX")
    add_format(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("satake", help="stratum-class constant table")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--p", type=int, default=None, help="also emit the p-rank-zero constant for this prime")
    add_format(p, csv_ok=True)
    p.set_defaults(handler=_cmd_satake)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse hands an empty list to a valued option given as --opt=--
    missing = [name for name, value in vars(args).items() if value == []]
    if missing:
        print(f"abtaut: error: argument --{missing[0]}: expected a value, got '--'", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
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
