"""The CLI's former argparse parser, kept as a test oracle for the hand parser
of ``abtaut.cli``.

``build_parser`` is the one the CLI used, unchanged, so
``build_parser().parse_args(argv)`` either exits with code 2 or returns a
namespace whose option values the hand parser must reproduce.  argparse's
reading of ``--`` changed in Python 3.13 (``--opt=--`` used to give ``[]``),
so the oracle is silent on argument vectors that hold a ``--`` word or value.
"""

import argparse

from abtaut.cli import (
    _CHECKS,
    _cmd_bernoulli,
    _cmd_constant,
    _cmd_reduce,
    _cmd_ring,
    _cmd_satake,
    _cmd_verify,
    _cmd_zeta,
)


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
