"""The rank-one boundary computation: classes in the divisor generators Pi
and T, the monomial pushforward rule, and the coefficient pipeline that
re-derives the constant attaching the boundary class to the top Chern class.

The two generators model the divisor of the Poincare bundle (Pi) and the
fibrewise polarization divisor (T); the first Chern classes of the two normal
directions are a1 = Pi and a2 = -Pi - 2T.  With b = Pi + 2T the quotients
Q_k = (a1^(2k-1) + a2^(2k-1)) / (a1 + a2) are (b^(2k-1) - Pi^(2k-1)) / (2T),
and the binomial theorem for b^(2k-1) gives the coefficient C(2k-1, r+1) 2^r
of Pi^(2k-2-r) T^r.  So every Q_k is read off in closed form, a polynomial in
Pi and T by a theorem, and no product or division is carried out.
The pushforward consumes exactly the homogeneous part of degree 2g - 2 and
is applied as a rewrite rule on monomials, never re-derived.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .graded import GradedPolynomial, GradedRing
from .rationals import _require_int, bernoulli, boundary_constant, zeta_negative_odd

__all__ = [
    "BoundaryClass",
    "PushforwardResult",
    "GrrReport",
    "boundary_ring",
    "pushforward",
    "sum_powers_quotient",
    "grr_coefficient",
    "grr_report",
]

_PI_T = GradedRing(("Pi", "T"), (1, 1), None)


def boundary_ring() -> GradedRing:
    """The two-generator alphabet Pi, T (both of weight 1, no truncation:
    every identity here is checked exactly, including above degree 2g - 2)."""
    return _PI_T


class BoundaryClass(namedtuple("BoundaryClass", "genus poly")):
    """A polynomial in Pi and T together with the genus whose pushforward
    rule is meant to consume it."""

    __slots__ = ()

    def __str__(self) -> str:
        return str(self.poly)


class PushforwardResult(namedtuple("PushforwardResult", "delta_coefficient")):
    """The multiple of the boundary cycle class produced by a pushforward."""

    __slots__ = ()


def _as_poly(p: BoundaryClass | GradedPolynomial) -> GradedPolynomial:
    poly = p.poly if isinstance(p, BoundaryClass) else p
    if poly.ring != _PI_T:
        raise ValueError(f"pushforward expects a polynomial of {_PI_T!r}, got one of {poly.ring!r}")
    return poly


def pushforward(g: int, p: BoundaryClass | GradedPolynomial) -> PushforwardResult:
    """Apply the monomial rewrite rule for genus g.

    Pi^(2g-2) maps to (-1)^(g-1) (2g-2)!; any monomial containing T and any
    monomial of degree different from 2g - 2 maps to 0 (the fibres have
    dimension g - 1, so nothing else survives).
    """
    _require_int("pushforward", "g", g, 1)
    return PushforwardResult(_as_poly(p).coefficient((2 * g - 2, 0)) * (-1) ** (g - 1) * factorial(2 * g - 2))


@lru_cache(maxsize=None)
def sum_powers_quotient(k: int) -> BoundaryClass:
    """The quotient Q_k = (a1^(2k-1) + a2^(2k-1)) / (a1 + a2) with a1 = Pi and
    a2 = -Pi - 2T, in the Pi, T alphabet.

    With b = Pi + 2T, Q_k = (b^(2k-1) - Pi^(2k-1)) / (b - Pi), so the binomial
    theorem gives C(2k-1, r+1) 2^r as the coefficient of Pi^(2k-2-r) T^r; the
    quotient is read off without a product or a division.
    Q_2 = 3*Pi^2 + 6*Pi*T + 4*T^2:

    >>> print(sum_powers_quotient(2))
    4*T^2 + 6*Pi*T + 3*Pi^2
    """
    _require_int("sum_powers_quotient", "k", k, 1)
    terms = {(2 * k - 2 - r, r): Fraction(comb(2 * k - 1, r + 1) << r) for r in range(2 * k - 1)}
    return BoundaryClass(k, _PI_T.from_terms(terms))


def grr_coefficient(g: int) -> Fraction:
    """The multiple q of the boundary cycle produced by the pushforward
    pipeline: q = (-1)^g B_{2g} / (2g)! times the pushforward of Q_g.

    That only Q_g contributes is a theorem, the dimension count of the
    fibres, which have dimension g - 1: every Q_k with k < g has degree
    2k - 2 < 2g - 2 and pushes to 0, every T-bearing monomial of Q_g pushes
    to 0, and the coefficient of Pi^(2g-2) in Q_g is C(2g-1, 1) = 2g - 1.
    So q = -B_{2g} / (2g) = zeta(1 - 2g).  The three facts are not
    re-checked here; ``test_grr_degree_facts_up_to_the_cap`` in
    ``tests/test_boundary.py`` asserts each of them at every genus up to
    the CLI's grr cap.
    """
    _require_int("grr_coefficient", "g", g, 1)
    factor = Fraction((-1) ** g) * bernoulli(2 * g) / factorial(2 * g)
    return factor * pushforward(g, sum_powers_quotient(g)).delta_coefficient


class GrrReport(namedtuple("GrrReport", "genus q magnitude_ok sign_matches_theorem sign_matches_zeta")):
    """Sign ledger for the pipeline output q at one genus.

    Only the magnitude is asserted anywhere; the two sign flags report
    whether q equals (-1)^g zeta(1-2g) (the stated positive constant) or
    zeta(1-2g) itself, so the ledger is machine-checked rather than assumed.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        """The check's verdict: only the magnitude is asserted."""
        return self.magnitude_ok

    def as_payload(self) -> dict:
        return {
            "g": self.genus,
            "q": str(self.q),
            "magnitude_ok": self.magnitude_ok,
            "sign_matches_theorem": self.sign_matches_theorem,
            "sign_matches_zeta": self.sign_matches_zeta,
        }


def grr_report(g: int) -> GrrReport:
    """Run the pipeline at genus g and compare |q| against the closed-form
    constant; a magnitude mismatch is a hard failure of the check."""
    _require_int("grr_report", "g", g, 1)
    q = grr_coefficient(g)
    constant = boundary_constant(g)
    zeta = zeta_negative_odd(g)
    return GrrReport(
        genus=g,
        q=q,
        magnitude_ok=abs(q) == constant,
        sign_matches_theorem=q == constant,
        sign_matches_zeta=q == zeta,
    )
