"""The rank-one boundary computation: classes in the divisor generators Pi
and T, the monomial pushforward rule, and the coefficient pipeline that
re-derives the constant attaching the boundary class to the top Chern class.

The two generators model the divisor of the Poincare bundle (Pi) and the
fibrewise polarization divisor (T); the first Chern classes of the two normal
directions are a1 = Pi and a2 = -Pi - 2T.  Their sum is -2T, so the quotient
(a1^(2k-1) + a2^(2k-1)) / (a1 + a2) is an exact division by -2T, carried out
in the Pi, T alphabet and checked by multiplying back.  The pushforward
consumes exactly the homogeneous part of degree 2g - 2 and is applied as a
rewrite rule on monomials, never re-derived.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import NamedTuple

from .graded import GradedPolynomial, GradedRing
from .rationals import bernoulli, boundary_constant, zeta_negative_odd

__all__ = [
    "BoundaryClass",
    "PushforwardResult",
    "BinomialExpansionReport",
    "GrrReport",
    "boundary_ring",
    "pushforward",
    "sum_powers_quotient",
    "binomial_expansion_check",
    "grr_coefficient",
    "grr_report",
]

_PI_T = GradedRing(("Pi", "T"), (1, 1), None)


def boundary_ring() -> GradedRing:
    """The two-generator alphabet Pi, T (both of weight 1, no truncation:
    every identity here is checked exactly, including above degree 2g - 2)."""
    return _PI_T


class BoundaryClass(NamedTuple):
    """A polynomial in Pi and T together with the genus whose pushforward
    rule is meant to consume it."""

    genus: int
    poly: GradedPolynomial

    def __str__(self) -> str:
        return str(self.poly)


class PushforwardResult(NamedTuple):
    """The multiple of the boundary cycle class produced by a pushforward."""

    delta_coefficient: Fraction


def _as_poly(p: BoundaryClass | GradedPolynomial) -> GradedPolynomial:
    poly = p.poly if isinstance(p, BoundaryClass) else p
    if poly.ring.names != _PI_T.names or poly.ring.weights != _PI_T.weights:
        raise ValueError("pushforward expects a polynomial in the Pi, T alphabet")
    return poly


def pushforward(g: int, p: BoundaryClass | GradedPolynomial) -> PushforwardResult:
    """Apply the monomial rewrite rule for genus g.

    Pi^(2g-2) maps to (-1)^(g-1) (2g-2)!; any monomial containing T and any
    monomial of degree different from 2g - 2 maps to 0 (the fibres have
    dimension g - 1, so nothing else survives).
    """
    if g < 1:
        raise ValueError(f"pushforward requires g >= 1, got {g}")
    poly = _as_poly(p)
    coeff = poly.coefficient((2 * g - 2, 0))
    return PushforwardResult(coeff * (-1) ** (g - 1) * factorial(2 * g - 2))


def _divide_by_minus_2t(numerator: GradedPolynomial) -> GradedPolynomial:
    """The exact quotient numerator / (-2T): every term has its T exponent
    lowered by one and its coefficient divided by -2.  Exactness is verified
    by multiplying back; a term without T survives no such round trip, so a
    non-exact division raises ArithmeticError."""
    quotient = GradedPolynomial(_PI_T, {(i, j - 1): c / -2 for (i, j), c in numerator.terms.items() if j})
    if _PI_T.monomial((0, 1), -2) * quotient != numerator:
        raise ArithmeticError(f"{numerator} is not divisible by -2T")
    return quotient


@lru_cache(maxsize=None)
def sum_powers_quotient(k: int) -> BoundaryClass:
    """The exact quotient (a1^(2k-1) + a2^(2k-1)) / (a1 + a2) with a1 = Pi and
    a2 = -Pi - 2T, computed in the Pi, T alphabet.

    Since a1 + a2 = -2T identically, the quotient is the numerator
    Pi^(2k-1) + (-Pi - 2T)^(2k-1) divided exactly by -2T; the division is
    checked by multiplying back, and a mismatch raises ArithmeticError (it
    would signal an arithmetic bug).
    """
    if k < 1:
        raise ValueError(f"sum_powers_quotient requires k >= 1, got {k}")
    pi, t = _PI_T.gens()
    return BoundaryClass(k, _divide_by_minus_2t(pi ** (2 * k - 1) + (-pi - 2 * t) ** (2 * k - 1)))


class BinomialExpansionReport(NamedTuple):
    genus: int
    ok: bool
    lhs: GradedPolynomial
    rhs: GradedPolynomial

    def as_payload(self) -> dict:
        return {"g": self.genus, "ok": self.ok, "lhs": str(self.lhs), "rhs": str(self.rhs)}


def binomial_expansion_check(g: int) -> BinomialExpansionReport:
    """Verify (-1)^(g-1) Pi^(g-1) (-Pi - 2T)^(g-1) =
    sum_r C(g-1, r) Pi^(2g-2-r) (2T)^r exactly."""
    if g < 1:
        raise ValueError(f"binomial_expansion_check requires g >= 1, got {g}")
    pi, t = _PI_T.gens()
    lhs = (pi ** (g - 1)) * ((-pi - 2 * t) ** (g - 1)) * ((-1) ** (g - 1))
    rhs = _PI_T.zero
    for r in range(g):
        rhs = rhs + (pi ** (2 * g - 2 - r)) * ((2 * t) ** r) * comb(g - 1, r)
    return BinomialExpansionReport(genus=g, ok=lhs == rhs, lhs=lhs, rhs=rhs)


def grr_coefficient(g: int) -> Fraction:
    """The multiple q of the boundary cycle produced by the pushforward
    pipeline: q = (-1)^g B_{2g} / (2g)! times the pushforward of the degree-
    matched quotient term.

    Along the way this verifies, exactly, that every lower term of the
    expansion pushes to 0, that each T-bearing monomial of the matched term
    pushes to 0 individually, and that the pure-Pi coefficient is 2g - 1.
    """
    if g < 1:
        raise ValueError(f"grr_coefficient requires g >= 1, got {g}")
    for k in range(1, g):
        low = sum_powers_quotient(k)
        if pushforward(g, low).delta_coefficient != 0:
            raise ArithmeticError(f"term k={k} < g={g} failed to push to zero")
    matched = sum_powers_quotient(g)
    for exps, coeff in matched.poly.terms.items():
        if exps[1] >= 1:
            mono = _PI_T.monomial(exps, coeff)
            if pushforward(g, mono).delta_coefficient != 0:
                raise ArithmeticError(f"T-bearing monomial {exps} failed to push to zero")
    if matched.poly.coefficient((2 * g - 2, 0)) != 2 * g - 1:
        raise ArithmeticError(f"pure-Pi coefficient differs from {2 * g - 1} at g={g}")
    factor = Fraction((-1) ** g) * bernoulli(2 * g) / factorial(2 * g)
    return factor * pushforward(g, matched).delta_coefficient


class GrrReport(NamedTuple):
    """Sign ledger for the pipeline output q at one genus.

    Only the magnitude is asserted anywhere; the two sign flags report
    whether q equals (-1)^g zeta(1-2g) (the stated positive constant) or
    zeta(1-2g) itself, so the ledger is machine-checked rather than assumed.
    """

    genus: int
    q: Fraction
    magnitude_ok: bool
    sign_matches_theorem: bool
    sign_matches_zeta: bool

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
