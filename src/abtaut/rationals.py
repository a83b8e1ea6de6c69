"""Exact rational scalars: Bernoulli numbers and zeta values at odd negative integers.

Every scalar in this package is a ``fractions.Fraction``: arbitrary precision,
always stored reduced with a positive denominator, and printed as ``num/den``
(``num`` alone when the denominator is 1).  Bernoulli numbers come from the
integer tangent numbers (Brent–Harvey, "Fast computation of Bernoulli,
tangent and secant numbers", 2011); the only rational step is the final
division of each one.
"""

from __future__ import annotations

import threading
from fractions import Fraction

__all__ = ["Rational", "bernoulli", "zeta_negative_odd", "boundary_constant"]

Rational = Fraction

_bernoulli_cache: list[Fraction] = [Fraction(1)]
_bernoulli_lock = threading.Lock()


def _tangent_numbers(k_max: int) -> list[int]:
    """Tangent numbers T_0..T_{k_max} (T_0 = 0), the coefficients of
    tan t = sum_k T_k t^(2k-1) / (2k-1)!, by Brent–Harvey's integer loop."""
    t = [0, 1] + [0] * (k_max - 1)
    for k in range(2, k_max + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, k_max + 1):
        for j in range(k, k_max + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[: k_max + 1]


def bernoulli(n: int) -> Fraction:
    """Return the Bernoulli number B_n under the convention B_1 = -1/2.

    These are the coefficients of t/(e^t - 1) = sum_k B_k t^k / k!.  The even
    ones are B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) with T_k the tangent
    numbers; one pass of the tangent loop, O(n^2) small-by-big integer
    products, fills the memo for every index up to n, so repeated calls are
    O(1).

    >>> bernoulli(12)
    Fraction(-691, 2730)
    """
    if n < 0:
        raise ValueError(f"bernoulli requires n >= 0, got {n}")
    if n >= len(_bernoulli_cache):
        with _bernoulli_lock:
            start = len(_bernoulli_cache)
            if n >= start:
                tangent = _tangent_numbers(n // 2)
                values = []
                for m in range(start, n + 1):
                    if m == 1:
                        values.append(Fraction(-1, 2))
                    elif m % 2:
                        # odd Bernoulli numbers above B_1 vanish
                        values.append(Fraction(0))
                    else:
                        k = m // 2
                        four_k = 4**k
                        values.append(Fraction((-1) ** (k - 1) * m * tangent[k], four_k * (four_k - 1)))
                _bernoulli_cache.extend(values)
    return _bernoulli_cache[n]


def zeta_negative_odd(g: int) -> Fraction:
    """Return zeta(1 - 2g) = -B_{2g} / (2g) for a positive integer g.

    >>> zeta_negative_odd(1)
    Fraction(-1, 12)
    """
    if g < 1:
        raise ValueError(f"zeta_negative_odd requires g >= 1, got {g}")
    return -bernoulli(2 * g) / (2 * g)


def boundary_constant(g: int) -> Fraction:
    """Return (-1)^g * zeta(1 - 2g), the multiple attaching the rank-one
    boundary class to the top Chern class of the Hodge bundle.

    The value is positive for every g >= 1; its reciprocal is the integer
    12, 120, 252 for g = 1, 2, 3.
    """
    if g < 1:
        raise ValueError(f"boundary_constant requires g >= 1, got {g}")
    return (-1) ** g * zeta_negative_odd(g)
