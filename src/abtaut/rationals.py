"""Exact rational scalars: Bernoulli numbers and zeta values at odd negative integers.

Every scalar in this package is a ``fractions.Fraction``: arbitrary precision,
always stored reduced with a positive denominator, and printed as ``num/den``
(``num`` alone when the denominator is 1).

Each Bernoulli number is computed on its own, as in Fillebrown ("Faster
computation of Bernoulli numbers", J. Algorithms 13, 1992).  For even n >= 2
the theorem of von Staudt and Clausen gives the denominator of B_n,
D_n = prod of the primes p with (p - 1) | n, and Euler's formula
|B_n| = 2 n! zeta(n) / (2 pi)^n gives the numerator's magnitude
N = 2 n! D_n zeta(n) / (2 pi)^n, an integer.  At a precision of P bits,
integer bounds on pi 2^P (Machin's formula, each floor counted), on
zeta(n) 2^P (a partial sum and the tail bound K^-n + K^(1-n)/(n - 1)) and on
(2 pi)^n 2^P (fixed-point square-and-multiply, rounded down at one end and up
at the other) bound N between two integers.  P starts from the size of N and
rises until the bounds meet.  No step uses a float, so every value is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt
from operator import itemgetter

__all__ = ["bernoulli", "zeta_negative_odd", "boundary_constant"]

# B_n for even n >= 2, each written once; threads that race on an entry
# compute equal values.
_bernoulli_cache: dict[int, Fraction] = {}


def _require_int(function: str, name: str, value, low: int | None = None) -> None:
    """The argument contract of every public function: ``value`` is an int
    and not a bool (else a TypeError), and at least ``low`` if one is given
    (else a ValueError), each message naming the function and the argument."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{function} requires an int {name}, got {type(value).__name__}")
    if low is not None and value < low:
        raise ValueError(f"{function} requires {name} >= {low}, got {value}")


class _Record(tuple):
    """The base of the package's report records: a tuple whose items are also
    read by name.  A record is immutable, equals the plain tuple of its
    values and pickles by them.  A subclass names its fields in its class
    statement, ``class R(_Record, fields="a b")``, and is built from each
    field once, by position or by keyword."""

    __slots__ = ()

    def __init_subclass__(cls, *, fields: str, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(fields.split())
        for index, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(index), doc=f"Field {index} of the record"))

    def __new__(cls, *args, **kwargs):
        fields = cls._fields
        values = [*args, *(kwargs.pop(name) for name in fields[len(args):] if name in kwargs)]
        if kwargs or len(values) != len(fields):
            raise TypeError(f"{cls.__name__} takes each of its fields once: {', '.join(fields)}")
        return tuple.__new__(cls, values)

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{name}={value!r}' for name, value in zip(self._fields, self))})"


def _pi_bounds(precision: int) -> tuple[int, int]:
    """Integers lo <= pi 2^precision <= hi, from pi = 16 arctan(1/5) - 4 arctan(1/239).

    arctan(1/x) 2^precision is the alternating sum of the terms
    2^precision / ((2j + 1) x^(2j+1)).  Each term is taken as its exact floor
    (nested floor divisions are exact) until the power of x passes
    2^precision; the K floors and the tail, whose first term is below 1,
    leave the sum off by less than K + 1.  The bound pi > 3 keeps lo positive
    at any precision.
    """
    total = error = 0
    for weight, x in ((16, 5), (-4, 239)):
        power, square, divisor, arctan = (1 << precision) // x, x * x, 1, 0
        while power:
            arctan += power // divisor
            power //= square
            arctan -= power // (divisor + 2)
            power //= square
            divisor += 4
        total += weight * arctan
        error += abs(weight) * (divisor // 2 + 1)
    return max(total - error, 3 << precision), total + error


def _zeta_bounds(n: int, precision: int) -> tuple[int, int]:
    """Integers lo <= zeta(n) 2^precision <= hi for n >= 2.

    The partial sum of 2^precision and the floors of 2^precision / k^n for
    1 < k < K is the lower bound.  The upper bound adds one per floor and the
    tail bound sum_{k >= K} k^-n <= K^-n + K^(1-n)/(n - 1), rounded up.  K is
    the first k > 1 with k^n >= 2^precision, so the tail bound is at most
    1 + K/(n - 1) and the error is about one per floor.
    """
    one = 1 << precision
    partial, k, power = one, 2, 1 << n
    while power < one:
        partial += one // power
        k += 1
        power = k**n
    tail = -(-one * (n - 1 + k) // ((n - 1) * power))
    return partial, partial + (k - 2) + tail


def _power_bounds(lo: int, hi: int, n: int, precision: int) -> tuple[int, int]:
    """Integers at most lo^n and at least hi^n, both over 2^(precision (n - 1)),
    for 0 < lo <= hi and n >= 1: left-to-right square-and-multiply at scale
    2^precision, every product rounded down for lo and up for hi."""
    up = (1 << precision) - 1
    low, high = lo, hi
    for bit in bin(n)[3:]:
        low = low * low >> precision
        high = (high * high + up) >> precision
        if bit == "1":
            low = low * lo >> precision
            high = (high * hi + up) >> precision
    return low, high


def _is_prime(p: int) -> bool:
    """Whether the integer p is prime, by trial division up to isqrt(p)."""
    if p < 4:
        return p > 1
    if p % 2 == 0:
        return False
    return all(p % d for d in range(3, isqrt(p) + 1, 2))


def _staudt_denominator(n: int) -> int:
    """D_n = prod of the primes p with (p - 1) | n, the denominator of B_n for
    even n >= 2 (von Staudt–Clausen)."""
    denominator = 1
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            for p in (d + 1, n // d + 1) if d * d < n else (d + 1,):
                if _is_prime(p):
                    denominator *= p
    return denominator


def _interval(scale: int, n: int, precision: int) -> tuple[int, int]:
    """Integers lo <= scale zeta(n) / (2 pi)^n <= hi for scale > 0 and n >= 2,
    with pi, zeta(n) and (2 pi)^n bounded at ``precision`` bits."""
    pi_lo, pi_hi = _pi_bounds(precision)
    zeta_lo, zeta_hi = _zeta_bounds(n, precision)
    power_lo, power_hi = _power_bounds(2 * pi_lo, 2 * pi_hi, n, precision)
    return -(-scale * zeta_lo // power_hi), scale * zeta_hi // power_lo


def _settle(scale: int, n: int) -> tuple[int, int]:
    """The integer scale zeta(n) / (2 pi)^n, for scale > 0 and n >= 2, and the
    precision at which its bounds met.

    The first precision is an upper bound on the integer's bits (zeta(n) < 2
    and log2(2 pi) > 2.651) plus guard bits for the error counts, which grow
    like n times the precision; each miss adds the bits of the interval's
    width.
    """
    size = scale.bit_length() + 1 - n * 2651 // 1000
    precision = size + (n * size).bit_length() + 2
    while True:
        lo, hi = _interval(scale, n, precision)
        if lo == hi:
            return lo, precision
        precision += (hi - lo).bit_length() + 1


def _even_bernoulli(n: int) -> Fraction:
    """B_n for even n >= 2: sign (-1)^(n/2 + 1), denominator D_n and numerator
    2 n! D_n zeta(n) / (2 pi)^n."""
    denominator = _staudt_denominator(n)
    numerator, _ = _settle(2 * factorial(n) * denominator, n)
    return Fraction(numerator if n % 4 == 2 else -numerator, denominator)


def bernoulli(n: int) -> Fraction:
    """Return the Bernoulli number B_n under the convention B_1 = -1/2.

    These are the coefficients of t/(e^t - 1) = sum_k B_k t^k / k!.  Each even
    B_n is computed on its own from zeta(n) and von Staudt–Clausen (see the
    module docstring) and memoised, so repeated calls are O(1).

    >>> bernoulli(12)
    Fraction(-691, 2730)
    >>> bernoulli(800).denominator
    9315635010
    """
    _require_int("bernoulli", "n", n, 0)
    if n < 2:
        return Fraction(1) if n == 0 else Fraction(-1, 2)
    if n % 2:
        # odd Bernoulli numbers above B_1 vanish
        return Fraction(0)
    value = _bernoulli_cache.get(n)
    if value is None:
        value = _bernoulli_cache.setdefault(n, _even_bernoulli(n))
    return value


def zeta_negative_odd(g: int) -> Fraction:
    """Return zeta(1 - 2g) = -B_{2g} / (2g) for a positive integer g.

    >>> zeta_negative_odd(1)
    Fraction(-1, 12)
    """
    _require_int("zeta_negative_odd", "g", g, 1)
    return -bernoulli(2 * g) / (2 * g)


def boundary_constant(g: int) -> Fraction:
    """Return (-1)^g * zeta(1 - 2g), the multiple attaching the rank-one
    boundary class to the top Chern class of the Hodge bundle.

    The value is positive for every g >= 1; its reciprocal is the integer
    12, 120, 252 for g = 1, 2, 3.
    """
    _require_int("boundary_constant", "g", g, 1)
    return (-1) ** g * zeta_negative_odd(g)
