"""Reference route for the named series, by Fraction recurrences in one variable.

``graded.named_series`` takes ``graded_log`` (and for ``todd_dual_gen`` then
``graded_exp``) of (e^t - 1)/t or (1 - e^{-t})/t in the one-generator ring
``t``, on the integer kernel.  This module is the engine's former series
code: the two builders and the ``log`` and ``reciprocal`` loops of the
deleted ``UnivariateSeries``, each a coefficient-by-coefficient recurrence
in ``Fraction``.  Tests compare the two routes coefficient by coefficient.
"""

from __future__ import annotations

from fractions import Fraction


def exp_minus_one_over_t(order: int) -> list[Fraction]:
    """(e^t - 1) / t."""
    fact = Fraction(1)
    out = []
    for k in range(order + 1):
        fact *= k + 1
        out.append(Fraction(1) / fact)
    return out


def one_minus_exp_neg_over_t(order: int) -> list[Fraction]:
    """(1 - e^{-t}) / t."""
    fact = Fraction(1)
    out = []
    for k in range(order + 1):
        fact *= k + 1
        out.append(Fraction((-1) ** k) / fact)
    return out


def reciprocal(a: list[Fraction]) -> list[Fraction]:
    if a[0] == 0:
        raise ValueError("reciprocal requires a nonzero constant coefficient")
    r = [Fraction(1) / a[0]]
    for n in range(1, len(a)):
        acc = Fraction(0)
        for j in range(1, n + 1):
            acc += a[j] * r[n - j]
        r.append(-acc / a[0])
    return r


def log(a: list[Fraction]) -> list[Fraction]:
    if a[0] != 1:
        raise ValueError("log requires constant coefficient 1")
    l = [Fraction(0)] * len(a)
    for n in range(1, len(a)):
        acc = Fraction(0)
        for j in range(1, n):
            acc += j * l[j] * a[n - j]
        l[n] = a[n] - acc / n
    return l


def named_series(name: str, order: int) -> tuple[Fraction, ...]:
    if name == "todd_dual_gen":
        return tuple(reciprocal(exp_minus_one_over_t(order)))
    if name == "log_todd_gen":
        return tuple(-c for c in log(one_minus_exp_neg_over_t(order)))
    if name == "log_todd_dual_gen":
        return tuple(-c for c in log(exp_minus_one_over_t(order)))
    if name == "log_one_minus_exp_neg_over_t":
        return tuple(log(one_minus_exp_neg_over_t(order)))
    raise ValueError(f"unknown series {name!r}")
