"""Bernoulli numbers from the integer tangent numbers, a reference for tests.

Brent–Harvey ("Fast computation of Bernoulli, tangent and secant numbers",
2011): one O(n^2) pass of small-by-big integer products gives the tangent
numbers T_k, and B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).  It shares no
code with ``abtaut.rationals``, which computes each B_n from zeta(n).
"""

from fractions import Fraction


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


def bernoulli_table(n_max: int) -> list[Fraction]:
    """B_0..B_{n_max} under the convention B_1 = -1/2."""
    tangent = _tangent_numbers(n_max // 2)
    values = []
    for m in range(n_max + 1):
        if m < 2:
            values.append(Fraction(1) if m == 0 else Fraction(-1, 2))
        elif m % 2:
            values.append(Fraction(0))
        else:
            k = m // 2
            four_k = 4**k
            values.append(Fraction((-1) ** (k - 1) * m * tangent[k], four_k * (four_k - 1)))
    return values
