"""Reference route for the power sums of a bundle's Chern roots, by Newton's
recursion.

``charclass.newton_power_sums`` reads p_k off one logarithm,
log(1 + c_1 + ... + c_rank) = sum_k (-1)^(k-1) p_k / k, on the integer
kernel of ``abtaut.graded``.  This module is its former body: the
recursion p_k = e_1 p_{k-1} - e_2 p_{k-2} + ... + (-1)^(k-1) k e_k with
e_i = c_i, one polynomial product per step and Chern class, in the bundle
ring itself.  Its products, sums and scalings are ``graded_oracle``'s
per-term ``Fraction`` loops, so the two routes share no arithmetic.  Tests
compare them polynomial by polynomial.
"""

from __future__ import annotations

from fractions import Fraction

from abtaut import BundleClasses, GradedPolynomial
from graded_oracle import add, mul, scale


def power_sums(b: BundleClasses, k_max: int) -> list[GradedPolynomial]:
    # Newton's identities with e_i = c_i; valid in either representation
    ring = b.ring
    e = [ring.one] + list(b.chern)  # e_0 = 1, e_i = 0 for i > rank
    ps: list[GradedPolynomial] = [ring.constant(b.rank)]
    for k in range(1, k_max + 1):
        acc = ring.zero
        for i in range(1, k):
            if i <= b.rank:
                acc = add(acc, mul(e[i], ps[k - i]), Fraction((-1) ** (i - 1)))
        if k <= b.rank:
            acc = add(acc, scale(e[k], Fraction((-1) ** (k - 1) * k)))
        ps.append(acc)
    return ps
