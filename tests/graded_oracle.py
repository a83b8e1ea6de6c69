"""Reference arithmetic for the graded engine, by the per-term Fraction loop.

``GradedPolynomial.__mul__``, ``**``, ``graded_exp`` and ``graded_log`` run on
the integer kernel of ``abtaut.graded``.  This module is the engine's former
product loop, which multiplies term by term in ``Fraction`` and truncates
pair by pair; the powers, exponentials and logarithms here are built on it
and on ``GradedPolynomial`` addition and scalar scaling, which never touch the
kernel.  Tests compare the two routes polynomial by polynomial.
"""

from __future__ import annotations

from fractions import Fraction

from abtaut import GradedPolynomial

Exponents = tuple[int, ...]


def mul(left: GradedPolynomial, right: GradedPolynomial) -> GradedPolynomial:
    if left.ring != right.ring:
        raise ValueError(f"incompatible rings: {left.ring!r} vs {right.ring!r}")
    ring = left.ring
    bound = ring.bound
    degree = ring.degree
    a, b = left.terms, right.terms
    if len(a) > len(b):
        a, b = b, a
    bitems = [(e, c, degree(e)) for e, c in b.items()]
    out: dict[Exponents, Fraction] = {}
    get = out.get
    for ea, ca in a.items():
        da = degree(ea)
        for eb, cb, db in bitems:
            if bound is not None and da + db > bound:
                continue
            e = tuple(x + y for x, y in zip(ea, eb))
            v = get(e, Fraction(0)) + ca * cb
            if v:
                out[e] = v
            elif e in out:
                del out[e]
    return GradedPolynomial(ring, out)


def power(a: GradedPolynomial, n: int) -> GradedPolynomial:
    result = a.ring.one
    for _ in range(n):
        result = mul(result, a)
    return result


def exp(a: GradedPolynomial) -> GradedPolynomial:
    """sum_k a^k / k! up to the ring's bound; ``a`` has zero constant term."""
    result = term = a.ring.one
    for k in range(1, a.ring.bound + 1):
        term = mul(term, a) * Fraction(1, k)
        result = result + term
    return result


def log(a: GradedPolynomial) -> GradedPolynomial:
    """sum_{k>=1} (-1)^(k+1) (a-1)^k / k up to the ring's bound; ``a`` has constant term 1."""
    u = a - 1
    acc = a.ring.zero
    term = a.ring.one
    for k in range(1, a.ring.bound + 1):
        term = mul(term, u)
        acc = acc + term * Fraction((-1) ** (k + 1), k)
    return acc
