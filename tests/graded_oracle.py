"""Reference arithmetic for the graded engine, by the per-term Fraction loop.

Every ``GradedPolynomial`` operation runs on the integer kernel of
``abtaut.graded``.  This module is the engine's former product loop, which
multiplies term by term in ``Fraction`` and truncates pair by pair; the
powers, exponentials and logarithms here are built on it and on a
``Fraction`` sum of term maps.  A polynomial enters through its ``terms``
and leaves through ``GradedRing.from_terms``, so no sum, scaling or product
here touches the kernel.  Tests compare the two routes polynomial by
polynomial.
"""

from __future__ import annotations

from fractions import Fraction

from abtaut import GradedPolynomial, GradedRing

Exponents = tuple[int, ...]
Terms = dict[Exponents, Fraction]


def _mul(ring: GradedRing, a: Terms, b: Terms) -> Terms:
    bound = ring.bound
    degree = ring.degree
    if len(a) > len(b):
        a, b = b, a
    bitems = [(e, c, degree(e)) for e, c in b.items()]
    out: Terms = {}
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
    return out


def _add(a: Terms, b: Terms, factor: Fraction = Fraction(1)) -> Terms:
    """a + factor * b."""
    out = dict(a)
    for e, c in b.items():
        if v := out.get(e, 0) + factor * c:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def mul(left: GradedPolynomial, right: GradedPolynomial) -> GradedPolynomial:
    if left.ring != right.ring:
        raise ValueError(f"incompatible rings: {left.ring!r} vs {right.ring!r}")
    return left.ring.from_terms(_mul(left.ring, left.terms, right.terms))


def power(a: GradedPolynomial, n: int) -> GradedPolynomial:
    ring = a.ring
    result = {(0,) * ring.ngens: Fraction(1)}
    for _ in range(n):
        result = _mul(ring, result, a.terms)
    return ring.from_terms(result)


def exp(a: GradedPolynomial) -> GradedPolynomial:
    """sum_k a^k / k! up to the ring's bound; ``a`` has zero constant term."""
    ring = a.ring
    result = term = {(0,) * ring.ngens: Fraction(1)}
    for k in range(1, ring.bound + 1):
        term = {e: c / k for e, c in _mul(ring, term, a.terms).items()}
        result = _add(result, term)
    return ring.from_terms(result)


def log(a: GradedPolynomial) -> GradedPolynomial:
    """sum_{k>=1} (-1)^(k+1) (a-1)^k / k up to the ring's bound; ``a`` has constant term 1."""
    ring = a.ring
    one = {(0,) * ring.ngens: Fraction(1)}
    u = _add(a.terms, one, Fraction(-1))
    acc: Terms = {}
    term = one
    for k in range(1, ring.bound + 1):
        term = _mul(ring, term, u)
        acc = _add(acc, term, Fraction((-1) ** (k + 1), k))
    return ring.from_terms(acc)


def add(a: GradedPolynomial, b: GradedPolynomial, factor: Fraction = Fraction(1)) -> GradedPolynomial:
    """a + factor * b."""
    if a.ring != b.ring:
        raise ValueError(f"incompatible rings: {a.ring!r} vs {b.ring!r}")
    return a.ring.from_terms(_add(a.terms, b.terms, factor))


def scale(a: GradedPolynomial, c: Fraction) -> GradedPolynomial:
    return a.ring.from_terms({e: v * c for e, v in a.terms.items()})


def degrees(a: GradedPolynomial, low: int, high: int | None, ring: GradedRing | None = None) -> GradedPolynomial:
    """The terms of degree low..high (None: no upper end), in ``ring``,
    by default a's own."""
    degree = a.ring.degree
    kept = {e: c for e, c in a.terms.items() if low <= degree(e) and (high is None or degree(e) <= high)}
    return (ring or a.ring).from_terms(kept)
