"""Reference routes over formal roots, and the root alphabet itself.

``charclass.exterior_alternating_sum_dual`` reads the product
prod_i (1 - e^{-x_i}) off on partitions and converts it through counts of
0-1 matrices.  This module keeps its former body: it sums the 2^g
exponentials e^{-(x_S)} of the negated subset sums with sign (-1)^{|S|} and
rewrites the symmetric total in the elementary symmetrics by
leading-monomial subtraction on full root monomials, each product of
elementary symmetrics expanded by multiplication.  The exponentials and the
products are ``graded_oracle``'s per-term Fraction loop, so no step runs on
the library's integer kernel.  Tests compare the two routes polynomial by
polynomial.

The library builds no bundle over roots, so the root alphabet lives here:
``bundle_from_roots`` is the rank-g bundle whose Chern classes are the
elementary symmetrics of x1..xg, and ``symmetric_to_elementary`` takes a
symmetric polynomial in the roots to the library's rewrite, which reads
its coefficients on partitions.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from itertools import combinations
from math import lcm

import graded_oracle
from abtaut import BundleClasses, GradedPolynomial, GradedRing, charclass


def _swap_variables(p: GradedPolynomial, i: int, j: int) -> GradedPolynomial:
    out: dict[tuple[int, ...], Fraction] = {}
    for exps, c in p.terms.items():
        e = list(exps)
        e[i], e[j] = e[j], e[i]
        out[tuple(e)] = c
    return p.ring.from_terms(out)


def is_symmetric(p: GradedPolynomial) -> bool:
    """True when p is invariant under every transposition of adjacent variables."""
    for i in range(p.ring.ngens - 1):
        if _swap_variables(p, i, i + 1).terms != p.terms:
            return False
    return True


def elementary_symmetric(ring: GradedRing, k: int) -> GradedPolynomial:
    """The k-th elementary symmetric polynomial in all generators of ``ring``."""
    n = ring.ngens
    if k < 0 or k > n:
        raise ValueError(f"elementary symmetric index {k} out of range for {n} variables")
    terms: dict[tuple[int, ...], Fraction] = {}
    for subset in combinations(range(n), k):
        exps = [0] * n
        for i in subset:
            exps[i] = 1
        terms[tuple(exps)] = Fraction(1)
    return ring.from_terms(terms)


def bundle_from_roots(g: int, bound: int | None = None) -> BundleClasses:
    """Rank-g bundle over the roots x1..xg, with c_i the i-th elementary
    symmetric; the bound defaults to the socle degree g(g+1)/2."""
    if bound is None:
        bound = g * (g + 1) // 2
    ring = GradedRing(tuple(f"x{i}" for i in range(1, g + 1)), (1,) * g, bound)
    return BundleClasses(g, tuple(elementary_symmetric(ring, k) for k in range(1, g + 1)), ring)


def symmetric_to_elementary(p: GradedPolynomial) -> GradedPolynomial:
    """The symmetric polynomial ``p`` in weight-1 roots, rewritten by
    ``charclass.symmetric_to_elementary`` from its coefficients on partitions
    and truncated at p's bound."""
    ring = p.ring
    g = ring.ngens
    if any(w != 1 for w in ring.weights):
        raise ValueError("symmetric_to_elementary expects a root ring with all weights 1")
    if not is_symmetric(p):
        raise ValueError("input is not symmetric under transpositions of the root variables")
    dominant = {e: c for e, c in p.terms.items() if list(e) == sorted(e, reverse=True)}
    return charclass.symmetric_to_elementary(g, dominant).truncate(ring.bound)


def _partitions(d: int, parts: int, largest: int) -> Iterator[tuple[int, ...]]:
    """The partitions of d into at most ``parts`` parts of at most ``largest``,
    as nonincreasing ``parts``-tuples, in descending lex order."""
    if parts == 0:
        if d == 0:
            yield ()
        return
    for first in range(min(d, largest), -1, -1):
        for rest in _partitions(d - first, parts - 1, first):
            yield (first,) + rest


def to_elementary(p: GradedPolynomial, prefix: str = "c") -> GradedPolynomial:
    """The symmetric polynomial ``p`` in the root variables, rewritten in the
    elementary symmetrics ``<prefix>1 .. <prefix>g`` of weights 1..g.

    Each degree is walked through its partitions lam in descending lex order,
    so the next one with a nonzero coefficient is the leading monomial left;
    subtracting that coefficient times e_{lam'}, which leads with x^lam,
    only changes monomials below it.  Anything left at the end is not
    symmetric."""
    ring = p.ring
    g = ring.ngens
    target = GradedRing(tuple(f"{prefix}{i}" for i in range(1, g + 1)), tuple(range(1, g + 1)), ring.bound)
    elementary = [None] + [elementary_symmetric(ring, k) for k in range(1, g + 1)]
    expansions: dict[tuple[int, ...], GradedPolynomial] = {(0,) * g: ring.one}

    def expansion(c_exps: tuple[int, ...]) -> GradedPolynomial:
        if c_exps in expansions:
            return expansions[c_exps]
        i = max(k for k, e in enumerate(c_exps) if e > 0)
        prev = list(c_exps)
        prev[i] -= 1
        result = graded_oracle.mul(expansion(tuple(prev)), elementary[i + 1])
        expansions[c_exps] = result
        return result

    # integer numerators over one denominator; every expansion is integral
    den = lcm(*(c.denominator for c in p.terms.values()))
    work = {e: c.numerator * (den // c.denominator) for e, c in p.terms.items()}
    get = work.get
    out: dict[tuple[int, ...], int] = {}
    for d in range(max(map(sum, work), default=0), -1, -1):
        for lam in _partitions(d, g, d):
            coeff = get(lam)
            if not coeff:
                continue
            c_exps = tuple(lam[i] - (lam[i + 1] if i + 1 < g else 0) for i in range(g))
            for e, v in expansion(c_exps).terms.items():
                work[e] = get(e, 0) - coeff * int(v)
            out[c_exps] = coeff
    if any(work.values()):
        raise ValueError("input is not symmetric")
    return target.from_terms({e: Fraction(c, den) for e, c in out.items()})


def exterior_alternating_sum_dual(g: int, bound: int | None = None) -> GradedPolynomial:
    """sum_{i=0}^{g} (-1)^i ch(Lambda^i E-dual) from the 2^g subset sums of roots."""
    if bound is None:
        bound = g * (g + 1) // 2
    roots = GradedRing(tuple(f"x{i}" for i in range(1, g + 1)), (1,) * g, bound)
    total: dict[tuple[int, ...], Fraction] = {}
    for i in range(g + 1):
        # (-1)^i e^{-(x_1 + ... + x_i)}, then each i-subset S by renaming
        # x_k to the k-th root of S
        first = graded_oracle.exp(roots.from_terms({tuple(int(k == j) for k in range(g)): -1 for j in range(i)}))
        for subset in combinations(range(g), i):
            for exps, c in first.terms.items():
                e = [0] * g
                for j, v in zip(subset, exps):
                    e[j] = v
                e = tuple(e)
                total[e] = total.get(e, 0) + (-1) ** i * c
    return to_elementary(roots.from_terms(total))
