"""Reference routes over formal roots, and the root alphabet itself.

``charclass.exterior_alternating_sum_dual`` reads the product
prod_i (1 - e^{-x_i}) off on partitions and converts it through counts of
0-1 matrices.  This module keeps its former body: it sums the 2^g
exponentials e^{-(x_S)} of the negated subset sums with sign (-1)^{|S|} and
rewrites the symmetric total in the elementary symmetrics by
leading-monomial subtraction on full root monomials, each product of
elementary symmetrics expanded by multiplication.  Tests compare the two
routes polynomial by polynomial.

The library builds no bundle over roots, so the root alphabet lives here:
``bundle_from_roots`` is the rank-g bundle whose Chern classes are the
elementary symmetrics of x1..xg, and ``symmetric_to_elementary`` takes a
symmetric polynomial in the roots to the library's rewrite, which reads
its coefficients on partitions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from abtaut import BundleClasses, GradedPolynomial, GradedRing, charclass
from abtaut.graded import _Kernel, _packing


def _swap_variables(p: GradedPolynomial, i: int, j: int) -> GradedPolynomial:
    out: dict[tuple[int, ...], Fraction] = {}
    for exps, c in p.terms.items():
        e = list(exps)
        e[i], e[j] = e[j], e[i]
        out[tuple(e)] = c
    return GradedPolynomial(p.ring, out)


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
    return GradedPolynomial(ring, terms)


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


def to_elementary(p: GradedPolynomial, prefix: str = "c") -> GradedPolynomial:
    """The symmetric polynomial ``p`` in the root variables, rewritten in the
    elementary symmetrics ``<prefix>1 .. <prefix>g`` of weights 1..g."""
    ring = p.ring
    g = ring.ngens
    target = GradedRing(tuple(f"{prefix}{i}" for i in range(1, g + 1)), tuple(range(1, g + 1)), ring.bound)
    packing = _packing(ring, max(map(sum, p.terms), default=0))
    elementary = [None] + [packing.pack(elementary_symmetric(ring, k).terms) for k in range(1, g + 1)]
    expansions: dict[tuple[int, ...], _Kernel] = {(0,) * g: packing.pack(ring.one.terms)}

    def expansion(c_exps: tuple[int, ...]) -> _Kernel:
        if c_exps in expansions:
            return expansions[c_exps]
        i = max(k for k, e in enumerate(c_exps) if e > 0)
        prev = list(c_exps)
        prev[i] -= 1
        result = expansion(tuple(prev)).mul(elementary[i + 1])
        expansions[c_exps] = result
        return result

    numerators = packing.pack(p.terms)
    out: dict[tuple[int, ...], int] = {}
    # keys order by degree, then lex: the largest key is a leading monomial
    work = dict(numerators.terms)
    get = work.get
    while work:
        lead_key = max(work)
        lead = packing.exponents(lead_key)
        if any(lead[i] < lead[i + 1] for i in range(g - 1)):
            raise ValueError("leading exponent is not dominant; input is not symmetric")
        coeff = work[lead_key]
        c_exps = tuple(lead[i] - (lead[i + 1] if i + 1 < g else 0) for i in range(g))
        for key, v in expansion(c_exps).terms.items():
            r = get(key, 0) - coeff * v
            if r:
                work[key] = r
            else:
                del work[key]
        out[c_exps] = out.get(c_exps, 0) + coeff
    return target.from_terms({e: Fraction(c, numerators.den) for e, c in out.items()})


def exterior_alternating_sum_dual(g: int, bound: int | None = None) -> GradedPolynomial:
    """sum_{i=0}^{g} (-1)^i ch(Lambda^i E-dual) from the 2^g subset sums of roots."""
    if bound is None:
        bound = g * (g + 1) // 2
    roots = GradedRing(tuple(f"x{i}" for i in range(1, g + 1)), (1,) * g, bound)
    packing = _packing(roots, bound)
    xs = roots.gens()
    total = packing.pack({})
    for i in range(g + 1):
        sign = (-1) ** i
        for subset in combinations(range(g), i):
            s = roots.zero
            for j in subset:
                s = s - xs[j]
            total = _Kernel.total((total, packing.pack(s.terms).exp(packing.shift, bound).scaled(sign)))
    return to_elementary(GradedPolynomial(roots, packing.unpack(total)))
