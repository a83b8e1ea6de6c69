"""Characteristic-class calculus for a formal bundle of rank g.

Two genuinely independent representations are supported: Chern generators
c_1..c_g of weights 1..g, and formal Chern roots x_1..x_g of weight 1.  The
cross-check ``borel_serre_check`` compares the alternating Chern character of
exterior powers of the dual (computed from subset sums of roots) against
c_g * Td^{-1} (computed from Newton power sums, no roots anywhere).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Sequence

from .graded import (
    GradedPolynomial,
    GradedRing,
    _Kernel,
    _packing,
    graded_exp,
    named_series,
    substitute_power_sums,
)

__all__ = [
    "CHERN_GENERATORS",
    "FORMAL_ROOTS",
    "BundleClasses",
    "newton_power_sums",
    "chern_character",
    "todd",
    "todd_dual",
    "dual_bundle",
    "exterior_alternating_sum_dual",
    "symmetric_to_elementary",
    "BorelSerreReport",
    "borel_serre_check",
]

CHERN_GENERATORS = "chern-generators"
FORMAL_ROOTS = "formal-roots"


def _default_bound(g: int) -> int:
    # the socle degree; nothing above it is ever consulted
    return g * (g + 1) // 2


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


class BundleClasses:
    """A rank together with formal Chern classes c_1..c_rank.

    In the ``chern-generators`` representation the classes are polynomials in
    the weight-graded generator alphabet; in the ``formal-roots``
    representation they are symmetric polynomials in rank weight-1 root
    variables.
    """

    __slots__ = ("rank", "chern", "representation", "ring")

    def __init__(self, rank: int, chern: Sequence[GradedPolynomial], representation: str, ring: GradedRing):
        if rank < 0:
            raise ValueError("rank must be >= 0")
        if representation not in (CHERN_GENERATORS, FORMAL_ROOTS):
            raise ValueError(f"unknown representation {representation!r}")
        chern = tuple(chern)
        if len(chern) != rank:
            raise ValueError("exactly one Chern class per rank is required")
        for i, c in enumerate(chern, start=1):
            if c.ring != ring:
                raise ValueError("all Chern classes must live in the bundle ring")
            if not c.is_homogeneous_of(i):
                raise ValueError(f"c_{i} must be homogeneous of weighted degree {i}")
            if representation == FORMAL_ROOTS and not is_symmetric(c):
                raise ValueError(f"c_{i} is not symmetric in the root variables")
        self.rank = rank
        self.chern = chern
        self.representation = representation
        self.ring = ring

    @classmethod
    def generators(cls, g: int, bound: int | None = None, prefix: str = "c") -> "BundleClasses":
        """Rank-g bundle whose i-th Chern class is the generator ``<prefix>i`` of weight i."""
        if g < 1:
            raise ValueError("generators() requires rank >= 1")
        if bound is None:
            bound = _default_bound(g)
        ring = GradedRing(tuple(f"{prefix}{i}" for i in range(1, g + 1)), tuple(range(1, g + 1)), bound)
        return cls(g, ring.gens(), CHERN_GENERATORS, ring)

    @classmethod
    def from_roots(cls, g: int, bound: int | None = None, prefix: str = "x") -> "BundleClasses":
        """Rank-g bundle over the root alphabet, with c_i the i-th elementary symmetric."""
        if g < 1:
            raise ValueError("from_roots() requires rank >= 1")
        if bound is None:
            bound = _default_bound(g)
        ring = GradedRing(tuple(f"{prefix}{i}" for i in range(1, g + 1)), (1,) * g, bound)
        chern = tuple(elementary_symmetric(ring, k) for k in range(1, g + 1))
        return cls(g, chern, FORMAL_ROOTS, ring)

    def __repr__(self) -> str:
        return f"BundleClasses(rank={self.rank}, representation={self.representation!r})"


def dual_bundle(b: BundleClasses) -> BundleClasses:
    """The dual bundle: c_i goes to (-1)^i c_i.  Chern-generators representation only."""
    if b.representation != CHERN_GENERATORS:
        raise ValueError("dual_bundle requires the chern-generators representation")
    chern = tuple(c * ((-1) ** i) for i, c in enumerate(b.chern, start=1))
    return BundleClasses(b.rank, chern, CHERN_GENERATORS, b.ring)


def _power_sums(b: BundleClasses, k_max: int) -> list[GradedPolynomial]:
    # Newton's identities with e_i = c_i; valid in either representation
    ring = b.ring
    e = [ring.one] + list(b.chern)  # e_0 = 1, e_i = 0 for i > rank
    ps: list[GradedPolynomial] = [ring.constant(b.rank)]
    for k in range(1, k_max + 1):
        acc = ring.zero
        for i in range(1, k):
            if i <= b.rank:
                acc = acc + e[i] * ps[k - i] * ((-1) ** (i - 1))
        if k <= b.rank:
            acc = acc + e[k] * ((-1) ** (k - 1) * k)
        ps.append(acc)
    return ps


def newton_power_sums(b: BundleClasses, k_max: int) -> list[GradedPolynomial]:
    """Power sums p_0..p_{k_max} of the Chern roots, via Newton's identities.

    Index k of the returned list holds p_k, so p_0 is the constant rank;
    p_k = e_1 p_{k-1} - e_2 p_{k-2} + ... + (-1)^{k-1} k e_k with e_i = c_i.
    """
    if b.representation != CHERN_GENERATORS:
        raise ValueError("newton_power_sums requires the chern-generators representation")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return _power_sums(b, k_max)


def _effective_bound(b: BundleClasses, bound: int | None) -> int:
    if b.ring.bound is None and bound is None:
        raise ValueError("a truncation bound is required")
    if bound is None:
        return b.ring.bound
    if b.ring.bound is None:
        return bound
    return min(bound, b.ring.bound)


def chern_character(b: BundleClasses, bound: int | None = None) -> GradedPolynomial:
    """rank + sum_{k>=1} p_k / k!, truncated at the bound."""
    eff = _effective_bound(b, bound)
    acc = b.ring.constant(b.rank)
    if b.rank > 0 and eff >= 1:
        ps = _power_sums(b, eff)
        for k in range(1, eff + 1):
            acc = acc + ps[k] / factorial(k)
    return acc if eff == b.ring.bound else acc.truncate(eff)


def _multiplicative_class(b: BundleClasses, series_name: str, bound: int | None) -> GradedPolynomial:
    """exp(sum_k series[k] p_k) for a log generating series with zero constant term."""
    eff = _effective_bound(b, bound)
    ring = b.ring if eff == b.ring.bound else b.ring.with_bound(eff)
    if b.rank == 0 or eff == 0:
        return ring.one
    if ring != b.ring:
        b = BundleClasses(b.rank, tuple(c.truncate(eff) for c in b.chern), b.representation, ring)
    log_class = substitute_power_sums(named_series(series_name, eff), _power_sums(b, eff))
    return graded_exp(log_class)


def todd(b: BundleClasses, bound: int | None = None) -> GradedPolynomial:
    """Todd class: for a line bundle with first Chern class x this is x/(1 - e^{-x})."""
    return _multiplicative_class(b, "log_todd_gen", bound)


def todd_dual(b: BundleClasses, bound: int | None = None) -> GradedPolynomial:
    """Dual Todd class: for a line bundle this is x/(e^x - 1) = sum_k B_k x^k / k!."""
    return _multiplicative_class(b, "log_todd_dual_gen", bound)


def symmetric_to_elementary(p: GradedPolynomial, prefix: str = "c") -> GradedPolynomial:
    """Rewrite a symmetric polynomial in the root variables as a polynomial in
    the elementary symmetrics, by leading-monomial subtraction.

    The result lives in the alphabet ``<prefix>1 .. <prefix>g`` with weights
    1..g and the same truncation bound as the input.  The subtraction runs on
    integer numerators over the common denominator of ``p``: products of
    elementary symmetrics have integer coefficients.
    """
    ring = p.ring
    g = ring.ngens
    if any(w != 1 for w in ring.weights):
        raise ValueError("symmetric_to_elementary expects a root ring with all weights 1")
    if not is_symmetric(p):
        raise ValueError("input is not symmetric under transpositions of the root variables")
    target = GradedRing(tuple(f"{prefix}{i}" for i in range(1, g + 1)), tuple(range(1, g + 1)), ring.bound)
    # all weights are 1, so no exponent of p or of an expansion exceeds its degree
    packing = _packing(ring, p.max_degree())
    elementary = [None] + [packing.pack(elementary_symmetric(ring, k).terms) for k in range(1, g + 1)]
    expansions: dict[tuple[int, ...], _Kernel] = {(0,) * g: packing.pack(ring.one.terms)}

    def expansion(c_exps: tuple[int, ...]) -> _Kernel:
        if c_exps in expansions:
            return expansions[c_exps]
        i = max(k for k, e in enumerate(c_exps) if e > 0)
        prev = list(c_exps)
        prev[i] -= 1
        result = expansion(tuple(prev)).mul(elementary[i + 1], None)
        expansions[c_exps] = result
        return result

    numerators = packing.pack(p.terms)
    out: dict[tuple[int, ...], int] = {}
    for d, part in sorted(numerators.parts.items()):
        work = dict(part)
        while work:
            # packed keys order like their exponent vectors, lexicographically
            lead_key = max(work)
            lead = packing.exponents(lead_key)
            if any(lead[i] < lead[i + 1] for i in range(g - 1)):
                raise ValueError("leading exponent is not dominant; input is not symmetric")
            coeff = work[lead_key]
            c_exps = tuple(lead[i] - (lead[i + 1] if i + 1 < g else 0) for i in range(g))
            get = work.get
            for key, v in expansion(c_exps).parts[d].items():
                r = get(key, 0) - coeff * v
                if r:
                    work[key] = r
                else:
                    del work[key]
            out[c_exps] = out.get(c_exps, 0) + coeff
    return target.from_terms({e: Fraction(c, numerators.den) for e, c in out.items()})


def exterior_alternating_sum_dual(g: int, bound: int | None = None) -> GradedPolynomial:
    """sum_{i=0}^{g} (-1)^i ch(Lambda^i E-dual), computed from formal roots.

    The Chern roots of Lambda^i E-dual are the negated i-fold subset sums of
    the roots of E; the result is re-expressed in the Chern-class alphabet.
    The sum is accumulated in integer form and converted once at the end.
    """
    if g < 1:
        raise ValueError("exterior_alternating_sum_dual requires g >= 1")
    if bound is None:
        bound = _default_bound(g)
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
            total = total.add(packing.pack(s.terms).exp(bound).scaled(sign))
    return symmetric_to_elementary(GradedPolynomial(roots, packing.unpack(total)))


@dataclass(frozen=True)
class BorelSerreReport:
    """Outcome of the dual-route exterior-power identity check."""

    genus: int
    ok: bool
    difference: GradedPolynomial

    def as_payload(self) -> dict:
        return {"g": self.genus, "ok": self.ok, "difference": str(self.difference)}


def borel_serre_check(g: int) -> BorelSerreReport:
    """Compare ch(Lambda^* E-dual) from subset-sum roots against c_g * Td(E)^{-1}
    from the multiplicative-sequence route; the difference must vanish identically.
    """
    if g < 1:
        raise ValueError("borel_serre_check requires g >= 1")
    bound = _default_bound(g)
    lhs = exterior_alternating_sum_dual(g, bound)
    b = BundleClasses.generators(g, bound)
    ps = newton_power_sums(b, bound)
    log_td = substitute_power_sums(named_series("log_todd_gen", bound), ps)
    td_inverse = graded_exp(-log_td)
    rhs = b.chern[g - 1] * td_inverse
    diff = lhs - rhs
    return BorelSerreReport(genus=g, ok=not diff, difference=diff)
