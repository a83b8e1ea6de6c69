"""Characteristic-class calculus for a formal bundle of rank g.

A bundle is one object, its rank and Chern classes c_1..c_g in a graded
ring, whichever the alphabet: weight-graded Chern generators, or the
elementary symmetrics of g weight-1 formal roots.  Every class is read off
one logarithm, log c(E) = sum_k (-1)^(k-1) p_k / k, scaled degree by degree:
its degree-k part times (-1)^(k-1) k is the power sum p_k, times
(-1)^(k-1) / (k-1)! it is the degree-k part of the Chern character, and
times (-1)^(k-1) k s_k it is the logarithm of the multiplicative class
exp(sum_k s_k p_k) of a series s.  The cross-check
``borel_serre_check`` compares the alternating Chern character of exterior
powers of the dual against c_g * Td^{-1}.  The first route is the root
product prod_i (1 - e^{-x_i}), read off on partitions and rewritten in the
Chern classes through the monomial expansions of products of elementary
symmetrics, which count 0-1 matrices with given row and column sums
(Macdonald, Symmetric Functions and Hall Polynomials, I.6).  The second is
the multiplicative class of log((1 - e^{-t})/t) over log c(E), with no
roots anywhere.  The two routes share no code.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations, groupby
from math import comb, factorial, lcm
from typing import Callable, NamedTuple, Sequence

from .graded import (
    GradedPolynomial,
    GradedRing,
    graded_exp,
    graded_log,
    named_series,
)
from .rationals import _require_int

__all__ = [
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

def _bound(function: str, g: int, bound: int | None) -> int:
    """Check ``function``'s g and bound.  A bound of None is the socle degree
    g(g+1)/2, above which nothing is ever consulted."""
    _require_int(function, "g", g, 1)
    if bound is None:
        return g * (g + 1) // 2
    _require_int(function, "bound", bound, 0)
    return bound


def _chern_ring(g: int, bound: int | None) -> GradedRing:
    """The ring of the Chern classes c1..cg, of weights 1..g."""
    return GradedRing(tuple(f"c{i}" for i in range(1, g + 1)), tuple(range(1, g + 1)), bound)


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
    """A rank together with formal Chern classes c_1..c_rank in one ring.

    The alphabet is free: weight-graded Chern generators (``generators``) or
    the elementary symmetrics of rank weight-1 roots (``from_roots``).  Every
    class below is a formal expression in the c_i, so it is the same
    polynomial in either alphabet.
    """

    __slots__ = ("rank", "chern", "ring")

    def __init__(self, rank: int, chern: Sequence[GradedPolynomial], ring: GradedRing):
        _require_int("BundleClasses", "rank", rank, 0)
        chern = tuple(chern)
        if len(chern) != rank:
            raise ValueError("exactly one Chern class per rank is required")
        for i, c in enumerate(chern, start=1):
            if c.ring != ring:
                raise ValueError("all Chern classes must live in the bundle ring")
            if not c.is_homogeneous_of(i):
                raise ValueError(f"c_{i} must be homogeneous of weighted degree {i}")
        self.rank = rank
        self.chern = chern
        self.ring = ring

    @classmethod
    def generators(cls, g: int, bound: int | None = None) -> "BundleClasses":
        """Rank-g bundle whose i-th Chern class is the generator ``ci`` of weight i."""
        ring = _chern_ring(g, _bound("BundleClasses.generators", g, bound))
        return cls(g, ring.gens(), ring)

    @classmethod
    def from_roots(cls, g: int, bound: int | None = None) -> "BundleClasses":
        """Rank-g bundle over the roots x1..xg, with c_i the i-th elementary symmetric."""
        bound = _bound("BundleClasses.from_roots", g, bound)
        ring = GradedRing(tuple(f"x{i}" for i in range(1, g + 1)), (1,) * g, bound)
        return cls(g, tuple(elementary_symmetric(ring, k) for k in range(1, g + 1)), ring)

    def __repr__(self) -> str:
        return f"BundleClasses(rank={self.rank}, ring={self.ring!r})"


def dual_bundle(b: BundleClasses) -> BundleClasses:
    """The dual bundle: c_i goes to (-1)^i c_i, as e_i(-x) = (-1)^i e_i(x)."""
    return BundleClasses(b.rank, tuple(c * ((-1) ** i) for i, c in enumerate(b.chern, start=1)), b.ring)


def _log_chern(b: BundleClasses, top: int, factor: Callable[[int], int | Fraction]) -> GradedPolynomial:
    """log c(E) up to degree ``top``, in the bundle ring, with its degree-k
    part times ``factor(k)``."""
    log_c = graded_log(sum((c.truncate(top) for c in b.chern), b.ring.with_bound(top).one))
    scale = [0] + [factor(k) for k in range(1, top + 1)]
    degree = b.ring.degree
    return GradedPolynomial(b.ring, {e: v for e, c in log_c.terms.items() if (v := c * scale[degree(e)])})


def newton_power_sums(b: BundleClasses, k_max: int) -> list[GradedPolynomial]:
    """Power sums p_0..p_{k_max} of the Chern roots, read off log c(E).

    Index k of the returned list holds p_k, so p_0 is the constant rank.
    Newton's identities in closed form, log(1 + c_1 + ... + c_rank) =
    sum_k (-1)^(k-1) p_k / k (Macdonald, I.2, eq. 2.10'), are taken up to
    degree k_max or the bundle ring's bound, whichever is lower, and p_k is
    read off the degree-k part; above the bound it is zero.
    """
    _require_int("newton_power_sums", "k_max", k_max, 1)
    top = k_max if b.ring.bound is None else min(k_max, b.ring.bound)
    parts: list[dict[tuple[int, ...], Fraction]] = [{} for _ in range(k_max + 1)]
    degree = b.ring.degree
    for e, c in _log_chern(b, top, lambda k: (-1) ** (k + 1) * k).terms.items():
        parts[degree(e)][e] = c
    return [b.ring.constant(b.rank)] + [GradedPolynomial(b.ring, part) for part in parts[1:]]


def _ring_bound(b: BundleClasses) -> int:
    if b.ring.bound is None:
        raise ValueError("a truncation bound is required")
    return b.ring.bound


def chern_character(b: BundleClasses) -> GradedPolynomial:
    """rank + sum_{k>=1} p_k / k!, truncated at the bundle ring's bound."""
    return b.rank + _log_chern(b, _ring_bound(b), lambda k: Fraction((-1) ** (k + 1), factorial(k - 1)))


def _multiplicative_class(b: BundleClasses, series_name: str) -> GradedPolynomial:
    """exp(sum_k series[k] p_k) for a log generating series with zero constant term."""
    bound = _ring_bound(b)
    series = named_series(series_name, bound)
    return graded_exp(_log_chern(b, bound, lambda k: (-1) ** (k + 1) * k * series[k]))


def todd(b: BundleClasses) -> GradedPolynomial:
    """Todd class: for a line bundle with first Chern class x this is x/(1 - e^{-x}).

    >>> print(todd(BundleClasses.generators(2)))
    1 + 1/2*c1 + 1/12*c2 + 1/12*c1^2 + 1/24*c1*c2
    """
    return _multiplicative_class(b, "log_todd_gen")


def todd_dual(b: BundleClasses) -> GradedPolynomial:
    """Dual Todd class: for a line bundle this is x/(e^x - 1) = sum_k B_k x^k / k!."""
    return _multiplicative_class(b, "log_todd_dual_gen")


def _partitions(d: int, g: int) -> list[tuple[int, ...]]:
    """The partitions of d into at most g parts, as nonincreasing g-tuples
    padded with zeros, in descending lex order."""
    out: list[tuple[int, ...]] = []
    part = [0] * g

    def rec(i: int, remaining: int, largest: int) -> None:
        if i == g:
            if remaining == 0:
                out.append(tuple(part))
            return
        for v in range(min(remaining, largest), -1, -1):
            if v * (g - i) < remaining:
                break
            part[i] = v
            rec(i + 1, remaining - v, v)
        part[i] = 0

    rec(0, d, d)
    return out


def _pack(lam: tuple[int, ...], width: int) -> int:
    """A partition as one integer, the first part in the highest of its
    width-bit fields: integer order is lex order, and raising a column sum
    adds a power of two."""
    key = 0
    for v in lam:
        key = key << width | v
    return key


def _unpack(key: int, g: int, width: int) -> tuple[int, ...]:
    mask = (1 << width) - 1
    return tuple([(key >> (width * i)) & mask for i in range(g - 1, -1, -1)])


def _add_row(state: int, r: int, g: int, width: int) -> list[tuple[int, int]]:
    """The rows of r ones that can be added to a 0-1 matrix whose column sums
    are one fixed arrangement of the packed partition ``state``: each sorted
    column sum vector reached, with the number of rows reaching it.  Choosing
    k_v of the m_v columns of value v gives prod_v C(m_v, k_v) rows, and
    raising the first k_v columns of each run keeps the vector sorted."""
    runs = [len(list(run)) for _, run in groupby(_unpack(state, g, width))]
    partial = [(r, state, 1)]
    shift = width * g
    spare = g
    for m in runs:
        spare -= m
        grown = []
        for left, key, ways in partial:
            raised = 0
            for k in range(min(m, left) + 1):
                if left - k <= spare:
                    grown.append((left - k, key + raised, ways * comb(m, k)))
                if k < m:
                    raised += 1 << (shift - width * (k + 1))
        partial = grown
        shift -= width * m
    return [(key, ways) for _, key, ways in partial]


def _elementary_expansions(g: int, top: int, width: int):
    """Yield the monomial expansion of every product e_mu of elementary
    symmetrics in g variables with |mu| <= top, by degree and then by the
    descending lex order of mu's conjugate lam, which has at most g parts.

    Each item is (key of lam, {key of nu: count}), where count is the number
    of 0-1 matrices with row sums mu and column sums any rearrangement of the
    partition nu: the coefficient of m_nu in e_mu is count divided by the
    orbit size of nu.  e_mu is its prefix e_{mu minus its largest part r}
    times e_r, one forward step over sorted column sums.  The prefix is lam
    minus one from each of its r parts, r degrees down, so an expansion is
    kept only while some later one can still be built from it.
    """
    ones = [0]
    for i in range(g - 1, -1, -1):
        ones.append(ones[-1] + (1 << (width * i)))
    window: deque[tuple[dict, list]] = deque(maxlen=g)
    for d in range(top + 1):
        level: dict[int, dict[int, int]] = {}
        for lam in _partitions(d, g):
            key = _pack(lam, width)
            r = g - lam.count(0)
            if d == 0:
                expansion = {key: 1}
            else:
                below, steps = window[-r]
                steps = steps[r]
                expansion = {}
                get = expansion.get
                for state, count in below[key - ones[r]].items():
                    step = steps.get(state)
                    if step is None:
                        step = steps[state] = _add_row(state, r, g, width)
                    for t, ways in step:
                        expansion[t] = get(t, 0) + count * ways
            if d + max(r, 1) <= top:
                level[key] = expansion
            yield key, expansion
        window.append((level, [{} for _ in range(g + 1)]))


def _to_elementary(g: int, numerators: dict[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
    """Rewrite sum_lam numerators[lam] m_lam, over partitions lam with at most
    g parts, in the elementary symmetrics: {c-exponents: numerator} over the
    same denominator.  Each lam is a nonincreasing g-tuple padded with zeros;
    both callers pass only such keys, so none is checked here.

    Leading-partition subtraction, degree by degree: the lex-largest lam left
    is the leading partition of e_{lam'}, which is c_1^{lam_1 - lam_2} ...
    c_g^{lam_g}, and its expansion only reaches partitions lex-below lam.
    """
    top = max(map(sum, numerators), default=0)
    width = max(top, 1).bit_length()
    work = {_pack(lam, width): v for lam, v in numerators.items()}
    get = work.get
    out: dict[tuple[int, ...], int] = {}
    orbits: dict[int, int] = {}
    for key, expansion in _elementary_expansions(g, top, width):
        coeff = get(key)
        if not coeff:
            continue
        lam = _unpack(key, g, width)
        out[tuple(lam[i] - (lam[i + 1] if i + 1 < g else 0) for i in range(g))] = coeff
        for nu, count in expansion.items():
            orbit = orbits.get(nu)
            if orbit is None:
                orbit = factorial(g)
                for _, run in groupby(_unpack(nu, g, width)):
                    orbit //= factorial(len(list(run)))
                orbits[nu] = orbit
            work[nu] = get(nu, 0) - coeff * (count // orbit)
    return out


def symmetric_to_elementary(p: GradedPolynomial) -> GradedPolynomial:
    """Rewrite a symmetric polynomial in the root variables as a polynomial in
    the elementary symmetrics, by leading-partition subtraction.

    The result lives in the alphabet c1..cg with weights 1..g and the same
    truncation bound as the input.  A symmetric polynomial is fixed by its
    coefficients on partitions, so only those are read; the subtraction runs
    on integer numerators over their common denominator.
    """
    ring = p.ring
    g = ring.ngens
    if any(w != 1 for w in ring.weights):
        raise ValueError("symmetric_to_elementary expects a root ring with all weights 1")
    if not is_symmetric(p):
        raise ValueError("input is not symmetric under transpositions of the root variables")
    dominant = {e: c for e, c in p.terms.items() if all(e[i] >= e[i + 1] for i in range(g - 1))}
    den = lcm(*(c.denominator for c in dominant.values()))
    numerators = {e: c.numerator * (den // c.denominator) for e, c in dominant.items()}
    out = _to_elementary(g, numerators)
    return _chern_ring(g, ring.bound).from_terms({e: Fraction(c, den) for e, c in out.items()})


def exterior_alternating_sum_dual(g: int, bound: int | None = None) -> GradedPolynomial:
    """sum_{i=0}^{g} (-1)^i ch(Lambda^i E-dual), computed from formal roots.

    The Chern roots of Lambda^i E-dual are the negated i-fold subset sums of
    the roots x_1..x_g of E, so the sum is prod_i (1 - e^{-x_i}).  Its
    coefficient on m_lam is prod_i (-1)^{lam_i + 1} / lam_i! when lam has
    exactly g positive parts, and 0 otherwise.  Such a lam is nu + (1^g) with
    m_lam = e_g m_nu, so the product is c_g times the rewrite of
    sum_nu prod_i (-1)^{nu_i} / (nu_i + 1)! m_nu, taken over one common
    denominator bound!.
    """
    bound = _bound("exterior_alternating_sum_dual", g, bound)
    den = factorial(bound)
    numerators: dict[tuple[int, ...], int] = {}
    for d in range(bound - g + 1):
        for nu in _partitions(d, g):
            value = den
            for v in nu:
                value //= factorial(v + 1)
            numerators[nu] = -value if d % 2 else value
    out = _to_elementary(g, numerators)
    return _chern_ring(g, bound).from_terms({e[:-1] + (e[-1] + 1,): Fraction(c, den) for e, c in out.items()})


class BorelSerreReport(NamedTuple):
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
    bound = _bound("borel_serre_check", g, None)
    lhs = exterior_alternating_sum_dual(g, bound)
    b = BundleClasses.generators(g, bound)
    rhs = b.chern[g - 1] * _multiplicative_class(b, "log_one_minus_exp_neg_over_t")
    diff = lhs - rhs
    return BorelSerreReport(genus=g, ok=not diff, difference=diff)
