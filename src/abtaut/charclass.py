"""Characteristic-class calculus for a formal bundle of rank g.

A bundle is one object, its rank and Chern classes c_1..c_g in a graded
ring with a truncation bound.  The rank-g Hodge bundle lives on the
toroidal compactification of A_g, of dimension N_g = g(g+1)/2, so the
weight-graded Chern generators and the roots route truncate at that socle
degree.  The generators are the only alphabet built here; any other
alphabet or bound, such as the elementary symmetrics of formal roots, goes
through the constructor.  Every class is read off one logarithm,
log c(E) = sum_k (-1)^(k-1) p_k / k, scaled degree by degree: its degree-k
part times (-1)^(k-1) k is the power sum p_k, times (-1)^(k-1) / (k-1)! it
is the degree-k part of the Chern character, and times (-1)^(k-1) k s_k it
is the logarithm of the multiplicative class exp(sum_k s_k p_k) of a series
s.  The cross-check ``borel_serre_check`` compares the alternating Chern
character of exterior powers of the dual against c_g * Td^{-1}.  The first
route is the root product prod_i (1 - e^{-x_i}), read off on partitions and
rewritten in the Chern classes by ``symmetric_to_elementary`` through the
monomial expansions of products of elementary symmetrics, which count 0-1
matrices with given row and column sums (Macdonald, Symmetric Functions and
Hall Polynomials, I.6).  A partition there is keyed as the exponent vector
of a monomial in g roots of weight 1, under the graded engine's packing up
to the top degree: raising column j of a matrix adds generator j's key,
taking one from each of the first r parts subtracts the sum of the first r
generator keys, and the rewrite writes integer numerators over one
denominator straight into the Chern ring's kernel.  The second is the
multiplicative class of log((1 - e^{-t})/t) over log c(E), with no roots
anywhere.  The two routes share no code.
"""

from __future__ import annotations

from collections import deque, namedtuple
from collections.abc import Callable, Mapping, Sequence
from fractions import Fraction
from itertools import accumulate, groupby
from math import comb, factorial, lcm, prod
from operator import sub

from .graded import (
    GradedPolynomial,
    GradedRing,
    _as_fraction,
    _Kernel,
    _Packing,
    _packing,
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


def _chern_ring(g: int, bound: int | None) -> GradedRing:
    """The ring of the Chern classes c1..cg, of weights 1..g."""
    return GradedRing(tuple(f"c{i}" for i in range(1, g + 1)), tuple(range(1, g + 1)), bound)


class BundleClasses:
    """A rank together with formal Chern classes c_1..c_rank in one ring,
    which must have a truncation bound; every class is truncated there.

    ``generators`` builds the weight-graded Chern generators, the only
    alphabet built here; any other, such as the elementary symmetrics of
    formal roots, is passed to the constructor.  Every class below is a
    formal expression in the c_i, so it is the same polynomial in any
    alphabet.
    """

    __slots__ = ("rank", "chern", "ring")

    def __init__(self, rank: int, chern: Sequence[GradedPolynomial], ring: GradedRing):
        _require_int("BundleClasses", "rank", rank, 0)
        chern = tuple(chern)
        if len(chern) != rank:
            raise ValueError("exactly one Chern class per rank is required")
        if ring.bound is None:
            raise ValueError("BundleClasses requires a ring with a truncation bound")
        for i, c in enumerate(chern, start=1):
            if c.ring != ring:
                raise ValueError("all Chern classes must live in the bundle ring")
            if not c.is_homogeneous_of(i):
                raise ValueError(f"c_{i} must be homogeneous of weighted degree {i}")
        self.rank = rank
        self.chern = chern
        self.ring = ring

    @classmethod
    def generators(cls, g: int) -> "BundleClasses":
        """Rank-g bundle whose i-th Chern class is the generator ``ci`` of
        weight i, in the ring truncated above the socle degree g(g+1)/2."""
        _require_int("BundleClasses.generators", "g", g, 1)
        ring = _chern_ring(g, g * (g + 1) // 2)
        return cls(g, ring.gens(), ring)

    def __repr__(self) -> str:
        return f"BundleClasses(rank={self.rank}, ring={self.ring!r})"


def dual_bundle(b: BundleClasses) -> BundleClasses:
    """The dual bundle: c_i goes to (-1)^i c_i, as e_i(-x) = (-1)^i e_i(x)."""
    return BundleClasses(b.rank, tuple(c * ((-1) ** i) for i, c in enumerate(b.chern, start=1)), b.ring)


def _log_chern(b: BundleClasses, factor: Callable[[int], int | Fraction]) -> dict[int, GradedPolynomial]:
    """The nonzero homogeneous parts of log c(E) in the bundle ring, by
    degree k >= 1, each times ``factor(k)``."""
    log_c = graded_log(sum(b.chern, b.ring.one))
    parts = log_c._kernel.homogeneous(log_c._packing.shift, b.ring.bound)
    return {k: log_c._with(part.scaled(*factor(k).as_integer_ratio())) for k, part in parts.items()}


def _sum(b: BundleClasses, parts: dict[int, GradedPolynomial]) -> GradedPolynomial:
    """The sum of parts of the bundle ring, over one denominator."""
    return b.ring.zero._with(_Kernel.total(p._kernel for p in parts.values()))


def newton_power_sums(b: BundleClasses, k_max: int) -> list[GradedPolynomial]:
    """Power sums p_0..p_{k_max} of the Chern roots, read off log c(E).

    Index k of the returned list holds p_k, so p_0 is the constant rank.
    Newton's identities in closed form, log(1 + c_1 + ... + c_rank) =
    sum_k (-1)^(k-1) p_k / k (Macdonald, I.2, eq. 2.10'), are taken up to
    the bundle ring's bound, and p_k is read off the degree-k part; above
    the bound it is zero.
    """
    _require_int("newton_power_sums", "k_max", k_max, 1)
    parts = _log_chern(b, lambda k: (-1) ** (k + 1) * k)
    return [b.ring.constant(b.rank)] + [parts.get(k, b.ring.zero) for k in range(1, k_max + 1)]


def chern_character(b: BundleClasses) -> GradedPolynomial:
    """rank + sum_{k>=1} p_k / k!, truncated at the bundle ring's bound."""
    return b.rank + _sum(b, _log_chern(b, lambda k: Fraction((-1) ** (k + 1), factorial(k - 1))))


def _multiplicative_class(b: BundleClasses, series_name: str) -> GradedPolynomial:
    """exp(sum_k series[k] p_k) for a log generating series with zero constant term."""
    series = named_series(series_name, b.ring.bound)
    return graded_exp(_sum(b, _log_chern(b, lambda k: (-1) ** (k + 1) * k * series[k])))


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


def _add_row(state: int, r: int, packing: _Packing) -> list[tuple[int, int]]:
    """The rows of r ones that can be added to a 0-1 matrix whose column sums
    are one fixed arrangement of the partition with key ``state``: each
    sorted column sum vector reached, as its key, with the number of rows
    reaching it.  Choosing k_v of the m_v columns of value v gives
    prod_v C(m_v, k_v) rows, and raising the first k_v columns of each run
    keeps the vector sorted; raising column j adds the generator key
    ``gens[j]``."""
    gens = packing.gens
    partial = [(r, state, 1)]
    column, spare = 0, len(gens)
    for _, run in groupby(packing.exponents(state)):
        m = len(list(run))
        spare -= m
        grown = []
        for left, key, ways in partial:
            for k in range(min(m, left) + 1):
                if left - k <= spare:
                    grown.append((left - k, key, ways * comb(m, k)))
                if k < m:
                    key += gens[column + k]
        partial = grown
        column += m
    return [(key, ways) for _, key, ways in partial]


def _elementary_expansions(packing: _Packing, top: int):
    """Yield the monomial expansion of every product e_mu of elementary
    symmetrics in g variables with |mu| <= top, by degree and then by the
    descending lex order of mu's conjugate lam, which has at most g parts.
    ``packing`` is a packing of g generators of weight 1 whose fields hold
    every exponent up to ``top``; a partition's key is its exponent vector.

    Each item is (key of lam, {key of nu: count}), where count is the number
    of 0-1 matrices with row sums mu and column sums any rearrangement of the
    partition nu: the coefficient of m_nu in e_mu is count divided by the
    orbit size of nu.  e_mu is its prefix e_{mu minus its largest part r}
    times e_r, one forward step over sorted column sums.  The prefix is lam
    minus one from each of its r parts, whose key is lam's minus the sum of
    the first r generator keys, r degrees down, so an expansion is kept only
    while some later one can still be built from it.
    """
    g = len(packing.gens)
    ones = list(accumulate(packing.gens, initial=0))
    window: deque[tuple[dict, list]] = deque(maxlen=g)
    # one int object per key, so that the dicts below find a key by identity
    # instead of comparing the digits of an equal int
    keys: dict[int, int] = {}
    for d in range(top + 1):
        level: dict[int, dict[int, int]] = {}
        for lam in _partitions(d, g):
            key = packing.key(lam)
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
                        step = steps[state] = [(keys.setdefault(t, t), w) for t, w in _add_row(state, r, packing)]
                    for t, ways in step:
                        expansion[t] = get(t, 0) + count * ways
            if d + max(r, 1) <= top:
                level[key] = expansion
            yield key, expansion
        window.append((level, [{} for _ in range(g + 1)]))


def symmetric_to_elementary(g: int, coefficients: Mapping[tuple[int, ...], int | Fraction]) -> GradedPolynomial:
    """Rewrite sum_lam coefficients[lam] m_lam in the elementary symmetrics of
    g variables: a polynomial in c1..cg, of weights 1..g, with no bound.

    Each key lam is a partition with at most g parts, written as a
    nonincreasing g-tuple of ints >= 0; each value is an int or a Fraction,
    else a TypeError.
    A symmetric polynomial is fixed by its coefficients on partitions, so
    every one is such a mapping, and the input is symmetric by construction.

    Leading-partition subtraction, degree by degree, on integer numerators
    over their common denominator: the lex-largest lam left is the leading
    partition of e_{lam'}, which is c_1^{lam_1 - lam_2} ... c_g^{lam_g}, and
    its expansion only reaches partitions lex-below lam.

    >>> print(symmetric_to_elementary(2, {(2, 0): 1}))
    -2*c2 + c1^2
    """
    _require_int("symmetric_to_elementary", "g", g, 1)
    for lam in coefficients:
        ints = type(lam) is tuple and len(lam) == g and all(type(v) is int for v in lam)
        if not (ints and all(a >= b >= 0 for a, b in zip(lam, lam[1:] + (0,)))):
            raise ValueError(f"symmetric_to_elementary requires each key to be a nonincreasing {g}-tuple of ints >= 0, got {lam!r}")
    den = lcm(*(_as_fraction(c).denominator for c in coefficients.values()))
    top = max(map(sum, coefficients), default=0)
    # a partition is its exponent vector in g roots of weight 1, the first
    # part in the highest field: integer order is graded lex order
    packing = _packing(GradedRing(tuple(f"x{i}" for i in range(1, g + 1)), (1,) * g, top))
    work = {packing.key(lam): c.numerator * (den // c.denominator) for lam, c in coefficients.items()}
    get, exponents = work.get, packing.exponents
    # c^e has weighted degree |lam|, so the Chern ring's keys up to top hold it
    chern = _packing(ring := _chern_ring(g, None), top)
    out: dict[int, int] = {}
    orbits: dict[int, int] = {}
    for key, expansion in _elementary_expansions(packing, top):
        coeff = get(key)
        if not coeff:
            continue
        lam = exponents(key)
        out[chern.key(map(sub, lam, lam[1:] + (0,)))] = coeff
        for nu, count in expansion.items():
            orbit = orbits.get(nu)
            if orbit is None:
                runs = groupby(exponents(nu))
                orbit = orbits[nu] = factorial(g) // prod(factorial(len(list(run))) for _, run in runs)
            work[nu] = get(nu, 0) - coeff * (count // orbit)
    return GradedPolynomial(ring, chern, _Kernel.reduced(den, out))


def exterior_alternating_sum_dual(g: int) -> GradedPolynomial:
    """sum_{i=0}^{g} (-1)^i ch(Lambda^i E-dual), computed from formal roots.

    The Chern roots of Lambda^i E-dual are the negated i-fold subset sums of
    the roots x_1..x_g of E, so the sum is prod_i (1 - e^{-x_i}).  Its
    coefficient on m_lam is prod_i (-1)^{lam_i + 1} / lam_i! when lam has
    exactly g positive parts, and 0 otherwise.  Such a lam is nu + (1^g) with
    m_lam = e_g m_nu, so the product is c_g times the rewrite of
    sum_nu prod_i (-1)^{nu_i} / (nu_i + 1)! m_nu up to the socle degree
    N = g(g+1)/2, rewritten on integer numerators over N! and divided once.
    """
    _require_int("exterior_alternating_sum_dual", "g", g, 1)
    bound = g * (g + 1) // 2
    den = factorial(bound)
    coefficients: dict[tuple[int, ...], int] = {}
    for d in range(bound - g + 1):
        for nu in _partitions(d, g):
            value = den
            for v in nu:
                value //= factorial(v + 1)
            coefficients[nu] = -value if d % 2 else value
    out = symmetric_to_elementary(g, coefficients) / den
    return _chern_ring(g, bound).gen(g - 1) * out.truncate(bound)


class BorelSerreReport(namedtuple("BorelSerreReport", "genus ok difference")):
    """Outcome of the dual-route exterior-power identity check."""

    __slots__ = ()

    def as_payload(self) -> dict:
        return {"g": self.genus, "ok": self.ok, "difference": str(self.difference)}


def borel_serre_check(g: int) -> BorelSerreReport:
    """Compare ch(Lambda^* E-dual) from subset-sum roots against c_g * Td(E)^{-1}
    from the multiplicative-sequence route; the difference must vanish identically.
    """
    _require_int("borel_serre_check", "g", g, 1)
    lhs = exterior_alternating_sum_dual(g)
    # c_g * F is truncated at N_g, so only F's degrees up to N_g - g reach it
    bound = g * (g + 1) // 2
    low = _chern_ring(g, bound - g)
    f = _multiplicative_class(BundleClasses(g, low.gens(), low), "log_one_minus_exp_neg_over_t")
    rhs = _chern_ring(g, bound).gen(g - 1) * f.truncate(bound)
    diff = lhs - rhs
    return BorelSerreReport(genus=g, ok=not diff, difference=diff)
