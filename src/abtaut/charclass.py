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
route is the root product prod_i h(x_i), with h(t) = (1 - e^{-t})/t, read
off by the dual Cauchy identity prod_{i,j} (1 + x_i b_j) = sum_mu e_mu(x)
m_mu(b) (Macdonald, Symmetric Functions and Hall Polynomials, I.4.3'): with
h(t) = prod_j (1 + b_j t), the coefficient of each Chern monomial c_mu is
the one number m_mu(b).  These numbers come from the power sums p_k(b) by
a recursion on partitions, run on the integers (2|mu|)! m_mu(b) with exact
divisions, and are written straight into the Chern ring's kernel.
``symmetric_to_elementary``
rewrites any sum of monomial symmetric functions in the Chern classes
through the monomial expansions of products of elementary symmetrics, which
count 0-1 matrices with given row and column sums (Macdonald, I.6).  A
partition there is keyed as the exponent vector of a monomial in g roots of
weight 1, under the graded engine's packing up to the top degree: raising
column j of a matrix adds generator j's key, taking one from each of the
first r parts subtracts the sum of the first r generator keys, and the
rewrite writes integer numerators over one denominator straight into the
Chern ring's kernel.  The second route is the multiplicative class of
log((1 - e^{-t})/t) over log c(E), with no roots anywhere.  The two routes
share no code.
"""

from __future__ import annotations

from collections import deque, namedtuple
from collections.abc import Callable, Iterator, Mapping, Sequence
from fractions import Fraction
from itertools import accumulate, chain, groupby
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


def _partitions(d: int, g: int, largest: int) -> Iterator[tuple[int, ...]]:
    """Yield the partitions of d into at most g parts of at most ``largest``,
    as nonincreasing g-tuples padded with zeros, in descending lex order:
    the order of their exponent vectors' keys, from the largest down, which
    is the order in which leading-partition subtraction meets them.  The
    first part runs from min(d, largest) down to the ceiling of d / g; the
    rest are the partitions of what is left into at most g - 1 parts of at
    most that first part."""
    if d == 0:
        yield (0,) * g
        return
    for first in range(min(d, largest), (d - 1) // g, -1):
        for rest in _partitions(d - first, g - 1, first):
            yield (first, *rest)


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
    while some later one can still be built from it.  Degree 0 is the empty
    product e_() = m_(), yielded and put in the window before the loop, so
    every lam the loop meets has r >= 1 nonzero parts.
    """
    g = len(packing.gens)
    ones = list(accumulate(packing.gens, initial=0))
    window: deque[tuple[dict, list]] = deque(maxlen=g)
    # one int object per key, so that the dicts below find a key by identity
    # instead of comparing the digits of an equal int
    keys: dict[int, int] = {}
    empty = {0: 1}
    yield 0, empty
    window.append(({0: empty}, [{} for _ in range(g + 1)]))
    for d in range(1, top + 1):
        level: dict[int, dict[int, int]] = {}
        for lam in _partitions(d, g, d):
            key = packing.key(lam)
            r = g - lam.count(0)
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
            if d + r <= top:
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


def _power_sums(a: Sequence[int]) -> list[int]:
    """P_k = (2k)! p_k(b) for 0 < k < len(a), with P_0 = 0, from the
    integers a[k] = (2k)! e_k(b), by Newton's identities
    p_k = sum_{0<i<k} (-1)^(i-1) e_i p_{k-i} + (-1)^(k-1) k e_k; scaled by
    (2k)!, the product e_i p_{k-i} is C(2k, 2i) a[i] P_{k-i}."""
    p = [0]
    for k in range(1, len(a)):
        p.append(sum((-1) ** (i - 1) * comb(2 * k, 2 * i) * a[i] * p[k - i] for i in range(1, k)) - (-1) ** k * k * a[k])
    return p


def _dual_cauchy(g: int, a: Sequence[int], lead: int) -> GradedPolynomial:
    """c_g^lead prod_i f(x_i) in the rank-g Chern ring truncated at N_g =
    g(g+1)/2, for f(t) = sum_k a[k] t^k / (2k)! with integers a[k], a[0] = 1,
    given for k <= top = N_g - lead g.

    With f(t) = prod_j (1 + b_j t), the dual Cauchy identity makes the
    coefficient of c_g^lead c_mu the number m_mu(b), for each mu with parts
    <= g and |mu| <= top.  Peeling the smallest part k of mu, with
    nu = mu minus k, m_nu p_k = n_k(mu) m_mu + sum_j n_{j+k}(rho_j) m_{rho_j},
    where j runs over the distinct parts of nu, rho_j is nu with one part j
    raised to j + k and n_v counts the parts equal to v; each rho_j has a
    part fewer than mu, but its parts are not bounded by g, so every
    partition of each n <= top is met.  Scaled by (2n)!, m_mu is the integer
    M_mu, since it is an integer polynomial of weight n in the e_k(b) =
    a[k] / (2k)! and (2n)! / prod (2k_i)! is a multinomial coefficient; so
    M_mu = (C(2n, 2k) M_nu P_k - sum_j n_{j+k}(rho_j) M_{rho_j}) / n_k(mu)
    divides exactly.  The result is written over (2 top)!."""
    bound = g * (g + 1) // 2
    top = bound - lead * g
    p = _power_sums(a[: top + 1])
    m: dict[tuple[int, ...], int] = {(): 1}
    # tails[n][k]: the partitions of n, as nonincreasing tuples, whose
    # smallest part is k; the empty partition is tails[0][0]
    tails = [[[()]]]
    for n in range(1, top + 1):
        level: list[list[tuple[int, ...]]] = [[]]
        for k in range(1, n + 1):
            rests = [()] if k == n else [nu for j in range(k, n - k + 1) for nu in tails[n - k][j]]
            level.append([nu + (k,) for nu in rests])
        tails.append(level)
        # each rho_j has a part fewer than mu, so it is met first
        for mu in sorted(chain.from_iterable(level), key=len):
            nu, k = mu[:-1], mu[-1]
            value = comb(2 * n, 2 * k) * m[nu] * p[k] if p[k] else 0
            for i, j in enumerate(nu):
                if not i or nu[i - 1] != j:
                    rho = tuple(sorted(nu[:i] + (j + k,) + nu[i + 1 :], reverse=True))
                    value -= rho.count(j + k) * m[rho]
            m[mu] = value // mu.count(k)
    packing = _packing(ring := _chern_ring(g, bound))
    gens, den = (0, *packing.gens), factorial(2 * top)
    scale = [den // factorial(2 * n) for n in range(top + 1)]
    out = {lead * gens[g] + sum(map(gens.__getitem__, mu)): value * scale[sum(mu)] for mu, value in m.items() if not mu or mu[0] <= g}
    return GradedPolynomial(ring, packing, _Kernel.reduced(den, out))


def exterior_alternating_sum_dual(g: int) -> GradedPolynomial:
    """sum_{i=0}^{g} (-1)^i ch(Lambda^i E-dual), computed from formal roots.

    The Chern roots of Lambda^i E-dual are the negated i-fold subset sums of
    the roots x_1..x_g of E, so the sum is prod_i (1 - e^{-x_i}) =
    c_g prod_i h(x_i), with h(t) = (1 - e^{-t})/t = sum_k (-1)^k t^k / (k+1)!.
    Up to the socle degree N = g(g+1)/2 that is the dual Cauchy route
    ``_dual_cauchy`` with a[k] = (-1)^k (2k)! / (k+1)!: one exact number per
    Chern monomial, with no polynomial multiplied or rewritten.  As
    log h(t) + t/2 is even, p_k(b) vanishes for every odd k >= 3, and those
    power sums drop out of the recursion.
    """
    _require_int("exterior_alternating_sum_dual", "g", g, 1)
    top = g * (g - 1) // 2
    return _dual_cauchy(g, [(-1) ** k * (factorial(2 * k) // factorial(k + 1)) for k in range(top + 1)], 1)


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
