"""Weighted-graded multivariate polynomials over exact rationals.

One engine serves every alphabet used in this package: the Hodge classes
l1..lg carry weights 1..g, Chern roots and the two boundary divisors carry
weight 1.  Polynomials are sparse, with rational coefficients, optionally
truncated above a weighted-degree bound, and they serialize to a canonical
graded-lex text form such as ``2*l2 - l1^2``.

A polynomial is stored in one form, its integer kernel: a common
denominator times one flat map from packed exponent keys to integer
numerators, so that no ``Fraction`` is normalised inside a loop.  Each key
carries the weighted degree in the field above the exponent fields, as
Monagan and Pearce pack monomials for graded orders ("Polynomial division
using dynamic arrays, heaps, and packed exponent vectors", CASC 2007): a
monomial product is one integer addition, integer order is graded order,
and truncation at a degree bound is one integer comparison, so a product
is one pass over the pairs of terms.  Every route builds the kernel once.
``from_terms`` and ``parse`` are the entries for outside input, and pack
it; sums, scaling, products, powers, parts, ``graded_exp`` and
``graded_log`` work on kernels, and the package's own builders (the
difference quotient behind ``named_series``, the roots route's rewrite
``symmetric_to_elementary`` and the boundary quotients) write theirs
directly.
``GradedPolynomial.terms``, the map from exponent vectors to ``Fraction``,
is only a view, decoded into a new dict on each read.  ``TautRing`` keys its
rows by a bounded ring's one packing, so ``normal_form`` looks up the
kernel's keys and integer numerators as they are, decoding nothing.  The
fields hold every exponent up to a top degree: the ring's bound, so that a
bounded ring has one packing, or in an unbounded ring the polynomial's own
top degree, so that an operand is repacked only when a result needs wider
fields.

``graded_exp`` and ``graded_log`` are one recurrence in the degree
operator, which multiplies each pair of homogeneous parts once.  The named
generating series are the same ``graded_log``/``graded_exp`` in the
one-generator ring ``t``, returned as tuples of ``Fraction`` coefficients.
"""

from __future__ import annotations

import re
import struct
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import attrgetter, mul

from .rationals import _require_int

__all__ = [
    "GradedRing",
    "GradedPolynomial",
    "graded_exp",
    "graded_log",
    "named_series",
]

Exponents = tuple[int, ...]

# the factor patterns of ``GradedRing.parse``, compiled by ``re``'s own
# cache on the first parse rather than at import
_NAME = r"^([A-Za-z][A-Za-z0-9]*?)(?:\^(\d+))?$"
_COEFF = r"^\d+(?:/\d+)?$"


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"expected an integer or Fraction, got {value!r}")


class _Kernel:
    """Integer form of a polynomial: the sum of ``terms[key] / den``.

    ``den`` is a positive common denominator and ``terms`` is one flat map
    from monomial keys to nonzero integer numerators.  Each key holds the
    weighted degree above the packed exponents (see :class:`_Packing`;
    Monagan–Pearce 2007), so integer order on the keys is graded order and
    a degree bound is a bound on the keys.  A kernel is kept reduced: no
    zero numerator, and ``den`` shares no factor with all the numerators,
    so equal polynomials under one packing have equal kernels.  Values are
    never mutated after construction.
    """

    __slots__ = ("den", "terms")

    def __init__(self, den: int, terms: dict[int, int]):
        self.den = den
        self.terms = terms

    @staticmethod
    def reduced(den: int, terms: dict[int, int]) -> "_Kernel":
        """The kernel of ``terms[key] / den``: zero numerators are dropped,
        and the content that ``den`` shares with the numerators is divided
        out."""
        if not all(terms.values()):
            terms = {k: v for k, v in terms.items() if v}
        if den == 1 or (common := gcd(den, *terms.values())) == 1:
            return _Kernel(den, terms)
        return _Kernel(den // common, {k: v // common for k, v in terms.items()})

    def mul(self, other: "_Kernel", limit: int | None = None) -> "_Kernel":
        """The product, without the keys from ``limit`` on (None keeps all).

        One double loop: the right operand is walked in key order, so each
        left term stops at the first product key that reaches the limit."""
        right = sorted(other.terms.items())
        if limit is None:
            # no product key reaches the sum of the largest keys
            limit = max(self.terms, default=0) + max(other.terms, default=0) + 1
        out: dict[int, int] = {}
        get = out.get
        for ka, ca in self.terms.items():
            for kb, cb in right:
                k = ka + kb
                if k >= limit:
                    break
                out[k] = get(k, 0) + ca * cb
        return _Kernel.reduced(self.den * other.den, out)

    @staticmethod
    def total(kernels: Iterable["_Kernel"]) -> "_Kernel":
        """The sum, over one common denominator."""
        kernels = [k for k in kernels if k.terms]
        den = lcm(*[k.den for k in kernels])
        out: dict[int, int] = {}
        get = out.get
        for kernel in kernels:
            f = den // kernel.den
            for k, v in kernel.terms.items():
                out[k] = get(k, 0) + v * f
        return _Kernel.reduced(den, out)

    def scaled(self, num: int, den: int = 1) -> "_Kernel":
        """The polynomial times num/den, for integers num and den > 0."""
        if num == 1:
            return _Kernel.reduced(self.den * den, self.terms)
        return _Kernel.reduced(self.den * den, {k: v * num for k, v in self.terms.items()})

    def between(self, low: int, high: int) -> "_Kernel":
        """The terms whose keys lie in [low, high): a range of degrees."""
        return _Kernel.reduced(self.den, {k: v for k, v in self.terms.items() if low <= k < high})

    def homogeneous(self, shift: int, bound: int) -> dict[int, "_Kernel"]:
        """The nonzero homogeneous parts of degree at most ``bound``, by
        degree, for keys whose degree field starts at bit ``shift``."""
        parts: dict[int, dict[int, int]] = {}
        for k, v in self.terms.items():
            if (d := k >> shift) <= bound:
                parts.setdefault(d, {})[k] = v
        return {d: _Kernel.reduced(self.den, part) for d, part in parts.items()}

    # The degree operator D (D x = deg(x) x on homogeneous x) is a derivation,
    # so F = exp(L) solves D F = D(L) F and L = log(1 + A) solves
    # D L = D(A) - D(L) A.  In degree n, with M_k = k L_k the parts of D(L):
    #   n F_n = sum_{k=1..n} M_k F_{n-k},   M_n = n A_n - sum_{k=1..n-1} M_k A_{n-k}.
    # Each pair of homogeneous parts is multiplied once (Brent–Kung, 1978).

    def exp(self, shift: int, bound: int) -> "_Kernel":
        """sum_k self^k / k! up to degree ``bound``, for zero constant term."""
        m = {k: part.scaled(k) for k, part in self.homogeneous(shift, bound).items()}
        f = [_ONE]
        for n in range(1, bound + 1):
            f.append(_Kernel.total(mk.mul(f[n - k]) for k, mk in m.items() if k <= n).scaled(1, n))
        return _Kernel.total(f)

    def log1p(self, shift: int, bound: int) -> "_Kernel":
        """sum_{k>=1} (-1)^(k+1) self^k / k up to degree ``bound``, for zero
        constant term."""
        a = self.homogeneous(shift, bound)
        m: dict[int, _Kernel] = {}
        for n in range(1, bound + 1):
            lower = _Kernel.total(mk.mul(a[n - k]) for k, mk in m.items() if n - k in a)
            mn = _Kernel.total((a.get(n, _ZERO).scaled(n), lower.scaled(-1)))
            if mn.terms:
                m[n] = mn
        return _Kernel.total(mk.scaled(1, k) for k, mk in m.items())


_ZERO = _Kernel(1, {})
_ONE = _Kernel(1, {0: 1})


_FIELD_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


class _Packing:
    """Packs the exponent vectors of one ring into degree-tagged integer keys.

    Exponent i occupies bits [(n-1-i)w, (n-i)w) of the key and the weighted
    degree the bits from ``shift`` = nw up, the layout of Monagan and Pearce
    (CASC 2007) for graded orders.  So a monomial product is one integer
    addition, integer order is graded order (by degree, then lex on the
    exponent vectors), and truncation at a degree bound d is the one
    comparison key < (d + 1) << shift.  A key is the sum of the generators'
    keys, each taken as often as its exponent.  Callers choose the field
    width w so that no exponent of a result reaches 2^w; then no field
    carries into the next.  w is 8, 16, 32, ... bits, so that a key of
    fields up to 64 bits wide decodes in one ``struct`` call.
    """

    __slots__ = ("gens", "shift", "exponents")

    def __init__(self, weights: tuple[int, ...], width: int):
        n = len(weights)
        self.shift = shift = width * n
        self.gens = tuple((w << shift) + (1 << width * (n - 1 - i)) for i, w in enumerate(weights))
        code = _FIELD_CODES.get(width)
        if code is not None:
            mask, size, unpack = (1 << shift) - 1, shift // 8, struct.Struct(">" + code * n).unpack
            self.exponents = lambda key: unpack((key & mask).to_bytes(size, "big"))
        else:
            field, shifts = (1 << width) - 1, range(shift - width, -1, -width)
            self.exponents = lambda key: tuple([(key >> s) & field for s in shifts])

    def key(self, exponents: Exponents) -> int:
        return sum(map(mul, exponents, self.gens))

    def repack(self, kernel: _Kernel, into: "_Packing") -> _Kernel:
        """``kernel`` re-keyed under the packing ``into``, whose fields hold
        every exponent of it; the kernel itself if ``into`` is this one."""
        if into is self:
            return kernel
        exponents, key = self.exponents, into.key
        return _Kernel(kernel.den, {key(exponents(k)): v for k, v in kernel.terms.items()})

    def unpack(self, kernel: _Kernel) -> dict[Exponents, Fraction]:
        den, exponents = kernel.den, self.exponents
        return {exponents(k): Fraction(v, den) for k, v in kernel.terms.items()}


@lru_cache(maxsize=None)
def _packing_of_width(weights: tuple[int, ...], width: int) -> _Packing:
    return _Packing(weights, width)


def _packing(ring: "GradedRing", top: int = 0) -> _Packing:
    """The packing of ``ring``'s polynomials of top degree ``top``: its
    fields, the narrowest of 8, 16, 32, ... bits, hold every exponent up to
    the ring's bound, or in an unbounded ring up to ``top``.  No exponent
    exceeds the degree, since every weight is at least 1."""
    top = top if ring.bound is None else ring.bound
    return _packing_of_width(ring.weights, max(8, 1 << (top.bit_length() - 1).bit_length()))


class GradedRing:
    """Generator names, positive integer weights, optional truncation bound."""

    __slots__ = ("names", "weights", "bound")

    def __init__(self, names: Sequence[str], weights: Sequence[int], bound: int | None = None):
        names = tuple(names)
        weights = tuple(weights)
        if len(names) != len(weights):
            raise ValueError("one weight per generator is required")
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        for w in weights:
            _require_int("GradedRing", "weights", w, 1)
        if bound is not None:
            _require_int("GradedRing", "bound", bound, 0)
        self.names = names
        self.weights = weights
        self.bound = bound

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedRing):
            return NotImplemented
        return self is other or (self.names, self.weights, self.bound) == (other.names, other.weights, other.bound)

    def __hash__(self) -> int:
        return hash((self.names, self.weights, self.bound))

    def __repr__(self) -> str:
        bound = "inf" if self.bound is None else self.bound
        gens = ", ".join(f"{n}:{w}" for n, w in zip(self.names, self.weights))
        return f"GradedRing({gens}; bound={bound})"

    @property
    def ngens(self) -> int:
        return len(self.names)

    def _exponents(self, exponents: Sequence[int]) -> Exponents:
        """The exponent vector as a tuple, checked: ``ngens`` entries, each a
        non-bool int >= 0."""
        exps = tuple(exponents)
        if len(exps) != self.ngens or any(isinstance(e, bool) or not isinstance(e, int) or e < 0 for e in exps):
            raise ValueError(f"bad exponent vector {exps!r} for {self!r}")
        return exps

    def degree(self, exponents: Exponents) -> int:
        """Weighted degree of an exponent vector."""
        return sum(e * w for e, w in zip(exponents, self.weights))

    def with_bound(self, bound: int | None) -> "GradedRing":
        return GradedRing(self.names, self.weights, bound)

    @property
    def zero(self) -> "GradedPolynomial":
        return self.constant(0)

    @property
    def one(self) -> "GradedPolynomial":
        return self.constant(1)

    def constant(self, value) -> "GradedPolynomial":
        c = _as_fraction(value)
        # the constant monomial has key 0 under every packing
        return GradedPolynomial(self, _packing(self), _Kernel(c.denominator, {0: c.numerator} if c else {}))

    def gen(self, index: int) -> "GradedPolynomial":
        _require_int("GradedRing.gen", "index", index)
        if not 0 <= index < self.ngens:
            raise ValueError(f"generator index {index} out of range")
        exps = [0] * self.ngens
        exps[index] = 1
        return self.monomial(tuple(exps))

    def gens(self) -> tuple["GradedPolynomial", ...]:
        return tuple(self.gen(i) for i in range(self.ngens))

    def monomial(self, exponents: Exponents, coefficient=1) -> "GradedPolynomial":
        return self.from_terms({tuple(exponents): coefficient})

    def from_terms(self, terms: Mapping[Exponents, object]) -> "GradedPolynomial":
        """Build a polynomial; zero coefficients and terms above the bound are
        dropped before the rest are packed."""
        bound, degree = self.bound, self.degree
        kept: list[tuple[Exponents, Fraction, int]] = []
        for exps, coeff in terms.items():
            exps, c = self._exponents(exps), _as_fraction(coeff)
            d = degree(exps)
            if c and (bound is None or d <= bound):
                kept.append((exps, c, d))
        packing = _packing(self, max((d for *_, d in kept), default=0))
        den = lcm(*[c.denominator for _, c, _ in kept])
        out: dict[int, int] = {}
        for exps, c, _ in kept:
            k = packing.key(exps)
            out[k] = out.get(k, 0) + c.numerator * (den // c.denominator)
        return GradedPolynomial(self, packing, _Kernel.reduced(den, out))

    def parse(self, text: str) -> "GradedPolynomial":
        """Parse the canonical text grammar: ``+``/``-`` separated terms, each a
        ``*``-joined product of an optional ``num`` or ``num/den`` coefficient and
        ``name^exp`` factors."""
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty polynomial text")
        if s == "0":
            return self.zero
        chunks = re.findall(r"([+-]?)([^+-]+)", s)
        if "".join(sign + body for sign, body in chunks) != s:
            raise ValueError(f"cannot parse polynomial text {text!r}")
        index = {name: i for i, name in enumerate(self.names)}
        terms: dict[Exponents, Fraction] = {}
        for sign, body in chunks:
            coeff = Fraction(-1 if sign == "-" else 1)
            exps = [0] * self.ngens
            for factor in body.split("*"):
                if re.match(_COEFF, factor):
                    try:
                        coeff *= Fraction(factor)
                    except ZeroDivisionError:
                        raise ValueError(f"zero denominator in {factor!r} in polynomial text {text!r}") from None
                    continue
                m = re.match(_NAME, factor)
                if m is None or m.group(1) not in index:
                    raise ValueError(f"bad factor {factor!r} in polynomial text {text!r}")
                exps[index[m.group(1)]] += int(m.group(2)) if m.group(2) else 1
            key = tuple(exps)
            terms[key] = terms.get(key, Fraction(0)) + coeff
        return self.from_terms(terms)


class GradedPolynomial:
    """Sparse polynomial attached to a :class:`GradedRing`.

    The one stored form is the pair of a packing and an integer kernel
    under it; the packing is the ring's (see :func:`_packing`), so it is a
    function of the ring and, in an unbounded ring, of the polynomial's top
    degree.  Build polynomials with :meth:`GradedRing.from_terms`,
    ``parse``, ``constant``, ``monomial`` or ``gen``.  Values behave
    immutably: every operation returns a fresh polynomial and never mutates
    its operands, so instances are safe to share.  ``terms`` decodes the
    kernel into a new dict on each read, which the caller may change
    without changing the polynomial.
    """

    __slots__ = ("ring", "_packing", "_kernel")

    def __init__(self, ring: GradedRing, packing: _Packing, kernel: _Kernel):
        if ring.bound is None:
            # an unbounded ring's fields are as wide as the top degree needs
            fit = _packing(ring, max(kernel.terms, default=0) >> packing.shift)
            packing, kernel = fit, packing.repack(kernel, fit)
        self.ring = ring
        self._packing = packing
        self._kernel = kernel

    @property
    def terms(self) -> dict[Exponents, Fraction]:
        """The nonzero coefficients, by exponent vector: a new dict on each
        read."""
        return self._packing.unpack(self._kernel)

    def _top(self) -> int:
        """The top degree, 0 for the zero polynomial."""
        return max(self._kernel.terms, default=0) >> self._packing.shift

    def _with(self, kernel: _Kernel) -> "GradedPolynomial":
        return GradedPolynomial(self.ring, self._packing, kernel)

    # -- queries ---------------------------------------------------------

    def coefficient(self, exponents: Exponents) -> Fraction:
        """The coefficient of one monomial, with its exponent vector checked
        as by :meth:`GradedRing.from_terms`.  An exponent too wide for its
        field carries into the degree field, past every key's degree, so
        the lookup needs no decoding and no width check."""
        key = self._packing.key(self.ring._exponents(exponents))
        return Fraction(self._kernel.terms.get(key, 0), self._kernel.den)

    @property
    def constant_term(self) -> Fraction:
        return Fraction(self._kernel.terms.get(0, 0), self._kernel.den)

    def homogeneous_part(self, d: int) -> "GradedPolynomial":
        shift = self._packing.shift
        return self._with(self._kernel.between(d << shift, d + 1 << shift))

    def is_homogeneous_of(self, d: int) -> bool:
        shift = self._packing.shift
        return all(k >> shift == d for k in self._kernel.terms)

    def truncate(self, bound: int | None) -> "GradedPolynomial":
        """Drop terms of weighted degree above ``bound``; the result lives in
        the ring with that bound."""
        ring = self.ring.with_bound(bound)
        packing, kernel = self._packing, self._kernel
        if bound is not None:
            fit = _packing(ring)
            packing, kernel = fit, packing.repack(kernel.between(0, bound + 1 << packing.shift), fit)
        return GradedPolynomial(ring, packing, kernel)

    # -- arithmetic ------------------------------------------------------

    def _check_ring(self, other: "GradedPolynomial") -> None:
        if self.ring != other.ring:
            raise ValueError(f"incompatible rings: {self.ring!r} vs {other.ring!r}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if not isinstance(other, GradedPolynomial):
            return NotImplemented
        self._check_ring(other)
        # the wider packing of the two holds both; a bounded ring has one
        packing = max(self._packing, other._packing, key=attrgetter("shift"))
        kernels = (self._packing.repack(self._kernel, packing), other._packing.repack(other._kernel, packing))
        return GradedPolynomial(self.ring, packing, _Kernel.total(kernels))

    __radd__ = __add__

    def __neg__(self):
        return self._with(self._kernel.scaled(-1))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if not isinstance(other, GradedPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.ring.constant(other) - self
        return NotImplemented

    def _scale(self, value) -> "GradedPolynomial":
        return self._with(self._kernel.scaled(*_as_fraction(value).as_integer_ratio()))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        if not isinstance(other, GradedPolynomial):
            return NotImplemented
        self._check_ring(other)
        ring = self.ring
        # in an unbounded ring the top degrees add: Q[x] has no zero divisors
        top = ring.bound if ring.bound is not None else self._top() + other._top()
        packing = _packing(ring, top)
        a = self._packing.repack(self._kernel, packing)
        b = other._packing.repack(other._kernel, packing)
        return GradedPolynomial(ring, packing, a.mul(b, top + 1 << packing.shift))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(Fraction(1, 1) / _as_fraction(other))
        return NotImplemented

    def __pow__(self, n: int):
        """Square-and-multiply over ``*``, so that a wrapper on ``__mul__``
        sees every product."""
        _require_int("GradedPolynomial.__pow__", "n", n, 0)
        result, base = self.ring.one, self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- comparisons / display -------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._kernel.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            # a bool compares as the number it is, as it does with a Fraction
            return self._kernel.terms.keys() <= {0} and self.constant_term == other
        if not isinstance(other, GradedPolynomial):
            return NotImplemented
        # the packing is a function of the ring and the keys' top degree, and
        # kernels are reduced, so equal values have equal kernels
        a, b = self._kernel, other._kernel
        return self.ring == other.ring and a.den == b.den and a.terms == b.terms

    def __hash__(self) -> int:
        # a constant compares equal to its value, so it hashes like it
        kernel = self._kernel
        if kernel.terms.keys() <= {0}:
            return hash(self.constant_term)
        return hash((self.ring, kernel.den, frozenset(kernel.terms.items())))

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in graded-lex order: by weighted degree, then by exponent vector."""
        degree = self.ring.degree
        return sorted(self.terms.items(), key=lambda kv: (degree(kv[0]), kv[0]))

    def __str__(self) -> str:
        if not self:
            return "0"
        parts: list[str] = []
        for exps, coeff in self.sorted_terms():
            factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(self.ring.names, exps) if e]
            # a coefficient of magnitude 1 is written only without factors
            mag = abs(coeff)
            body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
            if not parts:
                parts.append(("-" if coeff < 0 else "") + body)
            else:
                parts.append((" - " if coeff < 0 else " + ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"GradedPolynomial({self})"


def graded_exp(a: GradedPolynomial) -> GradedPolynomial:
    """Exponential sum_{k>=0} a^k / k! of a polynomial with zero constant term.

    The sum is finite because ``a`` is purely positive-degree and the ring is
    truncated; a bound is therefore required.
    """
    if a.constant_term != 0:
        raise ValueError("graded_exp requires a zero constant term")
    return _on_kernel("graded_exp", _Kernel.exp, a)


def graded_log(a: GradedPolynomial) -> GradedPolynomial:
    """Logarithm sum_{k>=1} (-1)^(k+1) (a-1)^k / k of a polynomial with constant term 1."""
    if a.constant_term != 1:
        raise ValueError("graded_log requires constant term 1")
    return _on_kernel("graded_log", _Kernel.log1p, a - 1)


def _on_kernel(name: str, series, a: GradedPolynomial) -> GradedPolynomial:
    """``series`` (``_Kernel.exp`` or ``_Kernel.log1p``) of a's kernel, up to
    the bound of a's ring, which ``name`` requires."""
    bound = a.ring.bound
    if bound is None:
        raise ValueError(f"{name} requires a truncation bound on the ring")
    return a._with(series(a._kernel, a._packing.shift, bound))


# name: (s, sign, exponentiate) for sign * log((e^{st} - 1) / (st)), then exp
_SERIES = {
    "todd_dual_gen": (1, -1, True),
    "log_todd_gen": (-1, -1, False),
    "log_todd_dual_gen": (1, -1, False),
    "log_one_minus_exp_neg_over_t": (-1, 1, False),
}


def _exp_difference_quotient(s: int, order: int) -> GradedPolynomial:
    """(e^{st} - 1) / (st) in the one-generator ring ``t`` truncated at ``order``:
    (e^t - 1)/t for s = 1 and (1 - e^{-t})/t for s = -1."""
    packing = _packing(ring := GradedRing(("t",), (1,), order))
    # over (order + 1)!, s^k / (k + 1)! has the numerator s^k (k + 2)...(order + 1),
    # which is +-1 at k = order, so the kernel is reduced as it is written
    t, den, terms = packing.gens[0], 1, {}
    for k in range(order, -1, -1):
        terms[k * t] = s**k * den
        den *= k + 1
    return GradedPolynomial(ring, packing, _Kernel(den, terms))


def named_series(name: str, order: int) -> tuple[Fraction, ...]:
    """Exact coefficients 0..order of the generating series used by the class calculus.

    ``todd_dual_gen``
        t / (e^t - 1), whose k-th coefficient is B_k / k!.
    ``log_todd_gen``
        log(t / (1 - e^{-t})).
    ``log_todd_dual_gen``
        log(t / (e^t - 1)).
    ``log_one_minus_exp_neg_over_t``
        log((1 - e^{-t}) / t).

    Each is computed by ``graded_log`` and ``graded_exp`` in the ring ``t``.
    """
    _require_int("named_series", "order", order, 0)
    if name not in _SERIES:
        raise ValueError(f"unknown series {name!r}; expected one of {', '.join(_SERIES)}")
    s, sign, exponentiate = _SERIES[name]
    series = graded_log(_exp_difference_quotient(s, order)) * sign
    if exponentiate:
        series = graded_exp(series)
    return tuple(series.coefficient((k,)) for k in range(order + 1))
