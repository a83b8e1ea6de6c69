"""Weighted-graded multivariate polynomials over exact rationals.

One engine serves every alphabet used in this package: the Hodge classes
l1..lg carry weights 1..g, Chern roots and the two boundary divisors carry
weight 1.  Polynomials are sparse maps from exponent vectors to Fractions,
optionally truncated above a weighted-degree bound, and they serialize to a
canonical graded-lex text form such as ``2*l2 - l1^2``.

``GradedPolynomial.terms`` is the one public representation.  Products,
powers, ``graded_exp`` and ``graded_log`` run on a private integer kernel
instead: a common denominator times one flat map from packed exponent keys
to integer numerators, so that no ``Fraction`` is normalised inside a loop.
Each key carries the weighted degree in the field above the exponent
fields, as Monagan and Pearce pack monomials for graded orders ("Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007): a monomial product is one integer addition, integer order is graded
order, and truncation at a degree bound is one integer comparison, so a
product is one pass over the pairs of terms.  They convert once on the way
in and once on the way out.

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
from operator import mul

from .rationals import _require_int

__all__ = [
    "GradedRing",
    "GradedPolynomial",
    "graded_exp",
    "graded_log",
    "named_series",
]

Exponents = tuple[int, ...]

_NAME_RE = re.compile(r"^([A-Za-z][A-Za-z0-9]*?)(?:\^(\d+))?$")
_COEFF_RE = re.compile(r"^\d+(?:/\d+)?$")


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
    a degree bound is a bound on the keys.  Values are never mutated after
    construction.
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
        if 0 in terms.values():
            terms = {k: v for k, v in terms.items() if v}
        common = gcd(den, *terms.values())
        if common == 1:
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
        den = lcm(*(k.den for k in kernels))
        out: dict[int, int] = {}
        get = out.get
        for kernel in kernels:
            f = den // kernel.den
            for k, v in kernel.terms.items():
                out[k] = get(k, 0) + v * f
        return _Kernel.reduced(den, out)

    def scaled(self, num: int, den: int = 1) -> "_Kernel":
        """The polynomial times num/den, for integers num != 0 and den > 0."""
        if num == 1:
            return _Kernel.reduced(self.den * den, self.terms)
        return _Kernel.reduced(self.den * den, {k: v * num for k, v in self.terms.items()})

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

    def pack(self, terms: Mapping[Exponents, Fraction]) -> _Kernel:
        ratios = [c.as_integer_ratio() for c in terms.values()]
        den = lcm(*[d for _, d in ratios])
        gens = self.gens
        return _Kernel(den, {sum(map(mul, exps, gens)): n * (den // d) for exps, (n, d) in zip(terms, ratios)})

    def unpack(self, kernel: _Kernel) -> dict[Exponents, Fraction]:
        den, exponents = kernel.den, self.exponents
        if den == 1:
            return {exponents(k): Fraction(v) for k, v in kernel.terms.items()}
        return {exponents(k): Fraction(v, den) for k, v in kernel.terms.items()}


@lru_cache(maxsize=None)
def _packing_of_width(weights: tuple[int, ...], width: int) -> _Packing:
    return _Packing(weights, width)


def _packing(ring: "GradedRing", top: int) -> _Packing:
    """The packing of ``ring``'s exponent vectors whose fields hold every
    exponent up to ``top``."""
    width = 8
    while top >> width:
        width *= 2
    return _packing_of_width(ring.weights, width)


def _max_exponent(terms: Mapping[Exponents, object]) -> int:
    # every exponent vector of one ring has the same length, possibly 0
    return max(map(max, terms)) if terms and next(iter(terms)) else 0


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
        return (self.names, self.weights, self.bound) == (other.names, other.weights, other.bound)

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
        return GradedPolynomial(self, {})

    @property
    def one(self) -> "GradedPolynomial":
        return self.constant(1)

    def constant(self, value) -> "GradedPolynomial":
        c = _as_fraction(value)
        if c == 0:
            return self.zero
        return GradedPolynomial(self, {(0,) * self.ngens: c})

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
        """Build a polynomial; zero coefficients and terms above the bound are dropped."""
        clean: dict[Exponents, Fraction] = {}
        for exps, coeff in terms.items():
            exps = self._exponents(exps)
            c = _as_fraction(coeff)
            if c == 0:
                continue
            if self.bound is not None and self.degree(exps) > self.bound:
                continue
            clean[exps] = clean.get(exps, Fraction(0)) + c
        return GradedPolynomial(self, {e: c for e, c in clean.items() if c != 0})

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
                if _COEFF_RE.match(factor):
                    try:
                        coeff *= Fraction(factor)
                    except ZeroDivisionError:
                        raise ValueError(f"zero denominator in {factor!r} in polynomial text {text!r}") from None
                    continue
                m = _NAME_RE.match(factor)
                if m is None or m.group(1) not in index:
                    raise ValueError(f"bad factor {factor!r} in polynomial text {text!r}")
                exps[index[m.group(1)]] += int(m.group(2)) if m.group(2) else 1
            key = tuple(exps)
            terms[key] = terms.get(key, Fraction(0)) + coeff
        return self.from_terms(terms)


class GradedPolynomial:
    """Sparse polynomial attached to a :class:`GradedRing`.

    Values behave immutably: every operation returns a fresh polynomial and
    never mutates its operands, so instances are safe to share.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: GradedRing, terms: dict[Exponents, Fraction]):
        self.ring = ring
        self.terms = terms

    # -- queries ---------------------------------------------------------

    def coefficient(self, exponents: Exponents) -> Fraction:
        """The coefficient of one monomial, with its exponent vector checked
        as by :meth:`GradedRing.from_terms`."""
        return self.terms.get(self.ring._exponents(exponents), Fraction(0))

    @property
    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.ring.ngens, Fraction(0))

    def homogeneous_part(self, d: int) -> "GradedPolynomial":
        degree = self.ring.degree
        return GradedPolynomial(self.ring, {e: c for e, c in self.terms.items() if degree(e) == d})

    def is_homogeneous_of(self, d: int) -> bool:
        degree = self.ring.degree
        return all(degree(e) == d for e in self.terms)

    def truncate(self, bound: int | None) -> "GradedPolynomial":
        """Drop terms of weighted degree above ``bound``; the result lives in
        the ring with that bound."""
        target = self.ring.with_bound(bound)
        if bound is None:
            return GradedPolynomial(target, dict(self.terms))
        degree = self.ring.degree
        return GradedPolynomial(target, {e: c for e, c in self.terms.items() if degree(e) <= bound})

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
        # fold the smaller operand into a copy of the larger: term order is
        # not part of the value
        big, small = self.terms, other.terms
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        for e, c in small.items():
            if e not in out:
                if c:
                    out[e] = c
            elif v := out[e] + c:
                out[e] = v
            else:
                del out[e]
        return GradedPolynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return GradedPolynomial(self.ring, {e: -c for e, c in self.terms.items()})

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
        c = _as_fraction(value)
        if c == 0:
            return self.ring.zero
        return GradedPolynomial(self.ring, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        if not isinstance(other, GradedPolynomial):
            return NotImplemented
        self._check_ring(other)
        ring = self.ring
        if not self.terms or not other.terms:
            return ring.zero
        top = ring.bound if ring.bound is not None else _max_exponent(self.terms) + _max_exponent(other.terms)
        packing = _packing(ring, top)
        limit = None if ring.bound is None else (ring.bound + 1) << packing.shift
        product = packing.pack(self.terms).mul(packing.pack(other.terms), limit)
        return GradedPolynomial(ring, packing.unpack(product))

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
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            # a bool compares as the number it is, as it does with a Fraction
            return self.terms.keys() <= {(0,) * self.ring.ngens} and self.constant_term == other
        if not isinstance(other, GradedPolynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        # a constant compares equal to its value, so it hashes like it
        if not self.terms.keys() - {(0,) * self.ring.ngens}:
            return hash(self.constant_term)
        return hash((self.ring, frozenset(self.terms.items())))

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in graded-lex order: by weighted degree, then by exponent vector."""
        degree = self.ring.degree
        return sorted(self.terms.items(), key=lambda kv: (degree(kv[0]), kv[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(self.ring.names, exps):
                if e == 0:
                    continue
                factors.append(name if e == 1 else f"{name}^{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = f"{mag}*" + "*".join(factors)
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
    bound = a.ring.bound
    if bound is None:
        raise ValueError("graded_exp requires a truncation bound on the ring")
    packing = _packing(a.ring, bound)
    return GradedPolynomial(a.ring, packing.unpack(packing.pack(a.terms).exp(packing.shift, bound)))


def graded_log(a: GradedPolynomial) -> GradedPolynomial:
    """Logarithm sum_{k>=1} (-1)^(k+1) (a-1)^k / k of a polynomial with constant term 1."""
    if a.constant_term != 1:
        raise ValueError("graded_log requires constant term 1")
    bound = a.ring.bound
    if bound is None:
        raise ValueError("graded_log requires a truncation bound on the ring")
    packing = _packing(a.ring, bound)
    return GradedPolynomial(a.ring, packing.unpack(packing.pack((a - 1).terms).log1p(packing.shift, bound)))


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
    ring = GradedRing(("t",), (1,), order)
    fact = 1
    terms = {}
    for k in range(order + 1):
        fact *= k + 1
        terms[(k,)] = Fraction(s**k, fact)
    return ring.from_terms(terms)


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
