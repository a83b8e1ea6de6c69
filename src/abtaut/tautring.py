"""The graded quotient R_g of Q[l1..lg] by the duality relation.

The ring is presented by the homogeneous components rel_d of
(1 + l1 + ... + lg)(1 - l1 + l2 - ... + (-1)^g lg) - 1.  The odd components
vanish, and with l_0 = 1 and l_k = 0 for k > g the even ones are

    rel_2i = (-1)^i l_i^2 + 2 sum_{0 <= j < i} (-1)^j l_j l_{2i-j}.

Order monomials by weighted degree, then reverse lexicographically with
l1 > ... > lg (weighted grevlex).  The leading term of rel_2i is l_i^2, with
coefficient +-1.  These leading terms are pairwise coprime, so by Buchberger's
first criterion (Cox-Little-O'Shea, *Ideals, Varieties, and Algorithms*,
section 2.9) rel_2, ..., rel_2g form a Groebner basis.  The standard monomials,
those divisible by no l_i^2, are the square-free l_a = prod_{i in a} l_i: the
square-free basis of R_g is proven, not found by elimination.  Normal forms
follow from the integer rewrite

    l_i^2 -> 2 sum_{0 <= j < i, 2i-j <= g} (-1)^{i+j+1} l_j l_{2i-j},

which a ring writes down in closed form from this Groebner basis and applies
on demand: a normal form is computed when it is first asked for and kept.
The engine's product c(E)c(E-dual) is formed only when
:attr:`TautRing.relation_components` is read, so checking it against the
rewrite is a second route that shares no code with it.

The square-free basis ends at the socle degree N_g = g(g+1)/2, the degree of
l1...lg, so R_g is zero above it.  A ring's polynomials therefore live in
Q[l1..lg] truncated at max(N_g, 2g): at g >= 3 that is N_g, and at g = 1, 2
it is 2g, the degree of the top relation rel_2g.  Products never form the
degrees above the bound, and ``parse`` and ``from_terms`` drop input terms
above it, which can change no normal form.  A ring's queries take only
polynomials of its own ring, ``TautRing.ring``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import product

from .graded import GradedPolynomial, GradedRing, _as_fraction, _packing
from .rationals import _require_int

__all__ = [
    "MAX_RING_GENUS",
    "RingReport",
    "TautRing",
    "TautRingElement",
    "build_ring",
    "determinant",
    "ring_report",
]

# The cap of build_ring and so of the CLI; TautRing itself takes any genus.
MAX_RING_GENUS = 8

Exponents = tuple[int, ...]
Subset = tuple[int, ...]


def _check_subset(genus: int, subset) -> None:
    if type(subset) is not tuple or any(type(i) is not int for i in subset):
        raise TypeError(f"a subset must be a tuple of ints, got {subset!r}")
    # 0 < a_1 < ... < a_n < genus + 1
    if not all(x < y for x, y in zip((0,) + subset, subset + (genus + 1,))):
        raise ValueError(f"a subset must increase strictly within 1..{genus}, got {subset!r}")


class TautRingElement:
    """A ring element in square-free coordinates: subset a -> coefficient of l_a.

    Each subset is a strictly increasing tuple of ints in 1..genus.
    """

    __slots__ = ("genus", "coordinates")

    def __init__(self, genus: int, coordinates: Mapping[Subset, Fraction]):
        _require_int("TautRingElement", "genus", genus, 1)
        self.genus = genus
        for subset in coordinates:
            _check_subset(genus, subset)
        self.coordinates = {k: c for k, v in coordinates.items() if (c := _as_fraction(v))}

    @classmethod
    def _of_valid(cls, genus: int, coordinates: dict[Subset, Fraction]) -> TautRingElement:
        """Wrap coordinates that hold by construction what ``__init__`` checks:
        a normal form's subsets come from the ring's basis and its values are
        nonzero Fractions."""
        element = object.__new__(cls)
        element.genus, element.coordinates = genus, coordinates
        return element

    def coefficient(self, subset: Sequence[int]) -> Fraction:
        """The coefficient of l_subset, with the subset checked as by the
        constructor."""
        subset = tuple(subset)
        _check_subset(self.genus, subset)
        return self.coordinates.get(subset, Fraction(0))

    def __bool__(self) -> bool:
        return bool(self.coordinates)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TautRingElement):
            return NotImplemented
        return self.genus == other.genus and self.coordinates == other.coordinates

    def __hash__(self) -> int:
        return hash((self.genus, frozenset(self.coordinates.items())))

    def to_polynomial(self) -> GradedPolynomial:
        """The element as a polynomial in l1..lg."""
        g = self.genus
        return _lambda_ring(g).from_terms({tuple(int(i in a) for i in range(1, g + 1)): c for a, c in self.coordinates.items()})

    def __str__(self) -> str:
        return str(self.to_polynomial())

    def __repr__(self) -> str:
        return f"TautRingElement(g={self.genus}, {self})"


def _lambda_ring(g: int) -> GradedRing:
    # truncated where R_g is zero, but never below rel_2g (module docstring)
    return GradedRing(tuple(f"l{i}" for i in range(1, g + 1)), tuple(range(1, g + 1)), max(g * (g + 1) // 2, 2 * g))


class TautRing:
    """Normal forms, dimensions and the duality pairing for a fixed genus.

    ``ring`` is Q[l1..lg] truncated at max(socle_degree, 2g), where R_g is
    already zero (see the module docstring).  The rewrite of each l_k^2 is
    written down in closed form from the proven Groebner basis, and
    construction only groups the 2^g square-free basis monomials by weight.
    Normal forms are filled in on first use, in two memos of integer rows
    that key each subset a by its bitmask, the sum of 2^(i-1) over i in a.
    ``_products`` holds, per generator l_k and by the mask of a, the
    products NF(l_a * l_k) of a basis element and l_k.  ``_rows`` holds the
    row (mask -> int) of each monomial reached so far, keyed by the
    monomial's packed key under the ring's one packing, so a query looks up
    its kernel's keys as they are and a hit decodes nothing.  A row is
    built as NF(NF(m / l_k) * l_k) from whichever parent m / l_k is known,
    the monomial of key(m) - key(l_k).  Any parent gives the same row: the
    ring is commutative, so m = (m / l_k) l_k for every l_k dividing m;
    NF(m / l_k) * l_k then differs from m by an element of the ideal, and
    modulo a Groebner basis the normal form of a class is unique.  A third
    memo, ``_pairings``, keeps each degree's pairing matrix, and
    ``_subsets``, a table of 2^g entries built with the basis, maps masks
    back to subset tuples.  Each memo entry is written once and complete,
    so the ring is safe for concurrent queries without a lock: threads that
    race on an entry write equal values.
    """

    def __init__(self, g: int):
        _require_int("TautRing", "g", g, 1)
        self.genus = g
        self.socle_degree = g * (g + 1) // 2
        self.ring = _lambda_ring(g)
        # the rewrite of l_k^2, each term 2 (-1)^(k+j+1) l_j l_(2k-j) as
        # (its generator factors, coefficient), with l_0 = 1 and 2k - j <= g
        self._tails = [
            [((j, 2 * k - j) if j else (2 * k,), 2 * (-1) ** (k + j + 1)) for j in range(max(0, 2 * k - g), k)]
            for k in range(1, g + 1)
        ]
        # product() yields the 0-1 vectors in ascending lex order
        self._basis: list[list[Exponents]] = [[] for _ in range(self.socle_degree + 1)]
        for exps in product((0, 1), repeat=g):
            self._basis[sum(i for i, e in enumerate(exps, start=1) if e)].append(exps)
        # the subset of each mask, the sum of 2^(i-1) over i in the subset:
        # the masks from 2^(i-1) to 2^i - 1 are those below 2^(i-1) plus i
        self._subsets: list[Subset] = [()]
        for i in range(1, g + 1):
            self._subsets += [a + (i,) for a in self._subsets]
        self._products: list[dict[int, dict[int, int]]] = [{} for _ in range(g)]
        # a bounded ring has one packing, so its polynomials' keys are row keys
        self._packing = _packing(self.ring)
        self._rows: dict[int, dict[int, int]] = {0: {0: 1}}
        self._pairings: dict[int, list[list[int]]] = {}

    @cached_property
    def relation_components(self) -> dict[int, GradedPolynomial]:
        """The even components rel_2..rel_2g of c(E)c(E-dual) - 1, multiplied
        out by the graded engine when first read."""
        gens = self.ring.gens()
        total = sum(gens, self.ring.one)
        dual = sum((x * (-1) ** i for i, x in enumerate(gens, start=1)), self.ring.one)
        rel = total * dual - 1
        return {d: rel.homogeneous_part(d) for d in range(2, 2 * self.genus + 1, 2)}

    def _times(self, row: Mapping[int, int], k: int, out: dict[int, int] | None = None) -> dict[int, int]:
        """NF(row * l_k), added into ``out`` if given."""
        out = {} if out is None else out
        products = self._products[k - 1]
        for a, c in row.items():
            p = products.get(a)
            for b, v in (self._product(a, k) if p is None else p).items():
                w = out.get(b, 0) + c * v
                if w:
                    out[b] = w
                else:
                    del out[b]
        return out

    def _product(self, a: int, k: int) -> dict[int, int]:
        # l_a * l_k is square-free unless k is in a; then it is l_{a - k}
        # times the rewrite of l_k^2, whose terms are smaller in the term
        # order, so the recursion terminates.
        bit = 1 << k - 1
        if not a & bit:
            out = {a | bit: 1}
        else:
            out = {}
            for factors, c in self._tails[k - 1]:
                row = {a ^ bit: c}
                for f in factors[:-1]:
                    row = self._times(row, f)
                self._times(row, factors[-1], out)
        self._products[k - 1][a] = out
        return out

    def _row(self, key: int) -> dict[int, int]:
        """The integer normal form of the monomial of a packed key.  A
        missing row is its parent's row times l_k, for any parent
        key - key(l_k) already known; failing that, the parent that drops
        one factor of the last generator present is followed down to the
        nearest known ancestor, and the rows between are filled in.  Only a
        miss decodes the key, once."""
        rows = self._rows
        row = rows.get(key)
        if row is not None:
            return row
        gens = self._packing.gens
        exps = list(self._packing.exponents(key))
        for k, e in enumerate(exps, start=1):
            if e and (parent := rows.get(key - gens[k - 1])) is not None:
                row = rows[key] = self._times(parent, k)
                return row
        missing = []
        while row is None:
            k = max(i for i, e in enumerate(exps, start=1) if e)
            missing.append((key, k))
            key -= gens[k - 1]
            exps[k - 1] -= 1
            row = rows.get(key)
        for key, k in reversed(missing):
            row = self._times(row, k)
            rows[key] = row
        return row

    # -- queries ---------------------------------------------------------

    def dimension_profile(self) -> list[int]:
        """Dimension of each graded piece, degrees 0..socle_degree."""
        return [len(b) for b in self._basis]

    def basis_monomials(self, d: int) -> list[GradedPolynomial]:
        """The square-free monomial basis of degree d, as polynomials."""
        self._check_degree("TautRing.basis_monomials", d)
        return [self.ring.monomial(m) for m in self._basis[d]]

    def _check_degree(self, function: str, d: int) -> None:
        _require_int(function, "d", d)
        if not 0 <= d <= self.socle_degree:
            raise ValueError(f"degree must lie in 0..{self.socle_degree}, got {d}")

    def _check_polynomial(self, p: GradedPolynomial) -> None:
        if p.ring != self.ring:
            raise ValueError(f"polynomial ring {p.ring!r} is not the ring {self.ring!r} of genus {self.genus}")

    def normal_form(self, p: GradedPolynomial) -> TautRingElement:
        """Coordinates of p, a polynomial of ``ring``, in the square-free basis.

        Linear over the rationals; terms of weighted degree above the socle
        degree reduce to 0.
        """
        self._check_polynomial(p)
        rows, kernel = self._rows, p._kernel
        # integer rows summed over one common denominator, looked up by the
        # kernel's own keys
        den, coords = kernel.den, {}
        get = coords.get
        for key, n in kernel.terms.items():
            row = rows.get(key)
            if row is None:
                row = self._row(key)
            for a, r in row.items():
                coords[a] = get(a, 0) + n * r
        subsets = self._subsets
        if den == 1:
            return TautRingElement._of_valid(self.genus, {subsets[a]: Fraction(v) for a, v in coords.items() if v})
        return TautRingElement._of_valid(self.genus, {subsets[a]: Fraction(v, den) for a, v in coords.items() if v})

    def socle_ratio(self, p: GradedPolynomial) -> Fraction:
        """The unique q with normal_form(p) = q * l1l2...lg, for p homogeneous
        of the socle degree.  Such a p has no other coordinate, so only the
        socle entry of each row is read."""
        self._check_polynomial(p)
        if not p.is_homogeneous_of(self.socle_degree):
            raise ValueError(f"socle_ratio requires a homogeneous polynomial of degree {self.socle_degree}")
        kernel, full = p._kernel, (1 << self.genus) - 1
        return Fraction(sum(n * self._row(key).get(full, 0) for key, n in kernel.terms.items()), kernel.den)

    def pairing_matrix(self, d: int) -> list[list[int]]:
        """Socle ratios of basis products between degrees d and socle_degree - d.

        The entries are ints: every row of the memo is an integer vector.
        Each degree's matrix is kept, and every call returns a fresh copy.
        """
        self._check_degree("TautRing.pairing_matrix", d)
        matrix = self._pairings.get(d)
        if matrix is None:
            # the key of a product is the sum of its factors' keys
            key, full = self._packing.key, (1 << self.genus) - 1
            right = [key(b) for b in self._basis[self.socle_degree - d]]
            matrix = [[self._row(a + b).get(full, 0) for b in right] for a in map(key, self._basis[d])]
            self._pairings[d] = matrix
        return [row[:] for row in matrix]


def determinant(matrix: Sequence[Sequence[int]]) -> Fraction:
    """Exact determinant of a square matrix of ints, as a Fraction; the empty
    matrix has determinant 1.

    Entries are ints, as ``pairing_matrix`` returns them; any other entry,
    a bool or a Fraction included, is a TypeError.  One fraction-free
    elimination (Bareiss, Math. Comp. 22, 1968) moves each pivot row to the
    top: every division by the previous pivot is exact, and the last pivot,
    signed by the row moves, is the determinant.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant requires a square matrix")
    for row in matrix:
        for x in row:
            if type(x) is not int:
                raise TypeError(f"determinant requires int entries, got {x!r}")
    m = list(matrix)
    sign, prev = 1, 1
    while m:
        pivot = next((r for r, row in enumerate(m) if row[0]), None)
        if pivot is None:
            return Fraction(0)
        # moving the pivot row to the top passes it over `pivot` rows
        p, *top = m.pop(pivot)
        sign *= (-1) ** pivot
        m = [[(p * x - f * y) // prev for x, y in zip(row, top)] for f, *row in m]
        prev = p
    return Fraction(sign * prev)


def build_ring(g: int) -> TautRing:
    """Construct the ring for genus g, at most :data:`MAX_RING_GENUS`."""
    _require_int("build_ring", "g", g, 1)
    if g > MAX_RING_GENUS:
        raise ValueError(f"ring construction is capped at genus {MAX_RING_GENUS}, got {g}")
    return TautRing(g)


class RingReport(namedtuple("RingReport", "genus ok dims checks")):
    """Structural checks of R_g: the dimension profile and six named verdicts."""

    __slots__ = ()

    def as_payload(self) -> dict:
        return {"g": self.genus, "dims": list(self.dims), **dict(self.checks)}


def ring_report(g: int) -> RingReport:
    """Build R_g (subject to :data:`MAX_RING_GENUS`) and check its structure: total
    dimension 2^g, a palindromic profile with one-dimensional socle,
    lambda_g^2 = 0, c(E)c(E-dual) = 1, and a nonsingular pairing in every degree."""
    _require_int("ring_report", "g", g, 1)
    ring = build_ring(g)
    dims = ring.dimension_profile()
    lam_g_sq = ring.ring.monomial(tuple(0 if i < g - 1 else 2 for i in range(g)))
    relation = sum(ring.relation_components.values(), ring.ring.one)
    checks = (
        ("total_dimension_2^g", sum(dims) == 2 ** g),
        ("palindromic_profile", dims == dims[::-1]),
        ("one_dimensional_socle", dims[-1] == 1),
        ("top_chern_squares_to_zero", not ring.normal_form(lam_g_sq)),
        ("relation_product_reduces_to_one", ring.normal_form(relation) == ring.normal_form(ring.ring.one)),
        (
            "pairing_nonsingular_all_degrees",
            all(determinant(ring.pairing_matrix(d)) != 0 for d in range(ring.socle_degree + 1)),
        ),
    )
    return RingReport(genus=g, ok=all(flag for _, flag in checks), dims=tuple(dims), checks=checks)
