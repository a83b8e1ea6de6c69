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
on demand: a normal form is computed when it is first asked for and kept,
in one memo of integer rows keyed by the packed key of each monomial.
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

from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cached_property
from math import lcm

from .graded import GradedPolynomial, GradedRing, _as_fraction, _Kernel, _packing
from .rationals import _Record, _require_int

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

Subset = tuple[int, ...]


def _mask(genus: int, subset) -> int:
    """The bitmask of a checked subset: bit i-1 for l_i."""
    if type(subset) is not tuple or any(type(i) is not int for i in subset):
        raise TypeError(f"a subset must be a tuple of ints, got {subset!r}")
    # 0 < a_1 < ... < a_n < genus + 1
    if not all(x < y for x, y in zip((0,) + subset, subset + (genus + 1,))):
        raise ValueError(f"a subset must increase strictly within 1..{genus}, got {subset!r}")
    return sum(1 << i - 1 for i in subset)


class TautRingElement:
    """A ring element in square-free coordinates: subset a -> coefficient of l_a.

    Each subset is a strictly increasing tuple of ints in 1..genus.  An
    element is its genus and its integer row: numerators keyed by the
    subset's bitmask (bit i-1 for l_i) over one positive denominator,
    reduced so that the denominator shares no factor with all the
    numerators; equal elements therefore store equal rows, and ``==``,
    ``hash``, ``bool``, ``coefficient`` and ``to_polynomial`` read the row.
    ``coordinates``, the map from subsets to ``Fraction``, decodes each
    mask's subset from its bits into a new dict on each read, which the
    caller may change without changing the element.
    """

    __slots__ = ("genus", "_row")

    def __init__(self, genus: int, coordinates: Mapping[Subset, Fraction]):
        _require_int("TautRingElement", "genus", genus, 1)
        # every subset is checked before any coefficient
        masks = [_mask(genus, a) for a in coordinates]
        self.genus = genus
        values = [_as_fraction(c) for c in coordinates.values()]
        den = lcm(*[c.denominator for c in values])
        self._row = _Kernel.reduced(den, {a: c.numerator * (den // c.denominator) for a, c in zip(masks, values)})

    @classmethod
    def _of_valid(cls, genus: int, row: _Kernel) -> TautRingElement:
        """Wrap a reduced row that holds by construction what ``__init__``
        checks: a normal form's masks come from the ring's basis."""
        element = object.__new__(cls)
        element.genus, element._row = genus, row
        return element

    @property
    def coordinates(self) -> dict[Subset, Fraction]:
        """The nonzero coefficients, by subset: a new dict on each read."""
        den, genus = self._row.den, self.genus
        return {tuple(i + 1 for i in range(genus) if a >> i & 1): Fraction(v, den) for a, v in self._row.terms.items()}

    def coefficient(self, subset: Sequence[int]) -> Fraction:
        """The coefficient of l_subset, with the subset checked as by the
        constructor."""
        return Fraction(self._row.terms.get(_mask(self.genus, tuple(subset)), 0), self._row.den)

    def __bool__(self) -> bool:
        return bool(self._row.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TautRingElement):
            return NotImplemented
        a, b = self._row, other._row
        return self.genus == other.genus and a.den == b.den and a.terms == b.terms

    def __hash__(self) -> int:
        return hash((self.genus, self._row.den, frozenset(self._row.terms.items())))

    def to_polynomial(self) -> GradedPolynomial:
        """The element as a polynomial in l1..lg: the key of l_a is the sum
        of the generator keys of a."""
        packing = _packing(ring := _lambda_ring(self.genus))
        terms = {sum(k for i, k in enumerate(packing.gens) if a >> i & 1): v for a, v in self._row.terms.items()}
        return GradedPolynomial(ring, packing, _Kernel(self._row.den, terms))

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
    Normal forms are filled in on first use, in one memo: ``_rows`` holds
    the integer row (mask -> int) of each monomial reached so far, where
    the mask of a subset a is the sum of 2^(i-1) over i in a.  A row is
    keyed by the monomial's packed key under the ring's one packing, so a
    query looks up its kernel's keys as they are and a hit decodes nothing.
    A query takes a polynomial of ``ring``, whose kernel is under that
    packing, or of a ring equal to it, which has the same one packing: the
    ring check tests identity before equality, and ``socle_ratio`` checks
    homogeneity on the smallest and the largest key alone, since integer
    order on keys is graded order.
    ``_keys`` maps each mask to the packed key of l_a, and ``_basis``
    holds those keys by degree, in the ring's order; the product
    NF(l_a * l_k) of a basis element and a generator is the row of the key
    ``_keys[a]`` + key(l_k).  A row is built as NF(NF(m / l_k) * l_k) from
    whichever parent m / l_k is known, the monomial of key(m) - key(l_k).
    Any parent gives the same row: the ring is commutative, so m = (m /
    l_k) l_k for every l_k dividing m; NF(m / l_k) * l_k then differs from
    m by an element of the ideal, and modulo a Groebner basis the normal
    form of a class is unique.  ``_pairings`` keeps each degree's pairing
    matrix.  ``normal_form`` sums integer rows over the input's common
    denominator, divides out their shared content and wraps the row it has
    summed: it builds no ``Fraction`` and no subset tuple, since an
    element decodes each mask's subset from its bits.  Each memo entry is
    written complete, so the ring is safe for concurrent queries without
    a lock: threads that race on an entry write equal values.
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
        # a bounded ring has one packing, so its polynomials' keys are row keys
        self._packing = packing = _packing(self.ring)
        # the packed key of each mask, the sum of 2^(i-1) over i in the
        # subset: the masks from 2^(i-1) to 2^i - 1 are those below 2^(i-1)
        # plus i
        self._keys = [0]
        for gen in packing.gens:
            self._keys += [key + gen for key in self._keys]
        # integer order on keys is degree, then lex on the exponent vectors
        self._basis: list[list[int]] = [[] for _ in range(self.socle_degree + 1)]
        for key in sorted(self._keys):
            self._basis[key >> packing.shift].append(key)
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
        """NF(row * l_k), added into ``out`` if given; the entries that sum
        to zero are swept once, at the end."""
        out = {} if out is None else out
        rows, keys, gen = self._rows, self._keys, self._packing.gens[k - 1]
        get = out.get
        for a, c in row.items():
            p = rows.get(keys[a] + gen)
            for b, v in (self._product(a, k) if p is None else p).items():
                out[b] = get(b, 0) + c * v
        for b in [b for b, v in out.items() if not v]:
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
        self._rows[self._keys[a] + self._packing.gens[k - 1]] = out
        return out

    def _row(self, key: int) -> dict[int, int]:
        """The integer normal form of the monomial of a packed key.  A
        missing row is its parent's row times l_k, for the first parent
        key - key(l_k) found known, with one memo lookup per generator
        present; failing that, for the parent that drops one factor of the
        last generator present, whose row is found the same way.  The
        recursion is at most as deep as the monomial has factors, and a
        monomial of the ring has at most the ring's bound of them: 36 at
        g = 8, 55 at g = 10.  Construction enumerates 2^g subsets, so no
        ring can be built at a genus where this nears Python's recursion
        limit of 1000.  Only a miss decodes the key, once."""
        row = self._rows.get(key)
        if row is None:
            rows, gens = self._rows, self._packing.gens
            for k in [k for k, e in enumerate(self._packing.exponents(key), start=1) if e]:
                parent = rows.get(key - gens[k - 1])
                if parent is not None:
                    break
            else:
                # no parent is known: k is the last generator present
                parent = self._row(key - gens[k - 1])
            row = rows[key] = self._times(parent, k)
        return row

    # -- queries ---------------------------------------------------------

    def dimension_profile(self) -> list[int]:
        """Dimension of each graded piece, degrees 0..socle_degree."""
        return [len(b) for b in self._basis]

    def basis_monomials(self, d: int) -> list[GradedPolynomial]:
        """The square-free monomial basis of degree d, as polynomials."""
        self._check_degree("TautRing.basis_monomials", d)
        exponents = self._packing.exponents
        return [self.ring.monomial(exponents(key)) for key in self._basis[d]]

    def _check_degree(self, function: str, d: int) -> None:
        _require_int(function, "d", d)
        if not 0 <= d <= self.socle_degree:
            raise ValueError(f"degree must lie in 0..{self.socle_degree}, got {d}")

    def _check_polynomial(self, p: GradedPolynomial) -> None:
        if p.ring is not self.ring and p.ring != self.ring:
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
        return TautRingElement._of_valid(self.genus, _Kernel.reduced(den, coords))

    def socle_ratio(self, p: GradedPolynomial) -> Fraction:
        """The unique q with normal_form(p) = q * l1l2...lg, for p homogeneous
        of the socle degree.  Such a p has no other coordinate, so only the
        socle entry of each row is read."""
        self._check_polynomial(p)
        kernel, shift, top = p._kernel, self._packing.shift, self.socle_degree
        # integer order on keys is graded order, so the smallest and the
        # largest key bound the degrees of all of them
        if kernel.terms and not min(kernel.terms) >> shift == top == max(kernel.terms) >> shift:
            raise ValueError(f"socle_ratio requires a homogeneous polynomial of degree {top}")
        rows, full, total = self._rows, (1 << self.genus) - 1, 0
        for key, n in kernel.terms.items():
            row = rows.get(key)
            total += n * (self._row(key) if row is None else row).get(full, 0)
        return Fraction(total, kernel.den)

    def pairing_matrix(self, d: int) -> list[list[int]]:
        """Socle ratios of basis products between degrees d and socle_degree - d.

        The entries are ints: every row of the memo is an integer vector.
        Each degree's matrix is kept, and every call returns a fresh copy.
        """
        self._check_degree("TautRing.pairing_matrix", d)
        matrix = self._pairings.get(d)
        if matrix is None:
            # the key of a product is the sum of its factors' keys
            full, right = (1 << self.genus) - 1, self._basis[self.socle_degree - d]
            matrix = [[self._row(a + b).get(full, 0) for b in right] for a in self._basis[d]]
            self._pairings[d] = matrix
        return [row[:] for row in matrix]


def determinant(matrix: Sequence[Sequence[int]]) -> Fraction:
    """Exact determinant of a square matrix of ints, as a Fraction; the empty
    matrix has determinant 1.

    Entries are ints, as ``pairing_matrix`` returns them; any other entry,
    a bool or a Fraction included, is a TypeError.  One pass checks the
    entries and keeps each row's nonzero ones by column.  Then, while some
    row has at most one nonzero entry, the determinant is expanded along it
    (Laplace): an empty row makes the determinant 0; otherwise the entry,
    signed by (-1)^(i+j) at row i and column j of the minor left so far,
    joins a running product, and its row and column leave the minor.
    Whatever is left is eliminated fraction-free (Bareiss, Math. Comp. 22,
    1968), each pivot row moved to the top: every division by the previous
    pivot is exact, and the last pivot, signed by the row moves, is the
    minor's determinant.

    A pairing matrix of R_g needs no elimination.  Its rows and columns are
    the square-free monomials l_a and l_b of complementary degrees; the
    socle coordinate of l_a l_b is +-1 if b is the complement of a, and 0
    unless b, as a strict partition, is dominated by that complement (the
    tests check both up to g = 10).  Rows ordered by their complements and
    columns by any order that extends dominance make the matrix triangular
    with +-1 on its diagonal, so the expansion takes every row.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant requires a square matrix")
    rows, short = [], []
    for i, row in enumerate(matrix):
        nonzero = {}
        for j, x in enumerate(row):
            if type(x) is not int:
                raise TypeError(f"determinant requires int entries, got {x!r}")
            if x:
                nonzero[j] = x
        rows.append(nonzero)
        if len(nonzero) < 2:
            short.append(i)
    live_rows, live_cols, product = [*range(n)], [*range(n)], 1
    while short:
        i = short.pop()
        if not rows[i]:
            return Fraction(0)
        ((j, x),) = rows[i].items()
        a, b = live_rows.index(i), live_cols.index(j)
        del live_rows[a], live_cols[b]
        product *= -x if (a + b) & 1 else x
        for k in live_rows:
            nonzero = rows[k]
            if j in nonzero:
                del nonzero[j]
                if len(nonzero) == 1:
                    short.append(k)
    if not live_rows:  # as for every pairing matrix
        return Fraction(product)
    m = [[matrix[i][j] for j in live_cols] for i in live_rows]
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
    return Fraction(sign * product * prev)


def build_ring(g: int) -> TautRing:
    """Construct the ring for genus g, at most :data:`MAX_RING_GENUS`."""
    _require_int("build_ring", "g", g, 1)
    if g > MAX_RING_GENUS:
        raise ValueError(f"ring construction is capped at genus {MAX_RING_GENUS}, got {g}")
    return TautRing(g)


class RingReport(_Record, fields="genus ok dims checks"):
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
