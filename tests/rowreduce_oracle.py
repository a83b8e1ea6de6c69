"""Reference normal forms for R_g by exact row reduction, degree by degree.

A second route to the normal forms that ``TautRing`` computes by the Gröbner
rewrite; it shares no reduction code with the package.  It row-reduces the
degree-d slice of the ideal, checks that the square-free monomials form a
basis of the quotient, and reads every normal form off the back-substituted
pivot rows.  Tests compare the package's normal forms with
:func:`reduce_maps` monomial by monomial.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence

Exponents = tuple[int, ...]
Subset = tuple[int, ...]
IntRow = dict[Exponents, int]


class BasisError(RuntimeError):
    """The square-free monomials are not a basis of a degree slice of the quotient."""


def _subset_of(exps: Exponents) -> Subset:
    return tuple(i + 1 for i, e in enumerate(exps) if e)


def _as_int_row(row: Mapping[Exponents, object]) -> IntRow:
    """Clear denominators and divide out the integer content."""
    denominator = 1
    for c in row.values():
        c = Fraction(c)
        denominator = denominator * c.denominator // gcd(denominator, c.denominator)
    out = {e: int(Fraction(c) * denominator) for e, c in row.items() if c}
    return _primitive(out)


def _primitive(row: IntRow) -> IntRow:
    content = 0
    for v in row.values():
        content = gcd(content, v)
        if content == 1:
            return row
    if content > 1:
        for e in row:
            row[e] //= content
    return row


def _eliminate(row: IntRow, pivots: dict[Exponents, IntRow]) -> None:
    """Eliminate every pivot monomial from ``row`` in place (fraction-free).

    Pivot rows are kept fully back-substituted, so each elimination only
    introduces non-pivot monomials and a single pass suffices.
    """
    for m in [m for m in row if m in pivots]:
        c = row.get(m, 0)
        if not c:
            continue
        q = pivots[m]
        qp = q[m]
        common = gcd(c, qp)
        scale, factor = qp // common, c // common
        if scale != 1:
            for e in row:
                row[e] *= scale
        for e, v in q.items():
            w = row.get(e, 0) - factor * v
            if w:
                row[e] = w
            elif e in row:
                del row[e]


def reduce_degree(
    monomials: Sequence[Exponents],
    square_free: Sequence[Exponents],
    rows: Sequence[Mapping[Exponents, object]],
    degree: int,
) -> dict[Exponents, IntRow]:
    """Row-reduce the span of ``rows`` and verify that ``square_free`` is a
    basis of the quotient.

    Returns the pivot rows in fully back-substituted echelon form, keyed by
    their (non-square-free) pivot monomial; each row is a primitive integer
    vector whose pivot entry is positive.
    """
    sf_set = set(square_free)
    pivots: dict[Exponents, IntRow] = {}
    # column -> pivot keys whose rows carry that column (off the diagonal),
    # so back-substitution touches only the rows it changes
    containing: dict[Exponents, set[Exponents]] = {}
    for row in rows:
        row = dict(row) if all(isinstance(v, int) for v in row.values()) else _as_int_row(row)
        _eliminate(row, pivots)
        if not row:
            continue
        row = _primitive(row)
        candidates = [m for m in row if m not in sf_set]
        if not candidates:
            raise BasisError(
                f"degree {degree}: a relation collapses onto the square-free monomials; "
                "the designated basis is dependent"
            )
        pivot = max(candidates)
        if row[pivot] < 0:
            for e in row:
                row[e] = -row[e]
        np = row[pivot]
        for key in list(containing.get(pivot, ())):
            other = pivots[key]
            c = other[pivot]
            common = gcd(c, np)
            scale, factor = np // common, c // common
            if scale != 1:
                for e in other:
                    other[e] *= scale
            for e, v in row.items():
                w = other.get(e, 0) - factor * v
                if w:
                    if e not in other:
                        containing.setdefault(e, set()).add(key)
                    other[e] = w
                elif e in other:
                    del other[e]
                    containing[e].discard(key)
            _primitive(other)
        pivots[pivot] = row
        for e in row:
            if e != pivot:
                containing.setdefault(e, set()).add(pivot)
    for m in monomials:
        if m not in sf_set and m not in pivots:
            raise BasisError(
                f"degree {degree}: monomial with exponents {m} does not reduce to the "
                "square-free basis; the designated basis does not span"
            )
    return pivots


def monomials_by_degree(weights: Sequence[int], top: int) -> list[list[Exponents]]:
    """Every exponent vector of weighted degree d, in ascending lex order,
    for d = 0..top.  Degree d raises one exponent i of each vector of degree
    d - w_i, which is listed already."""
    levels = [[(0,) * len(weights)]]
    for d in range(1, top + 1):
        raised = {m[:i] + (m[i] + 1,) + m[i + 1 :] for i, w in enumerate(weights) if w <= d for m in levels[d - w]}
        levels.append(sorted(raised))
    return levels


def reduce_maps(ring) -> list[dict[Exponents, dict[Subset, Fraction]]]:
    """Per degree 0..socle, every monomial of ``ring`` (a ``TautRing``) mapped
    to its square-free coordinates, by row reduction of the ideal slices."""
    g = ring.genus
    # The degree-d slice of the ideal is spanned by the monomial multiples
    # m * rel_{2k} with deg m = d - 2k, which equals the span of
    # {l_i * v : v in the degree-(d-i) slice} together with rel_d itself.
    # Multiplying the already-reduced pivot rows keeps incoming rows close
    # to reduced echelon form.
    ideal_rows: list[list[IntRow]] = []
    maps: list[dict[Exponents, dict[Subset, Fraction]]] = []
    for d, monomials in enumerate(monomials_by_degree(ring.ring.weights, ring.socle_degree)):
        square_free = [m for m in monomials if all(e <= 1 for e in m)]
        rows: list[IntRow] = []
        for i in range(1, g + 1):
            if d - i < 2:
                continue
            for row in ideal_rows[d - i]:
                rows.append({tuple(e + (1 if j == i - 1 else 0) for j, e in enumerate(m)): c for m, c in row.items()})
        if d % 2 == 0 and 2 <= d <= 2 * g:
            rows.append(dict(ring.relation_components[d].terms))
        pivots = reduce_degree(monomials, square_free, rows, d)
        reduce_map: dict[Exponents, dict[Subset, Fraction]] = {}
        for m in square_free:
            reduce_map[m] = {_subset_of(m): Fraction(1)}
        for pivot, row in pivots.items():
            lead = row[pivot]
            reduce_map[pivot] = {_subset_of(e): Fraction(-c, lead) for e, c in row.items() if e != pivot}
        maps.append(reduce_map)
        ideal_rows.append([pivots[k] for k in sorted(pivots)])
    return maps
