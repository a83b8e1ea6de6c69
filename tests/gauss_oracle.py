"""Reference determinant by Gaussian elimination over ``Fraction``.

``tautring.determinant`` expands an integer matrix along its rows with at
most one nonzero entry, then runs Bareiss's fraction-free elimination on
the minor that is left.  This module is an earlier body of it, unchanged:
a pivot search, row swaps and division by the pivot, all in ``Fraction``,
with no expansion.  It shares no code with the package, and tests compare
the two routes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def determinant(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant by Gaussian elimination; the empty matrix has determinant 1."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant requires a square matrix")
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return det
