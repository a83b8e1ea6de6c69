"""Integrals over the Lagrangian Grassmannian by localization: a third route
to the socle ratios, pairings and normal forms of R_g.

R_g is the cohomology ring of LG(g, 2g), the Lagrangian subspaces of a
symplectic C^2g, with l_i the i-th Chern class of the rank-g tautological
quotient bundle E; the tangent bundle is Sym^2 E, and the socle class
l_1...l_g integrates to 1.  The torus (C*)^g acting on C^2g with weights
t_1, ..., t_g, -t_1, ..., -t_g fixes the 2^g coordinate Lagrangians, one for
each sign vector eps.  At the fixed point of eps, E has the weights
eps_i t_i and the tangent space the weights eps_i t_i + eps_j t_j, i <= j, so
the Atiyah-Bott formula (Topology 23, 1984) reads

    int f(l_1, ..., l_g) = sum_eps f(e_1(eps t), ..., e_g(eps t)) / prod_{i <= j} (eps_i t_i + eps_j t_j)

for f of degree N_g = g(g+1)/2, where e_k is the k-th elementary symmetric
function.  The sum is the same number for every t at which no tangent weight
vanishes; t_i = i is one, since i + j and i - j are nonzero for i < j.  The
arithmetic is exact: integers at each fixed point, summed over the lcm of
the tangent products, and one ``Fraction`` per integral.

Integrals give normal forms too.  The pairing P_d, with entries
int l_a l_b over the square-free l_a of degree d and l_b of degree N_g - d,
is invertible (Poincare duality), so the coordinates c of a polynomial m of
degree d in the square-free basis solve c . P_d = (int m l_b)_b; the
solve is exact Gaussian elimination in ``Fraction``s.  Nothing here comes
from the library: no ring, no normal form, no polynomial type; a monomial
is its exponent vector and a subset a strictly increasing tuple.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import lcm, prod
from operator import mul
from typing import Callable, Sequence


Subset = tuple[int, ...]


@lru_cache(maxsize=None)
def _fixed_points(g: int) -> tuple[list[tuple[tuple[int, ...], tuple[int, ...], int]], int]:
    """Per fixed point at t_i = i, the weights w of E, (e_1, ..., e_g) of
    them and the scale L / prod of the tangent weights; and L, the lcm of
    the tangent products over all points."""
    points, eulers = [], []
    for signs in product((1, -1), repeat=g):
        weights = tuple(s * i for i, s in enumerate(signs, start=1))
        # the coefficients of prod (1 + w x) are e_0, e_1, ..., e_g
        e = [1]
        for w in weights:
            e = [a + w * b for a, b in zip(e + [0], [0] + e)]
        points.append((weights, tuple(e[1:])))
        eulers.append(prod(weights[i] + weights[j] for i in range(g) for j in range(i, g)))
    common = lcm(*eulers)
    return [(w, e, common // euler) for (w, e), euler in zip(points, eulers)], common


def square_free(g: int, d: int) -> list[Subset]:
    """The subsets of 1..g whose elements sum to d, in increasing order."""
    return sorted(a for n in range(g + 1) for a in combinations(range(1, g + 1), n) if sum(a) == d)


@lru_cache(maxsize=None)
def _scaled_basis(g: int, d: int) -> list[list[int]]:
    """Per square-free l_b of degree d, its value at each fixed point times
    the point's scale."""
    points, _ = _fixed_points(g)
    return [[prod(e[i - 1] for i in b) * scale for _, e, scale in points] for b in square_free(g, d)]


def pairings(g: int, f: Callable[[tuple[int, ...], tuple[int, ...]], int], d: int) -> list[Fraction]:
    """The integrals of f l_b over LG(g, 2g), for the square-free l_b of
    degree d in the order of ``square_free``, where f is the class of
    degree N_g - d whose restriction to the fixed point of weights w, with
    e = (e_1, ..., e_g) of w, is the integer f(w, e): a polynomial in the
    weights, symmetric under their permutations."""
    points, common = _fixed_points(g)
    values = [f(w, e) for w, e, _ in points]
    return [Fraction(sum(map(mul, values, row)), common) for row in _scaled_basis(g, d)]


def _monomial(exponents: Sequence[int]) -> Callable[[tuple[int, ...], tuple[int, ...]], int]:
    """l_1^{e_1} ... l_g^{e_g} as a function of a fixed point."""
    return lambda w, e: prod(v**x for v, x in zip(e, exponents))


def _degree(g: int, exponents: Sequence[int]) -> int:
    """The weighted degree sum i e_i of a vector of g exponents."""
    if len(exponents) != g:
        raise ValueError(f"expected {g} exponents, got {tuple(exponents)!r}")
    return sum(i * x for i, x in enumerate(exponents, start=1))


def integral(g: int, exponents: Sequence[int]) -> Fraction:
    """The integral of l_1^{e_1} ... l_g^{e_g} over LG(g, 2g), for an
    exponent vector of weighted degree sum i e_i = N_g."""
    if _degree(g, exponents) != g * (g + 1) // 2:
        raise ValueError(f"expected {g} exponents of weighted degree {g * (g + 1) // 2}, got {tuple(exponents)!r}")
    return pairings(g, _monomial(exponents), 0)[0]


@lru_cache(maxsize=None)
def _inverse_pairing(g: int, d: int) -> list[list[Fraction]]:
    """The inverse of P_d, by Gauss-Jordan elimination on [P_d | 1]."""
    socle, left = g * (g + 1) // 2, square_free(g, d)
    n = len(left)
    rows = [pairings(g, _monomial([int(k in a) for k in range(1, g + 1)]), socle - d) for a in left]
    if any(len(row) != n for row in rows):
        raise ArithmeticError(f"degree {d} of genus {g}: the pairing is not square")
    rows = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            raise ArithmeticError(f"degree {d} of genus {g}: the pairing is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = [x / rows[col][col] for x in rows[col]]
        rows = [top if r == col else [x - row[col] * y for x, y in zip(row, top)] for r, row in enumerate(rows)]
    return [row[n:] for row in rows]


def normal_form(g: int, exponents: Sequence[int]) -> dict[Subset, Fraction]:
    """The nonzero coordinates of l_1^{e_1} ... l_g^{e_g} in the square-free
    basis of R_g, by subset; empty above the socle degree N_g."""
    d, socle = _degree(g, exponents), g * (g + 1) // 2
    if d > socle:
        return {}
    # c = (int m l_b)_b . P_d^{-1}
    m = pairings(g, _monomial(exponents), socle - d)
    coords = [sum(x * y for x, y in zip(m, column)) for column in zip(*_inverse_pairing(g, d))]
    return {a: c for a, c in zip(square_free(g, d), coords) if c}
