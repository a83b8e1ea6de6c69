"""Integrals over the Lagrangian Grassmannian by localization: a third route
to the socle ratios of R_g.

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
arithmetic is exact: integers at each fixed point, one ``Fraction`` per
point.  Nothing here comes from the library: no ring, no normal form, no
polynomial type; a monomial is its exponent vector.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import prod
from typing import Sequence


@lru_cache(maxsize=None)
def _fixed_points(g: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Per fixed point, (e_1, ..., e_g) of the weights of E and the product
    of the tangent weights, at t_i = i."""
    points = []
    for signs in product((1, -1), repeat=g):
        weights = [s * i for i, s in enumerate(signs, start=1)]
        # the coefficients of prod (1 + w x) are e_0, e_1, ..., e_g
        e = [1]
        for w in weights:
            e = [a + w * b for a, b in zip(e + [0], [0] + e)]
        euler = prod(weights[i] + weights[j] for i in range(g) for j in range(i, g))
        points.append((tuple(e[1:]), euler))
    return tuple(points)


def integral(g: int, exponents: Sequence[int]) -> Fraction:
    """The integral of l_1^{e_1} ... l_g^{e_g} over LG(g, 2g), for an
    exponent vector of weighted degree sum i e_i = N_g."""
    if len(exponents) != g or sum(i * e for i, e in enumerate(exponents, start=1)) != g * (g + 1) // 2:
        raise ValueError(f"expected {g} exponents of weighted degree {g * (g + 1) // 2}, got {tuple(exponents)!r}")
    return sum((Fraction(prod(v**e for v, e in zip(values, exponents)), euler) for values, euler in _fixed_points(g)), Fraction(0))
