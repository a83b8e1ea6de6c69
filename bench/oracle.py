"""Reference answers that share no code with abtaut.

* Bernoulli numbers come from the Akiyama-Tanigawa algorithm, a different
  route from the recurrence the package uses; zeta(1-2g) and the boundary
  constant are derived from them.
* Ring dimensions are subset-sum counts, and the socle ratio of l1^N is the
  degree of the Lagrangian Grassmannian LG(g, 2g).
* Normal forms of arbitrary polynomials follow, by linearity and
  associativity, from the recorded tables in data/nf_tables.json (see
  record_nf_tables.py).

Ring elements are dicts from bit masks (bit i-1 set for l_i) to Fractions.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import factorial
from pathlib import Path

TABLES = Path(__file__).resolve().parent / "data" / "nf_tables.json"


class Bernoulli:
    """B_n with B_1 = -1/2, extended incrementally by Akiyama-Tanigawa."""

    def __init__(self):
        self._row: list[Fraction] = []
        self._values: list[Fraction] = []

    def __call__(self, n: int) -> Fraction:
        row = self._row
        while len(self._values) <= n:
            m = len(self._values)
            row.append(Fraction(1, m + 1))
            for j in range(m, 0, -1):
                row[j - 1] = j * (row[j - 1] - row[j])
            self._values.append(row[0])
        # the algorithm yields the B_1 = +1/2 convention
        return -self._values[1] if n == 1 else self._values[n]

    def zeta(self, g: int) -> Fraction:
        """zeta(1 - 2g) = -B_{2g} / 2g."""
        return -self(2 * g) / (2 * g)

    def constant(self, g: int) -> Fraction:
        """(-1)^g zeta(1 - 2g)."""
        return (-1) ** g * self.zeta(g)


def socle_degree(g: int) -> int:
    return g * (g + 1) // 2


def mask_degree(mask: int) -> int:
    return sum(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def subset_masks(g: int, d: int) -> list[int]:
    """Square-free monomials of degree d, in ascending lex order of their
    exponent vectors (the order the package lists its basis in)."""
    masks = [m for m in range(1 << g) if mask_degree(m) == d]
    return sorted(masks, key=lambda m: [(m >> j) & 1 for j in range(g)])


def dimensions(g: int) -> list[int]:
    """dim R_g in degree d = number of subsets of {1..g} with sum d."""
    counts = [0] * (socle_degree(g) + 1)
    for m in range(1 << g):
        counts[mask_degree(m)] += 1
    return counts


def lg_degree(g: int) -> int:
    """deg LG(g, 2g) = N! 2^{g(g-1)/2} prod_{i<=g} (i-1)!/(2i-1)!, N = g(g+1)/2."""
    value = Fraction(factorial(socle_degree(g)) * 2 ** (g * (g - 1) // 2))
    for i in range(1, g + 1):
        value *= Fraction(factorial(i - 1), factorial(2 * i - 1))
    return int(value)


def determinant(matrix: list[list[Fraction]]) -> Fraction:
    """Fraction-free Bareiss elimination (not the package's Gaussian route)."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    sign, prev = 1, Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return Fraction(0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else Fraction(1)


def load_tables() -> dict[int, dict[tuple[int, int], dict[int, Fraction]]]:
    with TABLES.open() as fh:
        raw = json.load(fh)["rings"]
    return {
        int(g): {(mask, i): {m: Fraction(c) for m, c in terms} for mask, i, terms in rows}
        for g, rows in raw.items()
    }


class RingOracle:
    """Normal forms in R_g from the recorded products l_mask * l_i."""

    def __init__(self, g: int, table: dict[tuple[int, int], dict[int, Fraction]]):
        self.g = g
        self.socle = socle_degree(g)
        self.full = (1 << g) - 1
        self._table = table
        self._memo: dict[tuple[int, ...], dict[int, Fraction]] = {(0,) * g: {0: Fraction(1)}}

    def degree(self, exps: tuple[int, ...]) -> int:
        return sum((i + 1) * e for i, e in enumerate(exps))

    def monomial(self, exps: tuple[int, ...]) -> dict[int, Fraction]:
        if exps in self._memo:
            return self._memo[exps]
        if self.degree(exps) > self.socle:
            return {}
        i = max(j for j, e in enumerate(exps) if e)
        prev = list(exps)
        prev[i] -= 1
        out: dict[int, Fraction] = {}
        for mask, c in self.monomial(tuple(prev)).items():
            for m, r in self._table[(mask, i + 1)].items():
                out[m] = out.get(m, 0) + c * r
        out = {m: c for m, c in out.items() if c}
        self._memo[exps] = out
        return out

    def normal_form(self, terms: dict[tuple[int, ...], Fraction]) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for exps, c in terms.items():
            for m, r in self.monomial(exps).items():
                out[m] = out.get(m, 0) + c * r
        return {m: c for m, c in out.items() if c}

    def product(self, a: dict, b: dict) -> dict[tuple[int, ...], Fraction]:
        out: dict[tuple[int, ...], Fraction] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        return {e: c for e, c in out.items() if c}

    def pairing_entry(self, a: int, b: int) -> Fraction:
        exps = tuple(((a >> j) & 1) + ((b >> j) & 1) for j in range(self.g))
        return self.monomial(exps).get(self.full, Fraction(0))


_TERM_SPLIT = re.compile(r" ([+-]) ")


def parse_element(text: str, g: int) -> dict[int, Fraction]:
    """Parse the package's printed normal form (``16*l1*l2*l3``, ``-3/2*l2 + l1``)."""
    text = text.strip()
    if text == "0":
        return {}
    parts = _TERM_SPLIT.split(text)
    signs = ["+"] + parts[1::2]
    out: dict[int, Fraction] = {}
    for sign, body in zip(signs, parts[0::2]):
        negative = sign == "-"
        if body.startswith("-"):
            negative, body = not negative, body[1:]
        coeff, mask = Fraction(1), 0
        for factor in body.split("*"):
            if factor.startswith("l"):
                i = int(factor[1:])
                if not 1 <= i <= g or mask >> (i - 1) & 1:
                    raise ValueError(f"not a square-free basis term: {body!r}")
                mask |= 1 << (i - 1)
            else:
                coeff *= Fraction(factor)
        if mask in out:
            raise ValueError(f"repeated basis term in {text!r}")
        out[mask] = -coeff if negative else coeff
    return out
