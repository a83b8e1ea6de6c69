"""Print what the queries of R_g cost, on a cold ring and on a warm one.

For each genus 4..8 the script draws, from a fixed seed, N queries of each
kind:

* ``nf``: the normal form of a random polynomial of 1 to 8 terms;
* ``product``: the normal form of the product of two such polynomials,
  the product included;
* ``socle``: the socle ratio of a random monomial of the socle degree;
* ``pairing+det``: the pairing matrix of a random degree and its
  determinant.

The queries of all kinds are shuffled together and run once on a fresh
ring, whose memo they fill (cold), then three more times in the same order
(warm).  Each row is the median time of one query in microseconds; a warm
query is timed by the median of its three runs.  Only the library calls are
timed: the operands are built before the timer starts.

Two more kinds time ``determinant`` alone, warm, by the median of three
runs: ``det all K``, per genus, the total over the K pairing matrices of
R_g, one per degree; and ``det 14x14``, once after the genera, one dense
14 x 14 matrix of entries in -9..9 from a fixed seed, the median over
20 such matrices.  Run from the repository root::

    python tests/query_cost.py [N]

N defaults to 40.  The script only reports; it never fails on a time.
"""

from __future__ import annotations

import platform
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from abtaut import TautRing, determinant  # noqa: E402

GENERA = range(4, 9)
KINDS = ("nf", "product", "socle", "pairing+det")
WARM_RUNS = 3
DENSE_SIZE, DENSE_COUNT = 14, 20


def _polynomial(rng: random.Random, g: int, terms: int) -> dict:
    """Up to ``terms`` random monomials, each of a random degree up to the
    socle degree, with small random coefficients."""
    top, poly = g * (g + 1) // 2, {}
    for _ in range(terms):
        exps, remaining = [0] * g, rng.randint(0, top)
        for i in rng.sample(range(1, g + 1), g):
            exps[i - 1] = e = rng.randint(0, remaining // i)
            remaining -= e * i
        poly[tuple(exps)] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice([1, 1, 2, 3]))
    return poly


def _socle_monomial(rng: random.Random, g: int) -> dict:
    exps, remaining = [0] * g, g * (g + 1) // 2
    while remaining:
        k = rng.randint(1, min(g, remaining))
        exps[k - 1] += 1
        remaining -= k
    return {tuple(exps): Fraction(rng.randint(1, 9))}


def _queries(rng: random.Random, g: int, n: int) -> list[tuple]:
    queries = []
    for _ in range(n):
        queries.append(("nf", _polynomial(rng, g, rng.randint(1, 8))))
        queries.append(("product", (_polynomial(rng, g, rng.randint(1, 8)), _polynomial(rng, g, rng.randint(1, 8)))))
        queries.append(("socle", _socle_monomial(rng, g)))
        queries.append(("pairing+det", rng.randint(0, g * (g + 1) // 2)))
    rng.shuffle(queries)
    return queries


def _timed(r: TautRing, kind: str, arg) -> float:
    """Seconds for one query, its operands built before the timer."""
    perf = time.perf_counter
    if kind == "pairing+det":
        started = perf()
        determinant(r.pairing_matrix(arg))
    elif kind == "product":
        a, b = r.ring.from_terms(arg[0]), r.ring.from_terms(arg[1])
        started = perf()
        r.normal_form(a * b)
    else:
        p = r.ring.from_terms(arg)
        started = perf()
        r.socle_ratio(p) if kind == "socle" else r.normal_form(p)
    return perf() - started


def _warm_determinants(matrices: list) -> float:
    """Median seconds, over the warm runs, of the determinants of all of
    ``matrices`` one after another."""
    perf, runs = time.perf_counter, []
    for _ in range(WARM_RUNS):
        started = perf()
        for m in matrices:
            determinant(m)
        runs.append(perf() - started)
    return statistics.median(runs)


def main(argv: list[str]) -> None:
    n = int(argv[0]) if argv else 40
    rng = random.Random("query_cost")
    print(f"python {platform.python_version()}, {n} queries per kind and genus, {WARM_RUNS} warm runs each")
    print(" g  kind         cold us  warm us")
    for g in GENERA:
        queries = _queries(rng, g, n)
        r = TautRing(g)
        cold = [_timed(r, kind, arg) for kind, arg in queries]
        runs = [[_timed(r, kind, arg) for kind, arg in queries] for _ in range(WARM_RUNS)]
        warm = [statistics.median(times) for times in zip(*runs)]
        for kind in KINDS:
            picked = [i for i, (k, _) in enumerate(queries) if k == kind]
            c, w = (statistics.median(times[i] for i in picked) * 1e6 for times in (cold, warm))
            print(f"{g:2d}  {kind:11s} {c:8.1f} {w:8.1f}")
        pairings = [r.pairing_matrix(d) for d in range(r.socle_degree + 1)]
        print(f"{g:2d}  {f'det all {len(pairings)}':11s} {'-':>8s} {_warm_determinants(pairings) * 1e6:8.1f}")
    dense = random.Random("query_cost dense")
    matrices = [[[dense.randint(-9, 9) for _ in range(DENSE_SIZE)] for _ in range(DENSE_SIZE)] for _ in range(DENSE_COUNT)]
    w = statistics.median(_warm_determinants([m]) for m in matrices)
    print(f" -  {f'det {DENSE_SIZE}x{DENSE_SIZE}':11s} {'-':>8s} {w * 1e6:8.1f}")


if __name__ == "__main__":
    main(sys.argv[1:])
