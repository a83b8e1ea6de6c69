"""Record the reference multiplication tables that bench/oracle.py checks
normal forms against.

For each genus g in 1..8 and every square-free monomial l_a (a subset of
{1..g}, stored as a bit mask) and generator l_i with deg(l_a) + i at most
the socle degree, the table holds the normal form of l_a * l_i in the
square-free basis.  Every normal form of a polynomial follows from these
entries by linearity and associativity, so the benchmark can check random
queries for any seed without calling the code under test twice.

The tables were recorded from the commit that introduced the benchmark and
must not be regenerated from a later commit: they are the reference that
later versions are compared with.

    PYTHONPATH=src python3 bench/record_nf_tables.py
"""

from __future__ import annotations

import json
from pathlib import Path

from abtaut import build_ring

GENERA = range(1, 9)
OUT = Path(__file__).resolve().parent / "data" / "nf_tables.json"


def _mask(subset) -> int:
    return sum(1 << (i - 1) for i in subset)


def record(g: int) -> list:
    ring = build_ring(g)
    socle = ring.socle_degree
    rows = []
    for mask in range(1 << g):
        exps = [(mask >> j) & 1 for j in range(g)]
        degree = sum((j + 1) * e for j, e in enumerate(exps))
        for i in range(1, g + 1):
            if degree + i > socle:
                continue
            product = list(exps)
            product[i - 1] += 1
            nf = ring.normal_form(ring.ring.monomial(tuple(product)))
            terms = []
            for subset, c in sorted(nf.coordinates.items()):
                terms.append([_mask(subset), int(c) if c.denominator == 1 else str(c)])
            rows.append([mask, i, terms])
    return rows


def main() -> None:
    tables = {str(g): record(g) for g in GENERA}
    OUT.parent.mkdir(parents=True, exist_ok=True)
    with OUT.open("w") as fh:
        fh.write('{"format": "mask i -> normal form of l_mask * l_i", "rings": {\n')
        for n, (g, rows) in enumerate(tables.items()):
            fh.write(f'"{g}": [\n')
            fh.write(",\n".join(json.dumps(row, separators=(",", ":")) for row in rows))
            fh.write("\n]" + (",\n" if n + 1 < len(tables) else "\n"))
        fh.write("}}\n")


if __name__ == "__main__":
    main()
