"""Time, in one fresh process, the calls that acceptance criteria 1-7 make
for the benchmark to report beside each budget (common.ACCEPTANCE_BUDGET_MS).
This is a report: a budget overrun is printed, never gated.  A wrong value
is a failed check.

    PYTHONPATH=src python3 bench/acceptance.py

Prints one JSON object: {"c1_ms": ..., ..., "failed": [criterion numbers]}.
"""

import contextlib
import io
import json
import time
from fractions import Fraction
from math import factorial

from abtaut import (
    bernoulli,
    borel_serre_check,
    boundary_constant,
    build_ring,
    consistency_report,
    determinant,
    grr_coefficient,
    leading_stratum_constants,
    named_series,
    p_rank_constant,
    pushforward,
    recursion_check,
    stratum_constant,
    sum_powers_quotient,
    zeta_negative_odd,
)
from abtaut.cli import main

from oracle import Bernoulli, lg_degree

def c1():
    out = []
    for g in (1, 2, 3):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(["constant", "--g", str(g)])
        out.append((code, json.loads(buffer.getvalue())["payload"]["value"]))
    return out


def check_c1(out, ref):
    return out == [(0, str(ref.constant(g))) for g in (1, 2, 3)]


def c2():
    rows = []
    for g in range(1, 21):
        low = [pushforward(g, sum_powers_quotient(k)).delta_coefficient for k in range(1, g)]
        matched = sum_powers_quotient(g).poly
        t_terms = [
            pushforward(g, matched.ring.monomial(e, c)).delta_coefficient for e, c in matched.terms.items() if e[1] >= 1
        ]
        q = grr_coefficient(g)
        rows.append((low, t_terms, matched.coefficient((2 * g - 2, 0)), q, boundary_constant(g), q == zeta_negative_odd(g)))
    return rows


def check_c2(rows, ref):
    return all(
        not any(low) and not any(t) and pure == 2 * g - 1 and abs(q) == ref.constant(g) == const and is_zeta == (q == ref.zeta(g))
        for g, (low, t, pure, q, const, is_zeta) in enumerate(rows, start=1)
    )


def c3():
    out = []
    for g in range(1, 7):
        ring = build_ring(g)
        product = ring.ring.one
        for part in ring.relation_components.values():
            product = product + part
        out.append(
            (
                ring.dimension_profile(),
                ring.socle_degree,
                bool(ring.normal_form(ring.ring.gen(g - 1) ** 2)),
                ring.normal_form(product) == ring.normal_form(ring.ring.one),
                [determinant(ring.pairing_matrix(d)) != 0 for d in range(ring.socle_degree + 1)],
            )
        )
    return out


def check_c3(out, ref):
    return all(
        sum(dims) == 2 ** g and dims == dims[::-1] and dims[-1] == 1 and socle == g * (g + 1) // 2
        and not top_sq and relation and all(nonsingular)
        for g, (dims, socle, top_sq, relation, nonsingular) in enumerate(out, start=1)
    )


def c4():
    r2, r3, r4 = build_ring(2), build_ring(3), build_ring(4)
    return (
        str(r2.normal_form(r2.ring.parse("l1^2"))),
        r2.socle_ratio(r2.ring.parse("l1^3")),
        r3.socle_ratio(r3.ring.parse("l1^6")),
        r4.socle_ratio(r4.ring.parse("l4*l3*l1^3")),
    )


def check_c4(out, ref):
    return out == ("2*l2", lg_degree(2), lg_degree(3), 2)


def c5():
    return [borel_serre_check(g).ok for g in range(1, 6)]


def check_c5(out, ref):
    return all(out)


def c6():
    series = named_series("todd_dual_gen", 20)
    return [(series[k], bernoulli(k) / factorial(k)) for k in range(21)]


def check_c6(out, ref):
    return out == [(ref(k) / factorial(k), ref(k) / factorial(k)) for k in range(21)]


def c7():
    prank = [[p_rank_constant(g, p) for g in range(1, 11)] for p in (2, 3, 5)]
    lead2 = tuple(c.coefficient for c in leading_stratum_constants(2))
    second = [stratum_constant(g, 2).coefficient == leading_stratum_constants(g)[1].coefficient for g in range(2, 13)]
    recursion = [recursion_check(g).ok for g in range(1, 13)]
    first = []
    for g in range(2, 13):
        comparison = {c.stratum_index: c for c in consistency_report(g).comparisons}[1]
        first.append((comparison.equal, comparison.factor))
    return prank, lead2, second, recursion, first


def check_c7(out, ref):
    prank, lead2, second, recursion, first = out
    expected_prank = []
    for p in (2, 3, 5):
        row, value = [], 1
        for g in range(1, 11):
            value *= p ** g - 1
            row.append(value)
        expected_prank.append(row)
    expected_first = [(True, Fraction(1)) if g % 2 else (False, Fraction(-1)) for g in range(2, 13)]
    return (
        prank == expected_prank
        and lead2 == (1 / ref.zeta(2), 1 / (ref.zeta(2) * ref.zeta(1)))
        and all(second)
        and all(recursion)
        and first == expected_first
    )


def main_report() -> dict:
    criteria = [(c1, check_c1), (c2, check_c2), (c3, check_c3), (c4, check_c4), (c5, check_c5), (c6, check_c6), (c7, check_c7)]
    timings, results = {}, []
    for n, (call, _check) in enumerate(criteria, start=1):
        started = time.perf_counter()
        results.append(call())
        timings[f"c{n}_ms"] = (time.perf_counter() - started) * 1000.0
    ref = Bernoulli()
    failed = [n for n, ((_call, check), out) in enumerate(zip(criteria, results), start=1) if not check(out, ref)]
    return {**timings, "failed": failed}


if __name__ == "__main__":
    print(json.dumps(main_report()))
