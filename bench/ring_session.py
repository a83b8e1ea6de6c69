"""ring_session: one long-lived library process querying R_g for g = 4..8.

Set-up imports abtaut and builds every ring; it is repeated and the median
reported, so work moved from construction into queries (or back) shows.
The timed part is rounds of 50 queries with a fixed mix per round: for each
genus 4 normal forms of random polynomials, 3 normal forms of products, 2
socle ratios (one l1^N when the round is even) and 1 pairing matrix with
its determinant.  Only the library calls are timed; building inputs and
checking answers happen outside the timer.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction

import oracle
from cli_workloads import random_monomial, random_polynomial
from common import (
    SRC,
    CheckError,
    Result,
    Speed,
    acceptance_report,
    child_env,
    latency_metrics,
    median_wall_ms,
    overhead,
)
from tracing import GENERA, Tracer, install, per_layer

SETUP_REPLICAS = 3
MIX = [("nf", 4), ("product", 3), ("socle", 2), ("pairing", 1)]


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def make_round(rng: random.Random, index: int) -> list[tuple]:
    queries = []
    for g in GENERA:
        socle = oracle.socle_degree(g)
        for kind, count in MIX:
            for n in range(count):
                if kind == "nf":
                    queries.append((kind, g, random_polynomial(rng, g, rng.randint(1, 8))))
                elif kind == "product":
                    a = random_polynomial(rng, g, rng.randint(1, 8))
                    queries.append((kind, g, (a, random_polynomial(rng, g, rng.randint(1, 8)))))
                elif kind == "socle":
                    if n == 0 and index % 2 == 0:
                        exps = (socle,) + (0,) * (g - 1)
                    else:
                        exps = random_monomial(rng, g, socle)
                    queries.append((kind, g, {exps: Fraction(rng.randint(1, 9))}))
                else:
                    queries.append((kind, g, rng.randint(0, socle)))
    rng.shuffle(queries)
    return queries


def _masks(element) -> dict[int, Fraction]:
    return {sum(1 << (i - 1) for i in subset): c for subset, c in element.coordinates.items()}


class Session:
    def __init__(self, result: Result, tables: dict):
        from abtaut import determinant

        self.determinant = determinant
        self.result = result
        self.oracles = {g: oracle.RingOracle(g, tables[g]) for g in GENERA}
        self.times: list[float] = []
        self.rounds: list[int] = []  # round of each query
        self.speed = Speed("compute")
        self.speed.sample(2)

    def run_round(self, rings: dict, queries: list[tuple], tracer: Tracer | None = None) -> None:
        perf = time.perf_counter
        answers = []
        for kind, g, arg in queries:
            ring = rings[g]
            if tracer is not None:
                tracer.request = len(self.times)
            if kind == "pairing":
                started = perf()
                matrix = ring.pairing_matrix(arg)
                answer = (matrix, self.determinant(matrix))
            elif kind == "product":
                a, b = ring.ring.from_terms(arg[0]), ring.ring.from_terms(arg[1])
                started = perf()
                answer = ring.normal_form(a * b)
            else:
                p = ring.ring.from_terms(arg)
                started = perf()
                answer = ring.socle_ratio(p) if kind == "socle" else ring.normal_form(p)
            self.times.append(perf() - started)
            answers.append(answer)
        self.speed.sample(2)
        self.rounds.extend([len(self.speed.groups) - 2] * len(queries))
        for (kind, g, arg), answer in zip(queries, answers):
            error = None
            try:
                self.check(kind, g, arg, answer)
            except CheckError as exc:
                error = exc
            self.result.record(f"{kind} g={g}", error)

    def scaled_times(self) -> list[float]:
        """Query times at nominal speed, each scaled by the samples taken
        just before and just after its round (see Speed)."""
        factors = self.speed.op_factors(1, 1)
        return [t * factors[r] for t, r in zip(self.times, self.rounds)]

    def check(self, kind: str, g: int, arg, answer) -> None:
        ref = self.oracles[g]
        if kind == "nf":
            _expect(_masks(answer) == ref.normal_form(arg), "normal form differs from the reference")
        elif kind == "product":
            _expect(_masks(answer) == ref.normal_form(ref.product(*arg)), "product normal form differs from the reference")
        elif kind == "socle":
            expected = ref.normal_form(arg).get(ref.full, Fraction(0))
            _expect(answer == expected, f"socle ratio {answer} != {expected}")
            (exps, c), = arg.items()
            if exps[0] == ref.socle:
                _expect(answer == c * oracle.lg_degree(g), f"socle ratio of l1^N is {answer / c}, deg LG(g,2g) is {oracle.lg_degree(g)}")
        else:
            matrix, det = answer
            left, right = oracle.subset_masks(g, arg), oracle.subset_masks(g, ref.socle - arg)
            expected = [[ref.pairing_entry(a, b) for b in right] for a in left]
            _expect(matrix == expected, f"pairing matrix in degree {arg}")
            _expect(det != 0 and det == oracle.determinant(expected), f"determinant {det}")


def interpreter_floor_ms(env: dict) -> float:
    """Bare interpreter start and exit (``python -c pass``), median of 5."""
    floor = Speed("floor", env)
    floor.sample(5)
    return floor.median_s() * 1000.0


def build_rings() -> tuple[float, dict]:
    """One set-up replica: seconds to build every ring, and the rings."""
    from abtaut import build_ring

    gc.collect()
    started = time.perf_counter()
    rings = {g: build_ring(g) for g in GENERA}
    return time.perf_counter() - started, rings


def run_workload(seed: int, seconds: int, trace: bool, result: Result) -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import abtaut  # noqa: F401  (timed: part of set-up)

    import_s = time.perf_counter() - started
    rng = random.Random(f"ring_session:{seed}")
    env = child_env()
    if not trace:
        builds = []
        rings = None
        for _ in range(SETUP_REPLICAS):
            rings = None  # free the previous replica before building the next
            elapsed, rings = build_rings()
            builds.append(elapsed)
        result.detail["interpreter_floor_ms"] = interpreter_floor_ms(env)
        session = Session(result, oracle.load_tables())
        started = time.perf_counter()
        index = 0
        while time.perf_counter() - started < seconds:
            session.run_round(rings, make_round(rng, index))
            index += 1
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result.metrics = {
            "setup_s": import_s + statistics.median(builds),
            "peak_rss_mb": rss_kb / 1024.0,
            **latency_metrics(session.scaled_times()),
        }
        raw = latency_metrics(session.times)
        result.detail.update(
            {
                "ring_query_p50_us": raw["op_p50_ms"] * 1000.0,
                "ring_query_p90_us": raw["op_p90_ms"] * 1000.0,
                "ring_queries_per_s": raw["ops_per_s"],
                "build_s": builds,
                "speed_factor": session.speed.factor(),
                "queries": len(session.times),
            }
        )
        return
    # traced run: a fixed, seed-determined query list, first untraced then
    # traced, so the counts repeat exactly and the overhead compares like
    # with like
    work = [make_round(rng, index) for index in range(2 * seconds)]
    tables = oracle.load_tables()
    plain_build, rings = build_rings()
    plain = Session(result, tables)
    for queries in work:
        plain.run_round(rings, queries)
    rings = None
    tracer = Tracer()
    install(tracer)
    traced_build, rings = build_rings()
    traced = Session(result, tables)
    for queries in work:
        traced.run_round(rings, queries, tracer)
    floor = interpreter_floor_ms(env)
    result.detail["interpreter_floor_ms"] = floor
    result.metrics = {
        "cli.interp_floor_ms": floor,
        "cli.import_ms": median_wall_ms(["-c", "import abtaut.cli"], env, 5) - floor,
        **per_layer(tracer.spans, Counter({**tracer.counters, **tracer.cache_counters()})),
        **overhead(traced.scaled_times(), plain.scaled_times()),
        "trace.spans": len(tracer.spans),
        **acceptance_report(env, result),
    }
    result.detail["trace.overhead_setup"] = traced_build / plain_build
    result.detail["queries"] = sum(len(q) for q in work)
