"""Fresh-process workloads: ``python -m abtaut.cli`` once per request.

cli_interactive is a closed loop of short requests from one client; each
round of 20 has a fixed mix of kinds (the seed draws their order and
parameters), so every seed exercises the same paths in the same
proportions.  batch_sweep repeats three heavy jobs, each from cold memo
tables, in a seeded order.
"""

from __future__ import annotations

import json
import random
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle
from common import (
    BENCH,
    RUN_DIR,
    CheckError,
    Result,
    acceptance_report,
    bytecode_warmup_s,
    child_env,
    latency_metrics,
    median_wall_ms,
    overhead,
    run_python,
    Speed,
)
from tracing import per_layer


@dataclass
class Request:
    kind: str
    argv: list[str]
    check: Callable  # (returncode, stdout, stderr) -> None, raises CheckError
    known_defect: Callable | None = None  # (returncode, stderr) -> bool


class References:
    """Lazily built reference answers, computed outside every timed region."""

    def __init__(self):
        self.bernoulli = oracle.Bernoulli()
        self._tables = None
        self._rings: dict[int, oracle.RingOracle] = {}

    def ring(self, g: int) -> oracle.RingOracle:
        if g not in self._rings:
            if self._tables is None:
                self._tables = oracle.load_tables()
            self._rings[g] = oracle.RingOracle(g, self._tables[g])
        return self._rings[g]


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _envelopes(code: int, out: str, err: str, command: str) -> list[dict]:
    _expect(code == 0, f"exit {code}: {err.strip()[-200:]}")
    lines = err.splitlines()
    _expect(len(lines) == 1 and lines[0].startswith("elapsed_ms="), f"stderr {err!r}")
    envs = [json.loads(line) for line in out.splitlines()]
    _expect(bool(envs) and all(e["command"] == command for e in envs), f"envelopes {out[:200]!r}")
    return envs


def _single(code, out, err, command) -> dict:
    envs = _envelopes(code, out, err, command)
    _expect(len(envs) == 1 and envs[0]["status"] == "info", f"envelopes {out[:200]!r}")
    return envs[0]["payload"]


def usage_error(code: int, out: str, err: str) -> None:
    _expect(code == 2, f"exit {code}, expected 2")
    _expect(out == "", f"stdout {out[:100]!r}")
    _expect(len(err.splitlines()) == 1, f"{len(err.splitlines())} stderr lines, expected 1")


# -- request kinds ----------------------------------------------------------


def scalar_request(ref: References, command: str, flag: str, k: int) -> Request:
    value = {"constant": ref.bernoulli.constant, "zeta": ref.bernoulli.zeta, "bernoulli": ref.bernoulli}[command]

    def check(code, out, err):
        payload = _single(code, out, err, command)
        _expect(payload == {flag: k, "value": str(value(k))}, f"{payload}")

    return Request(command, [command, f"--{flag}", str(k)], check)


def satake_request(ref: References, g: int, i: int | None, p: int | None) -> Request:
    argv = ["satake", "--g", str(g)]
    argv += ["--i", str(i)] if i is not None else []
    argv += ["--p", str(p)] if p is not None else []

    def check(code, out, err):
        envs = _envelopes(code, out, err, "satake")
        rows = []
        for idx in range(g + 1) if i is None else [i]:
            coefficient = Fraction((-1) ** idx)
            for j in range(1, idx + 1):
                coefficient /= ref.bernoulli.zeta(g - j + 1)
            matches = None
            if idx == 1:
                matches = g % 2 == 1
            elif idx == 2 and g >= 2:
                matches = True
            label = list(range(g - idx + 1, g + 1))
            rows.append({"g": g, "i": idx, "coefficient": str(coefficient), "label": label, "matches_thm34": matches})
        if p is not None:
            value = 1
            for j in range(1, g + 1):
                value *= p ** j - 1
            rows.append({"g": g, "p": p, "p_rank_zero_constant": str(value)})
        _expect([e["payload"] for e in envs] == rows, f"satake rows {out[:200]!r}")

    return Request("satake", argv, check)


def random_monomial(rng: random.Random, g: int, d: int) -> tuple[int, ...]:
    exps, remaining = [0] * g, d
    for i in rng.sample(range(2, g + 1), g - 1):
        e = rng.randint(0, remaining // i)
        exps[i - 1] = e
        remaining -= e * i
    exps[0] = remaining
    return tuple(exps)


def random_polynomial(rng: random.Random, g: int, terms: int) -> dict[tuple[int, ...], Fraction]:
    """``terms`` random monomials of any degree up to the socle degree."""
    socle = oracle.socle_degree(g)
    poly: dict[tuple[int, ...], Fraction] = {}
    for _ in range(terms):
        exps = random_monomial(rng, g, rng.randint(0, socle))
        poly[exps] = poly.get(exps, 0) + Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice([1, 1, 1, 2, 3]))
    return {e: c for e, c in poly.items() if c} or {(0,) * g: Fraction(1)}


def polynomial_text(poly: dict[tuple[int, ...], Fraction]) -> str:
    parts = []
    for exps, c in poly.items():
        factors = [f"l{i}" if e == 1 else f"l{i}^{e}" for i, e in enumerate(exps, start=1) if e]
        magnitude = abs(c)
        body = "*".join(([str(magnitude)] if magnitude != 1 or not factors else []) + factors)
        if parts:
            parts.append(f" {'-' if c < 0 else '+'} {body}")
        else:
            parts.append(("-" if c < 0 else "") + body)
    return "".join(parts)


def reduce_request(ref: References, g: int, poly: dict, text: str) -> Request:
    def check(code, out, err):
        payload = _single(code, out, err, "reduce")
        _expect(payload["g"] == g and payload["input"] == text, f"{payload}")
        got = oracle.parse_element(payload["value"], g)
        _expect(got == ref.ring(g).normal_form(poly), f"normal form of {text!r} = {payload['value']!r}")

    return Request("reduce", ["reduce", "--g", str(g), f"--monomial={text}"], check)


def socle_power_request(ref: References, g: int) -> Request:
    socle = oracle.socle_degree(g)
    text = f"l1^{socle}"

    def check(code, out, err):
        payload = _single(code, out, err, "reduce")
        got = oracle.parse_element(payload["value"], g)
        _expect(got == {(1 << g) - 1: Fraction(oracle.lg_degree(g))}, f"{text} = {payload['value']!r}, expected deg LG")

    return Request("reduce", ["reduce", "--g", str(g), f"--monomial={text}"], check)


def basis_text(mask: int, g: int) -> str:
    return "*".join(f"l{i}" for i in range(1, g + 1) if mask >> (i - 1) & 1) or "1"


def ring_request(ref: References, g: int, show: str, degree: int | None) -> Request:
    argv = ["ring", "--g", str(g), "--show", show] + (["--degree", str(degree)] if degree is not None else [])
    socle = oracle.socle_degree(g)

    def check(code, out, err):
        payload = _single(code, out, err, "ring")
        if show == "dims":
            _expect(payload == {"g": g, "socle_degree": socle, "dims": oracle.dimensions(g)}, f"{payload}")
        elif show == "basis":
            degrees = [degree] if degree is not None else range(socle + 1)
            expected = {str(d): [basis_text(m, g) for m in oracle.subset_masks(g, d)] for d in degrees}
            _expect(payload == {"g": g, "basis": expected}, f"basis {str(payload)[:200]}")
        else:
            ring = ref.ring(g)
            left, right = oracle.subset_masks(g, degree), oracle.subset_masks(g, socle - degree)
            expected = [[ring.pairing_entry(a, b) for b in right] for a in left]
            got = [[Fraction(x) for x in row] for row in payload["matrix"]]
            _expect(got == expected, f"pairing matrix g={g} d={degree}")
            _expect(payload["nonsingular"] is True and oracle.determinant(expected) != 0, "pairing is singular")

    return Request("ring", argv, check)


def check_grr(ref: References, payload: dict) -> None:
    g = payload["g"]
    q = Fraction(payload["q"])
    constant, zeta = ref.bernoulli.constant(g), ref.bernoulli.zeta(g)
    _expect(abs(q) == constant and payload["magnitude_ok"] is True, f"grr g={g}: q={q}")
    _expect(payload["sign_matches_theorem"] == (q == constant) and payload["sign_matches_zeta"] == (q == zeta), f"grr g={g} signs")


def check_verify_payload(ref: References, check: str, g: int, env: dict) -> None:
    payload = env["payload"]
    _expect(env["status"] == "pass" and payload["check"] == check and payload["g"] == g, f"verify {check} g={g}: {env['status']}")
    if check == "grr":
        check_grr(ref, payload)
    elif check == "recursion":
        _expect(payload["ok"] is True and payload["steps"] == [{"i": i, "ok": True} for i in range(1, g + 1)], "recursion steps")
    elif check == "ring":
        _expect(payload["dims"] == oracle.dimensions(g), f"ring dims g={g}")
        _expect(all(v is True for k, v in payload.items() if k not in ("check", "g", "dims")), f"ring checks g={g}")
    elif check == "borel-serre":
        _expect(payload["ok"] is True and payload["difference"] == "0", f"borel-serre g={g}")


def verify_request(ref: References, check: str, *, g: int | None = None, gmax: int | None = None) -> Request:
    genera = range(1, gmax + 1) if gmax is not None else [g]
    checks = ["grr", "borel-serre", "ring", "recursion"] if check == "all" else [check]
    argv = ["verify", "--check", check] + (["--gmax", str(gmax)] if gmax is not None else ["--g", str(g)])

    def run_check(code, out, err):
        envs = _envelopes(code, out, err, "verify")
        expected = [(c, h) for h in genera for c in checks]
        _expect(len(envs) == len(expected), f"{len(envs)} envelopes, expected {len(expected)}")
        for (c, h), env in zip(expected, envs):
            check_verify_payload(ref, c, h, env)

    return Request("verify_" + check.replace("-", "_"), argv, run_check)


def zero_denominator_defect(code: int, err: str) -> bool:
    """The ROADMAP defect: a zero denominator in ``reduce`` input escapes as an
    uncaught ZeroDivisionError (exit 1, traceback) instead of a usage error."""
    lines = err.splitlines()
    return code == 1 and len(lines) > 1 and lines[0].startswith("Traceback") and lines[-1].startswith("ZeroDivisionError")


def malformed_request(rng: random.Random, zero_denominator: bool) -> Request:
    """A bad input that should end as exit 2 with a one-line message."""
    g = rng.randint(2, 6)
    k = rng.randint(1, 9)
    if zero_denominator:
        text = rng.choice([f"{k}/0", f"l1 + {k}/0*l2", f"{k}/0*l1^2"])
        return Request("malformed", ["reduce", "--g", str(g), f"--monomial={text}"], usage_error, zero_denominator_defect)
    argv = rng.choice(
        [
            ["constant", "--g", str(-k + 1)],
            ["zeta", "--g", str(-k)],
            ["bernoulli", "--n", str(-k)],
            ["ring", "--g", str(g), "--show", "pairing"],
            ["ring", "--g", str(g), "--show", "basis", "--degree", str(oracle.socle_degree(g) + k)],
            ["ring", "--g", str(8 + k), "--show", "dims"],
            ["reduce", "--g", str(g), "--monomial", f"l{g + k}"],
            ["reduce", "--g", str(g), "--monomial", f"l1^^{k}"],
            ["verify", "--check", "grr"],
            ["verify", "--check", "ring", "--g", str(8 + k)],
            ["satake", "--g", str(g), "--p", str(rng.choice([1, 4, 6, 9, 15]))],
            ["satake", "--g", str(g), "--i", str(g + k)],
        ]
    )
    return Request("malformed", argv, usage_error)


PRIMES = [2, 3, 5, 7, 11, 13]


class Stratified:
    """Seeded draws that cover each parameter range evenly.

    A range is cut into strata, a shuffled deck deals the strata in turn and
    the value is uniform within its stratum.  With as many strata as draws
    per round (or twice as many), every round or pair of rounds holds the
    same share of heavy requests (large genus, large n), so p90 varies
    little from seed to seed.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.decks: dict[str, list[int]] = {}

    def __call__(self, key: str, lo: int, hi: int, strata: int) -> int:
        deck = self.decks.setdefault(key, [])
        if not deck:
            deck.extend(range(strata))
            self.rng.shuffle(deck)
        s = deck.pop()
        width = (hi - lo + 1) / strata
        a, b = lo + int(s * width), lo + int((s + 1) * width) - 1
        return self.rng.randint(a, max(a, b))


HEAVY = ("bernoulli", "socle", "reduce", "ring", "grr")


def interactive_round(rng: random.Random, draw: Stratified, ref: References, index: int) -> list[Request]:
    """20 requests of a fixed mix: 4 scalar, 2 bernoulli, 2 satake, 4 reduce,
    3 ring, 4 verify and 1 malformed (every 4th round a zero denominator).

    Exactly one request per round comes from the costly end of its range
    (bernoulli n > 150, reduce or ring at g = 6, verify grr g > 12), taking
    the kinds in turn, so the tail above p90 has the same share in every
    run and p90 falls among the moderate requests.
    """
    heavy = HEAVY[draw("heavy", 0, len(HEAVY) - 1, len(HEAVY))]
    n = [draw("bernoulli", 0, 150, 2) for _ in range(2)]
    socle_g = draw("socle", 2, 5, 4)
    reduce_g = [draw("reduce", 2, 5, 4) for _ in range(3)]
    ring_g = [draw("ring", 1, 5, 5) for _ in range(3)]
    grr_g = [draw("grr", 1, 12, 2) for _ in range(2)]
    slot = rng.randrange(3)
    if heavy == "bernoulli":
        n[0] = rng.randint(151, 200)
    elif heavy == "socle":
        socle_g = 6
    elif heavy == "reduce":
        reduce_g[slot] = 6
    elif heavy == "ring":
        ring_g[slot] = 6
    else:
        grr_g[0] = rng.randint(13, 20)
    reqs = [
        scalar_request(ref, "constant", "g", draw("constant", 1, 40, 2)),
        scalar_request(ref, "constant", "g", draw("constant", 1, 40, 2)),
        scalar_request(ref, "zeta", "g", draw("zeta", 1, 40, 2)),
        scalar_request(ref, "zeta", "g", draw("zeta", 1, 40, 2)),
        *(scalar_request(ref, "bernoulli", "n", k) for k in n),
    ]
    for _ in range(2):
        g = draw("satake", 1, 12, 2)
        i = rng.randint(0, g) if rng.random() < 0.25 else None
        p = rng.choice(PRIMES) if rng.random() < 0.5 else None
        reqs.append(satake_request(ref, g, i, p))
    reqs.append(socle_power_request(ref, socle_g))
    for g in reduce_g:
        poly = random_polynomial(rng, g, rng.randint(1, 4))
        reqs.append(reduce_request(ref, g, poly, polynomial_text(poly)))
    for show, g in zip(("dims", "basis", "pairing"), ring_g):
        socle = oracle.socle_degree(g)
        degree = rng.randint(0, socle) if show == "pairing" or rng.random() < 0.5 else None
        reqs.append(ring_request(ref, g, show, degree))
    reqs.extend(verify_request(ref, "grr", g=g) for g in grr_g)
    reqs.append(verify_request(ref, "recursion", g=draw("recursion", 1, 20, 4)))
    reqs.append(verify_request(ref, "ring", g=draw("verify_ring", 1, 4, 4)))
    reqs.append(malformed_request(rng, zero_denominator=index % 4 == 0))
    rng.shuffle(reqs)
    return reqs


BATCH_JOBS = 3


def batch_round(rng: random.Random, draw: Stratified, ref: References, index: int) -> list[Request]:
    jobs = [
        scalar_request(ref, "bernoulli", "n", 800),
        verify_request(ref, "all", gmax=5),
        verify_request(ref, "grr", gmax=40),
    ]
    jobs[0].kind, jobs[1].kind, jobs[2].kind = "job_bernoulli", "job_verify_all", "job_grr"
    rng.shuffle(jobs)
    return jobs


# -- running ----------------------------------------------------------------


class Runner:
    """Runs requests one at a time (a closed loop with one client), times
    each from spawn to exit, samples the machine speed after each one and
    checks every answer outside the timed region."""

    def __init__(self, result: Result, traced: bool, speed: Speed):
        self.result = result
        self.traced = traced
        self.speed = speed
        self.env = child_env()
        self.times: list[float] = []
        self.kinds: list[str] = []
        self.span_files: list[str] = []

    def run(self, req: Request) -> None:
        argv = ["-m", "abtaut.cli", *req.argv]
        if self.traced:
            path = str(RUN_DIR / f"spans-{len(self.span_files)}.json")
            self.span_files.append(path)
            argv = [str(BENCH / "cli_driver.py"), path, str(len(self.span_files)), "--", *req.argv]
        elapsed, proc = run_python(argv, self.env)
        self.speed.sample(1)
        self.times.append(elapsed)
        self.kinds.append(req.kind)
        error = None
        try:
            req.check(proc.returncode, proc.stdout, proc.stderr)
        except (CheckError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            error = exc
        known = error is not None and req.known_defect is not None and req.known_defect(proc.returncode, proc.stderr)
        self.result.record(f"{req.kind} {' '.join(req.argv)}", error, known)

    def spans(self):
        spans, counters = [], Counter()
        for path in self.span_files:
            with open(path) as fh:
                data = json.load(fh)
            offset = len(spans)
            for s in data["spans"]:
                if s[3] >= 0:
                    s[3] += offset
                spans.append(s)
            for key, value in data["counters"].items():
                if key in ("graded.max_coeff_bits", "rationals.bernoulli_max_n") or key.startswith("tautring.monomials"):
                    counters[key] = max(counters[key], value)
                else:
                    counters[key] += value
        return spans, counters


def _detail(name: str, runner: Runner) -> dict:
    """The workload's own figures, as measured (not speed-scaled)."""
    raw = latency_metrics(runner.times)
    if name == "cli_interactive":
        return {"cli_p50_ms": raw["op_p50_ms"], "cli_p90_ms": raw["op_p90_ms"]}
    by_kind = {}
    for kind, t in zip(runner.kinds, runner.times):
        by_kind.setdefault(kind, []).append(t)
    detail = {f"{kind}_s": statistics.median(ts) for kind, ts in sorted(by_kind.items())}
    detail["sweep_s"] = statistics.median(_sweeps(runner.times))
    return detail


def _sweeps(job_times: list[float]) -> list[float]:
    return [sum(job_times[i : i + BATCH_JOBS]) for i in range(0, len(job_times), BATCH_JOBS)]


def _runner(name: str, result: Result, traced: bool, env: dict) -> Runner:
    # a request is process start-up plus a small kernel call, which the
    # interpreter floor tracks; a batch job is seconds of arithmetic, which a
    # reference job of Fraction arithmetic tracks
    return Runner(result, traced, Speed("floor" if name == "cli_interactive" else "job", env))


def _ops(name: str, runner: Runner) -> list[float]:
    """The operation times of a run, at nominal speed.  A request is scaled
    by the six floor samples around it, a batch job by the reference jobs
    just before and just after it.  The operation of batch_sweep is one
    sweep of all its jobs."""
    if name == "cli_interactive":
        return [t * f for t, f in zip(runner.times, runner.speed.op_factors(3, 3))]
    return _sweeps([t * f for t, f in zip(runner.times, runner.speed.op_factors(1, 1))])


def run_workload(name: str, seed: int, seconds: int, trace: bool, result: Result) -> None:
    make_round = interactive_round if name == "cli_interactive" else batch_round
    rng = random.Random(f"{name}:{seed}")
    draw = Stratified(rng)
    ref = References()
    if name == "batch_sweep":
        ref.bernoulli(800)  # the reference for the bernoulli job, before any timing
    env = child_env()
    setup_speed = Speed("floor", env)
    setup_speed.sample(3)
    setup_s = bytecode_warmup_s(env)
    setup_speed.sample(3)
    result.detail["interpreter_floor_ms"] = setup_speed.median_s() * 1000.0
    if not trace:
        runner = _runner(name, result, False, env)
        started = time.perf_counter()
        index = 0
        runner.speed.sample(1)
        # whole rounds only, so every run holds the same mix
        while time.perf_counter() - started < seconds:
            for req in make_round(rng, draw, ref, index):
                runner.run(req)
            index += 1
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result.metrics = {
            "setup_s": setup_s * setup_speed.factor(),
            "peak_rss_mb": rss_kb / 1024.0,
            **latency_metrics(_ops(name, runner)),
        }
        result.detail.update(_detail(name, runner))
        result.detail.update({"setup_raw_s": setup_s, "speed_factor": runner.speed.factor(), "requests": len(runner.times)})
        return
    # traced run: a fixed, seed-determined work list, first untraced then
    # traced, so the counts repeat exactly and the overhead compares like
    # with like
    rounds = max(1, round(seconds / 7.5)) if name == "cli_interactive" else 1
    work = [req for index in range(rounds) for req in make_round(rng, draw, ref, index)]
    plain = _runner(name, result, False, env)
    traced = _runner(name, result, True, env)
    for runner in (plain, traced):
        runner.speed.sample(1)
        for req in work:
            runner.run(req)
    spans, counters = traced.spans()
    floor = result.detail["interpreter_floor_ms"]
    result.metrics = {
        "cli.interp_floor_ms": floor,
        "cli.import_ms": median_wall_ms(["-c", "import abtaut.cli"], env, 5) - floor,
        **per_layer(spans, counters),
        **overhead(_ops(name, traced), _ops(name, plain)),
        "trace.spans": len(spans),
        **acceptance_report(env, result),
    }
    result.detail["requests"] = len(work)
