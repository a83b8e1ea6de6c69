"""Spans around the public functions of each abtaut module, recorded from
outside the package, and their reduction to per-layer metrics.

``install(tracer)`` replaces each listed method on its class and each listed
function on its home module and on every abtaut module that imported the
name (``charclass.graded_exp``, ``cli.bernoulli``, ...).  A span is
``[name, start_ns, end_ns, parent, request, attr, excluded_ns]``; spans stay
in memory and are written out once, at the end.  Self time is the duration
minus the time covered by child spans and by the tracer's own bookkeeping
for them (``excluded_ns``).
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

GENERA = range(4, 9)
BORELSERRE_GENERA = range(3, 6)

# span name, module, attribute (Class.method or function), argument index
# recorded as the span attribute
TARGETS = [
    ("cli.main", "abtaut.cli", "main", None),
    ("rationals.bernoulli", "abtaut.rationals", "bernoulli", 0),
    ("graded.mul", "abtaut.graded", "GradedPolynomial.__mul__", None),
    ("graded.mul", "abtaut.graded", "GradedPolynomial.__rmul__", None),
    ("graded.exp", "abtaut.graded", "graded_exp", None),
    ("graded.series", "abtaut.graded", "named_series", None),
    ("charclass.borel_serre", "abtaut.charclass", "borel_serre_check", 0),
    ("charclass.roots_route", "abtaut.charclass", "exterior_alternating_sum_dual", None),
    ("charclass.sym_to_elem", "abtaut.charclass", "symmetric_to_elementary", None),
    ("tautring.build", "abtaut.tautring", "TautRing.__init__", 1),
    ("tautring.normal_form", "abtaut.tautring", "TautRing.normal_form", None),
    ("tautring.pairing", "abtaut.tautring", "TautRing.pairing_matrix", None),
    ("tautring.determinant", "abtaut.tautring", "determinant", None),
    ("boundary.spq", "abtaut.boundary", "sum_powers_quotient", None),
    ("boundary.grr_coefficient", "abtaut.boundary", "grr_coefficient", None),
    ("boundary.pushforward", "abtaut.boundary", "pushforward", None),
    ("satake.table", "abtaut.satake", "stratum_table", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = 0
        self.counters: Counter = Counter()
        self._spq = None

    def cache_counters(self) -> dict:
        """The sum_powers_quotient lru_cache statistics of this process."""
        if self._spq is None:
            return {}
        info = self._spq.cache_info()
        return {"boundary.spq_cache_hits": info.hits, "boundary.spq_cache_misses": info.misses}

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": {**self.counters, **self.cache_counters()}}, fh)


def _after_mul(tracer, args, result):
    a, b = args
    c = tracer.counters
    c["graded.mul_calls"] += 1
    c["graded.mul_term_products"] += len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)
    bits = c["graded.max_coeff_bits"]
    for v in getattr(result, "terms", {}).values():
        bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
    c["graded.max_coeff_bits"] = bits


def _after_build(tracer, args, result):
    ring = args[0]
    count = sum(len(m) for m in getattr(ring, "_monomials", ()))
    key = f"tautring.monomials.g{ring.genus}"
    tracer.counters[key] = max(tracer.counters[key], count)


def _after_normal_form(tracer, args, result):
    tracer.counters["tautring.nf_terms_in"] += len(args[1].terms)
    tracer.counters["tautring.nf_terms_out"] += len(result.coordinates)


def _after_bernoulli(tracer, args, result):
    key = "rationals.bernoulli_max_n"
    tracer.counters[key] = max(tracer.counters[key], args[0])


AFTER = {
    "graded.mul": _after_mul,
    "tautring.build": _after_build,
    "tautring.normal_form": _after_normal_form,
    "rationals.bernoulli": _after_bernoulli,
}


def _wrap(tracer: Tracer, name: str, fn, attr_index, after):
    spans, stack, perf = tracer.spans, tracer.stack, time.perf_counter_ns

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = stack[-1] if stack else -1
        attr = args[attr_index] if attr_index is not None and len(args) > attr_index else None
        span = [name, perf(), 0, parent, tracer.request, attr, 0]
        stack.append(len(spans))
        spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf()
            stack.pop()
        if after is not None:
            after(tracer, args, result)
            if parent >= 0:
                spans[parent][6] += perf() - span[2]
        return result

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every target in the abtaut modules imported so far."""
    modules = [m for n, m in list(sys.modules.items()) if m is not None and (n == "abtaut" or n.startswith("abtaut."))]
    for name, module_name, attribute, attr_index in TARGETS:
        home = sys.modules.get(module_name)
        if home is None:
            continue
        after = AFTER.get(name)
        if "." in attribute:
            cls_name, method = attribute.split(".")
            cls = getattr(home, cls_name)
            setattr(cls, method, _wrap(tracer, name, cls.__dict__[method], attr_index, after))
            continue
        original = getattr(home, attribute)
        if attribute == "sum_powers_quotient":
            tracer._spq = original
        wrapper = _wrap(tracer, name, original, attr_index, after)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def per_layer(spans: list[list], counters: Counter) -> dict[str, float]:
    """Reduce spans and counters (summed over all traced requests) to the
    per-layer metrics; layers a workload never reaches read 0."""
    children = defaultdict(int)
    for s in spans:
        if s[3] >= 0:
            children[s[3]] += s[2] - s[1]
    total = defaultdict(int)  # inclusive ns; no target calls itself
    self_ns = defaultdict(int)
    durations = defaultdict(list)
    for idx, (name, start, end, parent, _request, attr, excluded) in enumerate(spans):
        total[name] += end - start
        self_ns[name] += end - start - children[idx] - excluded
        durations[(name, attr)].append(end - start)
        durations[name].append(end - start)

    def ms(ns):
        return ns / 1e6

    def median_ms(key):
        values = durations.get(key)
        return ms(statistics.median(values)) if values else 0.0

    roots_in_bs = 0
    for s in spans:
        if s[0] == "charclass.roots_route" and s[3] >= 0 and spans[s[3]][0] == "charclass.borel_serre":
            roots_in_bs += s[2] - s[1]

    out = {
        "cli.main_self_ms": ms(self_ns["cli.main"]),
        "rationals.bernoulli_ms": ms(total["rationals.bernoulli"]),
        "rationals.bernoulli_max_n": counters["rationals.bernoulli_max_n"],
        "graded.mul_ms": ms(self_ns["graded.mul"]),
        "graded.mul_calls": counters["graded.mul_calls"],
        "graded.mul_term_products": counters["graded.mul_term_products"],
        "graded.max_coeff_bits": counters["graded.max_coeff_bits"],
        "graded.exp_ms": ms(total["graded.exp"]),
        "graded.series_ms": ms(total["graded.series"]),
    }
    for g in BORELSERRE_GENERA:
        out[f"charclass.borel_serre_ms.g{g}"] = median_ms(("charclass.borel_serre", g))
    out["charclass.roots_route_ms"] = ms(total["charclass.roots_route"])
    out["charclass.sym_to_elem_ms"] = ms(total["charclass.sym_to_elem"])
    out["charclass.power_sum_route_ms"] = ms(total["charclass.borel_serre"] - roots_in_bs)
    for g in GENERA:
        out[f"tautring.build_ms.g{g}"] = median_ms(("tautring.build", g))
    for g in GENERA:
        out[f"tautring.monomials.g{g}"] = counters[f"tautring.monomials.g{g}"]
    out["tautring.normal_form_us"] = median_ms("tautring.normal_form") * 1000.0
    out["tautring.nf_terms_in"] = counters["tautring.nf_terms_in"]
    out["tautring.nf_terms_out"] = counters["tautring.nf_terms_out"]
    out["tautring.pairing_ms"] = ms(total["tautring.pairing"])
    out["tautring.determinant_ms"] = ms(total["tautring.determinant"])
    out["boundary.spq_ms"] = ms(total["boundary.spq"])
    out["boundary.spq_cache_hits"] = counters["boundary.spq_cache_hits"]
    out["boundary.spq_cache_misses"] = counters["boundary.spq_cache_misses"]
    out["boundary.grr_coefficient_ms"] = ms(total["boundary.grr_coefficient"])
    out["boundary.pushforward_calls"] = len(durations["boundary.pushforward"])
    out["satake.table_ms"] = ms(total["satake.table"])
    return out
