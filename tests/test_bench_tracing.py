"""The benchmark's tracer, ``bench/tracing.py``, wraps library functions by
name from outside the package, so a renamed function would break it without
failing any library test.  These tests load it by path: every target it
names must resolve, a traced Borel-Serre check must report time in both
layers of the roots route, and a traced power must report its products."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import abtaut
from abtaut import boundary

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    for name, module_name, attribute, _ in _load_tracing().TARGETS:
        owner = importlib.import_module(module_name)
        if "." in attribute:
            cls_name, attribute = attribute.split(".")
            owner = getattr(owner, cls_name)
            # install() replaces the method found in the class's own namespace
            assert attribute in vars(owner), name
        assert callable(getattr(owner, attribute)), name
    assert callable(boundary.sum_powers_quotient.cache_info)


_TRACED_BOREL_SERRE = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
import abtaut
tracer = tracing.Tracer()
tracing.install(tracer)
assert abtaut.borel_serre_check(3).ok
check = tracing.per_layer(tracer.spans, tracer.counters)
assert str(abtaut.charclass.symmetric_to_elementary(2, {(2, 0): 1})) == "-2*c2 + c1^2"
rewrite = tracing.per_layer(tracer.spans, tracer.counters)
print(json.dumps({"check": check, "rewrite": rewrite}))
"""


def _src_env() -> dict:
    """The environment with this checkout's abtaut first on PYTHONPATH."""
    src = str(Path(abtaut.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_traced_borel_serre_check_reports_the_roots_layers():
    done = subprocess.run(
        [sys.executable, "-c", _TRACED_BOREL_SERRE, str(_TRACING)],
        env=_src_env(),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    layers = json.loads(done.stdout)
    assert layers["check"]["charclass.roots_route_ms"] > 0
    # the roots route no longer reaches the rewrite; a direct call is traced
    assert layers["check"]["charclass.sym_to_elem_ms"] == 0
    assert layers["rewrite"]["charclass.sym_to_elem_ms"] > 0



_TRACED_POWER = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
from abtaut.graded import GradedRing
tracer = tracing.Tracer()
tracing.install(tracer)
(x,) = GradedRing(("x",), (1,), 8).gens()
power = (1 + x) ** 5
layers = tracing.per_layer(tracer.spans, tracer.counters)
print(json.dumps({"mul_calls": layers["graded.mul_calls"], "power": str(power)}))
"""


def test_traced_power_reports_its_products():
    # a power multiplies through GradedPolynomial.__mul__, which the tracer wraps
    done = subprocess.run(
        [sys.executable, "-c", _TRACED_POWER, str(_TRACING)],
        env=_src_env(),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    result = json.loads(done.stdout)
    assert result["mul_calls"] > 0
    assert result["power"] == "1 + 5*x + 10*x^2 + 10*x^3 + 5*x^4 + x^5"
