"""The benchmark's tracer, ``bench/tracing.py``, wraps library functions by
name from outside the package, so a renamed function would break it without
failing any library test.  These tests load it by path: every target it
names must resolve, and a traced Borel-Serre check must report time in both
layers of the roots route."""

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
print(json.dumps(tracing.per_layer(tracer.spans, tracer.counters)))
"""


def test_traced_borel_serre_check_reports_the_roots_layers():
    src = str(Path(abtaut.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", _TRACED_BOREL_SERRE, str(_TRACING)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    layers = json.loads(done.stdout)
    assert layers["charclass.roots_route_ms"] > 0
    assert layers["charclass.sym_to_elem_ms"] > 0
