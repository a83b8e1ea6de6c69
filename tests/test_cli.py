import ast
import contextlib
import functools
import io
import json
import os
import re
import select
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import abtaut
import argparse_oracle
from abtaut import build_ring, charclass, cli, tautring
from abtaut.cli import main
from record_cli_golden import GOLDEN_DIR, REQUESTS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, [json.loads(line) for line in out.splitlines()]


# -- queries -----------------------------------------------------------------


def test_bernoulli_command(capsys):
    code, envs = run_json(capsys, "bernoulli", "--n", "12")
    assert code == 0
    assert envs == [{"command": "bernoulli", "status": "info", "payload": {"n": 12, "value": "-691/2730"}}]


def test_zeta_command(capsys):
    code, envs = run_json(capsys, "zeta", "--g", "3")
    assert code == 0
    assert envs[0]["payload"]["value"] == "-1/252"


def test_constant_command(capsys):
    for g, value in ((1, "1/12"), (2, "1/120"), (3, "1/252")):
        code, envs = run_json(capsys, "constant", "--g", str(g))
        assert code == 0
        assert envs[0]["payload"] == {"g": g, "value": value}
        assert envs[0]["status"] == "info"


def test_ring_dims(capsys):
    code, envs = run_json(capsys, "ring", "--g", "3", "--show", "dims")
    assert code == 0
    assert envs[0]["payload"]["dims"] == [1, 1, 1, 2, 1, 1, 1]


def test_ring_basis_single_degree(capsys):
    code, envs = run_json(capsys, "ring", "--g", "3", "--show", "basis", "--degree", "3")
    assert code == 0
    assert envs[0]["payload"]["basis"] == {"3": ["l3", "l1*l2"]}


def test_ring_pairing(capsys):
    code, envs = run_json(capsys, "ring", "--g", "3", "--show", "pairing", "--degree", "3")
    assert code == 0
    payload = envs[0]["payload"]
    assert payload["matrix"] == [["0", "1"], ["1", "4"]]
    assert payload["nonsingular"] is True


def test_ring_pairing_needs_degree(capsys):
    code, out, err = run_cli(capsys, "ring", "--g", "3", "--show", "pairing")
    assert code == 2
    assert "--degree" in err


def test_reduce_command(capsys):
    code, envs = run_json(capsys, "reduce", "--g", "3", "--monomial", "l1^6")
    assert code == 0
    assert envs[0]["payload"]["value"] == "16*l1*l2*l3"


def test_reduce_accepts_polynomials(capsys):
    code, envs = run_json(capsys, "reduce", "--g", "2", "--monomial", "l1^2 - 2*l2")
    assert code == 0
    assert envs[0]["payload"]["value"] == "0"


def test_reduce_bad_monomial(capsys):
    code, out, err = run_cli(capsys, "reduce", "--g", "2", "--monomial", "l9")
    assert code == 2
    assert "l9" in err
    code, out, err = run_cli(capsys, "reduce", "--g", "3", "--monomial", "1/0")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "zero denominator" in err


_MANY_NINES = "9" * (cli.MAX_PRINTED_DIGITS + 100)
_NINES = "9" * (cli.MAX_PRINTED_DIGITS - 1)


@pytest.mark.parametrize(
    "monomial",
    [f"{_MANY_NINES}*l1", f"l1^{_MANY_NINES}", f"{_NINES}/7*l1^6 + {_NINES}*l2^3"],
    ids=["coefficient", "exponent", "result"],
)
def test_reduce_past_the_print_limit_is_usage_error(capsys, monomial):
    code, out, err = run_cli(capsys, "reduce", "--g", "3", "--monomial", monomial)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "--monomial" in err and f"{cli.MAX_PRINTED_DIGITS} digits" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["constant", "--g=--"],
        ["zeta", "--g=--"],
        ["bernoulli", "--n=--"],
        ["ring", "--g=--", "--show", "dims"],
        ["ring", "--g", "2", "--show", "basis", "--degree=--"],
        ["reduce", "--g=--", "--monomial", "l1"],
        ["reduce", "--g", "3", "--monomial=--"],
        ["verify", "--check", "grr", "--g=--"],
        ["verify", "--check", "grr", "--gmax=--"],
        ["satake", "--g=--"],
        ["satake", "--g", "2", "--i=--"],
        ["satake", "--g", "2", "--p=--"],
        ["verify", "--check=--", "--g", "2"],
        ["constant", "--g", "2", "--format=--"],
    ],
    ids=" ".join,
)
def test_dashdash_as_option_value_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "expected a value" in err


# -- verify ------------------------------------------------------------------


def test_verify_grr_single(capsys):
    code, envs = run_json(capsys, "verify", "--check", "grr", "--g", "7")
    assert code == 0
    payload = envs[0]["payload"]
    assert envs[0]["status"] == "pass"
    assert payload["magnitude_ok"] is True
    assert payload["check"] == "grr"


def test_verify_requires_genus(capsys):
    code, out, err = run_cli(capsys, "verify", "--check", "grr")
    assert code == 2
    assert "--g" in err


def test_verify_genus_options_are_exclusive(capsys):
    code, out, err = run_cli(capsys, "verify", "--check", "grr", "--g", "3", "--gmax", "2")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "not allowed with argument --g" in err


def _cap_case(argv, option, cap):
    return [*argv, option, str(cap + 1)], f"{option} is capped at {cap}, got {cap + 1}"


_BS, _GRR, _REC = cli.MAX_BOREL_SERRE_GENUS, cli.MAX_GRR_GENUS, cli.MAX_RECURSION_GENUS
_CAP_CASES = [
    _cap_case(["bernoulli"], "--n", cli.MAX_BERNOULLI_N),
    _cap_case(["zeta"], "--g", cli.MAX_ZETA_GENUS),
    _cap_case(["constant"], "--g", cli.MAX_ZETA_GENUS),
    (["verify", "--check", "borel-serre", "--g", str(_BS + 2)], f"borel-serre is capped at genus {_BS}, got {_BS + 2}"),
    (["verify", "--check", "all", "--gmax", str(_BS + 1)], f"borel-serre is capped at genus {_BS}, got {_BS + 1}"),
    (["verify", "--check", "grr", "--g", str(_GRR + 1)], f"grr is capped at genus {_GRR}, got {_GRR + 1}"),
    (["verify", "--check", "recursion", "--gmax", str(_REC + 1)], f"recursion is capped at genus {_REC}, got {_REC + 1}"),
    (["verify", "--check", "grr", "--gmax", "9" * 30], f"grr is capped at genus {_GRR}, got {'9' * 30}"),
    _cap_case(["satake"], "--g", cli.MAX_SATAKE_GENUS),
    _cap_case(["satake", "--g", "3"], "--p", cli.MAX_SATAKE_PRIME),
]


@pytest.mark.parametrize("argv, message", _CAP_CASES, ids=[" ".join(argv) for argv, _ in _CAP_CASES])
def test_input_caps_are_usage_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"abtaut: error: {message}\n")


def test_inputs_at_the_caps_print(capsys):
    for argv in (
        ["bernoulli", "--n", str(cli.MAX_BERNOULLI_N)],
        ["zeta", "--g", str(cli.MAX_ZETA_GENUS)],
        ["constant", "--g", str(cli.MAX_ZETA_GENUS)],
    ):
        code, envs = run_json(capsys, *argv)
        assert code == 0, argv
        assert Fraction(envs[0]["payload"]["value"]) != 0


@pytest.mark.parametrize(
    "argv",
    [
        ["satake", "--g", str(cli.MAX_SATAKE_GENUS), "--p", "999983"],
        ["satake", "--g", str(cli.MAX_SATAKE_GENUS), "--p", "37"],
        ["satake", "--g", "66", "--p", "131"],
    ],
    ids=" ".join,
)
def test_p_rank_constant_beyond_print_limit_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert f"--g {argv[2]} --p {argv[4]}" in err and f"{cli.MAX_PRINTED_DIGITS} digits" in err


def test_satake_at_the_caps_prints(capsys):
    g = cli.MAX_SATAKE_GENUS
    code, envs = run_json(capsys, "satake", "--g", str(g), "--p", "31")
    assert code == 0
    assert [env["payload"].get("i") for env in envs] == [*range(g + 1), None]
    assert all(Fraction(env["payload"]["coefficient"]) != 0 for env in envs[:-1])
    assert len(envs[-1]["payload"]["p_rank_zero_constant"]) <= cli.MAX_PRINTED_DIGITS
    code, envs = run_json(capsys, "satake", "--g", "3", "--p", "999983")
    assert code == 0
    assert int(envs[-1]["payload"]["p_rank_zero_constant"]) == 999982 * (999983 ** 2 - 1) * (999983 ** 3 - 1)


@pytest.mark.parametrize("check,cap", [("grr", cli.MAX_GRR_GENUS), ("recursion", cli.MAX_RECURSION_GENUS)])
def test_verify_at_the_genus_caps(capsys, check, cap):
    code, envs = run_json(capsys, "verify", "--check", check, "--g", str(cap))
    assert code == 0
    assert [(env["status"], env["payload"]["g"]) for env in envs] == [("pass", cap)]


def test_verify_ring(capsys):
    code, envs = run_json(capsys, "verify", "--check", "ring", "--g", "4")
    assert code == 0
    payload = envs[0]["payload"]
    assert payload["total_dimension_2^g"] is True
    assert payload["pairing_nonsingular_all_degrees"] is True


def test_verify_ring_respects_cap(capsys):
    cap = tautring.MAX_RING_GENUS
    above = str(cap + 1)
    for argv in (
        ["verify", "--check", "ring", "--g", above],
        ["verify", "--check", "ring", "--gmax", above],
        ["ring", "--g", above, "--show", "dims"],
        ["reduce", "--g", above, "--monomial", "l1"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.count("\n") == 1 and f"capped at genus {cap}, got {above}" in err, argv


def test_verify_gmax_ordering(capsys):
    code, envs = run_json(capsys, "verify", "--check", "recursion", "--gmax", "4")
    assert code == 0
    assert [env["payload"]["g"] for env in envs] == [1, 2, 3, 4]
    assert all(env["status"] == "pass" for env in envs)


def test_verify_all(capsys):
    code, envs = run_json(capsys, "verify", "--check", "all", "--g", "2")
    assert code == 0
    assert [env["payload"]["check"] for env in envs] == ["grr", "borel-serre", "ring", "recursion"]
    assert all(env["status"] == "pass" for env in envs)


def test_verify_looks_up_each_check_when_it_runs(capsys, monkeypatch):
    # a wrapper installed on the module after cli was imported must see the call
    passing = charclass.borel_serre_check(1)
    calls = []

    def stub(g):
        calls.append(g)
        return passing

    monkeypatch.setattr(charclass, "borel_serre_check", stub)
    code, envs = run_json(capsys, "verify", "--check", "borel-serre", "--g", "1")
    assert calls == [1]
    assert code == 0 and envs[0]["status"] == "pass"


def test_verify_unknown_check(capsys):
    code, out, err = run_cli(capsys, "verify", "--check", "bogus", "--g", "2")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "invalid choice: 'bogus'" in err


# -- satake ------------------------------------------------------------------


def test_satake_json(capsys):
    code, envs = run_json(capsys, "satake", "--g", "2")
    assert code == 0
    assert [env["payload"]["i"] for env in envs] == [0, 1, 2]
    assert envs[2]["payload"]["coefficient"] == "-1440"
    assert envs[2]["payload"]["matches_thm34"] is True


def test_satake_csv(capsys):
    code, out, err = run_cli(capsys, "satake", "--g", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "g,i,coefficient,label,matches_thm34"
    assert lines[1] == "2,0,1,{},"
    assert lines[2] == "2,1,-120,{2},false"
    assert lines[3] == '2,2,-1440,"{1,2}",true'


def test_satake_with_p_rank(capsys):
    code, envs = run_json(capsys, "satake", "--g", "3", "--p", "2")
    assert code == 0
    assert envs[-1]["payload"] == {"g": 3, "p": 2, "p_rank_zero_constant": "21"}


def test_satake_rejects_composite_p(capsys):
    code, out, err = run_cli(capsys, "satake", "--g", "3", "--p", "4")
    assert code == 2
    assert "prime" in err


def test_satake_csv_rejects_p_rank(capsys):
    code, out, err = run_cli(capsys, "satake", "--g", "2", "--p", "2", "--format", "csv")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "--p" in err


def test_csv_unavailable_elsewhere(capsys):
    code, out, err = run_cli(capsys, "constant", "--g", "2", "--format", "csv")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "invalid choice: 'csv'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "--g", "3", "--format", "csv"],
        ["verify", "--check", "bogus", "--g", "2"],
        ["zeta"],
        ["bernoulli", "--n", "x"],
        ["bogus"],
        [],
    ],
    ids=" ".join,
)
def test_argparse_errors_are_one_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("abtaut: error: ")


_VERIFY_MATCHES = "--help, --check, --g, --gmax, --format"
_AMBIGUOUS_CASES = [
    (["verify", "--=x"], _VERIFY_MATCHES),
    (["verify", "--check", "--=x"], _VERIFY_MATCHES),
    (["ring", "--g", "3", "--show", "dims", "--=x"], "--help, --g, --show, --degree, --format"),
]


@pytest.mark.parametrize("argv, matches", _AMBIGUOUS_CASES, ids=[" ".join(argv) for argv, _ in _AMBIGUOUS_CASES])
def test_ambiguous_option_names_the_whole_word(capsys, argv, matches):
    # argparse's message: the word as given, "=" and all, then every option
    # it prefixes in the parser's order, help first
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"abtaut: error: ambiguous option: --=x could match {matches}\n"


# -- output contracts ----------------------------------------------------------


def test_identical_invocations_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--check", "all", "--g", "2")
    _, out2, _ = run_cli(capsys, "verify", "--check", "all", "--g", "2")
    assert out1 == out2
    assert out1  # non-empty


@pytest.mark.parametrize("name,argv", REQUESTS, ids=[name for name, _ in REQUESTS])
def test_stdout_matches_golden(capsys, name, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN_DIR / f"{name}.out").read_bytes()


@pytest.mark.parametrize("argv", [["--help"], ["-x"], ["-"], ["--list", "x"], []])
def test_golden_recorder_rejects_options(tmp_path, argv):
    # run from an empty directory without PYTHONPATH: a usage error creates
    # no directory and needs no abtaut import
    script = Path(__file__).resolve().parent / "record_cli_golden.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(script), *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 2
    assert "record_cli_golden.py OUTDIR" in done.stderr and "Traceback" not in done.stderr
    assert list(tmp_path.iterdir()) == []


def test_timing_outside_payload(capsys):
    code, out, err = run_cli(capsys, "constant", "--g", "2")
    assert "elapsed_ms=" in err
    assert "elapsed_ms" not in out


def test_round_trip_rational_and_polynomial(capsys):
    _, envs = run_json(capsys, "zeta", "--g", "5")
    value = Fraction(envs[0]["payload"]["value"])
    assert str(value) == envs[0]["payload"]["value"]
    _, envs = run_json(capsys, "reduce", "--g", "3", "--monomial", "l1^5")
    ring = build_ring(3)
    printed = envs[0]["payload"]["value"]
    assert str(ring.ring.parse(printed)) == printed


def test_text_format(capsys):
    code, out, err = run_cli(capsys, "constant", "--g", "2", "--format", "text")
    assert code == 0
    assert out == "command: constant\nstatus: info\ng: 2\nvalue: 1/120\n"


_LEAST_CASES = [
    (["bernoulli", "--n", "-1"], "--n must be >= 0, got -1"),
    (["zeta", "--g", "0"], "--g must be >= 1, got 0"),
    (["constant", "--g", "0"], "--g must be >= 1, got 0"),
    (["ring", "--g", "0", "--show", "dims"], "--g must be >= 1, got 0"),
    (["reduce", "--g", "0", "--monomial", "l1"], "--g must be >= 1, got 0"),
    (["satake", "--g", "0"], "--g must be >= 1, got 0"),
    (["verify", "--check", "grr", "--g", "0"], "--g must be >= 1, got 0"),
    (["verify", "--check", "grr", "--gmax", "0"], "--gmax must be >= 1, got 0"),
]


@pytest.mark.parametrize("argv, message", _LEAST_CASES, ids=[" ".join(argv) for argv, _ in _LEAST_CASES])
def test_usage_error_names_precondition(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"abtaut: error: {message}\n")


def test_exit_code_on_failure(capsys, monkeypatch):
    # force a failing verification by lying about the expected constant
    from abtaut import boundary

    monkeypatch.setattr(boundary, "boundary_constant", lambda g: Fraction(1))
    code, out, err = run_cli(capsys, "verify", "--check", "grr", "--g", "2")
    assert code == 1
    envs = [json.loads(line) for line in out.splitlines()]
    assert envs[0]["status"] == "fail"


# -- the JSON lines, written without json ------------------------------------------

_CHARS = st.one_of(
    st.integers(0, 0x7F).map(chr),  # every control character, the quote and the backslash among them
    st.characters(min_codepoint=0x80),  # non-ASCII text, the astral plane included
    st.integers(0xD800, 0xDFFF).map(chr),  # lone surrogates
)
_TEXT = st.text(_CHARS, max_size=12)
_PAYLOAD_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-(10 ** 4299) + 1, 10 ** 4299 - 1), _TEXT),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple), st.dictionaries(_TEXT, inner, max_size=4)
    ),
    max_leaves=16,
)


@settings(max_examples=300, deadline=None)
@given(_PAYLOAD_VALUES)
@example("".join(map(chr, range(0x80))) + "é\U0001f600\ud800")
@example({"n": 800, "value": "-" + "7" * 4000 + "/" + "3" * 10, "ok": [True, False, None], "label": (1, 2)})
@example(-(10 ** 4299) + 1)
def test_json_writes_what_json_dumps_writes(value):
    assert cli._json(value) == json.dumps(value, ensure_ascii=False)


@pytest.mark.parametrize("value", [1.5, {1: "x"}, Fraction(1, 2), {"g": [2, Fraction(1, 2)]}], ids=repr)
def test_json_refuses_what_no_payload_holds(value):
    with pytest.raises(TypeError):
        cli._json(value)


# -- import graph --------------------------------------------------------------

_IMPORT_PROBE = """
import io, sys
before = set(sys.modules)
import abtaut.cli
imported = sorted(set(sys.modules) - before)
sys.stdout = io.StringIO()
code = abtaut.cli.main(["constant", "--g", "2"])
out, sys.stdout = sys.stdout.getvalue(), sys.__stdout__
loaded = sorted(sys.modules)
import json
print(json.dumps({"imported": imported, "loaded": loaded, "code": code, "out": out}))
"""


def _src_env() -> dict:
    """The environment with this checkout's abtaut first on PYTHONPATH and
    without PYTHONUNBUFFERED, so that a request's stdout is block-buffered
    as by default and a flush lost before its end shows."""
    src = str(Path(abtaut.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cli_import_graph():
    # Every request pays for what `import abtaut.cli` loads and for what
    # serving it loads.  `-S` keeps site from preloading modules such as
    # typing, which would hide an import of them.  The library modules stay
    # eager: a tracer that wraps the loaded abtaut modules after this import
    # must find all of them.
    probe = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_PROBE],
        env=_src_env(), capture_output=True, text=True, check=True, timeout=60,
    )
    result = json.loads(probe.stdout)
    assert result["code"] == 0 and json.loads(result["out"])["payload"] == {"g": 2, "value": "1/120"}
    imported = set(result["imported"])
    assert not imported & {"dataclasses", "inspect", "ast", "dis", "csv"}
    assert not set(result["loaded"]) & {"argparse", "gettext", "locale", "typing"}
    assert not [name for name in result["loaded"] if name == "json" or name.startswith("json.")]
    library = {f"abtaut.{name}" for name in ("rationals", "graded", "charclass", "tautring", "boundary", "satake")}
    assert library <= imported


# -- stdout that cannot be written ----------------------------------------------


def _assert_one_line_write_error(done):
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.count("\n") == 1 and done.stderr.startswith("abtaut: error: "), done.stderr


_UNWRITTEN = [*REQUESTS, ("help", ["--help"]), ("zeta_help", ["zeta", "--help"])]


@pytest.mark.parametrize("argv", [argv for _, argv in _UNWRITTEN], ids=[name for name, _ in _UNWRITTEN])
def test_closed_pipe_is_a_usage_error(argv):
    # the read end is closed before the request starts, so every write fails
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "abtaut.cli", *argv],
            stdout=write, stderr=subprocess.PIPE, env=_src_env(), text=True, timeout=120,
        )
    finally:
        os.close(write)
    _assert_one_line_write_error(done)


@pytest.mark.parametrize("redirect", ["> /dev/full", ">&-"], ids=["full device", "closed descriptor"])
@pytest.mark.parametrize("argv", [["constant", "--g", "2"], ["--help"]], ids=" ".join)
def test_unwritable_stdout_is_a_usage_error(argv, redirect):
    done = subprocess.run(
        ["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m", "abtaut.cli", *argv],
        stderr=subprocess.PIPE, env=_src_env(), text=True, timeout=60,
    )
    _assert_one_line_write_error(done)


# -- stderr that cannot be written -------------------------------------------

# (argv, exit code): a result, a usage error and the help text
_STDERR_REQUESTS = [(["constant", "--g", "2"], 0), (["constant", "--g", "0"], 2), (["--help"], 0)]
_STDERR_IDS = [" ".join(argv) for argv, _ in _STDERR_REQUESTS]
_DEAD_STREAMS = ["pipe", "/dev/full", "closed"]


def _run_with_dead_stderr(argv, stderr, stdout_too=False):
    """Run the CLI as a fresh process whose stderr is a pipe with no reader,
    /dev/full or closed; with ``stdout_too`` its stdout is the same."""
    command = [sys.executable, "-m", "abtaut.cli", *argv]
    if stderr == "pipe":
        read, write = os.pipe()
        os.close(read)
        try:
            return subprocess.run(
                command, stdout=write if stdout_too else subprocess.PIPE, stderr=write,
                env=_src_env(), text=True, timeout=60,
            )
        finally:
            os.close(write)
    redirect = {"/dev/full": "2> /dev/full", "closed": "2>&-"}[stderr]
    if stdout_too:
        redirect += " > /dev/full" if stderr == "/dev/full" else " >&-"
    return subprocess.run(
        ["sh", "-c", f'exec "$@" {redirect}', "sh", *command],
        stdout=None if stdout_too else subprocess.PIPE, env=_src_env(), text=True, timeout=60,
    )


def _stdout_of(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(list(argv))
    return out.getvalue()


@pytest.mark.parametrize("stderr", _DEAD_STREAMS)
@pytest.mark.parametrize("argv, code", _STDERR_REQUESTS, ids=_STDERR_IDS)
def test_unwritable_stderr_changes_no_exit_code(argv, code, stderr):
    # an uncaught error would end in exit 1, or 120 if the flush at exit failed
    done = _run_with_dead_stderr(argv, stderr)
    assert done.returncode == code
    assert done.stdout == _stdout_of(argv)


@pytest.mark.parametrize("stderr", _DEAD_STREAMS)
@pytest.mark.parametrize("argv", [argv for argv, _ in _STDERR_REQUESTS], ids=_STDERR_IDS)
def test_unwritable_stdout_and_stderr_exit_2(argv, stderr):
    assert _run_with_dead_stderr(argv, stderr, stdout_too=True).returncode == 2


def test_output_stdout_cannot_encode_is_a_usage_error():
    # \d in the polynomial grammar reads the Arabic-Indic digit three, and
    # the payload echoes the input, which ascii cannot encode
    done = subprocess.run(
        [sys.executable, "-m", "abtaut.cli", "reduce", "--g", "2", "--monomial", "\u0663*l1"],
        capture_output=True, env={**_src_env(), "PYTHONIOENCODING": "ascii"}, text=True, timeout=60,
    )
    _assert_one_line_write_error(done)
    assert done.stdout == ""
    assert done.stderr.startswith("abtaut: error: cannot write the output: 'ascii' codec can't encode")


class _Unwritable(io.StringIO):
    """A stream whose every write raises ``error``."""

    def __init__(self, error):
        super().__init__()
        self.error = error

    def write(self, text):
        raise self.error


_WRITE_ERRORS = [
    BrokenPipeError(32, "Broken pipe"),
    OSError(28, "No space left on device"),
    UnicodeEncodeError("ascii", "\u0663", 0, 1, "ordinal not in range(128)"),
]


@pytest.mark.parametrize("error", _WRITE_ERRORS, ids=lambda error: type(error).__name__)
def test_main_returns_its_code_when_stderr_fails(monkeypatch, error):
    from abtaut import boundary

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(_Unwritable(error)):
        assert main(["constant", "--g", "2"]) == 0
        assert main(["constant", "--g", "0"]) == 2
        monkeypatch.setattr(boundary, "boundary_constant", lambda g: Fraction(1))
        assert main(["verify", "--check", "grr", "--g", "2"]) == 1


@pytest.mark.parametrize("error", _WRITE_ERRORS, ids=lambda error: type(error).__name__)
def test_main_returns_2_when_stdout_fails(error):
    err = io.StringIO()
    with contextlib.redirect_stdout(_Unwritable(error)), contextlib.redirect_stderr(err):
        assert main(["constant", "--g", "2"]) == 2
    assert err.getvalue() == f"abtaut: error: cannot write the output: {error}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_main_returns_0_with_stderr_on_a_full_device():
    out = io.StringIO()
    with open("/dev/full", "w") as full, contextlib.redirect_stdout(out), contextlib.redirect_stderr(full):
        assert main(["constant", "--g", "2"]) == 0
    assert json.loads(out.getvalue())["payload"] == {"g": 2, "value": "1/120"}


# -- the process entry -----------------------------------------------------------

_ELAPSED = re.compile(r"elapsed_ms=\d+\.\d{3}\n")


def _serve(argv, **streams):
    """One fresh ``python -m abtaut.cli`` request, output as bytes."""
    return subprocess.Popen([sys.executable, "-m", "abtaut.cli", *argv], env=_src_env(), **streams)


@pytest.mark.parametrize("name,argv", REQUESTS, ids=[name for name, _ in REQUESTS])
def test_golden_stdout_through_a_pipe(name, argv):
    # run ends the process without the interpreter's shutdown, so every
    # byte must have left the process before it
    with _serve(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert out == (GOLDEN_DIR / f"{name}.out").read_bytes()
    assert _ELAPSED.fullmatch(err.decode()), err


_LARGE = ["satake", "--g", str(cli.MAX_SATAKE_GENUS)]


def test_large_stdout_through_a_slow_pipe():
    # 263,147 bytes, four times a 64 KiB pipe buffer: the request waits on
    # the full pipe while the reader takes 4 KiB at a time
    expected = _stdout_of(_LARGE).encode("utf-8")
    assert len(expected) > 4 * 65536
    chunks = []
    with _serve(_LARGE, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        fd = proc.stdout.fileno()
        while select.select([fd], [], [], 120)[0] and (chunk := os.read(fd, 4096)):
            if not chunks:
                assert proc.poll() is None  # its output cannot all be in the pipe yet
            chunks.append(chunk)
            time.sleep(0.001)
        err = proc.stderr.read()
        proc.wait(timeout=120)
    assert proc.returncode == 0, err
    assert b"".join(chunks) == expected
    assert _ELAPSED.fullmatch(err.decode()), err


def test_large_stdout_to_a_regular_file(tmp_path):
    path = tmp_path / "out"
    with path.open("wb") as out, _serve(_LARGE, stdout=out, stderr=subprocess.PIPE) as proc:
        err = proc.communicate(timeout=120)[1]
    assert proc.returncode == 0, err
    assert path.read_bytes() == _stdout_of(_LARGE).encode("utf-8")
    assert _ELAPSED.fullmatch(err.decode()), err


def test_console_script_and_module_enter_through_run():
    # pyproject.toml is read as text: Python 3.10 has no tomllib
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = pyproject.read_text(encoding="utf-8").split("[project.scripts]\n", 1)[1]
    assert scripts.split("\n[", 1)[0].strip() == 'abtaut = "abtaut.cli:run"'
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    guards = [node for node in tree.body if isinstance(node, ast.If) and "__main__" in ast.unparse(node.test)]
    assert [ast.unparse(node) for node in guards] == ["if __name__ == '__main__':\n    run()"]
    # only run ends the process: main returns to its in-process callers
    exits = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        for inner in ast.walk(node)
        if isinstance(inner, ast.Attribute) and inner.attr == "_exit"
    }
    assert exits == {"run"}


# -- every argument vector ends in a result or a usage error --------------------

_NUMBER = "9" * 30
_JUNK = ["", "x", "--", "-", "1/0", "3.5", "1e3", "0x10", _NUMBER, f"-{_NUMBER}"]


def _ints(*extra):
    """Mostly small genera and degrees, else 0, negatives, caps and junk."""
    good = st.integers(1, 5).map(str)
    return st.one_of(good, good, good, st.sampled_from([-3, -1, 0, *extra]).map(str), st.sampled_from(_JUNK))


_GENUS = _ints(12, 40, cli.MAX_ZETA_GENUS, cli.MAX_ZETA_GENUS + 1)
_RING_GENUS = _ints(tautring.MAX_RING_GENUS, tautring.MAX_RING_GENUS + 1)
_FORMAT = st.sampled_from(["json", "text", "json", "text", "csv", "xml"])
_OPTIONS = {
    "bernoulli": {"--n": _ints(200, cli.MAX_BERNOULLI_N, cli.MAX_BERNOULLI_N + 1)},
    "zeta": {"--g": _GENUS},
    "constant": {"--g": _GENUS},
    "ring": {
        "--g": _RING_GENUS,
        "--show": st.sampled_from(["dims", "basis", "pairing", "socle"]),
        "--degree": _ints(15, 36, 37),
    },
    "reduce": {
        "--g": _RING_GENUS,
        "--monomial": st.one_of(
            st.sampled_from(
                ["l1", "l1^6", "2*l2 - l1^2", "l1^36", "3/7*l1*l3", "l9", "l0", "l1^", "l1^-1", "l1*", "*l1",
                 "l1 + + l2", "(l1)", "l1^^2", "2**l1", f"l1^{_NUMBER}", f"{_NUMBER}/7*l2",
                 "9" * (cli.MAX_PRINTED_DIGITS + 1)]
            ),
            st.sampled_from(_JUNK),
            st.text(alphabet="l123^*/+- 0", max_size=12),
        ),
    },
    # verify's genera stay below 6, where borel-serre takes well under a
    # second; its other caps and every cap + 1 are cheap
    "verify": {
        "--check": st.sampled_from(["grr", "borel-serre", "ring", "recursion", "all", "bogus"]),
        "--g": _ints(cli.MAX_GRR_GENUS, cli.MAX_GRR_GENUS + 1, cli.MAX_BOREL_SERRE_GENUS + 1),
        "--gmax": _ints(cli.MAX_BOREL_SERRE_GENUS + 1, cli.MAX_RECURSION_GENUS + 1),
    },
    "satake": {
        "--g": _ints(12, cli.MAX_SATAKE_GENUS, cli.MAX_SATAKE_GENUS + 1),
        "--i": _ints(12),
        "--p": _ints(7, 999983, cli.MAX_SATAKE_PRIME, cli.MAX_SATAKE_PRIME + 1),
    },
}
_UNKNOWN = ["--bogus", "-x", "--g2", "--formats"]
_OPTIONAL = {"--degree", "--gmax", "--i", "--p", "--format"}


@st.composite
def _argv(draw):
    """Each option of the command at most once (an optional one half of the
    time), in any order and any form, sometimes with an unknown option or a
    stray word inserted."""
    command = draw(st.sampled_from([*_OPTIONS, "bogus", "--"]))
    values = {**_OPTIONS.get(command, {}), "--format": _FORMAT}
    forms = st.sampled_from(["pair"] * 8 + ["equals"] * 4 + ["omitted", "bare option"])
    options = [o for o in draw(st.permutations(list(values))) if o not in _OPTIONAL or draw(st.booleans())]
    options += draw(st.sampled_from([[], [], [], [], *([option] for option in _UNKNOWN)]))
    argv = [command]
    for option in options:
        value = draw(values.get(option, st.sampled_from(_JUNK)))
        argv += {
            "pair": [option, value],
            "equals": [f"{option}={value}"],
            "omitted": [],
            "bare option": [option],
        }[draw(forms)]
    if not draw(st.integers(0, 4)):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from([*values, *_JUNK])))
    return argv


@settings(max_examples=500, deadline=None)
@given(_argv())
def test_every_argument_vector_succeeds_or_is_a_usage_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    else:
        assert code == 0 and out.getvalue()


# -- the CLI's parser reads argument vectors as argparse did --------------------


def _parsed(parse, argv, rejection):
    """What parse(argv) reads, with its stdout and stderr discarded: "help",
    "usage error" where it rejects argv by raising the exception rejection
    (argparse's SystemExit with code 2), or the namespace's values.
    argparse's help exits with code 0, and the CLI's parser returns the
    help text."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = parse(argv)
        except rejection as exc:
            return "help" if getattr(exc, "code", 2) == 0 else "usage error"
    return "help" if isinstance(parsed, str) else vars(parsed)


# one oracle parser serves every comparison: parse_args leaves it unchanged
_oracle_parser = functools.cache(argparse_oracle.build_parser)


def _parsers_agree(argv) -> bool:
    """Assert that the CLI's parser and argparse read argv alike: both as
    help, both as a usage error, or both as the same command, handler and
    values; return whether they read a namespace."""
    expected = _parsed(_oracle_parser().parse_args, argv, SystemExit)
    assert _parsed(cli._parse, argv, ValueError) == expected, argv
    return isinstance(expected, dict)


def _read_by_version(argv) -> bool:
    """Whether argparse's reading of argv depends on the Python version, so
    that the oracle cannot judge it.  Three splits:

    * a "--" word or value, whose reading changed in 3.13;
      test_dashdash_as_option_value_is_usage_error covers it;
    * on 3.13, a run of short flags with another character after its h's,
      such as -hx: 3.13 prints the help, 3.10-3.12 and the CLI end in a
      usage error;
    * before 3.13, -h= and h's, such as -h=h: 3.10-3.12 print the help,
      3.13 and the CLI end in a usage error."""
    if any("--" in (word, word.partition("=")[2]) for word in argv):
        return True
    if sys.version_info >= (3, 13):
        return any(word[:2] == "-h" and word[2:].lstrip("h")[:1] not in ("", "=", "-") for word in argv)
    return any(word[:3] == "-h=" and set(word[3:]) == {"h"} for word in argv)


@settings(max_examples=500, deadline=None)
@given(_argv().filter(lambda argv: not _read_by_version(argv)))
def test_parser_agrees_with_argparse(argv):
    _parsers_agree(argv)


_VERIFY_TOKENS = ["-h", "--help", "--help=x", "--he=1", "--=x", "-hh", "-hx", "--g", "--g=3", "3", "x", "--check",
                  "--check=grr", "grr", "--gmax", "--format=json", "--bogus", "--"]


def test_parser_agrees_with_argparse_on_every_short_verify_vector():
    # every verify argument vector of at most three of the tokens: help
    # options with "=", short flag runs and ambiguous prefixes among them
    vectors = [["verify", *words] for k in range(4) for words in product(_VERIFY_TOKENS, repeat=k)]
    assert len(vectors) == 6175
    for argv in vectors:
        if not _read_by_version(argv):
            _parsers_agree(argv)


_RULE_CASES = [
    (["reduce", "--g", "3", "--mono", "l1^6"], True),
    (["verify", "--ch=grr", "--gm", "3"], True),
    (["reduce", "--g", "3", "--monomial", "-l1 + l2"], True),
    (["reduce", "--g", "3", "--monomial=-l1"], True),
    (["reduce", "--g", "3", "--monomial", "-l1"], False),
    (["reduce", "--g", "3", "--monomial", "-"], True),
    (["satake", "--g", "3", "--i", "-1"], True),
    (["satake", "--g", "3", "--i", "-.5"], False),
    (["zeta", "--g", "2", "--g", "3", "--format", "text", "--form", "json"], True),
    (["verify", "--check", "grr", "--gmax", "2", "--g", "3"], False),
    (["constant", "--g", "2", "x"], False),
    (["constant", "--g"], False),
    (["constant", "--g="], False),
    (["--help=x"], False),
    (["--=x"], False),
    (["verify", "--help=x"], False),
    (["verify", "--he=1"], False),
    (["verify", "-h", "--=x"], False),
]


@pytest.mark.parametrize("argv, accepted", _RULE_CASES, ids=[" ".join(argv) for argv, _ in _RULE_CASES])
def test_parser_rules_agree_with_argparse(argv, accepted):
    assert _parsers_agree(argv) is accepted


# (argv, the value help ignores in the usage error, or None for the help)
_SHORT_RUNS = [
    (["-hh"], None),
    (["verify", "-hh"], None),
    (["verify", "-hh", "--bogus"], None),
    (["-hx"], "x"),
    (["verify", "-hx"], "x"),
    (["verify", "-hhx"], "x"),
    (["verify", "-hx", "-h"], "x"),
    (["verify", "-h=h"], "h"),
]


@pytest.mark.parametrize("argv, ignored", _SHORT_RUNS, ids=[" ".join(argv) for argv, _ in _SHORT_RUNS])
def test_short_help_runs(capsys, argv, ignored):
    code, out, err = run_cli(capsys, *argv)
    if ignored is None:
        assert (code, err) == (0, "") and out.startswith("usage: abtaut ")
    else:
        message = f"abtaut: error: argument -h/--help: ignored explicit argument {ignored!r}\n"
        assert (code, out, err) == (2, "", message)
    if not _read_by_version(argv):
        _parsers_agree(argv)


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["verify", "--help"], ["reduce", "--g", "3", "--h"]])
def test_help_lists_the_commands_and_their_options(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    commands = cli._COMMANDS if len(argv) == 1 else [argv[0]]
    for command in commands:
        assert f"\n{command}: " in out
        assert all(f"  {option} " in out for option in cli._COMMANDS[command][2])
