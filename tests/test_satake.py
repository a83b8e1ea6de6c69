from fractions import Fraction

import pytest

from abtaut import satake
from abtaut import (
    consistency_report,
    leading_stratum_constants,
    p_rank_constant,
    recursion_check,
    stratum_constant,
    stratum_table,
    zeta_negative_odd,
)
from argument_contract import rejects


# -- p-rank constant -----------------------------------------------------------


def test_p_rank_examples():
    assert p_rank_constant(1, 2) == 1
    assert p_rank_constant(2, 2) == 3
    assert p_rank_constant(3, 2) == 21


@pytest.mark.parametrize("p", [2, 3, 5])
def test_p_rank_against_direct_evaluation(p):
    for g in range(1, 11):
        expected = 1
        power = 1
        for j in range(1, g + 1):
            power *= p
            expected *= power - 1
        assert p_rank_constant(g, p) == expected


def test_p_rank_divisibility():
    for p in (2, 3, 5):
        for g in range(2, 11):
            assert p_rank_constant(g, p) > 0
            assert p_rank_constant(g, p) % p_rank_constant(g - 1, p) == 0


def test_p_rank_rejects_non_primes():
    for bad in (0, 1, 4, 9, 15):
        with pytest.raises(ValueError):
            p_rank_constant(2, bad)
    with pytest.raises(ValueError):
        p_rank_constant(0, 2)


# -- stratum constants -----------------------------------------------------------


def test_stratum_index_zero():
    for g in (1, 3, 7):
        expr = stratum_constant(g, 0)
        assert expr.coefficient == 1
        assert expr.label == ()


def test_stratum_examples():
    expr = stratum_constant(2, 2)
    assert expr.coefficient == -1440
    assert expr.label == (1, 2)
    expr = stratum_constant(3, 1)
    assert expr.coefficient == 252
    assert expr.label == (3,)


def test_stratum_label_shape():
    for g in range(1, 13):
        for i in range(g + 1):
            label = stratum_constant(g, i).label
            assert len(label) == i
            assert all(x > g - i for x in label)
            assert label == tuple(range(g - i + 1, g + 1))


def test_stratum_rejects_out_of_range():
    with pytest.raises(ValueError):
        stratum_constant(3, 4)
    with pytest.raises(ValueError):
        stratum_constant(3, -1)


# -- the divisor-route pair -------------------------------------------------------


def test_leading_constants_genus_one():
    (first,) = leading_stratum_constants(1)
    assert first.coefficient == 12
    assert first.label == (1,)


def test_leading_constants_genus_two():
    first, second = leading_stratum_constants(2)
    assert first.coefficient == 120
    assert second.coefficient == -1440
    assert second.label == (1, 2)


def test_leading_constants_genus_three():
    first, _ = leading_stratum_constants(3)
    assert first.coefficient == -1 / zeta_negative_odd(3) == 252


@pytest.mark.parametrize("g", list(range(2, 13)))
def test_second_constant_matches_closed_form(g):
    _, second = leading_stratum_constants(g)
    assert stratum_constant(g, 2).coefficient == second.coefficient


# -- consistency and recursion ------------------------------------------------------


@pytest.mark.parametrize("g", list(range(2, 13)))
def test_consistency_parity(g):
    report = consistency_report(g)
    by_index = {c.stratum_index: c for c in report.comparisons}
    assert by_index[2].equal
    if g % 2 == 0:
        assert not by_index[1].equal
        assert by_index[1].factor == -1
    else:
        assert by_index[1].equal
        assert by_index[1].factor == 1


def test_consistency_requires_genus_two():
    with pytest.raises(ValueError):
        consistency_report(1)


@pytest.mark.parametrize("g", [1, 3, 6, 12])
def test_recursion_check(g):
    report = recursion_check(g)
    assert report.ok
    assert [i for i, _ in report.steps] == list(range(1, g + 1))
    assert all(flag for _, flag in report.steps)


@pytest.mark.parametrize("g", [1, 2, 7, 20])
def test_recursion_builds_each_constant_once(g, monkeypatch):
    calls = []

    def counted(genus, i):
        calls.append((genus, i))
        return stratum_constant(genus, i)

    monkeypatch.setattr(satake, "stratum_constant", counted)
    report = recursion_check(g)
    assert report.ok
    assert sorted(calls) == [(g, i) for i in range(g + 1)]


def test_recursion_single_step_value():
    # g = 1: the i = 1 constant is -1/zeta(-1) = 12
    assert stratum_constant(1, 1).coefficient == Fraction(-1) / zeta_negative_odd(1) == 12


# -- table emission -------------------------------------------------------------


def test_stratum_table_rows():
    rows = stratum_table(2)
    assert rows == [
        {"g": 2, "i": 0, "coefficient": "1", "label": [], "matches_thm34": None},
        {"g": 2, "i": 1, "coefficient": "-120", "label": [2], "matches_thm34": False},
        {"g": 2, "i": 2, "coefficient": "-1440", "label": [1, 2], "matches_thm34": True},
    ]


def test_stratum_table_single_row():
    rows = stratum_table(3, 1)
    assert rows == [{"g": 3, "i": 1, "coefficient": "252", "label": [3], "matches_thm34": True}]


_INT_ARGUMENTS = [
    (p_rank_constant, "g", (2, 3), 0),
    (p_rank_constant, "p", (2, 3), 1),
    (stratum_constant, "g", (3, 1), 0),
    (stratum_constant, "i", (3, 1), 1),
    (leading_stratum_constants, "g", (3,), 0),
    (consistency_report, "g", (3,), 0),
    (recursion_check, "g", (3,), 0),
    (stratum_table, "g", (3,), 0),
    (stratum_table, "i", (3, 1), 1),
]


@pytest.mark.parametrize(
    "function, name, args",
    [
        (function, name, args[:at] + (value,) + args[at + 1 :])
        for function, name, args, at in _INT_ARGUMENTS
        for value in [2.0, 2.5, "3", True, False, None, Fraction(3), 3 + 0j]
        if not (function is stratum_table and name == "i" and value is None)
    ]
    + [
        (p_rank_constant, "g", (0, 3)),
        (stratum_constant, "g", (0, 0)),
        (leading_stratum_constants, "g", (0,)),
        (consistency_report, "g", (1,)),
        (recursion_check, "g", (0,)),
        (stratum_table, "g", (0,)),
    ],
)
def test_satake_rejects_non_integers(function, name, args):
    with rejects(function, name, args):
        function(*args)
