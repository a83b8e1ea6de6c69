import sys
import threading
from fractions import Fraction
from math import comb

import pytest

from abtaut import bernoulli, boundary_constant, rationals, zeta_negative_odd


def akiyama_tanigawa(n: int) -> list[Fraction]:
    """Independent oracle: Bernoulli numbers by the Akiyama-Tanigawa triangle.

    The triangle yields the convention B_1 = +1/2; the implementation under
    test uses B_1 = -1/2, so index 1 is negated before comparing.
    """
    a = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    if n >= 1:
        out[1] = -out[1]
    return out


def test_bernoulli_constant_term():
    assert bernoulli(0) == 1


def test_bernoulli_odd_vanish():
    assert bernoulli(3) == 0
    for n in range(3, 42, 2):
        assert bernoulli(n) == 0


def test_bernoulli_twelve():
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_sign_convention():
    assert bernoulli(1) == Fraction(-1, 2)


def test_bernoulli_against_independent_triangle():
    oracle = akiyama_tanigawa(200)
    for n in range(201):
        assert bernoulli(n) == oracle[n], n


def test_tangent_numbers_small():
    # tan t = t + 2 t^3/3! + 16 t^5/5! + ...
    assert rationals._tangent_numbers(6) == [0, 1, 2, 16, 272, 7936, 353792]


@pytest.fixture
def cold_bernoulli_memo():
    """Empty the Bernoulli memo for one test and put it back afterwards."""
    saved = list(rationals._bernoulli_cache)
    del rationals._bernoulli_cache[1:]
    yield
    rationals._bernoulli_cache[:] = saved


def test_bernoulli_memo_order_and_threads(cold_bernoulli_memo):
    ns = (800, 10, 799, 11, 2)
    forward = [bernoulli(n) for n in ns]
    del rationals._bernoulli_cache[1:]
    backward = [bernoulli(n) for n in reversed(ns)][::-1]
    assert forward == backward
    del rationals._bernoulli_cache[1:]
    # four threads on a cold memo, half asking for B_10 first and half for B_800
    results: dict[int, list[Fraction]] = {}
    start = threading.Barrier(4)

    def worker(i):
        start.wait(timeout=60)
        results[i] = [bernoulli(n) for n in ns[i % 2 :] + ns[: i % 2]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i in range(4):
        assert results[i] == forward[i % 2 :] + forward[: i % 2], i
    assert len(rationals._bernoulli_cache) == 801


def test_bernoulli_recurrence_property():
    for n in range(1, 41):
        assert sum(comb(n + 1, k) * bernoulli(k) for k in range(n + 1)) == 0


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_zeta_values():
    assert zeta_negative_odd(1) == Fraction(-1, 12)
    assert zeta_negative_odd(2) == Fraction(1, 120)
    assert zeta_negative_odd(3) == Fraction(-1, 252)


def test_zeta_rejects_zero():
    with pytest.raises(ValueError):
        zeta_negative_odd(0)


def test_boundary_constant_values():
    assert boundary_constant(1) == Fraction(1, 12)
    assert boundary_constant(2) == Fraction(1, 120)
    assert boundary_constant(3) == Fraction(1, 252)


def test_boundary_constant_positive_and_closed_form():
    for g in range(1, 26):
        c = boundary_constant(g)
        assert c > 0
        assert c == (-1) ** (g + 1) * bernoulli(2 * g) / (2 * g)


def test_boundary_constant_integer_reciprocals():
    # asserted only for these three genera
    for g, value in ((1, 12), (2, 120), (3, 252)):
        reciprocal = 1 / boundary_constant(g)
        assert reciprocal.denominator == 1
        assert reciprocal == value


def test_boundary_constant_rejects_zero():
    with pytest.raises(ValueError):
        boundary_constant(0)


def test_serialization_format():
    assert str(Fraction(-691, 2730)) == "-691/2730"
    assert str(Fraction(12, 1)) == "12"
    assert Fraction("-691/2730") == Fraction(-691, 2730)
