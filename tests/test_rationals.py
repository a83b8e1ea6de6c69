import sys
import threading
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb, factorial

import pytest

from abtaut import bernoulli, boundary_constant, cli, rationals, zeta_negative_odd
from argument_contract import rejects
from tangent_oracle import _tangent_numbers, bernoulli_table


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
    assert _tangent_numbers(6) == [0, 1, 2, 16, 272, 7936, 353792]


def test_bernoulli_matches_tangent_oracle():
    oracle = bernoulli_table(cli.MAX_BERNOULLI_N)
    for n in [*range(0, 1001, 2), *range(1100, cli.MAX_BERNOULLI_N + 1, 100)]:
        assert bernoulli(n) == oracle[n], n


def _no_helper(*args, **kwargs):
    raise AssertionError("a rationals helper was called")


def test_tangent_oracle_shares_no_code_with_bernoulli(monkeypatch):
    # the library's B_0..B_400, then the tangent-number route with every
    # private helper of rationals raising and its memo emptied
    answers = [bernoulli(n) for n in range(401)]
    helpers = [name for name, value in vars(rationals).items() if name.startswith("_") and callable(value) and name != "_require_int"]
    assert {"_pi_bounds", "_zeta_bounds", "_staudt_denominator", "_settle", "_even_bernoulli"} <= set(helpers)
    with monkeypatch.context() as m:
        for name in helpers:
            m.setattr(rationals, name, _no_helper)
        m.setattr(rationals, "_bernoulli_cache", {})
        with pytest.raises(AssertionError, match="a rationals helper was called"):
            bernoulli(12)
        assert bernoulli_table(400) == answers


def pi_floor(bits: int) -> int:
    """floor(pi 2^bits) by the decimal module's own series for pi (the recipe
    in its documentation), carried with 30 spare digits."""
    with localcontext() as ctx:
        ctx.prec = bits * 302 // 1000 + 30
        lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
        return int(s * (1 << bits))


def test_pi_bounds_every_precision():
    top = 2000
    reference = pi_floor(top)
    for precision in range(top + 1):
        lo, hi = rationals._pi_bounds(precision)
        floor = reference >> (top - precision)
        # pi 2^precision is never an integer, so it lies in (floor, floor + 1)
        assert 0 < lo <= floor < hi, precision


def test_zeta_bounds_every_precision():
    # zeta(n) = |B_n| (2 pi)^n / (2 n!), with pi 2^top in (floor, floor + 1)
    top = 600
    floor = pi_floor(top)
    table = bernoulli_table(100)
    for n in (2, 4, 6, 10, 36, 100):
        scale = 2 * factorial(n) << (top * n)
        below = abs(table[n]) * (2 * floor) ** n / scale
        above = abs(table[n]) * (2 * floor + 2) ** n / scale
        # the partial sum runs to about 2^(precision / n) terms
        for precision in range(min(12 * n, 500)):
            lo, hi = rationals._zeta_bounds(n, precision)
            assert lo <= below * 2**precision and above * 2**precision <= hi, (n, precision)


def test_power_bounds_against_exact_powers():
    for n in (1, 2, 3, 4, 6, 10, 36, 100, 401, 800):
        for precision in range(0, 48):
            lo, hi = rationals._pi_bounds(precision)
            low, high = rationals._power_bounds(2 * lo, 2 * hi, n, precision)
            shift = precision * (n - 1)
            assert low << shift <= (2 * lo) ** n, (n, precision)
            assert (2 * hi) ** n <= high << shift, (n, precision)


@pytest.mark.parametrize("n", [2, 4, 6, 10, 36, 100, 400, 800])
def test_numerator_bounds_every_precision(n):
    # |B_n| D_n = 2 n! D_n zeta(n) / (2 pi)^n with D_n from von Staudt-Clausen;
    # the bounds must hold at every precision the route could try, not only
    # where they meet
    expected = bernoulli_table(n)[n]
    denominator = rationals._staudt_denominator(n)
    assert expected.denominator == denominator
    numerator = abs(expected.numerator)
    scale = 2 * factorial(n) * denominator
    settled, precision = rationals._settle(scale, n)
    assert settled == numerator
    for p in range(precision + 1):
        lo, hi = rationals._interval(scale, n, p)
        assert lo <= numerator <= hi, p
    assert lo == hi


@pytest.fixture
def cold_bernoulli_memo():
    """Empty the Bernoulli memo for one test and put it back afterwards."""
    saved = dict(rationals._bernoulli_cache)
    rationals._bernoulli_cache.clear()
    yield
    rationals._bernoulli_cache.clear()
    rationals._bernoulli_cache.update(saved)


def test_bernoulli_memo_order_and_threads(cold_bernoulli_memo):
    ns = (800, 10, 799, 11, 2)
    forward = [bernoulli(n) for n in ns]
    rationals._bernoulli_cache.clear()
    backward = [bernoulli(n) for n in reversed(ns)][::-1]
    assert forward == backward
    rationals._bernoulli_cache.clear()
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


def test_bernoulli_recurrence_property():
    for n in range(1, 41):
        assert sum(comb(n + 1, k) * bernoulli(k) for k in range(n + 1)) == 0


def test_bernoulli_rejects_negative():
    with rejects(bernoulli, "n", (-1,)):
        bernoulli(-1)


def test_is_prime_against_a_sieve():
    limit = 10 ** 4
    sieve = [False, False] + [True] * (limit - 1)
    for p in range(2, 101):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(range(p * p, limit + 1, p))
    assert [rationals._is_prime(p) for p in range(-3, limit + 1)] == [False] * 3 + sieve


@pytest.mark.parametrize("function, name", [(bernoulli, "n"), (zeta_negative_odd, "g"), (boundary_constant, "g")])
@pytest.mark.parametrize("value", [2.0, "4", True, False, None, Fraction(4), 4 + 0j])
def test_scalars_reject_non_integers(function, name, value):
    with pytest.raises(TypeError, match=rf"^{function.__name__} requires an int {name}, got "):
        function(value)


def test_zeta_values():
    assert zeta_negative_odd(1) == Fraction(-1, 12)
    assert zeta_negative_odd(2) == Fraction(1, 120)
    assert zeta_negative_odd(3) == Fraction(-1, 252)


def test_zeta_rejects_zero():
    with rejects(zeta_negative_odd, "g", (0,)):
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
    with rejects(boundary_constant, "g", (0,)):
        boundary_constant(0)


def test_serialization_format():
    assert str(Fraction(-691, 2730)) == "-691/2730"
    assert str(Fraction(12, 1)) == "12"
    assert Fraction("-691/2730") == Fraction(-691, 2730)
