import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import cache
from math import comb, factorial

import pytest
from argument_contract import rejects

from abtaut import (
    boundary_constant,
    grr_coefficient,
    grr_report,
    pushforward,
    sum_powers_quotient,
    zeta_negative_odd,
)
from abtaut import graded
from abtaut.boundary import boundary_ring
from abtaut.cli import MAX_GRR_GENUS


@cache
def brute_quotient_terms(k):
    """Oracle: expand sum_j (-1)^j Pi^j (-Pi - 2T)^(2k-2-j) with plain binomials."""
    terms = {}
    for j in range(2 * k - 1):
        m = 2 * k - 2 - j
        for r in range(m + 1):
            coeff = (-1) ** j * comb(m, r) * (-1) ** (m - r) * (-2) ** r
            key = (j + m - r, r)
            terms[key] = terms.get(key, 0) + coeff
    return {key: Fraction(value) for key, value in terms.items() if value}


def closed_form_quotient_terms(k):
    """Oracle: with b = Pi + 2T, the quotient is (b^(2k-1) - Pi^(2k-1)) / (b - Pi),
    whose Pi^(2k-2-r) T^r coefficient is C(2k-1, r+1) 2^r."""
    return {(2 * k - 2 - r, r): Fraction(comb(2 * k - 1, r + 1) << r) for r in range(2 * k - 1)}


@pytest.fixture
def cold_quotients():
    """Empty the quotient cache before and after one test."""
    sum_powers_quotient.cache_clear()
    yield
    sum_powers_quotient.cache_clear()


# -- pushforward -------------------------------------------------------------


def test_pushforward_unit_genus_one():
    assert pushforward(1, boundary_ring().one).delta_coefficient == 1


def test_pushforward_examples():
    pi, t = boundary_ring().gens()
    assert pushforward(2, pi ** 2).delta_coefficient == -2
    assert pushforward(3, pi ** 3 * t).delta_coefficient == 0


def test_pushforward_kills_wrong_degrees():
    pi, t = boundary_ring().gens()
    assert pushforward(3, pi ** 2).delta_coefficient == 0  # degree 2 != 4
    assert pushforward(2, t ** 2).delta_coefficient == 0
    assert pushforward(2, pi ** 5).delta_coefficient == 0


def test_pushforward_is_linear():
    pi, t = boundary_ring().gens()
    p = pi ** 2 * 3 + pi * t * 7 - t ** 2
    assert pushforward(2, p).delta_coefficient == 3 * -2


def test_pushforward_rejects_wrong_alphabet():
    from abtaut import GradedRing

    with pytest.raises(ValueError):
        pushforward(2, GradedRing(("a", "b"), (1, 1), None).one)
    # a bounded copy of the Pi, T ring is another ring
    bounded = boundary_ring().with_bound(2)
    message = r"^pushforward expects a polynomial of GradedRing\(Pi:1, T:1; bound=inf\), got one of .*bound=2\)$"
    with pytest.raises(ValueError, match=message):
        pushforward(2, bounded.gen(0) ** 2)


# -- the quotient term --------------------------------------------------------


def test_quotient_k1_is_one():
    assert sum_powers_quotient(1).poly == boundary_ring().one


def test_quotient_k2_hand_expansion():
    q = sum_powers_quotient(2).poly
    assert q.coefficient((2, 0)) == 3
    assert q == boundary_ring().parse("3*Pi^2 + 6*Pi*T + 4*T^2")


@pytest.mark.parametrize("k", [*range(1, 41), 60, 80, 100, 150, 200])
def test_quotient_against_brute_force(k):
    assert sum_powers_quotient(k).poly.terms == brute_quotient_terms(k)


def test_quotient_closed_form_up_to_200():
    for k in range(1, 201):
        assert sum_powers_quotient(k).poly.terms == closed_form_quotient_terms(k), k
    for k in (1, 2, 7, 40):
        assert brute_quotient_terms(k) == closed_form_quotient_terms(k)


@pytest.mark.parametrize("k", list(range(1, 11)))
def test_quotient_pure_pi_coefficient(k):
    assert sum_powers_quotient(k).poly.coefficient((2 * k - 2, 0)) == 2 * k - 1


def test_quotient_division_exact_up_to_twenty():
    # Q_k (a1 + a2) = a1^(2k-1) + a2^(2k-1), by the engine's binary powering
    pi, t = boundary_ring().gens()
    a1, a2 = pi, -pi - 2 * t
    for k in range(1, 21):
        assert sum_powers_quotient(k).poly * (a1 + a2) == a1 ** (2 * k - 1) + a2 ** (2 * k - 1), k


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_quotient_any_fill_order(cold_quotients, order):
    ks = list(range(1, 101))
    if order == "descending":
        ks.reverse()
    elif order == "shuffled":
        random.Random(2004).shuffle(ks)
    for k in ks:
        assert sum_powers_quotient(k).poly.terms == brute_quotient_terms(k), k
    assert sum_powers_quotient.cache_info().currsize == 100


def test_quotient_cold_from_threads(cold_quotients):
    ks = [100 - 7 * i for i in range(8)]
    start = threading.Barrier(len(ks))

    def cold_call(k):
        start.wait(timeout=60)
        return sum_powers_quotient(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(ks)) as pool:
            quotients = list(pool.map(cold_call, ks, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for k, quotient in zip(ks, quotients):
        assert quotient.poly.terms == brute_quotient_terms(k), k


def test_quotient_needs_no_engine_products(cold_quotients, monkeypatch):
    # the quotients are read off the binomial theorem, not multiplied out
    def no_products(*args):
        raise AssertionError("sum_powers_quotient used the graded engine")

    monkeypatch.setattr(graded._Kernel, "mul", no_products)
    monkeypatch.setattr(graded.GradedPolynomial, "__mul__", no_products)
    monkeypatch.setattr(graded.GradedPolynomial, "__pow__", no_products)
    for k in range(1, 101):
        assert sum_powers_quotient(k).poly.terms == brute_quotient_terms(k), k


def test_quotient_cold_needs_no_recursion(cold_quotients):
    # a fill that recursed once per power would need 200 frames here
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        quotient = sum_powers_quotient(200)
    finally:
        sys.setrecursionlimit(limit)
    assert quotient.poly.coefficient((398, 0)) == 399
    assert len(quotient.poly.terms) == 399


def test_quotient_cache_counts_hits():
    # bench/tracing.py reads these statistics
    sum_powers_quotient(7)
    before = sum_powers_quotient.cache_info()
    sum_powers_quotient(7)
    after = sum_powers_quotient.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_quotient_rejects_k_zero():
    with pytest.raises(ValueError):
        sum_powers_quotient(0)


# -- the binomial identity -----------------------------------------------------


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_binomial_identity(g):
    # (-1)^(g-1) Pi^(g-1) (-Pi - 2T)^(g-1) = sum_r C(g-1, r) Pi^(2g-2-r) (2T)^r,
    # the left side by the engine's powers and products
    pi, t = boundary_ring().gens()
    lhs = (-1) ** (g - 1) * pi ** (g - 1) * (-pi - 2 * t) ** (g - 1)
    assert lhs.terms == {(2 * g - 2 - r, r): comb(g - 1, r) << r for r in range(g)}


# -- the coefficient pipeline ---------------------------------------------------


def test_grr_degree_facts_up_to_the_cap():
    # grr_coefficient pushes Q_g alone and does not re-check these facts
    for g in range(1, MAX_GRR_GENUS + 1):
        for k in range(1, g):
            assert pushforward(g, sum_powers_quotient(k)).delta_coefficient == 0, (g, k)
        matched = sum_powers_quotient(g).poly
        for exps, coeff in matched.terms.items():
            if exps[1]:
                assert pushforward(g, matched.ring.monomial(exps, coeff)).delta_coefficient == 0, (g, exps)
        assert matched.coefficient((2 * g - 2, 0)) == 2 * g - 1, g


def test_grr_coefficient_small_genera():
    assert grr_coefficient(1) == Fraction(-1, 12)
    assert grr_coefficient(2) == Fraction(1, 120)
    assert grr_coefficient(3) == Fraction(-1, 252)


def test_grr_coefficient_chain_genus_three():
    # (-1) * (1/42) / 6! * 5 * 24 = -1/252
    assert grr_coefficient(3) == Fraction(-1) * Fraction(1, 42) / factorial(6) * 5 * 24


@pytest.mark.parametrize("g", list(range(1, 21)))
def test_grr_magnitude_and_sign(g):
    q = grr_coefficient(g)
    assert abs(q) == boundary_constant(g)
    assert q == zeta_negative_odd(g)


def test_grr_report_genus_one():
    report = grr_report(1)
    assert report.magnitude_ok and report.ok
    assert report.sign_matches_zeta
    assert not report.sign_matches_theorem
    assert report.as_payload() == {
        "g": 1,
        "q": "-1/12",
        "magnitude_ok": True,
        "sign_matches_theorem": False,
        "sign_matches_zeta": True,
    }


def test_grr_report_genus_two_both_signs():
    report = grr_report(2)
    assert report.magnitude_ok and report.sign_matches_theorem and report.sign_matches_zeta


def test_grr_report_genus_ten():
    assert grr_report(10).magnitude_ok


def test_grr_rejects_genus_zero():
    with pytest.raises(ValueError):
        grr_coefficient(0)


@pytest.mark.parametrize(
    "function, name, rest",
    [
        (pushforward, "g", (boundary_ring().one,)),
        (sum_powers_quotient, "k", ()),
        (grr_coefficient, "g", ()),
        (grr_report, "g", ()),
    ],
)
@pytest.mark.parametrize("value", [2.0, 2.5, "3", True, False, None, Fraction(3), 3 + 0j, 0])
def test_boundary_rejects_non_integers(function, name, rest, value):
    with rejects(function, name, (value, *rest)):
        function(value, *rest)
