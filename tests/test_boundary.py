from fractions import Fraction
from math import comb, factorial

import pytest

from abtaut import (
    binomial_expansion_check,
    boundary_constant,
    grr_coefficient,
    grr_report,
    pushforward,
    sum_powers_quotient,
    zeta_negative_odd,
)
from abtaut.boundary import _divide_by_minus_2t, boundary_ring


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


# -- the quotient term --------------------------------------------------------


def test_quotient_k1_is_one():
    assert sum_powers_quotient(1).poly == boundary_ring().one


def test_quotient_k2_hand_expansion():
    q = sum_powers_quotient(2).poly
    assert q.coefficient((2, 0)) == 3
    assert q == boundary_ring().parse("3*Pi^2 + 6*Pi*T + 4*T^2")


@pytest.mark.parametrize("k", list(range(1, 41)))
def test_quotient_against_brute_force(k):
    assert sum_powers_quotient(k).poly.terms == brute_quotient_terms(k)


@pytest.mark.parametrize("k", list(range(1, 11)))
def test_quotient_pure_pi_coefficient(k):
    assert sum_powers_quotient(k).poly.coefficient((2 * k - 2, 0)) == 2 * k - 1


def test_quotient_division_exact_up_to_twenty():
    # the constructor itself verifies the zero remainder; this must not raise
    for k in range(1, 21):
        sum_powers_quotient(k)


def test_quotient_division_guard_rejects_inexact():
    pi, t = boundary_ring().gens()
    assert _divide_by_minus_2t(pi * t * 4 - t ** 2 * 2) == boundary_ring().parse("-2*Pi + T")
    for numerator in (pi, pi * t + 1, pi ** 3 + t):
        with pytest.raises(ArithmeticError):
            _divide_by_minus_2t(numerator)


def test_quotient_rejects_k_zero():
    with pytest.raises(ValueError):
        sum_powers_quotient(0)


# -- binomial expansion check -------------------------------------------------


def test_binomial_expansion_genus_one():
    report = binomial_expansion_check(1)
    assert report.ok and report.lhs == 1 and report.rhs == 1


def test_binomial_expansion_genus_two():
    report = binomial_expansion_check(2)
    assert report.ok
    assert report.lhs == boundary_ring().parse("Pi^2 + 2*Pi*T")


@pytest.mark.parametrize("g", [3, 4, 5])
def test_binomial_expansion_larger(g):
    assert binomial_expansion_check(g).ok


# -- the coefficient pipeline ---------------------------------------------------


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
