from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial

import newton_oracle
import pytest
import roots_oracle
from argument_contract import rejects

from abtaut import (
    BundleClasses,
    GradedRing,
    borel_serre_check,
    chern_character,
    dual_bundle,
    exterior_alternating_sum_dual,
    graded_exp,
    named_series,
    newton_power_sums,
    symmetric_to_elementary,
    todd,
    todd_dual,
)
from abtaut import charclass
from abtaut.charclass import (
    _elementary_expansions,
    _multiplicative_class,
    _pack,
    _partitions,
    _to_elementary,
    _unpack,
    elementary_symmetric,
)


def root_ring(g, bound):
    return GradedRing(tuple(f"x{i}" for i in range(1, g + 1)), (1,) * g, bound)


def explicit_power_sum(ring, k):
    """Oracle: sum of k-th powers of the root variables, written out directly."""
    acc = ring.zero
    for i in range(ring.ngens):
        acc = acc + ring.gen(i) ** k
    return acc


# -- Newton power sums -----------------------------------------------------


def test_newton_small_cases():
    b = BundleClasses.generators(3)
    c1, c2, c3 = b.ring.gens()
    ps = newton_power_sums(b, 3)
    assert ps[0] == 3
    assert ps[1] == c1
    assert ps[2] == c1 * c1 - 2 * c2
    assert ps[3] == c1 ** 3 - 3 * c1 * c2 + 3 * c3


def test_newton_on_roots_bundle_is_sum_of_powers():
    b = BundleClasses.from_roots(3, bound=6)
    ps = newton_power_sums(b, 6)
    assert ps[0] == 3
    for k in range(1, 7):
        assert ps[k] == explicit_power_sum(b.ring, k), k


def test_dual_of_roots_bundle_negates_the_roots():
    b = BundleClasses.from_roots(3)
    negated = [-x for x in b.ring.gens()]
    dual = dual_bundle(b)
    for i in range(3):
        assert dual.chern[i] == b.chern[i].substitute(negated, b.ring), i


def newton_cases():
    for g in range(1, 7):
        b = BundleClasses.generators(g)
        yield pytest.param(b, b.ring.bound + 3, id=f"generators-{g}")
    for g in range(1, 5):
        b = BundleClasses.from_roots(g)
        yield pytest.param(b, b.ring.bound + 3, id=f"roots-{g}")
    R = GradedRing(("x", "y"), (1, 1))
    x, y = R.gens()
    yield pytest.param(BundleClasses(2, (x + y, x * y), R), 6, id="two-lines-unbounded")


@pytest.mark.parametrize("b,k_max", newton_cases())
def test_newton_matches_recursion_oracle(b, k_max):
    ps = newton_power_sums(b, k_max)
    expected = newton_oracle.power_sums(b, k_max)
    assert len(ps) == len(expected) == k_max + 1
    for k, (p, q) in enumerate(zip(ps, expected)):
        assert p.ring == q.ring == b.ring, k
        assert p.terms == q.terms, k


def test_newton_requires_positive_k_max():
    with pytest.raises(ValueError, match="k_max"):
        newton_power_sums(BundleClasses.generators(2), 0)


def test_classes_require_a_bounded_ring():
    R = GradedRing(("x",), (1,))
    line = BundleClasses(1, (R.gen(0),), R)
    for f in (chern_character, todd, todd_dual):
        with pytest.raises(ValueError, match="a truncation bound is required"):
            f(line)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_newton_consistency_with_explicit_roots(g):
    # substituting the elementary symmetrics of explicit roots into p_k must
    # reproduce sum_j x_j^k exactly
    bound = 10
    b = BundleClasses.generators(g, bound=bound)
    ps = newton_power_sums(b, bound)
    roots = root_ring(g, bound)
    images = [elementary_symmetric(roots, i) for i in range(1, g + 1)]
    for k in range(1, 11):
        assert ps[k].substitute(images, roots) == explicit_power_sum(roots, k), (g, k)


# -- Chern character -------------------------------------------------------


def test_chern_character_line_bundle():
    b = BundleClasses.generators(1, bound=2, prefix="x")
    x = b.ring.gen(0)
    assert chern_character(b) == 1 + x + x * x / 2


def test_chern_character_additive_on_direct_sums():
    # L1 + L2 has Chern classes (x + y, x y)
    R = GradedRing(("x", "y"), (1, 1), 5)
    x, y = R.gens()
    lines = BundleClasses(2, (x + y, x * y), R)
    l1 = BundleClasses(1, (x,), R)
    l2 = BundleClasses(1, (y,), R)
    assert chern_character(lines) == chern_character(l1) + chern_character(l2)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_chern_character_of_roots_bundle_is_sum_of_exponentials(g):
    # oracle route: ch(E) = sum_j e^{x_j}, written out with graded_exp
    b = BundleClasses.from_roots(g)
    expected = b.ring.zero
    for i in range(g):
        expected = expected + graded_exp(b.ring.gen(i))
    assert chern_character(b) == expected


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_chern_character_plus_dual_is_even(g):
    b = BundleClasses.generators(g)
    total = chern_character(b) + chern_character(dual_bundle(b))
    for d in range(1, b.ring.bound + 1, 2):
        assert not total.homogeneous_part(d), (g, d)


# -- Todd classes ----------------------------------------------------------


def test_todd_dual_line_bundle():
    b = BundleClasses.generators(1, bound=2, prefix="x")
    x = b.ring.gen(0)
    assert todd_dual(b) == 1 - x / 2 + x * x / 12


def test_todd_dual_line_bundle_bernoulli_coefficients():
    bound = 12
    b = BundleClasses.generators(1, bound=bound, prefix="x")
    series = named_series("todd_dual_gen", bound)
    value = todd_dual(b)
    for k in range(bound + 1):
        assert value.coefficient((k,)) == series[k]


def test_todd_of_zero_bundle():
    R = GradedRing(("x",), (1,), 3)
    zero_bundle = BundleClasses(0, (), R)
    assert todd(zero_bundle) == 1
    assert todd_dual(zero_bundle) == 1


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_todd_dual_equals_todd_of_dual(g):
    b = BundleClasses.generators(g)
    assert todd_dual(b) == todd(dual_bundle(b))


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_todd_root_route_oracle(g):
    # oracle route: evaluate log(t/(1 - e^{-t})) at each explicit root,
    # exponentiate, and convert; no Newton identities anywhere
    bound = g * (g + 1) // 2
    roots = root_ring(g, bound)
    series = named_series("log_todd_gen", bound)
    log_total = roots.zero
    for i in range(g):
        x = roots.gen(i)
        for k in range(1, bound + 1):
            log_total = log_total + x ** k * series[k]
    via_roots = symmetric_to_elementary(graded_exp(log_total))
    assert via_roots == todd(BundleClasses.generators(g, bound=bound)), g


# -- duals -----------------------------------------------------------------


def test_dual_small_cases():
    b1 = BundleClasses.generators(1)
    assert dual_bundle(b1).chern[0] == -b1.ring.gen(0)
    b2 = BundleClasses.generators(2)
    c1, c2 = b2.ring.gens()
    assert dual_bundle(b2).chern == (-c1, c2)


def test_dual_is_involution():
    b = BundleClasses.generators(4)
    assert dual_bundle(dual_bundle(b)).chern == b.chern


# -- exterior powers and the two-route check --------------------------------


def test_exterior_sum_rank_one():
    # 1 - e^{-x} = c1 - c1^2/2 + c1^3/6 - ...
    value = exterior_alternating_sum_dual(1, bound=4)
    c1 = value.ring.gen(0)
    expected = value.ring.zero
    for k in range(1, 5):
        expected = expected + c1 ** k * Fraction((-1) ** (k + 1), factorial(k))
    assert value == expected


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_exterior_sum_degree_zero_vanishes(g):
    value = exterior_alternating_sum_dual(g, bound=g)
    assert value.constant_term == 0


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_exterior_sum_lowest_term_is_top_chern(g):
    # oracle: expand prod_j (1 - e^{-x_j}); the lowest-degree piece is x1...xg
    value = exterior_alternating_sum_dual(g)
    for d in range(g):
        assert not value.homogeneous_part(d), (g, d)
    top_gen_exps = tuple(0 if i < g - 1 else 1 for i in range(g))
    assert value.homogeneous_part(g) == value.ring.monomial(top_gen_exps)


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_exterior_sum_matches_subset_sum_oracle(g):
    assert exterior_alternating_sum_dual(g).terms == roots_oracle.exterior_alternating_sum_dual(g).terms


def test_exterior_sum_matches_oracle_below_the_socle():
    for g, bound in ((3, 2), (3, 4), (4, 7)):
        value = exterior_alternating_sum_dual(g, bound)
        assert value.ring.bound == bound
        assert value.terms == roots_oracle.exterior_alternating_sum_dual(g, bound).terms


def brute_force_counts(rows, columns):
    """{column sums: number of 0-1 matrices} over every matrix whose rows have the given sums."""
    choices = [list(combinations(range(columns), r)) for r in rows]
    counts = Counter()
    for matrix in product(*choices):
        sums = [0] * columns
        for row in matrix:
            for j in row:
                sums[j] += 1
        counts[tuple(sums)] += 1
    return counts


def conjugate(lam):
    return tuple(sum(1 for v in lam if v > i) for i in range(max(lam, default=0)))


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_zero_one_matrix_counts(g):
    # every e_mu with |mu| <= 6 and parts <= g, on every partition nu with at most g parts
    top, width = 6, 3
    seen = 0
    for key, expansion in _elementary_expansions(g, top, width):
        lam = _unpack(key, g, width)
        brute = brute_force_counts(conjugate(lam), g)
        partitions = _partitions(sum(lam), g)
        sorted_vectors = {tuple(sorted(c, reverse=True)) for c in product(range(top + 1), repeat=g) if sum(c) == sum(lam)}
        assert partitions == sorted(sorted_vectors, reverse=True)
        assert set(expansion) <= {_pack(nu, width) for nu in partitions}
        for nu in partitions:
            orbit = len(set(permutations(nu)))
            assert expansion.get(_pack(nu, width), 0) == orbit * brute[nu], (lam, nu)
        seen += 1
    assert seen == sum(len(_partitions(d, g)) for d in range(top + 1))


def test_to_elementary_rejects_non_dominant_exponents():
    with pytest.raises(ValueError, match="not dominant"):
        _to_elementary(2, {(0, 1): 1})


def test_symmetric_to_elementary_examples():
    R = root_ring(2, 6)
    x1, x2 = R.gens()
    assert str(symmetric_to_elementary(x1 + x2)) == "c1"
    assert str(symmetric_to_elementary(x1 ** 2 + x2 ** 2)) == "-2*c2 + c1^2"
    assert str(symmetric_to_elementary(x1 * x2 * (x1 + x2))) == "c1*c2"


def test_symmetric_to_elementary_matches_newton():
    R = root_ring(2, 6)
    x1, x2 = R.gens()
    b = BundleClasses.generators(2, bound=6)
    assert symmetric_to_elementary(x1 ** 2 + x2 ** 2) == newton_power_sums(b, 2)[2]


def test_symmetric_to_elementary_rejects_asymmetric_input():
    R = root_ring(2, 6)
    x1, _ = R.gens()
    with pytest.raises(ValueError):
        symmetric_to_elementary(x1)


def test_symmetric_to_elementary_round_trip():
    # convert back by substituting the elementary symmetrics for the c_i
    R = root_ring(3, 6)
    x1, x2, x3 = R.gens()
    p = (x1 + x2 + x3) ** 2 + 5 * x1 * x2 * x3
    q = symmetric_to_elementary(p)
    images = [elementary_symmetric(R, i) for i in range(1, 4)]
    assert q.substitute(images, R) == p


def test_symmetric_to_elementary_round_trip_mixed_denominators():
    R = root_ring(3, None)
    x1, x2, x3 = R.gens()
    p = (x1 + x2 + x3) ** 3 / 3 - Fraction(5, 7) * x1 * x2 * x3 + Fraction(1, 2)
    q = symmetric_to_elementary(p)
    assert q.ring.bound is None
    images = [elementary_symmetric(R, i) for i in range(1, 4)]
    assert q.substitute(images, R) == p


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6])
def test_borel_serre_check(g):
    report = borel_serre_check(g)
    assert report.ok
    assert not report.difference
    assert report.genus == g


def test_borel_serre_report_payload():
    payload = borel_serre_check(2).as_payload()
    assert payload == {"g": 2, "ok": True, "difference": "0"}


def _raises(*args, **kwargs):
    raise AssertionError("the other route was called")


def test_two_routes_share_no_code(monkeypatch):
    with monkeypatch.context() as m:
        for name in ("graded_exp", "graded_log", "named_series", "substitute_power_sums", "newton_power_sums"):
            m.setattr(charclass, name, _raises)
        for g in range(1, 6):
            assert exterior_alternating_sum_dual(g).terms == roots_oracle.exterior_alternating_sum_dual(g).terms, g
    with monkeypatch.context() as m:
        for name in ("_to_elementary", "_elementary_expansions", "_partitions"):
            m.setattr(charclass, name, _raises)
        for g in range(1, 6):
            b = BundleClasses.generators(g)
            assert todd(b).constant_term == 1, g
            td_inverse = _multiplicative_class(b, "log_one_minus_exp_neg_over_t")
            assert (todd(b) * td_inverse) == 1, g


NON_INTEGERS = [2.0, 2.5, "3", True, False, None, Fraction(3), 3 + 0j]
_LINE_RING = GradedRing(("x",), (1,), 1)


@pytest.mark.parametrize(
    "function, name, args",
    [
        (function, name, args)
        for value in NON_INTEGERS
        for function, name, args in (
            (borel_serre_check, "g", (value,)),
            (exterior_alternating_sum_dual, "g", (value,)),
            (exterior_alternating_sum_dual, "bound", (2, value)),
        )
        if value is not None or name != "bound"
    ]
    + [
        (function, name, args)
        for value in NON_INTEGERS
        for function, name, args in (
            (BundleClasses.generators, "g", (value,)),
            (BundleClasses.generators, "bound", (2, value)),
            (BundleClasses.from_roots, "g", (value,)),
            (BundleClasses.from_roots, "bound", (2, value)),
            (newton_power_sums, "k_max", (BundleClasses.generators(2), value)),
        )
        if value is not None or name != "bound"
    ]
    + [(BundleClasses, "rank", (value, (), _LINE_RING)) for value in NON_INTEGERS]
    + [
        (borel_serre_check, "g", (0,)),
        (exterior_alternating_sum_dual, "g", (0,)),
        (BundleClasses.generators, "g", (0,)),
        (BundleClasses.from_roots, "g", (0,)),
        (newton_power_sums, "k_max", (BundleClasses.generators(2), 0)),
        (BundleClasses, "rank", (-1, (), _LINE_RING)),
        (exterior_alternating_sum_dual, "bound", (2, -1)),
        (BundleClasses.generators, "bound", (2, -1)),
        (BundleClasses.from_roots, "bound", (2, -1)),
    ],
)
def test_charclass_rejects_non_integers(function, name, args):
    with rejects(function, name, args):
        function(*args)
