import functools
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial

import graded_oracle
import newton_oracle
import pytest
import roots_oracle
from argument_contract import rejects
from hypothesis import given, settings
from hypothesis import strategies as st

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
from abtaut import charclass, graded
from abtaut.charclass import (
    _elementary_expansions,
    _multiplicative_class,
    _partitions,
)


def root_ring(g, bound):
    return GradedRing(tuple(f"x{i}" for i in range(1, g + 1)), (1,) * g, bound)


def chern_bundle(g, bound):
    """The rank-g bundle of the Chern generators c1..cg, truncated at ``bound``."""
    R = GradedRing(tuple(f"c{i}" for i in range(1, g + 1)), tuple(range(1, g + 1)), bound)
    return BundleClasses(g, R.gens(), R)


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


def assert_power_sums_of_roots(g, bound):
    b = roots_oracle.bundle_from_roots(g, bound=bound)
    ps = newton_power_sums(b, bound)
    assert ps[0] == g
    for k in range(1, bound + 1):
        assert ps[k] == explicit_power_sum(b.ring, k), (g, k)


def test_newton_on_roots_bundle_is_sum_of_powers():
    assert_power_sums_of_roots(3, 6)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_newton_consistency_with_explicit_roots(g):
    # the Chern-alphabet power sums are pinned by newton_oracle
    assert_power_sums_of_roots(g, 10)


def test_dual_of_roots_bundle_negates_the_roots():
    # c(E-dual) = prod_j (1 - x_j), multiplied out by the engine
    b = roots_oracle.bundle_from_roots(3)
    expected = b.ring.one
    for x in b.ring.gens():
        expected = expected * (1 - x)
    dual = dual_bundle(b)
    for i in range(3):
        assert dual.chern[i] == expected.homogeneous_part(i + 1), i


def newton_cases():
    for g in range(1, 7):
        b = BundleClasses.generators(g)
        yield pytest.param(b, b.ring.bound + 3, id=f"generators-{g}")
    for g in range(1, 5):
        b = roots_oracle.bundle_from_roots(g)
        yield pytest.param(b, b.ring.bound + 3, id=f"roots-{g}")
    # k_max above the bound: the power sums above it are zero
    R = GradedRing(("x", "y"), (1, 1), 4)
    x, y = R.gens()
    yield pytest.param(BundleClasses(2, (x + y, x * y), R), 6, id="two-lines-bound4")


@pytest.mark.parametrize("b,k_max", newton_cases())
def test_newton_matches_recursion_oracle(b, k_max):
    ps = newton_power_sums(b, k_max)
    expected = newton_oracle.power_sums(b, k_max)
    assert len(ps) == len(expected) == k_max + 1
    for k, (p, q) in enumerate(zip(ps, expected)):
        assert p.ring == q.ring == b.ring, k
        assert p.terms == q.terms, k


def test_newton_oracle_shares_no_arithmetic_with_the_kernel(monkeypatch):
    # the recursion runs while the kernel's products, sums, scalings and
    # series raise, and matches the library's logarithm route
    cases = [(b, k_max) for param in newton_cases() for b, k_max in [param.values]]
    expected = [newton_power_sums(b, k_max) for b, k_max in cases]
    with monkeypatch.context() as m:
        for name in ("mul", "total", "scaled", "between", "exp", "log1p"):
            m.setattr(graded._Kernel, name, _raises)
        sums = [newton_oracle.power_sums(b, k_max) for b, k_max in cases]
    for (b, _), ps, qs in zip(cases, expected, sums):
        assert ps == qs, b.ring


def test_newton_requires_positive_k_max():
    with pytest.raises(ValueError, match="k_max"):
        newton_power_sums(BundleClasses.generators(2), 0)


def test_classes_require_a_bounded_ring():
    R = GradedRing(("x",), (1,))
    with pytest.raises(ValueError, match=r"^BundleClasses requires a ring with a truncation bound\Z"):
        BundleClasses(1, (R.gen(0),), R)


# -- Chern character -------------------------------------------------------


def test_chern_character_line_bundle():
    b = chern_bundle(1, 2)
    c1 = b.ring.gen(0)
    assert chern_character(b) == 1 + c1 + c1 * c1 / 2


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
    b = roots_oracle.bundle_from_roots(g)
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
    b = chern_bundle(1, 2)
    c1 = b.ring.gen(0)
    assert todd_dual(b) == 1 - c1 / 2 + c1 * c1 / 12


def test_todd_dual_line_bundle_bernoulli_coefficients():
    bound = 12
    b = chern_bundle(1, bound)
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
    via_roots = roots_oracle.symmetric_to_elementary(graded_exp(log_total))
    assert via_roots == todd(BundleClasses.generators(g)), g


def todd_inverse(b):
    return _multiplicative_class(b, "log_one_minus_exp_neg_over_t")


def oracle_cases():
    for g in range(1, 6):
        yield pytest.param(BundleClasses.generators(g), id=f"g{g}-socle")
    for bound in range(4):
        yield pytest.param(chern_bundle(2, bound), id=f"g2-bound{bound}")


@pytest.mark.parametrize("b", oracle_cases())
def test_classes_match_the_power_sum_assembly(b):
    # reference route: Newton's recursion for p_k, then exp(sum_k s_k p_k)
    # and rank + sum_k p_k / k! as plain sums, with the per-power exp
    bound = b.ring.bound
    ps = newton_oracle.power_sums(b, bound)
    for name, value in (
        ("log_todd_gen", todd(b)),
        ("log_todd_dual_gen", todd_dual(b)),
        ("log_one_minus_exp_neg_over_t", todd_inverse(b)),
    ):
        series = named_series(name, bound)
        log_class = sum((ps[k] * series[k] for k in range(1, bound + 1)), b.ring.zero)
        assert value.terms == graded_oracle.exp(log_class).terms, name
    character = sum((ps[k] / factorial(k) for k in range(1, bound + 1)), b.ring.constant(b.rank))
    assert chern_character(b).terms == character.terms


@pytest.mark.parametrize("td", [todd, todd_dual, todd_inverse])
def test_todd_classes_multiply_on_direct_sums(td):
    # c(E + L) = (1 + c1 + c2)(1 + z) for a generic rank-2 E and a line
    # bundle L, and a multiplicative class takes + to *
    R = GradedRing(("c1", "c2", "z"), (1, 2, 1), 6)
    c1, c2, z = R.gens()
    e = BundleClasses(2, (c1, c2), R)
    line = BundleClasses(1, (z,), R)
    total = BundleClasses(3, (c1 + z, c2 + c1 * z, c2 * z), R)
    assert td(total) == td(e) * td(line)
    assert td(total) != td(e)


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


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_exterior_sum_degree_zero_vanishes(g):
    value = exterior_alternating_sum_dual(g)
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
        value = exterior_alternating_sum_dual(g).truncate(bound)
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
    top = 6
    packing = graded._packing(root_ring(g, top))
    seen = 0
    for key, expansion in _elementary_expansions(packing, top):
        lam = packing.exponents(key)
        brute = brute_force_counts(conjugate(lam), g)
        partitions = _partitions(sum(lam), g)
        sorted_vectors = {tuple(sorted(c, reverse=True)) for c in product(range(top + 1), repeat=g) if sum(c) == sum(lam)}
        assert partitions == sorted(sorted_vectors, reverse=True)
        assert set(expansion) <= {packing.key(nu) for nu in partitions}
        for nu in partitions:
            orbit = len(set(permutations(nu)))
            assert expansion.get(packing.key(nu), 0) == orbit * brute[nu], (lam, nu)
        seen += 1
    assert seen == sum(len(_partitions(d, g)) for d in range(top + 1))


@pytest.mark.parametrize("a", [255, 256, 300])
def test_power_sums_across_the_field_width_step(a):
    # a partition's fields are 8 bits wide up to degree 255 and 16 bits from
    # 256 on; c1 = 5 and c2 = 6 are e1 and e2 of the roots 2 and 3
    assert graded._packing(root_ring(2, a)).shift == (16 if a < 256 else 32)
    p = symmetric_to_elementary(2, {(a, 0): 1})
    assert sum(c * 5 ** e1 * 6 ** e2 for (e1, e2), c in p.terms.items()) == 2 ** a + 3 ** a


def test_one_root_across_the_field_width_step():
    assert symmetric_to_elementary(1, {(300,): 7}) == GradedRing(("c1",), (1,), None).monomial((300,), 7)


def test_symmetric_to_elementary_examples():
    R = root_ring(2, 6)
    x1, x2 = R.gens()
    assert str(roots_oracle.symmetric_to_elementary(x1 + x2)) == "c1"
    assert str(roots_oracle.symmetric_to_elementary(x1 ** 2 + x2 ** 2)) == "-2*c2 + c1^2"
    assert str(roots_oracle.symmetric_to_elementary(x1 * x2 * (x1 + x2))) == "c1*c2"


def test_symmetric_to_elementary_matches_newton():
    R = root_ring(2, 6)
    x1, x2 = R.gens()
    b = chern_bundle(2, 6)
    assert roots_oracle.symmetric_to_elementary(x1 ** 2 + x2 ** 2) == newton_power_sums(b, 2)[2]


def test_symmetric_to_elementary_rejects_asymmetric_input():
    R = root_ring(2, 6)
    x1, _ = R.gens()
    with pytest.raises(ValueError):
        roots_oracle.symmetric_to_elementary(x1)


def test_symmetric_to_elementary_round_trip():
    # the oracle subtracts leading monomials of engine products of the e_i
    R = root_ring(3, 6)
    x1, x2, x3 = R.gens()
    p = (x1 + x2 + x3) ** 2 + 5 * x1 * x2 * x3
    assert roots_oracle.symmetric_to_elementary(p) == roots_oracle.to_elementary(p)


def test_symmetric_to_elementary_round_trip_mixed_denominators():
    R = root_ring(3, None)
    x1, x2, x3 = R.gens()
    p = (x1 + x2 + x3) ** 3 / 3 - Fraction(5, 7) * x1 * x2 * x3 + Fraction(1, 2)
    q = roots_oracle.symmetric_to_elementary(p)
    assert q.ring.bound is None
    assert q == roots_oracle.to_elementary(p)


def test_roots_route_calls_the_rewrite_once(monkeypatch):
    # the roots route reaches the rewrite through its module-level name,
    # where bench/tracing.py wraps it as the span charclass.sym_to_elem
    rewrite = charclass.symmetric_to_elementary
    calls = []

    def counted(g, coefficients):
        calls.append(g)
        return rewrite(g, coefficients)

    monkeypatch.setattr(charclass, "symmetric_to_elementary", counted)
    for g in range(1, 7):
        exterior_alternating_sum_dual(g)
        assert calls == list(range(1, g + 1)), g


@functools.cache
def _partitions_up_to(g, top):
    """Every partition of degree <= top into at most g parts, as a nonincreasing g-tuple."""
    return sorted({tuple(sorted(c, reverse=True)) for c in product(range(top + 1), repeat=g) if sum(c) <= top})


@st.composite
def _monomial_sums(draw):
    g = draw(st.integers(1, 4))
    coefficient = st.one_of(st.integers(-20, 20), st.builds(Fraction, st.integers(-60, 60), st.integers(1, 30)))
    return g, draw(st.dictionaries(st.sampled_from(_partitions_up_to(g, 6)), coefficient, max_size=8))


@settings(max_examples=150, deadline=None)
@given(_monomial_sums())
def test_symmetric_to_elementary_matches_the_monomial_oracle(case):
    # sum_lam a_lam m_lam written out in x1..xg, every distinct permutation
    # of each lam, and rewritten by subtracting engine products of the e_i
    g, coefficients = case
    R = root_ring(g, None)
    terms = {e: c for lam, c in coefficients.items() for e in set(permutations(lam))}
    value = symmetric_to_elementary(g, coefficients)
    expected = roots_oracle.to_elementary(R.from_terms(terms))
    assert value.ring.bound is None
    assert value == expected


@pytest.mark.parametrize("key", [(1,), (1, 0, 0), (0, 1), (2, -1), (True, 0), (1.0, 0), (1, 0.0)])
def test_symmetric_to_elementary_rejects_a_key_that_is_not_a_partition(key):
    with pytest.raises(ValueError, match=r"^symmetric_to_elementary requires each key to be a nonincreasing 2-tuple of ints >= 0, got .+\Z") as info:
        symmetric_to_elementary(2, {key: 1})
    assert "\n" not in str(info.value)


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
        for name in ("graded_exp", "graded_log", "named_series", "_log_chern", "newton_power_sums"):
            m.setattr(charclass, name, _raises)
        for g in range(1, 6):
            assert exterior_alternating_sum_dual(g).terms == roots_oracle.exterior_alternating_sum_dual(g).terms, g
    with monkeypatch.context() as m:
        for name in ("symmetric_to_elementary", "_elementary_expansions", "_add_row", "_partitions", "_packing"):
            m.setattr(charclass, name, _raises)
        for g in range(1, 6):
            b = BundleClasses.generators(g)
            assert todd(b).constant_term == 1, g
            td_inverse = _multiplicative_class(b, "log_one_minus_exp_neg_over_t")
            assert (todd(b) * td_inverse) == 1, g


NON_INTEGERS = [2.0, 2.5, "3", True, False, None, Fraction(3), 3 + 0j]
_LINE_RING = GradedRing(("x",), (1,), 1)


# the slot of a retired case: of BundleClasses.from_roots, which left the
# library, or of the bound argument of generators or exterior_alternating_sum_dual
_RETIRED = None


def _contract_cases():
    """Every rejects case, with the id "{function}-{name}-argsN" that pytest gave it by position.

    The positions of the retired from_roots and bound cases stay unused, and
    cases added later go at the end, so a case keeps its id when others
    leave the table.
    """
    cases = (
        [
            (function, name, args)
            for value in NON_INTEGERS
            for function, name, args in (
                (borel_serre_check, "g", (value,)),
                (exterior_alternating_sum_dual, "g", (value,)),
                (_RETIRED, "bound", ()),
            )
            if value is not None or name != "bound"
        ]
        + [
            (function, name, args)
            for value in NON_INTEGERS
            for function, name, args in (
                (BundleClasses.generators, "g", (value,)),
                (_RETIRED, "bound", ()),
                (_RETIRED, "g", ()),
                (_RETIRED, "bound", ()),
                (newton_power_sums, "k_max", (BundleClasses.generators(2), value)),
            )
            if value is not None or name != "bound"
        ]
        + [(BundleClasses, "rank", (value, (), _LINE_RING)) for value in NON_INTEGERS]
        + [
            (borel_serre_check, "g", (0,)),
            (exterior_alternating_sum_dual, "g", (0,)),
            (BundleClasses.generators, "g", (0,)),
            (_RETIRED, "g", ()),
            (newton_power_sums, "k_max", (BundleClasses.generators(2), 0)),
            (BundleClasses, "rank", (-1, (), _LINE_RING)),
            (_RETIRED, "bound", ()),
            (_RETIRED, "bound", ()),
            (_RETIRED, "bound", ()),
        ]
        + [(symmetric_to_elementary, "g", (value, {})) for value in NON_INTEGERS]
        + [(symmetric_to_elementary, "g", (0, {}))]
        + [(symmetric_to_elementary, "coefficients", (2, {(1, 0): value})) for value in (0.5, "1", None)]
        + [(symmetric_to_elementary, "coefficients", (2, {(1, 0): value})) for value in (True, False)]
    )
    return [
        pytest.param(function, name, args, id=f"{function.__name__}-{name}-args{i}")
        for i, (function, name, args) in enumerate(cases)
        if function is not _RETIRED
    ]


@pytest.mark.parametrize("function, name, args", _contract_cases())
def test_charclass_rejects_non_integers(function, name, args):
    with rejects(function, name, args):
        function(*args)
