import math
import random
import re
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graded_oracle
import series_oracle
from argument_contract import rejects
from view_contract import check_fresh_view
from abtaut import charclass, graded
from abtaut import (
    BundleClasses,
    GradedPolynomial,
    GradedRing,
    bernoulli,
    boundary_ring,
    graded_exp,
    graded_log,
    named_series,
    newton_power_sums,
)


def random_poly(rng, ring, max_terms=5, max_exp=2, constant=None):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in ring.names)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        terms[exps] = terms.get(exps, Fraction(0)) + c
    p = ring.from_terms(terms)
    if constant is not None:
        p = p - p.constant_term + constant
    return p


# -- ring and polynomial basics -------------------------------------------


def test_ring_validation():
    with pytest.raises(ValueError):
        GradedRing(("a", "b"), (1,))
    with pytest.raises(ValueError):
        GradedRing(("a", "a"), (1, 1))
    with pytest.raises(ValueError):
        GradedRing(("a",), (0,))
    with pytest.raises(ValueError):
        GradedRing(("a",), (1,), -1)


def test_multiply_truncates():
    R = GradedRing(("l1", "l2"), (1, 2), 2)
    l1, l2 = R.gens()
    assert str((1 + l1) * (1 - l1)) == "1 - l1^2"


def test_multiply_boundary_example():
    B = GradedRing(("Pi", "T"), (1, 1), 4)
    pi, t = B.gens()
    product = pi * (-pi - 2 * t)
    assert product.coefficient((2, 0)) == -1
    assert product.coefficient((1, 1)) == -2
    assert len(product.terms) == 2


def test_multiply_relation_example():
    # hand expansion: (1 + l1 + l2)(1 - l1 + l2) = 1 + (2 l2 - l1^2) + l2^2
    R = GradedRing(("l1", "l2"), (1, 2), 4)
    l1, l2 = R.gens()
    product = (1 + l1 + l2) * (1 - l1 + l2)
    assert product == 1 + 2 * l2 - l1 * l1 + l2 * l2


def test_multiply_incompatible_rings():
    a = GradedRing(("x",), (1,), 3).gen(0)
    b = GradedRing(("x",), (1,), 4).gen(0)
    with pytest.raises(ValueError):
        a * b


def test_multiplication_associative_commutative():
    rng = random.Random(20260809)
    R = GradedRing(("x", "y", "z"), (1, 1, 2), 6)
    for _ in range(25):
        a, b, c = (random_poly(rng, R) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_truncation_is_ring_morphism():
    rng = random.Random(17)
    R = GradedRing(("x", "y"), (1, 2), 8)
    for _ in range(25):
        a, b = random_poly(rng, R, max_exp=3), random_poly(rng, R, max_exp=3)
        lhs = (a * b).truncate(5)
        rhs = a.truncate(5) * b.truncate(5)
        assert lhs.terms == rhs.terms


def test_add_commutes_on_unequal_sizes():
    R = GradedRing(("x", "y"), (1, 1), None)
    x, y = R.gens()
    big = (x - y / 3) ** 6 + Fraction(5, 2)
    polys = [big, x ** 6, -x * y ** 5 + x ** 7, 1 - big, -big, R.one, R.zero, R.constant(Fraction(-5, 2))]
    for a in polys:
        for b in [*polys, 3, -2]:
            tb = R.constant(b).terms if isinstance(b, int) else b.terms
            expected = {e: a.terms.get(e, 0) + tb.get(e, 0) for e in a.terms.keys() | tb.keys()}
            before = (dict(a.terms), dict(tb))
            assert (a + b).terms == (b + a).terms == {e: c for e, c in expected.items() if c}, (a, b)
            assert (a.terms, tb) == before
    assert (big + -big).terms == {}
    assert (1 - big + big).terms == {(0, 0): 1}


def test_power_and_scalar_ops():
    R = GradedRing(("x",), (1,), 6)
    x = R.gen(0)
    assert (1 + x) ** 3 == 1 + 3 * x + 3 * x * x + x ** 3
    assert (x / 2) * 2 == x
    with pytest.raises(ValueError):
        x ** -1


@st.composite
def _rings(draw):
    n = draw(st.integers(1, 3))
    weights = draw(st.tuples(*[st.integers(1, 3)] * n))
    bound = draw(st.one_of(st.none(), st.integers(0, 6)))
    return GradedRing(tuple(f"x{i}" for i in range(n)), weights, bound)


def _polynomials(ring):
    exponents = st.tuples(*[st.integers(0, 3)] * ring.ngens)
    # mixed denominators; the empty map is the zero polynomial
    coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=6)
    return st.dictionaries(exponents, coefficients, max_size=5).map(ring.from_terms)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), ring=_rings(), n=st.integers(0, 4))
def test_kernel_matches_fraction_oracle(data, ring, n):
    a = data.draw(_polynomials(ring))
    b = data.draw(_polynomials(ring))
    for left, right in ((a, b), (a + b, a - b), (a, b - b), (a - a, b)):
        assert (left * right).terms == graded_oracle.mul(left, right).terms
    assert (a ** n).terms == graded_oracle.power(a, n).terms
    if ring.bound is not None:
        nilpotent = a - a.constant_term
        assert graded_exp(nilpotent).terms == graded_oracle.exp(nilpotent).terms
        assert graded_log(nilpotent + 1).terms == graded_oracle.log(nilpotent + 1).terms


def _raises(*args, **kwargs):
    raise AssertionError("the graded engine was called")


# the kernel's arithmetic, which graded_oracle must not reach
_KERNEL_ARITHMETIC = ("mul", "total", "scaled", "between", "exp", "log1p")


def test_graded_oracle_shares_no_arithmetic_with_the_kernel(monkeypatch):
    # the oracle's products, powers, series, sums and scalings run while the
    # kernel's arithmetic raises, and match the engine
    rng = random.Random("oracle")
    cases = []
    for R in (GradedRing(("x", "y"), (1, 2), 6), GradedRing(("x", "y", "z"), (1, 1, 2), 4)):
        for _ in range(8):
            a, b = random_poly(rng, R), random_poly(rng, R)
            n = a - a.constant_term
            cases.append((a, b, n, n + 1, Fraction(rng.randint(-4, 4), rng.randint(1, 3))))
    expected = [(a * b, a ** 3, graded_exp(n), graded_log(u), a + b * c, a * c) for a, b, n, u, c in cases]
    with monkeypatch.context() as m:
        for name in _KERNEL_ARITHMETIC:
            m.setattr(graded._Kernel, name, _raises)
        a, b, *_ = cases[0]
        with pytest.raises(AssertionError, match="the graded engine was called"):
            a * b
        values = [
            (
                graded_oracle.mul(a, b),
                graded_oracle.power(a, 3),
                graded_oracle.exp(n),
                graded_oracle.log(u),
                graded_oracle.add(a, b, c),
                graded_oracle.scale(a, c),
            )
            for a, b, n, u, c in cases
        ]
    assert values == expected


def test_kernel_cancellation():
    R = GradedRing(("x", "y"), (1, 1), 3)
    x, y = R.gens()
    a, b = x + y / 2, x - y / 2
    # the cross terms cancel
    assert (a * b).terms == graded_oracle.mul(a, b).terms == {(2, 0): 1, (0, 2): Fraction(-1, 4)}
    # every term product lies above the bound
    assert (x * x * (y * y)).terms == {}
    assert ((x + y) ** 4).terms == {}
    assert graded_log(R.one).terms == {}


def test_kernel_wide_exponents():
    # exponent fields of 16, 64 and 128 bits
    R = GradedRing(("x", "y"), (1, 2), None)
    x, y = R.gens()
    for a, b in (
        (x ** 300 + y, x * y ** 200),
        (x ** 2 ** 40 - y / 3, x + y ** 2 ** 40),
        (x ** 2 ** 64 + 1, x - y ** 2 ** 70),
    ):
        assert (a * b).terms == graded_oracle.mul(a, b).terms
        assert (a ** 2).terms == graded_oracle.power(a, 2).terms
    # in a bounded ring an exponent past the bound is dropped before it is
    # packed: l2^256 would carry into l1's 8-bit field, l1^(2^64) far past it
    B = GradedRing(("l1", "l2"), (1, 2), 4)
    wide = {(1, 0): 1, (0, 256): 1, (2 ** 64, 0): 1, (2 ** 64, 2 ** 64): Fraction(1, 3)}
    for p in (B.from_terms(wide), B.parse(f"l1 + l2^256 + l1^{2 ** 64} + 1/3*l1^{2 ** 64}*l2^{2 ** 64}")):
        assert p.terms == {(1, 0): 1} and p == B.gen(0) and hash(p) == hash(B.gen(0))
        assert (p * p).terms == {(2, 0): 1}


def test_kernel_products_in_the_genus_eight_ring():
    # l1..l8 of weights 1..8 at the socle bound 36: eight exponent fields
    # below the degree field
    R = GradedRing(tuple(f"l{i}" for i in range(1, 9)), tuple(range(1, 9)), 36)
    rng = random.Random(8)

    def sample(terms):
        poly = {}
        for _ in range(terms):
            exps, remaining = [0] * 8, rng.randint(0, 36)
            for i in rng.sample(range(8), 8):
                exps[i] = e = rng.randint(0, remaining // (i + 1))
                remaining -= e * (i + 1)
            poly[tuple(exps)] = Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3]))
        return R.from_terms(poly)

    for _ in range(20):
        a, b = sample(rng.randint(1, 8)), sample(rng.randint(1, 8))
        assert (a * b).terms == graded_oracle.mul(a, b).terms
    a = sample(6)
    assert (a ** 3).terms == graded_oracle.power(a, 3).terms


@pytest.mark.parametrize("width, bound", [(8, 200), (16, 300), (32, 2 ** 20), (64, 2 ** 40), (128, 2 ** 70)])
def test_kernel_keeps_the_bound_and_drops_the_next_degree(width, bound):
    R = GradedRing(("x", "y"), (1, 2), bound)
    assert graded._packing(R, bound).shift == 2 * width
    x, y = R.gens()
    a = R.monomial((bound - 1, 0), Fraction(-3, 2))
    # x^bound has degree bound and x^(bound-1) y degree bound + 1
    for left, right in ((a, 1 + x + y), (1 + x + y, a)):
        assert (left * right).terms == graded_oracle.mul(left, right).terms == {
            (bound - 1, 0): Fraction(-3, 2),
            (bound, 0): Fraction(-3, 2),
        }
    # y^(bound/2) has degree bound, and x y^(bound/2) degree bound + 1
    top = R.monomial((0, bound // 2))
    assert (top * (1 + x)).terms == graded_oracle.mul(top, 1 + x).terms == {(0, bound // 2): 1}


@pytest.mark.parametrize("bound", [None, 0, 3])
def test_kernel_without_generators(bound):
    # no exponent fields: the degree field starts at bit 0
    R = GradedRing((), (), bound)
    assert graded._packing(R, 0).shift == 0
    a, b = R.constant(Fraction(3, 2)), R.constant(-4)
    assert (a * b).terms == graded_oracle.mul(a, b).terms == {(): -6}
    assert (a ** 3).terms == {(): Fraction(27, 8)}
    assert (a * R.zero).terms == (R.zero * a).terms == {}
    if bound is not None:
        assert graded_exp(R.zero) == 1
        assert graded_log(R.one) == 0


def _no_decode(*args):
    raise AssertionError("a kernel was decoded into Fractions")


def _unit(ring, i):
    """The exponent vector of generator i, or of 1 in a ring without any."""
    return tuple(int(j == i) for j in range(ring.ngens))


# every route that builds a polynomial: (the route on operands a, b, c
# that hold only their kernels and the text s of a, the same value by
# graded_oracle on operands that hold their terms)
_ROUTES = {
    "from_terms": (lambda R, a, b, c, s: a, lambda R, a, b, c: a),
    "parse": (lambda R, a, b, c, s: R.parse(s), lambda R, a, b, c: a),
    "constant": (lambda R, a, b, c, s: R.constant(Fraction(-7, 3)), lambda R, a, b, c: R.from_terms({(0,) * R.ngens: Fraction(-7, 3)})),
    "monomial": (
        lambda R, a, b, c, s: R.monomial(_unit(R, 0), Fraction(5, 2)),
        lambda R, a, b, c: R.from_terms({_unit(R, 0): Fraction(5, 2)}),
    ),
    "gen": (
        lambda R, a, b, c, s: sum(R.gens(), R.constant(2)),
        lambda R, a, b, c: R.from_terms({**{_unit(R, i): 1 for i in range(R.ngens)}, (0,) * R.ngens: 2}),
    ),
    "add": (lambda R, a, b, c, s: a + b, lambda R, a, b, c: graded_oracle.add(a, b)),
    "subtract": (lambda R, a, b, c, s: a - b - 3, lambda R, a, b, c: graded_oracle.add(graded_oracle.add(a, b, -1), R.one, -3)),
    "cancel": (lambda R, a, b, c, s: (a + b) - a, lambda R, a, b, c: b),
    "negate": (lambda R, a, b, c, s: -a, lambda R, a, b, c: graded_oracle.scale(a, -1)),
    "scale": (lambda R, a, b, c, s: a * Fraction(-6, 5), lambda R, a, b, c: graded_oracle.scale(a, Fraction(-6, 5))),
    "divide": (lambda R, a, b, c, s: a / 4, lambda R, a, b, c: graded_oracle.scale(a, Fraction(1, 4))),
    "zero scale": (lambda R, a, b, c, s: 0 * a, lambda R, a, b, c: R.zero),
    "product": (lambda R, a, b, c, s: a * b, lambda R, a, b, c: graded_oracle.mul(a, b)),
    "products": (lambda R, a, b, c, s: a * b * c, lambda R, a, b, c: graded_oracle.mul(graded_oracle.mul(a, b), c)),
    "product of products": (
        lambda R, a, b, c, s: (a * b) * (b * c),
        lambda R, a, b, c: graded_oracle.mul(graded_oracle.mul(a, b), graded_oracle.mul(b, c)),
    ),
    "zero product": (lambda R, a, b, c, s: (a - a) * b + R.zero * (a * b), lambda R, a, b, c: R.zero),
    "power": (lambda R, a, b, c, s: a ** 5, lambda R, a, b, c: graded_oracle.power(a, 5)),
    "power of a product": (lambda R, a, b, c, s: (a * b) ** 3, lambda R, a, b, c: graded_oracle.power(graded_oracle.mul(a, b), 3)),
    "truncate": (lambda R, a, b, c, s: (a * b).truncate(3), lambda R, a, b, c: graded_oracle.degrees(graded_oracle.mul(a, b), 0, 3, R.with_bound(3))),
    "unbound": (lambda R, a, b, c, s: a.truncate(None), lambda R, a, b, c: graded_oracle.degrees(a, 0, None, R.with_bound(None))),
    "homogeneous part": (lambda R, a, b, c, s: a.homogeneous_part(2), lambda R, a, b, c: graded_oracle.degrees(a, 2, 2)),
    "exp": (lambda R, a, b, c, s: graded_exp(a - a.constant_term), lambda R, a, b, c: graded_oracle.exp(graded_oracle.degrees(a, 1, None))),
    "log": (
        lambda R, a, b, c, s: graded_log(a - a.constant_term + 1),
        lambda R, a, b, c: graded_oracle.log(graded_oracle.add(graded_oracle.degrees(a, 1, None), R.one)),
    ),
}


@pytest.mark.parametrize("ngens, bound", [(3, None), (3, 0), (3, 4), (3, 36), (0, None), (0, 2), (1, 300), (8, 12)])
def test_products_keep_their_kernel(ngens, bound, monkeypatch):
    # every route builds the kernel once and runs on it: with decoding into
    # Fractions switched off, each gives the polynomial graded_oracle does
    R = GradedRing(tuple(f"x{i}" for i in range(ngens)), tuple(range(1, ngens + 1)), bound)
    rng = random.Random(f"kernel{ngens},{bound}")
    raw = []
    for _ in range(3):
        terms = {}
        for _ in range(6):
            # exponents up to 3, degree up to 9
            exps, remaining = [0] * ngens, rng.randint(0, 9)
            for i in rng.sample(range(ngens), ngens):
                exps[i] = e = rng.randint(0, min(3, remaining // (i + 1)))
                remaining -= e * (i + 1)
            terms[tuple(exps)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        # a zero coefficient is dropped, and an exponent of 2^64 is past any
        # bound, so a bounded ring drops it before packing
        terms[(0,) * ngens] = Fraction(0)
        if ngens:
            terms[(2 ** 64,) + (0,) * (ngens - 1)] = Fraction(1)
        raw.append(terms)
    operands = [R.from_terms(t) for t in raw]
    for terms, p in zip(raw, operands):
        assert p.terms == {e: c for e, c in terms.items() if c and (bound is None or R.degree(e) <= bound)}
    text = str(operands[0])
    routes = {name: pair for name, pair in _ROUTES.items() if bound is not None or name not in ("exp", "log")}
    with monkeypatch.context() as m:
        m.setattr(graded._Packing, "unpack", _no_decode)
        results = {name: route(R, *(R.from_terms(t) for t in raw), text) for name, (route, _) in routes.items()}
    for name, (_, oracle) in routes.items():
        value, expected = results[name], oracle(R, *operands)
        assert value == expected and hash(value) == hash(expected), name
        assert value.terms == expected.terms, name
        check_fresh_view(value, "terms", expected)


def test_a_changed_read_of_terms_leaves_the_polynomial():
    # terms is the caller's own dict, so no change to it reaches the value
    R = GradedRing(("x", "y"), (1, 1), None)
    p, q = R.parse("x + 2*y"), R.parse("2*y + x")
    p.terms[(1, 0)] = 99
    assert str(p) == "2*y + x" and p == q and hash(p) == hash(q)
    assert p.terms == {(1, 0): 1, (0, 1): 2} and p.coefficient((1, 0)) == 1


def test_products_widen_the_packing_of_an_unbounded_ring():
    # x^255 fills an 8-bit field; times x it needs a 16-bit one, so the
    # kernel of x^255 cannot be reused as it is
    R = GradedRing(("x", "y"), (1, 1), None)
    x, y = R.gens()
    top = x ** 255
    assert top.terms == {(255, 0): 1}
    for left, right in ((top, x), (x, top), (top + y / 2, top - x), (top * y, top ** 2)):
        assert (left * right).terms == graded_oracle.mul(left, right).terms
    assert (top * x * x).terms == {(257, 0): 1}
    # weights 1 and 2: degree 255 fits 8-bit fields and 256 needs 16-bit
    # ones, reached by a sum, by from_terms and by a product
    W = GradedRing(("x", "y"), (1, 2), None)
    x, y = W.gens()
    low, high = x ** 253 * y, y ** 128
    both = {(253, 1): 1, (0, 128): 1}
    crossed = (low + high, W.from_terms(both), W.parse("x^253*y + y^128"), low * x, (low + x) * (y - 1))
    expected = (both, both, both, {(254, 1): 1}, graded_oracle.mul(low + x, y - 1).terms)
    for p, terms in zip(crossed, expected):
        assert p.terms == terms and p == W.from_terms(terms)
    # and back below 256 when the top cancels
    assert (low + high) - high == low and hash((low + high) - high) == hash(low)


def test_threads_decode_a_shared_product_alike():
    R = GradedRing(tuple(f"l{i}" for i in range(1, 9)), tuple(range(1, 9)), 36)
    rng = random.Random(31)
    a, b = (random_poly(rng, R, max_terms=8, max_exp=3) for _ in range(2))
    # a product, a polynomial built from terms and a sum, each decoded
    # first by the racing threads
    builds = [
        (lambda: a * b, graded_oracle.mul(a, b).terms),
        (lambda: R.from_terms(a.terms), a.terms),
        (lambda: a + b, graded_oracle.add(a, b).terms),
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for build, expected in builds * 20:
            shared, start, seen = build(), threading.Barrier(6), []

            def read():
                start.wait()
                seen.append(shared.terms)

            threads = [threading.Thread(target=read) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert len(seen) == 6 and all(terms == expected for terms in seen)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("g", [5, 6])
def test_kernel_top_chern_class_times_the_borel_serre_class(g):
    # the one-by-many product c_g * F of borel_serre_check
    b = BundleClasses.generators(g)
    f = charclass._multiplicative_class(b, "log_one_minus_exp_neg_over_t")
    c_g = b.chern[g - 1]
    assert len(f.terms) > 100
    assert (c_g * f).terms == (f * c_g).terms == graded_oracle.mul(c_g, f).terms


def test_exp_and_log_in_the_genus_five_chern_ring():
    b = BundleClasses.generators(5)
    assert b.ring.weights == (1, 2, 3, 4, 5) and b.ring.bound == 15
    c1, c2, c3, c4, c5 = b.chern
    total = sum(b.chern, b.ring.one)
    log_total = graded_log(total)
    assert log_total.terms == graded_oracle.log(total).terms
    assert graded_exp(log_total) == total
    a = c1 / 2 - c3 + c5 / 7 + c2 * c4
    assert graded_exp(a).terms == graded_oracle.exp(a).terms
    assert graded_log(graded_exp(a)) == a


# -- exp and log -----------------------------------------------------------


def test_exp_of_zero():
    R = GradedRing(("x",), (1,), 4)
    assert graded_exp(R.zero) == 1


def test_exp_example():
    R = GradedRing(("l1",), (1,), 2)
    l1 = R.gen(0)
    assert graded_exp(l1) == 1 + l1 + l1 * l1 / 2


def test_log_examples():
    R = GradedRing(("l1",), (1,), 3)
    l1 = R.gen(0)
    assert graded_log(R.one) == 0
    assert graded_log(1 + l1) == l1 - l1 ** 2 / 2 + l1 ** 3 / 3


def test_exp_log_round_trip():
    rng = random.Random(99)
    R = GradedRing(("x", "y"), (1, 2), 6)
    for _ in range(20):
        a = random_poly(rng, R, constant=Fraction(1))
        assert graded_exp(graded_log(a)) == a
        b = random_poly(rng, R, constant=Fraction(0))
        assert graded_log(graded_exp(b)) == b


def test_log_of_product_is_sum_of_logs():
    rng = random.Random(4242)
    R = GradedRing(("x", "y"), (1, 1), 5)
    for _ in range(20):
        a = random_poly(rng, R, constant=Fraction(1))
        b = random_poly(rng, R, constant=Fraction(1))
        assert graded_log(a * b) == graded_log(a) + graded_log(b)


def test_exp_log_preconditions():
    R = GradedRing(("x",), (1,), 3)
    x = R.gen(0)
    with pytest.raises(ValueError):
        graded_exp(1 + x)
    with pytest.raises(ValueError):
        graded_log(x)
    unbounded = GradedRing(("x",), (1,), None)
    with pytest.raises(ValueError):
        graded_exp(unbounded.gen(0))


def test_exp_log_recurrence_at_the_socle_bound():
    # the log-Todd class of the rank-4 bundle on c1..c4 (weights 1..4) at the
    # socle bound 10, against the per-power Fraction sums
    b = BundleClasses.generators(4)
    assert b.ring.weights == (1, 2, 3, 4) and b.ring.bound == 10
    series, ps = named_series("log_todd_gen", 10), newton_power_sums(b, 10)
    log_todd = sum((ps[k] * series[k] for k in range(1, 11)), b.ring.zero)
    todd_class = graded_exp(log_todd)
    assert todd_class.terms == graded_oracle.exp(log_todd).terms
    assert graded_log(todd_class).terms == graded_oracle.log(todd_class).terms == log_todd.terms
    total_chern = sum(b.chern, b.ring.one)
    assert graded_log(total_chern).terms == graded_oracle.log(total_chern).terms


def test_exp_log_recurrence_at_bounds_zero_and_one():
    for bound in (0, 1):
        R = GradedRing(("x", "y"), (1, 1), bound)
        assert graded_exp(R.zero).terms == {(0, 0): 1}
        assert graded_log(R.one).terms == {}
    x, y = GradedRing(("x", "y"), (1, 1), 1).gens()
    assert graded_exp(x / 2 - y) == 1 + x / 2 - y
    assert graded_log(1 + x / 2 - y) == x / 2 - y


# -- named series ----------------------------------------------------------


def test_todd_dual_gen_coefficients():
    s = named_series("todd_dual_gen", 4)
    assert list(s) == [1, Fraction(-1, 2), Fraction(1, 12), 0, Fraction(-1, 720)]


def test_todd_dual_gen_is_division_inverse():
    # independent check of the defining property: s(t) * (e^t - 1)/t == 1
    order = 20
    s = named_series("todd_dual_gen", order)
    for n in range(order + 1):
        conv = sum(s[j] * Fraction(1, math.factorial(n - j + 1)) for j in range(n + 1))
        assert conv == (1 if n == 0 else 0), n


def test_todd_dual_gen_matches_bernoulli():
    s = named_series("todd_dual_gen", 20)
    for k in range(21):
        assert s[k] == bernoulli(k) / math.factorial(k)


def test_log_series_order_zero():
    assert list(named_series("log_todd_gen", 0)) == [0]


def test_log_series_float_oracle():
    # spot check every named series against a float evaluation of its closed form
    u = 0.05
    closed = {
        "todd_dual_gen": u / (math.exp(u) - 1),
        "log_todd_gen": math.log(u / (1 - math.exp(-u))),
        "log_todd_dual_gen": math.log(u / (math.exp(u) - 1)),
        "log_one_minus_exp_neg_over_t": math.log((1 - math.exp(-u)) / u),
    }
    for name, expected in closed.items():
        s = named_series(name, 16)
        value = sum(float(c) * u ** k for k, c in enumerate(s))
        assert abs(value - expected) < 1e-12, name


def test_named_series_match_fraction_recurrences():
    for name in ("todd_dual_gen", "log_todd_gen", "log_todd_dual_gen", "log_one_minus_exp_neg_over_t"):
        for order in range(41):
            series = named_series(name, order)
            assert type(series) is tuple
            assert series == series_oracle.named_series(name, order), (name, order)


def test_series_oracle_shares_no_code_with_the_engine(monkeypatch):
    # the recurrences run while the engine's logarithm, exponential and
    # kernel arithmetic raise, and match named_series
    names = ("todd_dual_gen", "log_todd_gen", "log_todd_dual_gen", "log_one_minus_exp_neg_over_t")
    expected = [named_series(name, 30) for name in names]
    with monkeypatch.context() as m:
        for name in ("graded_log", "graded_exp"):
            m.setattr(graded, name, _raises)
        for name in _KERNEL_ARITHMETIC:
            m.setattr(graded._Kernel, name, _raises)
        with pytest.raises(AssertionError, match="the graded engine was called"):
            named_series("todd_dual_gen", 30)
        series = [series_oracle.named_series(name, 30) for name in names]
    assert series == expected


def test_named_series_unknown_name():
    with pytest.raises(ValueError):
        named_series("todd", 3)


def test_named_series_negative_order():
    with pytest.raises(ValueError):
        named_series("todd_dual_gen", -1)


@pytest.mark.parametrize("value", [2.0, 2.5, "3", True, False, None, Fraction(3), 3 + 0j, -1])
def test_graded_rejects_non_integers(value):
    with rejects(named_series, "order", ("todd_dual_gen", value)):
        named_series("todd_dual_gen", value)
    x = GradedRing(("x",), (1,)).gen(0)
    with rejects(GradedPolynomial.__pow__, "n", (x, value)):
        x ** value
    if type(value) is int:
        weight_error = pytest.raises(ValueError, match=rf"^GradedRing requires weights >= 1, got {value}$")
    else:
        weight_error = pytest.raises(TypeError, match=r"^GradedRing requires an int weights, got ")
    with weight_error:
        GradedRing(("t",), (value,))
    if value is not None:
        with rejects(GradedRing, "bound", (("t",), (1,), value)):
            GradedRing(("t",), (1,), value)


@pytest.mark.parametrize("value", [2.0, 2.5, "1", True, False, None, Fraction(1), 1 + 0j])
def test_graded_ring_gen_rejects_non_integers(value):
    R = GradedRing(("x", "y", "z"), (1, 1, 1))
    with rejects(GradedRing.gen, "index", (R, value)):
        R.gen(value)


def test_graded_ring_gen_rejects_out_of_range_indices():
    R = GradedRing(("x", "y"), (1, 1))
    for index in (-1, 2):
        with pytest.raises(ValueError, match=rf"^generator index {index} out of range$"):
            R.gen(index)


@pytest.mark.parametrize("exponents", [(True, 0), (0, False)])
def test_from_terms_rejects_bool_exponents(exponents):
    R = GradedRing(("x", "y"), (1, 1))
    with pytest.raises(ValueError, match=r"^bad exponent vector "):
        R.monomial(exponents)


@pytest.mark.parametrize("value", [True, False, 0.5, "1", None])
def test_coefficients_reject_bools_and_inexact_values(value):
    R = GradedRing(("x",), (1,), 2)
    for build in (lambda: R.from_terms({(1,): value}), lambda: R.monomial((1,), value), lambda: R.constant(value)):
        with pytest.raises(TypeError, match=rf"^expected an integer or Fraction, got {re.escape(repr(value))}\Z"):
            build()


def test_bool_operands_are_refused():
    (x,) = GradedRing(("x",), (1,), 2).gens()
    for operation in (lambda: x + True, lambda: True - x, lambda: x * False, lambda: x / True):
        with pytest.raises(TypeError, match=r"^expected an integer or Fraction, got (True|False)\Z"):
            operation()


def test_bools_compare_as_numbers():
    R = GradedRing(("x",), (1,), 2)
    (x,) = R.gens()
    assert (R.one == True) is True and (R.zero == False) is True
    assert (R.one == False) is False and (x == True) is False


@pytest.mark.parametrize("exponents", [(2,), (2, 0, 0), [2.0, 0], (2, -1), (True, 0)])
def test_coefficient_rejects_bad_exponent_vectors(exponents):
    pi_sq = boundary_ring().parse("Pi^2")
    with pytest.raises(ValueError, match=r"^bad exponent vector "):
        pi_sq.coefficient(exponents)


def test_coefficient_accepts_any_sequence_of_exponents():
    pi_sq = boundary_ring().parse("Pi^2")
    assert pi_sq.coefficient((2, 0)) == pi_sq.coefficient([2, 0]) == 1
    assert pi_sq.coefficient((0, 2)) == 0


# -- hashing ---------------------------------------------------------------


def test_hash_agrees_with_eq_on_constants():
    R = GradedRing(("x", "y"), (1, 2), 4)
    x, y = R.gens()
    for poly, value in ((R.one, 1), (R.zero, 0), (R.constant(Fraction(-3, 2)), Fraction(-3, 2)), (x - x, 0)):
        assert poly == value and hash(poly) == hash(value)
        assert len({poly, value}) == 1
        assert {value: "a"}.get(poly) == "a"
    assert {R.one, 1 + x, x * y, R.constant(2)} == {1, 1 + x, x * y, 2}


# -- text form -------------------------------------------------------------


def test_canonical_text_form():
    R = GradedRing(("l1", "l2"), (1, 2), None)
    l1, l2 = R.gens()
    assert str(2 * l2 - l1 * l1) == "2*l2 - l1^2"
    assert str(R.zero) == "0"
    assert str(R.from_terms({(1, 1): Fraction(16)})) == "16*l1*l2"
    assert str(-l1) == "-l1"
    assert str(l1 - Fraction(1, 2)) == "-1/2 + l1"


def test_parse_round_trip():
    rng = random.Random(55)
    R = GradedRing(("l1", "l2", "l3"), (1, 2, 3), None)
    for _ in range(30):
        p = random_poly(rng, R, max_terms=6, max_exp=3)
        assert R.parse(str(p)) == p


@settings(max_examples=150, deadline=None)
@given(data=st.data(), ring=_rings())
def test_parse_inverts_str(data, ring):
    p = data.draw(_polynomials(ring))
    assert ring.parse(str(p)) == p


def test_parse_grammar():
    R = GradedRing(("l1", "l2"), (1, 2), None)
    l1, l2 = R.gens()
    assert R.parse("l1^6") == l1 ** 6
    assert R.parse("3/2*l1*l2") == l1 * l2 * Fraction(3, 2)
    assert R.parse("l1*l1") == l1 * l1
    assert R.parse("2") == R.constant(2)
    assert R.parse("0") == R.zero
    for bad in ("", "l3", "2**l1", "l1^", "l1+"):
        with pytest.raises(ValueError):
            R.parse(bad)
