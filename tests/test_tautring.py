import functools
import inspect
import itertools
import random
import re
import sys
import threading
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abtaut import BundleClasses, GradedRing, TautRing, TautRingElement, build_ring, determinant, newton_power_sums, ring_report
from abtaut import zeta_negative_odd
from abtaut import graded, tautring
from abtaut.tautring import MAX_RING_GENUS
import gauss_oracle
import graded_oracle
import localization_oracle
from argument_contract import rejects
from view_contract import check_fresh_view
from rowreduce_oracle import BasisError, monomials_by_degree, reduce_degree, reduce_maps


# -- relation components ----------------------------------------------------


def test_relations_genus_one(ring_cache):
    r = ring_cache(1)
    assert {d: str(p) for d, p in r.relation_components.items()} == {2: "-l1^2"}


def test_relations_genus_two(ring_cache):
    r = ring_cache(2)
    assert {d: str(p) for d, p in r.relation_components.items()} == {
        2: "2*l2 - l1^2",
        4: "l2^2",
    }


def test_relations_genus_three(ring_cache):
    r = ring_cache(3)
    assert {d: str(p) for d, p in r.relation_components.items()} == {
        2: "2*l2 - l1^2",
        4: "l2^2 - 2*l1*l3",
        6: "-l3^2",
    }


# -- dimensions --------------------------------------------------------------


def test_dimension_profiles_small(ring_cache):
    assert ring_cache(1).dimension_profile() == [1, 1]
    assert ring_cache(2).dimension_profile() == [1, 1, 1, 1]
    assert ring_cache(3).dimension_profile() == [1, 1, 1, 2, 1, 1, 1]


@pytest.mark.parametrize("g", list(range(1, 9)))
def test_structure_invariants(g, ring_cache):
    r = ring_cache(g)
    dims = r.dimension_profile()
    assert sum(dims) == 2 ** g
    assert dims == dims[::-1]
    assert dims[-1] == 1
    assert r.socle_degree == g * (g + 1) // 2
    assert r.basis_monomials(r.socle_degree) == [r.ring.monomial((1,) * g)]


@pytest.mark.parametrize("g", list(range(1, 9)))
def test_relation_product_reduces_to_one(g, ring_cache):
    r = ring_cache(g)
    product = r.ring.one
    for part in r.relation_components.values():
        product = product + part
    assert r.normal_form(product - 1) == r.normal_form(r.ring.zero)
    assert r.normal_form(product) == r.normal_form(r.ring.one)


@pytest.mark.parametrize("g", list(range(1, 9)))
def test_top_chern_squares_to_zero(g, ring_cache):
    r = ring_cache(g)
    square = r.ring.gen(g - 1) ** 2
    assert not r.normal_form(square)
    # the degree-2g relation component is forced onto lg^2 alone
    top_relation = r.relation_components[2 * g]
    assert set(top_relation.terms) == {tuple(0 if i < g - 1 else 2 for i in range(g))}


def _grevlex_key(exps):
    """Weighted grevlex with l1 > ... > lg: weighted degree first, then the
    smaller exponent of the last differing generator wins."""
    return sum(i * e for i, e in enumerate(exps, start=1)), tuple(-e for e in reversed(exps))


@pytest.mark.parametrize("g", list(range(1, 13)))
def test_engine_product_meets_the_groebner_hypotheses(g):
    # the hypotheses under which the rewrite is a Groebner basis with the
    # square-free standard monomials, checked on the engine's own product
    # against the closed-form rules the ring writes down
    r = TautRing(g)
    total = dual = r.ring.one
    for i, x in enumerate(r.ring.gens(), start=1):
        total = total + x
        dual = dual + x * (-1) ** i
    product = total * dual
    for d in range(1, 2 * g + 1, 2):
        assert not product.homogeneous_part(d)
    assert r.relation_components == {d: product.homogeneous_part(d) for d in range(2, 2 * g + 1, 2)}
    for k in range(1, g + 1):
        part = r.relation_components[2 * k]
        assert part.is_homogeneous_of(2 * k)
        lead = max(part.terms, key=_grevlex_key)
        assert lead == tuple(2 if i == k else 0 for i in range(1, g + 1))
        c = part.terms[lead]
        assert c in (1, -1)
        assert all(v.denominator == 1 for v in part.terms.values())
        tail = {exps: -c * v for exps, v in part.terms.items() if exps != lead}
        closed_form = {}
        for factors, v in r._tails[k - 1]:
            exps = [0] * g
            for i in factors:
                exps[i - 1] += 1
            closed_form[tuple(exps)] = v
        assert tail == closed_form


@pytest.mark.parametrize("g", list(range(2, 7)))
def test_relation_check_catches_every_sign_flip(g):
    # each single sign flip of a closed-form rule term must break
    # c(E)c(E-dual) = 1 in the ring (the rule of g = 1, l1^2 -> 0, has no term)
    flips = [(k, t) for k, tail in enumerate(TautRing(g)._tails) for t in range(len(tail))]
    assert flips
    for k, t in flips:
        r = TautRing(g)
        factors, c = r._tails[k][t]
        r._tails[k][t] = (factors, -c)
        product = sum(r.relation_components.values(), r.ring.one)
        assert r.normal_form(product) != r.normal_form(r.ring.one), (k + 1, factors)


# -- normal forms -------------------------------------------------------------


def test_normal_form_hand_examples(ring_cache):
    # hand chain for g = 2: l1^2 = 2 l2, l1^3 = 2 l1 l2
    r2 = ring_cache(2)
    assert str(r2.normal_form(r2.ring.parse("l1^2"))) == "2*l2"
    assert str(r2.normal_form(r2.ring.parse("l1^3"))) == "2*l1*l2"
    # hand chain for g = 3: l1^2 = 2 l2, l2^2 = 2 l1 l3, l3^2 = 0
    # so l1^6 = 8 l2^3 = 8 l2 (2 l1 l3) = 16 l1 l2 l3
    r3 = ring_cache(3)
    assert str(r3.normal_form(r3.ring.parse("l1^6"))) == "16*l1*l2*l3"


def test_normal_form_is_linear(ring_cache):
    r = ring_cache(3)
    p = r.ring.parse("l1^4")
    q = r.ring.parse("l2*l1^2")
    combined = p * 3 + q * Fraction(-1, 2)
    nf = r.normal_form(combined)
    expected = {
        subset: 3 * r.normal_form(p).coefficient(subset) - Fraction(1, 2) * r.normal_form(q).coefficient(subset)
        for subset in set(r.normal_form(p).coordinates) | set(r.normal_form(q).coordinates)
    }
    for subset, value in expected.items():
        assert nf.coefficient(subset) == value


def test_normal_form_drops_above_socle(ring_cache):
    r = ring_cache(2)
    assert not r.normal_form(r.ring.parse("l1^4"))
    assert not r.normal_form(r.ring.parse("l2^2"))


# -- the truncation bound -----------------------------------------------------


@pytest.mark.parametrize("g", list(range(1, 9)))
def test_ring_is_truncated_at_the_socle(g):
    r, n = build_ring(g), g * (g + 1) // 2
    assert r.ring.bound == max(n, 2 * g)
    if g >= 3:
        assert r.ring.parse(f"l1^{n + 1}") == r.ring.zero
    else:
        # the top relation rel_2g, whose leading term is l_g^2, survives
        assert r.ring.parse(f"l{g}^2") != r.ring.zero


@pytest.mark.parametrize("g", list(range(1, 9)))
def test_ring_vanishes_above_the_socle(g):
    # R_g is zero above N_g: every monomial of degree N_g+1..N_g+g reduces to
    # the empty row, and every monomial above N_g has a divisor in that window
    r, n = TautRing(g), g * (g + 1) // 2
    monomials = monomials_by_degree(r.ring.weights, n + g)
    for d in range(n + 1, n + g + 1):
        for exps in monomials[d]:
            assert r._row(r._packing.key(exps)) == {}, (g, exps)


@pytest.mark.parametrize("g", list(range(1, 9)))
def test_socle_ratio_rejects_untruncated_input_above_the_socle(g):
    # a polynomial of another bound belongs to another ring: the ring check
    # comes before the degree check of socle_ratio
    r = build_ring(g)
    above = r.ring.with_bound(None).parse(f"l1^{r.socle_degree + 1}")
    assert above
    message = rf"^polynomial ring GradedRing\(.*; bound=inf\) is not the ring {re.escape(repr(r.ring))} of genus {g}$"
    for query in (r.socle_ratio, r.normal_form):
        with pytest.raises(ValueError, match=message):
            query(above)
    # the migration: the same terms in the ring's own bound reduce to 0
    assert not r.normal_form(r.ring.from_terms(above.terms))


@pytest.mark.parametrize("g", list(range(1, 9)))
def test_truncated_products_keep_their_normal_forms(g, ring_cache):
    # the terms a product drops lie above the bound, where R_g vanishes
    # (test_ring_vanishes_above_the_socle)
    r, rng = ring_cache(g), random.Random(f"bound{g}")
    for _ in range(20):
        a, b = (_random_polynomial(rng, r, rng.randint(1, 8)) for _ in range(2))
        free = a.truncate(None) * b.truncate(None)
        assert a * b == free.truncate(r.ring.bound)


def test_normal_form_idempotent(ring_cache):
    rng = random.Random(31415)
    for g in (2, 3, 4):
        r = ring_cache(g)
        for _ in range(10):
            terms = {}
            for _ in range(4):
                exps = tuple(rng.randint(0, 2) for _ in range(g))
                terms[exps] = Fraction(rng.randint(-5, 5))
            p = r.ring.from_terms(terms)
            nf = r.normal_form(p)
            assert r.normal_form(nf.to_polynomial()) == nf


@pytest.mark.parametrize("g", list(range(1, 8)))
def test_normal_forms_match_row_reduction(g, ring_cache, reduction_tables):
    r = ring_cache(g)
    monomials = monomials_by_degree(r.ring.weights, r.socle_degree)
    for d, oracle in enumerate(reduction_tables(g)):
        square_free = [m for m in monomials[d] if all(e <= 1 for e in m)]
        assert r.basis_monomials(d) == [r.ring.monomial(m) for m in square_free]
        for exps, coords in oracle.items():
            assert r.normal_form(r.ring.monomial(exps)).coordinates == coords, (g, exps)


@pytest.mark.parametrize("g", list(range(1, 8)))
def test_cold_rings_match_row_reduction(g, reduction_tables):
    # normal forms are filled in on first use, so the order of the queries
    # decides which memo entries exist when each one is computed
    tables = reduction_tables(g)
    oracle = {exps: coords for table in tables for exps, coords in table.items()}
    shuffled = list(oracle)
    random.Random(g).shuffle(shuffled)
    descending = [exps for table in reversed(tables) for exps in table]
    ascending = list(oracle)
    for order in (shuffled, descending, ascending):
        r, written = TautRing(g), []
        r._product = _recording(r._product, written)
        for exps in order:
            key, count, written[:] = r._packing.key(exps), len(r._rows), []
            known = key in r._rows
            assert r.normal_form(r.ring.monomial(exps)).coordinates == oracle[exps], (g, exps)
            if order is ascending:
                # every parent has a lower degree and so is known: the row
                # is built in one step, and the only other rows written are
                # the products l_a * l_k of basis elements and generators;
                # the memo only grows, so the rows written are those
                # inserted after the ones it held
                products = {r._keys[a] + r._packing.gens[k - 1] for a, k in written}
                inserted = set(itertools.islice(r._rows, count, None))
                assert inserted == (products if known else products | {key}), (g, exps)


def _recording(product, written):
    """``product``, appending each (a, k) it is called with to ``written``."""

    def recorded(a, k):
        written.append((a, k))
        return product(a, k)

    return recorded


def test_a_missing_row_comes_from_any_known_parent():
    r = TautRing(3)
    l3, l1_l3 = r.ring.monomial((0, 0, 1)), r.ring.monomial((1, 0, 1))
    assert r.normal_form(l3).coordinates == {(3,): 1}
    rows = len(r._rows)
    # l3 is a parent of l1 l3 (through l1), though not the one that drops
    # the last generator present
    assert r.normal_form(l1_l3).coordinates == {(1, 3): 1}
    assert len(r._rows) == rows + 1 and r._packing.key((1, 0, 0)) not in r._rows


def test_a_row_of_zero_is_read_from_the_memo(monkeypatch):
    r = TautRing(3)
    top_chern_squared = r.ring.monomial((0, 0, 2))
    assert not r.normal_form(top_chern_squared)
    assert r._rows[r._packing.key((0, 0, 2))] == {}

    def no_rows(key):
        raise AssertionError(f"row of key {key} computed again")

    monkeypatch.setattr(r, "_row", no_rows)
    assert not r.normal_form(top_chern_squared * 5)


def _random_polynomial(rng: random.Random, r: TautRing, terms: int):
    """Up to ``terms`` random monomials, each of a random degree up to the socle."""
    poly = {}
    for _ in range(terms):
        exps, remaining = [0] * r.genus, rng.randint(0, r.socle_degree)
        for i in rng.sample(range(1, r.genus + 1), r.genus):
            exps[i - 1] = e = rng.randint(0, remaining // i)
            remaining -= e * i
        poly[tuple(exps)] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice([1, 1, 2, 3]))
    return r.ring.from_terms(poly)


@pytest.mark.parametrize("g", [4, 5, 6, 7, 8])
def test_products_match_row_reduction(g, reduction_tables):
    # products of two elements up to the socle, formed in the ring, on a cold
    # ring whose memo they fill; g = 8 reads its monomials' normal forms off
    # localization, whose pairing inversion is a fraction of the cost of the
    # g = 8 row-reduction tables
    r, rng = TautRing(g), random.Random(f"memo{g}")
    if g <= 7:
        oracle = {e: c for table in reduction_tables(g) for e, c in table.items()}.__getitem__
    else:
        oracle = functools.partial(localization_oracle.normal_form, g)
    for _ in range(30):
        a, b = (_random_polynomial(rng, r, rng.randint(1, 8)) for _ in range(2))
        p = a * b
        nf = r.normal_form(p)
        assert r.normal_form(p) == nf
        expected = {}
        for e, c in p.terms.items():
            for subset, v in oracle(e).items():
                expected[subset] = expected.get(subset, 0) + c * v
        assert nf.coordinates == {s: v for s, v in expected.items() if v}, g


def _no_decode(*args):
    raise AssertionError("a kernel was decoded into Fractions")


# inputs of normal_form and socle_ratio made from a, built from terms, and
# b, parsed: (the route, the same polynomial by graded_oracle)
_QUERY_ROUTES = (
    (lambda a, b: a * b, graded_oracle.mul),
    (lambda a, b: a + b, graded_oracle.add),
    (lambda a, b: a - b / 3, lambda a, b: graded_oracle.add(a, b, Fraction(-1, 3))),
    (lambda a, b: -a * 4, lambda a, b: graded_oracle.scale(a, -4)),
    (lambda a, b: b.truncate(None).truncate(b.ring.bound), lambda a, b: b),
)


@pytest.mark.parametrize("g", list(range(1, 8)))
def test_normal_forms_of_products_read_their_kernels(g, ring_cache, reduction_tables, monkeypatch):
    # a polynomial holds its kernel, however it was made; normal_form and
    # socle_ratio read its integer numerators without decoding it into
    # Fractions
    r, rng = ring_cache(g), random.Random(f"kernel{g}")
    oracle = {e: c for table in reduction_tables(g) for e, c in table.items()}
    pairs = [tuple(_random_polynomial(rng, r, rng.randint(1, 8)) for _ in range(2)) for _ in range(20)]
    inputs = [(a.terms, str(b)) for a, b in pairs]
    forms, socles = [], []
    with monkeypatch.context() as m:
        m.setattr(graded._Packing, "unpack", _no_decode)
        for terms, text in inputs:
            a, b = r.ring.from_terms(terms), r.ring.parse(text)
            for route, _ in _QUERY_ROUTES:
                p = route(a, b)
                forms.append((p, r.normal_form(p)))
                top = p.homogeneous_part(r.socle_degree)
                assert top.is_homogeneous_of(r.socle_degree)
                socles.append(r.socle_ratio(top))
    values = [oracle_route(a, b) for a, b in pairs for _, oracle_route in _QUERY_ROUTES]
    for (p, nf), socle, value in zip(forms, socles, values):
        assert nf == r.normal_form(r.ring.from_terms(p.terms))
        expected = {}
        for e, c in value.terms.items():
            # R_g is zero above the socle, where g = 1, 2 still have terms
            for subset, v in oracle.get(e, {}).items():
                expected[subset] = expected.get(subset, 0) + c * v
        assert nf.coordinates == {s: v for s, v in expected.items() if v}, g
        assert socle == expected.get(tuple(range(1, g + 1)), 0), g


def _no_exponents(key):
    raise AssertionError(f"key {key} was decoded")


@pytest.mark.parametrize("g", range(1, 9))
def test_a_warm_memo_decodes_nothing(g, monkeypatch):
    # the row memo is keyed by the ring's packed keys, so once the rows a
    # query needs are known it looks up its kernel's keys as they are:
    # normal_form, socle_ratio and pairing_matrix decode no key
    r, rng = TautRing(g), random.Random(f"warm{g}")
    polys = [_random_polynomial(rng, r, rng.randint(1, 8)) for _ in range(20)]
    polys += [a * b for a, b in zip(polys[::2], polys[1::2])]
    socles = [p.homogeneous_part(r.socle_degree) for p in polys]

    def queries():
        forms = [r.normal_form(p) for p in polys]
        return forms, [r.socle_ratio(p) for p in socles], [r.pairing_matrix(d) for d in range(r.socle_degree + 1)]

    warm = queries()
    # the pairing matrices are built again, from the warm rows
    r._pairings.clear()
    with monkeypatch.context() as m:
        m.setattr(r._packing, "exponents", _no_exponents)
        assert queries() == warm, g


def _raises(*args, **kwargs):
    raise AssertionError("the rewrite was called")


def test_row_reduction_shares_no_code_with_the_rewrite(monkeypatch):
    # the second route to normal forms builds a g = 4 table while the
    # rewrite and its memos raise, and the rewrite then gives the same forms
    with monkeypatch.context() as m:
        for name in ("_row", "_times", "_product"):
            m.setattr(TautRing, name, _raises)
        cold = TautRing(4)
        with pytest.raises(AssertionError, match="the rewrite was called"):
            cold.normal_form(cold.ring.monomial((2, 0, 0, 0)))
        tables = reduce_maps(TautRing(4))
    r = TautRing(4)
    assert sum(map(len, tables)) > 2**4
    for table in tables:
        for exps, coords in table.items():
            assert r.normal_form(r.ring.monomial(exps)).coordinates == coords, exps


def test_relation_components_share_no_code_with_the_rewrite(monkeypatch):
    # the engine multiplies out c(E)c(E-dual) while the rewrite and its
    # memos raise, and the rewrite then reduces the product to 1
    with monkeypatch.context() as m:
        for name in ("_row", "_times", "_product"):
            m.setattr(TautRing, name, _raises)
        r = TautRing(4)
        with pytest.raises(AssertionError, match="the rewrite was called"):
            r.normal_form(r.ring.monomial((2, 0, 0, 0)))
        relations = r.relation_components
    assert sorted(relations) == [2, 4, 6, 8] and all(relations.values())
    assert r.normal_form(sum(relations.values(), r.ring.one)) == r.normal_form(r.ring.one)


@pytest.mark.parametrize("g", range(2, 9))
def test_lambda_g_embeds_the_ring_of_one_genus_less(g):
    # van der Geer ("Cycles on the moduli space of abelian varieties", 1999):
    # multiplication by lambda_g embeds R_{g-1} in R_g, sending l_a to
    # l_{a + {g}}, so NF_g(l_g m) = l_g NF_{g-1}(m) for every monomial m in
    # l_1..l_{g-1}.  The two sides come from two rings, each with its memo;
    # m runs over exponents up to 3 and degrees up to two past the socle.
    upper, lower = TautRing(g), TautRing(g - 1)
    top = lower.socle_degree + 2
    count = 0
    for exps in itertools.product(range(4), repeat=g - 1):
        if sum(i * e for i, e in enumerate(exps, start=1)) <= top:
            count += 1
            below = lower.normal_form(lower.ring.monomial(exps))
            above = upper.normal_form(upper.ring.monomial(exps + (1,)))
            assert above.coordinates == {a + (g,): c for a, c in below.coordinates.items()}, exps
    assert g != 8 or count == 3282


@pytest.mark.parametrize("g", range(2, 10))
def test_power_sums_of_the_hodge_bundle_in_the_ring(g, ring_cache):
    # van der Geer (1999): ch_{2g-1}(E) = (-1)^(g-1) lambda_{g-1} lambda_g /
    # (2g-1)!, and ch_k(E) vanishes for even k > 0 and for odd k > 2g - 1;
    # the power sum p_k = k! ch_k of the Chern roots, moved from c_i to l_i
    # of the same weight, reduces accordingly in R_g.  g = 9 is past the
    # cap of build_ring; at g = 10 the power sums hold all 947,537
    # monomials up to degree 55, and their rows alone take about 0.4 GB
    r, top = ring_cache(g), g * (g + 1) // 2
    p = newton_power_sums(BundleClasses.generators(g), top)
    nf = [r.normal_form(r.ring.from_terms(p_k.terms)) for p_k in p]
    pair = r.ring.monomial(tuple(int(i >= g - 1) for i in range(1, g + 1)))
    assert nf[2 * g - 1] == r.normal_form(pair * (-1) ** (g - 1)) and nf[2 * g - 1], g
    assert not any(nf[k] for k in range(2, top + 1) if k % 2 == 0 or k > 2 * g - 1), g


@pytest.mark.parametrize("g", list(range(1, 9)))
def test_socle_ratio_is_the_socle_coordinate(g, ring_cache):
    r, rng = ring_cache(g), random.Random(f"socle{g}")
    top, full = r.socle_degree, tuple(range(1, g + 1))
    for _ in range(20):
        a, b = (_random_polynomial(rng, r, rng.randint(1, 8)) for _ in range(2))
        d = rng.randint(0, top)
        # a part of a product and a product of parts
        for p in ((a * b).homogeneous_part(top), a.homogeneous_part(d) * b.homogeneous_part(top - d)):
            assert r.socle_ratio(p) == r.normal_form(p).coordinates.get(full, 0), (g, p)


def _answer(ring, query):
    kind, arg = query
    if kind == "pairing":
        return ring.pairing_matrix(arg)
    return ring.normal_form(ring.ring.monomial(arg))


def test_concurrent_queries_on_a_cold_ring():
    # six threads share one cold ring and race on its memo entries; each must
    # see exactly what a sequential run on another cold ring sees
    sequential = TautRing(8)
    rng = random.Random(8)
    monomials = [tuple(rng.randint(0, 6) for _ in range(8)) for _ in range(2000)]
    queries = [("pairing", d) for d in range(sequential.socle_degree + 1)]
    queries += [("nf", m) for m in monomials if sequential.ring.degree(m) <= sequential.socle_degree][:400]
    expected = [_answer(sequential, q) for q in queries]

    def worker(shared: TautRing, index: int, start: threading.Barrier, results: dict) -> None:
        order = list(range(len(queries)))
        random.Random(index).shuffle(order)
        start.wait()
        answers = {i: _answer(shared, queries[i]) for i in order}
        results[index] = [answers[i] for i in range(len(queries))]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            shared, start, results = TautRing(8), threading.Barrier(6), {}
            threads = [threading.Thread(target=worker, args=(shared, i, start, results)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert sorted(results) == list(range(6))
            for answers in results.values():
                assert answers == expected
    finally:
        sys.setswitchinterval(interval)


def _polynomials(ring):
    exponents = st.tuples(*[st.integers(0, 3)] * ring.ngens)
    coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    return st.dictionaries(exponents, coefficients, max_size=4).map(ring.from_terms)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), g=st.integers(1, 5))
def test_normal_form_is_multiplicative(data, g, ring_cache):
    r = ring_cache(g)
    a = data.draw(_polynomials(r.ring))
    b = data.draw(_polynomials(r.ring))
    reduced = r.normal_form(a).to_polynomial() * r.normal_form(b).to_polynomial()
    assert r.normal_form(a * b) == r.normal_form(reduced)


def test_normal_form_wrong_alphabet(ring_cache):
    from abtaut import GradedRing

    r = ring_cache(2)
    other = GradedRing(("x", "y"), (1, 2), None)
    with pytest.raises(ValueError):
        r.normal_form(other.gen(0))


@pytest.mark.parametrize("value", [0.1, 0.0, "1/3", 2 + 0j, True, False])
def test_element_rejects_inexact_coordinates(value):
    with pytest.raises(TypeError, match=r"^expected an integer or Fraction, got "):
        TautRingElement(2, {(1,): value})


@pytest.mark.parametrize(
    "genus, coordinates, error",
    [
        (2, {(5,): 1}, ValueError),
        (2.5, {(1,): 1}, TypeError),
        (3, {(2, 1): 1}, ValueError),
        (0, {}, ValueError),
        (True, {}, TypeError),
        (2, {(1, 1): 1}, ValueError),
        # a zero coefficient is dropped, but its subset is checked all the same
        (2, {(0,): 0}, ValueError),
        (2, {(1.0,): 1}, TypeError),
        (2, {(True,): 1}, TypeError),
        (2, {1: 1}, TypeError),
        (2, {"1": 1}, TypeError),
    ],
)
def test_element_rejects_bad_genus_or_subset(genus, coordinates, error):
    with pytest.raises(error) as info:
        TautRingElement(genus, coordinates)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("g", list(range(1, 7)))
def test_normal_forms_pass_the_element_checks(g, ring_cache):
    # normal_form wraps its coordinates unchecked; they must pass the checks
    r = ring_cache(g)
    rng = random.Random(g)
    for _ in range(20):
        exps = tuple(rng.randint(0, 3) for _ in range(g))
        nf = r.normal_form(r.ring.monomial(exps) * Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        assert TautRingElement(nf.genus, nf.coordinates) == nf
        assert all(type(c) is Fraction and c for c in nf.coordinates.values())


@pytest.mark.parametrize("subset, error", [((2, 1), ValueError), ((7,), ValueError), ([1.0, 2.0], TypeError)])
def test_coefficient_checks_its_subset(subset, error, ring_cache):
    # l1^3 = 2 l1 l2 at g = 3
    r = ring_cache(3)
    nf = r.normal_form(r.ring.parse("l1^3"))
    with pytest.raises(error) as info:
        nf.coefficient(subset)
    assert "\n" not in str(info.value)


def test_coefficient_of_a_valid_subset(ring_cache):
    r = ring_cache(3)
    nf = r.normal_form(r.ring.parse("l1^3"))
    assert str(nf) == "2*l1*l2"
    assert nf.coefficient([1, 2]) == nf.coefficient(range(1, 3)) == 2
    assert nf.coefficient(()) == nf.coefficient((1, 3)) == 0


def test_element_keeps_exact_coordinates():
    element = TautRingElement(2, {(1,): 3, (2,): Fraction(1, 3), (1, 2): 0, (): Fraction(0)})
    assert element.coordinates == {(1,): Fraction(3), (2,): Fraction(1, 3)}
    assert all(type(c) is Fraction for c in element.coordinates.values())


# -- the stored row -----------------------------------------------------------


@pytest.mark.parametrize("g", range(2, 9))
def test_normal_forms_store_reduced_rows(g, ring_cache):
    # l1^2 = 2 l2, so (2/6) l1^2 + (2/6) l2 = (l1^2 + l2)/3 sums to the row
    # 3 l2 over 3: the denominator shares its content with the row, which is
    # divided out
    r = ring_cache(g)
    nf = r.normal_form(r.ring.parse("2/6*l1^2 + 2/6*l2"))
    same = TautRingElement(g, nf.coordinates)
    assert nf == same == TautRingElement(g, {(2,): 1}) == r.normal_form(r.ring.parse("l2"))
    assert hash(nf) == hash(same)
    # any other input: the checked constructor stores the same row
    rng = random.Random(f"reduced{g}")
    for _ in range(30):
        p = _random_polynomial(rng, r, rng.randint(1, 6)) * Fraction(rng.choice([2, 4, 6]), rng.choice([2, 3, 4, 6]))
        nf = r.normal_form(p)
        same = TautRingElement(g, dict(nf.coordinates))
        assert nf == same and hash(nf) == hash(same), p


class _NoFraction(Fraction):
    def __new__(cls, *args, **kwargs):
        raise AssertionError("a Fraction was built")


@pytest.mark.parametrize("g", range(1, 9))
def test_ring_queries_build_no_fraction(g, monkeypatch):
    # normal_form wraps the integer row it sums, and ==, hash, bool and
    # to_polynomial read that row: none of them builds a Fraction
    r, rng = TautRing(g), random.Random(f"nofraction{g}")
    polys = [_random_polynomial(rng, r, rng.randint(1, 8)) for _ in range(20)]
    polys += [a * b for a, b in zip(polys[::2], polys[1::2])]

    def queries():
        forms = [r.normal_form(p) for p in polys]
        return forms, [f == r.normal_form(p) for f, p in zip(forms, polys)], [(hash(f), bool(f), f.to_polynomial(), str(f)) for f in forms]

    warm = queries()
    with monkeypatch.context() as m:
        m.setattr(tautring, "Fraction", _NoFraction)
        with pytest.raises(AssertionError, match="a Fraction was built"):
            r.normal_form(polys[0]).coefficient(())
        assert queries() == warm, g
    assert all(warm[1])


@pytest.mark.parametrize("g", [1, 3, 8])
def test_coordinates_are_decoded_on_each_read(g, ring_cache):
    # normal_form and the public constructor decode equal coordinates, each
    # read a fresh dict that the caller may change
    r, rng = ring_cache(g), random.Random(f"once{g}")
    for p in [r.ring.zero, r.ring.parse("l1"), r.ring.parse("1/2*l1^2")] + [_random_polynomial(rng, r, 6) for _ in range(10)]:
        nf = r.normal_form(p)
        first = nf.coordinates
        assert all(type(c) is Fraction and c for c in first.values())
        assert first == {s: nf.coefficient(s) for s in first}
        constructed = TautRingElement(g, first)
        assert constructed.coordinates == first and str(nf) == str(constructed)
        check_fresh_view(nf, "coordinates", constructed)
        check_fresh_view(constructed, "coordinates", nf)


@pytest.mark.parametrize("element", ["normal form", "constructed"])
def test_coordinates_are_read_only(element, ring_cache):
    # neither a read nor the constructor's argument can drift from the row
    # that ==, hash and str read
    r = ring_cache(3)
    nf = r.normal_form(r.ring.parse("l1^3 + 1/2*l3"))
    given = {(1, 2): Fraction(2), (3,): Fraction(1, 2)}
    x = nf if element == "normal form" else TautRingElement(3, given)
    with pytest.raises(AttributeError):
        x.coordinates = {}
    view = x.coordinates
    view[(1, 2)] = Fraction(5)
    del view[(3,)]
    given[(1, 2)] = Fraction(5)
    assert x.coordinates == {(1, 2): 2, (3,): Fraction(1, 2)} and x == nf
    assert str(x) == "1/2*l3 + 2*l1*l2"
    check_fresh_view(x, "coordinates", TautRingElement(3, {(3,): Fraction(1, 2), (1, 2): 2}))


def test_threads_decode_shared_coordinates_alike():
    # each element is decoded first by the racing threads
    r, rng = TautRing(8), random.Random(35)
    polys = [_random_polynomial(rng, r, rng.randint(1, 8)) for _ in range(20)]
    expected = [r.normal_form(p).coordinates for p in polys]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for p, coordinates in zip(polys * 3, expected * 3):
            shared, start, seen = r.normal_form(p), threading.Barrier(6), []

            def read():
                start.wait()
                seen.append(shared.coordinates)

            threads = [threading.Thread(target=read) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert len(seen) == 6 and all(c == coordinates for c in seen)
    finally:
        sys.setswitchinterval(interval)


# -- socle ratios -------------------------------------------------------------


def _degree_lagrangian_grassmannian(g: int) -> Fraction:
    """deg LG(g, 2g) = N! 2^{g(g-1)/2} prod_{i=1..g} (i-1)!/(2i-1)!, N = g(g+1)/2."""
    value = Fraction(factorial(g * (g + 1) // 2) * 2 ** (g * (g - 1) // 2))
    for i in range(1, g + 1):
        value *= Fraction(factorial(i - 1), factorial(2 * i - 1))
    return value


def test_socle_ratios_hand_examples(ring_cache):
    assert ring_cache(2).socle_ratio(ring_cache(2).ring.parse("l1^3")) == 2
    assert ring_cache(3).socle_ratio(ring_cache(3).ring.parse("l1^6")) == 16
    # g = 4: l1^3 = 2 l1 l2, then multiply by l3 l4
    assert ring_cache(4).socle_ratio(ring_cache(4).ring.parse("l4*l3*l1^3")) == 2
    # closed form: l1^N pairs to deg LG(g, 2g), since R_g = H*(LG(g, 2g)) with
    # l1 the hyperplane class (van der Geer 1999)
    assert [_degree_lagrangian_grassmannian(g) for g in range(1, 6)] == [1, 2, 16, 768, 292864]
    for g in range(1, 9):
        r = ring_cache(g)
        l1 = r.ring.gen(0)
        assert r.socle_ratio(l1 ** r.socle_degree) == _degree_lagrangian_grassmannian(g), g


def test_degrees_of_lambda_one_powers_on_the_toroidal_compactification(ring_cache):
    # Hirzebruch-Mumford proportionality: the degree on the toroidal
    # compactification of a class of degree N_g, such as lambda_1^N_g, is its
    # socle ratio times (-1)^N_g prod_{k <= g} zeta(1 - 2k) / 2.  The values
    # for g = 1..4 are van der Geer's, "Cycles on the moduli space of abelian
    # varieties" (1999), typed in by hand; those for g = 5, 6 are regression
    # pins only.
    published = [Fraction(1, 24), Fraction(1, 2880), Fraction(1, 181440), Fraction(1, 1814400)]
    pins = [Fraction(13, 16329600), Fraction(223193, 7072758000)]
    for g, expected in enumerate(published + pins, start=1):
        r = ring_cache(g)
        volume = Fraction((-1) ** r.socle_degree)
        for k in range(1, g + 1):
            volume *= zeta_negative_odd(k) / 2
        assert r.socle_ratio(r.ring.gen(0) ** r.socle_degree) * volume == expected, g


def test_socle_ratio_rejects_wrong_degree(ring_cache):
    r = ring_cache(2)
    with pytest.raises(ValueError):
        r.socle_ratio(r.ring.parse("l1^2"))
    with pytest.raises(ValueError):
        r.socle_ratio(r.ring.parse("l1^3 + l1"))


def test_socle_ratio_reads_its_smallest_and_largest_keys(ring_cache):
    # keys sort by degree, so the smallest and the largest bound them all;
    # at g = 2 the bound 4 lies past the socle degree 3, so a term may lie
    # above the socle as well as below it
    r = ring_cache(2)
    assert r.socle_ratio(r.ring.zero) == 0 and r.socle_ratio(r.ring.parse("l1^3 - 2*l1*l2")) == 0
    assert r.socle_ratio(r.ring.parse("l1^3 + 5*l1*l2")) == 7
    for text in ("l1", "l1^4", "l1^3 + l2", "l1^3 + l1^4", "l1 + l1*l2 + l1^2*l2", "l2 + l1^4"):
        with pytest.raises(ValueError, match=r"^socle_ratio requires a homogeneous polynomial of degree 3$"):
            r.socle_ratio(r.ring.parse(text))


@pytest.mark.parametrize("g", [1, 2, 5, 8])
def test_a_polynomial_of_an_equal_ring_queries_as_its_own(g, ring_cache):
    # a GradedRing equal to the ring's own, though another object, has its
    # one packing: its polynomials multiply with the ring's and query the
    # ring exactly as the ring's own polynomials do
    r, rng = ring_cache(g), random.Random(f"equal ring{g}")
    twin = GradedRing(r.ring.names, r.ring.weights, r.ring.bound)
    assert twin == r.ring and twin is not r.ring
    for _ in range(10):
        a, b = (_random_polynomial(rng, r, rng.randint(1, 8)) for _ in range(2))
        x, y = twin.from_terms(a.terms), twin.from_terms(b.terms)
        product, top = a * b, r.socle_degree
        for p in (x * y, a * y, x * b):
            assert p == product and p._kernel.terms == product._kernel.terms
            assert r.normal_form(p) == r.normal_form(product)
            assert r.socle_ratio(p.homogeneous_part(top)) == r.socle_ratio(product.homogeneous_part(top))
        assert r.normal_form(x) == r.normal_form(a) and r.normal_form(x)._row.terms == r.normal_form(a)._row.terms


@pytest.mark.parametrize("g", [1, 2, 5, 8])
def test_a_polynomial_of_another_bound_is_refused(g, ring_cache):
    # the ring check still compares rings that are not the same object:
    # each query refuses another bound with one line, even on zero
    r = ring_cache(g)
    l1 = r.ring.gen(0)
    for bound in (0, r.ring.bound - 1, r.ring.bound + 1, 256, None):
        other = r.ring.with_bound(bound)
        socle = other.monomial((r.socle_degree,) + (0,) * (g - 1))
        for p in (other.gen(0), socle, other.zero):
            for left, right in ((l1, p), (p, l1)):
                with pytest.raises(ValueError) as refused:
                    left * right
                assert str(refused.value) == f"incompatible rings: {left.ring!r} vs {right.ring!r}"
            for query in (r.normal_form, r.socle_ratio):
                with pytest.raises(ValueError) as refused:
                    query(p)
                assert str(refused.value) == f"polynomial ring {other!r} is not the ring {r.ring!r} of genus {g}"


@pytest.mark.parametrize("g", [1, 2, 5])
def test_the_ring_polynomials_of_r_g_carry_its_packing(g, ring_cache):
    # the bounded product multiplies kernels under the ring's one packing,
    # which every polynomial the ring and its elements hand out carries
    r = ring_cache(g)
    made = [m for d in range(r.socle_degree + 1) for m in r.basis_monomials(d)]
    made += [*r.relation_components.values(), r.normal_form(r.ring.gen(0) ** 3).to_polynomial()]
    made += [TautRingElement(g, {(1,): Fraction(1, 2)}).to_polynomial()]
    for p in made:
        assert p.ring == r.ring and p._packing is graded._packing(r.ring) is r._packing


# -- pairing ------------------------------------------------------------------


def test_pairing_matrix_examples(ring_cache):
    assert ring_cache(2).pairing_matrix(0) == [[Fraction(1)]]
    # degree-3 basis of g = 3 in graded-lex order: l3, l1*l2
    matrix = ring_cache(3).pairing_matrix(3)
    assert matrix == [[0, 1], [1, 4]]
    assert determinant(matrix) == -1


def _complement_sign(r: TautRing, d: int) -> int:
    """The sign of the permutation a -> {1..g} - a from the degree-d basis
    to the degree N_g - d basis, each in the ring's order."""
    position = {b: j for j, b in enumerate(r._basis[r.socle_degree - d])}
    image = [position[r._keys[-1] - a] for a in r._basis[d]]
    inversions = sum(x > y for i, x in enumerate(image) for y in image[i + 1 :])
    return (-1) ** inversions


def _assert_unimodular_pairing(r: TautRing) -> None:
    # every pairing matrix has int entries, and its determinant is the sign
    # of the complement permutation between the two bases
    for d in range(r.socle_degree + 1):
        matrix = r.pairing_matrix(d)
        assert len(matrix) == len(r.basis_monomials(d))
        assert all(len(row) == len(matrix) for row in matrix), (r.genus, d)
        assert all(type(x) is int for row in matrix for x in row), (r.genus, d)
        det = determinant(matrix)
        assert type(det) is Fraction and det == _complement_sign(r, d), (r.genus, d, det)


def test_pairing_determinants_take_both_signs():
    r = TautRing(10)
    signs = [_complement_sign(r, d) for d in range(r.socle_degree + 1)]
    assert signs.count(-1) == 28 and signs.count(1) == 28


@pytest.mark.parametrize("g", list(range(1, MAX_RING_GENUS + 1)))
def test_pairing_nonsingular_everywhere(g, ring_cache):
    _assert_unimodular_pairing(ring_cache(g))


def _peel(matrix: list[list[int]]) -> list[int]:
    """While some row left has exactly one nonzero entry in the columns left,
    remove the first such row and that entry's column; the entries removed,
    in order."""
    rows, cols, removed = list(range(len(matrix))), list(range(len(matrix))), []
    while True:
        for i in rows:
            support = [j for j in cols if matrix[i][j]]
            if len(support) == 1:
                break
        else:
            return removed
        rows.remove(i)
        cols.remove(support[0])
        removed.append(matrix[i][support[0]])


def _strict_partition(p) -> tuple[int, ...]:
    """The subset a of a basis monomial l_a as a strict partition: its
    elements in decreasing order."""
    (exps,) = p.terms
    return tuple(i for i in range(len(exps), 0, -1) if exps[i - 1])


def _dominated(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    """Whether the strict partition x is dominated by y, of the same size:
    each partial sum of x is at most y's."""
    return all(a <= b for a, b in zip(itertools.accumulate(x), itertools.accumulate(y + (0,) * len(x))))


@pytest.mark.parametrize("g", list(range(1, 11)))
def test_pairing_matrices_peel_to_nothing(g, ring_cache):
    # removing a row with one nonzero entry, and that entry's column, always
    # leaves such a row until the pairing matrix is empty, and every entry
    # removed is +-1: determinant expands each pairing matrix to the end.
    # The reason is checked too: the socle coordinate of l_a l_b is +-1 when
    # b is the complement of a, and 0 unless b is dominated by it
    r = ring_cache(g) if g <= MAX_RING_GENUS else TautRing(g)
    for d in range(r.socle_degree + 1):
        matrix = r.pairing_matrix(d)
        removed = _peel(matrix)
        assert len(removed) == len(matrix) and all(abs(x) == 1 for x in removed), (g, d)
        columns = [_strict_partition(p) for p in r.basis_monomials(r.socle_degree - d)]
        for p, row in zip(r.basis_monomials(d), matrix):
            a = _strict_partition(p)
            complement = tuple(k for k in range(g, 0, -1) if k not in a)
            for b, x in zip(columns, row):
                assert abs(x) == 1 if b == complement else not x or _dominated(b, complement), (g, d, a, b)


@pytest.mark.parametrize("g", list(range(1, 9)))
def test_pairing_matrix_returns_independent_copies(g):
    r, fresh = TautRing(g), TautRing(g)
    for d in range(r.socle_degree + 1):
        matrix = r.pairing_matrix(d)
        matrix[0][0] += 1
        matrix.append([])
        assert r.pairing_matrix(d) == fresh.pairing_matrix(d), (g, d)


def test_pairing_degree_out_of_range(ring_cache):
    with pytest.raises(ValueError):
        ring_cache(2).pairing_matrix(4)


def test_determinant_utility():
    assert determinant([]) == 1
    assert determinant([[2]]) == 2
    assert determinant([[1, 2], [2, 4]]) == 0
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[2, 3], [4, 5]]) == -2
    # a zero leading pivot, then a row move past two rows
    assert determinant([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert determinant([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
    assert all(type(determinant(m)) is Fraction for m in ([], [[3]], [[0]], [[1, 2], [2, 4]]))


# the shape is checked before the entries, also entries the expansion skips
@pytest.mark.parametrize(
    "matrix",
    [[[1, 2]], [[1], [2, 3]], [[1, 2], [3]], [[]], [[1, 0.5], [1]], [[False], [1, 2]], [[1, 2], [Fraction(0)]], [[0.0, 1, 0], [1, 0], [0, 0, 1]]],
)
def test_determinant_rejects_non_square(matrix):
    with pytest.raises(ValueError, match="^determinant requires a square matrix$"):
        determinant(matrix)


@pytest.mark.parametrize("entry", [0.5, 1.0, "1/2", "1", None, 1 + 0j, True, Fraction(1, 2), Fraction(3)])
def test_determinant_rejects_non_rational_entries(entry):
    # an entry is exactly an int: bools and Fractions, even integral ones, are refused
    with pytest.raises(TypeError, match=r"^determinant requires int entries, got [^\n]+\Z"):
        determinant([[1, entry], [2, 3]])


_ENTRIES = st.integers(-6, 6)


@st.composite
def _square_matrices(draw):
    n = draw(st.integers(0, 6))
    m = [draw(st.lists(_ENTRIES, min_size=n, max_size=n)) for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        # a row that depends on two others (or on one): singular
        i = draw(st.integers(0, n - 1))
        others = st.sampled_from([r for r in range(n) if r != i])
        j, k, a, b = draw(others), draw(others), draw(_ENTRIES), draw(_ENTRIES)
        m[i] = [a * x + b * y for x, y in zip(m[j], m[k])]
    if n and draw(st.booleans()):
        m[0][0] = 0
    return m


@settings(max_examples=300, deadline=None)
@given(_square_matrices())
def test_determinant_matches_gaussian_elimination(matrix):
    det = determinant(matrix)
    assert type(det) is Fraction
    assert det == gauss_oracle.determinant(matrix)


def _permuted_triangular(rng: random.Random, n: int, block: int = 0) -> list[list[int]]:
    """A lower triangular n x n matrix with a nonzero diagonal whose last
    ``block`` rows and columns are replaced by a block of nonzero entries,
    its rows and then its columns shuffled.  A row of the block never has
    fewer than ``block`` nonzero entries left, so the expansion takes the
    n - block other rows and stops."""
    m = [[rng.randint(-3, 3) if j < i else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        m[i][i] = rng.choice([-1, 1]) * rng.randint(1, 5)
    for i in range(n - block, n):
        m[i][n - block :] = [rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(block)]
    rng.shuffle(m)
    order = rng.sample(range(n), n)
    return [[row[j] for j in order] for row in m]


def _with_zero_row(rng: random.Random, m: list[list[int]]) -> list[list[int]]:
    i = rng.randrange(len(m))
    return [[0] * len(row) if k == i else row for k, row in enumerate(m)]


def _with_zero_column(rng: random.Random, m: list[list[int]]) -> list[list[int]]:
    j = rng.randrange(len(m))
    return [[0 if k == j else x for k, x in enumerate(row)] for row in m]


def _expansion_corpus(kind: str, seed: int) -> list[list[list[int]]]:
    rng = random.Random(f"{kind}{seed}")
    sizes = range(1, 13)
    if kind == "triangular":
        return [_permuted_triangular(rng, n) for n in sizes]
    if kind == "planted":
        return [_permuted_triangular(rng, n, block) for n in sizes for block in range(2, min(n - 1, 5) + 1)]
    if kind == "zero row":
        return [_with_zero_row(rng, _permuted_triangular(rng, n, rng.randint(0, n // 2))) for n in sizes]
    if kind == "zero column":
        return [_with_zero_column(rng, _permuted_triangular(rng, n, rng.randint(0, n // 2))) for n in sizes]
    return [[[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)] for n in range(1, 9)]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["triangular", "planted", "zero row", "zero column", "dense"])
def test_determinant_expands_then_eliminates(kind, seed):
    # expansion alone, expansion stopped by a dense block that elimination
    # finishes, a zero row or column met in either phase, elimination alone;
    # each against the oracle, on list and on tuple rows, the input unchanged
    for matrix in _expansion_corpus(kind, seed):
        if kind == "planted":
            assert 0 < len(_peel(matrix)) < len(matrix)
        snapshot = [row[:] for row in matrix]
        det = determinant(matrix)
        assert type(det) is Fraction and det == gauss_oracle.determinant(matrix), (kind, matrix)
        assert matrix == snapshot
        assert determinant(tuple(map(tuple, matrix))) == det
        if kind.startswith("zero"):
            assert det == 0


@pytest.mark.parametrize("entry", [False, 0.0, Fraction(0)])
def test_determinant_refuses_a_zero_valued_entry_the_expansion_would_skip(entry):
    # the bad entry sits in a row with one nonzero entry or none: the row
    # the expansion takes first, or the zero row that ends it
    message = r"^determinant requires int entries, got [^\n]+\Z"
    for matrix in ([[entry]], [[1, 2, 3], [4, 5, 6], [7, entry, 0]], [[1, 2], [entry, 0]], [[0, 1, 0], [0, 0, 1], [1, entry, 0]]):
        with pytest.raises(TypeError, match=message):
            determinant(matrix)


def _no_determinant(*args, **kwargs):
    raise AssertionError("the library determinant was called")


def test_gauss_oracle_shares_no_code_with_determinant(ring_cache, monkeypatch):
    # the library's determinants of every pairing matrix up to g = 10, of
    # some dense matrices and of matrices whose expansion a dense block
    # stops, then the second route with the library's raising
    rng = random.Random(35)
    rings = [ring_cache(g) for g in range(1, MAX_RING_GENUS + 1)] + [TautRing(9), TautRing(10)]
    pairings = [r.pairing_matrix(d) for r in rings for d in range(r.socle_degree + 1)]
    dense = [[[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)] for n in range(1, 8) for _ in range(5)]
    dense += [_permuted_triangular(rng, n, block) for n in range(3, 13) for block in (2, n // 2 + 1)]
    answers = [determinant(m) for m in pairings + dense]
    assert {abs(a) for a in answers[: len(pairings)]} == {1}
    with monkeypatch.context() as m:
        # the function object itself raises, however a caller imported it
        m.setattr(tautring.determinant, "__code__", _no_determinant.__code__)
        with pytest.raises(AssertionError, match="the library determinant was called"):
            determinant([[1]])
        assert [gauss_oracle.determinant(m) for m in pairings + dense] == answers


# -- localization on LG(g, 2g) -----------------------------------------------


def _random_socle_monomial(rng: random.Random, g: int) -> tuple[int, ...]:
    """A random exponent vector of weighted degree N_g."""
    exps, remaining = [0] * g, g * (g + 1) // 2
    while remaining:
        k = rng.randint(1, min(g, remaining))
        exps[k - 1] += 1
        remaining -= k
    return tuple(exps)


def _localized_pairings(r: TautRing) -> list[list[list[Fraction]]]:
    """Every degree's pairing matrix by localization, on the exponent
    vectors of ``basis_monomials``."""
    bases = [[next(iter(m.terms)) for m in r.basis_monomials(d)] for d in range(r.socle_degree + 1)]
    return [
        [[localization_oracle.integral(r.genus, tuple(x + y for x, y in zip(a, b))) for b in bases[-1 - d]] for a in basis]
        for d, basis in enumerate(bases)
    ]


@pytest.mark.parametrize("g", range(1, 11))
def test_localization_integrates_the_socle_class_to_one(g):
    assert localization_oracle.integral(g, (1,) * g) == 1


@pytest.mark.parametrize("g", range(1, 9))
def test_socle_ratios_match_localization(g, ring_cache):
    r, rng = ring_cache(g), random.Random(f"localization{g}")
    for _ in range(40):
        exps = _random_socle_monomial(rng, g)
        assert r.socle_ratio(r.ring.monomial(exps)) == localization_oracle.integral(g, exps), exps


@pytest.mark.parametrize("g", range(1, 7))
def test_pairing_matrices_match_localization(g, ring_cache):
    r = ring_cache(g)
    assert [r.pairing_matrix(d) for d in range(r.socle_degree + 1)] == _localized_pairings(r)


def test_localization_shares_no_code_with_the_rewrite(monkeypatch):
    # the third route integrates a g = 5 ring's pairings and some socle
    # monomials, and inverts the pairings into normal forms of monomials of
    # every degree, while the rewrite and its memos raise; the rewrite then
    # gives the same values
    rng = random.Random("localization raises")
    monomials = [_random_socle_monomial(rng, 5) for _ in range(20)]
    with monkeypatch.context() as m:
        for name in ("_row", "_times", "_product"):
            m.setattr(TautRing, name, _raises)
        cold = TautRing(5)
        with pytest.raises(AssertionError, match="the rewrite was called"):
            cold.socle_ratio(cold.ring.monomial(monomials[0]))
        pairings = _localized_pairings(cold)
        integrals = [localization_oracle.integral(5, exps) for exps in monomials]
        anywhere = [next(iter(_random_polynomial(rng, cold, 1).terms)) for _ in range(20)]
        forms = [localization_oracle.normal_form(5, exps) for exps in anywhere]
    r = TautRing(5)
    assert [r.pairing_matrix(d) for d in range(r.socle_degree + 1)] == pairings
    assert [r.socle_ratio(r.ring.monomial(exps)) for exps in monomials] == integrals
    assert [r.normal_form(r.ring.monomial(exps)).coordinates for exps in anywhere] == forms
    assert len({r.ring.degree(exps) for exps in anywhere}) > 5


@pytest.mark.parametrize("g", range(1, 11))
def test_normal_forms_match_localization(g, ring_cache):
    # random monomials of every degree up to the ring's bound, which at
    # g = 1, 2 lies past the socle; g = 9, 10 are past the cap of
    # build_ring, on rings that only TautRing builds
    r, rng = ring_cache(g), random.Random(f"localized forms{g}")
    for _ in range(30):
        exps = next(iter(_random_polynomial(rng, r, 1).terms))
        assert r.normal_form(r.ring.monomial(exps)).coordinates == localization_oracle.normal_form(g, exps), exps


@pytest.mark.parametrize("subsets, message", [([(3,), (3,)], "singular"), ([(3,)], "not square")])
def test_localized_normal_forms_need_an_invertible_pairing(subsets, message, monkeypatch):
    # the pairing's invertibility is the oracle's check that the square-free
    # monomials span each degree: a basis of degree 3 at g = 4 with a
    # repeated or a missing monomial is refused
    square_free = localization_oracle.square_free
    monkeypatch.setattr(localization_oracle, "square_free", lambda g, d: subsets if (g, d) == (4, 3) else square_free(g, d))
    with pytest.raises(ArithmeticError, match=message):
        localization_oracle._inverse_pairing.__wrapped__(4, 3)


@pytest.mark.parametrize("g", range(2, 11))
def test_power_sum_identity_by_localization(g):
    # p_{2g-1} = sum_i w_i^(2g-1) at each fixed point, with no Newton step:
    # p_{2g-1} - (-1)^(g-1) l_{g-1} l_g pairs to 0 with every square-free
    # l_b of the complementary degree, so it vanishes in R_g; the opposite
    # sign does not
    d = g * (g + 1) // 2 - 2 * g + 1

    def difference(sign):
        return lambda w, e: sum(x ** (2 * g - 1) for x in w) - sign * e[g - 2] * e[g - 1]

    assert not any(localization_oracle.pairings(g, difference((-1) ** (g - 1)), d)), g
    assert any(localization_oracle.pairings(g, difference((-1) ** g), d)), g


# -- construction guard rails -------------------------------------------------


def test_genus_cap_default():
    assert MAX_RING_GENUS == 8
    with pytest.raises(ValueError, match=f"capped at genus {MAX_RING_GENUS}, got 9"):
        build_ring(9)
    assert build_ring(MAX_RING_GENUS).genus == MAX_RING_GENUS


@pytest.mark.parametrize("g", [9, 10])
def test_rings_past_the_cli_cap(g):
    # TautRing itself is uncapped; l1^N pairs to deg LG(g, 2g) and the
    # pairing is unimodular in every degree, as below the cap
    r = TautRing(g)
    assert sum(r.dimension_profile()) == 2 ** g
    assert r.socle_ratio(r.ring.gen(0) ** r.socle_degree) == _degree_lagrangian_grassmannian(g)
    _assert_unimodular_pairing(r)
    # the pairing rows reach entries whose terms cancel, from g = 9 on;
    # the memo keeps no such entry
    assert all(all(row.values()) for row in r._rows.values()), g


def test_genus_must_be_positive():
    with pytest.raises(ValueError):
        build_ring(0)


def test_ring_report_genus_two():
    report = ring_report(2)
    assert report.ok
    assert list(report.as_payload().items()) == [
        ("g", 2),
        ("dims", [1, 1, 1, 1]),
        ("total_dimension_2^g", True),
        ("palindromic_profile", True),
        ("one_dimensional_socle", True),
        ("top_chern_squares_to_zero", True),
        ("relation_product_reduces_to_one", True),
        ("pairing_nonsingular_all_degrees", True),
    ]


def test_ring_report_respects_cap():
    with pytest.raises(ValueError, match=f"capped at genus {MAX_RING_GENUS}"):
        ring_report(MAX_RING_GENUS + 1)


def test_reduce_degree_detects_dependent_basis():
    # a row supported on the designated basis alone means the basis is dependent
    monomials = [(1,)]
    square_free = [(1,)]
    rows = [{(1,): Fraction(1)}]
    with pytest.raises(BasisError):
        reduce_degree(monomials, square_free, rows, degree=1)


def test_reduce_degree_detects_non_spanning_basis():
    # no relation reaches (2,), so it cannot reduce to the (empty) basis
    monomials = [(2,)]
    square_free = []
    with pytest.raises(BasisError):
        reduce_degree(monomials, square_free, [], degree=2)


def test_reduce_degree_happy_path():
    # one relation 2*l2 - l1^2 at degree 2 of genus 2
    monomials = [(0, 1), (2, 0)]
    square_free = [(0, 1)]
    rows = [{(0, 1): Fraction(2), (2, 0): Fraction(-1)}]
    pivots = reduce_degree(monomials, square_free, rows, degree=2)
    assert set(pivots) == {(2, 0)}
    row = pivots[(2, 0)]
    assert Fraction(-row[(0, 1)], row[(2, 0)]) == 2


_RING = TautRing(3)


@pytest.mark.parametrize("function", [TautRing, build_ring, ring_report, _RING.basis_monomials, _RING.pairing_matrix])
@pytest.mark.parametrize("value", [2.0, 2.5, "3", True, False, None, Fraction(3), 3 + 0j])
def test_tautring_rejects_non_integers(function, value):
    [name] = inspect.signature(function).parameters
    with rejects(function, name, (value,)):
        function(value)


@pytest.mark.parametrize(
    "function, name, args",
    [(TautRing, "g", (0,)), (TautRingElement, "genus", (0, {})), (build_ring, "g", (0,)), (ring_report, "g", (0,))],
)
def test_tautring_rejects_genus_zero(function, name, args):
    with rejects(function, name, args):
        function(*args)
