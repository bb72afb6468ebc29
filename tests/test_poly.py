"""The packed polynomial ring: canonical form, bounds, hashing, and agreement
with the tuple-keyed reference ring in `poly_reference`."""

import importlib.util
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path
from types import FunctionType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import poly_reference as ref
from vertexalg import charclass, homology, series
from vertexalg.poly import (
    MAX_EXP,
    MonomialTable,
    Poly,
    as_poly,
    poly_from_obj,
    poly_to_obj,
    sum_of_products,
)
from vertexalg.series import TruncSeries

x, y = Poly.variable("x"), Poly.variable("y")


# -- canonical form and exponent bounds ------------------------------------------


class TestCanonical:
    def test_repeated_variable_adds(self):
        assert Poly({(("s1", 1), ("s1", 1)): 1}) == Poly.variable("s1", 2)

    def test_zero_exponent_drops(self):
        assert Poly({(("s1", 0),): 3}) == Poly.const(3)
        assert Poly({(("s1", 0), ("s2", 1)): 1}) == Poly.variable("s2")

    def test_monomials_meeting_in_canonical_form_add(self):
        p = Poly({(("x", 1), ("y", 1)): Fraction(1, 2), (("y", 1), ("x", 1)): Fraction(1, 2)})
        assert p == x * y
        assert Poly({(("x", 1), ("x", 0)): 1, (("x", 1),): -1}).is_zero()

    @pytest.mark.parametrize("bad", [-1, 1.5, True, "2", MAX_EXP + 1])
    def test_bad_exponent_rejected(self, bad):
        with pytest.raises(ValueError):
            Poly({(("s1", bad),): 1})
        with pytest.raises(ValueError):
            Poly.variable("s1", bad)

    def test_repeated_variable_past_bound_rejected(self):
        with pytest.raises(ValueError):
            Poly({(("s1", MAX_EXP), ("s1", 1)): 1})
        with pytest.raises(ValueError):
            poly_from_obj([[[["s1", MAX_EXP], ["s1", 1]], "1"]])

    def test_largest_exponent_accepted(self):
        p = Poly({(("s1", MAX_EXP),): 1})
        assert p == Poly.variable("s1", MAX_EXP)
        assert repr(p) == "s1^%d" % MAX_EXP

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError):
            Poly({(("x", 1),): 0.5})

    def test_as_poly(self):
        assert as_poly(x) is x
        assert as_poly(3) == Poly.const(3) and as_poly(Fraction(1, 2)) == Poly.const(Fraction(1, 2))
        with pytest.raises(TypeError):
            as_poly(0.5)

    @pytest.mark.parametrize(
        "obj", [5, [5], [[5, "1"]], [[[5], "1"]], [[[["x", 1]]]], "x", [[[["x", 1, 2]], "1"]]]
    )
    def test_malformed_json_raises(self, obj):
        # a polynomial, a monomial or a factor that is not a list of pairs
        with pytest.raises(ValueError):
            poly_from_obj(obj)

    def test_shared_denominator(self):
        p = x / 2 + y / 3
        assert p.den == 6
        assert sorted(p.terms.values()) == [2, 3]
        q = p * 6 - 3 * x
        assert q.den == 1 and q == 2 * y
        assert (p - p).den == 1 and not (p - p).terms

    def test_terms_count_nonzero_terms(self):
        assert len((x + y * 2 - x).terms) == 1
        assert len(Poly.const(0).terms) == 0


class TestOverflow:
    def test_power(self):
        with pytest.raises(OverflowError):
            Poly.variable("x", 20000) ** 2

    def test_product(self):
        with pytest.raises(OverflowError):
            Poly.variable("x", MAX_EXP) * x
        with pytest.raises(OverflowError):
            (Poly.variable("x", 20000) + y) * (Poly.variable("x", 20000) + 1)

    def test_product_at_the_bound_keeps_neighbours(self):
        # the top exponent fills its field but carries nothing into y's
        p = Poly.variable("x", MAX_EXP - 1) * (x * y)
        assert p == Poly({(("x", MAX_EXP), ("y", 1)): 1})
        assert p.diff("y") == Poly.variable("x", MAX_EXP)

    def test_substitute_scaled_image(self):
        # 30000 * 3 would carry out of y's field instead of raising
        with pytest.raises(OverflowError):
            Poly.variable("x", 30000).substitute({"x": Poly.variable("y", 3)})
        with pytest.raises(OverflowError):
            Poly.variable("x", 30000).substitute({"x": 2 * x * Poly.variable("y", 2)})
        assert Poly.variable("x", 10000).substitute({"x": Poly.variable("y", 3)}) == (
            Poly.variable("y", 30000)
        )

    @pytest.mark.parametrize("c", [1, 2, -1, Fraction(1, 3)])
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_substitute_single_variable_power(self, c, k):
        # y^k has a power-of-two key like a plain variable; 20000 * k would
        # carry out of y's field into the next one instead of raising
        image = c * Poly.variable("y", k)
        with pytest.raises(OverflowError):
            Poly.variable("x", 20000).substitute({"x": image})
        e = MAX_EXP // k
        assert Poly.variable("x", e).substitute({"x": image}) == (
            Poly.const(c) ** e * Poly.variable("y", e * k)
        )

    def test_power_checks_its_bound_first(self, monkeypatch):
        # (y*y + x) ** 30000 holds y^60000: the bound is checked before any
        # product, where squaring up to it used to run for minutes
        image = y * y + x

        def forbidden(*args):
            raise AssertionError("a power multiplied before checking its bound")

        monkeypatch.setattr(Poly, "__mul__", forbidden)
        monkeypatch.setattr(Poly, "__rmul__", forbidden)
        with pytest.raises(OverflowError):
            Poly.variable("x", 30000).substitute({"x": image})
        with pytest.raises(OverflowError):
            image ** 16384

    def test_power_at_the_bound(self):
        n = MAX_EXP // 3
        base = 2 * y ** 3
        assert base ** n == Poly({(("y", 3 * n),): 2 ** n})
        with pytest.raises(OverflowError):
            base ** (n + 1)

    def test_substitute_merged_fields(self):
        # three fields of 30000 meet in one: the sum passes the guard bit
        p = Poly.variable("x", 30000) * Poly.variable("z", 30000) * Poly.variable("w", 30000)
        with pytest.raises(OverflowError):
            p.substitute({"x": y, "z": y, "w": y})
        with pytest.raises(OverflowError):
            p.substitute({"x": -y, "z": 2 * y, "w": y / 3})
        with pytest.raises(OverflowError):
            (p * Poly.variable("y", 30000)).substitute({"x": -y})
        with pytest.raises(OverflowError):
            (Poly.variable("x", 2) * Poly.variable("y", MAX_EXP)).substitute({"x": y + 1})
        # two fields of 20000 meet in one, where two of 16000 fit
        with pytest.raises(OverflowError):
            (Poly.variable("x", 20000) * Poly.variable("y", 20000)).substitute({"y": x})
        q = Poly.variable("x", 16000) * Poly.variable("y", 16000)
        assert q.substitute({"y": x}) == Poly.variable("x", 32000)

    def test_substitute_at_the_bound(self):
        p = Poly.variable("x", MAX_EXP - 1) * Poly.variable("z")
        assert p.substitute({"z": x / 3}) == Poly.variable("x", MAX_EXP) / 3
        assert p.substitute({"z": x}) == Poly.variable("x", MAX_EXP)


# -- hashing agrees with equality ---------------------------------------------------


class TestHash:
    @pytest.mark.parametrize("c", [0, 2, -7, Fraction(1, 3), Fraction(-5, 2)])
    def test_constant_hashes_like_its_scalar(self, c):
        p = Poly.const(c)
        assert p == c and hash(p) == hash(c) == hash(Fraction(c))
        assert len({p, c}) == 1
        assert len({p, Fraction(c)}) == 1

    def test_zero(self):
        assert hash(Poly()) == hash(0)
        assert len({Poly(), 0, x - x}) == 1

    def test_equal_polys_hash_equal(self):
        a = (x + y) * (x - y)
        b = x ** 2 - y ** 2
        assert a == b and hash(a) == hash(b)
        assert len({a, b, a + 1}) == 2


# -- the layout the benchmark's tracer relies on ------------------------------------


def _tracing():
    """bench/tracing.py, loaded from its file, since bench/ is not a package."""
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_contract():
    """The benchmark wraps the names listed in ``FUNCTIONS`` and ``METHODS``
    of bench/tracing.py from outside the library: module functions by name
    in every namespace that holds them, methods through the class
    ``__dict__``.  It counts terms as ``len(p.terms)``.  A change that
    deletes or moves a wrapped name fails here."""
    tracing = _tracing()
    for _, module, name, *_ in tracing.FUNCTIONS:
        f = module.__dict__.get(name)
        assert isinstance(f, FunctionType) and f.__module__ == module.__name__, name
    for _, cls, name, *_ in tracing.METHODS:
        assert callable(cls.__dict__.get(name)), (cls.__name__, name)
    p = (x + 2 * y) * (x - 2 * y) + 4 * y ** 2
    assert len(p.terms) == 1 and p == x ** 2
    assert len((x / 3 + y).terms) == 2
    # the tracer replaces these by name in both namespaces; a partial or a
    # closure here would leave ``homology.contract_poly.*`` reading nothing
    assert charclass.contract_poly is homology.contract_poly
    # reached by the workloads through the homology namespace
    for name in ("tensor", "translate_series"):
        f = homology.__dict__[name]
        assert isinstance(f, FunctionType) and f.__module__ == homology.__name__, name


def test_constant_series_products_count_as_series_mul(monkeypatch):
    """The benchmark counts ``series.mul`` by wrapping
    ``TruncSeries.__mul__``; a product of constant-coefficient series takes
    its integer convolution inside that method, so each one is counted."""
    calls = []
    original = TruncSeries.__dict__["__mul__"]

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(TruncSeries, "__mul__", counting)
    zw = series.VarSet(("z", "w"))
    a = TruncSeries(zw, 4, {(0, 0): 1, (1, 0): Fraction(1, 3), (0, 1): -2})
    b = TruncSeries(zw, None, {(0, 0): Fraction(1, 2), (1, 1): 5})
    assert (a * b).terms == {
        (0, 0): Fraction(1, 2), (1, 0): Fraction(1, 6), (0, 1): -1,
        (1, 1): 5, (2, 1): Fraction(5, 3), (1, 2): -10,
    }
    assert len(calls) == 1
    a ** 3  # 1 * a, a * a, then a * a^2
    assert len(calls) == 4


def test_product_by_one_returns_the_other_operand():
    p = (x / 3 + y) ** 2
    one = Poly.const(1)
    assert one * p is p
    assert p * one is p
    assert p * 1 is p
    assert Poly.const(Fraction(1, 2)) * p == p / 2


def test_monomial_table_plans_each_key_once():
    calls = []

    def plan(key):
        calls.append(key)
        if key < 0:
            raise ValueError("no plan for %d" % key)
        return key * 2

    table = MonomialTable(plan)
    assert [table[k] for k in (3, 5, 3, 3, 5)] == [6, 10, 6, 6, 10]
    assert calls == [3, 5] and table == {3: 6, 5: 10}
    # a plan that raises keeps nothing, so the key raises again
    for _ in range(2):
        with pytest.raises(ValueError):
            table[-1]
    assert calls == [3, 5, -1, -1] and -1 not in table


# -- substitution, expanded term by term --------------------------------------------


class TestSubstituteKernel:
    def test_general_images_multiply_in_name_order(self):
        # interned in the opposite order of their names, so field order and
        # name order differ; the terms come out in the order of the factor
        # by factor expansion, which multiplies in name order
        late, early = Poly.variable("order_q2"), Poly.variable("order_q1")
        p = late * early + 2 * late ** 2 * early
        images = {"order_q1": x + 2 * y + 1, "order_q2": x + y}
        got, slow = p.substitute(images), ref.multiply_out(p, images)
        assert got == slow
        assert list(got.terms) == list(slow.terms)

    def test_swap_and_names_that_are_replaced(self):
        a, b = Poly.variable("a"), Poly.variable("b")
        assert (a ** 2 * b).substitute({"a": b, "b": a}) == a * b ** 2
        assert (a * b).substitute({"a": a * b, "b": 2 * a}) == 2 * a ** 2 * b

    def test_bad_image_rejected(self):
        with pytest.raises(TypeError):
            (x + y).substitute({"x": 0.5})


# -- agreement with the reference ring ---------------------------------------------

NAMES = ("a", "b", "c", "d")
# names that the library has likely not interned when an example starts
FRESH = tuple("fresh%d" % i for i in range(40))

coefs = st.fractions(min_value=-6, max_value=6, max_denominator=12)
raw_monos = st.lists(st.tuples(st.sampled_from(NAMES), st.integers(0, 3)), max_size=3)
raw_polys = st.lists(st.tuples(raw_monos, coefs), max_size=5)


def both(raw):
    """The same polynomial in both rings; the packed one is built from
    non-canonical monomials, the reference one from canonical ones."""
    given_terms = {tuple(m): c for m, c in raw}
    canon = {}
    for m, c in given_terms.items():
        exps = {}
        for v, e in m:
            exps[v] = exps.get(v, 0) + e
        key = tuple(sorted((v, e) for v, e in exps.items() if e))
        canon[key] = canon.get(key, 0) + c
    return Poly(given_terms), ref.Poly(canon)


def same(p, r):
    assert dict(p.items()) == r.terms
    assert p.den == (lcm(*(c.denominator for c in r.terms.values())) if r.terms else 1)
    assert gcd(p.den, *p.terms.values()) == 1
    assert list(p.variables()) == list(r.variables())
    assert repr(p) == repr(r)
    assert poly_to_obj(p) == ref.poly_to_obj(r)


# an image drawn for the property test: a polynomial of up to two terms
# (zero and one-term ones included), an exact scalar or an int
raw_images = st.one_of(
    st.lists(st.tuples(raw_monos, coefs), max_size=2).map(lambda raw: ("poly", raw)),
    coefs.map(lambda c: ("scalar", c)),
    st.integers(-3, 3).map(lambda c: ("scalar", c)),
)


def both_images(drawn):
    """The same mapping in both rings."""
    packed_map, ref_map = {}, {}
    for v, (kind, raw) in drawn.items():
        if kind == "poly":
            packed_map[v], ref_map[v] = both(raw)
        else:
            packed_map[v] = ref_map[v] = raw
    return packed_map, ref_map


def same_substitution(p, r, packed_map, ref_map):
    got = p.substitute(packed_map)
    same(got, r.substitute(ref_map))
    slow = ref.multiply_out(p, packed_map)
    assert got == slow and list(got.terms) == list(slow.terms)


@settings(max_examples=150, deadline=None)
@given(
    raw_polys,
    raw_polys,
    coefs,
    st.integers(0, 3),
    st.sampled_from(NAMES),
    st.sampled_from(FRESH),
    st.integers(0, 4),
    st.dictionaries(st.sampled_from(NAMES), raw_images, max_size=4),
)
def prop_ring_matches_reference(ra, rb, c, n, var, fresh, bound, drawn):
    a, ra_ = both(ra)
    b, rb_ = both(rb)
    # a variable interned after the operands were built
    f, rf = Poly.variable(fresh), ref.Poly.variable(fresh)
    same(a, ra_)
    same(a + b, ra_ + rb_)
    same(a - b, ra_ - rb_)
    same(a * b, ra_ * rb_)
    same(a * f + b, ra_ * rf + rb_)
    same(a * c, ra_ * c)
    same(c * a, c * ra_)
    same(a + c, ra_ + c)
    same(c - a, c - ra_)
    same(a ** n, ra_ ** n)
    same((a + f) ** n, (ra_ + rf) ** n)
    same(a.diff(var), ra_.diff(var))
    same((a * f * f).diff(fresh), (ra_ * rf * rf).diff(fresh))
    same_substitution(a, ra_, {var: b + f}, {var: rb_ + rf})
    # one-term images with a coefficient and a denominator, zero images,
    # scalar images, a swap, and images naming replaced variables
    pa, pb = Poly.variable("a"), Poly.variable("b")
    qa, qb = ref.Poly.variable("a"), ref.Poly.variable("b")
    same_substitution(a, ra_, {var: -2 * pb / 3}, {var: -2 * qb / 3})
    same_substitution(a, ra_, {var: Poly(), "d": f}, {var: ref.Poly(), "d": rf})
    same_substitution(a, ra_, {var: c, "c": 3}, {var: c, "c": 3})
    same_substitution(a, ra_, {"a": pb, "b": pa}, {"a": qb, "b": qa})
    same_substitution(a, ra_, {"a": pa * pb * c, "b": pa}, {"a": qa * qb * c, "b": qa})
    same_substitution(a * f, ra_ * rf, *both_images(drawn))
    # merging variables, and a variable sent to a fresh one
    same_substitution(a, ra_, {"a": pb}, {"a": qb})
    same_substitution(a, ra_, {"a": pb, "b": pa, "c": pa}, {"a": qb, "b": qa, "c": qa})
    same_substitution(a, ra_, {var: f}, {var: rf})
    same(a.truncate_degree(bound), ra_.truncate_degree(bound))
    assert a.degree() == ra_.degree()
    assert a.constant_term() == ra_.constant_term()
    assert (a == b) == (ra_ == rb_)


def test_prop_ring_matches_reference():
    prop_ring_matches_reference()


# -- products of operands with disjoint supports ------------------------------------

# the left factor holds exponents 0..3 of c, the right one multiples of 4,
# so the two share c's field but no bit of it
left_monos = st.lists(
    st.tuples(st.sampled_from(("a", "b", "c")), st.integers(0, 3)),
    max_size=3,
    unique_by=lambda t: t[0],
)
right_monos = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
    lambda e: [("c", 4 * e[0]), ("d", e[1])]
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(left_monos, coefs), max_size=5),
    st.lists(st.tuples(right_monos, coefs), max_size=5),
)
def test_prop_disjoint_products_match_reference(ra, rb):
    """Operands whose supports share no bit multiply without accumulating;
    the product is the reference ring's, denominators included, and its
    terms come out in the order of the general loop."""
    a, ra_ = both(ra)
    b, rb_ = both(rb)
    assert not a.support() & b.support()
    for p, q, rp, rq in ((a, b, ra_, rb_), (b, a, rb_, ra_)):
        got = p * q
        same(got, rp * rq)
        general = sum_of_products(((p, q),))
        assert got == general and list(got.terms) == list(general.terms)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(left_monos, coefs), max_size=5),
    st.lists(st.tuples(right_monos, coefs), max_size=5),
)
# (a + b)/2 times 2*c^4 + 4*d: a's denominator divides b's content
@example(
    [([("a", 1)], Fraction(1, 2)), ([("b", 1)], Fraction(1, 2))],
    [([("c", 4), ("d", 0)], 2), ([("c", 0), ("d", 1)], 4)],
)
def test_prop_deferred_product_matches_eager(ra, rb):
    """A product of multi-term factors with disjoint supports holds its
    factors and no terms; its den, truth, zero test and support, read
    while it is unbuilt, and then its terms, equality and hash are those
    of the product built by the general loop."""
    a, _ = both(ra)
    b, _ = both(rb)
    for p, q in ((a, b), (b, a)):
        got, eager = p * q, sum_of_products(((p, q),))
        deferred = len(p.terms) > 1 and len(q.terms) > 1
        assert got.factors == ((p, q) if deferred else None)
        assert terms_built(got) != deferred
        assert got.den == eager.den
        assert bool(got) == bool(eager) and got.is_zero() == eager.is_zero()
        assert got.support() == eager.support()
        assert terms_built(got) != deferred
        assert hash(got) == hash(eager) and got == eager
        assert list(got.terms.items()) == list(eager.terms.items())
        assert terms_built(got)


def terms_built(p):
    """Whether p holds its terms, read without the fallback that builds
    the terms of a deferred product."""
    try:
        Poly.terms.__get__(p, Poly)
    except AttributeError:
        return False
    return True


def test_deferred_product_unknown_attribute():
    """The fallback that builds a deferred product's terms answers only
    for `terms`: any other missing name raises AttributeError, on a
    deferred product and on an ordinary one alike, without recursing."""
    p = (x + 1) * (y + 1)
    for q in (p, x + y):
        with pytest.raises(AttributeError):
            q.no_such_attribute
    assert p.factors is not None and not terms_built(p)
    bare = type(p).__new__(type(p))  # no factors either
    with pytest.raises(AttributeError):
        bare.terms


def test_disjoint_product_term_order():
    a = x / 2 + Poly.variable("x", 2) - 3
    b = y * Poly.variable("z") / 3 + Poly.variable("z", 4) + 5
    assert not a.support() & b.support()
    got, general = a * b, sum_of_products(((a, b),))
    assert got.den == general.den == 6
    assert list(got.terms.items()) == list(general.terms.items())


def test_disjoint_product_at_the_bound():
    """A disjoint product cannot carry, so factors that fill a field
    multiply without a guard check; an overlapping product past MAX_EXP
    still raises."""
    z, w = Poly.variable("z"), Poly.variable("w")
    top = Poly.variable("x", MAX_EXP)
    got = (top + y) * (z + Poly.variable("w", MAX_EXP) / 2)
    assert got == Poly(
        {
            (("x", MAX_EXP), ("z", 1)): 1,
            (("w", MAX_EXP), ("x", MAX_EXP)): Fraction(1, 2),
            (("y", 1), ("z", 1)): 1,
            (("w", MAX_EXP), ("y", 1)): Fraction(1, 2),
        }
    )
    with pytest.raises(OverflowError):
        (top + y) * (x + z)
    with pytest.raises(OverflowError):
        (top + y) * (w + Poly.variable("x", 2) * z)
