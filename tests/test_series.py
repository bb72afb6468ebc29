"""Series engine: arithmetic, expansion, residues, serialization."""

import json
from fractions import Fraction
from functools import reduce
from math import factorial, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vertexalg import charclass, series
from vertexalg.ktheory import one_plus_pow
from vertexalg.poly import Poly, poly_to_obj
from vertexalg.series import (
    INF,
    LazySeries,
    LinearForm,
    LocalizedSeries,
    TruncSeries,
    VarSet,
    coefficient_of_power,
    dumps_series,
    iota_expand,
    loads_series,
    nest,
    normalize_blocks,
    residue,
    series_equal,
    series_exp,
    series_from_dict,
    series_invert_unit,
    series_to_dict,
    try_divide_by_form,
)

ZW = VarSet(("z", "w"))
Z = VarSet(("z",))


def form(varset, **coeffs):
    f, sign = LinearForm.make(varset, coeffs)
    assert sign == 1
    return f


def poly_of(varset, order, pairs):
    terms = {tuple(e): Fraction(c) for e, c in pairs}
    return LocalizedSeries(TruncSeries(varset, order, terms))


def laurent_dict(x):
    return dict(x.laurent_terms())


def within_bounds(num, den, blocks, bounds):
    """The terms of ``num`` inside the window of a series over ``den`` with
    these net block bounds: on each bounded block, a degree of at most the
    bound plus the multiplicity of the forms that touch the block.  The
    filter the `LocalizedSeries` constructor applies, written out."""
    caps = []
    for block, bound in zip(blocks, bounds):
        if bound is not None:
            idxs = [num.varset.index(n) for n in block]
            held = sum(m for f, m in den if any(f.coeffs[i] for i in idxs))
            caps.append((idxs, bound + held))
    return {
        e: c
        for e, c in num.terms.items()
        if all(sum(e[i] for i in idxs) <= cap for idxs, cap in caps)
    }


NOT_INTEGERS = [2.5, 1.0, True, "2", Fraction(3, 2)]


class TestIntegerData:
    """Constructors reject integer data that is not an int, as the JSON
    readers do, instead of cutting it with int()."""

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_varset_degree(self, bad):
        with pytest.raises(ValueError, match="degree"):
            VarSet(("x",), degrees=(bad,))

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_series_exponent(self, bad):
        with pytest.raises(ValueError, match="exponent"):
            TruncSeries(Z, 3, {(bad,): 1})

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_linear_form_coefficient(self, bad):
        with pytest.raises(ValueError, match="form coefficient"):
            LinearForm(ZW, (1, bad))

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_make_scaled_coefficient(self, bad):
        with pytest.raises(ValueError, match="form coefficient"):
            LinearForm.make_scaled(ZW, (bad, 1))
        with pytest.raises(ValueError, match="form coefficient"):
            LinearForm.make_scaled(ZW, {"w": bad})

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    @pytest.mark.parametrize("field", ["truncation order", "multiplicity", "block bound"])
    def test_orders_multiplicities_and_bounds(self, field, bad):
        # an order of 2.5 used to be kept, and drop z^3 against it; a
        # multiplicity of 1.5 made den_degree() 1.5
        num = TruncSeries(ZW, 3, {(2, 0): 1, (3, 0): 1})
        with pytest.raises(ValueError, match=field):
            if field == "truncation order":
                TruncSeries(ZW, bad, {(2, 0): 1, (3, 0): 1})
            elif field == "multiplicity":
                LocalizedSeries(num, [(form(ZW, z=1), bad)])
            else:
                LocalizedSeries(num, (), (("z",), ("w",)), (None, bad))

    @pytest.mark.parametrize("bad", NOT_INTEGERS + [-1])
    def test_with_order(self, bad):
        # with_order(2.5) used to claim order 2.5 and drop z^3 against it
        with pytest.raises(ValueError, match="truncation order"):
            TruncSeries(Z, 3, {(2,): 1, (3,): 1}).with_order(bad)
        # a lazy series checks the order as well, and makes nothing
        for stepping in (False, True):
            lazy, _ = lazy_and_eager(stepping)
            with pytest.raises(ValueError, match="truncation order"):
                lazy.with_order(bad)
            assert not lazy._made

    def test_integers_pass(self):
        assert VarSet(("x",), degrees=(-3,)).degrees == (-3,)
        assert TruncSeries(Z, 3, {(2,): 1}).terms == {(2,): Poly.const(1)}
        assert LinearForm.make_scaled(ZW, {"z": -2, "w": 4})[1:] == (-1, 2)
        assert TruncSeries(Z, INF, {(2,): 1}).order is INF
        assert TruncSeries(Z, 3, {(2,): 1, (3,): 1}).with_order(INF).order is INF
        x = LocalizedSeries(
            TruncSeries(ZW, 3, {(1, 0): 1}), [(form(ZW, z=1), 2)], (("z",), ("w",)), (INF, -1)
        )
        assert (x.den_degree(), x.valid_order(), x.block_bounds) == (2, 1, (INF, -1))


class TestNameSequences:
    """A string where a sequence of names is expected raises ValueError
    instead of reading as one-character names: VarSet("z1") used to name
    the variables z and 1, and blocks "zw" to read as (z,), (w,)."""

    @pytest.mark.parametrize("bad", ["z1", "z", 5])
    def test_varset_names(self, bad):
        with pytest.raises(ValueError, match="variable names"):
            VarSet(bad)

    @pytest.mark.parametrize(
        "bad", ["zw", ["zw"], (("z",), "w"), ("z", "w"), (("z",), 1), (("z",), ("w", 1))]
    )
    def test_blocks(self, bad):
        num = TruncSeries(ZW, 3, {(1, 0): 1})
        with pytest.raises(ValueError, match="block"):
            normalize_blocks(ZW, bad)
        with pytest.raises(ValueError, match="block"):
            LocalizedSeries(num, (), bad)
        with pytest.raises(ValueError, match="block"):
            iota_expand(LocalizedSeries(num), bad, 2)

    def test_sequences_pass(self):
        assert VarSet(["z", "w"]) == VarSet(iter(("z", "w"))) == ZW
        assert normalize_blocks(ZW, [["w"], ("z",)]) == (("w",), ("z",))
        x = LocalizedSeries(TruncSeries(ZW, 3, {(1, 0): 1}), (), [["z"], ["w"]])
        assert x.blocks == (("z",), ("w",))


def lazy_and_eager(stepping):
    """A `LazySeries` over (z, w) and the plain series a read of it gives.
    Each raw term c * x^e makes 2c at e, or, stepping, (k + 1) * c at e
    plus k steps along w, for k up to the room."""
    raw = TruncSeries(ZW, 3, {(2, 1): 5, (0, 0): 1, (1, 0): Fraction(1, 2), (0, 2): -3})
    if not stepping:
        return LazySeries(raw, lambda c, room: {(): 2 * c}), raw.scale(2)
    terms = {}
    for (i, j), c in sorted(raw.terms.items()):
        for k in range(raw.order - i - j + 1):
            terms[i, j + k] = terms.get((i, j + k), 0) + (k + 1) * c
    make = lambda c, room: {(k,): (k + 1) * c for k in range(room + 1)}
    return LazySeries(raw, make, ("w",)), TruncSeries(ZW, 3, terms)


class TestLazySeries:
    """A `LazySeries` makes its terms when read, as many as the read
    needs, and reads as the plain series of making them all."""

    @pytest.mark.parametrize("stepping", [False, True])
    @pytest.mark.parametrize("order", [0, 1, 2, 3, 5, INF])
    def test_with_order_reads_as_eager(self, stepping, order):
        lazy, eager = lazy_and_eager(stepping)
        cut = lazy.with_order(order)
        assert type(cut) is LazySeries and not cut._made and not lazy._made
        want = eager.with_order(order)
        assert cut.order == want.order and list(cut.terms.items()) == list(want.terms.items())
        # a cut of a series read in part shares what is made
        lazy._window((((1,), 0),))
        made = dict(lazy._made)
        again = lazy.with_order(order)
        assert all(again._made[e] is made[e] for e in again._made)
        assert again == want

    @pytest.mark.parametrize("stepping", [False, True])
    def test_window_reads_as_eager(self, stepping):
        lazy, eager = lazy_and_eager(stepping)
        for caps, order in [((), 1), ((((1,), 1),), INF), ((((0, 1), 2), ((0,), 0)), 2)]:
            got = lazy._window(caps, order)
            assert got.order == eager.order
            assert list(got.terms.items()) == list(eager._window(caps, order).terms.items())
        assert list(lazy.terms.items()) == list(eager.terms.items())

    def test_window_gives_each_raw_term_its_room(self):
        rooms = []
        raw = TruncSeries(ZW, 4, {(0, 0): 1, (1, 1): 1, (0, 3): 1, (1, 0): 1})
        lazy = LazySeries(raw, lambda c, room: rooms.append(room) or {(0,): c}, ("w",))
        lazy._window((((1,), 2),), 3)
        # (0, 3) is past the w-cap and is not read; the rest get the least
        # of the order less |e| and the cap less their w-degree
        assert sorted(lazy._made) == [(0, 0), (1, 0), (1, 1)]
        assert rooms == [2, 2, 1]

    @pytest.mark.parametrize("stepping", [False, True])
    def test_repr_makes_nothing(self, stepping):
        lazy, _ = lazy_and_eager(stepping)
        text = repr(lazy)
        assert not lazy._made
        assert text == "LazySeries(VarSet(('z', 'w')), order=3, made=0, pending=4)"
        lazy._window((((1,), 0),))
        assert repr(lazy).endswith("made=2, pending=2)")
        nested = LazySeries(lazy, lambda c, room: {(): c})
        assert repr(nested).endswith("pending=%r)" % lazy) and not nested._made


class TestAdd:
    def test_additive_inverse_of_pole(self):
        one_over_z = LocalizedSeries.one(Z, 6).with_denominator(form(Z, z=1))
        total = one_over_z + (-one_over_z)
        assert total.num.is_zero()

    def test_common_denominator(self):
        one = LocalizedSeries.one(ZW, 6)
        w_over_z = poly_of(ZW, 6, [((0, 1), 1)]).with_denominator(form(ZW, z=1))
        s = one + w_over_z
        assert s.den == ((form(ZW, z=1), 1),)
        assert s.num.terms == {(1, 0): Fraction(1), (0, 1): Fraction(1)}

    @given(st.integers(0, 2 ** 30 - 1), st.integers(0, 2 ** 30 - 1))
    def test_same_denominator_adds_numerators(self, seed_a, seed_b):
        import random

        den = [(form(ZW, z=1, w=1), 2), (form(ZW, z=1), 1)]
        rng_a, rng_b = random.Random(seed_a), random.Random(seed_b)

        def dense(rng):
            terms = {}
            for i in range(7):
                for j in range(7 - i):
                    c = rng.randint(-5, 5)
                    if c:
                        terms[(i, j)] = Fraction(c)
            return TruncSeries(ZW, 6, terms)

        pa, pb = dense(rng_a), dense(rng_b)
        a = LocalizedSeries(pa, den)
        b = LocalizedSeries(pb, den)
        s = a + b
        assert s.num.terms == (pa + pb).terms

    def test_clearing_by_a_spanning_form_lowers_the_bounds_it_touches(self):
        """4w^3/(z + w) and the same with w net-bounded by 1, its w^3
        dropped, agree.  Over (z + w)^2 the numerators are cleared by
        z + w, whose z carries the unknown w^3 term of the bounded one to
        z*w^3, w-net degree 1, so its sum with 1/(z + w)^2 keeps only
        w-net degree 0.  The derivative in w clears the same way."""
        blocks = (("z",), ("w",))
        den = [(form(ZW, z=1, w=1), 1)]
        num = TruncSeries(ZW, INF, {(0, 3): 4})
        t = LocalizedSeries(num, den, blocks)
        b = LocalizedSeries(num, den, blocks, (None, 1))
        c = LocalizedSeries(TruncSeries.const(ZW, 1), [(form(ZW, z=1, w=1), 2)], blocks)
        assert series_equal(t, b)
        assert (b + c).block_bounds == (None, 0)
        assert series_equal(t + c, b + c)
        assert series_equal(t.diff("w"), b.diff("w"))
        # a form in one block keeps the bounds
        one_z = LocalizedSeries(TruncSeries.const(ZW, 1), [(form(ZW, z=1), 1)], blocks)
        assert (b + one_z).block_bounds == (None, 1)


def exp_by_powers(a):
    """exp(a) as sum_k a^k / k!, every power from one `_Powers` table."""
    return series._power_sum(a, [Fraction(1, factorial(k)) for k in range(a.order + 1)])


@st.composite
def exp_arguments(draw):
    """A series with zero constant term at a finite order 0-6, over 1-3
    variables or over the Chern variable t of `charclass`, with `Poly`
    coefficients in s and t.  Its terms sit at a few drawn total degrees,
    so some degrees are skipped."""
    varset = draw(
        st.sampled_from([VarSet(("z",)), ZW, VarSet(("z", "w", "v")), charclass._T])
    )
    n, order = len(varset), draw(st.integers(0, 6))
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: 0 < sum(e) <= max(order, 1))
    terms = draw(st.dictionaries(exps, coefficients, max_size=5))
    return TruncSeries(varset, order, terms)


class TestExp:
    def test_exp_zero(self):
        z = TruncSeries.zero(Z, 5)
        assert series_exp(z).terms == {(0,): Fraction(1)}

    def test_formal_group_law(self):
        ez = series_exp(TruncSeries.variable(ZW, "z", 8))
        ew = series_exp(TruncSeries.variable(ZW, "w", 8))
        both = TruncSeries.variable(ZW, "z", 8) + TruncSeries.variable(ZW, "w", 8)
        assert ez * ew == series_exp(both)

    def test_exp_with_polynomial_coefficient(self):
        s1 = Poly.variable("s1")
        zs1 = TruncSeries(ZW, 3, {(1, 0): s1})
        e = series_exp(zs1)
        assert e.terms[(0, 0)] == Fraction(1)
        assert e.terms[(1, 0)] == s1
        assert e.terms[(2, 0)] == s1 * s1 / 2
        assert e.terms[(3, 0)] == s1 * s1 * s1 / 6

    def test_exp_requires_zero_constant(self):
        with pytest.raises(ValueError):
            series_exp(TruncSeries.const(Z, 1, 4))

    def test_exp_needs_a_finite_order(self):
        with pytest.raises(ValueError, match="finite truncation order"):
            series_exp(TruncSeries.linear(Z, (1,)))

    def test_exp_makes_no_power(self, monkeypatch):
        """The recurrence reads degree parts; it builds no `_Powers` table
        and calls no series product."""

        def forbidden(*args):
            raise AssertionError("series_exp made a power or a series product")

        a = TruncSeries(ZW, 5, {(1, 0): S, (0, 2): 1 + T, (2, 1): Fraction(1, 3)})
        monkeypatch.setattr(series._Powers, "__getitem__", forbidden)
        monkeypatch.setattr(TruncSeries, "__mul__", forbidden)
        got = series_exp(a)
        monkeypatch.undo()
        assert got == exp_by_powers(a)

    @settings(max_examples=150, deadline=None)
    @given(exp_arguments())
    def test_prop_matches_the_power_sum(self, a):
        """The recurrence gives the terms and the order of sum_k a^k / k!,
        summed from one power table."""
        got, want = series_exp(a), exp_by_powers(a)
        assert (got.terms, got.order) == (want.terms, want.order)
        assert all(isinstance(c, Poly) for c in got.terms.values())


class TestPowerSum:
    def test_sum_keeps_the_order(self):
        z = TruncSeries.variable(Z, "z", 3)
        assert series._power_sum(z, [1] * 10) == TruncSeries(Z, 3, {(k,): 1 for k in range(4)})
        exact = series._power_sum(TruncSeries.linear(Z, (1,)), [0, 2, 0, 1])
        assert exact == TruncSeries(Z, INF, {(1,): 2, (3,): 1})

    def test_sum_stops_at_the_first_zero_power(self, monkeypatch):
        """z^4 is zero at order 3, so no power past it is made."""
        made = []
        real = series._Powers.__getitem__
        monkeypatch.setattr(
            series._Powers, "__getitem__", lambda self, n: made.append(n) or real(self, n)
        )
        series._power_sum(TruncSeries.variable(Z, "z", 3), [1] * 10)
        assert max(made) == 4

    def test_pow_is_the_repeated_product(self):
        x = TruncSeries(ZW, 5, {(0, 0): 1, (1, 0): 2, (0, 1): S})
        assert x ** 0 == TruncSeries.const(ZW, 1, 5)
        assert x ** 3 == x * x * x
        with pytest.raises(ValueError):
            x ** -1


class TestIota:
    def test_geometric_expansion_of_z_plus_w(self):
        x = LocalizedSeries.one(ZW, 8).with_denominator(form(ZW, z=1, w=1))
        y = iota_expand(x, (("z",), ("w",)), trunc=2)
        assert laurent_dict(y) == {
            (-1, 0): Fraction(1),
            (-2, 1): Fraction(-1),
            (-3, 2): Fraction(1),
        }

    def test_two_expansions_differ_by_mixed_part(self):
        x = LocalizedSeries.one(ZW, 8).with_denominator(form(ZW, z=1, w=-1))
        big_z = iota_expand(x, (("z",), ("w",)), trunc=6)
        big_w = iota_expand(x, (("w",), ("z",)), trunc=6)
        tz = laurent_dict(big_z)
        tw = laurent_dict(big_w)
        diff = dict(tz)
        for e, c in tw.items():
            diff[e] = diff.get(e, Fraction(0)) - c
            if not diff[e]:
                del diff[e]
        assert diff
        for e in diff:
            # the difference is delta-supported: each monomial mixes the two
            # Laurent directions (exactly one negative exponent, total -1)
            assert e[0] + e[1] == -1
            assert (e[0] < 0) != (e[1] < 0)

    def test_deltas_supported_on_antidiagonal(self):
        x = LocalizedSeries.one(ZW, 8).with_denominator(form(ZW, z=1, w=-1))
        big_z = iota_expand(x, (("z",), ("w",)), trunc=6)
        for e, c in big_z.laurent_terms():
            assert e[0] + e[1] == -1
            assert c == Fraction(1)

    def test_pure_pole_unchanged(self):
        x = LocalizedSeries.one(ZW, 8).with_denominator(form(ZW, z=1))
        y = iota_expand(x, (("z", "w"),), trunc=4)
        assert y.den == x.den
        assert y.num.terms == x.num.terms

    def test_single_block_form_kept_inner(self):
        # 1/(w1 - w2) is invertible in the inner ring and must be kept
        vs = VarSet(("z", "w1", "w2"))
        x = LocalizedSeries.one(vs, 6).with_denominator(form(vs, w1=1, w2=-1))
        y = iota_expand(x, (("z",), ("w1", "w2")), trunc=3)
        assert y.den == ((form(vs, w1=1, w2=-1), 1),)

    def test_depth_and_multiplicity_are_nonnegative_ints(self):
        x = LocalizedSeries.one(ZW, 4).with_denominator(form(ZW, z=1, w=1))
        f = form(ZW, z=1, w=1).as_series()
        blocks = (("z",), ("w",))
        for bad in (1.5, "2", True, -1):
            with pytest.raises(ValueError, match="depth"):
                iota_expand(x, blocks, bad)
            with pytest.raises(ValueError, match="depth"):
                series.expand_poles(x.num, [(f, 1)], blocks, bad)
            with pytest.raises(ValueError, match="multiplicity"):
                series.expand_poles(x.num, [(f, bad)], blocks, 2)

    def test_iota_respects_products(self):
        # expansion is a ring map: iota(xy) = iota(x) iota(y) on the exact region
        x = poly_of(ZW, 8, [((1, 0), 1), ((0, 1), 2)]).with_denominator(
            form(ZW, z=1, w=1)
        )
        y = poly_of(ZW, 8, [((0, 0), 3), ((1, 1), 1)]).with_denominator(
            form(ZW, z=1, w=-1)
        )
        blocks = (("z",), ("w",))
        lhs = iota_expand(x * y, blocks, trunc=3)
        rhs = iota_expand(x, blocks, trunc=3) * iota_expand(y, blocks, trunc=3)
        assert series_equal(lhs, rhs)

    def test_iota_respects_sums(self):
        x = poly_of(ZW, 8, [((1, 0), 1)]).with_denominator(form(ZW, z=1, w=1))
        y = poly_of(ZW, 8, [((0, 1), 5)]).with_denominator(form(ZW, z=1, w=1))
        blocks = (("z",), ("w",))
        lhs = iota_expand(x + y, blocks, trunc=4)
        rhs = iota_expand(x, blocks, trunc=4) + iota_expand(y, blocks, trunc=4)
        assert series_equal(lhs, rhs)

    def test_round_trip_without_denominator(self):
        x = poly_of(ZW, 5, [((2, 1), Fraction(7, 3)), ((0, 0), -2)])
        y = iota_expand(x, (("z",), ("w",)), trunc=5)
        assert y.num.terms == x.num.terms
        assert y.den == ()

    def test_reexpansion_keeps_block_bounds(self):
        # the trunc-1 expansion of 1/(z + w) is exact only to w-degree 1;
        # re-expanding it at trunc 3 must not claim more
        x = LocalizedSeries.one(ZW, 12).with_denominator(form(ZW, z=1, w=1))
        blocks = (("z",), ("w",))
        y = iota_expand(iota_expand(x, blocks, trunc=1), blocks, trunc=3)
        assert y.block_bounds == (None, 1)
        assert series_equal(y, iota_expand(x, blocks, trunc=12))
        bounded = iota_expand(x, blocks, trunc=1)
        with pytest.raises(ValueError):
            iota_expand(bounded, (("w",), ("z",)), trunc=3)


class TestResidue:
    def test_simple_pole(self):
        x = LocalizedSeries.one(Z, 6).with_denominator(form(Z, z=1))
        r = residue(x, "z", 0)
        assert r.num.constant_term() == Fraction(1)

    def test_coefficient_of_a_negative_power_raises(self):
        # a power series has no z^-1 term; the Laurent reading,
        # coefficient_of_power, answers a zero series instead
        x = TruncSeries(ZW, 3, {(1, 0): 2, (0, 2): 1})
        assert x.coefficient_of("z", 1) == TruncSeries(VarSet(("w",)), 2, {(0,): 2})
        with pytest.raises(ValueError, match="negative power"):
            x.coefficient_of("z", -1)
        assert coefficient_of_power(LocalizedSeries(x), "z", -1).num.is_zero()

    def test_regular_terms_have_no_residue(self):
        for n in range(4):
            x = poly_of(Z, 6, [((n,), 1)])
            assert residue(x, "z", 0).num.is_zero()

    def test_cauchy_formula_at_shifted_center(self):
        # res_{z=w} f(z)/(z-w) = f(w) for polynomial f of degree <= 5
        coeffs = [3, -1, 2, 0, 5, Fraction(1, 2)]
        terms = {(i, 0): Fraction(c) for i, c in enumerate(coeffs) if c}
        x = LocalizedSeries(TruncSeries(ZW, 8, terms)).with_denominator(
            form(ZW, z=1, w=-1)
        )
        r = residue(x, "z", "w")
        expected = {(i,): Fraction(c) for i, c in enumerate(coeffs) if c}
        assert r.num.terms == expected

    def test_negative_center(self):
        # res_{z=-w} 1/(z+w) = 1
        x = LocalizedSeries.one(ZW, 6).with_denominator(form(ZW, z=1, w=1))
        r = residue(x, "z", "-w")
        assert r.num.constant_term() == Fraction(1)

    def test_double_pole_picks_derivative(self):
        # res_{z=w} f(z)/(z-w)^2 = f'(w)
        terms = {(3, 0): Fraction(1)}  # f = z^3
        x = LocalizedSeries(TruncSeries(ZW, 8, terms)).with_denominator(
            form(ZW, z=1, w=-1), mult=2
        )
        r = residue(x, "z", "w")
        assert r.num.terms == {(2,): Fraction(3)}

    def test_residue_theorem_shape(self):
        # dens among {z, z-w, z+w}: global residue = sum of local residues
        num = TruncSeries(
            ZW, 8, {(0, 0): 1, (1, 0): 2, (2, 1): Fraction(1, 3), (0, 2): -1}
        )
        x = LocalizedSeries(num)
        x = x.with_denominator(form(ZW, z=1))
        x = x.with_denominator(form(ZW, z=1, w=-1))
        x = x.with_denominator(form(ZW, z=1, w=1))
        expanded = iota_expand(x, (("z",), ("w",)), trunc=6)
        global_res = coefficient_of_power(expanded, "z", -1)
        local = (
            residue(x, "z", 0, trunc=6)
            + residue(x, "z", "w", trunc=6)
            + residue(x, "z", "-w", trunc=6)
        )
        assert series_equal(global_res, local)

    def test_exact_numerator_needs_no_trunc(self):
        # res_{z=w} z^3/(z-w)^2 = 3w^2, read to the numerator's degree
        x = LocalizedSeries(TruncSeries(ZW, INF, {(3, 0): 1})).with_denominator(
            form(ZW, z=1, w=-1), mult=2
        )
        assert x.num.degree() == 3 and TruncSeries.zero(ZW).degree() == -1
        r = residue(x, "z", "w")
        assert r.num.terms == {(2,): Fraction(3)} and r.num.order is INF

    def test_unknown_center_rejected(self):
        x = LocalizedSeries.one(ZW, 4).with_denominator(form(ZW, z=1))
        with pytest.raises(ValueError):
            residue(x, "z", "q")


class TestUnknownCoefficients:
    """A coefficient, derivative or quotient past a series' order is known
    nowhere, so it raises, or gives no quotient, instead of reading as an
    exact zero."""

    def test_coefficient_past_the_order_raises(self):
        x = TruncSeries(Z, 2, {(0,): 1})
        assert x.coefficient_of("z", 2) == TruncSeries(VarSet(()), 0)
        with pytest.raises(ValueError, match="past the order"):
            x.coefficient_of("z", 3)
        # read as an exact zero, it would compare equal to any multiple
        with pytest.raises(ValueError, match="past the order"):
            coefficient_of_power(LocalizedSeries(x).scale(3), "z", 5)

    def test_derivative_of_an_order_zero_series_raises(self):
        with pytest.raises(ValueError, match="order 0"):
            TruncSeries(Z, 0, {(0,): 1}).diff("z")
        assert TruncSeries(Z, 1, {(1,): 3}).diff("z") == TruncSeries(Z, 0, {(0,): 3})
        assert TruncSeries.variable(Z, "z").diff("z").order is INF

    def test_division_of_an_order_zero_numerator_gives_none(self):
        f = form(ZW, z=1, w=-1)
        assert try_divide_by_form(TruncSeries.zero(ZW, 0), f) is None
        q = try_divide_by_form(TruncSeries.zero(ZW, 1), f)
        assert q is not None and q.is_zero() and q.order == 0


class TestDiff:
    def test_quotient_rule_on_a_pole(self):
        # d/dz 1/(z - w) = -1/(z - w)^2 and d/dw 1/(z - w) = 1/(z - w)^2
        f = form(ZW, z=1, w=-1)
        x = LocalizedSeries(TruncSeries.const(ZW, 1)).with_denominator(f)
        for name, sign in (("z", -1), ("w", 1)):
            d = x.diff(name)
            assert d.den == ((f, 2),)
            assert d.num.terms == {(0, 0): Fraction(sign)}

    def test_product_rule(self):
        """d(xy) = dx y + x dy for fractions with poles, at exact or
        truncated numerators with polynomial coefficients."""
        prop_product_rule()

    def test_quotient_term_keeps_the_caps_of_every_block_its_form_touches(self):
        """(1 + w^4) / (z + w) and the same with w net-bounded by 2, its w^4
        dropped, agree; so must their z-derivatives, whose quotient term
        squares z + w and so lowers the w-bound too."""
        blocks = (("z",), ("w",))
        num = TruncSeries(ZW, 6, {(0, 0): 1, (0, 4): 1})
        den = [(form(ZW, z=1, w=1), 1)]
        t = LocalizedSeries(num, den, blocks)
        b = LocalizedSeries(num, den, blocks, (None, 2))
        assert series_equal(t, b)
        assert b.diff("z").block_bounds == (None, 1)
        assert series_equal(t.diff("z"), b.diff("z"))


class TestDivision:
    def test_difference_of_squares(self):
        num = TruncSeries(ZW, INF, {(2, 0): 1, (0, 2): -1})
        q = try_divide_by_form(num, form(ZW, z=1, w=-1))
        assert q is not None and q.terms == {(1, 0): Fraction(1), (0, 1): Fraction(1)}

    def test_indivisible_returns_none(self):
        num = TruncSeries(ZW, INF, {(1, 0): 1, (0, 0): 1})
        assert try_divide_by_form(num, form(ZW, z=1, w=-1)) is None

    def test_cancel(self):
        num = TruncSeries(ZW, INF, {(2, 0): 1, (0, 2): -1})
        x = LocalizedSeries(num, [(form(ZW, z=1, w=-1), 1), (form(ZW, z=1), 1)])
        c = x.cancel()
        assert c.den == ((form(ZW, z=1), 1),)
        assert c.num.terms == {(1, 0): Fraction(1), (0, 1): Fraction(1)}


class TestEquality:
    def test_cross_multiplied_equality(self):
        # (z^2 - w^2)/(z - w) == z + w
        a = LocalizedSeries(
            TruncSeries(ZW, 8, {(2, 0): 1, (0, 2): -1})
        ).with_denominator(form(ZW, z=1, w=-1))
        b = LocalizedSeries(TruncSeries(ZW, 7, {(1, 0): 1, (0, 1): 1}))
        assert series_equal(a, b)

    def test_inequality(self):
        a = LocalizedSeries.one(ZW, 6)
        b = LocalizedSeries(TruncSeries(ZW, 6, {(1, 0): 1}))
        assert not series_equal(a, b)

    def test_blocks_must_match(self):
        a = iota_expand(
            LocalizedSeries.one(ZW, 6).with_denominator(form(ZW, z=1, w=1)),
            (("z",), ("w",)),
            3,
        )
        b = LocalizedSeries.one(ZW, 6)
        with pytest.raises(ValueError):
            a - b

    def test_constructor_drops_terms_past_the_caps(self):
        """A bounded series holds only its window: a numerator term past a
        block's cap is dropped when the series is built or read from JSON,
        and the numerator handed in is left as it was."""
        blocks = (("z",), ("w",))
        den = [(form(ZW, z=1, w=1), 1)]
        num = TruncSeries(
            ZW, 6, {(0, 0): 1, (0, 2): 2, (1, 3): 3, (0, 4): -1, (5, 0): 1}
        )
        x = LocalizedSeries(num, den, blocks, (None, 2))
        assert x.num.terms == within_bounds(num, x.den, blocks, (None, 2))
        assert set(x.num.terms) == {(0, 0), (0, 2), (1, 3), (5, 0)}
        assert (x.num.order, len(num.terms)) == (6, 5)
        # a series with nothing past its caps, or with no bound, keeps its
        # numerator object
        assert LocalizedSeries(num, den, blocks, (None, 3)).num is num
        assert LocalizedSeries(num, den, blocks).num is num
        blob = series_to_dict(LocalizedSeries(num, den, blocks))
        blob["block_bounds"] = [None, 2]
        y = series_from_dict(blob)
        assert (y.num, y.den, y.block_bounds) == (x.num, x.den, x.block_bounds)


class TestNest:
    """`nest` feeds a series into a series-valued map coefficient by
    coefficient, each at the room its monomial leaves."""

    @staticmethod
    def shift(names, scale=1):
        """p |-> p * (1 + scale * n) for each of ``names``, at the room
        asked for, with the calls recorded."""
        calls = []
        vs = VarSet(tuple(names))

        def outer(p, room):
            calls.append((p, room))
            terms = {vs.zero_exponent(): p}
            for i in range(len(vs)):
                terms[tuple(int(j == i) for j in range(len(vs)))] = p * scale
            return LocalizedSeries(TruncSeries(vs, room, terms))

        return outer, calls

    def test_disjoint_names_lead(self):
        inner = poly_of(VarSet(("w",)), 2, [((0,), 2), ((1,), 3), ((2,), 5)])
        outer, calls = self.shift(["z"])
        out = nest(outer, inner, ["z"])
        assert out.varset == ZW and out.blocks == (("z",), ("w",))
        assert sorted(room for _, room in calls) == [0, 1, 2]
        assert out.num.order == 2
        assert out.num.terms == {
            (0, 0): Poly.const(2), (1, 0): Poly.const(2), (0, 1): Poly.const(3),
            (1, 1): Poly.const(3), (0, 2): Poly.const(5),
        }

    def test_shared_name_adds_exponents(self):
        inner = poly_of(ZW, 3, [((0, 1), 1), ((1, 1), 2)])
        outer, _ = self.shift(["w"])
        out = nest(outer, inner, ["w"])
        assert out.varset == ZW and out.blocks == (("z", "w"),)
        assert out.num.order == 3
        assert out.num.terms == {
            (0, 1): Poly.const(1), (0, 2): Poly.const(1),
            (1, 1): Poly.const(2), (1, 2): Poly.const(2),
        }

    def test_positive_valuation_keeps_the_inner_order(self):
        inner = poly_of(VarSet(("w",)), 2, [((1,), 1)])
        outer, calls = self.shift(["z"])
        out = nest(outer, inner, ["z"])
        assert calls == [(Poly.const(1), 1)]
        assert out.num.order == 2

    def test_outer_order_below_the_room_lowers_the_claim(self):
        inner = poly_of(VarSet(("w",)), 4, [((0,), 1), ((1,), 1)])
        outer, _ = self.shift(["z"])
        out = nest(lambda p, room: outer(p, min(room, 1)), inner, ["z"])
        assert out.num.order == 1

    def test_exact_inner_raises(self):
        outer, _ = self.shift(["z"])
        with pytest.raises(ValueError, match="finite order"):
            nest(outer, poly_of(VarSet(("w",)), INF, [((1,), 1)]), ["z"])

    def test_zero_inner_calls_nothing(self):
        outer, calls = self.shift(["z"])
        out = nest(outer, LocalizedSeries(TruncSeries.zero(VarSet(("w",)), 3)), ["z"])
        assert not calls and out.num.is_zero() and out.num.order == 3
        assert out.varset == ZW

    def test_denominators_combine(self):
        # 1/w * (1 + w/z): the constant term's image carries 1/z and the
        # w term's image none, so the two add as fractions
        w = VarSet(("w",))
        inner = LocalizedSeries(
            TruncSeries(w, 3, {(0,): 1, (1,): 1}), [(form(w, w=1), 1)]
        )

        def outer(p, room):
            num = TruncSeries(Z, room, {(0,): p})
            return LocalizedSeries(num, [(form(Z, z=1), 1)] if room == 3 else ())

        out = nest(outer, inner, ["z"])
        want = LocalizedSeries(
            TruncSeries(ZW, 3, {(0, 0): 1, (1, 1): 1}),
            [(form(ZW, z=1), 1), (form(ZW, w=1), 1)],
            (("z",), ("w",)),
        )
        assert out.den == want.den
        assert series_equal(out, want)

    def test_outer_on_other_names_raises(self):
        outer, _ = self.shift(["y"])
        with pytest.raises(ValueError, match="lives on"):
            nest(outer, poly_of(VarSet(("w",)), 2, [((0,), 1)]), ["z"])


class TestSubstitution:
    def test_linear_substitution_on_denominator(self):
        # 1/(z - w) with z -> u + v, w -> v gives 1/u
        uv = VarSet(("u", "v"))
        x = LocalizedSeries.one(ZW, 6).with_denominator(form(ZW, z=1, w=-1))
        y = x.substitute_linear(uv, {"z": {"u": 1, "v": 1}, "w": {"v": 1}})
        assert y.den == ((form(uv, u=1), 1),)

    def test_sign_normalization(self):
        # 1/z with z -> -u gives -1/u
        u = VarSet(("u",))
        x = LocalizedSeries.one(Z, 6).with_denominator(form(Z, z=1))
        y = x.substitute_linear(u, {"z": {"u": -1}})
        assert y.den == ((form(u, u=1), 1),)
        assert y.num.constant_term() == Fraction(-1)

    def test_collapsing_form_rejected(self):
        u = VarSet(("u",))
        x = LocalizedSeries.one(ZW, 6).with_denominator(form(ZW, z=1, w=-1))
        with pytest.raises(ValueError):
            x.substitute_linear(u, {"z": {"u": 1}, "w": {"u": 1}})

    def test_block_bounds_rejected(self):
        # y, the trunc-1 expansion of 1/(z + w), is exact only to w-degree
        # 1; the residue of y/(z - w) at z = w would read 0, where the
        # exact 1/((z - w)(z + w)) has residue 1/(2w)
        x = LocalizedSeries.one(ZW, 12).with_denominator(form(ZW, z=1, w=1))
        y = iota_expand(x, (("z",), ("w",)), trunc=1)
        assert y.block_bounds == (None, 1)
        with pytest.raises(ValueError):
            y.substitute_linear(ZW, {"z": {"z": 1}, "w": {"w": 1}})
        with pytest.raises(ValueError):
            residue(y.with_denominator(form(ZW, z=1, w=-1)), "z", "w", trunc=8)
        exact = residue(x.with_denominator(form(ZW, z=1, w=-1)), "z", "w", trunc=8)
        w = VarSet(("w",))
        half = LocalizedSeries(TruncSeries(w, 8, {(0,): Fraction(1, 2)}))
        assert series_equal(exact, half.with_denominator(form(w, w=1)))
        assert not series_equal(exact, LocalizedSeries.zero(w, 8))

    def test_compose_rejects_block_bounds(self):
        # y, the trunc-1 expansion of 1/(z + w), is exact only to w-degree
        # 1; composed at the identity and expanded at trunc 5 it would
        # claim the w^2..w^5 terms it dropped
        x = LocalizedSeries.one(ZW, 12).with_denominator(form(ZW, z=1, w=1))
        blocks = (("z",), ("w",))
        y = iota_expand(x, blocks, trunc=1)
        identity = {n: TruncSeries.variable(ZW, n) for n in ZW.names}
        with pytest.raises(ValueError, match="block bounds"):
            y.compose(ZW, identity, blocks, 5)
        assert series_equal(x.compose(ZW, identity, blocks, 5), iota_expand(x, blocks, 5))

    def test_content_moves_into_numerator(self):
        # 1/(z + w) with z -> u + v, w -> u - v gives 1/(2u) = (1/2)/u
        uv = VarSet(("u", "v"))
        x = LocalizedSeries.one(ZW, 6).with_denominator(form(ZW, z=1, w=1))
        y = x.substitute_linear(uv, {"z": {"u": 1, "v": 1}, "w": {"u": 1, "v": -1}})
        assert y.den == ((form(uv, u=1), 1),)
        assert y.num == TruncSeries.const(uv, Fraction(1, 2), 6)

    def test_compose_expands_each_pole(self):
        # 1/z at z -> 2u + u^2 is 1/u times the inverse of the unit 2 + u
        u = VarSet(("u",))
        image = TruncSeries(u, INF, {(1,): 2, (2,): 1})
        y = LocalizedSeries.one(Z, 4).with_denominator(form(Z, z=1)).compose(u, {"z": image})
        assert y.den == ((form(u, u=1), 1),)
        one = LocalizedSeries.one(u, INF)
        assert series_equal(y * LocalizedSeries(image), one)
        assert not series_equal(y * LocalizedSeries(image), one.scale(2))
        x = LocalizedSeries.one(ZW, 4).with_denominator(form(ZW, z=1, w=-1))
        with pytest.raises(ValueError, match="collapses"):
            x.compose(u, {"z": image, "w": image})

    def test_image_outside_target_rejected(self):
        u = VarSet(("u",))
        x = LocalizedSeries.one(Z, 6).with_denominator(form(Z, z=1))
        for y in (x, x.num):
            with pytest.raises(ValueError):
                y.substitute_linear(u, {"z": {"q": 1}})

    def test_exact_compose_is_exact(self):
        # (z + w)^2 at z -> u + v, w -> u - v is 4u^2, with no order bound
        uv = VarSet(("u", "v"))
        mapping = {"z": {"u": 1, "v": 1}, "w": {"u": 1, "v": -1}}
        x = TruncSeries(ZW, INF, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
        images = {
            "z": TruncSeries(uv, INF, {(1, 0): 1, (0, 1): 1}),
            "w": TruncSeries(uv, INF, {(1, 0): 1, (0, 1): -1}),
        }
        got = x.compose(uv, images)
        assert got.order is INF
        assert got == x.substitute_linear(uv, mapping)
        assert got == TruncSeries(uv, INF, {(2, 0): 4})


class TestRepr:
    def test_truncated_series(self):
        x = TruncSeries(ZW, 3, {(0, 0): Fraction(1, 2), (2, 1): Poly.variable("s1"), (0, 1): -3})
        assert repr(x) == "(1/2) + (-3)*w + (s1)*z^2*w"
        assert repr(TruncSeries.zero(ZW, 3)) == "0"

    def test_localized_series(self):
        x = LocalizedSeries(
            TruncSeries(ZW, 4, {(1, 0): 2}), [(form(ZW, z=1, w=-1), 2)]
        )
        assert repr(x) == "((2)*z)/(z-w)^2"


class TestCoefficientRing:
    """A coefficient is a `Poly` however it was given, so a constant `Poly`
    and the scalar it equals give the same answers."""

    T = VarSet(("t",))

    def test_every_coefficient_is_a_poly(self):
        x = TruncSeries(
            ZW, 3, {(0, 0): 2, (1, 0): Fraction(1, 3), (0, 1): Poly.variable("s")}
        )
        products = [x * x, x.scale(3), x * 2, x + x, -x]
        for y in [x] + products:
            assert all(type(c) is Poly for c in y.terms.values())
        assert type(x.constant_term()) is Poly
        assert type(TruncSeries.zero(ZW, 3).constant_term()) is Poly

    def test_float_coefficient_raises(self):
        with pytest.raises(TypeError):
            TruncSeries(ZW, 3, {(1, 0): 0.5})
        with pytest.raises(TypeError):
            TruncSeries.const(ZW, 1, 3).scale(0.5)

    def test_invert_unit_with_constant_poly(self):
        plain = TruncSeries(self.T, 3, {(0,): 2, (1,): 1})
        held = TruncSeries(self.T, 3, {(0,): Poly.const(2), (1,): 1})
        inverse = series_invert_unit(plain)
        assert inverse.terms == {
            (k,): Fraction((-1) ** k, 2 ** (k + 1)) for k in range(4)
        }
        assert series_invert_unit(held) == inverse
        with pytest.raises(ValueError):
            series_invert_unit(TruncSeries(self.T, 3, {(0,): Poly.variable("s") + 2}))

    def test_dumps_constant_poly(self):
        plain = LocalizedSeries(TruncSeries(self.T, 3, {(0,): 2, (1,): 1}))
        held = LocalizedSeries(TruncSeries(self.T, 3, {(0,): Poly.const(2), (1,): 1}))
        assert dumps_series(held) == dumps_series(plain)
        assert json.loads(dumps_series(held))["terms"][0]["coef"] == "2"


class TestJSON:
    def test_round_trip_keeps_degrees(self):
        vs = VarSet(("t", "z"), degrees=(1, -4))
        x = LocalizedSeries(
            TruncSeries(vs, 4, {(0, 0): 1, (1, 2): Fraction(5, 2)}),
            [(LinearForm(vs, (1, 1)), 1)],
        )
        y = loads_series(dumps_series(x))
        assert y.varset.degrees == (1, -4)
        assert y.varset == x.varset and y.den == x.den
        assert dumps_series(y) == dumps_series(x)

    def test_round_trip_bits(self):
        x = LocalizedSeries(
            TruncSeries(ZW, 5, {(1, 0): Fraction(-7, 3), (0, 2): 4}),
            [(form(ZW, z=1, w=1), 2)],
        )
        blob = dumps_series(x)
        again = dumps_series(loads_series(blob))
        assert blob == again

    def test_terms_sorted_lexicographically(self):
        x = LocalizedSeries(
            TruncSeries(ZW, 5, {(2, 0): 1, (0, 1): 1, (1, 1): 1})
        )
        d = json.loads(dumps_series(x))
        exps = [tuple(t["exp"]) for t in d["terms"]]
        assert exps == sorted(exps)

    def test_expanded_series_round_trips(self):
        x = LocalizedSeries.one(ZW, 6).with_denominator(form(ZW, z=1, w=1))
        y = iota_expand(x, (("z",), ("w",)), trunc=3)
        blob = dumps_series(y)
        z = loads_series(blob)
        assert dumps_series(z) == blob
        assert z.blocks == y.blocks
        assert z.block_bounds == y.block_bounds

    VALID = {
        "vars": ["z", "w"],
        "degrees": [-2, -2],
        "order": 3,
        "den": [{"form": [1, 1], "mult": 2}],
        "terms": [{"exp": [1, 0], "coef": "1/2"}],
        "blocks": [["z"], ["w"]],
        "block_bounds": [None, 3],
    }

    @pytest.mark.parametrize(
        "path, value",
        [
            (("terms", 0, "exp", 0), 1.9),
            (("order",), 2.5),
            (("order",), True),
            (("order",), "3"),
            (("den", 0, "mult"), 1.5),
            (("den", 0, "form", 0), 1.5),
            (("degrees", 0), -2.5),
            (("block_bounds", 1), 2.5),
            (("vars",), None),
            (("order",), None),
            (("terms",), None),
            (("terms", 0, "exp"), None),
            (("terms", 0, "coef"), None),
            (("den", 0, "form"), None),
            (("den", 0, "mult"), None),
            (("vars",), "zw"),
            (("vars", 0), 1),
            # lists given as strings or scalars, entries that are not objects
            (("den",), "x"),
            (("den",), [1]),
            (("terms",), [[1, 0]]),
            (("terms",), "x"),
            (("blocks",), "zw"),
            (("blocks",), [["z"], "w"]),
            (("blocks",), [["z"], 1]),
            (("blocks", 1, 0), 1),
            # nested lists given as scalars
            (("terms", 0, "exp"), 5),
            (("den", 0, "form"), 5),
            (("degrees",), 5),
            (("block_bounds",), 5),
        ],
    )
    def test_malformed_field_raises(self, path, value):
        # an integer field that is not an int is rejected, not cut to one;
        # a value of None stands for a missing key
        assert series_from_dict(self.VALID).num.terms == {(1, 0): Fraction(1, 2)}
        blob = json.loads(json.dumps(self.VALID))
        parent = reduce(lambda obj, k: obj[k], path[:-1], blob)
        if value is None:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        with pytest.raises(ValueError):
            series_from_dict(blob)

    def test_repeated_exponents_add(self):
        blob = {
            "vars": ["z", "w"],
            "order": 3,
            "terms": [
                {"exp": [1, 0], "coef": "1"},
                {"exp": [1, 0], "coef": "2"},
                {"exp": [0, 1], "coef": "1/2"},
                {"exp": [0, 1], "coef": "-1/2"},
            ],
        }
        x = series_from_dict(blob)
        assert x.num.terms == {(1, 0): Fraction(3)}
        assert repr(x) == "((3)*z)"

    def test_rational_blob_is_unchanged(self):
        # constant coefficients, however they are held, write the same
        # "num/den" strings as a rational-coefficient series always did
        blob = (
            '{"vars":["z","w"],"degrees":[-2,-2],"order":5,'
            '"den":[{"form":[1,1],"mult":2}],'
            '"terms":[{"exp":[0,2],"coef":"4"},{"exp":[1,0],"coef":"-7/3"}]}'
        )
        assert dumps_series(loads_series(blob)) == blob
        held = LocalizedSeries(
            TruncSeries(
                ZW, 5, {(1, 0): Poly.const(Fraction(-7, 3)), (0, 2): Poly.const(4)}
            ),
            [(form(ZW, z=1, w=1), 2)],
        )
        assert dumps_series(held) == blob

    def test_polynomial_coefficients_round_trip(self):
        s = Poly.variable("s_1")
        p = 2 * s / 3 + s * s - 1
        x = LocalizedSeries(
            TruncSeries(ZW, 4, {(0, 0): p, (1, 0): Fraction(5, 2), (0, 1): -s}),
            [(form(ZW, z=1), 1)],
        )
        d = series_to_dict(x)
        assert [t["coef"] for t in d["terms"]] == [
            poly_to_obj(p), poly_to_obj(-s), "5/2"
        ]
        y = loads_series(dumps_series(x))
        assert y.num == x.num and y.den == x.den
        assert dumps_series(y) == dumps_series(x)

    @pytest.mark.parametrize("coef", [3, 1.5, None, {"1": 2}, [[[], 0.1]]])
    def test_malformed_coefficient_raises(self, coef):
        blob = {"vars": ["z"], "order": 2, "terms": [{"exp": [1], "coef": coef}]}
        with pytest.raises(ValueError):
            series_from_dict(blob)


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.fractions(min_value=-5, max_value=5),
        max_size=6,
    ),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.fractions(min_value=-5, max_value=5),
        max_size=6,
    ),
)
def prop_mul_commutes(ta, tb):
    a = TruncSeries(ZW, 6, ta)
    b = TruncSeries(ZW, 6, tb)
    assert a * b == b * a


def mul_per_pair(a, b):
    """The per-pair series product: each coefficient product is one `Poly`
    multiplication, added into its output coefficient one at a time.  The
    reference for `TruncSeries.__mul__`."""
    if a.order is INF and b.order is INF:
        order = INF
    elif a.order is INF:
        order = INF if not a.terms else b.order + min(sum(e) for e in a.terms)
    elif b.order is INF:
        order = INF if not b.terms else a.order + min(sum(e) for e in b.terms)
    else:
        order = min(a.order, b.order)
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            if order is not INF and sum(e1) + sum(e2) > order:
                continue
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, Poly()) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out, order


S, T = Poly.variable("s"), Poly.variable("t")

# multi-term coefficients in s and t with denominators up to 12; small
# integer numerators make coefficient sums cancel often
coefficients = st.one_of(
    st.integers(-2, 2),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
    st.lists(
        st.tuples(
            st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2), st.integers(1, 12)
        ),
        min_size=1,
        max_size=3,
    ).map(lambda ts: sum((S ** i * T ** j * Fraction(n, d) for i, j, n, d in ts), Poly())),
)
series_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), coefficients, max_size=6
)
orders = st.one_of(st.none(), st.integers(0, 6))


@settings(max_examples=150, deadline=None)
@given(series_terms, orders, series_terms, orders)
# (1+t)(1+t^2): keys 1 and 2 share no bit, so the product is deferred
@example({(0, 0): 1 + T}, None, {(0, 0): 1 + T ** 2}, None)
def prop_mul_matches_per_pair_loop(ta, oa, tb, ob):
    a, b = TruncSeries(ZW, oa, ta), TruncSeries(ZW, ob, tb)
    for x, y in ((a, b), (a, -a), (a, a - b), (b, a + b)):
        got = x * y
        terms, order = mul_per_pair(x, y)
        assert got.terms == terms
        assert got.order == order
        # a deferred product (a `Poly` subclass) is a coefficient too
        assert all(isinstance(c, Poly) for c in got.terms.values())


@st.composite
def constant_series_pairs(draw):
    """Two series of rational constants over 1-3 variables, exact or
    truncated, with denominators up to 12 and small numerators, so that
    products often cancel."""
    n = draw(st.integers(1, 3))
    varset = VarSet(("z", "w", "v")[:n])
    exps = st.tuples(*[st.integers(0, 3)] * n)
    coefs = st.fractions(min_value=-2, max_value=2, max_denominator=12)
    a, b = (
        TruncSeries(varset, draw(orders), draw(st.dictionaries(exps, coefs, max_size=6)))
        for _ in range(2)
    )
    return a, b


@settings(max_examples=150, deadline=None)
@given(constant_series_pairs())
def prop_constant_path_matches_general(ab):
    a, b = ab
    for x, y in ((a, b), (a, -a), (a, a - b), (b, a + b)):
        got = x * y
        assert (got.terms, got.order) == mul_per_pair(x, y)
        assert all(type(c) is Poly and set(c.terms) == {0} for c in got.terms.values())
        assert all(c.den > 0 and gcd(c.den, c.terms[0]) == 1 for c in got.terms.values())


def test_prop_constant_path_matches_general():
    """A product of series of rational constants equals the per-pair
    product, each coefficient a canonical constant `Poly`."""
    prop_constant_path_matches_general()


@st.composite
def one_constant_side(draw):
    """A series of rational constants and one of multi-term coefficients
    over (z, w), in either order, exact or truncated, with a degree cap
    on z, on w, on both or on neither."""
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    coefs = st.fractions(min_value=-2, max_value=2, max_denominator=12).filter(bool)
    constants = TruncSeries(ZW, draw(orders), draw(st.dictionaries(exps, coefs, max_size=6)))
    terms = draw(series_terms)
    terms[(0, 0)] = S - draw(st.integers(-2, 2))  # kept at any order, and not constant
    polys = TruncSeries(ZW, draw(orders), terms)
    caps = tuple(
        ((i,), cap)
        for i, cap in enumerate(draw(st.tuples(*[st.one_of(st.none(), st.integers(0, 4))] * 2)))
        if cap is not None
    )
    return (constants, polys, caps) if draw(st.booleans()) else (polys, constants, caps)


@settings(max_examples=150, deadline=None)
@given(one_constant_side())
# z*w meets +(s+t) and -(s+t): the sum cancels and is dropped
@example((
    TruncSeries(ZW, INF, {(1, 0): 1, (0, 1): -1}),
    TruncSeries(ZW, INF, {(1, 0): S + T, (0, 1): S + T, (0, 0): S / 3}),
    (),
))
def prop_scaled_path_matches_general(args):
    a, b, caps = args
    got = a.__mul__(b, caps)
    full, order = mul_per_pair(a, b)
    want = {e: c for e, c in full.items() if all(e[i] <= cap for (i,), cap in caps)}
    assert (got.terms, got.order) == (want, order)
    assert all(c and c.den > 0 and gcd(c.den, *c.terms.values()) == 1 for c in got.terms.values())


def test_prop_scaled_path_matches_general():
    """A capped product with one side of rational constants equals the
    per-pair product cut to the caps, at the same order and with the zero
    sums dropped."""
    prop_scaled_path_matches_general()


@st.composite
def bounded_pairs(draw):
    """Two fractions over 2 or 3 variables in one regime of 2 or 3 blocks:
    constant or multi-term coefficients, exact or truncated numerators,
    forms on any blocks, and per block a net bound or None."""
    n = draw(st.integers(2, 3))
    varset = VarSet(("z", "w", "v")[:n])
    split = draw(st.integers(1, n - 1))
    blocks = (varset.names[:split],) + tuple((name,) for name in varset.names[split:])
    exps = st.tuples(*[st.integers(0, 3)] * n)
    coefs = coefficients if draw(st.booleans()) else st.integers(-2, 2)
    vecs = st.tuples(*[st.integers(-1, 2)] * n).filter(any)
    bounds = st.tuples(*[st.one_of(st.none(), st.integers(-1, 3))] * len(blocks))
    sides = []
    for _ in range(2):
        num = TruncSeries(varset, draw(orders), draw(st.dictionaries(exps, coefs, max_size=6)))
        den = [(LinearForm.make_scaled(varset, v)[0], m) for v, m in draw(
            st.lists(st.tuples(vecs, st.integers(1, 2)), max_size=2)
        )]
        sides.append(LocalizedSeries(num, den, blocks, draw(bounds)))
    return sides


def cleared_sum(x, y):
    """The numerator and denominator of x + y, each numerator cleared by
    uncapped products."""
    den = {}
    for f, m in x.den + y.den:
        den[f] = max(den.get(f, 0), m)
    nums = []
    for side in (x, y):
        own = dict(side.den)
        num = side.num
        for f, m in den.items():
            num = num * f.as_series() ** (m - own.get(f, 0))
        nums.append(num)
    return nums[0] + nums[1], den


@settings(max_examples=200, deadline=None)
@given(bounded_pairs())
def prop_bounded_product_is_the_filtered_product(sides):
    x, y = sides
    product = (x.num * y.num, dict(LocalizedSeries(x.num, x.den + y.den).den))
    for got, (full, den) in (
        (x * y, product),
        (x + y, cleared_sum(x, y)),
        (x - y, cleared_sum(x, -y)),
    ):
        want = within_bounds(full, got.den, got.blocks, got.block_bounds)
        assert (got.num.terms, got.num.order, dict(got.den)) == (want, full.order, den)


def test_prop_bounded_product_is_the_filtered_product():
    """A product, sum or difference with block bounds equals the one with
    uncapped products cut to those bounds, term for term and with the same
    order and denominator."""
    prop_bounded_product_is_the_filtered_product()


@st.composite
def fractions_with_poles(draw):
    """A fraction over z, w: an exact or truncated numerator with constant
    or polynomial coefficients, over one or two forms.  A truncated order
    of at least 4 leaves most products of two a nonempty window."""
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    order = draw(st.one_of(st.none(), st.integers(4, 9)))
    num = TruncSeries(ZW, order, draw(st.dictionaries(exps, coefficients, max_size=5)))
    vecs = st.tuples(st.integers(-1, 2), st.integers(-1, 2)).filter(any)
    poles = draw(st.lists(st.tuples(vecs, st.integers(1, 2)), min_size=1, max_size=2))
    return LocalizedSeries(num, [(LinearForm.make_scaled(ZW, v)[0], m) for v, m in poles])


@settings(max_examples=80, deadline=None)
@given(fractions_with_poles(), fractions_with_poles(), st.sampled_from(["z", "w"]))
def prop_product_rule(x, y, name):
    assert series_equal((x * y).diff(name), x.diff(name) * y + x * y.diff(name))


def test_mul_cancels_to_zero():
    # (s*z + w) * (s*z - w): the two z*w pairs, s*(-1) and 1*s, cancel
    a = TruncSeries(ZW, INF, {(1, 0): S, (0, 1): 1})
    b = TruncSeries(ZW, INF, {(1, 0): S, (0, 1): -1})
    got = a * b
    assert got.terms == {(2, 0): S * S, (0, 2): Poly.const(-1)}
    assert got.terms == mul_per_pair(a, b)[0]
    assert (a * (b - b)).is_zero()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-4, 4)),
        max_size=5,
    )
)
def prop_iota_additive(raw):
    terms = {}
    for i, j, c in raw:
        terms[(i, j)] = terms.get((i, j), 0) + c
    x = LocalizedSeries(TruncSeries(ZW, 8, terms)).with_denominator(
        form(ZW, z=1, w=1)
    )
    blocks = (("z",), ("w",))
    double = iota_expand(x + x, blocks, 4)
    twice = iota_expand(x, blocks, 4) + iota_expand(x, blocks, 4)
    assert series_equal(double, twice)


def test_prop_mul_commutes():
    prop_mul_commutes()


def test_prop_iota_additive():
    prop_iota_additive()


def test_prop_mul_matches_per_pair_loop():
    prop_mul_matches_per_pair_loop()


def matmul2(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


# products of elementary integer matrices, so each has determinant +-1
ELEMENTARY = (
    [((1, k), (0, 1)) for k in (-2, -1, 1, 2)]
    + [((1, 0), (k, 1)) for k in (-2, -1, 1, 2)]
    + [((0, 1), (1, 0)), ((-1, 0), (0, 1))]
)
unimodular = st.lists(st.sampled_from(ELEMENTARY), min_size=1, max_size=3).map(
    lambda ms: reduce(matmul2, ms)
)
nonzero_forms = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any)


@settings(max_examples=60, deadline=None)
@given(
    unimodular,
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.integers(-3, 3),
        max_size=5,
    ),
    st.lists(nonzero_forms, min_size=1, max_size=2),
)
def prop_substitute_round_trip(m, terms, vecs):
    uv = VarSet(("u", "v"))
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    inv = ((det * m[1][1], -det * m[0][1]), (-det * m[1][0], det * m[0][0]))
    there = {n: dict(zip(uv.names, row)) for n, row in zip(ZW.names, m)}
    back = {n: dict(zip(ZW.names, row)) for n, row in zip(uv.names, inv)}
    x = LocalizedSeries(TruncSeries(ZW, 6, terms))
    for vec in vecs:
        x = x.with_denominator(LinearForm.make_scaled(ZW, vec)[0])
    y = x.substitute_linear(uv, there).substitute_linear(ZW, back)
    assert series_equal(y, x)
    assert not series_equal(y, x + LocalizedSeries.one(ZW, 6))


def test_prop_substitute_round_trip():
    prop_substitute_round_trip()


def compose_per_term(x, target, mapping):
    """The per-term composition: each term's powers by `TruncSeries.__pow__`,
    added into the result one series at a time.  The reference for
    `TruncSeries.compose`."""
    order = x.order
    for name in x.varset.names:
        order = series._min_order(order, mapping[name].order)
    out = TruncSeries.zero(target, order)
    for e, c in x.terms.items():
        if order is not INF and sum(e) > order:
            continue
        term = TruncSeries.const(target, c, order)
        for name, exp in zip(x.varset.names, e):
            if exp:
                term = term * (mapping[name].truncate(order) ** exp)
        out = out + term
    return out


@st.composite
def compositions(draw):
    """A series over 1-3 variables, empty or not, exact or truncated, with
    multi-term coefficients, and for each variable an image over 1-3
    target variables: a linear form or (1 + y)^w - 1 for a weight w of
    either sign, exact or truncated."""
    source = VarSet(("z", "w", "v")[: draw(st.integers(1, 3))])
    target = VarSet(("a", "b", "c")[: draw(st.integers(1, 3))])
    n, k = len(source), len(target)
    exps = st.tuples(*[st.integers(0, 3)] * n)
    x = TruncSeries(source, draw(orders), draw(st.dictionaries(exps, coefficients, max_size=6)))
    small = st.tuples(*[st.integers(-2, 2)] * k)
    images = {}
    for name in source.names:
        vec = draw(small)
        if draw(st.booleans()):
            img = TruncSeries.linear(target, vec)
        else:
            order = draw(st.integers(0, 5))
            img = one_plus_pow(target, vec, order) - TruncSeries.const(target, 1)
        images[name] = img.truncate(draw(orders))
    return x, target, images


@settings(max_examples=150, deadline=None)
@given(compositions())
def prop_compose_matches_per_term(case):
    x, target, images = case
    got = x.compose(target, images)
    assert got == compose_per_term(x, target, images)
    assert all(type(c) is Poly for c in got.terms.values())
    shifted = x + TruncSeries.const(x.varset, 1)
    assert got != compose_per_term(shifted, target, images)


def test_prop_compose_matches_per_term():
    prop_compose_matches_per_term()


def test_coordinate_changes_build_no_power_by_pow(monkeypatch):
    """`compose`, both `substitute_linear` methods and a residue at a
    variable centre take every power from a table: `TruncSeries.__pow__`
    is never called."""
    uv = VarSet(("u", "v"))
    mapping = {"z": {"u": 1, "v": 1}, "w": {"u": 1, "v": -1}}
    num = TruncSeries(ZW, 6, {(0, 0): 1, (3, 0): 2, (2, 2): S, (1, 4): -1})
    x = LocalizedSeries(num).with_denominator(form(ZW, z=1, w=1), mult=2)
    x = x.with_denominator(form(ZW, z=1, w=-1), mult=2)
    images = {
        "z": one_plus_pow(uv, (1, -2), 5) - TruncSeries.const(uv, 1),
        "w": TruncSeries.linear(uv, (0, 3)),
    }

    def run():
        out = [
            num.compose(uv, images),
            num.substitute_linear(uv, mapping),
            x.substitute_linear(uv, mapping),
            residue(x, "z", "w"),
            residue(x, "z", "-w"),
        ]
        return [(y.num, y.den) if isinstance(y, LocalizedSeries) else y for y in out]

    expected = run()

    def forbidden(*args):
        raise AssertionError("a power went through TruncSeries.__pow__")

    monkeypatch.setattr(TruncSeries, "__pow__", forbidden)
    assert run() == expected


# -- lazy products and embeddings ---------------------------------------------------


@st.composite
def lazy_makers(draw, varset=ZW):
    """A maker of fresh `LazySeries` over ``varset`` at a finite order, one
    that doubles each raw term or one that steps along its last variable,
    as in `lazy_and_eager`."""
    exps = st.tuples(*[st.integers(0, 3)] * len(varset))
    raw = TruncSeries(
        varset, draw(st.integers(0, 5)), draw(st.dictionaries(exps, coefficients, max_size=5))
    )
    if draw(st.booleans()):
        make, names = (lambda c, room: {(): 2 * c}), ()
    else:
        names = varset.names[-1:]

        def make(c, room):
            return {(k,): (k + 1) * c for k in range(room + 1)}

    def lazy():
        return LazySeries(raw, make, names)

    return lazy


def read_whole(lazy):
    """The plain series of a whole read of ``lazy``."""
    return TruncSeries(lazy.varset, lazy.order, lazy.terms)


windows = st.tuples(
    st.lists(
        st.tuples(st.sampled_from([(0,), (1,), (0, 1)]), st.integers(-1, 5)), max_size=2
    ).map(tuple),
    st.one_of(st.none(), st.integers(0, 7)),
)


class TestLazyProduct:
    """An uncapped product with one `LazySeries` factor of finite order is
    a `LazySeries` that reads as the eager product of the plain series."""

    @settings(max_examples=150, deadline=None)
    @given(lazy_makers(), series_terms, orders, st.booleans(), windows)
    def test_prop_matches_the_eager_product(self, lazy, terms, order, left, window):
        plain = TruncSeries(ZW, order, terms)
        eager = read_whole(lazy()) * plain if left else plain * read_whole(lazy())

        def product():
            return lazy() * plain if left else plain * lazy()

        got = product()
        # only an exact factor with no terms leaves the product exact
        assert (type(got) is LazySeries) == (eager.order is not INF)
        assert got.order == eager.order and got.terms == eager.terms
        caps, cut = window
        part = product()._window(caps, cut)
        assert part.order == eager.order
        assert part.terms == eager._window(caps, cut).terms
        # the capped product still reads the lazy factor through its window
        capped = product().__mul__(TruncSeries.const(ZW, 1), caps) if caps else None
        if capped is not None:
            assert type(capped) is TruncSeries
            assert capped.terms == eager._window(caps).terms

    def test_exact_factor_raises_the_order_past_the_raw_order(self):
        """An exact factor of valuation 2 lifts the order of the product
        past the lazy factor's, and the terms up to it are made."""
        lazy, eager = lazy_and_eager(True)
        w2 = TruncSeries(ZW, INF, {(0, 2): 1, (1, 1): S})
        got = lazy * w2
        want = eager * w2
        assert type(got) is LazySeries and got.order == want.order == 5
        assert got.terms == want.terms and max(map(sum, got.terms)) == 5

    def test_finite_factor_lowers_the_order(self):
        lazy, eager = lazy_and_eager(True)
        low = TruncSeries(ZW, 1, {(0, 0): 1, (1, 0): T})
        got = lazy * low
        assert got.order == 1 and got.terms == (eager * low).terms
        assert got._window((), 3).terms == (eager * low).terms

    def test_two_plain_or_two_lazy_factors_stay_eager(self):
        lazy, eager = lazy_and_eager(False)
        assert type(eager * eager) is TruncSeries
        other, _ = lazy_and_eager(True)
        both = lazy * other
        assert type(both) is TruncSeries and both.terms == (eager * read_whole(other)).terms


class TestLazyEmbedding:
    """`substitute_linear` of a `LazySeries` that sends every variable to
    itself among fresh leading names stays lazy; any other substitution
    reads the series whole."""

    @settings(max_examples=100, deadline=None)
    @given(lazy_makers(VarSet(("w",))), st.sampled_from([("z",), ("u", "z")]), windows)
    def test_prop_matches_the_eager_embedding(self, lazy, fresh, window):
        target = VarSet(fresh + ("w",))
        mapping = {"w": {"w": 1}}
        eager = read_whole(lazy()).substitute_linear(target, mapping)
        got = lazy().substitute_linear(target, mapping)
        assert type(got) is LazySeries and not got._raw._made
        assert (got.varset, got.order, got.terms) == (eager.varset, eager.order, eager.terms)
        caps, cut = window
        caps = tuple((tuple(i + len(fresh) - 1 for i in idxs), c) for idxs, c in caps)
        part = lazy().substitute_linear(target, mapping)._window(caps, cut)
        assert part.order == eager.order
        assert part.terms == eager._window(caps, cut).terms

    def test_other_substitutions_read_whole(self):
        lazy, eager = lazy_and_eager(True)
        for target, mapping in [
            (VarSet(("u", "z", "w")), {"z": {"z": 1}, "w": {"u": 1, "w": 1}}),
            (VarSet(("w", "z")), {"z": {"z": 1}, "w": {"w": 1}}),
            (ZW, {"z": {"z": 1}, "w": {"w": 1}}),
        ]:
            got = lazy.substitute_linear(target, mapping)
            assert type(got) is TruncSeries
            assert got == eager.substitute_linear(target, mapping)

    def test_degrees_of_the_target_are_kept(self):
        lazy, eager = lazy_and_eager(False)
        target = VarSet(("u", "z", "w"), (4, -2, -2))
        got = lazy.substitute_linear(target, {"z": {"z": 1}, "w": {"w": 1}})
        assert type(got) is LazySeries and got.varset == target
        assert got.terms == eager.substitute_linear(target, {"z": {"z": 1}, "w": {"w": 1}}).terms

