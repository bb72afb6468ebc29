"""Weight-decomposed classes: Euler series, square roots, swap identities."""

import json
import sys
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_outputs import (
    GOLDEN,
    NORMAL_CASES,
    assert_golden,
    assert_golden_text,
    dump,
    normal_text,
)
from test_homology import translate_series_by_nest
from vertexalg import charclass, homology
from vertexalg.charclass import (
    KClass,
    OrientationData,
    Summand,
    cap_localized,
    characters_from_chern,
    chern_from_characters,
    equivariant_euler,
    kclass_from_obj,
    kclass_to_obj,
    normal_bundle,
    normal_bundle_module,
    sqrt_equivariant_euler,
    tautological_summand,
    tensor_summand,
)
from vertexalg.homology import (
    ComponentLabel,
    HomologyElement,
    ch_name,
    contract_poly,
    translate,
    translate_series,
    var_weight,
)
from vertexalg.poly import Poly, poly_from_obj, poly_to_obj
from vertexalg.series import (
    INF,
    _block_caps,
    LocalizedSeries,
    TruncSeries,
    VarSet,
    iota_expand,
    series_equal,
    series_from_dict,
    series_to_dict,
)

Z = VarSet(("z",))
Z2 = VarSet(("z1", "z2"))


def chp(k, factor=None):
    return Poly.variable(ch_name(k, factor))


def sp(k):
    return Poly.variable("s%d" % k)


def oriented(E, sign=1, convention="lex-first-positive"):
    return KClass(
        E.varset, E.summands, E.depth, E.zero_is_bundle, OrientationData(sign, convention)
    )


def opposite(E):
    """``E`` with the opposite orientation (the default one when it has
    none), its convention kept."""
    ori = E.orientation or OrientationData()
    return oriented(E, -ori.sign, ori.convention)


def one_on(varset, blocks=None):
    return LocalizedSeries(TruncSeries.const(varset, 1, INF), (), blocks)


class TestChernConversion:
    def test_single_character(self):
        c = chern_from_characters({1: chp(1)}, 3)
        assert c[0] == Poly.const(1)
        assert c[1] == chp(1)
        assert c[2] == chp(1) * chp(1) * Fraction(1, 2)
        assert c[3] == chp(1) * chp(1) * chp(1) * Fraction(1, 6)

    def test_all_zero(self):
        c = chern_from_characters({}, 4)
        assert c[0] == Poly.const(1)
        assert all(p.is_zero() for p in c[1:])

    def test_second_class(self):
        # c_2 = (ch_1^2 - 2 ch_2) / 2
        c = chern_from_characters({1: chp(1), 2: chp(2)}, 2)
        assert c[2] == (chp(1) * chp(1) - chp(2) * 2) * Fraction(1, 2)

    def test_round_trip_deep(self):
        ch = {
            1: chp(1),
            2: chp(2) * Fraction(1, 3),
            4: chp(1) * chp(3),
            5: chp(5) * (-2),
            6: chp(2) * chp(2),
        }
        back = characters_from_chern(chern_from_characters(ch, 6), 6)
        for k in range(1, 7):
            assert back.get(k, Poly()) == ch.get(k, Poly())

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(-4, 4), min_size=6, max_size=6))
    def test_round_trip_scalars(self, coeffs):
        ch = {k: Poly.const(c) for k, c in enumerate(coeffs, start=1) if c}
        back = characters_from_chern(chern_from_characters(ch, 6), 6)
        assert back == ch

    def test_depth_zero(self):
        assert chern_from_characters({1: chp(1), 2: chp(2)}, 0) == [Poly.const(1)]
        assert characters_from_chern(chern_from_characters({1: chp(1)}, 0), 0) == {}

    def test_only_the_second_character(self):
        # the argument is -ch_2 t^2, so c_2j = (-ch_2)^j / j! and odd classes vanish
        c = chern_from_characters({2: chp(2)}, 6)
        even = [(-chp(2)) ** j * Fraction(1, factorial(j)) for j in range(4)]
        assert c == [even[k // 2] if k % 2 == 0 else Poly() for k in range(7)]

    @pytest.mark.parametrize(
        "ch", [{2: chp(2)}, {3: chp(3) * Fraction(-1, 2)}, {2: chp(2), 5: chp(1) * chp(4)}]
    )
    def test_round_trip_sparse(self, ch):
        """Characters with gaps in their degrees come back through the
        logarithm."""
        assert characters_from_chern(chern_from_characters(ch, 6), 6) == ch

    def test_leading_one_required(self):
        with pytest.raises(ValueError):
            characters_from_chern([Poly.const(2)], 3)


class TestNormalClasses:
    def test_single_factor_vanishes(self):
        nb = normal_bundle(ComponentLabel("BU_Z", (5,)), Z, 3)
        assert nb.summands == {}
        assert nb.zero_is_bundle

    def test_two_factors(self):
        nb = normal_bundle(ComponentLabel("BU_Z", (2, 3)), Z2, 3)
        assert nb.weights() == [(-1, 1), (1, -1)]
        assert nb.summands[(1, -1)].rank == -6
        assert nb.summands[(-1, 1)].rank == -6
        # dual of factor 2 tensor factor 1 at weight e1 - e2, negated
        assert nb.summands[(1, -1)].ch[1] == chp(1, 1) * (-3) + chp(1, 2) * 2
        assert nb.is_real()

    def test_module_weights_and_ranks(self):
        comp = ComponentLabel("BO_Z", (2, 2, 3))
        vs = VarSet(("z1", "z2"))
        nb = normal_bundle_module(comp, vs, 3)
        got = {w: s.rank for w, s in nb.summands.items()}
        assert got == {
            (1, 1): -4, (1, -1): -4, (-1, 1): -4, (-1, -1): -4,
            (1, 0): -6, (-1, 0): -6, (0, 1): -6, (0, -1): -6,
            (2, 0): -1, (-2, 0): -1, (0, 2): -1, (0, -2): -1,
        }
        assert nb.is_real()
        assert nb.weight_zero().is_zero()

    def test_module_symplectic_uses_symmetric_square(self):
        comp = ComponentLabel("BSp_2Z", (2, 2, 4))
        vs = VarSet(("z1", "z2"))
        nb = normal_bundle_module(comp, vs, 3)
        assert nb.summands[(2, 0)].rank == -3  # (r^2 + r)/2 at r = 2
        assert nb.summands[(1, 0)].rank == -8

    def test_module_single_space_vanishes(self):
        # no unitary factor, so nothing asks for the module factor's rank
        nb = normal_bundle_module(ComponentLabel("BO_Z", (3,)), VarSet(()), 3)
        assert nb.weights() == []

    def test_module_kills_odd_module_characters(self):
        comp = ComponentLabel("BO_Z", (2, 2, 3))
        nb = normal_bundle_module(comp, VarSet(("z1", "z2")), 3)
        s = nb.summands[(1, 0)]
        assert s.ch[1] == chp(1, 1) * (-3)
        assert s.ch[2] == (chp(2, 1) * 3 + chp(2, 0) * 2) * (-1)


def cropped(x, depth):
    """x with coefficient terms of weighted degree above 2 * depth dropped."""
    return x.map_coefficients(
        lambda p: Poly(
            {m: c for m, c in p.items() if sum(var_weight(v) * e for v, e in m) <= 2 * depth}
        )
    )


class TestEulerClasses:
    def test_single_line(self):
        # a line with first character c: ch_k = c^k / k!
        line = Summand(1, {k: chp(1) ** k / factorial(k) for k in (1, 2, 3)})
        E = KClass(Z, {(1,): line}, 3)
        e = equivariant_euler(E)
        assert e.den == ()
        assert dict(e.num.terms) == {(1,): Fraction(1), (0,): chp(1)}

    def test_poles_only_on_weight_hyperplanes(self):
        nb = normal_bundle(ComponentLabel("BU_Z", (1, 1)), Z2, 3)
        e = equivariant_euler(nb.negate())
        assert {form.coeffs for form, _ in e.den} == {(1, -1)}

    def test_multiplicative_shared_weight(self):
        depth = 3
        E = KClass(Z, {(1,): Summand(2, {1: chp(1), 2: chp(2), 3: chp(3)})}, depth)
        F = KClass(
            Z,
            {(1,): Summand(-1, {1: chp(1) * 3, 2: chp(1) * chp(1), 3: chp(1) * chp(2)})},
            depth,
        )
        lhs = cropped(equivariant_euler(E.add(F)), depth)
        rhs = cropped(equivariant_euler(E) * equivariant_euler(F), depth)
        assert series_equal(lhs, rhs)
        assert not series_equal(lhs, rhs + one_on(Z))

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(-2, 3),
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    )
    def test_multiplicative_random(self, rank, ca, cb):
        depth = 3
        cha = {k: chp(k) * c for k, c in enumerate(ca, start=1) if c}
        chb = {k: chp(k) * c for k, c in enumerate(cb, start=1) if c}
        E = KClass(Z, {(1,): Summand(2, cha)}, depth)
        F = KClass(Z, {(1,): Summand(rank, chb), (2,): Summand(1, cha)}, depth)
        lhs = cropped(equivariant_euler(E.add(F)), depth)
        rhs = cropped(equivariant_euler(E) * equivariant_euler(F), depth)
        assert series_equal(lhs, rhs)

    def test_inverse_law(self):
        depth = 3
        E = KClass(
            Z,
            {(1,): Summand(2, {1: chp(1), 2: chp(2)}), (2,): Summand(-1, {1: chp(1)})},
            depth,
        )
        prod = equivariant_euler(E) * equivariant_euler(E.negate())
        assert series_equal(cropped(prod, depth), one_on(Z))

    def test_inversion_needs_vanishing_weight_zero(self):
        E = KClass(Z, {(0,): Summand(1, {1: chp(1)})}, 2, zero_is_bundle=True)
        with pytest.raises(ValueError):
            equivariant_euler(E.negate())

    def test_weight_zero_must_be_bundle(self):
        E = KClass(Z, {(0,): Summand(1, {1: chp(1)})}, 2)
        with pytest.raises(ValueError):
            equivariant_euler(E)
        E = KClass(Z, {(0,): Summand(-1, {1: chp(1)})}, 2, zero_is_bundle=True)
        with pytest.raises(ValueError):
            equivariant_euler(E)

    def test_inverse_euler_is_signed_square_of_sqrt(self):
        depth = 4
        nb = normal_bundle(ComponentLabel("BU_Z", (1, 1)), Z2, depth)
        lhs = equivariant_euler(nb.negate())
        sq = sqrt_equivariant_euler(oriented(nb.negate()))
        rhs = (sq * sq) * Fraction(-1)  # (-1)^(r1 r2) at ranks (1,1)
        assert series_equal(lhs, rhs)
        assert not series_equal(lhs, rhs + one_on(Z2))


def self_dual_sample(depth):
    return KClass(
        Z,
        {
            (1,): Summand(2, {1: chp(1), 2: chp(2)}),
            (-1,): Summand(2, {1: -chp(1), 2: chp(2)}),
            (2,): Summand(-1, {1: chp(1), 2: chp(1) * chp(1)}),
            (-2,): Summand(-1, {1: -chp(1), 2: chp(1) * chp(1)}),
        },
        depth,
        orientation=OrientationData(),
    )


U1, U2 = Poly.variable("u1"), Poly.variable("u2")
LINE_VALUES = [U1, U1 + U2 * 3, U1 * U1 - U2 * Fraction(1, 2), U1 * U2 * U2 + U1]


class TestDualLines:
    """The dual of a line 1+s is (1+s)^-1, cut off at the filtration
    depth, and `KClass.is_real` pairs each weight with its dual."""

    @pytest.mark.parametrize("cutoff", [0, 1, 3])
    @pytest.mark.parametrize("s", LINE_VALUES)
    def test_dual_line_inverts_the_line(self, s, cutoff):
        ((sign, dual),) = Summand(1, lines=[(1, s)]).dualize(cutoff).lines
        assert sign == 1
        assert ((1 + s) * (1 + dual)).truncate_degree(cutoff) == Poly.const(1)

    @pytest.mark.parametrize("cutoff", [0, 2, 4])
    def test_dualizing_twice_is_the_identity(self, cutoff):
        x = Summand(0, {1: chp(1), 2: chp(2)}, [(1, LINE_VALUES[1]), (-1, LINE_VALUES[3])])
        twice = x.dualize(cutoff).dualize(cutoff)
        assert (twice.rank, twice.ch) == (x.rank, x.ch)
        assert twice.lines == tuple((sg, s.truncate_degree(cutoff)) for sg, s in x.lines)

    def test_dualizing_lines_needs_a_cutoff(self):
        with pytest.raises(ValueError, match="cutoff"):
            Summand(1, lines=[(1, U1)]).dualize()

    def test_is_real_pairs_mutually_dual_lines(self):
        depth = 3
        line = Summand(1, {1: chp(1), 2: chp(2)}, [(1, U1 + U1 * U2)])
        dual = line.dualize(depth)
        assert KClass(Z, {(1,): line, (-1,): dual}, depth).is_real()
        for summands in (
            {(1,): line},
            {(1,): line, (-1,): Summand(2, dual.ch)},
            {(1,): line, (-1,): line},
        ):
            assert not KClass(Z, summands, depth).is_real()


class TestSqrtEuler:
    def test_square_law(self):
        E = self_dual_sample(3)
        sq = sqrt_equivariant_euler(E)
        e = equivariant_euler(E)
        # total rank 2, so the square differs from e_z by (-1)^1
        assert series_equal(sq * sq, e * Fraction(-1))
        assert not series_equal(sq * sq, e)

    def test_opposite_orientation_negates(self):
        E = self_dual_sample(3)
        assert series_equal(
            sqrt_equivariant_euler(opposite(E)),
            sqrt_equivariant_euler(E) * Fraction(-1),
        )

    def test_chamber_independence(self):
        # odd summand ranks, so flipped chambers exercise the sign correction
        nb = oriented(normal_bundle(ComponentLabel("BU_Z", (1, 1)), Z2, 3).negate())
        ref = sqrt_equivariant_euler(nb)
        for chamber in ((1, 0), (2, 1), (-1, 0), (0, 1)):
            assert series_equal(ref, sqrt_equivariant_euler(nb, chamber=chamber))

    def test_chamber_independence_module(self):
        comp = ComponentLabel("BO_Z", (2, 3))
        nb = oriented(normal_bundle_module(comp, Z, 3))
        assert series_equal(
            sqrt_equivariant_euler(nb, chamber=(1,)),
            sqrt_equivariant_euler(nb, chamber=(-1,)),
        )

    def test_wall_chamber_rejected(self):
        nb = oriented(normal_bundle(ComponentLabel("BU_Z", (1, 1)), Z2, 2).negate())
        with pytest.raises(ValueError):
            sqrt_equivariant_euler(nb, chamber=(1, 1))

    def test_chamber_must_be_one_int_per_coordinate(self):
        nb = oriented(normal_bundle(ComponentLabel("BU_Z", (1, 1)), Z2, 2).negate())
        for bad in ((1,), (1, 0, 7), (1.5, 0), (True, 0), "ab", 5):
            with pytest.raises(ValueError, match="chamber"):
                sqrt_equivariant_euler(nb, chamber=bad)
        assert series_equal(sqrt_equivariant_euler(nb, chamber=[2, 1]), sqrt_equivariant_euler(nb))

    def test_unoriented_rejected(self):
        nb = normal_bundle(ComponentLabel("BU_Z", (1, 1)), Z2, 2).negate()
        with pytest.raises(ValueError):
            sqrt_equivariant_euler(nb)

    def test_nonreal_rejected(self):
        E = KClass(Z, {(1,): Summand(1, {1: chp(1)})}, 2, orientation=OrientationData())
        with pytest.raises(ValueError):
            sqrt_equivariant_euler(E)


ZW = VarSet(("z", "w"))
SWAP_BLOCKS = (("z",), ("w",))


def swap_sides(euler_of, E, comp, a_poly, trunc):
    """Both sides of the translation/Euler swap identity, ready to compare.

    Working orders are boosted by the denominator degrees so both sides are
    exact for net total degree up to trunc after clearing and re-expansion.
    """
    e = euler_of(E)
    den_e = e.den_degree()
    ez = e.substitute_linear(ZW, {"z": {"z": 1}}, SWAP_BLOCKS)
    ezw = e.substitute_linear(ZW, {"z": {"z": 1, "w": 1}}, SWAP_BLOCKS)
    ta = translate(HomologyElement(comp, a_poly), ["w"], trunc + den_e)
    ta = ta.substitute_linear(ZW, {"w": {"w": 1}})
    lhs = cap_localized(LocalizedSeries(ta, (), SWAP_BLOCKS) * ez, comp)
    inner = cap_localized(ezw * a_poly, comp)
    num = translate_series(inner.num.with_order(2 * trunc + den_e), comp, ["w"])
    rhs = iota_expand(
        LocalizedSeries(num, inner.den, SWAP_BLOCKS, inner.block_bounds),
        SWAP_BLOCKS,
        trunc,
    )
    return lhs, rhs


class TestSwapIdentity:
    """Translating a class past a localized Euler factor.

    The test classes are assembled from tautological data so that each
    summand's characters really transform with the declared weight, and the
    character depth always covers the weighted degree of the homology input
    plus the truncation order; outside those constraints the identity has
    no reason to hold in a truncated model (see the inconsistency test).
    """

    def test_homological(self):
        comp = ComponentLabel("BU_Z", (2,))
        trunc = 4
        a = sp(1)
        depth = 1 + trunc
        taut = tautological_summand(comp, None, depth)
        square = tensor_summand(taut, taut, depth)
        invariant = tensor_summand(taut.dualize(), taut, depth)
        E = KClass(
            Z,
            {(0,): invariant, (1,): taut, (2,): square.negate()},
            depth,
            zero_is_bundle=True,
        )
        lhs, rhs = swap_sides(equivariant_euler, E, comp, a, trunc)
        assert series_equal(lhs, rhs)
        assert_golden("swap_homological", E, lhs, rhs)
        assert not series_equal(lhs, rhs + one_on(ZW, SWAP_BLOCKS))

    def test_homological_deeper_input(self):
        comp = ComponentLabel("BU_Z", (1,))
        trunc = 3
        a = sp(1) * sp(2) + sp(3)
        depth = 3 + trunc
        taut = tautological_summand(comp, None, depth)
        E = KClass(
            Z,
            {(1,): taut, (2,): tensor_summand(taut, taut, depth).negate()},
            depth,
        )
        lhs, rhs = swap_sides(equivariant_euler, E, comp, a, trunc)
        assert series_equal(lhs, rhs)
        assert_golden("swap_homological_deeper_input", E, lhs, rhs)
        assert not series_equal(lhs, rhs + one_on(ZW, SWAP_BLOCKS))

    def test_real(self):
        comp = ComponentLabel("BU_Z", (1,))
        trunc = 3
        a = sp(1)
        depth = 1 + trunc
        taut = tautological_summand(comp, None, depth)
        square = tensor_summand(taut, taut, depth)
        E = KClass(
            Z,
            {
                (1,): taut,
                (-1,): taut.dualize(),
                (2,): square.negate(),
                (-2,): square.dualize().negate(),
            },
            depth,
            orientation=OrientationData(),
        )
        lhs, rhs = swap_sides(sqrt_equivariant_euler, E, comp, a, trunc)
        assert series_equal(lhs, rhs)
        assert_golden("swap_real", E, lhs, rhs)
        assert not series_equal(lhs, rhs + one_on(ZW, SWAP_BLOCKS))

    def test_right_side_translates_only_its_window(self, monkeypatch):
        """The right side of the deeper-input swap caps only the raw
        coefficients inside its w-cap, translates each only to the w-degree
        the cap leaves, and equals capping and translating every
        coefficient at once."""
        comp, trunc, depth = ComponentLabel("BU_Z", (1,)), 3, 6
        taut = tautological_summand(comp, None, depth)
        E = KClass(Z, {(1,): taut, (2,): tensor_summand(taut, taut, depth).negate()}, depth)
        a = sp(1) * sp(2) + sp(3)
        inputs, capped, translated = [], {}, []
        translated_by = homology._translated

        def cap_spy(x, component):
            inputs.append(x)
            return charclass.cap_localized(x, component)

        def contract_spy(p, component):
            capped[id(p)] = out = contract_poly(p, component)
            return out

        def translate_spy(factors, poly, room):
            # the left side translates ``a`` itself when it is read
            if poly is not a:
                translated.append((poly, room))
            return translated_by(factors, poly, room)

        monkeypatch.setattr(sys.modules[__name__], "cap_localized", cap_spy)
        monkeypatch.setattr(charclass, "contract_poly", contract_spy)
        monkeypatch.setattr(homology, "_translated", translate_spy)
        lhs, rhs = swap_sides(equivariant_euler, E, comp, a, trunc)
        monkeypatch.undo()
        assert series_equal(lhs, rhs)
        # neither side's expanded denominator has a form in w
        ((w_at, cap),) = _block_caps(rhs.varset, rhs.blocks, rhs.block_bounds, rhs.den)
        assert w_at == (1,) and cap == trunc
        inner = inputs[1]
        raw = inner.num.terms
        right = {e: capped[id(p)] for e, p in raw.items() if id(p) in capped}
        assert right and len(right) < len(raw)
        assert all(e[1] <= cap for e in right)
        # every translated coefficient is, by identity, the cap of one raw term
        at = {id(c): e for e, c in right.items()}
        order = 2 * trunc + equivariant_euler(E).den_degree()
        assert translated
        for p, t in translated:
            e = at[id(p)]
            assert t <= min(cap - e[1], order - sum(e))
        # the eager route: every coefficient capped, then translated by nest
        eager = inner.map_coefficients(lambda c: contract_poly(c, comp)).num
        num = translate_series_by_nest(eager.with_order(order), comp, ["w"])
        want = iota_expand(
            LocalizedSeries(num, inner.den, SWAP_BLOCKS, inner.block_bounds), SWAP_BLOCKS, trunc
        )
        assert (rhs.num, rhs.den, rhs.block_bounds) == (want.num, want.den, want.block_bounds)
        assert list(rhs.num.terms) == list(want.num.terms)

    def test_left_side_translates_only_its_window(self, monkeypatch):
        """The left side of the deeper-input swap translates nothing when
        built, and when compared translates its class only to w-degree
        trunc, the w-cap of the comparison, though it is asked for trunc
        plus the Euler class's pole degree; the sides still agree."""
        comp, trunc, depth = ComponentLabel("BU_Z", (1,)), 3, 6
        taut = tautological_summand(comp, None, depth)
        E = KClass(Z, {(1,): taut, (2,): tensor_summand(taut, taut, depth).negate()}, depth)
        a = sp(1) * sp(2) + sp(3)
        made = []
        translated_by = homology._translated

        def translate_spy(factors, poly, room):
            out = translated_by(factors, poly, room)
            if poly is a:
                made.append((room, out))
            return out

        monkeypatch.setattr(homology, "_translated", translate_spy)
        lhs, rhs = swap_sides(equivariant_euler, E, comp, a, trunc)
        assert not made
        assert series_equal(lhs, rhs)
        monkeypatch.undo()
        assert equivariant_euler(E).den_degree() > 0 and made
        assert all(room <= trunc for room, _ in made)
        assert {e for _, out in made for e in out} == {(k,) for k in range(trunc + 1)}

    def test_weight_inconsistent_data_breaks_it(self):
        # generator characters carry weight one; declaring them at weight
        # zero is unrepresentable data, and the identity must detect that
        comp = ComponentLabel("BU_Z", (1,))
        E = KClass(Z, {(0,): Summand(1, {1: chp(1)})}, 4, zero_is_bundle=True)
        lhs, rhs = swap_sides(equivariant_euler, E, comp, sp(1), 2)
        assert not series_equal(lhs, rhs)


NOT_INTEGERS = [2.5, 1.0, True, "2", Fraction(3, 2)]


class TestIntegerData:
    """Summand and KClass reject integer data that is not an int, as
    `kclass_from_obj` does, instead of cutting it with int()."""

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_summand_rank(self, bad):
        with pytest.raises(ValueError, match="rank"):
            Summand(bad, {})

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_character_index(self, bad):
        with pytest.raises(ValueError, match="character index"):
            Summand(1, {bad: chp(1, 1)})

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_line_sign(self, bad):
        with pytest.raises(ValueError, match="line sign"):
            Summand(1, {}, [(bad, Poly())])

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_kclass_weight(self, bad):
        with pytest.raises(ValueError, match="weight"):
            KClass(Z2, {(1, bad): Summand(1, {})}, 2)

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_kclass_depth(self, bad):
        with pytest.raises(ValueError, match="depth"):
            KClass(Z2, {(1, 0): Summand(1, {})}, bad)

    def test_kclass_flags(self):
        """A `zero_is_bundle` that is not a bool and an orientation that is
        not `OrientationData` raise at once, not in a later Euler class."""
        for bad in ("no", 0, 1, None):
            with pytest.raises(ValueError, match="zero_is_bundle"):
                KClass(Z, {(0,): Summand(1, {1: chp(1)})}, 2, zero_is_bundle=bad)
        for bad in ("yes", 1, (1, "lex-first-positive")):
            with pytest.raises(ValueError, match="orientation"):
                KClass(Z, {(1,): Summand(1, {1: chp(1)})}, 2, orientation=bad)

    def test_kclass_shape(self):
        """A summand that is not a `Summand`, a weight that is not a
        sequence, summands that are not a mapping and a torus that is not a
        `VarSet` raise ValueError at once."""
        s = Summand(1, {1: chp(1)})
        for args, what in (
            ((Z, {(1,): 5}), "Summand"),
            ((Z, {1: s}), "weight"),
            ((Z, [((1,), s)]), "mapping"),
            ((("z",), {(1,): s}), "VarSet"),
        ):
            with pytest.raises(ValueError, match=what):
                KClass(*args, 2)

    def test_summand_shape(self):
        """A `ch` that is not a mapping and `lines` that are not a sequence
        of (sign, value) pairs raise ValueError naming the field."""
        u = Poly.variable("u")
        with pytest.raises(ValueError, match="ch"):
            Summand(1, [(1, u)])
        for bad in (5, "ab", [(1,)], [(1, u, u)], [5]):
            with pytest.raises(ValueError, match="line"):
                Summand(1, None, bad)

    def test_pullback_matrix_shape(self):
        """One row per target coordinate, one entry per source coordinate."""
        XY = VarSet(("x", "y"))
        E = KClass(Z, {(1,): Summand(1, {1: chp(1)}), (2,): Summand(-1, {})}, 2)
        for bad in ([[1, 0, 0], [1]], [[1], [1], [1]], [[1], []], [[1]], []):
            with pytest.raises(ValueError, match="rows"):
                E.pullback_weights(bad, XY)
        assert E.pullback_weights([[1], [0]], XY).weights() == [(1, 0), (2, 0)]
        assert E.pullback_weights([[1], [1]], XY).weights() == [(1, 1), (2, 2)]
        folded = E.pullback_weights([[0], [0]], XY)
        assert folded.weights() == [(0, 0)] and folded.summands[(0, 0)].rank == 0

    def test_constructors_reject_what_readers_reject(self):
        """An orientation sign that is not the int +1 or -1, a convention
        that is not a string, a line sign other than +1 or -1 (even when
        the signs sum to the rank) and a line value that is neither a
        `Poly` nor an exact scalar; an exact scalar becomes a constant."""
        u = Poly.variable("u")
        for sign in (True, 1.0, 2):
            with pytest.raises(ValueError, match="orientation sign"):
                OrientationData(sign)
        with pytest.raises(ValueError, match="convention"):
            OrientationData(1, 5)
        with pytest.raises(ValueError, match="line signs"):
            Summand(2, None, [(2, u)])
        with pytest.raises(TypeError):
            Summand(1, None, [(1, "u")])
        with pytest.raises(TypeError):
            Summand(1, None, [(1, 0.5)])
        lines = Summand(0, None, [(1, 3), (-1, Fraction(1, 2))]).lines
        assert lines == ((1, Poly.const(3)), (-1, Poly.const(Fraction(1, 2))))
        assert all(type(s) is Poly for _, s in lines)


class TestSerialization:
    def test_round_trip(self):
        E = KClass(
            Z2,
            {
                (1, -1): Summand(2, {1: chp(1, 1), 2: chp(2, 2) * Fraction(1, 3)}),
                (0, 1): Summand(
                    -1,
                    {1: chp(1, 2) * (-2)},
                    None,
                ),
            },
            4,
            zero_is_bundle=False,
            orientation=OrientationData(-1),
        )
        obj = json.loads(json.dumps(kclass_to_obj(E)))
        back = kclass_from_obj(obj)
        assert back.varset == E.varset
        assert back.depth == E.depth
        assert back.zero_is_bundle == E.zero_is_bundle
        assert back.orientation.sign == -1
        assert back.weights() == E.weights()
        for w in E.weights():
            assert back.summands[w].rank == E.summands[w].rank
            assert back.summands[w].ch == E.summands[w].ch

    def test_round_trip_lines(self):
        u = Poly.variable("u")
        E = KClass(
            Z,
            {(1,): Summand(0, {1: chp(1)}, [(1, u), (-1, u * u)])},
            3,
        )
        obj = json.loads(json.dumps(kclass_to_obj(E)))
        back = kclass_from_obj(obj)
        assert back.summands[(1,)].lines == E.summands[(1,)].lines

    @pytest.mark.parametrize(
        "path, value",
        [
            (("summands", 0, "weight", 0), 1.5),
            (("summands", 1, "rank"), 1.5),
            (("summands", 1, "rank"), True),
            (("summands", 0, "ch", 0, 0), 1.7),
            (("summands", 0, "lines", 1, 0), -1.0),
            (("depth",), 2.5),
            (("degrees", 0), -2.5),
            (("orientation", "sign"), 1.0),
            (("vars",), None),
            (("degrees",), None),
            (("depth",), None),
            (("summands",), None),
            (("summands", 0, "weight"), None),
            (("summands", 0, "rank"), None),
            (("orientation", "sign"), None),
            (("zero_is_bundle",), "false"),
            (("zero_is_bundle",), 1),
            (("orientation", "convention"), 7),
            # signs that sum to the rank, one of them not +1 or -1
            (("summands", 0), {"weight": [1], "rank": 2, "lines": [[2, [[[["u", 1]], "1/1"]]]]}),
            (("vars",), "z"),
            (("vars", 0), 1),
            # a summand that is not an object, and summands that are not a list
            (("summands", 1), [1, 1]),
            (("summands", 1), 7),
            (("summands",), {"weight": [1], "rank": 0}),
            # nested lists given as scalars, or as lists that are not of pairs
            (("summands", 0, "lines"), 5),
            (("summands", 0, "lines"), [5]),
            (("summands", 0, "ch"), 5),
            (("summands", 0, "ch"), [5]),
            (("summands", 0, "weight"), 5),
        ],
    )
    def test_malformed_field_raises(self, path, value):
        # an integer field that is not an int is rejected, not cut to one;
        # a value of None stands for a missing key
        u = Poly.variable("u")
        E = KClass(
            Z,
            {
                (1,): Summand(0, {1: chp(1)}, [(1, u), (-1, u * u)]),
                (2,): Summand(1, {1: chp(1) * 2}),
            },
            3,
            orientation=OrientationData(-1),
        )
        obj = json.loads(json.dumps(kclass_to_obj(E)))
        assert kclass_to_obj(kclass_from_obj(obj)) == obj
        parent = obj
        for k in path[:-1]:
            parent = parent[k]
        if value is None:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        with pytest.raises(ValueError):
            kclass_from_obj(obj)

    def test_repeated_weight_adds(self):
        """Two summands of one weight add, as `Summand.add` adds them,
        and the other weights read as they are."""
        one = Summand(1, {1: chp(1)}, [(1, Poly.variable("u"))])
        two = Summand(2, {1: chp(1) * 3, 2: chp(2)}, [(1, Poly()), (1, Poly.variable("u"))])
        E = KClass(Z, {(1,): one, (2,): two}, 3)
        obj = json.loads(json.dumps(kclass_to_obj(E)))
        obj["summands"][1]["weight"] = [1]
        back = kclass_from_obj(obj)
        assert back.weights() == [(1,)]
        got, want = back.summands[(1,)], one.add(two)
        assert (got.rank, got.ch, got.lines) == (3, want.ch, want.lines)
        assert got.ch == {1: chp(1) * 4, 2: chp(2)}

    @pytest.mark.parametrize("name", sorted(NORMAL_CASES))
    def test_normal_class_golden(self, name):
        # the normal classes at depth 3, pinned in tests/golden/
        assert_golden_text(name, normal_text(name))

    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
    def test_golden_files_read_back(self, path):
        # every golden file parses through the JSON readers and writes
        # back byte for byte
        text = path.read_text()
        obj = json.loads(text)
        if "kclass" in obj:  # a swap identity
            back = {"kclass": kclass_to_obj(kclass_from_obj(obj["kclass"]))}
            for side in ("lhs", "rhs"):
                back[side] = series_to_dict(series_from_dict(obj[side]))
        elif "summands" in obj:  # a normal class
            back = kclass_to_obj(kclass_from_obj(obj))
        elif "component" in obj:  # a sum map
            back = {"component": obj["component"], "poly": poly_to_obj(poly_from_obj(obj["poly"]))}
        else:  # a translation
            back = series_to_dict(series_from_dict(obj))
        assert dump(back) == text

    @given(
        st.dictionaries(
            st.dictionaries(
                st.sampled_from(["s1", "s2", "ch1_1", "u"]), st.integers(1, 3), max_size=3
            ).map(lambda d: tuple(sorted(d.items()))),
            st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
            max_size=4,
        ).map(Poly)
    )
    @settings(max_examples=50, deadline=None)
    def test_poly_round_trip(self, p):
        assert poly_from_obj(json.loads(json.dumps(poly_to_obj(p)))) == p

    def test_poly_from_obj_canonicalizes(self):
        assert poly_from_obj([[[["s1", 0]], "1"]]) == Poly.const(1)
        assert poly_from_obj([[[["s1", 1], ["s1", 1]], "1"]]) == sp(1) ** 2
        for bad in (-1, 1.5, "2"):
            with pytest.raises(ValueError):
                poly_from_obj([[[["s1", bad]], "1"]])
        for bad in (1.5, 0.1, 2):
            # a JSON number would pass for the decimal it prints as
            with pytest.raises(ValueError):
                poly_from_obj([[[["s1", 1]], bad]])
        for bad in ([[[[None, 1]], "1/1"]], [[[[5, 2]], "3/1"]]):
            # a name that is not a string is not made one
            with pytest.raises(ValueError):
                poly_from_obj(bad)
