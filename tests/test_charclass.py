"""Weight-decomposed classes: Euler series, square roots, swap identities."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    line_summand,
    normal_bundle,
    normal_bundle_module,
    sqrt_equivariant_euler,
    tautological_summand,
    tensor_summand,
    truncate_coefficients,
)
from vertexalg.homology import (
    ComponentLabel,
    HomologyElement,
    ch_name,
    translate,
    translate_series,
    var_weight,
)
from vertexalg.poly import Poly, poly_from_obj, poly_to_obj
from vertexalg.series import (
    INF,
    LocalizedSeries,
    TruncSeries,
    VarSet,
    iota_expand,
    series_equal,
)

Z = VarSet(("z",))
Z2 = VarSet(("z1", "z2"))


def chp(k, factor=None):
    return Poly.variable(ch_name(k, factor))


def sp(k):
    return Poly.variable("s%d" % k)


class _CohomologyWeights:
    """Weighted-degree lookup for truncating coefficient polynomials."""

    def get(self, name, default=1):
        return var_weight(name)


CH_W = _CohomologyWeights()


def oriented(E, sign=1):
    return KClass(E.varset, E.summands, E.depth, E.zero_is_bundle, OrientationData(sign))


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


class TestEulerClasses:
    def test_single_line(self):
        E = KClass(Z, {(1,): line_summand(chp(1), 3)}, 3)
        e = equivariant_euler(E)
        assert e.den == ()
        assert dict(e.num.terms) == {(1,): Fraction(1), (0,): chp(1)}

    def test_poles_only_on_weight_hyperplanes(self):
        nb = normal_bundle(ComponentLabel("BU_Z", (1, 1)), Z2, 3)
        e = equivariant_euler(nb, invert=True)
        assert {form.coeffs for form, _ in e.den} == {(1, -1)}

    def test_multiplicative_shared_weight(self):
        depth = 3
        E = KClass(Z, {(1,): Summand(2, {1: chp(1), 2: chp(2), 3: chp(3)})}, depth)
        F = KClass(
            Z,
            {(1,): Summand(-1, {1: chp(1) * 3, 2: chp(1) * chp(1), 3: chp(1) * chp(2)})},
            depth,
        )
        lhs = truncate_coefficients(equivariant_euler(E.add(F)), 2 * depth, CH_W)
        rhs = truncate_coefficients(
            equivariant_euler(E) * equivariant_euler(F), 2 * depth, CH_W
        )
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
        lhs = truncate_coefficients(equivariant_euler(E.add(F)), 2 * depth, CH_W)
        rhs = truncate_coefficients(
            equivariant_euler(E) * equivariant_euler(F), 2 * depth, CH_W
        )
        assert series_equal(lhs, rhs)

    def test_inverse_law(self):
        depth = 3
        E = KClass(
            Z,
            {(1,): Summand(2, {1: chp(1), 2: chp(2)}), (2,): Summand(-1, {1: chp(1)})},
            depth,
        )
        prod = equivariant_euler(E) * equivariant_euler(E, invert=True)
        assert series_equal(truncate_coefficients(prod, 2 * depth, CH_W), one_on(Z))

    def test_inversion_needs_vanishing_weight_zero(self):
        E = KClass(Z, {(0,): Summand(1, {1: chp(1)})}, 2, zero_is_bundle=True)
        with pytest.raises(ValueError):
            equivariant_euler(E, invert=True)

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
        lhs = equivariant_euler(nb, invert=True)
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
            sqrt_equivariant_euler(E.opposite()),
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
        assert not series_equal(lhs, rhs + one_on(ZW, SWAP_BLOCKS))

    def test_weight_inconsistent_data_breaks_it(self):
        # generator characters carry weight one; declaring them at weight
        # zero is unrepresentable data, and the identity must detect that
        comp = ComponentLabel("BU_Z", (1,))
        E = KClass(Z, {(0,): Summand(1, {1: chp(1)})}, 4, zero_is_bundle=True)
        lhs, rhs = swap_sides(equivariant_euler, E, comp, sp(1), 2)
        assert not series_equal(lhs, rhs)


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
