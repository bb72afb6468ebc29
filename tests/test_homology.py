"""Homology models: components, cap products, translation, pushforwards."""

import copy
import pickle
import random
import re
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import poly_reference as ref
from test_poly import terms_built
from golden_outputs import (
    SUM_MAP_CASES,
    TRANSLATE_CASES,
    assert_golden_text,
    sum_map_text,
    translate_text,
)
from vertexalg import charclass, homology
from vertexalg.charclass import KClass
from vertexalg.homology import (
    ComponentLabel,
    HomologyElement,
    cap_poly,
    contract_poly,
    contract_with,
    involution_dual,
    pairing_plan,
    parse_ch,
    parse_s,
    pushforward_substitute,
    s_name,
    sum_map_product,
    tensor,
    translate,
    translate_series,
    var_weight,
)
from vertexalg.poly import (
    MAX_EXP,
    Poly,
    _make,
    check_guards,
    key_fields,
    shift_name,
    sum_of_products,
)
from vertexalg.series import (
    LazySeries,
    LinearForm,
    LocalizedSeries,
    TruncSeries,
    VarSet,
    nest,
    series_equal,
)
from vertexalg.structures import compare_series

BU1 = ComponentLabel("BU_Z", (1,))
BU3 = ComponentLabel("BU_Z", (3,))


def sv(k, factor=None):
    return Poly.variable(s_name(k, factor))


def chv(k, factor=None):
    name = "ch%d" % k if factor is None else "ch%d_%d" % (k, factor)
    return Poly.variable(name)


# -- reference cap: one derivative per exponent unit --------------------------

_CH_RE = re.compile(r"ch(\d+)(?:_(\d+))?\Z")


def cap_by_derivatives(ch_poly, poly, component):
    """cap_poly as repeated Poly.diff, the definition the closed form follows."""
    out = Poly()
    for mono, coef in ch_poly.items():
        acted = poly * coef
        for gen, e in mono:
            if acted.is_zero():
                break
            got = parse_ch(gen)
            if got is None:
                raise ValueError("bad character generator %r" % gen)
            k, factor = got
            if k == 0:
                acted = acted * (Fraction(component.rank(factor)) ** e)
                continue
            target = s_name(k, factor)
            for _ in range(e):
                acted = acted.diff(target)
        out = out + acted
    return out


def contract_by_derivatives(p, component):
    """contract_poly by splitting each monomial and capping with the reference."""
    out = Poly()
    for mono, coef in p.items():
        chpart = []
        spart = []
        for gen, e in mono:
            (chpart if _CH_RE.fullmatch(gen) else spart).append((gen, e))
        base = Poly({tuple(spart): coef})
        if chpart:
            base = cap_by_derivatives(Poly({tuple(chpart): 1}), base, component)
        out = out + base
    return out


# (component, homology generators, cohomology generators)
CAP_CASES = [
    # three unitary factors, the second of rank 0
    (
        ComponentLabel("BU_Z", (2, 0, 1)),
        ["s1_1", "s2_1", "s3_1", "s1_2", "s2_2", "s1_3"],
        ["ch0_1", "ch1_1", "ch2_1", "ch0_2", "ch1_2", "ch2_2", "ch0_3", "ch1_3"],
    ),
    (ComponentLabel("BU_Z", (0,)), ["s1", "s2", "s3"], ["ch0", "ch1", "ch2", "ch3"]),
    # ch0_0 is the module rank; odd characters act as zero on factor 0
    (
        ComponentLabel("BO_Z", (1, 3)),
        ["s1_1", "s2_1", "s2_0", "s4_0"],
        ["ch0_0", "ch1_0", "ch2_0", "ch4_0", "ch0_1", "ch1_1", "ch2_1"],
    ),
]


def polys(gens, max_terms):
    monos = st.dictionaries(st.sampled_from(gens), st.integers(1, 4), max_size=3).map(
        lambda d: tuple(sorted(d.items()))
    )
    coefs = st.builds(
        Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 3)
    )
    return st.dictionaries(monos, coefs, max_size=max_terms).map(Poly)


class TestComponents:
    def test_model_validation(self):
        with pytest.raises(ValueError):
            ComponentLabel("BU", (1,))
        with pytest.raises(ValueError):
            ComponentLabel("BSp_2Z", (3,))
        ComponentLabel("BSp_2Z", (4,))
        ComponentLabel("BO_Z", (1, 2, 3))  # two unitary factors, module rank 3
        # retired models
        with pytest.raises(ValueError, match="unknown model"):
            ComponentLabel("BG_classical", ("so", 5))
        with pytest.raises(ValueError, match="unknown model"):
            ComponentLabel("Torus", (1,))

    @pytest.mark.parametrize(
        "model, index",
        [
            ("BU_Z", (True,)),  # was accepted, and equal to ("BU_Z", (1,))
            ("BU_Z", (1, 2.0)),
            ("BO_Z", (False,)),
            ("BSp_2Z", (True, 2)),
        ],
    )
    def test_index_entries_are_ints(self, model, index):
        with pytest.raises(ValueError, match="must be an integer"):
            ComponentLabel(model, index)

    def test_one_label_per_component(self):
        """Labels are shared, so they cannot change, and an index entry
        that only compares equal to a rank never reads its label."""
        one = ComponentLabel("BU_Z", (1,))
        assert ComponentLabel("BU_Z", [1]) is one and BU1 is one
        for bad in ((True,), (1.0,)):
            with pytest.raises(ValueError, match="must be an integer"):
                ComponentLabel("BU_Z", bad)
        for name in ("model", "index", "checked"):
            with pytest.raises(AttributeError):
                setattr(one, name, getattr(one, name))
        assert (one.model, one.index) == ("BU_Z", (1,))
        a = HomologyElement(ComponentLabel("BO_Z", (1, 3)), sv(2, 0))
        for copied in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert copied.component is a.component and copied == a

    def test_variable_scope(self):
        with pytest.raises(ValueError):
            HomologyElement(BU1, Poly.variable("s2_1"))
        prod = ComponentLabel("BU_Z", (1, 2))
        HomologyElement(prod, Poly.variable("s2_1"))
        with pytest.raises(ValueError):
            HomologyElement(prod, Poly.variable("s2"))
        bo = ComponentLabel("BO_Z", (3,))
        HomologyElement(bo, Poly.variable("s4"))
        with pytest.raises(ValueError):
            HomologyElement(bo, Poly.variable("s3"))

    def test_generator_verdict_is_per_component(self):
        # the same names, accepted first on components that have them, are
        # still rejected on components that lack their factor or parity
        prod = ComponentLabel("BU_Z", (2, 2))
        HomologyElement(prod, Poly.variable("s3_2") * Poly.variable("s1_1"))
        HomologyElement(prod, Poly.variable("s3_2"))
        for comp in (ComponentLabel("BU_Z", (2,)), ComponentLabel("BO_Z", (1, 3))):
            with pytest.raises(ValueError, match="s3_2"):
                HomologyElement(comp, Poly.variable("s3_2"))
        HomologyElement(ComponentLabel("BO_Z", (1, 3)), Poly.variable("s3_1"))
        with pytest.raises(ValueError, match="s3_2"):
            HomologyElement(ComponentLabel("BO_Z", (1, 3)), Poly.variable("s3_2"))
        HomologyElement(BU1, Poly.variable("s3"))
        bo = ComponentLabel("BO_Z", (2,))
        HomologyElement(bo, Poly.variable("s2"))
        with pytest.raises(ValueError, match="s3"):
            HomologyElement(bo, Poly.variable("s2") * Poly.variable("s3"))
        with pytest.raises(ValueError, match="s3"):
            HomologyElement(bo, Poly.variable("s3"))
        assert parse_s("s3_2") == (3, 2) and parse_s("s3_2") == (3, 2)
        assert parse_s("s3") == (3, None) and parse_s("X3") is None

    def test_rank_checks_factor_key(self):
        prod = ComponentLabel("BU_Z", (1, 2))
        assert (prod.rank(1), prod.rank(2)) == (1, 2)
        for key in (None, 0, 3):
            with pytest.raises(ValueError):
                prod.rank(key)
        assert ComponentLabel("BO_Z", (1, 3)).rank(0) == 3
        bo = ComponentLabel("BO_Z", (3,))
        assert bo.rank() == 3
        with pytest.raises(ValueError):
            bo.rank(0)

    def test_degrees(self):
        a = HomologyElement(BU1, sv(1) * sv(2))
        assert a.degree() == 6
        assert var_weight("s5") == 10
        mixed = HomologyElement(BU1, sv(1) + sv(2))
        assert not mixed.is_homogeneous()
        assert mixed.degree() is None


class TestCap:
    def test_first_character_on_first_generator(self):
        assert cap_poly(chv(1), sv(1), BU1) == Poly.const(1)

    def test_rank_scalar(self):
        assert cap_poly(chv(0), sv(2), BU3) == sv(2) * 3

    def test_product_of_characters(self):
        assert cap_poly(chv(1) * chv(2), sv(1) * sv(2), BU1) == Poly.const(1)

    def test_module_action(self):
        # capping twice equals capping with the product
        a = sv(1) ** 2 * sv(2) + sv(4)
        c1 = chv(1) + chv(0) * 2
        c2 = chv(2) * chv(1) - chv(0)
        assert cap_poly(c1 * c2, a, BU3) == cap_poly(c1, cap_poly(c2, a, BU3), BU3)

    @given(st.integers(-3, 3), st.integers(0, 2), st.integers(0, 2))
    @settings(max_examples=25, deadline=None)
    def test_module_action_random(self, r, e1, e2):
        comp = ComponentLabel("BU_Z", (r,))
        a = sv(1) ** e1 * sv(2) ** e2 + sv(3) * e1
        c1 = chv(1) * e1 + chv(0)
        c2 = chv(2) + chv(1) * e2
        assert cap_poly(c1 * c2, a, comp) == cap_poly(c1, cap_poly(c2, a, comp), comp)

    def test_factorwise_action(self):
        comp = ComponentLabel("BU_Z", (2, 5))
        got = cap_poly(chv(1, 2) * chv(0, 1), sv(1, 1) * sv(1, 2), comp)
        assert got == sv(1, 1) * 2

    def test_module_factor_rank(self):
        comp = ComponentLabel("BO_Z", (1, 3))
        a = HomologyElement(comp, sv(2, 0) * sv(1, 1))
        assert cap_poly(chv(0, 0), a.poly, comp) == a.poly * 3
        assert cap_poly(chv(2, 0), a.poly, comp) == sv(1, 1)
        # odd characters act as zero on the orthogonal alphabet
        assert cap_poly(chv(1, 0), a.poly, comp) == Poly()

    def test_character_scope(self):
        # a character of a factor the component lacks does not act
        with pytest.raises(ValueError):
            cap_poly(Poly.variable("ch1_2"), sv(1), BU1)
        assert cap_poly(chv(2), sv(2) * sv(1), BU1) == sv(1)

    def test_pairing_plan_resolves_once(self, monkeypatch):
        """One `pairing_plan` works out each generator's act and each
        support's comask once, however many contractions read it."""
        acted, masked = [], []
        comask = homology._comask
        monkeypatch.setattr(
            homology, "_comask", lambda acts, sup: masked.append(sup) or comask(acts, sup)
        )
        act = partial(homology._act, BU3)
        comasks, lowerings = pairing_plan(lambda shift: acted.append(shift) or act(shift), True)
        a = sv(1) ** 2 * sv(2) + sv(4)
        ps = [
            (chv(1) + chv(0) * 2) * a,
            chv(2) * chv(1) * a + sv(3),
            (chv(1) - chv(2)) * sv(2) * sv(1),
        ]
        want = [contract_poly(p, BU3) for p in ps]
        assert all(want)
        for _ in range(3):
            assert [contract_with(p, comasks[p.support()], lowerings) for p in ps] == want
        fields = {shift for p in ps for shift, _ in key_fields(p.support())}
        assert sorted(acted) == sorted(fields)
        assert sorted(masked) == sorted({p.support() for p in ps}) and len(masked) == 3


class TestClosedFormCap:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_contract_matches_derivatives(self, data):
        comp, hgens, cgens = data.draw(st.sampled_from(CAP_CASES))
        p = data.draw(polys(hgens + cgens, 10))
        assert contract_poly(p, comp) == contract_by_derivatives(p, comp)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_cap_matches_derivatives(self, data):
        comp, hgens, cgens = data.draw(st.sampled_from(CAP_CASES))
        ch = data.draw(polys(cgens, 4))
        a = data.draw(polys(hgens, 8))
        assert cap_poly(ch, a, comp) == cap_by_derivatives(ch, a, comp)

    def test_falling_factorial(self):
        comp = ComponentLabel("BU_Z", (2,))
        assert cap_poly(chv(2) ** 2, sv(2) ** 5 * sv(1), comp) == sv(2) ** 3 * sv(1) * 20
        assert contract_poly(chv(2) ** 3 * sv(2) ** 2, comp) == Poly()

    @pytest.mark.parametrize(
        "gen, comp",
        [
            ("x1", BU1),  # a name in neither alphabet
            ("chx", BU1),  # unparsable character name
            ("xq", BU1),
            ("ch1", ComponentLabel("BO_Z", (1, 3))),  # unsuffixed on a product
            ("ch0", ComponentLabel("BU_Z", (1, 2))),  # rank of an unnamed factor
            # characters of factors the component lacks
            ("ch0_0", ComponentLabel("BU_Z", (1, 2))),
            ("ch0_3", ComponentLabel("BU_Z", (1, 2))),
            ("ch1_3", ComponentLabel("BU_Z", (1, 2))),
        ],
    )
    def test_cap_rejects(self, gen, comp):
        with pytest.raises(ValueError):
            cap_poly(Poly.variable(gen), sv(1, 1), comp)

    @pytest.mark.parametrize(
        "gen, comp",
        [("x1", BU1), ("ch1", ComponentLabel("BO_Z", (1, 3)))],
    )
    def test_contract_rejects(self, gen, comp):
        with pytest.raises(ValueError):
            contract_poly(Poly.variable(gen) * sv(1), comp)


    @pytest.mark.parametrize(
        "comps",
        [
            (BU1, ComponentLabel("BU_Z", (2,))),
            (ComponentLabel("BU_Z", (2,)), BU1),
            # components no other test plans, so the first call fills the table
            (ComponentLabel("BU_Z", (1, 7)), ComponentLabel("BU_Z", (2, 7))),
            (ComponentLabel("BU_Z", (2, 9)), ComponentLabel("BU_Z", (1, 9))),
        ],
    )
    def test_lowerings_are_planned_per_component(self, comps):
        """A ch_0 factor lowers by the rank of the component it is
        contracted on, whichever component planned the monomial first."""
        for comp in comps:
            f = None if len(comp.index) == 1 else 1
            r = comp.rank(f)
            p = chv(0, f) * sv(1, f) * 3 + chv(0, f) ** 2 * chv(1, f) * sv(1, f)
            for _ in range(2):
                got = contract_poly(p, comp)
                assert got == sv(1, f) * 3 * r + Poly.const(r ** 2)
                assert got == contract_by_derivatives(p, comp)

    def test_cap_rejects_homology_after_contract(self):
        """The table a contraction fills holds only character monomials:
        a homology generator in the character argument of a cap still
        raises on that component."""
        comp = ComponentLabel("BU_Z", (3, 5))
        p = chv(1, 1) * sv(1, 1) * sv(2, 1) + chv(0, 2) * sv(1, 2)
        assert contract_poly(p, comp) == sv(2, 1) + sv(1, 2) * 5
        for ch in (sv(1, 1), chv(1, 1) * sv(1, 1), chv(0, 2) + sv(2, 1)):
            with pytest.raises(ValueError):
                cap_poly(ch, sv(2, 1), comp)
        assert cap_poly(chv(1, 1), sv(1, 1) * sv(2, 1), comp) == sv(2, 1)

    def test_bad_generator_raises_every_time(self):
        """A lowering that raises is not kept, so the next call raises too."""
        comp = ComponentLabel("BU_Z", (1, 2))
        for _ in range(2):
            with pytest.raises(ValueError):
                cap_poly(Poly.variable("ch1_3"), sv(1, 1), comp)
            with pytest.raises(ValueError):
                contract_poly(Poly.variable("ch0_3") * sv(1, 1), comp)
            with pytest.raises(ValueError):
                contract_poly(Poly.variable("x1") * sv(1, 1), comp)
            # deferred products, capped from their factors when valid
            with pytest.raises(ValueError):
                contract_poly((Poly.variable("ch1_3") + chv(1, 1)) * (sv(1, 1) + 1), comp)
            with pytest.raises(ValueError):
                contract_poly((chv(1, 1) + 1) * (Poly.variable("x1") + sv(1, 1)), comp)


BU21 = ComponentLabel("BU_Z", (2, 1))


class TestDeferredContract:
    """A deferred ch x s product (see the `poly` module docstring) is
    capped from its factors and never built; any other deferred product
    is built and contracted as before.  Either way the result is the
    contraction of the product built by the general loop."""

    CH = chv(1, 1) ** 2 + chv(2, 1) * chv(1, 2) / 2 + 3
    S = sv(1, 1) ** 3 * sv(2, 1) + sv(1, 1) * sv(1, 2) * 4 - sv(2, 1) / 3
    RANKS = chv(0, 1) * 2 - chv(0, 2) ** 3

    @pytest.mark.parametrize(
        "left, right, capped",
        [
            (CH, S, True),
            (S, CH, True),
            (RANKS, S, True),  # rank scalars only
            (S, RANKS * chv(2, 1) + chv(1, 2), True),
            (CH * sv(1, 2) + 1, sv(1, 1) + sv(2, 1), False),  # a mixed factor
            (CH, RANKS + chv(2, 2), False),  # no homology factor
        ],
        ids=["ch-s", "s-ch", "ranks-s", "s-mixed-ch", "mixed", "ch-ch"],
    )
    def test_matches_the_built_product(self, left, right, capped):
        p = left * right
        assert p.factors is not None
        eager = sum_of_products(((left, right),))
        for _ in range(2):
            got = contract_poly(p, BU21)
            assert terms_built(p) != capped
            assert got == contract_poly(eager, BU21) == contract_by_derivatives(eager, BU21)

    @staticmethod
    def swap_left_side():
        """The left side of the additive swap identity on BU_Z(1) before
        its cap: the translation series of a class in w times the Euler
        series in z."""
        comp, depth = BU1, 5
        taut = charclass.tautological_summand(comp, None, depth)
        square = charclass.tensor_summand(taut, taut, depth).negate()
        e = charclass.equivariant_euler(KClass(VarSet(("z",)), {(1,): taut, (2,): square}, depth))
        zw, blocks = VarSet(("z", "w")), (("z",), ("w",))
        ez = e.substitute_linear(zw, {"z": {"z": 1}}, blocks)
        ta = translate(HomologyElement(comp, sv(1) ** 2 + sv(2)), ["w"], 2 + e.den_degree())
        ta = ta.substitute_linear(zw, {"w": {"w": 1}})
        return comp, LocalizedSeries(ta, (), blocks) * ez

    def test_swap_left_side_builds_no_product(self):
        """The left side of the additive swap identity, contracted: every
        coefficient meets one pair, a deferred ch x s product, and none is
        built."""
        comp, product = self.swap_left_side()
        got = charclass.cap_localized(product, comp)
        got.num.terms  # the cap is lazy: this read caps every coefficient
        deferred = [c for c in product.num.terms.values() if c.factors is not None]
        assert len(deferred) > 10
        for c in deferred:
            with pytest.raises(AttributeError):
                Poly.terms.__get__(c, Poly)
            assert not terms_built(c)
        built = product.map_coefficients(
            lambda c: contract_poly(sum_of_products((c.factors,)) if c.factors else c, comp)
        )
        assert got.num.terms == built.num.terms and not got.num.is_zero()

    def test_mixed_series_matches_per_coefficient(self):
        """One `cap_localized` call over a series whose coefficients are
        deferred products with the ch factor on either side, a built
        product, and a product that caps to zero; one homology factor
        meets ch factors with different target fields."""
        s = sv(1) ** 2 * sv(2) + sv(2) ** 3 - sv(1) / 2  # terms in s1 and s2, s2 alone, s1 alone
        ch1 = chv(1) * 2 + chv(0)
        ch2 = chv(2) - chv(1) ** 2 / 3
        coefficients = [
            ch1 * s,
            s * ch2,
            s * (chv(2) * chv(1) + 1),
            (chv(3) + chv(2) * chv(1)) * (sv(1) + sv(2)),  # caps to zero
            sum_of_products(((ch2, s),)),  # built
            (sv(2) + sv(1) * 5) * ch1,
        ]
        assert [c.factors is not None for c in coefficients] == [True] * 4 + [False, True]
        x = LocalizedSeries(
            TruncSeries(VarSet(("z",)), None, {(i,): c for i, c in enumerate(coefficients)})
        )
        got = charclass.cap_localized(x, BU1).num.terms
        want = {
            (i,): contract_by_derivatives(sum_of_products((c.factors,)) if c.factors else c, BU1)
            for i, c in enumerate(coefficients)
        }
        assert not want.pop((3,)) and all(want.values())
        assert got == want
        assert got == x.map_coefficients(lambda c: contract_poly(c, BU1)).num.terms


def counting_caps(monkeypatch):
    """The list of coefficients `charclass.cap_localized` caps from now on."""
    capped = []

    def spy(p, comp):
        capped.append(p)
        return contract_poly(p, comp)

    monkeypatch.setattr(charclass, "contract_poly", spy)
    return capped


# coefficients of a series to cap on BU_Z(1): deferred ch x s products,
# built ones, plain s and plain constants, and some that cap to zero
CAP_POOL = [
    (chv(1) + 2) * (sv(1) ** 2 + sv(2)),
    (chv(1) * chv(2) - 1) * (sv(1) * sv(2) + 3),
    sum_of_products(((chv(2) + chv(1), sv(2) * sv(1) - 1),)),
    (chv(3) + chv(2)) * (sv(1) + 1),  # caps to zero
    chv(1),  # caps to zero
    sv(1) / 2 + 1,
    Poly.const(Fraction(-3, 2)),
]
ZW, ZW_BLOCKS = VarSet(("z", "w")), (("z",), ("w",))


@st.composite
def cap_sides(draw):
    """A series of `CAP_POOL` coefficients and a series of s coefficients,
    over (z, w) in the regime z then w: exact or truncated, over up to two
    forms each, with a net bound or None per block."""
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    coefs = (st.sampled_from(CAP_POOL), st.sampled_from([sv(1), sv(2) - 1, Poly.const(2)]))
    vecs = st.tuples(st.integers(-1, 2), st.integers(-1, 2)).filter(any)
    bounds = st.tuples(*[st.one_of(st.none(), st.integers(-1, 3))] * 2)
    sides = []
    for c in coefs:
        terms = draw(st.dictionaries(exps, c, max_size=8))
        num = TruncSeries(ZW, draw(st.one_of(st.none(), st.integers(0, 6))), terms)
        den = [(LinearForm.make_scaled(ZW, v)[0], m) for v, m in draw(
            st.lists(st.tuples(vecs, st.integers(1, 2)), max_size=2)
        )]
        sides.append(LocalizedSeries(num, den, ZW_BLOCKS, draw(bounds)))
    return tuple(sides)


def _on_cap():
    """A series with terms on and past a w-cap of 1, against a side whose
    bound sets that cap."""
    x = LocalizedSeries(
        TruncSeries(ZW, 4, {(0, 1): CAP_POOL[0], (1, 1): CAP_POOL[3], (0, 2): CAP_POOL[1]}),
        (), ZW_BLOCKS,
    )
    y = LocalizedSeries(TruncSeries(ZW, 3, {(1, 1): sv(1)}), (), ZW_BLOCKS, (None, 1))
    return x, y


def _shape(x):
    return x.num.terms, x.num.order, x.den, x.blocks, x.block_bounds


class TestCapOnDemand:
    """`charclass.cap_localized` caps a coefficient when it is first read:
    a sum or a comparison caps those inside its window, each once, and a
    read of `terms` caps the rest, to the series that capping every
    coefficient at once gives."""

    def test_call_caps_nothing(self, monkeypatch):
        """The call caps no coefficient; the first read of `terms` caps
        each one once."""
        comp, product = TestDeferredContract.swap_left_side()
        capped = counting_caps(monkeypatch)
        got = charclass.cap_localized(product, comp)
        assert not capped
        assert got.num.order == product.num.order and got.den == product.den
        eager = product.map_coefficients(lambda c: contract_poly(c, comp))
        assert got.num == eager.num and not got.num.is_zero()
        assert sorted(map(id, capped)) == sorted(map(id, product.num.terms.values()))

    def test_comparison_caps_its_window_once(self, monkeypatch):
        """A comparison against a block-bounded right side caps exactly
        the coefficients inside the window, and a second comparison in
        the same window caps none."""
        comp, product = TestDeferredContract.swap_left_side()
        eager = product.map_coefficients(lambda c: contract_poly(c, comp))
        order, bound = product.num.order - 2, 1
        rhs = LocalizedSeries(
            eager.num.with_order(order), product.den, ZW_BLOCKS, (None, bound)
        )
        # both sides have the left side's denominator, with no form in w,
        # so the window is total degree <= order and w-degree <= bound
        assert not any(form.coeffs[1] for form, _ in product.den)
        window = [e for e in product.num.terms if sum(e) <= order and e[1] <= bound]
        assert 0 < len(window) < len(product.num.terms) // 4
        capped = counting_caps(monkeypatch)
        lhs = charclass.cap_localized(product, comp)
        assert series_equal(lhs, rhs)
        assert sorted(map(id, capped)) == sorted(id(product.num.terms[e]) for e in window)
        capped.clear()
        # both reads of the guarded comparison, the second against rhs + 1
        assert compare_series(lhs, rhs) == (True, True, None)
        assert not capped

    @settings(max_examples=120, deadline=None)
    @given(cap_sides())
    @example(_on_cap())
    def test_lazy_side_matches_eager(self, sides):
        """A lazily capped side and the side capped at once give the same
        sum, difference (either way round) and `series_equal` against any
        other side, the same narrowed series, and the same terms, order,
        denominator and bounds."""
        x, y = sides
        lazy = lambda: charclass.cap_localized(x, BU1)
        eager = x.map_coefficients(lambda c: contract_poly(c, BU1))
        got = lazy()
        assert type(got.num) is LazySeries and not got.num._made  # bounded or not
        for (a, b), (c, d) in (((lazy(), y), (eager, y)), ((y, lazy()), (y, eager))):
            assert _shape(a - b) == _shape(c - d)
            assert _shape(a + b) == _shape(c + d)
            assert series_equal(a, b) == series_equal(c, d)
        # a lazy numerator read through the constructor's window
        narrowed = [
            LocalizedSeries(s.num, x.den, ZW_BLOCKS, y.block_bounds) for s in (lazy(), eager)
        ]
        assert _shape(narrowed[0]) == _shape(narrowed[1])
        assert _shape(got - y) == _shape(eager - y)
        assert _shape(got) == _shape(eager)
        assert all(got.num.terms.values())


def translate_by_steps(a, zvars, trunc):
    """`translate` on unitary factors as it was first written, the oracle
    of its integer recurrence: order by order, every coefficient of the
    last order is raised by every factor's generator with `raise_once`,
    the results are added as `Poly`s and scaled by 1/m, and the series goes
    through the validating `TruncSeries` constructor."""
    vs = VarSet(zvars)
    comp = a.component
    factors = comp.unitary_factors()
    zero = vs.zero_exponent()
    terms = {zero: a.poly}
    cur = {zero: a.poly}
    for m in range(1, trunc + 1):
        nxt = {}
        for e, p in cur.items():
            for idx, f in enumerate(factors):
                q = raise_once(p, f, comp.rank(f))
                if q.is_zero():
                    continue
                e2 = e[:idx] + (e[idx] + 1,) + e[idx + 1 :]
                nxt[e2] = nxt.get(e2, Poly()) + q
        cur = {e: p * Fraction(1, m) for e, p in nxt.items() if not p.is_zero()}
        if not cur:
            break
        for e, p in cur.items():
            terms[e] = terms.get(e, Poly()) + p
    terms = {e: p for e, p in terms.items() if not p.is_zero()}
    return TruncSeries(vs, trunc, terms)


@st.composite
def unitary_products(draw):
    """A class on a product of one to three unitary factors of ranks 0-3,
    in s_1..s_3 of every factor, with fractional coefficients."""
    comp = ComponentLabel("BU_Z", tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))))
    gens = [s_name(k, f) for f in comp.unitary_factors() for k in (1, 2, 3)]
    monos = st.lists(st.tuples(st.sampled_from(gens), st.integers(0, 2)), max_size=3)
    coefs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    raw = draw(st.lists(st.tuples(monos, coefs), max_size=3))
    return HomologyElement(comp, Poly({tuple(m): c for m, c in raw}))


class TestTranslate:
    def test_zero_is_identity(self):
        a = HomologyElement(BU3, sv(2) + sv(1) ** 2)
        t = translate(a, ["z"], 0)
        assert dict(t.terms) == {(0,): a.poly}

    def test_unit_rank_one(self):
        one = HomologyElement(BU1, 1)
        t = translate(one, ["z"], 2)
        assert t.terms[(0,)] == Poly.const(1)
        assert t.terms[(1,)] == sv(1)
        assert t.terms[(2,)] == (sv(1) ** 2 + sv(2)) * Fraction(1, 2)

    def test_rank_zero_kills_unit(self):
        one = HomologyElement(ComponentLabel("BU_Z", (0,)), 1)
        t = translate(one, ["z"], 3)
        assert dict(t.terms) == {(0,): Poly.const(1)}

    def test_grading(self):
        a = HomologyElement(BU3, sv(2))
        t = translate(a, ["z"], 4)
        for e, p in t.terms.items():
            el = HomologyElement(BU3, p)
            assert el.degree() == 4 + 2 * e[0]

    def _compose(self, a, trunc):
        zw = VarSet(["z", "w"])
        tw = translate(a, ["w"], trunc)
        terms = {}
        for (k,), p in tw.terms.items():
            inner = translate(HomologyElement(a.component, p), ["z"], trunc - k)
            for (i,), q in inner.terms.items():
                terms[(i, k)] = q
        return zw, terms

    @pytest.mark.parametrize("rank,poly", [(1, "s2"), (2, "s1")])
    def test_one_parameter_group(self, rank, poly):
        comp = ComponentLabel("BU_Z", (rank,))
        a = HomologyElement(comp, Poly.variable(poly))
        trunc = 3  # degree of the check is 2*trunc <= 6
        zw, terms = self._compose(a, trunc)
        direct = translate(a, ["u"], trunc).substitute_linear(
            zw, {"u": {"z": 1, "w": 1}}
        )
        for e, p in direct.terms.items():
            assert terms.get(e, Poly()) == p
        for e, p in terms.items():
            if sum(e) <= trunc:
                assert direct.terms.get(e, Poly()) == p

    def test_two_factor_translation(self):
        comp = ComponentLabel("BU_Z", (1, 1))
        a = HomologyElement(comp, 1)
        t = translate(a, ["z1", "z2"], 2)
        assert t.terms[(1, 1)] == sv(1, 1) * sv(1, 2)
        assert t.terms[(2, 0)] == (sv(1, 1) ** 2 + sv(2, 1)) * Fraction(1, 2)

    def test_module_factor_is_fixed(self):
        comp = ComponentLabel("BO_Z", (1, 3))
        a = HomologyElement(comp, sv(2, 0))
        t = translate(a, ["z"], 2)
        assert t.terms[(1,)] == sv(1, 1) * sv(2, 0)

    def test_wrong_coordinate_count(self):
        a = HomologyElement(ComponentLabel("BU_Z", (1, 1)), 1)
        with pytest.raises(ValueError):
            translate(a, ["z"], 2)

    @pytest.mark.parametrize("bad", [True, 2.5, 2.0, Fraction(2), "2"])
    def test_truncation_is_an_int(self, bad):
        # True used to translate at order 1, 2.5 to raise TypeError
        a = HomologyElement(BU1, sv(1))
        with pytest.raises(ValueError, match="truncation"):
            translate(a, ["z"], bad)
        with pytest.raises(ValueError, match="truncation"):
            translate(HomologyElement(BU1, 1), ["z"], bad)

    @settings(max_examples=80, deadline=None)
    @given(unitary_products(), st.integers(0, 6))
    @example(HomologyElement(ComponentLabel("BU_Z", (0,)), Fraction(3, 2)), 4)
    @example(HomologyElement(ComponentLabel("BU_Z", (0, 0, 0)), -2), 6)
    @example(HomologyElement(ComponentLabel("BU_Z", (2, 0)), 0), 3)
    @example(HomologyElement(ComponentLabel("BU_Z", (0, 3)), sv(2, 1) / 3), 5)
    def test_prop_matches_steps(self, a, trunc):
        """The integer recurrence against the order-by-order loop it
        replaced, coefficient for coefficient; on rank-0 factors a constant
        is killed by D, so those series end early."""
        names = ["z%d" % i for i in range(len(a.component.index))]
        got = translate(a, names, trunc)
        want = translate_by_steps(a, names, trunc)
        assert (got.varset, got.order) == (want.varset, want.order)
        assert got.terms.keys() == want.terms.keys()
        for e, p in want.terms.items():
            _same_poly(got.terms[e], p)


@st.composite
def translatable_classes(draw):
    """A class on any model: BU_Z with one or two factors, BO_Z or BSp_2Z
    with none, one or two unitary factors beside the module; ranks -3..3
    (a symplectic module's even), in the generators up to s_4 that the
    component allows, with fractional coefficients."""
    model = draw(st.sampled_from(homology.MODELS))
    low = 1 if model == "BU_Z" else 0
    ranks = draw(st.lists(st.integers(-3, 3), min_size=low, max_size=2))
    if model != "BU_Z":
        module = st.integers(-1, 1).map(lambda r: 2 * r) if model == "BSp_2Z" else st.integers(-3, 3)
        ranks.append(draw(module))
    comp = ComponentLabel(model, tuple(ranks))
    gens = [s_name(k, f) for f in comp.factor_keys() for k in (1, 2, 3, 4)]
    gens = [g for g in gens if comp.allows_variable(g)]
    monos = st.lists(st.tuples(st.sampled_from(gens), st.integers(0, 2)), max_size=3)
    coefs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    raw = draw(st.lists(st.tuples(monos, coefs), max_size=3))
    return HomologyElement(comp, Poly({tuple(m): c for m, c in raw}))


class TestLazyTranslate:
    """`translate` returns a `LazySeries` over the class on no variables:
    a whole read is the eager recurrence, and a window read its cut."""

    @settings(max_examples=100, deadline=None)
    @given(translatable_classes(), st.integers(0, 5), st.data())
    @example(HomologyElement(ComponentLabel("BU_Z", (-2, 1)), sv(1, 1) - 3), 4, None)
    @example(HomologyElement(ComponentLabel("BO_Z", (-1, 3)), sv(2, 0) * sv(1, 1)), 3, None)
    @example(HomologyElement(ComponentLabel("BSp_2Z", (2,)), sv(2) / 5), 2, None)
    def test_prop_reads_match_steps(self, a, trunc, data):
        names = ["z%d" % i for i in range(len(a.component.unitary_factors()))]
        want = translate_by_steps(a, names, trunc)
        got = translate(a, names, trunc)
        assert type(got) is LazySeries and not got._made
        assert (got.varset, got.order, got.terms) == (want.varset, want.order, want.terms)
        if data is None or not names:
            return
        positions = st.sets(st.sampled_from(range(len(names))), min_size=1).map(sorted)
        cap = st.tuples(positions.map(tuple), st.integers(-1, 5))
        caps = tuple(data.draw(st.lists(cap, max_size=2)))
        order = data.draw(st.one_of(st.none(), st.integers(0, 6)))
        part = translate(a, names, trunc)._window(caps, order)
        assert part.order == want.order
        assert part.terms == want._window(caps, order).terms

    @settings(max_examples=60, deadline=None)
    @given(translatable_classes(), st.integers(0, 5), st.integers(0, 5), st.booleans())
    @example(HomologyElement(BU1, sv(1)), 5, 2, True)
    def test_prop_lower_order_after_a_read(self, a, trunc, lower, whole):
        """A translation read whole or through a window at ``trunc``, then
        cut to a lower order, reads as the recurrence at that order: the
        levels made for ``trunc`` are shared, but none past it is read."""
        names = ["z%d" % i for i in range(len(a.component.unitary_factors()))]
        lower = min(lower, trunc)
        want = translate_by_steps(a, names, lower)
        got = translate(a, names, trunc)
        if whole:
            got.terms
        else:
            got._window((), trunc)
        for cut in (got.truncate(lower), got.with_order(lower)):
            assert (cut.order, cut.terms) == (lower, want.terms)
            assert cut._window((), trunc).terms == want.terms



def translate_series_by_nest(num, component, wvars):
    """`translate_series` as it was first written, the reference of the
    lazy one: `series.nest` of `translate`, every coefficient translated at
    once, each at the order its monomial leaves."""
    return nest(
        lambda p, room: LocalizedSeries(
            translate(HomologyElement(component, p), list(wvars), room)
        ),
        LocalizedSeries(num),
        wvars,
    ).num


@st.composite
def translate_series_inputs(draw):
    """A maker of a series over (z, w) of classes on BU_Z with one or two
    factors of ranks -2..2, with fractional coefficients, plain or capped
    from ch x s products by `cap_localized` (a fresh `LazySeries` per
    call); and the coordinates, shared with (z, w), fresh, or both."""
    comp = ComponentLabel("BU_Z", tuple(draw(st.lists(st.integers(-2, 2), min_size=1, max_size=2))))
    factors = comp.unitary_factors()
    pool = [["w"], ["u"], ["z"]]
    if len(factors) == 2:
        pool = [["w", "u"], ["u", "v"], ["z", "w"], ["v", "z"]]
    wvars = draw(st.sampled_from(pool))
    coefs = st.fractions(min_value=-3, max_value=3, max_denominator=4)

    def polys(gens):
        monos = st.lists(st.tuples(st.sampled_from(gens), st.integers(1, 2)), max_size=2)
        return st.lists(st.tuples(monos, coefs), min_size=1, max_size=2).map(
            lambda raw: Poly({tuple(m): c for m, c in raw})
        )

    s_polys = polys([s_name(k, f) for f in factors for k in (1, 2)])
    capped = draw(st.booleans())
    if capped:
        ch_polys = polys([homology.ch_name(k, f) for f in factors for k in (1, 2)])
        coef = st.builds(lambda a, b: a * b, ch_polys, s_polys) | s_polys
    else:
        coef = s_polys
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    terms = draw(st.dictionaries(exps, coef, max_size=5))
    order = draw(st.integers(0, 5))

    def make():
        num = TruncSeries(ZW, order, terms)
        return charclass.cap_localized(LocalizedSeries(num), comp).num if capped else num

    return make, comp, wvars


class TestTranslateSeries:
    """`translate_series` translates nothing when called: a read of its
    `terms` gives the series of translating every coefficient at once, and
    a read through its window gives that series cut to the window."""

    def test_call_translates_nothing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(homology, "_translated", lambda *a: calls.append(a))
        num = TruncSeries(ZW, 4, {(0, 0): sv(1), (1, 2): sv(2) - 1})
        got = translate_series(num, BU1, ["w"])
        assert type(got) is LazySeries and not got._made and not calls
        assert (got.varset, got.order) == (ZW, 4)
        assert repr(got) == "LazySeries(VarSet(('z', 'w')), order=4, made=0, pending=2)"

    def test_exact_input_and_wrong_coordinates_raise(self):
        with pytest.raises(ValueError, match="finite order"):
            translate_series(TruncSeries(ZW, None, {(0, 0): sv(1)}), BU1, ["w"])
        with pytest.raises(ValueError, match="coordinates"):
            translate_series(TruncSeries(ZW, 2), BU1, ["w", "u"])

    @settings(max_examples=60, deadline=None)
    @given(translate_series_inputs(), st.data())
    def test_prop_matches_nest(self, inputs, data):
        """Terms in the same order, order and variables as the nest of
        `translate`; a window read equals that series cut to the window,
        and a read of everything after it equals the whole."""
        make, comp, wvars = inputs
        want = translate_series_by_nest(make(), comp, wvars)
        got = translate_series(make(), comp, wvars)
        assert (got.varset, got.order) == (want.varset, want.order)
        assert list(got.terms.items()) == list(want.terms.items())
        positions = st.sets(st.sampled_from(range(len(want.varset))), min_size=1)
        cap = st.tuples(positions.map(sorted).map(tuple), st.integers(-1, 5))
        caps = data.draw(st.lists(cap, max_size=2))
        order = data.draw(st.one_of(st.none(), st.integers(0, 6)))
        lazy = translate_series(make(), comp, wvars)
        window = lazy._window(tuple(caps), order)
        assert window.order == want.order
        assert list(window.terms.items()) == list(want._window(tuple(caps), order).terms.items())
        assert list(lazy.terms.items()) == list(want.terms.items())
        # a window read again, over terms made for a wider room
        again = lazy._window(tuple(caps), order)
        assert list(again.terms.items()) == list(window.terms.items())

    def test_cap_on_one_of_two_coordinates(self):
        """A cap on w alone bounds the w-steps but not the u-steps of a
        translation along (w, u): the room comes only from the order, and
        the steps past the w-cap are left out."""
        comp = ComponentLabel("BU_Z", (1, 2))
        num = TruncSeries(ZW, 4, {(0, 0): sv(1, 1) + sv(1, 2), (1, 1): sv(2, 2) / 3})
        want = translate_series_by_nest(num, comp, ["w", "u"])
        assert want.varset.names == ("u", "z", "w")
        caps = (((2,), 1),)
        got = translate_series(num, comp, ["w", "u"])._window(caps, 3)
        assert got.terms == want._window(caps, 3).terms
        assert any(e[0] > 1 for e in got.terms) and all(e[2] <= 1 for e in got.terms)


class TestInvolution:
    def test_sign_on_generators(self):
        a = HomologyElement(BU1, sv(1))
        assert involution_dual(a).poly == -sv(1)
        b = HomologyElement(BU1, sv(2))
        assert involution_dual(b).poly == sv(2)

    def test_involutive(self):
        a = HomologyElement(BU3, sv(1) * sv(2) ** 2 + sv(3))
        assert involution_dual(involution_dual(a)).poly == a.poly

    def test_rank_is_kept(self):
        a = HomologyElement(BU3, sv(1))
        assert involution_dual(a).component == BU3

    def test_no_involution_on_orthogonal_model(self):
        a = HomologyElement(ComponentLabel("BO_Z", (2,)), sv(2))
        with pytest.raises(ValueError):
            involution_dual(a)

    def test_commutes_with_reversed_translation(self):
        # dualizing after moving by z equals moving the dual by -z
        from vertexalg.homology import involution_dual_poly

        a = HomologyElement(BU3, sv(2) * sv(1))
        trunc = 4
        z = VarSet(["z"])
        lhs = translate(a, ["z"], trunc).map_coefficients(involution_dual_poly)
        rhs = translate(involution_dual(a), ["z"], trunc).substitute_linear(
            z, {"z": {"z": -1}}
        )
        assert dict(lhs.terms) == dict(rhs.terms)


class TestPushforward:
    def test_unitary_sum(self):
        comp = ComponentLabel("BU_Z", (1, 2))
        a = HomologyElement(comp, sv(2, 1) * sv(1, 2))
        out = pushforward_substitute(a)
        assert out.component == BU3
        assert out.poly == sv(2) * sv(1)

    def test_single_factor_renames(self):
        a = HomologyElement(BU1, sv(3))
        out = pushforward_substitute(a)
        assert out.component == BU1
        assert out.poly == sv(3)

    def test_orthosymplectic_doubling(self):
        comp = ComponentLabel("BO_Z", (1, 3))
        a = HomologyElement(comp, sv(2, 1) * sv(2, 0))
        out = pushforward_substitute(a)
        assert out.component == ComponentLabel("BO_Z", (5,))
        assert out.poly == sv(2) ** 2 * 2

    def test_orthosymplectic_kills_odd(self):
        comp = ComponentLabel("BSp_2Z", (1, 1, 2))
        a = HomologyElement(comp, sv(1, 1) * sv(2, 2))
        assert pushforward_substitute(a).poly == Poly()
        b = HomologyElement(comp, sv(2, 1) * sv(2, 2))
        assert pushforward_substitute(b).poly == sv(2) ** 2 * 4

    def test_tensor_then_pushforward(self):
        a = HomologyElement(BU1, sv(1))
        b = HomologyElement(ComponentLabel("BU_Z", (2,)), sv(2))
        prod = tensor(a, b)
        assert prod.component == ComponentLabel("BU_Z", (1, 2))
        assert prod.poly == sv(1, 1) * sv(2, 2)
        assert pushforward_substitute(prod).poly == sv(1) * sv(2)

    def test_tensor_with_module(self):
        a = HomologyElement(BU1, sv(1))
        m = HomologyElement(ComponentLabel("BO_Z", (3,)), sv(2))
        prod = tensor(a, module=m)
        assert prod.component == ComponentLabel("BO_Z", (1, 3))
        assert prod.poly == sv(1, 1) * sv(2, 0)


def _random_s_poly(rng, ks, factor=None):
    """A few terms in the given s-generators with small coefficients."""
    p = Poly()
    for _ in range(rng.randint(1, 4)):
        term = Poly.const(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        for k in ks:
            term = term * sv(k, factor) ** rng.randint(0, 2)
        p = p + term
    return p


class TestPushforwardAgainstMultiplyOut:
    """`pushforward_substitute` of external products against the factor by
    factor expansion of the same substitution (`poly_reference.multiply_out`):
    of the unbuilt `tensor`, pushed forward from its factors, and of the
    same product built (`tensor_by_resuffix`), pushed forward term by term."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("ranks", [(0, 1), (1, 2), (2, 2), (0, 1, 2)])
    def test_unitary(self, seed, ranks):
        rng = random.Random("unitary/%d/%s" % (seed, ranks))
        factors = [
            HomologyElement(ComponentLabel("BU_Z", (r,)), _random_s_poly(rng, (1, 2, 3)))
            for r in ranks
        ]
        prod = tensor_by_resuffix(*factors)
        mapping = {
            s_name(k, i + 1): sv(k) for i in range(len(ranks)) for k in (1, 2, 3)
        }
        want = ref.multiply_out(prod.poly, mapping)
        for out in (pushforward_substitute(tensor(*factors)), pushforward_substitute(prod)):
            assert out.component == ComponentLabel("BU_Z", (sum(ranks),))
            assert out.poly == want

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("model, r0", [("BO_Z", 1), ("BO_Z", 3), ("BSp_2Z", 2)])
    @pytest.mark.parametrize("ranks", [(), (1,), (0, 2)])
    def test_orthosymplectic(self, seed, model, r0, ranks):
        rng = random.Random("%s/%d/%d/%s" % (model, seed, r0, ranks))
        module = HomologyElement(ComponentLabel(model, (r0,)), _random_s_poly(rng, (2, 4)))
        factors = [
            HomologyElement(ComponentLabel("BU_Z", (r,)), _random_s_poly(rng, (1, 2, 3)))
            for r in ranks
        ]
        prod = tensor_by_resuffix(*factors, module=module)
        # odd unitary generators die, even ones double, the module passes
        mapping = {s_name(k, 0 if ranks else None): sv(k) for k in (2, 4)}
        for i in range(len(ranks)):
            for k in (1, 2, 3):
                mapping[s_name(k, i + 1)] = Poly() if k % 2 else 2 * sv(k)
        want = ref.multiply_out(prod.poly, mapping)
        pushed = pushforward_substitute(tensor(*factors, module=module))
        for out in (pushed, pushforward_substitute(prod)):
            assert out.component == ComponentLabel(model, (r0 + 2 * sum(ranks),))
            assert out.poly == want


class TestSumMapProduct:
    """`sum_map_product` against the multiply-out reference: the suffixed
    product built by `tensor_by_resuffix`, with the sum map substituted
    into it term by term (`_unsuffixed`)."""

    def test_unitary_against_round_trip(self):
        for seed in range(200):
            rng = random.Random("sum-map/unitary/%d" % seed)
            factors = [
                HomologyElement(
                    ComponentLabel("BU_Z", (rng.randint(0, 2),)),
                    _random_s_poly(rng, rng.sample((1, 2, 3, 4), rng.randint(1, 3))),
                )
                for _ in range(rng.randint(2, 3))
            ]
            got = sum_map_product(*factors)
            rank = sum(f.component.index[0] for f in factors)
            assert got.component == ComponentLabel("BU_Z", (rank,))
            _same_poly(got.poly, _unsuffixed(tensor_by_resuffix(*factors).poly))

    def test_module_against_round_trip(self):
        for seed in range(200):
            rng = random.Random("sum-map/module/%d" % seed)
            model, r0 = rng.choice([("BO_Z", 1), ("BO_Z", 3), ("BSp_2Z", 2), ("BSp_2Z", 4)])
            module = HomologyElement(ComponentLabel(model, (r0,)), _random_s_poly(rng, (2, 4)))
            factors = [
                HomologyElement(
                    ComponentLabel("BU_Z", (rng.randint(0, 2),)),
                    _random_s_poly(rng, rng.sample((1, 2, 3, 4), rng.randint(1, 3))),
                )
                for _ in range(rng.randint(0, 2))
            ]
            got = sum_map_product(*factors, module=module)
            rank = r0 + 2 * sum(f.component.index[0] for f in factors)
            assert got.component == ComponentLabel(model, (rank,))
            want = tensor_by_resuffix(*factors, module=module).poly
            _same_poly(got.poly, _unsuffixed(want, even_only=bool(factors)))

    def test_rejects_what_tensor_rejects(self):
        a = HomologyElement(BU1, sv(1))
        with pytest.raises(ValueError):
            sum_map_product()
        with pytest.raises(ValueError):
            sum_map_product(HomologyElement(ComponentLabel("BU_Z", (1, 2)), 1))
        with pytest.raises(ValueError):
            sum_map_product(a, module=a)


def _same_poly(got, want):
    assert got.terms == want.terms and got.den == want.den


def _suffixed(p, factor):
    """``p`` with every s_k sent to s_k on ``factor``, multiplied out."""
    return ref.multiply_out(p, {v: sv(parse_s(v)[0], factor) for v in p.variables()})


def _unsuffixed(p, even_only=False):
    """The sum map of every s-generator of ``p``, multiplied out: s_k of any
    factor to s_k, or with ``even_only`` s_k of any factor but the module
    slot 0 to 0 for odd k and to 2*s_k for even k."""
    mapping = {}
    for v in p.variables():
        k, factor = parse_s(v)
        mapping[v] = (Poly() if k % 2 else 2 * sv(k)) if even_only and factor != 0 else sv(k)
    return ref.multiply_out(p, mapping)


@st.composite
def s_polys(draw, ks=(1, 2, 3)):
    """A class in the unsuffixed s_k with fractional coefficients."""
    gens = [s_name(k) for k in ks]
    monos = st.lists(st.tuples(st.sampled_from(gens), st.integers(0, 2)), max_size=3)
    coefs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    return Poly({tuple(m): c for m, c in draw(st.lists(st.tuples(monos, coefs), max_size=4))})


@st.composite
def unitary_classes(draw):
    """One to four single unitary classes of ranks 0-2.  Half the time the
    first two are p + q and p - q, whose cross terms p_1*q_2 and -q_1*p_2
    cancel when the sum map merges the two alphabets."""
    polys = [draw(s_polys()) for _ in range(draw(st.integers(1, 4)))]
    if len(polys) > 1 and draw(st.booleans()):
        polys[:2] = [polys[0] + polys[1], polys[0] - polys[1]]
    return [
        HomologyElement(ComponentLabel("BU_Z", (draw(st.integers(0, 2)),)), p) for p in polys
    ]


MODULE_RANKS = [("BO_Z", 1), ("BO_Z", 3), ("BSp_2Z", 2), ("BSp_2Z", 4)]


def tensor_by_resuffix(*factors, module=None):
    """`tensor` as it was first written, the oracle of the fused product:
    each factor moved onto its suffix as a `Poly` of its own (here by
    `Poly.substitute` with one-term images), the module factor first, and
    the moved factors multiplied pairwise with `Poly.__mul__`."""
    ranks = tuple(f.component.index[0] for f in factors)
    if module is None:
        comp = ComponentLabel("BU_Z", ranks)
        pairs = list(zip(comp.unitary_factors(), factors))
    else:
        comp = ComponentLabel(module.component.model, ranks + module.component.index)
        pairs = [(0 if factors else None, module)] + [(i + 1, f) for i, f in enumerate(factors)]
    poly = Poly.const(1)
    for key, f in pairs:
        poly = poly * f.poly.substitute({v: sv(parse_s(v)[0], key) for v in f.poly.variables()})
    return HomologyElement(comp, poly)


class TestSuffixTables:
    """The per-factor monomial tables behind `tensor` and both sum maps of
    `pushforward_substitute`, against the same maps multiplied out."""

    @settings(max_examples=150, deadline=None)
    @given(unitary_classes())
    def test_prop_round_trip_matches_reference(self, fs):
        prod = tensor(*fs)
        want = Poly.const(1)
        for key, f in zip(prod.component.unitary_factors(), fs):
            want = want * _suffixed(f.poly, key)
        _same_poly(prod.poly, want)
        rank = sum(f.component.index[0] for f in fs)
        # the tensor from its factors, and the built product key by key
        for a in (prod, HomologyElement(prod.component, want)):
            pushed = pushforward_substitute(a)
            assert pushed.component == ComponentLabel("BU_Z", (rank,))
            _same_poly(pushed.poly, _unsuffixed(want))

    @settings(max_examples=100, deadline=None)
    @given(unitary_classes(), s_polys(ks=(2, 4)), st.sampled_from([1, 3]))
    def test_prop_module_round_trip_matches_reference(self, fs, mpoly, r0):
        fs = fs[1:]  # zero to three unitary factors
        m = HomologyElement(ComponentLabel("BO_Z", (r0,)), mpoly)
        prod = tensor(*fs, module=m)
        want = _suffixed(mpoly, 0 if fs else None)
        for i, f in enumerate(fs):
            want = want * _suffixed(f.poly, i + 1)
        _same_poly(prod.poly, want)
        image = _unsuffixed(mpoly)
        for f in fs:
            image = image * _unsuffixed(f.poly, even_only=True)
        rank = r0 + 2 * sum(f.component.index[0] for f in fs)
        for a in (prod, HomologyElement(prod.component, want)):
            pushed = pushforward_substitute(a)
            assert pushed.component == ComponentLabel("BO_Z", (rank,))
            _same_poly(pushed.poly, image)

    @settings(max_examples=150, deadline=None)
    @given(
        unitary_classes(),
        st.none() | st.tuples(st.sampled_from(MODULE_RANKS), s_polys(ks=(2, 4)), st.booleans()),
    )
    def test_prop_fused_matches_resuffix_then_multiply(self, fs, drawn):
        """The fused product against the moved oracle, `Poly` for `Poly`:
        one to four unitary factors, or zero to four beside a BO or BSp
        module class."""
        module = None
        if drawn is not None:
            (model, r0), mpoly, bare = drawn
            module = HomologyElement(ComponentLabel(model, (r0,)), mpoly)
            fs = fs[1:] if bare else fs
        got = tensor(*fs, module=module)
        want = tensor_by_resuffix(*fs, module=module)
        assert got.component == want.component
        _same_poly(got.poly, want.poly)

    def test_merged_terms_cancel(self):
        """Terms that meet on one key add, a sum that cancels leaves no
        term, and the result is canonical again."""
        p, q = sv(1), sv(2)
        a, b = HomologyElement(BU1, p + q), HomologyElement(BU1, p - q)
        assert len(tensor(a, b).poly.terms) == 4
        _same_poly(pushforward_substitute(tensor(a, b)).poly, p ** 2 - q ** 2)
        comp = ComponentLabel("BU_Z", (1, 1))
        swapped = HomologyElement(comp, (sv(1, 1) * sv(2, 2) - sv(2, 1) * sv(1, 2)) / 2)
        _same_poly(pushforward_substitute(swapped).poly, Poly())
        kept = swapped + HomologyElement(comp, sv(1, 1) * sv(1, 2) / 3)
        _same_poly(pushforward_substitute(kept).poly, p ** 2 / 3)

    def test_nothing_moves(self):
        a = HomologyElement(BU1, sv(1) * sv(3) / 2)
        assert tensor(a).poly is a.poly
        assert pushforward_substitute(a).poly is a.poly
        constant = HomologyElement(ComponentLabel("BU_Z", (1, 2)), 5)
        assert pushforward_substitute(constant).poly is constant.poly

    def test_overflow_stores_nothing(self):
        """Of the tensor and of the built product alike."""
        big = HomologyElement(BU1, Poly.variable("s1", 20000))
        full = HomologyElement(BU1, Poly.variable("s1", 30000))
        small = HomologyElement(BU1, Poly.variable("s1", 12000) * sv(2))
        for product in (tensor, tensor_by_resuffix):
            for _ in range(2):
                with pytest.raises(OverflowError):
                    pushforward_substitute(product(big, big))
            # three parts: the third addition would carry past the s1 field
            with pytest.raises(OverflowError):
                pushforward_substitute(product(full, full, full))
            check_guards(key for key, _ in homology._field_table(None, False).values())
            pushed = pushforward_substitute(product(small, big))
            _same_poly(pushed.poly, Poly.variable("s1", 32000) * sv(2))

    def test_tables_hold_one_factor_monomials(self):
        """A table entry is the image of a single factor's monomial, never
        of a product key: the tables grow with the factors' monomials."""
        rng = random.Random("suffix-tables")
        for _ in range(5):
            factors = [
                HomologyElement(
                    ComponentLabel("BU_Z", (rng.randint(0, 2),)), _random_s_poly(rng, (1, 2, 3))
                )
                for _ in range(rng.randint(2, 4))
            ]
            pushforward_substitute(tensor_by_resuffix(*factors))
        owners = [
            {parse_s(shift_name(shift))[1] for shift, _ in key_fields(key)}
            for key in homology._field_table(None, False)
        ]
        assert {1} in owners and {2} in owners
        assert all(len(o) <= 1 for o in owners)


@st.composite
def tensor_inputs(draw):
    """One to four single unitary classes of ranks -2..2, fractional
    coefficients, one of them sometimes zero, and half the time beside a
    BO or BSp module class (then with zero to three unitary factors)."""
    fs = draw(unitary_classes())
    fs = [HomologyElement(ComponentLabel("BU_Z", (draw(st.integers(-2, 2)),)), f.poly) for f in fs]
    if draw(st.booleans()):
        zero = draw(st.integers(0, len(fs) - 1))
        fs[zero] = HomologyElement(fs[zero].component, Poly())
    module = None
    if draw(st.booleans()):
        model, r0 = draw(st.sampled_from(MODULE_RANKS + [("BO_Z", -1), ("BSp_2Z", -2)]))
        module = HomologyElement(ComponentLabel(model, (r0,)), draw(s_polys(ks=(2, 4))))
        fs = fs[1:]
    return fs, module


def suffixed_term_built(*args):
    raise AssertionError("the pushforward built a suffixed term")


def ban_suffix_moves(patch):
    """Make the sum map of a built product and every move onto a suffix
    fail under ``patch``: the pushforward of an unbuilt product needs
    neither, only the unsuffixed tables of its unitary factors."""
    tables = homology._field_table

    def unsuffixed_tables(target, doubles):
        if target is not None:
            suffixed_term_built()
        return tables(target, doubles)

    patch.setattr(homology, "_sum_map", suffixed_term_built)
    patch.setattr(homology, "_field_table", unsuffixed_tables)


def route_reference(fs, module):
    """The tensor and its sum map, multiplied out, as (component,
    polynomial) pairs: each factor moved onto its suffix by `_suffixed`,
    the moved factors multiplied, and the product sent through the sum
    map by `_unsuffixed`; ranks add, and unitary ones count twice beside
    a module."""
    ranks = tuple(f.component.index[0] for f in fs)
    keys = [i + 1 for i in range(len(fs))] if module or len(fs) > 1 else [None]
    want = Poly.const(1)
    if module is None:
        comp, target = ("BU_Z", ranks), ("BU_Z", (sum(ranks),))
    else:
        model, (r0,) = module.component.model, module.component.index
        comp, target = (model, ranks + (r0,)), (model, (r0 + 2 * sum(ranks),))
        want = _suffixed(module.poly, 0 if fs else None)
    for key, f in zip(keys, fs):
        want = want * _suffixed(f.poly, key)
    pushed = _unsuffixed(want, even_only=module is not None and bool(fs))
    return (ComponentLabel(*comp), want), (ComponentLabel(*target), pushed)


class TestUnbuiltTensor:
    """`tensor` leaves a product of two or more nonzero factors unbuilt,
    and answers everything from its factors as the built product would."""

    @settings(max_examples=150, deadline=None)
    @given(tensor_inputs())
    def test_prop_unbuilt_tensor_matches_reference(self, drawn):
        fs, module = drawn
        want = tensor_by_resuffix(*fs, module=module)
        got = tensor(*fs, module=module)
        lazy = not terms_built(got.poly)
        polys = [f.poly for f in fs] + ([module.poly] if module else [])
        assert lazy == (len(polys) > 1 and all(polys))
        den, support = got.poly.den, got.poly.support()
        # the sum map of an unbuilt product, from its factors: no factor is
        # moved onto a suffix or off it, and the product stays unbuilt
        with pytest.MonkeyPatch.context() as banned:
            if lazy:
                ban_suffix_moves(banned)
            pushed = pushforward_substitute(got)
        assert lazy == (not terms_built(got.poly))
        ranks = [f.component.index[0] for f in fs]
        if module is None:
            assert pushed.component == ComponentLabel("BU_Z", (sum(ranks),))
        else:
            r0 = module.component.index[0]
            assert pushed.component == ComponentLabel(module.component.model, (r0 + 2 * sum(ranks),))
        _same_poly(pushed.poly, _unsuffixed(want.poly, even_only=module is not None and bool(fs)))
        # built, the terms are those of the oracle, and den and support
        # read before building agree with them
        assert got.component == want.component
        _same_poly(got.poly, want.poly)
        assert (den, support) == (want.poly.den, want.poly.support())
        # equality and translation of a fresh unbuilt product
        assert tensor(*fs, module=module).poly == want.poly
        assert want.poly == tensor(*fs, module=module).poly
        names = ["z%d" % i for i in range(len(want.component.unitary_factors()))]
        assert translate(tensor(*fs, module=module), names, 2) == translate(want, names, 2)


    @settings(max_examples=100, deadline=None)
    @given(tensor_inputs())
    def test_prop_route_results_pass_the_public_check(self, drawn):
        """Every class that `tensor`, `pushforward_substitute` (of the
        unbuilt and of the built product) and `sum_map_product` return is
        checked on supports the route already had; each one equals the
        class the public constructor makes of it, and the multiply-out
        reference.  The tensor stays unbuilt, and the den it reads before
        it is built is the den of its built terms."""
        fs, module = drawn
        want, pushed_want = route_reference(fs, module)
        got = tensor(*fs, module=module)
        lazy = type(got.poly) is homology._Tensor
        den = got.poly.den
        outs = [
            (got, want),
            (pushforward_substitute(got), pushed_want),
            (sum_map_product(*fs, module=module), pushed_want),
        ]
        assert lazy == (not terms_built(got.poly))
        built = HomologyElement(*want)
        outs.append((pushforward_substitute(built), pushed_want))
        for out, (comp, poly) in outs:
            assert out == HomologyElement(out.component, out.poly)
            assert out.component is comp
            _same_poly(out.poly, poly)
        assert terms_built(got.poly)  # by the comparison with the reference
        assert got.poly.den == den == built.poly.den

    @pytest.mark.parametrize("smuggled", ["s1_2", "ch1"])
    def test_factor_replaced_after_construction(self, smuggled):
        """A factor whose polynomial was replaced by one with a generator
        foreign to its space is rejected by `tensor`, not moved onto a
        suffix; a zero factor beside it does not hide it."""
        a = HomologyElement(BU1, sv(1) + 1)
        b = HomologyElement(BU1, sv(1) + 3)
        b.poly = Poly.variable(smuggled) + 3
        zero = HomologyElement(BU1, 0)
        for args in ((a, b), (b, a), (b,), (zero, b)):
            for route in (tensor, sum_map_product):
                with pytest.raises(ValueError, match=smuggled):
                    route(*args)
        m = HomologyElement(ComponentLabel("BO_Z", (1,)), sv(2))
        m.poly = Poly.variable("s2_1")
        with pytest.raises(ValueError, match="s2_1"):
            tensor(a, module=m)


# -- the field maps of translation and of the sum map ---------------------------------


def raise_once(poly, factor, rank):
    """One application of the translation generator on a unitary factor,
    p |-> rank*s1*p + sum_k s_{k+1} dp/ds_k: the packed kernel `_raised`
    on the numerators of ``poly``, over its denominator."""
    return _make(homology._raised(poly.terms, factor, rank), poly.den)


def raise_once_by_derivatives(poly, factor, rank):
    """`raise_once` by multiplying and differentiating polynomials,
    rank*s1*p + sum_k s_{k+1} dp/ds_k: the definition the packed kernel
    follows."""
    out = poly * Poly.variable(s_name(1, factor)) * rank
    for v in poly.variables():
        got = parse_s(v)
        if got is None or got[1] != factor:
            continue
        k = got[0]
        out = out + poly.diff(v) * Poly.variable(s_name(k + 1, factor))
    return out


FACTOR_KEYS = (None, 1, 2)


@st.composite
def factor_classes(draw):
    """A class in the generators of one factor key and of another one,
    with coefficients of denominator up to 12, and that factor key."""
    factor = draw(st.sampled_from(FACTOR_KEYS))
    other = draw(st.sampled_from([f for f in FACTOR_KEYS if f != factor]))
    gens = [s_name(k, factor) for k in (1, 2, 3, 4)] + [s_name(k, other) for k in (1, 2, 3)]
    monos = st.lists(st.tuples(st.sampled_from(gens), st.integers(0, 3)), max_size=4)
    coefs = st.fractions(min_value=-6, max_value=6, max_denominator=12)
    raw = draw(st.lists(st.tuples(monos, coefs), max_size=6))
    return Poly({tuple(m): c for m, c in raw}), factor


class TestFieldMaps:
    @settings(max_examples=200, deadline=None)
    @given(factor_classes(), st.integers(0, 3))
    def test_raise_once_matches_derivatives(self, drawn, rank):
        poly, factor = drawn
        got = raise_once(poly, factor, rank)
        want = raise_once_by_derivatives(poly, factor, rank)
        assert got.terms == want.terms and got.den == want.den

    def test_raise_once_overflow(self):
        with pytest.raises(OverflowError):
            raise_once(Poly.variable("s1", MAX_EXP), None, 1)
        # s_1 moves up into a full s_2 field
        with pytest.raises(OverflowError):
            raise_once(sv(1) * Poly.variable("s2", MAX_EXP), None, 0)
        top = Poly.variable("s1", MAX_EXP - 1)
        assert raise_once(top, None, 1) == raise_once_by_derivatives(top, None, 1)

    def test_no_multiply_out_route(self, monkeypatch):
        """With substitution, powers, derivatives, variable construction,
        and `Poly` products and sums all made to fail, the fused `tensor`
        (built when `translate` first reads it), `translate` on a
        three-factor product, the translation generator and both sum maps
        of built products (unitary, and beside a BO or BSp module class)
        still give the reference results: none of them builds an
        intermediate `Poly`.  The pushforward of an unbuilt tensor is the
        product of its factors' images, so there products are allowed, but
        only of unsuffixed polynomials, with nothing moved onto a suffix,
        and the tensor stays unbuilt.  They run with empty plans, so the
        tables are planned under the same ban."""
        rng = random.Random("no-multiply-out")
        ranks = (0, 1, 2)
        factors = [
            HomologyElement(ComponentLabel("BU_Z", (r,)), _random_s_poly(rng, (1, 2, 3)))
            for r in ranks
        ]
        # beside a module, odd s_k die: the unitary factors get even terms
        twisted = [HomologyElement(f.component, f.poly + sv(2) * sv(4) - 3) for f in factors]
        modules = [None] + [
            HomologyElement(ComponentLabel(model, (r0,)), sv(2) / 2 + sv(4) ** 2 - 1)
            for model, r0 in (("BO_Z", 3), ("BSp_2Z", 2))
        ]
        inputs = [factors] + [twisted] * 2
        built = [tensor_by_resuffix(*fs, module=m) for fs, m in zip(inputs, modules)]
        push_want = []
        for b, m in zip(built, modules):
            # ranks add, and unitary ones count twice beside a module
            rank = sum(ranks) if m is None else m.component.index[0] + 2 * sum(ranks)
            target = ComponentLabel(b.component.model, (rank,))
            push_want.append((target, _unsuffixed(b.poly, even_only=m is not None)))
        tensor_want = built[0]
        names = ["z1", "z2", "z3"]
        translate_want = translate_by_steps(tensor_want, names, 3)
        classes = [(f.poly * sv(4, 2), None, r) for f, r in zip(factors, ranks)]
        classes.append((tensor_by_resuffix(*factors[:2]).poly, 2, 2))
        raise_want = [raise_once_by_derivatives(q, f, r) for q, f, r in classes]

        def forbidden(*args, **kwargs):
            raise AssertionError("a field map built an intermediate polynomial")

        def unsuffixed_product(p, q):
            for x in (p, q):
                if any(parse_s(shift_name(f))[1] is not None for f, _ in key_fields(x.support())):
                    raise AssertionError("the pushforward multiplied suffixed polynomials")
            return product(p, q)

        product = Poly.__mul__
        banned = ("substitute", "__pow__", "diff", "variable", "__mul__", "__rmul__")
        for attr in banned + ("__add__", "__radd__"):
            monkeypatch.setattr(Poly, attr, forbidden)
        for plan in (
            homology._field_table,
            homology._source_parts,
            homology._cap_plan,
            homology._moves_table,
            homology._raise_plan,
        ):
            plan.cache_clear()
        unbuilt = [tensor(*fs, module=m) for fs, m in zip(inputs, modules)]
        with monkeypatch.context() as pushing:
            pushing.setattr(Poly, "__mul__", unsuffixed_product)
            ban_suffix_moves(pushing)
            pushed = [pushforward_substitute(t) for t in unbuilt]
        assert not any(terms_built(t.poly) for t in unbuilt)
        pushed += [pushforward_substitute(b) for b in built]
        tensor_got = unbuilt[0]
        translate_got = translate(tensor_got, names, 3)
        raise_got = [raise_once(q, f, r) for q, f, r in classes]
        monkeypatch.undo()
        assert tensor_got.component == tensor_want.component
        _same_poly(tensor_got.poly, tensor_want.poly)
        for got, (component, poly) in zip(pushed, push_want * 2):
            assert got.component == component
            _same_poly(got.poly, poly)
        assert translate_got == translate_want
        assert raise_got == raise_want

    @pytest.mark.parametrize("model", [None, "BSp_2Z"])
    def test_route_checks_each_factor_once(self, monkeypatch, model):
        """After one warm-up call, `pushforward_substitute(tensor(...))`
        validates no label, never reads the suffixed support of the
        tensor and walks the support of no product it makes: the check
        runs once per factor, on that factor's support and its own space,
        and once more on the target, on the union of the images'
        supports, which has the fields of their product.  (`Poly.__mul__`
        reads its operands' supports to choose its product; those reads
        are the product's, not the route's.)"""
        rng = random.Random("route-guard")
        factors = [
            HomologyElement(ComponentLabel("BU_Z", (r,)), _random_s_poly(rng, (1, 2, 3)))
            for r in (0, 1, 2)
        ]
        module = None
        if model is not None:
            module = HomologyElement(ComponentLabel(model, (2,)), _random_s_poly(rng, (2, 4)))
        want = sum_map_product(*factors, module=module)  # the warm-up call
        checks, walked, made, multiplying = [], [], [], []
        check, support, product = homology._check, Poly.support, Poly.__mul__

        def counted_check(component, s):
            checks.append((component, s))
            return check(component, s)

        def counted_support(p):
            if not multiplying:
                walked.append(p)
            return support(p)

        def counted_product(p, q):
            multiplying.append(True)
            made.append(product(p, q))
            multiplying.pop()
            return made[-1]

        def forbidden(*args, **kwargs):
            raise AssertionError("the route validated a label or read the tensor's support")

        monkeypatch.setattr(homology, "_check", counted_check)
        monkeypatch.setattr(Poly, "support", counted_support)
        monkeypatch.setattr(Poly, "__mul__", counted_product)
        monkeypatch.setattr(homology._Tensor, "support", forbidden)
        monkeypatch.setattr(ComponentLabel, "__new__", forbidden)
        prod = tensor(*factors, module=module)
        pushed = pushforward_substitute(prod)
        monkeypatch.undo()
        assert pushed == want and not terms_built(prod.poly)
        assert made and pushed.poly is made[-1]
        assert not any(p is q for p in walked for q in made)
        elements = factors if module is None else [module] + factors
        assert checks[:-1] == [(f.component, f.poly.support()) for f in elements]
        # the same fields as the product's support, whose exponents differ
        fields = [[shift for shift, _ in key_fields(s)] for s in (checks[-1][1], pushed.poly.support())]
        assert checks[-1][0] is pushed.component and fields[0] == fields[1]


class TestGolden:
    """The sum map and translation on fixed inputs, pinned in tests/golden/."""

    @pytest.mark.parametrize("name", sorted(SUM_MAP_CASES))
    def test_sum_map(self, name):
        assert_golden_text(name, sum_map_text(name))

    @pytest.mark.parametrize("name", sorted(TRANSLATE_CASES))
    def test_translate(self, name):
        assert_golden_text(name, translate_text(name))
