"""Homology models: components, cap products, translation, pushforwards."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertexalg.groups import ClassicalGroup, weyl_average
from vertexalg.homology import (
    CohomologyElement,
    ComponentLabel,
    HomologyElement,
    cap,
    cap_poly,
    contract_poly,
    involution_dual,
    parse_ch,
    pushforward_substitute,
    s_name,
    tensor,
    translate,
    var_weight,
    weyl_normal_form,
)
from vertexalg.poly import Poly
from vertexalg.series import VarSet

BU1 = ComponentLabel("BU_Z", (1,))
BU3 = ComponentLabel("BU_Z", (3,))


def sv(k, factor=None):
    return Poly.variable(s_name(k, factor))


def chv(k, factor=None):
    name = "ch%d" % k if factor is None else "ch%d_%d" % (k, factor)
    return Poly.variable(name)


# -- reference cap: one derivative per exponent unit --------------------------

_CH_RE = re.compile(r"ch(\d+)(?:_(\d+))?\Z")
_LITTLE_X_RE = re.compile(r"x(\d+)(?:_v(\d+))?\Z")


def cap_by_derivatives(ch_poly, poly, component):
    """cap_poly as repeated Poly.diff, the definition the closed form follows."""
    out = Poly()
    for mono, coef in ch_poly.terms.items():
        acted = poly * coef
        for gen, e in mono:
            if acted.is_zero():
                break
            if component.is_s_model():
                got = parse_ch(gen)
                if got is None:
                    raise ValueError("bad character generator %r" % gen)
                k, factor = got
                if k == 0:
                    acted = acted * (Fraction(component.rank(factor)) ** e)
                    continue
                target = s_name(k, factor)
            else:
                if not _LITTLE_X_RE.fullmatch(gen):
                    raise ValueError("bad character generator %r" % gen)
                target = "X" + gen[1:]
            for _ in range(e):
                acted = acted.diff(target)
        out = out + acted
    return out


def contract_by_derivatives(p, component):
    """contract_poly by splitting each monomial and capping with the reference."""
    out = Poly()
    for mono, coef in p.terms.items():
        chpart = []
        spart = []
        for gen, e in mono:
            cohomology = _CH_RE.fullmatch(gen) or _LITTLE_X_RE.fullmatch(gen)
            (chpart if cohomology else spart).append((gen, e))
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
    (ComponentLabel("Torus", (2,)), ["X1", "X2"], ["x1", "x2"]),
    (ComponentLabel("BG_classical", ("gl", 2)), ["X1", "X2"], ["x1", "x2"]),
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
        with pytest.raises(ValueError):
            ComponentLabel("BG_classical", ("e8", 8))
        ComponentLabel("BG_classical", ("so", 5))

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
        assert var_weight("X3") == 2
        mixed = HomologyElement(BU1, sv(1) + sv(2))
        assert not mixed.is_homogeneous()
        assert mixed.degree() is None


class TestCap:
    def test_first_character_on_first_generator(self):
        a = HomologyElement(BU1, sv(1))
        assert cap(chv(1), a).poly == Poly.const(1)

    def test_rank_scalar(self):
        a = HomologyElement(BU3, sv(2))
        assert cap(chv(0), a).poly == sv(2) * 3

    def test_product_of_characters(self):
        a = HomologyElement(BU1, sv(1) * sv(2))
        assert cap(chv(1) * chv(2), a).poly == Poly.const(1)

    def test_module_action(self):
        # capping twice equals capping with the product
        a = HomologyElement(BU3, sv(1) ** 2 * sv(2) + sv(4))
        c1 = chv(1) + chv(0) * 2
        c2 = chv(2) * chv(1) - chv(0)
        lhs = cap(c1 * c2, a)
        rhs = cap(c1, cap(c2, a))
        assert lhs.poly == rhs.poly

    @given(st.integers(-3, 3), st.integers(0, 2), st.integers(0, 2))
    @settings(max_examples=25, deadline=None)
    def test_module_action_random(self, r, e1, e2):
        comp = ComponentLabel("BU_Z", (r,))
        a = HomologyElement(comp, sv(1) ** e1 * sv(2) ** e2 + sv(3) * e1)
        c1 = chv(1) * e1 + chv(0)
        c2 = chv(2) + chv(1) * e2
        assert cap(c1 * c2, a).poly == cap(c1, cap(c2, a)).poly

    def test_factorwise_action(self):
        comp = ComponentLabel("BU_Z", (2, 5))
        a = HomologyElement(comp, sv(1, 1) * sv(1, 2))
        got = cap_poly(chv(1, 2) * chv(0, 1), a.poly, comp)
        assert got == sv(1, 1) * 2

    def test_module_factor_rank(self):
        comp = ComponentLabel("BO_Z", (1, 3))
        a = HomologyElement(comp, sv(2, 0) * sv(1, 1))
        assert cap_poly(chv(0, 0), a.poly, comp) == a.poly * 3
        assert cap_poly(chv(2, 0), a.poly, comp) == sv(1, 1)
        # odd characters act as zero on the orthogonal alphabet
        assert cap_poly(chv(1, 0), a.poly, comp) == Poly()

    def test_cohomology_element_scope(self):
        with pytest.raises(ValueError):
            CohomologyElement(BU1, Poly.variable("ch1_2"))
        c = CohomologyElement(BU1, chv(2))
        a = HomologyElement(BU1, sv(2) * sv(1))
        assert c.cap(a).poly == sv(1)

    def test_bg_cap(self):
        comp = ComponentLabel("BG_classical", ("gl", 2))
        a = HomologyElement(comp, Poly.variable("X1") * Poly.variable("X2"))
        c = CohomologyElement(comp, Poly.variable("x1"))
        assert c.cap(a).poly == Poly.variable("X2")


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
            ("x1", BU1),  # x generator on an s-model
            ("chx", BU1),  # unparsable character name
            ("xq", ComponentLabel("Torus", (1,))),
            ("ch1", ComponentLabel("Torus", (1,))),  # ch generator on a torus
            ("ch0", ComponentLabel("BU_Z", (1, 2))),  # rank of an unnamed factor
            # characters of factors the component lacks
            ("ch0_0", ComponentLabel("BU_Z", (1, 2))),
            ("ch0_3", ComponentLabel("BU_Z", (1, 2))),
            ("ch1_3", ComponentLabel("BU_Z", (1, 2))),
        ],
    )
    def test_cap_rejects(self, gen, comp):
        a = Poly.variable("X1" if comp.model == "Torus" else "s1_1")
        with pytest.raises(ValueError):
            cap_poly(Poly.variable(gen), a, comp)

    @pytest.mark.parametrize(
        "gen, comp",
        [("x1", BU1), ("ch1", ComponentLabel("Torus", (1,)))],
    )
    def test_contract_rejects(self, gen, comp):
        with pytest.raises(ValueError):
            contract_poly(Poly.variable(gen) * Poly.variable("X1"), comp)


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

    def test_bg_translation(self):
        comp = ComponentLabel("BG_classical", ("gl", 2))
        one = HomologyElement(comp, 1)
        t = translate(one, ["z1", "z2"], 3)
        X1, X2 = Poly.variable("X1"), Poly.variable("X2")
        assert t.terms[(1, 1)] == X1 * X2
        assert t.terms[(2, 0)] == X1 * X1 * Fraction(1, 2)

    def test_bg_coweights(self):
        comp = ComponentLabel("Torus", (2,))
        one = HomologyElement(comp, 1)
        t = translate(one, ["z"], 2, coweights=[[1, 1]])
        X1, X2 = Poly.variable("X1"), Poly.variable("X2")
        assert t.terms[(2,)] == (X1 + X2) ** 2 * Fraction(1, 2)


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


class TestWeyl:
    def test_gl2_average(self):
        comp = ComponentLabel("BG_classical", ("gl", 2))
        X1, X2 = Poly.variable("X1"), Poly.variable("X2")
        a = HomologyElement(comp, X1)
        assert weyl_normal_form(a).poly == (X1 + X2) * Fraction(1, 2)
        b = HomologyElement(comp, X1 - X2)
        assert weyl_normal_form(b).poly == Poly()
        assert b == HomologyElement(comp, Poly())

    def test_sp4_average_kills_odd(self):
        comp = ComponentLabel("BG_classical", ("sp", 4))
        a = HomologyElement(comp, Poly.variable("X1"))
        assert weyl_normal_form(a).poly == Poly()
        sq = HomologyElement(comp, Poly.variable("X1") ** 2)
        nf = weyl_normal_form(sq).poly
        expect = (Poly.variable("X1") ** 2 + Poly.variable("X2") ** 2) * Fraction(1, 2)
        assert nf == expect

    def test_idempotent_and_invariant(self):
        comp = ComponentLabel("BG_classical", ("so", 5))
        g = comp.group()
        p = Poly.variable("X1") ** 2 * Poly.variable("X2") + Poly.variable("X1")
        avg = weyl_average(p, g)
        assert weyl_average(avg, g) == avg
        for perm, signs in g.weyl_elements():
            mapping = {
                "X%d" % (i + 1): Poly.variable("X%d" % (perm[i] + 1)) * signs[i]
                for i in range(g.rank)
            }
            assert avg.substitute(mapping) == avg

    def test_rank_bound(self):
        comp = ComponentLabel("BG_classical", ("gl", 6))
        a = HomologyElement(comp, Poly.variable("X1"))
        with pytest.raises(ValueError):
            weyl_normal_form(a)

    def test_only_bg(self):
        with pytest.raises(ValueError):
            weyl_normal_form(HomologyElement(BU1, sv(1)))


class TestGroups:
    def test_dimensions(self):
        assert ClassicalGroup("gl", 3).dimension() == 9
        assert ClassicalGroup("so", 3).dimension() == 3
        assert ClassicalGroup("so", 4).dimension() == 6
        assert ClassicalGroup("sp", 4).dimension() == 10

    def test_root_counts(self):
        # dim g = rank + number of roots
        for g in [
            ClassicalGroup("gl", 3),
            ClassicalGroup("so", 5),
            ClassicalGroup("so", 6),
            ClassicalGroup("sp", 6),
        ]:
            extra = g.rank if g.kind != "gl" else g.n
            assert len(g.roots()) + extra == g.dimension()

    def test_weyl_orders(self):
        for g in [
            ClassicalGroup("gl", 3),
            ClassicalGroup("so", 5),
            ClassicalGroup("so", 6),
            ClassicalGroup("sp", 4),
        ]:
            assert sum(1 for _ in g.weyl_elements()) == g.weyl_order()

    def test_parse(self):
        assert ClassicalGroup.parse("GL(3)") == ClassicalGroup("gl", 3)
        assert ClassicalGroup.parse("sp(4)") == ClassicalGroup("sp", 4)
        with pytest.raises(ValueError):
            ClassicalGroup.parse("f4")

    def test_positive_roots_split(self):
        g = ClassicalGroup("gl", 3)
        mu = (1, 1, 0)
        pos = g.positive_roots_for(mu)
        cent = g.centralizer_roots(mu)
        assert len(pos) == 2
        assert (1, 0, -1) in pos and (0, 1, -1) in pos
        assert (1, -1, 0) in cent and (-1, 1, 0) in cent
        neg = g.positive_roots_for(tuple(-m for m in mu))
        assert sorted(neg) == sorted(tuple(-a for a in r) for r in pos)
