"""Axiom checkers exercised on a pole-free translation product family.

The family here multiplies classes through the sum-map pushforward after
translating each argument by its own coordinate.  Its product is honestly
commutative and associative and has no poles, so every checker has a true
positive; each check also gets a corrupted family as a negative control so
a passing report is never vacuous.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertexalg.homology import (
    ComponentLabel,
    HomologyElement,
    involution_dual,
    pushforward_substitute,
    tensor,
    translate,
)
from vertexalg.ktheory import mult_translate
from vertexalg.poly import Poly
from vertexalg.series import (
    INF,
    LinearForm,
    LocalizedSeries,
    TruncSeries,
    VarSet,
    iota_expand,
    series_equal,
    series_sub_cleared,
)
from vertexalg.structures import (
    ADDITIVE,
    MODULE_POLES,
    MULTIPLICATIVE,
    TWISTED_POLES,
    VA_POLES,
    CheckReport,
    ElementSeries,
    PolePolicy,
    ProductFamily,
    VertexSpace,
    VertexSpaceMap,
    check_associativity,
    check_commutativity,
    check_module_nesting,
    check_translation_axiom,
    check_twisted_lie_identity,
    check_twisted_module,
    check_unit,
    check_vertex_space,
    check_vertex_space_map,
    compare_series,
    in_translation_image,
    koszul_sign,
    lie_bracket,
    nested_product,
    residue_action,
    shift_image,
    shifted_flat,
    translation_operator,
    two_point_operator,
)

S1 = Poly.variable("s1")
S2 = Poly.variable("s2")
S3 = Poly.variable("s3")
L = Poly.variable("l")


def BU(r):
    return ComponentLabel("BU_Z", (r,))


def elem(r, poly):
    return HomologyElement(BU(r), poly)


def translation_product(elements, names, trunc, head_scale=None):
    """Translate each argument by its coordinate, then multiply through
    the sum map.  ``head_scale`` lets the negative controls skew one
    slot's translation."""
    combined = VarSet(tuple(names))
    translated = []
    for i, (a, n) in enumerate(zip(elements, names)):
        t = translate(a, [n], trunc)
        if head_scale is not None and i == 0:
            t = t.substitute_linear(t.varset, {n: {n: head_scale}})
        translated.append(t)
    out = {}
    for combo in itertools.product(*(sorted(t.terms.items()) for t in translated)):
        e = tuple(pair[0][0] for pair in combo)
        if sum(e) > trunc:
            continue
        parts = [
            HomologyElement(a.component, p if isinstance(p, Poly) else Poly.const(p))
            for a, (_, p) in zip(elements, combo)
        ]
        big = pushforward_substitute(tensor(*parts))
        cur = out.get(e)
        out[e] = big.poly if cur is None else cur + big.poly
    target = ComponentLabel("BU_Z", (sum(a.component.index[0] for a in elements),))
    out = {e: p for e, p in out.items() if not p.is_zero()}
    num = TruncSeries(combined, trunc, out)
    return ElementSeries(target, LocalizedSeries(num, ()))


def module_translation_product(elements, names, trunc, move_module=False):
    """Same product, acting on an untranslated last element; the
    corrupted variant translates the module element by the first
    coordinate, which breaks nesting."""
    m = elements[-1]
    heads = list(elements[:-1])
    combined = VarSet(tuple(names))
    translated = [translate(a, [n], trunc) for a, n in zip(heads, names)]
    if move_module and names:
        m_items = sorted(translate(m, [names[0]], trunc).terms.items())
    else:
        m_items = [((0,), m.poly)]
    out = {}
    for combo in itertools.product(*(sorted(t.terms.items()) for t in translated)):
        for me, mp in m_items:
            e = [pair[0][0] for pair in combo]
            if names:
                e[0] += me[0]
            e = tuple(e)
            if sum(e) > trunc:
                continue
            parts = [
                HomologyElement(
                    a.component, p if isinstance(p, Poly) else Poly.const(p)
                )
                for a, (_, p) in zip(heads, combo)
            ] + [
                HomologyElement(
                    m.component, mp if isinstance(mp, Poly) else Poly.const(mp)
                )
            ]
            big = pushforward_substitute(tensor(*parts))
            cur = out.get(e)
            out[e] = big.poly if cur is None else cur + big.poly
    target = ComponentLabel("BU_Z", (sum(a.component.index[0] for a in elements),))
    out = {e: p for e, p in out.items() if not p.is_zero()}
    num = TruncSeries(combined, trunc, out)
    return ElementSeries(target, LocalizedSeries(num, ()))


def symmetrized_action(elements, names, trunc):
    """One-point action compatible with the alternating-sign involution:
    the average of acting by a and by its dual at the reversed
    coordinate."""
    a, m = elements
    (zname,) = names
    plus = module_translation_product((a, m), names, trunc)
    minus = module_translation_product((involution_dual(a), m), names, trunc)
    neg = minus.series.substitute_linear(
        minus.series.varset, {zname: {zname: -1}}
    )
    half = Fraction(1, 2)
    return ElementSeries(plus.component, plus.series.scale(half) + neg.scale(half))


FAMILY = ProductFamily("translation-product", translation_product, VA_POLES)
MODULE = ProductFamily(
    "translation-module",
    module_translation_product,
    MODULE_POLES,
    module=True,
)
TWISTED = ProductFamily(
    "symmetrized-module",
    symmetrized_action,
    TWISTED_POLES,
    module=True,
    involution=involution_dual,
)

small_spoly = st.lists(st.integers(-2, 2), min_size=1, max_size=3).map(
    lambda cs: sum((S1 ** k) * c for k, c in enumerate(cs)) + Poly()
)


class TestCheckReport:
    def test_records_first_counterexample_only(self):
        rep = CheckReport("demo")
        rep.count()
        rep.fail(0, "first", "w0")
        rep.fail(1, "second", "w1")
        assert not rep.passed
        assert rep.counterexample["reason"] == "first"
        assert rep.to_obj()["check"] == "demo"
        assert rep.to_obj()["samples"] == 1

    def test_passes_by_default(self):
        rep = CheckReport("demo")
        assert rep.passed and rep.to_obj()["counterexample"] is None


class TestPolePolicy:
    def test_shapes(self):
        zw = VarSet(("z", "w"))
        diff, _ = LinearForm.make(zw, {"z": 1, "w": -1})
        sm, _ = LinearForm.make(zw, {"z": 1, "w": 1})
        single, _ = LinearForm.make(zw, {"z": 1})
        assert VA_POLES.allows(diff)
        assert not VA_POLES.allows(sm)
        assert not VA_POLES.allows(single)
        assert MODULE_POLES.allows(single)
        assert not MODULE_POLES.allows(sm)
        assert TWISTED_POLES.allows(sm)

    def test_violation_reports_form(self):
        zw = VarSet(("z", "w"))
        sm, _ = LinearForm.make(zw, {"z": 1, "w": 1})
        bad = LocalizedSeries(TruncSeries.const(zw, 1, 5), [(sm, 1)])
        msg = VA_POLES.violation(bad)
        assert msg is not None and "vertex-algebra" in msg
        good = LocalizedSeries(TruncSeries.const(zw, 1, 5), ())
        assert VA_POLES.violation(good) is None

    def test_doubled_coordinate_counts_as_single(self):
        # content is pulled into the numerator, so 2z is the z pole
        zw = VarSet(("z", "w"))
        form, sign, content = LinearForm.make_scaled(zw, [2, 0])
        assert (sign, content) == (1, 2)
        assert MODULE_POLES.allows(form)


class TestCompareSeries:
    def test_equal_and_conclusive(self):
        zw = VarSet(("z", "w"))
        x = LocalizedSeries(TruncSeries.const(zw, 3, 4), ())
        y = LocalizedSeries(TruncSeries.const(zw, 3, 4), ())
        equal, conclusive, witness = compare_series(x, y)
        assert equal and conclusive and witness is None

    def test_difference_yields_witness(self):
        zw = VarSet(("z", "w"))
        x = LocalizedSeries(TruncSeries(zw, 4, {(1, 0): Fraction(2)}), ())
        y = LocalizedSeries(TruncSeries(zw, 4, {(1, 0): Fraction(3)}), ())
        equal, conclusive, witness = compare_series(x, y)
        assert not equal and conclusive
        assert "z^1" in witness

    def test_empty_window_is_inconclusive(self):
        z = VarSet(("z",))
        form, _ = LinearForm.make(z, {"z": 1})
        # numerator trusted to degree 1 under a z^3 pole: no valid window
        x = LocalizedSeries(TruncSeries.const(z, 1, 1), [(form, 3)])
        y = LocalizedSeries(TruncSeries.const(z, 1, 1), [(form, 3)])
        equal, conclusive, _ = compare_series(x, y)
        assert equal and not conclusive


class TestShiftImages:
    def test_additive_image_is_linear(self):
        vs = VarSet(("z", "w"))
        img = shift_image(ADDITIVE, vs, [1, 1], 5)
        assert img.terms == {(1, 0): Fraction(1), (0, 1): Fraction(1)}
        assert img.order is INF

    def test_multiplicative_image_has_cross_term(self):
        vs = VarSet(("x", "y"))
        img = shift_image(MULTIPLICATIVE, vs, [1, 1], 5)
        assert img.terms == {
            (1, 0): Fraction(1),
            (0, 1): Fraction(1),
            (1, 1): Fraction(1),
        }

    def test_negative_weight_inverts(self):
        vs = VarSet(("x",))
        img = shift_image(MULTIPLICATIVE, vs, [-1], 3)
        # 1/(1+x) - 1 = -x + x^2 - x^3 + ...
        assert img.terms == {
            (1,): Fraction(-1),
            (2,): Fraction(1),
            (3,): Fraction(-1),
        }


class TestShiftedFlat:
    def test_matches_engine_expansion(self):
        # shifting u1 -> z0 + w1, u2 -> w2 in 1/(u1 - u2) must agree with
        # expanding 1/(z0 + w1 - w2) directly
        combined = VarSet(("z0", "w1", "w2"))
        blocks = (("z0",), ("w1", "w2"))
        uset = VarSet(("u1", "u2"))
        form, _ = LinearForm.make(uset, {"u1": 1, "u2": -1})
        flat = ElementSeries(
            BU(0), LocalizedSeries(TruncSeries.const(uset, 1, 8), [(form, 1)])
        )
        images = {
            "u1": shift_image(ADDITIVE, combined, [1, 1, 0], 8),
            "u2": shift_image(ADDITIVE, combined, [0, 0, 1], 8),
        }
        got = shifted_flat(flat, images, combined, blocks, 4)
        direct_form, _ = LinearForm.make(combined, {"z0": 1, "w1": 1, "w2": -1})
        direct = iota_expand(
            LocalizedSeries(
                TruncSeries.const(combined, 1, 8), [(direct_form, 1)]
            ),
            blocks,
            4,
        )
        assert series_equal(got.series, direct)
        probe = LocalizedSeries(TruncSeries.const(combined, 1, INF), (), blocks)
        assert not series_equal(got.series, direct + probe)

    def test_unit_factor_splits_off(self):
        # u1 -> x + xy = x * (1 + y): the pole stays on x and the unit
        # inverts into the numerator
        combined = VarSet(("x", "y"))
        blocks = (("x",), ("y",))
        uset = VarSet(("u1",))
        form, _ = LinearForm.make(uset, {"u1": 1})
        flat = ElementSeries(
            BU(0), LocalizedSeries(TruncSeries.const(uset, 1, 6), [(form, 1)])
        )
        xy = TruncSeries(combined, INF, {(1, 0): Fraction(1), (1, 1): Fraction(1)})
        got = shifted_flat(flat, {"u1": xy}, combined, blocks, 4)
        assert len(got.series.den) == 1
        pole, mult = got.series.den[0]
        assert mult == 1 and list(pole.coeffs) == [1, 0]
        expect_num = TruncSeries(
            combined,
            6,
            {(0, k): Fraction((-1) ** k) for k in range(7)},
        )
        expect = LocalizedSeries(expect_num, [(pole, 1)], blocks)
        assert series_equal(got.series, expect)

    def test_rejects_nonexpandable_shift(self):
        # u1 -> x + y^0-free quadratic on the leading block cannot expand
        combined = VarSet(("x", "y"))
        blocks = (("x",), ("y",))
        uset = VarSet(("u1",))
        form, _ = LinearForm.make(uset, {"u1": 1})
        flat = ElementSeries(
            BU(0), LocalizedSeries(TruncSeries.const(uset, 1, 6), [(form, 1)])
        )
        bad = TruncSeries(
            combined, INF, {(0, 1): Fraction(1), (2, 0): Fraction(1)}
        )
        with pytest.raises(NotImplementedError):
            shifted_flat(flat, {"u1": bad}, combined, blocks, 3)


class TestKoszulSign:
    def test_even_swap_is_plus(self):
        assert koszul_sign([0, 0], (1, 0)) == 1
        assert koszul_sign([1, 0], (1, 0)) == 1

    def test_odd_swap_is_minus(self):
        assert koszul_sign([1, 1], (1, 0)) == -1

    def test_three_cycle_of_odds(self):
        # two odd inversions: sign +1
        assert koszul_sign([1, 1, 1], (1, 2, 0)) == 1
        assert koszul_sign([1, 1, 1], (2, 1, 0)) == -1


class TestUnitCheck:
    SAMPLES = [elem(0, Poly.const(1)), elem(1, S1), elem(2, S1 * S1 + S2)]

    def test_family_passes(self):
        rep = check_unit(FAMILY, self.SAMPLES, 4)
        assert rep.passed and rep.samples == 3

    def test_module_passes(self):
        rep = check_unit(MODULE, self.SAMPLES, 3)
        assert rep.passed

    def test_scaled_constant_fails(self):
        def bad(elements, names, trunc):
            out = translation_product(elements, names, trunc)
            return ElementSeries(out.component, out.series.scale(2))

        rep = check_unit(ProductFamily("bad", bad, VA_POLES), self.SAMPLES, 3)
        assert not rep.passed
        assert "constant coefficient" in rep.counterexample["reason"]

    def test_pole_fails(self):
        def bad(elements, names, trunc):
            out = translation_product(elements, names, trunc)
            if len(names) == 1:
                form, _ = LinearForm.make(out.series.varset, {names[0]: 1})
                return ElementSeries(
                    out.component,
                    LocalizedSeries(
                        out.series.num, [(form, 1)], out.series.blocks
                    ),
                )
            return out

        rep = check_unit(ProductFamily("bad", bad, VA_POLES), self.SAMPLES, 3)
        assert not rep.passed
        assert "pole" in rep.counterexample["reason"]


class TestCommutativityCheck:
    def test_pairs_and_triple(self):
        samples = [
            (elem(1, S1), elem(1, Poly.const(1))),
            (elem(1, S1), elem(2, S2)),
            (elem(0, Poly.const(1)), elem(1, S1), elem(1, S1)),
        ]
        rep = check_commutativity(FAMILY, samples, 3)
        assert rep.passed
        # one permutation per pair, five nontrivial ones for the triple
        assert rep.samples == 1 + 1 + 5

    @given(small_spoly, small_spoly)
    @settings(max_examples=10, deadline=None)
    def test_random_pairs(self, p, q):
        rep = check_commutativity(FAMILY, [(elem(1, p), elem(1, q))], 3)
        assert rep.passed

    def test_coordinate_skew_fails(self):
        def bad(elements, names, trunc):
            out = translation_product(elements, names, trunc)
            if len(names) == 2:
                vs = out.series.varset
                bump = TruncSeries(
                    vs, INF, {(1, 0): Fraction(1)}
                ) + TruncSeries.const(vs, 1, INF)
                return ElementSeries(
                    out.component,
                    LocalizedSeries(
                        out.series.num * bump,
                        out.series.den,
                        out.series.blocks,
                    ),
                )
            return out

        rep = check_commutativity(
            ProductFamily("bad", bad, VA_POLES),
            [(elem(1, S1), elem(1, Poly.const(1)))],
            3,
        )
        assert not rep.passed
        assert rep.counterexample["witness"] is not None


class TestAssociativityCheck:
    def test_flat_against_nested(self):
        samples = [
            ((elem(1, S1), elem(1, Poly.const(1))), (elem(1, S1),)),
            ((elem(1, S1),), (elem(0, Poly.const(1)), elem(1, S2))),
        ]
        rep = check_associativity(FAMILY, samples, 3)
        assert rep.passed and rep.samples == 2

    def test_module_variant(self):
        rep = check_associativity(
            MODULE,
            [((elem(1, S1), elem(1, Poly.const(1))), (elem(1, S1), elem(1, S1)))],
            3,
            algebra=FAMILY,
        )
        assert rep.passed

    def test_skewed_inner_translation_fails(self):
        def bad(elements, names, trunc):
            scale = 2 if len(names) >= 2 else None
            return translation_product(elements, names, trunc, head_scale=scale)

        rep = check_associativity(
            ProductFamily("bad", bad, VA_POLES),
            [((elem(1, S1), elem(1, Poly.const(1))), (elem(1, S1),))],
            3,
        )
        assert not rep.passed


MODULE_NESTING_SAMPLES = [
    ((elem(1, S1),), (elem(1, Poly.const(1)),), elem(1, S1)),
    ((elem(1, S2),), (elem(1, S1),), elem(0, Poly.const(1))),
]


class TestModuleNestingCheck:
    def test_passes(self):
        rep = check_module_nesting(MODULE, MODULE_NESTING_SAMPLES, 3)
        assert rep.passed and rep.samples == 2

    def test_moved_module_element_fails(self):
        def bad(elements, names, trunc):
            return module_translation_product(
                elements, names, trunc, move_module=True
            )

        rep = check_module_nesting(
            ProductFamily("bad", bad, MODULE_POLES, module=True),
            [((elem(1, S1),), (elem(1, S1),), elem(1, Poly.const(1)))],
            3,
        )
        assert not rep.passed

    def test_requires_module_family(self):
        with pytest.raises(ValueError):
            check_module_nesting(FAMILY, [], 3)


def reference_nesting(outer, inner, znames, wnames):
    """The reassembly loop ``check_module_nesting`` carried before it called
    ``nested_product``, kept as the reference for it."""
    combined = VarSet(znames + wnames)
    blocks = (znames, wnames)

    def embed_form(form):
        vec = [0] * len(combined)
        for name, c in zip(form.varset.names, form.coeffs):
            if c:
                vec[combined.index(name)] = c
        new, sign, content = LinearForm.make_scaled(combined, vec)
        assert content == 1
        return new, sign

    items = sorted(inner.series.num.terms.items())
    if not items:
        items = [(inner.series.num.varset.zero_exponent(), Poly())]
    total = None
    component = None
    widx = [combined.index(w) for w in wnames]
    for e, p in items:
        if not isinstance(p, Poly):
            p = Poly.const(p)
        out = outer(p)
        component = out.component
        num = out.series.num.rename_variables(combined, {})
        mono = [0] * len(combined)
        for pos, kk in zip(widx, e):
            mono[pos] = kk
        num = num * TruncSeries(combined, INF, {tuple(mono): Fraction(1)})
        scale = Fraction(1)
        den = []
        for f, mdeg in out.series.den:
            nf, sg = embed_form(f)
            den.append((nf, mdeg))
            scale *= Fraction(sg) ** mdeg
        contrib = LocalizedSeries(num.scale(scale), den, blocks)
        total = contrib if total is None else total + contrib
    den_w = []
    scale = Fraction(1)
    for f, mdeg in inner.series.den:
        nf, sg = embed_form(f)
        den_w.append((nf, mdeg))
        scale *= Fraction(sg) ** mdeg
    return ElementSeries(
        component,
        LocalizedSeries(
            total.num.scale(scale),
            list(total.den) + den_w,
            blocks,
            total.block_bounds,
        ),
    )


class TestNestedProduct:
    @pytest.mark.parametrize("sample", MODULE_NESTING_SAMPLES)
    def test_matches_reference(self, sample):
        as_, bs, mm = sample
        znames = tuple("z%d" % (i + 1) for i in range(len(as_)))
        wnames = tuple("w%d" % (i + 1) for i in range(len(bs)))
        work = 5
        inner = MODULE.product(tuple(bs) + (mm,), wnames, work)

        def outer(p):
            head = HomologyElement(inner.component, p)
            return MODULE.product(tuple(as_) + (head,), znames, work)

        got = nested_product(outer, inner.series, znames, wnames)
        want = reference_nesting(outer, inner, znames, wnames)
        assert got.component == want.component
        assert got.series.num.terms == want.series.num.terms
        assert got.series.num.order == want.series.num.order
        assert got.series.den == want.series.den
        assert got.series.blocks == want.series.blocks
        assert got.series.block_bounds == want.series.block_bounds


class TestTranslationOperator:
    def test_rank_times_s1_on_unit(self):
        d1 = translation_operator(FAMILY, elem(1, Poly.const(1)))
        assert d1.poly == S1
        d0 = translation_operator(FAMILY, elem(0, Poly.const(1)))
        assert d0.poly.is_zero()

    def test_raises_weighted_degree_by_two(self):
        ds1 = translation_operator(FAMILY, elem(0, S1))
        assert ds1.poly == S2

    def test_membership_examples(self):
        assert in_translation_image(FAMILY, elem(1, S1))
        assert not in_translation_image(FAMILY, elem(0, S1))
        assert in_translation_image(FAMILY, elem(0, S2))
        assert not in_translation_image(FAMILY, elem(0, S1 * S1))
        assert in_translation_image(FAMILY, elem(0, Poly()))

    def test_membership_spans_combinations(self):
        # degree-4 piece at rank 1: D maps span{s1^2, s2} onto a plane
        img = translation_operator(FAMILY, elem(1, S1 * S1))
        assert in_translation_image(FAMILY, elem(1, img.poly))
        combo = translation_operator(FAMILY, elem(1, S2)).poly + img.poly
        assert in_translation_image(FAMILY, elem(1, combo))

    def test_membership_needs_homogeneous(self):
        with pytest.raises(ValueError):
            in_translation_image(FAMILY, elem(1, S1 + S2))


class TestTranslationAxiom:
    def test_passes(self):
        samples = [
            (elem(1, S1), elem(1, S1)),
            (elem(1, S2), elem(1, Poly.const(1))),
        ]
        rep = check_translation_axiom(FAMILY, samples, 3)
        assert rep.passed and rep.samples == 2

    def test_coordinate_bump_fails(self):
        def bad(elements, names, trunc):
            out = translation_product(elements, names, trunc)
            if len(names) == 2:
                vs = out.series.varset
                bump = TruncSeries.const(vs, 1, INF) + TruncSeries(
                    vs, INF, {(1, 0): Fraction(1)}
                )
                return ElementSeries(
                    out.component,
                    LocalizedSeries(
                        out.series.num * bump,
                        out.series.den,
                        out.series.blocks,
                    ),
                )
            return out

        rep = check_translation_axiom(
            ProductFamily("bad", bad, VA_POLES),
            [(elem(1, S1), elem(1, S1))],
            3,
        )
        assert not rep.passed


class TestTwoPointOperator:
    def test_reads_off_leading_expansion(self):
        y = two_point_operator(FAMILY, elem(1, S1), elem(1, Poly.const(1)), 3)
        assert not y.series.den
        const = y.series.num.terms.get((0,))
        pushed = pushforward_substitute(
            tensor(elem(1, S1), elem(1, Poly.const(1)))
        )
        assert const == pushed.poly


class TestBracketAndResidues:
    def test_abelian_bracket_vanishes(self):
        br = lie_bracket(FAMILY, elem(1, S1), elem(1, S1), 3)
        assert br.poly.is_zero()
        assert br.component == BU(2)

    def test_simple_pole_bracket(self):
        def pole_product(elements, names, trunc):
            out = translation_product(elements, names, trunc)
            if len(names) == 2:
                vs = out.series.varset
                form, _ = LinearForm.make(vs, {names[0]: 1, names[1]: -1})
                return ElementSeries(
                    out.component,
                    LocalizedSeries(
                        out.series.num, [(form, 1)], out.series.blocks
                    ),
                )
            return out

        fam = ProductFamily("pole", pole_product, VA_POLES)
        br = lie_bracket(fam, elem(1, S1), elem(1, Poly.const(1)), 3)
        pushed = pushforward_substitute(
            tensor(elem(1, S1), elem(1, Poly.const(1)))
        )
        assert br.poly == pushed.poly

    def test_residue_action_reads_pole_coefficient(self):
        def pole_action(elements, names, trunc):
            out = module_translation_product(elements, names, trunc)
            if len(names) == 1:
                vs = out.series.varset
                form, _ = LinearForm.make(vs, {names[0]: 1})
                return ElementSeries(
                    out.component,
                    LocalizedSeries(
                        out.series.num, [(form, 1)], out.series.blocks
                    ),
                )
            return out

        fam = ProductFamily("pole-action", pole_action, MODULE_POLES, module=True)
        got = residue_action(fam, elem(1, S1), elem(1, S1), 3)
        pushed = pushforward_substitute(tensor(elem(1, S1), elem(1, S1)))
        assert got.poly == pushed.poly

    def test_regular_action_has_zero_residue(self):
        got = residue_action(MODULE, elem(1, S1), elem(1, S1), 3)
        assert got.poly.is_zero()


class TestTwistedModule:
    TRIPLES = [
        (elem(1, S1), elem(1, Poly.const(1)), elem(1, S1)),
        (elem(1, S2), elem(1, S1), elem(0, Poly.const(1))),
    ]

    def test_symmetrized_action_passes(self):
        rep = check_twisted_module(FAMILY, TWISTED, involution_dual,
                                   self.TRIPLES, 3)
        assert rep.passed and rep.samples == 2

    def test_plain_action_fails_reversal(self):
        rep = check_twisted_module(FAMILY, MODULE, involution_dual,
                                   [self.TRIPLES[0]], 3)
        assert not rep.passed
        assert "reversed" in rep.counterexample["reason"]

    def test_broken_involution_fails_squaring(self):
        def skew(a):
            return HomologyElement(a.component, a.poly * 2)

        rep = check_twisted_module(FAMILY, TWISTED, skew, [self.TRIPLES[0]], 3)
        assert not rep.passed
        assert "square" in rep.counterexample["reason"]

    def test_lie_identity_on_abelian_family(self):
        rep = check_twisted_lie_identity(
            FAMILY, TWISTED, elem(1, S1), elem(1, Poly.const(1)), elem(1, S1), 3
        )
        assert rep.passed

    def test_lie_identity_needs_involution(self):
        with pytest.raises(ValueError):
            check_twisted_lie_identity(
                FAMILY, MODULE, elem(1, S1), elem(1, S1), elem(1, S1), 3
            )


class TestVertexSpaces:
    def test_additive_rank_one(self):
        space = VertexSpace("summand-translation", 1, translate)
        rep = check_vertex_space(
            space, [elem(1, S1), elem(2, S2), elem(1, Poly.const(1))], 4
        )
        assert rep.passed and rep.samples == 3

    def test_additive_rank_two(self):
        two = tensor(elem(1, S1), elem(1, Poly.const(1)))
        space = VertexSpace("pair-translation", 2, translate)
        rep = check_vertex_space(space, [two], 3)
        assert rep.passed

    def test_multiplicative_carrier(self):
        space = VertexSpace(
            "k-translation",
            1,
            lambda a, names, trunc: mult_translate(a, names, trunc),
            law=MULTIPLICATIVE,
            payload=lambda a: a,
            rebuild=lambda a, p: p,
        )
        rep = check_vertex_space(space, [L * L, Poly.const(1) + L], 4)
        assert rep.passed

    def test_wrong_law_fails(self):
        space = VertexSpace("mismatched", 1, translate, law=MULTIPLICATIVE)
        rep = check_vertex_space(space, [elem(1, S1)], 3)
        assert not rep.passed


class TestVertexSpaceMaps:
    SPACE = VertexSpace("summand-translation", 1, translate)

    @staticmethod
    def _translate_action(a, names, trunc):
        return ElementSeries(
            a.component, LocalizedSeries(translate(a, list(names), trunc), ())
        )

    def test_identity_map(self):
        f = VertexSpaceMap(
            "identity", [[1]], self._translate_action, self.SPACE, self.SPACE
        )
        rep = check_vertex_space_map(f, [elem(1, S1)], 3)
        assert rep.passed

    def test_scaled_carrier_map(self):
        def tripled(a, names, trunc):
            out = self._translate_action(a, names, trunc)
            return ElementSeries(out.component, out.series.scale(3))

        f = VertexSpaceMap("tripled", [[1]], tripled, self.SPACE, self.SPACE)
        rep = check_vertex_space_map(f, [elem(1, S1)], 3)
        assert rep.passed

    def test_wrong_lattice_matrix_fails(self):
        f = VertexSpaceMap(
            "doubled", [[2]], self._translate_action, self.SPACE, self.SPACE
        )
        rep = check_vertex_space_map(f, [elem(1, S1)], 3)
        assert not rep.passed
        assert "after the map" in rep.counterexample["reason"]

    def test_map_at_doubled_coordinate_fails_before_the_map(self):
        # translating at 2z agrees with the lattice matrix [[2]] after the
        # map, but a translation applied first is not doubled
        def doubled(a, names, trunc):
            out = self._translate_action(a, names, trunc)
            vs = out.series.varset
            return ElementSeries(
                out.component,
                out.series.substitute_linear(vs, {n: {n: 2} for n in vs.names}),
            )

        f = VertexSpaceMap("doubled", [[2]], doubled, self.SPACE, self.SPACE)
        rep = check_vertex_space_map(f, [elem(1, S1)], 3)
        assert not rep.passed
        assert (
            rep.counterexample["reason"]
            == "translation before the map fails to shift"
        )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            VertexSpaceMap(
                "bad-shape", [[1, 0]], self._translate_action,
                self.SPACE, self.SPACE,
            )
