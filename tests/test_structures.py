"""Axiom checkers exercised on a pole-free translation product family.

The family here multiplies classes through the sum-map pushforward after
translating each argument by its own coordinate.  Its product is honestly
commutative and associative and has no poles, so every checker has a true
positive; each check also gets a corrupted family as a negative control so
a passing report is never vacuous.
"""

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from golden_outputs import NESTING_CASES, assert_golden_text, nesting_text
from vertexalg.homology import (
    ComponentLabel,
    HomologyElement,
    involution_dual,
    pushforward_substitute,
    tensor,
    translate,
)
from vertexalg.ktheory import mult_translate_series
from vertexalg.poly import Poly
from vertexalg.series import (
    INF,
    LinearForm,
    LocalizedSeries,
    TruncSeries,
    VarSet,
    iota_expand,
    residue,
    series_equal,
)
from vertexalg import structures
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


ZW_BLOCKS = (("z",), ("w",))


@st.composite
def iota_pairs(draw):
    """Two iota-expansions over (z, w) of fractions with poles on z, w,
    z + w or z - w: one fraction, or it and a copy with one term changed,
    each at its own numerator order and truncation; low orders under
    poles leave many windows empty."""
    zw = VarSet(("z", "w"))
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    terms = draw(st.dictionaries(exps, st.integers(-2, 2), max_size=4))
    vecs = st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1)])
    poles = draw(st.lists(st.tuples(vecs, st.integers(1, 3)), max_size=2))
    den = [(LinearForm.make_scaled(zw, v)[0], m) for v, m in poles]
    other = dict(terms)
    if draw(st.booleans()):
        other[draw(exps)] = draw(st.integers(-2, 2))
    return tuple(
        iota_expand(
            LocalizedSeries(TruncSeries(zw, draw(st.integers(0, 5)), t), den),
            ZW_BLOCKS,
            draw(st.integers(0, 3)),
        )
        for t in (terms, other)
    )


def empty_window_pair():
    """One fraction, exact only to degree 1 under a pole of degree 3, on
    both sides: nothing lies in the window."""
    zw = VarSet(("z", "w"))
    x = LocalizedSeries(TruncSeries.const(zw, 1, 1), [(LinearForm.make(zw, {"z": 1})[0], 3)])
    return iota_expand(x, ZW_BLOCKS, 1), iota_expand(x, ZW_BLOCKS, 2)


def compare_by_reprobe(lhs, rhs):
    """`compare_series` as first written: a zero difference is conclusive
    unless lhs also equals rhs + 1."""
    cleared = lhs - rhs
    if not cleared.num.is_zero():
        return False, True, structures._first_term(cleared)
    one = LocalizedSeries(TruncSeries.const(lhs.varset, 1, INF), (), lhs.blocks)
    return True, not series_equal(lhs, rhs + one), None


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

    @settings(max_examples=150, deadline=None)
    @given(iota_pairs())
    @example(empty_window_pair())
    def test_prop_probe_matches_the_reprobe(self, pair):
        """The vacuity probe, 1 subtracted from the difference, decides as
        comparing lhs with rhs + 1 did, windows empty or not."""
        lhs, rhs = pair
        one = LocalizedSeries(TruncSeries.const(lhs.varset, 1, INF), (), lhs.blocks)
        assert ((lhs - rhs) - one).num.is_zero() == series_equal(lhs, rhs + one)
        assert compare_series(lhs, rhs) == compare_by_reprobe(lhs, rhs)

    def test_checkers_compare_through_the_module(self, monkeypatch):
        # the benchmark counts comparison windows by replacing this name
        calls = []

        def counting(lhs, rhs):
            calls.append(1)
            return compare_series(lhs, rhs)

        monkeypatch.setattr(structures, "compare_series", counting)
        rep = check_commutativity(FAMILY, [(elem(1, S1), elem(1, S2))], 2)
        assert rep.passed and calls


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

    def test_constant_poly_image(self):
        # u1 -> z + w with coefficients held as constant polynomials reads
        # the same linear part as with plain integers
        combined = VarSet(("z", "w"))
        blocks = (("z",), ("w",))
        uset = VarSet(("u1",))
        form, _ = LinearForm.make(uset, {"u1": 1})
        flat = ElementSeries(
            BU(0), LocalizedSeries(TruncSeries.const(uset, 1, 6), [(form, 1)])
        )
        plain = TruncSeries(combined, INF, {(1, 0): 1, (0, 1): 1})
        held = TruncSeries(
            combined, INF, {(1, 0): Poly.const(1), (0, 1): Poly.const(1)}
        )
        want = shifted_flat(flat, {"u1": plain}, combined, blocks, 3).series
        got = shifted_flat(flat, {"u1": held}, combined, blocks, 3).series
        assert got.num == want.num and got.den == want.den
        assert got.block_bounds == want.block_bounds
        direct_form, _ = LinearForm.make(combined, {"z": 1, "w": 1})
        direct = iota_expand(
            LocalizedSeries(TruncSeries.const(combined, 1, 6), [(direct_form, 1)]),
            blocks,
            3,
        )
        assert series_equal(got, direct)

    def test_kept_later_pole(self):
        # in 1/((u1 - u2) u2) at u1 -> z, u2 -> w the kept pole w divides
        # the expansion of 1/(z - w), which must reach one w-degree deeper
        combined = VarSet(("z", "w"))
        blocks = (("z",), ("w",))
        uset = VarSet(("u1", "u2"))
        diff, _ = LinearForm.make(uset, {"u1": 1, "u2": -1})
        second, _ = LinearForm.make(uset, {"u2": 1})
        flat = ElementSeries(
            BU(0),
            LocalizedSeries(TruncSeries.const(uset, 1, 12), [(diff, 1), (second, 1)]),
        )
        images = {
            "u1": shift_image(ADDITIVE, combined, [1, 0], 12),
            "u2": shift_image(ADDITIVE, combined, [0, 1], 12),
        }
        exact = iota_expand(
            LocalizedSeries(
                TruncSeries.const(combined, 1, 12),
                [(LinearForm.make(combined, {"z": 1, "w": -1})[0], 1),
                 (LinearForm.make(combined, {"w": 1})[0], 1)],
            ),
            blocks,
            12,
        )
        for trunc in (1, 2, 3):
            got = shifted_flat(flat, images, combined, blocks, trunc)
            equal, conclusive, witness = compare_series(got.series, exact)
            assert equal and conclusive, (trunc, witness)

    def test_nonlinear_leading_part(self):
        # u1 -> (1+z)^2 (1+w)^2 - 1: its terms on z alone, 2z + z^2, are the
        # form z times the unit 2 + z, and every other term reaches w
        combined = VarSet(("z", "w"))
        blocks = (("z",), ("w",))
        uset = VarSet(("u1",))
        form, _ = LinearForm.make(uset, {"u1": 1})
        flat = ElementSeries(
            BU(0), LocalizedSeries(TruncSeries.const(uset, 1, 6), [(form, 1)])
        )
        image = shift_image(MULTIPLICATIVE, combined, [2, 2], 6)
        got = shifted_flat(flat, {"u1": image}, combined, blocks, 3).series
        assert [list(f.coeffs) for f, _ in got.den] == [[1, 0]]
        back = got * LocalizedSeries(image, (), blocks)
        one = LocalizedSeries(TruncSeries.const(combined, 1, INF), (), blocks)
        assert series_equal(back, one)
        assert not series_equal(back, one + one)

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

    def test_module_scaled_constant_fails(self):
        def bad(elements, names, trunc):
            out = module_translation_product(elements, names, trunc)
            return ElementSeries(out.component, out.series.scale(2))

        bad_module = ProductFamily("bad", bad, MODULE_POLES, module=True)
        rep = check_unit(bad_module, self.SAMPLES, 3)
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

    def test_counts_trivial_comparisons(self):
        """A sample whose product is zero passes, and is counted as a
        comparison of two zero sides; a nonzero sample is not."""
        samples = [(elem(1, Poly()), elem(1, S1)), (elem(1, S1), elem(2, S2))]
        rep = check_commutativity(FAMILY, samples, 3)
        assert rep.passed and rep.samples == 2
        assert rep.trivial == 1 and rep.to_obj()["trivial"] == 1
        assert rep.notes == []
        assert repr(rep) == "<CheckReport commutativity: pass on 2 samples, 1 trivial>"
        rep = check_commutativity(FAMILY, samples[1:], 3)
        assert rep.trivial == 0 and repr(rep).endswith("on 1 samples>")

    def test_trivial_means_zero_in_the_window(self):
        """Two sides that are zero where both are exact count as trivial,
        whatever either holds past that window; sides equal and nonzero
        in it do not."""
        z = VarSet(("z",))
        high = LocalizedSeries(TruncSeries(z, 3, {(3,): 1, (2,): 5}))
        low = LocalizedSeries(TruncSeries(z, 1, {}))
        for lhs, rhs, trivial in (
            (high, low, 1),
            (low, high, 1),
            (low.with_denominator(LinearForm.make(z, {"z": 1})[0]), high, 1),
            (high, high, 0),
            (low, low, 1),
        ):
            rep = CheckReport("window")
            assert structures._compared(rep, 0, lhs, rhs, "differs")
            assert rep.passed and rep.trivial == trivial

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


def vandermonde_family(degree=None):
    """The translation product times prod_{i<j} (z_i - z_j), which a
    permutation of the coordinates multiplies by its sign."""

    def product(elements, names, trunc):
        out = translation_product(elements, names, trunc)
        vs, n = out.series.varset, len(names)
        vander = TruncSeries.const(vs, 1)
        for i, j in itertools.combinations(range(n), 2):
            vander = vander * TruncSeries.linear(vs, [(k == i) - (k == j) for k in range(n)])
        return ElementSeries(
            out.component,
            LocalizedSeries(out.series.num * vander, out.series.den, out.series.blocks),
        )

    return ProductFamily("vandermonde", product, VA_POLES, degree=degree)


class TestKoszulFamilies:
    """A family's degrees sign its commutativity: the translation product
    times the Vandermonde product commutes with every element odd, and
    neither it without degrees nor the plain product with odd ones does."""

    SAMPLES = [
        (elem(1, S1), elem(1, Poly.const(1))),
        (elem(1, S1), elem(1, S1), elem(2, S2)),
    ]

    def test_odd_elements_of_an_antisymmetric_product_commute(self):
        fam = vandermonde_family(lambda a: 1)
        assert (fam.degree(elem(1, S1)), fam.parity(elem(1, S1))) == (1, 1)
        rep = check_commutativity(fam, self.SAMPLES, 3)
        assert rep.passed and rep.samples == 1 + 5 and rep.trivial == 0

    def test_an_antisymmetric_product_without_degrees_fails(self):
        fam = vandermonde_family()
        assert (fam.degree(elem(1, S1)), fam.parity(elem(1, S1))) == (None, 0)
        rep = check_commutativity(fam, self.SAMPLES, 3)
        assert not rep.passed and rep.counterexample["witness"] is not None

    def test_odd_elements_of_a_symmetric_product_fail(self):
        fam = ProductFamily("odd", translation_product, VA_POLES, degree=lambda a: 1)
        rep = check_commutativity(fam, self.SAMPLES, 3)
        assert not rep.passed and rep.counterexample["witness"] is not None


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
    ``nested_product``, kept as the reference for it: ``outer(p)`` works
    every coefficient at one fixed order."""
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
        num = TruncSeries(
            combined,
            out.series.num.order,
            {f + (0,) * len(wnames): c for f, c in out.series.num.terms.items()},
        )
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


def nesting_pair(family, sample, work):
    """The inner product of a module-nesting sample at ``work`` and its
    outer product as ``nested_product`` takes it."""
    as_, bs, mm = sample
    znames = tuple("z%d" % (i + 1) for i in range(len(as_)))
    wnames = tuple("w%d" % (i + 1) for i in range(len(bs)))
    inner = family.product(tuple(bs) + (mm,), wnames, work)

    def outer(p, order):
        head = HomologyElement(inner.component, p)
        return family.product(tuple(as_) + (head,), znames, order)

    return inner, outer, znames, wnames


class TestNestedProduct:
    @pytest.mark.parametrize("sample", MODULE_NESTING_SAMPLES)
    def test_matches_reference(self, sample):
        for family in (MODULE, origin_pole_family(1)):
            inner, outer, znames, wnames = nesting_pair(family, sample, 5)
            got = nested_product(outer, inner.series, znames)
            want = reference_nesting(
                lambda p: outer(p, 5), inner, znames, wnames
            )
            assert got.component == want.component
            assert got.series.num.terms == want.series.num.terms
            assert got.series.num.order == want.series.num.order
            assert got.series.den == want.series.den
            assert got.series.blocks == want.series.blocks
            assert got.series.block_bounds == want.series.block_bounds

    def test_outer_works_at_the_room_each_coefficient_leaves(self):
        inner, outer, znames, _ = nesting_pair(MODULE, MODULE_NESTING_SAMPLES[0], 4)
        orders = []

        def counted_outer(p, order):
            orders.append(order)
            return outer(p, order)

        nested_product(counted_outer, inner.series, znames)
        assert sorted(orders) == sorted(4 - sum(e) for e in inner.series.num.terms)

    def test_positive_valuation_claims_the_inner_order(self):
        # s1 * w is exact to order 2: its w^3 coefficient is unknown, so
        # nesting it into a translation cannot claim order 3
        inner = LocalizedSeries(TruncSeries(VarSet(("w",)), 2, {(1,): S1}))

        def outer(p, order):
            return ElementSeries(
                BU(1), LocalizedSeries(translate(elem(1, p), ["z"], order))
            )

        got = nested_product(outer, inner, ("z",))
        assert got.series.num.order == 2
        assert got.series.varset.names == ("z", "w")
        assert got.series.num.terms == {
            (0, 1): S1,
            (1, 1): translate(elem(1, S1), ["z"], 1).terms[(1,)],
        }

    def test_zero_inner_series_takes_the_outer_component(self):
        inner = LocalizedSeries(TruncSeries(VarSet(("w",)), 3))
        calls = []

        def outer(p, order):
            calls.append((p, order))
            return ElementSeries(BU(2), LocalizedSeries(translate(elem(2, p), ["z"], order)))

        got = nested_product(outer, inner, ("z",))
        assert calls == [(Poly(), 0)]
        assert got.component == BU(2)
        assert got.series.num.is_zero() and got.series.num.order == 3


class TestNestingGolden:
    """Nested sides of the module-nesting and associativity checks, pinned
    in tests/golden/."""

    @pytest.mark.parametrize("name", sorted(NESTING_CASES))
    def test_nested_side(self, name):
        assert_golden_text(name, nesting_text(name))


class TestNestingNotes:
    def test_associativity_notes_every_sample(self):
        samples = [
            ((elem(1, S1), elem(1, Poly.const(1))), (elem(1, S1),)),
            ((elem(1, S1),), (elem(0, Poly.const(1)), elem(1, S2))),
        ]
        rep = check_associativity(FAMILY, samples, 3)
        assert rep.passed and len(rep.notes) == 2
        for k, note in enumerate(rep.notes):
            assert re.fullmatch(
                r"sample %d: nested order=3, flat order=3, terms=\d+/\d+" % k, note
            )
        assert rep.to_obj()["notes"] == rep.notes

    def test_module_nesting_notes_the_pole_degrees(self):
        inner, outer, znames, _ = nesting_pair(
            origin_pole_family(1), MODULE_NESTING_SAMPLES[0], 5
        )
        lhs = nested_product(outer, inner.series, znames)
        rep = check_module_nesting(
            origin_pole_family(1), MODULE_NESTING_SAMPLES[:1], 3
        )
        # nested: 3 plus the inner and outer pole degrees; flat: 3 plus its
        # pole degree plus 3 for its one form
        assert rep.notes[0].startswith("sample 0: nested order=5, flat order=7, ")
        assert rep.notes[0].split("terms=")[1].split("/")[0] == str(len(lhs.series.num.terms))


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


def with_poles(out, poles):
    """``out`` divided by the linear forms in ``poles``, given as
    (coefficients by name, multiplicity) pairs."""
    vs = out.series.varset
    den = [(LinearForm.make(vs, coeffs)[0], mult) for coeffs, mult in poles]
    return ElementSeries(
        out.component, LocalizedSeries(out.series.num, den, out.series.blocks)
    )


def diagonal_pole_family(power, sum_pole=False):
    """The translation product divided by (z - w)^power on two points,
    and by (z + w) too when ``sum_pole`` is set."""

    def product(elements, names, trunc):
        out = translation_product(elements, names, trunc)
        if len(names) != 2:
            return out
        z, w = names
        poles = [({z: 1, w: -1}, power)] + ([({z: 1, w: 1}, 1)] if sum_pole else [])
        return with_poles(out, poles)

    return ProductFamily("diagonal-pole-%d" % power, product, VA_POLES)


def origin_pole_family(power, base=module_translation_product):
    """A one-point action divided by z^power."""

    def product(elements, names, trunc):
        out = base(elements, names, trunc)
        return with_poles(out, [({names[0]: 1}, power)]) if names else out

    return ProductFamily("origin-pole-%d" % power, product, MODULE_POLES, module=True)


def bracket_at(P, a, b, trunc, order=None):
    """The bracket read from the product at ``order``; by default the
    working order 2 * trunc + 2 * d + 2 that the residue reads used before
    they took their order from the pole degree."""
    d = P.product((a, b), ("z", "w"), 0).series.den_degree()
    if order is None:
        order = 2 * trunc + 2 * d + 2
    full = P.product((a, b), ("z", "w"), order)
    res = residue(full.series, "z", "w", trunc=trunc + d + 1)
    assert not res.den
    return HomologyElement(full.component, res.num.terms.get((0,), Poly()))


def action_at(PM, a, m, trunc, order=None):
    """The residue action read from the action at ``order``; by default
    the former working order trunc + 2 * d + 2."""
    d = PM.product((a, m), ("z",), 0).series.den_degree()
    if order is None:
        order = trunc + 2 * d + 2
    full = PM.product((a, m), ("z",), order)
    res = residue(full.series, "z", 0, trunc=trunc + d + 1)
    assert not res.den
    return HomologyElement(full.component, res.num.constant_term())


def counted(family):
    """``family`` with its product callable wrapped in a counter, and the
    list of the orders of the calls it receives."""
    orders = []

    def product(elements, names, trunc):
        orders.append(trunc)
        return family.product(elements, names, trunc)

    return ProductFamily(family.name, product, family.pole_policy, module=family.module), orders


PAIRS = [
    (elem(1, S1), elem(1, Poly.const(1))),
    (elem(1, S1), elem(1, S1)),
    (elem(1, S2), elem(1, S1)),
    (elem(0, Poly.const(1)), elem(1, S2)),
]


class TestBracketAndResidues:
    def test_abelian_bracket_vanishes(self):
        br = lie_bracket(FAMILY, elem(1, S1), elem(1, S1), 3)
        assert br.poly.is_zero()
        assert br.component == BU(2)

    def test_simple_pole_bracket(self):
        fam = diagonal_pole_family(1)
        br = lie_bracket(fam, elem(1, S1), elem(1, Poly.const(1)), 3)
        pushed = pushforward_substitute(
            tensor(elem(1, S1), elem(1, Poly.const(1)))
        )
        assert br.poly == pushed.poly

    def test_residue_action_reads_pole_coefficient(self):
        fam = origin_pole_family(1)
        got = residue_action(fam, elem(1, S1), elem(1, S1), 3)
        pushed = pushforward_substitute(tensor(elem(1, S1), elem(1, S1)))
        assert got.poly == pushed.poly

    def test_regular_action_has_zero_residue(self):
        got = residue_action(MODULE, elem(1, S1), elem(1, S1), 3)
        assert got.poly.is_zero()


class TestResidueWorkingOrders:
    @pytest.mark.parametrize("power", [1, 2, 3])
    def test_bracket_matches_former_order(self, power):
        fam = diagonal_pole_family(power)
        got = [lie_bracket(fam, a, b, 3) for a, b in PAIRS]
        want = [bracket_at(fam, a, b, 3) for a, b in PAIRS]
        assert [(g.component, g.poly) for g in got] == [
            (w.component, w.poly) for w in want
        ]
        assert any(not g.poly.is_zero() for g in got)

    @pytest.mark.parametrize("power", [1, 2, 3])
    def test_action_matches_former_order(self, power):
        fam = origin_pole_family(power)
        got = [residue_action(fam, a, m, 3) for a, m in PAIRS]
        want = [action_at(fam, a, m, 3) for a, m in PAIRS]
        assert [(g.component, g.poly) for g in got] == [
            (w.component, w.poly) for w in want
        ]
        assert any(not g.poly.is_zero() for g in got)

    # below the pole degree minus one, the residue lies past the product's
    # order, where no coefficient is known, so the read raises
    @pytest.mark.parametrize("power", [2, 3])
    def test_order_below_pole_degree_minus_one_changes_the_bracket(self, power):
        fam = diagonal_pole_family(power)
        a, b = PAIRS[0]
        with pytest.raises(ValueError, match="past the order"):
            bracket_at(fam, a, b, 3, order=power - 2)

    def test_order_below_pole_degree_minus_one_changes_the_action(self):
        fam = origin_pole_family(2)
        a, m = PAIRS[0]
        with pytest.raises(ValueError, match="past the order"):
            action_at(fam, a, m, 3, order=0)

    def test_mixed_pole_keeps_a_pole(self):
        fam = diagonal_pole_family(2, sum_pole=True)
        with pytest.raises(ValueError, match="kept a pole"):
            lie_bracket(fam, *PAIRS[0], 3)

    def test_simple_poles_take_one_product_call(self):
        fam, orders = counted(diagonal_pole_family(1))
        lie_bracket(fam, *PAIRS[0], 3)
        assert orders == [0]
        fam, orders = counted(origin_pole_family(1))
        residue_action(fam, *PAIRS[0], 3)
        assert orders == [0]

    def test_double_pole_works_at_order_one(self):
        fam, orders = counted(diagonal_pole_family(2))
        lie_bracket(fam, *PAIRS[0], 3)
        assert orders == [0, 1]

    def test_two_point_operator_keeps_its_two_calls(self):
        fam, orders = counted(diagonal_pole_family(1))
        two_point_operator(fam, *PAIRS[0], 3)
        assert orders == [0, 2 * 3 + 2 * 1 + 2]

    def test_poles_that_move_with_the_order_raise(self):
        def drifting(elements, names, trunc):
            out = translation_product(elements, names, trunc)
            z, w = names
            return with_poles(out, [({z: 1, w: -1}, 2 if trunc == 0 else 3)])

        fam = ProductFamily("drifting", drifting, VA_POLES)
        with pytest.raises(ValueError, match="truncation order"):
            lie_bracket(fam, *PAIRS[0], 3)
        with pytest.raises(ValueError, match="truncation order"):
            check_translation_axiom(fam, [PAIRS[0]], 3)

        def drifting_action(elements, names, trunc):
            out = module_translation_product(elements, names, trunc)
            return with_poles(out, [({names[0]: 1}, 2 if trunc == 0 else 3)])

        fam = ProductFamily("drifting-action", drifting_action, MODULE_POLES, module=True)
        with pytest.raises(ValueError, match="truncation order"):
            residue_action(fam, *PAIRS[0], 3)
        with pytest.raises(ValueError, match="truncation order"):
            check_module_nesting(fam, MODULE_NESTING_SAMPLES[:1], 3)

    def test_lie_identity_notes_every_residue_read(self):
        rep = check_twisted_lie_identity(
            FAMILY, TWISTED, elem(1, S1), elem(1, Poly.const(1)), elem(1, S1), 3
        )
        assert rep.passed
        assert sorted(rep.notes) == sorted(
            ["lie_bracket: d=0, order=0"] * 2 + ["residue_action: d=0, order=0"] * 6
        )
        assert rep.to_obj()["notes"] == rep.notes

    def test_lie_identity_notes_the_pole_degree(self):
        fam = origin_pole_family(2, base=symmetrized_action)
        fam.involution = involution_dual
        rep = check_twisted_lie_identity(
            diagonal_pole_family(1), fam, elem(1, S1), elem(1, Poly.const(1)),
            elem(1, S1), 3,
        )
        assert rep.notes.count("lie_bracket: d=1, order=0") == 2
        assert rep.notes.count("residue_action: d=2, order=1") == 6


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

    def test_lie_identity_counts_zero_sides(self):
        """On the pole-free family a*m and b*m are both 0, so both sides
        are 0: the sample passes and is counted trivial.  With poles a*m
        is not 0, and a sample whose sides differ is not counted."""
        a, b, m = elem(1, S1), elem(1, Poly.const(1)), elem(1, S1)
        assert residue_action(TWISTED, a, m, 3).poly.is_zero()
        assert residue_action(TWISTED, b, m, 3).poly.is_zero()
        rep = check_twisted_lie_identity(FAMILY, TWISTED, a, b, m, 3)
        assert rep.passed and rep.trivial == 1 and rep.to_obj()["trivial"] == 1
        assert repr(rep).endswith("pass on 1 samples, 1 trivial>")
        fam = origin_pole_family(2, base=symmetrized_action)
        fam.involution = involution_dual
        assert not residue_action(fam, a, m, 3).poly.is_zero()
        rep = check_twisted_lie_identity(diagonal_pole_family(1), fam, a, b, m, 3)
        assert not rep.passed and rep.trivial == 0

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
            lambda a, names, trunc: mult_translate_series(
                TruncSeries(VarSet(names), trunc, {(0,): a}), names[0], "l", trunc
            ),
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
