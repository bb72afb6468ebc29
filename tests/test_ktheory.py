"""Multiplicative calculus: translation convolution, lambda classes, wedge series.

`wedge_by_lines` below is the oracle for `wedge_minus_z`: the wedge series
as the product of one factor per signed line, a second route built on the
pole chain of `weight_pole_chain`.  `reference_weight_factor` is the
per-weight sum built on that chain and on tables of the powers of -W and
A, the route the closed form of `_weight_factor` is pinned to.
"""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_outputs import assert_golden
from test_poly import terms_built
from test_series import within_bounds
from vertexalg import ktheory, structures
from vertexalg.charclass import KClass, Summand
from vertexalg.ktheory import (
    _vee_classes,
    _weight_factor,
    _wedge_range,
    exterior_powers,
    gbinom,
    k_cap,
    k_contract,
    mult_translate_series,
    one_plus_pow,
    wedge_minus_z,
)
from vertexalg.poly import FIELD_MASK, MAX_EXP, Poly, sum_of_products, var_shift
from vertexalg.series import (
    INF,
    LazySeries,
    LinearForm,
    LocalizedSeries,
    TruncSeries,
    VarSet,
    _block_caps,
    _min_order,
    _Powers,
    _summed,
    expand_poles,
    iota_expand,
    normalize_blocks,
    series_equal,
    trivial_blocks,
)

X = VarSet(("x",))
XY = VarSet(("x", "y"))
KBLOCKS = (("x",), ("y",))
U = Poly.variable("u")
L = Poly.variable("l")


def upow(lam, bound):
    """(1+u)^lam as a polynomial, exact against l-degrees up to bound."""
    out = Poly()
    top = lam if lam >= 0 else bound
    for j in range(top + 1):
        c = gbinom(lam, j)
        if c:
            out = out + (U ** j) * c
    return out


def one_on(varset, blocks=None):
    return LocalizedSeries(TruncSeries.const(varset, 1, INF), (), blocks)


small_lpoly = st.lists(st.integers(-3, 3), min_size=1, max_size=4).map(
    lambda cs: sum((L ** k) * c for k, c in enumerate(cs)) + Poly()
)


class TestCapModel:
    def test_basic_pairing(self):
        assert k_cap(U, L ** 3) == L ** 2
        assert k_cap(U ** 2, L) == Poly()
        assert k_cap(U ** 3, L ** 3) == Poly.const(1)

    def test_suffix_pairing(self):
        u1 = Poly.variable("u1")
        l1, l2 = Poly.variable("l1"), Poly.variable("l2")
        assert k_cap(u1, l1 * l2 ** 2) == l2 ** 2
        assert k_cap(u1, l2 ** 2) == Poly()

    def test_u_suffix_is_canonical_decimal(self):
        # int() reads each of these suffixes as 1 or 10, but none of them
        # names a u-generator, so capping with it raises
        lpoly = Poly.variable("l1") * Poly.variable("l10")
        for name in ("u01", "u 1", "u1_0", "u+1"):
            for _ in range(2):
                with pytest.raises(ValueError, match="u-generator"):
                    k_cap(Poly.variable(name), lpoly)
                with pytest.raises(ValueError, match="u-generator"):
                    k_contract(Poly.variable(name) * lpoly)
        for u, l in (("u", "l"), ("u1", "l1"), ("u10", "l10")):
            assert k_cap(Poly.variable(u), Poly.variable(l) ** 2) == Poly.variable(l)
            assert k_contract(Poly.variable(u) * Poly.variable(l)) == Poly.const(1)

    def test_contract_mixed(self):
        assert k_contract(U * L ** 2 + L) == L + L
        assert k_contract(U ** 2 * L) == Poly()

    def test_rejects_foreign_generators(self):
        # a lowering or a comask that raises is not kept, so every call raises
        for _ in range(2):
            with pytest.raises(ValueError):
                k_cap(Poly.variable("s1"), L)
            with pytest.raises(ValueError):
                k_contract(Poly.variable("uq") * L)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.tuples(*[st.integers(0, 3)] * 4),
                st.fractions(min_value=-4, max_value=4, max_denominator=6),
            ),
            max_size=8,
        )
    )
    def test_contract_matches_per_term(self, raw):
        # u^j l^k -> l^(k-j) per factor, zero when j > k; twice, so the
        # second call reads lowerings the first one planned
        u1, l1 = Poly.variable("u1"), Poly.variable("l1")
        p = sum(
            (U ** a * L ** b * u1 ** c * l1 ** d * q for (a, b, c, d), q in raw), Poly()
        )
        expected = sum(
            (
                L ** (b - a) * l1 ** (d - c) * q
                for (a, b, c, d), q in raw
                if a <= b and c <= d
            ),
            Poly(),
        )
        assert k_contract(p) == expected
        assert k_contract(p) == expected

    @pytest.mark.parametrize("capped", [True, False])
    def test_contract_of_a_deferred_product(self, capped):
        """A deferred u x l product is capped from its factors and never
        built; a product with a mixed factor is built and contracted.
        Both give the contraction of the product built by the general loop."""
        u1, l1 = Poly.variable("u1"), Poly.variable("l1")
        left = U ** 2 / 3 + u1 * U - 1
        right = L ** 3 * l1 + l1 ** 2 / 2 + 2
        if not capped:
            left = left * l1 + U
            right = L + 1
        p = left * right
        assert p.factors is not None
        expected = k_contract(sum_of_products(((left, right),)))
        for _ in range(2):
            assert k_contract(p) == expected
            assert terms_built(p) != capped
            assert k_contract(right * left) == expected

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 6))
    @settings(max_examples=30, deadline=None)
    def test_iterated_cap(self, i, j, k):
        one_step = k_cap(U ** (i + j), L ** k)
        two_step = k_cap(U ** i, k_cap(U ** j, L ** k))
        assert one_step == two_step


def translated(a, trunc, var="x"):
    """The translation series of the class ``a`` in the one coordinate ``var``."""
    vs = VarSet((var,))
    return mult_translate_series(TruncSeries(vs, trunc, {(0,): a}), var, "l", trunc)


def translate_by_factorials(ts, var, lvar, trunc):
    """`mult_translate_series` by its defining coefficients: each term
    l^k x^e contributes K! / ((K-k)! (K-a)! (k+a-K)!) l^K x^(e+a)."""
    pos, shift = ts.varset.index(var), var_shift(lvar)
    out = {}
    for e, p in ts.terms.items():
        for key, c in p.terms.items():
            k = (key >> shift) & FIELD_MASK
            rest = Poly.packed({key - (k << shift): c}, p.den)
            for a in range(trunc - sum(e) + 1):
                e2 = e[:pos] + (e[pos] + a,) + e[pos + 1 :]
                for K in range(max(k, a), k + a + 1):
                    coef = factorial(K) // (
                        factorial(K - k) * factorial(K - a) * factorial(k + a - K)
                    )
                    out[e2] = out.get(e2, Poly()) + rest * Poly.variable(lvar, K) * coef
    return TruncSeries(ts.varset, trunc, out)


class TestMultTranslate:
    def test_identity_at_one(self):
        # the series at z = 1 (x = 0) leaves the class alone
        for a in (L ** 2, L ** 3 + L * 2, Poly.const(1)):
            out = translated(a, 4)
            assert out.terms.get((0,), Poly()) == a

    def test_first_order_convolution(self):
        out = translated(L, 2)
        assert out.terms[(1,)] == L + L ** 2 * 2

    def test_two_factor_suffixes(self):
        # each coordinate convolves the powers of its own factor's generator
        l1, l2 = Poly.variable("l1"), Poly.variable("l2")
        a = l1 * l2
        out = TruncSeries(XY, 1, {XY.zero_exponent(): a})
        out = mult_translate_series(out, "x", "l1", 1)
        out = mult_translate_series(out, "y", "l2", 1)
        assert out.terms[(0, 0)] == a
        assert out.terms[(1, 0)] == (l1 + l1 ** 2 * 2) * l2
        assert out.terms[(0, 1)] == l1 * (l2 + l2 ** 2 * 2)

    def test_group_law(self):
        trunc = 5
        a = L ** 3 + L * 2
        base = TruncSeries(XY, trunc, {XY.zero_exponent(): a})
        lhs = mult_translate_series(base, "y", "l", trunc)
        lhs = mult_translate_series(lhs, "x", "l", trunc)
        xy = TruncSeries(
            XY, INF, {(1, 0): Fraction(1), (0, 1): Fraction(1), (1, 1): Fraction(1)}
        )
        rhs = translated(a, trunc, "t").compose(XY, {"t": xy})
        assert lhs == rhs

    @given(small_lpoly)
    @settings(max_examples=15, deadline=None)
    def test_group_law_random(self, a):
        trunc = 4
        base = TruncSeries(XY, trunc, {XY.zero_exponent(): a})
        lhs = mult_translate_series(base, "y", "l", trunc)
        lhs = mult_translate_series(lhs, "x", "l", trunc)
        xy = TruncSeries(
            XY, INF, {(1, 0): Fraction(1), (0, 1): Fraction(1), (1, 1): Fraction(1)}
        )
        rhs = translated(a, trunc, "t").compose(XY, {"t": xy})
        assert lhs == rhs

    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 2)),
            st.tuples(small_lpoly, st.integers(0, 2), st.fractions(-2, 2, max_denominator=4)),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from(["x", "y"]),
        st.integers(2, 5),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_the_factorial_coefficients(self, raw, var, trunc):
        # classes with a second generator, which the convolution carries along
        l1 = Poly.variable("l1")
        ts = TruncSeries(XY, trunc, {e: a * l1 ** j * q for e, (a, j, q) in raw.items()})
        got = mult_translate_series(ts, var, "l", trunc)
        assert got == translate_by_factorials(ts, var, "l", trunc)

    def test_claims_no_more_than_its_input(self):
        # an input exact only to order 1 translates to a series exact only
        # to order 1, which agrees with the translation of the full input
        full = TruncSeries(XY, 3, {(0, 0): L, (0, 2): L ** 2})
        cut = full.with_order(1)
        got = mult_translate_series(cut, "x", "l", 3)
        assert got.order == 1
        assert mult_translate_series(full, "x", "l", 3).order == 3
        assert series_equal(
            LocalizedSeries(got), LocalizedSeries(mult_translate_series(full, "x", "l", 3))
        )
        assert mult_translate_series(full, "x", "l", 2).order == 2

    @pytest.mark.parametrize(
        "var, lvar, trunc",
        [("z", "l", 2), ("x", "u", 2), ("x", "l01", 2), ("x", "l 1", 2), ("x", "l-1", 2),
         ("x", "l", 2.0), ("x", "l", True), ("x", "l", -1)],
    )
    def test_rejects_bad_arguments(self, var, lvar, trunc):
        ts = TruncSeries(XY, 3, {(0, 0): L})
        with pytest.raises(ValueError):
            mult_translate_series(ts, var, lvar, trunc)

    def test_exponent_overflow(self):
        ts = TruncSeries(X, 2, {(0,): L ** (MAX_EXP - 1)})
        assert mult_translate_series(ts, "x", "l", 1).terms[(1,)] == (
            L ** (MAX_EXP - 1) * (MAX_EXP - 1) + L ** MAX_EXP * MAX_EXP
        )
        for _ in range(2):
            with pytest.raises(OverflowError):
                mult_translate_series(ts, "x", "l", 2).terms

    def test_call_translates_nothing(self, monkeypatch):
        rows = []
        row = ktheory._translate_row
        monkeypatch.setattr(ktheory, "_translate_row", lambda k, a: rows.append(a) or row(k, a))
        ts = TruncSeries(XY, 3, {(0, 0): L, (1, 0): L ** 2 / 3})
        got = mult_translate_series(ts, "y", "l", 3)
        assert type(got) is LazySeries and not got._made and not rows
        assert (got.varset, got.order) == (XY, 3)
        # bad arguments raise at the call, before any row is read
        for var, lvar, trunc in [("z", "l", 3), ("y", "u", 3), ("y", "l", -1)]:
            with pytest.raises(ValueError):
                mult_translate_series(ts, var, lvar, trunc)
        assert not rows
        assert got.terms == translate_by_factorials(ts, "y", "l", 3).terms and rows

    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.tuples(small_lpoly, st.integers(0, 2), st.fractions(-2, 2, max_denominator=4)),
            min_size=1,
            max_size=5,
        ),
        st.sampled_from(["x", "y"]),
        st.integers(0, 5),
        st.one_of(st.none(), st.integers(0, 6)),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_prop_matches_factorials(self, raw, var, trunc, input_order, data):
        """A window read makes no step past the window and equals the eager
        translation cut to the window, a read of everything after it equals
        the whole, in terms, order and variables, and a window read again,
        over terms made for a wider room, is unchanged."""
        l1 = Poly.variable("l1")
        ts = TruncSeries(XY, input_order, {e: a * l1 ** j * q for e, (a, j, q) in raw.items()})
        want = translate_by_factorials(ts, var, "l", _min_order(trunc, input_order))
        cap = st.tuples(st.sampled_from([(0,), (1,), (0, 1)]), st.integers(-1, 5))
        caps = tuple(data.draw(st.lists(cap, max_size=2)))
        order = data.draw(st.one_of(st.none(), st.integers(0, 6)))
        lazy = mult_translate_series(ts, var, "l", trunc)
        window = lazy._window(caps, order)
        assert window.order == want.order
        # the read made no step past the window
        pos, limit = XY.index(var), _min_order(order, want.order)
        made = [
            tuple(x + f[0] * (i == pos) for i, x in enumerate(e))
            for e, (_, terms) in lazy._made.items()
            for f in terms
        ]
        assert all(sum(m) <= limit for m in made)
        assert all(sum(m[i] for i in idxs) <= cap for m in made for idxs, cap in caps)
        assert window.terms == want._window(caps, order).terms
        assert (lazy.varset, lazy.order, lazy.terms) == (want.varset, want.order, want.terms)
        assert lazy._window(caps, order).terms == window.terms

    @pytest.mark.parametrize("lam", [1, 2, -1])
    def test_weight_property(self, lam):
        # capping with a pure weight class commutes with translation up to
        # the character z^lam of the acting circle
        trunc = 4
        a = L ** 3 + L
        cls = upow(lam, 3 + trunc)
        lhs = translated(a, trunc).map_coefficients(
            lambda p: k_cap(cls, p) if isinstance(p, Poly) else k_cap(cls, Poly.const(p))
        )
        rhs = one_plus_pow(X, (lam,), trunc) * translated(k_cap(cls, a), trunc)
        assert lhs.truncate(trunc) == rhs.truncate(trunc)


class TestLambdaClasses:
    def test_single_line_first_class(self):
        line = Summand(1, None, [(1, U)])
        assert _vee_classes(line, 1, 4)[1] == U

    def test_single_line_telescopes(self):
        line = Summand(1, None, [(1, U)])
        assert _vee_classes(line, 2, 4)[2] == Poly()
        assert _vee_classes(line, 3, 6)[3] == Poly()

    def test_two_lines_top_class(self):
        u1, u2 = Poly.variable("u1"), Poly.variable("u2")
        pair = Summand(2, None, [(1, u1), (1, u2)])
        assert _vee_classes(pair, 2, 4)[2] == u1 * u2
        assert _vee_classes(pair, 3, 6)[3] == Poly()

    def test_virtual_line(self):
        antiline = Summand(-1, None, [(-1, U)])
        assert _vee_classes(antiline, 1, 5)[1] == -U

    def test_filtration_valuation(self):
        # vee^k lands in the k-th power of the augmentation ideal
        u1, u2 = Poly.variable("u1"), Poly.variable("u2")
        mixed = Summand(1, None, [(1, u1), (1, u2), (-1, u1 * u2 + u1 + u2)])
        for k in (1, 2, 3):
            v = _vee_classes(mixed, k, 6)[k]
            assert all(sum(e for _, e in mono) >= k for mono, _ in v.items())

    def test_needs_lines(self):
        with pytest.raises(ValueError):
            _vee_classes(Summand(1, {1: U}), 1, 3)

    def test_classes_from_one_list_of_wedge_powers(self):
        # the classes read from one list of wedge powers are those read
        # with kmax = k, and those of the defining sum over each k's own
        # wedge powers
        u1, u2 = Poly.variable("u1"), Poly.variable("u2")
        summands = [
            Summand(1, None, [(1, U)]),
            Summand(2, None, [(1, u1), (1, u2)]),
            Summand(-1, None, [(-1, U * 2 + U * U)]),
            Summand(1, None, [(1, u1), (1, u2), (-1, u1 * u2 + u1 + u2)]),
        ]
        for s in summands:
            for cutoff in (3, 6):
                classes = _vee_classes(s, 5, cutoff)
                assert classes == [_vee_classes(s, k, cutoff)[k] for k in range(6)]
                assert classes == [vee_by_own_wedges(s, k, cutoff) for k in range(6)]

    def test_wedge_series_reads_wedge_powers_once_per_weight(self, monkeypatch):
        calls = []

        def counting(lines, upto, cutoff):
            calls.append(upto)
            return exterior_powers(lines, upto, cutoff)

        monkeypatch.setattr(ktheory, "exterior_powers", counting)
        E = KClass(
            X,
            {
                (1,): Summand(1, None, [(1, U)]),
                (2,): Summand(-1, None, [(-1, U * 2 + U * U)]),
            },
            5,
        )
        wedge_minus_z(E, 3, 5)
        assert calls == [1, 5]

    def test_exterior_powers_pair(self):
        u1, u2 = Poly.variable("u1"), Poly.variable("u2")
        w = exterior_powers([(1, u1), (1, u2)], 3, 5)
        assert w[0] == Poly.const(1)
        assert w[1] == u1 + u2 + Poly.const(2)
        assert w[2] == (u1 + Poly.const(1)) * (u2 + Poly.const(1))
        assert w[3] == Poly()


def vee_by_own_wedges(summand, k, cutoff):
    """vee^k by its defining sum over the wedge powers up to k alone."""
    wedges = exterior_powers(summand.lines, k, cutoff)
    out = Poly()
    for i in range(k + 1):
        out = out + wedges[i] * (gbinom(summand.rank - i, k - i) * (-1) ** (k - i))
    return out.truncate_degree(cutoff)


def pole_inverse(varset, weight, m, order, blocks=None):
    """((1+x)^w - 1)^(-m) by `expand_poles`, for a nonnegative weight; a
    weight spanning blocks is expanded ``order`` deep."""
    f = one_plus_pow(varset, weight, INF) - TruncSeries.const(varset, 1, INF)
    num = TruncSeries.const(varset, 1, 2 * order + m)
    return expand_poles(num, [(f, m)], blocks or (varset.names,), order)


class TestGeomInverse:
    """Inverse powers of the multiplicative pole (1+x)^w - 1."""

    def test_inverts_single_weight(self):
        gi = pole_inverse(X, (1,), 2, 5)
        w = one_plus_pow(X, (1,), 6) - TruncSeries.const(X, 1, INF)
        prod = gi * LocalizedSeries(w * w, (), gi.blocks)
        assert series_equal(prod, one_on(X))
        assert not series_equal(prod, one_on(X) + one_on(X))

    def test_inverts_content_weight(self):
        gi = pole_inverse(X, (2,), 1, 4)
        w = one_plus_pow(X, (2,), 6) - TruncSeries.const(X, 1, INF)
        assert series_equal(gi * LocalizedSeries(w, (), gi.blocks), one_on(X))

    def test_inverts_spanning_weight(self):
        gi = pole_inverse(XY, (1, 1), 1, 4, blocks=KBLOCKS)
        w = one_plus_pow(XY, (1, 1), INF) - TruncSeries.const(XY, 1, INF)
        prod = gi * LocalizedSeries(w, (), KBLOCKS)
        assert series_equal(prod, one_on(XY, KBLOCKS))
        assert not series_equal(prod, one_on(XY, KBLOCKS).scale(2))

    def test_trivial_and_invalid_multiplicity(self):
        assert series_equal(pole_inverse(X, (1,), 0, 3), one_on(X))
        with pytest.raises(ValueError):
            pole_inverse(X, (1,), -1, 3)


def line_class(weight, s, sign=1, depth=5):
    return KClass(X, {weight: Summand(sign, None, [(sign, s)])}, depth)


def merge_classes(E, F):
    summands = dict(E.summands)
    for w, s in F.summands.items():
        summands[w] = summands[w].add(s) if w in summands else s
    return KClass(E.varset, summands, max(E.depth, F.depth))


def weight_pole_chain(varset, weight, P, order, blocks, depth):
    """W = (1+x)^w, A = 1 - W and the list of A^(-P), A^(-P+1), ..., A^(-1).

    A^(-P) is `expand_poles` of A, and each next entry the last times A,
    all over A^(-P)'s denominator form^D: D = P, plus ``depth`` when the
    weight spans blocks.  No entry holds a numerator term past the block
    bounds.  On an exact A the numerator of A^(-p) is exact to at least
    order + 2D - p: A^(-P) is worked to order + 2D - P and each product
    with A adds one.  A truncated A adds nothing per product, so A^(-P)
    is worked to order + D + P - 1 at once.
    """
    spans = sum(any(weight[varset.index(n)] for n in block) for block in blocks) > 1
    D = P + (depth if spans else 0)
    exact = min(weight) >= 0
    top = order + 2 * D - P if exact else order + D + P - 1
    W = one_plus_pow(varset, weight, top + 1)
    A = TruncSeries.const(varset, 1, INF) - W
    one = TruncSeries.const(varset, 1, top)
    chain = [expand_poles(one, [(A, P)], blocks, depth)]
    a = LocalizedSeries(A, (), blocks)
    for _ in range(P - 1):
        chain.append(chain[-1] * a)
    return W, A, chain


def capped_powers(base, n, caps):
    """base ** 0 .. base ** n, each one product with the last within the
    caps; entry 0 is 1 at the base's order."""
    out = [TruncSeries.const(base.varset, 1, base.order)]
    for _ in range(n):
        out.append(out[-1].__mul__(base, caps))
    return out


def reference_weight_factor(varset, weight, s, order, cutoff, blocks, depth):
    """`_weight_factor` by its defining sum, sum_k v_k(E) (-W)^k A^(rank-k):
    the powers of -W and A come from tables that grow by one product per
    power, a negative power of A from `weight_pole_chain`, and with poles
    every other term is cleared by form^D, all within the block caps."""
    kmax, P = _wedge_range(s, cutoff)
    if P:
        W, A, chain = weight_pole_chain(varset, weight, P, order, blocks, depth)
        den, bounds = chain[0].den, chain[0].block_bounds
        form, D = den[0]
        cleared = _Powers(form.as_series())[D]
        caps = _block_caps(varset, blocks, bounds, den)
    else:
        W = one_plus_pow(varset, weight, order)
        A = TruncSeries.const(varset, 1, INF) - W
        den, bounds, caps = (), None, ()
        cleared = TruncSeries.const(varset, 1, INF)
    neg_w = capped_powers(-W, kmax, caps)
    A = capped_powers(A, max(s.rank, 0), caps)
    pairs = {}
    num_order = INF
    for k, vk in enumerate(_vee_classes(s, kmax, cutoff)):
        if vk.is_zero():
            continue
        m = s.rank - k
        if m < 0:
            term = neg_w[k].__mul__(chain[P + m].num, caps)
        else:
            term = neg_w[k].__mul__(A[m], caps).__mul__(cleared, caps)
        num_order = _min_order(num_order, term.order)
        for e, c in term.terms.items():
            pairs.setdefault(e, []).append((c, vk))
    num = TruncSeries(varset, num_order, _summed(pairs))
    return LocalizedSeries(num, den, blocks, bounds)


def _line_factor(varset, weight, sg, s, order, cutoff, blocks, depth):
    """One signed line's wedge factor 1 - (1+x)^w (1+s), or its inverse.

    With A = 1 - (1+x)^w the inverse expands as
    sum_k (1+x)^(wk) s^k A^(-(k+1)), a finite sum since s is nilpotent
    modulo the cutoff.
    """
    if sg == 1:
        W = one_plus_pow(varset, weight, order)
        return LocalizedSeries(
            TruncSeries.const(varset, 1, INF) - W - W.scale(s), (), blocks
        )
    W, _, chain = weight_pole_chain(varset, weight, cutoff + 1, order, blocks, depth)
    total = TruncSeries.zero(varset, INF)
    spow = Poly.const(1)
    wpow = TruncSeries.const(varset, 1, INF)
    for inv in reversed(chain):
        total = total + (wpow * inv.num).scale(spow)
        spow = (spow * s).truncate_degree(cutoff)
        if spow.is_zero():
            break
        wpow = wpow * W
    top = chain[0]
    return LocalizedSeries(total, top.den, blocks, top.block_bounds)


def wedge_by_lines(E, order, cutoff=None, blocks=None, depth=None):
    """`wedge_minus_z` as the product over individual lines, with the same
    arguments and the same weight-0 factor.  The virtual lines' factors come
    first; an honest line's factor is exact only to the order it is built
    to, so the honest lines follow, built past the virtual lines' pole
    degree."""
    cutoff = order if cutoff is None else cutoff
    depth = order if depth is None else depth
    vs = E.varset
    blocks = trivial_blocks(vs) if blocks is None else normalize_blocks(vs, blocks)
    out = LocalizedSeries(TruncSeries.const(vs, 1, INF), (), blocks)
    honest = []
    for w in E.weights():
        lines = E.summands[w].lines
        if not any(w):
            const = Poly.const(1)
            for _, sval in lines:
                const = (const * (-sval)).truncate_degree(cutoff)
            out = out * const
            continue
        for sg, sval in lines:
            if sg == 1:
                honest.append((w, sval))
            else:
                out = out * _line_factor(vs, w, sg, sval, order, cutoff, blocks, depth)
    honest_order = order + out.den_degree()
    for w, sval in honest:
        out = out * _line_factor(vs, w, 1, sval, honest_order, cutoff, blocks, depth)
    return out.map_coefficients(lambda p: p.truncate_degree(cutoff))


def dominant_class():
    """The virtual class pulled back along [[1], [1]], whose wedge series is
    the dominant call of the multiplicative swap's right side."""
    return KClass(
        X,
        {
            (1,): Summand(1, None, [(1, U)]),
            (2,): Summand(-1, None, [(-1, U * 2 + U * U)]),
        },
        5,
    ).pullback_weights([[1], [1]], XY)


class TestWedgeSeries:
    def test_honest_line(self):
        w = wedge_minus_z(line_class((1,), U), 3)
        expected = LocalizedSeries(
            TruncSeries(X, INF, {(0,): -U, (1,): Poly.const(-1) - U}), ()
        )
        assert series_equal(w, expected)
        assert not series_equal(w, expected + one_on(X))

    def test_weight_zero_factor(self):
        u1, u2 = Poly.variable("u1"), Poly.variable("u2")
        E = KClass(
            X,
            {
                (0,): Summand(2, None, [(1, u1), (1, u2)]),
                (1,): Summand(1, None, [(1, U)]),
            },
            4,
        )
        w = wedge_minus_z(E, 3)
        wline = wedge_minus_z(line_class((1,), U), 3)
        assert series_equal(w, wline * (u1 * u2))

    def test_weight_zero_virtual_rejected(self):
        E = KClass(X, {(0,): Summand(0, None, [(1, U), (-1, U)])}, 3)
        with pytest.raises(ValueError):
            wedge_minus_z(E, 3)

    def test_needs_line_presentation(self):
        E = KClass(X, {(1,): Summand(1, {1: U})}, 3)
        with pytest.raises(ValueError):
            wedge_minus_z(E, 3)

    def test_multiplicative(self):
        # the wedge series of a sum is the product of the wedge series,
        # modulo filtration degrees above the cutoff
        E = KClass(
            X,
            {
                (1,): Summand(1, None, [(1, U)]),
                (2,): Summand(-1, None, [(-1, U * 2 + U * U)]),
            },
            5,
        )
        F = line_class((1,), U * Fraction(1, 2))
        order, cutoff = 4, 4

        def crop(w):
            return w.map_coefficients(
                lambda p: p.truncate_degree(cutoff) if isinstance(p, Poly) else p
            )

        lhs = crop(wedge_minus_z(merge_classes(E, F), order, cutoff))
        rhs = crop(wedge_minus_z(E, order, cutoff) * wedge_minus_z(F, order, cutoff))
        assert series_equal(lhs, rhs)
        assert not series_equal(lhs, rhs + one_on(X))

    def test_routes_agree(self):
        E = KClass(
            X,
            {
                (1,): Summand(2, None, [(1, U), (1, U * 3)]),
                (2,): Summand(-1, None, [(-1, U * 2 + U * U)]),
            },
            4,
        )
        a = wedge_minus_z(E, 4, 4)
        b = wedge_by_lines(E, 4, 4)
        assert series_equal(a, b)
        assert not series_equal(a, b + one_on(X))

    def test_routes_agree_spanning(self):
        E = KClass(
            X,
            {
                (1,): Summand(1, None, [(1, U)]),
                (2,): Summand(-1, None, [(-1, U * 2 + U * U)]),
            },
            4,
        ).pullback_weights([[1], [1]], XY)
        a = wedge_minus_z(E, 3, 3, blocks=KBLOCKS, depth=3)
        b = wedge_by_lines(E, 3, 3, blocks=KBLOCKS, depth=3)
        assert series_equal(a, b)
        assert not series_equal(a, b + one_on(XY, KBLOCKS))

    def test_routes_agree_negative_spanning(self):
        # a negative weight makes A = 1 - (1+x)^w a truncated series, so a
        # product with A claims no more than the other factor's order; the
        # line route must still claim the orders pinned here
        cases = [
            (
                KClass(X, {(1,): Summand(-1, None, [(-1, Poly())])}, 4),
                [[1], [-1]], 2, 2, 2, 9,
            ),
            (
                KClass(
                    X,
                    {
                        (1,): Summand(1, None, [(1, U + U * U)]),
                        (-1,): Summand(-1, None, [(-1, Poly())]),
                    },
                    4,
                ),
                [[2], [1]], 1, 2, 1, 7,
            ),
            (
                # the honest line's factor is built past the virtual line's
                # pole degree 3, so the line route stays exact to net order 2
                KClass(X, {(-2,): Summand(0, None, [(1, Poly()), (-1, Poly())])}, 4),
                [[1], [0]], 2, 2, 1, 5,
            ),
        ]
        for base, lift, order, cutoff, depth, claim in cases:
            E = base.pullback_weights(lift, XY)
            a = wedge_minus_z(E, order, cutoff, blocks=KBLOCKS, depth=depth)
            b = wedge_by_lines(E, order, cutoff, blocks=KBLOCKS, depth=depth)
            assert b.num.order == claim
            assert series_equal(a, b)
            assert not series_equal(a, b + one_on(XY, KBLOCKS))

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([-2, -1, 1, 2]),
                st.lists(
                    st.tuples(st.sampled_from([1, -1]), st.integers(-2, 2)),
                    min_size=1,
                    max_size=2,
                ),
            ),
            min_size=1,
            max_size=2,
            unique_by=lambda t: t[0],
        ),
        st.sampled_from([[[1], [0]], [[0], [1]], [[1], [1]], [[2], [1]], [[1], [-1]]]),
        st.integers(0, 3),
        st.integers(1, 2),
    )
    def test_routes_agree_random(self, summands, lift, cutoff, depth):
        E = KClass(
            X,
            {
                (w,): Summand(
                    sum(sg for sg, _ in lines), None, [(sg, U * c) for sg, c in lines]
                )
                for w, lines in summands
            },
            4,
        ).pullback_weights(lift, XY)
        # a product of several pole factors claims less past ``order`` than
        # their total pole degree, so the order must pass the pole degree
        # for the window to be nonempty; pole degrees do not depend on it
        poles = wedge_by_lines(E, 0, cutoff, KBLOCKS, depth=depth)
        order = poles.den_degree() + 1
        a = wedge_minus_z(E, order, cutoff, blocks=KBLOCKS, depth=depth)
        b = wedge_by_lines(E, order, cutoff, blocks=KBLOCKS, depth=depth)
        assert series_equal(a, b)
        assert not series_equal(a, b + one_on(XY, KBLOCKS))

    def test_negative_honest_weight_past_the_poles(self):
        # the honest weight (-2,) is pole-free, the virtual line (-1,) has
        # pole degree 2; built only to the order, the honest factor used to
        # leave the default route an empty window (valid order -1)
        E = KClass(
            X,
            {
                (-2,): Summand(1, None, [(1, Poly())]),
                (-1,): Summand(-1, None, [(-1, Poly())]),
            },
            4,
        ).pullback_weights([[1], [0]], XY)
        a = wedge_minus_z(E, 1, 1, blocks=KBLOCKS, depth=1)
        b = wedge_by_lines(E, 1, 1, blocks=KBLOCKS, depth=1)
        assert a.den_degree() == 2
        assert a.valid_order() >= 0
        assert series_equal(a, b)
        assert not series_equal(a, b + one_on(XY, KBLOCKS))

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([-2, -1, 1, 2]),
                st.lists(st.integers(-2, 2), min_size=1, max_size=2),
            ),
            min_size=1,
            max_size=2,
            unique_by=lambda t: t[0],
        ),
        st.sampled_from([1, -1]),
        st.sampled_from([[[1], [0]], [[0], [1]], [[1], [1]], [[2], [1]], [[1], [-1]]]),
        st.integers(0, 3),
        st.integers(1, 2),
    )
    def test_routes_agree_at_order_one(self, summands, sign, lift, cutoff, depth):
        # at most one virtual line, the first one drawn, so there is at
        # most one pole factor; every pole-free factor of negative weight
        # is built past its pole degree, so order 1 leaves both routes a
        # nonempty window
        E = KClass(
            X,
            {
                (w,): Summand(
                    sum(sg for sg, _ in lines), None, [(sg, U * c) for sg, c in lines]
                )
                for w, lines in (
                    (w, [(sign if i == j == 0 else 1, c) for j, c in enumerate(cs)])
                    for i, (w, cs) in enumerate(summands)
                )
            },
            4,
        ).pullback_weights(lift, XY)
        a = wedge_minus_z(E, 1, cutoff, blocks=KBLOCKS, depth=depth)
        b = wedge_by_lines(E, 1, cutoff, blocks=KBLOCKS, depth=depth)
        for side in (a, b):
            assert side.valid_order() is INF or side.valid_order() >= 0
        assert series_equal(a, b)
        assert not series_equal(a, b + one_on(XY, KBLOCKS))

    def test_inverse_law(self):
        # the negated class has two virtual summands, so its pole degree is
        # twice the per-factor numerator slack; the order must cover that
        cutoff = 5
        E = KClass(
            X,
            {
                (1,): Summand(1, None, [(1, U)]),
                (2,): Summand(1, None, [(1, U * 2 + U * U)]),
            },
            cutoff,
        )
        prod = wedge_minus_z(E, 8, cutoff) * wedge_minus_z(E.negate(), 8, cutoff)
        prod = prod.map_coefficients(
            lambda p: p.truncate_degree(cutoff) if isinstance(p, Poly) else p
        )
        assert series_equal(prod, one_on(X))
        assert not series_equal(prod, one_on(X).scale(2))

    @pytest.mark.parametrize(
        "order, cutoff, depth",
        [(True, 5, 1), (-1, 5, 1), (2.0, 5, 1), (1, -1, 1), (1, True, 1), (1, 5.0, 1),
         (1, 5, -1), (1, 5, True), (1, 5, 1.0)],
    )
    def test_rejects_bad_orders(self, order, cutoff, depth):
        # checked before any plan lookup: the plans cached at order 1 are
        # not served to order=True, which hashes alike
        E = dominant_class()
        wedge_minus_z(E, 1, 5, KBLOCKS, 1)
        with pytest.raises(ValueError):
            wedge_minus_z(E, order, cutoff, KBLOCKS, depth)

    def test_virtual_pole_multiplicity(self):
        cutoff = 4
        w = wedge_minus_z(line_class((1,), U, sign=-1), 3, cutoff)
        assert len(w.den) == 1
        assert w.den_degree() == cutoff + 1


def assert_factor_matches_reference(varset, weight, s, order, cutoff, blocks, depth):
    got = _weight_factor(varset, weight, s, order, cutoff, blocks, depth)
    want = reference_weight_factor(varset, weight, s, order, cutoff, blocks, depth)
    assert (got.num.terms, got.num.order, got.den, got.block_bounds) == (
        want.num.terms, want.num.order, want.den, want.block_bounds
    )


class TestWeightFactor:
    """The closed form of `_weight_factor` is pinned to the route by power
    tables and the pole chain: the same terms, order, denominator and
    block bounds."""

    def test_random_classes(self):
        # weights in -2..2 on one or two variables, trivial and split
        # blocks, honest and virtual lines, order 1-4, cutoff 2-4, depth 1-3
        rng = random.Random(2506)
        kinds = set()
        for _ in range(200):
            varset = rng.choice([X, XY])
            weight = (0,) * len(varset)
            while not any(weight):
                weight = tuple(rng.randint(-2, 2) for _ in varset.names)
            # one block holds a pole only when the weight lives on one variable
            split = len(varset) == 2 and (all(weight) or rng.random() < 0.5)
            lines = [
                (rng.choice([1, -1]), U * rng.randint(-2, 2) + U * U * rng.randint(-1, 1))
                for _ in range(rng.randint(1, 3))
            ]
            s = Summand(sum(sg for sg, _ in lines), None, lines)
            order, cutoff, depth = rng.randint(1, 4), rng.randint(2, 4), rng.randint(1, 3)
            blocks = KBLOCKS if split else trivial_blocks(varset)
            assert_factor_matches_reference(varset, weight, s, order, cutoff, blocks, depth)
            kinds.add((min(weight) < 0, _wedge_range(s, cutoff)[1] > 0, len(blocks)))
        # every sign of weight, with and without poles, on one and two blocks
        assert len(kinds) == 8

    def test_bench_dominant_call(self):
        # the virtual class pulled back along [[1], [1]], as the right side
        # of the multiplicative swap at trunc 3 builds it
        E = KClass(
            X,
            {
                (1,): Summand(1, None, [(1, U)]),
                (2,): Summand(-1, None, [(-1, U * 2 + U * U)]),
            },
            5,
        ).pullback_weights([[1], [1]], XY)
        for w in E.weights():
            assert_factor_matches_reference(XY, w, E.summands[w], 12, 5, KBLOCKS, 3)

    def test_warm_call_equals_cold_call(self):
        # the bench's dominant wedge, built from fresh plans and again from
        # the cached ones
        E = dominant_class()
        ktheory._factor_plan.cache_clear()
        cold = wedge_minus_z(E, 12, 5, KBLOCKS, depth=3)
        hits = ktheory._factor_plan.cache_info().hits
        warm = wedge_minus_z(E, 12, 5, KBLOCKS, depth=3)
        assert ktheory._factor_plan.cache_info().hits == hits + len(E.weights())
        assert (warm.num.terms, warm.num.order, warm.den, warm.block_bounds) == (
            cold.num.terms, cold.num.order, cold.den, cold.block_bounds
        )

    @pytest.mark.parametrize("sign", [1, -1])
    def test_classes_on_the_same_weights_share_a_plan(self, sign):
        # the same weight, rank and orders, different lines: one plan, and
        # each factor still the defining sum of its own v_k
        lines = [[(sign, U * 2 + U * U)], [(sign, U * 3 - U * U)], [(sign, -U)]]
        ktheory._factor_plan.cache_clear()
        for ls in lines:
            s = Summand(sign, None, ls)
            assert_factor_matches_reference(XY, (1, 1), s, 6, 4, KBLOCKS, 2)
        info = ktheory._factor_plan.cache_info()
        assert (info.currsize, info.hits) == (1, len(lines) - 1)
        # bounded, so a process sweeping orders drops its oldest plans
        assert info.maxsize is not None


def ban_past_cap_terms(monkeypatch):
    """Make every `LocalizedSeries` built from here on raise when it is
    handed a numerator term past its block caps, so that a path run under
    the ban provably builds no term its result drops."""
    built = LocalizedSeries.__init__

    def guarded(self, num, *args, **kwargs):
        built(self, num, *args, **kwargs)
        kept = within_bounds(num, self.den, self.blocks, self.block_bounds)
        if len(kept) < len(num.terms):
            raise AssertionError("a numerator term past the block caps was built")

    monkeypatch.setattr(LocalizedSeries, "__init__", guarded)


# the virtual class of `TestMultiplicativeSwap.test_virtual_weights`
VIRTUAL = KClass(
    X,
    {(1,): Summand(1, None, [(1, U)]), (2,): Summand(-1, None, [(-1, U * 2 + U * U)])},
    5,
)


def k_swap_input(E, a, trunc, cutoff, wedge=wedge_minus_z):
    """The inputs of the multiplicative swap over x = z-1, y = w-1: the
    left side's wedge series wz and the constant series a that it
    translates along y, and the right side's wzw * a and its contracted
    numerator, cut to its order, that it translates along y."""
    Ex = E.pullback_weights([[1], [0]], XY)
    Exy = E.pullback_weights([[1], [1]], XY)
    wz = wedge(Ex, trunc, cutoff, KBLOCKS, depth=trunc)
    den_e = wz.den_degree()
    base = TruncSeries(XY, trunc + den_e, {XY.zero_exponent(): a})
    wzw = wedge(Exy, 2 * trunc + den_e, cutoff, KBLOCKS, depth=trunc)
    rawi = wzw * a
    inum = rawi.num.map_coefficients(k_contract)
    tr = inum.order if inum.order is not INF else 2 * trunc + den_e
    return wz, base, rawi, inum.with_order(tr)


def k_swap_sides(E, a, trunc, cutoff, wedge=wedge_minus_z):
    """Both sides of the multiplicative swap identity over x = z-1, y = w-1,
    with the wedge series of ``wedge``."""
    wz, base, rawi, inum = k_swap_input(E, a, trunc, cutoff, wedge)
    dya = mult_translate_series(base, "y", "l", base.order)
    raw = LocalizedSeries(dya, (), KBLOCKS) * wz
    lhs = LocalizedSeries(
        raw.num.map_coefficients(k_contract), raw.den, KBLOCKS, raw.block_bounds
    )
    num = mult_translate_series(inum, "y", "l", inum.order)
    rhs = iota_expand(
        LocalizedSeries(num, rawi.den, KBLOCKS, rawi.block_bounds), KBLOCKS, trunc
    )
    return lhs, rhs


class TestMultiplicativeSwap:
    """Translating K-homology past a wedge series.

    Like the additive swap lemma, the class data must be weight-consistent
    (powers of the canonical line at matching weights) and the filtration
    cutoff must cover the l-degree of the input plus the truncation order,
    since translation raises l-degrees.
    """

    def test_honest_weights(self):
        E = KClass(
            X,
            {
                (1,): Summand(1, None, [(1, U)]),
                (2,): Summand(1, None, [(1, U * 2 + U * U)]),
            },
            5,
        )
        a = L ** 2
        lhs, rhs = k_swap_sides(E, a, 3, 5)
        assert series_equal(lhs, rhs)
        assert_golden("swap_multiplicative_honest", E, lhs, rhs)
        assert not series_equal(lhs, rhs + one_on(XY, KBLOCKS))

    def test_virtual_weights(self):
        E = KClass(
            X,
            {
                (1,): Summand(1, None, [(1, U)]),
                (2,): Summand(-1, None, [(-1, U * 2 + U * U)]),
            },
            5,
        )
        a = L ** 2
        lhs, rhs = k_swap_sides(E, a, 3, 5)
        assert series_equal(lhs, rhs)
        assert_golden("swap_multiplicative_virtual", E, lhs, rhs)
        assert not series_equal(lhs, rhs + one_on(XY, KBLOCKS))

    def test_right_side_translates_within_the_y_cap(self):
        # wzw bounds the y block, so the right side's translation along y
        # makes no step past the y cap, which `iota_expand` would drop
        _, _, rawi, inum = k_swap_input(VIRTUAL, L ** 2, 3, 5)
        assert rawi.block_bounds == (None, 3)
        ((idxs, ycap),) = _block_caps(XY, KBLOCKS, rawi.block_bounds, rawi.den)
        assert idxs == (1,)
        num = mult_translate_series(inum, "y", "l", inum.order)
        iota_expand(LocalizedSeries(num, rawi.den, KBLOCKS, rawi.block_bounds), KBLOCKS, 3)
        made = [e[1] + f[0] for e, (_, terms) in num._made.items() for f in terms]
        assert made and max(made) <= ycap
        assert any(e[1] + num.order - sum(e) > ycap for e in num._made)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_routes_agree_exactly(self, sign):
        # one line per summand, as in the swap golden files: the line
        # product gives both swap sides term for term, with the same
        # orders, denominators and block bounds
        E = KClass(
            X,
            {
                (1,): Summand(1, None, [(1, U)]),
                (2,): Summand(sign, None, [(sign, U * 2 + U * U)]),
            },
            5,
        )
        sides = k_swap_sides(E, L ** 2, 3, 5)
        oracle = k_swap_sides(E, L ** 2, 3, 5, wedge=wedge_by_lines)
        for x, y in zip(sides, oracle):
            assert (x.num, x.den, x.num.order, x.block_bounds) == (
                y.num, y.den, y.num.order, y.block_bounds
            )

    def test_pole_paths_build_powers_by_tables(self, monkeypatch):
        """Every power on the pole paths of either coordinate law is a
        closed form or comes from a table that grows by one product per
        power: `TruncSeries.__pow__` is never called.  No expansion or wedge
        series on these paths holds a numerator term past its bounds."""
        E = KClass(
            X,
            {
                (1,): Summand(1, None, [(1, U)]),
                (2,): Summand(-1, None, [(-1, U * 2 + U * U)]),
            },
            5,
        )
        classes = [E.pullback_weights(lift, XY) for lift in ([[1], [0]], [[1], [1]])]

        def run():
            # a cached plan would hand over its kernels unbuilt
            ktheory._factor_plan.cache_clear()
            out = [
                wedge(F, 3, 5, KBLOCKS, depth=3)
                for F in classes
                for wedge in (wedge_minus_z, wedge_by_lines)
            ]
            out.append(pole_inverse(XY, (1, 1), 2, 4, blocks=KBLOCKS))
            # a leading part 2x + x^2 with a unit 2 + x, and the additive
            # law's 1/(x+y)^2
            out.append(pole_inverse(XY, (2, 2), 2, 3, blocks=KBLOCKS))
            form, _ = LinearForm.make(XY, {"x": 1, "y": 1})
            additive = one_on(XY).with_denominator(form, mult=2)
            out.append(iota_expand(additive, KBLOCKS, 3))
            # 1/(x+y)^m over a numerator with terms up to y^3
            num = TruncSeries(XY, 8, {(0, 0): 1, (1, 2): 2, (0, 3): -1})
            for m in (1, 2, 4):
                out.append(expand_poles(num, [(form.as_series(), m)], KBLOCKS, 2))
            return [(x.num, x.den, x.block_bounds) for x in out]

        expected = run()

        def forbidden(*args):
            raise AssertionError("a power went through TruncSeries.__pow__")

        monkeypatch.setattr(TruncSeries, "__pow__", forbidden)
        got = run()
        monkeypatch.undo()
        assert got == expected
        for num, den, bounds in expected:
            assert within_bounds(num, den, KBLOCKS, bounds) == num.terms

    def test_wedge_path_drops_no_built_term(self, monkeypatch):
        """The spanning virtual class's wedge series, at the order and depth
        of the swap's right side, is built by products that skip the term
        pairs past the block bounds: nothing on its path filters a term it
        built."""
        E = KClass(
            X,
            {
                (1,): Summand(1, None, [(1, U)]),
                (2,): Summand(-1, None, [(-1, U * 2 + U * U)]),
            },
            5,
        ).pullback_weights([[1], [1]], XY)

        ktheory._factor_plan.cache_clear()
        ban_past_cap_terms(monkeypatch)
        w = wedge_minus_z(E, 12, 5, KBLOCKS, depth=3)
        monkeypatch.undo()
        assert (w.den_degree(), w.block_bounds) == (9, (None, 3))

    def test_comparison_drops_no_built_term(self, monkeypatch):
        """A comparison clears each side's denominators within the caps of
        the difference: a looser-bounded side cleared by a form on the
        bounded block builds no term past the tighter bound, in the
        difference or in the +1 control."""
        s, _ = LinearForm.make(XY, {"x": 1, "y": 1})
        y, _ = LinearForm.make(XY, {"y": 1})
        # 1/(x+y), and the same fraction as y/(y(x+y))
        pole = LocalizedSeries(TruncSeries.const(XY, 1, 8)).with_denominator(s)
        again = LocalizedSeries(TruncSeries(XY, 8, {(0, 1): 1})).with_denominator(s, y)
        lhs = iota_expand(pole, KBLOCKS, 3)
        rhs = iota_expand(again, KBLOCKS, 2)
        assert (lhs.block_bounds, rhs.block_bounds) == ((None, 3), (None, 2))
        ban_past_cap_terms(monkeypatch)
        assert structures.compare_series(lhs, rhs) == (True, True, None)

    def test_weight_inconsistent_data_breaks_it(self):
        # the canonical line's parameter carries weight one; declaring it
        # at weight two is unrepresentable and the check must say so
        E = KClass(X, {(2,): Summand(1, None, [(1, U)])}, 5)
        lhs, rhs = k_swap_sides(E, L ** 2, 2, 4)
        assert not series_equal(lhs, rhs)
