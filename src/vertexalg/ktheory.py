"""Multiplicative (K-theoretic) side of the characteristic-class calculus.

The base ring is the K-homology of a product of line-bundle towers, a
polynomial ring Q[l] (one generator per factor, l^k dual to the k-th
power of the augmentation class).  K-cohomology operates through the
augmentation coordinates u = L - 1, filtered by total u-degree with an
explicit cutoff standing in for the ideal-adic completion:

    u^j cap l^k = l^(k-j)          (zero when j > k)

Torus-equivariant classes reuse KClass with line presentations: every
summand lists signed lines 1+s, s its augmentation value.  The wedge
series of eq-style lambda-operations is computed in the multiplicative
coordinates x = z - 1, where a line of weight lambda contributes

    1 - (1+x)^lambda (1+s),

inverted factors being expanded with poles along the hyperplane that the
leading part of (1+x)^lambda - 1 exactly divides by.  `wedge_minus_z`
takes one route: one factor per weight, the interpolation-class sum below.
The product of these line factors is kept in the tests as the oracle it is
checked against.

Poles go through `series.expand_poles` once per weight, on
A = 1 - (1+x)^w at its top power P: there F + B splits A into its terms on
the leading block and the rest, and F into the pole form and a unit.  The
lower inverse powers A^(-p) are that numerator times A^(P-p), one product
with A per step, over the same denominator; every product there, and in
the interpolation sum, skips the term pairs past the block bounds, so no
numerator term past them is ever built.  Every other power comes from a
table that grows by one product per power.  The interpolation class v_k,
a polynomial in u, multiplies a term only after its series products, so
those products stay on rational coefficients, which
`TruncSeries.__mul__` multiplies as one integer convolution.

The translation operator D(z) is the multiplicative convolution

    D(z)(l^k) = sum_a x^a sum_K  K! / ((K-k)! (K-a)! (k+a-K)!)  l^K,

its group law D(z)D(w) = D(zw) living over x = z-1, y = w-1 with
zw - 1 = x + y + xy.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .charclass import KClass, Summand
from .homology import MonomialTable, cap_with, contract_with, field_lowering
from .poly import FIELD_MASK, MAX_EXP, Poly, key_fields, shift_name, var_shift
from .series import (
    INF,
    LocalizedSeries,
    TruncSeries,
    VarSet,
    _block_caps,
    _min_order,
    _Powers,
    _summed,
    expand_poles,
    normalize_blocks,
    series_invert_unit,
    trivial_blocks,
)


def l_name(i: Optional[int] = None) -> str:
    return "l" if i is None else "l%d" % i


def gbinom(a: int, k: int) -> Fraction:
    out = Fraction(1)
    for t in range(k):
        out *= Fraction(a - t, t + 1)
    return out


def one_plus_pow(varset: VarSet, weight: Sequence[int], order) -> TruncSeries:
    """prod_i (1 + x_i)^(w_i) as a series, for integer exponents of either sign.

    Nonnegative exponents give an exact polynomial, so the factor keeps an
    exact order claim; any negative exponent needs a finite order.
    """
    out = TruncSeries.const(varset, 1, INF)
    for i, w in zip(range(len(varset)), weight):
        if not w:
            continue
        top = w if w >= 0 else order
        if top is INF or top < 0:
            raise ValueError("negative exponents need a finite order")
        e = [0] * len(varset)
        terms = {}
        for j in range(top + 1):
            e[i] = j
            terms[tuple(e)] = gbinom(w, j)
        out = out * TruncSeries(varset, INF if w >= 0 else order, terms)
    return out


# -- the polynomial K-homology model ----------------------------------------------


def _l_target(u: str) -> str:
    """The K-homology generator that an augmentation generator lowers."""
    if not u.startswith("u"):
        raise ValueError("expected augmentation generators, got %r" % u)
    return l_name(None if u == "u" else int(u[1:]))


def _k_lowering(cokey: int) -> Optional[Tuple]:
    """How an augmentation monomial acts: u_i^j takes j units off l_i,
    with coefficient 1 (see `homology.field_lowering`)."""
    take: Dict[int, int] = {}
    for shift, e in key_fields(cokey):
        target = var_shift(_l_target(shift_name(shift)))
        take[target] = take.get(target, 0) + e
    return field_lowering(1, take, False)


# every augmentation monomial's lowering, planned once for the process:
# u_i always lowers l_i, so it depends on nothing else
_K_LOWERINGS = MonomialTable(_k_lowering)


def k_cap(upoly: Poly, lpoly: Poly) -> Poly:
    """Cap product of an augmentation polynomial against K-homology.

    Factor pairing is by suffix: u_i lowers powers of l_i.
    """
    return cap_with(upoly, lpoly, _K_LOWERINGS)


def k_contract(p: Poly) -> Poly:
    """Pair the augmentation part of a mixed polynomial against its K-homology part.

    Keys are split by the mask of the u-generator fields; each distinct
    augmentation part acts on the rest by cap, through its lowering planned
    once for the process, so capping a series against a series reduces to
    the plain series product followed by this contraction coefficientwise.
    """
    comask = 0
    for shift, _ in key_fields(p.support()):
        if shift_name(shift).startswith("u"):
            comask |= FIELD_MASK << shift
    return contract_with(p, comask, _K_LOWERINGS)


def mult_translate_series(ts: TruncSeries, var: str, lvar: str, trunc: int) -> TruncSeries:
    """Apply the translation convolution in one named coordinate to a series
    whose coefficients already carry K-homology generators: the powers of
    ``lvar`` convolve along ``var``."""
    vs = ts.varset
    pos = vs.index(var)
    # every coefficient goes over one denominator, so that contributions to
    # one output coefficient add as integers
    den = lcm(*(p.den for p in ts.terms.values()))
    shift = var_shift(lvar)
    out: Dict[Tuple[int, ...], Dict[int, int]] = {}
    for e, p in ts.terms.items():
        room = trunc - sum(e)
        scale = den // p.den
        for key, c in p.terms.items():
            k = (key >> shift) & FIELD_MASK
            rest = key - (k << shift)
            c *= scale
            for a in range(room + 1):
                e2 = e[:pos] + (e[pos] + a,) + e[pos + 1 :]
                acc = out.setdefault(e2, {})
                for K in range(max(k, a), k + a + 1):
                    if K > MAX_EXP:
                        raise OverflowError("an exponent would exceed %d" % MAX_EXP)
                    coef = factorial(K) // (
                        factorial(K - k) * factorial(K - a) * factorial(k + a - K)
                    )
                    key2 = rest + (K << shift)
                    acc[key2] = acc.get(key2, 0) + c * coef
    return TruncSeries(vs, trunc, {e: Poly.packed(acc, den) for e, acc in out.items()})


# -- lambda operations -------------------------------------------------------------


def exterior_powers(
    lines: Sequence[Tuple[int, Poly]], upto: int, cutoff: int
) -> List[Poly]:
    """Wedge powers 0..upto of a signed sum of lines, u-truncated."""
    t = VarSet(("t",), degrees=(1,))
    total = TruncSeries.const(t, 1, upto)
    for sg, s in lines:
        line = TruncSeries(
            t, upto, {(0,): Fraction(1), (1,): Poly.const(1) + s}
        )
        if sg == 1:
            total = total * line
        elif sg == -1:
            total = total * series_invert_unit(line)
        else:
            raise ValueError("line signs are +1 or -1")
        total = total.map_coefficients(lambda p: p.truncate_degree(cutoff))
    return [total.terms.get((i,), Poly()) for i in range(upto + 1)]


def _vee_classes(summand: Summand, kmax: int, cutoff: int) -> List[Poly]:
    """The interpolation classes vee^0..vee^kmax of `vee_k`, all read from
    one list of wedge powers."""
    if summand.lines is None:
        raise ValueError("this operation needs a line presentation")
    rank, wedges = summand.rank, exterior_powers(summand.lines, kmax, cutoff)
    out = []
    for k in range(kmax + 1):
        signed = (wedges[i] * (gbinom(rank - i, k - i) * (-1) ** (k - i)) for i in range(k + 1))
        out.append(sum(signed, Poly()).truncate_degree(cutoff))
    return out


def vee_k(summand: Summand, k: int, cutoff: int) -> Poly:
    """The k-th interpolation class between wedge powers and the rank.

    vee^k(E) = sum_i (-1)^(k-i) C(rank-i, k-i) wedge^i(E); its augmentation
    valuation is at least k, so cutting off u-degrees bounds the k-range.
    """
    return _vee_classes(summand, k, cutoff)[k]


def _weight_poles(
    varset: VarSet, weight: Sequence[int], P: int, order: int, blocks, depth: int
) -> Tuple[TruncSeries, TruncSeries, List[LocalizedSeries]]:
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


def _wedge_range(s: Summand, cutoff: int) -> Tuple[int, int]:
    """(kmax, P) of one weight's summand on the default route: its wedge
    sum runs over k = 0..kmax, and A = 1 - (1+x)^w enters to the power
    rank - k, so P = max(0, kmax - rank) is the pole order of the factor."""
    honest = all(sg == 1 for sg, _ in s.lines)
    kmax = min(cutoff, s.rank) if honest else cutoff
    return kmax, max(0, kmax - s.rank)


def _weight_factor(
    varset: VarSet,
    weight: Sequence[int],
    s: Summand,
    order: int,
    cutoff: int,
    blocks,
    depth: int,
) -> LocalizedSeries:
    """One weight's factor of the wedge series on the default route, the
    interpolation-class sum sum_k v_k(E) (-W)^k A^(rank-k) with
    W = (1+x)^w and A = 1 - W; a negative power of A comes from the pole
    chain of `_weight_poles`, and with poles every term is over A^(-P)'s
    denominator, built by products within its block caps.  The v_k come
    from one list of wedge powers, and each output coefficient is one sum
    of products over them."""
    kmax, P = _wedge_range(s, cutoff)
    if P:
        W, A, chain = _weight_poles(varset, weight, P, order, blocks, depth)
        den, bounds = chain[0].den, chain[0].block_bounds
        form, D = den[0]
        cleared = _Powers(form.as_series())[D]
        caps = _block_caps(varset, blocks, bounds, den)
    else:
        W = one_plus_pow(varset, weight, order)
        A = TruncSeries.const(varset, 1, INF) - W
        den, bounds, caps = (), None, ()
        cleared = TruncSeries.const(varset, 1, INF)
    neg_w = _Powers(-W, caps)
    A = _Powers(A, caps)
    pairs: Dict[Tuple[int, ...], list] = {}
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


def wedge_minus_z(
    E: KClass,
    order: int,
    cutoff: Optional[int] = None,
    blocks=None,
    depth: Optional[int] = None,
) -> LocalizedSeries:
    """The alternating-wedge series of a K-class in multiplicative coordinates.

    One factor per weight: the interpolation-class sum of `_weight_factor`,
    the defining formula.  The tests check it against the product over
    individual lines, which they keep as an independent route.

    The weight-0 part must be an honest sum of lines; its factor is the
    constant alternating sum of its wedge powers.  Factors of virtual
    weights pick up denominator powers of the pole form; ``depth`` bounds
    the subordinate-block expansion when a weight spans blocks.
    """
    if cutoff is None:
        cutoff = order
    if depth is None:
        depth = order
    vs = E.varset
    blocks = trivial_blocks(vs) if blocks is None else normalize_blocks(vs, blocks)
    out = LocalizedSeries(TruncSeries.const(vs, 1, INF), (), blocks)
    pole_free = []  # (weight, summand), built last
    for w in E.weights():
        s = E.summands[w]
        if s.lines is None:
            raise ValueError("wedge series need line presentations")
        if not any(w):
            if any(sg != 1 for sg, _ in s.lines):
                raise ValueError("weight-0 part must be an honest bundle")
            const = Poly.const(1)
            for _, sval in s.lines:
                const = (const * (-sval)).truncate_degree(cutoff)
            out = out * const
            continue
        if min(w) < 0 and not _wedge_range(s, cutoff)[1]:
            pole_free.append((w, s))
            continue
        out = out * _weight_factor(vs, w, s, order, cutoff, blocks, depth)
    # a pole-free factor of negative weight is exact only to the order it
    # is built to, so it is built past the pole degree of the other factors
    honest_order = order + out.den_degree()
    for w, s in pole_free:
        out = out * _weight_factor(vs, w, s, honest_order, cutoff, blocks, depth)
    return out.map_coefficients(lambda p: p.truncate_degree(cutoff))
