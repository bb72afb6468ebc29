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

Everything in a weight's factor but the class's lines is planned by
`_factor_plan` for its weight signature (weight, rank, range of k, order,
blocks and depth) and kept in a bounded cache, so a call whose signature
came up before in the process, for this class or another, reuses it.
Poles go through `series.expand_poles` once per plan, on A = 1 - (1+x)^w
at its top power P: there F + B splits A into its terms on the leading
block and the rest, and F into the pole form and a unit.  Every other power
is in closed form: W^k A^j = sum_i (-1)^i C(j,i) W^(k+i) for W = (1+x)^w,
read off binomials at the exponents inside its order and the block caps,
so a kernel of the interpolation sum takes at most one product, with
A^(-P)'s numerator or with a power of the pole form, and no numerator
term past the block bounds is ever built.  Per call, only the
interpolation classes v_k, polynomials in u, are made from the lines, and
each multiplies its cached constant kernel.

The translation operator D(z) is the multiplicative convolution

    D(z)(l^k) = sum_a x^a sum_K  K! / ((K-k)! (K-a)! (k+a-K)!)  l^K,

its group law D(z)D(w) = D(zw) living over x = z-1, y = w-1 with
zw - 1 = x + y + xy.  `mult_translate_series` is a `series.LazySeries`,
as the additive `homology.translate_series` is: a read through a window
convolves each coefficient only to the step the window leaves.
"""

from __future__ import annotations

import re
from functools import cache, lru_cache, reduce
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from .charclass import KClass, Summand
from .homology import cap_with, contract_with, pairing_plan
from .poly import FIELD_MASK, MAX_EXP, MonomialTable, Poly, exact_int, shift_name, var_shift
from .series import (
    INF,
    LazySeries,
    LocalizedSeries,
    TruncSeries,
    VarSet,
    _block_caps,
    _localized,
    _min_order,
    _Powers,
    _summed,
    expand_poles,
    normalize_blocks,
    trivial_blocks,
)


def l_name(i: Optional[int] = None) -> str:
    return "l" if i is None else "l%d" % i


def gbinom(a: int, k: int) -> int:
    """C(a, k) for an integer top of either sign: (-1)^k C(k - a - 1, k) for a < 0."""
    return comb(a, k) if a >= 0 else (-1) ** k * comb(k - a - 1, k)


def _weight_power(varset: VarSet, weight, k: int, j: int, order, limit, caps) -> TruncSeries:
    """W^k A^j in closed form, W = prod_v (1+x_v)^(w_v) and A = 1 - W, claimed
    exact to ``order``: sum_i (-1)^i C(j, i) W^(k+i), at x^e the sum over i of
    (-1)^i C(j, i) prod_v C((k+i) w_v, e_v), built at the exponents of degree
    at most ``limit`` within ``caps`` (a finite limit for a negative weight)."""
    capped = {v: cap for idxs, cap in caps for v in idxs}
    # per exponent prefix: its degree and, over i, (-1)^i C(j, i) times its binomials
    rows = [((), 0, [(-1) ** i * comb(j, i) for i in range(j + 1)])]
    for v, w in enumerate(weight):
        top = _min_order(_min_order(INF if w < 0 else (k + j) * w, limit), capped.get(v))
        cols = [[gbinom(n * w, x) for n in range(k, k + j + 1)] for x in range(top + 1)]
        rows = [
            (e + (x,), d + x, [a * b for a, b in zip(vec, col)])
            for e, d, vec in rows
            for x, col in enumerate(cols)
            if limit is INF or d + x <= limit
        ]
    return TruncSeries(varset, order, {
        e: sum(vec) for e, _, vec in rows
        if all(sum(e[v] for v in idxs) <= cap for idxs, cap in caps)
    })


def one_plus_pow(varset: VarSet, weight: Sequence[int], order) -> TruncSeries:
    """prod_i (1 + x_i)^(w_i) as a series, for integer exponents of either
    sign: exact for nonnegative ones, any negative one needs a finite order."""
    if min(weight, default=0) >= 0:
        order = INF
    elif order is INF or order < 0:
        raise ValueError("negative exponents need a finite order")
    return _weight_power(varset, weight, 1, 0, order, order, ())


# -- the polynomial K-homology model ----------------------------------------------


def _nonnegative(x, what: str) -> int:
    """An integer at least 0, checked by `exact_int`; else ValueError."""
    if exact_int(x, what) < 0:
        raise ValueError("%s must be nonnegative" % what)
    return x


def _factor_index(name: str, letter: str) -> Optional[int]:
    """The factor of the generator ``name``, ``letter`` (None) or ``letter``
    followed by a canonical decimal; any other name, such as one with a
    leading zero, a sign, a space or an underscore, raises ValueError."""
    if not re.fullmatch(letter + r"(?:0|[1-9][0-9]*)?", name):
        raise ValueError("%r names no %s-generator" % (name, letter))
    return int(name[1:]) if name[1:] else None


def _k_act(shift: int) -> Optional[Tuple[int, None]]:
    """How a generator acts in the K-theoretic pairing: u_i takes units
    off the field of l_i (u off that of l), and every other generator is
    acted on (see `homology.pairing_plan`).  A u-name that `_factor_index`
    rejects raises ValueError."""
    name = shift_name(shift)
    if not name.startswith("u"):
        return None
    return var_shift(l_name(_factor_index(name, "u"))), None


# the K-theoretic pairing, planned once for the process: u_i always lowers
# l_i, with no falling factorial, so it depends on nothing else
_K_PLAN = pairing_plan(_k_act, False)


def k_cap(upoly: Poly, lpoly: Poly) -> Poly:
    """Cap product of an augmentation polynomial against K-homology.

    Factor pairing is by suffix: u_i lowers powers of l_i, u^j l^k =
    l^(k-j).  Each augmentation monomial is planned once for the process,
    in the lowering table of the K pairing's `homology.pairing_plan`; a
    generator in ``upoly`` that is not a u-name raises ValueError.
    """
    return cap_with(upoly, lpoly, _K_PLAN[1])


def k_contract(p: Poly) -> Poly:
    """Pair the augmentation part of a mixed polynomial against its K-homology part.

    Keys are split by the mask of the u-generator fields, read from the
    comask table of the K pairing's `homology.pairing_plan` once per
    support; each distinct augmentation part acts on the rest by cap,
    through its lowering planned once for the process, so capping a
    series against a series reduces to the plain series product followed
    by this contraction coefficientwise.
    """
    comasks, lowerings = _K_PLAN
    return contract_with(p, comasks[p.support()], lowerings)


@cache
def _translate_row(k: int, a: int) -> Tuple[Tuple[int, int], ...]:
    """(K, C(K, k) C(k, K - a)) for K = max(k, a) .. k + a: the coefficients
    K! / ((K-k)! (K-a)! (k+a-K)!) of l^K in D(z)(l^k) at x^a."""
    if k + a > MAX_EXP:
        raise OverflowError("an exponent would exceed %d" % MAX_EXP)
    return tuple((K, comb(K, k) * comb(k, K - a)) for K in range(max(k, a), k + a + 1))


def mult_translate_series(ts: TruncSeries, var: str, lvar: str, trunc: int) -> LazySeries:
    """Apply the translation convolution in one named coordinate to a series
    whose coefficients already carry K-homology generators: the powers of
    ``lvar`` convolve along ``var``, by the rows of `_translate_row`.  The
    result claims ``trunc`` or the input's order, whichever is lower.  The
    call translates nothing: it is a `series.LazySeries`, so a read through
    a window convolves each coefficient only to the step the window leaves,
    over that coefficient's own denominator.

    ``var`` must name a variable of the series, ``lvar`` must be l or l
    followed by a canonical decimal and ``trunc`` a nonnegative integer;
    anything else raises ValueError at the call.
    """
    trunc = _nonnegative(trunc, "truncation order")
    if var not in ts.varset.names:
        raise ValueError("%r is not a variable of the series" % (var,))
    _factor_index(lvar, "l")
    shift = var_shift(lvar)

    def make(p: Poly, room: int) -> Dict[Tuple[int], Poly]:
        rows: List[Dict[int, int]] = [{} for _ in range(room + 1)]
        for key, c in p.terms.items():
            k = (key >> shift) & FIELD_MASK
            rest = key - (k << shift)
            for a, acc in enumerate(rows):
                for K, coef in _translate_row(k, a):
                    key2 = rest + (K << shift)
                    acc[key2] = acc.get(key2, 0) + c * coef
        return {(a,): Poly.packed(acc, p.den) for a, acc in enumerate(rows)}

    return LazySeries(ts.truncate(trunc), make, (var,))


# -- lambda operations -------------------------------------------------------------


def exterior_powers(lines: Sequence[Tuple[int, Poly]], upto: int, cutoff: int) -> List[Poly]:
    """Wedge powers 0..upto of a signed sum of lines, u-truncated: the
    coefficients of the product of 1 + (1+s) t over the lines, and of
    1 / (1 + (1+s) t) = sum_i (-(1+s))^i t^i over the antilines."""
    t = VarSet(("t",), degrees=(1,))
    total = TruncSeries.const(t, 1, upto)
    for sg, s in lines:
        if sg not in (1, -1):
            raise ValueError("line signs are +1 or -1")
        line = (Poly.const(1) + s) * sg
        line = TruncSeries(t, upto, {(i,): line ** i for i in range(upto + 1 if sg < 0 else 2)})
        total = (total * line).map_coefficients(lambda p: p.truncate_degree(cutoff))
    return [total.terms.get((i,), Poly()) for i in range(upto + 1)]


def _vee_classes(summand: Summand, kmax: int, cutoff: int) -> List[Poly]:
    """The interpolation classes vee^0..vee^kmax, all read from one list of
    wedge powers: vee^k(E) = sum_i (-1)^(k-i) C(rank-i, k-i) wedge^i(E),
    whose augmentation valuation is at least k, so cutting off u-degrees
    bounds the k-range."""
    if summand.lines is None:
        raise ValueError("this operation needs a line presentation")
    rank, wedges = summand.rank, exterior_powers(summand.lines, kmax, cutoff)
    out = []
    for k in range(kmax + 1):
        signed = (wedges[i] * (gbinom(rank - i, k - i) * (-1) ** (k - i)) for i in range(k + 1))
        out.append(sum(signed, Poly()).truncate_degree(cutoff))
    return out


def _weight_poles(varset: VarSet, weight, P: int, order: int, blocks, depth: int) -> tuple:
    """A^(-P) by `expand_poles` of A = 1 - (1+x)^w, the `_weight_power` at
    k = 0, j = 1, over form^D (D = P, plus ``depth`` if the weight spans
    blocks), and the order T that A is built to on a negative weight.  The
    numerator is worked to order + 2D - P on an exact A and to
    T - 1 = order + D + P - 1 on a truncated one: the orders that multiplying
    it by A up to P - 1 times would leave, which `_factor_plan` claims."""
    spans = sum(any(weight[varset.index(n)] for n in block) for block in blocks) > 1
    D = P + (depth if spans else 0)
    exact = min(weight) >= 0
    top = order + 2 * D - P if exact else order + D + P - 1
    T = INF if exact else top + 1
    A = _weight_power(varset, weight, 0, 1, T, T, ())
    return expand_poles(TruncSeries.const(varset, 1, top), [(A, P)], blocks, depth), T


def _wedge_range(s: Summand, cutoff: int) -> Tuple[int, int]:
    """(kmax, P) of one weight's summand on the default route: its wedge
    sum runs over k = 0..kmax, and A = 1 - (1+x)^w enters to the power
    rank - k, so P = max(0, kmax - rank) is the pole order of the factor."""
    honest = all(sg == 1 for sg, _ in s.lines)
    kmax = min(cutoff, s.rank) if honest else cutoff
    return kmax, max(0, kmax - s.rank)


@lru_cache(maxsize=64)
def _factor_plan(varset: VarSet, weight, rank: int, kmax: int, order: int, blocks, depth: int):
    """What one weight's factor of the wedge series takes from its weight
    signature alone, not from the class's lines: the denominator, block
    bounds, each k's claimed order, and a table of the terms of
    the constant kernels W^k A^(rank-k) keyed by (k, num_order), each made
    on first use within the caps and only to num_order, with at most one
    product: with poles, a kernel with k <= rank is cleared by form^D, and
    one with k > rank is W^k A^(P+rank-k) times A^(-P)'s numerator.  A plan
    is reused only when the same weight, rank, range of k, order, blocks
    and depth come back in the process; the 64 plans last used are kept,
    so a sweep over orders does not hold every plan it made.

    Each k claims the order that multiplying A^(-P) by A term by term would
    give its kernel: INF on a pole-free factor of nonnegative weight, else
    ``order``.  With poles, o0 the order of A^(-P)'s numerator and T that
    of A (`_weight_poles`), a k <= rank claims INF for nonnegative weights,
    else T + D, and a k > rank claims o0 + P + rank - k, else min(o0, T).
    """
    P, exact = max(0, kmax - rank), min(weight) >= 0
    den, bounds, caps, T, D = (), (None,) * len(blocks), (), INF if exact else order, 0
    if P:
        inv, T = _weight_poles(varset, weight, P, order, blocks, depth)
        den, bounds, D, o0 = inv.den, inv.block_bounds, inv.den[0][1], inv.num.order
        caps, forms = _block_caps(varset, blocks, bounds, den), _Powers(den[0][0].as_series())
    claims = [
        (T if exact else T + D) if k <= rank else o0 + P + rank - k if exact else min(o0, T)
        for k in range(kmax + 1)
    ]

    def kernel(key: Tuple[int, Optional[int]]) -> Dict[Tuple[int, ...], Poly]:
        k, num_order = key
        m = rank - k
        if m >= 0:
            term = _weight_power(varset, weight, k, m, T, num_order, caps)
            if P:
                term = term.__mul__(forms[D], caps)
        else:
            # built to num_order, W^k A^j may claim it where A^(-P)'s
            # numerator is exact that far, and their product stops there
            bound = num_order if num_order is not INF and num_order <= o0 else T
            term = _weight_power(varset, weight, k, P + m, bound, num_order, caps)
            term = term.__mul__(inv.num, caps)
        if num_order is INF:
            return term.terms
        return {e: c for e, c in term.terms.items() if sum(e) <= num_order}

    return den, bounds, claims, MonomialTable(kernel)


def _weight_factor(
    varset: VarSet, weight, s: Summand, order: int, cutoff: int, blocks, depth: int
) -> LocalizedSeries:
    """One weight's factor of the wedge series, the interpolation-class sum
    sum_k v_k(E) (-W)^k A^(rank-k) with W = (1+x)^w and A = 1 - W.  The
    constant kernels W^k A^(rank-k), the denominator and the block bounds
    come from the weight's `_factor_plan`; only the v_k, read from one list
    of wedge powers, come from the class's lines.  The factor claims the
    least order the plan claims for a k with v_k nonzero, and each output
    coefficient is one sum of products of kernel terms and (-1)^k v_k.
    """
    kmax, _ = _wedge_range(s, cutoff)
    den, bounds, claims, kernels = _factor_plan(
        varset, weight, s.rank, kmax, order, blocks, depth
    )
    vee = _vee_classes(s, kmax, cutoff)
    terms = [(k, -vk if k % 2 else vk) for k, vk in enumerate(vee) if vk]
    num_order = reduce(_min_order, (claims[k] for k, _ in terms), INF)
    pairs: Dict[Tuple[int, ...], list] = {}
    for k, vk in terms:
        for e, c in kernels[k, num_order].items():
            pairs.setdefault(e, []).append((c, vk))
    # the kernels are built inside the caps, so the sum is in the window
    return _localized(TruncSeries(varset, num_order, _summed(pairs)), den, blocks, bounds)


def wedge_minus_z(
    E: KClass, order: int, cutoff: Optional[int] = None, blocks=None, depth: Optional[int] = None
) -> LocalizedSeries:
    """The alternating-wedge series of a K-class in multiplicative coordinates.

    One factor per weight: the interpolation-class sum of `_weight_factor`,
    the defining formula.  The tests check it against the product over
    individual lines, which they keep as an independent route.

    The weight-0 part must be an honest sum of lines; its factor is the
    constant alternating sum of its wedge powers.  Factors of virtual
    weights pick up denominator powers of the pole form; ``depth`` bounds
    the subordinate-block expansion when a weight spans blocks.  ``order``,
    ``cutoff`` and ``depth`` must be nonnegative integers, else ValueError.
    """
    order = _nonnegative(order, "order")
    cutoff = order if cutoff is None else _nonnegative(cutoff, "cutoff")
    depth = order if depth is None else _nonnegative(depth, "depth")
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
