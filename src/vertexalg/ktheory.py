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
leading part of (1+x)^lambda - 1 exactly divides by.

No power on these paths goes through `TruncSeries.__pow__`.  A `_Powers`
table holds base^0, base^1, ... and grows by one product per new power;
`_PoleData` keeps one each for the inverse unit qinv of the pole, the pole
form, W_lead and R = (1+x)^w_rest - 1, and makes the products
W_lead^j R^j and qinv^n form^(M-n) once per j and per n, so every inverse
power of one weight shares them.  `wedge_minus_z` keeps tables of -W and
A = 1 - W per weight.  The interpolation class v_k, a polynomial in u,
multiplies a term only after its series products, so those products stay
on rational coefficients, which `TruncSeries.__mul__` multiplies as one
integer convolution.

The translation operator D(z) is the multiplicative convolution

    D(z)(l^k) = sum_a x^a sum_K  K! / ((K-k)! (K-a)! (k+a-K)!)  l^K,

its group law D(z)D(w) = D(zw) living over x = z-1, y = w-1 with
zw - 1 = x + y + xy.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .charclass import KClass, Summand
from .homology import cap_with, contract_with, field_lowering
from .poly import FIELD_MASK, MAX_EXP, Poly, key_fields, shift_name, var_shift
from .series import (
    INF,
    LinearForm,
    LocalizedSeries,
    TruncSeries,
    VarSet,
    normalize_blocks,
    series_invert_unit,
    trivial_blocks,
    try_divide_by_form,
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


class _Powers:
    """base ** n for n = 0, 1, 2, ..., each new power one product with the
    last; entry 0 is 1 at the base's order, as `TruncSeries.__pow__` has it."""

    __slots__ = ("base", "table")

    def __init__(self, base: TruncSeries):
        self.base = base
        self.table = [TruncSeries.const(base.varset, 1, base.order)]

    def __getitem__(self, n: int) -> TruncSeries:
        table = self.table
        while len(table) <= n:
            table.append(table[-1] * self.base)
        return table[n]


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


def k_cap(upoly: Poly, lpoly: Poly) -> Poly:
    """Cap product of an augmentation polynomial against K-homology.

    Factor pairing is by suffix: u_i lowers powers of l_i.
    """
    return cap_with(upoly, lpoly, _k_lowering)


def k_contract(p: Poly) -> Poly:
    """Pair the augmentation part of a mixed polynomial against its K-homology part.

    Keys are split by the mask of the u-generator fields; each distinct
    augmentation part acts on the rest by cap, so capping a series against
    a series reduces to the plain series product followed by this
    contraction coefficientwise.
    """
    comask = 0
    for shift, _ in key_fields(p.support()):
        if shift_name(shift).startswith("u"):
            comask |= FIELD_MASK << shift
    return contract_with(p, comask, _k_lowering)


def mult_translate(a: Poly, xvars: Sequence[str], trunc: int) -> TruncSeries:
    """Multiplicative translation series applied to a K-homology polynomial.

    One series coordinate per tower factor, in suffix order; the i-th
    coordinate convolves the l_i-powers.
    """
    vs = VarSet(xvars)
    suffixes: List[Optional[int]] = (
        [None] if len(xvars) == 1 and _only_plain_l(a) else list(range(1, len(xvars) + 1))
    )
    out = TruncSeries(vs, trunc, {vs.zero_exponent(): a})
    for idx, suf in enumerate(suffixes):
        out = _translate_factor(out, idx, l_name(suf), trunc)
    return out


def _only_plain_l(a: Poly) -> bool:
    return all(v == "l" for v in a.variables())


def mult_translate_series(ts: TruncSeries, var: str, lvar: str, trunc: int) -> TruncSeries:
    """Apply the translation convolution in one named coordinate to a series
    whose coefficients already carry K-homology generators."""
    return _translate_factor(ts, ts.varset.index(var), lvar, trunc)


def _translate_factor(
    ts: TruncSeries, pos: int, lvar: str, trunc: int
) -> TruncSeries:
    vs = ts.varset
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


def vee_k(summand: Summand, k: int, cutoff: int) -> Poly:
    """The k-th interpolation class between wedge powers and the rank.

    vee^k(E) = sum_i (-1)^(k-i) C(rank-i, k-i) wedge^i(E); its augmentation
    valuation is at least k, so cutting off u-degrees bounds the k-range.
    """
    if summand.lines is None:
        raise ValueError("this operation needs a line presentation")
    wedges = exterior_powers(summand.lines, k, cutoff)
    out = Poly()
    for i in range(k + 1):
        c = gbinom(summand.rank - i, k - i) * ((-1) ** (k - i))
        if c:
            out = out + wedges[i] * c
    return out.truncate_degree(cutoff)


def _pole_factor(
    varset: VarSet, weight: Sequence[int], order: int
) -> Tuple[LinearForm, TruncSeries]:
    """Split (1+x)^w - 1 as form * unit, or fail for unsupported loci.

    The form is primitive; any content of the weight vector goes into the
    unit (the constant of (1+x)^(2w) - 1 divided by x is 2w).
    """
    w = one_plus_pow(varset, weight, order + 1)
    shifted = w - TruncSeries.const(varset, 1, INF)
    g = 0
    for c in weight:
        g = gcd(g, abs(c))
    form, _ = LinearForm.make(
        varset, {varset.names[i]: c // g for i, c in enumerate(weight) if c}
    )
    q = try_divide_by_form(shifted.truncate(order + 1), form)
    if q is None or not q.constant_term():
        raise NotImplementedError(
            "pole of weight %r is not along a linear hyperplane" % (weight,)
        )
    return form, q


class _PoleData:
    """Split of a weight for expanding poles along (1+x)^w = 1 blockwise.

    The earliest block meeting the support is dominant; (1+x)^w - 1 is
    F + W_lead (W_rest - 1) with F = form * unit over the lead block, and
    inverse powers expand binomially in (W_rest - 1)/F.  The subordinate
    part must sit in a single block (rest_block, None when absent).
    """

    __slots__ = (
        "w_lead", "w_rest", "rest_block", "M", "form", "forms", "qinv", "cleared",
        "wlead", "R", "lead_rest",
    )

    def __init__(self, varset: VarSet, weight: Sequence[int], blocks):
        support = [i for i, c in enumerate(weight) if c]
        if not support:
            raise ValueError("zero weight has no pole to expand")
        lead = next(
            bi for bi, block in enumerate(blocks)
            if any(varset.names[i] in block for i in support)
        )
        self.w_lead = tuple(
            c if varset.names[i] in blocks[lead] else 0
            for i, c in enumerate(weight)
        )
        self.w_rest = tuple(a - b for a, b in zip(weight, self.w_lead))
        rest = {
            bi
            for i, c in enumerate(self.w_rest) if c
            for bi, block in enumerate(blocks) if varset.names[i] in block
        }
        if len(rest) > 1:
            raise NotImplementedError(
                "subordinate part of weight %r spans several blocks" % (weight,)
            )
        self.rest_block = rest.pop() if rest else None

    def compute(self, varset: VarSet, order: int, M: int):
        """Split the pole for numerators over form^M that are exact to
        ``order``; the split itself is worked to order + M."""
        work = order + M
        self.M = M
        self.form, q = _pole_factor(varset, self.w_lead, work)
        self.forms = _Powers(self.form.as_series(INF))
        self.qinv = _Powers(series_invert_unit(q))
        self.cleared: Dict[int, TruncSeries] = {}
        self.lead_rest: List[TruncSeries] = [TruncSeries.const(varset, 1, INF)]
        if self.rest_block is None:
            self.wlead = self.R = None
        else:
            self.wlead = _Powers(one_plus_pow(varset, self.w_lead, work))
            self.R = _Powers(
                one_plus_pow(varset, self.w_rest, work)
                - TruncSeries.const(varset, 1, INF)
            )

    def bounds_for(self, blocks, depth: int):
        out = [None] * len(blocks)
        if self.rest_block is not None:
            out[self.rest_block] = depth
        return tuple(out)

    def _cleared(self, n: int) -> TruncSeries:
        """qinv^n form^(M-n), made once per n."""
        out = self.cleared.get(n)
        if out is None:
            out = self.cleared[n] = self.qinv[n] * self.forms[self.M - n]
        return out

    def inverse_power_numerator(self, p: int, depth: int) -> TruncSeries:
        """Numerator of ((1+x)^w - 1)^(-p) over the shared denominator form^M,
        for p >= 1: the sum over j <= depth of
        binom(-p, j) W_lead^j R^j qinv^(p+j) form^(M-p-j)."""
        total = self._cleared(p)
        if self.R is None:
            return total
        lead_rest = self.lead_rest
        for j in range(1, depth + 1):
            if len(lead_rest) == j:
                r_pow = self.R[j]
                if r_pow.is_zero():
                    break
                lead_rest.append(self.wlead[j] * r_pow)
            lead = lead_rest[j]
            if lead.order is INF:
                part = lead * self._cleared(p + j)
            else:
                # a truncated W_lead^j R^j (from a negative weight) takes
                # its factors one at a time: between truncated factors the
                # order a product claims depends on the grouping, and the
                # cached grouping would claim a lower one
                part = lead * self.qinv[p + j] * self.forms[self.M - p - j]
            total = total + part.scale(gbinom(-p, j))
        return total


def geom_inverse(
    varset: VarSet,
    weight: Sequence[int],
    m: int,
    order: int,
    blocks=None,
    depth: Optional[int] = None,
) -> LocalizedSeries:
    """((1+x)^w - 1)^(-m) as a localized series, exact to net degree ``order``.

    A weight spanning several blocks is read with its earliest block
    dominant; the result then carries a net bound of ``depth`` (default
    ``order``) on the subordinate block.
    """
    if m < 0:
        raise ValueError("geom_inverse expects a nonnegative multiplicity")
    blocks = (
        trivial_blocks(varset) if blocks is None else normalize_blocks(varset, blocks)
    )
    if depth is None:
        depth = order
    if m == 0:
        return LocalizedSeries(TruncSeries.const(varset, 1, INF), (), blocks)
    data = _PoleData(varset, weight, blocks)
    data.compute(varset, order, m if data.rest_block is None else m + depth)
    num = data.inverse_power_numerator(m, depth)
    return LocalizedSeries(
        num, [(data.form, data.M)], blocks, data.bounds_for(blocks, depth)
    )


def _line_factor(
    varset: VarSet,
    weight: Sequence[int],
    sg: int,
    s: Poly,
    order: int,
    cutoff: int,
    blocks,
    depth: int,
) -> LocalizedSeries:
    """One signed line's wedge factor 1 - (1+x)^w (1+s), or its inverse.

    The inverse expands as sum_k (1+x)^(wk) s^k ((1+x)^w - 1)^(-(k+1))
    with a sign, a finite sum since s is nilpotent modulo the cutoff.
    """
    W = one_plus_pow(varset, weight, order)
    base = TruncSeries.const(varset, 1, INF) - W - W.scale(s)
    if sg == 1:
        return LocalizedSeries(base, (), blocks)
    data = _PoleData(varset, weight, blocks)
    data.compute(varset, order, cutoff + 1 + (0 if data.rest_block is None else depth))
    Wk = one_plus_pow(varset, weight, order + data.M)
    total = TruncSeries.zero(varset, INF)
    spow = Poly.const(1)
    wpow = TruncSeries.const(varset, 1, INF)
    for k in range(cutoff + 1):
        inv = data.inverse_power_numerator(k + 1, depth)
        total = total + (wpow * inv).scale(spow * ((-1) ** (k + 1)))
        spow = (spow * s).truncate_degree(cutoff)
        if spow.is_zero():
            break
        wpow = wpow * Wk
    return LocalizedSeries(
        total, [(data.form, data.M)], blocks, data.bounds_for(blocks, depth)
    )


def wedge_minus_z(
    E: KClass,
    order: int,
    cutoff: Optional[int] = None,
    blocks=None,
    by_lines: bool = False,
    depth: Optional[int] = None,
) -> LocalizedSeries:
    """The alternating-wedge series of a K-class in multiplicative coordinates.

    Two routes compute it: the interpolation-class sum per weight (the
    defining formula, default) and the product over individual lines; they
    must agree and are cross-checked in the tests.

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
        if by_lines:
            for sg, sval in s.lines:
                out = out * _line_factor(vs, w, sg, sval, order, cutoff, blocks, depth)
            continue
        honest = all(sg == 1 for sg, _ in s.lines)
        kmax = min(cutoff, s.rank) if honest else cutoff
        pmax = max(0, kmax - s.rank)
        data = _PoleData(vs, w, blocks) if pmax else None
        M = 0 if data is None else pmax + (0 if data.rest_block is None else depth)
        work = order + M
        if data is not None:
            data.compute(vs, order, M)
        W = one_plus_pow(vs, w, work)
        neg_w = _Powers(-W)
        A = _Powers(TruncSeries.const(vs, 1, INF) - W)
        num = TruncSeries.zero(vs, INF)
        for k in range(kmax + 1):
            vk = vee_k(s, k, cutoff)
            if vk.is_zero() and k > 0:
                continue
            m = s.rank - k
            if m < 0:
                inv = data.inverse_power_numerator(-m, depth)
                num = num + (neg_w[k] * inv).scale(vk * (-1) ** -m)
            elif data is None:
                num = num + (neg_w[k] * A[m]).scale(vk)
            else:
                num = num + (neg_w[k] * A[m] * data.forms[M]).scale(vk)
        if data is None:
            out = out * LocalizedSeries(num, (), blocks)
        else:
            out = out * LocalizedSeries(
                num, [(data.form, M)], blocks, data.bounds_for(blocks, depth)
            )
    return out.map_coefficients(lambda p: p.truncate_degree(cutoff))
