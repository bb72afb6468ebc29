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

The translation operator D(z) is the multiplicative convolution

    D(z)(l^k) = sum_a x^a sum_K  K! / ((K-k)! (K-a)! (k+a-K)!)  l^K,

its group law D(z)D(w) = D(zw) living over x = z-1, y = w-1 with
zw - 1 = x + y + xy.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .charclass import KClass, Summand
from .poly import Poly
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
    for name, w in zip(varset.names, weight):
        if not w:
            continue
        top = w if w >= 0 else order
        if top is INF or top < 0:
            raise ValueError("negative exponents need a finite order")
        this = INF if w >= 0 else order
        x = TruncSeries.variable(varset, name, this)
        pw = TruncSeries.zero(varset, this)
        for j in range(top + 1):
            c = gbinom(w, j)
            if c:
                pw = pw + (x ** j).scale(c)
        out = out * pw
    return out


# -- the polynomial K-homology model ----------------------------------------------


def _l_target(u: str) -> str:
    """The K-homology generator that an augmentation generator lowers."""
    if not u.startswith("u"):
        raise ValueError("expected augmentation generators, got %r" % u)
    return l_name(None if u == "u" else int(u[1:]))


def _k_cap_into(out: Dict, shifts: Mapping[str, int], exps: Dict[str, int], coef) -> None:
    """Add coef * (u-monomial cap l-monomial) into out; ``exps`` is consumed."""
    for lv, j in shifts.items():
        have = exps.get(lv, 0)
        if have < j:
            return
        if have == j:
            del exps[lv]
        else:
            exps[lv] = have - j
    mono = tuple(sorted(exps.items()))
    out[mono] = out.get(mono, 0) + coef


def k_cap(upoly: Poly, lpoly: Poly) -> Poly:
    """Cap product of an augmentation polynomial against K-homology.

    Factor pairing is by suffix: u_i lowers powers of l_i.
    """
    out: Dict = {}
    for umono, c in upoly.terms.items():
        shifts = {_l_target(v): e for v, e in umono}
        for lmono, d in lpoly.terms.items():
            _k_cap_into(out, shifts, dict(lmono), c * d)
    return Poly(out)


def k_contract(p: Poly) -> Poly:
    """Pair the augmentation part of a mixed polynomial against its K-homology part.

    Monomials are split into u-generators and the rest; the former act on
    the latter by cap, so capping a series against a series reduces to the
    plain series product followed by this contraction coefficientwise.
    """
    out: Dict = {}
    for mono, coef in p.terms.items():
        shifts = {}
        exps = {}
        for gen, e in mono:
            if gen.startswith("u"):
                shifts[_l_target(gen)] = e
            else:
                exps[gen] = e
        _k_cap_into(out, shifts, exps, coef)
    return Poly(out)


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
    out: Dict[Tuple[int, ...], Poly] = {}
    for e, p in ts.terms.items():
        if not isinstance(p, Poly):
            p = Poly.const(p)
        room = trunc - sum(e)
        for mono, c in p.terms.items():
            k = dict(mono).get(lvar, 0)
            rest = tuple((v, x) for v, x in mono if v != lvar)
            for a in range(room + 1):
                e2 = e[:pos] + (e[pos] + a,) + e[pos + 1 :]
                for K in range(max(k, a), k + a + 1):
                    coef = Fraction(
                        factorial(K),
                        factorial(K - k) * factorial(K - a) * factorial(k + a - K),
                    )
                    mono2 = tuple(sorted(rest + ((lvar, K),))) if K else rest
                    add = Poly({mono2: c * coef})
                    cur = out.get(e2)
                    out[e2] = add if cur is None else cur + add
    out = {e: p for e, p in out.items() if not p.is_zero()}
    return TruncSeries(vs, trunc, out)


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
        total = total.map_coefficients(
            lambda p: p.truncate_degree(cutoff) if isinstance(p, Poly) else p
        )
    out = []
    for i in range(upto + 1):
        p = total.terms.get((i,), Poly())
        out.append(p if isinstance(p, Poly) else Poly.const(p))
    return out


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

    __slots__ = ("w_lead", "w_rest", "rest_block", "form", "qinv", "wlead", "R")

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

    def compute(self, varset: VarSet, work: int):
        self.form, q = _pole_factor(varset, self.w_lead, work)
        self.qinv = series_invert_unit(q)
        if self.rest_block is None:
            self.wlead = self.R = None
        else:
            self.wlead = one_plus_pow(varset, self.w_lead, work)
            self.R = one_plus_pow(varset, self.w_rest, work) - TruncSeries.const(
                varset, 1, INF
            )

    def bounds_for(self, blocks, depth: int):
        out = [None] * len(blocks)
        if self.rest_block is not None:
            out[self.rest_block] = depth
        return tuple(out)

    def inverse_power_numerator(
        self, varset: VarSet, p: int, M: int, work: int, depth: int
    ) -> TruncSeries:
        """Numerator of ((1+x)^w - 1)^(-p) over the shared denominator form^M."""
        form_s = self.form.as_series(INF)
        if self.R is None:
            return (self.qinv ** p) * (form_s ** (M - p))
        total = TruncSeries.zero(varset, INF)
        lead_r = TruncSeries.const(varset, 1, INF)
        r_pow = TruncSeries.const(varset, 1, INF)
        for j in range(depth + 1):
            c = gbinom(-p, j)
            if c:
                part = lead_r * r_pow * (self.qinv ** (p + j)) * (
                    form_s ** (M - p - j)
                )
                total = total + part.scale(c)
            r_pow = r_pow * self.R
            if r_pow.is_zero():
                break
            lead_r = lead_r * self.wlead
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
    M = m if data.rest_block is None else m + depth
    work = order + M
    data.compute(varset, work)
    num = data.inverse_power_numerator(varset, m, M, work, depth)
    return LocalizedSeries(
        num, [(data.form, M)], blocks, data.bounds_for(blocks, depth)
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
    M = cutoff + 1 + (0 if data.rest_block is None else depth)
    work = order + M
    data.compute(varset, work)
    Wk = one_plus_pow(varset, weight, work)
    total = TruncSeries.zero(varset, INF)
    spow = Poly.const(1)
    wpow = TruncSeries.const(varset, 1, INF)
    for k in range(cutoff + 1):
        inv = data.inverse_power_numerator(varset, k + 1, M, work, depth)
        total = total + (wpow * inv).scale(spow * ((-1) ** (k + 1)))
        spow = (spow * s).truncate_degree(cutoff)
        if spow.is_zero():
            break
        wpow = wpow * Wk
    return LocalizedSeries(
        total, [(data.form, M)], blocks, data.bounds_for(blocks, depth)
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
        if pmax == 0:
            W = one_plus_pow(vs, w, order)
            A = TruncSeries.const(vs, 1, INF) - W
            num = TruncSeries.zero(vs, INF)
            for k in range(kmax + 1):
                vk = vee_k(s, k, cutoff)
                if vk.is_zero() and k > 0:
                    continue
                num = num + (((W * (-1)) ** k) * (A ** (s.rank - k))).scale(vk)
            out = out * LocalizedSeries(num, (), blocks)
            continue
        data = _PoleData(vs, w, blocks)
        M = pmax + (0 if data.rest_block is None else depth)
        work = order + M
        data.compute(vs, work)
        W = one_plus_pow(vs, w, work)
        A = TruncSeries.const(vs, 1, INF) - W
        form_s = data.form.as_series(INF)
        num = TruncSeries.zero(vs, INF)
        for k in range(kmax + 1):
            vk = vee_k(s, k, cutoff)
            if vk.is_zero() and k > 0:
                continue
            head = ((W * (-1)) ** k).scale(vk)
            m = s.rank - k
            if m >= 0:
                num = num + head * (A ** m) * (form_s ** M)
            else:
                inv = data.inverse_power_numerator(vs, -m, M, work, depth)
                num = num + (head * inv).scale(Fraction((-1) ** (-m)))
        factor = LocalizedSeries(
            num, [(data.form, M)], blocks, data.bounds_for(blocks, depth)
        )
        out = out * factor
    return out.map_coefficients(
        lambda p: p.truncate_degree(cutoff) if isinstance(p, Poly) else p
    )
