"""Polynomial models for the rational homology of classifying stacks.

Every space handled here has free polynomial homology, and all operators
are written against explicit generator alphabets:

* unitary towers (all ranks at once): H = Q[s_1, s_2, ...], deg s_k = 2k,
  one rank label r per component;
* orthogonal / symplectic towers: H = Q[s_2, s_4, ...], rank label r0
  (even for the symplectic model, since quaternionic ranks double);
* classifying spaces of classical groups: H = Q[X_1..X_n]^W with
  deg X_i = 2, elements compared modulo Weyl averaging;
* split tori: H = Q[X_1..X_n], the Weyl group is trivial.

Products of spaces keep one alphabet per factor via suffixes: s3_2 is the
third generator of factor 2, and factor 0 is reserved for the module slot
of an orthosymplectic product (unitary factors 1..n times one BO or BSp
factor).  Cohomology acts by cap product: the character generator ch_k of
a factor acts as d/ds_k for k > 0 and as the rank scalar for k = 0, while
degree-2 classes on torus-like models act as d/dX_i.  A monomial acts in
closed form, ch_k^e . s_k^n = n!/(n-e)! s_k^(n-e) (zero when e > n) and
ch_0^e . p = rank^e p, so no derivative is ever taken term by term.

The translation operator exp(sum z_i D_i) of the sum map is implemented
directly from its one-parameter generators:

    D (unitary factor of rank r):  p |-> r*s1*p + sum_k s_{k+1} dp/ds_k
    D (torus-like factor):         p |-> X_i * p

The first formula is the pushforward along addition of a rank-one class,
written in the s-alphabet; the second is multiplication by the divisor
class of the acting coordinate.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import perm
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .groups import ClassicalGroup, weyl_average
from .poly import Poly, mono_degree
from .series import TruncSeries, VarSet, series_exp

MODELS = (
    "BU_Z",
    "BO_Z",
    "BSp_2Z",
    "BG_classical",
    "Torus",
)

# factor keys: None for an unsuffixed single space, integers otherwise
FactorKey = Optional[int]

_S_RE = re.compile(r"s(\d+)(?:_(\d+))?\Z")
_CH_RE = re.compile(r"ch(\d+)(?:_(\d+))?\Z")
_X_RE = re.compile(r"X(\d+)\Z")
_LITTLE_X_RE = re.compile(r"x(\d+)\Z")


def s_name(k: int, factor: FactorKey = None) -> str:
    if k < 1:
        raise ValueError("s-generators start at k = 1")
    return "s%d" % k if factor is None else "s%d_%d" % (k, factor)


def ch_name(k: int, factor: FactorKey = None) -> str:
    if k < 0:
        raise ValueError("character components start at k = 0")
    return "ch%d" % k if factor is None else "ch%d_%d" % (k, factor)


def x_name(i: int) -> str:
    return "X%d" % i


def parse_s(name: str) -> Optional[Tuple[int, FactorKey]]:
    m = _S_RE.fullmatch(name)
    if not m:
        return None
    return int(m.group(1)), (None if m.group(2) is None else int(m.group(2)))


def parse_ch(name: str) -> Optional[Tuple[int, FactorKey]]:
    m = _CH_RE.fullmatch(name)
    if not m:
        return None
    return int(m.group(1)), (None if m.group(2) is None else int(m.group(2)))


def var_weight(name: str) -> int:
    """Homological degree of a generator (cohomology counted positively too)."""
    got = parse_s(name)
    if got:
        return 2 * got[0]
    got = parse_ch(name)
    if got is not None:
        return 2 * got[0]
    if _X_RE.fullmatch(name) or _LITTLE_X_RE.fullmatch(name):
        return 2
    raise ValueError("unknown generator %r" % name)


def weighted_degrees(poly: Poly) -> List[int]:
    weights = {v: var_weight(v) for v in poly.variables()}
    return sorted({mono_degree(m, weights) for m in poly.terms})


class ComponentLabel:
    """A connected component of one of the supported models.

    The index tuple records the discrete data:

    * BU_Z: one integer rank per unitary factor (n >= 1 of them);
    * BO_Z / BSp_2Z: ranks (r_1, .., r_n, r_0) where the last entry is the
      orthogonal or symplectic factor and the first n are unitary factors
      of a product; n = 0 gives the plain single space;
    * BG_classical: ("gl"|"so"|"sp", n);
    * Torus: (number of circle factors,).
    """

    __slots__ = ("model", "index")

    def __init__(self, model: str, index: Sequence):
        if model not in MODELS:
            raise ValueError("unknown model %r" % model)
        index = tuple(index)
        if model == "BU_Z":
            if len(index) < 1 or not all(isinstance(r, int) for r in index):
                raise ValueError("BU_Z needs at least one integer rank")
        elif model in ("BO_Z", "BSp_2Z"):
            if len(index) < 1 or not all(isinstance(r, int) for r in index):
                raise ValueError("%s needs integer ranks" % model)
            if model == "BSp_2Z" and index[-1] % 2:
                raise ValueError("symplectic ranks are even")
        elif model == "BG_classical":
            if len(index) != 2:
                raise ValueError("BG_classical index is (kind, n)")
            ClassicalGroup(index[0], index[1])  # validates
        elif model == "Torus":
            if len(index) != 1 or index[0] < 0:
                raise ValueError("Torus index is (number of factors,)")
        self.model = model
        self.index = index

    def __repr__(self):
        return "ComponentLabel(%r, %r)" % (self.model, self.index)

    def __eq__(self, other):
        return (
            isinstance(other, ComponentLabel)
            and self.model == other.model
            and self.index == other.index
        )

    def __hash__(self):
        return hash((self.model, self.index))

    # -- structure ------------------------------------------------------------

    def is_s_model(self) -> bool:
        return self.model in ("BU_Z", "BO_Z", "BSp_2Z")

    def group(self) -> ClassicalGroup:
        if self.model != "BG_classical":
            raise ValueError("only BG components carry a group")
        return ClassicalGroup(self.index[0], self.index[1])

    def unitary_factors(self) -> Tuple[FactorKey, ...]:
        """Keys of the factors moved by translation, in order."""
        if self.model == "BU_Z":
            if len(self.index) == 1:
                return (None,)
            return tuple(range(1, len(self.index) + 1))
        if self.model in ("BO_Z", "BSp_2Z"):
            return tuple(range(1, len(self.index)))
        raise ValueError("%s has no unitary factor structure" % self.model)

    def factor_keys(self) -> Tuple[FactorKey, ...]:
        if self.model == "BU_Z":
            return self.unitary_factors()
        if self.model in ("BO_Z", "BSp_2Z"):
            n = len(self.index) - 1
            if n == 0:
                return (None,)
            return tuple(range(1, n + 1)) + (0,)
        raise ValueError("%s has no factor keys" % self.model)

    def rank(self, factor: FactorKey = None) -> int:
        if not self.is_s_model():
            raise ValueError("%s components have no rank labels" % self.model)
        if factor not in self.factor_keys():
            if factor is None:
                raise ValueError("ambiguous factor in a product component")
            raise ValueError("%r has no factor %r" % (self, factor))
        if factor is None:
            return self.index[0]
        return self.index[factor - 1]  # factor 0, the module slot, is last

    def even_only(self, factor: FactorKey) -> bool:
        """Whether the given factor only carries even s-generators."""
        if self.model == "BU_Z":
            return False
        if self.model in ("BO_Z", "BSp_2Z"):
            n = len(self.index) - 1
            return factor == 0 or (factor is None and n == 0)
        return False

    def allows_variable(self, name: str) -> bool:
        if self.is_s_model():
            got = parse_s(name)
            if got is None:
                return False
            k, factor = got
            try:
                keys = self.factor_keys()
            except ValueError:
                return False
            if factor not in keys:
                return False
            if self.even_only(factor) and k % 2:
                return False
            return True
        m = _X_RE.fullmatch(name)
        if not m:
            return False
        rank = self.group().rank if self.model == "BG_classical" else self.index[0]
        return 1 <= int(m.group(1)) <= rank


class HomologyElement:
    """A polynomial class on one component.

    EXAMPLES:

        >>> a = HomologyElement(ComponentLabel("BU_Z", (1,)), Poly.variable("s2"))
        >>> a.degree()
        4
    """

    __slots__ = ("component", "poly")

    def __init__(self, component: ComponentLabel, poly: Union[Poly, int, Fraction]):
        if not isinstance(poly, Poly):
            poly = Poly.const(poly)
        for v in poly.variables():
            if not component.allows_variable(v):
                raise ValueError(
                    "generator %r does not live on %r" % (v, component)
                )
        self.component = component
        self.poly = poly

    def __repr__(self):
        return "HomologyElement(%r, %r)" % (self.component, self.poly)

    def degree(self) -> Optional[int]:
        """Homological degree, or None if the class is not homogeneous.

        The grading shift of a specific moduli model (virtual dimensions
        and the like) is applied by the model layer, not here.
        """
        if self.poly.is_zero():
            return None
        degs = weighted_degrees(self.poly)
        return degs[0] if len(degs) == 1 else None

    def is_homogeneous(self) -> bool:
        return self.poly.is_zero() or len(weighted_degrees(self.poly)) == 1

    def __add__(self, other: "HomologyElement") -> "HomologyElement":
        if self.component != other.component:
            raise ValueError("cannot add classes on different components")
        return HomologyElement(self.component, self.poly + other.poly)

    def __sub__(self, other: "HomologyElement") -> "HomologyElement":
        if self.component != other.component:
            raise ValueError("cannot subtract classes on different components")
        return HomologyElement(self.component, self.poly - other.poly)

    def scale(self, c) -> "HomologyElement":
        return HomologyElement(self.component, self.poly * c)

    def __eq__(self, other):
        if not isinstance(other, HomologyElement):
            return NotImplemented
        if self.component != other.component:
            return False
        if self.component.model == "BG_classical":
            diff = self.poly - other.poly
            return weyl_average(diff, self.component.group()).is_zero()
        return self.poly == other.poly

    def __hash__(self):
        raise TypeError("homology elements are unhashable")


class CohomologyElement:
    """A polynomial in the character generators of one component."""

    __slots__ = ("component", "poly")

    def __init__(self, component: ComponentLabel, poly: Union[Poly, int, Fraction]):
        if not isinstance(poly, Poly):
            poly = Poly.const(poly)
        for v in poly.variables():
            ok = False
            if component.is_s_model():
                got = parse_ch(v)
                ok = got is not None and got[1] in component.factor_keys()
            else:
                m = _LITTLE_X_RE.fullmatch(v)
                if m:
                    ok = component.allows_variable("X" + v[1:])
            if not ok:
                raise ValueError("unsupported cohomology generator %r" % v)
        self.component = component
        self.poly = poly

    def cap(self, a: HomologyElement) -> HomologyElement:
        return cap(self, a)


def tensor(*factors: HomologyElement, module: HomologyElement = None) -> HomologyElement:
    """External product of single-space classes, with factor suffixes.

    Without a module argument all factors must be unitary classes; the
    result lives on the n-fold unitary product.  With one, the module
    factor becomes factor 0 of an orthosymplectic product.
    """
    for f in factors:
        if f.component.model != "BU_Z" or len(f.component.index) != 1:
            raise ValueError("tensor factors must be single unitary classes")
    ranks = [f.component.index[0] for f in factors]
    n = len(factors)
    if module is None:
        if n == 0:
            raise ValueError("empty tensor product")
        comp = ComponentLabel("BU_Z", tuple(ranks))
        keys = comp.unitary_factors()
        poly = Poly.const(1)
        for key, f in zip(keys, factors):
            poly = poly * _resuffix(f.poly, key)
        return HomologyElement(comp, poly)
    mmodel = module.component.model
    if mmodel not in ("BO_Z", "BSp_2Z") or len(module.component.index) != 1:
        raise ValueError("module factor must be a single BO or BSp class")
    comp = ComponentLabel(mmodel, tuple(ranks) + (module.component.index[0],))
    poly = _resuffix(module.poly, 0 if n else None)
    for i, f in enumerate(factors):
        poly = poly * _resuffix(f.poly, i + 1)
    return HomologyElement(comp, poly)


def _resuffix(poly: Poly, factor: FactorKey) -> Poly:
    mapping = {}
    for v in poly.variables():
        k, _ = parse_s(v)
        mapping[v] = s_name(k, factor)
    return poly.rename(mapping)


# -- cap product ---------------------------------------------------------------


class _Actions(dict):
    """How each generator acts on one component, resolved once per name.

    A value is None for a homology generator, (target, None) for a class
    acting as d/d(target), and (None, rank) for ch_0, which acts as the
    rank scalar.  With ``cohomology_only`` every name must act; otherwise
    names outside the ch and x alphabets are homology generators.
    """

    __slots__ = ("component", "cohomology_only")

    def __init__(self, component: ComponentLabel, cohomology_only: bool):
        super().__init__()
        self.component = component
        self.cohomology_only = cohomology_only

    def __missing__(self, gen: str):
        comp = self.component
        ch = parse_ch(gen)
        x = None if ch else _LITTLE_X_RE.fullmatch(gen)
        if ch is None and x is None and not self.cohomology_only:
            act = None
        elif comp.is_s_model():
            if ch is None:
                raise ValueError("bad character generator %r" % gen)
            k, factor = ch
            if factor not in comp.factor_keys():
                raise ValueError("%r names no factor of %r" % (gen, comp))
            act = (None, comp.rank(factor)) if k == 0 else (s_name(k, factor), None)
        else:
            if x is None:
                raise ValueError("bad character generator %r" % gen)
            act = ("X" + gen[1:], None)
        self[gen] = act
        return act


def _cap_into(out: Dict, acts: Sequence, exps: Dict[str, int], coef: Fraction) -> None:
    """Add coef * (acts capped against the monomial exps) into out.

    ``acts`` holds ((target, rank), e) pairs from `_Actions`; ``exps`` is
    consumed.  (d/ds)^e s^n = n!/(n-e)! s^(n-e), zero when e > n.
    """
    for (target, rank), e in acts:
        if target is None:
            coef *= rank ** e
            if not coef:
                return
            continue
        have = exps.get(target, 0)
        if have < e:
            return
        coef *= perm(have, e)
        if have == e:
            del exps[target]
        else:
            exps[target] = have - e
    mono = tuple(sorted(exps.items()))
    out[mono] = out.get(mono, 0) + coef


def cap_poly(ch_poly: Poly, poly: Poly, component: ComponentLabel) -> Poly:
    """Apply a character polynomial to a homology polynomial.

    On s-models ch_k acts as d/ds_k for k > 0 and as the rank for k = 0,
    factor by factor; on torus-like models x_i acts as d/dX_i.  The action
    of a product is the composite of the actions, which all commute, so a
    monomial acts in closed form: ch_k^e sends s_k^n to n!/(n-e)! s_k^(n-e)
    (zero when e > n), ch_0^e multiplies by rank^e, and x_i^e acts on X_i
    the same way as ch_k^e on s_k.
    """
    actions = _Actions(component, True)
    out: Dict = {}
    for chmono, c in ch_poly.terms.items():
        acts = [(actions[gen], e) for gen, e in chmono]
        for mono, d in poly.terms.items():
            _cap_into(out, acts, dict(mono), c * d)
    return Poly(out)


def cap(c, a: HomologyElement) -> HomologyElement:
    """Cap product; accepts a CohomologyElement or a bare character Poly."""
    ch_poly = c.poly if isinstance(c, CohomologyElement) else c
    if not isinstance(ch_poly, Poly):
        ch_poly = Poly.const(ch_poly)
    return HomologyElement(a.component, cap_poly(ch_poly, a.poly, a.component))


def contract_poly(p: Poly, component: ComponentLabel) -> Poly:
    """Pair the cohomology part of a mixed polynomial against its homology part.

    Monomials are split into character generators (ch or x alphabet) and
    homology generators; the former then act on the latter by cap product,
    in the closed form of `cap_poly`, one monomial at a time.  Multiplying
    first and contracting afterwards is what makes capping a whole series
    against a whole series a plain series product.
    """
    actions = _Actions(component, False)
    out: Dict = {}
    for mono, coef in p.terms.items():
        exps = {}
        acts = []
        for gen, e in mono:
            act = actions[gen]
            if act is None:
                exps[gen] = e
            else:
                acts.append((act, e))
        _cap_into(out, acts, exps, coef)
    return Poly(out)


def translate_coefficients(
    num: TruncSeries,
    wvars: Sequence[str],
    translate_one: Callable[[Poly, int], TruncSeries],
) -> TruncSeries:
    """Translate every coefficient of a series that may already involve
    the named coordinates.

    ``translate_one(p, room)`` translates the class p in the coordinates
    ``wvars`` up to order ``room``.  Each monomial of total degree d
    receives translation terms up to the remaining order, so the output
    carries the same truncation order.
    """
    order = num.order
    if order is None:
        raise ValueError("translation of an exact series needs a finite order")
    vs = num.varset
    out: Dict[Tuple[int, ...], Poly] = {}
    windex = [vs.index(w) for w in wvars]
    for e, p in num.terms.items():
        if not isinstance(p, Poly):
            p = Poly.const(p)
        t = translate_one(p, order - sum(e))
        for ew, q in t.terms.items():
            e2 = list(e)
            for pos, k in zip(windex, ew):
                e2[pos] += k
            key = tuple(e2)
            cur = out.get(key)
            out[key] = q if cur is None else cur + q
    out = {e: p for e, p in out.items() if not p.is_zero()}
    return TruncSeries(vs, order, out)


def translate_series(
    num: TruncSeries,
    component: ComponentLabel,
    wvars: Sequence[str],
    coweights: Optional[Sequence[Sequence[int]]] = None,
) -> TruncSeries:
    """Apply the translation operator in the named coordinates to every
    coefficient of a series of classes on one component."""
    return translate_coefficients(
        num,
        wvars,
        lambda p, room: translate(
            HomologyElement(component, p), list(wvars), room, coweights
        ),
    )


# -- translation ---------------------------------------------------------------


def raise_once(poly: Poly, factor: FactorKey, rank: int) -> Poly:
    """One application of the translation generator on a unitary factor."""
    out = poly * Poly.variable(s_name(1, factor)) * rank
    for v in poly.variables():
        got = parse_s(v)
        if got is None or got[1] != factor:
            continue
        k = got[0]
        out = out + poly.diff(v) * Poly.variable(s_name(k + 1, factor))
    return out


def translate(
    a: HomologyElement,
    zvars: Sequence[str],
    trunc: int,
    coweights: Optional[Sequence[Sequence[int]]] = None,
) -> TruncSeries:
    """exp(sum z_i D_i) applied to a class, as a series with Poly coefficients.

    For unitary products there must be one z per unitary factor, in factor
    order; the module factor of an orthosymplectic product is not moved.
    For BG and Torus components each z acts through an integer coweight
    (a row of `coweights`, default the identity), i.e. by multiplication
    with the corresponding linear combination of the X_i.

    EXAMPLES:

        >>> one = HomologyElement(ComponentLabel("BU_Z", (1,)), 1)
        >>> translate(one, ["z"], 2).terms[(2,)]
        1/2*s2+1/2*s1^2
    """
    if trunc < 0:
        raise ValueError("truncation must be nonnegative")
    vs = VarSet(zvars)
    comp = a.component
    if comp.model in ("BG_classical", "Torus"):
        rank = comp.group().rank if comp.model == "BG_classical" else comp.index[0]
        if coweights is None:
            if len(zvars) != rank:
                raise ValueError("need one coordinate per circle factor")
            coweights = [[1 if i == j else 0 for i in range(rank)] for j in range(rank)]
        arg = TruncSeries.zero(vs, trunc)
        for j, z in enumerate(zvars):
            row = coweights[j]
            if len(row) != rank:
                raise ValueError("coweight rows must have length %d" % rank)
            lin = Poly()
            for i, cij in enumerate(row):
                if cij:
                    lin = lin + Poly.variable(x_name(i + 1)) * cij
            if not lin.is_zero():
                arg = arg + TruncSeries.variable(vs, z, trunc).scale(lin)
        return series_exp(arg) * TruncSeries.const(vs, a.poly, trunc)
    if coweights is not None:
        raise ValueError("coweights only apply to torus-like components")
    factors = comp.unitary_factors()
    if len(zvars) != len(factors):
        raise ValueError(
            "expected %d coordinates for this component, got %d"
            % (len(factors), len(zvars))
        )
    zero = vs.zero_exponent()
    terms: Dict[Tuple[int, ...], Poly] = {zero: a.poly}
    cur: Dict[Tuple[int, ...], Poly] = {zero: a.poly}
    for m in range(1, trunc + 1):
        nxt: Dict[Tuple[int, ...], Poly] = {}
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


# -- involution, pushforward, normal forms ----------------------------------------


def involution_dual_poly(poly: Poly) -> Poly:
    """s_k -> (-1)^k s_k on every unitary factor present."""
    out = Poly()
    weights = {}
    for v in poly.variables():
        got = parse_s(v)
        if got is None:
            raise ValueError("dual involution is only defined on s-alphabets")
        weights[v] = got[0]
    for mono, coef in poly.terms.items():
        sign = 1
        for gen, e in mono:
            if (weights[gen] * e) % 2:
                sign = -sign
        out = out + Poly({mono: coef * sign})
    return out


def involution_dual(a: HomologyElement) -> HomologyElement:
    """Pushforward along fiberwise dualization.  Components keep their rank
    labels (a dual bundle has the same rank) and s_k picks up (-1)^k."""
    if a.component.model != "BU_Z":
        raise ValueError("model %r has no dual involution" % a.component.model)
    return HomologyElement(a.component, involution_dual_poly(a.poly))


def pushforward_substitute(a: HomologyElement) -> HomologyElement:
    """Pushforward along the total-sum map of a product component.

    Unitary products: every s_k^{(i)} goes to s_k and ranks add.  For an
    orthosymplectic product the map is (x_1..x_n, y) -> y + sum (x_i + x_i*),
    so even unitary generators double, odd ones die, the module alphabet
    passes through, and the target rank is r_0 + 2 * sum r_i.
    """
    comp = a.component
    if comp.model == "BU_Z":
        mapping = {}
        for v in a.poly.variables():
            k, _ = parse_s(v)
            mapping[v] = Poly.variable(s_name(k))
        target = ComponentLabel("BU_Z", (sum(comp.index),))
        return HomologyElement(target, a.poly.substitute(mapping))
    if comp.model in ("BO_Z", "BSp_2Z"):
        n = len(comp.index) - 1
        mapping = {}
        for v in a.poly.variables():
            k, factor = parse_s(v)
            if factor == 0 or (factor is None and n == 0):
                mapping[v] = Poly.variable(s_name(k))
            elif k % 2:
                mapping[v] = Poly()
            else:
                mapping[v] = Poly.variable(s_name(k)) * 2
        r0 = comp.index[-1]
        target = ComponentLabel(comp.model, (r0 + 2 * sum(comp.index[:-1]),))
        return HomologyElement(target, a.poly.substitute(mapping))
    raise ValueError("no sum-map pushforward for model %r" % comp.model)


def weyl_normal_form(a: HomologyElement) -> HomologyElement:
    """Exact Weyl-group average; the identity on already-invariant classes."""
    if a.component.model != "BG_classical":
        raise ValueError("normal forms apply to BG components only")
    return HomologyElement(a.component, weyl_average(a.poly, a.component.group()))
