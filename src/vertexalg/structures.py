"""Interfaces and finite-truncation checkers for vertex-type structures.

A vertex algebra is packaged here as a family of arity-indexed
multiplication maps producing localized series; a module adds a carrier
element to each product.  The checkers verify the defining identities
(unit, Koszul commutativity, iterated-expansion associativity, the
twisted-module laws and the residue Lie identity) on explicit samples at
a finite truncation order, and report machine-readable outcomes with the
first counterexample monomial when a check fails.

Every equality test is guarded against vacuity: after a difference
clears to zero the checker re-runs the comparison against a deliberately
wrong right side, and an empty comparison window is reported as a
failure rather than a pass.
"""

from fractions import Fraction
from itertools import permutations
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from .homology import (
    ComponentLabel,
    HomologyElement,
    s_name,
    translate_coefficients,
    weighted_degrees,
    x_name,
)
from .ktheory import one_plus_pow
from .poly import Poly
from .series import (
    INF,
    LinearForm,
    LocalizedSeries,
    TruncSeries,
    VarSet,
    coefficient_of_power,
    iota_expand,
    residue,
    series_equal,
    series_invert_unit,
    series_sub_cleared,
    spanning_pole_numerator,
    try_divide_by_form,
)

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"


class ElementSeries:
    """A carrier-valued series: one component label and a localized series
    whose coefficients are polynomial classes on that component."""

    __slots__ = ("component", "series")

    def __init__(self, component: ComponentLabel, series: LocalizedSeries):
        self.component = component
        self.series = series

    def __repr__(self):
        return "ElementSeries(%r, %r)" % (self.component, self.series)

    @staticmethod
    def constant(a: HomologyElement, varset: VarSet, order=INF) -> "ElementSeries":
        num = TruncSeries(varset, order, {varset.zero_exponent(): a.poly})
        return ElementSeries(a.component, LocalizedSeries(num, ()))


# -- pole policies ---------------------------------------------------------------


def _form_shape(form: LinearForm) -> Optional[str]:
    nz = sorted(c for c in form.coeffs if c)
    if nz == [1]:
        return "single"
    if nz == [-1, 1]:
        return "difference"
    if nz == [1, 1]:
        return "sum"
    return None


class PolePolicy:
    """Structural constraint on the denominator forms a family may produce.

    Forms are stored primitive, so an integer multiple of a coordinate
    (the content goes into the numerator) counts as that coordinate.
    """

    __slots__ = ("name", "shapes")

    def __init__(self, name: str, shapes: Sequence[str]):
        self.name = name
        self.shapes = tuple(shapes)

    def allows(self, form: LinearForm) -> bool:
        return _form_shape(form) in self.shapes

    def violation(self, series: LocalizedSeries) -> Optional[str]:
        """Description of the first disallowed denominator form, if any."""
        for form, mult in series.den:
            if not self.allows(form):
                return "denominator %r outside policy %s" % (form, self.name)
        return None


VA_POLES = PolePolicy("vertex-algebra", ("difference",))
MODULE_POLES = PolePolicy("module", ("difference", "single"))
TWISTED_POLES = PolePolicy("twisted-module", ("difference", "single", "sum"))


class ProductFamily:
    """Arity-indexed multiplication maps with their pole policy.

    ``product(elements, names, trunc)`` evaluates the n-point product of
    the given carrier elements in the named series coordinates, one
    coordinate per element.  Module families place the acted-on element
    last, with no coordinate of its own, so ``names`` is one shorter
    than ``elements``; their zero-arity product must be the identity.

    ``degree`` returns the shifted homological degree of an element and
    drives the Koszul signs; leaving it unset declares the carrier
    evenly graded, so all signs are one.  Multiplicative families read
    each coordinate as the coordinate z = 1 + x of a formal torus, which
    changes the unit locus and the argument shift in associativity but
    none of the bookkeeping here.
    """

    def __init__(
        self,
        name: str,
        product: Callable[..., ElementSeries],
        pole_policy: PolePolicy,
        degree: Optional[Callable[[HomologyElement], int]] = None,
        law: str = ADDITIVE,
        module: bool = False,
        involution: Optional[Callable[[HomologyElement], HomologyElement]] = None,
    ):
        if law not in (ADDITIVE, MULTIPLICATIVE):
            raise ValueError("unknown coordinate law %r" % law)
        self.name = name
        self._product = product
        self.pole_policy = pole_policy
        self._degree = degree
        self.law = law
        self.module = module
        self.involution = involution

    def product(
        self, elements: Sequence[HomologyElement], names: Sequence[str], trunc: int
    ) -> ElementSeries:
        expected = len(elements) - 1 if self.module else len(elements)
        if len(names) != expected:
            raise ValueError(
                "expected %d coordinates for %d elements, got %d"
                % (expected, len(elements), len(names))
            )
        return self._product(tuple(elements), tuple(names), trunc)

    def parity(self, a: HomologyElement) -> int:
        if self._degree is None:
            return 0
        return self._degree(a) % 2

    def degree(self, a: HomologyElement) -> Optional[int]:
        return None if self._degree is None else self._degree(a)


# -- reports ---------------------------------------------------------------------


class CheckReport:
    """Machine-readable outcome of one axiom check over a sample set."""

    __slots__ = ("check", "passed", "samples", "counterexample", "notes")

    def __init__(self, check: str):
        self.check = check
        self.passed = True
        self.samples = 0
        self.counterexample = None
        self.notes: List[str] = []

    def count(self):
        self.samples += 1

    def fail(self, sample, reason: str, witness: Optional[str] = None):
        if self.passed:
            self.passed = False
            self.counterexample = {
                "sample": sample,
                "reason": reason,
                "witness": witness,
            }

    def to_obj(self) -> dict:
        return {
            "check": self.check,
            "passed": self.passed,
            "samples": self.samples,
            "counterexample": self.counterexample,
            "notes": list(self.notes),
        }

    def __repr__(self):
        state = "pass" if self.passed else "FAIL"
        return "<CheckReport %s: %s on %d samples>" % (self.check, state, self.samples)


def _describe_sample(elements) -> str:
    def one(a):
        return "%r on %r" % (a.poly, a.component)

    if isinstance(elements, HomologyElement):
        return one(elements)
    return "; ".join(one(a) for a in elements)


def _first_term(x: LocalizedSeries) -> str:
    e = min(x.num.terms)
    c = x.num.terms[e]
    mono = " ".join(
        "%s^%d" % (n, k) for n, k in zip(x.varset.names, e) if k
    ) or "1"
    den = "".join("/(%r)^%d" % (f, m) for f, m in x.den)
    return "%s: %r%s" % (mono, c, den)


def compare_series(lhs: LocalizedSeries, rhs: LocalizedSeries):
    """Guarded equality: (equal, conclusive, witness).

    A zero cleared difference only counts when the comparison window is
    nonempty, which is probed by re-comparing against a deliberately
    wrong right side.
    """
    cleared = series_sub_cleared(lhs, rhs)
    if not cleared.num.is_zero():
        return False, True, _first_term(cleared)
    one = LocalizedSeries(
        TruncSeries.const(lhs.varset, 1, INF), (), lhs.blocks
    )
    if series_equal(lhs, rhs + one):
        return True, False, None
    return True, True, None


# -- coordinate shifts -------------------------------------------------------------


def shift_image(
    law: str, varset: VarSet, coeffs: Sequence[int], order
) -> TruncSeries:
    """The series coordinate of a shifted argument.

    For the additive law the shifted argument is the linear form with the
    given coefficients; for the multiplicative law it is the coordinate
    z - 1 of the product of the coordinates' z-values raised to those
    coefficients, and negative coefficients force a finite order.
    """
    if law == ADDITIVE:
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                e = [0] * len(varset)
                e[i] = 1
                terms[tuple(e)] = Fraction(c)
        return TruncSeries(varset, INF, terms)
    w = one_plus_pow(varset, coeffs, order)
    return w - TruncSeries.const(varset, 1, INF)


def shifted_flat(
    flat: ElementSeries,
    images: Mapping[str, TruncSeries],
    combined: VarSet,
    blocks: Sequence[Sequence[str]],
    depth: int,
) -> ElementSeries:
    """Evaluate a product at shifted coordinates inside an expansion regime.

    ``images`` sends each original coordinate to its series in the
    combined variables, without constant term.  Numerator coefficients
    pass through composition; each denominator form becomes a series and
    is either factored as (primitive linear form) * (invertible series),
    or expanded binomially over the leading block of its linear part,
    with ``depth`` bounding the net order on later blocks.  The output
    has single-block denominator forms only, mirroring an iterated
    Laurent expansion.
    """
    num = flat.series.num.compose(combined, images)
    work = num.order if num.order is not INF else depth
    bidx = [[combined.index(n) for n in b] for b in blocks]
    bounds: List[Optional[int]] = [None] * len(blocks)
    den_out: List[Tuple[LinearForm, int]] = []
    for form, mult in flat.series.den:
        f = TruncSeries.zero(combined, INF)
        for name, c in zip(form.varset.names, form.coeffs):
            if c:
                f = f + images[name].scale(c)
        lin = [Fraction(0)] * len(combined)
        for e, c in f.terms.items():
            if sum(e) == 1:
                lin[e.index(1)] += c if not isinstance(c, Poly) else 0
        if not any(lin):
            raise NotImplementedError(
                "shifted denominator %r has no linear part" % (form,)
            )
        if any(c.denominator != 1 for c in lin):
            raise NotImplementedError("non-integer shifted denominator")
        lin = [int(c) for c in lin]
        lead = next(
            bi for bi, idxs in enumerate(bidx) if any(lin[i] for i in idxs)
        )
        lead_vec = [
            lin[i] if i in bidx[lead] else 0 for i in range(len(combined))
        ]
        if lead_vec == lin:
            fform, sgn, content = LinearForm.make_scaled(combined, lin)
            q = try_divide_by_form(f, fform)
            if q is not None and q.constant_term():
                qm = (q ** mult).truncate(work)
                num = num * series_invert_unit(qm)
                den_out.append((fform, mult))
                continue
        fform, sgn, content = LinearForm.make_scaled(combined, lead_vec)
        s = Fraction(sgn * content)
        g = f - fform.as_series(INF).scale(s)
        for e in g.terms:
            later = sum(
                e[i] for bi in range(lead + 1, len(blocks)) for i in bidx[bi]
            )
            if later < 1:
                raise NotImplementedError(
                    "shifted denominator %r does not expand over block %d"
                    % (form, lead)
                )
        num = num * spanning_pole_numerator(fform, s, g, mult, depth)
        den_out.append((fform, mult + depth))
        for bi in range(lead + 1, len(blocks)):
            b = bounds[bi]
            bounds[bi] = depth if b is None else min(b, depth)
    return ElementSeries(
        flat.component, LocalizedSeries(num, den_out, blocks, tuple(bounds))
    )


# -- nesting one family inside another ----------------------------------------------


def _embed_den(
    den: Sequence[Tuple[LinearForm, int]], combined: VarSet
) -> Tuple[List[Tuple[LinearForm, int]], Fraction]:
    """Denominator forms re-read over the combined variables, and the sign
    their renormalization moves into the numerator."""
    out = []
    scale = Fraction(1)
    for form, mult in den:
        vec = [0] * len(combined)
        for name, c in zip(form.varset.names, form.coeffs):
            if c:
                vec[combined.index(name)] = c
        new, sign, content = LinearForm.make_scaled(combined, vec)
        if content != 1:
            raise AssertionError("embedded form lost primitivity")
        out.append((new, mult))
        scale *= Fraction(sign) ** mult
    return out, scale


def nested_product(
    outer: Callable[[Poly], ElementSeries],
    inner: LocalizedSeries,
    znames: Sequence[str],
    wnames: Sequence[str],
) -> ElementSeries:
    """An outer product with a series in one of its slots.

    ``outer(p)`` is the outer product, over the z coordinates, with the
    class p in the nested slot.  The inner series (over the w
    coordinates) is fed into it coefficient by coefficient, and
    everything is reassembled over the combined variable set with the z
    block leading.
    """
    combined = VarSet(tuple(znames) + tuple(wnames))
    blocks = (tuple(znames), tuple(wnames))
    widx = [combined.index(w) for w in wnames]
    items = sorted(inner.num.terms.items())
    if not items:
        items = [(inner.num.varset.zero_exponent(), Poly())]
    total = None
    component = None
    for e, p in items:
        if not isinstance(p, Poly):
            p = Poly.const(p)
        out = outer(p)
        component = out.component
        num = out.series.num.rename_variables(combined, {})
        mono = [0] * len(combined)
        for pos, k in zip(widx, e):
            mono[pos] = k
        num = num * TruncSeries(combined, INF, {tuple(mono): Fraction(1)})
        den, scale = _embed_den(out.series.den, combined)
        contrib = LocalizedSeries(num.scale(scale), den, blocks)
        total = contrib if total is None else total + contrib
    den_w, scale = _embed_den(inner.den, combined)
    out = LocalizedSeries(
        total.num.scale(scale),
        list(total.den) + den_w,
        blocks,
        total.block_bounds,
    )
    return ElementSeries(component, out)


# -- axiom checks ------------------------------------------------------------------


def check_unit(P: ProductFamily, samples, trunc: int) -> CheckReport:
    """The one-point product starts at the element itself.

    For algebra families this is the statement that the single-argument
    product is the element plus higher coordinate terms with no poles;
    for module families it is that the zero-arity action is the
    identity.
    """
    report = CheckReport("unit")
    for i, a in enumerate(samples):
        report.count()
        if P.module:
            out = P.product((a,), (), trunc)
            if out.component != a.component:
                report.fail(i, "component moved", repr(out.component))
                continue
            got = out.series
            if got.den or any(any(e) for e in got.num.terms):
                report.fail(i, "zero-arity action is not the identity")
                continue
            const = got.num.terms.get(got.num.varset.zero_exponent(), Poly())
            if not isinstance(const, Poly):
                const = Poly.const(const)
            if const != a.poly:
                report.fail(i, "zero-arity action changed the element",
                            repr(const))
            continue
        out = P.product((a,), ("z",), trunc)
        if out.component != a.component:
            report.fail(i, "component moved", repr(out.component))
            continue
        if out.series.den:
            report.fail(i, "one-point product has a pole",
                        repr(out.series.den))
            continue
        const = out.series.num.terms.get((0,), Poly())
        if not isinstance(const, Poly):
            const = Poly.const(const)
        if const != a.poly:
            report.fail(
                i,
                "constant coefficient differs from the element",
                repr(const - a.poly),
            )
    return report


def koszul_sign(parities: Sequence[int], sigma: Sequence[int]) -> int:
    """Sign of a permutation restricted to the odd-parity positions."""
    inversions = 0
    n = len(sigma)
    for i in range(n):
        for j in range(i + 1, n):
            if sigma[i] > sigma[j] and parities[sigma[i]] and parities[sigma[j]]:
                inversions += 1
    return -1 if inversions % 2 else 1


def check_commutativity(P: ProductFamily, samples, trunc: int) -> CheckReport:
    """Products are symmetric up to the Koszul sign of the permutation."""
    report = CheckReport("commutativity")
    for i, elements in enumerate(samples):
        n = len(elements)
        names = tuple("z%d" % (k + 1) for k in range(n))
        varset = VarSet(names)
        parities = [P.parity(a) for a in elements]
        base = P.product(elements, names, trunc)
        for sigma in permutations(range(n)):
            if sigma == tuple(range(n)):
                continue
            report.count()
            permuted = P.product(
                tuple(elements[s] for s in sigma), names, trunc
            )
            # evaluate the permuted product at the permuted coordinates
            mapping = {names[k]: {names[sigma[k]]: 1} for k in range(n)}
            lhs = permuted.series.substitute_linear(varset, mapping)
            sign = koszul_sign(parities, sigma)
            equal, conclusive, witness = compare_series(
                lhs, base.series.scale(sign)
            )
            if not equal:
                report.fail(
                    (i, sigma), _describe_sample(elements), witness
                )
            elif not conclusive:
                report.fail((i, sigma), "vacuous comparison window")
            if permuted.component != base.component:
                report.fail((i, sigma), "component depends on the order")
    return report


def check_associativity(
    P: ProductFamily,
    samples,
    trunc: int,
    algebra: Optional[ProductFamily] = None,
) -> CheckReport:
    """Nesting a product in the first slot agrees with the shifted flat
    product, expanded with the first coordinate block leading.

    ``samples`` are pairs (inner elements, remaining elements); for a
    module family the acted-on element is the last remaining element and
    ``algebra`` names the family that multiplies the inner elements
    (default: P itself).
    """
    inner_family = algebra if algebra is not None else P
    report = CheckReport("associativity")
    for si, (bs, rest) in enumerate(samples):
        report.count()
        m = len(bs)
        n = (len(rest) - 1) if P.module else len(rest)
        znames = tuple("z%d" % k for k in range(n + 1))
        wnames = tuple("w%d" % (k + 1) for k in range(m))
        combined = VarSet(znames + wnames)
        blocks = (znames, wnames)
        unames = tuple("u%d" % (k + 1) for k in range(m + n))

        probe_inner = inner_family.product(bs, wnames, 0)
        dw = probe_inner.series.den_degree()
        probe_outer = P.product(
            (HomologyElement(probe_inner.component, 1),) + tuple(rest),
            znames,
            0,
        )
        dz = probe_outer.series.den_degree()
        work = trunc + dw + dz

        inner = inner_family.product(bs, wnames, work)
        lhs = nested_product(
            lambda p: P.product(
                (HomologyElement(inner.component, p),) + tuple(rest), znames, work
            ),
            inner.series,
            znames,
            wnames,
        )

        images = {}
        for k in range(m + n):
            vec = [0] * len(combined)
            if k < m:
                vec[combined.index("z0")] = 1
                vec[combined.index(wnames[k])] = 1
            else:
                vec[combined.index(znames[k - m + 1])] = 1
            images[unames[k]] = shift_image(P.law, combined, vec, work)

        probe_flat = P.product(tuple(bs) + tuple(rest), unames, 0)
        d_flat = probe_flat.series.den_degree()
        n_span = len(probe_flat.series.den)
        flat_work = trunc + d_flat + n_span * trunc
        flat = P.product(tuple(bs) + tuple(rest), unames, flat_work)
        rhs = shifted_flat(flat, images, combined, blocks, trunc)

        if lhs.component != rhs.component:
            report.fail(si, "components differ", repr((lhs.component,
                                                       rhs.component)))
            continue
        equal, conclusive, witness = compare_series(lhs.series, rhs.series)
        if not equal:
            report.fail(si, _describe_sample(tuple(bs) + tuple(rest)), witness)
        elif not conclusive:
            report.fail(si, "vacuous comparison window")
        pole = P.pole_policy.violation(rhs.series)
        if pole:
            report.fail(si, pole)
    return report


def check_module_nesting(P: ProductFamily, samples, trunc: int) -> CheckReport:
    """Acting first by some elements and then by others agrees with the
    joint action, expanded with the outer coordinates leading.

    ``samples`` are triples (outer elements, inner elements, module
    element); the inner elements act on the module element first.
    """
    if not P.module:
        raise ValueError("module nesting needs a module family")
    report = CheckReport("module-nesting")
    for si, (as_, bs, mm) in enumerate(samples):
        report.count()
        n, k = len(as_), len(bs)
        znames = tuple("z%d" % (i + 1) for i in range(n))
        wnames = tuple("w%d" % (i + 1) for i in range(k))
        blocks = (znames, wnames)

        probe_inner = P.product(tuple(bs) + (mm,), wnames, 0)
        dw = probe_inner.series.den_degree()
        probe_outer = P.product(
            tuple(as_) + (HomologyElement(probe_inner.component, 1),),
            znames,
            0,
        )
        dz = probe_outer.series.den_degree()
        work = trunc + dw + dz

        inner = P.product(tuple(bs) + (mm,), wnames, work)
        lhs = nested_product(
            lambda p: P.product(
                tuple(as_) + (HomologyElement(inner.component, p),), znames, work
            ),
            inner.series,
            znames,
            wnames,
        )

        probe_flat = P.product(tuple(as_) + tuple(bs) + (mm,),
                               znames + wnames, 0)
        d_flat = probe_flat.series.den_degree()
        n_span = len(probe_flat.series.den)
        flat_work = trunc + d_flat + n_span * trunc
        flat = P.product(tuple(as_) + tuple(bs) + (mm,),
                         znames + wnames, flat_work)
        rhs_series = iota_expand(
            LocalizedSeries(flat.series.num, flat.series.den, blocks),
            blocks,
            trunc,
        )
        if lhs.component != flat.component:
            report.fail(si, "components differ")
            continue
        equal, conclusive, witness = compare_series(lhs.series, rhs_series)
        if not equal:
            report.fail(si, _describe_sample(tuple(as_) + tuple(bs) + (mm,)),
                        witness)
        elif not conclusive:
            report.fail(si, "vacuous comparison window")
    return report


# -- the derived translation structure ----------------------------------------------


def translation_operator(P: ProductFamily, a: HomologyElement) -> HomologyElement:
    """The infinitesimal translation: the linear coordinate coefficient of
    the one-point product."""
    out = P.product((a,), ("z",), 1)
    if out.series.den:
        raise ValueError("one-point product has a pole")
    c = out.series.num.terms.get((1,), Poly())
    if not isinstance(c, Poly):
        c = Poly.const(c)
    return HomologyElement(out.component, c)


def two_point_operator(
    P: ProductFamily, a: HomologyElement, b: HomologyElement, trunc: int
) -> ElementSeries:
    """The two-point product with the second coordinate set to zero,
    read inside the expansion where the first coordinate dominates."""
    probe = P.product((a, b), ("z", "w"), 0)
    d = probe.series.den_degree()
    work = 2 * trunc + 2 * d + 2
    full = P.product((a, b), ("z", "w"), work)
    expanded = iota_expand(full.series, (("z",), ("w",)), trunc + d + 1)
    return ElementSeries(full.component, coefficient_of_power(expanded, "w", 0))


def check_translation_axiom(P: ProductFamily, samples, trunc: int) -> CheckReport:
    """The commutator of the derived translation with a field equals the
    coordinate derivative of the field."""
    report = CheckReport("translation-axiom")
    for i, (a, b) in enumerate(samples):
        report.count()
        y_ab = two_point_operator(P, a, b, trunc + 1)
        db = translation_operator(P, b)
        y_adb = two_point_operator(P, a, db, trunc + 1)
        lifted = y_ab.series.map_coefficients(
            lambda p: translation_operator(
                P, HomologyElement(y_ab.component, p)
            ).poly
        )
        lhs = lifted + (-y_adb.series)
        rhs = y_ab.series.diff("z")
        equal, conclusive, witness = compare_series(lhs, rhs)
        if not equal:
            report.fail(i, _describe_sample((a, b)), witness)
        elif not conclusive:
            report.fail(i, "vacuous comparison window")
    return report


# -- residue Lie structure -----------------------------------------------------------


def lie_bracket(
    P: ProductFamily, a: HomologyElement, b: HomologyElement, trunc: int
) -> HomologyElement:
    """Residue of the two-point product along the diagonal.

    The result represents the bracket in the quotient of the carrier by
    the translation image; the constant coefficient is returned.
    """
    probe = P.product((a, b), ("z", "w"), 0)
    d = probe.series.den_degree()
    work = 2 * trunc + 2 * d + 2
    full = P.product((a, b), ("z", "w"), work)
    res = residue(full.series, "z", "w", trunc=trunc + d + 1)
    if res.den:
        raise ValueError("diagonal residue kept a pole; not a bracket")
    c = res.num.terms.get((0,), Poly())
    if not isinstance(c, Poly):
        c = Poly.const(c)
    return HomologyElement(full.component, c)


def residue_action(
    PM: ProductFamily, a: HomologyElement, m: HomologyElement, trunc: int
) -> HomologyElement:
    """Residue at the origin of the one-point module action."""
    probe = PM.product((a, m), ("z",), 0)
    d = probe.series.den_degree()
    work = trunc + 2 * d + 2
    full = PM.product((a, m), ("z",), work)
    res = residue(full.series, "z", 0, trunc=trunc + d + 1)
    if res.den:
        raise ValueError("residue kept a pole")
    c = res.num.terms.get((), Poly())
    if not isinstance(c, Poly):
        c = Poly.const(c)
    return HomologyElement(full.component, c)


def _component_generators(
    component: ComponentLabel, top: int
) -> List[Tuple[str, int]]:
    gens: List[Tuple[str, int]] = []
    if component.is_s_model():
        for f in component.factor_keys():
            for k in range(1, top // 2 + 1):
                if component.even_only(f) and k % 2:
                    continue
                gens.append((s_name(k, f), 2 * k))
        return gens
    if component.model == "BG_classical":
        rank = component.group().rank
    elif component.model == "Torus":
        rank = component.index[0]
    else:
        raise ValueError(
            "no monomial basis enumeration for %s components" % component.model
        )
    return [(x_name(i + 1), 2) for i in range(rank)]


def _monomials(gens: Sequence[Tuple[str, int]], total: int) -> List[Poly]:
    """All monomials of the given weighted degree in the generators."""
    out: List[Poly] = []

    def rec(i: int, left: int, mono: List[Tuple[str, int]]):
        if left == 0:
            out.append(Poly({tuple(sorted(mono)): Fraction(1)}))
            return
        if i >= len(gens):
            return
        name, w = gens[i]
        e = 0
        while e * w <= left:
            rec(i + 1, left - e * w, mono + ([(name, e)] if e else []))
            e += 1

    rec(0, total, [])
    return out


def _in_span(vectors: Sequence[Poly], target: Poly) -> bool:
    monos = sorted(
        {m for v in vectors for m in v.terms} | set(target.terms)
    )
    index = {m: i for i, m in enumerate(monos)}
    rows = [[Fraction(0)] * (len(vectors) + 1) for _ in monos]
    for j, v in enumerate(vectors):
        for m, c in v.terms.items():
            rows[index[m]][j] = c
    for m, c in target.terms.items():
        rows[index[m]][len(vectors)] = c
    pivot_row = 0
    for col in range(len(vectors)):
        sel = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col]:
                sel = r
                break
        if sel is None:
            continue
        rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
        pr = rows[pivot_row]
        inv = Fraction(1) / pr[col]
        rows[pivot_row] = [x * inv for x in pr]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                f = rows[r][col]
                rows[r] = [
                    x - f * y for x, y in zip(rows[r], rows[pivot_row])
                ]
        pivot_row += 1
    for r in range(pivot_row, len(rows)):
        if rows[r][len(vectors)]:
            return False
    return True


def in_translation_image(P: ProductFamily, v: HomologyElement) -> bool:
    """Whether a class is in the image of the derived translation,
    decided by an exact linear solve on its graded piece.

    The translation raises the weighted degree by exactly one, so the
    source is the finite monomial basis one degree down.
    """
    if v.poly.is_zero():
        return True
    if not v.is_homogeneous():
        raise ValueError("membership needs a homogeneous class")
    d = weighted_degrees(v.poly)[0]
    if d < 2:
        return False
    gens = _component_generators(v.component, max(d - 2, 2))
    basis = _monomials(gens, d - 2)
    images = []
    for mono in basis:
        img = translation_operator(
            P, HomologyElement(v.component, mono)
        )
        if img.component != v.component:
            raise ValueError("translation moved the component")
        images.append(img.poly)
    return _in_span(images, v.poly)


# -- twisted modules ----------------------------------------------------------------


def _apply_involution(
    inv: Callable[[HomologyElement], HomologyElement], x: ElementSeries
) -> ElementSeries:
    def on_poly(p):
        if not isinstance(p, Poly):
            p = Poly.const(p)
        out = inv(HomologyElement(x.component, p))
        if out.component != x.component:
            raise ValueError("involution moved the component")
        return out.poly

    return ElementSeries(x.component, x.series.map_coefficients(on_poly))


def _negate_coordinates(x: LocalizedSeries) -> LocalizedSeries:
    mapping = {n: {n: -1} for n in x.varset.names}
    return x.substitute_linear(x.varset, mapping)


def check_twisted_module(
    P: ProductFamily,
    PM: ProductFamily,
    involution: Callable[[HomologyElement], HomologyElement],
    samples,
    trunc: int,
) -> CheckReport:
    """The three layers of the twisted-module definition.

    ``samples`` are triples (a, b, m): the involution squares to the
    identity and intertwines products with coordinate reversal on
    (a, b); the module action's poles stay inside the twisted policy on
    (a, m); and acting by the dual of a equals acting by a at the
    reversed coordinate.
    """
    report = CheckReport("twisted-module")
    for i, (a, b, mm) in enumerate(samples):
        report.count()
        back = involution(involution(a))
        if back.component != a.component or back.poly != a.poly:
            report.fail(i, "involution does not square to the identity")
            continue
        prod = P.product((a, b), ("z", "w"), trunc)
        lhs = _apply_involution(involution, prod)
        dual_prod = P.product(
            (involution(a), involution(b)), ("z", "w"), trunc
        )
        rhs = ElementSeries(
            dual_prod.component, _negate_coordinates(dual_prod.series)
        )
        if lhs.component != rhs.component:
            report.fail(i, "involution moved the product's component")
            continue
        equal, conclusive, witness = compare_series(lhs.series, rhs.series)
        if not equal:
            report.fail(i, "involution is not a twisted involution", witness)
            continue
        if not conclusive:
            report.fail(i, "vacuous comparison window")
            continue
        act = PM.product((a, mm), ("z",), trunc)
        pole = TWISTED_POLES.violation(act.series)
        if pole:
            report.fail(i, pole)
            continue
        act_dual = PM.product((involution(a), mm), ("z",), trunc)
        act_rev = _negate_coordinates(act.series)
        equal, conclusive, witness = compare_series(act_dual.series, act_rev)
        if not equal:
            report.fail(
                i, "dual action differs from the reversed action", witness
            )
        elif not conclusive:
            report.fail(i, "vacuous comparison window")
    return report


def check_twisted_lie_identity(
    P: ProductFamily,
    PM: ProductFamily,
    a: HomologyElement,
    b: HomologyElement,
    m: HomologyElement,
    trunc: int,
) -> CheckReport:
    """The residue actions close up to the bracket terms.

    Acting by a then b, minus the sign-twisted reverse, equals the
    action of the bracket minus the action of the bracket with the
    dualized first argument; all four terms are residues.
    """
    if PM.involution is None:
        raise ValueError("the module family needs an involution")
    report = CheckReport("twisted-lie-identity")
    report.count()
    sign = -1 if (P.parity(a) and P.parity(b)) else 1
    bm = residue_action(PM, b, m, trunc)
    am = residue_action(PM, a, m, trunc)
    lhs = residue_action(PM, a, bm, trunc) - residue_action(
        PM, b, am, trunc
    ).scale(sign)
    br = lie_bracket(P, a, b, trunc)
    br_dual = lie_bracket(P, PM.involution(a), b, trunc)
    rhs = residue_action(PM, br, m, trunc) - residue_action(
        PM, br_dual, m, trunc
    )
    if lhs.component != rhs.component or lhs.poly != rhs.poly:
        report.fail(
            0,
            _describe_sample((a, b, m)),
            repr((lhs.poly - rhs.poly) if lhs.component == rhs.component
                 else (lhs.component, rhs.component)),
        )
    return report


# -- vertex spaces and their maps -----------------------------------------------------


class VertexSpace:
    """A rank of formal coordinates acting on a carrier by translations.

    ``translate(a, names, trunc)`` returns the translated class as a
    series with polynomial coefficients, one coordinate per lattice
    direction.  The lattice acts through the additive or the
    multiplicative formal group law.

    Carrier elements are opaque to the checkers; ``payload`` extracts
    the polynomial of an element and ``rebuild`` wraps a polynomial back
    up in the shape of a template element.  The defaults fit homology
    classes; a bare-polynomial carrier passes identity adapters.
    """

    def __init__(
        self,
        name: str,
        rank: int,
        translate: Callable[..., TruncSeries],
        law: str = ADDITIVE,
        payload: Optional[Callable] = None,
        rebuild: Optional[Callable] = None,
    ):
        if law not in (ADDITIVE, MULTIPLICATIVE):
            raise ValueError("unknown coordinate law %r" % law)
        self.name = name
        self.rank = rank
        self.translate = translate
        self.law = law
        self.payload = payload or (lambda a: a.poly)
        self.rebuild = rebuild or (
            lambda a, p: HomologyElement(a.component, p)
        )


def check_vertex_space(space: VertexSpace, samples, trunc: int) -> CheckReport:
    """The translation is a representation of the formal group: it is
    the identity at the origin and composes through the group law."""
    report = CheckReport("vertex-space")
    r = space.rank
    znames = tuple("z%d" % (i + 1) for i in range(r))
    wnames = tuple("w%d" % (i + 1) for i in range(r))
    unames = tuple("u%d" % (i + 1) for i in range(r))
    combined = VarSet(znames + wnames)
    for i, a in enumerate(samples):
        report.count()
        t = space.translate(a, list(znames), trunc)
        const = t.terms.get(t.varset.zero_exponent(), Poly())
        if not isinstance(const, Poly):
            const = Poly.const(const)
        if const != space.payload(a):
            report.fail(i, "translation at the origin moved the class",
                        repr(const - space.payload(a)))
            continue
        tw = space.translate(a, list(wnames), trunc)
        lhs = translate_coefficients(
            tw.rename_variables(combined, {}),
            znames,
            lambda p, room: space.translate(space.rebuild(a, p), list(znames), room),
        )
        tu = space.translate(a, list(unames), trunc)
        images = {}
        for k in range(r):
            vec = [0] * len(combined)
            vec[combined.index(znames[k])] = 1
            vec[combined.index(wnames[k])] = 1
            images[unames[k]] = shift_image(space.law, combined, vec, trunc)
        rhs = tu.compose(combined, images)
        diff = lhs - rhs
        if not diff.is_zero():
            report.fail(
                i,
                "translations do not compose through the group law",
                repr(sorted(diff.terms.items())[:1]),
            )
        elif diff.order is not INF and diff.order < 0:
            report.fail(i, "vacuous comparison window")
    return report


class VertexSpaceMap:
    """A lattice comparison plus a translation-compatible carrier map.

    ``sharp`` is the integer matrix of the lattice map from the target's
    coordinates to the source's, one row per source coordinate.
    ``action(a, names, trunc)`` evaluates the map on a class, in the
    source lattice's coordinates, as a carrier-valued localized series.
    """

    def __init__(
        self,
        name: str,
        sharp: Sequence[Sequence[int]],
        action: Callable[..., ElementSeries],
        source: VertexSpace,
        target: VertexSpace,
    ):
        if source.law != target.law:
            raise ValueError("mixed coordinate laws")
        if len(sharp) != source.rank or any(
            len(row) != target.rank for row in sharp
        ):
            raise ValueError(
                "lattice matrix must be %d x %d" % (source.rank, target.rank)
            )
        self.name = name
        self.sharp = [list(row) for row in sharp]
        self.action = action
        self.source = source
        self.target = target


def check_vertex_space_map(f: VertexSpaceMap, samples, trunc: int) -> CheckReport:
    """The two compatibilities of a map of vertex spaces: translating
    before the map shifts its coordinates, and translating after the map
    shifts them through the lattice matrix."""
    report = CheckReport("vertex-space-map")
    law = f.source.law
    rs, rt = f.source.rank, f.target.rank
    znames = tuple("z%d" % (i + 1) for i in range(rs))
    wnames = tuple("w%d" % (i + 1) for i in range(rs))
    pnames = tuple("p%d" % (i + 1) for i in range(rt))
    unames = tuple("u%d" % (i + 1) for i in range(rs))
    for i, a in enumerate(samples):
        report.count()
        probe = f.action(a, znames, 0)
        d = probe.series.den_degree()
        work = 2 * trunc + 2 * d + len(probe.series.den) * trunc

        # translating first shifts the map's own coordinates
        combined = VarSet(znames + wnames)
        blocks = (znames, wnames)
        tw = f.source.translate(a, list(wnames), work)
        lhs = nested_product(
            lambda p: f.action(f.source.rebuild(a, p), znames, work),
            LocalizedSeries(tw),
            znames,
            wnames,
        )
        full = f.action(a, unames, work)
        images = {}
        for k in range(rs):
            vec = [0] * len(combined)
            vec[combined.index(znames[k])] = 1
            vec[combined.index(wnames[k])] = 1
            images[unames[k]] = shift_image(law, combined, vec, work)
        rhs = shifted_flat(full, images, combined, blocks, trunc)
        equal, conclusive, witness = compare_series(lhs.series, rhs.series)
        if not equal:
            report.fail(i, "translation before the map fails to shift",
                        witness)
            continue
        if not conclusive:
            report.fail(i, "vacuous comparison window")
            continue
        if lhs.component != rhs.component:
            report.fail(i, "components differ")
            continue

        # translating after the map shifts through the lattice matrix
        combined2 = VarSet(pnames + znames)
        blocks2 = (pnames, znames)
        fz = f.action(a, znames, work)
        fz_c = TruncSeries(
            combined2,
            fz.series.num.order,
            {
                tuple([0] * rt) + e: c
                for e, c in fz.series.num.terms.items()
            },
        )
        # the ElementSeries carries the component, which is all the
        # target carrier's rebuild adapter needs from a template
        lhs2_num = translate_coefficients(
            fz_c,
            pnames,
            lambda p, room: f.target.translate(
                f.target.rebuild(fz, p), list(pnames), room
            ),
        )
        den2, scale2 = _embed_den(fz.series.den, combined2)
        lhs2 = LocalizedSeries(lhs2_num.scale(scale2), den2, blocks2)
        images2 = {}
        for k in range(rs):
            vec = [0] * len(combined2)
            for j in range(rt):
                vec[combined2.index(pnames[j])] = f.sharp[k][j]
            vec[combined2.index(znames[k])] = 1
            images2[unames[k]] = shift_image(law, combined2, vec, work)
        rhs2 = shifted_flat(full, images2, combined2, blocks2, trunc)
        equal, conclusive, witness = compare_series(lhs2, rhs2.series)
        if not equal:
            report.fail(i, "translation after the map fails to shift",
                        witness)
        elif not conclusive:
            report.fail(i, "vacuous comparison window")
    return report
