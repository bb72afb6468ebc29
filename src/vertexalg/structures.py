"""Interfaces and finite-truncation checkers for vertex-type structures.

A vertex algebra is packaged here as a family of arity-indexed
multiplication maps producing localized series; a module adds a carrier
element to each product.  The checkers verify the defining identities
(unit, Koszul commutativity, iterated-expansion associativity, the
twisted-module laws and the residue Lie identity) on explicit samples at
a finite truncation order, and report machine-readable outcomes with the
first counterexample monomial when a check fails.

Every equality test is guarded against vacuity: after a difference
clears to zero the checker subtracts 1 from it, which vanishes only in an
empty comparison window, and an empty window is reported as a failure
rather than a pass.

Every nested side is one `series.nest`, which `nested_product` wraps for
products.

Working orders are chosen in one place, `_worked`: a product is probed at
order 0, worked at the order one of four rules reads from the probe's
pole degree d, and must keep the probe's poles.  The rules are the nested
side of a nesting identity, trunc + d_inner + d_outer; its flat side,
trunc + d + trunc * (number of pole forms); the two-point operator,
2 * trunc + 2 * d + 2; and a residue read, max(d - 1, 0).
"""

from fractions import Fraction
from functools import partial
from itertools import permutations
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .homology import (
    ComponentLabel,
    HomologyElement,
    s_name,
    weighted_degrees,
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
    nest,
    residue,
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
    """Machine-readable outcome of one axiom check over a sample set.

    ``trivial`` counts the comparisons whose sides were both zero in the
    window: they pass, but compare nothing.
    """

    __slots__ = ("check", "passed", "samples", "counterexample", "notes", "trivial")

    def __init__(self, check: str):
        self.check = check
        self.passed = True
        self.samples = 0
        self.counterexample = None
        self.notes: List[str] = []
        self.trivial = 0

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
            "trivial": self.trivial,
        }

    def __repr__(self):
        state = "pass" if self.passed else "FAIL"
        trivial = ", %d trivial" % self.trivial if self.trivial else ""
        return "<CheckReport %s: %s on %d samples%s>" % (
            self.check, state, self.samples, trivial
        )


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

    The sides are compared by ``lhs - rhs``, which holds only the window
    where both are exact.  A zero difference only counts when that window
    is nonempty, which is probed by subtracting 1 from the difference: it
    has the difference's denominator, bounds and order, so 1 vanishes
    there only when the window is empty.  A nonzero difference names its
    first term as the witness.
    """
    cleared = lhs - rhs
    if not cleared.num.is_zero():
        return False, True, _first_term(cleared)
    one = LocalizedSeries(
        TruncSeries.const(lhs.varset, 1, INF), (), lhs.blocks
    )
    if (cleared - one).num.is_zero():
        return True, False, None
    return True, True, None


def _compared(
    report: CheckReport, sample, lhs: LocalizedSeries, rhs: LocalizedSeries, reason: str
) -> bool:
    """Compare two sides, record a difference (with ``reason``), an empty
    window or two sides that are both zero on the report, and say whether
    the sides are conclusively equal.  ``compare_series`` is looked up
    when called, so a wrapper installed on this module sees every
    comparison."""
    equal, conclusive, witness = compare_series(lhs, rhs)
    if not equal:
        report.fail(sample, reason, witness)
    elif not conclusive:
        report.fail(sample, "vacuous comparison window")
    # equal sides agree in the window, so lhs zero there means both are
    if equal and (lhs - rhs.scale(0)).num.is_zero():
        report.trivial += 1
    return equal and conclusive


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
        return TruncSeries.linear(varset, coeffs)
    w = one_plus_pow(varset, coeffs, order)
    return w - TruncSeries.const(varset, 1, INF)


def _shift_images(
    law: str, varset: VarSet, rows: Mapping[str, Mapping[str, int]], order
) -> Dict[str, TruncSeries]:
    """The :func:`shift_image` of each coordinate, whose shifted argument
    is one {name: coefficient} row over ``varset``."""
    return {
        u: shift_image(law, varset, [row.get(n, 0) for n in varset.names], order)
        for u, row in rows.items()
    }


def shifted_flat(
    flat: ElementSeries,
    images: Mapping[str, TruncSeries],
    combined: VarSet,
    blocks: Sequence[Sequence[str]],
    trunc: int,
) -> ElementSeries:
    """Evaluate a product at shifted coordinates inside an expansion regime.

    ``images`` sends each original coordinate to its series in the
    combined variables, without constant term.  This is
    `LocalizedSeries.compose` over ``blocks`` at ``trunc``, so the output
    has single-block denominator forms only, as an iterated Laurent
    expansion does.
    """
    return ElementSeries(flat.component, flat.series.compose(combined, images, blocks, trunc))


# -- working orders --------------------------------------------------------------
#
# Each rule takes the order-0 probe x of a product, of pole degree d, to the
# order `_worked` works the product at.


def _nested_order(trunc: int, outer_probe: Callable[[ElementSeries], ElementSeries]):
    # the nested side divides by the inner and the outer poles
    return lambda x: trunc + x.series.den_degree() + outer_probe(x).series.den_degree()


def _flat_order(trunc: int):
    # each pole form is re-expanded at depth trunc, raising its power by trunc
    return lambda x: trunc + x.series.den_degree() + len(x.series.den) * trunc


def _two_point_order(trunc: int):
    # the expansion at depth trunc + d + 1 raises the power of the poles by
    # that depth and must stay exact to trunc + 1
    return lambda x: 2 * trunc + 2 * x.series.den_degree() + 2


def _residue_order(x: ElementSeries) -> int:
    # the pole forms are linear and homogeneous, so the constant coefficient
    # of the residue, of total degree -1, reads numerator terms of degree d - 1
    return max(x.series.den_degree() - 1, 0)


def _worked(call: Callable[[int], ElementSeries], order_of) -> Tuple[ElementSeries, int]:
    """(``call(order)``, order) for the order ``order_of`` reads from the
    probe ``call(0)``: the probe itself at order 0, else a second call,
    which must keep the probe's poles, since the order was read from them."""
    probe = call(0)
    order = order_of(probe)
    out = call(order) if order else probe
    if out.series.den != probe.series.den:
        raise ValueError(
            "poles change with the truncation order, %r at order 0 and %r at "
            "order %d" % (probe.series.den, out.series.den, order)
        )
    return out, order


# -- nesting one family inside another ----------------------------------------------


def nested_product(
    outer: Callable[[Poly, int], ElementSeries],
    inner: LocalizedSeries,
    znames: Sequence[str],
) -> ElementSeries:
    """An outer product with a series in one of its slots: `series.nest`
    of ``outer(p, order)``, the outer product over the z coordinates with
    the class p in the nested slot.  The component is the outer
    product's; a zero inner series asks ``outer(Poly(), 0)`` for it.
    """
    component = None

    def series_of(p, order):
        nonlocal component
        out = outer(p, order)
        component = out.component
        return out.series

    series = nest(series_of, inner, znames)
    if component is None:
        component = outer(Poly(), 0).component
    return ElementSeries(component, series)


def _nested_and_flat(
    inner: Callable[[int], ElementSeries],
    outer: Callable[[ElementSeries, Poly, int], ElementSeries],
    flat: Callable[[int], ElementSeries],
    znames: Sequence[str],
    trunc: int,
) -> Tuple[ElementSeries, ElementSeries, int, int]:
    """The two sides of a nesting identity and their working orders:
    (nested, flat, nested order, flat order).  ``inner(order)``,
    ``outer(x, p, order)`` (the class p of the inner series x in the nested
    slot) and ``flat(order)`` are the inner product over the w coordinates,
    the outer one over the z coordinates and the joint product.
    """
    inner_out, work = _worked(inner, _nested_order(trunc, lambda x: outer(x, Poly.const(1), 0)))
    nested = nested_product(partial(outer, inner_out), inner_out.series, znames)
    flat_out, flat_work = _worked(flat, _flat_order(trunc))
    return nested, flat_out, work, flat_work


def _nesting_compared(report: CheckReport, si: int, lhs, rhs, work, flat_work, sample) -> bool:
    """The shared tail of a nesting check: note the working orders and the
    term counts of the two sides, then compare their components and their
    series.  Says whether the series were compared."""
    report.notes.append("sample %d: nested order=%d, flat order=%d, terms=%d/%d" % (
        si, work, flat_work, len(lhs.series.num.terms), len(rhs.series.num.terms)))
    if lhs.component != rhs.component:
        report.fail(si, "components differ", repr((lhs.component, rhs.component)))
        return False
    _compared(report, si, lhs.series, rhs.series, sample)
    return True


# -- axiom checks ------------------------------------------------------------------


def check_unit(P: ProductFamily, samples, trunc: int) -> CheckReport:
    """The one-point product starts at the element itself.

    For algebra families this is the statement that the single-argument
    product is the element plus higher coordinate terms with no poles;
    for module families it is that the zero-arity action, a series in no
    variables, is the identity.
    """
    report = CheckReport("unit")
    for i, a in enumerate(samples):
        report.count()
        out = P.product((a,), () if P.module else ("z",), trunc)
        if out.component != a.component:
            report.fail(i, "component moved", repr(out.component))
            continue
        if out.series.den:
            report.fail(i, "one-point product has a pole",
                        repr(out.series.den))
            continue
        const = out.series.num.constant_term()
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
            _compared(report, (i, sigma), lhs, base.series.scale(sign),
                      _describe_sample(elements))
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
        joint = tuple(bs) + tuple(rest)
        lhs, flat, work, flat_work = _nested_and_flat(
            lambda order: inner_family.product(bs, wnames, order),
            lambda x, p, order: P.product(
                (HomologyElement(x.component, p),) + tuple(rest), znames, order
            ),
            lambda order: P.product(joint, unames, order),
            znames, trunc,
        )
        rows = {u: {"z0": 1, w: 1} for u, w in zip(unames, wnames)}
        rows.update({u: {z: 1} for u, z in zip(unames[m:], znames[1:])})
        images = _shift_images(P.law, combined, rows, work)
        rhs = shifted_flat(flat, images, combined, blocks, trunc)
        if _nesting_compared(report, si, lhs, rhs, work, flat_work, _describe_sample(joint)):
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
        joint = tuple(as_) + tuple(bs) + (mm,)
        lhs, flat, work, flat_work = _nested_and_flat(
            lambda order: P.product(tuple(bs) + (mm,), wnames, order),
            lambda x, p, order: P.product(
                tuple(as_) + (HomologyElement(x.component, p),), znames, order
            ),
            lambda order: P.product(joint, znames + wnames, order),
            znames, trunc,
        )
        rhs = ElementSeries(flat.component, iota_expand(flat.series, blocks, trunc))
        _nesting_compared(report, si, lhs, rhs, work, flat_work, _describe_sample(joint))
    return report


# -- the derived translation structure ----------------------------------------------


def translation_operator(P: ProductFamily, a: HomologyElement) -> HomologyElement:
    """The infinitesimal translation: the linear coordinate coefficient of
    the one-point product."""
    out = P.product((a,), ("z",), 1)
    if out.series.den:
        raise ValueError("one-point product has a pole")
    return HomologyElement(out.component, out.series.num.terms.get((1,), Poly()))


def two_point_operator(
    P: ProductFamily, a: HomologyElement, b: HomologyElement, trunc: int
) -> ElementSeries:
    """The two-point product with the second coordinate set to zero,
    read inside the expansion where the first coordinate dominates.

    The product is worked at `_two_point_order`; the pole degree d also
    sets how far the compared series reach.
    """
    full, _ = _worked(partial(P.product, (a, b), ("z", "w")), _two_point_order(trunc))
    d = full.series.den_degree()
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
        _compared(report, i, lhs, rhs, _describe_sample((a, b)))
    return report


# -- residue Lie structure -----------------------------------------------------------


# the coordinates of each residue read, and the center of its residue in
# the first coordinate
_RESIDUE_READS = {
    "lie_bracket": (("z", "w"), "w"),
    "residue_action": (("z",), 0),
}


def _residue_read(
    kind: str, P: ProductFamily, x: HomologyElement, y: HomologyElement, trunc: int
) -> Tuple[HomologyElement, int, int]:
    """The constant coefficient of a residue read of the product of x and
    y, with the pole degree d and the working order of the product.

    The product is worked at `_residue_order`, so the order-0 probe that
    reads d is that product when d <= 1.  ``trunc`` sets only the
    residue's expansion depth.
    """
    names, center = _RESIDUE_READS[kind]
    full, order = _worked(partial(P.product, (x, y), names), _residue_order)
    d = full.series.den_degree()
    res = residue(full.series, names[0], center, trunc=trunc + d + 1)
    if res.den:
        raise ValueError("%s: residue kept a pole" % kind)
    return HomologyElement(full.component, res.num.constant_term()), d, order


def lie_bracket(
    P: ProductFamily, a: HomologyElement, b: HomologyElement, trunc: int
) -> HomologyElement:
    """Residue of the two-point product along the diagonal.

    The result represents the bracket in the quotient of the carrier by
    the translation image; the constant coefficient is returned, and a
    residue that keeps a pole raises ValueError.  The product is worked
    at the order its pole degree needs (see :func:`_residue_read`);
    ``trunc`` sets only the expansion depth passed to :func:`residue`.
    """
    return _residue_read("lie_bracket", P, a, b, trunc)[0]


def residue_action(
    PM: ProductFamily, a: HomologyElement, m: HomologyElement, trunc: int
) -> HomologyElement:
    """Residue at the origin of the one-point module action.

    The action is worked at the order its pole degree needs (see
    :func:`_residue_read`); ``trunc`` sets only the expansion depth
    passed to :func:`residue`.
    """
    return _residue_read("residue_action", PM, a, m, trunc)[0]


def _component_generators(
    component: ComponentLabel, top: int
) -> List[Tuple[str, int]]:
    return [
        (s_name(k, f), 2 * k)
        for f in component.factor_keys()
        for k in range(1, top // 2 + 1)
        if not (component.even_only(f) and k % 2)
    ]


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
    columns = [dict(v.items()) for v in vectors] + [dict(target.items())]
    monos = sorted({m for col in columns for m in col})
    index = {m: i for i, m in enumerate(monos)}
    rows = [[Fraction(0)] * len(columns) for _ in monos]
    for j, col in enumerate(columns):
        for m, c in col.items():
            rows[index[m]][j] = c
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
        if not _compared(report, i, lhs.series, rhs.series,
                         "involution is not a twisted involution"):
            continue
        act = PM.product((a, mm), ("z",), trunc)
        pole = TWISTED_POLES.violation(act.series)
        if pole:
            report.fail(i, pole)
            continue
        act_dual = PM.product((involution(a), mm), ("z",), trunc)
        act_rev = _negate_coordinates(act.series)
        _compared(report, i, act_dual.series, act_rev,
                  "dual action differs from the reversed action")
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
    dualized first argument; all four terms are residues.  A sample
    whose two sides are both zero passes and, as in `_compared`, is
    counted in ``trivial``.
    """
    if PM.involution is None:
        raise ValueError("the module family needs an involution")
    report = CheckReport("twisted-lie-identity")
    report.count()

    def read(kind, family, x, y):
        out, d, order = _residue_read(kind, family, x, y, trunc)
        report.notes.append("%s: d=%d, order=%d" % (kind, d, order))
        return out

    sign = -1 if (P.parity(a) and P.parity(b)) else 1
    bm = read("residue_action", PM, b, m)
    am = read("residue_action", PM, a, m)
    lhs = read("residue_action", PM, a, bm) - read(
        "residue_action", PM, b, am
    ).scale(sign)
    br = read("lie_bracket", P, a, b)
    br_dual = read("lie_bracket", P, PM.involution(a), b)
    rhs = read("residue_action", PM, br, m) - read(
        "residue_action", PM, br_dual, m
    )
    if lhs.component != rhs.component or lhs.poly != rhs.poly:
        report.fail(
            0,
            _describe_sample((a, b, m)),
            repr((lhs.poly - rhs.poly) if lhs.component == rhs.component
                 else (lhs.component, rhs.component)),
        )
    elif lhs.poly.is_zero():
        report.trivial += 1
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
    znames, wnames, unames = (tuple("%s%d" % (c, i + 1) for i in range(space.rank)) for c in "zwu")
    combined = VarSet(znames + wnames)
    rows = {u: {z: 1, w: 1} for u, z, w in zip(unames, znames, wnames)}
    for i, a in enumerate(samples):
        report.count()
        t = space.translate(a, list(znames), trunc)
        const = t.constant_term()
        if const != space.payload(a):
            report.fail(i, "translation at the origin moved the class",
                        repr(const - space.payload(a)))
            continue
        tw = space.translate(a, list(wnames), trunc)
        lhs = nest(
            lambda p, room: LocalizedSeries(
                space.translate(space.rebuild(a, p), list(znames), room)
            ),
            LocalizedSeries(tw),
            znames,
        )
        tu = space.translate(a, list(unames), trunc)
        rhs = tu.compose(combined, _shift_images(space.law, combined, rows, trunc))
        _compared(report, i, lhs, LocalizedSeries(rhs, (), lhs.blocks),
                  "translations do not compose through the group law")
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
    """The two compatibilities of a map of vertex spaces, each a nesting
    identity: translating before the map shifts its coordinates, and
    translating after the map shifts them through the lattice matrix."""
    report = CheckReport("vertex-space-map")
    znames, wnames, unames = (
        tuple("%s%d" % (c, i + 1) for i in range(f.source.rank)) for c in "zwu"
    )
    pnames = tuple("p%d" % (i + 1) for i in range(f.target.rank))
    before = {u: {z: 1, w: 1} for u, z, w in zip(unames, znames, wnames)}
    after = {u: {**dict(zip(pnames, row)), z: 1} for u, z, row in zip(unames, znames, f.sharp)}
    for i, a in enumerate(samples):
        report.count()
        flat = partial(f.action, a, unames)
        laws = (
            # the outer rebuilds from a: the inner translation needs no component
            (lambda order: ElementSeries(
                None, LocalizedSeries(f.source.translate(a, list(wnames), order))),
             lambda x, p, order: f.action(f.source.rebuild(a, p), znames, order),
             znames, wnames, before, "translation before the map fails to shift"),
            # the map's series x carries its component, all that a rebuild
            # adapter reads of a template
            (partial(f.action, a, znames),
             lambda x, p, order: ElementSeries(x.component, LocalizedSeries(
                 f.target.translate(f.target.rebuild(x, p), list(pnames), order))),
             pnames, znames, after, "translation after the map fails to shift"),
        )
        for inner, outer, lead, rest, rows, reason in laws:
            lhs, full, work, _ = _nested_and_flat(inner, outer, flat, lead, trunc)
            combined = VarSet(lead + rest)
            images = _shift_images(f.source.law, combined, rows, work)
            rhs = shifted_flat(full, images, combined, (lead, rest), trunc)
            if not _compared(report, i, lhs.series, rhs.series, reason):
                break
            if lhs.component != rhs.component:
                report.fail(i, "components differ")
                break
    return report
