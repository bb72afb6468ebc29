"""The benchmark's three workloads: seeded inputs and the identity checks run on them.

Every workload is a fixed-size list of exact identity checks.  A seed only
picks the nonzero rational coefficients of the input classes; the monomial
supports, ranks and truncation orders are fixed, so every seed costs about
the same and every seed must give the same verdicts.  Each positive check
has negative controls that must fail: a +1 perturbation, weight-inconsistent
class data, or a corrupted product family.

Library functions are always reached through their module (``homology.translate``),
never bound locally, so that the tracer's wrappers see every call.
"""

import functools
import itertools
import random
from fractions import Fraction

from vertexalg import charclass, homology, ktheory, series, structures
from vertexalg.charclass import KClass, OrientationData, Summand
from vertexalg.homology import ComponentLabel, HomologyElement
from vertexalg.poly import Poly
from vertexalg.series import INF, LinearForm, LocalizedSeries, TruncSeries, VarSet
from vertexalg.structures import (
    MODULE_POLES,
    TWISTED_POLES,
    VA_POLES,
    ElementSeries,
    ProductFamily,
)

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"


class Check:
    """One identity check of a pass: ``run()`` returns HOLDS, FAILS or
    INCONCLUSIVE, and the check is right when that equals ``expect``."""

    __slots__ = ("name", "expect", "run")

    def __init__(self, name, expect, run):
        self.name = name
        self.expect = expect
        self.run = run


def _coefficient(rng):
    """A nonzero small integer, as an exact rational."""
    return Fraction(rng.choice((1, 2, 3, 4, 5)) * rng.choice((1, -1)))


def _combination(rng, monomials):
    """Seeded nonzero coefficients on a fixed list of monomials."""
    out = Poly()
    for m in monomials:
        out = out + m * _coefficient(rng)
    return out


def _poly(c):
    return c if isinstance(c, Poly) else Poly.const(c)


def _one_like(x):
    return LocalizedSeries(TruncSeries.const(x.varset, 1, INF), (), x.blocks)


def _series_verdict(lhs, rhs):
    equal, conclusive, _ = structures.compare_series(lhs, rhs)
    if not equal:
        return FAILS
    return HOLDS if conclusive else INCONCLUSIVE


def _report_verdict(report):
    if report.passed:
        return HOLDS
    if report.counterexample["reason"] == "vacuous comparison window":
        return INCONCLUSIVE
    return FAILS


def _swap_checks(label, sides, bad_sides):
    """The positive swap identity, its +1 perturbation and its
    weight-inconsistent control; the first two share one pair of sides."""
    both = functools.cache(sides)

    def perturbed():
        lhs, rhs = both()
        return _series_verdict(lhs, rhs + _one_like(rhs))

    return [
        Check(label, HOLDS, lambda: _series_verdict(*both())),
        Check(label + "/plus-one", FAILS, perturbed),
        Check(label + "/weight-inconsistent", FAILS, lambda: _series_verdict(*bad_sides())),
    ]


S1, S2, S3 = (Poly.variable("s%d" % k) for k in (1, 2, 3))
CH1 = Poly.variable("ch1")
U = Poly.variable("u")
L = Poly.variable("l")
Z = VarSet(("z",))
ZW = VarSet(("z", "w"))
ZW_BLOCKS = (("z",), ("w",))
X = VarSet(("x",))
XY = VarSet(("x", "y"))
XY_BLOCKS = (("x",), ("y",))


def _bu(rank):
    return ComponentLabel("BU_Z", (rank,))


# -- swap-additive: translation past a localized Euler class ---------------------


def additive_swap_sides(euler_of, E, comp, a_poly, trunc):
    """Both sides of the translation/Euler swap identity over (z, w).

    Working orders are raised by the Euler class's pole degree, so both sides
    are exact up to net degree ``trunc`` after clearing and re-expansion.
    """
    e = euler_of(E)
    den_e = e.den_degree()
    ez = e.substitute_linear(ZW, {"z": {"z": 1}}, ZW_BLOCKS)
    ezw = e.substitute_linear(ZW, {"z": {"z": 1, "w": 1}}, ZW_BLOCKS)
    ta = homology.translate(HomologyElement(comp, a_poly), ["w"], trunc + den_e)
    ta = ta.substitute_linear(ZW, {"w": {"w": 1}})
    lhs = charclass.cap_localized(LocalizedSeries(ta, (), ZW_BLOCKS) * ez, comp)
    inner = charclass.cap_localized(ezw * a_poly, comp)
    num = homology.translate_series(inner.num.with_order(2 * trunc + den_e), comp, ["w"])
    rhs = series.iota_expand(
        LocalizedSeries(num, inner.den, ZW_BLOCKS, inner.block_bounds), ZW_BLOCKS, trunc
    )
    return lhs, rhs


def _build_swap_additive(rng):
    # BU_Z(2) at trunc 4: weight-0 invariant part plus tautological weights 1, 2
    bu2 = _bu(2)
    depth = 1 + 4
    taut = charclass.tautological_summand(bu2, None, depth)
    bu2_class = KClass(
        Z,
        {
            (0,): charclass.tensor_summand(taut.dualize(), taut, depth),
            (1,): taut,
            (2,): charclass.tensor_summand(taut, taut, depth).negate(),
        },
        depth,
        zero_is_bundle=True,
    )
    # BU_Z(1) at trunc 3 with a weighted-degree-3 input
    bu1 = _bu(1)
    depth = 3 + 3
    taut = charclass.tautological_summand(bu1, None, depth)
    bu1_class = KClass(
        Z, {(1,): taut, (2,): charclass.tensor_summand(taut, taut, depth).negate()}, depth
    )
    # a self-dual oriented class for the square-root Euler variant
    depth = 1 + 3
    taut = charclass.tautological_summand(bu1, None, depth)
    square = charclass.tensor_summand(taut, taut, depth)
    real_class = KClass(
        Z,
        {
            (1,): taut,
            (-1,): taut.dualize(),
            (2,): square.negate(),
            (-2,): square.dualize().negate(),
        },
        depth,
        orientation=OrientationData(),
    )
    # generator characters declared at the wrong weights
    inconsistent = KClass(Z, {(0,): Summand(1, {1: CH1})}, 4, zero_is_bundle=True)
    real_inconsistent = KClass(
        Z,
        {
            (2,): taut,
            (-2,): taut.dualize(),
            (1,): square.negate(),
            (-1,): square.dualize().negate(),
        },
        depth,
        orientation=OrientationData(),
    )
    return {
        "bu2_class": bu2_class,
        "bu2_input": _combination(rng, [S1]),
        "bu1_class": bu1_class,
        "bu1_input": _combination(rng, [S1 * S2, S3]),
        "real_class": real_class,
        "real_input": _combination(rng, [S1]),
        "inconsistent": inconsistent,
        "real_inconsistent": real_inconsistent,
        "low_input": _combination(rng, [S1]),
    }


def _checks_swap_additive(inp):
    euler = lambda E: charclass.equivariant_euler(E)
    sqrt_euler = lambda E: charclass.sqrt_equivariant_euler(E)
    bu1, bu2 = _bu(1), _bu(2)
    low = inp["low_input"]
    return (
        _swap_checks(
            "euler/BU_Z(2)/trunc4",
            lambda: additive_swap_sides(euler, inp["bu2_class"], bu2, inp["bu2_input"], 4),
            lambda: additive_swap_sides(euler, inp["inconsistent"], bu1, low, 2),
        )
        + _swap_checks(
            "euler/BU_Z(1)/deg3/trunc3",
            lambda: additive_swap_sides(euler, inp["bu1_class"], bu1, inp["bu1_input"], 3),
            lambda: additive_swap_sides(euler, inp["inconsistent"], bu1, inp["bu1_input"], 2),
        )
        + _swap_checks(
            "sqrt-euler/BU_Z(1)/trunc3",
            lambda: additive_swap_sides(sqrt_euler, inp["real_class"], bu1, inp["real_input"], 3),
            lambda: additive_swap_sides(sqrt_euler, inp["real_inconsistent"], bu1, low, 2),
        )
    )


# -- swap-multiplicative: K-homology translation past a wedge series ---------------


def multiplicative_swap_sides(E, a, trunc, cutoff):
    """Both sides of the multiplicative swap identity over x = z-1, y = w-1."""
    Ex = E.pullback_weights([[1], [0]], XY)
    Exy = E.pullback_weights([[1], [1]], XY)
    wz = ktheory.wedge_minus_z(Ex, trunc, cutoff, XY_BLOCKS, depth=trunc)
    den_e = wz.den_degree()
    base = TruncSeries(XY, trunc + den_e, {XY.zero_exponent(): a})
    dya = ktheory.mult_translate_series(base, "y", "l", trunc + den_e)
    raw = LocalizedSeries(dya, (), XY_BLOCKS) * wz
    lhs = LocalizedSeries(
        raw.num.map_coefficients(ktheory.k_contract), raw.den, XY_BLOCKS, raw.block_bounds
    )
    wzw = ktheory.wedge_minus_z(Exy, 2 * trunc + den_e, cutoff, XY_BLOCKS, depth=trunc)
    rawi = wzw * a
    inum = rawi.num.map_coefficients(ktheory.k_contract)
    order = inum.order if inum.order is not INF else 2 * trunc + den_e
    num = ktheory.mult_translate_series(inum.with_order(order), "y", "l", order)
    rhs = series.iota_expand(
        LocalizedSeries(num, rawi.den, XY_BLOCKS, rawi.block_bounds), XY_BLOCKS, trunc
    )
    return lhs, rhs


def _build_swap_multiplicative(rng):
    square_line = U * 2 + U * U  # the canonical line squared, minus one
    return {
        "honest": KClass(
            X,
            {(1,): Summand(1, None, [(1, U)]), (2,): Summand(1, None, [(1, square_line)])},
            5,
        ),
        "virtual": KClass(
            X,
            {(1,): Summand(1, None, [(1, U)]), (2,): Summand(-1, None, [(-1, square_line)])},
            5,
        ),
        "inconsistent": KClass(X, {(2,): Summand(1, None, [(1, U)])}, 5),
        "honest_input": _combination(rng, [Poly.const(1), L, L * L]),
        "virtual_input": _combination(rng, [Poly.const(1), L, L * L]),
    }


def _checks_swap_multiplicative(inp):
    checks = []
    for kind in ("honest", "virtual"):
        a = inp[kind + "_input"]
        checks += _swap_checks(
            "wedge/%s/cutoff5/trunc3" % kind,
            lambda E=inp[kind], a=a: multiplicative_swap_sides(E, a, 3, 5),
            lambda a=a: multiplicative_swap_sides(inp["inconsistent"], a, 2, 4),
        )
    return checks


# -- axioms-translation: vertex-algebra axioms on a pole-free product family -------


def _translated_items(a, names, slot, trunc, scale=1):
    """(exponent, polynomial) pairs of a class translated along one coordinate;
    ``scale`` reads the coordinate as scale * z, which corrupts the family."""
    t = homology.translate(a, [names[slot]], trunc)
    items = []
    for (k,), p in sorted(t.terms.items()):
        e = [0] * len(names)
        e[slot] = k
        items.append((tuple(e), _poly(p) * Fraction(scale) ** k))
    return items


def _sum_map_product(elements, names, trunc, slot_items):
    """Multiply the slot expansions through the sum-map pushforward."""
    out = {}
    for combo in itertools.product(*slot_items):
        e = tuple(map(sum, zip(*(ex for ex, _ in combo)))) if names else ()
        if sum(e) > trunc:
            continue
        parts = [HomologyElement(a.component, p) for a, (_, p) in zip(elements, combo)]
        p = homology.pushforward_substitute(homology.tensor(*parts)).poly
        out[e] = out[e] + p if e in out else p
    target = _bu(sum(a.component.index[0] for a in elements))
    num = TruncSeries(VarSet(tuple(names)), trunc, out)
    return ElementSeries(target, LocalizedSeries(num, ()))


def translation_product(elements, names, trunc, head_scale=1):
    """Translate each argument by its own coordinate, then push forward
    along the sum map.  Commutative, associative and pole-free."""
    items = [
        _translated_items(a, names, i, trunc, head_scale if i == 0 else 1)
        for i, a in enumerate(elements)
    ]
    return _sum_map_product(elements, names, trunc, items)


def module_product(elements, names, trunc, move_module=False):
    """The same product acting on an untranslated last element.  The
    corrupted variant translates the module element by the first coordinate."""
    *heads, m = elements
    items = [_translated_items(a, names, i, trunc) for i, a in enumerate(heads)]
    if move_module and names:
        items.append(_translated_items(m, names, 0, trunc))
    else:
        items.append([((0,) * len(names), m.poly)])
    return _sum_map_product(elements, names, trunc, items)


def _reversed(x, name):
    return x.substitute_linear(x.varset, {name: {name: -1}})


def symmetrized_action(elements, names, trunc):
    """Average of acting by a and by its dual at the reversed coordinate,
    which makes the action compatible with the dual involution."""
    a, m = elements
    plus = module_product((a, m), names, trunc)
    minus = module_product((homology.involution_dual(a), m), names, trunc)
    half = Fraction(1, 2)
    return ElementSeries(
        plus.component, plus.series.scale(half) + _reversed(minus.series, names[0]).scale(half)
    )


def _with_pole(out, coeffs, scale=1):
    form, _ = LinearForm.make(out.series.varset, coeffs)
    return ElementSeries(
        out.component, LocalizedSeries(out.series.num.scale(scale), [(form, 1)], out.series.blocks)
    )


def pole_product(elements, names, trunc, scale=1):
    """The translation product with a simple (z - w) pole on two points."""
    out = translation_product(elements, names, trunc)
    if len(names) == 2:
        return _with_pole(out, {names[0]: 1, names[1]: -1}, scale)
    return out


def rank_weighted_action(elements, names, trunc):
    """A one-point action with a simple pole whose residue is scaled by one
    plus the acted-on element's rank: not a module action."""
    out = symmetrized_action(elements, names, trunc)
    return _with_pole(out, {names[0]: 1}, 1 + elements[-1].component.index[0])


def _scaled_product(elements, names, trunc):
    out = translation_product(elements, names, trunc)
    return ElementSeries(out.component, out.series.scale(2))


def _bumped_product(elements, names, trunc):
    """Two-point products multiplied by 1 + (first coordinate)."""
    out = translation_product(elements, names, trunc)
    if len(names) != 2:
        return out
    vs = out.series.varset
    bump = TruncSeries.const(vs, 1, INF) + TruncSeries.variable(vs, names[0], INF)
    s = out.series
    return ElementSeries(out.component, LocalizedSeries(s.num * bump, s.den, s.blocks))


def _skewed_product(elements, names, trunc):
    return translation_product(elements, names, trunc, head_scale=2 if len(names) >= 2 else 1)


def _moved_module(elements, names, trunc):
    return module_product(elements, names, trunc, move_module=True)


FAMILY = ProductFamily("translation-product", translation_product, VA_POLES)
MODULE = ProductFamily("translation-module", module_product, MODULE_POLES, module=True)
TWISTED = ProductFamily(
    "symmetrized-module",
    symmetrized_action,
    TWISTED_POLES,
    module=True,
    involution=homology.involution_dual,
)
POLE = ProductFamily("diagonal-pole", pole_product, VA_POLES)
BAD_POLE = ProductFamily(
    "doubled-diagonal-pole", lambda e, n, t: pole_product(e, n, t, scale=2), VA_POLES
)
BAD_UNIT = ProductFamily("scaled", _scaled_product, VA_POLES)
BAD_COMMUTATIVITY = ProductFamily("bumped", _bumped_product, VA_POLES)
BAD_ASSOCIATIVITY = ProductFamily("skewed", _skewed_product, VA_POLES)
BAD_MODULE = ProductFamily("moved-module", _moved_module, MODULE_POLES, module=True)
BAD_TWISTED = ProductFamily(
    "rank-weighted",
    rank_weighted_action,
    TWISTED_POLES,
    module=True,
    involution=homology.involution_dual,
)


def _build_axioms_translation(rng):
    def el(rank, *monomials):
        return HomologyElement(_bu(rank), _combination(rng, monomials))

    one = Poly.const(1)
    return {
        "unit": [el(0, one), el(1, S1), el(2, S1 * S1, S2)],
        "commutativity": [
            (el(1, S1), el(1, one)),
            (el(1, S1), el(2, S2)),
            (el(0, one), el(1, S1), el(1, S1)),
        ],
        "associativity": [
            ((el(1, S1), el(1, one)), (el(1, S1),)),
            ((el(1, S1),), (el(0, one), el(1, S2))),
        ],
        "module_associativity": [((el(1, S1), el(1, one)), (el(1, S1), el(1, S1)))],
        "nesting": [
            ((el(1, S1),), (el(1, one),), el(1, S1)),
            ((el(1, S2),), (el(1, S1),), el(0, one)),
        ],
        "translation": [(el(1, S1), el(1, S1)), (el(1, S2), el(1, one))],
        "twisted": [
            (el(1, S1), el(1, one), el(1, S1)),
            (el(1, S2), el(1, S1), el(0, one)),
        ],
        "lie": (el(1, S1, S2), el(2, one), el(1, S1)),
        "bracket": (el(1, S1), el(1, one)),
    }


def _bracket_verdict(family, a, b):
    got = structures.lie_bracket(family, a, b, 3)
    want = homology.pushforward_substitute(homology.tensor(a, b))
    return HOLDS if got.component == want.component and got.poly == want.poly else FAILS


def _checks_axioms_translation(inp):
    def report(check, *args):
        # looked up when the check runs, so that installed wrappers see it
        return lambda: _report_verdict(getattr(structures, check)(*args))

    twisted, lie, bracket = inp["twisted"], inp["lie"], inp["bracket"]
    pairs = [
        ("unit", lambda P: report("check_unit", P, inp["unit"], 4), FAMILY, BAD_UNIT),
        (
            "commutativity",
            lambda P: report("check_commutativity", P, inp["commutativity"], 3),
            FAMILY,
            BAD_COMMUTATIVITY,
        ),
        (
            "associativity",
            lambda P: report("check_associativity", P, inp["associativity"], 3),
            FAMILY,
            BAD_ASSOCIATIVITY,
        ),
        (
            "module-associativity",
            lambda P: report("check_associativity", P, inp["module_associativity"], 3, FAMILY),
            MODULE,
            BAD_MODULE,
        ),
        (
            "module-nesting",
            lambda P: report("check_module_nesting", P, inp["nesting"], 3),
            MODULE,
            BAD_MODULE,
        ),
        (
            "translation-axiom",
            lambda P: report("check_translation_axiom", P, inp["translation"], 3),
            FAMILY,
            BAD_COMMUTATIVITY,
        ),
        (
            "twisted-module",
            lambda PM: report(
                "check_twisted_module", FAMILY, PM, homology.involution_dual, twisted, 3
            ),
            TWISTED,
            MODULE,
        ),
        (
            "twisted-lie-identity",
            lambda PM: report("check_twisted_lie_identity", FAMILY, PM, *lie, 3),
            TWISTED,
            BAD_TWISTED,
        ),
        ("residue-bracket", lambda P: lambda: _bracket_verdict(P, *bracket), POLE, BAD_POLE),
    ]
    checks = []
    for name, make, good, bad in pairs:
        checks.append(Check(name, HOLDS, make(good)))
        checks.append(Check(name + "/" + bad.name, FAILS, make(bad)))
    return checks


WORKLOADS = {
    "swap-additive": (_build_swap_additive, _checks_swap_additive),
    "axioms-translation": (_build_axioms_translation, _checks_axioms_translation),
    "swap-multiplicative": (_build_swap_multiplicative, _checks_swap_multiplicative),
}


def build_inputs(workload, seed):
    """The workload's input classes, drawn from the seed."""
    build, _ = WORKLOADS[workload]
    return build(random.Random("%s/%d" % (workload, seed)))


def pass_checks(workload, inputs):
    """A fresh list of the workload's checks for one pass."""
    _, checks = WORKLOADS[workload]
    return checks(inputs)


def fingerprint(x):
    """A canonical, comparable rendering of generated inputs."""
    if isinstance(x, dict):
        return {k: fingerprint(v) for k, v in sorted(x.items())}
    if isinstance(x, (list, tuple)):
        return [fingerprint(v) for v in x]
    if isinstance(x, KClass):
        return charclass.kclass_to_obj(x)
    return repr(x)
