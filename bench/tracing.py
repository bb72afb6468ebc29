"""Per-layer measurement of the library from outside it.

Nothing here edits the library.  Wrappers are installed by replacing a
public function in every ``vertexalg`` module namespace that holds it
(``charclass`` imports its own ``contract_poly``, for instance), and by
replacing methods on the ``Poly``, ``TruncSeries`` and ``ProductFamily``
classes.  ``Patches.restore`` puts every original object back.

A wrapped call records its count, self time (its duration minus the time
spent in wrapped callees), inclusive time and the number of terms going in
and out.  Calls of the hot leaves (the ``poly`` methods, ``cap_poly`` and
series multiplication, about a million calls a pass) are only accumulated;
every other wrapped call also records a span (name, start, end, parent).
"""

import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

from vertexalg import charclass, homology, ktheory, series, structures
from vertexalg.charclass import KClass
from vertexalg.homology import HomologyElement
from vertexalg.poly import Poly
from vertexalg.series import LocalizedSeries, TruncSeries
from vertexalg.structures import ElementSeries, ProductFamily


class Patches:
    """Attributes replaced on modules and classes, restored in reverse order."""

    def __init__(self):
        self._saved = []

    def replace_function(self, original, wrapper):
        """Replace ``original`` wherever a vertexalg module namespace holds it."""
        found = False
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "vertexalg" or name.startswith("vertexalg.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
                    found = True
        if not found:
            raise LookupError("%r is not held by any vertexalg module" % original)

    def replace_method(self, cls, attr, wrapper):
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


# -- comparison windows -------------------------------------------------------


def window_positions(lhs, rhs):
    """Coefficient positions compared by ``compare_series(lhs, rhs)``.

    The window is the one ``series_sub_cleared`` keeps: exponents of total
    degree at most the common valid order plus the degree of the common
    denominator, and per block at most the net bound plus that block's
    denominator degree.  When both sides are exact polynomials, the
    positions where either numerator has a term are counted instead.
    """
    mult = {}
    for form, m in lhs.den + rhs.den:
        mult[form.coeffs] = max(mult.get(form.coeffs, 0), m)
    caps = []  # (variable indices of a block, its degree cap or None)
    for block, b1, b2 in zip(lhs.blocks, lhs.block_bounds, rhs.block_bounds):
        idx = [lhs.varset.index(n) for n in block]
        bounds = [b for b in (b1, b2) if b is not None]
        den = sum(m for coeffs, m in mult.items() if any(coeffs[i] for i in idx))
        caps.append((idx, min(bounds) + den if bounds else None))
    valid = [v for v in (lhs.valid_order(), rhs.valid_order()) if v is not None]
    if not valid:
        support = set(lhs.num.terms) | set(rhs.num.terms)
        return sum(
            all(cap is None or sum(e[i] for i in idx) <= cap for idx, cap in caps)
            for e in support
        )
    total = min(valid) + sum(mult.values())
    if total < 0:
        return 0
    # ways[s]: exponent vectors over the blocks seen so far with total degree s
    ways = [1] + [0] * total
    for idx, cap in caps:
        top = total if cap is None else min(cap, total)
        new = [0] * (total + 1)
        for s, w in enumerate(ways):
            for d in range(min(top, total - s) + 1):
                new[s + d] += w * comb(d + len(idx) - 1, len(idx) - 1)
        ways = new
    return sum(ways)


class WindowCounter:
    """Sums the compared coefficient positions over every call of
    ``structures.compare_series``, whoever makes it."""

    def __init__(self):
        self.total = 0

    def install(self, patches):
        original = structures.compare_series

        def compare_series(lhs, rhs):
            result = original(lhs, rhs)
            self.total += window_positions(lhs, rhs)
            return result

        patches.replace_function(original, compare_series)


# -- layer wrappers -------------------------------------------------------------


def size(x):
    """Terms of a polynomial, series or class; 1 for a scalar, 0 otherwise."""
    if isinstance(x, (Poly, TruncSeries)):
        return len(x.terms)
    if isinstance(x, LocalizedSeries):
        return len(x.num.terms)
    if isinstance(x, HomologyElement):
        return len(x.poly.terms)
    if isinstance(x, ElementSeries):
        return len(x.series.num.terms)
    if isinstance(x, KClass):
        return len(x.summands)
    if isinstance(x, (int, Fraction)):
        return 1
    return 0


def _first(args):
    return size(args[0])


def _two(args):
    return size(args[0]) + size(args[1])


def _poly_pair(args):
    other = args[1]
    return len(args[0].terms) + (len(other.terms) if type(other) is Poly else 1)


def _poly_one(args):
    return len(args[0].terms)


def _poly_out(result):
    return len(result.terms) if type(result) is Poly else 0


def _substitute_in(args):
    return len(args[0].terms) + sum(size(p) for p in args[1].values())


def _is_probe(args):
    # ProductFamily.product(self, elements, names, trunc): order-0 calls
    # only learn a product's pole degree
    return 1 if args[3] == 0 else 0


def _nothing(_):
    return 0


CHECKS = (
    "check_unit",
    "check_commutativity",
    "check_associativity",
    "check_module_nesting",
    "check_translation_axiom",
    "check_twisted_module",
    "check_twisted_lie_identity",
)

# (layer, module, attribute, terms in, terms out, hot) for module functions
FUNCTIONS = [
    ("homology.contract_poly", homology, "contract_poly", _first, size, False),
    ("homology.cap_poly", homology, "cap_poly", _two, size, True),
    ("homology.pushforward_substitute", homology, "pushforward_substitute", _first, size, False),
    ("homology.translate", homology, "translate", _first, size, False),
    ("ktheory.wedge_minus_z", ktheory, "wedge_minus_z", _first, size, False),
    ("ktheory.mult_translate_series", ktheory, "mult_translate_series", _first, size, False),
    ("ktheory.k_contract", ktheory, "k_contract", _first, size, False),
    ("structures.nested_product", structures, "nested_product", lambda a: size(a[1]), size, False),
    ("structures.compare_series", structures, "compare_series", _two, _nothing, False),
    ("series.iota_expand", series, "iota_expand", _first, size, False),
    ("series.residue", series, "residue", _first, size, False),
    ("series.exp_invert", series, "series_exp", _first, size, False),
    ("series.exp_invert", series, "series_invert_unit", _first, size, False),
    ("charclass.equivariant_euler", charclass, "equivariant_euler", _first, size, False),
    ("charclass.sqrt_equivariant_euler", charclass, "sqrt_equivariant_euler", _first, size, False),
    ("charclass.cap_localized", charclass, "cap_localized", _first, size, False),
] + [
    ("structures.check." + fn[len("check_"):], structures, fn, _nothing, _nothing, False)
    for fn in CHECKS
]

# (layer, class, attribute, terms in, terms out, hot) for methods
METHODS = [
    ("poly.mul", Poly, "__mul__", _poly_pair, _poly_out, True),
    ("poly.mul", Poly, "__rmul__", _poly_pair, _poly_out, True),
    ("poly.add", Poly, "__add__", _poly_pair, _poly_out, True),
    ("poly.add", Poly, "__radd__", _poly_pair, _poly_out, True),
    ("poly.diff", Poly, "diff", _poly_one, _poly_out, True),
    ("poly.substitute", Poly, "substitute", _substitute_in, _poly_out, True),
    ("poly.pow", Poly, "__pow__", _poly_one, _poly_out, True),
    ("series.mul", TruncSeries, "__mul__", _two, size, True),
    ("series.mul", TruncSeries, "__rmul__", _two, size, True),
    ("series.substitute_linear", TruncSeries, "substitute_linear", _first, size, False),
    ("structures.product", ProductFamily, "product", _is_probe, size, False),
]

LAYERS = sorted({spec[0] for spec in FUNCTIONS} | {spec[0] for spec in METHODS})


class Tracer:
    """Counts and times the wrapped layers while installed.

    ``stats`` maps a layer to [calls, self seconds, inclusive seconds, terms
    in, terms out]; ``spans`` holds [name, start, end, parent span index]
    for the calls that are not hot leaves, parent -1 at the top.  Times are
    read off ``clock``, which may exclude the benchmark's own sampling.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {name: [0, 0.0, 0.0, 0, 0] for name in LAYERS}
        self.spans = []
        self._stack = []

    def reset_stats(self):
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0, 0, 0]

    def wrap(self, name, fn, terms_in, terms_out, hot):
        stat = self.stats[name]
        stack, spans, clock = self._stack, self.spans, self.clock

        def wrapper(*args, **kwargs):
            t0 = clock()
            parent = stack[-1] if stack else None
            up = parent[1] if parent is not None else -1
            if hot:
                frame = [0.0, up]
            else:
                frame = [0.0, len(spans)]
                spans.append([name, t0, t0, up])
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if not hot:
                    spans[frame[1]][2] = t1
                stat[0] += 1
                stat[1] += t1 - t0 - frame[0]
                stat[2] += t1 - t0
            stat[3] += terms_in(args)
            stat[4] += terms_out(result)
            if parent is not None:
                # the caller's self time excludes this wrapper's own cost too
                parent[0] += clock() - t0
            return result

        return wrapper

    @contextmanager
    def region(self, name):
        """A span of the benchmark's own (a pass, a check) with no stats."""
        stack = self._stack
        t0 = self.clock()
        frame = [0.0, len(self.spans)]
        self.spans.append([name, t0, t0, stack[-1][1] if stack else -1])
        stack.append(frame)
        try:
            yield
        finally:
            t1 = self.clock()
            stack.pop()
            self.spans[frame[1]][2] = t1
            if stack:
                stack[-1][0] += t1 - t0

    def install(self, patches):
        for name, module, attr, terms_in, terms_out, hot in FUNCTIONS:
            # wrap what the namespace holds now, which may be a window counter
            current = getattr(module, attr)
            patches.replace_function(current, self.wrap(name, current, terms_in, terms_out, hot))
        for name, cls, attr, terms_in, terms_out, hot in METHODS:
            patches.replace_method(
                cls, attr, self.wrap(name, cls.__dict__[attr], terms_in, terms_out, hot)
            )

    def layer_metrics(self, pass_s):
        """Per-layer figures since the last reset, as two dicts: counts,
        which must repeat exactly at a fixed seed, and times as shares of
        the pass, ``pass_s`` seconds on this tracer's clock."""
        counts, shares = {}, {}
        for name, (calls, self_s, incl_s, t_in, t_out) in sorted(self.stats.items()):
            if name.startswith("structures.check."):
                shares[name + ".share"] = incl_s / pass_s
                continue
            counts[name + ".calls"] = calls
            if name == "structures.product":
                counts[name + ".probe_share"] = t_in / calls if calls else 0.0
                continue
            shares[name + ".self_share"] = self_s / pass_s
            shares[name + ".incl_share"] = incl_s / pass_s
            counts[name + ".terms_in"] = t_in
            if name != "structures.compare_series":
                counts[name + ".terms_out"] = t_out
        _, _, _, t_in, t_out = self.stats["homology.contract_poly"]
        counts["homology.contract.keep_ratio"] = t_out / t_in if t_in else 0.0
        return counts, shares


def unit(metric):
    """The unit of a per-layer metric."""
    return "ratio" if metric.endswith(("share", "ratio")) else "count"
