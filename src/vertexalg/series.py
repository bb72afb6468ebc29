"""Exact truncated multivariate series, localization at linear forms, and
iterated Laurent expansion.

The objects here model three nested rings over the coefficient ring R of
exact-rational polynomials, `Poly`; a rational coefficient is a constant
`Poly`:

* ``TruncSeries`` -- R[[z_1,...,z_n]] truncated at a total-degree bound.
  Exponents are always nonnegative; negative powers only ever enter through
  a denominator.
* ``LocalizedSeries`` -- fractions ``num / prod(form_k ** mult_k)`` where
  each ``form_k`` is an integer linear form in the variables.  This realizes
  the localizations actually needed: all denominators in sight are products
  of forms like z, z - w, z + w, 2z.
* iterated Laurent rings R((B_1))((B_2))... for an ordered partition of the
  variables into blocks.  :func:`expand_poles` is the one expansion into
  them, for the additive and the multiplicative coordinate law alike: a
  denominator that is a form on a single block times a unit stays in the
  denominator (it is invertible in that block's local ring), and any other
  is split as F + B, its terms on its earliest block, which is treated as
  dominant, and the rest; F is a form times a unit q, and the inverse is
  a geometric series in B / F.  :func:`iota_expand` is that expansion of a
  localized series, bounded on each later block by its net degree.

A change of coordinates is `LocalizedSeries.compose`:
`TruncSeries.compose` maps the numerator and :func:`expand_poles` maps
every pole.  `LocalizedSeries.substitute_linear`,
``structures.shifted_flat`` and :func:`residue` (a shift, an expansion,
then `coefficient_of_power`) are built on it.  `_Powers` is the one power
table, each power one product with the last: compose,
`TruncSeries.__pow__`, the pole expansions and `_power_sum` (the inverse
of a unit, and in ``charclass`` the Chern logarithm and the Euler
factors) take every power from one.  Compose sums each output coefficient
once, as a product does.  :func:`series_exp` makes no power: it reads
exp(a) degree by degree from a recurrence, each coefficient one sum of
products.

:func:`nest` is the one nesting of a series in a series-valued map, each
coefficient at the order its monomial leaves; ``structures.nested_product``
and the vertex-space checkers are built on it.  A `LazySeries` (a lazy cap,
a translation in either coordinate law, an uncapped product of one with a
plain series, or its embedding among fresh leading names) makes each raw
term's terms, at or above its exponent, on demand; a capped product reads
it through its window, so a chain of them builds only the window its last
reader compares, and `_placed` is the one layout of a series stepped
along names.

A localized series holds only its window: its constructor drops every
numerator term past a block's cap, the net bound plus the block's
denominator degree, as a truncated series drops the terms past its order;
`_localized` builds one whose numerator is inside its window already.
Equality is decided by the difference, whose numerator is zero exactly
when both sides agree where both are exact.  Nothing here ever touches
floating point.

>>> zw = VarSet(("z", "w"))
>>> x = LocalizedSeries.one(zw, order=3).with_denominator(LinearForm.make(zw, {"z": 1, "w": 1})[0])
>>> y = iota_expand(x, (("z",), ("w",)), trunc=2)
>>> sorted(y.laurent_terms())
[((-3, 2), 1), ((-2, 1), -1), ((-1, 0), 1)]
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import add
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .poly import Poly, _make, _parse_name, exact_int
from .poly import as_poly, json_field, json_list, poly_from_obj, poly_to_obj, sum_of_products

Exponent = Tuple[int, ...]
# per capped block, its variable indices and the highest block degree kept
Caps = Tuple[Tuple[Tuple[int, ...], int], ...]

INF = None  # an order of None means "exact to all degrees"
_INT = {int}  # the type set of an exponent tuple that needs no conversion


def _min_order(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is INF:
        return b
    if b is INF:
        return a
    return min(a, b)


def _sequence(x, what: str) -> tuple:
    """``x`` as a tuple.  A string would read as a sequence of
    one-character names, so it raises ValueError, as anything not
    iterable does."""
    if isinstance(x, str):
        raise ValueError("%s must be a sequence, got the string %r" % (what, x))
    try:
        return tuple(x)
    except TypeError:
        raise ValueError("%s must be a sequence, got %r" % (what, x)) from None


def _names(x) -> Tuple[str, ...]:
    """``x`` as a tuple of variable names, as `VarSet` reads them: a
    string, anything not iterable and a name that is not a string raise
    ValueError."""
    return tuple(map(_parse_name, _sequence(x, "variable names")))


class VarSet:
    """An ordered set of formal variables with integer cohomological degrees.

    The default degree is -2, the grading of the formal variables of a
    vertex-algebra product.  Names given as one string (which would read
    as one-character names) or not as a sequence, and a name that is not
    a string, raise ValueError.
    """

    __slots__ = ("names", "degrees", "_index")

    def __init__(self, names: Sequence[str], degrees: Sequence[int] = None):
        names = _names(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        if degrees is None:
            degrees = tuple(-2 for _ in names)
        else:
            degrees = tuple(exact_int(d, "degree") for d in _sequence(degrees, "degrees"))
            if len(degrees) != len(names):
                raise ValueError("one degree per variable required")
        self.names = names
        self.degrees = degrees
        self._index = {n: i for i, n in enumerate(names)}

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VarSet)
            and self.names == other.names
            and self.degrees == other.degrees
        )

    def __hash__(self):
        return hash((self.names, self.degrees))

    def __repr__(self):
        return "VarSet(%r)" % (self.names,)

    def index(self, name: str) -> int:
        return self._index[name]

    def without(self, name: str) -> "VarSet":
        keep = [i for i, n in enumerate(self.names) if n != name]
        return VarSet(
            tuple(self.names[i] for i in keep), tuple(self.degrees[i] for i in keep)
        )

    def zero_exponent(self) -> Exponent:
        return (0,) * len(self.names)


Blocks = Tuple[Tuple[str, ...], ...]


def normalize_blocks(varset: VarSet, blocks: Sequence[Sequence[str]]) -> Blocks:
    """Validate an ordered partition of the variable set.  Blocks, or a
    block, given as a string raise ValueError, as any non-partition does."""
    out = tuple(_sequence(block, "a block") for block in _sequence(blocks, "blocks"))
    seen = [n for block in out for n in block]
    if len(seen) != len(varset.names) or set(seen) != set(varset.names):
        raise ValueError("blocks must partition the variable set")
    return out


def trivial_blocks(varset: VarSet) -> Blocks:
    return (tuple(varset.names),) if varset.names else ()


class LinearForm:
    """A nonzero integer linear form in the variables, held in canonical
    primitive shape: gcd of coefficients 1, first nonzero coefficient > 0.
    The discarded sign is returned by :meth:`make` for the caller to keep.
    """

    __slots__ = ("varset", "coeffs")

    def __init__(self, varset: VarSet, coeffs: Sequence[int]):
        coeffs = tuple(exact_int(c, "form coefficient") for c in coeffs)
        if len(coeffs) != len(varset):
            raise ValueError("coefficient vector length mismatch")
        if not any(coeffs):
            raise ValueError("zero linear form")
        g = 0
        for c in coeffs:
            g = gcd(g, abs(c))
        first = next(c for c in coeffs if c)
        if g != 1 or first < 0:
            raise ValueError("linear form not in canonical primitive shape")
        self.varset = varset
        self.coeffs = coeffs

    @staticmethod
    def make(varset: VarSet, coeffs) -> Tuple["LinearForm", int]:
        """Canonicalize an integer coefficient vector (or name->int mapping).

        Returns (form, sign) such that input = sign * form; raises if the
        coefficient vector is not primitive (content > 1), since silently
        rescaling would change the fraction the caller is building.
        """
        form, sign, scale = LinearForm.make_scaled(varset, coeffs)
        if scale != 1:
            raise ValueError("non-primitive linear form (content %d)" % scale)
        return form, sign

    @staticmethod
    def make_scaled(varset: VarSet, coeffs) -> Tuple["LinearForm", int, int]:
        """Canonicalize, returning (form, sign, content) with
        input = sign * content * form."""
        if isinstance(coeffs, Mapping):
            vec = [0] * len(varset)
            for name, c in coeffs.items():
                vec[varset.index(name)] = c
            coeffs = vec
        coeffs = [exact_int(c, "form coefficient") for c in coeffs]
        if not any(coeffs):
            raise ValueError("zero linear form")
        g = 0
        for c in coeffs:
            g = gcd(g, abs(c))
        first = next(c for c in coeffs if c)
        sign = 1 if first > 0 else -1
        canon = tuple(c * sign // g for c in coeffs)
        return LinearForm(varset, canon), sign, g

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearForm)
            and self.varset == other.varset
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        parts = []
        for name, c in zip(self.varset.names, self.coeffs):
            if not c:
                continue
            if c == 1:
                parts.append("+" + name)
            elif c == -1:
                parts.append("-" + name)
            else:
                parts.append("%+d*%s" % (c, name))
        s = "".join(parts)
        return s[1:] if s.startswith("+") else s

    def as_series(self) -> "TruncSeries":
        return TruncSeries.linear(self.varset, self.coeffs)


class TruncSeries:
    """A truncated power series: sparse exponent -> coefficient map.

    ``order`` is the total-degree bound up to which the series is exact;
    ``None`` means the series is an exact polynomial.  Stored terms always
    satisfy the bound and zero coefficients are never stored.  Every stored
    coefficient is a `Poly`: the constructor, `const` and `scale` take an
    int or a Fraction as a constant `Poly` and reject floats.  An order or
    an exponent entry that is not an int raises ValueError; a tuple of ints
    is taken as it is, anything else is read entry by entry.

    A product sums each output coefficient once, with `sum_of_products`
    over the coefficient pairs that meet there.  A `LazySeries` makes its
    terms when they are read, its `_window` only those inside a window,
    and every reader of `terms` sees no zero stored.
    """

    __slots__ = ("varset", "order", "terms")

    def __init__(
        self,
        varset: VarSet,
        order: Optional[int],
        terms: Mapping[Exponent, object] = None,
    ):
        if order is not INF and exact_int(order, "truncation order") < 0:
            raise ValueError("truncation order must be nonnegative")
        clean: Dict[Exponent, Poly] = {}
        if terms:
            n = len(varset)
            for e, c in terms.items():
                if type(e) is not tuple or not {*map(type, e)} <= _INT:
                    e = tuple(exact_int(x, "exponent") for x in e)
                if len(e) != n:
                    raise ValueError("exponent length mismatch")
                if min(e, default=0) < 0:
                    raise ValueError("negative exponent in a power series")
                if order is not INF and sum(e) > order:
                    continue
                c = as_poly(c)
                if c:
                    clean[e] = c
        self.varset = varset
        self.order = order
        self.terms = clean

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(varset: VarSet, order: Optional[int] = INF) -> "TruncSeries":
        return TruncSeries(varset, order)

    @staticmethod
    def const(varset: VarSet, c, order: Optional[int] = INF) -> "TruncSeries":
        return TruncSeries(varset, order, {varset.zero_exponent(): c})

    @staticmethod
    def variable(varset: VarSet, name: str, order: Optional[int] = INF) -> "TruncSeries":
        e = [0] * len(varset)
        e[varset.index(name)] = 1
        return TruncSeries(varset, order, {tuple(e): 1})

    @staticmethod
    def linear(varset: VarSet, coeffs: Sequence[int]) -> "TruncSeries":
        """The exact series sum_i coeffs[i] * x_i of an integer vector.

        >>> TruncSeries.linear(VarSet(("z", "w")), (2, -1))
        (-1)*w + (2)*z
        """
        n = len(varset)
        units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        return TruncSeries(varset, INF, dict(zip(units, coeffs, strict=True)))

    # -- ring structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (
            self.varset == other.varset
            and self.order == other.order
            and self.terms == other.terms
        )

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        if self.varset != other.varset:
            raise ValueError("variable set mismatch in series addition")
        order = _min_order(self.order, other.order)
        out: Dict[Exponent, Poly] = {}
        for src in (self.terms, other.terms):
            for e, c in src.items():
                if order is not INF and sum(e) > order:
                    continue
                s = out.get(e)
                s = c if s is None else s + c
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return _series(self.varset, order, out)

    def __neg__(self) -> "TruncSeries":
        return _series(self.varset, self.order, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self + (-other)

    def scale(self, c) -> "TruncSeries":
        c = as_poly(c)
        terms = {e: p for e, cc in self.terms.items() if (p := cc * c)} if c else {}
        return _series(self.varset, self.order, terms)

    def __mul__(self, other: "TruncSeries", _caps: Caps = ()) -> "TruncSeries":
        """The product; with ``_caps``, from `LocalizedSeries`, a term pair
        past a cap is skipped, a `LazySeries` factor is read through its
        `_window` of the caps, and the order claimed is the same.  Without
        caps, the product of one `LazySeries` of finite order and a plain
        series is a `LazySeries` over the lazy one (`_lazy_product`)."""
        if not isinstance(other, TruncSeries):
            return self.scale(other)
        if self.varset != other.varset:
            raise ValueError("variable set mismatch in series multiplication")
        order = _min_order(self.order, other.order)
        # an exact factor shifts the trusted order up by its valuation
        if self.order is INF and other.order is not INF:
            order = INF if not self.terms else other.order + min(map(sum, self.terms))
        elif other.order is INF and self.order is not INF:
            order = INF if not other.terms else self.order + min(map(sum, other.terms))
        lazy = type(self) is LazySeries
        if not _caps and order is not INF and lazy != (type(other) is LazySeries):
            if lazy and self.order is not INF:
                return _lazy_product(self, other, order, True)
            if not lazy and other.order is not INF:
                return _lazy_product(other, self, order, False)
        a, b = (x._window(_caps).terms if _caps and type(x) is LazySeries else x.terms
                for x in (self, other))
        # the coefficient pairs that meet at each output exponent; each sum
        # of products is then one pass of the term-product loop
        pairs: Dict[Exponent, list] = {}
        left = _grouped(a, _caps, lambda e, c: (e, c))
        right = _grouped(b, _caps, lambda e, c: (e, sum(e), c))
        for rows1, rows2 in _meeting(left, right, _caps):
            for e1, c1 in rows1:
                room = INF if order is INF else order - sum(e1)
                for e2, d2, c2 in rows2:
                    if room is not INF and d2 > room:
                        continue
                    e = tuple(map(add, e1, e2))
                    at = pairs.get(e)
                    if at is None:
                        pairs[e] = [(c1, c2)]
                    else:
                        at.append((c1, c2))
        return _series(self.varset, order, _summed(pairs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TruncSeries":
        if n < 0:
            raise ValueError("negative power of a power series")
        return _Powers(self)[n]

    def truncate(self, order: Optional[int]) -> "TruncSeries":
        return self.with_order(_min_order(self.order, order))

    def with_order(self, order: Optional[int]) -> "TruncSeries":
        """The terms claimed exact to ``order``, those past it dropped; the
        order is checked as by the constructor."""
        return TruncSeries(self.varset, order, self.terms)

    def _window(self, caps: Caps, order: Optional[int] = INF) -> "TruncSeries":
        """The terms within ``caps`` and of total degree at most ``order``,
        at this series' order; this series itself when all are."""
        kept = {e: c for e, c in self.terms.items() if _within(e, caps, order)}
        if len(kept) == len(self.terms):
            return self
        return _series(self.varset, self.order, kept)

    # -- queries ------------------------------------------------------------

    def constant_term(self) -> Poly:
        return self.terms.get(self.varset.zero_exponent()) or Poly()

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def coefficient_of(self, name: str, power: int) -> "TruncSeries":
        """Coefficient of name**power, as a series in the remaining variables;
        a negative power raises ValueError, as no term of a power series
        has one, and so does a power past the order, where no coefficient
        is known."""
        if exact_int(power, "power") < 0:
            raise ValueError("a power series has no negative power of %r" % (name,))
        if self.order is not INF and power > self.order:
            raise ValueError("%r^%d lies past the order %d" % (name, power, self.order))
        i = self.varset.index(name)
        sub = self.varset.without(name)
        out: Dict[Exponent, Poly] = {}
        for e, c in self.terms.items():
            if e[i] == power:
                out[e[:i] + e[i + 1 :]] = c
        order = self.order if self.order is INF else self.order - power
        return TruncSeries(sub, order, out)

    def map_coefficients(self, fn) -> "TruncSeries":
        out = {}
        for e, c in self.terms.items():
            v = fn(c)
            v = as_poly(v)
            if v:
                out[e] = v
        return _series(self.varset, self.order, out)

    def diff(self, name: str) -> "TruncSeries":
        """Formal derivative in one series variable; trust drops by one, and
        a series exact only to order 0 raises ValueError, as its
        derivative is known nowhere."""
        if self.order == 0:
            raise ValueError("the derivative of a series of order 0 is known nowhere")
        i = self.varset.index(name)
        out: Dict[Exponent, Poly] = {}
        for e, c in self.terms.items():
            if not e[i]:
                continue
            out[e[:i] + (e[i] - 1,) + e[i + 1 :]] = c * e[i]
        order = self.order if self.order is INF else self.order - 1
        return TruncSeries(self.varset, order, out)

    # -- substitution ---------------------------------------------------------

    def substitute_linear(
        self, target: VarSet, mapping: Mapping[str, Mapping[str, int]]
    ) -> "TruncSeries":
        """Substitute each variable by an integer linear form in new variables.

        Every variable of the current set must be mapped, and only to
        variables of ``target``.
        """
        return self.compose(target, _linear_images(self.varset, target, mapping))

    def compose(
        self, target: VarSet, mapping: Mapping[str, "TruncSeries"]
    ) -> "TruncSeries":
        """Substitute series without constant term for every variable.

        Truncation is the minimum of this series' order and the orders of
        the images; positive valuation of the images is what keeps each
        output degree a finite computation.  An exact series at exact
        images composes to an exact polynomial.

        Each image's powers come from one `_Powers` table, so every power
        is one product with the last.  A term c * x^e multiplies its
        cached powers into m = prod img_i^(e_i) and leaves the pair
        (m_f, c) under each exponent f of m; each output coefficient is
        then one `sum_of_products` over its pairs, as in a product.
        """
        order = self.order
        for name in self.varset.names:
            img = mapping.get(name)
            if img is None:
                raise ValueError("no image for variable %r" % name)
            if img.varset != target:
                raise ValueError("image of %r lives on the wrong variables" % name)
            if img.constant_term():
                raise ValueError("composition needs images without constant term")
            order = _min_order(order, img.order)
        tables = [_Powers(mapping[name].truncate(order)) for name in self.varset.names]
        one = {target.zero_exponent(): Poly.const(1)}
        pairs: Dict[Exponent, list] = {}
        for e, c in self.terms.items():
            if order is not INF and sum(e) > order:
                continue
            m = None
            for table, exp in zip(tables, e):
                if exp:
                    m = table[exp] if m is None else m * table[exp]
            for f, cf in (one if m is None else m.terms).items():
                at = pairs.get(f)
                if at is None:
                    pairs[f] = [(cf, c)]
                else:
                    at.append((cf, c))
        return _series(target, order, _summed(pairs))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=lambda ee: (sum(ee), ee)):
            c = self.terms[e]
            mono = "*".join(
                "%s^%d" % (n, x) if x > 1 else n
                for n, x in zip(self.varset.names, e)
                if x
            )
            bits.append("(%s)%s" % (c, "*" + mono if mono else ""))
        return " + ".join(bits)


def _series(varset: VarSet, order: Optional[int], terms: Dict[Exponent, Poly]) -> TruncSeries:
    """A series of terms that need no check: exponents over ``varset``
    within ``order``, and nonzero `Poly` coefficients."""
    r = TruncSeries.__new__(TruncSeries)
    r.varset, r.order, r.terms = varset, order, terms
    return r


def _placed(own: VarSet, names: Sequence[str]) -> Tuple[VarSet, Tuple[int, ...]]:
    """The variables of a series over ``own`` stepped along ``names``: the
    names ``own`` lacks first, at degree -2, then ``own``'s (``own`` itself
    when it lacks none); and the position of each of ``names`` there."""
    fresh = tuple(n for n in names if n not in own.names)
    combined = VarSet(fresh + own.names, (-2,) * len(fresh) + own.degrees) if fresh else own
    return combined, tuple(map(combined.index, names))


class LazySeries(TruncSeries):
    """A series at a raw series' order, each raw term c * x^e made when
    first read: ``make(c, room)`` maps each step f up to total degree room
    to the `Poly` term at e + f, f along ``names`` (the output
    variables are those of `_placed`: the names the raw series lacks, then
    its own).  A cap is the one-term case, with no names; a translation,
    in either coordinate law, makes the coefficient of D(z) c at step k,
    and needs a finite raw order, which bounds the room, else ValueError.
    Two more are built by `_lazy`: an uncapped product with a plain series
    (`_lazy_product`: steps along every name, over the lazy factor at the
    eager product's order) and an embedding (`substitute_linear`: one
    step of zeros along fresh leading names).  `terms` is made on the
    first read, all raw terms summed in raw exponent order with zeros
    dropped, or, over a raw series on no variables (a `translate`), the
    one raw term's made terms, zeros and steps past the order (made
    before a `with_order`) dropped; `_window` reads the raw series
    through its own and gives each raw term only the room left by the
    order and by each cap holding all of the names.  It has no
    `__getattr__`, so its other attributes read at full speed."""

    __slots__ = ("_raw", "_make", "_at", "_made", "_read")

    def __init__(self, raw: TruncSeries, make: Callable, names: Sequence[str] = ()):
        if names and raw.order is INF:
            raise ValueError("translating an exact series needs a finite order")
        self.varset, self._at = _placed(raw.varset, names)
        self.order, self._raw, self._make, self._made, self._read = raw.order, raw, make, {}, None

    @property
    def terms(self) -> Dict[Exponent, Poly]:
        """Every term, made on the first read and kept."""
        terms = self._read
        if terms is not None:
            return terms
        raw, made = self._raw, self._made
        if raw.varset.names:
            terms = self._window(()).terms
        else:
            # the one raw term sits at the origin: its steps are the exponents
            terms, room = {}, raw.order if self._at else 0
            for c in raw.terms.values():
                got = made.get(())
                if got is None or got[0] < room:
                    got = made[()] = room, self._make(c, room)
                terms = got[1]
                if got[0] > room:  # made for a higher order, shared by `with_order`
                    terms = {f: v for f, v in terms.items() if v and sum(f) <= room}
                elif not all(terms.values()):
                    terms = {f: v for f, v in terms.items() if v}
        self._read = terms
        return terms

    def __repr__(self):
        """Raw terms made and pending (a lazy raw series' repr); makes nothing."""
        raw, made = self._raw, self._made
        pending = raw if type(raw) is LazySeries else sum(e not in made for e in raw.terms)
        return "LazySeries(%r, order=%r, made=%d, pending=%r)" % (
            self.varset, self.order, len(made), pending
        )

    def with_order(self, order: Optional[int]) -> "LazySeries":
        """As `TruncSeries.with_order`, making nothing: the raw terms past
        ``order`` are dropped, and the terms already made are shared."""
        if order is not INF and exact_int(order, "truncation order") < 0:
            raise ValueError("truncation order must be nonnegative")
        r = _lazy(self.varset, order, self._raw.truncate(order), self._make, self._at)
        r._made = {e: v for e, v in self._made.items() if order is INF or sum(e) <= order}
        return r

    def substitute_linear(
        self, target: VarSet, mapping: Mapping[str, Mapping[str, int]]
    ) -> TruncSeries:
        """As `TruncSeries.substitute_linear`; an embedding, every variable
        sent to itself in ``target``'s trailing names after fresh leading
        ones, stays lazy at this series' finite order, each term made
        when read."""
        own = self.varset.names
        lead = len(target) - len(own)
        if (
            lead > 0
            and self.order is not INF
            and target.names[lead:] == own
            and all(mapping.get(n) == {n: 1} for n in own)
        ):
            zeros = (0,) * lead
            return _lazy(target, self.order, self, lambda c, room: {zeros: c}, tuple(range(lead)))
        return TruncSeries.substitute_linear(self, target, mapping)

    def _window(self, caps: Caps, order: Optional[int] = INF) -> TruncSeries:
        """As `TruncSeries._window`, as a plain series."""
        raw, at, made = self._raw, self._at, self._made
        lead = len(self.varset) - len(raw.varset)
        own = tuple((tuple(i - lead for i in idxs if i >= lead), cap) for idxs, cap in caps)
        terms = raw._window(own, order).terms.items()
        if at:
            limit = _min_order(order, raw.order)
            holds = [(idxs, cap) for idxs, cap in caps if set(at) <= set(idxs)]
            terms = sorted(terms)
        out: Dict[Exponent, Poly] = {}
        for e, c in terms:
            key = placed = (0,) * lead + e
            room = 0
            if at:
                rooms = (cap - sum(placed[i] for i in idxs) for idxs, cap in holds)
                room = min([limit - sum(e), *rooms])
            got = made.get(e)
            if got is None or got[0] < room:
                got = made[e] = room, self._make(c, room)
            for f, v in got[1].items():
                if at:
                    key = list(placed)
                    for i, x in zip(at, f):
                        key[i] += x
                    if not _within(key, caps, limit):
                        continue
                    key = tuple(key)
                out[key] = out[key] + v if key in out else v
        return _series(self.varset, self.order, {e: v for e, v in out.items() if v})


def _lazy(
    varset: VarSet, order: Optional[int], raw: TruncSeries, make: Callable, at: Tuple[int, ...]
) -> LazySeries:
    """A `LazySeries` of parts that need no check: ``varset`` holds raw's
    variables last, ``at`` gives the positions of the steps, and a finite
    ``order`` bounds the room when there are steps."""
    r = LazySeries.__new__(LazySeries)
    r.varset, r.order, r._raw, r._make, r._at, r._made, r._read = (
        varset, order, raw, make, at, {}, None
    )
    return r


def _lazy_product(lazy: LazySeries, plain: TruncSeries, order: int, left: bool) -> LazySeries:
    """The product of ``lazy`` and ``plain`` at the eager product's
    ``order``, lazy over ``lazy``: a term c steps by each exponent of
    ``plain`` within its room, to c times that coefficient, factors in the
    eager order (``lazy`` first when ``left``)."""
    rows = [(f, sum(f), d) for f, d in plain.terms.items()]
    # the raw series claims the product's order, so that reads stop there
    raw = lazy if lazy.order == order else lazy.with_order(order)

    def make(c: Poly, room: int) -> dict:
        return {f: c * d if left else d * c for f, s, d in rows if s <= room}

    return _lazy(lazy.varset, order, raw, make, tuple(range(len(lazy.varset))))


def _linear_images(
    source: VarSet, target: VarSet, mapping: Mapping[str, Mapping[str, int]]
) -> Dict[str, TruncSeries]:
    """The linear series over ``target`` that ``mapping`` sends each variable
    of ``source`` to."""
    images = {}
    for name in source.names:
        if name not in mapping:
            raise ValueError("no image for variable %r" % name)
        if not mapping[name].keys() <= set(target.names):
            raise ValueError("image of %r leaves the target variables" % name)
        vec = [mapping[name].get(t, 0) for t in target.names]
        images[name] = TruncSeries.linear(target, vec)
    return images


def _summed(pairs: Mapping[Exponent, list]) -> Dict[Exponent, Poly]:
    """Each exponent's sum of products over its coefficient pairs, the
    zero sums dropped."""
    out: Dict[Exponent, Poly] = {}
    for e, at in pairs.items():
        p = at[0][0] * at[0][1] if len(at) == 1 else sum_of_products(at)
        if p:
            out[e] = p
    return out


def _within(e: Exponent, caps: Caps, order: Optional[int] = INF) -> bool:
    if order is not INF and sum(e) > order:
        return False
    for idxs, cap in caps:
        degree = 0
        for i in idxs:
            degree += e[i]
        if degree > cap:
            return False
    return True


def _grouped(terms: Mapping[Exponent, Poly], caps: Caps, row: Callable) -> list:
    """(degrees on the capped blocks, [row(e, c), ...]) for each group of
    the terms c * x^e with the same degrees; without caps, one group."""
    if not caps:
        return [((), [row(e, c) for e, c in terms.items()])]
    groups: Dict[Tuple[int, ...], list] = {}
    for e, c in terms.items():
        g = tuple(sum(e[i] for i in idxs) for idxs, _ in caps)
        groups.setdefault(g, []).append(row(e, c))
    return list(groups.items())


def _meeting(left: list, right: list, caps: Caps) -> list:
    """The pairs of row lists of two `_grouped` sides whose block degrees
    add up to no more than any cap."""
    return [
        (rows1, rows2)
        for g1, rows1 in left
        for g2, rows2 in right
        if all(a + b <= cap for a, b, (_, cap) in zip(g1, g2, caps))
    ]


class _Powers:
    """base ** n for n = 0, 1, 2, ..., each new power one product with the
    last; entry 0 is 1 at the base's order.  It is the one power table:
    `TruncSeries.__pow__`, `_power_sum`, `TruncSeries.compose` and the
    pole expansions read their powers from it."""

    __slots__ = ("base", "table")

    def __init__(self, base: TruncSeries):
        self.base = base
        self.table = [TruncSeries.const(base.varset, 1, base.order)]

    def __getitem__(self, n: int) -> TruncSeries:
        table = self.table
        while len(table) <= n:
            table.append(table[-1] * self.base)
        return table[n]


def _power_sum(x: TruncSeries, coeffs: Sequence) -> TruncSeries:
    """sum_k coeffs[k] * x^k at x's order, every power read from one
    `_Powers` table; the sum stops at the first zero power."""
    powers, out = _Powers(x), TruncSeries.zero(x.varset, x.order)
    for k, c in enumerate(coeffs):
        if powers[k].is_zero():
            break
        if c:
            out = out + powers[k].scale(c)
    return out


def series_invert_unit(a: TruncSeries) -> TruncSeries:
    """Inverse of a series whose constant term is a nonzero rational."""
    if a.order is INF:
        raise ValueError("inversion needs a finite truncation order")
    c0 = a.constant_term()
    if not c0 or c0.terms.keys() != {0}:
        raise ValueError("inversion needs a nonzero rational constant term")
    c0 = c0.constant_term()
    tail = (a.scale(1 / c0) - TruncSeries.const(a.varset, 1, a.order)).scale(-1)
    return _power_sum(tail, [1] * (a.order + 1)).scale(1 / c0)


def _scaled(p: Poly, num: int, den: int) -> Poly:
    """p * num / den, for positive ints, with no `Fraction` made."""
    if num == 1 == den:
        return p
    terms = p.terms if num == 1 else {m: c * num for m, c in p.terms.items()}
    return _make(terms, p.den * den)


def series_exp(a: TruncSeries) -> TruncSeries:
    """exp of a truncated series with zero constant term, at its order,
    by one recurrence on total degrees; no power of ``a`` is made.

    The total-degree operator E (x^e -> |e| x^e) is a derivation, so
    f = exp(a) has E f = (E a) f.  Writing x_[m] for the part of total
    degree m, f_[0] = 1 and, for m = 1..order,

        f_[m] = (1/m) sum_{k=1..m} k a_[k] f_[m-k],

    which reads only parts of degree below m, all exact at a's order.
    Each exponent of f_[m] is one sum of products over the coefficient
    pairs that meet there.  Over one variable t this is Newton's
    identities between the Chern classes and the power sums.

    >>> t = VarSet(("t",))
    >>> e = series_exp(TruncSeries.variable(t, "t", 4))
    >>> [e.terms[(k,)] for k in range(5)], e.order
    ([1, 1, 1/2, 1/6, 1/24], 4)
    """
    if a.order is INF:
        raise ValueError("exp needs a finite truncation order")
    if a.constant_term():
        raise ValueError("exp requires a vanishing constant term")
    # the rows (e, k * c) of k a_[k], by total degree k >= 1
    graded: Dict[int, list] = {}
    for e, c in a.terms.items():
        k = sum(e)
        graded.setdefault(k, []).append((e, _scaled(c, k, 1)))
    zero = a.varset.zero_exponent()
    parts = [[(zero, Poly.const(1))]]  # the rows of f_[m], for m so far
    for m in range(1, a.order + 1):
        pairs: Dict[Exponent, list] = {}
        for k, rows in graded.items():
            if k <= m:
                for e2, c2 in parts[m - k]:
                    for e1, c1 in rows:
                        e = tuple(map(add, e1, e2))
                        at = pairs.get(e)
                        if at is None:
                            pairs[e] = [(c1, c2)]
                        else:
                            at.append((c1, c2))
        parts.append([(e, _scaled(p, 1, m)) for e, p in _summed(pairs).items()])
    return _series(a.varset, a.order, dict(row for part in parts for row in part))


Denominator = Tuple[Tuple[LinearForm, int], ...]


def _sort_denominator(pairs: Iterable[Tuple[LinearForm, int]]) -> Denominator:
    merged: Dict[Tuple[int, ...], Tuple[LinearForm, int]] = {}
    for form, mult in pairs:
        if exact_int(mult, "denominator multiplicity") < 0:
            raise ValueError("negative denominator multiplicity")
        if mult == 0:
            continue
        key = form.coeffs
        if key in merged:
            merged[key] = (form, merged[key][1] + mult)
        else:
            merged[key] = (form, mult)
    return tuple(merged[k] for k in sorted(merged))


class LocalizedSeries:
    """numerator / product of linear forms, with an expansion regime.

    ``blocks`` is the ordered partition of the variables declaring the
    iterated-Laurent reading, outermost (dominant) block first.  A freshly
    built fraction has the trivial partition; :func:`iota_expand` refines it.

    ``block_bounds`` records, per block, the NET degree (numerator block
    degree minus denominator block degree) up to which terms are exact.
    None means no bound beyond the total order.  A bound or a denominator
    multiplicity that is not an int raises ValueError.  Net bounds are invariant
    under clearing denominators, which keeps the bookkeeping honest across
    arithmetic.  The window is part of the object: the constructor drops
    every numerator term past a block's cap, the net bound plus the block's
    denominator degree, and keeps the numerator object when it drops
    nothing; of a `LazySeries` numerator it makes the terms inside the
    caps, and none when no block is bounded.  A product, a sum and
    :func:`expand_poles` build no such term: they skip the term pairs past
    the caps of their result.  The constructor is the checked path; what
    is built inside its window already (a product, a sum windowed once, a
    negation, a scaling, a coefficient map, a lazy cap) goes through
    `_localized`, as a trusted series goes through `_series`.

    >>> zw, blocks = VarSet(("z", "w")), (("z",), ("w",))
    >>> LocalizedSeries(TruncSeries(zw, 4, {(0, 1): 1, (0, 3): 1}), (), blocks, (None, 2)).num
    (1)*w
    """

    __slots__ = ("num", "den", "blocks", "block_bounds")

    def __init__(
        self,
        num: TruncSeries,
        den: Iterable[Tuple[LinearForm, int]] = (),
        blocks: Blocks = None,
        block_bounds: Tuple[Optional[int], ...] = None,
    ):
        den = _sort_denominator(den)
        for form, _ in den:
            if form.varset != num.varset:
                raise ValueError("denominator form over a different variable set")
        if blocks is None:
            blocks = trivial_blocks(num.varset)
        else:
            blocks = normalize_blocks(num.varset, blocks)
        if block_bounds is None:
            block_bounds = tuple(None for _ in blocks)
        else:
            block_bounds = tuple(
                INF if b is INF else exact_int(b, "block bound")
                for b in _sequence(block_bounds, "block bounds")
            )
            if len(block_bounds) != len(blocks):
                raise ValueError("one bound per block required")
            caps = _block_caps(num.varset, blocks, block_bounds, den)
            if caps:
                num = num._window(caps)
        self.num = num
        self.den = den
        self.blocks = blocks
        self.block_bounds = block_bounds

    # -- constructors --------------------------------------------------------

    @staticmethod
    def one(varset: VarSet, order: Optional[int] = INF) -> "LocalizedSeries":
        return LocalizedSeries(TruncSeries.const(varset, 1, order))

    @staticmethod
    def zero(varset: VarSet, order: Optional[int] = INF) -> "LocalizedSeries":
        return LocalizedSeries(TruncSeries.zero(varset, order))

    def with_denominator(self, *forms: LinearForm, mult: int = 1) -> "LocalizedSeries":
        extra = [(f, mult) for f in forms]
        return LocalizedSeries(
            self.num, list(self.den) + extra, self.blocks, self.block_bounds
        )

    # -- bookkeeping -----------------------------------------------------------

    @property
    def varset(self) -> VarSet:
        return self.num.varset

    def den_degree(self) -> int:
        return sum(m for _, m in self.den)

    def valid_order(self) -> Optional[int]:
        if self.num.order is INF:
            return INF
        return self.num.order - self.den_degree()

    # -- arithmetic --------------------------------------------------------------

    def _check_compatible(self, other: "LocalizedSeries"):
        if self.varset != other.varset:
            raise ValueError("variable set mismatch")
        if self.blocks != other.blocks:
            raise ValueError("expansion regime mismatch")

    def __add__(self, other: "LocalizedSeries") -> "LocalizedSeries":
        """The sum over the least common denominator; each numerator is
        cleared by products within the sum's block caps, and the sum is
        windowed once to drop the past-cap terms of an operand that needed
        no clearing.  A `LazySeries` numerator is read through its
        `_window`, so a sum, a difference or `series_equal` makes only the
        coefficients it keeps."""
        self._check_compatible(other)
        forms = {form.coeffs: form for form, _ in self.den + other.den}
        mults = [{form.coeffs: m for form, m in x.den} for x in (self, other)]
        den = [
            (form, max(mult.get(key, 0) for mult in mults)) for key, form in forms.items()
        ]
        # each operand's net block bounds as cleared, combined by min
        bounds = [_cleared_bounds(x, den, mult) for x, mult in zip((self, other), mults)]
        bounds = tuple(_min_order(x, y) for x, y in zip(*bounds))
        caps = _block_caps(self.varset, self.blocks, bounds, den)
        # clearing by exact forms of total degree lift lifts the terms and
        # the order of a numerator by lift; the sum claims the lower order
        lifts = [sum(m - mult.get(form.coeffs, 0) for form, m in den) for mult in mults]
        orders = [x.num.order for x in (self, other)]
        order = _min_order(*[o if o is INF else o + n for o, n in zip(orders, lifts)])
        nums = []
        for x, mult, lift in zip((self, other), mults, lifts):
            num = x.num
            if type(num) is LazySeries:
                num = num._window(caps, INF if order is INF else order - lift)
            for form, m in den:
                k = m - mult.get(form.coeffs, 0)
                if k:
                    num = num.__mul__(form.as_series() ** k, caps)
            nums.append(num)
        num = nums[0] + nums[1]
        if caps:
            num = num._window(caps)
        return _localized(num, _sort_denominator(den), self.blocks, bounds)

    def __neg__(self) -> "LocalizedSeries":
        return _localized(-self.num, self.den, self.blocks, self.block_bounds)

    def __sub__(self, other: "LocalizedSeries") -> "LocalizedSeries":
        return self + (-other)

    def __mul__(self, other) -> "LocalizedSeries":
        """The product within the block caps: a bound of 1 on w keeps
        1 + 2w of (1 + w)^2, and the pair w * w is never multiplied.

        >>> zw, blocks = VarSet(("z", "w")), (("z",), ("w",))
        >>> one_w = TruncSeries(zw, INF, {(0, 0): 1, (0, 1): 1})
        >>> x = LocalizedSeries(one_w, (), blocks, (None, 1))
        >>> (x * x).num
        (1) + (2)*w
        """
        if isinstance(other, (int, Fraction, Poly)):
            return self.scale(other)
        self._check_compatible(other)
        den = self.den + other.den
        # a term of net degree d mixes net degrees d1 + d2 = d with
        # d1 >= -den1_j and d2 >= -den2_j, so exactness holds up to
        # min(bound1 - den2_j, bound2 - den1_j)
        bounds = []
        for block, b1, b2 in zip(self.blocks, self.block_bounds, other.block_bounds):
            idxs = [self.varset.index(n) for n in block]
            c1 = None if b1 is None else b1 - _held(other.den, idxs)
            c2 = None if b2 is None else b2 - _held(self.den, idxs)
            bounds.append(_min_order(c1, c2))
        caps = _block_caps(self.varset, self.blocks, bounds, den)
        num = self.num.__mul__(other.num, caps)
        return _localized(num, _sort_denominator(den), self.blocks, tuple(bounds))

    __rmul__ = __mul__

    def scale(self, c) -> "LocalizedSeries":
        # scaling and mapping coefficients keep the series in its window
        return _localized(self.num.scale(c), self.den, self.blocks, self.block_bounds)

    def map_coefficients(self, fn) -> "LocalizedSeries":
        return _localized(
            self.num.map_coefficients(fn), self.den, self.blocks, self.block_bounds
        )

    def diff(self, name: str) -> "LocalizedSeries":
        """Formal derivative in one variable, by the quotient rule.  Each
        term keeps its numerator's caps: the derivative of the numerator
        lowers the net bound of the variable's block by one, and a term
        that raises a form's multiplicity lowers that of every block the
        form touches by one."""
        i = self.varset.index(name)
        step = [int(j == i) for j in range(len(self.varset))]
        out = LocalizedSeries(self.num.diff(name), self.den, self.blocks, _lowered(self, step))
        for k, (form, mult) in enumerate(self.den):
            c = form.coeffs[i]
            if not c:
                continue
            den = list(self.den)
            den[k] = (form, mult + 1)
            out = out + LocalizedSeries(
                self.num.scale(-c * mult), den, self.blocks, _lowered(self, form.coeffs)
            )
        return out

    # -- normal form helpers --------------------------------------------------------

    def cancel(self) -> "LocalizedSeries":
        """Divide out denominator forms that exactly divide the numerator."""
        num = self.num
        den: List[Tuple[LinearForm, int]] = []
        for form, mult in self.den:
            while mult > 0:
                q = try_divide_by_form(num, form)
                if q is None:
                    break
                num, mult = q, mult - 1
            if mult:
                den.append((form, mult))
        return LocalizedSeries(num, den, self.blocks, self.block_bounds)

    def substitute_linear(
        self,
        target: VarSet,
        mapping: Mapping[str, Mapping[str, int]],
        blocks: Blocks = None,
    ) -> "LocalizedSeries":
        """Linear change of variables; denominator forms must stay nonzero.

        This is `compose` at the linear images over one block, which keeps
        each form primitive and moves its sign and content into the
        numerator.  The expansion regime does not carry over (a
        substitution changes which reading makes sense); re-expand
        afterwards if needed.
        """
        y = self.compose(target, _linear_images(self.varset, target, mapping))
        return LocalizedSeries(y.num, y.den, blocks)

    def compose(
        self,
        target: VarSet,
        images: Mapping[str, TruncSeries],
        blocks: Blocks = None,
        trunc: int = 0,
    ) -> "LocalizedSeries":
        """The change of coordinates sending each variable to its image, a
        series over ``target`` without constant term: the numerator goes
        through `TruncSeries.compose`, and each pole, composed the same
        way, through :func:`expand_poles` over ``blocks`` (one block by
        default) at ``trunc``.  A pole that composes to zero raises
        ValueError, and so does a series with a finite block bound, as in
        :func:`iota_expand`: the bound is a net degree in the old variables,
        which the new ones do not measure."""
        if any(b is not None for b in self.block_bounds):
            raise ValueError("block bounds do not carry over to another regime")
        dens = []
        for form, mult in self.den:
            f = form.as_series().compose(target, images)
            if f.is_zero():
                raise ValueError(
                    "denominator form %r collapses to zero under substitution" % form
                )
            dens.append((f, mult))
        num = self.num.compose(target, images)
        return expand_poles(num, dens, blocks or trivial_blocks(target), trunc)

    # -- terms access ------------------------------------------------------------

    def laurent_terms(self):
        """Iterate (exponent, coefficient) with denominator exponents negated.

        Only valid when every denominator form is a single variable; this is
        the shape produced by a full expansion in a one-variable-per-block
        regime, and is what the display layer prints.
        """
        shift = [0] * len(self.varset)
        for form, mult in self.den:
            nz = [i for i, c in enumerate(form.coeffs) if c]
            if len(nz) != 1 or form.coeffs[nz[0]] != 1:
                raise ValueError("laurent_terms needs pure single-variable poles")
            shift[nz[0]] += mult
        for e, c in self.num.terms.items():
            yield tuple(x - s for x, s in zip(e, shift)), c

    def __repr__(self):
        den = "".join(
            "/(%r)%s" % (f, "" if m == 1 else "^%d" % m) for f, m in self.den
        )
        return "(%r)%s" % (self.num, den)


def _localized(
    num: TruncSeries, den: Denominator, blocks: Blocks, bounds: Tuple[Optional[int], ...]
) -> LocalizedSeries:
    """A localized series of parts that need no check: ``den`` sorted and
    merged, ``blocks`` a partition of num's variables with one bound each,
    and ``num`` inside the window of its caps."""
    r = LocalizedSeries.__new__(LocalizedSeries)
    r.num, r.den, r.blocks, r.block_bounds = num, den, blocks, bounds
    return r


def try_divide_by_form(num: TruncSeries, form: LinearForm) -> Optional[TruncSeries]:
    """Exact division of a series by a linear form, or None.

    Division is long division in the form's leading variable; it succeeds
    exactly when every monomial layer of the numerator is divisible.  A
    numerator of order 0 gives None, as no quotient term is known.
    """
    if num.order == 0:
        return None
    lead = next(i for i, c in enumerate(form.coeffs) if c)
    lead_c = form.coeffs[lead]
    rest = [(i, c) for i, c in enumerate(form.coeffs) if c and i != lead]
    remainder = dict(num.terms)
    quotient: Dict[Exponent, Poly] = {}
    while remainder:
        e = max(remainder, key=lambda ee: (ee[lead], ee))
        c = remainder.pop(e)
        if e[lead] == 0:
            return None  # leftover part has no leading variable left
        q = c * Fraction(1, lead_c)
        qe = list(e)
        qe[lead] -= 1
        qe = tuple(qe)
        prev = quotient.get(qe)
        q_acc = q if prev is None else prev + q
        if q_acc:
            quotient[qe] = q_acc
        else:
            quotient.pop(qe, None)
        for i, ci in rest:
            ee = list(qe)
            ee[i] += 1
            ee = tuple(ee)
            s = remainder.get(ee, Poly()) - q * ci
            if s:
                remainder[ee] = s
            else:
                remainder.pop(ee, None)
    order = num.order if num.order is INF else num.order - 1
    return _series(
        num.varset, order, {e: c for e, c in quotient.items() if order is INF or sum(e) <= order}
    )


def expand_poles(
    num: TruncSeries,
    dens: Sequence[Tuple[TruncSeries, int]],
    blocks: Sequence[Sequence[str]],
    trunc: int,
) -> LocalizedSeries:
    """The iterated Laurent expansion of num / prod(f ** mult) over dens.

    Each denominator f is a series over ``num.varset`` whose linear part
    names its leading block, the earliest block it touches.  When that
    linear part lies in the leading block and f is its primitive form
    times a unit, the form stays in the denominator and the unit's
    inverse goes into the numerator: exact for a constant unit, else to
    the numerator's order (trunc for an exact numerator); a unit of
    exactly 1 multiplies nothing.
    Otherwise f = F + B, with F the terms of f on the leading block alone
    and B the rest, every term of which must reach a later block.  With
    F = A * q for A primitive and q a unit,

        1/f^m = sum_k binom(-m, k) B^k q^(-m-k) A^(-m-k)

    is cleared over A^(m+depth), summing k <= depth; a constant q is the
    scalar s of the additive law, f = s*A + B.  The depth is trunc plus
    the multiplicity of the kept forms on non-leading blocks, so that a
    term divided by such a form is still exact up to net degree trunc;
    the blocks after the leading one get that net bound.  Every product of
    the clearing sum skips the term pairs past the result's block caps, so
    the expansion never holds a numerator term past its bounds.  A trunc
    or a multiplicity that is not a nonnegative int raises ValueError.

    A multiplicative pole, (1+z)^2 (1+w) - 1 = (2z + z^2) + (1+z)^2 w:

    >>> zw = VarSet(("z", "w"))
    >>> f = TruncSeries(
    ...     zw, INF, {(1, 0): 2, (2, 0): 1, (0, 1): 1, (1, 1): 2, (2, 1): 1}
    ... )
    >>> y = expand_poles(TruncSeries.const(zw, 1, 6), [(f, 1)], (("z",), ("w",)), 2)
    >>> y.den, y.block_bounds
    (((z, 3),), (None, 2))
    >>> one = LocalizedSeries(TruncSeries.const(zw, 1), (), y.blocks)
    >>> series_equal(y * LocalizedSeries(f, (), y.blocks), one)
    True
    """
    varset = num.varset
    blocks = normalize_blocks(varset, blocks)
    if exact_int(trunc, "expansion depth") < 0:
        raise ValueError("expansion depth must be nonnegative")
    work = num.order if num.order is not INF else trunc
    bidx = [[varset.index(n) for n in b] for b in blocks]
    one = {varset.zero_exponent(): Poly.const(1)}
    kept_later = 0
    poles = []  # (form, mult, q, B, lead block); B is None for a kept form
    for f, mult in dens:
        if exact_int(mult, "pole multiplicity") < 0:
            raise ValueError("negative pole multiplicity")
        lin = [Fraction(0)] * len(varset)
        for e, c in f.terms.items():
            if sum(e) == 1:
                lin[e.index(1)] += c.constant_term()
        if not any(lin):
            raise NotImplementedError("denominator %r has no linear part" % (f,))
        if any(c.denominator != 1 for c in lin):
            raise NotImplementedError("non-integer linear part in %r" % (f,))
        lin = [int(c) for c in lin]
        lead = next(bi for bi, idxs in enumerate(bidx) if any(lin[i] for i in idxs))
        lead_vec = [lin[i] if i in bidx[lead] else 0 for i in range(len(varset))]
        form, _, _ = LinearForm.make_scaled(varset, lead_vec)
        if lead_vec == lin:
            q = try_divide_by_form(f, form)
            if q is not None and q.constant_term():
                poles.append((form, mult, q, None, lead))
                kept_later += mult if lead else 0
                continue
        outside = [i for i in range(len(varset)) if i not in bidx[lead]]
        later = [i for idxs in bidx[lead + 1 :] for i in idxs]
        lead_part, b = {}, {}
        for e, c in f.terms.items():
            if not any(e[i] for i in outside):
                lead_part[e] = c
            elif any(e[i] for i in later):
                b[e] = c
            else:
                raise NotImplementedError(
                    "denominator %r does not expand over block %d" % (f, lead)
                )
        q = try_divide_by_form(TruncSeries(varset, f.order, lead_part), form)
        if q is None or not q.constant_term():
            raise NotImplementedError(
                "denominator %r is not a form times a unit on block %d" % (f, lead)
            )
        poles.append((form, mult, q, TruncSeries(varset, f.order, b), lead))
    depth = trunc + kept_later
    den = [(form, mult + (0 if b is None else depth)) for form, mult, _, b, _ in poles]
    spans = [lead for _, _, _, b, lead in poles if b is not None]
    bounds = [trunc if spans and bi > min(spans) else None for bi in range(len(blocks))]
    caps = _block_caps(varset, blocks, bounds, den)
    for form, mult, q, b, lead in poles:
        if b is None and q.terms == one:
            continue
        if q.terms.keys() == one.keys() and q.constant_term().terms.keys() == {0}:
            qinv = TruncSeries.const(varset, 1 / q.constant_term().constant_term())
        else:
            qinv = series_invert_unit(q.truncate(work))
        reach = 0 if b is None else depth
        qinv, forms = _Powers(qinv), _Powers(form.as_series())
        acc = TruncSeries.zero(varset, INF)
        coef = 1
        b_pow = TruncSeries.const(varset, 1, INF)
        for k in range(reach + 1):
            if k:
                coef = coef * (mult + k - 1) // k
                b_pow = b_pow.__mul__(b, caps)
                if b_pow.is_zero():
                    break
            term = b_pow.__mul__(forms[reach - k], caps).__mul__(qinv[mult + k], caps)
            acc = acc + term.scale((-1) ** k * coef)
        num = num.__mul__(acc, caps)
    return LocalizedSeries(num, den, blocks, bounds)


def nest(
    outer: Callable[[Poly, int], LocalizedSeries],
    inner: LocalizedSeries,
    names: Sequence[str],
) -> LocalizedSeries:
    """The sum of x^e * outer(p_e, room) over the terms p_e * x^e of
    ``inner``'s numerator, over ``inner``'s denominator.

    ``outer(p, room)`` is a series over ``names`` exact to order room =
    order - |e|, for ``inner``'s order, which the result claims unless an
    outer series claims less; an exact ``inner``, or one with finite block
    bounds, raises ValueError.  The
    result lives on the names ``inner`` lacks (degree -2, the leading
    block), then on ``inner``'s names; exponents on a shared name add.
    Forms keep their variable order, so they stay primitive with sign 1.
    Images over one denominator add into one numerator, and different
    denominators add as fractions.

    Nesting 3w, exact to order 2, into p |-> p * (1 + z):

    >>> inner = LocalizedSeries(TruncSeries(VarSet(("w",)), 2, {(1,): 3}))
    >>> def outer(p, room):
    ...     return LocalizedSeries(TruncSeries(VarSet(("z",)), room, {(0,): p, (1,): p}))
    >>> out = nest(outer, inner, ["z"])
    >>> out.varset, out.blocks, out.num.order, out.num
    (VarSet(('z', 'w')), (('z',), ('w',)), 2, (3)*w + (3)*z*w)
    """
    order = inner.num.order
    if order is INF:
        raise ValueError("nesting an exact series needs a finite order")
    if any(b is not None for b in inner.block_bounds):
        raise ValueError("block bounds do not carry over to another regime")
    own = inner.varset
    combined, at = _placed(own, names)
    lead = len(combined) - len(own)
    blocks = tuple(b for b in (combined.names[:lead], own.names) if b)
    own_at = range(lead, len(combined))

    def placed(vec, positions, base=None) -> List[int]:
        out = list(base or [0] * len(combined))
        for i, k in zip(positions, vec):
            out[i] += k
        return out

    def reread(den: Denominator, positions) -> list:
        return [(LinearForm(combined, placed(f.coeffs, positions)), m) for f, m in den]

    groups: Dict[Denominator, tuple] = {}  # denominator -> (terms, order)
    for e, p in sorted(inner.num.terms.items()):
        out = outer(p, order - sum(e))
        if out.varset.names != tuple(names):
            raise ValueError("outer series lives on %r" % (out.varset.names,))
        terms, o = groups.get(out.den, ({}, order))
        base = placed(e, own_at)
        for f, c in out.num.terms.items():
            key = tuple(placed(f, at, base))
            terms[key] = terms[key] + c if key in terms else c
        lowered = INF if out.num.order is INF else out.num.order + sum(e)
        groups[out.den] = terms, _min_order(o, lowered)
    parts = [
        LocalizedSeries(TruncSeries(combined, o, terms), reread(den, at), blocks)
        for den, (terms, o) in groups.items()
    ]
    total = reduce(add, parts) if parts else LocalizedSeries(TruncSeries.zero(combined, order))
    return LocalizedSeries(total.num, list(total.den) + reread(inner.den, own_at), blocks)


def _held(den, idxs) -> int:
    """The multiplicity in ``den`` of the forms on these variables."""
    return sum(m for form, m in den if any(form.coeffs[i] for i in idxs))


def _lowered(x: LocalizedSeries, vec, k: int = 1, bounds=None) -> tuple:
    """The net block bounds of ``x`` (or ``bounds``), lowered by k on each
    block where the exponent or coefficient vector ``vec`` is nonzero."""
    return tuple(
        b if b is None or not any(vec[x.varset.index(n)] for n in block) else b - k
        for b, block in zip(bounds or x.block_bounds, x.blocks)
    )


def _cleared_bounds(x: LocalizedSeries, den: Denominator, mult: Mapping) -> tuple:
    """The net block bounds of ``x`` cleared to ``den`` (``mult`` maps its
    forms' coefficients to their multiplicities).  Clearing by form^k keeps
    them for a form in one block, and lowers each block a spanning form
    touches by k, as in `LocalizedSeries.diff`: the unknown terms just past
    one block's bound reach its known degrees through the other blocks."""
    bounds = x.block_bounds
    if all(b is None for b in bounds):
        return bounds
    for form, m in den:
        k = m - mult.get(form.coeffs, 0)
        if k and sum(any(form.coeffs[x.varset.index(n)] for n in b) for b in x.blocks) > 1:
            bounds = _lowered(x, form.coeffs, k, bounds)
    return bounds


def _block_caps(varset: VarSet, blocks: Blocks, bounds, den) -> Caps:
    """The caps of a series over ``den`` with these net block bounds: a
    bounded block's net bound plus its denominator degree."""
    bounded = [(tuple(map(varset.index, b)), n) for b, n in zip(blocks, bounds) if n is not None]
    return tuple((idxs, bound + _held(den, idxs)) for idxs, bound in bounded)


def iota_expand(
    x: LocalizedSeries, blocks: Sequence[Sequence[str]], trunc: int
) -> LocalizedSeries:
    """Iterated Laurent expansion of a localized series.

    Variables in earlier blocks dominate later ones.  This is
    :func:`expand_poles` on the denominator forms, which builds no term
    past its own bounds, read as a series whose NET degree (numerator
    minus denominator block degree) on each non-leading block is bounded
    by trunc or by a bound carried over; the constructor drops the terms
    past them.  The block bounds of a series already expanded in the same
    regime carry over where tighter, and a bounded series from another
    regime raises ValueError.

    Spanning forms must lead on the first block: that is the only regime the
    depth/filter bookkeeping certifies, and the only one the identities here
    need.
    """
    blocks = normalize_blocks(x.varset, blocks)
    if x.blocks == blocks:
        bounds = x.block_bounds
    elif any(b is not None for b in x.block_bounds):
        raise ValueError("block bounds do not carry over to another regime")
    else:
        bounds = (None,) * len(blocks)
    for form, _ in x.den:
        touched = [b for b in blocks if any(form.coeffs[x.varset.index(n)] for n in b)]
        if len(touched) > 1 and touched[0] != blocks[0]:
            raise NotImplementedError(
                "expansion of a form leading on a non-initial block"
            )
    y = expand_poles(
        x.num, [(form.as_series(), mult) for form, mult in x.den], blocks, trunc
    )
    bounds = tuple(
        _min_order(b, None if bi == 0 else trunc) for bi, b in enumerate(bounds)
    )
    return LocalizedSeries(y.num, y.den, blocks, bounds)


def series_equal(a: LocalizedSeries, b: LocalizedSeries) -> bool:
    """Equality on the region where both sides are exact: ``a - b``, whose
    numerator is cleared to the least common denominator and holds no term
    past its order or its block caps, is zero."""
    return (a - b).num.is_zero()


def residue(
    x: LocalizedSeries,
    var: str,
    center=0,
    trunc: Optional[int] = None,
) -> LocalizedSeries:
    """Residue in one variable at 0 or at +/- another variable.

    ``center`` is 0, another variable name (for z = w), or a variable name
    prefixed with '-' (for z = -w).  The series is re-expanded so that the
    residue variable is innermost, which matches reading res as the
    coefficient of the (-1)-st power on a small circle around the center.
    The result lives on the variable set without ``var``.
    """
    if var not in x.varset.names:
        raise ValueError("unknown residue variable %r" % var)
    if trunc is None:
        v = x.valid_order()
        if v is INF:
            trunc = x.num.degree() + x.den_degree() + 1
        else:
            trunc = max(v + x.den_degree(), 0)

    if center == 0 or center == "0":
        shifted = x
        eps = var
    else:
        center = str(center)
        negative = center.startswith("-")
        other = center[1:] if negative else center
        if other not in x.varset.names or other == var:
            raise ValueError("residue center must be another variable")
        eps = "_eps"
        while eps in x.varset.names:
            eps = eps + "_"
        names = tuple(eps if n == var else n for n in x.varset.names)
        target = VarSet(names, x.varset.degrees)
        mapping = {
            n: ({n: 1} if n != var else {other: (-1 if negative else 1), eps: 1})
            for n in x.varset.names
        }
        shifted = x.substitute_linear(target, mapping)

    rest = tuple(n for n in shifted.varset.names if n != eps)
    blocks = (rest, (eps,)) if rest else ((eps,),)
    expanded = iota_expand(shifted, blocks, trunc)

    out = coefficient_of_power(expanded, eps, -1)
    return LocalizedSeries(out.num, out.den, out.blocks)


def coefficient_of_power(x: LocalizedSeries, var: str, power: int) -> LocalizedSeries:
    """Coefficient of var**power in the Laurent reading (numerator exponent
    minus pure-pole multiplicity); var must carry only pure poles."""
    i = x.varset.index(var)
    var_mult = 0
    den_rest = []
    for form, mult in x.den:
        nz = [j for j, c in enumerate(form.coeffs) if c]
        if nz == [i]:
            var_mult += mult
        elif i in nz:
            raise ValueError("coefficient extraction needs pure poles in %r" % var)
        else:
            den_rest.append((form, mult))
    num_power = power + var_mult
    sub_vs = x.varset.without(var)
    if num_power < 0:
        picked = TruncSeries.zero(sub_vs, x.num.order)
    else:
        picked = x.num.coefficient_of(var, num_power)
    new_den = [
        (LinearForm(sub_vs, [c for j, c in enumerate(f.coeffs) if j != i]), m)
        for f, m in den_rest
    ]
    out_blocks = tuple(tuple(n for n in block if n != var) for block in x.blocks)
    keep = [bi for bi, b in enumerate(out_blocks) if b]
    return LocalizedSeries(
        picked,
        new_den,
        tuple(out_blocks[bi] for bi in keep) or None,
        tuple(x.block_bounds[bi] for bi in keep) if keep else None,
    )


# -- JSON serialization ------------------------------------------------------


def _coef_to_obj(c: Poly):
    return poly_to_obj(c) if c.terms.keys() - {0} else str(c.constant_term())


def _coef_from_obj(obj):
    if isinstance(obj, str):
        return Poly.const(Fraction(obj))
    if isinstance(obj, list):
        return poly_from_obj(obj)
    raise ValueError("a coefficient is a \"num/den\" string or a polynomial list")


def series_to_dict(x: LocalizedSeries) -> dict:
    """JSON-ready form.  A constant coefficient is written as a "num/den"
    string, any other as the list of `poly_to_obj`."""
    if x.num.order is INF:
        raise ValueError("serialization needs a finite truncation order")
    terms = [
        {"exp": list(e), "coef": _coef_to_obj(x.num.terms[e])}
        for e in sorted(x.num.terms)
    ]
    out = {
        "vars": list(x.varset.names),
        "degrees": list(x.varset.degrees),
        "order": x.num.order,
        "den": [{"form": list(f.coeffs), "mult": m} for f, m in x.den],
        "terms": terms,
    }
    if len(x.blocks) > 1:
        out["blocks"] = [list(b) for b in x.blocks]
        out["block_bounds"] = list(x.block_bounds)
    return out


def series_from_dict(d: dict) -> LocalizedSeries:
    """Read the form of `series_to_dict`; repeated exponents add up.  A
    coefficient that is neither a string nor a list, an integer field that
    is not an int, a `vars` that is not a list of strings, a `terms`,
    `den`, `blocks`, `exp` or `form` that is not a list, `degrees` or
    `block_bounds` that is not a sequence, an entry of `terms` or `den`
    that is not an object and a missing key raise ValueError."""
    varset = VarSet(json_list(d, "vars"), d.get("degrees"))
    terms: Dict[Exponent, Poly] = {}
    for t in json_list(d, "terms"):
        e = tuple(exact_int(x, "exponent") for x in json_list(t, "exp"))
        terms[e] = terms.get(e, Poly()) + _coef_from_obj(json_field(t, "coef"))
    # the constructor reads an order of None as INF; the JSON form is finite
    num = TruncSeries(varset, exact_int(json_field(d, "order"), "order"), terms)
    den = [
        (LinearForm(varset, json_list(f, "form")), json_field(f, "mult"))
        for f in (json_list(d, "den") if "den" in d else [])
    ]
    blocks = bounds = None
    if "blocks" in d:
        blocks = json_list(d, "blocks")
        bounds = d.get("block_bounds")
    return LocalizedSeries(num, den, blocks, bounds)


def dumps_series(x: LocalizedSeries) -> str:
    return json.dumps(series_to_dict(x), separators=(",", ":"))


def loads_series(s: str) -> LocalizedSeries:
    return series_from_dict(json.loads(s))
