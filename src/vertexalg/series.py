"""Exact truncated multivariate series, localization at linear forms, and
iterated Laurent expansion.

The objects here model three nested rings over an exact coefficient ring R
(rationals, or a polynomial ring):

* ``TruncSeries`` -- R[[z_1,...,z_n]] truncated at a total-degree bound.
  Exponents are always nonnegative; negative powers only ever enter through
  a denominator.
* ``LocalizedSeries`` -- fractions ``num / prod(form_k ** mult_k)`` where
  each ``form_k`` is an integer linear form in the variables.  This realizes
  the localizations actually needed: all denominators in sight are products
  of forms like z, z - w, z + w, 2z.
* iterated Laurent rings R((B_1))((B_2))... for an ordered partition of the
  variables into blocks, entered through :func:`iota_expand`.  A form
  supported on a single block stays in the denominator (it is invertible in
  that block's local ring); a form spanning several blocks is expanded as a
  geometric series over its earliest block, which is treated as dominant.

Equality of localized series is decided by clearing denominators and
comparing numerators on the region where both sides are exact.  Nothing here
ever touches floating point.

>>> zw = VarSet(("z", "w"))
>>> x = LocalizedSeries.one(zw, order=3).with_denominator(LinearForm.make(zw, {"z": 1, "w": 1})[0])
>>> y = iota_expand(x, (("z",), ("w",)), trunc=2)
>>> sorted(y.laurent_terms())
[((-3, 2), Fraction(1, 1)), ((-2, 1), Fraction(-1, 1)), ((-1, 0), Fraction(1, 1))]
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .poly import Poly

Exponent = Tuple[int, ...]
Scalar = Union[int, Fraction, Poly]

INF = None  # an order of None means "exact to all degrees"


def _coerce(c):
    """Accept int, Fraction or Poly coefficients; reject floats."""
    if isinstance(c, (Fraction, Poly)):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError("exact coefficient expected, got %r" % type(c).__name__)


def _min_order(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is INF:
        return b
    if b is INF:
        return a
    return min(a, b)


class VarSet:
    """An ordered set of formal variables with integer cohomological degrees.

    The default degree is -2, the grading of the formal variables of a
    vertex-algebra product.
    """

    __slots__ = ("names", "degrees", "_index")

    def __init__(self, names: Sequence[str], degrees: Sequence[int] = None):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        if degrees is None:
            degrees = tuple(-2 for _ in names)
        else:
            degrees = tuple(int(d) for d in degrees)
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
    """Validate an ordered partition of the variable set."""
    seen: List[str] = []
    out = []
    for block in blocks:
        block = tuple(block)
        out.append(block)
        seen.extend(block)
    if sorted(seen) != sorted(varset.names):
        raise ValueError("blocks must partition the variable set")
    return tuple(out)


def trivial_blocks(varset: VarSet) -> Blocks:
    return (tuple(varset.names),) if varset.names else ()


class LinearForm:
    """A nonzero integer linear form in the variables, held in canonical
    primitive shape: gcd of coefficients 1, first nonzero coefficient > 0.
    The discarded sign is returned by :meth:`make` for the caller to keep.
    """

    __slots__ = ("varset", "coeffs")

    def __init__(self, varset: VarSet, coeffs: Sequence[int]):
        coeffs = tuple(int(c) for c in coeffs)
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
                vec[varset.index(name)] = int(c)
            coeffs = vec
        coeffs = [int(c) for c in coeffs]
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

    def support_blocks(self, blocks: Blocks) -> List[int]:
        """Indices of the partition blocks this form touches."""
        touched = []
        for bi, block in enumerate(blocks):
            if any(self.coeffs[self.varset.index(n)] for n in block):
                touched.append(bi)
        return touched

    def restrict_to_block(self, block: Sequence[str]) -> List[int]:
        """Coefficient vector with entries outside the block zeroed."""
        keep = set(block)
        return [
            c if n in keep else 0 for n, c in zip(self.varset.names, self.coeffs)
        ]

    def as_series(self, order: Optional[int] = INF) -> "TruncSeries":
        terms: Dict[Exponent, Fraction] = {}
        for i, c in enumerate(self.coeffs):
            if c:
                e = [0] * len(self.varset)
                e[i] = 1
                terms[tuple(e)] = Fraction(c)
        return TruncSeries(self.varset, order, terms)


class TruncSeries:
    """A truncated power series: sparse exponent -> coefficient map.

    ``order`` is the total-degree bound up to which the series is exact;
    ``None`` means the series is an exact polynomial.  Stored terms always
    satisfy the bound and zero coefficients are never stored.
    """

    __slots__ = ("varset", "order", "terms")

    def __init__(
        self,
        varset: VarSet,
        order: Optional[int],
        terms: Mapping[Exponent, Scalar] = None,
    ):
        if order is not INF and order < 0:
            raise ValueError("truncation order must be nonnegative")
        clean: Dict[Exponent, Scalar] = {}
        if terms:
            for e, c in terms.items():
                e = tuple(int(x) for x in e)
                if len(e) != len(varset):
                    raise ValueError("exponent length mismatch")
                if any(x < 0 for x in e):
                    raise ValueError("negative exponent in a power series")
                if order is not INF and sum(e) > order:
                    continue
                c = _coerce(c)
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
    def const(varset: VarSet, c: Scalar, order: Optional[int] = INF) -> "TruncSeries":
        return TruncSeries(varset, order, {varset.zero_exponent(): c})

    @staticmethod
    def variable(varset: VarSet, name: str, order: Optional[int] = INF) -> "TruncSeries":
        e = [0] * len(varset)
        e[varset.index(name)] = 1
        return TruncSeries(varset, order, {tuple(e): 1})

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
        out: Dict[Exponent, Scalar] = {}
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
        r = TruncSeries.__new__(TruncSeries)
        r.varset, r.order, r.terms = self.varset, order, out
        return r

    def __neg__(self) -> "TruncSeries":
        r = TruncSeries.__new__(TruncSeries)
        r.varset, r.order = self.varset, self.order
        r.terms = {e: -c for e, c in self.terms.items()}
        return r

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self + (-other)

    def scale(self, c: Scalar) -> "TruncSeries":
        c = _coerce(c)
        r = TruncSeries.__new__(TruncSeries)
        r.varset, r.order = self.varset, self.order
        if not c:
            r.terms = {}
            return r
        out = {}
        for e, cc in self.terms.items():
            p = cc * c
            if p:
                out[e] = p
        r.terms = out
        return r

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return self.scale(other)
        if self.varset != other.varset:
            raise ValueError("variable set mismatch in series multiplication")
        order = _min_order(self.order, other.order)
        # an exact factor shifts the trusted order up by its valuation
        if self.order is INF and other.order is not INF:
            order = INF if not self.terms else other.order + min(
                sum(e) for e in self.terms
            )
        elif other.order is INF and self.order is not INF:
            order = INF if not other.terms else self.order + min(
                sum(e) for e in other.terms
            )
        out: Dict[Exponent, Scalar] = {}
        for e1, c1 in self.terms.items():
            d1 = sum(e1)
            for e2, c2 in other.terms.items():
                if order is not INF and d1 + sum(e2) > order:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                p = c1 * c2
                s = out.get(e)
                s = p if s is None else s + p
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        r = TruncSeries.__new__(TruncSeries)
        r.varset, r.order, r.terms = self.varset, order, out
        return r

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TruncSeries":
        if n < 0:
            raise ValueError("negative power of a power series")
        result = TruncSeries.const(self.varset, 1, self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def truncate(self, order: Optional[int]) -> "TruncSeries":
        order = _min_order(self.order, order)
        r = TruncSeries.__new__(TruncSeries)
        r.varset, r.order = self.varset, order
        if order is INF:
            r.terms = dict(self.terms)
        else:
            r.terms = {e: c for e, c in self.terms.items() if sum(e) <= order}
        return r

    def with_order(self, order: Optional[int]) -> "TruncSeries":
        """Assert a new exactness bound (caller's responsibility)."""
        r = TruncSeries.__new__(TruncSeries)
        r.varset, r.order = self.varset, order
        if order is INF:
            r.terms = dict(self.terms)
        else:
            r.terms = {e: c for e, c in self.terms.items() if sum(e) <= order}
        return r

    # -- queries ------------------------------------------------------------

    def constant_term(self) -> Scalar:
        return self.terms.get(self.varset.zero_exponent(), Fraction(0))

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def coefficient_of(self, name: str, power: int) -> "TruncSeries":
        """Coefficient of name**power, as a series in the remaining variables."""
        i = self.varset.index(name)
        sub = self.varset.without(name)
        out: Dict[Exponent, Scalar] = {}
        for e, c in self.terms.items():
            if e[i] == power:
                out[e[:i] + e[i + 1 :]] = c
        order = self.order if self.order is INF else max(self.order - power, 0)
        return TruncSeries(sub, order, out)

    def map_coefficients(self, fn) -> "TruncSeries":
        out = {}
        for e, c in self.terms.items():
            v = fn(c)
            v = _coerce(v)
            if v:
                out[e] = v
        r = TruncSeries.__new__(TruncSeries)
        r.varset, r.order, r.terms = self.varset, self.order, out
        return r

    def diff(self, name: str) -> "TruncSeries":
        """Formal derivative in one series variable; trust drops by one."""
        i = self.varset.index(name)
        out: Dict[Exponent, Scalar] = {}
        for e, c in self.terms.items():
            if not e[i]:
                continue
            out[e[:i] + (e[i] - 1,) + e[i + 1 :]] = c * e[i]
        order = self.order if self.order is INF else max(self.order - 1, 0)
        return TruncSeries(self.varset, order, out)

    # -- substitution ---------------------------------------------------------

    def substitute_linear(
        self, target: VarSet, mapping: Mapping[str, Mapping[str, int]]
    ) -> "TruncSeries":
        """Substitute each variable by an integer linear form in new variables.

        Every variable of the current set must be mapped.
        """
        images = {}
        for name in self.varset.names:
            if name not in mapping:
                raise ValueError("no image for variable %r" % name)
            img = TruncSeries.zero(target, INF)
            for tname, c in mapping[name].items():
                if c:
                    img = img + TruncSeries.variable(target, tname).scale(c)
            images[name] = img
        out = TruncSeries.zero(target, self.order)
        for e, c in self.terms.items():
            term = TruncSeries.const(target, c, self.order)
            for name, exp in zip(self.varset.names, e):
                if exp:
                    term = term * (images[name].truncate(self.order) ** exp)
            out = out + term
        return out

    def rename_variables(self, target: VarSet, mapping: Mapping[str, str]) -> "TruncSeries":
        out: Dict[Exponent, Scalar] = {}
        for e, c in self.terms.items():
            ee = [0] * len(target)
            for name, exp in zip(self.varset.names, e):
                if exp:
                    ee[target.index(mapping.get(name, name))] += exp
            out[tuple(ee)] = c
        return TruncSeries(target, self.order, out)

    def compose(
        self, target: VarSet, mapping: Mapping[str, "TruncSeries"]
    ) -> "TruncSeries":
        """Substitute series without constant term for every variable.

        Truncation is the minimum of this series' order and the orders of
        the images; positive valuation of the images is what keeps each
        output degree a finite computation.
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
        if order is INF:
            if any(sum(e) for e in self.terms):
                raise ValueError("composition of exact series needs a finite order")
        out = TruncSeries.zero(target, order)
        for e, c in self.terms.items():
            if order is not INF and sum(e) > order:
                continue
            term = TruncSeries.const(target, c, order)
            for name, exp in zip(self.varset.names, e):
                if exp:
                    term = term * (mapping[name].truncate(order) ** exp)
            out = out + term
        return out

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


def series_invert_unit(a: TruncSeries) -> TruncSeries:
    """Inverse of a series whose constant term is a nonzero rational."""
    if a.order is INF:
        raise ValueError("inversion needs a finite truncation order")
    c0 = a.constant_term()
    if isinstance(c0, Poly) or not c0:
        raise ValueError("inversion needs a nonzero rational constant term")
    tail = (a.scale(Fraction(1, 1) / c0) - TruncSeries.const(a.varset, 1, a.order)).scale(-1)
    out = TruncSeries.const(a.varset, 1, a.order)
    power = TruncSeries.const(a.varset, 1, a.order)
    for _ in range(a.order):
        power = power * tail
        if power.is_zero():
            break
        out = out + power
    return out.scale(Fraction(1, 1) / c0)


def series_exp(a: TruncSeries) -> TruncSeries:
    """exp of a truncated series with zero constant term."""
    if a.order is INF:
        raise ValueError("exp needs a finite truncation order")
    c0 = a.constant_term()
    if c0:
        raise ValueError("exp requires a vanishing constant term")
    result = TruncSeries.const(a.varset, 1, a.order)
    power = TruncSeries.const(a.varset, 1, a.order)
    kfact = Fraction(1)
    for k in range(1, a.order + 1):
        power = power * a
        if power.is_zero():
            break
        kfact *= k
        result = result + power.scale(Fraction(1) / kfact)
    return result


Denominator = Tuple[Tuple[LinearForm, int], ...]


def _sort_denominator(pairs: Iterable[Tuple[LinearForm, int]]) -> Denominator:
    merged: Dict[Tuple[int, ...], Tuple[LinearForm, int]] = {}
    for form, mult in pairs:
        if mult < 0:
            raise ValueError("negative denominator multiplicity")
        if mult == 0:
            continue
        key = form.coeffs
        if key in merged:
            merged[key] = (form, merged[key][1] + mult)
        else:
            merged[key] = (form, mult)
    return tuple(merged[k] for k in sorted(merged))


def _den_degree(den: Denominator) -> int:
    return sum(m for _, m in den)


class LocalizedSeries:
    """numerator / product of linear forms, with an expansion regime.

    ``blocks`` is the ordered partition of the variables declaring the
    iterated-Laurent reading, outermost (dominant) block first.  A freshly
    built fraction has the trivial partition; :func:`iota_expand` refines it.

    ``block_bounds`` records, per block, the NET degree (numerator block
    degree minus denominator block degree) up to which terms are exact.
    None means no bound beyond the total order.  Net bounds are invariant
    under clearing denominators, which keeps the bookkeeping honest across
    arithmetic.
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
        elif len(block_bounds) != len(blocks):
            raise ValueError("one bound per block required")
        self.num = num
        self.den = den
        self.blocks = blocks
        self.block_bounds = tuple(block_bounds)

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
        return _den_degree(self.den)

    def valid_order(self) -> Optional[int]:
        if self.num.order is INF:
            return INF
        return self.num.order - self.den_degree()

    def den_block_degree(self, block: Sequence[str]) -> int:
        total = 0
        for form, mult in self.den:
            if any(form.restrict_to_block(block)):
                total += mult
        return total

    # -- arithmetic --------------------------------------------------------------

    def _check_compatible(self, other: "LocalizedSeries"):
        if self.varset != other.varset:
            raise ValueError("variable set mismatch")
        if self.blocks != other.blocks:
            raise ValueError("expansion regime mismatch")

    def __add__(self, other: "LocalizedSeries") -> "LocalizedSeries":
        self._check_compatible(other)
        all_forms: Dict[Tuple[int, ...], LinearForm] = {}
        mult_a: Dict[Tuple[int, ...], int] = {}
        mult_b: Dict[Tuple[int, ...], int] = {}
        for form, m in self.den:
            all_forms[form.coeffs] = form
            mult_a[form.coeffs] = m
        for form, m in other.den:
            all_forms[form.coeffs] = form
            mult_b[form.coeffs] = m
        num_a, num_b = self.num, other.num
        den: List[Tuple[LinearForm, int]] = []
        for key, form in all_forms.items():
            ma, mb = mult_a.get(key, 0), mult_b.get(key, 0)
            m = max(ma, mb)
            den.append((form, m))
            fs = form.as_series(INF)
            if m > ma:
                num_a = num_a * fs ** (m - ma)
            if m > mb:
                num_b = num_b * fs ** (m - mb)
        # net block bounds survive clearing unchanged; combine by min
        bounds = tuple(
            _min_order(x, y) for x, y in zip(self.block_bounds, other.block_bounds)
        )
        return LocalizedSeries(num_a + num_b, den, self.blocks, bounds)

    def __neg__(self) -> "LocalizedSeries":
        return LocalizedSeries(-self.num, self.den, self.blocks, self.block_bounds)

    def __sub__(self, other: "LocalizedSeries") -> "LocalizedSeries":
        return self + (-other)

    def __mul__(self, other) -> "LocalizedSeries":
        if isinstance(other, (int, Fraction, Poly)):
            return LocalizedSeries(
                self.num.scale(other), self.den, self.blocks, self.block_bounds
            )
        self._check_compatible(other)
        den = list(self.den) + list(other.den)
        # a term of net degree d mixes net degrees d1 + d2 = d with
        # d1 >= -den1_j and d2 >= -den2_j, so exactness holds up to
        # min(bound1 - den2_j, bound2 - den1_j)
        bounds = []
        for bi, block in enumerate(self.blocks):
            b1, b2 = self.block_bounds[bi], other.block_bounds[bi]
            d1 = self.den_block_degree(block)
            d2 = other.den_block_degree(block)
            c1 = None if b1 is None else b1 - d2
            c2 = None if b2 is None else b2 - d1
            bounds.append(_min_order(c1, c2))
        return LocalizedSeries(self.num * other.num, den, self.blocks, tuple(bounds))

    __rmul__ = __mul__

    def scale(self, c: Scalar) -> "LocalizedSeries":
        return LocalizedSeries(
            self.num.scale(c), self.den, self.blocks, self.block_bounds
        )

    def map_coefficients(self, fn) -> "LocalizedSeries":
        return LocalizedSeries(
            self.num.map_coefficients(fn), self.den, self.blocks, self.block_bounds
        )

    def diff(self, name: str) -> "LocalizedSeries":
        """Formal derivative in one variable, by the quotient rule."""
        i = self.varset.index(name)
        bounds = []
        for bi, block in enumerate(self.blocks):
            b = self.block_bounds[bi]
            if b is not None and name in block:
                b = b - 1
            bounds.append(b)
        out = LocalizedSeries(self.num.diff(name), self.den, self.blocks, bounds)
        for k, (form, mult) in enumerate(self.den):
            c = form.coeffs[i]
            if not c:
                continue
            den = list(self.den)
            den[k] = (form, mult + 1)
            out = out + LocalizedSeries(
                self.num.scale(-c * mult), den, self.blocks, bounds
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

        The expansion regime does not carry over (a substitution changes
        which reading makes sense); re-expand afterwards if needed.
        """
        num = self.num.substitute_linear(target, mapping)
        den: List[Tuple[LinearForm, int]] = []
        scale = Fraction(1)
        for form, mult in self.den:
            vec = [0] * len(target)
            for name, c in zip(form.varset.names, form.coeffs):
                if not c:
                    continue
                for tname, tc in mapping[name].items():
                    vec[target.index(tname)] += c * tc
            if not any(vec):
                raise ValueError(
                    "denominator form %r collapses to zero under substitution" % form
                )
            new_form, sign, content = LinearForm.make_scaled(target, vec)
            den.append((new_form, mult))
            scale *= Fraction(1, sign * content) ** mult
        return LocalizedSeries(num.scale(scale), den, blocks)

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


def try_divide_by_form(num: TruncSeries, form: LinearForm) -> Optional[TruncSeries]:
    """Exact division of a series by a linear form, or None.

    Division is long division in the form's leading variable; it succeeds
    exactly when every monomial layer of the numerator is divisible.
    """
    lead = next(i for i, c in enumerate(form.coeffs) if c)
    lead_c = form.coeffs[lead]
    rest = [(i, c) for i, c in enumerate(form.coeffs) if c and i != lead]
    remainder = dict(num.terms)
    quotient: Dict[Exponent, Scalar] = {}
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
            s = remainder.get(ee, Fraction(0)) - q * ci
            if s:
                remainder[ee] = s
            else:
                remainder.pop(ee, None)
    order = num.order if num.order is INF else max(num.order - 1, 0)
    out = TruncSeries.__new__(TruncSeries)
    out.varset, out.order = num.varset, order
    out.terms = {e: c for e, c in quotient.items() if order is INF or sum(e) <= order}
    return out


def spanning_pole_numerator(
    a_form: LinearForm, s: Fraction, b: TruncSeries, mult: int, depth: int
) -> TruncSeries:
    """Numerator of 1/(s*A + B)^mult cleared over A^(mult+depth).

    With A the primitive form ``a_form`` and B the rest of the spanning
    form, 1/(sA+B)^m = sum_k binom(-m, k) s^(-m-k) B^k A^(-m-k); the sum
    runs over k <= depth and stops early once B^k vanishes.
    """
    a_series = a_form.as_series(INF)
    acc = TruncSeries.zero(b.varset, INF)
    coef = 1
    b_pow = TruncSeries.const(b.varset, 1, INF)
    for k in range(depth + 1):
        if k:
            coef = coef * (mult + k - 1) // k
            b_pow = b_pow * b
            if b_pow.is_zero():
                break
        factor = Fraction((-1) ** k * coef) * s ** (-mult - k)
        acc = acc + (b_pow * (a_series ** (depth - k))).scale(factor)
    return acc


def iota_expand(
    x: LocalizedSeries, blocks: Sequence[Sequence[str]], trunc: int
) -> LocalizedSeries:
    """Iterated Laurent expansion of a localized series.

    Variables in earlier blocks dominate later ones.  Denominator forms
    supported on a single block are kept (they are invertible in that block's
    local ring); forms spanning several blocks are expanded geometrically
    over their earliest block.  The result is exact for numerator terms whose
    NET degree in each non-leading block (numerator minus denominator block
    degree) is at most trunc; terms beyond that are dropped.

    Spanning forms must lead on the first block: that is the only regime the
    depth/filter bookkeeping certifies, and the only one the identities here
    need.
    """
    blocks = normalize_blocks(x.varset, blocks)
    if trunc < 0:
        raise ValueError("expansion depth must be nonnegative")
    kept: List[Tuple[LinearForm, int]] = []
    spanning: List[Tuple[LinearForm, int]] = []
    for form, mult in x.den:
        touched = form.support_blocks(blocks)
        if not touched:
            raise ValueError("denominator form with empty support")
        if len(touched) == 1:
            kept.append((form, mult))
        else:
            if touched[0] != 0:
                raise NotImplementedError(
                    "expansion of a form leading on a non-initial block"
                )
            spanning.append((form, mult))

    kept_later_degree = sum(
        mult for form, mult in kept if form.support_blocks(blocks)[0] > 0
    )
    depth = trunc + kept_later_degree

    num = x.num
    for form, mult in spanning:
        a_vec = form.restrict_to_block(blocks[0])
        b_vec = [c - a for c, a in zip(form.coeffs, a_vec)]
        a_form, a_sign, a_content = LinearForm.make_scaled(x.varset, a_vec)
        b_series = TruncSeries(
            x.varset,
            INF,
            {
                tuple(1 if j == i else 0 for j in range(len(x.varset))): c
                for i, c in enumerate(b_vec)
                if c
            },
        )
        s = Fraction(a_sign * a_content)
        num = num * spanning_pole_numerator(a_form, s, b_series, mult, depth)
        kept.append((a_form, mult + depth))

    cleared = LocalizedSeries(num, kept, blocks)
    # per non-leading block: net degree <= trunc
    den_block = [cleared.den_block_degree(block) for block in blocks]
    block_idx = [[x.varset.index(n) for n in block] for block in blocks]
    out_terms: Dict[Exponent, Scalar] = {}
    for e, c in num.terms.items():
        ok = True
        for bi in range(1, len(blocks)):
            if sum(e[i] for i in block_idx[bi]) - den_block[bi] > trunc:
                ok = False
                break
        if ok:
            out_terms[e] = c
    bounds = tuple(None if bi == 0 else trunc for bi in range(len(blocks)))
    result_num = TruncSeries(x.varset, num.order, out_terms)
    return LocalizedSeries(result_num, cleared.den, blocks, bounds)


def series_sub_cleared(a: LocalizedSeries, b: LocalizedSeries) -> LocalizedSeries:
    """a - b over the common denominator, restricted to the region where both
    sides are exact.  A zero numerator therefore means provable equality."""
    a._check_compatible(b)
    s = a + (-b)
    valid = _min_order(a.valid_order(), b.valid_order())
    if valid is INF:
        num = s.num
    else:
        num = s.num.truncate(valid + _den_degree(s.den))
    bounds = tuple(
        _min_order(x, y) for x, y in zip(a.block_bounds, b.block_bounds)
    )
    if any(bound is not None for bound in bounds):
        idx = s.varset.index
        block_idx = [[idx(n) for n in block] for block in s.blocks]
        den_block = [s.den_block_degree(block) for block in s.blocks]
        kept = {}
        for e, c in num.terms.items():
            ok = True
            for bi, bound in enumerate(bounds):
                if bound is not None and (
                    sum(e[i] for i in block_idx[bi]) - den_block[bi] > bound
                ):
                    ok = False
                    break
            if ok:
                kept[e] = c
        num = TruncSeries(num.varset, num.order, kept)
    return LocalizedSeries(num, s.den, s.blocks, bounds)


def series_equal(a: LocalizedSeries, b: LocalizedSeries) -> bool:
    """Equality after clearing denominators, on the region where both sides
    are exact (total order and per-block net bounds)."""
    return series_sub_cleared(a, b).num.is_zero()


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
        target = x.varset
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

    rest = tuple(n for n in target.names if n != eps)
    blocks = (rest, (eps,)) if rest else ((eps,),)
    expanded = iota_expand(shifted, blocks, trunc)

    eps_i = expanded.varset.index(eps)
    eps_mult = 0
    den_rest: List[Tuple[LinearForm, int]] = []
    for form, mult in expanded.den:
        nz = [i for i, c in enumerate(form.coeffs) if c]
        if nz == [eps_i]:
            eps_mult += mult
        elif eps_i in nz:
            raise AssertionError("unexpanded mixed pole in residue")
        else:
            den_rest.append((form, mult))

    picked = expanded.num.coefficient_of(eps, eps_mult - 1) if eps_mult else None
    sub_vs = expanded.varset.without(eps)
    if picked is None:
        picked = TruncSeries.zero(sub_vs, expanded.num.order)
    new_den = [
        (LinearForm(sub_vs, [c for i, c in enumerate(f.coeffs) if i != eps_i]), m)
        for f, m in den_rest
    ]
    if rest:
        return LocalizedSeries(picked, new_den, (rest,), (None,))
    return LocalizedSeries(picked, new_den)


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


def series_to_dict(x: LocalizedSeries) -> dict:
    if x.num.order is INF:
        raise ValueError("serialization needs a finite truncation order")
    terms = []
    for e in sorted(x.num.terms):
        c = x.num.terms[e]
        if not isinstance(c, Fraction):
            raise ValueError("only rational-coefficient series serialize to JSON")
        terms.append({"exp": list(e), "coef": str(c)})
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
    varset = VarSet(tuple(d["vars"]), d.get("degrees"))
    terms = {}
    for t in d["terms"]:
        terms[tuple(int(e) for e in t["exp"])] = Fraction(t["coef"])
    num = TruncSeries(varset, int(d["order"]), terms)
    den = [
        (LinearForm(varset, tuple(int(c) for c in f["form"])), int(f["mult"]))
        for f in d.get("den", [])
    ]
    blocks = None
    bounds = None
    if "blocks" in d:
        blocks = tuple(tuple(b) for b in d["blocks"])
        if "block_bounds" in d:
            bounds = tuple(None if b is None else int(b) for b in d["block_bounds"])
    return LocalizedSeries(num, den, blocks, bounds)


def dumps_series(x: LocalizedSeries) -> str:
    return json.dumps(series_to_dict(x), separators=(",", ":"))


def loads_series(s: str) -> LocalizedSeries:
    return series_from_dict(json.loads(s))
