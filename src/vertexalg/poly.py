"""Sparse multivariate polynomials over exact rationals, on packed monomials.

Variable names are interned: an append-only module-level table gives a
name the next free index the first time a polynomial mentions it, and the
index never changes afterwards.  A monomial is one Python int, its *key*,
holding the exponent of variable i in the 16-bit field at bit 16*i:

    key = sum(e_i << (16 * i)),        0 <= e_i <= MAX_EXP = 32767.

An exponent never uses the top bit of its field; that bit is a guard.  Two
valid keys add field by field without a carry into the next field, so the
product of two monomials is the sum of their keys, and a field that passed
MAX_EXP shows as a set guard bit: a product, power or substitution
whose result would hold such an exponent raises OverflowError instead of
carrying, and the constructor rejects a negative, non-integer or too large
exponent with ValueError.  Decoding a key walks its nonzero fields only,
lowest bit first.  Keys depend on the order in which names were interned,
so they mean nothing outside the process; `items` and the JSON form do.

`substitute` is the plain, simultaneous substitution, kept as a
reference and for callers outside the library: every image is read in
the original variables, so a mapping may swap names or send a variable to
an expression in replaced ones.  It expands term by term, multiplying in
each variable's image power (or kept power) in name order through the
ring's own checked products, so a result exponent past MAX_EXP raises
OverflowError.  The library's own maps of one monomial to one monomial
(moves onto factor alphabets and the sum maps) run as field moves on
keys in `homology`.

Coefficients are integer numerators over one shared denominator: `terms`
maps each key to a nonzero int and `den` holds the denominator.  The form
is canonical -- den > 0, gcd(den, every numerator) == 1, and den == 1 for
the zero polynomial -- so equal polynomials have equal `terms` and `den`,
and `len(p.terms)` is the number of nonzero terms.  `fractions.Fraction`
only appears at the boundary: the constructor, which takes monomials as
tuples of (name, exponent) pairs, scalar operands, `constant_term`,
`items`, `__repr__` and the JSON form.  Nothing passes through floats.

These polynomials are the one coefficient ring of truncated series: the
homology models of the library are polynomial rings, and a vertex-algebra
product is a Laurent-type series in formal variables whose coefficients are
elements of such a ring, so every `TruncSeries` coefficient is a `Poly`
and a rational coefficient is a constant one.  `sum_of_products` is the one
term-product loop: `Poly.__mul__` runs it on a single pair whose supports
overlap and a series product on all the coefficient pairs that meet at
one exponent, so a series coefficient is summed in one integer
accumulator.  A product by the constant 1 returns the other operand
itself, which immutability makes safe.

Two multi-term factors whose supports (the bitwise or of their keys)
share no bit give a deferred product.  The ch x s products of a cap are
such products, their factors being in different variables, and so are
factors in one variable whose exponents share no bit, such as
(1+t)(1+t^2), whose supports are the keys of t and t^2.  A deferred
product holds the factors in `factors` and its den, da*db / gcd(da*db,
cont(a)*cont(b)) since contents multiply (Gauss's lemma), and answers
truth, `is_zero` and `support` from the factors; a cap contraction reads
only the factors (`homology.contract_with`).  The first read of `terms`
builds them, with no accumulator: m1 + m2 == m1 | m2, and each factor's
key reads back from the product as the bits of its own support, so no
two term products meet at one key, and their coefficients are nonzero.
No bit is set in both keys, so nothing carries, and neither key has a
guard bit set, so the product has none.  A deferred product is a
`_Deferred`, whose own slot holds the factors, so every other `Poly`
keeps its size and reads `factors` None from the class.

>>> x = Poly.variable("x")
>>> y = Poly.variable("y")
>>> ((x + y) ** 2 - x ** 2 - y ** 2) == 2 * x * y
True
>>> (x / 2 + y / 3).den
6
>>> t = Poly.variable("t")
>>> p = (1 + t) * (1 + t ** 2)
>>> p.factors
(1+t, 1+t^2)
>>> p == 1 + t + t ** 2 + t ** 3
True
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Tuple, Union

Mono = Tuple[Tuple[str, int], ...]
Scalar = Union[int, Fraction]

FIELD_BITS = 16
MAX_EXP = (1 << (FIELD_BITS - 1)) - 1
FIELD_MASK = (1 << FIELD_BITS) - 1

# The interner: index -> name, name -> index, and the guard bit of every
# interned field.  All three only ever grow, so a key stays valid for the
# life of the process.
_NAMES: List[str] = []
_INDEX: Dict[str, int] = {}
_GUARDS = 0


def var_shift(name: str) -> int:
    """Bit offset of a variable's field, interning the name on first use."""
    i = _INDEX.get(name)
    if i is None:
        global _GUARDS
        i = len(_NAMES)
        _NAMES.append(name)
        _INDEX[name] = i
        _GUARDS |= 1 << (FIELD_BITS * i + FIELD_BITS - 1)
    return FIELD_BITS * i


def shift_name(shift: int) -> str:
    """The variable whose field starts at the given bit offset."""
    return _NAMES[shift // FIELD_BITS]


def key_fields(key: int) -> List[Tuple[int, int]]:
    """(bit offset, exponent) of every nonzero field of a key, lowest first."""
    out = []
    while key:
        shift = ((key & -key).bit_length() - 1) & -FIELD_BITS
        e = (key >> shift) & FIELD_MASK
        out.append((shift, e))
        key ^= e << shift
    return out


def _key_degree(key: int) -> int:
    return sum(e for _, e in key_fields(key))


def _decode(key: int) -> Mono:
    return tuple(sorted((shift_name(s), e) for s, e in key_fields(key)))


def check_guards(terms: Iterable[int]) -> None:
    """Raise OverflowError when any of the keys has a guard bit set."""
    if reduce(or_, terms, 0) & _GUARDS:
        raise OverflowError("an exponent would exceed %d" % MAX_EXP)


class MonomialTable(dict):
    """A plan per key: the entry ``plan(key)`` is worked out on first
    lookup.  A table lives as long as the map it plans (a move onto one
    factor, the translation generator on one factor, one side of a cap
    pairing), so each key is planned
    once, not once per call; a lookup that raises keeps nothing, so a bad
    key raises every time."""

    __slots__ = ("plan",)

    def __init__(self, plan: Callable[[object], object]):
        super().__init__()
        self.plan = plan

    def __missing__(self, key: object) -> object:
        entry = self[key] = self.plan(key)
        return entry


def _pack(mono: Iterable[Tuple[str, int]]) -> int:
    """The key of (name, exponent) pairs: repeated names add, zeros drop,
    and an exponent past MAX_EXP raises ValueError."""
    exps: Dict[str, int] = {}
    for v, e in mono:
        if type(e) is not int or e < 0:
            raise ValueError(
                "exponent of %r must be a nonnegative integer, got %r" % (v, e)
            )
        exps[v] = exps.get(v, 0) + e
    key = 0
    for v, e in exps.items():
        if e > MAX_EXP:
            raise ValueError("exponent %d of %r exceeds %d" % (e, v, MAX_EXP))
        if e:
            key |= e << var_shift(v)
    return key


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError("exact coefficient expected, got %r" % type(c).__name__)


def _make(terms: Dict[int, int], den: int) -> "Poly":
    """Wrap nonzero numerators over den > 0, dividing out their common factor."""
    if den != 1:
        if not terms:
            den = 1
        else:
            g = gcd(den, *terms.values())
            if g != 1:
                terms = {m: c // g for m, c in terms.items()}
                den //= g
    p = Poly.__new__(Poly)
    p.terms = terms
    p.den = den
    return p


def _from_pairs(pairs: Iterable[Tuple[Iterable[Tuple[str, int]], Scalar]]) -> "Poly":
    """(monomial, coefficient) pairs in canonical form; equal keys add up."""
    fracs: Dict[int, Fraction] = {}
    for mono, c in pairs:
        key = _pack(mono)
        fracs[key] = fracs.get(key, 0) + _as_fraction(c)
    fracs = {m: c for m, c in fracs.items() if c}
    den = lcm(*(c.denominator for c in fracs.values()))
    return _make({m: c.numerator * (den // c.denominator) for m, c in fracs.items()}, den)


class Poly:
    """A sparse polynomial; immutable by convention."""

    __slots__ = ("terms", "den")
    factors = None  # the two factors of a deferred product (`_Deferred`)

    def __init__(self, terms: Mapping[Mono, Scalar] = None):
        if terms:
            p = _from_pairs(terms.items())
            self.terms, self.den = p.terms, p.den
        else:
            self.terms, self.den = {}, 1

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _make({}, 1)

    @staticmethod
    def const(c: Scalar) -> "Poly":
        if type(c) is int:
            return _make({0: c} if c else {}, 1)
        c = _as_fraction(c)
        return _make({0: c.numerator} if c else {}, c.denominator)

    @staticmethod
    def variable(name: str, exp: int = 1) -> "Poly":
        return _make({_pack(((name, exp),)): 1}, 1)

    @staticmethod
    def packed(terms: Dict[int, int], den: int = 1) -> "Poly":
        """Build from packed keys and integer numerators over den > 0; zero
        numerators are dropped and the result is put in canonical form."""
        return _make({m: c for m, c in terms.items() if c}, den)

    # -- ring structure -------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.const(other)
        return self.den == other.den and self.terms == other.terms

    def __hash__(self):
        t = self.terms
        if not t or (len(t) == 1 and 0 in t):
            # equal to a scalar, so it hashes like one
            return hash(self.constant_term())
        return hash((frozenset(t.items()), self.den))

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.const(other)
        a, b = self.terms, other.terms
        if not b:
            return self
        if not a:
            return other
        da, db = self.den, other.den
        if da == db:
            den = da
            out = dict(a)
        else:
            g = gcd(da, db)
            sa, sb = db // g, da // g
            den = da * sa
            out = {m: c * sa for m, c in a.items()}
            b = {m: c * sb for m, c in b.items()}
        get = out.get
        for m, c in b.items():
            s = get(m, 0) + c
            if s:
                out[m] = s
            else:
                del out[m]
        return _make(out, den)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        p = Poly.__new__(Poly)
        p.terms = {m: -c for m, c in self.terms.items()}
        p.den = self.den
        return p

    def __sub__(self, other) -> "Poly":
        return self + (-other if isinstance(other, Poly) else Poly.const(-other))

    def __rsub__(self, other) -> "Poly":
        return Poly.const(other) + (-self)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other:
                return _make({}, 1)
            if other == 1:
                return self
            n, d = other.numerator, other.denominator
            return _make({m: c * n for m, c in self.terms.items()}, self.den * d)
        a, b = self.terms, other.terms
        if len(a) != 1 and len(b) != 1:
            if not a or not b:
                return _make({}, 1)
            if self.support() & other.support():
                return sum_of_products(((self, other),))
            # disjoint supports, as in a ch x s product of a cap or in
            # (1+t)(1+t^2): deferred (see the module docstring)
            p = _Deferred.__new__(_Deferred)
            d = self.den * other.den
            p.den = d // gcd(d, gcd(*a.values()) * gcd(*b.values()))
            p.factors = (self, other)
            return p
        # one side is a single term, so no two products share a key; a
        # side equal to 1 (key 0, numerator and den 1) returns the other
        if len(a) == 1:
            ((m1, c1),) = a.items()
            if not m1 and c1 == 1 == self.den:
                return other
            out = {m1 + m2: c1 * c2 for m2, c2 in b.items()}
        else:
            ((m2, c2),) = b.items()
            if not m2 and c2 == 1 == other.den:
                return self
            out = {m1 + m2: c1 * c2 for m1, c1 in a.items()}
        check_guards(out)
        return _make(out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        """The n-th power.  OverflowError is raised before any product when
        n times the largest exponent of a variable in a term exceeds MAX_EXP:
        the leading term in a lex order that ranks that variable first
        reaches that exponent with a nonzero coefficient, so the bound is
        exact."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        top = max((e for m in self.terms for _, e in key_fields(m)), default=0)
        if n * top > MAX_EXP:
            raise OverflowError("an exponent would exceed %d" % MAX_EXP)
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, other) -> "Poly":
        c = _as_fraction(other)
        if not c:
            raise ZeroDivisionError("division of a polynomial by zero")
        return self * (Fraction(1) / c)

    # -- queries ---------------------------------------------------------

    def items(self) -> Iterator[Tuple[Mono, Fraction]]:
        """(monomial, coefficient) pairs, each monomial as sorted
        (name, exponent) pairs; the decoded view of `terms` and `den`."""
        den = self.den
        for m, c in self.terms.items():
            yield _decode(m), Fraction(c, den)

    def support(self) -> int:
        """The bitwise or of all keys: a field is nonzero exactly when its
        variable occurs in some term."""
        return reduce(or_, self.terms, 0)

    def constant_term(self) -> Fraction:
        return Fraction(self.terms.get(0, 0), self.den)

    def variables(self) -> Iterator[str]:
        """The variables that occur, in order of first appearance (by name
        within one term)."""
        seen = 0  # the fields of the variables already yielded
        for m in self.terms:
            new = m & ~seen
            if new:
                fields = key_fields(new)
                for s, _ in fields:
                    seen |= FIELD_MASK << s
                yield from sorted(shift_name(s) for s, _ in fields)

    def degree(self) -> int:
        """Largest total degree among terms; -1 for the zero poly."""
        if not self.terms:
            return -1
        return max(_key_degree(m) for m in self.terms)

    # -- calculus and substitution ----------------------------------------

    def diff(self, var: str) -> "Poly":
        if var not in _INDEX:
            return Poly()
        s = var_shift(var)
        one = 1 << s
        out = {}
        for m, c in self.terms.items():
            e = (m >> s) & FIELD_MASK
            if e:
                out[m - one] = c * e
        return _make(out, self.den)

    def substitute(self, mapping: Mapping[str, Union["Poly", Scalar]]) -> "Poly":
        """Simultaneously replace variables by polynomials or exact scalars.

        Every image is read in terms of the original variables, so
        ``{"a": b, "b": a}`` swaps and an image may name a variable that is
        itself replaced.  Variables not in the mapping stay.  An image may
        be a `Poly`, an int or a `Fraction`; anything else raises
        TypeError.  A result exponent past MAX_EXP raises OverflowError.

        >>> a, b = Poly.variable("a"), Poly.variable("b")
        >>> (a ** 2 * b).substitute({"a": b, "b": -a / 2})
        -1/2*a*b^2
        """
        images = {v: as_poly(p) for v, p in mapping.items()}
        one = Poly.const(1)
        pairs = []
        for mono, c in self.items():
            term = Poly.const(c)
            for v, e in mono:
                term = term * (images[v] ** e if v in images else Poly.variable(v, e))
            pairs.append((term, one))
        return sum_of_products(pairs)

    def truncate_degree(self, bound: int) -> "Poly":
        """Drop terms of total degree exceeding the bound."""
        return _make({m: c for m, c in self.terms.items() if _key_degree(m) <= bound}, self.den)

    # -- display -----------------------------------------------------------

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in _sorted_items(self):
            factors = [v if e == 1 else "%s^%d" % (v, e) for v, e in m]
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append("-" + body)
            else:
                parts.append("%s*%s" % (c, body))
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out


class _Deferred(Poly):
    """A deferred product (see the module docstring), whose first read of
    `terms` keeps those of `_built`.  Only it and `homology._Tensor` have
    a `__getattr__` (`series.LazySeries` makes its terms in a property): a
    class with one loses the interpreter's fast path for every attribute
    read of its instances."""

    __slots__ = ("factors",)

    def __bool__(self) -> bool:
        return True

    def is_zero(self) -> bool:
        return False

    def support(self) -> int:
        a, b = self.factors
        return a.support() | b.support()

    def __getattr__(self, name: str):
        # reached only while a slot is unset
        if name != "terms":
            raise AttributeError(name)
        self.terms = terms = self._built().terms
        return terms

    def _built(self) -> Poly:
        """The product, built a-outer, b-inner as in `sum_of_products`."""
        a, b = self.factors
        bt = b.terms.items()
        return _make({m1 + m2: c1 * c2 for m1, c1 in a.terms.items() for m2, c2 in bt}, a.den * b.den)


def as_poly(c) -> Poly:
    """A coefficient as a `Poly`: an int or Fraction becomes a constant and
    anything else, such as a float, raises TypeError."""
    return c if isinstance(c, Poly) else Poly.const(c)


def sum_of_products(pairs: Iterable[Tuple[Poly, Poly]]) -> Poly:
    """The sum of a * b over the pairs, the one term-product loop.

    Every term product adds into one dict of integer numerators over one
    common denominator, widened by lcm only when a pair's denominator does
    not divide it, and the result is made once; no intermediate `Poly` is
    built.  `Poly.__mul__` runs it on one pair of multi-term factors whose
    supports overlap, and `TruncSeries.__mul__` on the coefficient pairs
    that meet at one exponent.  A result exponent past MAX_EXP raises
    OverflowError.
    """
    out: Dict[int, int] = {}
    get = out.get
    den = 1
    for a, b in pairs:
        d = a.den * b.den
        if den % d:
            wide = lcm(den, d)
            out = {m: c * (wide // den) for m, c in out.items()}
            get = out.get
            den = wide
        scale = den // d
        bt = b.terms.items()
        for m1, c1 in a.terms.items():
            c1 *= scale
            for m2, c2 in bt:
                m = m1 + m2
                t = get(m, 0) + c1 * c2
                if t:
                    out[m] = t
                else:
                    del out[m]
    check_guards(out)
    return _make(out, den)


def _sorted_items(p: Poly) -> List[Tuple[Mono, Fraction]]:
    """`Poly.items` by total degree, then monomial: the display order."""
    return sorted(p.items(), key=lambda mc: (sum(e for _, e in mc[0]), mc[0]))


def poly_to_obj(p: Poly) -> list:
    """JSON-ready form: sorted [[ [var, exp], ... ], "num/den"] pairs."""
    return [
        [[[v, e] for v, e in m], "%d/%d" % (c.numerator, c.denominator)]
        for m, c in _sorted_items(p)
    ]


def _parse_coefficient(c) -> Fraction:
    if not isinstance(c, str):
        raise ValueError("a coefficient is a \"num/den\" string, got %r" % (c,))
    return Fraction(c)


def _parse_name(v) -> str:
    if not isinstance(v, str):
        raise ValueError("a variable name is a string, got %r" % (v,))
    return v


def poly_from_obj(obj) -> Poly:
    """Read the form of `poly_to_obj` back in canonical form: zero
    exponents are dropped and a repeated variable's exponents add up.  A
    variable name or a coefficient that is not a string, such as null or
    a JSON number, and a list that is not of pairs raise ValueError."""
    return _from_pairs(
        ([(_parse_name(v), e) for v, e in json_pairs(m, "a monomial")], _parse_coefficient(c))
        for m, c in json_pairs(obj, "a polynomial")
    )


def json_field(obj: Mapping, key: str):
    """``obj[key]`` of a JSON object; a missing key, or an ``obj`` that is
    not an object, raises ValueError."""
    if not isinstance(obj, Mapping):
        raise ValueError("expected a JSON object holding %r, got %r" % (key, obj))
    try:
        return obj[key]
    except KeyError:
        raise ValueError("missing key %r" % (key,)) from None


def json_list(obj: Mapping, key: str) -> list:
    """``obj[key]`` of a JSON object, which must be a list: anything else,
    such as a string, raises ValueError, as a missing key does."""
    value = json_field(obj, key)
    if not isinstance(value, list):
        raise ValueError("%r must be a list, got %r" % (key, value))
    return value


def json_pairs(x, what: str) -> list:
    """``x`` as a JSON list of pairs, each a list of two entries; anything
    else, such as a number or a list of numbers, raises ValueError."""
    if not isinstance(x, list) or not all(isinstance(p, list) and len(p) == 2 for p in x):
        raise ValueError("%s must be a list of pairs, got %r" % (what, x))
    return x


def exact_int(x, what: str) -> int:
    """An integer, for the JSON readers and the constructors alike;
    anything else (a float, a bool, a string, a Fraction) raises
    ValueError instead of being cut to an int."""
    if type(x) is not int:
        raise ValueError("%s must be an integer, got %r" % (what, x))
    return x
