"""Reference implementation for tests: the sparse polynomial ring with
monomials keyed by sorted tuples of (variable name, exponent) pairs and
`fractions.Fraction` coefficients.

`vertexalg.poly` stores packed integer keys and integer numerators over a
shared denominator instead; the property tests compare it against this
straightforward form, which is kept as it was before that change.

`multiply_out` is the other reference: substitution in the packed ring
done the slow way, factor by factor, against which `Poly.substitute` and
the library's field moves (onto factor alphabets, and both sum maps of
`homology.pushforward_substitute`) are checked.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterator, Mapping, Tuple, Union

from vertexalg import poly as packed

Mono = Tuple[Tuple[str, int], ...]
Scalar = Union[int, Fraction]

ONE_MONO: Mono = ()


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError("exact coefficient expected, got %r" % type(c).__name__)


def mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    exps: Dict[str, int] = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def mono_degree(m: Mono, weights: Mapping[str, int] = None) -> int:
    if weights is None:
        return sum(e for _, e in m)
    return sum(weights.get(v, 1) * e for v, e in m)


class Poly:
    """A sparse polynomial; immutable by convention."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Mono, Scalar] = None):
        clean: Dict[Mono, Fraction] = {}
        if terms:
            for m, c in terms.items():
                c = _as_fraction(c)
                if c:
                    clean[m] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def const(c: Scalar) -> "Poly":
        return Poly({ONE_MONO: c})

    @staticmethod
    def variable(name: str, exp: int = 1) -> "Poly":
        if exp < 0:
            raise ValueError("negative exponent in a polynomial variable")
        if exp == 0:
            return Poly.const(1)
        return Poly({((name, exp),): Fraction(1)})

    # -- ring structure -------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        p = Poly.__new__(Poly)
        p.terms = out
        return p

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        p = Poly.__new__(Poly)
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __sub__(self, other) -> "Poly":
        return self + (-other if isinstance(other, Poly) else Poly.const(-other))

    def __rsub__(self, other) -> "Poly":
        return Poly.const(other) + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                return Poly()
            p = Poly.__new__(Poly)
            p.terms = {m: cc * c for m, cc in self.terms.items()}
            return p
        if not isinstance(other, Poly):
            return NotImplemented
        out: Dict[Mono, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = out.get(m, Fraction(0)) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        p = Poly.__new__(Poly)
        p.terms = out
        return p

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
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

    def constant_term(self) -> Fraction:
        return self.terms.get(ONE_MONO, Fraction(0))

    def variables(self) -> Iterator[str]:
        seen = set()
        for m in self.terms:
            for v, _ in m:
                if v not in seen:
                    seen.add(v)
                    yield v

    def degree(self, weights: Mapping[str, int] = None) -> int:
        """Largest (weighted) total degree among terms; -1 for the zero poly."""
        if not self.terms:
            return -1
        return max(mono_degree(m, weights) for m in self.terms)

    # -- calculus and substitution ----------------------------------------

    def diff(self, var: str) -> "Poly":
        out: Dict[Mono, Fraction] = {}
        for m, c in self.terms.items():
            d = dict(m)
            e = d.get(var, 0)
            if not e:
                continue
            if e == 1:
                del d[var]
            else:
                d[var] = e - 1
            mm = tuple(sorted(d.items()))
            s = out.get(mm, Fraction(0)) + c * e
            if s:
                out[mm] = s
            else:
                out.pop(mm, None)
        p = Poly.__new__(Poly)
        p.terms = out
        return p

    def substitute(self, mapping: Mapping[str, "Poly"]) -> "Poly":
        """Simultaneously replace variables by polynomials."""
        result = Poly()
        for m, c in self.terms.items():
            term = Poly.const(c)
            for v, e in m:
                if v in mapping:
                    term = term * (mapping[v] ** e)
                else:
                    term = term * Poly.variable(v, e)
            result = result + term
        return result

    def truncate_degree(self, bound: int, weights: Mapping[str, int] = None) -> "Poly":
        """Drop terms of (weighted) degree exceeding the bound."""
        p = Poly.__new__(Poly)
        p.terms = {
            m: c for m, c in self.terms.items() if mono_degree(m, weights) <= bound
        }
        return p

    # -- display -----------------------------------------------------------

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda mm: (mono_degree(mm), mm)):
            c = self.terms[m]
            factors = [
                v if e == 1 else "%s^%d" % (v, e) for v, e in m
            ]
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


def poly_to_obj(p: Poly) -> list:
    """JSON-ready form: sorted [[ [var, exp], ... ], "num/den"] pairs."""
    out = []
    for m in sorted(p.terms, key=lambda mm: (mono_degree(mm), mm)):
        c = p.terms[m]
        out.append([[[v, e] for v, e in m], "%d/%d" % (c.numerator, c.denominator)])
    return out


def multiply_out(p: packed.Poly, mapping: Mapping[str, object]) -> packed.Poly:
    """`p.substitute(mapping)` in the packed ring, expanded term by term:
    each term starts from its coefficient and is multiplied by the image
    power (or the kept variable power) of each variable in name order."""
    result = packed.Poly()
    for mono, c in p.items():
        term = packed.Poly.const(c)
        for v, e in mono:
            term = term * (mapping[v] ** e if v in mapping else packed.Poly.variable(v, e))
        result = result + term
    return result
