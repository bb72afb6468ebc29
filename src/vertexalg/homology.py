"""Polynomial models for the rational homology of classifying stacks.

Every space handled here has free polynomial homology, and all operators
are written against explicit generator alphabets:

* unitary towers (all ranks at once): H = Q[s_1, s_2, ...], deg s_k = 2k,
  one rank label r per component;
* orthogonal / symplectic towers: H = Q[s_2, s_4, ...], rank label r0
  (even for the symplectic model, since quaternionic ranks double).

Products of spaces keep one alphabet per factor via suffixes: s3_2 is the
third generator of factor 2, and factor 0 is reserved for the module slot
of an orthosymplectic product (unitary factors 1..n times one BO or BSp
factor).  Cohomology acts by cap product: the character generator ch_k of
a factor acts as d/ds_k for k > 0 and as the rank scalar for k = 0.  A
monomial acts in closed form, ch_k^e . s_k^n = n!/(n-e)! s_k^(n-e) (zero
when e > n) and ch_0^e . p = rank^e p, so no derivative is ever taken
term by term.

The translation operator exp(sum z_i D_i) of the sum map is implemented
directly from its one-parameter generators, one per unitary factor:

    D (unitary factor of rank r):  p |-> r*s1*p + sum_k s_{k+1} dp/ds_k

the pushforward along addition of a rank-one class, written in the
s-alphabet.  `_translated` runs one integer recurrence: the D_i commute,
so the coefficient of z^e is D^e a / e!, and D^e a is built factor by
factor as integer numerators over the denominator of a, each made a
`Poly` once, over den * e!.  It is the make of two `series.LazySeries`:
`translate_series`, whose read through a window reads its input through
the input's own and translates only the coefficients inside it, each only
to the degree the window leaves; and `translate`, the same of one class
on no variables, whose read through a window makes only the levels inside
it, and whose whole read is the recurrence to its order.

The sum map of a product component is pushed forward by
`pushforward_substitute`.  `tensor` leaves an external product unbuilt,
holding its factors, so its pushforward is a plain product of the
factors' images and no suffixed term is ever built.  Both check their
outputs from supports they already hold (each factor on its own space,
then the factors' images on the target), and there is one label per
component, so the route costs O(factors) beside the products of the
factors themselves.  Moving a factor onto its suffix and both sum
maps send each monomial of one factor to one monomial times a scalar, or
to zero: s_k^e to s_k^e on the target alphabet, or on a unitary factor
of an orthosymplectic product to (2*s_k)^e for even k and to zero for
odd k.  So all of them run as field moves on packed keys, through one
kind of per-factor monomial table (`_field_table`); the dual involution
signs each key from a mask of its odd-s_k fields, the generator D runs
through plans cached per support, and a cap lowers homology keys through
lowerings planned once per component.  Read, a `tensor` is one fused
product: each factor's terms move onto its suffix by table lookups and
multiply into the product's numerators by adding keys, and the result is
made once.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache, partial, reduce
from math import gcd, perm, prod
from operator import mul, or_
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .poly import (
    FIELD_MASK,
    MAX_EXP,
    MonomialTable,
    Poly,
    _Deferred,
    _make,
    as_poly,
    check_guards,
    exact_int,
    key_fields,
    shift_name,
    var_shift,
)
from .series import LazySeries, TruncSeries, VarSet, _lazy, _names, _series

MODELS = ("BU_Z", "BO_Z", "BSp_2Z")

# factor keys: None for an unsuffixed single space, integers otherwise
FactorKey = Optional[int]

_S_RE = re.compile(r"s(\d+)(?:_(\d+))?\Z")
_CH_RE = re.compile(r"ch(\d+)(?:_(\d+))?\Z")

# (model, index) -> the one label of that component (see `ComponentLabel`)
_LABELS: Dict[Tuple[str, tuple], "ComponentLabel"] = {}

# the variables of the raw series of `translate`: none, the class sits at the origin
_POINT = VarSet(())

# Every per-key plan is a `poly.MonomialTable`, whose entry is worked out
# on first lookup and kept as long as the table; per-support plans are
# `functools.cache` functions.  Both stay right for the life of the
# process because the variable interner is append-only, so a key or a
# support (the bitwise or of a polynomial's keys) always names the same
# variables.  Kept for the process: `_field_table`, one table per target
# factor and doubling of the image of each one-factor monomial, and
# `_source_parts`, one per support and model kind; `_moves_table`, one
# per factor of the moves of the translation generator; `_coordinates_of`,
# one per component and coordinate names, their `VarSet`, their positions
# and the unitary factors with their ranks; and `_cap_plan`,
# one `pairing_plan` per component (the act of each generator, the mask
# of the acting fields of each support, the lowering of each cohomology
# monomial) shared by `cap_poly` and `contract_poly`, as `ktheory` keeps
# the one plan of the K pairing.  A monomial entry plans one monomial of a
# single factor, never a polynomial result, so the tables grow with the
# distinct monomials of single factors, not with those of their products.


def s_name(k: int, factor: FactorKey = None) -> str:
    if k < 1:
        raise ValueError("s-generators start at k = 1")
    return "s%d" % k if factor is None else "s%d_%d" % (k, factor)


def ch_name(k: int, factor: FactorKey = None) -> str:
    if k < 0:
        raise ValueError("character components start at k = 0")
    return "ch%d" % k if factor is None else "ch%d_%d" % (k, factor)


@cache
def parse_s(name: str) -> Optional[Tuple[int, FactorKey]]:
    """(k, factor) of an s-generator name, None for any other name.  One
    regex match per distinct name: the library passes interned variable
    names, so the cache grows no further than the variable table."""
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
    raise ValueError("unknown generator %r" % name)


def weighted_degrees(poly: Poly) -> List[int]:
    return sorted({sum(var_weight(v) * e for v, e in m) for m, _ in poly.items()})


class ComponentLabel:
    """A connected component of one of the supported models.

    The index tuple records the discrete data:

    * BU_Z: one integer rank per unitary factor (n >= 1 of them);
    * BO_Z / BSp_2Z: ranks (r_1, .., r_n, r_0) where the last entry is the
      orthogonal or symplectic factor and the first n are unitary factors
      of a product; n = 0 gives the plain single space.

    There is one label per component: the constructor validates its
    arguments on every call, so a rank such as True or 1.0 raises even
    after the label of rank 1 exists, and then returns the label already
    made for them.  Two labels are equal exactly when they are the same
    object, and a label is shared, so its attributes cannot be set.
    ``checked`` is the mask of the fields of the generators already found
    to live on the component (see `_check`).

        >>> ComponentLabel("BU_Z", [1, 2]) is ComponentLabel("BU_Z", (1, 2))
        True
    """

    __slots__ = ("model", "index", "checked")

    def __new__(cls, model: str, index: Sequence):
        if model not in MODELS:
            raise ValueError("unknown model %r" % model)
        index = tuple(index)
        if not index:
            raise ValueError("%s needs at least one rank" % model)
        for r in index:
            exact_int(r, "a rank")
        if model == "BSp_2Z" and index[-1] % 2:
            raise ValueError("symplectic ranks are even")
        label = _LABELS.get((model, index))
        if label is None:
            label = _LABELS[model, index] = object.__new__(cls)
            for name, value in (("model", model), ("index", index), ("checked", 0)):
                object.__setattr__(label, name, value)
        return label

    def __setattr__(self, name, value):
        raise AttributeError("a component label is shared and cannot be changed")

    def __reduce__(self):
        # a copied or unpickled label is the one label of its component
        return ComponentLabel, (self.model, self.index)

    def __repr__(self):
        return "ComponentLabel(%r, %r)" % (self.model, self.index)

    # -- structure ------------------------------------------------------------

    def unitary_factors(self) -> Tuple[FactorKey, ...]:
        """Keys of the factors moved by translation, in order."""
        if self.model == "BU_Z":
            if len(self.index) == 1:
                return (None,)
            return tuple(range(1, len(self.index) + 1))
        return tuple(range(1, len(self.index)))

    def factor_keys(self) -> Tuple[FactorKey, ...]:
        if self.model == "BU_Z":
            return self.unitary_factors()
        n = len(self.index) - 1
        if n == 0:
            return (None,)
        return tuple(range(1, n + 1)) + (0,)

    def rank(self, factor: FactorKey = None) -> int:
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
        return factor == 0 or (factor is None and len(self.index) == 1)

    def allows_variable(self, name: str) -> bool:
        got = parse_s(name)
        if got is None:
            return False
        k, factor = got
        return factor in self.factor_keys() and not (self.even_only(factor) and k % 2)


def _label(model: str, index: tuple) -> ComponentLabel:
    """The label of (model, index) whose ranks are made from those of
    other labels, so exact ints: a label already made is returned without
    validation.  The table's keys compare True and 1.0 equal to 1, so an
    index from outside the library goes through the constructor."""
    return _LABELS.get((model, index)) or ComponentLabel(model, index)


def _check(component: ComponentLabel, support: int) -> None:
    """Raise ValueError unless every generator of ``support`` (the bitwise
    or of a polynomial's keys) lives on ``component``.  Only the fields
    missing from the label's ``checked`` mask are read by name, and the
    mask grows by them once all pass."""
    new = support & ~component.checked
    if new:
        for shift, _ in key_fields(new):
            if not component.allows_variable(shift_name(shift)):
                raise ValueError(
                    "generator %r does not live on %r" % (shift_name(shift), component)
                )
            new |= FIELD_MASK << shift
        object.__setattr__(component, "checked", component.checked | new)


def _element(component: ComponentLabel, poly: Poly) -> "HomologyElement":
    """A class whose generators the caller has already checked with `_check`."""
    a = HomologyElement.__new__(HomologyElement)
    a.component, a.poly = component, poly
    return a


class HomologyElement:
    """A polynomial class on one component.

    The constructor checks that every generator of the class lives on the
    component, from the support of its polynomial (`_check`), so an
    unbuilt product stays unbuilt.  `tensor` and `pushforward_substitute`
    run the same check on supports they already have: each factor's on
    its own single space, and the bitwise or of the images' supports on
    the target.

    EXAMPLES:

        >>> a = HomologyElement(ComponentLabel("BU_Z", (1,)), Poly.variable("s2"))
        >>> a.degree()
        4
    """

    __slots__ = ("component", "poly")

    def __init__(self, component: ComponentLabel, poly: Union[Poly, int, Fraction]):
        poly = as_poly(poly)
        _check(component, poly.support())
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
        return self.component == other.component and self.poly == other.poly

    def __hash__(self):
        raise TypeError("homology elements are unhashable")


def _single_ranks(factors: Sequence[HomologyElement]) -> Tuple[int, ...]:
    ranks = []
    for f in factors:
        comp = f.component
        if comp.model != "BU_Z" or len(comp.index) != 1:
            raise ValueError("tensor factors must be single unitary classes")
        ranks.append(comp.index[0])
    return tuple(ranks)


def _module_model(module: HomologyElement) -> str:
    model = module.component.model
    if model not in ("BO_Z", "BSp_2Z") or len(module.component.index) != 1:
        raise ValueError("module factor must be a single BO or BSp class")
    return model


class _Tensor(_Deferred):
    """An unbuilt `tensor` product: ``parts`` holds each factor's factor
    key and its own polynomial.  Its support comes from the parts'
    supports, its den on first read, and its terms on first read too;
    `pushforward_substitute` reads the parts alone."""

    __slots__ = ("parts",)
    factors = None  # no pair to cap from: a contraction builds the terms

    def __getattr__(self, name: str):
        # reached only while a slot is unset
        if name != "den":
            return _Deferred.__getattr__(self, name)
        # the contents of the factors multiply (Gauss's lemma)
        d = prod(p.den for _, p in self.parts)
        self.den = d = d // gcd(d, prod(gcd(*p.terms.values()) for _, p in self.parts))
        return d

    def support(self) -> int:
        # a support moves as a monomial does: field by field
        return reduce(or_, (_field_table(key, False)[p.support()][0] for key, p in self.parts))

    def _built(self) -> Poly:
        terms, den = {0: 1}, 1
        for key, p in self.parts:
            image = _moved_terms(p, _field_table(key, False)).items()
            terms = {k + m: c * d for k, c in terms.items() for m, d in image}
            den *= p.den
        return _make(terms, den)


def tensor(*factors: HomologyElement, module: HomologyElement = None) -> HomologyElement:
    """External product of single-space classes, with factor suffixes.

    Without a module argument all factors must be unitary classes; the
    result lives on the n-fold unitary product.  With one, the module
    factor becomes factor 0 of an orthosymplectic product, and its terms
    come first.  Each factor's generators are checked on that factor's
    own single space (`_check`), which gives the verdict of the product's
    own check, since moving onto a suffix is a bijection between the
    generators allowed there and those allowed on the factor, and catches
    a factor whose polynomial was replaced after it was made.

    A single space keeps its unsuffixed names, so there nothing moves and
    the class's own polynomial is the result; a zero factor gives zero.
    Otherwise the product holds the factors' own polynomials, unbuilt and
    unwalked.  Its den, the product of the factors' dens divided by its
    gcd with the product of their contents (Gauss's lemma), is worked out
    on first read.  The first read of its terms runs the fused product:
    each factor's terms move onto its suffix by one lookup each in that
    factor's `_field_table`, the moved keys add to the keys of the
    product so far (the factors' supports are disjoint, so nothing merges
    or carries), and the numerators multiply.  `pushforward_substitute`
    never builds them:

        >>> s1, s2 = Poly.variable("s1"), Poly.variable("s2")
        >>> a = HomologyElement(ComponentLabel("BU_Z", (1,)), s1 + s2 / 2)
        >>> b = HomologyElement(ComponentLabel("BU_Z", (2,)), s1 - s2)
        >>> ab = tensor(a, b)
        >>> pushforward_substitute(ab).poly
        -1/2*s1*s2+s1^2-1/2*s2^2
        >>> Poly.terms.__get__(ab.poly)  # still unbuilt: its slot is empty
        Traceback (most recent call last):
        AttributeError: '_Tensor' object has no attribute 'terms'
        >>> ab.poly
        s1_1*s1_2-s1_1*s2_2+1/2*s1_2*s2_1-1/2*s2_1*s2_2
    """
    ranks = _single_ranks(factors)
    if module is None:
        if not factors:
            raise ValueError("empty tensor product")
        comp = _label("BU_Z", ranks)
        keys = comp.unitary_factors()
    else:
        comp = _label(_module_model(module), ranks + (module.component.index[0],))
        *keys, slot = comp.factor_keys()  # the unitary factors, then the module slot
        keys = [slot] + keys
        factors = (module,) + factors
    parts = []
    for key, f in zip(keys, factors):
        _check(f.component, f.poly.support())
        parts.append((key, f.poly))
    if len(parts) == 1 or not all(p for _, p in parts):
        return _element(comp, parts[0][1] if len(parts) == 1 else Poly.zero())
    p = _Tensor.__new__(_Tensor)
    p.parts = parts
    return _element(comp, p)


def _field_image(target: FactorKey, doubles: bool, key: int) -> Optional[Tuple[int, int]]:
    """The image of a one-factor monomial: (image key, scalar), or None
    when it is zero.  Each s_k^e moves to s_k^e on ``target`` (None:
    unsuffixed), and with ``doubles`` (a unitary factor under the
    orthosymplectic sum map) to (2*s_k)^e for even k and to zero for odd
    k.  A one-factor monomial holds each s_k of its factor at most once,
    so every field moves to a distinct target field: an image neither
    merges nor overflows."""
    image, scalar = 0, 1
    for shift, e in key_fields(key):
        k = parse_s(shift_name(shift))[0]
        if doubles:
            if k % 2:
                return None
            scalar <<= e
        image += e << var_shift(s_name(k, target))
    return image, scalar


@cache
def _field_table(target: FactorKey, doubles: bool) -> MonomialTable:
    """The table of `_field_image` onto ``target``, the one table kind of
    the moves onto suffixes and of both sum maps."""
    return MonomialTable(partial(_field_image, target, doubles))


def _moved_terms(poly: Poly, table: MonomialTable) -> Dict[int, int]:
    """The numerators of a single-space class moved by ``table``, over its
    den, one lookup per term: the map is injective on the monomials of one
    factor that it does not send to zero, so no two terms meet."""
    return {
        image[0]: c * image[1] for m, c in poly.terms.items() if (image := table[m]) is not None
    }


@cache
def _source_parts(support: int, twisted: bool) -> Tuple[Tuple[int, MonomialTable], ...]:
    """The field mask of each source factor among the s-generators of
    ``support`` with the table of its image under the sum map, or () when
    nothing moves (no generator, or unsuffixed ones only).  On a
    ``twisted`` (orthosymplectic) product every factor but the module slot
    0 doubles.  Made once per support, which is sound because a support
    always names the same variables."""
    masks: Dict[FactorKey, int] = {}
    for shift, _ in key_fields(support):
        factor = parse_s(shift_name(shift))[1]
        masks[factor] = masks.get(factor, 0) | FIELD_MASK << shift
    if set(masks) <= {None}:
        return ()
    return tuple((mask, _field_table(None, twisted and f != 0)) for f, mask in masks.items())


def _sum_map(poly: Poly, twisted: bool) -> Poly:
    """The sum map of a built product on packed keys.

    Each key splits by the field masks of its source factors into
    one-factor parts; its image key is the sum of the parts' image keys
    and its coefficient is scaled by their scalars, and a part whose image
    is zero drops the term.  Parts that land on one field merge and every
    partial key sum is or-ed into the guard check, so an exponent past
    MAX_EXP raises OverflowError; terms that meet add their coefficients.
    When nothing moves the operand is returned.
    """
    parts = _source_parts(poly.support(), twisted)
    if not parts:
        return poly
    out: Dict[int, int] = {}
    get = out.get
    seen = 0  # the bitwise or of every partial key sum
    for m, c in poly.terms.items():
        key = 0
        for mask, table in parts:
            image = table[m & mask]
            if image is None:
                break
            key += image[0]
            seen |= key
            c *= image[1]
        else:
            out[key] = get(key, 0) + c
    check_guards((seen,))
    return Poly.packed(out, poly.den)


# -- cap product ---------------------------------------------------------------


def _act(component: ComponentLabel, shift: int) -> Optional[Tuple]:
    """How the generator at field offset ``shift`` acts on ``component``:
    None for a homology generator (an s-name), (target field offset, None)
    for a character generator ch_k acting as d/ds_k, and (None, rank) for
    ch_0, which acts as the rank scalar.  A character generator that names
    no factor of the component, or a name in neither alphabet, raises
    ValueError."""
    gen = shift_name(shift)
    ch = parse_ch(gen)
    if ch is None:
        if parse_s(gen) is None:
            raise ValueError("%r is neither an s- nor a ch-generator" % gen)
        return None
    k, factor = ch
    if factor not in component.factor_keys():
        raise ValueError("%r names no factor of %r" % (gen, component))
    if k == 0:
        return None, component.rank(factor)
    return var_shift(s_name(k, factor)), None


def _comask(acts: MonomialTable, support: int) -> int:
    """The mask of the acting fields among those of ``support``."""
    comask = 0
    for shift, _ in key_fields(support):
        if acts[shift] is not None:
            comask |= FIELD_MASK << shift
    return comask


def _lowering(acts: MonomialTable, falling: bool, cokey: int) -> Optional[Tuple]:
    """The action of one monomial in acting generators on packed keys:
    (scalar, need, guards, falling pairs), or None when it acts as zero.
    ``need`` is the key of the units it takes off its target fields and
    ``guards`` their guard bits; with ``falling`` a field holding n units
    also contributes n!/(n-e)! (a derivative), otherwise 1.  A generator
    that does not act raises ValueError."""
    scalar = 1
    take: Dict[int, int] = {}
    for shift, e in key_fields(cokey):
        act = acts[shift]
        if act is None:
            raise ValueError("%r does not act in this pairing" % shift_name(shift))
        target, rank = act
        if target is None:
            scalar *= rank ** e
        else:
            take[target] = take.get(target, 0) + e
    if not scalar or any(e > MAX_EXP for e in take.values()):
        return None
    need = guards = 0
    for target, e in take.items():
        need += e << target
        guards |= (MAX_EXP + 1) << target
    return scalar, need, guards, tuple(take.items()) if falling else ()


def pairing_plan(
    act: Callable[[int], Optional[Tuple]], falling: bool
) -> Tuple[MonomialTable, MonomialTable]:
    """The plan of a cap pairing: (comasks, lowerings), two tables over
    one table of per-generator acts; an entry that raises is not kept.

    ``act`` sends a field offset to None for a generator acted on, to
    (target field offset, None) for one that takes units off the target,
    or to (None, rank) for a scalar (see `_act`), and raises ValueError
    for a generator foreign to the pairing.  ``comasks`` maps a support
    to the mask of its acting fields and ``lowerings`` an acting monomial
    to its `_lowering`; `contract_with` reads both, `cap_with` the
    second.  On BU_Z(1), ch1^2 takes two units off s1 with a falling
    factorial, and ch0 is the rank 1:

    >>> comasks, lowerings = pairing_plan(partial(_act, ComponentLabel("BU_Z", (1,))), True)
    >>> ch0, ch1, s1 = (Poly.variable(v) for v in ("ch0", "ch1", "s1"))
    >>> p = ch1 ** 2 * s1 ** 3 + 2 * ch0 * s1
    >>> sorted(shift_name(s) for s, _ in key_fields(comasks[p.support()]))
    ['ch0', 'ch1']
    >>> scalar, need, guards, falling = lowerings[(ch1 ** 2).support()]
    >>> need == (s1 ** 2).support(), falling == ((var_shift("s1"), 2),)
    (True, True)
    >>> contract_with(p, comasks[p.support()], lowerings)
    8*s1
    """
    acts = MonomialTable(act)
    return MonomialTable(partial(_comask, acts)), MonomialTable(partial(_lowering, acts, falling))


@cache
def _cap_plan(component: ComponentLabel) -> Tuple[MonomialTable, MonomialTable]:
    """The `pairing_plan` of one component, made on first use: an act, a
    comask and a lowering depend only on the component and the key, so
    `cap_poly` and `contract_poly` plan each once per component."""
    return pairing_plan(partial(_act, component), True)


def cap_with(ch_poly: Poly, poly: Poly, lowerings: Mapping[int, Optional[Tuple]]) -> Poly:
    """Cap every monomial of ``ch_poly``, acting as its entry in
    ``lowerings`` (the table of a `pairing_plan`) says, against every
    monomial of ``poly``: the kernel of `cap_poly`, `ktheory.k_cap` and a
    deferred product's contraction in either pairing.

    (d/ds)^e s^n = n!/(n-e)! s^(n-e), zero when e > n.  Setting the guard
    bit of every target field and subtracting ``need`` lowers them all at
    once: a field that held fewer than e units borrows its guard bit, so
    the monomial caps to zero exactly when a guard bit is gone.
    """
    out: Dict[int, int] = {}
    get = out.get
    terms = poly.terms.items()
    for cokey, c in ch_poly.terms.items():
        lowering = lowerings[cokey]
        if lowering is None:
            continue
        scalar, need, guards, falling = lowering
        c *= scalar
        for key, d in terms:
            low = (key | guards) - need
            if low & guards != guards:
                continue
            coef = c * d
            for shift, e in falling:
                coef *= perm((key >> shift) & FIELD_MASK, e)
            low ^= guards
            out[low] = get(low, 0) + coef
    return Poly.packed(out, ch_poly.den * poly.den)


def contract_with(p: Poly, comask: int, lowerings: Mapping[int, Optional[Tuple]]) -> Poly:
    """Split every key of p by the mask of its acting fields and let the
    acting part, as its entry in ``lowerings`` says, lower the rest.

    ``comask`` and ``lowerings`` come from one `pairing_plan`, kept across
    calls, so each distinct acting part is planned once per pairing, not
    once per call.  Each key is lowered as in `cap_with`, and tested for
    survival before anything is stripped: a field short of units borrows
    only its own guard bit, so the acting fields are untouched by the
    subtraction, and only the few keys that survive have their guard bits
    and acting part cleared.  A deferred product (see the `poly` module
    docstring) of a factor in acting generators only and one in none is
    capped from its factors by `cap_with`, unbuilt.
    """
    if p.factors is not None:
        a, b = p.factors
        sa, sb = a.support(), b.support()
        if not sa & ~comask and not sb & comask:
            return cap_with(a, b, lowerings)
        if not sb & ~comask and not sa & comask:
            return cap_with(b, a, lowerings)
    out: Dict[int, int] = {}
    get = out.get
    for key, coef in p.terms.items():
        cokey = key & comask
        lowering = lowerings[cokey]
        if lowering is None:
            continue
        scalar, need, guards, falling = lowering
        low = (key | guards) - need
        if low & guards != guards:
            continue
        for shift, e in falling:
            coef *= perm((key >> shift) & FIELD_MASK, e)
        low ^= guards | cokey
        out[low] = get(low, 0) + coef * scalar
    return Poly.packed(out, p.den)


def cap_poly(ch_poly: Poly, poly: Poly, component: ComponentLabel) -> Poly:
    """Apply a character polynomial to a homology polynomial.

    ch_k acts as d/ds_k for k > 0 and as the rank for k = 0, factor by
    factor.  The action of a product is the composite of the actions,
    which all commute, so a monomial acts in closed form: ch_k^e sends
    s_k^n to n!/(n-e)! s_k^(n-e) (zero when e > n) and ch_0^e multiplies
    by rank^e.  Each monomial of ``ch_poly`` is planned once per
    component, in the lowering table of the component's `pairing_plan`,
    which `contract_poly` shares, and then lowers the packed target
    fields of every homology key by shift and mask.  A homology generator
    in ``ch_poly`` raises ValueError.
    """
    return cap_with(ch_poly, poly, _cap_plan(component)[1])


def contract_poly(p: Poly, component: ComponentLabel) -> Poly:
    """Pair the cohomology part of a mixed polynomial against its homology part.

    The component's `pairing_plan` classifies generators into character
    generators (ch alphabet) and homology generators (s alphabet), once
    per field, and gives the mask of the character fields once per
    support; a name in neither alphabet raises ValueError.  Each key
    splits by that mask into its cohomology part, whose lowering is
    planned once per component (the table `cap_poly` shares), and its
    homology part, which that lowering lowers in the closed form of
    `cap_poly`.  Multiplying first and contracting afterwards is what
    makes capping a whole series against a whole series a plain series
    product.  A deferred ch x s product is capped from its factors, and
    its terms are never built:

    >>> p = (Poly.variable("ch1") + 3 * Poly.variable("ch0")) * (Poly.variable("s1") ** 2 + 1)
    >>> p.factors
    (3*ch0+ch1, 1+s1^2)
    >>> contract_poly(p, ComponentLabel("BU_Z", (1,)))
    3+2*s1+3*s1^2
    """
    comasks, lowerings = _cap_plan(component)
    return contract_with(p, comasks[p.support()], lowerings)


def translate_series(
    num: TruncSeries,
    component: ComponentLabel,
    wvars: Sequence[str],
) -> LazySeries:
    """The translation operator in the named coordinates on every
    coefficient of a series of classes on one component, each to the order
    its monomial leaves, over the names of ``wvars`` that ``num`` lacks,
    then ``num``'s (a shared name adds exponents), at ``num``'s finite
    order.  The call translates nothing: a `series.LazySeries` read through
    a window reads ``num`` through its own and translates each coefficient
    by `_translated` only to the degree the window leaves; a read of
    `terms` gives every coefficient translated at once."""
    _, _, factors = _coordinates(component, wvars)
    return LazySeries(num, partial(_translated, factors), wvars)


# -- translation ---------------------------------------------------------------


def _moves(factor: FactorKey, part: int) -> Tuple[Tuple[int, int], ...]:
    """The moves of the translation generator on one monomial in the
    s-generators of ``factor``: for each s_k in it with exponent e, the key
    step [s_{k+1}] - [s_k] and e."""
    return tuple(
        ((1 << var_shift(s_name(parse_s(shift_name(shift))[0] + 1, factor))) - (1 << shift), e)
        for shift, e in key_fields(part)
    )


@cache
def _moves_table(factor: FactorKey) -> MonomialTable:
    """The table of `_moves` of ``factor``'s monomials."""
    return MonomialTable(partial(_moves, factor))


@cache
def _raise_plan(support: int, factor: FactorKey) -> Tuple[int, int, MonomialTable]:
    """The key of s_1 on ``factor``, the mask of that factor's s-fields in
    ``support``, and the table of `_moves` of that factor's monomials;
    built once per (support, factor), the table once per factor."""
    mask = 0
    for shift, _ in key_fields(support):
        got = parse_s(shift_name(shift))
        if got is not None and got[1] == factor:
            mask |= FIELD_MASK << shift
    return 1 << var_shift(s_name(1, factor)), mask, _moves_table(factor)


def _raised(terms: Dict[int, int], factor: FactorKey, rank: int) -> Dict[int, int]:
    """The translation generator on a unitary factor, p |-> rank*s1*p +
    sum_k s_{k+1} dp/ds_k, on the integer numerators of p over any
    denominator, which it keeps.

    A term c*m contributes c*rank at key m + [s_1] and, for each s_k of
    the factor with exponent e > 0, c*e at key m + [s_{k+1}] - [s_k]; no
    polynomial is multiplied or differentiated.  The key of s_1 and the
    factor's mask come from a plan cached per (support, factor), which is
    sound because a support always names the same variables, and the
    steps of the factor's part of each key from a table of one-factor
    monomials.  Sums that cancel are dropped, and an exponent past
    MAX_EXP raises OverflowError.
    """
    one, mask, table = _raise_plan(reduce(or_, terms, 0), factor)
    # the rank terms m + [s_1] are distinct keys, one per term
    out = {m + one: c * rank for m, c in terms.items()} if rank else {}
    seen = reduce(or_, out, 0)  # the bitwise or of every result key
    get = out.get
    for m, c in terms.items():
        for step, e in table[m & mask]:
            key = m + step
            seen |= key
            out[key] = get(key, 0) + c * e
    check_guards((seen,))
    return {m: c for m, c in out.items() if c}


def _coordinates(
    component: ComponentLabel, zvars: Sequence[str]
) -> Tuple[VarSet, Tuple[int, ...], Tuple[Tuple[FactorKey, int], ...]]:
    """A translation's coordinates, their positions, and its unitary
    factors with their ranks, one each, or ValueError; made once per
    component and names."""
    return _coordinates_of(component, _names(zvars))


@cache
def _coordinates_of(
    component: ComponentLabel, names: Tuple[str, ...]
) -> Tuple[VarSet, Tuple[int, ...], Tuple[Tuple[FactorKey, int], ...]]:
    factors = component.unitary_factors()
    if len(names) != len(factors):
        raise ValueError("expected %d coordinates, got %d" % (len(factors), len(names)))
    ranked = tuple((f, component.rank(f)) for f in factors)
    return VarSet(names), tuple(range(len(names))), ranked


def _translated(
    factors: Tuple[Tuple[FactorKey, int], ...], poly: Poly, room: int
) -> Dict[Tuple[int, ...], Poly]:
    """D^e poly / e! for every e of total degree up to ``room``, keyed by
    e, one entry per unitary factor and its rank in ``factors``; the make
    of `translate` and `translate_series`.

    One integer recurrence builds it: factor by factor, each numerator
    dict D^e poly (over the denominator of ``poly``) is raised by
    `_raised` while the total degree stays within ``room`` and the result
    is nonzero, so a series that ends early stops there, and each
    coefficient is made a `Poly` once, over den * e!.
    """
    # (e so far, its total degree, the numerators of D^e poly, e!)
    level = [((), 0, poly.terms, 1)] if poly.terms else []
    for f, rank in factors:
        grown = []
        for e, degree, terms, fact in level:
            grown.append((e + (0,), degree, terms, fact))
            for k in range(1, room - degree + 1):
                terms = _raised(terms, f, rank)
                if not terms:
                    break
                fact *= k
                grown.append((e + (k,), degree + k, terms, fact))
        level = grown
    # D^0 poly is poly itself, kept when it is a plain `Poly`
    den, same = poly.den, poly.terms if type(poly) is Poly else None
    return {e: poly if terms is same else _make(terms, den * fact) for e, _, terms, fact in level}


def translate(a: HomologyElement, zvars: Sequence[str], trunc: int) -> LazySeries:
    """exp(sum z_i D_i) applied to a class, as a series with Poly coefficients.

    There must be one z per unitary factor, in factor order; the module
    factor of an orthosymplectic product is not moved.

    The coefficient of z^e is D^e a / e!, the D_i commuting.  The call
    checks its arguments and translates nothing: the result is a
    `series.LazySeries` at order ``trunc`` over the one-term series ``a``
    on no variables, stepped along ``zvars`` (`translate_series` of a
    constant).  A read through a window makes only the levels inside it;
    a full read of `terms` is the integer recurrence of `_translated` to
    ``trunc``, as an eager call made it.  A ``trunc`` that is not an int
    raises ValueError.

    EXAMPLES:

        >>> one = HomologyElement(ComponentLabel("BU_Z", (1,)), 1)
        >>> translate(one, ["z"], 2).terms[(2,)]
        1/2*s2+1/2*s1^2
    """
    if exact_int(trunc, "the truncation") < 0:
        raise ValueError("truncation must be nonnegative")
    vs, at, factors = _coordinates(a.component, zvars)
    raw = _series(_POINT, trunc, {(): a.poly} if a.poly.terms else {})
    return _lazy(vs, trunc, raw, partial(_translated, factors), at)


# -- involution, pushforward, normal forms ----------------------------------------


def involution_dual_poly(poly: Poly) -> Poly:
    """s_k -> (-1)^k s_k on every unitary factor present.  A term changes
    sign when its odd s_k have an odd total degree, that is when an odd
    number of them have an odd exponent: the bit count of its key under
    the mask of the lowest bit of each odd-s_k field of the support.  A
    generator that is not an s-name raises ValueError."""
    odd = 0
    for shift, _ in key_fields(poly.support()):
        got = parse_s(shift_name(shift))
        if got is None:
            raise ValueError("dual involution is only defined on s-alphabets")
        odd |= (got[0] & 1) << shift
    terms = poly.terms.items()
    return _make({m: -c if (m & odd).bit_count() & 1 else c for m, c in terms}, poly.den)


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

    Both run through the per-factor tables of `_field_table`.  An unbuilt
    `tensor` product is pushed forward from its factors, and its suffixed
    terms are never built: on BU_Z the image is the plain product of the
    factors' own polynomials, and on BO_Z / BSp_2Z the module polynomial
    times each unitary factor moved through the doubling table.  Its
    output check reads the bitwise or of the images' supports, which over
    Q has exactly the fields of their product (the degrees in each
    generator add), or 0 when an image is zero, so the product's terms are
    never walked; the target's label is looked up, not validated again.
    A built product goes through `_sum_map`, term by term.

        >>> s1, s2 = Poly.variable("s1"), Poly.variable("s2")
        >>> a = HomologyElement(ComponentLabel("BU_Z", (1,)), s1 + s2)
        >>> m = HomologyElement(ComponentLabel("BO_Z", (3,)), s2)
        >>> pushforward_substitute(tensor(a, module=m))
        HomologyElement(ComponentLabel('BO_Z', (5,)), 2*s2^2)
    """
    comp, poly = a.component, a.poly
    unitary = comp.model == "BU_Z"
    rank = sum(comp.index) if unitary else comp.index[-1] + 2 * sum(comp.index[:-1])
    target = _label(comp.model, (rank,))
    if type(poly) is _Tensor:
        images = [p for _, p in poly.parts]
        if not unitary:
            # the factors keep their own unsuffixed names, so on BO / BSp a
            # unitary one doubles as a factor other than the module slot 0
            double = _field_table(None, True)
            images = [p if k == 0 else _make(_moved_terms(p, double), p.den) for k, p in poly.parts]
        # over Q a product of nonzero factors has exactly their fields
        support = reduce(or_, [q.support() for q in images]) if all(images) else 0
        _check(target, support)
        return _element(target, reduce(mul, images))
    return HomologyElement(target, _sum_map(poly, not unitary))
