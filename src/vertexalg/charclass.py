"""Weight-decomposed K-theory classes and their Euler-type characteristic series.

A KClass is a finite sum of summands indexed by integer torus weights.
Each summand stores a virtual rank and Chern characters ch_1..ch_depth
(characters, not classes, since virtual summands add linearly in ch);
Chern classes are produced on demand through the universal relation

    sum_i t^i c_i = exp( sum_{i>0} (-1)^{i-1} (i-1)! t^i ch_i ).

The equivariant Euler class of a summand of weight lambda and rank r is

    sum_{i>=0} lambda(z)^{r-i} c_i,

a rational function with poles along lambda(z) = 0 only, and the Euler
class of the whole class is the product over summands times the top Chern
class of the weight-0 part.  Everything is truncated in the Chern depth:
terms c_i with i > depth are dropped, which is exact for any later pairing
against homology of degree at most 2*depth.

The square-root Euler class multiplies the same factors over one weight
from each opposite pair.  Which one is picked is a chamber choice; outputs
are normalized to the chamber where the lexicographically leading entry of
the weight is positive, so different admissible chambers agree on the nose
(each flipped pair contributes the sign (-1)^rank, which is exactly the
discrepancy between the two readings of a dual pair).

The normal classes of the sum maps are assembled from the summand
operations, with V_i the tautological summand of factor i.  For the
n-fold sum map of the unitary model,

    N = - sum_{i != j} V_i^dual (x) V_j        at weight e_j - e_i.

For the twisted sum map (x_1..x_n, y) -> y + sum_i (x_i + x_i^dual) of an
orthogonal or symplectic model, with the parts P = V_i at e_i and
P = V_i^dual at -e_i, and M the module factor's summand with its odd
characters dropped,

    N = - sum_{P, P'} P (x) P'    over unordered pairs of parts of different
                                  factors, at the sum of their weights
        - sum_P P (x) M           at the weight of P
        - sum_P Sq P              at twice the weight of P,

where Sq is the exterior square on orthogonal models and the symmetric
square on symplectic ones.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .homology import ComponentLabel, ch_name, contract_poly
from .poly import Poly, as_poly, exact_int, json_field, json_list, json_pairs, poly_from_obj
from .poly import poly_to_obj
from .series import (
    INF,
    LazySeries,
    LinearForm,
    LocalizedSeries,
    TruncSeries,
    VarSet,
    _localized,
    _power_sum,
    _sequence,
    series_exp,
)

Weight = Tuple[int, ...]


def lex_positive(w: Weight) -> bool:
    for c in w:
        if c:
            return c > 0
    return False


class Summand:
    """One torus weight's worth of a K-theory class.

    Chern-character data drives the additive (cohomological) operations.
    The optional `lines` field lists (sign, s) pairs presenting the summand
    as a signed sum of line classes 1+s, with s the line's augmentation
    value (its class minus one) cut off at the ambient filtration depth;
    the multiplicative operations require it.  A sign is +1 or -1, the
    signs sum to the rank, and an int or `Fraction` value becomes a
    constant `Poly`; anything else raises.  A ``ch`` that is not a mapping
    and ``lines`` that are not a sequence of pairs raise ValueError.
    """

    __slots__ = ("rank", "ch", "lines")

    def __init__(
        self,
        rank: int,
        ch: Mapping[int, Poly] = None,
        lines: Optional[Sequence[Tuple[int, Poly]]] = None,
    ):
        if ch is not None and not isinstance(ch, Mapping):
            raise ValueError("ch must be a mapping of indices to polynomials, got %r" % (ch,))
        clean: Dict[int, Poly] = {}
        if ch:
            for k, p in ch.items():
                k = exact_int(k, "character index")
                if k < 1:
                    raise ValueError("characters are indexed from 1")
                p = as_poly(p)
                if not p.is_zero():
                    clean[k] = p
        self.rank = exact_int(rank, "rank")
        self.ch = clean
        if lines is not None:
            pairs = [_sequence(pair, "a line") for pair in _sequence(lines, "lines")]
            if any(len(pair) != 2 for pair in pairs):
                raise ValueError("lines must be (sign, value) pairs, got %r" % (lines,))
            lines = tuple((exact_int(sg, "line sign"), as_poly(s)) for sg, s in pairs)
            if any(sg not in (1, -1) for sg, _ in lines):
                raise ValueError("line signs are +1 or -1")
            if sum(sg for sg, _ in lines) != self.rank:
                raise ValueError("line presentation does not match the rank")
        self.lines = lines

    def is_zero(self) -> bool:
        return self.rank == 0 and not self.ch and not self.lines

    def negate(self) -> "Summand":
        return Summand(
            -self.rank,
            {k: -p for k, p in self.ch.items()},
            None if self.lines is None else [(-sg, s) for sg, s in self.lines],
        )

    def dualize(self, cutoff: Optional[int] = None) -> "Summand":
        lines = None
        if self.lines is not None:
            if cutoff is None:
                raise ValueError("dualizing line data needs a filtration cutoff")
            lines = [(sg, _dual_line(s, cutoff)) for sg, s in self.lines]
        return Summand(
            self.rank,
            {k: p * ((-1) ** k) for k, p in self.ch.items()},
            lines,
        )

    def __repr__(self):
        """
        >>> Summand(1, {1: Poly.variable("c")}, [(1, Poly.variable("c"))])
        Summand(rank=1, ch={1: c}, lines=((1, c),))
        """
        return "Summand(rank=%r, ch=%r, lines=%r)" % (self.rank, self.ch, self.lines)

    def add(self, other: "Summand") -> "Summand":
        ch = dict(self.ch)
        for k, p in other.ch.items():
            ch[k] = ch.get(k, Poly()) + p
        lines = None
        if self.lines is not None and other.lines is not None:
            lines = list(self.lines) + list(other.lines)
        return Summand(self.rank + other.rank, ch, lines)


def _dual_line(s: Poly, cutoff: int) -> Poly:
    """(1+s)^{-1} - 1 modulo augmentation degree > cutoff."""
    out = Poly()
    power = Poly.const(1)
    for j in range(1, cutoff + 1):
        power = (power * s * (-1)).truncate_degree(cutoff)
        if power.is_zero():
            break
        out = out + power
    return out


class OrientationData:
    """An orientation: a sign, the int +1 or -1, read in a named
    convention, a string; anything else raises ValueError."""

    __slots__ = ("sign", "convention")

    def __init__(self, sign: int = 1, convention: str = "lex-first-positive"):
        if exact_int(sign, "an orientation sign") not in (1, -1):
            raise ValueError("orientation sign must be +1 or -1")
        if not isinstance(convention, str):
            raise ValueError("an orientation convention is a string, got %r" % (convention,))
        self.sign = sign
        self.convention = convention

    def __repr__(self):
        """
        >>> OrientationData(-1)
        OrientationData(sign=-1, convention='lex-first-positive')
        """
        return "OrientationData(sign=%r, convention=%r)" % (self.sign, self.convention)


class KClass:
    """A finite weight decomposition over a torus, with Chern-character data.

    The weight of a summand declares how it transforms under the torus
    action on the underlying space.  Identities that move classes around
    (the translation compatibilities in particular) only hold when the
    character data actually has that equivariance: generator characters of
    a unitary factor carry weight one, their duals weight minus one, tensor
    products add weights, and constants are the only weight-zero classes
    expressible in plain generators.  The normal classes built below satisfy
    this by construction; hand-made data should be assembled from
    tautological_summand, dualize and tensor_summand to stay consistent.

    ``varset`` is a `VarSet`, ``summands`` a mapping of integer weights to
    `Summand`s, ``zero_is_bundle`` a bool and ``orientation`` None or an
    `OrientationData`; anything else raises ValueError.

        >>> normal_bundle(ComponentLabel("BU_Z", (1, 1)), VarSet(("z1", "z2")), 3)
        KClass(('z1', 'z2'), depth=3, weights=[(-1, 1), (1, -1)])
    """

    __slots__ = ("varset", "summands", "depth", "zero_is_bundle", "orientation")

    def __init__(
        self,
        varset: VarSet,
        summands: Mapping[Sequence[int], Summand],
        depth: int,
        zero_is_bundle: bool = False,
        orientation: Optional[OrientationData] = None,
    ):
        if exact_int(depth, "depth") < 0:
            raise ValueError("negative character depth")
        if type(zero_is_bundle) is not bool:
            raise ValueError("zero_is_bundle must be a boolean, got %r" % (zero_is_bundle,))
        if orientation is not None and not isinstance(orientation, OrientationData):
            raise ValueError("an orientation is None or OrientationData, got %r" % (orientation,))
        if not isinstance(varset, VarSet):
            raise ValueError("the torus must be a VarSet, got %r" % (varset,))
        if not isinstance(summands, Mapping):
            raise ValueError("summands must be a mapping of weights, got %r" % (summands,))
        clean: Dict[Weight, Summand] = {}
        for w, s in summands.items():
            w = tuple(exact_int(c, "weight") for c in _sequence(w, "a weight"))
            if len(w) != len(varset):
                raise ValueError("weight length does not match the torus rank")
            if not isinstance(s, Summand):
                raise ValueError("a summand must be a Summand, got %r" % (s,))
            if not s.is_zero():
                clean[w] = s
        self.varset = varset
        self.summands = clean
        self.depth = depth
        self.zero_is_bundle = zero_is_bundle
        self.orientation = orientation

    def __repr__(self):
        return "KClass(%r, depth=%r, weights=%r)" % (self.varset.names, self.depth, self.weights())

    def weights(self) -> List[Weight]:
        return sorted(self.summands)

    def weight_zero(self) -> Summand:
        zero = (0,) * len(self.varset)
        return self.summands.get(zero, Summand(0))

    def negate(self) -> "KClass":
        return KClass(
            self.varset,
            {w: s.negate() for w, s in self.summands.items()},
            self.depth,
            False,
            self.orientation,
        )

    def add(self, other: "KClass") -> "KClass":
        if self.varset != other.varset:
            raise ValueError("torus mismatch in K-class addition")
        out = dict(self.summands)
        for w, s in other.summands.items():
            _merge(out, w, s)
        return KClass(
            self.varset,
            out,
            min(self.depth, other.depth),
            self.zero_is_bundle and other.zero_is_bundle,
            self.orientation,
        )

    def is_real(self) -> bool:
        """Whether the nonzero-weight part is its own dual, summand by summand."""
        for w, s in self.summands.items():
            if not any(w):
                continue
            mirror = self.summands.get(tuple(-c for c in w))
            if mirror is None or mirror.rank != s.rank:
                return False
            if s.dualize(self.depth).ch != mirror.ch:
                return False
        return True

    def pullback_weights(self, matrix: Sequence[Sequence[int]], target: VarSet) -> "KClass":
        """Reindex weights along an integer cocharacter map.

        Row j of the matrix is the image of the j-th new coordinate in the
        old ones; a weight w maps to w . matrix^T evaluated per new
        coordinate, i.e. new_weight[j] = sum_i matrix[j][i] * w[i].  A matrix
        that is not len(target) rows of one entry per old coordinate raises
        ValueError.
        """
        if len(matrix) != len(target) or any(len(row) != len(self.varset) for row in matrix):
            raise ValueError(
                "a weight map needs %d rows of %d entries" % (len(target), len(self.varset))
            )
        out: Dict[Weight, Summand] = {}
        for w, s in self.summands.items():
            _merge(out, tuple(sum(a * c for a, c in zip(row, w)) for row in matrix), s)
        return KClass(target, out, self.depth, self.zero_is_bundle, self.orientation)


def _merge(summands: Dict[Weight, Summand], w: Weight, s: Summand) -> None:
    """Add ``s`` into the summand of weight ``w``."""
    summands[w] = summands[w].add(s) if w in summands else s


# -- Chern class conversion ------------------------------------------------------


_T = VarSet(("t",), degrees=(1,))


def _ch_scale(i: int) -> int:
    """(-1)^(i-1) (i-1)!, the factor of t^i ch_i in the universal relation."""
    return (-1) ** (i - 1) * factorial(i - 1)


def chern_from_characters(ch: Mapping[int, Poly], depth: int) -> List[Poly]:
    """Chern classes c_0..c_depth from characters, by the universal relation
    c(t) = exp(sum_i (-1)^(i-1) (i-1)! ch_i t^i).  `series_exp` reads it
    degree by degree, which is Newton's identities: k c_k = sum_i
    (-1)^(i-1) i! ch_i c_(k-i), each class one short sum of products."""
    arg = {(i,): ch[i] * _ch_scale(i) for i in range(1, depth + 1) if i in ch}
    total = series_exp(TruncSeries(_T, depth, arg))
    return [total.terms.get((i,), Poly()) for i in range(depth + 1)]


def characters_from_chern(c: Sequence[Poly], depth: int) -> Dict[int, Poly]:
    """Inverse conversion; c[0] must equal 1."""
    if not c or Poly.const(1) != as_poly(c[0]):
        raise ValueError("a total Chern class starts with 1")
    u = TruncSeries(_T, depth, {(i,): p for i, p in enumerate(c[1 : depth + 1], 1)})
    # log(1 + u) = sum (-1)^(k-1) u^k / k, where u is the total class minus one
    log = _power_sum(u, [0] + [Fraction((-1) ** (k - 1), k) for k in range(1, depth + 1)])
    return {i: p * Fraction(1, _ch_scale(i)) for (i,), p in sorted(log.terms.items())}


# -- normal bundles of the sum maps ----------------------------------------------


def tautological_summand(component: ComponentLabel, factor, depth: int) -> Summand:
    """The universal class of one unitary factor, with generator characters.

    This is the basic weight-one building block; combine with dualize and
    tensor_summand for other weights.
    """
    ch = {k: Poly.variable(ch_name(k, factor)) for k in range(1, depth + 1)}
    return Summand(component.rank(factor), ch)


def _character_series(s: Summand, depth: int) -> TruncSeries:
    """rank + sum_k ch_k t^k over `_T`, to order ``depth``."""
    return TruncSeries(_T, depth, {(0,): s.rank, **{(k,): p for k, p in s.ch.items()}})


def tensor_summand(a: Summand, b: Summand, depth: int) -> Summand:
    """Tensor product of two summands at the character level: the product
    of their character series, ch_m = sum_k ch_k(a) ch_(m-k)(b) with the
    rank as ch_0."""
    ch = (_character_series(a, depth) * _character_series(b, depth)).terms
    return Summand(a.rank * b.rank, {k: p for (k,), p in ch.items() if k})


def _square(s: Summand, depth: int, symmetric: bool) -> Summand:
    """The exterior or symmetric square, via the squaring operation:
    ch_k of the square-power operation is 2^k ch_k."""
    sq = tensor_summand(s, s, depth).ch
    eps = 1 if symmetric else -1
    ch = {
        k: (sq.get(k, Poly()) + s.ch.get(k, Poly()) * (eps * 2 ** k)) * Fraction(1, 2)
        for k in range(1, depth + 1)
    }
    return Summand((s.rank * s.rank + eps * s.rank) // 2, ch)


def normal_bundle(component: ComponentLabel, varset: VarSet, depth: int) -> KClass:
    """Virtual normal class of the n-fold sum map on the unitary model.

    Minus the sum over ordered pairs i != j of (dual of factor i) tensor
    (factor j), placed at weight e_j - e_i.  The weight-0 part vanishes,
    which is the one structural condition the vertex construction needs.
    """
    if component.model != "BU_Z":
        raise ValueError("normal_bundle expects a unitary product component")
    n = len(component.index)
    if len(varset) != n:
        raise ValueError("need one torus coordinate per factor")
    taut = [tautological_summand(component, f, depth) for f in component.unitary_factors()]
    summands: Dict[Weight, Summand] = {}
    for i, vi in enumerate(taut):
        for j, vj in enumerate(taut):
            if i != j:
                w = tuple((k == j) - (k == i) for k in range(n))
                _merge(summands, w, tensor_summand(vi.dualize(), vj, depth).negate())
    return KClass(varset, summands, depth, zero_is_bundle=True)


def normal_bundle_module(component: ComponentLabel, varset: VarSet, depth: int) -> KClass:
    """Virtual normal class of the twisted sum map (x_1..x_n, y) -> y + sum x_i + x_i^dual
    on an orthogonal or symplectic model; symplectic models use symmetric
    squares where orthogonal ones use exterior squares."""
    if component.model not in ("BO_Z", "BSp_2Z"):
        raise ValueError("normal_bundle_module expects an orthosymplectic component")
    symmetric = component.model == "BSp_2Z"
    n = len(component.index) - 1
    if len(varset) != n:
        raise ValueError("need one torus coordinate per unitary factor")
    module = tautological_summand(component, component.factor_keys()[-1], depth)
    module = Summand(module.rank, {k: p for k, p in module.ch.items() if k % 2 == 0})
    parts = []  # (factor, weight, summand): each factor at e_i and its dual at -e_i
    for i, f in enumerate(component.unitary_factors()):
        v = tautological_summand(component, f, depth)
        for sign, part in ((1, v), (-1, v.dualize())):
            parts.append((i, tuple(sign * (k == i) for k in range(n)), part))
    summands: Dict[Weight, Summand] = {}
    for a, (i, w, part) in enumerate(parts):
        for j, u, other in parts[a + 1 :]:
            if i != j:
                pair = tuple(x + y for x, y in zip(w, u))
                _merge(summands, pair, tensor_summand(part, other, depth).negate())
        _merge(summands, w, tensor_summand(part, module, depth).negate())
        _merge(summands, tuple(2 * x for x in w), _square(part, depth, symmetric).negate())
    return KClass(varset, summands, depth, zero_is_bundle=True)


# -- equivariant Euler classes ----------------------------------------------------


def _euler_factor(varset: VarSet, w: Weight, s: Summand, depth: int) -> LocalizedSeries:
    """sum_i lambda(z)^(rank - i) c_i as a localized series."""
    c = chern_from_characters(s.ch, depth)
    # lambda^(rank - i) c_i, over lambda^(depth - rank) when rank < depth
    num = _power_sum(TruncSeries.linear(varset, w), [0] * (s.rank - depth) + c[::-1])
    if s.rank >= depth:
        return LocalizedSeries(num)
    form, sign, content = LinearForm.make_scaled(
        varset, {varset.names[i]: c for i, c in enumerate(w) if c}
    )
    mult = depth - s.rank
    scale = Fraction(1, (sign * content) ** mult)
    return LocalizedSeries(num.scale(scale), [(form, mult)]).cancel()


def _euler_product(E: KClass, const, weights: Sequence[Weight]) -> LocalizedSeries:
    """``const`` times the Euler factors of E's summands at ``weights``."""
    out = LocalizedSeries(TruncSeries.const(E.varset, const, INF))
    for w in weights:
        out = out * _euler_factor(E.varset, w, E.summands[w], E.depth)
    return out


def equivariant_euler(E: KClass) -> LocalizedSeries:
    """Equivariant Euler class of a K-class.

    The weight-0 part must vanish or be an honest bundle, whose top Chern
    class becomes the unlocalized factor.  The inverse of the Euler class
    of E is the Euler class of ``E.negate()``, which is defined exactly
    when E's weight-0 part vanishes.

    Coefficients are exact through cohomological degree 2*depth.  Chern
    classes above the depth are dropped, so capping the result against a
    class is only exact when the target's weighted degree stays within the
    depth; translating first raises that degree by one per coordinate
    power, which is why callers that translate pick
    depth >= (weighted degree) + (series order).
    """
    zero_part = E.weight_zero()
    top = 1
    if not zero_part.is_zero():
        if zero_part.rank < 0 or not E.zero_is_bundle:
            raise ValueError("weight-0 part must be an honest bundle class")
        top = chern_from_characters(zero_part.ch, zero_part.rank)[zero_part.rank]
    return _euler_product(E, top, [w for w in E.weights() if any(w)])


def sqrt_equivariant_euler(E: KClass, chamber: Optional[Sequence[int]] = None) -> LocalizedSeries:
    """Square-root Euler class of an oriented self-dual K-class.

    The result does not depend on the admissible chamber: the raw product
    over chamber-positive weights is corrected by (-1)^rank for every pair
    read oppositely to the reference (lexicographic) chamber.  A chamber
    is one int per torus coordinate; anything else raises ValueError.
    """
    if E.orientation is None:
        raise ValueError("square-root Euler classes need orientation data")
    if not E.weight_zero().is_zero():
        raise ValueError(
            "only classes with vanishing weight-0 part are supported here"
        )
    if not E.is_real():
        raise ValueError("square-root Euler classes need a self-dual class")
    if chamber is not None:
        chamber = [exact_int(c, "a chamber entry") for c in _sequence(chamber, "a chamber")]
        if len(chamber) != len(E.varset):
            raise ValueError("a chamber needs one entry per torus coordinate")
    sign = E.orientation.sign
    picked = []
    for w in E.weights():
        if chamber is None:
            positive = lex_positive(w)
        else:
            pairing = sum(c * x for c, x in zip(w, chamber))
            if pairing == 0:
                raise ValueError("chamber lies on the wall of weight %r" % (w,))
            positive = pairing > 0
        if not positive:
            continue
        if not lex_positive(w):
            # opposite reading of this dual pair relative to the reference
            if E.summands[w].rank % 2:
                sign = -sign
        picked.append(w)
    return _euler_product(E, sign, picked)


def cap_localized(x: LocalizedSeries, component: ComponentLabel) -> LocalizedSeries:
    """Contract mixed cohomology-and-homology coefficients by cap product;
    a coefficient that is a deferred ch x s product is capped from its
    factors (see `homology.contract_poly`).  The call caps nothing: the
    numerator is a `series.LazySeries`, which caps a coefficient when it
    is first read, so a sum or a comparison caps only its window's."""
    # capping keeps every exponent, so the result is in x's window
    num = LazySeries(x.num, lambda p, room: {(): contract_poly(p, component)})
    return _localized(num, x.den, x.blocks, x.block_bounds)


# -- serialization -----------------------------------------------------------------


def kclass_to_obj(E: KClass) -> dict:
    """JSON-ready description mirroring the weight decomposition."""
    summands = []
    for w in E.weights():
        s = E.summands[w]
        entry = {
            "weight": list(w),
            "rank": s.rank,
            "ch": [[k, poly_to_obj(p)] for k, p in sorted(s.ch.items())],
        }
        if s.lines is not None:
            entry["lines"] = [[sg, poly_to_obj(sv)] for sg, sv in s.lines]
        summands.append(entry)
    out = {
        "vars": list(E.varset.names),
        "degrees": list(E.varset.degrees),
        "depth": E.depth,
        "zero_is_bundle": E.zero_is_bundle,
        "summands": summands,
    }
    if E.orientation is not None:
        out["orientation"] = {
            "sign": E.orientation.sign,
            "convention": E.orientation.convention,
        }
    return out


def kclass_from_obj(obj: Mapping) -> KClass:
    """Read the form of `kclass_to_obj`; summands of one weight add, as
    `Summand.add` adds them.  An integer field that is not an int, a flag
    that is not a bool, a convention or a variable name that is not a
    string, a `vars`, `summands` or `weight` that is not a list, a `ch` or
    `lines` that is not a list of pairs, a summand that is not an object and
    a missing key raise ValueError."""
    varset = VarSet(json_list(obj, "vars"), json_field(obj, "degrees"))
    summands: Dict[Weight, Summand] = {}
    for entry in json_list(obj, "summands"):
        weight = tuple(exact_int(c, "weight") for c in json_list(entry, "weight"))
        ch = json_pairs(entry.get("ch", []), "ch")
        ch = {exact_int(k, "character index"): poly_from_obj(p) for k, p in ch}
        lines = entry.get("lines")
        if lines is not None:
            lines = [(sg, poly_from_obj(sv)) for sg, sv in json_pairs(lines, "lines")]
        _merge(summands, weight, Summand(json_field(entry, "rank"), ch, lines))
    ori = obj.get("orientation")
    if ori is not None:
        ori = OrientationData(json_field(ori, "sign"), ori.get("convention", "lex-first-positive"))
    zero_is_bundle = obj.get("zero_is_bundle", False)
    return KClass(varset, summands, json_field(obj, "depth"), zero_is_bundle, ori)
