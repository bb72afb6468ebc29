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
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .homology import ComponentLabel, ch_name, contract_poly
from .poly import Poly, poly_from_obj, poly_to_obj
from .series import (
    INF,
    LinearForm,
    LocalizedSeries,
    TruncSeries,
    VarSet,
    series_exp,
)

Weight = Tuple[int, ...]


def _weight_key(w: Sequence[int]) -> Weight:
    return tuple(int(c) for c in w)


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
    the multiplicative operations require it.
    """

    __slots__ = ("rank", "ch", "lines")

    def __init__(
        self,
        rank: int,
        ch: Mapping[int, Poly] = None,
        lines: Optional[Sequence[Tuple[int, Poly]]] = None,
    ):
        clean: Dict[int, Poly] = {}
        if ch:
            for k, p in ch.items():
                if k < 1:
                    raise ValueError("characters are indexed from 1")
                if not isinstance(p, Poly):
                    p = Poly.const(p)
                if not p.is_zero():
                    clean[int(k)] = p
        self.rank = int(rank)
        self.ch = clean
        if lines is not None:
            lines = tuple((int(sg), s) for sg, s in lines)
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
    __slots__ = ("sign", "convention")

    def __init__(self, sign: int = 1, convention: str = "lex-first-positive"):
        if sign not in (1, -1):
            raise ValueError("orientation sign must be +1 or -1")
        self.sign = sign
        self.convention = convention

    def opposite(self) -> "OrientationData":
        return OrientationData(-self.sign, self.convention)


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
        if depth < 0:
            raise ValueError("negative character depth")
        clean: Dict[Weight, Summand] = {}
        for w, s in summands.items():
            w = _weight_key(w)
            if len(w) != len(varset):
                raise ValueError("weight length does not match the torus rank")
            if not s.is_zero():
                clean[w] = s
        self.varset = varset
        self.summands = clean
        self.depth = depth
        self.zero_is_bundle = zero_is_bundle
        self.orientation = orientation

    @staticmethod
    def zero(varset: VarSet, depth: int) -> "KClass":
        return KClass(varset, {}, depth)

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

    def dual(self) -> "KClass":
        return KClass(
            self.varset,
            {
                tuple(-c for c in w): s.dualize(self.depth)
                for w, s in self.summands.items()
            },
            self.depth,
            self.zero_is_bundle,
            self.orientation,
        )

    def add(self, other: "KClass") -> "KClass":
        if self.varset != other.varset:
            raise ValueError("torus mismatch in K-class addition")
        out = dict(self.summands)
        for w, s in other.summands.items():
            out[w] = out[w].add(s) if w in out else s
        return KClass(
            self.varset,
            out,
            min(self.depth, other.depth),
            self.zero_is_bundle and other.zero_is_bundle,
            self.orientation,
        )

    def opposite(self) -> "KClass":
        ori = self.orientation or OrientationData()
        return KClass(
            self.varset, self.summands, self.depth, self.zero_is_bundle, ori.opposite()
        )

    def is_real(self) -> bool:
        """Whether the nonzero-weight part is its own dual, summand by summand."""
        for w, s in self.summands.items():
            if not any(w):
                continue
            mirror = self.summands.get(tuple(-c for c in w))
            if mirror is None or mirror.rank != s.rank:
                return False
            dual = s.dualize(self.depth)
            if set(dual.ch) != set(mirror.ch):
                return False
            for k, p in dual.ch.items():
                if mirror.ch.get(k, Poly()) != p:
                    return False
        return True

    def pullback_weights(self, matrix: Sequence[Sequence[int]], target: VarSet) -> "KClass":
        """Reindex weights along an integer cocharacter map.

        Row j of the matrix is the image of the j-th new coordinate in the
        old ones; a weight w maps to w . matrix^T evaluated per new
        coordinate, i.e. new_weight[j] = sum_i matrix[j][i] * w[i].
        """
        out: Dict[Weight, Summand] = {}
        for w, s in self.summands.items():
            nw = tuple(
                sum(matrix[j][i] * w[i] for i in range(len(w)))
                for j in range(len(target))
            )
            out[nw] = out[nw].add(s) if nw in out else s
        return KClass(target, out, self.depth, self.zero_is_bundle, self.orientation)


# -- Chern class conversion ------------------------------------------------------


_T = VarSet(("t",), degrees=(1,))


def chern_from_characters(ch: Mapping[int, Poly], depth: int) -> List[Poly]:
    """Chern classes c_0..c_depth from characters, by the universal relation."""
    arg = {}
    sign = 1
    fact = 1
    for i in range(1, depth + 1):
        p = ch.get(i)
        if p is not None and not p.is_zero():
            arg[(i,)] = p * Fraction(sign * fact)
        sign = -sign
        fact *= i
    total = series_exp(TruncSeries(_T, depth, arg))
    out = []
    for i in range(depth + 1):
        c = total.terms.get((i,), Fraction(0))
        out.append(c if isinstance(c, Poly) else Poly.const(c))
    return out


def characters_from_chern(c: Sequence[Poly], depth: int) -> Dict[int, Poly]:
    """Inverse conversion; c[0] must equal 1."""
    if not c or Poly.const(1) != (c[0] if isinstance(c[0], Poly) else Poly.const(c[0])):
        raise ValueError("a total Chern class starts with 1")
    terms = {}
    for i, p in enumerate(c[: depth + 1]):
        if i == 0:
            continue
        if not isinstance(p, Poly):
            p = Poly.const(p)
        if not p.is_zero():
            terms[(i,)] = p
    u = TruncSeries(_T, depth, terms)  # total class minus one
    # log(1 + u) = sum (-1)^(k-1) u^k / k
    log = TruncSeries.zero(_T, depth)
    power = TruncSeries.const(_T, 1, depth)
    for k in range(1, depth + 1):
        power = power * u
        if power.is_zero():
            break
        log = log + power.scale(Fraction((-1) ** (k - 1), k))
    out: Dict[int, Poly] = {}
    sign = 1
    fact = 1
    for i in range(1, depth + 1):
        p = log.terms.get((i,))
        if p is not None:
            if not isinstance(p, Poly):
                p = Poly.const(p)
            q = p * Fraction(1, sign * fact)
            if not q.is_zero():
                out[i] = q
        sign = -sign
        fact *= i
    return out


def line_summand(c1: Poly, depth: int, rank_sign: int = 1) -> Summand:
    """The summand of a single line with first character c1 (or minus one)."""
    ch = {}
    acc = Poly.const(1)
    fact = 1
    for k in range(1, depth + 1):
        acc = acc * c1
        fact *= k
        ch[k] = acc * Fraction(rank_sign, fact)
    return Summand(rank_sign, ch)


# -- normal bundles of the sum maps ----------------------------------------------


def _character_product(
    a: Mapping[int, Poly], ra: int, b: Mapping[int, Poly], rb: int, depth: int
) -> Dict[int, Poly]:
    """Characters of a tensor product from the factors' characters."""
    out: Dict[int, Poly] = {}
    for m in range(1, depth + 1):
        total = Poly()
        for k in range(m + 1):
            left = Poly.const(ra) if k == 0 else a.get(k, Poly())
            right = Poly.const(rb) if m == k else b.get(m - k, Poly())
            if left.is_zero() or right.is_zero():
                continue
            total = total + left * right
        if not total.is_zero():
            out[m] = total
    return out


def _character_dual(ch: Mapping[int, Poly]) -> Dict[int, Poly]:
    return {k: p * ((-1) ** k) for k, p in ch.items()}


def _tautological(component: ComponentLabel, factor, depth: int) -> Tuple[int, Dict[int, Poly]]:
    rank = component.rank(factor)
    ch = {k: Poly.variable(ch_name(k, factor)) for k in range(1, depth + 1)}
    return rank, ch


def tautological_summand(component: ComponentLabel, factor, depth: int) -> Summand:
    """The universal class of one unitary factor, with generator characters.

    This is the basic weight-one building block; combine with dualize and
    tensor_summand for other weights.
    """
    rank, ch = _tautological(component, factor, depth)
    return Summand(rank, ch)


def tensor_summand(a: Summand, b: Summand, depth: int) -> Summand:
    """Tensor product of two summands at the character level."""
    return Summand(a.rank * b.rank, _character_product(a.ch, a.rank, b.ch, b.rank, depth))


def _wedge_or_sym_square(
    rank: int, ch: Mapping[int, Poly], depth: int, symmetric: bool
) -> Tuple[int, Dict[int, Poly]]:
    """Characters of the exterior or symmetric square, via the squaring
    operation: ch_k of the square-power operation is 2^k ch_k."""
    sq = _character_product(ch, rank, ch, rank, depth)
    eps = 1 if symmetric else -1
    out: Dict[int, Poly] = {}
    for k in range(1, depth + 1):
        p = sq.get(k, Poly()) + ch.get(k, Poly()) * (eps * 2 ** k)
        p = p * Fraction(1, 2)
        if not p.is_zero():
            out[k] = p
    r2 = (rank * rank + eps * rank) // 2
    return r2, out


def _accumulate(
    summands: Dict[Weight, Summand], weight: Weight, rank: int, ch: Mapping[int, Poly], sign: int
):
    s = Summand(sign * rank, {k: p * sign for k, p in ch.items()})
    if s.is_zero():
        return
    summands[weight] = summands[weight].add(s) if weight in summands else s


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
    summands: Dict[Weight, Summand] = {}
    if n == 1:
        return KClass(varset, summands, depth, zero_is_bundle=True)
    for i in range(1, n + 1):
        ri, chi = _tautological(component, i, depth)
        for j in range(1, n + 1):
            if i == j:
                continue
            rj, chj = _tautological(component, j, depth)
            rank = ri * rj
            ch = _character_product(_character_dual(chi), ri, chj, rj, depth)
            weight = tuple(
                (1 if k == j else 0) - (1 if k == i else 0) for k in range(1, n + 1)
            )
            _accumulate(summands, weight, rank, ch, -1)
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
    summands: Dict[Weight, Summand] = {}
    if n == 0:
        return KClass(varset, summands, depth, zero_is_bundle=True)

    def unit_weight(i, c):
        return tuple(c if k == i else 0 for k in range(1, n + 1))

    taut = {i: _tautological(component, i, depth) for i in range(1, n + 1)}
    r0, ch0 = _tautological(component, 0, depth)
    ch0 = {k: p for k, p in ch0.items() if k % 2 == 0}  # odd characters vanish
    for i in range(1, n + 1):
        ri, chi = taut[i]
        for j in range(i + 1, n + 1):
            rj, chj = taut[j]
            for si in (1, -1):
                for sj in (1, -1):
                    li = chi if si == 1 else _character_dual(chi)
                    lj = chj if sj == 1 else _character_dual(chj)
                    w = tuple(
                        (si if k == i else 0) + (sj if k == j else 0)
                        for k in range(1, n + 1)
                    )
                    _accumulate(
                        summands, w, ri * rj, _character_product(li, ri, lj, rj, depth), -1
                    )
        for si in (1, -1):
            li = chi if si == 1 else _character_dual(chi)
            _accumulate(
                summands,
                unit_weight(i, si),
                ri * r0,
                _character_product(li, ri, ch0, r0, depth),
                -1,
            )
            rsq, chsq = _wedge_or_sym_square(
                ri, li, depth, symmetric
            )
            _accumulate(summands, unit_weight(i, 2 * si), rsq, chsq, -1)
    return KClass(varset, summands, depth, zero_is_bundle=True)


# -- equivariant Euler classes ----------------------------------------------------


def _weight_series(varset: VarSet, w: Weight) -> TruncSeries:
    terms = {}
    for i, c in enumerate(w):
        if c:
            e = [0] * len(varset)
            e[i] = 1
            terms[tuple(e)] = Fraction(c)
    return TruncSeries(varset, INF, terms)


def _euler_factor(
    varset: VarSet, w: Weight, s: Summand, depth: int, blocks
) -> LocalizedSeries:
    """sum_i lambda(z)^(rank - i) c_i as a localized series."""
    c = chern_from_characters(s.ch, depth)
    lam = _weight_series(varset, w)
    num = TruncSeries.zero(varset, INF)
    power = TruncSeries.const(varset, 1, INF)
    powers = [power]
    for _ in range(depth):
        power = power * lam
        powers.append(power)
    for i in range(depth + 1):
        ci = c[i]
        if ci.is_zero():
            continue
        num = num + powers[depth - i].scale(ci)
    if s.rank >= depth:
        for _ in range(s.rank - depth):
            num = num * lam
        return LocalizedSeries(num, (), blocks)
    form, sign, content = LinearForm.make_scaled(
        varset, {varset.names[i]: c for i, c in enumerate(w) if c}
    )
    mult = depth - s.rank
    scale = Fraction(1, (sign * content) ** mult)
    return LocalizedSeries(num.scale(scale), [(form, mult)], blocks).cancel()


def equivariant_euler(
    E: KClass,
    invert: bool = False,
    depth: Optional[int] = None,
    blocks=None,
) -> LocalizedSeries:
    """Equivariant Euler class (or its inverse) of a K-class.

    Inversion flips the class; it is only allowed when the weight-0 part
    vanishes, which is also what makes the result well defined.  Without
    inversion the weight-0 part must be an honest bundle, whose top Chern
    class becomes the unlocalized factor.

    Coefficients are exact through cohomological degree 2*depth.  Chern
    classes above the depth are dropped, so capping the result against a
    class is only exact when the target's weighted degree stays within the
    depth; translating first raises that degree by one per coordinate
    power, which is why callers that translate pick
    depth >= (weighted degree) + (series order).
    """
    if depth is None:
        depth = E.depth
    if invert:
        if not E.weight_zero().is_zero():
            raise ValueError("inversion needs a vanishing weight-0 part")
        E = E.negate()
    zero_part = E.weight_zero()
    if not zero_part.is_zero():
        if zero_part.rank < 0 or not E.zero_is_bundle:
            raise ValueError("weight-0 part must be an honest bundle class")
        top = chern_from_characters(zero_part.ch, zero_part.rank)[zero_part.rank]
        out = LocalizedSeries(TruncSeries.const(E.varset, top, INF), (), blocks)
    else:
        out = LocalizedSeries(TruncSeries.const(E.varset, 1, INF), (), blocks)
    for w in E.weights():
        if not any(w):
            continue
        out = out * _euler_factor(E.varset, w, E.summands[w], depth, blocks)
    return out


def sqrt_equivariant_euler(
    E: KClass,
    chamber: Optional[Sequence[int]] = None,
    depth: Optional[int] = None,
    blocks=None,
) -> LocalizedSeries:
    """Square-root Euler class of an oriented self-dual K-class.

    The result does not depend on the admissible chamber: the raw product
    over chamber-positive weights is corrected by (-1)^rank for every pair
    read oppositely to the reference (lexicographic) chamber.
    """
    if E.orientation is None:
        raise ValueError("square-root Euler classes need orientation data")
    if not E.weight_zero().is_zero():
        raise ValueError(
            "only classes with vanishing weight-0 part are supported here"
        )
    if not E.is_real():
        raise ValueError("square-root Euler classes need a self-dual class")
    if depth is None:
        depth = E.depth
    sign = E.orientation.sign
    out = LocalizedSeries(TruncSeries.const(E.varset, 1, INF), (), blocks)
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
        out = out * _euler_factor(E.varset, w, E.summands[w], depth, blocks)
    return out * Fraction(sign)


def truncate_coefficients(
    x: LocalizedSeries, bound: int, weights: Mapping[str, int]
) -> LocalizedSeries:
    """Drop coefficient terms of weighted degree above the bound."""
    return x.map_coefficients(
        lambda p: p.truncate_degree(bound, weights) if isinstance(p, Poly) else p
    )


def cap_localized(x: LocalizedSeries, component: ComponentLabel) -> LocalizedSeries:
    """Contract mixed cohomology-and-homology coefficients by cap product."""

    def f(p):
        return contract_poly(p, component) if isinstance(p, Poly) else p

    return x.map_coefficients(f)


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
    varset = VarSet(tuple(obj["vars"]), degrees=tuple(obj["degrees"]))
    summands: Dict[Weight, Summand] = {}
    for entry in obj["summands"]:
        ch = {int(k): poly_from_obj(p) for k, p in entry.get("ch", [])}
        lines = entry.get("lines")
        if lines is not None:
            lines = [(int(sg), poly_from_obj(sv)) for sg, sv in lines]
        summands[tuple(entry["weight"])] = Summand(entry["rank"], ch, lines)
    ori = obj.get("orientation")
    if ori is not None:
        ori = OrientationData(ori["sign"], ori.get("convention", "lex-first-positive"))
    return KClass(
        varset,
        summands,
        obj["depth"],
        bool(obj.get("zero_is_bundle", False)),
        ori,
    )
