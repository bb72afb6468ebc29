"""Classical group data: ranks, dimensions, root systems, Weyl groups.

Only the four classical families enter: gl(n), so(odd), so(even), sp(2n).
Weyl groups act on the rank variables X_1..X_n by (possibly signed)
permutations and are enumerated explicitly, so coinvariant averaging is
exact but costs |W|; the configured rank bound keeps that feasible.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from typing import Iterator, List, Tuple

from .poly import Poly, exact_int

WEYL_RANK_BOUND = 5


class ClassicalGroup:
    """gl(n), so(n) or sp(2n), with its root datum on a rank-n torus."""

    __slots__ = ("kind", "n", "rank")

    def __init__(self, kind: str, n: int):
        exact_int(n, "n")
        if kind == "gl":
            if n < 1:
                raise ValueError("gl(n) needs n >= 1")
            rank = n
        elif kind == "so":
            if n < 2:
                raise ValueError("so(n) needs n >= 2")
            rank = n // 2
        elif kind == "sp":
            if n < 2 or n % 2:
                raise ValueError("sp(2n) needs an even argument >= 2")
            rank = n // 2
        else:
            raise ValueError("unknown classical group kind %r" % kind)
        self.kind = kind
        self.n = n
        self.rank = rank

    @staticmethod
    def parse(name: str) -> "ClassicalGroup":
        m = re.fullmatch(r"\s*(gl|so|sp)\s*\(\s*(\d+)\s*\)\s*", name.lower())
        if not m:
            raise ValueError("cannot parse group name %r" % name)
        return ClassicalGroup(m.group(1), int(m.group(2)))

    def __repr__(self):
        return "%s(%d)" % (self.kind, self.n)

    def __eq__(self, other):
        return (
            isinstance(other, ClassicalGroup)
            and self.kind == other.kind
            and self.n == other.n
        )

    def __hash__(self):
        return hash((self.kind, self.n))

    def dimension(self) -> int:
        if self.kind == "gl":
            return self.n * self.n
        if self.kind == "so":
            return self.n * (self.n - 1) // 2
        return self.rank * (2 * self.rank + 1)  # sp(2n)

    def family(self) -> str:
        if self.kind == "gl":
            return "A"
        if self.kind == "sp":
            return "C"
        return "B" if self.n % 2 else "D"

    # -- roots ------------------------------------------------------------

    def roots(self) -> List[Tuple[int, ...]]:
        r = self.rank
        out: List[Tuple[int, ...]] = []

        def vec(pairs):
            v = [0] * r
            for i, c in pairs:
                v[i] += c
            return tuple(v)

        for i in range(r):
            for j in range(r):
                if i != j:
                    out.append(vec([(i, 1), (j, -1)]))
        fam = self.family()
        if fam in ("B", "C", "D"):
            for i in range(r):
                for j in range(i + 1, r):
                    out.append(vec([(i, 1), (j, 1)]))
                    out.append(vec([(i, -1), (j, -1)]))
        if fam == "B":
            for i in range(r):
                out.append(vec([(i, 1)]))
                out.append(vec([(i, -1)]))
        if fam == "C":
            for i in range(r):
                out.append(vec([(i, 2)]))
                out.append(vec([(i, -2)]))
        return out

    def positive_roots_for(self, mu: Tuple[int, ...]) -> List[Tuple[int, ...]]:
        """Roots pairing strictly positively with the cocharacter mu."""
        out = []
        for alpha in self.roots():
            if sum(a * m for a, m in zip(alpha, mu)) > 0:
                out.append(alpha)
        return out

    def centralizer_roots(self, mu: Tuple[int, ...]) -> List[Tuple[int, ...]]:
        return [
            alpha
            for alpha in self.roots()
            if sum(a * m for a, m in zip(alpha, mu)) == 0
        ]

    # -- Weyl group ----------------------------------------------------------

    def weyl_elements(self) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """Yield (permutation, signs): X_i -> signs[i] * X_{perm[i]}."""
        r = self.rank
        fam = self.family()
        for perm in itertools.permutations(range(r)):
            if fam == "A":
                yield perm, (1,) * r
                continue
            for signs in itertools.product((1, -1), repeat=r):
                if fam == "D" and signs.count(-1) % 2:
                    continue
                yield perm, signs

    def weyl_order(self) -> int:
        import math

        r = self.rank
        fam = self.family()
        if fam == "A":
            return math.factorial(r)
        if fam == "D":
            return math.factorial(r) * 2 ** max(r - 1, 0)
        return math.factorial(r) * 2 ** r


def weyl_average(poly: Poly, group: ClassicalGroup, var_prefix: str = "X") -> Poly:
    """Exact average of a polynomial in X_1..X_rank over the Weyl group."""
    if group.rank > WEYL_RANK_BOUND:
        raise ValueError(
            "rank %d exceeds the coinvariant averaging bound %d"
            % (group.rank, WEYL_RANK_BOUND)
        )
    r = group.rank
    names = ["%s%d" % (var_prefix, i + 1) for i in range(r)]
    total = Poly()
    count = 0
    for perm, signs in group.weyl_elements():
        mapping = {
            names[i]: Poly.variable(names[perm[i]]) * signs[i] for i in range(r)
        }
        total = total + poly.substitute(mapping)
        count += 1
    return total * Fraction(1, count)
