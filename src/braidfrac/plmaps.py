"""Exact piecewise-linear interval maps and the realization order.

An expansion forest is realized as a PL homeomorphism by equal-width
subdivision: the i-th letter of the source word owns the unit interval
[i-1, i], and a node expanded by a rule of arity k maps the intervals of its
k children affinely onto k equal parts of the node's interval.  The realized
map sends [0, leaf count] onto [0, source length], and realization turns
grafting into composition, exactly.

A pair of forests (T, S) with equal source and equal leaf words therefore
realizes to a self-homeomorphism of [0, source length]: the T-realization
composed with the inverse of the S-realization.  `realize_pair` builds it
from matched leaf ends: the end of leaf i under S goes to the end of leaf i
under T.  `pl_compose` builds it as that composite and is the functoriality
reference.  Ordering such maps by their first deviation from the diagonal
gives a bi-order on the group of pairs: the positive maps are closed under
composition and under conjugation, since conjugation by an
orientation-preserving homeomorphism moves the deviation point but not the
side of the diagonal.

The order needs only that first deviation, and `realization_sign` reads it
off the forests without building a map.  The breakpoints of the pair map
sit at the leaf ends of the two subdivisions, and the leaf intervals of T
and S end at the same points up to the first node (left to right) that is
expanded in one forest only.  There the forest with the leaf ends its next
interval later, so the pair is positive iff that forest is T.
`realize_pair` and `pl_sign` build the exact map; they serve the `realize`
command and are the reference the direct sign is tested against.

All breakpoints are exact rationals; there are no tolerances anywhere in
this module.  ``PLMap(...)`` refuses a coordinate that is neither an
``int`` nor a ``Fraction`` and stores its breakpoints, and each point, as
tuples; `PLMap.from_points` converts its points through ``Fraction``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .drs import (
    ExpansionForest,
    ExpansionTree,
    SourceMismatchError,
    _check_roots,
    _set_field,
)
from .ordering import Sign

Point = tuple[Fraction, Fraction]


class PLMapError(ValueError):
    """Malformed PL map or incompatible composition."""


def _prune(points: list[Point]) -> tuple[Point, ...]:
    """Drop interior points lying on the segment through their neighbors."""
    if len(points) < 3:
        return tuple(points)
    pruned: list[Point] = [points[0]]
    for i in range(1, len(points) - 1):
        x0, y0 = pruned[-1]
        x1, y1 = points[i]
        x2, y2 = points[i + 1]
        if (y1 - y0) * (x2 - x1) == (y2 - y1) * (x1 - x0):
            continue
        pruned.append(points[i])
    pruned.append(points[-1])
    return tuple(pruned)


@dataclass(frozen=True, slots=True)
class PLMap:
    breakpoints: tuple[Point, ...]

    def __post_init__(self) -> None:
        bps = tuple(tuple(p) for p in self.breakpoints)
        _set_field(self, "breakpoints", bps)
        if len(bps) < 2:
            raise PLMapError("need at least two breakpoints")
        for p in bps:
            for v in p:
                if not isinstance(v, (int, Fraction)):
                    raise PLMapError(f"coordinate {v!r} is not an int or a Fraction")
        if bps[0] != (Fraction(0), Fraction(0)):
            raise PLMapError(f"first breakpoint must be (0,0), got {bps[0]}")
        for (x0, y0), (x1, y1) in zip(bps, bps[1:]):
            if not (x1 > x0 and y1 > y0):
                raise PLMapError("breakpoints must increase in both coordinates")
        xl, yl = bps[-1]
        if xl.denominator != 1 or yl.denominator != 1:
            raise PLMapError("endpoint lengths must be integers")

    @classmethod
    def from_points(cls, points: list[Point]) -> "PLMap":
        pts = [(Fraction(x), Fraction(y)) for x, y in points]
        return cls(_prune(pts))

    @property
    def domain_length(self) -> Fraction:
        return self.breakpoints[-1][0]

    @property
    def range_length(self) -> Fraction:
        return self.breakpoints[-1][1]

    def __call__(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        bps = self.breakpoints
        if not (0 <= x <= self.domain_length):
            raise PLMapError(f"{x} outside [0, {self.domain_length}]")
        xs = [p[0] for p in bps]
        i = bisect_right(xs, x) - 1
        if i == len(bps) - 1:
            return bps[-1][1]
        (x0, y0), (x1, y1) = bps[i], bps[i + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def inverse(self) -> "PLMap":
        return PLMap(tuple((y, x) for x, y in self.breakpoints))

    def is_identity(self) -> bool:
        # the constructor fixes the first breakpoint at (0, 0)
        return len(self.breakpoints) == 2 and self.domain_length == self.range_length

    def format_text(self) -> str:
        def frac(v: Fraction) -> str:
            return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"

        return " ".join(f"({frac(x)},{frac(y)})" for x, y in self.breakpoints)


def pl_compose(f: PLMap, g: PLMap) -> PLMap:
    """Exact composite x -> f(g(x))."""
    if g.range_length != f.domain_length:
        raise PLMapError(
            f"range {g.range_length} of inner map does not match domain "
            f"{f.domain_length} of outer map"
        )
    ginv = g.inverse()
    xs = {x for x, _ in g.breakpoints}
    xs.update(ginv(x) for x, _ in f.breakpoints)
    points = [(x, f(g(x))) for x in sorted(xs)]
    return PLMap.from_points(points)


def _leaf_ends(forest: ExpansionForest) -> list[Fraction]:
    """Right end of each leaf interval of the equal-width subdivision of
    [0, source length], left to right."""
    ends: list[Fraction] = []
    # an explicit stack of (node, interval), pushed right to left
    stack = [(t, Fraction(i), Fraction(i + 1)) for i, t in enumerate(forest.trees)]
    stack.reverse()
    while stack:
        tree, lo, hi = stack.pop()
        if not tree.children:
            ends.append(hi)
            continue
        width = (hi - lo) / len(tree.children)
        for i in range(len(tree.children) - 1, -1, -1):
            stack.append((tree.children[i], lo + width * i, lo + width * (i + 1)))
    return ends


def realize_forest(forest: ExpansionForest) -> PLMap:
    """PL map [0, leaf count] -> [0, source length] by nested equal-width
    subdivision."""
    return PLMap.from_points([(0, 0), *enumerate(_leaf_ends(forest), start=1)])


def _check_pair(t: ExpansionForest, s: ExpansionForest) -> None:
    """Refuse a pair that realizes no self-map: forests of two rewriting
    systems or with different roots (the shared root check,
    `drs._check_roots`), then different leaf words."""
    _check_roots(t, s)
    if t.leaves() != s.leaves():
        raise SourceMismatchError(
            f"leaf words differ: {t.leaves()} vs {s.leaves()}"
        )


def realize_pair(t: ExpansionForest, s: ExpansionForest) -> PLMap:
    """Self-homeomorphism of [0, source length] realizing the fraction with
    numerator forest t and denominator forest s: the end of leaf i under s
    goes to the end of leaf i under t.  pl_compose is the reference."""
    _check_pair(t, s)
    return PLMap.from_points([(0, 0), *zip(_leaf_ends(s), _leaf_ends(t))])


def pl_sign(f: PLMap) -> Sign:
    """First-deviation sign of a PL self-map: Positive iff f(t) > t just
    right of the first point where f leaves the diagonal."""
    if f.domain_length != f.range_length:
        raise PLMapError("sign is defined for self-maps only")
    for x, y in f.breakpoints:
        if y != x:
            return Sign.POSITIVE if y > x else Sign.NEGATIVE
    return Sign.ZERO


def realization_sign(t: ExpansionForest, s: ExpansionForest) -> Sign:
    """pl_sign(realize_pair(t, s)) without building the map: walk both
    forests left to right to the first node expanded in one of them only;
    the pair is positive iff t has the leaf there."""
    _check_pair(t, s)
    return _deviation_sign(t.trees, s.trees)


def _deviation_sign(
    t: tuple[ExpansionTree, ...], s: tuple[ExpansionTree, ...]
) -> Sign:
    """The walk of `realization_sign` over the trees of its two forests,
    without its check: the caller knows that they have the same roots and
    the same leaf word.  Equal trees are one object, so ``a is b`` skips
    every equal subtree without walking it."""
    stack = list(zip(reversed(t), reversed(s)))
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if a.children and b.children:
            stack.extend(zip(reversed(a.children), reversed(b.children)))
        elif a.children or b.children:
            return Sign.NEGATIVE if a.children else Sign.POSITIVE
    return Sign.ZERO
