"""Built-in rewriting systems and braided-Houghton generators.

Three stock families: the one-letter system x -> x^n whose plain fraction
group is the Higman-Thompson group F_n, the ray systems y_i -> y_i x whose
permutation fraction groups are the Houghton groups, and edge shifts of
finite directed graphs (alphabet = vertices, one rule per vertex listing the
endpoints of its out-edges in a fixed order).

The braided Houghton groups are generated inside the digital braid groupoid
by two kinds of elementary moves: a type-1 generator swaps an adjacent pair
consisting of an x and a ray letter, with the x strand passing over by
default; a type-2 generator braids a block of consecutive x strands between
two ray letters and leaves everything else alone.
"""

from __future__ import annotations

from .braids import BraidWord, DigitalBraid
from .drs import (
    DigitRewritingSystem,
    DrsError,
    DrsParseError,
    RewriteRule,
    Word,
    _content_lines,
)


def thompson_drs(n: int) -> DigitRewritingSystem:
    if n < 2:
        raise DrsError(f"arity must be >= 2, got {n}")
    return DigitRewritingSystem(
        ("x",), (RewriteRule("x", ("x",) * n),), base=("x",)
    )


def houghton_drs(n: int) -> DigitRewritingSystem:
    if n < 1:
        raise DrsError(f"ray count must be >= 1, got {n}")
    rays = tuple(f"y{i}" for i in range(1, n + 1))
    rules = tuple(RewriteRule(y, (y, "x")) for y in rays)
    return DigitRewritingSystem(("x",) + rays, rules, base=rays)


def edge_shift_drs(
    adjacency: list[tuple[str, list[str]]], base: Word = ()
) -> DigitRewritingSystem:
    """System of a directed graph: one rule per vertex of out-degree >= 2
    listing the terminal vertices of its out-edges in order."""
    vertices = tuple(v for v, _ in adjacency)
    rules = []
    for v, targets in adjacency:
        if len(targets) == 1:
            raise DrsError(
                f"vertex {v!r} has out-degree 1; only 0 or >= 2 supported"
            )
        if targets:
            rules.append(RewriteRule(v, tuple(targets)))
    return DigitRewritingSystem(vertices, tuple(rules), base)


def parse_edge_shift(text: str) -> DigitRewritingSystem:
    """Graph file: lines `v: w1 w2 ...` (out-edges of v, in order), optional
    `base: ...`, `#` comments."""
    adjacency: list[tuple[str, list[str]]] = []
    seen: set[str] = set()
    base: Word | None = None
    for lineno, line in _content_lines(text):
        if ":" not in line:
            raise DrsParseError(f"line {lineno}: expected 'vertex: targets'")
        head, _, tail = line.partition(":")
        head = head.strip()
        targets = tail.split()
        if head == "base":
            if base is not None:
                raise DrsParseError(f"line {lineno}: duplicate base line")
            base = tuple(targets)
            continue
        if head in seen:
            raise DrsParseError(f"line {lineno}: duplicate vertex {head!r}")
        seen.add(head)
        adjacency.append((head, targets))
    mentioned = {w for _, ts in adjacency for w in ts}
    missing = mentioned - seen
    if missing:
        raise DrsParseError(f"edges point to undeclared vertices: {sorted(missing)}")
    try:
        return edge_shift_drs(adjacency, base or ())
    except DrsError as exc:
        raise DrsParseError(str(exc)) from exc


# --- braided Houghton generators ---------------------------------------------

def bh_type1(context: Word, i: int, x_over: bool = True) -> DigitalBraid:
    """Single crossing swapping the letters at positions i and i+1, one of
    which must be `x`; the x strand passes over unless x_over is False."""
    n = len(context)
    if not 1 <= i <= n - 1:
        raise DrsError(f"position {i} out of range for a word of length {n}")
    a, b = context[i - 1], context[i]
    if (a == "x") == (b == "x"):
        raise DrsError(
            f"positions {i},{i + 1} hold {a!r},{b!r}; need exactly one 'x'"
        )
    sign = 1 if a == "x" else -1
    if not x_over:
        sign = -sign
    bottom = context[: i - 1] + (b, a) + context[i + 1 :]
    return DigitalBraid(context, bottom, BraidWord(n, (sign * i,)))


def bh_type2(context: Word, i: int, braid: BraidWord) -> DigitalBraid:
    """The given braid embedded on the block of equal letters at positions
    i .. i+k-1, identity elsewhere."""
    n = len(context)
    k = braid.strands
    if not 1 <= i <= n - k + 1:
        raise DrsError(f"block {i}..{i + k - 1} out of range for length {n}")
    block = context[i - 1 : i - 1 + k]
    if len(set(block)) > 1:
        raise DrsError(f"block letters must all be equal, got {block}")
    letters = tuple(
        (abs(d) + i - 1) * (1 if d > 0 else -1) for d in braid.letters
    )
    return DigitalBraid(context, context, BraidWord(n, letters))


_MAX_FAMILY_COUNT = 1000


def family_drs(name: str) -> DigitRewritingSystem:
    """Resolve `thompson:<n>` and `houghton:<n>` family names.  A count
    above 1000 is refused: it would only build a huge alphabet or rule."""
    family, colon, count = name.partition(":")
    make = {"thompson": thompson_drs, "houghton": houghton_drs}.get(family)
    if make is None or not colon:
        raise DrsError(f"unknown family {name!r}; known: thompson, houghton, edgeshift")
    try:
        n = int(count)
    except ValueError:
        raise DrsError(
            f"family {family!r} needs an integer after ':', got {count!r}"
        ) from None
    if n > _MAX_FAMILY_COUNT:
        raise DrsError(
            f"family {family!r} count must be at most {_MAX_FAMILY_COUNT}, got {n}"
        )
    return make(n)
