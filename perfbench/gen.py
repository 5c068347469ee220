"""Seeded input generator for the benchmark.

The generator owns its own copy of each rewriting system's rules and grows
forests by simulating leaf words, so it never calls into ``braidfrac``.  It
emits only text and integers: element literals
``frac T=[steps] B=[braid word] S=[steps]``, step lists and braid words.  A
change to the library's own random generator therefore cannot change the
benchmark's traffic.

`ACCEPTANCE` sizes follow the acceptance settings: each piece has at most
six expansion steps and at most twelve random braid letters (plus the
letters that steer strands back to equal labels, as the acceptance
generator does), and an element is a product of one to three pieces.

Draws are stratified: `Sampler.randint` deals each value of a range once,
in shuffled order, before dealing any value again.  The values stay
uniformly distributed, but every stretch of a corpus gets nearly the same
mix of sizes, so the corpus's total cost varies far less between seeds than
with independent draws (operation cost grows steeply with size).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

PLAIN_PIECE_SHARE = 0.25


@dataclass(frozen=True)
class Sizes:
    pieces: int  # an element is a product of 1..pieces pieces
    steps: int  # expansion steps per forest: 0..steps
    letters: int  # random braid letters per piece: 0..letters


ACCEPTANCE = Sizes(pieces=3, steps=6, letters=12)

# name -> (base word, rules); these mirror the systems the benchmark builds
# with ``braidfrac.families`` and are checked against them at set-up.
SYSTEMS: dict[str, tuple[tuple[str, ...], dict[str, tuple[str, ...]]]] = {
    "thompson:2": (("x",), {"x": ("x", "x")}),
    "thompson:3": (("x",), {"x": ("x", "x", "x")}),
    "houghton:3": (
        ("y1", "y2", "y3"),
        {"y1": ("y1", "x"), "y2": ("y2", "x"), "y3": ("y3", "x")},
    ),
    "edgeshift:ab": (("a",), {"a": ("a", "b"), "b": ("b", "a")}),
}

EDGE_SHIFT_TEXT = "a: a b\nb: b a\nbase: a\n"


class Sampler:
    """Stratified draws from a seeded `random.Random`."""

    def __init__(self, seed: str) -> None:
        self.rng = random.Random(seed)
        self._decks: dict[tuple[int, int], list[int]] = {}

    def randint(self, lo: int, hi: int) -> int:
        deck = self._decks.setdefault((lo, hi), [])
        if not deck:
            deck.extend(range(lo, hi + 1))
            self.rng.shuffle(deck)
        return deck.pop()

    def chance(self, share: float) -> bool:
        """True for `share` of the draws (share a multiple of 1/100)."""
        return self.randint(0, 99) < round(share * 100)

    def sign(self) -> int:
        return 1 if self.randint(0, 1) else -1

    def pick(self) -> int:
        return self.rng.randrange(1 << 30)

    def shuffle(self, items: list) -> None:
        self.rng.shuffle(items)


def grow(
    system: str, word: tuple[str, ...], picks: list[int]
) -> tuple[list[int], tuple[str, ...]]:
    """Step list and leaf word reached from `word` by expanding, for each
    pick, the (pick mod count)-th expandable leaf."""
    rules = SYSTEMS[system][1]
    leaves = list(word)
    steps: list[int] = []
    for pick in picks:
        positions = [p for p, a in enumerate(leaves, start=1) if a in rules]
        if not positions:
            break
        p = positions[pick % len(positions)]
        leaves[p - 1 : p] = rules[leaves[p - 1]]
        steps.append(p)
    return steps, tuple(leaves)


def _picks(rng: Sampler, count: int) -> list[int]:
    return [rng.pick() for _ in range(count)]


def _fmt(seq: list[int]) -> str:
    return " ".join(str(v) for v in seq)


def _literal(t: list[int], braid: list[int], s: list[int]) -> str:
    return f"frac T=[{_fmt(t)}] B=[{_fmt(braid)}] S=[{_fmt(s)}]"


def _braid_word(
    rng: Sampler, leaves: tuple[str, ...], pure: bool, max_letters: int
) -> list[int]:
    """Random letters, then adjacent swaps steering every strand to a
    position with its own label (its own position when `pure`)."""
    n = len(leaves)
    if n < 2:
        return []
    letters = [
        rng.randint(1, n - 1) * rng.sign()
        for _ in range(rng.randint(0, max_letters))
    ]
    arr = list(range(n))  # arr[p] = top position of the strand now at p
    for d in letters:
        k = abs(d)
        arr[k - 1], arr[k] = arr[k], arr[k - 1]
    target = list(range(n))
    if not pure:
        by_label: dict[str, list[int]] = {}
        for i, a in enumerate(leaves):
            by_label.setdefault(a, []).append(i)
        for positions in by_label.values():
            strands = positions[:]
            rng.shuffle(strands)
            for p, i in zip(positions, strands):
                target[p] = i
    for p in range(n):
        if arr[p] == target[p]:
            continue
        q = arr.index(target[p], p + 1)
        for r in range(q, p, -1):
            arr[r - 1], arr[r] = arr[r], arr[r - 1]
            letters.append(r * rng.sign())
    out: list[int] = []
    for d in letters:
        if out and out[-1] == -d:
            out.pop()
        else:
            out.append(d)
    return out


def braid_piece(rng: Sampler, system: str, pure: bool, sizes: Sizes) -> str:
    base = SYSTEMS[system][0]
    steps, leaves = grow(system, base, _picks(rng, rng.randint(0, sizes.steps)))
    return _literal(steps, _braid_word(rng, leaves, pure, sizes.letters), steps)


def plain_piece(rng: Sampler, system: str, sizes: Sizes) -> str:
    """Two forests with equal leaf words (the second falls back to the
    first when 64 draws find no other match)."""
    base = SYSTEMS[system][0]
    count = rng.randint(0, sizes.steps)
    t, leaves = grow(system, base, _picks(rng, count))
    s = t
    for _ in range(64):
        cand, cand_leaves = grow(system, base, _picks(rng, count))
        if cand_leaves == leaves:
            s = cand
            break
    return _literal(t, [], s)


def element(rng: Sampler, system: str, flavor: str, sizes: Sizes) -> list[str]:
    """Piece literals whose product is one element of the given flavor."""
    pieces = []
    for _ in range(rng.randint(1, sizes.pieces)):
        if flavor == "plain" or rng.chance(PLAIN_PIECE_SHARE):
            pieces.append(plain_piece(rng, system, sizes))
        else:
            pieces.append(braid_piece(rng, system, flavor == "pure", sizes))
    return pieces


def padding_picks(rng: Sampler, sizes: Sizes) -> list[int]:
    """Choices for a padding forest; resolved with `grow` against the
    bottom word of the braid being padded."""
    return _picks(rng, rng.randint(1, sizes.steps))
