"""Braid words, digital braids, handle reduction and cabling.

Braid words are sequences of signed Artin generator indices: ``+i`` is a
positive crossing of the strands at positions i and i+1 (the strand at
position i passes over), ``-i`` the inverse.  Diagrams read top to bottom.

A *digital braid* decorates the strand endpoints with letters of a digit
rewriting system; strands must join equal letters.  Digital braids form a
groupoid under stacking, and expansion forests act on them by cabling: a
strand ending at a bottom position whose tree has k leaves is replaced by k
parallel strands, each crossing becoming the block crossing of the two
cables.  The cabling loop lives in `_cable`, which takes the trees at one
end of the braid, reads the cable widths off their `leaf_count` and
carries the trees along the strands to the other end in the same walk; a
crossing of two single strands gives one letter, and a block with one
single strand (`_block_letters`) is a `range`, which extends the output
without a per-letter loop in Python;
`act_bottom` and the product of fractions walk up from the bottom, and
neither computes the strand permutation.  An empty word comes back at
once with the trees it was given, so the braid on the empty word (one
strand, no letters; only `DigitalBraid` and `act_bottom` know its strand
count) needs no special case.  Its inverse, `delete_strand`,
sits next to it: deleting w-1 strands of a w-strand cable gives back the
braid before cabling.  `fraction.normalize` uses both, and the pure order
deletes strands to reach each level.

Two independent decision procedures for the braid word problem live here.
The lamination action tracks integral (Dynnikov) coordinates of a curve
system punctured by the strands, in one pass over the word with no budget:
a braid is trivial iff it fixes the initial coordinates, and the first
coordinate that moves gives the Dehornoy sign.  One function reads that
sign off the coordinates (`_dynnikov_sign`), and `lamination_sign` calls
it only after `_definite_sign`: a sigma-definite word (the least index
occurs with one sign only, or the word is empty) has the sign of that
index by Dehornoy's Property A, read off the word with no pass at all;
only the other words pay the lamination pass.  `lamination_trivial` is
`lamination_sign` being ZERO.  They decide the braided sign and identity
for the fraction groups.  Handle
reduction repeatedly removes the leftmost-closing handle (a subword
sigma_i^e u sigma_i^{-e} where u avoids generators i and i-1) and
terminates in a word where the least occurring index shows a single sign;
that sign is the Dehornoy sign, and the empty output characterizes the
trivial braid (P. Dehornoy, "A fast method for comparing braids", Adv.
Math. 125 (1997)).  It runs as one resumable pass over a stack (`_reduce`)
and is kept as the independent oracle that tests and the verification
suites play against the lamination.  `handle_reduce` runs it to the end;
`dehornoy_sign` stops it as soon as the least index present has a single
sign, since no later rewrite changes the letters of that index (the proof
is in its docstring).  The step budget bounds the rewrites made: all of
them for `handle_reduce`, those made before the sign is settled for
`dehornoy_sign`.

Validation happens at the trust boundary: ``BraidWord(...)`` checks its
strand count and generator indices, which must be ints and not bools, and
``DigitalBraid(...)`` its labels against the strand permutation, and
`BraidWord.parse` goes through the former; both store their sequence
fields as tuples.  Inverses,
products, `handle_reduce` results, composites and both outputs of
`act_bottom` are derived from values already checked and are built without
re-validation, by `_braid_word` and `_digital_braid` (and `drs._forest`),
the positional constructors that `drs._constructor` makes for each class;
so is the random braid of ``fraction``, whose strands join equal letters
by construction.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

from .drs import ExpansionForest, ExpansionTree, SourceMismatchError, Word
from .drs import _constructor, _forest, _set_field
from .ordering import LimitExceeded, Sign

DEFAULT_STEP_BUDGET = 10**6


class BraidError(ValueError):
    """Base class for braid-level errors."""


class LabelMismatchError(BraidError):
    """Digital braid endpoints carry non-matching letters."""


class StepBudgetExceeded(LimitExceeded):
    """Handle reduction exceeded its rewrite budget."""


def free_reduce(letters: Sequence[int]) -> tuple[int, ...]:
    out: list[int] = []
    for d in letters:
        if out and out[-1] == -d:
            out.pop()
        else:
            out.append(d)
    return tuple(out)


@dataclass(frozen=True, slots=True)
class BraidWord:
    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _set_field(self, "letters", tuple(self.letters))
        if not isinstance(self.strands, int) or isinstance(self.strands, bool):
            raise BraidError(f"strand count {self.strands!r} is not an int")
        if self.strands < 1:
            raise BraidError(f"strand count must be >= 1, got {self.strands}")
        for d in self.letters:
            if not isinstance(d, int) or isinstance(d, bool):
                raise BraidError(f"generator index {d!r} is not an int")
            if d == 0 or not 1 <= abs(d) <= self.strands - 1:
                raise BraidError(
                    f"generator index {d} out of range for {self.strands} strands"
                )

    def inverse(self) -> "BraidWord":
        return _braid_word(self.strands, tuple(-d for d in reversed(self.letters)))

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise BraidError("strand count mismatch")
        return _braid_word(self.strands, free_reduce(self.letters + other.letters))

    def permutation(self) -> tuple[int, ...]:
        """images[i-1] = bottom position reached by the strand starting at
        top position i."""
        # arr[p-1] = strand (top position) currently at position p
        arr = list(range(1, self.strands + 1))
        for d in self.letters:
            k = abs(d)
            arr[k - 1], arr[k] = arr[k], arr[k - 1]
        images = [0] * self.strands
        for p, i in enumerate(arr, start=1):
            images[i - 1] = p
        return tuple(images)

    def is_pure(self) -> bool:
        return self.permutation() == tuple(range(1, self.strands + 1))

    @classmethod
    def parse(cls, strands: int, text: str) -> "BraidWord":
        tokens = text.replace(",", " ").split()
        try:
            letters = tuple(int(t) for t in tokens)
        except ValueError as exc:
            raise BraidError(f"bad braid word {text!r}") from exc
        return cls(strands, letters)

    def format(self) -> str:
        return " ".join(str(d) for d in self.letters)


_braid_word = _constructor(BraidWord)


def _reduce(w: BraidWord, budget: int, decide: bool) -> tuple[int, ...] | Sign:
    """Handle reduction of w in one resumable pass; returns the reduced
    letters, or with `decide`, the Dehornoy sign as soon as it is settled.

    `done` holds the letters read so far: a freely reduced prefix in which
    no handle closes.  `last[i]` is the latest position of index i in it
    (-1 if none) and `prev[p]` the value `last` had before position p was
    read.  The unread letters sit reversed on `todo`, and `done` plus
    `todo` is always the freely reduced current word.  A handle closes at
    the letter d being read when the latest letter of index i = |d| is -d
    and lies after the latest letter of index i-1.  Whether one closes
    there depends on the read prefix alone, so the first handle found is
    the leftmost-closing one.  Its rewrite rolls `last` back over the
    handle and pushes the rewritten middle back onto `todo`, to be read
    again; free reduction happens at both of its seams.  `count[d]` counts
    the letters d in the current word and `m` is the least index present:
    a handle creates letters only at its own index i, present already, and
    at i+1, so `m` never decreases.  Raises StepBudgetExceeded on rewrite
    budget+1, and with `decide`, BraidError if the pass ends undecided,
    which a correct reduction never does.
    """
    n = w.strands
    todo = list(free_reduce(w.letters))
    todo.reverse()
    count = [0] * (2 * n)  # count[d] letters d: -d indexes from the end
    for d in todo:
        count[d] += 1
    done: list[int] = []
    prev: list[int] = []
    last = [-1] * (n + 1)  # index 0 never occurs
    m = 1
    steps = 0
    while True:
        if decide:
            while m < n and not (count[m] or count[-m]):
                m += 1
            if m == n:
                return Sign.ZERO
            if not count[-m]:
                return Sign.POSITIVE
            if not count[m]:
                return Sign.NEGATIVE
        while todo:
            d = todo.pop()
            i = d if d > 0 else -d
            k = last[i]
            if k > last[i - 1] and done[k] == -d:
                break
            prev.append(k)
            last[i] = len(done)
            done.append(d)
        else:
            if decide:  # a handle-free word has a single-signed least index
                raise BraidError("handle reduction left a mixed-sign least generator")
            return tuple(done)
        steps += 1
        if steps > budget:
            raise StepBudgetExceeded(f"handle reduction exceeded {budget} rewrites")
        # the handle done[k] .. d: roll `last` back over it while its middle
        # is rewritten right to left onto the unread suffix, freely reduced
        # on the way; sigma_(i+1)^s becomes sigma_(i+1)^-e sigma_i^s
        # sigma_(i+1)^e, where e is the sign of done[k]
        b = i + 1 if d < 0 else -i - 1
        for p in range(len(done) - 1, k, -1):
            x = done[p]
            if x == i + 1 or x == -i - 1:
                last[i + 1] = prev[p]
                a = i if x > 0 else -i
                count[a] += 1
                count[-x] += 1
                rep: tuple[int, ...] = (b, a, -b)
            else:
                last[abs(x)] = prev[p]
                rep = (x,)
            for y in rep:
                if todo and todo[-1] == -y:
                    todo.pop()
                    count[y] -= 1
                    count[-y] -= 1
                else:
                    todo.append(y)
        last[i] = prev[k]
        del done[k:], prev[k:]
        count[i] -= 1
        count[-i] -= 1
        # the seam with the prefix
        while done and todo and done[-1] == -todo[-1]:
            y = todo.pop()
            last[abs(y)] = prev.pop()
            done.pop()
            count[y] -= 1
            count[-y] -= 1


def handle_reduce(w: BraidWord, budget: int = DEFAULT_STEP_BUDGET) -> BraidWord:
    """Reduce to a word in which the least occurring generator index carries
    a single sign; empty iff the braid is trivial.  Each rewrite replaces
    the leftmost-closing handle (`_reduce`); raises StepBudgetExceeded on
    rewrite budget+1."""
    return _braid_word(w.strands, _reduce(w, budget, False))


def dehornoy_sign(w: BraidWord, budget: int = DEFAULT_STEP_BUDGET) -> Sign:
    """Dehornoy sign of w by handle reduction, stopped as soon as it is
    settled: ZERO when the word is empty, otherwise the sign of the least
    index m present once the letters of index m all have one sign.

    Proof that the early answer is the one full reduction gives: a handle
    of index i needs both signs of i, so every later handle has index
    i > m (no smaller index is present), and its rewrite creates or
    removes letters of index i and i+1 only; a free cancellation also
    needs both signs of its index.  So the letters of index m never change
    again, no smaller index appears, and the fully reduced word has least
    index m with the same one sign.  (The word at that point is already
    sigma-positive or sigma-negative, which by Dehornoy's Property A
    decides the sign of the braid.)  The check runs before the first
    rewrite and after each one, so `budget` bounds the rewrites made
    before the sign is settled: StepBudgetExceeded on rewrite budget+1.
    """
    return _reduce(w, budget, True)


# --- lamination coordinates -------------------------------------------------

def lamination_initial(n: int) -> tuple[int, ...]:
    return (0, 1) * n


def lamination_apply(w: BraidWord) -> tuple[int, ...]:
    """Dynnikov coordinates (a_1, b_1, ..., a_n, b_n) of the standard test
    lamination after acting by w, letter by letter from the left; equal to
    lamination_initial(w.strands) iff w is trivial.

    sigma_i^e changes a_i, b_i, a_{i+1}, b_{i+1} only.  With x+ = max(x, 0),
    x- = min(x, 0) and a_i, a_{i+1} multiplied by e before and after, the
    update is t = a_i - a_{i+1} - b_i- + b_{i+1}+ and
    a_i' = a_i + b_i+ + (b_{i+1}+ - t)+,      b_i' = b_{i+1} - t+,
    a_{i+1}' = a_{i+1} + b_{i+1}- + (b_i- + t)-,  b_{i+1}' = b_i + t+.
    """
    c = list(lamination_initial(w.strands))
    for d in w.letters:
        if d > 0:
            e, j = 1, 2 * d - 2
        else:
            e, j = -1, -2 * d - 2
        a1, b1, a2, b2 = e * c[j], c[j + 1], e * c[j + 2], c[j + 3]
        p1 = b1 if b1 > 0 else 0
        p2 = b2 if b2 > 0 else 0
        t = a1 - a2 - (b1 - p1) + p2
        tp = t if t > 0 else 0
        x = p2 - t
        y = b1 - p1 + t
        c[j] = e * (a1 + p1 + (x if x > 0 else 0))
        c[j + 1] = b2 - tp
        c[j + 2] = e * (a2 + b2 - p2 + (y if y < 0 else 0))
        c[j + 3] = b1 + tp
    return tuple(c)


def _definite_sign(letters: Sequence[int]) -> Sign | None:
    """The Dehornoy sign of a sigma-definite word, None for any other.

    ZERO for the empty word.  Otherwise let m be the least index present:
    if every letter of index m is positive, the word is sigma-positive and
    the braid is POSITIVE; if every one is negative, NEGATIVE; if both
    signs occur, None.  A sigma-positive word has a letter sigma_m, no
    sigma_m^-1 and no index below m, and by Dehornoy's Property A it never
    represents the trivial braid (P. Dehornoy, "Braid groups and left
    distributive operations", Trans. AMS 345 (1994); *Ordering Braids*,
    AMS 2008), so its braid is positive in the order that
    `lamination_sign` and `dehornoy_sign` decide, with their convention.
    The word need not be freely reduced: a cancellation needs both signs
    of its index, so free reduction removes no letter of index m when its
    inverse is absent and leaves a word with the same least index and
    sign.
    """
    if not letters:
        return Sign.ZERO
    m = min(map(abs, letters))
    if -m not in letters:
        return Sign.POSITIVE
    if m not in letters:
        return Sign.NEGATIVE
    return None


def lamination_sign(w: BraidWord) -> Sign:
    """Dehornoy sign of w: read off the word itself when it is
    sigma-definite (`_definite_sign`), otherwise off its Dynnikov
    coordinates in one pass.

    Dynnikov's criterion (I. Dynnikov, "On a Yang-Baxter map and the
    Dehornoy ordering", Russ. Math. Surveys 57 (2002); P. Dehornoy,
    I. Dynnikov, D. Rolfsen, B. Wiest, *Ordering Braids*, AMS 2008, the
    chapter on triangulations; P. Dehornoy, "Efficient solutions to the
    braid isotopy problem", Discrete Appl. Math. 156 (2008)): write
    (a_1, b_1, ..., a_n, b_n) = (0, 1, ..., 0, 1) . w for the right action
    above.  Then w is sigma-positive iff the first nonzero entry of
    (a_1, b_1 - 1, ..., a_n, b_n - 1) is positive, sigma-negative iff it is
    negative, and trivial iff there is none.  That sequence is the
    coordinate-wise difference from `lamination_initial`, so the first
    coordinate that differs decides, larger meaning positive.  The
    convention (letters act left to right, sigma_i with the strand at
    position i passing over, positive meaning the least index occurs only
    positively) is the one `dehornoy_sign` decides, and the two are tested
    against each other.  No budget: the pass always terminates.
    """
    s = _definite_sign(w.letters)
    return _dynnikov_sign(w) if s is None else s


def _dynnikov_sign(w: BraidWord) -> Sign:
    """The sign of Dynnikov's criterion (`lamination_sign`) on any word,
    sigma-definite or not: the first coordinate of the lamination action
    that differs from `lamination_initial`, larger meaning positive."""
    for x, x0 in zip(lamination_apply(w), lamination_initial(w.strands)):
        if x != x0:
            return Sign.POSITIVE if x > x0 else Sign.NEGATIVE
    return Sign.ZERO


def lamination_trivial(w: BraidWord) -> bool:
    """Whether w is the trivial braid: `lamination_sign` is ZERO, so the
    sigma-definite check runs first (trivial iff the word is empty)."""
    return lamination_sign(w) is Sign.ZERO


# --- digital braids ---------------------------------------------------------

@dataclass(frozen=True, slots=True)
class DigitalBraid:
    top: Word
    bottom: Word
    word: BraidWord

    def __post_init__(self) -> None:
        _set_field(self, "top", tuple(self.top))
        _set_field(self, "bottom", tuple(self.bottom))
        n = len(self.top)
        if len(self.bottom) != n:
            raise LabelMismatchError("top and bottom have different lengths")
        if self.word.strands != max(n, 1):
            raise BraidError(
                f"braid has {self.word.strands} strands, expected {max(n, 1)}"
            )
        perm = self.word.permutation()
        for i in range(n):
            if self.top[i] != self.bottom[perm[i] - 1]:
                raise LabelMismatchError(
                    f"strand from top {i + 1} ({self.top[i]!r}) ends at bottom "
                    f"{perm[i]} ({self.bottom[perm[i] - 1]!r})"
                )

    @classmethod
    def identity(cls, word: Word) -> "DigitalBraid":
        return cls(word, word, BraidWord(max(len(word), 1)))

    def compose(self, other: "DigitalBraid") -> "DigitalBraid":
        if self.bottom != other.top:
            raise LabelMismatchError(
                f"bottom {self.bottom} does not match top {other.top}"
            )
        return _digital_braid(self.top, other.bottom, self.word * other.word)

    def invert(self) -> "DigitalBraid":
        return _digital_braid(self.bottom, self.top, self.word.inverse())

    def is_pure(self) -> bool:
        return self.word.is_pure()


_digital_braid = _constructor(DigitalBraid)


def _block_letters(offset: int, p: int, q: int, sign: int) -> Sequence[int]:
    """Crossing of a width-p cable over a width-q cable occupying positions
    offset+1 .. offset+p+q; a range when one cable is a single strand."""
    if p == 1:
        if sign > 0:
            return range(offset + 1, offset + q + 1)
        return range(-offset - 1, -offset - q - 1, -1)
    if q == 1:
        if sign > 0:
            return range(offset + p, offset, -1)
        return range(-offset - p, -offset)
    if sign > 0:
        return [offset + p - i + j for i in range(1, p + 1) for j in range(1, q + 1)]
    positive = [offset + q - i + j for i in range(1, q + 1) for j in range(1, p + 1)]
    return [-x for x in reversed(positive)]


def _cable(
    letters: tuple[int, ...], trees: Sequence[ExpansionTree], up: bool = False
) -> tuple[tuple[int, ...], list[ExpansionTree] | None]:
    """Cable the word `letters` along `trees`, carrying them through it.

    `trees` sit at the top of the word, or at its bottom with `up`; the
    strand at position i becomes trees[i-1].leaf_count parallel strands,
    and each crossing the block crossing of its two cables.  Returns the
    cabled word, not freely reduced, and the trees at the other end of the
    word: the tree over top position i is the one under the bottom
    position its strand reaches.  When the word is nonempty and every tree
    is a leaf, it returns `letters` itself and None at once: leaves are
    hash-consed, so the trees at the other end are the leaves labelled by
    the digital braid's own labels there, which the caller holds.

    width[p] is the width of the cable now at position p+1 and start[p] the
    number of strands left of it; swapping positions k, k+1 moves only
    start[k].  Cabling commutes with inversion, so the walk up reads the
    word right to left, emits each block for the letter as written with
    the widths above it, reversed, and reverses the output once."""
    if not letters:
        return letters, list(trees)
    width = [t.leaf_count for t in trees]
    if sum(width) == len(width):
        return letters, None
    trees = list(trees)
    start = [0, *accumulate(width[:-1])]
    out: list[int] = []
    for d in reversed(letters) if up else letters:
        k = d if d > 0 else -d
        u, v = width[k - 1], width[k]
        width[k - 1], width[k] = v, u
        trees[k - 1], trees[k] = trees[k], trees[k - 1]
        offset = start[k - 1]
        start[k] = offset + v
        if u == 1 and v == 1:
            out.append(offset + 1 if d > 0 else -offset - 1)
        elif up:
            out.extend(reversed(_block_letters(offset, v, u, d)))
        else:
            out.extend(_block_letters(offset, u, v, d))
    return tuple(reversed(out) if up else out), trees


def delete_strand(
    letters: tuple[int, ...], n: int, first: int, last: int
) -> tuple[int, ...]:
    """Remove the strands starting at top positions first..last, dropping
    their crossings and reindexing the rest; freely reduced.  Deleting
    strands i+2..i+w undoes the cabling of strand i+1 to width w."""
    at = list(range(n + 1))  # at[p] = top position of the strand at position p
    keep = [p < first or p > last for p in range(n + 1)]  # by top position
    # kept strands at positions 1..p
    rank = [min(p, first - 1) + max(p - last, 0) for p in range(n + 1)]
    out: list[int] = []
    for d in letters:
        p = d if d > 0 else -d
        a, b = at[p], at[p + 1]
        at[p], at[p + 1] = b, a
        if keep[a]:
            if keep[b]:
                out.append(rank[p] if d > 0 else -rank[p])
            else:
                rank[p] = rank[p - 1]
        elif keep[b]:
            rank[p] = rank[p - 1] + 1
    return free_reduce(tuple(out))


def act_bottom(
    g: DigitalBraid, b: ExpansionForest
) -> tuple[ExpansionForest, DigitalBraid]:
    """Cable g along the forest b attached to its bottom word.

    Returns (bup, gb) where bup is b transported to the top of g (the tree
    over top position i is the tree under the bottom position its strand
    reaches) and gb is the cabled braid from leaves(bup) to leaves(b); one
    upward walk of `_cable` gives both the trees of bup and the letters of
    gb.  When the trees come back in their order, bup's leaves are b's, and
    one leaf walk gives both ends of gb.  When every tree is a leaf, gb is
    g and bup the leaves labelled by g's top.  The braid on the empty word
    needs no special case: its empty word and empty forest come back equal
    to g and b.
    """
    if b.source != g.bottom:
        raise SourceMismatchError(
            f"forest source {b.source} does not match braid bottom {g.bottom}"
        )
    letters, trees = _cable(g.word.letters, b.trees, True)
    if trees is None:
        top, bottom = g.top, g.bottom
        bup = b if top == bottom else _forest(b.drs, tuple(map(ExpansionTree, top)))
    else:
        bup = _forest(b.drs, tuple(trees))
        bottom = b.leaves()
        top = bottom if bup.trees == b.trees else bup.leaves()
    gb = _digital_braid(
        top, bottom, _braid_word(max(len(top), 1), free_reduce(letters))
    )
    return bup, gb
