"""Braid words, digital braids, handle reduction and cabling.

Braid words are sequences of signed Artin generator indices: ``+i`` is a
positive crossing of the strands at positions i and i+1 (the strand at
position i passes over), ``-i`` the inverse.  Diagrams read top to bottom.

A *digital braid* decorates the strand endpoints with letters of a digit
rewriting system; strands must join equal letters.  Digital braids form a
groupoid under stacking, and expansion forests act on them by cabling: a
strand ending at a bottom position whose tree has k leaves is replaced by k
parallel strands, each crossing becoming the block crossing of the two
cables.  The cabling loop lives in `_cable`, which takes the widths at the
top of the braid; `act_bottom` moves the forest to the top and calls it,
and so does the product of fractions, without building the forests.

Two independent decision procedures for the braid word problem live here.
The lamination action tracks integral (Dynnikov) coordinates of a curve
system punctured by the strands, in one pass over the word with no budget:
a braid is trivial iff it fixes the initial coordinates, and the first
coordinate that moves gives the Dehornoy sign (`lamination_sign`).  It
decides the braided sign and identity for the fraction groups.  Handle
reduction repeatedly removes the leftmost-closing handle (a subword
sigma_i^e u sigma_i^{-e} where u avoids generators i and i-1) and
terminates in a word where the least occurring index shows a single sign;
that sign is the Dehornoy sign, and the empty output characterizes the
trivial braid.  Its step budget bounds it.  It is kept as the independent
oracle (`dehornoy_sign`) that tests and the verification suites play
against the lamination.

Validation happens at the trust boundary: ``BraidWord(...)`` checks its
generator indices and ``DigitalBraid(...)`` its labels against the strand
permutation, and `BraidWord.parse` goes through the former.  Inverses,
products, `handle_reduce` results, composites and both outputs of
`act_bottom` are derived from values already checked and are built without
re-validation, by `_braid_word` and `_digital_braid` (and `drs._forest`),
the positional constructors that `drs._constructor` makes for each class.
"""

from __future__ import annotations

from dataclasses import dataclass

from .drs import ExpansionForest, SourceMismatchError, Word, _constructor, _forest
from .ordering import Sign

DEFAULT_STEP_BUDGET = 10**6


class BraidError(ValueError):
    """Base class for braid-level errors."""


class LabelMismatchError(BraidError):
    """Digital braid endpoints carry non-matching letters."""


class StepBudgetExceeded(RuntimeError):
    """Handle reduction exceeded its rewrite budget."""


def free_reduce(letters: tuple[int, ...]) -> tuple[int, ...]:
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
        if self.strands < 1:
            raise BraidError(f"strand count must be >= 1, got {self.strands}")
        for d in self.letters:
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


def _find_handle(ls: list[int], start: int, strands: int) -> tuple[int, int] | None:
    """Leftmost-closing handle (k, j) with j >= start: ls[k] = -ls[j] = ±i,
    and neither index i nor i-1 occurs between them.  The caller guarantees
    that no handle closes before `start`.  last[g] is the latest position
    of generator g before j, so the nearest letter of index i or i-1 is the
    later of last[i] and last[i-1]."""
    last = [-1] * (strands + 1)
    for p in range(start):
        last[abs(ls[p])] = p
    for j in range(start, len(ls)):
        d = ls[j]
        i = abs(d)
        k = last[i]
        if k > last[i - 1] and ls[k] == -d:
            return k, j
        last[i] = j
    return None


def handle_reduce(w: BraidWord, budget: int = DEFAULT_STEP_BUDGET) -> BraidWord:
    """Reduce to a word in which the least occurring generator index carries
    a single sign; empty iff the braid is trivial.

    Each rewrite replaces the leftmost-closing handle ls[k..j] and freely
    reduces only at the seams.  Whether a handle closes at position p
    depends on ls[:p+1] alone, and none closed before j, so the scan
    resumes at the shortest prefix the rewrite left untouched instead of at
    the start of the word.  Raises StepBudgetExceeded on rewrite budget+1.
    """
    ls = list(free_reduce(w.letters))
    steps = 0
    start = 0
    while True:
        h = _find_handle(ls, start, w.strands)
        if h is None:
            return _braid_word(w.strands, tuple(ls))
        steps += 1
        if steps > budget:
            raise StepBudgetExceeded(
                f"handle reduction exceeded {budget} rewrites"
            )
        k, j = h
        e = 1 if ls[k] > 0 else -1
        i = abs(ls[k])
        # ls is freely reduced, so its prefix seeds the reduction stack and
        # only the rewritten middle and the seam with the suffix can cancel
        out = ls[:k]
        start = k
        for d in ls[k + 1 : j]:
            if abs(d) == i + 1:
                s = 1 if d > 0 else -1
                rep: tuple[int, ...] = (-e * (i + 1), s * i, e * (i + 1))
            else:
                rep = (d,)
            for x in rep:
                if out and out[-1] == -x:
                    out.pop()
                    if len(out) < start:
                        start = len(out)
                else:
                    out.append(x)
        # the suffix is reduced too: once one of its letters stays, the
        # rest cannot cancel
        p = j + 1
        while p < len(ls) and out and out[-1] == -ls[p]:
            out.pop()
            p += 1
        if len(out) < start:
            start = len(out)
        out.extend(ls[p:])
        ls = out


def dehornoy_sign(w: BraidWord, budget: int = DEFAULT_STEP_BUDGET) -> Sign:
    reduced = handle_reduce(w, budget)
    if not reduced.letters:
        return Sign.ZERO
    i = min(abs(d) for d in reduced.letters)
    signs = {d > 0 for d in reduced.letters if abs(d) == i}
    if len(signs) != 1:
        raise BraidError("handle reduction left a mixed-sign least generator")
    return Sign.POSITIVE if signs.pop() else Sign.NEGATIVE


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


def lamination_trivial(w: BraidWord) -> bool:
    return lamination_apply(w) == lamination_initial(w.strands)


def lamination_sign(w: BraidWord) -> Sign:
    """Dehornoy sign of w read off its Dynnikov coordinates in one pass.

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
    for x, x0 in zip(lamination_apply(w), lamination_initial(w.strands)):
        if x != x0:
            return Sign.POSITIVE if x > x0 else Sign.NEGATIVE
    return Sign.ZERO


# --- digital braids ---------------------------------------------------------

@dataclass(frozen=True, slots=True)
class DigitalBraid:
    top: Word
    bottom: Word
    word: BraidWord

    def __post_init__(self) -> None:
        n = len(self.top)
        if len(self.bottom) != n:
            raise LabelMismatchError("top and bottom have different lengths")
        if self.word.strands != max(n, 1):
            raise BraidError(
                f"braid has {self.word.strands} strands, expected {max(n, 1)}"
            )
        if n == 0:
            return
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


def _block_letters(offset: int, p: int, q: int, sign: int) -> list[int]:
    """Crossing of a width-p cable over a width-q cable occupying positions
    offset+1 .. offset+p+q."""
    if sign > 0:
        return [offset + p - i + j for i in range(1, p + 1) for j in range(1, q + 1)]
    positive = [offset + q - i + j for i in range(1, q + 1) for j in range(1, p + 1)]
    return [-x for x in reversed(positive)]


def _cable(letters: tuple[int, ...], widths: list[int]) -> tuple[int, ...]:
    """The word `letters` with the strand at top position i replaced by
    widths[i-1] parallel strands, each crossing becoming the block crossing
    of two cables; not freely reduced, and `letters` itself when every
    width is 1.

    width[p] is the width of the cable now at position p+1 and start[p] the
    number of strands left of it; swapping positions k, k+1 moves only
    start[k].  Cabling commutes with inversion: the cable of the inverse
    word, with the widths at its own top, is the inverse of the cable."""
    n = len(widths)
    if sum(widths) == n:
        return letters
    width = list(widths)
    start = [0] * n
    for p in range(1, n):
        start[p] = start[p - 1] + width[p - 1]
    out: list[int] = []
    for d in letters:
        k = d if d > 0 else -d
        u, v = width[k - 1], width[k]
        offset = start[k - 1]
        if u == 1 and v == 1:
            out.append(offset + 1 if d > 0 else -offset - 1)
        else:
            out.extend(_block_letters(offset, u, v, d))
        width[k - 1], width[k] = v, u
        start[k] = offset + v
    return tuple(out)


def act_bottom(
    g: DigitalBraid, b: ExpansionForest
) -> tuple[ExpansionForest, DigitalBraid]:
    """Cable g along the forest b attached to its bottom word.

    Returns (bup, gb) where bup is b transported to the top of g (the tree
    over top position i is the tree under the bottom position its strand
    reaches) and gb is the cabled braid from leaves(bup) to leaves(b).
    """
    if b.source != g.bottom:
        raise SourceMismatchError(
            f"forest source {b.source} does not match braid bottom {g.bottom}"
        )
    if not g.top:
        return b, g
    bup = _forest(b.drs, tuple(b.trees[p - 1] for p in g.word.permutation()))
    letters = _cable(g.word.letters, [t.leaf_count for t in bup.trees])
    leaves = bup.leaves()
    gb = _digital_braid(
        leaves, b.leaves(), _braid_word(max(len(leaves), 1), free_reduce(letters))
    )
    return bup, gb
