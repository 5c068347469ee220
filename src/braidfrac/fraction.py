"""Groups of braided fractions of a digit rewriting system.

An element is a triple (T, g, S): two expansion forests with the same base
word and a digital braid from the leaves of T to the leaves of S, read as
the fraction T g S^{-1}.  Multiplication pushes the middle factors through a
common refinement.  One walk of the denominator S of the left factor and
the numerator T' of the right factor (`drs._complements`) gives the
trees of the complements B and A that complete them to their join.  One
walk of each braid (`braids._cable`) cables it along its complement, with
the widths read off each tree's `leaf_count`, and carries the trees along
its strands: g upward from B at its bottom, g' downward from A at its
top, so no strand permutation is computed and g' is not inverted.  The
moved complements are grafted onto T and S', and the product equals,
letter for letter after free reduction, the composition of
`forest_join`, `act_bottom`, `graft` and `compose`.  Its top and bottom
are the leaves of the moved complement trees (`drs._leaf_labels`), or the
braids' own ends when every moved tree is a leaf; neither grafted forest
is walked again.  When neither cabling moved a tree (every product in the
pure and plain flavors), both ends are the leaves of the join, and one
leaf walk, or none, gives them.
Inversion swaps the forests and inverts the braid.  `normalize` runs the
same relation backwards in one outermost-first walk of the nodes of T: it
cuts each node, with its whole subtree, that S holds as an equal subtree
where the braid carries its strands as one cable.

Four flavors share this arithmetic.  Braided uses arbitrary digital braids,
PureBraided restricts to trivial strand permutations, Permutation keeps only
the permutation (such groups contain torsion, so order queries are refused),
and Plain forces the braid to be trivial.

The left order on the Braided flavor is braid-first: an element is positive
when its braid factor is Dehornoy-positive, with ties (trivial braid factor)
broken by the first-deviation sign of the PL realization of the forest
pair.  Triviality of the braid factor does not depend on the chosen
representative, so the case split is well defined.
`braids.lamination_sign` decides both the sign and the tie: a
sigma-definite braid word (its least index occurs with one sign only, or
it is empty) has its sign read off the word by Dehornoy's Property A, any
other takes one pass of the lamination action (Dynnikov's criterion).
Both always terminate, so the step `budget` that bounds handle reduction
is not used here.  The PL sign, here and below, is read straight off the
two forests by `plmaps.realization_sign`; no map is built.

The bi-order on the PureBraided flavor is quotient-first: the group splits
as a semidirect product of the kernel of the braid-forgetting projection by
the plain fraction group, and only the lexicographic order with the plain
quotient most significant is invariant on both sides (the braid-first cone
is a left order only, since conjugating a braid-free element generally
picks up a braid factor).  So a pure element is signed by the PL
realization of its forest pair first, and by the Magnus sign of its braid
factor when the forests agree; that sign is bounded by `degree_cap` alone.

The identity test needs no canonical form in any flavor: structurally
equal forests plus a trivial braid, that is, `braids.lamination_sign`
ZERO (the word when it is sigma-definite, else the lamination action),
which always terminates and so takes no budget.  Handle reduction
(`braids.dehornoy_sign`, bounded by its step budget) stays off the order
path as the independent oracle the tests and suites play against it.

Validation happens at the trust boundary: ``FractionElement(...)`` checks
sources, leaf words, the rewriting system and the flavor's braid condition,
and `parse_element` and the CLI's expressions go through it;
``GroupContext(...)`` stores its base word as a tuple, as every public
constructor stores the sequences it is handed.  Products and
inverses are derived from checked elements by operations that keep them
valid, so they are built without re-validation, by `_element` and the
braid layer's `_digital_braid` and `_braid_word`, the positional
constructors that `drs._constructor` makes for each class.  So are the
random draws: `_braid_draw` returns its steps and a braid whose strands
join equal letters, `_forest_pair` two forests with equal leaf words, and
`random_element` and the suites build from them only what they keep.
"""

from __future__ import annotations

import enum
import random
import re
from dataclasses import dataclass

from .braids import (
    BraidWord,
    DigitalBraid,
    _braid_word,
    _cable,
    _digital_braid,
    delete_strand,
    free_reduce,
    lamination_apply,
    lamination_sign,
)
from .drs import (
    DigitRewritingSystem,
    DrsError,
    ExpansionForest,
    Word,
    _complements,
    _constructor,
    _expandable,
    _graft,
    _leaf_labels,
    _leaf_nodes,
    _nodes,
    _pruned,
    _set_field,
    forest_from_steps,
    format_steps,
    parse_steps,
    steps_of,
)
from .magnus import DEFAULT_DEGREE_CAP, pure_word_sign
from .ordering import Comparison, Sign
from .plmaps import _deviation_sign


class FractionError(ValueError):
    """Structural error building or combining fraction elements."""


class ContextMismatchError(FractionError):
    """Elements from different group contexts were combined."""


class TorsionOrderError(FractionError):
    """Order query on the permutation flavor, whose groups have torsion and
    admit no left order."""


class Flavor(enum.Enum):
    BRAIDED = "braided"
    PURE_BRAIDED = "pure"
    PERMUTATION = "permutation"
    PLAIN = "plain"

    def __str__(self) -> str:
        return self.value


ORDERABLE_FLAVORS = (Flavor.BRAIDED, Flavor.PURE_BRAIDED, Flavor.PLAIN)


@dataclass(frozen=True, slots=True)
class GroupContext:
    drs: DigitRewritingSystem
    base: Word
    flavor: Flavor

    def __post_init__(self) -> None:
        _set_field(self, "base", tuple(self.base))
        if not isinstance(self.flavor, Flavor):
            raise FractionError(f"flavor must be a Flavor, got {self.flavor!r}")
        if not self.base:
            raise FractionError("base word must be nonempty")
        self.drs.check_word(self.base)


@dataclass(frozen=True, slots=True)
class FractionElement:
    context: GroupContext
    T: ExpansionForest
    g: DigitalBraid
    S: ExpansionForest

    def __post_init__(self) -> None:
        base = self.context.base
        drs = self.context.drs
        if self.T.drs != drs or self.S.drs != drs:
            raise FractionError(
                "forests must belong to the context's rewriting system"
            )
        if self.T.source != base or self.S.source != base:
            raise FractionError("forest sources must equal the base word")
        if self.g.top != self.T.leaves():
            raise FractionError("braid top must equal the leaves of T")
        if self.g.bottom != self.S.leaves():
            raise FractionError("braid bottom must equal the leaves of S")
        flavor = self.context.flavor
        if flavor is Flavor.PURE_BRAIDED and not self.g.is_pure():
            raise FractionError("pure flavor requires a pure digital braid")
        if flavor is Flavor.PLAIN and self.g.word.letters:
            raise FractionError("plain flavor requires a trivial braid")

    # -- group operations --

    def __mul__(self, other: "FractionElement") -> "FractionElement":
        if self.context is not other.context and self.context != other.context:
            raise ContextMismatchError("elements live in different contexts")
        # B, A complete self.S and other.T to their join; cabling self.g
        # upward from B and other.g downward from A carries them to the
        # ends of the product's braid, labelled by their leaves.  When
        # every tree of a side is a leaf, `_cable` returns None for them:
        # they are the leaves labelled by that braid's own end, so the
        # product's end is that end, its forest the outer one, and the
        # side is unmoved when the braid's two ends agree.  When neither
        # side moved a tree, both ends are the leaves of the join
        # graft(S, B) = graft(T', A), so one end gives both
        g, h = self.g, other.g
        b, a = _complements(self.S.trees, other.T.trees)
        left, bup = _cable(g.word.letters, b, True)
        right, adown = _cable(h.word.letters, a)
        if (g.top == g.bottom if bup is None else bup == b) and (
            h.top == h.bottom if adown is None else adown == a
        ):
            top = bottom = (
                g.top if bup is None
                else h.bottom if adown is None
                else _leaf_labels(b)
            )
        else:
            top = g.top if bup is None else _leaf_labels(bup)
            bottom = h.bottom if adown is None else _leaf_labels(adown)
        braid = _digital_braid(
            top, bottom, _braid_word(len(top), free_reduce(left + right))
        )
        return _element(
            self.context,
            self.T if bup is None else _graft(self.T, bup),
            braid,
            other.S if adown is None else _graft(other.S, adown),
        )

    def invert(self) -> "FractionElement":
        return _element(self.context, self.S, self.g.invert(), self.T)

    def is_identity(self, budget: int | None = None) -> bool:
        """Equal forests (equal trees are one object) and a trivial braid
        factor.

        Braid triviality is `lamination_sign` being ZERO (Property A on a
        sigma-definite word, else the lamination action), which needs no
        step budget; `budget` is accepted for symmetry with `sign` and
        `compare`, and ignored.
        """
        if self.T != self.S:
            return False
        if self.context.flavor is Flavor.PERMUTATION:
            return self.g.is_pure()
        return lamination_sign(self.g.word) is Sign.ZERO

    # -- order --

    def sign(
        self,
        degree_cap: int = DEFAULT_DEGREE_CAP,
        budget: int | None = None,
    ) -> Sign:
        """Sign of the element in its flavor's order.

        Braided: the Dehornoy sign of the braid factor (`lamination_sign`:
        read off the word when it is sigma-definite, else off its Dynnikov
        coordinates in one pass), and the PL sign of the forest pair when
        the braid is trivial.  Pure: the PL sign first, then the Magnus
        sign of the braid factor, bounded by `degree_cap`
        (DegreeCapExceeded).  Plain: the PL sign.  The PL sign is
        `realization_sign(T, S)`, read off the two forests without
        building the PL map.  Its check of equal sources and leaf words is
        skipped: both forests have the base as source, and the PL sign is
        taken only when the braid is pure (pure flavor) or trivial (braided
        and plain), whose top T.leaves() then equals its bottom S.leaves().
        `budget`, the handle-reduction step budget, is accepted and
        ignored: no flavor's sign runs handle reduction.
        """
        flavor = self.context.flavor
        if flavor not in ORDERABLE_FLAVORS:
            raise TorsionOrderError(
                "permutation-flavored fraction groups contain torsion and "
                "admit no left order"
            )
        if flavor is Flavor.PURE_BRAIDED:
            # quotient-first: the pure group splits as kernel-by-plain, and
            # only the quotient-first lexicographic order is two-sided
            # invariant (the braid-first cone is merely a left order)
            q = _deviation_sign(self.T.trees, self.S.trees)
            if q is not Sign.ZERO:
                return q
            return pure_word_sign(
                self.g.word.letters, self.g.word.strands, degree_cap
            )
        s = lamination_sign(self.g.word)
        if s is not Sign.ZERO:
            return s
        return _deviation_sign(self.T.trees, self.S.trees)

    def compare(
        self,
        other: "FractionElement",
        degree_cap: int = DEFAULT_DEGREE_CAP,
        budget: int | None = None,
    ) -> Comparison:
        """LESS when self < other, that is, when self^-1 * other is
        positive.  `degree_cap` bounds the pure sign; `budget` is ignored,
        as in `sign`."""
        diff = self.invert() * other
        s = diff.sign(degree_cap=degree_cap)
        if s is Sign.ZERO:
            return Comparison.EQUAL
        return Comparison.LESS if s is Sign.POSITIVE else Comparison.GREATER

    # -- projection to the plain group --

    def psi_project(self) -> "FractionElement":
        if self.context.flavor is not Flavor.PURE_BRAIDED:
            raise FractionError("projection is defined on the pure flavor")
        plain = GroupContext(self.context.drs, self.context.base, Flavor.PLAIN)
        return FractionElement(
            plain, self.T, DigitalBraid.identity(self.T.leaves()), self.S
        )

    def psi_section(self) -> "FractionElement":
        """The same forest pair with the braid dropped, kept in the pure
        flavor; a section of the projection."""
        if self.context.flavor is not Flavor.PURE_BRAIDED:
            raise FractionError("section is defined on the pure flavor")
        return FractionElement(
            self.context, self.T, DigitalBraid.identity(self.T.leaves()), self.S
        )

    def in_kernel_K(self) -> bool:
        """Whether the projection to the plain group is trivial: equal
        forests, since the plain flavor has no braid."""
        if self.context.flavor is not Flavor.PURE_BRAIDED:
            raise FractionError("projection is defined on the pure flavor")
        return self.T == self.S

    # -- size control --

    def normalize(self) -> "FractionElement":
        """The same element with every subtree cancelled that T and S share
        where the braid carries its strands as one cable.

        For a forest C under the bottom of g, T g S^-1 = (T C') g^C (S C)^-1,
        where C' is C moved along the strands of g to its top and g^C is g
        cabled along C; `act_bottom` and the product use this relation.
        Read backwards: a node x of T labelled a, with i leaves left of it
        and w leaves, qualifies when
        - S has a node equal to x with j leaves left of it, where strand
          i+1 of g ends at bottom position j+1 (equal trees are one object,
          so S's nodes are looked up by position and identity);
        - g is the cable c of g', the braid g with strands i+2..i+w
          deleted, along the leaves of T with x in place of the leaves
          under it, so with widths 1 except w at position i+1.  The test
          compares an invariant of c with the same invariant of g,
          computed once.  The Dynnikov coordinates of the standard
          lamination after the braid (`lamination_apply`) are a complete
          invariant on n strands: the initial coordinates times g equal
          them times c exactly when g c^-1 fixes them, that is, exactly
          when g c^-1 is trivial.  The permutation flavor keeps only the
          strand permutation, and the permutations of g and c are equal
          exactly when g c^-1 permutes no strand.
        Both nodes then become leaves labelled a and g' is the braid.  The
        label matters when two letters have the same right side, as in the
        edge shift a: a b, b: a b.  A cable that no crossing touches always
        passes; so in the plain flavor the rule cancels exactly the
        subtrees that T and S share at the same positions.

        This cuts what cancelling one caret (a node whose children are all
        leaves) at a time cuts, until no caret cancels:
        - cabling along disjoint blocks of strands commutes, and cabling a
          block and then a block inside it is one cabling of the outer
          block;
        - so g is a w-cable at i+1 exactly when cancelling the carets of x
          one by one, bottom up, succeeds against an identical subtree of
          S: each caret's block lies inside x's block;
        - cancelling a subtree disjoint from x changes neither fact for x:
          it deletes strands outside x's block and nodes outside the
          subtrees of x and its match;
        - so the qualifying nodes that lie under no qualifying node are the
          fixpoint of the one-caret rule, whatever order it runs in.

        One walk takes T's nodes outermost-first (`drs._nodes`) and tests
        each at most once.  A node that qualifies is cut with its whole
        subtree, whose nodes the walk skips; after a node fails, its
        children are tested in turn.  All tests run on g itself.  Each
        forest is built once, from its step list without the cut subtrees
        (`drs._pruned`), and the braid deletes the inner strands of each
        cut right to left, which leaves the top positions of the cuts
        still to delete in place.
        """
        g = self.g
        n = g.word.strands
        ends = g.word.permutation()
        permutation = self.context.flavor is Flavor.PERMUTATION
        want = ends if permutation else lamination_apply(g.word)
        s_nodes = set(_nodes(self.S.trees))
        t_leaves = _leaf_nodes(self.T.trees)
        t_cuts: list[tuple[int, int]] = []
        s_cuts: set[tuple[int, int]] = set()
        end = 0
        for i, x in _nodes(self.T.trees):
            if i < end:
                continue  # under the last cut
            w = x.leaf_count
            j = ends[i] - 1  # leaves of S left of where strand i+1 ends
            if (j, x) not in s_nodes:
                continue  # no node of S equal to x there
            trees = t_leaves[:i] + [x] + t_leaves[i + w :]
            cable = _cable(delete_strand(g.word.letters, n, i + 2, i + w), trees)[0]
            c = _braid_word(n, cable)
            if (c.permutation() if permutation else lamination_apply(c)) == want:
                t_cuts.append((i, w))
                s_cuts.add((j, w))
                end = i + w
        if not t_cuts:
            return self
        letters = g.word.letters
        for i, w in reversed(t_cuts):
            letters = delete_strand(letters, n, i + 2, i + w)
            n -= w - 1
        t, s = _pruned(self.T, set(t_cuts)), _pruned(self.S, s_cuts)
        braid = _digital_braid(t.leaves(), s.leaves(), _braid_word(n, letters))
        return _element(self.context, t, braid, s)


_element = _constructor(FractionElement)


def identity_element(context: GroupContext) -> FractionElement:
    f = ExpansionForest.identity(context.drs, context.base)
    return FractionElement(context, f, DigitalBraid.identity(context.base), f)


# --- random generation --------------------------------------------------------

def _draw_steps(
    drs: DigitRewritingSystem, word: Word, steps: int, rng: random.Random
) -> tuple[Word, list[int]]:
    """Up to `steps` random expansions of `word`, drawn on its leaf word:
    the leaf word reached and the steps, with no forest built."""
    leaves = list(word)
    chosen: list[int] = []
    for _ in range(steps):
        positions = _expandable(drs, leaves)
        if not positions:
            break
        p = rng.choice(positions)
        leaves[p - 1 : p] = drs.rule_map[leaves[p - 1]].rhs
        chosen.append(p)
    return tuple(leaves), chosen


def _grow_forest(
    drs: DigitRewritingSystem, word: Word, steps: int, rng: random.Random
) -> ExpansionForest:
    """A forest on `word` of up to `steps` random expansions, drawn on its
    leaf word and built once."""
    return forest_from_steps(drs, word, _draw_steps(drs, word, steps, rng)[1])


def _random_braid(
    word: Word, max_letters: int, rng: random.Random, pure: bool
) -> DigitalBraid:
    """Random digital braid from `word` to itself, built on one
    arrangement (position -> strand): up to `max_letters` random crossings;
    then a label-preserving target arrangement, the strands of each letter
    shuffled among that letter's positions (the identity if `pure`); then
    adjacent swaps of random sign that carry the arrangement onto it.  The
    swaps end on the target, so every strand joins equal letters, and each
    index lies in 1..n-1: the braid is built positionally, unchecked."""
    n = len(word)
    letters: list[int] = []
    arr = list(range(n))
    if n >= 2 and max_letters > 0:
        for _ in range(rng.randint(0, max_letters)):
            k = rng.randint(1, n - 1)
            letters.append(k * rng.choice((1, -1)))
            arr[k - 1], arr[k] = arr[k], arr[k - 1]
    target = list(range(n))
    if not pure:
        classes: dict[str, list[int]] = {}
        for p, a in enumerate(word):
            classes.setdefault(a, []).append(p)
        for positions in classes.values():
            strands = positions[:]
            rng.shuffle(strands)
            for p, i in zip(positions, strands):
                target[p] = i
    for p in range(n):
        if arr[p] != target[p]:
            q = arr.index(target[p], p + 1)
            for r in range(q, p, -1):
                arr[r - 1], arr[r] = arr[r], arr[r - 1]
                letters.append(r * rng.choice((1, -1)))
    return _digital_braid(word, word, _braid_word(n, free_reduce(letters)))


def _braid_draw(
    context: GroupContext, steps: int, max_letters: int, rng: random.Random
) -> tuple[list[int], DigitalBraid]:
    """Up to `steps` random expansions of the base and a random braid on
    the leaf word they reach (pure in the pure flavor): the steps and the
    braid, with no forest built."""
    leaves, chosen = _draw_steps(context.drs, context.base, steps, rng)
    pure = context.flavor is Flavor.PURE_BRAIDED
    return chosen, _random_braid(leaves, max_letters, rng, pure)


def _forest_pair(
    context: GroupContext, steps: int, rng: random.Random
) -> tuple[ExpansionForest, ExpansionForest]:
    """T and S drawn with equal leaf words, S = T if none of 64 candidate
    draws matches; only T and the accepted S are built."""
    drs, base = context.drs, context.base
    top, t_steps = _draw_steps(drs, base, steps, rng)
    s_steps = t_steps
    for _ in range(64):
        leaves, cand = _draw_steps(drs, base, steps, rng)
        if leaves == top:
            s_steps = cand
            break
    t = forest_from_steps(drs, base, t_steps)
    return t, (t if s_steps is t_steps else forest_from_steps(drs, base, s_steps))


def random_element(
    context: GroupContext,
    budget: int,
    seed: int,
    max_braid_letters: int | None = None,
) -> FractionElement:
    """Deterministic pseudo-random element: the product of one to three
    pieces, each of at most `budget` expansion steps per forest and a
    bounded number of braid letters.  A piece is a forest pair with the
    identity braid (`_forest_pair`; every piece in the plain flavor) or
    a braid on one forest (`_braid_draw`).  The draws keep the labels and
    the flavor's braid condition, so each piece is built positionally, and
    the product starts from the first piece; the identity is drawn only at
    budget 0."""
    if budget < 0:
        raise FractionError("budget must be >= 0")
    if max_braid_letters is not None and max_braid_letters < 0:
        raise FractionError("max_braid_letters must be >= 0")
    rng = random.Random(seed)
    if budget == 0:
        return identity_element(context)
    if max_braid_letters is None:
        max_braid_letters = 2 * budget
    e: FractionElement | None = None
    for _ in range(rng.randint(1, 3)):
        steps = rng.randint(0, budget)
        if context.flavor is Flavor.PLAIN or rng.random() < 0.25:
            t, s = _forest_pair(context, steps, rng)
            piece = _element(context, t, DigitalBraid.identity(t.leaves()), s)
        else:
            chosen, g = _braid_draw(context, steps, max_braid_letters, rng)
            f = forest_from_steps(context.drs, context.base, chosen)
            piece = _element(context, f, g, f)
        e = piece if e is None else e * piece
    return e


# --- literals ------------------------------------------------------------------

_FRAC_RE = re.compile(
    r"frac\s+T=\[([^\]]*)\]\s+B=\[([^\]]*)\]\s+S=\[([^\]]*)\]"
)


def parse_element(context: GroupContext, text: str) -> FractionElement:
    m = _FRAC_RE.fullmatch(text.strip())
    if m is None:
        raise FractionError(
            f"bad element literal {text!r}; expected "
            "'frac T=[steps] B=[braid word] S=[steps]'"
        )
    try:
        t = forest_from_steps(context.drs, context.base, parse_steps(m.group(1)))
        s = forest_from_steps(context.drs, context.base, parse_steps(m.group(3)))
    except DrsError as exc:
        raise FractionError(str(exc)) from exc
    top = t.leaves()
    word = BraidWord.parse(len(top), m.group(2))
    braid = DigitalBraid(top, s.leaves(), word)
    return FractionElement(context, t, braid, s)


def format_element(e: FractionElement) -> str:
    return (
        f"frac T={format_steps(steps_of(e.T))} "
        f"B=[{e.g.word.format()}] "
        f"S={format_steps(steps_of(e.S))}"
    )
