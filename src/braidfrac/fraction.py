"""Groups of braided fractions of a digit rewriting system.

An element is a triple (T, g, S): two expansion forests with the same base
word and a digital braid from the leaves of T to the leaves of S, read as
the fraction T g S^{-1}.  Multiplication pushes the middle factors through a
common refinement: join the denominator of the left factor with the
numerator of the right factor, cable each braid along the complement it
meets, and graft the complements onto the outer forests.  Inversion swaps
the forests and inverts the braid.

Four flavors share this arithmetic.  Braided uses arbitrary digital braids,
PureBraided restricts to trivial strand permutations, Permutation keeps only
the permutation (such groups contain torsion, so order queries are refused),
and Plain forces the braid to be trivial.

The left order on the Braided flavor is braid-first: an element is positive
when its braid factor is Dehornoy-positive, with ties (trivial braid factor)
broken by the first-deviation sign of the PL realization of the forest
pair.  Triviality of the braid factor does not depend on the chosen
representative, so the case split is well defined.  One pass of the
lamination action (`braids.lamination_sign`, Dynnikov's criterion) decides
both the sign and the tie; it always terminates, so the step `budget` that
bounds handle reduction is not used here.  The PL sign, here and below, is
read straight off the two forests by `plmaps.realization_sign`; no map is
built.

The bi-order on the PureBraided flavor is quotient-first: the group splits
as a semidirect product of the kernel of the braid-forgetting projection by
the plain fraction group, and only the lexicographic order with the plain
quotient most significant is invariant on both sides (the braid-first cone
is a left order only, since conjugating a braid-free element generally
picks up a braid factor).  So a pure element is signed by the PL
realization of its forest pair first, and by the Magnus sign of its braid
factor when the forests agree; that sign is bounded by `degree_cap` alone.

The identity test needs no canonical form in any flavor: structurally
equal forests plus a trivial braid, decided by the lamination action,
which always terminates and so takes no budget.  Handle reduction
(`braids.dehornoy_sign`, bounded by its step budget) stays off the order
path as the independent oracle the tests and suites play against it.

Validation happens at the trust boundary: ``FractionElement(...)`` checks
sources, leaf words, the rewriting system and the flavor's braid condition,
and `parse_element` and the CLI's expressions go through it.  Products and
inverses are derived from checked elements by operations that keep them
valid, so they are built without re-validation (`drs._unchecked`).
"""

from __future__ import annotations

import enum
import random
import re
from dataclasses import dataclass

from .braids import (
    DEFAULT_STEP_BUDGET,
    BraidWord,
    DigitalBraid,
    act_bottom,
    free_reduce,
    lamination_sign,
    lamination_trivial,
)
from .drs import (
    DigitRewritingSystem,
    DrsError,
    ExpansionForest,
    ExpansionTree,
    Word,
    _unchecked,
    expand_at,
    forest_from_steps,
    forest_join,
    format_steps,
    graft,
    parse_steps,
    steps_of,
)
from .magnus import DEFAULT_DEGREE_CAP, pure_word_sign
from .ordering import Comparison, Sign
from .plmaps import realization_sign


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


@dataclass(frozen=True)
class GroupContext:
    drs: DigitRewritingSystem
    base: Word
    flavor: Flavor

    def __post_init__(self) -> None:
        if not self.base:
            raise FractionError("base word must be nonempty")
        self.drs.check_word(self.base)


@dataclass(frozen=True)
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
        if self.context != other.context:
            raise ContextMismatchError("elements live in different contexts")
        j, b, a = forest_join(self.S, other.T)
        bup, gb = act_bottom(self.g, b)
        aup, ha = act_bottom(other.g.invert(), a)
        return _unchecked(
            FractionElement,
            self.context,
            graft(self.T, bup),
            gb.compose(ha.invert()),
            graft(other.S, aup),
        )

    def invert(self) -> "FractionElement":
        return _unchecked(
            FractionElement, self.context, self.S, self.g.invert(), self.T
        )

    def is_identity(self, budget: int | None = None) -> bool:
        """Structurally equal forests and a trivial braid factor.

        Braid triviality is decided by the lamination action, which needs
        no step budget; `budget` is accepted for symmetry with `sign` and
        `compare`, and ignored.
        """
        if self.T != self.S:
            return False
        if self.context.flavor is Flavor.PERMUTATION:
            return self.g.is_pure()
        return lamination_trivial(self.g.word)

    # -- order --

    def sign(
        self,
        degree_cap: int = DEFAULT_DEGREE_CAP,
        budget: int = DEFAULT_STEP_BUDGET,
    ) -> Sign:
        """Sign of the element in its flavor's order.

        Braided: the Dehornoy sign of the braid factor, read off its
        Dynnikov coordinates in one pass (`lamination_sign`), and the PL
        sign of the forest pair when the braid is trivial.  Pure: the PL
        sign first, then the Magnus sign of the braid factor, bounded by
        `degree_cap` (DegreeCapExceeded).  Plain: the PL sign.  The PL sign
        is `realization_sign(T, S)`, read off the two forests without
        building the PL map.  `budget`, the handle-reduction step budget,
        is accepted and ignored: no flavor's sign runs handle reduction.
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
            q = realization_sign(self.T, self.S)
            if q is not Sign.ZERO:
                return q
            return pure_word_sign(
                self.g.word.letters, self.g.word.strands, degree_cap
            )
        s = lamination_sign(self.g.word)
        if s is not Sign.ZERO:
            return s
        return realization_sign(self.T, self.S)

    def compare(
        self,
        other: "FractionElement",
        degree_cap: int = DEFAULT_DEGREE_CAP,
        budget: int = DEFAULT_STEP_BUDGET,
    ) -> Comparison:
        """LESS when self < other, that is, when self^-1 * other is
        positive.  `degree_cap` bounds the pure sign; `budget` is ignored,
        as in `sign`."""
        diff = self.invert() * other
        s = diff.sign(degree_cap=degree_cap, budget=budget)
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
        return self.psi_project().is_identity()

    # -- size control --

    def normalize(self) -> "FractionElement":
        e = self
        while True:
            cancelled = _cancel_once(e)
            if cancelled is None:
                return e
            e = cancelled


def identity_element(context: GroupContext) -> FractionElement:
    f = ExpansionForest.identity(context.drs, context.base)
    return FractionElement(context, f, DigitalBraid.identity(context.base), f)


# --- caret cancellation ------------------------------------------------------

def _collect_internal(
    forest: ExpansionForest,
) -> list[tuple[int, ExpansionTree, tuple[int, ...]]]:
    items: list[tuple[int, ExpansionTree, tuple[int, ...]]] = []

    def walk(node: ExpansionTree, path: tuple[int, ...], start: int) -> None:
        if not node.children:
            return
        items.append((start, node, path))
        off = start
        for ci, child in enumerate(node.children):
            walk(child, path + (ci,), off)
            off += child.leaf_count

    off = 0
    for ti, tree in enumerate(forest.trees):
        walk(tree, (ti,), off)
        off += tree.leaf_count
    return items


def _replace_by_leaf(
    forest: ExpansionForest, path: tuple[int, ...]
) -> ExpansionForest:
    def rebuild(node: ExpansionTree, rest: tuple[int, ...]) -> ExpansionTree:
        if not rest:
            return ExpansionTree(node.label)
        ci = rest[0]
        children = list(node.children)
        children[ci] = rebuild(children[ci], rest[1:])
        return ExpansionTree(node.label, tuple(children))

    trees = list(forest.trees)
    trees[path[0]] = rebuild(trees[path[0]], path[1:])
    return ExpansionForest(forest.drs, tuple(trees))


def _uninvolved_positions(word: BraidWord) -> set[int]:
    """Top positions of strands that appear in no crossing (and hence never
    move)."""
    arr = list(range(1, word.strands + 1))
    involved: set[int] = set()
    for d in word.letters:
        k = abs(d)
        involved.add(arr[k - 1])
        involved.add(arr[k])
        arr[k - 1], arr[k] = arr[k], arr[k - 1]
    return set(range(1, word.strands + 1)) - involved


def _cancel_once(e: FractionElement) -> FractionElement | None:
    quiet = _uninvolved_positions(e.g.word)
    t_items = _collect_internal(e.T)
    s_map = {(start, node): path for start, node, path in _collect_internal(e.S)}
    t_items.sort(key=lambda item: -item[1].leaf_count)
    for start, node, t_path in t_items:
        s_path = s_map.get((start, node))
        if s_path is None:
            continue
        w = node.leaf_count
        if not all(p in quiet for p in range(start + 1, start + w + 1)):
            continue
        new_t = _replace_by_leaf(e.T, t_path)
        new_s = _replace_by_leaf(e.S, s_path)
        letters = tuple(
            (abs(d) - (w - 1) if abs(d) > start + w else abs(d))
            * (1 if d > 0 else -1)
            for d in e.g.word.letters
        )
        n = e.g.word.strands - w + 1
        braid = DigitalBraid(
            new_t.leaves(), new_s.leaves(), BraidWord(max(n, 1), letters)
        )
        return FractionElement(e.context, new_t, braid, new_s)
    return None


# --- random generation --------------------------------------------------------

def _grow_forest(
    drs: DigitRewritingSystem, word: Word, steps: int, rng: random.Random
) -> ExpansionForest:
    f = ExpansionForest.identity(drs, word)
    for _ in range(steps):
        positions = [
            p
            for p, letter in enumerate(f.leaves(), start=1)
            if drs.rule_for(letter) is not None
        ]
        if not positions:
            break
        f = expand_at(f, rng.choice(positions))
    return f


def _label_preserving_target(
    word: Word, rng: random.Random, pure: bool
) -> list[int]:
    """A final arrangement (position -> strand id) preserving labels."""
    n = len(word)
    if pure:
        return list(range(1, n + 1))
    classes: dict[str, list[int]] = {}
    for i, a in enumerate(word, start=1):
        classes.setdefault(a, []).append(i)
    target = [0] * n
    for positions in classes.values():
        strands = positions[:]
        rng.shuffle(strands)
        for p, i in zip(positions, strands):
            target[p - 1] = i
    return target


def _steer_to_target(
    arr: list[int], target: list[int], rng: random.Random
) -> list[int]:
    """Adjacent swaps (as signed generator letters) turning arrangement
    `arr` into `target`."""
    arr = arr[:]
    letters: list[int] = []
    for p in range(len(arr)):
        if arr[p] == target[p]:
            continue
        q = arr.index(target[p], p + 1)
        for r in range(q, p, -1):
            arr[r - 1], arr[r] = arr[r], arr[r - 1]
            letters.append(r * rng.choice((1, -1)))
    return letters


def _random_braid(
    word: Word, max_letters: int, rng: random.Random, pure: bool
) -> DigitalBraid:
    """Random digital braid from `word` to itself: up to `max_letters`
    random crossings, then adjacent swaps onto a random label-preserving
    arrangement (the identity arrangement if `pure`)."""
    n = len(word)
    letters: list[int] = []
    if n >= 2 and max_letters > 0:
        for _ in range(rng.randint(0, max_letters)):
            letters.append(rng.randint(1, n - 1) * rng.choice((1, -1)))
    arr = list(range(1, n + 1))
    for d in letters:
        k = abs(d)
        arr[k - 1], arr[k] = arr[k], arr[k - 1]
    target = _label_preserving_target(word, rng, pure)
    letters.extend(_steer_to_target(arr, target, rng))
    return DigitalBraid(
        word, word, BraidWord(max(n, 1), free_reduce(tuple(letters)))
    )


def _braid_piece(
    context: GroupContext, steps: int, max_letters: int, rng: random.Random
) -> FractionElement:
    f = _grow_forest(context.drs, context.base, steps, rng)
    pure = context.flavor is Flavor.PURE_BRAIDED
    return FractionElement(
        context, f, _random_braid(f.leaves(), max_letters, rng, pure), f
    )


def _plain_piece(
    context: GroupContext, steps: int, rng: random.Random
) -> FractionElement:
    t = _grow_forest(context.drs, context.base, steps, rng)
    s = t
    for _ in range(64):
        cand = _grow_forest(context.drs, context.base, steps, rng)
        if cand.leaves() == t.leaves():
            s = cand
            break
    return FractionElement(
        context, t, DigitalBraid.identity(t.leaves()), s
    )


def random_element(
    context: GroupContext,
    budget: int,
    seed: int,
    max_braid_letters: int | None = None,
) -> FractionElement:
    """Deterministic pseudo-random element: at most `budget` expansion steps
    per forest piece and a bounded number of braid letters."""
    if budget < 0:
        raise FractionError("budget must be >= 0")
    rng = random.Random(seed)
    e = identity_element(context)
    if budget == 0:
        return e
    if max_braid_letters is None:
        max_braid_letters = 2 * budget
    for _ in range(rng.randint(1, 3)):
        steps = rng.randint(0, budget)
        if context.flavor is Flavor.PLAIN or rng.random() < 0.25:
            piece = _plain_piece(context, steps, rng)
        else:
            piece = _braid_piece(context, steps, max_braid_letters, rng)
        e = e * piece
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
    word = BraidWord.parse(max(len(top), 1), m.group(2))
    braid = DigitalBraid(top, s.leaves(), word)
    return FractionElement(context, t, braid, s)


def format_element(e: FractionElement) -> str:
    return (
        f"frac T={format_steps(steps_of(e.T))} "
        f"B=[{e.g.word.format()}] "
        f"S={format_steps(steps_of(e.S))}"
    )
