"""Digit rewriting systems and their category of expansions.

A digit rewriting system over a finite alphabet has at most one rule per
letter, and every rule replaces a letter by a word of length at least two.
Rewriting only ever touches a single position, so two rewritings at disjoint
positions commute; consequently a morphism of the expansion category is
faithfully recorded by an *expansion forest*: one rooted labeled tree per
letter of the source word, where an internal node labeled ``a`` has children
labeled by the right side of the rule for ``a``.  The leaves of the forest,
read left to right, spell the target word.  Equal forests are exactly equal
morphisms.

Trees are hash-consed: ``ExpansionTree(label, children)`` returns the one
live tree for that key, so equal trees are one object, and ``==`` and
``hash`` of trees are those of identity.  The children in a key are already
interned, so the key hashes by their identities, and neither a lookup nor
``==``, ``hash`` or ``repr`` of a tree or forest recurses, however deep the
tree.  The table holds each tree through a weak reference whose callback
drops the tree's entry, so it keeps no dead tree alive; copying and
unpickling a tree go back through it.  The table takes no lock: two
threads making the same tree at once could make two objects of it.

The category is cancellative and admits common right multiples: the join of
two forests with the same source is their pointwise tree union (a node is
expanded in the join iff it is expanded in either argument; this is well
defined because each letter carries at most one rule), and the complements are
obtained by structural tree subtraction.  These are the ingredients needed to
form groups of fractions further up the stack.  `complement` subtracts one
forest from a given upper bound.  The complements into the join come from
one walk of the two forests (`_complements`), which never builds the join
and yields the complement trees only: a caller reads each tree's
`leaf_count` and leaves off the tree itself.  `forest_join` and the product
of fractions both use it, `forest_join` builds the join as the graft of one
complement onto its forest, and `complement` is the reference.
`complement` and `forest_join` share one root check (`_check_roots`): the
two forests must belong to one system and have the same roots, in that
order of precedence, before either walks.
Both walks recurse by rows of siblings in module-level functions (no
closure, so no reference cycle).  They make one call per node that both
forests expand, which in `complement` is every node `sub` expands, and
handle leaves inline in the loop over their row.  On the small trees these
groups multiply (a root or a few, a handful of leaves) that beats an
explicit stack, whose pushes and pops cost more than the calls they save.

Positions in step sequences are 1-based: ``[2, 1]`` means "expand the letter
at position 2 of the source word, then the letter at position 1 of the
resulting word".  `forest_from_steps` is the one builder of a forest from a
word and a step list, in one pass over mutable cells that are frozen at the
end; ``identity`` and `expand_at` are calls to it.  The random draw
(``fraction._draw_steps``) and `forest_with_leaves` work on leaf words, and
build only the forests they keep.  `enumerate_expansions` makes each forest
once from rows of trees.  `_nodes` is the one walk that places the internal
nodes of a forest: each with the leaves left of it, outermost-first.
`steps_of` reads its step list off it, the ``ExpansionForest(...)`` check
runs over it, and ``normalize`` walks it; `_pruned` rebuilds a forest with
some of those nodes made leaves by leaving their subtrees' steps out, so no
operation copies the path down to one node.

Every value type of the library is a frozen, slotted dataclass, and its
derived data is a field computed once, at construction: a tree's
`leaf_count` is the sum of its children's (1 for a leaf), set in its
``__new__`` when the tree is first made, and a system's `rule_map` is
filled by the loop in its ``__post_init__`` that checks its rules.  Neither
takes part in ``==``, ``hash`` or ``repr``.  The one leaf walk,
`_leaf_nodes`, reads carets through `leaf_count`: a node whose
`leaf_count` equals its number of children has only leaves below it, and
the walk takes its children as they are.

Validation happens at the trust boundary: the public constructors
(``ExpansionForest(...)`` here, ``BraidWord``, ``DigitalBraid`` and
``FractionElement`` further up) and the parsers, which all go through them,
check every value handed in (a forest's trees and a tree's children must
be `ExpansionTree` objects and a system's rules `RewriteRule` objects),
and store each sequence field as a tuple, so a value built from lists
equals and hashes like one built from tuples; a tree's children are
checked on a table miss only, as the sum of their `leaf_count`, since a
table hit holds checked children already, and a label or child that
cannot be hashed fails the table lookup itself, which turns its
`TypeError` into `DrsError`.
`forest_from_steps` checks the word and each
step as it applies it, so every tree it freezes follows the rules.  The
library's own operations (`graft`, `complement`, `forest_join`, their
counterparts in ``braids`` and ``fraction``, and the random draws) build
their results from values already checked, by rules that keep them valid,
so they skip re-validation:
each class they build this way has one positional constructor beside it,
made once by `_constructor` (here `_forest`), which sets the fields through
their slot descriptors.  Trees have one too, `_new_tree`, but only
``ExpansionTree.__new__`` calls it, on a table miss, with the `leaf_count`
it has summed, so every tree still goes through the table.
`_constructor` refuses a class whose ``__post_init__`` sets a derived
field, so a system is always built by its public constructor.  The
one mix their inputs cannot rule out, forests of two different rewriting
systems, is refused by a cheap `SystemMismatchError` guard.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from itertools import accumulate
from typing import TypeVar
from weakref import KeyedRef

Word = tuple[str, ...]

_LETTER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class DrsError(ValueError):
    """Base class for digit-rewriting-system errors."""


class DrsParseError(DrsError):
    """Malformed DRS file text."""


class SourceMismatchError(DrsError):
    """Two morphisms were combined along non-matching words."""


class NotAnUpperBoundError(DrsError):
    """Complement requested into a forest that is not an upper bound."""


class SystemMismatchError(DrsError):
    """Forests of different rewriting systems were combined."""


_T = TypeVar("_T")
_set_field = object.__setattr__  # past the frozen dataclasses' guard


def _constructor(cls: type[_T]) -> Callable[..., _T]:
    """A positional constructor of the slotted dataclass `cls`, made once
    per class: it sets each field through its slot descriptor, without
    running `__init__` and so without the `__post_init__` validation.  Only
    for values derived by the library's own operations from values that
    were already checked.  A class with a derived (``init=False``) field
    and a `__post_init__` is refused, since that `__post_init__` is what
    sets the field; a tree, whose derived `leaf_count` no `__post_init__`
    sets, gets one that its public constructor calls on a table miss.  The
    2-, 3- and 4-field cases are unrolled, so a call runs no loop."""
    fields = cls.__dataclass_fields__.values()
    if hasattr(cls, "__post_init__") and not all(f.init for f in fields):
        raise TypeError(f"{cls.__name__} has a derived field")
    new = object.__new__
    setters = [cls.__dict__[f.name].__set__ for f in fields]
    if len(setters) == 2:
        set0, set1 = setters

        def make(a, b):
            obj = new(cls)
            set0(obj, a)
            set1(obj, b)
            return obj

    elif len(setters) == 3:
        set0, set1, set2 = setters

        def make(a, b, c):
            obj = new(cls)
            set0(obj, a)
            set1(obj, b)
            set2(obj, c)
            return obj

    elif len(setters) == 4:
        set0, set1, set2, set3 = setters

        def make(a, b, c, d):
            obj = new(cls)
            set0(obj, a)
            set1(obj, b)
            set2(obj, c)
            set3(obj, d)
            return obj

    else:
        raise TypeError(f"{cls.__name__} has {len(setters)} fields, not 2 to 4")
    return make


@dataclass(frozen=True, slots=True)
class RewriteRule:
    lhs: str
    rhs: Word

    def __post_init__(self) -> None:
        _set_field(self, "rhs", tuple(self.rhs))
        if len(self.rhs) < 2:
            raise DrsError(
                f"rule {self.lhs} -> {' '.join(self.rhs)}: right side must "
                f"have length >= 2, got {len(self.rhs)}"
            )


@dataclass(frozen=True, slots=True)
class DigitRewritingSystem:
    alphabet: tuple[str, ...]
    rules: tuple[RewriteRule, ...]
    base: Word = ()  # optional default base word
    rule_map: dict[str, RewriteRule] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("alphabet", "rules", "base"):
            _set_field(self, name, tuple(getattr(self, name)))
        seen: set[str] = set()
        for a in self.alphabet:
            if not _LETTER_RE.match(a):
                raise DrsError(f"invalid letter name {a!r}")
            if a in seen:
                raise DrsError(f"duplicate letter {a!r} in alphabet")
            seen.add(a)
        rule_map: dict[str, RewriteRule] = {}
        for r in self.rules:
            if not isinstance(r, RewriteRule):
                raise DrsError(f"rule {r!r} is not a RewriteRule")
            if r.lhs not in seen:
                raise DrsError(f"rule for unknown letter {r.lhs!r}")
            if r.lhs in rule_map:
                raise DrsError(f"duplicate rule for letter {r.lhs!r}")
            rule_map[r.lhs] = r
            for u in r.rhs:
                if u not in seen:
                    raise DrsError(f"unknown letter {u!r} in rule for {r.lhs!r}")
        for a in self.base:
            if a not in seen:
                raise DrsError(f"unknown letter {a!r} in base word")
        _set_field(self, "rule_map", rule_map)

    def check_word(self, word: Word) -> Word:
        for a in word:
            if a not in self.alphabet:
                raise DrsError(f"unknown letter {a!r}")
        return word


class _Weakrefable:
    """A base that gives a slotted dataclass a weak-reference slot, which
    ``weakref_slot=True`` does only from Python 3.11 on."""

    __slots__ = ("__weakref__",)


@dataclass(frozen=True, slots=True, eq=False, init=False, repr=False)
class ExpansionTree(_Weakrefable):
    """One tree of an expansion forest; there is one live object per
    ``(label, children)``, so ``==`` and ``hash`` are those of identity."""

    label: str
    children: tuple["ExpansionTree", ...] = ()
    leaf_count: int = field(init=False)

    def __new__(
        cls, label: str, children: tuple["ExpansionTree", ...] = ()
    ) -> "ExpansionTree":
        if children.__class__ is not tuple:
            children = tuple(children)
        key = (label, children)
        try:
            ref = _tree_refs.get(key)
        except TypeError:  # an unhashable label or child
            for c in children:
                if not isinstance(c, ExpansionTree):
                    raise DrsError(f"child {c!r} is not an ExpansionTree") from None
            raise DrsError(f"label {label!r} is not hashable") from None
        if ref is not None:
            tree = ref()
            if tree is not None:
                return tree
        n = 0  # a loop beats `sum` on these short rows
        try:
            for c in children:
                n += c.leaf_count
        except (AttributeError, TypeError):
            raise DrsError(f"child {c!r} is not an ExpansionTree") from None
        tree = _new_tree(label, children, n or 1)  # 1 for a leaf
        _tree_refs[key] = KeyedRef(tree, _drop_tree_ref, key)
        return tree

    def __reduce__(self):
        # copies and unpickled trees come back through the table
        return ExpansionTree, (self.label, self.children)

    def __repr__(self) -> str:
        # the dataclass form, written from a stack rather than by recursion
        out: list[str] = []
        stack: list[ExpansionTree | str] = [self]
        while stack:
            item = stack.pop()
            if item.__class__ is str:
                out.append(item)
                continue
            out.append(f"ExpansionTree(label={item.label!r}, children=(")
            kids = item.children
            stack.append(",))" if len(kids) == 1 else "))")
            for kid in reversed(kids[1:]):
                stack += (kid, ", ")
            stack += kids[:1]
        return "".join(out)


_tree_refs: dict[tuple[str, tuple[ExpansionTree, ...]], KeyedRef] = {}
_new_tree = _constructor(ExpansionTree)


def _drop_tree_ref(ref: KeyedRef) -> None:
    """Drop a dead tree's entry from the table, unless the entry is already
    a newer tree's."""
    if _tree_refs.get(ref.key) is ref:
        del _tree_refs[ref.key]


@dataclass(frozen=True, slots=True)
class ExpansionForest:
    drs: DigitRewritingSystem
    trees: tuple[ExpansionTree, ...]

    def __post_init__(self) -> None:
        _set_field(self, "trees", tuple(self.trees))
        for t in self.trees:
            if not isinstance(t, ExpansionTree):
                raise DrsError(f"tree {t!r} is not an ExpansionTree")
        self.drs.check_word(self.source)
        rules = self.drs.rule_map
        for _, node in _nodes(self.trees):
            rule = rules.get(node.label)
            if rule is None:
                raise DrsError(f"letter {node.label!r} has no rule but is expanded")
            labels = tuple(c.label for c in node.children)
            if labels != rule.rhs:
                raise DrsError(
                    f"children of {node.label!r} are {labels}, rule says {rule.rhs}"
                )

    @property
    def source(self) -> Word:
        return tuple(t.label for t in self.trees)

    def leaves(self) -> Word:
        return _leaf_labels(self.trees)

    def leaf_count(self) -> int:
        return sum(t.leaf_count for t in self.trees)

    @classmethod
    def identity(cls, drs: DigitRewritingSystem, word: Word) -> "ExpansionForest":
        return forest_from_steps(drs, word, ())


_forest = _constructor(ExpansionForest)


def _leaf_nodes(trees: Sequence[ExpansionTree]) -> list[ExpansionTree]:
    """The leaves of the trees `trees`, left to right, by a stack walk.  A
    caret, a node whose `leaf_count` equals its number of children, has
    only leaves as children (every rule's right side has two letters or
    more, so an internal node has at least two leaves), and the walk takes
    them as they are, without pushing them."""
    out: list[ExpansionTree] = []
    stack = list(reversed(trees))
    while stack:
        t = stack.pop()
        kids = t.children
        if not kids:
            out.append(t)
        elif t.leaf_count == len(kids):
            out += kids
        else:
            stack.extend(reversed(kids))
    return out


def _leaf_labels(trees: Sequence[ExpansionTree]) -> Word:
    """The labels of the leaves of the trees `trees`, left to right."""
    return tuple([t.label for t in _leaf_nodes(trees)])


def _check_same_system(a: ExpansionForest, b: ExpansionForest) -> None:
    if a.drs is not b.drs and a.drs != b.drs:
        raise SystemMismatchError(
            "forests belong to different rewriting systems"
        )


def _check_roots(a: ExpansionForest, b: ExpansionForest) -> None:
    """Refuse forests of two rewriting systems, then forests whose roots
    (their sources) differ.  The root labels are compared directly; the
    source tuples are built only for the message."""
    if a.drs is not b.drs:
        _check_same_system(a, b)
    a_trees, b_trees = a.trees, b.trees
    i = len(a_trees)
    same = i == len(b_trees)
    while same and i:
        i -= 1
        same = a_trees[i].label == b_trees[i].label
    if not same:
        raise SourceMismatchError(f"sources differ: {a.source} vs {b.source}")


def _graft_row(
    row: tuple[ExpansionTree, ...],
    trees: list[ExpansionTree] | tuple[ExpansionTree, ...],
    start: int,
    deep: list[int],
) -> tuple[ExpansionTree, ...]:
    """The trees of `row`, whose leaves are leaves start+1.. of their
    forest, with each leaf replaced by its tree in `trees`; a tree under
    which every grafted tree is a leaf is kept as it is.  deep[i] counts
    the non-leaf trees in trees[:i]."""
    out = []
    for t in row:
        end = start + t.leaf_count
        if deep[end] == deep[start]:
            out.append(t)
        elif not t.children:
            out.append(trees[start])
        else:
            out.append(
                ExpansionTree(t.label, _graft_row(t.children, trees, start, deep))
            )
        start = end
    return tuple(out)


def _graft(
    first: ExpansionForest, trees: list[ExpansionTree] | tuple[ExpansionTree, ...]
) -> ExpansionForest:
    """`first` with its i-th leaf replaced by trees[i], each rooted at that
    leaf's label; `first` itself when every tree is a leaf."""
    deep = [0, *accumulate(1 if t.children else 0 for t in trees)]
    if not deep[-1]:
        return first
    return _forest(first.drs, _graft_row(first.trees, trees, 0, deep))


def graft(first: ExpansionForest, second: ExpansionForest) -> ExpansionForest:
    """Compose expansions: replace the i-th leaf of `first` by the i-th tree
    of `second`."""
    _check_same_system(first, second)
    if first.leaves() != second.source:
        raise SourceMismatchError(
            f"leaves {first.leaves()} do not match source {second.source}"
        )
    return _graft(first, second.trees)


def _join_row(
    s_row: tuple[ExpansionTree, ...],
    t_row: tuple[ExpansionTree, ...],
    b_trees: list[ExpansionTree],
    a_trees: list[ExpansionTree],
) -> None:
    """The walk of `_complements` over one row of matching siblings, left
    to right, appending complement trees, and nothing else, to `b_trees`
    and `a_trees`; one call per row, so one per node that both forests
    expand.  Module-level, so the recursion leaves no reference cycle."""
    i = 0
    for s in s_row:  # indexing `t_row` is cheaper than a zip on such short rows
        t = t_row[i]
        i += 1
        if not s.children:
            # t is B's tree here, and each of its leaves, t itself when t
            # is a leaf (equal leaves are one object), is one of A's
            b_trees.append(t)
            if t.children:
                a_trees += _leaf_nodes(t.children)
            else:
                a_trees.append(t)
        elif not t.children:
            a_trees.append(s)
            b_trees += _leaf_nodes(s.children)
        else:
            _join_row(s.children, t.children, b_trees, a_trees)


def _complements(
    s_trees: tuple[ExpansionTree, ...], t_trees: tuple[ExpansionTree, ...]
) -> tuple[list[ExpansionTree], list[ExpansionTree]]:
    """The complement trees B and A of two forests s, t with the same source
    into their join J, graft(s, B) = graft(t, A) = J, from one walk of the
    two forests; J is not built, and the walk yields trees only, whose
    leaves and `leaf_count` the caller reads as it needs them.

    Where both forests expand a node, the walk descends.  Where s has a
    leaf, J carries t's subtree there: that subtree is B's tree of the
    leaf, and each of its leaves, gathered by one stack loop, is a one-leaf
    tree of A; where both have a leaf, that is one object, a one-leaf tree
    of each.  Where only t has a leaf, the same holds with the roles
    swapped.  The trees are the nodes of s and t themselves, as
    `complement(s, J)` and `complement(t, J)` give them.  The walk
    (`_join_row`) makes one call per node that both forests expand.
    """
    b_trees: list[ExpansionTree] = []
    a_trees: list[ExpansionTree] = []
    _join_row(s_trees, t_trees, b_trees, a_trees)
    return b_trees, a_trees


def _complement_row(
    subs: tuple[ExpansionTree, ...],
    fulls: tuple[ExpansionTree, ...],
    out: list[ExpansionTree],
) -> None:
    """Append to `out` the subtree of each of `fulls` under each leaf of
    the matching tree of `subs`, left to right; one call per row, so one
    per node that `subs` expands.  Module-level, so the recursion leaves no
    reference cycle."""
    i = 0
    for s in subs:  # indexing `fulls` is cheaper than a zip on such short rows
        f = fulls[i]
        i += 1
        if not s.children:
            out.append(f)
        elif not f.children:
            raise NotAnUpperBoundError(
                f"node {s.label!r} is expanded in the smaller forest only"
            )
        else:
            _complement_row(s.children, f.children, out)


def complement(sub: ExpansionForest, full: ExpansionForest) -> ExpansionForest:
    """The forest C with graft(sub, C) = full; errors if sub is not below
    full.  All roots are compared before the walk, so a source mismatch is
    reported before a node that only `sub` expands."""
    _check_roots(sub, full)
    out: list[ExpansionTree] = []
    _complement_row(sub.trees, full.trees, out)
    return _forest(sub.drs, tuple(out))


def forest_join(
    s: ExpansionForest, t: ExpansionForest
) -> tuple[ExpansionForest, ExpansionForest, ExpansionForest]:
    """Least common upper bound J of two forests with the same source,
    together with the complements B, A satisfying graft(s, B) = graft(t, A)
    = J."""
    _check_roots(s, t)
    b, a = _complements(s.trees, t.trees)
    return _graft(s, b), _forest(s.drs, tuple(b)), _forest(s.drs, tuple(a))


def expand_at(forest: ExpansionForest, position: int) -> ExpansionForest:
    """Apply the rule at the 1-based leaf `position` of the current target
    word."""
    return forest_from_steps(forest.drs, forest.source, [*steps_of(forest), position])


def forest_from_steps(
    drs: DigitRewritingSystem, word: Word, steps: list[int] | tuple[int, ...]
) -> ExpansionForest:
    """The forest with source `word` that the 1-based `steps` expand, built
    in one pass.  Each node is first a mutable cell ``[label, child
    cells]``; a step splices the cells of the rule's right side in place of
    the leaf at its position.  The cells are then frozen in reverse order of
    making: a cell is made after its parent, so its children are frozen
    before it, with no recursion and no reference cycle."""
    drs.check_word(word)
    rules = drs.rule_map
    cells: list[list] = [[a, ()] for a in word]
    leaves = cells[:]
    for p in steps:
        if not 1 <= p <= len(leaves):
            raise DrsError(f"position {p} out of range 1..{len(leaves)}")
        leaf = leaves[p - 1]
        rule = rules.get(leaf[0])
        if rule is None:
            raise DrsError(f"letter {leaf[0]!r} at position {p} has no rule")
        kids = [[u, ()] for u in rule.rhs]
        leaf[1] = kids
        leaves[p - 1 : p] = kids
        cells += kids
    for cell in reversed(cells):  # cell[0] becomes the cell's frozen tree
        cell[0] = ExpansionTree(cell[0], tuple([k[0] for k in cell[1]]))
    return _forest(drs, tuple(c[0] for c in cells[: len(word)]))


def _nodes(trees: tuple[ExpansionTree, ...]) -> list[tuple[int, ExpansionTree]]:
    """Every internal node of the forest `trees` with the number of leaves
    left of it, outermost-first and left to right: a node comes after its
    ancestors and everything left of it, and the nodes of its subtree
    follow it one after another, before any node right of it.  So the
    leaves left of a node are the leaves the walk has passed."""
    out: list[tuple[int, ExpansionTree]] = []
    left = 0
    stack = list(reversed(trees))
    while stack:
        tree = stack.pop()
        if tree.children:
            out.append((left, tree))
            stack.extend(reversed(tree.children))
        else:
            left += 1
    return out


def steps_of(forest: ExpansionForest) -> list[int]:
    """A step sequence replaying to `forest` (outermost-first, left to
    right).  Every node left of a node is expanded before it, so its step
    is the position of its first leaf in the forest itself."""
    return [left + 1 for left, _ in _nodes(forest.trees)]


def _pruned(forest: ExpansionForest, cuts: set[tuple[int, int]]) -> ExpansionForest:
    """`forest` with each node made a leaf whose leaves left of it and
    width are a pair of `cuts`; no cut lies under another.  In the
    outermost-first step list the steps of a cut node's subtree follow its
    own, so all of them are skipped, and every later step lies right of
    the node and moves w - 1 leaves left, w its width."""
    steps: list[int] = []
    end = shift = 0
    for left, node in _nodes(forest.trees):
        if left < end:
            continue  # under the last cut
        w = node.leaf_count
        if (left, w) in cuts:
            end = left + w
            shift += w - 1
        else:
            steps.append(left + 1 - shift)
    return forest_from_steps(forest.drs, forest.source, steps)


def _expandable(drs: DigitRewritingSystem, word: Word) -> list[int]:
    """The 1-based positions of `word` whose letter has a rule, in order."""
    rules = drs.rule_map
    return [p for p, a in enumerate(word, start=1) if a in rules]


def _trees(drs: DigitRewritingSystem, label: str, budget: int):
    """Every tree rooted at `label` with at most `budget` internal nodes,
    each with its number of internal nodes."""
    yield ExpansionTree(label), 0
    rule = drs.rule_map.get(label)
    if budget and rule is not None:
        for row, used in _rows(drs, rule.rhs, budget - 1):
            yield ExpansionTree(label, row), used + 1


def _rows(drs: DigitRewritingSystem, labels: Word, budget: int):
    """Every row of trees rooted at `labels` with at most `budget` internal
    nodes in all, each with that number; each tree expands at most what
    the trees left of it leave of the budget."""
    if not labels:
        yield (), 0
        return
    for tree, used in _trees(drs, labels[0], budget):
        for row, more in _rows(drs, labels[1:], budget - used):
            yield (tree, *row), used + more


def enumerate_expansions(
    drs: DigitRewritingSystem, word: Word, depth: int
) -> set[ExpansionForest]:
    """All forests with the given source and at most `depth` rule
    applications, each built once."""
    if depth < 0:
        raise DrsError("depth must be >= 0")
    drs.check_word(word)
    return {_forest(drs, row) for row, _ in _rows(drs, word, depth)}


def forest_with_leaves(
    drs: DigitRewritingSystem, base: Word, target: Word
) -> ExpansionForest | None:
    """Breadth-first search for a forest with the given source and leaf
    word; None if the target is not reachable.  The search runs over leaf
    words, keeping the steps of the first visit to each, and builds one
    forest at the end.  That is the forest a search over forests finds
    first: its parent is the first forest found with the parent's leaf
    word, and so on up to the source."""
    drs.check_word(base)
    rules = drs.rule_map
    seen = {base}
    queue: list[tuple[Word, list[int]]] = [(base, [])]
    for word, steps in queue:  # the loop reaches what it appends
        if word == target:
            return forest_from_steps(drs, base, steps)
        if len(word) < len(target):
            for p in _expandable(drs, word):
                nxt = word[: p - 1] + rules[word[p - 1]].rhs + word[p:]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append((nxt, [*steps, p]))
    return None


def _content_lines(text: str):
    """Yield each line of a system file that holds more than a ``#``
    comment, as (1-based line number, the line without its comment,
    stripped); the one reader of the syntax `parse_drs` and
    ``families.parse_edge_shift`` share."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_drs(text: str) -> DigitRewritingSystem:
    """Parse the line-based DRS file format.

    ``alphabet: x y1 y2``, ``rule: y1 -> y1 x`` (one per line), optional
    ``base: y1 y2``; ``#`` starts a comment.
    """
    alphabet: tuple[str, ...] | None = None
    rules: list[RewriteRule] = []
    base: Word | None = None
    for lineno, line in _content_lines(text):
        if line.startswith("alphabet:"):
            if alphabet is not None:
                raise DrsParseError(f"line {lineno}: duplicate alphabet line")
            alphabet = tuple(line[len("alphabet:"):].split())
            if not alphabet:
                raise DrsParseError(f"line {lineno}: empty alphabet")
        elif line.startswith("rule:"):
            body = line[len("rule:"):]
            if "->" not in body:
                raise DrsParseError(f"line {lineno}: rule must contain '->'")
            lhs_part, rhs_part = body.split("->", 1)
            lhs_tokens = lhs_part.split()
            rhs = tuple(rhs_part.split())
            if len(lhs_tokens) != 1:
                raise DrsParseError(
                    f"line {lineno}: rule left side must be a single letter"
                )
            try:
                rules.append(RewriteRule(lhs_tokens[0], rhs))
            except DrsError as exc:
                raise DrsParseError(f"line {lineno}: {exc}") from exc
        elif line.startswith("base:"):
            if base is not None:
                raise DrsParseError(f"line {lineno}: duplicate base line")
            base = tuple(line[len("base:"):].split())
        else:
            raise DrsParseError(
                f"line {lineno}: expected 'alphabet:', 'rule:' or 'base:'"
            )
    if alphabet is None:
        raise DrsParseError("missing alphabet line")
    try:
        return DigitRewritingSystem(alphabet, tuple(rules), base or ())
    except DrsError as exc:
        raise DrsParseError(str(exc)) from exc


def parse_steps(text: str) -> list[int]:
    """Parse a forest literal body: positions separated by whitespace or
    commas."""
    tokens = text.replace(",", " ").split()
    try:
        return [int(t) for t in tokens]
    except ValueError as exc:
        raise DrsParseError(f"bad step list {text!r}") from exc


def format_steps(steps: list[int]) -> str:
    return "[" + " ".join(str(p) for p in steps) + "]"
