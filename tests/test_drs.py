"""Expansion forests: grafting, complements, joins, step serialization."""

from __future__ import annotations

import copy
import gc
import pickle
import random
from collections import deque
from dataclasses import dataclass
from itertools import product
from weakref import KeyedRef

import pytest

from braidfrac.drs import (
    DigitRewritingSystem,
    DrsError,
    DrsParseError,
    ExpansionForest,
    ExpansionTree,
    NotAnUpperBoundError,
    RewriteRule,
    SourceMismatchError,
    SystemMismatchError,
    _constructor,
    _drop_tree_ref,
    _leaf_nodes,
    _nodes,
    _pruned,
    _tree_refs,
    complement,
    enumerate_expansions,
    expand_at,
    forest_from_steps,
    forest_join,
    forest_with_leaves,
    format_steps,
    graft,
    parse_drs,
    parse_steps,
    steps_of,
)
from braidfrac.families import edge_shift_drs, houghton_drs, thompson_drs


def test_rule_needs_length_two_rhs():
    with pytest.raises(DrsError):
        RewriteRule("x", ("x",))
    with pytest.raises(DrsError):
        RewriteRule("x", ())


def test_at_most_one_rule_per_letter():
    with pytest.raises(DrsError):
        DigitRewritingSystem(
            ("x",),
            (RewriteRule("x", ("x", "x")), RewriteRule("x", ("x", "x", "x"))),
        )


def test_rule_letters_in_alphabet():
    with pytest.raises(DrsError):
        DigitRewritingSystem(("x",), (RewriteRule("x", ("x", "y")),))


def test_parse_drs_round_trip():
    text = """
    # a two-ray system
    alphabet: x y1 y2
    rule: y1 -> y1 x
    rule: y2 -> y2 x
    base: y1 y2
    """
    drs = parse_drs(text)
    assert drs.alphabet == ("x", "y1", "y2")
    assert drs.rule_map["y1"].rhs == ("y1", "x")
    assert "x" not in drs.rule_map
    assert drs.base == ("y1", "y2")


@pytest.mark.parametrize(
    "text",
    [
        "rule: x -> x x",  # no alphabet
        "alphabet: x\nalphabet: x",  # duplicate
        "alphabet: x\nrule: x => x x",  # missing arrow
        "alphabet: x\nnonsense",
        "alphabet: x\nrule: x -> x",  # short rhs
    ],
)
def test_parse_drs_rejects(text):
    with pytest.raises(DrsParseError):
        parse_drs(text)


@dataclass(frozen=True, slots=True)
class _OneField:
    a: int


@dataclass(frozen=True, slots=True)
class _FiveFields:
    a: int
    b: int
    c: int
    d: int
    e: int


_X2 = RewriteRule("x", ("x", "x"))


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: _constructor(_OneField), TypeError, "has 1 fields, not 2 to 4"),
        (lambda: _constructor(_FiveFields), TypeError, "has 5 fields, not 2 to 4"),
        (lambda: DigitRewritingSystem(("1x",), ()), DrsError, "invalid letter name"),
        (lambda: DigitRewritingSystem(("x", "x"), ()), DrsError, "duplicate letter"),
        (
            lambda: DigitRewritingSystem(("x",), (("x", ("x", "x")),)),
            DrsError,
            "is not a RewriteRule",
        ),
        (
            lambda: ExpansionForest(thompson_drs(2), ("x",)),
            DrsError,
            "tree 'x' is not an ExpansionTree",
        ),
        (
            lambda: ExpansionTree("x", ("y",)),
            DrsError,
            "child 'y' is not an ExpansionTree",
        ),
        (
            lambda: ExpansionForest(
                thompson_drs(2), (ExpansionTree("x", (ExpansionTree("x"), "x")),)
            ),
            DrsError,
            "child 'x' is not an ExpansionTree",
        ),
        # an unhashable child or label fails the table lookup
        (
            lambda: ExpansionTree("x", ([],)),
            DrsError,
            r"child \[\] is not an ExpansionTree",
        ),
        (
            lambda: ExpansionTree(["x"]),
            DrsError,
            r"label \['x'\] is not hashable",
        ),
        (
            lambda: DigitRewritingSystem(("y",), (_X2,)),
            DrsError,
            "rule for unknown letter 'x'",
        ),
        (
            lambda: DigitRewritingSystem(("x",), (_X2,), ("y",)),
            DrsError,
            "unknown letter 'y' in base word",
        ),
        (lambda: thompson_drs(2).check_word(("y",)), DrsError, "unknown letter 'y'"),
        (
            lambda: enumerate_expansions(thompson_drs(2), ("x",), -1),
            DrsError,
            "depth must be >= 0",
        ),
        (lambda: parse_drs("alphabet:"), DrsParseError, "line 1: empty alphabet"),
        (
            lambda: parse_drs("alphabet: x\nrule: x x -> x x"),
            DrsParseError,
            "line 2: rule left side must be a single letter",
        ),
        (
            lambda: parse_drs("alphabet: x\nbase: x\nbase: x"),
            DrsParseError,
            "line 3: duplicate base line",
        ),
        (
            lambda: parse_drs("alphabet: x\nrule: x -> x x\nbase: y"),
            DrsParseError,
            "unknown letter 'y' in base word",
        ),
    ],
)
def test_trust_boundary_errors(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()


def test_expand_at_and_leaves(thompson2):
    f = forest_from_steps(thompson2, ("x",), [1, 2])
    assert f.leaves() == ("x", "x", "x")
    assert f.source == ("x",)
    with pytest.raises(DrsError):
        expand_at(f, 4)
    with pytest.raises(DrsError):
        expand_at(f, 0)


def test_expand_at_letter_without_rule(houghton3):
    f = ExpansionForest.identity(houghton3, ("y1",))
    f = expand_at(f, 1)  # y1 -> y1 x
    assert f.leaves() == ("y1", "x")
    with pytest.raises(DrsError):
        expand_at(f, 2)  # x has no rule in the ray system


def test_steps_round_trip(thompson2):
    for f in enumerate_expansions(thompson2, ("x", "x"), 3):
        again = forest_from_steps(thompson2, ("x", "x"), steps_of(f))
        assert again == f


def test_builder_makes_deep_forests(thompson2):
    # a left comb 1,500 nodes deep; the builder and the walks over its
    # stored leaf counts use no recursion
    f = forest_from_steps(thompson2, ("x",), [1] * 1500)
    assert f.leaf_count() == 1501
    assert steps_of(f) == [1] * 1500


def test_builder_errors_at_later_steps(thompson2, houghton3):
    with pytest.raises(DrsError, match=r"^position 4 out of range 1\.\.3$"):
        forest_from_steps(thompson2, ("x",), [1, 2, 4])
    with pytest.raises(DrsError, match="^letter 'x' at position 2 has no rule$"):
        forest_from_steps(houghton3, ("y1",), [1, 1, 2])


def test_parse_format_steps():
    assert parse_steps("1, 2 3") == [1, 2, 3]
    assert parse_steps("") == []
    assert format_steps([1, 2]) == "[1 2]"
    with pytest.raises(DrsParseError):
        parse_steps("1 two")


def test_graft_identity_neutral(thompson2):
    f = forest_from_steps(thompson2, ("x",), [1, 1])
    assert graft(ExpansionForest.identity(thompson2, ("x",)), f) == f
    assert graft(f, ExpansionForest.identity(thompson2, f.leaves())) == f


def test_graft_source_mismatch(thompson2):
    f = forest_from_steps(thompson2, ("x",), [1])
    with pytest.raises(SourceMismatchError):
        graft(f, f)  # f's source has length 1, f's leaves length 2


def test_complement_inverts_graft(thompson2):
    sub = forest_from_steps(thompson2, ("x",), [1])
    for full in enumerate_expansions(thompson2, ("x",), 3):
        try:
            rest = complement(sub, full)
        except NotAnUpperBoundError:
            continue
        assert graft(sub, rest) == full


def test_complement_incomparable(thompson2):
    s = forest_from_steps(thompson2, ("x",), [1, 1])
    t = forest_from_steps(thompson2, ("x",), [1, 2])
    with pytest.raises(NotAnUpperBoundError):
        complement(s, t)
    with pytest.raises(NotAnUpperBoundError):
        complement(t, s)


@pytest.mark.parametrize("system", ["thompson2", "houghton3", "edge2"])
def test_complement_exactly_below_upper_bounds(request, system):
    # three roots (houghton3) or letters with different right sides (edge2):
    # complement succeeds exactly on the pairs whose join is the bound
    drs = request.getfixturevalue(system)
    pool = sorted(enumerate_expansions(drs, drs.base, 3), key=steps_of)
    bounds = sorted(enumerate_expansions(drs, drs.base, 5), key=steps_of)
    below = 0
    for sub in pool:
        for full in bounds:
            if forest_join(sub, full)[0] == full:
                assert graft(sub, complement(sub, full)) == full
                below += 1
            else:
                with pytest.raises(NotAnUpperBoundError):
                    complement(sub, full)
    assert 0 < below < len(pool) * len(bounds)


def test_complement_source_mismatch_comes_first(houghton3):
    # sources of equal length that differ in a letter; the first forest also
    # expands a node the second leaves alone, and the source mismatch wins
    expanded = forest_from_steps(houghton3, ("y1", "y2"), [1])
    other = ExpansionForest.identity(houghton3, ("y1", "y3"))
    for sub, full in ((expanded, other), (other, expanded)):
        with pytest.raises(SourceMismatchError):
            complement(sub, full)
    with pytest.raises(SourceMismatchError):
        complement(expanded, ExpansionForest.identity(houghton3, ("y1",)))
    with pytest.raises(NotAnUpperBoundError):
        complement(expanded, ExpansionForest.identity(houghton3, ("y1", "y2")))


@pytest.mark.parametrize("system", ["thompson2", "houghton3", "edge2"])
def test_join_is_common_upper_bound(request, system):
    drs = request.getfixturevalue(system)
    pool = sorted(enumerate_expansions(drs, drs.base, 3), key=steps_of)
    for s in pool:
        for t in pool:
            j, b, a = forest_join(s, t)
            assert graft(s, b) == j
            assert graft(t, a) == j
            assert b == complement(s, j)
            assert a == complement(t, j)


def test_join_is_least(thompson2):
    # exhaustively: every common upper bound refines the join
    pool = sorted(enumerate_expansions(thompson2, ("x",), 3), key=steps_of)
    bounds = enumerate_expansions(thompson2, ("x",), 6)
    for s in pool:
        for t in pool:
            j, _, _ = forest_join(s, t)
            for u in bounds:
                try:
                    complement(s, u)
                    complement(t, u)
                except NotAnUpperBoundError:
                    continue
                complement(j, u)  # must not raise


def test_join_source_mismatch(thompson2):
    s = ExpansionForest.identity(thompson2, ("x",))
    t = ExpansionForest.identity(thompson2, ("x", "x"))
    with pytest.raises(SourceMismatchError):
        forest_join(s, t)


@pytest.mark.parametrize("operation", [complement, forest_join])
def test_root_check_messages_and_precedence(houghton3, operation):
    # sources of equal length that differ in a letter, in both orders; the
    # expanded forest has a node the other leaves alone, and the source
    # mismatch wins, with the same message from both operations
    expanded = forest_from_steps(houghton3, ("y1", "y2"), [1])
    other = ExpansionForest.identity(houghton3, ("y1", "y3"))
    for a, b in ((expanded, other), (other, expanded)):
        with pytest.raises(SourceMismatchError) as info:
            operation(a, b)
        assert str(info.value) == f"sources differ: {a.source} vs {b.source}"
    assert str(info.value) == "sources differ: ('y1', 'y3') vs ('y1', 'y2')"
    # forests of two systems are refused before their sources are compared
    thompson = ExpansionForest.identity(thompson_drs(2), ("x", "x"))
    with pytest.raises(SystemMismatchError):
        operation(thompson, other)


def test_enumerate_counts(thompson2):
    # cumulative Catalan numbers: forests over one binary root
    for depth, count in enumerate([1, 2, 4, 9, 23]):
        assert len(enumerate_expansions(thompson2, ("x",), depth)) == count


def _nodes_by_walk(row, start=0):
    """(leaves left, node) of every internal node of `row`, each before
    its children, left to right."""
    out = []
    for t in row:
        if t.children:
            out.append((start, t))
            out += _nodes_by_walk(t.children, start)
        start += t.leaf_count
    return out


def _made_leaf(row, left, width, start=0):
    """`row` with its node that has `left` leaves left of it and `width`
    leaves made a leaf."""
    out = []
    for t in row:
        if (start, t.leaf_count) == (left, width):
            out.append(ExpansionTree(t.label))
        else:
            out.append(ExpansionTree(t.label, _made_leaf(t.children, left, width, start)))
        start += t.leaf_count
    return tuple(out)


@pytest.mark.parametrize("system", ["thompson2", "houghton3", "edge2"])
def test_nodes_steps_and_pruning(request, system):
    # `_nodes` lists the nodes a tree walk finds, in the same order; their
    # steps replay to the forest; and cutting any one node rebuilds the
    # forest with that node a leaf
    drs = request.getfixturevalue(system)
    pool = enumerate_expansions(drs, drs.base, 4)
    cuts = 0
    for f in pool:
        nodes = _nodes(f.trees)
        assert nodes == _nodes_by_walk(f.trees)
        assert steps_of(f) == [left + 1 for left, _ in nodes]
        assert forest_from_steps(drs, f.source, steps_of(f)) == f
        for left, node in nodes:
            made_leaf = ExpansionForest(drs, _made_leaf(f.trees, left, node.leaf_count))
            assert _pruned(f, {(left, node.leaf_count)}) == made_leaf
            cuts += 1
    assert cuts > len(pool)


def _leaves_by_recursion(row):
    """The leaf nodes of `row`, left to right, by recursion."""
    out = []
    for t in row:
        out += _leaves_by_recursion(t.children) if t.children else [t]
    return out


@pytest.mark.parametrize(
    "drs",
    [
        thompson_drs(2),
        thompson_drs(3),
        houghton_drs(3),
        edge_shift_drs([("a", ["a", "b"]), ("b", ["a", "b"])], base=("a",)),
    ],
    ids=["thompson2", "thompson3", "houghton3", "edge_ab_ab"],
)
def test_leaf_nodes_match_recursive_walk(drs):
    # the stack walk takes a caret's children as they are; it gives the
    # same leaf objects, in the same order, on every forest of depth 4 and
    # on the children of every node, which `_complements` walks
    rows = 0
    for f in enumerate_expansions(drs, drs.base, 4):
        for row in (f.trees, *(node.children for _, node in _nodes(f.trees))):
            assert _leaf_nodes(row) == _leaves_by_recursion(row)  # by identity
            rows += 1
    assert rows > 50


def test_leaf_nodes_on_deep_combs(thompson2):
    # a left and a right comb 3,000 nodes deep, each ending in a caret:
    # the walk uses no recursion
    for steps in ([1] * 3000, list(range(1, 3001))):
        f = forest_from_steps(thompson2, ("x",), steps)
        assert _leaf_nodes(f.trees) == [ExpansionTree("x")] * 3001


def test_forest_with_leaves(thompson2):
    f = forest_with_leaves(thompson2, ("x",), ("x",) * 3)
    assert f is not None and f.leaves() == ("x",) * 3
    assert forest_with_leaves(thompson2, ("x",), ("y",)) is None


def _first_forest_with_leaves(drs, base, target):
    """The breadth-first search over forests that `forest_with_leaves`
    replaces: the first forest it finds is the reference."""
    start = ExpansionForest.identity(drs, base)
    seen = {start}
    queue = deque([start])
    while queue:
        f = queue.popleft()
        leaves = f.leaves()
        if leaves == target:
            return f
        if len(leaves) >= len(target):
            continue
        for p, a in enumerate(leaves, start=1):
            if a in drs.rule_map:
                g = expand_at(f, p)
                if g not in seen:
                    seen.add(g)
                    queue.append(g)
    return None


@pytest.mark.parametrize("name", ["thompson2", "houghton3", "edge2"])
def test_forest_with_leaves_matches_forest_search(request, name):
    drs = request.getfixturevalue(name)
    found = 0
    for n in range(6):
        for target in product(drs.alphabet, repeat=n):
            f = forest_with_leaves(drs, drs.base, target)
            assert f == _first_forest_with_leaves(drs, drs.base, target), target
            found += f is not None
    assert found


def test_forest_with_leaves_ray(houghton3):
    f = forest_with_leaves(houghton3, ("y1",), ("y1", "x", "x"))
    assert f is not None and f.leaves() == ("y1", "x", "x")
    # x cannot come before the ray letter
    assert forest_with_leaves(houghton3, ("y1",), ("x", "y1")) is None


def _caret(label, children):
    return ExpansionTree(label, tuple(ExpansionTree(c) for c in children))


def _constructor_error(drs, trees):
    with pytest.raises(DrsError) as info:
        ExpansionForest(drs, trees)
    return str(info.value)


def test_forest_constructor_rejects_letter_without_rule(houghton3):
    assert _constructor_error(houghton3, (_caret("x", ("x", "x")),)) == (
        "letter 'x' has no rule but is expanded"
    )


def test_forest_constructor_rejects_children_off_rule(thompson2):
    assert _constructor_error(thompson2, (_caret("x", ("x", "x", "x")),)) == (
        "children of 'x' are ('x', 'x', 'x'), rule says ('x', 'x')"
    )
    ExpansionForest(thompson2, (_caret("x", ("x", "x")),))


def test_forest_constructor_reports_first_bad_node(houghton3):
    # outermost-first: a bad node two levels down is reported before a bad
    # node one level down right of it, in the same tree or a later one
    x, y1, y2, y3 = (ExpansionTree(a) for a in ("x", "y1", "y2", "y3"))
    bad_x = _caret("x", ("x", "x"))
    deep_left = ExpansionTree("y3", (ExpansionTree("y3", (_caret("y3", ("x", "y3")), x)), bad_x))
    assert _constructor_error(houghton3, (y1, y2, deep_left)) == (
        "children of 'y3' are ('x', 'y3'), rule says ('y3', 'x')"
    )
    first_tree = ExpansionTree("y1", (ExpansionTree("y1", (y1, bad_x)), x))
    assert _constructor_error(houghton3, (first_tree, _caret("y2", ("x", "y2")), y3)) == (
        "letter 'x' has no rule but is expanded"
    )


def test_forest_constructor_checks_deep_forests(thompson2):
    # the check walks a comb 3,000 nodes deep without recursion
    deep = forest_from_steps(thompson2, ("x",), [1] * 3000)
    assert ExpansionForest(thompson2, deep.trees).leaf_count() == 3001


def test_operations_refuse_forests_of_different_systems(thompson2):
    thompson3 = thompson_drs(3)
    two = ExpansionForest.identity(thompson2, ("x",))
    three = forest_from_steps(thompson3, ("x",), [1])
    with pytest.raises(DrsError):
        graft(two, three)
    with pytest.raises(DrsError):
        complement(two, three)
    with pytest.raises(DrsError):
        forest_join(two, three)


def test_equal_trees_are_one_object(thompson2):
    # two step lists that make the same forest, and the public
    # constructors, all give the very same tree objects
    a = forest_from_steps(thompson2, ("x", "x"), [1, 3])
    b = forest_from_steps(thompson2, ("x", "x"), [2, 1])
    leaf = ExpansionTree("x")
    caret = ExpansionTree("x", (leaf, leaf))
    c = ExpansionForest(thompson2, (caret, caret))
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert a.trees[0] is a.trees[1] is b.trees[0] is b.trees[1] is caret
    assert caret.children[0] is caret.children[1] is leaf
    assert ExpansionTree("x", (caret, leaf)) != ExpansionTree("x", (leaf, caret))


def test_copies_and_pickles_give_back_the_same_trees(thompson2):
    forest = forest_from_steps(thompson2, ("x", "x"), [1, 2, 4])
    tree = forest.trees[0]
    for again in (copy.copy(tree), copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
        assert again is tree
    for again in (
        copy.copy(forest), copy.deepcopy(forest), pickle.loads(pickle.dumps(forest))
    ):
        assert again == forest
        assert all(t is u for t, u in zip(again.trees, forest.trees, strict=True))


def test_tree_table_frees_dropped_trees(thompson2):
    # the table holds its trees weakly: thousands of distinct forests,
    # built and dropped, leave it at its starting size, freed by reference
    # counting alone
    rng = random.Random(0)
    gc.collect()
    gc.disable()
    try:
        start = len(_tree_refs)
        recent: deque[ExpansionForest] = deque(maxlen=100)
        peak = start
        for _ in range(3000):
            steps = [rng.randint(1, k) for k in range(1, rng.randint(8, 16))]
            recent.append(forest_from_steps(thompson2, ("x",), steps))
            peak = max(peak, len(_tree_refs))
        recent.clear()
        assert peak > start + 200
        assert len(_tree_refs) == start
    finally:
        gc.enable()


def test_tree_table_callback_drops_only_its_own_entry():
    leaf = ExpansionTree("x")
    tree = ExpansionTree("x", (leaf, leaf))
    key = ("x", (leaf, leaf))
    ref = _tree_refs[key]
    assert ref() is tree
    _drop_tree_ref(KeyedRef(tree, None, key))  # a stale reference to the key
    assert _tree_refs[key] is ref
