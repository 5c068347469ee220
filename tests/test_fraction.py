"""Fraction group elements: normal forms, multiplication, order queries."""

from __future__ import annotations

import gc
import hashlib
from dataclasses import FrozenInstanceError, is_dataclass

import pytest

import random

import braidfrac
from braidfrac import fraction
from braidfrac.braids import (
    BraidWord,
    DigitalBraid,
    _braid_word,
    _digital_braid,
    act_bottom,
    handle_reduce,
)
from braidfrac.drs import (
    DigitRewritingSystem,
    ExpansionForest,
    ExpansionTree,
    RewriteRule,
    _constructor,
    _forest,
    complement,
    enumerate_expansions,
    expand_at,
    forest_from_steps,
    forest_join,
    forest_with_leaves,
    graft,
    steps_of,
)
from braidfrac.families import edge_shift_drs, houghton_drs, thompson_drs
from braidfrac.fraction import (
    ContextMismatchError,
    Flavor,
    FractionElement,
    FractionError,
    GroupContext,
    TorsionOrderError,
    _braid_draw,
    _element,
    _forest_pair,
    _grow_forest,
    format_element,
    identity_element,
    parse_element,
    random_element,
)
from braidfrac.magnus import comb_word, magnus_expand
from braidfrac.ordering import Comparison, Sign
from braidfrac.plmaps import PLMap, realize_pair
from conftest import make_context


def elem(context, t_steps, letters, s_steps):
    t = forest_from_steps(context.drs, context.base, t_steps)
    s = forest_from_steps(context.drs, context.base, s_steps)
    return FractionElement(
        context,
        t,
        DigitalBraid(t.leaves(), s.leaves(), BraidWord(max(t.leaf_count(), 1), letters)),
        s,
    )


def test_structural_validation(t2_braided):
    t = forest_from_steps(t2_braided.drs, ("x",), [1])
    g = DigitalBraid(("x",) * 3, ("x",) * 3, BraidWord(3, ()))
    with pytest.raises(FractionError):
        FractionElement(t2_braided, t, g, t)  # braid is wider than the forests
    wide = ExpansionForest.identity(t2_braided.drs, ("x", "x"))
    with pytest.raises(FractionError):
        FractionElement(
            t2_braided, wide, DigitalBraid(("x", "x"), ("x", "x"), BraidWord(2, ())), wide
        )  # forest source is not the base word


def test_flavor_constraints(thompson2):
    pure = make_context(thompson2, "pure")
    plain = make_context(thompson2, "plain")
    with pytest.raises(FractionError):
        elem(pure, [1], (1,), [1])  # single crossing is not pure
    with pytest.raises(FractionError):
        elem(plain, [1], (1,), [1])  # plain flavor has no braiding
    elem(pure, [1], (1, 1), [1])
    elem(plain, [1], (), [1])


def test_identity_and_inverse(t2_braided):
    e = identity_element(t2_braided)
    assert e.is_identity()
    g = elem(t2_braided, [1], (1,), [1])
    assert not g.is_identity()
    assert (g * g.invert()).is_identity()
    assert (g.invert() * g).is_identity()


def test_square_of_single_crossing(t2_braided):
    g = elem(t2_braided, [1], (1,), [1])
    sq = g * g
    assert sq.T == g.T and sq.S == g.S
    assert sq.g.word.letters == (1, 1)


def test_mul_joins_forests(t2_braided):
    # braid-free pieces multiply through the forest join
    a = elem(t2_braided, [1, 1], (), [1, 2])
    b = elem(t2_braided, [1, 2], (), [1, 1])
    assert (a * b).is_identity()
    c = a * a
    assert not c.is_identity()
    assert (c * c.invert()).is_identity()


def test_context_mismatch(thompson2, houghton3):
    a = identity_element(make_context(thompson2, "braided"))
    b = identity_element(make_context(houghton3, "braided"))
    with pytest.raises(ContextMismatchError):
        a * b


def test_sign_braided(t2_braided):
    assert elem(t2_braided, [1], (1,), [1]).sign() is Sign.POSITIVE
    assert elem(t2_braided, [1], (-1,), [1]).sign() is Sign.NEGATIVE
    assert identity_element(t2_braided).sign() is Sign.ZERO
    # braid-free elements fall through to the interval realization
    a = elem(t2_braided, [1, 1], (), [1, 2])
    assert a.sign() is Sign.NEGATIVE
    assert a.invert().sign() is Sign.POSITIVE


def test_sign_pure(t2_pure):
    assert elem(t2_pure, [1], (1, 1), [1]).sign() is Sign.POSITIVE
    a = elem(t2_pure, [1, 1], (), [1, 2])
    # the braid-free part dominates: kernel braiding cannot override it
    b = elem(t2_pure, [1, 1], (-1, -1), [1, 2])
    assert a.sign() is b.sign() is Sign.NEGATIVE


def test_sign_permutation_flavor_refuses(thompson2):
    ctx = make_context(thompson2, "permutation")
    with pytest.raises(TorsionOrderError):
        identity_element(ctx).sign()


def test_permutation_identity_ignores_pure_braiding(thompson2):
    ctx = make_context(thompson2, "permutation")
    assert elem(ctx, [1], (1, 1), [1]).is_identity()
    assert not elem(ctx, [1], (1,), [1]).is_identity()


def test_compare(t2_plain):
    x0 = elem(t2_plain, [1, 1], (), [1, 2])
    e = identity_element(t2_plain)
    assert x0.compare(e) is Comparison.LESS
    assert e.compare(x0) is Comparison.GREATER
    assert x0.compare(x0) is Comparison.EQUAL


def test_semidirect_pieces(t2_pure):
    e = elem(t2_pure, [1, 1], (1, 1, 2, 2), [1, 2])
    s = e.psi_section()
    assert s.g.word.letters == ()
    k = e * s.invert()
    assert k.in_kernel_K()
    assert not e.in_kernel_K()
    assert ((k * s).invert() * e).is_identity()
    p = e.psi_project()
    assert p.context.flavor is Flavor.PLAIN
    assert p.T == e.T and p.S == e.S


@pytest.mark.parametrize("flavor", ["pure", "braided"])
def test_context_refuses_a_flavor_name(thompson2, flavor):
    # a name in place of the member would skip the pure flavor's braid check
    # and misreport the braided flavor as the permutation flavor
    with pytest.raises(FractionError, match=f"must be a Flavor, got '{flavor}'"):
        GroupContext(thompson2, ("x",), flavor)
    assert str(Flavor(flavor)) == flavor


_T2 = GroupContext(thompson_drs(2), ("x",), Flavor.BRAIDED)
_X = ExpansionForest.identity(_T2.drs, ("x",))
_XX = forest_from_steps(_T2.drs, ("x",), [1])
_X3 = ExpansionForest.identity(thompson_drs(3), ("x",))
_NO_BRAID = DigitalBraid.identity(("x",))


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: GroupContext(_T2.drs, (), Flavor.PLAIN), "base word must be nonempty"),
        (
            lambda: FractionElement(_T2, _X3, _NO_BRAID, _X3),
            "forests must belong to the context's rewriting system",
        ),
        (
            lambda: FractionElement(_T2, _X, _NO_BRAID, _XX),
            "braid bottom must equal the leaves of S",
        ),
        (
            lambda: elem(_T2, [], (), []).psi_section(),
            "section is defined on the pure flavor",
        ),
        (
            lambda: elem(_T2, [], (), []).in_kernel_K(),
            "projection is defined on the pure flavor",
        ),
        (
            lambda: random_element(_T2, 3, 0, max_braid_letters=-4),
            "max_braid_letters must be >= 0",
        ),
        (
            lambda: random_element(_T2, 0, 0, max_braid_letters=-1),
            "max_braid_letters must be >= 0",
        ),
    ],
)
def test_trust_boundary_errors(call, fragment):
    with pytest.raises(FractionError, match=fragment):
        call()


# a system whose rule, alphabet and base are lists
_X_LISTS = DigitRewritingSystem(["x"], [RewriteRule("x", ["x", "x"])], ["x"])
_X_TUPLES = DigitRewritingSystem(("x",), (RewriteRule("x", ("x", "x")),), ("x",))


def _list_forest_element():
    t = ExpansionForest(_T2.drs, list(_XX.trees))
    return FractionElement(_T2, t, DigitalBraid.identity(_XX.leaves()), _XX)


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(
            lambda: (RewriteRule("x", ["x", "x"]), RewriteRule("x", ("x", "x"))),
            id="rule",
        ),
        pytest.param(lambda: (_X_LISTS, _X_TUPLES), id="system"),
        pytest.param(
            lambda: (
                ExpansionForest(_X_LISTS, _XX.trees),
                forest_from_steps(_X_TUPLES, ("x",), [1]),
            ),
            id="forest-of-list-rule",
        ),
        pytest.param(
            lambda: (
                forest_with_leaves(_X_LISTS, ("x",), ("x", "x")),
                forest_from_steps(_X_TUPLES, ("x",), [1]),
            ),
            id="forest-with-leaves-of-list-rule",
        ),
        pytest.param(
            lambda: (ExpansionForest(_T2.drs, list(_XX.trees)), _XX), id="forest"
        ),
        # equal trees are one object, so a tree made from a list of
        # children is the tree made from their tuple
        pytest.param(
            lambda: (ExpansionTree("x", list(_XX.trees[0].children)), _XX.trees[0]),
            id="tree",
        ),
        pytest.param(lambda: (BraidWord(2, [1, -1]), BraidWord(2, (1, -1))), id="word"),
        pytest.param(
            lambda: (BraidWord(2, [1, -1]) * BraidWord(2, (1,)), BraidWord(2, (1,))),
            id="word-product",
        ),
        pytest.param(
            lambda: (
                DigitalBraid(["x", "x"], ["x", "x"], BraidWord(2, (1, 1))),
                DigitalBraid(("x", "x"), ("x", "x"), BraidWord(2, (1, 1))),
            ),
            id="digital-braid",
        ),
        pytest.param(
            lambda: (_list_forest_element(), elem(_T2, [1], (), [1])), id="element"
        ),
        pytest.param(
            lambda: (_list_forest_element().is_identity(), True),
            id="element-is-identity",
        ),
        pytest.param(
            lambda: (GroupContext(_T2.drs, ["x"], Flavor.BRAIDED), _T2), id="context"
        ),
        pytest.param(
            lambda: (
                identity_element(GroupContext(_T2.drs, ["x"], Flavor.BRAIDED)),
                identity_element(_T2),
            ),
            id="context-identity",
        ),
        pytest.param(
            lambda: (PLMap([[0, 0], [1, 1]]), PLMap(((0, 0), (1, 1)))), id="plmap"
        ),
    ],
)
def test_public_constructors_store_tuples(make):
    # a public constructor stores the sequences it is handed as tuples, so
    # a value built from lists equals, hashes and combines like one built
    # from tuples
    got, want = make()
    assert got == want
    assert hash(got) == hash(want)


def test_psi_requires_pure(t2_braided):
    with pytest.raises(FractionError):
        identity_element(t2_braided).psi_project()


def test_normalize_preserves_element(t2_braided):
    e = elem(t2_braided, [1], (1,), [1])
    padded = e * identity_element(t2_braided)
    n = (padded * padded.invert() * padded).normalize()
    assert (n.invert() * e).is_identity()
    assert n.T.leaf_count() <= padded.T.leaf_count()


def test_normalize_strips_matched_carets(t2_braided):
    e = elem(t2_braided, [1, 1], (), [1, 1])
    n = e.normalize()
    assert n.is_identity()
    assert n.T.leaf_count() == 1


def test_normalize_cancels_cabled_carets(t2_braided, t2_pure, thompson2, h3_braided):
    # the caret's two strands cross the third as one cable; the permutation
    # flavor sees only the strand permutation, so a full twist of the
    # caret's two strands is no crossing there and the caret cancels
    t2_permutation = make_context(thompson2, "permutation")
    # both letters rewrite to a b: the cables a b cross as one, but each
    # caret of T lies over a caret of S with the other label
    shared = make_context(
        edge_shift_drs([("a", ["a", "b"]), ("b", ["a", "b"])], base=("a",)),
        "braided",
    )
    for context, text, expected in (
        (t2_braided, "frac T=[1 1] B=[2 1] S=[1 2]", "frac T=[1] B=[1] S=[1]"),
        (t2_pure, "frac T=[1 1] B=[2 1 1 2] S=[1 1]", "frac T=[1] B=[1 1] S=[1]"),
        (t2_permutation, "frac T=[1] B=[1 1] S=[1]", "frac T=[] B=[] S=[]"),
        # the first cancellation makes the caret that the second cancels
        (t2_braided, "frac T=[1 2 2] B=[1 2 3] S=[1 1 1]", "frac T=[1] B=[1] S=[1]"),
        (h3_braided, "frac T=[1] B=[3 3] S=[1]", "frac T=[] B=[2 2] S=[]"),
        (shared, "frac T=[1 1 3] B=[2 1 3 2] S=[1 1 3]",
         "frac T=[1 1 3] B=[2 1 3 2] S=[1 1 3]"),
        # a width-3 subtree carried as one cable cancels whole
        (t2_braided, "frac T=[1 1 1] B=[3 2 1] S=[1 2 2]", "frac T=[1] B=[1] S=[1]"),
        # the root fails, its left child passes
        (t2_braided, "frac T=[1 1 1] B=[3] S=[1 1 1]", "frac T=[1 1] B=[2] S=[1 1]"),
        # nothing cancels
        (t2_braided, "frac T=[1 1] B=[1] S=[1 1]", "frac T=[1 1] B=[1] S=[1 1]"),
        (t2_braided, "frac T=[1 1 1] B=[-1 -2 -3] S=[1 1 2]",
         "frac T=[1 1 1] B=[-1 -2 -3] S=[1 1 2]"),
    ):
        assert format_element(parse_element(context, text).normalize()) == expected


def test_normalize_tests_each_node_once(monkeypatch, thompson2, houghton3):
    # every cable test cables the braid once, and no node of T is tested
    # twice, so a call makes at most one test per step of T
    calls = [0]
    cable = fraction._cable

    def counting(*args):
        calls[0] += 1
        return cable(*args)

    monkeypatch.setattr(fraction, "_cable", counting)
    for drs in (thompson2, houghton3):
        ctx = make_context(drs, "braided")
        for seed in range(150):
            a, b, c = (random_element(ctx, 5, seed + k) for k in (0, 1000, 2000))
            e = (c * a).invert() * (c * b)
            calls[0] = 0
            e.normalize()
            assert calls[0] <= len(steps_of(e.T)), seed


@pytest.mark.parametrize("flavor", ["braided", "pure", "permutation", "plain"])
def test_normalize_sweep(thompson2, houghton3, flavor):
    # both letters of this edge shift rewrite to a b, so a caret of S under
    # a cable can carry the wrong label
    shared = edge_shift_drs([("a", ["a", "b"]), ("b", ["a", "b"])], base=("a",))
    shrunk = 0
    for drs in (thompson2, houghton3, shared):
        ctx = make_context(drs, flavor)
        for seed in range(30):
            a, b, c = (random_element(ctx, 4, seed + k) for k in (0, 1000, 2000))
            e = (c * a).invert() * (c * b)
            n = e.normalize()
            assert (e.invert() * n).is_identity()
            if ctx.flavor is not Flavor.PERMUTATION:
                assert n.sign() is e.sign()
            checked = FractionElement(
                ctx,
                ExpansionForest(drs, n.T.trees),
                DigitalBraid(
                    n.T.leaves(),
                    n.S.leaves(),
                    BraidWord(n.g.word.strands, n.g.word.letters),
                ),
                ExpansionForest(drs, n.S.trees),
            )
            assert checked == n
            assert n.normalize() == n
            assert n.T.leaf_count() <= e.T.leaf_count()
            shrunk += n.T.leaf_count() < e.T.leaf_count()
    assert shrunk


# frozen outputs of `normalize` on the corpus of `test_normalize_outputs`:
# a few by position, and the sha256 of all of them, one per line
_NORMAL_FORMS = {
    14: "frac T=[1] B=[-1 -1] S=[1]",
    24: "frac T=[1 1] B=[] S=[1 2]",
    39: "frac T=[1] B=[-1 -1] S=[1]",
    64: "frac T=[] B=[] S=[]",
    115: "frac T=[1 3 3 6 6] B=[-5 -5 -2 -1 -3 -2 6 5 6 -2 -1 -3 -2 -4 -3 2 3 -4]"
    " S=[1 3 3 6 6]",
    143: "frac T=[2 2] B=[1 1] S=[2 2]",
    165: "frac T=[1 3 5 5] B=[-4 -4 -2 -1 5 4 5 -1 -2 -3 2 3] S=[1 3 5 5]",
    240: "frac T=[1 1] B=[2 2 -1 -1] S=[1 1]",
    265: "frac T=[] B=[] S=[]",
}
_NORMAL_FORMS_SHA256 = "bb3f28752b40b009e06854457be57427a9e7b01a16f1d35daf74673afaae3505"


def test_normalize_outputs():
    # (c a)^-1 (c b) in the four flavors on thompson:2, houghton:3 and an
    # edge shift whose letters share a right side, 25 seeds each; the
    # braided and permutation flavors draw the same elements, so items
    # 14 and 64, 115 and 165 show what the permutation flavor cuts more
    shared = edge_shift_drs([("a", ["a", "b"]), ("b", ["a", "b"])], base=("a",))
    forms = []
    for drs in (thompson_drs(2), houghton_drs(3), shared):
        for flavor in Flavor:
            ctx = GroupContext(drs, drs.base, flavor)
            for seed in range(500, 525):
                a, b, c = (random_element(ctx, 5, seed + k) for k in (0, 1000, 2000))
                forms.append(format_element(((c * a).invert() * (c * b)).normalize()))
    assert {i: forms[i] for i in _NORMAL_FORMS} == _NORMAL_FORMS
    digest = hashlib.sha256("\n".join(forms).encode()).hexdigest()
    assert digest == _NORMAL_FORMS_SHA256


def test_parse_format_round_trip(t2_braided):
    e = parse_element(t2_braided, "frac T=[1] B=[1] S=[1]")
    assert e.g.word.letters == (1,)
    assert parse_element(t2_braided, format_element(e)) == e
    with pytest.raises(FractionError):
        parse_element(t2_braided, "frac T=[1] B=[1]")
    with pytest.raises(FractionError):
        parse_element(t2_braided, "frac T=[9] B=[] S=[]")


def test_random_element_deterministic(t2_braided):
    a = random_element(t2_braided, 4, 99)
    b = random_element(t2_braided, 4, 99)
    assert a == b
    assert random_element(t2_braided, 0, 1).is_identity()
    with pytest.raises(FractionError):
        random_element(t2_braided, -1, 0)


# random_element's draws, pinned letter for letter: a change to the order
# or the kind of its generator calls changes them
@pytest.mark.parametrize(
    "system, flavor, seed, literal",
    [
        ("thompson:2", "braided", 11,
         "frac T=[1 2 2 3 3 3 7] B=[7 2 3 4 5 1 2 3 4 -6 -5 6 7] S=[1 2 2 2 5 5 7]"),
        ("thompson:2", "pure", 26,
         "frac T=[1 1 2 3] B=[4 3 2 1 1 2 3 4 -3 4 -1 -2 4 1 2 1 2 3] S=[1 1 2 3]"),
        ("thompson:2", "permutation", 11,
         "frac T=[1 2 2 3 3 3 7] B=[7 2 3 4 5 1 2 3 4 -6 -5 6 7] S=[1 2 2 2 5 5 7]"),
        ("thompson:2", "plain", 37, "frac T=[1 1 3 3 5 6 6] B=[] S=[1 1 1 1 1 6 7]"),
        ("houghton:3", "braided", 5,
         "frac T=[1 3 5 5] B=[-2 -1 -3 -2 4 3 3 4 -5 2 3 1 2 5 -6] S=[1 3 5 5]"),
        ("houghton:3", "pure", 35,
         "frac T=[2 4] B=[-2 -4 -1 3 3 1 -2 -4 2 2 3 4 -2 -3 -3 -2 -4 -3] S=[2 4]"),
        ("houghton:3", "permutation", 5,
         "frac T=[1 3 5 5] B=[-2 -1 -3 -2 4 3 3 4 -5 2 3 1 2 5 -6] S=[1 3 5 5]"),
        ("houghton:3", "plain", 11, "frac T=[1 1 4 4 7 7] B=[] S=[1 1 4 4 7 7]"),
        ("edge", "braided", 34, "frac T=[1 1 1 4] B=[3 4] S=[1 1 3 3]"),
        ("edge", "pure", 34, "frac T=[1 1 1 3] B=[4 3 3 4] S=[1 1 3 3]"),
    ],
)
def test_random_element_pinned(system, flavor, seed, literal):
    if system == "edge":  # both letters rewrite to a b
        drs = edge_shift_drs([("a", ["a", "b"]), ("b", ["a", "b"])], base=("a",))
    else:
        drs = thompson_drs(2) if system == "thompson:2" else houghton_drs(3)
    context = GroupContext(drs, drs.base, Flavor(flavor))
    e = random_element(context, 4, seed, max_braid_letters=6)
    assert format_element(e) == literal


def test_random_element_respects_flavor(t2_pure, t2_plain):
    for seed in range(8):
        assert random_element(t2_pure, 4, seed).g.is_pure()
        assert random_element(t2_plain, 4, seed).g.word.letters == ()


def test_tree_walks_leave_no_reference_cycles(t2_braided, h3_pure):
    # the walks over expansion trees run on explicit stacks, loops or
    # module-level recursion: a nested function calling itself would leave
    # a reference cycle per call that only the cyclic garbage collector frees
    gc.collect()
    gc.disable()
    try:
        for context in (t2_braided, h3_pure):
            drs = context.drs
            for seed in range(20):
                e = random_element(context, 4, seed)
                assert parse_element(context, format_element(e)) == e
                assert forest_from_steps(drs, context.base, steps_of(e.T)) == e.T
                p = next(
                    p
                    for p, letter in enumerate(e.S.leaves(), start=1)
                    if letter in drs.rule_map
                )
                assert expand_at(e.S, p).leaf_count() > e.S.leaf_count()
                leaves = e.S.leaves()
                assert forest_with_leaves(drs, context.base, leaves).leaves() == leaves
                assert e.T in enumerate_expansions(drs, context.base, len(steps_of(e.T)))
                j, b, a = forest_join(e.T, e.S)
                assert complement(e.T, j) == b and complement(e.S, j) == a
                realize_pair(e.T, e.S)
                assert (e * e.invert()).normalize().is_identity()
        collected = gc.collect()
    finally:
        gc.enable()
    assert collected == 0


def test_constructor_values_match_checked_values(t2_braided):
    # the per-class constructors and the forest builder must make what the
    # public constructors make: equal values with the same hash and repr,
    # holding the same kinds of objects and still frozen, and a tree's
    # derived leaf count and hash as the constructor gives them
    e = elem(t2_braided, [1], (1,), [1])
    forest = ExpansionForest(e.T.drs, e.T.trees)
    word = BraidWord(e.g.word.strands, e.g.word.letters)
    braid = DigitalBraid(e.g.top, e.g.bottom, word)
    element = FractionElement(e.context, forest, braid, forest)
    tree = forest_from_steps(e.T.drs, ("x",), [1, 1]).trees[0]
    made = ExpansionTree(tree.label, tree.children)
    assert made is tree and made.leaf_count == 3
    checks = [(tree, made)]
    constructors = (_forest, _braid_word, _digital_braid, _element)
    for make, built in zip(constructors, (forest, word, braid, element)):
        cls = type(built)
        fast = make(*(getattr(built, f) for f in cls.__dataclass_fields__))
        assert type(fast) is cls
        assert hash(fast) == hash(built) and repr(fast) == repr(built)
        name = next(iter(cls.__dataclass_fields__))
        with pytest.raises(FrozenInstanceError):
            setattr(fast, name, getattr(built, name))
        checks.append((fast, built))
    for fast, built in checks:
        assert fast == built
        assert [type(x) for x in gc.get_referents(fast)] == [
            type(x) for x in gc.get_referents(built)
        ]


@pytest.mark.parametrize("cls", [DigitRewritingSystem])
def test_constructor_refuses_derived_fields(cls):
    # a class whose `__post_init__` sets a derived field cannot get a
    # constructor that skips it; a tree's `leaf_count`, summed in its
    # `__new__`, is no such field
    with pytest.raises(TypeError, match="derived field"):
        _constructor(cls)


def test_value_types_are_slotted(t2_pure):
    e = elem(t2_pure, [1], (1, 1), [1])
    values = [
        e,
        e.context,
        e.context.drs,
        e.context.drs.rules[0],
        e.T,
        e.T.trees[0],
        e.g,
        e.g.word,
        realize_pair(e.T, e.S),
        comb_word(e.g.word.letters, e.g.word.strands),
        magnus_expand((1,), 1),
    ]
    # one value of each frozen dataclass the package exports
    frozen = {
        cls
        for cls in vars(braidfrac).values()
        if isinstance(cls, type) and is_dataclass(cls)
        and cls.__dataclass_params__.frozen
    }
    assert {type(v) for v in values} == frozen
    assert [type(v).__name__ for v in values if hasattr(v, "__dict__")] == []


def test_value_reprs_and_hashes_are_unchanged():
    # the derived fields stay out of `repr`, `==` and `hash`
    assert repr(forest_from_steps(thompson_drs(2), ("x",), [1, 1])) == (
        "ExpansionForest(drs=DigitRewritingSystem(alphabet=('x',), "
        "rules=(RewriteRule(lhs='x', rhs=('x', 'x')),), base=('x',)), "
        "trees=(ExpansionTree(label='x', children=(ExpansionTree(label='x', "
        "children=(ExpansionTree(label='x', children=()), "
        "ExpansionTree(label='x', children=()))), "
        "ExpansionTree(label='x', children=()))),))"
    )
    one, two = thompson_drs(2), thompson_drs(2)
    assert one is not two and one == two and hash(one) == hash(two)


def test_deep_comb_needs_no_recursion(t2_braided):
    # a comb 3,000 nodes deep, with T and S built separately: equality,
    # hashing and repr of its trees, and the element operations below,
    # run without recursion
    comb = "[" + " ".join(["1"] * 3000) + "]"
    text = f"frac T={comb} B=[] S={comb}"
    e = parse_element(t2_braided, text)
    again = parse_element(t2_braided, text)
    assert e.T.trees[0] is e.S.trees[0] is again.T.trees[0]
    assert e == again and hash(e) == hash(again)
    assert repr(e.T).count("ExpansionTree(") == 6001
    assert repr(e) == repr(again)
    assert e.is_identity() and e.sign() is Sign.ZERO
    assert e.invert() == e
    assert e.normalize() == identity_element(t2_braided)
    assert format_element(e) == text


def test_group_laws_random(h3_braided):
    for seed in range(6):
        a = random_element(h3_braided, 3, seed, max_braid_letters=6)
        b = random_element(h3_braided, 3, seed + 100, max_braid_letters=6)
        c = random_element(h3_braided, 3, seed + 200, max_braid_letters=6)
        assert (((a * b) * c).invert() * (a * (b * c))).is_identity()


@pytest.mark.parametrize("flavor", ["braided", "pure", "plain"])
def test_identity_and_zero_sign_cross_oracle(thompson2, houghton3, flavor):
    """is_identity, decided by the lamination action, agrees with equal
    forests plus an empty handle reduction; and sign() is zero exactly on
    the identity."""
    seen = {True: 0, False: 0}
    for drs in (thompson2, houghton3):
        ctx = make_context(drs, flavor)
        for seed in range(25):
            a, b, c = (
                random_element(ctx, 3, seed + k, max_braid_letters=6)
                for k in (0, 1000, 2000)
            )
            # associativity differences are identities spelled by
            # nontrivial braid words
            for e in (a, a.invert() * b, ((a * b) * c).invert() * (a * (b * c))):
                ident = e.is_identity()
                assert ident == (
                    e.T == e.S and not handle_reduce(e.g.word).letters
                )
                assert (e.sign() is Sign.ZERO) == ident
                seen[ident] += 1
    assert seen[True] and seen[False]


def _composed(x, y):
    """(T, g, S) of x * y through the public operations: join the middle
    forests, cable each braid along its complement, graft, compose."""
    _, b, a = forest_join(x.S, y.T)
    bup, gb = act_bottom(x.g, b)
    aup, ha = act_bottom(y.g.invert(), a)
    return graft(x.T, bup), gb.compose(ha.invert()), graft(y.S, aup)


@pytest.mark.parametrize("flavor", [f.value for f in Flavor])
def test_product_matches_composition(thompson2, houghton3, edge2, flavor):
    # the one-pass product builds the same forests and the same braid,
    # letter for letter, as the composition of the public operations
    products = 0
    for drs in (thompson2, thompson_drs(3), houghton3, edge2):
        context = make_context(drs, flavor)
        elements = [random_element(context, 4, seed) for seed in range(10)]
        differences = [x.invert() * y for x in elements[:4] for y in elements[8:]]
        pool = elements + differences
        for x in pool:
            for y in pool:
                p = x * y
                t, g, s = _composed(x, y)
                assert p.T == t and p.S == s
                assert (p.g.top, p.g.bottom) == (g.top, g.bottom)
                assert p.g.word.letters == g.word.letters
                assert p.g.word.strands == g.word.strands
                products += 1
    assert products >= 500


def _rebuilt(value):
    """`value` rebuilt through the public constructors, which validate."""
    if isinstance(value, tuple):
        return tuple(_rebuilt(v) for v in value)
    if isinstance(value, ExpansionForest):
        return ExpansionForest(value.drs, value.trees)
    if isinstance(value, BraidWord):
        return BraidWord(value.strands, value.letters)
    if isinstance(value, DigitalBraid):
        return DigitalBraid(value.top, value.bottom, _rebuilt(value.word))
    assert isinstance(value, FractionElement)
    return FractionElement(
        value.context, _rebuilt(value.T), _rebuilt(value.g), _rebuilt(value.S)
    )


@pytest.mark.parametrize("flavor", [f.value for f in Flavor])
def test_operation_results_pass_public_constructors(
    thompson2, houghton3, edge2, flavor
):
    # operations build their results without re-validating them; every
    # result must still be a value the public constructors accept
    results = []
    for drs in (thompson2, thompson_drs(3), houghton3, edge2):
        context = make_context(drs, flavor)
        for seed in range(6):
            rng = random.Random(seed)
            a = random_element(context, 4, 2 * seed)
            b = random_element(context, 4, 2 * seed + 1)
            results += [a * b, a.invert(), a.invert() * b]
            results.append(forest_join(a.S, b.T))
            j = results[-1][0]
            results += [complement(a.S, j), complement(b.T, j)]
            f = _grow_forest(drs, context.base, 3, rng)
            positions = [
                p
                for p, letter in enumerate(f.leaves(), start=1)
                if letter in drs.rule_map
            ]
            results.append(expand_at(f, rng.choice(positions)))
            results.append(act_bottom(a.g, _grow_forest(drs, a.g.bottom, 4, rng)))
            results.append(
                act_bottom(a.g.invert(), _grow_forest(drs, a.g.top, 4, rng))
            )
            results.append(handle_reduce((a.invert() * b).g.word))
    for value in results:
        assert _rebuilt(value) == value


@pytest.mark.parametrize("flavor", [f.value for f in Flavor])
def test_draws_pass_the_public_constructors(thompson2, houghton3, flavor):
    # the draws build their values without validating them; each must
    # still be a value the public constructors accept
    shared = edge_shift_drs([("a", ["a", "b"]), ("b", ["a", "b"])], base=("a",))
    for drs in (thompson2, houghton3, shared):
        context = make_context(drs, flavor)
        for seed in range(50):
            e = random_element(context, 6, seed, 12)
            assert _rebuilt(e) == e
            rng = random.Random(seed)
            t, s = _forest_pair(context, 6, rng)
            assert t.leaves() == s.leaves()
            pair = _element(context, t, DigitalBraid.identity(t.leaves()), s)
            assert _rebuilt(pair) == pair
            if context.flavor is Flavor.PLAIN:
                continue  # the plain flavor draws no braid
            steps, g = _braid_draw(context, 6, 12, rng)
            f = forest_from_steps(drs, context.base, steps)
            piece = _element(context, f, g, f)
            assert _rebuilt(piece) == piece
