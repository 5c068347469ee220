"""Braid words, handle reduction, the lamination action and digital braids.

The word problem and the Dehornoy sign are always checked through both
routes — handle reduction and the integral lamination action — which are
independent algorithms.
"""

from __future__ import annotations

import random

import pytest

from braidfrac.braids import (
    BraidError,
    BraidWord,
    DigitalBraid,
    LabelMismatchError,
    StepBudgetExceeded,
    _block_letters,
    _cable,
    _definite_sign,
    act_bottom,
    dehornoy_sign,
    free_reduce,
    handle_reduce,
    lamination_apply,
    lamination_initial,
    lamination_sign,
    lamination_trivial,
)
from braidfrac.drs import (
    ExpansionForest,
    ExpansionTree,
    SourceMismatchError,
    expand_at,
)
from braidfrac.families import edge_shift_drs, houghton_drs, thompson_drs
from braidfrac.fraction import Flavor, GroupContext, random_element
from braidfrac.ordering import Sign


def test_free_reduce():
    assert free_reduce((1, -1)) == ()
    assert free_reduce((1, 2, -2, -1, 3)) == (3,)
    assert free_reduce((1, 2, 1)) == (1, 2, 1)


def test_braid_word_validation():
    with pytest.raises(ValueError):
        BraidWord(2, (2,))  # index out of range
    with pytest.raises(ValueError):
        BraidWord(2, (0,))
    with pytest.raises(ValueError):
        BraidWord(0, ())


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: BraidWord(2, (1,)) * BraidWord(3, (1,)), BraidError, "strand count"),
        (lambda: BraidWord.parse(3, "1 x"), BraidError, "bad braid word"),
        (
            lambda: DigitalBraid(("x", "x"), ("x", "x"), BraidWord(3)),
            BraidError,
            "braid has 3 strands, expected 2",
        ),
        (lambda: BraidWord(2, (1.0,)), BraidError, "generator index 1.0 is not an int"),
        (lambda: BraidWord(3, (True,)), BraidError, "generator index True is not an int"),
        (lambda: BraidWord(2.0, (1,)), BraidError, "strand count 2.0 is not an int"),
        (lambda: BraidWord(True, ()), BraidError, "strand count True is not an int"),
    ],
)
def test_trust_boundary_errors(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()


def test_mul_free_reduces():
    w = BraidWord(3, (1,))
    assert (w * w.inverse()).letters == ()
    assert (w * BraidWord(3, (2,))).letters == (1, 2)


def test_permutation():
    assert BraidWord(3, ()).permutation() == (1, 2, 3)
    assert BraidWord(3, (1,)).permutation() == (2, 1, 3)
    assert BraidWord(3, (1, 2)).permutation() == (3, 1, 2)
    assert BraidWord(3, (-1,)).permutation() == (2, 1, 3)


def test_parse_format_round_trip():
    w = BraidWord.parse(4, "1 -2 3 3")
    assert w.letters == (1, -2, 3, 3)
    assert BraidWord.parse(4, w.format()) == w


def test_handle_reduction_commutator():
    w = BraidWord(3, (1, 2, -1, -2))
    assert handle_reduce(w).letters == (-2, 1)
    assert dehornoy_sign(w) is Sign.POSITIVE


def test_braid_relation_trivial():
    # sigma_1 sigma_2 sigma_1 = sigma_2 sigma_1 sigma_2
    w = BraidWord(3, (1, 2, 1, -2, -1, -2))
    assert not handle_reduce(w).letters
    assert lamination_trivial(w)


def test_far_commutation_trivial():
    w = BraidWord(4, (1, 3, -1, -3))
    assert not handle_reduce(w).letters
    assert lamination_trivial(w)


def test_dehornoy_sign_antisymmetric():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(2, 5)
        letters = tuple(
            rng.choice([-1, 1]) * rng.randint(1, n - 1)
            for _ in range(rng.randint(0, 12))
        )
        w = BraidWord(n, letters)
        s = dehornoy_sign(w)
        assert dehornoy_sign(w.inverse()) is -s
        assert (s is Sign.ZERO) == (not handle_reduce(w).letters)


def test_word_problem_cross_oracle():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(3, 6)
        letters = tuple(
            rng.choice([-1, 1]) * rng.randint(1, n - 1)
            for _ in range(rng.randint(0, 15))
        )
        w = BraidWord(n, letters)
        assert (not handle_reduce(w).letters) == lamination_trivial(w)


def _reference_handle_reduce(letters: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Full-rescan handle reduction: after every rewrite, free-reduce the
    whole word and search for the leftmost-closing handle from index 0.
    Returns the reduced word and the number of rewrites."""

    def find_handle(ls):
        for j, d in enumerate(ls):
            i = abs(d)
            for k in range(j - 1, -1, -1):
                a = abs(ls[k])
                if a == i:
                    if ls[k] == -d:
                        return k, j
                    break
                if a == i - 1:
                    break
        return None

    ls = list(free_reduce(letters))
    steps = 0
    while True:
        h = find_handle(ls)
        if h is None:
            return tuple(ls), steps
        steps += 1
        k, j = h
        e = 1 if ls[k] > 0 else -1
        i = abs(ls[k])
        mid: list[int] = []
        for d in ls[k + 1 : j]:
            if abs(d) == i + 1:
                s = 1 if d > 0 else -1
                mid.extend((-e * (i + 1), s * i, e * (i + 1)))
            else:
                mid.append(d)
        ls = list(free_reduce(tuple(ls[:k]) + tuple(mid) + tuple(ls[j + 1 :])))


def _differential_corpus(thompson2):
    """Seeded words of three kinds: random words on 2-10 strands,
    commutators u v u^-1 v^-1, and words cabled by act_bottom."""
    rng = random.Random(2024)

    def word(n, length):
        return tuple(
            rng.choice([-1, 1]) * rng.randint(1, n - 1) for _ in range(length)
        )

    for _ in range(800):
        n = rng.randint(2, 10)
        yield BraidWord(n, word(n, rng.randint(0, 30)))
    for _ in range(700):
        n = rng.randint(2, 8)
        u, v = word(n, rng.randint(1, 8)), word(n, rng.randint(1, 8))
        uw, vw = BraidWord(n, u), BraidWord(n, v)
        yield BraidWord(n, u + v + uw.inverse().letters + vw.inverse().letters)
    for _ in range(600):
        # g h^-1 after cabling both along one forest, as in a comparison
        n = rng.randint(2, 4)
        labels = ("x",) * n
        g, h = (
            DigitalBraid(labels, labels, BraidWord(n, word(n, rng.randint(1, 6))))
            for _ in range(2)
        )
        b = ExpansionForest.identity(thompson2, labels)
        for _ in range(rng.randint(1, 3)):
            b = expand_at(b, rng.randint(1, len(b.leaves())))
        yield act_bottom(g, b)[1].word * act_bottom(h, b)[1].word.inverse()


def test_handle_reduce_matches_full_rescan(thompson2):
    """The resumable reducer performs the same rewrites as a full rescan:
    equal output words, equal rewrite counts, and StepBudgetExceeded at
    exactly the same budget."""
    words = list(_differential_corpus(thompson2))
    assert len(words) >= 2000
    rewrites = 0
    for w in words:
        expected, steps = _reference_handle_reduce(w.letters)
        rewrites += steps
        assert handle_reduce(w, budget=steps).letters == expected
        if steps:
            with pytest.raises(StepBudgetExceeded):
                handle_reduce(w, budget=steps - 1)
    assert rewrites > len(words)  # the corpus exercises the rewriting


def test_dehornoy_sign_matches_full_reduction(thompson2):
    """The early-stopping sign equals the one sign of the least index of the
    fully reduced word, or ZERO when that is empty."""
    for w in _differential_corpus(thompson2):
        reduced = handle_reduce(w).letters
        if reduced:
            m = min(abs(d) for d in reduced)
            signs = {d > 0 for d in reduced if abs(d) == m}
            assert len(signs) == 1, w
            expected = Sign.POSITIVE if signs.pop() else Sign.NEGATIVE
        else:
            expected = Sign.ZERO
        assert dehornoy_sign(w) is expected, w


def test_dehornoy_sign_stops_before_rewriting():
    # sigma_1 occurs once, so the sign is settled before the handle
    # sigma_2 sigma_3^-1 sigma_2^-1 is rewritten
    w = BraidWord(4, (1, 2, -3, -2))
    assert dehornoy_sign(w, 0) is Sign.POSITIVE
    with pytest.raises(StepBudgetExceeded):
        handle_reduce(w, 0)
    assert handle_reduce(w, 1).letters == (1, -3, -2, 3)


def test_lamination_initial():
    assert lamination_initial(3) == (0, 1, 0, 1, 0, 1)
    assert lamination_apply(BraidWord(3, ())) == lamination_initial(3)
    assert lamination_apply(BraidWord(3, (1,))) != lamination_initial(3)


def test_step_budget():
    w = BraidWord(3, (1, 2, -1, -2, 1, 2, -1, -2))
    with pytest.raises(StepBudgetExceeded):
        handle_reduce(w, budget=1)


def test_digital_braid_labels():
    DigitalBraid(("x", "y"), ("y", "x"), BraidWord(2, (1,)))
    with pytest.raises(LabelMismatchError):
        DigitalBraid(("x", "y"), ("y", "x"), BraidWord(2, ()))
    with pytest.raises(LabelMismatchError):
        DigitalBraid(("x",), ("x", "x"), BraidWord(2, ()))


def test_digital_braid_group_ops():
    g = DigitalBraid(("x", "y"), ("y", "x"), BraidWord(2, (1,)))
    assert not g.is_pure()
    assert g.compose(g.invert()).word.letters == ()
    with pytest.raises(LabelMismatchError):
        g.compose(g)  # bottom ("y","x") != top ("x","y")
    assert DigitalBraid(("x", "x"), ("x", "x"), BraidWord(2, (1, 1))).is_pure()


def test_act_bottom_cables_single_crossing(thompson2):
    g = DigitalBraid(("x", "x"), ("x", "x"), BraidWord(2, (1,)))
    b = expand_at(ExpansionForest.identity(thompson2, ("x", "x")), 1)
    bup, gb = act_bottom(g, b)
    # doubling bottom position 1 widens the crossing into sigma_1 sigma_2
    assert gb.word.letters == (1, 2)
    assert [t.leaf_count for t in bup.trees] == [1, 2]
    assert gb.top == ("x", "x", "x") and gb.bottom == ("x", "x", "x")


def test_act_bottom_identity_forest(thompson2):
    g = DigitalBraid(("x", "x"), ("x", "x"), BraidWord(2, (1, 1)))
    b = ExpansionForest.identity(thompson2, ("x", "x"))
    bup, gb = act_bottom(g, b)
    assert gb.word == g.word
    assert bup == ExpansionForest.identity(thompson2, ("x", "x"))
    # on the empty word both come back as they are; the cabling path would
    # index a tree for the one strand of the empty braid
    empty = DigitalBraid.identity(())
    none = ExpansionForest.identity(thompson2, ())
    assert act_bottom(empty, none) == (none, empty)


def test_act_bottom_source_mismatch(thompson2):
    g = DigitalBraid(("x", "x"), ("x", "x"), BraidWord(2, (1,)))
    b = ExpansionForest.identity(thompson2, ("x",))
    with pytest.raises(SourceMismatchError):
        act_bottom(g, b)


def test_act_bottom_respects_composition(thompson2):
    # (g h)^B = g^(h B) h^B on a small random sample
    rng = random.Random(3)
    word = ("x",) * 3
    for _ in range(25):
        mk = lambda: DigitalBraid(
            word,
            word,
            BraidWord(
                3,
                free_reduce(
                    tuple(
                        rng.choice([-1, 1]) * rng.randint(1, 2)
                        for _ in range(rng.randint(0, 6))
                    )
                ),
            ),
        )
        g, h = mk(), mk()
        gh = g.compose(h)
        b = expand_at(ExpansionForest.identity(thompson2, word), rng.randint(1, 3))
        _, both = act_bottom(gh, b)
        bup, hb = act_bottom(h, b)
        _, gb = act_bottom(g, bup)
        diff = both.word * gb.compose(hb).word.inverse()
        assert not handle_reduce(diff).letters
        assert lamination_trivial(diff)


# --- the lamination sign and the rewritten kernels ----------------------------

def _sign_corpus():
    """Seeded (kind, word) pairs: random words on 2-12 strands, commutators
    u v u^-1 v^-1, conjugates u s u^-1 of a generator s, trivial words
    u v v^-1 u^-1, cabled differences g h^-1, and the braid factors of
    compare differences a^-1 b of random braided elements."""
    rng = random.Random(7)

    def word(n, length):
        return tuple(
            rng.choice([-1, 1]) * rng.randint(1, n - 1) for _ in range(length)
        )

    def inv(u):
        return tuple(-d for d in reversed(u))

    for _ in range(30_000):
        n = rng.randint(2, 12)
        yield "random", BraidWord(n, word(n, rng.randint(0, 60)))
    for _ in range(7_000):
        n = rng.randint(2, 8)
        u, v = word(n, rng.randint(1, 10)), word(n, rng.randint(1, 10))
        yield "commutator", BraidWord(n, u + v + inv(u) + inv(v))
    for _ in range(6_000):
        n = rng.randint(2, 8)
        u = word(n, rng.randint(0, 12))
        yield "conjugate", BraidWord(n, u + word(n, 1) + inv(u))
    for _ in range(4_000):
        n = rng.randint(2, 8)
        u, v = word(n, rng.randint(0, 10)), word(n, rng.randint(0, 10))
        yield "trivial", BraidWord(n, u + v + inv(v) + inv(u))
    thompson2 = thompson_drs(2)
    for _ in range(2_400):
        n = rng.randint(2, 5)
        labels = ("x",) * n
        g, h = (
            DigitalBraid(labels, labels, BraidWord(n, word(n, rng.randint(1, 8))))
            for _ in range(2)
        )
        b = ExpansionForest.identity(thompson2, labels)
        for _ in range(rng.randint(1, 3)):
            b = expand_at(b, rng.randint(1, len(b.leaves())))
        yield "cabled", act_bottom(g, b)[1].word * act_bottom(h, b)[1].word.inverse()
    edge2 = edge_shift_drs([("a", ["a", "b"]), ("b", ["b", "a"])], base=("a",))
    for drs in (thompson2, houghton_drs(3), edge2):
        ctx = GroupContext(drs, drs.base, Flavor.BRAIDED)
        for i in range(200):
            a = random_element(ctx, 5, 2 * i, max_braid_letters=10)
            b = random_element(ctx, 5, 2 * i + 1, max_braid_letters=10)
            yield "compare", (a.invert() * b).g.word


@pytest.fixture(scope="module")
def sign_corpus():
    """`_sign_corpus()` built once for the tests that walk all of it."""
    return list(_sign_corpus())


def _dynnikov_sign(w: BraidWord) -> Sign:
    """Dynnikov's criterion with no shortcut: the first coordinate of the
    lamination action that differs from the initial one, on every word."""
    for x, x0 in zip(lamination_apply(w), lamination_initial(w.strands)):
        if x != x0:
            return Sign.POSITIVE if x > x0 else Sign.NEGATIVE
    return Sign.ZERO


def test_lamination_sign_matches_handle_reduction(sign_corpus):
    """Dynnikov's criterion agrees with handle reduction on every word, and
    `lamination_sign` with both.  Handle reduction is played against the
    full lamination pass, since on a sigma-definite word `lamination_sign`
    and `dehornoy_sign` both read Property A."""
    counts: dict[tuple[str, Sign], int] = {}
    disagreements = []
    for kind, w in sign_corpus:
        s = _dynnikov_sign(w)
        if s is not dehornoy_sign(w) or s is not lamination_sign(w):
            disagreements.append((kind, w))
        counts[kind, s] = counts.get((kind, s), 0) + 1
    assert not disagreements, disagreements[:3]
    assert sum(counts.values()) >= 50_000
    assert {k for k, s in counts if s is Sign.ZERO} >= {"random", "trivial"}
    assert not any(counts.get(("trivial", s)) for s in (Sign.POSITIVE, Sign.NEGATIVE))
    for kind in ("random", "commutator", "conjugate", "cabled", "compare"):
        assert counts[kind, Sign.POSITIVE] and counts[kind, Sign.NEGATIVE], kind


def test_definite_sign_matches_lamination(sign_corpus):
    """Property A: every word the prefilter decides, freely reduced or not,
    has the sign of the full lamination pass, and `lamination_trivial`
    agrees with the lamination action on every word."""
    unreduced = [
        BraidWord(3, (1, 2, -2)),
        BraidWord(3, (2, -2, -1)),
        BraidWord(4, (3, 2, -3, 3, 2, 3, -3)),
        BraidWord(4, (-2, 3, -3, -2, 3, -3, -2)),
        BraidWord(3, (2, -2)),
        BraidWord(3, (1, -1, 2)),
    ]
    counts: dict[tuple[bool, Sign], int] = {}
    for w in [w for _, w in sign_corpus] + unreduced:
        full = _dynnikov_sign(w)
        s = _definite_sign(w.letters)
        assert s is None or s is full, w
        fixed = lamination_apply(w) == lamination_initial(w.strands)
        assert lamination_trivial(w) == fixed, w
        counts[s is not None, full] = counts.get((s is not None, full), 0) + 1
    assert [_definite_sign(w.letters) for w in unreduced] == [
        Sign.POSITIVE, Sign.NEGATIVE, Sign.POSITIVE, Sign.NEGATIVE, None, None
    ]
    assert [_dynnikov_sign(w) for w in unreduced[4:]] == [Sign.ZERO, Sign.POSITIVE]
    for definite in (True, False):
        for sign in (Sign.POSITIVE, Sign.NEGATIVE):
            assert counts.get((definite, sign)), (definite, sign)
    assert counts[True, Sign.ZERO] and counts[False, Sign.ZERO]


def test_lamination_sign_named_values():
    assert lamination_sign(BraidWord(3, ())) is Sign.ZERO
    assert lamination_sign(BraidWord(3, (2,))) is Sign.POSITIVE
    assert lamination_sign(BraidWord(3, (-1, 2))) is Sign.NEGATIVE
    # sigma_2 sigma_1^-1: the least index occurs only negatively
    assert lamination_sign(BraidWord(3, (2, -1))) is Sign.NEGATIVE
    assert lamination_sign(BraidWord(3, (1, 2, -1, -2))) is Sign.POSITIVE


def _reference_lamination_apply(w: BraidWord) -> tuple[int, ...]:
    """The slice-based kernel: each letter rewrites one 4-coordinate window
    through max(x, 0) and min(x, 0) helpers, negating a_i and a_{i+1}
    around the positive formula for an inverse letter."""

    def pos(x):
        return x if x > 0 else 0

    def neg(x):
        return x if x < 0 else 0

    c = list(lamination_initial(w.strands))
    for d in w.letters:
        i = abs(d)
        a1, b1, a2, b2 = c[2 * i - 2 : 2 * i + 2]
        if d < 0:
            a1, a2 = -a1, -a2
        t = a1 - a2 - neg(b1) + pos(b2)
        na1 = a1 + pos(b1) + pos(pos(b2) - t)
        nb1 = b2 - pos(t)
        na2 = a2 + neg(b2) + neg(neg(b1) + t)
        nb2 = b1 + pos(t)
        if d < 0:
            na1, na2 = -na1, -na2
        c[2 * i - 2 : 2 * i + 2] = (na1, nb1, na2, nb2)
    return tuple(c)


def test_lamination_apply_matches_reference(thompson2):
    words = [BraidWord(n, ()) for n in range(1, 6)]
    words += list(_differential_corpus(thompson2))
    for w in words:
        assert lamination_apply(w) == _reference_lamination_apply(w)


def _nested_block_letters(offset: int, p: int, q: int, sign: int) -> list[int]:
    """The crossing of a width-p cable over a width-q cable at positions
    offset+1 .. offset+p+q, one letter per pair of crossing strands."""
    if sign > 0:
        return [offset + p - i + j for i in range(1, p + 1) for j in range(1, q + 1)]
    positive = [offset + q - i + j for i in range(1, q + 1) for j in range(1, p + 1)]
    return [-x for x in reversed(positive)]


def test_block_letters_match_nested_formula():
    for offset in range(4):
        for p in range(1, 6):
            for q in range(1, 6):
                for sign in (1, -1):
                    got = list(_block_letters(offset, p, q, sign))
                    assert got == _nested_block_letters(offset, p, q, sign)


def _reference_act_bottom(g: DigitalBraid, b: ExpansionForest):
    """Cabling that sums the cable widths in front of each crossing afresh."""
    n = len(g.top)
    if n == 0:
        return b, g
    perm = g.word.permutation()
    widths = [b.trees[perm[i] - 1].leaf_count for i in range(n)]
    bup = ExpansionForest(b.drs, tuple(b.trees[perm[i] - 1] for i in range(n)))
    arr = list(range(n))
    letters: list[int] = []
    for d in g.word.letters:
        k = abs(d)
        u, v = arr[k - 1], arr[k]
        offset = sum(widths[s] for s in arr[: k - 1])
        letters.extend(_nested_block_letters(offset, widths[u], widths[v], d))
        arr[k - 1], arr[k] = v, u
    word = BraidWord(max(sum(widths), 1), free_reduce(tuple(letters)))
    return bup, DigitalBraid(bup.leaves(), b.leaves(), word)


def test_act_bottom_matches_reference():
    edge2 = edge_shift_drs([("a", ["a", "b"]), ("b", ["b", "a"])], base=("a",))
    rng = random.Random(11)
    checked = empty = 0
    for drs in (thompson_drs(2), houghton_drs(3), edge2):
        for flavor in (Flavor.BRAIDED, Flavor.PURE_BRAIDED, Flavor.PERMUTATION):
            ctx = GroupContext(drs, drs.base, flavor)
            for seed in range(60):
                g = random_element(ctx, 5, seed, max_braid_letters=10).g
                b = ExpansionForest.identity(drs, g.bottom)
                for _ in range(rng.randint(0, 4)):
                    open_leaves = [
                        p
                        for p, a in enumerate(b.leaves(), start=1)
                        if a in drs.rule_map
                    ]
                    if open_leaves:
                        b = expand_at(b, rng.choice(open_leaves))
                for h in (g, DigitalBraid.identity(g.bottom)):
                    assert act_bottom(h, b) == _reference_act_bottom(h, b)
                    checked += 1
                    empty += not h.word.letters
    assert checked >= 1000 and empty >= 540


def test_cable_carries_trees_along_strands():
    # trees carried down land where the strands end and trees carried up
    # where they start; the walk up is the inverse of the walk down the
    # inverse word
    rng = random.Random(29)
    empty = leaves_only = mixed = 0
    for _ in range(600):
        n = rng.randint(1, 8)
        length = 0 if n == 1 or rng.random() < 0.1 else rng.randint(1, 12)
        letters = tuple(
            rng.randint(1, n - 1) * rng.choice((1, -1)) for _ in range(length)
        )
        word = BraidWord(n, letters)
        perm = word.permutation()
        for widths in ([1] * n, [rng.choice((1, 1, 2, 3)) for _ in range(n)]):
            # distinct labels, so equal trees are the same tree
            trees = [
                ExpansionTree(f"x{i}", tuple(ExpansionTree("y") for _ in range(w)))
                if w > 1 else ExpansionTree(f"x{i}")
                for i, w in enumerate(widths)
            ]
            down_letters, down = _cable(letters, trees)
            up_letters, up = _cable(letters, trees, True)
            placed = [None] * n
            for i, p in enumerate(perm):
                placed[p - 1] = trees[i]
            assert down == placed
            assert up == [trees[p - 1] for p in perm]
            inverse = word.inverse().letters
            back, _ = _cable(inverse, trees)
            assert up_letters == tuple(-d for d in reversed(back))
            if sum(widths) == n:
                assert down_letters == up_letters == letters
            empty += not letters
            leaves_only += sum(widths) == n
            mixed += sum(widths) > n
    assert empty >= 60 and leaves_only >= 600 and mixed >= 400
