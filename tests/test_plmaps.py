"""Exact PL interval maps and the realization of expansion forests."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from braidfrac.drs import (
    ExpansionForest,
    SourceMismatchError,
    SystemMismatchError,
    enumerate_expansions,
    forest_from_steps,
    graft,
)
from braidfrac.families import thompson_drs
from braidfrac.fraction import random_element
from braidfrac.ordering import Sign
from braidfrac.plmaps import (
    PLMap,
    PLMapError,
    pl_compose,
    pl_sign,
    realization_sign,
    realize_forest,
    realize_pair,
)
from conftest import make_context

F = Fraction


def test_validation():
    with pytest.raises(PLMapError):
        PLMap(((F(0), F(1)), (F(1), F(2))))  # must start at the origin
    with pytest.raises(PLMapError):
        PLMap(((F(0), F(0)), (F(1), F(1)), (F(1), F(2))))  # not strictly increasing
    with pytest.raises(PLMapError):
        PLMap(((F(0), F(0)),))


def test_identity_and_call():
    f = PLMap.from_points([(0, 0), (2, 2)])
    assert f(F(1, 3)) == F(1, 3)
    assert f.is_identity()
    g = PLMap.from_points([(F(0), F(0)), (F(1), F(2)), (F(2), F(3))])
    assert g(F(1, 2)) == F(1)
    assert g(F(3, 2)) == F(5, 2)
    with pytest.raises(PLMapError):
        g(F(3))


def test_inverse_and_compose():
    g = PLMap.from_points([(F(0), F(0)), (F(1), F(3)), (F(2), F(4))])
    assert pl_compose(g, g.inverse()).is_identity()
    assert pl_compose(g.inverse(), g).is_identity()
    h = PLMap.from_points([(F(0), F(0)), (F(3), F(1)), (F(4), F(4))])
    fg = pl_compose(h, g)
    for x in (F(0), F(1, 2), F(1), F(3, 2), F(2)):
        assert fg(x) == h(g(x))


def test_prune_collinear():
    f = PLMap.from_points([(F(0), F(0)), (F(1), F(1)), (F(2), F(2))])
    assert f.breakpoints == ((F(0), F(0)), (F(2), F(2)))


def test_format_parse_round_trip():
    f = PLMap.from_points([(F(0), F(0)), (F(1, 2), F(1, 4)), (F(1), F(1))])
    assert f.format_text() == "(0,0) (1/2,1/4) (1,1)"


def test_realize_forest_shape(thompson2):
    f = realize_forest(forest_from_steps(thompson2, ("x",), [1]))
    assert f.breakpoints == ((F(0), F(0)), (F(2), F(1)))
    assert f.domain_length == 2 and f.range_length == 1


def test_realize_pair_dyadic_map(thompson2):
    # doubling map on the left half against the balanced subdivision
    t = forest_from_steps(thompson2, ("x",), [1, 1])
    s = forest_from_steps(thompson2, ("x",), [1, 2])
    m = realize_pair(t, s)
    assert m.breakpoints == (
        (F(0), F(0)),
        (F(1, 2), F(1, 4)),
        (F(3, 4), F(1, 2)),
        (F(1), F(1)),
    )
    assert pl_sign(m) is Sign.NEGATIVE
    assert pl_sign(m.inverse()) is Sign.POSITIVE
    assert pl_sign(realize_pair(t, t)) is Sign.ZERO
    assert realization_sign(t, s) is Sign.NEGATIVE
    assert realization_sign(s, t) is Sign.POSITIVE
    assert realization_sign(t, t) is Sign.ZERO


def test_realization_functorial(thompson2):
    for f in enumerate_expansions(thompson2, ("x",), 2):
        for g in enumerate_expansions(thompson2, f.leaves(), 2):
            lhs = realize_forest(graft(f, g))
            rhs = pl_compose(realize_forest(f), realize_forest(g))
            assert lhs == rhs


def test_realization_faithful(thompson2):
    for t in enumerate_expansions(thompson2, ("x",), 3):
        for s in enumerate_expansions(thompson2, ("x",), 3):
            if t.leaf_count() != s.leaf_count():
                continue
            m = realize_pair(t, s)
            assert m == pl_compose(realize_forest(t), realize_forest(s).inverse())
            assert m.is_identity() == (t == s)
            assert realization_sign(t, s) is pl_sign(m)


def test_pl_sign_is_first_deviation():
    # above the diagonal first, below later: sign follows the first breakpoint
    m = PLMap.from_points(
        [(F(0), F(0)), (F(1, 4), F(1, 2)), (F(7, 8), F(3, 4)), (F(1), F(1))]
    )
    assert pl_sign(m) is Sign.POSITIVE


def _raw_pairs(drs, word, depth, count, rng):
    """Random pairs of distinct forests on `word` with equal leaf words, at
    most `depth` expansions each."""
    classes: dict[tuple[str, ...], list[ExpansionForest]] = {}
    for f in sorted(enumerate_expansions(drs, word, depth), key=repr):
        classes.setdefault(f.leaves(), []).append(f)
    pairs = [
        (g[i], g[j])
        for g in classes.values()
        for i in range(len(g))
        for j in range(i + 1, len(g))
    ]
    return rng.sample(pairs, count)


def _difference_pairs(drs, count, seed):
    """Forest pairs (T, S) with equal leaf words from compare differences
    a^-1 b of random elements in the plain, pure and braided flavors."""
    pairs = []
    for i in range(count):
        ctx = make_context(drs, ("plain", "pure", "braided")[i % 3])
        a = random_element(ctx, 4, seed + 2 * i, max_braid_letters=3)
        b = random_element(ctx, 4, seed + 2 * i + 1, max_braid_letters=3)
        d = a.invert() * b
        if d.T.leaves() == d.S.leaves():
            pairs.append((d.T, d.S))
    return pairs


def test_realization_sign_matches_pl_map(thompson2, houghton3, edge2):
    # the direct walk against the full PL composition, the reference; raw
    # pairs on two-letter words have their first deviation in either tree.
    # Houghton gives zero pairs only: equal leaf words force equal forests.
    rng = random.Random(20260)
    pairs = _difference_pairs(houghton3, 200, 0)
    systems = ((thompson2, 5), (edge2, 6), (thompson_drs(3), 4))
    for k, (drs, depth) in enumerate(systems, start=1):
        pairs += _difference_pairs(drs, 400, 1000 * k)
        pairs += _raw_pairs(drs, drs.base * 2, depth, 1250, rng)
    nonzero = 0
    for t, s in pairs:
        expected = pl_sign(realize_pair(t, s))
        assert realization_sign(t, s) is expected, (t, s)
        assert realization_sign(s, t) is -expected, (s, t)
        nonzero += expected is not Sign.ZERO
    assert len(pairs) >= 5000 and nonzero >= 2000, (len(pairs), nonzero)


def test_realization_sign_source_mismatch(thompson2, edge2):
    x = ExpansionForest.identity(thompson2, ("x",))
    xx = ExpansionForest.identity(thompson2, ("x", "x"))
    for f, g in ((x, xx), (xx, x)):
        with pytest.raises(SourceMismatchError):
            realization_sign(f, g)
        with pytest.raises(SourceMismatchError):
            realize_pair(f, g)
    t = forest_from_steps(edge2, ("a",), [1, 1])  # leaves a b b
    s = forest_from_steps(edge2, ("a",), [1, 2])  # leaves a b a
    assert t.leaf_count() == s.leaf_count() and t.leaves() != s.leaves()
    for f, g in ((t, s), (s, t)):
        with pytest.raises(SourceMismatchError):
            realization_sign(f, g)
        with pytest.raises(SourceMismatchError):
            realize_pair(f, g)


def test_realization_refuses_forests_of_two_systems():
    # both leaf words are x x x, but the forests split their interval in
    # different ways: their pair realizes no element of either group
    t = forest_from_steps(thompson_drs(2), ("x",), [1, 1])
    s = forest_from_steps(thompson_drs(3), ("x",), [1])
    assert t.leaves() == s.leaves() == ("x",) * 3
    for f, g in ((t, s), (s, t)):
        with pytest.raises(SystemMismatchError):
            realize_pair(f, g)
        with pytest.raises(SystemMismatchError):
            realization_sign(f, g)


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: PLMap(((F(0), F(0)), (F(1, 2), F(1)))), PLMapError, "integers"),
        (
            lambda: pl_compose(
                PLMap.from_points([(0, 0), (1, 1)]),
                PLMap.from_points([(0, 0), (2, 2)]),
            ),
            PLMapError,
            "does not match domain",
        ),
        (
            lambda: pl_sign(PLMap.from_points([(0, 0), (1, 2)])),
            PLMapError,
            "self-maps only",
        ),
        (
            lambda: PLMap(((0, 0), (0.5, 0.25), (1, 1))),
            PLMapError,
            "coordinate 0.5 is not an int or a Fraction",
        ),
        (
            lambda: PLMap(((0, 0), (1.0, 1.0))),
            PLMapError,
            "coordinate 1.0 is not an int or a Fraction",
        ),
    ],
)
def test_trust_boundary_errors(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
