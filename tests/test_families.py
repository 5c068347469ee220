"""Stock rewriting systems and the braided Houghton generators."""

from __future__ import annotations

import pytest

from braidfrac.braids import BraidWord
from braidfrac.drs import DrsError, DrsParseError
from braidfrac.families import (
    bh_type1,
    bh_type2,
    edge_shift_drs,
    family_drs,
    houghton_drs,
    parse_edge_shift,
    thompson_drs,
)


def test_thompson():
    drs = thompson_drs(3)
    assert drs.alphabet == ("x",)
    assert drs.rule_map["x"].rhs == ("x", "x", "x")
    assert drs.base == ("x",)
    with pytest.raises(DrsError):
        thompson_drs(1)


def test_houghton():
    drs = houghton_drs(3)
    assert drs.alphabet == ("x", "y1", "y2", "y3")
    assert drs.base == ("y1", "y2", "y3")
    for y in ("y1", "y2", "y3"):
        assert drs.rule_map[y].rhs == (y, "x")
    assert "x" not in drs.rule_map
    with pytest.raises(DrsError):
        houghton_drs(0)


def test_family_names():
    assert family_drs("thompson:2").alphabet == ("x",)
    assert family_drs("houghton:2").base == ("y1", "y2")
    with pytest.raises(DrsError):
        family_drs("dihedral:5")
    # a count that is not an integer names the family, not a bare ValueError
    for name in ("thompson:x", "houghton:", "thompson"):
        with pytest.raises(DrsError, match="thompson|houghton"):
            family_drs(name)


def test_edge_shift():
    drs = edge_shift_drs([("a", ["a", "b"]), ("b", ["b", "a"])], base=("a",))
    assert drs.alphabet == ("a", "b")
    assert drs.rule_map["a"].rhs == ("a", "b")
    with pytest.raises(DrsError):
        edge_shift_drs([("a", ["a"])])  # out-degree 1 unsupported
    sink = edge_shift_drs([("a", ["a", "b"]), ("b", [])], base=("a",))
    assert "b" not in sink.rule_map


def test_parse_edge_shift():
    drs = parse_edge_shift(
        """
        # tiny graph
        a: a b
        b: b a
        base: a
        """
    )
    assert drs.base == ("a",)
    assert drs.rule_map["b"].rhs == ("b", "a")
    with pytest.raises(DrsParseError):
        parse_edge_shift("a: a c")  # c never declared
    with pytest.raises(DrsParseError):
        parse_edge_shift("a: a b\na: b a\nb: a b")  # duplicate vertex
    with pytest.raises(DrsParseError):
        parse_edge_shift("just words")
    with pytest.raises(DrsParseError, match="out-degree 1"):
        parse_edge_shift("a: a\nb: a b")  # the system refuses it
    # refused as `parse_drs` refuses it, not resolved to the last line
    with pytest.raises(DrsParseError, match=r"^line 4: duplicate base line$"):
        parse_edge_shift("a: a b\nb: a b\nbase: a\nbase: b")


def test_bh_type1():
    word = ("y1", "x", "x", "y2")
    g = bh_type1(word, 1)
    assert g.top == word
    assert g.bottom == ("x", "y1", "x", "y2")
    assert g.word.letters == (-1,)  # ray letter at position 1 passes under
    h = bh_type1(word, 3)
    assert h.bottom == ("y1", "x", "y2", "x")
    assert h.word.letters == (3,)  # x at position 3 passes over
    assert bh_type1(word, 3, x_over=False).word.letters == (-3,)
    with pytest.raises(DrsError):
        bh_type1(word, 2)  # two x letters
    with pytest.raises(DrsError):
        bh_type1(word, 4)  # out of range


def test_bh_type2():
    word = ("y1", "x", "x", "x", "y2")
    g = bh_type2(word, 2, BraidWord(3, (1, -2)))
    assert g.top == g.bottom == word
    assert g.word.letters == (2, -3)
    with pytest.raises(DrsError):
        bh_type2(word, 1, BraidWord(2, (1,)))  # block y1 x not constant
    with pytest.raises(DrsError):
        bh_type2(word, 4, BraidWord(3, (1,)))  # block runs off the end
