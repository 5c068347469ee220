"""Magnus expansion, Artin combing, and the pure braid order.

Combing is checked against the braid oracles: recombining the combed
components must reproduce the original word up to braid equivalence,
verified through handle reduction and the lamination action independently.
`pure_word_sign`, which reads linking numbers and combs at most one level,
is checked against combing every level (`_comb_sign`).
"""

from __future__ import annotations

import random

import pytest

from braidfrac import magnus
from braidfrac.braids import (
    BraidWord,
    DigitalBraid,
    act_bottom,
    free_reduce,
    handle_reduce,
    lamination_trivial,
)
from braidfrac.drs import ExpansionForest, expand_at
from braidfrac.families import houghton_drs, thompson_drs
from braidfrac.fraction import Flavor, GroupContext, random_element
from braidfrac.magnus import (
    DegreeCapExceeded,
    MagnusError,
    NcPolynomial,
    _comb_sign,
    _level_component,
    comb,
    comb_word,
    delete_strand,
    free_word_sign,
    invert_free,
    magnus_expand,
    pure_braid_sign,
    pure_word_sign,
    recombine,
)
from braidfrac.ordering import Sign


def a_jk(j: int, k: int) -> tuple[int, ...]:
    """Standard pure braid generator (sigma_{k-1}..sigma_{j+1}) sigma_j^2
    (...)^{-1}."""
    outer = tuple(range(k - 1, j, -1))
    return outer + (j, j) + tuple(-d for d in reversed(outer))


def random_pure_word(rng: random.Random, n: int, size: int) -> tuple[int, ...]:
    letters: tuple[int, ...] = ()
    for _ in range(size):
        j = rng.randint(1, n - 1)
        k = rng.randint(j + 1, n)
        w = a_jk(j, k)
        letters += w if rng.random() < 0.5 else tuple(-d for d in reversed(w))
    return free_reduce(letters)


def test_free_word_helpers():
    assert free_reduce((1, -1, 2)) == (2,)
    assert invert_free((1, -2)) == (2, -1)


def test_magnus_of_generator():
    p = magnus_expand((1,), 2)
    assert p.coeffs == {(): 1, (1,): 1}
    q = magnus_expand((-1,), 2)
    assert q.coeffs == {(): 1, (1,): -1, (1, 1): 1}
    assert (p * q).coeffs == {(): 1}


def test_magnus_commutator_lowest_term():
    p = magnus_expand((1, 2, -1, -2), 2)
    assert p.coeffs == {(): 1, (1, 2): 1, (2, 1): -1}
    assert (p - NcPolynomial.one(2)).lowest_term() == ((1, 2), 1)


def test_free_word_sign():
    assert free_word_sign(()) is Sign.ZERO
    assert free_word_sign((1,)) is Sign.POSITIVE
    assert free_word_sign((-1, -1)) is Sign.NEGATIVE
    # lowest surviving term of the commutator is +X1X2
    assert free_word_sign((1, 2, -1, -2)) is Sign.POSITIVE
    assert free_word_sign((2, 1, -2, -1)) is Sign.NEGATIVE


def test_degree_cap():
    with pytest.raises(DegreeCapExceeded):
        free_word_sign((1, 2, -1, -2), degree_cap=1)


def test_combing_standard_generator():
    form = comb_word(a_jk(1, 3), 3)
    assert form.strands == 3
    assert form.components == ((1,), ())
    assert not form.is_trivial()
    assert comb_word((), 3).is_trivial()


def test_comb_rejects_non_pure():
    with pytest.raises(MagnusError):
        comb_word((1,), 2)
    with pytest.raises(MagnusError):
        pure_braid_sign(DigitalBraid(("x", "x"), ("x", "x"), BraidWord(2, (1,))))


def test_delete_strand():
    # removing the strand a generator wraps around kills it
    assert delete_strand(a_jk(1, 3), 3, 3) == ()
    assert delete_strand(a_jk(1, 2), 3, 3) == (1, 1)
    # every strand from 3 on goes; strands 1 and 2 keep their crossings
    w = a_jk(1, 2) + a_jk(2, 4) + a_jk(1, 3)
    assert delete_strand(w, 4, 3) == (1, 1)
    assert delete_strand(w, 4, 5) == free_reduce(w)
    for letters in (a_jk(1, 4), a_jk(2, 3) + a_jk(3, 4), w):
        assert delete_strand(letters, 4, 3) == delete_strand(
            delete_strand(letters, 4, 4), 3, 3
        )


def test_recombine_inverts_comb():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 5)
        letters = random_pure_word(rng, n, rng.randint(0, 4))
        w = BraidWord(n, letters)
        back = recombine(comb_word(letters, n), n)
        diff = w * back.inverse()
        assert not handle_reduce(diff).letters
        assert lamination_trivial(diff)


def test_pure_sign_basics():
    assert pure_word_sign((), 2) is Sign.ZERO
    assert pure_word_sign((1, 1), 2) is Sign.POSITIVE
    assert pure_word_sign((-1, -1), 2) is Sign.NEGATIVE
    g = DigitalBraid(("x", "x"), ("x", "x"), BraidWord(2, (1, 1)))
    assert pure_braid_sign(g) is Sign.POSITIVE


def test_pure_sign_antisymmetric_and_zero_iff_trivial():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 4)
        letters = random_pure_word(rng, n, rng.randint(0, 3))
        s = pure_word_sign(letters, n)
        assert pure_word_sign(invert_free(letters), n) is -s
        assert (s is Sign.ZERO) == lamination_trivial(BraidWord(n, letters))


def test_pure_sign_conjugation_invariant():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(3, 4)
        w = random_pure_word(rng, n, rng.randint(1, 3))
        c = random_pure_word(rng, n, rng.randint(1, 3))
        conj = free_reduce(c + w + invert_free(c))
        assert pure_word_sign(conj, n) is pure_word_sign(w, n)


def test_pure_sign_positive_cone_closed():
    rng = random.Random(9)
    found = 0
    while found < 20:
        n = rng.randint(2, 4)
        u = random_pure_word(rng, n, rng.randint(1, 3))
        v = random_pure_word(rng, n, rng.randint(1, 3))
        if pure_word_sign(u, n) is not Sign.POSITIVE:
            u = invert_free(u)
        if pure_word_sign(v, n) is not Sign.POSITIVE:
            v = invert_free(v)
        if (
            pure_word_sign(u, n) is Sign.POSITIVE
            and pure_word_sign(v, n) is Sign.POSITIVE
        ):
            found += 1
            assert pure_word_sign(free_reduce(u + v), n) is Sign.POSITIVE


def test_comb_digital_braid():
    g = DigitalBraid(("x", "x"), ("x", "x"), BraidWord(2, (1, 1)))
    form = comb(g)
    assert form.strands == 2 and form.components == ((1,),)


# --- the linking-number path against combing ---------------------------------

def _pure_corpus():
    """Seeded (kind, strands, word) triples, all pure: products of random
    generators A_jk on 2-10 strands; random words closed up by their
    reversed indices with fresh signs; commutators of generators and their
    conjugates, all linking numbers zero; commutators on the strands below a
    linking level, which force combing; `act_bottom`-cabled pure braids;
    and the braid factors of pure compare differences a^-1 b."""
    rng = random.Random(13)

    def word(n, length):
        return tuple(
            rng.choice([-1, 1]) * rng.randint(1, n - 1) for _ in range(length)
        )

    def gen(n):
        j = rng.randint(1, n - 1)
        w = a_jk(j, rng.randint(j + 1, n))
        return w if rng.random() < 0.5 else invert_free(w)

    for _ in range(3_700):
        n = rng.randint(2, 10)
        yield "random", n, random_pure_word(rng, n, rng.randint(0, 6))
    for _ in range(1_500):
        n = rng.randint(2, 10)
        u = word(n, rng.randint(0, 8))
        back = tuple(rng.choice([-1, 1]) * abs(d) for d in reversed(u))
        yield "closed", n, free_reduce(u + back)
    for _ in range(2_000):
        n = rng.randint(3, 8)
        x, y, c = gen(n), gen(n), word(n, rng.randint(0, 6))
        comm = x + y + invert_free(x) + invert_free(y)
        yield "commutator", n, free_reduce(c + comm + invert_free(c))
    for _ in range(1_500):
        n = rng.randint(4, 9)
        k = rng.randint(4, n)
        comm = ()
        while lamination_trivial(BraidWord(k - 1, comm)):
            x, y = gen(k - 1), gen(k - 1)
            comm = x + y + invert_free(x) + invert_free(y)
        tail = a_jk(rng.randint(1, k - 1), k)
        if rng.random() < 0.5:
            tail = invert_free(tail)
        for _ in range(rng.randint(0, n - k)):
            tail += a_jk(rng.randint(1, n - 1), n)
        yield "hidden", n, free_reduce(comm + tail)
    pure = [
        GroupContext(drs, drs.base, Flavor.PURE_BRAIDED)
        for drs in (thompson_drs(2), houghton_drs(3))
    ]
    for i in range(400):
        drs = pure[i % 2].drs
        g = random_element(pure[i % 2], 4, i, max_braid_letters=8).g
        b = ExpansionForest.identity(drs, g.bottom)
        for _ in range(rng.randint(1, 3)):
            b = expand_at(b, rng.choice([
                p for p, a in enumerate(b.leaves(), start=1)
                if drs.rule_for(a) is not None
            ]))
        w = act_bottom(g, b)[1].word
        yield "padded", w.strands, w.letters
    for ctx in pure:
        for i in range(500):
            a = random_element(ctx, 4, 2 * i, max_braid_letters=8)
            b = random_element(ctx, 4, 2 * i + 1, max_braid_letters=8)
            w = (a.invert() * b).g.word
            yield "compare", w.strands, w.letters


def test_pure_sign_matches_combing(monkeypatch):
    """The order path signs every word as combing every level does, both by
    linking numbers and by combing one level, and never combs more than
    one level per word."""
    combs = []

    def level_component(letters, k):
        combs.append(k)
        return _level_component(letters, k)

    monkeypatch.setattr(magnus, "_level_component", level_component)
    counts: dict[tuple[str, Sign], int] = {}
    disagreements = []
    decided = combed = 0
    for kind, n, letters in _pure_corpus():
        before = len(combs)
        s = pure_word_sign(letters, n)
        levels = len(combs) - before
        assert levels <= 1, (kind, n, letters)
        combed += levels
        decided += not levels and bool(letters)
        if s is not _comb_sign(letters, n, 16):
            disagreements.append((kind, n, letters))
        counts[kind, s] = counts.get((kind, s), 0) + 1
    assert not disagreements, disagreements[:3]
    assert sum(counts.values()) >= 10_000
    assert decided >= 5_000 and combed >= 2_500, (decided, combed)
    for kind in ("random", "closed", "commutator", "hidden", "padded", "compare"):
        assert counts[kind, Sign.POSITIVE] and counts[kind, Sign.NEGATIVE], kind


def test_pure_sign_named_values():
    for n in range(2, 7):
        for k in range(2, n + 1):
            for j in range(1, k):
                assert pure_word_sign(a_jk(j, k), n) is Sign.POSITIVE
                assert pure_word_sign(invert_free(a_jk(j, k)), n) is Sign.NEGATIVE
    # lk(1, 3) = -1 and lk(2, 3) = +1: the least strand j0 = 1 decides
    w = free_reduce(invert_free(a_jk(1, 3)) + a_jk(2, 3))
    assert pure_word_sign(w, 3) is Sign.NEGATIVE
    assert pure_word_sign(invert_free(w), 3) is Sign.POSITIVE
    # below degree 1 nothing is decided, as in combing
    with pytest.raises(DegreeCapExceeded):
        pure_word_sign(a_jk(1, 2), 2, degree_cap=0)
    # linking numbers all zero: the commutator [A12, A23] is combed
    comm = (1, 1, 2, 2, -1, -1, -2, -2)
    assert pure_word_sign(comm, 3) is _comb_sign(comm, 3, 16) is Sign.NEGATIVE
    # lk(1, 4) = +1, but strands 1..3 carry the commutator: level 3 decides
    w = comm + a_jk(1, 4)
    assert pure_word_sign(w, 4) is _comb_sign(w, 4, 16) is Sign.NEGATIVE
