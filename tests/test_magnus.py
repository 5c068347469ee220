"""Magnus expansion, Artin combing, and the pure braid order.

Combing is checked against the braid oracles: recombining the combed
components must reproduce the original word up to braid equivalence,
verified through handle reduction and the lamination action independently.
"""

from __future__ import annotations

import random

import pytest

from braidfrac.braids import (
    BraidWord,
    DigitalBraid,
    free_reduce,
    handle_reduce,
    lamination_trivial,
)
from braidfrac.magnus import (
    DegreeCapExceeded,
    MagnusError,
    NcPolynomial,
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
    assert delete_strand(a_jk(1, 3), 3) == ()
    assert free_reduce(delete_strand(a_jk(1, 2), 3)) == (1, 1)


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
