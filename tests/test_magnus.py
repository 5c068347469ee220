"""Magnus expansion, Artin combing, and the pure braid order.

Combing is checked against the braid oracles: recombining the combed
components must reproduce the original word up to braid equivalence,
verified through handle reduction and the lamination action independently.
`pure_word_sign`, which reads linking numbers and signs at most one level
by its truncated Magnus series (`_level_sign`), is checked against combing
level by level up to the deciding one (`_comb_sign`), and the series
against `free_word_sign` of the combed component at every cap.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import FrozenInstanceError

import pytest

from braidfrac import LimitExceeded, magnus
from braidfrac.braids import (
    BraidWord,
    DigitalBraid,
    StepBudgetExceeded,
    _cable,
    act_bottom,
    delete_strand,
    free_reduce,
    handle_reduce,
    lamination_trivial,
)
from braidfrac.drs import ExpansionForest, ExpansionTree, expand_at
from braidfrac.families import houghton_drs, thompson_drs
from braidfrac.fraction import Flavor, GroupContext, random_element
from braidfrac.magnus import (
    DegreeCapExceeded,
    MagnusError,
    NcPolynomial,
    _comb_sign,
    _level_component,
    _level_series,
    _level_sign,
    comb_word,
    free_word_sign,
    invert_free,
    magnus_expand,
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
    assert magnus_expand((1, -1), 2).coeffs == {(): 1}
    assert magnus_expand((-1, 1), 2).coeffs == {(): 1}


def _reduced_words(gens: int, length: int):
    """Every freely reduced word in x_1..x_gens of at most `length`
    letters."""
    words = [()]
    for w in words:
        if len(w) < length:
            for t in range(-gens, gens + 1):
                if t and (not w or w[-1] != -t):
                    words.append(w + (t,))
    return words


def _expansion_by_definition(word, degree):
    """Truncated Magnus expansion summed term by term: each letter
    contributes X_i^p, p in {0, 1} for x_i and p in 0..degree with sign
    (-1)^p for x_i^-1, and every choice of total degree at most `degree`
    adds its sign to the monomial it spells."""
    powers = [range(2) if t > 0 else range(degree + 1) for t in word]
    coeffs = {}
    for choice in itertools.product(*powers):
        if sum(choice) <= degree:
            m = tuple(abs(t) for t, p in zip(word, choice) for _ in range(p))
            sign = (-1) ** sum(p for t, p in zip(word, choice) if t < 0)
            coeffs[m] = coeffs.get(m, 0) + sign
    return {m: c for m, c in coeffs.items() if c}


def test_magnus_expand_matches_definition():
    words = _reduced_words(3, 4)
    assert len(words) == 937
    for w in words:
        for d in range(1, 4):
            assert magnus_expand(w, d).coeffs == _expansion_by_definition(w, d), (w, d)


def test_magnus_commutator_lowest_term():
    p = magnus_expand((1, 2, -1, -2), 2)
    assert p.coeffs == {(): 1, (1, 2): 1, (2, 1): -1}
    assert p.lowest_term() == ((1, 2), 1)


def test_nc_polynomial_is_a_frozen_value():
    p = magnus_expand((1, 2, -1, -2), 2)
    with pytest.raises(FrozenInstanceError):
        p.degree = 3
    assert repr(p) == (
        "NcPolynomial(degree=2, coeffs={(): 1, (2, 1): -1, (1, 2): 1})"
    )
    # equal by degree and coefficients, zero coefficients dropped
    assert p == magnus_expand((1, 2, -1, -2), 2)
    assert p != magnus_expand((1, 2, -1, -2), 3)
    assert NcPolynomial(1, {(): 1, (1,): 0, (1, 1): 5}) == NcPolynomial(1, {(): 1})
    with pytest.raises(TypeError, match=r"^unhashable type: 'NcPolynomial'$"):
        hash(p)


def test_magnus_expand_result_passes_the_public_check():
    # magnus_expand builds its result without the public constructor's
    # filter, so its dict must hold no zero coefficient and no monomial
    # above the degree already
    rng = random.Random(29)
    for _ in range(400):
        gens = rng.randint(1, 4)
        w = tuple(
            rng.choice((-1, 1)) * rng.randint(1, gens)
            for _ in range(rng.randint(0, 10))
        )
        for d in range(1, 7):
            p = magnus_expand(w, d)
            assert p == NcPolynomial(d, p.coeffs), (w, d)
            assert all(c and len(m) <= d for m, c in p.coeffs.items()), (w, d)


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


def test_limits_share_one_base():
    # the two ways a query stops undecided are one exported type, and each
    # keeps its own name and message
    with pytest.raises(LimitExceeded, match="^no nonzero low-degree term up to degree 1$"):
        free_word_sign((1, 2, -1, -2), degree_cap=1)
    with pytest.raises(LimitExceeded, match="^handle reduction exceeded 1 rewrites$"):
        handle_reduce(BraidWord(3, (1, 2, -1, -2, 1, 2, -1, -2)), budget=1)
    assert issubclass(DegreeCapExceeded, LimitExceeded)
    assert issubclass(StepBudgetExceeded, LimitExceeded)
    assert issubclass(LimitExceeded, RuntimeError)


def test_combing_standard_generator():
    form = comb_word(a_jk(1, 3), 3)
    assert form.strands == 3
    assert form.components == ((1,), ())
    assert any(form.components)
    assert not any(comb_word((), 3).components)
    # the commutator of sigma_1^2 = A_12 and sigma_2^2 = A_23, alone and
    # followed by A_14
    w = (1, 1, 2, 2, -1, -1, -2, -2)
    assert comb_word(w, 3).components == ((-2, -1, 2, 1), ())
    assert comb_word(w + a_jk(1, 4), 4).components == ((1,), (-2, -1, 2, 1), ())
    # A_jk sends x_k to x_j x_k x_j^-1, so its component is x_j at level k:
    # the components come out in the standard basis
    for k in range(2, 9):
        for j in range(1, k):
            for n in (k, k + 1):
                components = comb_word(a_jk(j, k), n).components
                assert components == tuple(
                    (j,) if level == k else () for level in range(n, 1, -1)
                )


def test_comb_rejects_non_pure():
    with pytest.raises(MagnusError):
        comb_word((1,), 2)
    with pytest.raises(MagnusError):
        pure_word_sign((1,), 2)


def test_pure_sign_rejects_non_pure_with_linking():
    # (1, 1, 1) on 2 strands swaps the strands and has a nonzero crossing
    # count, so a purity check after the linking-number pass that returned
    # early on the first nonzero count would miss it
    with pytest.raises(MagnusError, match="braid is not pure"):
        pure_word_sign((1, 1, 1), 2)
    with pytest.raises(MagnusError, match="braid is not pure"):
        pure_word_sign((2, -1, 2), 3)


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: NcPolynomial(-1), "degree must be >= 0"),
        (lambda: magnus_expand((1,), 0), "degree must be >= 1"),
        # there is no x_0, so a 0 letter is refused, also where it cancels
        pytest.param(lambda: free_word_sign((0,)), "no letter 0", id="sign-0"),
        pytest.param(lambda: free_word_sign((0, 0)), "no letter 0", id="sign-0-0"),
        pytest.param(lambda: magnus_expand((0,), 2), "no letter 0", id="expand-0"),
        # `pure_word_sign` is exported, so it refuses letters outside
        # +-1..n-1 rather than signing them or indexing past its arrays
        pytest.param(lambda: pure_word_sign((0, 0), 3), "no letter 0", id="pure-0-0"),
        pytest.param(lambda: pure_word_sign((3, 3), 3), "out of range", id="pure-3-3"),
        pytest.param(
            lambda: pure_word_sign((-3, -3), 3), "out of range", id="pure-neg-3-3"
        ),
    ],
)
def test_trust_boundary_errors(call, fragment):
    with pytest.raises(MagnusError, match=fragment):
        call()


def test_delete_strand():
    # removing the strand a generator wraps around kills it
    assert delete_strand(a_jk(1, 3), 3, 3, 3) == ()
    assert delete_strand(a_jk(1, 2), 3, 3, 3) == (1, 1)
    # every strand from 3 on goes; strands 1 and 2 keep their crossings
    w = a_jk(1, 2) + a_jk(2, 4) + a_jk(1, 3)
    assert delete_strand(w, 4, 3, 4) == (1, 1)
    assert delete_strand(w, 4, 5, 4) == free_reduce(w)
    for letters in (a_jk(1, 4), a_jk(2, 3) + a_jk(3, 4), w):
        assert delete_strand(letters, 4, 3, 4) == delete_strand(
            delete_strand(letters, 4, 4, 4), 3, 3, 3
        )
    # a middle range: the strands above it move down into its place
    assert delete_strand(a_jk(1, 4), 4, 2, 3) == (1, 1)
    assert delete_strand(a_jk(2, 3) + a_jk(1, 4), 4, 2, 2) == (2, 1, 1, -2)
    assert delete_strand(w, 4, 2, 3) == ()
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(3, 7)
        letters = tuple(
            rng.randint(1, n - 1) * rng.choice((1, -1)) for _ in range(30)
        )
        first = rng.randint(1, n - 1)
        last = rng.randint(first, n)
        # deleting the range at once or strand by strand, top first
        one_by_one = letters
        for k in range(last, first - 1, -1):
            one_by_one = delete_strand(one_by_one, n - (last - k), k, k)
        assert delete_strand(letters, n, first, last) == one_by_one
        # deleting the inner strands of a w-cable undoes the cabling
        i, w = rng.randint(0, n - 1), rng.randint(2, 4)
        leaf = ExpansionTree("a")
        trees = [leaf] * i + [ExpansionTree("a", (leaf,) * w)] + [leaf] * (n - 1 - i)
        cabled = _cable(letters, trees)[0]
        assert delete_strand(cabled, n + w - 1, i + 2, i + w) == free_reduce(letters)


def test_recombine_inverts_comb():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 7)
        letters = random_pure_word(rng, n, rng.randint(0, 4))
        w = BraidWord(n, letters)
        back = recombine(comb_word(letters, n))
        diff = w * back.inverse()
        assert not handle_reduce(diff).letters
        assert lamination_trivial(diff)
    # every 10th word of the six kinds of the pure corpus, conjugated
    # commutators and cabled braids among them, checked by the lamination
    kinds = set()
    for kind, n, letters in itertools.islice(_pure_corpus(), 0, None, 10):
        back = recombine(comb_word(letters, n))
        assert lamination_trivial(BraidWord(n, letters) * back.inverse()), (kind, n)
        kinds.add(kind)
    assert len(kinds) == 6


def test_pure_sign_basics():
    assert pure_word_sign((), 2) is Sign.ZERO
    assert pure_word_sign((1, 1), 2) is Sign.POSITIVE
    assert pure_word_sign((-1, -1), 2) is Sign.NEGATIVE
    g = DigitalBraid(("x", "x"), ("x", "x"), BraidWord(2, (1, 1)))
    assert pure_word_sign(g.word.letters, g.word.strands) is Sign.POSITIVE


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
    form = comb_word(g.word.letters, g.word.strands)
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
                if a in drs.rule_map
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
    linking numbers and by the Magnus series of one level, and never signs
    more than one level per word by its series."""
    combs = []

    def level_sign(letters, n, k, degree_cap):
        combs.append(k)
        return _level_sign(letters, n, k, degree_cap)

    monkeypatch.setattr(magnus, "_level_sign", level_sign)
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


def test_comb_sign_stops_at_deciding_level(monkeypatch):
    """The oracle combs from level 2 up and stops at the first nonempty
    component, which is the one `comb_word` gives for that level."""
    combs = []

    def level_component(letters, n, k):
        combs.append(k)
        return _level_component(letters, n, k)

    monkeypatch.setattr(magnus, "_level_component", level_component)
    assert _comb_sign(a_jk(1, 2), 4, 16) is Sign.POSITIVE
    assert combs == [2]
    # strands 1..3 carry the commutator [A12, A23]: level 2 is empty and
    # level 3 decides, so level 4 is never combed
    comm = (1, 1, 2, 2, -1, -1, -2, -2)
    combs.clear()
    assert _comb_sign(comm + a_jk(1, 4), 4, 16) is Sign.NEGATIVE
    assert combs == [2, 3]
    monkeypatch.undo()
    for kind, n, letters in itertools.islice(_pure_corpus(), 0, None, 10):
        components = comb_word(letters, n).components
        first = next((c for c in reversed(components) if c), ())
        assert _comb_sign(letters, n, 16) is free_word_sign(first), (kind, n)


def test_pure_sign_named_values():
    assert pure_word_sign((), 4, 0) is Sign.ZERO
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


def test_level_series_is_the_magnus_expansion():
    """The series the order path follows is the truncated Magnus expansion
    of the combed component, coefficient for coefficient, at every level
    of every 20th corpus word and at degrees 2 and 3."""
    kinds = set()
    for kind, n, letters in itertools.islice(_pure_corpus(), 0, None, 20):
        for k in range(2, n + 1):
            component = _level_component(letters, n, k)
            for degree in (2, 3):
                v, q, series = _level_series(letters, n, k, degree)
                arrays = {(j,): c for j, c in enumerate(v) if c} | {
                    divmod(x, len(v)): c for x, c in enumerate(q) if c
                }
                terms, unused = (series, arrays) if degree > 2 else (arrays, series)
                expected = magnus_expand(component, degree).coeffs
                assert not unused, (kind, n, k, degree)
                assert {(): 1, **terms} == expected, (kind, n, k, degree)
        kinds.add(kind)
    assert len(kinds) == 6


def test_level_sign_matches_combed_component(monkeypatch):
    """At every cap from 1 to 4, the series kernel signs each level that the
    order path reaches as `free_word_sign` signs the combed component, or
    both raise `DegreeCapExceeded`; some of the levels need degree 3."""
    levels = []

    def level_sign(letters, n, k, degree_cap):
        levels.append((letters, n, k))
        return _level_sign(letters, n, k, degree_cap)

    monkeypatch.setattr(magnus, "_level_sign", level_sign)
    for _, n, letters in _pure_corpus():
        pure_word_sign(letters, n)
    monkeypatch.undo()

    def outcome(sign, *args):
        try:
            return sign(*args)
        except DegreeCapExceeded as exc:
            return str(exc)

    at_degree_3 = 0
    for letters, n, k in levels:
        component = _level_component(letters, n, k)
        got = [outcome(_level_sign, letters, n, k, cap) for cap in range(1, 5)]
        assert got == [
            outcome(free_word_sign, component, cap) for cap in range(1, 5)
        ], (n, k, letters)
        at_degree_3 += isinstance(got[1], str) and isinstance(got[2], Sign)
    assert len(levels) >= 2_500 and at_degree_3 >= 200, (len(levels), at_degree_3)


def _commutator(a, b):
    return free_reduce(a + b + invert_free(a) + invert_free(b))


def _deep_commutators():
    """(d, braid word, free word): on 3 strands c_2 = [A13, A23] and
    c_(d+1) = [c_d, A13 or A23, alternating], conjugated by 1, A12, A12^-1
    and A12^2, with the same commutator spelled in x1, x2 (e(A_j3) = x_j).
    The Magnus series of c_d has no nonzero term below degree d.  A braid
    on strands 1 and 2 acts on level 3 by a conjugating automorphism, which
    sends X_j to X_j plus terms of higher degree, so the conjugates keep
    the lowest term, and the reference needs no combing."""
    pieces = [(a_jk(1, 3), (1,)), (a_jk(2, 3), (2,))]
    braid, free = _commutator(pieces[0][0], pieces[1][0]), (1, 2, -1, -2)
    a12 = a_jk(1, 2)
    for d in range(2, 7):
        for conj in ((), a12, invert_free(a12), a12 + a12):
            yield d, free_reduce(conj + braid + invert_free(conj)), free
        braid = _commutator(braid, pieces[d % 2][0])
        free = _commutator(free, pieces[d % 2][1])


def test_pure_sign_reaches_degree_6():
    """Each c_d is undecided at cap d - 1, as its free word is, and signed
    at cap d as its free word is; its inverse signs the other way."""
    lengths = {}
    for d, braid, free in _deep_commutators():
        lengths.setdefault(d, len(braid))
        with pytest.raises(DegreeCapExceeded) as expected:
            free_word_sign(free, d - 1)
        with pytest.raises(DegreeCapExceeded) as got:
            pure_word_sign(braid, 3, d - 1)
        assert str(got.value) == str(expected.value), (d, braid)
        sign = free_word_sign(free, d)
        assert pure_word_sign(braid, 3, d) is sign, (d, braid)
        assert pure_word_sign(invert_free(braid), 3, d) is -sign, (d, braid)
    assert lengths == {2: 10, 3: 22, 4: 46, 5: 94, 6: 190}
    signs = [free_word_sign(free) for d, _, free in _deep_commutators()][::4]
    assert signs == [Sign.POSITIVE, Sign.NEGATIVE, Sign.NEGATIVE,
                     Sign.POSITIVE, Sign.POSITIVE]


def test_level_series_of_deep_commutators():
    """For c_2 and c_3 the series at degrees 3 to 6 is the truncated Magnus
    expansion of the combed component, coefficient for coefficient.  Their
    conjugates substitute into terms of degree 2 and 3, so the parts of
    degree 4 and up of the substitution show; from c_4 up combing is too
    costly to be the reference."""
    for d, braid, _ in _deep_commutators():
        if d > 3:
            break
        component = _level_component(braid, 3, 3)
        for degree in range(3, 7):
            expected = magnus_expand(component, degree).coeffs
            series = _level_series(braid, 3, 3, degree)[2]
            assert {(): 1, **series} == expected, (d, braid, degree)


# a conjugated braid of the pure-bi benchmark at its acceptance sizes: all
# linking numbers at level 11 are zero and the combed component has 1,016
# letters, so combing it took seconds; its series decides at degree 2
_OUTLIER = (
    5, 6, 7, 4, 5, 6, 3, 4, 5, 2, 3, 4, 1, 2, 3, -8, -9, -7, -8, -6, -7, -5,
    -6, -4, -5, -10, -9, -8, -7, -6, -6, -7, -8, -9, -10, -5, -4, -6, -5,
    -7, -6, -8, -7, -9, -8, 3, 4, 5, 6, 7, 2, 1, 3, 2, 4, 3, 5, 4, 6, 5, 8,
    9, 7, 8, 6, 7, 10, 9, 8, -5, -6, -4, -5, -3, -4, -2, -3, -1, -2, -7, -6,
    -5, -4, -3, -8, -9, -7, -8, -6, -7, -5, -6, -4, -5, -10, -9, -8, -7, -6,
    3, 4, 5, 2, 3, 1, 2, 4, 3, 6, 7, 8, 9, 10, 5, 4, 6, 5, 7, 6, 8, 7, 9, 8,
    -3, -2, -1, -4, -3, -2, -5, -4, -3, -6, -5, -4, -7, -6, -5, 4, -5, -6,
    -3, 10, 9, -8, 2, -1, 4, 5, -7, 1, -2, 5, 4, 3, -7, 6, 5, -4, 8, -9,
    -10, -10, 9, -8, -7, -6, 9, 8, 7, -6, 7, 8, 9, 10, -6, -7, -8, 10, 9,
    -8, 4, -5, -6, 7, -3, -4, -5, 2, -1, 7, -5, -4, 1, -2, 8, -9, -10, 3, 6,
    5, -4, 5, 6, 7, 4, 5, 6, 3, 4, 5, 2, 3, 4, 1, 2, 3, -8, -9, -7, -8, -6,
    -7, -5, -6, -4, -5, -10, -9, -8, -7, -6, -3, -4, -2, -1, -3, -2, -5, -4,
    -3, 6, 7, 8, 9, 10, 5, 4, 6, 5, 7, 6, 8, 7, 9, 8, 3, 4, 5, 6, 7, 2, 1,
    3, 2, 4, 3, 5, 4, 6, 5, -8, -9, -10, -7, -6, -8, -7, -9, -8, -5, -6, -4,
    -5, -3, -4, -2, -3, -1, -2, -7, -6, -5, -4, -3, 8, 9, 7, 8, 6, 7, 5, 6,
    4, 5, 10, 9, 8, 7, 6, 6, 7, 8, 9, 10, 5, 4, 6, 5, 7, 6, 8, 7, 9, 8, -3,
    -2, -1, -4, -3, -2, -5, -4, -3, -6, -5, -4, -7, -6, -5,
)


def test_pure_sign_outlier_from_the_series(monkeypatch):
    def refuse(*args):
        raise AssertionError("the order path combs no free word")

    monkeypatch.setattr(magnus, "_level_component", refuse)
    monkeypatch.setattr(magnus, "free_word_sign", refuse)
    assert len(_OUTLIER) == 340
    assert pure_word_sign(_OUTLIER, 11, 8) is Sign.POSITIVE
    assert pure_word_sign(invert_free(_OUTLIER), 11, 8) is Sign.NEGATIVE


def _lowest_linked_level(letters, n):
    """The least k with some linking number lk(j, k) != 0, j < k, counted
    crossing by crossing; None when every linking number is zero."""
    at = list(range(n + 1))  # at[p] = strand at position p
    twice_lk: dict[tuple[int, int], int] = {}
    for d in letters:
        p = abs(d)
        a, b = at[p], at[p + 1]
        at[p], at[p + 1] = b, a
        key = (min(a, b), max(a, b))
        twice_lk[key] = twice_lk.get(key, 0) + (1 if d > 0 else -1)
    return min((k for (_, k), x in twice_lk.items() if x), default=None)


def test_pure_sign_walks_no_level_below_4(monkeypatch):
    """A word whose lowest linked level is 2 or 3 is signed without
    deleting a strand: the braid on strands 1 and 2 has no linking there,
    so it is trivial and the lamination walk has nothing to check.  From
    level 4 up the walk checks the strands below at least once."""
    calls = []

    def counted(*args):
        calls.append(args)
        return delete_strand(*args)

    monkeypatch.setattr(magnus, "delete_strand", counted)
    low = high = 0
    for kind, n, letters in _pure_corpus():
        level = _lowest_linked_level(letters, n)
        if level is None:
            continue
        calls.clear()
        pure_word_sign(letters, n)
        if level <= 3:
            assert not calls, (kind, n, letters)
            low += 1
        else:
            assert calls, (kind, n, letters)
            high += 1
    assert low >= 1_000 and high >= 1_000, (low, high)
    # lk(3, 4) = +1, but strands 1..3 carry the commutator [A12, A23]: the
    # walk steps down from level 4 to level 3, which is combed
    w = (1, 1, 2, 2, -1, -1, -2, -2, 3, 3)
    assert pure_word_sign(w, 4) is Sign.NEGATIVE
    assert pure_word_sign(invert_free(w), 4) is Sign.POSITIVE
    monkeypatch.undo()
    assert _comb_sign(w, 4, 16) is Sign.NEGATIVE
    assert _comb_sign(invert_free(w), 4, 16) is Sign.POSITIVE
