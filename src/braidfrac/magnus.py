"""Bi-order on pure braids: strand combing plus Magnus expansion.

A pure braid g on n strands decomposes by iteratively stripping its last
strand.  Let g_k be g with strands k+1..n deleted, so g_n = g.  Deleting
strand k from g_k gives g_{k-1}; read back on k strands, with strand k
running straight down, its word is a braid lift(g_{k-1}), and
c_k = lift(g_{k-1})^{-1} g_k is a braid in which strand k does all the
moving.  Such a c_k lives in the free group U_k on the loops
A_jk = `_loop_generator_word(j, k)`, j < k (strand k looping once around
strand j), and the word it spells in them is the level-k component of g,
written in x_1..x_{k-1} with x_j for A_jk.  Levels are listed from n down.

Components are read off the braid action on the free group on
x_1..x_k: positive crossing i sends x_i to x_i x_{i+1} x_i^{-1} and x_{i+1}
to x_i, other generators fixed, letters of the braid word applied left to
right; write w.b for the image of w under b.  A pure braid b sends x_k to a
conjugate W x_k W^{-1}, W unique up to a right factor x_k^m; erasing x_k
from W (the map w -> bar(w) that kills x_k) gives e(b).  The level-k
component is e(g_k), by two facts:

1. e is the component map on U_k.  A_jk sends x_k to x_j x_k x_j^{-1}:
   sigma_{k-1}..sigma_{j+1} carry x_k down to x_{j+1}, sigma_j^2 turns it
   into x_j x_{j+1} x_j^{-1}, and the inverse letters carry x_{j+1} back up
   to x_k and fix x_j.  So e(A_jk) = x_j.  Deleting strand k makes A_jk
   trivial, and correspondingly bar(x_i.A_jk) = x_i for every i < k, so
   bar(w.c) = bar(w) for all w and all c in U_k.  For b, c in U_k,
   x_k.bc = (W_b.c) W_c x_k W_c^{-1} (W_b.c)^{-1}, hence
   e(bc) = bar(W_b.c) e(c) = e(b) e(c): e is the homomorphism sending A_jk
   to x_j, and the component comes out in the standard basis.
2. The lift never touches x_k.  lift(g_{k-1}) uses only
   sigma_1..sigma_{k-2}, which fix x_k, so
   x_k.g_k = (x_k.lift(g_{k-1})).c_k = x_k.c_k and e(g_k) = e(c_k).
   The images are the same freely reduced word, so the component is the
   same letter for letter.

Combing builds only the conjugator, never the image (`_level_component`,
which first deletes strands k+1..n to get g_k).  After each prefix of
the word g, x_k maps to u x_p u^{-1} for a word u and a position p,
starting from u = 1, p = k.  Each crossing i sends x_j to
c x_j' c^{-1}: a positive one sends x_i to x_i x_{i+1} x_i^{-1} and
x_{i+1} to x_i, a negative one sends x_i to x_{i+1} and x_{i+1} to
x_{i+1}^{-1} x_i x_{i+1}, and it fixes every other generator.  One table
per letter, j -> (c, j') for its two moved generators, gives both the
action phi on u and the step of x_p to v x_p' v^{-1}, v = c at j = p.  So
u becomes phi(u) v and p becomes p': besides the action itself, the
tracked u changes only by v, one letter at most.  The braid is pure, so
p = k at the end, where u x_k u^{-1} = W x_k W^{-1} is x_k.g.  Then
W^{-1} u commutes with x_k, and in a free group the centralizer of x_k is
generated by x_k, so u = W x_k^m for some m: the tracked u can differ from
W only by the right factor x_k^m.  Erasing x_k kills that factor, so
bar(u) = bar(W), and freely reduced the two are the same word: e(g) is
read off u letter for letter.

Free words are then signed by the Magnus expansion x_i -> 1 + X_i into
integer power series in noncommuting variables: order monomials by total
degree then lexicographically, and take the sign of the lowest nonzero
non-constant coefficient.  `magnus_expand` is the one home of the series
product: it multiplies one coefficient dict, letter by letter, by the
letter's truncated series, 1 + X_i for x_i and 1 - X_i + X_i^2 - ... for
x_i^{-1}, without building that series or any polynomial per letter.  The
expansion of a nontrivial reduced word is never 1, so escalating the
truncation degree terminates; a configurable cap turns a runaway
escalation into an error instead of a silent answer.  The resulting order
on each level, taken lexicographically quotient-first (the level-2
component is the most significant, level n the least), is invariant under
conjugation, which is what the fraction groups need from their braid
factor.  The opposite, kernel-first comparison is only left-invariant: the
conjugating-type automorphisms by which the smaller group acts on each free
level preserve the Magnus order of the level, but nothing protects a
high-level component against sign flips caused by lower-level conjugation.

The order path combs at most one level (Kim-Rolfsen, "An ordering for
groups of pure braids and fibre-type hyperplane arrangements", Canad. J.
Math. 55 (2003), order the combed pure braid group this way).  The degree-1
Magnus coefficients of the level-k component are the linking numbers
lk(j, k) of strand k with the strands below it, and one pass over the braid
word gives all of them.  The lowest level with a nonzero linking number, or
the top when there is none, bounds the deciding level from above; the
lamination walks down from there to the lowest level whose strands do not
form the trivial braid.  It never checks the braid on strands 1 and 2:
whenever it stands at level 3, lk(1, 2) is zero, and two strands with no
linking form the trivial braid.  If the deciding level has a nonzero
linking number, its least linked strand gives the sign; otherwise that
level alone is combed, and only there can the degree cap be reached.
`pure_word_sign` proves this.  `_comb_sign` is the reference the tests and the `cone` suite check
the order against: it combs the levels from 2 up, each as `comb_word`
combs it, and signs the first nonempty component with `free_word_sign`,
combing no level above it.  So it reads exactly the components that
`recombine` checks, and shares none of the order path's shortcuts.

`_level_component(letters, n, k)` is the one place that knows which braid
a level is read from: it deletes strands k+1..n itself, by one call of
`braids.delete_strand` (the inverse of cabling).  A component is a freely
reduced element of a free group, so the order of deletions cannot change
it, and `comb_word`, `_comb_sign` and `pure_word_sign` each name only the
levels they read.  `comb_word` is public and checks that its word is pure.
`pure_word_sign` is exported too: it refuses a letter 0 and a letter past
n - 1 with `MagnusError`, and reads purity off the strand arrangement its
linking-number pass ends with, so the order path never builds a
`BraidWord` or computes its permutation.

A free word spells x_j as the letter j and x_j^{-1} as -j, for j >= 1.
`magnus_expand` and `free_word_sign` are exported, so they refuse a letter
0 (there is no x_0), before free reduction could cancel it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braids import (
    BraidWord,
    _braid_word,
    delete_strand,
    free_reduce,
    lamination_trivial,
)
from .drs import _constructor, _set_field
from .ordering import Sign

FreeWord = tuple[int, ...]

DEFAULT_DEGREE_CAP = 16


class MagnusError(ValueError):
    """Structural failure in combing or expansion."""


class DegreeCapExceeded(RuntimeError):
    """Magnus escalation hit the truncation cap without deciding a sign."""


def invert_free(word: FreeWord) -> FreeWord:
    return tuple(-t for t in reversed(word))


# --- Magnus expansion -------------------------------------------------------

Monomial = tuple[int, ...]


@dataclass(frozen=True, slots=True)
class NcPolynomial:
    """Integer polynomial in noncommuting variables, truncated at a fixed
    total degree: a frozen value whose `coeffs` maps each monomial of
    total degree at most `degree` to its nonzero coefficient.  The public
    constructor filters the coefficients handed in to those, once.  It
    compares by degree and coefficients, and its dict leaves it
    unhashable.  It is the result of `magnus_expand` and has no
    arithmetic: the expansion multiplies its own dict and hands it, already
    filtered, to the positional constructor `_polynomial`."""

    degree: int
    coeffs: dict[Monomial, int] | None = None  # a dict once constructed

    __hash__ = None

    def __post_init__(self) -> None:
        degree = self.degree
        if degree < 0:
            raise MagnusError("degree must be >= 0")
        _set_field(self, "coeffs", {
            m: c for m, c in (self.coeffs or {}).items() if c != 0 and len(m) <= degree
        })

    def lowest_term(self) -> tuple[Monomial, int] | None:
        """Least non-constant monomial (by total degree, then index
        sequence) with nonzero coefficient."""
        best: Monomial | None = None
        for m in self.coeffs:
            if not m:
                continue
            if best is None or (len(m), m) < (len(best), best):
                best = m
        if best is None:
            return None
        return best, self.coeffs[best]


_polynomial = _constructor(NcPolynomial)


def magnus_expand(word: FreeWord, degree: int) -> NcPolynomial:
    """Magnus expansion of a free word, truncated at `degree`.  Each letter
    multiplies the dict by its series: every monomial m, in the dict's
    order, adds its coefficient to m and then, with the series' signs, to
    m X_i, m X_i^2, ... in rising power (only m X_i for x_i), so the
    monomials come out in the same order as from a product of whole
    series.  Zero coefficients are dropped after each letter and no
    monomial grows past `degree`, so the dict is built into the result
    without the public constructor's filter."""
    if degree < 1:
        raise MagnusError("degree must be >= 1")
    if 0 in word:
        raise MagnusError("free words have no letter 0: generators start at x_1")
    coeffs: dict[Monomial, int] = {(): 1}
    for t in word:
        x, sign = ((t,), 1) if t > 0 else ((-t,), -1)
        out: dict[Monomial, int] = {}
        for m, c in coeffs.items():
            out[m] = out.get(m, 0) + c
            while len(m) < degree:
                m += x
                c *= sign
                out[m] = out.get(m, 0) + c
                if t > 0:  # the series of x_i stops at X_i
                    break
        coeffs = {m: c for m, c in out.items() if c}
    return _polynomial(degree, coeffs)


def free_word_sign(word: FreeWord, degree_cap: int = DEFAULT_DEGREE_CAP) -> Sign:
    if 0 in word:
        raise MagnusError("free words have no letter 0: generators start at x_1")
    w = free_reduce(word)
    if not w:
        return Sign.ZERO
    for d in range(1, degree_cap + 1):
        lt = magnus_expand(w, d).lowest_term()
        if lt is not None:
            return Sign.POSITIVE if lt[1] > 0 else Sign.NEGATIVE
    raise DegreeCapExceeded(
        f"no nonzero low-degree term up to degree {degree_cap}"
    )


# --- combing ----------------------------------------------------------------

def _loop_generator_word(j: int, k: int) -> tuple[int, ...]:
    """Braid word on k strands looping strand k once (positively) around
    strand j."""
    return (
        tuple(range(k - 1, j, -1)) + (j, j) + tuple(-s for s in range(j + 1, k))
    )


def _level_component(letters: tuple[int, ...], n: int, k: int) -> FreeWord:
    """Level-k component of a pure braid word on n strands, read off g_k,
    the word left after deleting strands k+1..n: the conjugator u of x_k
    in its image, followed letter by letter as u <- phi(u) v, with x_k
    erased (facts 1 and 2 and the paragraph after them).  One table per
    letter gives both phi on u and the step of x_p: crossing d sends x_j to
    c x_j' c^{-1}, stored as j -> (c, j') with c = 0 for the empty word, for
    the two generators it moves (x_j^{-1} goes to c x_j'^{-1} c^{-1})."""
    u: FreeWord = ()
    p = k
    for d in delete_strand(letters, n, k + 1, n):
        i = d if d > 0 else -d
        c_i, c_next = (i, 0) if d > 0 else (0, -i - 1)
        act = {i: (c_i, i + 1), i + 1: (c_next, i)}
        image: list[int] = []
        for t in u:
            j = t if t > 0 else -t
            if j in act:
                c, j = act[j]
                t = j if t > 0 else -j
                if c:
                    image += (c, t, -c)
                    continue
            image.append(t)
        if p in act:
            v, p = act[p]
            if v:
                image.append(v)
        u = free_reduce(image)
    return free_reduce(tuple(t for t in u if abs(t) != k))


@dataclass(frozen=True, slots=True)
class CombedForm:
    strands: int
    components: tuple[FreeWord, ...]  # level n first, down to level 2


def comb_word(letters: tuple[int, ...], n: int) -> CombedForm:
    """Combed form of a pure braid word on n strands: level by level from
    n down, the level-k component of g_k (`_level_component`)."""
    if not BraidWord(n, letters).is_pure():
        raise MagnusError("braid is not pure")
    return CombedForm(
        n, tuple(_level_component(letters, n, k) for k in range(n, 1, -1))
    )


def recombine(form: CombedForm) -> BraidWord:
    """Braid word reassembled from a combed form; equal to the original
    braid."""
    n = form.strands
    word: tuple[int, ...] = ()
    k = n - len(form.components) + 1
    for component in reversed(form.components):
        tail: list[int] = []
        for t in component:
            gen = _loop_generator_word(abs(t), k)
            tail.extend(gen if t > 0 else invert_free(gen))
        word = free_reduce(word + tuple(tail))
        k += 1
    return BraidWord(n, word)


def _comb_sign(letters: tuple[int, ...], n: int, degree_cap: int) -> Sign:
    """Sign of a pure braid word by combing, the oracle for
    `pure_word_sign`: the levels are combed from 2 up, each as `comb_word`
    combs it, and the first nonempty component decides by its Magnus sign;
    no level above it is combed.  The word must be pure; the `cone` suite
    passes only words that `pure_word_sign` has checked."""
    components = (_level_component(letters, n, k) for k in range(2, n + 1))
    return free_word_sign(next((c for c in components if c), ()), degree_cap)


def pure_word_sign(
    letters: tuple[int, ...], n: int, degree_cap: int = DEFAULT_DEGREE_CAP
) -> Sign:
    """Sign of a pure braid word, quotient-first: the image in the smaller
    pure braid group under strand deletion is compared before the combing
    component of the deleted strand, so the level-2 component is the most
    significant.  Kernel-first comparison would only be left-invariant;
    quotient-first gives the two-sided order the fraction groups rely on.
    A trivial braid combs into empty components and signs zero.

    Linking numbers decide most words without combing.  Let lk(j, k) be
    half the signed crossings between the strands starting at j < k.
    (i) lk(j, k) is a homomorphism on pure braids, since strand labels
    agree where two pure words are stacked.  (ii) With g_k the braid left
    after deleting strands k+1..n, the level-k component c_k satisfies
    g_k = lift(g_{k-1}) c_k, and the lift runs strand k straight down at
    position k, crossing nothing; so lk(j, k)(c_k) = lk(j, k)(g_k) =
    lk(j, k)(g).  (iii) The loop A_ik, which is x_i at level k, crosses
    strand k with strands i+1..k-1 once with each sign and with strand i
    twice positively, so lk(j, k)(A_ik) = delta_ij.  Hence lk(j, k) is the
    exponent sum of x_j in c_k, its degree-1 Magnus coefficient.  (iv) The
    deciding level is the lowest k with g_k nontrivial, and a trivial g_k
    has a trivial g_{k-1}.  Start at the lowest level k with some
    lk(j, k) != 0, where g_k is nontrivial by (ii), or at n+1 if there is
    none, and step down while g_{k-1}, the braid left after deleting
    strands k..n, is nontrivial by the lamination.  No level below 4 is
    walked: every linking number below k is zero, a pure braid on two
    strands is sigma_1^(2 lk(1, 2)) and one on one strand is trivial, so
    g_{k-1} is trivial whenever k <= 3.  The walk stops at the deciding
    level, or at n+1 when the whole braid is trivial and signs zero.  If
    some lk(j, k) != 0, c_k decides at degree 1: the least monomial with a
    nonzero coefficient is X_j0, j0 the least j with lk(j0, k) != 0, and
    the sign is that of lk(j0, k).  Otherwise c_k alone
    is read off g_k, as combing reads it, and signed by `free_word_sign`,
    so `DegreeCapExceeded` can only arise there: a word decided by its
    linking numbers is one `free_word_sign` decides at degree 1.

    `letters` is a word on n >= 1 strands.  A letter 0 or one past n - 1
    raises `MagnusError`: the first is tested for, the second ends the
    linking-number pass out of range.  Purity is read off the strand
    arrangement that the pass ends with, and a word that is not pure
    raises `MagnusError` before any sign is returned."""
    if 0 in letters:
        raise MagnusError("braid words have no letter 0: generators start at 1")
    if not letters:
        return Sign.ZERO
    m = n + 1
    at = list(range(m))  # at[p] = strand (top position) at position p
    twice_lk = [0] * (m * m)  # 2 lk(j, k) at k * m + j, j < k
    try:
        for d in letters:
            p = d if d > 0 else -d
            a, b = at[p], at[p + 1]
            at[p], at[p + 1] = b, a
            i = b * m + a if a < b else a * m + b
            twice_lk[i] += 1 if d > 0 else -1
    except IndexError:
        raise MagnusError(f"a letter is out of range for {n} strands") from None
    if at != list(range(m)):
        raise MagnusError("braid is not pure")
    k = next((k for k in range(2, m) if any(twice_lk[k * m : k * m + k])), m)
    while k > 3 and not lamination_trivial(
        _braid_word(k - 1, delete_strand(letters, n, k, n))
    ):
        k -= 1
    if k == m:
        return Sign.ZERO
    lk = next((x for x in twice_lk[k * m : k * m + k] if x), 0)
    if lk and degree_cap >= 1:  # below degree 1 combing decides nothing
        return Sign.POSITIVE if lk > 0 else Sign.NEGATIVE
    return free_word_sign(_level_component(letters, n, k), degree_cap)
