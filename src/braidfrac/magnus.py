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
of a free word: it multiplies one coefficient dict, letter by letter, by
the letter's truncated series, 1 + X_i for x_i and 1 - X_i + X_i^2 - ...
for x_i^{-1}, without building that series or any polynomial per letter.
The order path never builds the free word, and so has its own series
kernel (below), which the tests check against this one.  The
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
level alone is signed by the Magnus series of its component, with no free
word built, and only there can the degree cap be reached.
`pure_word_sign` proves this.  `_comb_sign` is the reference the tests
and the `cone` suite check the order against: it combs the levels from 2
up, each as `comb_word` combs it, and signs the first nonempty component
with `free_word_sign`, combing no level above it.  So it reads exactly the
components that `recombine` checks, and shares no series code with the
order path.

The order path follows only the series of u, truncated at a degree d
(`_level_series`; `_level_sign` raises d from 2 up to the cap).  Let mu
be the Magnus map x_j -> 1 + X_j, a homomorphism from the free group to
the units of the power series ring.  A crossing's automorphism phi
extends to the ring endomorphism Phi that substitutes mu(phi(x_j)) - 1
for X_j; mu(phi(w)) and Phi(mu(w)) are homomorphisms in w that agree on
the generators, so the step u -> phi(u) v takes mu(u) to
Phi(mu(u)) mu(v).  Each substituted series has no constant term, so Phi
sends a monomial of degree m to terms of degree m and up: the terms of
mu(u) above d contribute nothing at degree d or below, and truncating at
d after every letter gives the truncation of the whole series.  Setting
X_k = 0 is the ring map that mu turns bar into, so applied at the end it
leaves the series of bar(u) = e(g), whatever the factor x_k^m that u
carries (the argument for bar(u) above).  `_level_series` writes the
series in strand variables, Y_j for the X at the position that strand j
has reached (Y_k = X_k at the end, the braid being pure), and sets
Y_k = 0 at every step instead: a step sends Y_k to a conjugate of Y_k or
to Y_k, and uses Y_k otherwise only in a conjugating factor
(1 + Y_k)^(+-1), never in mu(v), so setting Y_k = 0 before the step or
after it gives the same series.  So Y_k never enters the stored series.

`_level_component(letters, n, k)` is the one place that builds the braid a
level is read from: it deletes strands k+1..n itself, by one call of
`braids.delete_strand` (the inverse of cabling).  A component is a freely
reduced element of a free group, so the order of deletions cannot change
it, and `comb_word` and `_comb_sign` each name only the levels they read.
`_level_series` builds no braid: it follows the strands through g and
skips the crossings that deletion would drop.  `comb_word` is public and
checks that its word is pure.
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
from .ordering import LimitExceeded, Sign

FreeWord = tuple[int, ...]

DEFAULT_DEGREE_CAP = 16


class MagnusError(ValueError):
    """Structural failure in combing or expansion."""


class DegreeCapExceeded(LimitExceeded):
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


# --- the Magnus series of a level, without its word ------------------------

def _crossing(
    series: dict[Monomial, int], k: int, s: int, t: int, e: int, degree: int
) -> dict[Monomial, int]:
    """The series of `_level_series` after one crossing, from degree 3 up:
    `series` maps every monomial of degree 1..`degree` to its nonzero
    coefficient, the constant term 1 left out.  With s the strand k, the
    series is multiplied by (1 + Y_t)^e.  Otherwise Y_s is substituted by
    its image (1 + Y_t)^e Y_s (1 + Y_t)^-e, built once: Y_s, and two
    monomials at each degree j from 2 to `degree`, for e = 1
    (-1)^(j-1) (Y_s Y_t^(j-1) - Y_t Y_s Y_t^(j-2)) and for e = -1 the same
    with each monomial read backwards.  Each Y_s of a monomial takes only
    the parts of its image that leave every later letter room within
    `degree`; a monomial without Y_s is carried over as it is."""
    out: dict[Monomial, int] = {}
    if s == k:  # (1 + Y_t)^e is 1 + Y_t, or the sum of (-Y_t)^j
        out.update(series)
        last = 1 if e > 0 else degree
        for mono, c in [((), 1), *series.items()]:
            for j in range(1, min(last, degree - len(mono)) + 1):
                key = mono + (t,) * j
                out[key] = out.get(key, 0) + c * e**j
    else:
        image = [((s,), 1)]  # by degree: Y_s, then two monomials per degree
        for j in range(2, degree + 1):
            sign = (-1) ** (j - 1)
            image += (((s,) + (t,) * (j - 1))[::e], sign), (
                ((t, s) + (t,) * (j - 2))[::e], -sign)
        for mono, c in series.items():
            if s not in mono:
                out[mono] = out.get(mono, 0) + c
                continue
            terms = [((), c)]  # the product so far, letter by letter
            for rest, x in zip(range(len(mono) - 1, -1, -1), mono):
                # each of the `rest` letters after x adds one degree at least
                terms = [
                    (p + f, pc * fc) for p, pc in terms for f, fc in (
                        image[: 2 * (degree - rest - len(p)) - 1] if x == s
                        else [((x,), 1)])
                ]
            for key, pc in terms:
                out[key] = out.get(key, 0) + pc
    return {mono: c for mono, c in out.items() if c}


def _level_series(
    letters: tuple[int, ...], n: int, k: int, degree: int
) -> tuple[list[int], list[int], dict[Monomial, int]]:
    """Magnus series of the level-k component of a pure braid word on n
    strands, truncated at `degree`, with the constant term 1 left out.

    The series of the conjugator u through g_k is followed in strand
    variables: Y_j is X_p for the position p that strand j has reached in
    g_k, so the swap of X_i and X_i+1 moves no coefficient, and Y_j = X_j
    again at the end.  In them a crossing of g_k depends only on its two
    strands, so g is walked as it is and a crossing with a strand above k,
    which deleting strands k+1..n drops, is skipped.  A crossing in which
    strand s passes over strand t (the strand at i for a positive letter,
    at i+1 for a negative one; e the letter's sign) substitutes
    (1 + Y_t)^e Y_s (1 + Y_t)^-e for Y_s; when s is strand k, it
    multiplies by the series of v, (1 + Y_t)^e, instead.  Y_k is 0
    throughout (the module docstring), which kills the substitution for
    Y_k and makes a crossing under which strand k passes change nothing.
    At degree 2 the coefficients are stored in two arrays, v[j] for Y_j
    and q[i * m + j] for Y_i Y_j, and a crossing touches only the two
    entries in Y_s or, for strand k, one column of q.  From degree 3 up
    the whole series is one dict, monomial to coefficient, which
    `_crossing` renews at each crossing; then v and q stay zero, as the
    dict stays empty at degree 2."""
    m = k + 1
    at = list(range(n + 1))  # at[p] = strand at position p
    v = [0] * m
    q = [0] * (m * m)
    series: dict[Monomial, int] = {}
    for d in letters:
        i = d if d > 0 else -d
        a, b = at[i], at[i + 1]
        at[i], at[i + 1] = b, a
        s, t, e = (a, b, 1) if d > 0 else (b, a, -1)
        if t >= k or s > k:
            continue
        if degree > 2:
            series = _crossing(series, k, s, t, e, degree)
            continue
        if s == k:  # times 1 + Y_t, or 1 - Y_t + Y_t^2 - ...
            q[t::m] = [x + e * y for x, y in zip(q[t::m], v)]
            if e < 0:
                q[t * m + t] += 1
            v[t] += e
        elif v[s]:  # Y_s gains e (Y_t Y_s - Y_s Y_t) at degree 2
            q[t * m + s] += e * v[s]
            q[s * m + t] -= e * v[s]
    return v, q, series


def _level_sign(
    letters: tuple[int, ...], n: int, k: int, degree_cap: int
) -> Sign:
    """Magnus sign of the level-k component of a pure braid word on n
    strands, the sign `free_word_sign(_level_component(letters, n, k),
    degree_cap)` gives, read off its truncated series (`_level_series`)
    at degrees 2, 3, ... up to `degree_cap`: the lowest term is the first
    nonzero entry of v, then of q (lexicographic in (i, j)) at degree 2,
    and the least monomial of the dict above it.  `pure_word_sign` calls
    it only on a level whose linking numbers, the degree-1 coefficients,
    are all zero, or with `degree_cap` below 1, so no pass is made at
    degree 1."""
    for degree in range(2, degree_cap + 1):
        v, q, series = _level_series(letters, n, k, degree)
        c = next((c for c in v if c), 0) or next((c for c in q if c), 0)
        if not c and series:
            c = series[min(series, key=lambda mono: (len(mono), mono))]
        if c:
            return Sign.POSITIVE if c > 0 else Sign.NEGATIVE
    raise DegreeCapExceeded(f"no nonzero low-degree term up to degree {degree_cap}")


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
    the sign is that of lk(j0, k).  Otherwise c_k alone is
    signed by `_level_sign`, from the Magnus series of the conjugator of
    x_k through g_k, truncated at degrees 2, 3, ... up to `degree_cap`,
    with X_k set to 0 (the module docstring proves that this is the series
    of c_k); no free word is built.  So `DegreeCapExceeded` can only arise
    there: a word decided by its linking numbers is one `free_word_sign`
    decides at degree 1.

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
    return _level_sign(letters, n, k, degree_cap)
