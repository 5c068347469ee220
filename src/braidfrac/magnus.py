"""Bi-order on pure braids: strand combing plus Magnus expansion.

A pure braid on n strands decomposes by iteratively stripping its last
strand.  Deleting strand n from a pure braid g gives a pure braid gbar on
n-1 strands; reading the same word back on n strands and cancelling leaves a
braid c = lift(gbar)^{-1} g in which strand n does all the moving.  Such a c
lives in the free group on the generators A_{1n}, ..., A_{n-1,n} (strand n
looping once around strand j), and the free word it spells is the level-n
component of g.  Recursing on gbar produces one free word per level, level n
first.

The free word is extracted through the braid action on the free group:
positive crossing k sends x_k to x_k x_{k+1} x_k^{-1} and x_{k+1} to x_k,
other generators fixed, letters of the braid word applied left to right.
For c as above the image of x_n is a conjugate W x_n W^{-1}; killing the
letter x_n inside W gives the component, up to a change of basis.  The basis
in which the component arrives is the image of the A_{jn} themselves, so we
solve for the standard generators once per strand count and substitute.

Free words are then signed by the Magnus expansion x_i -> 1 + X_i into
integer power series in noncommuting variables: order monomials by total
degree then lexicographically, and take the sign of the lowest nonzero
non-constant coefficient.  The expansion of a nontrivial reduced word is
never 1, so escalating the truncation degree terminates; a configurable cap
turns a runaway escalation into an error instead of a silent answer.  The
resulting order on each level, taken lexicographically quotient-first (the
level-2 component is the most significant, level n the least), is invariant
under conjugation, which is what the fraction groups need from their braid
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
form the trivial braid.  If that level has a nonzero linking number, its
least linked strand gives the sign; otherwise that level alone is combed,
and only there can the degree cap be reached.  `pure_word_sign` proves
this.  `_comb_sign`, which combs every level from level 2 up, is the
reference the tests and the `cone` suite check the order against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .braids import BraidWord, DigitalBraid, free_reduce, lamination_trivial
from .drs import _unchecked
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


class NcPolynomial:
    """Integer polynomial in noncommuting variables, truncated at a fixed
    total degree."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: dict[Monomial, int] | None = None):
        if degree < 0:
            raise MagnusError("degree must be >= 0")
        self.degree = degree
        self.coeffs: dict[Monomial, int] = {
            m: c for m, c in (coeffs or {}).items() if c != 0 and len(m) <= degree
        }

    @classmethod
    def one(cls, degree: int) -> "NcPolynomial":
        return cls(degree, {(): 1})

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, NcPolynomial)
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __mul__(self, other: "NcPolynomial") -> "NcPolynomial":
        d = min(self.degree, other.degree)
        out: dict[Monomial, int] = {}
        for m1, c1 in self.coeffs.items():
            if len(m1) > d:
                continue
            for m2, c2 in other.coeffs.items():
                if len(m1) + len(m2) > d:
                    continue
                m = m1 + m2
                out[m] = out.get(m, 0) + c1 * c2
        return NcPolynomial(d, out)

    def __sub__(self, other: "NcPolynomial") -> "NcPolynomial":
        d = min(self.degree, other.degree)
        out = {m: c for m, c in self.coeffs.items() if len(m) <= d}
        for m, c in other.coeffs.items():
            if len(m) <= d:
                out[m] = out.get(m, 0) - c
        return NcPolynomial(d, out)

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

    def __repr__(self) -> str:
        return f"NcPolynomial(degree={self.degree}, coeffs={self.coeffs!r})"


def _letter_series(letter: int, degree: int) -> NcPolynomial:
    i = abs(letter)
    if letter > 0:
        return NcPolynomial(degree, {(): 1, (i,): 1})
    coeffs: dict[Monomial, int] = {(): 1}
    for t in range(1, degree + 1):
        coeffs[(i,) * t] = (-1) ** t
    return NcPolynomial(degree, coeffs)


def magnus_expand(word: FreeWord, degree: int) -> NcPolynomial:
    if degree < 1:
        raise MagnusError("degree must be >= 1")
    acc = NcPolynomial.one(degree)
    for t in word:
        acc = acc * _letter_series(t, degree)
    return acc


def free_word_sign(word: FreeWord, degree_cap: int = DEFAULT_DEGREE_CAP) -> Sign:
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


# --- braid action on the free group ----------------------------------------

def artin_image(braid_letters: tuple[int, ...], word: FreeWord) -> FreeWord:
    """Image of a free word under a braid word, letters applied left to
    right; kept freely reduced throughout."""
    w = word
    for d in braid_letters:
        k = abs(d)
        out: list[int] = []
        for t in w:
            j = abs(t)
            if j != k and j != k + 1:
                out.append(t)
                continue
            s = 1 if t > 0 else -1
            if d > 0:
                out.extend((k, s * (k + 1), -k) if j == k else (s * k,))
            else:
                out.extend((s * (k + 1),) if j == k else (-(k + 1), s * k, k + 1))
        w = free_reduce(tuple(out))
    return w


def delete_strand(letters: tuple[int, ...], n: int, strand: int) -> tuple[int, ...]:
    """Remove every strand starting at top position `strand` or later,
    dropping their crossings and reindexing the rest."""
    at = list(range(n + 1))  # at[p] = top position of the strand at position p
    rank = [min(p, strand - 1) for p in range(n + 1)]  # kept strands at 1..p
    out: list[int] = []
    for d in letters:
        p = d if d > 0 else -d
        a, b = at[p], at[p + 1]
        at[p], at[p + 1] = b, a
        if a < strand and b < strand:
            out.append(rank[p] if d > 0 else -rank[p])
        elif a < strand or b < strand:
            rank[p] = rank[p - 1] + (b < strand)
    return free_reduce(tuple(out))


def _peel_conjugator(word: FreeWord, center: int) -> FreeWord:
    """For a reduced word of shape u (center) u^{-1}, return u."""
    lo, hi = 0, len(word) - 1
    while hi - lo > 0:
        if word[lo] != -word[hi]:
            raise MagnusError(f"word is not a conjugate of generator {center}")
        lo += 1
        hi -= 1
    if lo != hi or word[lo] != center:
        raise MagnusError(f"word is not a conjugate of generator {center}")
    return word[: lo]


def _loop_generator_word(j: int, k: int) -> tuple[int, ...]:
    """Braid word on k strands looping strand k once (positively) around
    strand j."""
    return (
        tuple(range(k - 1, j, -1)) + (j, j) + tuple(-s for s in range(j + 1, k))
    )


def _substitute(word: FreeWord, table: dict[int, FreeWord]) -> FreeWord:
    out: list[int] = []
    for t in word:
        out.extend(table[t] if t > 0 else invert_free(table[-t]))
    return free_reduce(tuple(out))


def _raw_component(braid_letters: tuple[int, ...], k: int) -> FreeWord:
    """Free word (in the twisted basis) traced by strand k of a braid that
    trivializes when strand k is deleted."""
    image = artin_image(braid_letters, (k,))
    conjugator = _peel_conjugator(image, k)
    return free_reduce(tuple(t for t in conjugator if abs(t) != k))


@lru_cache(maxsize=None)
def _standard_basis(k: int) -> dict[int, FreeWord]:
    """Expressions of the standard free generators x_j (strand k looping
    around strand j) in terms of the raw components, for j = 1..k-1."""
    exprs: dict[int, FreeWord] = {}
    for j in range(k - 1, 0, -1):
        raw = _raw_component(_loop_generator_word(j, k), k)
        u = _peel_conjugator(raw, j)
        if any(abs(t) <= j for t in u):
            raise MagnusError(
                f"basis triangularity failed at strand {k}, generator {j}"
            )
        sub_u = _substitute(u, exprs)
        exprs[j] = free_reduce(invert_free(sub_u) + (j,) + sub_u)
    return exprs


def _level_component(braid_letters: tuple[int, ...], k: int) -> FreeWord:
    raw = _raw_component(braid_letters, k)
    return _substitute(raw, _standard_basis(k))


@dataclass(frozen=True)
class CombedForm:
    strands: int
    components: tuple[FreeWord, ...]  # level n first, down to level 2

    def is_trivial(self) -> bool:
        return all(not c for c in self.components)


def _check_pure_word(letters: tuple[int, ...], n: int) -> None:
    perm = BraidWord(n, letters).permutation()
    if perm != tuple(range(1, n + 1)):
        raise MagnusError("braid is not pure")


def _level_words(letters: tuple[int, ...], n: int):
    """Yield (k, c_letters) per level, c_letters a pure word on k strands
    trivialized by deleting strand k."""
    w = free_reduce(letters)
    for k in range(n, 1, -1):
        wbar = delete_strand(w, k, k)
        lift_inv = tuple(-d for d in reversed(wbar))
        yield k, free_reduce(lift_inv + w)
        w = wbar


def comb_word(letters: tuple[int, ...], n: int) -> CombedForm:
    _check_pure_word(letters, n)
    components = tuple(
        _level_component(c, k) for k, c in _level_words(letters, n)
    )
    return CombedForm(n, components)


def comb(g: DigitalBraid) -> CombedForm:
    return comb_word(g.word.letters, g.word.strands)


def recombine(form: CombedForm, n: int | None = None) -> BraidWord:
    """Braid word reassembled from a combed form; equal to the original
    braid."""
    if n is None:
        n = form.strands
    word: tuple[int, ...] = ()
    k = n - len(form.components) + 1
    for component in reversed(form.components):
        tail: list[int] = []
        for t in component:
            gen = _loop_generator_word(abs(t), k)
            tail.extend(gen if t > 0 else tuple(-d for d in reversed(gen)))
        word = free_reduce(word + tuple(tail))
        k += 1
    return BraidWord(n, word)


def _comb_sign(letters: tuple[int, ...], n: int, degree_cap: int) -> Sign:
    """Sign of a pure braid word by combing every level: the first
    nontrivial component, from level 2 up, decides by its Magnus sign."""
    levels = list(_level_words(letters, n))
    for k, c in reversed(levels):
        component = _level_component(c, k)
        if component:
            return free_word_sign(component, degree_cap)
    return Sign.ZERO


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
    lk(j, k)(g).  (iii) The loop A_ik = `_loop_generator_word(i, k)`, the
    x_i of `_standard_basis(k)`, crosses strand k with strands i+1..k-1
    once with each sign and with strand i twice positively, so
    lk(j, k)(A_ik) = delta_ij.  Hence lk(j, k) is the exponent sum of x_j
    in c_k, which is its degree-1 Magnus coefficient.  (iv) The deciding
    level is the lowest k with g_k nontrivial, and a trivial g_k has a
    trivial g_{k-1}.  Start at the lowest level k with some lk(j, k) != 0,
    where g_k is nontrivial by (ii), or at n+1 if there is none, and step
    down while g_{k-1}, the braid left after deleting strands k..n, is
    nontrivial by the lamination.  The walk stops at the deciding level, or
    at n+1 when the whole braid is trivial and signs zero.  There g_{k-1}
    is trivial, so lift(g_{k-1}) is too, and g_k = c_k: the word of g_k is
    its own level-k component.  If some lk(j, k) != 0, c_k decides at
    degree 1: the least monomial with a nonzero coefficient is X_j0, j0 the
    least j with lk(j0, k) != 0, and the sign is that of lk(j0, k).
    Otherwise g_k alone is combed and signed by `free_word_sign`, so
    `DegreeCapExceeded` can only arise there: a word decided by its
    linking numbers is one `free_word_sign` decides at degree 1."""
    _check_pure_word(letters, n)
    m = n + 1
    at = list(range(m))  # at[p] = strand (top position) at position p
    twice_lk = [0] * (m * m)  # 2 lk(j, k) at k * m + j, j < k
    for d in letters:
        p = d if d > 0 else -d
        a, b = at[p], at[p + 1]
        at[p], at[p + 1] = b, a
        i = b * m + a if a < b else a * m + b
        twice_lk[i] += 1 if d > 0 else -1
    k = next((k for k in range(2, m) if any(twice_lk[k * m : k * m + k])), m)
    while not lamination_trivial(
        _unchecked(BraidWord, k - 1, delete_strand(letters, n, k))
    ):
        k -= 1
    if k == m:
        return Sign.ZERO
    lk = next((x for x in twice_lk[k * m : k * m + k] if x), 0)
    if lk and degree_cap >= 1:  # below degree 1 combing decides nothing
        return Sign.POSITIVE if lk > 0 else Sign.NEGATIVE
    g_k = delete_strand(letters, n, k + 1)
    return free_word_sign(_level_component(g_k, k), degree_cap)


def pure_braid_sign(
    g: DigitalBraid, degree_cap: int = DEFAULT_DEGREE_CAP
) -> Sign:
    return pure_word_sign(g.word.letters, g.word.strands, degree_cap)
