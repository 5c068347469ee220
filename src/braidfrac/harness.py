"""Randomized verification suites for the order axioms.

Each suite draws structured random data from a group context and checks one
family of properties: positive-cone closure and trichotomy, invariance of
the order under left (and, in the pure and plain flavors, right)
multiplication, preservation of braid positivity under cabling, the axioms
of the mutual actions underlying the indirect product, stability of the
braid-factor sign under representative padding, the kernel/section
decomposition of the projection that forgets braids, and exactness plus
faithfulness of the PL realization.

Trials are deterministic: trial i of a run with seed s uses the derived seed
s * 1_000_003 + i, so runs are reproducible and trials independent.
A trial that had nothing to check (the realization suite drawing two equal
forests) counts as vacuous: it passes, and `Report.vacuous` counts it.

Positive elements and positive braids come from one draw-until-signed loop
(`_first_positive`): the first draw with a nonzero sign, inverted if
negative, or a canonical positive element when every draw signs zero.
The suites reach handle reduction through `dehornoy_sign` only: it answers
ZERO exactly when full reduction empties the word, so it also decides
braid equality, next to the lamination.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .braids import (
    BraidWord,
    DigitalBraid,
    _dynnikov_sign,
    act_bottom,
    dehornoy_sign,
    lamination_sign,
    lamination_trivial,
)
from .drs import (
    ExpansionForest,
    _expandable,
    enumerate_expansions,
    format_steps,
    graft,
    steps_of,
)
from .fraction import (
    ORDERABLE_FLAVORS,
    Flavor,
    FractionElement,
    GroupContext,
    _braid_draw,
    _forest_pair,
    _grow_forest,
    _random_braid,
    format_element,
    random_element,
)
from .magnus import DEFAULT_DEGREE_CAP, _comb_sign, pure_word_sign
from .ordering import Sign
from .plmaps import pl_compose, pl_sign, realization_sign, realize_forest, realize_pair


class HarnessError(ValueError):
    """Suite cannot run on the given context."""


@dataclass
class Report:
    suite: str
    trials: int
    failures: int
    seed: int
    time_ms: int
    counterexamples: list[str] = field(default_factory=list)
    vacuous: int = 0  # trials that checked nothing; they still pass

    @property
    def passed(self) -> bool:
        return self.failures == 0


def report_format(r: Report) -> str:
    lines = [
        f"suite={r.suite} trials={r.trials} failures={r.failures} "
        f"seed={r.seed} time_ms={r.time_ms}"
        + (f" vacuous={r.vacuous}" if r.vacuous else "")
    ]
    if r.counterexamples:
        lines.append("counterexample:")
        lines.extend("  " + line for line in r.counterexamples[0].splitlines())
    return "\n".join(lines)


def _trial_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def _sample(context: GroupContext, rng: random.Random, budget: int, letters: int):
    return random_element(
        context, budget, rng.randrange(2**62), max_braid_letters=letters
    )


def _canonical_positive(context: GroupContext) -> FractionElement:
    """Small guaranteed-positive element: a single crossing (or its square,
    in the pure flavor) between two equal adjacent leaf letters; in the
    plain flavor, which has no crossings, the positive one of a pair of
    distinct forests with equal leaves and its inverse."""
    forests = sorted(
        enumerate_expansions(context.drs, context.base, 3),
        key=lambda f: (f.leaf_count(), steps_of(f)),
    )
    if context.flavor is Flavor.PLAIN:
        first_with_leaves: dict[tuple[str, ...], ExpansionForest] = {}
        for f in forests:
            t = first_with_leaves.setdefault(f.leaves(), f)
            if t is not f:
                e = FractionElement(context, t, DigitalBraid.identity(f.leaves()), f)
                return e if e.sign() is Sign.POSITIVE else e.invert()
        # on Houghton systems equal leaf words force equal forests
        raise HarnessError(
            "no positive element in the plain flavor: no two distinct forests "
            "with equal leaves within 3 expansions of the base"
        )
    for f in forests:
        w = f.leaves()
        for k in range(1, len(w)):
            if w[k - 1] == w[k]:
                reps = 2 if context.flavor is Flavor.PURE_BRAIDED else 1
                braid = DigitalBraid(w, w, BraidWord(len(w), (k,) * reps))
                return FractionElement(context, f, braid, f)
    raise HarnessError("no canonical positive element found for this context")


def _first_positive(draws, sign):
    """The first of `draws` whose sign is nonzero, inverted if negative;
    None if every draw signs zero."""
    for x in draws:
        s = sign(x)
        if s is not Sign.ZERO:
            return x if s is Sign.POSITIVE else x.invert()
    return None


def _positive_element(
    context: GroupContext,
    rng: random.Random,
    budget: int,
    letters: int,
    degree_cap: int,
) -> FractionElement:
    draws = (_sample(context, rng, budget, letters) for _ in range(20))
    e = _first_positive(draws, lambda x: x.sign(degree_cap=degree_cap))
    return e if e is not None else _canonical_positive(context)


def _describe(*elements: FractionElement) -> str:
    return "\n".join(format_element(e) for e in elements)


# --- suite bodies (return None on success, a description on failure) --------

_VACUOUS = object()  # returned instead of None by a trial that checked nothing


def _suite_cone(context, rng, budget, letters, degree_cap):
    u = _positive_element(context, rng, budget, letters, degree_cap)
    v = _positive_element(context, rng, budget, letters, degree_cap)
    uv = u * v
    if uv.sign(degree_cap=degree_cap) is not Sign.POSITIVE:
        return "product of positives not positive:\n" + _describe(u, v)
    e = _sample(context, rng, budget, letters)
    s = e.sign(degree_cap=degree_cap)
    if (s is Sign.ZERO) != e.is_identity():
        return "sign zero disagrees with identity test:\n" + _describe(e)
    if e.invert().sign(degree_cap=degree_cap) is not -s:
        return "sign not antisymmetric under inversion:\n" + _describe(e)
    if context.flavor is Flavor.BRAIDED:
        # the order and the identity test read the braid sign off a
        # sigma-definite word (Property A, which handle reduction's early
        # stop also reads), or else off the lamination; handle reduction
        # and the lamination pass on every word are the independent
        # checks, so a faulty Property A or lamination shows on any word
        for x in (u, v, uv, e):
            w = x.g.word
            if not lamination_sign(w) is dehornoy_sign(w) is _dynnikov_sign(w):
                return (
                    "lamination sign disagrees with handle reduction:\n"
                    + _describe(x)
                )
    elif context.flavor is Flavor.PURE_BRAIDED:
        # the pure sign reads linking numbers and combs at most one level;
        # combing level by level up to the deciding one is the
        # independent check
        for x in (u, v, uv, e):
            w = x.g.word
            fast = pure_word_sign(w.letters, w.strands, degree_cap)
            if fast is not _comb_sign(w.letters, w.strands, degree_cap):
                return "pure sign disagrees with combing:\n" + _describe(x)
    return None


def _suite_left_invariance(context, rng, budget, letters, degree_cap):
    a = _sample(context, rng, budget, letters)
    b = _sample(context, rng, budget, letters)
    c = _sample(context, rng, budget, letters)
    before = a.compare(b, degree_cap=degree_cap)
    after = (c * a).compare(c * b, degree_cap=degree_cap)
    if before is not after:
        return (
            f"left multiplication changed {before} to {after}:\n"
            + _describe(a, b, c)
        )
    return None


def _suite_bi_invariance(context, rng, budget, letters, degree_cap):
    a = _sample(context, rng, budget, letters)
    b = _sample(context, rng, budget, letters)
    c = _sample(context, rng, budget, letters)
    before = a.compare(b, degree_cap=degree_cap)
    left = (c * a).compare(c * b, degree_cap=degree_cap)
    right = (a * c).compare(b * c, degree_cap=degree_cap)
    if before is not left or before is not right:
        return (
            f"two-sided invariance broken ({before}/{left}/{right}):\n"
            + _describe(a, b, c)
        )
    g = _positive_element(context, rng, budget, letters, degree_cap)
    conj = (c * g) * c.invert()
    if conj.sign(degree_cap=degree_cap) is not Sign.POSITIVE:
        return "conjugate of a positive not positive:\n" + _describe(g, c)
    return None


def _braid_sign(context: GroupContext, g: DigitalBraid, degree_cap: int) -> Sign:
    """Magnus sign of a braid in the pure flavor, Dehornoy sign otherwise."""
    if context.flavor is Flavor.PURE_BRAIDED:
        return pure_word_sign(g.word.letters, g.word.strands, degree_cap)
    return dehornoy_sign(g.word)


def _random_positive_braid(context, rng, budget, letters, degree_cap):
    """Digital braid with positive sign (Dehornoy or Magnus per flavor)
    whose bottom word admits an expansion."""
    draws = (
        _braid_draw(context, rng.randint(0, budget), letters, rng)[1]
        for _ in range(40)
    )
    g = _first_positive(
        (x for x in draws if _expandable(context.drs, x.bottom)),
        lambda x: _braid_sign(context, x, degree_cap),
    )
    return g if g is not None else _canonical_positive(context).g


def _suite_compatibility(context, rng, budget, letters, degree_cap):
    g = _random_positive_braid(context, rng, budget, letters, degree_cap)
    b = _grow_forest(context.drs, g.bottom, 1, rng)
    _, gb = act_bottom(g, b)
    if _braid_sign(context, gb, degree_cap) is not Sign.POSITIVE:
        return (
            f"cabling lost positivity: braid [{g.word.format()}] on "
            f"{' '.join(g.bottom)} cabled to [{gb.word.format()}]"
        )
    return None


def _braids_equal(a: DigitalBraid, b: DigitalBraid) -> bool:
    if a.top != b.top or a.bottom != b.bottom:
        return False
    diff = a.word * b.word.inverse()
    return dehornoy_sign(diff) is Sign.ZERO and lamination_trivial(diff)


def _suite_indirect_axioms(context, rng, budget, letters, degree_cap):
    # g^(B1 B2) = (g^B1)^B2
    g = _braid_draw(context, rng.randint(0, budget), letters, rng)[1]
    b1 = _grow_forest(context.drs, g.bottom, rng.randint(0, budget), rng)
    _, gb1 = act_bottom(g, b1)
    b2 = _grow_forest(context.drs, gb1.bottom, rng.randint(0, budget), rng)
    _, gb12 = act_bottom(gb1, b2)
    _, g_joint = act_bottom(g, graft(b1, b2))
    if not _braids_equal(gb12, g_joint):
        return (
            f"iterated and grafted cabling disagree for braid "
            f"[{g.word.format()}] with forests to {b1.leaves()} and "
            f"{b2.leaves()}"
        )
    # (g1 g2)^B = g1^(g2 B) g2^B, with g2 drawn on g1's bottom word
    g1 = _braid_draw(context, rng.randint(0, budget), letters, rng)[1]
    g2 = _random_braid(
        g1.bottom, letters, rng, context.flavor is Flavor.PURE_BRAIDED
    )
    composite = g1.compose(g2)
    b = _grow_forest(context.drs, g2.bottom, rng.randint(0, budget), rng)
    _, both = act_bottom(composite, b)
    b2up, g2b = act_bottom(g2, b)
    _, g1b = act_bottom(g1, b2up)
    if not _braids_equal(both, g1b.compose(g2b)):
        return (
            f"composition axiom failed for [{g1.word.format()}], "
            f"[{g2.word.format()}] with forest to {b.leaves()}"
        )
    return None


def _suite_same_sign(context, rng, budget, letters, degree_cap):
    e = _sample(context, rng, budget, letters)
    reference = _braid_sign(context, e.g, degree_cap)
    current = e
    for _ in range(3):
        p = _grow_forest(
            context.drs, current.g.bottom, rng.randint(0, budget), rng
        )
        bup, gp = act_bottom(current.g, p)
        current = FractionElement(
            context, graft(current.T, bup), gp, graft(current.S, p)
        )
        if _braid_sign(context, current.g, degree_cap) is not reference:
            return (
                f"padding changed the braid-factor sign from {reference}:\n"
                + _describe(e, current)
            )
    return None


def _suite_semidirect(context, rng, budget, letters, degree_cap):
    e = _sample(context, rng, budget, letters)
    s = e.psi_section()
    k = e * s.invert()
    if not k.in_kernel_K():
        return "kernel part not in the kernel:\n" + _describe(e, k)
    if not ((k * s).invert() * e).is_identity():
        return "decomposition does not recompose:\n" + _describe(e, k, s)
    proj_diff = e.psi_project().invert() * s.psi_project()
    if not proj_diff.is_identity():
        return "section does not match the projection:\n" + _describe(e, s)
    return None


def _suite_realization(context, rng, budget, letters, degree_cap):
    f = _grow_forest(context.drs, context.base, rng.randint(0, budget), rng)
    g = _grow_forest(context.drs, f.leaves(), rng.randint(0, budget), rng)
    if realize_forest(graft(f, g)) != pl_compose(realize_forest(f), realize_forest(g)):
        return (
            "realization not functorial on forests with targets "
            f"{f.leaves()} and {g.leaves()}"
        )
    # at least one step, budget permitting: at budget 0 both forests are
    # the base word; a failed search gives S = T, which compares nothing
    t, s = _forest_pair(context, rng.randint(min(1, budget), budget), rng)
    m = realize_pair(t, s)
    if m != pl_compose(realize_forest(t), realize_forest(s).inverse()):
        return (
            "realize_pair disagrees with the composed realizations for "
            f"forests {format_steps(steps_of(t))} and {format_steps(steps_of(s))}"
        )
    if (t == s) != m.is_identity():
        return (
            "realization faithfulness failed for forests with leaves "
            f"{t.leaves()}"
        )
    if realization_sign(t, s) is not pl_sign(m):
        return f"realization_sign disagrees with pl_sign on leaves {t.leaves()}"
    return _VACUOUS if t == s else None  # equal forests compare nothing


_PURE = (Flavor.PURE_BRAIDED,)
_BI_ORDERED = (Flavor.PURE_BRAIDED, Flavor.PLAIN)
_WITH_BRAIDS = (Flavor.BRAIDED, Flavor.PURE_BRAIDED, Flavor.PERMUTATION)

# suite body and the flavors it runs on
_SUITES = {
    "cone": (_suite_cone, ORDERABLE_FLAVORS),
    "left_invariance": (_suite_left_invariance, ORDERABLE_FLAVORS),
    "bi_invariance": (_suite_bi_invariance, _BI_ORDERED),
    "compatibility": (_suite_compatibility, _WITH_BRAIDS),
    "indirect_axioms": (_suite_indirect_axioms, _WITH_BRAIDS),
    "same_sign": (_suite_same_sign, tuple(Flavor)),
    "semidirect": (_suite_semidirect, _PURE),
    "realization": (_suite_realization, tuple(Flavor)),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(
    name: str,
    context: GroupContext,
    trials: int,
    seed: int,
    budget: int = 6,
    max_braid_letters: int = 12,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> Report:
    if name not in _SUITES:
        raise HarnessError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    body, flavors = _SUITES[name]
    if context.flavor not in flavors:
        *rest, last = (f.value for f in flavors)
        listed = f"{', '.join(rest)} and {last} flavors" if rest else f"{last} flavor"
        raise HarnessError(f"suite {name}: runs on the {listed} only")
    if budget < 0:
        raise HarnessError(f"budget must be >= 0, got {budget}")
    if trials < 1:
        raise HarnessError(f"trials must be >= 1, got {trials}")
    if max_braid_letters < 0:
        raise HarnessError(f"max_braid_letters must be >= 0, got {max_braid_letters}")
    if degree_cap < 1:
        raise HarnessError(f"degree_cap must be >= 1, got {degree_cap}")
    failures = vacuous = 0
    counterexamples: list[str] = []
    start = time.monotonic()
    for i in range(trials):
        rng = _trial_rng(seed, i)
        try:
            result = body(context, rng, budget, max_braid_letters, degree_cap)
        except HarnessError as exc:
            raise HarnessError(f"suite {name}: {exc}") from None
        if result is _VACUOUS:
            vacuous += 1
        elif result is not None:
            failures += 1
            counterexamples.append(f"trial {i}: {result}")
    elapsed = int((time.monotonic() - start) * 1000)
    return Report(name, trials, failures, seed, elapsed, counterexamples, vacuous)
