"""The three benchmark workloads: set-up, checked operations and oracles.

Every operation calls the public ``braidfrac`` API on inputs parsed from the
generator's literals, checks its own answers for consistency and returns
them as strings for the answer digest.  A wrong or inconsistent answer
raises `CheckFailed`.

Why these workloads:

* ``braided-left`` exercises the braid layer's hot path: Dehornoy signs of
  braid factors, cabling inside every product, and cabling plus a sign in
  the padding operation.  Handle-reduction and cabling gains show here.
* ``pure-bi`` uses the same braid layer differently: handle reduction only
  tests triviality, every order query realizes a PL map first
  (quotient-first) and decides ties by combing plus the Magnus expansion.
  It is the only workload that reaches ``magnus``.
* ``plain-forest`` carries only empty braid words, so it bypasses the
  braid and Magnus layers: forests, their joins and PL realization
  dominate.  It is the no-change control for braid work.

The mix rotates through each workload's query kinds by weight, and its
systems in turn.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from braidfrac import (
    ExpansionForest,
    Flavor,
    GroupContext,
    act_bottom,
    dehornoy_sign,
    enumerate_expansions,
    forest_from_steps,
    forest_join,
    graft,
    houghton_drs,
    parse_edge_shift,
    parse_element,
    steps_of,
    thompson_drs,
)
from braidfrac.braids import handle_reduce, lamination_trivial
from braidfrac.drs import NotAnUpperBoundError, complement
from braidfrac.magnus import pure_word_sign
from braidfrac.ordering import Comparison, Sign
from braidfrac.plmaps import pl_sign, realize_forest, realize_pair

import gen

# Limits passed to every order query.  They sit far above what the
# generated traffic needs, so hitting one is a failure of the program.
STEP_BUDGET = 200_000
DEGREE_CAP = 8

# forest-join pools: (pool depth, upper-bound depth) per system
JOIN_DEPTHS = {"thompson:2": (4, 6), "thompson:3": (3, 5), "edgeshift:ab": (4, 6)}


class CheckFailed(Exception):
    """An answer failed a consistency check."""


def _drs(system: str):
    if system == "thompson:2":
        return thompson_drs(2)
    if system == "thompson:3":
        return thompson_drs(3)
    if system == "houghton:3":
        return houghton_drs(3)
    return parse_edge_shift(gen.EDGE_SHIFT_TEXT)


def _check_system(system: str, drs) -> None:
    base, rules = gen.SYSTEMS[system]
    if drs.base != base or {r.lhs: r.rhs for r in drs.rules} != rules:
        raise CheckFailed(f"generator rules for {system} differ from the library")


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _positive(e, s: Sign):
    return e.invert() if s is Sign.NEGATIVE else e


def _expected_product_sign(*signs: Sign) -> Sign:
    """Sign of a product of elements each made nonnegative."""
    return Sign.ZERO if all(s is Sign.ZERO for s in signs) else Sign.POSITIVE


# --- braided-left ------------------------------------------------------------

def _op_sign(e):
    s = e.sign(budget=STEP_BUDGET)
    _require(e.invert().sign(budget=STEP_BUDGET) is -s, "trichotomy")
    _require((s is Sign.ZERO) == e.is_identity(budget=STEP_BUDGET), "zero vs identity")
    return (s.value,)


def _op_left_invariance(a, b, c):
    before = a.compare(b, budget=STEP_BUDGET)
    after = (c * a).compare(c * b, budget=STEP_BUDGET)
    _require(before is after, "left invariance")
    return (before.value,)


def _op_cone(u, v):
    su = u.sign(budget=STEP_BUDGET)
    sv = v.sign(budget=STEP_BUDGET)
    p = (_positive(u, su) * _positive(v, sv)).sign(budget=STEP_BUDGET)
    _require(p is _expected_product_sign(su, sv), "cone closure")
    return (su.value, sv.value, p.value)


def _op_pad_braided(e, forest):
    before = dehornoy_sign(e.g.word, STEP_BUDGET)
    _, padded = act_bottom(e.g, forest)
    _require(dehornoy_sign(padded.word, STEP_BUDGET) is before, "padding sign")
    return (before.value,)


# --- pure-bi -----------------------------------------------------------------

def _op_bi_invariance(a, b, c):
    kw = {"degree_cap": DEGREE_CAP, "budget": STEP_BUDGET}
    before = a.compare(b, **kw)
    left = (c * a).compare(c * b, **kw)
    right = (a * c).compare(b * c, **kw)
    _require(before is left and before is right, "two-sided invariance")
    return (before.value,)


def _op_conjugate(g, c):
    kw = {"degree_cap": DEGREE_CAP, "budget": STEP_BUDGET}
    s = g.sign(**kw)
    _require((s is Sign.ZERO) == g.is_identity(budget=STEP_BUDGET), "zero vs identity")
    conj = (c * _positive(g, s)) * c.invert()
    _require(conj.sign(**kw) is _expected_product_sign(s), "conjugate of a positive")
    return (s.value,)


def _op_pad_pure(e, forest):
    w = e.g.word
    before = pure_word_sign(w.letters, w.strands, DEGREE_CAP)
    _, padded = act_bottom(e.g, forest)
    p = padded.word
    _require(pure_word_sign(p.letters, p.strands, DEGREE_CAP) is before, "padding sign")
    return (before.value,)


# --- plain-forest ------------------------------------------------------------

def _leq(a, b) -> bool:
    try:
        complement(a, b)
    except NotAnUpperBoundError:
        return False
    return True


def _op_join(s, t, common):
    j, b, a = forest_join(s, t)
    _require(graft(s, b) == j and graft(t, a) == j, "join graft-back")
    _require(all(_leq(j, u) for u in common), "join minimality")
    return (str(j.leaf_count()), str(len(common)))


# --- workloads ---------------------------------------------------------------

@dataclass(frozen=True)
class Kind:
    op: Callable
    elements: int  # number of element arguments
    padded: bool  # takes a padding forest after its elements
    weight: int  # queries of this kind per rotation of the mix


@dataclass(frozen=True)
class Workload:
    name: str
    flavor: str
    systems: tuple[str, ...]
    kinds: dict[str, Kind]
    # about as many distinct queries as a 20-s run reaches, so its tail
    # percentiles rest on distinct inputs rather than on repeats
    corpus_size: int
    # Braided and pure elements are smaller than the acceptance sizes.  At
    # those sizes a few queries per thousand spend 0.3-1.2 s in handle
    # reduction (braided) or over 60 s combing a braid whose free-group
    # components blow up (pure), so throughput and tail latency of 20-s
    # runs spread by a third between seeds.
    sizes: gen.Sizes = gen.ACCEPTANCE

    def rotation(self) -> list[str]:
        """Kinds interleaved by weight; costly kinds get low weights so
        that no single kind takes most of a run's time."""
        top = max(k.weight for k in self.kinds.values())
        return [n for r in range(top) for n, k in self.kinds.items() if k.weight > r]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "braided-left",
            "braided",
            ("thompson:2", "houghton:3", "edgeshift:ab"),
            {
                "sign": Kind(_op_sign, 1, False, 4),
                "padding": Kind(_op_pad_braided, 1, True, 3),
                "cone": Kind(_op_cone, 2, False, 2),
                "left_invariance": Kind(_op_left_invariance, 3, False, 1),
            },
            12288,
            gen.Sizes(pieces=3, steps=4, letters=8),
        ),
        Workload(
            "pure-bi",
            "pure",
            ("thompson:2", "houghton:3"),
            {
                "padding": Kind(_op_pad_pure, 1, True, 4),
                "conjugate": Kind(_op_conjugate, 2, False, 2),
                "bi_invariance": Kind(_op_bi_invariance, 3, False, 1),
            },
            12288,
            gen.Sizes(pieces=2, steps=3, letters=6),
        ),
        Workload(
            "plain-forest",
            "plain",
            ("thompson:2", "thompson:3", "edgeshift:ab"),
            {
                "join": Kind(_op_join, 0, False, 4),
                "bi_invariance": Kind(_op_bi_invariance, 3, False, 1),
            },
            6144,
        ),
    )
}


@dataclass
class Item:
    """One query: its kind, system and parsed arguments."""

    kind: str
    system: str
    args: tuple
    elements: tuple = field(default=())


def corpus_texts(workload: Workload, seed: int, part: int, size: int) -> list[tuple]:
    """The generator's output for one part of a run's corpus:
    (kind, system, payload) per item.  Kinds and systems rotate so every
    stretch of the corpus has the same mix."""
    rng = gen.Sampler(f"{workload.name}/{seed}/{part}")
    rotation = workload.rotation()
    out = []
    for i in range(size):
        kind = rotation[i % len(rotation)]
        system = workload.systems[(i // len(rotation)) % len(workload.systems)]
        spec = workload.kinds[kind]
        if kind == "join":
            depth = JOIN_DEPTHS[system][0]
            base = gen.SYSTEMS[system][0]
            payload = tuple(
                gen.grow(system, base, [rng.pick() for _ in range(rng.randint(0, depth))])[0]
                for _ in range(2)
            )
        else:
            payload = tuple(
                gen.element(rng, system, workload.flavor, workload.sizes)
                for _ in range(spec.elements)
            )
            if spec.padded:
                payload += (gen.padding_picks(rng, workload.sizes),)
        out.append((kind, system, payload))
    return out


def _join_pool(drs, system: str):
    """Pool forests with, for each, the upper bounds it lies below."""
    pool_depth, bound_depth = JOIN_DEPTHS[system]
    pool = enumerate_expansions(drs, drs.base, pool_depth)
    bounds = sorted(enumerate_expansions(drs, drs.base, bound_depth), key=steps_of)
    return {f: frozenset(i for i, u in enumerate(bounds) if _leq(f, u)) for f in pool}, bounds


def build(workload: Workload, seed: int, part: int, size: int) -> list[Item]:
    """Set up one part of the corpus: build the systems and join pools,
    generate the literals, parse them and multiply out the elements."""
    contexts = {}
    pools = {}
    for system in workload.systems:
        drs = _drs(system)
        _check_system(system, drs)
        contexts[system] = GroupContext(drs, drs.base, Flavor(workload.flavor))
        if "join" in workload.kinds:
            pools[system] = _join_pool(drs, system)
    items = []
    for kind, system, payload in corpus_texts(workload, seed, part, size):
        ctx = contexts[system]
        if kind == "join":
            above, bounds = pools[system]
            s, t = (forest_from_steps(ctx.drs, ctx.base, steps) for steps in payload)
            common = tuple(bounds[i] for i in sorted(above[s] & above[t]))
            items.append(Item(kind, system, (s, t, common)))
            continue
        spec = workload.kinds[kind]
        elements = []
        for pieces in payload[:spec.elements]:
            e = parse_element(ctx, pieces[0])
            for text in pieces[1:]:
                e = e * parse_element(ctx, text)
            elements.append(e)
        args = tuple(elements)
        if spec.padded:
            bottom = elements[0].g.bottom
            steps, _ = gen.grow(system, bottom, payload[spec.elements])
            args += (forest_from_steps(ctx.drs, bottom, steps),)
        items.append(Item(kind, system, args, tuple(elements)))
    return items


def run_op(workload: Workload, item: Item) -> tuple[str, ...]:
    return workload.kinds[item.kind].op(*item.args)


# --- independent oracles (outside the timed region) --------------------------

def _pl_oracle(t, s) -> Sign:
    """First deviation of the two realizations compared directly:
    T S^-1 is positive iff realize(T) > realize(S) just right of the first
    point where they differ (realize(S) is increasing)."""
    ft, fs = realize_forest(t), realize_forest(s)
    xs = sorted({x for x, _ in ft.breakpoints} | {x for x, _ in fs.breakpoints})
    for x in xs:
        yt, ys = ft(x), fs(x)
        if yt != ys:
            return Sign.POSITIVE if yt > ys else Sign.NEGATIVE
    return Sign.ZERO


def oracle_check(item: Item) -> list[str]:
    """Cross-check each element of a sampled item: handle reduction against
    the lamination action, and the PL sign against a direct comparison of
    the two realizations.  Returns the disagreements."""
    problems = []
    for e in item.elements:
        w = e.g.word
        if (not handle_reduce(w, STEP_BUDGET).letters) != lamination_trivial(w):
            problems.append(f"{item.kind}: handle reduction vs lamination")
        if e.T.leaves() == e.S.leaves():
            if pl_sign(realize_pair(e.T, e.S)) is not _pl_oracle(e.T, e.S):
                problems.append(f"{item.kind}: pl_sign vs direct realization")
    return problems


def traffic(workload: Workload, items: list[Item]) -> dict:
    """Histograms of the corpus's strands, braid letters and leaf counts,
    and the share of braided elements whose braid factor is trivial (their
    sign falls back to the PL realization)."""
    strands: dict[int, int] = {}
    letters: dict[int, int] = {}
    leaves: dict[int, int] = {}
    trivial = total = 0
    for item in items:
        forests = [f for f in item.args if isinstance(f, ExpansionForest)]
        forests += [e.T for e in item.elements]
        for f in forests:
            n = f.leaf_count()
            leaves[n] = leaves.get(n, 0) + 1
        for e in item.elements:
            w = e.g.word
            strands[w.strands] = strands.get(w.strands, 0) + 1
            # least power of two holding the word (0 for the empty word)
            bucket = 1 << (len(w.letters) - 1).bit_length() if w.letters else 0
            letters[bucket] = letters.get(bucket, 0) + 1
            if workload.flavor == "braided":
                total += 1
                trivial += lamination_trivial(w)
    hist = lambda d: {str(k): d[k] for k in sorted(d)}
    return {
        "strands": hist(strands),
        "braid_letters_pow2": hist(letters),
        "leaves": hist(leaves),
        "pl_fallback_share": trivial / total if total else 0.0,
    }


EQUAL = Comparison.EQUAL.value
