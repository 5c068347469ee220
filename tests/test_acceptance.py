"""End-to-end acceptance checks.

Each test covers one acceptance criterion, prints a single pass/fail line
(emitted outside pytest capture so they always reach the console), and enforces
stated trial counts and time limits.
"""

from __future__ import annotations

import random
import time

from braidfrac.braids import BraidWord, DigitalBraid, act_bottom, dehornoy_sign
from braidfrac.braids import handle_reduce, lamination_trivial
from braidfrac.drs import (
    ExpansionForest,
    NotAnUpperBoundError,
    complement,
    enumerate_expansions,
    expand_at,
    forest_from_steps,
    forest_join,
    graft,
)
from braidfrac.families import edge_shift_drs, houghton_drs, thompson_drs
from braidfrac.fraction import Flavor, GroupContext, random_element
from braidfrac.harness import run_suite
from braidfrac.magnus import magnus_expand
from braidfrac.ordering import Sign
from braidfrac.plmaps import pl_compose, realize_forest, realize_pair

from fractions import Fraction as F


def _report(capsys, number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"acceptance {number} ({name}): {status}"
    if detail and not ok:
        line += f" -- {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, detail or name


def _ctx(drs, flavor: str) -> GroupContext:
    return GroupContext(drs, drs.base, Flavor(flavor))


def _edge2():
    return edge_shift_drs([("a", ["a", "b"]), ("b", ["b", "a"])], base=("a",))


def test_criterion_1_left_order(capsys):
    problems: list[str] = []
    for drs in (thompson_drs(2), houghton_drs(3), _edge2()):
        ctx = _ctx(drs, "braided")
        start = time.monotonic()
        for suite, trials in (("cone", 200), ("left_invariance", 200)):
            rep = run_suite(suite, ctx, trials, 0, budget=6, max_braid_letters=12)
            if rep.failures:
                problems.append(f"{drs.alphabet} {suite}: {rep.failures} failures")
        for i in range(500):
            e = random_element(ctx, 6, 90_000 + i, max_braid_letters=12)
            s = e.sign()
            if e.invert().sign() is not -s:
                problems.append(f"trichotomy broken at element {i}")
            if (s is Sign.ZERO) != e.is_identity():
                problems.append(f"zero sign vs identity mismatch at element {i}")
        elapsed = time.monotonic() - start
        if elapsed > 60:
            problems.append(f"{drs.alphabet}: took {elapsed:.1f}s > 60s")
    _report(capsys, 1, "left-order suite", not problems, "; ".join(problems[:3]))


def test_criterion_2_bi_order(capsys):
    problems: list[str] = []
    for drs in (thompson_drs(2), houghton_drs(3)):
        ctx = _ctx(drs, "pure")
        start = time.monotonic()
        rep = run_suite(
            "bi_invariance", ctx, 200, 0, budget=6, max_braid_letters=12, degree_cap=8
        )
        elapsed = time.monotonic() - start
        if rep.failures:
            problems.append(
                f"{drs.alphabet}: {rep.failures} failures; "
                + (rep.counterexamples[0] if rep.counterexamples else "")
            )
        if elapsed > 120:
            problems.append(f"{drs.alphabet}: took {elapsed:.1f}s > 120s")
    _report(capsys, 2, "bi-order suite", not problems, "; ".join(problems[:2]))


def test_criterion_3_compatibility(capsys):
    problems: list[str] = []
    for drs in (thompson_drs(2), houghton_drs(3)):
        rep = run_suite("compatibility", _ctx(drs, "braided"), 250, 1)
        if rep.failures:
            problems.append(f"braided {drs.alphabet}: {rep.failures} failures")
        rep = run_suite("compatibility", _ctx(drs, "pure"), 150, 1, degree_cap=8)
        if rep.failures:
            problems.append(f"pure {drs.alphabet}: {rep.failures} failures")
    _report(capsys, 3, "cabling preserves positivity", not problems, "; ".join(problems[:2]))


def test_criterion_4_word_problem_cross_oracle(capsys):
    rng = random.Random(2024)
    start = time.monotonic()
    mismatches = 0
    for _ in range(1000):
        n = rng.randint(3, 6)
        letters = tuple(
            rng.choice([-1, 1]) * rng.randint(1, n - 1)
            for _ in range(rng.randint(0, 20))
        )
        w = BraidWord(n, letters)
        if (not handle_reduce(w).letters) != lamination_trivial(w):
            mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed <= 30
    _report(
        capsys,
        4,
        "word-problem cross-oracle",
        ok,
        f"{mismatches} disagreements, {elapsed:.1f}s",
    )


def test_criterion_5_padding_invariance(capsys):
    problems: list[str] = []
    rep = run_suite("same_sign", _ctx(thompson_drs(2), "braided"), 100, 2)
    if rep.failures:
        problems.append(f"braided: {rep.failures} failures")
    rep = run_suite("same_sign", _ctx(houghton_drs(3), "pure"), 100, 2, degree_cap=8)
    if rep.failures:
        problems.append(f"pure: {rep.failures} failures")
    _report(capsys, 5, "padding keeps braid-factor sign", not problems, "; ".join(problems))


def test_criterion_6_semidirect_decomposition(capsys):
    problems: list[str] = []
    for drs in (thompson_drs(2), houghton_drs(3)):
        rep = run_suite("semidirect", _ctx(drs, "pure"), 100, 3)
        if rep.failures:
            problems.append(f"{drs.alphabet}: {rep.failures} failures")
    _report(capsys, 6, "kernel-by-plain decomposition", not problems, "; ".join(problems))


def test_criterion_7_realization_exactness(capsys):
    drs = thompson_drs(2)
    rng = random.Random(7)
    problems: list[str] = []

    def random_forest(source, max_steps):
        f = ExpansionForest.identity(drs, source)
        for _ in range(rng.randint(0, max_steps)):
            f = expand_at(f, rng.randint(1, f.leaf_count()))
        return f

    for i in range(200):
        f = random_forest(("x",), 5)
        g = random_forest(f.leaves(), 5)
        if realize_forest(graft(f, g)) != pl_compose(
            realize_forest(f), realize_forest(g)
        ):
            problems.append(f"functoriality failed at pair {i}")
            break
    checked = 0
    while checked < 200:
        steps = rng.randint(1, 6)
        t = random_forest(("x",), 0)
        s = random_forest(("x",), 0)
        for _ in range(steps):
            t = expand_at(t, rng.randint(1, t.leaf_count()))
            s = expand_at(s, rng.randint(1, s.leaf_count()))
        if t == s:
            continue
        checked += 1
        if realize_pair(t, s).is_identity():
            problems.append(f"non-identity pair realized as identity ({checked})")
            break
    _report(capsys, 7, "exact PL realization", not problems, "; ".join(problems[:2]))


def test_criterion_8_join_minimality_brute_force(capsys):
    drs = thompson_drs(2)
    start = time.monotonic()
    pool = list(enumerate_expansions(drs, ("x",), 4))
    bounds = list(enumerate_expansions(drs, ("x",), 8))

    def leq(a, b) -> bool:
        try:
            complement(a, b)
            return True
        except NotAnUpperBoundError:
            return False

    above = {f: [u for u in bounds if leq(f, u)] for f in pool}
    problems: list[str] = []
    for s in pool:
        upper_s = set(above[s])
        for t in pool:
            j, b, a = forest_join(s, t)
            if graft(s, b) != j or graft(t, a) != j:
                problems.append("join complements do not graft back")
            for u in above[t]:
                if u in upper_s and not leq(j, u):
                    problems.append("join is not least")
    elapsed = time.monotonic() - start
    ok = not problems and elapsed <= 10
    _report(capsys, 8, "exhaustive join minimality", ok, f"{problems[:1]} {elapsed:.1f}s")


def test_criterion_9_named_values(capsys):
    problems: list[str] = []

    drs = thompson_drs(2)
    t = forest_from_steps(drs, ("x",), [1, 1])
    s = forest_from_steps(drs, ("x",), [1, 2])
    expected = ((F(0), F(0)), (F(1, 2), F(1, 4)), (F(3, 4), F(1, 2)), (F(1), F(1)))
    if realize_pair(t, s).breakpoints != expected:
        problems.append("dyadic generator realization")

    g = DigitalBraid(("x", "x"), ("x", "x"), BraidWord(2, (1,)))
    b = expand_at(ExpansionForest.identity(drs, ("x", "x")), 1)
    _, gb = act_bottom(g, b)
    if gb.word.letters != (1, 2):
        problems.append("doubling cable of a crossing")

    if dehornoy_sign(BraidWord(3, (1, 2, -1, -2))) is not Sign.POSITIVE:
        problems.append("commutator handle reduction sign")

    p = magnus_expand((1, 2, -1, -2), 2)
    if p.coeffs != {(): 1, (1, 2): 1, (2, 1): -1}:
        problems.append("commutator series lowest term")

    _report(capsys, 9, "frozen named values", not problems, "; ".join(problems))
