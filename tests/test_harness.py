"""Randomized verification suites and their report format."""

from __future__ import annotations

import pytest

from braidfrac import braids, harness
from braidfrac.braids import DigitalBraid, act_bottom, lamination_initial
from braidfrac.cli import main
from braidfrac.families import edge_shift_drs
from braidfrac.fraction import FractionElement, parse_element
from braidfrac.harness import (
    SUITE_NAMES,
    HarnessError,
    Report,
    report_format,
    run_suite,
)
from braidfrac.ordering import Sign
from braidfrac.plmaps import PLMap, realize_pair
from conftest import make_context


def test_report_format_line():
    r = Report(suite="cone", trials=10, failures=0, seed=3, time_ms=12)
    assert report_format(r) == "suite=cone trials=10 failures=0 seed=3 time_ms=12"
    assert r.passed


def test_report_format_counterexample():
    r = Report("cone", 1, 1, 0, 5, counterexamples=["bad\nelement"])
    text = report_format(r)
    assert text.splitlines()[0] == "suite=cone trials=1 failures=1 seed=0 time_ms=5"
    assert "  bad" in text and "  element" in text
    assert not r.passed


def test_vacuous_realization_trials_are_counted(capsys):
    # equal Houghton leaf words force equal forests, so each of these 30
    # trials draws s == t, or finds no pair and falls back to s = t: none
    # compares two forests
    argv = ["axioms", "--drs", "houghton:3", "--flavor", "plain"]
    argv += ["--suite", "realization", "--trials", "30", "--seed", "0"]
    assert main(argv) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("suite=realization trials=30 failures=0 seed=0 time_ms=")
    assert line.endswith(" vacuous=30")


@pytest.mark.parametrize(
    "system, least, most",
    # on Houghton systems equal leaf words force equal forests
    [("edge", 40, 200), ("thompson2", 120, 200), ("houghton3", 0, 0)],
)
def test_realization_suite_compares_distinct_pairs(request, system, least, most):
    # the suite draws its pair as the plain flavor's random elements do
    # (`fraction._forest_pair`): at seed 0 it compares 49, 145 and 0 pairs
    if system == "edge":
        drs = edge_shift_drs([("a", ["a", "b"]), ("b", ["a", "b"])], base=("a",))
    else:
        drs = request.getfixturevalue(system)
    report = run_suite("realization", make_context(drs, "plain"), 200, 0)
    assert report.failures == 0, report_format(report)
    assert least <= report.trials - report.vacuous <= most


def test_unknown_suite(t2_braided):
    with pytest.raises(HarnessError):
        run_suite("nonsense", t2_braided, 1, 0)


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_negative_budget_refused(t2_pure, suite):
    with pytest.raises(HarnessError, match="budget must be >= 0"):
        run_suite(suite, t2_pure, 1, 0, budget=-1)


@pytest.mark.parametrize("suite", SUITE_NAMES)
@pytest.mark.parametrize("trials", [0, -5])
def test_nonpositive_trials_refused(t2_pure, suite, trials):
    with pytest.raises(HarnessError, match="trials must be >= 1"):
        run_suite(suite, t2_pure, trials, 0)


# every suite on the pure flavor, and the braided cone, which never reaches
# the degree cap and so ran without complaint at degree_cap=0
@pytest.mark.parametrize(
    "flavor, suite", [("pure", s) for s in SUITE_NAMES] + [("braided", "cone")]
)
@pytest.mark.parametrize(
    "limit, message",
    [
        ({"max_braid_letters": -4}, "max_braid_letters must be >= 0"),
        ({"degree_cap": 0}, "degree_cap must be >= 1"),
    ],
    ids=["letters", "degree_cap"],
)
def test_out_of_range_limits_refused(thompson2, flavor, suite, limit, message):
    with pytest.raises(HarnessError, match=message):
        run_suite(suite, make_context(thompson2, flavor), 1, 0, **limit)


@pytest.mark.parametrize("suite", ["bi_invariance", "semidirect"])
def test_pure_only_suites_reject_braided(t2_braided, suite):
    with pytest.raises(HarnessError):
        run_suite(suite, t2_braided, 1, 0)


def test_deterministic_reports(t2_braided):
    a = run_suite("cone", t2_braided, 5, 42)
    b = run_suite("cone", t2_braided, 5, 42)
    assert (a.trials, a.failures, a.counterexamples) == (
        b.trials,
        b.failures,
        b.counterexamples,
    )


@pytest.mark.parametrize("suite", [s for s in SUITE_NAMES])
def test_suites_pass_on_thompson(thompson2, t2_braided, t2_pure, suite):
    context = t2_pure if suite in ("bi_invariance", "semidirect") else t2_braided
    report = run_suite(suite, context, 8, 1, budget=4, max_braid_letters=8)
    assert report.failures == 0, report_format(report)
    assert report.trials == 8


def test_suites_pass_on_houghton_pure(h3_pure):
    for suite in SUITE_NAMES:
        report = run_suite(
            suite, h3_pure, 5, 2, budget=4, max_braid_letters=8, degree_cap=8
        )
        assert report.failures == 0, report_format(report)


def test_failed_trials_are_reported(monkeypatch, capsys, t2_braided):
    # an oracle that never agrees fails every trial of the braided cone suite
    monkeypatch.setattr(harness, "dehornoy_sign", lambda word: None)
    report = run_suite("cone", t2_braided, 3, 0)
    assert report.failures == 3 and not report.passed
    assert [c.split(":")[0] for c in report.counterexamples] == [
        "trial 0",
        "trial 1",
        "trial 2",
    ]
    lines = report_format(report).splitlines()
    assert lines[0].startswith("suite=cone trials=3 failures=3 seed=0 time_ms=")
    assert lines[1:3] == [
        "counterexample:",
        "  trial 0: lamination sign disagrees with handle reduction:",
    ]
    assert lines[3].startswith("  frac T=[") and len(lines) == 4
    argv = ["axioms", "--drs", "thompson:2", "--suite", "cone", "--trials", "2"]
    assert main(argv) == 1
    assert capsys.readouterr().out.startswith("suite=cone trials=2 failures=2 seed=0 ")


def _inverted_act_bottom(g, b):
    bup, gb = act_bottom(g, b)
    return bup, gb.invert()


def _flipped(sign_of):
    return lambda *args: -sign_of(*args)


def _negated(test):
    return lambda *args, **kw: not test(*args, **kw)


def _left_sign(self, other, **kw):
    # the sign of the left argument alone: left multiplication moves it
    return self.sign(**kw)


def _negative_element(context, *args):
    return harness._canonical_positive(context).invert()


def _swapped_realize_pair(t, s):
    return realize_pair(s, t)


def _case(suite, flavor, owner, name, broken, words, case=None):
    return pytest.param(
        suite, flavor, owner, name, broken, words,
        id=suite if case is None else f"{suite}-{case}",
    )


# per failure return of a suite: its context, the object and name of one
# thing it checks, a broken replacement, and the first words of the
# counterexample that follows
_BREAKS = [
    _case("cone", "pure", harness, "_comb_sign", _flipped(harness._comb_sign),
          "pure sign disagrees with combing"),
    _case("cone", "braided", harness, "_positive_element", _negative_element,
          "product of positives not positive", "product"),
    _case("cone", "braided", FractionElement, "is_identity",
          _negated(FractionElement.is_identity),
          "sign zero disagrees with identity test", "identity"),
    _case("cone", "braided", Sign, "__neg__", lambda self: self,
          "sign not antisymmetric under inversion", "antisymmetry"),
    _case("left_invariance", "braided", FractionElement, "compare", _left_sign,
          "left multiplication changed"),
    _case("bi_invariance", "pure", FractionElement, "compare", _left_sign,
          "two-sided invariance broken"),
    _case("bi_invariance", "pure", harness, "_positive_element", _negative_element,
          "conjugate of a positive not positive", "conjugate"),
    _case("compatibility", "braided", harness, "act_bottom", _inverted_act_bottom,
          "cabling lost positivity"),
    _case("indirect_axioms", "braided", harness, "lamination_trivial",
          lambda w: False, "iterated and grafted cabling disagree"),
    # grafting only the first forest leaves the second one's leaves off
    # the cabled braid's bottom, so the label check fails
    _case("indirect_axioms", "braided", harness, "graft", lambda f, g: f,
          "iterated and grafted cabling disagree", "labels"),
    _case("indirect_axioms", "braided", DigitalBraid, "compose",
          lambda self, other: self, "composition axiom failed", "composition"),
    _case("same_sign", "braided", harness, "act_bottom", _inverted_act_bottom,
          "padding changed the braid-factor sign"),
    _case("semidirect", "pure", FractionElement, "in_kernel_K", lambda self: False,
          "kernel part not in the kernel"),
    _case("semidirect", "pure", FractionElement, "is_identity",
          _negated(FractionElement.is_identity),
          "decomposition does not recompose", "recompose"),
    # a projection that keeps the braid tells e from its section
    _case("semidirect", "pure", FractionElement, "psi_project", lambda self: self,
          "section does not match the projection", "projection"),
    _case("realization", "plain", harness, "realization_sign",
          _flipped(harness.realization_sign),
          "realization_sign disagrees with pl_sign"),
    _case("realization", "plain", harness, "graft", lambda f, g: f,
          "realization not functorial", "functoriality"),
    _case("realization", "plain", harness, "realize_pair", _swapped_realize_pair,
          "realize_pair disagrees with the composed realizations", "realize_pair"),
    _case("realization", "plain", PLMap, "is_identity", lambda self: True,
          "realization faithfulness failed", "faithfulness"),
]


@pytest.mark.parametrize("suite, flavor, owner, name, broken, words", _BREAKS)
def test_every_suite_reports_failures(
    monkeypatch, thompson2, suite, flavor, owner, name, broken, words
):
    # on thompson:2 every leaf is the one letter, so an inverted cabled
    # braid still fits the leaves of its forests
    monkeypatch.setattr(owner, name, broken)
    report = run_suite(suite, make_context(thompson2, flavor), 8, 1, budget=4)
    assert report.failures > 0 and not report.passed
    assert report.counterexamples[0].split(": ", 1)[1].startswith(words)


def test_cone_checks_definite_words_against_the_lamination(monkeypatch, thompson2):
    # a lamination pass that calls every braid trivial, on elements whose
    # braids are all sigma-positive: the sign and handle reduction both
    # read Property A there, so only the lamination pass run on every word
    # shows the fault
    ctx = make_context(thompson2, "braided")
    x = parse_element(ctx, "frac T=[1] B=[1] S=[1]")
    monkeypatch.setattr(
        braids, "lamination_apply", lambda w: lamination_initial(w.strands)
    )
    monkeypatch.setattr(harness, "_sample", lambda *args: x)
    monkeypatch.setattr(harness, "_positive_element", lambda *args: x)
    report = run_suite("cone", ctx, 5, 0)
    assert report.failures == 5
    words = report.counterexamples[0].split(": ", 1)[1]
    assert words.startswith("lamination sign disagrees with handle reduction")
