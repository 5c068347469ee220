"""Randomized verification suites and their report format."""

from __future__ import annotations

import pytest

from braidfrac import harness
from braidfrac.braids import act_bottom
from braidfrac.cli import main
from braidfrac.families import edge_shift_drs
from braidfrac.fraction import FractionElement
from braidfrac.harness import (
    SUITE_NAMES,
    HarnessError,
    Report,
    report_format,
    run_suite,
)
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
    # (`fraction._plain_piece`): at seed 0 it compares 49, 145 and 0 pairs
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


def _left_sign(self, other, **kw):
    # the sign of the left argument alone: left multiplication moves it
    return self.sign(**kw)


# per suite: its context, the object and name of one thing it checks, a
# broken replacement, and the first words of the counterexample that follows
_BREAKS = {
    "cone": ("pure", harness, "_comb_sign", _flipped(harness._comb_sign),
             "pure sign disagrees with combing"),
    "left_invariance": ("braided", FractionElement, "compare", _left_sign,
                        "left multiplication changed"),
    "bi_invariance": ("pure", FractionElement, "compare", _left_sign,
                      "two-sided invariance broken"),
    "compatibility": ("braided", harness, "act_bottom", _inverted_act_bottom,
                      "cabling lost positivity"),
    "indirect_axioms": ("braided", harness, "lamination_trivial", lambda w: False,
                        "iterated and grafted cabling disagree"),
    "same_sign": ("braided", harness, "act_bottom", _inverted_act_bottom,
                  "padding changed the braid-factor sign"),
    "semidirect": ("pure", FractionElement, "in_kernel_K", lambda self: False,
                   "kernel part not in the kernel"),
    "realization": ("plain", harness, "realization_sign",
                    _flipped(harness.realization_sign),
                    "realization_sign disagrees with pl_sign"),
}


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_every_suite_reports_failures(monkeypatch, thompson2, suite):
    # on thompson:2 every leaf is the one letter, so an inverted cabled
    # braid still fits the leaves of its forests
    flavor, owner, name, broken, words = _BREAKS[suite]
    monkeypatch.setattr(owner, name, broken)
    report = run_suite(suite, make_context(thompson2, flavor), 8, 1, budget=4)
    assert report.failures > 0 and not report.passed
    assert report.counterexamples[0].split(": ", 1)[1].startswith(words)
