"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

run.load_library()

from braidfrac.fraction import FractionElement  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

TINY = {"corpus_size": 24, "min_ops": 24}


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric(name, trace):
    record, result = run.run(name, 0, 0.05, trace, **TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record
    assert result["failed"] == 0, record["failures"]
    assert record["fail_ratio"] == 0
    expected = _units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_traced_and_untraced_answers_agree():
    record, _ = run.run("braided-left", 3, 0.05, True, **TINY)
    assert record["digest"]["untraced"] == record["digest"]["traced"]
    again, _ = run.run("braided-left", 3, 0.05, False, **TINY)
    assert again["digest"]["untraced"] == record["digest"]["untraced"]


def test_magnus_is_bypassed_outside_pure():
    for name in ("braided-left", "plain-forest"):
        _, result = run.run(name, 0, 0.05, True, **TINY)
        assert result["metrics"]["magnus.pure_word_sign.calls"]["value"] == 0
    _, result = run.run("pure-bi", 0, 0.05, True, **TINY)
    assert result["metrics"]["magnus.pure_word_sign.calls"]["value"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrong_answer_is_counted(name, monkeypatch):
    """A sign that flips on every other call breaks the checks of every
    workload's compare queries."""
    true_sign = FractionElement.sign
    calls = []

    def flaky_sign(self, *args, **kwargs):
        calls.append(None)
        s = true_sign(self, *args, **kwargs)
        return -s if len(calls) % 2 else s

    monkeypatch.setattr(FractionElement, "sign", flaky_sign)
    record, result = run.run(name, 0, 0.05, False, **TINY)
    assert result["failed"] > 0
    assert not result["correct"]
    assert any(k.startswith("wrong:") for k in record["failures"]["untraced"])


def test_refuses_to_run_without_library(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "braided-left",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
