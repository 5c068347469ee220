"""Command-line interface: subcommands, expression grammar, exit codes."""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest

from braidfrac import harness
from braidfrac.braids import dehornoy_sign
from braidfrac.cli import main
from braidfrac.fraction import ORDERABLE_FLAVORS, Flavor, FractionElement
from braidfrac.harness import SUITE_NAMES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


def test_sign_single_crossing(capsys):
    code, out, _ = run(
        capsys,
        "sign",
        "--drs",
        "thompson:2",
        "--flavor",
        "braided",
        "frac T=[1] B=[1] S=[1]",
    )
    assert code == 0 and out == "positive"


def test_sign_pure_and_plain(capsys):
    code, out, _ = run(
        capsys,
        "sign",
        "--drs",
        "thompson:2",
        "--flavor",
        "pure",
        "frac T=[1] B=[1 1] S=[1]",
    )
    assert code == 0 and out == "positive"
    code, out, _ = run(
        capsys,
        "sign",
        "--drs",
        "thompson:2",
        "--flavor",
        "plain",
        "frac T=[1 1] B=[] S=[1 2]",
    )
    assert code == 0 and out == "negative"


PURE_COMMUTATOR = "frac T=[1 1] B=[1 1 2 2 -1 -1 -2 -2] S=[1 1]"


def test_degree_cap_exceeded_is_undecided(capsys):
    args = ("sign", "--drs", "thompson:2", "--flavor", "pure")
    code, out, _ = run(capsys, *args, PURE_COMMUTATOR)
    assert code == 0 and out == "negative"
    code, out, err = run(capsys, *args, "--degree-cap", "1", PURE_COMMUTATOR)
    assert code == 3 and out == ""
    assert err.startswith("undecided within limits: ")


def test_linking_decided_pure_sign_within_degree_cap_one(capsys):
    # A13^-1 A23: the linking numbers of strand 3 decide at degree 1, and
    # the least strand they link, strand 1, sets the sign
    args = ("sign", "--drs", "thompson:2", "--flavor", "pure", "--degree-cap", "1")
    code, out, _ = run(capsys, *args, "frac T=[1 1] B=[2 -1 -1 2] S=[1 1]")
    assert code == 0 and out == "negative"


def test_max_braid_letters_zero_and_negative(capsys):
    argv = ("axioms", "--drs", "thompson:2", "--suite", "cone", "--trials", "3")
    code, out, _ = run(capsys, *argv, "--max-braid-letters", "0")
    assert code == 0 and out.startswith("suite=cone trials=3 failures=0 ")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--max-braid-letters", "-4"])
    assert exc.value.code == 2
    assert "--max-braid-letters: must be at least 0" in capsys.readouterr().err


def test_step_budget_exceeded_is_undecided(capsys, monkeypatch):
    # the braided sign reads the lamination and ignores the step budget
    sign = FractionElement.sign
    monkeypatch.setattr(
        FractionElement, "sign", lambda self, **kw: sign(self, budget=1, **kw)
    )
    literal = "frac T=[1 1] B=[1 2 -1 -2 1 2 -1 -2] S=[1 1]"
    code, out, _ = run(capsys, "sign", "--drs", "thompson:2", literal)
    assert code == 0 and out == "positive"
    # the suites check the braided sign against handle reduction, which the
    # step budget bounds
    monkeypatch.setattr(harness, "dehornoy_sign", lambda w: dehornoy_sign(w, 1))
    code, out, err = run(
        capsys, "axioms", "--drs", "thompson:2", "--suite", "compatibility"
    )
    assert code == 3 and out == ""
    assert err.startswith("undecided within limits: ")


@pytest.mark.parametrize("cap", ["0", "-2", "x"])
def test_degree_cap_must_be_positive(capsys, cap):
    with pytest.raises(SystemExit) as exc:
        main(
            ["sign", "--drs", "thompson:2", "--degree-cap", cap, "frac T=[] B=[] S=[]"]
        )
    assert exc.value.code == 2
    assert "--degree-cap" in capsys.readouterr().err


def test_compare_plain_generator_with_identity(capsys):
    code, out, _ = run(
        capsys,
        "compare",
        "--drs",
        "thompson:2",
        "--flavor",
        "plain",
        "frac T=[1 1] B=[] S=[1 2]",
        "frac T=[] B=[] S=[]",
    )
    assert code == 0 and out == "less"


def test_mul_inv_normalize(capsys):
    g = "frac T=[1] B=[1] S=[1]"
    code, out, _ = run(capsys, "mul", "--drs", "thompson:2", g, g)
    assert code == 0 and out == "frac T=[1] B=[1 1] S=[1]"
    code, out, _ = run(capsys, "inv", "--drs", "thompson:2", g)
    assert code == 0 and out == "frac T=[1] B=[-1] S=[1]"
    code, out, _ = run(
        capsys,
        "normalize",
        "--drs",
        "thompson:2",
        f"{g} * inv({g})",
    )
    assert code == 0 and out == "frac T=[] B=[] S=[]"


def test_expression_grammar(capsys):
    g = "frac T=[1] B=[1] S=[1]"
    code, out, _ = run(
        capsys, "sign", "--drs", "thompson:2", f"inv({g} * {g}) * {g} * {g}"
    )
    assert code == 0 and out == "zero"
    code, _, err = run(capsys, "sign", "--drs", "thompson:2", "frac T=[1]")
    assert code == 2 and "column" in err
    code, _, err = run(capsys, "sign", "--drs", "thompson:2", f"{g} trailing")
    assert code == 2


def test_bh_generators(capsys):
    # expand ray 1, then pass its x over ray letter y2
    code, out, _ = run(
        capsys,
        "sign",
        "--drs",
        "houghton:3",
        "bh1(2; [1])",
    )
    assert code == 0 and out in ("positive", "negative")
    code, out, _ = run(
        capsys,
        "sign",
        "--drs",
        "houghton:3",
        "bh1(2; [1]) * inv(bh1(2; [1]))",
    )
    assert code == 0 and out == "zero"
    code, out, _ = run(
        capsys,
        "sign",
        "--drs",
        "houghton:3",
        "bh2(2; 1; [1 1])",
    )
    assert code == 0 and out == "positive"
    # over/under flip inverts the crossing, so the signs are opposite
    _, over, _ = run(capsys, "sign", "--drs", "houghton:3", "bh1(2; [1]; over)")
    _, under, _ = run(capsys, "sign", "--drs", "houghton:3", "bh1(2; [1]; under)")
    assert {over, under} == {"positive", "negative"}


def test_bh1_unreachable_target(capsys):
    # an x can never end up left of its own ray letter
    code, _, err = run(capsys, "sign", "--drs", "houghton:3", "bh1(1; [1])")
    assert code == 2 and "not an expansion" in err


@pytest.mark.parametrize(
    "expr, field",
    [("bh1(a; [])", "'a'"), ("bh2(z; 1)", "'z'"), ("bh2(1; 1 x)", "'x'")],
)
def test_bh_integer_fields_are_usage_errors(capsys, expr, field):
    code, _, err = run(capsys, "sign", "--drs", "houghton:3", expr)
    assert code == 2 and err.startswith("error: at column "), err
    assert "expected an integer" in err and field in err


def test_realize(capsys):
    code, out, _ = run(
        capsys,
        "realize",
        "--drs",
        "thompson:2",
        "--flavor",
        "plain",
        "frac T=[1 1] B=[] S=[1 2]",
    )
    assert code == 0 and out == "(0,0) (1/2,1/4) (3/4,1/2) (1,1)"
    code, _, err = run(
        capsys, "realize", "--drs", "thompson:2", "frac T=[] B=[] S=[]"
    )
    assert code == 2 and "plain" in err


def test_axioms(capsys):
    code, out, _ = run(
        capsys,
        "axioms",
        "--drs",
        "thompson:2",
        "--suite",
        "cone",
        "--trials",
        "4",
        "--seed",
        "5",
    )
    assert code == 0
    assert out.startswith("suite=cone trials=4 failures=0 seed=5 time_ms=")


def test_axioms_pure_suite(capsys):
    code, out, _ = run(
        capsys,
        "axioms",
        "--drs",
        "houghton:3",
        "--flavor",
        "pure",
        "--suite",
        "semidirect",
        "--trials",
        "3",
    )
    assert code == 0 and "failures=0" in out


def test_axioms_trials_must_be_positive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["axioms", "--drs", "thompson:2", "--suite", "cone", "--trials", "-3"])
    assert exc.value.code == 2
    assert "--trials" in capsys.readouterr().err


@pytest.mark.parametrize("flavor", [f.value for f in Flavor])
@pytest.mark.parametrize("drs", ["thompson:2", "houghton:3"])
def test_axioms_suite_flavor_matrix(capsys, drs, flavor):
    # every cell runs (exit 0, or 1 on a failed trial) or the suite refuses
    # the flavor with a message that names it; none ends in a traceback
    for suite in SUITE_NAMES:
        code, out, err = run(
            capsys, "axioms", "--drs", drs, "--flavor", flavor,
            "--suite", suite, "--trials", "2",
        )
        if code == 2:
            assert err.startswith(f"error: suite {suite}: "), (suite, err)
        else:
            assert code in (0, 1), (suite, code, err)
            assert out.startswith(f"suite={suite} trials=2 "), (suite, out)


@pytest.mark.parametrize("flavor", [f.value for f in ORDERABLE_FLAVORS])
def test_axioms_budget_zero_and_negative(capsys, flavor):
    # budget 0 draws base-word elements and runs (or refuses the flavor);
    # a negative budget is a usage error; neither ends in a traceback
    for suite in SUITE_NAMES:
        argv = ("axioms", "--drs", "thompson:2", "--flavor", flavor,
                "--suite", suite, "--trials", "3")
        code, out, err = run(capsys, *argv, "--budget", "0")
        if code == 2:
            assert err.startswith(f"error: suite {suite}: "), (suite, err)
        else:
            assert code == 0, (suite, code, err)
            assert out.startswith(f"suite={suite} trials=3 failures=0 "), out
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--budget", "-1"])
        assert exc.value.code == 2
        assert "--budget: must be at least 0" in capsys.readouterr().err


def test_drs_file_and_base_flag(tmp_path, capsys):
    path = tmp_path / "rays.drs"
    path.write_text(
        "alphabet: x y1 y2\nrule: y1 -> y1 x\nrule: y2 -> y2 x\nbase: y1 y2\n"
    )
    code, out, _ = run(
        capsys, "sign", "--drs", str(path), "frac T=[1] B=[1 -1] S=[1]"
    )
    assert code == 0 and out == "zero"
    code, out, _ = run(
        capsys,
        "sign",
        "--drs",
        str(path),
        "--base",
        "y2",
        "frac T=[1] B=[] S=[1]",
    )
    assert code == 0 and out == "zero"


def test_edge_shift_file(tmp_path, capsys):
    path = tmp_path / "graph.es"
    path.write_text("a: a b\nb: b a\nbase: a\n")
    code, out, _ = run(
        capsys, "sign", "--drs", f"edgeshift:{path}", "frac T=[1 1] B=[2] S=[1 1]"
    )
    assert code == 0 and out == "positive"


def test_missing_base_errors(tmp_path, capsys):
    path = tmp_path / "nobase.drs"
    path.write_text("alphabet: x\nrule: x -> x x\n")
    code, _, err = run(capsys, "sign", "--drs", str(path), "frac T=[] B=[] S=[]")
    assert code == 2 and "base" in err


def test_missing_file_errors(capsys):
    code, _, err = run(capsys, "sign", "--drs", "/nonexistent.drs", "frac T=[] B=[] S=[]")
    assert code == 2


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(section: str, fence: str) -> list[str]:
    """Lines of the first `fence` code block under the README heading
    `section`."""
    text = README.read_text(encoding="utf-8")
    body = text[text.index(f"\n## {section}\n"):]
    start = body.index(f"```{fence}\n") + len(fence) + 4
    return body[start:body.index("```", start)].splitlines()


def test_readme_command_examples(capsys):
    block = "\n".join(_readme_block("Command line", "sh"))
    lines = block.replace("\\\n", " ").splitlines()  # join continued lines
    examples = [
        (shlex.split(line)[1:], lines[i + 1].removeprefix("# "))
        for i, line in enumerate(lines)
        if line.startswith("braidfrac ")
    ]
    assert len(examples) == 5
    for argv, expected in examples:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        if argv[0] == "axioms":
            out, expected = out.split("time_ms=")[0], expected.split("time_ms=")[0]
        assert out == expected, argv


def test_readme_library_example(capsys):
    lines = _readme_block("Library overview", "python")
    expected = [line.split("# ")[1] for line in lines if line.startswith("print(")]
    exec("\n".join(lines), {})
    assert capsys.readouterr().out.splitlines() == expected
