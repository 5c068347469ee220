"""Command-line front end.

Subcommands: ``sign``, ``compare``, ``mul``, ``inv``, ``normalize`` operate
on element expressions; ``realize`` prints the exact PL realization of a
plain element; ``axioms`` runs a randomized verification suite and exits
nonzero on any failure.

Exit codes: 0 on success, 1 when an ``axioms`` suite has failures, 2 on
bad input (input nested past the recursion limit included), and 3 when a
query is undecided within its limits (`LimitExceeded`): the Magnus degree
cap of the pure sign, or the step budget of handle reduction, which the
``axioms`` suites run as the oracle for the braided sign.  The braided
sign itself is read off the lamination and always terminates.

Element expressions combine atoms with ``*`` and ``inv(...)``.  Atoms are
fraction literals ``frac T=[steps] B=[braid word] S=[steps]`` or braided
Houghton generators: ``bh1(i; [steps])`` swaps the x and ray letter at
positions i, i+1 of the leaf word of the forest given by the step sequence
(append ``; under`` to flip the crossing); ``bh2(i; letters)`` braids the
block of equal letters starting at position i by the given braid word
(append ``; [steps]`` to choose the context forest, default the base word).

Rewriting systems are named ``thompson:<n>``, ``houghton:<n>``,
``edgeshift:<file>`` or given as a path to a DRS file.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .braids import BraidError, BraidWord
from .drs import (
    DigitRewritingSystem,
    DrsError,
    DrsParseError,
    forest_from_steps,
    forest_with_leaves,
    parse_drs,
    parse_steps,
)
from .families import bh_type1, bh_type2, family_drs, parse_edge_shift
from .fraction import (
    Flavor,
    FractionElement,
    FractionError,
    GroupContext,
    _FRAC_RE,
    format_element,
    parse_element,
)
from .harness import SUITE_NAMES, HarnessError, report_format, run_suite
from .magnus import DEFAULT_DEGREE_CAP
from .ordering import LimitExceeded
from .plmaps import realize_pair


class CliError(ValueError):
    pass


def load_drs(name: str) -> DigitRewritingSystem:
    """An edge shift read from ``edgeshift:<file>``, a DRS file, or else,
    for a name with a colon, a family (``thompson:<n>``, ``houghton:<n>``);
    a misspelled family is reported as one, not as a missing file, and a
    file that is not UTF-8 as a parse error; a leading byte-order mark is
    dropped."""
    try:
        if name.startswith("edgeshift:"):
            with open(name.split(":", 1)[1], encoding="utf-8-sig") as fh:
                return parse_edge_shift(fh.read())
        if ":" in name and not os.path.isfile(name):
            return family_drs(name)
        with open(name, encoding="utf-8-sig") as fh:
            return parse_drs(fh.read())
    except UnicodeDecodeError as exc:
        raise DrsParseError(f"{name}: {exc}") from None


def build_context(args: argparse.Namespace) -> GroupContext:
    drs = load_drs(args.drs)
    if args.base is not None:
        base = tuple(args.base.split())
    elif drs.base:
        base = drs.base
    else:
        raise CliError(
            "the rewriting system declares no base word; pass --base"
        )
    return GroupContext(drs, base, Flavor(args.flavor))


# --- expression parsing -------------------------------------------------------

_STEPS_AT = re.compile(r"\[([^\]]*)\]")


class _Parser:
    def __init__(self, context: GroupContext, text: str):
        self.context = context
        self.text = text
        self.pos = 0

    def error(self, message: str, at: int | None = None) -> CliError:
        """A usage error at offset `at` of the text, by default the current
        position."""
        return CliError(
            f"at column {(self.pos if at is None else at) + 1}: {message}"
        )

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def literal(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str) -> None:
        if not self.literal(token):
            raise self.error(f"expected {token!r}")

    def parse(self) -> FractionElement:
        e = self.parse_expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing input")
        return e

    def parse_expr(self) -> FractionElement:
        e = self.parse_atom()
        while self.literal("*"):
            e = e * self.parse_atom()
        return e

    def parse_atom(self) -> FractionElement:
        self.skip_ws()
        if self.literal("inv("):
            e = self.parse_expr()
            self.expect(")")
            return e.invert()
        if self.text.startswith("frac", self.pos):
            m = _FRAC_RE.match(self.text, self.pos)
            if m is None:
                raise self.error("malformed fraction literal")
            self.pos = m.end()
            return parse_element(self.context, m.group(0))
        if self.literal("bh1("):
            return self.parse_bh1()
        if self.literal("bh2("):
            return self.parse_bh2()
        raise self.error("expected an atom (frac literal, bh1, bh2 or inv)")

    def _call_fields(self) -> list[tuple[int, str]]:
        """The `;`-separated fields up to the closing parenthesis, stripped,
        each with the offset where its text starts."""
        end = self.text.find(")", self.pos)
        if end < 0:
            raise self.error("unterminated generator call")
        fields = []
        start = self.pos
        for raw in self.text[self.pos : end].split(";"):
            text = raw.lstrip()
            fields.append((start + len(raw) - len(text), text.rstrip()))
            start += len(raw) + 1
        self.pos = end + 1
        return fields

    def _int_field(self, at: int, field: str, what: str) -> int:
        try:
            return int(field)
        except ValueError:
            raise self.error(
                f"expected an integer {what}, got {field!r}", at
            ) from None

    def _forest_field(self, at: int, field: str):
        m = _STEPS_AT.fullmatch(field)
        if m is None:
            raise self.error(f"expected a step list, got {field!r}", at)
        return forest_from_steps(
            self.context.drs, self.context.base, parse_steps(m.group(1))
        )

    def parse_bh1(self) -> FractionElement:
        fields = self._call_fields()
        if not 2 <= len(fields) <= 3:
            raise self.error("bh1 takes (i; [steps]) or (i; [steps]; under)")
        i = self._int_field(*fields[0], "position")
        t = self._forest_field(*fields[1])
        x_over = True
        if len(fields) == 3:
            at, mode = fields[2]
            if mode not in ("over", "under"):
                raise self.error("third bh1 field must be 'over' or 'under'", at)
            x_over = mode == "over"
        g = bh_type1(t.leaves(), i, x_over)
        s = forest_with_leaves(self.context.drs, self.context.base, g.bottom)
        if s is None:
            raise self.error(
                f"the swapped word {' '.join(g.bottom)} is not an expansion "
                "of the base"
            )
        return FractionElement(self.context, t, g, s)

    def parse_bh2(self) -> FractionElement:
        fields = self._call_fields()
        if not 2 <= len(fields) <= 3:
            raise self.error("bh2 takes (i; braid word) or (i; braid word; [steps])")
        i = self._int_field(*fields[0], "position")
        at, word = fields[1]
        letters = tuple(
            self._int_field(at, x, "braid letter")
            for x in word.replace(",", " ").split()
        )
        strands = max((abs(d) for d in letters), default=0) + 1
        if len(fields) == 3:
            t = self._forest_field(*fields[2])
        else:
            t = forest_from_steps(self.context.drs, self.context.base, [])
        g = bh_type2(t.leaves(), i, BraidWord(strands, letters))
        return FractionElement(self.context, t, g, t)


def parse_expression(context: GroupContext, text: str) -> FractionElement:
    return _Parser(context, text).parse()


# --- subcommands ---------------------------------------------------------------

def _cmd_sign(args, context: GroupContext) -> int:
    e = parse_expression(context, args.expr)
    print(e.sign(degree_cap=args.degree_cap))
    return 0


def _cmd_compare(args, context: GroupContext) -> int:
    e1 = parse_expression(context, args.expr1)
    e2 = parse_expression(context, args.expr2)
    print(e1.compare(e2, degree_cap=args.degree_cap))
    return 0


def _cmd_mul(args, context: GroupContext) -> int:
    e = parse_expression(context, args.exprs[0])
    for text in args.exprs[1:]:
        e = e * parse_expression(context, text)
    print(format_element(e))
    return 0


def _cmd_inv(args, context: GroupContext) -> int:
    print(format_element(parse_expression(context, args.expr).invert()))
    return 0


def _cmd_normalize(args, context: GroupContext) -> int:
    print(format_element(parse_expression(context, args.expr).normalize()))
    return 0


def _cmd_realize(args, context: GroupContext) -> int:
    if context.flavor is not Flavor.PLAIN:
        raise CliError("realize requires --flavor plain")
    e = parse_expression(context, args.expr)
    print(realize_pair(e.T, e.S).format_text())
    return 0


def _cmd_axioms(args, context: GroupContext) -> int:
    report = run_suite(
        args.suite,
        context,
        args.trials,
        args.seed,
        budget=args.budget,
        max_braid_letters=args.max_braid_letters,
        degree_cap=args.degree_cap,
    )
    print(report_format(report))
    return 0 if report.passed else 1


def _int_at_least(low: int):
    """argparse type: an integer no smaller than `low`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}"
            ) from None
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}"
            )
        return value

    return parse


def _add_command(sub, name: str, summary: str, func, *positionals: str):
    """Register the subcommand `name`, handled by `func`, with the options
    every subcommand takes and the given positionals; returns its parser."""
    parser = sub.add_parser(name, help=summary)
    parser.add_argument("--drs", required=True, help="family name or DRS file")
    parser.add_argument(
        "--flavor",
        default="braided",
        choices=[f.value for f in Flavor],
    )
    parser.add_argument("--base", help="base word (space-separated letters)")
    for positional in positionals:
        parser.add_argument(positional)
    parser.set_defaults(func=func)
    return parser


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidfrac",
        description="groups of braided fractions of digit rewriting systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sign_p = _add_command(sub, "sign", "sign of an element", _cmd_sign, "expr")
    compare_p = _add_command(
        sub, "compare", "compare two elements", _cmd_compare, "expr1", "expr2"
    )
    p = _add_command(sub, "mul", "multiply elements", _cmd_mul)
    p.add_argument("exprs", nargs="+")
    _add_command(sub, "inv", "invert an element", _cmd_inv, "expr")
    _add_command(
        sub,
        "normalize",
        "cancel the carets the braid carries as one cable",
        _cmd_normalize,
        "expr",
    )
    _add_command(
        sub, "realize", "PL realization of a plain element", _cmd_realize, "expr"
    )
    p = _add_command(sub, "axioms", "run a verification suite", _cmd_axioms)
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--trials", type=_int_at_least(1), default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=_int_at_least(0), default=6)
    p.add_argument("--max-braid-letters", type=_int_at_least(0), default=12)
    # only the subcommands that sign read the cap
    for s in (sign_p, compare_p, p):
        s.add_argument("--degree-cap", type=_int_at_least(1), default=DEFAULT_DEGREE_CAP)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.func(args, build_context(args))
    except (CliError, DrsError, BraidError, FractionError, HarnessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LimitExceeded as exc:
        print(f"undecided within limits: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        limit = sys.getrecursionlimit()
        print(f"error: input nested past the recursion limit ({limit})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
