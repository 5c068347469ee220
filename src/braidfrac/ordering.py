"""Shared sign and comparison values, and the one refusal, for the various
orders in this package."""

from __future__ import annotations

import enum


class Sign(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    ZERO = "zero"

    def __neg__(self) -> "Sign":
        if self is Sign.POSITIVE:
            return Sign.NEGATIVE
        if self is Sign.NEGATIVE:
            return Sign.POSITIVE
        return Sign.ZERO

    def __str__(self) -> str:
        return self.value


class LimitExceeded(RuntimeError):
    """An order query stopped at one of its limits without deciding: the
    handle-reduction step budget (`braids.StepBudgetExceeded`) or the
    Magnus degree cap (`magnus.DegreeCapExceeded`)."""


class Comparison(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"

    def __str__(self) -> str:
        return self.value
