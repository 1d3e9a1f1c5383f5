"""Exception types shared across the package, and how their messages
quote a value that came from outside."""

from __future__ import annotations

import math

__all__ = [
    "CornersError",
    "EmptyPathError",
    "IllegalCharacterError",
    "ShapeFillingMismatchError",
    "InvalidTableauError",
    "BudgetExceededError",
    "DomainError",
    "IndexOutOfRangeError",
    "NotATreeLikeShapeError",
    "NotSymmetricError",
    "BijectionError",
]


def _excerpt(value: object) -> str:
    """``repr(value)``, cut to its first 40 characters and ``...`` when
    longer: a record may carry a value of any size, and a message quotes
    only its start.

    An ``int`` of more than 200 bits (over 60 digits) is quoted from its
    leading digits alone, without converting it to decimal in full: with
    ``b`` bits it has at least ``floor(b log10 2)`` digits, and dropping
    all but the last 41 of those leaves more than 40 to cut.
    """
    if type(value) is int and value.bit_length() > 200:
        dropped = math.floor(value.bit_length() * math.log10(2)) - 41  # at least 19
        leading = str(abs(value) // 10**dropped)
        return ("-" + leading if value < 0 else leading)[:40] + "..."
    shown = repr(value)
    return shown if len(shown) <= 40 else shown[:40] + "..."


class CornersError(Exception):
    """Base class for all package-specific errors."""


class EmptyPathError(CornersError, ValueError):
    """A border path must contain at least one step."""


class IllegalCharacterError(CornersError, ValueError):
    """A border path may only contain the characters 'S' and 'W'."""

    def __init__(self, text: str, position: int) -> None:
        self.position = position
        super().__init__(
            f"illegal step {text[position]!r} at position {position + 1} in {_excerpt(text)}"
        )


class ShapeFillingMismatchError(CornersError, ValueError):
    """A filling does not cover exactly the cells of its shape."""


class InvalidTableauError(CornersError, ValueError):
    """An operation received a tableau that violates its family rules."""


class BudgetExceededError(CornersError, ValueError):
    """Enumeration or chain work was requested beyond its configured budget.

    ``what`` names the request in the message; it defaults to the
    enumeration of ``family`` at size ``n``.
    """

    def __init__(self, n: int, family: object, budget: int, what: str | None = None) -> None:
        self.n = n
        self.family = family
        self.budget = budget
        what = what or f"enumeration of {family} at size {_excerpt(n)}"
        super().__init__(f"{what} exceeds the budget of {budget}")


class DomainError(CornersError, ValueError):
    """A closed-form formula was evaluated outside its stated domain."""


class IndexOutOfRangeError(CornersError, ValueError):
    """A border-path position is outside the admissible range."""


class NotATreeLikeShapeError(CornersError, ValueError):
    """The path does not start with a South step and end with a West step."""


class NotSymmetricError(CornersError, ValueError):
    """The tableau is not invariant under transposition."""


class BijectionError(CornersError, ValueError):
    """A bijection encountered inconsistent input; carries a witness."""

    def __init__(self, message: str, witness: object = None) -> None:
        self.witness = witness
        super().__init__(message)
