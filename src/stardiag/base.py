"""Shared enums and exception types."""

from __future__ import annotations

import enum


class Model(str, enum.Enum):
    """Fault diagnosis model: node-tests-node (PMC) or comparison-based (MM*)."""

    PMC = "pmc"
    MM = "mm"

    @classmethod
    def parse(cls, text: "Model | str") -> "Model":
        """The member named by `text`, or `text` if a member; anything else raises DomainError."""
        if isinstance(text, cls):
            return text
        t = text.strip().lower().rstrip("*") if isinstance(text, str) else None
        if t in ("pmc",):
            return cls.PMC
        if t in ("mm", "mmstar", "mm_star"):
            return cls.MM
        raise DomainError(f"unknown model {text!r} (expected 'pmc' or 'mm')")


class StardiagError(Exception):
    """Base class for all library errors."""


class DomainError(StardiagError, ValueError):
    """Invalid argument: unknown vertex, out-of-range parameter or closed-form cell, bad set."""


class BudgetError(StardiagError):
    """An exhaustive search was refused because the graph exceeds its budget."""


class VerificationError(StardiagError):
    """A construction failed one of its mandatory self-checks."""
