"""Exception types shared across the package."""

from __future__ import annotations


class SdtPlanError(Exception):
    """Base class for all package errors."""


class ParseError(SdtPlanError):
    """A data file could not be parsed."""


class ValidationError(SdtPlanError):
    """Parsed data violates a structural invariant."""


class GrammarError(SdtPlanError):
    """Model output does not match the reply grammar; a reformat retry may help."""


class NoTripletsFound(GrammarError):
    """No well-formed triplet / pair structure found in the text."""


class BadAction(GrammarError):
    """An action name outside the closed action enumeration."""

    def __init__(self, name: str):
        super().__init__(f"unknown action name: {name!r}")
        self.name = name


class MalformedEntry(GrammarError):
    """A structurally broken entry inside an otherwise parsable list."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (entry {position})")
        self.position = position


class GoalParseError(GrammarError):
    """A GOAL line does not match the goal grammar."""


class BackendError(SdtPlanError):
    """The language-model backend failed (transport, timeout or HTTP status)."""


class PlanParseError(SdtPlanError):
    """Backend output could not be parsed into a plan after the retry budget."""


class OracleError(SdtPlanError):
    """The scripted oracle received a prompt whose layout it does not recognize."""


class NoCandidate(SdtPlanError):
    """An object reference has no candidate instance in the current state."""

    def __init__(self, ref: str):
        super().__init__(f"no candidate instance for reference {ref!r}")
        self.ref = ref
