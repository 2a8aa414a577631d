"""Exception types shared across the package: one per failure source, or per
retry decision that a caller takes on it."""

from __future__ import annotations


class SdtPlanError(Exception):
    """Base class for all package errors."""


class ValidationError(SdtPlanError):
    """An input file or spec (scene, knowledge base, perturbation) is malformed
    or breaks a structural invariant."""


class GrammarError(SdtPlanError):
    """Model output does not match the reply grammar; a reformat retry may help."""


class PlanParseError(SdtPlanError):
    """Backend output could not be parsed after the retry budget."""


class BackendError(SdtPlanError):
    """The language-model backend failed: transport, timeout, HTTP status, or
    a prompt the scripted oracle does not recognize."""
