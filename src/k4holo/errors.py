"""Exception hierarchy for the engine.

Everything user-facing derives from EngineError so the CLI can map the
whole family onto exit codes without enumerating causes: a VerificationError
exits 1, a UsageError exits 2 after "usage error:", and a PreconditionError
exits 2 after "error:".
"""
from __future__ import annotations


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class PreconditionError(EngineError):
    """An operation was called on input violating its stated precondition,
    such as an unsupported type or rank, bad character or group data, or an
    ideal with no real-form vocabulary."""


class VerificationError(EngineError):
    """A computed result disagrees with its golden reference or a second derivation."""


class UsageError(EngineError):
    """Malformed command-line input."""
