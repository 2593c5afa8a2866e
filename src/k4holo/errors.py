"""Exception hierarchy for the engine.

Everything user-facing derives from EngineError so the CLI can map the
whole family onto exit codes without enumerating causes.
"""
from __future__ import annotations


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(EngineError):
    """Unsupported type/rank or invalid global configuration."""


class PreconditionError(EngineError):
    """An operation was called on input violating its stated precondition."""


class ValidationError(EngineError):
    """Constructed data failed a structural validity check."""


class InternalConsistencyError(EngineError):
    """A condition that must hold for any correct build failed; this is a bug."""


class UnmappedPatternError(EngineError):
    """A simple ideal has no entry in the real-form vocabulary."""


class VerificationError(EngineError):
    """A computed result disagrees with an embedded golden reference."""


class UsageError(EngineError):
    """Malformed command-line input."""
