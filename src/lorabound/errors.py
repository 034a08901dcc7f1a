"""Exception types shared across the package.

Everything raised on purpose derives from LoraBoundError so the CLI can
map domain failures to a single exit code while genuine bugs still
surface as ordinary tracebacks.
"""

from __future__ import annotations


class LoraBoundError(Exception):
    """Base class for all errors this package raises deliberately."""


class ShapeError(LoraBoundError):
    """Operands have incompatible or malformed shapes."""


class InputError(LoraBoundError):
    """A value is out of range or otherwise unusable (bad token id, bad K, ...)."""


class ConfigError(LoraBoundError):
    """A config object or config file failed validation."""


class CompatibilityError(LoraBoundError):
    """Artifacts do not belong together (fingerprint or version mismatch)."""


class DegenerateInputError(LoraBoundError):
    """An operation received inputs that leave it nothing to do (e.g. fully masked loss)."""


class NoKneeError(LoraBoundError):
    """No qualifying jump in a probability curve; caller must fall back."""


class ParseError(LoraBoundError):
    """A serialized artifact is malformed; message names the failing offset or field."""
