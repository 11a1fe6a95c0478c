"""Exception taxonomy.

The CLI maps ValidationError to exit code 1 (bad inputs, refused
configurations) and NumericGuardError to exit code 2 (computations that
would overflow or that detect an inconsistent numerical model).
"""


class WignerscopeError(Exception):
    """Base class for all package errors."""


class ValidationError(WignerscopeError):
    """Invalid inputs or configurations detected before/while computing."""


class NumericGuardError(WignerscopeError):
    """Computation refused or aborted by a numerical safety guard."""


class UnsupportedOrderError(ValidationError):
    """Special-function order beyond the stability budget."""


class TruncationError(ValidationError):
    """Fock truncation too small for the requested tail mass."""


class DatasetFormatError(ValidationError):
    """Malformed dataset file; carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class ConfigurationError(ValidationError):
    """Mutually inconsistent objects (e.g. dataset eta vs kernel eta)."""


class BandwidthError(ValidationError):
    """Bandwidth rule not applicable (typically n too small)."""


class BandwidthTooSmallError(NumericGuardError):
    """Kernel would overflow: exp(gamma/h^2) beyond the hard exponent cap."""


class TableStepError(ValidationError):
    """Kernel table step fails the interpolation accuracy contract."""


class ForwardModelError(NumericGuardError):
    """Forward model produced an impossible value (broken density matrix)."""
