"""The two refusal kinds.

The CLI maps ValidationError to exit code 1 (bad inputs, refused
configurations, malformed datasets) and NumericGuardError to exit code 2
(computations that would overflow or that detect an inconsistent
numerical model).  The message says which input or guard refused.
"""


class ValidationError(Exception):
    """Invalid inputs or configurations detected before/while computing."""


class NumericGuardError(Exception):
    """Computation refused or aborted by a numerical safety guard."""
