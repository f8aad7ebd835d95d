"""Exception types shared across the package."""


class QncError(Exception):
    """Base class for all package errors."""


class SchemaError(QncError):
    """Raised when an input file or argument cannot be read or does not
    match the expected layout."""


class ValidationError(QncError):
    """Raised when an instance fails structural validation.

    Carries the full report so callers can show every violation at once.
    """

    def __init__(self, report):
        self.report = report
        super().__init__("; ".join(report.violations))


class SizeError(QncError):
    """Raised when an exhaustive computation would exceed its guard bound."""


class VerificationError(QncError):
    """Raised when a self-check of a derived law fails: when a node kernel
    is built or checked, for a compiled kernel that misses its target law
    or a shrink whose emission law would be negative."""
