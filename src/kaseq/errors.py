"""Exception hierarchy shared across the package.

The CLI maps these onto its exit-code contract: UsageError -> 1,
DataFormatError -> 2, NumericError -> 3; an OSError, a path that cannot
be read or written as given, is also exit 1.
"""


class KaseqError(Exception):
    """Base class for all package errors."""


class ShapeError(KaseqError):
    """Operands have incompatible or invalid shapes."""


class ContractError(KaseqError):
    """A documented precondition was violated by the caller."""


class ConfigError(KaseqError):
    """Invalid model or run configuration."""


class DataFormatError(KaseqError):
    """Malformed on-disk artifact (dataset file, checkpoint, config)."""


class UsageError(KaseqError):
    """Bad command-line invocation."""


class NumericError(KaseqError):
    """Non-finite value encountered where finiteness is required."""


class InfeasibleError(ContractError):
    """Assignment problem has no injective solution (fewer columns than rows)."""
