"""Exception taxonomy shared across the toolkit.

The CLI maps these to process exit codes: UsageError -> 1,
DataError -> 2, NumericError -> 3; any other exception is an internal
error -> 4.
"""


class TrajdiffError(Exception):
    """Base class for all toolkit errors."""


class UsageError(TrajdiffError):
    """Bad flags, bad argument combinations, invalid configuration."""


class DataError(TrajdiffError):
    """Malformed or unreadable input files, schema violations."""


class NumericError(TrajdiffError):
    """Non-finite values or numerically infeasible requests."""
