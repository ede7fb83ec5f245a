"""Exception types shared across the package.

The CLI maps one class onto each exit code: ConfigurationError -> 1,
DataError (with its subclasses ParseError and CheckpointError) -> 2,
NumericalError -> 3. Everything else is a plain bug.
"""


class SpanTripletError(Exception):
    """Base class for all package errors."""


class DimensionError(SpanTripletError, ValueError):
    """Tensor shapes are incompatible with the requested operation."""


class TrainingStateError(SpanTripletError, RuntimeError):
    """Training machinery used out of order (e.g. step without gradients)."""


class ConfigurationError(SpanTripletError, ValueError):
    """Invalid command-line arguments, config file or settings."""


class DataError(SpanTripletError, ValueError):
    """Corpus or input files are malformed or inconsistent."""


class ParseError(DataError):
    """A corpus or embedding line failed to parse.

    Carries 1-based ``line`` and ``column`` positions. The one file reader,
    ``data._parse_file``, puts the path in front of the message with ``in_file``.
    """

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column

    def in_file(self, path: str) -> "ParseError":
        """This error, its message now reading ``<path>: line L, column C: ...``."""
        self.args = (f"{path}: {self.args[0]}",)
        return self


class CheckpointError(DataError):
    """A checkpoint file is missing, mislabeled, or shape-incompatible."""


class NumericalError(SpanTripletError, RuntimeError):
    """Training hit a non-finite loss or gradient. Diagnostics are in ``snapshot``."""

    def __init__(self, message: str, snapshot: dict | None = None):
        super().__init__(message)
        self.snapshot = snapshot or {}
