"""Exception types shared across the package."""


class GramDistError(Exception):
    """Base class for every error this package raises deliberately."""


class ShapeError(GramDistError):
    """An array has the wrong number of dimensions or an unusable shape."""


class DimensionMismatch(ShapeError):
    """Two operands have incompatible dimensions."""


class RankDeficient(GramDistError):
    """The operation requires full column rank and the input does not have it.

    The rank rule raises it, and so does the Cholesky solve of the normal
    equations when a pivot of the Gram matrix falls to or below its
    tolerance.
    """


class ZeroVariance(GramDistError):
    """The centered target vector is numerically zero."""


class CsvError(GramDistError):
    """Base class for CSV ingestion failures."""


class ParseError(CsvError):
    """A cell could not be parsed as a number in the requested mode."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class RaggedRows(CsvError):
    """A data row has a different cell count than the header."""

    def __init__(self, line: int, expected: int, got: int):
        super().__init__(f"line {line}: expected {expected} cells, got {got}")
        self.line = line
        self.expected = expected
        self.got = got


class EmptyFile(CsvError):
    """The input file has no header line."""
