"""CSV ingestion: a header line plus uniform-width numeric rows.

Cells use "." as the decimal point and "," as the separator.  In complex
mode a cell may be "a", "bi", "a+bi" or "a-bi" with no whitespace inside the
literal; scientific notation is allowed in each component.

Real files are read by numpy's C tokenizer when that gives a full table of
finite values; anything else goes through the per-cell parser, which defines
the grammar and reports the line and column of the first bad cell.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyFile, ParseError, RaggedRows, ShapeError
from .linalg import _frozen

_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_REAL_RE = re.compile(rf"^[+-]?{_NUM}$")
_IMAG_RE = re.compile(rf"^([+-]?{_NUM})i$")
_FULL_RE = re.compile(rf"^([+-]?{_NUM})([+-]{_NUM})i$")


@dataclass(frozen=True)
class CsvTable:
    """A parsed CSV file: the header labels and one read-only array of cells.

    ``data`` has one row per data line and one column per header label; it is
    float64 in real mode and complex128 in complex mode.
    """

    header: tuple[str, ...]
    data: np.ndarray

    @property
    def width(self) -> int:
        return len(self.header)

    @property
    def rows(self) -> tuple[tuple, ...]:
        """The data rows as tuples of Python floats or complexes."""
        return tuple(map(tuple, self.data.tolist()))

    def matrix(self) -> np.ndarray:
        """The data rows as a read-only float64 (real mode) or complex128 array."""
        if not len(self.data):
            raise ShapeError("no data rows")
        return self.data

    def column(self, label: str) -> np.ndarray:
        if label not in self.header:
            raise ValueError(f"no column named {label!r}")
        return self.matrix()[:, self.header.index(label)]


def _parse_real(cell: str, line: int, column: int) -> float:
    s = cell.strip()
    if not _REAL_RE.match(s):
        raise ParseError(f"cannot parse {cell!r} as a real number", line, column)
    v = float(s)
    if not math.isfinite(v):
        raise ParseError(f"{cell!r} does not fit a double", line, column)
    return v


def _parse_complex(cell: str, line: int, column: int) -> complex:
    s = cell.strip()
    m = _FULL_RE.match(s)
    if m:
        re_part, im_part = float(m.group(1)), float(m.group(2))
    else:
        m = _IMAG_RE.match(s)
        if m:
            re_part, im_part = 0.0, float(m.group(1))
        elif _REAL_RE.match(s):
            re_part, im_part = float(s), 0.0
        else:
            raise ParseError(f"cannot parse {cell!r} as a complex number", line, column)
    if not (math.isfinite(re_part) and math.isfinite(im_part)):
        raise ParseError(f"{cell!r} does not fit a double", line, column)
    return complex(re_part, im_part)


def _parse_cells(lines: list[str], width: int, mode: str) -> np.ndarray:
    """The data lines below the header, parsed cell by cell.

    This is the definition of the cell grammar and of the error positions;
    the real-mode fast path in :func:`parse_csv` only ever returns what this
    returns.
    """
    parse_cell = _parse_complex if mode == "complex" else _parse_real
    rows = []
    for lineno, raw in enumerate(lines[1:], start=2):
        cells = raw.split(",")
        if len(cells) != width:
            raise RaggedRows(lineno, width, len(cells))
        rows.append([parse_cell(c, lineno, j + 1) for j, c in enumerate(cells)])
    dtype = np.complex128 if mode == "complex" else np.float64
    return np.array(rows, dtype).reshape(len(rows), width)


def _parse_real_fast(lines: list[str], width: int) -> np.ndarray | None:
    """The real data lines through numpy's C tokenizer, or None.

    ``loadtxt`` converts each cell with the routine ``float()`` uses, so the
    values it returns are the reference's bit for bit.  It accepts no finite
    cell that the grammar rejects; it does accept ``nan``, ``inf`` and
    overflowing literals, and it skips blank lines.  So a result is kept only
    when it has one row of ``width`` finite values per data line.  None means
    that :func:`_parse_cells` must decide, and locate any error.
    """
    if len(lines) < 2:
        return None
    with warnings.catch_warnings():
        # A body of blank lines gives "input contained no data"; the shape
        # check below rejects that result.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            data = np.loadtxt(
                lines[1:], dtype=np.float64, delimiter=",", comments=None, ndmin=2
            )
        except ValueError:
            return None
    if data.shape != (len(lines) - 1, width) or not np.isfinite(data).all():
        return None
    return data


def parse_csv(path, mode: str = "real") -> CsvTable:
    """Read a CSV file; the first line is the header.

    Raises :class:`EmptyFile` when there is no header line,
    :class:`RaggedRows` when a row's width differs from the header's, and
    :class:`ParseError` (with 1-based line and column) for a bad cell.
    """
    if mode not in ("real", "complex"):
        raise ValueError(f"mode must be 'real' or 'complex', got {mode!r}")
    # utf-8-sig drops a leading byte-order mark, which would otherwise stay
    # in the first header label
    text = Path(path).read_text(encoding="utf-8-sig")
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise EmptyFile(f"{path}: no header line")
    header = tuple(cell.strip() for cell in lines[0].split(","))
    width = len(header)
    data = _parse_real_fast(lines, width) if mode == "real" else None
    if data is None:
        data = _parse_cells(lines, width, mode)
    return CsvTable(header=header, data=_frozen(data))
