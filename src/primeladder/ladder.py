"""The ladder-graph data model: 2xn labelings, adjacency, and verification.

The ladder of order 2n is the 2xn grid graph: cell (i, j) with row i in {1, 2}
and column j in {1..n} is adjacent to (i, j-1), (i, j+1) and (3-i, j). A prime
labeling assigns 1..2n bijectively to the cells so that every adjacent pair of
labels is coprime.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .textio import format_int_rows, parse_int_rows

__all__ = [
    "MalformedLabelingError",
    "Labeling",
    "Violation",
    "verify_labeling",
    "parse_labeling_csv",
    "format_labeling_csv",
    "load_labeling_csv",
]


class MalformedLabelingError(ValueError):
    """Input is not a 2xn grid bijectively labeled with 1..2n.

    Distinct from a well-formed labeling that merely fails the coprimality
    test: that case is reported through Violation lists, not exceptions.
    """


def _integer_cells(rows) -> np.ndarray:
    """`rows` as a new int64 array; bool, float and other non-integer labels are malformed.

    An integer array is converted without a look at its cells. Any other
    input is checked label by label, because NumPy would turn True into 1
    and 1.7 into 1. A grid that is not two-dimensional is returned as it is,
    for the caller's shape check.
    """
    if isinstance(rows, np.ndarray) and rows.dtype.kind in "iu":
        return rows.astype(np.int64)
    values = np.array(rows, dtype=object)
    if values.ndim != 2:
        return values
    for v in values.flat:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise MalformedLabelingError(f"labels must be integers, got {v!r}")
    try:
        return values.astype(np.int64)
    except OverflowError:
        raise MalformedLabelingError("a label does not fit in 64 bits") from None


def _frozen_grid(cells: np.ndarray) -> np.ndarray:
    """`cells`, made read-only, once it is a 2-row grid of positive labels."""
    if cells.ndim != 2 or cells.shape[0] != 2 or cells.shape[1] < 1:
        raise MalformedLabelingError(
            f"expected a 2-row grid with at least one column, got shape {cells.shape}"
        )
    if (cells < 1).any():
        raise MalformedLabelingError("labels must be positive integers")
    cells.flags.writeable = False
    return cells


class Labeling:
    """Immutable 2xn grid of positive integer labels.

    Rows are 1-indexed {1, 2} and columns 1-indexed {1..n} so that closed-form
    label assignments transcribe without off-by-one shifts. The underlying
    array is read-only; operations that change labels return new values.
    Labels must be integers: bool, float and other values are malformed,
    never truncated.
    """

    __slots__ = ("_cells",)

    def __init__(self, rows) -> None:
        self._cells = _frozen_grid(_integer_cells(rows))

    @classmethod
    def _adopt(cls, cells: np.ndarray) -> Labeling:
        """A labeling that takes over `cells`, a new integer array no one else holds.

        The checks are those of the constructor, but an int64 array is kept
        instead of copied. The parser and the constructions wrap the grids
        they build this way; a caller's array goes through the constructor,
        which copies it.
        """
        labeling = cls.__new__(cls)
        labeling._cells = _frozen_grid(cells.astype(np.int64, copy=False))
        return labeling

    @property
    def n(self) -> int:
        """Number of columns."""
        return self._cells.shape[1]

    @property
    def cells(self) -> np.ndarray:
        """Read-only (2, n) array; array row 0 is grid row 1."""
        return self._cells

    def label_at(self, row: int, col: int) -> int:
        if not (1 <= row <= 2 and 1 <= col <= self.n):
            raise ValueError(f"position ({row}, {col}) outside 2x{self.n} grid")
        return int(self._cells[row - 1, col - 1])

    def to_rows(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return tuple(tuple(row) for row in self._cells.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Labeling):
            return NotImplemented
        return self._cells.shape == other._cells.shape and bool(
            np.array_equal(self._cells, other._cells)
        )

    def __hash__(self) -> int:
        return hash(self._cells.tobytes())

    def __repr__(self) -> str:
        if self.n <= 12:
            return f"Labeling({self.to_rows()!r})"
        return f"<Labeling n={self.n}>"


@dataclass(frozen=True)
class Violation:
    """An adjacent pair of labels sharing a factor > 1."""

    position_a: tuple[int, int]
    position_b: tuple[int, int]
    label_a: int
    label_b: int
    common_divisor: int


def _check_bijection(labeling: Labeling) -> None:
    # 2n labels, all >= 1 (Labeling checks that), are 1..2n exactly when
    # none is above 2n and every label of 1..2n occurs: O(n), no sort.
    n = labeling.n
    labels = labeling.cells.ravel()
    seen = np.zeros(2 * n + 1, dtype=bool)
    if labels.max() <= 2 * n:
        seen[labels] = True
    if not seen[1:].all():
        raise MalformedLabelingError(
            f"labels are not a bijection onto 1..{2 * n}"
        )


# The two ends of the edges in row j of verify_labeling's gcd table, as
# (row, column) with the column counted from j: the vertical edge of column
# j + 1, then the top and the bottom edge to its right.
_EDGE_ENDS = (((1, 1), (2, 1)), ((1, 1), (1, 2)), ((2, 1), (2, 2)))


def verify_labeling(labeling: Labeling) -> list[Violation]:
    """Every adjacent pair with a common factor, ordered by column.

    An empty result means the labeling is prime. Row j of one (n, 3) gcd
    table holds the gcds of column j + 1's vertical edge and of the top and
    bottom edges to its right (1 in the last column, which has none), so
    reading its entries above 1 row by row reports by column, the vertical
    edge first. Raises MalformedLabelingError when the grid is not a
    bijection onto 1..2n, which is a different failure than a non-prime
    labeling.
    """
    _check_bijection(labeling)
    cells = labeling.cells
    table = np.ones((labeling.n, 3), dtype=np.int64)
    np.gcd(cells[0], cells[1], out=table[:, 0])
    np.gcd(cells[:, :-1], cells[:, 1:], out=table[:-1, 1:].T)
    out = []
    for i in np.flatnonzero(table > 1).tolist():
        j, k = divmod(i, 3)
        (ra, ca), (rb, cb) = ((r, j + c) for r, c in _EDGE_ENDS[k])
        out.append(Violation((ra, ca), (rb, cb), int(cells[ra - 1, ca - 1]),
                             int(cells[rb - 1, cb - 1]), int(table[j, k])))
    return out


# ---------------------------------------------------------------------------
# CSV file format: exactly two lines, row i as comma-separated labels, no
# header. Used by the CLI construct/verify commands.
# ---------------------------------------------------------------------------

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def integer(text: str) -> int:
    """The integer `text` spells once stripped: ASCII digits after an optional sign.

    int() alone would also take digit separators (1_000) and non-ASCII
    digits; anything but this form raises ValueError. The line reader's
    fields and the CLI's integer options are read by this one rule.
    """
    if not re.fullmatch(r"[+-]?[0-9]+", text.strip()):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def _parse_canonical(data: bytes) -> Labeling | None:
    cells = parse_int_rows(data)
    if cells is None or cells.shape[0] != 2:
        return None
    return Labeling._adopt(cells)


def parse_labeling_csv(text: str) -> Labeling:
    """Parse the two-line CSV labeling format, with positional diagnostics.

    Canonical text, as format_labeling_csv writes it, is converted
    array-wise. Anything else goes through the line-by-line reader, which
    also accepts spaces around fields, CRLF line ends, trailing blank lines
    and signs, and names the row and column of the first bad field. Digits
    are ASCII only: 1_000 and non-ASCII digits are malformed.
    """
    if text.isascii():
        labeling = _parse_canonical(text.encode("ascii"))
        if labeling is not None:
            return labeling
    return _parse_lines(text)


def _parse_lines(text: str) -> Labeling:
    lines = text.splitlines()
    while lines and lines[-1].strip() == "":
        lines.pop()
    if len(lines) != 2:
        raise MalformedLabelingError(
            f"expected exactly 2 rows, got {len(lines)}"
        )
    rows = []
    for lineno, line in enumerate(lines, start=1):
        row = []
        for colno, field in enumerate(line.split(","), start=1):
            field = field.strip()
            try:
                value = integer(field)
            except ValueError as exc:
                raise MalformedLabelingError(f"row {lineno}, column {colno}: {exc}") from None
            if not _INT64_MIN <= value <= _INT64_MAX:
                raise MalformedLabelingError(
                    f"row {lineno}, column {colno}: {field!r} does not fit in 64 bits"
                )
            row.append(value)
        rows.append(row)
    if len(rows[0]) != len(rows[1]):
        raise MalformedLabelingError(
            f"row lengths differ: {len(rows[0])} vs {len(rows[1])}"
        )
    return Labeling(rows)


def format_labeling_csv(labeling: Labeling) -> str:
    return format_int_rows(labeling.cells).decode("ascii")


def load_labeling_csv(path: str | Path) -> Labeling:
    """Read and parse a labeling file; MalformedLabelingError if it is not UTF-8.

    str.splitlines treats CR, LF and CRLF alike, so reading without newline
    translation gives the same rows as a text-mode read.
    """
    data = Path(path).read_bytes()
    labeling = _parse_canonical(data)
    if labeling is not None:
        return labeling
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedLabelingError(
            f"not UTF-8 text: byte {exc.start} is {data[exc.start:exc.start + 1]!r}"
        ) from None
    return _parse_lines(text)
