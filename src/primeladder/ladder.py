"""The ladder-graph data model: 2xn labelings, adjacency, and verification.

The ladder of order 2n is the 2xn grid graph: cell (i, j) with row i in {1, 2}
and column j in {1..n} is adjacent to (i, j-1), (i, j+1) and (3-i, j). A prime
labeling assigns 1..2n bijectively to the cells so that every adjacent pair of
labels is coprime.

Every Labeling is such a bijection: a grid is checked once, where it is
built or read, and one that is not raises MalformedLabelingError there.
verify_labeling only reports the edges whose labels share a factor.

verify_labeling checks a grid of at least _RUN_COLUMNS columns without a
gcd per edge. gcd(a, b) = gcd(a, |a - b|), and no two labels of a Labeling
are equal, so d = |a - b| >= 1 and an edge shares a factor exactly when
some prime of d divides a; d = 1 has none. The constructions
lay out long runs of equal d (1 on nearly every horizontal edge, q, p or 2p
on the vertical ones), so one divisibility test per prime per run decides
them. Smaller grids, and an edge family of more than _MAX_RUNS runs such as
a random permutation's, are checked by np.gcd on every edge.

The CSV readers, parse_labeling_csv for a str and load_labeling_csv for a
file, are one reader over bytes, `_read`, with two paths. Canonical text,
as format_labeling_csv writes it, is converted array-wise by
textio.parse_int_rows. Any other text goes through the line reader, which
names the row and column of the first bad field and range-checks every
label. Either path hands Labeling its own int64 grid, so text read from a
str or a file never takes the label-by-label checks of the constructor.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd
from pathlib import Path

import numpy as np

from .numtheory import _is_integer, _prime_factors
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

    Raised where a grid is built or read: by Labeling, and so by the CSV
    readers and the constructions. Distinct from a well-formed labeling
    that merely fails the coprimality test: verify_labeling reports that
    case through Violation lists, never by an exception.
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
        if not _is_integer(v):
            raise MalformedLabelingError(f"labels must be integers, got {v!r}")
    try:
        return values.astype(np.int64)
    except OverflowError:
        raise MalformedLabelingError("a label does not fit in 64 bits") from None


def _frozen_grid(cells: np.ndarray) -> np.ndarray:
    """`cells`, made read-only, once it is a 2-row grid holding each of 1..2n once.

    O(n), no sort. The bounds are tested first, so a negative label cannot wrap around.
    """
    if cells.ndim != 2 or cells.shape[0] != 2 or cells.shape[1] < 1:
        raise MalformedLabelingError(
            f"expected a 2-row grid with at least one column, got shape {cells.shape}"
        )
    labels = cells.ravel()
    seen = np.zeros(labels.size + 1, dtype=bool)
    if labels.min() >= 1 and labels.max() <= labels.size:
        seen[labels] = True
    if not seen[1:].all():
        raise MalformedLabelingError(f"labels are not a bijection onto 1..{labels.size}")
    cells.flags.writeable = False
    return cells


class Labeling:
    """Immutable 2xn grid holding each of 1..2n once; building any other grid raises MalformedLabelingError.

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
        for v in (row, col):
            if not _is_integer(v):
                raise ValueError(f"positions must be integers, got {v!r}")
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


# The two ends of the edges in row j of verify_labeling's flag table, as
# (row, column) with the column counted from j: the vertical edge of column
# j + 1, then the top and the bottom edge to its right.
_EDGE_ENDS = (((1, 1), (2, 1)), ((1, 1), (1, 2)), ((2, 1), (2, 2)))

# The Python cost of verify_labeling's runs of equal difference, about 5 us
# for each run and prime, outweighs the Euclid loops of np.gcd that they
# save in a grid of fewer than _RUN_COLUMNS columns (the constructions break
# even near 1450) and in an edge family of more than _MAX_RUNS runs.
_RUN_COLUMNS = 1500
_MAX_RUNS = 64


def _share_a_factor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """gcd(a, b) > 1 for each pair of one edge family, a != b everywhere.

    One divisibility test per prime r of each run's d = |a - b|, as the
    module docstring argues; a run of one edge takes one Python gcd, and
    past _MAX_RUNS runs np.gcd decides. The test is a // r * r == a: NumPy
    floor-divides an int64 array by one integer about twice as fast as it
    takes the remainder.
    """
    d = a - b
    np.abs(d, out=d)
    cuts = d[1:] != d[:-1]
    if np.count_nonzero(cuts) >= _MAX_RUNS:
        return np.gcd(a, b) > 1
    shared = np.zeros(len(a), dtype=bool)
    bounds = [0, *(np.flatnonzero(cuts) + 1).tolist(), len(a)]
    for lo, hi in zip(bounds, bounds[1:]):
        if hi - lo == 1:
            shared[lo] = gcd(int(a[lo]), int(d[lo])) > 1
            continue
        run = a[lo:hi]
        for r in _prime_factors(int(d[lo])):
            shared[lo:hi] |= run // r * r == run
    return shared


def verify_labeling(labeling: Labeling) -> list[Violation]:
    """Every adjacent pair with a common factor, ordered by column.

    An empty result means the labeling is prime. Nothing is raised: a grid
    that is not a bijection onto 1..2n never becomes a Labeling.

    Row j of one bool (n, 3) flag table marks whether column j + 1's
    vertical edge and the top and bottom edges to its right share a factor
    (never in the last column, which has none), so reading its set flags
    row by row reports by column, the vertical edge first. A grid of fewer
    than _RUN_COLUMNS columns flags each edge family (vertical, top,
    bottom) by np.gcd. A larger one takes each family by runs of equal
    difference d = |a - b|: gcd(a, b) = gcd(a, d), and d >= 1 because the
    labels of a Labeling are distinct, so an edge shares a factor exactly
    when a prime of d divides a. That is exact for every grid; a family of
    more than _MAX_RUNS runs, such as a random permutation's, falls back to
    np.gcd. The common divisor is computed for the flagged edges only.
    """
    cells = labeling.cells
    n = labeling.n
    flagged = np.zeros((n, 3), dtype=bool)
    families = (cells[0], cells[1]), (cells[0, :-1], cells[0, 1:]), (cells[1, :-1], cells[1, 1:])
    for k, (a, b) in enumerate(families):
        flagged[:len(a), k] = _share_a_factor(a, b) if n >= _RUN_COLUMNS else np.gcd(a, b) > 1
    out = []
    for i in np.flatnonzero(flagged).tolist():
        j, k = divmod(i, 3)
        (ra, ca), (rb, cb) = ((r, j + c) for r, c in _EDGE_ENDS[k])
        a, b = int(cells[ra - 1, ca - 1]), int(cells[rb - 1, cb - 1])
        out.append(Violation((ra, ca), (rb, cb), a, b, gcd(a, b)))
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


def parse_labeling_csv(text: str) -> Labeling:
    """Parse the two-line CSV labeling format, with positional diagnostics.

    Canonical text, as format_labeling_csv writes it, is converted
    array-wise. Anything else goes through the line-by-line reader, which
    also accepts spaces around fields, CRLF line ends, trailing blank lines
    and signs, and names the row and column of the first bad field. Digits
    are ASCII only: 1_000 and non-ASCII digits are malformed. The text is
    read as its UTF-8 bytes by `_read`, the reader of load_labeling_csv, so
    a str holding a lone surrogate is malformed too.
    """
    return _read(text.encode("utf-8", "surrogatepass"))


def load_labeling_csv(path: str | Path) -> Labeling:
    """Read and parse a labeling file; MalformedLabelingError if it is not UTF-8.

    Its bytes take the two paths of parse_labeling_csv. str.splitlines
    treats CR, LF and CRLF alike, so reading without newline translation
    gives the same rows as a text-mode read.
    """
    return _read(Path(path).read_bytes())


def _read(data: bytes) -> Labeling:
    """The labeling `data` holds: canonical text by parse_int_rows, any other UTF-8 text by the line reader.

    The line reader checks the range of every label itself, so Labeling
    adopts the int64 grid it builds.
    """
    cells = parse_int_rows(data)
    if cells is not None and cells.shape[0] == 2:
        return Labeling._adopt(cells)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode, so its row and column are counted as
        # the line reader counts them; "?" stands in for it, so a line end just before it opens its row
        lines = (data[:exc.start].decode("utf-8") + "?").splitlines()
        raise MalformedLabelingError(
            f"row {len(lines)}, column {lines[-1].count(',') + 1}: "
            f"not UTF-8 text: byte {exc.start} is {data[exc.start:exc.start + 1]!r}"
        ) from None
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
    return Labeling._adopt(np.array(rows, dtype=np.int64))


def format_labeling_csv(labeling: Labeling) -> str:
    return format_int_rows(labeling.cells).decode("ascii")
