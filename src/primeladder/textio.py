"""Rows of non-negative integers as comma-separated text, converted array-wise.

The text form is one line per matrix row, fields separated by commas, every
line ending in a newline. The labeling CSV files and the witness CSV rows of
a range scan both use it. Formatting and parsing work on whole arrays of
digits in NumPy instead of one Python int per cell; the output is the same
text that ``",".join(str(v) for v in row)`` gives.
"""

from __future__ import annotations

import numpy as np

__all__ = ["format_int_rows", "parse_int_rows", "MAX_FIELD_DIGITS"]

_DIGIT0 = ord("0")
_COMMA = ord(",")
_NEWLINE = ord("\n")

# Every value of at most 18 decimal digits fits in an int64. A longer field
# must not reach np.fromstring, which saturates an oversized value to
# 2**63 - 1 without raising.
MAX_FIELD_DIGITS = 18


def format_int_rows(values: np.ndarray) -> str:
    """One newline-terminated line of comma-separated decimals per row.

    Digits are built one digit position at a time into a (cells, width + 1)
    byte matrix whose last column holds the separators; leading zeros are
    masked out when the matrix is flattened. Raises ValueError on a
    negative value.
    """
    values = np.asarray(values)
    if values.size == 0:
        return ""
    if values.min() < 0:
        raise ValueError("values must be non-negative")
    rows, cols = values.shape
    width = len(str(int(values.max())))
    rest = values.astype(np.int64).ravel()
    text = np.empty((rest.size, width + 1), dtype=np.uint8)
    keep = np.empty(text.shape, dtype=bool)
    keep[:, width - 1 :] = True  # units digit and separator
    for d in range(width - 1, -1, -1):
        if d < width - 1:
            np.greater(rest, 0, out=keep[:, d])
        np.divmod(rest, 10, out=(rest, text[:, d]), casting="unsafe")
    del rest
    text[:, :width] += _DIGIT0
    separators = text[:, width].reshape(rows, cols)
    separators[:] = _COMMA
    separators[:, -1] = _NEWLINE
    return str(text[keep].data, "ascii")


def parse_int_rows(data: bytes) -> np.ndarray | None:
    """The int64 matrix held by canonical text, or None for any other text.

    Canonical text is what `format_int_rows` writes (leading zeros aside):
    only ASCII digits, commas and newlines, a final newline, no empty field,
    at most MAX_FIELD_DIGITS digits per field and the same number of fields
    on every line. The caller handles every other input, so this reports no
    diagnostics.
    """
    if not data.endswith(b"\n") or data.translate(None, b"0123456789,\n"):
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(raw < _DIGIT0)  # every comma and newline
    widths = np.diff(ends)  # digits of each field after the first, plus one
    if not 1 <= ends[0] <= MAX_FIELD_DIGITS or (
        widths.size and not 2 <= widths.min() <= widths.max() <= MAX_FIELD_DIGITS + 1
    ):
        return None
    del widths
    line_ends = np.flatnonzero(raw[ends] == _NEWLINE)
    fields = np.diff(line_ends, prepend=-1)
    if (fields != fields[0]).any():
        return None
    # Validated above: exactly ends.size fields of 1 to 18 digits, each
    # followed by one comma once the newlines are replaced.
    values = np.fromstring(
        data.replace(b"\n", b","), dtype=np.int64, count=ends.size, sep=","
    )
    return values.reshape(line_ends.size, int(fields[0]))
