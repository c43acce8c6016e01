"""Rows of non-negative integers as comma-separated text, converted array-wise.

The text form is one line per matrix row, fields separated by commas, every
line ending in a newline. The labeling CSV files and the witness CSV rows of
a range scan both use it. Formatting and parsing work on whole arrays of
digits in NumPy instead of one Python int per cell; the output is the same
text that ``",".join(str(v) for v in row)`` gives.

Formatting writes each digit position of every cell as one contiguous row
of bytes, with NUL in place of a leading zero, then transposes the rows to
text order and drops the NULs with ``bytes.translate``.
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

    The values are copied to uint32 (uint64 once the maximum reaches
    2**32), and each digit position, units first, takes one floor_divide by
    10 and a multiply-subtract over the whole copy. Digit position d of every
    cell goes into row d of a (width + 1, cells) byte matrix whose last row
    holds the separators. A leading zero is written as NUL: the byte is
    digit + 48 * (value left > 0), except in the units row, so 0 is written
    as "0". The matrix is transposed to one cell after another and the NULs
    are dropped with bytes.translate. Raises ValueError on a negative value;
    the input array is never modified.
    """
    values = np.asarray(values)
    if values.size == 0:
        return ""
    if values.min() < 0:
        raise ValueError("values must be non-negative")
    rows, cols = values.shape
    top = int(values.max())
    width = len(str(top))
    rest = values.astype(np.uint32 if top < 2**32 else np.uint64, order="C").ravel()
    quot = np.empty_like(rest)
    digit = np.empty(rest.size, dtype=np.uint8)
    text = np.empty((width + 1, rest.size), dtype=np.uint8)
    text[width - 1] = _DIGIT0  # units digit: always written
    for d in range(width - 1, -1, -1):
        if d < width - 1:
            np.greater(rest, 0, out=text[d].view(bool))
            text[d] *= _DIGIT0
        np.floor_divide(rest, 10, out=quot)
        np.subtract(rest, quot * 10, out=rest)
        np.copyto(digit, rest, casting="unsafe")
        text[d] += digit
        rest, quot = quot, rest
    # 9 bytes a cell (17 at uint64): free them before tobytes and translate
    # copy the text.
    del rest, quot, digit
    separators = text[width].reshape(rows, cols)
    separators[:] = _COMMA
    separators[:, -1] = _NEWLINE
    return str(text.T.tobytes().translate(None, b"\0"), "ascii")


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
    count = ends.size
    # Released before the conversion: it is 8 bytes per field, and from
    # here on only its length is needed.
    del ends
    fields = np.diff(line_ends, prepend=-1)
    if (fields != fields[0]).any():
        return None
    # Validated above: exactly count fields of 1 to 18 digits, each
    # followed by one comma once the newlines are replaced.
    values = np.fromstring(
        data.replace(b"\n", b","), dtype=np.int64, count=count, sep=","
    )
    return values.reshape(line_ends.size, int(fields[0]))
