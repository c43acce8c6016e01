"""The array-wise text codec against the per-cell code it replaced.

The reference implementations below are the formatting expressions and the
line-by-line labeling parser as they were before the codec existed; they are
kept here as oracles.
"""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primeladder.ladder import (
    Labeling,
    MalformedLabelingError,
    format_labeling_csv,
    load_labeling_csv,
    parse_labeling_csv,
)
from primeladder.textio import MAX_FIELD_DIGITS, format_int_rows, parse_int_rows


def reference_format_labeling(cells):
    top, bottom = cells.tolist()
    return ",".join(str(int(v)) for v in top) + "\n" + ",".join(str(int(v)) for v in bottom) + "\n"


def reference_format_rows(rows):
    return "".join(",".join(str(int(v)) for v in row) + "\n" for row in rows).encode("ascii")


def reference_witness_rows(rows):
    return "".join(f"{n},{p},{n - 2 * p}\n" for n, p in rows).encode("ascii")


def reference_parse_labeling(text):
    """The line-by-line parser: (rows, None), or (None, error message)."""
    lines = text.splitlines()
    while lines and lines[-1].strip() == "":
        lines.pop()
    if len(lines) != 2:
        return None, f"expected exactly 2 rows, got {len(lines)}"
    rows = []
    for lineno, line in enumerate(lines, start=1):
        row = []
        for colno, field in enumerate(line.split(","), start=1):
            try:
                row.append(int(field.strip()))
            except ValueError:
                return None, f"row {lineno}, column {colno}: {field.strip()!r} is not an integer"
        rows.append(row)
    if len(rows[0]) != len(rows[1]):
        return None, f"row lengths differ: {len(rows[0])} vs {len(rows[1])}"
    return rows, None


def parse_outcome(parse, text):
    """(cells as lists, None) or (None, error message) from a labeling parser."""
    try:
        return [list(row) for row in parse(text).to_rows()], None
    except MalformedLabelingError as exc:
        return None, str(exc)


def assert_parses_like_reference(text):
    """Same cells or same message as the reference parser; an int64 overflow is now malformed input."""
    rows, error = reference_parse_labeling(text)
    if error is None and any(not -(2**63) <= v < 2**63 for row in rows for v in row):
        with pytest.raises(MalformedLabelingError, match="does not fit in 64 bits"):
            parse_labeling_csv(text)
    elif error is None:
        assert parse_outcome(parse_labeling_csv, text) == parse_outcome(lambda _: Labeling(rows), text)
    else:
        assert parse_outcome(parse_labeling_csv, text) == (None, error)


@st.composite
def permutation_grids(draw):
    n = draw(st.integers(1, 60))
    perm = draw(st.permutations(list(range(1, 2 * n + 1))))
    return np.array(perm, dtype=np.int64).reshape(2, n)


@settings(max_examples=200)
@given(permutation_grids())
def test_labeling_format_matches_reference(cells):
    text = format_labeling_csv(Labeling(cells))
    assert text == reference_format_labeling(cells)
    assert np.array_equal(parse_labeling_csv(text).cells, cells)


@pytest.mark.parametrize("n", [1, 5, 6, 50, 51, 50_000, 50_001])
def test_labeling_format_at_digit_boundaries(n):
    # 2n reaches 10 and 100000 for n = 5 and 50000: labels 9/10 and 99999/100000
    labels = list(range(1, 2 * n + 1))
    random.Random(n).shuffle(labels)
    cells = np.array(labels, dtype=np.int64).reshape(2, n)
    text = format_labeling_csv(Labeling(cells))
    assert text == reference_format_labeling(cells)
    assert np.array_equal(parse_int_rows(text.encode("ascii")), cells)


int_matrices = st.integers(1, 4).flatmap(
    lambda cols: st.lists(
        st.lists(st.integers(0, 2**63 - 1), min_size=cols, max_size=cols), min_size=1, max_size=4
    )
)


@settings(max_examples=200)
@given(int_matrices)
@example([[0, 9, 10, 99_999, 100_000, 2**63 - 1]])
def test_format_matches_join_for_any_int64(rows):
    assert format_int_rows(np.array(rows, dtype=np.int64)) == reference_format_rows(rows)


@settings(max_examples=200)
@given(int_matrices.filter(lambda rows: max(map(max, rows)) < 10**MAX_FIELD_DIGITS))
def test_parse_inverts_format(rows):
    values = np.array(rows, dtype=np.int64)
    assert np.array_equal(parse_int_rows(format_int_rows(values)), values)


def test_format_rejects_negative_values():
    with pytest.raises(ValueError, match="non-negative"):
        format_int_rows(np.array([[1, -2]]))


EDGE_MATRICES = [
    # digits are worked in uint32 up to 2**32 - 1 and in uint64 from 2**32 on
    pytest.param(np.array([[2**32 - 1, 0], [2**32 - 2, 10]], dtype=np.uint64), id="2^32-1"),
    pytest.param(np.array([[2**32, 0], [2**32 - 1, 10]], dtype=np.uint64), id="2^32"),
    *(pytest.param(np.array([[10**k - 1, 0], [10**k, 1]]), id=f"10^{k}") for k in range(MAX_FIELD_DIGITS + 1)),
    pytest.param(np.array([[10**k - 1, 10**k] for k in range(MAX_FIELD_DIGITS + 1)]), id="all 10^k"),
    pytest.param(np.array([[0], [7], [10], [123456]]), id="single column"),  # only newlines separate
    pytest.param(np.zeros((1, 1), dtype=np.int64), id="zero"),
    pytest.param(np.zeros((2, 1000), dtype=np.int64), id="zeros"),
    pytest.param(
        np.random.default_rng(7).integers(0, 10 ** np.arange(1, 19).repeat(6_000).reshape(-1, 3)),
        id="108000 cells",
    ),
]


@pytest.mark.parametrize("values", EDGE_MATRICES)
def test_format_edge_cases_match_join(values):
    assert format_int_rows(values) == reference_format_rows(values)


def test_format_empty_input():
    assert format_int_rows(np.zeros((0, 3), dtype=np.int64)) == b""


@pytest.mark.parametrize("dtype", [np.int64, np.uint32, np.uint64])
@pytest.mark.parametrize("order", ["C", "F"])
def test_format_leaves_its_input_unchanged(dtype, order):
    values = np.array([[0, 9, 10, 4_000_000_000], [99, 100, 12345, 7]], dtype=dtype, order=order)
    before = values.copy()
    assert format_int_rows(values) == reference_format_rows(before)
    assert np.array_equal(values, before)


def test_format_frees_its_digit_buffers_before_copying_the_text():
    # 2x200000 labels of up to 6 digits make 2.8 MB of text, which tobytes
    # and translate each copy; the 3.6 MB of uint32 digit buffers must be
    # gone by then (they kept the peak near 12 MB).
    cells = np.arange(1, 400_001, dtype=np.int64).reshape(2, 200_000)
    tracemalloc.start()
    try:
        text = format_int_rows(cells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.endswith(b",400000\n")
    assert peak < 9.5e6, f"peak {peak / 1e6:.2f} MB"


@settings(max_examples=200)
@given(st.lists(st.tuples(st.integers(3, 10**12), st.integers(1, 10**6)), max_size=30))
def test_witness_rows_match_fstring_rows(pairs):
    pairs = [(2 * p + q, p) for q, p in pairs]
    rows = np.array([(n, p, n - 2 * p) for n, p in pairs], dtype=np.int64).reshape(-1, 3)
    assert format_int_rows(rows) == reference_witness_rows(pairs)


@pytest.mark.parametrize(
    "text",
    [
        "1,2\n4,3",                   # no final newline
        "1,2\n4,3\n\n",               # trailing blank line
        "1,2\n4,3\n \n",
        " 1, 2\n4 ,3 \n",             # spaces
        "1,2\r\n4,3\r\n",             # CRLF
        "1,2\r4,3\r",
        "+1,2\n4,+3\n",               # signs
        "-1,2\n4,3\n",
        "001,2\n4,0003\n",            # leading zeros
        "0" * 30 + "1,2\n4,3\n",      # leading zeros beyond the fast path's field width
        "1,2\n",                      # one row
        "1,2\n4,3\n5,6\n",            # three rows
        "1,2,5\n4,3\n",               # ragged rows
        "1,,2\n4,3\n",                # empty field
        ",1\n2,3\n",
        "1,2,\n4,3,\n",
        "1,x\n4,3\n",
        "1,2\n3,x\n",
        "1,2\n\n4,3\n",               # blank line between rows
        "1,٢\n4,3\n",            # a non-ASCII digit, which int() accepts
        "",
        "\n",
        "1,0\n2,3\n",                 # zero label
        "99999999999999999999,1\n2,3\n",  # 20 digits: beyond int64
        "1,2\n3,-99999999999999999999\n",
        "9223372036854775807,1\n2,3\n",   # 19 digits, int64 max
        "1,9223372036854775808\n2,3\n",
        "123456789012345678,1\n2,3\n",    # 18 digits
    ],
)
def test_parse_matches_reference_parser(text):
    assert_parses_like_reference(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("99999999999999999999,1\n2,3\n", "row 1, column 1: '99999999999999999999' does not fit in 64 bits"),
        ("1,2\n3, -99999999999999999999\n", "row 2, column 2: '-99999999999999999999' does not fit in 64 bits"),
        ("1,9223372036854775808\n2,3\n", "row 1, column 2: '9223372036854775808' does not fit in 64 bits"),
    ],
)
def test_oversized_labels_are_malformed_not_saturated(text, message):
    with pytest.raises(MalformedLabelingError) as info:
        parse_labeling_csv(text)
    assert str(info.value) == message


@settings(max_examples=300)
@given(st.text(alphabet="0123456789,\n\r +-x", max_size=40))
def test_parse_matches_reference_on_any_text(text):
    assert_parses_like_reference(text)


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=30) | st.text(alphabet="12,\n\r \x85\x0c", max_size=20).map(str.encode))
def test_load_matches_text_mode_read(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("csv") / "lab.csv"
    path.write_bytes(data)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        with pytest.raises(MalformedLabelingError, match="not UTF-8"):
            load_labeling_csv(path)
        return
    assert parse_outcome(load_labeling_csv, path) == parse_outcome(parse_labeling_csv, text)
