import random
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primeladder import ladder
from primeladder.constructions import construct_ladder
from primeladder.ladder import (
    Labeling,
    MalformedLabelingError,
    format_labeling_csv,
    integer,
    parse_labeling_csv,
    verify_labeling,
)
from primeladder.numtheory import is_prime

from paper_grids import lemma_base_rows

BASE_P2 = ((5, 4, 3, 8), (6, 7, 2, 1))


def naive_violations(labeling):
    """Independent re-check: every adjacent pair with gcd > 1, in report order.

    Column by column, the vertical edge first, then the top and the bottom
    edge to the next column; each as (position_a, position_b, label_a,
    label_b, common_divisor).
    """
    rows = labeling.to_rows()
    n = labeling.n
    edges = []
    for j in range(1, n + 1):
        edges.append(((1, j), (2, j)))
        if j < n:
            edges += [((1, j), (1, j + 1)), ((2, j), (2, j + 1))]
    out = []
    for a, b in edges:
        la, lb = rows[a[0] - 1][a[1] - 1], rows[b[0] - 1][b[1] - 1]
        if gcd(la, lb) > 1:
            out.append((a, b, la, lb, gcd(la, lb)))
    return out


@st.composite
def random_labelings(draw):
    n = draw(st.integers(1, 30))
    perm = draw(st.permutations(list(range(1, 2 * n + 1))))
    return Labeling((perm[:n], perm[n:]))


def test_verify_accepts_base_array():
    assert verify_labeling(Labeling(BASE_P2)) == []


def test_verify_two_column_cases():
    assert verify_labeling(Labeling(((1, 2), (4, 3)))) == []
    violations = verify_labeling(Labeling(((1, 3), (2, 4))))
    assert len(violations) == 1
    v = violations[0]
    assert {v.label_a, v.label_b} == {2, 4}
    assert v.common_divisor == 2
    assert v.position_a == (2, 1) and v.position_b == (2, 2)


def test_verify_preswap_base_p11():
    lab = Labeling(lemma_base_rows(11))
    violations = verify_labeling(lab)
    assert len(violations) == 2
    first, second = violations
    assert {first.label_a, first.label_b} == {11, 22}
    assert first.position_a == (1, 11) and first.position_b == (2, 11)
    assert {second.label_a, second.label_b} == {33, 44}
    assert second.position_a == (1, 22) and second.position_b == (2, 22)


def test_verify_orders_by_column():
    # violations: vertical (2,4) in column 1, horizontal (3,6) at columns 2-3
    lab = Labeling(((2, 1, 5), (4, 3, 6)))
    violations = verify_labeling(lab)
    assert [v.position_a[1] for v in violations] == [1, 2]
    assert {violations[0].label_a, violations[0].label_b} == {2, 4}
    assert {violations[1].label_a, violations[1].label_b} == {3, 6}


def test_verify_rejects_non_bijection():
    with pytest.raises(MalformedLabelingError):
        verify_labeling(Labeling(((1, 2), (2, 3))))
    with pytest.raises(MalformedLabelingError):
        verify_labeling(Labeling(((1, 2), (3, 5))))


@pytest.mark.parametrize("bad, label", [
    ((0, 5), 2 * 500 + 1),  # just above 2n
    ((1, 7), 10**15),  # far above 2n: no table of that size is made
    ((0, 5), 2 * 500),  # a duplicate of 1000, so one label of 1..2n is missing
    ((1, 499), 1),  # a duplicate of 1
])
def test_verify_rejects_a_label_above_2n_or_a_duplicate(bad, label):
    cells = np.arange(1, 1001, dtype=np.int64).reshape(2, 500)
    cells[bad] = label
    with pytest.raises(MalformedLabelingError, match=r"not a bijection onto 1\.\.1000"):
        verify_labeling(Labeling(cells))


@pytest.mark.parametrize("make", [Labeling, lambda rows: Labeling._adopt(np.array(rows))],
                         ids=["constructor", "adopt"])
@pytest.mark.parametrize("rows", [
    ((1, 2), (2, 4)),  # a duplicate, so 3 is missing
    ((0, 2), (3, 4)),
    ((-4, 2), (3, 4)),  # a negative label, which must not wrap onto the missing 1
    ((1, 2), (3, 5)),  # 2n + 1
])
def test_labeling_is_a_bijection_onto_1_to_2n(make, rows):
    with pytest.raises(MalformedLabelingError, match=r"^labels are not a bijection onto 1\.\.4$"):
        make(rows)


def test_labeling_shape_validation():
    with pytest.raises(MalformedLabelingError):
        Labeling(((1, 2, 3),))
    with pytest.raises(MalformedLabelingError):
        Labeling(((1, 2), (3, 4), (5, 6)))
    with pytest.raises(MalformedLabelingError):
        Labeling(((0, 1), (2, 3)))
    with pytest.raises(MalformedLabelingError):
        Labeling([1, 2])  # one-dimensional


@pytest.mark.parametrize("rows", [
    [[1.7, 2.2], [3.9, 4.0]],
    [[1, 2], [3, 4.0]],
    [[True, 2], [3, 4]],
    [[1, 2], [3, np.bool_(True)]],
    [[1, "2"], [3, 4]],
    [[1, None], [3, 4]],
    np.array([[1.0, 2.0], [3.0, 4.0]]),
    np.array([[True, False], [True, True]]),
])
def test_labeling_rejects_non_integer_labels(rows):
    with pytest.raises(MalformedLabelingError, match="must be integers"):
        Labeling(rows)


def test_labeling_accepts_integer_input_of_any_kind():
    expected = ((1, 2), (3, 4))
    for rows in (expected, [[1, 2], [3, 4]], [[np.int32(1), 2], [3, np.uint8(4)]],
                 np.array(expected, dtype=np.int64), np.array(expected, dtype=np.uint16)):
        lab = Labeling(rows)
        assert lab.to_rows() == expected
        assert lab.cells.dtype == np.int64


def test_labeling_oversized_label_is_malformed():
    with pytest.raises(MalformedLabelingError, match="64 bits"):
        Labeling([[1, 2], [3, 2**70]])


def test_labeling_copies_an_int64_array():
    cells = np.array([[1, 2], [3, 4]], dtype=np.int64)
    lab = Labeling(cells)
    cells[0, 0] = 9
    assert lab.label_at(1, 1) == 1


@pytest.mark.parametrize("row, col", [(0, 1), (3, 1), (1, 0), (2, 3)])
def test_label_at_outside_the_grid_raises(row, col):
    with pytest.raises(ValueError, match="outside 2x2 grid"):
        Labeling(((1, 2), (3, 4))).label_at(row, col)


@pytest.mark.parametrize("row, col", [
    (True, 1), (1, False), (np.bool_(True), 1), (1.5, 1), (1, 2.0), ("1", 1), (None, 1),
])
def test_label_at_rejects_non_integer_positions(row, col):
    with pytest.raises(ValueError, match="positions must be integers"):
        Labeling(((1, 2), (3, 4))).label_at(row, col)


def test_label_at_takes_numpy_integers():
    assert Labeling(((1, 2), (3, 4))).label_at(np.int64(2), np.uint8(1)) == 3


def test_labeling_equality_hash_and_repr():
    lab = Labeling(BASE_P2)
    same = parse_labeling_csv(format_labeling_csv(lab))
    assert lab == same and hash(lab) == hash(same)
    assert lab != BASE_P2 and lab != repr(lab)
    assert repr(lab) == "Labeling(((5, 4, 3, 8), (6, 7, 2, 1)))"
    small = Labeling(np.arange(1, 25).reshape(2, 12))
    assert repr(small) == f"Labeling({small.to_rows()!r})"
    assert repr(Labeling(np.arange(1, 27).reshape(2, 13))) == "<Labeling n=13>"


@settings(max_examples=100)
@given(random_labelings())
@example(Labeling(((2,), (1,))))  # n = 1: one vertical edge, no right edges
@example(Labeling(((2, 4), (1, 3))))  # n = 2: the top edge only
@example(Labeling(((1, 5, 2), (3, 6, 4))))  # the last column's vertical edge
@example(Labeling(((1, 7, 3, 6), (2, 5, 4, 8))))  # both edges into the last column, and its vertical
def test_verify_matches_naive_recheck(lab):
    reported = [(v.position_a, v.position_b, v.label_a, v.label_b, v.common_divisor)
                for v in verify_labeling(lab)]
    assert reported == naive_violations(lab)


def _reported(lab):
    return [(v.position_a, v.position_b, v.label_a, v.label_b, v.common_divisor)
            for v in verify_labeling(lab)]


def _supported(n):
    return n <= 14 or n % 2 == 1 or is_prime(n // 2)


def _conflict_swap(lab, rng):
    """`lab` with a neighbour of an even label swapped for another even label, as criterion 8 mutates."""
    n = lab.n
    flat = lab.cells.ravel().copy()
    evens = np.flatnonzero(flat % 2 == 0)
    y = rng.choice(evens)
    ry, cy = divmod(int(y), n)
    rx, cx = rng.choice([(r, c) for r, c in ((ry, cy - 1), (ry, cy + 1), (1 - ry, cy)) if 0 <= c < n])
    while (b := rng.choice(evens)) == y:
        pass
    x = rx * n + cx
    flat[x], flat[b] = flat[b], flat[x]
    return Labeling(flat.reshape(2, n))


def _permutation(n, seed):
    return Labeling(np.random.default_rng(seed).permutation(np.arange(1, 2 * n + 1)).reshape(2, n))


def test_verify_matches_naive_on_every_small_order():
    rng = random.Random(24)
    for n in filter(_supported, range(1, 601)):
        lab = construct_ladder(n)
        assert _reported(lab) == naive_violations(lab) == [], n
        if n > 1:
            mutated = _conflict_swap(lab, rng)
            assert _reported(mutated) == naive_violations(mutated) != [], n
        shuffled = _permutation(n, n)
        assert _reported(shuffled) == naive_violations(shuffled), n


# an odd and a 2p order near 10^4 and near 2*10^5, all past ladder._RUN_COLUMNS
@pytest.mark.parametrize("n", [9999, 10006, 200001, 199982])
def test_verify_matches_naive_on_large_orders(n):
    lab = construct_ladder(n)
    assert _reported(lab) == naive_violations(lab) == []
    rng = random.Random(n)
    for _ in range(2):
        mutated = _conflict_swap(lab, rng)
        assert _reported(mutated) == naive_violations(mutated) != []


@pytest.mark.parametrize("n", [ladder._RUN_COLUMNS - 1, ladder._RUN_COLUMNS, 10_001, 200_000])
def test_verify_matches_naive_on_random_permutations(n):
    lab = _permutation(n, 7)
    assert _reported(lab) == naive_violations(lab) != []


def _blocks(widths):
    """Blocks of consecutive labels, the lower half of each on top, so a
    block of width w has vertical difference w and a run of its own."""
    parts, last = [], 0
    for w in widths:
        parts.append(np.arange(last + 1, last + 2 * w + 1).reshape(2, w))
        last += 2 * w
    return Labeling(np.concatenate(parts, axis=1))


@pytest.mark.parametrize("widths, factored", [
    # one block: vertical difference n, every horizontal difference 1
    ([ladder._RUN_COLUMNS - 1], []),
    ([ladder._RUN_COLUMNS], [ladder._RUN_COLUMNS, 1, 1]),
    # alternating widths make one vertical run per block; the horizontal
    # families have two runs per block and always fall back to np.gcd
    ([24, 26] * (ladder._MAX_RUNS // 2), [24, 26] * (ladder._MAX_RUNS // 2)),
    ([24, 26] * (ladder._MAX_RUNS // 2) + [24], []),
])
def test_verify_matches_naive_at_the_path_limits(widths, factored, monkeypatch):
    lab = _blocks(widths)
    assert lab.n >= ladder._RUN_COLUMNS or len(widths) == 1
    seen = []

    def spy(d):
        seen.append(d)
        return prime_factors(d)

    prime_factors = ladder._prime_factors
    monkeypatch.setattr(ladder, "_prime_factors", spy)
    assert _reported(lab) == naive_violations(lab) != []
    assert seen == factored


@st.composite
def runs_of_pairs(draw):
    """(a, b) arrays whose differences come in up to _MAX_RUNS + 8 runs."""
    runs = draw(st.lists(st.tuples(st.integers(1, 90), st.integers(1, 6)),
                         min_size=1, max_size=ladder._MAX_RUNS + 8))
    d = np.repeat([d for d, _ in runs], [k for _, k in runs])
    a = np.array(draw(st.lists(st.integers(1, 10**6), min_size=len(d), max_size=len(d))))
    flip = np.array(draw(st.lists(st.booleans(), min_size=len(d), max_size=len(d))))
    return a, np.where(flip & (a > d), a - d, a + d)


@given(runs_of_pairs())
def test_share_a_factor_is_gcd_above_one(pair):
    a, b = pair
    assert (ladder._share_a_factor(a, b) == (np.gcd(a, b) > 1)).all()


@pytest.mark.parametrize("d, primes", [(1, []), (2, [2]), (9, [3]), (12, [2, 3]), (1499, [1499]),
                                       (2 * 3 * 5 * 7 * 11 * 13, [2, 3, 5, 7, 11, 13]), (4 * 99991, [2, 99991])])
def test_prime_factors(d, primes):
    assert ladder._prime_factors(d) == primes


def test_csv_round_trip():
    lab = Labeling(BASE_P2)
    text = format_labeling_csv(lab)
    assert text == "5,4,3,8\n6,7,2,1\n"
    assert parse_labeling_csv(text) == lab


def test_csv_parse_diagnostics():
    with pytest.raises(MalformedLabelingError, match="2 rows"):
        parse_labeling_csv("1,2,3\n")
    with pytest.raises(MalformedLabelingError, match="2 rows"):
        parse_labeling_csv("1,2\n3,4\n5,6\n")
    with pytest.raises(MalformedLabelingError, match="row 2, column 2"):
        parse_labeling_csv("1,2\n3,x\n")
    with pytest.raises(MalformedLabelingError, match="lengths differ"):
        parse_labeling_csv("1,2,5\n3,4\n")


def test_csv_tolerates_trailing_newline():
    assert parse_labeling_csv("1,2\n4,3\n\n") == Labeling(((1, 2), (4, 3)))


@pytest.mark.parametrize("text, value", [("7", 7), (" -5\t", -5), ("+0012", 12), ("0", 0)])
def test_integer_reads_ascii_digits_after_a_sign(text, value):
    assert integer(text) == value


@pytest.mark.parametrize("text", ["1_0", "\u0667", "\uff14", "", " ", "+", "-+1", "1.0", "0x1", "1 0", "1e3"])
def test_integer_rejects_every_other_spelling(text):
    with pytest.raises(ValueError, match="is not an integer"):
        integer(text)


def test_labeling_immutability():
    lab = Labeling(BASE_P2)
    with pytest.raises(ValueError):
        lab.cells[0, 0] = 99


def test_parsed_labeling_is_immutable():
    lab = parse_labeling_csv("5,4,3,8\n6,7,2,1\n")
    assert lab == Labeling(BASE_P2)
    with pytest.raises(ValueError):
        lab.cells[0, 0] = 99


def test_adopt_keeps_the_array_and_checks_it_like_the_constructor():
    cells = np.array(BASE_P2, dtype=np.int64)
    lab = Labeling._adopt(cells)
    assert np.shares_memory(lab.cells, cells)
    assert not cells.flags.writeable
    assert lab == Labeling(BASE_P2)
    assert Labeling._adopt(np.array(BASE_P2, dtype=np.int32)).cells.dtype == np.int64
    with pytest.raises(MalformedLabelingError, match="2-row grid"):
        Labeling._adopt(np.array([[1, 2, 3]]))
    with pytest.raises(MalformedLabelingError, match=r"not a bijection onto 1\.\.4"):
        Labeling._adopt(np.array([[0, 1], [2, 3]]))


def test_a_str_with_a_lone_surrogate_is_malformed():
    # its bytes, written with surrogatepass, are not UTF-8, as a file's would not be
    with pytest.raises(MalformedLabelingError, match="not UTF-8"):
        parse_labeling_csv("1,2\n3,\udc80\n")


def test_a_byte_that_is_not_utf8_is_named_by_row_and_column(tmp_path):
    with pytest.raises(MalformedLabelingError) as info:
        parse_labeling_csv("1,2\n3,\udc80\n")
    assert str(info.value) == "row 2, column 2: not UTF-8 text: byte 6 is b'\\xed'"
    # the rows and columns are those the line reader counts: CRLF is one
    # line end, and a bad first byte of a line or a field is in that line or field
    for data, where in ((b"\xff,2\n3,4\n", "row 1, column 1"), (b"1,2\r\n\xff3,4\n", "row 2, column 1"),
                        (b"1, 2,\xc3\n", "row 1, column 3"), (b" 1 ,\xc3\xa9\xff\n", "row 1, column 2")):
        f = tmp_path / "lab.csv"
        f.write_bytes(data)
        with pytest.raises(MalformedLabelingError, match=f"^{where}: not UTF-8 text: byte "):
            ladder.load_labeling_csv(f)


def test_the_line_reader_adopts_the_grid_it_has_checked(tmp_path, monkeypatch):
    # CRLF line ends and spaces keep both files off the canonical path
    lab = construct_ladder(101)
    crlf, spaced = tmp_path / "crlf.csv", tmp_path / "spaced.csv"
    crlf.write_bytes(format_labeling_csv(lab).replace("\n", "\r\n").encode("ascii"))
    spaced.write_text(" 1, 2\n4 ,3 \n")
    small = Labeling(((1, 2), (4, 3)))

    def refuse(rows):
        raise AssertionError("read text went through _integer_cells")

    monkeypatch.setattr(ladder, "_integer_cells", refuse)
    assert ladder.load_labeling_csv(crlf) == lab
    assert ladder.load_labeling_csv(spaced) == parse_labeling_csv(spaced.read_text()) == small
