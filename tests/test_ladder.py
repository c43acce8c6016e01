from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primeladder.ladder import (
    Labeling,
    MalformedLabelingError,
    format_labeling_csv,
    parse_labeling_csv,
    verify_labeling,
)

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
    with pytest.raises(MalformedLabelingError, match="positive"):
        Labeling._adopt(np.array([[0, 1], [2, 3]]))
