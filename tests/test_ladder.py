from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
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


def naive_violation_pairs(labeling):
    """Independent re-check: all adjacent label pairs with gcd > 1."""
    rows = labeling.to_rows()
    n = labeling.n
    bad = set()
    for j in range(n):
        if gcd(rows[0][j], rows[1][j]) > 1:
            bad.add(frozenset((rows[0][j], rows[1][j])))
        for i in (0, 1):
            if j + 1 < n and gcd(rows[i][j], rows[i][j + 1]) > 1:
                bad.add(frozenset((rows[i][j], rows[i][j + 1])))
    return bad


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


@settings(max_examples=100)
@given(random_labelings())
def test_verify_matches_naive_recheck(lab):
    reported = {frozenset((v.label_a, v.label_b)) for v in verify_labeling(lab)}
    assert reported == naive_violation_pairs(lab)


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
