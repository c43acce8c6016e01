import time

import pytest

from primeladder.constructions import SMALL_LADDER_FIXTURES
from primeladder.ladder import verify_labeling
from primeladder.oracle import FOUND, TIMEOUT, brute_force_labeling


def test_single_column():
    res = brute_force_labeling(1)
    assert res.status == FOUND
    assert res.labeling.to_rows() == ((1,), (2,))


def test_two_columns():
    res = brute_force_labeling(2)
    assert res.status == FOUND
    assert verify_labeling(res.labeling) == []


@pytest.mark.parametrize("n", range(1, 7))
def test_agrees_with_frozen_fixtures(n):
    res = brute_force_labeling(n)
    assert res.status == FOUND
    assert res.labeling.to_rows() == SMALL_LADDER_FIXTURES[n]


@pytest.mark.parametrize("n", range(7, 13))
def test_finds_verified_labelings(n):
    res = brute_force_labeling(n)
    assert res.status == FOUND
    assert verify_labeling(res.labeling) == []


def test_ten_columns_is_quick():
    res = brute_force_labeling(10)
    assert res.status == FOUND
    assert res.elapsed < 5.0


def test_determinism():
    a = brute_force_labeling(9)
    b = brute_force_labeling(9)
    assert a.labeling == b.labeling
    assert a.nodes == b.nodes


def test_budget_covers_the_coprimality_table():
    # 2n = 4000 labels: the table alone takes seconds, so the budget must
    # stop its construction, and elapsed must count it.
    t0 = time.monotonic()
    res = brute_force_labeling(2000, time_budget=0.0)
    wall = time.monotonic() - t0
    assert res.status == TIMEOUT
    assert wall < 0.5
    assert 0.0 < res.elapsed <= wall


def test_zero_budget_times_out():
    res = brute_force_labeling(14, time_budget=0.0)
    assert res.status == TIMEOUT
    assert res.labeling is None


def test_unbounded_fourteen_columns_found():
    res = brute_force_labeling(14)
    assert res.status == FOUND
    assert verify_labeling(res.labeling) == []


def test_validation():
    with pytest.raises(ValueError):
        brute_force_labeling(0)


@pytest.mark.parametrize("budget", [-5.0, -0.005, -1e-9])
def test_negative_budget_is_rejected(budget):
    with pytest.raises(ValueError, match="time budget"):
        brute_force_labeling(3, time_budget=budget)
