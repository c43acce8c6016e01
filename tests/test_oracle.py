import pytest

from primeladder.constructions import SMALL_LADDER_FIXTURES
from primeladder.ladder import verify_labeling
from primeladder.oracle import FOUND, TIMEOUT, SearchConfig, brute_force_labeling


def test_single_column():
    res = brute_force_labeling(SearchConfig(n=1))
    assert res.status == FOUND
    assert res.labeling.to_rows() == ((1,), (2,))


def test_two_columns():
    res = brute_force_labeling(SearchConfig(n=2))
    assert res.status == FOUND
    assert verify_labeling(res.labeling) == []


@pytest.mark.parametrize("n", range(1, 7))
def test_agrees_with_frozen_fixtures(n):
    res = brute_force_labeling(SearchConfig(n=n))
    assert res.status == FOUND
    assert res.labeling.to_rows() == SMALL_LADDER_FIXTURES[n]


@pytest.mark.parametrize("n", range(7, 13))
def test_finds_verified_labelings(n):
    res = brute_force_labeling(SearchConfig(n=n))
    assert res.status == FOUND
    assert verify_labeling(res.labeling) == []


def test_ten_columns_is_quick():
    res = brute_force_labeling(SearchConfig(n=10))
    assert res.status == FOUND
    assert res.elapsed < 5.0


def test_determinism():
    a = brute_force_labeling(SearchConfig(n=9))
    b = brute_force_labeling(SearchConfig(n=9))
    assert a.labeling == b.labeling
    assert a.nodes == b.nodes


def test_zero_budget_times_out():
    res = brute_force_labeling(SearchConfig(n=14, time_budget=0.0))
    assert res.status == TIMEOUT
    assert res.labeling is None


def test_unbounded_fourteen_columns_found():
    res = brute_force_labeling(SearchConfig(n=14))
    assert res.status == FOUND
    assert verify_labeling(res.labeling) == []


def test_validation():
    with pytest.raises(ValueError):
        brute_force_labeling(SearchConfig(n=0))


@pytest.mark.parametrize("budget", [-5.0, -0.005, -1e-9])
def test_negative_budget_is_rejected(budget):
    with pytest.raises(ValueError, match="time budget"):
        brute_force_labeling(SearchConfig(n=3, time_budget=budget))
