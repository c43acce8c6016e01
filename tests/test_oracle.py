import time

import pytest

from primeladder import oracle
from primeladder.constructions import SMALL_LADDER_FIXTURES
from primeladder.ladder import verify_labeling
from primeladder.oracle import EXHAUSTED, FOUND, TIMEOUT, brute_force_labeling

# The search's first labeling of each order up to 6 (column-major fill,
# ascending candidates). construct_ladder serves 1, 2, 3 and 5 from frozen
# copies of these, and 8, 12 and 16 likewise; 4 and 6 go to the 2p lemma.
ORACLE_ROWS = {
    1: ((1,), (2,)),
    2: ((1, 4), (2, 3)),
    3: ((1, 2, 3), (6, 5, 4)),
    4: ((1, 4, 5, 6), (2, 3, 8, 7)),
    5: ((1, 4, 9, 8, 5), (2, 3, 10, 7, 6)),
    6: ((1, 4, 9, 10, 11, 12), (2, 3, 8, 7, 6, 5)),
}


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
    assert res.labeling.to_rows() == ORACLE_ROWS[n]
    if n in SMALL_LADDER_FIXTURES:
        assert SMALL_LADDER_FIXTURES[n] == ORACLE_ROWS[n]


@pytest.mark.parametrize("n", range(7, 13))
def test_finds_verified_labelings(n):
    res = brute_force_labeling(n)
    assert res.status == FOUND
    assert verify_labeling(res.labeling) == []


def test_ten_columns_is_quick():
    res = brute_force_labeling(10)
    assert res.status == FOUND
    assert res.elapsed < 5.0


# Nodes visited up to the first labeling of each order 1..14: any change to
# the candidate order or to the pruning rules changes some of them.
ORACLE_NODES = (2, 5, 30, 12, 53, 142, 34, 52, 298, 110, 262, 1480, 100, 223)


def test_node_counts_are_pinned():
    assert tuple(brute_force_labeling(n).nodes for n in range(1, 15)) == ORACLE_NODES


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


class _Clock:
    """A stand-in for the time module: monotonic() reads 0 for `reads` reads, then an hour."""

    def __init__(self, reads):
        self.reads = reads

    def monotonic(self):
        self.reads -= 1
        return 0.0 if self.reads >= 0 else 3600.0


def test_budget_expires_inside_the_search(monkeypatch):
    # one read at the start, one per row of the 28-label table, then one per
    # node: the eleventh node finds the budget spent
    monkeypatch.setattr(oracle, "time", _Clock(1 + 28 + 10))
    res = brute_force_labeling(14, time_budget=1.0)
    assert (res.status, res.labeling, res.nodes) == (TIMEOUT, None, 11)


def test_no_coprime_pair_exhausts_the_search(monkeypatch):
    # each of the 4 labels is tried in the first cell and has no partner
    monkeypatch.setattr(oracle, "_coprime_masks", lambda m, deadline: [0] * (m + 1))
    res = brute_force_labeling(2)
    assert (res.status, res.labeling, res.nodes) == (EXHAUSTED, None, 4)


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
