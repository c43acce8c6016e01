import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeladder import numtheory
from primeladder.conjectures import find_goldbach, find_lemoine, verify_lemoine_range
from primeladder.numtheory import (
    CoverageExceededError,
    PrimeSet,
    is_prime,
    primes_in,
    sieve_primes,
)
from primeladder.partitions import find_canonical


def trial_division(k: int) -> bool:
    if k < 2:
        return False
    return all(k % d for d in range(2, math.isqrt(k) + 1))


def reference_flags(limit: int) -> np.ndarray:
    """The odd-only table of a plain sieve of Eratosthenes: flag i is 2i + 1."""
    odd = np.ones((limit + 1) // 2, dtype=bool)
    odd[0] = False
    for p in range(3, math.isqrt(limit) + 1, 2):
        if odd[p >> 1]:
            odd[(p * p) >> 1 :: p] = False
    return odd


_REFERENCE_5000 = reference_flags(5000)


def test_segmented_sieve_matches_a_plain_sieve(monkeypatch):
    # segments of 32 flags: every limit from 65 on has later segments, the
    # primes 37 to 67 skip some segments whole, and from limit 4225 on the
    # table of sqrt(limit) that gives the striking primes has two segments
    monkeypatch.setattr(numtheory, "_SEGMENT", 32)
    for limit in range(2, 5001):
        flags = sieve_primes(limit).odd_flags()
        assert np.array_equal(flags, _REFERENCE_5000[: (limit + 1) // 2]), limit


def test_sieve_at_the_segment_boundaries():
    # tables that end one flag before, at, one and two flags after the end
    # of the first and of the second segment, for both limits of each size
    seg = numtheory._SEGMENT
    reference = reference_flags(2 * (2 * seg + 2))
    for boundary in (seg, 2 * seg):
        for half in range(boundary - 1, boundary + 3):
            for limit in (2 * half - 1, 2 * half):
                assert np.array_equal(sieve_primes(limit).odd_flags(), reference[:half]), limit


def test_sieve_at_the_wheel_period_boundaries():
    # tables that end one flag before, at, one and two flags after the end
    # of the first, second and third period of the wheel fill, for both
    # limits of each size; the exhaustive test above stays inside one period
    wheel = numtheory._WHEEL
    reference = reference_flags(2 * (3 * wheel + 2))
    for k in (1, 2, 3):
        for half in range(k * wheel - 1, k * wheel + 3):
            for limit in (2 * half - 1, 2 * half):
                assert np.array_equal(sieve_primes(limit).odd_flags(), reference[:half]), limit


# each looks up one value past a sieve whose limit is one short of it
COVERAGE = {
    "find_lemoine": (lambda s: find_lemoine(101, s), "n=101"),
    "find_goldbach": (lambda s: find_goldbach(100, s), "n=100"),
    "primes_in": (lambda s: primes_in(2, 100, s), "hi=100"),
    "verify_lemoine_range": (lambda s: verify_lemoine_range(7, 101, sieve=s), "hi=101"),
    "find_canonical": (lambda s: find_canonical(101, sieve=s), "n=101"),
}


@pytest.mark.parametrize("call, value", COVERAGE.values(), ids=COVERAGE.keys())
def test_a_sieve_one_short_names_the_value_and_the_limit(call, value):
    limit = int(value.split("=")[1]) - 1
    with pytest.raises(CoverageExceededError, match=f"^{value} exceeds sieve limit {limit}$"):
        call(sieve_primes(limit))


def test_sieve_builds_its_striking_primes_without_calling_itself(monkeypatch):
    # a tracer wraps numtheory.sieve_primes and counts one call per table;
    # the table of sqrt(limit) must not show up as a second, nested call
    calls = []
    original = numtheory.sieve_primes
    monkeypatch.setattr(numtheory, "sieve_primes", lambda limit: calls.append(limit) or original(limit))
    assert numtheory.sieve_primes(10**6).contains(999_983)
    assert calls == [10**6]


def test_wheel_primes_are_prime():
    for limit in range(2, 21):
        ps = sieve_primes(limit)
        expect = [k for k in (2, 3, 5, 7, 11, 13) if k <= limit]
        assert list(primes_in(2, limit, ps)) == expect + [k for k in (17, 19) if k <= limit]
        assert not ps.contains(1) and (limit < 15 or not ps.contains(15))


def test_prime_count_to_1e8():
    # pi(10^8), a frozen value from the literature; several later segments
    flags = sieve_primes(10**8).odd_flags()
    assert np.count_nonzero(flags) + 1 == 5_761_455


def test_sieve_takes_integer_limits_only():
    assert sieve_primes(np.int64(100)).limit == 100
    assert type(sieve_primes(np.int32(100)).limit) is int
    for limit in (1e6, 100.0, "100", None, True):
        with pytest.raises(ValueError, match="limit must be an integer"):
            sieve_primes(limit)


def test_prime_set_validates_its_table():
    flags = reference_flags(100)
    assert PrimeSet(100, flags.copy()).contains(97)
    assert PrimeSet(99, flags.copy()).contains(97)  # the same 50 flags
    bad = [flags.astype(np.uint8), flags.astype(np.int64), flags[:-1], np.append(flags, False),
           flags.reshape(5, 10), flags.tolist()]
    for table in bad:
        with pytest.raises(ValueError, match="1-D bool array of 50 flags"):
            PrimeSet(100, table)
    for limit in (100.0, True):
        with pytest.raises(ValueError, match="limit must be an integer"):
            PrimeSet(limit, flags)


def test_prime_set_table_is_read_only():
    flags = reference_flags(100)
    ps = PrimeSet(100, flags)
    assert not ps._odd.flags.writeable
    with pytest.raises(ValueError):
        ps._odd[0] = True
    assert not sieve_primes(100)._odd.flags.writeable
    copy = pickle.loads(pickle.dumps(ps))
    assert not copy._odd.flags.writeable
    assert np.array_equal(copy.odd_flags(), flags)


def test_sieve_small():
    ps = sieve_primes(10)
    assert list(primes_in(2, 10, ps)) == [2, 3, 5, 7]


def test_sieve_boundary():
    ps = sieve_primes(2)
    assert list(primes_in(2, 2, ps)) == [2]
    assert ps.contains(2)


def test_sieve_rejects_tiny_limit():
    with pytest.raises(ValueError):
        sieve_primes(1)


def test_contains_edges():
    ps = sieve_primes(100)
    assert not ps.contains(0)
    assert not ps.contains(1)
    assert not ps.contains(-7)
    assert ps.contains(2)
    assert not ps.contains(4)
    assert ps.contains(97)
    with pytest.raises(CoverageExceededError):
        ps.contains(101)


def test_contains_matches_trial_division():
    ps = sieve_primes(2000)
    for k in range(2, 2001):
        assert ps.contains(k) == trial_division(k), k


def test_prime_count_to_1e6(sieve_1m):
    # frozen from an independent trial-division count over the full range
    assert primes_in(2, 10**6, sieve_1m).size == 78498


def test_prime_count_to_5e6():
    # frozen from an independent full-table list sieve
    ps = sieve_primes(5_000_000)
    assert primes_in(2, 5_000_000, ps).size == 348513


def test_primes_in_windows():
    ps = sieve_primes(50)
    assert list(primes_in(3, 11, ps)) == [3, 5, 7, 11]
    assert list(primes_in(8, 10, ps)) == []
    assert list(primes_in(2, 3, ps)) == [2, 3]


def test_primes_in_validation():
    ps = sieve_primes(50)
    with pytest.raises(CoverageExceededError):
        primes_in(2, 51, ps)
    with pytest.raises(ValueError):
        primes_in(1, 10, ps)
    with pytest.raises(ValueError):
        primes_in(11, 10, ps)
    for lo, hi in ((2.0, 10), (2, 10.0), (True, 10)):
        with pytest.raises(ValueError, match="must be an integer"):
            primes_in(lo, hi, ps)


def test_primes_in_agrees_with_contains():
    ps = sieve_primes(500)
    expect = [k for k in range(2, 501) if ps.contains(k)]
    assert list(primes_in(2, 500, ps)) == expect


@settings(max_examples=50)
@given(st.integers(2, 5000))
def test_is_prime_matches_trial_division(k):
    assert is_prime(k) == trial_division(k)


def test_odd_flags_is_a_read_only_view_of_the_table():
    ps = sieve_primes(50)
    flags = ps.odd_flags()
    assert [2 * i + 1 for i in np.flatnonzero(flags)] == list(primes_in(3, 50, ps))
    with pytest.raises(ValueError):
        flags[0] = True
    assert not ps.contains(1)
