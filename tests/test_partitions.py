from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeladder.conjectures import RangeReport
from primeladder.numtheory import CoverageExceededError, sieve_primes
from primeladder.partitions import (
    Partition,
    enumerate_canonical,
    find_canonical,
    is_canonical,
    is_strong,
    sigma_tau,
    verify_strong_range,
)

# frozen by an independent double-loop enumeration over raw prime lists
ORACLE_87 = [(3, 11, 73), (3, 13, 71), (3, 17, 67), (3, 23, 61), (5, 23, 59), (7, 19, 61)]
ORACLE_COUNTS = {500: 10, 2000: 25, 10_000: 93}


def test_is_canonical_reference_cases():
    assert is_canonical((3, 11, 73))
    assert is_canonical((3, 17, 67))
    assert not is_canonical((3, 5))  # 5 < 2*3 + 3
    assert is_canonical((7,))
    assert is_canonical((3, 11))
    assert not is_canonical((2, 7))      # even part
    assert not is_canonical((3, 9, 73))  # composite part
    assert not is_canonical(())


@given(st.lists(st.one_of(st.integers(-10, 10**6), st.floats(), st.text(max_size=3), st.none())))
def test_is_canonical_never_throws(seq):
    assert is_canonical(seq) in (True, False)


def test_sigma_tau_reference_values():
    st3 = sigma_tau(Partition((3, 11, 73)), 3)
    assert (st3.sigma, st3.tau) == (17, 102)
    assert gcd(st3.sigma, st3.tau) == 17
    st3 = sigma_tau(Partition((3, 17, 67)), 3)
    assert (st3.sigma, st3.tau) == (23, 108)
    assert gcd(st3.sigma, st3.tau) == 1
    st4 = sigma_tau(Partition((3, 11, 31, 101)), 4)
    assert (st4.sigma, st4.tau) == (59, 192)


def test_sigma_tau_range_validation():
    p = Partition((3, 11, 73))
    for bad_k in (0, 1, 2, 4):
        with pytest.raises(ValueError):
            sigma_tau(p, bad_k)


def test_sigma_parity(sieve_10k):
    for n in (87, 501, 1999, 4001):
        for partition in enumerate_canonical(n, 3, sieve_10k):
            for k in range(3, len(partition.parts) + 1):
                pair = sigma_tau(partition, k)
                assert pair.sigma % 2 == 1
                assert pair.tau % 2 == 0
                assert pair.sigma < pair.tau


def test_is_strong_reference_cases():
    assert not is_strong(Partition((3, 11, 73)))
    assert is_strong(Partition((3, 17, 67)))
    assert is_strong(Partition((3, 11)))   # two terms: vacuous
    assert is_strong(Partition((13,)))
    with pytest.raises(ValueError):
        is_strong(Partition((3, 5)))       # not canonical


def test_strong_matches_formula_specialization(sieve_10k):
    for n in (87, 1001, 2499):
        for partition in enumerate_canonical(n, 3, sieve_10k):
            if len(partition.parts) != 3:
                continue
            p1, p2, p3 = partition.parts
            expect = gcd(2 * p1 + p2, 2 * (p1 + p2) + p3 + 1) == 1
            assert is_strong(partition) == expect


def test_is_strong_matches_sigma_tau(sieve_10k):
    for n in (87, 1001, 2499, 9001):
        for partition in enumerate_canonical(n, 4, sieve_10k):
            ks = range(3, len(partition.parts) + 1)
            expect = all(gcd(pair.sigma, pair.tau) == 1 for pair in (sigma_tau(partition, k) for k in ks))
            assert is_strong(partition) == expect, partition.parts


def test_partition_type_validation():
    with pytest.raises(ValueError):
        Partition(())
    with pytest.raises(ValueError):
        Partition((2, 5))
    with pytest.raises(ValueError):
        Partition((15,))
    assert Partition((3, 11, 73)).n == 87


def test_enumerate_87(sieve_10k):
    assert [p.parts for p in enumerate_canonical(87, 3, sieve_10k)] == ORACLE_87


def test_enumerate_empty_cases(sieve_10k):
    assert list(enumerate_canonical(6, 3, sieve_10k)) == []
    assert list(enumerate_canonical(27, 3, sieve_10k)) == []


@pytest.mark.parametrize("n", sorted(ORACLE_COUNTS))
def test_enumerate_counts(n, sieve_10k):
    assert sum(1 for _ in enumerate_canonical(n, 3, sieve_10k)) == ORACLE_COUNTS[n]


def test_enumerate_lexicographic(sieve_10k):
    for n in (87, 200, 3001):
        parts = [p.parts for p in enumerate_canonical(n, 4, sieve_10k)]
        assert parts == sorted(parts)


def test_find_reference_cases(sieve_10k):
    assert find_canonical(7, 1, sieve=sieve_10k).parts == (7,)
    assert find_canonical(27, 3, sieve=sieve_10k) is None
    found = find_canonical(87, 3, require_strong=True, sieve=sieve_10k)
    assert found.parts == (3, 13, 71)
    assert is_strong(found)
    # first canonical partition regardless of strength is the weak one
    assert find_canonical(87, 3, sieve=sieve_10k).parts == (3, 11, 73)


def test_find_exact_terms(sieve_10k):
    # 89 is prime, so the 1-term partition wins unless exactness is requested
    assert find_canonical(89, 3, sieve=sieve_10k).parts == (89,)
    exact = find_canonical(89, 3, sieve=sieve_10k, exact_terms=True)
    assert len(exact.parts) == 3 and sum(exact.parts) == 89


def test_find_agrees_with_enumeration(sieve_10k):
    for n in range(50, 600):
        all_parts = list(enumerate_canonical(n, 3, sieve_10k))
        found = find_canonical(n, 3, sieve=sieve_10k)
        assert (found is None) == (not all_parts)
        if found is not None:
            assert found.parts in [p.parts for p in all_parts]
        strong = find_canonical(n, 3, require_strong=True, sieve=sieve_10k)
        strong_exists = any(is_strong(p) for p in all_parts)
        assert (strong is not None) == strong_exists


def test_find_validation(sieve_10k):
    with pytest.raises(ValueError):
        find_canonical(2, 3, sieve=sieve_10k)
    with pytest.raises(ValueError):
        find_canonical(87, 0, sieve=sieve_10k)
    with pytest.raises(ValueError):
        find_canonical(87, 5, sieve=sieve_10k)
    with pytest.raises(CoverageExceededError):
        find_canonical(20_000, 3, sieve=sieve_10k)


def test_verify_strong_range_slices(sieve_10k):
    report = verify_strong_range(50, 2000, max_terms=3, parity="all", sieve=sieve_10k)
    assert isinstance(report, RangeReport)
    assert report.counterexamples == ()
    assert report.verified_count == 1951
    strong = verify_strong_range(
        51, 1999, max_terms=3, parity="odd", require_strong=True,
        sieve=sieve_10k, exact_terms=True,
    )
    assert strong.counterexamples == ()
    assert strong.verified_count == 975
    assert all(len(parts) == 3 for parts in strong.sample_witnesses.values())


def test_verify_strong_range_single_n(sieve_10k):
    report = verify_strong_range(50, 50, sieve=sieve_10k)
    assert report.verified_count == 1
    assert report.counterexamples == ()
    assert 50 in report.sample_witnesses


def test_verify_strong_range_workers_deterministic(sieve_10k):
    kw = dict(max_terms=3, parity="odd", require_strong=True, exact_terms=True,
              sieve=sieve_10k, chunk_size=256)
    a = verify_strong_range(51, 4001, workers=1, **kw).to_json_dict()
    b = verify_strong_range(51, 4001, workers=2, **kw).to_json_dict()
    a.pop("elapsed_seconds")
    b.pop("elapsed_seconds")
    assert a == b


def test_verify_strong_range_validation(sieve_10k):
    with pytest.raises(ValueError):
        verify_strong_range(10, 100, sieve=sieve_10k)
    with pytest.raises(ValueError):
        verify_strong_range(50, 100, parity="prime", sieve=sieve_10k)
    with pytest.raises(CoverageExceededError):
        verify_strong_range(50, 20_000, sieve=sieve_10k)
    for chunk_size in (-1, 0):
        with pytest.raises(ValueError, match="chunk_size"):
            verify_strong_range(50, 3000, max_terms=1, sieve=sieve_10k, chunk_size=chunk_size)
    for max_terms in (0, 5):
        with pytest.raises(ValueError, match="max_terms"):
            verify_strong_range(50, 3000, max_terms=max_terms, sieve=sieve_10k, workers=2, chunk_size=97)
    assert len(verify_strong_range(50, 3000, max_terms=1, sieve=sieve_10k, chunk_size=1).counterexamples) == 2536


def _search_counterexamples(lo, hi, max_terms, require_strong, exact_terms, parity, sieve):
    """The counterexamples of verify_strong_range, from the per-n search."""
    return tuple(
        n for n in range(lo, hi + 1)
        if (parity == "all" or n % 2 == (parity == "odd"))
        and find_canonical(n, max_terms, require_strong, sieve, exact_terms) is None
    )


@pytest.mark.parametrize("exact_terms", [False, True])
@pytest.mark.parametrize("require_strong", [False, True])
@pytest.mark.parametrize("max_terms", [1, 2, 3, 4])
def test_chunk_kernel_matches_per_n_search(sieve_10k, max_terms, require_strong, exact_terms):
    # [50, 3000] holds 87, whose first canonical partition 3 + 11 + 73 is not strong, and
    # 162, 178 and 180, whose only 4-part partitions fail the strong check at k = 4
    for parity in ("all", "odd", "even"):
        expected = _search_counterexamples(50, 3000, max_terms, require_strong, exact_terms, parity, sieve_10k)
        report = verify_strong_range(
            50, 3000, max_terms=max_terms, parity=parity, require_strong=require_strong,
            sieve=sieve_10k, exact_terms=exact_terms, workers=2, chunk_size=97,
        )
        assert report.counterexamples == expected
        single = verify_strong_range(
            50, 3000, max_terms=max_terms, parity=parity, require_strong=require_strong,
            sieve=sieve_10k, exact_terms=exact_terms, chunk_size=3001,
        )
        assert single.counterexamples == expected


def test_chunk_kernel_with_n_that_stay_open(sieve_10k):
    # 3 + 11 + 31 + 97 = 142 is the least 4-part canonical sum, so every even n below it stays open
    report = verify_strong_range(50, 400, max_terms=4, parity="even", sieve=sieve_10k,
                                 exact_terms=True, chunk_size=13)
    assert report.counterexamples == _search_counterexamples(50, 400, 4, False, True, "even", sieve_10k)
    assert set(range(50, 142, 2)) <= set(report.counterexamples)
