import hashlib
import json
import time
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeladder import partitions
from primeladder.conjectures import RangeReport
from primeladder.numtheory import CoverageExceededError, PrimeSet, is_prime, sieve_primes
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

# Blocks of 1001 n: with partitions._PARTITION_BLOCK patched to it, the scans
# below make several kernel calls, and their pooled runs send several blocks
# to the pool.
_UNEVEN_BLOCK = 1001


def test_partition_outputs_are_pinned():
    # One sha1 over the strong-partition range reports with CI's options and
    # with the benchmark's, the first partition of every n <= 5000 for every
    # term count and strength, and every partition of n <= 500 with up to 4
    # terms: a change to the search must leave all of them byte-identical.
    sieve = sieve_primes(200_000)
    digest = hashlib.sha1()
    for options in (dict(max_terms=3, require_strong=True),
                    dict(max_terms=4, parity="all", require_strong=True)):
        report = verify_strong_range(50, 200_000, sieve=sieve, **options).to_json_dict()
        report.pop("elapsed_seconds")
        digest.update(json.dumps(report, sort_keys=True).encode("ascii"))
    for n in range(3, 5001):
        for max_terms in range(1, 5):
            for require_strong in (False, True):
                found = find_canonical(n, max_terms, require_strong=require_strong, sieve=sieve)
                digest.update(repr(None if found is None else found.parts).encode("ascii"))
    for n in range(3, 501):
        digest.update(repr([p.parts for p in enumerate_canonical(n, 4)]).encode("ascii"))
    assert digest.hexdigest() == "c1fb11efb382c3332b8be5582c2e558b7f17f004"


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


def test_sigma_parity():
    for n in (87, 501, 1999, 4001):
        for partition in enumerate_canonical(n, 3):
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


def test_strong_matches_formula_specialization():
    for n in (87, 1001, 2499):
        for partition in enumerate_canonical(n, 3):
            if len(partition.parts) != 3:
                continue
            p1, p2, p3 = partition.parts
            expect = gcd(2 * p1 + p2, 2 * (p1 + p2) + p3 + 1) == 1
            assert is_strong(partition) == expect


def test_is_strong_matches_sigma_tau():
    for n in (87, 1001, 2499, 9001):
        for partition in enumerate_canonical(n, 4):
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
    with pytest.raises(ValueError, match="not a canonical partition"):
        Partition((3, 5))  # odd primes, but 5 < 2 * 3 + 3
    assert Partition((3, 11, 73)).n == 87


def test_partition_checks_each_part_once(monkeypatch):
    # building a Partition checks that it is canonical, one is_prime per
    # part, and is_strong does not check it again
    calls = []
    monkeypatch.setattr(partitions, "is_prime", lambda p: calls.append(p) or is_prime(p))
    partition = Partition((3, 17, 67))
    assert is_strong(partition)
    assert calls == [3, 17, 67]


def test_enumerate_87():
    assert [p.parts for p in enumerate_canonical(87, 3)] == ORACLE_87


def test_enumerate_empty_cases():
    assert list(enumerate_canonical(6, 3)) == []
    assert list(enumerate_canonical(27, 3)) == []


@pytest.mark.parametrize("n", sorted(ORACLE_COUNTS))
def test_enumerate_counts(n):
    assert sum(1 for _ in enumerate_canonical(n, 3)) == ORACLE_COUNTS[n]


def test_enumerate_lexicographic():
    for n in (87, 200, 3001):
        parts = [p.parts for p in enumerate_canonical(n, 4)]
        assert parts == sorted(parts)


def test_find_reference_cases(sieve_10k):
    assert find_canonical(7, 1, sieve=sieve_10k).parts == (7,)
    assert find_canonical(89, 3, sieve=sieve_10k).parts == (89,)  # the 1-term partition comes first
    assert find_canonical(27, 3, sieve=sieve_10k) is None
    found = find_canonical(87, 3, require_strong=True, sieve=sieve_10k)
    assert found.parts == (3, 13, 71)
    assert is_strong(found)
    # first canonical partition regardless of strength is the weak one
    assert find_canonical(87, 3, sieve=sieve_10k).parts == (3, 11, 73)


def test_find_agrees_with_enumeration(sieve_10k):
    for n in range(50, 600):
        all_parts = list(enumerate_canonical(n, 3))
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
    strong = verify_strong_range(51, 1999, max_terms=3, parity="odd", require_strong=True, sieve=sieve_10k)
    assert strong.counterexamples == ()
    assert strong.verified_count == 975
    assert strong.conjecture == "strong_canonical_partition_le3"
    for n, parts in strong.sample_witnesses.items():
        assert n % 2 == 1 and sum(parts) == n and is_strong(Partition(parts))


def test_verify_strong_range_single_n(sieve_10k):
    report = verify_strong_range(50, 50, sieve=sieve_10k)
    assert report.verified_count == 1
    assert report.counterexamples == ()
    assert 50 in report.sample_witnesses


def test_verify_strong_range_elapsed_counts_its_sieve(monkeypatch):
    # as for the 2p+q scan, the sieve the call builds is part of its time
    def slow_sieve(limit):
        time.sleep(0.2)
        return sieve_primes(limit)

    monkeypatch.setattr(partitions, "sieve_primes", slow_sieve)
    assert verify_strong_range(50, 200).elapsed_seconds >= 0.2


def test_verify_strong_range_workers_deterministic(sieve_10k, monkeypatch):
    monkeypatch.setattr(partitions, "_PARTITION_BLOCK", _UNEVEN_BLOCK)
    kw = dict(max_terms=3, parity="odd", require_strong=True, sieve=sieve_10k)
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
    for max_terms in (0, 5):
        with pytest.raises(ValueError, match="max_terms"):
            verify_strong_range(50, 3000, max_terms=max_terms, sieve=sieve_10k, workers=2)
    assert len(verify_strong_range(50, 3000, max_terms=1, sieve=sieve_10k).counterexamples) == 2536


def _search_counterexamples(lo, hi, max_terms, require_strong, parity, sieve):
    """The counterexamples of verify_strong_range, from the per-n search."""
    return tuple(
        n for n in range(lo, hi + 1)
        if (parity == "all" or n % 2 == (parity == "odd"))
        and find_canonical(n, max_terms, require_strong, sieve) is None
    )


@pytest.mark.parametrize("pooled", [False, True])
@pytest.mark.parametrize("require_strong", [False, True])
@pytest.mark.parametrize("max_terms", [1, 2, 3, 4])
def test_chunk_kernel_matches_per_n_search(sieve_10k, monkeypatch, max_terms, require_strong, pooled):
    # [50, 3000] holds 87, whose first canonical partition 3 + 11 + 73 is not strong, and
    # 162, 178 and 180, whose only 4-part partitions fail the strong check at k = 4
    monkeypatch.setattr(partitions, "_PARTITION_BLOCK", _UNEVEN_BLOCK)
    for parity in ("all", "odd", "even"):
        report = verify_strong_range(
            50, 3000, max_terms=max_terms, parity=parity, require_strong=require_strong,
            sieve=sieve_10k, workers=2 if pooled else 1,
        )
        assert report.counterexamples == _search_counterexamples(
            50, 3000, max_terms, require_strong, parity, sieve_10k)


def test_chunk_kernel_with_n_that_stay_open(sieve_10k, monkeypatch):
    # no even n has a 1-part partition, so every n stays open; blocks of 40
    # n put them in several kernel calls
    monkeypatch.setattr(partitions, "_PARTITION_BLOCK", 40)
    report = verify_strong_range(50, 400, max_terms=1, parity="even", sieve=sieve_10k)
    assert report.counterexamples == tuple(range(50, 401, 2))
    assert report.counterexamples == _search_counterexamples(50, 400, 1, False, "even", sieve_10k)


@pytest.mark.parametrize("parity", ["all", "odd", "even"])
def test_span_searched_in_blocks(sieve_10k, monkeypatch, parity):
    # [50, 3000] searched in blocks of 99 n, which start on n of both
    # parities when every n is scanned
    monkeypatch.setattr(partitions, "_PARTITION_BLOCK", 99)
    for max_terms, require_strong in ((3, True), (4, False), (4, True)):
        report = verify_strong_range(50, 3000, max_terms=max_terms, parity=parity, require_strong=require_strong,
                                     sieve=sieve_10k)
        assert report.counterexamples == _search_counterexamples(
            50, 3000, max_terms, require_strong, parity, sieve_10k)


@pytest.mark.parametrize("thinned", [False, True])
@pytest.mark.parametrize("hi", [997, 998])
def test_scan_ending_at_the_table_end(hi, thinned):
    # hi == sieve.limit: the last lone n, 997 for both, reads the table's
    # last flag, and each last part n - s reads near it. With the true table
    # no n >= 50 lacks a partition of 2 or more terms, so a misread last part
    # could still close every n; the thinned table keeps only 3 and the
    # primes = 5 mod 6, which leaves such n open.
    sieve = sieve_primes(hi)
    if thinned:
        flags = sieve.odd_flags().copy()
        flags[::3] = False  # flag i is 2i + 1: every odd number = 1 mod 6
        sieve = PrimeSet(hi, flags)
    for max_terms in (1, 2, 3, 4):
        for require_strong in (False, True):
            every = _search_counterexamples(hi - 299, hi, max_terms, require_strong, "all", sieve)
            for parity in ("all", "odd", "even"):
                report = verify_strong_range(hi - 299, hi, max_terms=max_terms, parity=parity,
                                             require_strong=require_strong, sieve=sieve)
                assert report.counterexamples == tuple(
                    n for n in every if parity == "all" or n % 2 == (parity == "odd"))
