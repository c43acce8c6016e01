"""Canonical partitions of integers into odd primes, and their strengthening.

A canonical partition of n is a sequence of odd primes p_1, ..., p_m summing
to n with p_j >= 2*(p_1 + ... + p_{j-1}) + 3 for every j > 1. A labeling
construction built on such a partition places the values

    sigma_k = 2*(p_1 + ... + p_{k-2}) + p_{k-1}
    tau_k   = 2*(p_1 + ... + p_{k-1}) + p_k + 1

on adjacent vertices for each 3 <= k <= m, so the construction only yields a
prime labeling when every such pair is coprime. Partitions with that extra
property are called strong; (3, 11, 73) for 87 is the classic canonical
partition that is not strong (sigma_3 = 17 divides tau_3 = 102), while
(3, 17, 67) is strong.

The partitions of one n come from one walk, `_extensions`, by ascending
term count and lexicographic within one count: find_canonical takes the
first that passes the strong filter, enumerate_canonical sorts them all.
verify_strong_range walks the same prefixes once per block of n in
`_search_block`, and builds no array of n: with prefix sum s, the last
parts n - s of a block's n of one parity are consecutive odd numbers, so
one slice of the sieve's prime table closes every n the prefix completes.
For the strong test, sigma_m is one number per prefix and tau_m = n + s + 1
steps by 2 along the slice, so each prime of sigma_m clears one strided
slice of a copy of it, in place of a gcd per n.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import count
from math import gcd
from typing import Callable, Iterator

import numpy as np

from .conjectures import RangeReport, _check_scan, _range_report, _run_spans
from .numtheory import (
    PrimeSet, _is_integer, _prime_factors, _require_integers, _require_sieve, is_prime, sieve_primes,
)

__all__ = [
    "Partition",
    "SigmaTau",
    "is_canonical",
    "sigma_tau",
    "is_strong",
    "find_canonical",
    "enumerate_canonical",
    "verify_strong_range",
]

MAX_TERMS_CAP = 4  # enumeration with unbounded m is never needed


@dataclass(frozen=True)
class Partition:
    """A canonical partition of n into odd primes; n is their sum.

    Building one checks is_canonical once, and raises ValueError when the
    parts are not canonical.
    """

    parts: tuple[int, ...]

    def __post_init__(self):
        if not is_canonical(self.parts):
            raise ValueError(f"{self.parts!r} is not a canonical partition")
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))

    @property
    def n(self) -> int:
        return sum(self.parts)


@dataclass(frozen=True)
class SigmaTau:
    """The adjacent pair produced at the k-th partition boundary."""

    k: int
    sigma: int
    tau: int


def is_canonical(parts) -> bool:
    """True iff `parts` is a canonical partition.

    A predicate over arbitrary sequences: malformed input (empty, non-integer,
    even, composite, dominance failure) returns False. It raises only
    is_prime's ValueError for a part too large for it to decide.
    """
    try:
        seq = list(parts)
    except TypeError:
        return False
    # every element is known to be an integer before any is trial-divided
    if not seq or not all(_is_integer(p) for p in seq):
        return False
    running = 0
    for p in map(int, seq):
        if p == 2 or not is_prime(p) or running and p < 2 * running + 3:
            return False
        running += p
    return True


def sigma_tau(partition: Partition, k: int) -> SigmaTau:
    """The (sigma_k, tau_k) pair for 3 <= k <= m."""
    (k,) = _require_integers(k=k)
    m = len(partition.parts)
    if not 3 <= k <= m:
        raise ValueError(f"k must satisfy 3 <= k <= {m}, got {k}")
    return SigmaTau(k, *_sigma_tau(partition.parts, k))


def _sigma_tau(parts, k: int):
    """(sigma_k, tau_k) of `parts`, a sequence of at least k integers."""
    return 2 * sum(parts[: k - 2]) + parts[k - 2], 2 * sum(parts[: k - 1]) + parts[k - 1] + 1


def _strong_ok(parts: tuple[int, ...]) -> bool:
    return all(gcd(*_sigma_tau(parts, k)) == 1 for k in range(3, len(parts) + 1))


def is_strong(partition: Partition) -> bool:
    """True iff sigma_k and tau_k are coprime for every 3 <= k <= m.

    Partitions with at most two terms are vacuously strong. A Partition is
    canonical once built, so nothing is checked again here.
    """
    return _strong_ok(partition.parts)


def _min_completion(total: int, terms_left: int) -> int:
    """Lower bound on the sum after adding `terms_left` dominated parts."""
    for _ in range(terms_left):
        total += 2 * total + 3
    return total


def _prefixes(
    m: int,
    sieve: PrimeSet,
    limit: Callable[[], int],
    prefix: tuple[int, ...] = (),
    total: int = 0,
) -> Iterator[tuple[tuple[int, ...], int]]:
    """(prefix, sum) for the first m - 1 parts of canonical m-part partitions, lexicographic.

    For m = 1 the one prefix is the empty one, with sum 0.

    A branch ends once the least sum it can complete to exceeds limit(); the
    bound is read again for every candidate part, so a caller may lower it
    between prefixes.
    """
    if len(prefix) == m - 1:
        yield prefix, total
        return
    terms_left = m - len(prefix) - 1  # parts still to come after this one
    for p in count(2 * total + 3, 2):  # 3 for the first part, where total is 0
        if _min_completion(total + p, terms_left) > limit():
            break
        if sieve.contains(p):
            yield from _prefixes(m, sieve, limit, prefix + (p,), total + p)


def _extensions(n: int, max_terms: int, sieve: PrimeSet) -> Iterator[tuple[int, ...]]:
    """Canonical partitions of n with at most max_terms parts.

    By ascending term count, lexicographic within one count. A sum of m odd
    parts has the parity of m, so only the counts of n's parity are walked.
    """
    for m in range(2 - n % 2, max_terms + 1, 2):
        for prefix, total in _prefixes(m, sieve, lambda: n):
            last = n - total
            if last >= 2 * total + 3 and sieve.contains(last):
                yield prefix + (last,)


def _check_args(n: int, max_terms: int, require_strong: bool = False) -> tuple[int, int]:
    """Integers n >= 3 and 1 <= max_terms <= MAX_TERMS_CAP, and a bool require_strong.

    Checked before any sieve is built. A bool or a float is rejected as an
    integer, not read as a number, and anything but a bool as
    require_strong, not read by its truth value. Returns (n, max_terms) as
    Python ints.
    """
    n, max_terms = _require_integers(n=n, max_terms=max_terms)
    if not isinstance(require_strong, (bool, np.bool_)):
        raise ValueError(f"require_strong must be a bool, got {require_strong!r}")
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if not 1 <= max_terms <= MAX_TERMS_CAP:
        raise ValueError(f"max_terms must be in 1..{MAX_TERMS_CAP}, got {max_terms}")
    return n, max_terms


def _prepare(n: int, max_terms: int, require_strong: bool, sieve: PrimeSet | None) -> tuple[int, int, PrimeSet]:
    n, max_terms = _check_args(n, max_terms, require_strong)
    if sieve is None:
        sieve = sieve_primes(n)
    _require_sieve(sieve, n=n)
    return n, max_terms, sieve


def find_canonical(
    n: int,
    max_terms: int = 3,
    require_strong: bool = False,
    sieve: PrimeSet | None = None,
) -> Partition | None:
    """First canonical partition of n with at most max_terms parts, or None.

    Searches ascending term count, lexicographic on parts within each
    count; with require_strong, non-strong candidates are skipped.
    """
    n, max_terms, sieve = _prepare(n, max_terms, require_strong, sieve)
    for parts in _extensions(n, max_terms, sieve):
        if not require_strong or _strong_ok(parts):
            return Partition(parts)
    return None


def enumerate_canonical(n: int, max_terms: int = 3) -> Iterator[Partition]:
    """All canonical partitions of n with at most max_terms parts.

    Yields in lexicographic order of the part tuples, from the sieve of
    [2, n]. The arguments are checked and the partitions found when it is
    called, not when it is first iterated.
    """
    n, max_terms, sieve = _prepare(n, max_terms, False, None)
    return (Partition(parts) for parts in sorted(_extensions(n, max_terms, sieve)))


# ---------------------------------------------------------------------------
# Range verification
# ---------------------------------------------------------------------------


_PARTITION_BLOCK = 1 << 17  # n per kernel call and pool task: bounds the search's arrays


def _search_block(block: range, max_terms, require_strong, sieve) -> list[int]:
    """The n of `block` for which find_canonical finds nothing, ascending.

    The kernel of the partition scan, shaped like the 2p+q kernel
    `_scan_chunk`: no array of n is built, and each prefix reads one slice
    of the sieve's odd_flags() table. A block is a slice of the scan's
    eligible range, of step 1 for every n or 2 for one parity; its n of one
    parity form a span of step 2 with one bool `open` flag each. For each
    term count m, the span of m's parity is tested against each canonical
    (m-1)-part prefix in lexicographic order: with prefix sum s, n passes
    when its last part n - s is a prime >= 2s + 3, that is n >= 3s + 3.
    The flags of those last parts are consecutive in the table, so one
    `np.greater(open, hit, out=open)` (open and not hit) closes every n
    that passes. A strong partition with m >= 3 also needs sigma_m =
    2s - p_{m-1}, one odd integer per prefix, coprime to tau_m = n + s + 1,
    which steps by 2 along the span: the tau_m that a prime r of sigma_m
    divides lie r flags apart, so each r clears one strided slice of a
    copy of the flags before they close n. The walk ends once no prefix
    can complete to the largest n still open, which is found again every
    eighth prefix. This is the segmented search of the Goldbach
    verifications of Oliveira e Silva, Herzog and Pardi (Math. Comp. 83,
    2014); the prefixes come from the checked scalar contains.
    """
    odd = sieve.odd_flags()
    spans = [block] if block.step == 2 else [block[0::2], block[1::2]]
    opens = [np.ones(len(span), dtype=bool) for span in spans]
    for m in range(1, max_terms + 1):
        for span, open_ in zip(spans, opens):
            if span and span.start % 2 == m % 2:
                _close_span(span, open_, m, require_strong, odd, sieve)
    merged = np.empty(len(block), dtype=bool)
    for k, open_ in enumerate(opens):
        merged[k::len(opens)] = open_
    return (block.start + block.step * np.flatnonzero(merged)).tolist()


def _close_span(span: range, open_: np.ndarray, m: int, require_strong: bool, odd: np.ndarray, sieve) -> None:
    """Clear open[i] for each n = span[i] with an m-part (strong) canonical partition.

    Flag j of odd is the odd number 2j + 1, and n - s is odd (n has the
    parity of m, s is a sum of m - 1 odd primes), so the last parts of
    span[i0:] are the flags odd[base + i0:base + len(span)]. Each slice
    starts at index 1 or more, since n >= 3s + 3 gives n - s >= 2s + 3 >= 3,
    and ends at or below hi >> 1, since the last n's n - s is an odd number
    <= hi. verify_strong_range's sieve of [2, hi] holds that flag, so every
    slice has one flag per n of open[i0:]. The kernel relies on that
    coverage: NumPy would broadcast a slice cut short to one flag across
    open[i0:]. A span with no open n returns at once.
    """
    if not open_.any():
        return
    n0, count = span.start, len(span)
    top = span[-1]  # no smaller than the largest open n
    for k, (prefix, s) in enumerate(_prefixes(m, sieve, lambda: top), 1):
        if k % 8 == 0:
            left = np.flatnonzero(open_)
            top = span[left[-1]] if left.size else 0
        if require_strong and not _strong_ok(prefix):
            continue
        i0 = max(0, (3 * s + 4 - n0) // 2)  # the first i with span[i] >= 3s + 3
        if i0 >= count:
            continue
        base = (n0 >> 1) - ((s + 1) >> 1)  # the flag of span[i] - s is base + i
        hit = odd[base + i0:base + count]
        if require_strong and m >= 3:
            # tau_m at hit[j] is 2 * (half_tau0 + j) and r is odd, so r
            # divides it at every r-th j from -half_tau0 mod r
            hit = hit.copy()
            half_tau0 = (n0 + 2 * i0 + s + 1) >> 1
            for r in _prime_factors(2 * s - prefix[-1]):
                hit[-half_tau0 % r::r] = False
        np.greater(open_[i0:], hit, out=open_[i0:])


def verify_strong_range(
    lo: int,
    hi: int,
    max_terms: int = 3,
    parity: str = "all",
    require_strong: bool = False,
    workers: int = 1,
) -> RangeReport:
    """Check each eligible n in [lo, hi] for a (strong) canonical partition.

    parity filters the scan to "odd", "even", or "all" n. A counterexample
    is an n for which find_canonical with the same max_terms and
    require_strong finds nothing.

    The sieve of [2, hi] is built once the arguments have passed their
    checks. The eligible n run through the span driver the 2p+q scan uses,
    in blocks of 2^17 n, each one kernel call, `_search_block`, searched as
    a whole: for each term count, the open n of the block are tested
    against one canonical prefix at a time by one slice of the prime table
    (and one strided clear of a copy of it per prime of sigma_m for the
    strong test), and the prefix walk stops once it cannot reach the
    largest n still open. With workers > 1 the
    sieve and the search options reach each worker once, each block is one
    pool task, and at most 2 * workers blocks are in flight. Blocks are
    searched independently and merged ascending, so the report does not
    depend on the worker count. A partition scan keeps no checkpoint and
    cuts no chunks; its report shows RangeReport's default chunk_size. The
    sample witnesses are the partitions find_canonical returns for the
    first and the last five eligible n. elapsed_seconds counts the sieve.
    """
    lo, hi, workers = _check_scan(lo, hi, 50, workers)
    if parity not in ("all", "odd", "even"):
        raise ValueError(f"parity must be all|odd|even, got {parity!r}")
    _, max_terms = _check_args(lo, max_terms, require_strong)

    t0 = time.monotonic()
    sieve = sieve_primes(hi)
    if parity == "all":
        eligible = range(lo, hi + 1)
    else:
        eligible = range(lo if lo % 2 == (parity == "odd") else lo + 1, hi + 1, 2)
    counterexamples: list[int] = []
    _run_spans(_search_block, eligible, _PARTITION_BLOCK, (max_terms, require_strong, sieve), workers,
               lambda span, bad: counterexamples.extend(bad))

    def witness(n: int):
        found = find_canonical(n, max_terms, require_strong, sieve)
        return None if found is None else found.parts

    kind = "strong_canonical_partition" if require_strong else "canonical_partition"
    return _range_report(f"{kind}_le{max_terms}", lo, hi, parity, eligible, counterexamples, witness, t0)
