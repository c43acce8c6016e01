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
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import count
from math import gcd
from typing import Callable, Iterator

import numpy as np

from .conjectures import RangeReport, _check_scan, _range_report, _run_spans
from .numtheory import CoverageExceededError, PrimeSet, is_prime, sieve_primes

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
    even, composite, dominance failure) returns False and never raises.
    """
    try:
        items = list(parts)
    except TypeError:
        return False
    if not items:
        return False
    seq = []
    for p in items:
        if isinstance(p, bool) or not isinstance(p, (int, np.integer)):
            return False
        seq.append(int(p))
    running = 0
    for j, p in enumerate(seq):
        if p == 2 or not is_prime(p):
            return False
        if j > 0 and p < 2 * running + 3:
            return False
        running += p
    return True


def sigma_tau(partition: Partition, k: int) -> SigmaTau:
    """The (sigma_k, tau_k) pair for 3 <= k <= m."""
    m = len(partition.parts)
    if not 3 <= k <= m:
        raise ValueError(f"k must satisfy 3 <= k <= {m}, got {k}")
    sigma, tau = _sigma_tau(partition.parts, k)
    return SigmaTau(k=k, sigma=sigma, tau=tau)


def _sigma_tau(parts, k: int):
    """(sigma_k, tau_k) of `parts`, whose k-th part may be an array of last parts."""
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


def _extensions(n: int, m: int, sieve: PrimeSet) -> Iterator[tuple[int, ...]]:
    """Canonical partitions of n with exactly m parts, lexicographic."""
    # a sum of m odd parts has the parity of m
    if n % 2 != m % 2:
        return
    for prefix, total in _prefixes(m, sieve, lambda: n):
        last = n - total
        if last >= 2 * total + 3 and sieve.contains(last):
            yield prefix + (last,)


def _check_args(n: int, max_terms: int) -> None:
    """n >= 3 and 1 <= max_terms <= MAX_TERMS_CAP, checked before any sieve is built."""
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if not 1 <= max_terms <= MAX_TERMS_CAP:
        raise ValueError(f"max_terms must be in 1..{MAX_TERMS_CAP}, got {max_terms}")


def _prepare(n: int, max_terms: int, sieve: PrimeSet | None) -> PrimeSet:
    _check_args(n, max_terms)
    if sieve is None:
        sieve = sieve_primes(n)
    if sieve.limit < n:
        raise CoverageExceededError(f"n={n} exceeds sieve limit {sieve.limit}")
    return sieve


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
    sieve = _prepare(n, max_terms, sieve)
    for m in range(1, max_terms + 1):
        for parts in _extensions(n, m, sieve):
            if not require_strong or _strong_ok(parts):
                return Partition(parts)
    return None


def enumerate_canonical(n: int, max_terms: int = 3) -> Iterator[Partition]:
    """All canonical partitions of n with at most max_terms parts.

    Yields in lexicographic order of the part tuples, from the sieve of [2, n].
    """
    sieve = _prepare(n, max_terms, None)
    collected = []
    for m in range(1, max_terms + 1):
        collected.extend(_extensions(n, m, sieve))
    for parts in sorted(collected):
        yield Partition(parts)


# ---------------------------------------------------------------------------
# Range verification
# ---------------------------------------------------------------------------


_PARTITION_BLOCK = 1 << 17  # n per kernel call and pool task: bounds the search's arrays


def _search_block(block: range, max_terms, require_strong, sieve) -> list[int]:
    """The n of `block` for which find_canonical finds nothing, ascending.

    The kernel of the partition scan: a block is a slice of the scan's
    eligible range, of step 1 for every n or 2 for one parity. The n array
    is built here, in the process that scans it, and the whole block is
    searched at once, in the manner of the Goldbach verifications of
    Oliveira e Silva, Herzog and Pardi (Math. Comp. 83, 2014). For each
    term count m, the open n of the parity of m are tested
    against each canonical (m-1)-part prefix in lexicographic order, in one
    vector step per prefix: n passes when its last part n - s (s the prefix sum) is a
    prime >= 2s + 3 and, for a strong partition with m >= 3, when
    sigma_m = 2s - p_{m-1} and tau_m = n + s + 1 are coprime. The n that
    pass are closed, and the walk ends once no prefix can complete to the
    largest n still open. Primality is read straight from the sieve's
    odd_flags() table, as the 2p+q kernels read it; the prefixes come from
    the checked scalar contains.
    """
    # ascending open n, by parity; with step 2 every n has the parity of the first
    first = block.start
    still_open = {first % 2: np.arange(first, block.stop, 2, dtype=np.int64),
                  1 - first % 2: np.arange(first + 1, block.stop if block.step == 1 else 0, 2, dtype=np.int64)}
    # Every last part n - s looked up is an odd number in [3, sieve.limit], so
    # its flag is at index (n - s) >> 1: it is odd because n has the parity
    # of m and s is a sum of m - 1 odd primes (s = 0 for m = 1, where n is
    # its own last part); n - s >= 2s + 3 >= 3 after the searchsorted cut,
    # and n - s <= n <= hi = sieve.limit. No index is negative, so one past
    # the table raises IndexError instead of wrapping.
    odd = sieve.odd_flags()
    for m in range(1, max_terms + 1):
        cand = still_open[m % 2]
        for prefix, total in _prefixes(m, sieve, lambda: int(cand[-1]) if cand.size else 0):
            if require_strong and not _strong_ok(prefix):
                continue
            first = int(np.searchsorted(cand, 3 * total + 3))
            tail = cand[first:]
            last = tail - total
            hit = odd[last >> 1]
            if require_strong and m >= 3:
                hit &= np.gcd(*_sigma_tau(prefix + (last,), m)) == 1
            if hit.any():
                cand = np.concatenate((cand[:first], tail[~hit]))
        still_open[m % 2] = cand
    return np.sort(np.concatenate((still_open[0], still_open[1]))).tolist()


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
    in blocks of 2^17 n, each one kernel call searched as a whole: for each
    term count, every open n of the block is tested against one canonical
    prefix at a time in a single vector step, and the prefix walk stops
    once it cannot reach the largest n still open. With workers > 1 the
    sieve and the search options reach each worker once, each block is one
    pool task, and at most 2 * workers blocks are in flight. Blocks are
    searched independently and merged ascending, so the report does not
    depend on the worker count. A partition scan keeps no checkpoint and
    cuts no chunks; its report shows RangeReport's default chunk_size. The
    sample witnesses are the partitions find_canonical returns for the
    first and the last five eligible n. elapsed_seconds counts the sieve.
    """
    if not (50 <= lo <= hi):
        raise ValueError(f"need 50 <= lo <= hi, got [{lo}, {hi}]")
    if parity not in ("all", "odd", "even"):
        raise ValueError(f"parity must be all|odd|even, got {parity!r}")
    _check_args(lo, max_terms)
    _check_scan(hi, None, workers)

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
