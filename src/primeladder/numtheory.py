"""Prime generation and primality queries: the arithmetic substrate."""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "CoverageExceededError",
    "PrimeSet",
    "sieve_primes",
    "primes_in",
    "is_prime",
]


class CoverageExceededError(ValueError):
    """A primality query exceeded the range covered by the sieve."""


class PrimeSet:
    """The set of primes in [2, limit] with O(1) membership queries.

    Membership is stored as one flag per odd number (2 is special-cased), so a
    10^7-scale table costs a few megabytes. Instances are immutable after
    construction and safe to share between threads or forked workers.

    Queries above `limit` raise CoverageExceededError instead of returning
    False: a silent miss would hide sizing bugs in long range scans.
    """

    __slots__ = ("limit", "_odd")

    def __init__(self, limit: int, odd_flags: np.ndarray):
        self.limit = int(limit)
        self._odd = odd_flags

    def __repr__(self) -> str:
        return f"PrimeSet(limit={self.limit})"

    def contains(self, k: int) -> bool:
        """True iff k is prime. k < 2 is False; k > limit is an error."""
        if k > self.limit:
            raise CoverageExceededError(
                f"query {k} exceeds sieve limit {self.limit}"
            )
        if k < 3:
            return k == 2
        if k % 2 == 0:
            return False
        return bool(self._odd[k >> 1])

    __contains__ = contains

    def contains_many(self, values: np.ndarray) -> np.ndarray:
        """Vectorized `contains` over an integer array."""
        v = np.asarray(values, dtype=np.int64)
        if v.size and int(v.max()) > self.limit:
            raise CoverageExceededError(
                f"query {int(v.max())} exceeds sieve limit {self.limit}"
            )
        # One bool and one int64 array the size of the query: the parity,
        # then the flag index, 0 (the flag of 1) for every even value and
        # clipped to 0 for negative ones.
        out = np.empty(v.shape, dtype=bool)
        np.bitwise_and(v, 1, out=out, casting="unsafe")
        idx = v >> 1
        idx *= out
        np.take(self._odd, idx, out=out, mode="clip")
        out |= v == 2
        return out

    def odd_flags(self) -> np.ndarray:
        """Read-only view of the table: flag i is True iff 2i + 1 is prime."""
        view = self._odd.view()
        view.flags.writeable = False
        return view


def sieve_primes(limit: int) -> PrimeSet:
    """Sieve of Eratosthenes over [2, limit], odd numbers only.

    Deterministic; limit < 2 raises ValueError.
    """
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    half = (limit + 1) // 2  # flag i covers the odd number 2i+1
    odd = np.ones(half, dtype=bool)
    odd[0] = False  # 1 is not prime
    for p in range(3, math.isqrt(limit) + 1, 2):
        if odd[p >> 1]:
            odd[(p * p) >> 1 :: p] = False
    return PrimeSet(limit, odd)


def primes_in(lo: int, hi: int, sieve: PrimeSet) -> np.ndarray:
    """Ascending primes p with lo <= p <= hi, as an int64 array."""
    if lo < 2 or lo > hi:
        raise ValueError(f"need 2 <= lo <= hi, got lo={lo}, hi={hi}")
    if hi > sieve.limit:
        raise CoverageExceededError(
            f"hi={hi} exceeds sieve limit {sieve.limit}"
        )
    i0 = max(lo, 3) >> 1
    i1 = (hi - 1) >> 1  # index of the last odd number <= hi
    if i1 >= i0:
        idx = np.flatnonzero(sieve._odd[i0 : i1 + 1])
        odd_primes = (idx + i0) * 2 + 1
    else:
        odd_primes = np.empty(0, dtype=np.int64)
    if lo <= 2 <= hi:
        return np.concatenate([np.array([2], dtype=np.int64), odd_primes])
    return odd_primes.astype(np.int64)


def is_prime(k: int) -> bool:
    """Trial-division primality check, for validating small arguments.

    Bulk scans should use a PrimeSet instead.
    """
    if k < 2:
        return False
    if k < 4:
        return True
    if k % 2 == 0:
        return False
    for d in range(3, math.isqrt(k) + 1, 2):
        if k % d == 0:
            return False
    return True
