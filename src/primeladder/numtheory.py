"""Prime generation and primality queries: the arithmetic substrate.

`sieve_primes(limit)` builds the table every scan and construction reads: one
bool flag per odd number up to `limit` (flag i is 2i + 1), wrapped in a
read-only `PrimeSet`. It is built in three steps, all in the one table:

1. A wheel fill. The odd multiples of 3, 5, 7, 11 and 13 repeat every
   3·5·7·11·13 = 15,015 flags, so one period of that pattern is copied in and
   then doubled until the table is full; 3 to 13 are marked prime again and 1
   not prime.
2. The first segment, at least `_SEGMENT` flags and always reaching
   sqrt(limit), is sieved by each prime p >= 17 read from the table itself,
   from p² on. Reaching sqrt(limit) makes every p read there a prime.
3. Every later segment of `_SEGMENT` flags is struck by those same primes,
   each from the larger of p² and its first odd multiple in the segment. A
   segment fits in a core's L2 cache, so each prime's strided writes stay
   there instead of sweeping the whole table once per prime.

The flags equal those of a plain odd-only sieve of Eratosthenes for every
limit. `primes_in` lists the primes of a range and `is_prime` checks one
small number by trial division.
"""

from __future__ import annotations

import math
import operator

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
        self.limit = _as_limit(limit)
        half = (self.limit + 1) // 2
        # the scan kernels index with ~flags, which on any other dtype turns
        # into an integer index and miscounts instead of failing
        if not (isinstance(odd_flags, np.ndarray) and odd_flags.dtype == bool and odd_flags.shape == (half,)):
            shape = getattr(odd_flags, "shape", None)
            dtype = getattr(odd_flags, "dtype", type(odd_flags).__name__)
            raise ValueError(
                f"odd_flags for limit {self.limit} must be a 1-D bool array of "
                f"{half} flags, got dtype {dtype} and shape {shape}"
            )
        self._odd = odd_flags.view()
        self._odd.flags.writeable = False

    def __reduce__(self):
        # a copy sent to a worker is validated and made read-only again
        return PrimeSet, (self.limit, self._odd)

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
        return self._odd.view()


def _as_limit(limit) -> int:
    """limit as a Python int; anything but an integer raises TypeError."""
    try:
        return operator.index(limit)
    except TypeError:
        raise TypeError(f"sieve limit must be an integer, got {limit!r}") from None


_WHEEL = 3 * 5 * 7 * 11 * 13  # flags per period of the wheel pattern
_SEGMENT = 1 << 20  # flags per segment: 1 MB, within a 2 MB per-core L2 cache


def _wheel_pattern() -> np.ndarray:
    """One period of flags with every odd multiple of 3, 5, 7, 11 and 13 False.

    Flag i + _WHEEL is 2i + 1 + 2·_WHEEL, and 2·_WHEEL is a multiple of each
    of those primes, so the whole table repeats this period.
    """
    pattern = np.ones(_WHEEL, dtype=bool)
    for p in (3, 5, 7, 11, 13):
        pattern[p >> 1 :: p] = False
    pattern.flags.writeable = False
    return pattern


_WHEEL_PATTERN = _wheel_pattern()


def sieve_primes(limit: int) -> PrimeSet:
    """Sieve of Eratosthenes over [2, limit], odd numbers only, in segments.

    Deterministic; a limit that is not an integer raises TypeError, and
    limit < 2 raises ValueError. See the module docstring for the steps.
    """
    limit = _as_limit(limit)
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    half = (limit + 1) // 2  # flag i covers the odd number 2i+1
    odd = np.empty(half, dtype=bool)
    filled = min(half, _WHEEL)
    odd[:filled] = _WHEEL_PATTERN[:filled]
    while filled < half:  # filled stays a whole number of periods
        step = min(filled, half - filled)
        odd[filled : filled + step] = odd[:step]
        filled += step
    odd[0] = False  # 1 is not prime
    odd[1:4] = True  # 3, 5, 7
    odd[5:7] = True  # 11, 13

    root = math.isqrt(limit)
    first = min(half, max(_SEGMENT, (root >> 1) + 1))
    primes = []
    for p in range(17, root + 1, 2):
        if odd[p >> 1]:
            odd[(p * p) >> 1 : first : p] = False
            primes.append(p)

    ps = np.array(primes, dtype=np.int64)
    squares = (ps * ps) >> 1  # flag index of p²
    for lo in range(first, half, _SEGMENT):
        hi = min(lo + _SEGMENT, half)
        k = int(np.searchsorted(squares, hi))  # the primes with p² below hi
        # offset in the segment of p's first odd multiple (flag index
        # congruent to p >> 1 mod p) at or after lo, and not below p²
        starts = np.maximum(((ps[:k] >> 1) - lo) % ps[:k], squares[:k] - lo)
        segment = odd[lo:hi]
        for p, s in zip(primes[:k], starts.tolist()):
            segment[s::p] = False
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
