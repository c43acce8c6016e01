"""Prime generation and primality queries: the arithmetic substrate.

`sieve_primes(limit)` builds the table every scan and construction reads: one
bool flag per odd number up to `limit` (flag i is 2i + 1), wrapped in a
read-only `PrimeSet`. It is built in two steps, all in the one table:

1. A wheel fill. The odd multiples of 3, 5, 7, 11 and 13 repeat every
   3·5·7·11·13 = 15,015 flags, so one period of that pattern is repeated by
   `np.resize` to fill the table; 3 to 13 are marked prime again and 1 not
   prime.
2. Every segment of `_SEGMENT` flags, the first one included, is struck by
   the primes 17..sqrt(limit), which come from the sieve of sqrt(limit); each
   prime strikes from the larger of p² and its first odd multiple in the
   segment. A segment fits in a core's L2 cache, so each prime's strided
   writes stay there instead of sweeping the whole table once per prime.

The flags equal those of a plain odd-only sieve of Eratosthenes for every
limit. A `PrimeSet` is read in two ways: `contains` answers one checked
query, and the scan kernels index the read-only `odd_flags()` table
themselves, whole arrays at a time. `primes_in` lists the primes of a range
and `is_prime` checks one small number by trial division.
"""

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


def _is_integer(v) -> bool:
    """Whether v is a Python or NumPy integer and not a bool, which NumPy reads as 0 or 1."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _require_integers(**values) -> list[int]:
    """The `values` as Python ints, in order, once each is checked.

    ValueError names the first that is not an integer by _is_integer's
    rule. A NumPy integer comes back as an int, so nothing a caller derives
    from it is a NumPy scalar, which JSON and int methods such as
    bit_length reject.
    """
    for name, v in values.items():
        if not _is_integer(v):
            raise ValueError(f"{name} must be an integer, got {v!r}")
    return [int(v) for v in values.values()]


class CoverageExceededError(ValueError):
    """A primality query exceeded the range covered by the sieve."""


class PrimeSet:
    """The set of primes in [2, limit] with O(1) membership queries.

    Membership is stored as one flag per odd number (2 is special-cased), so a
    10^7-scale table costs a few megabytes. Instances are immutable after
    construction and safe to share between threads or forked workers.

    There are two ways to read it. `contains(k)` is the checked scalar query
    for per-n searches: any int, with a k above `limit` raising
    CoverageExceededError instead of returning False, since a silent miss
    would hide sizing bugs in long range scans. `odd_flags()` is the
    read-only table for the vectorised kernels, which index it with
    odd >> 1 for odd values they have shown to lie in [3, limit].
    """

    __slots__ = ("limit", "_odd")

    def __init__(self, limit: int, odd_flags: np.ndarray):
        (self.limit,) = _require_integers(limit=limit)
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

    def odd_flags(self) -> np.ndarray:
        """Read-only view of the table: flag i is True iff 2i + 1 is prime."""
        return self._odd.view()


def _require_sieve(sieve, **covered: int) -> None:
    """ValueError unless `sieve` is a PrimeSet, then CoverageExceededError unless it covers each of `covered`.

    The type is checked before anything reads an attribute of the sieve.
    Each keyword names a value the caller will look up: the first above
    the sieve's limit is named in the error, as "n=..." or "hi=...".
    """
    if not isinstance(sieve, PrimeSet):
        raise ValueError(f"sieve must be a PrimeSet, got {sieve!r}")
    for name, v in covered.items():
        if v > sieve.limit:
            raise CoverageExceededError(f"{name}={v} exceeds sieve limit {sieve.limit}")


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

    Deterministic; a limit that is not an integer (a bool or a float) or
    is below 2 raises ValueError. See the module docstring for the steps.
    """
    (limit,) = _require_integers(limit=limit)
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    return PrimeSet(limit, _odd_flags(limit))


def _odd_flags(limit: int) -> np.ndarray:
    """The odd-number table of sieve_primes(limit), for limit >= 1.

    The primes that strike it come from this function's own table of
    sqrt(limit), not from sieve_primes, so a tracer that wraps sieve_primes
    records one call per PrimeSet built.
    """
    half = (limit + 1) // 2  # flag i covers the odd number 2i+1
    odd = np.resize(_WHEEL_PATTERN, half)
    odd[0] = False  # 1 is not prime
    odd[1:4] = True  # 3, 5, 7
    odd[5:7] = True  # 11, 13

    root = math.isqrt(limit)
    small = _odd_flags(root) if root >= 17 else odd[:0]
    ps = 2 * np.flatnonzero(small[8:]) + 17  # the primes 17..root; flag 8 is 17
    primes = ps.tolist()
    squares = (ps * ps) >> 1  # flag index of p²
    for lo in range(0, half, _SEGMENT):
        hi = min(lo + _SEGMENT, half)
        k = int(np.searchsorted(squares, hi))  # the primes with p² below hi
        # offset in the segment of p's first odd multiple (flag index
        # congruent to p >> 1 mod p) at or after lo, and not below p²
        starts = np.maximum(((ps[:k] >> 1) - lo) % ps[:k], squares[:k] - lo)
        segment = odd[lo:hi]
        for p, s in zip(primes[:k], starts.tolist()):
            segment[s::p] = False
    return odd


def primes_in(lo: int, hi: int, sieve: PrimeSet) -> np.ndarray:
    """Ascending primes p with lo <= p <= hi, as an int64 array.

    A lo or hi that is not an integer (a bool or a float), or a sieve that
    is not a PrimeSet, raises ValueError.
    """
    lo, hi = _require_integers(lo=lo, hi=hi)
    _require_sieve(sieve, hi=hi)
    if lo < 2 or lo > hi:
        raise ValueError(f"need 2 <= lo <= hi, got lo={lo}, hi={hi}")
    i0 = max(lo, 3) >> 1
    i1 = (hi - 1) >> 1  # index of the last odd number <= hi
    odd_primes = (np.flatnonzero(sieve.odd_flags()[i0 : i1 + 1]) + i0) * 2 + 1
    if lo <= 2 <= hi:
        return np.concatenate([np.array([2], dtype=np.int64), odd_primes])
    return odd_primes.astype(np.int64)


def is_prime(k: int) -> bool:
    """Trial-division primality check, for validating small arguments.

    Anything but an integer raises ValueError. Bulk scans should use a
    PrimeSet instead.
    """
    (k,) = _require_integers(k=k)
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
