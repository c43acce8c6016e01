"""Witness search and range verification for additive prime conjectures.

The central claim checked here: every odd n >= 7 can be written n = 2p + q
with p, q prime, q odd, and p < 2q. A witness (p, q) for an odd n is exactly
what the 2p+q ladder construction needs, so a verified range of this claim
is a verified range of ladder orders. Goldbach decompositions of even n are
provided for coverage reporting only.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .numtheory import CoverageExceededError, PrimeSet, is_prime, primes_in
from .textio import format_int_rows

__all__ = [
    "LemoineWitness",
    "RangeReport",
    "CheckpointError",
    "WitnessNotFoundError",
    "find_lemoine",
    "find_goldbach",
    "verify_lemoine_range",
    "LEMOINE_CONJECTURE_ID",
    "DEFAULT_CHUNK_SIZE",
]

LEMOINE_CONJECTURE_ID = "strengthened_lemoine"
CHECKPOINT_VERSION = 1
REPORT_VERSION = 1
DEFAULT_CHUNK_SIZE = 1 << 16  # odd values per work chunk
_WITNESS_BLOCK = 1 << 13  # witness CSV rows formatted at a time
_SPARSE_BELOW = 32  # the scan kernel's sparse phase starts below 1/_SPARSE_BELOW open


class CheckpointError(RuntimeError):
    """Checkpoint file is unreadable or does not match the requested scan."""


class WitnessNotFoundError(RuntimeError):
    """No 2p+q decomposition exists within coverage: a would-be refutation."""


@dataclass(frozen=True)
class LemoineWitness:
    """A certified decomposition n = 2p + q with p < 2q.

    Invariants are re-checked on construction so a witness object can be
    trusted wherever it travels.
    """

    n: int
    p: int
    q: int

    def __post_init__(self):
        if self.n % 2 == 0 or self.n < 7:
            raise ValueError(f"witness n must be odd and >= 7, got {self.n}")
        if 2 * self.p + self.q != self.n:
            raise ValueError(f"{self.n} != 2*{self.p} + {self.q}")
        if not is_prime(self.p):
            raise ValueError(f"p={self.p} is not prime")
        if self.q % 2 == 0 or not is_prime(self.q):
            raise ValueError(f"q={self.q} is not an odd prime")
        if not self.p < 2 * self.q:
            raise ValueError(f"side condition p < 2q fails: p={self.p}, q={self.q}")


@dataclass(frozen=True)
class RangeReport:
    """Outcome of scanning an integer interval for a conjecture.

    Bounds are inclusive. verified_count is the number of eligible n that
    were checked; counterexamples lists every eligible n without a witness.
    """

    conjecture: str
    lo: int
    hi: int
    parity: str
    verified_count: int
    counterexamples: tuple[int, ...]
    sample_witnesses: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    chunk_size: int = DEFAULT_CHUNK_SIZE

    def to_json_dict(self) -> dict:
        return {
            "version": REPORT_VERSION,
            "conjecture": self.conjecture,
            "lo": self.lo,
            "hi": self.hi,
            "parity": self.parity,
            "verified_count": self.verified_count,
            "counterexamples": list(self.counterexamples),
            "sample_witnesses": {
                str(n): list(w) for n, w in sorted(self.sample_witnesses.items())
            },
            "elapsed_seconds": self.elapsed_seconds,
            "chunk_size": self.chunk_size,
        }


def _primes_up_to(hi: int, sieve: PrimeSet):
    """The primes 2, 3, 5, ... <= hi (hi >= 2) in ascending order, as ints.

    Searches for a smallest witness almost always stop at one of the first
    few primes, so the table is read in blocks that grow eightfold from 557
    rather than all at once.
    """
    lo, top = 2, min(hi, 557)
    while lo <= hi:
        yield from primes_in(lo, top, sieve).tolist()
        lo, top = top + 1, min(hi, top * 8)


def find_lemoine(n: int, sieve: PrimeSet) -> LemoineWitness | None:
    """Witness with smallest p such that q = n - 2p is an odd prime, p < 2q.

    Returns None only if no decomposition exists, which would refute the
    conjecture for this n.
    """
    if n % 2 == 0 or n < 7:
        raise ValueError(f"n must be odd and >= 7, got {n}")
    if n > sieve.limit:
        raise CoverageExceededError(f"n={n} exceeds sieve limit {sieve.limit}")
    # q >= 3 forces p <= (n-3)/2; p < 2q is 5p < 2n.
    p_max = min((n - 3) // 2, (2 * n - 1) // 5)
    for p in _primes_up_to(p_max, sieve):
        q = n - 2 * p
        if sieve.contains(q):
            return LemoineWitness(n, p, q)
    return None


def find_goldbach(n: int, sieve: PrimeSet) -> tuple[int, int] | None:
    """Prime pair (p, q), p <= q, p + q = n, smallest p. Even n >= 4 only."""
    if n % 2 == 1 or n < 4:
        raise ValueError(f"n must be even and >= 4, got {n}")
    if n > sieve.limit:
        raise CoverageExceededError(f"n={n} exceeds sieve limit {sieve.limit}")
    for p in _primes_up_to(n // 2, sieve):
        if sieve.contains(n - p):
            return (p, n - p)
    return None


# ---------------------------------------------------------------------------
# Range scan
# ---------------------------------------------------------------------------


def _scan_chunk(start: int, count: int, sieve: PrimeSet):
    """Check the odd n = start, start + 2, ..., start + 2(count - 1).

    Returns (witness_p, counterexamples): witness_p[i] is the smallest p
    that find_lemoine would give for n = start + 2i, or 0 if there is none,
    and counterexamples lists those n in ascending order.

    No array of n is built. For odd n and q = n - 2p the table flag of q is
    at (n >> 1) - p, so for one p the flags of every q in the chunk form the
    contiguous slice of the odd-number table starting at (start >> 1) - p,
    from the first n with 5p < 2n on (that is p < 2q, which for odd n also
    makes q >= 3). Two phases:

    - dense, while many n are open: each p is one pass over its slice, which
      keeps the smallest p whose q is prime for every n at once;
    - sparse, once fewer than 1/_SPARSE_BELOW of the n are open: each p
      gathers the flags of the open positions only and keeps the misses.

    Subtractor primes are walked in ascending order, so the first p to
    clear an n in the sparse phase is its smallest.
    """
    flags = sieve.odd_flags()
    base = start >> 1
    last = start + 2 * (count - 1)
    primes = _primes_up_to(max((2 * last - 1) // 5, 2), sieve)

    def window(p: int):
        # (first position with 2n > 5p, flag index of q at position 0)
        return max(0, (5 * p // 2 + 2 - start) // 2), base - p

    # Dense phase, over at most the first 255 primes (all below 2^11): best[i]
    # is 0xFFFF - p for the smallest p so far whose q is prime, or 0, so a
    # multiply and a maximum per p keep it without a masked write.
    top = np.uint16(0xFFFF)
    best = np.zeros(count, dtype=np.uint16)
    term = np.empty(count, dtype=np.uint16)
    for k, p in enumerate(primes, 1):
        i0, s = window(p)
        np.multiply(flags[s + i0:s + count].view(np.uint8), top - p, out=term[i0:])
        np.maximum(best[i0:], term[i0:], out=best[i0:])
        if _SPARSE_BELOW * (count - np.count_nonzero(best)) < count or k == 255:
            break
    open_idx = np.flatnonzero(best == 0)
    witness_p = (top - best).astype(np.int64)

    # Sparse phase: ascending open positions. Each p is written to every
    # open position and stays where it cleared one; the misses stay open.
    for p in primes:
        if not open_idx.size:
            break
        i0, s = window(p)
        j0 = int(np.searchsorted(open_idx, i0)) if i0 else 0
        tail = open_idx[j0:]
        witness_p[tail] = p
        missed = tail[~flags[tail + s]]
        open_idx = np.concatenate((open_idx[:j0], missed)) if j0 else missed
    witness_p[open_idx] = 0
    return witness_p, (start + 2 * open_idx).tolist()


_WORKER_SIEVE: PrimeSet | None = None


def _init_worker(sieve: PrimeSet) -> None:
    global _WORKER_SIEVE
    _WORKER_SIEVE = sieve


def _scan_chunk_worker(start: int, count: int, keep_witnesses: bool):
    # Witness arrays cross the pipe only when the parent writes them: at
    # 512 KB a chunk, sending them made two workers slower than one.
    witness_p, counterexamples = _scan_chunk(start, count, _WORKER_SIEVE)
    return start, count, witness_p if keep_witnesses else None, counterexamples


def _load_checkpoint(path: str, lo: int, hi: int) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if type(data) is not dict:
        raise CheckpointError(f"checkpoint {path} is not a JSON object")
    for key in ("conjecture", "lo", "hi", "verified_up_to", "counterexamples", "chunk_size", "version"):
        if key not in data:
            raise CheckpointError(f"checkpoint {path} missing field {key!r}")
    if data["version"] != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {data['version']} != {CHECKPOINT_VERSION}"
        )
    if data["conjecture"] != LEMOINE_CONJECTURE_ID:
        raise CheckpointError(f"checkpoint is for {data['conjecture']!r}")
    if data["lo"] != lo or data["hi"] != hi:
        raise CheckpointError(
            f"checkpoint range [{data['lo']}, {data['hi']}] does not match "
            f"requested [{lo}, {hi}]"
        )
    first, last = _odd_bounds(lo, hi)
    done = data["verified_up_to"]
    if not _is_odd_in(done, first, last):
        raise CheckpointError(
            f"checkpoint {path}: verified_up_to {done!r} is not an odd integer "
            f"in [{first}, {last}]"
        )
    bad = data["counterexamples"]
    if not (
        type(bad) is list
        and all(_is_odd_in(v, first, done) for v in bad)
        and all(a < b for a, b in zip(bad, bad[1:]))
    ):
        raise CheckpointError(
            f"checkpoint {path}: counterexamples must be ascending odd integers "
            f"in [{first}, {done}]"
        )
    return data


def _odd_bounds(lo: int, hi: int) -> tuple[int, int]:
    """The first and the last odd n in [lo, hi]."""
    return lo | 1, hi if hi % 2 == 1 else hi - 1


def _is_odd_in(v, first: int, last: int) -> bool:
    # JSON gives bool for true/false, which `type(v) is int` rejects
    return type(v) is int and v % 2 == 1 and first <= v <= last


def _write_checkpoint(path: str, lo: int, hi: int, verified_up_to: int,
                      counterexamples: list[int], chunk_size: int,
                      witness_csv_bytes: int | None) -> None:
    payload = {
        "conjecture": LEMOINE_CONJECTURE_ID,
        "lo": lo,
        "hi": hi,
        "verified_up_to": verified_up_to,
        "counterexamples": counterexamples,
        "chunk_size": chunk_size,
        "witness_csv_bytes": witness_csv_bytes,
        "version": CHECKPOINT_VERSION,
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def _resume_witness_csv(path: str, checkpoint: str, data: dict):
    """The witness CSV cut back to the length the checkpoint recorded, open for appending."""
    size = data.get("witness_csv_bytes")
    if type(size) is not int or size < 0:
        raise CheckpointError(
            f"checkpoint {checkpoint} records no witness CSV length, so the rows "
            f"before it cannot be kept in {path}"
        )
    try:
        fh = open(path, "r+b")
    except OSError as exc:
        raise CheckpointError(f"cannot reopen witness CSV {path}: {exc}") from exc
    if fh.seek(0, os.SEEK_END) < size:
        fh.close()
        raise CheckpointError(
            f"witness CSV {path} is shorter than the {size} bytes checkpoint "
            f"{checkpoint} records"
        )
    fh.truncate(size)
    fh.seek(size)
    return fh


def verify_lemoine_range(
    lo: int,
    hi: int,
    workers: int = 1,
    checkpoint: str | None = None,
    sieve: PrimeSet | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    sample_count: int = 5,
    witness_csv: str | None = None,
) -> RangeReport:
    """Check every odd n in [lo, hi] for a 2p+q decomposition with p < 2q.

    The interval is split into chunks of `chunk_size` odd values, scanned
    independently, and merged in ascending order, so the report is identical
    for any worker count, chunk size and resumption point. A chunk is only
    its first n and its count: the kernel reads the primality of every
    q = n - 2p straight out of the sieve's table, so no array of n is built
    (the n column of the witness CSV is rebuilt when it is written). With
    workers > 1 each worker gets (start, count) and sends back its witness
    array only when the witness CSV needs it, and at most 2 * workers
    chunks are in flight, so results do not pile up in the parent while it
    writes. A checkpoint file, if given, is updated after each chunk and lets
    an interrupted scan resume, in chunks of the `chunk_size` given to the
    resumed call. A checkpoint that does not match lo/hi/version, whose
    `verified_up_to` is not an odd integer in the range, or whose
    `counterexamples` are not ascending odd integers up to it, raises
    CheckpointError.

    witness_csv, if given, receives one `n,p,q` row per n with a witness,
    after an `n,p,q` header. Each checkpoint records how many bytes of it
    were complete; a resumed scan cuts the file back to that length and
    appends, so the file ends up identical to an uninterrupted scan's. A
    resume raises CheckpointError if the checkpoint records no length or
    the file is shorter than it.
    """
    if not (7 <= lo <= hi):
        raise ValueError(f"need 7 <= lo <= hi, got [{lo}, {hi}]")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if sieve is None:
        from .numtheory import sieve_primes

        sieve = sieve_primes(hi)
    if hi > sieve.limit:
        raise CoverageExceededError(f"hi={hi} exceeds sieve limit {sieve.limit}")

    t0 = time.monotonic()
    first, last = _odd_bounds(lo, hi)
    counterexamples: list[int] = []
    verified_count = 0
    resume_from = first
    data = None

    if checkpoint is not None and os.path.exists(checkpoint):
        data = _load_checkpoint(checkpoint, lo, hi)
        done_upto = data["verified_up_to"]
        verified_count = (done_upto - first) // 2 + 1
        counterexamples = list(data["counterexamples"])
        resume_from = done_upto + 2

    starts = range(resume_from, last + 1, 2 * chunk_size)
    chunks = ((s, min(chunk_size, (last - s) // 2 + 1)) for s in starts)

    csv_fh = None
    if witness_csv and data is not None:
        csv_fh = _resume_witness_csv(witness_csv, checkpoint, data)
    elif witness_csv:
        csv_fh = open(witness_csv, "wb")
        csv_fh.write(b"n,p,q\n")

    def consume(start: int, count: int, witness_p: np.ndarray | None, chunk_bad: list[int]) -> None:
        nonlocal verified_count
        verified_count += count
        counterexamples.extend(chunk_bad)
        if csv_fh:
            # Blocks of rows keep the text's temporaries small beside the scan.
            for i in range(0, count, _WITNESS_BLOCK):
                p_i = witness_p[i:i + _WITNESS_BLOCK]
                n_i = np.arange(start + 2 * i, start + 2 * (i + p_i.size), 2, dtype=np.int64)
                found = p_i > 0
                n_i, p_i = n_i[found], p_i[found]
                rows = np.column_stack((n_i, p_i, n_i - 2 * p_i))
                csv_fh.write(format_int_rows(rows).encode("ascii"))
        if checkpoint is not None:
            if csv_fh:
                csv_fh.flush()
            _write_checkpoint(checkpoint, lo, hi, start + 2 * (count - 1), counterexamples,
                              chunk_size, csv_fh.tell() if csv_fh else None)

    try:
        if workers == 1 or len(starts) <= 1:
            for start, count in chunks:
                consume(start, count, *_scan_chunk(start, count, sieve))
        else:
            with ProcessPoolExecutor(
                max_workers=workers, initializer=_init_worker, initargs=(sieve,)
            ) as pool:
                # At most 2 * workers results wait in the parent, however
                # far behind consume falls.
                in_flight = deque()
                for start, count in chunks:
                    in_flight.append(pool.submit(_scan_chunk_worker, start, count, csv_fh is not None))
                    if len(in_flight) == 2 * workers:
                        consume(*in_flight.popleft().result())
                for fut in in_flight:
                    consume(*fut.result())
    finally:
        if csv_fh:
            csv_fh.close()

    # Samples are recomputed from the range endpoints rather than collected
    # during the scan, so they are identical no matter how the scan was
    # chunked, parallelized, or resumed.
    bad = set(counterexamples)
    samples = {}
    firsts = list(range(first, min(first + 2 * sample_count, hi + 1), 2))
    lasts = list(range(last, max(last - 2 * sample_count, first - 1), -2))
    for n_i in firsts + lasts:
        if n_i not in bad and n_i not in samples:
            w = find_lemoine(n_i, sieve)
            if w is not None:
                samples[n_i] = (w.p, w.q)
    return RangeReport(
        conjecture=LEMOINE_CONJECTURE_ID,
        lo=lo,
        hi=hi,
        parity="odd",
        verified_count=verified_count,
        counterexamples=tuple(sorted(counterexamples)),
        sample_witnesses=samples,
        elapsed_seconds=time.monotonic() - t0,
        chunk_size=chunk_size,
    )
