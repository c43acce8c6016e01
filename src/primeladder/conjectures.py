"""Witness search and range verification for additive prime conjectures.

The central claim checked here: every odd n >= 7 can be written n = 2p + q
with p, q prime, q odd, and p < 2q. A witness (p, q) for an odd n is exactly
what the 2p+q ladder construction needs, so a verified range of this claim
is a verified range of ladder orders. `find_goldbach` gives the Goldbach
pair of one even n; it is a per-n search that no scan uses yet.

Both range scans of this package, the 2p+q scan here and the strong
canonical partition scan of `partitions`, run through one span driver,
`_run_spans`. A span is only its first n and its count, made lazily: one
kernel call, and one task of a worker pool, scans it against arguments
shared by the whole scan, which the pool receives once per worker. The
2p+q scan's spans are runs of consecutive checkpoint chunks of at least
`_SPAN` n, which it cuts back into chunks for its checkpoint and witness
CSV; the partition scan's span is its 2^17-n search block. The scans also
share their argument checks, `_check_scan`, and one report builder,
`_range_report`, which picks the sample witnesses at the two ends of the
range.
"""

from __future__ import annotations

import json
import os
import time
from bisect import bisect_left
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from itertools import chain

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
DEFAULT_CHUNK_SIZE = 1 << 16  # odd values per chunk, the unit of the 2p+q checkpoint
_WITNESS_BLOCK = 1 << 13  # witness CSV rows formatted at a time
_SPARSE_BELOW = 32  # the scan kernel's sparse phase starts below 1/_SPARSE_BELOW open
_SPAN = 1 << 18  # n per 2p+q kernel call and pool task, at least: whole chunks, consecutive


class CheckpointError(RuntimeError):
    """Checkpoint file is unreadable or does not match the requested scan."""


class WitnessNotFoundError(RuntimeError):
    """No 2p+q decomposition exists within coverage: a would-be refutation."""


@dataclass(frozen=True)
class LemoineWitness:
    """A certified decomposition n = 2p + q with p < 2q.

    Invariants are re-checked on construction so a witness object can be
    trusted wherever it travels. They make n odd and >= 7: p >= 2 and q >= 3.
    """

    n: int
    p: int
    q: int

    def __post_init__(self):
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
            **asdict(self),
            "counterexamples": list(self.counterexamples),
            "sample_witnesses": {
                str(n): list(w) for n, w in sorted(self.sample_witnesses.items())
            },
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
    # p < 2q is 5p < 2n, which also makes q = n - 2p > n/5 > 1, so q >= 3 for odd n.
    for p in _primes_up_to((2 * n - 1) // 5, sieve):
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


def _chunk_walk(start: int, count: int, sieve: PrimeSet):
    """(flags, primes, window, p_top) for the odd n = start, ..., start + 2(count - 1).

    No array of n is built. For odd n and q = n - 2p the table flag of q is
    at (n >> 1) - p, so for one p the flags of every q in the chunk form the
    contiguous slice of the odd-number table `flags` starting at
    (start >> 1) - p, from the first n with 5p < 2n on (that is p < 2q,
    which for odd n also makes q >= 3). window(p) gives that first position
    and the flag index of q at position 0. `primes` walks the subtractor
    primes up to p_top, the largest candidate, in ascending order, as one
    iterator: the sparse phase of a kernel goes on from the prime where its
    dense phase stopped.
    """
    flags = sieve.odd_flags()
    base = start >> 1
    p_top = (2 * (start + 2 * (count - 1)) - 1) // 5

    def window(p: int):
        # (first position with 2n > 5p, flag index of q at position 0)
        return max(0, (5 * p // 2 + 2 - start) // 2), base - p

    return flags, _primes_up_to(p_top, sieve), window, p_top


def _sparse_phase(open_idx: np.ndarray, primes, flags: np.ndarray, window, witness_p=None) -> np.ndarray:
    """The ascending open positions that none of the remaining `primes` clears.

    Each p gathers the flags of the open positions only and keeps the
    misses. Given `witness_p`, each p is written to every open position it
    is tried on and stays where it cleared one; the caller zeroes the
    positions returned.
    """
    for p in primes:
        if not open_idx.size:
            break
        i0, s = window(p)
        j0 = int(np.searchsorted(open_idx, i0)) if i0 else 0
        tail = open_idx[j0:]
        if witness_p is not None:
            witness_p[tail] = p
        missed = tail[~flags[tail + s]]
        open_idx = np.concatenate((open_idx[:j0], missed)) if j0 else missed
    return open_idx


def _scan_chunk(start: int, count: int, sieve: PrimeSet):
    """Check the odd n = start, start + 2, ..., start + 2(count - 1).

    Returns (witness_p, counterexamples): witness_p[i] is the smallest p
    that find_lemoine would give for n = start + 2i, or 0 if there is none,
    and counterexamples lists those n in ascending order. The scan keeps
    the witnesses only when the witness CSV is written; otherwise
    `_scan_counterexamples` runs. Two phases over the slices of
    `_chunk_walk`:

    - dense, while many n are open: each p is one multiply and one maximum
      over its slice, which keep the smallest p whose q is prime for every
      n at once;
    - sparse, once fewer than 1/_SPARSE_BELOW of the n are open:
      `_sparse_phase`, writing each p it tries.

    Subtractor primes are walked in ascending order, so the first p to
    clear an n in the sparse phase is its smallest.
    """
    flags, primes, window, p_top = _chunk_walk(start, count, sieve)

    # Dense phase, over at most the first 255 primes (all below 2^11 in a
    # real sieve) and never past 0xFFFF: best[i] is 0xFFFF - p for the
    # smallest p so far whose q is prime, or 0, so a multiply and a maximum
    # per p keep it without a masked write.
    top = np.uint16(0xFFFF)
    best = np.zeros(count, dtype=np.uint16)
    term = np.empty(count, dtype=np.uint16)
    for k, p in enumerate(primes, 1):
        if p >= 0xFFFF:
            primes = chain((p,), primes)  # the sparse phase starts at this p
            break
        i0, s = window(p)
        np.multiply(flags[s + i0:s + count].view(np.uint8), top - p, out=term[i0:])
        np.maximum(best[i0:], term[i0:], out=best[i0:])
        if _SPARSE_BELOW * (count - np.count_nonzero(best)) < count or k == 255:
            break
    del term
    open_idx = np.flatnonzero(best == 0)
    # int32 holds every candidate p below n = 5.3e9 and halves the array
    witness_p = np.subtract(top, best, dtype=np.int32 if p_top < 1 << 31 else np.int64)
    del best
    open_idx = _sparse_phase(open_idx, primes, flags, window, witness_p)
    witness_p[open_idx] = 0
    return witness_p, (start + 2 * open_idx).tolist()


def _scan_counterexamples(start: int, count: int, sieve: PrimeSet):
    """(None, the counterexamples of _scan_chunk(start, count, sieve)).

    Asks only whether some p < 2q works for each n, not which p is the
    smallest, so it keeps one bool per n. Dense phase: each p is one OR of
    its slice of `_chunk_walk` into that bool, for as many primes as it
    takes; the open n are counted every eighth prime, since a count costs
    about as much as an OR. Once fewer than 1/_SPARSE_BELOW of the n are
    open, `_sparse_phase` keeps the misses. Witness arrays cross the pipe
    only when the parent writes them: a span's is 1 MB of int32, and when
    every 65,536-n task sent back 512 KB of int64, two workers were slower
    than one.
    """
    flags, primes, window, _ = _chunk_walk(start, count, sieve)
    hit = np.zeros(count, dtype=bool)
    for k, p in enumerate(primes, 1):
        i0, s = window(p)
        np.logical_or(hit[i0:], flags[s + i0:s + count], out=hit[i0:])
        if k % 8 == 0 and _SPARSE_BELOW * (count - np.count_nonzero(hit)) < count:
            break
    open_idx = _sparse_phase(np.flatnonzero(~hit), primes, flags, window)
    return None, (start + 2 * open_idx).tolist()


_SHARED: tuple = ()  # a pool worker's copy of the shared arguments of _run_spans


def _init_shared(shared: tuple) -> None:
    global _SHARED
    _SHARED = shared


def _run_shared(kernel, span: tuple):
    return kernel(*span, *_SHARED)


def _chunks(eligible: range, size: int):
    """(first n, count) of each run of `size` successive n of `eligible`, made lazily."""
    return ((eligible[i], min(size, len(eligible) - i)) for i in range(0, len(eligible), size))


def _run_spans(kernel, eligible: range, size: int, shared: tuple, workers: int, consume) -> None:
    """consume(span, kernel(*span, *shared)) for each span of `size` successive n of `eligible`, in order.

    A span is only its first n and its count, made lazily, and the driver
    hands consume the kernel's result unchanged. There is at most one
    worker per span and per CPU: `workers` is capped at the number of spans
    and at os.cpu_count() first. Runs in this process when that leaves at
    most one worker. Otherwise a pool of
    exactly that many processes receives `shared` once, when each worker
    starts, and then one span per task; at most 2 * workers results wait in
    the parent, however far behind consume falls. `kernel` must be a
    module-level function, so that it can be sent to the workers.
    """
    workers = min(workers, os.cpu_count() or 1, -(-len(eligible) // size))
    spans = _chunks(eligible, size)
    if workers <= 1:
        for span in spans:
            consume(span, kernel(*span, *shared))
        return
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_shared, initargs=(shared,)) as pool:
        in_flight = deque()
        for span in spans:
            in_flight.append((span, pool.submit(_run_shared, kernel, span)))
            if len(in_flight) == 2 * workers:
                span, fut = in_flight.popleft()
                consume(span, fut.result())
        for span, fut in in_flight:
            consume(span, fut.result())


def _check_scan(hi: int, sieve: PrimeSet | None, workers: int) -> None:
    """The argument checks both range scans share; a sieve given must cover hi."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if sieve is not None and hi > sieve.limit:
        raise CoverageExceededError(f"hi={hi} exceeds sieve limit {sieve.limit}")


_END_SAMPLES = 5  # n at each end of a scanned range whose witness the report shows


def _range_report(conjecture: str, lo: int, hi: int, parity: str, eligible: range,
                  counterexamples: list[int], witness, t0: float, **fields) -> RangeReport:
    """The RangeReport of a scan of `eligible` begun at time.monotonic() t0.

    `counterexamples` must be ascending. The sample witnesses are
    {n: witness(n)} for up to _END_SAMPLES n at each end of `eligible`;
    counterexamples and n whose witness is None are left out. The samples
    are recomputed from the range ends rather than collected during the
    scan, so they are identical however the scan was chunked, pooled or
    resumed. `fields` are the report's remaining fields, such as chunk_size.
    """
    bad = set(counterexamples)
    samples = {}
    ends = chain(eligible[:_END_SAMPLES], eligible[max(len(eligible) - _END_SAMPLES, 0):])
    for n in ends:
        if n not in bad and n not in samples:
            found = witness(n)
            if found is not None:
                samples[n] = found
    return RangeReport(conjecture, lo, hi, parity, len(eligible), tuple(counterexamples), samples,
                       time.monotonic() - t0, **fields)


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
    witness_csv: str | None = None,
) -> RangeReport:
    """Check every odd n in [lo, hi] for a 2p+q decomposition with p < 2q.

    The interval is scanned in spans, the fewest whole chunks of
    `chunk_size` odd values that hold at least _SPAN n, one kernel call
    each, and merged in ascending order, so the report is identical for
    any worker count, chunk size and resumption point. A chunk is only its
    first n and its count, and is the unit of the checkpoint: this
    function cuts each span's results into its chunks, so a small
    chunk_size costs a little Python per chunk and no kernel or pool
    overhead. The kernel reads the primality of every q = n - 2p straight
    out of the sieve's table, so no array of n is built (the n column of
    the witness CSV is rebuilt when it is written). With workers > 1 each
    span is one task of the pool of `_run_spans`: the sieve reaches each
    worker once, a span sends back its witness array only when the witness
    CSV needs it, and at most 2 * workers spans are in flight, so results
    do not pile up in the parent while it writes. A checkpoint file, if
    given, is updated after each chunk, wherever the chunk falls in its
    span, and lets an interrupted scan resume, in chunks of the
    `chunk_size` given to the resumed call and in spans from the resume
    point. A
    checkpoint path that cannot be written raises OSError before any chunk is
    scanned or the witness CSV is opened. A checkpoint that does not match
    lo/hi/version, whose `verified_up_to` is not an odd integer in the
    range, or whose `counterexamples` are not ascending odd integers up to
    it, raises CheckpointError. Without a `sieve`, the sieve of [2, hi] is
    built only once the arguments, the checkpoint and the witness CSV have
    passed these checks.

    witness_csv, if given, receives one `n,p,q` row per n with a witness,
    after an `n,p,q` header. Each checkpoint records how many bytes of it
    were complete; a resumed scan cuts the file back to that length and
    appends, so the file ends up identical to an uninterrupted scan's. A
    resume raises CheckpointError if the checkpoint records no length or
    the file is shorter than it. A witness_csv that is the checkpoint file
    or its `.tmp` file raises ValueError, and so does an empty witness_csv or
    checkpoint path, before anything is scanned or written.

    The report's sample witnesses are those of the first and the last five
    odd n of the range.
    """
    if not (7 <= lo <= hi):
        raise ValueError(f"need 7 <= lo <= hi, got [{lo}, {hi}]")
    _check_scan(hi, sieve, workers)
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    for what, path in (("witness CSV", witness_csv), ("checkpoint", checkpoint)):
        if path == "":
            raise ValueError(f"{what} path is empty")
    if witness_csv is not None and checkpoint is not None and os.path.realpath(witness_csv) in (
        os.path.realpath(checkpoint), os.path.realpath(checkpoint + ".tmp")
    ):
        raise ValueError(f"witness CSV {witness_csv} would overwrite checkpoint {checkpoint}")

    t0 = time.monotonic()
    first, last = _odd_bounds(lo, hi)
    counterexamples: list[int] = []
    resume_from = first
    data = None

    if checkpoint is not None:
        if os.path.exists(checkpoint):
            data = _load_checkpoint(checkpoint, lo, hi)
            counterexamples = list(data["counterexamples"])
            resume_from = data["verified_up_to"] + 2
        # An unwritable checkpoint fails here, before the witness CSV is
        # opened or any chunk is scanned: every write starts with this file.
        open(checkpoint + ".tmp", "wb").close()
        os.remove(checkpoint + ".tmp")

    csv_fh = None
    if witness_csv is not None and data is not None:
        csv_fh = _resume_witness_csv(witness_csv, checkpoint, data)
    elif witness_csv is not None:
        csv_fh = open(witness_csv, "wb")
        csv_fh.write(b"n,p,q\n")

    def consume(span: tuple[int, int], result: tuple[np.ndarray | None, list[int]]) -> None:
        # Each chunk of the span gets its witness rows, the counterexamples
        # up to its last n and its checkpoint, however the span was cut.
        first, count = span
        witness_p, bad = result
        done = 0
        for offset in range(0, count, chunk_size):
            start, size = first + 2 * offset, min(chunk_size, count - offset)
            cut = bisect_left(bad, start + 2 * size, done)
            counterexamples.extend(bad[done:cut])
            done = cut
            if csv_fh:
                # Blocks of rows keep the text's temporaries small beside the scan.
                chunk_p = witness_p[offset:offset + size]
                for i in range(0, size, _WITNESS_BLOCK):
                    p_i = chunk_p[i:i + _WITNESS_BLOCK]
                    n_i = np.arange(start + 2 * i, start + 2 * (i + p_i.size), 2, dtype=np.int64)
                    found = p_i > 0
                    n_i, p_i = n_i[found], p_i[found]
                    rows = np.column_stack((n_i, p_i, n_i - p_i - p_i))  # int64, whatever the dtype of p_i
                    csv_fh.write(format_int_rows(rows))
            if checkpoint is not None:
                if csv_fh:
                    csv_fh.flush()
                _write_checkpoint(checkpoint, lo, hi, start + 2 * (size - 1), counterexamples,
                                  chunk_size, csv_fh.tell() if csv_fh else None)

    kernel = _scan_chunk if csv_fh else _scan_counterexamples
    try:
        if sieve is None:
            from .numtheory import sieve_primes

            sieve = sieve_primes(hi)
        # spans of whole chunks, at least _SPAN n each
        _run_spans(kernel, range(resume_from, last + 1, 2), -(-_SPAN // chunk_size) * chunk_size, (sieve,),
                   workers, consume)
    finally:
        if csv_fh:
            csv_fh.close()

    def witness(n: int):
        w = find_lemoine(n, sieve)
        return None if w is None else (w.p, w.q)

    return _range_report(LEMOINE_CONJECTURE_ID, lo, hi, "odd", range(first, last + 1, 2), counterexamples,
                         witness, t0, chunk_size=chunk_size)
