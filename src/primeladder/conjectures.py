"""Witness search and range verification for additive prime conjectures.

The central claim checked here: every odd n >= 7 can be written n = 2p + q
with p, q prime, q odd, and p < 2q. A witness (p, q) for an odd n is exactly
what the 2p+q ladder construction needs, so a verified range of this claim
is a verified range of ladder orders. `find_goldbach` gives the Goldbach
pair of one even n, which the even ladder construction takes for n - 4.

Both range scans of this package, the 2p+q scan here and the strong
canonical partition scan of `partitions`, run through one span driver,
`_run_spans`. Each scan has one `range` of eligible n, and every run of n
it handles is a slice of that range, made lazily by `_chunks`: a span is
one kernel call, and one task of a worker pool, scanned against arguments
shared by the whole scan, which the pool receives once per worker; a
kernel reads the span's first n, count, last n and step from the range
itself. The 2p+q scan's spans are runs of consecutive checkpoint chunks of
at least `_SPAN` n, which it cuts back into chunks for its checkpoint and
into blocks of rows for its witness CSV, and it resumes on the slice after
the checkpoint's last n; its one kernel, `_scan_chunk`, keeps each n's
smallest p only when the witness CSV is written, and otherwise only asks
whether some p works. The partition scan's span is its 2^17-n search
block. The scans also share their argument checks, `_check_scan`, and one
report builder, `_range_report`, which picks the sample witnesses at the
two ends of the range.
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

from .numtheory import PrimeSet, _require_integers, _require_sieve, is_prime, primes_in
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
    """No 2p+q decomposition, or no Goldbach split, exists within coverage: a would-be refutation."""


@dataclass(frozen=True)
class LemoineWitness:
    """A certified decomposition n = 2p + q with p < 2q.

    Invariants are re-checked on construction so a witness object can be
    trusted wherever it travels. They make all three fields integers, n odd
    and >= 7; a NumPy integer is stored as a Python int.
    """

    n: int
    p: int
    q: int

    def __post_init__(self):
        for name, v in zip(("p", "q", "n"), _require_integers(p=self.p, q=self.q, n=self.n)):
            object.__setattr__(self, name, v)
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
    conjecture for this n. An n that is not an integer, or a sieve that is
    not a PrimeSet, raises ValueError.
    """
    (n,) = _require_integers(n=n)
    _require_sieve(sieve, n=n)
    if n % 2 == 0 or n < 7:
        raise ValueError(f"n must be odd and >= 7, got {n}")
    # p < 2q is 5p < 2n, which also makes q = n - 2p > n/5 > 1, so q >= 3 for odd n.
    for p in _primes_up_to((2 * n - 1) // 5, sieve):
        q = n - 2 * p
        if sieve.contains(q):
            return LemoineWitness(n, p, q)
    return None


def find_goldbach(n: int, sieve: PrimeSet) -> tuple[int, int] | None:
    """Prime pair (p, q), p <= q, p + q = n, smallest p, or None. Even integer n >= 4 only."""
    (n,) = _require_integers(n=n)
    _require_sieve(sieve, n=n)
    if n % 2 == 1 or n < 4:
        raise ValueError(f"n must be even and >= 4, got {n}")
    for p in _primes_up_to(n // 2, sieve):
        if sieve.contains(n - p):
            return (p, n - p)
    return None


# ---------------------------------------------------------------------------
# Range scan
# ---------------------------------------------------------------------------


def _window(start: int, p: int) -> tuple[int, int]:
    """(first position with 2n > 5p, flag index of q at position 0) for p in a span from odd `start`.

    For odd n and q = n - 2p the table flag of q is at (n >> 1) - p, so for
    one p the flags of every q in a span of step 2 form the contiguous slice
    of the odd-number table starting at (start >> 1) - p, from the first n
    with 5p < 2n on (that is p < 2q, which for odd n also makes q >= 3).
    """
    return max(0, (5 * p // 2 + 2 - start) // 2), (start >> 1) - p


def _sparse_phase(open_idx: np.ndarray, primes, flags: np.ndarray, start: int, witness_p=None) -> np.ndarray:
    """The ascending open positions that none of the remaining `primes` clears.

    Each p gathers the flags of the open positions only and keeps the
    misses. Given `witness_p`, each p is written to every open position it
    is tried on and stays where it cleared one; the caller zeroes the
    positions returned.
    """
    for p in primes:
        if not open_idx.size:
            break
        i0, s = _window(start, p)
        j0 = int(np.searchsorted(open_idx, i0)) if i0 else 0
        tail = open_idx[j0:]
        if witness_p is not None:
            witness_p[tail] = p
        missed = tail[~flags[tail + s]]
        open_idx = np.concatenate((open_idx[:j0], missed)) if j0 else missed
    return open_idx


def _scan_chunk(span: range, sieve: PrimeSet, witnesses: bool):
    """Check the odd n of `span`, a range of step 2.

    Returns (witness_p, counterexamples): counterexamples lists the n
    without a witness in ascending order, and with `witnesses` witness_p[i]
    is the smallest p that find_lemoine would give for n = span[i], or 0 if
    there is none; without, witness_p is None and the kernel only asks
    whether some p works for each n. No array of n is built: each p reads
    the slice of the odd-number table that `_window` gives. Two phases:

    - dense, over at most the first 255 primes: each p is one maximum of
      its slice into best. Without `witnesses` best is one bool per n, and
      the maximum of two bools is an OR. With them best is one uint8 per
      n, which the k-th prime raises to 256 - k where q is prime (one
      multiply more), so it indexes the smallest p so far of every n in a
      256-entry table. The open n are counted every eighth prime, since a
      count costs about as much as a maximum;
    - sparse, once fewer than 1/_SPARSE_BELOW of the n are open or the
      table is full: `_sparse_phase`, writing each p it tries with
      `witnesses`.

    Subtractor primes up to p_top, the largest candidate, are walked in
    ascending order by one iterator, so the first p to clear an n is its
    smallest and the sparse phase goes on from the prime where the dense
    phase stopped. Witness arrays cross the pool's pipe only when the
    parent writes them: a span's is 1 MB of int32, and when every 65,536-n
    task sent back 512 KB of int64, two workers were slower than one.
    """
    flags = sieve.odd_flags()
    count = len(span)
    p_top = (2 * span[-1] - 1) // 5
    primes = _primes_up_to(p_top, sieve)
    # dense[256 - k] is the k-th prime; int32 holds every candidate p below
    # n = 5.3e9 and halves the witness array
    dense = np.zeros(256, dtype=np.int32 if p_top < 1 << 31 else np.int64)
    best = np.zeros(count, dtype=np.uint8 if witnesses else bool)
    term = np.empty(count, dtype=np.uint8) if witnesses else None
    for k, p in enumerate(primes, 1):
        dense[256 - k] = p
        i0, s = _window(span.start, p)
        hit = flags[s + i0:s + count]
        if witnesses:
            hit = np.multiply(hit.view(np.uint8), np.uint8(256 - k), out=term[i0:])
        np.maximum(best[i0:], hit, out=best[i0:])
        if k == 255 or k % 8 == 0 and _SPARSE_BELOW * (count - np.count_nonzero(best)) < count:
            break
    del term
    open_idx = np.flatnonzero(np.logical_not(best))
    # indexing casts best to intp in small buffers; np.take would copy it whole
    witness_p = dense[best] if witnesses else None
    del best
    open_idx = _sparse_phase(open_idx, primes, flags, span.start, witness_p)
    if witnesses:
        witness_p[open_idx] = 0
    return witness_p, (span.start + span.step * open_idx).tolist()


_SHARED: tuple = ()  # a pool worker's copy of the shared arguments of _run_spans


def _init_shared(shared: tuple) -> None:
    global _SHARED
    _SHARED = shared


def _run_shared(kernel, span: range):
    return kernel(span, *_SHARED)


def _chunks(eligible, size: int):
    """The slices eligible[i:i + size] for i = 0, size, 2 * size, ..., made lazily.

    For a range of n each slice is a range too, of the same step: a run of
    `size` successive n, the last one shorter. A NumPy array is cut the same way.
    """
    return (eligible[i:i + size] for i in range(0, len(eligible), size))


def _run_spans(kernel, eligible: range, size: int, shared: tuple, workers: int, consume) -> None:
    """consume(span, kernel(span, *shared)) for each span of `size` successive n of `eligible`, in order.

    A span is the slice of `eligible` that `_chunks` makes, a range of the
    same step, and the driver hands consume the kernel's result unchanged.
    There is at most one worker per span and per CPU: `workers` is capped
    at the number of spans and at the CPUs this process may run on first
    (its affinity set where os has sched_getaffinity, os.cpu_count()
    elsewhere). Runs in this process when that leaves at most one worker.
    Otherwise a pool of exactly that many processes receives `shared`
    once, when each worker starts, and then one span per task; at most
    2 * workers results wait in the parent, however far behind consume
    falls. `kernel` must be a module-level function, so that it can be
    sent to the workers.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(workers, cpus, -(-len(eligible) // size))
    spans = _chunks(eligible, size)
    if workers <= 1:
        for span in spans:
            consume(span, kernel(span, *shared))
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


def _check_scan(lo: int, hi: int, least: int, workers: int) -> tuple[int, int, int]:
    """The argument checks both range scans share.

    lo, hi and workers must be integers, checked before anything compares
    them, so a bool, a float or a string raises ValueError and is never read
    as a number. Then least <= lo <= hi and workers >= 1. Returns
    (lo, hi, workers) as Python ints, so a NumPy integer never reaches a
    report or a checkpoint.
    """
    lo, hi, workers = _require_integers(lo=lo, hi=hi, workers=workers)
    if not (least <= lo <= hi):
        raise ValueError(f"need {least} <= lo <= hi, got [{lo}, {hi}]")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return lo, hi, workers


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


def _path(what: str, path) -> str | None:
    """`path` through os.fspath, or None for None.

    Anything but a str or an os.PathLike to one raises ValueError, and so
    does an empty path: open() would take an int as a file descriptor, and
    close it when done.
    """
    if path is None:
        return None
    text = os.fspath(path) if isinstance(path, (str, os.PathLike)) else None
    if not isinstance(text, str):
        raise ValueError(f"{what} path must be a str or os.PathLike, got {path!r}")
    if text == "":
        raise ValueError(f"{what} path is empty")
    return text


def _load_checkpoint(path: str, lo: int, hi: int, eligible: range) -> dict:
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
    # `type(v) is int` goes first: it rejects the bools JSON gives for
    # true/false, and a float would make `v in eligible` walk the range
    done = data["verified_up_to"]
    if type(done) is not int or done not in eligible:
        raise CheckpointError(
            f"checkpoint {path}: verified_up_to {done!r} is not an odd integer "
            f"in [{eligible.start}, {eligible.start + 2 * len(eligible) - 2}]"
        )
    verified = eligible[:eligible.index(done) + 1]
    bad = data["counterexamples"]
    if not (
        type(bad) is list
        and all(type(v) is int and v in verified for v in bad)
        and all(a < b for a, b in zip(bad, bad[1:]))
    ):
        raise CheckpointError(
            f"checkpoint {path}: counterexamples must be ascending odd integers "
            f"in [{eligible.start}, {done}]"
        )
    return data


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
    checkpoint: str | os.PathLike | None = None,
    sieve: PrimeSet | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    witness_csv: str | os.PathLike | None = None,
) -> RangeReport:
    """Check every odd n in [lo, hi] for a 2p+q decomposition with p < 2q.

    The odd n of [lo, hi] are one range, and spans, chunks and witness
    CSV row blocks are all slices of it. The range is scanned in spans, the
    fewest whole chunks of `chunk_size` odd values that hold at least _SPAN
    n, one kernel call each, and merged in ascending order, so the report
    is identical for any worker count, chunk size and resumption point. A
    chunk is the unit of the checkpoint: this function cuts each span's
    results into its chunks, so a small chunk_size costs a little Python
    per chunk and no kernel or pool overhead. The kernel reads the
    primality of every q = n - 2p straight out of the sieve's table, so no
    array of n is built (the n column of the witness CSV is rebuilt when it
    is written). With workers > 1 each span is one task of the pool of
    `_run_spans`: the sieve reaches each worker once, a span sends back its
    witness array only when the witness CSV needs it, and at most
    2 * workers spans are in flight, so results do not pile up in the
    parent while it writes. A checkpoint file, if given, is updated after
    each chunk, wherever the chunk falls in its span, and lets an
    interrupted scan resume on the slice of the range after the
    checkpoint's last n, in chunks of the `chunk_size` given to the resumed
    call and in spans from there. A checkpoint path that cannot be written
    raises OSError before any chunk is scanned or the witness CSV is
    opened. A checkpoint that does not match lo/hi/version, whose
    `verified_up_to` is not an odd integer in the range, or whose
    `counterexamples` are not ascending odd integers up to it, raises
    CheckpointError. A `sieve` given that is not a PrimeSet raises
    ValueError, and one whose limit is below hi CoverageExceededError.
    Without a `sieve`, the sieve of [2, hi] is built only once the
    arguments, the checkpoint and the witness CSV have passed these checks.

    witness_csv, if given, receives one `n,p,q` row per n with a witness,
    after an `n,p,q` header. Each checkpoint records how many bytes of it
    were complete; a resumed scan cuts the file back to that length and
    appends, so the file ends up identical to an uninterrupted scan's. A
    resume raises CheckpointError if the checkpoint records no length or
    the file is shorter than it. A witness_csv that is the checkpoint file
    or its `.tmp` file raises ValueError, and so does an empty witness_csv or
    checkpoint path, or one that is not a str or an os.PathLike (an int
    would be taken as a file descriptor), before anything is scanned or
    written.

    The report's sample witnesses are those of the first and the last five
    odd n of the range.
    """
    lo, hi, workers = _check_scan(lo, hi, 7, workers)
    if sieve is not None:
        _require_sieve(sieve, hi=hi)
    (chunk_size,) = _require_integers(chunk_size=chunk_size)
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    witness_csv = _path("witness CSV", witness_csv)
    checkpoint = _path("checkpoint", checkpoint)
    if witness_csv is not None and checkpoint is not None and os.path.realpath(witness_csv) in (
        os.path.realpath(checkpoint), os.path.realpath(checkpoint + ".tmp")
    ):
        raise ValueError(f"witness CSV {witness_csv} would overwrite checkpoint {checkpoint}")

    t0 = time.monotonic()
    eligible = range(lo | 1, hi + 1, 2)
    counterexamples: list[int] = []
    todo = eligible  # the n after the checkpoint's last one
    data = None

    if checkpoint is not None:
        if os.path.exists(checkpoint):
            data = _load_checkpoint(checkpoint, lo, hi, eligible)
            counterexamples = list(data["counterexamples"])
            todo = eligible[eligible.index(data["verified_up_to"]) + 1:]
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

    def consume(span: range, result: tuple[np.ndarray | None, list[int]]) -> None:
        # Each chunk of the span gets its witness rows, the counterexamples
        # up to its last n and its checkpoint, however the span was cut.
        witness_p, bad = result
        done = 0
        for k, chunk in enumerate(_chunks(span, chunk_size)):
            cut = bisect_left(bad, chunk.stop, done)
            counterexamples.extend(bad[done:cut])
            done = cut
            if csv_fh:
                # Blocks of rows keep the text's temporaries small beside the scan.
                chunk_p = witness_p[k * chunk_size:(k + 1) * chunk_size]
                for block, p_i in zip(_chunks(chunk, _WITNESS_BLOCK), _chunks(chunk_p, _WITNESS_BLOCK)):
                    n_i = np.arange(block.start, block.stop, block.step, dtype=np.int64)
                    found = p_i > 0
                    n_i, p_i = n_i[found], p_i[found]
                    rows = np.column_stack((n_i, p_i, n_i - p_i - p_i))  # int64, whatever the dtype of p_i
                    csv_fh.write(format_int_rows(rows))
            if checkpoint is not None:
                if csv_fh:
                    csv_fh.flush()
                _write_checkpoint(checkpoint, lo, hi, chunk[-1], counterexamples,
                                  chunk_size, csv_fh.tell() if csv_fh else None)

    try:
        if sieve is None:
            from .numtheory import sieve_primes

            sieve = sieve_primes(hi)
        # spans of whole chunks, at least _SPAN n each
        _run_spans(_scan_chunk, todo, -(-_SPAN // chunk_size) * chunk_size, (sieve, csv_fh is not None),
                   workers, consume)
    finally:
        if csv_fh:
            csv_fh.close()

    def witness(n: int):
        w = find_lemoine(n, sieve)
        return None if w is None else (w.p, w.q)

    return _range_report(LEMOINE_CONJECTURE_ID, lo, hi, "odd", eligible, counterexamples, witness, t0,
                         chunk_size=chunk_size)
