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
    for p in primes_in(2, max(p_max, 2), sieve):
        p = int(p)
        q = n - 2 * p
        if q >= 3 and 5 * p < 2 * n and sieve.contains(q):
            return LemoineWitness(n, p, q)
    return None


def find_goldbach(n: int, sieve: PrimeSet) -> tuple[int, int] | None:
    """Prime pair (p, q), p <= q, p + q = n, smallest p. Even n >= 4 only."""
    if n % 2 == 1 or n < 4:
        raise ValueError(f"n must be even and >= 4, got {n}")
    if n > sieve.limit:
        raise CoverageExceededError(f"n={n} exceeds sieve limit {sieve.limit}")
    for p in primes_in(2, n // 2, sieve):
        p = int(p)
        if sieve.contains(n - p):
            return (p, n - p)
    return None


# ---------------------------------------------------------------------------
# Range scan
# ---------------------------------------------------------------------------


def _scan_chunk(ns: np.ndarray, sieve: PrimeSet):
    """Check every odd n in `ns`; return (witness p per n, counterexamples).

    Vectorized over the chunk: successive subtractor primes p clear the
    values for which q = n - 2p is prime and p < 2q. The first p to clear an
    n is by construction the smallest, matching find_lemoine. Subtractor
    primes are fetched in growing blocks because almost every n is cleared
    by a very small p.
    """
    remaining = np.ones(ns.size, dtype=bool)
    witness_p = np.zeros(ns.size, dtype=np.int64)
    p_bound = max((2 * int(ns.max()) - 1) // 5, 2)
    block_lo, block_hi = 2, min(p_bound, 557)
    while remaining.any():
        for p in primes_in(block_lo, block_hi, sieve):
            p = int(p)
            idx = np.flatnonzero(remaining)
            sub = ns[idx]
            q = sub - 2 * p
            valid = (q >= 3) & (5 * p < 2 * sub)
            ok = np.zeros(sub.size, dtype=bool)
            if valid.any():
                ok[valid] = sieve.contains_many(q[valid])
            hit = idx[ok]
            witness_p[hit] = p
            remaining[hit] = False
            if not remaining.any():
                break
        if block_hi >= p_bound:
            break
        block_lo, block_hi = block_hi + 1, min(p_bound, block_hi * 8)
    counterexamples = [int(v) for v in ns[remaining]]
    return witness_p, counterexamples


_WORKER_SIEVE: PrimeSet | None = None


def _init_worker(sieve: PrimeSet) -> None:
    global _WORKER_SIEVE
    _WORKER_SIEVE = sieve


def _scan_chunk_worker(ns: np.ndarray):
    return _scan_chunk(ns, _WORKER_SIEVE)


def _load_checkpoint(path: str, lo: int, hi: int) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
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
    checkpoint: str | None = None,
    sieve: PrimeSet | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    sample_count: int = 5,
    witness_csv: str | None = None,
) -> RangeReport:
    """Check every odd n in [lo, hi] for a 2p+q decomposition with p < 2q.

    The interval is split into chunks of `chunk_size` odd values, scanned
    independently, and merged in ascending order, so the report is identical
    for any worker count, chunk size and resumption point. A checkpoint
    file, if given, is updated after each chunk and lets an interrupted scan
    resume, in chunks of the `chunk_size` given to the resumed call; a
    checkpoint that does not match lo/hi/version is rejected loudly.

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
    start = lo if lo % 2 == 1 else lo + 1
    counterexamples: list[int] = []
    verified_count = 0
    resume_from = start
    data = None

    if checkpoint is not None and os.path.exists(checkpoint):
        data = _load_checkpoint(checkpoint, lo, hi)
        done_upto = data["verified_up_to"]
        if done_upto >= start:
            last_done = done_upto if done_upto % 2 == 1 else done_upto - 1
            verified_count = (min(last_done, hi) - start) // 2 + 1
            counterexamples = [int(v) for v in data["counterexamples"]]
            resume_from = last_done + 2

    chunks = []
    v = resume_from
    while v <= hi:
        end = min(v + 2 * (chunk_size - 1), hi if hi % 2 == 1 else hi - 1)
        chunks.append(np.arange(v, end + 1, 2, dtype=np.int64))
        v = end + 2

    csv_fh = None
    if witness_csv and data is not None:
        csv_fh = _resume_witness_csv(witness_csv, checkpoint, data)
    elif witness_csv:
        csv_fh = open(witness_csv, "wb")
        csv_fh.write(b"n,p,q\n")

    def consume(ns: np.ndarray, witness_p: np.ndarray, chunk_bad: list[int]) -> None:
        nonlocal verified_count
        verified_count += ns.size
        counterexamples.extend(chunk_bad)
        if csv_fh:
            # Blocks of rows keep the text's temporaries small beside the scan.
            for i in range(0, ns.size, _WITNESS_BLOCK):
                n_i, p_i = ns[i:i + _WITNESS_BLOCK], witness_p[i:i + _WITNESS_BLOCK]
                found = p_i > 0
                n_i, p_i = n_i[found], p_i[found]
                rows = np.column_stack((n_i, p_i, n_i - 2 * p_i))
                csv_fh.write(format_int_rows(rows).encode("ascii"))
        if checkpoint is not None:
            if csv_fh:
                csv_fh.flush()
            _write_checkpoint(checkpoint, lo, hi, int(ns[-1]), counterexamples,
                              chunk_size, csv_fh.tell() if csv_fh else None)

    try:
        if workers == 1 or len(chunks) <= 1:
            for ns in chunks:
                consume(ns, *_scan_chunk(ns, sieve))
        else:
            with ProcessPoolExecutor(
                max_workers=workers, initializer=_init_worker, initargs=(sieve,)
            ) as pool:
                futures = [pool.submit(_scan_chunk_worker, ns) for ns in chunks]
                for ns, fut in zip(chunks, futures):
                    consume(ns, *fut.result())
    finally:
        if csv_fh:
            csv_fh.close()

    # Samples are recomputed from the range endpoints rather than collected
    # during the scan, so they are identical no matter how the scan was
    # chunked, parallelized, or resumed.
    bad = set(counterexamples)
    samples = {}
    last_odd = hi if hi % 2 == 1 else hi - 1
    firsts = list(range(start, min(start + 2 * sample_count, hi + 1), 2))
    lasts = list(range(last_odd, max(last_odd - 2 * sample_count, start - 1), -2))
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
