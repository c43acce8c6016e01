"""The four workloads: their seeded inputs, one timed round, and output checks.

Each workload is built from its seed alone (that is the set-up the benchmark
times), then `run_round` is called until the run's time is used up. A round
times only calls into ``primeladder``; between calls it keeps a digest or the
report of each output, which costs next to no memory. `check` runs after the
last round, once peak RSS has been read, and raises ``CheckError`` on the
first output that fails an independent check.

The program is called through module attributes (``ladder.verify_labeling``
and so on) so that a traced run, which replaces those attributes, sees the
same calls.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from primeladder import conjectures, constructions, ladder, numtheory, partitions

import checks
from checks import require


def _digest(cells: np.ndarray) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(cells, dtype=np.int64)).digest()


def _file_digest(path: Path) -> bytes:
    h = hashlib.blake2b()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.digest()


def _report_fields(report) -> dict:
    """The report as JSON, without its elapsed time, which differs by run."""
    data = report.to_json_dict()
    data.pop("elapsed_seconds")
    return data


def _timed(what: str, call):
    """(result of call(), seconds); the result is None if the call raised.

    An operation that raises is reported on standard error and counted as
    failed; the run goes on.
    """
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception:
        print(f"perfbench: {what} failed:", file=sys.stderr)
        traceback.print_exc(limit=3, file=sys.stderr)
        result = None
    return result, time.perf_counter() - t0


def _same_each_round(records: list) -> list:
    """The records of the rounds that did not fail, which must all be equal."""
    done = [r for r in records if r is not None]
    require(all(r == done[0] for r in done), "rounds produced different outputs")
    return done


class Roundtrip:
    """construct -> CSV text -> file -> load -> verify, as `construct` then `verify` run it."""

    SMALL_MAX = 600
    # (family, target order): one order of each is drawn within 0.2 % above the
    # target, so every seed does nearly the same work.
    LARGE = (("odd", 10_000), ("2p", 30_000), ("odd", 100_000), ("2p", 200_000))

    def __init__(self, seed: int, workdir: Path, tracer=None):
        rng = random.Random(seed)
        small = [n for n in range(1, self.SMALL_MAX + 1) if n <= 14 or n % 2 == 1 or checks.trial_prime(n // 2)]
        large = []
        for family, target in self.LARGE:
            n = target + rng.randrange(target // 500)
            if family == "odd":
                large.append(n | 1)
            else:
                p = n // 2
                while not checks.trial_prime(p):
                    p += 1
                large.append(2 * p)
        self.orders = small + large
        self.items = len(self.orders)
        self.workdir = workdir
        # per order, per round: (constructed digest, read-back digest, violation count), or None
        self.records: dict[int, list] = {n: [] for n in self.orders}

    def _path(self, n: int) -> Path:
        return self.workdir / f"ladder-{n}.csv"

    def _roundtrip(self, n: int):
        lab = constructions.construct_ladder(n)
        text = ladder.format_labeling_csv(lab)
        with open(self._path(n), "w", encoding="utf-8") as fh:
            fh.write(text)
        back = ladder.load_labeling_csv(self._path(n))
        return lab, back, ladder.verify_labeling(back)

    def run_round(self) -> tuple[int, list[float]]:
        """(failed items, seconds of each timed operation)."""
        failed, times = 0, []
        for n in self.orders:
            out, seconds = _timed(f"roundtrip of order {n}", lambda: self._roundtrip(n))
            times.append(seconds)
            if out is None:
                failed += 1
                self.records[n].append(None)
            else:
                lab, back, violations = out
                self.records[n].append((_digest(lab.cells), _digest(back.cells), len(violations)))
        return failed, times

    def check(self) -> None:
        for n in self.orders:
            done = _same_each_round(self.records[n])
            if not done:
                continue
            built, read_back, violations = done[0]
            require(read_back == built, f"order {n}: cells read back differ from the cells constructed")
            require(violations == 0, f"order {n}: verify_labeling reported {violations} violations")
            if self.records[n][-1] is not None:
                cells = checks.parse_csv_rows(self._path(n).read_text(encoding="utf-8"), n)
                require(_digest(cells) == built, f"order {n}: the CSV file does not hold the constructed cells")
                checks.check_prime_labeling(cells)


def _check_lemoine_report(data: dict, hi: int) -> None:
    """A clean report of the scan of odd n in [7, hi], with minimal sample witnesses."""
    last = hi if hi % 2 == 1 else hi - 1
    require((data["lo"], data["hi"], data["parity"]) == (7, hi, "odd"), f"report covers {data['lo']}..{data['hi']}")
    require(data["verified_count"] == (last - 7) // 2 + 1, f"verified_count {data['verified_count']} for [7, {hi}]")
    require(data["counterexamples"] == [], f"counterexamples {data['counterexamples'][:5]}")
    expected = set(range(7, 17, 2)) | set(range(last, last - 10, -2))
    samples = {int(n): w for n, w in data["sample_witnesses"].items()}
    require(set(samples) == expected, f"sample witnesses for {sorted(samples)}")
    for n, (p, q) in samples.items():
        checks.check_lemoine_witness(n, p, q)


class Scan:
    """`sieve_primes(hi)` then `verify_lemoine_range(7, hi)`, one worker, no output files."""

    HI = 10_000_000

    def __init__(self, seed: int, workdir: Path, tracer=None):
        self.hi = self.HI - random.Random(seed).randrange(10_000)
        self.items = (self.hi - 7) // 2 + 1
        self.reports: list[dict | None] = []

    def _scan(self):
        sieve = numtheory.sieve_primes(self.hi)
        return conjectures.verify_lemoine_range(7, self.hi, workers=1, sieve=sieve)

    def run_round(self) -> tuple[int, list[float]]:
        """(failed items, seconds of each timed operation)."""
        report, seconds = _timed(f"scan of [7, {self.hi}]", self._scan)
        self.reports.append(report and _report_fields(report))
        return (0 if report else self.items), [seconds]

    def check(self) -> None:
        for data in _same_each_round(self.reports)[:1]:
            _check_lemoine_report(data, self.hi)


class Witness:
    """The scan as `lemoine --checkpoint --witnesses` runs it, from a fresh checkpoint.

    A resumed scan reopens the witness CSV with "w" and drops the rows written
    before, so every round deletes the checkpoint first.
    """

    HI = 1_000_000

    def __init__(self, seed: int, workdir: Path, tracer=None):
        self.hi = self.HI - random.Random(seed).randrange(10_000)
        self.items = (self.hi - 7) // 2 + 1
        self.checkpoint = workdir / "scan-checkpoint.json"
        self.csv = workdir / "witnesses.csv"
        self.tracer = tracer
        self.rounds: list[tuple[dict, bytes] | None] = []

    def _scan(self):
        sieve = numtheory.sieve_primes(self.hi)
        report = conjectures.verify_lemoine_range(
            7, self.hi, workers=1, checkpoint=str(self.checkpoint), sieve=sieve, witness_csv=str(self.csv)
        )
        json.dumps(report.to_json_dict(), sort_keys=True, indent=2)
        return report

    def run_round(self) -> tuple[int, list[float]]:
        """(failed items, seconds of each timed operation)."""
        for path in (self.checkpoint, self.csv):
            path.unlink(missing_ok=True)
        report, seconds = _timed(f"witness scan of [7, {self.hi}]", self._scan)
        self.rounds.append(report and (_report_fields(report), _file_digest(self.csv)))
        return (0 if report else self.items), [seconds]

    def reference_scan(self) -> None:
        """The same range without checkpoint or CSV, for `conjectures.output_s`."""
        scan = self.tracer.wrap("conjectures.verify_lemoine_range.no_output", conjectures.verify_lemoine_range)
        scan(7, self.hi, workers=1, sieve=numtheory.sieve_primes(self.hi))

    def check(self) -> None:
        done = _same_each_round(self.rounds)
        if not done:
            return
        _check_lemoine_report(done[0][0], self.hi)
        if self.rounds[-1] is None:
            return
        flags = checks.plain_sieve(self.hi)
        next_n = 7
        for rows in checks.iter_witness_blocks(str(self.csv)):
            checks.check_witness_rows(rows, next_n, flags)
            next_n += 2 * rows.shape[0]
        require(next_n - 2 == (self.hi if self.hi % 2 == 1 else self.hi - 1), f"witness rows end at n={next_n - 2}")


class Partition:
    """`verify_strong_range(50, hi, max_terms=4, parity="all", require_strong=True)`."""

    HI = 60_000
    SAMPLE = 100  # n checked for a strong partition after the rounds
    BRUTE = 10  # of those, n whose partition is also found by brute force

    def __init__(self, seed: int, workdir: Path, tracer=None):
        rng = random.Random(seed)
        self.hi = self.HI - rng.randrange(1000)
        self.items = self.hi - 50 + 1
        self.sample = sorted(rng.sample(range(50, self.hi + 1), self.SAMPLE))
        self.brute = set(rng.sample(self.sample, self.BRUTE))
        self.reports: list[dict | None] = []
        self.find_canonical = partitions.find_canonical
        if tracer is not None:
            self.find_canonical = tracer.wrap("partitions.find_canonical", partitions.find_canonical)

    def _range(self):
        return partitions.verify_strong_range(50, self.hi, max_terms=4, parity="all", require_strong=True)

    def run_round(self) -> tuple[int, list[float]]:
        """(failed items, seconds of each timed operation)."""
        report, seconds = _timed(f"strong partition range [50, {self.hi}]", self._range)
        self.reports.append(report and _report_fields(report))
        return (0 if report else self.items), [seconds]

    def check(self) -> None:
        done = _same_each_round(self.reports)
        if not done:
            return
        data = done[0]
        require((data["lo"], data["hi"], data["parity"]) == (50, self.hi, "all"), f"report covers {data['lo']}..{data['hi']}")
        require(data["verified_count"] == self.items, f"verified_count {data['verified_count']}, expected {self.items}")
        require(data["counterexamples"] == [], f"counterexamples {data['counterexamples'][:5]}")
        flags = checks.plain_sieve(self.hi)
        for n, parts in data["sample_witnesses"].items():
            checks.check_strong_partition(int(n), tuple(parts), flags)
        sieve = numtheory.sieve_primes(self.hi)
        for n in self.sample:
            found = self.find_canonical(n, 4, require_strong=True, sieve=sieve)
            require(found is not None, f"n={n}: no strong partition found")
            checks.check_strong_partition(n, found.parts, flags)
            if n in self.brute:
                first = checks.first_strong_partition(n, 4, flags)
                require(found.parts == first, f"n={n}: found {found.parts}, the first in search order is {first}")


WORKLOADS = {"roundtrip": Roundtrip, "scan": Scan, "witness": Witness, "partition": Partition}


def instrument(tracer) -> None:
    """Trace the calls each layer receives, from the benchmark and from other layers."""
    tracer.patch("numtheory.sieve_primes", [numtheory, constructions, partitions],
                 "sieve_primes", lambda args, kwargs, result: {"limit": result.limit})
    tracer.patch("conjectures.find_lemoine", [constructions], "find_lemoine")
    tracer.patch("conjectures.verify_lemoine_range", [conjectures], "verify_lemoine_range",
                 lambda args, kwargs, result: {"witness_csv": kwargs.get("witness_csv") is not None})
    tracer.patch("constructions.construct_ladder", [constructions], "construct_ladder")
    tracer.patch("ladder.format_labeling_csv", [ladder], "format_labeling_csv")
    tracer.patch("ladder.load_labeling_csv", [ladder], "load_labeling_csv")
    tracer.patch("ladder.verify_labeling", [ladder, constructions], "verify_labeling")
    tracer.patch("oracle.brute_force_labeling", [constructions], "brute_force_labeling",
                 lambda args, kwargs, result: {"nodes": result.nodes})
    tracer.patch("partitions.verify_strong_range", [partitions], "verify_strong_range")


def layer_metrics(tracer, rounds: int) -> dict:
    """Per-layer metrics from the spans; times are per round unless named otherwise."""
    def per_round(name: str) -> float:
        return tracer.total(name) / rounds

    sieve_limits = tracer.attr_values("numtheory.sieve_primes", "limit")
    scans = [s for s in tracer.spans if s[2] == "conjectures.verify_lemoine_range"]
    with_output = [s[4] - s[3] for s in scans if s[5]["witness_csv"]]
    reference = tracer.durations("conjectures.verify_lemoine_range.no_output")
    find_us = tracer.durations("partitions.find_canonical")
    return {
        "numtheory.sieve_s": (per_round("numtheory.sieve_primes"), "s"),
        # odd-only flag array: one byte per odd number up to the largest limit
        "numtheory.sieve_mb": (((max(sieve_limits) + 1) // 2) / 2**20 if sieve_limits else 0.0, "MB"),
        "conjectures.scan_s": (per_round("conjectures.verify_lemoine_range"), "s"),
        "conjectures.scan_rss_mb": (max((s[5]["maxrss_rise_kb"] for s in scans), default=0) / 1024, "MB"),
        "conjectures.output_s": (
            statistics.median(with_output) - reference[0] if with_output and reference else 0.0, "s"),
        "conjectures.find_lemoine_s": (per_round("conjectures.find_lemoine"), "s"),
        "constructions.construct_s": (per_round("constructions.construct_ladder"), "s"),
        "ladder.format_s": (per_round("ladder.format_labeling_csv"), "s"),
        "ladder.parse_s": (per_round("ladder.load_labeling_csv"), "s"),
        "ladder.verify_s": (per_round("ladder.verify_labeling"), "s"),
        "oracle.search_s": (per_round("oracle.brute_force_labeling"), "s"),
        "oracle.nodes": (sum(tracer.attr_values("oracle.brute_force_labeling", "nodes")) // rounds, "count"),
        "partitions.range_s": (per_round("partitions.verify_strong_range"), "s"),
        "partitions.find_canonical_us": (statistics.median(find_us) * 1e6 if find_us else 0.0, "us"),
    }
