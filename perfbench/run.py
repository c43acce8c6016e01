"""Run one benchmark workload of primeladder and print its metrics as JSON.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout this file sits in, and
the run stops with exit code 2 if it is not there. All work runs in this one
process, with no worker pool. Rounds of the workload repeat until another
round would overrun ``--seconds`` (at least one round is run). Times are
scaled to a nominal host speed by a reference probe timed between rounds
(see `reference_seconds`). The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Files the run writes go under
``.perfbench_out/`` in the checkout; work files are deleted when it ends, a
traced run leaves its spans in ``trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
# What `reference_seconds` takes on the host the benchmark was tuned on, so
# scaled times read close to that host's plain seconds.
REFERENCE_S = 0.1
# The same for the reference start in `measure_setup`.
START_REFERENCE_S = 0.2


def reference_seconds() -> float:
    """Seconds a fixed mix of Python and NumPy work takes on this host right now.

    The shared host's speed drifts by tens of per cent over seconds and
    minutes, for all code alike. Timing this probe between rounds measures
    that drift, and dividing a round's times by the probe's makes them
    comparable across runs. The mix follows the program's own: rows of
    integers read from an array, formatted and written to a text stream
    (CSV output), a Python loop of integer arithmetic and gcd (partitions)
    and array arithmetic with boolean indexing (sieve, scan kernel). It
    shares no code with primeladder.
    """
    t0 = time.perf_counter()
    # small pieces throughout, so that peak RSS stays the program's
    a = np.arange(10_000, dtype=np.int64)
    for k in range(6):
        out = io.StringIO()
        for i in range(a.size):
            v = int(a[i]) + k
            out.write(f"{v},{v % 97},{v // 3}\n")
    acc = 0
    for i in range(1, 40_000):
        acc += math.gcd(i, 2 * i + acc % 7) + i % 5
    for k in range(400):
        a[(a * 7 + k) % 13 == 3].sum()
    return time.perf_counter() - t0


def import_program():
    """Import primeladder from this checkout's src/, or exit with code 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import primeladder
    except ImportError as exc:
        print(f"perfbench: cannot import primeladder from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if src not in Path(primeladder.__file__).resolve().parents:
        print(f"perfbench: primeladder was imported from {primeladder.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)


def measure_setup(args) -> float:
    """Median, over fresh interpreters, of the scaled time from spawn to inputs ready.

    Each probe starts this script with --setup-probe; it imports everything a
    run imports, builds the workload's inputs and prints the monotonic clock,
    which is shared by all processes of the machine. The host's cost of
    starting a process drifts apart from its speed at running code, so each
    probe is scaled by reference starts timed just before and after it: an
    interpreter that imports NumPy and prints the clock, which is about two
    thirds of a probe.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    reference_cmd = [sys.executable, "-c", "import time, numpy; print(time.monotonic())"]

    def started(command) -> float:
        t0 = time.monotonic()
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        return float(done.stdout.split()[-1]) - t0

    samples = []
    ref_before = started(reference_cmd)
    for _ in range(SETUP_PROBES):
        seconds = started(cmd)
        ref_after = started(reference_cmd)
        samples.append(seconds * 2 * START_REFERENCE_S / (ref_before + ref_after))
        ref_before = ref_after
    return statistics.median(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["roundtrip", "scan", "witness", "partition"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, str(HERE))
    import workloads
    from checks import CheckError
    from tracing import Tracer, maxrss_kb

    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed, OUT / "unused")
        print(time.monotonic())
        return 0

    setup_s = None if args.trace else measure_setup(args)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    tracer = Tracer() if args.trace else None
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, tracer)
        if tracer is not None:
            workloads.instrument(tracer)
        rounds, refs, attempted, failed = [], [], 0, 0
        start = time.perf_counter()
        reference_seconds()  # warm-up
        ref_before = reference_seconds()
        while True:
            r0 = time.perf_counter()
            bad, times = wl.run_round()
            ref_after = reference_seconds()
            refs.append(ref_after)
            scale = 2 * REFERENCE_S / (ref_before + ref_after)
            rounds.append([t * scale for t in times])
            ref_before = ref_after
            attempted += wl.items
            failed += bad
            now = time.perf_counter()
            if now - start + (now - r0) > args.seconds:
                break
        if tracer is not None:
            tracer.unpatch()
        peak_rss_mb = maxrss_kb() / 1024
        try:
            wl.check()
            correct = True
        except CheckError as exc:
            print(f"perfbench: output check failed: {exc}", file=sys.stderr)
            correct = False
        # Each operation's median scaled time over the rounds filters out the
        # bursts the reference probe does not catch; rounds do the same
        # operations.
        typical_round = sum(statistics.median(op) for op in zip(*rounds))
        items_per_s = (attempted - failed) / len(rounds) / typical_round
        print(f"perfbench: {args.workload} seed {args.seed}: round rates "
              f"{[round(wl.items / sum(times), 1) for times in rounds]}, "
              f"median reference probe {statistics.median(refs):.4f} s", file=sys.stderr)
        if tracer is None:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "items_per_s": {"value": items_per_s, "unit": "1/s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        else:
            if isinstance(wl, workloads.Witness):
                wl.reference_scan()
            layers = workloads.layer_metrics(tracer, len(rounds))
            metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
            tracer.write(str(OUT / f"trace-{args.workload}-seed{args.seed}.json"), {
                "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
                "items_per_s_traced": items_per_s, "peak_rss_mb": peak_rss_mb, "metrics": metrics,
            })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
