"""Command-line front end.

Subcommands: construct, verify, lemoine, partition, oracle. Exit codes are
stable so scripts can tell outcomes apart:

    0  success / labeling is prime / zero counterexamples
    1  valid input, negative result (violations, no partition, exhausted
       search, counterexamples found, and for construct a missing 2p+q
       witness or Goldbach split or a labeling that failed its check)
    2  malformed input (bad flags, negative timeout, a labeling file that
       cannot be parsed or whose labels are not a bijection onto 1..2n,
       rejected by the reader and named with the file, an output path that
       cannot be written, an empty output path, a witness CSV on the
       checkpoint's path), or a run that could not finish (a stdout that
       cannot be written, a failed allocation, a dead pool worker)
    3  checkpoint error
    4  search timeout

The commands return 0, 1 or 4 and raise the rest; main maps each exception
to its code through one table and reports it as one ``<command>: ...`` line
on stderr, never as a traceback; help text that stdout cannot take is
reported as ``primeladder: ...``. A stderr that cannot take that line loses
the line, not the code. Output printed before an output file fails still
reaches stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext, suppress

from .conjectures import CheckpointError, WitnessNotFoundError, _path, verify_lemoine_range
from .constructions import (
    ConstructionFailedError,
    construct_ladder,
    lemma_ladder_2p,
    theorem_ladder_2p_q,
)
from .ladder import (
    Labeling,
    MalformedLabelingError,
    format_labeling_csv,
    integer,
    load_labeling_csv,
    verify_labeling,
)
from .oracle import EXHAUSTED, FOUND, TIMEOUT, brute_force_labeling
from .partitions import _check_args, enumerate_canonical, find_canonical, is_strong

__all__ = ["main"]

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_MALFORMED = 2
EXIT_CHECKPOINT = 3
EXIT_TIMEOUT = 4

LABELING_JSON_VERSION = 1


def render_ascii(labeling: Labeling) -> str:
    """Fixed-width, pipe-separated grid with right-aligned labels."""
    width = len(str(2 * labeling.n))
    return "\n".join(
        "|" + "|".join(str(v).rjust(width) for v in row) + "|"
        for row in labeling.to_rows()
    )


def render_labeling(labeling: Labeling, fmt: str) -> str:
    """The labeling as text in `fmt`, one of the --format choices: ascii, csv or json."""
    if fmt == "ascii":
        return render_ascii(labeling)
    if fmt == "csv":
        return format_labeling_csv(labeling).rstrip("\n")
    return json.dumps(
        {
            "version": LABELING_JSON_VERSION,
            "n": labeling.n,
            "rows": [list(row) for row in labeling.to_rows()],
        },
        sort_keys=True,
    )


def cmd_construct(args) -> int:
    if args.q is not None and args.p is None:
        raise ValueError("--q requires --p")
    if args.n is not None:
        labeling = construct_ladder(args.n)
    elif args.q is not None:
        labeling = theorem_ladder_2p_q(args.p, args.q)
    else:
        labeling = lemma_ladder_2p(args.p)
    try:
        print(render_labeling(labeling, args.format))
    except MemoryError as exc:
        # past the grid, its text and the text's encoding are the largest allocations
        raise MemoryError(f"order n={labeling.n}: out of memory for its {args.format} text "
                          f"({str(exc) or type(exc).__name__})") from None
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        labeling = load_labeling_csv(args.file)
    except MalformedLabelingError as exc:
        raise MalformedLabelingError(f"{args.file}: {exc}") from None
    violations = verify_labeling(labeling)
    if not violations:
        print("PRIME")
        return EXIT_OK
    for v in violations:
        print(
            f"({v.position_a[0]},{v.position_a[1]})={v.label_a} and "
            f"({v.position_b[0]},{v.position_b[1]})={v.label_b} "
            f"share factor {v.common_divisor}"
        )
    return EXIT_NEGATIVE


def cmd_lemoine(args) -> int:
    report = verify_lemoine_range(
        args.min,
        args.max,
        workers=args.jobs,
        checkpoint=args.checkpoint,
        witness_csv=args.witnesses,
    )
    print(json.dumps(report.to_json_dict(), sort_keys=True, indent=2))
    for n in report.counterexamples:
        print(f"lemoine: COUNTEREXAMPLE n={n}", file=sys.stderr)
    return EXIT_OK if not report.counterexamples else EXIT_NEGATIVE


def _partition_line(partition, strong: bool) -> str:
    return ",".join(str(p) for p in partition.parts) + (" [strong]" if strong else " [weak]")


def _partition_csv_row(partition, width: int) -> str:
    parts = list(partition.parts) + [""] * (width - len(partition.parts))
    return f"{partition.n},{len(partition.parts)}," + ",".join(str(p) for p in parts)


def cmd_partition(args) -> int:
    witness_csv = _path("witness CSV", args.witness_csv)
    width = max(3, args.max_terms)  # part columns in the witness CSV
    # as for lemoine, a malformed --n or --max-terms fails before the file
    # is opened, and an unwritable path before the search; a search that
    # finds nothing leaves the header alone in the file
    _check_args(args.n, args.max_terms)
    with open(witness_csv, "w", encoding="utf-8") if witness_csv is not None else nullcontext() as fh:
        if fh is not None:
            fh.write(",".join(["n", "term_count"] + [f"p{i}" for i in range(1, width + 1)]) + "\n")
        if args.all:
            found = [(p, is_strong(p)) for p in enumerate_canonical(args.n, args.max_terms)]
            if args.strong:
                found = [(p, strong) for p, strong in found if strong]
        else:
            one = find_canonical(args.n, args.max_terms, require_strong=args.strong)
            found = [] if one is None else [(one, is_strong(one))]
        for p, strong in found:
            print(_partition_line(p, strong))
        if fh is not None and found:
            fh.write("\n".join(_partition_csv_row(p, width) for p, _ in found) + "\n")
    return EXIT_OK if found else EXIT_NEGATIVE


def cmd_oracle(args) -> int:
    if args.timeout_ms is not None and args.timeout_ms < 0:
        raise ValueError(f"--timeout-ms must be >= 0, got {args.timeout_ms}")
    budget = args.timeout_ms / 1000.0 if args.timeout_ms is not None else None
    result = brute_force_labeling(args.n, budget)
    if result.status == FOUND:
        print(render_ascii(result.labeling))
        return EXIT_OK
    if result.status == EXHAUSTED:
        print("EXHAUSTED")
        return EXIT_NEGATIVE
    print("TIMEOUT")
    return EXIT_TIMEOUT


class _ArgumentParser(argparse.ArgumentParser):
    """An ArgumentParser whose help and usage text raise OSError when they cannot be written.

    argparse drops that error, so help sent to a stdout that cannot take it
    would be lost and exit 0; main maps it to an exit code instead.
    """

    def _print_message(self, message, file=None):
        if message:
            (file or sys.stderr).write(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parse_args leaves it unchanged."""
    parser = _ArgumentParser(
        prog="primeladder",
        description="Construct and verify prime labelings of ladder graphs, "
        "search prime partitions, and scan additive conjectures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser(
        "construct", help="build a prime labeling for a ladder order"
    )
    order = p_construct.add_mutually_exclusive_group(required=True)
    order.add_argument("--n", type=integer, help="number of columns")
    order.add_argument("--p", type=integer, help="prime p for the 2p or 2p+q family")
    p_construct.add_argument("--q", type=integer, help="odd prime q for the 2p+q family")
    p_construct.add_argument(
        "--format", choices=("ascii", "csv", "json"), default="ascii"
    )
    p_construct.set_defaults(func=cmd_construct)

    p_verify = sub.add_parser("verify", help="check a labeling file for coprimality")
    p_verify.add_argument("file", help="two-line CSV labeling file")
    p_verify.set_defaults(func=cmd_verify)

    p_lemoine = sub.add_parser(
        "lemoine", help="verify the 2p+q decomposition over an odd range"
    )
    p_lemoine.add_argument("--min", type=integer, required=True)
    p_lemoine.add_argument("--max", type=integer, required=True)
    p_lemoine.add_argument(
        "--jobs", type=integer, default=1, help="worker processes, at most one per 2^18 odd n and per CPU"
    )
    p_lemoine.add_argument("--checkpoint", help="JSON checkpoint path for resumable runs")
    p_lemoine.add_argument("--witnesses", help="write per-n witness CSV here")
    p_lemoine.set_defaults(func=cmd_lemoine)

    p_partition = sub.add_parser(
        "partition", help="find canonical prime partitions of n"
    )
    p_partition.add_argument("--n", type=integer, required=True)
    p_partition.add_argument("--max-terms", type=integer, default=3, dest="max_terms")
    p_partition.add_argument("--strong", action="store_true")
    p_partition.add_argument("--all", action="store_true")
    p_partition.add_argument("--witness-csv", dest="witness_csv")
    p_partition.set_defaults(func=cmd_partition)

    p_oracle = sub.add_parser(
        "oracle", help="exhaustive search for a prime labeling"
    )
    p_oracle.add_argument("--n", type=integer, required=True)
    p_oracle.add_argument("--timeout-ms", type=integer, dest="timeout_ms")
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


# The exit code of each exception a command may raise; the first entry whose
# type matches wins. An OSError is a file, stdout included, that cannot be
# read or written.
_EXIT_CODES = {
    CheckpointError: EXIT_CHECKPOINT,
    **dict.fromkeys((WitnessNotFoundError, ConstructionFailedError), EXIT_NEGATIVE),
    **dict.fromkeys((ValueError, OSError, MemoryError, BrokenProcessPool), EXIT_MALFORMED),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    command = parser.prog  # until a subcommand is parsed
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            code = EXIT_MALFORMED if exc.code else EXIT_OK
        else:
            command = args.command
            code = args.func(args)
        sys.stdout.flush()  # so that a lost stdout fails here, not at exit
    except tuple(_EXIT_CODES) as exc:
        code = next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
        with suppress(OSError):  # a stderr that cannot take the line changes no code
            print(f"{command}: {str(exc) or type(exc).__name__}", file=sys.stderr)
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            # the stream itself failed: what it still holds goes to the null
            # device, or the interpreter's own flush at exit would fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
