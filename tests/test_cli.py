import contextlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from primeladder import cli, conjectures, constructions, numtheory, oracle, partitions
from primeladder.cli import build_parser, main, render_ascii
from primeladder.ladder import Labeling, parse_labeling_csv, verify_labeling
from primeladder.partitions import enumerate_canonical, is_strong

GOLDEN_21 = (
    (15, 2, 3, 4, 17, 14, 5, 18, 19, 20, 21, 8, 23, 24, 25, 26, 27, 28, 29, 30, 31),
    (16, 7, 22, 9, 10, 11, 12, 13, 6, 1, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42),
)
BASE_P3 = "7,2,3,10,11,12\n6,5,4,9,8,1\n"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_construct_theorem_ascii(capsys):
    rc, out, _ = run(capsys, "construct", "--p", "5", "--q", "11", "--format", "ascii")
    assert rc == 0
    assert out.rstrip("\n") == render_ascii(Labeling(GOLDEN_21))


def test_construct_lemma_csv(capsys):
    rc, out, _ = run(capsys, "construct", "--n", "22", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].endswith(",32,1")
    lab = parse_labeling_csv(out)
    assert verify_labeling(lab) == []


def test_construct_json(capsys):
    rc, out, _ = run(capsys, "construct", "--n", "7", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["version"] == 1
    assert doc["n"] == 7
    assert verify_labeling(Labeling(doc["rows"])) == []


def test_construct_oracle_fallback(capsys):
    rc, out, _ = run(capsys, "construct", "--n", "12", "--format", "csv")
    assert rc == 0
    assert verify_labeling(parse_labeling_csv(out)) == []


def test_construct_unsupported_order(capsys):
    rc, _, err = run(capsys, "construct", "--n", "16")
    assert rc == 1
    assert "16" in err


def test_construct_missing_witness_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(constructions, "find_lemoine", lambda n, sieve: None)
    rc, out, err = run(capsys, "construct", "--n", "9")
    assert rc == 1
    assert out == ""
    assert err.startswith("construct: ") and "n=9" in err
    assert "Traceback" not in err


def test_construct_failed_check_exits_1(capsys, monkeypatch):
    # a wrong rule-table partner: q itself lands beside the odd multiple of q
    monkeypatch.setattr(constructions, "_designated_case1_partner", lambda p, q: q)
    for argv in (["--p", "11", "--q", "13"], ["--n", "35"]):
        rc, out, err = run(capsys, "construct", *argv)
        assert rc == 1, argv
        assert out == ""
        assert err.startswith("construct: ") and "non-prime" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("status", [oracle.EXHAUSTED, oracle.TIMEOUT])
def test_construct_without_a_searched_labeling_exits_1(capsys, monkeypatch, n, status):
    monkeypatch.setattr(constructions, "brute_force_labeling",
                        lambda n: oracle.SearchResult(status, None, 0, 0.0))
    rc, out, err = run(capsys, "construct", "--n", str(n))
    assert (rc, out) == (1, "")
    assert err == f"construct: backtracking search reported {status} for n={n}\n"


def test_construct_argument_shapes(capsys):
    assert run(capsys, "construct")[0] == 2
    assert run(capsys, "construct", "--n", "5", "--p", "3")[0] == 2
    assert run(capsys, "construct", "--q", "11")[0] == 2
    # argparse takes --n with --q; construct itself rejects --q without --p
    assert run(capsys, "construct", "--n", "7", "--q", "3") == (2, "", "construct: --q requires --p\n")
    assert run(capsys, "construct", "--p", "9")[0] == 2  # composite p


def test_verify_prime_file(tmp_path, capsys):
    f = tmp_path / "lab.csv"
    f.write_text(BASE_P3)
    rc, out, _ = run(capsys, "verify", str(f))
    assert rc == 0
    assert out.strip() == "PRIME"


def test_verify_violations(tmp_path, capsys):
    # swapping 10 and 12 creates adjacencies sharing factors 2 and 3
    f = tmp_path / "lab.csv"
    f.write_text("7,2,3,12,11,10\n6,5,4,9,8,1\n")
    rc, out, _ = run(capsys, "verify", str(f))
    assert rc == 1
    lines = out.strip().splitlines()
    assert len(lines) >= 1
    assert all("share factor" in line for line in lines)


def test_verify_repeated_label(tmp_path, capsys):
    f = tmp_path / "lab.csv"
    f.write_text("1,2,3\n3,5,6\n")
    rc, _, err = run(capsys, "verify", str(f))
    assert rc == 2
    assert "bijection" in err


def test_verify_parse_error(tmp_path, capsys):
    f = tmp_path / "lab.csv"
    f.write_text("1,2\n3,x\n")
    rc, _, err = run(capsys, "verify", str(f))
    assert rc == 2
    assert "row 2, column 2" in err


@pytest.mark.parametrize(
    "text, where",
    [
        ("1,4\n2,0_3\n", "row 2, column 2"),
        ("\u0661,4\n2,3\n", "row 1, column 1"),
        ("1,4\n2,\uff13\n", "row 2, column 2"),
    ],
)
def test_verify_rejects_separators_and_non_ascii_digits(tmp_path, capsys, text, where):
    # int() reads 0_3 as 3 and each non-ASCII digit as its value, which
    # would make each of these grids a prime labeling of 1..4
    f = tmp_path / "lab.csv"
    f.write_text(text, encoding="utf-8")
    rc, out, err = run(capsys, "verify", str(f))
    assert rc == 2
    assert out == ""
    assert f"{where}: " in err and "is not an integer" in err


# every integer option, with the other arguments its command needs
_INTEGER_OPTIONS = [
    ("construct", "--n", ["--format", "csv"]),
    ("construct", "--p", []),
    ("construct", "--q", ["--p", "5"]),
    ("lemoine", "--min", ["--max", "1001"]),
    ("lemoine", "--max", ["--min", "7"]),
    ("lemoine", "--jobs", ["--min", "7", "--max", "1001"]),
    ("partition", "--n", []),
    ("partition", "--max-terms", ["--n", "87"]),
    ("oracle", "--n", []),
    ("oracle", "--timeout-ms", ["--n", "8"]),
]


@pytest.mark.parametrize("command, flag, rest", _INTEGER_OPTIONS)
@pytest.mark.parametrize("value", ["1_0", "\u0667", "\uff14"])
def test_integer_options_reject_separators_and_non_ascii_digits(capsys, command, flag, rest, value):
    # the rule of the labeling reader: int() would read 1_0 as 10 and each
    # non-ASCII digit as its value
    rc, out, err = run(capsys, command, *rest, flag, value)
    assert rc == 2
    assert out == ""
    assert err.startswith(f"usage: primeladder {command}")
    assert f"argument {flag}: invalid integer value: {value!r}" in err


def test_integer_options_keep_signs_and_spaces(capsys):
    expected = run(capsys, "construct", "--n", "7", "--format", "csv")
    assert expected[0] == 0
    for value in ("+7", " 7 ", "007"):
        assert run(capsys, "construct", "--n", value, "--format", "csv") == expected


def test_verify_oversized_label(tmp_path, capsys):
    f = tmp_path / "lab.csv"
    f.write_text("1,99999999999999999999\n3,4\n")
    rc, _, err = run(capsys, "verify", str(f))
    assert rc == 2
    assert "row 1, column 2" in err


def test_verify_not_utf8(tmp_path, capsys):
    f = tmp_path / "lab.csv"
    f.write_bytes(b"1,2\n3,\xff4\n")
    rc, _, err = run(capsys, "verify", str(f))
    assert rc == 2
    assert "not UTF-8" in err


def test_verify_missing_file(capsys):
    rc, _, err = run(capsys, "verify", "/nonexistent/lab.csv")
    assert rc == 2


def test_construct_verify_round_trip(tmp_path, capsys):
    for n in (2, 7, 9, 21, 22, 38):
        rc, out, _ = run(capsys, "construct", "--n", str(n), "--format", "csv")
        assert rc == 0
        f = tmp_path / f"lab{n}.csv"
        f.write_text(out)
        rc, out, _ = run(capsys, "verify", str(f))
        assert rc == 0


def test_lemoine_range(capsys):
    rc, out, _ = run(capsys, "lemoine", "--min", "7", "--max", "2001")
    assert rc == 0
    doc = json.loads(out)
    assert doc["version"] == 1
    assert doc["conjecture"] == "strengthened_lemoine"
    assert doc["counterexamples"] == []
    assert doc["verified_count"] == 998
    assert doc["sample_witnesses"]["7"] == [2, 3]


def test_lemoine_jobs_deterministic(capsys):
    rc1, out1, _ = run(capsys, "lemoine", "--min", "7", "--max", "3001")
    rc2, out2, _ = run(capsys, "lemoine", "--min", "7", "--max", "3001", "--jobs", "2")
    assert rc1 == rc2 == 0
    a, b = json.loads(out1), json.loads(out2)
    a.pop("elapsed_seconds")
    b.pop("elapsed_seconds")
    assert a == b


def test_lemoine_checkpoint_resume(tmp_path, capsys):
    cp = tmp_path / "cp.json"
    rc, full_out, _ = run(capsys, "lemoine", "--min", "7", "--max", "4001",
                          "--checkpoint", str(cp))
    assert rc == 0
    state = json.loads(cp.read_text())
    state["verified_up_to"] = 2001
    cp.write_text(json.dumps(state))
    rc, resumed_out, _ = run(capsys, "lemoine", "--min", "7", "--max", "4001",
                             "--checkpoint", str(cp))
    assert rc == 0
    a, b = json.loads(full_out), json.loads(resumed_out)
    a.pop("elapsed_seconds")
    b.pop("elapsed_seconds")
    assert a == b


def test_lemoine_checkpoint_error(tmp_path, capsys):
    cp = tmp_path / "cp.json"
    for text in ("{broken", "[7, 1001]"):  # not JSON; JSON but not an object
        cp.write_text(text)
        rc, _, err = run(capsys, "lemoine", "--min", "7", "--max", "1001",
                         "--checkpoint", str(cp))
        assert rc == 3
        assert "checkpoint" in err


def test_lemoine_witness_csv(tmp_path, capsys):
    out_csv = tmp_path / "w.csv"
    rc, _, _ = run(capsys, "lemoine", "--min", "7", "--max", "99",
                   "--witnesses", str(out_csv))
    assert rc == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "n,p,q"
    assert len(lines) == 48


@pytest.mark.parametrize(
    "argv",
    [
        ("lemoine", "--min", "7", "--max", "1001", "--witnesses", "{missing}/w.csv"),
        ("lemoine", "--min", "7", "--max", "1001", "--checkpoint", "{missing}/c.json"),
        ("partition", "--n", "87", "--witness-csv", "{missing}/x.csv"),
        ("partition", "--n", "27", "--witness-csv", "{missing}/x.csv"),  # finds nothing
    ],
)
def test_unwritable_output_path_is_malformed(tmp_path, capsys, argv):
    missing = tmp_path / "no-such-dir"
    rc, _, err = run(capsys, *(a.format(missing=missing) for a in argv))
    assert rc == 2
    assert err.startswith(f"{argv[0]}: ") and str(missing) in err
    assert "Traceback" not in err
    assert not missing.exists()


def test_unwritable_checkpoint_fails_before_the_scan(tmp_path, capsys, monkeypatch):
    scanned = []
    monkeypatch.setattr(conjectures, "_scan_chunk", lambda *args: scanned.append(args))
    csv = tmp_path / "w.csv"
    rc, _, err = run(capsys, "lemoine", "--min", "7", "--max", "1001", "--witnesses", str(csv),
                     "--checkpoint", str(tmp_path / "no-such-dir" / "c.json"))
    assert rc == 2
    assert "Traceback" not in err
    assert scanned == []
    assert not csv.exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--jobs", "0"), ("--checkpoint", "{missing}/c.json"), ("--witnesses", "{missing}/w.csv")],
)
def test_lemoine_rejects_arguments_before_it_sieves(tmp_path, capsys, monkeypatch, flag, value):
    built = []
    monkeypatch.setattr(numtheory.PrimeSet, "__init__", lambda self, *args: built.append(args))
    value = value.format(missing=tmp_path / "no-such-dir")
    rc, _, err = run(capsys, "lemoine", "--min", "7", "--max", str(10**8), flag, value)
    assert rc == 2
    assert err.startswith("lemoine: ") and "Traceback" not in err
    assert built == []


@pytest.mark.parametrize("flag", ["--witnesses", "--checkpoint"])
def test_lemoine_empty_output_path_is_malformed(tmp_path, capsys, monkeypatch, flag):
    # an empty path names no file: it is refused before the sieve, not
    # ignored, and leaves nothing in the working directory
    monkeypatch.chdir(tmp_path)
    calls = []

    def recorded(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)
        return call

    for module, name in ((numtheory, "sieve_primes"), (conjectures, "_scan_chunk")):
        monkeypatch.setattr(module, name, recorded(name, getattr(module, name)))
    rc, _, err = run(capsys, "lemoine", "--min", "7", "--max", "1001", flag, "")
    assert rc == 2
    assert err.startswith("lemoine: ") and "empty" in err and "Traceback" not in err
    assert calls == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("suffix", ["", ".tmp"])
def test_lemoine_witness_csv_on_the_checkpoint_path_is_malformed(tmp_path, capsys, monkeypatch, suffix):
    scanned = []
    monkeypatch.setattr(conjectures, "_scan_chunk", lambda *args: scanned.append(args))
    cp = tmp_path / "same"
    rc, _, err = run(capsys, "lemoine", "--min", "7", "--max", "300001",
                     "--witnesses", f"{cp}{suffix}", "--checkpoint", str(cp))
    assert rc == 2
    assert err.startswith("lemoine: ") and "checkpoint" in err
    assert scanned == []
    assert list(tmp_path.iterdir()) == []


def test_partition_all_listing(capsys):
    rc, out, _ = run(capsys, "partition", "--n", "87", "--max-terms", "3", "--all")
    assert rc == 0
    lines = out.strip().splitlines()
    assert "3,11,73 [weak]" in lines
    assert "3,17,67 [strong]" in lines


def test_partition_strong(capsys):
    rc, out, _ = run(capsys, "partition", "--n", "87", "--strong")
    assert rc == 0
    line = out.strip()
    assert line.endswith("[strong]")
    parts = [int(v) for v in line.split(" ")[0].split(",")]
    assert sum(parts) == 87


def test_partition_none_found(capsys):
    rc, out, _ = run(capsys, "partition", "--n", "6")
    assert rc == 1
    assert out.strip() == ""


def test_partition_witness_csv(tmp_path, capsys):
    f = tmp_path / "p.csv"
    rc, _, _ = run(capsys, "partition", "--n", "87", "--all", "--witness-csv", str(f))
    assert rc == 0
    lines = f.read_text().strip().splitlines()
    assert lines[0] == "n,term_count,p1,p2,p3"
    assert "87,3,3,11,73" in lines


def test_partition_witness_csv_holds_only_the_last_search(tmp_path, capsys):
    # a search that finds nothing leaves the header alone, not the rows of an earlier run
    f = tmp_path / "p.csv"
    assert run(capsys, "partition", "--n", "87", "--witness-csv", str(f))[0] == 0
    rc, out, _ = run(capsys, "partition", "--n", "27", "--witness-csv", str(f))
    assert rc == 1
    assert out == ""
    assert f.read_text() == "n,term_count,p1,p2,p3\n"


def test_partition_strength_is_checked_once_per_partition(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "is_strong", lambda p: calls.append(p.parts) or is_strong(p))
    rc, out, _ = run(capsys, "partition", "--n", "87", "--max-terms", "3", "--all", "--strong")
    assert rc == 0
    assert len(out.splitlines()) == 4  # of the 6, 3 + 11 + 73 and 7 + 19 + 61 are weak
    assert sorted(calls) == [p.parts for p in enumerate_canonical(87, 3)]


@pytest.mark.parametrize("search", [(), ("--all",)])
def test_partition_empty_witness_csv_is_malformed(tmp_path, capsys, monkeypatch, search):
    # as for lemoine, an empty path is refused before the search, not ignored
    monkeypatch.chdir(tmp_path)
    searched = []
    for name in ("find_canonical", "enumerate_canonical"):
        monkeypatch.setattr(cli, name, lambda *args, **kw: searched.append(args))
    rc, out, err = run(capsys, "partition", "--n", "87", "--max-terms", "3", *search, "--witness-csv", "")
    assert rc == 2
    assert out == ""
    assert err.startswith("partition: ") and "empty" in err and "Traceback" not in err
    assert searched == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [("--n", "2"), ("--n", "87", "--max-terms", "9"), ("--n", "87", "--max-terms", "0")])
def test_partition_malformed_input_leaves_the_witness_csv_alone(tmp_path, capsys, argv):
    # a malformed --n or --max-terms exits 2 before the file is opened for writing
    f = tmp_path / "keep.csv"
    f.write_bytes(b"n,term_count,p1,p2,p3\n87,3,3,17,67\n")
    rc, out, err = run(capsys, "partition", *argv, "--witness-csv", str(f))
    assert rc == 2
    assert out == ""
    assert err.startswith("partition: ") and "Traceback" not in err
    assert f.read_bytes() == b"n,term_count,p1,p2,p3\n87,3,3,17,67\n"


@pytest.mark.parametrize("max_terms", [1, 2, 3, 4])
def test_partition_witness_csv_keeps_every_part(tmp_path, capsys, max_terms):
    f = tmp_path / "p.csv"
    rc, _, _ = run(capsys, "partition", "--n", "200", "--max-terms", str(max_terms),
                   "--all", "--witness-csv", str(f))
    width = max(3, max_terms)
    lines = f.read_text().splitlines() if rc == 0 else []
    assert rc == (1 if max_terms == 1 else 0)
    if lines:
        assert lines[0] == ",".join(["n", "term_count"] + [f"p{i}" for i in range(1, width + 1)])
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 2 + width
        n, term_count = int(fields[0]), int(fields[1])
        parts = [int(v) for v in fields[2:] if v]
        assert n == 200
        assert len(parts) == term_count
        assert sum(parts) == n
    if max_terms == 4:
        assert "200,4,3,11,37,149" in lines


def test_main_repeated_calls_give_the_same_results(tmp_path, capsys):
    prime_csv = tmp_path / "prime.csv"
    prime_csv.write_text(BASE_P3)
    violating_csv = tmp_path / "violating.csv"
    violating_csv.write_text("1,2\n3,4\n")
    calls = [
        ("construct", "--n", "22", "--format", "csv"),
        ("verify", str(prime_csv)),
        ("verify", str(violating_csv)),
        ("partition", "--n", "87", "--strong"),
        ("partition", "--n", "6"),
        ("partition", "--n", "200", "--max-terms", "4", "--all"),
        ("oracle", "--n", "4"),
        ("construct", "--n", "22", "--p", "11"),
        ("frobnicate",),
    ]
    first = [run(capsys, *argv) for argv in calls]
    assert [rc for rc, _, _ in first] == [0, 0, 1, 0, 1, 0, 0, 2, 2]
    for _ in range(3):
        assert [run(capsys, *argv) for argv in calls] == first
    # a later call does not see the options of an earlier one
    rc, out, _ = run(capsys, "construct", "--n", "7")
    assert rc == 0
    assert out.startswith("|")
    assert build_parser() is build_parser()


def test_oracle_found(capsys):
    rc, out, _ = run(capsys, "oracle", "--n", "4")
    assert rc == 0
    assert out.count("|") > 0


def test_oracle_single_column(capsys):
    rc, out, _ = run(capsys, "oracle", "--n", "1")
    assert rc == 0
    assert out.strip().splitlines() == ["|1|", "|2|"]


def test_oracle_exhausted(capsys, monkeypatch):
    # a coprimality table without a coprime pair leaves nothing to find
    monkeypatch.setattr(oracle, "_coprime_masks", lambda m, deadline: [0] * (m + 1))
    assert run(capsys, "oracle", "--n", "2") == (1, "EXHAUSTED\n", "")


def test_oracle_timeout(capsys):
    # a zero budget can never complete, forcing the timeout path
    rc, out, _ = run(capsys, "oracle", "--n", "14", "--timeout-ms", "0")
    assert rc == 4
    assert out.strip() == "TIMEOUT"


def test_oracle_negative_timeout_is_malformed(capsys):
    rc, out, err = run(capsys, "oracle", "--n", "3", "--timeout-ms", "-5")
    assert rc == 2
    assert out == ""
    assert err.startswith("oracle: ") and "Traceback" not in err


@pytest.mark.parametrize("value", ["-1", "-5", " -250"])
def test_oracle_negative_timeout_names_the_flag(capsys, value):
    # the error speaks of the flag in milliseconds, not of a budget in seconds
    rc, out, err = run(capsys, "oracle", "--n", "3", "--timeout-ms", value)
    assert (rc, out) == (2, "")
    assert err == f"oracle: --timeout-ms must be >= 0, got {value.strip()}\n"


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 2



def test_an_exception_outside_the_exit_code_table_still_raises(capsys, monkeypatch):
    def broken(n, budget):
        raise RuntimeError("a bug, not an outcome")

    monkeypatch.setattr(cli, "brute_force_labeling", broken)
    with pytest.raises(RuntimeError, match="a bug"):
        main(["oracle", "--n", "4"])
    assert capsys.readouterr().err == ""


_SRC = os.path.dirname(os.path.dirname(cli.__file__))
_TEST_PID = os.getpid()


def _cli_process(*argv, unbuffered=False, **kw):
    """The CLI in a fresh interpreter, stderr piped unless given; stdout is block-buffered, as in a pipeline, unless `unbuffered`."""
    env = dict(os.environ, PYTHONUNBUFFERED="1" if unbuffered else "",
               PYTHONPATH=os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH")))))
    kw.setdefault("stderr", subprocess.PIPE)
    return subprocess.Popen([sys.executable, "-m", "primeladder.cli", *argv], env=env, text=True, **kw)


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "--n", "7"),
        ("verify", "{lab}"),
        ("lemoine", "--min", "7", "--max", "1001"),
        ("partition", "--n", "87"),
        ("oracle", "--n", "4"),
    ],
)
def test_lost_stdout_exits_2(tmp_path, argv, unbuffered):
    # a buffered stdout fails at main's flush, an unbuffered one in print;
    # either way nothing is left to fail again when the interpreter exits
    lab = tmp_path / "lab.csv"
    lab.write_text(BASE_P3)
    with open("/dev/full", "w") as full:
        proc = _cli_process(*(a.format(lab=lab) for a in argv), unbuffered=unbuffered, stdout=full)
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err == f"{argv[0]}: [Errno 28] No space left on device\n"
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [("--help",), ("construct", "--help")])
def test_help_to_a_lost_stdout_exits_2(argv, unbuffered):
    # argparse writes the help itself and drops a failed write: buffered, the
    # interpreter's flush at exit failed (exit 120), unbuffered the help was
    # lost and the run exited 0
    with open("/dev/full", "w") as full:
        proc = _cli_process(*argv, unbuffered=unbuffered, stdout=full)
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err == "primeladder: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "argv, stdout, code",
    [
        (("lemoine", "--min", "7", "--max", "1001"), "/dev/full", 2),
        (("--help",), "/dev/full", 2),
        (("construct", "--n", "16"), os.devnull, 1),  # unsupported order
        (("construct", "--n", "15"), os.devnull, 0),
    ],
)
def test_lost_stderr_keeps_the_exit_code(argv, stdout, code, unbuffered):
    # main's own error line cannot be written either: it is dropped and the
    # code stands (it was 1 unbuffered, as if the run had failed, and 120
    # buffered, from the interpreter's flush at exit)
    with open(stdout, "w") as out, open("/dev/full", "w") as full:
        proc = _cli_process(*argv, unbuffered=unbuffered, stdout=out, stderr=full)
        assert proc.wait(timeout=120) == code


def test_closed_pipe_exits_2():
    # as in `construct ... | head -c 10`: the reader goes away mid-output
    proc = _cli_process("construct", "--n", "200001", "--format", "csv", stdout=subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 2
    assert err == "construct: [Errno 32] Broken pipe\n"


def test_output_printed_before_a_failed_output_file_reaches_stdout():
    # stdout is only discarded when stdout itself fails
    proc = _cli_process("partition", "--n", "87", "--all", "--witness-csv", "/dev/full",
                        stdout=subprocess.PIPE)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert out.splitlines() == ["3,11,73 [weak]", "3,13,71 [strong]", "3,17,67 [strong]",
                                "3,23,61 [strong]", "5,23,59 [strong]", "7,19,61 [weak]"]
    assert err == "partition: [Errno 28] No space left on device\n"


@pytest.mark.parametrize(
    "argv",
    [("lemoine", "--min", "7", "--max", "1001"), ("construct", "--n", "10001"), ("partition", "--n", "87")],
)
def test_failed_allocation_exits_2(capsys, monkeypatch, argv):
    def no_memory(limit):
        raise MemoryError

    for module in (numtheory, constructions, partitions):
        monkeypatch.setattr(module, "sieve_primes", no_memory)
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err == f"{argv[0]}: MemoryError\n"


def _die_in_worker(*args):
    # a pool worker that dies mid-task, as one the kernel's OOM killer ends
    if os.getpid() != _TEST_PID:
        os._exit(1)
    raise AssertionError("the kernel ran in the test process, not in a pool worker")


def test_dead_worker_exits_2(capsys, monkeypatch):
    # two cores, so that the scan's two spans go to a pool of two workers
    monkeypatch.setattr(conjectures.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(conjectures, "_scan_chunk", _die_in_worker)
    rc, out, err = run(capsys, "lemoine", "--min", "7", "--max", "2000001", "--jobs", "2")
    assert rc == 2
    assert out == ""
    assert err.startswith("lemoine: ") and err.count("\n") == 1
    assert multiprocessing.active_children() == []


def _valid_value(v, first, last):
    return type(v) is int and v % 2 == 1 and first <= v <= last


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=5),
    st.integers(-10**12, 10**12),
)


@pytest.fixture(scope="module")
def finished_checkpoint(tmp_path_factory):
    cp = tmp_path_factory.mktemp("cp") / "cp.json"
    assert main(["lemoine", "--min", "7", "--max", "20001", "--checkpoint", str(cp)]) == 0
    return json.loads(cp.read_text())


def _lemoine_exit_code(state):
    with tempfile.TemporaryDirectory() as tmp:
        cp = os.path.join(tmp, "cp.json")
        with open(cp, "w", encoding="utf-8") as fh:
            json.dump(state, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(["lemoine", "--min", "7", "--max", "20001", "--checkpoint", cp])


@settings(max_examples=60, deadline=None)
@given(done=st.one_of(_JSON_SCALARS, st.lists(st.integers(), max_size=2))
       .filter(lambda v: not _valid_value(v, 7, 20001)))
@example(done="abc")
@example(done=5.5)
@example(done=10**9)
@example(done=9000)
@example(done=5)
@example(done=True)
def test_lemoine_rejects_a_tampered_verified_up_to(finished_checkpoint, done):
    assert _lemoine_exit_code(dict(finished_checkpoint, verified_up_to=done)) == 3


def _valid_counterexamples(bad, done):
    return (type(bad) is list and all(_valid_value(v, 7, done) for v in bad)
            and all(a < b for a, b in zip(bad, bad[1:])))


@settings(max_examples=60, deadline=None)
@given(done=st.integers(3, 10_000).map(lambda k: 2 * k + 1),
       bad=st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=4),
                     st.lists(st.integers(-3, 20_010), max_size=4)))
@example(done=9001, bad=[8, "x"])
@example(done=9001, bad=[9003])
@example(done=9001, bad=[9001, 9001])
@example(done=9001, bad=[101, 99])
@example(done=9001, bad=[True])
def test_lemoine_rejects_tampered_counterexamples(finished_checkpoint, done, bad):
    assume(not _valid_counterexamples(bad, done))
    state = dict(finished_checkpoint, verified_up_to=done, counterexamples=bad)
    assert _lemoine_exit_code(state) == 3


def test_lemoine_checkpoint_of_a_range_without_odd_n(tmp_path, capsys):
    # [8, 8] holds no odd n, so no verified_up_to is valid; the error names
    # the bounds the range would have, as a report of an empty scan does
    cp = tmp_path / "c.json"
    cp.write_text(json.dumps({"conjecture": "strengthened_lemoine", "lo": 8, "hi": 8, "verified_up_to": 9,
                              "counterexamples": [], "chunk_size": 65536, "witness_csv_bytes": None,
                              "version": 1}))
    rc, out, err = run(capsys, "lemoine", "--min", "8", "--max", "8", "--checkpoint", str(cp))
    assert rc == 3
    assert out == ""
    assert err == f"lemoine: checkpoint {cp}: verified_up_to 9 is not an odd integer in [9, 7]\n"


def test_lemoine_resumes_a_checkpoint_with_valid_fields(finished_checkpoint):
    # counterexamples are taken on trust, so a hand-written one is reported
    state = dict(finished_checkpoint, verified_up_to=9001, counterexamples=[8999, 9001])
    assert _lemoine_exit_code(state) == 1
    assert _lemoine_exit_code(dict(finished_checkpoint, verified_up_to=7)) == 0
