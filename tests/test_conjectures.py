import hashlib
import json
import random
from concurrent.futures import Future
from itertools import chain

import numpy as np
import pytest

from primeladder import conjectures, numtheory, partitions
from primeladder.conjectures import (
    CheckpointError,
    LemoineWitness,
    find_goldbach,
    find_lemoine,
    verify_lemoine_range,
)
from primeladder.constructions import theorem_ladder_2p_q
from primeladder.ladder import verify_labeling
from primeladder.numtheory import CoverageExceededError, PrimeSet, is_prime, primes_in, sieve_primes
from primeladder.partitions import verify_strong_range


def test_find_lemoine_reference_values(sieve_10k):
    assert (find_lemoine(7, sieve_10k).p, find_lemoine(7, sieve_10k).q) == (2, 3)
    assert (find_lemoine(9, sieve_10k).p, find_lemoine(9, sieve_10k).q) == (2, 5)
    assert (find_lemoine(21, sieve_10k).p, find_lemoine(21, sieve_10k).q) == (2, 17)


def test_find_lemoine_smallest_p(sieve_10k):
    # exhaustive re-check of the smallest-p policy on a window
    for n in range(7, 1500, 2):
        w = find_lemoine(n, sieve_10k)
        assert w is not None
        for p in range(2, w.p):
            q = n - 2 * p
            ok = (
                sieve_10k.contains(p)
                and q >= 3
                and q % 2 == 1
                and sieve_10k.contains(q)
                and p < 2 * q
            )
            assert not ok


def test_find_lemoine_validation(sieve_10k):
    with pytest.raises(ValueError):
        find_lemoine(8, sieve_10k)
    with pytest.raises(ValueError):
        find_lemoine(5, sieve_10k)
    with pytest.raises(CoverageExceededError):
        find_lemoine(10_001, sieve_10k)


def test_witness_invariants_rechecked():
    LemoineWitness(7, 2, 3)
    LemoineWitness(9, 3, 3)
    with pytest.raises(ValueError):
        LemoineWitness(7, 2, 4)       # sum wrong and q even
    with pytest.raises(ValueError):
        LemoineWitness(8, 2, 4)       # even n
    with pytest.raises(ValueError):
        LemoineWitness(21, 9, 3)      # composite p and p >= 2q
    with pytest.raises(ValueError):
        LemoineWitness(17, 7, 3)      # p >= 2q
    with pytest.raises(ValueError):
        LemoineWitness(13, 4, 5)      # composite p


def _trial_prime(k):
    return k >= 2 and all(k % d for d in range(2, k))


def test_witness_accepts_exactly_the_2p_q_triples():
    # n = 2p + q with p prime, q an odd prime and p < 2q; n odd and >= 7
    # follows, so the witness does not check it on its own
    for n in range(81):
        for p in range(81):
            for q in range(81):
                expect = (n == 2 * p + q and _trial_prime(p) and q % 2 == 1 and _trial_prime(q)
                          and p < 2 * q)
                try:
                    LemoineWitness(n, p, q)
                except ValueError:
                    assert not expect, (n, p, q)
                else:
                    assert expect, (n, p, q)


def test_find_goldbach_reference_values(sieve_10k):
    assert find_goldbach(4, sieve_10k) == (2, 2)
    assert find_goldbach(10, sieve_10k) == (3, 7)
    assert find_goldbach(100, sieve_10k) == (3, 97)
    with pytest.raises(ValueError):
        find_goldbach(7, sieve_10k)
    with pytest.raises(ValueError):
        find_goldbach(2, sieve_10k)


def test_goldbach_window(sieve_10k):
    for n in range(4, 2000, 2):
        p, q = find_goldbach(n, sieve_10k)
        assert p + q == n and p <= q
        assert sieve_10k.contains(p) and sieve_10k.contains(q)


def test_miller_rabin_searches_match_the_table_searches():
    # the searches construct_ladder runs, on Miller-Rabin and no table, give
    # the table's smallest witness of every odd n and smallest split of
    # every even n in range
    sieve = sieve_primes(20_000)
    mr = conjectures._tested_primes, numtheory._miller_rabin
    for n in range(7, 20_001, 2):
        assert conjectures._smallest_witness(n, *mr) == find_lemoine(n, sieve), n
    for n in range(4, 20_001, 2):
        assert conjectures._smallest_split(n, *mr) == find_goldbach(n, sieve), n


@pytest.mark.parametrize("near", [10**12, 10**18])
def test_miller_rabin_witnesses_of_large_orders(near):
    # far above any table: each witness is one LemoineWitness accepts, and
    # no smaller prime p leaves a prime q
    rng = random.Random(near)
    for _ in range(200):
        n = near + 2 * rng.randrange(near // 10) + 1
        w = conjectures._smallest_witness(n, conjectures._tested_primes, numtheory._miller_rabin)
        assert w == LemoineWitness(n, w.p, w.q)
        assert not any(is_prime(n - 2 * p) for p in range(2, w.p) if is_prime(p)), n


def test_range_single_value(sieve_10k):
    report = verify_lemoine_range(7, 7, sieve=sieve_10k)
    assert report.verified_count == 1
    assert report.counterexamples == ()
    assert report.sample_witnesses == {7: (2, 3)}


def test_range_counts_and_samples(sieve_10k):
    report = verify_lemoine_range(7, 9999, sieve=sieve_10k)
    assert report.verified_count == 4997
    assert report.counterexamples == ()
    assert report.sample_witnesses[7] == (2, 3)
    assert 9999 in report.sample_witnesses
    # every sampled witness satisfies the decomposition
    for n, (p, q) in report.sample_witnesses.items():
        assert 2 * p + q == n and p < 2 * q


def test_range_scan_matches_single_searches(sieve_10k):
    report = verify_lemoine_range(101, 301, sieve=sieve_10k)
    for n, (p, q) in report.sample_witnesses.items():
        w = find_lemoine(n, sieve_10k)
        assert (w.p, w.q) == (p, q)


def test_range_workers_deterministic(sieve_10k):
    a = verify_lemoine_range(7, 8001, workers=1, sieve=sieve_10k, chunk_size=512)
    b = verify_lemoine_range(7, 8001, workers=3, sieve=sieve_10k, chunk_size=512)
    da, db = a.to_json_dict(), b.to_json_dict()
    da.pop("elapsed_seconds")
    db.pop("elapsed_seconds")
    assert da == db


def test_range_validation(sieve_10k):
    with pytest.raises(ValueError):
        verify_lemoine_range(5, 100, sieve=sieve_10k)
    with pytest.raises(ValueError):
        verify_lemoine_range(101, 7, sieve=sieve_10k)
    with pytest.raises(CoverageExceededError):
        verify_lemoine_range(7, 20_000, sieve=sieve_10k)


def test_checkpoint_resume_identical(tmp_path, sieve_10k):
    cp = tmp_path / "scan.json"
    full = verify_lemoine_range(7, 6001, sieve=sieve_10k, checkpoint=str(cp), chunk_size=256)
    state = json.loads(cp.read_text())
    assert state["verified_up_to"] == 6001
    assert state["version"] == 1
    assert state["conjecture"] == "strengthened_lemoine"

    # rewind the checkpoint to mid-scan and resume
    state["verified_up_to"] = 3001
    cp.write_text(json.dumps(state))
    resumed = verify_lemoine_range(7, 6001, sieve=sieve_10k, checkpoint=str(cp), chunk_size=256)
    a, b = full.to_json_dict(), resumed.to_json_dict()
    a.pop("elapsed_seconds")
    b.pop("elapsed_seconds")
    assert a == b


def test_checkpoint_mismatch_rejected(tmp_path, sieve_10k):
    cp = tmp_path / "scan.json"
    verify_lemoine_range(7, 1001, sieve=sieve_10k, checkpoint=str(cp))
    with pytest.raises(CheckpointError):
        verify_lemoine_range(7, 2001, sieve=sieve_10k, checkpoint=str(cp))
    state = json.loads(cp.read_text())
    for key, value in (("version", 99), ("conjecture", "goldbach")):
        cp.write_text(json.dumps(dict(state, **{key: value})))
        with pytest.raises(CheckpointError, match=f"{value}"):
            verify_lemoine_range(7, 1001, sieve=sieve_10k, checkpoint=str(cp))
    cp.write_text(json.dumps({k: v for k, v in state.items() if k != "chunk_size"}))
    with pytest.raises(CheckpointError, match="missing field 'chunk_size'"):
        verify_lemoine_range(7, 1001, sieve=sieve_10k, checkpoint=str(cp))


def test_a_range_without_odd_n_verifies_none(tmp_path):
    # [8, 8] is a valid range with no odd n in it: nothing is scanned,
    # with a fresh checkpoint too
    assert verify_lemoine_range(8, 8).verified_count == 0
    report = verify_lemoine_range(8, 8, checkpoint=str(tmp_path / "scan.json"))
    assert (report.verified_count, report.counterexamples, report.sample_witnesses) == (0, (), {})


def test_checkpoint_corrupt_rejected(tmp_path, sieve_10k):
    cp = tmp_path / "scan.json"
    cp.write_text("{not json")
    with pytest.raises(CheckpointError):
        verify_lemoine_range(7, 1001, sieve=sieve_10k, checkpoint=str(cp))
    cp.write_text("[7, 1001]")
    with pytest.raises(CheckpointError, match="not a JSON object"):
        verify_lemoine_range(7, 1001, sieve=sieve_10k, checkpoint=str(cp))


def test_witness_csv(tmp_path, sieve_10k):
    out = tmp_path / "witnesses.csv"
    verify_lemoine_range(7, 99, sieve=sieve_10k, witness_csv=str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,p,q"
    assert lines[1] == "7,2,3"
    assert len(lines) == 1 + 47  # odd n in [7, 99]
    for line in lines[1:]:
        n, p, q = map(int, line.split(","))
        assert 2 * p + q == n and p < 2 * q


def test_witnesses_feed_ladder_construction(sieve_10k):
    # spot-check the cross-module contract: a witness certifies that the
    # 2p+q construction applies and succeeds
    for n in list(range(7, 303, 2)) + [1001, 4999, 9999]:
        w = find_lemoine(n, sieve_10k)
        lab = theorem_ladder_2p_q(w.p, w.q)
        assert lab.n == n
        assert verify_labeling(lab) == []


def test_witness_csv_bytes_match_witness_rows(tmp_path, sieve_10k):
    out = tmp_path / "witnesses.csv"
    verify_lemoine_range(7, 2001, sieve=sieve_10k, witness_csv=str(out), chunk_size=100)
    rows = "".join(f"{w.n},{w.p},{w.q}\n" for w in (find_lemoine(n, sieve_10k) for n in range(7, 2002, 2)))
    assert out.read_bytes() == ("n,p,q\n" + rows).encode("ascii")


class Interrupted(Exception):
    pass


def _interrupted_scan(monkeypatch, chunks_done, **scan_args):
    """Run a scan that stops after its `chunks_done`-th checkpoint, as a killed scan would.

    The checkpoint is written after every chunk, wherever the chunk falls in
    its kernel call, so the scan stops between two chunks of a span too.
    """
    written = []
    write = conjectures._write_checkpoint

    def interrupting(*args):
        if len(written) < chunks_done:
            written.append(args[3])  # verified_up_to
            write(*args)
        if len(written) == chunks_done:
            raise Interrupted

    with monkeypatch.context() as patch:
        patch.setattr(conjectures, "_write_checkpoint", interrupting)
        with pytest.raises(Interrupted):
            verify_lemoine_range(**scan_args)
    return written


def _report_fields(report):
    data = report.to_json_dict()
    data.pop("elapsed_seconds")
    return data


def test_lemoine_outputs_are_pinned(tmp_path, sieve_1m):
    # One sha1 over the 2p+q scan's outputs: the report of [7, 10^6] with one
    # worker and with two, the report, final checkpoint and witness CSV of
    # [7, 999999], and the report of a thinned-table scan with
    # counterexamples. A change to the scan must leave all of them
    # byte-identical.
    digest = hashlib.sha1()

    def add(report):
        digest.update(json.dumps(_report_fields(report), sort_keys=True).encode("ascii"))

    for workers in (1, 2):
        add(verify_lemoine_range(7, 10**6, sieve=sieve_1m, workers=workers))
    cp, csv = tmp_path / "scan.json", tmp_path / "w.csv"
    add(verify_lemoine_range(7, 999999, sieve=sieve_1m, checkpoint=str(cp), witness_csv=str(csv)))
    digest.update(cp.read_bytes())
    digest.update(csv.read_bytes())
    sparse = verify_lemoine_range(7, 20001, sieve=_sparse_table())
    assert sparse.counterexamples
    add(sparse)
    assert digest.hexdigest() == "8c8d8c8f3fce70fa00de2e3a3857faf2bbb415ad"


@pytest.mark.parametrize("chunks_done", [0, 1, 5])
def test_resumed_witness_csv_is_complete(tmp_path, monkeypatch, sieve_10k, chunks_done):
    full_csv = tmp_path / "full.csv"
    full = verify_lemoine_range(7, 6001, sieve=sieve_10k, chunk_size=256, witness_csv=str(full_csv))

    cp, csv = tmp_path / "scan.json", tmp_path / "w.csv"
    args = dict(lo=7, hi=6001, sieve=sieve_10k, chunk_size=256, checkpoint=str(cp), witness_csv=str(csv))
    _interrupted_scan(monkeypatch, chunks_done, **args)
    if chunks_done:
        recorded = json.loads(cp.read_text())["witness_csv_bytes"]
        assert recorded == csv.stat().st_size
        with open(csv, "ab") as fh:  # a row written after the last checkpoint
            fh.write(b"9999,2,99")
    resumed = verify_lemoine_range(**args)
    assert csv.read_bytes() == full_csv.read_bytes()
    assert _report_fields(resumed) == _report_fields(full)

    # resuming the finished scan drops what was written after its last checkpoint
    with open(csv, "ab") as fh:
        fh.write(b"9999,2,99\n")
    verify_lemoine_range(**args)
    assert csv.read_bytes() == full_csv.read_bytes()


def test_witness_csv_to_a_million_matches_fstring_rows(tmp_path, monkeypatch):
    # The whole range's witnesses from one kernel call (the kernel itself is
    # checked against find_lemoine above), written out with f-strings.
    hi = 999_999
    sieve = sieve_primes(hi)
    witness_p, bad = conjectures._scan_chunk(range(7, hi + 1, 2), sieve, True)
    assert bad == [] and witness_p.min() > 0
    rows = "".join(f"{n},{p},{n - 2 * p}\n" for n, p in zip(range(7, hi + 1, 2), witness_p.tolist()))
    expected = ("n,p,q\n" + rows).encode("ascii")

    straight = tmp_path / "straight.csv"
    full = verify_lemoine_range(7, hi, sieve=sieve, witness_csv=str(straight))
    assert straight.read_bytes() == expected

    cp, csv = tmp_path / "scan.json", tmp_path / "w.csv"
    args = dict(lo=7, hi=hi, sieve=sieve, checkpoint=str(cp), witness_csv=str(csv))
    _interrupted_scan(monkeypatch, 3, **args)
    assert 0 < json.loads(cp.read_text())["witness_csv_bytes"] < len(expected)
    resumed = verify_lemoine_range(**args)
    assert csv.read_bytes() == expected
    assert _report_fields(resumed) == _report_fields(full)


def test_resumed_witness_csv_needs_its_recorded_length(tmp_path, monkeypatch, sieve_10k):
    cp, csv = tmp_path / "scan.json", tmp_path / "w.csv"
    args = dict(lo=7, hi=6001, sieve=sieve_10k, chunk_size=256, checkpoint=str(cp), witness_csv=str(csv))
    _interrupted_scan(monkeypatch, 2, **args)
    state = json.loads(cp.read_text())

    csv.write_bytes(csv.read_bytes()[:-1])
    with pytest.raises(CheckpointError, match="shorter"):
        verify_lemoine_range(**args)
    csv.unlink()
    with pytest.raises(CheckpointError, match="witness CSV"):
        verify_lemoine_range(**args)

    del state["witness_csv_bytes"]
    cp.write_text(json.dumps(state))
    with pytest.raises(CheckpointError, match="no witness CSV length"):
        verify_lemoine_range(**args)
    # a scan checkpointed without a witness CSV cannot complete one either
    state["witness_csv_bytes"] = None
    cp.write_text(json.dumps(state))
    with pytest.raises(CheckpointError, match="no witness CSV length"):
        verify_lemoine_range(**args)
    # without a witness CSV the checkpoint still resumes
    del args["witness_csv"]
    assert verify_lemoine_range(**args).verified_count == 2998


def test_resume_uses_the_callers_chunk_size(tmp_path, monkeypatch):
    cp = tmp_path / "scan.json"
    sieve = sieve_primes(20001)
    _interrupted_scan(monkeypatch, 1, lo=7, hi=20001, sieve=sieve, chunk_size=4096, checkpoint=str(cp))
    assert json.loads(cp.read_text())["chunk_size"] == 4096
    resumed = verify_lemoine_range(7, 20001, sieve=sieve, chunk_size=1024, checkpoint=str(cp))
    whole = verify_lemoine_range(7, 20001, sieve=sieve, chunk_size=1024)
    assert resumed.chunk_size == 1024
    assert _report_fields(resumed) == _report_fields(whole)


def test_range_rejects_empty_chunks(sieve_10k):
    with pytest.raises(ValueError, match="chunk_size"):
        verify_lemoine_range(7, 101, sieve=sieve_10k, chunk_size=0)


def _sparse_table():
    """The primes to 20001 thinned to 2 and every eighth odd prime."""
    flags = sieve_primes(20001).odd_flags().copy()
    kept = np.flatnonzero(flags)[7::8]
    flags[:] = False
    flags[kept] = True
    return PrimeSet(20001, flags)


@pytest.fixture(scope="module", params=["full", "sparse"])
def scan_table(request):
    """A table of primes to 20001 with the expected scan of [7, 20001].

    The sparse table keeps 2 and every eighth odd prime only, so about a
    quarter of the odd n, spread over the whole range, have no witness at
    all and the scan meets real counterexamples.
    """
    sieve = _sparse_table() if request.param == "sparse" else sieve_primes(20001)
    rows, bad = ["n,p,q\n"], []
    for n in range(7, 20002, 2):
        w = find_lemoine(n, sieve)
        if w is None:
            bad.append(n)
        else:
            rows.append(f"{n},{w.p},{w.q}\n")
    assert bool(bad) == (request.param == "sparse")
    return sieve, bad, "".join(rows).encode("ascii")


# Spans of at least 1001 n, which no chunk size above 1 below divides: chunk
# boundaries, and (sparse table) counterexamples on them, fall inside a
# span, and the pooled scans of [7, 20001] send several spans to the pool.
_UNEVEN_SPAN = 1001


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("chunk_size", [1, 2, 3, 97, 4096])
def test_scan_kernel_matches_find_lemoine(tmp_path, monkeypatch, scan_table, chunk_size, workers):
    # every odd n in [7, 20001]: the q >= 3 and 5p < 2n edges near n = 7,
    # every chunk and span boundary, and (sparse table) n with no witness
    monkeypatch.setattr(conjectures, "_SPAN", _UNEVEN_SPAN)
    sieve, bad, rows = scan_table
    csv = tmp_path / "w.csv"
    report = verify_lemoine_range(7, 20001, sieve=sieve, witness_csv=str(csv),
                                  chunk_size=chunk_size, workers=workers)
    assert report.counterexamples == tuple(bad)
    assert report.verified_count == 9998
    assert csv.read_bytes() == rows


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("chunk_size", [1, 2, 3, 97, 4096])
def test_counterexample_kernel_matches_find_lemoine(monkeypatch, scan_table, chunk_size, workers):
    # the same scans without a witness CSV, which run the kernel's no-witness mode
    monkeypatch.setattr(conjectures, "_SPAN", _UNEVEN_SPAN)
    sieve, bad, _ = scan_table
    report = verify_lemoine_range(7, 20001, sieve=sieve, chunk_size=chunk_size, workers=workers)
    assert report.counterexamples == tuple(bad)
    assert report.verified_count == 9998


@pytest.mark.parametrize("workers", [1, 2])
def test_resume_from_a_checkpoint_inside_a_span(tmp_path, monkeypatch, scan_table, workers):
    # spans of four 256-n chunks; the scan stops after its sixth checkpoint,
    # halfway through its second span, and resumes in spans from there
    monkeypatch.setattr(conjectures, "_SPAN", 1000)
    sieve, bad, rows = scan_table
    cp, csv = tmp_path / "scan.json", tmp_path / "w.csv"
    args = dict(lo=7, hi=20001, sieve=sieve, chunk_size=256, checkpoint=str(cp), witness_csv=str(csv))
    written = _interrupted_scan(monkeypatch, 6, **args)
    assert written[-1] == 7 + 2 * (6 * 256 - 1)
    assert json.loads(cp.read_text())["verified_up_to"] == written[-1]
    resumed = verify_lemoine_range(workers=workers, **args)
    assert resumed.counterexamples == tuple(bad)
    assert csv.read_bytes() == rows


def test_kernels_past_the_uint16_dense_phase(tmp_path):
    # With 2 and every 30th odd prime, some smallest witnesses p exceed
    # 0xFFFF (from n = 163839 on): both modes must find the same
    # counterexamples, and the CSV must hold those p in full.
    flags = sieve_primes(200001).odd_flags().copy()
    kept = np.flatnonzero(flags)[::30]
    flags[:] = False
    flags[kept] = True
    sieve = PrimeSet(200001, flags)
    found = [(n, find_lemoine(n, sieve)) for n in range(180001, 200002, 2)]
    bad = tuple(n for n, w in found if w is None)
    rows = "n,p,q\n" + "".join(f"{n},{w.p},{w.q}\n" for n, w in found if w is not None)
    assert bad and max(w.p for _, w in found if w is not None) > 0xFFFF
    for chunk_size in (97, 1 << 16):
        csv = tmp_path / "w.csv"
        assert verify_lemoine_range(180001, 200001, sieve=sieve, chunk_size=chunk_size).counterexamples == bad
        report = verify_lemoine_range(180001, 200001, sieve=sieve, chunk_size=chunk_size, witness_csv=str(csv))
        assert report.counterexamples == bad
        assert csv.read_text() == rows


@pytest.mark.parametrize("chunk_size", [1, 2, 3, 97, 4096])
def test_counterexample_kernel_matches_scan_chunk(scan_table, chunk_size):
    # the kernel's no-witness mode finds the counterexamples of its witness mode
    sieve = scan_table[0]
    for span in conjectures._chunks(range(7, 20002, 2), chunk_size):
        bad = conjectures._scan_chunk(span, sieve, True)[1]
        assert conjectures._scan_chunk(span, sieve, False) == (None, bad)


@pytest.mark.parametrize("chunk_size", [97, 4096])
def test_counterexample_kernel_sparse_phase(monkeypatch, chunk_size):
    # With 2 and every fourth odd prime, few enough n stay open after the
    # dense phase that the sparse phase runs, and some of those n are
    # counterexamples. (Against scan_table the dense phase clears every n or
    # runs out of primes.)
    flags = sieve_primes(20001).odd_flags().copy()
    kept = np.flatnonzero(flags)[::4]
    flags[:] = False
    flags[kept] = True
    sieve = PrimeSet(20001, flags)
    expected = [n for n in range(7, 20002, 2) if find_lemoine(n, sieve) is None]

    sparse_open = []
    sparse_phase = conjectures._sparse_phase

    def spy(open_idx, *args):
        sparse_open.append(open_idx.size)
        return sparse_phase(open_idx, *args)

    monkeypatch.setattr(conjectures, "_sparse_phase", spy)
    for witnesses in (False, True):
        sparse_open.clear()
        bad = []
        for span in conjectures._chunks(range(7, 20002, 2), chunk_size):
            bad += conjectures._scan_chunk(span, sieve, witnesses)[1]
        assert any(sparse_open) and bad
        assert bad == expected


@pytest.mark.parametrize("chunk_size", [97, 1 << 16])
def test_dense_phase_stops_at_the_255th_prime(tmp_path, monkeypatch, chunk_size):
    # With 2 and every 16th odd prime, more than 1/_SPARSE_BELOW of the n in
    # [195001, 200001] are still open after 255 dense primes, so in both
    # modes the sparse phase takes over at the 256th prime, where its table
    # of witnesses is full, and some of those n are counterexamples.
    flags = sieve_primes(200001).odd_flags().copy()
    kept = np.flatnonzero(flags)[::16]
    flags[:] = False
    flags[kept] = True
    sieve = PrimeSet(200001, flags)
    p256 = int(primes_in(2, 200001, sieve)[255])
    found = [(n, find_lemoine(n, sieve)) for n in range(195001, 200002, 2)]
    bad = tuple(n for n, w in found if w is None)
    rows = "n,p,q\n" + "".join(f"{n},{w.p},{w.q}\n" for n, w in found if w is not None)
    assert bad and max(w.p for _, w in found if w is not None) > p256

    starts = []
    sparse_phase = conjectures._sparse_phase

    def spy(open_idx, primes, *args):
        p = next(primes)
        starts.append((open_idx.size, p))
        return sparse_phase(open_idx, chain((p,), primes), *args)

    monkeypatch.setattr(conjectures, "_sparse_phase", spy)
    csv = tmp_path / "w.csv"
    assert verify_lemoine_range(195001, 200001, sieve=sieve, chunk_size=chunk_size).counterexamples == bad
    report = verify_lemoine_range(195001, 200001, sieve=sieve, chunk_size=chunk_size, witness_csv=str(csv))
    assert report.counterexamples == bad
    assert csv.read_text() == rows
    assert len(starts) == 2 and all(size > 0 and p == p256 for size, p in starts)


@pytest.mark.parametrize("chunk_size", [1, 2, 3, 64])
def test_scan_kernel_keeps_p_below_2q(tmp_path, monkeypatch, chunk_size):
    # with only 2, 3 and 7 in the table, 17 = 2*7 + 3 breaks p < 2q and
    # has no witness, one position before 7 becomes usable at n = 19;
    # one kernel call per chunk puts a call's window edge at each chunk start
    monkeypatch.setattr(conjectures, "_SPAN", 1)
    flags = np.zeros(21, dtype=bool)
    flags[[3 >> 1, 7 >> 1]] = True
    sieve = PrimeSet(41, flags)
    report = verify_lemoine_range(7, 41, sieve=sieve, chunk_size=chunk_size)
    expected = [n for n in range(7, 42, 2) if find_lemoine(n, sieve) is None]
    assert 17 in expected
    assert report.counterexamples == tuple(expected)


def _tagged_kernel(span, tag):
    # a result of no particular shape, which the driver must pass on as it is
    return {"tag": tag, "n": list(span)}


@pytest.mark.parametrize("workers", [1, 2, 16])
def test_driver_hands_consume_each_span_and_its_kernel_result(monkeypatch, workers):
    # 50 n in steps of 3, in spans of 7: seven full spans and one of a single
    # n; 16 workers on 16 CPUs get a pool of one per span
    monkeypatch.setattr(conjectures.os, "sched_getaffinity", lambda pid: set(range(16)))
    seen = []
    conjectures._run_spans(_tagged_kernel, range(10, 160, 3), 7, ("x",), workers,
                           lambda span, result: seen.append((span, result)))
    spans = [range(n, min(n + 21, 160), 3) for n in range(10, 160, 21)]
    assert seen == [(span, _tagged_kernel(span, "x")) for span in spans]
    assert [n for _, result in seen for n in result["n"]] == list(range(10, 160, 3))


class _CountingPool:
    """In-process stand-in for ProcessPoolExecutor that counts unread results.

    `opened` records the max_workers of each pool opened.
    """

    peak = 0
    opened: list = []

    def __init__(self, max_workers, initializer, initargs):
        _CountingPool.opened.append(max_workers)
        initializer(*initargs)
        self.unread = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        pool, fut = self, Future()
        fut.set_result(fn(*args))
        read = fut.result

        def result(timeout=None):
            pool.unread -= 1
            return read(timeout)

        fut.result = result
        self.unread += 1
        _CountingPool.peak = max(_CountingPool.peak, self.unread)
        return fut


@pytest.mark.parametrize("workers", [2, 3])
def test_pool_keeps_few_results_in_flight(monkeypatch, sieve_10k, workers):
    # both range scans run through the one span driver of conjectures, one
    # pool task per span: three 64-n chunks, or a 3 * 64-n partition block;
    # 8 CPUs leave the workers uncapped
    monkeypatch.setattr(conjectures, "ProcessPoolExecutor", _CountingPool)
    monkeypatch.setattr(conjectures.os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setattr(conjectures, "_SPAN", 3 * 64)
    monkeypatch.setattr(conjectures, "_SHARED", ())
    monkeypatch.setattr(partitions, "_PARTITION_BLOCK", 3 * 64)
    scans = [
        lambda **kw: verify_lemoine_range(7, 9999, sieve=sieve_10k, chunk_size=64, **kw),
        lambda **kw: verify_strong_range(50, 9999, max_terms=3, require_strong=True, **kw),
    ]
    for scan in scans:
        monkeypatch.setattr(_CountingPool, "peak", 0)
        pooled = scan(workers=workers)
        assert _CountingPool.peak == 2 * workers
        assert _report_fields(pooled) == _report_fields(scan())


def test_pool_has_at_most_one_worker_per_span(monkeypatch, sieve_10k):
    # spans of 3 * 64 n: 300 n make two spans and 100 n one, for both scans;
    # 8 workers on 8 CPUs are capped by the spans alone
    monkeypatch.setattr(conjectures, "ProcessPoolExecutor", _CountingPool)
    monkeypatch.setattr(conjectures.os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setattr(conjectures, "_SPAN", 3 * 64)
    monkeypatch.setattr(conjectures, "_SHARED", ())
    monkeypatch.setattr(partitions, "_PARTITION_BLOCK", 3 * 64)
    scans = [
        lambda count, **kw: verify_lemoine_range(7, 7 + 2 * (count - 1), sieve=sieve_10k, chunk_size=64, **kw),
        lambda count, **kw: verify_strong_range(50, 50 + count - 1, max_terms=3, require_strong=True, **kw),
    ]
    for scan in scans:
        for count, opened in ((300, [2]), (100, [])):
            monkeypatch.setattr(_CountingPool, "opened", [])
            pooled = scan(count, workers=8)
            assert _CountingPool.opened == opened
            assert _report_fields(pooled) == _report_fields(scan(count))


@pytest.mark.parametrize("cores, opened", [(2, [2]), (1, []), (None, [])])
def test_pool_has_at_most_one_worker_per_cpu(monkeypatch, cores, opened):
    # 64 workers over 4 spans of 13 n: the CPU count caps the pool, and one
    # CPU runs in this process. None stands for a platform without
    # sched_getaffinity whose os.cpu_count() cannot tell: it runs here too
    monkeypatch.setattr(conjectures, "ProcessPoolExecutor", _CountingPool)
    if cores is None:
        monkeypatch.delattr(conjectures.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(conjectures.os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(conjectures.os, "sched_getaffinity", lambda pid: set(range(cores)))
    monkeypatch.setattr(conjectures, "_SHARED", ())
    monkeypatch.setattr(_CountingPool, "opened", [])
    seen = []
    conjectures._run_spans(_tagged_kernel, range(10, 160, 3), 13, ("x",), 64,
                           lambda span, result: seen.append((span, result)))
    assert _CountingPool.opened == opened
    spans = [range(n, min(n + 39, 160), 3) for n in range(10, 160, 39)]
    assert seen == [(span, _tagged_kernel(span, "x")) for span in spans]


@pytest.mark.parametrize("affinity, cpu_count, opened", [({0}, 2, []), ({0, 1}, 1, [2])])
def test_pool_counts_the_cpus_this_process_may_use(monkeypatch, affinity, cpu_count, opened):
    # two spans and two workers: the affinity set, not the host's CPU count,
    # decides whether they get a pool
    monkeypatch.setattr(conjectures, "ProcessPoolExecutor", _CountingPool)
    monkeypatch.setattr(conjectures.os, "sched_getaffinity", lambda pid: affinity)
    monkeypatch.setattr(conjectures.os, "cpu_count", lambda: cpu_count)
    monkeypatch.setattr(conjectures, "_SHARED", ())
    monkeypatch.setattr(_CountingPool, "opened", [])
    seen = []
    conjectures._run_spans(_tagged_kernel, range(10, 49, 3), 7, ("x",), 2,
                           lambda span, result: seen.append(span))
    assert _CountingPool.opened == opened
    assert seen == [range(10, 31, 3), range(31, 49, 3)]


def test_goldbach_on_a_thinned_table_and_past_its_end():
    sieve = _sparse_table()
    kept = [k for k in range(2, 2000) if sieve.contains(k)]
    found = {n: find_goldbach(n, sieve) for n in range(4, 2000, 2)}
    for n, pair in found.items():
        assert pair == next(((p, n - p) for p in kept if p <= n - p and sieve.contains(n - p)), None)
    assert None in found.values()
    with pytest.raises(CoverageExceededError):
        find_goldbach(20002, sieve)
