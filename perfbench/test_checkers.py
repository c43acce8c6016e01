"""The benchmark's output checkers accept correct outputs and reject known-bad ones.

Run with `PYTHONPATH=src python -m pytest perfbench`.
"""

import numpy as np
import pytest

import checks
from checks import CheckError
from primeladder import (
    Labeling,
    construct_ladder,
    find_canonical,
    find_lemoine,
    format_labeling_csv,
    sieve_primes,
    verify_labeling,
    verify_lemoine_range,
)

FLAGS = checks.plain_sieve(30_000)


def test_plain_sieve_matches_trial_division():
    assert [k for k in range(200) if FLAGS[k]] == [k for k in range(200) if checks.trial_prime(k)]


def test_labeling_checks_accept_a_constructed_labeling():
    lab = construct_ladder(21)
    cells = checks.parse_csv_rows(format_labeling_csv(lab), 21)
    assert np.array_equal(cells, lab.cells)
    checks.check_prime_labeling(cells)


def test_labeling_check_rejects_two_swapped_neighbours():
    lab = construct_ladder(21)
    for j in range(lab.n - 1):
        bad = lab.cells.copy()
        bad[0, [j, j + 1]] = bad[0, [j + 1, j]]
        if verify_labeling(Labeling(bad)):
            break
    else:
        pytest.fail("no neighbour swap breaks the labeling")
    with pytest.raises(CheckError, match="not coprime"):
        checks.check_prime_labeling(bad)


@pytest.mark.parametrize("text", ["1,4\n2,3", "1,4\n2,3\n\n", "1,4\n2, 3\n", "1,4,5\n2,3\n"])
def test_csv_parse_rejects_malformed_files(text):
    with pytest.raises(CheckError):
        checks.parse_csv_rows(text, 2)


def _witness_rows(lo, hi):
    sieve = sieve_primes(hi)
    return np.array([(n, w.p, w.q) for n in range(lo, hi + 1, 2) for w in [find_lemoine(n, sieve)]])


def test_witness_checks_accept_minimal_witnesses():
    rows = _witness_rows(7, 5001)
    checks.check_witness_rows(rows, 7, FLAGS)
    for n, p, q in rows[:50]:
        checks.check_lemoine_witness(int(n), int(p), int(q))


def test_witness_checks_reject_a_non_minimal_p():
    rows = _witness_rows(7, 5001)
    for i, (n, p, _) in enumerate(rows):
        later = [r for r in range(p + 1, n // 2) if checks._decomposes(n, r, checks.trial_prime)]
        if later:
            break
    rows[i, 1:] = (later[0], n - 2 * later[0])
    with pytest.raises(CheckError, match="not minimal"):
        checks.check_witness_rows(rows, 7, FLAGS)
    with pytest.raises(CheckError, match="not minimal"):
        checks.check_lemoine_witness(int(n), later[0], int(n - 2 * later[0]))


def test_witness_file_check_rejects_a_missing_row(tmp_path):
    path = tmp_path / "w.csv"
    verify_lemoine_range(7, 3001, witness_csv=str(path))
    for rows in checks.iter_witness_blocks(str(path)):
        checks.check_witness_rows(rows, 7, FLAGS)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:10] + lines[11:]))
    with pytest.raises(CheckError, match="holds n="):
        for rows in checks.iter_witness_blocks(str(path)):
            checks.check_witness_rows(rows, 7, FLAGS)


def test_partition_check_rejects_3_11_73():
    checks.check_strong_partition(87, (3, 17, 67), FLAGS)
    assert checks.sigma_tau_pairs((3, 11, 73)) == [(17, 102)]
    with pytest.raises(CheckError, match="sigma=17 and tau=102"):
        checks.check_strong_partition(87, (3, 11, 73), FLAGS)


def test_brute_force_partition_agrees_with_the_search_order():
    sieve = sieve_primes(1000)
    for n in range(50, 1000):
        found = find_canonical(n, 4, require_strong=True, sieve=sieve)
        assert checks.first_strong_partition(n, 4, FLAGS) == (found.parts if found else None)


def test_two_worker_scan_reports_like_one_worker():
    one = verify_lemoine_range(7, 20001, workers=1, chunk_size=512).to_json_dict()
    two = verify_lemoine_range(7, 20001, workers=2, chunk_size=512).to_json_dict()
    one.pop("elapsed_seconds")
    two.pop("elapsed_seconds")
    assert one == two
