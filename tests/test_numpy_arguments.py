"""NumPy integer arguments are read as Python ints where they are checked.

So no NumPy scalar reaches a report, a checkpoint or a witness: JSON
rejects them, and a scan that wrote witness rows before its first
checkpoint failed would leave a CSV with nothing to resume it.
"""

import json

import numpy as np
import pytest

from primeladder import (
    LemoineWitness,
    Partition,
    brute_force_labeling,
    find_goldbach,
    find_lemoine,
    sieve_primes,
    sigma_tau,
    verify_lemoine_range,
    verify_strong_range,
)

SIEVE = sieve_primes(1000)


def test_a_scan_with_numpy_bounds_writes_its_checkpoint(tmp_path):
    outputs = {}
    for kind in (int, np.int64):
        cp, csv = tmp_path / f"{kind.__name__}.json", tmp_path / f"{kind.__name__}.csv"
        report = verify_lemoine_range(kind(7), kind(99), sieve=SIEVE, chunk_size=kind(8), workers=kind(1),
                                      checkpoint=str(cp), witness_csv=str(csv)).to_json_dict()
        report.pop("elapsed_seconds")
        assert not (tmp_path / f"{cp.name}.tmp").exists()
        outputs[kind] = json.dumps(report), json.loads(cp.read_bytes()), csv.read_bytes()
    assert outputs[np.int64][1]["lo"] == 7
    assert outputs[int] == outputs[np.int64]


@pytest.mark.parametrize("scan", [
    lambda kind: verify_lemoine_range(kind(7), kind(99), chunk_size=kind(10), workers=kind(1)),
    lambda kind: verify_strong_range(kind(50), kind(99), max_terms=kind(3), workers=kind(1)),
], ids=["lemoine", "strong"])
def test_reports_of_numpy_bounds_are_json(scan):
    texts = []
    for kind in (int, np.int64, np.int32):
        report = scan(kind).to_json_dict()
        report.pop("elapsed_seconds")
        texts.append(json.dumps(report))
    assert texts[0] == texts[1] == texts[2]


def test_witnesses_of_numpy_arguments_hold_python_ints():
    values = [
        *vars(find_lemoine(np.int64(9), SIEVE)).values(),
        *find_goldbach(np.int64(10), SIEVE),
        *vars(LemoineWitness(np.int64(9), np.int32(2), np.uint8(5))).values(),
        *vars(sigma_tau(Partition((3, 17, 67)), np.int64(3))).values(),
    ]
    assert values == [9, 2, 5, 3, 7, 9, 2, 5, 3, 23, 108]
    assert all(type(v) is int for v in values)


def test_the_oracle_takes_a_numpy_order():
    assert brute_force_labeling(np.int64(3)).labeling == brute_force_labeling(3).labeling
