"""Acceptance suite: one test per release criterion, with stated budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion including its measured runtime.
"""

import json
import random
import time
from contextlib import contextmanager
from math import gcd

import pytest

from primeladder.cli import main
from primeladder.conjectures import find_lemoine, verify_lemoine_range
from primeladder.constructions import (
    SMALL_LADDER_FIXTURES,
    construct_ladder,
    lemma_ladder_2p,
    plan_theorem_swaps,
    theorem_ladder_2p_q,
)
from primeladder.ladder import Labeling, verify_labeling
from primeladder.numtheory import is_prime, primes_in, sieve_primes
from primeladder.oracle import FOUND, brute_force_labeling
from primeladder.partitions import Partition, is_strong, sigma_tau, verify_strong_range

from paper_grids import cell_of, column_jstar, extended_rows, lemma_base_rows, swapped

GOLDEN_2P = {
    2: ((5, 4, 3, 8), (6, 7, 2, 1)),
    3: ((7, 2, 3, 10, 11, 12), (6, 5, 4, 9, 8, 1)),
    5: (
        (15, 2, 3, 4, 17, 14, 5, 18, 19, 20),
        (16, 7, 8, 9, 10, 11, 12, 13, 6, 1),
    ),
    11: (
        (11, 2, 3, 22, 5, 6, 7, 8, 9, 10, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44),
        (12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 4, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 1),
    ),
}
GOLDEN_21 = (
    (15, 2, 3, 4, 17, 14, 5, 18, 19, 20, 21, 8, 23, 24, 25, 26, 27, 28, 29, 30, 31),
    (16, 7, 22, 9, 10, 11, 12, 13, 6, 1, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42),
)


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s"
    )
    print(f"criterion {number}: PASS - {description} ({elapsed:.2f}s)")


def test_criterion_1_golden_arrays():
    with criterion(1, "golden arrays reproduced cell-for-cell", 1.0):
        for p, rows in GOLDEN_2P.items():
            assert lemma_ladder_2p(p).to_rows() == rows, f"p={p}"
        assert theorem_ladder_2p_q(5, 11).to_rows() == GOLDEN_21


def test_criterion_2_construction_totality():
    with criterion(2, "verified constructions for odd n in [7,5001] and n=2p, p<=5000", 30.0):
        sieve = sieve_primes(5001)
        for n in range(7, 5002, 2):
            witness = find_lemoine(n, sieve)
            assert witness is not None, n
            plan = plan_theorem_swaps(witness.p, witness.q)
            assert len(plan.swaps) == 1, (n, witness)
            lab = theorem_ladder_2p_q(witness.p, witness.q)
            assert lab.n == n
            assert verify_labeling(lab) == [], n
        for p in [int(v) for v in primes_in(2, 5000, sieve)]:
            lab = lemma_ladder_2p(p)
            assert verify_labeling(lab) == [], p
            assert {lab.label_at(1, 2 * p), lab.label_at(2, 2 * p)} == {1, 4 * p}
        # the dispatcher wires the same paths together
        for n in (7, 21, 22, 101, 4999):
            assert verify_labeling(construct_ladder(n)) == []


def test_criterion_3_lemoine_desk_scale(sieve_1m, capsys):
    with criterion(3, "zero counterexamples for odd n up to 9,999,999", 660.0):
        t0 = time.monotonic()
        report = verify_lemoine_range(7, 10**6, workers=1, sieve=sieve_1m)
        single_elapsed = time.monotonic() - t0
        assert report.counterexamples == ()
        assert report.verified_count == 499997
        assert single_elapsed < 60.0, f"single-worker scan took {single_elapsed:.1f}s"

        rc = main(["lemoine", "--min", "7", "--max", "9999999", "--jobs", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        assert doc["counterexamples"] == []
        assert doc["verified_count"] == 4999997


def _first_strong_three_terms(n, sieve):
    """The least (p1, p2, p3) in lexicographic order that is a strong canonical partition of n."""
    # p2 >= 2*p1 + 3 and p3 >= 2*(p1 + p2) + 3, so 9*p1 + 12 <= n and 3*(p1 + p2) + 3 <= n
    for p1 in range(3, (n - 12) // 9 + 1, 2):
        for p2 in range(2 * p1 + 3, (n - 3) // 3 - p1 + 1, 2):
            p3 = n - p1 - p2
            if (sieve.contains(p1) and sieve.contains(p2) and sieve.contains(p3)
                    and gcd(2 * p1 + p2, 2 * (p1 + p2) + p3 + 1) == 1):
                return p1, p2, p3
    return None


def test_criterion_4_partition_claims():
    with criterion(4, "canonical and strong-canonical partitions up to 10^5", 300.0):
        sieve = sieve_primes(100_000)
        at_most_three = verify_strong_range(
            50, 100_000, max_terms=3, parity="all", require_strong=False
        )
        assert at_most_three.counterexamples == ()
        assert at_most_three.verified_count == 99_951
        # strong 3-term partitions of every odd n: the scan's at-most-3 search
        # finds them for the composite n, whose partitions cannot have 1 term,
        # and closes a prime n with its 1-term partition, so those are searched here
        strong = verify_strong_range(
            51, 99_999, max_terms=3, parity="odd", require_strong=True
        )
        assert strong.counterexamples == ()
        assert strong.verified_count == 49_975
        for n in primes_in(51, 99_999, sieve).tolist():
            parts = _first_strong_three_terms(n, sieve)
            assert parts is not None and is_strong(Partition(parts)), n


def test_criterion_5_counterexample_regression():
    with criterion(5, "sigma/tau distinguish the failing and repaired partitions", 1.0):
        weak = Partition((3, 11, 73))
        pair = sigma_tau(weak, 3)
        assert (pair.sigma, pair.tau) == (17, 102)
        assert pair.tau % pair.sigma == 0
        assert not is_strong(weak)
        repaired = Partition((3, 17, 67))
        pair = sigma_tau(repaired, 3)
        assert (pair.sigma, pair.tau) == (23, 108)
        assert gcd(pair.sigma, pair.tau) == 1
        assert is_strong(repaired)


def test_criterion_6_pre_repair_violation_structure():
    with criterion(6, "pre-repair grids violate exactly where predicted", 60.0):
        rng = random.Random(20250810)
        primes = [k for k in range(2, 2001) if is_prime(k)]
        pairs = [
            (p, q)
            for p in primes
            for q in primes
            if q != 2 and 2 * p + q <= 2000 and p < 2 * q
        ]
        for p, q in rng.sample(pairs, 50):
            violations = verify_labeling(Labeling(extended_rows(p, q)))
            col = column_jstar(p, q)
            assert len(violations) == 1, (p, q)
            v = violations[0]
            assert v.position_a == (1, col.j_star) and v.position_b == (2, col.j_star)
            assert {v.label_a, v.label_b} == set(col.labels)
        for p in rng.sample([k for k in primes if k >= 7], 50):
            violations = verify_labeling(Labeling(lemma_base_rows(p)))
            assert [v.position_a[1] for v in violations] == [p, 2 * p], p


def test_criterion_7_oracle_cross_validation(sieve_10k):
    with criterion(7, "backtracking search validates the small orders", 60.0):
        # the fixtures are the search's first labelings, 8, 12 and 16 included
        for n in (*range(1, 11), 12, 16):
            result = brute_force_labeling(n)
            assert result.status == FOUND, n
            assert verify_labeling(result.labeling) == [], n
            if n in SMALL_LADDER_FIXTURES:
                assert result.labeling.to_rows() == SMALL_LADDER_FIXTURES[n], n
        for n in (7, 9):
            searched = brute_force_labeling(n).labeling
            witness = find_lemoine(n, sieve_10k)
            constructed = theorem_ladder_2p_q(witness.p, witness.q)
            assert verify_labeling(searched) == []
            assert verify_labeling(constructed) == []


def test_criterion_8_mutation_and_round_trip(tmp_path, capsys):
    with criterion(8, "mutations detected; construct->CSV->verify round-trips", 240.0):
        rng = random.Random(87)
        for _ in range(100):
            n = rng.randrange(2, 501)
            lab = construct_ladder(n)
            rows = lab.to_rows()
            evens = [v for row in rows for v in row if v % 2 == 0]
            y = rng.choice(evens)
            ry, cy = cell_of(rows, y)
            neighbors = [
                (r, c)
                for r, c in ((ry, cy - 1), (ry, cy + 1), (3 - ry, cy))
                if 1 <= c <= lab.n
            ]
            rx, cx = rng.choice(neighbors)
            x = lab.label_at(rx, cx)
            b = rng.choice([v for v in evens if v != y])
            mutated = Labeling(swapped(rows, x, b))
            violations = verify_labeling(mutated)
            assert violations, (n, x, b)
            assert any(
                {v.position_a, v.position_b} == {(rx, cx), (ry, cy)}
                for v in violations
            ), (n, x, b)

        f = str(tmp_path / "lab.csv")
        for n in range(1, 10_001):
            rc = main(["construct", "--n", str(n), "--format", "csv"])
            out = capsys.readouterr().out
            assert rc == 0, n
            with open(f, "w") as fh:
                fh.write(out)
            rc = main(["verify", f])
            capsys.readouterr()
            assert rc == 0, n
