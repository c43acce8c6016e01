import hashlib

import pytest

from primeladder import constructions
from primeladder.conjectures import WitnessNotFoundError, find_lemoine
from primeladder.constructions import (
    SMALL_LADDER_FIXTURES,
    ConstructionFailedError,
    UnsupportedOrderError,
    construct_ladder,
    lemma_ladder_2p,
    plan_theorem_swaps,
    theorem_ladder_2p_q,
)
from primeladder.ladder import Labeling, format_labeling_csv, verify_labeling
from primeladder.numtheory import is_prime, primes_in, sieve_primes

from paper_grids import cell_of, column_jstar, extended_rows, lemma_base_rows, neighbors, swapped

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


@pytest.mark.parametrize("p", [2, 3, 5, 11])
def test_golden_2p_arrays(p):
    lab = lemma_ladder_2p(p)
    assert lab.to_rows() == GOLDEN_2P[p]
    assert verify_labeling(lab) == []


def test_golden_21_array():
    lab = theorem_ladder_2p_q(5, 11)
    assert lab.to_rows() == GOLDEN_21
    assert verify_labeling(lab) == []


def test_lemma_final_column(sieve_10k):
    for p in [int(v) for v in primes_in(2, 300, sieve_10k)]:
        lab = lemma_ladder_2p(p)
        n = lab.n
        assert n == 2 * p
        assert {lab.label_at(1, n), lab.label_at(2, n)} == {1, 4 * p}
        assert verify_labeling(lab) == []


def test_lemma_p7_column_14():
    lab = lemma_ladder_2p(7)
    assert {lab.label_at(1, 14), lab.label_at(2, 14)} == {1, 28}


def _lemma_swapped_rows(p):
    """The base grid after the lemma's swaps, 1<->3p, 4<->2p and, for p = 2 mod 3, p<->3p."""
    rows = swapped(swapped(lemma_base_rows(p), 1, 3 * p), 4, 2 * p)
    return swapped(rows, p, 3 * p) if p % 3 == 2 else rows


def test_lemma_rejects_composite():
    with pytest.raises(ValueError):
        lemma_ladder_2p(9)
    # the closed form needs p >= 7, so 2, 3 and 5 have hand-built arrays
    for p in (2, 3, 5):
        assert verify_labeling(Labeling(_lemma_swapped_rows(p))) != [], p


def test_base_labeling_has_two_violations(sieve_10k):
    for p in [int(v) for v in primes_in(7, 200, sieve_10k)]:
        violations = verify_labeling(Labeling(lemma_base_rows(p)))
        assert [v.position_a[1] for v in violations] == [p, 2 * p]
        assert {violations[0].label_a, violations[0].label_b} == {p, 2 * p}
        assert {violations[1].label_a, violations[1].label_b} == {3 * p, 4 * p}
        assert lemma_ladder_2p(p).to_rows() == _lemma_swapped_rows(p), p


def test_repair_swaps_step_by_step():
    # apply the two unconditional swaps by hand and check the advertised
    # neighbor sets at the intermediate stage
    p = 7
    rows = swapped(swapped(lemma_base_rows(p), 1, 3 * p), 4, 2 * p)
    assert rows[0][13] == 28 and rows[1][13] == 1
    assert neighbors(rows, 3 * p) == {2, p + 1}
    assert neighbors(rows, 1) == {3 * p - 1, 4 * p}
    assert neighbors(rows, 4) == {p, 2 * p - 1, 2 * p + 1}
    assert neighbors(rows, 2 * p) == {3, 5, p + 4}
    # p = 1 (mod 3): the two swaps are the whole repair
    assert lemma_ladder_2p(p).to_rows() == rows


def test_neighbor_sets_after_repair():
    # p = 1 (mod 3): two swaps suffice
    rows = lemma_ladder_2p(7).to_rows()
    assert neighbors(rows, 1) == {20, 28}
    assert neighbors(rows, 4) == {7, 13, 15}
    # p = 2 (mod 3): the third swap moves p into the corner
    rows = lemma_ladder_2p(11).to_rows()
    assert neighbors(rows, 11) == {2, 12}
    assert neighbors(rows, 33) == {4, 10, 34}


def test_column_jstar_cases():
    # (p, q): k, the two multiples of q, j*, and column j* once repaired
    cases = {
        (5, 11): (1, (22, 33), 12, (8, 33)),
        (2, 3): (2, (9, 12), 5, (9, 14)),
        (7, 5): (5, (30, 35), 16, (30, 7)),
    }
    for (p, q), (k, labels, j_star, repaired) in cases.items():
        c = column_jstar(p, q)
        assert (c.k, c.labels, c.j_star) == (k, labels, j_star)
        lab = theorem_ladder_2p_q(p, q)
        assert (lab.label_at(1, j_star), lab.label_at(2, j_star)) == repaired


def test_column_jstar_matches_occupancy(sieve_10k):
    pairs = [(2, 3), (2, 5), (3, 5), (5, 11), (7, 5), (7, 7), (11, 7), (13, 17), (29, 31)]
    for p, q in pairs:
        col = column_jstar(p, q)
        s2 = extended_rows(p, q)
        assert (s2[0][col.j_star - 1], s2[1][col.j_star - 1]) == col.labels
        assert col.labels[0] == col.k * q + q
        assert col.labels[0] > 4 * p >= (col.labels[0] - q)


def test_extension_single_violation(sieve_10k):
    for p, q in [(2, 3), (2, 7), (3, 5), (5, 11), (7, 5), (7, 7), (13, 11), (31, 29)]:
        s2 = extended_rows(p, q)
        violations = verify_labeling(Labeling(s2))
        assert len(violations) == 1
        col = column_jstar(p, q)
        v = violations[0]
        assert v.position_a == (1, col.j_star)
        assert v.position_b == (2, col.j_star)
        assert {v.label_a, v.label_b} == set(col.labels)
        assert v.common_divisor % q == 0
        # the construction is this grid with the planned swap, nothing else
        assert theorem_ladder_2p_q(p, q).to_rows() == swapped(s2, *plan_theorem_swaps(p, q).swaps[0])


def test_special_case_2_3():
    s2 = extended_rows(2, 3)
    lab = theorem_ladder_2p_q(2, 3)
    assert verify_labeling(lab) == []
    # 12 and 14 exchange places relative to the unrepaired grid
    assert cell_of(lab.to_rows(), 12) == cell_of(s2, 14)
    assert cell_of(lab.to_rows(), 14) == cell_of(s2, 12)
    plan = plan_theorem_swaps(2, 3)
    assert plan.swaps == ((12, 14),)


def test_special_case_5_3():
    plan = plan_theorem_swaps(5, 3)
    assert plan.swaps == ((21, 23),)
    assert verify_labeling(theorem_ladder_2p_q(5, 3)) == []


def test_special_case_7_5():
    s2 = extended_rows(7, 5)
    assert neighbors(s2, 7) == {4, 6, 22}
    assert neighbors(s2, 35) == {30, 34, 36}
    plan = plan_theorem_swaps(7, 5)
    assert plan.swaps == ((35, 7),)
    lab = theorem_ladder_2p_q(7, 5)
    assert verify_labeling(lab) == []
    assert cell_of(lab.to_rows(), 7) == cell_of(s2, 35)


def test_designated_partner_for_large_p():
    # p >= 7 away from the special ranges swaps the power of two 2
    plan = plan_theorem_swaps(11, 7)
    assert plan.swaps == ((56, 2),)
    # q = p + 2 uses 8 instead
    plan = plan_theorem_swaps(11, 13)
    assert plan.swaps == ((52, 8),)


def test_case_q_equals_p_uses_smooth_label():
    plan = plan_theorem_swaps(7, 7)
    assert plan.swaps == ((42, 12),)
    assert verify_labeling(theorem_ladder_2p_q(7, 7)) == []


def test_special_case_3_3():
    # for p = q = 3 the case 2 partner 6 would still share a factor of 3
    # with the other conflicted-column entry 15, so (3, 3) has its own swap
    s2 = extended_rows(3, 3)
    assert column_jstar(3, 3).labels == (15, 18)
    assert verify_labeling(Labeling(swapped(s2, 18, 6))) != []
    plan = plan_theorem_swaps(3, 3)
    assert plan.swaps == ((18, 16),)
    lab = theorem_ladder_2p_q(3, 3)
    assert verify_labeling(lab) == []
    assert cell_of(lab.to_rows(), 16) == cell_of(s2, 18)


def _table_partner(p, q):
    """The designated partner of the rule table, written out independently."""
    if q > p or 3 * q < 2 * p:  # powers of two
        if p == 2:
            return 8
        if p == 3:
            return 8 if q == 5 else 4
        if p == 5:
            return 4 if q == 7 else 8
        return 8 if q == p + 2 else 2
    return 12 if (p, q) == (7, 7) else 6  # 2^a * 3^b


def test_rule_table_below_600():
    primes = [k for k in range(2, 600) if is_prime(k)]
    off_table = []
    for p in primes:
        for q in primes:
            if q == 2 or 2 * p + q > 600 or not p < 2 * q:
                continue
            plan = plan_theorem_swaps(p, q)
            assert len(plan.swaps) == 1, (p, q)
            lab = theorem_ladder_2p_q(p, q)
            assert lab.n == 2 * p + q
            assert verify_labeling(lab) == [], (p, q)
            even = next(v for v in column_jstar(p, q).labels if v % 2 == 0)
            if plan.swaps != ((even, _table_partner(p, q)),):
                off_table.append((p, q))
    assert off_table == [(2, 3), (3, 3), (5, 3), (7, 5)]


def test_plan_builds_no_grid(monkeypatch):
    def no_grid(*args):
        raise AssertionError("plan_theorem_swaps built a grid")

    for name in ("_extended_cells", "_lemma_cells", "_base_cells", "Labeling"):
        monkeypatch.setattr(constructions, name, no_grid)
    assert plan_theorem_swaps(5, 11).swaps == ((22, 8),)
    assert plan_theorem_swaps(3, 3).swaps == ((18, 16),)


def test_wrong_partner_raises(monkeypatch):
    # q itself as partner lands beside the odd multiple of q in column j*
    monkeypatch.setattr(constructions, "_designated_case1_partner", lambda p, q: q)
    with pytest.raises(ConstructionFailedError, match="p=11, q=13"):
        theorem_ladder_2p_q(11, 13)
    monkeypatch.setattr(constructions, "_designated_case2_partner", lambda p, q: q)
    with pytest.raises(ConstructionFailedError, match="p=13, q=11"):
        theorem_ladder_2p_q(13, 11)


def test_theorem_validation():
    with pytest.raises(ValueError):
        theorem_ladder_2p_q(7, 3)  # p >= 2q
    with pytest.raises(ValueError):
        theorem_ladder_2p_q(5, 2)  # q must be odd
    with pytest.raises(ValueError):
        theorem_ladder_2p_q(4, 5)  # p must be prime
    with pytest.raises(ValueError):
        theorem_ladder_2p_q(5, 9)  # q must be prime


def test_construct_small_orders():
    for n in (1, 2, 3, 5):
        lab = construct_ladder(n)
        assert lab.to_rows() == SMALL_LADDER_FIXTURES[n]
        assert verify_labeling(lab) == []


def test_construct_even_prime_half():
    assert construct_ladder(4) == lemma_ladder_2p(2)
    assert construct_ladder(6) == lemma_ladder_2p(3)
    assert construct_ladder(22) == lemma_ladder_2p(11)


@pytest.mark.parametrize("n", [22, 21, 101])
def test_constructed_labelings_are_immutable(n):
    lab = construct_ladder(n)
    with pytest.raises(ValueError):
        lab.cells[0, 0] = 99


def test_construct_odd_uses_smallest_p_witness(sieve_10k):
    w = find_lemoine(21, sieve_10k)
    assert (w.p, w.q) == (2, 17)
    assert construct_ladder(21) == theorem_ladder_2p_q(2, 17)
    assert construct_ladder(7) == theorem_ladder_2p_q(2, 3)


def test_construct_oracle_fallback():
    searched = {
        8: ((1, 4, 5, 6, 11, 10, 9, 16), (2, 3, 8, 7, 12, 13, 14, 15)),
        12: (
            (1, 4, 5, 6, 11, 12, 17, 24, 23, 16, 9, 20),
            (2, 3, 8, 7, 10, 13, 18, 19, 14, 15, 22, 21),
        ),
    }
    for n, rows in searched.items():
        lab = construct_ladder(n)
        assert lab.to_rows() == rows
        assert verify_labeling(lab) == []


def test_construct_unsupported_even():
    with pytest.raises(UnsupportedOrderError):
        construct_ladder(16)
    with pytest.raises(UnsupportedOrderError):
        construct_ladder(100)


def test_construct_validation():
    with pytest.raises(ValueError):
        construct_ladder(0)


def test_construct_reports_missing_witness(monkeypatch):
    import primeladder.constructions as cons

    monkeypatch.setattr(cons, "find_lemoine", lambda n, sieve: None)
    with pytest.raises(WitnessNotFoundError):
        construct_ladder(9)


def test_fixtures_are_prime_labelings():
    for n, rows in SMALL_LADDER_FIXTURES.items():
        assert verify_labeling(Labeling(rows)) == [], n


def test_each_construction_verified_exactly_once(monkeypatch):
    calls = []

    def counting_verify(labeling):
        calls.append(labeling.n)
        return verify_labeling(labeling)

    monkeypatch.setattr(constructions, "verify_labeling", counting_verify)
    for n in range(1, 400):
        if n > 14 and n % 2 == 0 and not is_prime(n // 2):
            continue
        calls.clear()
        construct_ladder(n)
        assert calls == [n], n
    for p, q in [(5, 11), (2, 3), (3, 3), (7, 5), (11, 13)]:
        calls.clear()
        theorem_ladder_2p_q(p, q)
        assert calls == [2 * p + q]


def test_construction_bytes_are_pinned():
    # One sha1 over the CSV of every small and odd order to 3001, every 2p
    # to 3000, and the planned swap of every pair with 2p + q <= 1200: a
    # refactor of the constructions must leave all of them byte-identical.
    sieve = sieve_primes(3001)
    digest = hashlib.sha1()
    orders = [1, 2, 3, 5, *range(7, 3002, 2), *(2 * int(p) for p in primes_in(2, 1500, sieve))]
    for n in orders:
        digest.update(format_labeling_csv(construct_ladder(n)).encode("ascii"))
    primes = [int(v) for v in primes_in(2, 1200, sieve)]
    for p in primes:
        for q in primes:
            if q != 2 and p < 2 * q and 2 * p + q <= 1200:
                digest.update(repr((p, q, plan_theorem_swaps(p, q).swaps)).encode("ascii"))
    assert digest.hexdigest() == "bff7ffbd84ad875b10451159e09f55342cb462d2"
