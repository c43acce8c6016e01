"""Closed-form prime labelings of ladders.

Two constructive families plus a dispatcher:

* ``lemma_ladder_2p``: a prime labeling of the 2p-column ladder, for any
  prime p, that always ends with 1 and 4p in the final column.
* ``theorem_ladder_2p_q``: a prime labeling of the (2p+q)-column ladder for
  primes p and odd q with p < 2q, built by extending the 2p labeling with
  consecutive labels and repairing the single bad column by a swap.
* ``construct_ladder``: picks a construction for an arbitrary order n.

Every constructor verifies its output in full exactly once before returning
it: the repair case analysis is intricate enough that a transcription slip
must fail loudly, not leak a non-prime labeling. Swaps are applied to one
mutable cell array; the pre-repair grids and the 2p part of a 2p+q grid are
not verified on their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .conjectures import WitnessNotFoundError, find_lemoine
from .ladder import Labeling, neighbor_labels, swap_labels, verify_labeling
from .numtheory import PrimeSet, is_prime, sieve_primes
from .oracle import FOUND, SearchConfig, brute_force_labeling

__all__ = [
    "ConstructionFailedError",
    "UnsupportedOrderError",
    "SwapPlan",
    "ColumnJStar",
    "SMALL_LADDER_FIXTURES",
    "DEFAULT_ORACLE_LIMIT",
    "lemma_base_labeling",
    "lemma_ladder_2p",
    "extended_labeling",
    "column_jstar",
    "plan_theorem_swaps",
    "theorem_ladder_2p_q",
    "construct_ladder",
]


class ConstructionFailedError(RuntimeError):
    """A constructor produced or would produce a non-prime labeling.

    Must never occur for valid inputs; treated as a defect when it does.
    """


class UnsupportedOrderError(ValueError):
    """No construction covers this ladder order."""


@dataclass(frozen=True)
class SwapPlan:
    """The label swaps that turn a pre-repair labeling into a prime one.

    rule_tag names the case of the repair analysis that produced the plan;
    repaired_by_search is True only when the case analysis failed and an
    exhaustive swap search had to step in.
    """

    swaps: tuple[tuple[int, int], ...]
    rule_tag: str
    repaired_by_search: bool = False


@dataclass(frozen=True)
class ColumnJStar:
    """The unique column of the extended labeling whose two labels share q.

    With k = floor(4p/q), the labels are (k+1)q and (k+2)q: the two smallest
    multiples of q above 4p. They sit in absolute column (k+1)q - 2p, top and
    bottom respectively.
    """

    j_star: int
    labels: tuple[int, int]
    k: int


# Small-order labelings produced once by the backtracking oracle
# (column-major fill, ascending candidates) and frozen here.
SMALL_LADDER_FIXTURES: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {
    1: ((1,), (2,)),
    2: ((1, 4), (2, 3)),
    3: ((1, 2, 3), (6, 5, 4)),
    4: ((1, 4, 5, 6), (2, 3, 8, 7)),
    5: ((1, 4, 9, 8, 5), (2, 3, 10, 7, 6)),
    6: ((1, 4, 9, 10, 11, 12), (2, 3, 8, 7, 6, 5)),
}

DEFAULT_ORACLE_LIMIT = 14

# Hand-built labelings for the 2p family at p in {2, 3, 5}; the closed form
# below needs p >= 7.
_BASE_2P: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {
    2: ((5, 4, 3, 8), (6, 7, 2, 1)),
    3: ((7, 2, 3, 10, 11, 12), (6, 5, 4, 9, 8, 1)),
    5: ((15, 2, 3, 4, 17, 14, 5, 18, 19, 20), (16, 7, 8, 9, 10, 11, 12, 13, 6, 1)),
}


def _swap_in_place(cells: np.ndarray, swaps) -> np.ndarray:
    """Exchange the positions of each pair of labels in turn; returns `cells`.

    `cells` is a contiguous grid holding exactly 1..2n, so an inverse
    permutation finds every label's cell by indexing.
    """
    flat = cells.reshape(-1)
    where = np.empty(flat.size + 1, dtype=np.int64)
    where[flat] = np.arange(flat.size)
    for a, b in swaps:
        ia, ib = where[a], where[b]
        flat[ia], flat[ib] = b, a
        where[a], where[b] = ib, ia
    return cells


def _swapped(labeling: Labeling, swaps) -> Labeling:
    return Labeling(_swap_in_place(labeling.cells.copy(), swaps))


def _ensure_prime(labeling: Labeling, context: str) -> Labeling:
    violations = verify_labeling(labeling)
    if violations:
        raise ConstructionFailedError(
            f"{context}: produced a non-prime labeling; first violation: {violations[0]}"
        )
    return labeling


def lemma_base_labeling(p: int) -> Labeling:
    """Pre-repair labeling of the 2x2p grid, for p >= 7.

    Row 1 holds 1..p then 3p+1..4p; row 2 holds p+1..3p. Exactly two adjacent
    pairs share a factor: column p holds {p, 2p} and column 2p holds {3p, 4p}.
    """
    if not is_prime(p) or p < 7:
        raise ValueError(f"base labeling needs a prime p >= 7, got {p}")
    return Labeling(_base_cells(p))


def _base_cells(p: int) -> np.ndarray:
    top = np.concatenate([np.arange(1, p + 1), np.arange(3 * p + 1, 4 * p + 1)])
    bottom = np.arange(p + 1, 3 * p + 1)
    return np.stack([top, bottom])


def _lemma_cells(p: int) -> np.ndarray:
    """The 2p labeling's cells, for a prime p, not yet verified."""
    if p in _BASE_2P:
        return np.array(_BASE_2P[p], dtype=np.int64)
    swaps = [(1, 3 * p), (4, 2 * p)]
    if p % 3 == 2:
        swaps.append((p, 3 * p))
    return _swap_in_place(_base_cells(p), swaps)


def lemma_ladder_2p(p: int) -> Labeling:
    """Prime labeling of the 2p-column ladder with {1, 4p} in the final column.

    For p >= 7, repair the base labeling by switching 1 with 3p and 4 with
    2p; when p = 2 (mod 3) the labels 3p and p+1 would still share a factor
    of 3, so additionally switch p with 3p.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return _ensure_prime(Labeling(_lemma_cells(p)), f"2p construction, p={p}")


def _validate_theorem_args(p: int, q: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if q == 2 or not is_prime(q):
        raise ValueError(f"q must be an odd prime, got {q}")
    if not p < 2 * q:
        raise ValueError(f"construction requires p < 2q, got p={p}, q={q}")


def extended_labeling(p: int, q: int) -> Labeling:
    """The 2p-column labeling extended by q columns of consecutive labels.

    Columns 2p+1..2p+q hold 4p+1..4p+q on top and 4p+q+1..4p+2q on the
    bottom. The only adjacent pair sharing a factor is the vertical pair in
    column j*, where both labels are multiples of q.
    """
    _validate_theorem_args(p, q)
    return Labeling(_extended_cells(p, q))


def _extended_cells(p: int, q: int) -> np.ndarray:
    tail = np.arange(4 * p + 1, 4 * p + 2 * q + 1).reshape(2, q)
    return np.concatenate([_lemma_cells(p), tail], axis=1)


def column_jstar(p: int, q: int) -> ColumnJStar:
    """Locate the conflicted column of the extended labeling."""
    _validate_theorem_args(p, q)
    k = (4 * p) // q
    return ColumnJStar(
        j_star=(k + 1) * q - 2 * p,
        labels=((k + 1) * q, (k + 2) * q),
        k=k,
    )


def _no_neighbor_multiple_of(labeling: Labeling, label: int, q: int) -> bool:
    return all(v % q != 0 for v in neighbor_labels(labeling, label))


def _powers_of_two(limit: int) -> list[int]:
    out = []
    v = 2
    while v <= limit:
        out.append(v)
        v *= 2
    return out


def _smooth_2a3b(limit: int) -> list[int]:
    """Labels of the form 2^a * 3^b with a, b >= 1, ascending."""
    out = []
    a = 2
    while a * 3 <= limit:
        b = a * 3
        while b <= limit:
            out.append(b)
            b *= 3
        a *= 2
    return sorted(out)


def _designated_case1_partner(p: int, q: int) -> int | None:
    """The power of two the repair analysis singles out for this (p, q)."""
    if p == 2:
        return 8 if q != 3 else None  # q = 3 has its own special swap
    if p == 3:
        return 8 if q == 5 else 4
    if p == 5:
        if q == 3:
            return None  # special swap
        return 4 if q == 7 else 8
    return 8 if q == p + 2 else 2


def _designated_case2_partner(p: int, q: int) -> int | None:
    """The 2^a*3^b label the repair analysis singles out for this (p, q)."""
    if p == 3 or p == 5:
        return 6
    if p == 7:
        return 12 if q == 7 else None  # q = 5 has its own special swap
    return 6


_SPECIAL_SWAPS: dict[tuple[int, int], tuple[tuple[int, int], str]] = {
    (2, 3): ((12, 14), "case p=2, q=3: swap 12 and 14"),
    (5, 3): ((21, 23), "case p=5, q=3: swap 7q with 23"),
    (7, 5): ((35, 7), "case p=7, q=5: swap 7q with p"),
}


def _swaps_give_prime(s2: Labeling, swaps: list[tuple[int, int]]) -> bool:
    return not verify_labeling(_swapped(s2, swaps))


def _case_tree_candidates(p, q, s2, col):
    """Yield (swaps, rule_tag) in the order the repair analysis proposes them.

    The designated candidate for the exact (p, q) range comes first; the
    remaining same-shape candidates follow in ascending order as a safety
    net. Every candidate is validated by the caller before being adopted.
    """
    n2 = 2 * s2.n
    even_mult = col.labels[0] if col.labels[0] % 2 == 0 else col.labels[1]

    if (p, q) in _SPECIAL_SWAPS:
        swap, tag = _SPECIAL_SWAPS[(p, q)]
        yield [swap], tag

    case1 = q > p or (2 * q > p and 3 * q < 2 * p)
    if case1:
        partners = [w for w in _powers_of_two(n2) if w not in col.labels]
        designated = _designated_case1_partner(p, q)
        tag = f"case p<q or p/2<q<2p/3: swap {even_mult} with a power of two"
    else:
        # 2p/3 < q <= p; q = p is the boundary the analysis keeps here.
        partners = [w for w in _smooth_2a3b(n2) if w not in col.labels]
        designated = _designated_case2_partner(p, q)
        tag = f"case 2p/3<q<=p: swap {even_mult} with a 2^a*3^b label"
    if designated in partners:
        partners.remove(designated)
        partners.insert(0, designated)
    for w in partners:
        if _no_neighbor_multiple_of(s2, w, q):
            yield [(even_mult, w)], tag


def _local_swap_ok(s2: Labeling, a: int, b: int) -> bool:
    """Cheap pre-filter: would swapping a and b keep their own edges coprime?"""

    def swapped(v: int) -> int:
        if v == a:
            return b
        if v == b:
            return a
        return v

    for lab, other in ((a, b), (b, a)):
        for nb in neighbor_labels(s2, lab):
            if gcd(other, swapped(nb)) != 1:
                return False
    return True


def _repair_search(s2: Labeling, col: ColumnJStar) -> SwapPlan | None:
    """Exhaustive swap repair over the conflicted column.

    Single swaps of either column entry against every other label, then
    pairs of swaps. Candidates pass a local coprimality filter before the
    full verification.
    """
    n2 = 2 * s2.n
    entries = sorted(col.labels, key=lambda v: v % 2)  # even entry first
    for e in entries:
        for w in range(1, n2 + 1):
            if w == e or w in col.labels:
                continue
            if not _local_swap_ok(s2, e, w):
                continue
            if _swaps_give_prime(s2, [(e, w)]):
                return SwapPlan(((e, w),), "repair search: single swap", True)
    for e in entries:
        for w in range(1, n2 + 1):
            if w == e or w in col.labels:
                continue
            if not _local_swap_ok(s2, e, w):
                continue
            after = swap_labels(s2, e, w)
            remaining = verify_labeling(after)
            bad_labels = sorted(
                {v.label_a for v in remaining} | {v.label_b for v in remaining}
            )
            for e2 in bad_labels:
                for w2 in range(1, n2 + 1):
                    if w2 in (e, w, e2):
                        continue
                    if not _local_swap_ok(after, e2, w2):
                        continue
                    if _swaps_give_prime(after, [(e2, w2)]):
                        return SwapPlan(
                            ((e, w), (e2, w2)), "repair search: double swap", True
                        )
    return None


def plan_theorem_swaps(p: int, q: int, extended: Labeling | None = None) -> SwapPlan:
    """Choose the swap(s) that make the extended labeling prime.

    Follows the range case analysis with its special cases; any candidate is
    adopted only after full verification of the swapped labeling. If no
    analysed candidate validates, an exhaustive repair search over the
    conflicted column is used and the plan is flagged repaired_by_search.

    `extended`, when given, must be extended_labeling(p, q); it only saves
    rebuilding the grid.
    """
    _validate_theorem_args(p, q)
    s2 = extended if extended is not None else extended_labeling(p, q)
    return _plan_and_repair(p, q, s2)[0]


def _plan_and_repair(p: int, q: int, s2: Labeling) -> tuple[SwapPlan, Labeling]:
    """The plan for s2 = extended_labeling(p, q) and the prime labeling it gives.

    The labeling returned is the one the adopted candidate was verified on,
    so it needs no further check.
    """
    col = column_jstar(p, q)
    for swaps, tag in _case_tree_candidates(p, q, s2, col):
        lab = _swapped(s2, swaps)
        if not verify_labeling(lab):
            return SwapPlan(tuple(swaps), tag, False), lab
    plan = _repair_search(s2, col)
    if plan is None:
        raise ConstructionFailedError(
            f"no repair swap found for p={p}, q={q} (order {2 * p + q})"
        )
    # _repair_search adopts a plan only once its labeling verified as prime.
    return plan, _swapped(s2, plan.swaps)


def theorem_ladder_2p_q(p: int, q: int, plan: SwapPlan | None = None) -> Labeling:
    """Prime labeling of the (2p+q)-column ladder, p prime, q odd prime, p < 2q."""
    _validate_theorem_args(p, q)
    cells = _extended_cells(p, q)
    if plan is None:
        return _plan_and_repair(p, q, Labeling(cells))[1]
    return _ensure_prime(
        Labeling(_swap_in_place(cells, plan.swaps)),
        f"2p+q construction, p={p}, q={q}",
    )


def construct_ladder(
    n: int,
    sieve: PrimeSet | None = None,
    oracle_limit: int = DEFAULT_ORACLE_LIMIT,
) -> Labeling:
    """A verified prime labeling of the n-column ladder, for any supported n.

    Dispatch: stored fixtures for n in {1, 2, 3, 5}; the 2p construction for
    even n with n/2 prime; a smallest-p witness n = 2p + q feeding the 2p+q
    construction for odd n >= 7; backtracking search for the remaining even
    orders up to oracle_limit. Other even orders raise UnsupportedOrderError.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n in (1, 2, 3, 5):
        return _ensure_prime(Labeling(SMALL_LADDER_FIXTURES[n]), f"fixture n={n}")
    if n % 2 == 0 and is_prime(n // 2):
        return lemma_ladder_2p(n // 2)
    if n % 2 == 1:
        if sieve is None or sieve.limit < n:
            sieve = sieve_primes(n)
        witness = find_lemoine(n, sieve)
        if witness is None:
            raise WitnessNotFoundError(
                f"no decomposition n = 2p + q with p < 2q exists for n={n}: "
                "this refutes the conjecture the construction relies on"
            )
        return theorem_ladder_2p_q(witness.p, witness.q)
    if n <= oracle_limit:
        result = brute_force_labeling(SearchConfig(n=n), sieve)
        if result.status == FOUND:
            return _ensure_prime(result.labeling, f"backtracking search, n={n}")
        raise ConstructionFailedError(
            f"backtracking search reported {result.status} for n={n}"
        )
    raise UnsupportedOrderError(
        f"even n={n} with composite n/2 is beyond the search limit {oracle_limit}"
    )
