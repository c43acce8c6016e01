"""Closed-form prime labelings of ladders.

Two constructive families plus a dispatcher:

* ``lemma_ladder_2p``: a prime labeling of the 2p-column ladder, for any
  prime p, that always ends with 1 and 4p in the final column.
* ``theorem_ladder_2p_q``: a prime labeling of the (2p+q)-column ladder for
  primes p and odd q with p < 2q, built by extending the 2p labeling with
  consecutive labels and repairing the single bad column j* by one swap.
* ``construct_ladder``: picks a construction for an arbitrary order n.

Both repairs are closed-form rules: the 2p lemma swaps 1<->3p and 4<->2p
(and p<->3p when p = 2 mod 3), and the 2p+q theorem takes its one swap from
the rule table in ``plan_theorem_swaps``, which is a function of (p, q)
alone. Nothing searches for a repair.

Every constructor verifies its output in full exactly once before returning
it: the repair case analysis is intricate enough that a transcription slip
must fail loudly, not leak a non-prime labeling. Swaps are applied to one
mutable cell array; the pre-repair grids and the 2p part of a 2p+q grid are
not verified on their own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conjectures import WitnessNotFoundError, find_lemoine
from .ladder import Labeling, verify_labeling
from .numtheory import is_prime, sieve_primes
from .oracle import FOUND, brute_force_labeling

__all__ = [
    "ConstructionFailedError",
    "UnsupportedOrderError",
    "SwapPlan",
    "SMALL_LADDER_FIXTURES",
    "lemma_ladder_2p",
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
    """The label swap that turns an extended labeling into a prime one.

    swaps holds exactly one (a, b) pair: the labels a and b trade cells.
    rule_tag names the entry of the rule table in plan_theorem_swaps that
    gave it: one of the four special pairs, or the case 1 or case 2 range.
    """

    swaps: tuple[tuple[int, int], ...]
    rule_tag: str


# Small-order labelings produced once by the backtracking oracle
# (column-major fill, ascending candidates) and frozen here. Orders 4 and 6
# go to the 2p lemma instead.
SMALL_LADDER_FIXTURES: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {
    1: ((1,), (2,)),
    2: ((1, 4), (2, 3)),
    3: ((1, 2, 3), (6, 5, 4)),
    5: ((1, 4, 9, 8, 5), (2, 3, 10, 7, 6)),
}

# The even orders <= 14 with composite n/2; the backtracking search builds
# them, and no closed form covers them yet.
_SEARCHED_ORDERS = (8, 12)

# Hand-built labelings for the 2p family at p in {2, 3, 5}; the closed form
# below needs p >= 7.
_BASE_2P: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {
    2: ((5, 4, 3, 8), (6, 7, 2, 1)),
    3: ((7, 2, 3, 10, 11, 12), (6, 5, 4, 9, 8, 1)),
    5: ((15, 2, 3, 4, 17, 14, 5, 18, 19, 20), (16, 7, 8, 9, 10, 11, 12, 13, 6, 1)),
}


def _swap_in_place(cells: np.ndarray, swaps) -> np.ndarray:
    """Exchange the positions of each pair of labels in turn; returns `cells`.

    `cells` is a contiguous grid holding exactly 1..2n, so each label sits
    in one cell, the first and only match of a scan of the flat view.
    """
    flat = cells.reshape(-1)
    for a, b in swaps:
        ia, ib = (flat == a).argmax(), (flat == b).argmax()
        flat[ia], flat[ib] = b, a
    return cells


def _ensure_prime(labeling: Labeling, context: str) -> Labeling:
    violations = verify_labeling(labeling)
    if violations:
        raise ConstructionFailedError(
            f"{context}: produced a non-prime labeling; first violation: {violations[0]}"
        )
    return labeling


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
    return _ensure_prime(Labeling._adopt(_lemma_cells(p)), f"2p construction, p={p}")


def _extended_cells(p: int, q: int) -> np.ndarray:
    tail = np.arange(4 * p + 1, 4 * p + 2 * q + 1).reshape(2, q)
    return np.concatenate([_lemma_cells(p), tail], axis=1)


def _designated_case1_partner(p: int, q: int) -> int:
    """The power of two the repair analysis singles out for this (p, q)."""
    if p == 2:
        return 8
    if p == 3:
        return 8 if q == 5 else 4
    if p == 5:
        return 4 if q == 7 else 8
    return 8 if q == p + 2 else 2


def _designated_case2_partner(p: int, q: int) -> int:
    """The 2^a*3^b label the repair analysis singles out for this (p, q)."""
    return 12 if p == 7 else 6


# The pairs whose designated swap does not apply: for (3, 3) the designated
# partner 6 still shares a factor of 3 with the other column entry 15, and
# the repair analysis names no partner for the other three.
_SPECIAL_SWAPS: dict[tuple[int, int], tuple[tuple[int, int], str]] = {
    (2, 3): ((12, 14), "case p=2, q=3: swap 12 and 14"),
    (3, 3): ((18, 16), "case p=3, q=3: swap 18 and 16"),
    (5, 3): ((21, 23), "case p=5, q=3: swap 7q with 23"),
    (7, 5): ((35, 7), "case p=7, q=5: swap 7q with p"),
}


def plan_theorem_swaps(p: int, q: int) -> SwapPlan:
    """The one swap that makes the extended labeling of (p, q) prime.

    A rule table, not a search; it builds no grid. The four pairs (2, 3),
    (3, 3), (5, 3) and (7, 5) take their own swap: 12<->14, 18<->16,
    21<->23 and 35<->7. Every other pair swaps e, the even one of the two
    multiples of q in column j*, with a designated small label:

    * q > p or p/2 < q < 2p/3: a power of two, namely 8 for p = 2; 8 for
      (3, 5) and 4 for other q when p = 3; 4 for (5, 7) and 8 for other q
      when p = 5; 8 for q = p + 2 and 2 otherwise when p >= 7.
    * 2p/3 < q <= p: a label 2^a*3^b, namely 12 for (7, 7) and 6 otherwise.

    theorem_ladder_2p_q verifies the swapped labeling, so a wrong entry
    raises ConstructionFailedError rather than yield a non-prime labeling.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if q == 2 or not is_prime(q):
        raise ValueError(f"q must be an odd prime, got {q}")
    if not p < 2 * q:
        raise ValueError(f"construction requires p < 2q, got p={p}, q={q}")
    if (p, q) in _SPECIAL_SWAPS:
        swap, tag = _SPECIAL_SWAPS[(p, q)]
        return SwapPlan((swap,), tag)
    # Column j* holds the two smallest multiples of q above 4p.
    low = (4 * p // q + 1) * q
    even_mult = low if low % 2 == 0 else low + q
    if q > p or (2 * q > p and 3 * q < 2 * p):
        partner = _designated_case1_partner(p, q)
        tag = f"case p<q or p/2<q<2p/3: swap {even_mult} with a power of two"
    else:
        # 2p/3 < q <= p; q = p is the boundary the analysis keeps here.
        partner = _designated_case2_partner(p, q)
        tag = f"case 2p/3<q<=p: swap {even_mult} with a 2^a*3^b label"
    return SwapPlan(((even_mult, partner),), tag)


def theorem_ladder_2p_q(p: int, q: int) -> Labeling:
    """Prime labeling of the (2p+q)-column ladder, p prime, q odd prime, p < 2q."""
    plan = plan_theorem_swaps(p, q)
    return _ensure_prime(
        Labeling._adopt(_swap_in_place(_extended_cells(p, q), plan.swaps)),
        f"2p+q construction, p={p}, q={q}",
    )


def construct_ladder(n: int) -> Labeling:
    """A verified prime labeling of the n-column ladder, for any supported n.

    Dispatch: stored fixtures for n in {1, 2, 3, 5}; the 2p construction for
    even n with n/2 prime; a smallest-p witness n = 2p + q feeding the 2p+q
    construction for odd n >= 7; backtracking search for 8 and 12, the only
    even orders <= 14 with composite n/2. Other even orders raise
    UnsupportedOrderError. For odd n >= 7 the sieve of [2, n] is built.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n in SMALL_LADDER_FIXTURES:
        return _ensure_prime(Labeling(SMALL_LADDER_FIXTURES[n]), f"fixture n={n}")
    if n % 2 == 0 and is_prime(n // 2):
        return lemma_ladder_2p(n // 2)
    if n % 2 == 1:
        witness = find_lemoine(n, sieve_primes(n))
        if witness is None:
            raise WitnessNotFoundError(
                f"no decomposition n = 2p + q with p < 2q exists for n={n}: "
                "this refutes the conjecture the construction relies on"
            )
        return theorem_ladder_2p_q(witness.p, witness.q)
    if n in _SEARCHED_ORDERS:
        result = brute_force_labeling(n)
        if result.status == FOUND:
            return _ensure_prime(result.labeling, f"backtracking search, n={n}")
        raise ConstructionFailedError(
            f"backtracking search reported {result.status} for n={n}"
        )
    raise UnsupportedOrderError(
        f"no construction covers even n={n} > 12 with composite n/2"
    )
