"""Closed-form prime labelings of ladders, one for every order.

* ``lemma_ladder_2p``: a prime labeling of the 2p-column ladder, for any
  prime p, that always ends with 1 and 4p in the final column.
* ``theorem_ladder_2p_q``: a prime labeling of the (2p+q)-column ladder for
  primes p and odd q with p < 2q, built by extending the 2p labeling with
  consecutive labels and repairing the single bad column j* by one swap.
* ``construct_ladder``: picks a construction for any order n >= 1: a
  fixture, one of the two families, or the even rule ``_even_layout``.

Every construction is data: a prefix (a pair of equal rows), then blocks of
consecutive labels, then swaps. A block (w, flip) appends w columns holding
the next 2w labels, the lower w on top and the upper w below, or the other
way round when flip is set. The 2p lemma for p >= 7 is the blocks (p, False)
and (p, True) with the swaps 1<->3p and 4<->2p (and p<->3p when p = 2 mod 3);
for p in {2, 3, 5} it is a stored prefix. The 2p+q theorem appends the block
(q, False) and the one swap ``plan_theorem_swaps`` gives as a function of
(p, q) alone: the entry of the table ``_SWAP_TABLE`` for seven small pairs,
and for every other pair the general rule, which swaps the even multiple of
q in the block's conflicted column with a small label (``_tail_swap``). The
lemma's swaps move only labels <= 4p, which sit in the first 2p columns, so
they act the same with or without the tail. The even rule appends (q, False)
and (r, True) to the p = 2 prefix and makes three swaps, the last one the
same repair of the r block. Nothing searches.

One function, ``_built``, lays out, swaps and verifies every grid, fixtures
included, so every constructor's output is verified in full exactly once:
the repair case analysis is intricate enough that a transcription slip must
fail loudly, not leak a non-prime labeling. The pre-repair grids and the 2p
part of a 2p+q grid are not verified on their own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conjectures import LemoineWitness, WitnessNotFoundError, find_goldbach, find_lemoine
from .ladder import Labeling, verify_labeling
from .numtheory import _is_integer, _require_integers, is_prime, sieve_primes
from .oracle import brute_force_labeling  # unused; perfbench/workloads.py:295 patches it (ROADMAP item 7)

__all__ = [
    "ConstructionFailedError",
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


@dataclass(frozen=True)
class SwapPlan:
    """The label swap that turns an extended labeling into a prime one.

    swaps holds exactly one (a, b) pair: the labels a and b trade cells.
    rule_tag names the rule of plan_theorem_swaps that gave it: one of the
    seven pairs of its table, or one of the two cases of its general rule.
    """

    swaps: tuple[tuple[int, int], ...]
    rule_tag: str


# The oracle's first labelings (column-major fill, ascending candidates) of
# the orders no closed form covers, frozen here.
SMALL_LADDER_FIXTURES: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {
    1: ((1,), (2,)),
    2: ((1, 4), (2, 3)),
    3: ((1, 2, 3), (6, 5, 4)),
    5: ((1, 4, 9, 8, 5), (2, 3, 10, 7, 6)),
    8: ((1, 4, 5, 6, 11, 10, 9, 16), (2, 3, 8, 7, 12, 13, 14, 15)),
    12: ((1, 4, 5, 6, 11, 12, 17, 24, 23, 16, 9, 20), (2, 3, 8, 7, 10, 13, 18, 19, 14, 15, 22, 21)),
    16: ((1, 4, 5, 6, 11, 12, 17, 16, 15, 26, 21, 32, 23, 18, 29, 30),
         (2, 3, 8, 7, 10, 13, 14, 9, 22, 19, 20, 27, 28, 25, 24, 31)),
}

# Hand-built labelings for the 2p family at p in {2, 3, 5}; the closed form
# below needs p >= 7.
_BASE_2P: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {
    2: ((5, 4, 3, 8), (6, 7, 2, 1)),
    3: ((7, 2, 3, 10, 11, 12), (6, 5, 4, 9, 8, 1)),
    5: ((15, 2, 3, 4, 17, 14, 5, 18, 19, 20), (16, 7, 8, 9, 10, 11, 12, 13, 6, 1)),
}


def _built(context: str, prefix, blocks=(), swaps=()) -> Labeling:
    """The verified labeling of the layout (prefix, blocks, swaps) in the module docstring.

    The swaps run in order. The grid holds exactly 1..2n, so each label is
    the first and only match of a scan of the flat view.
    """
    parts, last = [np.array(prefix, dtype=np.int64)], 2 * len(prefix[0])
    for width, flip in blocks:
        block = np.arange(last + 1, last + 2 * width + 1).reshape(2, width)
        parts.append(block[::-1] if flip else block)
        last += 2 * width
    cells = np.concatenate(parts, axis=1)
    flat = cells.reshape(-1)
    for a, b in swaps:
        ia, ib = (flat == a).argmax(), (flat == b).argmax()
        flat[ia], flat[ib] = b, a
    labeling = Labeling._adopt(cells)
    violations = verify_labeling(labeling)
    if violations:
        raise ConstructionFailedError(
            f"{context}: produced a non-prime labeling; first violation: {violations[0]}"
        )
    return labeling


def _lemma_layout(p: int):
    """(prefix, blocks, swaps) of the 2p labeling, for a prime p."""
    if p in _BASE_2P:
        return _BASE_2P[p], (), ()
    swaps = ((1, 3 * p), (4, 2 * p)) + (((p, 3 * p),) if p % 3 == 2 else ())
    return ((), ()), ((p, False), (p, True)), swaps


def lemma_ladder_2p(p: int) -> Labeling:
    """Prime labeling of the 2p-column ladder with {1, 4p} in the final column.

    For p >= 7, repair the base labeling by switching 1 with 3p and 4 with
    2p; when p = 2 (mod 3) the labels 3p and p+1 would still share a factor
    of 3, so additionally switch p with 3p.
    """
    if not _is_integer(p) or not is_prime(p):
        raise ValueError(f"p must be prime, got {p!r}")
    return _built(f"2p construction, p={p}", *_lemma_layout(p))


# The pairs whose swap is not the general rule's, with their tags: the
# general swap leaves a shared factor in each of them (for (3, 3), the
# partner 6 and the other column entry 15 share 3).
_SWAP_TABLE: dict[tuple[int, int], tuple[tuple[int, int], str]] = {
    (2, 3): ((12, 14), "case p=2, q=3: swap 12 and 14"),
    (3, 3): ((18, 16), "case p=3, q=3: swap 18 and 16"),
    (5, 3): ((21, 23), "case p=5, q=3: swap 7q with 23"),
    (7, 5): ((35, 7), "case p=7, q=5: swap 7q with p"),
    (3, 5): ((20, 8), "case p<q or p/2<q<2p/3: swap 20 with a power of two"),
    (5, 7): ((28, 4), "case p<q or p/2<q<2p/3: swap 28 with a power of two"),
    (7, 7): ((42, 12), "case 2p/3<q<=p: swap 42 with a 2^a*3^b label"),
}


def _tail_swap(width: int, below: int, partner: int) -> tuple[int, int]:
    """(e, partner), e the least multiple of 2 * width above below.

    An unflipped or flipped block of width w whose labels follow 1..below
    holds the two least multiples of w above below in one column; e is the
    even one. Swapping e with a small partner repairs that column.
    """
    return (below // (2 * width) + 1) * 2 * width, partner


def plan_theorem_swaps(p: int, q: int) -> SwapPlan:
    """The one swap that makes the extended labeling of (p, q) prime.

    A rule table, not a search; it builds no grid. The seven pairs of
    ``_SWAP_TABLE`` take the swap it lists. Every other pair swaps e, the
    even one of the two multiples of q in column j* (the least multiple of
    2q above 4p), with a small label:

    * q > p or 3q < 2p: a power of two, namely 8 for p = 2, 4 for p = 3,
      8 for p = 5, and for p >= 7 8 when q = p + 2 and 2 otherwise.
    * otherwise, that is 2p/3 < q <= p: the label 6 = 2*3.

    A (p, q) that is not a LemoineWitness, that is p prime, q an odd prime
    and p < 2q, raises ValueError, and so does a p or q that is not an
    integer (a bool or a float). theorem_ladder_2p_q verifies the swapped
    labeling, so a wrong entry raises ConstructionFailedError rather than
    yield a non-prime labeling.
    """
    LemoineWitness(2 * p + q, p, q)
    if (p, q) in _SWAP_TABLE:
        swap, tag = _SWAP_TABLE[p, q]
        return SwapPlan((swap,), tag)
    if q > p or 3 * q < 2 * p:
        swap = _tail_swap(q, 4 * p, {2: 8, 3: 4, 5: 8}.get(p, 8 if q == p + 2 else 2))
        return SwapPlan((swap,), f"case p<q or p/2<q<2p/3: swap {swap[0]} with a power of two")
    swap = _tail_swap(q, 4 * p, 6)
    return SwapPlan((swap,), f"case 2p/3<q<=p: swap {swap[0]} with a 2^a*3^b label")


def theorem_ladder_2p_q(p: int, q: int) -> Labeling:
    """Prime labeling of the (2p+q)-column ladder, p prime, q odd prime, p < 2q."""
    plan = plan_theorem_swaps(p, q)
    prefix, blocks, swaps = _lemma_layout(p)
    context = f"2p+q construction, p={p}, q={q}"
    return _built(context, prefix, (*blocks, (q, False)), (*swaps, *plan.swaps))


def _even_layout(q: int, r: int):
    """(prefix, blocks, swaps) of the (4+q+r)-column labeling, for odd primes 3 <= q <= r with r >= 11.

    The p = 2 prefix takes the blocks (q, False) and (r, True), then swaps
    2q with 8 (9 with 11 when q = 3), 1 with q + 8, and 4 with e, the even
    multiple of r in the tail's one column of two. A smaller r puts e beside
    5, 3 and 7, and q > r leaves about half the splits non-prime.
    """
    swaps = ((9, 11) if q == 3 else (2 * q, 8), (1, q + 8), _tail_swap(r, 2 * q + 8, 4))
    return _BASE_2P[2], ((q, False), (r, True)), swaps


def construct_ladder(n: int) -> Labeling:
    """A verified prime labeling of the n-column ladder, for any n >= 1.

    Dispatch: stored fixtures for n in {1, 2, 3, 5, 8, 12, 16}; the 2p
    construction for even n with n/2 prime; for odd n >= 7 the 2p+q
    construction of the smallest-p witness n = 2p + q, and for the other
    even n, all >= 18, the even rule of the smallest-q split n - 4 = q + r,
    both from the sieve of [2, n]; a missing one raises WitnessNotFoundError.
    An n that is not an integer, a bool or a float, raises ValueError.
    """
    (n,) = _require_integers(n=n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n in SMALL_LADDER_FIXTURES:
        return _built(f"fixture n={n}", SMALL_LADDER_FIXTURES[n])
    if n % 2 == 0 and is_prime(n // 2):
        return lemma_ladder_2p(n // 2)
    odd, sieve = n % 2 == 1, sieve_primes(n)
    found = find_lemoine(n, sieve) if odd else find_goldbach(n - 4, sieve)
    if found is None:
        claim = "n = 2p + q with p < 2q" if odd else f"n - 4 = {n - 4} = q + r into primes"
        raise WitnessNotFoundError(
            f"no decomposition {claim} exists for n={n}: "
            "this refutes the conjecture the construction relies on"
        )
    if odd:
        return theorem_ladder_2p_q(found.p, found.q)
    return _built(f"even construction, q={found[0]}, r={found[1]}", *_even_layout(*found))
