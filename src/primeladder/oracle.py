"""Exhaustive backtracking search for prime labelings of small ladders.

Independent of the closed-form constructions: used to cross-validate them,
to generate small-order fixtures, and to probe orders the constructions do
not cover. Search-space growth makes it practical only up to n around 14.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import gcd

from .ladder import Labeling

__all__ = ["SearchConfig", "SearchResult", "brute_force_labeling", "FOUND", "EXHAUSTED", "TIMEOUT"]

FOUND = "found"
EXHAUSTED = "exhausted"
TIMEOUT = "timeout"


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one search run.

    time_budget is in seconds (None = unbounded; negative is rejected).
    """

    n: int
    time_budget: float | None = None


@dataclass(frozen=True)
class SearchResult:
    status: str  # FOUND | EXHAUSTED | TIMEOUT
    labeling: Labeling | None
    nodes: int
    elapsed: float


def _coprime_masks(m: int) -> list[int]:
    """masks[a] has bit b-1 set iff gcd(a, b) == 1, for labels 1..m."""
    masks = [0] * (m + 1)
    for a in range(1, m + 1):
        mask = 0
        for b in range(1, m + 1):
            if gcd(a, b) == 1:
                mask |= 1 << (b - 1)
        masks[a] = mask
    return masks


def brute_force_labeling(cfg: SearchConfig) -> SearchResult:
    """Depth-first search over column-major placements, ascending labels.

    Fills (1,1), (2,1), (1,2), (2,2), ... so every new placement only has to
    stay coprime to its left and upper neighbors; any conflict prunes the
    subtree immediately. Deterministic for a given config. The returned
    status distinguishes a fully explored space (EXHAUSTED) from running out
    of time (TIMEOUT).
    """
    if cfg.n < 1:
        raise ValueError(f"n must be >= 1, got {cfg.n}")
    if cfg.time_budget is not None and cfg.time_budget < 0:
        raise ValueError(f"time budget must be >= 0, got {cfg.time_budget}")
    n = cfg.n
    m = 2 * n
    masks = _coprime_masks(m)
    full = (1 << m) - 1
    start = time.monotonic()
    deadline = start + cfg.time_budget if cfg.time_budget is not None else None

    # Labels sharing a common factor form an independent set of the grid, and
    # the free cells (a column-suffix of the grid) can host at most
    # (free_cells + 1) // 2 pairwise non-adjacent labels. Tracking the
    # remaining multiples of 2 and of 3 against that capacity prunes
    # hopeless subtrees without changing which solution is found first.
    evens_left = m // 2
    threes_left = m // 3

    assign = [0] * m
    avail = [0] * m
    avail[0] = full
    free = full
    nodes = 0
    t = 0
    while t >= 0:
        cand = avail[t]
        if cand == 0:
            t -= 1
            if t >= 0:
                released = assign[t]
                free |= 1 << (released - 1)
                if released % 2 == 0:
                    evens_left += 1
                if released % 3 == 0:
                    threes_left += 1
            continue
        bit = cand & -cand
        avail[t] = cand ^ bit
        label = bit.bit_length()
        assign[t] = label
        free &= ~bit
        if label % 2 == 0:
            evens_left -= 1
        if label % 3 == 0:
            threes_left -= 1
        nodes += 1
        if deadline is not None and time.monotonic() > deadline:
            return SearchResult(TIMEOUT, None, nodes, time.monotonic() - start)
        if t == m - 1:
            rows = (assign[0::2], assign[1::2])
            return SearchResult(FOUND, Labeling(rows), nodes, time.monotonic() - start)
        capacity = (m - t) // 2  # free cells after this placement: m - t - 1
        if evens_left > capacity or threes_left > capacity:
            free |= bit
            if label % 2 == 0:
                evens_left += 1
            if label % 3 == 0:
                threes_left += 1
            continue
        t += 1
        nxt = free & masks[assign[t - 2]] if t >= 2 else free
        if t & 1:
            nxt &= masks[assign[t - 1]]
        avail[t] = nxt
    return SearchResult(EXHAUSTED, None, nodes, time.monotonic() - start)
