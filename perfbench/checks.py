"""Output checkers that share no code with ``primeladder``.

Every check here recomputes what it needs from first principles (trial
division, a plain sieve, ``math.gcd``, the definitions in the paper) and raises
``CheckError`` on the first discrepancy. Nothing is compared against a stored
copy of earlier program output.
"""

from __future__ import annotations

import math
import re
from typing import Iterator

import numpy as np


class CheckError(AssertionError):
    """A program output failed an independent check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def trial_prime(k: int) -> bool:
    """Primality by trial division."""
    if k < 2:
        return False
    for d in range(2, math.isqrt(k) + 1):
        if k % d == 0:
            return False
    return True


def plain_sieve(limit: int) -> np.ndarray:
    """Boolean array whose index k is True iff k is prime, for 0 <= k <= limit."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return np.frombuffer(flags, dtype=bool)


# ---------------------------------------------------------------------------
# roundtrip: labelings and their CSV file
# ---------------------------------------------------------------------------


def parse_csv_rows(text: str, n: int) -> np.ndarray:
    """The (2, n) grid a two-line CSV file holds; CheckError unless it holds exactly that."""
    lines = text.split("\n")
    require(len(lines) == 3 and lines[2] == "", f"expected 2 newline-terminated lines, got {len(lines) - 1}")
    for i, line in enumerate(lines[:2], start=1):
        require(re.fullmatch(r"[0-9]+(,[0-9]+)*", line) is not None, f"line {i} is not comma-separated integers")
        require(line.count(",") == n - 1, f"line {i} has {line.count(',') + 1} fields, expected {n}")
    return np.array([list(map(int, line.split(","))) for line in lines[:2]], dtype=np.int64)


def check_prime_labeling(cells: np.ndarray) -> None:
    """The grid is a permutation of 1..2n and every adjacent pair is coprime."""
    require(cells.ndim == 2 and cells.shape[0] == 2, f"grid shape {cells.shape} is not 2 x n")
    n = cells.shape[1]
    flat = cells.ravel()
    require(int(flat.min()) >= 1 and int(flat.max()) <= 2 * n, f"labels leave 1..{2 * n}")
    seen = np.zeros(2 * n + 1, dtype=bool)
    seen[flat] = True
    require(bool(seen[1:].all()), f"labels are not a permutation of 1..{2 * n}")
    top, bottom = cells.tolist()
    for edge, a, b in (("vertical", top, bottom), ("top-row", top, top[1:]), ("bottom-row", bottom, bottom[1:])):
        if max(map(math.gcd, a, b), default=1) != 1:
            j = next(j for j, g in enumerate(map(math.gcd, a, b)) if g != 1)
            raise CheckError(f"{edge} pair at column {j + 1}: {a[j]} and {b[j]} are not coprime")


# ---------------------------------------------------------------------------
# scan and witness: n = 2p + q with p < 2q, smallest p
# ---------------------------------------------------------------------------


def _decomposes(n: int, p: int, is_prime) -> bool:
    q = n - 2 * p
    return q >= 3 and q % 2 == 1 and p < 2 * q and is_prime(p) and is_prime(q)


def check_lemoine_witness(n: int, p: int, q: int) -> None:
    """(p, q) is a valid witness for n and no smaller prime p works, by trial division."""
    require(2 * p + q == n, f"n={n}: 2*{p} + {q} != n")
    require(_decomposes(n, p, trial_prime), f"n={n}: ({p}, {q}) is not a valid decomposition")
    for r in range(2, p):
        require(not _decomposes(n, r, trial_prime), f"n={n}: p={p} is not minimal, p={r} works")


def check_witness_rows(rows: np.ndarray, first_n: int, flags: np.ndarray) -> None:
    """Rows (n, p, q) cover consecutive odd n from first_n, each a minimal witness.

    `flags` is a plain sieve covering every n in the rows.
    """
    require(rows.ndim == 2 and rows.shape[1] == 3, f"witness rows have shape {rows.shape}")
    n, p, q = rows[:, 0], rows[:, 1], rows[:, 2]
    expected = np.arange(first_n, first_n + 2 * rows.shape[0], 2, dtype=np.int64)
    bad = np.flatnonzero(n != expected)
    if bad.size:
        raise CheckError(f"witness row for n={expected[bad[0]]} holds n={n[bad[0]]}")
    require(int(p.min()) >= 2 and int(q.min()) >= 3, "witness with p < 2 or q < 3")
    require(max(int(p.max()), int(q.max())) < flags.size, "witness values beyond the range scanned")
    ok = (2 * p + q == n) & flags[p] & flags[q] & (q % 2 == 1) & (p < 2 * q)
    bad = np.flatnonzero(~ok)
    if bad.size:
        i = bad[0]
        raise CheckError(f"n={n[i]}: ({p[i]}, {q[i]}) is not a valid decomposition")
    # Minimality: no prime r < p may give a decomposition. The rows still to
    # test shrink fast, since most witnesses have a small p.
    idx = np.arange(rows.shape[0])
    for r in np.flatnonzero(flags[: int(p.max())]):
        idx = idx[p[idx] > r]
        q2 = n[idx] - 2 * r
        works = (q2 >= 3) & (q2 % 2 == 1) & (r < 2 * q2)
        works[works] = flags[q2[works]]
        if works.any():
            i = idx[works][0]
            raise CheckError(f"n={n[i]}: p={p[i]} is not minimal, p={r} works")


def iter_witness_blocks(path: str, block_bytes: int = 1 << 23) -> Iterator[np.ndarray]:
    """The rows of a witness CSV with header `n,p,q`, in blocks of about block_bytes."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        require(header == "n,p,q\n", f"witness CSV header is {header!r}")
        while True:
            lines = fh.readlines(block_bytes)
            if not lines:
                return
            try:
                yield np.loadtxt(lines, delimiter=",", dtype=np.int64, ndmin=2)
            except ValueError as exc:
                raise CheckError(f"witness CSV row is malformed: {exc}") from None


# ---------------------------------------------------------------------------
# partition: strong canonical partitions
# ---------------------------------------------------------------------------


def sigma_tau_pairs(parts: tuple[int, ...]) -> list[tuple[int, int]]:
    """(sigma_k, tau_k) for 3 <= k <= m, from their definitions.

    sigma_k = 2(p_1 + ... + p_{k-2}) + p_{k-1} and
    tau_k = 2(p_1 + ... + p_{k-1}) + p_k + 1.
    """
    out = []
    for k in range(3, len(parts) + 1):
        sigma = 2 * sum(parts[: k - 2]) + parts[k - 2]
        tau = 2 * sum(parts[: k - 1]) + parts[k - 1] + 1
        out.append((sigma, tau))
    return out


def check_strong_partition(n: int, parts: tuple[int, ...], flags: np.ndarray) -> None:
    """Odd primes summing to n, each dominating its prefix, all sigma/tau pairs coprime."""
    require(len(parts) >= 1, f"n={n}: empty partition")
    require(sum(parts) == n, f"n={n}: parts {parts} sum to {sum(parts)}")
    prefix = 0
    for j, p in enumerate(parts):
        require(3 <= p <= n and p % 2 == 1 and bool(flags[p]), f"n={n}: part {p} of {parts} is not an odd prime")
        require(j == 0 or p >= 2 * prefix + 3, f"n={n}: part {p} of {parts} does not dominate prefix sum {prefix}")
        prefix += p
    for sigma, tau in sigma_tau_pairs(parts):
        require(math.gcd(sigma, tau) == 1, f"n={n}: {parts} is not strong, sigma={sigma} and tau={tau} share a factor")


def first_strong_partition(n: int, max_terms: int, flags: np.ndarray) -> tuple[int, ...] | None:
    """The first strong canonical partition of n by brute force.

    Order: ascending term count, then lexicographic on the parts. A sum of m
    odd numbers has the parity of m, so term counts of the wrong parity are
    skipped.
    """
    odd_primes = [int(v) for v in np.flatnonzero(flags[: n + 1]) if v % 2 == 1]

    def extend(prefix: tuple[int, ...], total: int, m: int):
        if len(prefix) == m - 1:
            last = n - total
            if (not prefix or last >= 2 * total + 3) and last % 2 == 1 and flags[last]:
                yield prefix + (last,)
            return
        lower = 2 * total + 3 if prefix else 3
        for p in odd_primes:
            if p < lower:
                continue
            # the next part is at least 2 * (total + p) + 3
            if total + p + 2 * (total + p) + 3 > n:
                break
            yield from extend(prefix + (p,), total + p, m)

    for m in range(1, max_terms + 1):
        if m % 2 != n % 2:
            continue
        for parts in extend((), 0, m):
            if all(math.gcd(s, t) == 1 for s, t in sigma_tau_pairs(parts)):
                return parts
    return None
