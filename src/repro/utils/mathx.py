"""Small math helpers shared across the schedule-space and hardware models.

Most of these deal with integer factorizations, which is how tile-size
knobs are generated (an axis of extent ``n`` is split into ``k`` parts
whose product is ``n``), mirroring AutoTVM's ``SplitEntity`` machinery.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

import numpy as np


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division: smallest ``q`` with ``q * b >= a``."""
    if b <= 0:
        raise ValueError(f"divisor must be positive, got {b}")
    return -(-a // b)


def round_up(a: int, multiple: int) -> int:
    """Round ``a`` up to the nearest multiple of ``multiple``."""
    return ceil_div(a, multiple) * multiple


def clamp(x: float, lo: float, hi: float) -> float:
    """Clamp ``x`` into the closed interval ``[lo, hi]``."""
    if lo > hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    return max(lo, min(hi, x))


def is_power_of_two(n: int) -> bool:
    """True when ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def next_power_of_two(n: int) -> int:
    """Smallest power of two ``>= n`` (``n`` must be positive)."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return 1 << (n - 1).bit_length()


@lru_cache(maxsize=4096)
def factorize(n: int) -> Tuple[int, ...]:
    """Return the sorted tuple of all positive divisors of ``n``.

    >>> factorize(12)
    (1, 2, 3, 4, 6, 12)
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    small: List[int] = []
    large: List[int] = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


def factor_pairs(n: int) -> List[Tuple[int, int]]:
    """All ordered pairs ``(a, b)`` with ``a * b == n``.

    >>> factor_pairs(4)
    [(1, 4), (2, 2), (4, 1)]
    """
    return [(d, n // d) for d in factorize(n)]


@lru_cache(maxsize=4096)
def all_factorizations(n: int, parts: int) -> Tuple[Tuple[int, ...], ...]:
    """All ordered ``parts``-tuples of positive ints whose product is ``n``.

    This enumerates every way to split a loop of extent ``n`` into
    ``parts`` nested loops, which is exactly the candidate set of an
    AutoTVM split knob.

    >>> all_factorizations(4, 2)
    ((1, 4), (2, 2), (4, 1))
    """
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    if parts == 1:
        return ((n,),)
    result: List[Tuple[int, ...]] = []
    for d in factorize(n):
        for rest in all_factorizations(n // d, parts - 1):
            result.append((d,) + rest)
    return tuple(result)


def pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between rows of ``a`` and rows of ``b``.

    Returns an ``(len(a), len(b))`` matrix.  Uses the expanded quadratic
    form for speed and clips tiny negative values caused by floating-
    point cancellation.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("inputs must be 2-D arrays of row vectors")
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    aa = np.sum(a * a, axis=1)[:, None]
    bb = np.sum(b * b, axis=1)[None, :]
    # (aa + bb) - 2ab, in place: two n x m buffers live instead of four
    ab = a @ b.T
    ab *= 2.0
    sq = aa + bb
    sq -= ab
    np.maximum(sq, 0.0, out=sq)
    return sq
