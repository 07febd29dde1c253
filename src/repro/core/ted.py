"""Transductive experimental design — Algorithm 1 of the paper.

Given an un-sampled candidate set ``V`` (as feature vectors), TED
greedily selects the ``m`` configurations most contributive to
initializing an evaluation function: each step picks

    x = argmax_v ||K_v||^2 / (k(v, v) + mu)

and deflates the kernel matrix ``K <- K - K_x K_x^T / (k(x,x) + mu)``,
so subsequent picks are pushed away from already-selected points — the
selected set scatters across the input design space.

The paper states the matrix entries are "computed as Euclidean
distance"; a raw distance matrix would make ``k(v, v) = 0`` and the
selection degenerate, so — following the original TED formulation of
Yu, Bi & Tresp (ICML'06) that the paper cites — we use an RBF kernel
*derived from* the Euclidean distances, with the bandwidth set to the
median pairwise distance (a standard self-tuning choice).  This keeps
the algorithm parameter-free apart from ``mu``.

The greedy loop never rewrites ``K``.  The deflated kernel is kept
implicitly as ``K - V V^T`` and the score numerators (squared column
norms ``cn``) and denominators (diagonal ``d``) follow rank-1 updates,
one BLAS matrix-vector product against the original ``K`` per pick.
That arithmetic reassociates the reference loop's (an ``einsum`` over
the deflated ``K``, then an in-place rewrite of it), so an incremental
pick is accepted only under a margin certificate: with error budgets
``e_n``/``e_d`` on ``cn``/``d``, the pick's lower score bound must beat
every other candidate's upper bound.  When it does not, the reference
deflated kernel is rebuilt (lazily, replaying only the picks not yet
applied) and the reference pick is taken from it.  Every pick therefore
equals the reference loop's; see docs/PERFORMANCE.md, "Certified
incremental TED".
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.utils.mathx import pairwise_sq_dists

#: error budget of the incremental ``cn``/``d``, as a fraction of their
#: largest initial entry (measured errors stay below 1e-14 of it)
ERROR_BUDGET = 1e-9


def rbf_kernel(
    features: np.ndarray, bandwidth: Optional[float] = None
) -> np.ndarray:
    """RBF kernel matrix of a set of feature vectors.

    ``bandwidth`` defaults to the median non-zero pairwise Euclidean
    distance (self-tuning heuristic).  Degenerate inputs (a single
    point, or all points identical) fall back to bandwidth 1.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    sq = pairwise_sq_dists(features, features)
    if bandwidth is None:
        # strict-upper-triangle mask via broadcast comparison: same
        # multiset of distances as np.triu_indices(k=1) but without
        # materializing two O(n^2) int64 index arrays
        n = len(sq)
        upper = np.arange(n)[None, :] > np.arange(n)[:, None]
        positive = sq[upper & (sq > 0)]
        if len(positive) == 0:
            bandwidth = 1.0
        else:
            bandwidth = float(np.sqrt(np.median(positive)))
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    # exp(-sq / 2b^2) in place; (-x)/c and x/(-c) round alike
    sq /= -(2.0 * bandwidth * bandwidth)
    return np.exp(sq, out=sq)


def ted_select(
    features: np.ndarray,
    m: int,
    mu: float = 0.1,
    bandwidth: Optional[float] = None,
) -> List[int]:
    """Select ``m`` diverse, representative rows of ``features``.

    Returns the selected row indices in pick order.  This is Algorithm 1
    (``TED(V, mu, m)``) with the kernel built by :func:`rbf_kernel`.

    ``m`` is clipped to ``len(features)``; ``mu`` is the (positive)
    regularization coefficient; the paper uses 0.1.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    n = len(features)
    if n == 0:
        return []
    if m <= 0:
        raise ValueError("m must be positive")
    if mu <= 0:
        raise ValueError("mu must be positive")
    K = rbf_kernel(features, bandwidth=bandwidth)
    return _ted_greedy(K, min(m, n), mu)


def _replay(K: np.ndarray, picks: List[int], mu: float) -> None:
    """Apply the reference deflation of ``picks``, in order, to ``K``."""
    for x in picks:
        kx = K[:, x].copy()
        K -= np.outer(kx, kx) / (kx[x] + mu)


def _certified(
    cn: np.ndarray, d: np.ndarray, x: int, others: np.ndarray,
    mu: float, e_n: float, e_d: float,
) -> bool:
    """True when ``x`` outscores every ``others`` under any in-budget error.

    Fails closed: a NaN or infinite bound (which makes the sum of the
    bounds non-finite), or a denominator that could reach zero, is
    never certified.
    """
    low = (cn[x] - e_n) / (d[x] + mu + e_d)
    if not math.isfinite(low):
        return False
    den = d[others] + mu - e_d
    high = (cn[others] + e_n) / den
    return den.size == 0 or bool(
        den.min() > 0 and math.isfinite(high.sum()) and low > high.max()
    )


def _ted_greedy(K: np.ndarray, m: int, mu: float) -> List[int]:
    """Greedy TED picks, equal to the reference loop's (module docstring).

    ``V[:, t] = kx_t / sqrt(c_t)`` holds the deflation vectors, so the
    current kernel is ``K - V V^T``.  With ``kx`` the current column of
    pick ``x``, ``c = kx[x] + mu`` and ``tx = (K - V V^T) kx``:

        cn_j <- cn_j - (2/c) kx_j tx_j + (kx_j^2 / c^2) ||kx||^2
        d_j  <- d_j - kx_j^2 / c
    """
    n = len(K)
    cn = np.einsum("ij,ij->j", K, K)
    d = np.diag(K).copy()
    e_n = ERROR_BUDGET * float(cn.max())
    e_d = ERROR_BUDGET * float(d.max())
    V = np.empty((n, m))
    exact: Optional[np.ndarray] = None  # reference kernel, on demand
    applied = 0  # picks already deflated out of ``exact``
    selected: List[int] = []
    available = np.ones(n, dtype=bool)
    for t in range(m):
        scores = cn / (d + mu)
        scores[~available] = -np.inf
        x = int(np.argmax(scores))
        available[x] = False
        # pick 0 comes from the reference einsum itself
        if t and not _certified(cn, d, x, available, mu, e_n, e_d):
            if exact is None:
                exact = K.copy()
            _replay(exact, selected[applied:], mu)
            applied = t
            cn = np.einsum("ij,ij->j", exact, exact)
            d = np.diag(exact).copy()
            available[x] = True
            scores = np.where(available, cn / (d + mu), -np.inf)
            x = int(np.argmax(scores))
            available[x] = False
        selected.append(x)
        if t == m - 1:
            break  # the last pick needs no further deflation
        Vt = V[:, :t]
        kx = K[:, x] - Vt @ Vt[x]
        c = kx[x] + mu
        tx = K @ kx - Vt @ (Vt.T @ kx)
        kx_sq = kx * kx
        cn -= (2.0 / c) * (kx * tx) - (float(kx @ kx) / (c * c)) * kx_sq
        d -= kx_sq / c
        V[:, t] = kx / np.sqrt(c)
    return selected
