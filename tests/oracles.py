"""Reference implementations kept as oracles for tests and benchmarks.

Plain NumPy only (no Hypothesis), so ``benchmarks/hotpaths.py`` can
time the library against them without the test extras installed.
"""

from typing import List, Optional

import numpy as np

from repro.core.ted import rbf_kernel


def reference_tree_predict(tree, X: np.ndarray) -> np.ndarray:
    """``RegressionTree`` predict by the original per-node routing loop.

    ``RegressionTree.predict`` must match it element-wise.
    """
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(X.shape[0])
    active = np.zeros(X.shape[0], dtype=np.int64)  # current node per row
    done = np.zeros(X.shape[0], dtype=bool)
    while not done.all():
        for node_id in np.unique(active[~done]):
            node = tree._nodes[node_id]
            rows = np.nonzero((active == node_id) & ~done)[0]
            if node.is_leaf:
                out[rows] = node.value
                done[rows] = True
            else:
                go_left = X[rows, node.feature] <= node.threshold
                active[rows[go_left]] = node.left
                active[rows[~go_left]] = node.right
    return out


def reference_ted_select(
    features: np.ndarray,
    m: int,
    mu: float = 0.1,
    bandwidth: Optional[float] = None,
) -> List[int]:
    """Greedy TED by the reference loop.

    Each pick recomputes every column norm with an ``einsum`` over the
    deflated kernel, then deflates it in place by the rank-1 update.
    ``repro.core.ted.ted_select`` must return exactly these picks.
    """
    features = np.asarray(features, dtype=np.float64)
    n = len(features)
    if n == 0:
        return []
    K = rbf_kernel(features, bandwidth=bandwidth)
    selected: List[int] = []
    available = np.ones(n, dtype=bool)
    for _ in range(min(m, n)):
        col_norms = np.einsum("ij,ij->j", K, K)
        scores = col_norms / (np.diag(K) + mu)
        scores = np.where(available, scores, -np.inf)
        x = int(np.argmax(scores))
        selected.append(x)
        available[x] = False
        kx = K[:, x].copy()
        K -= np.outer(kx, kx) / (kx[x] + mu)
    return selected
