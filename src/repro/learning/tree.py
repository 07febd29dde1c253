"""CART regression trees (the weak learner under the boosted ensemble).

Exact greedy splitting on squared error with optional per-sample
weights, depth and leaf-size limits, and feature subsampling.  The
implementation is vectorized per node: candidate thresholds are scanned
with prefix sums, giving O(d · n log n) per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.utils.rng import SeedLike, as_generator


def sample_weights(
    sample_weight: Optional[np.ndarray], y: np.ndarray
) -> np.ndarray:
    """Per-row fit weights: ones by default, else checked ``sample_weight``.

    Rejects a shape that does not match ``y``, negative weights and a
    total that is not positive (all-zero weights would make every node
    value 0/0).
    """
    if sample_weight is None:
        return np.ones(len(y))
    w = np.asarray(sample_weight, dtype=np.float64)
    if w.shape != y.shape or np.any(w < 0) or not w.sum() > 0:
        raise ValueError("invalid sample weights")
    return w


def _route(tree, data: np.ndarray) -> np.ndarray:
    """Each row's leaf value in a fitted tree's flat node arrays.

    Every pass advances each row still at an internal node one level,
    so the cost is O(depth * n) array ops with no per-node Python loop.
    """
    active = np.zeros(data.shape[0], dtype=np.int64)  # current node per row
    rows = np.arange(data.shape[0])
    for _ in range(tree.max_depth + 1):
        feats = tree._feature[active]
        internal = feats >= 0
        if not internal.any():
            break
        sub = rows[internal]
        act = active[internal]
        go_left = data[sub, feats[internal]] <= tree._threshold[act]
        active[sub] = np.where(go_left, tree._left[act], tree._right[act])
    return tree._value[active]


@dataclass
class _TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


class RegressionTree:
    """A binary regression tree fit by exact greedy SSE minimization.

    After :meth:`fit` the node list is flattened into parallel NumPy
    arrays (feature/threshold/left/right/value), so :meth:`predict`
    routes all rows level by level with pure array ops instead of a
    per-node Python loop.
    """

    def __init__(
        self,
        max_depth: int = 6,
        min_samples_leaf: int = 2,
        min_impurity_decrease: float = 1e-12,
        max_features: Optional[float] = None,
        seed: SeedLike = None,
    ):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if max_features is not None and not 0.0 < max_features <= 1.0:
            raise ValueError("max_features must be in (0, 1]")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_impurity_decrease = min_impurity_decrease
        self.max_features = max_features
        self._rng = as_generator(seed)
        self._nodes: list[_TreeNode] = []
        # flat node arrays (filled by _finalize after fit)
        self._feature: Optional[np.ndarray] = None
        self._threshold: Optional[np.ndarray] = None
        self._left: Optional[np.ndarray] = None
        self._right: Optional[np.ndarray] = None
        self._value: Optional[np.ndarray] = None

    # ------------------------------------------------------------------

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "RegressionTree":
        """Fit the tree; returns ``self``."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if y.shape != (X.shape[0],):
            raise ValueError("y must be 1-D and match X rows")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        w = sample_weights(sample_weight, y)

        self._nodes = []
        self._build(X, y, w, np.arange(X.shape[0]), depth=0)
        self._finalize()
        return self

    def _finalize(self) -> None:
        """Flatten the node list into parallel arrays for fast predict."""
        nodes = self._nodes
        count = len(nodes)
        self._feature = np.fromiter(
            (n.feature for n in nodes), dtype=np.int64, count=count
        )
        self._threshold = np.fromiter(
            (n.threshold for n in nodes), dtype=np.float64, count=count
        )
        self._left = np.fromiter(
            (n.left for n in nodes), dtype=np.int64, count=count
        )
        self._right = np.fromiter(
            (n.right for n in nodes), dtype=np.int64, count=count
        )
        self._value = np.fromiter(
            (n.value for n in nodes), dtype=np.float64, count=count
        )

    def _new_node(self) -> int:
        self._nodes.append(_TreeNode())
        return len(self._nodes) - 1

    def _build(
        self,
        X: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        idx: np.ndarray,
        depth: int,
    ) -> int:
        node_id = self._new_node()
        node = self._nodes[node_id]
        w_sub = w[idx]
        y_sub = y[idx]
        total_w = w_sub.sum()
        node.value = float(np.dot(w_sub, y_sub) / total_w)

        if depth >= self.max_depth or len(idx) < 2 * self.min_samples_leaf:
            return node_id
        split = self._best_split(X, y, w, idx)
        if split is None:
            return node_id

        feature, threshold = split
        mask = X[idx, feature] <= threshold
        left_idx = idx[mask]
        right_idx = idx[~mask]
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X, y, w, left_idx, depth + 1)
        node.right = self._build(X, y, w, right_idx, depth + 1)
        return node_id

    def _best_split(
        self,
        X: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        idx: np.ndarray,
    ) -> Optional[tuple[int, float]]:
        n_features = X.shape[1]
        if self.max_features is not None:
            k = max(1, int(round(self.max_features * n_features)))
            features = self._rng.choice(n_features, size=k, replace=False)
        else:
            features = np.arange(n_features)

        y_sub = y[idx]
        w_sub = w[idx]
        total_w = w_sub.sum()
        total_wy = np.dot(w_sub, y_sub)
        parent_score = total_wy * total_wy / total_w

        best_gain = self.min_impurity_decrease
        best: Optional[tuple[int, float]] = None
        min_leaf = self.min_samples_leaf

        for feature in features:
            values = X[idx, feature]
            order = np.argsort(values, kind="stable")
            v_sorted = values[order]
            # skip constant features
            if v_sorted[0] == v_sorted[-1]:
                continue
            wy = (w_sub * y_sub)[order]
            ww = w_sub[order]
            cum_wy = np.cumsum(wy)
            cum_w = np.cumsum(ww)
            # candidate split after position i (1-based prefix)
            # valid when the value actually changes and leaves are big enough
            diffs = v_sorted[1:] != v_sorted[:-1]
            positions = np.nonzero(diffs)[0]
            if min_leaf > 1:
                positions = positions[
                    (positions + 1 >= min_leaf)
                    & (len(idx) - positions - 1 >= min_leaf)
                ]
            if len(positions) == 0:
                continue
            left_wy = cum_wy[positions]
            left_w = cum_w[positions]
            right_wy = total_wy - left_wy
            right_w = total_w - left_w
            gains = (
                left_wy * left_wy / left_w
                + right_wy * right_wy / right_w
                - parent_score
            )
            arg = int(np.argmax(gains))
            if gains[arg] > best_gain:
                best_gain = float(gains[arg])
                pos = positions[arg]
                threshold = 0.5 * (v_sorted[pos] + v_sorted[pos + 1])
                best = (int(feature), float(threshold))
        return best

    # ------------------------------------------------------------------

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for rows of ``X`` (vectorized per level)."""
        if not self._nodes:
            raise RuntimeError("tree is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        return _route(self, X)

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def depth(self) -> int:
        """Actual depth of the fitted tree (0 for a stump leaf).

        Computed by an iterative frontier walk over the flat arrays, so
        arbitrarily deep trees cannot hit the Python recursion limit.
        """
        if not self._nodes:
            raise RuntimeError("tree is not fitted")
        assert self._feature is not None
        depth = 0
        frontier = np.zeros(1, dtype=np.int64)
        while True:
            internal = frontier[self._feature[frontier] >= 0]
            if internal.size == 0:
                return depth
            frontier = np.concatenate(
                (self._left[internal], self._right[internal])
            )
            depth += 1


class BinnedRegressionTree:
    """Histogram-based regression tree on pre-binned integer features.

    Works on feature *codes* in ``[0, n_bins)`` (see
    :func:`bin_features`) and grows **level-wise**: one flattened
    ``bincount`` per level accumulates the (node, feature, bin) histograms
    for every frontier node of every tree in the call, and prefix
    sums yield all candidate splits' SSE gains simultaneously.  This is
    the LightGBM-style strategy that makes boosted ensembles fast enough
    for a per-iteration refit inside BAO.
    """

    def __init__(
        self,
        n_bins: int,
        max_depth: int = 5,
        min_samples_leaf: int = 2,
        min_impurity_decrease: float = 1e-12,
    ):
        if n_bins < 2:
            raise ValueError("n_bins must be >= 2")
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.n_bins = n_bins
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_impurity_decrease = min_impurity_decrease
        # flat node arrays (filled by fit)
        self._feature: Optional[np.ndarray] = None
        self._threshold: Optional[np.ndarray] = None
        self._left: Optional[np.ndarray] = None
        self._right: Optional[np.ndarray] = None
        self._value: Optional[np.ndarray] = None

    def fit(
        self,
        codes: np.ndarray,
        y: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
        *,
        rows: Optional[np.ndarray] = None,
        peers: Sequence["BinnedRegressionTree"] = (),
        out: Optional[np.ndarray] = None,
    ) -> "BinnedRegressionTree":
        """Fit on integer feature codes; returns ``self``.

        One call grows several independent trees at once: ``peers`` are
        more unfitted trees with these settings, and the rows split
        evenly, in order, between ``self`` and each peer.  Only ``rows``
        (default: all) enter the histograms, so each tree equals a lone
        fit on its own rows in that order: every (tree, feature, bin)
        sum adds the same values in the same order.  ``out`` receives
        every row's leaf value (the tree's prediction for it).
        """
        codes = np.asarray(codes)
        y = np.asarray(y, dtype=np.float64)
        if codes.ndim != 2 or y.shape != (codes.shape[0],):
            raise ValueError("codes must be (n, d) and y (n,)")
        n, d = codes.shape
        if n == 0:
            raise ValueError("cannot fit on an empty dataset")
        if codes.min(initial=0) < 0 or codes.max(initial=0) >= self.n_bins:
            raise ValueError(f"codes must lie in [0, {self.n_bins})")
        w = sample_weights(sample_weight, y)
        trees = (self, *peers)
        if n % len(trees):
            raise ValueError("rows must split evenly between the trees")
        if rows is None:
            rows = np.arange(n)

        nb = self.n_bins
        dnb = d * nb
        codes = codes.astype(np.int64, copy=False)
        # (feature, bin) column of every training row, and its three
        # statistics (wy, w, count), each block in row-major order
        flat = (codes[rows] + np.arange(0, dnb, nb)).ravel()
        w_r = w[rows]
        stats = np.concatenate((
            np.repeat(w_r * y[rows], d), np.repeat(w_r, d), np.ones(flat.size)
        ))

        # node arrays; a leaf is its own child with an infinite threshold,
        # so routing leaves every row of a finished node where it is
        cap = min(len(trees) * ((1 << (self.max_depth + 1)) - 1),
                  len(trees) + 2 * len(rows))
        feature = np.zeros(cap, dtype=np.int64)
        threshold = np.full(cap, np.inf)
        child = np.arange(cap)  # left child; the right one is child + 1
        value = np.zeros(cap)
        tree_of = np.arange(cap)  # tree k's root is node k
        node = np.arange(n) // (n // len(trees))  # each row at its root
        every_row = np.arange(n)
        lo, hi = 0, len(trees)  # the frontier is nodes [lo, hi)

        for depth in range(self.max_depth + 1):
            n_slots = hi - lo
            # slot 0 is a dump for rows of finished nodes, sliced off
            slot = np.maximum(node[rows] - (lo - 1), 0)
            size = (n_slots + 1) * dnb
            index = np.repeat(slot * dnb, d) + flat
            hist = np.bincount(
                (index + size * np.arange(3)[:, None]).ravel(),
                weights=stats,
                minlength=3 * size,
            ).reshape(3, n_slots + 1, d, nb)[:, 1:]
            total = hist[:, :, 0, :].sum(axis=2)  # (stat, slot)
            value[lo:hi] = total[0] / total[1]
            if depth >= self.max_depth:
                break

            cum = hist.cumsum(axis=3)[..., :-1]
            right = total[:, :, None, None] - cum
            valid = (
                (cum[2] >= self.min_samples_leaf)
                & (right[2] >= self.min_samples_leaf)
                & (cum[1] > 0)
                & (right[1] > 0)
            )
            with np.errstate(divide="ignore", invalid="ignore"):
                gains = (
                    cum[0] * cum[0] / cum[1]
                    + right[0] * right[0] / right[1]
                    - (total[0] * total[0] / total[1])[:, None, None]
                )
            gains = np.where(valid, gains, -np.inf).reshape(n_slots, -1)
            best_pos = gains.argmax(axis=1)
            best_gain = gains[np.arange(n_slots), best_pos]
            split = np.isfinite(best_gain) & (
                best_gain > self.min_impurity_decrease
            )
            parents = np.nonzero(split)[0]
            if parents.size == 0:
                break

            parents += lo
            feature[parents], threshold[parents] = np.divmod(
                best_pos[parents - lo], nb - 1
            )
            child[parents] = hi + 2 * np.arange(parents.size)
            lo, hi = hi, hi + 2 * parents.size
            tree_of[lo:hi] = np.repeat(tree_of[parents], 2)
            # route every row one level down
            node = child[node] + (
                codes[every_row, feature[node]] > threshold[node]
            )

        if out is not None:
            out[:] = value[node]
        # number each tree's nodes in allocation order, as a lone fit would
        local = np.empty(hi, dtype=np.int64)
        for k, tree in enumerate(trees):
            ids = np.nonzero(tree_of[:hi] == k)[0]
            local[ids] = np.arange(ids.size)
            leaf = child[ids] == ids
            tree._feature = np.where(leaf, -1, feature[ids])
            tree._threshold = np.where(leaf, 0.0, threshold[ids])
            tree._left = np.where(leaf, -1, local[child[ids]])
            tree._right = np.where(leaf, -1, tree._left + 1)
            tree._value = value[ids]
        return self

    def predict(self, codes: np.ndarray) -> np.ndarray:
        """Predict for integer feature codes (same binning as fit)."""
        if self._feature is None:
            raise RuntimeError("tree is not fitted")
        codes = np.asarray(codes)
        if codes.ndim != 2:
            raise ValueError("codes must be 2-D")
        return _route(self, codes)

    @property
    def node_count(self) -> int:
        if self._feature is None:
            raise RuntimeError("tree is not fitted")
        return len(self._feature)


@dataclass
class StackedTrees:
    """Flat node arrays of several fitted trees padded into 2-D stacks.

    Row ``t`` holds tree ``t``'s parallel node arrays (padded with leaf
    sentinels), so :func:`predict_stacked` can route *all trees × all
    rows* level-synchronously in a handful of array ops instead of one
    Python-level traversal per tree.  Works for both
    :class:`RegressionTree` and :class:`BinnedRegressionTree` — they
    share the same flat layout.
    """

    feature: np.ndarray  # (n_trees, max_nodes) int64; -1 marks leaves/padding
    threshold: np.ndarray  # (n_trees, max_nodes) float64
    left: np.ndarray  # (n_trees, max_nodes) int64
    right: np.ndarray  # (n_trees, max_nodes) int64
    value: np.ndarray  # (n_trees, max_nodes) float64
    max_depth: int

    @property
    def n_trees(self) -> int:
        return self.feature.shape[0]


def stack_trees(trees) -> StackedTrees:
    """Pad fitted trees' flat node arrays into a :class:`StackedTrees`."""
    if not trees:
        raise ValueError("cannot stack zero trees")
    for tree in trees:
        if tree._feature is None:
            raise RuntimeError("all trees must be fitted before stacking")
    count = len(trees)
    width = max(tree._feature.size for tree in trees)
    feature = np.full((count, width), -1, dtype=np.int64)
    threshold = np.zeros((count, width))
    left = np.zeros((count, width), dtype=np.int64)
    right = np.zeros((count, width), dtype=np.int64)
    value = np.zeros((count, width))
    for t, tree in enumerate(trees):
        size = tree._feature.size
        feature[t, :size] = tree._feature
        threshold[t, :size] = tree._threshold
        left[t, :size] = tree._left
        right[t, :size] = tree._right
        value[t, :size] = tree._value
    depth = max(tree.max_depth for tree in trees)
    return StackedTrees(feature, threshold, left, right, value, depth)


def predict_stacked(stacked: StackedTrees, data: np.ndarray) -> np.ndarray:
    """Per-tree predictions for ``data``, shape ``(n_trees, n_rows)``.

    Routes every (tree, row) pair one level per pass over the stacked
    arrays; each output row is bit-identical to the corresponding
    tree's own :meth:`predict` (same comparisons, same leaf values).
    ``data`` is the tree family's native input: float features for
    :class:`RegressionTree`, integer codes for
    :class:`BinnedRegressionTree`.
    """
    data = np.asarray(data)
    if data.ndim != 2:
        raise ValueError("data must be 2-D")
    n = data.shape[0]
    active = np.zeros((stacked.n_trees, n), dtype=np.int64)
    col = np.arange(n)[None, :]
    for _ in range(stacked.max_depth + 1):
        feats = np.take_along_axis(stacked.feature, active, axis=1)
        internal = feats >= 0
        if not internal.any():
            break
        # feats == -1 wraps to the last column, but those lanes are
        # masked out of the routing update below
        xv = data[col, feats]
        thr = np.take_along_axis(stacked.threshold, active, axis=1)
        go_left = xv <= thr
        nxt = np.where(
            go_left,
            np.take_along_axis(stacked.left, active, axis=1),
            np.take_along_axis(stacked.right, active, axis=1),
        )
        active = np.where(internal, nxt, active)
    return np.take_along_axis(stacked.value, active, axis=1)


def bin_features(
    X: np.ndarray, n_bins: int = 32
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Quantile-bin a float feature matrix into integer codes.

    Returns ``(codes, edges)`` where ``codes[i, f]`` is the bin of
    ``X[i, f]`` and ``edges[f]`` are the f-th feature's inner bin edges
    (usable with :func:`apply_bins` on new data).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    quantiles = np.quantile(X, np.linspace(0, 1, n_bins + 1)[1:-1], axis=0)
    # quantiles rise down each column: dropping repeats leaves the
    # column's unique edges, and a value's code is how many lie below it
    keep = np.ones(quantiles.shape, dtype=bool)
    keep[1:] = quantiles[1:] != quantiles[:-1]
    below = np.where(keep, quantiles, np.inf)[None, :, :] < X[:, None, :]
    edges = [quantiles[keep[:, f], f] for f in range(X.shape[1])]
    return below.sum(axis=1), edges


def apply_bins(X: np.ndarray, edges: list[np.ndarray]) -> np.ndarray:
    """Bin new data with edges produced by :func:`bin_features`."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(edges):
        raise ValueError(f"X must be (n, {len(edges)})")
    codes = np.empty(X.shape, dtype=np.int64)
    for f, edge in enumerate(edges):
        codes[:, f] = np.searchsorted(edge, X[:, f], side="left")
    return codes
