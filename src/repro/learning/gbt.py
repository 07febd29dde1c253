"""Gradient-boosted regression trees — the XGBoost stand-in.

Squared-error boosting with shrinkage, row subsampling, and optional
early stopping on a validation split.  This is the evaluation-function
family used by AutoTVM's cost model [15] and by all three experimental
arms of the paper (the framework is agnostic to the evaluation
function; see Sec. IV).

Two tree back-ends are available:

* ``method="hist"`` (default) — quantile-binned histogram trees
  (:class:`~repro.learning.tree.BinnedRegressionTree`), fast enough for
  BAO's per-iteration ensemble refits;
* ``method="exact"`` — exact greedy CART
  (:class:`~repro.learning.tree.RegressionTree`), the reference
  implementation (supports ``max_features`` column subsampling).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.learning.tree import (
    BinnedRegressionTree,
    RegressionTree,
    apply_bins,
    bin_features,
    predict_stacked,
    sample_weights,
    stack_trees,
)
from repro.obs.hooks import notify_refit_reuse, refit_reuse_hooks_active
from repro.utils.rng import SeedLike, as_generator

_Tree = Union[RegressionTree, BinnedRegressionTree]


def _fit_inputs(
    X: np.ndarray, y: np.ndarray, sample_weight: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checked float ``(X, y, weight)`` for a boosted fit."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError("X must be (n, d) and y (n,)")
    if X.shape[0] == 0:
        raise ValueError("cannot fit on an empty dataset")
    return X, y, sample_weights(sample_weight, y)


class GradientBoostedTrees:
    """Additive tree ensemble fit by gradient boosting on squared loss."""

    def __init__(
        self,
        n_estimators: int = 60,
        learning_rate: float = 0.2,
        max_depth: int = 5,
        min_samples_leaf: int = 2,
        subsample: float = 0.9,
        max_features: Optional[float] = None,
        early_stopping_rounds: Optional[int] = None,
        validation_fraction: float = 0.15,
        method: str = "hist",
        n_bins: int = 16,
        seed: SeedLike = None,
        bin_edges: Optional[list] = None,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        if not 0.0 < validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in (0, 1)")
        if method not in ("hist", "exact"):
            raise ValueError("method must be 'hist' or 'exact'")
        if method == "hist" and max_features is not None:
            raise ValueError("max_features requires method='exact'")
        if bin_edges is not None and method != "hist":
            raise ValueError("bin_edges requires method='hist'")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.max_features = max_features
        self.early_stopping_rounds = early_stopping_rounds
        self.validation_fraction = validation_fraction
        self.method = method
        self.n_bins = n_bins
        #: optional precomputed quantile bin edges (from
        #: :func:`~repro.learning.tree.bin_features`); lets a bootstrap
        #: ensemble bin the shared design matrix once instead of
        #: re-deriving quantiles per member fit
        self.bin_edges = bin_edges
        self._rng = as_generator(seed)
        self._trees: List[_Tree] = []
        self._edges: Optional[list[np.ndarray]] = None
        self._base: float = 0.0
        self._fitted = False
        self._stack = None  # lazy StackedTrees cache for vectorized predict

    def __getstate__(self):
        # the stacked-predict cache is derivable; keep checkpoints lean
        state = self.__dict__.copy()
        state["_stack"] = None
        return state

    # ------------------------------------------------------------------

    def _new_tree(self) -> _Tree:
        if self.method == "hist":
            return BinnedRegressionTree(
                n_bins=self.n_bins,
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
            )
        return RegressionTree(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            seed=self._rng,
        )

    def _round_rows(self, n: int) -> np.ndarray:
        """One boosting round's subsample of ``n`` training rows."""
        if self.subsample < 1.0 and n > 4:
            n_sub = max(2, int(round(self.subsample * n)))
            return self._rng.choice(n, size=n_sub, replace=False)
        return np.arange(n)

    def _bin(self, X: np.ndarray) -> np.ndarray:
        """The trees' input for ``X``: bin codes (``"hist"``) or ``X``."""
        if self.method != "hist":
            self._edges = None
            return X
        if self.bin_edges is not None:
            self._edges = self.bin_edges
            return apply_bins(X, self._edges)
        codes, self._edges = bin_features(X, n_bins=self.n_bins)
        return codes

    def lockstep_plan(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "LockstepPlan":
        """Check and bin the data and draw every round's subsample now.

        The draws are exactly those a lone :meth:`fit` would make, in
        the same order, so planning several models one after another
        leaves a shared generator where fitting them in turn would.
        Only for models with a :func:`lockstep_key`.
        """
        X, y, weight = _fit_inputs(X, y, sample_weight)
        codes = self._bin(X)
        rows = np.stack(
            [self._round_rows(len(y)) for _ in range(self.n_estimators)]
        )
        return LockstepPlan(self, codes, y, weight, rows)

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "GradientBoostedTrees":
        """Fit the ensemble; returns ``self``."""
        if lockstep_key(self) is not None:
            fit_lockstep([self.lockstep_plan(X, y, sample_weight)])
            return self
        X, y, weight = _fit_inputs(X, y, sample_weight)
        n = X.shape[0]
        data = self._bin(X)
        train, val = np.arange(n), None
        if self.early_stopping_rounds is not None and n >= 20:
            perm = self._rng.permutation(n)
            n_val = max(1, int(round(self.validation_fraction * n)))
            train = perm[n_val:]
            val = (data[perm[:n_val]], y[perm[:n_val]])
        yt, wt = y[train], weight[train]
        self._base = float(np.dot(wt, yt) / wt.sum())
        self._trees = []
        pred = np.full(len(yt), self._base)
        self._boost(data[train], yt, wt, pred, self.n_estimators, val)
        self._fitted = True
        self._stack = None
        return self

    def _boost(
        self,
        data: np.ndarray,
        y: np.ndarray,
        weight: np.ndarray,
        pred: np.ndarray,
        rounds: int,
        val: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        """Grow ``rounds`` trees one at a time on the residual of ``pred``
        (updated in place), stopping early on a ``val`` split if given."""
        if val is not None:
            pred_v = np.full(len(val[1]), self._base)
            best_val, best_len, rounds_since_best = np.inf, 0, 0
        for _ in range(rounds):
            residual = y - pred
            rows = self._round_rows(len(y))
            tree = self._new_tree()
            tree.fit(data[rows], residual[rows], sample_weight=weight[rows])
            self._trees.append(tree)
            pred += self.learning_rate * tree.predict(data)
            if val is None:
                continue
            pred_v += self.learning_rate * tree.predict(val[0])
            val_err = float(np.mean((val[1] - pred_v) ** 2))
            if val_err < best_val - 1e-12:
                best_val, best_len = val_err, len(self._trees)
                rounds_since_best = 0
            else:
                rounds_since_best += 1
                if rounds_since_best >= self.early_stopping_rounds:
                    self._trees = self._trees[:best_len]
                    break

    def fit_more(
        self,
        X: np.ndarray,
        y: np.ndarray,
        n_rounds: int,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "GradientBoostedTrees":
        """Warm start: grow ``n_rounds`` extra boosting rounds on (X, y).

        Existing trees, the base prediction, and (for ``method="hist"``)
        the bin edges frozen at the original :meth:`fit` are all kept;
        only the new rounds are fit, against the residual of the current
        ensemble on the given data.  Validation early stopping does not
        apply to the incremental rounds.  Returns ``self``.
        """
        if not self._fitted:
            raise RuntimeError("fit_more requires a fitted model")
        if n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        X, y, weight = _fit_inputs(X, y, sample_weight)
        n = X.shape[0]

        if self.method == "hist":
            assert self._edges is not None
            data: np.ndarray = apply_bins(X, self._edges)
        else:
            data = X

        reused = len(self._trees)
        self._boost(data, y, weight, self._accumulate(data, n), n_rounds)
        self._stack = None
        if refit_reuse_hooks_active():
            notify_refit_reuse(reused)
        return self

    def _accumulate(self, data: np.ndarray, n: int) -> np.ndarray:
        """Sum tree predictions over native ``data`` (codes or floats).

        Uses the stacked vectorized forest predict when there is more
        than one tree, accumulating per-tree outputs serially in fit
        order so the result is bit-identical to the per-tree loop.
        """
        out = np.full(n, self._base)
        if len(self._trees) > 1:
            stack = self.__dict__.get("_stack")
            if stack is None or stack.n_trees != len(self._trees):
                stack = stack_trees(self._trees)
                self._stack = stack
            preds = predict_stacked(stack, data)
            for t in range(preds.shape[0]):
                out += self.learning_rate * preds[t]
        else:
            for tree in self._trees:
                out += self.learning_rate * tree.predict(data)
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for rows of ``X``."""
        if not self._fitted:
            raise RuntimeError("model is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if self._edges is not None:
            data: np.ndarray = apply_bins(X, self._edges)
        else:
            data = X
        return self._accumulate(data, X.shape[0])

    def predict_binned(self, codes: np.ndarray) -> np.ndarray:
        """Predict from pre-binned integer codes (``method="hist"`` only).

        Lets an ensemble whose members share one set of bin edges apply
        the binning once for the whole candidate scope instead of once
        per member.
        """
        if not self._fitted:
            raise RuntimeError("model is not fitted")
        if self._edges is None:
            raise RuntimeError("predict_binned requires method='hist'")
        codes = np.asarray(codes)
        if codes.ndim != 2:
            raise ValueError("codes must be 2-D")
        return self._accumulate(codes, codes.shape[0])

    @property
    def n_trees(self) -> int:
        return len(self._trees)


class LockstepPlan(NamedTuple):
    """One model's boosting inputs, ready for :func:`fit_lockstep`."""

    model: GradientBoostedTrees
    codes: np.ndarray  # (n, d) bin codes
    y: np.ndarray
    weight: np.ndarray
    rows: np.ndarray  # (n_estimators, n_sub) subsample rows per round


def lockstep_key(model: object) -> Optional[tuple]:
    """Settings that models boosted in lockstep must share, else ``None``.

    Only histogram GBTs without early stopping qualify: exact trees draw
    RNG per node, and early stopping draws a data-dependent number.
    """
    if (
        not isinstance(model, GradientBoostedTrees)
        or model.method != "hist"
        or model.early_stopping_rounds is not None
    ):
        return None
    return (
        model.n_estimators,
        model.learning_rate,
        model.max_depth,
        model.min_samples_leaf,
        model.n_bins,
    )


def fit_lockstep(plans: Sequence[LockstepPlan]) -> None:
    """Boost every planned model at once, bit-identical to one at a time.

    All plans share a :func:`lockstep_key` and a row count.  Each round
    makes one :meth:`BinnedRegressionTree.fit` call that grows every
    model's next tree on its own rows and routes all rows, so the
    residual update needs no separate predict.
    """
    lead = plans[0].model
    n = len(plans[0].y)
    codes = np.concatenate([plan.codes for plan in plans])
    y = np.concatenate([plan.y for plan in plans])
    weight = np.concatenate([plan.weight for plan in plans])
    rows = np.concatenate(
        [plan.rows + k * n for k, plan in enumerate(plans)], axis=1
    )
    for model, _, y_m, w_m, _ in plans:
        model._base = float(np.dot(w_m, y_m) / w_m.sum())
        model._trees = []
    pred = np.repeat([plan.model._base for plan in plans], n)
    leaf = np.empty(len(y))
    for round_rows in rows:
        trees = [plan.model._new_tree() for plan in plans]
        trees[0].fit(
            codes, y - pred, weight, rows=round_rows, peers=trees[1:], out=leaf
        )
        pred += lead.learning_rate * leaf
        for plan, tree in zip(plans, trees):
            plan.model._trees.append(tree)
    for plan in plans:
        plan.model._fitted = True
        plan.model._stack = None
