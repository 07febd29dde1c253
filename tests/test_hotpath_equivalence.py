"""Equivalence pins for the vectorized hot paths.

Every optimization in the hot-path PR must be either bit-identical to
the reference implementation it replaced (vectorized tree predict,
boolean-mask kernel bandwidth, ``np.isin`` visited filtering,
``FeatureCache``, certified incremental TED).  These tests check those
contracts over random inputs.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ted as ted_module
from repro.core.bao import BaoOptimizer
from repro.core.bootstrap import BootstrapEnsemble
from repro.core.events import BatchMeasured, BatchProposed, EventLog
from repro.core.ted import rbf_kernel, ted_select
from repro.core.tuners.btedbao import BTEDBAOTuner
from repro.hardware.measure import SimulatedTask
from repro.learning.gbt import GradientBoostedTrees, lockstep_key
from repro.learning.tree import (
    BinnedRegressionTree,
    RegressionTree,
    bin_features,
)
from repro.nn.workloads import DenseWorkload
from repro.nn.zoo import build_model
from repro.pipeline.compiler import DeploymentCompiler
from repro.space.space import FeatureCache
from repro.utils.mathx import pairwise_sq_dists
from tests.oracles import reference_ted_select, reference_tree_predict

PROPERTY = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TASK = SimulatedTask(
    DenseWorkload(batch=1, in_features=64, out_features=48), seed=3
)


class TestTreePredictEquivalence:
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(2, 120),
        d=st.integers(1, 8),
        max_depth=st.integers(1, 9),
        n_test=st.integers(1, 200),
    )
    @PROPERTY
    def test_vectorized_predict_matches_reference(
        self, seed, n, d, max_depth, n_test
    ):
        rng = np.random.default_rng(seed)
        X = rng.random((n, d))
        y = rng.random(n)
        # duplicate feature values exercise ties at split thresholds
        if n > 4:
            X[: n // 2] = np.round(X[: n // 2], 1)
        tree = RegressionTree(max_depth=max_depth, seed=0).fit(X, y)
        X_test = rng.random((n_test, d))
        fast = tree.predict(X_test)
        ref = reference_tree_predict(tree, X_test)
        assert fast.dtype == ref.dtype
        assert np.array_equal(fast, ref)

    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(2, 150),
        max_depth=st.integers(1, 10),
    )
    @PROPERTY
    def test_iterative_depth_matches_recursive_reference(
        self, seed, n, max_depth
    ):
        rng = np.random.default_rng(seed)
        X = rng.random((n, 5))
        y = rng.random(n)
        tree = RegressionTree(max_depth=max_depth, seed=1).fit(X, y)

        def recursive_depth(node_id):
            node = tree._nodes[node_id]
            if node.is_leaf:
                return 0
            return 1 + max(
                recursive_depth(node.left), recursive_depth(node.right)
            )

        assert tree.depth == recursive_depth(0)
        assert tree.depth <= max_depth


def _adversarial_features(seed, n, d, duplicate, rounded, constant):
    """Random features with the structures that make TED scores tie."""
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    if rounded:
        X = np.round(X, 1)
    if constant:
        X[:, 0] = 0.5
    if duplicate and n > 1:
        k = max(1, n // 3)
        X[k:] = X[rng.integers(0, k, size=n - k)]
    return X


def _fallback_spy(monkeypatch):
    """Count calls of the exact fallback of the certified TED loop."""
    calls = []
    replay = ted_module._replay

    def spy(K, picks, mu):
        calls.append(len(picks))
        replay(K, picks, mu)

    monkeypatch.setattr(ted_module, "_replay", spy)
    return calls


class TestTedCertifiedEquivalence:
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 200),
        d=st.integers(1, 8),
        m_frac=st.floats(0.0, 1.0),
        log_mu=st.floats(-8.0, 1.0),
        duplicate=st.booleans(),
        rounded=st.booleans(),
        constant=st.booleans(),
    )
    @settings(PROPERTY, max_examples=60)
    def test_matches_exact_oracle(
        self, seed, n, d, m_frac, log_mu, duplicate, rounded, constant
    ):
        X = _adversarial_features(seed, n, d, duplicate, rounded, constant)
        m = max(1, round(m_frac * n))
        mu = 10.0 ** log_mu
        assert ted_select(X, m, mu=mu) == reference_ted_select(X, m, mu=mu)

    def test_duplicated_rows_take_the_fallback(self, monkeypatch):
        calls = _fallback_spy(monkeypatch)
        X = _adversarial_features(4, 90, 3, True, True, False)
        picks = ted_select(X, m=40, mu=1e-3)
        assert calls, "exact ties must fail the certificate"
        assert picks == reference_ted_select(X, m=40, mu=1e-3)

    def test_mobilenet_batch_takes_no_fallback(self, monkeypatch):
        compiler = DeploymentCompiler(build_model("mobilenet-v1"))
        space = compiler.simulated_task(compiler.tasks[2]).space
        X = space.feature_matrix(space.sample(500, seed=0))
        calls = _fallback_spy(monkeypatch)
        assert ted_select(X, m=64) == reference_ted_select(X, m=64)
        assert calls == []


class TestKernelBandwidthEquivalence:
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 60))
    @PROPERTY
    def test_median_bandwidth_matches_triu_reference(self, seed, n):
        rng = np.random.default_rng(seed)
        X = rng.random((n, 3))
        # reference: the out-of-place distance and kernel expressions
        # and the triu_indices median heuristic they replaced
        norms = np.sum(X * X, axis=1)
        sq = np.maximum(
            norms[:, None] + norms[None, :] - 2.0 * (X @ X.T), 0.0
        )
        assert np.array_equal(pairwise_sq_dists(X, X), sq)
        iu = np.triu_indices(n, k=1)
        positive = sq[iu][sq[iu] > 0]
        if positive.size == 0:
            return
        bandwidth = float(np.sqrt(np.median(positive)))
        reference = np.exp(-sq / (2.0 * bandwidth * bandwidth))
        assert np.array_equal(rbf_kernel(X), reference)
        assert np.array_equal(rbf_kernel(X, bandwidth=bandwidth), reference)


class TestFeatureCache:
    @given(
        seed=st.integers(0, 10**6),
        n_batches=st.integers(1, 6),
        capacity=st.integers(1, 16),
    )
    @PROPERTY
    def test_matches_stacked_features_of(self, seed, n_batches, capacity):
        rng = np.random.default_rng(seed)
        cache = FeatureCache(TASK.space, capacity=capacity)
        all_indices = []
        for _ in range(n_batches):
            batch = rng.integers(0, len(TASK.space), size=rng.integers(1, 9))
            cache.extend([int(i) for i in batch])
            all_indices.extend(int(i) for i in batch)
        expected = np.stack([TASK.space.features_of(i) for i in all_indices])
        assert np.array_equal(cache.matrix, expected)
        assert cache.indices == all_indices

    def test_view_is_read_only_and_stable_across_growth(self):
        cache = FeatureCache(TASK.space, capacity=2)
        cache.extend([0, 1])
        view = cache.matrix
        with pytest.raises(ValueError):
            view[0, 0] = 99.0
        frozen = view.copy()
        cache.extend(list(range(2, 40)))  # forces buffer reallocation
        assert np.array_equal(cache.matrix[:2], frozen)
        assert len(cache.matrix) == 40

    def test_append_single(self):
        cache = FeatureCache(TASK.space, capacity=1)
        cache.append(5)
        cache.append(9)
        assert cache.indices == [5, 9]
        assert np.array_equal(cache.matrix[1], TASK.space.features_of(9))


class TestVisitedFiltering:
    @given(
        seed=st.integers(0, 10**6),
        n_candidates=st.integers(1, 60),
        n_visited=st.integers(0, 60),
    )
    @PROPERTY
    def test_ndarray_filter_matches_set_filter(
        self, seed, n_candidates, n_visited
    ):
        rng = np.random.default_rng(seed)
        candidates = rng.integers(0, 100, size=n_candidates)
        visited = sorted(set(rng.integers(0, 100, size=n_visited).tolist()))
        via_array = BaoOptimizer._filter_visited(
            candidates, np.asarray(visited, dtype=np.int64)
        )
        via_set = BaoOptimizer._filter_visited(candidates, set(visited))
        assert np.array_equal(via_array, via_set)

    def test_propose_accepts_sorted_array_visited(self):
        rng = np.random.default_rng(4)
        bao = BaoOptimizer(TASK.space, seed=8)
        measured = list(range(12))
        X = np.stack([TASK.space.features_of(i) for i in measured])
        y = rng.random(len(measured))
        visited_arr = np.asarray(measured, dtype=np.int64)
        pick_arr = bao.propose(X, y, best_index=3, visited=visited_arr)
        bao_set = BaoOptimizer(TASK.space, seed=8)
        pick_set = bao_set.propose(X, y, best_index=3, visited=set(measured))
        assert pick_arr == pick_set


class TestPhaseTimingEvents:
    def test_tuner_stamps_proposal_and_measure_walltime(self):
        log = EventLog()
        tuner = BTEDBAOTuner(
            TASK, seed=2, init_size=4, batch_candidates=16, num_batches=2
        )
        tuner.tune(n_trial=6, early_stopping=None, on_event=[log])
        proposed = log.of_type(BatchProposed)
        measured = log.of_type(BatchMeasured)
        assert proposed and measured
        assert all(e.proposal_s > 0.0 for e in proposed)
        assert all(e.measure_s > 0.0 for e in measured)


class TestEnsembleAccelerationFlags:
    def _data(self, n=40, d=6, seed=0):
        rng = np.random.default_rng(seed)
        return rng.random((n, d)), rng.random(n)

    def test_share_bin_edges_smoke(self):
        X, y = self._data()
        ensemble = BootstrapEnsemble(gamma=2, seed=1, share_bin_edges=True)
        ensemble.fit(X, y)
        scores = ensemble.predict_sum(X)
        assert scores.shape == (len(y),)
        assert np.all(np.isfinite(scores))
        # every member binned against the same shared edges
        edges = [m._edges for m in ensemble._models]
        assert all(e is edges[0] for e in edges)


# ----------------------------------------------------------------------
# reference implementations the lockstep grower and binning replaced


def reference_binned_fit(tree, codes, y, w):
    """The single-tree level-wise histogram fit, as it was before the
    multi-root grower; returns (feature, threshold, left, right, value).
    """
    n, d = codes.shape
    nb = tree.n_bins
    codes = codes.astype(np.int64, copy=False)
    flat = codes + (np.arange(d, dtype=np.int64) * nb)[None, :]
    wy = w * y
    feature, threshold, left, right, value = [-1], [0.0], [-1], [-1], [0.0]
    node_of_row = np.zeros(n, dtype=np.int64)
    frontier = [0]
    for depth in range(tree.max_depth + 1):
        if not frontier:
            break
        n_slots = len(frontier)
        slot_map = np.full(len(feature), -1, dtype=np.int64)
        slot_map[np.asarray(frontier)] = np.arange(n_slots)
        slot_of_row = slot_map[node_of_row]
        rows = np.nonzero(slot_of_row >= 0)[0]
        if len(rows) == 0:
            break
        slot_r = slot_of_row[rows]
        cflat = (slot_r[:, None] * (d * nb) + flat[rows]).ravel()
        size = n_slots * d * nb
        hist_wy = np.bincount(
            cflat, weights=np.repeat(wy[rows], d), minlength=size
        ).reshape(n_slots, d, nb)
        hist_w = np.bincount(
            cflat, weights=np.repeat(w[rows], d), minlength=size
        ).reshape(n_slots, d, nb)
        hist_n = np.bincount(cflat, minlength=size).reshape(n_slots, d, nb)
        total_wy = hist_wy[:, 0, :].sum(axis=1)
        total_w = hist_w[:, 0, :].sum(axis=1)
        total_n = hist_n[:, 0, :].sum(axis=1)
        for s, node_id in enumerate(frontier):
            value[node_id] = float(total_wy[s] / total_w[s])
        if depth >= tree.max_depth:
            break
        cum_wy = hist_wy.cumsum(axis=2)[:, :, :-1]
        cum_w = hist_w.cumsum(axis=2)[:, :, :-1]
        cum_n = hist_n.cumsum(axis=2)[:, :, :-1]
        right_wy = total_wy[:, None, None] - cum_wy
        right_w = total_w[:, None, None] - cum_w
        right_n = total_n[:, None, None] - cum_n
        valid = (
            (cum_n >= tree.min_samples_leaf)
            & (right_n >= tree.min_samples_leaf)
            & (cum_w > 0)
            & (right_w > 0)
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            gains = (
                cum_wy * cum_wy / cum_w
                + right_wy * right_wy / right_w
                - (total_wy * total_wy / total_w)[:, None, None]
            )
        flat_gains = np.where(valid, gains, -np.inf).reshape(n_slots, -1)
        best_pos = np.argmax(flat_gains, axis=1)
        best_gain = flat_gains[np.arange(n_slots), best_pos]
        split_mask = np.isfinite(best_gain) & (
            best_gain > tree.min_impurity_decrease
        )
        if not split_mask.any():
            break
        slot_feature = np.full(n_slots, -1, dtype=np.int64)
        slot_threshold = np.zeros(n_slots)
        slot_left = np.full(n_slots, -1, dtype=np.int64)
        slot_right = np.full(n_slots, -1, dtype=np.int64)
        new_frontier = []
        for s, node_id in enumerate(frontier):
            if not split_mask[s]:
                continue
            f, t = divmod(int(best_pos[s]), nb - 1)
            left_id = len(feature)
            feature.extend([-1, -1])
            threshold.extend([0.0, 0.0])
            left.extend([-1, -1])
            right.extend([-1, -1])
            value.extend([value[node_id], value[node_id]])
            feature[node_id], threshold[node_id] = f, float(t)
            left[node_id], right[node_id] = left_id, left_id + 1
            slot_feature[s], slot_threshold[s] = f, t
            slot_left[s], slot_right[s] = left_id, left_id + 1
            new_frontier.extend([left_id, left_id + 1])
        routed = split_mask[slot_r]
        r_rows, r_slots = rows[routed], slot_r[routed]
        go_left = (
            codes[r_rows, slot_feature[r_slots]] <= slot_threshold[r_slots]
        )
        node_of_row[r_rows] = np.where(
            go_left, slot_left[r_slots], slot_right[r_slots]
        )
        frontier = new_frontier
    return (
        np.asarray(feature, dtype=np.int64),
        np.asarray(threshold),
        np.asarray(left, dtype=np.int64),
        np.asarray(right, dtype=np.int64),
        np.asarray(value),
    )


def reference_bin_features(X, n_bins):
    """Per-column quantile binning, as it was before vectorizing."""
    edges, codes = [], np.empty(X.shape, dtype=np.int64)
    quantiles = np.linspace(0, 1, n_bins + 1)[1:-1]
    for f in range(X.shape[1]):
        edge = np.unique(np.quantile(X[:, f], quantiles))
        edges.append(edge)
        codes[:, f] = np.searchsorted(edge, X[:, f], side="left")
    return codes, edges


def reference_gbt_fit(model, X, y, w):
    """Boost ``model`` (hist, no early stopping) round by round with the
    reference tree fit and a separate predict, as GBT.fit used to."""
    codes, edges = bin_features(X, n_bins=model.n_bins)
    model._edges = edges
    model._base = float(np.dot(w, y) / w.sum())
    model._trees = []
    pred = np.full(len(y), model._base)
    for _ in range(model.n_estimators):
        residual = y - pred
        rows = model._round_rows(len(y))
        tree = model._new_tree()
        (tree._feature, tree._threshold, tree._left, tree._right,
         tree._value) = reference_binned_fit(
            tree, codes[rows], residual[rows], w[rows]
        )
        model._trees.append(tree)
        pred += model.learning_rate * tree.predict(codes)
    model._fitted = True
    return model


def _codes(rng, n, d, n_bins):
    """Bin codes with ties, a constant column and a few used bins."""
    codes = rng.integers(0, n_bins, size=(n, d))
    if d > 1:
        codes[:, -1] = rng.integers(0, n_bins)  # constant column
    if d > 2:
        codes[:, 1] = rng.integers(0, min(3, n_bins), size=n)
    return codes


class TestLockstepGrowerEquivalence:
    @given(
        seed=st.integers(0, 10**6),
        k=st.integers(1, 4),
        n=st.integers(1, 60),
        d=st.integers(1, 6),
        n_bins=st.integers(2, 16),
        max_depth=st.integers(1, 6),
        min_leaf=st.integers(1, 5),
        subsample=st.booleans(),
        weighted=st.booleans(),
    )
    @PROPERTY
    def test_grower_matches_single_tree_reference(
        self, seed, k, n, d, n_bins, max_depth, min_leaf, subsample,
        weighted,
    ):
        rng = np.random.default_rng(seed)
        codes = _codes(rng, k * n, d, n_bins)
        y = rng.normal(size=k * n)
        w = rng.uniform(0.1, 3.0, size=k * n) if weighted else None
        if subsample:
            size = max(1, n - n // 3)
            rows = np.concatenate(
                [rng.choice(n, size=size, replace=False) + t * n
                 for t in range(k)]
            )
        else:
            rows = np.arange(k * n)
        trees = [
            BinnedRegressionTree(
                n_bins=n_bins, max_depth=max_depth, min_samples_leaf=min_leaf
            )
            for _ in range(k)
        ]
        out = np.empty(k * n)
        trees[0].fit(codes, y, w, rows=rows, peers=trees[1:], out=out)
        weight = np.ones(k * n) if w is None else w
        for t, tree in enumerate(trees):
            mine = rows[(rows >= t * n) & (rows < (t + 1) * n)]
            ref = reference_binned_fit(
                tree, codes[mine], y[mine], weight[mine]
            )
            got = (tree._feature, tree._threshold, tree._left, tree._right,
                   tree._value)
            for a, b in zip(got, ref):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)
            block = slice(t * n, (t + 1) * n)
            assert np.array_equal(out[block], tree.predict(codes[block]))

    def test_peers_must_split_rows_evenly(self):
        trees = [BinnedRegressionTree(n_bins=4) for _ in range(2)]
        with pytest.raises(ValueError, match="evenly"):
            trees[0].fit(np.zeros((5, 2), int), np.ones(5), peers=trees[1:])

    @given(seed=st.integers(0, 10**6), n=st.integers(1, 80))
    @PROPERTY
    def test_gbt_fit_matches_round_by_round_reference(self, seed, n):
        rng = np.random.default_rng(seed)
        X = np.round(rng.normal(size=(n, 4)), 1)
        y = rng.normal(size=n)
        w = rng.uniform(0.5, 2.0, size=n)
        settings_ = dict(n_estimators=6, subsample=0.8, max_depth=3)
        fast = GradientBoostedTrees(seed=seed, **settings_).fit(
            X, y, sample_weight=w
        )
        ref = reference_gbt_fit(
            GradientBoostedTrees(seed=seed, **settings_), X, y, w
        )
        assert np.array_equal(fast.predict(X), ref.predict(X))
        assert fast._rng.bit_generator.state == ref._rng.bit_generator.state


class TestBinFeaturesEquivalence:
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 150),
        d=st.integers(1, 12),
        n_bins=st.integers(2, 40),
        decimals=st.integers(0, 3),
    )
    @PROPERTY
    def test_vectorized_matches_per_column(self, seed, n, d, n_bins,
                                           decimals):
        rng = np.random.default_rng(seed)
        X = np.round(rng.normal(size=(n, d)), decimals)
        X[:, 0] = 0.5  # constant column
        codes, edges = bin_features(X, n_bins=n_bins)
        ref_codes, ref_edges = reference_bin_features(X, n_bins)
        assert codes.dtype == ref_codes.dtype
        assert np.array_equal(codes, ref_codes)
        assert len(edges) == len(ref_edges)
        assert all(np.array_equal(a, b) for a, b in zip(edges, ref_edges))


def _member_by_member(ensemble_seed, gamma, factory, X, y, w):
    """Fit an ensemble's members one after another, as fit used to."""
    rng = np.random.default_rng(ensemble_seed)
    make = factory(rng)
    n = len(y)
    models = []
    for _ in range(gamma):
        rows = rng.integers(0, n, size=n)
        model = make()
        if w is None:
            model.fit(X[rows], y[rows])
        else:
            model.fit(X[rows], y[rows], sample_weight=w[rows])
        models.append(model)
    total = np.zeros(n)
    for model in models:
        total += model.predict(X)
    return total, rng.bit_generator.state


def _default_members(rng):
    return lambda: GradientBoostedTrees(
        n_estimators=24, learning_rate=0.28, max_depth=4, subsample=0.9,
        seed=rng,
    )


class TestLockstepEnsembleEquivalence:
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 90),
        gamma=st.integers(1, 4),
        weighted=st.booleans(),
    )
    @PROPERTY
    def test_fit_matches_member_by_member(self, seed, n, gamma, weighted):
        rng = np.random.default_rng(seed)
        X = np.round(rng.normal(size=(n, 5)), 1)
        y = rng.normal(size=n)
        w = rng.uniform(0.2, 1.0, size=n) if weighted else None
        ensemble = BootstrapEnsemble(
            gamma=gamma, seed=np.random.default_rng(seed + 1)
        )
        ensemble.fit(X, y, sample_weight=w)
        ref_sum, ref_state = _member_by_member(
            seed + 1, gamma, _default_members, X, y, w
        )
        assert np.array_equal(ensemble.predict_sum(X), ref_sum)
        assert ensemble._rng.bit_generator.state == ref_state

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(early_stopping_rounds=3),
            dict(method="exact", max_features=0.5),
            dict(method="exact"),
        ],
    )
    def test_other_members_fit_one_at_a_time(self, kwargs, monkeypatch):
        def factory(rng):
            return lambda: GradientBoostedTrees(
                n_estimators=8, subsample=0.8, seed=rng, **kwargs
            )

        assert lockstep_key(factory(None)()) is None

        def no_lockstep(plans):
            raise AssertionError("fit_lockstep must not run")

        monkeypatch.setattr("repro.core.bootstrap.fit_lockstep", no_lockstep)
        rng = np.random.default_rng(5)
        X, y = rng.normal(size=(40, 4)), rng.normal(size=40)
        ens_rng = np.random.default_rng(9)
        ensemble = BootstrapEnsemble(
            gamma=3, seed=ens_rng, model_factory=factory(ens_rng)
        ).fit(X, y)
        ref_sum, ref_state = _member_by_member(9, 3, factory, X, y, None)
        assert np.array_equal(ensemble.predict_sum(X), ref_sum)
        assert ens_rng.bit_generator.state == ref_state

    def test_mixed_members_keep_the_serial_draw_order(self):
        def factory(rng):
            count = iter(range(10))
            return lambda: GradientBoostedTrees(
                n_estimators=5, subsample=0.7, seed=rng,
                method="exact" if next(count) == 1 else "hist",
            )

        rng = np.random.default_rng(2)
        X, y = rng.normal(size=(30, 3)), rng.normal(size=30)
        ens_rng = np.random.default_rng(3)
        ensemble = BootstrapEnsemble(
            gamma=3, seed=ens_rng, model_factory=factory(ens_rng)
        ).fit(X, y)
        ref_sum, ref_state = _member_by_member(3, 3, factory, X, y, None)
        assert np.array_equal(ensemble.predict_sum(X), ref_sum)
        assert ens_rng.bit_generator.state == ref_state
