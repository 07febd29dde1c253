"""A small MLP regressor (numpy-only) as an alternative evaluation function.

The paper stresses that the advanced framework "is independent of the
specific forms of evaluation functions" (Sec. IV) and anticipates
integration with "deep learning algorithms" (Sec. V-B).  This module
provides that integration point: :class:`MlpRegressor` implements the
same ``fit`` / ``predict`` contract as
:class:`~repro.learning.gbt.GradientBoostedTrees` and can be passed to
:class:`~repro.core.bootstrap.BootstrapEnsemble` via ``model_factory``.

Architecture: input standardization -> ``hidden_layers`` of ReLU
affine blocks -> linear head, trained with Adam on mini-batch MSE.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.learning.tree import sample_weights
from repro.utils.rng import SeedLike, as_generator


class MlpRegressor:
    """Multi-layer perceptron regressor trained with Adam on MSE."""

    def __init__(
        self,
        hidden_layers: Sequence[int] = (64, 32),
        epochs: int = 120,
        batch_size: int = 64,
        learning_rate: float = 1e-2,
        weight_decay: float = 1e-5,
        seed: SeedLike = None,
    ):
        if not hidden_layers:
            raise ValueError("need at least one hidden layer")
        if any(h <= 0 for h in hidden_layers):
            raise ValueError("hidden layer widths must be positive")
        if epochs <= 0 or batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.hidden_layers = tuple(hidden_layers)
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self._rng = as_generator(seed)
        self._weights: List[np.ndarray] = []
        self._biases: List[np.ndarray] = []
        self._x_mean: Optional[np.ndarray] = None
        self._x_std: Optional[np.ndarray] = None
        self._y_mean = 0.0
        self._y_std = 1.0

    # ------------------------------------------------------------------

    def _init_params(self, d_in: int) -> None:
        sizes = [d_in, *self.hidden_layers, 1]
        self._weights = []
        self._biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self._weights.append(
                self._rng.normal(0.0, scale, size=(fan_in, fan_out))
            )
            self._biases.append(np.zeros(fan_out))

    def _forward(
        self, X: np.ndarray
    ) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Return (output, per-layer post-activations incl. input)."""
        activations = [X]
        h = X
        last = len(self._weights) - 1
        for i, (W, b) in enumerate(zip(self._weights, self._biases)):
            h = h @ W + b
            if i != last:
                h = np.maximum(h, 0.0)
            activations.append(h)
        return h[:, 0], activations

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "MlpRegressor":
        """Fit on (X, y); returns ``self``."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise ValueError("X must be (n, d) and y (n,)")
        n, d = X.shape
        if n == 0:
            raise ValueError("cannot fit on an empty dataset")
        w = sample_weights(sample_weight, y)
        w = w / w.mean()

        self._x_mean = X.mean(axis=0)
        self._x_std = X.std(axis=0)
        self._x_std[self._x_std < 1e-12] = 1.0
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        Xn = (X - self._x_mean) / self._x_std
        yn = (y - self._y_mean) / self._y_std

        self._init_params(d)
        m = [np.zeros_like(W) for W in self._weights]
        v = [np.zeros_like(W) for W in self._weights]
        mb = [np.zeros_like(b) for b in self._biases]
        vb = [np.zeros_like(b) for b in self._biases]
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0

        for _ in range(self.epochs):
            order = self._rng.permutation(n)
            for start in range(0, n, self.batch_size):
                rows = order[start:start + self.batch_size]
                xb, yb, wb = Xn[rows], yn[rows], w[rows]
                pred, acts = self._forward(xb)
                # weighted MSE gradient w.r.t. the output
                grad_out = (2.0 / len(rows)) * wb * (pred - yb)
                grad = grad_out[:, None]
                step += 1
                grads_w: List[np.ndarray] = [None] * len(self._weights)  # type: ignore
                grads_b: List[np.ndarray] = [None] * len(self._biases)  # type: ignore
                for i in range(len(self._weights) - 1, -1, -1):
                    a_prev = acts[i]
                    grads_w[i] = a_prev.T @ grad + (
                        self.weight_decay * self._weights[i]
                    )
                    grads_b[i] = grad.sum(axis=0)
                    if i > 0:
                        grad = grad @ self._weights[i].T
                        grad = grad * (acts[i] > 0)
                for i in range(len(self._weights)):
                    m[i] = beta1 * m[i] + (1 - beta1) * grads_w[i]
                    v[i] = beta2 * v[i] + (1 - beta2) * grads_w[i] ** 2
                    mb[i] = beta1 * mb[i] + (1 - beta1) * grads_b[i]
                    vb[i] = beta2 * vb[i] + (1 - beta2) * grads_b[i] ** 2
                    m_hat = m[i] / (1 - beta1**step)
                    v_hat = v[i] / (1 - beta2**step)
                    mb_hat = mb[i] / (1 - beta1**step)
                    vb_hat = vb[i] / (1 - beta2**step)
                    self._weights[i] -= self.learning_rate * m_hat / (
                        np.sqrt(v_hat) + eps
                    )
                    self._biases[i] -= self.learning_rate * mb_hat / (
                        np.sqrt(vb_hat) + eps
                    )
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for rows of ``X``."""
        if self._x_mean is None:
            raise RuntimeError("model is not fitted")
        X = np.asarray(X, dtype=np.float64)
        Xn = (X - self._x_mean) / self._x_std
        pred, _ = self._forward(Xn)
        return pred * self._y_std + self._y_mean
