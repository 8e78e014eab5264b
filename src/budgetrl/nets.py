"""Minimal feedforward networks with explicit backpropagation.

Exactly the pieces this pipeline needs: ReLU hidden layers, an identity or
softmax output head, Huber and cross-entropy losses, plain SGD with an
optional adaptive-moment update. No autodiff graph.

Model file layout (``mlp-v1``, text/JSON):
    {"format": "mlp-v1", "layer_sizes": [in, h1, ..., out],
     "params": [flat float list: W1 row-major, b1, W2, b2, ...]}

``Mlp.params`` holds the parameters in memory in exactly this ``params``
order, as one contiguous buffer; the per-layer weights and biases are views
into it. A gradient is one float64 vector in the same layout (dW1 row-major,
db1, dW2, db2, ...), so an optimizer step is one elementwise update.
"""

from __future__ import annotations

import numpy as np

MODEL_FORMAT = "mlp-v1"


class ShapeError(ValueError):
    pass


class TrainingDivergedError(RuntimeError):
    """Raised when a gradient or parameter turns non-finite."""


def huber(delta, kappa: float):
    """Piecewise quadratic/linear loss: 0.5*d^2 for |d| <= kappa, else kappa*(|d| - 0.5*kappa)."""
    if kappa <= 0:
        raise ValueError("kappa must be > 0")
    d = np.asarray(delta, dtype=float)
    a = np.abs(d)
    out = np.where(a <= kappa, 0.5 * d * d, kappa * (a - 0.5 * kappa))
    return float(out) if np.isscalar(delta) else out


def huber_grad(delta, kappa: float):
    """d huber / d delta: the residual clipped to [-kappa, kappa]."""
    if kappa <= 0:
        raise ValueError("kappa must be > 0")
    return np.clip(delta, -kappa, kappa)


def softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    e /= e.sum(axis=-1, keepdims=True)
    return e


class Mlp:
    """Fully connected net: ReLU on hidden layers, identity output.

    Every parameter lives in one contiguous float64 vector ``params``, in the
    ``mlp-v1`` order (W1 row-major, b1, W2, b2, ...). ``weights`` and
    ``biases`` are tuples of views into it: weight matrices have shape
    (fan_out, fan_in), and writing into a view updates ``params``.
    ``forward`` accepts a single vector or a (batch, fan_in) matrix.
    """

    def __init__(self, layer_sizes, rng: np.random.Generator | None = None):
        if len(layer_sizes) < 2:
            raise ShapeError("need at least input and output layers")
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        sizes = zip(self.layer_sizes[1:], self.layer_sizes)
        self.params = np.zeros(sum(fan_out * (fan_in + 1) for fan_out, fan_in in sizes))
        self.weights, self.biases = self._views(self.params)
        if rng is not None:
            for w in self.weights:
                bound = 1.0 / np.sqrt(w.shape[1])
                w[...] = rng.uniform(-bound, bound, size=w.shape)

    def _views(self, flat: np.ndarray) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """Per-layer weight (fan_out, fan_in) and bias views into ``flat``, a vector
        laid out like ``params``."""
        weights, biases = [], []
        idx = 0
        for fan_out, fan_in in zip(self.layer_sizes[1:], self.layer_sizes):
            weights.append(flat[idx:idx + fan_out * fan_in].reshape(fan_out, fan_in))
            idx += fan_out * fan_in
            biases.append(flat[idx:idx + fan_out])
            idx += fan_out
        return tuple(weights), tuple(biases)

    @property
    def input_size(self) -> int:
        return self.layer_sizes[0]

    def forward(self, x) -> np.ndarray:
        """Deterministic forward pass; returns the identity-head output."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        a = x[None, :] if single else x
        if a.shape[-1] != self.input_size:
            raise ShapeError(f"input width {a.shape[-1]} != {self.input_size}")
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = a @ w.T
            a += b
            if i < last:
                np.maximum(a, 0.0, out=a)
        return a[0] if single else a

    def _forward_cached(self, x: np.ndarray):
        """Forward pass keeping pre-activations for backprop."""
        pre = []
        a = x
        acts = [a]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w.T + b
            pre.append(z)
            a = np.maximum(z, 0.0) if i < len(self.weights) - 1 else z
            acts.append(a)
        return pre, acts

    def _backward(self, pre, acts, grad_out: np.ndarray) -> np.ndarray:
        """Gradient of the batch loss as one vector laid out like ``params``."""
        grad = np.empty_like(self.params)
        gw, gb = self._views(grad)
        g = grad_out
        for layer in range(len(self.weights) - 1, -1, -1):
            np.matmul(g.T, acts[layer], out=gw[layer])
            g.sum(axis=0, out=gb[layer])
            if layer > 0:
                g = (g @ self.weights[layer]) * (pre[layer - 1] > 0.0)
        return grad

    # -- flat parameter vector (serialization, finite differences) ---------

    def get_params(self) -> np.ndarray:
        return self.params.copy()

    def set_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=float)
        if flat.shape != self.params.shape:
            raise ShapeError(f"parameter vector shape {flat.shape}, expected {self.params.shape}")
        np.copyto(self.params, flat)

    def copy(self) -> "Mlp":
        dup = Mlp(self.layer_sizes)
        dup.set_params(self.params)
        return dup

    def to_dict(self) -> dict:
        return {
            "format": MODEL_FORMAT,
            "layer_sizes": list(self.layer_sizes),
            "params": self.params.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Mlp":
        if payload.get("format") != MODEL_FORMAT:
            raise ValueError(f"unsupported model format {payload.get('format')!r}")
        net = cls(payload["layer_sizes"])
        net.set_params(np.asarray(payload["params"], dtype=float))
        return net


class Optimizer:
    """SGD by default; ``kind='adam'`` enables adaptive moments.

    One elementwise update over the net's flat ``params`` per step.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, net: Mlp, lr: float, kind: str = "sgd"):
        if kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {kind!r}")
        self.net = net
        self.lr = lr
        self.kind = kind
        self.t = 0
        if kind == "adam":
            self._m = np.zeros_like(net.params)
            self._v = np.zeros_like(net.params)

    def apply(self, g: np.ndarray) -> None:
        """Step ``net.params`` along the gradient ``g``, a vector laid out like them."""
        if not np.isfinite(g).all():
            raise TrainingDivergedError("non-finite gradient")
        self.t += 1
        p = self.net.params
        if self.kind == "sgd":
            p -= self.lr * g
            return
        # the per-layer update's expressions in its order: results stay bit-identical
        b1t = 1.0 - self.BETA1 ** self.t
        b2t = 1.0 - self.BETA2 ** self.t
        self._m = self.BETA1 * self._m + (1 - self.BETA1) * g
        self._v = self.BETA2 * self._v + (1 - self.BETA2) * g * g
        p -= self.lr * (self._m / b1t) / (np.sqrt(self._v / b2t) + self.EPS)


def batch_loss_and_grad(net: Mlp, inputs: np.ndarray, targets: np.ndarray, loss: str,
                        kappa: float = 1.0, unit_indices: np.ndarray | None = None):
    """Mean batch loss and its gradient, one vector laid out like ``net.params``.

    loss='huber': ``targets`` are scalars regressed by output unit
    ``unit_indices[i]`` (default unit 0).
    loss='cross_entropy': ``targets`` are integer class labels for a softmax
    over the output layer.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    n = inputs.shape[0]
    if n == 0:
        raise ValueError("empty minibatch")
    pre, acts = net._forward_cached(inputs)
    out = acts[-1]

    if loss == "huber":
        targets = np.asarray(targets, dtype=float).reshape(n)
        if unit_indices is None:
            unit_indices = np.zeros(n, dtype=int)
        unit_indices = np.asarray(unit_indices, dtype=int)
        delta = out[np.arange(n), unit_indices] - targets
        value = float(np.mean(huber(delta, kappa)))
        grad_out = np.zeros_like(out)
        grad_out[np.arange(n), unit_indices] = huber_grad(delta, kappa) / n
    elif loss == "cross_entropy":
        labels = np.asarray(targets, dtype=int).reshape(n)
        probs = softmax(out)
        value = float(np.mean(-np.log(np.clip(probs[np.arange(n), labels], 1e-12, None))))
        grad_out = probs
        grad_out[np.arange(n), labels] -= 1.0
        grad_out /= n
    else:
        raise ValueError(f"unknown loss {loss!r}")

    return value, net._backward(pre, acts, grad_out)


def train_step(optimizer: Optimizer, inputs, targets, loss: str, kappa: float = 1.0,
               unit_indices=None) -> float:
    """One update of ``optimizer.net`` on a mini-batch; returns the batch loss."""
    value, grad = batch_loss_and_grad(optimizer.net, inputs, targets, loss, kappa, unit_indices)
    if not np.isfinite(value):
        raise TrainingDivergedError(f"non-finite loss {value}")
    optimizer.apply(grad)
    return value
