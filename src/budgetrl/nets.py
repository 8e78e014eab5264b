"""Minimal feedforward networks with explicit backpropagation.

Exactly the pieces this pipeline needs: ReLU hidden layers, an identity or
softmax output head, Huber and cross-entropy losses inside the training
step, plain SGD with an optional adaptive-moment update. No autodiff graph.

Model file layout (``mlp-v1``, text/JSON):
    {"format": "mlp-v1", "layer_sizes": [in, h1, ..., out],
     "params": [flat float list: W1 row-major, b1, W2, b2, ...]}

``Mlp.params`` holds the parameters in memory in exactly this ``params``
order, as one contiguous buffer; the per-layer weights and biases are views
into it. A gradient is one float64 vector in the same layout (dW1 row-major,
db1, dW2, db2, ...), so an optimizer step is one elementwise update.

A training step works on reused arrays. ``StepWorkspace`` holds the arrays
one step of a net shape on a fixed number of rows needs: each layer's output
(hidden layers ReLU'd in place), the backward temporaries and ReLU masks, the
output gradient, the flat gradient (per-layer views from ``Mlp._views``) and
the loss's per-row vectors. The forward pass, the Huber and cross-entropy
losses and the backward pass fill them with ``out=`` and in-place ufuncs;
the only array a step makes is the loss's gather index, one integer per row.
``train_step`` runs on a workspace its optimizer owns, and
``Optimizer.apply`` updates ``params`` (and Adam's moments) in place through
two preallocated scratch vectors. Both run the floating-point operations of
the straightforward allocating expressions, in their order, so trained
parameters are bit-identical to them.

Inference on a large matrix runs in row blocks. ``Mlp.forward`` splits a
matrix of 2B rows or more (B = ``_FORWARD_BLOCK``, 512) into blocks of B
rows, the last one taking the remainder, and runs each block's layers into
hidden buffers reused across blocks and into its rows of one output array. The
hidden activations held at once are then under 2B rows a layer whatever the
batch: under 512 KiB a 64-wide layer, 1.05 MB for two, where a whole
100 000-row pass holds 102 MB. No block is smaller than B, so the output keeps
the bits of the whole-matrix product. With OpenBLAS 0.3.31 (Haswell kernels,
2 CPUs), blocks of 1 to 100 rows gave other bits than the whole matrix's rows,
and every block of 101 to 12 000 rows gave the same: each size was probed
once, at its own row offset, on 12-64-64-12, 12-32-12 and 12-128-128-12 nets.

Inference on one row (a 1-D input) is the per-decision case: a policy decides
one state at a time. ``Mlp.forward`` runs it as a short loop over transposed
weight views made once with the net, and ``softmax`` reduces it with the bare
ufunc reductions. Each makes the calls of the matrix path in its order, so a
row's outputs are those of its (1, n) matrix, bit for bit.
"""

from __future__ import annotations

import sys

import numpy as np

from . import core

MODEL_FORMAT = "mlp-v1"

# Rows per block of ``Mlp.forward`` on a large matrix (see there), and per
# chunk of the xi filter over a log (``bcq._eligible``).
_FORWARD_BLOCK = 512


class ShapeError(ValueError):
    pass


class TrainingDivergedError(RuntimeError):
    """Raised when a gradient or parameter turns non-finite."""


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis. A 1-D ``z`` reduces to scalars, which numpy
    broadcasts with less overhead than a kept (1,) axis, and reduces with the
    ufuncs that the ``max`` and ``sum`` methods call, without the methods'
    argument handling; the values are the same."""
    if z.ndim == 1:
        e = np.exp(z - np.maximum.reduce(z))
        e /= np.add.reduce(e)
        return e
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    e /= e.sum(axis=-1, keepdims=True)
    return e


class Mlp:
    """Fully connected net: ReLU on hidden layers, identity output.

    Every parameter lives in one contiguous float64 vector ``params``, in the
    ``mlp-v1`` order (W1 row-major, b1, W2, b2, ...). ``weights`` and
    ``biases`` are tuples of views into it: weight matrices have shape
    (fan_out, fan_in), and writing into a view updates ``params``.
    ``forward`` accepts a single vector or a (batch, fan_in) matrix; a vector
    runs over the layers' transposed (fan_in, fan_out) weight views, made once
    here beside the weights.
    """

    def __init__(self, layer_sizes, rng: np.random.Generator | None = None):
        if len(layer_sizes) < 2:
            raise ShapeError("need at least input and output layers")
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        sizes = zip(self.layer_sizes[1:], self.layer_sizes)
        self.params = np.zeros(sum(fan_out * (fan_in + 1) for fan_out, fan_in in sizes))
        self.weights, self.biases = self._views(self.params)
        *self._hidden_rows, self._output_row = zip((w.T for w in self.weights), self.biases)
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
        """Deterministic forward pass; returns the identity-head output. A 1-D
        input goes through as a vector over the transposed weight views made
        with the net: each layer's product is the BLAS call its (1, fan_in) row
        would make, then the bias is added and the ReLU applied in place, with
        less numpy and Python overhead per layer than the matrix path.

        A matrix of 2B rows or more (B = ``_FORWARD_BLOCK``, 512) runs in blocks
        of B rows, the remainder joined to the last block, so every block holds
        B to 2B - 1 rows; a hidden layer then holds under 2B rows (under 8 KiB
        a unit, 512 KiB at width 64) however many rows ``x`` has. No block is
        smaller than B because a product of 100 rows or fewer can differ in its
        bits from the whole-matrix one (see the module docstring); the output
        is the whole-matrix pass's, bit for bit. Smaller matrices run whole."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.input_size:
            raise ShapeError(f"input width {x.shape[-1]} != {self.input_size}")
        if x.ndim == 1:
            for w_t, b in self._hidden_rows:
                x = x @ w_t
                x += b
                np.maximum(x, 0.0, out=x)
            w_t, b = self._output_row
            x = x @ w_t
            x += b
            return x
        n = len(x) if x.ndim == 2 else 0
        if n < 2 * _FORWARD_BLOCK:
            return self._forward(x)
        starts = range(0, n - _FORWARD_BLOCK + 1, _FORWARD_BLOCK)
        hidden = [np.empty((n - starts[-1], s)) for s in self.layer_sizes[1:-1]]
        out = np.empty((n, self.layer_sizes[-1]))
        for lo, hi in zip(starts, [*starts[1:], n]):
            self._forward(x[lo:hi], [h[:hi - lo] for h in hidden] + [out[lo:hi]])
        return out

    def _forward(self, a: np.ndarray, outs=None) -> np.ndarray:
        """The layers on ``a``, a matrix of rows: layer i writes into ``outs[i]``
        (into new arrays without ``outs``), ReLU applied in place on hidden
        layers. Returns the output layer."""
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = np.matmul(a, w.T, out=None if outs is None else outs[i])
            a += b
            if i < last:
                np.maximum(a, 0.0, out=a)
        return a

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
        """The net of an ``mlp-v1`` JSON object. Its ``layer_sizes`` must be two
        or more positive ints whose parameter count, in Python ints, is the
        length of its ``params`` list, each param a finite JSON int or float
        (not a string, bool, NaN or infinity); all are checked before the net
        is made, so a file cannot make it allocate more than its own ``params``
        hold."""
        core.checked_object(payload, "model")
        if payload.get("format") != MODEL_FORMAT:
            raise ValueError(f"unsupported model format {payload.get('format')!r}")
        sizes = payload["layer_sizes"]
        if not (type(sizes) is list and len(sizes) >= 2
                and all(type(s) is int and s > 0 for s in sizes)):
            raise ValueError(f"model layer_sizes must be a list of two or more positive ints, "
                             f"not {sizes!r}")
        params = core.checked_list(payload["params"], "model params")
        count = sum(fan_out * (fan_in + 1) for fan_out, fan_in in zip(sizes[1:], sizes))
        if count != len(params):
            raise ValueError(f"model params hold {len(params)} values, but layer_sizes "
                             f"{sizes} need {count}")
        for i, p in enumerate(params):  # bool is not int here, and NaN fails the bound
            if not (type(p) in (int, float) and abs(p) <= sys.float_info.max):
                raise ValueError(f"model params[{i}] is {p!r}, not a finite number")
        net = cls(sizes)
        net.set_params(np.asarray(params, dtype=float))
        return net


class StepWorkspace:
    """The arrays of one forward/backward pass of ``net`` on ``rows`` rows.

    ``forward`` and ``loss_and_grad`` overwrite them on every call; ``grad``
    holds the last gradient, laid out like ``net.params``.
    """

    def __init__(self, net: Mlp, rows: int):
        sizes = net.layer_sizes
        self.net, self.rows = net, rows
        self.outs = tuple(np.empty((rows, s)) for s in sizes[1:])
        self.back = tuple(np.empty((rows, s)) for s in sizes[1:-1])
        self.masks = tuple(np.empty((rows, s), dtype=bool) for s in sizes[1:-1])
        self.grad_out = np.empty((rows, sizes[-1]))
        self.grad = np.empty_like(net.params)
        self.grad_w, self.grad_b = net._views(self.grad)
        self.row_ids = np.arange(rows)
        self.vecs = tuple(np.empty(rows) for _ in range(4))
        self.vec_mask = np.empty(rows, dtype=bool)
        self.row_col = np.empty((rows, 1))

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """The net's output layer on ``inputs``, a (rows, fan_in) matrix."""
        return self.net._forward(inputs, self.outs)

    def loss_and_grad(self, inputs: np.ndarray, targets, loss: str, kappa: float,
                      unit_indices) -> float:
        """Mean batch loss; its gradient is left in ``grad``."""
        if loss not in ("huber", "cross_entropy"):
            raise ValueError(f"unknown loss {loss!r}")
        out = self.forward(inputs)
        if loss == "huber":
            value = self._huber(out, targets, kappa, unit_indices)
        else:
            value = self._cross_entropy(out, targets)
        self._backward(inputs)
        return value

    def _select(self, units) -> np.ndarray:
        """Flat indices of output unit ``units[i]`` of each row i; a unit outside
        the output layer raises ``ValueError``."""
        return np.ravel_multi_index((self.row_ids, np.asarray(units, dtype=int)),
                                    self.grad_out.shape)

    def _huber(self, out, targets, kappa, unit_indices) -> float:
        """Mean Huber loss of ``d = out[i, unit_i] - targets[i]``; ``grad_out`` gets its
        gradient, ``clip(d, -kappa, kappa) / n`` on the selected units, 0 elsewhere."""
        n = self.rows
        targets = np.asarray(targets, dtype=float).reshape(n)
        idx = self._select(0 if unit_indices is None else unit_indices)
        delta, mag, quad, lin = self.vecs
        out.take(idx, out=delta, mode="clip")  # idx is in range; "raise" would buffer
        delta -= targets
        # where(|d| <= kappa, 0.5 * d * d, kappa * (|d| - 0.5 * kappa))
        np.abs(delta, out=mag)
        np.multiply(0.5, delta, out=quad)
        quad *= delta
        np.subtract(mag, 0.5 * kappa, out=lin)
        lin *= kappa
        np.copyto(lin, quad, where=np.less_equal(mag, kappa, out=self.vec_mask))
        value = np.add.reduce(lin) / n
        # clip(d, -kappa, kappa)
        np.minimum(np.maximum(delta, -kappa, out=quad), kappa, out=quad)
        quad /= n
        self.grad_out.fill(0.0)
        self.grad_out.put(idx, quad)
        return float(value)

    def _cross_entropy(self, out, labels) -> float:
        """Mean ``-log(softmax(out)[i, label_i])`` (probabilities clipped at 1e-12);
        fills ``grad_out`` with its gradient ``(softmax - onehot) / n``."""
        n = self.rows
        idx = self._select(np.asarray(labels, dtype=int).reshape(n))
        probs, row = self.grad_out, self.row_col
        # softmax(): exp(z - max z) / sum, per row
        np.maximum.reduce(out, axis=1, keepdims=True, out=row)
        np.subtract(out, row, out=probs)
        np.exp(probs, out=probs)
        np.add.reduce(probs, axis=1, keepdims=True, out=row)
        probs /= row
        picked, nll = self.vecs[:2]
        probs.take(idx, out=picked, mode="clip")
        np.maximum(picked, 1e-12, out=nll)  # clip(p, 1e-12, None)
        np.log(nll, out=nll)
        np.negative(nll, out=nll)
        value = np.add.reduce(nll) / n
        picked -= 1.0
        probs.put(idx, picked)
        probs /= n
        return float(value)

    def _backward(self, inputs: np.ndarray) -> None:
        """Backpropagate ``grad_out`` into ``grad``."""
        g = self.grad_out
        weights = self.net.weights
        for layer in range(len(weights) - 1, -1, -1):
            below = self.outs[layer - 1] if layer else inputs
            np.matmul(g.T, below, out=self.grad_w[layer])
            np.add.reduce(g, axis=0, out=self.grad_b[layer])
            if layer:
                # a ReLU output is > 0 exactly where its pre-activation is
                mask = np.greater(below, 0.0, out=self.masks[layer - 1])
                g = np.matmul(g, weights[layer], out=self.back[layer - 1])
                g *= mask


class Optimizer:
    """SGD by default; ``kind='adam'`` enables adaptive moments.

    One in-place elementwise update over the net's flat ``params`` per step.
    The optimizer also owns the step workspace ``train_step`` uses.
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
        self._scratch = (np.empty_like(net.params), np.empty_like(net.params))
        self._finite = np.empty(net.params.shape, dtype=bool)
        self._workspace: StepWorkspace | None = None

    def workspace(self, rows: int) -> StepWorkspace:
        """The step workspace for ``rows`` rows, kept while the batch size stays."""
        if self._workspace is None or self._workspace.rows != rows:
            self._workspace = StepWorkspace(self.net, rows)
        return self._workspace

    def apply(self, g: np.ndarray) -> None:
        """Step ``net.params`` along the gradient ``g``, a vector laid out like them."""
        if not np.logical_and.reduce(np.isfinite(g, out=self._finite)):
            raise TrainingDivergedError("non-finite gradient")
        self.t += 1
        p = self.net.params
        s, u = self._scratch
        if self.kind == "sgd":
            p -= np.multiply(self.lr, g, out=s)
            return
        # in place, in the order of
        #   m = BETA1 * m + (1 - BETA1) * g
        #   v = BETA2 * v + (1 - BETA2) * g * g
        #   p -= lr * (m / b1t) / (sqrt(v / b2t) + EPS)
        b1t = 1.0 - self.BETA1 ** self.t
        b2t = 1.0 - self.BETA2 ** self.t
        m, v = self._m, self._v
        m *= self.BETA1
        m += np.multiply(1 - self.BETA1, g, out=s)
        v *= self.BETA2
        np.multiply(1 - self.BETA2, g, out=s)
        s *= g
        v += s
        np.divide(m, b1t, out=s)
        np.multiply(self.lr, s, out=s)
        np.divide(v, b2t, out=u)
        np.sqrt(u, out=u)
        u += self.EPS
        s /= u
        p -= s


def train_step(optimizer: Optimizer, inputs, targets, loss: str, kappa: float = 1.0,
               unit_indices=None) -> float:
    """One update of ``optimizer.net`` on a mini-batch; returns the batch loss. 'huber'
    regresses ``targets[i]`` by output unit ``unit_indices[i]`` (default 0);
    'cross_entropy' takes ``targets`` as class labels of a softmax over the outputs."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    if inputs.shape[0] == 0:
        raise ValueError("empty minibatch")
    workspace = optimizer.workspace(inputs.shape[0])
    value = workspace.loss_and_grad(inputs, targets, loss, kappa, unit_indices)
    if not np.isfinite(value):
        raise TrainingDivergedError(f"non-finite loss {value}")
    optimizer.apply(workspace.grad)
    return value
