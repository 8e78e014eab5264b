"""Allocating reference of the training path, one new array per operation.

This is the straightforward form of the step that ``budgetrl.nets`` runs on
preallocated buffers: forward pass, Huber and cross-entropy losses, backward
pass into one flat gradient, the SGD/Adam update, and the per-step minibatch
loops of ``bcq.fit_classifier`` and ``bcq.bcq_train`` (one index draw and one
gather per step). The tests hold the package to these bits.

The reference owns its allocating Huber loss, ``huber`` and ``huber_grad``:
the package computes the same expressions in place inside
``StepWorkspace._huber`` and has no standalone loss function to borrow.
"""

import numpy as np

from budgetrl.bcq import BcqAgent, _logged_action_agreement, transition_arrays, xi_eligible
from budgetrl.core import claim_masks
from budgetrl.nets import Mlp, TrainingDivergedError, softmax


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


def forward(net, x):
    """Output layer of ``net`` on the rows of ``x``."""
    a = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = a @ w.T
        a += b
        if i < last:
            np.maximum(a, 0.0, out=a)
    return a


def forward_cached(net, x):
    """Forward pass keeping every pre-activation and activation for backprop."""
    pre = []
    a = x
    acts = [a]
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w.T + b
        pre.append(z)
        a = np.maximum(z, 0.0) if i < len(net.weights) - 1 else z
        acts.append(a)
    return pre, acts


def backward(net, pre, acts, grad_out):
    """Gradient of the batch loss as one vector laid out like ``net.params``."""
    grad = np.empty_like(net.params)
    gw, gb = net._views(grad)
    g = grad_out
    for layer in range(len(net.weights) - 1, -1, -1):
        np.matmul(g.T, acts[layer], out=gw[layer])
        g.sum(axis=0, out=gb[layer])
        if layer > 0:
            g = (g @ net.weights[layer]) * (pre[layer - 1] > 0.0)
    return grad


def loss_and_grad(net, inputs, targets, loss, kappa=1.0, unit_indices=None):
    """Mean batch loss and its flat gradient."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    n = inputs.shape[0]
    pre, acts = forward_cached(net, inputs)
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
    else:
        labels = np.asarray(targets, dtype=int).reshape(n)
        probs = softmax(out)
        value = float(np.mean(-np.log(np.clip(probs[np.arange(n), labels], 1e-12, None))))
        grad_out = probs
        grad_out[np.arange(n), labels] -= 1.0
        grad_out /= n
    return value, backward(net, pre, acts, grad_out)


class Optimizer:
    """SGD or Adam over the flat ``params``, with new moment arrays every step."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, net, lr, kind="sgd"):
        self.net, self.lr, self.kind, self.t = net, lr, kind, 0
        if kind == "adam":
            self._m = np.zeros_like(net.params)
            self._v = np.zeros_like(net.params)

    def apply(self, g):
        if not np.isfinite(g).all():
            raise TrainingDivergedError("non-finite gradient")
        self.t += 1
        p = self.net.params
        if self.kind == "sgd":
            p -= self.lr * g
            return
        b1t = 1.0 - self.BETA1 ** self.t
        b2t = 1.0 - self.BETA2 ** self.t
        self._m = self.BETA1 * self._m + (1 - self.BETA1) * g
        self._v = self.BETA2 * self._v + (1 - self.BETA2) * g * g
        p -= self.lr * (self._m / b1t) / (np.sqrt(self._v / b2t) + self.EPS)


def train_step(optimizer, inputs, targets, loss, kappa=1.0, unit_indices=None):
    value, grad = loss_and_grad(optimizer.net, inputs, targets, loss, kappa, unit_indices)
    if not np.isfinite(value):
        raise TrainingDivergedError(f"non-finite loss {value}")
    optimizer.apply(grad)
    return value


def fit_classifier(x, labels, n_classes, hyper, entropy):
    """``bcq.fit_classifier`` with one index draw and one gather per step."""
    root = np.random.SeedSequence(entropy)
    init_rng, batch_rng = (np.random.default_rng(s) for s in root.spawn(2))
    net = Mlp([x.shape[1], *hyper.hidden_sizes, n_classes], rng=init_rng)
    opt = Optimizer(net, hyper.learning_rate, hyper.optimizer)
    n = x.shape[0]
    for _ in range(hyper.training_steps):
        idx = batch_rng.integers(0, n, size=min(hyper.batch_size, n))
        train_step(opt, x[idx], labels[idx], "cross_entropy")
    return net


def bcq_train(dataset, actions, hyper):
    """``bcq.bcq_train`` one step at a time: the target forward, bootstrap and
    gather of each step on that step's own draw, next-state inputs copied out
    beside the states, and the probe's eligibility recomputed at every log point
    from this module's whole-matrix ``forward``, as the bootstrap's is.
    Returns (q_net, behavior_model, training_log)."""
    data = transition_arrays(dataset)
    behavior_model = fit_classifier(data.x, data.action, actions.size, hyper, hyper.seed)
    x, a, r, done = data.x, data.action, data.reward, data.done
    n = x.shape[0]
    # Each live row's next state copied into its own arrays; zero on terminal rows.
    live = np.flatnonzero(~done)
    x_next = np.zeros_like(x)
    x_next[live] = x[live + 1]
    next_claims = np.zeros_like(data.claims)
    next_claims[live] = data.claims[live + 1]

    root = np.random.SeedSequence((hyper.seed, 1))
    init_rng, batch_rng = (np.random.default_rng(s) for s in root.spawn(2))
    q_net = Mlp([x.shape[1], *hyper.hidden_sizes, actions.size], rng=init_rng)
    target_net = q_net.copy()
    opt = Optimizer(q_net, hyper.learning_rate, hyper.optimizer)

    next_eligible = xi_eligible(softmax(forward(behavior_model, x_next)),
                                claim_masks(actions, next_claims), hyper.xi)
    log_every = max(1, hyper.training_steps // 50)
    probe = slice(0, min(256, n))
    agent = BcqAgent(q_net=q_net, behavior_model=behavior_model, hyper=hyper, actions=actions)
    log = []
    for step in range(hyper.training_steps):
        idx = batch_rng.integers(0, n, size=min(hyper.batch_size, n))
        q_next = forward(target_net, x_next[idx])
        boot = np.where(next_eligible[idx], q_next, -np.inf).max(axis=1)
        boot[done[idx]] = 0.0
        targets = r[idx] + hyper.gamma * boot
        loss = train_step(opt, x[idx], targets, "huber", kappa=hyper.kappa, unit_indices=a[idx])
        if (step + 1) % hyper.target_sync_interval == 0:
            target_net.set_params(q_net.params)
        if (step + 1) % log_every == 0 or step + 1 == hyper.training_steps:
            probe_eligible = xi_eligible(softmax(forward(behavior_model, x[probe])),
                                         claim_masks(actions, data.claims[probe]), hyper.xi)
            agreement = _logged_action_agreement(agent, x[probe], a[probe], probe_eligible,
                                                 data.claims[probe])
            log.append({"step": step + 1, "loss": float(loss), "behavior_agreement": agreement})
    return q_net, behavior_model, log

