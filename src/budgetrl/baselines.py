"""Comparison policies: supervised one-step reward model, expert table, and
trivial reference policies.

The reward model predicts next-day login from (state, action) and is used two
ways: greedily (pick the action with the best predicted retention) and as the
value matrix fed to the budget allocator. Both ignore long-run effects by
construction, which is the point of comparing them against the Q-learner.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (ActionSet, HyperParams, StateVector, Trajectory, argmax_cheapest,
                   day_mask_indices, flatten)
from .nets import Mlp, Optimizer, load_json, save_json, softmax, train_step
from .bcq import input_size, state_to_input

REWARD_MODEL_FORMAT = "reward-model-v1"


@dataclass
class RewardModel:
    """P(login | state, action) classifier; input is state features + one-hot action."""

    net: Mlp
    actions: ActionSet

    def predict(self, state: StateVector, action_index: int) -> float:
        x = _pair_input(state, action_index, self.actions.size)
        return float(softmax(self.net.forward(x))[1])

    def predict_row(self, state: StateVector) -> np.ndarray:
        """Retention probability per claim-eligible action; NaN elsewhere."""
        mask = day_mask_indices(self.actions, state.bonuses_collected)
        base = state_to_input(state)
        x = np.tile(base, (len(mask), 1))
        onehot = np.zeros((len(mask), self.actions.size))
        onehot[np.arange(len(mask)), mask] = 1.0
        probs = softmax(self.net.forward(np.concatenate([x, onehot], axis=1)))[:, 1]
        row = np.full(self.actions.size, np.nan)
        row[mask] = probs
        return row

    def to_dict(self) -> dict:
        return {"format": REWARD_MODEL_FORMAT, "net": self.net.to_dict(),
                "actions": self.actions.to_dict()}

    @classmethod
    def from_dict(cls, payload: dict) -> "RewardModel":
        if payload.get("format") != REWARD_MODEL_FORMAT:
            raise ValueError(f"unsupported reward model format {payload.get('format')!r}")
        return cls(net=Mlp.from_dict(payload["net"]),
                   actions=ActionSet.from_dict(payload["actions"]))

    def save(self, path: str | Path) -> None:
        save_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str | Path) -> "RewardModel":
        return cls.from_dict(load_json(path))


def _pair_input(state: StateVector, action_index: int, n_actions: int) -> np.ndarray:
    onehot = np.zeros(n_actions)
    onehot[action_index] = 1.0
    return np.concatenate([state_to_input(state), onehot])


def train_reward_model(dataset: Sequence[Trajectory], actions: ActionSet,
                       hyper: HyperParams) -> RewardModel:
    """Cross-entropy fit of login-vs-not on logged (state, action) pairs."""
    transitions = flatten(dataset)
    if not transitions:
        raise ValueError("empty dataset")
    d = len(transitions[0].state.features)
    x = np.stack([_pair_input(tr.state, tr.action_index, actions.size) for tr in transitions])
    y = np.array([tr.reward for tr in transitions], dtype=int)

    root = np.random.SeedSequence((hyper.seed, 2))
    init_rng, batch_rng = (np.random.default_rng(s) for s in root.spawn(2))
    net = Mlp([input_size(d) + actions.size, *hyper.hidden_sizes, 2], rng=init_rng)
    opt = Optimizer(net, hyper.learning_rate, hyper.optimizer)
    n = x.shape[0]
    for _ in range(hyper.training_steps):
        idx = batch_rng.integers(0, n, size=min(hyper.batch_size, n))
        train_step(net, x[idx], y[idx], "cross_entropy", hyper.learning_rate, optimizer=opt)
    return RewardModel(net=net, actions=actions)


def greedy_policy(model: RewardModel, state: StateVector) -> int:
    """Best predicted immediate retention within the claim mask; cheaper on ties."""
    row = model.predict_row(state)
    scores = np.where(np.isfinite(row), row, -np.inf)
    return int(argmax_cheapest(scores, np.asarray(model.actions.all_cents)))


def reward_model_q_matrix(model: RewardModel, states: Sequence[StateVector]) -> np.ndarray:
    """Stacked retention-probability rows, allocator-ready (NaN = ineligible)."""
    return np.stack([model.predict_row(s) for s in states])


# ---------------------------------------------------------------------------
# Reference policies


@dataclass(frozen=True)
class ExpertPolicy:
    """Hand-built (segment proxy, claim) lookup table within the claim mask."""

    table: tuple[tuple[int, ...], ...]
    n_segments: int
    actions: ActionSet

    def __post_init__(self):
        for row in self.table:
            for claim, a in enumerate(row):
                if a not in day_mask_indices(self.actions, claim, len(row)):
                    raise ValueError(f"expert table entry {a} violates the claim-{claim + 1} mask")

    def action(self, state: StateVector) -> int:
        proxy = int(np.argmax(state.to_array()[:self.n_segments]))
        return self.table[proxy % len(self.table)][state.bonuses_collected]

    def q_row(self, state: StateVector):
        return None


class CheapestPolicy:
    """Always the cheapest claim-eligible bonus."""

    def __init__(self, actions: ActionSet):
        self.actions = actions

    def action(self, state: StateVector) -> int:
        return int(day_mask_indices(self.actions, state.bonuses_collected)[0])

    def q_row(self, state: StateVector):
        return None


class UniformRandomPolicy:
    """Uniform over the claim-eligible actions, with its own seeded stream."""

    def __init__(self, actions: ActionSet, seed: int = 0):
        self.actions = actions
        self.rng = np.random.default_rng(seed)

    def action(self, state: StateVector) -> int:
        return int(self.rng.choice(day_mask_indices(self.actions, state.bonuses_collected)))

    def q_row(self, state: StateVector):
        return None


class RewardModelPolicy:
    """Adapter: greedy play, or probability rows for the allocator."""

    def __init__(self, model: RewardModel):
        self.model = model

    def action(self, state: StateVector) -> int:
        return greedy_policy(self.model, state)

    def q_row(self, state: StateVector) -> np.ndarray:
        return self.model.predict_row(state)
