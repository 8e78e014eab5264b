"""Comparison policies: supervised one-step reward model, expert table, and
trivial reference policies.

The reward model predicts next-day login from (state, action) and is itself
a policy: ``action`` plays greedily (the best predicted retention) and
``q_rows`` (``q_row`` for one state) gives the value rows fed to the budget
allocator, scoring all of a batch's eligible (state, action) pairs in one
forward call. Both ignore long-run effects by construction, which is the
point of comparing them against the Q-learner.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (ActionSet, HyperParams, StateVector, Trajectory, checked_object,
                   claim_masks, day_mask_indices, load_json, save_json)
from .nets import Mlp, softmax
from .bcq import fit_classifier, state_to_input, transition_arrays
from .envsim import check_claim_table, table_action

REWARD_MODEL_FORMAT = "reward-model-v1"


@dataclass
class RewardModel:
    """P(login | state, action) classifier; input is state features + one-hot action."""

    net: Mlp
    actions: ActionSet

    def action(self, state: StateVector) -> int:
        """Best predicted immediate retention among the claim's arms, the first
        (cheapest) of them on ties. A score that is not finite (an overflowed
        net) counts as no score, so a state whose arms all lack one takes the
        claim's cheapest arm; the pick never leaves the claim's menu."""
        arms = day_mask_indices(self.actions, state.bonuses_collected)
        scores = self.q_row(state)[arms]
        return int(arms[np.where(np.isfinite(scores), scores, -np.inf).argmax()])

    def q_rows(self, x: np.ndarray, claims) -> np.ndarray:
        """Retention probability per claim-eligible action of the rows of ``x``
        (``states_to_inputs`` rows) at claim counts ``claims``, one row per
        input row; NaN elsewhere. A 1-D ``x`` with an int ``claims`` gives that
        one row."""
        mask = claim_masks(self.actions, claims)
        rows, acts = np.nonzero(np.atleast_2d(mask))
        x = _pair_inputs(np.atleast_2d(x)[rows], acts, self.actions.size)
        out = np.full(mask.shape, np.nan)
        out[mask] = softmax(self.net.forward(x))[:, 1]
        return out

    def q_row(self, state: StateVector) -> np.ndarray:
        """``q_rows`` of the one state ``state``."""
        return self.q_rows(state_to_input(state), state.bonuses_collected)

    def to_dict(self) -> dict:
        return {"format": REWARD_MODEL_FORMAT, "net": self.net.to_dict(),
                "actions": self.actions.to_dict()}

    @classmethod
    def from_dict(cls, payload: dict) -> "RewardModel":
        """The model of a ``reward-model-v1`` JSON object; the document, and each
        node of it that is read as an object, must be one."""
        checked_object(payload, "reward model")
        if payload.get("format") != REWARD_MODEL_FORMAT:
            raise ValueError(f"unsupported reward model format {payload.get('format')!r}")
        return cls(net=Mlp.from_dict(checked_object(payload["net"], "net")),
                   actions=ActionSet.from_dict(payload["actions"]))

    def save(self, path: str | Path) -> None:
        save_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str | Path) -> "RewardModel":
        return cls.from_dict(load_json(path))


def _pair_inputs(x: np.ndarray, action_idx: np.ndarray, n_actions: int) -> np.ndarray:
    """Reward-model inputs: the state inputs ``x`` (N, d + 2) beside a one-hot action."""
    onehot = np.zeros((len(action_idx), n_actions))
    onehot[np.arange(len(action_idx)), action_idx] = 1.0
    return np.concatenate([x, onehot], axis=1)


def train_reward_model(dataset: Sequence[Trajectory], actions: ActionSet,
                       hyper: HyperParams) -> RewardModel:
    """Cross-entropy fit of login-vs-not on logged (state, action) pairs."""
    data = transition_arrays(dataset)
    x = _pair_inputs(data.x, data.action, actions.size)
    net = fit_classifier(x, data.reward.astype(int), 2, hyper, (hyper.seed, 2))
    return RewardModel(net=net, actions=actions)


# ---------------------------------------------------------------------------
# Reference policies


@dataclass(frozen=True)
class ExpertPolicy:
    """Hand-built (segment proxy, claim) lookup table within the claim mask."""

    table: tuple[tuple[int, ...], ...]
    n_segments: int
    actions: ActionSet

    def __post_init__(self):
        check_claim_table(self.table, self.actions)

    def action(self, state: StateVector) -> int:
        return table_action(self.table, self.n_segments, state.features,
                            state.bonuses_collected)


class CheapestPolicy:
    """Always the cheapest claim-eligible bonus."""

    def __init__(self, actions: ActionSet):
        self.actions = actions

    def action(self, state: StateVector) -> int:
        return int(day_mask_indices(self.actions, state.bonuses_collected)[0])


class UniformRandomPolicy:
    """Uniform over the claim-eligible actions, with its own seeded stream."""

    def __init__(self, actions: ActionSet, seed: int = 0):
        self.actions = actions
        self.rng = np.random.default_rng(seed)

    def action(self, state: StateVector) -> int:
        return int(self.rng.choice(day_mask_indices(self.actions, state.bonuses_collected)))
