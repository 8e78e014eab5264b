"""Offline Q-learning constrained to stay near the logged behavior policy.

A softmax classifier is fit to the logged actions; Q-learning then restricts
every argmax (both action choice and bootstrap target) to actions whose
probability under that classifier is at least ``xi`` times the most probable
action's. ``xi = 0`` recovers unconstrained Q-learning, ``xi = 1`` clones the
behavior argmax.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (CLAIMS_PER_CYCLE, CYCLE_DAYS, ActionSet, HyperParams, StateVector, Trajectory,
                   argmax_cheapest, claim_masks, day_mask_indices, flatten)
from .nets import Mlp, Optimizer, load_json, save_json, softmax, train_step

AGENT_FORMAT = "bcq-agent-v1"


def state_to_input(state: StateVector) -> np.ndarray:
    """Network input: opaque features plus normalized cycle counters."""
    return np.concatenate([state.to_array(),
                           [state.day_in_cycle / CYCLE_DAYS,
                            state.bonuses_collected / CLAIMS_PER_CYCLE]])


def states_to_inputs(states: Sequence[StateVector]) -> np.ndarray:
    return np.stack([state_to_input(s) for s in states])


def input_size(d: int) -> int:
    return d + 2


def behavior_probs(model: Mlp, state: StateVector) -> np.ndarray:
    return softmax(model.forward(state_to_input(state)))


def behavior_argmax(model: Mlp, state: StateVector, actions: ActionSet) -> int:
    """Most probable action under the behavior model within the claim mask."""
    mask = day_mask_indices(actions, state.bonuses_collected)
    probs = behavior_probs(model, state)[mask]
    return int(mask[np.argmax(probs)])


def xi_eligible(probs: np.ndarray, claim_mask: np.ndarray, xi: float) -> np.ndarray:
    """Boolean mask of the claim-masked actions whose behavior probability is
    >= xi times the masked maximum of their row (last axis).

    Never empty on a row with a non-empty claim mask for xi <= 1: the masked
    argmax has ratio exactly 1.
    """
    if not 0.0 <= xi <= 1.0:
        raise ValueError("xi must be in [0, 1]")
    masked = np.where(claim_mask, probs, 0.0)
    return claim_mask & (masked >= xi * masked.max(axis=-1, keepdims=True))


def eligible_actions(behavior_model: Mlp, state: StateVector, xi: float,
                     day_mask: np.ndarray) -> np.ndarray:
    """Indices of the masked actions that pass ``xi_eligible``."""
    day_mask = np.asarray(day_mask, dtype=int)
    if day_mask.size == 0:
        raise ValueError("day mask must not be empty")
    claim = np.zeros(behavior_model.output_size, dtype=bool)
    claim[day_mask] = True
    return np.flatnonzero(xi_eligible(behavior_probs(behavior_model, state), claim, xi))


def train_behavior_model(dataset: Sequence[Trajectory], actions: ActionSet,
                         hyper: HyperParams, d: int | None = None) -> Mlp:
    """Softmax classifier of logged actions given states (cross-entropy, seeded)."""
    transitions = flatten(dataset)
    if not transitions:
        raise ValueError("empty dataset")
    if d is None:
        d = len(transitions[0].state.features)
    x = states_to_inputs([tr.state for tr in transitions])
    labels = np.array([tr.action_index for tr in transitions], dtype=int)
    if labels.min() < 0 or labels.max() >= actions.size:
        raise ValueError("action index outside the menu")

    root = np.random.SeedSequence(hyper.seed)
    init_rng, batch_rng = (np.random.default_rng(s) for s in root.spawn(2))
    net = Mlp([input_size(d), *hyper.hidden_sizes, actions.size], rng=init_rng)
    opt = Optimizer(net, hyper.learning_rate, hyper.optimizer)
    n = x.shape[0]
    for _ in range(hyper.training_steps):
        idx = batch_rng.integers(0, n, size=min(hyper.batch_size, n))
        train_step(net, x[idx], labels[idx], "cross_entropy", hyper.learning_rate,
                   optimizer=opt)
    return net


@dataclass
class BcqAgent:
    """Trained Q-network plus the behavior classifier that constrains it."""

    q_net: Mlp
    target_net: Mlp
    behavior_model: Mlp
    hyper: HyperParams
    actions: ActionSet
    training_log: list | None = None

    def to_dict(self) -> dict:
        return {
            "format": AGENT_FORMAT,
            "hyper": {**self.hyper.__dict__, "hidden_sizes": list(self.hyper.hidden_sizes)},
            "actions": self.actions.to_dict(),
            "q_net": self.q_net.to_dict(),
            "behavior_model": self.behavior_model.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BcqAgent":
        if payload.get("format") != AGENT_FORMAT:
            raise ValueError(f"unsupported agent format {payload.get('format')!r}")
        hyper_kw = dict(payload["hyper"])
        hyper_kw.pop("epsilon", None)  # written by older versions, never read
        hyper_kw["hidden_sizes"] = tuple(hyper_kw["hidden_sizes"])
        q_net = Mlp.from_dict(payload["q_net"])
        return cls(q_net=q_net, target_net=q_net.copy(),
                   behavior_model=Mlp.from_dict(payload["behavior_model"]),
                   hyper=HyperParams(**hyper_kw),
                   actions=ActionSet.from_dict(payload["actions"]))

    def save(self, path: str | Path) -> None:
        save_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str | Path) -> "BcqAgent":
        return cls.from_dict(load_json(path))


def _prepare_arrays(dataset, actions):
    transitions = flatten(dataset)
    if not transitions:
        raise ValueError("empty dataset")
    x = states_to_inputs([tr.state for tr in transitions])
    a = np.array([tr.action_index for tr in transitions], dtype=int)
    claims = np.array([tr.state.bonuses_collected for tr in transitions], dtype=int)
    r = np.array([tr.reward for tr in transitions], dtype=float)
    done = np.array([tr.done for tr in transitions], dtype=bool)
    width = x.shape[1]
    x_next = np.zeros((len(transitions), width))
    next_mask = np.zeros((len(transitions), actions.size), dtype=bool)
    for i, tr in enumerate(transitions):
        if not tr.done:
            x_next[i] = state_to_input(tr.next_state)
            next_mask[i, day_mask_indices(actions, tr.next_state.bonuses_collected)] = True
    return x, a, r, done, x_next, next_mask, claims


def bcq_train(dataset: Sequence[Trajectory], actions: ActionSet, hyper: HyperParams,
              behavior_model: Mlp | None = None, log_every: int | None = None) -> BcqAgent:
    """Train the constrained Q-network on logged trajectories.

    Mini-batches are sampled uniformly with replacement; terminal transitions
    bootstrap to the reward alone; the target network is a lagged copy synced
    every ``target_sync_interval`` steps. Deterministic per ``hyper.seed``.
    """
    if behavior_model is None:
        behavior_model = train_behavior_model(dataset, actions, hyper)
    x, a, r, done, x_next, next_mask, claims = _prepare_arrays(dataset, actions)
    n = x.shape[0]

    root = np.random.SeedSequence((hyper.seed, 1))
    init_rng, batch_rng = (np.random.default_rng(s) for s in root.spawn(2))
    q_net = Mlp([x.shape[1], *hyper.hidden_sizes, actions.size], rng=init_rng)
    target_net = q_net.copy()
    opt = Optimizer(q_net, hyper.learning_rate, hyper.optimizer)

    # behavior probabilities at next states never change during Q training
    next_eligible = xi_eligible(softmax(behavior_model.forward(x_next)), next_mask, hyper.xi)

    if log_every is None:
        log_every = max(1, hyper.training_steps // 50)
    probe = slice(0, min(256, n))
    agent = BcqAgent(q_net=q_net, target_net=target_net, behavior_model=behavior_model,
                     hyper=hyper, actions=actions, training_log=[])

    for step in range(hyper.training_steps):
        idx = batch_rng.integers(0, n, size=min(hyper.batch_size, n))
        q_next = target_net.forward(x_next[idx])
        boot = np.where(next_eligible[idx], q_next, -np.inf).max(axis=1)
        boot[done[idx]] = 0.0
        targets = r[idx] + hyper.gamma * boot
        loss = train_step(q_net, x[idx], targets, "huber", hyper.learning_rate,
                          kappa=hyper.kappa, unit_indices=a[idx], optimizer=opt)
        if (step + 1) % hyper.target_sync_interval == 0:
            target_net.set_params(q_net.params)
        if (step + 1) % log_every == 0 or step + 1 == hyper.training_steps:
            agreement = _logged_action_agreement(agent, x[probe], claims[probe], a[probe])
            agent.training_log.append({"step": step + 1, "loss": float(loss),
                                       "behavior_agreement": agreement})

    target_net.set_params(q_net.params)
    return agent


def _logged_action_agreement(agent: BcqAgent, x_probe: np.ndarray, claims: np.ndarray,
                             a: np.ndarray) -> float:
    """Fraction of probe states where the greedy constrained policy matches the
    logged action; ``claims`` are the probe states' bonuses collected."""
    probs = softmax(agent.behavior_model.forward(x_probe))
    elig = xi_eligible(probs, claim_masks(agent.actions, claims), agent.hyper.xi)
    q = agent.q_net.forward(x_probe)
    picks = argmax_cheapest(np.where(elig, q, -np.inf), np.asarray(agent.actions.all_cents))
    return float(np.mean(picks == a))


def policy_action(agent: BcqAgent, state: StateVector, xi: float | None = None) -> int:
    """Highest-Q action among the behavior-eligible set; cheaper action on ties."""
    if xi is None:
        xi = agent.hyper.xi
    x = state_to_input(state)
    elig = xi_eligible(softmax(agent.behavior_model.forward(x)),
                       claim_masks(agent.actions, state.bonuses_collected), xi)
    q = agent.q_net.forward(x)
    return int(argmax_cheapest(np.where(elig, q, -np.inf), np.asarray(agent.actions.all_cents)))


def q_vector(agent: BcqAgent, state: StateVector) -> np.ndarray:
    """Q values over the claim-eligible actions; NaN marks ineligible entries."""
    q = agent.q_net.forward(state_to_input(state))
    return np.where(claim_masks(agent.actions, state.bonuses_collected), q, np.nan)


class BcqPolicy:
    """Policy adapter: direct greedy play and value rows for the allocator."""

    def __init__(self, agent: BcqAgent, xi: float | None = None):
        self.agent = agent
        self.xi = agent.hyper.xi if xi is None else xi

    def action(self, state: StateVector) -> int:
        return policy_action(self.agent, state, self.xi)

    def q_row(self, state: StateVector) -> np.ndarray:
        return q_vector(self.agent, state)
