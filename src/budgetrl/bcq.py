"""Offline Q-learning constrained to stay near the logged behavior policy.

A softmax classifier is fit to the logged actions; Q-learning then restricts
every argmax (both action choice and bootstrap target) to actions whose
probability under that classifier is at least ``xi`` times the most probable
action's. ``xi = 0`` recovers unconstrained Q-learning, ``xi = 1`` clones the
behavior argmax.

A state with one eligible action takes it; Q is read only to choose among
two or more. ``BcqPolicy.action`` finds a state's eligible actions first and
runs the Q-network only when they leave a choice; at the deployed ``xi`` of
0.3 nearly every logged state has one eligible action.

``BcqPolicy.action`` decides one state at one row's cost. Each claim may take
a contiguous run of the menu (the normals, or the supers), its span, read
once per policy from ``ActionSet.claim_table``; the xi rule compares only the
span's probabilities, and Q, when read, only the span's values. The pick is
therefore always on the claim's menu: a span with no eligible action (a NaN
behavior output), or whose eligible actions' Q are all -inf, takes its first,
cheapest action. The batched rule of the training log (``xi_eligible`` under
the claims' whole masks, then ``_constrained_argmax``) makes the same pick
row by row.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (CLAIMS_PER_CYCLE, CYCLE_DAYS, ActionSet, HyperParams, StateVector, Trajectory,
                   checked_keys, checked_object, claim_masks, field_names, flatten, load_json,
                   save_json)
from .nets import _FORWARD_BLOCK, Mlp, Optimizer, StepWorkspace, softmax, train_step

AGENT_FORMAT = "bcq-agent-v1"

# Minibatch indices are drawn and gathered a block of steps at a time, at most
# this many rows per block (and at least one step's): the 100 steps between the
# default target syncs at batch size 64.
BLOCK_ROWS = 6400


def _input_row(state) -> tuple[float, ...]:
    """One network input row: the state's opaque ``features``, then its cycle
    counters ``day_in_cycle`` and ``bonuses_collected``, normalized."""
    return (*state.features, state.day_in_cycle / CYCLE_DAYS,
            state.bonuses_collected / CLAIMS_PER_CYCLE)


def states_to_inputs(states: Sequence) -> np.ndarray:
    """Network inputs, one ``_input_row`` per state: the one input layout, for
    logged ``StateVector``s and simulated ``UserSim``s alike (both hold the
    fields it reads). The rows stream into one float array, with no list of
    them made first; states whose ``features`` differ in length are refused
    with a ValueError, and no states give an empty vector."""
    if not len(states):
        return np.empty(0)
    width = len(states[0].features)
    if any(len(s.features) != width for s in states):
        raise ValueError("states_to_inputs: states hold features of different lengths")
    rows = chain.from_iterable(map(_input_row, states))
    return np.fromiter(rows, float, len(states) * (width + 2)).reshape(len(states), width + 2)


def state_to_input(state: StateVector) -> np.ndarray:
    """The network input of one state: its row of ``states_to_inputs``, built
    as one row."""
    return np.array(_input_row(state), dtype=float)


def xi_eligible(probs: np.ndarray, claim_mask: np.ndarray, xi: float) -> np.ndarray:
    """Boolean mask of the claim-masked actions whose behavior probability is
    >= xi times the masked maximum of their row (last axis).

    Never empty on a row with a non-empty claim mask and finite probabilities
    for xi <= 1: the masked argmax has ratio exactly 1. A NaN probability in
    the mask leaves the row empty.
    """
    if not 0.0 <= xi <= 1.0:
        raise ValueError("xi must be in [0, 1]")
    masked = np.where(claim_mask, probs, 0.0)
    return claim_mask & (masked >= xi * masked.max(axis=-1, keepdims=True))


@dataclass(frozen=True)
class TransitionArrays:
    """Logged transitions as model-ready columns, one row per transition.

    A live row's next state is the following row. Terminal rows have no next
    state; they bootstrap to the reward alone.
    """

    x: np.ndarray  # (N, d + 2) state inputs
    action: np.ndarray  # (N,) logged action index
    reward: np.ndarray  # (N,) float
    claims: np.ndarray  # (N,) bonuses collected at the state
    done: np.ndarray  # (N,) bool


def transition_arrays(dataset: Sequence[Trajectory]) -> TransitionArrays:
    """The one conversion of logged trajectories into model inputs. A live row's
    next state is the following row, so every trajectory must end done."""
    transitions = flatten(dataset)
    if not transitions:
        raise ValueError("empty dataset")
    n = len(transitions)
    done = np.fromiter((tr.done for tr in transitions), bool, n)
    last_rows = np.cumsum([len(traj) for traj in dataset if len(traj)]) - 1
    if not done[last_rows].all():
        raise ValueError("a transition that is not done has no next state; is the log truncated?")
    return TransitionArrays(
        x=states_to_inputs([tr.state for tr in transitions]),
        action=np.fromiter((tr.action_index for tr in transitions), int, n),
        reward=np.fromiter((tr.reward for tr in transitions), float, n),
        claims=np.fromiter((tr.state.bonuses_collected for tr in transitions), int, n),
        done=done)


def _block_lengths(steps: int, batch: int, period: int | None = None):
    """Lengths of the consecutive blocks of ``steps`` minibatch steps: at most
    ``BLOCK_ROWS // batch`` steps (at least 1), and no block runs past a
    multiple of ``period``.

    One ``integers(0, n, size=(length, batch))`` draw per block gives the same
    indices as one ``size=batch`` draw per step.
    """
    cap = max(1, BLOCK_ROWS // batch)
    period = period or steps
    done = 0
    while done < steps:
        length = min(cap, steps - done, period - done % period)
        yield length
        done += length


def fit_classifier(x: np.ndarray, labels: np.ndarray, n_classes: int, hyper: HyperParams,
                   entropy) -> Mlp:
    """Softmax classifier of integer ``labels`` given the rows of ``x``: seeded
    cross-entropy minibatch descent, with ``entropy`` seeding its initial
    weights and its batch draws."""
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"label outside the {n_classes} classes")
    root = np.random.SeedSequence(entropy)
    init_rng, batch_rng = (np.random.default_rng(s) for s in root.spawn(2))
    net = Mlp([x.shape[1], *hyper.hidden_sizes, n_classes], rng=init_rng)
    opt = Optimizer(net, hyper.learning_rate, hyper.optimizer)
    n = x.shape[0]
    batch = min(hyper.batch_size, n)
    for length in _block_lengths(hyper.training_steps, batch):
        idx = batch_rng.integers(0, n, size=(length, batch))
        for inputs, targets in zip(x[idx], labels[idx]):
            train_step(opt, inputs, targets, "cross_entropy")
    return net


def train_behavior_model(data: TransitionArrays, actions: ActionSet, hyper: HyperParams) -> Mlp:
    """Softmax classifier of logged actions given states (cross-entropy, seeded)."""
    return fit_classifier(data.x, data.action, actions.size, hyper, hyper.seed)


@dataclass
class BcqAgent:
    """Trained Q-network plus the behavior classifier that constrains it."""

    q_net: Mlp
    behavior_model: Mlp
    hyper: HyperParams
    actions: ActionSet
    training_log: list | None = None

    def to_dict(self) -> dict:
        return {
            "format": AGENT_FORMAT,
            "hyper": self.hyper.to_dict(),
            "actions": self.actions.to_dict(),
            "q_net": self.q_net.to_dict(),
            "behavior_model": self.behavior_model.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BcqAgent":
        """The agent of a ``bcq-agent-v1`` JSON object; the document, and each
        node of it that is read as an object, must be one."""
        checked_object(payload, "agent")
        if payload.get("format") != AGENT_FORMAT:
            raise ValueError(f"unsupported agent format {payload.get('format')!r}")
        hyper_kw = dict(checked_keys(payload["hyper"], field_names(HyperParams) | {"epsilon"},
                                     "hyper"))
        hyper_kw.pop("epsilon", None)  # written by older versions, never read
        if isinstance(hyper_kw.get("hidden_sizes"), list):  # JSON has no tuples
            hyper_kw["hidden_sizes"] = tuple(hyper_kw["hidden_sizes"])
        return cls(q_net=Mlp.from_dict(checked_object(payload["q_net"], "q_net")),
                   behavior_model=Mlp.from_dict(checked_object(payload["behavior_model"],
                                                               "behavior_model")),
                   hyper=HyperParams(**hyper_kw),
                   actions=ActionSet.from_dict(payload["actions"]))

    def save(self, path: str | Path) -> None:
        save_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str | Path) -> "BcqAgent":
        return cls.from_dict(load_json(path))


def bcq_train(dataset: Sequence[Trajectory], actions: ActionSet, hyper: HyperParams) -> BcqAgent:
    """Train the behavior classifier, then the constrained Q-network, on logged trajectories.

    Mini-batches are sampled uniformly with replacement, a block of steps at a
    time; terminal transitions bootstrap to the reward alone; the target
    network is a lagged copy synced every ``target_sync_interval`` steps, so
    it is fixed within a block and a block's bootstrap targets are computed
    before its steps. The training log gets a row every ``max(1, training_steps
    // 50)`` steps and one at the last step: a row per step below 100 steps,
    and 50 to 75 rows from 100 steps on. Deterministic per ``hyper.seed``.
    """
    data = transition_arrays(dataset)
    behavior_model = train_behavior_model(data, actions, hyper)
    x, a, r, done = data.x, data.action, data.reward, data.done
    n = x.shape[0]

    root = np.random.SeedSequence((hyper.seed, 1))
    init_rng, batch_rng = (np.random.default_rng(s) for s in root.spawn(2))
    q_net = Mlp([x.shape[1], *hyper.hidden_sizes, actions.size], rng=init_rng)
    target_net = q_net.copy()
    opt = Optimizer(q_net, hyper.learning_rate, hyper.optimizer)
    agent = BcqAgent(q_net=q_net, behavior_model=behavior_model, hyper=hyper, actions=actions,
                     training_log=[])

    # the behavior model never changes during Q training
    eligible = _eligible(agent, x, data.claims, hyper.xi)
    probe = slice(0, min(256, n))

    log_every = max(1, hyper.training_steps // 50)
    batch = min(hyper.batch_size, n)
    target = StepWorkspace(target_net, batch)
    step = 0
    for length in _block_lengths(hyper.training_steps, batch, hyper.target_sync_interval):
        idx = batch_rng.integers(0, n, size=(length, batch))
        # A live row's next state is row i + 1. A done row's bootstrap is zeroed
        # below, so the last row, which is done, may read itself.
        nxt = np.minimum(idx + 1, n - 1)
        q_next = np.empty((length, batch, actions.size))
        for k, rows in enumerate(x[nxt]):  # one step's rows per forward call
            q_next[k] = target.forward(rows)
        np.copyto(q_next, -np.inf, where=~eligible[nxt])
        boot = q_next.max(axis=2)
        boot[done[idx]] = 0.0
        targets = r[idx] + hyper.gamma * boot
        for inputs, step_targets, units in zip(x[idx], targets, a[idx]):
            loss = train_step(opt, inputs, step_targets, "huber", kappa=hyper.kappa,
                              unit_indices=units)
            step += 1
            if step % hyper.target_sync_interval == 0:
                target_net.set_params(q_net.params)
            if step % log_every == 0 or step == hyper.training_steps:
                agreement = _logged_action_agreement(agent, x[probe], a[probe], eligible[probe],
                                                     data.claims[probe])
                agent.training_log.append({"step": step, "loss": float(loss),
                                           "behavior_agreement": agreement})
    return agent


def _eligible(agent: BcqAgent, x: np.ndarray, claims, xi: float) -> np.ndarray:
    """The xi-eligible actions of the rows of the matrix ``x`` at claim counts
    ``claims`` under the agent's behavior model.

    The softmax, the claim masks and the xi rule run on chunks of
    ``_FORWARD_BLOCK`` rows of the behavior net's output, each chunk written
    into its rows of the result, so their temporaries take a chunk's rows
    however long the log is. Each is a per-row rule, so every row keeps the
    bits of the whole-matrix expression."""
    z = agent.behavior_model.forward(x)
    claims = np.asarray(claims)
    out = np.empty(z.shape, dtype=bool)
    for lo in range(0, len(z), _FORWARD_BLOCK):
        rows = slice(lo, lo + _FORWARD_BLOCK)
        out[rows] = xi_eligible(softmax(z[rows]), claim_masks(agent.actions, claims[rows]), xi)
    return out


def _constrained_argmax(agent: BcqAgent, x: np.ndarray, eligible: np.ndarray, claims):
    """Highest-Q action among the ``eligible`` ones, cheaper on ties: an int
    array over the rows of ``x`` at claim counts ``claims``. A row with one
    eligible action takes it; Q is read only to choose among two or more, so
    an overflowed Q cannot move a row's choice off its eligible set, and the Q
    pass runs only when some row has a choice. A row with no eligible action,
    or whose eligible actions' Q are all -inf, takes its claim's first arm, as
    ``BcqPolicy.action`` does, so no pick leaves the claim's menu."""
    one, only = eligible.sum(axis=-1) == 1, eligible.argmax(axis=-1)
    if one.all():
        return only
    q = np.where(eligible, agent.q_net.forward(x), -np.inf)
    best = q.argmax(axis=-1)
    stuck = q.max(axis=-1) == -np.inf
    if stuck.any():
        best[stuck] = claim_masks(agent.actions, np.asarray(claims)[stuck]).argmax(axis=-1)
    return np.where(one, only, best)


def _logged_action_agreement(agent: BcqAgent, x_probe: np.ndarray, a: np.ndarray,
                             eligible: np.ndarray, claims) -> float:
    """Fraction of probe states where the greedy constrained policy matches the
    logged action; ``eligible`` is the probe states' ``_eligible`` mask at the
    agent's xi and ``claims`` their claim counts."""
    return float(np.mean(_constrained_argmax(agent, x_probe, eligible, claims) == a))


def _claim_spans(actions: ActionSet) -> tuple[slice, ...]:
    """Each claim's span: the slice from the first to one past the last action
    its ``claim_table`` row marks. A row marks the normals or the supers, a
    contiguous run, so the span holds exactly the row's actions."""
    return tuple(slice(int(marked[0]), int(marked[-1]) + 1)
                 for marked in map(np.flatnonzero, actions.claim_table))


class BcqPolicy:
    """The trained agent as a policy: direct greedy play and value rows for the
    allocator. ``action`` decides one state at one row's cost: the behavior
    forward pass on a vector, the xi rule on the state's claim span (read
    from ``ActionSet.claim_table`` when the policy is made), and a Q forward
    call only when more than one action is eligible. ``q_rows`` scores a
    matrix of network inputs in one Q forward call; ``q_row`` is its
    one-state case. An ``xi`` outside [0, 1] is refused when the policy is
    made."""

    def __init__(self, agent: BcqAgent, xi: float | None = None):
        self.agent = agent
        self.xi = agent.hyper.xi if xi is None else xi
        if not 0.0 <= self.xi <= 1.0:
            raise ValueError("xi must be in [0, 1]")
        self._spans = _claim_spans(agent.actions)

    def action(self, state: StateVector) -> int:
        """Highest-Q action among the behavior-eligible actions of the state's
        claim span; cheaper action on ties. A state with one eligible action
        takes it; Q is read only to choose among two or more, and a state with
        none takes the span's first action. A claim count that ``claim_masks``
        refuses is refused with its error."""
        x = state_to_input(state)
        probs = softmax(self.agent.behavior_model.forward(x))
        claims = state.bonuses_collected
        if not (type(claims) is int and 0 <= claims < CLAIMS_PER_CYCLE):
            claim_masks(self.agent.actions, claims)  # refuses what is not a claim count
            claims = operator.index(claims)  # a numpy integer that it takes
        span = self._spans[claims]
        # a probability is never negative, so the span's maximum is the claim's
        p = probs[span]
        eligible = p >= self.xi * np.maximum.reduce(p)
        if np.count_nonzero(eligible) == 1:
            return span.start + int(eligible.argmax())
        q = self.agent.q_net.forward(x)[span]
        return span.start + int(np.where(eligible, q, -np.inf).argmax())

    def q_rows(self, x: np.ndarray, claims) -> np.ndarray:
        """Q values over the claim-eligible actions of the rows of ``x`` (as
        ``states_to_inputs`` lays them out) at claim counts ``claims``, one row
        per input row; NaN marks ineligible entries. A 1-D ``x`` with an int
        ``claims`` gives that one row."""
        q = self.agent.q_net.forward(x)
        return np.where(claim_masks(self.agent.actions, claims), q, np.nan)

    def q_row(self, state: StateVector) -> np.ndarray:
        """``q_rows`` of the one state ``state``."""
        return self.q_rows(state_to_input(state), state.bonuses_collected)
