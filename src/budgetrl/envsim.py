"""Synthetic check-in environment: ground truth for data generation and evaluation.

Users claim one bonus per day; a cycle holds up to four claims (three normal,
then one super) inside a seven-day window. Retention is logistic in the bonus
amount with a per-segment base rate, a streak term, and an optional carryover
term through which yesterday's bonus lifts (or drags) today's login odds.
A trajectory ends when the user stops logging in or collects all four bonuses,
which with one claim a day happens well inside the window.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from .core import (
    ActionSet,
    CLAIMS_PER_CYCLE,
    CYCLE_DAYS,
    StateVector,
    Trajectory,
    Transition,
    day_mask_indices,
)

PROB_CLAMP = 1e-12


class IneligibleActionError(ValueError):
    """Super bonus offered on a normal claim, or vice versa, or a claim table
    without exactly one such action per claim."""


class TabularModeError(ValueError):
    """Exact dynamic programming requested on a non-tabular environment."""


def sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


@dataclass(frozen=True)
class SegmentParams:
    """Latent retention parameters of one user segment."""

    base_logit: float
    bonus_sensitivity: float  # logit lift per currency unit of today's bonus
    streak_bonus: float  # logit lift per prior consecutive login
    carryover: float = 0.0  # logit lift per currency unit of yesterday's bonus
    noise_scale: float = 0.0

    def __post_init__(self):
        if self.bonus_sensitivity < 0:
            raise ValueError("bonus_sensitivity must be >= 0")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be >= 0")


@dataclass(frozen=True)
class EnvConfig:
    segments: tuple[SegmentParams, ...]
    segment_weights: tuple[float, ...] | None = None
    feature_noise: float = 0.05
    bonuses_per_cycle: ClassVar[int] = CLAIMS_PER_CYCLE  # the fixed cycle; not a field

    def __post_init__(self):
        if not self.segments:
            raise ValueError("need at least one segment")
        if self.segment_weights is not None:
            if len(self.segment_weights) != len(self.segments):
                raise ValueError("segment_weights length must match segments")
            if any(w < 0 for w in self.segment_weights) or sum(self.segment_weights) <= 0:
                raise ValueError("segment_weights must be non-negative with positive sum")
        if self.feature_noise < 0:
            raise ValueError("feature_noise must be >= 0")

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @property
    def feature_dim(self) -> int:
        # noisy one-hot segment proxy + last bonus + mean bonus so far
        return self.n_segments + 2

    def weights_array(self) -> np.ndarray:
        if self.segment_weights is None:
            return np.full(self.n_segments, 1.0 / self.n_segments)
        w = np.asarray(self.segment_weights, dtype=float)
        return w / w.sum()

    @classmethod
    def default(cls) -> "EnvConfig":
        """Three-segment population spanning habitual, price-driven, and lapsing users."""
        return cls(segments=(
            SegmentParams(base_logit=1.2, bonus_sensitivity=0.3, streak_bonus=0.25),
            SegmentParams(base_logit=-1.2, bonus_sensitivity=2.4, streak_bonus=0.25),
            SegmentParams(base_logit=-0.5, bonus_sensitivity=1.0, streak_bonus=0.25),
        ))


@dataclass(frozen=True)
class BehaviorPolicyConfig:
    """Logged-data policy: a (segment proxy, claim) lookup table plus uniform noise."""

    table: tuple[tuple[int, ...], ...]  # [segment][claim-1] -> action index
    noise: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError("noise must be in [0, 1]")


def default_behavior_table(n_segments: int, actions: ActionSet) -> tuple[tuple[int, ...], ...]:
    """Deterministic expert-style table: staggered normal bonuses, alternating supers."""
    table = []
    for seg in range(n_segments):
        row = []
        for claim in range(CLAIMS_PER_CYCLE):
            eligible = day_mask_indices(actions, claim)
            row.append(int(eligible[(2 * seg + claim) % len(eligible)]))
        table.append(tuple(row))
    return tuple(table)


def check_claim_table(table, actions: ActionSet) -> None:
    """Raise IneligibleActionError unless every row of a (segment, claim) table
    holds one eligible action per claim of the cycle."""
    if not table:
        raise IneligibleActionError("claim table has no rows")
    for row in table:
        if len(row) != CLAIMS_PER_CYCLE:
            raise IneligibleActionError(
                f"claim table row {tuple(row)} needs {CLAIMS_PER_CYCLE} entries, one per claim")
        for claim, a in enumerate(row):
            if a not in day_mask_indices(actions, claim):
                raise IneligibleActionError(
                    f"claim table entry {a} violates the claim-{claim + 1} mask")


class UserSim:
    """Mutable per-user simulation handle; latent segment plus cycle counters."""

    __slots__ = ("user_id", "segment", "day_in_cycle", "bonuses_collected",
                 "last_action", "cost_sum_cents", "rng", "state", "done")

    def __init__(self, user_id: int, segment: int, rng: np.random.Generator):
        self.user_id = user_id
        self.segment = segment
        self.day_in_cycle = 1
        self.bonuses_collected = 0
        self.last_action = -1
        self.cost_sum_cents = 0
        self.rng = rng
        self.state: StateVector | None = None
        self.done = False

    def segment_proxy(self, n_segments: int) -> int:
        return int(np.argmax(self.state.to_array()[:n_segments]))


class CheckinEnv:
    """Ground-truth environment over a fixed action set."""

    def __init__(self, config: EnvConfig, actions: ActionSet):
        self.config = config
        self.actions = actions

    # -- retention model ----------------------------------------------------

    def retention_logit(self, segment: int, action_index: int, streak: int,
                        last_action: int = -1) -> float:
        seg = self.config.segments[segment]
        logit = (seg.base_logit
                 + seg.bonus_sensitivity * self.actions.cost_units(action_index)
                 + seg.streak_bonus * streak)
        if last_action >= 0 and seg.carryover != 0.0:
            logit += seg.carryover * self.actions.cost_units(last_action)
        return logit

    def retention_probability(self, segment: int, action_index: int, streak: int,
                              last_action: int = -1) -> float:
        p = sigmoid(self.retention_logit(segment, action_index, streak, last_action))
        return min(max(p, PROB_CLAMP), 1.0 - PROB_CLAMP)

    # -- simulation ---------------------------------------------------------

    def _observe(self, user: UserSim) -> StateVector:
        n = self.config.n_segments
        feats = np.zeros(self.config.feature_dim)
        feats[user.segment] = 1.0
        if self.config.feature_noise > 0:
            feats[:n] += user.rng.normal(0.0, self.config.feature_noise, size=n)
        if user.last_action >= 0:
            feats[n] = self.actions.cost_units(user.last_action)
            feats[n + 1] = (user.cost_sum_cents / user.bonuses_collected) / 100.0
        return StateVector(tuple(float(v) for v in feats),
                           day_in_cycle=user.day_in_cycle,
                           bonuses_collected=user.bonuses_collected)

    def spawn_user(self, user_id: int, rng: np.random.Generator,
                   segment: int | None = None) -> UserSim:
        """Start a fresh cycle; draws the segment from the arrival mix if not given."""
        if segment is None:
            segment = int(rng.choice(self.config.n_segments, p=self.config.weights_array()))
        user = UserSim(user_id, segment, rng)
        user.state = self._observe(user)
        return user

    def step(self, user: UserSim, action_index: int):
        """Advance one claim; returns (reward, next_state | None, done)."""
        if user.done:
            raise RuntimeError(f"user {user.user_id} already terminated")
        eligible = day_mask_indices(self.actions, user.bonuses_collected)
        if action_index not in eligible:
            raise IneligibleActionError(
                f"action {action_index} not eligible at claim {user.bonuses_collected + 1}")

        seg = self.config.segments[user.segment]
        logit = self.retention_logit(user.segment, action_index,
                                     streak=user.bonuses_collected,
                                     last_action=user.last_action)
        if seg.noise_scale > 0:
            logit += user.rng.normal(0.0, seg.noise_scale)
        p = min(max(sigmoid(logit), PROB_CLAMP), 1.0 - PROB_CLAMP)
        reward = int(user.rng.random() < p)

        user.bonuses_collected += 1
        user.day_in_cycle += 1
        user.last_action = action_index
        user.cost_sum_cents += self.actions.cost_cents(action_index)
        done = reward == 0 or user.bonuses_collected >= CLAIMS_PER_CYCLE
        user.done = done
        user.state = None if done else self._observe(user)
        return reward, user.state, done


def behavior_action(behavior: BehaviorPolicyConfig, actions: ActionSet,
                    segment_proxy: int, bonuses_collected: int,
                    rng: np.random.Generator) -> int:
    """Table action with probability 1-noise, else uniform over eligible actions.
    The table is taken as checked by ``check_claim_table``."""
    if behavior.noise > 0 and rng.random() < behavior.noise:
        return int(rng.choice(day_mask_indices(actions, bonuses_collected)))
    return behavior.table[segment_proxy % len(behavior.table)][bonuses_collected]


def generate_dataset(env: CheckinEnv, behavior: BehaviorPolicyConfig, n_users: int,
                     seed: int) -> list[Trajectory]:
    """Simulate n_users fresh cycles under the behavior policy.

    Random streams are split per user from the master seed, so the output is
    independent of simulation order and bit-identical across runs.
    """
    if n_users < 0:
        raise ValueError("n_users must be >= 0")
    check_claim_table(behavior.table, env.actions)
    children = np.random.SeedSequence(seed).spawn(n_users)
    trajectories = []
    for uid in range(n_users):
        rng = np.random.default_rng(children[uid])
        user = env.spawn_user(uid, rng)
        transitions = []
        t = 1
        while not user.done:
            state = user.state
            a = behavior_action(behavior, env.actions,
                                user.segment_proxy(env.config.n_segments),
                                user.bonuses_collected, rng)
            reward, next_state, done = env.step(user, a)
            transitions.append(Transition(
                user_id=uid, t=t, state=state, action_index=a, reward=reward,
                cost_cents=env.actions.cost_cents(a), next_state=next_state, done=done))
            t += 1
        trajectories.append(Trajectory(tuple(transitions)))
    return trajectories


# ---------------------------------------------------------------------------
# Exact dynamic programming on the latent (tabular) state space


@dataclass(frozen=True)
class TabularSolution:
    """Exact Q-table over latent states (segment, claims done, previous action)."""

    q: dict  # (segment, k, last_action) -> {action: Q*}
    v: dict  # (segment, k, last_action) -> V*
    policy: dict  # (segment, k, last_action) -> optimal action (cheapest on ties)

    def states(self):
        return self.q.keys()


def oracle_value_iteration(env: CheckinEnv, gamma: float) -> TabularSolution:
    """Exact Q* by backward induction over the claim horizon.

    Requires a noise-free retention model; refuses otherwise. The latent
    state is (segment, bonuses_collected, last_action), which is exactly the
    information the retention model depends on.
    """
    cfg = env.config
    if any(seg.noise_scale > 0 for seg in cfg.segments):
        raise TabularModeError("value iteration needs noise_scale == 0 in every segment")
    q: dict = {}
    v: dict = {}
    policy: dict = {}

    def lasts_for(k: int):
        if k == 0:
            return [-1]
        return [int(a) for a in day_mask_indices(env.actions, k - 1)]

    for k in range(CLAIMS_PER_CYCLE - 1, -1, -1):
        eligible = day_mask_indices(env.actions, k)
        for segment in range(cfg.n_segments):
            for last in lasts_for(k):
                entry = {}
                for a in eligible:
                    p = env.retention_probability(segment, int(a), streak=k, last_action=last)
                    if k + 1 < CLAIMS_PER_CYCLE:
                        entry[int(a)] = p * (1.0 + gamma * v[(segment, k + 1, int(a))])
                    else:
                        entry[int(a)] = p
                best = max(entry.values())
                best_a = min(a for a, val in entry.items() if val == best)
                q[(segment, k, last)] = entry
                v[(segment, k, last)] = best
                policy[(segment, k, last)] = best_a
    return TabularSolution(q=q, v=v, policy=policy)


def enumerate_policy_value(env: CheckinEnv, gamma: float, segment: int) -> float:
    """Best expected return over all deterministic policy trees for one segment.

    Brute force used as an independent check of value iteration; exponential
    in the action set, so only call with small menus.
    """
    decision_points = []  # (k, last) pairs in fixed order
    for k in range(CLAIMS_PER_CYCLE):
        lasts = [-1] if k == 0 else [int(a) for a in day_mask_indices(env.actions, k - 1)]
        for last in lasts:
            decision_points.append((k, last))
    choice_sets = [list(map(int, day_mask_indices(env.actions, k)))
                   for k, _ in decision_points]

    def tree_value(assignment: dict) -> float:
        def value_from(k: int, last: int) -> float:
            a = assignment[(k, last)]
            p = env.retention_probability(segment, a, streak=k, last_action=last)
            if k + 1 < CLAIMS_PER_CYCLE:
                return p * (1.0 + gamma * value_from(k + 1, a))
            return p

        return value_from(0, -1)

    best = -math.inf
    for choices in itertools.product(*choice_sets):
        assignment = dict(zip(decision_points, choices))
        best = max(best, tree_value(assignment))
    return best


# ---------------------------------------------------------------------------
# Config file (single JSON document holding env + behavior + action set)


def config_to_dict(env_config: EnvConfig, behavior: BehaviorPolicyConfig,
                   actions: ActionSet) -> dict:
    return {
        "actions": actions.to_dict(),
        "env": {
            "segments": [{
                "base_logit": s.base_logit,
                "bonus_sensitivity": s.bonus_sensitivity,
                "streak_bonus": s.streak_bonus,
                "carryover": s.carryover,
                "noise_scale": s.noise_scale,
            } for s in env_config.segments],
            "segment_weights": list(env_config.segment_weights) if env_config.segment_weights else None,
            "feature_noise": env_config.feature_noise,
        },
        "behavior": {
            "table": [list(row) for row in behavior.table],
            "noise": behavior.noise,
        },
    }


# Keys that older config files wrote; each loads only at its one value.
FIXED_ENV_KEYS = {"cycle_length": CYCLE_DAYS, "bonuses_per_cycle": CLAIMS_PER_CYCLE, "seed": 0}


def config_from_dict(doc: dict) -> tuple[EnvConfig, BehaviorPolicyConfig, ActionSet]:
    actions = ActionSet.from_dict(doc["actions"])
    e = doc["env"]
    for key, value in FIXED_ENV_KEYS.items():
        if e.get(key, value) != value:
            raise ValueError(f"env.{key} must be {value}, got {e[key]!r}")
    env_config = EnvConfig(
        segments=tuple(SegmentParams(**s) for s in e["segments"]),
        segment_weights=tuple(e["segment_weights"]) if e.get("segment_weights") else None,
        feature_noise=e.get("feature_noise", 0.05),
    )
    b = doc.get("behavior")
    if b is None:
        table = default_behavior_table(env_config.n_segments, actions)
        behavior = BehaviorPolicyConfig(table=table)
    else:
        behavior = BehaviorPolicyConfig(table=tuple(tuple(r) for r in b["table"]),
                                        noise=b.get("noise", 0.1))
    return env_config, behavior, actions


def load_config(path: str | Path) -> tuple[EnvConfig, BehaviorPolicyConfig, ActionSet]:
    return config_from_dict(json.loads(Path(path).read_text()))


def default_config() -> tuple[EnvConfig, BehaviorPolicyConfig, ActionSet]:
    actions = ActionSet.default()
    env_config = EnvConfig.default()
    behavior = BehaviorPolicyConfig(
        table=default_behavior_table(env_config.n_segments, actions), noise=0.15)
    return env_config, behavior, actions
