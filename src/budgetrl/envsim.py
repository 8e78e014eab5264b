"""Synthetic check-in environment: ground truth for data generation and evaluation.

Users claim one bonus per day; a cycle holds up to four claims (three normal,
then one super) inside a seven-day window. Retention is logistic in the bonus
amount with a per-segment base rate, a streak term, and an optional carryover
term through which yesterday's bonus lifts (or drags) today's login odds.
A trajectory ends when the user stops logging in or collects all four bonuses,
which with one claim a day happens well inside the window.

Every user has their own random stream, a ``Generator`` spawned from the run's
seed, and draws from it in a fixed order: the segment, the first claim's
feature noise, then per claim the behavior draws (logged data only), the
retention noise (when the segment has any), the login draw and the next
claim's feature noise. Because no draw is shared, users can be simulated in
any grouping. One walk makes all of these draws but the behavior ones:
``CheckinEnv.spawn_user`` starts a ``UserSim`` and ``CheckinEnv.step`` makes
one claim. ``generate_dataset`` and ``evaluation.simulate_online`` both step
their users through it, and both seed a batch of users' generators in one
vectorized pass (``_spawn_generators``).
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import ClassVar

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .core import (
    ActionSet,
    CLAIMS_PER_CYCLE,
    CYCLE_DAYS,
    StateVector,
    Trajectory,
    Transition,
    _is_number,
    _require_finite,
    checked_keys,
    checked_list,
    day_mask_indices,
    field_names,
    load_json,
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
    """Latent retention parameters of one user segment; each a finite number."""

    base_logit: float
    bonus_sensitivity: float  # logit lift per currency unit of today's bonus
    streak_bonus: float  # logit lift per prior consecutive login
    carryover: float = 0.0  # logit lift per currency unit of yesterday's bonus
    noise_scale: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            _require_finite(self, f.name)
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
            _require_finite(self, "segment_weights")
            if len(self.segment_weights) != len(self.segments):
                raise ValueError("segment_weights length must match segments")
            total = sum(self.segment_weights)
            if any(w < 0 for w in self.segment_weights) or not 0 < total < math.inf:
                raise ValueError("segment_weights must be non-negative with a positive, finite sum")
        _require_finite(self, "feature_noise")
        # A float64 normal draw stays far below 64 standard deviations, so at
        # most 1e300 keeps every noisy feature finite.
        if not 0 <= self.feature_noise <= 1e300:
            raise ValueError(f"feature_noise must be in [0, 1e300], not {self.feature_noise!r}")

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
        _require_finite(self, "noise")
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
    holds one eligible action per claim of the cycle: an int (never a bool)
    that ``actions.claim_table`` marks for that claim."""
    if not table:
        raise IneligibleActionError("claim table has no rows")
    for row in table:
        if len(row) != CLAIMS_PER_CYCLE:
            raise IneligibleActionError(
                f"claim table row {tuple(row)} needs {CLAIMS_PER_CYCLE} entries, one per claim")
        for claim, a in enumerate(row):
            if not (_is_number(a, numbers.Integral) and 0 <= a < actions.size
                    and actions.claim_table[claim, a]):
                raise IneligibleActionError(
                    f"claim table entry {a!r} violates the claim-{claim + 1} mask")


# ---------------------------------------------------------------------------
# Per-user random streams
#
# ``_spawn_generators`` gives the streams of ``np.random.default_rng(child) for
# child in np.random.SeedSequence(entropy).spawn(n)`` without building a
# SeedSequence per child. It follows numpy's documented SeedSequence: the
# entropy words (padded to the pool size, since a child has a spawn key), then
# the child's index, are hashed into a pool of four 32-bit words, from which
# ``generate_state(4, np.uint64)`` draws PCG64's seed. The hash multipliers
# step the same way whatever the data, so all but the last word are mixed once,
# in Python ints, for every child, and the index enters as a uint32 array that
# mixes all children at once. Python ints are masked to 32 bits after each
# step (a no-op on the array); a numpy scalar would warn on the intended
# overflow, where a uint32 array wraps silently.

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _entropy_words(entropy) -> list[int]:
    """``entropy`` (an int, or a nested sequence of ints) as SeedSequence's
    little-endian 32-bit words."""
    if isinstance(entropy, (int, np.integer)):
        n = int(entropy)
        if n < 0:
            raise ValueError(f"seed entropy must be non-negative, not {n}")
        words = [n & _MASK32]
        while n > _MASK32:
            n >>= 32
            words.append(n & _MASK32)
        return words
    if isinstance(entropy, (str, float, np.inexact)):
        raise TypeError(f"seed entropy must be an int or a sequence of ints, not {entropy!r}")
    return [w for part in entropy for w in _entropy_words(part)]


def _mix(x, y):
    """SeedSequence's ``mix`` of a pool word ``x`` with ``y``: Python ints or uint32 arrays."""
    value = (((x * _MIX_MULT_L) & _MASK32) - y * _MIX_MULT_R) & _MASK32
    return value ^ (value >> 16)


class _ChildSeed(ISeedSequence):
    """A spawned child reduced to what PCG64 reads of it: its seed words."""

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self._state


def _spawn_generators(entropy, n: int) -> list[np.random.Generator]:
    """The generators ``default_rng(c) for c in SeedSequence(entropy).spawn(n)``,
    with the same streams, seeded in one vectorized pass."""
    words = _entropy_words(entropy)
    words += [0] * (_POOL_SIZE - len(words))
    words.append(np.arange(n, dtype=np.uint32))  # the child's index
    multiplier = _INIT_A

    def hashmix(value):
        nonlocal multiplier
        value = value ^ multiplier
        multiplier = (multiplier * _MULT_A) & _MASK32
        value = (value * multiplier) & _MASK32
        return value ^ (value >> 16)

    pool = [hashmix(w) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(w))
    state = np.empty((n, 2 * _POOL_SIZE), dtype=np.uint32)
    multiplier = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ multiplier
        multiplier = (multiplier * _MULT_B) & _MASK32
        value = value * multiplier
        state[:, i] = value ^ (value >> 16)
    # as generate_state(4, np.uint64): word pairs read little-endian, then made native
    seeds = state.astype("<u4").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_ChildSeed(row))) for row in seeds]


# ---------------------------------------------------------------------------
# The simulator


class UserSim:
    """Mutable per-user simulation handle: latent segment, cycle counters and
    the next claim's observed feature row (None once the cycle is done)."""

    __slots__ = ("user_id", "segment", "day_in_cycle", "bonuses_collected",
                 "last_action", "cost_sum_cents", "rng", "features", "done")

    def __init__(self, user_id: int, segment: int, rng: np.random.Generator):
        self.user_id = user_id
        self.segment = segment
        self.day_in_cycle = 1
        self.bonuses_collected = 0
        self.last_action = -1
        self.cost_sum_cents = 0
        self.rng = rng
        self.features: list[float] | None = None
        self.done = False


class CheckinEnv:
    """Ground-truth environment over a fixed action set.

    The config and menu are read once, here, into plain Python values, which
    the per-user walk reads with the user's own generator: ``spawn_user``
    starts a ``UserSim`` and ``step`` makes one claim of it.
    """

    def __init__(self, config: EnvConfig, actions: ActionSet):
        self.config = config
        self.actions = actions
        # the CDF that Generator.choice(p=...) searches for a uniform draw
        cdf = config.weights_array().cumsum()
        cdf /= cdf[-1]
        self._segment_cdf = cdf.tolist()
        self._segments = [(s.base_logit, s.bonus_sensitivity, s.streak_bonus, s.carryover,
                           s.noise_scale) for s in config.segments]
        self._cost_cents = actions.all_cents
        self._cost_units = [actions.cost_units(a) for a in range(actions.size)]
        self._eligible = actions.claim_table.tolist()

    # -- retention model ----------------------------------------------------

    def retention_logit(self, segment: int, action_index: int, streak: int,
                        last_action: int = -1) -> float:
        base_logit, sensitivity, streak_bonus, carryover, _ = self._segments[segment]
        logit = (base_logit
                 + sensitivity * self._cost_units[action_index]
                 + streak_bonus * streak)
        if last_action >= 0 and carryover != 0.0:
            logit += carryover * self._cost_units[last_action]
        return logit

    def retention_probability(self, segment: int, action_index: int, streak: int,
                              last_action: int = -1) -> float:
        p = sigmoid(self.retention_logit(segment, action_index, streak, last_action))
        return min(max(p, PROB_CLAMP), 1.0 - PROB_CLAMP)

    # -- the per-user walk --------------------------------------------------

    def feature_row(self, rng: np.random.Generator, segment: int, claims: int,
                    last_action: int, cost_sum_cents: int) -> list[float]:
        """The observed features of a user with ``claims`` claims made, as Python
        floats: the one-hot segment plus its noise draw (if any), then the last
        bonus and the mean bonus so far in currency units (zeros before a claim)."""
        n = self.config.n_segments
        noise = self.config.feature_noise
        row = rng.normal(0.0, noise, size=n).tolist() if noise > 0 else [0.0] * n
        row[segment] += 1.0
        if last_action >= 0:
            row += (self._cost_units[last_action], (cost_sum_cents / claims) / 100.0)
        else:
            row += (0.0, 0.0)
        return row

    def spawn_user(self, user_id: int, rng: np.random.Generator,
                   segment: int | None = None) -> UserSim:
        """Start a fresh cycle. Unless ``segment`` is given, it is drawn from the
        arrival mix: one uniform draw searched in the weights' CDF, as
        ``rng.choice(n_segments, p=weights)`` draws it."""
        if segment is None:
            segment = bisect.bisect_right(self._segment_cdf, rng.random())
        user = UserSim(user_id, segment, rng)
        user.features = self.feature_row(rng, segment, 0, -1, 0)
        return user

    def step(self, user: UserSim, action_index: int):
        """One claim of ``action_index``; returns (reward, done), where reward is 1
        if the user logs in for the next claim, else 0, and leaves the next
        claim's features on ``user.features``. An action outside the claim's
        mask is an IneligibleActionError, raised before any draw or change."""
        if user.done:
            raise RuntimeError(f"user {user.user_id} already terminated")
        claims, segment, rng = user.bonuses_collected, user.segment, user.rng
        # The range check comes first: a table index of -1 would read the last column.
        if not (0 <= action_index < len(self._cost_units)
                and self._eligible[claims][action_index]):
            raise IneligibleActionError(
                f"action {action_index} not eligible at claim {claims + 1}")
        logit = self.retention_logit(segment, action_index, claims, user.last_action)
        noise_scale = self._segments[segment][4]
        if noise_scale > 0:
            logit += rng.normal(0.0, noise_scale)
        p = min(max(sigmoid(logit), PROB_CLAMP), 1.0 - PROB_CLAMP)
        reward = int(rng.random() < p)
        claims += 1
        user.bonuses_collected = claims
        user.day_in_cycle += 1
        user.last_action = action_index
        user.cost_sum_cents += self._cost_cents[action_index]
        user.done = done = reward == 0 or claims >= CLAIMS_PER_CYCLE
        user.features = None if done else self.feature_row(
            rng, segment, claims, action_index, user.cost_sum_cents)
        return reward, done


def table_action(table, n_segments: int, features, claims: int) -> int:
    """A checked (segment proxy, claim) table's action after ``claims`` claims; the
    proxy is the index of the first largest of the first ``n_segments`` features."""
    proxy = max(range(min(n_segments, len(features))), key=features.__getitem__)
    return table[proxy % len(table)][claims]


def generate_dataset(env: CheckinEnv, behavior: BehaviorPolicyConfig, n_users: int,
                     seed: int) -> list[Trajectory]:
    """Simulate n_users fresh cycles under the behavior policy: the table action
    with probability 1 - noise, else uniform over the claim-eligible actions.

    User ``i`` is spawned on the ``i``-th generator that ``_spawn_generators(seed,
    n_users)`` seeds and walked through ``env.step``; the behavior draws come
    before each claim's, in the order the module docstring gives, so the output
    is independent of simulation order and bit-identical across runs.
    ``Transition`` and ``StateVector`` objects are made only for the output.
    """
    if n_users < 0:
        raise ValueError("n_users must be >= 0")
    check_claim_table(behavior.table, env.actions)
    n_segments, table, noise = env.config.n_segments, behavior.table, behavior.noise
    eligible = [day_mask_indices(env.actions, k).tolist() for k in range(CLAIMS_PER_CYCLE)]
    cost_cents = env.actions.all_cents
    spawn_user, step = env.spawn_user, env.step
    trajectories = []
    for uid, rng in enumerate(_spawn_generators(seed, n_users)):
        user = spawn_user(uid, rng)
        transitions = []
        done = False
        while not done:
            features, claims = user.features, user.bonuses_collected
            if noise > 0 and rng.random() < noise:
                # the one integer draw of rng.choice(eligible[claims])
                a = eligible[claims][rng.integers(0, len(eligible[claims]))]
            else:
                a = table_action(table, n_segments, features, claims)
            reward, done = step(user, a)
            transitions.append(Transition(
                user_id=uid, t=claims + 1,
                state=StateVector(tuple(features), day_in_cycle=claims + 1,
                                  bonuses_collected=claims),
                action_index=a, reward=reward, cost_cents=cost_cents[a], done=done))
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


# ---------------------------------------------------------------------------
# Config file (single JSON document holding env + behavior + action set)


def config_to_dict(env_config: EnvConfig, behavior: BehaviorPolicyConfig,
                   actions: ActionSet) -> dict:
    return {
        "actions": actions.to_dict(),
        "env": {
            "segments": [asdict(s) for s in env_config.segments],
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
    """Build a config from its JSON document. A key that no level knows, a
    missing required key, a list field that is not a list and a behavior
    table that does not fit the menu are refused."""
    checked_keys(doc, ("actions", "env", "behavior"), "config", required=("actions", "env"))
    actions = ActionSet.from_dict(doc["actions"])
    e = checked_keys(doc["env"], field_names(EnvConfig) | FIXED_ENV_KEYS.keys(), "env",
                     required=("segments",))
    for key, value in FIXED_ENV_KEYS.items():
        if e.get(key, value) != value:
            raise ValueError(f"env.{key} must be {value}, got {e[key]!r}")
    required = [f.name for f in fields(SegmentParams) if f.default is MISSING]
    weights = e.get("segment_weights")  # null or [] means equal weights
    env_config = EnvConfig(
        segments=tuple(SegmentParams(**checked_keys(s, field_names(SegmentParams), "segment",
                                                    required))
                       for s in checked_list(e["segments"], "env.segments")),
        segment_weights=None if weights is None else (
            tuple(checked_list(weights, "env.segment_weights")) or None),
        feature_noise=e.get("feature_noise", 0.05),
    )
    b = doc.get("behavior")
    if b is None:
        table = default_behavior_table(env_config.n_segments, actions)
        behavior = BehaviorPolicyConfig(table=table)
    else:
        checked_keys(b, field_names(BehaviorPolicyConfig), "behavior", required=("table",))
        rows = checked_list(b["table"], "behavior.table")
        behavior = BehaviorPolicyConfig(
            table=tuple(tuple(checked_list(r, "behavior.table row")) for r in rows),
            noise=b.get("noise", 0.1))
        check_claim_table(behavior.table, actions)
    return env_config, behavior, actions


def load_config(path: str | Path) -> tuple[EnvConfig, BehaviorPolicyConfig, ActionSet]:
    return config_from_dict(load_json(path))


def default_config() -> tuple[EnvConfig, BehaviorPolicyConfig, ActionSet]:
    actions = ActionSet.default()
    env_config = EnvConfig.default()
    behavior = BehaviorPolicyConfig(
        table=default_behavior_table(env_config.n_segments, actions), noise=0.15)
    return env_config, behavior, actions
