"""Policy evaluation: matched-record scoring on logged data, and a virtual-time
online simulation that exercises the sliding-window allocator end to end.

Matched-record evaluation keeps, per trajectory, the longest prefix on which
the evaluated policy would have taken exactly the logged actions, and scores
retention and cost on those steps only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .allocator import WindowStore
from .core import Trajectory, units
from .envsim import CheckinEnv


class UndefinedMetricError(ValueError):
    """No matched steps: the metric denominator is zero."""


@dataclass(frozen=True)
class MatchedSet:
    """Trajectory prefixes on which the policy agrees with the log."""

    trajectories: tuple[Trajectory, ...]
    total_trajectories: int

    @property
    def matched_trajectories(self) -> int:
        return len(self.trajectories)

    @property
    def matched_steps(self) -> int:
        return sum(len(t) for t in self.trajectories)

    @property
    def match_rate(self) -> float:
        if self.total_trajectories == 0:
            return 0.0
        return self.matched_trajectories / self.total_trajectories


@dataclass
class EvalReport:
    retention_rate: float
    avg_cost_units: float
    matched_trajectories: int
    matched_steps: int
    per_day: list[dict] = field(default_factory=list)
    lambda_timeline: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "retention_rate": self.retention_rate,
            "avg_cost_units": self.avg_cost_units,
            "matched_trajectories": self.matched_trajectories,
            "matched_steps": self.matched_steps,
            "per_day": self.per_day,
            "lambda_timeline": self.lambda_timeline,
        }


def match_records(dataset: Sequence[Trajectory], policy,
                  full_trajectory: bool = False) -> MatchedSet:
    """Keep each trajectory's maximal matching prefix (or all-or-nothing when
    ``full_trajectory`` is set); a trajectory drops out at its first mismatch."""
    kept = []
    for traj in dataset:
        n_match = 0
        for tr in traj.transitions:
            if policy.action(tr.state) != tr.action_index:
                break
            n_match += 1
        if full_trajectory and n_match < len(traj):
            continue
        if n_match > 0:
            kept.append(traj if n_match == len(traj)
                        else Trajectory(traj.transitions[:n_match]))
    return MatchedSet(trajectories=tuple(kept), total_trajectories=len(dataset))


def retention_rate(matched: MatchedSet) -> float:
    """Total logged reward over total matched steps."""
    steps = matched.matched_steps
    if steps == 0:
        raise UndefinedMetricError("no matched steps")
    return sum(t.total_reward() for t in matched.trajectories) / steps


def avg_cost(matched: MatchedSet) -> float:
    """Total logged cost over total matched steps, in currency units."""
    steps = matched.matched_steps
    if steps == 0:
        raise UndefinedMetricError("no matched steps")
    return units(sum(t.total_cost_cents() for t in matched.trajectories)) / steps


def offline_report(matched: MatchedSet) -> EvalReport:
    return EvalReport(
        retention_rate=retention_rate(matched),
        avg_cost_units=avg_cost(matched),
        matched_trajectories=matched.matched_trajectories,
        matched_steps=matched.matched_steps,
    )


# ---------------------------------------------------------------------------
# Online simulation in virtual time

DAY_SECONDS = 24 * 3600.0


def simulate_online(env: CheckinEnv, policy, store: WindowStore | None,
                    n_days: int, arrivals_per_day: int, seed: int) -> EvalReport:
    """Drive arrivals, decisions, and multiplier refreshes on a virtual clock.

    Each day ``arrivals_per_day`` fresh users start a cycle; survivors return
    the next day for their next claim. With a store, decisions go through
    ``allocate_online`` at the current multiplier snapshot and refresh ticks
    fire every ``store.refresh_period`` seconds; without one, the policy's
    direct action is used. Deterministic per seed.
    """
    active: list = []
    per_day: list[dict] = []
    lam_timeline: list[dict] = []
    total_rewards = 0
    total_steps = 0
    total_cost_cents = 0
    next_refresh = store.refresh_period if store is not None else None
    next_user_id = 0

    for day in range(n_days):
        children = np.random.SeedSequence((seed, day)).spawn(arrivals_per_day)
        for child in children:
            rng = np.random.default_rng(child)
            active.append(env.spawn_user(next_user_id, rng))
            next_user_id += 1

        day_cost_cents = 0
        day_rewards = 0
        day_claims = len(active)
        survivors = []
        for slot, user in enumerate(active):
            ts = day * DAY_SECONDS + (slot + 1) * DAY_SECONDS / (day_claims + 1)
            if store is not None:
                while next_refresh <= ts:
                    lam = store.window_refresh(next_refresh)
                    lam_timeline.append({"ts": next_refresh, "lam": lam,
                                         "window": len(store)})
                    next_refresh += store.refresh_period
                action = store.allocate_online(policy.q_row(user.state), ts)
            else:
                action = policy.action(user.state)
            reward, _, done = env.step(user, action)
            day_cost_cents += env.actions.cost_cents(action)
            day_rewards += reward
            if not done:
                survivors.append(user)
        active = survivors

        per_day.append({
            "day": day,
            "claims": day_claims,
            "retention": day_rewards / day_claims if day_claims else 0.0,
            "avg_cost_units": units(day_cost_cents) / day_claims if day_claims else 0.0,
            "lam": store.lambda_snapshot if store is not None else 0.0,
        })
        total_rewards += day_rewards
        total_steps += day_claims
        total_cost_cents += day_cost_cents

    return EvalReport(
        retention_rate=total_rewards / total_steps if total_steps else 0.0,
        avg_cost_units=units(total_cost_cents) / total_steps if total_steps else 0.0,
        matched_trajectories=next_user_id,
        matched_steps=total_steps,
        per_day=per_day,
        lambda_timeline=lam_timeline,
    )
