"""Policy evaluation: matched-record scoring on logged data, and a virtual-time
online simulation that exercises the sliding-window allocator end to end.

Matched-record evaluation keeps, per trajectory, the longest prefix on which
the evaluated policy would have taken exactly the logged actions, and scores
retention and cost on those steps only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .allocator import WindowStore
from .bcq import network_inputs
from .core import CLAIMS_PER_CYCLE, StateVector, Trajectory, units
from .envsim import CheckinEnv, _spawn_generators


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


class _Users:
    """Simulated users as parallel columns, one entry per user."""

    __slots__ = ("segment", "claims", "last_action", "cost_sum", "rng", "features")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, [])

    def add(self, segment: int, claims: int, last_action: int, cost_sum: int, rng,
            features: list[float]) -> None:
        self.segment.append(segment)
        self.claims.append(claims)
        self.last_action.append(last_action)
        self.cost_sum.append(cost_sum)
        self.rng.append(rng)
        self.features.append(features)


def simulate_online(env: CheckinEnv, policy, store: WindowStore | None,
                    n_days: int, arrivals_per_day: int, seed: int) -> EvalReport:
    """Drive arrivals, decisions, and multiplier refreshes on a virtual clock.

    Each day ``arrivals_per_day`` fresh users start a cycle, seeded by
    ``_spawn_generators((seed, day), arrivals_per_day)``; survivors return the
    next day for their next claim, ahead of the new arrivals. Each user draws
    only from their own generator, in the order the ``envsim`` docstring gives,
    so the run is deterministic per seed. A day's users are held as parallel
    columns: segment, claims made, last action, cost so far, generator and
    feature row. A user's state is fixed from the start of the day until their
    claim, so with a store the day's network inputs are built as one matrix,
    ``policy.q_rows(x, claims)`` scores it in one call and ``store.admit``
    checks and caches the rows once; each claim then calls ``store.advance``
    and ``allocate_online`` once each on its admitted row, in arrival order.
    The store's clock starts at day 0, so a store whose clock has already
    started is a ValueError; the report's ``lambda_timeline`` is the store's
    timeline. Without a store, the policy's direct action on the user's
    ``StateVector`` is used.
    """
    cost_cents = env.actions.all_cents
    users = _Users()
    per_day: list[dict] = []
    n_users = 0
    total_rewards = 0
    total_steps = 0
    total_cost_cents = 0
    if store is not None:
        if store._next_tick is not None:
            raise ValueError("the window store's refresh clock has already started; "
                             "simulate_online needs a new store")
        store.advance(0.0)

    for day in range(n_days):
        arrivals = _spawn_generators((seed, day), arrivals_per_day)
        n_users += len(arrivals)
        for rng in arrivals:
            segment = env.draw_segment(rng)
            users.add(segment, 0, -1, 0, rng, env.feature_row(rng, segment, 0, -1, 0))

        day_cost_cents = 0
        day_rewards = 0
        day_claims = len(users.rng)
        claims = users.claims
        if store is not None and day_claims:
            x = network_inputs(users.features, [k + 1 for k in claims], claims)
            day_rows = store.admit(policy.q_rows(x, claims))
        survivors = _Users()
        for slot in range(day_claims):
            ts = day * DAY_SECONDS + (slot + 1) * DAY_SECONDS / (day_claims + 1)
            segment, k, rng = users.segment[slot], claims[slot], users.rng[slot]
            if store is not None:
                store.advance(ts)
                action = store.allocate_online(day_rows[slot], ts)
            else:
                action = policy.action(StateVector(tuple(users.features[slot]),
                                                   day_in_cycle=k + 1, bonuses_collected=k))
            reward = env.claim(rng, segment, action, k, users.last_action[slot])
            day_cost_cents += cost_cents[action]
            day_rewards += reward
            k += 1
            if reward and k < CLAIMS_PER_CYCLE:
                cost_sum = users.cost_sum[slot] + cost_cents[action]
                survivors.add(segment, k, action, cost_sum, rng,
                              env.feature_row(rng, segment, k, action, cost_sum))
        users = survivors

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
        matched_trajectories=n_users,
        matched_steps=total_steps,
        per_day=per_day,
        lambda_timeline=store.timeline if store is not None else [],
    )
