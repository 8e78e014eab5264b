"""Policy evaluation: matched-record scoring on logged data, and a virtual-time
online simulation that exercises the sliding-window allocator end to end.

Each kind of run has one report, which the CLI writes as it is:

- ``EvalReport``, the offline score that ``offline_report`` makes of a
  ``MatchedSet``. Matched-record evaluation counts, per trajectory, the
  longest prefix on which the evaluated policy would have taken exactly the
  logged actions, and scores retention and cost on those steps only; with no
  matched step both rates are None.
- ``SimReport``, the online run that ``simulate_online`` returns: retention
  and cost over every claim, the per-day rows, the store's multiplier
  timeline and its count of infeasible refreshes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .allocator import WindowStore
from .bcq import states_to_inputs
from .core import Trajectory, units
from .envsim import CheckinEnv, UserSim, _spawn_generators


@dataclass(frozen=True)
class MatchedSet:
    """Counts over the trajectory prefixes on which the policy agrees with the log:
    how many prefixes and steps were kept, and their logged reward and cost."""

    matched_trajectories: int
    matched_steps: int
    rewards: int
    cost_cents: int
    total_trajectories: int


@dataclass
class EvalReport:
    """The offline score: retention and cost per matched step (None when no
    step matched), the matched counts, and the share of the log's
    trajectories that matched."""

    retention_rate: float | None
    avg_cost_units: float | None
    matched_trajectories: int
    matched_steps: int
    match_rate: float
    total_trajectories: int


@dataclass
class SimReport:
    """The online run: retention and cost over every claim, the users started
    (``matched_trajectories``) and the claims made (``matched_steps``), one row
    per day, the store's multiplier timeline and its count of refreshes that no
    multiplier fitted into the budget (None without a store)."""

    retention_rate: float
    avg_cost_units: float
    matched_trajectories: int
    matched_steps: int
    per_day: list[dict]
    lambda_timeline: list[dict]
    infeasible_refreshes: int | None


def match_records(dataset: Sequence[Trajectory], policy,
                  full_trajectory: bool = False) -> MatchedSet:
    """Count each trajectory's maximal matching prefix (or all-or-nothing when
    ``full_trajectory`` is set); a trajectory drops out at its first mismatch.

    Calls ``policy.action(state)`` exactly once per decision, in log order, and
    stops a trajectory at its first mismatch. Stateful policies
    (``UniformRandomPolicy`` draws from its own stream) and wrappers that stamp
    each decision rely on this order and count, so the calls stay one state at
    a time until such wrappers can stamp a batch of decisions."""
    trajectories = steps = rewards = cost_cents = 0
    for traj in dataset:
        n_match = reward = cost = 0
        for tr in traj:
            if policy.action(tr.state) != tr.action_index:
                break
            n_match += 1
            reward += tr.reward
            cost += tr.cost_cents
        if n_match == 0 or (full_trajectory and n_match < len(traj)):
            continue
        trajectories, steps = trajectories + 1, steps + n_match
        rewards, cost_cents = rewards + reward, cost_cents + cost
    return MatchedSet(matched_trajectories=trajectories, matched_steps=steps,
                      rewards=rewards, cost_cents=cost_cents, total_trajectories=len(dataset))


def offline_report(matched: MatchedSet) -> EvalReport:
    """Retention and cost per matched step: total logged reward, and total logged
    cost in currency units, over the matched steps; both None when no step matched."""
    steps, total = matched.matched_steps, matched.total_trajectories
    return EvalReport(
        retention_rate=matched.rewards / steps if steps else None,
        avg_cost_units=units(matched.cost_cents) / steps if steps else None,
        matched_trajectories=matched.matched_trajectories,
        matched_steps=steps,
        match_rate=matched.matched_trajectories / total if total else 0.0,
        total_trajectories=total,
    )


# ---------------------------------------------------------------------------
# Online simulation in virtual time

DAY_SECONDS = 24 * 3600.0


def check_run_length(n_days: int, arrivals_per_day: int) -> None:
    """The ``simulate_online`` run length: a negative ``n_days`` or
    ``arrivals_per_day`` is a ValueError."""
    if n_days < 0 or arrivals_per_day < 0:
        raise ValueError(f"n_days and arrivals_per_day must be >= 0, not {n_days} "
                         f"and {arrivals_per_day}")


def simulate_online(env: CheckinEnv, policy, store: WindowStore | None,
                    n_days: int, arrivals_per_day: int, seed: int) -> SimReport:
    """Drive arrivals, decisions, and multiplier refreshes on a virtual clock.

    Each day ``arrivals_per_day`` fresh users start a cycle through
    ``env.spawn_user``, seeded by ``_spawn_generators((seed, day),
    arrivals_per_day)``; survivors return the next day for their next claim,
    ahead of the new arrivals. Every claim is one ``env.step``, so each user
    draws only from their own generator, in the order the ``envsim`` docstring
    gives, and the run is deterministic per seed. A user's state is fixed from
    the start of the day until their claim, so with a store the day's network
    inputs are ``states_to_inputs(users)``, one matrix built from the users'
    fields, ``policy.q_rows(x, claims)`` scores it in one call and
    ``store.admit`` checks and caches the rows once; each claim then calls
    ``store.advance`` and ``allocate_online`` once each on its admitted row, in
    arrival order. The store's clock starts at day 0, so a store whose clock
    has already started is a ValueError; the report's ``lambda_timeline`` and
    ``infeasible_refreshes`` are the store's. Without a store, the policy's
    direct action on the user is used: a ``UserSim`` holds the ``features``,
    ``day_in_cycle`` and ``bonuses_collected`` that a policy reads of a state.
    A negative ``n_days`` or ``arrivals_per_day`` is a ValueError, raised
    before any work.
    """
    check_run_length(n_days, arrivals_per_day)
    cost_cents = env.actions.all_cents
    step = env.step
    users: list[UserSim] = []
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
        for rng in _spawn_generators((seed, day), arrivals_per_day):
            users.append(env.spawn_user(n_users, rng))
            n_users += 1

        day_cost_cents = 0
        day_rewards = 0
        day_claims = len(users)
        if store is not None and day_claims:
            day_rows = store.admit(policy.q_rows(states_to_inputs(users),
                                                 [u.bonuses_collected for u in users]))
        for slot, user in enumerate(users):
            ts = day * DAY_SECONDS + (slot + 1) * DAY_SECONDS / (day_claims + 1)
            if store is not None:
                store.advance(ts)
                action = store.allocate_online(day_rows[slot], ts)
            else:
                action = policy.action(user)
            day_rewards += step(user, action)[0]
            day_cost_cents += cost_cents[action]
        users = [u for u in users if not u.done]

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

    return SimReport(
        retention_rate=total_rewards / total_steps if total_steps else 0.0,
        avg_cost_units=units(total_cost_cents) / total_steps if total_steps else 0.0,
        matched_trajectories=n_users,
        matched_steps=total_steps,
        per_day=per_day,
        lambda_timeline=store.timeline if store is not None else [],
        infeasible_refreshes=store.infeasible_refreshes if store is not None else None,
    )
