"""The simulator written one ``UserSim`` at a time, as it was before the per-user
kernel and the day columns: each user is spawned, observed and stepped through
numpy arrays, ``rng.choice`` draws the segment and the noisy behavior action,
and every generator comes from ``np.random.SeedSequence(...).spawn``.

Tests hold ``envsim.generate_dataset`` and ``evaluation.simulate_online`` to
these bit for bit. Only the retention parameters, the menu and the claim masks
are read from the package.
"""

from __future__ import annotations

import numpy as np

from budgetrl.bcq import states_to_inputs
from budgetrl.core import (CLAIMS_PER_CYCLE, StateVector, Trajectory, Transition,
                           day_mask_indices, units)
from budgetrl.envsim import PROB_CLAMP, IneligibleActionError, sigmoid
from budgetrl.evaluation import DAY_SECONDS, EvalReport


class UserSim:
    """A user's latent segment, cycle counters and current ``StateVector``."""

    __slots__ = ("user_id", "segment", "day_in_cycle", "bonuses_collected",
                 "last_action", "cost_sum_cents", "rng", "state", "done")

    def __init__(self, user_id: int, segment: int, rng):
        self.user_id = user_id
        self.segment = segment
        self.day_in_cycle = 1
        self.bonuses_collected = 0
        self.last_action = -1
        self.cost_sum_cents = 0
        self.rng = rng
        self.state: StateVector | None = None
        self.done = False


def retention_logit(env, segment, action_index, streak, last_action=-1):
    seg = env.config.segments[segment]
    logit = (seg.base_logit
             + seg.bonus_sensitivity * env.actions.cost_units(action_index)
             + seg.streak_bonus * streak)
    if last_action >= 0 and seg.carryover != 0.0:
        logit += seg.carryover * env.actions.cost_units(last_action)
    return logit


def observe(env, user: UserSim) -> StateVector:
    n = env.config.n_segments
    feats = np.zeros(env.config.feature_dim)
    feats[user.segment] = 1.0
    if env.config.feature_noise > 0:
        feats[:n] += user.rng.normal(0.0, env.config.feature_noise, size=n)
    if user.last_action >= 0:
        feats[n] = env.actions.cost_units(user.last_action)
        feats[n + 1] = (user.cost_sum_cents / user.bonuses_collected) / 100.0
    return StateVector(tuple(float(v) for v in feats), day_in_cycle=user.day_in_cycle,
                       bonuses_collected=user.bonuses_collected)


def spawn_user(env, user_id: int, rng) -> UserSim:
    segment = int(rng.choice(env.config.n_segments, p=env.config.weights_array()))
    user = UserSim(user_id, segment, rng)
    user.state = observe(env, user)
    return user


def step(env, user: UserSim, action_index: int):
    if not (0 <= action_index < env.actions.size
            and action_index in day_mask_indices(env.actions, user.bonuses_collected)):
        raise IneligibleActionError(
            f"action {action_index} not eligible at claim {user.bonuses_collected + 1}")
    seg = env.config.segments[user.segment]
    logit = retention_logit(env, user.segment, action_index, streak=user.bonuses_collected,
                            last_action=user.last_action)
    if seg.noise_scale > 0:
        logit += user.rng.normal(0.0, seg.noise_scale)
    p = min(max(sigmoid(logit), PROB_CLAMP), 1.0 - PROB_CLAMP)
    reward = int(user.rng.random() < p)

    user.bonuses_collected += 1
    user.day_in_cycle += 1
    user.last_action = action_index
    user.cost_sum_cents += env.actions.cost_cents(action_index)
    done = reward == 0 or user.bonuses_collected >= CLAIMS_PER_CYCLE
    user.done = done
    user.state = None if done else observe(env, user)
    return reward, done


def generate_dataset(env, behavior, n_users: int, seed: int) -> list[Trajectory]:
    children = np.random.SeedSequence(seed).spawn(n_users)
    n = env.config.n_segments
    trajectories = []
    for uid in range(n_users):
        rng = np.random.default_rng(children[uid])
        user = spawn_user(env, uid, rng)
        transitions = []
        while not user.done:
            state = user.state
            if behavior.noise > 0 and rng.random() < behavior.noise:
                a = int(rng.choice(day_mask_indices(env.actions, state.bonuses_collected)))
            else:
                proxy = int(np.argmax(state.to_array()[:n]))
                a = behavior.table[proxy % len(behavior.table)][state.bonuses_collected]
            reward, done = step(env, user, a)
            transitions.append(Transition(
                user_id=uid, t=len(transitions) + 1, state=state, action_index=a,
                reward=reward, cost_cents=env.actions.cost_cents(a), done=done))
        trajectories.append(tuple(transitions))
    return trajectories


def simulate_online(env, policy, store, n_days: int, arrivals_per_day: int,
                    seed: int) -> EvalReport:
    """With a store, each non-empty day's Q rows come from one
    ``policy.q_rows(states_to_inputs(states), claims)`` call on the day's states."""
    active: list = []
    per_day: list[dict] = []
    total_rewards = total_steps = total_cost_cents = next_user_id = 0
    if store is not None:
        store.advance(0.0)
    for day in range(n_days):
        for child in np.random.SeedSequence((seed, day)).spawn(arrivals_per_day):
            active.append(spawn_user(env, next_user_id, np.random.default_rng(child)))
            next_user_id += 1
        day_cost_cents = day_rewards = 0
        day_claims = len(active)
        if store is not None and active:
            states = [user.state for user in active]
            day_rows = store.admit(policy.q_rows(
                states_to_inputs(states), [s.bonuses_collected for s in states]))
        survivors = []
        for slot, user in enumerate(active):
            ts = day * DAY_SECONDS + (slot + 1) * DAY_SECONDS / (day_claims + 1)
            if store is not None:
                store.advance(ts)
                action = store.allocate_online(day_rows[slot], ts)
            else:
                action = policy.action(user.state)
            reward, done = step(env, user, action)
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
        lambda_timeline=store.timeline if store is not None else [],
    )
