"""The simulator against the one-user-at-a-time reference in reference_envsim.py:
logs, reports, λ timelines and the day's network inputs must agree bit for bit."""

import numpy as np
import pytest

import reference_envsim as ref
from budgetrl.allocator import WindowStore
from budgetrl.baselines import CheapestPolicy, train_reward_model
from budgetrl.bcq import BcqPolicy, bcq_train
from budgetrl.core import ActionSet, HyperParams
from budgetrl.envsim import (BehaviorPolicyConfig, CheckinEnv, EnvConfig, SegmentParams,
                            default_behavior_table, generate_dataset)
from budgetrl.evaluation import simulate_online

SMALL_ACTIONS = ActionSet(normal_cents=(65, 87, 105), super_cents=(172,))
MENUS = {"default": ActionSet.default(), "small": SMALL_ACTIONS}
ENVS = {
    # feature noise 0.05, uniform weights, no carryover or retention noise
    "default": EnvConfig.default(),
    # retention noise (an extra draw per claim), carryover of both signs, a zero weight
    "noisy": EnvConfig(segments=(SegmentParams(0.6, 0.5, 0.2, carryover=0.8, noise_scale=0.4),
                                 SegmentParams(-1.0, 2.0, 0.3, carryover=-0.5, noise_scale=1.1),
                                 SegmentParams(-0.3, 1.0, 0.25)),
                       segment_weights=(0.5, 0.2, 0.0), feature_noise=0.1),
    # no feature noise draw at all; integer weights, the first of them zero
    "plain": EnvConfig(segments=(SegmentParams(0.8, 0.4, 0.25, carryover=1.2),
                                 SegmentParams(-1.0, 2.2, 0.25),
                                 SegmentParams(-0.3, 1.0, 0.25, carryover=1.2)),
                       segment_weights=(0, 1, 3), feature_noise=0.0),
}


def same_bits(a, b) -> bool:
    """Equal, and equal in repr: a float's repr round-trips its bits, and tells -0.0 from 0.0."""
    return a == b and repr(a) == repr(b)


@pytest.mark.parametrize("n_users", [0, 120])
@pytest.mark.parametrize("noise", [0.0, 0.15, 1.0])
@pytest.mark.parametrize("menu", MENUS)
@pytest.mark.parametrize("env_name", ENVS)
def test_generate_dataset_matches_reference(env_name, menu, noise, n_users):
    actions = MENUS[menu]
    env = CheckinEnv(ENVS[env_name], actions)
    behavior = BehaviorPolicyConfig(default_behavior_table(3, actions), noise=noise)
    got = generate_dataset(env, behavior, n_users, seed=21)
    assert same_bits(got, ref.generate_dataset(env, behavior, n_users, seed=21))
    assert len(got) == n_users


@pytest.fixture(scope="module")
def policies():
    """A small BCQ agent and reward model per menu, trained on default-env logs."""
    hyper = HyperParams(training_steps=60, hidden_sizes=(16, 16), learning_rate=0.01,
                        optimizer="adam", seed=4)
    out = {}
    for menu, actions in MENUS.items():
        env = CheckinEnv(EnvConfig.default(), actions)
        behavior = BehaviorPolicyConfig(default_behavior_table(3, actions), noise=0.3)
        logs = generate_dataset(env, behavior, 200, seed=8)
        out[menu] = {"bcq": BcqPolicy(bcq_train(logs, actions, hyper)),
                     "reward": train_reward_model(logs, actions, hyper),
                     "cheapest": CheapestPolicy(actions)}
    return out


class Recording:
    """Wraps a policy and keeps a copy of every ``q_rows`` input."""

    def __init__(self, policy):
        self.policy = policy
        self.calls = []

    def q_rows(self, x, claims):
        self.calls.append((np.array(x, copy=True), list(claims)))
        return self.policy.q_rows(x, claims)

    def action(self, state):
        return self.policy.action(state)


@pytest.mark.parametrize("arrivals", [0, 40])
@pytest.mark.parametrize("policy_name, budgeted", [
    ("bcq", True), ("bcq", False), ("reward", True), ("reward", False), ("cheapest", False)])
@pytest.mark.parametrize("menu", MENUS)
@pytest.mark.parametrize("env_name", ENVS)
def test_simulate_online_matches_reference(policies, env_name, menu, policy_name, budgeted,
                                           arrivals):
    actions = MENUS[menu]
    env = CheckinEnv(ENVS[env_name], actions)
    runs = []
    for simulate in (simulate_online, ref.simulate_online):
        policy = Recording(policies[menu][policy_name])
        store = WindowStore(actions.all_cents, budget_cents=87) if budgeted else None
        report = simulate(env, policy, store, 5, arrivals, seed=31)
        runs.append((report, policy.calls, store))
    (got, got_calls, got_store), (want, want_calls, want_store) = runs
    assert same_bits(got, want)
    assert got.matched_trajectories == 5 * arrivals
    assert (got.matched_steps > 0) == (arrivals > 0)
    # the day's input matrix is states_to_inputs of the day's states, bit for bit
    assert len(got_calls) == len(want_calls) == (5 if budgeted and arrivals else 0)
    for (x, claims), (x_ref, claims_ref) in zip(got_calls, want_calls):
        assert x.dtype == x_ref.dtype and x.shape == x_ref.shape
        assert x.tobytes() == x_ref.tobytes() and claims == claims_ref
    if budgeted:
        assert len(got_store) == len(want_store)
        assert got_store.infeasible_refreshes == want_store.infeasible_refreshes
