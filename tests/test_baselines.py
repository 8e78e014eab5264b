import math
from dataclasses import replace

import numpy as np
import pytest

from budgetrl.allocator import AllocationProblem, solve_and_assign
from budgetrl.baselines import (
    CheapestPolicy,
    ExpertPolicy,
    RewardModel,
    UniformRandomPolicy,
    _pair_inputs,
    train_reward_model,
)
from budgetrl.bcq import state_to_input, states_to_inputs, transition_arrays
from budgetrl.core import (
    ActionSet,
    HyperParams,
    StateVector,
    Transition,
    day_mask_indices,
    flatten,
)
from budgetrl.envsim import (
    BehaviorPolicyConfig,
    CheckinEnv,
    EnvConfig,
    IneligibleActionError,
    SegmentParams,
    default_behavior_table,
    generate_dataset,
    oracle_value_iteration,
)
from budgetrl.nets import Mlp, softmax

ACTIONS = ActionSet(normal_cents=(65, 87, 105), super_cents=(172,))
FAST = HyperParams(training_steps=800, hidden_sizes=(32, 32), learning_rate=0.01,
                   optimizer="adam", seed=3)


def state(d=2, day=1, bonuses=0, fill=0.5):
    return StateVector(tuple([fill] * d), day_in_cycle=day, bonuses_collected=bonuses)


def constant_model(prob_by_action, actions=ACTIONS, d=2):
    """Reward model emitting a fixed retention probability per action."""
    n_in = state_to_input(state(d=d)).size + actions.size
    net = Mlp([n_in, 2])
    # logit of class 1 equals w . onehot(action); chosen to hit the target probs
    for j, p in enumerate(prob_by_action):
        net.weights[0][1, n_in - actions.size + j] = math.log(p / (1 - p))
    return RewardModel(net=net, actions=actions)


class TestTrainRewardModel:
    def test_constant_reward_one(self):
        rng = np.random.default_rng(0)
        trajs = []
        for uid in range(60):
            s = state(fill=float(rng.random()))
            a = int(rng.integers(0, 3))
            trajs.append((Transition(uid, 1, s, a, 1, ACTIONS.cost_cents(a), True),))
        model = train_reward_model(trajs, ACTIONS, FAST)
        for traj in trajs[:20]:
            tr = traj[0]
            assert model.q_row(tr.state)[tr.action_index] >= 0.95

    def test_holdout_logloss_near_bayes(self):
        # noise-free features make the true probability recoverable per record
        segs = (SegmentParams(0.6, 0.6, 0.2), SegmentParams(-0.6, 1.8, 0.2))
        cfg = EnvConfig(segments=segs, feature_noise=0.0)
        env = CheckinEnv(cfg, ACTIONS)
        behavior = BehaviorPolicyConfig(table=default_behavior_table(2, ACTIONS), noise=0.5)
        train = generate_dataset(env, behavior, 2500, seed=1)
        held_out = generate_dataset(env, behavior, 600, seed=2)
        model = train_reward_model(train, ACTIONS, replace(FAST, training_steps=2500, seed=4))

        model_ll, bayes_ll, n = 0.0, 0.0, 0
        for traj in held_out:
            last = -1
            for tr in traj:
                seg = int(np.argmax(tr.state.to_array()[:2]))
                p_true = env.retention_probability(seg, tr.action_index,
                                                   tr.state.bonuses_collected, last)
                p_hat = np.clip(model.q_row(tr.state)[tr.action_index], 1e-12, 1 - 1e-12)
                model_ll -= tr.reward * math.log(p_hat) + (1 - tr.reward) * math.log(1 - p_hat)
                bayes_ll -= tr.reward * math.log(p_true) + (1 - tr.reward) * math.log(1 - p_true)
                last = tr.action_index
                n += 1
        assert model_ll / n <= 1.10 * (bayes_ll / n)

    def test_separable_feature_auc(self):
        # feature value alone decides the reward
        rng = np.random.default_rng(5)
        trajs = []
        for uid in range(400):
            r = int(rng.random() < 0.5)
            s = state(fill=float(r))
            a = int(rng.integers(0, 3))
            trajs.append((Transition(uid, 1, s, a, r, ACTIONS.cost_cents(a), True),))
        model = train_reward_model(trajs, ACTIONS, replace(FAST, training_steps=1200))
        scores, labels = [], []
        for traj in trajs:
            tr = traj[0]
            scores.append(model.q_row(tr.state)[tr.action_index])
            labels.append(tr.reward)
        scores, labels = np.asarray(scores), np.asarray(labels)
        pos, neg = scores[labels == 1], scores[labels == 0]
        auc = np.mean(pos[:, None] > neg[None, :]) + 0.5 * np.mean(pos[:, None] == neg[None, :])
        assert auc >= 0.99

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_reward_model([], ACTIONS, FAST)


def old_pair_input(state, action_index, n_actions):
    """The per-row reward-model input that ``_pair_inputs`` replaced (reference)."""
    onehot = np.zeros(n_actions)
    onehot[action_index] = 1.0
    return np.concatenate([state_to_input(state), onehot])


class TestPairInputs:
    def test_training_inputs_match_per_row_stack(self):
        segs = (SegmentParams(0.6, 0.6, 0.2), SegmentParams(-0.6, 1.8, 0.2))
        env = CheckinEnv(EnvConfig(segments=segs), ACTIONS)
        behavior = BehaviorPolicyConfig(table=default_behavior_table(2, ACTIONS), noise=0.5)
        dataset = generate_dataset(env, behavior, 60, seed=5)
        data = transition_arrays(dataset)
        expected = np.stack([old_pair_input(tr.state, tr.action_index, ACTIONS.size)
                             for tr in flatten(dataset)])
        np.testing.assert_array_equal(_pair_inputs(data.x, data.action, ACTIONS.size), expected)

    def test_q_row_reads_the_same_inputs(self):
        rng = np.random.default_rng(7)
        net = Mlp([state_to_input(state()).size + ACTIONS.size, 8, 2], rng=rng)
        model = RewardModel(net=net, actions=ACTIONS)
        for bonuses in range(4):
            s = state(fill=float(rng.random()), bonuses=bonuses, day=bonuses + 1)
            mask = day_mask_indices(ACTIONS, bonuses)
            x = np.stack([old_pair_input(s, a, ACTIONS.size) for a in mask])
            expected = np.full(ACTIONS.size, np.nan)
            expected[mask] = softmax(net.forward(x))[:, 1]
            np.testing.assert_array_equal(model.q_row(s), expected)

    def test_q_rows_agree_with_one_row_passes(self):
        menu = ActionSet.default()
        rng = np.random.default_rng(9)
        net = Mlp([state_to_input(state(d=3)).size + menu.size, 16, 2], rng=rng)
        model = RewardModel(net=net, actions=menu)
        states = [StateVector(tuple(rng.normal(size=3)), day_in_cycle=int(b) + 1,
                              bonuses_collected=int(b)) for b in rng.integers(0, 4, 300)]
        batch = model.q_rows(states_to_inputs(states), [s.bonuses_collected for s in states])
        rows = np.array([model.q_row(s) for s in states])
        np.testing.assert_array_equal(np.isnan(batch), np.isnan(rows))
        np.testing.assert_allclose(batch, rows, rtol=0, atol=1e-12)
        for s in states[:40]:
            one = model.q_rows(states_to_inputs([s]), [s.bonuses_collected])[0]
            assert model.q_row(s).tobytes() == one.tobytes()


class TestGreedyPolicy:
    def test_picks_best_prediction(self):
        model = constant_model([0.2, 0.9, 0.5, 0.5])
        assert model.action(state()) == 1

    def test_all_equal_breaks_to_cheapest(self):
        model = constant_model([0.4, 0.4, 0.4, 0.4])
        assert model.action(state()) == 0

    def test_final_claim_uses_super_set(self):
        model = constant_model([0.9, 0.9, 0.9, 0.2])
        assert model.action(state(bonuses=3, day=4)) == 3

    def test_within_mask_always(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            model = constant_model(rng.uniform(0.1, 0.9, size=4))
            bonuses = int(rng.integers(0, 4))
            a = model.action(state(bonuses=bonuses, day=bonuses + 1))
            assert a in day_mask_indices(ACTIONS, bonuses)

    def test_matches_brute_force_cheapest_tie(self):
        menu = ActionSet.default()
        rng = np.random.default_rng(8)
        for _ in range(60):
            # three distinct levels over twelve actions: most rows have ties
            model = constant_model(rng.choice([0.2, 0.5, 0.7], size=menu.size), actions=menu)
            bonuses = int(rng.integers(0, 4))
            s = state(bonuses=bonuses, day=bonuses + 1)
            row = model.q_row(s)
            finite = [j for j in range(menu.size) if np.isfinite(row[j])]
            best = max(row[j] for j in finite)
            expected = min((menu.cost_cents(j), j) for j in finite if row[j] == best)[1]
            assert model.action(s) == expected


class TestQMatrix:
    def test_single_state_single_action(self):
        actions = ActionSet(normal_cents=(87,), super_cents=(172,))
        model = constant_model([0.37, 0.5], actions=actions)
        mat = np.stack([model.q_row(state())])
        assert mat.shape == (1, 2)
        assert mat[0, 0] == pytest.approx(0.37, abs=1e-9)
        assert np.isnan(mat[0, 1])

    def test_min_budget_forces_cheapest(self):
        model = constant_model([0.3, 0.6, 0.9, 0.5])
        states = [state(fill=0.1 * i) for i in range(8)]  # all claim-1
        mat = np.stack([model.q_row(s) for s in states])
        problem = AllocationProblem(mat, ACTIONS.all_cents, budget_cents=65)
        result = solve_and_assign(problem)
        assert all(a == 0 for a in result.chosen)


class TestReferencePolicies:
    def test_expert_respects_mask_and_table(self):
        table = default_behavior_table(2, ACTIONS)
        policy = ExpertPolicy(table=table, n_segments=2, actions=ACTIONS)
        s = StateVector((0.1, 0.9), day_in_cycle=2, bonuses_collected=1)
        assert policy.action(s) == table[1][1]

    def test_expert_rejects_mask_violations(self):
        with pytest.raises(ValueError):
            ExpertPolicy(table=((3, 0, 0, 3),), n_segments=1, actions=ACTIONS)

    def test_expert_rejects_short_rows(self):
        # eligible claim by claim on the default menu, but one claim short
        with pytest.raises(IneligibleActionError):
            ExpertPolicy(table=((0, 1, 10),), n_segments=1, actions=ActionSet.default())

    def test_cheapest_policy(self):
        policy = CheapestPolicy(ACTIONS)
        assert policy.action(state()) == 0
        assert policy.action(state(bonuses=3, day=4)) == 3

    def test_random_policy_masked_and_seeded(self):
        p1 = UniformRandomPolicy(ACTIONS, seed=9)
        p2 = UniformRandomPolicy(ACTIONS, seed=9)
        picks1 = [p1.action(state(bonuses=i % 4, day=i % 4 + 1)) for i in range(40)]
        picks2 = [p2.action(state(bonuses=i % 4, day=i % 4 + 1)) for i in range(40)]
        assert picks1 == picks2
        for i, a in enumerate(picks1):
            assert a in day_mask_indices(ACTIONS, i % 4)


class TestMyopiaWitness:
    def test_greedy_disagrees_with_long_horizon_oracle(self):
        # flat immediate retention, strong carryover: today's generosity only
        # pays off tomorrow, which a one-step reward model cannot see
        segs = (SegmentParams(base_logit=0.0, bonus_sensitivity=0.0,
                              streak_bonus=0.0, carryover=3.0),)
        cfg = EnvConfig(segments=segs, feature_noise=0.0)
        actions = ActionSet(normal_cents=(65, 105), super_cents=(172,))
        env = CheckinEnv(cfg, actions)

        oracle = oracle_value_iteration(env, gamma=1.0)
        assert oracle.policy[(0, 0, -1)] == 1  # generous first bonus wins long-run

        behavior = BehaviorPolicyConfig(table=((0, 0, 0, 2),), noise=1.0)  # uniform logging
        dataset = generate_dataset(env, behavior, 1500, seed=11)
        model = train_reward_model(dataset, actions, replace(FAST, training_steps=1500, seed=11))
        first_claim_states = [t[0].state for t in dataset[:50]]
        greedy_picks = {model.action(s) for s in first_claim_states}
        assert oracle.policy[(0, 0, -1)] not in greedy_picks

