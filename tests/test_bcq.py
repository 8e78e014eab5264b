from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from budgetrl.bcq import (
    BcqAgent,
    BcqPolicy,
    _logged_action_agreement,
    bcq_train,
    behavior_argmax,
    behavior_probs,
    eligible_actions,
    input_size,
    policy_action,
    q_vector,
    state_to_input,
    train_behavior_model,
)
from budgetrl.core import (
    ActionSet,
    HyperParams,
    StateVector,
    Trajectory,
    Transition,
    day_mask_indices,
)
from budgetrl.envsim import (
    BehaviorPolicyConfig,
    CheckinEnv,
    EnvConfig,
    SegmentParams,
    default_behavior_table,
    generate_dataset,
)
from budgetrl.nets import Mlp, softmax

ACTIONS = ActionSet(normal_cents=(65, 87, 105), super_cents=(172,))
FAST = HyperParams(training_steps=600, hidden_sizes=(32, 32), learning_rate=0.01,
                   optimizer="adam", seed=1)


def const_net(n_inputs, logits):
    """Net with constant output: zero weights, logits as output biases."""
    net = Mlp([n_inputs, len(logits)])
    net.biases[0][:] = np.asarray(logits, dtype=float)
    return net


def state(d=2, day=1, bonuses=0, fill=0.5):
    return StateVector(tuple([fill] * d), day_in_cycle=day, bonuses_collected=bonuses)


def behavior_with_probs(probs, d=2):
    """Behavior model emitting the given action probabilities everywhere."""
    return const_net(input_size(d), np.log(np.asarray(probs)))


class TestEligibleActions:
    def test_hand_ratio_rule(self):
        # masked probs (0.6, 0.3, 0.1): ratios (1, 0.5, 0.1667); xi=0.3 keeps {0, 1}
        model = behavior_with_probs([0.6, 0.3, 0.1, 1e-9])
        mask = day_mask_indices(ACTIONS, 0)
        out = eligible_actions(model, state(), 0.3, mask)
        assert sorted(out.tolist()) == [0, 1]

    def test_xi_zero_keeps_all_masked(self):
        model = behavior_with_probs([0.6, 0.3, 0.1, 1e-9])
        out = eligible_actions(model, state(), 0.0, day_mask_indices(ACTIONS, 0))
        assert sorted(out.tolist()) == [0, 1, 2]

    def test_xi_one_keeps_argmax_only(self):
        model = behavior_with_probs([0.6, 0.3, 0.1, 1e-9])
        out = eligible_actions(model, state(), 1.0, day_mask_indices(ACTIONS, 0))
        assert out.tolist() == [0]

    def test_mask_applied_before_ratio(self):
        # action 3 (super) dominates, but on claim 1 only normal actions count
        model = behavior_with_probs([0.05, 0.15, 0.1, 0.7])
        out = eligible_actions(model, state(), 1.0, day_mask_indices(ACTIONS, 0))
        assert out.tolist() == [1]

    def test_empty_mask_rejected(self):
        model = behavior_with_probs([0.5, 0.5, 1e-12, 1e-12])
        with pytest.raises(ValueError):
            eligible_actions(model, state(), 0.5, np.array([], dtype=int))

    @given(st.floats(0, 1), st.floats(0, 1), st.integers(0, 1000))
    @settings(max_examples=100, deadline=None)
    def test_monotone_filtering_and_never_empty(self, xi1, xi2, seed):
        xi_lo, xi_hi = sorted([xi1, xi2])
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(4))
        model = behavior_with_probs(probs)
        mask = day_mask_indices(ACTIONS, int(rng.integers(0, 3)))
        wide = set(eligible_actions(model, state(), xi_lo, mask).tolist())
        narrow = set(eligible_actions(model, state(), xi_hi, mask).tolist())
        assert narrow <= wide
        assert len(narrow) >= 1


class TestBehaviorModel:
    def test_degenerate_single_action(self):
        # one action logged everywhere -> model puts it on top everywhere
        rng = np.random.default_rng(0)
        trajs = []
        for uid in range(40):
            s = state(fill=float(rng.random()))
            trajs.append(Trajectory((Transition(uid, 1, s, 1, 1, 87, None, True),)))
        model = train_behavior_model(trajs, ACTIONS, FAST)
        for traj in trajs:
            assert int(np.argmax(behavior_probs(model, traj.transitions[0].state))) == 1

    def test_mixed_70_30_probabilities(self):
        # one repeated state, two actions at 70/30
        rng = np.random.default_rng(1)
        s = state()
        trajs = []
        for uid in range(10_000):
            a = 0 if rng.random() < 0.7 else 1
            trajs.append(Trajectory((Transition(uid, 1, s, a, 1, ACTIONS.cost_cents(a), None, True),)))
        model = train_behavior_model(trajs, ACTIONS, FAST.replace(training_steps=1500))
        probs = behavior_probs(model, s)
        assert probs[0] == pytest.approx(0.7, abs=0.05)
        assert probs[1] == pytest.approx(0.3, abs=0.05)

    def test_deterministic_table_recovered(self):
        # zero-noise behavior is a function of (segment proxy, claim); the
        # classifier should hit >= 0.95 top-1 on held-out data
        segs = (SegmentParams(0.5, 0.5, 0.2), SegmentParams(-0.5, 1.5, 0.2))
        cfg = EnvConfig(segments=segs, feature_noise=0.02)
        env = CheckinEnv(cfg, ACTIONS)
        table = default_behavior_table(2, ACTIONS)
        behavior = BehaviorPolicyConfig(table=table, noise=0.0)
        train = generate_dataset(env, behavior, 800, seed=2)
        held_out = generate_dataset(env, behavior, 300, seed=3)
        model = train_behavior_model(train, ACTIONS, FAST.replace(training_steps=2500))
        hits = total = 0
        for traj in held_out:
            for tr in traj.transitions:
                hits += int(behavior_argmax(model, tr.state, ACTIONS) == tr.action_index)
                total += 1
        assert hits / total >= 0.95

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_behavior_model([], ACTIONS, FAST)


def tiny_agent(q_values, behavior_probs_vec, xi=0.3, d=2):
    """Agent with constant Q and behavior outputs, for rule-level tests."""
    q_net = const_net(input_size(d), q_values)
    return BcqAgent(q_net=q_net, target_net=q_net.copy(),
                    behavior_model=behavior_with_probs(behavior_probs_vec, d=d),
                    hyper=HyperParams(xi=xi), actions=ACTIONS)


class TestPolicyAction:
    def test_single_eligible_wins_regardless_of_q(self):
        agent = tiny_agent([9.0, 0.1, 0.2, 0.3], [1e-9, 0.999, 1e-9, 1e-9], xi=1.0)
        assert policy_action(agent, state()) == 1

    def test_argmax_over_eligible(self):
        agent = tiny_agent([0.4, 0.7, 0.0, 0.0], [0.5, 0.45, 0.05, 1e-9], xi=0.3)
        assert policy_action(agent, state()) == 1

    def test_tie_breaks_to_cheaper(self):
        agent = tiny_agent([0.5, 0.5, 0.1, 0.0], [0.5, 0.5, 1e-9, 1e-9], xi=0.3)
        assert policy_action(agent, state()) == 0

    def test_action_always_eligible(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            q = rng.normal(size=4)
            probs = rng.dirichlet(np.ones(4))
            xi = float(rng.random())
            bonuses = int(rng.integers(0, 4))
            agent = tiny_agent(q, probs, xi=xi)
            s = state(bonuses=bonuses, day=bonuses + 1)
            a = policy_action(agent, s)
            elig = eligible_actions(agent.behavior_model, s, xi,
                                    day_mask_indices(ACTIONS, bonuses))
            assert a in elig


class TestQVector:
    def test_masks_by_claim(self):
        agent = tiny_agent([0.1, 0.2, 0.3, 0.4], [0.25] * 4)
        day1 = q_vector(agent, state(bonuses=0))
        assert np.isnan(day1[3]) and np.isfinite(day1[:3]).all()
        day4 = q_vector(agent, state(bonuses=3, day=4))
        assert np.isnan(day4[:3]).all() and np.isfinite(day4[3])

    def test_full_menu_day1_has_ten_normal_entries(self):
        menu = ActionSet.default()
        q_net = const_net(input_size(2), np.linspace(0, 1, 12))
        agent = BcqAgent(q_net=q_net, target_net=q_net.copy(),
                         behavior_model=behavior_with_probs([1 / 12] * 12),
                         hyper=HyperParams(), actions=menu)
        row = q_vector(agent, state(bonuses=0))
        assert int(np.isfinite(row).sum()) == 10

    def test_matches_forward_passes(self):
        rng = np.random.default_rng(4)
        q_net = Mlp([input_size(2), 8, 4], rng=rng)
        agent = BcqAgent(q_net=q_net, target_net=q_net.copy(),
                         behavior_model=behavior_with_probs([0.25] * 4),
                         hyper=HyperParams(), actions=ACTIONS)
        s = state(fill=0.3)
        row = q_vector(agent, s)
        direct = q_net.forward(state_to_input(s))
        np.testing.assert_allclose(row[:3], direct[:3])


class TestBcqTrain:
    def make_constant_reward_dataset(self, n=60):
        rng = np.random.default_rng(5)
        trajs = []
        for uid in range(n):
            s = state(fill=float(rng.random()))
            a = int(rng.integers(0, 3))
            trajs.append(Trajectory((Transition(uid, 1, s, a, 1, ACTIONS.cost_cents(a), None, True),)))
        return trajs

    def test_terminal_reward_regression(self):
        trajs = self.make_constant_reward_dataset()
        agent = bcq_train(trajs, ACTIONS, FAST.replace(training_steps=1200, xi=0.0))
        for traj in trajs[:20]:
            tr = traj.transitions[0]
            q = agent.q_net.forward(state_to_input(tr.state))[tr.action_index]
            assert q == pytest.approx(1.0, abs=0.05)

    def test_xi_one_clones_behavior_argmax(self):
        segs = (SegmentParams(0.5, 0.5, 0.2), SegmentParams(-0.5, 1.5, 0.2))
        env = CheckinEnv(EnvConfig(segments=segs, feature_noise=0.02), ACTIONS)
        behavior = BehaviorPolicyConfig(table=default_behavior_table(2, ACTIONS), noise=0.3)
        dataset = generate_dataset(env, behavior, 400, seed=6)
        agent = bcq_train(dataset, ACTIONS, FAST.replace(training_steps=1200, xi=1.0))
        for traj in dataset:
            for tr in traj.transitions:
                assert (policy_action(agent, tr.state, xi=1.0)
                        == behavior_argmax(agent.behavior_model, tr.state, ACTIONS))

    def test_training_is_deterministic(self):
        trajs = self.make_constant_reward_dataset(n=30)
        hyper = FAST.replace(training_steps=300)
        a1 = bcq_train(trajs, ACTIONS, hyper)
        a2 = bcq_train(trajs, ACTIONS, hyper)
        np.testing.assert_array_equal(a1.q_net.get_params(), a2.q_net.get_params())
        np.testing.assert_array_equal(a1.behavior_model.get_params(),
                                      a2.behavior_model.get_params())

    def test_training_log_emitted(self):
        trajs = self.make_constant_reward_dataset(n=30)
        agent = bcq_train(trajs, ACTIONS, FAST.replace(training_steps=200), log_every=50)
        assert [row["step"] for row in agent.training_log] == [50, 100, 150, 200]
        assert all(np.isfinite(row["loss"]) for row in agent.training_log)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            bcq_train([], ACTIONS, FAST)


class TestAgentSerialization:
    def test_round_trip(self, tmp_path):
        trajs = TestBcqTrain().make_constant_reward_dataset(n=20)
        agent = bcq_train(trajs, ACTIONS, FAST.replace(training_steps=100))
        path = tmp_path / "agent.json"
        agent.save(path)
        loaded = BcqAgent.load(path)
        np.testing.assert_array_equal(loaded.q_net.get_params(), agent.q_net.get_params())
        assert loaded.hyper == agent.hyper
        assert loaded.actions == agent.actions
        s = state()
        assert policy_action(loaded, s) == policy_action(agent, s)

    def test_file_with_legacy_epsilon_loads(self, tmp_path):
        # written by an older version whose hyperparameters held an unused epsilon
        path = Path(__file__).parent / "data" / "agent_with_epsilon.json"
        agent = BcqAgent.load(path)
        assert agent.hyper == HyperParams(training_steps=20, hidden_sizes=(3,), learning_rate=0.01,
                                          optimizer="adam", seed=1)
        agent.save(tmp_path / "agent.json")
        assert (tmp_path / "agent.json").read_text() == path.read_text().replace(
            '"epsilon": 0.01, ', "")

    def test_policy_wrapper(self):
        agent = tiny_agent([0.4, 0.7, 0.0, 0.0], [0.5, 0.45, 0.05, 1e-9], xi=0.3)
        policy = BcqPolicy(agent)
        s = state()
        assert policy.action(s) == policy_action(agent, s)
        np.testing.assert_array_equal(
            np.isfinite(policy.q_row(s)), np.isfinite(q_vector(agent, s)))


def old_probe_agreement(agent, x_probe, a):
    """The per-row probe loop, claim counts decoded from the input (reference)."""
    q = agent.q_net.forward(x_probe)
    probs = softmax(agent.behavior_model.forward(x_probe))
    bonuses = np.rint(x_probe[:, -1] * 4.0).astype(int)
    picks = np.empty(len(a), dtype=int)
    for i in range(len(a)):
        mask = day_mask_indices(agent.actions, int(bonuses[i]))
        p = probs[i, mask]
        elig = mask[p >= agent.hyper.xi * p.max()]
        costs = np.array([agent.actions.cost_cents(int(j)) for j in elig])
        scores = q[i, elig]
        ties = np.flatnonzero(scores == scores.max())
        picks[i] = int(elig[ties[np.argmin(costs[ties])]])
    return float(np.mean(picks == a)), picks


def tied_q_net(n_inputs, n_actions, seed, tie_groups):
    """Random net whose output units in each group share weights, so their Q values tie."""
    net = Mlp([n_inputs, 6, n_actions], rng=np.random.default_rng(seed))
    for group in tie_groups:
        net.weights[1][group[1:]] = net.weights[1][group[0]]
        net.biases[1][group[1:]] = net.biases[1][group[0]]
    return net


def brute_force_policy(agent, s, xi):
    """Cheapest highest-Q action among the xi-eligible ones, in plain Python."""
    x = state_to_input(s)
    probs = softmax(agent.behavior_model.forward(x))
    q = agent.q_net.forward(x)
    mask = day_mask_indices(agent.actions, s.bonuses_collected).tolist()
    top = max(probs[j] for j in mask)
    elig = [j for j in mask if probs[j] >= xi * top]
    best = max(q[j] for j in elig)
    return min((agent.actions.cost_cents(j), j) for j in elig if q[j] == best)[1]


class TestBatchedKernels:
    MENU = ActionSet.default()
    TIES = ([0, 1, 2], [4, 9], [10, 11])

    def random_agent(self, seed, xi):
        d = 3
        q_net = tied_q_net(input_size(d), self.MENU.size, seed, self.TIES)
        behavior = Mlp([input_size(d), 5, self.MENU.size], rng=np.random.default_rng(seed + 1))
        return BcqAgent(q_net=q_net, target_net=q_net.copy(), behavior_model=behavior,
                        hyper=HyperParams(xi=xi), actions=self.MENU)

    def random_states(self, seed, n=120, d=3):
        rng = np.random.default_rng(seed)
        return [StateVector(tuple(rng.normal(size=d)), int(b) + 1, int(b))
                for b in rng.integers(0, 4, size=n)]

    @pytest.mark.parametrize("xi", [0.0, 0.3, 1.0])
    def test_probe_matches_per_row_loop(self, xi):
        for seed in range(5):
            agent = self.random_agent(seed, xi)
            states = self.random_states(100 + seed)
            x = np.stack([state_to_input(s) for s in states])
            claims = np.array([s.bonuses_collected for s in states])
            logged = np.random.default_rng(seed).integers(0, self.MENU.size, size=len(states))
            expected, picks = old_probe_agreement(agent, x, logged)
            assert _logged_action_agreement(agent, x, claims, logged) == expected
            assert _logged_action_agreement(agent, x, claims, picks) == 1.0
            # the tie groups are hit: some pick is the cheapest member of a tie
            assert np.isin(picks, [0, 4, 10]).any()

    @pytest.mark.parametrize("xi", [0.0, 0.3, 1.0])
    def test_policy_action_matches_brute_force(self, xi):
        for seed in range(3):
            agent = self.random_agent(seed, 0.5)
            for s in self.random_states(200 + seed, n=60):
                assert policy_action(agent, s, xi) == brute_force_policy(agent, s, xi)

    def test_policy_action_rejects_xi_out_of_range(self):
        agent = self.random_agent(0, 0.3)
        for xi in (-0.1, 1.1):
            with pytest.raises(ValueError):
                policy_action(agent, self.random_states(0, n=1)[0], xi)

    def test_target_net_owns_its_buffer_after_sync(self):
        trajs = TestBcqTrain().make_constant_reward_dataset(n=20)
        agent = bcq_train(trajs, ACTIONS, FAST.replace(training_steps=30, target_sync_interval=10))
        assert not np.shares_memory(agent.q_net.params, agent.target_net.params)
        np.testing.assert_array_equal(agent.q_net.params, agent.target_net.params)
