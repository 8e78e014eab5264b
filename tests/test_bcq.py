from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_training as ref
from budgetrl import bcq
from budgetrl.bcq import (
    BcqAgent,
    BcqPolicy,
    _logged_action_agreement,
    bcq_train,
    fit_classifier,
    state_to_input,
    states_to_inputs,
    train_behavior_model,
    transition_arrays,
    xi_eligible,
)
from budgetrl.core import (
    ActionSet,
    HyperParams,
    StateVector,
    Transition,
    claim_masks,
    day_mask_indices,
    flatten,
)
from budgetrl.envsim import (
    BehaviorPolicyConfig,
    CheckinEnv,
    EnvConfig,
    SegmentParams,
    default_behavior_table,
    default_config,
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


def input_size(d):
    """Width of the network input for d features."""
    return state_to_input(state(d=d)).size


def behavior_with_probs(probs, d=2):
    """Behavior model emitting the given action probabilities everywhere."""
    return const_net(input_size(d), np.log(np.asarray(probs)))


def behavior_probs(model, state):
    return softmax(model.forward(state_to_input(state)))


def behavior_argmax(model, state, actions):
    """Most probable action under the behavior model within the claim mask."""
    mask = day_mask_indices(actions, state.bonuses_collected)
    probs = behavior_probs(model, state)[mask]
    return int(mask[np.argmax(probs)])


def eligible_actions(behavior_model, state, xi, day_mask):
    """Indices of the masked actions that pass ``xi_eligible``."""
    probs = behavior_probs(behavior_model, state)
    claim = np.zeros(probs.size, dtype=bool)
    claim[np.asarray(day_mask, dtype=int)] = True
    return np.flatnonzero(xi_eligible(probs, claim, xi))


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
            trajs.append((Transition(uid, 1, s, 1, 1, 87, True),))
        model = train_behavior_model(transition_arrays(trajs), ACTIONS, FAST)
        for traj in trajs:
            assert int(np.argmax(behavior_probs(model, traj[0].state))) == 1

    def test_mixed_70_30_probabilities(self):
        # one repeated state, two actions at 70/30
        rng = np.random.default_rng(1)
        s = state()
        trajs = []
        for uid in range(10_000):
            a = 0 if rng.random() < 0.7 else 1
            trajs.append((Transition(uid, 1, s, a, 1, ACTIONS.cost_cents(a), True),))
        model = train_behavior_model(transition_arrays(trajs), ACTIONS,
                                     replace(FAST, training_steps=1500))
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
        model = train_behavior_model(transition_arrays(train), ACTIONS,
                                     replace(FAST, training_steps=2500))
        hits = total = 0
        for traj in held_out:
            for tr in traj:
                hits += int(behavior_argmax(model, tr.state, ACTIONS) == tr.action_index)
                total += 1
        assert hits / total >= 0.95

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_behavior_model(transition_arrays([]), ACTIONS, FAST)


def old_prepare_arrays(dataset, actions):
    """The per-row conversion that ``transition_arrays`` replaced (reference)."""
    transitions = flatten(dataset)
    x = np.stack([state_to_input(tr.state) for tr in transitions])
    a = np.array([tr.action_index for tr in transitions], dtype=int)
    claims = np.array([tr.state.bonuses_collected for tr in transitions], dtype=int)
    r = np.array([tr.reward for tr in transitions], dtype=float)
    done = np.array([tr.done for tr in transitions], dtype=bool)
    x_next = np.zeros((len(transitions), x.shape[1]))
    next_mask = np.zeros((len(transitions), actions.size), dtype=bool)
    i = 0
    for traj in dataset:
        for tr, following in zip(traj, traj[1:] + (None,)):
            if not tr.done:
                x_next[i] = state_to_input(following.state)
                next_mask[i, day_mask_indices(actions, following.state.bonuses_collected)] = True
            i += 1
    return x, a, r, done, x_next, next_mask, claims


class TestTransitionArrays:
    def assert_matches_per_row_loop(self, dataset, actions):
        data = transition_arrays(dataset)
        x, a, r, done, x_next, next_mask, claims = old_prepare_arrays(dataset, actions)
        for new, old in ((data.x, x), (data.action, a), (data.reward, r), (data.done, done),
                         (data.claims, claims)):
            assert new.dtype == old.dtype
            np.testing.assert_array_equal(new, old)
        # a live row's next state and next claim mask are those of row i + 1
        live = np.flatnonzero(~data.done)
        np.testing.assert_array_equal(data.x[live + 1], x_next[live])
        np.testing.assert_array_equal(claim_masks(actions, data.claims[live + 1]),
                                      next_mask[live])
        return data

    def test_generated_dataset(self):
        env = CheckinEnv(EnvConfig(segments=(SegmentParams(0.5, 0.5, 0.2),
                                             SegmentParams(-0.5, 1.5, 0.2))), ACTIONS)
        behavior = BehaviorPolicyConfig(table=default_behavior_table(2, ACTIONS), noise=0.3)
        data = self.assert_matches_per_row_loop(generate_dataset(env, behavior, 80, seed=7),
                                                ACTIONS)
        assert data.done.any() and not data.done.all()
        assert set(data.claims[np.flatnonzero(~data.done) + 1]) == {1, 2, 3}

    def test_hand_built_transitions(self):
        s0, s1, s2 = state(fill=0.1), state(day=2, bonuses=1, fill=0.2), state(day=4, bonuses=2)
        chain = (Transition(0, 1, s0, 1, 1, 87, False),
                 Transition(0, 2, s1, 0, 1, 65, False),
                 Transition(0, 3, s2, 2, 0, 105, True))
        single = (Transition(1, 1, state(fill=0.9), 2, 1, 105, True),)
        data = self.assert_matches_per_row_loop([chain, single], ACTIONS)
        np.testing.assert_array_equal(data.done, [False, False, True, True])
        np.testing.assert_array_equal(data.claims[1:3], [1, 2])
        # every row terminal: no row is read as a next state
        data = self.assert_matches_per_row_loop([single], ACTIONS)
        assert data.done.all()

    def test_truncated_trajectory_rejected(self):
        # a log cut after a non-final claim: the last row is neither done nor followed
        cut = (Transition(0, 1, state(), 1, 1, 87, False),)
        with pytest.raises(ValueError, match="no next state"):
            transition_arrays([cut])

    def test_truncated_trajectory_before_another_rejected(self):
        # the next row belongs to another user, so it is no next state
        cut = (Transition(0, 1, state(), 1, 1, 87, False),)
        after = (Transition(1, 1, state(fill=0.9), 2, 1, 105, True),)
        with pytest.raises(ValueError, match="no next state"):
            transition_arrays([cut, after])

    def test_empty_trajectories_change_nothing(self):
        s0, s1 = state(fill=0.1), state(day=2, bonuses=1, fill=0.2)
        chain = (Transition(0, 1, s0, 1, 1, 87, False),
                 Transition(0, 2, s1, 0, 0, 65, True))
        single = (Transition(1, 1, state(fill=0.9), 2, 1, 105, True),)
        empty = ()
        want = transition_arrays([chain, single])
        got = transition_arrays([empty, chain, empty, single, empty])
        for name in ("x", "action", "reward", "claims", "done"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def tiny_agent(q_values, behavior_probs_vec, xi=0.3, d=2):
    """Agent with constant Q and behavior outputs, for rule-level tests."""
    q_net = const_net(input_size(d), q_values)
    return BcqAgent(q_net=q_net,
                    behavior_model=behavior_with_probs(behavior_probs_vec, d=d),
                    hyper=HyperParams(xi=xi), actions=ACTIONS)


class TestPolicyAction:
    def test_single_eligible_wins_regardless_of_q(self):
        agent = tiny_agent([9.0, 0.1, 0.2, 0.3], [1e-9, 0.999, 1e-9, 1e-9], xi=1.0)
        assert BcqPolicy(agent).action(state()) == 1

    def test_argmax_over_eligible(self):
        agent = tiny_agent([0.4, 0.7, 0.0, 0.0], [0.5, 0.45, 0.05, 1e-9], xi=0.3)
        assert BcqPolicy(agent).action(state()) == 1

    def test_tie_breaks_to_cheaper(self):
        agent = tiny_agent([0.5, 0.5, 0.1, 0.0], [0.5, 0.5, 1e-9, 1e-9], xi=0.3)
        assert BcqPolicy(agent).action(state()) == 0

    def test_action_always_eligible(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            q = rng.normal(size=4)
            probs = rng.dirichlet(np.ones(4))
            xi = float(rng.random())
            bonuses = int(rng.integers(0, 4))
            agent = tiny_agent(q, probs, xi=xi)
            s = state(bonuses=bonuses, day=bonuses + 1)
            a = BcqPolicy(agent).action(s)
            elig = eligible_actions(agent.behavior_model, s, xi,
                                    day_mask_indices(ACTIONS, bonuses))
            assert a in elig


class TestOneStateDecision:
    """``BcqPolicy.action`` finds a state's eligible actions first and reads Q only
    when two or more are eligible."""

    @pytest.fixture(scope="class")
    def trained(self):
        env_config, behavior, menu = default_config()
        dataset = generate_dataset(CheckinEnv(env_config, menu), behavior, 120, seed=8)
        agent = bcq_train(dataset, menu, replace(FAST, training_steps=300))
        return agent, [tr.state for tr in flatten(dataset)]

    @pytest.mark.parametrize("xi", [0.0, 0.3, 1.0])
    def test_action_is_the_batched_argmax_row(self, trained, xi):
        agent, states = trained
        x = states_to_inputs(states)
        eligible = bcq._eligible(agent, x, [s.bonuses_collected for s in states], xi)
        batched = bcq._constrained_argmax(agent, x, eligible)
        policy = BcqPolicy(agent, xi)
        for s, row, want in zip(states, eligible, batched):
            one_row = bcq._eligible(agent, state_to_input(s), s.bonuses_collected, xi)
            assert one_row.tobytes() == row.tobytes()
            assert policy.action(s) == want
        if xi == 0.0:  # every claim keeps two or more actions, so every state reads Q
            assert (eligible.sum(axis=1) >= 2).all()

    def test_one_eligible_action_never_reads_q(self):
        agent = tiny_agent([9.0, 0.1, 0.2, 0.3], [0.1, 0.7, 0.1, 0.1], xi=0.5)

        def no_q(x):
            raise AssertionError("Q read for a state with one eligible action")

        agent.q_net.forward = no_q
        assert BcqPolicy(agent).action(state()) == 1
        assert BcqPolicy(agent).action(state(bonuses=3, day=4)) == 3  # claim 4 has one arm
        with pytest.raises(AssertionError):  # two eligible actions: Q decides
            BcqPolicy(agent, xi=0.1).action(state())
        # the batched rule skips the Q pass too when no row has a choice
        states = [state(), state(bonuses=3, day=4)]
        x = states_to_inputs(states)
        eligible = bcq._eligible(agent, x, [s.bonuses_collected for s in states], 0.5)
        assert bcq._constrained_argmax(agent, x, eligible).tolist() == [1, 3]

    def test_an_overflowed_q_still_takes_the_one_eligible_action(self):
        agent = tiny_agent([0.0] * 4, [0.1, 0.7, 0.1, 0.1], xi=0.5)
        params = agent.q_net.get_params()
        params[-ACTIONS.size:] = -np.inf  # zero weights: every output is its bias
        agent.q_net.set_params(params)
        assert (agent.q_net.forward(state_to_input(state())) == -np.inf).all()
        assert BcqPolicy(agent).action(state()) == 1
        # the cheapest arm, 0, is not a claim-4 action
        assert BcqPolicy(agent).action(state(bonuses=3, day=4)) == 3
        # the batched rule, which the training log's agreement probe uses, agrees
        states = [state(), state(bonuses=3, day=4)]
        x = states_to_inputs(states)
        eligible = bcq._eligible(agent, x, [s.bonuses_collected for s in states], 0.5)
        assert bcq._constrained_argmax(agent, x, eligible).tolist() == [1, 3]


class TestQVector:
    def test_masks_by_claim(self):
        agent = tiny_agent([0.1, 0.2, 0.3, 0.4], [0.25] * 4)
        day1 = BcqPolicy(agent).q_row(state(bonuses=0))
        assert np.isnan(day1[3]) and np.isfinite(day1[:3]).all()
        day4 = BcqPolicy(agent).q_row(state(bonuses=3, day=4))
        assert np.isnan(day4[:3]).all() and np.isfinite(day4[3])

    def test_full_menu_day1_has_ten_normal_entries(self):
        menu = ActionSet.default()
        q_net = const_net(input_size(2), np.linspace(0, 1, 12))
        agent = BcqAgent(q_net=q_net,
                         behavior_model=behavior_with_probs([1 / 12] * 12),
                         hyper=HyperParams(), actions=menu)
        row = BcqPolicy(agent).q_row(state(bonuses=0))
        assert int(np.isfinite(row).sum()) == 10

    def test_matches_forward_passes(self):
        rng = np.random.default_rng(4)
        q_net = Mlp([input_size(2), 8, 4], rng=rng)
        agent = BcqAgent(q_net=q_net,
                         behavior_model=behavior_with_probs([0.25] * 4),
                         hyper=HyperParams(), actions=ACTIONS)
        s = state(fill=0.3)
        row = BcqPolicy(agent).q_row(s)
        direct = q_net.forward(state_to_input(s))
        np.testing.assert_allclose(row[:3], direct[:3])

    def test_q_rows_agree_with_one_row_passes(self):
        menu = ActionSet.default()
        rng = np.random.default_rng(5)
        q_net = Mlp([input_size(3), 16, 16, menu.size], rng=rng)
        agent = BcqAgent(q_net=q_net, behavior_model=behavior_with_probs([1 / 12] * 12, d=3),
                         hyper=HyperParams(), actions=menu)
        policy = BcqPolicy(agent)
        states = [StateVector(tuple(rng.normal(size=3)), day_in_cycle=int(b) + 1,
                              bonuses_collected=int(b)) for b in rng.integers(0, 4, 300)]
        batch = policy.q_rows(states_to_inputs(states), [s.bonuses_collected for s in states])
        rows = np.array([policy.q_row(s) for s in states])
        np.testing.assert_array_equal(np.isnan(batch), np.isnan(rows))
        np.testing.assert_allclose(batch, rows, rtol=0, atol=1e-12)
        for s in states[:40]:
            one = policy.q_row(s)
            batch_of_one = policy.q_rows(states_to_inputs([s]), [s.bonuses_collected])[0]
            assert one.tobytes() == batch_of_one.tobytes()
            # the one-row result is the 1-D forward pass it always was
            direct = np.where(claim_masks(menu, s.bonuses_collected),
                              q_net.forward(state_to_input(s)), np.nan)
            assert one.tobytes() == direct.tobytes()


class TestBcqTrain:
    def make_constant_reward_dataset(self, n=60):
        rng = np.random.default_rng(5)
        trajs = []
        for uid in range(n):
            s = state(fill=float(rng.random()))
            a = int(rng.integers(0, 3))
            trajs.append((Transition(uid, 1, s, a, 1, ACTIONS.cost_cents(a), True),))
        return trajs

    def test_terminal_reward_regression(self):
        trajs = self.make_constant_reward_dataset()
        agent = bcq_train(trajs, ACTIONS, replace(FAST, training_steps=1200, xi=0.0))
        for traj in trajs[:20]:
            tr = traj[0]
            q = agent.q_net.forward(state_to_input(tr.state))[tr.action_index]
            assert q == pytest.approx(1.0, abs=0.05)

    def test_xi_one_clones_behavior_argmax(self):
        segs = (SegmentParams(0.5, 0.5, 0.2), SegmentParams(-0.5, 1.5, 0.2))
        env = CheckinEnv(EnvConfig(segments=segs, feature_noise=0.02), ACTIONS)
        behavior = BehaviorPolicyConfig(table=default_behavior_table(2, ACTIONS), noise=0.3)
        dataset = generate_dataset(env, behavior, 400, seed=6)
        agent = bcq_train(dataset, ACTIONS, replace(FAST, training_steps=1200, xi=1.0))
        for traj in dataset:
            for tr in traj:
                assert (BcqPolicy(agent, 1.0).action(tr.state)
                        == behavior_argmax(agent.behavior_model, tr.state, ACTIONS))

    def test_training_is_deterministic(self):
        trajs = self.make_constant_reward_dataset(n=30)
        hyper = replace(FAST, training_steps=300)
        a1 = bcq_train(trajs, ACTIONS, hyper)
        a2 = bcq_train(trajs, ACTIONS, hyper)
        np.testing.assert_array_equal(a1.q_net.get_params(), a2.q_net.get_params())
        np.testing.assert_array_equal(a1.behavior_model.get_params(),
                                      a2.behavior_model.get_params())

    def test_training_log_emitted(self):
        trajs = self.make_constant_reward_dataset(n=30)
        agent = bcq_train(trajs, ACTIONS, replace(FAST, training_steps=200))
        assert [row["step"] for row in agent.training_log] == list(range(4, 201, 4))
        assert all(np.isfinite(row["loss"]) for row in agent.training_log)

    @pytest.mark.parametrize("steps, rows", [(49, 49), (61, 61), (100, 50), (2000, 50)])
    def test_training_log_has_a_row_every_fiftieth_of_the_steps(self, steps, rows):
        trajs = self.make_constant_reward_dataset(n=30)
        agent = bcq_train(trajs, ACTIONS, replace(FAST, training_steps=steps))
        every = max(1, steps // 50)
        logged = [row["step"] for row in agent.training_log]
        assert logged == [s for s in range(1, steps + 1) if s % every == 0 or s == steps]
        assert len(logged) == rows

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            bcq_train([], ACTIONS, FAST)


class TestAgentSerialization:
    def test_round_trip(self, tmp_path):
        trajs = TestBcqTrain().make_constant_reward_dataset(n=20)
        agent = bcq_train(trajs, ACTIONS, replace(FAST, training_steps=100))
        path = tmp_path / "agent.json"
        agent.save(path)
        loaded = BcqAgent.load(path)
        np.testing.assert_array_equal(loaded.q_net.get_params(), agent.q_net.get_params())
        assert loaded.hyper == agent.hyper
        assert loaded.actions == agent.actions
        s = state()
        assert BcqPolicy(loaded).action(s) == BcqPolicy(agent).action(s)

    def test_file_with_legacy_epsilon_loads(self, tmp_path):
        # written by an older version whose hyperparameters held an unused epsilon
        path = Path(__file__).parent / "data" / "agent_with_epsilon.json"
        agent = BcqAgent.load(path)
        assert agent.hyper == HyperParams(training_steps=20, hidden_sizes=(3,), learning_rate=0.01,
                                          optimizer="adam", seed=1)
        agent.save(tmp_path / "agent.json")
        assert (tmp_path / "agent.json").read_text() == path.read_text().replace(
            '"epsilon": 0.01, ', "")


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
        return BcqAgent(q_net=q_net, behavior_model=behavior,
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
                assert BcqPolicy(agent, xi).action(s) == brute_force_policy(agent, s, xi)

    def test_policy_action_rejects_xi_out_of_range(self):
        agent = self.random_agent(0, 0.3)
        for xi in (-0.1, 1.1):
            with pytest.raises(ValueError):
                BcqPolicy(agent, xi).action(self.random_states(0, n=1)[0])

    def test_target_net_lags_between_syncs(self):
        # A target aliased to the Q-network, or synced every step, trains the same net.
        env = CheckinEnv(EnvConfig(segments=(SegmentParams(0.5, 0.5, 0.2),)), ACTIONS)
        behavior = BehaviorPolicyConfig(table=default_behavior_table(1, ACTIONS), noise=0.3)
        dataset = generate_dataset(env, behavior, 20, seed=7)
        assert not all(tr.done for tr in flatten(dataset))  # some targets bootstrap
        lagged, every_step = (
            bcq_train(dataset, ACTIONS, replace(FAST, training_steps=30, target_sync_interval=k))
            for k in (10, 1))
        assert not np.array_equal(lagged.q_net.params, every_step.q_net.params)


class TestStatesToInputs:
    def test_rows_equal_state_to_input(self):
        rng = np.random.default_rng(0)
        states = [StateVector(tuple(rng.normal(size=3)), int(d), int(b))
                  for d, b in zip(rng.integers(1, 8, 40), rng.integers(0, 5, 40))]
        states.append(StateVector((1, 2, 3), 7, 4))  # integer features
        x = states_to_inputs(states)
        assert x.dtype == np.float64 and x.shape == (41, 5)
        assert x.tobytes() == np.stack([state_to_input(s) for s in states]).tobytes()

    def test_ragged_features_rejected(self):
        with pytest.raises(ValueError):
            states_to_inputs([state(d=2), state(d=3)])


@pytest.mark.parametrize("n", [3, 50, 3808, 10274, 65536])
@pytest.mark.parametrize("batch", [3, 50, 64])
def test_one_draw_per_block_equals_one_draw_per_step(n, batch):
    for steps in (1, 2, 7, 100):
        block, per_step = (np.random.default_rng(np.random.SeedSequence((n, batch)).spawn(2)[1])
                           for _ in range(2))
        drawn = block.integers(0, n, size=(steps, batch))
        np.testing.assert_array_equal(
            drawn, np.stack([per_step.integers(0, n, size=batch) for _ in range(steps)]))
        # the next block starts where the steps left off
        np.testing.assert_array_equal(block.integers(0, n, size=(3, batch)),
                                      per_step.integers(0, n, size=(3, batch)))


class TestBlocksMatchPerStepReference:
    """Blocked draws, gathers and bootstrap targets train the bits of the
    one-step-at-a-time reference loops."""

    SMALL = HyperParams(training_steps=60, batch_size=16, target_sync_interval=25,
                        hidden_sizes=(16, 16), learning_rate=0.01, seed=3)

    @pytest.fixture(scope="class")
    def dataset(self):
        env = CheckinEnv(EnvConfig(segments=(SegmentParams(0.5, 0.5, 0.2),)), ACTIONS)
        behavior = BehaviorPolicyConfig(table=default_behavior_table(1, ACTIONS), noise=0.3)
        return generate_dataset(env, behavior, 12, seed=4)

    CASES = {
        "no steps": dict(training_steps=0),
        "fewer steps than a sync": dict(training_steps=20, target_sync_interval=50),
        "steps not a multiple of the sync": dict(training_steps=61, target_sync_interval=25),
        "sync every step": dict(training_steps=30, target_sync_interval=1),
        "batch larger than the data": dict(training_steps=30, batch_size=100_000),
    }

    def check(self, dataset, hyper):
        agent = bcq_train(dataset, ACTIONS, hyper)
        q_net, behavior_model, log = ref.bcq_train(dataset, ACTIONS, hyper)
        np.testing.assert_array_equal(agent.q_net.params, q_net.params)
        np.testing.assert_array_equal(agent.behavior_model.params, behavior_model.params)
        assert agent.training_log == log
        assert (log[-1]["step"] if log else 0) == hyper.training_steps

        data = transition_arrays(dataset)
        rewards = data.reward.astype(int)
        np.testing.assert_array_equal(
            fit_classifier(data.x, rewards, 2, hyper, (hyper.seed, 2)).params,
            ref.fit_classifier(data.x, rewards, 2, hyper, (hyper.seed, 2)).params)

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_edge_cases(self, dataset, case, kind):
        assert len(flatten(dataset)) < 100_000
        self.check(dataset, replace(self.SMALL, optimizer=kind, **self.CASES[case]))

    @pytest.mark.parametrize("block_rows", [1, 40, 64])
    def test_block_cap_splits_sync_windows(self, dataset, monkeypatch, block_rows):
        # blocks of at most 1, 2 and 4 steps of 16 rows inside 25-step sync windows
        monkeypatch.setattr(bcq, "BLOCK_ROWS", block_rows)
        self.check(dataset, replace(self.SMALL, optimizer="adam", training_steps=61))

    def test_block_lengths(self):
        lengths = bcq._block_lengths
        assert list(lengths(0, 64, 100)) == []
        assert list(lengths(250, 64, 100)) == [100, 100, 50]
        assert list(lengths(7, 64, 1)) == [1] * 7
        assert list(lengths(130, 100_000, 100)) == [1] * 130
        assert list(lengths(10, 3200, 4)) == [2, 2, 2, 2, 2]
        assert list(lengths(205, 64)) == [100, 100, 5]
