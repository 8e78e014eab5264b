import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from budgetrl.allocator import WindowStore
from budgetrl.baselines import CheapestPolicy, ExpertPolicy
from budgetrl.core import ActionSet, StateVector, Transition, flatten, units
from budgetrl.envsim import (
    BehaviorPolicyConfig,
    CheckinEnv,
    EnvConfig,
    SegmentParams,
    UserSim,
    default_behavior_table,
    generate_dataset,
)
from budgetrl.evaluation import (
    EvalReport,
    MatchedSet,
    match_records,
    offline_report,
    simulate_online,
)

ACTIONS = ActionSet(normal_cents=(65, 87, 105), super_cents=(172,))


class FixedPolicy:
    """Always the same action index (test double)."""

    def __init__(self, action):
        self._action = action

    def action(self, state):
        return self._action


class FirstStepPolicy:
    """Matches logged claim-1 actions, disagrees afterwards."""

    def __init__(self, first_action):
        self.first_action = first_action

    def action(self, state):
        if state.bonuses_collected == 0:
            return self.first_action
        return 2  # never logged in the constructed data


def make_traj(uid, action_seq, rewards, costs=None):
    transitions = []
    for i, a in enumerate(action_seq):
        state = StateVector((0.5, 0.5), day_in_cycle=i + 1, bonuses_collected=i)
        cost = ACTIONS.cost_cents(a) if costs is None else costs[i]
        transitions.append(Transition(uid, i + 1, state, a, rewards[i], cost,
                                      i == len(action_seq) - 1))
    return tuple(transitions)


class LoggedPolicy:
    """Takes ``seq[k]`` at claim ``k + 1``: every step of a trajectory logged with ``seq``."""

    def __init__(self, seq):
        self.seq = seq

    def action(self, state):
        return self.seq[state.bonuses_collected]


class SubsetPolicy:
    """Takes the logged action on the states in ``agree`` and another action elsewhere."""

    def __init__(self, dataset, agree):
        self.logged = {id(tr.state): tr.action_index for traj in dataset for tr in traj}
        self.agree = {id(state) for state in agree}

    def action(self, state):
        a = self.logged[id(state)]
        return a if id(state) in self.agree else (a + 1) % ACTIONS.size


class RecordingPolicy:
    """Records each state it is asked about, then answers as ``inner`` does."""

    def __init__(self, inner):
        self.inner, self.asked = inner, []

    def action(self, state):
        self.asked.append(state)
        return self.inner.action(state)


def counts(matched):
    return (matched.matched_trajectories, matched.matched_steps, matched.rewards,
            matched.cost_cents, matched.total_trajectories)


class TestMatchRecords:
    def test_full_match_keeps_everything(self):
        ds = [make_traj(0, (1, 1), (1, 0)), make_traj(1, (1,), (0,))]
        matched = match_records(ds, FixedPolicy(1))
        assert counts(matched) == (2, 3, 1, 3 * 87, 2)
        assert offline_report(matched).match_rate == 1.0

    def test_total_disagreement_empty(self):
        ds = [make_traj(0, (1, 1), (1, 0))]
        matched = match_records(ds, FixedPolicy(0))
        assert counts(matched) == (0, 0, 0, 0, 1)
        assert offline_report(matched).match_rate == 0.0

    def test_prefix_matching_counts_first_steps(self):
        ds = [make_traj(uid, (0, 0, 0), (1, 1, 0)) for uid in range(5)]
        matched = match_records(ds, FirstStepPolicy(0))
        # one step per trajectory, with its reward and cost only
        assert counts(matched) == (5, 5, 5, 5 * 65, 5)

    def test_full_trajectory_mode_drops_partials(self):
        ds = [make_traj(0, (0, 0), (1, 0)), make_traj(1, (0, 1), (1, 0))]
        prefix = match_records(ds, FirstStepPolicy(0))
        strict = match_records(ds, FirstStepPolicy(0), full_trajectory=True)
        assert prefix.matched_trajectories == 2
        assert counts(strict) == (0, 0, 0, 0, 2)
        one_step = match_records([make_traj(2, (0,), (1,))], FirstStepPolicy(0),
                                 full_trajectory=True)
        assert counts(one_step) == (1, 1, 1, 65, 1)

    @pytest.mark.parametrize("full_trajectory", [False, True])
    def test_one_action_call_per_decided_state_in_log_order(self, full_trajectory):
        ds = [make_traj(0, (0, 0, 0), (1, 0, 1)), make_traj(1, (0, 2), (1, 1)),
              make_traj(2, (1,), (0,))]
        policy = RecordingPolicy(FirstStepPolicy(0))
        match_records(ds, policy, full_trajectory=full_trajectory)
        # each trajectory up to and including its first mismatch, and not a state more
        decided = [ds[0][0], ds[0][1], ds[1][0], ds[1][1], ds[2][0]]
        assert [id(s) for s in policy.asked] == [id(tr.state) for tr in decided]

    @settings(max_examples=60, deadline=None)
    @given(n_users=st.integers(0, 12), seed=st.integers(0, 2 ** 16), data=st.data())
    def test_counts_equal_a_reference_loop_over_prefix_copies(self, n_users, seed, data):
        behavior = BehaviorPolicyConfig(table=default_behavior_table(3, ACTIONS), noise=0.3)
        dataset = generate_dataset(mid_env(), behavior, n_users, seed)
        states = [tr.state for traj in dataset for tr in traj]
        agree = data.draw(st.lists(st.booleans(), min_size=len(states), max_size=len(states)))
        policy = SubsetPolicy(dataset, [s for s, a in zip(states, agree) if a])
        for full_trajectory in (False, True):
            kept = []
            for traj in dataset:
                n = 0
                while n < len(traj) and policy.action(traj[n].state) == traj[n].action_index:
                    n += 1
                if n and (n == len(traj) or not full_trajectory):
                    kept.append(traj[:n])
            steps = [tr for prefix in kept for tr in prefix]
            matched = match_records(dataset, policy, full_trajectory=full_trajectory)
            assert counts(matched) == (len(kept), len(steps), sum(tr.reward for tr in steps),
                                       sum(tr.cost_cents for tr in steps), len(dataset))


def scored(dataset, policy):
    return offline_report(match_records(dataset, policy))


class TestMetrics:
    def test_retention_hand_value(self):
        # rewards [1, 0, 1] and [1, 1] -> 4/5
        ds = [make_traj(0, (0, 0, 0), (1, 0, 1)), make_traj(1, (0, 0), (1, 1))]
        assert scored(ds, FixedPolicy(0)).retention_rate == pytest.approx(0.8)

    def test_retention_extremes(self):
        assert scored([make_traj(0, (0, 0), (1, 1))], FixedPolicy(0)).retention_rate == 1.0
        assert scored([make_traj(0, (0, 0), (0, 0))], FixedPolicy(0)).retention_rate == 0.0

    def test_avg_cost_hand_value(self):
        # costs 0.65 and 1.05 over two steps -> 0.85
        report = scored([make_traj(0, (0, 2), (1, 0))], LoggedPolicy((0, 2)))
        assert report.avg_cost_units == pytest.approx(0.85)

    def test_avg_cost_uniform_and_single(self):
        uniform = scored([make_traj(0, (1, 1, 1), (1, 1, 0))], FixedPolicy(1))
        assert uniform.avg_cost_units == pytest.approx(0.87)
        single = scored([make_traj(0, (2,), (1,))], FixedPolicy(2))
        assert single.avg_cost_units == pytest.approx(1.05)

    def test_zero_matched_steps_leaves_the_rates_undefined(self):
        assert scored([make_traj(0, (1, 1), (1, 0))], FixedPolicy(0)) == EvalReport(
            retention_rate=None, avg_cost_units=None, matched_trajectories=0,
            matched_steps=0, match_rate=0.0, total_trajectories=1)
        for total in (3, 0):  # an empty log matches nothing too
            report = offline_report(MatchedSet(matched_trajectories=0, matched_steps=0,
                                               rewards=0, cost_cents=0,
                                               total_trajectories=total))
            assert (report.retention_rate, report.avg_cost_units, report.match_rate) == (
                None, None, 0.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        trajs = [make_traj(uid, (0, 1), (int(rng.random() < 0.6), 0)) for uid in range(20)]
        forward = scored(trajs, LoggedPolicy((0, 1)))
        backward = scored(trajs[::-1], LoggedPolicy((0, 1)))
        assert forward.retention_rate == backward.retention_rate
        assert forward.avg_cost_units == backward.avg_cost_units


class TestSelfEvaluation:
    def test_behavior_policy_on_own_zero_noise_data(self):
        segs = (SegmentParams(0.6, 0.5, 0.2), SegmentParams(-0.4, 1.2, 0.2))
        cfg = EnvConfig(segments=segs, feature_noise=0.0)
        env = CheckinEnv(cfg, ACTIONS)
        table = default_behavior_table(2, ACTIONS)
        dataset = generate_dataset(env, BehaviorPolicyConfig(table=table, noise=0.0),
                                   300, seed=4)
        policy = ExpertPolicy(table=table, n_segments=2, actions=ACTIONS)
        report = scored(dataset, policy)
        logged = flatten(dataset)
        assert report.matched_steps == len(logged)
        assert report.retention_rate == pytest.approx(
            sum(tr.reward for tr in logged) / len(logged))
        assert report.avg_cost_units == pytest.approx(
            units(sum(tr.cost_cents for tr in logged)) / len(logged))

    def test_offline_report_fields(self):
        ds = [make_traj(0, (0, 2), (1, 0)), *(make_traj(uid, (1,), (1,)) for uid in (1, 2, 3))]
        report = scored(ds, LoggedPolicy((0, 2)))
        assert isinstance(report, EvalReport)
        assert report.matched_trajectories == 1
        assert report.matched_steps == 2
        assert report.total_trajectories == 4 and report.match_rate == 0.25
        assert report.retention_rate == 0.5
        assert report.avg_cost_units == pytest.approx(0.85)


def mid_env(feature_noise=0.02):
    segs = (SegmentParams(0.8, 0.4, 0.25), SegmentParams(-1.0, 2.2, 0.25),
            SegmentParams(-0.3, 1.0, 0.25))
    return CheckinEnv(EnvConfig(segments=segs, feature_noise=feature_noise), ACTIONS)


class ConstantRowPolicy:
    """Q rows increasing in cost: the unconstrained argmax is the dearest action."""

    def __init__(self, actions):
        self.actions = actions

    def q_rows(self, x, claims):
        from budgetrl.core import claim_masks
        costs = np.asarray(self.actions.all_cents, dtype=float) / 100.0
        return np.where(claim_masks(self.actions, claims), costs, np.nan)

    def action(self, state):
        from budgetrl.core import day_mask_indices
        return int(day_mask_indices(self.actions, state.bonuses_collected)[-1])


class CountingPolicy(ConstantRowPolicy):
    """Records the size of each ``q_rows`` batch."""

    def __init__(self, actions):
        super().__init__(actions)
        self.batches = []

    def q_rows(self, x, claims):
        self.batches.append(len(x))
        return super().q_rows(x, claims)


class CountingStore(WindowStore):
    """A window store that records the size of each admitted batch and counts
    its online decisions."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.admitted = []
        self.decisions = 0

    def admit(self, q):
        self.admitted.append(len(q))
        return super().admit(q)

    def allocate_online(self, row, now):
        self.decisions += 1
        return super().allocate_online(row, now)


class TestSimulateOnline:
    def test_one_q_rows_call_per_day_and_one_decision_per_claim(self):
        policy = CountingPolicy(ACTIONS)
        store = CountingStore(ACTIONS.all_cents, budget_cents=87)
        report = simulate_online(mid_env(), policy, store, 5, 30, seed=15)
        assert policy.batches == [row["claims"] for row in report.per_day]
        assert store.admitted == policy.batches
        assert store.decisions == report.matched_steps == sum(policy.batches)

    def test_no_arrivals_no_claims(self):
        policy = CountingPolicy(ACTIONS)
        store = CountingStore(ACTIONS.all_cents, budget_cents=87)
        report = simulate_online(mid_env(), policy, store, 3, 0, seed=16)
        assert report.matched_steps == 0 and report.retention_rate == 0.0
        assert policy.batches == [] and store.admitted == [] and store.decisions == 0
        assert [row["claims"] for row in report.per_day] == [0, 0, 0]

    def test_deterministic(self):
        env1, env2 = mid_env(), mid_env()
        r1 = simulate_online(env1, CheapestPolicy(ACTIONS), None, 3, 40, seed=9)
        r2 = simulate_online(env2, CheapestPolicy(ACTIONS), None, 3, 40, seed=9)
        assert r1 == r2

    def test_without_a_store_the_policy_decides_on_the_user(self):
        # the user's own features and counters, with no StateVector copy made
        policy = RecordingPolicy(CheapestPolicy(ACTIONS))
        report = simulate_online(mid_env(), policy, None, 2, 20, seed=9)
        assert len(policy.asked) == report.matched_steps
        assert all(type(user) is UserSim for user in policy.asked)

    def test_huge_budget_matches_direct_greedy_cost(self):
        # with budget above the dearest action, lam stays 0 and the allocator
        # mirrors the policy's own greedy argmax
        policy = ConstantRowPolicy(ACTIONS)
        store = WindowStore(ACTIONS.all_cents, budget_cents=500)
        with_store = simulate_online(mid_env(), policy, store, 3, 40, seed=10)
        direct = simulate_online(mid_env(), policy, None, 3, 40, seed=10)
        assert with_store.avg_cost_units == pytest.approx(direct.avg_cost_units)
        assert [d["avg_cost_units"] for d in with_store.per_day] == pytest.approx(
            [d["avg_cost_units"] for d in direct.per_day])
        assert all(d["lam"] == 0.0 for d in with_store.per_day)

    def test_floor_budget_forces_cheapest(self):
        # 3-day run: nobody reaches the super claim, so every decision is the
        # cheapest normal action and daily cost sits exactly on the floor
        policy = ConstantRowPolicy(ACTIONS)
        store = WindowStore(ACTIONS.all_cents, budget_cents=65)
        report = simulate_online(mid_env(), policy, store, 3, 50, seed=11)
        for day_row in report.per_day[1:]:
            assert day_row["avg_cost_units"] == pytest.approx(0.65)

    def test_infeasible_budget_spends_like_cheapest_policy(self):
        # 0.60 is below the cheapest bonus (0.65), so no multiplier fits any
        # window; the store must fall back to the cheapest actions instead of
        # keeping lam at 0 and spending like the greedy policy
        store = WindowStore(ACTIONS.all_cents, budget_cents=60)
        report = simulate_online(mid_env(), ConstantRowPolicy(ACTIONS), store, 6, 40, seed=14)
        cheapest = simulate_online(mid_env(), CheapestPolicy(ACTIONS), None, 6, 40, seed=14)
        assert store.infeasible_refreshes > 0
        assert report.avg_cost_units == pytest.approx(cheapest.avg_cost_units, abs=0.02)
        # every infeasible refresh is flagged in the timeline the report carries
        flagged = [row["infeasible"] for row in report.lambda_timeline]
        assert sum(flagged) == store.infeasible_refreshes == report.infeasible_refreshes

    def test_no_ineligible_actions_and_claim_masks(self):
        report = simulate_online(mid_env(), CheapestPolicy(ACTIONS), None, 6, 30, seed=12)
        # day 4+ includes super claims; env.step would raise on any violation
        assert report.matched_steps > 0
        assert report.retention_rate > 0.0

    def test_lambda_timeline_recorded(self):
        policy = ConstantRowPolicy(ACTIONS)
        store = WindowStore(ACTIONS.all_cents, budget_cents=87)
        report = simulate_online(mid_env(), policy, store, 2, 30, seed=13)
        assert len(report.lambda_timeline) > 0
        assert all(row["lam"] >= 0 for row in report.lambda_timeline)
        assert not any(row["infeasible"] for row in report.lambda_timeline)
        assert report.lambda_timeline == store.timeline
        assert [row["ts"] for row in store.timeline] == [
            600.0 * k for k in range(1, len(store.timeline) + 1)]

    def test_store_whose_clock_started_is_refused(self):
        policy = ConstantRowPolicy(ACTIONS)
        store = WindowStore(ACTIONS.all_cents, budget_cents=87)
        first = simulate_online(mid_env(), policy, store, 2, 30, seed=13)
        assert len(first.lambda_timeline) > 0
        ticks = list(store.timeline)
        with pytest.raises(ValueError, match="clock"):
            simulate_online(mid_env(), policy, store, 2, 30, seed=13)
        assert store.timeline == ticks

    @pytest.mark.parametrize("n_days, arrivals", [(-2, 30), (2, -5)])
    def test_negative_days_or_arrivals_refused_before_any_work(self, n_days, arrivals):
        store = WindowStore(ACTIONS.all_cents, budget_cents=87)
        with pytest.raises(ValueError, match="n_days and arrivals_per_day"):
            simulate_online(mid_env(), ConstantRowPolicy(ACTIONS), store, n_days, arrivals,
                            seed=13)
        assert store._next_tick is None and store.timeline == []


class CountingEnv(CheckinEnv):
    """Counts the claims walked through ``step``."""

    steps = 0

    def step(self, user, action_index):
        self.steps += 1
        return super().step(user, action_index)


class TestOneWalk:
    """Both simulators make every claim through ``CheckinEnv.step``."""

    def test_generate_dataset_steps_once_per_transition(self):
        env = CountingEnv(mid_env().config, ACTIONS)
        behavior = BehaviorPolicyConfig(table=default_behavior_table(3, ACTIONS), noise=0.2)
        dataset = generate_dataset(env, behavior, 60, seed=3)
        assert env.steps == sum(len(t) for t in dataset) > 60

    @pytest.mark.parametrize("budgeted", [False, True])
    def test_simulate_online_steps_once_per_claim(self, budgeted):
        env = CountingEnv(mid_env().config, ACTIONS)
        store = WindowStore(ACTIONS.all_cents, budget_cents=87) if budgeted else None
        report = simulate_online(env, ConstantRowPolicy(ACTIONS), store, 5, 30, seed=15)
        assert env.steps == report.matched_steps > 150

