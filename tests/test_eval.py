import numpy as np
import pytest

from budgetrl.allocator import WindowStore
from budgetrl.baselines import CheapestPolicy, ExpertPolicy
from budgetrl.core import ActionSet, StateVector, Trajectory, Transition, units
from budgetrl.envsim import (
    BehaviorPolicyConfig,
    CheckinEnv,
    EnvConfig,
    SegmentParams,
    default_behavior_table,
    generate_dataset,
)
from budgetrl.evaluation import (
    EvalReport,
    MatchedSet,
    UndefinedMetricError,
    avg_cost,
    match_records,
    offline_report,
    retention_rate,
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
    return Trajectory(tuple(transitions))


class TestMatchRecords:
    def test_full_match_keeps_everything(self):
        ds = [make_traj(0, (1, 1), (1, 0)), make_traj(1, (1,), (0,))]
        matched = match_records(ds, FixedPolicy(1))
        assert matched.trajectories == tuple(ds)
        assert matched.match_rate == 1.0

    def test_total_disagreement_empty(self):
        ds = [make_traj(0, (1, 1), (1, 0))]
        matched = match_records(ds, FixedPolicy(0))
        assert matched.matched_trajectories == 0
        assert matched.match_rate == 0.0

    def test_prefix_matching_counts_first_steps(self):
        ds = [make_traj(uid, (0, 0, 0), (1, 1, 0)) for uid in range(5)]
        matched = match_records(ds, FirstStepPolicy(0))
        assert matched.matched_steps == 5  # one step per trajectory
        assert matched.matched_trajectories == 5
        for traj in matched.trajectories:
            assert len(traj) == 1

    def test_full_trajectory_mode_drops_partials(self):
        ds = [make_traj(0, (0, 0), (1, 0)), make_traj(1, (0, 1), (1, 0))]
        prefix = match_records(ds, FirstStepPolicy(0))
        strict = match_records(ds, FirstStepPolicy(0), full_trajectory=True)
        assert prefix.matched_trajectories == 2
        assert strict.matched_trajectories == 0
        one_step = match_records([make_traj(2, (0,), (1,))], FirstStepPolicy(0),
                                 full_trajectory=True)
        assert one_step.matched_trajectories == 1


class TestMetrics:
    def test_retention_hand_value(self):
        # rewards [1, 0, 1] and [1, 1] -> 4/5
        ms = MatchedSet((make_traj(0, (0, 0, 0), (1, 0, 1)),
                         make_traj(1, (0, 0), (1, 1))), total_trajectories=2)
        assert retention_rate(ms) == pytest.approx(0.8)

    def test_retention_extremes(self):
        all_one = MatchedSet((make_traj(0, (0, 0), (1, 1)),), 1)
        all_zero = MatchedSet((make_traj(0, (0, 0), (0, 0)),), 1)
        assert retention_rate(all_one) == 1.0
        assert retention_rate(all_zero) == 0.0

    def test_avg_cost_hand_value(self):
        # costs 0.65 and 1.05 over two steps -> 0.85
        ms = MatchedSet((make_traj(0, (0, 2), (1, 0)),), 1)
        assert avg_cost(ms) == pytest.approx(0.85)

    def test_avg_cost_uniform_and_single(self):
        uniform = MatchedSet((make_traj(0, (1, 1, 1), (1, 1, 0)),), 1)
        assert avg_cost(uniform) == pytest.approx(0.87)
        single = MatchedSet((make_traj(0, (2,), (1,)),), 1)
        assert avg_cost(single) == pytest.approx(1.05)

    def test_empty_matched_set_errors(self):
        empty = MatchedSet((), total_trajectories=3)
        with pytest.raises(UndefinedMetricError):
            retention_rate(empty)
        with pytest.raises(UndefinedMetricError):
            avg_cost(empty)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        trajs = [make_traj(uid, (0, 1), (int(rng.random() < 0.6), 0)) for uid in range(20)]
        ms1 = MatchedSet(tuple(trajs), 20)
        ms2 = MatchedSet(tuple(reversed(trajs)), 20)
        assert retention_rate(ms1) == retention_rate(ms2)
        assert avg_cost(ms1) == avg_cost(ms2)


class TestSelfEvaluation:
    def test_behavior_policy_on_own_zero_noise_data(self):
        segs = (SegmentParams(0.6, 0.5, 0.2), SegmentParams(-0.4, 1.2, 0.2))
        cfg = EnvConfig(segments=segs, feature_noise=0.0)
        env = CheckinEnv(cfg, ACTIONS)
        table = default_behavior_table(2, ACTIONS)
        dataset = generate_dataset(env, BehaviorPolicyConfig(table=table, noise=0.0),
                                   300, seed=4)
        policy = ExpertPolicy(table=table, n_segments=2, actions=ACTIONS)
        matched = match_records(dataset, policy)
        assert matched.matched_steps == sum(len(t) for t in dataset)

        raw_steps = sum(len(t) for t in dataset)
        raw_ret = sum(t.total_reward() for t in dataset) / raw_steps
        raw_cost = units(sum(t.total_cost_cents() for t in dataset)) / raw_steps
        assert retention_rate(matched) == pytest.approx(raw_ret)
        assert avg_cost(matched) == pytest.approx(raw_cost)

    def test_offline_report_fields(self):
        ms = MatchedSet((make_traj(0, (0, 2), (1, 0)),), 4)
        report = offline_report(ms)
        assert isinstance(report, EvalReport)
        assert report.matched_trajectories == 1
        assert report.matched_steps == 2
        assert 0.0 <= report.retention_rate <= 1.0
        assert 0.65 <= report.avg_cost_units <= 1.05


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
        assert sum(flagged) == store.infeasible_refreshes

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

