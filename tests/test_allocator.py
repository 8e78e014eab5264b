import itertools
import sys
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import reference_allocator as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from budgetrl import allocator
from budgetrl.allocator import (
    AllocationProblem,
    Assignment,
    InfeasibleProblemError,
    WindowStore,
    _Prices,
    _assign_rows,
    _exact_lambda,
    _in_parts,
    _packed,
    _problem_lambda,
    _row_cache,
    _vertices,
    assign,
    repair_feasibility,
    solve_and_assign,
    solve_lambda,
)
from budgetrl.bcq import BcqPolicy, bcq_train
from budgetrl.core import ActionSet, HyperParams, cents
from budgetrl.envsim import CheckinEnv, default_config, generate_dataset
from budgetrl.evaluation import simulate_online

DEFAULT_UNITS = np.asarray(ActionSet.default().all_cents, dtype=float) / 100.0  # menu costs


def costs_units(problem):
    """The problem's per-action costs in currency units."""
    return np.asarray(problem.costs_cents, dtype=float) / 100.0


def budget_units(problem):
    """The problem's per-customer budget in currency units."""
    return problem.budget_cents / 100.0


def brute_force_best(problem):
    """Exhaustive 0-1 search: best budget-feasible objective (None if none)."""
    n, m = problem.q.shape
    combos = np.array(list(itertools.product(range(m), repeat=n)), dtype=int)
    costs = np.asarray(problem.costs_cents, dtype=np.int64)
    total_costs = costs[combos].sum(axis=1)
    values = problem.q[np.arange(n)[None, :], combos]
    eligible = np.isfinite(values).all(axis=1)
    feasible = eligible & (total_costs <= n * problem.budget_cents)
    if not feasible.any():
        return None
    return float(values[feasible].sum(axis=1).max())


def random_problem(rng, n_max=8, m_max=4, from_menu=True):
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(2, m_max + 1))
    if from_menu:
        menu = np.asarray(ActionSet.default().all_cents)
        costs = tuple(int(c) for c in np.sort(rng.choice(menu, size=m, replace=False)))
    else:
        costs = tuple(int(c) for c in np.sort(rng.integers(1, 300, size=m)))
        while len(set(costs)) < m:
            costs = tuple(int(c) for c in np.sort(rng.integers(1, 300, size=m)))
    q = rng.random((n, m))
    budget = int(rng.integers(min(costs), max(costs) + 1))
    return AllocationProblem(q, costs, budget)


def dual_objective(problem, lam):
    """sum_i max_j {q_ij - lam c_j} + lam * N * budget, over eligible entries (reference)."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    costs = costs_units(problem)
    scores = np.where(np.isfinite(problem.q), problem.q - lam * costs[None, :], -np.inf)
    return float(scores.max(axis=1).sum() + lam * problem.n * budget_units(problem))


ONE_ROW = AllocationProblem(np.array([[1.0, 2.0]]), (0, 100), 0)


class TestDualObjective:
    def test_hand_values(self):
        # max(1 - 0, 2 - lam) + lam * 0
        assert dual_objective(ONE_ROW, 0.0) == 2.0
        assert dual_objective(ONE_ROW, 1.0) == 1.0
        assert dual_objective(ONE_ROW, 2.0) == 1.0

    def test_lambda_zero_is_greedy_total(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = random_problem(rng)
            assert dual_objective(p, 0.0) == pytest.approx(float(np.nanmax(p.q, axis=1).sum()))

    def test_single_entry_linear_in_lambda(self):
        p = AllocationProblem(np.array([[0.7]]), (80,), 100)
        for lam in (0.0, 0.5, 2.0):
            assert dual_objective(p, lam) == pytest.approx(0.7 + lam * (1.0 - 0.8))

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            dual_objective(ONE_ROW, -0.1)

    @given(st.integers(0, 10_000), st.floats(0, 5), st.floats(0, 5))
    @settings(max_examples=150, deadline=None)
    def test_convexity_midpoint(self, seed, lam1, lam2):
        p = random_problem(np.random.default_rng(seed))
        mid = 0.5 * (lam1 + lam2)
        lhs = dual_objective(p, mid)
        rhs = 0.5 * (dual_objective(p, lam1) + dual_objective(p, lam2))
        assert lhs <= rhs + 1e-9


class TestSolveLambda:
    def test_budget_slack_gives_zero(self):
        p = AllocationProblem(np.array([[1.0, 2.0]]), (0, 100), 100)
        assert solve_lambda(p) == 0.0

    def test_hand_breakpoint(self):
        # 2 - lam = 1 at lam = 1
        assert solve_lambda(ONE_ROW) == pytest.approx(1.0, abs=1e-6)

    def test_all_costs_equal_budget(self):
        p = AllocationProblem(np.random.default_rng(1).random((5, 3)), (87, 87, 87), 87)
        assert solve_lambda(p) == 0.0

    def test_infeasible_raises(self):
        p = AllocationProblem(np.array([[1.0, 2.0]]), (100, 200), 50)
        with pytest.raises(InfeasibleProblemError):
            solve_lambda(p)

    def test_cost_monotone_in_lambda(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            p = random_problem(rng)
            lams = np.sort(rng.random(6) * 5)
            costs = [assign(p, float(l)).total_cost_cents for l in lams]
            assert all(b <= a for a, b in zip(costs, costs[1:]))

    def test_property_suite_thousand_problems(self):
        # convexity + cost monotonicity on 1000 random problems
        rng = np.random.default_rng(3)
        for _ in range(1000):
            p = random_problem(rng, from_menu=bool(rng.integers(2)))
            l1, l2 = np.sort(rng.random(2) * 4)
            mid = 0.5 * (l1 + l2)
            assert dual_objective(p, mid) <= (
                0.5 * (dual_objective(p, l1) + dual_objective(p, l2)) + 1e-9)
            assert (assign(p, float(l2)).total_cost_cents
                    <= assign(p, float(l1)).total_cost_cents)


class TestAssign:
    def test_hand_tie_break(self):
        # scores (1 - 1*(0 - 0), 2 - 1*(1 - 0)) = (1, 1): tie -> cheaper action 0
        result = assign(ONE_ROW, 1.0)
        assert result.chosen == (0,)
        assert result.total_cost_cents == 0

    def test_breakpoint_where_the_float_scores_still_favour_the_dearer_action(self):
        # costs 0.65 and 0.71, q (0.0, 0.5): the walk's breakpoint 0.5 / 0.06
        # rounds to 8.333333333333341, where q - lam c is larger for the dearer
        # action by float rounding. The envelope has moved, and the budget
        # 0.70 binds exactly there.
        q = np.array([[0.0, 0.5]])
        p = AllocationProblem(q, (65, 71), 70)
        lam = float(_row_cache(q, p._prices).lam[0])
        scores = q[0] - lam * np.array([0.65, 0.71])
        assert scores[1] > scores[0]
        assert assign(p, lam).chosen == (0,)
        assert bits(solve_lambda(p)) == bits(lam)
        assert solve_and_assign(p).chosen == (0,)

    def test_lambda_zero_greedy(self):
        rng = np.random.default_rng(4)
        p = random_problem(rng)
        result = assign(p, 0.0)
        expected = np.nanargmax(p.q, axis=1)
        # greedy argmax (ties toward cheaper never bind on continuous q)
        assert list(result.chosen) == list(expected)

    def test_empty_candidate_set_falls_back_to_cheapest(self):
        # budget below min cost and huge lambda: all scores negative
        p = AllocationProblem(np.array([[0.5, 0.9]]), (100, 200), 10)
        result = assign(p, 1000.0)
        assert result.chosen == (0,)

    def test_one_action_per_customer(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = random_problem(rng)
            result = assign(p, float(rng.random() * 3))
            assert len(result.chosen) == p.n
            for i, a in enumerate(result.chosen):
                assert np.isfinite(p.q[i, a])

    def test_assign_row_matches_batch(self):
        rng = np.random.default_rng(6)
        fallbacks = 0
        for _ in range(100):
            p = random_problem(rng, n_max=6)
            q = p.q.copy()
            q[rng.random(q.shape) < 0.3] = np.nan
            q[np.arange(p.n), rng.integers(0, p.q.shape[1], size=p.n)] = rng.random(p.n)
            q[rng.random(p.n) < 0.3] -= 5.0  # all scores negative: the cheapest fallback
            p = AllocationProblem(q, p.costs_cents, p.budget_cents)
            lam = float(rng.random() * 2)
            batch = assign(p, lam)
            store = WindowStore(p.costs_cents, p.budget_cents)
            store.lambda_snapshot = lam
            for i in range(p.n):
                assert decide(store, p.q[i], now=float(i)) == batch.chosen[i]
                scores = p.q[i] - lam * (costs_units(p) - budget_units(p))
                fallbacks += not (scores >= 0).any()
            assert len(store) == p.n
        assert fallbacks > 20

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, -0.5])
    def test_rejects_non_finite_or_negative_lambda(self, lam):
        with pytest.raises(ValueError, match="lambda"):
            assign(ONE_ROW, lam)
        with pytest.raises(ValueError, match="lambda"):
            WindowStore(ONE_ROW.costs_cents, ONE_ROW.budget_cents, initial_lambda=lam)
        store = WindowStore(ONE_ROW.costs_cents, ONE_ROW.budget_cents)
        store.lambda_snapshot = lam
        with pytest.raises(ValueError, match="lambda"):
            decide(store, ONE_ROW.q[0], 0.0)
        assert len(store) == 0

    def test_respects_nan_mask(self):
        q = np.array([[np.nan, 0.2, 0.9], [0.4, np.nan, np.nan]])
        p = AllocationProblem(q, (65, 87, 172), 87)
        result = assign(p, 0.0)
        assert result.chosen[0] in (1, 2)
        assert result.chosen[1] == 0

    @pytest.mark.parametrize("costs", [(65,), (65, 65), (87, 87, 87)])
    def test_costs_with_one_distinct_value(self, costs):
        # no row has a breakpoint: the greedy cost is the only cost
        q = np.random.default_rng(3).random((4, len(costs)))
        assert _row_cache(q, _Prices(costs, 87)).lam.size == 0
        for budget, lam in ((costs[0], 0.0), (costs[0] - 1, None)):
            p = AllocationProblem(q, costs, budget)
            if lam is None:
                with pytest.raises(InfeasibleProblemError):
                    solve_and_assign(p)
            else:
                assert solve_and_assign(p).lam == lam
        store = WindowStore(costs, 87)
        decide(store, q[0], 0.0)
        assert store.window_refresh(1.0) == 0.0


class TestRepair:
    def test_already_feasible_unchanged(self):
        result = assign(ONE_ROW, 1.0)
        assert repair_feasibility(ONE_ROW, result) is result

    def test_two_customer_hand_case(self):
        # q rows identical (0, 1); costs (0, 1); budget 0.5 per customer:
        # exactly one customer can get the expensive action
        p = AllocationProblem(np.array([[0.0, 1.0], [0.0, 1.0]]), (0, 100), 50)
        result = solve_and_assign(p)
        assert result.total_cost_cents <= 100
        assert result.total_cost_cents == 100  # N * budget exactly
        assert result.objective == pytest.approx(brute_force_best(p))
        assert sorted(result.chosen) == [0, 1]

    def test_negative_budget_infeasible(self):
        p = AllocationProblem(np.array([[0.5, 0.9]]), (65, 87), -10)
        with pytest.raises(InfeasibleProblemError):
            repair_feasibility(p, assign(p, 0.0))

    def test_equals_the_rule_and_packing_at_its_multiplier(self):
        rng = np.random.default_rng(31)
        kinds = {"infeasible": 0, "repaired": 0, "packed": 0}
        for _ in range(300):
            p = contract_problems(rng)
            start = assign(p, 0.0)
            if start.total_cost_cents <= p.n * p.budget_cents:
                continue
            try:
                result = repair_feasibility(p, start)
            except InfeasibleProblemError:
                kinds["infeasible"] += 1
                continue
            expected = packed_at(p, result.lam)
            assert result.chosen == expected.chosen
            assert bits(result.lam) == bits(expected.lam)
            assert bits(result.objective) == bits(expected.objective)
            assert result.total_cost_cents == expected.total_cost_cents
            kinds["repaired"] += 1
            kinds["packed"] += result.chosen != assign(p, result.lam).chosen
        assert all(count >= 10 for count in kinds.values()), kinds

    def test_budget_always_satisfied_after_repair(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            p = random_problem(rng, from_menu=bool(rng.integers(2)))
            result = solve_and_assign(p)
            assert result.total_cost_cents <= p.n * p.budget_cents


class TestAgainstBruteForce:
    def test_weak_duality(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            p = random_problem(rng, n_max=6, m_max=4)
            best = brute_force_best(p)
            if best is None:
                continue
            for lam in (0.0, 0.3, 1.0, 2.7):
                assert dual_objective(p, lam) >= best - 1e-9

    def test_near_optimality_with_gap_bound(self):
        rng = np.random.default_rng(9)
        gaps = []
        for _ in range(200):
            p = random_problem(rng)
            result = solve_and_assign(p)
            best = brute_force_best(p)
            assert best is not None  # budget >= min cost keeps cheapest feasible
            gap = best - result.objective
            row_range = float(np.max(np.nanmax(p.q, axis=1) - np.nanmin(p.q, axis=1)))
            assert gap <= row_range + 1e-9
            gaps.append(gap / best if best > 0 else 0.0)
        assert float(np.mean(gaps)) <= 0.02


def decide(store, q, now):
    """``store.allocate_online`` on the one Q row ``q``, admitted alone."""
    return store.allocate_online(store.admit(np.asarray(q)[None])[0], now)


def admitted_row(row):
    """The Q row of an admitted row, from the batch's copy of its Q rows."""
    batch, i = row
    return batch.q[i]


class KeptRowsStore(WindowStore):
    """A ``WindowStore`` that also keeps the Q rows of every batch it admits,
    by the batch's row cache, so the window's Q rows can be read from its
    runs."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.admitted = {}  # id(cache): (cache, Q rows); the cache kept keeps its id unique

    def admit(self, q):
        rows = super().admit(q)
        batch = rows[0][0]
        self.admitted[id(batch.cache)] = batch.cache, batch.q
        return rows


def window_rows(store):
    """The window's Q rows in window order, read from the runs of a ``KeptRowsStore``."""
    return np.concatenate([np.empty((0, len(store.costs_cents))),
                           *(store.admitted[id(cache)][1][first:end]
                             for cache, _, first, end in store._runs)])


class TestWindowStore:
    def make_store(self, budget=87, span=24 * 3600.0, period=600.0):
        return KeptRowsStore(ActionSet.default().all_cents, budget,
                             window_span=span, refresh_period=period)

    @pytest.mark.parametrize("kwarg, field", [("span", "window_span"),
                                              ("period", "refresh_period")])
    @pytest.mark.parametrize("value", [0.0, -5.0, np.nan, np.inf, -np.inf])
    def test_rejects_a_span_or_period_not_positive_and_finite(self, kwarg, field, value):
        with pytest.raises(ValueError, match=field):
            self.make_store(**{kwarg: value})

    @pytest.mark.parametrize("costs", [(-1, 50), (50, 2 ** 31), (50, 10 ** 22)])
    def test_rejects_costs_outside_the_menu_range(self, costs):
        with pytest.raises(ValueError, match="costs"):
            WindowStore(costs, 87)
        with pytest.raises(ValueError, match="costs"):
            AllocationProblem(np.array([[0.5, 0.7]]), costs, 87)

    def test_rejects_costs_out_of_cost_order(self):
        # the tie rule is the column order, so a cheaper action after a dearer one is refused
        with pytest.raises(ValueError, match="costs must be non-decreasing"):
            WindowStore((87, 65), 87)
        with pytest.raises(ValueError, match="costs must be non-decreasing"):
            AllocationProblem(np.array([[0.5, 0.7]]), (87, 65), 87)

    def test_empty_window_keeps_snapshot(self):
        store = self.make_store()
        store.lambda_snapshot = 1.5
        assert store.window_refresh(now=0.0) == 1.5

    def test_eviction_by_span(self):
        store = self.make_store(span=100.0)
        decide(store, np.full(12, 0.5), 0.0)
        decide(store, np.full(12, 0.5), 50.0)
        decide(store, np.full(12, 0.5), 150.0)
        store.window_refresh(now=120.0)
        assert len(store) == 2  # the ts=0 record aged out (120 - 100 cutoff)

    def test_advance_ticks_every_period_from_first_call(self):
        store = self.make_store(period=600.0)
        decide(store, np.full(12, 0.5), 900.0)
        store.advance(1000.0)
        assert store.timeline == []
        store.advance(2250.0)
        assert [row["ts"] for row in store.timeline] == [1600.0, 2200.0]
        assert [row["window"] for row in store.timeline] == [1, 1]
        assert store.timeline[-1]["lam"] == store.lambda_snapshot

    @pytest.mark.parametrize("now", [np.nan, np.inf, -np.inf])
    def test_a_now_that_is_not_finite_is_refused(self, now):
        store = self.make_store(span=3600.0, period=600.0)
        rows = store.admit(np.full((3, 12), 0.5))
        store.advance(0.0)
        store.allocate_online(rows[0], 0.0)
        with pytest.raises(ValueError, match="now must be a finite ts"):
            store.advance(now)
        with pytest.raises(ValueError, match="now must be a finite ts"):
            store.allocate_online(rows[1], now)
        assert store.timeline == [] and len(store) == 1
        # the clock and the window go on as before: the row at ts 0 leaves
        store.allocate_online(rows[2], 3000.0)
        store.advance(4200.0)
        assert [(e["ts"], e["window"]) for e in store.timeline] == [
            (600.0 * k, 2 if k < 6 else 1) for k in range(1, 8)]

    def test_advance_refuses_a_tick_the_period_cannot_move(self):
        store = self.make_store(period=600.0)
        decide(store, np.full(12, 0.5), 1e20)
        with pytest.raises(ValueError, match=r"1e\+20.*600\.0"):
            store.advance(1e20)  # 1e20 + 600 == 1e20
        assert store.timeline == []
        # ticks of 1 s reach 2**53, past which adding 1 rounds back
        store = self.make_store(period=1.0)
        store.advance(2.0 ** 53 - 2)
        with pytest.raises(ValueError, match=str(2.0 ** 53)):
            store.advance(2.0 ** 53 + 10)
        assert [row["ts"] for row in store.timeline] == [2.0 ** 53 - 1]

    def test_advance_refuses_more_ticks_than_its_limit_before_any_fires(self, monkeypatch):
        monkeypatch.setattr(allocator, "_MAX_TICKS", 3)
        store = self.make_store(period=1.0)
        refreshes = []
        monkeypatch.setattr(store, "window_refresh",
                            lambda now: refreshes.append(now) or store.lambda_snapshot)
        store.advance(0.0)
        store.advance(3.5)  # ticks 1, 2 and 3: at the limit
        assert refreshes == [1.0, 2.0, 3.0]
        with pytest.raises(ValueError, match=r"4 refresh ticks of 1\.0 s are due from ts 4\.0 "
                                             r"to 7\.5, more than the 3 one advance may fire"):
            store.advance(7.5)
        assert refreshes == [1.0, 2.0, 3.0] and len(store.timeline) == 3
        store.advance(6.0)  # a call within the limit still fires its ticks
        assert refreshes[3:] == [4.0, 5.0, 6.0]

    def test_advance_refuses_a_period_far_below_the_gap(self):
        store = self.make_store(period=6e-19)
        decide(store, np.full(12, 0.5), 0.0)
        store.advance(0.0)
        with pytest.raises(ValueError, match=f"1e\\+20 refresh ticks.*{allocator._MAX_TICKS}"):
            store.advance(60.0)
        assert store.timeline == []

    def test_cold_start_is_greedy(self):
        store = self.make_store()
        q = np.linspace(0.1, 1.2, 12)
        assert decide(store, q, now=0.0) == 11

    def test_stationary_stream_stabilizes_lambda(self):
        rng = np.random.default_rng(10)
        store = self.make_store(budget=87, span=3600.0, period=60.0)
        menu = ActionSet.default()
        lam_values = []
        t = 0.0
        for step in range(6000):
            base = rng.random()
            q = np.clip(base + 0.3 * DEFAULT_UNITS + rng.normal(0, 0.02, 12), 0, None)
            decide(store, q, t)
            t += 2.0
            if t % 60.0 < 2.0:
                lam_values.append(store.window_refresh(t))
        settled = lam_values[-20:]
        spread = (max(settled) - min(settled)) / max(settled)
        assert spread < 0.05

    def test_shift_reflected_within_window_span(self):
        # value scale drops at t_shift; lambda must fully re-settle within one span
        rng = np.random.default_rng(11)
        store = self.make_store(budget=87, span=1800.0, period=60.0)
        menu = ActionSet.default()
        t = 0.0
        lam_before = lam_after = None
        while t < 7200.0:
            sens = 1.0 if t < 3600.0 else 0.2
            q = np.clip(0.3 + sens * DEFAULT_UNITS + rng.normal(0, 0.01, 12), 0, None)
            decide(store, q, t)
            t += 2.0
            if t % 60.0 < 2.0:
                lam = store.window_refresh(t)
                if t < 3600.0:
                    lam_before = lam
                if t >= 3600.0 + 1800.0 + 60.0 and lam_after is None:
                    lam_after = lam
        # with sensitivity scaled by 0.2, every breakpoint scales by 0.2
        assert lam_after == pytest.approx(lam_before * 0.2, rel=0.15)

    def test_refresh_solves_current_window(self):
        store = self.make_store(budget=87)
        rng = np.random.default_rng(12)
        menu = ActionSet.default()
        for i in range(50):
            q = rng.random() + 0.5 * DEFAULT_UNITS
            decide(store, q, float(i))
        lam = store.window_refresh(now=100.0)
        rows = window_rows(store)
        expected = solve_lambda(AllocationProblem(rows, menu.all_cents, 87))
        assert lam == expected


# ---------------------------------------------------------------------------
# Oracles for the exact envelope solver: the subgradient bisection and the
# per-row breakpoint repair it replaced, kept here verbatim in behaviour.


def dual_cost_cents(problem, lam):
    """Cost of the dual selection argmax_j q_ij - lam c_j (ties toward cheaper)."""
    costs = costs_units(problem)
    scores = np.where(np.isfinite(problem.q), problem.q - lam * costs[None, :], -np.inf)
    rowmax = scores.max(axis=1, keepdims=True)
    chosen = np.argmin(np.where(scores == rowmax, costs[None, :], np.inf), axis=1)
    return int(np.asarray(problem.costs_cents, dtype=np.int64)[chosen].sum())


def cheapest_total_cents(problem):
    costs = np.asarray(problem.costs_cents, dtype=np.int64)
    return int(np.where(np.isfinite(problem.q), costs[None, :], np.iinfo(np.int64).max)
               .min(axis=1).sum())


def bisection_lambda(problem, tol=1e-9):
    budget_total = problem.n * problem.budget_cents
    if dual_cost_cents(problem, 0.0) <= budget_total:
        return 0.0
    if cheapest_total_cents(problem) > budget_total:
        raise InfeasibleProblemError("infeasible")
    row_range = np.nanmax(problem.q, axis=1) - np.nanmin(problem.q, axis=1)
    gaps = np.diff(np.unique(costs_units(problem)))
    gaps = gaps[gaps > 0]
    lam_max = float(np.max(row_range)) / float(gaps.min()) if gaps.size else 1.0
    lam_max = max(lam_max * (1.0 + 1e-9), tol)
    while dual_cost_cents(problem, lam_max) > budget_total:
        lam_max *= 2.0
    lo, hi = 0.0, lam_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if dual_cost_cents(problem, mid) <= budget_total:
            hi = mid
        else:
            lo = mid
    return hi


def pairwise_breakpoints(problem, above):
    """Every positive pairwise ratio and zero crossing of every row."""
    costs = costs_units(problem)
    bps = []
    for i in range(problem.n):
        present = np.flatnonzero(np.isfinite(problem.q[i]))
        qi, ci = problem.q[i, present], costs[present]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = (qi[:, None] - qi[None, :]) / (ci[:, None] - ci[None, :])
            zero_cross = qi / (ci - budget_units(problem))
        bps.append(ratios[np.isfinite(ratios) & (ratios > 0)])
        bps.append(zero_cross[np.isfinite(zero_cross) & (zero_cross > 0)])
    cand = np.unique(np.concatenate(bps))
    return cand[cand > above]


def breakpoint_repair_lambda(problem, lam0):
    """Multiplier the pairwise-breakpoint repair settles on: the smallest
    candidate at which the assignment fits, else a nudge past the last."""
    budget_total = problem.n * problem.budget_cents
    cands = pairwise_breakpoints(problem, lam0)

    def fits(lam):
        return assign(problem, float(lam)).total_cost_cents <= budget_total

    lo, hi = 0, len(cands) - 1
    if len(cands) == 0 or not fits(cands[hi]):
        return float(cands[hi]) * (1.0 + 1e-12) + 1e-15 if len(cands) else lam0 + 1.0
    while lo < hi:
        mid = (lo + hi) // 2
        if fits(cands[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(cands[lo])


def packed_at(problem, lam):
    """The assignment rule at ``lam``, then slack packing from its scores."""
    return _packed(problem, _row_cache(problem.q, problem._prices), lam)


def envelope_dual_cost_cents(problem, lam):
    """Cost of the dual choice at ``lam`` read from the reference's dense walk:
    each row's vertex after its breakpoints <= lam."""
    costs = np.asarray(problem.costs_cents, dtype=np.int64)
    return int(costs[ref.dual_choice(ref.row_cache(problem.q, costs), lam)].sum())


def loop_pack_slack(problem, assignment):
    """Slack packing with its candidate scan as a per-row loop: (chosen, total
    cost). A row's top is the score of its dual choice (the reference's)."""
    budget_total = problem.n * problem.budget_cents
    total = assignment.total_cost_cents
    if total > budget_total:
        return list(assignment.chosen), total
    costs_cents = np.asarray(problem.costs_cents, dtype=np.int64)
    scores = np.where(np.isfinite(problem.q), problem.q - assignment.lam * (
        costs_units(problem)[None, :] - budget_units(problem)), -np.inf)
    top = ref.assignment_rule(problem.q, ref.row_cache(problem.q, costs_cents), costs_cents,
                              problem.budget_cents, assignment.lam)[1]
    upgrades = []
    for i in range(problem.n):
        if top[i] < 0.0:
            continue
        tol_i = 1e-9 * max(1.0, abs(top[i]))
        cur = assignment.chosen[i]
        for j in np.flatnonzero(scores[i] >= top[i] - tol_i):
            extra = int(costs_cents[j] - costs_cents[cur])
            gain = float(problem.q[i, j] - problem.q[i, cur])
            if extra > 0 and gain > 0:
                upgrades.append((-extra, i, int(j), gain))
    chosen, used_rows = list(assignment.chosen), set()
    for neg_extra, i, j, _ in sorted(upgrades):
        if i not in used_rows and total - neg_extra <= budget_total:
            total -= neg_extra
            chosen[i] = j
            used_rows.add(i)
    return chosen, int(total)


def masked_problem(rng, from_menu=True, budget_below_min=False):
    """random_problem with some entries NaN (each row keeps one eligible action),
    feasible unless ``budget_below_min`` lets the budget drop below every cost."""
    p = random_problem(rng, from_menu=from_menu)
    q = p.q.copy()
    hide = rng.random(q.shape) < 0.3
    hide[np.arange(p.n), rng.integers(0, p.q.shape[1], p.n)] = False
    q[hide] = np.nan
    floor = -(-cheapest_total_cents(AllocationProblem(q, p.costs_cents, 0)) // p.n)
    low = min(p.costs_cents) - 30 if budget_below_min else floor
    return AllocationProblem(q, p.costs_cents, int(rng.integers(low, max(p.costs_cents) + 1)))


class TestEnvelope:
    def test_cost_curve_matches_dual_selection(self):
        rng = np.random.default_rng(20)
        for _ in range(300):
            p = masked_problem(rng, from_menu=bool(rng.integers(2)))
            cache = _row_cache(p.q, p._prices)
            lams, drops = cache.lam, cache.drop
            start = dual_cost_cents(p, 0.0)
            bps = np.unique(lams)
            probes = np.concatenate([(bps[:-1] + bps[1:]) / 2, bps[-1:] + 1.0, [bps[0] / 2]]) \
                if bps.size else np.array([1.0])
            for lam in probes:
                assert start - int(drops[lams <= lam].sum()) == dual_cost_cents(p, lam)
                v = _vertices(cache, float(lam), 0, p.n)
                assert int(p._prices.cents[v].sum()) == dual_cost_cents(p, lam)

    def test_walk_ends_at_cheapest_eligible_action(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            p = masked_problem(rng)
            start, cheapest, lams, drops, to, offsets = _row_cache(p.q, p._prices)
            assert dual_cost_cents(p, 0.0) - int(drops.sum()) == cheapest_total_cents(p)
            assert np.isfinite(lams).all() and (drops > 0).all()
            assert offsets[0] == 0 and offsets[-1] == lams.size == drops.size == to.size
            # each row's last move is to its cheapest eligible action
            ends, moves = start.copy(), np.diff(offsets) > 0
            ends[moves] = to[offsets[1:][moves] - 1]
            assert ends.tolist() == cheapest.tolist()
            assert (np.diff(offsets) >= 0).all() and (np.diff(offsets) < p.q.shape[1]).all()

    def test_rows_are_independent(self):
        rng = np.random.default_rng(22)
        p = masked_problem(rng)
        whole = _row_cache(p.q, p._prices)
        offsets = whole[5]
        for i in range(p.n):
            row = _row_cache(p.q[i:i + 1], p._prices)
            for a, b in zip(whole[:2], row[:2]):
                np.testing.assert_array_equal(a[i:i + 1], b)
            for a, b in zip(whole[2:5], row[2:5]):
                np.testing.assert_array_equal(a[offsets[i]:offsets[i + 1]], b)
            np.testing.assert_array_equal(row[5], [0, offsets[i + 1] - offsets[i]])

    def test_stores_only_the_breakpoints_the_walk_finds(self):
        # a row per case: the greedy action is the cheapest (no breakpoint), one
        # step, every action on the envelope, and the cheapest ineligible
        q = np.array([[2.0, 1.0, 0.5, 0.0],
                      [1.0, 1.5, 0.0, 0.0],
                      [0.0, 1.0, 1.8, 2.4],
                      [np.nan, 0.0, 1.0, np.nan]])
        prices = _Prices((100, 200, 300, 400), 250)
        start, cheapest, lams, drops, to, offsets = _row_cache(q, prices)
        assert offsets.tolist() == [0, 0, 1, 4, 5]
        assert drops.tolist() == [100, 100, 100, 100, 100]
        assert bits(lams[0]) == bits(0.5) and bits(lams[4]) == bits(1.0)
        assert lams[1:4].tolist() == pytest.approx([0.6, 0.8, 1.0])
        assert start.tolist() == [0, 1, 3, 2] and cheapest.tolist() == [0, 0, 0, 1]
        assert to.tolist() == [0, 2, 1, 0, 1]

    def test_breakpoints_rise_along_each_walk(self):
        # On nearly collinear rows float rounding puts some of a walk's ratios
        # below the one before; each recorded lam is the running max of its
        # row's ratios, so a row's breakpoints <= lam are the first of its walk.
        q = with_nans(np.random.default_rng(23), collinear_rows(
            np.random.default_rng(24), 2000, MENU_CENTS))
        cache = _row_cache(q, _Prices(MENU_CENTS.tolist(), 87))
        units = MENU_CENTS / 100.0
        clamped = 0
        for i in range(len(q)):
            lo, hi = cache.offsets[i], cache.offsets[i + 1]
            path = [cache.start[i], *cache.to[lo:hi]]
            ratios = [(q[i, a] - q[i, b]) / (units[a] - units[b]) for a, b in zip(path, path[1:])]
            assert cache.lam[lo:hi].tolist() == np.maximum.accumulate(ratios).tolist()
            clamped += any(r < before for before, r in zip(ratios, ratios[1:]))
        assert clamped > 0


class TestOneChoicePerRow:
    """The envelope is the one definition of a row's choice at lam."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_quantized_tie_heavy_rows(self, data):
        # Values on a 0.1 grid, some NaN, over menu costs (at times repeated):
        # many exact ties among scores and among breakpoints. At lam 0, at
        # random lams and at every breakpoint: the dual choice is the row's
        # envelope vertex; the rule, in the batch and online, takes that
        # vertex or the cheapest eligible action; each row's dual cost is
        # non-increasing in lam and the rule's is at most it; and each row's
        # recorded lams are non-decreasing.
        m = data.draw(st.integers(2, 6))
        costs = sorted(data.draw(st.lists(st.sampled_from(MENU_CENTS.tolist()),
                                          min_size=m, max_size=m)))
        value = st.one_of(st.integers(-5, 15).map(lambda k: k / 10), st.just(np.nan))
        row = st.lists(value, min_size=m, max_size=m).filter(lambda r: not np.isnan(r).all())
        q = np.array(data.draw(st.lists(row, min_size=1, max_size=8)))
        p = AllocationProblem(q, costs, data.draw(st.integers(costs[0] - 10, costs[-1] + 10)))
        prices, n = p._prices, p.n
        cache = _row_cache(q, prices)
        dense = ref.row_cache(q, prices.cents)
        store = WindowStore(costs, p.budget_cents)
        admitted = store.admit(q)
        units = prices.cents / 100.0
        eligible = np.isfinite(q)
        before = None
        for lam in sorted({0.0, *cache.lam.tolist(),
                           *data.draw(st.lists(st.floats(0.0, 30.0), max_size=4))}):
            v = _vertices(cache, lam, 0, n)
            assert v.tolist() == ref.dual_choice(dense, lam).tolist()
            assert eligible[np.arange(n), v].all()
            scores = np.where(eligible, q - lam * units, -np.inf)
            assert (scores[np.arange(n), v] >= scores.max(axis=1) - 1e-9 * (1.0 + lam)).all()
            chosen = np.array(assign(p, lam).chosen)
            top = q[np.arange(n), v] - (lam * prices.shift)[v]
            assert chosen.tolist() == np.where(top >= 0.0, v, cache.cheapest).tolist()
            store.lambda_snapshot = lam
            assert [store.allocate_online(r, 0.0) for r in admitted] == chosen.tolist()
            cost = prices.cents[v]
            assert (prices.cents[chosen] <= cost).all()
            assert before is None or (cost <= before).all()
            before = cost
        for i in range(n):
            assert (np.diff(cache.lam[cache.offsets[i]:cache.offsets[i + 1]]) >= 0).all()


class TestExactLambda:
    def test_matches_bisection(self):
        rng = np.random.default_rng(23)
        infeasible = 0
        for _ in range(600):
            p = masked_problem(rng, from_menu=bool(rng.integers(2)),
                               budget_below_min=bool(rng.integers(2)))
            try:
                expected = bisection_lambda(p)
            except InfeasibleProblemError:
                infeasible += 1
                with pytest.raises(InfeasibleProblemError):
                    solve_lambda(p)
                continue
            assert solve_lambda(p) == pytest.approx(expected, abs=1e-9)
        assert infeasible > 0

    def test_solved_lambda_is_the_first_float_at_which_the_dual_choice_fits(self):
        # the candidate breakpoint itself, with no step: one float below it the
        # envelope's dual choice is over budget; at it both that and the rule fit
        rng = np.random.default_rng(32)
        binding = 0
        for _ in range(300):
            p = contract_problems(rng)
            try:
                lam = solve_lambda(p)
            except InfeasibleProblemError:
                continue
            if lam > 0.0:
                binding += 1
                total = p.n * p.budget_cents
                assert assign(p, lam).total_cost_cents <= envelope_dual_cost_cents(p, lam) <= total
                assert envelope_dual_cost_cents(p, float(np.nextafter(lam, 0.0))) > total
        assert binding > 50

    def test_returns_python_float(self):
        slack = AllocationProblem(np.array([[1.0, 2.0]]), (0, 100), 100)
        for p in (slack, ONE_ROW):
            assert type(solve_lambda(p)) is float

    def test_duplicated_tied_rows_fit_without_repair(self):
        # 200 copies of 5 rows tie in groups at every breakpoint; the exact
        # breakpoint must still leave the assignment rule and the envelope's
        # dual choice within budget
        rng = np.random.default_rng(24)
        binding = 0
        for _ in range(40):
            base = masked_problem(rng, from_menu=bool(rng.integers(2)))
            q = np.tile(base.q[:5], (200, 1))
            costs = base.costs_cents
            floor = -(-cheapest_total_cents(AllocationProblem(q, costs, 0)) // len(q))
            greedy = dual_cost_cents(AllocationProblem(q, costs, 0), 0.0) // len(q)
            if floor >= greedy:
                continue  # no budget binds
            budget = int(rng.integers(floor, greedy))
            p = AllocationProblem(q, costs, budget)
            lam = solve_lambda(p)
            binding += lam > 0
            assert assign(p, lam).total_cost_cents <= p.n * budget
            assert envelope_dual_cost_cents(p, lam) <= p.n * budget
        assert binding > 20


class TestPackSlack:
    def test_matches_loop_scan(self):
        # tied rows come from duplicated rows solved at their exact breakpoint
        rng = np.random.default_rng(28)
        upgraded = 0
        for _ in range(200):
            base = masked_problem(rng, from_menu=bool(rng.integers(2)))
            p = AllocationProblem(np.tile(base.q, (int(rng.integers(1, 30)), 1)),
                                  base.costs_cents, base.budget_cents)
            for lam in (solve_lambda(p), float(rng.random() * 3)):
                start = assign(p, lam)
                packed = packed_at(p, lam)
                chosen, total = loop_pack_slack(p, start)
                assert (list(packed.chosen), packed.total_cost_cents) == (chosen, total)
                upgraded += packed.chosen != start.chosen
        assert upgraded > 20


def reference_solve_and_assign(problem):
    """The composition ``solve_and_assign`` fuses, as separate passes over the
    reference's dense envelope walk: the exact lam, then the assignment rule
    and slack packing each rebuilt from ``problem.q``."""
    costs_cents = np.asarray(problem.costs_cents, dtype=np.int64)
    cache = ref.row_cache(problem.q, costs_cents)
    lam = ref.exact_lambda(cache, costs_cents, problem.n * problem.budget_cents)
    # assign
    chosen, top = ref.assignment_rule(problem.q, cache, costs_cents, problem.budget_cents, lam)
    total = int(costs_cents[chosen].sum())
    chosen = [int(a) for a in chosen]
    # slack packing
    budget_total = problem.n * problem.budget_cents
    if total <= budget_total:
        scores = np.where(np.isfinite(problem.q), problem.q - lam * (
            costs_units(problem)[None, :] - budget_units(problem)), -np.inf)
        tol = 1e-9 * np.maximum(1.0, np.abs(top))
        rows, actions = np.nonzero((top >= 0.0)[:, None] & (scores >= (top - tol)[:, None]))
        cur = np.asarray(chosen, dtype=np.int64)[rows]
        extra = costs_cents[actions] - costs_cents[cur]
        gain = problem.q[rows, actions] - problem.q[rows, cur]
        keep = (extra > 0) & (gain > 0)
        rows, actions, extra, gain = rows[keep], actions[keep], extra[keep], gain[keep]
        order = np.lexsort((gain, actions, rows, -extra))
        used_rows = set()
        for neg_extra, i, j in zip((-extra[order]).tolist(), rows[order].tolist(),
                                   actions[order].tolist()):
            if i not in used_rows and total - neg_extra <= budget_total:
                total -= neg_extra
                chosen[i] = j
                used_rows.add(i)
    objective = float(problem.q[np.arange(problem.n), chosen].sum())
    return Assignment(chosen=tuple(chosen), lam=lam, objective=objective, total_cost_cents=total)


def contract_problems(rng):
    """masked_problem variants: menu and non-menu costs, duplicated (tied)
    rows, budgets that bind, that leave slack and that no assignment meets."""
    base = masked_problem(rng, from_menu=bool(rng.integers(2)),
                          budget_below_min=rng.random() < 0.15)
    q = base.q
    if rng.integers(2):
        q = np.tile(q, (int(rng.integers(2, 40)), 1))
        q = q[rng.permutation(q.shape[0])]
    return AllocationProblem(q, base.costs_cents, base.budget_cents)


class TestFusedSolveAndAssign:
    def test_equals_the_separate_passes_field_by_field(self):
        rng = np.random.default_rng(29)
        kinds = {"infeasible": 0, "slack": 0, "binding": 0, "packed": 0}
        for _ in range(400):
            p = contract_problems(rng)
            q_before = p.q.copy()
            try:
                expected = reference_solve_and_assign(p)
            except InfeasibleProblemError:
                kinds["infeasible"] += 1
                with pytest.raises(InfeasibleProblemError):
                    solve_and_assign(p)
            else:
                result = solve_and_assign(p)
                assert type(result.chosen) is tuple
                assert all(type(a) is int for a in result.chosen)
                assert result.chosen == expected.chosen
                assert result.total_cost_cents == expected.total_cost_cents
                assert type(result.lam) is float
                assert np.float64(result.lam).tobytes() == np.float64(expected.lam).tobytes()
                assert np.float64(result.objective).tobytes() == \
                    np.float64(expected.objective).tobytes()
                kinds["slack" if result.lam == 0.0 else "binding"] += 1
                kinds["packed"] += result.chosen != assign(p, result.lam).chosen
            assert p.q.tobytes() == q_before.tobytes()  # NaN positions included
        assert all(count >= 10 for count in kinds.values()), kinds


class TestRepairAgainstBreakpointRepair:
    def test_same_multiplier_or_a_few_ulps_past_a_rejected_candidate(self):
        rng = np.random.default_rng(25)
        compared = equal = 0
        for _ in range(400):
            p = masked_problem(rng, from_menu=bool(rng.integers(2)))
            lam_star = solve_lambda(p)
            for lam0 in (0.0, float(rng.random() * lam_star)):
                start = assign(p, lam0)
                if start.total_cost_cents <= p.n * p.budget_cents:
                    continue
                compared += 1
                result = repair_feasibility(p, start)
                old_lam = breakpoint_repair_lambda(p, lam0)
                old = packed_at(p, old_lam)
                assert result.total_cost_cents <= p.n * p.budget_cents
                if result.lam == old_lam:
                    equal += 1
                    assert result.chosen == old.chosen
                    continue
                # The pairwise repair skipped a candidate at which the assignment
                # is still over budget (a zero crossing, or float rounding at
                # the breakpoint); the envelope repair steps a few ulps past it.
                assert result.lam < old_lam
                cands = pairwise_breakpoints(p, lam0)
                skipped = float(cands[cands <= result.lam].max())
                assert assign(p, skipped).total_cost_cents > p.n * p.budget_cents
                assert result.lam - skipped <= 64 * np.spacing(skipped)
                assert result.objective >= old.objective - 1e-12
        assert compared > 100 and equal > compared // 2


class TestWindowExactness:
    def test_window_lambda_equals_stacked_solve(self):
        rng = np.random.default_rng(26)
        menu = ActionSet.default()
        store = KeptRowsStore(menu.all_cents, 87, window_span=300.0, refresh_period=60.0)
        t, appended, solved = 0.0, 0, 0
        for _ in range(60):
            for _ in range(int(rng.integers(0, 12))):
                q = rng.random() + 0.5 * DEFAULT_UNITS + rng.normal(0, 0.05, 12)
                q[1:][rng.random(11) < 0.3] = np.nan  # action 0 stays eligible: feasible
                decide(store, q, t)
                appended += 1
                t += float(rng.random() * 10)
            lam = store.window_refresh(t)
            rows = window_rows(store)
            if len(rows):
                expected = solve_lambda(AllocationProblem(rows, menu.all_cents, 87))
                assert lam == expected
                solved += lam > 0
        assert solved > 30 and len(store) < appended
        assert store.infeasible_refreshes == 0

    def test_infeasible_window_publishes_saturating_lambda(self):
        menu = ActionSet.default()
        store = KeptRowsStore(menu.all_cents, 60)  # below the cheapest bonus, 65
        rng = np.random.default_rng(27)
        for i in range(30):
            decide(store, rng.random(12) + DEFAULT_UNITS, float(i))
        lam = store.window_refresh(now=40.0)
        assert store.infeasible_refreshes == 1
        p = AllocationProblem(window_rows(store), menu.all_cents, 60)
        with pytest.raises(InfeasibleProblemError):
            solve_lambda(p)
        assert set(assign(p, lam).chosen) == {0}
        assert envelope_dual_cost_cents(p, lam) == cheapest_total_cents(p)
        assert lam == _row_cache(p.q, p._prices).lam.max()

    def test_infeasible_refresh_whose_move_to_the_cheapest_action_overflows(self):
        # The first row's move from action 1 to action 0 has lam = inf, so the
        # walk records no breakpoint for it and a window that holds it looks
        # infeasible, though action 0 costs 0. The refresh publishes the
        # window's largest breakpoint (0 without one) instead of solving a
        # second time.
        store = WindowStore((0, 100), 40, refresh_period=60.0)
        with np.errstate(over="ignore"):
            rows = store.admit(np.array([[-1.5e308, 1.5e308], [0.1, 0.5]]))
        store.advance(0.0)
        assert store.allocate_online(rows[0], 0.0) == 1
        store.advance(60.0)
        assert store.timeline[-1] == {"ts": 60.0, "lam": 0.0, "window": 1, "infeasible": True}
        assert store.allocate_online(rows[1], 90.0) == 1
        store.advance(120.0)
        lam = _row_cache(np.array([[0.1, 0.5]]), store._prices).lam.max()
        assert store.timeline[-1] == {"ts": 120.0, "lam": lam, "window": 2, "infeasible": True}
        assert store.infeasible_refreshes == 2

    def test_concurrent_appends_and_refreshes_lose_no_row(self):
        menu = ActionSet.default()
        store = KeptRowsStore(menu.all_cents, 87)
        rows = np.random.default_rng(29).random((4, 2000, 12)) + DEFAULT_UNITS
        done = threading.Event()

        def appender(k):
            for i, q in enumerate(rows[k]):
                decide(store, q, float(i))

        def refresher():
            # The short wait keeps a busy CPU from starving the appenders.
            while not done.is_set():
                store.window_refresh(600.0)
                done.wait(1e-4)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=appender, args=(k,)) for k in range(4)]
            refreshing = threading.Thread(target=refresher)
            refreshing.start()
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
            done.set()
            refreshing.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers) and not refreshing.is_alive()
        lam = store.window_refresh(600.0)
        window = window_rows(store)
        assert len(store) == len(window) == rows.shape[0] * rows.shape[1]
        assert sorted(map(tuple, window)) == sorted(map(tuple, rows.reshape(-1, 12)))
        assert lam == solve_lambda(AllocationProblem(window, menu.all_cents, 87))

    def test_append_rejects_wrong_width(self):
        store = WindowStore(ActionSet.default().all_cents, 87)
        with pytest.raises(ValueError):
            decide(store, np.ones(5), 0.0)
        assert len(store) == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_bad_row_is_rejected_before_it_reaches_the_window(self, bad):
        menu = ActionSet.default()
        store = KeptRowsStore(menu.all_cents, 87, window_span=1000.0, refresh_period=10.0)
        rng = np.random.default_rng(30)
        rows = rng.random((20, 12)) + DEFAULT_UNITS
        for i, q in enumerate(rows[:10]):
            decide(store, q, float(i))
        row = np.full(12, bad) if np.isnan(bad) else np.where(np.arange(12) == 3, bad, rows[10])
        with pytest.raises(ValueError):
            decide(store, row, 10.0)
        assert len(store) == 10
        for i, q in enumerate(rows[10:], start=10):
            decide(store, q, float(i))
        for now in (10.0, 500.0, 900.0):
            lam = store.window_refresh(now)
            assert lam == solve_lambda(AllocationProblem(window_rows(store), menu.all_cents, 87))
        assert len(store) == 20 and store.infeasible_refreshes == 0


# ---------------------------------------------------------------------------
# The compact walk, the incremental window and its breakpoint buffers against
# the whole-window reference (reference_allocator.py): the same bits, refresh
# by refresh.

MENU_CENTS = np.asarray(ActionSet.default().all_cents, dtype=np.int64)


def bits(lam):
    return np.float64(lam).tobytes()


def kernel_lambda(q, costs, budget_cents, total_cents):
    """``_exact_lambda`` over the compact breakpoints of the rows of ``q``."""
    prices = _Prices(costs, budget_cents)
    cache = _row_cache(q, prices)
    excess = int(prices.cents[cache.start].sum()) - total_cents
    return _exact_lambda(excess, cache.lam, cache.drop)


def assert_kernel_matches_reference(q, costs, budget_cents):
    """The kernel and the reference agree bit for bit at the budget, or both
    find it infeasible and then agree at the saturating total. At the lam
    found, the assignment rule and the dual choice fit the total in cents.
    Returns lam, or None when infeasible."""
    costs = np.asarray(costs, dtype=np.int64)
    cache = ref.row_cache(q, costs)
    total = len(q) * budget_cents
    try:
        expected = ref.exact_lambda(cache, costs, total)
    except InfeasibleProblemError:
        with pytest.raises(InfeasibleProblemError):
            kernel_lambda(q, costs, budget_cents, total)
        saturating = int(costs[cache[2]].sum())
        assert bits(kernel_lambda(q, costs, budget_cents, saturating)) == bits(
            ref.exact_lambda(cache, costs, saturating))
        return None
    assert bits(kernel_lambda(q, costs, budget_cents, total)) == bits(expected)
    chosen = ref.assignment_rule(q, cache, costs, budget_cents, expected)[0]
    assert int(costs[chosen].sum()) <= int(costs[ref.dual_choice(cache, expected)].sum()) <= total
    return expected


def with_nans(rng, q, share=0.25):
    """``q`` with a share of entries ineligible; every row keeps one eligible action."""
    q = q.copy()
    hide = rng.random(q.shape) < share
    hide[np.arange(len(q)), rng.integers(0, q.shape[1], len(q))] = False
    q[hide] = np.nan
    return q


def collinear_rows(rng, n, costs):
    """Rows whose values lie on a line in cost, up to a few ulps of noise."""
    units = np.asarray(costs) / 100.0
    q = rng.random((n, 1)) + rng.random((n, 1)) * units
    return q + rng.normal(0.0, 1e-15, q.shape) * rng.integers(0, 2, (n, 1))


def window_contents(store):
    """The live rows' timestamps and Q rows of a ``KeptRowsStore`` or ``ConcatWindow``."""
    if isinstance(store, ref.ConcatWindow):
        ts, qm = store.window[:2]
        return ts, np.where(np.isneginf(qm), np.nan, qm)
    return np.array(store._ts, dtype=float), window_rows(store)


def live_layout(store):
    """The live rows of a ``WindowStore``, joined run after run from their
    batches: each row's greedy cents, read from its batch's running sum, and
    the rows' breakpoints in the compact layout (lam, drop, offsets)."""
    greedy_cents, lam, drop, offsets = [], [], [], [np.zeros(1, dtype=np.intp)]
    for cache, greedy, first, end in store._runs:
        assert 0 <= first < end <= len(cache.start)
        greedy_cents.append(np.diff(greedy[first:end + 1]))
        entries = slice(cache.offsets[first], cache.offsets[end])
        lam.append(cache.lam[entries])
        drop.append(cache.drop[entries])
        offsets.append(cache.offsets[first + 1:end + 1] - cache.offsets[first] + offsets[-1][-1])
    return (np.concatenate([np.empty(0, dtype=np.int64), *greedy_cents]),
            np.concatenate([np.empty(0), *lam]),
            np.concatenate([np.empty(0, dtype=np.int64), *drop]), np.concatenate(offsets))


def live_entries(store):
    """The number of the window's live breakpoints."""
    return int(live_layout(store)[3][-1])


def assert_same_window(store, reference):
    (ts, q), (ref_ts, ref_q) = window_contents(store), window_contents(reference)
    assert ts.tobytes() == ref_ts.tobytes()
    assert q.tobytes() == ref_q.tobytes()
    assert bits(store.lambda_snapshot) == bits(reference.lambda_snapshot)
    assert store.infeasible_refreshes == reference.infeasible_refreshes
    # The runs' slices of their batches' breakpoints, joined in window order,
    # are the reference's compact entries byte for byte: a breakpoint filed
    # under the wrong row, or a run whose bounds are off by one, fails.
    greedy_cents, lam, drop, offsets = live_layout(store)
    _, _, start, _, *tables = reference.window
    ref_lam, ref_drop, _, ref_offsets = ref.compact(*tables)
    assert np.array_equal(greedy_cents, reference.cents[start])
    assert np.array_equal(offsets, ref_offsets)
    assert lam.tobytes() == ref_lam.tobytes()
    assert drop.tobytes() == ref_drop.tobytes()


class TestKernelAgainstWholeWindowReference:
    def test_walk_matches_the_reference_walk(self):
        # the compact entries are the reference tables' finite ones, row by row
        # in walk order
        rng = np.random.default_rng(40)
        for _ in range(200):
            p = contract_problems(rng)
            costs = np.asarray(p.costs_cents, dtype=np.int64)
            for q in (p.q, with_nans(rng, collinear_rows(rng, p.n, costs))):
                _, start, cheapest, *tables = ref.row_cache(q, costs)
                assert same_arrays(_row_cache(q, p._prices),
                                   (start, cheapest, *ref.compact(*tables)))

    def test_random_windows(self):
        rng = np.random.default_rng(41)
        kinds = {"infeasible": 0, "slack": 0, "binding": 0}
        for _ in range(400):
            p = contract_problems(rng)
            lam = assert_kernel_matches_reference(p.q, p.costs_cents, p.budget_cents)
            kinds["infeasible" if lam is None else "slack" if lam == 0 else "binding"] += 1
        assert all(count >= 15 for count in kinds.values()), kinds

    def test_large_windows_whose_far_rows_are_read_from_the_cumulative_sum(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(500, 3000))
            q = with_nans(rng, rng.random((n, 1)) + 0.6 * MENU_CENTS / 100.0
                          + rng.normal(0, 0.05, (n, MENU_CENTS.size)))
            q[:, 0] = np.where(np.isnan(q[:, 0]), 0.5, q[:, 0])  # feasible at any budget
            assert assert_kernel_matches_reference(q, MENU_CENTS, int(rng.integers(66, 110))) > 0

    def test_adversarial_windows(self):
        rng = np.random.default_rng(43)
        tiny = scaled = 0
        for trial in range(240):
            kind = trial % 4
            n = int(rng.integers(5, 60))
            if kind == 0:  # duplicated rows tie at every breakpoint
                q = np.tile(with_nans(rng, rng.random((5, 12)) + 0.5 * MENU_CENTS / 100.0),
                            (n, 1))
            elif kind == 1:  # nearly collinear actions
                q = with_nans(rng, collinear_rows(rng, n, MENU_CENTS))
            elif kind == 2:  # breakpoints near 1e-12
                q = rng.random((n, 1)) + 1e-12 * np.sqrt(MENU_CENTS / 100.0) * rng.random((n, 1))
            else:  # large |q| over small differences
                scale = 10.0 ** float(rng.choice([3, 6, 9, 12]))
                q = scale * (1.0 + rng.random((n, 1))) + rng.random((n, 12)) * MENU_CENTS / 100
            budget = int(rng.integers(MENU_CENTS.min(), MENU_CENTS.max()))
            lam = assert_kernel_matches_reference(q, MENU_CENTS, budget)
            tiny += kind == 2 and lam is not None and 0 < lam < 1e-9
            scaled += kind == 3 and lam is not None and lam > 0
        assert tiny >= 20 and scaled >= 20

    def test_batch_solves_match_the_reference(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            p = contract_problems(rng)
            try:
                lam = solve_lambda(p)
            except InfeasibleProblemError:
                continue
            costs = np.asarray(p.costs_cents)
            expected = ref.exact_lambda(ref.row_cache(p.q, costs), costs, p.n * p.budget_cents)
            assert bits(lam) == bits(expected) == bits(solve_and_assign(p).lam)


def random_row(rng, kind, costs, seen):
    units = np.asarray(costs) / 100.0
    if kind == 0 or not seen:
        q = rng.random() + 0.5 * units + rng.normal(0, 0.05, units.size)
    elif kind == 1:
        q = collinear_rows(rng, 1, costs)[0]
    else:
        q = seen[int(rng.integers(len(seen)))].copy()  # a duplicate
    q[1:][rng.random(units.size - 1) < 0.3] = np.nan
    return q


class TestWindowAgainstConcatReference:
    def test_random_streams(self):
        rng = np.random.default_rng(45)
        refreshes = {"infeasible": 0, "empty": 0, "slack": 0, "binding": 0}
        for trial in range(24):
            # the menu; six of its costs, sorted and at times repeated; one cost
            costs = (MENU_CENTS if trial % 2 else MENU_CENTS[:1] if trial % 8 == 7 else
                     np.sort(rng.choice(MENU_CENTS, 6, replace=trial % 8 == 3)))
            budget = (60, 80, 87, 100)[trial % 4]  # 60 is below every cost
            span = float(rng.choice([40.0, 200.0, 1e9]))
            store = KeptRowsStore(costs, budget, window_span=span)
            reference = ref.ConcatWindow(costs, budget, span)
            t, seen = 0.0, []
            for _ in range(40):
                for _ in range(int(rng.integers(0, 12))):
                    q = random_row(rng, trial % 3, costs, seen)
                    seen.append(q)
                    ts = t - float(rng.random() * 30) * (rng.random() < 0.2)  # some late
                    decide(store, q, ts)
                    reference.append(ts, q)
                t += float(rng.random() * 25) + 200.0 * (rng.random() < 0.05)  # a lull
                lam = store.window_refresh(t)
                assert bits(lam) == bits(reference.window_refresh(t))
                assert len(store) == len(reference.window[0])
                assert_same_window(store, reference)
                refreshes["empty" if not len(store) else "slack" if lam == 0 else
                          "infeasible" if budget == 60 else "binding"] += 1
        assert all(count >= 20 for count in refreshes.values()), refreshes

    def test_every_refresh_of_a_default_simulation(self):
        env_config, behavior, actions = default_config()
        env = CheckinEnv(env_config, actions)
        dataset = generate_dataset(env, behavior, 150, seed=3)
        agent = bcq_train(dataset, actions, HyperParams(
            xi=0.3, training_steps=300, seed=3, hidden_sizes=(32, 32), learning_rate=0.01,
            optimizer="adam"))

        class CheckedStore(KeptRowsStore):
            """A default store that holds every refresh to the reference window's."""

            def __init__(self):
                super().__init__(actions.all_cents, 87)
                self.reference = ref.ConcatWindow(actions.all_cents, 87, self.window_span)

            def allocate_online(self, row, now):
                self.reference.append(now, admitted_row(row))
                return super().allocate_online(row, now)

            def window_refresh(self, now):
                lam = super().window_refresh(now)
                assert bits(lam) == bits(self.reference.window_refresh(now))
                return lam

        store = CheckedStore()
        report = simulate_online(env, BcqPolicy(agent), store, 7, 150, seed=3)
        assert len(report.lambda_timeline) > 900
        assert sum(row["lam"] > 0 for row in report.lambda_timeline) > 500
        # the reference takes in the rows decided since the last tick at a refresh
        store.window_refresh(report.lambda_timeline[-1]["ts"])
        assert_same_window(store, store.reference)


class TestWindowEviction:
    def make_pair(self, budget=87, span=100.0):
        return (KeptRowsStore(MENU_CENTS, budget, window_span=span),
                ref.ConcatWindow(MENU_CENTS, budget, span))

    def test_out_of_order_rows_leave_up_to_the_first_row_inside_the_span(self):
        store, reference = self.make_pair()
        rng = np.random.default_rng(46)
        for ts in (0.0, 50.0, 10.0, 200.0, 60.0):
            q = rng.random(12) + DEFAULT_UNITS
            decide(store, q, ts)
            reference.append(ts, q)
        for now, live in ((120.0, [50.0, 10.0, 200.0, 60.0]), (155.0, [200.0, 60.0]),
                          (165.0, [200.0, 60.0]), (299.0, [200.0, 60.0]), (300.0, [])):
            assert bits(store.window_refresh(now)) == bits(reference.window_refresh(now))
            assert window_contents(store)[0].tolist() == live
            assert_same_window(store, reference)

    def test_rows_of_two_batches_at_consecutive_indexes_are_two_runs(self):
        # row 1 of the second batch follows row 0 of the first: the index
        # continues the first batch's run, but the row is not of it
        store, reference = self.make_pair()
        rng = np.random.default_rng(57)
        first, second = (rng.random((3, 12)) + DEFAULT_UNITS for _ in range(2))
        rows = store.admit(first), store.admit(second)
        for ts, (k, i) in enumerate([(0, 0), (1, 1), (0, 1), (1, 2)]):
            store.allocate_online(rows[k][i], float(ts))
            reference.append(float(ts), (first, second)[k][i])
        assert len(store._runs) == 4
        for now in (50.0, 101.5):
            assert bits(store.window_refresh(now)) == bits(reference.window_refresh(now))
            assert_same_window(store, reference)
        assert len(store) == 2

    def test_concurrent_appenders_evict_as_the_reference_does(self):
        store, reference = self.make_pair(span=300.0)
        rows = np.random.default_rng(47).random((4, 300, 12)) + DEFAULT_UNITS

        def appender(k):
            for i, q in enumerate(rows[k]):
                decide(store, q, float(i + 7 * k))  # each thread's clock runs on its own

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=appender, args=(k,)) for k in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        ts, q = window_contents(store)  # in the order the appenders got the lock in
        for t, row in zip(ts.tolist(), q):
            reference.append(t, row)
        assert not (np.diff(ts) >= 0).all()
        for now in (300.0, 350.0, 420.0, 500.0, 640.0):
            assert bits(store.window_refresh(now)) == bits(reference.window_refresh(now))
            assert_same_window(store, reference)
        assert len(store) == 0

    def test_refreshes_over_more_than_a_block_of_breakpoints(self):
        # Each refresh sees over _WALK_BLOCK live breakpoints, so _exact_lambda
        # runs selection rounds on the unsorted live slice; the third batch
        # adds rows eligible only for the two dearest actions, which no
        # multiplier fits into the budget.
        store, reference = self.make_pair(span=100.0)
        rng = np.random.default_rng(53)
        dear = np.full((3000, 12), np.nan)
        dear[:, 10:] = rng.random((3000, 2)) + DEFAULT_UNITS[10:]
        seen = {"binding": 0, "infeasible": 0, "evicting": 0, "one_run": 0, "two_runs": 0}
        for k, seed in enumerate(range(70, 76)):
            q = tie_heavy_q(4000, seed)
            if k == 2:
                q = rng.permutation(np.concatenate([q, dear]))
            ts = 80.0 * k + np.sort(rng.random(len(q))) * 60.0
            for t, row, admitted in zip(ts.tolist(), q, store.admit(q)):
                store.allocate_online(admitted, t)
                reference.append(t, row)
            live, infeasible = len(store), store.infeasible_refreshes
            now = 80.0 * k + 65.0
            assert bits(store.window_refresh(now)) == bits(reference.window_refresh(now))
            assert_same_window(store, reference)
            assert live_entries(store) > allocator._WALK_BLOCK
            seen["evicting"] += len(store) < live
            seen["one_run"] += len(store._runs) == 1  # the solve reads a view
            seen["two_runs"] += len(store._runs) > 1  # the solve joins two batches' slices
            if store.infeasible_refreshes > infeasible:
                seen["infeasible"] += 1
            else:
                seen["binding"] += store.lambda_snapshot > 0
        assert all(seen.values()), seen

    def test_window_that_empties_and_refills(self):
        store, reference = self.make_pair(span=100.0)
        rng = np.random.default_rng(49)
        lams = []
        for start in (0.0, 1000.0, 5000.0):
            for i in range(30):
                q = rng.random(12) + DEFAULT_UNITS
                decide(store, q, start + i)
                reference.append(start + i, q)
            for now in (start + 40.0, start + 500.0):
                assert bits(store.window_refresh(now)) == bits(reference.window_refresh(now))
                assert_same_window(store, reference)
            assert len(store) == 0
            lams.append(store.lambda_snapshot)  # an empty window keeps the last snapshot
        assert all(lam > 0 for lam in lams)


class TestWindowReleases:
    """The window holds a batch's row cache and running sum only while it holds
    a row decided from it, and never the batch itself or its Q rows."""

    def admit_and_decide(self, store, rng, n, ts):
        rows = store.admit(rng.random((n, 12)) + DEFAULT_UNITS)
        for t, row in zip(ts, rows):
            store.allocate_online(row, t)
        return rows

    def test_a_batch_is_freed_once_its_rows_are_evicted_and_dropped(self):
        rng = np.random.default_rng(54)
        for drop_first in (True, False):
            store = WindowStore(MENU_CENTS, 87, window_span=100.0)
            rows = self.admit_and_decide(store, rng, 6, [0.0, 1.0, 2.0, 3.0])
            batch = weakref.ref(rows[0][0])
            kept = [weakref.ref(a) for a in (rows[0][0].cache.lam, rows[0][0].greedy)]
            self.admit_and_decide(store, rng, 3, [50.0, 60.0, 70.0])
            if drop_first:
                del rows
                assert batch() is None  # the window holds no batch and no Q rows
            store.window_refresh(102.0)  # evicts the rows at ts 0, 1 and 2
            assert len(store) == 4 and all(r() is not None for r in kept)
            store.window_refresh(103.0)  # and the batch's last decided row
            assert len(store) == 3
            assert all(r() is None for r in kept) == drop_first
            if not drop_first:
                assert batch() is not None  # the caller still holds its admitted rows
                del rows
                assert batch() is None and all(r() is None for r in kept)

    def test_an_emptied_window_holds_no_batch(self):
        store = WindowStore(MENU_CENTS, 87, window_span=100.0)
        rows = self.admit_and_decide(store, np.random.default_rng(56), 4, [0.0, 1.0, 2.0, 3.0])
        held = [weakref.ref(a) for a in (rows[0][0], rows[0][0].cache.lam, rows[0][0].greedy)]
        del rows
        store.window_refresh(103.0)
        assert len(store) == 0 and all(r() is None for r in held)

    def test_a_batch_none_of_whose_rows_was_decided_is_not_held(self):
        rng = np.random.default_rng(55)
        store = WindowStore(MENU_CENTS, 87, window_span=100.0, refresh_period=10.0)
        store.advance(0.0)
        self.admit_and_decide(store, rng, 2, [0.0, 1.0])
        skipped = store.admit(rng.random((5, 12)) + DEFAULT_UNITS)
        held = [weakref.ref(a) for a in (skipped[0][0], skipped[0][0].cache.lam,
                                         skipped[0][0].greedy)]
        self.admit_and_decide(store, rng, 2, [20.0, 30.0])
        store.advance(40.0)
        del skipped
        assert all(r() is None for r in held)
        assert len(store) == 4 and len(store.timeline) == 4


# ---------------------------------------------------------------------------
# Rows admitted in batches against the store that takes raw rows one at a time
# (reference_allocator.RowStore): the same decisions and the same bits.


def timeline_bits(store):
    return [(bits(e["ts"]), bits(e["lam"]), e["window"], e["infeasible"]) for e in store.timeline]


class TestAdmissionAgainstRowStore:
    def test_random_streams_admitted_in_random_chunks(self):
        rng = np.random.default_rng(50)
        seen = {"evicting": 0, "infeasible": 0, "two_batches": 0, "split_batch": 0, "binding": 0}
        for trial in range(36):
            costs = MENU_CENTS if trial % 2 else np.sort(rng.choice(MENU_CENTS, 6,
                                                                   replace=trial % 6 == 3))
            budget = (60, 80, 87, 100)[trial % 4]  # 60 is below every cost
            span, period = float(rng.choice([200.0, 2000.0, 1e9])), float(rng.choice([15.0, 60.0]))
            store = WindowStore(costs, budget, window_span=span, refresh_period=period)
            reference = ref.RowStore(costs, budget, window_span=span, refresh_period=period)
            n = int(rng.integers(1, 300))
            q = []
            for _ in range(n):
                q.append(random_row(rng, int(rng.integers(3)), costs, q))  # NaN in 30% of entries
            q = np.array(q)
            ts = np.cumsum(rng.random(n) * 12.0) - 30.0 * rng.random(n) * (rng.random(n) < 0.1)
            # chunk sizes from 1 to n; rows are decided mostly in order, with
            # neighbours swapped, so the window holds runs of two batches and
            # a batch whose rows are in two runs
            cuts = np.unique(np.concatenate([[0, n], rng.integers(0, n, int(rng.integers(0, 8)))]))
            chunk_of = np.searchsorted(cuts, np.arange(n), "right") - 1
            order = np.arange(n)
            for k in range(n - 1):
                if rng.random() < 0.15:
                    order[k], order[k + 1] = order[k + 1], order[k]
            admitted = [None] * n
            for k in order.tolist():
                if admitted[k] is None:
                    lo, hi = cuts[chunk_of[k]], cuts[chunk_of[k] + 1]
                    admitted[lo:hi] = store.admit(q[lo:hi])
                store.advance(float(ts[k]))
                reference.advance(float(ts[k]))
                batches = len({id(cache) for cache, *_ in store._runs})
                seen["two_batches"] += batches > 1
                seen["split_batch"] += len(store._runs) > batches
                assert store.allocate_online(admitted[k], float(ts[k])) == \
                    reference.allocate_online(q[k], float(ts[k]))
                assert bits(store.lambda_snapshot) == bits(reference.lambda_snapshot)
                assert len(store) == len(reference)
            for now in (float(ts.max()) + period, float(ts.max()) + span):
                assert bits(store.window_refresh(now)) == bits(reference.window_refresh(now))
                assert len(store) == len(reference)
            assert timeline_bits(store) == timeline_bits(reference)
            assert store.infeasible_refreshes == reference.infeasible_refreshes
            seen["evicting"] += any(a["window"] > b["window"]
                                    for a, b in zip(store.timeline, store.timeline[1:]))
            seen["infeasible"] += store.infeasible_refreshes > 0
            seen["binding"] += any(e["lam"] > 0 and not e["infeasible"] for e in store.timeline)
        assert all(count >= 5 for count in seen.values()), seen

    def test_admitted_rows_are_a_copy(self):
        # a caller that reuses its matrix after admit changes no decision
        q = np.random.default_rng(52).random((4, 12)) + DEFAULT_UNITS
        expected = [decide(WindowStore(MENU_CENTS, 87, initial_lambda=1.5), row, 0.0) for row in q]
        store = WindowStore(MENU_CENTS, 87, initial_lambda=1.5)
        rows = store.admit(q)
        q[:, ::-1] = q.copy()
        assert [store.allocate_online(row, 0.0) for row in rows] == expected

    def test_allocate_online_takes_only_rows_this_store_admitted(self):
        store = WindowStore(MENU_CENTS, 87)
        other = WindowStore(MENU_CENTS, 87)
        q = np.random.default_rng(51).random((3, 12)) + DEFAULT_UNITS
        rows = other.admit(q)
        # nor an index admit did not hand out: a negative one would wrap to another row
        forged = [(rows[0][0], i) for i in (-1, 3, True, np.int64(1), 1.0)]
        for owner, row in [*((store, r) for r in (q[0], rows[0], (0.5, 1), None)),
                           *((other, r) for r in forged)]:
            with pytest.raises(TypeError, match="admit"):
                owner.allocate_online(row, 0.0)
        assert len(store) == 0 and len(other) == 0
        assert other.allocate_online(rows[2], 0.0) == decide(store, q[2], 0.0)
        assert len(store) == len(other) == 1


# ---------------------------------------------------------------------------
# The one lam kernel of the batch and the window, by selection: the same
# bits as the sort of every breakpoint, or the same error.


def sorted_lambda(excess, lam, drop):
    """The multiplier by the sort of every breakpoint: the lam at which the
    cumulative drop in stable lam order first reaches ``excess``; 0 when the
    excess is not positive, None when all the drops do not cover it."""
    if excess <= 0:
        return 0.0
    order = np.argsort(lam, kind="stable")
    k = int(np.searchsorted(np.cumsum(drop[order]), excess))
    return float(lam[order[k]]) if k < lam.size else None


def assert_lambda_is_the_sorted_one(excess, lam, drop):
    expected = sorted_lambda(excess, lam, drop)
    if expected is None:
        with pytest.raises(InfeasibleProblemError):
            _exact_lambda(excess, lam, drop)
    else:
        result = _exact_lambda(excess, lam, drop)
        assert type(result) is float and bits(result) == bits(expected)


class TestLambdaBySelection:
    @pytest.mark.parametrize("grid", [None, 4, 1])
    def test_equals_the_sort_of_every_breakpoint(self, grid):
        # grid: lams on a coarse grid (4 values, or 1), so equal lams sit on
        # both sides of every halving split; sizes below, at and above the
        # count at which selection stops and sorts
        rng = np.random.default_rng(61 + (grid or 0))
        block = allocator._WALK_BLOCK
        for size in (0, 1, 7, block - 1, block, block + 1, 2 * block + 3, 5 * block + 11):
            if grid is None:
                lam = rng.random(size) * 3.0
            else:
                lam = rng.integers(0, grid, size) / 4.0
            drop = rng.integers(1, 120, size).astype(np.int64)
            total = int(drop.sum())
            order = np.argsort(lam, kind="stable")
            # every cumulative-drop boundary of a tie group, and one past it
            ends = np.cumsum(drop[order])[np.append(np.diff(lam[order]) != 0, True)[:size]]
            excesses = {-5, 0, 1, total - 1, total, total + 1,
                        *rng.integers(1, total + 2, 20).tolist(),
                        *ends[:: max(1, ends.size // 16)].tolist(),
                        *(ends[:: max(1, ends.size // 16)] + 1).tolist()}
            lam_before, drop_before = lam.copy(), drop.copy()
            for excess in sorted(excesses):
                assert_lambda_is_the_sorted_one(excess, lam, drop)
            assert lam.tobytes() == lam_before.tobytes() and drop.tobytes() == drop_before.tobytes()

    def test_batch_multiplier_equals_the_sort_of_every_breakpoint(self):
        # a matrix of more than a block of breakpoints, at budgets that bind,
        # leave slack and that no assignment meets
        q = tie_heavy_q(3 * allocator._WALK_BLOCK, 62)
        for budget in (-10, 66, 70, 87, 120, 200):
            p = AllocationProblem(q, MENU_CENTS.tolist(), budget)
            cache = _row_cache(q, p._prices)
            assert cache.lam.size > allocator._WALK_BLOCK
            excess = int(p._prices.cents[cache.start].sum()) - p.n * budget
            expected = sorted_lambda(excess, cache.lam, cache.drop)
            if expected is None:
                with pytest.raises(InfeasibleProblemError):
                    _problem_lambda(p, cache)
            else:
                assert bits(_problem_lambda(p, cache)) == bits(expected)


# ---------------------------------------------------------------------------
# Rows in parts: the row-by-row kernels give the same bits however many CPUs
# split them, and a part's error and the caller's numpy settings cross threads.

# one part below 2 * _MIN_PART rows, more from it; the largest splits into 3
# parts whose edges fall inside walk blocks
PART_SIZES = (2 * allocator._MIN_PART - 1, 2 * allocator._MIN_PART,
              2 * allocator._MIN_PART + 1, 3 * allocator._MIN_PART + allocator._WALK_BLOCK // 3)


def pin_cpus(monkeypatch, k):
    monkeypatch.setattr(allocator, "_cpus", lambda: k)


def tie_heavy_q(n, seed):
    """Q on a coarse grid over the menu, a quarter NaN: many tied scores and ratios."""
    rng = np.random.default_rng(seed)
    q = rng.integers(0, 8, (n, MENU_CENTS.size)) / 8 + MENU_CENTS / 200
    hide = rng.random(q.shape) < 0.25
    hide[np.arange(n), rng.integers(0, MENU_CENTS.size, n)] = False
    q[hide] = np.nan
    return q


def same_arrays(a, b):
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in zip(a, b))


def rule_arrays(q, cache, prices, lam):
    """The assignment rule's choices, tops and packing candidates (rows, actions)."""
    choice, top, (rows, actions) = _assign_rows(q, cache, prices, lam, pack=True)
    return choice, top, rows, actions


class TestRowsInParts:
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_parts_are_consecutive_slices_of_at_least_the_minimum(self, monkeypatch, cpus):
        pin_cpus(monkeypatch, cpus)
        caller = threading.get_ident()
        for n in (0, 1, *PART_SIZES):
            seen = []
            _in_parts(lambda lo, hi: seen.append((lo, hi, threading.get_ident())), n)
            seen.sort()
            parts = max(1, min(cpus, n // allocator._MIN_PART))
            assert len(seen) == parts
            assert [lo for lo, _, _ in seen] == [0, *(hi for _, hi, _ in seen[:-1])]
            assert seen[-1][1] == n
            assert parts == 1 or min(hi - lo for lo, hi, _ in seen) >= allocator._MIN_PART
            assert (seen[0][2] == caller) == (parts == 1)

    def test_few_rows_run_inline_without_reading_the_cpu_count(self, monkeypatch):
        def no_cpus():
            raise AssertionError("_cpus read for fewer than 2 * _MIN_PART rows")

        monkeypatch.setattr(allocator, "_cpus", no_cpus)
        caller = threading.get_ident()
        for n in (0, 1, allocator._MIN_PART, 2 * allocator._MIN_PART - 1):
            seen = []
            _in_parts(lambda lo, hi: seen.append((lo, hi, threading.get_ident())), n)
            assert seen == [(0, n, caller)]
        with pytest.raises(AssertionError, match="_cpus read"):
            _in_parts(lambda lo, hi: None, 2 * allocator._MIN_PART)

    @pytest.mark.parametrize("cpus", [2, 3, 4])
    def test_kernels_match_the_one_part_run(self, monkeypatch, cpus):
        prices = _Prices(MENU_CENTS.tolist(), 87)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # parts interleave as finely as they can
        try:
            for n in PART_SIZES:
                q = tie_heavy_q(n, n)
                pin_cpus(monkeypatch, 1)
                cache = _row_cache(q, prices)
                rules = [rule_arrays(q, cache, prices, lam) for lam in (0.0, 0.5, 2.5)]
                assert rules[1][2].size  # tied rows leave packing candidates
                pin_cpus(monkeypatch, cpus)
                assert same_arrays(_row_cache(q, prices), cache)
                for lam, rule in zip((0.0, 0.5, 2.5), rules):
                    assert same_arrays(rule_arrays(q, cache, prices, lam), rule)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_solve_and_assign_matches_the_reference(self, monkeypatch, cpus):
        pin_cpus(monkeypatch, cpus)
        for n, budget in itertools.product(PART_SIZES, (70, 87, 120)):
            p = AllocationProblem(tie_heavy_q(n, n + budget), MENU_CENTS.tolist(), budget)
            result, expected = solve_and_assign(p), reference_solve_and_assign(p)
            assert result.chosen == expected.chosen
            assert result.total_cost_cents == expected.total_cost_cents
            assert bits(result.lam) == bits(expected.lam) and result.lam > 0.0
            assert bits(result.objective) == bits(expected.objective)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_packing_across_block_and_part_edges(self, monkeypatch, cpus):
        # five tie-heavy rows repeated in turn: at a binding lam the copies of
        # the tied rows are packing candidates on both sides of every block
        # edge and every part edge
        pin_cpus(monkeypatch, cpus)
        n, block = PART_SIZES[-1], allocator._WALK_BLOCK
        q = tie_heavy_q(5, 63)[np.arange(n) % 5]
        bounds = [n * i // cpus for i in range(cpus + 1)]
        edges = [at for lo, hi in zip(bounds, bounds[1:]) for at in range(lo, hi, block)][1:]
        upgraded = 0
        for budget in (70, 87, 120):
            p = AllocationProblem(q, MENU_CENTS.tolist(), budget)
            result, expected = solve_and_assign(p), reference_solve_and_assign(p)
            assert result.chosen == expected.chosen
            assert result.total_cost_cents == expected.total_cost_cents
            assert bits(result.lam) == bits(expected.lam) and result.lam > 0.0
            assert bits(result.objective) == bits(expected.objective)
            rows = _assign_rows(q, _row_cache(q, p._prices), p._prices, result.lam, pack=True)[2][0]
            near = np.isin(np.arange(n), rows)
            assert all(near[at - 5:at].any() and near[at:at + 5].any() for at in edges)
            upgraded += result.chosen != assign(p, result.lam).chosen
        assert upgraded

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_first_error_propagates_after_every_part_ends(self, monkeypatch, cpus):
        pin_cpus(monkeypatch, cpus)
        threads = threading.active_count()
        ended = []

        def fail_from(first):
            def part(lo, hi):
                ended.append(lo)
                if lo >= first:
                    raise ValueError(f"part at {lo}")
            return part

        n = PART_SIZES[-1]  # at least 3 parts' worth of rows
        with pytest.raises(ValueError, match="^part at 0$"):
            _in_parts(fail_from(0), n)
        assert len(ended) == cpus
        ended.clear()
        with pytest.raises(ValueError, match=f"^part at {n // cpus}$"):
            _in_parts(fail_from(1), n)
        assert len(ended) == cpus
        assert threading.active_count() == threads

    def test_breakpoints_are_the_compact_layout_of_every_part(self, monkeypatch):
        # each part's blocks are joined in row order: the offsets cover every
        # row, and each row's entries are its own walk's
        n = PART_SIZES[-1]
        q = tie_heavy_q(n, 5)
        prices = _Prices(MENU_CENTS.tolist(), 87)
        pin_cpus(monkeypatch, 3)
        cache = _row_cache(q, prices)
        offsets = cache.offsets
        assert offsets.size == n + 1 and offsets[0] == 0 and offsets[-1] == cache.lam.size
        block = allocator._WALK_BLOCK
        # the rows on both sides of each part's first block edge and of each part edge
        edges = [at for lo in (0, n // 3, 2 * n // 3) for at in (lo, lo + block)]
        for i in sorted({0, n - 1, *(at + d for at in edges[1:] for d in (-1, 0, 1))}):
            row = _row_cache(q[i:i + 1], prices)
            assert same_arrays([a[offsets[i]:offsets[i + 1]] for a in cache[2:5]], row[2:5])

    def test_caller_error_settings_reach_the_parts(self, monkeypatch):
        rng = np.random.default_rng(3)
        n = 2 * allocator._MIN_PART + allocator._WALK_BLOCK // 2  # two parts on 2 CPUs
        q = rng.random((n, MENU_CENTS.size)) + DEFAULT_UNITS
        q[rng.random(q.shape) < 0.02] = 1.5e308
        q[rng.random(q.shape) < 0.02] = -1.5e308
        p = AllocationProblem(q, MENU_CENTS.tolist(), 87)
        results = []
        for cpus in (1, 2):
            pin_cpus(monkeypatch, cpus)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(RuntimeWarning, match="overflow"):
                    solve_and_assign(p)
                with np.errstate(over="ignore", invalid="ignore"):
                    results.append(solve_and_assign(p))
        one, two = results
        assert one.chosen == two.chosen and one.total_cost_cents == two.total_cost_cents
        assert bits(one.lam) == bits(two.lam) and one.lam > 0.0
        assert bits(one.objective) == bits(two.objective)


# ---------------------------------------------------------------------------
# Memory: the batch solve makes no temporary the size of the value matrix.


class TestSolveMemory:
    def test_traced_peak_of_a_40000_row_solve(self, monkeypatch):
        # The walk masks rows and the rule scores them block by block, and
        # packing keeps only its candidates, so no masked copy or score matrix
        # is made: the peak, about 1.9 times the value matrix, is the row cache
        # (0.7 times) beside each part's block buffers and the per-row outputs.
        pin_cpus(monkeypatch, 2)
        rng = np.random.default_rng(53)
        q = rng.random((40000, 1)) + 0.6 * MENU_CENTS / 100.0 \
            + rng.normal(0, 0.05, (40000, MENU_CENTS.size))
        q[:, 1:][rng.random((40000, MENU_CENTS.size - 1)) < 0.25] = np.nan
        p = AllocationProblem(q, MENU_CENTS.tolist(), 87)
        tracemalloc.start()
        try:
            result = solve_and_assign(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.lam > 0.0
        assert peak < 3.5 * q.nbytes, peak / q.nbytes
