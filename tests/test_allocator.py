import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from budgetrl.allocator import (
    AllocationProblem,
    InfeasibleProblemError,
    WindowStore,
    _pack_slack,
    assign,
    assign_row,
    dual_objective,
    envelope_drops,
    repair_feasibility,
    solve_and_assign,
    solve_lambda,
)
from budgetrl.core import ActionSet, cents


def brute_force_best(problem):
    """Exhaustive 0-1 search: best budget-feasible objective (None if none)."""
    n, m = problem.n, problem.m
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
            q[np.arange(p.n), rng.integers(0, p.m, size=p.n)] = rng.random(p.n)
            q[rng.random(p.n) < 0.3] -= 5.0  # all scores negative: the cheapest fallback
            p = AllocationProblem(q, p.costs_cents, p.budget_cents)
            lam = float(rng.random() * 2)
            batch = assign(p, lam)
            store = WindowStore(p.costs_cents, p.budget_cents, initial_lambda=lam)
            for i in range(p.n):
                assert assign_row(p.q[i], p.costs_cents, p.budget_cents, lam) == batch.chosen[i]
                assert store.allocate_online(p.q[i], now=float(i)) == batch.chosen[i]
                scores = p.q[i] - lam * (p.costs_units() - p.budget_units)
                fallbacks += not (scores >= 0).any()
            assert len(store) == p.n
        assert fallbacks > 20

    def test_respects_nan_mask(self):
        q = np.array([[np.nan, 0.2, 0.9], [0.4, np.nan, np.nan]])
        p = AllocationProblem(q, (65, 87, 172), 87)
        result = assign(p, 0.0)
        assert result.chosen[0] in (1, 2)
        assert result.chosen[1] == 0


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


class TestWindowStore:
    def make_store(self, budget=87, span=24 * 3600.0, period=600.0):
        return WindowStore(ActionSet.default().all_cents, budget,
                           window_span=span, refresh_period=period)

    def test_empty_window_keeps_snapshot(self):
        store = self.make_store()
        store.lambda_snapshot = 1.5
        assert store.window_refresh(now=0.0) == 1.5

    def test_eviction_by_span(self):
        store = self.make_store(span=100.0)
        store.append(0.0, np.full(12, 0.5))
        store.append(50.0, np.full(12, 0.5))
        store.append(150.0, np.full(12, 0.5))
        store.window_refresh(now=120.0)
        assert len(store) == 2  # the ts=0 record aged out (120 - 100 cutoff)

    def test_cold_start_is_greedy(self):
        store = self.make_store()
        q = np.linspace(0.1, 1.2, 12)
        assert store.allocate_online(q, now=0.0) == 11

    def test_stationary_stream_stabilizes_lambda(self):
        rng = np.random.default_rng(10)
        store = self.make_store(budget=87, span=3600.0, period=60.0)
        menu = ActionSet.default()
        lam_values = []
        t = 0.0
        for step in range(6000):
            base = rng.random()
            q = np.clip(base + 0.3 * menu.units_array() + rng.normal(0, 0.02, 12), 0, None)
            store.allocate_online(q, t)
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
            q = np.clip(0.3 + sens * menu.units_array() + rng.normal(0, 0.01, 12), 0, None)
            store.allocate_online(q, t)
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
            q = rng.random() + 0.5 * menu.units_array()
            store.append(float(i), q)
        lam = store.window_refresh(now=100.0)
        rows = store._window[1]  # the window's stacked Q rows
        expected = solve_lambda(AllocationProblem(rows, menu.all_cents, 87))
        assert lam == expected


# ---------------------------------------------------------------------------
# Oracles for the exact envelope solver: the subgradient bisection and the
# per-row breakpoint repair it replaced, kept here verbatim in behaviour.


def dual_cost_cents(problem, lam):
    """Cost of the dual selection argmax_j q_ij - lam c_j (ties toward cheaper)."""
    costs = problem.costs_units()
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
    gaps = np.diff(np.unique(problem.costs_units()))
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
    costs = problem.costs_units()
    bps = []
    for i in range(problem.n):
        present = np.flatnonzero(np.isfinite(problem.q[i]))
        qi, ci = problem.q[i, present], costs[present]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = (qi[:, None] - qi[None, :]) / (ci[:, None] - ci[None, :])
            zero_cross = qi / (ci - problem.budget_units)
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


def loop_pack_slack(problem, assignment):
    """Slack packing with its candidate scan as a per-row loop: (chosen, total cost)."""
    budget_total = problem.n * problem.budget_cents
    total = assignment.total_cost_cents
    if total > budget_total:
        return list(assignment.chosen), total
    costs_cents = np.asarray(problem.costs_cents, dtype=np.int64)
    scores = np.where(np.isfinite(problem.q), problem.q - assignment.lam * (
        problem.costs_units()[None, :] - problem.budget_units), -np.inf)
    rowmax = scores.max(axis=1)
    upgrades = []
    for i in range(problem.n):
        if rowmax[i] < 0.0:
            continue
        tol_i = 1e-9 * max(1.0, abs(rowmax[i]))
        cur = assignment.chosen[i]
        for j in np.flatnonzero(scores[i] >= rowmax[i] - tol_i):
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
    hide[np.arange(p.n), rng.integers(0, p.m, p.n)] = False
    q[hide] = np.nan
    floor = -(-cheapest_total_cents(AllocationProblem(q, p.costs_cents, 0)) // p.n)
    low = min(p.costs_cents) - 30 if budget_below_min else floor
    return AllocationProblem(q, p.costs_cents, int(rng.integers(low, max(p.costs_cents) + 1)))


class TestEnvelope:
    def test_cost_curve_matches_dual_selection(self):
        rng = np.random.default_rng(20)
        for _ in range(300):
            p = masked_problem(rng, from_menu=bool(rng.integers(2)))
            lams, drops = envelope_drops(p.q, p.costs_cents)
            start = dual_cost_cents(p, 0.0)
            bps = np.unique(lams[np.isfinite(lams)])
            probes = np.concatenate([(bps[:-1] + bps[1:]) / 2, bps[-1:] + 1.0, [bps[0] / 2]]) \
                if bps.size else np.array([1.0])
            for lam in probes:
                assert start - int(drops[lams <= lam].sum()) == dual_cost_cents(p, lam)

    def test_walk_ends_at_cheapest_eligible_action(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            p = masked_problem(rng)
            lams, drops = envelope_drops(p.q, p.costs_cents)
            assert dual_cost_cents(p, 0.0) - int(drops.sum()) == cheapest_total_cents(p)
            assert (drops > 0).sum() == np.isfinite(lams).sum()

    def test_rows_are_independent(self):
        rng = np.random.default_rng(22)
        p = masked_problem(rng)
        whole = envelope_drops(p.q, p.costs_cents)
        for i in range(p.n):
            row = envelope_drops(p.q[i:i + 1], p.costs_cents)
            for a, b in zip(whole, row):
                np.testing.assert_array_equal(a[i:i + 1], b)


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

    def test_returns_python_float(self):
        slack = AllocationProblem(np.array([[1.0, 2.0]]), (0, 100), 100)
        for p in (slack, ONE_ROW):
            assert type(solve_lambda(p)) is float

    def test_duplicated_tied_rows_fit_without_repair(self):
        # 200 copies of 5 rows tie in groups at every breakpoint; the exact
        # breakpoint must still leave both selection rules within budget
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
            assert dual_cost_cents(p, lam) <= p.n * budget
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
                packed = _pack_slack(p, start)
                chosen, total = loop_pack_slack(p, start)
                assert (list(packed.chosen), packed.total_cost_cents) == (chosen, total)
                upgraded += packed.chosen != start.chosen
        assert upgraded > 20


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
                old = _pack_slack(p, assign(p, old_lam))
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
        store = WindowStore(menu.all_cents, 87, window_span=300.0, refresh_period=60.0)
        t, appended, solved = 0.0, 0, 0
        for _ in range(60):
            for _ in range(int(rng.integers(0, 12))):
                q = rng.random() + 0.5 * menu.units_array() + rng.normal(0, 0.05, 12)
                q[1:][rng.random(11) < 0.3] = np.nan  # action 0 stays eligible: feasible
                store.append(t, q)
                appended += 1
                t += float(rng.random() * 10)
            lam = store.window_refresh(t)
            rows = store._window[1]  # the window's stacked Q rows
            if len(rows):
                expected = solve_lambda(AllocationProblem(rows, menu.all_cents, 87))
                assert lam == expected
                solved += lam > 0
        assert solved > 30 and len(store) < appended
        assert store.infeasible_refreshes == 0

    def test_infeasible_window_publishes_saturating_lambda(self):
        menu = ActionSet.default()
        store = WindowStore(menu.all_cents, 60)  # below the cheapest bonus, 65
        rng = np.random.default_rng(27)
        for i in range(30):
            store.append(float(i), rng.random(12) + menu.units_array())
        lam = store.window_refresh(now=40.0)
        assert store.infeasible_refreshes == 1
        p = AllocationProblem(store._window[1], menu.all_cents, 60)
        with pytest.raises(InfeasibleProblemError):
            solve_lambda(p)
        assert set(assign(p, lam).chosen) == {0}
        assert dual_cost_cents(p, lam) == cheapest_total_cents(p)
        lams = envelope_drops(p.q, menu.all_cents)[0]
        assert lam >= lams[np.isfinite(lams)].max()

    def test_concurrent_appends_and_refreshes_lose_no_row(self):
        menu = ActionSet.default()
        store = WindowStore(menu.all_cents, 87)
        rows = np.random.default_rng(29).random((4, 2000, 12)) + menu.units_array()
        done = threading.Event()

        def appender(k):
            for i, q in enumerate(rows[k]):
                store.append(float(i), q)

        def refresher():
            while not done.is_set():
                store.window_refresh(600.0)

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
        window = store._window[1]  # the window's stacked Q rows
        assert len(store) == len(window) == rows.shape[0] * rows.shape[1]
        assert sorted(map(tuple, window)) == sorted(map(tuple, rows.reshape(-1, 12)))
        assert lam == solve_lambda(AllocationProblem(window, menu.all_cents, 87))

    def test_append_rejects_wrong_width(self):
        store = WindowStore(ActionSet.default().all_cents, 87)
        with pytest.raises(ValueError):
            store.append(0.0, np.ones(5))
        assert len(store) == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_bad_row_is_rejected_before_it_reaches_the_window(self, bad):
        menu = ActionSet.default()
        store = WindowStore(menu.all_cents, 87, window_span=1000.0, refresh_period=10.0)
        rng = np.random.default_rng(30)
        rows = rng.random((20, 12)) + menu.units_array()
        for i, q in enumerate(rows[:10]):
            store.append(float(i), q)
        row = np.full(12, bad) if np.isnan(bad) else np.where(np.arange(12) == 3, bad, rows[10])
        with pytest.raises(ValueError):
            store.append(10.0, row)
        with pytest.raises(ValueError):
            store.allocate_online(row, 10.0)
        assert len(store) == 10
        for i, q in enumerate(rows[10:], start=10):
            store.allocate_online(q, float(i))
        for now in (10.0, 500.0, 900.0):
            lam = store.window_refresh(now)
            assert lam == solve_lambda(AllocationProblem(store._window[1], menu.all_cents, 87))
        assert len(store) == 20 and store.infeasible_refreshes == 0
