"""Budget-constrained action assignment via the one-dimensional Lagrangian dual.

The primal assigns one action per customer maximizing total value subject to
an average-cost budget. Its dual is a convex piecewise-linear function of a
single multiplier, minimized exactly from the sorted breakpoints of each
customer's upper concave (cost, value) envelope (the LP relaxation of the
multiple-choice knapsack; Sinha & Zoltners, Oper. Res. 27(3), 1979). A
sliding-window store caches them per row to track recent traffic.

Value matrices are float arrays with NaN marking actions a customer is not
eligible for. Costs and budgets are integer cents; the dual itself works in
currency units.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass

import numpy as np

from .core import argmax_cheapest


class InfeasibleProblemError(ValueError):
    """The budget cannot be met even by the cheapest eligible actions."""


@dataclass(frozen=True)
class AllocationProblem:
    """N customers x M actions: value matrix, per-action costs, per-customer budget."""

    q: np.ndarray  # (N, M) float; NaN = ineligible
    costs_cents: tuple[int, ...]
    budget_cents: int

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 2 or q.shape[0] < 1:
            raise ValueError("q must be a 2-D matrix with at least one row")
        if q.shape[1] != len(self.costs_cents):
            raise ValueError(f"q has {q.shape[1]} columns, costs has {len(self.costs_cents)}")
        present = np.isfinite(q)
        if not present.any(axis=1).all():
            raise ValueError("every customer needs at least one eligible action")
        if np.isinf(q).any():
            raise ValueError("q entries must be finite or NaN")
        object.__setattr__(self, "q", q)

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def m(self) -> int:
        return self.q.shape[1]

    def costs_units(self) -> np.ndarray:
        return np.asarray(self.costs_cents, dtype=float) / 100.0

    @property
    def budget_units(self) -> float:
        return self.budget_cents / 100.0


@dataclass(frozen=True)
class Assignment:
    """One chosen action per customer plus the multiplier that produced it."""

    chosen: tuple[int, ...]
    lam: float
    objective: float
    total_cost_cents: int


def _dual_selection(problem: AllocationProblem, lam: float) -> np.ndarray:
    """Per-customer argmax of q_ij - lam * c_j (ties toward cheaper)."""
    costs = problem.costs_units()
    scores = np.where(np.isfinite(problem.q), problem.q - lam * costs[None, :], -np.inf)
    return argmax_cheapest(scores, costs)


def _selection_cost_cents(problem: AllocationProblem, chosen: np.ndarray) -> int:
    costs = np.asarray(problem.costs_cents, dtype=np.int64)
    return int(costs[chosen].sum())


def _cheapest_total_cents(problem: AllocationProblem) -> int:
    costs = np.asarray(problem.costs_cents, dtype=np.int64)
    per_row_min = np.where(np.isfinite(problem.q), costs[None, :], np.iinfo(np.int64).max).min(axis=1)
    return int(per_row_min.sum())


def dual_objective(problem: AllocationProblem, lam: float) -> float:
    """sum_i max_j {q_ij - lam c_j} + lam * N * budget, over eligible entries."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    costs = problem.costs_units()
    scores = np.where(np.isfinite(problem.q), problem.q - lam * costs[None, :], -np.inf)
    return float(scores.max(axis=1).sum() + lam * problem.n * problem.budget_units)


def envelope_drops(q: np.ndarray, costs_cents) -> tuple[np.ndarray, np.ndarray]:
    """Walk each row's upper concave envelope over (cost, value) as lam rises.

    From the greedy argmax (cheaper on ties), the dual choice a next moves at
    lam = min (q_a - q_j) / (c_a - c_j) over eligible cheaper j, to the
    cheapest j attaining it. Returns ``(lams, drops)``, both (N, M-1): each
    row's breakpoints (inf past the last) and integer-cent cost drops there.
    """
    q = np.asarray(q, dtype=float)
    n, m = q.shape
    cents = np.asarray(costs_cents, dtype=np.int64)
    costs = cents / 100.0
    present = np.isfinite(q)
    lams = np.full((n, m - 1), np.inf)
    drops = np.zeros((n, m - 1), dtype=np.int64)
    cur = argmax_cheapest(np.where(present, q, -np.inf), costs)
    rows = np.arange(n)
    for step in range(m - 1):
        ratio = q[rows]
        np.subtract(q[rows, cur][:, None], ratio, out=ratio)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(ratio, costs[cur][:, None] - costs[None, :], out=ratio)
        ratio[~(present[rows] & (cents[None, :] < cents[cur][:, None]))] = np.inf
        lam = ratio.min(axis=1)
        moves = lam < np.inf
        rows, cur, lam, ratio = rows[moves], cur[moves], lam[moves], ratio[moves]
        if not rows.size:
            break
        nxt = np.argmin(np.where(ratio == lam[:, None], costs[None, :], np.inf), axis=1)
        lams[rows, step] = lam
        drops[rows, step] = cents[cur] - cents[nxt]
        cur = nxt
    return lams, drops


def _step_up_until(fits, lam: float) -> float:
    """First lam' >= lam where ``fits`` holds, stepping up 1, 2, 4, ... ulps:
    at an exact breakpoint float rounding can leave a choice on the dearer side."""
    step = 0.0
    while not fits(lam):
        step = max(2.0 * step, float(np.spacing(lam)))
        lam += step
    return lam


def _exact_lambda(problem: AllocationProblem, total_cents: int, envelope=None) -> float:
    """Smallest lam at which the selection costs at most ``total_cents`` in all."""
    excess = _selection_cost_cents(problem, _dual_selection(problem, 0.0)) - total_cents
    if excess <= 0:
        return 0.0
    lams, drops = envelope_drops(problem.q, problem.costs_cents) if envelope is None else envelope
    lams, drops = lams[lams < np.inf], drops[lams < np.inf]
    order = np.argsort(lams)
    k = int(np.searchsorted(np.cumsum(drops[order]), excess))
    if k == lams.size:
        raise InfeasibleProblemError(
            "budget below the cheapest eligible assignment; no multiplier can satisfy it")

    def fits(lam: float) -> bool:
        return all(_selection_cost_cents(problem, choose(problem, lam)) <= total_cents
                   for choose in (_dual_selection, _assign_choice))

    return _step_up_until(fits, float(lams[order[k]]))


def solve_lambda(problem: AllocationProblem, envelope=None) -> float:
    """Exact minimizer of the dual over lam >= 0: the breakpoint at which the
    sorted cumulative cost drop of ``envelope_drops`` (``envelope``, if
    precomputed) covers the greedy cost's excess over the budget, stepped up
    by ulps until both ``assign`` and the dual selection fit. Returns 0 when
    the greedy assignment fits, and raises InfeasibleProblemError when even
    the cheapest eligible assignment does not.
    """
    return _exact_lambda(problem, problem.n * problem.budget_cents, envelope)


def _assign_choice(problem: AllocationProblem, lam: float) -> np.ndarray:
    """Assignment rule: among actions with q_ij - lam(c_j - budget) >= 0 take the
    highest score (cheaper on ties); if none qualifies, the cheapest eligible action."""
    costs = problem.costs_units()
    present = np.isfinite(problem.q)
    scores = np.where(present, problem.q - lam * (costs[None, :] - problem.budget_units), -np.inf)
    cand_scores = np.where(scores >= 0.0, scores, -np.inf)
    has_candidate = (cand_scores > -np.inf).any(axis=1)
    from_candidates = argmax_cheapest(cand_scores, costs)
    cheapest = np.argmin(np.where(present, costs[None, :], np.inf), axis=1)
    return np.where(has_candidate, from_candidates, cheapest)


def assign(problem: AllocationProblem, lam: float) -> Assignment:
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    chosen = _assign_choice(problem, lam)
    objective = float(problem.q[np.arange(problem.n), chosen].sum())
    return Assignment(chosen=tuple(int(a) for a in chosen), lam=lam, objective=objective,
                      total_cost_cents=_selection_cost_cents(problem, chosen))


def assign_row(q_row: np.ndarray, costs_cents, budget_cents: int, lam: float) -> int:
    """Single-customer assignment rule (used on the online path)."""
    problem = AllocationProblem(np.asarray(q_row, dtype=float)[None, :],
                                tuple(costs_cents), budget_cents)
    return int(_assign_choice(problem, lam)[0])


def _pack_slack(problem: AllocationProblem, assignment: Assignment) -> Assignment:
    """Spend leftover budget on tied rows at the current multiplier.

    At a breakpoint several actions share a row's best assignment score; the
    cheapest-tie rule leaves slack that upgrading some of those rows to a
    dearer tied action hands back (the one-fractional-customer rounding of
    the relaxation). Greedy, deterministic, and never lowers the objective.
    """
    budget_total = problem.n * problem.budget_cents
    total = assignment.total_cost_cents
    if total > budget_total:
        return assignment
    costs_cents = np.asarray(problem.costs_cents, dtype=np.int64)
    scores = np.where(np.isfinite(problem.q), problem.q - assignment.lam * (
        problem.costs_units()[None, :] - problem.budget_units), -np.inf)
    rowmax = scores.max(axis=1)
    # Fallback rows (rowmax < 0) have no assignment-rule candidates to swap among.
    tol = 1e-9 * np.maximum(1.0, np.abs(rowmax))
    rows, actions = np.nonzero((rowmax >= 0.0)[:, None] & (scores >= (rowmax - tol)[:, None]))
    cur = np.asarray(assignment.chosen, dtype=np.int64)[rows]
    extra = costs_cents[actions] - costs_cents[cur]
    gain = problem.q[rows, actions] - problem.q[rows, cur]
    keep = (extra > 0) & (gain > 0)
    if not keep.any():
        return assignment
    rows, actions, extra, gain = rows[keep], actions[keep], extra[keep], gain[keep]
    order = np.lexsort((gain, actions, rows, -extra))  # as sorted((-extra, row, action, gain))
    chosen = list(assignment.chosen)
    used_rows = set()
    for neg_extra, i, j in zip((-extra[order]).tolist(), rows[order].tolist(),
                               actions[order].tolist()):
        if i in used_rows:
            continue
        if total - neg_extra <= budget_total:
            total -= neg_extra
            chosen[i] = j
            used_rows.add(i)
    objective = float(problem.q[np.arange(problem.n), chosen].sum())
    return Assignment(chosen=tuple(chosen), lam=assignment.lam, objective=objective,
                      total_cost_cents=int(total))


def repair_feasibility(problem: AllocationProblem, assignment: Assignment) -> Assignment:
    """Raise the multiplier to the first point where the budget holds, then
    spend any slack on rows left tied there. Only ever moves lam upward (cost
    downward); raises InfeasibleProblemError when no multiplier can meet it.
    """
    budget_total = problem.n * problem.budget_cents
    if assignment.total_cost_cents <= budget_total:
        return assignment
    if _cheapest_total_cents(problem) > budget_total:
        raise InfeasibleProblemError(
            "budget below the cheapest eligible assignment; repair cannot terminate")

    # The assignment only changes where a dual choice moves down its envelope
    # or a score q_ij - lam (c_j - budget) crosses zero (the cheapest fallback).
    lams, _ = envelope_drops(problem.q, problem.costs_cents)
    with np.errstate(divide="ignore", invalid="ignore"):
        zero_cross = problem.q / (problem.costs_units() - problem.budget_units)[None, :]
    cands = np.concatenate([lams.ravel(), zero_cross.ravel()])
    cands = np.unique(cands[np.isfinite(cands) & (cands > assignment.lam)])

    def fits(lam: float) -> bool:
        return _selection_cost_cents(problem, _assign_choice(problem, lam)) <= budget_total

    # Cost is non-increasing in lam and constant between candidates: bisect on
    # gap midpoints, which float rounding at a candidate cannot disturb.
    gaps = 0.5 * (cands[:-1] + cands[1:])
    k = bisect.bisect_left(range(gaps.size), True, key=lambda i: fits(float(gaps[i])))
    start = float(cands[k]) if cands.size else assignment.lam
    return _pack_slack(problem, assign(problem, _step_up_until(fits, start)))


def solve_and_assign(problem: AllocationProblem) -> Assignment:
    """Exact dual solve, assignment (which fits the budget there), then slack packing."""
    return _pack_slack(problem, assign(problem, solve_lambda(problem)))


# ---------------------------------------------------------------------------
# Near-real-time multiplier maintenance


class WindowStore:
    """Time-ordered record window feeding periodic multiplier refreshes.

    Timestamps are logical (caller-provided seconds), so tests and simulations
    run in virtual time. ``lambda_snapshot`` is published atomically; readers
    never block on a refresh, appends do. A refresh walks the envelopes of the
    rows queued since the last one in one batch and keeps them with the rows.
    """

    def __init__(self, costs_cents, budget_cents: int,
                 window_span: float = 24 * 3600.0, refresh_period: float = 600.0,
                 initial_lambda: float = 0.0):
        self.costs_cents = tuple(int(c) for c in costs_cents)
        self.budget_cents = int(budget_cents)
        self.window_span = float(window_span)
        self.refresh_period = float(refresh_period)
        self.lambda_snapshot = float(initial_lambda)
        self.last_refresh: float | None = None
        self.infeasible_refreshes = 0  # refreshes no multiplier could fit into the budget
        self._pending: list[tuple[float, np.ndarray]] = []  # appended since the last refresh
        empty = np.empty((0, len(self.costs_cents)))
        self._window = (np.empty(0), empty, *envelope_drops(empty, self.costs_cents))  # ts, q, lams, drops
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._window[0]) + len(self._pending)

    def append(self, ts: float, q_row: np.ndarray, action_index: int, cost_cents: int) -> None:
        """Queue a decided customer's Q row; the multiplier needs only the row."""
        q_row = np.asarray(q_row, dtype=float)
        if q_row.shape != (len(self.costs_cents),):
            raise ValueError(f"q row has shape {q_row.shape}, not ({len(self.costs_cents)},)")
        with self._lock:
            self._pending.append((float(ts), q_row))

    def window_refresh(self, now: float) -> float:
        """Evict expired records, re-solve the multiplier, publish the snapshot.

        An empty window keeps the previous snapshot. One that no multiplier
        fits into the budget publishes the saturating lam, at which every row
        takes its cheapest eligible action, and counts in ``infeasible_refreshes``.
        """
        with self._lock:
            if self._pending:
                new_q = np.stack([q for _, q in self._pending])
                self._window = tuple(np.concatenate(pair) for pair in zip(self._window, (
                    np.array([t for t, _ in self._pending]), new_q,
                    *envelope_drops(new_q, self.costs_cents))))
                self._pending = []
            # Records leave from the front, up to the first one still inside the span.
            evicted = int(np.logical_and.accumulate(self._window[0] <= now - self.window_span).sum())
            _, q, *envelope = self._window = tuple(a[evicted:] for a in self._window)
            if len(q):
                problem = AllocationProblem(q, self.costs_cents, self.budget_cents)
                try:
                    self.lambda_snapshot = solve_lambda(problem, envelope)
                except InfeasibleProblemError:
                    self.infeasible_refreshes += 1
                    self.lambda_snapshot = _exact_lambda(problem, _cheapest_total_cents(problem), envelope)
            self.last_refresh = now
            return self.lambda_snapshot

    def allocate_online(self, q_row: np.ndarray, now: float) -> int:
        """Single-customer assignment at the current snapshot; logs the record."""
        action = assign_row(q_row, self.costs_cents, self.budget_cents, self.lambda_snapshot)
        self.append(now, q_row, action, self.costs_cents[action])
        return action
