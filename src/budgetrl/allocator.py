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


def _checked_rows(q, m: int, ndim: int) -> np.ndarray:
    """``q`` as float rows over ``m`` actions (``ndim`` 2: a matrix of at least one
    row; 1: one row), each with an eligible action and no infinite entry."""
    q = np.asarray(q, dtype=float)
    if q.ndim != ndim or q.shape[-1] != m or not q.size:
        raise ValueError(f"q has shape {q.shape}, not {'one row' if ndim == 1 else 'rows'} of {m}")
    if not np.isfinite(q).any(axis=-1).all():
        raise ValueError("every customer needs at least one eligible action")
    if np.isinf(q).any():
        raise ValueError("q entries must be finite or NaN")
    return q


@dataclass(frozen=True)
class AllocationProblem:
    """N customers x M actions: value matrix, per-action costs, per-customer budget."""

    q: np.ndarray  # (N, M) float; NaN = ineligible
    costs_cents: tuple[int, ...]
    budget_cents: int

    def __post_init__(self):
        object.__setattr__(self, "q", _checked_rows(self.q, len(self.costs_cents), 2))

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


def _masked(q: np.ndarray, cents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows with ineligible entries at -inf, and each row's cheapest eligible action."""
    present = np.isfinite(q)
    return np.where(present, q, -np.inf), np.where(present, cents, np.inf).argmin(axis=-1)


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
    return _row_cache(np.asarray(q, dtype=float), np.asarray(costs_cents, dtype=np.int64))[3:]


def _row_cache(q: np.ndarray, cents: np.ndarray) -> tuple[np.ndarray, ...]:
    """What the exact-lam kernel reads per row: the -inf-masked rows, the greedy
    (lam = 0) cost where the envelope walk starts, the cheapest eligible
    action, and the walk's breakpoints and drops (``envelope_drops``)."""
    qm, cheapest = _masked(q, cents)
    lams = np.full((q.shape[0], q.shape[1] - 1), np.inf)
    drops = np.zeros(lams.shape, dtype=np.int64)
    cur = argmax_cheapest(qm, cents)
    start_cents = cents[cur]
    costs = cents / 100.0
    rows = np.arange(q.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(lams.shape[1]):
            # An ineligible j gives (q_a + inf) / (c_a - c_j), +inf when j is cheaper.
            ratio = qm[rows]
            np.subtract(qm[rows, cur][:, None], ratio, out=ratio)
            np.divide(ratio, costs[cur][:, None] - costs, out=ratio)
            ratio[cents >= cents[cur][:, None]] = np.inf
            nxt = argmax_cheapest(-ratio, cents)  # the cheapest j at the smallest ratio
            lam = ratio[np.arange(rows.size), nxt]
            moves = lam < np.inf
            rows, cur, nxt, lam = rows[moves], cur[moves], nxt[moves], lam[moves]
            if not rows.size:
                break
            lams[rows, step] = lam
            drops[rows, step] = cents[cur] - cents[nxt]
            cur = nxt
    return qm, start_cents, cheapest, lams, drops


def _step_up_until(fits, lam: float) -> float:
    """First lam' >= lam where ``fits`` holds, stepping up 1, 2, 4, ... ulps:
    at an exact breakpoint float rounding can leave a choice on the dearer side."""
    step = 0.0
    while not fits(lam):
        step = max(2.0 * step, float(np.spacing(lam)))
        lam += step
    return lam


def _exact_lambda(cache, cents: np.ndarray, budget_cents: int, total_cents: int) -> float:
    """Smallest lam at which the rows of ``cache`` (``_row_cache``) cost at most
    ``total_cents`` in all, under both the dual selection and ``assign``."""
    qm, start_cents, cheapest, lams, drops = cache
    excess = int(start_cents.sum()) - total_cents
    if excess <= 0:
        return 0.0
    lams, drops = lams[lams < np.inf], drops[lams < np.inf]
    order = np.argsort(lams)
    k = int(np.searchsorted(np.cumsum(drops[order]), excess))
    if k == lams.size:
        raise InfeasibleProblemError(
            "budget below the cheapest eligible assignment; no multiplier can satisfy it")

    def fits(lam: float) -> bool:
        return (int(cents[argmax_cheapest(qm - lam * (cents / 100.0), cents)].sum()) <= total_cents
                and int(cents[_assign_choice(qm, cheapest, cents, budget_cents, lam)].sum()) <= total_cents)

    return _step_up_until(fits, float(lams[order[k]]))


def solve_lambda(problem: AllocationProblem) -> float:
    """Exact minimizer of the dual over lam >= 0: the breakpoint at which the
    sorted cumulative cost drop of ``envelope_drops`` covers the greedy cost's
    excess over the budget, stepped up by ulps until both ``assign`` and the
    dual selection fit. Returns 0 when the greedy assignment fits, and raises
    InfeasibleProblemError when even the cheapest eligible assignment does not.
    """
    cents = np.asarray(problem.costs_cents, dtype=np.int64)
    return _exact_lambda(_row_cache(problem.q, cents), cents, problem.budget_cents,
                         problem.n * problem.budget_cents)


def _assign_choice(qm: np.ndarray, cheapest, cents: np.ndarray, budget_cents: int,
                   lam: float) -> np.ndarray:
    """Assignment rule over a matrix of -inf-masked rows: among actions with
    q_ij - lam(c_j - budget) >= 0 take the highest score (cheaper on ties);
    if none qualifies, the row's ``cheapest`` eligible action."""
    scores = qm - lam * (cents / 100.0 - budget_cents / 100.0)
    best = argmax_cheapest(scores, cents)
    return np.where(scores[np.arange(best.size), best] >= 0.0, best, cheapest)


def assign(problem: AllocationProblem, lam: float) -> Assignment:
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    cents = np.asarray(problem.costs_cents, dtype=np.int64)
    chosen = _assign_choice(*_masked(problem.q, cents), cents, problem.budget_cents, lam)
    objective = float(problem.q[np.arange(problem.n), chosen].sum())
    return Assignment(chosen=tuple(int(a) for a in chosen), lam=lam, objective=objective,
                      total_cost_cents=int(cents[chosen].sum()))


def assign_row(q_row: np.ndarray, costs_cents, budget_cents: int, lam: float) -> int:
    """Single-customer assignment rule (used on the online path)."""
    cents = np.asarray(costs_cents, dtype=np.int64)
    qm, cheapest = _masked(_checked_rows(q_row, cents.size, 1)[None], cents)
    return int(_assign_choice(qm, cheapest, cents, budget_cents, lam)[0])


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
    cents = np.asarray(problem.costs_cents, dtype=np.int64)
    qm, _, cheapest, lams, _ = _row_cache(problem.q, cents)
    if int(cents[cheapest].sum()) > budget_total:
        raise InfeasibleProblemError(
            "budget below the cheapest eligible assignment; repair cannot terminate")

    # The assignment only changes where a dual choice moves down its envelope
    # or a score q_ij - lam (c_j - budget) crosses zero (the cheapest fallback).
    with np.errstate(divide="ignore", invalid="ignore"):
        zero_cross = problem.q / (problem.costs_units() - problem.budget_units)[None, :]
    cands = np.concatenate([lams.ravel(), zero_cross.ravel()])
    cands = np.unique(cands[np.isfinite(cands) & (cands > assignment.lam)])

    def fits(lam: float) -> bool:
        return int(cents[_assign_choice(qm, cheapest, cents, problem.budget_cents, lam)].sum()) <= budget_total

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
    never block on a refresh, appends do. Rows are checked when they are
    queued; a refresh fills the ``_row_cache`` arrays of the rows queued since
    the last one in one batch, keeps them with the rows, and solves from them.
    """

    def __init__(self, costs_cents, budget_cents: int,
                 window_span: float = 24 * 3600.0, refresh_period: float = 600.0,
                 initial_lambda: float = 0.0):
        self.costs_cents = tuple(int(c) for c in costs_cents)
        self._cents = np.asarray(self.costs_cents, dtype=np.int64)
        self.budget_cents = int(budget_cents)
        self.window_span = float(window_span)
        self.refresh_period = float(refresh_period)
        self.lambda_snapshot = float(initial_lambda)
        self.last_refresh: float | None = None
        self.infeasible_refreshes = 0  # refreshes no multiplier could fit into the budget
        self._pending: list[tuple[float, np.ndarray]] = []  # appended since the last refresh
        empty = np.empty((0, len(self.costs_cents)))
        self._window = (np.empty(0), empty, *_row_cache(empty, self._cents))  # ts, q, row cache
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._window[0]) + len(self._pending)

    def append(self, ts: float, q_row: np.ndarray) -> None:
        """Queue a decided customer's Q row; the multiplier needs only the row.
        A row ``AllocationProblem`` would reject raises ValueError and is not queued."""
        q_row = _checked_rows(q_row, self._cents.size, 1)
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
                    np.array([t for t, _ in self._pending]), new_q, *_row_cache(new_q, self._cents))))
                self._pending = []
            # Records leave from the front, up to the first one still inside the span.
            evicted = int(np.logical_and.accumulate(self._window[0] <= now - self.window_span).sum())
            _, q, *cache = self._window = tuple(a[evicted:] for a in self._window)
            if len(q):
                try:
                    self.lambda_snapshot = _exact_lambda(cache, self._cents, self.budget_cents,
                                                         len(q) * self.budget_cents)
                except InfeasibleProblemError:
                    self.infeasible_refreshes += 1
                    self.lambda_snapshot = _exact_lambda(cache, self._cents, self.budget_cents,
                                                         int(self._cents[cache[2]].sum()))
            self.last_refresh = now
            return self.lambda_snapshot

    def allocate_online(self, q_row: np.ndarray, now: float) -> int:
        """Single-customer assignment at the current snapshot; queues the row as ``append`` does."""
        action = assign_row(q_row, self._cents, self.budget_cents, self.lambda_snapshot)
        with self._lock:
            self._pending.append((float(now), np.asarray(q_row, dtype=float)))
        return action
