"""Budget-constrained action assignment via the one-dimensional Lagrangian dual.

The primal assigns one action per customer maximizing total value subject to
an average-cost budget. Its dual is a convex piecewise-linear function of a
single multiplier, minimized exactly from the sorted breakpoints of each
customer's upper concave (cost, value) envelope (the LP relaxation of the
multiple-choice knapsack; Sinha & Zoltners, Oper. Res. 27(3), 1979). A
sliding-window store caches them per row to track recent traffic.

A batch solve (``solve_and_assign``) is one pass over the rows. They are
masked and their envelopes walked once (``_row_cache``). The multiplier search
(``_exact_lambda``) already applies the assignment rule at the multiplier it
returns, and that choice, with its score matrix, goes straight to slack
packing (``_packed``); the chosen actions become a tuple once, at the end.
``solve_lambda``, ``assign`` and ``repair_feasibility`` compose the same kernels.

Value matrices are float arrays with NaN marking actions a customer is not
eligible for. Costs and budgets are integer cents; the dual itself works in
currency units.
"""

from __future__ import annotations

import bisect
import functools
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


def _check_lambda(lam) -> None:
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"lambda must be finite and >= 0, not {lam!r}")


def _masked(q: np.ndarray, cents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows (finite or NaN) with NaN at -inf, and each row's cheapest eligible action."""
    return np.fmax(q, -np.inf), argmax_cheapest(np.isfinite(q), cents)


@functools.lru_cache(maxsize=64)
def _walk_tables(costs: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Row a of each M x M table serves a walk standing at action a: the
    cost gap c_a - c_j in units, and whether j is no cheaper than a."""
    cents = np.asarray(costs, dtype=np.int64)
    units = cents / 100.0
    tables = units[:, None] - units, cents >= cents[:, None]
    for table in tables:
        table.flags.writeable = False
    return tables


_WALK_BLOCK = 4096  # rows per block of the envelope walk


def _row_cache(q: np.ndarray, cents: np.ndarray) -> tuple[np.ndarray, ...]:
    """What the exact-lam kernel reads per row: the -inf-masked rows, the greedy
    (lam = 0) cost where the envelope walk starts, the cheapest eligible
    action, and the walk's breakpoints and drops.

    The walk follows each row's upper concave envelope over (cost, value) as
    lam rises. From the greedy argmax (cheaper on ties), the dual choice a
    next moves at lam = min (q_a - q_j) / (c_a - c_j) over eligible cheaper j,
    to the cheapest j attaining it. ``lams`` and ``drops`` are both (N, M-1):
    each row's breakpoints (inf past the last) and integer-cent cost drops there.
    Rows walk in blocks of ``_WALK_BLOCK``, so one step's arrays stay in cache.
    """
    qm, cheapest = _masked(q, cents)
    cur = argmax_cheapest(qm, cents)
    lams = np.full((q.shape[0], q.shape[1] - 1), np.inf)
    drops = np.zeros(lams.shape, dtype=np.int64)
    tables = _walk_tables(tuple(cents.tolist()))
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, q.shape[0], _WALK_BLOCK):
            block = slice(lo, lo + _WALK_BLOCK)
            _walk(qm[block], cur[block], lams[block], drops[block], cents, *tables)
    return qm, cents[cur], cheapest, lams, drops


def _walk(qm, cur, lams, drops, cents, gap, no_move) -> None:
    """Fill ``lams`` and ``drops`` for the rows ``qm``, whose walks start at ``cur``."""
    m = qm.shape[1]
    rows = np.arange(qm.shape[0])
    for step in range(m - 1):
        # The ratios negated, as (q_j - q_a) / (c_a - c_j): IEEE subtraction and
        # division are exact under a sign flip. An ineligible cheaper j gives
        # -inf, as does every j that is no cheaper.
        neg = qm[rows]
        np.subtract(neg, qm.take(rows * m + cur)[:, None], out=neg)
        np.divide(neg, gap.take(cur, axis=0), out=neg)
        np.putmask(neg, no_move.take(cur, axis=0), -np.inf)
        nxt = argmax_cheapest(neg, cents)  # the cheapest j at the smallest ratio
        neg_lam = neg.take(np.arange(rows.size) * m + nxt)
        moves = neg_lam > -np.inf
        rows, cur, nxt, neg_lam = rows[moves], cur[moves], nxt[moves], neg_lam[moves]
        if not rows.size:
            return
        lams[rows, step] = -neg_lam
        drops[rows, step] = cents[cur] - cents[nxt]
        cur = nxt


def _step_up_until(fits, lam: float) -> float:
    """First lam' >= lam where ``fits`` holds, stepping up 1, 2, 4, ... ulps:
    at an exact breakpoint float rounding can leave a choice on the dearer side."""
    step = 0.0
    while not fits(lam):
        step = max(2.0 * step, float(np.spacing(lam)))
        lam += step
    return lam


def _exact_lambda(cache, cents: np.ndarray, budget_cents: int, total_cents: int):
    """Smallest lam at which the rows of ``cache`` (``_row_cache``) cost at most
    ``total_cents`` in all, under both the dual selection and the assignment
    rule, and the rule's ``_assign_choice`` there (None at lam = 0, which needs
    no check: the greedy selection fits, and the rule never costs more)."""
    qm, start_cents, cheapest, lams, drops = cache
    excess = int(start_cents.sum()) - total_cents
    if excess <= 0:
        return 0.0, None
    finite = lams < np.inf
    lams, drops = lams[finite], drops[finite]
    order = np.argsort(lams)
    k = int(np.searchsorted(np.cumsum(drops[order]), excess))
    if k == lams.size:
        raise InfeasibleProblemError(
            "budget below the cheapest eligible assignment; no multiplier can satisfy it")
    choice = None

    def fits(lam: float) -> bool:
        nonlocal choice
        if int(cents[argmax_cheapest(qm - lam * (cents / 100.0), cents)].sum()) > total_cents:
            return False
        choice = _assign_choice(qm, cheapest, cents, budget_cents, lam)
        return int(cents[choice[0]].sum()) <= total_cents

    return _step_up_until(fits, float(lams[order[k]])), choice


def solve_lambda(problem: AllocationProblem) -> float:
    """Exact minimizer of the dual over lam >= 0: the breakpoint at which the
    sorted cumulative cost drop of the envelope walks (``_row_cache``) covers
    the greedy cost's excess over the budget, stepped up by ulps until both
    ``assign`` and the dual selection fit. Returns 0 when the greedy
    assignment fits, and raises InfeasibleProblemError when even the cheapest
    eligible assignment does not.
    """
    cents = np.asarray(problem.costs_cents, dtype=np.int64)
    return _exact_lambda(_row_cache(problem.q, cents), cents, problem.budget_cents,
                         problem.n * problem.budget_cents)[0]


def _assign_choice(qm: np.ndarray, cheapest, cents: np.ndarray, budget_cents: int,
                   lam: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assignment rule over a matrix of -inf-masked rows: among actions with
    q_ij - lam(c_j - budget) >= 0 take the highest score (cheaper on ties);
    if none qualifies, the row's ``cheapest`` eligible action. Returns the
    choices, the score matrix and each row's highest score."""
    scores = qm - lam * (cents / 100.0 - budget_cents / 100.0)
    best = argmax_cheapest(scores, cents)
    top = scores[np.arange(best.size), best]
    return np.where(top >= 0.0, best, cheapest), scores, top


def _assignment(problem: AllocationProblem, chosen: np.ndarray, lam: float,
                total_cents: int) -> Assignment:
    """The Assignment of the int64 array ``chosen``, its actions as a tuple of ints."""
    objective = float(problem.q[np.arange(problem.n), chosen].sum())
    return Assignment(chosen=tuple(chosen.tolist()), lam=lam, objective=objective,
                      total_cost_cents=total_cents)


def assign(problem: AllocationProblem, lam: float) -> Assignment:
    """The assignment rule at ``lam``, without slack packing."""
    _check_lambda(lam)
    cents = np.asarray(problem.costs_cents, dtype=np.int64)
    chosen = _assign_choice(*_masked(problem.q, cents), cents, problem.budget_cents, lam)[0]
    return _assignment(problem, chosen, lam, int(cents[chosen].sum()))


def assign_row(q_row: np.ndarray, costs_cents, budget_cents: int, lam: float) -> int:
    """Single-customer assignment rule (used on the online path)."""
    _check_lambda(lam)
    cents = np.asarray(costs_cents, dtype=np.int64)
    qm, cheapest = _masked(_checked_rows(q_row, cents.size, 1)[None], cents)
    return int(_assign_choice(qm, cheapest, cents, budget_cents, lam)[0][0])


def _packed(problem: AllocationProblem, cents: np.ndarray, lam: float, chosen: np.ndarray,
            scores: np.ndarray, top: np.ndarray) -> Assignment:
    """The Assignment of ``chosen`` (int64, upgraded in place) after spending
    leftover budget on tied rows; ``scores`` and ``top`` are the assignment
    rule's at ``lam``, as ``_assign_choice`` returns them.

    At a breakpoint several actions share a row's best assignment score; the
    cheapest-tie rule leaves slack that upgrading some of those rows to a
    dearer tied action hands back (the one-fractional-customer rounding of
    the relaxation). Greedy, deterministic, and never lowers the objective.
    """
    budget_total = problem.n * problem.budget_cents
    total = int(cents[chosen].sum())
    if total <= budget_total:
        # Candidates score within 1e-9 (relative) of their row's top. Fallback
        # rows (top < 0) have no assignment-rule candidates to swap among, and
        # a row's current action gains nothing.
        floor = np.where(top >= 0.0, top - 1e-9 * np.maximum(1.0, np.abs(top)), np.inf)
        near = scores >= floor[:, None]
        near[np.arange(chosen.size), chosen] = False
        rows, actions = np.nonzero(near)
        cur = chosen[rows]
        extra = cents[actions] - cents[cur]
        gain = problem.q[rows, actions] - problem.q[rows, cur]
        keep = (extra > 0) & (gain > 0)
        rows, actions, extra, gain = rows[keep], actions[keep], extra[keep], gain[keep]
        order = np.lexsort((gain, actions, rows, -extra))  # as sorted((-extra, row, action, gain))
        used_rows = set()
        for more, i, j in zip(extra[order].tolist(), rows[order].tolist(),
                              actions[order].tolist()):
            if i not in used_rows and total + more <= budget_total:
                total += more
                chosen[i] = j
                used_rows.add(i)
    return _assignment(problem, chosen, lam, total)


def _pack_slack(problem: AllocationProblem, assignment: Assignment) -> Assignment:
    """``_packed`` on an ``assign`` result, with the rule's scores rebuilt at its lam."""
    cents = np.asarray(problem.costs_cents, dtype=np.int64)
    _, scores, top = _assign_choice(*_masked(problem.q, cents), cents, problem.budget_cents,
                                    assignment.lam)
    return _packed(problem, cents, assignment.lam, np.array(assignment.chosen, dtype=np.int64),
                   scores, top)


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
        chosen = _assign_choice(qm, cheapest, cents, problem.budget_cents, lam)[0]
        return int(cents[chosen].sum()) <= budget_total

    # Cost is non-increasing in lam and constant between candidates: bisect on
    # gap midpoints, which float rounding at a candidate cannot disturb.
    gaps = 0.5 * (cands[:-1] + cands[1:])
    k = bisect.bisect_left(range(gaps.size), True, key=lambda i: fits(float(gaps[i])))
    start = float(cands[k]) if cands.size else assignment.lam
    return _pack_slack(problem, assign(problem, _step_up_until(fits, start)))


def solve_and_assign(problem: AllocationProblem) -> Assignment:
    """The exact multiplier (``solve_lambda``), the assignment rule there (which
    fits the budget) and slack packing, in one pass: the rows are masked and
    walked once, the rule's choice and scores are the ones the multiplier
    search made at the returned lam, and packing upgrades rows from those
    scores. Equal, field by field, to ``_pack_slack(problem, assign(problem,
    solve_lambda(problem)))``. Raises InfeasibleProblemError when even the
    cheapest eligible assignment is over budget.
    """
    cents = np.asarray(problem.costs_cents, dtype=np.int64)
    cache = _row_cache(problem.q, cents)
    lam, choice = _exact_lambda(cache, cents, problem.budget_cents,
                                problem.n * problem.budget_cents)
    if choice is None:
        choice = _assign_choice(cache[0], cache[2], cents, problem.budget_cents, lam)
    del cache  # packing reads none of the breakpoint arrays
    return _packed(problem, cents, lam, *choice)


# ---------------------------------------------------------------------------
# Near-real-time multiplier maintenance


class WindowStore:
    """Time-ordered record window feeding periodic multiplier refreshes.

    Timestamps are logical (caller-provided seconds), so tests and simulations
    run in virtual time. ``lambda_snapshot`` is published atomically; readers
    never block on a refresh, appends do. Rows are checked when they are
    queued; a refresh fills the ``_row_cache`` arrays of the rows queued since
    the last one in one batch, keeps them with their timestamps, and solves from them.
    """

    def __init__(self, costs_cents, budget_cents: int,
                 window_span: float = 24 * 3600.0, refresh_period: float = 600.0,
                 initial_lambda: float = 0.0):
        self.costs_cents = tuple(int(c) for c in costs_cents)
        self._cents = np.asarray(self.costs_cents, dtype=np.int64)
        self.budget_cents = int(budget_cents)
        self.window_span = float(window_span)
        self.refresh_period = float(refresh_period)
        _check_lambda(initial_lambda)
        self.lambda_snapshot = float(initial_lambda)
        self.timeline: list[dict] = []  # one {ts, lam, window} entry per tick ``advance`` fired
        self._next_tick: float | None = None
        self.infeasible_refreshes = 0  # refreshes no multiplier could fit into the budget
        self._pending: list[tuple[float, np.ndarray]] = []  # appended since the last refresh
        empty = np.empty((0, len(self.costs_cents)))
        self._window = (np.empty(0), *_row_cache(empty, self._cents))  # ts, row cache
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
                    np.array([t for t, _ in self._pending]), *_row_cache(new_q, self._cents))))
                self._pending = []
            # Records leave from the front, up to the first one still inside the span.
            evicted = int(np.logical_and.accumulate(self._window[0] <= now - self.window_span).sum())
            _, *cache = self._window = tuple(a[evicted:] for a in self._window)
            if len(cache[0]):
                try:
                    self.lambda_snapshot = _exact_lambda(cache, self._cents, self.budget_cents,
                                                         len(cache[0]) * self.budget_cents)[0]
                except InfeasibleProblemError:
                    self.infeasible_refreshes += 1
                    self.lambda_snapshot = _exact_lambda(cache, self._cents, self.budget_cents,
                                                         int(self._cents[cache[2]].sum()))[0]
            return self.lambda_snapshot

    def advance(self, now: float) -> None:
        """Fire every refresh tick due by ``now``, oldest first, recording each in
        ``timeline``. Ticks fall every ``refresh_period`` after the first call's ``now``."""
        if self._next_tick is None:
            self._next_tick = now + self.refresh_period
        while self._next_tick <= now:
            lam = self.window_refresh(self._next_tick)
            self.timeline.append({"ts": self._next_tick, "lam": lam, "window": len(self)})
            self._next_tick += self.refresh_period

    def allocate_online(self, q_row: np.ndarray, now: float) -> int:
        """Single-customer assignment at the current snapshot; queues the row as ``append`` does."""
        action = assign_row(q_row, self._cents, self.budget_cents, self.lambda_snapshot)
        with self._lock:
            self._pending.append((float(now), np.asarray(q_row, dtype=float)))
        return action
