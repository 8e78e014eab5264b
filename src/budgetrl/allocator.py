"""Budget-constrained action assignment via the one-dimensional Lagrangian dual.

The primal assigns one action per customer maximizing total value subject to
an average-cost budget. Its dual is a convex piecewise-linear function of a
single multiplier, minimized exactly from the sorted breakpoints of each
customer's upper concave (cost, value) envelope (the LP relaxation of the
multiple-choice knapsack; Sinha & Zoltners, Oper. Res. 27(3), 1979).

Each row is masked and its envelope walked once (``_row_cache``): the
breakpoints at which its dual choice moves to a cheaper action, and the cent
drop at each. Only the breakpoints the walk finds are kept, in one compact
row-major layout, the one structure that the solve, the window and repair
read: arrays ``lam`` and ``drop`` hold every row's, row after row and each
row's in walk order, and row i's are at ``offsets[i]:offsets[i + 1]``.
``_breakpoints`` sorts those entries as three arrays, (lam, drop, position),
a position pointing back into the layout. The exact multiplier
(``_exact_lambda``) is then a cumulative sum and a search over them, and a
fit check at the lam found that runs the selection rules only on the rows
with a breakpoint within a float-error margin of lam (found from the
positions and the offsets); every other row's cost is read from the
cumulative sum.
The margin needs a bound on |q|, and ``_abs_max`` is its one rule: over a
problem's whole matrix, or per row for ``WindowStore.admit``, without an |q|
copy of the matrix. When the fit check runs a rule over every row, it sums
the cost block by block, with no temporary the size of the matrix.

A batch solve (``solve_and_assign``) sorts the breakpoints once, solves, and
applies the assignment rule to every row once, at the lam found, writing its
scores over the masked rows; slack packing (``_packed``) upgrades rows from
that choice and those scores.
``solve_lambda``, ``assign`` and ``repair_feasibility`` compose the same kernels.
The assignment rule (``_assign_choice``) is one rule in two shapes, chosen by
``ndim``: a matrix of rows, or one row as a 1-D array. A 1 x M slice costs
about 3x the rule's own work in index arrays, and every online decision is
one row.

The row-by-row passes run in parts (``_in_parts``): ``_row_cache`` and the
matrix shape of the assignment rule split their rows into consecutive slices,
one per CPU the process may use (``os.sched_getaffinity``, or
``os.cpu_count`` where that does not exist; read on every call), each of at
least ``_MIN_PART`` = 2 ``_WALK_BLOCK`` rows, and each slice fills its own
rows of preallocated outputs on a thread of its own. A matrix of fewer than
2 ``_MIN_PART`` rows, such as a small ``admit`` batch, runs in one part on
the caller's thread. Each row's arithmetic is the same in any part, so the
result does not depend on the CPUs. The passes whose order fixes their bits
stay whole and serial: the breakpoint sort, ``_exact_lambda``'s cumulative
sum and search, packing's ordering and greedy loop, and the objective's
float sum.

``WindowStore`` keeps the same state for a sliding window of recent rows,
updated by what changed. Rows join it in batches: ``admit`` checks a matrix of
Q rows once and fills their ``_row_cache`` arrays in one call, and
``allocate_online`` decides one admitted row from its cached masked row and
queues it. A refresh copies the queued rows' cache rows into append-only
row buffers, and their breakpoints into append-only entry buffers in the
same compact layout, both with a moving start. The sorted breakpoint arrays
take a flush's new breakpoints by a ``searchsorted`` merge and drop evicted
rows' by the mask ``position >= first live position``. A refresh therefore
neither checks, masks nor walks a row again, and neither sorts nor
concatenates the window.

Value matrices are float arrays with NaN marking actions a customer is not
eligible for. Costs and budgets are integer cents; the dual itself works in
currency units. ``_Prices`` is the one place where the costs are checked and
derived into what the kernels read; each ``AllocationProblem`` and
``WindowStore`` builds one and passes it down. The costs are non-decreasing,
so index order is cost order: every first-max ``argmax`` over a row's actions
breaks ties toward the cheaper action, then the lower index.
"""

from __future__ import annotations

import bisect
import contextvars
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np


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
        object.__setattr__(self, "_prices", _Prices(self.costs_cents, self.budget_cents))

    @property
    def n(self) -> int:
        return self.q.shape[0]


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


def _masked(q: np.ndarray, qm=None, cheapest=None) -> tuple[np.ndarray, np.ndarray]:
    """The rows (finite or NaN) with NaN at -inf, and each row's cheapest
    eligible action; written into ``qm`` and ``cheapest`` when they are given."""
    return np.fmax(q, -np.inf, out=qm), np.isfinite(q).argmax(axis=-1, out=cheapest)


_MARGIN = 2.0 ** -20  # far beyond the float error bounds derived in _exact_lambda


class _Prices:
    """Everything the kernels read of the per-action costs and the budget,
    derived once: the int64 ``cents`` and the ``units``; the assignment rule's
    ``shift``, c_j - budget in units, by lam times which its score falls; the
    envelope walk's M x M tables, whose row a serves a walk standing at action
    a (``gap``, c_a - c_j in units, and ``no_move``, whether j is no cheaper
    than a); and ``_exact_lambda``'s near-row margin ``delta(lam) = per_q *
    qmax + per_lam * lam``, with per_lam = _MARGIN (1 + W/g), per_q = per_lam/g.

    The costs must be non-decreasing (equal costs are allowed): index order is
    then cost order, and every first-max argmax over a row breaks ties toward
    the cheaper action, then the lower index."""

    __slots__ = ("cents", "units", "shift", "gap", "no_move", "per_q", "per_lam")

    def __init__(self, costs_cents, budget_cents: int):
        # the range ActionSet holds menus to; int64 sums over 2**32 rows stay exact
        if not all(0 <= c < 2 ** 31 for c in costs_cents):
            raise ValueError(f"costs must be cents in [0, 2**31), not {tuple(costs_cents)}")
        self.cents = cents = np.asarray(costs_cents, dtype=np.int64)
        if (np.diff(cents) < 0).any():
            raise ValueError(f"costs must be non-decreasing, not {tuple(costs_cents)}")
        self.units = units = cents / 100.0
        self.shift = units - budget_cents / 100.0
        self.no_move = cents >= cents[:, None]
        # The walk overwrites every entry no_move marks, so those gaps are 1: no
        # division by zero.
        self.gap = np.where(self.no_move, 1.0, units[:, None] - units)
        # One distinct cost has no breakpoint, so its margin is never read.
        distinct = np.unique(units)
        g = float(np.diff(distinct).min()) if distinct.size > 1 else 1.0
        w = float(max(np.abs(units).max(), np.abs(self.shift).max()))
        self.per_lam = _MARGIN * (1.0 + w / g)
        self.per_q = self.per_lam / g


_WALK_BLOCK = 4096  # rows per block of the envelope walk
_MIN_PART = 2 * _WALK_BLOCK  # fewest rows a part of ``_in_parts`` takes


def _cpus() -> int:
    """The CPUs this process may run on, read afresh on every call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _in_parts(fn, n: int) -> None:
    """Call ``fn(lo, hi)`` over consecutive slices that cover rows [0, n): one
    slice per usable CPU (``_cpus``), each of at least ``_MIN_PART`` rows. One
    slice runs inline, and fewer than 2 ``_MIN_PART`` rows run inline without
    reading the CPU count; two or more slices run on the threads of a pool
    made for this call, each in a copy of the caller's context, so numpy's
    error settings (a context variable) hold there too. It returns once every
    part is done, re-raising the first part's error if any raised. ``fn`` must
    write only its own rows, so the result is the same however the rows are
    split."""
    k = 1 if n < 2 * _MIN_PART else min(_cpus(), n // _MIN_PART)
    if k == 1:
        fn(0, n)
        return
    bounds = [n * i // k for i in range(k + 1)]
    with ThreadPoolExecutor(k) as pool:
        done = [pool.submit(contextvars.copy_context().run, fn, lo, hi)
                for lo, hi in zip(bounds, bounds[1:])]
    for part in done:
        part.result()


def _row_cache(q: np.ndarray, prices: _Prices) -> tuple[np.ndarray, ...]:
    """What the exact-lam kernel reads per row, as new arrays: the -inf-masked
    rows, the greedy (lam = 0) cost where the envelope walk starts, the
    cheapest eligible action, and the walk's finite breakpoints in one compact
    row-major layout: ``lam`` and ``drop`` hold every row's breakpoints and
    integer-cent cost drops there, row after row and each row's in walk
    order, and row i's are at ``offsets[i]:offsets[i + 1]``.

    The walk follows each row's upper concave envelope over (cost, value) as
    lam rises. From the greedy argmax (cheaper on ties), the dual choice a
    next moves at lam = min (q_a - q_j) / (c_a - c_j) over eligible cheaper j,
    to the cheapest j attaining it. A row has at most M - 1 breakpoints, and
    only those it has are stored: no table is padded to M - 1 per row.

    Every pass here is row by row, so the rows run in parts (``_in_parts``:
    one per CPU that ``os.sched_getaffinity`` allows, of at least
    ``_MIN_PART`` rows each), and each part in blocks of ``_WALK_BLOCK`` rows,
    so one step's arrays stay in cache: a block is masked, its cheapest and
    greedy actions and start cost found, then walked. The per-row outputs are
    allocated once and each block fills only its own rows; each block's
    breakpoints are joined in row order once every part is done.
    """
    n, m = q.shape
    cents = prices.cents
    qm = np.empty((n, m))
    cheapest = np.empty(n, dtype=np.intp)
    start_cents = np.empty(n, dtype=np.int64)
    offsets = np.empty(n + 1, dtype=np.intp)  # each row's count first, at its end
    blocks = {}  # each block's (lam, drop), by its first row

    def part(lo: int, hi: int) -> None:
        for at in range(lo, hi, _WALK_BLOCK):
            rows = slice(at, min(at + _WALK_BLOCK, hi))
            _masked(q[rows], qm[rows], cheapest[rows])
            cur = qm[rows].argmax(axis=-1)
            cents.take(cur, out=start_cents[rows])
            blocks[at] = _walk(qm[rows], cur, start_cents[rows], cents[cheapest[rows]],
                               offsets[rows.start + 1:rows.stop + 1], prices)

    _in_parts(part, n)
    offsets[0] = 0
    np.cumsum(offsets, out=offsets)
    joined = [blocks[at] for at in sorted(blocks)] or [(np.empty(0), np.empty(0, np.int64))]
    lam, drop = (np.concatenate(column) for column in zip(*joined))
    return qm, start_cents, cheapest, lam, drop, offsets


def _walk(qm, cur, cost, floor, counts, prices: _Prices) -> tuple[np.ndarray, np.ndarray]:
    """The finite breakpoints of the rows ``qm``, whose walks start at ``cur``,
    of cost ``cost``, and end where the cost reaches ``floor``, that of their
    cheapest eligible action: only there is no eligible cheaper action left to
    move to. Returns their lams and cent drops, row after row and each row's in
    walk order, and writes each row's number of them into ``counts``.

    A step whose every ratio overflows has lam = inf, which no solve reaches,
    and is not recorded. All its scores are -inf, so it moves to action 0,
    which costs no more than the floor: it is its row's last step, and a row's
    k-th breakpoint is that of its k-th step."""
    cents, gap, no_move = prices.cents, prices.gap, prices.no_move
    rows = np.arange(qm.shape[0])
    going = cost > floor
    counts[:] = 0
    steps = []  # per step: the rows that record a breakpoint, its lam and drop
    for step in range(qm.shape[1] - 1):
        count = np.count_nonzero(going)
        if count < going.size:
            if not count:
                break
            rows, cur, cost, floor = rows[going], cur[going], cost[going], floor[going]
        # The ratios negated, as (q_j - q_a) / (c_a - c_j): IEEE subtraction and
        # division are exact under a sign flip. An ineligible cheaper j gives
        # -inf, as does every j that is no cheaper.
        neg = qm[rows]
        np.subtract(neg, qm[rows, cur][:, None], out=neg)
        np.divide(neg, gap.take(cur, axis=0), out=neg)
        np.putmask(neg, no_move.take(cur, axis=0), -np.inf)
        cur = neg.argmax(axis=-1)  # the cheapest j at the smallest ratio
        lam = -neg[np.arange(rows.size), cur]
        nxt_cost = cents[cur]
        drop = cost - nxt_cost
        finite = lam < np.inf
        if np.count_nonzero(finite) < finite.size:
            steps.append((rows[finite], lam[finite], drop[finite]))
        else:
            steps.append((rows, lam, drop))
        counts[steps[-1][0]] = step + 1
        cost = nxt_cost
        going = cost > floor
    first = np.cumsum(counts)
    total = int(first[-1]) if first.size else 0
    first -= counts
    lams, drops = np.empty(total), np.empty(total, dtype=np.int64)
    for step, (rows, lam, drop) in enumerate(steps):
        at = first.take(rows)
        at += step
        lams[at] = lam
        drops[at] = drop
    return lams, drops


def _entries(offsets: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Where the breakpoints of ``rows`` (an int array) lie in the compact
    arrays that ``offsets`` index (``_row_cache``), row after row."""
    start, stop = offsets.take(rows), offsets.take(rows + 1)
    count = stop - start
    ends = count.cumsum()
    stop -= ends  # each row's first position less the entries before it
    return stop.repeat(count) + np.arange(ends[-1] if ends.size else 0)


def _step_up_until(fits, lam: float) -> float:
    """First lam' >= lam where ``fits`` holds, stepping up 1, 2, 4, ... ulps:
    at an exact breakpoint float rounding can leave a choice on the dearer side."""
    step = 0.0
    while not fits(lam):
        step = max(2.0 * step, float(np.spacing(lam)))
        lam += step
    return lam


def _breakpoints(lam: np.ndarray, drop: np.ndarray,
                 first: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The compact breakpoint entries ``lam`` and ``drop`` (``_row_cache``)
    sorted by lam, as arrays (lam, drop, position), entry j being at
    ``first + j`` of the layout they were cut from; its row follows from the
    offsets."""
    order = lam.argsort()
    lam, drop = lam[order], drop.take(order)
    order += first
    return lam, drop, order


def _merged(breaks, added):
    """The sorted breakpoint arrays ``breaks`` with the sorted ``added`` merged
    in, each at its ``searchsorted`` position."""
    at = breaks[0].searchsorted(added[0])
    at += np.arange(at.size)
    kept = np.ones(breaks[0].size + at.size, dtype=bool)
    kept[at] = False
    merged = []
    for a, b in zip(breaks, added):
        c = np.empty(kept.size, dtype=a.dtype)
        c[at] = b
        c[kept] = a
        merged.append(c)
    return tuple(merged)


def _abs_max(q: np.ndarray, axis=None):
    """max |q| over the finite entries (q has no infinity, and NaN elsewhere):
    a float, or with ``axis=1`` one per row. It is the larger of the largest
    entry and the negated smallest, so no |q| copy of the matrix is made."""
    top = np.maximum(np.fmax.reduce(q, axis=axis), -np.fmin.reduce(q, axis=axis))
    top += 0.0  # an extreme of -0.0 reads as the 0.0 of |q|
    return float(top) if axis is None else top


def _blocked_total(cost, n: int) -> int:
    """The sum of the int ``cost(lo, hi)`` over rows [0, n) in blocks of
    ``_WALK_BLOCK`` rows, the blocks run in parts (``_in_parts``). Ints add
    exactly, so the sum does not depend on how the rows are split."""
    totals = []

    def part(lo: int, hi: int) -> None:
        totals.append(sum(cost(at, min(at + _WALK_BLOCK, hi))
                          for at in range(lo, hi, _WALK_BLOCK)))

    _in_parts(part, n)
    return sum(totals)


def _exact_lambda(cache, breaks, qmax: float, prices: _Prices, total_cents: int) -> float:
    """Smallest lam at which the rows of ``cache`` (``_row_cache``) cost at most
    ``total_cents`` in all, under both the dual selection and the assignment
    rule. ``breaks`` are the rows' breakpoints sorted (``_breakpoints``), with
    their positions in the cache's breakpoint arrays; ``qmax`` is at least
    max |q| over the rows; ``prices`` are the costs and budget.

    The candidate is the breakpoint where the cumulative drop first covers the
    greedy cost's excess over the total; every drop is positive, so the order
    among equal lams cannot move it. It is stepped up by ulps until it fits.

    The fit check runs the selection rules only on "near" rows, those with a
    breakpoint within delta(lam) of lam, and reads the dual cost of every
    other ("far") row from the cumulative drop. That reading is exact. Let
    u = 2**-53, g the smallest gap between the unit costs c_j, W the largest
    |c_j| or |c_j - budget|, and Q = ``qmax``.
    (1) Between two breakpoints of a row's exact envelope the cost of its
        dual choice is unique, and every action of another cost scores at
        least g d below it, d being lam's distance to the nearer breakpoint
        (for the first vertex, the lower one is at or below 0).
    (2) A float score q_j - lam w_j (w_j = c_j for the dual selection, and
        c_j - budget, itself rounded, for the assignment rule) is within
        u (Q + 3 lam W)(1 + u) of the exact q_j - lam c_j plus the row's
        constant lam budget, so both rules' float argmax has the exact
        choice's cost once d > 2u (Q + 3 lam W)(1 + u) / g.
    (3) The walk's float ratios are within 3u lam (1 + u) of the exact ones.
        Where nearly collinear actions make it step to an action just off the
        exact envelope, the breakpoints it records still bracket the exact one
        within about 6u lam (1 + 2W/g).
    delta(lam) = 2**-20 (1 + W/g)(Q/g + lam) is more than 10**8 times either
    bound; a wider margin only costs speed. When lam <= delta(lam), every row
    counts as near.

    So "far dual cost + near dual cost > total" is the exact verdict on the
    dual selection. Under the assignment rule a row takes its dual choice's
    cost or, when no score is >= 0, its cheapest action, never more; so "far
    dual cost + near rule cost <= total" proves that the rule fits, and only
    when that bound fails does the rule run over every row. A pass over every
    row sums its cost block by block (``_blocked_total``), so it makes no
    N x M temporary.
    """
    qm, start_cents, cheapest, row_lam, row_drop, offsets = cache
    lam_at, drop_at, at_entry = breaks
    start_total = int(start_cents.sum())
    excess = start_total - total_cents
    if excess <= 0:
        return 0.0
    dropped = drop_at.cumsum()
    k = int(dropped.searchsorted(excess))
    if k == dropped.size:
        raise InfeasibleProblemError(
            "budget below the cheapest eligible assignment; no multiplier can satisfy it")
    cents = prices.cents

    def dual(rows_qm, lam):
        return (rows_qm - lam * prices.units).argmax(axis=-1)

    def rule(rows_qm, rows_cheapest, lam):
        return _assign_choice(rows_qm, rows_cheapest, prices, lam)[0]

    def dual_total(lam) -> int:
        return _blocked_total(lambda lo, hi: int(cents[dual(qm[lo:hi], lam)].sum()), len(qm))

    def rule_total(lam) -> int:
        return _blocked_total(
            lambda lo, hi: int(cents[rule(qm[lo:hi], cheapest[lo:hi], lam)].sum()), len(qm))

    def fits(lam: float) -> bool:
        delta = qmax * prices.per_q + lam * prices.per_lam
        if lam <= delta:
            return dual_total(lam) <= total_cents and rule_total(lam) <= total_cents
        lo, at, hi = lam_at.searchsorted((lam - delta, lam, lam + delta), "right")
        # the rows of the entries in the margin, each once
        after = offsets.searchsorted(at_entry[lo:hi], "right").tolist()
        near = np.fromiter({row - 1 for row in after}, dtype=np.intp)
        entries = _entries(offsets, near)
        near_qm = qm[near]
        # The near rows are few, so their sums are Python sums.
        far = (start_total - (int(dropped[at - 1]) if at else 0) - sum(start_cents[near].tolist())
               + int(row_drop[entries].sum(where=row_lam[entries] <= lam)))
        if far + sum(cents[dual(near_qm, lam)].tolist()) > total_cents:
            return False
        return (far + sum(cents[rule(near_qm, cheapest[near], lam)].tolist()) <= total_cents
                or rule_total(lam) <= total_cents)

    return _step_up_until(fits, float(lam_at[k]))


def _problem_lambda(problem: AllocationProblem, cache) -> float:
    """``_exact_lambda`` over every row of ``problem``, its breakpoints sorted
    once; 0 without sorting them when the greedy cost fits."""
    total = problem.n * problem.budget_cents
    if int(cache[1].sum()) <= total:
        return 0.0
    return _exact_lambda(cache, _breakpoints(*cache[3:5]), _abs_max(problem.q),
                         problem._prices, total)


def solve_lambda(problem: AllocationProblem) -> float:
    """Exact minimizer of the dual over lam >= 0: the breakpoint at which the
    sorted cumulative cost drop of the envelope walks (``_row_cache``) covers
    the greedy cost's excess over the budget, stepped up by ulps until both
    ``assign`` and the dual selection fit. Returns 0 when the greedy
    assignment fits, and raises InfeasibleProblemError when even the cheapest
    eligible assignment does not.
    """
    return _problem_lambda(problem, _row_cache(problem.q, problem._prices))


def _assign_choice(qm: np.ndarray, cheapest, prices: _Prices, lam: float):
    """Assignment rule over -inf-masked rows: among actions with
    q_ij - lam(c_j - budget) >= 0 take the highest score (cheaper on ties);
    if none qualifies, the row's ``cheapest`` eligible action. Returns the
    choices, the scores and each row's highest score.

    One rule in two shapes, chosen by ``qm.ndim``: a matrix gives an int array
    of choices, and one row, as a 1-D array with a scalar ``cheapest``, gives
    one int. A 1 x M slice would cost about 3x the rule's work in index arrays,
    and each online decision is one row. A matrix's rows run in parts
    (``_in_parts``: one per CPU that ``os.sched_getaffinity`` allows, of at
    least ``_MIN_PART`` rows each), each filling its rows of the three
    outputs; one row runs inline."""
    if qm.ndim == 1:
        scores = qm - lam * prices.shift
        best = scores.argmax(axis=-1)
        top = scores[best]
        return int(best) if top >= 0.0 else int(cheapest), scores, top
    return _assign_rows(qm, cheapest, lam * prices.shift, np.empty(qm.shape))


def _assign_rows(qm: np.ndarray, cheapest: np.ndarray, step: np.ndarray,
                 scores: np.ndarray):
    """``_assign_choice`` over a matrix, ``step`` being lam times the shift,
    with its scores written into ``scores``, which may be ``qm`` itself.
    Apart from it so that the one-row case, run per online decision, sets up
    no closure."""
    top = np.empty(qm.shape[0])
    choice = np.empty(qm.shape[0], dtype=np.intp)

    def part(lo: int, hi: int) -> None:
        part_scores, part_top, best = scores[lo:hi], top[lo:hi], choice[lo:hi]
        np.subtract(qm[lo:hi], step, out=part_scores)
        part_scores.argmax(axis=-1, out=best)
        part_top[:] = part_scores[np.arange(hi - lo), best]
        np.copyto(best, cheapest[lo:hi], where=~(part_top >= 0.0))

    _in_parts(part, qm.shape[0])
    return choice, scores, top


def _assignment(problem: AllocationProblem, chosen: np.ndarray, lam: float,
                total_cents: int) -> Assignment:
    """The Assignment of the int64 array ``chosen``, its actions as a tuple of ints."""
    objective = float(problem.q[np.arange(problem.n), chosen].sum())
    return Assignment(chosen=tuple(chosen.tolist()), lam=lam, objective=objective,
                      total_cost_cents=total_cents)


def assign(problem: AllocationProblem, lam: float) -> Assignment:
    """The assignment rule at ``lam``, without slack packing."""
    _check_lambda(lam)
    prices = problem._prices
    chosen = _assign_choice(*_masked(problem.q), prices, lam)[0]
    return _assignment(problem, chosen, lam, int(prices.cents[chosen].sum()))


def _packed(problem: AllocationProblem, lam: float, chosen: np.ndarray,
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
    cents = problem._prices.cents
    total = int(cents[chosen].sum())
    if total <= budget_total:
        # Candidates score within 1e-9 (relative) of their row's top. Fallback
        # rows (top < 0) have no assignment-rule candidates to swap among, and
        # a row's current action gains nothing.
        floor = np.where(top >= 0.0, top - 1e-9 * np.maximum(1.0, np.abs(top)), np.inf)
        near = scores >= floor[:, None]
        near[np.arange(chosen.size), chosen] = False
        rows, actions = np.divmod(np.flatnonzero(near), near.shape[1])
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


def repair_feasibility(problem: AllocationProblem, assignment: Assignment) -> Assignment:
    """Raise the multiplier to the first point where the budget holds, then
    spend any slack on rows left tied there. Only ever moves lam upward (cost
    downward); raises InfeasibleProblemError when no multiplier can meet it.
    """
    budget_total = problem.n * problem.budget_cents
    if assignment.total_cost_cents <= budget_total:
        return assignment
    prices = problem._prices
    qm, _, cheapest, lams = _row_cache(problem.q, prices)[:4]
    if int(prices.cents[cheapest].sum()) > budget_total:
        raise InfeasibleProblemError(
            "budget below the cheapest eligible assignment; repair cannot terminate")

    # The assignment only changes where a dual choice moves down its envelope
    # or a score q_ij - lam (c_j - budget) crosses zero (the cheapest fallback).
    with np.errstate(divide="ignore", invalid="ignore"):
        zero_cross = problem.q / prices.shift
    cands = np.concatenate([lams, zero_cross.ravel()])
    cands = np.unique(cands[np.isfinite(cands) & (cands > assignment.lam)])

    def fits(lam: float) -> bool:
        return int(prices.cents[_assign_choice(qm, cheapest, prices, lam)[0]].sum()) <= budget_total

    # Cost is non-increasing in lam and constant between candidates: bisect on
    # gap midpoints, which float rounding at a candidate cannot disturb.
    gaps = 0.5 * (cands[:-1] + cands[1:])
    k = bisect.bisect_left(range(gaps.size), True, key=lambda i: fits(float(gaps[i])))
    lam = _step_up_until(fits, float(cands[k]) if cands.size else assignment.lam)
    _check_lambda(lam)
    return _packed(problem, lam, *_assign_choice(qm, cheapest, prices, lam))


def solve_and_assign(problem: AllocationProblem) -> Assignment:
    """The exact multiplier (``solve_lambda``), the assignment rule there (which
    fits the budget) and slack packing, in one pass: the rows are masked and
    walked once, their breakpoints sorted once, the rule runs over every row
    once at the returned lam, and packing upgrades rows from its scores.
    Equal, field by field, to ``assign(problem, solve_lambda(problem))`` then
    ``_packed`` from its scores. Raises InfeasibleProblemError when even the
    cheapest eligible assignment is over budget.

    Masking, the walk and the rule run in parts (``_in_parts``), one per CPU
    that ``os.sched_getaffinity`` allows, of at least ``_MIN_PART`` rows; the
    sort, the search, packing and the objective's sum run whole and serial,
    since their order fixes their bits.
    Memory: the breakpoints are kept only where the walk found them (a row has
    at most M - 1), the breakpoint arrays go before the rule runs, and the
    rule writes its scores over the masked rows, which nothing reads after
    it; so the solve's largest array is the one N x M matrix of masked rows.
    """
    prices = problem._prices
    cache = _row_cache(problem.q, prices)
    lam = _problem_lambda(problem, cache)
    qm, _, cheapest = cache[:3]
    del cache  # the breakpoints go before the rule runs
    return _packed(problem, lam, *_assign_rows(qm, cheapest, lam * prices.shift, qm))


# ---------------------------------------------------------------------------
# Near-real-time multiplier maintenance


class _Batch:
    """Rows admitted by one ``WindowStore.admit`` call: their ``_row_cache``
    arrays and each row's max |q|, kept until the last of them is flushed.
    ``prices`` are the admitting store's; holding them rather than the store
    leaves no reference cycle to outlive the store."""

    __slots__ = ("prices", "cache", "qmax")

    def __init__(self, prices, cache, qmax):
        self.prices, self.cache, self.qmax = prices, cache, qmax


class WindowStore:
    """Time-ordered record window feeding periodic multiplier refreshes.

    Timestamps are logical (caller-provided seconds), so tests and simulations
    run in virtual time. Rows enter in two steps. ``admit`` checks a matrix
    of Q rows once and fills their ``_row_cache`` arrays and max |q| in one
    call; it returns one admitted row per Q row. ``allocate_online`` then
    decides one admitted row at ``lambda_snapshot`` from its cached masked row
    and cheapest action, and queues it as (now, batch, index). The snapshot
    is published atomically; readers never block on a refresh, queueing
    decisions do. A refresh first flushes the queue: it copies the queued
    rows' cache rows, with their timestamps, to the end of append-only
    buffers, where the live rows are ``[_lo, _hi)``, each run of rows queued
    one after another from consecutive indexes of one batch as one slice per
    array. Their breakpoints go to the end of append-only entry buffers in
    ``_row_cache``'s compact layout: buffer row i's are at
    ``_offsets[i]:_offsets[i + 1]``. Eviction only moves ``_lo``; once the
    dead prefix of the rows or of the entries passes half its capacity, the
    next flush moves the live rows and their entries to the front. The
    window's breakpoints are also kept sorted with their buffer positions
    (``_breakpoints``): a flush merges in the new rows' by ``searchsorted``,
    eviction drops those before ``_offsets[_lo]``, and a move to the front
    shifts the positions with the entries.
    The solve (``_exact_lambda``) needs a cumulative sum and a search over
    them, and runs the selection rules only on the rows with a breakpoint
    near the lam it checks. Its margin needs a bound on |q|, kept as the
    largest in any row flushed since the store was made.
    """

    def __init__(self, costs_cents, budget_cents: int,
                 window_span: float = 24 * 3600.0, refresh_period: float = 600.0,
                 initial_lambda: float = 0.0):
        self.costs_cents = tuple(int(c) for c in costs_cents)
        self.budget_cents = int(budget_cents)
        self._prices = _Prices(self.costs_cents, self.budget_cents)
        self.window_span = float(window_span)
        self.refresh_period = float(refresh_period)
        for name in ("window_span", "refresh_period"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, not {getattr(self, name)}")
        _check_lambda(initial_lambda)
        self.lambda_snapshot = float(initial_lambda)
        # one {ts, lam, window, infeasible} entry per tick ``advance`` fired
        self.timeline: list[dict] = []
        self._next_tick: float | None = None
        self.infeasible_refreshes = 0  # refreshes no multiplier could fit into the budget
        # (now, batch, index) per row decided since the last refresh
        self._pending: list[tuple[float, _Batch, int]] = []
        empty = _row_cache(np.empty((0, len(self.costs_cents))), self._prices)
        self._buffers = (np.empty(0), *empty[:3])  # ts, masked rows, start cost, cheapest
        self._entries = empty[3:5]  # lam, drop
        self._offsets = empty[5]
        self._lo = self._hi = 0
        self._breaks = _breakpoints(*self._entries)
        self._qmax = 0.0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self._hi - self._lo + len(self._pending)

    def admit(self, q) -> list[tuple[_Batch, int]]:
        """The rows of the matrix ``q``, checked and cached for ``allocate_online``:
        one admitted row each, in order. A bad row is a ValueError, and then no
        row is admitted. Admitting changes nothing in the window."""
        q = _checked_rows(q, len(self.costs_cents), 2)
        batch = _Batch(self._prices, _row_cache(q, self._prices), _abs_max(q, axis=1))
        return list(zip(itertools.repeat(batch), range(len(q))))

    def _make_room(self, rows: int, entries: int) -> None:
        """Room at the end of the buffers for ``rows`` more rows holding
        ``entries`` more breakpoints. When it is short, or the dead prefix of
        the rows or of the entries passes half its capacity, the live rows and
        their entries move to the front of buffers of at least twice what
        they and the new rows need."""
        live, capacity, lo = self._hi - self._lo, len(self._buffers[0]), self._lo
        first, end = int(self._offsets[lo]), int(self._offsets[self._hi])
        room = len(self._entries[0])
        if lo > capacity // 2 or self._hi + rows > capacity or first > room // 2 \
                or end + entries > room:
            capacity = max(capacity, 2 * (live + rows))
            room = max(room, 2 * (end - first + entries))
            self._buffers = tuple(_moved_to_front(a[lo:self._hi], capacity)
                                  for a in self._buffers)
            self._entries = tuple(_moved_to_front(a[first:end], room) for a in self._entries)
            self._offsets = _moved_to_front(self._offsets[lo:self._hi + 1] - first, capacity + 1)
            lam, drop, at = self._breaks
            self._breaks = lam, drop, at - first
            self._lo, self._hi = 0, live

    def _flush(self) -> None:
        """Copy the queued rows' cache rows and breakpoints to the end of the
        buffers, making room first if needed, and merge their breakpoints into
        the sorted ones."""
        # Rows queued one after another from one batch, at consecutive indexes
        # (decisions in arrival order), are copied as one slice per array.
        runs = []
        for (batch, _), run in itertools.groupby(
                enumerate(self._pending), key=lambda item: (item[1][1], item[1][2] - item[0])):
            lo = next(run)[1][2]
            hi = lo + 1 + sum(1 for _ in run)
            offsets = batch.cache[5]
            runs.append((batch, lo, hi, int(offsets[lo]), int(offsets[hi])))
        self._make_room(len(self._pending), sum(end - first for *_, first, end in runs))
        row = self._hi
        start = entry = int(self._offsets[row])
        self._buffers[0][row:row + len(self._pending)] = [t for t, _, _ in self._pending]
        for batch, lo, hi, first, end in runs:
            new_row, new_entry = row + hi - lo, entry + end - first
            for src, buffer in zip(batch.cache[:3], self._buffers[1:]):
                buffer[row:new_row] = src[lo:hi]
            for src, buffer in zip(batch.cache[3:5], self._entries):
                buffer[entry:new_entry] = src[first:end]
            np.add(batch.cache[5][lo + 1:hi + 1], entry - first,
                   out=self._offsets[row + 1:new_row + 1])
            self._qmax = max(self._qmax, float(batch.qmax[lo:hi].max()))
            row, entry = new_row, new_entry
        self._breaks = _merged(self._breaks, _breakpoints(
            *(a[start:entry] for a in self._entries), first=start))
        self._hi = row
        self._pending = []

    def window_refresh(self, now: float) -> float:
        """Evict expired records, re-solve the multiplier, publish the snapshot.

        An empty window keeps the previous snapshot. One that no multiplier
        fits into the budget publishes the saturating lam, at which every row
        takes its cheapest eligible action, and counts in ``infeasible_refreshes``.
        """
        with self._lock:
            if self._pending:
                self._flush()
            # Records leave from the front, up to the first one still inside the span.
            ts = self._buffers[0][self._lo:self._hi]
            expired = ts <= now - self.window_span
            everyone = np.count_nonzero(expired) == expired.size
            evicted = expired.size if everyone else int(expired.argmin())
            if evicted:
                self._lo += evicted
                keep = self._breaks[2] >= self._offsets[self._lo]
                self._breaks = tuple(a[keep] for a in self._breaks)
            if self._hi > self._lo:
                cache = (*(a[self._lo:self._hi] for a in self._buffers[1:]), *self._entries,
                         self._offsets[self._lo:self._hi + 1])
                args = cache, self._breaks, self._qmax, self._prices
                try:
                    self.lambda_snapshot = _exact_lambda(
                        *args, (self._hi - self._lo) * self.budget_cents)
                except InfeasibleProblemError:
                    self.infeasible_refreshes += 1
                    self.lambda_snapshot = _exact_lambda(
                        *args, int(self._prices.cents[cache[2]].sum()))
            return self.lambda_snapshot

    def advance(self, now: float) -> None:
        """Fire every refresh tick due by ``now``, oldest first, recording each in
        ``timeline``. Ticks fall every ``refresh_period`` after the first call's
        ``now``; an entry's ``infeasible`` says whether its refresh was."""
        if self._next_tick is None:
            self._next_tick = now + self.refresh_period
        while self._next_tick <= now:
            infeasible = self.infeasible_refreshes
            lam = self.window_refresh(self._next_tick)
            self.timeline.append({"ts": self._next_tick, "lam": lam, "window": len(self),
                                  "infeasible": self.infeasible_refreshes > infeasible})
            self._next_tick += self.refresh_period

    def allocate_online(self, row, now: float) -> int:
        """The assignment rule's action at the snapshot for a customer arriving at
        ``now``, whose ``row`` (one of this store's ``admit``) then joins the
        window; a row from elsewhere, or an index ``admit`` did not hand out,
        is a TypeError and a bad snapshot a ValueError, raised before the row
        is queued."""
        lam = self.lambda_snapshot
        _check_lambda(lam)
        try:
            batch, i = row
            admitted = (batch.prices is self._prices and type(i) is int
                        and 0 <= i < len(batch.qmax))
        except (TypeError, ValueError, AttributeError):
            admitted = False
        if not admitted:
            raise TypeError("allocate_online takes a row returned by this store's admit")
        qm, _, cheapest = batch.cache[:3]
        action = _assign_choice(qm[i], cheapest[i], self._prices, lam)[0]
        with self._lock:
            self._pending.append((float(now), batch, i))
        return action


def _moved_to_front(rows: np.ndarray, capacity: int) -> np.ndarray:
    """A new buffer of ``capacity`` rows that starts with ``rows``."""
    buffer = np.empty((capacity, *rows.shape[1:]), dtype=rows.dtype)
    buffer[:len(rows)] = rows
    return buffer
