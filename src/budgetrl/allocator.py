"""Budget-constrained action assignment via the one-dimensional Lagrangian dual.

The primal assigns one action per customer maximizing total value subject to
an average-cost budget. Its dual is a convex piecewise-linear function of a
single multiplier lam, minimized exactly on each customer's upper concave
(cost, value) envelope (the LP relaxation of the multiple-choice knapsack;
Sinha & Zoltners, Oper. Res. 27(3), 1979). That envelope is the one
definition of a row's choice at lam:

- Each row is masked and its envelope walked once (``_row_cache``), from its
  greedy (lam = 0) action. At each breakpoint, where the dual choice moves to
  a cheaper action, the walk records the lam, the cent drop and the action
  moved to. A row's recorded lams are non-decreasing, so its breakpoints <=
  lam are the first ones of its walk.
- The dual choice at lam is the row's vertex after its breakpoints <= lam
  (``_vertices``).
- The assignment rule takes that vertex v when q_v - lam (c_v - budget) >= 0,
  and otherwise the row's cheapest eligible action, so it never costs more
  than the dual choice. The batch (``_assign_rows``), ``assign``,
  ``repair_feasibility`` and each online decision
  (``WindowStore.allocate_online``) all apply this rule.

The walk keeps only the breakpoints it finds, in one compact row-major
layout: arrays ``lam``, ``drop`` and ``to`` hold every row's, row after row
and each row's in walk order, and row i's are at ``offsets[i]:offsets[i +
1]``. The exact multiplier (``_exact_lambda``) is the one lam kernel of
the batch and the window: a drop-weighted quantile of the breakpoints in any
order, found by halving them with ``argpartition`` down to a block's worth,
then a sort, a cumulative sum of the drops and one search, in integer cents.

A batch solve (``solve_and_assign``) walks the rows once, finds the
multiplier from every row's breakpoints (``_problem_lambda``), applies the
assignment rule to every row once at the lam found, and slack packing
(``_packed``) upgrades rows among the few tied (row, action) candidates the
rule keeps while it scores its rows block by block. ``solve_lambda``,
``assign`` and ``repair_feasibility`` compose the same kernels.

The row-by-row passes run in parts (``_in_parts``): ``_row_cache`` and
``_assign_rows`` split their rows into consecutive slices, one per CPU the
process may use (``os.sched_getaffinity``, or ``os.cpu_count`` where that
does not exist; read on every call), each of at least ``_MIN_PART`` = 2
``_WALK_BLOCK`` rows, and each slice fills its own rows of preallocated
outputs on a thread of its own, in blocks of ``_WALK_BLOCK`` = 8192 rows.
A matrix of fewer than 2 ``_MIN_PART`` rows, such as a small ``admit``
batch, runs in one part on the caller's thread. Each row's arithmetic is
the same in any part, so the result does not depend on the CPUs. The
passes whose order fixes their bits stay whole and serial: the selection
and sort of the breakpoints, ``_exact_lambda``'s cumulative sum and
search, packing's ordering and greedy loop, and the objective's float sum.

Why 8192 rows a block: each numpy call on a block holds the interpreter
lock to start and end, and on a 4096 x 12 block a call takes only 16-29 us,
so two parts spend more of their time on that and on call overhead; a much
larger block's step arrays fall out of cache. On a 2-CPU KVM guest, the walk
of 100 000 rows of 12 actions (median of 20) took 18.3-19.3 ms on 2 CPUs and
28.6-29.2 ms on 1 at 8192 rows a block, against 19.3-22.6 and 27.8-29.5 ms
at 4096 and 18.7-19.4 and 33.4-34.0 ms at 16384.

``WindowStore`` keeps a sliding window of recent rows without copying
them. Rows join it in batches: ``admit`` checks a matrix of Q rows once,
walks their envelopes in one call and sums their greedy cents into a running
sum, and ``allocate_online`` decides one admitted row by counting its
breakpoints <= lam. The window is runs of the decided rows, in decision
order, each over consecutive rows of one batch: the batch's row cache and
running sum, and the run's first and end row. A refresh evicts rows from the
front runs, takes the excess from the running sums and runs
``_exact_lambda`` on the live rows' slices of their batches' ``lam`` and
``drop`` (a view of one run, one concatenation of several), so it neither
checks, masks nor walks a row again.

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
import collections
import contextvars
import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

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


class _Prices:
    """Everything the kernels read of the per-action costs and the budget,
    derived once: the int64 ``cents``; the assignment rule's ``shift``,
    c_j - budget in units, by lam times which its score falls; and the
    envelope walk's M x M tables, whose row a serves a walk standing at action
    a (``gap``, c_a - c_j in units, and ``no_move``, whether j is no cheaper
    than a).

    The costs must be non-decreasing (equal costs are allowed): index order is
    then cost order, and every first-max argmax over a row breaks ties toward
    the cheaper action, then the lower index."""

    __slots__ = ("cents", "shift", "gap", "no_move")

    def __init__(self, costs_cents, budget_cents: int):
        # the range ActionSet holds menus to; int64 sums over 2**32 rows stay exact
        if not all(0 <= c < 2 ** 31 for c in costs_cents):
            raise ValueError(f"costs must be cents in [0, 2**31), not {tuple(costs_cents)}")
        self.cents = cents = np.asarray(costs_cents, dtype=np.int64)
        if (np.diff(cents) < 0).any():
            raise ValueError(f"costs must be non-decreasing, not {tuple(costs_cents)}")
        units = cents / 100.0
        self.shift = units - budget_cents / 100.0
        self.no_move = cents >= cents[:, None]
        # The walk overwrites every entry no_move marks, so those gaps are 1: no
        # division by zero.
        self.gap = np.where(self.no_move, 1.0, units[:, None] - units)


_WALK_BLOCK = 8192  # rows per block of the envelope walk and of the rule
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


class _RowCache(NamedTuple):
    """The envelope walks of a matrix of rows (``_row_cache``): per row, the
    greedy action where the walk starts and the cheapest eligible action; per
    breakpoint, its ``lam``, integer-cent ``drop`` and the action moved to
    (``to``), row after row and each row's in walk order, row i's at
    ``offsets[i]:offsets[i + 1]``."""

    start: np.ndarray
    cheapest: np.ndarray
    lam: np.ndarray
    drop: np.ndarray
    to: np.ndarray
    offsets: np.ndarray


def _row_cache(q: np.ndarray, prices: _Prices) -> _RowCache:
    """The envelope walk of each row of ``q``, as new arrays.

    The walk follows each row's upper concave envelope over (cost, value) as
    lam rises. From the greedy argmax (cheaper on ties), the dual choice a
    next moves at lam = min (q_a - q_j) / (c_a - c_j) over eligible cheaper j,
    to the cheapest j attaining it. A row has at most M - 1 breakpoints, and
    only those it has are stored: no table is padded to M - 1 per row.

    Every pass here is row by row, so the rows run in parts (``_in_parts``:
    one per CPU that ``os.sched_getaffinity`` allows, of at least
    ``_MIN_PART`` rows each), and each part in blocks of ``_WALK_BLOCK`` rows,
    large enough that two parts' numpy calls seldom wait on each other for
    the interpreter lock and small enough that one step's arrays stay in
    cache (the module docstring gives the timings): a block is masked into
    the part's block buffer, its cheapest and greedy actions found, then
    walked. The
    per-row outputs are allocated once and each block fills only its own
    rows; each block's breakpoints are joined in row order once every part is
    done. No masked copy of the whole matrix is made.
    """
    n, m = q.shape
    cents = prices.cents
    start = np.empty(n, dtype=np.intp)
    cheapest = np.empty(n, dtype=np.intp)
    offsets = np.empty(n + 1, dtype=np.intp)  # each row's count first, at its end
    blocks = {}  # each block's (lam, drop, to), by its first row

    def part(lo: int, hi: int) -> None:
        qm = np.empty((min(_WALK_BLOCK, hi - lo), m))
        for at in range(lo, hi, _WALK_BLOCK):
            rows = slice(at, min(at + _WALK_BLOCK, hi))
            block = np.fmax(q[rows], -np.inf, out=qm[:rows.stop - at])  # NaN at -inf
            np.isfinite(q[rows]).argmax(axis=-1, out=cheapest[rows])
            block.argmax(axis=-1, out=start[rows])
            blocks[at] = _walk(block, start[rows], cents[cheapest[rows]],
                               offsets[rows.start + 1:rows.stop + 1], prices)

    _in_parts(part, n)
    offsets[0] = 0
    np.cumsum(offsets, out=offsets)
    return _RowCache(start, cheapest, *_joined(blocks), offsets)


def _joined(blocks: dict) -> tuple[np.ndarray, ...]:
    """The blocks' arrays, column by column, each column joined in the order of
    the blocks' first rows, by which ``blocks`` is keyed."""
    return tuple(np.concatenate(column) for column in zip(*(blocks[at] for at in sorted(blocks))))


def _walk(qm, cur, floor, counts, prices: _Prices) -> tuple[np.ndarray, ...]:
    """The finite breakpoints of the -inf-masked rows ``qm``, whose walks start
    at ``cur`` and end where the cost reaches ``floor``, that of their
    cheapest eligible action: only there is no eligible cheaper action left to
    move to. Returns their lams, cent drops and the actions moved to, row
    after row and each row's in walk order, and writes each row's number of
    them into ``counts``.

    Each step's lam is at least its row's previous one (a running max): in
    exact arithmetic the envelope's breakpoints rise, and float rounding of
    nearly collinear actions must not break the prefix property.
    A step whose every ratio overflows has lam = inf, which no solve reaches,
    and is not recorded. All its scores are -inf, so it moves to action 0,
    which costs no more than the floor: it is its row's last step, and a row's
    k-th breakpoint is that of its k-th step."""
    cents, gap, no_move = prices.cents, prices.gap, prices.no_move
    rows = np.arange(qm.shape[0])
    cost = cents[cur]
    last = np.zeros(rows.size)  # each row's previous lam
    going = cost > floor
    counts[:] = 0
    steps = []  # per step: the rows that record a breakpoint, its lam, drop and action
    for step in range(qm.shape[1] - 1):
        count = np.count_nonzero(going)
        if count < going.size:
            if not count:
                break
            rows, cur, cost, floor, last = (a[going] for a in (rows, cur, cost, floor, last))
        # The ratios negated, as (q_j - q_a) / (c_a - c_j): IEEE subtraction and
        # division are exact under a sign flip. An ineligible cheaper j gives
        # -inf, as does every j that is no cheaper.
        neg = qm[rows]
        np.subtract(neg, qm[rows, cur][:, None], out=neg)
        np.divide(neg, gap.take(cur, axis=0), out=neg)
        np.putmask(neg, no_move.take(cur, axis=0), -np.inf)
        cur = neg.argmax(axis=-1)  # the cheapest j at the smallest ratio
        lam = -neg[np.arange(rows.size), cur]
        np.maximum(lam, last, out=lam)
        nxt_cost = cents[cur]
        drop = cost - nxt_cost
        finite = lam < np.inf
        if np.count_nonzero(finite) < finite.size:
            steps.append((rows[finite], lam[finite], drop[finite], cur[finite]))
        else:
            steps.append((rows, lam, drop, cur))
        counts[steps[-1][0]] = step + 1
        cost, last = nxt_cost, lam
        going = cost > floor
    first = np.cumsum(counts)
    total = int(first[-1]) if first.size else 0
    first -= counts
    out = (np.empty(total), np.empty(total, dtype=np.int64),
           np.empty(total, dtype=np.min_scalar_type(qm.shape[1] - 1)))
    for step, (rows, *columns) in enumerate(steps):
        at = first.take(rows)
        at += step
        for array, column in zip(out, columns):
            array[at] = column
    return out


def _exact_lambda(excess: int, lam: np.ndarray, drop: np.ndarray) -> float:
    """Smallest lam >= 0 at which rows whose greedy cost exceeds a total by
    ``excess`` cents cost at most that total under the dual choice; ``lam``
    and ``drop`` are the rows' breakpoints in any order, such as the compact
    layout's.

    A row's dual cost at lam is its greedy cost less the drops of its
    breakpoints <= lam, so the rows' dual cost is the greedy total less the
    drops of every breakpoint <= lam. It falls only at a breakpoint: the
    answer is 0 when the excess is not positive, and otherwise the
    drop-weighted quantile of the breakpoints at the excess, the one where
    the cumulative drop in lam order first covers it. Every drop is
    positive, so the order among equal lams cannot move it, and drops are
    integer cents, so the verdict is exact. Row by row the assignment rule
    costs no more than the dual choice, so it fits there too.

    The answer depends only on the multiset of (lam, drop) and the excess,
    so it is found by selection (Blum, Floyd, Pratt, Rivest & Tarjan, J.
    Comput. Syst. Sci. 7(4), 1973) rather than by sorting every breakpoint:
    each round splits the entries at their median lam (``argpartition``) and
    keeps the half that holds the answer, the lower when its drops cover the
    excess, and otherwise the upper, whose excess is then less the lower's
    drops. Once at most ``_WALK_BLOCK`` entries are left they are sorted and
    the cumulative sum of their drops searched. On a 2-CPU KVM guest, a
    100 000-row batch of 12 actions (about 185 000 breakpoints) took
    2.5-2.7 ms against 5.7-6.1 ms with the sort of every breakpoint. Raises
    InfeasibleProblemError when all the drops together do not cover the
    excess.
    """
    if excess <= 0:
        return 0.0
    while lam.size > _WALK_BLOCK:
        half = lam.size // 2
        lower, upper = np.split(lam.argpartition(half), [half])
        below = int(drop.take(lower).sum())
        if below >= excess:
            kept = lower
        else:
            excess -= below
            kept = upper
        lam, drop = lam.take(kept), drop.take(kept)
    order = lam.argsort()
    k = int(drop.take(order).cumsum().searchsorted(excess))
    if k == order.size:
        raise InfeasibleProblemError(
            "budget below the cheapest eligible assignment; no multiplier can satisfy it")
    return float(lam[order[k]])


def _problem_lambda(problem: AllocationProblem, cache: _RowCache) -> float:
    """``_exact_lambda`` over every row of ``problem``; 0 when the greedy cost
    fits."""
    excess = int(problem._prices.cents.take(cache.start).sum()) - problem.n * problem.budget_cents
    return _exact_lambda(excess, cache.lam, cache.drop)


def solve_lambda(problem: AllocationProblem) -> float:
    """Exact minimizer of the dual over lam >= 0: the breakpoint at which the
    sorted cumulative cost drop of the envelope walks (``_row_cache``) covers
    the greedy cost's excess over the budget (``_exact_lambda``), where both
    the dual choice and ``assign`` fit. Returns 0 when the greedy assignment
    fits, and raises InfeasibleProblemError when even the cheapest eligible
    assignment does not.
    """
    return _problem_lambda(problem, _row_cache(problem.q, problem._prices))


def _vertices(cache: _RowCache, lam: float, lo: int, hi: int) -> np.ndarray:
    """The dual choice at ``lam`` of rows [lo, hi) of ``cache``: each row's
    vertex after its breakpoints <= lam, which are the first ones of its walk."""
    first, end = cache.offsets[lo], cache.offsets[hi]
    seen = np.zeros(end - first + 1, dtype=np.intp)  # entries <= lam before each
    np.cumsum(cache.lam[first:end] <= lam, out=seen[1:])
    bounds = cache.offsets[lo:hi + 1] - first
    count = seen[bounds[1:]] - seen[bounds[:-1]]
    v = cache.start[lo:hi].copy()
    moved = count > 0
    v[moved] = cache.to[first:end][bounds[:-1][moved] + count[moved] - 1]
    return v


def _assign_rows(q: np.ndarray, cache: _RowCache, prices: _Prices, lam: float,
                 pack: bool = False):
    """The assignment rule at ``lam`` over the rows of ``q``, whose envelope
    walks are ``cache``: each row's dual choice v when its score
    q_v - lam (c_v - budget) is >= 0, else its cheapest eligible action.
    Returns the choices, each row's score of v (its top) and, given ``pack``,
    slack packing's candidates as arrays (rows, actions), row-major, else
    None. A candidate is an action other than the row's choice whose score
    q_j - lam (c_j - budget) is within 1e-9 (relative) of the top of a row
    that takes its vertex (top >= 0); fallback rows have none.

    The rows run in parts (``_in_parts``: one per CPU that
    ``os.sched_getaffinity`` allows, of at least ``_MIN_PART`` rows each),
    each filling its rows of the outputs, and each part in blocks of
    ``_WALK_BLOCK`` rows. Given ``pack``, a block's scores go to a buffer of
    the part's and only its candidates are kept, a few dozen in a 100 000-row
    batch: no N x M score matrix or mask is made."""
    step = lam * prices.shift
    n, m = q.shape
    choice = np.empty(n, dtype=np.intp)
    top = np.empty(n)
    found = {}  # each block's candidates (rows, actions), by its first row

    def part(lo: int, hi: int) -> None:
        if pack:
            scores = np.empty((min(_WALK_BLOCK, hi - lo), m))
            tied = np.empty(scores.shape, dtype=bool)
        for at in range(lo, hi, _WALK_BLOCK):
            end = min(at + _WALK_BLOCK, hi)
            v = _vertices(cache, lam, at, end)
            t = np.subtract(q[at:end][np.arange(end - at), v], step.take(v), out=top[at:end])
            c = choice[at:end]
            c[:] = np.where(t >= 0.0, v, cache.cheapest[at:end])
            if pack:
                score = np.fmax(q[at:end], -np.inf, out=scores[:end - at])  # NaN at -inf
                np.subtract(score, step, out=score)
                floor = np.where(t >= 0.0, t - 1e-9 * np.maximum(1.0, np.abs(t)), np.inf)
                near = np.greater_equal(score, floor[:, None], out=tied[:end - at])
                near[np.arange(end - at), c] = False
                i, j = np.divmod(np.flatnonzero(near), m)
                i += at
                found[at] = i, j

    _in_parts(part, n)
    return choice, top, _joined(found) if pack else None


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
    chosen = _assign_rows(problem.q, _row_cache(problem.q, prices), prices, lam)[0]
    return _assignment(problem, chosen, lam, int(prices.cents[chosen].sum()))


def _packed(problem: AllocationProblem, cache: _RowCache, lam: float) -> Assignment:
    """The Assignment of the assignment rule's choices at ``lam`` over the rows
    of ``problem``, whose envelope walks are ``cache``, after spending
    leftover budget on tied rows, read from the candidates the rule keeps
    (``_assign_rows`` with ``pack``).

    At a breakpoint several actions share a row's best assignment score; the
    cheapest-tie rule leaves slack that upgrading some of those rows to a
    dearer tied action hands back (the one-fractional-customer rounding of
    the relaxation). Greedy, deterministic, and never lowers the objective.
    A (row, action) pair is one candidate, so the order in which the rule's
    parts return them cannot change the upgrades: the sort below fixes it.
    """
    chosen, _, (rows, actions) = _assign_rows(problem.q, cache, problem._prices, lam,
                                              pack=True)
    budget_total = problem.n * problem.budget_cents
    cents = problem._prices.cents
    total = int(cents[chosen].sum())
    if total <= budget_total:
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


def _step_up_until(fits, lam: float) -> float:
    """First lam' >= lam where ``fits`` holds, stepping up 1, 2, 4, ... ulps:
    a score's float zero crossing can leave a choice on the dearer side."""
    step = 0.0
    while not fits(lam):
        step = max(2.0 * step, float(np.spacing(lam)))
        lam += step
    return lam


def repair_feasibility(problem: AllocationProblem, assignment: Assignment) -> Assignment:
    """Raise the multiplier to the first point where the budget holds, then
    spend any slack on rows left tied there. Only ever moves lam upward (cost
    downward); raises InfeasibleProblemError when no multiplier can meet it.
    """
    budget_total = problem.n * problem.budget_cents
    if assignment.total_cost_cents <= budget_total:
        return assignment
    prices = problem._prices
    cache = _row_cache(problem.q, prices)
    if int(prices.cents[cache.cheapest].sum()) > budget_total:
        raise InfeasibleProblemError(
            "budget below the cheapest eligible assignment; repair cannot terminate")

    # The assignment only changes where a dual choice moves down its envelope
    # or a score q_ij - lam (c_j - budget) crosses zero (the cheapest fallback).
    with np.errstate(divide="ignore", invalid="ignore"):
        zero_cross = problem.q / prices.shift
    cands = np.concatenate([cache.lam, zero_cross.ravel()])
    cands = np.unique(cands[np.isfinite(cands) & (cands > assignment.lam)])

    def fits(lam: float) -> bool:
        chosen = _assign_rows(problem.q, cache, prices, lam)[0]
        return int(prices.cents[chosen].sum()) <= budget_total

    # Cost is non-increasing in lam and constant between candidates: bisect on
    # gap midpoints, which float rounding at a candidate cannot disturb.
    gaps = 0.5 * (cands[:-1] + cands[1:])
    k = bisect.bisect_left(range(gaps.size), True, key=lambda i: fits(float(gaps[i])))
    lam = _step_up_until(fits, float(cands[k]) if cands.size else assignment.lam)
    _check_lambda(lam)
    return _packed(problem, cache, lam)


def solve_and_assign(problem: AllocationProblem) -> Assignment:
    """The exact multiplier (``solve_lambda``), the assignment rule there (which
    fits the budget) and slack packing, in one pass: the rows are masked and
    walked once, lam is selected from their breakpoints once, the rule runs
    over every row once at the returned lam, and packing upgrades rows among
    the candidates it keeps.
    Equal, field by field, to ``_packed`` at ``solve_lambda(problem)``.
    Raises InfeasibleProblemError when even the cheapest eligible assignment
    is over budget.

    The walk and the rule run in parts (``_in_parts``), one per CPU that
    ``os.sched_getaffinity`` allows, of at least ``_MIN_PART`` rows, each in
    blocks of ``_WALK_BLOCK`` rows; the selection of lam, packing and the
    objective's sum run whole and serial, the last two because their order
    fixes their bits.
    Memory: the walk masks the rows block by block and keeps only the
    breakpoints it finds (a row has at most M - 1); the selection copies at
    most half of them at a time; the rule scores its rows block by block
    into a buffer of each part's and keeps only packing's candidates. No
    array the size of the value matrix is made: on a 100 000 x 12 batch the
    solve's traced peak is about 1.05 times the value matrix: the row cache,
    each part's block buffers and the per-row outputs.
    """
    cache = _row_cache(problem.q, problem._prices)
    return _packed(problem, cache, _problem_lambda(problem, cache))


# ---------------------------------------------------------------------------
# Near-real-time multiplier maintenance


class _Batch:
    """Rows admitted by one ``WindowStore.admit`` call: a copy of their checked
    Q rows, their ``_row_cache`` and ``greedy``, the running sum of their
    greedy cents (rows [lo, hi) cost ``greedy[hi] - greedy[lo]``). The window
    holds the cache and the running sum of a batch while it has a row of it,
    and never the Q rows. ``prices`` are the admitting store's; holding them
    rather than the store leaves no reference cycle to outlive the store."""

    __slots__ = ("prices", "q", "cache", "greedy", "__weakref__")

    def __init__(self, prices, q, cache, greedy):
        self.prices, self.q, self.cache, self.greedy = prices, q, cache, greedy


# Most refresh ticks one ``WindowStore.advance`` call may fire: more than a
# day of one-second ticks. Each tick is a refresh and a timeline entry, so a
# period far below the gaps between rows would otherwise run without bound.
_MAX_TICKS = 100_000


class WindowStore:
    """Time-ordered record window feeding periodic multiplier refreshes.

    Timestamps are logical (caller-provided seconds), so tests and simulations
    run in virtual time. Rows enter in two steps. ``admit`` checks a matrix
    of Q rows once and walks their envelopes (``_row_cache``) in one call; it
    returns one admitted row per Q row. ``allocate_online`` then decides one
    admitted row at ``lambda_snapshot`` by the assignment rule on its
    envelope, and the row joins the window. The snapshot is published
    atomically; readers never block on a refresh, joining rows do.

    The window copies no row. It keeps each live row's timestamp and runs of
    the live rows in decision order, a run being [cache, greedy, first, end]:
    rows [first, end) of one batch, decided one after another, with the
    batch's row cache and greedy running sum. A decided row extends the last
    run when it is the next row of that run's batch, and starts a run
    otherwise. Eviction drops timestamps from the front and moves the front
    runs' ``first``, dropping each run it empties; the solve
    (``_exact_lambda``) reads the live rows' slices of their batches'
    breakpoints in place. A batch's cache is kept while the window holds a
    row of it, and its Q rows while the caller holds an admitted row of it.
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
        self._ts: collections.deque[float] = collections.deque()  # per live row
        self._runs: collections.deque[list] = collections.deque()  # [cache, greedy, first, end]
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._ts)

    def admit(self, q) -> list[tuple[_Batch, int]]:
        """The rows of the matrix ``q``, checked and cached for ``allocate_online``:
        one admitted row each, in order. A bad row is a ValueError, and then no
        row is admitted. Admitting changes nothing in the window."""
        q = _checked_rows(q, len(self.costs_cents), 2).copy()
        cache = _row_cache(q, self._prices)
        greedy = np.zeros(len(q) + 1, dtype=np.int64)
        np.cumsum(self._prices.cents.take(cache.start), out=greedy[1:])
        batch = _Batch(self._prices, q, cache, greedy)
        return list(zip(itertools.repeat(batch), range(len(q))))

    def window_refresh(self, now: float) -> float:
        """Evict expired records, re-solve the multiplier, publish the snapshot.

        An empty window keeps the previous snapshot. One that no multiplier
        fits into the budget publishes its largest breakpoint, or 0 if it has
        none, and counts in ``infeasible_refreshes``: at that lam every row
        whose walk reached its cheapest eligible action takes it.
        """
        with self._lock:
            ts, runs = self._ts, self._runs
            # Records leave from the front, up to the first one still inside the span.
            cutoff = now - self.window_span
            while ts and ts[0] <= cutoff:
                ts.popleft()
                runs[0][2] += 1
                if runs[0][2] == runs[0][3]:
                    runs.popleft()
            if runs:
                excess = -len(ts) * self.budget_cents
                lams, drops = [], []
                for cache, greedy, first, end in runs:
                    excess += int(greedy[end] - greedy[first])
                    live = slice(cache.offsets[first], cache.offsets[end])
                    lams.append(cache.lam[live])
                    drops.append(cache.drop[live])
                lam, drop = (parts[0] if len(parts) == 1 else np.concatenate(parts)
                             for parts in (lams, drops))
                try:
                    self.lambda_snapshot = _exact_lambda(excess, lam, drop)
                except InfeasibleProblemError:
                    self.infeasible_refreshes += 1
                    self.lambda_snapshot = float(lam.max()) if lam.size else 0.0
            return self.lambda_snapshot

    def advance(self, now: float) -> None:
        """Fire every refresh tick due by ``now``, oldest first, recording each in
        ``timeline``. Ticks fall every ``refresh_period`` after the first call's
        ``now``; an entry's ``infeasible`` says whether its refresh was. A
        ``now`` that is not finite is a ValueError, raised before any tick
        fires; so is a tick that adding the period does not move (a ts so
        large that the period is lost in rounding), raised before its refresh,
        and a call with more than ``_MAX_TICKS`` ticks due, before any of
        them fires."""
        if not math.isfinite(now):
            raise ValueError(f"now must be a finite ts, not {now!r}")
        if self._next_tick is None:
            self._next_tick = now + self.refresh_period
        if self._next_tick <= now:
            due = (now - self._next_tick) // self.refresh_period + 1
            if due > _MAX_TICKS:
                raise ValueError(f"{due:.6g} refresh ticks of {self.refresh_period!r} s are due "
                                 f"from ts {self._next_tick!r} to {now!r}, more than the "
                                 f"{_MAX_TICKS} one advance may fire")
        while self._next_tick <= now:
            if not self._next_tick + self.refresh_period > self._next_tick:
                raise ValueError(f"refresh ticks cannot advance past ts {self._next_tick!r}: "
                                 f"adding the refresh period {self.refresh_period!r} "
                                 f"rounds back to it")
            infeasible = self.infeasible_refreshes
            lam = self.window_refresh(self._next_tick)
            self.timeline.append({"ts": self._next_tick, "lam": lam, "window": len(self),
                                  "infeasible": self.infeasible_refreshes > infeasible})
            self._next_tick += self.refresh_period

    def allocate_online(self, row, now: float) -> int:
        """The assignment rule's action at the snapshot for a customer arriving at
        ``now``, whose ``row`` (one of this store's ``admit``) then joins the
        window. A ``now`` that is not finite or a bad snapshot is a ValueError,
        and a row from elsewhere, or an index ``admit`` did not hand out, a
        TypeError, each raised before the row joins. The row's dual choice is
        its vertex after its breakpoints <= lam, counted in
        ``lam[offsets[i]:offsets[i + 1]]``, as ``_vertices`` finds it for a
        matrix."""
        if not math.isfinite(now):
            raise ValueError(f"now must be a finite ts, not {now!r}")
        lam = self.lambda_snapshot
        _check_lambda(lam)
        try:
            batch, i = row
            admitted = (batch.prices is self._prices and type(i) is int
                        and 0 <= i < len(batch.q))
        except (TypeError, ValueError, AttributeError):
            admitted = False
        if not admitted:
            raise TypeError("allocate_online takes a row returned by this store's admit")
        cache = batch.cache
        first = int(cache.offsets[i])
        k = bisect.bisect_right(cache.lam, lam, first, int(cache.offsets[i + 1])) - first
        v = int(cache.to[first + k - 1] if k else cache.start[i])
        score = batch.q[i, v] - lam * self._prices.shift[v]
        action = v if score >= 0.0 else int(cache.cheapest[i])
        with self._lock:
            self._ts.append(float(now))
            last = self._runs[-1] if self._runs else None
            if last is not None and last[0] is cache and last[3] == i:
                last[3] = i + 1
            else:
                self._runs.append([cache, batch.greedy, i, i + 1])
        return action
