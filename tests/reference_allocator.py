"""Whole-window reference of the multiplier search and the sliding window.

This is the form of ``budgetrl.allocator`` that redoes whole-window work on
every refresh: the window's arrays are concatenated at each flush and sliced
at each eviction, and the exact multiplier gathers and argsorts every finite
breakpoint of the window. The envelope walk is dense: it runs until no row
moves and fills (N, M - 1) tables, and the dual choice at lam is read from
them by counting each row's breakpoints <= lam. The package's compact walk,
its window of runs over the admitted batches' breakpoints and its multiplier
by selection over unsorted breakpoints are held to its bits.

``RowStore`` is the window store that takes raw Q rows one at a time: each
decision checks its row and walks its envelope alone, and the row joins the
window admitted alone, as a run of its own. Stores that admit rows in
batches are held to its bits.
"""

import math

import numpy as np

from budgetrl.allocator import (
    InfeasibleProblemError,
    WindowStore,
    _assign_rows,
    _check_lambda,
    _checked_rows,
    _row_cache,
)


def row_cache(q, cents):
    """The -inf-masked rows, the greedy action, the cheapest eligible action,
    and the envelope walk's breakpoints, drops and actions moved to (inf, 0
    and -1 past the last); each breakpoint is at least the row's one before."""
    qm = np.fmax(q, -np.inf)
    cheapest = np.isfinite(q).argmax(axis=-1)
    start = qm.argmax(axis=-1)
    lams = np.full((q.shape[0], q.shape[1] - 1), np.inf)
    drops = np.zeros(lams.shape, dtype=np.int64)
    tos = np.full(lams.shape, -1)
    units = cents / 100.0
    gap, no_move = units[:, None] - units, cents >= cents[:, None]
    m = q.shape[1]
    rows, at, last = np.arange(q.shape[0]), start, np.zeros(q.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(m - 1):
            neg = qm[rows]
            np.subtract(neg, qm.take(rows * m + at)[:, None], out=neg)
            np.divide(neg, gap.take(at, axis=0), out=neg)
            np.putmask(neg, no_move.take(at, axis=0), -np.inf)
            nxt = neg.argmax(axis=-1)
            neg_lam = neg.take(np.arange(rows.size) * m + nxt)
            moves = neg_lam > -np.inf
            rows, at, nxt, neg_lam = rows[moves], at[moves], nxt[moves], neg_lam[moves]
            if not rows.size:
                break
            last[rows] = np.maximum(-neg_lam, last[rows])
            lams[rows, step] = last[rows]
            drops[rows, step] = cents[at] - cents[nxt]
            tos[rows, step] = nxt
            at = nxt
    return qm, start, cheapest, lams, drops, tos


def compact(lams, drops, tos):
    """The finite entries of the tables ``row_cache`` gives, in the package's
    compact layout: (lam, drop, to, offsets), row after row, each row's in
    walk order, row i's at ``offsets[i]:offsets[i + 1]``."""
    finite = lams < np.inf
    offsets = np.zeros(lams.shape[0] + 1, dtype=np.intp)
    np.cumsum(finite.sum(axis=1), out=offsets[1:])
    to = tos[finite].astype(np.min_scalar_type(lams.shape[1]))
    return lams[finite], drops[finite], to, offsets


def dual_choice(cache, lam):
    """Each row's dual choice at ``lam``: its vertex after its breakpoints <= lam."""
    _, start, _, lams, _, tos = cache
    count = (lams <= lam).sum(axis=1)
    return np.where(count > 0, tos[np.arange(len(start)), count - 1], start)


def assignment_rule(q, cache, cents, budget_cents, lam):
    """The assignment rule at ``lam``: each row's dual choice v when
    q_v - lam (c_v - budget) >= 0, else its cheapest eligible action; and
    each row's score of v."""
    v = dual_choice(cache, lam)
    top = q[np.arange(len(q)), v] - (lam * (cents / 100.0 - budget_cents / 100.0))[v]
    return np.where(top >= 0.0, v, cache[2]), top


def exact_lambda(cache, cents, total_cents):
    """Smallest lam at which the rows of ``cache`` (``row_cache``) cost at most
    ``total_cents`` under the dual choice: the breakpoint where the sorted
    cumulative drop first covers the greedy cost's excess."""
    _, start, _, lams, drops, _ = cache
    excess = int(cents[start].sum()) - total_cents
    if excess <= 0:
        return 0.0
    finite = lams < np.inf
    lams, drops = lams[finite], drops[finite]
    order = np.argsort(lams)
    k = int(np.searchsorted(np.cumsum(drops[order]), excess))
    if k == lams.size:
        raise InfeasibleProblemError(
            "budget below the cheapest eligible assignment; no multiplier can satisfy it")
    return float(lams[order[k]])


class ConcatWindow:
    """The sliding window with one array per field, concatenated at each flush:
    rows leave from the front, up to the first one still inside the span."""

    def __init__(self, costs_cents, budget_cents, window_span):
        self.cents = np.asarray(costs_cents, dtype=np.int64)
        self.budget_cents = budget_cents
        self.window_span = window_span
        self.lambda_snapshot = 0.0
        self.infeasible_refreshes = 0
        self.pending = []
        self.window = (np.empty(0), *row_cache(np.empty((0, self.cents.size)), self.cents))

    def append(self, ts, q_row):
        self.pending.append((float(ts), _checked_rows(q_row, self.cents.size, 1)))

    def window_refresh(self, now):
        if self.pending:
            new_q = np.stack([q for _, q in self.pending])
            self.window = tuple(np.concatenate(pair) for pair in zip(self.window, (
                np.array([t for t, _ in self.pending]), *row_cache(new_q, self.cents))))
            self.pending = []
        evicted = int(np.logical_and.accumulate(self.window[0] <= now - self.window_span).sum())
        _, *cache = self.window = tuple(a[evicted:] for a in self.window)
        if len(cache[0]):
            try:
                self.lambda_snapshot = exact_lambda(cache, self.cents,
                                                    len(cache[0]) * self.budget_cents)
            except InfeasibleProblemError:
                self.infeasible_refreshes += 1
                lams = cache[3][cache[3] < np.inf]
                self.lambda_snapshot = float(lams.max()) if lams.size else 0.0
        return self.lambda_snapshot


class RowStore(WindowStore):
    """``WindowStore`` with a per-row ``allocate_online(q_row, now)`` that
    checks the raw row and applies the batch assignment rule to it alone; the
    row then joins the window through the package's ``allocate_online`` on
    the row admitted alone. Refreshes and ticks are the package's."""

    def allocate_online(self, q_row, now):
        lam = self.lambda_snapshot
        _check_lambda(lam)
        q_row = np.asarray(q_row, dtype=float)
        cents = self._prices.cents
        if not (q_row.shape == cents.shape and math.isfinite(np.fmax.reduce(q_row))
                and math.isfinite(np.fmin.reduce(q_row))):
            q_row = _checked_rows(q_row, cents.size, 1)
        q = q_row[None]
        action = int(_assign_rows(q, _row_cache(q, self._prices), self._prices, lam)[0][0])
        super().allocate_online(self.admit(q)[0], now)
        return action
