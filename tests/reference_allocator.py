"""Whole-window reference of the multiplier search and the sliding window.

This is the form of ``budgetrl.allocator`` that redoes whole-window work on
every refresh: the window's arrays are concatenated at each flush and sliced
at each eviction, and the exact multiplier gathers and argsorts every finite
breakpoint and checks fit with the dual selection and the assignment rule
over every row. The envelope walk is the one that runs until no row moves.
The package's incremental window, sorted breakpoints and near-row fit check
are held to its bits.

``RowStore`` is the window store that takes raw Q rows one at a time: each
decision checks and masks its row, and each flush walks the queued rows'
envelopes. Stores that admit rows in batches are held to its bits.
"""

import math

import numpy as np

from budgetrl.allocator import (
    InfeasibleProblemError,
    WindowStore,
    _Prices,
    _abs_max,
    _assign_choice,
    _breakpoints,
    _check_lambda,
    _checked_rows,
    _masked,
    _merged,
    _row_cache,
    _step_up_until,
)


def row_cache(q, cents):
    """The -inf-masked rows, the greedy cost, the cheapest eligible action, and
    the envelope walk's breakpoints and drops (inf and 0 past the last)."""
    qm = np.fmax(q, -np.inf)
    cheapest = np.isfinite(q).argmax(axis=-1)
    cur = qm.argmax(axis=-1)
    lams = np.full((q.shape[0], q.shape[1] - 1), np.inf)
    drops = np.zeros(lams.shape, dtype=np.int64)
    units = cents / 100.0
    gap, no_move = units[:, None] - units, cents >= cents[:, None]
    m = q.shape[1]
    rows, at = np.arange(q.shape[0]), cur
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
            lams[rows, step] = -neg_lam
            drops[rows, step] = cents[at] - cents[nxt]
            at = nxt
    return qm, cents[cur], cheapest, lams, drops


def compact(lams, drops):
    """The finite entries of the tables ``row_cache`` gives, in the package's
    compact layout: (lam, drop, offsets), row after row, each row's in walk
    order, row i's at ``offsets[i]:offsets[i + 1]``."""
    finite = lams < np.inf
    offsets = np.zeros(lams.shape[0] + 1, dtype=np.intp)
    np.cumsum(finite.sum(axis=1), out=offsets[1:])
    return lams[finite], drops[finite], offsets


def exact_lambda(cache, cents, budget_cents, total_cents, steps=None):
    """Smallest lam at which the rows of ``cache`` (``row_cache``) cost at most
    ``total_cents`` under both the dual selection and the assignment rule.
    When ``steps`` is a list, the number of failed fit checks is appended to it."""
    qm, start_cents, cheapest, lams, drops = cache
    excess = int(start_cents.sum()) - total_cents
    if excess <= 0:
        return 0.0
    finite = lams < np.inf
    lams, drops = lams[finite], drops[finite]
    order = np.argsort(lams)
    k = int(np.searchsorted(np.cumsum(drops[order]), excess))
    if k == lams.size:
        raise InfeasibleProblemError(
            "budget below the cheapest eligible assignment; no multiplier can satisfy it")
    failed = 0
    prices = _Prices(cents, budget_cents)

    def fits(lam):
        nonlocal failed
        ok = (int(cents[(qm - lam * (cents / 100.0)).argmax(axis=-1)].sum()) <= total_cents
              and int(cents[_assign_choice(qm, cheapest, prices, lam)[0]].sum())
              <= total_cents)
        failed += not ok
        return ok

    lam = _step_up_until(fits, float(lams[order[k]]))
    if steps is not None:
        steps.append(failed)
    return lam


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
                self.lambda_snapshot = exact_lambda(cache, self.cents, self.budget_cents,
                                                    len(cache[0]) * self.budget_cents)
            except InfeasibleProblemError:
                self.infeasible_refreshes += 1
                self.lambda_snapshot = exact_lambda(cache, self.cents, self.budget_cents,
                                                    int(self.cents[cache[2]].sum()))
        return self.lambda_snapshot


class RowStore(WindowStore):
    """``WindowStore`` with a per-row ``allocate_online(q_row, now)`` that
    checks and masks the raw row, and a flush that fills the queued rows'
    ``_row_cache`` arrays; refreshes and ticks are the package's."""

    def _flush(self):
        q = np.array([q for _, q in self._pending])
        n = len(q)
        *rows, lam, drop, offsets = _row_cache(q, self._prices)
        self._make_room(n, lam.size)
        new = [a[self._hi:self._hi + n] for a in self._buffers]
        new[0][:] = [t for t, _ in self._pending]
        for buffer, column in zip(new[1:], rows):
            buffer[:] = column
        entry = self._offsets[self._hi]
        for buffer, column in zip(self._entries, (lam, drop)):
            buffer[entry:entry + lam.size] = column
        self._offsets[self._hi:self._hi + n + 1] = offsets + entry
        self._breaks = _merged(self._breaks, _breakpoints(lam, drop, first=entry))
        self._hi += n
        self._qmax = max(self._qmax, _abs_max(q))
        self._pending = []

    def allocate_online(self, q_row, now):
        lam = self.lambda_snapshot
        _check_lambda(lam)
        q_row = np.asarray(q_row, dtype=float)
        cents = self._prices.cents
        if not (q_row.shape == cents.shape and math.isfinite(np.fmax.reduce(q_row))
                and math.isfinite(np.fmin.reduce(q_row))):
            q_row = _checked_rows(q_row, cents.size, 1)
        qm, cheapest = _masked(q_row[None])
        action = int(_assign_choice(qm, cheapest, self._prices, lam)[0][0])
        with self._lock:
            self._pending.append((float(now), q_row))
        return action
