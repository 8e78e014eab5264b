"""Host-speed reference: a fixed probe timed between segments of the workload.

The benchmark's host shares its CPUs with other tenants, and the speed it
gives one process drifts by tens of percent over minutes. A ``Clock`` splits
a run into segments of about a second and times a fixed probe, which uses no
``budgetrl`` code, between each two. A segment's time is then scaled by the
probe's nominal time over the median probe around it, which reports it at
the host speed at which the probe takes its nominal time: a phase that slows
both by the same factor leaves the scaled time as it was, while a change to
``budgetrl`` moves the segment and not the probe. Probe time is not counted
in any segment.

The probe is small-matrix work (like training and per-claim scoring) plus
passes over 100k-row arrays (like a batch assignment). A pure-interpreter
loop was tried too and left out: it sped up and slowed down about twice as
much as any of the three workloads.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Median probe time on the 2-CPU x86-64 host the benchmark was tuned on
# (Python 3.11, numpy 2.4, OpenBLAS on one thread), so scaled times read
# close to seconds there.
NOMINAL_PROBE_S = 0.065
# Decision loops lap once a segment holds this much timed work.
LAP_S = 0.5
# A segment is scaled by the median of the probes within this many
# positions of it: enough to damp the probe's own noise, few enough to
# follow a drift that lasts a few seconds.
PROBE_WINDOW = 3

_rng = np.random.default_rng(20220715)
_X = _rng.standard_normal((64, 24))
_W = (_rng.standard_normal((24, 64)) * 0.1, _rng.standard_normal((64, 64)) * 0.1,
      _rng.standard_normal((64, 8)) * 0.1)
_COSTS = np.linspace(0.5, 3.0, 8)
# The probes write only into buffers made once: how fast a fresh allocation
# is depends on what the process allocated before (glibc moves its mmap
# threshold), which would make a probe track the workload's heap and not
# the host.
_BUF = {"w": [np.empty_like(w) for w in _W], "h1": np.empty((64, 64)),
        "h2": np.empty((64, 64)), "g": np.empty((64, 8)), "g2": np.empty((64, 64)),
        "dw3": np.empty((64, 8)), "dw2": np.empty((64, 64))}


def _rows_buffers() -> dict:
    """The memory probe's 100k x 8 rows (20% NaN) and its work buffers."""
    if "rows" not in _BUF:
        rows = np.random.default_rng(20220716).standard_normal((100_000, 8))
        rows[rows > 0.84] = np.nan
        _BUF.update(rows=rows, q=np.empty_like(rows), nan=np.empty(rows.shape, dtype=bool),
                    best=np.empty(len(rows), dtype=np.intp), col=np.empty(len(rows)))
    return _BUF


def _small_matrices(n: int = 200) -> float:
    """Forward and backward passes of a 64x64 MLP, like a training step."""
    b = _BUF
    w1, w2, w3 = b["w"]
    for w, src in zip(b["w"], _W):
        np.copyto(w, src)
    h1, h2, g, g2 = b["h1"], b["h2"], b["g"], b["g2"]
    for _ in range(n):
        np.maximum(np.matmul(_X, w1, out=h1), 0.0, out=h1)
        np.maximum(np.matmul(h1, w2, out=h2), 0.0, out=h2)
        np.subtract(np.matmul(h2, w3, out=g), 0.1, out=g)
        np.multiply(np.matmul(g, w3.T, out=g2), h2 > 0, out=g2)
        w3 -= np.multiply(np.matmul(h2.T, g, out=b["dw3"]), 1e-3, out=b["dw3"])
        w2 -= np.multiply(np.matmul(h1.T, g2, out=b["dw2"]), 1e-3, out=b["dw2"])
    return float(w2.sum())


def _large_arrays(n: int = 3) -> float:
    """Masked argmax and a sort over 100k rows, like a batch assignment."""
    b = _rows_buffers()
    rows, q, nan, best, col = b["rows"], b["q"], b["nan"], b["best"], b["col"]
    s = 0.0
    for k in range(n):
        np.subtract(rows, (0.1 * k) * _COSTS, out=q)
        np.isnan(q, out=nan)
        np.copyto(q, -np.inf, where=nan)
        np.argmax(q, axis=1, out=best)
        np.copyto(col, q[:, 0])
        col.sort()
        s += float(best.sum())
    return s


def probe() -> float:
    """Seconds the probe takes now."""
    start = perf_counter()
    _small_matrices()
    _large_arrays()
    return perf_counter() - start


class Clock:
    """Time spent in the timed calls of a run, in segments split by probes.

    ``start``/``stop`` (or ``call``) add wall time to the current segment;
    ``lap`` ends it, times the probe and opens the next one. A running
    interval goes on across a lap, minus the probe.
    """

    def __init__(self):
        probe()  # first touch of its buffers
        self.probes = [probe()]  # probe j precedes segment j
        self.segments = [0.0]
        self._since: float | None = None

    @property
    def segment(self) -> int:
        """Index of the current segment."""
        return len(self.segments) - 1

    def start(self) -> None:
        self._since = perf_counter()

    def stop(self) -> None:
        self.segments[-1] += perf_counter() - self._since
        self._since = None

    def call(self, fn, *args):
        self.start()
        try:
            return fn(*args)
        finally:
            self.stop()

    def due(self) -> bool:
        """True once the current segment holds ``LAP_S`` of timed work."""
        running = perf_counter() - self._since if self._since is not None else 0.0
        return self.segments[-1] + running >= LAP_S

    def lap(self) -> None:
        running = self._since is not None
        if running:
            self.stop()
        self.probes.append(probe())
        self.segments.append(0.0)
        if running:
            self.start()

    def factors(self) -> np.ndarray:
        """Per segment: the nominal probe time over the median probe around it."""
        p = np.asarray(self.probes)
        # segment j lies between probes j and j + 1
        return np.array([NOMINAL_PROBE_S / np.median(
            p[max(0, j + 1 - PROBE_WINDOW):j + 1 + PROBE_WINDOW])
            for j in range(len(self.segments))])

    def raw(self, segments: range) -> float:
        """Measured seconds of a range of segments."""
        return float(sum(self.segments[segments.start:segments.stop]))

    def scaled(self, segments: range, factors: np.ndarray) -> float:
        """Scaled seconds of a range of segments."""
        return float(np.dot(self.segments[segments.start:segments.stop],
                            factors[segments.start:segments.stop]))
