"""Per-layer tracing for the benchmark, done entirely from outside the package.

``Tracer.installed()`` replaces public names of ``budgetrl`` at the place
their caller looks them up (a module global or a class attribute) with a
wrapper that records a span: name, phase, start, end and the enclosing span.
Leaving the block restores the originals, so untraced code runs unwrapped.
``layer_metrics`` turns the spans into the per-layer metrics listed in
``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import functools
from time import perf_counter

import numpy as np
from budgetrl import allocator, bcq, core, envsim, evaluation, nets

# (owner, attribute, span name). Module attributes are patched in the module
# whose code calls them: ``bcq_train`` finds ``train_step`` and
# ``train_behavior_model`` in ``budgetrl.bcq``; ``solve_and_assign`` and
# ``WindowStore.window_refresh`` find ``solve_lambda`` in ``budgetrl.allocator``.
TARGETS = (
    (core, "write_dataset", "core.write_dataset"),
    (core, "load_dataset", "core.load_dataset"),
    (core, "validate_dataset", "core.validate_dataset"),
    (envsim, "generate_dataset", "envsim.generate_dataset"),
    (envsim.CheckinEnv, "step", "envsim.step"),
    (bcq, "train_step", "nets.train_step"),
    (nets.Optimizer, "apply", "nets.optimizer_apply"),
    (bcq, "bcq_train", "bcq.bcq_train"),
    (bcq, "train_behavior_model", "bcq.behavior_fit"),
    (bcq.BcqAgent, "save", "bcq.agent_save"),
    (bcq.BcqAgent, "load", "bcq.agent_load"),
    (bcq.BcqPolicy, "q_row", "bcq.q_row"),
    (evaluation, "match_records", "evaluation.match_records"),
    (allocator, "solve_and_assign", "allocator.solve_and_assign"),
    (allocator, "solve_lambda", "allocator.solve_lambda"),
    (allocator, "assign", "allocator.assign"),
    (allocator, "repair_feasibility", "allocator.repair_feasibility"),
    (allocator.WindowStore, "window_refresh", "allocator.refresh"),
    (allocator.WindowStore, "allocate_online", "allocator.allocate_online"),
)


class Tracer:
    """In-memory span recorder. ``phase`` labels spans as set-up or timed."""

    def __init__(self):
        self.spans: list = []  # (name, phase, start, end, parent index)
        self.refresh_rows: list[int] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._index: dict[str, list[int]] = {}

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, tracer.phase, start, end, parent)
                if name == "allocator.refresh":
                    tracer.refresh_rows.append(len(args[0]))

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name in TARGETS:
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    patched = classmethod(self._wrap(name, original.__func__))
                else:
                    patched = self._wrap(name, original)
                saved.append((owner, attr, original))
                setattr(owner, attr, patched)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------------

    def _by_name(self) -> dict[str, list[int]]:
        """Span indices by name, rebuilt when spans were added since."""
        if sum(map(len, self._index.values())) != len(self.spans):
            self._index = {}
            for i, s in enumerate(self.spans):
                self._index.setdefault(s[0], []).append(i)
        return self._index

    def durations(self, name: str, phase: str | None = None) -> np.ndarray:
        spans = (self.spans[i] for i in self._by_name().get(name, ()))
        return np.array([s[3] - s[2] for s in spans if phase is None or s[1] == phase])

    def child_time(self, parent_name: str, child_names: tuple[str, ...],
                   phase: str | None = None) -> np.ndarray:
        """Per span of ``parent_name`` (in ``phase``): summed duration of its
        direct children named in ``child_names``."""
        by_name = self._by_name()
        parents = [i for i in by_name.get(parent_name, ())
                   if phase is None or self.spans[i][1] == phase]
        slot = {i: k for k, i in enumerate(parents)}
        totals = np.zeros(len(parents))
        for child in child_names:
            for i in by_name.get(child, ()):
                s = self.spans[i]
                if s[4] in slot:
                    totals[slot[s[4]]] += s[3] - s[2]
        return totals


def _median(a: np.ndarray) -> float:
    return float(np.median(a)) if a.size else 0.0


def _pct(a: np.ndarray, q: float, scale: float) -> float:
    return float(np.percentile(a, q)) * scale if a.size else 0.0


def layer_metrics(tracer: Tracer, *, timed_reps: int, timed_wall_s: float,
                  training_steps: int, transitions: int, matched_steps: int,
                  trace_overhead_s: float) -> tuple[dict, dict]:
    """Per-layer metrics as (name -> (value, unit)) plus sample counts.

    Stage times (``*_s`` of a single call) are medians over every call in the
    run, set-up included; ``*_calls``, ``*_s`` totals of the allocator split
    and ``refresh_share`` cover the traced timed repetitions only.
    """
    d = tracer.durations
    reps = max(timed_reps, 1)

    def per_rep(name: str) -> tuple[float, float]:
        """Time in and calls of ``name`` per traced timed repetition."""
        t = d(name, "timed")
        return float(t.sum()) / reps, t.size / reps

    fit = d("bcq.behavior_fit")
    q_train = d("bcq.bcq_train") - tracer.child_time("bcq.bcq_train", ("bcq.behavior_fit",))
    q_train_s = _median(q_train)
    n_trainings = max(d("bcq.bcq_train").size, 1)
    # slack packing is the part of solve_and_assign outside its traced children
    post_assign = float((d("allocator.solve_and_assign", "timed") - tracer.child_time(
        "allocator.solve_and_assign",
        ("allocator.solve_lambda", "allocator.assign", "allocator.repair_feasibility"),
        "timed")).sum())
    rows = np.asarray(tracer.refresh_rows, dtype=float)
    step, train_step = d("envsim.step"), d("nets.train_step")
    q_row, refresh = d("bcq.q_row"), d("allocator.refresh")
    solve_lambda, alloc_online = d("allocator.solve_lambda"), d("allocator.allocate_online")

    m = {
        "core.write_dataset_s": (_median(d("core.write_dataset")), "s"),
        "core.load_dataset_s": (_median(d("core.load_dataset")), "s"),
        "core.validate_dataset_s": (_median(d("core.validate_dataset")), "s"),
        "core.transitions": (transitions, "count"),
        "envsim.generate_dataset_s": (_median(d("envsim.generate_dataset")), "s"),
        "envsim.step_us.p50": (_pct(step, 50, 1e6), "us"),
        "envsim.step_calls": (per_rep("envsim.step")[1], "count"),
        "bcq.behavior_fit_s": (_median(fit), "s"),
        "bcq.q_train_s": (q_train_s, "s"),
        "bcq.q_train_steps_per_s": (training_steps / q_train_s if q_train_s else 0.0, "1/s"),
        "nets.train_step_us.p50": (_pct(train_step, 50, 1e6), "us"),
        "nets.optimizer_apply_s": (float(d("nets.optimizer_apply").sum()) / n_trainings, "s"),
        "bcq.agent_io_s": (_median(d("bcq.agent_save")) + _median(d("bcq.agent_load")), "s"),
        "bcq.q_row_us.p50": (_pct(q_row, 50, 1e6), "us"),
        "bcq.q_row_us.p99": (_pct(q_row, 99, 1e6), "us"),
        "evaluation.match_records_s": (_median(d("evaluation.match_records")), "s"),
        "evaluation.matched_steps": (matched_steps, "count"),
        "allocator.refresh_ms.p50": (_pct(refresh, 50, 1e3), "ms"),
        "allocator.refresh_ms.p99": (_pct(refresh, 99, 1e3), "ms"),
        "allocator.refresh_calls": (per_rep("allocator.refresh")[1], "count"),
        "allocator.refresh_rows.mean": (float(rows.mean()) if rows.size else 0.0, "rows"),
        "allocator.refresh_share": (float(d("allocator.refresh", "timed").sum()) / timed_wall_s
                                    if timed_wall_s else 0.0, "fraction"),
        "allocator.solve_lambda_ms.p50": (_pct(solve_lambda, 50, 1e3), "ms"),
        "allocator.allocate_online_us.p50": (_pct(alloc_online, 50, 1e6), "us"),
        "allocator.allocate_online_us.p99": (_pct(alloc_online, 99, 1e6), "us"),
        "allocator.solve_lambda_s": (per_rep("allocator.solve_lambda")[0], "s"),
        "allocator.assign_s": (per_rep("allocator.assign")[0], "s"),
        "allocator.repair_calls": (per_rep("allocator.repair_feasibility")[1], "count"),
        "allocator.repair_s": (per_rep("allocator.repair_feasibility")[0], "s"),
        "allocator.post_assign_s": (post_assign / reps, "s"),
        "bench.trace_overhead_s": (trace_overhead_s, "s"),
    }
    samples = {name: f"n={a.size}" for name, a in (
        ("envsim.step_us.p50", step), ("nets.train_step_us.p50", train_step),
        ("bcq.q_row_us.p50", q_row), ("bcq.q_row_us.p99", q_row),
        ("allocator.refresh_ms.p50", refresh), ("allocator.refresh_ms.p99", refresh),
        ("allocator.solve_lambda_ms.p50", solve_lambda),
        ("allocator.allocate_online_us.p50", alloc_online),
        ("allocator.allocate_online_us.p99", alloc_online))}
    return m, samples
