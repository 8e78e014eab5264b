"""The benchmark's three workloads, driven through the public API of ``budgetrl``.

Each workload has a ``setup`` (everything before the timed phase, run several
times so its median can be reported), an ``identity`` of what set-up made
(equal across set-ups of one seed) and a ``rep`` (one repetition of the
timed phase). Time is kept by a ``reference.Clock``: set-up is timed whole,
a repetition only in its calls into ``budgetrl``, and the output checks run
outside the timed intervals. Stages end with ``clock.lap()``, which times the
host-speed probe, and decision loops lap every half second of work. Every call
goes through a module attribute (``core.load_dataset``), so a tracer can wrap
it where it is looked up. See README.md in this directory for why each
workload exists.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from budgetrl import allocator, bcq, core, envsim, evaluation
from reference import Clock


@dataclass(frozen=True)
class Size:
    offline_users: int = 4000
    setup_users: int = 1500
    training_steps: int = 2000
    days: int = 4
    arrivals: int = 500
    batch_rows: int = 100_000


SIZES = {
    "full": Size(),
    # keeps the harness itself exercised in seconds; see test_smoke.py
    "tiny": Size(offline_users=50, setup_users=50, training_steps=50, days=1,
                 arrivals=20, batch_rows=200),
}

ONLINE_BUDGET_CENTS = 87
BATCH_BUDGETS_CENTS = (87, 100)
# The deployed model is a fixture: the same logs and agent for every seed, so
# ``--seed`` varies the traffic (arrivals, sampled rows) and not whether a
# budget binds, which alone changes the solve's work by a third.
MODEL_SEED = 0


def pipeline_hyper(steps: int, seed: int) -> core.HyperParams:
    """The hyperparameters ``budgetrl pipeline`` trains with."""
    return core.HyperParams(xi=0.3, training_steps=steps, seed=seed, hidden_sizes=(64, 64),
                            learning_rate=0.01, optimizer="adam")


@dataclass
class Rep:
    """Outcome of one timed repetition.

    ``segments`` are the clock segments it spans and ``wall_s`` their scaled
    time, which the runner fills in. A decision's latency is the wall-time
    gap since the previous decision (or the start), measured in clock
    segment ``decision_segments[i]``; rows of a batch take their solve's time.
    """

    segments: range = range(0)
    wall_s: float = 0.0
    claims: int = 0
    attempted: int = 0
    failed: int = 0
    latencies_s: np.ndarray = field(default_factory=lambda: np.empty(0))
    decision_segments: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    quality: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        """A failed output check counts as one failed operation."""
        if not ok:
            self.failed += 1
            self.errors.append(message)


def _sha(array) -> str:
    return hashlib.sha1(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


class Decisions:
    """Gaps between consecutive decisions, one ``perf_counter`` stamp each.

    Laps the clock when a segment is due, and leaves the probe out of the
    gap it falls in.
    """

    def __init__(self, clock: Clock):
        self.clock = clock
        self.gaps: list[float] = []
        self.segments: list[int] = []
        self._last = perf_counter()

    def begin(self) -> None:
        self._last = perf_counter()

    def decided(self) -> None:
        now = perf_counter()
        self.gaps.append(now - self._last)
        self.segments.append(self.clock.segment)
        if self.clock.due():
            self.clock.lap()
            now = perf_counter()
        self._last = now

    def record(self, rep: Rep) -> None:
        rep.latencies_s = np.asarray(self.gaps)
        rep.decision_segments = np.asarray(self.segments, dtype=int)


class StampedPolicy(bcq.BcqPolicy):
    """BCQ policy that stamps the time each decision returns."""

    def __init__(self, agent, decisions: Decisions):
        super().__init__(agent)
        self.decisions = decisions

    def action(self, state):
        a = super().action(state)
        self.decisions.decided()
        return a


class StampedStore(allocator.WindowStore):
    """Default window store that stamps the time each online decision returns."""

    def __init__(self, costs_cents, budget_cents: int, decisions: Decisions):
        super().__init__(costs_cents, budget_cents)
        self.decisions = decisions

    def allocate_online(self, q_row, now):
        a = super().allocate_online(q_row, now)
        self.decisions.decided()
        return a


def _trained_agent(size: Size, clock: Clock):
    """Set-up shared by ``online`` and ``batch_alloc``: logs plus a trained agent,
    as ``budgetrl pipeline`` makes them."""
    env_config, behavior, actions = envsim.default_config()
    env = envsim.CheckinEnv(env_config, actions)
    dataset = envsim.generate_dataset(env, behavior, size.setup_users, MODEL_SEED)
    clock.lap()
    violations = core.validate_dataset(dataset, actions, env_config.feature_dim)
    if violations:
        raise RuntimeError(f"generated dataset failed validation: {violations[:3]}")
    agent = bcq.bcq_train(dataset, actions, pipeline_hyper(size.training_steps, MODEL_SEED))
    return env_config, actions, dataset, agent


class Offline:
    """Logs to a scored model: load, validate, train, save and reload, score."""

    name = "offline"

    def __init__(self, size: Size, seed: int, workdir: Path):
        self.size, self.seed, self.workdir = size, seed, workdir
        self._setups = 0

    def setup(self, clock: Clock):
        """The logs already exist when training starts: generate and write them."""
        env_config, behavior, actions = envsim.default_config()
        env = envsim.CheckinEnv(env_config, actions)
        dataset = envsim.generate_dataset(env, behavior, self.size.offline_users, self.seed)
        clock.lap()
        self._setups += 1
        logs = self.workdir / f"logs-{self._setups}"
        core.write_dataset(logs, dataset, actions, env_config.feature_dim)
        return {"actions": actions, "d": env_config.feature_dim, "dataset": dataset,
                "logs": logs, "transitions": sum(len(t) for t in dataset)}

    @staticmethod
    def identity(state) -> str:
        shards = sorted(state["logs"].glob("*.jsonl"))
        return hashlib.sha1(b"".join(p.read_bytes() for p in shards)).hexdigest()[:16]

    def rep(self, state, clock: Clock) -> Rep:
        rep = Rep()
        actions, d = state["actions"], state["d"]
        try:
            rep.attempted += 1
            loaded, _ = clock.call(core.load_dataset, state["logs"])
            rep.check(loaded == state["dataset"], "reloaded dataset differs from the generated one")

            rep.attempted += 1
            violations = clock.call(core.validate_dataset, loaded, actions, d)
            rep.check(not violations, f"validate_dataset: {violations[:3]}")
            clock.lap()

            rep.attempted += 1
            agent = clock.call(bcq.bcq_train, loaded, actions,
                               pipeline_hyper(self.size.training_steps, self.seed))
            clock.lap()

            rep.attempted += 1
            model = self.workdir / "model.json"
            clock.call(agent.save, model)
            reloaded = clock.call(bcq.BcqAgent.load, model)
            inputs = bcq.states_to_inputs([tr.state for tr in core.flatten(loaded)[:256]])
            rep.check(np.array_equal(agent.q_net.forward(inputs), reloaded.q_net.forward(inputs)),
                      "reloaded agent disagrees with the trained one on a probe batch")

            rep.attempted += 1
            decisions = Decisions(clock)
            policy = StampedPolicy(reloaded, decisions)
            decisions.begin()
            matched = clock.call(evaluation.match_records, loaded, policy)
            report = clock.call(evaluation.offline_report, matched)
        except Exception as exc:  # a stage that raises is a failed operation
            rep.failed += 1
            rep.errors.append(f"{type(exc).__name__}: {exc}")
            return rep
        rep.claims = state["transitions"]
        decisions.record(rep)
        rep.quality = {
            "transitions": rep.claims,
            "q_params": _sha(agent.q_net.get_params()),
            "matched_steps": report.matched_steps,
            "retention": report.retention_rate,
            "mean_cost_units": report.avg_cost_units,
        }
        return rep


class Online:
    """A deployed policy under budget: the virtual-time simulation with a window."""

    name = "online"

    def __init__(self, size: Size, seed: int, workdir: Path):
        self.size, self.seed = size, seed

    def setup(self, clock: Clock):
        env_config, actions, dataset, agent = _trained_agent(self.size, clock)
        return {"env_config": env_config, "actions": actions, "agent": agent,
                "transitions": sum(len(t) for t in dataset)}

    @staticmethod
    def identity(state) -> str:
        return _sha(state["agent"].q_net.get_params())

    def rep(self, state, clock: Clock) -> Rep:
        rep = Rep()
        actions = state["actions"]
        decisions = Decisions(clock)
        store = StampedStore(actions.all_cents, ONLINE_BUDGET_CENTS, decisions)
        env = envsim.CheckinEnv(state["env_config"], actions)
        policy = bcq.BcqPolicy(state["agent"])
        decisions.begin()
        try:
            report = clock.call(evaluation.simulate_online, env, policy, store, self.size.days,
                                self.size.arrivals, self.seed)
        except Exception as exc:  # the claim being decided failed
            rep.attempted, rep.failed = len(decisions.gaps) + 1, 1
            rep.errors.append(f"{type(exc).__name__}: {exc}")
            return rep
        rep.claims = report.matched_steps
        rep.attempted = report.matched_steps
        rep.check(len(decisions.gaps) == report.matched_steps,
                  f"{report.matched_steps} claims but {len(decisions.gaps)} decisions")
        lam = store.lambda_snapshot
        rep.check(np.isfinite(lam) and lam >= 0, f"final lambda {lam} not finite and >= 0")
        decisions.record(rep)
        budget = ONLINE_BUDGET_CENTS / 100
        rep.quality = {
            "claims": report.matched_steps,
            "retention": report.retention_rate,
            "mean_cost_units": report.avg_cost_units,
            "budget_overspend_units": max(0.0, report.avg_cost_units - budget),
            "final_lambda": lam,
            "refresh_calls": len(report.lambda_timeline),
            "final_window": len(store),
        }
        return rep


class BatchAlloc:
    """One large assignment: ``solve_and_assign`` on N rows at two budgets."""

    name = "batch_alloc"

    def __init__(self, size: Size, seed: int, workdir: Path):
        self.size, self.seed = size, seed
        self._retention = None

    def setup(self, clock: Clock):
        env_config, actions, dataset, agent = _trained_agent(self.size, clock)
        clock.lap()
        logged = [tr.state for tr in core.flatten(dataset)]
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 2)))
        rows = rng.integers(0, len(logged), size=self.size.batch_rows)
        claim = np.array([s.bonuses_collected for s in logged])[rows]
        eligible = np.zeros((env_config.bonuses_per_cycle, actions.size), dtype=bool)
        for k in range(env_config.bonuses_per_cycle):
            eligible[k, core.day_mask_indices(actions, k)] = True
        q = agent.q_net.forward(bcq.states_to_inputs(logged)[rows])
        q = np.where(eligible[claim], q, np.nan)
        problems = [allocator.AllocationProblem(q, actions.all_cents, b)
                    for b in BATCH_BUDGETS_CENTS]
        return {"env": envsim.CheckinEnv(env_config, actions), "logged": logged,
                "rows": rows, "problems": problems, "transitions": len(logged)}

    @staticmethod
    def identity(state) -> str:
        return _sha(state["problems"][0].q)

    def rep(self, state, clock: Clock) -> Rep:
        rep = Rep()
        results, solve_s, solve_segments = [], [], []
        for problem in state["problems"]:
            rep.attempted += 1
            before = clock.segments[-1]
            try:
                result = clock.call(allocator.solve_and_assign, problem)
            except Exception as exc:  # a solve that raises is a failed operation
                rep.failed += 1
                rep.errors.append(f"budget {problem.budget_cents}: {type(exc).__name__}: {exc}")
                continue
            finally:
                solve_s.append(clock.segments[-1] - before)
                solve_segments.append(clock.segment)
                clock.lap()
            chosen = np.asarray(result.chosen)
            budget_ok = result.total_cost_cents <= problem.n * problem.budget_cents
            finite_ok = chosen.size == problem.n and bool(
                np.isfinite(problem.q[np.arange(problem.n), chosen]).all())
            rep.check(budget_ok and finite_ok,
                      f"budget {problem.budget_cents}: cost {result.total_cost_cents} "
                      f"over {problem.n * problem.budget_cents} or a chosen Q is not finite")
            results.append((problem, result, chosen))
        if rep.failed:
            return rep
        n = sum(p.n for p, _, _ in results)
        rep.claims = n
        # Every row of a batch waits for its batch's whole solve, and the
        # batches are of equal size: one latency per batch weighs its rows.
        rep.latencies_s = np.asarray(solve_s)
        rep.decision_segments = np.asarray(solve_segments, dtype=int)
        if self._retention is None:
            self._retention = self._expected_retention(state, results)
        rep.quality = {
            "rows": state["problems"][0].n,
            **{f"budget_{p.budget_cents}": {
                "lambda": r.lam, "total_cost_cents": r.total_cost_cents,
                "objective_per_customer": r.objective / p.n, "chosen": _sha(c)}
               for p, r, c in results},
            "retention": self._retention,
            "mean_cost_units": sum(r.total_cost_cents for _, r, _ in results) / n / 100,
        }
        return rep

    @staticmethod
    def _expected_retention(state, results) -> float:
        """Mean ground-truth retention probability of the chosen bonuses.

        A logged state's segment is its segment proxy (the argmax of the noisy
        one-hot features, as the behaviour policy reads it) and its previous
        bonus is the one whose cost the state records.
        """
        env = state["env"]
        n_seg = env.config.n_segments
        cost_index = {c: j for j, c in enumerate(env.actions.all_cents)}
        cache: dict = {}
        total = 0.0
        for _, _, chosen in results:
            for t, a in zip(state["rows"].tolist(), chosen.tolist()):
                key = (t, a)
                if key not in cache:
                    s = state["logged"][t]
                    segment = int(np.argmax(s.features[:n_seg]))
                    last = (cost_index[core.cents(s.features[n_seg])]
                            if s.bonuses_collected else -1)
                    cache[key] = env.retention_probability(
                        segment, a, streak=s.bonuses_collected, last_action=last)
                total += cache[key]
        return total / sum(len(c) for _, _, c in results)


WORKLOADS = {w.name: w for w in (Offline, Online, BatchAlloc)}
