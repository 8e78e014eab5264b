"""Command-line pipeline: data generation, training, allocation, evaluation,
online simulation, and an end-to-end chain.

Every run writes a resolved-config snapshot next to its outputs so an
experiment is reproducible from the snapshot plus the seed alone. Paths
inside snapshots are stored relative to the output location to keep reruns
byte-identical. Every file is written whole or not at all: it is written under
a hidden temporary name and moved into place when complete, so a run that
fails leaves no partial file behind.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .allocator import AllocationProblem, WindowStore, _checked_rows, solve_and_assign
from .baselines import (
    CheapestPolicy,
    ExpertPolicy,
    RewardModel,
    UniformRandomPolicy,
    train_reward_model,
)
from .bcq import BcqAgent, BcqPolicy, bcq_train
from .core import (
    MANIFEST_NAME,
    ActionSet,
    HyperParams,
    _write_complete,
    cents,
    load_dataset,
    units,
    validate_dataset,
    write_csv,
    write_dataset,
    write_json,
)
from .envsim import CheckinEnv, config_to_dict, default_config, generate_dataset, load_config
from .evaluation import check_run_length, match_records, offline_report, simulate_online
from .nets import TrainingDivergedError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="budgetrl",
        description="Cash-bonus promotion pipeline: offline Q-learning plus a "
                    "budgeted Lagrangian allocator.")
    parser.add_argument("--version", action="version", version=f"budgetrl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-data", help="simulate logged trajectories under the behavior policy")
    p.add_argument("--config", help="env/behavior/action config JSON (defaults built in)")
    p.add_argument("--n-users", type=int, default=2000, help="number of user cycles to simulate")
    p.add_argument("--seed", type=int, default=0, help="master seed for per-user streams")
    p.add_argument("--out", required=True, help="dataset directory to create or append to")

    p = sub.add_parser("train", help="train the constrained Q-agent or the supervised reward model")
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--policy", choices=["bcq", "lr"], default="bcq", help="model family to train")
    h = HyperParams  # every training default is the HyperParams one
    p.add_argument("--xi", type=float, default=h.xi, help="behavior-probability ratio threshold")
    p.add_argument("--gamma", type=float, default=h.gamma, help="discount factor")
    p.add_argument("--kappa", type=float, default=h.kappa, help="Huber loss threshold")
    p.add_argument("--steps", type=int, default=h.training_steps, help="training steps")
    p.add_argument("--batch-size", type=int, default=h.batch_size, help="mini-batch size")
    p.add_argument("--lr", type=float, default=h.learning_rate, help="learning rate")
    p.add_argument("--optimizer", choices=["sgd", "adam"], default=h.optimizer, help="update rule")
    p.add_argument("--hidden", default=",".join(map(str, h.hidden_sizes)),
                   help="comma-separated hidden layer widths")
    p.add_argument("--seed", type=int, default=h.seed, help="training seed")
    p.add_argument("--out", required=True, help="output model JSON path")
    p.add_argument("--log", help="training-log CSV path (step, loss, behavior agreement)")

    p = sub.add_parser("allocate", help="budget-constrained assignment, batch or stream")
    p.add_argument("--budget", type=float, required=True, help="average budget per customer, currency units")
    p.add_argument("--q-matrix",
                   help="batch mode: CSV of value rows, header = non-decreasing action costs")
    p.add_argument("--stream", help="stream mode: JSONL of {ts, q} rows, ts non-decreasing")
    p.add_argument("--costs",
                   help="stream mode: comma-separated non-decreasing action costs in units")
    p.add_argument("--window-hours", type=float, default=24.0, help="sliding window span")
    p.add_argument("--refresh-minutes", type=float, default=10.0, help="multiplier refresh period")
    p.add_argument("--out", required=True, help="assignment CSV (batch) or decisions JSONL (stream)")
    p.add_argument("--lambda-timeline", help="stream mode: CSV of multiplier snapshots")

    p = sub.add_parser("evaluate", help="matched-record offline evaluation on logged data")
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--policy", choices=["bcq", "lr-greedy", "expert"], default="bcq",
                   help="policy to score against the log")
    p.add_argument("--model", help="model JSON (bcq or lr policies)")
    p.add_argument("--config", help="config JSON (expert policy table)")
    p.add_argument("--xi", type=float, help="override the agent's trained xi")
    p.add_argument("--full-trajectory", action="store_true",
                   help="drop partially matching trajectories instead of keeping prefixes")
    p.add_argument("--out", required=True, help="report JSON path")

    p = sub.add_parser("simulate", help="virtual-time online run with budget control")
    p.add_argument("--config", help="env/behavior/action config JSON")
    p.add_argument("--policy", choices=["bcq", "lr-lp", "lr-greedy", "expert", "cheapest", "random"],
                   default="bcq", help="decision policy to deploy")
    p.add_argument("--model", help="model JSON (bcq / lr policies)")
    p.add_argument("--budget", type=float, default=0.87, help="average budget per customer per day")
    p.add_argument("--days", type=int, default=7, help="virtual days to run")
    p.add_argument("--arrivals", type=int, default=150, help="new users per day")
    p.add_argument("--seed", type=int, default=0, help="simulation seed")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--timeline", help="per-day CSV (day, retention, avg_cost, lambda)")

    p = sub.add_parser("pipeline", help="generate-data, train, simulate, evaluate with one seed")
    p.add_argument("--workdir", required=True, help="directory for all artifacts")
    p.add_argument("--config", help="env/behavior/action config JSON")
    p.add_argument("--seed", type=int, default=0, help="seed for every stage")
    p.add_argument("--n-users", type=int, default=1500, help="logged cycles to generate")
    p.add_argument("--steps", type=int, default=2000, help="training steps")
    p.add_argument("--xi", type=float, default=h.xi, help="behavior-probability ratio threshold")
    p.add_argument("--budget", type=float, default=0.87, help="average budget per customer per day")
    p.add_argument("--days", type=int, default=7, help="virtual days to simulate")
    p.add_argument("--arrivals", type=int, default=120, help="new users per day")
    return parser


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _require_file(path: str | None, what: str) -> Path:
    if not path:
        raise FileNotFoundError(f"{what} path is required")
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"{what} not found: {p}")
    return p


LOG_FIELDS = ["step", "loss", "behavior_agreement"]
TIMELINE_FIELDS = ["day", "claims", "retention", "avg_cost_units", "lam"]


def _snapshot(out_path: Path, command: str, resolved: dict) -> None:
    payload = {"command": command, "resolved": resolved}
    write_json(out_path.with_name(out_path.name + ".config.json"), payload)


def _load_config_arg(path: str | None):
    if path is None:
        return default_config()
    return load_config(_require_file(path, "config"))


def _hyper_from_args(args) -> HyperParams:
    hidden = tuple(int(w) for w in str(args.hidden).split(",") if w)
    return HyperParams(gamma=args.gamma, xi=args.xi, kappa=args.kappa,
                       learning_rate=args.lr, batch_size=args.batch_size,
                       training_steps=args.steps, seed=args.seed,
                       hidden_sizes=hidden, optimizer=args.optimizer)


def _load_logs(path: str) -> tuple[Path, list, ActionSet]:
    """The dataset directory at ``path``, its trajectories and its action set, once
    the records pass ``validate_dataset``; else a ValueError naming the first violation."""
    dataset_dir = _require_file(path, "dataset")
    dataset, manifest = load_dataset(dataset_dir)
    actions = ActionSet.from_dict(manifest["actions"])
    violations = validate_dataset(dataset, actions, manifest["feature_dim"])
    if violations:
        raise ValueError(f"dataset {dataset_dir} fails validation: {violations[0]}")
    return dataset_dir, dataset, actions


def _write_logs(args, config, out: Path):
    """Stage of ``generate-data`` and ``pipeline``: simulate ``args.n_users`` logged
    cycles, validate them and write them to ``out``; returns the env, the cycles and
    the shard that holds them.
    Users appended to a dataset are numbered after its highest user id."""
    env_config, behavior, actions = config
    env = CheckinEnv(env_config, actions)
    dataset = generate_dataset(env, behavior, args.n_users, args.seed)
    if (out / MANIFEST_NAME).exists():  # a loaded trajectory holds one user
        first = 1 + max((traj[0].user_id for traj in load_dataset(out)[0]), default=-1)
        dataset = [tuple(replace(tr, user_id=tr.user_id + first) for tr in traj)
                   for traj in dataset]
    violations = validate_dataset(dataset, actions, env_config.feature_dim)
    if violations:
        raise ValueError(f"generated dataset failed validation: {violations[:3]}")
    shard = write_dataset(out, dataset, actions, env_config.feature_dim)
    return env, dataset, shard


def _run_simulation(args, env, policy, budgeted: bool, out: Path, timeline):
    """Stage of ``simulate`` and ``pipeline``: run the simulation, through a window
    store when ``budgeted``, and write its report, with the count of refreshes
    that no multiplier fitted into the budget, and (if given) per-day ``timeline``."""
    store = WindowStore(env.actions.all_cents, cents(args.budget)) if budgeted else None
    report = simulate_online(env, policy, store, args.days, args.arrivals, args.seed)
    write_json(out, {**asdict(report),
                     "infeasible_refreshes": store.infeasible_refreshes if budgeted else None})
    if timeline:
        write_csv(timeline, TIMELINE_FIELDS, report.per_day)
    return report


def _check_n_users(n_users: int) -> None:
    """``generate-data`` and ``pipeline`` log at least one user: an empty log
    cannot be trained on. Checked before any file is written."""
    if n_users < 1:
        raise ValueError(f"n_users must be >= 1, not {n_users}")


def cmd_generate_data(args) -> int:
    _check_n_users(args.n_users)
    config = _load_config_arg(args.config)
    out = Path(args.out)
    _, dataset, shard = _write_logs(args, config, out)
    _snapshot(shard, "generate-data", {
        "n_users": args.n_users, "seed": args.seed, "config": config_to_dict(*config),
    })
    print(f"wrote {len(dataset)} trajectories to {out}")
    return 0


def cmd_train(args) -> int:
    dataset_dir, dataset, actions = _load_logs(args.dataset)
    hyper = _hyper_from_args(args)
    out = Path(args.out)

    if args.policy == "bcq":
        agent = bcq_train(dataset, actions, hyper)
        agent.save(out)
        if args.log:
            write_csv(args.log, LOG_FIELDS, agent.training_log)
    else:
        model = train_reward_model(dataset, actions, hyper)
        model.save(out)

    _snapshot(out, "train", {"policy": args.policy, "dataset": dataset_dir.name,
                             "hyper": hyper.to_dict()})
    print(f"saved {args.policy} model to {out}")
    return 0


def _read_q_matrix_csv(path: Path):
    with path.open(newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path} is empty; its first row must hold the action costs")
        costs_cents = tuple(cents(float(h)) for h in header)
        rows = [[float(v) if v.strip() else np.nan for v in row] for row in reader]
    return np.asarray(rows, dtype=float), costs_cents


def _stream_row(line: str, n: int, m: int) -> tuple[float, np.ndarray]:
    """The ``ts`` and Q row over ``m`` actions of stream line ``n``, where a null Q
    value marks an ineligible action; a line of any other shape, or a row that
    ``_checked_rows`` refuses, is a ValueError naming the line."""
    try:
        rec = json.loads(line)
        ts, q = rec["ts"], rec["q"]
        if not (type(ts) in (int, float) and np.isfinite(ts) and type(q) is list):
            raise TypeError
        q = np.array([np.nan if v is None else float(v) for v in q])
    except (KeyError, TypeError, ValueError, OverflowError):  # an int past the float range
        raise ValueError(f"stream line {n} is not an object with a numeric 'ts' and a "
                         f"list of numbers 'q': {line}") from None
    try:
        return float(ts), _checked_rows(q, m, 1)
    except ValueError as exc:
        raise ValueError(f"stream line {n}: {exc}") from None


# Stream rows the window store admits in one batch. One-row admission pays a
# whole `_row_cache` call per row; from about 64 rows a batch's cost no longer shows.
_STREAM_CHUNK = 256


def _stream_chunks(f, m: int):
    """The ``(ts, Q row)`` of the stream's non-blank lines, parsed and checked
    line by line, as lists of up to ``_STREAM_CHUNK``. A ts below the previous
    line's is a ValueError naming the line: the window evicts from its oldest
    row on, so a late row would outlive its span."""
    chunk = []
    last = -np.inf
    for n, line in enumerate(f, 1):
        if line.strip():
            ts, q = _stream_row(line.strip(), n, m)
            if ts < last:
                raise ValueError(f"stream line {n}: ts {ts!r} is before the previous line's "
                                 f"{last!r}; the stream must be in time order")
            last = ts
            chunk.append((ts, q))
            if len(chunk) == _STREAM_CHUNK:
                yield chunk
                chunk = []
    if chunk:
        yield chunk


def cmd_allocate(args) -> int:
    if (args.q_matrix is None) == (args.stream is None):
        return _fail("allocate needs exactly one of --q-matrix (batch) or --stream")
    out = Path(args.out)
    budget_cents = cents(args.budget)

    if args.q_matrix:
        q, costs_cents = _read_q_matrix_csv(_require_file(args.q_matrix, "q-matrix"))
        problem = AllocationProblem(q, costs_cents, budget_cents)
        result = solve_and_assign(problem)
        write_csv(out, ["customer", "action_index", "cost_units", "q_value"], (
            {"customer": i, "action_index": a, "cost_units": f"{units(costs_cents[a]):.2f}",
             "q_value": repr(float(q[i, a]))} for i, a in enumerate(result.chosen)))
        summary = {
            "lambda": result.lam,
            "objective": result.objective,
            "total_cost_units": units(result.total_cost_cents),
            "mean_cost_units": units(result.total_cost_cents) / problem.n,
            "budget_units": args.budget,
            "customers": problem.n,
        }
        write_json(out.with_suffix(".summary.json"), summary)
        _snapshot(out, "allocate", {"mode": "batch", "budget_units": args.budget})
        print(f"assigned {problem.n} customers: lambda={result.lam:.6g} "
              f"mean cost={summary['mean_cost_units']:.4f}")
        return 0

    if not args.costs:
        return _fail("stream mode needs --costs (comma-separated units)")
    costs_cents = tuple(cents(float(c)) for c in args.costs.split(","))
    store = WindowStore(costs_cents, budget_cents,
                        window_span=args.window_hours * 3600.0,
                        refresh_period=args.refresh_minutes * 60.0)
    stream = _require_file(args.stream, "stream")

    def decide(f_out):
        with stream.open() as f_in:
            for chunk in _stream_chunks(f_in, len(costs_cents)):
                rows = store.admit(np.array([q for _, q in chunk]))
                for (ts, _), row in zip(chunk, rows):
                    store.advance(ts)
                    action = store.allocate_online(row, ts)
                    f_out.write(json.dumps({"ts": ts, "action_index": action,
                                            "cost_units": units(costs_cents[action]),
                                            "lam": store.lambda_snapshot}) + "\n")

    # A bad row fails the run and leaves no partial decisions file.
    _write_complete(out, decide)
    if args.lambda_timeline:
        write_csv(args.lambda_timeline, ["ts", "lam", "window", "infeasible"], store.timeline)
    _snapshot(out, "allocate", {"mode": "stream", "budget_units": args.budget,
                                "window_hours": args.window_hours,
                                "refresh_minutes": args.refresh_minutes})
    print(f"processed stream; final lambda={store.lambda_snapshot:.6g}")
    return 0


def _policy_from_args(args, actions, env_config, behavior):
    if args.policy == "bcq":
        agent = BcqAgent.load(_require_file(args.model, "model"))
        return BcqPolicy(agent, xi=getattr(args, "xi", None))
    if args.policy in ("lr-greedy", "lr-lp"):
        return RewardModel.load(_require_file(args.model, "model"))
    if args.policy == "expert":
        return ExpertPolicy(table=behavior.table, n_segments=env_config.n_segments,
                            actions=actions)
    if args.policy == "cheapest":
        return CheapestPolicy(actions)
    if args.policy == "random":
        return UniformRandomPolicy(actions, seed=args.seed)
    raise ValueError(f"unknown policy {args.policy!r}")


def cmd_evaluate(args) -> int:
    dataset_dir, dataset, actions = _load_logs(args.dataset)
    env_config, behavior, _ = _load_config_arg(args.config)
    policy = _policy_from_args(args, actions, env_config, behavior)
    matched = match_records(dataset, policy, full_trajectory=args.full_trajectory)
    if matched.matched_steps == 0:
        return _fail("policy matched no logged records; metrics undefined")
    report = offline_report(matched)
    out = Path(args.out)
    write_json(out, {**asdict(report), "match_rate": matched.match_rate,
                     "total_trajectories": matched.total_trajectories})
    _snapshot(out, "evaluate", {"policy": args.policy, "dataset": dataset_dir.name,
                                "full_trajectory": args.full_trajectory})
    print(f"matched {matched.matched_trajectories}/{matched.total_trajectories} trajectories: "
          f"retention={report.retention_rate:.4f} avg_cost={report.avg_cost_units:.4f}")
    return 0


def cmd_simulate(args) -> int:
    cents(args.budget)  # a finite budget, even for a policy that does not spend it
    env_config, behavior, actions = _load_config_arg(args.config)
    env = CheckinEnv(env_config, actions)
    policy = _policy_from_args(args, actions, env_config, behavior)
    out = Path(args.out)
    report = _run_simulation(args, env, policy, args.policy in ("bcq", "lr-lp"), out,
                             args.timeline)
    _snapshot(out, "simulate", {
        "policy": args.policy, "budget_units": args.budget, "days": args.days,
        "arrivals": args.arrivals, "seed": args.seed,
        "config": config_to_dict(env_config, behavior, actions),
    })
    print(f"simulated {args.days} days: retention={report.retention_rate:.4f} "
          f"avg_cost={report.avg_cost_units:.4f}")
    return 0


def cmd_pipeline(args) -> int:
    # the run's settings and the workdir, checked before any file is written
    cents(args.budget)
    check_run_length(args.days, args.arrivals)
    _check_n_users(args.n_users)
    hyper = HyperParams(xi=args.xi, training_steps=args.steps, seed=args.seed,
                        hidden_sizes=(64, 64), learning_rate=0.01, optimizer="adam")
    workdir = Path(args.workdir)
    if (workdir / "dataset" / MANIFEST_NAME).exists():  # an append would mix two runs' logs
        raise ValueError(f"{workdir / 'dataset'} already holds a dataset; "
                         f"give pipeline a new --workdir")
    config = _load_config_arg(args.config)
    env, dataset, _ = _write_logs(args, config, workdir / "dataset")
    agent = bcq_train(dataset, env.actions, hyper)
    agent.save(workdir / "model.json")
    write_csv(workdir / "training_log.csv", LOG_FIELDS, agent.training_log)
    sim_report = _run_simulation(args, env, BcqPolicy(agent), True,
                                 workdir / "simulate_report.json", workdir / "timeline.csv")

    matched = match_records(dataset, BcqPolicy(agent))
    eval_payload = ({**asdict(offline_report(matched)), "match_rate": matched.match_rate}
                    if matched.matched_steps else {"matched_steps": 0})
    write_json(workdir / "eval_report.json", eval_payload)

    write_json(workdir / "run_config.json", {
        "command": "pipeline", "seed": args.seed, "n_users": args.n_users,
        "steps": args.steps, "xi": args.xi, "budget_units": args.budget,
        "days": args.days, "arrivals": args.arrivals, "config": config_to_dict(*config),
        "artifacts": {"dataset": "dataset", "model": "model.json",
                      "training_log": "training_log.csv",
                      "simulate_report": "simulate_report.json",
                      "timeline": "timeline.csv", "eval_report": "eval_report.json"},
    })
    print(f"pipeline complete: retention={sim_report.retention_rate:.4f} "
          f"avg_cost={sim_report.avg_cost_units:.4f} (budget {args.budget})")
    return 0


COMMANDS = {
    "generate-data": cmd_generate_data,
    "train": cmd_train,
    "allocate": cmd_allocate,
    "evaluate": cmd_evaluate,
    "simulate": cmd_simulate,
    "pipeline": cmd_pipeline,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        return _fail(str(exc))
    except TrainingDivergedError as exc:
        return _fail(f"training diverged: {exc}")
    except (ValueError, KeyError) as exc:
        return _fail(f"invalid input: {exc}")


if __name__ == "__main__":
    sys.exit(main())
