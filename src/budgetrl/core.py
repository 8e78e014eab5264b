"""Shared data model: bonus menus, states, logged trajectories, hyperparameters.

Money is stored as integer hundredths of a currency unit (``*_cents``) so
budget arithmetic stays exact; values are converted to floats only inside
numeric kernels.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

# The check-in cycle: up to four claims (three normal, then one super) within seven days.
CLAIMS_PER_CYCLE = 4
CYCLE_DAYS = 7

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "trajlog-v1"


def cents(units: float) -> int:
    """Convert a currency amount like 0.87 to integer cents (87)."""
    return int(round(units * 100))


def units(amount_cents: int) -> float:
    return amount_cents / 100.0


@dataclass(frozen=True)
class ActionSet:
    """Discrete bonus menu: normal bonuses (claims 1-3) then super bonuses (claim 4).

    The action index space is the concatenation ``normal + super``; index j
    costs ``all_cents[j]``.
    """

    normal_cents: tuple[int, ...]
    super_cents: tuple[int, ...]

    def __post_init__(self):
        if len(self.normal_cents) + len(self.super_cents) < 2:
            raise ValueError("action set needs at least 2 actions")
        for name, costs in (("normal", self.normal_cents), ("super", self.super_cents)):
            if any(b <= a for a, b in zip(costs, costs[1:])):
                raise ValueError(f"{name} costs must be strictly increasing: {costs}")
        if self.normal_cents and self.super_cents:
            if min(self.super_cents) <= max(self.normal_cents):
                raise ValueError("every super bonus must exceed every normal bonus")

    @classmethod
    def default(cls) -> "ActionSet":
        """The production 12-value menu (10 normal + 2 super), in cents."""
        return cls(
            normal_cents=(65, 67, 71, 75, 79, 83, 87, 94, 101, 105),
            super_cents=(172, 182),
        )

    @property
    def all_cents(self) -> tuple[int, ...]:
        return self.normal_cents + self.super_cents

    @property
    def size(self) -> int:
        return len(self.normal_cents) + len(self.super_cents)

    @property
    def n_normal(self) -> int:
        return len(self.normal_cents)

    def cost_cents(self, action_index: int) -> int:
        return self.all_cents[action_index]

    def cost_units(self, action_index: int) -> float:
        return units(self.all_cents[action_index])

    def units_array(self) -> np.ndarray:
        return np.asarray(self.all_cents, dtype=float) / 100.0

    def is_super(self, action_index: int) -> bool:
        return action_index >= self.n_normal

    def to_dict(self) -> dict:
        return {"normal_cents": list(self.normal_cents), "super_cents": list(self.super_cents)}

    @classmethod
    def from_dict(cls, d: dict) -> "ActionSet":
        return cls(tuple(d["normal_cents"]), tuple(d["super_cents"]))


def day_mask_indices(actions: ActionSet, bonuses_collected: int) -> np.ndarray:
    """Eligible action indices for the next claim.

    Normal bonuses on claims 1..3, super bonuses on the final claim of the cycle.
    """
    if bonuses_collected < 0 or bonuses_collected >= CLAIMS_PER_CYCLE:
        raise ValueError(f"no claim available at bonuses_collected={bonuses_collected}")
    if bonuses_collected == CLAIMS_PER_CYCLE - 1:
        return np.arange(actions.n_normal, actions.size)
    return np.arange(actions.n_normal)


def claim_masks(actions: ActionSet, bonuses_collected) -> np.ndarray:
    """Boolean form of ``day_mask_indices``, one row over the menu per claim
    count: shape (M,) for a single count, (N, M) for N counts."""
    b = np.asarray(bonuses_collected)
    lo, hi = (int(b), int(b)) if b.ndim == 0 else (b.min(initial=0), b.max(initial=0))
    if not 0 <= lo <= hi < CLAIMS_PER_CYCLE:
        raise ValueError(f"no claim available at bonuses_collected={bonuses_collected}")
    return _claim_table(actions)[b]


@functools.lru_cache(maxsize=64)
def _claim_table(actions: ActionSet) -> np.ndarray:
    table = np.zeros((CLAIMS_PER_CYCLE, actions.size), dtype=bool)
    for b in range(CLAIMS_PER_CYCLE):
        table[b, day_mask_indices(actions, b)] = True
    table.flags.writeable = False
    return table


def argmax_cheapest(scores: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """Argmax over the last axis, ties broken toward the cheaper action, then
    the lower index: one argmax over the columns in stable cost order.

    Give ineligible entries a score of -inf; a row with no finite score takes
    its cheapest action. Scores must not contain NaN.
    """
    order = _cost_order(tuple(np.asarray(costs).tolist()))
    if order is None:  # columns already in cost order, as on every menu
        return scores.argmax(axis=-1)
    return order[np.take(scores, order, axis=-1).argmax(axis=-1)]


@functools.lru_cache(maxsize=64)
def _cost_order(costs: tuple) -> np.ndarray | None:
    """Column indices in stable cost order, or None when that is the identity."""
    order = np.argsort(costs, kind="stable")
    order.flags.writeable = False
    return None if (np.diff(order) > 0).all() else order


@dataclass(frozen=True)
class StateVector:
    """Observable user state: opaque feature vector plus cycle counters."""

    features: tuple[float, ...]
    day_in_cycle: int
    bonuses_collected: int

    def to_array(self) -> np.ndarray:
        return np.asarray(self.features, dtype=float)


@dataclass(frozen=True)
class Transition:
    user_id: int
    t: int
    state: StateVector
    action_index: int
    reward: int
    cost_cents: int
    next_state: StateVector | None
    done: bool


@dataclass(frozen=True)
class Trajectory:
    transitions: tuple[Transition, ...]

    def __len__(self) -> int:
        return len(self.transitions)

    def __iter__(self):
        return iter(self.transitions)

    def total_reward(self) -> int:
        return sum(tr.reward for tr in self.transitions)

    def total_cost_cents(self) -> int:
        return sum(tr.cost_cents for tr in self.transitions)


@dataclass(frozen=True)
class HyperParams:
    """Training knobs shared by the Q-learner, behavior model, and baselines.

    ``seed`` fully determines training given a dataset.
    """

    gamma: float = 1.0
    xi: float = 0.3
    kappa: float = 1.0
    learning_rate: float = 0.05
    batch_size: int = 64
    target_sync_interval: int = 100
    training_steps: int = 3000
    seed: int = 0
    hidden_sizes: tuple[int, ...] = (128, 128)
    optimizer: str = "sgd"

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if not 0.0 <= self.xi <= 1.0:
            raise ValueError("xi must be in [0, 1]")
        if self.kappa <= 0:
            raise ValueError("kappa must be > 0")
        if self.batch_size < 1 or self.training_steps < 0:
            raise ValueError("batch_size >= 1 and training_steps >= 0 required")
        if self.target_sync_interval < 1:
            raise ValueError("target_sync_interval must be >= 1")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")

    def replace(self, **kw) -> "HyperParams":
        d = asdict(self)
        d.update(kw)
        d["hidden_sizes"] = tuple(d["hidden_sizes"])
        return HyperParams(**d)


# ---------------------------------------------------------------------------
# Dataset validation


def validate_dataset(dataset: Sequence[Trajectory], actions: ActionSet, d: int) -> list[str]:
    """Check every data-model invariant; returns a list of violations (empty = valid).

    Violations identify records by user_id and step so the report is
    independent of trajectory ordering.
    """
    violations: list[str] = []
    for traj in dataset:
        if len(traj) == 0:
            violations.append("empty trajectory")
            continue
        uid = traj.transitions[0].user_id
        if len(traj) > CLAIMS_PER_CYCLE:
            violations.append(
                f"user {uid}: trajectory exceeds T={CLAIMS_PER_CYCLE} (length {len(traj)})")
        n_super = 0
        for i, tr in enumerate(traj.transitions):
            where = f"user {tr.user_id} t={tr.t}"
            if tr.user_id != uid:
                violations.append(f"{where}: user_id changes within trajectory")
            if tr.t != i + 1:
                violations.append(f"{where}: time step out of order (expected {i + 1})")
            if len(tr.state.features) != d:
                violations.append(f"{where}: feature length {len(tr.state.features)} != d={d}")
            if not 1 <= tr.state.day_in_cycle <= CYCLE_DAYS:
                violations.append(f"{where}: day_in_cycle {tr.state.day_in_cycle} out of range")
            if not 0 <= tr.state.bonuses_collected < CLAIMS_PER_CYCLE:
                violations.append(f"{where}: bonuses_collected {tr.state.bonuses_collected} out of range")
            if not 0 <= tr.action_index < actions.size:
                violations.append(f"{where}: action index {tr.action_index} out of range")
                continue
            if tr.reward not in (0, 1):
                violations.append(f"{where}: reward {tr.reward} not in {{0, 1}}")
            if tr.cost_cents != actions.cost_cents(tr.action_index):
                violations.append(
                    f"{where}: cost mismatch ({tr.cost_cents} != "
                    f"{actions.cost_cents(tr.action_index)} for action {tr.action_index})")
            if actions.is_super(tr.action_index):
                n_super += 1
                if tr.state.bonuses_collected != CLAIMS_PER_CYCLE - 1:
                    violations.append(f"{where}: super action before claim {CLAIMS_PER_CYCLE}")
            elif tr.state.bonuses_collected == CLAIMS_PER_CYCLE - 1:
                violations.append(f"{where}: normal action at the super claim")
            if tr.done != (tr.next_state is None):
                violations.append(f"{where}: done flag inconsistent with terminal marker")
            if i + 1 < len(traj.transitions):
                nxt = traj.transitions[i + 1]
                if tr.done:
                    violations.append(f"{where}: transition after done")
                elif tr.next_state != nxt.state:
                    violations.append(f"{where}: next_state does not chain to following state")
        if n_super > 1:
            violations.append(f"user {uid}: more than one super action in trajectory")
        if not traj.transitions[-1].done:
            violations.append(f"user {uid}: trajectory does not end with done")
    return violations


# ---------------------------------------------------------------------------
# JSONL trajectory log
#
# One transition per line; ``next_state`` is implicit (the following line's
# state, or terminal when done). A dataset is a directory of append-only
# ``*.jsonl`` shards plus a manifest recording d, T, and the action set.


def _transition_record(tr: Transition) -> dict:
    return {
        "user_id": tr.user_id,
        "t": tr.t,
        "state": list(tr.state.features),
        "day_in_cycle": tr.state.day_in_cycle,
        "bonuses_collected": tr.state.bonuses_collected,
        "action_index": tr.action_index,
        "reward": tr.reward,
        "cost_cents": tr.cost_cents,
        "done": tr.done,
    }


def write_dataset(path: str | Path, dataset: Iterable[Trajectory], actions: ActionSet,
                  d: int) -> Path:
    """Append trajectories to a dataset directory, creating it if needed.

    Each call writes a fresh shard; the first call then writes the manifest,
    which later appends must match. Each file is written under a hidden
    temporary name and moved into place when complete, so a failed write
    adds nothing that ``load_dataset`` reads.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": MANIFEST_FORMAT,
        "feature_dim": d,
        "max_steps": CLAIMS_PER_CYCLE,
        "actions": actions.to_dict(),
    }
    manifest_path = path / MANIFEST_NAME
    new_dataset = not manifest_path.exists()
    if not new_dataset and json.loads(manifest_path.read_text()) != manifest:
        raise ValueError(f"dataset at {path} has a conflicting manifest")

    shard = path / f"data-{len(list(path.glob('data-*.jsonl'))):05d}.jsonl"

    def write_records(f):
        for traj in dataset:
            for tr in traj.transitions:
                f.write(json.dumps(_transition_record(tr), sort_keys=True) + "\n")

    _write_complete(shard, write_records)
    if new_dataset:
        _write_complete(manifest_path,
                        lambda f: f.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n"))
    return shard


def _write_complete(target: Path, write) -> None:
    """Run ``write(file)`` on a hidden temporary file beside ``target``, then
    move it into place; on any error the temporary file is removed."""
    tmp = target.with_name(f".{target.name}.tmp")
    try:
        with tmp.open("w") as f:
            write(f)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_manifest(path: str | Path) -> dict:
    manifest = json.loads((Path(path) / MANIFEST_NAME).read_text())
    if manifest.get("format") != MANIFEST_FORMAT:
        raise ValueError(f"unsupported dataset format {manifest.get('format')!r}")
    if manifest.get("max_steps") != CLAIMS_PER_CYCLE:
        raise ValueError(f"dataset max_steps {manifest.get('max_steps')!r} != {CLAIMS_PER_CYCLE}")
    return manifest


def load_dataset(path: str | Path) -> tuple[list[Trajectory], dict]:
    """Load all shards of a dataset directory; returns (trajectories, manifest)."""
    path = Path(path)
    manifest = read_manifest(path)

    trajectories: list[Trajectory] = []
    pending: list[dict] = []

    def flush():
        if not pending:
            return
        transitions = []
        for i, rec in enumerate(pending):
            state = StateVector(tuple(rec["state"]), rec["day_in_cycle"], rec["bonuses_collected"])
            nxt = None
            if not rec["done"] and i + 1 < len(pending):
                nrec = pending[i + 1]
                nxt = StateVector(tuple(nrec["state"]), nrec["day_in_cycle"], nrec["bonuses_collected"])
            transitions.append(Transition(
                user_id=rec["user_id"], t=rec["t"], state=state,
                action_index=rec["action_index"], reward=rec["reward"],
                cost_cents=rec["cost_cents"], next_state=nxt, done=rec["done"]))
        trajectories.append(Trajectory(tuple(transitions)))
        pending.clear()

    for shard in sorted(path.glob("data-*.jsonl")):
        with shard.open() as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                if pending and (rec["user_id"] != pending[0]["user_id"] or rec["t"] != len(pending) + 1):
                    flush()
                pending.append(rec)
                if rec["done"]:
                    flush()
        flush()  # shard boundary also ends a trajectory
    return trajectories, manifest


def flatten(dataset: Sequence[Trajectory]) -> list[Transition]:
    return [tr for traj in dataset for tr in traj.transitions]
