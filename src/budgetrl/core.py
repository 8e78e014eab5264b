"""Shared data model: bonus menus, states, log records, hyperparameters.

A logged trajectory is a plain tuple of its ``Transition`` records, one user's
cycle in time order; ``Trajectory`` names that type and nothing constructs it.
A log holds a ``Transition`` and a ``StateVector`` per record, so both are
slotted: their fields, and no ``__dict__``.

Money is stored as integer hundredths of a currency unit (``*_cents``) so
budget arithmetic stays exact; values are converted to floats only inside
numeric kernels.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import numbers
import operator
import os
from dataclasses import dataclass, asdict, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

# The check-in cycle: up to four claims (three normal, then one super) within seven days.
CLAIMS_PER_CYCLE = 4
CYCLE_DAYS = 7

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "trajlog-v1"


def cents(units: float) -> int:
    """Convert a currency amount like 0.87 to integer cents (87); an amount
    whose cents are not a finite float, or not within 1e-6 of a whole cent
    (0.875), is a ValueError: rounding it would move a budget or a cost."""
    amount = units * 100
    if not math.isfinite(amount):
        raise ValueError(f"a currency amount must be finite, not {units!r}")
    whole = round(amount)
    if abs(amount - whole) > 1e-6:
        raise ValueError(f"a currency amount must be a whole number of cents, not {units!r}")
    return int(whole)


def units(amount_cents: int) -> float:
    return amount_cents / 100.0


@dataclass(frozen=True)
class ActionSet:
    """Discrete bonus menu: normal bonuses (claims 1-3) then super bonuses (claim 4).

    The action index space is the concatenation ``normal + super``; index j
    costs ``all_cents[j]``. Each menu is a non-empty tuple (a list in JSON) of
    integer cents, never bools, in [0, 2**31) and strictly increasing, and
    every super costs more than every normal: claims 1-3 need a normal arm and
    claim 4 a super one. 0 cents is a valid arm that pays no bonus. So index
    order is cost order, and every first-max argmax over a row of actions
    breaks ties toward the cheaper action.

    ``claim_table`` is the read-only (CLAIMS_PER_CYCLE, size) boolean table of
    the actions each claim may take: row b, after b claims, marks the normals
    for the first three claims and the supers for the last. It is the one
    claim rule: ``claim_masks`` and ``day_mask_indices`` (the simulator, the
    baselines, BCQ's filter and Q rows), ``validate_dataset``,
    ``envsim.check_claim_table`` and ``CheckinEnv`` all read it. It and
    ``all_cents`` are built once per menu.
    """

    normal_cents: tuple[int, ...]
    super_cents: tuple[int, ...]

    def __post_init__(self):
        for name in ("normal_cents", "super_cents"):
            costs = getattr(self, name)
            # Below 2**31 cents, int64 sums over 2**32 rows stay exact.
            if not (type(costs) is tuple and costs and all(
                    _is_number(c, numbers.Integral) and 0 <= c < 2 ** 31 for c in costs)):
                raise ValueError(f"{name} must be a non-empty list of integer cents in "
                                 f"[0, 2**31), not {costs!r}")
            if any(b <= a for a, b in zip(costs, costs[1:])):
                raise ValueError(f"{name} must be strictly increasing: {costs}")
        if min(self.super_cents) <= max(self.normal_cents):
            raise ValueError("every super bonus must exceed every normal bonus")

    @classmethod
    def default(cls) -> "ActionSet":
        """The production 12-value menu (10 normal + 2 super), in cents."""
        return cls(
            normal_cents=(65, 67, 71, 75, 79, 83, 87, 94, 101, 105),
            super_cents=(172, 182),
        )

    @functools.cached_property
    def all_cents(self) -> tuple[int, ...]:
        return self.normal_cents + self.super_cents

    @functools.cached_property
    def claim_table(self) -> np.ndarray:
        table = np.zeros((CLAIMS_PER_CYCLE, self.size), dtype=bool)
        table[:-1, :self.n_normal] = True
        table[-1, self.n_normal:] = True
        table.flags.writeable = False
        return table

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

    def to_dict(self) -> dict:
        return {"normal_cents": list(self.normal_cents), "super_cents": list(self.super_cents)}

    @classmethod
    def from_dict(cls, d: dict) -> "ActionSet":
        """The menu of a JSON object that holds both menus, each as a list."""
        names = ("normal_cents", "super_cents")
        checked_keys(d, names, "actions", required=names)
        return cls(*(tuple(checked_list(d[name], name)) for name in names))


def day_mask_indices(actions: ActionSet, bonuses_collected: int) -> np.ndarray:
    """Eligible action indices for the next claim: the index form of ``claim_masks``."""
    return np.flatnonzero(claim_masks(actions, bonuses_collected))


def claim_masks(actions: ActionSet, bonuses_collected) -> np.ndarray:
    """The rows of ``actions.claim_table`` at the claim counts ``bonuses_collected``,
    as a new writable array: shape (M,) for a single count, (N, M) for N counts.
    A plain ``int`` (one state's count) is checked and its row copied without
    making an index array; anything else takes the array path if it makes an
    integer-dtype array (a numpy integer or integer array, a list of ints). A
    bool or a float, scalar or array, is refused: it is not a count, and as an
    index a bool would take the whole table or none of it."""
    one = type(bonuses_collected) is int
    if one:
        b = lo = hi = bonuses_collected
    else:
        b = np.asarray(bonuses_collected)
        lo, hi = (b.min(initial=0), b.max(initial=0)) if b.dtype.kind in "iu" else (-1, -1)
    if not 0 <= lo <= hi < CLAIMS_PER_CYCLE:
        raise ValueError(f"no claim available at bonuses_collected={bonuses_collected}")
    return actions.claim_table[b].copy() if one else actions.claim_table[b]


@dataclass(frozen=True, slots=True)
class StateVector:
    """Observable user state: opaque feature vector plus cycle counters."""

    features: tuple[float, ...]
    day_in_cycle: int
    bonuses_collected: int


@dataclass(frozen=True, slots=True)
class Transition:
    """One log record: a claim's state, bonus and outcome. Its next state is the
    following transition's state, or none when ``done``."""

    user_id: int
    t: int
    state: StateVector
    action_index: int
    reward: int
    cost_cents: int
    done: bool


Trajectory = tuple[Transition, ...]


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
        for name in ("gamma", "xi", "kappa", "learning_rate"):
            _require(self, name, numbers.Real, "a number")
        for name in ("batch_size", "target_sync_interval", "training_steps", "seed"):
            _require(self, name, numbers.Integral, "an integer")
        if type(self.hidden_sizes) is not tuple or not all(
                isinstance(w, numbers.Integral) and not isinstance(w, bool) and w >= 1
                for w in self.hidden_sizes):
            raise ValueError(f"hidden_sizes must be a tuple of positive integers, "
                             f"not {self.hidden_sizes!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if not 0.0 <= self.xi <= 1.0:
            raise ValueError("xi must be in [0, 1]")
        if not self.kappa > 0:
            raise ValueError("kappa must be > 0")
        if not 0.0 < self.learning_rate < float("inf"):
            raise ValueError("learning_rate must be finite and > 0")
        if self.batch_size < 1 or self.training_steps < 0:
            raise ValueError("batch_size >= 1 and training_steps >= 0 required")
        if self.target_sync_interval < 1:
            raise ValueError("target_sync_interval must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")

    def to_dict(self) -> dict:
        """The JSON form: every field, with ``hidden_sizes`` as a list."""
        return {**asdict(self), "hidden_sizes": list(self.hidden_sizes)}


def _is_number(value, kind=numbers.Real) -> bool:
    """Whether ``value`` is a ``kind``; a bool never counts as a number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _require(obj, name: str, kind, what: str) -> None:
    """A ValueError naming field ``name`` of ``obj`` unless it is a ``kind`` (never a bool)."""
    value = getattr(obj, name)
    if not _is_number(value, kind):
        raise ValueError(f"{name} must be {what}, not {value!r}")


def _require_finite(obj, name: str) -> None:
    """A ValueError naming field ``name`` of ``obj`` unless it is a finite real
    number (never a bool); a tuple field must hold only such numbers."""
    value = getattr(obj, name)
    values = value if isinstance(value, tuple) else (value,)
    if not (all(map(_is_number, values)) and _all_finite(values)):
        what = "finite numbers" if values is value else "a finite number"
        raise ValueError(f"{name} must be {what}, not {value!r}")


def checked_object(doc, where: str) -> dict:
    """``doc`` itself, once it is a JSON object; otherwise a ValueError naming ``where``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, not {type(doc).__name__}")
    return doc


def checked_keys(doc, allowed, where: str, required=()) -> dict:
    """``doc`` itself, once it is a JSON object with no key outside ``allowed``
    and every key of ``required``; otherwise a ValueError that names the first
    stray or missing key."""
    checked_object(doc, where)
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {where} key {unknown[0]!r}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ValueError(f"{where} is missing key {missing[0]!r}")
    return doc


def checked_list(value, where: str) -> list:
    """``value`` itself, once it is a JSON list; otherwise a ValueError naming ``where``."""
    if type(value) is not list:
        raise ValueError(f"{where} must be a list, not {value!r}")
    return value


def field_names(cls) -> set[str]:
    """The field names of a dataclass: the keys a file may hold for it."""
    return {f.name for f in fields(cls)}


# ---------------------------------------------------------------------------
# Dataset validation


def _all_finite(values) -> bool:
    try:
        return all(map(math.isfinite, values))
    except (TypeError, OverflowError):  # not a number, or an int past the float range
        return False


def validate_dataset(dataset: Sequence[Trajectory], actions: ActionSet, d: int) -> list[str]:
    """Check every data-model invariant; returns a list of violations (empty = valid).

    Violations identify records by user_id and step so the report is
    independent of trajectory ordering.
    """
    violations: list[str] = []
    table, m = actions.claim_table.tolist(), actions.size

    def flag(tr: Transition, message: str) -> None:
        # a record's violation, named here so that a clean record formats no string
        violations.append(f"user {tr.user_id} t={tr.t}: {message}")

    for traj in dataset:
        if len(traj) == 0:
            violations.append("empty trajectory")
            continue
        uid = traj[0].user_id
        last = len(traj) - 1  # the index of the trajectory's last record
        if len(traj) > CLAIMS_PER_CYCLE:
            violations.append(
                f"user {uid}: trajectory exceeds T={CLAIMS_PER_CYCLE} (length {len(traj)})")
        n_super = 0
        for i, tr in enumerate(traj):
            state, action = tr.state, tr.action_index
            if tr.user_id != uid:
                flag(tr, "user_id changes within trajectory")
            if tr.t != i + 1:
                flag(tr, f"time step out of order (expected {i + 1})")
            features = state.features
            if len(features) != d:
                flag(tr, f"feature length {len(features)} != d={d}")
            if bool in map(type, features) or not _all_finite(features):  # isfinite(True) holds
                k, v = next((k, v) for k, v in enumerate(features)
                            if type(v) is bool or not _all_finite((v,)))
                what = "not a number" if type(v) is bool else "not finite"
                flag(tr, f"feature {k} = {v!r} {what}")
            if not 1 <= state.day_in_cycle <= CYCLE_DAYS:
                flag(tr, f"day_in_cycle {state.day_in_cycle} out of range")
            claim = state.bonuses_collected
            if not 0 <= claim < CLAIMS_PER_CYCLE:
                flag(tr, f"bonuses_collected {claim} out of range")
            elif claim != i:
                flag(tr, f"bonuses_collected {claim} != claims before this step ({i})")
            if not 0 <= action < m:
                flag(tr, f"action index {action} out of range")
                continue
            if tr.reward not in (0, 1):
                flag(tr, f"reward {tr.reward} not in {{0, 1}}")
            if tr.cost_cents != actions.cost_cents(action):
                flag(tr, f"cost mismatch ({tr.cost_cents} != {actions.cost_cents(action)} "
                     f"for action {action})")
            if 0 <= claim < CLAIMS_PER_CYCLE and not table[claim][action]:
                flag(tr, f"action {action} not eligible at claim {claim + 1}")
            n_super += table[-1][action]
            if tr.done and i < last:
                flag(tr, "transition after done")
            elif tr.reward == 0 and i < last:  # the user did not return
                flag(tr, "transition after reward 0")
            elif tr.done and tr.reward == 1 and claim + 1 < CLAIMS_PER_CYCLE:  # the user returned
                flag(tr, f"done with reward 1 before claim {CLAIMS_PER_CYCLE}")
        if n_super > 1:
            violations.append(f"user {uid}: more than one super action in trajectory")
        if not traj[-1].done:
            violations.append(f"user {uid}: trajectory does not end with done")
    return violations


# ---------------------------------------------------------------------------
# Files, and the JSONL trajectory log
#
# Every file is written through ``_write_complete``. The log holds one
# ``Transition`` per line, whose next state is the following line's state.
# A dataset is a directory of append-only ``*.jsonl`` shards plus a manifest
# recording d, T, and the action set.


def _write_complete(target: Path, write) -> None:
    """Run ``write(file)`` on a hidden temporary file beside ``target`` (making its
    directory), then move it into place; on any error the temporary file is removed."""
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f".{target.name}.tmp")
    try:
        with tmp.open("w", newline="") as f:
            write(f)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_json(path: str | Path, payload: dict) -> None:
    """Write ``payload`` as one line of JSON: the file of every net, agent and model."""
    _write_complete(Path(path), lambda f: f.write(json.dumps(payload) + "\n"))


def load_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def write_json(path: str | Path, payload: dict) -> None:
    """Write ``payload`` as indented JSON with sorted keys: reports, snapshots, manifests."""
    _write_complete(Path(path),
                    lambda f: f.write(json.dumps(payload, indent=2, sort_keys=True) + "\n"))


def write_csv(path: str | Path, fieldnames: list[str], rows: Iterable[dict]) -> None:
    """Write ``rows`` as CSV under a ``fieldnames`` header."""
    def write(f):
        writer = csv.DictWriter(f, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    _write_complete(Path(path), write)


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


# Each field ``_transition_record`` writes, in order, with its JSON type (an int is never a bool).
_RECORD_TYPES = {"user_id": int, "t": int, "state": list, "day_in_cycle": int,
                 "bonuses_collected": int, "action_index": int, "reward": int,
                 "cost_cents": int, "done": bool}
_RECORD_KINDS = tuple(_RECORD_TYPES.values())
_record_fields = operator.itemgetter(*_RECORD_TYPES)


def _record_values(rec, shard: Path, n: int) -> tuple:
    """The fields of ``rec``, parsed from line ``n`` of ``shard``, in ``_RECORD_TYPES``
    order; a ValueError naming the line and the first field not of its type."""
    try:
        values = _record_fields(rec)
    except (KeyError, TypeError):  # not an object, or a field missing
        values = ()
    if tuple(map(type, values)) == _RECORD_KINDS:
        return values
    if type(rec) is not dict:
        raise ValueError(f"{shard} line {n}: a record must be a JSON object, "
                         f"not {type(rec).__name__}")
    name = next(name for name, kind in _RECORD_TYPES.items() if type(rec.get(name)) is not kind)
    got = repr(rec[name]) if name in rec else "missing"
    raise ValueError(f"{shard} line {n}: {name} must be {_RECORD_TYPES[name].__name__}, "
                     f"not {got}")


def write_dataset(path: str | Path, dataset: Iterable[Trajectory], actions: ActionSet,
                  d: int) -> Path:
    """Append trajectories to a dataset directory, creating it if needed.

    Each call writes a fresh shard; the first call then writes the manifest,
    which later appends must match. Each file is written under a hidden
    temporary name and moved into place when complete, so a failed write
    adds nothing that ``load_dataset`` reads.
    """
    path = Path(path)
    manifest = {
        "format": MANIFEST_FORMAT,
        "feature_dim": d,
        "max_steps": CLAIMS_PER_CYCLE,
        "actions": actions.to_dict(),
    }
    manifest_path = path / MANIFEST_NAME
    new_dataset = not manifest_path.exists()
    if not new_dataset and load_json(manifest_path) != manifest:
        raise ValueError(f"dataset at {path} has a conflicting manifest")

    # One past the highest shard index, so a removed shard never makes this one
    # overwrite an existing shard.
    taken = [int(p.stem[5:]) for p in path.glob("data-*.jsonl") if p.stem[5:].isdigit()]
    shard = path / f"data-{max(taken, default=-1) + 1:05d}.jsonl"

    def write_records(f):
        for traj in dataset:
            for tr in traj:
                f.write(json.dumps(_transition_record(tr), sort_keys=True) + "\n")

    _write_complete(shard, write_records)
    if new_dataset:
        write_json(manifest_path, manifest)
    return shard


def read_manifest(path: str | Path) -> dict:
    """The manifest of the dataset directory ``path``; a file that is not a JSON
    object, or that names another format or cycle length, is a ValueError that
    names the file."""
    file = Path(path) / MANIFEST_NAME
    manifest = checked_object(load_json(file), str(file))
    if manifest.get("format") != MANIFEST_FORMAT:
        raise ValueError(f"{file}: unsupported dataset format {manifest.get('format')!r}")
    if manifest.get("max_steps") != CLAIMS_PER_CYCLE:
        raise ValueError(f"{file}: dataset max_steps {manifest.get('max_steps')!r} != "
                         f"{CLAIMS_PER_CYCLE}")
    return manifest


def load_dataset(path: str | Path) -> tuple[list[Trajectory], dict]:
    """Load all shards of a dataset directory; returns (trajectories, manifest). A
    trajectory ends at a done line, a new user, a t that is not the next, or a shard's end.
    A line that is not valid JSON, or not a JSON object with each field at its
    ``_RECORD_TYPES`` type, is a ValueError naming the shard and the line (and the field)."""
    path = Path(path)
    manifest = read_manifest(path)

    trajectories: list[Trajectory] = []
    pending: list[Transition] = []

    def flush():
        if pending:
            trajectories.append(tuple(pending))
            pending.clear()

    for shard in sorted(path.glob("data-*.jsonl")):
        with shard.open() as f:
            for n, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{shard} line {n}: {exc}") from None
                user_id, t, state, day, bonuses, action, reward, cost, done = _record_values(
                    rec, shard, n)
                if pending and (user_id != pending[0].user_id or t != len(pending) + 1):
                    flush()
                pending.append(Transition(
                    user_id=user_id, t=t, state=StateVector(tuple(state), day, bonuses),
                    action_index=action, reward=reward, cost_cents=cost, done=done))
                if done:
                    flush()
        flush()  # shard boundary also ends a trajectory
    return trajectories, manifest


def flatten(dataset: Sequence[Trajectory]) -> list[Transition]:
    return [tr for traj in dataset for tr in traj]
