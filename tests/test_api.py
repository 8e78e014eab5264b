"""The public names of ``budgetrl``, of ``budgetrl.nets`` and of the data classes
whose members the tests read, pinned so that any growth shows in a diff."""

import __future__
import dataclasses
import types

import pytest

import budgetrl
from budgetrl import nets

PUBLIC_NAMES = [
    "ActionSet",
    "AllocationProblem",
    "Assignment",
    "BcqAgent",
    "BcqPolicy",
    "BehaviorPolicyConfig",
    "CheapestPolicy",
    "CheckinEnv",
    "EnvConfig",
    "EvalReport",
    "ExpertPolicy",
    "HyperParams",
    "InfeasibleProblemError",
    "MatchedSet",
    "Mlp",
    "RewardModel",
    "SegmentParams",
    "StateVector",
    "Trajectory",
    "Transition",
    "UniformRandomPolicy",
    "WindowStore",
    "assign",
    "bcq_train",
    "cents",
    "claim_masks",
    "day_mask_indices",
    "default_config",
    "generate_dataset",
    "load_dataset",
    "match_records",
    "oracle_value_iteration",
    "repair_feasibility",
    "simulate_online",
    "solve_and_assign",
    "solve_lambda",
    "train_behavior_model",
    "train_reward_model",
    "train_step",
    "transition_arrays",
    "units",
    "validate_dataset",
    "write_dataset",
    "xi_eligible",
]


def test_public_names_are_pinned():
    # Submodules are left out: which of them appear depends on what was imported.
    names = sorted(name for name, value in vars(budgetrl).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES


NETS_NAMES = [
    "MODEL_FORMAT",
    "Mlp",
    "Optimizer",
    "ShapeError",
    "StepWorkspace",
    "TrainingDivergedError",
    "softmax",
    "train_step",
]

MEMBER_NAMES = {
    budgetrl.AllocationProblem: ["budget_cents", "costs_cents", "n", "q"],
    budgetrl.StateVector: ["bonuses_collected", "day_in_cycle", "features"],
}


def test_nets_names_are_pinned():
    # ``np`` and the ``annotations`` future flag are the module's imports, not its names.
    names = sorted(name for name, value in vars(nets).items()
                   if not name.startswith("_")
                   and not isinstance(value, (types.ModuleType, __future__._Feature)))
    assert names == NETS_NAMES


@pytest.mark.parametrize("cls", list(MEMBER_NAMES), ids=lambda cls: cls.__name__)
def test_member_names_are_pinned(cls):
    # the fields, and every public attribute of the class (methods, properties)
    fields = {field.name for field in dataclasses.fields(cls)}
    names = sorted(fields | {name for name in dir(cls) if not name.startswith("_")})
    assert names == MEMBER_NAMES[cls]
