"""The public names of ``budgetrl``, pinned so that any growth shows in a diff."""

import types

import budgetrl

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
    "huber",
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
