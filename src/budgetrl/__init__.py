"""budgetrl: offline Q-learning plus a budget-constrained Lagrangian allocator
for sequential cash-bonus promotion, with a ground-truth simulator and an
oracle-backed evaluation harness."""

__version__ = "0.1.0"

from .core import (
    ActionSet,
    HyperParams,
    StateVector,
    Trajectory,
    Transition,
    cents,
    claim_masks,
    day_mask_indices,
    load_dataset,
    units,
    validate_dataset,
    write_dataset,
)
from .envsim import (
    BehaviorPolicyConfig,
    CheckinEnv,
    EnvConfig,
    SegmentParams,
    default_config,
    generate_dataset,
    oracle_value_iteration,
)
from .nets import Mlp, train_step
from .bcq import (BcqAgent, BcqPolicy, bcq_train, train_behavior_model, transition_arrays,
                  xi_eligible)
from .allocator import (
    AllocationProblem,
    Assignment,
    InfeasibleProblemError,
    WindowStore,
    assign,
    repair_feasibility,
    solve_and_assign,
    solve_lambda,
)
from .baselines import (
    CheapestPolicy,
    ExpertPolicy,
    RewardModel,
    UniformRandomPolicy,
    train_reward_model,
)
from .evaluation import (
    EvalReport,
    MatchedSet,
    match_records,
    simulate_online,
)
