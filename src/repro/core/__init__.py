"""Core contribution: candidate generation, insights and the system facade."""

from repro.core.candidates import (
    Candidate,
    CandidateGenerator,
    SearchStats,
    brute_force_tree_candidates,
    search_counter_totals,
)
from repro.core.diversity import (
    diverse_order,
    min_pairwise_distance,
    select_diverse,
    select_diverse_batch,
    select_greedy,
)
from repro.core.evaluation import CandidateSetReport, evaluate_session
from repro.core.fused import (
    EpochProposalCache,
    FusedCell,
    FusedReport,
    generate_fused,
)
from repro.core.insights import QUESTIONS, Insight, InsightEngine, PlanAlternative
from repro.core.moves import (
    GradientMoveProposer,
    MoveProposer,
    RandomMoveProposer,
    ThresholdMoveProposer,
    default_proposers,
)
from repro.core.objectives import (
    OBJECTIVE_PRESETS,
    CandidateMetrics,
    Objective,
    get_objective,
    measure,
)
from repro.core.orchestrator import EpochOutcome, RefreshOrchestrator
from repro.core.persistence import load_system, save_system
from repro.core.plans import FeatureChange, Plan, build_plan
from repro.core.scheduler import (
    DriftDecision,
    DriftGate,
    RefreshEpoch,
    RefreshScheduler,
)
from repro.core.system import AdminConfig, JustInTime, RefreshReport, UserSession
from repro.core.worker import (
    PoolReport,
    WorkerReport,
    drain_stale_cells,
    run_worker_pool,
)

__all__ = [
    "AdminConfig",
    "Candidate",
    "CandidateGenerator",
    "CandidateMetrics",
    "CandidateSetReport",
    "evaluate_session",
    "DriftDecision",
    "DriftGate",
    "EpochOutcome",
    "EpochProposalCache",
    "FeatureChange",
    "FusedCell",
    "FusedReport",
    "generate_fused",
    "GradientMoveProposer",
    "Insight",
    "InsightEngine",
    "PlanAlternative",
    "JustInTime",
    "MoveProposer",
    "OBJECTIVE_PRESETS",
    "Objective",
    "Plan",
    "PoolReport",
    "QUESTIONS",
    "RandomMoveProposer",
    "RefreshEpoch",
    "RefreshOrchestrator",
    "RefreshReport",
    "RefreshScheduler",
    "SearchStats",
    "ThresholdMoveProposer",
    "UserSession",
    "WorkerReport",
    "brute_force_tree_candidates",
    "build_plan",
    "drain_stale_cells",
    "search_counter_totals",
    "load_system",
    "save_system",
    "default_proposers",
    "get_objective",
    "measure",
    "diverse_order",
    "min_pairwise_distance",
    "run_worker_pool",
    "select_diverse",
    "select_diverse_batch",
    "select_greedy",
]
