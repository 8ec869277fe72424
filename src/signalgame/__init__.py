"""Solver and verification harness for dynamic signal-picking games.

A principal observes a controlled Markov chain and commits, stage by
stage, to statistical experiments about the state; a receiver updates
beliefs from the experiment outcomes and picks actions that drive the
chain.  The package computes equilibrium value functions by backward
induction over the belief simplex (piecewise-linear concavification),
turns them into executable policies, and cross-checks the result by
exact forward evaluation, Monte Carlo simulation, and one-shot
deviation tests.
"""

from .geometry import (
    EPS_GEOM,
    EPS_TIE,
    CellArrangement,
    GeometryDomainError,
    SupportMeasure,
    Triangulation,
    VertexInterpolant,
    argcav,
    as_simplex_point,
    barycentric,
    barycentric_indices,
    candidate_vertices,
    dedup_functionals,
    pullback_affine,
    simplex_grid,
    validate_triangulation,
)
from .game import (
    Belief,
    Experiment,
    GameSpec,
    SpecValidationError,
    bayes_update,
    induced_distribution,
    load_spec,
    push_forward,
    save_spec,
    spec_from_dict,
    spec_to_dict,
    split_experiment,
    validate_spec,
)
from .solver import (
    EquilibriumSolution,
    StageObjective,
    StageSolution,
    q_values,
    receiver_best,
    solve,
    stage_backup,
)
from .strategy import (
    principal_action,
    receiver_action,
)
from .evaluator import (
    BeliefEdge,
    BeliefNode,
    DeviationReport,
    NodeBudgetExceeded,
    SimulationReport,
    exact_value,
    one_shot_deviation_check,
    reachable_tree,
    simulate,
)
from .cli import ConfigError, RunConfig, builtin_example, main, run

__all__ = [
    "EPS_GEOM",
    "EPS_TIE",
    "Belief",
    "BeliefEdge",
    "BeliefNode",
    "CellArrangement",
    "ConfigError",
    "DeviationReport",
    "EquilibriumSolution",
    "Experiment",
    "GameSpec",
    "GeometryDomainError",
    "NodeBudgetExceeded",
    "RunConfig",
    "SimulationReport",
    "SpecValidationError",
    "StageObjective",
    "StageSolution",
    "SupportMeasure",
    "Triangulation",
    "VertexInterpolant",
    "argcav",
    "as_simplex_point",
    "barycentric",
    "barycentric_indices",
    "bayes_update",
    "builtin_example",
    "candidate_vertices",
    "dedup_functionals",
    "exact_value",
    "induced_distribution",
    "load_spec",
    "main",
    "one_shot_deviation_check",
    "principal_action",
    "pullback_affine",
    "push_forward",
    "q_values",
    "reachable_tree",
    "receiver_action",
    "receiver_best",
    "run",
    "save_spec",
    "simplex_grid",
    "simulate",
    "solve",
    "spec_from_dict",
    "spec_to_dict",
    "split_experiment",
    "stage_backup",
    "validate_spec",
    "validate_triangulation",
]

__version__ = "0.1.0"
