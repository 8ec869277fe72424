"""Executable equilibrium policies read off a solved game.

The principal's stage policy splits the current belief onto the
vertices of that stage's triangulation: the experiment's messages are
labeled by vertex indices and each message moves the receiver's
posterior exactly onto the corresponding vertex.  The receiver's
policy best-responds to the stage action values, breaking near-ties in
the principal's favor, which reproduces the actions stored at the
vertices.
"""

from __future__ import annotations

from dataclasses import replace

from .game import Experiment, _check_stamp, _coords, split_experiment
from .geometry import SupportMeasure, barycentric_indices
from .solver import EquilibriumSolution, receiver_best

__all__ = [
    "principal_action",
    "receiver_action",
]


def principal_action(solution: EquilibriumSolution, stage: int, belief) -> Experiment:
    """Equilibrium experiment at a belief: the barycentric split.

    Messages are labeled by the triangulation vertex indices they
    induce; at a vertex the experiment is a single uninformative
    message.
    """
    stage_solution = solution.stage(stage)
    _check_stamp(belief, stage)
    pi = _coords(belief)
    ids, weights = barycentric_indices(stage_solution.triangulation, pi)
    atoms = stage_solution.triangulation.vertices[ids]
    experiment = split_experiment(pi, SupportMeasure(atoms, weights))
    return replace(experiment, labels=tuple(int(i) for i in ids))


def receiver_action(solution: EquilibriumSolution, stage: int, belief) -> int:
    """Equilibrium action index at a post-experiment belief."""
    stage_solution = solution.stage(stage)
    _check_stamp(belief, stage)
    q_a, q_b = stage_solution.objective.q_single(_coords(belief))
    return int(receiver_best(q_a[None, :], q_b[None, :])[0][0])

