"""Build planning for powder-bed 3D printer farms.

Assigns parts to batch jobs on machines, chooses print orientations,
schedules job completions against due times, and traces the trade-off
between earliness/tardiness cost and unused plate area.
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import datasets
from .geometry import Orientation, OrientationKind, feasible_orientations, orientations, volume_mm3
from .instance import (
    InstanceError,
    MachineSpec,
    Part,
    PenaltyCoefficients,
    ProblemInstance,
    ValidationIssue,
    ValidationReport,
    instance_hash,
    load_instance,
    parse_instance,
    serialize_instance,
    validate,
)
from .model import Objective, build_model, write_lp
from .solver import MilpSolution, SolveStatus, solve_milp
from .evaluate import Evaluation, Schedule, check_feasible, decode, evaluate
from .oracle import brute_force, single_batch_oracle
from .pareto import ParetoFront, pareto_front, payoff_table

__all__ = [
    "Orientation",
    "OrientationKind",
    "feasible_orientations",
    "orientations",
    "volume_mm3",
    "InstanceError",
    "MachineSpec",
    "Part",
    "PenaltyCoefficients",
    "ProblemInstance",
    "ValidationIssue",
    "ValidationReport",
    "instance_hash",
    "load_instance",
    "parse_instance",
    "serialize_instance",
    "validate",
    "Objective",
    "build_model",
    "write_lp",
    "MilpSolution",
    "SolveStatus",
    "solve_milp",
    "Evaluation",
    "Schedule",
    "check_feasible",
    "decode",
    "evaluate",
    "brute_force",
    "single_batch_oracle",
    "ParetoFront",
    "pareto_front",
    "payoff_table",
    "__version__",
]
