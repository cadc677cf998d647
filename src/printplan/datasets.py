"""Built-in datasets and the seeded random instance generator.

The shipped instances are the published benchmark tables this package is
tested against: a nine-part two-machine example used for the trade-off
front, a twenty-part set used for the scenario comparisons, and two
fifteen-part sets used by the parameter sweeps.  Reference curve
coordinates digitized from the published plots are available for
informational comparison reports; they are never treated as ground
truth by the solver tests.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace
from importlib import resources

from .instance import MachineSpec, Part, PenaltyCoefficients, ProblemInstance, parse_instance, validate

BUILTIN_NAMES = (
    "nine_parts",
    "twenty_parts",
    "fifteen_parts_time_study",
    "fifteen_parts_area_study",
)


def _data_text(filename: str) -> str:
    return resources.files(__package__).joinpath("data", filename).read_text()


def load_builtin(name: str) -> ProblemInstance:
    """Load one of the shipped instances by name (see BUILTIN_NAMES)."""
    if name not in BUILTIN_NAMES:
        raise KeyError(f"unknown builtin instance {name!r}; choose from {BUILTIN_NAMES}")
    return parse_instance(_data_text(name + ".json"))


def reference_curves() -> dict:
    """Digitized published curves keyed by experiment name."""
    return json.loads(_data_text("reference_curves.json"))


def part_prefix(instance: ProblemInstance, n: int) -> ProblemInstance:
    """Sub-instance holding only the first n parts.

    It keeps the instance's job slots per machine, capped at n: a slot
    beyond the n-th could hold no part.
    """
    if not 1 <= n <= len(instance.parts):
        raise ValueError(f"prefix size {n} outside 1..{len(instance.parts)}")
    return replace(instance, parts=instance.parts[:n], jobs_per_machine=min(instance.jobs_per_machine, n))


def with_machine_count(instance: ProblemInstance, m: int) -> ProblemInstance:
    """Replicate the first machine so the park holds exactly m machines."""
    if m < 1:
        raise ValueError("machine count must be at least 1")
    base = instance.machines[0]
    copies = tuple(replace(base, id=f"{base.id}_copy{k + 1}") for k in range(len(instance.machines), m))
    return replace(instance, machines=instance.machines[:m] + copies)


_MAX_ATTEMPTS = 1000


def random_instance(
    seed: int,
    *,
    n_parts: int | None = None,
    n_machines: int | None = None,
    jobs_per_machine: int | None = None,
) -> ProblemInstance:
    """Deterministic random instance that passes validation.

    Machines and parts are drawn from ranges chosen so that plate area
    and build height are occasionally binding without making instances
    unsolvable.  Rejection sampling keeps drawing until validation
    reports no errors, so the result depends only on the seed and the
    explicit size arguments.
    """
    rng = random.Random(seed)
    for _ in range(_MAX_ATTEMPTS):
        m_count = n_machines if n_machines is not None else rng.randint(1, 2)
        p_count = n_parts if n_parts is not None else rng.randint(2, 5)
        machines = []
        for k in range(m_count):
            machines.append(
                MachineSpec(
                    id=f"m{k + 1}",
                    width_mm=float(round(rng.uniform(40, 120))),
                    length_mm=float(round(rng.uniform(40, 120))),
                    height_mm=float(round(rng.uniform(40, 220))),
                    layer_time_h_per_mm=round(rng.uniform(1e-5, 5e-4), 7),
                    volumetric_time_h_per_mm3=round(rng.uniform(1e-6, 1e-5), 8),
                )
            )
        parts = []
        for k in range(p_count):
            parts.append(
                Part(
                    id=f"p{k + 1}",
                    width_mm=round(rng.uniform(1, 50), 1),
                    length_mm=round(rng.uniform(1, 50), 1),
                    height_mm=round(rng.uniform(1, 50), 1),
                    due_h=round(rng.uniform(1, 48), 1),
                )
            )
        penalties = PenaltyCoefficients(
            earliness=round(rng.uniform(0.2, 2.0), 1),
            tardiness=round(rng.uniform(0.2, 2.0), 1),
        )
        jobs = jobs_per_machine if jobs_per_machine is not None else rng.randint(1, 3)
        candidate = ProblemInstance(
            machines=tuple(machines),
            parts=tuple(parts),
            penalties=penalties,
            jobs_per_machine=jobs,
        )
        report = validate(candidate)
        if report.ok and not report.warnings:
            return candidate
    raise RuntimeError(f"could not draw a valid instance from seed {seed} in {_MAX_ATTEMPTS} attempts")
