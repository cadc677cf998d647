"""Decode raw solver output into schedules and recompute what they cost.

The solver's value vector is trusted only for the decisions it encodes:
which part goes into which job, standing how, and when each job
completes.  Everything derived from those decisions (job heights,
processing times, earliness, tardiness, both objective totals) is
recomputed here from the instance data, so a Big-M leak or a loose
linearization in the model shows up as a mismatch instead of silently
propagating into reports.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

from .geometry import Orientation, OrientationKind, orientation_for, volume_mm3
from .instance import ProblemInstance
from .model import build_registry
from .solver import MilpSolution

# slack for reading a binary as set and for every capacity, height and chain test
TOL = 1e-6


@dataclass(frozen=True)
class Placement:
    """One part's slot in a build plan: machine, job, and standing pose."""

    part_id: str
    machine_id: str
    job_index: int
    orientation: Orientation


@dataclass(frozen=True)
class Schedule:
    """Decoded build plan.

    ``placements`` holds one entry per part.  ``completions`` maps
    ``(machine_id, job_index)`` to the job's completion time in hours;
    ``activated`` lists the jobs whose plate is committed, which can
    include jobs no part landed in.  Job indices are 1-based.
    """

    placements: tuple[Placement, ...]
    completions: dict[tuple[str, int], float]
    activated: frozenset[tuple[str, int]]

    def jobs_used(self) -> list[tuple[str, int]]:
        """Jobs that are activated or hold a part, in machine/job order."""
        keys = set(self.activated)
        keys.update((pl.machine_id, pl.job_index) for pl in self.placements)
        return sorted(keys)


@dataclass(frozen=True)
class JobReport:
    machine_id: str
    job_index: int
    part_ids: tuple[str, ...]
    height_mm: float
    processing_h: float
    completion_h: float
    occupied_mm2: float
    utilization: float
    activated: bool


@dataclass(frozen=True)
class PartReport:
    part_id: str
    completion_h: float
    due_h: float
    earliness_h: float
    tardiness_h: float


@dataclass(frozen=True)
class Evaluation:
    """Ground-truth costs of a schedule, recomputed from instance data."""

    jobs: tuple[JobReport, ...]
    parts: tuple[PartReport, ...]
    z: float
    zz: float


@dataclass(frozen=True)
class Violation:
    """One violated constraint family and the subjects that break it."""

    family: str
    subjects: tuple[str, ...]


def decode(solution: MilpSolution, instance: ProblemInstance) -> Schedule:
    """Turn an integral solution vector into a Schedule.

    Assignment and orientation binaries are read at ``1 - TOL``;
    completion times come from the job-completion columns.  Raises
    ValueError on corrupt vectors (a part unassigned or doubly
    assigned, or both tip binaries set).
    """
    if solution.values is None:
        raise ValueError("solution carries no values to decode")
    reg = build_registry(instance)
    values = solution.values
    if len(values) != reg.n_columns:
        raise ValueError(
            f"value vector has {len(values)} entries, model needs {reg.n_columns}"
        )
    jobs = instance.jobs_per_machine
    n_m = len(instance.machines)

    placements = []
    for i, part in enumerate(instance.parts):
        slots = [
            (j, m)
            for j in range(jobs)
            for m in range(n_m)
            if values[reg.col("x", i, j, m)] >= 1.0 - TOL
        ]
        if not slots:
            raise ValueError(f"part unassigned: {part.id}")
        if len(slots) > 1:
            where = ", ".join(f"job {j + 1} on {instance.machines[m].id}" for j, m in slots)
            raise ValueError(f"part assigned more than once: {part.id} ({where})")
        tipped_b = values[reg.col("b", i)] >= 1.0 - TOL
        tipped_f = values[reg.col("f", i)] >= 1.0 - TOL
        if tipped_b and tipped_f:
            raise ValueError(f"orientation conflict for part {part.id}: both tip flags set")
        kind = (
            OrientationKind.LENGTH_UP
            if tipped_b
            else OrientationKind.WIDTH_UP
            if tipped_f
            else OrientationKind.FLAT
        )
        j, m = slots[0]
        placements.append(
            Placement(part.id, instance.machines[m].id, j + 1, orientation_for(part, kind))
        )

    activated = frozenset(
        (instance.machines[m].id, j + 1)
        for j in range(jobs)
        for m in range(n_m)
        if values[reg.col("y", j, m)] >= 1.0 - TOL
    )
    keep = set(activated)
    keep.update((pl.machine_id, pl.job_index) for pl in placements)
    completions = {
        (instance.machines[m].id, j + 1): float(values[reg.col("jc", j, m)])
        for j in range(jobs)
        for m in range(n_m)
        if (instance.machines[m].id, j + 1) in keep
    }
    return Schedule(tuple(placements), completions, activated)


def _job_members(schedule: Schedule) -> dict[tuple[str, int], list[Placement]]:
    """Group placements by (machine_id, job_index), keeping part order."""
    members: dict[tuple[str, int], list[Placement]] = {}
    for pl in schedule.placements:
        members.setdefault((pl.machine_id, pl.job_index), []).append(pl)
    return members


def evaluate(schedule: Schedule, instance: ProblemInstance) -> Evaluation:
    """Recompute every derived quantity of a schedule from scratch.

    Job height is the true maximum member height (the model only
    lower-bounds its height column), processing time is layer time
    times that height plus volumetric time times member volume, and
    earliness/tardiness come from the owning job's completion.  Raises
    ValueError on a broken completion chain or an overfull plate; use
    check_feasible for a non-raising report.
    """
    members = _job_members(schedule)
    job_reports = []
    for machine_id, job_index in schedule.jobs_used():
        machine = instance.machines[instance.machine_index(machine_id)]
        group = members.get((machine_id, job_index), [])
        height = max((pl.orientation.height_mm for pl in group), default=0.0)
        volume = sum(
            volume_mm3(instance.parts[instance.part_index(pl.part_id)]) for pl in group
        )
        occupied = sum(pl.orientation.base_area_mm2 for pl in group)
        if occupied > machine.base_area_mm2 + TOL:
            raise ValueError(
                f"capacity violation: job {job_index} on {machine_id} occupies "
                f"{occupied:g} mm2 of {machine.base_area_mm2:g}"
            )
        processing = machine.layer_time_h_per_mm * height
        processing += machine.volumetric_time_h_per_mm3 * volume
        completion = schedule.completions.get((machine_id, job_index), 0.0)
        job_reports.append(
            JobReport(
                machine_id=machine_id,
                job_index=job_index,
                part_ids=tuple(pl.part_id for pl in group),
                height_mm=height,
                processing_h=processing,
                completion_h=completion,
                occupied_mm2=occupied,
                utilization=occupied / machine.base_area_mm2,
                activated=(machine_id, job_index) in schedule.activated,
            )
        )

    # completion chain per machine: each job starts after the previous ends
    by_machine: dict[str, list[JobReport]] = {}
    for job in job_reports:
        by_machine.setdefault(job.machine_id, []).append(job)
    for machine_id, chain in by_machine.items():
        chain.sort(key=lambda job: job.job_index)
        prev_end = 0.0
        for job in chain:
            if job.completion_h + TOL < prev_end + job.processing_h:
                raise ValueError(
                    f"chain violation: job {job.job_index} on {machine_id} completes at "
                    f"{job.completion_h:g} h but cannot start before {prev_end:g} h "
                    f"and runs {job.processing_h:g} h"
                )
            prev_end = job.completion_h

    lookup = {(job.machine_id, job.job_index): job for job in job_reports}
    part_reports = []
    z = 0.0
    for pl in schedule.placements:
        part = instance.parts[instance.part_index(pl.part_id)]
        completion = lookup[(pl.machine_id, pl.job_index)].completion_h
        earliness = max(0.0, part.due_h - completion)
        tardiness = max(0.0, completion - part.due_h)
        z += instance.penalties.earliness * earliness
        z += instance.penalties.tardiness * tardiness
        part_reports.append(
            PartReport(pl.part_id, completion, part.due_h, earliness, tardiness)
        )

    plate_total = sum(
        instance.machines[instance.machine_index(mid)].base_area_mm2
        for mid, _ in schedule.activated
    )
    occupied_total = sum(pl.orientation.base_area_mm2 for pl in schedule.placements)
    zz = plate_total - occupied_total
    return Evaluation(tuple(job_reports), tuple(part_reports), z, zz)


def check_feasible(schedule: Schedule, instance: ProblemInstance) -> list[Violation]:
    """Run the full constraint predicate suite over a schedule.

    Returns one entry per violated constraint family, naming the parts
    or jobs involved.  A part id the instance lacks, or a part placed on
    a machine the instance lacks, counts under ``assignment``; a job on
    such a machine counts under ``activation``, and the height, capacity
    and sequencing checks skip it.  An empty list means the schedule is
    feasible.
    """
    violations: list[Violation] = []
    members = _job_members(schedule)
    machines = {m.id: m for m in instance.machines}

    seen: dict[str, int] = {}
    for pl in schedule.placements:
        seen[pl.part_id] = seen.get(pl.part_id, 0) + 1
    parts = {p.id: p for p in instance.parts}
    stray = {pl.part_id for pl in schedule.placements if pl.machine_id not in machines}
    bad_assign = [p.id for p in instance.parts if seen.get(p.id, 0) != 1 or p.id in stray]
    bad_assign += sorted(seen.keys() - parts.keys())
    if bad_assign:
        violations.append(Violation("assignment", tuple(bad_assign)))

    too_tall = []
    for pl in schedule.placements:
        machine = machines.get(pl.machine_id)
        if machine and pl.orientation.height_mm > machine.height_mm + TOL:
            too_tall.append(pl.part_id)
    if too_tall:
        violations.append(Violation("machine_height", tuple(too_tall)))

    overfull = []
    for (machine_id, job_index), group in sorted(members.items()):
        machine = machines.get(machine_id)
        occupied = sum(pl.orientation.base_area_mm2 for pl in group)
        if machine and occupied > machine.base_area_mm2 + TOL:
            overfull.append(f"job {job_index} on {machine_id}")
    if overfull:
        violations.append(Violation("plate_capacity", tuple(overfull)))

    orphaned = [
        f"job {j} on {mid}"
        for (mid, j) in schedule.jobs_used()
        if mid not in machines or (mid, j) not in schedule.activated
    ]
    if orphaned:
        violations.append(Violation("activation", tuple(orphaned)))

    gaps = []
    populated = sorted(members)
    for machine_id, job_index in populated:
        if job_index > 1 and (machine_id, job_index - 1) not in members:
            gaps.append(f"job {job_index} on {machine_id}")
    if gaps:
        violations.append(Violation("contiguity", tuple(gaps)))

    broken = []
    for machine_id in sorted({mid for mid, _ in schedule.jobs_used()} & machines.keys()):
        machine = machines[machine_id]
        chain = sorted(j for mid, j in schedule.jobs_used() if mid == machine_id)
        prev_end = 0.0
        for job_index in chain:
            group = members.get((machine_id, job_index), [])
            height = max((pl.orientation.height_mm for pl in group), default=0.0)
            # an unknown part is an assignment violation, with no volume here
            volume = sum(volume_mm3(parts[pl.part_id]) for pl in group if pl.part_id in parts)
            processing = machine.layer_time_h_per_mm * height
            processing += machine.volumetric_time_h_per_mm3 * volume
            completion = schedule.completions.get((machine_id, job_index), 0.0)
            if completion + TOL < prev_end + processing:
                broken.append(f"job {job_index} on {machine_id}")
            prev_end = completion
    if broken:
        violations.append(Violation("sequencing", tuple(broken)))

    return violations


def _hours(value: float) -> str:
    return f"{value:.6f}"


def write_schedule_csv(
    schedule: Schedule,
    evaluation: Evaluation,
    path,
    params: str = "",
) -> None:
    """Write the per-part plan as CSV with a provenance comment line."""
    from . import __version__

    stamp = f"# printplan={__version__}"
    if params:
        stamp += f" {params}"
    due = {rep.part_id: rep for rep in evaluation.parts}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "part_id",
            "machine_id",
            "job_index",
            "orientation",
            "height_mm",
            "base_area_mm2",
            "completion_h",
            "due_h",
            "earliness_h",
            "tardiness_h",
        ]
    )
    for pl in schedule.placements:
        rep = due[pl.part_id]
        writer.writerow(
            [
                pl.part_id,
                pl.machine_id,
                pl.job_index,
                pl.orientation.kind.value,
                f"{pl.orientation.height_mm:g}",
                f"{pl.orientation.base_area_mm2:g}",
                _hours(rep.completion_h),
                _hours(rep.due_h),
                _hours(rep.earliness_h),
                _hours(rep.tardiness_h),
            ]
        )
    Path(path).write_text(stamp + "\n" + buf.getvalue())
