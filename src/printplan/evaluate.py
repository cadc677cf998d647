"""Decode raw solver output into schedules and recompute what they cost.

The solver's value vector is trusted only for the decisions it encodes:
which part goes into which job, standing how, and when each job
completes.  Everything derived from those decisions (job heights,
processing times, earliness, tardiness, both objective totals) is
recomputed here from the instance data, so a Big-M leak or a loose
linearization in the model shows up as a mismatch instead of silently
propagating into reports.  ``accept`` is that check, and every reported
solution passes it; ``write_csv`` writes every CSV the package emits.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .geometry import Orientation, orientations, volume_mm3
from .instance import ProblemInstance
from .model import MilpModel, Objective, build_registry
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
    machines = instance.machines
    x = values[reg.block("x")] >= 1.0 - TOL
    tipped_b = values[reg.block("b")] >= 1.0 - TOL
    tipped_f = values[reg.block("f")] >= 1.0 - TOL

    placements = []
    for i, part in enumerate(instance.parts):
        slots = np.argwhere(x[i]).tolist()  # (job, machine) pairs, job-major
        if not slots:
            raise ValueError(f"part unassigned: {part.id}")
        if len(slots) > 1:
            where = ", ".join(f"job {j + 1} on {machines[m].id}" for j, m in slots)
            raise ValueError(f"part assigned more than once: {part.id} ({where})")
        if tipped_b[i] and tipped_f[i]:
            raise ValueError(f"orientation conflict for part {part.id}: both tip flags set")
        flat, lup, wup = orientations(part)
        j, m = slots[0]
        pose = lup if tipped_b[i] else wup if tipped_f[i] else flat
        placements.append(Placement(part.id, machines[m].id, j + 1, pose))

    activated = frozenset(
        (machines[m].id, j + 1) for j, m in np.argwhere(values[reg.block("y")] >= 1.0 - TOL).tolist()
    )
    keep = set(activated)
    keep.update((pl.machine_id, pl.job_index) for pl in placements)
    jc = values[reg.block("jc")]
    completions = {
        (machines[m].id, j + 1): float(jc[j, m])
        for j, m in np.ndindex(jc.shape)
        if (machines[m].id, j + 1) in keep
    }
    return Schedule(tuple(placements), completions, activated)


def _job_pass(schedule: Schedule, machines: dict, parts: dict):
    """Recompute every job on a known machine, in machine/job order.

    Job height is the true maximum member height (the model only
    lower-bounds its height column), processing time is layer time times
    that height plus volumetric time times member volume; a part the
    instance lacks adds no volume.  Returns the job reports, the jobs
    whose plate is overfull, and the chain breaks as ``(job, prev_end)``:
    jobs that complete before the previous job on their machine ends
    (``prev_end``) plus their own processing time.
    """
    members: dict[tuple[str, int], list[Placement]] = {}
    for pl in schedule.placements:
        members.setdefault((pl.machine_id, pl.job_index), []).append(pl)
    reports, overfull, breaks = [], [], []
    chain_end: dict[str, float] = {}
    for machine_id, job_index in schedule.jobs_used():
        machine = machines.get(machine_id)
        if machine is None:
            continue
        group = members.get((machine_id, job_index), [])
        height = max((pl.orientation.height_mm for pl in group), default=0.0)
        volume = sum(volume_mm3(parts[pl.part_id]) for pl in group if pl.part_id in parts)
        occupied = sum(pl.orientation.base_area_mm2 for pl in group)
        processing = machine.layer_time_h_per_mm * height
        processing += machine.volumetric_time_h_per_mm3 * volume
        job = JobReport(
            machine_id=machine_id,
            job_index=job_index,
            part_ids=tuple(pl.part_id for pl in group),
            height_mm=height,
            processing_h=processing,
            completion_h=schedule.completions.get((machine_id, job_index), 0.0),
            occupied_mm2=occupied,
            utilization=occupied / machine.base_area_mm2,
            activated=(machine_id, job_index) in schedule.activated,
        )
        reports.append(job)
        if occupied > machine.base_area_mm2 + TOL:
            overfull.append(job)
        prev_end = chain_end.get(machine_id, 0.0)
        if job.completion_h + TOL < prev_end + processing:
            breaks.append((job, prev_end))
        chain_end[machine_id] = job.completion_h
    return reports, overfull, breaks


def _job_name(job: JobReport) -> str:
    return f"job {job.job_index} on {job.machine_id}"


def evaluate(schedule: Schedule, instance: ProblemInstance) -> Evaluation:
    """Recompute every derived quantity of a schedule from scratch.

    Jobs come from the same pass as check_feasible's; earliness and
    tardiness come from the owning job's completion.  Raises ValueError
    naming the placement or job when a placement's part or machine, or
    an activated job's machine, is not in the instance; and on an
    overfull plate or a broken completion chain (exactly when
    check_feasible reports ``plate_capacity`` or ``sequencing``).  Use
    check_feasible for a non-raising report.
    """
    machines = {m.id: m for m in instance.machines}
    parts = {p.id: p for p in instance.parts}
    for pl in schedule.placements:
        if pl.part_id not in parts or pl.machine_id not in machines:
            missing = f"part {pl.part_id}" if pl.part_id not in parts else f"machine {pl.machine_id}"
            raise ValueError(
                f"placement of {pl.part_id} in job {pl.job_index} on {pl.machine_id}: "
                f"the instance has no {missing}"
            )
    for mid, j in sorted(schedule.activated):
        if mid not in machines:
            raise ValueError(f"activated job {j} on {mid}: the instance has no machine {mid}")
    job_reports, overfull, breaks = _job_pass(schedule, machines, parts)
    if overfull:
        job = overfull[0]
        raise ValueError(
            f"capacity violation: {_job_name(job)} occupies "
            f"{job.occupied_mm2:g} mm2 of {machines[job.machine_id].base_area_mm2:g}"
        )
    if breaks:
        job, prev_end = breaks[0]
        raise ValueError(
            f"chain violation: {_job_name(job)} completes at "
            f"{job.completion_h:g} h but cannot start before {prev_end:g} h "
            f"and runs {job.processing_h:g} h"
        )

    lookup = {(job.machine_id, job.job_index): job for job in job_reports}
    part_reports = []
    z = 0.0
    for pl in schedule.placements:
        part = parts[pl.part_id]
        completion = lookup[(pl.machine_id, pl.job_index)].completion_h
        earliness = max(0.0, part.due_h - completion)
        tardiness = max(0.0, completion - part.due_h)
        z += instance.penalties.earliness * earliness
        z += instance.penalties.tardiness * tardiness
        part_reports.append(
            PartReport(pl.part_id, completion, part.due_h, earliness, tardiness)
        )

    plate_total = sum(machines[mid].base_area_mm2 for mid, _ in schedule.activated)
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
    machines = {m.id: m for m in instance.machines}
    parts = {p.id: p for p in instance.parts}
    _, overfull, breaks = _job_pass(schedule, machines, parts)

    seen: dict[str, int] = {}
    for pl in schedule.placements:
        seen[pl.part_id] = seen.get(pl.part_id, 0) + 1
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

    if overfull:
        violations.append(Violation("plate_capacity", tuple(_job_name(job) for job in overfull)))

    orphaned = [
        f"job {j} on {mid}"
        for (mid, j) in schedule.jobs_used()
        if mid not in machines or (mid, j) not in schedule.activated
    ]
    if orphaned:
        violations.append(Violation("activation", tuple(orphaned)))

    populated = {(pl.machine_id, pl.job_index) for pl in schedule.placements}
    gaps = [
        f"job {j} on {mid}" for mid, j in sorted(populated) if j > 1 and (mid, j - 1) not in populated
    ]
    if gaps:
        violations.append(Violation("contiguity", tuple(gaps)))

    if breaks:
        violations.append(Violation("sequencing", tuple(_job_name(job) for job, _ in breaks)))

    return violations


def accept(solution: MilpSolution, model: MilpModel) -> tuple[Schedule, Evaluation]:
    """The schedule and evaluation of a solution, if both can be reported.

    Decodes ``solution`` for ``model.instance``, raises ValueError if
    check_feasible reports any family, evaluates the schedule, and raises
    ValueError if the evaluated ``model.active_objective`` differs from
    ``solution.objective`` by more than TOL.
    """
    instance = model.instance
    schedule = decode(solution, instance)
    violations = check_feasible(schedule, instance)
    if violations:
        raise ValueError(f"solution violates {', '.join(v.family for v in violations)}")
    ev = evaluate(schedule, instance)
    value = ev.z if model.active_objective is Objective.Z else ev.zz
    if not abs(value - solution.objective) <= TOL:  # a NaN objective fails too
        raise ValueError(
            f"evaluator disagrees with solver: {value:.12g} vs {solution.objective:.12g} "
            f"(difference {value - solution.objective:.3g})"
        )
    return schedule, ev


def write_csv(path, params: str, header: list[str], rows, comments=()) -> None:
    """Write a CSV of ``rows`` under ``header``.

    Above the header go the stamp ``# printplan=<version> <params>`` and
    then the ``comments`` lines, each already starting with ``#``.
    """
    stamp = f"# printplan={__version__} {params}" if params else f"# printplan={__version__}"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    Path(path).write_text("\n".join([stamp, *comments, buf.getvalue()]))


def _hours(value: float) -> str:
    return f"{value:.6f}"


def write_schedule_csv(
    schedule: Schedule,
    evaluation: Evaluation,
    path,
    params: str = "",
) -> None:
    """Write the per-part plan as CSV with a provenance comment line."""
    due = {rep.part_id: rep for rep in evaluation.parts}
    rows = []
    for pl in schedule.placements:
        rep = due[pl.part_id]
        rows.append(
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
    write_csv(
        path,
        params,
        ["part_id", "machine_id", "job_index", "orientation", "height_mm", "base_area_mm2",
         "completion_h", "due_h", "earliness_h", "tardiness_h"],
        rows,
    )
