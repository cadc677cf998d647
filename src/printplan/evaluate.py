"""Decode raw solver output into schedules and recompute what they cost.

The solver's value vector is trusted only for the decisions it encodes:
which part goes into which job, standing how, and when each job
completes.  Everything derived from those decisions (job heights,
processing times, earliness, tardiness, both objective totals) is
recomputed here from the instance data, so a Big-M leak or a loose
linearization in the model shows up as a mismatch instead of silently
propagating into reports.  One audit states schedule feasibility: it
lists the violated constraint families and recomputes the jobs in the
same pass.  ``check_feasible`` returns its list, ``evaluate`` prices
only a schedule it passes, and ``accept``, which every reported
solution passes, runs it once.  ``write_csv`` writes every CSV the
package emits.
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

# slack for reading a binary as set, for every capacity, height and chain test,
# for accept's objective match and for pareto_front's cap and cost checks
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


def _job_name(machine_id: str, job_index: int) -> str:
    return f"job {job_index} on {machine_id}"


def _audit(schedule: Schedule, instance: ProblemInstance) -> tuple[list[Violation], list[JobReport]]:
    """Check every constraint family and recompute every job, in one pass.

    Returns the violations, one entry per broken family in the order
    assignment, machine_height, plate_capacity, activation, contiguity,
    sequencing, and the job reports in machine/job order.  A job's height
    is the true maximum member height (the model only lower-bounds its
    height column); its processing time is layer time times that height
    plus volumetric time times member volume.  A part id the instance
    lacks, or a part placed on a machine the instance lacks, counts under
    ``assignment`` and adds no volume; a job on such a machine counts
    under ``activation``, gets no report, and the height, capacity and
    sequencing checks skip it.  A job breaks sequencing when it completes
    before the previous job on its machine ends plus its own processing.
    """
    machines = {m.id: m for m in instance.machines}
    parts = {p.id: p for p in instance.parts}
    members: dict[tuple[str, int], list[Placement]] = {}
    for pl in schedule.placements:
        members.setdefault((pl.machine_id, pl.job_index), []).append(pl)
    jobs, overfull, breaks = [], [], []
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
        completion = schedule.completions.get((machine_id, job_index), 0.0)
        jobs.append(JobReport(
            machine_id=machine_id,
            job_index=job_index,
            part_ids=tuple(pl.part_id for pl in group),
            height_mm=height,
            processing_h=processing,
            completion_h=completion,
            occupied_mm2=occupied,
            utilization=occupied / machine.base_area_mm2,
            activated=(machine_id, job_index) in schedule.activated,
        ))
        if occupied > machine.base_area_mm2 + TOL:
            overfull.append(_job_name(machine_id, job_index))
        if completion + TOL < chain_end.get(machine_id, 0.0) + processing:
            breaks.append(_job_name(machine_id, job_index))
        chain_end[machine_id] = completion

    seen: dict[str, int] = {}
    for pl in schedule.placements:
        seen[pl.part_id] = seen.get(pl.part_id, 0) + 1
    stray = {pl.part_id for pl in schedule.placements if pl.machine_id not in machines}
    bad_assign = [p.id for p in instance.parts if seen.get(p.id, 0) != 1 or p.id in stray]
    bad_assign += sorted(seen.keys() - parts.keys())
    too_tall = [
        pl.part_id for pl in schedule.placements
        if pl.machine_id in machines and pl.orientation.height_mm > machines[pl.machine_id].height_mm + TOL
    ]
    orphaned = [
        _job_name(mid, j) for mid, j in schedule.jobs_used()
        if mid not in machines or (mid, j) not in schedule.activated
    ]
    populated = {(pl.machine_id, pl.job_index) for pl in schedule.placements}
    gaps = [_job_name(mid, j) for mid, j in sorted(populated) if j > 1 and (mid, j - 1) not in populated]
    families = (
        ("assignment", bad_assign),
        ("machine_height", too_tall),
        ("plate_capacity", overfull),
        ("activation", orphaned),
        ("contiguity", gaps),
        ("sequencing", breaks),
    )
    return [Violation(family, tuple(subjects)) for family, subjects in families if subjects], jobs


def _price(schedule: Schedule, instance: ProblemInstance, jobs: list[JobReport]) -> Evaluation:
    """Part reports and both objectives of a schedule that passed the audit that made ``jobs``."""
    parts = {p.id: p for p in instance.parts}
    completion_of = {(job.machine_id, job.job_index): job.completion_h for job in jobs}
    part_reports = []
    z = 0.0
    for pl in schedule.placements:
        part = parts[pl.part_id]
        completion = completion_of[(pl.machine_id, pl.job_index)]
        earliness = max(0.0, part.due_h - completion)
        tardiness = max(0.0, completion - part.due_h)
        z += instance.penalties.earliness * earliness
        z += instance.penalties.tardiness * tardiness
        part_reports.append(PartReport(pl.part_id, completion, part.due_h, earliness, tardiness))

    area = {m.id: m.base_area_mm2 for m in instance.machines}
    plate_total = sum(area[mid] for mid, _ in schedule.activated)
    occupied_total = sum(pl.orientation.base_area_mm2 for pl in schedule.placements)
    return Evaluation(tuple(jobs), tuple(part_reports), z, plate_total - occupied_total)


def evaluate(schedule: Schedule, instance: ProblemInstance) -> Evaluation:
    """Recompute every derived quantity of a feasible schedule from scratch.

    Raises ValueError naming every family that check_feasible lists, with
    its subjects, and so exactly when that list is not empty; otherwise
    prices the schedule from the audit's job reports.
    """
    violations, jobs = _audit(schedule, instance)
    if violations:
        listed = "; ".join(f"{v.family} ({', '.join(v.subjects)})" for v in violations)
        raise ValueError(f"schedule violates {listed}")
    return _price(schedule, instance, jobs)


def check_feasible(schedule: Schedule, instance: ProblemInstance) -> list[Violation]:
    """The violated constraint families of a schedule, each with the parts
    or jobs that break it; an empty list means the schedule is feasible.
    """
    return _audit(schedule, instance)[0]


def accept(solution: MilpSolution, model: MilpModel) -> tuple[Schedule, Evaluation]:
    """The schedule and evaluation of a solution, if both can be reported.

    Decodes ``solution`` for ``model.instance`` and audits the schedule
    once: raises ValueError if any family is violated, otherwise prices
    the schedule as ``evaluate`` does, and raises ValueError if the priced
    ``model.active_objective`` differs from ``solution.objective`` by more
    than TOL.
    """
    instance = model.instance
    schedule = decode(solution, instance)
    violations, jobs = _audit(schedule, instance)
    if violations:
        raise ValueError(f"solution violates {', '.join(v.family for v in violations)}")
    ev = _price(schedule, instance, jobs)
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
