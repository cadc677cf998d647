from __future__ import annotations

from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from printplan.datasets import load_builtin, random_instance
from printplan.evaluate import (
    _job_pass,
    Placement,
    accept,
    Schedule,
    Violation,
    check_feasible,
    decode,
    evaluate,
    write_schedule_csv,
)
from printplan.geometry import OrientationKind, orientation_for, orientations
from printplan.instance import MachineSpec, Part, PenaltyCoefficients, ProblemInstance, instance_hash
from printplan.model import Objective, build_model, build_registry
from printplan.solver import MilpSolution, SolveStatus, solve_milp


def reference_machine() -> MachineSpec:
    return MachineSpec(
        id="m1",
        width_mm=250.0,
        length_mm=250.0,
        height_mm=200.0,
        layer_time_h_per_mm=0.00006,
        volumetric_time_h_per_mm3=0.000003,
    )


def one_part_instance() -> ProblemInstance:
    return ProblemInstance(
        machines=(reference_machine(),),
        parts=(Part("p1", 10.0, 10.0, 10.0, 1.0),),
        penalties=PenaltyCoefficients(1.0, 1.0),
        jobs_per_machine=1,
    )


def max_footprint(part: Part):
    return max(orientations(part), key=lambda o: o.base_area_mm2)


def flat_single_job(instance: ProblemInstance, completion: float) -> Schedule:
    mid = instance.machines[0].id
    placements = tuple(
        Placement(p.id, mid, 1, orientation_for(p, OrientationKind.FLAT))
        for p in instance.parts
    )
    return Schedule(placements, {(mid, 1): completion}, frozenset({(mid, 1)}))


# ---------------------------------------------------------------- evaluate


def test_processing_time_single_part():
    # benchmark part 2 at its widest pose: height 8, footprint 361,
    # volume 2888 -> 0.00006*8 + 0.000003*2888 = 0.009144 h
    inst = load_builtin("nine_parts")
    mid = inst.machines[0].id
    part = inst.parts[1]
    ori = max_footprint(part)
    assert ori.height_mm == 8.0
    assert ori.base_area_mm2 == 361.0
    sched = Schedule(
        (Placement(part.id, mid, 1, ori),), {(mid, 1): 1.0}, frozenset({(mid, 1)})
    )
    ev = evaluate(sched, inst)
    assert ev.jobs[0].processing_h == pytest.approx(0.009144, abs=1e-12)


def test_unused_area_nine_parts_single_job():
    # all nine benchmark parts on one plate at widest poses: published
    # reference plots 59987 for the unused area of this packing
    inst = load_builtin("nine_parts")
    mid = inst.machines[0].id
    placements = tuple(
        Placement(p.id, mid, 1, max_footprint(p)) for p in inst.parts
    )
    sched = Schedule(placements, {(mid, 1): 30.0}, frozenset({(mid, 1)}))
    ev = evaluate(sched, inst)
    assert ev.zz == pytest.approx(62500 - 2512.54, abs=1e-9)
    assert check_feasible(sched, inst) == []


def test_empty_schedule_zero_totals():
    inst = ProblemInstance(machines=(reference_machine(),), parts=())
    ev = evaluate(Schedule((), {}, frozenset()), inst)
    assert ev.z == 0.0
    assert ev.zz == 0.0
    assert ev.jobs == ()
    assert ev.parts == ()


def test_earliness_tardiness_split():
    inst = one_part_instance()
    sched = flat_single_job(inst, 3.5)
    ev = evaluate(sched, inst)
    rep = ev.parts[0]
    assert rep.tardiness_h == pytest.approx(2.5)
    assert rep.earliness_h == 0.0
    assert ev.z == pytest.approx(2.5)
    early = evaluate(flat_single_job(inst, 0.25), inst).parts[0]
    assert early.earliness_h == pytest.approx(0.75)
    assert early.tardiness_h == 0.0


def test_penalty_weights_applied():
    inst = ProblemInstance(
        machines=(reference_machine(),),
        parts=(Part("p1", 10.0, 10.0, 10.0, 2.0),),
        penalties=PenaltyCoefficients(earliness=0.5, tardiness=3.0),
        jobs_per_machine=1,
    )
    assert evaluate(flat_single_job(inst, 1.0), inst).z == pytest.approx(0.5)
    assert evaluate(flat_single_job(inst, 3.0), inst).z == pytest.approx(3.0)


def test_empty_activated_job_counts_plate_only():
    inst = one_part_instance()
    mid = inst.machines[0].id
    part = inst.parts[0]
    sched = Schedule(
        (Placement(part.id, mid, 1, orientation_for(part, OrientationKind.FLAT)),),
        {(mid, 1): 1.0, (mid, 2): 1.0},
        frozenset({(mid, 1), (mid, 2)}),
    )
    ev = evaluate(sched, inst)
    empty = next(job for job in ev.jobs if (job.machine_id, job.job_index) == (mid, 2))
    assert empty.processing_h == 0.0
    assert empty.height_mm == 0.0
    assert empty.occupied_mm2 == 0.0
    # both plates count toward unused area, one footprint comes off
    assert ev.zz == pytest.approx(2 * 62500 - 100.0)


def test_evaluate_raises_on_chain_violation():
    inst = one_part_instance()
    sched = flat_single_job(inst, 0.001)  # processing alone takes 0.0036 h
    with pytest.raises(ValueError, match="chain violation"):
        evaluate(sched, inst)


def test_evaluate_raises_on_capacity_violation():
    machine = MachineSpec("m1", 10.0, 10.0, 200.0, 0.00006, 0.000003)
    inst = ProblemInstance(
        machines=(machine,),
        parts=(Part("p1", 10.0, 10.0, 5.0, 1.0), Part("p2", 10.0, 10.0, 5.0, 1.0)),
        jobs_per_machine=1,
    )
    sched = flat_single_job(inst, 1.0)
    with pytest.raises(ValueError, match="capacity violation"):
        evaluate(sched, inst)


def test_utilization_identity_on_random_instances():
    # zz plus total occupied area equals the plate area of activated jobs
    for seed in range(6):
        inst = random_instance(seed, n_parts=3, jobs_per_machine=2)
        model = build_model(inst, Objective.ZZ)
        sol = solve_milp(model, time_limit_s=60)
        assert sol.status is SolveStatus.Optimal
        sched = decode(sol, inst)
        ev = evaluate(sched, inst)
        area = {m.id: m.base_area_mm2 for m in inst.machines}
        plate = sum(area[mid] for mid, _ in sched.activated)
        occupied = sum(job.occupied_mm2 for job in ev.jobs if job.activated)
        assert ev.zz + occupied == plate


# ------------------------------------------------------------------ decode


def integral_solution(values: np.ndarray) -> MilpSolution:
    return MilpSolution(SolveStatus.Optimal, 0.0, values, 0.0, 0)


def test_decode_one_part_solve():
    inst = one_part_instance()
    sol = solve_milp(build_model(inst, Objective.Z))
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    sched = decode(sol, inst)
    pl = sched.placements[0]
    assert pl.machine_id == "m1"
    assert pl.job_index == 1
    assert sched.completions[("m1", 1)] == pytest.approx(1.0)
    ev = evaluate(sched, inst)
    assert ev.z == pytest.approx(0.0, abs=1e-9)


def test_decode_rejects_all_zero_vector():
    inst = one_part_instance()
    reg = build_registry(inst)
    with pytest.raises(ValueError, match="part unassigned"):
        decode(integral_solution(np.zeros(reg.n_columns)), inst)


def test_decode_rejects_double_assignment():
    inst = ProblemInstance(
        machines=(reference_machine(),),
        parts=(Part("p1", 10.0, 10.0, 10.0, 1.0),),
        jobs_per_machine=2,
    )
    reg = build_registry(inst)
    values = np.zeros(reg.n_columns)
    values[reg.col("x", 0, 0, 0)] = 1.0
    values[reg.col("x", 0, 1, 0)] = 1.0
    with pytest.raises(ValueError, match="more than once"):
        decode(integral_solution(values), inst)

    # two machines: the slots are listed job-major, whatever the column order
    two = replace(inst, machines=(reference_machine(), replace(reference_machine(), id="m2")))
    reg = build_registry(two)
    values = np.zeros(reg.n_columns)
    values[reg.col("x", 0, 0, 1)] = 1.0
    values[reg.col("x", 0, 1, 0)] = 1.0
    with pytest.raises(ValueError) as err:
        decode(integral_solution(values), two)
    assert str(err.value) == "part assigned more than once: p1 (job 1 on m2, job 2 on m1)"


def test_decode_rejects_orientation_conflict():
    inst = one_part_instance()
    reg = build_registry(inst)
    values = np.zeros(reg.n_columns)
    values[reg.col("x", 0, 0, 0)] = 1.0
    values[reg.col("y", 0, 0)] = 1.0
    values[reg.col("b", 0)] = 1.0
    values[reg.col("f", 0)] = 1.0
    with pytest.raises(ValueError, match="orientation conflict"):
        decode(integral_solution(values), inst)


def test_decode_maps_tip_binaries_to_orientations():
    inst = ProblemInstance(
        machines=(reference_machine(),),
        parts=(Part("p1", 3.0, 7.0, 11.0, 1.0),),
        jobs_per_machine=1,
    )
    reg = build_registry(inst)
    base = np.zeros(reg.n_columns)
    base[reg.col("x", 0, 0, 0)] = 1.0
    base[reg.col("y", 0, 0)] = 1.0
    base[reg.col("jc", 0, 0)] = 1.0

    flat = decode(integral_solution(base.copy()), inst)
    assert flat.placements[0].orientation.kind is OrientationKind.FLAT
    assert flat.placements[0].orientation.height_mm == 11.0

    tipped = base.copy()
    tipped[reg.col("b", 0)] = 1.0
    length_up = decode(integral_solution(tipped), inst)
    assert length_up.placements[0].orientation.kind is OrientationKind.LENGTH_UP
    assert length_up.placements[0].orientation.height_mm == 7.0

    tipped = base.copy()
    tipped[reg.col("f", 0)] = 1.0
    width_up = decode(integral_solution(tipped), inst)
    assert width_up.placements[0].orientation.kind is OrientationKind.WIDTH_UP
    assert width_up.placements[0].orientation.height_mm == 3.0


def test_decode_requires_values():
    inst = one_part_instance()
    sol = MilpSolution(SolveStatus.Infeasible, None, None, 0.0, 0)
    with pytest.raises(ValueError, match="no values"):
        decode(sol, inst)


def test_recanonicalized_height_never_exceeds_solver_column():
    inst = load_builtin("nine_parts")
    model = build_model(inst, Objective.ZZ)
    sol = solve_milp(model, time_limit_s=60)
    sched = decode(sol, inst)
    ev = evaluate(sched, inst)
    reg = model.registry
    machine = {m.id: k for k, m in enumerate(inst.machines)}
    for job in ev.jobs:
        col = reg.col("jh", job.job_index - 1, machine[job.machine_id])
        assert job.height_mm <= sol.values[col] + 1e-9


def test_solver_evaluator_agreement_small_instances():
    for seed in (1, 2, 3):
        inst = random_instance(seed, n_parts=3)
        for objective in (Objective.Z, Objective.ZZ):
            model = build_model(inst, objective)
            sol = solve_milp(model, time_limit_s=60)
            assert sol.status is SolveStatus.Optimal
            ev = evaluate(decode(sol, inst), inst)
            got = ev.z if objective is Objective.Z else ev.zz
            assert got == pytest.approx(sol.objective, abs=1e-6)


# ----------------------------------------------------------- check_feasible


def test_check_feasible_capacity_entry():
    # footprint 70000 offered to a 62500 plate
    machine = reference_machine()
    inst = ProblemInstance(
        machines=(machine,),
        parts=(
            Part("p1", 200.0, 200.0, 1.0, 1.0),
            Part("p2", 200.0, 150.0, 1.0, 1.0),
        ),
        jobs_per_machine=1,
    )
    sched = flat_single_job(inst, 1.0)
    fams = {v.family for v in check_feasible(sched, inst)}
    assert "plate_capacity" in fams


def test_check_feasible_sequencing_entry():
    inst = ProblemInstance(
        machines=(reference_machine(),),
        parts=(Part("p1", 10.0, 10.0, 10.0, 1.0), Part("p2", 10.0, 10.0, 10.0, 2.0)),
        jobs_per_machine=2,
    )
    mid = "m1"
    placements = (
        Placement("p1", mid, 1, orientation_for(inst.parts[0], OrientationKind.FLAT)),
        Placement("p2", mid, 2, orientation_for(inst.parts[1], OrientationKind.FLAT)),
    )
    # job 2 completes before job 1 plus its own processing time
    sched = Schedule(
        placements,
        {(mid, 1): 1.0, (mid, 2): 1.0005},
        frozenset({(mid, 1), (mid, 2)}),
    )
    violations = check_feasible(sched, inst)
    assert [v.family for v in violations] == ["sequencing"]
    assert violations[0].subjects == ("job 2 on m1",)


def test_check_feasible_assignment_and_activation():
    inst = ProblemInstance(
        machines=(reference_machine(),),
        parts=(Part("p1", 10.0, 10.0, 10.0, 1.0), Part("p2", 10.0, 10.0, 10.0, 1.0)),
        jobs_per_machine=2,
    )
    ori = orientation_for(inst.parts[0], OrientationKind.FLAT)
    # p2 missing, p1 placed in a job that was never activated
    sched = Schedule(
        (Placement("p1", "m1", 1, ori),), {("m1", 1): 1.0}, frozenset()
    )
    fams = {v.family for v in check_feasible(sched, inst)}
    assert "assignment" in fams
    assert "activation" in fams


def test_check_feasible_reports_unknown_part():
    # a placement for a part the instance lacks is reported, not raised
    inst = random_instance(0)
    sched = decode(solve_milp(build_model(inst, Objective.Z)), inst)
    ghost = replace(sched.placements[0], part_id="ghost")
    assert check_feasible(replace(sched, placements=sched.placements + (ghost,)), inst) == [
        Violation("assignment", ("ghost",))
    ]
    # so is a part or an activated job on a machine the instance lacks
    moved = replace(sched.placements[0], machine_id="ghost_m")
    astray = replace(sched, placements=(moved,) + sched.placements[1:])
    assert check_feasible(astray, inst) == [
        Violation("assignment", (moved.part_id,)),
        Violation("activation", ("job 1 on ghost_m",)),
    ]
    extra = replace(sched, activated=sched.activated | {("ghost_m", 1)})
    assert check_feasible(extra, inst) == [Violation("activation", ("job 1 on ghost_m",))]
    # evaluate names the placement or job instead
    ghostly = replace(sched, placements=sched.placements + (ghost,))
    with pytest.raises(ValueError, match=f"placement of ghost in job {ghost.job_index} on "
                                         f"{ghost.machine_id}: the instance has no part ghost$"):
        evaluate(ghostly, inst)
    with pytest.raises(ValueError, match=f"placement of {moved.part_id} in job {moved.job_index} "
                                         "on ghost_m: the instance has no machine ghost_m$"):
        evaluate(astray, inst)
    with pytest.raises(ValueError, match="activated job 1 on ghost_m: the instance has no machine ghost_m$"):
        evaluate(extra, inst)


def test_check_feasible_contiguity_entry():
    inst = ProblemInstance(
        machines=(reference_machine(),),
        parts=(Part("p1", 10.0, 10.0, 10.0, 1.0),),
        jobs_per_machine=2,
    )
    ori = orientation_for(inst.parts[0], OrientationKind.FLAT)
    sched = Schedule(
        (Placement("p1", "m1", 2, ori),),
        {("m1", 2): 1.0},
        frozenset({("m1", 2)}),
    )
    fams = {v.family for v in check_feasible(sched, inst)}
    assert "contiguity" in fams


def test_check_feasible_height_entry():
    machine = MachineSpec("m1", 250.0, 250.0, 15.0, 0.00006, 0.000003)
    inst = ProblemInstance(
        machines=(machine,),
        parts=(Part("p1", 10.0, 10.0, 20.0, 1.0),),
        jobs_per_machine=1,
    )
    sched = flat_single_job(inst, 1.0)  # flat pose stands 20 > 15
    fams = {v.family for v in check_feasible(sched, inst)}
    assert "machine_height" in fams


def test_check_feasible_accepts_solver_output():
    inst = load_builtin("nine_parts")
    sol = solve_milp(build_model(inst, Objective.ZZ), time_limit_s=60)
    assert check_feasible(decode(sol, inst), inst) == []


@pytest.mark.parametrize("objective", [np.nan, np.inf])
def test_accept_refuses_a_non_finite_objective(objective):
    # |value - nan| > TOL is False, so the gate must ask for <= TOL instead
    model = build_model(random_instance(1), Objective.Z)
    sol = solve_milp(model)
    accept(sol, model)
    with pytest.raises(ValueError, match="evaluator disagrees with solver"):
        accept(replace(sol, objective=objective), model)


# ---------------------------------------------------------------- CSV


@cache
def solved_schedules() -> tuple[tuple[ProblemInstance, Schedule], ...]:
    # time- and area-optimal plans; seed 2's area optimum fills its plates
    out = []
    for seed in (2, 3, 4):
        inst = random_instance(seed, n_parts=5, jobs_per_machine=2)
        for objective in Objective:
            sol = solve_milp(build_model(inst, objective), time_limit_s=60)
            out.append((inst, decode(sol, inst)))
    return tuple(out)


@st.composite
def perturbed_schedules(draw):
    """A solver schedule with one completion shifted, one part moved to
    another job, or one part's orientation swapped."""
    inst, sched = draw(st.sampled_from(solved_schedules()))
    kind = draw(st.sampled_from(("shift", "move", "orient")))
    if kind == "shift":
        key = draw(st.sampled_from(sorted(sched.completions)))
        delta = draw(st.floats(-30.0, 30.0, allow_nan=False))
        return inst, replace(sched, completions={**sched.completions, key: sched.completions[key] + delta})
    k = draw(st.integers(0, len(sched.placements) - 1))
    pl = sched.placements[k]
    if kind == "move":
        machine = draw(st.sampled_from(inst.machines)).id
        pl = replace(pl, machine_id=machine, job_index=draw(st.integers(1, inst.jobs_per_machine)))
    else:
        part = next(p for p in inst.parts if p.id == pl.part_id)
        pl = replace(pl, orientation=orientation_for(part, draw(st.sampled_from(OrientationKind))))
    return inst, replace(sched, placements=sched.placements[:k] + (pl,) + sched.placements[k + 1:])


@settings(max_examples=150, deadline=None)
@given(perturbed_schedules())
def test_evaluate_and_check_feasible_agree(case):
    inst, sched = case
    families = {v.family for v in check_feasible(sched, inst)}
    breaks = families & {"plate_capacity", "sequencing"}
    try:
        ev = evaluate(sched, inst)
    except ValueError:
        assert breaks
        return
    assert not breaks
    machines = {m.id: m for m in inst.machines}
    parts = {p.id: p for p in inst.parts}
    assert ev.jobs == tuple(_job_pass(sched, machines, parts)[0])


def test_schedule_csv_round_trip(tmp_path):
    inst = one_part_instance()
    sol = solve_milp(build_model(inst, Objective.Z))
    sched = decode(sol, inst)
    ev = evaluate(sched, inst)
    out = tmp_path / "sched.csv"
    stamp = f"instance={instance_hash(inst)} objective=z"
    write_schedule_csv(sched, ev, out, params=stamp)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# printplan=")
    assert lines[0].endswith(" " + stamp)
    assert lines[1] == (
        "part_id,machine_id,job_index,orientation,height_mm,base_area_mm2,"
        "completion_h,due_h,earliness_h,tardiness_h"
    )
    row = lines[2].split(",")
    assert row[0] == "p1"
    assert row[1] == "m1"
    assert row[2] == "1"
    assert float(row[6]) == pytest.approx(1.0)
    # byte-stable: writing again produces identical content
    again = tmp_path / "again.csv"
    write_schedule_csv(sched, ev, again, params=stamp)
    assert again.read_text() == out.read_text()
