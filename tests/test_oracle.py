from __future__ import annotations

import ast
import inspect
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from printplan import oracle

from printplan.datasets import random_instance
from printplan.evaluate import Placement, Schedule, evaluate
from printplan.geometry import orientations
from printplan.instance import MachineSpec, Part, ProblemInstance
from printplan.model import Objective, build_model, inject_epsilon
from printplan.oracle import TimingJob, TimingPart, _chain_timing, brute_force, single_batch_oracle
from printplan.solver import SolveStatus, solve_milp


def reference_machine(mid: str = "m1") -> MachineSpec:
    return MachineSpec(mid, 250.0, 250.0, 200.0, 0.00006, 0.000003)


def timing_cost(jobs, completions) -> float:
    # direct recomputation of the piecewise-linear objective
    total = 0.0
    for job, c in zip(jobs, completions):
        for part in job.parts:
            total += part.earliness_weight * max(0.0, part.due_h - c)
            total += part.tardiness_weight * max(0.0, c - part.due_h)
    return total


# ------------------------------------------------------------- timing


def test_timing_idle_insertion_to_due_date():
    completions, cost = _chain_timing((TimingJob(0.0036, (TimingPart(1.0, 1.0, 1.0),)),))
    assert completions == (1.0,)
    assert cost == pytest.approx(0.0, abs=1e-12)


def test_timing_two_dues_one_job():
    completions, cost = _chain_timing((TimingJob(1.0, (TimingPart(1.0, 1.0, 1.0), TimingPart(2.0, 1.0, 1.0))),))
    assert cost == pytest.approx(1.0)
    assert 1.0 - 1e-9 <= completions[0] <= 2.0 + 1e-9


def test_timing_unavoidable_tardiness_first_job():
    completions, cost = _chain_timing((
        TimingJob(1.0, (TimingPart(0.5, 1.0, 1.0),)),
        TimingJob(1.0, (TimingPart(10.0, 1.0, 1.0),)),
    ))
    assert completions == (1.0, 10.0)
    assert cost == pytest.approx(0.5)


def test_timing_asymmetric_weights():
    # tardiness three times dearer than earliness: park the shared
    # completion at the near due date and eat earliness on the far one
    completions, cost = _chain_timing((
        TimingJob(1.0, (TimingPart(1.0, 1.0, 3.0), TimingPart(3.0, 1.0, 3.0))),
    ))
    assert completions[0] == pytest.approx(1.0)
    assert cost == pytest.approx(2.0)


def test_timing_empty_chain():
    completions, cost = _chain_timing(())
    assert completions == ()
    assert cost == 0.0


@st.composite
def timing_chains(draw):
    n_jobs = draw(st.integers(1, 3))
    jobs = []
    for _ in range(n_jobs):
        p = draw(st.floats(0.0, 5.0))
        n_parts = draw(st.integers(1, 3))
        parts = tuple(
            TimingPart(
                draw(st.floats(0.0, 20.0)),
                draw(st.floats(0.1, 3.0)),
                draw(st.floats(0.1, 3.0)),
            )
            for _ in range(n_parts)
        )
        jobs.append(TimingJob(p, parts))
    return tuple(jobs)


@settings(max_examples=60, deadline=None)
@given(timing_chains(), st.floats(0.01, 2.0))
def test_timing_optimum_beats_perturbations(jobs, delta):
    completions, cost = _chain_timing(jobs)
    cs = list(completions)
    assert timing_cost(jobs, completions) == pytest.approx(cost, abs=1e-7)
    # chain spacing holds
    prev = 0.0
    for job, c in zip(jobs, cs):
        assert c >= prev + job.processing_h - 1e-7
        prev = c
    # local perturbations that stay feasible never improve the cost
    for k in range(len(cs)):
        for sign in (1.0, -1.0):
            trial = list(cs)
            trial[k] += sign * delta
            prev = 0.0
            feasible = True
            for job, c in zip(jobs, trial):
                if c < prev + job.processing_h - 1e-9:
                    feasible = False
                    break
                prev = c
            if feasible:
                assert timing_cost(jobs, trial) >= cost - 1e-7


@st.composite
def chains_with_flat_spots(draw):
    # zero processing glues jobs together; zero earliness weight leaves
    # a part's cost flat before its due date
    jobs = []
    for _ in range(draw(st.integers(1, 4))):
        p = draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
        parts = tuple(
            TimingPart(
                draw(st.floats(0.0, 20.0)),
                draw(st.one_of(st.just(0.0), st.floats(0.1, 3.0))),
                draw(st.floats(0.1, 3.0)),
            )
            for _ in range(draw(st.integers(1, 3)))
        )
        jobs.append(TimingJob(p, parts))
    return tuple(jobs)


def chain_lp_optimum(jobs) -> float:
    """The chain timing LP, solved by scipy: columns C_k, then (e, t) per part."""
    k = len(jobs)
    parts = [(idx, part) for idx, job in enumerate(jobs) for part in job.parts]
    n = k + 2 * len(parts)
    cost = [0.0] * n
    a_ub, b_ub = [], []
    for idx in range(1, k):
        row = [0.0] * n
        row[idx - 1], row[idx] = 1.0, -1.0  # C_{k-1} - C_k <= -P_k
        a_ub.append(row)
        b_ub.append(-jobs[idx].processing_h)
    for pos, (idx, part) in enumerate(parts):
        e_col, t_col = k + 2 * pos, k + 2 * pos + 1
        cost[e_col], cost[t_col] = part.earliness_weight, part.tardiness_weight
        early = [0.0] * n
        early[idx], early[e_col] = -1.0, -1.0  # e >= d - C
        a_ub.append(early)
        b_ub.append(-part.due_h)
        late = [0.0] * n
        late[idx], late[t_col] = 1.0, -1.0  # t >= C - d
        a_ub.append(late)
        b_ub.append(part.due_h)
    bounds = [(jobs[0].processing_h, None)] + [(0.0, None)] * (n - 1)
    # HiGHS's default 1e-7 feasibility tolerances would leave its own
    # optimum up to about 1e-7 off, the whole margin of the comparison
    tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    ref = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs", options=tight)
    assert ref.status == 0
    return ref.fun


@settings(max_examples=200, deadline=None)
@given(chains_with_flat_spots())
def test_timing_matches_an_independent_lp_solver(jobs):
    completions, cost = _chain_timing(jobs)
    assert cost == pytest.approx(chain_lp_optimum(jobs), abs=1e-7)
    # the completions are feasible and attain the reported cost
    assert timing_cost(jobs, completions) == pytest.approx(cost, abs=1e-9)
    prev = 0.0
    for job, c in zip(jobs, completions):
        assert c >= prev + job.processing_h - 1e-9 * max(1.0, c)
        prev = c


def test_oracle_imports_nothing_from_simplex():
    # the oracle is the reference the MILP path is checked against, so it
    # must not share the MILP's LP engine
    for node in ast.walk(ast.parse(inspect.getsource(oracle))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or "", *(alias.name for alias in node.names)]
            assert not any("simplex" in name for name in names)
    assert not [
        name for name, value in vars(oracle).items()
        if getattr(value, "__module__", None) == "printplan.simplex"
    ]


def test_oracle_imports_only_the_data_and_the_evaluator():
    # geometry and instance are the problem data and evaluate prices a
    # schedule from its decisions alone; nothing from model, solver,
    # simplex or pareto, and not decode or accept, may reach the oracle
    allowed = {
        "geometry": None,
        "instance": None,
        "evaluate": {"Evaluation", "Placement", "Schedule", "evaluate"},
    }
    for node in ast.walk(ast.parse(inspect.getsource(oracle))):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.module in allowed, node.module
            names = {alias.name for alias in node.names}
            assert allowed[node.module] is None or names <= allowed[node.module], names
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("printplan") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert not node.module.startswith("printplan"), node.module


# -------------------------------------------------------- brute force


def test_two_cube_instance():
    inst = ProblemInstance(
        machines=(reference_machine(),),
        parts=(Part("p1", 10.0, 10.0, 10.0, 1.0), Part("p2", 10.0, 10.0, 10.0, 2.0)),
        jobs_per_machine=1,
    )
    res = brute_force(inst)
    assert res.min_z.z == pytest.approx(1.0)


def test_empty_instance():
    inst = ProblemInstance(machines=(reference_machine(),), parts=())
    res = brute_force(inst)
    assert res.min_z.z == 0.0
    assert res.min_zz.zz == 0.0


def test_rejects_oversized_instance():
    inst = random_instance(11, n_parts=7)
    with pytest.raises(ValueError, match="brute-force limit") as err:
        brute_force(inst)
    assert "candidate schedules" in str(err.value)


def test_front_is_nondominated_and_sorted():
    inst = random_instance(0)
    res = brute_force(inst)
    zs = [p.z for p in res.points]
    zzs = [p.zz for p in res.points]
    assert zzs == sorted(zzs)
    assert zs == sorted(zs, reverse=True)
    assert res.constrained(res.min_zz.zz).z == pytest.approx(res.min_zz.z)
    assert res.constrained(res.min_zz.zz - 1.0) is None
    assert res.constrained(math.inf).z == pytest.approx(res.min_z.z)


def test_oracle_schedules_are_feasible_and_consistent():
    inst = random_instance(4)
    res = brute_force(inst)
    for point in res.points:
        ev = evaluate(point.schedule, inst)
        assert ev.z == pytest.approx(point.z, abs=1e-9)
        assert ev.zz == pytest.approx(point.zz, abs=1e-9)


def test_oracle_beats_handmade_feasible_schedule():
    inst = ProblemInstance(
        machines=(reference_machine(),),
        parts=(
            Part("p1", 20.0, 30.0, 10.0, 4.0),
            Part("p2", 15.0, 15.0, 40.0, 9.0),
            Part("p3", 10.0, 25.0, 5.0, 9.0),
        ),
        jobs_per_machine=2,
    )
    # everything flat in one job, completing at the latest due date
    placements = tuple(
        Placement(p.id, "m1", 1, orientations(p)[0])
        for p in inst.parts
    )
    sched = Schedule(placements, {("m1", 1): 9.0}, frozenset({("m1", 1)}))
    ev = evaluate(sched, inst)
    res = brute_force(inst)
    assert res.min_z.z <= ev.z + 1e-9
    assert res.min_zz.zz <= ev.zz + 1e-9


def test_agrees_with_milp_on_seeded_instances():
    for seed in (0, 3, 5, 7):
        inst = random_instance(seed)
        res = brute_force(inst)
        sol_z = solve_milp(build_model(inst, Objective.Z), time_limit_s=120)
        sol_zz = solve_milp(build_model(inst, Objective.ZZ), time_limit_s=120)
        assert sol_z.status is SolveStatus.Optimal
        assert sol_z.objective == pytest.approx(res.min_z.z, abs=1e-6)
        assert sol_zz.objective == pytest.approx(res.min_zz.zz, abs=1e-6)


def test_epsilon_constrained_agrees_with_milp():
    inst = random_instance(0)
    res = brute_force(inst)
    lo, hi = res.min_zz.zz, res.min_z.zz
    for frac in (0.25, 0.5, 0.75):
        eps = lo + frac * (hi - lo)
        want = res.constrained(eps)
        model = inject_epsilon(build_model(inst, Objective.Z), eps)
        got = solve_milp(model, time_limit_s=120)
        assert got.status is SolveStatus.Optimal
        assert got.objective == pytest.approx(want.z, abs=1e-6)


@pytest.mark.parametrize("seed", [0, 5, 6])
@pytest.mark.parametrize("layer_time", [1e9, 1e12])
def test_bookkeeping_check_scales_with_the_objective(seed, layer_time):
    # at these layer times z reaches 1e11 and more, where the oracle's sums
    # and the evaluator's round apart by more than an absolute 1e-6
    base = random_instance(seed)
    inst = replace(base, machines=tuple(replace(m, layer_time_h_per_mm=layer_time) for m in base.machines))
    res = brute_force(inst)
    assert res.min_z.z > 1e9
    for point in res.points:
        ev = evaluate(point.schedule, inst)
        assert (ev.z, ev.zz) == (point.z, point.zz)


def test_identical_machines_canonical_witness():
    inst = ProblemInstance(
        machines=(reference_machine("m1"), reference_machine("m2")),
        parts=(Part("p1", 10.0, 10.0, 10.0, 2.0), Part("p2", 12.0, 12.0, 12.0, 6.0)),
        jobs_per_machine=1,
    )
    res = brute_force(inst)
    for point in res.points:
        first = next(pl for pl in point.schedule.placements if pl.part_id == "p1")
        assert first.machine_id == "m1"


def test_infeasible_when_nothing_fits():
    tiny = MachineSpec("m1", 5.0, 5.0, 5.0, 0.0001, 0.000001)
    inst = ProblemInstance(
        machines=(tiny,),
        parts=(Part("p1", 10.0, 10.0, 10.0, 1.0),),
        jobs_per_machine=1,
    )
    with pytest.raises(ValueError, match="no feasible schedule"):
        brute_force(inst)


# ------------------------------------------------------- single batch


def test_single_batch_packs_widest_footprints(nine_parts):
    ev, sched = single_batch_oracle(nine_parts, mode="min_zz")
    occupied = sum(job.occupied_mm2 for job in ev.jobs)
    assert occupied == pytest.approx(2512.54, abs=1e-9)
    assert ev.zz == pytest.approx(59987.46, abs=1e-9)
    assert len(sched.activated) == 1


def test_single_batch_shared_completion_is_weighted_median(nine_parts):
    # one shared completion against dues {22,24,24,24,26,26,28,28,28}:
    # the deviation sum is minimized at C = 26 with total 16 h
    ev, sched = single_batch_oracle(nine_parts, mode="min_zz")
    completion = next(iter(sched.completions.values()))
    assert completion == pytest.approx(26.0)
    assert ev.z == pytest.approx(16.0)
    dues = [p.due_h for p in nine_parts.parts]
    for c in (22.0, 24.0, 25.0, 27.0, 28.0):
        assert sum(abs(c - d) for d in dues) >= ev.z - 1e-9


def test_single_batch_min_z_mode(nine_parts):
    ev, _ = single_batch_oracle(nine_parts, mode="min_z")
    # processing time is far below the earliest due date, so no
    # orientation choice can beat the shared-completion optimum
    assert ev.z == pytest.approx(16.0)


def test_single_batch_single_part():
    inst = ProblemInstance(
        machines=(reference_machine(),),
        parts=(Part("p1", 10.0, 10.0, 10.0, 3.0),),
        jobs_per_machine=1,
    )
    ev, sched = single_batch_oracle(inst)
    assert sched.completions[("m1", 1)] == pytest.approx(3.0)
    assert ev.z == pytest.approx(0.0, abs=1e-12)


def test_single_batch_matches_brute_force_min_zz():
    inst = random_instance(5, jobs_per_machine=1, n_machines=1)
    res = brute_force(inst)
    ev, _ = single_batch_oracle(inst, mode="min_zz")
    assert ev.zz == pytest.approx(res.min_zz.zz, abs=1e-9)


def test_single_batch_infeasible_report():
    small = MachineSpec("m1", 12.0, 12.0, 100.0, 0.0001, 0.000001)
    inst = ProblemInstance(
        machines=(small,),
        parts=(
            Part("p1", 10.0, 10.0, 10.0, 1.0),
            Part("p2", 10.0, 10.0, 10.0, 2.0),
        ),
        jobs_per_machine=1,
    )
    with pytest.raises(ValueError, match="single batch infeasible") as err:
        single_batch_oracle(inst)
    assert "exceed" in str(err.value)


def test_single_batch_rejects_unknown_mode(nine_parts):
    with pytest.raises(ValueError, match="unknown mode"):
        single_batch_oracle(nine_parts, mode="best")
