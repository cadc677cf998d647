"""Branch-and-bound behavior, bound propagation, solution file round trips."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from printplan.datasets import load_builtin, random_instance
from printplan.evaluate import decode, evaluate
from printplan.instance import MachineSpec, Part, PenaltyCoefficients, ProblemInstance
from printplan.model import Objective, build_model, inject_epsilon
from printplan.solver import (
    MilpSolution,
    SolveParams,
    SolveStatus,
    _Propagator,
    _is_feasible,
    parse_external_solution,
    solve_milp,
    write_solution,
)


def tiny_instance(jobs=2):
    machine = MachineSpec(
        id="m1", width_mm=60.0, length_mm=60.0, height_mm=60.0,
        layer_time_h_per_mm=0.02, volumetric_time_h_per_mm3=1e-5,
    )
    parts = (
        Part(id="p1", width_mm=10.0, length_mm=20.0, height_mm=30.0, due_h=4.0),
        Part(id="p2", width_mm=15.0, length_mm=15.0, height_mm=15.0, due_h=2.0),
    )
    return ProblemInstance(
        machines=(machine,), parts=parts,
        penalties=PenaltyCoefficients(earliness=1.0, tardiness=2.0),
        jobs_per_machine=jobs,
    )


def infeasible_instance():
    machine = MachineSpec(
        id="m1", width_mm=100.0, length_mm=100.0, height_mm=200.0,
        layer_time_h_per_mm=0.01, volumetric_time_h_per_mm3=3e-5,
    )
    parts = (
        Part(id="p1", width_mm=80.0, length_mm=80.0, height_mm=80.0, due_h=10.0),
        Part(id="p2", width_mm=80.0, length_mm=80.0, height_mm=80.0, due_h=10.0),
    )
    return ProblemInstance(
        machines=(machine,), parts=parts,
        penalties=PenaltyCoefficients(earliness=1.0, tardiness=1.0),
        jobs_per_machine=1,
    )


# end-to-end solves


def test_optimal_solve_reports_closed_gap():
    sol = solve_milp(build_model(tiny_instance(), Objective.Z))
    assert sol.status is SolveStatus.Optimal
    assert sol.ok
    assert sol.gap == 0.0
    assert sol.bound == pytest.approx(sol.objective, abs=1e-9)
    assert sol.node_count >= 1
    assert sol.objective >= -1e-9


def test_infeasible_model_is_reported():
    sol = solve_milp(build_model(infeasible_instance(), Objective.Z))
    assert sol.status is SolveStatus.Infeasible
    assert sol.values is None
    assert not sol.ok


def test_time_limit_without_incumbent():
    model = build_model(load_builtin("nine_parts"), Objective.Z)
    sol = solve_milp(model, SolveParams(time_limit_s=1e-9))
    assert sol.status is SolveStatus.TimeLimit
    assert sol.values is None


def test_nine_part_area_solve_hits_reference_area(nine_parts):
    sol = solve_milp(build_model(nine_parts, Objective.ZZ))
    assert sol.status is SolveStatus.Optimal
    assert sol.objective == pytest.approx(59987.46, abs=1e-6)


def test_warm_start_seeds_the_incumbent():
    model = build_model(tiny_instance(), Objective.Z)
    cold = solve_milp(model)
    warm = solve_milp(model, warm_values=[cold.values])
    assert warm.status is SolveStatus.Optimal
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
    assert warm.node_count <= cold.node_count


def test_wrong_objective_warm_vector_is_ignored():
    model = build_model(tiny_instance(), Objective.Z)
    junk = np.full(model.registry.n_columns, 0.5)  # fractional, not feasible
    sol = solve_milp(model, warm_values=[junk])
    assert sol.status is SolveStatus.Optimal


def test_warm_vector_leaking_through_big_m_rows_is_polished():
    # one job and both parts due before it can finish: each part is late,
    # so pulling its lc column below jc lowers the cost
    base = tiny_instance(jobs=1)
    inst = replace(base, parts=tuple(replace(p, due_h=0.1) for p in base.parts))
    model = build_model(inst, Objective.Z)
    exact = solve_milp(model)
    assert exact.status is SolveStatus.Optimal

    # binaries just inside the integrality tolerance leave the row
    # lc >= jc - horizon * (1 - x) a slack of horizon * (1 - x)
    reg = model.registry
    int_tol = SolveParams().integrality_tolerance
    slip = 0.9 * int_tol
    drop = model.big_m.horizon * slip
    leaky = exact.values.copy()
    for i in range(len(inst.parts)):
        assert leaky[reg.col("t", i)] > drop
        leaky[reg.col("x", i, 0, 0)] = 1.0 - slip
        leaky[reg.col("la", i, 0, 0)] *= 1.0 - slip  # la <= area * x
        for col in (reg.col("lc", i, 0, 0), reg.col("pc", i), reg.col("t", i)):
            leaky[col] -= drop
    a, senses, rhs = model.dense_rows()
    lo, up = reg.bounds()
    assert _is_feasible(leaky, a, senses, rhs, lo, up, reg.binary_columns(), int_tol)
    assert model.objective @ leaky < exact.objective - 1e-7

    sol = solve_milp(model, warm_values=[leaky])
    assert sol.status is SolveStatus.Optimal
    ev = evaluate(decode(sol, inst), inst)
    assert sol.objective == pytest.approx(ev.z, abs=1e-9)
    assert sol.objective == pytest.approx(exact.objective, abs=1e-9)


def test_epsilon_cap_binds():
    inst = random_instance(0)
    free = solve_milp(build_model(inst, Objective.ZZ))
    model = build_model(inst, Objective.Z)
    capped = solve_milp(inject_epsilon(model, free.objective + 0.5))
    assert capped.status is SolveStatus.Optimal
    zz = model.objective_value(capped.values, Objective.ZZ)
    assert zz <= free.objective + 0.5 + 1e-6


# bound propagation


def test_propagator_fixes_implied_binary():
    # x1 + x2 <= 1 with x1 forced on leaves no room for x2
    a = np.array([[1.0, 1.0]])
    prop = _Propagator(a, ["<"], np.array([1.0]), [0, 1])
    lo = np.array([1.0, 0.0])
    up = np.array([1.0, 1.0])
    assert prop.run(lo, up)
    assert up[1] == 0.0


def test_propagator_detects_infeasible_row():
    a = np.array([[1.0, 1.0]])
    prop = _Propagator(a, ["<"], np.array([1.0]), [0, 1])
    lo = np.array([1.0, 1.0])
    up = np.array([1.0, 1.0])
    assert not prop.run(lo, up)


def test_propagator_raises_lower_bounds_through_equalities():
    # x1 + x2 = 2 with unit boxes forces both to one
    a = np.array([[1.0, 1.0]])
    prop = _Propagator(a, ["="], np.array([2.0]), [0, 1])
    lo = np.array([0.0, 0.0])
    up = np.array([1.0, 1.0])
    assert prop.run(lo, up)
    assert lo[0] == 1.0 and lo[1] == 1.0


def test_propagator_tolerates_infinite_bounds():
    # x1 - x2 <= 0 with x2 unbounded must not poison other columns
    a = np.array([[1.0, -1.0], [1.0, 0.0]])
    prop = _Propagator(a, ["<", "<"], np.array([0.0, 5.0]), [])
    lo = np.array([0.0, 0.0])
    up = np.array([np.inf, np.inf])
    assert prop.run(lo, up)
    assert up[0] <= 5.0 + 1e-9
    assert np.isinf(up[1])


# solution file round trips


def test_solution_round_trip():
    model = build_model(tiny_instance(), Objective.Z)
    sol = solve_milp(model)
    text = write_solution(sol, model)
    back = parse_external_solution(text, model)
    assert back.status is SolveStatus.Optimal
    assert back.objective == pytest.approx(sol.objective, abs=1e-9)
    np.testing.assert_allclose(back.values, sol.values, atol=1e-9)


def test_parse_rejects_bad_inputs():
    model = build_model(tiny_instance(), Objective.Z)
    with pytest.raises(ValueError, match="missing header"):
        parse_external_solution("# only a comment\n", model)
    with pytest.raises(ValueError, match="header must be"):
        parse_external_solution("OPTIMAL\n", model)
    with pytest.raises(ValueError, match="unknown status"):
        parse_external_solution("GREAT 0\n", model)
    with pytest.raises(ValueError, match="unparsable objective"):
        parse_external_solution("OPTIMAL twelve\n", model)
    with pytest.raises(ValueError, match="malformed solution line"):
        parse_external_solution("OPTIMAL 0\nx_i1_j1_m1 1 extra\n", model)
    with pytest.raises(KeyError, match="unknown variable"):
        parse_external_solution("OPTIMAL 0\nbogus_name 1\n", model)
    with pytest.raises(ValueError, match="unparsable value"):
        parse_external_solution("OPTIMAL 0\nx_i1_j1_m1 one\n", model)


def test_parse_infeasible_has_no_values():
    model = build_model(tiny_instance(), Objective.Z)
    sol = parse_external_solution("INFEASIBLE nan\n", model)
    assert sol.status is SolveStatus.Infeasible
    assert sol.values is None


def test_write_solution_without_values():
    model = build_model(tiny_instance(), Objective.Z)
    empty = MilpSolution(SolveStatus.TimeLimit, None, None, -np.inf, np.inf, 0, 0.0)
    assert write_solution(empty, model) == "TIME_LIMIT nan\n"
