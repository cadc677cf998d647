"""Command line behavior: exit codes, file outputs, solver routing."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from printplan.cli import (
    AUTO_EXTERNAL_BINARIES,
    SweepSpec,
    _check_sweep_dominance,
    _resolve_solver,
    main,
    run_sweep,
)
from printplan.datasets import random_instance
from printplan.model import Objective, build_model
from printplan.pareto import pareto_front
from printplan.solver import SolveParams, solve_milp, write_solution
import click


@pytest.fixture
def runner():
    return CliRunner()


def write_instance(path: Path, doc: dict) -> Path:
    target = path / "instance.json"
    target.write_text(json.dumps(doc))
    return target


TIGHT_DOC = {
    "machines": [
        {"id": "m1", "width_mm": 100, "length_mm": 100, "height_mm": 200,
         "layer_time_h_per_mm": 0.01, "volumetric_time_h_per_mm3": 3e-5},
    ],
    "parts": [
        {"id": "p1", "width_mm": 80, "length_mm": 80, "height_mm": 80, "due_h": 10},
        {"id": "p2", "width_mm": 80, "length_mm": 80, "height_mm": 80, "due_h": 10},
    ],
    "penalties": {"earliness": 1, "tardiness": 1},
    "jobs_per_machine": 1,
}


# exit codes


def test_empty_part_set_exits_2(runner, tmp_path):
    doc = {**TIGHT_DOC, "parts": []}
    path = write_instance(tmp_path, doc)
    result = runner.invoke(main, ["solve", "--instance", str(path), "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "empty part set" in result.output


def test_unfittable_part_exits_2(runner, tmp_path):
    doc = {**TIGHT_DOC, "parts": [
        {"id": "p1", "width_mm": 300, "length_mm": 300, "height_mm": 300, "due_h": 10},
    ]}
    path = write_instance(tmp_path, doc)
    result = runner.invoke(main, ["solve", "--instance", str(path), "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "p1" in result.output


def test_infeasible_model_exits_3(runner, tmp_path):
    # both parts fit alone but not together, and only one job slot exists
    path = write_instance(tmp_path, TIGHT_DOC)
    result = runner.invoke(main, ["solve", "--instance", str(path), "--out", str(tmp_path)])
    assert result.exit_code == 3
    assert "infeasible" in result.output


def test_time_limit_without_incumbent_exits_4(runner, tmp_path):
    result = runner.invoke(
        main,
        ["solve", "--instance", "nine_parts", "--time-limit", "1e-9", "--out", str(tmp_path)],
    )
    assert result.exit_code == 4
    assert "time limit" in result.output


def test_unknown_builtin_is_treated_as_path(runner, tmp_path):
    result = runner.invoke(main, ["solve", "--instance", "no_such_file.json", "--out", str(tmp_path)])
    assert result.exit_code == 2


@pytest.mark.parametrize("args, option", [
    (["pareto", "--instance", "nine_parts", "--epsilon-count", "0"], "--epsilon-count"),
    (["sweep", "--instance", "random", "--parameter", "layer_time", "--values", "0.1",
      "--threads", "0"], "--threads"),
], ids=["epsilon-count", "threads"])
def test_count_below_one_exits_2_before_solving(runner, tmp_path, args, option):
    result = runner.invoke(main, args + ["--out", str(tmp_path)])
    assert result.exit_code == 2
    assert option in result.output
    assert not list(tmp_path.glob("*.csv"))


# solve command


def test_solve_writes_schedule_and_evaluation(runner, tmp_path):
    result = runner.invoke(
        main,
        ["solve", "--instance", "nine_parts", "--objective", "zz", "--out", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    assert "status: optimal" in result.output
    assert "zz_mm2: 59987.460000" in result.output

    schedule = (tmp_path / "schedule.csv").read_text()
    assert schedule.startswith("# printplan=")
    assert "part_id" in schedule

    evaluation = (tmp_path / "evaluation.csv").read_text()
    assert "# totals z_hours=" in evaluation
    assert "zz_mm2=59987.460000" in evaluation
    assert "machine_id,job_index,part_count" in evaluation


def test_solve_outputs_are_byte_stable(runner, tmp_path):
    args = ["solve", "--instance", "random", "--seed", "4", "--objective", "z"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        result = runner.invoke(main, args + ["--out", str(out)])
        assert result.exit_code == 0, result.output
    assert (out_a / "schedule.csv").read_bytes() == (out_b / "schedule.csv").read_bytes()
    assert (out_a / "evaluation.csv").read_bytes() == (out_b / "evaluation.csv").read_bytes()


def test_fixed_orientation_never_beats_free(runner, tmp_path):
    costs = {}
    for flag, tag in ((["--fixed-orientation"], "fixed"), ([], "free")):
        out = tmp_path / tag
        result = runner.invoke(
            main,
            ["solve", "--instance", "random", "--seed", "2", "--objective", "z", "--out", str(out)] + flag,
        )
        assert result.exit_code == 0, result.output
        line = next(l for l in result.output.splitlines() if l.startswith("z_hours:"))
        costs[tag] = float(line.split(":")[1])
    assert costs["free"] <= costs["fixed"] + 1e-6


def test_jobs_override_restricts_slots(runner, tmp_path):
    # nine_parts ships two job slots per machine; with one slot the
    # area-minimal plan must still be feasible but uses one job per machine
    result = runner.invoke(
        main,
        ["solve", "--instance", "nine_parts", "--jobs", "1", "--objective", "zz", "--out", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    assert "zz_mm2: 59987.460000" in result.output


# solver routing


def test_resolve_solver_rules(monkeypatch):
    monkeypatch.delenv("PRINTPLAN_SOLVER", raising=False)
    assert _resolve_solver(None, AUTO_EXTERNAL_BINARIES) == "builtin"
    assert _resolve_solver(None, AUTO_EXTERNAL_BINARIES + 1) == "external"
    assert _resolve_solver("builtin", 10_000) == "builtin"
    assert _resolve_solver("external", 3) == "external"
    monkeypatch.setenv("PRINTPLAN_SOLVER", "external")
    assert _resolve_solver("builtin", 3) == "external"


def test_env_override_forces_external_pending(runner, tmp_path):
    result = runner.invoke(
        main,
        ["solve", "--instance", "random", "--seed", "1", "--out", str(tmp_path)],
        env={"PRINTPLAN_SOLVER": "external"},
    )
    assert result.exit_code == 0, result.output
    assert "pending_external" in result.output
    lp = tmp_path / "model.lp"
    assert lp.exists()
    assert lp.read_text().startswith("\\ printplan") or "Minimize" in lp.read_text()


def test_external_solution_read_back_matches_builtin(runner, tmp_path):
    inst = random_instance(1)
    model = build_model(inst, Objective.Z)
    builtin = solve_milp(model)
    sol_path = tmp_path / "model.sol"
    sol_path.write_text(write_solution(builtin, model))

    result = runner.invoke(
        main,
        ["solve", "--instance", "random", "--seed", "1", "--solver", "external",
         "--solution-in", str(sol_path), "--out", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    assert "status: optimal" in result.output
    line = next(l for l in result.output.splitlines() if l.startswith("z_hours:"))
    assert abs(float(line.split(":")[1]) - builtin.objective) <= 1e-6


def test_auto_external_above_binary_threshold(runner, tmp_path):
    # ten twenty-part prefixes on one machine carry 130 binaries, above the cutoff
    result = runner.invoke(
        main,
        ["scenario", "--instance", "twenty_parts", "--machines", "1",
         "--parts-prefix", "10", "--out", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    rows = (tmp_path / "scenario.csv").read_text().splitlines()
    assert rows[-1].endswith("pending_external,pending_external")
    assert (tmp_path / "scenario_p10_free.lp").exists()
    assert (tmp_path / "scenario_p10_fixed.lp").exists()


# pareto command


def test_pareto_writes_front_and_point_schedules(runner, tmp_path):
    result = runner.invoke(
        main,
        ["pareto", "--instance", "random", "--seed", "0", "--epsilon-count", "4",
         "--out", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output

    front_csv = (tmp_path / "front.csv").read_text()
    assert "# payoff z_ideal=" in front_csv
    assert "epsilon,z_hours,zz_mm2,status,schedule_file" in front_csv

    dat = (tmp_path / "front.dat").read_text().splitlines()
    assert dat[0] == "# zz_mm2 z_hours"

    # every solved attempt points at a schedule file that exists
    for line in front_csv.splitlines():
        if line.startswith("#") or line.startswith("epsilon"):
            continue
        schedule_file = line.rsplit(",", 1)[1]
        if schedule_file:
            assert (tmp_path / schedule_file).exists()

    # numbers agree with calling the library directly
    front = pareto_front(random_instance(0), grid_count=4)
    expected = [(p.zz, p.z) for p in front.points]
    got = [tuple(map(float, l.split())) for l in dat[1:]]
    assert len(got) == len(expected)
    for (zz_e, z_e), (zz_g, z_g) in zip(expected, got):
        assert abs(zz_e - zz_g) <= 1e-5
        assert abs(z_e - z_g) <= 1e-5


def test_pareto_infeasible_instance_exits_3(runner, tmp_path):
    path = write_instance(tmp_path, TIGHT_DOC)
    result = runner.invoke(main, ["pareto", "--instance", str(path), "--out", str(tmp_path)])
    assert result.exit_code == 3


def test_pareto_has_no_external_solver_path(runner, tmp_path):
    # the front always runs the builtin solver, so it takes no --solver
    result = runner.invoke(
        main,
        ["pareto", "--instance", "random", "--seed", "0", "--solver", "external",
         "--out", str(tmp_path)],
    )
    assert result.exit_code == 2
    assert "--solver" in result.output
    assert not list(tmp_path.glob("*.lp"))


# scenario command


def test_scenario_rows_and_dominance(runner, tmp_path):
    result = runner.invoke(
        main,
        ["scenario", "--instance", "twenty_parts", "--machines", "1",
         "--parts-prefix", "2,4", "--threads", "2", "--out", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "scenario.csv").read_text().splitlines()
    assert lines[1] == "parts_prefix,z_free_orientation,z_fixed_orientation,status_free,status_fixed"
    body = [l.split(",") for l in lines[2:]]
    assert [row[0] for row in body] == ["2", "4"]
    for row in body:
        assert row[3] == row[4] == "optimal"
        assert float(row[1]) <= float(row[2]) + 1e-6


def test_scenario_rejects_bad_prefix_list(runner, tmp_path):
    result = runner.invoke(
        main,
        ["scenario", "--instance", "twenty_parts", "--parts-prefix", "2,x", "--out", str(tmp_path)],
    )
    assert result.exit_code != 0
    assert "comma-separated integers" in result.output


# sweep command


def test_sweep_matches_direct_solve(runner, tmp_path):
    result = runner.invoke(
        main,
        ["sweep", "--instance", "random", "--seed", "3", "--parameter", "layer_time",
         "--values", "0.05", "--scenario", "free_orientation", "--out", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    row = (tmp_path / "sweep.csv").read_text().splitlines()[-1].split(",")
    assert row[:3] == ["layer_time", "0.05", "free_orientation"]
    assert row[4] == "optimal"

    from dataclasses import replace
    inst = random_instance(3)
    inst = type(inst)(
        machines=tuple(replace(m, layer_time_h_per_mm=0.05) for m in inst.machines),
        parts=inst.parts,
        penalties=inst.penalties,
        jobs_per_machine=inst.jobs_per_machine,
    )
    direct = solve_milp(build_model(inst, Objective.Z))
    assert abs(float(row[3]) - direct.objective) <= 1e-6


def test_sweep_layer_time_cost_shrinks(runner, tmp_path):
    bodies = {}
    for threads in ("2", "1"):
        out = tmp_path / f"threads{threads}"
        result = runner.invoke(
            main,
            ["sweep", "--instance", "fifteen_parts_time_study", "--machines", "1",
             "--parts-prefix", "3", "--parameter", "layer_time", "--values", "0.1,0.001",
             "--scenario", "both", "--threads", threads, "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        lines = (out / "sweep.csv").read_text().splitlines()
        bodies[threads] = [l for l in lines if not l.startswith("#")]
    # parallel cells write exactly what serial cells write
    assert bodies["2"] == bodies["1"]
    rows = [l.split(",") for l in bodies["2"][1:]]
    z = {(r[1], r[2]): float(r[3]) for r in rows}
    assert z[("0.001", "free_orientation")] <= z[("0.1", "free_orientation")]
    assert z[("0.1", "free_orientation")] <= z[("0.1", "fixed_orientation")] + 1e-6


def test_sweep_machine_area_marks_too_small_invalid(runner, tmp_path):
    # area 1 mm2 cannot hold any part footprint; the cell is marked, not fatal
    result = runner.invoke(
        main,
        ["sweep", "--instance", "random", "--seed", "5", "--parameter", "machine_area",
         "--values", "1,100000", "--scenario", "free_orientation", "--out", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    rows = [l.split(",") for l in (tmp_path / "sweep.csv").read_text().splitlines()[2:]]
    status = {r[1]: r[4] for r in rows}
    assert status["1"] == "invalid_instance"
    assert status["100000"] == "optimal"


def test_sweep_part_count_prefix(runner, tmp_path):
    result = runner.invoke(
        main,
        ["sweep", "--instance", "twenty_parts", "--machines", "1", "--jobs", "2",
         "--parameter", "part_count_prefix", "--values", "2,3",
         "--scenario", "free_orientation", "--threads", "2", "--out", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    rows = [l.split(",") for l in (tmp_path / "sweep.csv").read_text().splitlines()[2:]]
    assert [r[1] for r in rows] == ["2", "3"]
    assert all(r[4] == "optimal" for r in rows)


def test_sweep_rejects_nonpositive_dimensional_values(runner, tmp_path):
    result = runner.invoke(
        main,
        ["sweep", "--instance", "random", "--seed", "0", "--parameter", "layer_time",
         "--values", "0.1,-1", "--out", str(tmp_path)],
    )
    assert result.exit_code == 2
    assert "positive" in result.output


# dominance checkers fail loudly on fabricated contradictions


def test_sweep_dominance_check_catches_area_regression():
    spec = SweepSpec("machine_area", (100.0, 200.0), "free_orientation")
    rows = [
        ["machine_area", "100", "free_orientation", "1.000000", "optimal"],
        ["machine_area", "200", "free_orientation", "5.000000", "optimal"],
    ]
    with pytest.raises(click.ClickException, match="larger plate area"):
        _check_sweep_dominance(spec, rows)


def test_sweep_dominance_check_catches_scenario_inversion():
    spec = SweepSpec("layer_time", (0.1,), "both")
    rows = [
        ["layer_time", "0.1", "free_orientation", "9.000000", "optimal"],
        ["layer_time", "0.1", "fixed_orientation", "2.000000", "optimal"],
    ]
    with pytest.raises(click.ClickException, match="restriction dominance"):
        _check_sweep_dominance(spec, rows)


def test_sweep_dominance_check_skips_unsolved_cells():
    spec = SweepSpec("machine_area", (100.0, 200.0), "free_orientation")
    rows = [
        ["machine_area", "100", "free_orientation", "1.000000", "optimal"],
        ["machine_area", "200", "free_orientation", "", "time_limit"],
    ]
    _check_sweep_dominance(spec, rows)


def test_run_sweep_validates_spec():
    inst = random_instance(0)
    params = SolveParams()
    with pytest.raises(ValueError, match="unknown sweep parameter"):
        run_sweep(inst, SweepSpec("nozzle_count", (1.0,)), params, "builtin", Path("."))
    with pytest.raises(ValueError, match="at least one value"):
        run_sweep(inst, SweepSpec("layer_time", ()), params, "builtin", Path("."))
    with pytest.raises(ValueError, match="unknown scenario"):
        run_sweep(inst, SweepSpec("layer_time", (0.1,), "upside_down"), params, "builtin", Path("."))
