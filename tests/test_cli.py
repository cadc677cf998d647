"""Command line behavior: exit codes, file outputs, solver routing."""

from __future__ import annotations

import ast
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from click.testing import CliRunner

import printplan.cli
import printplan.pareto
from printplan.cli import (
    AUTO_EXTERNAL_BINARIES,
    _check_sweep_dominance,
    _resolve_solver,
    main,
    run_sweep,
)
from printplan import __version__
from printplan.datasets import load_builtin, part_prefix, random_instance, with_machine_count
from printplan.instance import instance_hash
from printplan.model import Objective, build_model
from printplan.pareto import pareto_front
from printplan.solver import MilpSolution, SolveStatus, solve_milp, write_solution
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


def test_scenario_unfittable_part_exits_2(runner, tmp_path):
    doc = {**TIGHT_DOC, "parts": [
        {"id": "p1", "width_mm": 300, "length_mm": 300, "height_mm": 300, "due_h": 10},
    ]}
    path = write_instance(tmp_path, doc)
    out = tmp_path / "out"
    result = runner.invoke(main, ["scenario", "--instance", str(path), "--parts-prefix", "1",
                                  "--out", str(out)])
    assert result.exit_code == 2
    assert "p1" in result.output
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("args, option", [
    (["pareto", "--instance", "nine_parts", "--epsilon-count", "0"], "--epsilon-count"),
], ids=["epsilon-count"])
def test_count_below_one_exits_2_before_solving(runner, tmp_path, args, option):
    result = runner.invoke(main, args + ["--out", str(tmp_path)])
    assert result.exit_code == 2
    assert option in result.output
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("args", [
    ["solve", "--instance", "random"],
    ["pareto", "--instance", "random"],
    ["scenario", "--instance", "random", "--parts-prefix", "2"],
    ["sweep", "--instance", "random", "--parameter", "layer_time", "--values", "0.1"],
], ids=["solve", "pareto", "scenario", "sweep"])
def test_gap_option_is_gone(runner, tmp_path, args):
    # optimal means proven to solver.GAP_TOLERANCE; no run can loosen it
    result = runner.invoke(main, args + ["--gap", "0.5", "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "No such option" in result.output and "--gap" in result.output
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("args", [
    ["scenario", "--instance", "random", "--parts-prefix", "2"],
    ["sweep", "--instance", "random", "--parameter", "layer_time", "--values", "0.1"],
], ids=["scenario", "sweep"])
def test_threads_option_is_gone(runner, tmp_path, args):
    # cells are solved one after another on the calling thread
    result = runner.invoke(main, args + ["--threads", "2", "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "No such option" in result.output and "--threads" in result.output
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("section, name, value", [
    ("machines", "width_mm", float("inf")),
    ("machines", "layer_time_h_per_mm", float("nan")),
    ("parts", "due_h", float("inf")),
], ids=["machine-width-inf", "layer-time-nan", "due-inf"])
def test_non_finite_instance_number_exits_2(runner, tmp_path, section, name, value):
    doc = asdict(random_instance(1))
    doc[section][0][name] = value
    path = write_instance(tmp_path, doc)
    out = tmp_path / "out"
    result = runner.invoke(main, ["solve", "--instance", str(path), "--out", str(out)])
    assert result.exit_code == 2
    assert f"{name} must be finite" in result.output
    assert not list(tmp_path.rglob("*.csv"))


def test_horizon_overflow_exits_2_before_solving(runner, tmp_path, monkeypatch):
    doc = asdict(random_instance(0))
    doc["machines"][0]["layer_time_h_per_mm"] = 1e308
    path = write_instance(tmp_path, doc)
    out = tmp_path / "out"
    monkeypatch.setattr(printplan.cli, "solve_milp", lambda *a, **k: pytest.fail("solved"))
    result = runner.invoke(main, ["solve", "--instance", str(path), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "scheduling horizon is inf" in result.output
    assert not list(tmp_path.rglob("*.csv"))


_CSV_MACHINES_HEADER = (
    "Machine,Dimensions (h x w x l),Layer Production Time (h/mm),Volumetric Production Time (h/mm3)\n"
)
_CSV_PARTS = "Part,Width (mm),Length (mm),Height (mm),Delivery Deadline (h)\np1,10,10,10,5\n"


@pytest.mark.parametrize("files, located", [
    ({"instance.json": json.dumps({**TIGHT_DOC, "machines": [5]})},
     "machines[0] must be a JSON object"),
    ({"instance.json": json.dumps({**TIGHT_DOC, "penalties": 5})},
     "penalties must be a JSON object"),
    ({"machines.csv": _CSV_MACHINES_HEADER + "m1,200 x 250 x 250,0.00006\n", "parts.csv": _CSV_PARTS},
     "machines.csv line 2: missing 'Volumetric Production Time (h/mm3)' cell"),
    ({"machines.csv": _CSV_MACHINES_HEADER + "m1,200 x 250 x 250,0.00006,abc\n", "parts.csv": _CSV_PARTS},
     "machines.csv line 2: volumetric cell 'abc' is not a number"),
    ({"machines.csv": _CSV_MACHINES_HEADER.replace(",Volumetric Production Time (h/mm3)", "")
      + "m1,200 x 250 x 250,0.00006\n", "parts.csv": _CSV_PARTS},
     "machines.csv: no column matching ('volumetric',) in header "
     "'Machine,Dimensions (h x w x l),Layer Production Time (h/mm)'"),
], ids=["machine-not-object", "penalties-not-object", "csv-short-row", "csv-not-a-number",
        "csv-missing-column"])
def test_malformed_record_exits_2_with_its_location(runner, tmp_path, files, located):
    source = tmp_path / "source"
    source.mkdir()
    for name, text in files.items():
        (source / name).write_text(text, encoding="utf-8")
    instance = source / "instance.json" if "instance.json" in files else source
    out = tmp_path / "out"
    result = runner.invoke(main, ["solve", "--instance", str(instance), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert located in result.output
    assert "Traceback" not in result.output
    assert not list(out.rglob("*.csv"))


@pytest.mark.parametrize("parameter, value", [
    ("machine_area", "inf"),
    ("layer_time", "nan"),
    ("part_count_prefix", "inf"),
    ("layer_time", "1e308"),
], ids=["area-inf", "layer-time-nan", "prefix-inf", "horizon-overflow"])
def test_sweep_non_finite_value_marks_cells_invalid(runner, tmp_path, parameter, value):
    result = runner.invoke(
        main,
        ["sweep", "--instance", "random", "--seed", "1", "--parameter", parameter,
         "--values", value, "--out", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    rows = [l.split(",") for l in (tmp_path / "sweep.csv").read_text().splitlines()[2:]]
    assert [(r[2], r[4]) for r in rows] == [
        ("free_orientation", "invalid_instance"), ("fixed_orientation", "invalid_instance")]


@pytest.mark.parametrize("args", [
    ["solve", "--instance", "random"],
    ["pareto", "--instance", "random"],
    ["scenario", "--instance", "random", "--parts-prefix", "2"],
    ["sweep", "--instance", "random", "--parameter", "layer_time", "--values", "0.1"],
], ids=["solve", "pareto", "scenario", "sweep"])
def test_nan_time_limit_exits_2(runner, tmp_path, args):
    result = runner.invoke(main, args + ["--time-limit", "nan", "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "--time-limit" in result.output and "nan" in result.output
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
    assert schedule.splitlines()[0].count("instance=") == 1
    assert "part_id" in schedule

    evaluation = (tmp_path / "evaluation.csv").read_text()
    assert evaluation.splitlines()[0] == schedule.splitlines()[0]
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


# sha256 of every file each command writes.  Any change to an output
# byte, the version in the stamp included, has to update these on purpose.
PINNED_OUTPUTS = {
    ("solve", "--instance", "random", "--seed", "0"): {
        "evaluation.csv": "bba9bf2bbe7eed8cdc9e4657176fecd3691f4b914d64147dc7dbdd26caaed5ff",
        "schedule.csv": "4fb093f3e706d8e61406e5a100723c64003f3faeee3a0e94e333cd1822684fcf",
    },
    ("solve", "--instance", "nine_parts", "--machines", "1", "--objective", "zz"): {
        "evaluation.csv": "175c46b2f57fa8175972534eb14d588918ac3500ee0f1ec47538e7786afa4427",
        "schedule.csv": "193e98676c7f75cf6dfb00a0b462f9c23bb40792c2dbde00c3f623f76f56f504",
    },
    ("pareto", "--instance", "nine_parts", "--machines", "1", "--epsilon-count", "4"): {
        "front.csv": "bb938b31367a56b57d8f4b7986432acd0d2eb744deb86daa649b344b2fcefab5",
        "front.dat": "05d737f249013043ff8a35d11bdff9854eddf48201ad0d155d38ebe0a8484eb4",
        "point_0_schedule.csv": "b15e9fb1a6ee32f17c2bc0176466bf06c170c6767913644a23500e9664e30202",
        "point_1_schedule.csv": "b15e9fb1a6ee32f17c2bc0176466bf06c170c6767913644a23500e9664e30202",
        "point_2_schedule.csv": "b15e9fb1a6ee32f17c2bc0176466bf06c170c6767913644a23500e9664e30202",
        "point_3_schedule.csv": "da2cb201691539ef6f1f99062d48f0453bf25325e8676348a7bacf59f9310f41",
    },
    ("sweep", "--instance", "fifteen_parts_time_study", "--machines", "1", "--parts-prefix", "3",
     "--parameter", "layer_time", "--values", "0.1,0.01"): {
        "sweep.csv": "0546af2af74bfafa77a9266da4dca7548a4350c6ed62e06aab79d85f7a2bc0f7",
    },
    ("scenario", "--instance", "twenty_parts", "--machines", "1", "--parts-prefix", "2,3"): {
        "scenario.csv": "d6eb50129d3695b838d5618ec808b0a7f9cf8a9cbd6f82dd93e9d0c55cb3fcd4",
    },
    ("solve", "--instance", "random", "--seed", "1", "--solver", "external"): {
        "model.lp": "b732a51308078ba0f584d6756c499c21044d028ceb8e3a4d53478d707cd1a8a7",
    },
}


@pytest.mark.parametrize("args", list(PINNED_OUTPUTS), ids=lambda args: "-".join(args[:3]))
def test_command_outputs_match_pinned_hashes(runner, tmp_path, args):
    result = runner.invoke(main, [*args, "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    written = {
        str(path.relative_to(tmp_path)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.rglob("*")
        if path.is_file()
    }
    assert written == PINNED_OUTPUTS[args]


def _understating(real):
    """A solve_milp whose reported objective sits 1.0 below the true one."""

    def solve(model, **kwargs):
        sol = real(model, **kwargs)
        return replace(sol, objective=sol.objective - 1.0)

    return solve


@pytest.mark.parametrize("args", [
    ["solve", "--instance", "random", "--seed", "0"],
    ["sweep", "--instance", "fifteen_parts_time_study", "--machines", "1", "--parts-prefix", "3",
     "--parameter", "layer_time", "--values", "0.1"],
], ids=["solve", "sweep"])
def test_gate_rejects_understated_builtin_solve(runner, tmp_path, monkeypatch, args):
    monkeypatch.setattr(printplan.cli, "solve_milp", _understating(printplan.cli.solve_milp))
    result = runner.invoke(main, args + ["--out", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert "error: evaluator disagrees with solver: " in result.output
    assert not list(tmp_path.glob("*.csv"))


def test_gate_rejects_understated_external_header(runner, tmp_path):
    model = build_model(random_instance(1), Objective.Z)
    sol = solve_milp(model)
    (tmp_path / "model.sol").write_text(
        write_solution(replace(sol, objective=sol.objective - 1.0), model))
    result = runner.invoke(
        main,
        ["solve", "--instance", "random", "--seed", "1", "--solver", "external",
         "--out", str(tmp_path)],
    )
    assert result.exit_code == 2, result.output
    assert "model.sol: evaluator disagrees with solver: " in result.output
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("objective", ["nan", "inf", "-inf"])
def test_external_header_not_finite_exits_2(runner, tmp_path, objective):
    # a NaN objective compares unequal to everything, so it slipped past
    # the gate's "differs by more than TOL" test
    model = build_model(random_instance(1), Objective.Z)
    body = write_solution(solve_milp(model), model).split("\n", 1)[1]
    (tmp_path / "model.sol").write_text(f"OPTIMAL {objective}\n{body}")
    result = runner.invoke(
        main,
        ["solve", "--instance", "random", "--seed", "1", "--solver", "external",
         "--out", str(tmp_path)],
    )
    assert result.exit_code == 2, result.output
    assert f"model.sol: non-finite objective '{objective}'" in result.output
    assert not list(tmp_path.glob("*.csv"))


def test_gate_rejects_understated_payoff_solve(runner, tmp_path, monkeypatch):
    # only the first payoff solve understates; a gate failure is a
    # FrontError with status None, so the exit code is 1
    real = printplan.pareto.solve_milp
    calls = itertools.count()

    def first_understated(model, **kwargs):
        sol = real(model, **kwargs)
        return replace(sol, objective=sol.objective - 1.0) if next(calls) == 0 else sol

    monkeypatch.setattr(printplan.pareto, "solve_milp", first_understated)
    result = runner.invoke(
        main,
        ["pareto", "--instance", "random", "--seed", "2", "--epsilon-count", "3",
         "--out", str(tmp_path)],
    )
    assert result.exit_code == 1, result.output
    assert "error: evaluator disagrees with solver: " in result.output
    assert "in payoff: minimize cost" in result.output
    assert not list(tmp_path.glob("*.csv"))


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


def test_resolve_solver_rules():
    assert _resolve_solver(None, AUTO_EXTERNAL_BINARIES) == "builtin"
    assert _resolve_solver(None, AUTO_EXTERNAL_BINARIES + 1) == "external"
    assert _resolve_solver("builtin", 10_000) == "builtin"
    assert _resolve_solver("external", 3) == "external"
    # --solver is the only knob: no environment variable can override it
    source = Path(printplan.cli.__file__).read_text()
    assert "environ" not in source and "getenv" not in source


def test_gap_slack_is_stated_only_in_the_solver():
    # "within the gap" is solver.gap_slack; the front and the sweep check
    # call it rather than restate GAP_TOLERANCE * max(1, |v|)
    for module in (printplan.pareto, printplan.cli):
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            assert not (isinstance(node, ast.Name) and node.id == "GAP_TOLERANCE"), module.__name__
            assert not (isinstance(node, ast.Attribute) and node.attr == "GAP_TOLERANCE"), module.__name__
            restated = (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "max"
                and len(node.args) == 2
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == 1.0
                and isinstance(node.args[1], ast.Call)
                and isinstance(node.args[1].func, ast.Name)
                and node.args[1].func.id == "abs"
            )
            assert not restated, f"{module.__name__}:{node.lineno}"


def test_solver_flag_forces_external_pending(runner, tmp_path):
    result = runner.invoke(
        main,
        ["solve", "--instance", "random", "--seed", "1", "--solver", "external",
         "--out", str(tmp_path)],
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
    # the solution is read from model.sol beside the written model.lp
    (tmp_path / "model.sol").write_text(write_solution(builtin, model))

    result = runner.invoke(
        main,
        ["solve", "--instance", "random", "--seed", "1", "--solver", "external",
         "--out", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    assert "status: optimal" in result.output
    line = next(l for l in result.output.splitlines() if l.startswith("z_hours:"))
    assert abs(float(line.split(":")[1]) - builtin.objective) <= 1e-6


def test_external_solution_failing_check_feasible_exits_2(runner, tmp_path):
    inst = random_instance(0)
    model = build_model(inst, Objective.Z)
    text = write_solution(solve_milp(model), model)
    # without its activation the job's plate would go uncounted
    assert "y_j1_m2 1\n" in text
    (tmp_path / "model.sol").write_text(text.replace("y_j1_m2 1\n", ""))

    result = runner.invoke(
        main,
        ["solve", "--instance", "random", "--seed", "0", "--solver", "external",
         "--out", str(tmp_path)],
    )
    assert result.exit_code == 2, result.output
    assert "model.sol: solution violates activation" in result.output
    assert not (tmp_path / "schedule.csv").exists()


def test_external_time_limit_without_values_exits_4(runner, tmp_path):
    model = build_model(random_instance(1), Objective.Z)
    empty = MilpSolution(SolveStatus.TimeLimit, None, None, -math.inf, 0)
    (tmp_path / "model.sol").write_text(write_solution(empty, model))
    result = runner.invoke(
        main,
        ["solve", "--instance", "random", "--seed", "1", "--solver", "external",
         "--out", str(tmp_path)],
    )
    assert result.exit_code == 4, result.output
    assert "time limit reached before any feasible schedule" in result.output
    assert not list(tmp_path.glob("*.csv"))


def test_unparsable_external_solution_exits_2(runner, tmp_path):
    (tmp_path / "model.sol").write_text("OPTIMAL abc\n")
    result = runner.invoke(
        main,
        ["solve", "--instance", "random", "--seed", "0", "--solver", "external",
         "--out", str(tmp_path)],
    )
    assert result.exit_code == 2, result.output
    assert "model.sol: unparsable objective 'abc'" in result.output
    assert not (tmp_path / "schedule.csv").exists()

    (tmp_path / "model.sol").write_text("OPTIMAL 0\nx_i1_j1_m1 1\nx_i1_j1_m1 1\n")
    result = runner.invoke(
        main,
        ["solve", "--instance", "random", "--seed", "0", "--solver", "external",
         "--out", str(tmp_path)],
    )
    assert result.exit_code == 2, result.output
    assert "model.sol: variable x_i1_j1_m1 is listed more than once" in result.output
    assert not (tmp_path / "schedule.csv").exists()

    # scenario cells read their solution files the same way
    (tmp_path / "scenario_p2_free.sol").write_text("OPTIMAL abc\n")
    result = runner.invoke(
        main,
        ["scenario", "--instance", "twenty_parts", "--machines", "1", "--parts-prefix", "2",
         "--solver", "external", "--out", str(tmp_path)],
    )
    assert result.exit_code == 2, result.output
    assert "scenario_p2_free.sol: unparsable objective 'abc'" in result.output
    assert not (tmp_path / "scenario.csv").exists()


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


def test_scenario_cells_read_back_external_solutions(runner, tmp_path):
    args = ["scenario", "--instance", "twenty_parts", "--machines", "1", "--parts-prefix", "2",
            "--solver", "external", "--out", str(tmp_path)]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    row = (tmp_path / "scenario.csv").read_text().splitlines()[-1]
    assert row == "2,,,pending_external,pending_external"

    inst = part_prefix(with_machine_count(load_builtin("twenty_parts"), 1), 2)
    expected = {}
    for tag, fixed in (("free", False), ("fixed", True)):
        model = build_model(inst, Objective.Z, fixed_orientation=fixed)
        builtin = solve_milp(model)
        expected[tag] = builtin.objective
        (tmp_path / f"scenario_p2_{tag}.sol").write_text(write_solution(builtin, model))

    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    n, z_free, z_fixed, st_free, st_fixed = (tmp_path / "scenario.csv").read_text().splitlines()[-1].split(",")
    assert (n, st_free, st_fixed) == ("2", "optimal", "optimal")
    assert abs(float(z_free) - expected["free"]) <= 1e-6
    assert abs(float(z_fixed) - expected["fixed"]) <= 1e-6


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
    # every stamp names the instance once
    stamps = [path.read_text().splitlines()[0] for path in sorted(tmp_path.glob("*.csv"))]
    assert len(stamps) >= 2
    assert all(stamp.count("instance=") == 1 for stamp in stamps)

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


def test_pareto_consistency_failure_exits_1(runner, tmp_path, monkeypatch):
    # optimal capped solves whose objective sits 1.0 below what the
    # evaluator recomputes: an error, not a time limit (exit 4)
    real = printplan.pareto.solve_milp
    calls = itertools.count()

    def understated(model, **kwargs):
        sol = real(model, **kwargs)
        if next(calls) < 4:  # the payoff solves stay exact
            return sol
        return replace(sol, objective=sol.objective - 1.0)

    monkeypatch.setattr(printplan.pareto, "solve_milp", understated)
    result = runner.invoke(
        main,
        ["pareto", "--instance", "random", "--seed", "2", "--epsilon-count", "3",
         "--out", str(tmp_path)],
    )
    assert result.exit_code == 1
    assert "error: evaluator disagrees" in result.output
    assert not (tmp_path / "front.csv").exists()


def test_pareto_payoff_time_limit_exits_4(runner, tmp_path):
    result = runner.invoke(
        main,
        ["pareto", "--instance", "random", "--seed", "0", "--time-limit", "1e-9",
         "--out", str(tmp_path)],
    )
    assert result.exit_code == 4
    assert "no incumbent within the time limit" in result.output


def test_pareto_unproven_payoff_exits_4(runner, tmp_path, monkeypatch):
    # the first payoff solve stops at the time limit with an incumbent
    real = printplan.pareto.solve_milp
    calls = itertools.count()

    def first_stopped(*args, **kwargs):
        sol = real(*args, **kwargs)
        if next(calls) == 0:
            return replace(sol, status=SolveStatus.TimeLimit)
        return sol

    monkeypatch.setattr(printplan.pareto, "solve_milp", first_stopped)
    result = runner.invoke(
        main,
        ["pareto", "--instance", "random", "--seed", "2", "--epsilon-count", "3",
         "--out", str(tmp_path)],
    )
    assert result.exit_code == 4
    assert "ended time_limit, optimum not proven" in result.output
    assert not (tmp_path / "front.csv").exists()


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
         "--parts-prefix", "2,4", "--out", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "scenario.csv").read_text().splitlines()
    assert lines[1] == "parts_prefix,z_free_orientation,z_fixed_orientation,status_free,status_fixed"
    body = [l.split(",") for l in lines[2:]]
    assert [row[0] for row in body] == ["2", "4"]
    for row in body:
        assert row[3] == row[4] == "optimal"
        assert float(row[1]) <= float(row[2]) + 1e-6

    # scenario is the part-count sweep over both orientations, pivoted wide
    out = tmp_path / "sweep"
    result = runner.invoke(
        main,
        ["sweep", "--instance", "twenty_parts", "--machines", "1",
         "--parameter", "part_count_prefix", "--values", "2,4", "--scenario", "both",
         "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    cells = {(r[1], r[2]): (r[3], r[4])
             for r in (l.split(",") for l in (out / "sweep.csv").read_text().splitlines()[2:])}
    for n, z_free, z_fixed, st_free, st_fixed in body:
        assert cells[(n, "free_orientation")] == (z_free, st_free)
        assert cells[(n, "fixed_orientation")] == (z_fixed, st_fixed)


@pytest.mark.parametrize("machines", ["3", "1"])
def test_scenario_compares_only_the_published_instances(runner, tmp_path, machines):
    # one job slot per machine makes another instance than the published ones
    result = runner.invoke(
        main,
        ["scenario", "--instance", "twenty_parts", "--machines", machines, "--jobs", "1",
         "--parts-prefix", "6", "--out", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    assert "n=6 free=" in result.output
    assert "reference check" not in result.output


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

    from dataclasses import asdict, replace
    inst = random_instance(3)
    inst = type(inst)(
        machines=tuple(replace(m, layer_time_h_per_mm=0.05) for m in inst.machines),
        parts=inst.parts,
        penalties=inst.penalties,
        jobs_per_machine=inst.jobs_per_machine,
    )
    direct = solve_milp(build_model(inst, Objective.Z))
    assert abs(float(row[3]) - direct.objective) <= 1e-6


def test_sweep_provenance_line_is_exact(runner, tmp_path):
    # a 1 mm2 plate holds no part, so the one cell is marked without a solve;
    # the stamp hashes the instance as swept, after --machines
    cases = (
        ([], random_instance(5)),
        (["--machines", "1"], with_machine_count(random_instance(5), 1)),
    )
    for extra, inst in cases:
        out = tmp_path / f"machines{len(inst.machines)}"
        result = runner.invoke(
            main,
            ["sweep", "--instance", "random", "--seed", "5", "--parameter", "machine_area",
             "--values", "1", "--scenario", "free_orientation", "--out", str(out)] + extra,
        )
        assert result.exit_code == 0, result.output
        first = (out / "sweep.csv").read_text().splitlines()[0]
        assert first == (
            f"# printplan={__version__} instance={instance_hash(inst)} "
            "cmd=sweep parameter=machine_area values=1 scenario=free_orientation"
        )


def test_sweep_layer_time_cost_shrinks(runner, tmp_path):
    result = runner.invoke(
        main,
        ["sweep", "--instance", "fifteen_parts_time_study", "--machines", "1",
         "--parts-prefix", "3", "--parameter", "layer_time", "--values", "0.1,0.001",
         "--scenario", "both", "--out", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    rows = [l.split(",") for l in (tmp_path / "sweep.csv").read_text().splitlines()[2:]]
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
         "--scenario", "free_orientation", "--out", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    rows = [l.split(",") for l in (tmp_path / "sweep.csv").read_text().splitlines()[2:]]
    assert [r[1] for r in rows] == ["2", "3"]
    assert all(r[4] == "optimal" for r in rows)


def test_sweep_rejects_non_integral_part_count_prefix(runner, tmp_path):
    result = runner.invoke(
        main,
        ["sweep", "--instance", "twenty_parts", "--machines", "1",
         "--parameter", "part_count_prefix", "--values", "2,2.5",
         "--scenario", "free_orientation", "--out", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    rows = [l.split(",") for l in (tmp_path / "sweep.csv").read_text().splitlines()[2:]]
    assert [(r[1], r[4]) for r in rows] == [("2", "optimal"), ("2.5", "invalid_instance")]


@pytest.mark.parametrize("parameter, values", [
    ("layer_time", [0.1000001, 0.1000004, 0.1]),
    ("machine_area", [1522756.0, 1522760.0]),
])
def test_sweep_labels_read_back_as_their_values(tmp_path, parameter, values):
    # ":g" keeps six significant digits, so these values once shared one
    # CSV value, one external LP file and one dominance key
    rows = run_sweep(random_instance(0), parameter, values, "free_orientation", None, "external",
                     tmp_path)
    assert [float(r[1]) for r in rows] == values
    assert len({r[1] for r in rows}) == len(values)
    assert len(list(tmp_path.glob("sweep_*_free.lp"))) == len(values)


def test_sweep_rejects_nonpositive_dimensional_values(runner, tmp_path):
    result = runner.invoke(
        main,
        ["sweep", "--instance", "random", "--seed", "0", "--parameter", "layer_time",
         "--values", "0.1,-1", "--out", str(tmp_path)],
    )
    assert result.exit_code == 2
    assert "positive" in result.output


# dominance checkers fail loudly on fabricated contradictions


@pytest.mark.parametrize("scenario", ["free_orientation", "fixed_orientation"])
def test_sweep_dominance_check_catches_area_regression(scenario):
    rows = [
        ["machine_area", "100", scenario, "1.000000", "optimal"],
        ["machine_area", "200", scenario, "5.000000", "optimal"],
    ]
    with pytest.raises(click.ClickException, match="larger plate area"):
        _check_sweep_dominance("machine_area", rows)


def test_sweep_dominance_check_catches_scenario_inversion():
    rows = [
        ["layer_time", "0.1", "free_orientation", "9.000000", "optimal"],
        ["layer_time", "0.1", "fixed_orientation", "2.000000", "optimal"],
    ]
    with pytest.raises(click.ClickException, match="restriction dominance"):
        _check_sweep_dominance("layer_time", rows)


def test_sweep_dominance_check_skips_unsolved_cells():
    rows = [
        ["machine_area", "100", "free_orientation", "1.000000", "optimal"],
        ["machine_area", "200", "free_orientation", "", "time_limit"],
    ]
    _check_sweep_dominance("machine_area", rows)


def test_run_sweep_validates_spec():
    inst = random_instance(0)
    with pytest.raises(ValueError, match="unknown sweep parameter"):
        run_sweep(inst, "nozzle_count", [1.0], "both", None, "builtin", Path("."))
    with pytest.raises(ValueError, match="at least one value"):
        run_sweep(inst, "layer_time", [], "both", None, "builtin", Path("."))
    with pytest.raises(ValueError, match="unknown scenario"):
        run_sweep(inst, "layer_time", [0.1], "upside_down", None, "builtin", Path("."))


# dependency line


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency.  Importing it into the package (for
    # its BLAS rank-1 update, say) raised the front benchmark's peak RSS
    # from 42.6 to 65.7 MB and its set-up time from 0.20 to 0.39 s.
    src = Path(printplan.cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; import printplan.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
