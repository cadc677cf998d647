from __future__ import annotations

import ast
import itertools
import math
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import printplan.pareto as pareto_module

from printplan.datasets import random_instance, with_machine_count
from printplan.geometry import max_base_area
from printplan.instance import MachineSpec, Part, ProblemInstance
from printplan.oracle import brute_force
from printplan.pareto import (
    FrontError,
    ParetoFront,
    ParetoPoint,
    epsilon_grid,
    filter_dominated,
    pareto_front,
    payoff_table,
    write_front_csv,
    write_front_gnuplot,
)
from printplan.evaluate import check_feasible
from printplan.solver import SolveStatus


def one_part_instance() -> ProblemInstance:
    machine = MachineSpec("m1", 250.0, 250.0, 200.0, 0.00006, 0.000003)
    return ProblemInstance(
        machines=(machine,),
        parts=(Part("p1", 10.0, 20.0, 30.0, 5.0),),
        jobs_per_machine=1,
    )


def pt(z, zz, status=SolveStatus.Optimal, eps=0.0) -> ParetoPoint:
    return ParetoPoint(eps, z, zz, status, None, None)


# ------------------------------------------------------------- payoff


def test_payoff_single_part_collapses():
    inst = one_part_instance()
    table = payoff_table(inst)
    assert table.z_ideal == pytest.approx(0.0, abs=1e-9)
    assert table.z_nadir_est == pytest.approx(0.0, abs=1e-9)
    expected_zz = 62500.0 - max_base_area(inst.parts[0])
    assert table.zz_ideal == pytest.approx(expected_zz, abs=1e-6)
    assert table.zz_nadir_est == pytest.approx(expected_zz, abs=1e-6)


def test_payoff_empty_instance_all_zero():
    machine = MachineSpec("m1", 100.0, 100.0, 100.0, 1e-4, 1e-6)
    inst = ProblemInstance(machines=(machine,), parts=())
    table = payoff_table(inst)
    assert (table.z_ideal, table.zz_ideal) == (0.0, 0.0)
    assert (table.z_nadir_est, table.zz_nadir_est) == (0.0, 0.0)


def test_payoff_matches_oracle_corners():
    inst = random_instance(0)
    table = payoff_table(inst)
    res = brute_force(inst)
    assert table.z_ideal == pytest.approx(res.min_z.z, abs=1e-6)
    assert table.zz_ideal == pytest.approx(res.min_zz.zz, abs=1e-6)
    # lexicographic refinement lands on the front's corner points
    assert table.z_nadir_est == pytest.approx(res.min_zz.z, abs=1e-6)
    assert table.zz_nadir_est == pytest.approx(res.min_z.zz, abs=1e-6)


def test_payoff_propagates_time_limit():
    inst = random_instance(0)
    with pytest.raises(FrontError, match="no incumbent"):
        payoff_table(inst, time_limit_s=1e-9)


def test_payoff_rejects_unproven_optimum(monkeypatch):
    # the first payoff solve stops at the time limit holding an incumbent:
    # an unproven value is no ideal, so the table is refused
    real = pareto_module.solve_milp
    calls = itertools.count()

    def first_stopped(*args, **kwargs):
        sol = real(*args, **kwargs)
        if next(calls) == 0:
            return replace(sol, status=SolveStatus.TimeLimit)
        return sol

    monkeypatch.setattr(pareto_module, "solve_milp", first_stopped)
    with pytest.raises(FrontError, match="minimize cost: ended time_limit") as info:
        payoff_table(random_instance(0))
    assert info.value.status is SolveStatus.TimeLimit


# --------------------------------------------------------------- grid


def test_epsilon_grid_formula():
    from printplan.pareto import PayoffTable

    table = PayoffTable(0.0, 100.0, 10.0, 400.0)
    grid = epsilon_grid(table, 4)
    assert grid == (100.0, 200.0, 300.0, 400.0)
    assert epsilon_grid(table, 1) == (100.0,)
    with pytest.raises(ValueError):
        epsilon_grid(table, 0)


_area = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)


@settings(max_examples=500, deadline=None)
@given(_area, _area, st.integers(min_value=2, max_value=40))
# the ideal plus 9 * span / 9 lands an ulp past the nadir estimate here
@example(59987.46, 122487.46, 10)
def test_epsilon_grid_ends_exactly_at_ideal_and_nadir(a, b, count):
    from printplan.pareto import PayoffTable

    low, high = min(a, b), max(a, b)
    grid = epsilon_grid(PayoffTable(0.0, low, 0.0, high), count)
    assert len(grid) == count
    assert grid[0] == low
    assert grid[-1] == high
    assert list(grid) == sorted(grid)


# ------------------------------------------------------------- filter


def test_filter_weak_dominance():
    out = filter_dominated([pt(5, 100), pt(5, 90)])
    assert [(p.z, p.zz) for p in out] == [(5, 90)]


def test_filter_single_dominator():
    out = filter_dominated([pt(3, 10), pt(4, 9), pt(3, 9)])
    assert [(p.z, p.zz) for p in out] == [(3, 9)]


def test_filter_keeps_mutually_nondominated():
    out = filter_dominated([pt(19, 59987), pt(7, 122487), pt(0, 247487)])
    assert len(out) == 3
    assert [p.zz for p in out] == sorted(p.zz for p in out)


def test_filter_merges_near_duplicates_and_skips_unvalued():
    out = filter_dominated(
        [pt(5.0, 90.0), pt(5.0 + 1e-8, 90.0 + 1e-8), pt(None, None, SolveStatus.TimeLimit)]
    )
    assert len(out) == 1


def _reference_filter_dominated(points):
    # the pairwise dominance loop and separate dedupe pass that the sorted
    # sweep replaced
    valued = [p for p in points if p.z is not None and p.zz is not None]
    kept = []
    for p in valued:
        dominated = False
        for q in valued:
            if q is p:
                continue
            if q.z <= p.z and q.zz <= p.zz and (q.z < p.z or q.zz < p.zz):
                dominated = True
                break
        if not dominated:
            kept.append(p)
    kept.sort(key=lambda p: (p.zz, p.z))
    out = []
    for p in kept:
        if out and abs(p.z - out[-1].z) <= 1e-6 and abs(p.zz - out[-1].zz) <= 1e-6:
            continue
        out.append(p)
    return out


# coarse values with offsets at, inside and past the 1e-6 repeat tolerance,
# so ties, near-ties and exact repeats all turn up
_objective = st.builds(lambda base, off: base + off, st.sampled_from([0.0, 1.0, 2.0, 3.0]),
                       st.sampled_from([0.0, 5e-7, 1e-6, 2e-6, -5e-7]))
_points = st.lists(
    st.one_of(
        st.builds(pt, _objective, _objective),
        st.just(None).map(lambda _: pt(None, None, SolveStatus.Infeasible)),
    ),
    max_size=7,
)


@settings(max_examples=1000, deadline=None)
@given(_points)
def test_filter_sweep_matches_pairwise_reference(points):
    got = filter_dominated(points)
    want = _reference_filter_dominated(points)
    assert [id(p) for p in got] == [id(p) for p in want]


# -------------------------------------------------------------- sweep


@pytest.fixture(scope="module")
def seeded_fronts():
    """Seed -> (K=8 front, brute-force result) on ``random_instance(seed)``."""
    out = {}
    for seed in range(10):
        inst = random_instance(seed)
        out[seed] = (pareto_front(inst, grid_count=8), brute_force(inst))
    return out


def test_front_matches_oracle_on_seeded_instances(seeded_fronts):
    for seed in (0, 4, 7):
        front, res = seeded_fronts[seed]
        got = [(round(p.z, 6), round(p.zz, 6)) for p in front.points]
        want = [(round(p.z, 6), round(p.zz, 6)) for p in res.points]
        # the grid may skip interior steps narrower than its spacing,
        # but every point it does keep must be on the true front
        assert set(got) <= set(want)
        assert got[0] == want[0]
        assert got[-1] == want[-1]


def test_every_row_is_the_constrained_optimum(seeded_fronts):
    # bypassed and back-filled rows too: each row's z is the oracle's
    # optimum under that row's cap, and its schedule keeps to the cap
    # (absolute 1e-6, the front's cap check: the tightest cap is the
    # area ideal, which evaluate recomputes with rounding)
    for seed, (front, res) in seeded_fronts.items():
        assert len(front.attempts) == 8
        for row in front.attempts:
            assert row.status is SolveStatus.Optimal, (seed, row.epsilon)
            assert row.z == pytest.approx(res.constrained(row.epsilon).z, abs=1e-6), (seed, row.epsilon)
            assert row.zz <= row.epsilon + 1e-6, (seed, row.epsilon)


def _counting_solves(monkeypatch):
    """Each ``solve_milp`` call from pareto as (model, its ``lower_bound``, its solution)."""
    calls = []
    real = pareto_module.solve_milp

    def counted(model, **kwargs):
        sol = real(model, **kwargs)
        calls.append((model, kwargs["lower_bound"], sol))
        return sol

    monkeypatch.setattr(pareto_module, "solve_milp", counted)
    return calls


def test_capped_solves_inherit_the_largest_earlier_bound(monkeypatch):
    # the ideals get no bound; each refine solve gets its unconstrained
    # solve's bound; each capped solve gets the cost ideal's bound raised
    # to every earlier capped solve's
    calls = _counting_solves(monkeypatch)
    pareto_front(random_instance(9), grid_count=10)
    (_, lb_z, sol_z), (_, lb_zz, sol_zz), (_, lb_ref_z, _), (_, lb_ref_zz, _), *capped = calls
    assert (lb_z, lb_zz) == (-math.inf, -math.inf)
    assert lb_ref_z == sol_zz.bound
    assert lb_ref_zz == sol_z.bound
    assert len(capped) >= 3
    bounds = [sol_z.bound]
    for _, lower_bound, sol in capped:
        assert lower_bound == max(bounds)
        bounds.append(sol.bound)


def test_cap_under_an_infeasible_cap_takes_no_node(monkeypatch):
    # both caps lie under the area ideal: the looser proves the model
    # infeasible (bound +inf), and the tighter inherits that bound
    inst = random_instance(2)
    table = payoff_table(inst)
    below = table.zz_ideal - max(1.0, 0.5 * abs(table.zz_ideal))
    monkeypatch.setattr(pareto_module, "epsilon_grid", lambda t, k: (below - 1.0, below))
    calls = _counting_solves(monkeypatch)
    front = pareto_front(inst, grid_count=2)
    (_, _, looser), (_, lower_bound, tighter) = calls[4:]
    assert looser.status is SolveStatus.Infeasible and looser.bound == math.inf
    assert lower_bound == math.inf
    assert tighter.status is SolveStatus.Infeasible and tighter.node_count == 0
    assert [a.status for a in front.attempts] == [SolveStatus.Infeasible] * 2
    assert front.points == ()


def test_every_front_solve_passes_a_lower_bound():
    # read, not run: a solve in pareto.py states the bound it starts from
    tree = ast.parse(Path(pareto_module.__file__).read_text())
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "solve_milp"]
    assert len(calls) >= 5
    for call in calls:
        assert "lower_bound" in {k.arg for k in call.keywords}, call.lineno


def test_caps_an_earlier_optimum_fits_are_not_solved(monkeypatch, nine_parts):
    # one-machine nine-part front: the loosest cap's optimum (z = 6) fits
    # no tighter cap, and the next cap's (z = 16 at the area ideal) fits
    # all eight tighter ones, so 2 of the 10 caps are solved after the 4
    # payoff solves.  The loosest holds the refined cost corner as a seed,
    # and the cost ideal's proven bound closes it at the root
    calls = _counting_solves(monkeypatch)
    front = pareto_front(with_machine_count(nine_parts, 1), grid_count=10)
    assert [sol.node_count for _, _, sol in calls] == [115, 10, 42, 3, 0, 3]
    assert len(front.attempts) == 10
    assert all(a.status is SolveStatus.Optimal for a in front.attempts)
    assert [a.epsilon for a in front.attempts] == sorted(a.epsilon for a in front.attempts)
    assert [(round(p.zz, 2), round(p.z, 6)) for p in front.points] == [(59987.46, 16.0), (122487.46, 6.0)]


def test_looser_rows_take_a_tighter_optimum_with_less_area():
    # random_instance(9), K = 10: the caps near 4,349.06 and 5,692.20 are
    # bypassed by a z = 21.28 optimum wasting 3,156.89 mm2; the tighter
    # cap's solve finds z = 21.28 at 2,173.39 mm2, which both rows take
    front = pareto_front(random_instance(9), grid_count=10)
    rows = {round(a.epsilon, 2): a for a in front.attempts}
    for eps in (4349.06, 5692.2):
        assert rows[eps].status is SolveStatus.Optimal
        assert rows[eps].z == pytest.approx(21.28, abs=1e-6)
        assert rows[eps].zz == pytest.approx(2173.39, abs=1e-6)
        assert rows[eps].evaluation.zz == rows[eps].zz
    # so the kept front holds no two points of the same cost
    kept_z = [round(p.z, 6) for p in front.points]
    assert len(set(kept_z)) == len(kept_z)


@pytest.mark.parametrize("stopped", [5, 6], ids=["loosest", "second"])
def test_time_limited_cap_feeds_no_bypass(monkeypatch, nine_parts, stopped):
    # one capped solve stops at the time limit holding its incumbent: the
    # loosest (the fifth call, after the four payoff solves), or the second,
    # whose incumbent (z = 16) fits every tighter cap.  An unproven point
    # skips nothing, so the next cap is solved, and the stopped row keeps
    # its status
    calls = _counting_solves(monkeypatch)
    counted = pareto_module.solve_milp

    def one_stopped(model, **kwargs):
        sol = counted(model, **kwargs)
        if len(calls) == stopped:
            return replace(sol, status=SolveStatus.TimeLimit)
        return sol

    monkeypatch.setattr(pareto_module, "solve_milp", one_stopped)
    front = pareto_front(with_machine_count(nine_parts, 1), grid_count=10)
    row, next_cap = front.attempts[4 - stopped], front.attempts[3 - stopped]
    assert row.status is SolveStatus.TimeLimit
    assert calls[stopped][0].rhs[-1] == next_cap.epsilon
    assert next_cap.status is SolveStatus.Optimal
    assert len(calls) == stopped + 1
    assert [a.status for a in front.attempts].count(SolveStatus.TimeLimit) == 1


def test_front_invariants_hold():
    inst = random_instance(4)
    front = pareto_front(inst, grid_count=6)
    zs = [p.z for p in front.points]
    zzs = [p.zz for p in front.points]
    assert zzs == sorted(zzs)
    assert zs == sorted(zs, reverse=True)
    for point in front.points:
        assert point.zz <= point.epsilon + 1e-6
        assert check_feasible(point.schedule, inst) == []
        assert point.evaluation.z == pytest.approx(point.z)
    assert all(a.status is SolveStatus.Optimal for a in front.attempts)


def test_front_one_part_single_point():
    front = pareto_front(one_part_instance(), grid_count=10)
    assert len(front.points) == 1
    assert front.points[0].z == pytest.approx(0.0, abs=1e-9)
    assert len(front.attempts) == 10


def test_front_grid_count_one():
    inst = random_instance(2)
    front = pareto_front(inst, grid_count=1)
    assert len(front.attempts) == 1
    assert front.attempts[0].epsilon == pytest.approx(front.payoff.zz_ideal)
    assert len(front.points) == 1


def test_front_infeasible_floor_flagged_not_dropped(monkeypatch):
    inst = random_instance(2)
    table = payoff_table(inst)
    floor = table.zz_ideal - max(1.0, 0.5 * abs(table.zz_ideal))
    monkeypatch.setattr(pareto_module, "epsilon_grid", lambda t, k: (floor, t.zz_ideal))
    front = pareto_front(inst, grid_count=2)
    assert len(front.attempts) == 2
    assert front.attempts[0].status is SolveStatus.Infeasible
    assert front.attempts[0].z is None
    assert front.attempts[1].status is SolveStatus.Optimal
    assert len(front.points) == 1


def test_front_refuses_nan_epsilon(monkeypatch):
    # a bad grid is refused before the payoff solves
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_milp called before the arguments were checked")

    monkeypatch.setattr(pareto_module, "solve_milp", no_solve)
    with pytest.raises(ValueError, match="grid_count must be at least 1"):
        pareto_front(random_instance(0), grid_count=0)


def test_time_limited_points_are_checked_too(monkeypatch):
    # every capped solve ends time-limited, with an objective 1.0 below
    # what its schedule costs; the four payoff solves stay exact
    real = pareto_module.solve_milp
    calls = itertools.count()

    def understated(model, **kwargs):
        sol = real(model, **kwargs)
        if next(calls) < 4:
            return sol
        return replace(sol, status=SolveStatus.TimeLimit, objective=sol.objective - 1.0)

    monkeypatch.setattr(pareto_module, "solve_milp", understated)
    with pytest.raises(FrontError, match="evaluator disagrees") as info:
        pareto_front(random_instance(2), grid_count=3)
    assert info.value.status is None


def test_front_empty_instance():
    machine = MachineSpec("m1", 100.0, 100.0, 100.0, 1e-4, 1e-6)
    inst = ProblemInstance(machines=(machine,), parts=())
    front = pareto_front(inst)
    assert len(front.points) == 1
    assert front.points[0].z == 0.0
    assert front.points[0].zz == 0.0


# ----------------------------------------------------------------- io


def test_front_csv_layout(tmp_path):
    inst = random_instance(2)
    front = pareto_front(inst, grid_count=3)
    out = tmp_path / "front.csv"
    write_front_csv(front, out, params="K=3")
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# printplan=")
    assert lines[0].endswith(" K=3")
    assert lines[1].startswith("# payoff z_ideal=")
    assert lines[2] == "epsilon,z_hours,zz_mm2,status,schedule_file"
    assert len(lines) == 3 + len(front.attempts)
    assert lines[3].split(",")[3] == "optimal"
    # each attempt with a schedule names its file, written beside front.csv
    names = [line.rsplit(",", 1)[1] for line in lines[3:]]
    for name, point in zip(names, front.attempts):
        assert bool(name) == (point.schedule is not None)
        if name:
            assert (tmp_path / name).read_text().startswith(lines[0] + "\n")
    assert sorted(p.name for p in tmp_path.glob("point_*")) == sorted(filter(None, names))
    without = ParetoPoint(1.0, None, None, SolveStatus.Infeasible, None, None)
    lone = ParetoFront((), (without,), front.payoff)
    write_front_csv(lone, tmp_path / "lone.csv")
    assert (tmp_path / "lone.csv").read_text().splitlines()[3] == "1.000000,,,infeasible,"
    # byte stable
    again = tmp_path / "again.csv"
    write_front_csv(front, again, params="K=3")
    assert again.read_text() == out.read_text()


def test_front_gnuplot_two_columns(tmp_path):
    inst = random_instance(2)
    front = pareto_front(inst, grid_count=3)
    out = tmp_path / "front.dat"
    write_front_gnuplot(front, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "# zz_mm2 z_hours"
    for line, point in zip(lines[1:], front.points):
        zz, z = line.split()
        assert float(zz) == pytest.approx(point.zz, abs=1e-6)
        assert float(z) == pytest.approx(point.z, abs=1e-6)

