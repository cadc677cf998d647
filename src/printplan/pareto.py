"""Trade-off curve between timing cost and unused plate area.

One objective is optimized while the other is capped, and sweeping the
cap traces the nondominated frontier.  The cap grid spans the payoff
table: the best and worst values each objective takes among the two
single-objective optima, with a lexicographic tie-break so "worst" is
measured on actual optima rather than arbitrary alternates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .evaluate import Evaluation, Schedule, accept, evaluate, write_csv, write_schedule_csv
from .instance import ProblemInstance
from .model import MilpModel, Objective, build_model, cap_objective, inject_epsilon
from .solver import MilpSolution, SolveStatus, gap_slack, solve_milp


@dataclass(frozen=True)
class PayoffTable:
    """Best and estimated-worst value of each objective over the front.

    The nadir entries come from cross-evaluation of the two refined
    single-objective optima; they can truncate the true front's tail,
    which is inherent to the estimate.
    """

    z_ideal: float
    zz_ideal: float
    z_nadir_est: float
    zz_nadir_est: float


@dataclass(frozen=True)
class ParetoPoint:
    """One epsilon solve: the cap, the outcome, and its schedule."""

    epsilon: float
    z: float | None
    zz: float | None
    status: SolveStatus
    schedule: Schedule | None
    evaluation: Evaluation | None


@dataclass(frozen=True)
class ParetoFront:
    """Kept nondominated points plus the full per-epsilon solve log."""

    points: tuple[ParetoPoint, ...]
    attempts: tuple[ParetoPoint, ...]
    payoff: PayoffTable


class FrontError(RuntimeError):
    """A sweep or payoff solve could not produce a usable answer.

    ``status`` is the failed payoff solve's status; None for a failed check.
    """

    def __init__(self, message: str, status: SolveStatus | None = None):
        super().__init__(message)
        self.status = status


def _require_optimal(solution: MilpSolution, model: MilpModel, what: str) -> MilpSolution:
    """The solution if proven optimal and accepted; the payoff table holds only optima."""
    if solution.status is SolveStatus.Infeasible:
        raise FrontError(f"{what}: model is infeasible", solution.status)
    if solution.values is None:
        raise FrontError(f"{what}: no incumbent within the time limit", solution.status)
    if solution.status is not SolveStatus.Optimal:
        raise FrontError(f"{what}: ended {solution.status.value}, optimum not proven", solution.status)
    try:
        accept(solution, model)
    except ValueError as exc:
        raise FrontError(f"{exc}; in {what}") from None
    return solution


def _payoff_with_seeds(
    instance: ProblemInstance,
    time_limit_s: float | None,
    fixed_orientation: bool,
) -> tuple[PayoffTable, list[np.ndarray], MilpModel, float]:
    """The payoff table, its two refined corners as seeds, the Z model, and
    the proven bound on z.

    Each refine solve starts from the proven bound of its unconstrained
    solve: capping the other objective only shrinks the feasible set.
    """
    model_z = build_model(instance, Objective.Z, fixed_orientation=fixed_orientation)
    model_zz = replace(model_z, active_objective=Objective.ZZ)

    # nothing bounds the two ideals before they are solved
    sol_z = _require_optimal(solve_milp(model_z, time_limit_s=time_limit_s, lower_bound=-math.inf),
                             model_z, "payoff: minimize cost")
    sol_zz = _require_optimal(solve_milp(model_zz, time_limit_s=time_limit_s, lower_bound=-math.inf),
                              model_zz, "payoff: minimize unused area")
    z_ideal = float(sol_z.objective)
    zz_ideal = float(sol_zz.objective)

    # among cost-optimal solutions, the one wasting least area; and among
    # area-optimal solutions, the cheapest: those are the nadir estimates
    capped_zz = cap_objective(model_zz, Objective.Z, z_ideal + gap_slack(z_ideal))
    ref_z = _require_optimal(
        solve_milp(capped_zz, time_limit_s=time_limit_s, warm_values=[sol_z.values],
                   lower_bound=sol_zz.bound),
        capped_zz,
        "payoff: refine the cost-optimal corner",
    )
    capped_z = cap_objective(model_z, Objective.ZZ, zz_ideal + gap_slack(zz_ideal))
    ref_zz = _require_optimal(
        solve_milp(capped_z, time_limit_s=time_limit_s, warm_values=[sol_zz.values],
                   lower_bound=sol_z.bound),
        capped_z,
        "payoff: refine the area-optimal corner",
    )

    table = PayoffTable(
        z_ideal=z_ideal,
        zz_ideal=zz_ideal,
        z_nadir_est=float(ref_zz.objective),
        zz_nadir_est=float(ref_z.objective),
    )
    return table, [ref_zz.values, ref_z.values], model_z, sol_z.bound


def payoff_table(
    instance: ProblemInstance,
    *,
    time_limit_s: float | None = None,
    fixed_orientation: bool = False,
) -> PayoffTable:
    """Ideal and estimated nadir values of both objectives.

    Four exact solves: each objective unconstrained, then each
    re-optimized with the other capped at its optimum (plus a token
    margin) so the estimates sit on the actual front.  A solve that
    ends without a proven optimum raises FrontError with its status; one
    that `accept` rejects raises FrontError with status None.
    """
    if not instance.parts:
        return PayoffTable(0.0, 0.0, 0.0, 0.0)
    return _payoff_with_seeds(instance, time_limit_s, fixed_orientation)[0]


def epsilon_grid(table: PayoffTable, grid_count: int) -> tuple[float, ...]:
    """Evenly spaced caps from the area ideal to its nadir estimate.

    The two end caps are the table's own values: the spacing formula can
    miss the nadir estimate by an ulp.
    """
    if grid_count < 1:
        raise ValueError("grid_count must be at least 1")
    if grid_count == 1:
        return (table.zz_ideal,)
    span = table.zz_nadir_est - table.zz_ideal
    inner = (table.zz_ideal + k * span / (grid_count - 1) for k in range(1, grid_count - 1))
    return (table.zz_ideal, *inner, table.zz_nadir_est)


def filter_dominated(points: list[ParetoPoint]) -> list[ParetoPoint]:
    """Keep the nondominated points, deduplicated and sorted by zz.

    A point falls if another is at least as good in both objectives and
    strictly better in one; exact repeats within 1e-6 collapse to one.
    Sorted by (zz, z), a point's dominators all come first, so one sweep
    drops it when an earlier point has a lower z, or the same z at a lower zz.
    """
    valued = sorted((p for p in points if p.z is not None and p.zz is not None),
                    key=lambda p: (p.zz, p.z))
    out: list[ParetoPoint] = []
    best: ParetoPoint | None = None
    for p in valued:
        if best is not None and (p.z > best.z or (p.z == best.z and p.zz > best.zz)):
            continue
        if best is None or p.z < best.z:
            best = p
        if out and abs(p.z - out[-1].z) <= 1e-6 and abs(p.zz - out[-1].zz) <= 1e-6:
            continue
        out.append(p)
    return out


def pareto_front(
    instance: ProblemInstance,
    *,
    time_limit_s: float | None = None,
    grid_count: int = 10,
    fixed_orientation: bool = False,
) -> ParetoFront:
    """Sweep the area cap and collect the nondominated outcomes.

    The caps are ``epsilon_grid(payoff, grid_count)``, solved loosest
    first, each seeded with the payoff corners and every earlier solution.
    A cap that the last proven optimum P already fits (``P.zz <= eps``,
    exactly) is not solved: its feasible set lies inside the looser cap's,
    so P is optimal there too and the row is P at that cap.  After each
    optimal solve, every looser optimal row with a larger zz takes the new
    point when its z is within `gap_slack` of that row's proven
    bound, so a row never reports a weakly efficient optimum that a
    tighter cap improved on.  Every capped solve gets ``lower_bound``, a
    floor on z: the cost ideal's proven bound raised to every earlier capped
    solve's proven bound, whatever its status, since a tighter cap's
    feasible set lies inside each looser cap's.  A solve whose incumbent
    comes within `gap_slack` of the floor stops there, proven optimal.
    Time-limited attempts are flagged in the log
    rather than dropped, infeasible caps appear the same way, and neither
    feeds a skip or a back-fill.  Every solve that returns a schedule,
    optimal or time-limited, must pass `accept` and keep within its cap
    (absolute 1e-6); optimal cost must never fall as the cap tightens.
    ``attempts`` is in ascending cap order.  A ``grid_count`` below 1
    raises ``ValueError`` before any solve.
    """
    if grid_count < 1:
        raise ValueError("grid_count must be at least 1")
    if not instance.parts:
        table = PayoffTable(0.0, 0.0, 0.0, 0.0)
        sched = Schedule((), {}, frozenset())
        ev = evaluate(sched, instance)
        point = ParetoPoint(0.0, 0.0, 0.0, SolveStatus.Optimal, sched, ev)
        return ParetoFront((point,), (point,), table)

    table, seeds, base, floor = _payoff_with_seeds(instance, time_limit_s, fixed_orientation)

    # (row, proven bound behind it), loosest cap first; the bound is None
    # unless the row is optimal, and ``last`` is the last optimal solve's pair
    rows: list[tuple[ParetoPoint, float | None]] = []
    warm: list[np.ndarray] = list(seeds)
    last: tuple[ParetoPoint, float] | None = None
    for eps in sorted(epsilon_grid(table, grid_count), reverse=True):
        if last is not None and last[0].zz <= eps:
            rows.append((replace(last[0], epsilon=eps), last[1]))
            continue
        model = inject_epsilon(base, eps)
        sol = solve_milp(model, time_limit_s=time_limit_s, warm_values=warm, lower_bound=floor)
        floor = max(floor, sol.bound)
        if sol.values is None:
            rows.append((ParetoPoint(eps, None, None, sol.status, None, None), None))
            continue
        try:
            schedule, ev = accept(sol, model)
        except ValueError as exc:
            raise FrontError(f"{exc}; at eps={eps:g}") from None
        point = ParetoPoint(eps, ev.z, ev.zz, sol.status, schedule, ev)
        warm.append(sol.values)
        if ev.zz > eps + 1e-6:
            raise FrontError(
                f"solution breaches its own cap at eps={eps:g}: zz={ev.zz:g}"
            )
        if sol.status is not SolveStatus.Optimal:
            rows.append((point, None))
            continue
        if last is not None and ev.z < last[0].z - 1e-6:
            raise FrontError(
                f"cost fell from {last[0].z:g} to {ev.z:g} as the cap "
                f"tightened to {eps:g}"
            )
        for k, (row, bound) in enumerate(rows):
            if bound is not None and row.zz > ev.zz and ev.z - bound <= gap_slack(ev.z):
                rows[k] = replace(point, epsilon=row.epsilon), bound
        last = point, sol.bound
        rows.append(last)

    attempts = [row for row, _ in reversed(rows)]
    kept = filter_dominated(attempts)
    return ParetoFront(tuple(kept), tuple(attempts), table)


def _cell(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def write_front_csv(
    front: ParetoFront,
    path,
    params: str = "",
) -> None:
    """One row per epsilon attempt, plus the payoff table in comments.

    Each attempt with a schedule also gets ``point_<k>_schedule.csv``
    beside ``path`` (k its attempt index, same stamp), named in its row.
    """
    table = front.payoff
    payoff_line = (
        f"# payoff z_ideal={table.z_ideal:.6f} zz_ideal={table.zz_ideal:.6f} "
        f"z_nadir_est={table.z_nadir_est:.6f} zz_nadir_est={table.zz_nadir_est:.6f}"
    )
    rows = []
    for k, point in enumerate(front.attempts):
        name = ""
        if point.schedule is not None:
            name = f"point_{k}_schedule.csv"
            write_schedule_csv(point.schedule, point.evaluation, Path(path).parent / name, params=params)
        rows.append([f"{point.epsilon:.6f}", _cell(point.z), _cell(point.zz), point.status.value, name])
    write_csv(path, params, ["epsilon", "z_hours", "zz_mm2", "status", "schedule_file"], rows,
              comments=[payoff_line])


def write_front_gnuplot(front: ParetoFront, path) -> None:
    """Two-column plot data of the kept front: unused area, then cost."""
    lines = ["# zz_mm2 z_hours"]
    for point in front.points:
        lines.append(f"{point.zz:.6f} {point.z:.6f}")
    Path(path).write_text("\n".join(lines) + "\n")

