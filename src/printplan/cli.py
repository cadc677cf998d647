"""Command line front end for solves, front sweeps, and experiments.

Four subcommands: ``solve`` for one model, ``pareto`` for the trade-off
curve, ``scenario`` for free- versus fixed-orientation comparisons over
part-count prefixes, and ``sweep`` for parameter sensitivity runs.  All
emit CSV files with a provenance comment line, plus gnuplot-ready data
where a plot is the natural consumer.

Every solve goes through one route.  Models too large for the built-in
solver (binary count above 120), or any model under ``--solver
external``, are written as an LP file; the run reads the ``.sol`` file
beside it (``<out>/model.lp`` and ``model.sol`` for ``solve``,
``<cell>.lp`` and ``<cell>.sol`` for a scenario or sweep cell) or,
while that file is missing, marks the solve pending.  ``scenario`` is a
part-count sweep over both orientation scenarios, pivoted into one row
per prefix.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from pathlib import Path

import click

from . import __version__
from .datasets import BUILTIN_NAMES, load_builtin, part_prefix, random_instance, reference_curves, with_machine_count
# perfbench/spans.py traces the one CSV writer under the name ``_write_rows``
from .evaluate import accept, write_csv as _write_rows, write_schedule_csv
from .instance import InstanceError, ProblemInstance, instance_hash, load_instance, validate
from .model import Objective, build_model, write_lp
from .pareto import FrontError, pareto_front, write_front_csv, write_front_gnuplot
from .solver import SolveStatus, gap_slack, parse_external_solution, solve_milp

EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_TIME_LIMIT = 4
AUTO_EXTERNAL_BINARIES = 120


def _provenance(extra: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in extra.items() if v is not None)


def _load(source: str, seed: int) -> ProblemInstance:
    if source in BUILTIN_NAMES:
        return load_builtin(source)
    if source == "random":
        return random_instance(seed)
    return load_instance(source)


def _prepare(source, seed, machines, parts_prefix, jobs) -> ProblemInstance:
    """Load, reshape and validate an instance; any failure exits 2."""
    try:
        inst = _load(source, seed)
        if machines is not None:
            inst = with_machine_count(inst, machines)
        if parts_prefix is not None:
            inst = part_prefix(inst, parts_prefix)
        if jobs is not None:
            inst = replace(inst, jobs_per_machine=jobs)
    except (InstanceError, ValueError, OSError) as exc:
        _fail(EXIT_VALIDATION, str(exc))
    report = validate(inst)
    if not report.ok:
        _fail(EXIT_VALIDATION, "; ".join(issue.message for issue in report.errors))
    return inst


def _resolve_solver(flag: str | None, n_binaries: int) -> str:
    if flag is not None:
        return flag
    return "external" if n_binaries > AUTO_EXTERNAL_BINARIES else "builtin"


def _solve_routed(model, time_limit_s: float | None, solver: str | None, lp_path: Path):
    """Solve in-process, or write ``lp_path`` and read the ``.sol`` beside it.

    Returns ``(solution, schedule, evaluation)``, the last two from
    `accept`, or None on the external route while the solution file is
    missing.  A solve that ends without values has no schedule to accept
    and comes back as ``(solution, None, None)``.  A rejected solution
    raises ``ValueError`` with the gate's message; on the external route
    the message, or that of a file that does not parse, is prefixed with
    the ``.sol`` path.
    """
    if _resolve_solver(solver, model.registry.n_binaries) == "builtin":
        return _accepted(solve_milp(model, time_limit_s=time_limit_s), model)
    lp_path.parent.mkdir(parents=True, exist_ok=True)
    lp_path.write_text(write_lp(model))
    sol_path = lp_path.with_suffix(".sol")
    if not sol_path.exists():
        return None
    try:
        return _accepted(parse_external_solution(sol_path.read_text(), model), model)
    except (ValueError, KeyError) as exc:
        raise ValueError(f"{sol_path}: {exc}") from None


def _accepted(sol, model):
    return (sol, None, None) if sol.values is None else (sol, *accept(sol, model))


def _write_evaluation_csv(evaluation, path: Path, provenance: str) -> None:
    rows = [
        [
            job.machine_id,
            job.job_index,
            len(job.part_ids),
            f"{job.height_mm:g}",
            f"{job.processing_h:.6f}",
            f"{job.completion_h:.6f}",
            f"{job.occupied_mm2:g}",
            f"{job.utilization:.6f}",
            int(job.activated),
        ]
        for job in evaluation.jobs
    ]
    _write_rows(
        path,
        provenance,
        ["machine_id", "job_index", "part_count", "height_mm", "processing_h",
         "completion_h", "occupied_mm2", "utilization", "activated"],
        rows,
        comments=[f"# totals z_hours={evaluation.z:.6f} zz_mm2={evaluation.zz:.6f}"],
    )


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    raise SystemExit(code)


# shared option stacks


def _instance_options(fn):
    fn = click.option("--seed", type=int, default=0, show_default=True,
                      help="Seed when --instance random is used.")(fn)
    fn = click.option("--jobs", type=int, default=None, help="Override job slots per machine.")(fn)
    fn = click.option("--machines", type=int, default=None, help="Override machine count (replicates the first machine).")(fn)
    fn = click.option("--out", type=click.Path(file_okay=False, path_type=Path), default=Path("."),
                      show_default=True, help="Directory for output files.")(fn)
    fn = click.option("--instance", "source", required=True,
                      help=f"Instance file, one of {', '.join(BUILTIN_NAMES)}, or 'random'.")(fn)
    return fn


def _not_nan(ctx, param, value):
    if value is not None and math.isnan(value):
        raise click.BadParameter("must be a number of seconds, not nan")
    return value


def _time_limit_option(fn):
    return click.option("--time-limit", type=float, default=None, callback=_not_nan,
                        help="Per-solve wall clock limit in seconds.")(fn)


def _solver_option(fn):
    return click.option("--solver", type=click.Choice(["builtin", "external"]), default=None,
                        help="Force the solver path (default: external above "
                             f"{AUTO_EXTERNAL_BINARIES} binaries).")(fn)


@click.group()
@click.version_option(version=__version__, prog_name="printplan")
def main():
    """Build planning for powder-bed printer farms."""


@main.command()
@_instance_options
@_time_limit_option
@_solver_option
@click.option("--objective", type=click.Choice(["z", "zz"]), default="z",
              show_default=True, help="Minimize timing cost (z) or unused area (zz).")
@click.option("--fixed-orientation", is_flag=True, help="Pin every part to its as-delivered pose.")
def solve(source, seed, jobs, machines, out, objective, fixed_orientation,
          solver, time_limit):
    """Solve one model and write schedule plus evaluation CSVs."""
    inst = _prepare(source, seed, machines, None, jobs)
    out.mkdir(parents=True, exist_ok=True)
    model = build_model(inst, Objective(objective), fixed_orientation=fixed_orientation)
    provenance = _provenance({
        "instance": instance_hash(inst),
        "cmd": "solve",
        "objective": objective,
        "fixed_orientation": fixed_orientation,
    })

    started = time.perf_counter()
    try:
        routed = _solve_routed(model, time_limit, solver, out / "model.lp")
    except ValueError as exc:
        _fail(EXIT_VALIDATION, str(exc))
    wall = time.perf_counter() - started
    if routed is None:
        click.echo(f"LP written to {out / 'model.lp'}; solve it externally, save the "
                   f"solution as {out / 'model.sol'} and re-run")
        click.echo("status: pending_external")
        return
    sol, schedule, ev = routed
    if sol.status is SolveStatus.Infeasible:
        _fail(EXIT_INFEASIBLE, "model is infeasible")
    if schedule is None:
        _fail(EXIT_TIME_LIMIT, "time limit reached before any feasible schedule")

    write_schedule_csv(schedule, ev, out / "schedule.csv", params=provenance)
    _write_evaluation_csv(ev, out / "evaluation.csv", provenance)
    click.echo(f"status: {sol.status.value}")
    click.echo(f"z_hours: {ev.z:.6f}")
    click.echo(f"zz_mm2: {ev.zz:.6f}")
    click.echo(f"gap: {sol.gap:.2e}")
    click.echo(f"wall_s: {wall:.2f}")
    click.echo(f"wrote {out / 'schedule.csv'} and {out / 'evaluation.csv'}")


@main.command()
@_instance_options
@_time_limit_option
@click.option("--epsilon-count", type=click.IntRange(min=1), default=10, show_default=True,
              help="Epsilon grid size.")
@click.option("--fixed-orientation", is_flag=True, help="Pin every part to its as-delivered pose.")
def pareto(source, seed, jobs, machines, out, epsilon_count, fixed_orientation, time_limit):
    """Sweep the area cap and write the trade-off front (builtin solver only)."""
    inst = _prepare(source, seed, machines, None, jobs)
    out.mkdir(parents=True, exist_ok=True)
    provenance = _provenance({"instance": instance_hash(inst), "cmd": "pareto", "K": epsilon_count})
    try:
        front = pareto_front(inst, time_limit_s=time_limit, grid_count=epsilon_count,
                             fixed_orientation=fixed_orientation)
    except FrontError as exc:
        # exit on the status of a payoff solve that ended without a proven optimum
        code = {SolveStatus.Infeasible: EXIT_INFEASIBLE,
                SolveStatus.TimeLimit: EXIT_TIME_LIMIT}.get(exc.status, 1)
        _fail(code, str(exc))

    write_front_csv(front, out / "front.csv", params=provenance)
    write_front_gnuplot(front, out / "front.dat")
    click.echo(f"payoff: z in [{front.payoff.z_ideal:.6f}, {front.payoff.z_nadir_est:.6f}], "
               f"zz in [{front.payoff.zz_ideal:.6f}, {front.payoff.zz_nadir_est:.6f}]")
    for point in front.points:
        click.echo(f"front point: zz={point.zz:.6f} z={point.z:.6f} [{point.status.value}]")
    click.echo(f"wrote {out / 'front.csv'} ({len(front.points)} nondominated points)")


def _solve_cell(inst, fixed_orientation, time_limit_s, solver, lp_path: Path):
    """One scenario/sweep cell: (z or None, status string)."""
    model = build_model(inst, Objective.Z, fixed_orientation=fixed_orientation)
    routed = _solve_routed(model, time_limit_s, solver, lp_path)
    if routed is None:
        return None, "pending_external"
    sol, _, ev = routed
    if sol.status is SolveStatus.Infeasible:
        return None, "infeasible"
    if ev is None:
        return None, "time_limit"
    return ev.z, sol.status.value


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise click.BadParameter(f"expected comma-separated integers, got {text!r}")


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise click.BadParameter(f"expected comma-separated numbers, got {text!r}")


@main.command()
@_instance_options
@_time_limit_option
@_solver_option
@click.option("--parts-prefix", "prefixes", required=True,
              help="Comma-separated prefix sizes to compare, e.g. 2,4,6.")
def scenario(source, seed, jobs, machines, out, prefixes, solver, time_limit):
    """Compare free-orientation and fixed-orientation cost per part count.

    A part-count sweep over both scenarios, written one row per prefix
    size.  Free orientation can never lose to fixed orientation; the run
    fails loudly if the emitted numbers ever say otherwise.
    """
    sizes = _parse_int_list(prefixes)
    if not sizes:
        raise click.BadParameter("at least one prefix size required")
    base = _prepare(source, seed, machines, None, jobs)
    out.mkdir(parents=True, exist_ok=True)
    try:
        cells = run_sweep(base, "part_count_prefix", sizes, "both", time_limit, solver, out,
                          stem="scenario")
    except ValueError as exc:
        _fail(EXIT_VALIDATION, str(exc))
    # cells come as (free, fixed) pairs in prefix order
    rows = [[n, free[3], fixed[3], free[4], fixed[4]]
            for n, free, fixed in zip(sizes, cells[::2], cells[1::2])]

    provenance = _provenance({
        "instance": instance_hash(base),
        "cmd": "scenario",
        "prefixes": prefixes,
        "machines": machines,
    })
    _write_rows(
        out / "scenario.csv",
        provenance,
        ["parts_prefix", "z_free_orientation", "z_fixed_orientation", "status_free", "status_fixed"],
        rows,
    )
    click.echo(f"wrote {out / 'scenario.csv'}")
    for row in rows:
        click.echo("  n=%s free=%s fixed=%s (%s/%s)" % tuple(row))
    _report_reference_deviation(base, rows)


def _report_reference_deviation(base, rows):
    """Informational comparison of scenario rows against the published curves.

    The curves were published for the shipped twenty-part instance on two
    machines and on one, so only those two instances are compared.
    """
    twenty = load_builtin("twenty_parts")
    key = {
        instance_hash(twenty): "twenty_parts_two_machines",
        instance_hash(with_machine_count(twenty, 1)): "twenty_parts_one_machine",
    }.get(instance_hash(base))
    if key is None:
        return
    curves = reference_curves()[key]
    for scen_key, column in (("free_orientation", 1), ("fixed_orientation", 2)):
        published = dict(tuple(pair) for pair in curves[scen_key])
        for row in rows:
            n, z = row[0], row[column]
            if z == "" or n not in published:
                continue
            z = float(z)
            click.echo(
                f"reference check (informational): n={n} {scen_key} "
                f"got {z:.3f} vs published {published[n]:.3f} "
                f"(deviation {z - published[n]:+.3f})"
            )


SWEEP_PARAMETERS = ("layer_time", "volumetric_time", "machine_area", "part_count_prefix")
# each scenario's fixed_orientation flags, in cell order
SWEEP_SCENARIOS = {"free_orientation": (False,), "fixed_orientation": (True,), "both": (False, True)}


def _apply_sweep_value(base: ProblemInstance, parameter: str, value: float) -> ProblemInstance:
    if parameter == "part_count_prefix":
        if not float(value).is_integer():
            raise ValueError(f"part count prefix {value:g} is not an integer")
        return part_prefix(base, int(value))
    machines = []
    for m in base.machines:
        if parameter == "layer_time":
            machines.append(replace(m, layer_time_h_per_mm=value))
        elif parameter == "volumetric_time":
            machines.append(replace(m, volumetric_time_h_per_mm3=value))
        else:
            side = math.sqrt(value)
            machines.append(replace(m, width_mm=side, length_mm=side))
    return replace(base, machines=tuple(machines))


def _sweep_label(value: float) -> str:
    """``value`` as ``:g`` writes it when that reads back as the value, else its repr.

    Distinct values get distinct CSV values, LP files and dominance keys.
    """
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


def run_sweep(base: ProblemInstance, parameter: str, values, scenario: str,
              time_limit_s: float | None, solver: str | None, out: Path, stem: str = "sweep"):
    """Execute a sweep; returns rows [parameter, value, scenario, z, status].

    Cells run value-major, free orientation before fixed.  A cell routed
    to the external solver writes ``<out>/<stem>_<label>_<free|fixed>.lp``,
    where the label is ``p<n>`` for a part-count prefix and
    ``<parameter>_<value>`` otherwise, with values as ``_sweep_label`` writes them.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ValueError(f"unknown sweep parameter {parameter!r}")
    if not values:
        raise ValueError("sweep needs at least one value")
    if parameter != "part_count_prefix" and any(v <= 0 for v in values):
        raise ValueError("sweep values must be positive")
    if scenario not in SWEEP_SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")

    rows = []
    for value in values:
        text = _sweep_label(value)
        label = f"p{text}" if parameter == "part_count_prefix" else f"{parameter}_{text}"
        for fixed in SWEEP_SCENARIOS[scenario]:
            try:
                inst = _apply_sweep_value(base, parameter, value)
                ok = validate(inst).ok
            except (InstanceError, ValueError):
                ok = False
            if ok:
                tag = "fixed" if fixed else "free"
                z, status = _solve_cell(inst, fixed, time_limit_s, solver, out / f"{stem}_{label}_{tag}.lp")
            else:
                z, status = None, "invalid_instance"
            rows.append([
                parameter,
                text,
                "fixed_orientation" if fixed else "free_orientation",
                "" if z is None else f"{z:.6f}",
                status,
            ])
    _check_sweep_dominance(parameter, rows)
    return rows


def _check_sweep_dominance(parameter: str, rows) -> None:
    """Loud failure when emitted numbers contradict known monotonicity."""
    by_scenario: dict[str, list[tuple[float, float]]] = {}
    for _, value, scen, z, status in rows:
        if status == "optimal" and z != "":
            by_scenario.setdefault(scen, []).append((float(value), float(z)))
    # a larger plate relaxes only the area-capacity rows, under either scenario
    if parameter == "machine_area":
        for pairs in by_scenario.values():
            pairs.sort()
            for (v1, z1), (v2, z2) in zip(pairs, pairs[1:]):
                if z2 > z1 + gap_slack(z1):
                    raise click.ClickException(
                        f"larger plate area worsened the optimum: z({v2:g})={z2:.6f} "
                        f"exceeds z({v1:g})={z1:.6f}"
                    )
    # per-value scenario-1 vs scenario-2 comparison
    free = {value: z for p, value, s, z, st in rows if s == "free_orientation" and st == "optimal" and z != ""}
    fixed = {value: z for p, value, s, z, st in rows if s == "fixed_orientation" and st == "optimal" and z != ""}
    for value in free.keys() & fixed.keys():
        if float(free[value]) > float(fixed[value]) + gap_slack(float(fixed[value])):
            raise click.ClickException(
                f"restriction dominance violated at {parameter}={value}: "
                f"free {free[value]} exceeds fixed {fixed[value]}"
            )


@main.command()
@_instance_options
@_time_limit_option
@_solver_option
@click.option("--parameter", type=click.Choice(list(SWEEP_PARAMETERS)), required=True,
              help="Which knob to sweep.")
@click.option("--values", required=True, help="Comma-separated values, e.g. 0.1,0.01,0.001.")
@click.option("--scenario", type=click.Choice(list(SWEEP_SCENARIOS)),
              default="both", show_default=True)
@click.option("--parts-prefix", type=int, default=None,
              help="Restrict to the first N parts before sweeping.")
def sweep(source, seed, jobs, machines, out, parameter, values, scenario, parts_prefix,
          solver, time_limit):
    """Sensitivity analysis: re-solve the cost model along one parameter."""
    value_list = _parse_float_list(values)
    base = _prepare(source, seed, machines, parts_prefix, jobs)
    out.mkdir(parents=True, exist_ok=True)
    try:
        rows = run_sweep(base, parameter, value_list, scenario, time_limit, solver, out)
    except ValueError as exc:
        _fail(EXIT_VALIDATION, str(exc))

    provenance = _provenance({
        "instance": instance_hash(base),
        "cmd": "sweep",
        "parameter": parameter,
        "values": values,
        "scenario": scenario,
    })
    _write_rows(
        out / "sweep.csv",
        provenance,
        ["parameter", "value", "scenario", "z_hours", "status"],
        rows,
    )
    click.echo(f"wrote {out / 'sweep.csv'}")
    for row in rows:
        click.echo("  %s=%s %s z=%s (%s)" % tuple(row))


if __name__ == "__main__":
    main()
