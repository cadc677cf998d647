"""Command line front end for solves, front sweeps, and experiments.

Four subcommands: ``solve`` for one model, ``pareto`` for the trade-off
curve, ``scenario`` for free- versus fixed-orientation comparisons over
part-count prefixes, and ``sweep`` for parameter sensitivity runs.  All
emit CSV files with a provenance comment line, plus gnuplot-ready data
where a plot is the natural consumer.

Models too large for the built-in solver (binary count above 120) are
routed to an external-solver workflow: the model is written as an LP
file and the run either reads a provided solution file or marks the
cell pending.
"""

from __future__ import annotations

import csv
import io
import math
import os
import subprocess
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import click

from . import __version__
from .datasets import BUILTIN_NAMES, load_builtin, part_prefix, random_instance, reference_curves, with_machine_count
from .evaluate import evaluate, decode, write_schedule_csv
from .instance import InstanceError, ProblemInstance, instance_hash, load_instance, validate
from .model import Objective, build_model, write_lp
from .pareto import FrontError, attach_schedule_files, pareto_front, write_front_csv, write_front_gnuplot
from .solver import SolveParams, SolveStatus, parse_external_solution, solve_milp

EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_TIME_LIMIT = 4
AUTO_EXTERNAL_BINARIES = 120


@dataclass(frozen=True)
class SweepSpec:
    """One sensitivity experiment: which knob, which values, which scenarios."""

    parameter: str
    values: tuple[float, ...]
    scenario: str = "both"
    machines_override: int | None = None


def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).parent,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unreleased"


def _provenance(extra: dict) -> str:
    bits = [f"{k}={v}" for k, v in extra.items() if v is not None]
    bits.append(f"git={_git_describe()}")
    return " ".join(bits)


def _load(source: str, seed: int) -> ProblemInstance:
    if source in BUILTIN_NAMES:
        return load_builtin(source)
    if source == "random":
        return random_instance(seed)
    return load_instance(source)


def _prepare(source, seed, machines, parts_prefix, jobs):
    """Load and reshape an instance; InstanceError maps to exit 2."""
    inst = _load(source, seed)
    if machines is not None:
        inst = with_machine_count(inst, machines)
    if parts_prefix is not None:
        inst = part_prefix(inst, parts_prefix)
    if jobs is not None:
        inst = ProblemInstance(
            machines=inst.machines,
            parts=inst.parts,
            penalties=inst.penalties,
            jobs_per_machine=jobs,
        )
    report = validate(inst)
    if not report.ok:
        raise InstanceError("; ".join(issue.message for issue in report.errors))
    return inst


def _resolve_solver(flag: str | None, n_binaries: int) -> str:
    choice = os.environ.get("PRINTPLAN_SOLVER") or flag
    if choice in ("builtin", "external"):
        return choice
    return "external" if n_binaries > AUTO_EXTERNAL_BINARIES else "builtin"


def _write_rows(path: Path, provenance: str, header: list[str], rows: list[list], extra_comments=()) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    lines = [f"# printplan={__version__} {provenance}"]
    lines.extend(extra_comments)
    path.write_text("\n".join(lines) + "\n" + buf.getvalue())


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
        extra_comments=[f"# totals z_hours={evaluation.z:.6f} zz_mm2={evaluation.zz:.6f}"],
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


def _search_options(fn):
    fn = click.option("--gap", type=float, default=1e-6, show_default=True, help="Relative optimality gap.")(fn)
    fn = click.option("--time-limit", type=float, default=None, help="Per-solve wall clock limit in seconds.")(fn)
    return fn


def _solver_option(fn):
    return click.option("--solver", type=click.Choice(["builtin", "external"]), default=None,
                        help="Force the solver path (default: auto by model size; "
                             "PRINTPLAN_SOLVER env var wins).")(fn)


def _cell_options(fn):
    fn = click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True,
                      help="Cells solved in parallel; the CSV is the same for any count.")(fn)
    return _solver_option(_search_options(fn))


@click.group()
@click.version_option(version=__version__, prog_name="printplan")
def main():
    """Build planning for powder-bed printer farms."""


@main.command()
@_instance_options
@_search_options
@_solver_option
@click.option("--solution-in", type=click.Path(exists=False, path_type=Path), default=None,
              help="Solution file from an external solver to read back.")
@click.option("--lp-out", type=click.Path(path_type=Path), default=None,
              help="Where to write the LP file on the external path.")
@click.option("--objective", type=click.Choice(["z", "zz"]), default="z",
              show_default=True, help="Minimize timing cost (z) or unused area (zz).")
@click.option("--fixed-orientation", is_flag=True, help="Pin every part to its as-delivered pose.")
def solve(source, seed, jobs, machines, out, objective, fixed_orientation,
          solver, lp_out, solution_in, time_limit, gap):
    """Solve one model and write schedule plus evaluation CSVs."""
    try:
        inst = _prepare(source, seed, machines, None, jobs)
    except (InstanceError, ValueError, OSError) as exc:
        _fail(EXIT_VALIDATION, str(exc))

    out.mkdir(parents=True, exist_ok=True)
    params = SolveParams(time_limit_s=time_limit, gap_tolerance=gap)
    model = build_model(inst, Objective(objective), fixed_orientation=fixed_orientation)
    provenance = _provenance({
        "instance": instance_hash(inst),
        "cmd": "solve",
        "objective": objective,
        "fixed_orientation": fixed_orientation,
    })

    mode = _resolve_solver(solver, len(model.registry.binary_columns()))
    started = time.perf_counter()
    if mode == "external":
        lp_path = lp_out or out / "model.lp"
        lp_path.parent.mkdir(parents=True, exist_ok=True)
        lp_path.write_text(write_lp(model))
        if solution_in is None or not Path(solution_in).exists():
            click.echo(f"LP written to {lp_path}; solve it externally and re-run "
                       f"with --solution-in <file>")
            click.echo("status: pending_external")
            return
        sol = parse_external_solution(Path(solution_in).read_text(), model)
    else:
        sol = solve_milp(model, params)
    wall = time.perf_counter() - started

    if sol.status is SolveStatus.Infeasible:
        _fail(EXIT_INFEASIBLE, "model is infeasible")
    if sol.values is None:
        _fail(EXIT_TIME_LIMIT, "time limit reached before any feasible schedule")

    schedule = decode(sol, inst)
    ev = evaluate(schedule, inst)
    write_schedule_csv(schedule, ev, out / "schedule.csv", inst, params=provenance)
    _write_evaluation_csv(ev, out / "evaluation.csv", provenance)
    click.echo(f"status: {sol.status.value}")
    click.echo(f"z_hours: {ev.z:.6f}")
    click.echo(f"zz_mm2: {ev.zz:.6f}")
    click.echo(f"gap: {sol.gap:.2e}")
    click.echo(f"wall_s: {wall:.2f}")
    click.echo(f"wrote {out / 'schedule.csv'} and {out / 'evaluation.csv'}")


@main.command()
@_instance_options
@_search_options
@click.option("--epsilon-count", type=click.IntRange(min=1), default=10, show_default=True,
              help="Epsilon grid size.")
@click.option("--fixed-orientation", is_flag=True, help="Pin every part to its as-delivered pose.")
def pareto(source, seed, jobs, machines, out, epsilon_count, fixed_orientation, time_limit, gap):
    """Sweep the area cap and write the trade-off front (builtin solver only)."""
    try:
        inst = _prepare(source, seed, machines, None, jobs)
    except (InstanceError, ValueError, OSError) as exc:
        _fail(EXIT_VALIDATION, str(exc))
    out.mkdir(parents=True, exist_ok=True)
    provenance = _provenance({"cmd": "pareto", "instance": instance_hash(inst), "K": epsilon_count})
    try:
        front = pareto_front(inst, SolveParams(time_limit_s=time_limit, gap_tolerance=gap),
                             grid_count=epsilon_count, fixed_orientation=fixed_orientation)
    except FrontError as exc:
        code = EXIT_INFEASIBLE if "infeasible" in str(exc) else EXIT_TIME_LIMIT
        _fail(code, str(exc))

    names = {}
    for idx, point in enumerate(front.attempts):
        if point.schedule is None:
            continue
        name = f"point_{idx}_schedule.csv"
        write_schedule_csv(point.schedule, point.evaluation, out / name, inst,
                           params=provenance)
        names[idx] = name
    front = attach_schedule_files(front, names)
    write_front_csv(front, out / "front.csv", inst, params=provenance)
    write_front_gnuplot(front, out / "front.dat")
    click.echo(f"payoff: z in [{front.payoff.z_ideal:.6f}, {front.payoff.z_nadir_est:.6f}], "
               f"zz in [{front.payoff.zz_ideal:.6f}, {front.payoff.zz_nadir_est:.6f}]")
    for point in front.points:
        click.echo(f"front point: zz={point.zz:.6f} z={point.z:.6f} [{point.status.value}]")
    click.echo(f"wrote {out / 'front.csv'} ({len(front.points)} nondominated points)")


def _solve_cell(inst, fixed_orientation, params, mode, lp_path: Path):
    """One scenario/sweep cell: (z or None, status string)."""
    model = build_model(inst, Objective.Z, fixed_orientation=fixed_orientation)
    if mode == "auto":
        mode = _resolve_solver(None, len(model.registry.binary_columns()))
    if mode == "external":
        lp_path.parent.mkdir(parents=True, exist_ok=True)
        lp_path.write_text(write_lp(model))
        sol_path = lp_path.with_suffix(".sol")
        if not sol_path.exists():
            return None, "pending_external"
        sol = parse_external_solution(sol_path.read_text(), model)
    else:
        sol = solve_milp(model, params)
    if sol.status is SolveStatus.Infeasible:
        return None, "infeasible"
    if sol.values is None:
        return None, "time_limit"
    ev = evaluate(decode(sol, inst), inst)
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
@_cell_options
@click.option("--parts-prefix", "prefixes", required=True,
              help="Comma-separated prefix sizes to compare, e.g. 2,4,6.")
def scenario(source, seed, jobs, machines, out, prefixes, solver, time_limit, gap, threads):
    """Compare free-orientation and fixed-orientation cost per part count.

    Solves the cost-only model twice per prefix size.  Free orientation
    can never lose to fixed orientation; the run fails loudly if the
    emitted numbers ever say otherwise.
    """
    sizes = _parse_int_list(prefixes)
    if not sizes:
        raise click.BadParameter("at least one prefix size required")
    try:
        base = _load(source, seed)
        if machines is not None:
            base = with_machine_count(base, machines)
    except (InstanceError, ValueError, OSError) as exc:
        _fail(EXIT_VALIDATION, str(exc))
    out.mkdir(parents=True, exist_ok=True)
    params = SolveParams(time_limit_s=time_limit, gap_tolerance=gap)
    mode = os.environ.get("PRINTPLAN_SOLVER") or solver or "auto"

    cells = []
    for n in sizes:
        for fixed in (False, True):
            cells.append((n, fixed))

    def run(cell):
        n, fixed = cell
        try:
            inst = part_prefix(base, n, jobs_per_machine=jobs)
        except ValueError:
            return None, "invalid_prefix"
        tag = "fixed" if fixed else "free"
        return _solve_cell(inst, fixed, params, mode, out / f"scenario_p{n}_{tag}.lp")

    with ThreadPoolExecutor(max_workers=threads) as pool:
        outcomes = list(pool.map(run, cells))

    rows = []
    results = {}
    for (n, fixed), (z, status) in zip(cells, outcomes):
        results[(n, fixed)] = (z, status)
    for n in sizes:
        z_free, st_free = results[(n, False)]
        z_fixed, st_fixed = results[(n, True)]
        rows.append([
            n,
            "" if z_free is None else f"{z_free:.6f}",
            "" if z_fixed is None else f"{z_fixed:.6f}",
            st_free,
            st_fixed,
        ])
        if st_free == "optimal" and st_fixed == "optimal":
            if z_free > z_fixed + 1e-6 * max(1.0, abs(z_fixed)):
                raise click.ClickException(
                    f"restriction dominance violated at prefix {n}: free orientation "
                    f"cost {z_free:.6f} exceeds fixed {z_fixed:.6f}"
                )

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
    _report_reference_deviation(base, results, sizes)


def _report_reference_deviation(base, results, sizes):
    """Informational comparison against published curve values, if any."""
    try:
        twenty = load_builtin("twenty_parts")
    except Exception:
        return
    if [p.id for p in base.parts] != [p.id for p in twenty.parts]:
        return
    curves = reference_curves()
    key = "twenty_parts_one_machine" if len(base.machines) == 1 else "twenty_parts_two_machines"
    if key not in curves:
        return
    for scen_key, fixed in (("free_orientation", False), ("fixed_orientation", True)):
        published = dict(tuple(pair) for pair in curves[key][scen_key])
        for n in sizes:
            z, status = results.get((n, fixed), (None, ""))
            if z is None or n not in published:
                continue
            click.echo(
                f"reference check (informational): n={n} {scen_key} "
                f"got {z:.3f} vs published {published[n]:.3f} "
                f"(deviation {z - published[n]:+.3f})"
            )


SWEEP_PARAMETERS = ("layer_time", "volumetric_time", "machine_area", "part_count_prefix")


def _apply_sweep_value(base: ProblemInstance, parameter: str, value: float) -> ProblemInstance:
    if parameter == "part_count_prefix":
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
    return ProblemInstance(
        machines=tuple(machines),
        parts=base.parts,
        penalties=base.penalties,
        jobs_per_machine=base.jobs_per_machine,
    )


def run_sweep(base: ProblemInstance, spec: SweepSpec, params: SolveParams,
              mode: str, out: Path, threads: int = 1):
    """Execute a sweep; returns rows [parameter, value, scenario, z, status]."""
    if spec.parameter not in SWEEP_PARAMETERS:
        raise ValueError(f"unknown sweep parameter {spec.parameter!r}")
    if not spec.values:
        raise ValueError("sweep needs at least one value")
    if spec.parameter != "part_count_prefix" and any(v <= 0 for v in spec.values):
        raise ValueError("sweep values must be positive")
    if spec.scenario not in ("free_orientation", "fixed_orientation", "both"):
        raise ValueError(f"unknown scenario {spec.scenario!r}")
    if spec.machines_override is not None:
        base = with_machine_count(base, spec.machines_override)

    scenarios = {
        "free_orientation": (False,),
        "fixed_orientation": (True,),
        "both": (False, True),
    }[spec.scenario]

    cells = [(value, fixed) for value in spec.values for fixed in scenarios]

    def run(cell):
        value, fixed = cell
        try:
            inst = _apply_sweep_value(base, spec.parameter, value)
            report = validate(inst)
            if not report.ok:
                return None, "invalid_instance"
        except (InstanceError, ValueError):
            return None, "invalid_instance"
        tag = "fixed" if fixed else "free"
        lp_path = out / f"sweep_{spec.parameter}_{value:g}_{tag}.lp"
        return _solve_cell(inst, fixed, params, mode, lp_path)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        outcomes = list(pool.map(run, cells))

    rows = []
    for (value, fixed), (z, status) in zip(cells, outcomes):
        rows.append([
            spec.parameter,
            f"{value:g}",
            "fixed_orientation" if fixed else "free_orientation",
            "" if z is None else f"{z:.6f}",
            status,
        ])
    _check_sweep_dominance(spec, rows)
    return rows


def _check_sweep_dominance(spec: SweepSpec, rows) -> None:
    """Loud failure when emitted numbers contradict known monotonicity."""
    by_scenario: dict[str, list[tuple[float, float]]] = {}
    for parameter, value, scen, z, status in rows:
        if status == "optimal" and z != "":
            by_scenario.setdefault(scen, []).append((float(value), float(z)))
    for scen, pairs in by_scenario.items():
        pairs.sort()
        if spec.parameter == "machine_area" and scen == "free_orientation":
            for (v1, z1), (v2, z2) in zip(pairs, pairs[1:]):
                if z2 > z1 + 1e-6 * max(1.0, abs(z1)):
                    raise click.ClickException(
                        f"larger plate area worsened the optimum: z({v2:g})={z2:.6f} "
                        f"exceeds z({v1:g})={z1:.6f}"
                    )
    # per-value scenario-1 vs scenario-2 comparison
    free = {value: z for p, value, s, z, st in rows if s == "free_orientation" and st == "optimal" and z != ""}
    fixed = {value: z for p, value, s, z, st in rows if s == "fixed_orientation" and st == "optimal" and z != ""}
    for value in free.keys() & fixed.keys():
        if float(free[value]) > float(fixed[value]) + 1e-6 * max(1.0, abs(float(fixed[value]))):
            raise click.ClickException(
                f"restriction dominance violated at {spec.parameter}={value}: "
                f"free {free[value]} exceeds fixed {fixed[value]}"
            )


@main.command()
@_instance_options
@_cell_options
@click.option("--parameter", type=click.Choice(list(SWEEP_PARAMETERS)), required=True,
              help="Which knob to sweep.")
@click.option("--values", required=True, help="Comma-separated values, e.g. 0.1,0.01,0.001.")
@click.option("--scenario", type=click.Choice(["free_orientation", "fixed_orientation", "both"]),
              default="both", show_default=True)
@click.option("--parts-prefix", type=int, default=None,
              help="Restrict to the first N parts before sweeping.")
def sweep(source, seed, jobs, machines, out, parameter, values, scenario, parts_prefix,
          solver, time_limit, gap, threads):
    """Sensitivity analysis: re-solve the cost model along one parameter."""
    value_list = _parse_float_list(values)
    try:
        base = _prepare(source, seed, None, parts_prefix, jobs)
    except (InstanceError, ValueError, OSError) as exc:
        _fail(EXIT_VALIDATION, str(exc))
    out.mkdir(parents=True, exist_ok=True)
    spec = SweepSpec(parameter, tuple(value_list), scenario, machines)
    params = SolveParams(time_limit_s=time_limit, gap_tolerance=gap)
    mode = os.environ.get("PRINTPLAN_SOLVER") or solver or "auto"
    try:
        rows = run_sweep(base, spec, params, mode, out, threads=threads)
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
