"""The three benchmark workloads and their correctness gates.

Each workload is a closed loop: one caller, one request in flight.  A
pass is one complete request (one front, one sweep, one oracle batch).
``setup`` does the instance loading or generation that precedes the
first solve, ``run_pass`` is the timed request, and ``verify`` holds the
checks that need an independent oracle on the CLI workloads, run once
after timing so the oracle's cost stays out of their ``run_s``.

Every answer is checked.  A MILP solve that raises, ends other than
``optimal`` or misses its gate counts as one failed operation; so does a
missed front-level or cross-pass check.  Nothing is dropped.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

from printplan.cli import main as cli_main
from printplan.datasets import load_builtin, part_prefix, random_instance, with_machine_count
from printplan.evaluate import check_feasible, decode, evaluate
from printplan.instance import ProblemInstance
from printplan.model import Objective, build_model, inject_epsilon
from printplan.oracle import brute_force, single_batch_oracle
from printplan.solver import SolveStatus, solve_milp

TOL = 1e-6


@dataclass
class PassResult:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    # workload output compared across passes, e.g. a CSV body
    fingerprint: str = ""
    bytes_written: int = 0


def _run_cli(args: list[str]) -> str | None:
    """Run one ``printplan`` command in-process; None on success, else the error."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            cli_main.main(args=args, prog_name="printplan", standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (0, None):
            return f"exit {exc.code}: {sink.getvalue().strip()[-200:]}"
    except Exception as exc:  # any raise is a failed request, reported not hidden
        return f"{type(exc).__name__}: {exc}"
    return None


def _body(path: Path) -> str:
    """File text without its provenance comment lines."""
    return "".join(line for line in path.read_text().splitlines(True) if not line.startswith("#"))


def _bytes_under(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


class FrontNine:
    """``printplan pareto --instance nine_parts --machines 1 --epsilon-count 10``.

    The nine-part dataset's trade-off front, 14 MILPs per pass: 4 payoff
    solves, then 10 capped solves seeded with ``warm_values``.  The
    paper's two-machine front takes about 117 s a pass, too long for a
    run; one machine keeps all nine parts and the same code path at
    about 6 s.  Its front keeps two of the paper's four points.
    """

    name = "front_nine"
    args = ["pareto", "--instance", "nine_parts", "--machines", "1", "--epsilon-count", "10"]
    # kept (zz, z) points at the seed commit; the min-area end is
    # confirmed independently by single_batch_oracle in verify()
    expected = ((59987.46, 16.0), (122487.46, 6.0))
    # 4 payoff solves, 10 capped solves, 1 check of the kept points
    ops_per_pass = 15

    def __init__(self, base: int):
        self.instance = None

    def setup(self) -> None:
        self.instance = with_machine_count(load_builtin("nine_parts"), 1)

    def order(self, rng: random.Random) -> None:
        """The front's solves depend on each other, so the seed reorders nothing."""

    def run_pass(self, out: Path) -> PassResult:
        result = PassResult(attempted=self.ops_per_pass)
        error = _run_cli(self.args + ["--out", str(out)])
        if error is not None:
            result.failures.extend([f"pareto command failed: {error}"] * self.ops_per_pass)
            return result
        rows = [line.split(",") for line in _body(out / "front.csv").splitlines()[1:]]
        if len(rows) != 10:
            result.failures.append(f"front.csv has {len(rows)} caps, expected 10")
        for eps, z, zz, status, _ in rows:
            if status != SolveStatus.Optimal.value:
                result.failures.append(f"cap {eps} ended {status}")
        points = [tuple(map(float, line.split())) for line in _body(out / "front.dat").splitlines()]
        if len(points) != len(self.expected) or any(
            abs(zz - ezz) > TOL or abs(z - ez) > TOL
            for (zz, z), (ezz, ez) in zip(points, self.expected)
        ):
            result.failures.append(f"front points {points} differ from {self.expected}")
        result.fingerprint = _body(out / "front.csv")
        result.bytes_written = _bytes_under(out)
        return result

    def verify(self, passes: list[PassResult]) -> PassResult:
        result = PassResult(attempted=2)
        ev, _ = single_batch_oracle(self.instance, mode="min_zz")
        ezz, ez = self.expected[0]
        if abs(ev.zz - ezz) > TOL or abs(ev.z - ez) > TOL:
            result.failures.append(f"single_batch_oracle gives ({ev.zz}, {ev.z}), not ({ezz}, {ez})")
        if len({p.fingerprint for p in passes if p.fingerprint}) > 1:
            result.failures.append("front.csv body differs between passes")
        return result


class SweepLayerTime:
    """``printplan sweep`` of layer time on a four-part, one-machine study.

    Ten cold z-solves per pass (five layer times, free and fixed
    orientation), all with positive optima and no warm seeds, so each
    tree has to find its own incumbent.  Acceptance criterion 5 sweeps the
    five-part prefix, about 87 s a pass; the four-part prefix keeps every
    optimum positive at about 7 s.  The seed shuffles the order of the
    values, which are independent cells.
    """

    name = "sweep_layer_time"
    values = ("0.1", "0.01", "0.001", "1e-4", "1e-5")
    # (value, scenario) -> z_hours written at the seed commit
    expected = {
        ("0.1", "free_orientation"): 43.688,
        ("0.1", "fixed_orientation"): 47.8874,
        ("0.01", "free_orientation"): 0.53,
        ("0.01", "fixed_orientation"): 2.5997,
        ("0.001", "free_orientation"): 0.082,
        ("0.001", "fixed_orientation"): 0.242,
        ("0.0001", "free_orientation"): 0.055,
        ("0.0001", "fixed_orientation"): 0.071,
        ("1e-05", "free_orientation"): 0.0523,
        ("1e-05", "fixed_orientation"): 0.0539,
    }

    def __init__(self, base: int):
        self.order_values = list(self.values)
        self.instances = {}

    def setup(self) -> None:
        base = part_prefix(with_machine_count(load_builtin("fifteen_parts_time_study"), 1), 4)
        self.instances = {
            f"{float(v):g}": ProblemInstance(
                machines=tuple(replace(m, layer_time_h_per_mm=float(v)) for m in base.machines),
                parts=base.parts,
                penalties=base.penalties,
                jobs_per_machine=base.jobs_per_machine,
            )
            for v in self.values
        }

    def order(self, rng: random.Random) -> None:
        rng.shuffle(self.order_values)

    def run_pass(self, out: Path) -> PassResult:
        result = PassResult(attempted=len(self.expected))
        error = _run_cli([
            "sweep", "--instance", "fifteen_parts_time_study", "--machines", "1",
            "--parts-prefix", "4", "--parameter", "layer_time",
            "--values", ",".join(self.order_values), "--out", str(out),
        ])
        if error is not None:
            result.failures.extend([f"sweep command failed: {error}"] * result.attempted)
            return result
        body = _body(out / "sweep.csv")
        z = {}
        for line in body.splitlines()[1:]:
            _, value, scenario, z_hours, status = line.split(",")
            key = (value, scenario)
            if status != SolveStatus.Optimal.value:
                result.failures.append(f"{key} ended {status}")
            elif key not in self.expected or abs(float(z_hours) - self.expected[key]) > TOL:
                result.failures.append(f"{key} z={z_hours}, expected {self.expected.get(key)}")
            else:
                z[key] = float(z_hours)
        for value in {v for v, _ in z}:
            free, fixed = z.get((value, "free_orientation")), z.get((value, "fixed_orientation"))
            if free is not None and fixed is not None and free > fixed + TOL:
                result.failures.append(f"layer_time={value}: free {free} above fixed {fixed}")
        # cells are written in the order of --values; sort so passes compare
        result.fingerprint = "\n".join(sorted(body.splitlines()))
        result.bytes_written = _bytes_under(out)
        return result

    def verify(self, passes: list[PassResult]) -> PassResult:
        """The free-orientation cells against the brute-force oracle."""
        result = PassResult(attempted=len(self.instances) + 1)
        for value, inst in self.instances.items():
            oracle_z = brute_force(inst).min_z.z
            expected = self.expected[(value, "free_orientation")]
            if abs(oracle_z - expected) > TOL:
                result.failures.append(f"layer_time={value}: oracle z {oracle_z} vs {expected}")
        if len({p.fingerprint for p in passes if p.fingerprint}) > 1:
            result.failures.append("sweep.csv body differs between passes")
        return result


class OracleBatch:
    """Acceptance criterion 1 as a batch over seeds ``base .. base+7``.

    Per seed: ``random_instance``, ``brute_force``, then MILP z and zz and
    three capped z-solves, each held against the oracle, re-evaluated by
    ``evaluate`` and checked by ``check_feasible``.  Criterion 1 uses 25
    seeds, about 37 s a pass; eight keep a pass near 6 s and still hold
    seed 7, where the big-M leak of the evaluator check has shown before.
    The seed shuffles the order of the instances, which are independent.
    """

    name = "oracle_batch"
    seeds_per_pass = 8
    fractions = (0.25, 0.5, 0.75)

    def __init__(self, base: int):
        self.seeds = list(range(base, base + self.seeds_per_pass))
        self.instances = {}

    def setup(self) -> None:
        self.instances = {seed: random_instance(seed) for seed in self.seeds}

    def order(self, rng: random.Random) -> None:
        rng.shuffle(self.seeds)

    def run_pass(self, out: Path) -> PassResult:
        result = PassResult()
        for seed in self.seeds:
            self._check_seed(seed, self.instances[seed], result)
        return result

    @staticmethod
    def _solve_and_check(model, oracle_value, warm=None):
        """One MILP operation: (solution or None, list of gate misses)."""
        sol = solve_milp(model, warm_values=warm)
        if sol.status is not SolveStatus.Optimal:
            return None, [f"ended {sol.status.value}"]
        misses = []
        if abs(sol.objective - oracle_value) > TOL:
            misses.append(f"{sol.objective} vs oracle {oracle_value}")
        schedule = decode(sol, model.instance)
        ev = evaluate(schedule, model.instance)
        recomputed = ev.z if model.active_objective is Objective.Z else ev.zz
        if abs(recomputed - sol.objective) > TOL:
            misses.append(f"evaluate gives {recomputed}, solver {sol.objective}")
        violations = check_feasible(schedule, model.instance)
        if violations:
            misses.append("infeasible: " + ", ".join(v.family for v in violations))
        return sol, misses

    def _check_seed(self, seed: int, inst: ProblemInstance, result: PassResult) -> None:
        ops = 2 + len(self.fractions)
        result.attempted += ops
        done = 0

        def record(what, sol_misses):
            nonlocal done
            done += 1
            sol, misses = sol_misses
            if misses:
                result.failures.append(f"seed {seed} {what}: " + "; ".join(misses))
            return sol

        try:
            oracle = brute_force(inst)
            model_z = build_model(inst, Objective.Z)
            sol_z = record("z", self._solve_and_check(model_z, oracle.min_z.z))
            sol_zz = record("zz", self._solve_and_check(
                build_model(inst, Objective.ZZ), oracle.min_zz.zz))
            warm = [s.values for s in (sol_z, sol_zz) if s is not None]
            lo, hi = oracle.min_zz.zz, oracle.min_z.zz
            for frac in self.fractions:
                eps = lo + frac * (hi - lo)
                record(f"cap {frac}", self._solve_and_check(
                    inject_epsilon(model_z, eps), oracle.constrained(eps).z, warm))
        except Exception as exc:  # any raise fails the operations left, reported not hidden
            result.failures.extend(
                [f"seed {seed} raised {type(exc).__name__}: {exc}"] * (ops - done))

    def verify(self, passes: list[PassResult]) -> PassResult:
        return PassResult()


WORKLOADS = {cls.name: cls for cls in (FrontNine, SweepLayerTime, OracleBatch)}
