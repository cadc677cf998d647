"""MILP construction for the batch build-planning problem.

Decision variables, for part i, job slot j, machine m:

* ``x[i,j,m]``  binary: part i printed in job j on machine m;
* ``y[j,m]``    binary: job slot j on machine m is activated;
* ``b[i]``/``f[i]`` binaries picking the length-up / width-up orientation
  (both zero means flat; both one is excluded);
* ``ph[i]``     chosen build height of part i;
* ``pa[i]``     chosen footprint area of part i;
* ``jh[j,m]``   max build height over the job's parts (lower-bounded);
* ``jp[j,m]``   job processing hours (layer time on jh plus volumetric);
* ``jc[j,m]``   job completion hours;
* ``pc[i]``     completion hours of the part's job;
* ``e[i]``/``t[i]`` earliness/tardiness hours;
* ``la[i,j,m]`` linearization of the product pa[i]*x[i,j,m];
* ``lc[i,j,m]`` linearization of the product jc[j,m]*x[i,j,m].

Two objectives are carried on every model: ``z`` (weighted earliness plus
tardiness hours) and ``zz`` (activated plate area minus occupied area);
``active_objective`` selects which one a solve minimizes.

Model size is a closed-form function of n = |parts|, J = jobs per
machine, M = |machines|:

* columns:  3nJM + 4JM + 7n     (binaries: nJM + JM + 2n)
* rows:     7nJM + nM + 7n + 3JM + 2(J-1)M + M

plus at most one cap row per objective; see ``cap_objective``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import geometry
from .instance import ProblemInstance, scheduling_horizon, validate


class Objective(str, Enum):
    """Which cost vector a solve minimizes."""

    Z = "z"  # earliness + tardiness hours
    ZZ = "zz"  # unused activated plate area


# Column layout: (family, index shape over parts i, job slots j and
# machines m, binary), in column order; within a family the first index
# varies slowest.
_LAYOUT = (
    ("x", "ijm", True),
    ("y", "jm", True),
    ("b", "i", True),
    ("f", "i", True),
    ("ph", "i", False),
    ("pa", "i", False),
    ("jh", "jm", False),
    ("jp", "jm", False),
    ("jc", "jm", False),
    ("pc", "i", False),
    ("e", "i", False),
    ("t", "i", False),
    ("la", "ijm", False),
    ("lc", "ijm", False),
)

BINARY_FAMILIES = tuple(family for family, _, binary in _LAYOUT if binary)


@dataclass(frozen=True)
class BigMBundle:
    """Per-family big-M constants, each a valid bound for what it relaxes.

    count bounds how many parts a job can hold; height bounds any chosen
    part height; area[i] bounds part i's footprint; horizon bounds any
    job completion time an optimal schedule needs.
    """

    count: float
    height: float
    area: tuple[float, ...]
    horizon: float


def compute_big_m(instance: ProblemInstance) -> BigMBundle:
    parts = instance.parts
    count = float(len(parts))
    height = max(m.height_mm for m in instance.machines)
    area = tuple(geometry.max_base_area(p) for p in parts)
    return BigMBundle(count=count, height=height, area=area, horizon=scheduling_horizon(instance))


@dataclass(frozen=True)
class VarDef:
    column: int
    name: str
    family: str
    index: tuple[int, ...]
    binary: bool


class VariableRegistry:
    """Column layout: name/family/index maps for every column."""

    def __init__(self):
        self._defs: list[VarDef] = []
        self._by_name: dict[str, int] = {}
        self._by_key: dict[tuple, int] = {}

    def _add(self, family: str, shape: str, index: tuple[int, ...], binary: bool):
        name = family + "".join(f"_{t}{k + 1}" for t, k in zip(shape, index))
        col = len(self._defs)
        self._defs.append(VarDef(col, name, family, index, binary))
        self._by_name[name] = col
        self._by_key[(family, index)] = col

    def col(self, family: str, *index: int) -> int:
        return self._by_key[(family, tuple(index))]

    def by_name(self, name: str) -> int:
        if name not in self._by_name:
            raise KeyError(f"unknown variable {name!r}")
        return self._by_name[name]

    def name(self, column: int) -> str:
        return self._defs[column].name

    def defs(self) -> tuple[VarDef, ...]:
        return tuple(self._defs)

    @property
    def n_columns(self) -> int:
        return len(self._defs)

    def binary_columns(self) -> list[int]:
        return [d.column for d in self._defs if d.binary]


@dataclass(frozen=True)
class Row:
    name: str
    coeffs: dict[int, float]
    sense: str  # '<', '=', '>'
    rhs: float


@dataclass(frozen=True)
class MilpModel:
    instance: ProblemInstance
    registry: VariableRegistry
    rows: tuple[Row, ...]
    objective_z: np.ndarray
    objective_zz: np.ndarray
    active_objective: Objective
    upper: np.ndarray  # each column's upper bound; every lower bound is 0

    @property
    def objective(self) -> np.ndarray:
        return self.objective_z if self.active_objective is Objective.Z else self.objective_zz

    def dense_rows(self) -> tuple[np.ndarray, list[str], np.ndarray]:
        a = np.zeros((len(self.rows), self.registry.n_columns))
        senses = []
        rhs = np.zeros(len(self.rows))
        for r, row in enumerate(self.rows):
            for col, coef in row.coeffs.items():
                a[r, col] = coef
            senses.append(row.sense)
            rhs[r] = row.rhs
        return a, senses, rhs


def build_registry(instance: ProblemInstance) -> VariableRegistry:
    """Column layout for an instance, independent of the rows and bounds.

    The layout is a pure function of the part/job/machine counts, so a
    decoder can rebuild it to interpret a raw value vector without
    re-deriving the whole model.
    """
    sizes = {"i": len(instance.parts), "j": instance.jobs_per_machine, "m": len(instance.machines)}
    reg = VariableRegistry()
    for family, shape, binary in _LAYOUT:
        for index in np.ndindex(*(sizes[t] for t in shape)):
            reg._add(family, shape, index, binary)
    return reg


def _product_rows(p: int, c: int, x: int, bound: float):
    """McCormick's (1976) envelope making column ``p = c*x`` for binary x
    and ``0 <= c <= bound``: ``p <= bound*x``, ``p <= c`` and
    ``p >= c - bound*(1 - x)``, each as (coefficients, rhs) of a ``<`` row.
    The last row alone makes p cover c wherever x is set."""
    return (
        ({p: 1.0, x: -bound}, 0.0),
        ({p: 1.0, c: -1.0}, 0.0),
        ({c: 1.0, p: -1.0, x: bound}, bound),
    )


def build_model(
    instance: ProblemInstance,
    objective: Objective = Objective.Z,
    *,
    fixed_orientation: bool = False,
) -> MilpModel:
    """Assemble the full linearized model for an instance.

    Raises if validation reports errors.  ``fixed_orientation`` pins every
    part flat (as delivered) by bounding ``b`` and ``f`` at 0.  Otherwise
    binaries are bounded by 1, ``jc`` by the horizon, the rest by rows only.
    """
    report = validate(instance)
    if not report.ok:
        details = "; ".join(issue.message for issue in report.errors)
        raise ValueError(f"instance failed validation: {details}")

    n = len(instance.parts)
    jobs = instance.jobs_per_machine
    n_m = len(instance.machines)
    bundle = compute_big_m(instance)
    reg = build_registry(instance)
    orient_up = 0.0 if fixed_orientation else 1.0
    family_upper = {"x": 1.0, "y": 1.0, "b": orient_up, "f": orient_up, "jc": bundle.horizon}
    upper = np.array([family_upper.get(d.family, math.inf) for d in reg.defs()])

    rows: list[Row] = []

    def add(name, coeffs, sense, rhs):
        rows.append(Row(name, coeffs, sense, rhs))

    def add_product(tags, sfx, p, c, x, bound):
        for tag, (coeffs, rhs) in zip(tags, _product_rows(p, c, x, bound)):
            add(tag + sfx, coeffs, "<", rhs)

    parts = instance.parts
    machines = instance.machines

    # each part printed exactly once
    for i in range(n):
        add(
            f"asg_i{i + 1}",
            {reg.col("x", i, j, m): 1.0 for j in range(jobs) for m in range(n_m)},
            "=",
            1.0,
        )

    # parts only in activated jobs
    for j in range(jobs):
        for m in range(n_m):
            coeffs = {reg.col("x", i, j, m): 1.0 for i in range(n)}
            coeffs[reg.col("y", j, m)] = -bundle.count
            add(f"lnk_j{j + 1}_m{m + 1}", coeffs, "<", 0.0)

    # at most one tipped orientation
    for i in range(n):
        add(f"ori_i{i + 1}", {reg.col("b", i): 1.0, reg.col("f", i): 1.0}, "<", 1.0)

    # chosen height: h flat, l length-up, w width-up
    for i in range(n):
        p = parts[i]
        add(
            f"hdef_i{i + 1}",
            {
                reg.col("ph", i): 1.0,
                reg.col("b", i): p.height_mm - p.length_mm,
                reg.col("f", i): p.height_mm - p.width_mm,
            },
            "=",
            p.height_mm,
        )

    # chosen footprint: l*w flat, w*h length-up, h*l width-up
    for i in range(n):
        p = parts[i]
        lw = p.length_mm * p.width_mm
        add(
            f"adef_i{i + 1}",
            {
                reg.col("pa", i): 1.0,
                reg.col("b", i): lw - p.width_mm * p.height_mm,
                reg.col("f", i): lw - p.height_mm * p.length_mm,
            },
            "=",
            lw,
        )

    # chosen height fits the assigned machine's build height; parts on
    # other machines get slack up to their own tallest dimension
    for i in range(n):
        p = parts[i]
        tallest = max(p.width_mm, p.length_mm, p.height_mm)
        for m in range(n_m):
            slack = max(0.0, tallest - machines[m].height_mm)
            coeffs = {reg.col("ph", i): 1.0}
            if slack > 0:
                for j in range(jobs):
                    coeffs[reg.col("x", i, j, m)] = slack
            add(f"hcap_i{i + 1}_m{m + 1}", coeffs, "<", machines[m].height_mm + slack)

    # plate capacity per job, via the linearized occupied-area terms
    for j in range(jobs):
        for m in range(n_m):
            add(
                f"acap_j{j + 1}_m{m + 1}",
                {reg.col("la", i, j, m): 1.0 for i in range(n)},
                "<",
                machines[m].base_area_mm2,
            )

    # la = pa * x
    for i, j, m in np.ndindex(n, jobs, n_m):
        add_product(("lau", "lap", "lal"), f"_i{i + 1}_j{j + 1}_m{m + 1}",
                    reg.col("la", i, j, m), reg.col("pa", i), reg.col("x", i, j, m), bundle.area[i])

    # job height covers each member part's height
    for i, j, m in np.ndindex(n, jobs, n_m):
        coeffs, rhs = _product_rows(reg.col("jh", j, m), reg.col("ph", i), reg.col("x", i, j, m),
                                    bundle.height)[2]
        add(f"jmax_i{i + 1}_j{j + 1}_m{m + 1}", coeffs, "<", rhs)

    # processing hours: layer time on the job height plus volumetric time
    for j in range(jobs):
        for m in range(n_m):
            mach = machines[m]
            coeffs = {
                reg.col("jp", j, m): 1.0,
                reg.col("jh", j, m): -mach.layer_time_h_per_mm,
            }
            for i in range(n):
                coeffs[reg.col("x", i, j, m)] = -mach.volumetric_time_h_per_mm3 * geometry.volume_mm3(
                    parts[i]
                )
            add(f"ptime_j{j + 1}_m{m + 1}", coeffs, "=", 0.0)

    # completions run in job order, idle time allowed
    for m in range(n_m):
        for j in range(jobs - 1):
            add(
                f"seq_j{j + 1}_m{m + 1}",
                {
                    reg.col("jc", j, m): 1.0,
                    reg.col("jp", j + 1, m): 1.0,
                    reg.col("jc", j + 1, m): -1.0,
                },
                "<",
                0.0,
            )
        add(
            f"first_m{m + 1}",
            {reg.col("jp", 0, m): 1.0, reg.col("jc", 0, m): -1.0},
            "<",
            0.0,
        )

    # part completion equals its job's completion, via lc = jc * x
    for i in range(n):
        coeffs = {reg.col("pc", i): 1.0}
        for j in range(jobs):
            for m in range(n_m):
                coeffs[reg.col("lc", i, j, m)] = -1.0
        add(f"cdef_i{i + 1}", coeffs, "=", 0.0)
    for i, j, m in np.ndindex(n, jobs, n_m):
        add_product(("lcu", "lcc", "lcl"), f"_i{i + 1}_j{j + 1}_m{m + 1}",
                    reg.col("lc", i, j, m), reg.col("jc", j, m), reg.col("x", i, j, m), bundle.horizon)

    # tardiness and earliness, one-sided
    for i in range(n):
        add(
            f"tar_i{i + 1}",
            {reg.col("pc", i): 1.0, reg.col("t", i): -1.0},
            "<",
            parts[i].due_h,
        )
        add(
            f"ear_i{i + 1}",
            {reg.col("pc", i): -1.0, reg.col("e", i): -1.0},
            "<",
            -parts[i].due_h,
        )

    # a job slot can hold parts only if the previous slot does
    for m in range(n_m):
        for j in range(jobs - 1):
            coeffs = {reg.col("x", i, j + 1, m): 1.0 for i in range(n)}
            for i in range(n):
                coeffs[reg.col("x", i, j, m)] = coeffs.get(reg.col("x", i, j, m), 0.0) - bundle.count
            add(f"ord_j{j + 1}_m{m + 1}", coeffs, "<", 0.0)

    obj_z = np.zeros(reg.n_columns)
    ce = instance.penalties.earliness
    ct = instance.penalties.tardiness
    for i in range(n):
        obj_z[reg.col("e", i)] = ce
        obj_z[reg.col("t", i)] = ct

    obj_zz = np.zeros(reg.n_columns)
    for j in range(jobs):
        for m in range(n_m):
            obj_zz[reg.col("y", j, m)] = machines[m].base_area_mm2
    for i, j, m in np.ndindex(n, jobs, n_m):
        obj_zz[reg.col("la", i, j, m)] = -1.0

    return MilpModel(
        instance=instance,
        registry=reg,
        rows=tuple(rows),
        objective_z=obj_z,
        objective_zz=obj_zz,
        active_objective=objective,
        upper=upper,
    )


def inject_epsilon(model: MilpModel, epsilon: float) -> MilpModel:
    """The epsilon-constraint cap: unused area at most ``epsilon``.

    Only a model solving the time objective takes it; the cap itself is
    ``cap_objective``'s ``cap_zz`` row.
    """
    if model.active_objective is not Objective.Z:
        raise ValueError("epsilon cap applies to models solving the time objective")
    return cap_objective(model, Objective.ZZ, epsilon)


def cap_objective(model: MilpModel, objective: Objective, bound: float) -> MilpModel:
    """Keep the named objective expression at or below ``bound``.

    The row is named ``cap_<objective>`` and replaces any earlier cap on
    that objective.  A bound of ``+inf`` removes the cap: the row would be
    vacuous, and infinite right-hand sides have no place in the solver
    arithmetic.  A bound of ``-inf`` or NaN raises ``ValueError``.
    """
    if not (math.isfinite(bound) or bound == math.inf):
        raise ValueError(f"cap on {objective.value} must be finite or +inf, got {bound!r}")
    vec = model.objective_z if objective is Objective.Z else model.objective_zz
    name = f"cap_{objective.value}"
    rows = tuple(r for r in model.rows if r.name != name)
    if math.isfinite(bound):
        coeffs = {c: float(v) for c, v in enumerate(vec) if v != 0.0}
        rows = rows + (Row(name, coeffs, "<", float(bound)),)
    return replace(model, rows=rows)


def _format_coef(value: float) -> str:
    return f"{value:.12g}"


def write_lp(model: MilpModel) -> str:
    """Render the model in LP file format.

    Sections: Minimize (the active objective), Subject To, Bounds,
    Binaries.  Variable names are stable across writes, so external
    solutions can be mapped back through the registry.
    """
    reg = model.registry
    lines = ["Minimize"]
    obj = model.objective
    terms = _linear_terms(((c, obj[c]) for c in obj.nonzero()[0]), reg)
    lines.append(" obj: " + (terms if terms else "0 " + reg.name(0)))
    lines.append("Subject To")
    for row in model.rows:
        body = _linear_terms(sorted(row.coeffs.items()), reg)
        op = {"<": "<=", "=": "=", ">": ">="}[row.sense]
        lines.append(f" {row.name}: {body} {op} {_format_coef(row.rhs)}")
    lines.append("Bounds")
    for d, up in zip(reg.defs(), model.upper):
        if d.binary:
            if up == 0.0:
                lines.append(f" {d.name} = 0")
            continue
        if math.isinf(up):
            lines.append(f" 0 <= {d.name}")
        else:
            lines.append(f" 0 <= {d.name} <= {_format_coef(up)}")
    lines.append("Binaries")
    binary_names = [d.name for d in reg.defs() if d.binary]
    for start in range(0, len(binary_names), 8):
        lines.append(" " + " ".join(binary_names[start : start + 8]))
    lines.append("End")
    return "\n".join(lines) + "\n"


def _linear_terms(terms, reg) -> str:
    """``(column, coefficient)`` pairs as LP text, zero coefficients left out."""
    pieces = []
    for c, v in terms:
        if v == 0.0:
            continue
        if not pieces:
            pieces.append(f"{_format_coef(v)} {reg.name(c)}")
        elif v >= 0:
            pieces.append(f"+ {_format_coef(v)} {reg.name(c)}")
        else:
            pieces.append(f"- {_format_coef(-v)} {reg.name(c)}")
    return " ".join(pieces)
