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

Each family is one block of consecutive columns, in the order listed,
with the first index varying slowest; ``VariableRegistry.block`` gives a
family's column numbers in its index shape.  The binary families come
first, so the binaries are the column prefix ``range(n_binaries)``.

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

import functools
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
# machines m, binary), in column order, one block per family (see the
# module docstring).  x leads the binaries, and branching breaks ties
# toward the lowest column.
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

_BINARY_FLAGS = [binary for _, _, binary in _LAYOUT]
if _BINARY_FLAGS != sorted(_BINARY_FLAGS, reverse=True):
    raise ImportError("the binary families must lead the column layout")


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


class VariableRegistry:
    """Column layout: one block of column numbers per ``_LAYOUT`` family.

    ``block(family)`` is an integer array in the family's index shape.
    Blocks are contiguous and in ``_LAYOUT`` order, first index slowest,
    so the binaries are the columns below ``n_binaries``.  Column names
    are built on the first ``name`` or ``by_name`` call; a decoder reads
    only blocks.
    """

    def __init__(self, sizes: dict[str, int]):
        self._blocks: dict[str, np.ndarray] = {}
        start = 0
        for family, shape, _ in _LAYOUT:
            dims = tuple(sizes[t] for t in shape)
            self._blocks[family] = np.arange(start, start + math.prod(dims)).reshape(dims)
            start += math.prod(dims)
        self.n_columns = start
        self.n_binaries = sum(self._blocks[family].size for family, _, binary in _LAYOUT if binary)

    @functools.cached_property
    def _names(self) -> list[str]:
        return [
            family + "".join(f"_{t}{k + 1}" for t, k in zip(shape, index))
            for family, shape, _ in _LAYOUT
            for index in np.ndindex(*self._blocks[family].shape)
        ]

    @functools.cached_property
    def _by_name(self) -> dict[str, int]:
        return {name: c for c, name in enumerate(self._names)}

    def block(self, family: str) -> np.ndarray:
        return self._blocks[family]

    def col(self, family: str, *index: int) -> int:
        return int(self._blocks[family][index])

    def by_name(self, name: str) -> int:
        if name not in self._by_name:
            raise KeyError(f"unknown variable {name!r}")
        return self._by_name[name]

    def name(self, column: int) -> str:
        return self._names[column]


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
    return VariableRegistry(
        {"i": len(instance.parts), "j": instance.jobs_per_machine, "m": len(instance.machines)}
    )


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

    bundle = compute_big_m(instance)
    reg = build_registry(instance)
    x, y, b, f, ph, pa, jh, jp, jc, pc, e, t, la, lc = (
        reg.block(fam) for fam in "x y b f ph pa jh jp jc pc e t la lc".split()
    )
    n, jobs, n_m = x.shape
    upper = np.full(reg.n_columns, math.inf)
    upper[: reg.n_binaries] = 1.0
    upper[b] = upper[f] = 0.0 if fixed_orientation else 1.0
    upper[jc] = bundle.horizon

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
        add(f"asg_i{i + 1}", dict.fromkeys(x[i].ravel().tolist(), 1.0), "=", 1.0)

    # parts only in activated jobs
    for j in range(jobs):
        for m in range(n_m):
            coeffs = dict.fromkeys(x[:, j, m].tolist(), 1.0)
            coeffs[y[j, m]] = -bundle.count
            add(f"lnk_j{j + 1}_m{m + 1}", coeffs, "<", 0.0)

    # at most one tipped orientation
    for i in range(n):
        add(f"ori_i{i + 1}", {b[i]: 1.0, f[i]: 1.0}, "<", 1.0)

    # chosen height: h flat, l length-up (b), w width-up (f)
    poses = [geometry.orientations(p) for p in parts]  # (flat, length-up, width-up)
    for i, (flat, lup, wup) in enumerate(poses):
        add(
            f"hdef_i{i + 1}",
            {ph[i]: 1.0, b[i]: flat.height_mm - lup.height_mm, f[i]: flat.height_mm - wup.height_mm},
            "=",
            flat.height_mm,
        )

    # chosen footprint: l*w flat, w*h length-up, h*l width-up
    for i, (flat, lup, wup) in enumerate(poses):
        add(
            f"adef_i{i + 1}",
            {
                pa[i]: 1.0,
                b[i]: flat.base_area_mm2 - lup.base_area_mm2,
                f[i]: flat.base_area_mm2 - wup.base_area_mm2,
            },
            "=",
            flat.base_area_mm2,
        )

    # chosen height fits the assigned machine's build height; parts on
    # other machines get slack up to their own tallest pose
    for i, pose in enumerate(poses):
        tallest = max(o.height_mm for o in pose)
        for m in range(n_m):
            slack = max(0.0, tallest - machines[m].height_mm)
            coeffs = {ph[i]: 1.0}
            if slack > 0:
                coeffs.update(dict.fromkeys(x[i, :, m].tolist(), slack))
            add(f"hcap_i{i + 1}_m{m + 1}", coeffs, "<", machines[m].height_mm + slack)

    # plate capacity per job, via the linearized occupied-area terms
    for j in range(jobs):
        for m in range(n_m):
            add(
                f"acap_j{j + 1}_m{m + 1}",
                dict.fromkeys(la[:, j, m].tolist(), 1.0),
                "<",
                machines[m].base_area_mm2,
            )

    # la = pa * x
    for i, j, m in np.ndindex(n, jobs, n_m):
        add_product(("lau", "lap", "lal"), f"_i{i + 1}_j{j + 1}_m{m + 1}",
                    la[i, j, m], pa[i], x[i, j, m], bundle.area[i])

    # job height covers each member part's height
    for i, j, m in np.ndindex(n, jobs, n_m):
        coeffs, rhs = _product_rows(jh[j, m], ph[i], x[i, j, m], bundle.height)[2]
        add(f"jmax_i{i + 1}_j{j + 1}_m{m + 1}", coeffs, "<", rhs)

    # processing hours: layer time on the job height plus volumetric time
    for j in range(jobs):
        for m in range(n_m):
            mach = machines[m]
            coeffs = {jp[j, m]: 1.0, jh[j, m]: -mach.layer_time_h_per_mm}
            for i in range(n):
                coeffs[x[i, j, m]] = -mach.volumetric_time_h_per_mm3 * geometry.volume_mm3(parts[i])
            add(f"ptime_j{j + 1}_m{m + 1}", coeffs, "=", 0.0)

    # completions run in job order, idle time allowed
    for m in range(n_m):
        for j in range(jobs - 1):
            add(
                f"seq_j{j + 1}_m{m + 1}",
                {jc[j, m]: 1.0, jp[j + 1, m]: 1.0, jc[j + 1, m]: -1.0},
                "<",
                0.0,
            )
        add(f"first_m{m + 1}", {jp[0, m]: 1.0, jc[0, m]: -1.0}, "<", 0.0)

    # part completion equals its job's completion, via lc = jc * x
    for i in range(n):
        coeffs = {pc[i]: 1.0}
        coeffs.update(dict.fromkeys(lc[i].ravel().tolist(), -1.0))
        add(f"cdef_i{i + 1}", coeffs, "=", 0.0)
    for i, j, m in np.ndindex(n, jobs, n_m):
        add_product(("lcu", "lcc", "lcl"), f"_i{i + 1}_j{j + 1}_m{m + 1}",
                    lc[i, j, m], jc[j, m], x[i, j, m], bundle.horizon)

    # tardiness and earliness, one-sided
    for i in range(n):
        add(f"tar_i{i + 1}", {pc[i]: 1.0, t[i]: -1.0}, "<", parts[i].due_h)
        add(f"ear_i{i + 1}", {pc[i]: -1.0, e[i]: -1.0}, "<", -parts[i].due_h)

    # a job slot can hold parts only if the previous slot does
    for m in range(n_m):
        for j in range(jobs - 1):
            coeffs = dict.fromkeys(x[:, j + 1, m].tolist(), 1.0)
            coeffs.update(dict.fromkeys(x[:, j, m].tolist(), -bundle.count))
            add(f"ord_j{j + 1}_m{m + 1}", coeffs, "<", 0.0)

    obj_z = np.zeros(reg.n_columns)
    obj_z[e] = instance.penalties.earliness
    obj_z[t] = instance.penalties.tardiness

    obj_zz = np.zeros(reg.n_columns)
    obj_zz[y] = [mach.base_area_mm2 for mach in machines]
    obj_zz[la] = -1.0

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
    lines.append(" obj: " + _linear_terms(((c, obj[c]) for c in obj.nonzero()[0]), reg))
    lines.append("Subject To")
    for row in model.rows:
        body = _linear_terms(sorted(row.coeffs.items()), reg)
        op = {"<": "<=", "=": "=", ">": ">="}[row.sense]
        lines.append(f" {row.name}: {body} {op} {_format_coef(row.rhs)}")
    lines.append("Bounds")
    n_bin = reg.n_binaries
    for c, up in enumerate(model.upper):
        name = reg.name(c)
        if c < n_bin:
            if up == 0.0:
                lines.append(f" {name} = 0")
        elif math.isinf(up):
            lines.append(f" 0 <= {name}")
        else:
            lines.append(f" 0 <= {name} <= {_format_coef(up)}")
    lines.append("Binaries")
    for start in range(0, n_bin, 8):
        lines.append(" " + " ".join(reg.name(c) for c in range(start, min(start + 8, n_bin))))
    lines.append("End")
    return "\n".join(lines) + "\n"


def _linear_terms(terms, reg) -> str:
    """``(column, coefficient)`` pairs as LP text, zero coefficients left out.

    With no term left it writes ``0`` times the first column, since an LP
    line needs at least one term.
    """
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
    return " ".join(pieces) if pieces else "0 " + reg.name(0)
