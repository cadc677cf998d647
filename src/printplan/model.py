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

The rows are held in one form: a name, a sense and a right-hand side
per row, and one coordinate matrix of the nonzero coefficients (see
``MilpModel``).  Each row family is built as one block of column numbers
and coefficients cut from the column blocks.

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
import itertools
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


def _labels(family: str, shape: str, dims: tuple[int, ...]) -> list[str]:
    """``family_i1_j1_m1``-style names over an index block, first index slowest."""
    axes = ([f"_{t}{k + 1}" for k in range(d)] for t, d in zip(shape, dims))
    return [family + "".join(index) for index in itertools.product(*axes)]


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
            name
            for family, shape, _ in _LAYOUT
            for name in _labels(family, shape, self._blocks[family].shape)
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
class MilpModel:
    """The rows are ``A x {sense} rhs``, one name, sense and rhs per row.

    ``coords`` holds the nonzeros of A as ``(row, col, val)`` arrays,
    sorted by row and then by column, with no zero value and no repeated
    ``(row, col)``; a row without nonzeros is still a row.
    """

    instance: ProblemInstance
    registry: VariableRegistry
    row_names: tuple[str, ...]
    senses: np.ndarray  # '<', '=' or '>' per row
    rhs: np.ndarray
    coords: tuple[np.ndarray, np.ndarray, np.ndarray]
    objective_z: np.ndarray
    objective_zz: np.ndarray
    active_objective: Objective
    upper: np.ndarray  # each column's upper bound; every lower bound is 0

    @property
    def objective(self) -> np.ndarray:
        return self.objective_z if self.active_objective is Objective.Z else self.objective_zz

    def dense_rows(self) -> np.ndarray:
        """A as a dense (rows, columns) array."""
        row, col, val = self.coords
        a = np.zeros((len(self.row_names), self.registry.n_columns))
        a[row, col] = val
        return a


def build_registry(instance: ProblemInstance) -> VariableRegistry:
    """Column layout for an instance, independent of the rows and bounds.

    The layout is a pure function of the part/job/machine counts, so a
    decoder can rebuild it to interpret a raw value vector without
    re-deriving the whole model.
    """
    return VariableRegistry(
        {"i": len(instance.parts), "j": instance.jobs_per_machine, "m": len(instance.machines)}
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

    names: list[str] = []
    senses: list[str] = []
    rhs_blocks, row_blocks, col_blocks, val_blocks = [], [], [], []

    def add(labels, sense, rhs, *terms):
        """One row family, ``labels`` in row order.  A term pairs a block
        of columns, each row's on the last axis, with coefficients that
        broadcast against it; the other axes of every block and ``rhs``
        broadcast to the family's rows."""
        rows = np.broadcast_shapes(*(np.shape(a)[:-1] for term in terms for a in term))
        ends = list(itertools.accumulate((c.shape[-1] for c, _ in terms), initial=0))
        cols, coefs = np.empty(rows + (ends[-1],), dtype=int), np.empty(rows + (ends[-1],))
        for (c, v), start, stop in zip(terms, ends, ends[1:]):
            cols[..., start:stop], coefs[..., start:stop] = c, v
        row_blocks.append(np.repeat(np.arange(len(names), len(names) + len(labels)), ends[-1]))
        col_blocks.append(cols.ravel())
        val_blocks.append(coefs.ravel())
        rhs_blocks.append(np.full(rows, rhs).ravel())
        names.extend(labels)
        senses.extend(sense * len(labels))

    def products(tags, p, c, bound):
        """McCormick's (1976) envelope making column ``p = c*x`` for binary
        x and ``0 <= c <= bound``: ``p <= bound*x``, ``p <= c`` and
        ``p >= c - bound*(1 - x)``, three rows per product in that order.
        The last row alone makes p cover c wherever x is set."""
        bound = np.expand_dims(bound, (-2, -1))
        add([tag + sfx for sfx in _labels("", "ijm", x.shape) for tag in tags], "<",
            bound[..., 0] * [0.0, 0.0, 1.0],
            (p[..., None, None], [[1.0], [1.0], [-1.0]]),
            (c[..., None, None], [[0.0], [-1.0], [1.0]]),
            (x[..., None, None], bound * [[-1.0], [0.0], [1.0]]))

    machines = instance.machines
    plate = np.array([mach.base_area_mm2 for mach in machines])
    x_jm = x.transpose(1, 2, 0)  # parts on the last axis

    # each part printed exactly once
    add(_labels("asg", "i", (n,)), "=", 1.0, (x.reshape(n, jobs * n_m), 1.0))

    # parts only in activated jobs
    add(_labels("lnk", "jm", (jobs, n_m)), "<", 0.0, (x_jm, 1.0), (y[..., None], -bundle.count))

    # at most one tipped orientation
    add(_labels("ori", "i", (n,)), "<", 1.0, (np.stack((b, f), -1), 1.0))

    # chosen height (h flat, l length-up by b, w width-up by f) and
    # chosen footprint (l*w flat, w*h length-up, h*l width-up)
    poses = [geometry.orientations(p) for p in instance.parts]
    height = np.array([[o.height_mm for o in pose] for pose in poses]).reshape(n, 3)
    area = np.array([[o.base_area_mm2 for o in pose] for pose in poses]).reshape(n, 3)
    for tag, col, pose in (("hdef", ph, height), ("adef", pa, area)):
        add(_labels(tag, "i", (n,)), "=", pose[:, 0],
            (col[:, None], 1.0), (np.stack((b, f), -1), pose[:, :1] - pose[:, 1:]))

    # chosen height fits the assigned machine's build height; parts on
    # other machines get slack up to their own tallest pose
    build_height = np.array([mach.height_mm for mach in machines])
    slack = np.maximum(0.0, height.max(axis=1)[:, None] - build_height)
    add(_labels("hcap", "im", (n, n_m)), "<", build_height + slack,
        (ph[:, None, None], 1.0), (x.transpose(0, 2, 1), slack[..., None]))

    # plate capacity per job, via the linearized occupied-area terms
    add(_labels("acap", "jm", (jobs, n_m)), "<", plate, (la.transpose(1, 2, 0), 1.0))

    # la = pa * x
    products(("lau", "lap", "lal"), la, pa[:, None, None], np.array(bundle.area)[:, None, None])

    # job height covers each member part's height: jh >= ph - height * (1 - x)
    add(_labels("jmax", "ijm", x.shape), "<", bundle.height,
        (ph[:, None, None, None], 1.0), (jh[..., None], -1.0), (x[..., None], bundle.height))

    # processing hours: layer time on the job height plus volumetric time
    layer = np.array([mach.layer_time_h_per_mm for mach in machines])
    per_mm3 = np.array([mach.volumetric_time_h_per_mm3 for mach in machines])
    volume = np.array([geometry.volume_mm3(p) for p in instance.parts])
    add(_labels("ptime", "jm", (jobs, n_m)), "=", 0.0,
        (jp[..., None], 1.0), (jh[..., None], -layer[:, None]), (x_jm, -np.outer(per_mm3, volume)))

    # completions run in job order, idle time allowed: seq_jk ties slot
    # k+1 to slot k, and first_m is slot 1's row, which has no predecessor
    k = np.r_[1:jobs, 0]
    add([f"seq_j{j}_m{m + 1}" if j else f"first_m{m + 1}" for m in range(n_m) for j in k], "<", 0.0,
        (jc.T[:, k - 1, None], np.where(k > 0, 1.0, 0.0)[:, None]),
        (jp.T[:, k, None], 1.0), (jc.T[:, k, None], -1.0))

    # part completion equals its job's completion, via lc = jc * x
    add(_labels("cdef", "i", (n,)), "=", 0.0, (pc[:, None], 1.0), (lc.reshape(n, jobs * n_m), -1.0))
    products(("lcu", "lcc", "lcl"), lc, jc, bundle.horizon)

    # tardiness and earliness, one-sided
    due = np.array([p.due_h for p in instance.parts])
    add([f"{tag}_i{i + 1}" for i in range(n) for tag in ("tar", "ear")], "<", np.stack((due, -due), -1),
        (pc[:, None, None], [[1.0], [-1.0]]), (np.stack((t, e), -1)[..., None], -1.0))

    # a job slot can hold parts only if the previous slot does
    x_mj = x.transpose(2, 1, 0)
    add([f"ord_j{j + 1}_m{m + 1}" for m in range(n_m) for j in range(jobs - 1)], "<", 0.0,
        (x_mj[:, 1:], 1.0), (x_mj[:, :-1], -bundle.count))

    row, col, val = (np.concatenate(blocks) for blocks in (row_blocks, col_blocks, val_blocks))
    nonzero = val != 0.0
    order = np.lexsort((col[nonzero], row[nonzero]))

    obj_z = np.zeros(reg.n_columns)
    obj_z[e] = instance.penalties.earliness
    obj_z[t] = instance.penalties.tardiness

    obj_zz = np.zeros(reg.n_columns)
    obj_zz[y] = plate
    obj_zz[la] = -1.0

    return MilpModel(
        instance=instance,
        registry=reg,
        row_names=tuple(names),
        senses=np.array(senses),
        rhs=np.concatenate(rhs_blocks),
        coords=tuple(a[nonzero][order] for a in (row, col, val)),
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
    names = tuple(n for n in model.row_names if n != name)
    keep = np.array([n != name for n in model.row_names], dtype=bool)
    row, col, val = model.coords
    kept = keep[row]
    # the kept rows are renumbered in order, so the entries stay sorted
    row, col, val = np.cumsum(keep)[row[kept]] - 1, col[kept], val[kept]
    senses, rhs = model.senses[keep], model.rhs[keep]
    if math.isfinite(bound):
        terms = np.flatnonzero(vec)
        row = np.concatenate((row, np.full(terms.size, len(names))))
        col, val = np.concatenate((col, terms)), np.concatenate((val, vec[terms]))
        names, senses, rhs = names + (name,), np.append(senses, "<"), np.append(rhs, float(bound))
    return replace(model, row_names=names, senses=senses, rhs=rhs, coords=(row, col, val))


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
    row, col, val = model.coords
    ends = np.searchsorted(row, np.arange(len(model.row_names) + 1)).tolist()
    col, val = col.tolist(), val.tolist()
    for r, (name, sense, rhs) in enumerate(zip(model.row_names, model.senses.tolist(), model.rhs.tolist())):
        body = _linear_terms(zip(col[ends[r]:ends[r + 1]], val[ends[r]:ends[r + 1]]), reg)
        op = {"<": "<=", "=": "=", ">": ">="}[sense]
        lines.append(f" {name}: {body} {op} {_format_coef(rhs)}")
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
    """``(column, nonzero coefficient)`` pairs as LP text.

    With no term it writes ``0`` times the first column, since an LP
    line needs at least one term.
    """
    pieces = []
    for c, v in terms:
        if not pieces:
            pieces.append(f"{_format_coef(v)} {reg.name(c)}")
        elif v >= 0:
            pieces.append(f"+ {_format_coef(v)} {reg.name(c)}")
        else:
            pieces.append(f"- {_format_coef(-v)} {reg.name(c)}")
    return " ".join(pieces) if pieces else "0 " + reg.name(0)
