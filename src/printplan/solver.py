"""Branch and bound over the LP relaxation.

Search order is best-first on the parent relaxation bound, with a
depth-first plunge until the first incumbent so a feasible point shows
up early.  Child nodes warm-start the simplex from the parent's final
basis.  Branching fixes one fractional binary per node, preferring the
part-to-job assignment variables, then job activations, then the
orientation picks; within a family the most fractional value wins.

Every new incumbent, a tree leaf or a ``warm_values`` seed, is polished
first: its binaries are rounded, the LP is re-solved with them fixed, and
the result counts only if it is feasible as it stands.  A point whose
binaries are merely within tolerance of integral can otherwise sit below
any objective its decisions attain, by up to big-M times the tolerance.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .model import BINARY_FAMILIES, MilpModel
from .simplex import LpResult, LpStatus, solve_lp


class SolveStatus(str, Enum):
    Optimal = "optimal"
    Feasible = "feasible"
    Infeasible = "infeasible"
    TimeLimit = "time_limit"


@dataclass(frozen=True)
class SolveParams:
    time_limit_s: float | None = None
    gap_tolerance: float = 1e-6
    integrality_tolerance: float = 1e-6


@dataclass
class MilpSolution:
    status: SolveStatus
    objective: float | None
    values: np.ndarray | None
    bound: float
    gap: float
    node_count: int
    runtime_s: float

    @property
    def ok(self) -> bool:
        return self.values is not None


def solve_lp_relaxation(
    model: MilpModel,
    extra_bounds: dict[int, tuple[float, float]] | None = None,
    *,
    start=None,
) -> LpResult:
    """Solve the model with integrality dropped.

    ``extra_bounds`` tightens individual columns, which is how branching
    decisions and warm-started re-solves are expressed.
    """
    a, senses, rhs = model.dense_rows()
    lo, up = model.registry.bounds()
    if extra_bounds:
        for col, (clo, cup) in extra_bounds.items():
            lo[col] = max(lo[col], clo)
            up[col] = min(up[col], cup)
    return solve_lp(model.objective, a, senses, rhs, lo, up, start=start)


@dataclass(order=True)
class _Node:
    est: float
    neg_seq: int  # newer nodes first on bound ties, so plunges stay deep
    fixings: dict[int, float] = field(compare=False)
    start: tuple | None = field(compare=False, default=None)


class _Propagator:
    """Bound tightening over the model rows before each node LP.

    Classic interval propagation, vectorized over all rows at once: per
    row, the residual left after the other variables sit at their most
    helpful bound caps each variable; binary bounds then round to
    {0, 1}.  Detects many infeasible nodes outright and fixes implied
    binaries, which keeps the tree small when a cap row (an epsilon cap,
    say) is nearly tight.
    """

    def __init__(self, a: np.ndarray, senses, rhs: np.ndarray, binary_cols):
        blocks = []
        rhs_blocks = []
        for sign, keep in ((1.0, ("<", "=")), (-1.0, (">", "="))):
            mask = np.array([s in keep for s in senses], dtype=bool)
            if mask.any():
                blocks.append(sign * a[mask])
                rhs_blocks.append(sign * rhs[mask])
        self.a = np.vstack(blocks) if blocks else np.zeros((0, a.shape[1]))
        self.rhs = np.concatenate(rhs_blocks) if rhs_blocks else np.zeros(0)
        self.pos = self.a > 0
        self.neg = self.a < 0
        self.rhs_scale = np.maximum(1.0, np.abs(self.rhs))
        self.binary_mask = np.zeros(a.shape[1], dtype=bool)
        self.binary_mask[list(binary_cols)] = True

    def run(self, lo: np.ndarray, up: np.ndarray, passes: int = 4) -> bool:
        if not self.a.size:
            return True
        tol = 1e-7
        a = self.a
        for _ in range(passes):
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                raw = np.where(self.pos, a * lo[None, :], a * up[None, :])
                contrib = np.where(self.pos | self.neg, raw, 0.0)
                inf_mask = np.isneginf(contrib)
                n_inf = inf_mask.sum(axis=1)
                finite_sum = np.where(inf_mask, 0.0, contrib).sum(axis=1)
                fully_finite = n_inf == 0
                if np.any(
                    fully_finite & (finite_sum > self.rhs + tol * self.rhs_scale)
                ):
                    return False
                # residual for each variable: the row's minimum activity
                # with that variable excluded; only defined when every
                # other contribution is finite
                excl = finite_sum[:, None] - np.where(inf_mask, 0.0, contrib)
                defined = fully_finite[:, None] | (inf_mask & (n_inf == 1)[:, None])
                residual = np.where(defined, self.rhs[:, None] - excl, np.inf)
                cap = residual / a
                ub_cand = np.where(self.pos, cap, np.inf).min(axis=0)
                lb_cand = np.where(self.neg, cap, -np.inf).max(axis=0)
            new_up = np.minimum(up, ub_cand)
            new_lo = np.maximum(lo, lb_cand)
            bm = self.binary_mask
            new_lo[bm & (new_lo > 1e-7)] = 1.0
            new_up[bm & (new_up < 1.0 - 1e-7)] = 0.0
            if np.any(new_lo > new_up + 1e-9):
                return False
            changed = np.any(new_up < up - 1e-12) or np.any(new_lo > lo + 1e-12)
            up[:] = new_up
            lo[:] = new_lo
            if not changed:
                break
        return True


def solve_milp(
    model: MilpModel,
    params: SolveParams | None = None,
    *,
    warm_values: list[np.ndarray] | None = None,
) -> MilpSolution:
    """Exact minimization of the model's active objective.

    ``warm_values`` may carry full solution vectors known to be feasible
    (from a related solve, say a neighboring epsilon cap); each one that
    checks out seeds the incumbent, which skips the feasibility dive and
    prunes from the start.
    """
    params = params or SolveParams()
    t0 = time.perf_counter()
    deadline = None if params.time_limit_s is None else t0 + params.time_limit_s

    a, senses, rhs = model.dense_rows()
    base_lo, base_up = model.registry.bounds()
    cost = np.asarray(model.objective, dtype=float)
    binary_cols = model.registry.binary_columns()
    family_rank = {fam: k for k, fam in enumerate(BINARY_FAMILIES)}
    col_rank = {}
    for d in model.registry.defs():
        if d.binary:
            rank = family_rank.get(d.family, len(family_rank))
            col_rank[d.column] = min(rank, 2)  # b and f branch at one level
    int_tol = params.integrality_tolerance
    propagator = _Propagator(a, senses, rhs, binary_cols)

    def lp_solve(fixings: dict[int, float], start):
        lo = base_lo.copy()
        up = base_up.copy()
        for col, val in fixings.items():
            lo[col] = val
            up[col] = val
        plo = lo.copy()
        pup = up.copy()
        if not propagator.run(plo, pup):
            return None
        # keep only the binary tightenings for the LP: implied integer
        # fixings prune hard, while tightened continuous bounds mostly
        # wreck the warm-start basis for no bound gain
        bm = propagator.binary_mask
        lo[bm] = plo[bm]
        up[bm] = pup[bm]
        return solve_lp(cost, a, senses, rhs, lo, up, start=start)

    bin_idx = np.asarray(binary_cols, dtype=int)

    def polish(x: np.ndarray, start) -> tuple[float, np.ndarray] | None:
        """(objective, values) with the binaries of ``x`` rounded and fixed.

        None if the fixed LP fails or its point is not feasible as it
        stands; see the module docstring for why every incumbent goes
        through here.
        """
        rounded = np.round(x[bin_idx])
        res = lp_solve(dict(zip(binary_cols, rounded.tolist())), start)
        if res is None or res.status is not LpStatus.OPTIMAL:
            return None
        values = res.x.copy()
        values[bin_idx] = rounded
        if not _is_feasible(values, a, senses, rhs, base_lo, base_up, binary_cols, int_tol):
            return None
        return float(cost @ values), values

    incumbent_obj: float | None = None
    incumbent_x: np.ndarray | None = None
    node_count = 0
    seq = itertools.count(1)

    def offer(obj: float, values: np.ndarray) -> None:
        nonlocal incumbent_obj, incumbent_x
        if incumbent_obj is None or obj < incumbent_obj - 1e-12:
            incumbent_obj = obj
            incumbent_x = values

    for cand in warm_values or []:
        cand = np.asarray(cand, dtype=float)
        if cand.shape[0] != model.registry.n_columns:
            continue
        if not _is_feasible(cand, a, senses, rhs, base_lo, base_up, binary_cols, int_tol):
            continue
        # the polished vector replaces the seed even when it costs more:
        # the seed's lower value may be the leak itself
        polished = polish(cand, None)
        if polished is not None:
            offer(*polished)

    def pick_branch(x: np.ndarray, dive: bool) -> tuple[int, bool] | None:
        if dive:
            # feasibility dive: commit the strongest assignment signal,
            # lowest column on ties so placements concentrate in one job
            best = None
            best_v = -1.0
            for col in binary_cols:
                if col_rank[col] != 0:
                    break  # assignment columns come first in the layout
                v = x[col]
                if min(v, 1.0 - v) > int_tol and v > best_v + 1e-12:
                    best_v = v
                    best = col
            if best is not None:
                return best, True
        best = None
        best_key = None
        for col in binary_cols:
            v = x[col]
            frac = min(v, 1.0 - v)
            if frac <= int_tol:
                continue
            key = (col_rank[col], -frac, col)
            if best_key is None or key < best_key:
                best_key = key
                best = col
        if best is None:
            return None
        return best, x[best] >= 0.5

    def least_integral(x: np.ndarray) -> tuple[int, bool] | None:
        # every binary is within int_tol here; branching on the worst one
        # keeps each integral point under the node reachable
        fracs = np.minimum(x[bin_idx], 1.0 - x[bin_idx])
        k = int(np.argmax(fracs))
        if fracs[k] <= 0.0:
            return None
        col = int(bin_idx[k])
        return col, x[col] >= 0.5

    def cutoff() -> float:
        if incumbent_obj is None:
            return math.inf
        return incumbent_obj - params.gap_tolerance * max(1.0, abs(incumbent_obj))

    def process(node: _Node) -> list[_Node]:
        nonlocal node_count
        res = lp_solve(node.fixings, node.start)
        node_count += 1
        if res is None or res.status is LpStatus.INFEASIBLE:
            return []
        if res.status is LpStatus.UNBOUNDED:
            raise RuntimeError("LP relaxation unbounded; model is missing a bound")
        bound = max(res.objective, node.est) if math.isfinite(node.est) else res.objective
        if bound >= cutoff():
            return []
        picked = pick_branch(res.x, dive=incumbent_obj is None)
        if picked is None:
            polished = polish(res.x, res.start_with_binv)
            if polished is not None:
                offer(*polished)
                if bound >= cutoff():
                    return []
            # the fixed LP failed, or the polished point sits above this
            # node's bound by more than the gap: search the node further
            picked = least_integral(res.x)
            if picked is None:
                return []
        col, prefer_high = picked
        children = [
            _Node(est=bound, neg_seq=-next(seq), fixings={**node.fixings, col: val}, start=res.start)
            for val in (0.0, 1.0)
        ]
        if prefer_high:
            children.reverse()  # preferred side first in the list
        # the first child is processed next (plunge): hand it the basis
        # inverse so it can skip the entry refactorization
        children[0].start = res.start_with_binv
        return children

    # best-first on the bound, newest node on ties, and every popped node
    # is plunged: its preferred child chain runs to a leaf while the
    # siblings are parked, so incumbents keep turning up
    heap = [_Node(est=-math.inf, neg_seq=-next(seq), fixings={})]
    timed_out = False
    while heap and not timed_out:
        node = heapq.heappop(heap)
        if node.est >= cutoff():
            continue
        while node is not None:
            if deadline is not None and time.perf_counter() > deadline:
                heapq.heappush(heap, node)
                timed_out = True
                break
            children = process(node)
            node = children[0] if children else None
            for extra in children[1:]:
                heapq.heappush(heap, extra)

    runtime = time.perf_counter() - t0
    if timed_out:
        best_open = min((n.est for n in heap), default=math.inf)
        if incumbent_obj is not None:
            bound = min(best_open, incumbent_obj)
            gap = (incumbent_obj - bound) / max(1.0, abs(incumbent_obj))
            return MilpSolution(
                SolveStatus.TimeLimit,
                incumbent_obj,
                incumbent_x,
                bound,
                max(gap, 0.0),
                node_count,
                runtime,
            )
        return MilpSolution(
            SolveStatus.TimeLimit, None, None, best_open, math.inf, node_count, runtime
        )
    if incumbent_obj is None:
        return MilpSolution(
            SolveStatus.Infeasible, None, None, math.inf, math.inf, node_count, runtime
        )
    return MilpSolution(
        SolveStatus.Optimal,
        incumbent_obj,
        incumbent_x,
        incumbent_obj,
        0.0,
        node_count,
        runtime,
    )


def _is_feasible(values, a, senses, rhs, lo, up, binary_cols, int_tol, row_tol=1e-6):
    if np.any(values < lo - 1e-9) or np.any(values > up + 1e-9):
        return False
    for col in binary_cols:
        if min(values[col], 1.0 - values[col]) > int_tol:
            return False
    lhs = a @ values
    scale = np.maximum(1.0, np.abs(rhs))
    for r, sense in enumerate(senses):
        gap = lhs[r] - rhs[r]
        if sense == "<" and gap > row_tol * scale[r]:
            return False
        if sense == ">" and gap < -row_tol * scale[r]:
            return False
        if sense == "=" and abs(gap) > row_tol * scale[r]:
            return False
    return True


_STATUS_TOKENS = {
    "optimal": SolveStatus.Optimal,
    "feasible": SolveStatus.Feasible,
    "infeasible": SolveStatus.Infeasible,
    "time_limit": SolveStatus.TimeLimit,
    "timelimit": SolveStatus.TimeLimit,
}


def parse_external_solution(text: str, model: MilpModel) -> MilpSolution:
    """Read a solution file produced outside this package.

    Expected layout: a header line ``STATUS objective`` followed by one
    ``variable value`` line per nonzero column.  Unlisted columns
    default to zero; unknown names are an error since they indicate a
    model/solution mismatch.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("missing header line with status and objective")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("header must be 'STATUS objective'")
    token = head[0].lower()
    if token not in _STATUS_TOKENS:
        raise ValueError(f"unknown status {head[0]!r}")
    status = _STATUS_TOKENS[token]
    if status is SolveStatus.Infeasible:
        return MilpSolution(status, None, None, math.inf, math.inf, 0, 0.0)
    try:
        objective = float(head[1])
    except ValueError as exc:
        raise ValueError(f"unparsable objective {head[1]!r}") from exc
    values = np.zeros(model.registry.n_columns)
    for ln in lines[1:]:
        fields = ln.split()
        if len(fields) != 2:
            raise ValueError(f"malformed solution line {ln!r}")
        col = model.registry.by_name(fields[0])
        try:
            values[col] = float(fields[1])
        except ValueError as exc:
            raise ValueError(f"unparsable value for {fields[0]}: {fields[1]!r}") from exc
    bound = objective if status is SolveStatus.Optimal else -math.inf
    gap = 0.0 if status is SolveStatus.Optimal else math.inf
    return MilpSolution(status, objective, values, bound, gap, 0, 0.0)


def write_solution(solution: MilpSolution, model: MilpModel, *, tol: float = 1e-9) -> str:
    """Inverse of parse_external_solution, nonzero columns only."""
    status = {
        SolveStatus.Optimal: "OPTIMAL",
        SolveStatus.Feasible: "FEASIBLE",
        SolveStatus.Infeasible: "INFEASIBLE",
        SolveStatus.TimeLimit: "TIME_LIMIT",
    }[solution.status]
    if solution.values is None:
        return f"{status} nan\n"
    lines = [f"{status} {solution.objective:.12g}"]
    for col, val in enumerate(solution.values):
        if abs(val) > tol:
            lines.append(f"{model.registry.name(col)} {val:.12g}")
    return "\n".join(lines) + "\n"
