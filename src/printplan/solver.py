"""Branch and bound over the LP relaxation.

Search order is best-first on the parent relaxation bound, with a
depth-first plunge until the first incumbent so a feasible point shows
up early.  Child nodes warm-start the simplex from the parent's final
basis.  A node is its box on the binary columns, the prefix
``[:n_binaries]``.

Branching is two array rules over that prefix.  Until the first
incumbent, a node dives: it fixes to one the largest fractional
assignment, the lowest column among those within 1e-12 of it.
Otherwise it fixes the most fractional binary (the lowest column on
ties) of the first column range that holds one: ``x`` (assignments),
``y`` (activations), then ``b`` and ``f`` (orientations).  A leaf, a
node whose binaries are all within the integrality tolerance, is
polished; if the polished point is rejected or sits above the node's
bound, the same range rule with tolerance 0 splits the node on a binary
that is not exactly integral, which keeps every integral point under it.

There is one incumbent path.  A tree leaf or a ``warm_values`` seed is
polished: its binaries are rounded, the LP is re-solved with them fixed,
and the result counts only if it is feasible as it stands and cheaper by
more than 1e-12.  A point whose binaries are merely within tolerance of
integral can otherwise sit below any objective its decisions attain, by
up to big-M times the tolerance.  The fixed LP recomputes every other
column, so a seed is its binaries.  Each new incumbent sets the cutoff,
its objective less `gap_slack`.

``Optimal`` means proven: no open node's bound is below the incumbent by
more than `gap_slack` (``GAP_TOLERANCE``, 1e-6 relative), a constant,
not a setting.  A caller that already holds a proven lower bound on the
optimum (a looser epsilon cap's, say) passes it as ``lower_bound``: once
the cutoff reaches it, every open node is within the gap, and the search
stops as ``Optimal``.  The one early stop short of proof is the time
limit, reported as ``TimeLimit``.

A solution's ``bound`` is the bound the search proved: the least bound of
the nodes it closed on their bounds and of the nodes it left open, raised
to ``lower_bound`` and capped at the objective.  A node closed as
infeasible adds nothing.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .model import MilpModel
from .simplex import LpStatus, bound_slack, prepare_rows, solve_lp


class SolveStatus(str, Enum):
    Optimal = "optimal"
    Feasible = "feasible"
    Infeasible = "infeasible"
    TimeLimit = "time_limit"


# a binary within this distance of 0 or 1 counts as integral
INTEGRALITY_TOLERANCE = 1e-6
# a node is pruned once its bound is within this relative distance of
# the incumbent, so ``Optimal`` means proven to this gap
GAP_TOLERANCE = 1e-6
# bound-propagation sweeps over all rows per node, at most
_PROPAGATION_PASSES = 4


def gap_slack(value: float) -> float:
    """How far a value may sit above a proven bound and still count as within the gap."""
    return GAP_TOLERANCE * max(1.0, abs(value))


@dataclass
class MilpSolution:
    """A solve's outcome.  ``bound`` is a proven lower bound on the optimum:
    for `solve_milp`, the bound its search proved (see the module
    docstring), at most the objective; +inf when proven infeasible."""

    status: SolveStatus
    objective: float | None
    values: np.ndarray | None
    bound: float
    node_count: int

    @property
    def gap(self) -> float:
        """Relative distance from the objective down to the proven bound;
        inf without an objective.  At most ``GAP_TOLERANCE`` when optimal."""
        if self.objective is None:
            return math.inf
        return max((self.objective - self.bound) / max(1.0, abs(self.objective)), 0.0)


@dataclass(order=True)
class _Node:
    est: float
    neg_seq: int  # newer nodes first on bound ties, so plunges stay deep
    lo: np.ndarray = field(compare=False)  # box on the binary prefix, unpropagated
    up: np.ndarray = field(compare=False)
    start: tuple | None = field(compare=False, default=None)


class _Propagator:
    """Bound tightening over the model rows before each node LP.

    Classic interval propagation, vectorized over all rows at once: per
    row, the residual left after the other variables sit at their most
    helpful bound caps each variable; the bounds of the binaries, the
    first ``n_bin`` columns, then round to {0, 1}.  Detects many
    infeasible nodes outright and fixes implied binaries, which keeps the
    tree small when a cap row (an epsilon cap, say) is nearly tight.

    Rows are kept as ``<=`` rows in the model's coordinate form: the
    ``<`` and ``=`` rows, then the ``>`` and ``=`` rows negated.  Model
    rows hold a few nonzeros each.  `_is_feasible` reads the same stack.
    """

    def __init__(self, coords, senses, rhs: np.ndarray, n_bin: int):
        row, col, val = coords
        sense = np.asarray(senses)
        le, ge = sense != ">", sense != "<"
        on_le, on_ge = le[row], ge[row]
        # each half keeps its rows in order, so the entries stay sorted
        le_row, ge_row = np.cumsum(le) - 1, np.count_nonzero(le) + np.cumsum(ge) - 1
        self.row = np.concatenate((le_row[row[on_le]], ge_row[row[on_ge]]))
        self.col = np.concatenate((col[on_le], col[on_ge]))
        self.val = np.concatenate((val[on_le], -val[on_ge]))
        self.pos = self.val > 0
        self.rhs = np.concatenate((rhs[le], -rhs[ge]))
        self.rhs_scale = np.maximum(1.0, np.abs(self.rhs))
        self.n_bin = n_bin

    def run(self, lo: np.ndarray, up: np.ndarray) -> bool:
        tol = 1e-7
        row, col, val, pos = self.row, self.col, self.val, self.pos
        n_rows = self.rhs.shape[0]
        for _ in range(_PROPAGATION_PASSES):
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                contrib = np.where(pos, val * lo[col], val * up[col])
                inf_mask = np.isneginf(contrib)
                finite = np.where(inf_mask, 0.0, contrib)
                n_inf = np.bincount(row[inf_mask], minlength=n_rows)
                finite_sum = np.bincount(row, weights=finite, minlength=n_rows)
                fully_finite = n_inf == 0
                if np.any(
                    fully_finite & (finite_sum > self.rhs + tol * self.rhs_scale)
                ):
                    return False
                # residual for each entry: the row's minimum activity with
                # that variable excluded; only defined when every other
                # contribution is finite
                defined = fully_finite[row] | (inf_mask & (n_inf[row] == 1))
                residual = np.where(defined, self.rhs[row] - (finite_sum[row] - finite), np.inf)
                cap = residual / val
            ub_cand = np.full(lo.shape[0], np.inf)
            lb_cand = np.full(lo.shape[0], -np.inf)
            np.minimum.at(ub_cand, col[pos], cap[pos])
            np.maximum.at(lb_cand, col[~pos], cap[~pos])
            # a bound takes a candidate only if it moves by more than its
            # slack: re-deriving a fixed bound through an equality row moves
            # it by a few ulps a pass, which would cross feasible boxes
            new_up = np.where(ub_cand < up - bound_slack(up), ub_cand, up)
            new_lo = np.where(lb_cand > lo + bound_slack(lo), lb_cand, lo)
            lo_bin, up_bin = new_lo[: self.n_bin], new_up[: self.n_bin]  # views
            lo_bin[lo_bin > 1e-7] = 1.0
            up_bin[up_bin < 1.0 - 1e-7] = 0.0
            if np.any(new_lo > new_up + bound_slack(new_up)):
                return False
            changed = np.any(new_up < up) or np.any(new_lo > lo)
            up[:] = new_up
            lo[:] = new_lo
            if not changed:
                break
        return True


def solve_milp(
    model: MilpModel,
    *,
    time_limit_s: float | None = None,
    warm_values: list[np.ndarray] | None = None,
    lower_bound: float = -math.inf,
) -> MilpSolution:
    """Exact minimization of the model's active objective.

    The search stops short of proof only at ``time_limit_s``, with status
    ``TimeLimit``; a NaN limit raises ``ValueError``.  ``lower_bound`` is
    the caller's assertion that the optimum is at least that value: before
    each node pops and before each plunge step, the search stops once the
    cutoff (the incumbent less `gap_slack`) reaches it, as ``Optimal``, or
    as ``Infeasible`` at +inf with no incumbent.  A NaN bound raises
    ``ValueError``.  The default, -inf, never stops a search.

    ``warm_values`` may carry vectors of the model's length (a
    neighboring epsilon cap's solution, say, or a heuristic's binaries).
    Only binary entries are read: continuous ones are ignored, and a
    fractional binary is rounded, not refused.  Each rounded vector is
    polished like a leaf and, if that passes, seeds the incumbent, which
    skips the feasibility dive and prunes from the start.  A vector of the
    wrong length or with a non-finite binary is skipped.
    """
    if time_limit_s is not None and math.isnan(time_limit_s):
        raise ValueError("time_limit_s must be a number of seconds, not nan")
    if math.isnan(lower_bound):
        raise ValueError("lower_bound must be a number, not nan")
    deadline = None if time_limit_s is None else time.perf_counter() + time_limit_s

    reg = model.registry
    base_lo, base_up = np.zeros(reg.n_columns), model.upper
    cost = np.asarray(model.objective, dtype=float)
    n_bin = reg.n_binaries
    # branching levels: assignments, then activations, then b and f together
    n_x, n_y = reg.block("x").size, reg.block("y").size
    levels = (slice(0, n_x), slice(n_x, n_x + n_y), slice(n_x + n_y, n_bin))
    propagator = _Propagator(model.coords, model.senses, model.rhs, n_bin)
    rows = prepare_rows(model.dense_rows(), model.senses, model.rhs)

    def lp_solve(lo_bin: np.ndarray, up_bin: np.ndarray, start):
        lo = np.concatenate((lo_bin, base_lo[n_bin:]))
        up = np.concatenate((up_bin, base_up[n_bin:]))
        if not propagator.run(lo, up):
            return None
        # keep only the binary tightenings for the LP: implied integer
        # fixings prune hard, while tightened continuous bounds mostly
        # wreck the warm-start basis for no bound gain
        lo[n_bin:] = base_lo[n_bin:]
        up[n_bin:] = base_up[n_bin:]
        return solve_lp(cost, rows, lo, up, start=start)

    incumbent_obj = math.inf
    incumbent_x: np.ndarray | None = None
    cutoff = math.inf
    closed_bound = math.inf  # least bound of the nodes closed on their bounds
    node_count = 0
    seq = itertools.count(1)

    def polish(binaries: np.ndarray, start) -> None:
        """Offer the point with the binary columns fixed at ``binaries``.

        ``binaries`` holds one rounded value per binary column.  The point
        becomes the incumbent if the fixed LP solves, the point is
        feasible as it stands and it is cheaper by more than 1e-12; see
        the module docstring for why every incumbent goes through here.
        """
        nonlocal incumbent_obj, incumbent_x, cutoff
        res = lp_solve(binaries, binaries, start)
        if res is None or res.status is not LpStatus.OPTIMAL:
            return
        values = res.x.copy()
        values[:n_bin] = binaries
        if not _is_feasible(values, propagator, base_lo, base_up):
            return
        obj = float(cost @ values)
        if obj < incumbent_obj - 1e-12:
            incumbent_obj, incumbent_x, cutoff = obj, values, obj - gap_slack(obj)

    # polish depends only on the rounded binaries, so a seed that rounds
    # like an earlier one would reach the same point, which polish rejects
    polished_keys = set()
    for cand in warm_values or []:
        cand = np.asarray(cand, dtype=float)
        if cand.shape[0] != reg.n_columns:
            continue
        binaries = np.round(cand[:n_bin])
        if not np.isfinite(binaries).all() or binaries.tobytes() in polished_keys:
            continue
        polished_keys.add(binaries.tobytes())
        polish(binaries, None)

    def process(node: _Node) -> list[_Node]:
        nonlocal node_count, closed_bound
        res = lp_solve(node.lo, node.up, node.start)
        node_count += 1
        if res is None or res.status is LpStatus.INFEASIBLE:
            return []
        if res.status is LpStatus.UNBOUNDED:
            raise RuntimeError("LP relaxation unbounded; model is missing a bound")
        bound = max(res.objective, node.est)
        if bound >= cutoff:
            closed_bound = min(closed_bound, bound)
            return []
        x = res.x
        col = _dive_column(x[:n_x]) if incumbent_x is None else None
        dived = col is not None
        if not dived:
            col = _branch_column(x, levels, INTEGRALITY_TOLERANCE)
        if col is None:
            polish(np.round(x[:n_bin]), res.start_with_binv)
            # the fixed LP failed, or the polished point sits above this
            # node's bound by more than the gap: search the node further
            col = None if bound >= cutoff else _branch_column(x, levels, 0.0)
            if col is None:
                closed_bound = min(closed_bound, bound)
                return []
        children = [_Node(bound, -next(seq), node.lo.copy(), node.up.copy(), res.start) for _ in range(2)]
        for val, child in zip((0.0, 1.0), children):
            child.lo[col] = child.up[col] = val
        if dived or x[col] >= 0.5:
            children.reverse()  # preferred side first in the list
        # the first child is processed next (plunge): hand it the basis
        # inverse so it can skip the entry refactorization
        children[0].start = res.start_with_binv
        return children

    # best-first on the bound, newest node on ties, and every popped node
    # is plunged: its preferred child chain runs to a leaf while the
    # siblings are parked, so incumbents keep turning up
    heap = [_Node(-math.inf, -next(seq), base_lo[:n_bin].copy(), base_up[:n_bin].copy())]
    timed_out = False
    while heap and not timed_out and cutoff > lower_bound:
        node = heapq.heappop(heap)
        if node.est >= cutoff:
            closed_bound = min(closed_bound, node.est)
            continue
        while node is not None:
            timed_out = deadline is not None and time.perf_counter() > deadline
            if timed_out or cutoff <= lower_bound:
                heapq.heappush(heap, node)
                break
            children = process(node)
            node = children[0] if children else None
            for extra in children[1:]:
                heapq.heappush(heap, extra)

    # the heap holds what the time limit or the lower-bound stop left open
    proven = max(min([closed_bound] + [n.est for n in heap]), lower_bound)
    if incumbent_x is None:
        status = SolveStatus.TimeLimit if timed_out else SolveStatus.Infeasible
        return MilpSolution(status, None, None, proven, node_count)
    status = SolveStatus.TimeLimit if timed_out else SolveStatus.Optimal
    return MilpSolution(status, incumbent_obj, incumbent_x, min(proven, incumbent_obj), node_count)


def _branch_column(x: np.ndarray, levels: tuple[slice, ...], tol: float) -> int | None:
    """First level with a binary more than ``tol`` from integral, its most
    fractional one, then the lowest column (``argmax`` takes the first
    maximum); None if none."""
    for level in levels:
        frac = np.minimum(x[level], 1.0 - x[level])
        if frac.size:
            k = int(np.argmax(frac))
            if frac[k] > tol:
                return level.start + k
    return None


def _dive_column(x: np.ndarray) -> int | None:
    """Among assignments more than the integrality tolerance from
    integral, the lowest column within 1e-12 of the largest value: the
    strongest signal, lowest on near-ties so placements concentrate in
    one job; None if none."""
    value = np.where(np.minimum(x, 1.0 - x) > INTEGRALITY_TOLERANCE, x, -1.0)
    top = value.max(initial=-1.0)
    if top < 0.0:
        return None
    return int(np.argmax(value >= top - 1e-12))


def _is_feasible(values, stack: _Propagator, lo, up) -> bool:
    """Finite, within bounds up to `bound_slack`, binaries integral, rows held within 1e-6 * max(1, |rhs|).

    The rows are the propagator's ``<=`` stack, so an ``=`` row is checked
    from both sides and a ``>`` row negated; negation is exact, so the
    verdict is the one the model's own rows give.
    """
    if not np.isfinite(values).all():
        return False
    if np.any(values < lo - bound_slack(lo)) or np.any(values > up + bound_slack(up)):
        return False
    binaries = values[: stack.n_bin]
    if np.any(np.minimum(binaries, 1.0 - binaries) > INTEGRALITY_TOLERANCE):
        return False
    activity = np.bincount(stack.row, weights=stack.val * values[stack.col], minlength=stack.rhs.shape[0])
    return not np.any(activity - stack.rhs > 1e-6 * stack.rhs_scale)


def parse_external_solution(text: str, model: MilpModel) -> MilpSolution:
    """Read a solution file produced outside this package.

    Expected layout: a header line ``STATUS objective`` (``INFEASIBLE`` or
    ``TIME_LIMIT`` alone for a solve without values) followed by one
    ``variable value`` line per nonzero column.  Unlisted columns default
    to zero; unknown names are an error since they indicate a
    model/solution mismatch, and so is a name listed twice.  Past an
    ``INFEASIBLE`` header, a number that does not parse or is not finite
    (``nan``, ``inf``) is an error.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("missing header line with status and objective")
    head = lines[0].split()
    if len(head) not in (1, 2):
        raise ValueError("header must be 'STATUS objective'")
    token = head[0].lower()
    try:
        status = SolveStatus("time_limit" if token == "timelimit" else token)
    except ValueError:
        raise ValueError(f"unknown status {head[0]!r}") from None
    if status is SolveStatus.Infeasible:
        return MilpSolution(status, None, None, math.inf, 0)
    if len(head) == 1:
        if status is not SolveStatus.TimeLimit:
            raise ValueError("header must be 'STATUS objective'")
        return MilpSolution(status, None, None, -math.inf, 0)
    objective = _finite(head[1], "objective")
    values = np.zeros(model.registry.n_columns)
    listed = set()
    for ln in lines[1:]:
        fields = ln.split()
        if len(fields) != 2:
            raise ValueError(f"malformed solution line {ln!r}")
        col = model.registry.by_name(fields[0])
        if col in listed:
            raise ValueError(f"variable {fields[0]} is listed more than once")
        listed.add(col)
        values[col] = _finite(fields[1], f"value for {fields[0]}:")
    bound = objective if status is SolveStatus.Optimal else -math.inf
    return MilpSolution(status, objective, values, bound, 0)


def _finite(token: str, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"unparsable {what} {token!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite {what} {token!r}")
    return value


def write_solution(solution: MilpSolution, model: MilpModel) -> str:
    """Inverse of parse_external_solution, columns above 1e-9 in magnitude only.

    17 significant digits read back as the same double at any magnitude.
    """
    status = solution.status.value.upper()
    if solution.values is None:
        return f"{status}\n"
    lines = [f"{status} {solution.objective:.17g}"]
    for col, val in enumerate(solution.values):
        if abs(val) > 1e-9:
            lines.append(f"{model.registry.name(col)} {val:.17g}")
    return "\n".join(lines) + "\n"
