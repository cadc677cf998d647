"""Bounded-variable primal simplex.

Solves   min c.x  subject to  A x {<=,=,>=} b,  lower <= x <= upper
with a dense revised simplex that keeps an explicit basis inverse.

The rows come in one form: the `LpRows` that `prepare_rows` builds once
for every LP over the same rows.  Every column needs at least one finite
bound, so each nonbasic column sits at a finite bound (no free columns).

Key mechanics:

* every row gets a slack column, bounded so the slack encodes the row
  sense ([0, inf) for <=, [0, 0] for =, (-inf, 0] for >=), which lets a
  single bounded-variable pivot loop serve both phases;
* infeasibility is removed by a composite phase-1 objective that prices
  only out-of-bound basic variables, so the method can start from an
  arbitrary basis (used for warm starts between branch-and-bound nodes);
* rows are scaled by their max-abs coefficient before solving;
* the pivot loop keeps its state in basis order: the basic values, their
  bounds, bound-tolerance limits and costs are arrays indexed by basis
  position, each pivot rewrites one position, and nonbasic columns keep
  their bound values, so the full value vector is written only when the
  solve finishes;
* a warm start is the basis plus one bound side per column (``at_up``,
  true for a nonbasic column at its upper bound);
* sign pricing: each column carries -1 at its lower bound, +1 at its
  upper bound and 0 when basic, or nonbasic with equal bounds, so
  ``sgn * d`` is the improvement rate of every eligible column and at
  most the tolerance elsewhere; Dantzig's rule takes its argmax, Bland's
  rule (after a run of degenerate steps) its first entry above the
  tolerance.  A fixed column (an equality-row slack, a binary fixed by
  branching) cannot move, so it is never priced and never enters;
* the ratio test and the rank-1 update of the basis inverse touch only
  the rows where the entering column moves, and the update only the
  columns where the pivot row of the inverse is nonzero;
* periodic refactorization of the basis inverse, and a feasibility audit
  at termination: every verdict (optimal, infeasible, unbounded) is
  reached on an inverse this solve freshly factored, with no pivot or
  bound flip since, and its row residual is checked;
* a refactorization inverts only the basis nucleus: basic slack columns
  are unit vectors, so only the block of structural basic columns on
  the rows no basic slack covers is inverted, and the rest of the
  inverse follows in closed form (Suhl & Suhl 1990).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

_REFACTOR_EVERY = 100
_DEGENERATE_RUN = 300
_MAX_ITERATIONS_BASE = 20_000
_MAX_ITERATIONS_PER_DIM = 200
_RESIDUAL_TOL = 1e-6  # rows scaled to max |a| = 1: a relative row error, as loose as the 1e-6 gap


class SimplexError(RuntimeError):
    """Numerical breakdown that survived refactorization retries."""


class LpStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LpResult:
    status: LpStatus
    objective: float | None
    x: np.ndarray
    iterations: int
    basis: np.ndarray  # int, one column per row
    at_up: np.ndarray  # bool per column: nonbasic at its upper bound
    binv: np.ndarray

    @property
    def start(self) -> tuple[np.ndarray, np.ndarray]:
        """Opaque warm-start token for a subsequent solve; no solve changes it."""
        return (self.basis, self.at_up)

    @property
    def start_with_binv(self):
        """Warm-start token that also hands over the basis inverse.

        Valid only for a follow-up solve of the same rows (bounds may
        differ); the receiver copies it, so sharing is safe.  The inverse
        serves pivoting only: the receiver factors its own before it
        trusts a verdict.
        """
        return (self.basis, self.at_up, self.binv)


@dataclass(frozen=True)
class LpRows:
    """The row data of an LP, prepared once for many solves over the same rows.

    Rows are scaled by their max-abs coefficient (an all-zero row keeps
    scale 1), and each row gets its slack column, whose bounds encode
    the row sense.
    """

    a_full: np.ndarray  # scaled [A | I], shape (m, n + m)
    b: np.ndarray  # scaled right-hand side
    slack_lo: np.ndarray
    slack_up: np.ndarray


def prepare_rows(a, senses, b) -> LpRows:
    """Scale the rows of ``A x {<,=,>} b`` and append one slack column per row."""
    a = np.asarray(a, dtype=float)
    b = np.array(b, dtype=float)
    m = a.shape[0]
    if a.ndim != 2 or b.shape != (m,):
        raise ValueError("rows need a 2-D coefficient array and one rhs per row")
    scale = np.abs(a).max(axis=1, initial=0.0)
    scale = np.where(scale < 1e-12, 1.0, scale)
    n = a.shape[1]
    a_full = np.zeros((m, n + m))
    np.divide(a, scale[:, None], out=a_full[:, :n])
    a_full[np.arange(m), n + np.arange(m)] = 1.0
    b /= scale
    senses = list(senses)
    if len(senses) != m:
        raise ValueError("one row sense per row required")
    for sense in senses:
        if sense not in ("<", "=", ">"):
            raise ValueError(f"unknown row sense {sense!r}")
    slack_lo = np.array([-np.inf if s == ">" else 0.0 for s in senses])
    slack_up = np.array([np.inf if s == "<" else 0.0 for s in senses])
    return LpRows(a_full, b, slack_lo, slack_up)


def solve_lp(
    c,
    rows: LpRows,
    lower,
    upper,
    *,
    start: tuple[np.ndarray, np.ndarray] | None = None,
) -> LpResult:
    """Solve one LP over the rows that `prepare_rows` returned.

    Raises ``ValueError`` for a cost or bound vector of the wrong length,
    a cost that is not finite, a NaN bound, and a column whose bounds are
    both infinite.
    """
    c = np.asarray(c, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    a_full, b = rows.a_full, rows.b
    m = b.shape[0]
    if c.ndim != 1 or a_full.shape[1] != c.shape[0] + m:
        raise ValueError("row width does not match the cost vector")
    n = c.shape[0]
    if lower.shape != (n,) or upper.shape != (n,):
        raise ValueError("lower and upper need one bound per column")
    if not np.isfinite(c).all():
        raise ValueError("every cost must be finite")
    if np.isnan(lower).any() or np.isnan(upper).any():
        raise ValueError("a bound must not be NaN")

    total = n + m
    cols = np.zeros(total)
    cols[:n] = c
    lo = np.concatenate([lower, rows.slack_lo])
    up = np.concatenate([upper, rows.slack_up])
    if np.any(~np.isfinite(lo) & ~np.isfinite(up)):
        raise ValueError("every column needs a finite lower or upper bound")
    # a basic variable past these limits counts as out of bounds
    lo_lim = lo - bound_slack(lo)
    up_lim = up + bound_slack(up)
    fixed = lo == up

    max_iterations = _MAX_ITERATIONS_BASE + _MAX_ITERATIONS_PER_DIM * (m + n)

    def cold_state():
        basis = np.arange(n, n + m)
        return basis, *_nonbasic_state(basis, ~np.isfinite(lo), lo, up, fixed), np.eye(m)

    if start is None:
        basis, sgn, values, binv = cold_state()
    else:
        basis = np.array(start[0], dtype=int)  # a copy: the pivots rewrite it
        at_up = start[1]
        if basis.shape[0] != m or at_up.shape[0] != total:
            raise ValueError("warm start does not match problem shape")
        # only finite bounds change between solves, so a bound side from
        # an earlier solve still names a finite bound here
        sgn, values = _nonbasic_state(basis, at_up, lo, up, fixed)
        binv = None
        if len(start) > 2 and start[2] is not None:
            # C order: the rank-1 update writes through a flat view
            binv = np.array(start[2], dtype=float, order="C")
    # the inverse was factored by this solve, with no pivot or bound flip
    # since: the only inverse a verdict may rest on
    fresh = start is None
    refactor = binv is None

    dual_tol = 1e-9 * max(1.0, float(np.abs(c).max()) if c.size else 1.0)
    bland = False
    degenerate_run = 0
    restarts = 0
    it = 0
    reload = True  # recompute the basic values and the basis-ordered bounds and costs

    while True:
        if it >= max_iterations:
            raise SimplexError(f"iteration limit {max_iterations} exceeded")
        if refactor:
            # rank-1 updates can walk the basis into exact singularity;
            # recover by restarting this solve from the slack basis
            try:
                binv = _refactor(a_full, basis)
            except SimplexError:
                restarts += 1
                if restarts > 5:
                    raise
                basis, sgn, values, binv = cold_state()
            refactor, fresh, reload = False, True, True
        if reload:
            xb = _basic_values(a_full, b, basis, values, binv)
            lob, upb, c_b = lo[basis], up[basis], cols[basis]
            lo_limb, up_limb = lo_lim[basis], up_lim[basis]
            reload = False

        below = xb < lo_limb
        above = xb > up_limb
        in_phase1 = bool(below.any() or above.any())

        if in_phase1:
            # composite cost: -1 on basics below their bound, +1 above
            y = np.subtract(above, below, dtype=float) @ binv
            d = -(y @ a_full)
            price_tol = 1e-9
        else:
            y = c_b @ binv
            d = cols - y @ a_full
            price_tol = dual_tol

        q = _entering(sgn, d, price_tol, bland)
        if q >= 0:
            direction = -float(sgn[q])  # +1 leaves the lower bound, -1 the upper
            w = binv @ a_full[:, q]
            theta, leave_pos, leave_up = _ratio_test(
                xb, lob, upb, below if in_phase1 else None, above if in_phase1 else None,
                w, direction, lo[q], up[q], bland, basis,
            )

        if q < 0 or theta is None:
            if not fresh:
                # re-factor, reload and price again; this is no iteration
                refactor = True
                continue
            if q < 0:
                status = LpStatus.INFEASIBLE if in_phase1 else LpStatus.OPTIMAL
            elif in_phase1:
                raise SimplexError("phase-1 direction unbounded; numerical breakdown")
            else:
                status = LpStatus.UNBOUNDED
            values[basis] = xb
            resid = float(np.abs(a_full @ values - b).max()) if m else 0.0
            if resid > _RESIDUAL_TOL:
                raise SimplexError(f"row residual {resid:.3e} above tolerance at a verdict")
            obj = float(cols @ values) if status is LpStatus.OPTIMAL else None
            return _finish(status, obj, values, n, it, basis, sgn, binv)

        if theta <= 1e-10:
            degenerate_run += 1
            if degenerate_run >= _DEGENERATE_RUN:
                bland = True
        else:
            degenerate_run = 0
            bland = False

        xb -= theta * direction * w
        if leave_pos == -1:
            # entering variable runs to its opposite bound: bound flip only
            sgn[q] = direction
            values[q] = up[q] if direction > 0 else lo[q]
        else:
            leaving = basis[leave_pos]
            xb[leave_pos] = values[q] + theta * direction
            sgn[q] = 0.0
            sgn[leaving] = 0.0 if fixed[leaving] else (1.0 if leave_up else -1.0)
            values[leaving] = up[leaving] if leave_up else lo[leaving]
            basis[leave_pos] = q
            lob[leave_pos], upb[leave_pos], c_b[leave_pos] = lo[q], up[q], cols[q]
            lo_limb[leave_pos], up_limb[leave_pos] = lo_lim[q], up_lim[q]
            _rank1_update(binv, w, leave_pos)
        it += 1
        fresh = False
        refactor = it % _REFACTOR_EVERY == 0


def bound_slack(bound):
    """1e-9 * max(1, |bound|), kept finite so that an infinite bound takes any finite candidate.

    A value past a bound by more than this counts as past it; an
    infinite bound plus its slack stays infinite.
    """
    return 1e-9 * np.minimum(np.maximum(1.0, np.abs(bound)), 1e300)


def _nonbasic_state(basis, at_up, lo, up, fixed):
    """Price signs and values of the columns from the basis and their bound sides.

    A nonbasic column sits at its upper bound where ``at_up`` holds and at
    its lower bound elsewhere; its sign is +1 or -1 accordingly.  A basic
    column, and a fixed one (it cannot move), gets sign 0.  The values of
    basic columns are placeholders until the solve writes them.
    """
    sgn = np.where(at_up, 1.0, -1.0)
    sgn[fixed] = 0.0
    sgn[basis] = 0.0
    return sgn, np.where(at_up, up, lo)


def _refactor(a_full, basis):
    """Basis inverse from the nucleus alone.

    Column ``n + i`` of ``a_full`` is exactly ``e_i``, so a basic slack
    covers its own row.  Ordering the basis positions as (structural K,
    slack S) and the rows as (R, the slacks' rows), the basis is
    ``[[A_K[R], 0], [A_K[s_rows], I]]``; only the nucleus ``A_K[R]`` is
    inverted, and the other blocks of the inverse follow in closed form.
    """
    m = a_full.shape[0]
    n = a_full.shape[1] - m
    is_slack = basis >= n
    k_pos = np.flatnonzero(~is_slack)
    s_pos = np.flatnonzero(is_slack)
    s_rows = basis[s_pos] - n
    uncovered = np.ones(m, dtype=bool)
    uncovered[s_rows] = False
    r_rows = np.flatnonzero(uncovered)
    a_k = a_full[:, basis[k_pos]]
    try:
        nucleus_inv = np.linalg.inv(a_k[r_rows])
    except np.linalg.LinAlgError as exc:
        raise SimplexError("singular basis during refactorization") from exc
    binv = np.zeros((m, m))
    binv[np.ix_(k_pos, r_rows)] = nucleus_inv
    binv[np.ix_(s_pos, r_rows)] = -a_k[s_rows] @ nucleus_inv
    binv[s_pos, s_rows] = 1.0
    return binv


def _basic_values(a_full, b, basis, values, binv):
    v = values.copy()
    v[basis] = 0.0
    return binv @ (b - a_full @ v)


def _ratio_test(xb, lob, upb, below, above, w, direction, lo_q, up_q, bland, basis):
    """Largest step the entering variable can take.

    Feasible basics block at their own bounds.  Basics currently outside
    a bound block when they reach that bound (where the phase-1 cost
    slope changes).  Returns (theta, blocking basis position or -1 for a
    bound flip, whether the leaving variable takes its upper bound).
    Only the rows that move (|w| > 1e-9) can block, so only those are
    examined.

    ``below`` and ``above`` mark the basics outside their bounds; phase 2
    passes None for both, as every basic is then within its bounds.
    """
    best = np.inf
    if math.isfinite(lo_q) and math.isfinite(up_q):
        best = up_q - lo_q

    idx = (np.abs(w) > 1e-9).nonzero()[0]
    w_idx = w[idx]
    dv = -direction * w_idx
    x, lb, ub = xb[idx], lob[idx], upb[idx]
    inc = dv > 0
    # a feasible basic stops at the bound it heads for, an infeasible one
    # at the bound it crosses back over; (x - lb) / -dv equals
    # (lb - x) / dv up to the sign of zero, which the clamp at 0 removes
    if below is None:
        # an infinite bound gives (+-inf - x) / dv = +inf: it never blocks
        to_up = inc
        cand_theta = (np.where(inc, ub, lb) - x) / dv
    else:
        blw, abv = below[idx], above[idx]
        dec = ~inc  # dv is nonzero on moving rows
        feas = ~(blw | abv)
        to_lo = np.where(feas, dec, blw & inc) & np.isfinite(lb)
        to_up = np.where(feas, inc, abv & dec) & np.isfinite(ub)
        target = np.where(to_lo, lb, ub)
        cand_theta = np.where(to_lo | to_up, (target - x) / dv, np.inf)
    cand_theta = np.maximum(cand_theta, 0.0)

    row_min = float(cand_theta.min()) if idx.size else np.inf
    theta = min(best, row_min)
    if not math.isfinite(theta):
        return None, -1, False

    if row_min > theta + 1e-9:
        return theta, -1, False  # entering variable flips to its other bound

    near = (cand_theta <= theta + 1e-9).nonzero()[0]
    if bland:
        k = int(near[np.argmin(basis[idx[near]])])
    else:
        k = int(near[np.argmax(np.abs(w_idx[near]))])
    return float(cand_theta[k]), int(idx[k]), bool(to_up[k])


def _entering(sgn, d, tol, bland):
    """Entering column by sign pricing, or -1 when none improves the objective.

    ``sgn * d`` is ``|d|`` on a nonbasic column whose reduced cost
    improves the objective as it leaves its bound, and at most ``tol`` on
    every other column.  A basic column and a nonbasic column with equal
    bounds carry sign 0, so neither is ever picked.  Dantzig's rule takes
    the largest (the first of ties), Bland's rule the first column above
    ``tol``.
    """
    score = sgn * d
    if not score.size:
        return -1
    q = int(np.argmax(score > tol if bland else score))
    return q if score[q] > tol else -1


def _rank1_update(binv, w, p):
    """Swap the column at basis position ``p`` for the one with ``binv @ a = w``.

    Row ``i`` of the new inverse is ``binv[i] - w[i] * row`` with
    ``row = binv[p] / w[p]``, and row ``p`` becomes ``row``.  Only the block
    of rows where ``w`` is nonzero and columns where ``row`` is nonzero is
    touched: elsewhere the product is zero, and subtracting it leaves the
    entry as it was up to the sign of a zero.  The ratio test guarantees
    ``|w[p]| > 1e-9``.
    """
    m = binv.shape[0]
    row = binv[p] / w[p]
    r = w.nonzero()[0]
    k = row.nonzero()[0]
    flat = binv.reshape(-1)  # a view, as every binv here is C-contiguous
    flat[(r * m)[:, None] + k] -= w[r][:, None] * row[k]
    binv[p] = row


def _finish(status, objective, values, n, iterations, basis, sgn, binv):
    """The result, with the bound sides for a warm start.

    A basic column and a fixed one carry sign 0, so ``at_up`` is true
    exactly where the sign is +1 (a fixed column sits at both bounds).
    """
    return LpResult(
        status=status,
        objective=objective,
        x=values[:n].copy(),
        iterations=iterations,
        basis=basis,
        at_up=sgn > 0,
        binv=binv,
    )
