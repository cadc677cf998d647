from __future__ import annotations

import ast
import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from printplan import simplex
from printplan.simplex import (
    LpStatus,
    SimplexError,
    _entering,
    _rank1_update,
    _ratio_test,
    _refactor,
    prepare_rows,
    solve_lp,
)


def test_two_variable_optimum():
    # min -x - 2y s.t. x + y <= 4, x <= 3, y <= 2  ->  (2, 2), obj -6
    res = solve_lp(
        c=[-1, -2],
        rows=prepare_rows([[1, 1]], ["<"], [4]),
        lower=[0, 0],
        upper=[3, 2],
    )
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(-6)
    assert res.x == pytest.approx([2, 2])


def test_equality_row():
    # min x + y s.t. x + 2y = 4, 0 <= x,y <= 10 -> (0, 2)
    res = solve_lp([1, 1], prepare_rows([[1, 2]], ["="], [4]), [0, 0], [10, 10])
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(2)
    assert res.x == pytest.approx([0, 2])


def test_ge_row():
    # min 2x + y s.t. x + y >= 3 -> (0, 3)
    res = solve_lp([2, 1], prepare_rows([[1, 1]], [">"], [3]), [0, 0], [np.inf, np.inf])
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(3)


def test_infeasible():
    # x <= 1 and x >= 2 cannot both hold
    res = solve_lp([1], prepare_rows([[1], [1]], ["<", ">"], [1, 2]), [0], [np.inf])
    assert res.status is LpStatus.INFEASIBLE
    assert res.objective is None


def test_infeasible_by_bounds():
    # row forces x = 5 but the upper bound is 1
    res = solve_lp([1], prepare_rows([[1]], ["="], [5]), [0], [1])
    assert res.status is LpStatus.INFEASIBLE


def test_unbounded():
    res = solve_lp([-1], prepare_rows([[1]], [">"], [0]), [0], [np.inf])
    assert res.status is LpStatus.UNBOUNDED


def test_nonzero_lower_bounds():
    # min x + y with x >= 2, y >= 3, x + y >= 6 -> objective 6
    res = solve_lp([1, 1], prepare_rows([[1, 1]], [">"], [6]), [2, 3], [np.inf, np.inf])
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(6)


def test_negative_bounds():
    # min x with -5 <= x <= -1 and x >= -3
    res = solve_lp([1], prepare_rows([[1]], [">"], [-3]), [-5], [-1])
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(-3)


def test_degenerate_vertex():
    # several redundant rows meet at the optimum
    res = solve_lp(
        c=[-1, -1],
        rows=prepare_rows([[1, 0], [1, 0], [0, 1], [1, 1]], ["<", "<", "<", "<"], [1, 1, 1, 2]),
        lower=[0, 0],
        upper=[np.inf, np.inf],
    )
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(-2)


def test_badly_scaled_rows():
    # same feasible set expressed at wildly different row scales
    res = solve_lp(
        c=[1, 1],
        rows=prepare_rows(
            [[60000.0, 60000.0], [0.00003, 0.00006]], [">", ">"], [120000.0, 0.00012]
        ),
        lower=[0, 0],
        upper=[np.inf, np.inf],
    )
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(2.0)


def test_row_free_problem():
    res = solve_lp([1, -1], prepare_rows(np.zeros((0, 2)), [], []), [0, 0], [4, 4])
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(-4)
    # a cost pulling toward an infinite bound with no row to stop it
    res = solve_lp([-1], prepare_rows(np.zeros((0, 1)), [], []), [0], [np.inf])
    assert res.status is LpStatus.UNBOUNDED
    assert res.objective is None


def test_timing_shape_lp():
    # one machine, two chained jobs with processing times 1 and 1,
    # job 1 due at 0.5 and job 2 due at 10:
    # min |C1-0.5| + |C2-10| s.t. C1 >= 1, C2 >= C1 + 1
    # optimum: C1 = 1 (half an hour late), C2 = 10 -> cost 0.5
    inf = np.inf
    c = [0, 0, 1, 1, 1, 1]  # C1 C2 E1 T1 E2 T2
    a = [
        [1, 0, 0, 0, 0, 0],
        [-1, 1, 0, 0, 0, 0],
        [1, 0, 1, 0, 0, 0],
        [-1, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 1, 0],
        [0, -1, 0, 0, 0, 1],
    ]
    senses = [">", ">", ">", ">", ">", ">"]
    b = [1, 1, 0.5, -0.5, 10, -10]
    res = solve_lp(c, prepare_rows(a, senses, b), [0] * 6, [inf] * 6)
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(0.5)
    assert res.x[0] == pytest.approx(1.0)
    assert res.x[1] == pytest.approx(10.0)


def test_warm_start_after_bound_change():
    c = [-1, -2, 0.5]
    a = [[1, 1, 1], [2, 1, 0]]
    senses = ["<", "<"]
    b = [4, 5]
    lower = [0.0, 0.0, 0.0]
    upper = [3.0, 2.0, 1.0]
    rows = prepare_rows(a, senses, b)
    cold = solve_lp(c, rows, lower, upper)
    assert cold.status is LpStatus.OPTIMAL

    # fix the first variable to 1 (as a branching step would) and re-solve
    lower2 = [1.0, 0.0, 0.0]
    upper2 = [1.0, 2.0, 1.0]
    warm = solve_lp(c, rows, lower2, upper2, start=cold.start)
    cold2 = solve_lp(c, rows, lower2, upper2)
    assert warm.status is cold2.status is LpStatus.OPTIMAL
    assert warm.objective == pytest.approx(cold2.objective)
    # a handed-over inverse in Fortran order is copied into the C order
    # that the rank-1 update writes through
    basis, at_up, binv = cold.start_with_binv
    for order in (binv, np.asfortranarray(binv)):
        again = solve_lp(c, rows, lower2, upper2, start=(basis, at_up, order))
        assert (again.status, again.objective) == (warm.status, warm.objective)


def test_warm_solve_leaves_its_token_unchanged():
    # a token is arrays, which a solve could write through; both children
    # of a branch-and-bound node start from their parent's token
    c = [-1, -2, 0.5]
    rows = prepare_rows([[1, 1, 1], [2, 1, 0]], "<<", [4, 5])
    cold = solve_lp(c, rows, [0.0, 0.0, 0.0], [3.0, 2.0, 1.0])
    assert cold.basis.dtype.kind == "i" and cold.at_up.dtype == bool
    for start in (cold.start, cold.start_with_binv):
        kept = [part.copy() for part in start]
        warm = solve_lp(c, rows, [1.0, 0.0, 0.0], [1.0, 2.0, 1.0], start=start)
        assert warm.status is LpStatus.OPTIMAL and warm.iterations > 0
        for part, copy in zip(start, kept):
            np.testing.assert_array_equal(part, copy)


# fixed columns: lo == up, so they cannot move and are never priced


@pytest.mark.parametrize("c, a, senses, b, lower, upper, fixed_col, pivots", [
    # x0 = 2 has the best reduced cost; pricing it swaps it into the
    # basis at a zero step before x2 enters
    ([-5, -1, -2], [[1, 1, 0], [0, 1, 1]], "<<", [2, 3], [2, 0, 0], [2, 10, 10], 0, 1),
    # the slack of x0 + x1 = 2 (column 2) leaves in phase 1, then
    # prices as improving under the phase-2 costs
    ([1, -1], [[1, 1], [1, -1]], "=<", [2, 0], [0, 0], [5, 5], 2, 3),
], ids=["fixed-structural", "equality-slack"])
def test_fixed_column_with_improving_cost_never_enters(c, a, senses, b, lower, upper,
                                                       fixed_col, pivots):
    res = solve_lp(c, prepare_rows(a, senses, b), lower, upper)
    assert res.status is LpStatus.OPTIMAL
    assert fixed_col not in res.basis
    assert not res.at_up[fixed_col]
    # one pivot fewer than when the fixed column is priced like any other
    assert res.iterations == pivots


@st.composite
def lp_with_fixed_columns(draw):
    c, a, senses, b, lower, upper = draw(random_lp())
    fixed = [draw(st.booleans()) for _ in c]
    values = [draw(st.sampled_from([-2, 0, 1, 3])) for _ in c]
    lower = [v if f else lo for lo, v, f in zip(lower, values, fixed)]
    upper = [v if f else up for up, v, f in zip(upper, values, fixed)]
    return c, a, senses, b, lower, upper, fixed


@settings(max_examples=250, deadline=None)
@given(lp_with_fixed_columns())
def test_fixed_columns_match_their_substitution(lp):
    c, a, senses, b, lower, upper, fixed = lp
    mine = solve_lp(c, prepare_rows(a, senses, b), lower, upper)

    keep = [j for j, f in enumerate(fixed) if not f]
    gone = [j for j, f in enumerate(fixed) if f]
    a_arr = np.array(a, dtype=float)
    rhs = np.array(b, dtype=float) - a_arr[:, gone] @ np.array([lower[j] for j in gone])
    offset = sum(c[j] * lower[j] for j in gone)
    sub = solve_lp([c[j] for j in keep], prepare_rows(a_arr[:, keep], senses, rhs),
                   [lower[j] for j in keep], [upper[j] for j in keep])

    assert mine.status is sub.status
    if mine.status is LpStatus.OPTIMAL:
        expected = sub.objective + offset
        assert abs(mine.objective - expected) <= 1e-7 * max(1.0, abs(expected))
        np.testing.assert_array_equal(mine.x[gone], [lower[j] for j in gone])


@pytest.mark.parametrize("relaxed", [(0.0, 5.0), (2.0, 5.0), (0.0, 2.0)],
                         ids=["both", "upper", "lower"])
def test_warm_token_with_fixed_nonbasic_column_survives_relaxing(relaxed):
    c = [-5, -1, -2]
    rows = prepare_rows([[1, 1, 0], [0, 1, 1]], "<<", [4, 3])
    fixed = solve_lp(c, rows, [2, 0, 0], [2, 10, 10])
    assert fixed.status is LpStatus.OPTIMAL
    assert 0 not in fixed.basis
    assert not fixed.at_up[0]

    lower, upper = [relaxed[0], 0, 0], [relaxed[1], 10, 10]
    cold = solve_lp(c, rows, lower, upper)
    assert cold.status is LpStatus.OPTIMAL
    for start in (fixed.start, fixed.start_with_binv):
        warm = solve_lp(c, rows, lower, upper, start=start)
        assert warm.status is LpStatus.OPTIMAL
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-9)
        # and back: the relaxed token warm-starts the fixed LP again
        again = solve_lp(c, rows, [2, 0, 0], [2, 10, 10], start=warm.start)
        assert again.objective == pytest.approx(fixed.objective, abs=1e-9)


# random cross-check against an independent LP solver (test-only dependency)

finite_entries = st.integers(min_value=-5, max_value=5)


@st.composite
def random_lp(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=1, max_value=5))
    c = [draw(finite_entries) for _ in range(n)]
    a = [[draw(finite_entries) for _ in range(n)] for _ in range(m)]
    senses = [draw(st.sampled_from("<=>")) for _ in range(m)]
    b = [draw(finite_entries) for _ in range(m)]
    lower = [draw(st.sampled_from([0, 0, 0, 1, -2])) for _ in range(n)]
    spans = [draw(st.sampled_from([0, 1, 2, 5, None])) for _ in range(n)]
    upper = [lo + s if s is not None else np.inf for lo, s in zip(lower, spans)]
    return c, a, senses, b, lower, upper


@settings(max_examples=250, deadline=None)
@given(random_lp())
# x = 0 is feasible and x3 = x4 -> inf is unbounded, but HiGHS with
# presolve reports this LP infeasible
@example(([0, 0, 0, -1, 0], [[0, 0, -1, -1, 1], [0, 0, 1, 1, -1]], ["<", "<"], [0, 1],
          [0, 0, 0, 0, 0], [0, 0, 1, np.inf, np.inf]))
def test_matches_independent_solver(lp):
    c, a, senses, b, lower, upper = lp
    mine = solve_lp(c, prepare_rows(a, senses, b), lower, upper)

    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row, sense, rhs in zip(a, senses, b):
        if sense == "<":
            a_ub.append(row)
            b_ub.append(rhs)
        elif sense == ">":
            a_ub.append([-v for v in row])
            b_ub.append(-rhs)
        else:
            a_eq.append(row)
            b_eq.append(rhs)

    def reference(cost):
        return linprog(
            cost,
            A_ub=np.array(a_ub) if a_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(a_eq) if a_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=list(zip(lower, upper)),
            method="highs",
        )

    ref = reference(c)
    if ref.status == 2 and reference([0] * len(c)).status == 0:
        # a feasible LP that HiGHS calls infeasible is an unbounded one
        assert mine.status is LpStatus.UNBOUNDED
    elif ref.status == 2:
        assert mine.status is LpStatus.INFEASIBLE
    elif ref.status == 3:
        assert mine.status is LpStatus.UNBOUNDED
    elif ref.status == 0:
        assert mine.status is LpStatus.OPTIMAL
        assert mine.objective == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
    else:
        pytest.skip(f"reference solver returned status {ref.status}")


def test_prepare_rows_writes_scaled_rows_and_slacks_into_one_buffer():
    # [A / scale | I] is written in place: no copy of A, no separate
    # identity and no concatenation on top of the result
    m, n = 500, 200
    a = np.random.default_rng(0).uniform(-4.0, 4.0, (m, n))
    tracemalloc.start()
    try:
        rows = prepare_rows(a, "<" * m, np.ones(m))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= rows.a_full.nbytes + a.nbytes + 2**20
    scale = np.abs(a).max(axis=1)
    np.testing.assert_array_equal(rows.a_full, np.hstack([a / scale[:, None], np.eye(m)]))


def test_zero_row_within_bound_tolerance():
    # an all-zero row scales by 1, so 0 <= -1e-10 sits inside the 1e-9
    # bound tolerance, while 0 <= -1 stays infeasible
    res = solve_lp([1], prepare_rows([[0.0]], ["<"], [-1e-10]), [0], [1])
    assert res.status is LpStatus.OPTIMAL
    res = solve_lp([1], prepare_rows([[0.0]], ["<"], [-1]), [0], [1])
    assert res.status is LpStatus.INFEASIBLE


@pytest.mark.parametrize("c, lower, upper, message", [
    ([1, 1], [0, 0], [np.nan, 1], "must not be NaN"),
    ([1, 1], [np.nan, 0], [4, 1], "must not be NaN"),
    ([np.nan, 1], [0, 0], [4, 1], "every cost must be finite"),
    ([np.inf, 1], [0, 0], [4, 1], "every cost must be finite"),
    ([1, 1], [0], [4, 1], "one bound per column"),
    ([1, 1], [0, 0], [4, 1, 2], "one bound per column"),
], ids=["upper-nan", "lower-nan", "cost-nan", "cost-inf", "lower-short", "upper-long"])
def test_bad_costs_and_bounds_are_refused(c, lower, upper, message):
    # min x + y s.t. x + y >= 4 would otherwise answer from a NaN bound or cost
    rows = prepare_rows([[1, 1]], [">"], [4])
    with pytest.raises(ValueError, match=message):
        solve_lp(c, rows, lower, upper)


def test_free_column_is_refused():
    # min x with x >= -3 as a row: x needs a finite bound of its own
    rows = prepare_rows([[1]], [">"], [-3])
    with pytest.raises(ValueError, match="finite lower or upper bound"):
        solve_lp([1], rows, [-np.inf], [np.inf])
    res = solve_lp([1], rows, [-5], [np.inf])
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(-3)


@st.composite
def refactor_cases(draw):
    """Prepared rows and a basis of k structural columns and m - k slacks."""
    m = draw(st.integers(min_value=0, max_value=7))
    n = draw(st.integers(min_value=1, max_value=7))
    k = draw(st.integers(min_value=0, max_value=min(m, n)))
    structural = draw(st.permutations(range(n)))[:k]
    slack_rows = draw(st.permutations(range(m)))[: m - k]
    basis = np.array(draw(st.permutations(structural + [n + i for i in slack_rows])), dtype=int)
    entries = st.floats(min_value=-4, max_value=4, allow_subnormal=False)
    a = np.array(draw(st.lists(entries, min_size=m * n, max_size=m * n))).reshape(m, n)
    senses = [draw(st.sampled_from("<=>")) for _ in range(m)]
    # a structural column that is zero on every row no slack covers
    # makes the nucleus exactly singular
    singular = k > 0 and draw(st.booleans())
    if singular:
        nucleus_rows = [i for i in range(m) if i not in slack_rows]
        a[nucleus_rows, structural[0]] = 0.0
    return prepare_rows(a, senses, np.zeros(m)), n, basis, singular


@settings(max_examples=300, deadline=None)
@given(refactor_cases())
@example((prepare_rows(np.zeros((0, 3)), [], []), 3, np.array([], dtype=int), False))
@example((prepare_rows([[2, 1], [1, 3], [0, 5]], "<=>", [0, 0, 0]), 2, np.array([4, 2, 3]), False))
@example((prepare_rows([[2, 1], [1, 3]], "<>", [0, 0]), 2, np.array([1, 0]), False))
def test_refactor_inverts_the_basis_from_its_nucleus(case):
    rows, n, basis, singular = case
    m = basis.shape[0]
    # the closed form relies on every slack column being exactly e_i
    assert np.array_equal(rows.a_full[:, n:], np.eye(m))
    if singular:
        with pytest.raises(SimplexError, match="singular basis"):
            _refactor(rows.a_full, basis)
        return
    b = rows.a_full[:, basis]
    assume(m == 0 or np.linalg.cond(b) < 1e6)
    binv = _refactor(rows.a_full, basis)
    assert binv.shape == (m, m)
    assert np.abs(binv @ b - np.eye(m)).max(initial=0.0) <= 1e-8
    if (basis >= n).all():
        # an all-slack basis is a permutation of I, inverted exactly
        assert np.array_equal(binv @ b, np.eye(m))


def _reference_ratio_test(xb, lob, upb, below, above, w, direction, lo_q, up_q, bland, basis):
    """The full-length ratio test the row-restricted one must match bit for bit."""
    dv = -direction * w
    m = xb.shape[0]

    best = np.inf
    if np.isfinite(lo_q) and np.isfinite(up_q):
        best = up_q - lo_q

    cand_theta = np.full(m, np.inf)
    cand_to = np.zeros(m, dtype=bool)

    moving = np.abs(w) > 1e-9
    dec = moving & (dv < 0)
    inc = moving & (dv > 0)

    feas = ~(below | above)

    sel = feas & dec & np.isfinite(lob)
    cand_theta[sel] = (xb[sel] - lob[sel]) / (-dv[sel])
    cand_to[sel] = False

    sel = feas & inc & np.isfinite(upb)
    cand_theta[sel] = (upb[sel] - xb[sel]) / dv[sel]
    cand_to[sel] = True

    sel = below & inc
    cand_theta[sel] = (lob[sel] - xb[sel]) / dv[sel]
    cand_to[sel] = False

    sel = above & dec
    cand_theta[sel] = (xb[sel] - upb[sel]) / (-dv[sel])
    cand_to[sel] = True

    cand_theta = np.maximum(cand_theta, 0.0)
    row_min = float(cand_theta.min()) if m else np.inf
    theta = min(best, row_min)
    if not np.isfinite(theta):
        return None, -1, False

    if row_min > theta + 1e-9:
        return theta, -1, False

    near = np.flatnonzero(cand_theta <= theta + 1e-9)
    if bland:
        pos = int(near[np.argmin(basis[near])])
    else:
        pos = int(near[np.argmax(np.abs(w[near]))])
    return float(cand_theta[pos]), pos, bool(cand_to[pos])


# small integers make exact ties, exact zeros in w and exact bound hits common
grid_values = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 1e-10, 0.5, 1.0, 2.0, 3.0])


@st.composite
def ratio_inputs(draw):
    m = draw(st.integers(min_value=0, max_value=8))
    lob = np.array([draw(st.sampled_from([-np.inf, -1.0, 0.0, 0.0, 1.0])) for _ in range(m)])
    upb = np.array([
        lo + draw(st.sampled_from([0.0, 1.0, 2.0, np.inf])) if np.isfinite(lo)
        else draw(st.sampled_from([-1.0, 0.0, np.inf]))
        for lo in lob
    ])
    xb = np.array([draw(grid_values) for _ in range(m)])
    w = np.array([draw(st.one_of(grid_values, st.floats(-3, 3))) for _ in range(m)])
    tol = 1e-9 * np.maximum(1.0, np.abs(np.where(np.isfinite(lob), lob, 0.0)))
    below = xb < lob - tol
    above = xb > upb + 1e-9 * np.maximum(1.0, np.abs(np.where(np.isfinite(upb), upb, 0.0)))
    direction = draw(st.sampled_from([1.0, -1.0]))
    lo_q = draw(st.sampled_from([-np.inf, 0.0, 0.0, -1.0]))
    up_q = lo_q + draw(st.sampled_from([0.5, 1.0, 3.0, np.inf]))
    bland = draw(st.booleans())
    basis = np.array(draw(st.permutations(range(2 * m)))[:m], dtype=int)
    return xb, lob, upb, below, above, w, direction, lo_q, up_q, bland, basis


@settings(max_examples=500, deadline=None)
@given(ratio_inputs())
def test_ratio_test_matches_full_length_reference(args):
    assert _ratio_test(*args) == _reference_ratio_test(*args)


@settings(max_examples=500, deadline=None)
@given(ratio_inputs())
def test_phase2_ratio_test_matches_reference_with_no_basic_out_of_bounds(args):
    xb, lob, upb, below, above, *rest = args
    none_out = np.zeros_like(below)
    assert _ratio_test(xb, lob, upb, None, None, *rest) == _reference_ratio_test(
        xb, lob, upb, none_out, none_out, *rest
    )


def _full_row_rank1_reference(binv, w, p):
    """The row-restricted update the block update must match."""
    row = binv[p] / w[p]
    nz = np.flatnonzero(w)
    binv[nz] -= w[nz, None] * row[None, :]
    binv[p] = row


# exact zeros of both signs make the sparsity of a real basis inverse
sparse_values = st.one_of(
    st.sampled_from([0.0, 0.0, 0.0, -0.0, 1.0, -0.5]),
    st.floats(-4, 4, allow_subnormal=False),
)


@st.composite
def rank1_inputs(draw):
    m = draw(st.integers(min_value=1, max_value=8))
    binv = np.array(draw(st.lists(sparse_values, min_size=m * m, max_size=m * m))).reshape(m, m)
    w = np.array(draw(st.lists(sparse_values, min_size=m, max_size=m)))
    p = draw(st.integers(min_value=0, max_value=m - 1))
    # the ratio test only pivots on |w_p| > 1e-9
    w[p] = draw(st.sampled_from([1.0, -2.0, 0.25, 3e-9, -7.5]))
    return binv, w, p


@settings(max_examples=500, deadline=None)
@given(rank1_inputs())
def test_block_rank1_update_matches_full_row_update(case):
    binv, w, p = case
    block, full = binv.copy(), binv.copy()
    _rank1_update(block, w, p)
    _full_row_rank1_reference(full, w, p)
    # equal values: bit-identical up to the sign of a zero, which no
    # comparison or later product can tell apart
    assert np.array_equal(block, full)


def _reference_entering(sgn, d, tol, bland):
    """Dantzig's rule on the eligibility masks, or Bland's first eligible column."""
    can_up = (sgn == -1.0) & (d < -tol)
    can_dn = (sgn == 1.0) & (d > tol)
    eligible = can_up | can_dn
    if not eligible.any():
        return -1
    if bland:
        return int(np.flatnonzero(eligible)[0])
    return int(np.argmax(np.where(eligible, np.abs(d), -1.0)))


@st.composite
def pricing_inputs(draw):
    total = draw(st.integers(min_value=1, max_value=10))
    tol = draw(st.sampled_from([1e-9, 1e-6]))
    # repeated magnitudes give ties; +-tol sits exactly on the boundary
    grid = [0.0, -0.0, tol, -tol, 2 * tol, -2 * tol, 1.0, -1.0, 3.0, -3.0]
    d = np.array(draw(st.lists(
        st.one_of(st.sampled_from(grid), st.floats(-5, 5)), min_size=total, max_size=total
    )))
    # -1 at the lower bound, +1 at the upper, 0 when basic or fixed
    sgn = np.array(draw(st.lists(
        st.sampled_from([-1.0, 1.0, 0.0]), min_size=total, max_size=total
    )))
    return sgn, d, tol, draw(st.booleans())


@settings(max_examples=1000, deadline=None)
@given(pricing_inputs())
@example((np.array([0.0, -1.0, 1.0]), np.array([-5.0, 0.0, -0.0]), 1e-9, False))
@example((np.array([-1.0, 1.0, -1.0]), np.array([-2.0, 2.0, -2.0]), 1e-9, False))
@example((np.array([1.0, -1.0]), np.array([1e-9, -1e-9]), 1e-9, True))
def test_sign_pricing_picks_the_reference_column(case):
    sgn, d, tol, bland = case
    q = _entering(sgn, d, tol, bland)
    assert q == _reference_entering(sgn, d, tol, bland)
    if q >= 0:
        # the entering column sits at a bound it can leave: a basic or
        # fixed column (sign 0) never enters
        assert sgn[q] in (-1.0, 1.0)


def _random_small_lp(rng):
    """2-4 integer rows over 2-4 columns at lower bound 0, some with no upper bound."""
    m, n = rng.integers(2, 5, size=2)
    a = rng.integers(-3, 4, size=(m, n))
    senses = "".join(rng.choice(list("<=>"), size=m))
    b = rng.integers(-3, 4, size=m)
    c = rng.integers(-3, 4, size=n)
    upper = rng.choice([1.0, 2.0, 5.0, np.inf], size=n)
    return c, prepare_rows(a, senses, b), np.zeros(n), upper


def test_a_handed_over_inverse_never_decides_the_verdict():
    # a warm start at the cold final basis, with an inverse that is not
    # that basis's inverse: the identity, or the true one with 30%
    # multiplicative noise.  Pivoting on a wrong inverse may stall or
    # wander, but the verdict must be the cold one
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(400):
        c, rows, lower, upper = _random_small_lp(rng)
        cold = solve_lp(c, rows, lower, upper)
        if cold.status is LpStatus.INFEASIBLE:
            continue
        m = rows.b.shape[0]
        noisy = _refactor(rows.a_full, cold.basis) * rng.uniform(0.7, 1.3, size=(m, m))
        for binv in (np.eye(m), noisy):
            warm = solve_lp(c, rows, lower, upper, start=(*cold.start, binv))
            assert warm.status is cold.status
            if cold.status is LpStatus.OPTIMAL:
                assert warm.objective == pytest.approx(cold.objective, abs=1e-6)
        checked += 1
    assert checked >= 150


def test_solve_lp_has_one_exit():
    # every verdict leaves through one _finish call, on a fresh inverse
    tree = ast.parse(inspect.getsource(simplex.solve_lp))
    finishes = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "_finish"
    ]
    assert len(finishes) == 1
