import io

import numpy as np
import pytest

from convexcert import sdp
from convexcert.sdp import SdpProblem, _chol_lower, _Layout, _stack_problem, _svec, dump_sdp, solve


def _sym(rng, k):
    m = rng.normal(size=(k, k))
    return 0.5 * (m + m.T)


def random_strictly_feasible(rng, dims, p):
    """Primal and dual strictly feasible instance: bounded, solvable."""
    x0 = []
    s0 = []
    for k in dims:
        r = rng.normal(size=(k, k))
        x0.append(r @ r.T + 0.2 * np.eye(k))
        r = rng.normal(size=(k, k))
        s0.append(r @ r.T + 0.2 * np.eye(k))
    y0 = rng.normal(size=p)
    eqs = []
    amats = []
    for i in range(p):
        mats = {b: _sym(rng, k) for b, k in enumerate(dims)}
        rhs = sum(np.tensordot(mats[b], x0[b]) for b in range(len(dims)))
        eqs.append((mats, float(rhs)))
        amats.append(mats)
    objective = {}
    for b, k in enumerate(dims):
        c = s0[b].copy()
        for i in range(p):
            c = c + y0[i] * amats[i][b]
        objective[b] = c
    return SdpProblem(block_dims=list(dims), objective=objective, equalities=eqs)


# -- examples ---------------------------------------------------------------------


def test_scalar_equality():
    p = SdpProblem([1], {0: np.array([[1.0]])}, [({0: np.array([[1.0]])}, 1.0)])
    sol = solve(p)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.0, abs=1e-7)
    assert sol.X[0][0, 0] == pytest.approx(1.0, abs=1e-7)


def test_minimize_one_diagonal_entry():
    p = SdpProblem([2], {0: np.diag([1.0, 0.0])}, [({0: np.eye(2)}, 1.0)])
    sol = solve(p)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(0.0, abs=1e-6)
    assert sol.X[0][1, 1] == pytest.approx(1.0, abs=1e-6)


def test_offdiagonal_determinant_infeasible():
    # trace X = 1 with X12 = 0.6 needs X11*X22 >= 0.36, but X11*X22 <= 0.25;
    # the second instance embeds it in a 3x3 block whose first index X00 = 0
    # forces out, so its Farkas certificate is lifted back from the face; in
    # the third the trace row also reaches into the removed row and column
    # (10 X01), where -A^T y alone is not PSD. Each is solved alone and beside
    # two small feasible blocks (trace 1 each), which the solver merges with
    # it into one PSD block.
    e12 = np.array([[0.0, 0.5], [0.5, 0.0]])
    embed = np.zeros((3, 3))
    embed[1:, 1:] = e12
    reaching = np.diag([0.0, 1.0, 1.0])
    reaching[0, 1] = reaching[1, 0] = 5.0
    for rows in (
        [(np.eye(2), 1.0), (e12, 0.6)],
        [(np.diag([1.0, 0.0, 0.0]), 0.0), (np.diag([0.0, 1.0, 1.0]), 1.0), (embed, 0.6)],
        [(np.diag([1.0, 0.0, 0.0]), 0.0), (reaching, 1.0), (embed, 0.6)],
    ):
        k = len(rows[0][0])
        for extra in ([], [1, 2]):
            dims = [k] + extra
            eqs = [({0: m}, rhs) for m, rhs in rows] + [({b: np.eye(e)}, 1.0) for b, e in enumerate(extra, start=1)]
            assert _Layout(dims).merged == bool(extra)
            sol = solve(SdpProblem(dims, {}, eqs))
            assert sol.status == "infeasible"
            cert = sol.certificate
            assert cert["type"] == "primal-infeasibility"
            # A^T y + S = 0 with b^T y = 1 and S PSD, over every full block
            assert [s.shape for s in cert["S"]] == [(e, e) for e in dims]
            for b, s in enumerate(cert["S"]):
                aty = sum(y * mats[b] for y, (mats, _) in zip(cert["y"], eqs) if b in mats)
                assert np.max(np.abs(aty + s)) <= 1e-6
                assert np.linalg.eigvalsh(s)[0] >= -1e-8 * max(1.0, np.linalg.norm(s, 2))
            assert sum(y * rhs for y, (_, rhs) in zip(cert["y"], eqs)) == pytest.approx(1.0)


def test_offdiagonal_below_threshold_feasible():
    e12 = np.array([[0.0, 0.5], [0.5, 0.0]])
    p = SdpProblem([2], {}, [({0: np.eye(2)}, 1.0), ({0: e12}, 0.4)])
    sol = solve(p)
    assert sol.status == "optimal"
    x = sol.X[0]
    assert abs(np.trace(x) - 1.0) <= 1e-6
    assert abs(x[0, 1] - 0.4) <= 1e-6
    assert np.linalg.eigvalsh(x)[0] >= -1e-9


def test_negative_scalar_equality_infeasible():
    # one-signed diagonal weights against a right-hand side of the other sign
    for diagonal, rhs in (([1.0], -1.0), ([1.0, 2.0], -1.0), ([-1.0, 0.0, -3.0], 2.0)):
        p = SdpProblem([len(diagonal)], {}, [({0: np.diag(diagonal)}, rhs)])
        sol = solve(p)
        assert sol.status == "infeasible"
        assert sol.iterations == 0
        assert sol.certificate == {"type": "facial-reduction", "forcing_rows": [], "rows": [0]}


def test_trace_one_analytic_center():
    p = SdpProblem([2], {}, [({0: np.eye(2)}, 1.0)])
    sol = solve(p)
    assert sol.status == "optimal"
    assert np.max(np.abs(sol.X[0] - 0.5 * np.eye(2))) <= 1e-4


def test_empty_equalities_feasible():
    p = SdpProblem([2], {}, [])
    sol = solve(p)
    assert sol.status == "optimal"
    assert np.linalg.eigvalsh(sol.X[0])[0] >= -1e-12


def test_unbounded_detection():
    p = SdpProblem([2], {0: -np.eye(2)}, [])
    sol = solve(p)
    assert sol.status == "unbounded"
    assert sol.certificate["type"] == "unboundedness-ray"


def test_multi_block():
    p = SdpProblem(
        [1, 2],
        {0: np.array([[2.0]]), 1: np.eye(2)},
        [({0: np.array([[1.0]]), 1: np.eye(2)}, 2.0)],
    )
    sol = solve(p)
    assert sol.status == "optimal"
    total = sol.X[0][0, 0] + np.trace(sol.X[1])
    assert total == pytest.approx(2.0, abs=1e-6)


# -- input validation ------------------------------------------------------------------


def test_rejects_nonsymmetric():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    p = SdpProblem([2], {0: bad}, [])
    with pytest.raises(ValueError, match="^objective: block 0 matrix is not symmetric$"):
        solve(p)
    p = SdpProblem([2], {}, [({0: np.eye(2)}, 1.0), ({0: bad}, 1.0)])
    with pytest.raises(ValueError, match="^equality 1: block 0 matrix is not symmetric$"):
        solve(p)


def test_rejects_dimension_mismatch():
    p = SdpProblem([2], {0: np.eye(3)}, [])
    with pytest.raises(ValueError, match=r"^objective: block 0 matrix has shape \(3, 3\), expected \(2, 2\)$"):
        solve(p)


def test_rejects_block_index_out_of_range():
    p = SdpProblem([2, 1], {}, [({0: np.eye(2)}, 1.0), ({3: np.eye(1)}, 1.0)])
    with pytest.raises(ValueError, match="^equality 1: block index 3 out of range$"):
        solve(p)


def test_reports_first_failing_matrix():
    # Matrices are taken in order: the objective, then each equality, each in
    # its dict order. Equality 1's block 1 comes before equality 2's block 0,
    # though block 0 is stacked first.
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    eqs = [({0: np.eye(2)}, 1.0), ({0: np.eye(2), 1: skew}, 0.0), ({0: skew, 1: np.eye(3)}, 0.0)]
    p = SdpProblem([2, 2], {}, eqs)
    with pytest.raises(ValueError, match="^equality 1: block 1 matrix is not symmetric$"):
        solve(p)
    # a shape failure after a symmetry failure does not hide it
    eqs[1] = ({1: np.eye(2), 0: skew}, 0.0)
    with pytest.raises(ValueError, match="^equality 1: block 0 matrix is not symmetric$"):
        solve(SdpProblem([2, 2], {}, eqs))


def test_rejects_non_finite_data():
    nan = np.array([[1.0, np.nan], [np.nan, 1.0]])
    p = SdpProblem([2], {}, [({0: np.eye(2)}, 1.0), ({0: nan}, 1.0)])
    with pytest.raises(ValueError, match="^equality 1: block 0 matrix has a non-finite entry$"):
        solve(p)
    p = SdpProblem([2], {0: np.diag([np.inf, 1.0])}, [])
    with pytest.raises(ValueError, match="^objective: block 0 matrix has a non-finite entry$"):
        solve(p)
    eqs = [({0: np.eye(2)}, 1.0)] * 3 + [({0: np.eye(2)}, float("inf"))]
    with pytest.raises(ValueError, match="^equality 3: rhs is not finite$"):
        solve(SdpProblem([2], {}, eqs))


def test_rejects_missing_or_empty_blocks():
    for dims, message in (([], "^at least one PSD block is required$"),
                          ([0], "^block dimension must be positive, got 0$")):
        with pytest.raises(ValueError, match=message):
            solve(SdpProblem(dims, {}, []))


def test_validate_reports_what_solve_rejects():
    SdpProblem([2], {0: np.eye(2)}, [({0: np.eye(2)}, 1.0)]).validate()
    bad = SdpProblem([2], {}, [({0: np.eye(2)}, 1.0), ({0: np.eye(3)}, 1.0)])
    message = r"^equality 1: block 0 matrix has shape \(3, 3\), expected \(2, 2\)$"
    with pytest.raises(ValueError, match=message):
        bad.validate()
    with pytest.raises(ValueError, match=message):
        solve(bad)


def test_overflowing_data_reports_stalled():
    # finite data whose products overflow: a stalled status, not a LAPACK error
    p = SdpProblem([2], {0: 1e300 * np.eye(2)}, [({0: np.eye(2)}, 1.0)])
    with np.errstate(all="ignore"):
        sol = solve(p)
    assert sol.status == "stalled"
    assert sol.diagnostics["failure"] == "non-finite iterate"


def test_rejects_bad_tolerance():
    p = SdpProblem([1], {0: np.eye(1)}, [])
    with pytest.raises(ValueError):
        solve(p, tol=0.5)


# -- redundant and inconsistent rows -----------------------------------------------------


def test_max_iter_exhaustion_reports_stalled():
    rng = np.random.default_rng(1)
    problem = random_strictly_feasible(rng, [4], 6)
    sol = solve(problem, tol=1e-8, max_iter=1)
    assert sol.status == "stalled"
    full = solve(problem, tol=1e-8, max_iter=100)
    assert full.status == "optimal"


def test_zero_row_with_zero_rhs_dropped():
    p = SdpProblem([2], {}, [({0: np.eye(2)}, 1.0), ({0: np.zeros((2, 2))}, 0.0)])
    sol = solve(p)
    assert sol.status == "optimal"
    assert 1 in sol.diagnostics["dropped_rows"]


def test_zero_row_with_nonzero_rhs_infeasible():
    p = SdpProblem([2], {}, [({0: np.zeros((2, 2))}, 1.0)])
    sol = solve(p)
    assert sol.status == "infeasible"
    assert sol.iterations == 0
    assert sol.certificate["type"] == "facial-reduction"


def test_duplicate_rows_are_dropped():
    row = ({0: np.eye(2)}, 1.0)
    p = SdpProblem([2], {}, [row, ({0: np.eye(2)}, 1.0)])
    sol = solve(p)
    assert sol.status == "optimal"
    assert sol.diagnostics["dropped_rows"]


def test_inconsistent_duplicate_rows_infeasible():
    p = SdpProblem([2], {}, [({0: np.eye(2)}, 1.0), ({0: np.eye(2)}, 2.0)])
    sol = solve(p)
    assert sol.status == "infeasible"
    assert sol.certificate["type"] == "linear-inconsistency"


# -- random batteries ----------------------------------------------------------------------


def _two_block_draws():
    rng = np.random.default_rng(2024)
    for _ in range(12):
        nblocks = int(rng.integers(1, 3))
        dims = [int(rng.integers(2, 8)) for _ in range(nblocks)]
        p = int(rng.integers(1, 2 * sum(dims)))
        yield dims, random_strictly_feasible(rng, dims, p)


def _three_block_draws():
    # criterion 08's draw at sides 2..6: 1-3 blocks, small enough that the
    # solver often merges them into one PSD block (sdp.MERGE_MAX_SIDE)
    rng = np.random.default_rng(1)
    for _ in range(40):
        nblocks = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 7)) for _ in range(nblocks)]
        p = int(rng.integers(5, min(200, 3 * sum(dims)) + 1))
        yield dims, random_strictly_feasible(rng, dims, p)


def test_random_strictly_feasible_battery():
    for trial, (dims, problem) in enumerate([*_two_block_draws(), *_three_block_draws()]):
        sol = solve(problem, tol=1e-8, max_iter=100)
        assert sol.status == "optimal", f"trial {trial}: {sol.status}"
        assert sol.diagnostics["reduced_blocks"] == dims  # dense rows force nothing
        assert sol.relative_gap <= 1e-7
        # objective value must match <C, X> recomputed from the returned blocks
        recomputed = sum(
            np.tensordot(problem.objective[b], sol.X[b]) for b in range(len(dims))
        )
        scale = max(1.0, abs(recomputed))
        assert abs(sol.objective_value - recomputed) <= 1e-8 * scale
        for x in sol.X:
            norm = max(1.0, np.linalg.norm(x, 2))
            assert np.linalg.eigvalsh(x)[0] >= -10 * 1e-8 * norm


def test_tau_denominator_below_rounding_error():
    # Near the optimum of this instance the dtau denominator falls below the
    # rounding error of its two cancelling terms; taken at face value it sends
    # dtau far off and the solve stalls with residuals near 1.6e-8.
    problem = random_strictly_feasible(np.random.default_rng(290), [8], 20)
    sol = solve(problem, tol=1e-8)
    assert sol.status == "optimal"
    assert max(sol.primal_residual, sol.dual_residual, sol.relative_gap) <= 1e-8
    assert sol.iterations <= 15


def test_random_infeasible_battery():
    rng = np.random.default_rng(99)
    e12 = np.array([[0.0, 0.5], [0.5, 0.0]])
    for _ in range(6):
        c = float(rng.uniform(0.55, 0.95))
        p = SdpProblem([2], {}, [({0: np.eye(2)}, 1.0), ({0: e12}, c)])
        assert solve(p).status == "infeasible"


# -- dump format -------------------------------------------------------------------------


def test_dump_format():
    p = SdpProblem(
        [2, 1],
        {0: np.array([[1.0, 0.5], [0.5, 0.0]])},
        [({0: np.eye(2), 1: np.array([[2.0]])}, 3.0)],
    )
    buf = io.StringIO()
    dump_sdp(p, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "sdp 1"
    assert lines[1] == "blocks 2 1"
    assert lines[2] == "nconstraints 1"
    assert "c 0 0 0 1.0" in lines
    assert "c 0 0 1 0.5" in lines
    assert "b 0 3.0" in lines
    assert "a 0 0 0 0 1.0" in lines
    assert "a 0 1 0 0 2.0" in lines
    # only upper-triangular entries are emitted
    assert not any(line.startswith("a 0 0 1 0") for line in lines)


# -- blocks grouped by size --------------------------------------------------------------


def _permute_blocks(problem, order):
    """The same SDP with block order[i] moved to position i."""
    new_index = {old: new for new, old in enumerate(order)}
    return SdpProblem(
        block_dims=[problem.block_dims[old] for old in order],
        objective={new_index[b]: m for b, m in problem.objective.items()},
        equalities=[({new_index[b]: m for b, m in mats.items()}, rhs) for mats, rhs in problem.equalities],
    )


def test_solution_invariant_under_block_order():
    # repeated sizes and 1x1 blocks, so the solver stacks members of one size
    rng = np.random.default_rng(7)
    problem = random_strictly_feasible(rng, [5, 1, 1, 3, 5, 1, 3], 20)
    order = [1, 4, 3, 6, 0, 2, 5]  # also changes which size comes first
    sol = solve(problem)
    perm = solve(_permute_blocks(problem, order))
    assert sol.status == perm.status == "optimal"
    assert perm.objective_value == pytest.approx(sol.objective_value, abs=1e-7)
    assert np.max(np.abs(perm.y - sol.y)) <= 1e-7
    for new, old in enumerate(order):
        assert np.max(np.abs(perm.X[new] - sol.X[old])) <= 1e-7


def test_stacked_cholesky_falls_back_per_member():
    rng = np.random.default_rng(3)
    mats = []
    for _ in range(4):
        r = rng.normal(size=(3, 3))
        mats.append(r @ r.T + 0.1 * np.eye(3))
    mats[2] = np.diag([1.0, 0.0, 1.0])  # singular: the stacked call raises
    stack = np.stack(mats)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(stack)
    factors = _chol_lower(stack)
    assert factors.shape == stack.shape
    for i in (0, 1, 3):
        assert np.array_equal(factors[i], np.linalg.cholesky(mats[i]))
    assert np.allclose(factors[2] @ factors[2].T, mats[2], atol=1e-12)
    assert np.array_equal(factors[2], np.tril(factors[2]))


def test_stacked_rows_match_a_matrix_by_matrix_reference():
    # rows missing some blocks, and repeated sizes, so blocks and groups differ in order
    rng = np.random.default_rng(11)
    dims = [3, 1, 3, 2, 1]
    problem = random_strictly_feasible(rng, dims, 6)
    for i, (mats, _) in enumerate(problem.equalities):
        del mats[i % len(dims)]
    layout = _Layout(dims)
    a, b, c = _stack_problem(problem, layout)
    for i, (mats, rhs) in enumerate(problem.equalities):
        row = np.zeros(layout.total)
        for blk, mat in mats.items():
            row[layout.offsets[blk] : layout.offsets[blk] + layout.sizes[blk]] = _svec(mat)
        assert np.array_equal(a[i], row)
        assert b[i] == rhs
    # in the flat full-matrix layout, <A_i, X> is one dot product
    xs = [_sym(rng, k) for k in dims]
    flat = np.zeros(layout.flat)
    for block, x in zip(layout.blocks(flat), xs):
        block[...] = x
    rows = layout.unpack(a)
    for i, (mats, _) in enumerate(problem.equalities):
        expected = sum(np.tensordot(mat, xs[blk]) for blk, mat in mats.items())
        assert rows[i] @ flat == pytest.approx(expected, abs=1e-12)
    expected = sum(np.tensordot(mat, xs[blk]) for blk, mat in problem.objective.items())
    assert layout.unpack(c) @ flat == pytest.approx(expected, abs=1e-12)



# -- diagonal facial reduction ---------------------------------------------------------


def test_zero_diagonal_row_forces_indices_out():
    # X00 + X11 = 0 forces indices 0 and 1 out of the 3x3 block; the second
    # row and the objective also reach into the removed rows and columns
    a1 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 2.0]])
    c = np.array([[1.0, 2.0, 0.0], [2.0, 3.0, 1.0], [0.0, 1.0, 1.0]])
    rows = [np.diag([1.0, 1.0, 0.0]), a1]
    rhs = np.array([0.0, 2.0])
    sol = solve(SdpProblem([3], {0: c}, [({0: rows[0]}, 0.0), ({0: a1}, 2.0)]))
    assert sol.status == "optimal"
    assert sol.diagnostics["reduced_blocks"] == [1]
    assert 0 in sol.diagnostics["dropped_rows"] and sol.y[0] == 0.0
    x, s = sol.X[0], sol.S[0]
    assert np.all(x[:2, :] == 0.0) and np.all(x[:, :2] == 0.0)
    assert x[2, 2] == pytest.approx(1.0, abs=1e-8)
    assert sol.objective_value == pytest.approx(1.0, abs=1e-8)
    # S is C - A^T y off the face; the residuals are the full problem's, each
    # row scaled by its full norm
    slack = c - sol.y[0] * rows[0] - sol.y[1] * a1
    assert np.allclose(s[:2, :], slack[:2, :], atol=1e-12) and np.allclose(s[:, :2], slack[:, :2], atol=1e-12)
    norms = np.array([np.linalg.norm(m) for m in rows])
    primal = np.array([np.tensordot(m, x) for m in rows]) - rhs
    assert sol.primal_residual == pytest.approx(
        np.linalg.norm(primal / norms) / (1.0 + np.linalg.norm(rhs / norms)), rel=1e-3, abs=1e-15
    )
    assert sol.dual_residual == pytest.approx(
        np.linalg.norm(s - slack) / (1.0 + np.linalg.norm(c)), rel=1e-3, abs=1e-15
    )
    dual_obj = float(rhs @ sol.y)
    assert sol.relative_gap == pytest.approx(
        abs(sol.objective_value - dual_obj) / (1.0 + abs(sol.objective_value) + abs(dual_obj)), rel=1e-3, abs=1e-15
    )
    assert max(sol.primal_residual, sol.dual_residual, sol.relative_gap) <= 1e-8


def test_forcing_chain_ends_in_inconsistent_row():
    # round 1: X00 = 0; round 2: then 2 X01 + X11 = 0 reads X11 = 0; and
    # then 2 X12 = 1 has no live entry left
    rows = [
        (np.diag([1.0, 0.0, 0.0]), 0.0),
        (np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]), 0.0),
        (np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]), 1.0),
        (np.diag([0.0, 0.0, 1.0]), 1.0),
    ]
    sol = solve(SdpProblem([3], {}, [({0: m}, rhs) for m, rhs in rows]))
    assert sol.status == "infeasible"
    assert sol.iterations == 0
    assert sol.certificate == {"type": "facial-reduction", "forcing_rows": [0, 1], "rows": [2]}
    assert sol.diagnostics["reduced_blocks"] == [1]


def test_every_index_forced_out_leaves_zero():
    c = np.array([[1.0, -2.0], [-2.0, 1.0]])
    sol = solve(SdpProblem([2, 1], {0: c}, [({0: np.eye(2), 1: np.eye(1)}, 0.0)]))
    assert sol.status == "optimal"
    assert sol.iterations == 0
    assert sol.diagnostics["reduced_blocks"] == [0, 0]
    assert all(np.all(x == 0.0) for x in sol.X)
    assert np.array_equal(sol.S[0], c) and sol.objective_value == 0.0


# -- small blocks merged into one ------------------------------------------------------


def _blocked(monkeypatch, problem):
    """The same solve with no block merged."""
    with monkeypatch.context() as patch:
        patch.setattr(sdp, "MERGE_MAX_SIDE", 0)
        assert not _Layout(problem.block_dims).merged
        return solve(problem)


def test_merge_layout():
    # whole size groups, least total side first, while the merged side stays small
    assert _Layout([4, 3, 1, 1]).groups == [(9, [0])]
    assert _Layout([4, 3, 1, 1]).places == [(0, 9, 0), (0, 9, 4), (0, 9, 7), (0, 9, 8)]
    for dims in ([9, 6, 5, 5, 5], [19, 16, 15, 15, 15]):
        layout = _Layout(dims)
        assert not layout.merged
        assert layout.groups == [(dims[0], [0]), (dims[1], [1]), (dims[2], [2, 3, 4])]
    # one group alone stays as it is; a merged member joins the group of its side
    assert _Layout([1, 1, 1]).groups == [(1, [0, 1, 2])]
    assert _Layout([9, 5, 4]).groups == [(9, [0, 1])]
    # the blocks sit on the member's diagonal, and unpack leaves 0 between them
    layout = _Layout([2, 1, 3])
    member = layout.unpack(np.arange(1.0, layout.total + 1.0)).reshape(6, 6)
    for block, (lo, k) in zip(layout.blocks(member.ravel()), ((0, 2), (2, 1), (3, 3))):
        assert np.shares_memory(block, member) and np.array_equal(block, member[lo : lo + k, lo : lo + k])
        assert np.all(block != 0.0)
        assert np.all(np.delete(member[lo : lo + k], np.s_[lo : lo + k], axis=1) == 0.0)


@pytest.mark.parametrize("dims", [[2, 1, 1, 1], [4, 3, 1, 1], [3, 2, 1, 1, 1]])
def test_merged_solve_matches_blocked(monkeypatch, dims):
    problem = random_strictly_feasible(np.random.default_rng(sum(dims)), dims, sum(dims))
    assert _Layout(dims).groups == [(sum(dims), [0])]
    merged, blocked = solve(problem), _blocked(monkeypatch, problem)
    assert merged.status == blocked.status == "optimal"
    assert merged.iterations == blocked.iterations
    assert merged.objective_value == pytest.approx(blocked.objective_value, abs=1e-9)
    assert merged.diagnostics == blocked.diagnostics
    for xm, xb, sm, sb in zip(merged.X, blocked.X, merged.S, blocked.S):
        assert xm.shape == xb.shape == sm.shape == sb.shape
        assert np.max(np.abs(xm - xb)) <= 1e-6


def test_merged_solve_reports_reduced_blocks_per_block(monkeypatch):
    # X0_00 + X0_11 = 0 forces two indices out of block 0, and X2 = 0 empties
    # block 2; the other rows and the objective reach every block
    rng = np.random.default_rng(4)
    dims = [3, 2, 1, 1]
    objective = {b: np.eye(k) + 0.1 * _sym(rng, k) for b, k in enumerate(dims)}
    eqs = [({0: np.diag([1.0, 1.0, 0.0])}, 0.0), ({2: np.eye(1)}, 0.0)]
    eqs += [({b: np.eye(k) for b, k in enumerate(dims)}, 4.0), ({0: _sym(rng, 3), 1: _sym(rng, 2), 3: np.eye(1)}, 0.5)]
    problem = SdpProblem(dims, objective, eqs)
    merged, blocked = solve(problem), _blocked(monkeypatch, problem)
    assert merged.diagnostics["reduced_blocks"] == blocked.diagnostics["reduced_blocks"] == [1, 2, 0, 1]
    assert merged.status == blocked.status == "optimal"
    assert merged.iterations == blocked.iterations
    assert merged.objective_value == pytest.approx(blocked.objective_value, abs=1e-9)
    for xm, xb, k in zip(merged.X, blocked.X, dims):
        assert xm.shape == (k, k)
        assert np.max(np.abs(xm - xb)) <= 1e-6
    assert np.all(merged.X[0][:2, :] == 0.0) and np.all(merged.X[2] == 0.0)


def test_merged_unbounded_ray_is_lifted_per_block(monkeypatch):
    # -trace X0 falls without bound once X0_22 = 0 forces index 2 out; blocks
    # 1 and 2 are held by X1 + X2 = 1
    objective = {0: -np.eye(3), 1: np.eye(1), 2: 2.0 * np.eye(1)}
    eqs = [({0: np.diag([0.0, 0.0, 1.0])}, 0.0), ({1: np.eye(1), 2: np.eye(1)}, 1.0)]
    problem = SdpProblem([3, 1, 1], objective, eqs)
    assert _Layout([2, 1, 1]).merged  # the face's blocks
    for sol in (solve(problem), _blocked(monkeypatch, problem)):
        assert sol.status == "unbounded"
        ray = sol.certificate["X"]
        assert [x.shape for x in ray] == [(3, 3), (1, 1), (1, 1)]
        assert np.all(ray[0][2, :] == 0.0) and np.all(ray[0][:, 2] == 0.0)
        # an improving ray: PSD blocks, A X = 0 and <C, X> = -1
        assert all(np.linalg.eigvalsh(x)[0] >= -1e-8 for x in ray)
        for mats, _ in eqs:
            assert abs(sum(np.tensordot(m, ray[b]) for b, m in mats.items())) <= 1e-6
        assert sum(np.tensordot(c, ray[b]) for b, c in objective.items()) == pytest.approx(-1.0, abs=1e-6)
