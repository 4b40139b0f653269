import dataclasses
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexcert import refute, sdp
from convexcert.certify import _qmodule_program
from convexcert.moments import MomentSequence, moment_matrix, monomial_basis
from convexcert.polynomials import Polynomial, VariableSpace, _midpoint_form, _monomials
from convexcert.problemio import parse_problem
from convexcert.refute import (
    RELAXATION_TOL_CEILING,
    SAMPLE_POINTS,
    SAMPLE_RADII,
    ExtractionError,
    RelaxationResult,
    build_moment_sdp,
    extract_atoms,
    moment_radius,
    rank_flatness_check,
    relaxation_orders,
    sample_witness,
    solve_relaxation,
    validate_witness,
)

from conftest import BOX, DISK, INTERVAL, brute_force_midpoint_min

LIFTED1 = VariableSpace(1).lift()
LIFTED2 = VariableSpace(2).lift()
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def synthetic_result(space, order, points, weights):
    """RelaxationResult wrapping exact atomic moments (no solver involved)."""
    z = MomentSequence.from_atoms(space, order, points, weights)
    return RelaxationResult(j=1, s=order, status="optimal", rho=0.0, z=z)


# -- construction -----------------------------------------------------------------


def test_orders(interval_spec, parabola_spec):
    assert relaxation_orders(interval_spec) == 1
    assert relaxation_orders(parabola_spec) == 1


def test_build_interval_shape(interval_spec):
    problem = build_moment_sdp(interval_spec, 1, 1)
    # Gram blocks: sigma_0 even on (1, (x+y)/sqrt2) and odd on (x-y)/sqrt2, and
    # one constant block shared by sigma_1 and psi_1
    assert list(problem.block_dims) == [2, 1, 1]
    # one coefficient row per swap orbit of degree 1..2: {x, y}, {x^2, y^2}, xy
    assert len(problem.equalities) == 3
    # the row of {x, y} pairs the constant with (x+y)/sqrt2 in sigma_0's even block:
    # 1 * (x+y)/sqrt2 has coefficient 1/sqrt2 on x and on y, summed over the orbit
    mats, rhs = problem.equalities[0]
    assert rhs == 0.0 and set(mats) == {0}
    assert np.allclose(mats[0], [[0.0, np.sqrt(2.0)], [np.sqrt(2.0), 0.0]], rtol=0.0, atol=1e-15)


def test_build_rejects_small_order(interval_spec):
    with pytest.raises(ValueError):
        build_moment_sdp(interval_spec, 1, 0)


def test_objective_is_midpoint_image(interval_spec):
    problem = build_moment_sdp(interval_spec, 1, 1)
    # rhs are the coefficients of 1 - ((x+y)/2)^2 off the constant monomial,
    # summed over each swap orbit and listed at its first monomial
    rows = [(1, 0), (2, 0), (1, 1)]
    rhs = {gamma: b for gamma, (_mats, b) in zip(rows, problem.equalities)}
    assert rhs == pytest.approx({(1, 0): 0.0, (2, 0): -0.5, (1, 1): -0.5})
    # the objective is the constant row: sigma_0[0, 0] plus the constants of g_1(x)
    # and g_1(y), which share the block of the pair; the odd block has no constant
    constant_row, constant = _qmodule_program(interval_spec, 1, 1).to_sdp().equalities[0]
    assert constant == pytest.approx(1.0)
    assert set(problem.objective) == set(constant_row) == {0, 2}
    for blk, mat in constant_row.items():
        assert np.array_equal(problem.objective[blk], mat)
    assert np.array_equal(problem.objective[0], np.diag([1.0, 0.0]))
    assert np.array_equal(problem.objective[2], [[2.0]])


def test_hyperbola_order3_over_swap_orbits():
    hyperbola = parse_problem((PROBLEMS / "hyperbola.txt").read_text())
    problem = build_moment_sdp(hyperbola, 1, 3)
    # sigma_0 on the 35 monomials of degree <= 3 splits into 19 even and 16 odd
    # directions; the three (sigma_k, psi_k) pairs share one 15 x 15 block each
    assert list(problem.block_dims) == [19, 16, 15, 15, 15]
    # 110 swap orbits of the 210 monomials of degree <= 6, less the constant one
    assert len(problem.equalities) == 109
    result = solve_relaxation(hyperbola, 1, 3)
    assert result.status == "optimal"
    assert result.rho == pytest.approx(-1.5625, abs=1e-6)
    assert (result.diagnostics["blocks"], result.diagnostics["p"]) == ([19, 16, 15, 15, 15], 109)
    flatness = rank_flatness_check(result, hyperbola)
    assert flatness.flat and flatness.t == 4
    atoms = extract_atoms(result, flatness.t, seed=0)
    witness = validate_witness(atoms, hyperbola, 1)
    assert witness is not None and len(witness.atoms) == 4


def test_relaxation_moments_are_swap_symmetric(parabola_spec):
    result = solve_relaxation(parabola_spec, 1, 2)
    assert result.status == "optimal"
    z = result.z
    monomials = monomial_basis(LIFTED2, 4).elements
    assert len(z.values) == len(monomials)
    assert z.value((0, 0, 0, 0)) == 1.0
    for gamma in monomials:
        assert z.value(gamma) == z.value(gamma[2:] + gamma[:2])
    # the moments of the degree-1 monomials are not all equal: the swap is all that ties them
    assert len({round(z.value(e), 6) for e in monomials[1:5]}) > 1


# -- relaxations against grid oracles ------------------------------------------------


def test_parabola_relaxation_matches_grid_oracle(parabola_spec):
    oracle, pair = brute_force_midpoint_min(parabola_spec, 1, np.linspace(-1, 1, 41))
    assert oracle == pytest.approx(-1.0, abs=1e-12)
    result = solve_relaxation(parabola_spec, 1, 2)
    assert result.status == "optimal"
    assert -1.02 <= result.rho <= -0.95
    assert result.rho <= oracle + 1e-6  # lower bound property


def test_two_interval_relaxation(two_interval_spec):
    oracle, _ = brute_force_midpoint_min(two_interval_spec, 1, np.linspace(-2, 2, 81))
    assert oracle == pytest.approx(-1.0, abs=1e-12)
    result = solve_relaxation(two_interval_spec, 1, 2)
    assert result.status == "optimal"
    assert -1.05 <= result.rho <= -0.95


def test_convex_interval_bound_nonnegative(interval_spec):
    result = solve_relaxation(interval_spec, 1, 1)
    assert result.status == "optimal"
    assert result.rho >= -1e-6


def test_unbounded_relaxation_flagged():
    cubic = parse_problem((PROBLEMS / "cubic_halfline.txt").read_text())
    v = relaxation_orders(cubic)
    assert v == 2
    for s in (v, v + 1, v + 2):
        result = solve_relaxation(cubic, 1, s)
        assert result.status == "inconclusive-unbounded"
        assert result.rho is None and result.z is None
        # proven by the solver's presolve: sigma_0's odd block and all but one
        # index of the others are forced out, and a row is left reading 0 = 0.75
        diagnostics = result.diagnostics
        assert (diagnostics["solver_status"], diagnostics["iterations"]) == ("infeasible", 0)
        assert diagnostics["reduced_blocks"] == [1, 0, 1]


@pytest.mark.parametrize(
    "name, blocks, iterations",
    [("hyperbola", [9, 6, 5, 5, 5], 11), ("parabola", [9, 6, 5, 5, 5], 9), ("two_interval", [4, 2, 3, 3], 10)],
)
def test_presolve_leaves_feasible_relaxations_whole(name, blocks, iterations):
    # their rows force nothing out, so the order-2 solves run as before
    spec = parse_problem((PROBLEMS / f"{name}.txt").read_text())
    diagnostics = solve_relaxation(spec, 1, 2).diagnostics
    assert diagnostics["blocks"] == diagnostics["reduced_blocks"] == blocks
    assert (diagnostics["solver_status"], diagnostics["iterations"]) == ("optimal", iterations)


def test_empty_set_relaxation_infeasible():
    # -1 - x^2 >= 0 has no member: the Gram form is unbounded, so the moment
    # relaxation is infeasible
    empty = parse_problem("vars: x\ng: -1 - x^2\n")
    result = solve_relaxation(empty, 1, 1)
    assert result.status == "infeasible"
    assert result.rho is None and result.z is None


def test_stalled_relaxation_solved_once(monkeypatch):
    # x1^3 >= 0 at order 3 used to stall near 5e-3; its Gram program is now
    # proven infeasible by the solver's presolve, still in one call
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs["tol"])
        return original(*args, **kwargs)

    original = sdp.solve
    monkeypatch.setattr(sdp, "solve", counted)
    cubic = parse_problem((PROBLEMS / "cubic_halfline.txt").read_text())
    result = solve_relaxation(cubic, 1, 3)
    assert calls == [pytest.approx(1e-9)]
    assert result.status == "inconclusive-unbounded"
    assert result.diagnostics["iterations"] == 0
    assert result.diagnostics["solver_tol"] == pytest.approx(1e-9)


def _relabelled_stall(monkeypatch, **overrides):
    original = sdp.solve

    def stalled(*args, **kwargs):
        return dataclasses.replace(original(*args, **kwargs), status="stalled", **overrides)

    monkeypatch.setattr(sdp, "solve", stalled)


def test_stall_within_ceiling_accepted(interval_spec, monkeypatch):
    reference = solve_relaxation(interval_spec, 1, 1)
    _relabelled_stall(monkeypatch)
    result = solve_relaxation(interval_spec, 1, 1)
    assert result.status == "optimal"
    assert result.rho == reference.rho
    assert result.diagnostics["solver_status"] == "stalled"
    assert result.diagnostics["solver_tol"] == pytest.approx(1e-9)
    assert result.gram is not None


def test_stall_above_ceiling_stays_stalled(interval_spec, monkeypatch):
    _relabelled_stall(monkeypatch, primal_residual=10 * RELAXATION_TOL_CEILING)
    result = solve_relaxation(interval_spec, 1, 1)
    assert result.status == "stalled"
    assert result.rho is None and result.z is None


def test_random_interval_unions_match_oracle():
    # K = [-b, -a] U [a, b]: the worst midpoint pair is (t, -t), value -a^2.
    rng = np.random.default_rng(55)
    for _ in range(3):
        a = float(rng.uniform(0.5, 1.5))
        b = float(rng.uniform(a + 0.5, a + 2.0))
        spec = parse_problem(f"vars: x1\ng: x1^2 - {a * a}\ng: {b * b} - x1^2\n")
        oracle, _pair = brute_force_midpoint_min(spec, 1, np.linspace(-b, b, 161))
        assert oracle == pytest.approx(-a * a, abs=1e-9)
        result = solve_relaxation(spec, 1, 2)
        assert result.status == "optimal"
        assert result.rho <= oracle + 1e-6  # lower bound on the midpoint minimum
        assert result.rho >= oracle - 0.05 * max(1.0, abs(oracle))


def test_rho_monotone_in_order(parabola_spec, two_interval_spec):
    for spec, orders in ((parabola_spec, (1, 2)), (two_interval_spec, (1, 2, 3))):
        rhos = []
        for s in orders:
            res = solve_relaxation(spec, 1, s)
            assert res.status == "optimal"
            rhos.append(res.rho)
        for lo, hi in zip(rhos, rhos[1:]):
            assert hi >= lo - 1e-6


# -- flatness ---------------------------------------------------------------------------


def test_flatness_two_atoms():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, size=(2, 2))
    res = synthetic_result(LIFTED1, 2, pts, [0.5, 0.5])
    spec_dummy = _dummy_spec_1d()
    flat = rank_flatness_check(res, spec_dummy)
    assert flat.flat and flat.t == 2


def test_flatness_dirac():
    res = synthetic_result(LIFTED1, 2, [[0.3, -0.8]], [1.0])
    flat = rank_flatness_check(res, _dummy_spec_1d())
    assert flat.flat and flat.t == 1


def test_flatness_fails_for_many_atoms():
    # 8 atoms in 2 lifted variables: order-1 block (size 3) cannot carry rank 8
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, size=(8, 2))
    res = synthetic_result(LIFTED1, 2, pts, np.full(8, 1 / 8))
    flat = rank_flatness_check(res, _dummy_spec_1d())
    assert not flat.flat
    assert flat.rank_sv <= 3 < flat.rank_s


def _dummy_spec_1d():
    return parse_problem("vars: x1\ng: 1 - x1^2\n")


def test_numerical_rank_gating():
    from convexcert.refute import _numerical_rank

    clear = np.array([2.0, 1.0, 1e-9, 1e-10])
    rank, ambiguous = _numerical_rank(clear)
    assert rank == 2 and not ambiguous
    # values straddle the cutoff without a confident ratio gap
    soft = np.array([1.0, 1e-5, 5e-7])
    rank, ambiguous = _numerical_rank(soft)
    assert rank == 2 and ambiguous
    full = np.array([3.0, 2.0, 1.0])
    rank, ambiguous = _numerical_rank(full)
    assert rank == 3 and not ambiguous


# -- extraction ---------------------------------------------------------------------------


def test_extract_single_dirac():
    res = synthetic_result(LIFTED1, 1, [[2.0, 3.0]], [1.0])
    atoms = extract_atoms(res, 1)
    assert len(atoms) == 1
    point, weight = atoms[0]
    assert np.allclose(point, [2.0, 3.0], atol=1e-8)
    assert weight == pytest.approx(1.0, abs=1e-8)


def test_extract_two_weighted_atoms():
    res = synthetic_result(LIFTED1, 2, [[1.0, 0.0], [0.0, -1.0]], [0.3, 0.7])
    atoms = extract_atoms(res, 2)
    recovered = sorted(((tuple(np.round(p, 6)), w) for p, w in atoms), key=lambda t: t[0])
    assert np.allclose(recovered[0][0], (0.0, -1.0), atol=1e-8)
    assert recovered[0][1] == pytest.approx(0.7, abs=1e-8)
    assert np.allclose(recovered[1][0], (1.0, 0.0), atol=1e-8)
    assert recovered[1][1] == pytest.approx(0.3, abs=1e-8)


def test_extract_round_trip_batch():
    rng = np.random.default_rng(42)
    for trial in range(30):
        space = LIFTED1 if trial % 2 == 0 else LIFTED2
        t = int(rng.integers(1, 4))
        while True:
            pts = rng.uniform(-1, 1, size=(t, space.arity))
            if t == 1 or min(
                np.linalg.norm(a - b) for i, a in enumerate(pts) for b in pts[:i]
            ) >= 1e-2:
                break
        wts = rng.dirichlet(np.ones(t) * 5.0)
        res = synthetic_result(space, 2, pts, wts)
        flat = rank_flatness_check(res, _dummy_spec_1d() if space is LIFTED1 else _dummy_spec_2d())
        assert flat.flat and flat.t == t, f"trial {trial}"
        atoms = extract_atoms(res, t, seed=trial)
        assert len(atoms) == t
        matched = _match_atoms(atoms, pts, wts)
        assert matched <= 1e-6, f"trial {trial}: atom mismatch {matched}"


def _swap_paired_measure(rng, n):
    """Atoms (x, y) paired with (y, x) at equal weight, plus at most one atom x = y.

    Resampled until the t-th eigenvalue of the order-1 moment matrix is at
    least 1e-3: below that, moment noise of 1e-9 moves the atoms by more than
    1e-5 whatever the extraction method, as the inverse problem itself is ill
    conditioned there.
    """
    space = VariableSpace(n).lift()
    pairs, on_diagonal = int(rng.integers(1, n + 1)), int(rng.integers(0, 2))
    while True:
        half = rng.uniform(-1, 1, size=(pairs, 2 * n))
        diagonal = rng.uniform(-1, 1, size=(on_diagonal, n))
        pts = np.vstack([half, np.roll(half, n, axis=1), np.hstack([diagonal, diagonal])])
        mass = rng.dirichlet(np.ones(pairs + on_diagonal) * 5.0)
        wts = np.concatenate([mass[:pairs] / 2, mass[:pairs] / 2, mass[pairs:]])
        order_one = moment_matrix(MomentSequence.from_atoms(space, 1, pts, wts), 1)
        if np.linalg.eigvalsh(order_one)[-len(pts)] >= 1e-3:
            return space, pts, wts


def test_extract_swap_symmetric_perturbed_moments():
    # Relaxation moments are swap-symmetric (z_gamma = z_tau(gamma)) and carry
    # solver error: perturb every moment by up to 1e-9, equally on each orbit.
    # At most 2n + 1 atoms, so the order-1 moment matrix can carry them at s = 2.
    rng = np.random.default_rng(123)
    for trial in range(60):
        n = 1 if trial % 2 == 0 else 2
        space, pts, wts = _swap_paired_measure(rng, n)
        z = MomentSequence.from_atoms(space, 2, pts, wts)
        noise: dict = {}
        for i, exps in enumerate(monomial_basis(space, 4)):
            orbit = min(exps, exps[n:] + exps[:n])
            z.values[i] += noise.setdefault(orbit, rng.uniform(-1e-9, 1e-9))
        res = RelaxationResult(j=1, s=2, status="optimal", rho=0.0, z=z)
        flat = rank_flatness_check(res, _dummy_spec_1d() if n == 1 else _dummy_spec_2d())
        assert flat.flat and flat.t == len(pts), f"trial {trial}"
        atoms = extract_atoms(res, flat.t, seed=trial)
        assert len(atoms) == len(pts)
        matched = _match_atoms(atoms, pts, wts)
        assert matched <= 1e-5, f"trial {trial}: atom mismatch {matched}"


def _dummy_spec_2d():
    return parse_problem("vars: x1 x2\ng: 1 - x1^2\ng: 1 - x2^2\n")


def _match_atoms(atoms, pts, wts):
    worst = 0.0
    used = set()
    for point, weight in atoms:
        dists = [np.linalg.norm(point - p) for p in pts]
        k = int(np.argmin(dists))
        assert k not in used
        used.add(k)
        worst = max(worst, dists[k], abs(weight - wts[k]))
    return worst


def test_extraction_weights_sum_to_one():
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1, 1, size=(3, 4))
    res = synthetic_result(LIFTED2, 2, pts, [0.2, 0.5, 0.3])
    atoms = extract_atoms(res, 3)
    assert sum(w for _, w in atoms) == pytest.approx(1.0, abs=1e-8)


def test_extraction_failure_reported():
    # demanding more atoms than the moment matrix can support must fail cleanly
    res = synthetic_result(LIFTED1, 1, [[0.5, 0.5]], [1.0])
    with pytest.raises(ExtractionError):
        extract_atoms(res, 3)


# -- witness validation --------------------------------------------------------------------


def test_hyperbola_pipeline_four_atoms():
    hyper = parse_problem("vars: x1 x2\ng: x1*x2 - 1\ng: 4 - x1^2\ng: 4 - x2^2\n")
    oracle, _ = brute_force_midpoint_min(hyper, 1, np.linspace(-2, 2, 41))
    assert oracle == pytest.approx(-1.5625, abs=1e-12)
    shallow = solve_relaxation(hyper, 1, 2)
    assert shallow.status == "optimal"
    assert not rank_flatness_check(shallow, hyper).flat  # four atoms, rank-3 order-1 block
    deep = solve_relaxation(hyper, 1, 3)
    assert deep.status == "optimal"
    assert deep.rho == pytest.approx(oracle, abs=1e-3)
    flat = rank_flatness_check(deep, hyper)
    assert flat.flat and flat.t == 4
    atoms = extract_atoms(deep, flat.t, seed=0)
    witness = validate_witness(atoms, hyper, 1)
    assert witness is not None
    for atom in witness.atoms:
        assert abs(abs(atom.midpoint[0]) - 0.75) <= 1e-3
        assert abs(abs(atom.midpoint[1]) - 0.75) <= 1e-3
        assert atom.violation <= -1.5


def test_hyperbola_order_four_flat_at_default_tol():
    # Dual moments at the caller's 1e-8 leave a fifth singular value near 1e-3,
    # above the rank cutoff; the relaxation solves one decade tighter to be flat.
    hyper = parse_problem((PROBLEMS / "hyperbola.txt").read_text())
    result = solve_relaxation(hyper, 1, 4)
    assert result.status == "optimal"
    assert result.diagnostics["solver_tol"] == pytest.approx(1e-9)
    assert result.rho == pytest.approx(-1.5625, abs=1e-3)
    flat = rank_flatness_check(result, hyper)
    assert flat.flat and flat.t == 4
    atoms = extract_atoms(result, flat.t, seed=0)
    assert validate_witness(atoms, hyper, 1) is not None


def test_parabola_pipeline_produces_witness(parabola_spec):
    result = solve_relaxation(parabola_spec, 1, 2)
    flat = rank_flatness_check(result, parabola_spec)
    assert flat.flat and flat.t == 2
    atoms = extract_atoms(result, flat.t, seed=0)
    witness = validate_witness(atoms, parabola_spec, 1)
    assert witness is not None
    assert len(witness.atoms) == 2
    for atom in witness.atoms:
        assert atom.feasibility_margin >= -1e-6
        assert atom.violation <= -0.9
        assert np.allclose(atom.midpoint, (0.0, 1.0), atol=1e-2)
    assert sum(a.weight for a in witness.atoms) == pytest.approx(1.0, abs=1e-8)


def test_validate_drops_infeasible_atom(parabola_spec):
    good = np.array([1.0, 1.0, -1.0, 1.0])
    bad = good.copy()
    bad[0] = 1.01  # violates 1 - x1^2 by 2e-2 > tol_feas
    witness = validate_witness([(bad, 0.5), (good, 0.5)], parabola_spec, 1)
    assert witness is not None
    assert len(witness.atoms) == 1
    assert witness.atoms[0].weight == pytest.approx(1.0)


def test_validate_rejects_convex_candidates(interval_spec):
    # no pair of interval members has a midpoint outside; any candidate fails
    oracle, _ = brute_force_midpoint_min(interval_spec, 1, np.linspace(-1, 1, 101))
    assert oracle >= -1e-12
    candidates = [(np.array([1.0, -1.0]), 1.0), (np.array([0.5, -0.5]), 1.0)]
    assert validate_witness(candidates, interval_spec, 1) is None


def test_validate_rejects_non_finite_atoms(parabola_spec):
    # an evaluation that is NaN proves nothing, whichever side of a test it is on
    for point in ([np.nan, 1.0, -1.0, 1.0], [1.0, 1.0, np.inf, 1.0]):
        assert validate_witness([(np.array(point), 1.0)], parabola_spec, 1) is None


def test_validate_rejects_a_nan_behind_finite_constraint_values():
    # at x = (1e200, 1e200), g2 = 1e400 - 2e400 < 0 evaluates to inf - inf = NaN; a
    # min over the constraint values that skipped it would read g1's 1e200 as the margin
    spec = parse_problem("vars: x1 x2\ng: x1\ng: x1^2 - 2*x2^2\ng: x2^2 - 1")
    atom = np.array([1e200, 1e200, 1e200, -1e200])
    assert validate_witness([(atom, 1.0)], spec, 3) is None


def test_validate_rejects_weights_not_finite_and_positive(parabola_spec):
    good = np.array([1.0, 1.0, -1.0, 1.0])
    for weight in (0.0, -1.0, np.nan, np.inf):
        assert validate_witness([(good, weight)], parabola_spec, 1) is None
        witness = validate_witness([(good, weight), (good, 0.25)], parabola_spec, 1)
        assert [atom.weight for atom in witness.atoms] == [1.0]


def test_validate_rejects_near_zero_violation(interval_spec):
    # midpoint violation must clear the strict threshold, not merely be negative
    atoms = [(np.array([1.0, 1.0]), 1.0)]
    assert validate_witness(atoms, interval_spec, 1) is None


def test_validate_rejects_malformed_input(parabola_spec):
    atom = (np.array([1.0, 1.0, -1.0, 1.0]), 1.0)
    # the atoms are checked first, then the constraint index, then each atom's shape
    with pytest.raises(ValueError, match="^no atoms supplied$"):
        validate_witness([], parabola_spec, 9)
    for j in (0, 4):
        with pytest.raises(ValueError, match=rf"^constraint index {j} out of range 1\.\.3$"):
            validate_witness([atom], parabola_spec, j)
    with pytest.raises(ValueError, match=r"^atom has shape \(2,\), expected \(4,\)$"):
        validate_witness([atom, (np.array([1.0, 1.0]), 1.0)], parabola_spec, 1)


def test_extract_rejects_missing_moments_and_atom_count(interval_spec):
    result = solve_relaxation(interval_spec, 1, 2)
    with pytest.raises(ValueError, match="^need at least one atom$"):
        extract_atoms(result, 0)
    empty = dataclasses.replace(result, z=None)
    with pytest.raises(ValueError, match="^relaxation result carries no moment sequence$"):
        extract_atoms(empty, 1)


def test_witness_payload(parabola_spec):
    result = solve_relaxation(parabola_spec, 1, 2)
    flat = rank_flatness_check(result, parabola_spec)
    atoms = extract_atoms(result, flat.t, seed=0)
    witness = validate_witness(atoms, parabola_spec, 1)
    payload = witness.to_payload()
    assert payload["kind"] == "midpoint-violation"
    assert payload["constraint"] == 1
    assert len(payload["atoms"]) == 2
    assert set(payload["atoms"][0]) == {
        "x", "y", "weight", "midpoint", "violation", "feasibility_margin",
    }


# -- sampled witnesses ----------------------------------------------------------------

# a certify-convex-style ellipsoid cut by a half-space through its interior
ELLIPSOID = (
    "vars: x1 x2\n"
    "g: 1 - (0.9*x1 + 0.3*x2 - 0.1)^2 - (-0.2*x1 + 1.1*x2 + 0.2)^2\n"
    "g: 0.6*x1 - 0.8*x2 + 0.3\n"
)
THIN = "vars: x1 x2\ng: x1^2 - 1\ng: 1 - x1^2\ng: 1 - x2^2\n"  # two segments x1 = +-1


def _first_order_result(spec, j=1):
    v = relaxation_orders(spec)
    result = solve_relaxation(spec, j, v)
    assert result.status == "optimal"
    return result


def _both_draws(result):
    """The radii of the draw before any relaxation, and of the one sized from result's moments."""
    return [SAMPLE_RADII, (moment_radius(result),)]


@pytest.mark.parametrize("name", ["hyperbola", "parabola", "two_interval"])
def test_sampled_pair_lies_inside_the_set(name):
    spec = parse_problem((PROBLEMS / f"{name}.txt").read_text())
    result = _first_order_result(spec)
    for radii in _both_draws(result):
        witness = sample_witness(spec, 1, radii, seed=0)
        (atom,) = witness.atoms
        assert atom.weight == 1.0
        # every g_k > 0 at both points, evaluated exactly, with no tolerance
        assert atom.feasibility_margin > 0.0
        for g in spec.constraints:
            assert g.evaluate(np.array(atom.x)) > 0.0 and g.evaluate(np.array(atom.y)) > 0.0
        assert result.rho <= atom.violation + 1e-6  # rho is a lower bound
        assert atom.violation <= -10 * witness.tol_feas


def _exact_value(terms, point):
    """sum of coeff * prod(w_i ** e_i) over a term map, every float read as an exact rational."""
    w = [Fraction(v) for v in point]
    total = Fraction(0)
    for exps, coeff in terms.items():
        term = Fraction(coeff)
        for wi, e in zip(w, exps):
            term *= wi**e
        total += term
    return total


@pytest.mark.parametrize("name", ["hyperbola", "parabola", "two_interval"])
def test_sampled_witnesses_hold_in_exact_arithmetic(name):
    # both points strictly inside the set and the midpoint strictly outside,
    # with no rounding anywhere, for both draws at seeds 0-4
    spec = parse_problem((PROBLEMS / f"{name}.txt").read_text())
    for radii in _both_draws(_first_order_result(spec)):
        for seed in range(5):
            (atom,) = sample_witness(spec, 1, radii, seed=seed).atoms
            for point in (atom.x, atom.y):
                assert all(_exact_value(g.terms, point) > 0 for g in spec.constraints)
            midpoint = [(Fraction(a) + Fraction(b)) / 2 for a, b in zip(atom.x, atom.y)]
            assert _exact_value(spec.constraints[0].terms, midpoint) < 0


@pytest.mark.parametrize("scale", [1e-2, 1.0, 1e2])
def test_moment_sized_draw_refutes_at_any_scale(scale):
    # the box comes from the moments, so scaling the hyperbola scales the pair;
    # the order-1 draw yields a pair between the order-2 bound, which is the
    # true minimum, and half of it, with both points strictly inside
    s2 = repr(scale * scale)
    spec = parse_problem(f"vars: x1 x2\ng: x1*x2 - {s2}\ng: 4*{s2} - x1^2\ng: 4*{s2} - x2^2\n")
    first = _first_order_result(spec)
    witness = sample_witness(spec, 1, (moment_radius(first),), seed=0)
    (atom,) = witness.atoms
    assert first.rho <= atom.violation and 0.99 * first.rho < atom.violation  # order 1's bound is loose
    assert -1.5625 * scale * scale <= atom.violation <= 0.5 * -1.5625 * scale * scale
    assert atom.feasibility_margin > 0.0


@pytest.mark.parametrize("text", [INTERVAL, DISK, BOX, ELLIPSOID],
                         ids=["interval", "disk", "box", "ellipsoid"])
def test_convex_sets_yield_no_sampled_witness(text):
    spec = parse_problem(text)
    for j in range(1, spec.m + 1):
        radii = SAMPLE_RADII + (moment_radius(_first_order_result(spec, j)),)
        for seed in range(3):
            assert sample_witness(spec, j, radii, seed=seed) is None


def test_set_without_sampled_members_validates_nothing(monkeypatch):
    spec = parse_problem(THIN)
    result = _first_order_result(spec)
    assert result.rho < -0.5

    def no_validation(*args, **kwargs):
        raise AssertionError("validated a pair of a set with no sampled member")

    monkeypatch.setattr(refute, "validate_witness", no_validation)
    radii = SAMPLE_RADII + (moment_radius(result),)
    for seed in range(3):
        assert sample_witness(spec, 1, radii, seed=seed) is None


def test_sample_witness_is_deterministic():
    spec = parse_problem((PROBLEMS / "hyperbola.txt").read_text())
    for radii in _both_draws(_first_order_result(spec)):
        first = sample_witness(spec, 1, radii, seed=5).to_payload()
        assert sample_witness(spec, 1, radii, seed=5).to_payload() == first
        assert sample_witness(spec, 1, radii, seed=6).to_payload() != first


def test_a_shared_generator_continues_its_stream():
    spec = parse_problem((PROBLEMS / "parabola.txt").read_text())
    rng = np.random.default_rng([5, 1])
    first = sample_witness(spec, 1, (1.0,), seed=rng).to_payload()
    assert sample_witness(spec, 1, (1.0,), seed=5).to_payload() == first  # an int seeds (seed, j)
    assert sample_witness(spec, 1, (1.0,), seed=rng).to_payload() != first  # fresh points


def _reference_pair(spec, j, radii=SAMPLE_RADII, seed=0):
    """The pair sample_witness must return, found by a loop over every unordered member pair.

    The same draw as the sampler's; each pair is scored by Polynomial.evaluate
    at its midpoint, and the first least score wins, so a NaN never does. The
    best negative pair of a radius is offered to validate_witness as the
    sampler offers it; None when no radius yields an accepted one.
    """
    g = spec.constraints[j - 1]
    rng = np.random.default_rng([seed, j])
    for radius in radii:
        points = rng.uniform(-radius, radius, size=(SAMPLE_POINTS, spec.n))
        members = [p for p in points if all(gk.evaluate(p) > 0.0 for gk in spec.constraints)]
        best, pair = 0.0, None
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                value = g.evaluate(0.5 * (members[a] + members[b]))
                if value < best:
                    best, pair = value, np.concatenate([members[a], members[b]])
        if pair is None:
            continue
        witness = validate_witness([(pair, 1.0)], spec, j)
        if witness is not None and witness.atoms[0].feasibility_margin >= 0.0:
            return pair
    return None


def _refute_nonconvex_texts(seed):
    """The problem texts of the benchmark's refute-nonconvex workload at seed, by instance id."""
    path = PROBLEMS.parent / "perfbench" / "workloads.py"
    source = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[source.name] = importlib.util.module_from_spec(source)  # dataclasses look it up
    source.loader.exec_module(workloads)
    return {inst.ident: inst.text for inst in workloads.refute_nonconvex(PROBLEMS.parent, seed)}


REFUTE_TEXTS = {
    **{name: (PROBLEMS / f"{name}.txt").read_text()
       for name in ("hyperbola", "parabola", "two_interval", "cubic_halfline")},
    **_refute_nonconvex_texts(1),
}


@pytest.mark.parametrize("name", sorted(REFUTE_TEXTS))
def test_sampled_pair_is_the_best_pair_by_direct_evaluation(name):
    spec = parse_problem(REFUTE_TEXTS[name])
    expected = _reference_pair(spec, 1)
    witness = sample_witness(spec, 1, seed=0)
    if expected is None:
        assert witness is None
    else:
        (atom,) = witness.atoms
        assert np.array_equal(np.concatenate([atom.x, atom.y]), expected)


# magnitudes far from underflow, so that no product of them is subnormal
def _floats(bound):
    return st.floats(min_value=-bound, max_value=bound, allow_nan=False).filter(lambda v: v == 0.0 or abs(v) >= 1e-3)


def _base_polynomial(n):
    exps = st.tuples(*[st.integers(min_value=0, max_value=4) for _ in range(n)]).filter(lambda e: sum(e) <= 4)
    return st.dictionaries(exps, _floats(10), min_size=1, max_size=6).map(lambda d: Polynomial(VariableSpace(n), d))


@st.composite
def _polynomial_and_points(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    g = draw(_base_polynomial(n))
    coords = _floats(3)
    points = draw(st.lists(st.lists(coords, min_size=n, max_size=n), min_size=1, max_size=5))
    return g, np.array(points)


@settings(max_examples=100, deadline=None)
@given(_polynomial_and_points())
def test_polarized_scores_match_midpoint_evaluation(case):
    # Phi M Phi^T against g at every midpoint, exactly in rationals; the error
    # is bounded by the scale sum_a |c_a| max|x|^|a| of the terms it sums
    g, points = case
    halves, form = _midpoint_form(g)
    phi = _monomials(points, halves)
    scores = phi @ form @ phi.T
    peak = float(np.max(np.abs(points)))
    scale = sum(abs(c) * peak ** sum(e) for e, c in g.terms.items())
    for a in range(len(points)):
        for b in range(len(points)):
            midpoint = [(Fraction(u) + Fraction(v)) / 2 for u, v in zip(points[a], points[b])]
            assert abs(Fraction(scores[a, b]) - _exact_value(g.terms, midpoint)) <= 1e-12 * scale


def test_a_nan_score_never_wins(monkeypatch):
    spec = parse_problem((PROBLEMS / "parabola.txt").read_text())
    (atom,) = sample_witness(spec, 1, (1.0,), seed=0).atoms
    best = np.array(atom.x)

    def nan_for_the_best(points, exponents):
        phi = _monomials(points, exponents)
        phi[np.all(points == best, axis=1)] = np.nan  # every pair of that member scores NaN
        return phi

    monkeypatch.setattr(refute, "_monomials", nan_for_the_best)
    (other,) = sample_witness(spec, 1, (1.0,), seed=0).atoms
    assert best.tolist() not in (list(other.x), list(other.y))
    assert other.violation >= atom.violation


def test_an_all_nan_radius_moves_on_without_raising(monkeypatch):
    spec = parse_problem((PROBLEMS / "parabola.txt").read_text())
    calls = []

    def nan_at_first(points, exponents):
        calls.append(len(points))
        phi = _monomials(points, exponents)
        return phi * np.nan if len(calls) == 1 else phi

    monkeypatch.setattr(refute, "_monomials", nan_at_first)
    witness = sample_witness(spec, 1, (1.0, 1.0), seed=0)  # the second radius refutes
    assert len(calls) == 2 and witness is not None

    def no_validation(*args, **kwargs):
        raise AssertionError("validated a pair scored NaN")

    monkeypatch.setattr(refute, "_monomials", lambda points, exponents: np.full((len(points), len(exponents)), np.nan))
    monkeypatch.setattr(refute, "validate_witness", no_validation)
    assert sample_witness(spec, 1, seed=0) is None
