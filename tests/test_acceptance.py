"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Expected values marked as oracle-derived are recomputed in-test
from brute-force grids or exact symbolic expansion before the pipeline under
test is exercised.
"""

import math
import time

import numpy as np
import pytest

from convexcert import cli
from convexcert.certify import (
    PreorderingCertificate,
    QuadraticModuleCertificate,
    certify_stengle,
    verify_certificate,
)
from convexcert.moments import (
    MomentSequence,
    localizing_matrix,
    moment_matrix,
    monomial_basis,
    riesz_apply,
)
from convexcert.polynomials import (
    Polynomial,
    VariableSpace,
    coeff_linf_distance,
    lift,
    midpoint_substitute,
)
from convexcert.problemio import parse_problem
from convexcert.refute import (
    RelaxationResult,
    extract_atoms,
    rank_flatness_check,
    relaxation_orders,
    solve_relaxation,
    validate_witness,
)
from convexcert.sdp import SdpProblem, solve

from conftest import (
    BOX,
    DISK,
    HALFSPACE,
    INTERVAL,
    PARABOLA,
    TWO_INTERVAL,
    brute_force_midpoint_min,
    gram_certificate,
)
from test_sdp import random_strictly_feasible


def _report(n, message):
    print(f"ACCEPTANCE {n:02d} PASS: {message}")


def test_criterion_01_interval_certification():
    spec = parse_problem(INTERVAL)
    # oracle: the identity 1 - mid^2 = ((x-y)/2)^2 + g(x)/2 + g(y)/2 is exact
    g = spec.constraints[0]
    lifted = spec.space.lift()
    diff = (Polynomial.variable(lifted, 0) - Polynomial.variable(lifted, 1)) * 0.5
    oracle_rhs = diff * diff + 0.5 * lift(g, "x") + 0.5 * lift(g, "y")
    assert coeff_linf_distance(midpoint_substitute(g), oracle_rhs) <= 1e-12

    start = time.perf_counter()
    cert = gram_certificate(spec, 1, 1)
    elapsed = time.perf_counter() - start
    assert isinstance(cert, QuadraticModuleCertificate)
    assert cert.residual <= 1e-6
    for term in cert.terms:
        assert term.gram_spectrum()[0] >= -1e-8
    assert elapsed < 1.0
    assert verify_certificate(cert, spec).passed
    _report(1, f"interval certificate at d=1, residual {cert.residual:.2e}, {elapsed:.3f}s")


def test_criterion_02_disk_certification():
    spec = parse_problem(DISK)
    start = time.perf_counter()
    cert = gram_certificate(spec, 1, 1)
    elapsed = time.perf_counter() - start
    assert isinstance(cert, QuadraticModuleCertificate)
    assert cert.residual <= 1e-6
    for term in cert.terms:
        assert term.gram_spectrum()[0] >= -1e-8
    assert elapsed < 2.0
    assert verify_certificate(cert, spec).passed
    _report(2, f"disk certificate at d=1, residual {cert.residual:.2e}, {elapsed:.3f}s")


def test_criterion_03_halfspace_certification():
    spec = parse_problem(HALFSPACE)
    cert = gram_certificate(spec, 1, 1)
    assert isinstance(cert, QuadraticModuleCertificate)
    lifted = spec.space.lift()
    by_label = {t.label: t for t in cert.terms}
    sigma0 = by_label["sigma_0"].sos_polynomial(lifted)
    sigma0_linf = max((abs(c) for c in sigma0.terms.values()), default=0.0)
    sigma1 = by_label["sigma_1"].sos_polynomial(lifted).terms.get((0, 0), 0.0)
    psi1 = by_label["psi_1"].sos_polynomial(lifted).terms.get((0, 0), 0.0)
    assert sigma0_linf <= 1e-6
    assert abs(sigma1 - 0.5) <= 1e-4
    assert abs(psi1 - 0.5) <= 1e-4
    _report(3, f"halfspace sigma_0 linf {sigma0_linf:.2e}, sigma_1 {sigma1:.6f}, psi_1 {psi1:.6f}")


def test_criterion_04_parabola_refutation(tmp_path, capsys):
    spec = parse_problem(PARABOLA)
    oracle, _ = brute_force_midpoint_min(spec, 1, np.linspace(-1, 1, 41))
    assert oracle == pytest.approx(-1.0, abs=1e-12)

    start = time.perf_counter()
    result = solve_relaxation(spec, 1, 2)
    assert result.status == "optimal"
    assert -1.02 <= result.rho <= -0.95
    flatness = rank_flatness_check(result, spec)
    if flatness.flat:
        assert flatness.t == 2
        atoms = extract_atoms(result, flatness.t, seed=0)
        witness = validate_witness(atoms, spec, 1)
        assert witness is not None
        for atom in witness.atoms:
            assert math.dist(atom.midpoint, (0.0, 1.0)) <= 1e-2
            assert atom.violation <= -0.9
        detail = f"flat t=2, witness midpoints near (0,1), rho {result.rho:.4f}"
    else:
        problem_file = tmp_path / "parabola.txt"
        problem_file.write_text(PARABOLA)
        code = cli.main([str(problem_file), "--mode", "refute", "--max-order", "2"])
        capsys.readouterr()
        assert code == cli.EXIT_UNPROVEN_SIGNAL
        detail = f"flatness failed; rho {result.rho:.4f} in range, unproven-signal exit"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(4, f"parabola refutation: {detail}, {elapsed:.2f}s")


def test_criterion_05_two_interval_bound():
    spec = parse_problem(TWO_INTERVAL)
    oracle, _ = brute_force_midpoint_min(spec, 1, np.linspace(-2, 2, 81))
    assert oracle == pytest.approx(-1.0, abs=1e-12)
    result = solve_relaxation(spec, 1, 2)
    assert result.status == "optimal"
    assert -1.05 <= result.rho <= -0.95
    _report(5, f"two-interval rho {result.rho:.4f} in [-1.05, -0.95] (oracle {oracle})")


def test_criterion_06_synthetic_extraction_round_trip():
    rng = np.random.default_rng(2718)
    checked = 0
    for trial in range(100):
        space = VariableSpace(1).lift() if trial % 2 == 0 else VariableSpace(2).lift()
        t = int(rng.integers(1, 4))
        while True:
            pts = rng.uniform(-1, 1, size=(t, space.arity))
            if t == 1 or min(
                np.linalg.norm(a - b) for i, a in enumerate(pts) for b in pts[:i]
            ) >= 1e-2:
                break
        wts = rng.dirichlet(np.ones(t) * 4.0)
        z = MomentSequence.from_atoms(space, 2, pts, wts)
        result = RelaxationResult(j=1, s=2, status="optimal", rho=0.0, z=z)
        dummy = parse_problem(INTERVAL if space.n == 1 else BOX)
        flatness = rank_flatness_check(result, dummy)
        assert flatness.flat and flatness.t == t, f"trial {trial}"
        atoms = extract_atoms(result, t, seed=trial)
        used = set()
        for point, weight in atoms:
            dists = [np.linalg.norm(point - p) for p in pts]
            k = int(np.argmin(dists))
            assert k not in used
            used.add(k)
            assert dists[k] <= 1e-6, f"trial {trial}: atom error {dists[k]:.2e}"
            assert abs(weight - wts[k]) <= 1e-6, f"trial {trial}: weight error"
        checked += 1
    assert checked == 100
    _report(6, "100 synthetic measures: flatness detected, atoms and weights within 1e-6")


def test_criterion_07_moment_matrix_properties():
    rng = np.random.default_rng(314)
    for trial in range(200):
        space = VariableSpace(1).lift() if trial % 2 == 0 else VariableSpace(2).lift()
        t = int(rng.integers(1, 4))
        pts = rng.uniform(-1, 1, size=(t, space.arity))
        wts = rng.dirichlet(np.ones(t))
        order = 2
        theta_basis = monomial_basis(space, 1)
        theta = Polynomial(space, {e: rng.normal() for e in theta_basis})
        z = MomentSequence.from_atoms(space, order + 1, pts, wts)  # room for theta
        m = moment_matrix(z, order)
        norm = np.linalg.norm(m, 2)
        assert np.linalg.eigvalsh(m)[0] >= -1e-9 * max(1.0, norm)
        basis = monomial_basis(space, order)
        v = rng.normal(size=len(basis))
        p = Polynomial(space, {e: c for e, c in zip(basis, v)})
        lhs = float(v @ localizing_matrix(z, theta, order) @ v)
        rhs = riesz_apply(z, theta * p * p)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))
    _report(7, "200 random atomic sequences: PSD within 1e-9, localized forms match Riesz within 1e-8")


def test_criterion_08_solver_battery():
    rng = np.random.default_rng(1618)
    for trial in range(50):
        nblocks = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 31)) for _ in range(nblocks)]
        p = int(rng.integers(5, min(200, 3 * sum(dims)) + 1))
        problem = random_strictly_feasible(rng, dims, p)
        sol = solve(problem, tol=1e-8, max_iter=100)
        assert sol.status == "optimal", f"trial {trial}: {sol.status}"
        assert sol.relative_gap <= 1e-7, f"trial {trial}: gap {sol.relative_gap:.2e}"
        assert sol.iterations <= 100
    e12 = np.array([[0.0, 0.5], [0.5, 0.0]])
    for c in np.linspace(0.51, 0.99, 10):
        problem = SdpProblem([2], {}, [({0: np.eye(2)}, 1.0), ({0: e12}, float(c))])
        assert solve(problem).status == "infeasible", f"c={c}"
    _report(8, "50 strictly feasible SDPs solved to 1e-7 gap; 10 infeasible instances detected")


def test_criterion_09_stengle_interval():
    spec = parse_problem(INTERVAL)
    cert = certify_stengle(spec, 1, 2, p=1)
    assert isinstance(cert, PreorderingCertificate)
    assert cert.residual <= 1e-6
    assert verify_certificate(cert, spec).passed
    _report(9, f"preordering certificate at p=1, d=2, residual {cert.residual:.2e}")


CORPUS = {
    "interval": INTERVAL,
    "disk": DISK,
    "halfspace": HALFSPACE,
    "box": BOX,
    "parabola": PARABOLA,
    "two_interval": TWO_INTERVAL,
}


def _full_corpus():
    """The shipped problems/ directory when present, else the inline mirror."""
    from pathlib import Path

    problems_dir = Path(__file__).resolve().parent.parent / "problems"
    if problems_dir.is_dir():
        return {p.stem: p.read_text() for p in sorted(problems_dir.glob("*.txt"))}
    return CORPUS


def test_criterion_10_soundness_suite():
    certificates = 0
    witnesses = 0
    for name, text in _full_corpus().items():
        spec = parse_problem(text)
        v = relaxation_orders(spec)
        for j in range(1, spec.m + 1):
            certified = False
            refuted = False
            d_min = max(1, math.ceil(spec.constraints[j - 1].degree / 2))
            for d in (d_min, d_min + 1):
                outcome = gram_certificate(spec, j, d)
                if isinstance(outcome, QuadraticModuleCertificate):
                    check = verify_certificate(outcome, spec)
                    assert check.passed, f"{name} g{j} d={d}: emitted certificate failed recheck"
                    certified = True
                    certificates += 1
                    break
            for s in (v, v + 1):
                result = solve_relaxation(spec, j, s)
                if result.status != "optimal" or result.rho is None or result.rho >= -1e-6:
                    continue
                flatness = rank_flatness_check(result, spec)
                if not flatness.flat:
                    continue
                try:
                    atoms = extract_atoms(result, flatness.t, seed=0)
                except Exception:
                    continue
                witness = validate_witness(atoms, spec, j)
                if witness is None:
                    continue
                for atom in witness.atoms:
                    assert atom.feasibility_margin >= -1e-6
                    assert atom.violation <= -1e-5
                refuted = True
                witnesses += 1
                break
            assert not (certified and refuted), f"{name} g{j}: both certified and refuted"
    assert certificates >= 5  # interval, disk, halfspace, box x2
    assert witnesses >= 1  # parabola g1
    _report(10, f"soundness: {certificates} certificates verified, {witnesses} witnesses validated, no overlap")


def test_criterion_11_monotonicity_suite():
    # relaxation bounds are nondecreasing in s on the refutation examples
    for name, orders in (("parabola", (1, 2)), ("two_interval", (1, 2, 3))):
        spec = parse_problem(CORPUS[name])
        rhos = []
        for s in orders:
            result = solve_relaxation(spec, 1, s)
            assert result.status == "optimal", f"{name} s={s}"
            rhos.append(result.rho)
        for lo, hi in zip(rhos, rhos[1:]):
            assert hi >= lo - 1e-6, f"{name}: rho regressed {lo} -> {hi}"
    # certificate feasibility is preserved when the degree bound grows
    for name in ("interval", "disk", "halfspace", "box"):
        spec = parse_problem(CORPUS[name])
        for j in range(1, spec.m + 1):
            for d in (1, 2):
                cert = gram_certificate(spec, j, d)
                assert isinstance(cert, QuadraticModuleCertificate), f"{name} g{j} d={d}"
                assert verify_certificate(cert, spec).passed
    _report(11, "rho nondecreasing in s; certificates persist from d to d+1")
