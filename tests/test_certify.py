from pathlib import Path

import numpy as np
import pytest

from convexcert.certify import (
    ArchimedeanCertificate,
    CertificationFailure,
    PreorderingCertificate,
    QuadraticModuleCertificate,
    SosTerm,
    _qmodule_program,
    archimedean_check,
    certify_stengle,
    verify_certificate,
)
from convexcert.moments import monomial_basis
from convexcert.polynomials import (
    Polynomial,
    coeff_linf_distance,
    lift,
    midpoint_substitute,
)
from convexcert.problemio import parse_problem
from convexcert.refute import RelaxationResult

from conftest import gram_certificate

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def test_interval_identity_oracle(interval_spec):
    # 1 - ((x+y)/2)^2 == ((x-y)/2)^2 + (1/2)g(x) + (1/2)g(y), exactly.
    g = interval_spec.constraints[0]
    lifted = interval_spec.space.lift()
    x = Polynomial.variable(lifted, 0)
    y = Polynomial.variable(lifted, 1)
    half_diff = (x - y) * 0.5
    rhs = half_diff * half_diff + 0.5 * lift(g, "x") + 0.5 * lift(g, "y")
    assert coeff_linf_distance(midpoint_substitute(g), rhs) <= 1e-12


def test_disk_identity_oracle(disk_spec):
    g = disk_spec.constraints[0]
    lifted = disk_spec.space.lift()
    rhs = 0.5 * lift(g, "x") + 0.5 * lift(g, "y")
    for i in range(2):
        xi = Polynomial.variable(lifted, i)
        yi = Polynomial.variable(lifted, 2 + i)
        half_diff = (xi - yi) * 0.5
        rhs = rhs + half_diff * half_diff
    assert coeff_linf_distance(midpoint_substitute(g), rhs) <= 1e-12


def test_qmodule_sdp_shape(interval_spec):
    problem = _qmodule_program(interval_spec, 1, 1).to_sdp()
    # sigma_0 even on (1, (x+y)/sqrt2), odd on (x-y)/sqrt2, and sigma_1 = psi_1 swapped
    assert list(problem.block_dims) == [2, 1, 1]
    # one row per swap orbit of the monomials of degree <= 2: 1, {x, y}, {x^2, y^2}, xy
    assert len(problem.equalities) == 4


def test_qmodule_degree_too_small(interval_spec):
    with pytest.raises(ValueError):
        _qmodule_program(interval_spec, 1, 0).to_sdp()


def test_interval_certificate(interval_spec):
    cert = gram_certificate(interval_spec, 1, 1)
    assert isinstance(cert, QuadraticModuleCertificate)
    assert cert.residual <= 1e-6
    assert cert.min_gram_eigenvalue >= -1e-8
    check = verify_certificate(cert, interval_spec)
    assert check.passed


def test_disk_certificate(disk_spec):
    cert = gram_certificate(disk_spec, 1, 1)
    assert isinstance(cert, QuadraticModuleCertificate)
    assert cert.residual <= 1e-6
    assert verify_certificate(cert, disk_spec).passed


def test_halfspace_certificate_recovers_half_multipliers(halfspace_spec):
    cert = gram_certificate(halfspace_spec, 1, 1)
    assert isinstance(cert, QuadraticModuleCertificate)
    lifted = halfspace_spec.space.lift()
    by_label = {t.label: t for t in cert.terms}
    sigma0 = by_label["sigma_0"].sos_polynomial(lifted)
    assert max((abs(c) for c in sigma0.terms.values()), default=0.0) <= 1e-6
    sigma1 = by_label["sigma_1"].sos_polynomial(lifted)
    psi1 = by_label["psi_1"].sos_polynomial(lifted)
    assert sigma1.terms.get((0, 0), 0.0) == pytest.approx(0.5, abs=1e-4)
    assert psi1.terms.get((0, 0), 0.0) == pytest.approx(0.5, abs=1e-4)


def test_parabola_not_certifiable(parabola_spec):
    # the best bound rho stays far below 0, so no degree-d identity exists
    for d in (1, 2, 3):
        outcome = gram_certificate(parabola_spec, 1, d)
        assert isinstance(outcome, RelaxationResult), f"d={d}"
        assert outcome.status == "optimal" and outcome.rho < -0.5, f"d={d}"


def test_box_certificates(box_spec):
    for j in (1, 2):
        cert = gram_certificate(box_spec, j, 1)
        assert isinstance(cert, QuadraticModuleCertificate)
        assert verify_certificate(cert, box_spec).passed


def test_monotone_in_degree(interval_spec, disk_spec):
    for spec in (interval_spec, disk_spec):
        for d in (1, 2):
            cert = gram_certificate(spec, 1, d)
            assert isinstance(cert, QuadraticModuleCertificate), f"d={d}"
            assert verify_certificate(cert, spec).passed


# -- verification is solver-independent -------------------------------------------------


def _every_kind(interval_spec, disk_spec):
    """(certificate, spec) of each kind: quadratic-module and preordering on
    interval, archimedean on disk with M = 2."""
    return [
        (gram_certificate(interval_spec, 1, 1), interval_spec),
        (certify_stengle(interval_spec, 1, 2, p=1), interval_spec),
        (archimedean_check(disk_spec, 2.0, 1), disk_spec),
    ]


# to_payload() keys per kind, as docs/formats.md lists them; a report adds `verification`
PAYLOAD_KEYS = {
    "quadratic-module": {"kind", "constraint", "degree", "epsilon", "residual", "min_gram_eigenvalue",
                         "solver", "terms"},
    "preordering": {"kind", "constraint", "degree", "power", "residual", "min_gram_eigenvalue",
                    "solver", "sigma_terms", "h_terms"},
    "archimedean": {"kind", "bound", "degree", "residual", "min_gram_eigenvalue", "solver", "terms"},
}


def test_payload_keys_are_the_documented_ones(interval_spec, disk_spec):
    kinds = {QuadraticModuleCertificate: "quadratic-module", PreorderingCertificate: "preordering",
             ArchimedeanCertificate: "archimedean"}
    for cert, _spec in _every_kind(interval_spec, disk_spec):
        payload = cert.to_payload()
        assert payload["kind"] == kinds[type(cert)]
        assert set(payload) == PAYLOAD_KEYS[payload["kind"]]
        assert (payload["residual"], payload["min_gram_eigenvalue"]) == (
            cert.residual, cert.min_gram_eigenvalue)
        assert payload["solver"] == cert.solver_diagnostics
        for key in ("terms", "sigma_terms", "h_terms"):
            for term in payload.get(key, []):
                assert set(term) == {"label", "weight", "basis", "gram"}


def test_gram_spectrum_of_bad_data_is_minus_infinity(interval_spec):
    term = SosTerm("sigma_0", Polynomial.constant(interval_spec.space, 1.0), ((0,), (1,)), np.diag([-2.0, 3.0]))
    assert term.gram_spectrum() == (-2.0, 3.0)
    # a malformed matrix, or one with a NaN entry (where eigvalsh returns finite values)
    for gram in (np.full((2, 3), 1.0), np.array([[np.nan, 0.0], [0.0, 1.0]])):
        term.gram = gram
        assert term.gram_spectrum() == (float("-inf"), 1.0)


def test_verify_detects_perturbed_gram(interval_spec, disk_spec):
    for cert, spec in _every_kind(interval_spec, disk_spec):
        kind = type(cert).__name__
        # the builder's own recheck passed and holds both numbers
        assert cert.check.passed, kind
        assert cert.residual == cert.check.residual, kind
        assert cert.min_gram_eigenvalue == min(cert.check.gram_eigenvalues.values()), kind
        term = cert.terms[0]
        gram = term.gram.copy()
        gram[0, 0] += 1e-3
        term.gram = gram
        check = verify_certificate(cert, spec)
        assert check.residual > 1e-4, kind
        assert not check.passed, kind
        # the kept check is the builder's, and verify_certificate recomputes
        assert cert.check.passed, kind


def test_verify_never_raises_on_degenerate_certificate(interval_spec, disk_spec):
    empty = QuadraticModuleCertificate(j=1, d=1, terms=[])
    check = verify_certificate(empty, interval_spec)
    # reconstruction misses the target 1 - ((x+y)/2)^2, whose constant coefficient is 1
    assert check.residual >= 1.0
    assert not check.passed
    # an empty preordering identity misses g_mid^2 = (1 - ((x+y)/2)^2)^2, whose
    # constant coefficient is 1; an empty bounding identity misses 2 - |x|^2
    empty_sides = PreorderingCertificate(j=1, d=2, p=1, sigma_terms=[], h_terms=[])
    empty_bound = ArchimedeanCertificate(bound=2.0, d=1, terms=[])
    for cert, spec, floor in ((empty_sides, interval_spec, 1.0), (empty_bound, disk_spec, 2.0)):
        check = verify_certificate(cert, spec)
        assert check.residual >= floor
        assert not check.passed
    # a Gram matrix that cannot be decomposed, one with a NaN entry (where
    # eigvalsh returns finite values and the residual skips the NaN
    # coefficients), or a constraint index out of range fails the check
    for cert, spec in _every_kind(interval_spec, disk_spec):
        term = cert.terms[-1]
        nan_entry = term.gram.copy()
        nan_entry[0, 0] = np.nan
        for gram in (np.full((2, 3), 1.0), nan_entry):
            term.gram = gram
            check = verify_certificate(cert, spec)
            assert check.gram_eigenvalues[term.label] == float("-inf")
            assert not check.passed
        # the NaN coefficients it expands to give an infinite residual, not a finite one
        assert check.residual == float("inf")
        assert term.gram_spectrum()[0] == float("-inf")
    wrong = PreorderingCertificate(j=3, d=2, p=1, sigma_terms=[], h_terms=[])
    check = verify_certificate(wrong, interval_spec)
    assert check.residual == float("inf") and not check.passed


# -- preordering route ---------------------------------------------------------------------


def test_stengle_interval(interval_spec):
    cert = certify_stengle(interval_spec, 1, 2, p=1)
    assert isinstance(cert, PreorderingCertificate)
    assert cert.residual <= 1e-6
    assert verify_certificate(cert, interval_spec).passed
    labels = {t.label for t in cert.sigma_terms}
    assert "sigma_J{}" in labels  # the empty product is representable


def test_stengle_box_two_constraints(box_spec):
    cert = certify_stengle(box_spec, 1, 2, p=1)
    assert isinstance(cert, PreorderingCertificate)
    assert cert.residual <= 1e-6
    assert verify_certificate(cert, box_spec).passed
    # degree-capped subsets of the 4 doubled constraints on each side
    assert len(cert.sigma_terms) == len(cert.h_terms) == 11


def test_stengle_refuses_large_m():
    spec = parse_problem("vars: x1\ng: x1\ng: 1 - x1\ng: 2 - x1\ng: 3 - x1\n")
    with pytest.raises(ValueError, match="the quadratic-module certificate has no such limit"):
        certify_stengle(spec, 1, 1)


def test_stengle_rejects_bad_power(interval_spec):
    with pytest.raises(ValueError):
        certify_stengle(interval_spec, 1, 2, p=0)


def test_degree_below_other_constraint_rejected():
    # d = 1 fits g1 = x but not g2 = 1 - x^4, whose x^4 row would go unmatched
    spec = parse_problem("vars: x\ng: x\ng: 1 - x^4\n")
    with pytest.raises(ValueError, match="degree bound"):
        gram_certificate(spec, 1, 1)
    with pytest.raises(ValueError, match="degree bound"):
        archimedean_check(spec, 2.0, 1)


# -- archimedean route ----------------------------------------------------------------------


def test_archimedean_disk(disk_spec):
    cert = archimedean_check(disk_spec, 1.0, 1)
    assert isinstance(cert, ArchimedeanCertificate)
    assert cert.residual <= 1e-6
    assert verify_certificate(cert, disk_spec).passed


def test_archimedean_box(box_spec):
    cert = archimedean_check(box_spec, 2.0, 1)
    assert isinstance(cert, ArchimedeanCertificate)
    assert cert.residual <= 1e-6


def test_archimedean_halfspace_fails(halfspace_spec):
    # M - x^2 is negative at x = M + 1, which lies in the set, so no
    # representation exists at any degree; check d <= 3.
    g = halfspace_spec.constraints[0]
    for m_bound in (1.0, 5.0):
        probe = [m_bound + 1.0]
        assert g.evaluate(probe) >= 0.0
        assert m_bound - probe[0] ** 2 < 0.0
        for d in (1, 2, 3):
            outcome = archimedean_check(halfspace_spec, m_bound, d)
            assert isinstance(outcome, CertificationFailure)


def test_random_ellipsoids_certify():
    # 1 - x^T Q x with Q PSD is convex and always carries the exact identity
    # 1 - mid^T Q mid = ((x-y)/2)^T Q ((x-y)/2) + g(x)/2 + g(y)/2.
    rng = np.random.default_rng(77)
    from convexcert.polynomials import Polynomial, VariableSpace

    for trial in range(6):
        n = int(rng.integers(1, 4))
        space = VariableSpace(n)
        root = rng.normal(size=(n, n))
        q = root @ root.T + 0.1 * np.eye(n)
        terms = {(0,) * n: 1.0}
        for i in range(n):
            for jdx in range(n):
                key = tuple((1 if k == i else 0) + (1 if k == jdx else 0) for k in range(n))
                terms[key] = terms.get(key, 0.0) - q[i, jdx]
        spec = _single_constraint_spec(space, Polynomial(space, terms))
        cert = gram_certificate(spec, 1, 1)
        assert isinstance(cert, QuadraticModuleCertificate), f"trial {trial}"
        assert verify_certificate(cert, spec).passed, f"trial {trial}"


def _single_constraint_spec(space, g):
    from convexcert.problemio import ProblemSpec

    return ProblemSpec(
        n=space.n,
        constraints=(g,),
        names=tuple(f"x{i + 1}" for i in range(space.n)),
    )


def test_certificate_payload_shape(interval_spec):
    cert = gram_certificate(interval_spec, 1, 1)
    payload = cert.to_payload()
    assert payload["kind"] == "quadratic-module"
    assert payload["constraint"] == 1
    assert len(payload["terms"]) == 3
    term = payload["terms"][0]
    assert set(term) == {"label", "weight", "basis", "gram"}
    assert len(term["gram"]) == len(term["basis"])


# -- programs over the swap orbits ------------------------------------------------------


def _loop_reference_rows(program):
    """Coefficient rows of the program without the swap reduction, one monomial at a time."""
    accum = {}
    for blk, (spec, basis) in enumerate(zip(program.term_specs, program.bases)):
        for p, ep in enumerate(basis):
            for q, eq in enumerate(basis):
                for etheta, ctheta in spec.weight.terms.items():
                    gamma = tuple(a + b + c for a, b, c in zip(ep, eq, etheta))
                    mat = accum.setdefault(gamma, {}).setdefault(blk, np.zeros((len(basis), len(basis))))
                    mat[p, q] += ctheta
    return [(accum.get(gamma, {}), program.target.terms.get(gamma, 0.0))
            for gamma in monomial_basis(program.space, program.match_degree)]


def test_base_space_archimedean_program_keeps_its_shape(disk_spec, box_spec):
    # no swap acts on the base space: one block per term over its own basis and
    # one row per monomial, with the coefficients of a term-by-term expansion
    from convexcert.certify import _archimedean_program

    for spec, dims in ((disk_spec, [3, 1]), (box_spec, [3, 1, 1])):
        program = _archimedean_program(spec, 2.0, 1)
        problem = program.to_sdp()
        assert list(problem.block_dims) == dims
        assert len(problem.equalities) == 6  # monomials of degree <= 2 in 2 variables
        for (mats, rhs), (ref_mats, ref_rhs) in zip(problem.equalities, _loop_reference_rows(program)):
            assert rhs == ref_rhs
            assert set(mats) == {blk for blk, mat in ref_mats.items() if mat.any()}
            for blk, mat in mats.items():
                assert np.array_equal(mat, ref_mats[blk])


def test_orbit_rows_sum_the_monomial_rows(parabola_spec, disk_spec, box_spec):
    # on any blocks X, each orbit row of the reduced program reads the sum of
    # the term-by-term rows of its monomials on the Gram matrices recover expands;
    # box at d=2 pairs distinct subsets, such as J{1,4} with J{2,3}
    from convexcert.certify import _stengle_program

    rng = np.random.default_rng(3)
    for program in (_qmodule_program(parabola_spec, 1, 2), _stengle_program(disk_spec, 1, 1, 1),
                    _stengle_program(box_spec, 1, 2, 1)):
        problem = program.to_sdp()
        blocks = [m @ m.T for m in (rng.normal(size=(k, k)) for k in problem.block_dims)]
        grams = [t.gram for t in program.recover(blocks)]
        full = [0.0] * len(problem.equalities)
        monomials = monomial_basis(program.space, program.match_degree)
        for gamma, (mats, _rhs) in zip(monomials, _loop_reference_rows(program)):
            full[program.row_of[gamma]] += sum(np.sum(m * grams[i]) for i, m in mats.items())
        reduced = [sum(np.sum(m * blocks[b]) for b, m in mats.items()) for mats, _rhs in problem.equalities]
        assert np.allclose(reduced, full, rtol=1e-12, atol=1e-12)
        assert len(problem.equalities) < len(monomials)


def test_stengle_program_shares_blocks_across_the_swap(disk_spec, box_spec):
    # sigma_J{} and h_J{} split into even and odd blocks on (1, x1, x2, y1, y2);
    # sigma_J with sigma_tauJ and h_J with h_tauJ share one constant block each:
    # J{1} with J{2} for disk (m = 1), J{1} with J{3} and J{2} with J{4} for box (m = 2)
    for spec, blocks, (a, b) in ((disk_spec, [3, 2, 3, 2, 1, 1], (1, 2)),
                                 (box_spec, [3, 2, 3, 2, 1, 1, 1, 1], (1, 3))):
        cert = certify_stengle(spec, 1, 1)
        assert isinstance(cert, PreorderingCertificate)
        assert cert.solver_diagnostics["blocks"] == blocks
        labels = ["sigma_J{}"] + [f"sigma_J{{{ell}}}" for ell in range(1, 2 * spec.m + 1)]
        assert [t.label for t in cert.sigma_terms] == labels
        assert np.array_equal(cert.sigma_terms[a].gram, cert.sigma_terms[b].gram)
        assert verify_certificate(cert, spec).passed


def _swapped(poly: Polynomial) -> Polynomial:
    n = poly.space.n
    return Polynomial(poly.space, {e[n:] + e[:n]: c for e, c in poly.terms.items()})


def test_declared_swap_pairs_match_the_swapped_weights():
    # the builders name each term's swap image; over every bundled problem the
    # naming must be an involution between terms of one basis degree whose
    # weights are each other's swap, on a tau-invariant target
    from convexcert.certify import STENGLE_M_MAX, _stengle_program
    from convexcert.refute import relaxation_orders

    paths = sorted(PROBLEMS.glob("*.txt"))
    assert paths
    for path in paths:
        spec = parse_problem(path.read_text())
        v = relaxation_orders(spec)
        programs = [_qmodule_program(spec, j, d) for j in range(1, spec.m + 1) for d in (v, v + 1)]
        if spec.m <= STENGLE_M_MAX:
            programs += [_stengle_program(spec, j, d, 1) for j in range(1, spec.m + 1) for d in (v, v + 1)]
        for program in programs:
            specs, partner = program.term_specs, program.partner
            assert len(partner) == len(specs)
            for i, term in enumerate(specs):
                image = specs[partner[i]]
                assert partner[partner[i]] == i
                assert image.basis_degree == term.basis_degree
                scale = max(abs(c) for c in term.weight.terms.values())
                assert coeff_linf_distance(_swapped(term.weight), image.weight) <= 1e-12 * scale
            scale = max(abs(c) for c in program.target.terms.values())
            assert coeff_linf_distance(_swapped(program.target), program.target) <= 1e-12 * scale
