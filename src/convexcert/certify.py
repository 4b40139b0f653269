"""Convexity certificates via sum-of-squares identities.

A set {x : g_j(x) >= 0} is convex exactly when every g_j stays nonnegative at
midpoints of member pairs. This module compiles that midpoint condition into
Gram-matrix SDPs along three routes:

* the quadratic-module identity
  g_j((x+y)/2) = sigma_0 + sum_k sigma_k * g_k(x) + psi_k * g_k(y)
  with all multipliers sums of squares (sufficient). It is solved once per
  degree d, by refute.solve_relaxation as g_j((x+y)/2) - rho = ... for the
  largest rho, whose dual is the moment relaxation; qmodule_certificate
  reads the certificate off the Gram blocks of that solve, which carry one
  exactly when rho >= 0 (an eps-relaxed one exactly when rho >= -eps);
* the preordering identity
  sigma_j * g_j((x+y)/2) = g_j((x+y)/2)^(2p) + h_j
  with sigma_j, h_j in the preordering of the doubled constraint list
  (any valid instance proves convexity; kept to small m because the number of
  SOS weights grows as 2^(2m+1));
* the boundedness identity M - |x|^2 = sigma_0 + sum_k sigma_k * g_k, whose
  existence makes the quadratic module archimedean and eps-certificates
  complete for compact convex sets.

Each identity reads target = sum over all its terms of weight * (b^T G b),
G PSD (the preordering one as g_mid^(2p) = sigma_j * g_mid - h_j). The three
kinds share one base class, Certificate, which holds the fields and payload
every kind carries; a kind adds its header fields, its terms and its target
rule, which its program builder uses too. verify_certificate is the one
check: it re-expands the Gram matrices, measures the coefficientwise residual
and takes each Gram matrix's least eigenvalue and norm from
SosTerm.gram_spectrum. Each builder runs it once and keeps it as the
certificate's ``check``, which holds the certificate's residual and least
Gram eigenvalue and which callers judge at their own tolerance instead of
expanding again.

The first two identities live on the doubled space, and their data are
invariant under the swap tau: (x, y) -> (y, x). Their builders name each
term's swap image (sigma_k's is psi_k, sigma_J's is sigma_tauJ), and
SosProgram builds them over tau-orbits (one row per orbit of monomials, an
even and an odd block for sigma_0, one block shared by sigma_k and
psi_k = sigma_k o tau), which halves the rows and the PSD blocks the solver
sees, and expands a solution back into every term's full Gram matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from math import ceil
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from . import sdp
from .moments import MomentSequence, MonomialBasis, monomial_basis
from .polynomials import (
    Exponents,
    Polynomial,
    VariableSpace,
    ball_polynomial,
    coeff_linf_distance,
    lift,
    midpoint_substitute,
)
from .problemio import ProblemSpec

DEFAULT_RESIDUAL_TOL = 1e-6
DEFAULT_GRAM_EIG_TOL = 1e-8
STENGLE_M_MAX = 3

if TYPE_CHECKING:
    from .refute import RelaxationResult


@dataclass
class SosTerm:
    """One recovered SOS multiplier: weight * (basis^T Gram basis)."""

    label: str
    weight: Polynomial
    basis: tuple[Exponents, ...]
    gram: np.ndarray

    def sos_polynomial(self, space: VariableSpace) -> Polynomial:
        terms: dict[Exponents, float] = {}
        for a, ea in enumerate(self.basis):
            for b, eb in enumerate(self.basis):
                key = tuple(p + q for p, q in zip(ea, eb))
                terms[key] = terms.get(key, 0.0) + float(self.gram[a, b])
        return Polynomial(space, terms)

    def contribution(self, space: VariableSpace) -> Polynomial:
        return self.weight * self.sos_polynomial(space)

    def gram_spectrum(self) -> tuple[float, float]:
        """Least eigenvalue and norm of the symmetrized Gram matrix.

        (-inf, 1.0) when the matrix is malformed or has a non-finite entry,
        for which eigvalsh raises or returns finite values.
        """
        try:
            sym = 0.5 * (self.gram + self.gram.T)
            if np.isfinite(sym).all():
                spectrum = np.linalg.eigvalsh(sym)
                return float(spectrum[0]), float(max(-spectrum[0], spectrum[-1]))
        except Exception:  # bad data fails the check instead of raising
            pass
        return float("-inf"), 1.0

    def to_payload(self) -> dict:
        return {
            "label": self.label,
            "weight": self.weight.to_string(),
            "basis": [list(e) for e in self.basis],
            "gram": self.gram.tolist(),
        }


@dataclass
class _TermSpec:
    label: str
    weight: Polynomial
    basis_degree: int


def _swap(exponents: Exponents, n: int) -> Exponents:
    """The swap tau: (x, y) -> (y, x) on an exponent vector of the lifted space."""
    return exponents[n:] + exponents[:n]


@dataclass
class _Block:
    """One PSD block X of the solved program and the term Gram matrices it carries.

    Each part (i, T) contributes T X T^T to the Gram matrix of term i, over
    that term's monomial basis.
    """

    size: int
    parts: list[tuple[int, np.ndarray]]


@dataclass
class SosProgram:
    """Target = sum_i weight_i * (unknown SOS of degree <= 2*basis_degree_i),
    matched coefficientwise over all monomials of degree <= match_degree.

    The builder names, in partner, term tau(i) for each term i under the
    swap tau: (x, y) -> (y, x) of the lifted space: the target is
    tau-invariant and term tau(i)'s weight is term i's weight swapped. The
    program is built over the orbits of tau. Averaging any solution with its
    swap gives a tau-symmetric one, so the symmetric program loses nothing:

    * one equality per monomial orbit, the sum of that orbit's coefficient
      equations, in the graded order of its first monomial;
    * a self-paired term (tau(i) = i) has a tau-invariant Gram matrix, split
      into an even block over the fixed monomials and (m + tau m)/sqrt(2)
      and an odd block over (m - tau m)/sqrt(2);
    * a pair of terms shares one Gram block: term tau(i)'s Gram matrix is
      term i's with the basis permuted by tau.

    With partner None tau is the identity: every term keeps one block over
    its own basis and every monomial its own row. recover and moments expand
    a solution back to every term's Gram matrix and every monomial's moment.
    A wrong partner can lose a certificate but never pass a wrong one, as
    verify_certificate rechecks every monomial.
    """

    space: VariableSpace
    target: Polynomial
    term_specs: list[_TermSpec]
    match_degree: int
    partner: list[int] | None = None
    bases: list[MonomialBasis] = field(init=False)
    blocks: list[_Block] = field(init=False)
    row_of: dict[Exponents, int] = field(init=False)
    n_rows: int = field(init=False)

    def __post_init__(self) -> None:
        # every reachable monomial needs its own coefficient row, or the
        # identity would be silently under-constrained
        reach = max(t.weight.degree + 2 * t.basis_degree for t in self.term_specs)
        reach = max(reach, self.target.degree)
        if reach > self.match_degree:
            raise ValueError(
                f"the identity reaches degree {reach} but matches only up to {self.match_degree}; "
                "the degree bound d must be at least max_k ceil(deg g_k / 2)"
            )
        self.bases = [monomial_basis(self.space, t.basis_degree) for t in self.term_specs]
        if self.partner is None:  # tau acts as the identity
            swap, partner = (lambda e: e), range(len(self.term_specs))
        else:
            swap, partner = partial(_swap, n=self.space.n), self.partner
        self.row_of = {}
        self.n_rows = 0
        for gamma in monomial_basis(self.space, self.match_degree):
            if gamma not in self.row_of:
                self.row_of[gamma] = self.row_of[swap(gamma)] = self.n_rows
                self.n_rows += 1
        self.blocks = []
        for i, basis in enumerate(self.bases):
            k = len(basis)
            perm = [basis.index(swap(e)) for e in basis]
            if partner[i] == i:
                even, odd = [], []
                for a, b in enumerate(perm):
                    col = np.zeros(k)
                    if a == b:
                        col[a] = 1.0
                        even.append(col)
                    elif a < b:
                        col[a] = col[b] = 1.0 / np.sqrt(2.0)
                        even.append(col)
                        flip = col.copy()
                        flip[b] = -flip[b]
                        odd.append(flip)
                for cols in (even, odd):
                    if cols:
                        self.blocks.append(_Block(len(cols), [(i, np.column_stack(cols))]))
            elif partner[i] > i:
                # term partner[i]'s Gram entry (perm[a], perm[b]) is term i's entry (a, b)
                moved = np.zeros((k, k))
                moved[perm, np.arange(k)] = 1.0
                self.blocks.append(_Block(k, [(i, np.eye(k)), (partner[i], moved)]))

    def to_sdp(self) -> sdp.SdpProblem:
        # exponent vectors coded in base match_degree + 1, where a monomial
        # product is a sum of codes; sorted codes find each product's row
        radix = (self.match_degree + 1) ** np.arange(self.space.arity)
        codes = np.array(list(self.row_of), dtype=np.int64) @ radix
        order = np.argsort(codes)
        codes = codes[order]
        code_rows = np.fromiter(self.row_of.values(), dtype=np.int64, count=len(order))[order]
        rhs = np.zeros(self.n_rows)
        for gamma, coeff in self.target.terms.items():
            rhs[self.row_of[gamma]] += coeff
        equalities: list[tuple[dict[int, np.ndarray], float]] = [({}, float(b)) for b in rhs]
        for blk, block in enumerate(self.blocks):
            mats = np.zeros((self.n_rows, block.size, block.size))
            for i, t in block.parts:
                spec, basis = self.term_specs[i], self.bases[i]
                k = len(basis)
                basis_codes = np.array(basis.elements, dtype=np.int64) @ radix
                weight_codes = np.array(list(spec.weight.terms), dtype=np.int64) @ radix
                products = basis_codes[:, None, None] + basis_codes[None, :, None] + weight_codes
                rows = code_rows[np.searchsorted(codes, products)]
                cells = (rows * k + np.arange(k)[:, None, None]) * k + np.arange(k)[None, :, None]
                weights = np.broadcast_to(list(spec.weight.terms.values()), rows.shape)
                coefficients = np.bincount(cells.ravel(), weights=weights.ravel(), minlength=mats.shape[0] * k * k)
                mats += t.T @ coefficients.reshape(-1, k, k) @ t
            used = np.flatnonzero(mats.any(axis=(1, 2)))  # e.g. an even row has no part in the odd block
            for row, mat in zip(used, mats[used]):
                equalities[row][0][blk] = mat
        dims = [block.size for block in self.blocks]
        return sdp.SdpProblem(block_dims=dims, objective={}, equalities=equalities)

    def recover(self, x_blocks: list[np.ndarray]) -> list[SosTerm]:
        """Per-term Gram matrices over each term's own basis, from solved blocks."""
        grams = [np.zeros((len(b), len(b))) for b in self.bases]
        for block, x in zip(self.blocks, x_blocks):
            for i, t in block.parts:
                grams[i] += t @ x @ t.T
        return [
            SosTerm(label=spec.label, weight=spec.weight, basis=tuple(basis.elements),
                    gram=0.5 * (gram + gram.T))
            for spec, basis, gram in zip(self.term_specs, self.bases, grams)
        ]

    def moments(self, multipliers: np.ndarray) -> MomentSequence:
        """Moment sequence z_gamma = z_tau(gamma) = -multipliers[row of gamma's orbit]."""
        entries = {gamma: -float(multipliers[row]) for gamma, row in self.row_of.items()}
        return MomentSequence(self.space, self.match_degree // 2, entries)


@dataclass(kw_only=True)
class Certificate:
    """Fields and payload shared by the three certificate kinds.

    Each kind adds its header fields, its terms and its target rule, so that
    its identity reads target(spec) = sum over terms of weight * (b^T G b).
    The residual and the least raw Gram eigenvalue are read off check, the
    recheck its builder ran.
    """

    kind: ClassVar[str]
    solver_diagnostics: dict = field(default_factory=dict)
    check: CertificateCheck | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def residual(self) -> float:
        return self.check.residual

    @property
    def min_gram_eigenvalue(self) -> float:
        return min(self.check.gram_eigenvalues.values())

    def to_payload(self) -> dict:
        return {"kind": self.kind, **self._kind_payload(), "residual": self.residual,
                "min_gram_eigenvalue": self.min_gram_eigenvalue, "solver": self.solver_diagnostics}


@dataclass
class QuadraticModuleCertificate(Certificate):
    kind = "quadratic-module"
    j: int  # 1-based constraint index
    d: int
    terms: list[SosTerm]

    def target(self, spec: ProblemSpec) -> Polynomial:
        return _qmodule_target(spec, self.j)

    def _kind_payload(self) -> dict:
        return {"constraint": self.j, "degree": self.d, "epsilon": 0.0,
                "terms": [t.to_payload() for t in self.terms]}


@dataclass
class PreorderingCertificate(Certificate):
    kind = "preordering"
    j: int
    d: int
    p: int
    sigma_terms: list[SosTerm]
    h_terms: list[SosTerm]

    def target(self, spec: ProblemSpec) -> Polynomial:
        return _stengle_target(spec, self.j, self.p)

    @property
    def terms(self) -> list[SosTerm]:
        """All terms of the identity, sigma side first."""
        return self.sigma_terms + self.h_terms

    def _kind_payload(self) -> dict:
        return {"constraint": self.j, "degree": self.d, "power": self.p,
                "sigma_terms": [t.to_payload() for t in self.sigma_terms],
                "h_terms": [t.to_payload() for t in self.h_terms]}


@dataclass
class ArchimedeanCertificate(Certificate):
    kind = "archimedean"
    bound: float
    d: int
    terms: list[SosTerm]

    def target(self, spec: ProblemSpec) -> Polynomial:
        return _archimedean_target(spec, self.bound)

    def _kind_payload(self) -> dict:
        return {"bound": self.bound, "degree": self.d, "terms": [t.to_payload() for t in self.terms]}


@dataclass
class CertificationFailure:
    reason: str  # "no certificate at this degree" | "inconclusive"
    solver_status: str
    solver_diagnostics: dict = field(default_factory=dict)


def _solution_diagnostics(problem: sdp.SdpProblem, solution: sdp.SdpSolution) -> dict:
    return {
        "status": solution.status,
        "blocks": [int(k) for k in problem.block_dims],
        "reduced_blocks": solution.diagnostics["reduced_blocks"],
        "p": len(problem.equalities),
        "iterations": solution.iterations,
        "primal_residual": solution.primal_residual,
        "dual_residual": solution.dual_residual,
        "relative_gap": solution.relative_gap,
    }


def _certificate_fields(program: SosProgram, x_blocks: list[np.ndarray], diagnostics: dict) -> dict:
    """Constructor fields of solved Gram blocks."""
    return {"terms": program.recover(x_blocks), "solver_diagnostics": diagnostics}


def _checked(cert: Certificate, spec: ProblemSpec) -> Certificate:
    """cert with its one recheck kept as cert.check."""
    cert.check = verify_certificate(cert, spec)
    return cert


def _solve_certificate(program: SosProgram) -> dict | CertificationFailure:
    """Solve a certificate program as stated; certificate fields or the failure."""
    problem = program.to_sdp()
    solution = sdp.solve(problem)
    diagnostics = _solution_diagnostics(problem, solution)
    if solution.status != "optimal":
        reason = "no certificate at this degree" if solution.status == "infeasible" else "inconclusive"
        return CertificationFailure(
            reason=reason, solver_status=solution.status, solver_diagnostics=diagnostics
        )
    return _certificate_fields(program, solution.X, diagnostics)


@dataclass
class CertificateCheck:
    """Solver-independent recheck of a certificate's defining identity."""

    residual: float
    min_gram_eigenvalue: float
    gram_eigenvalues: dict[str, float]
    residual_tol: float = DEFAULT_RESIDUAL_TOL
    eig_tol: float = DEFAULT_GRAM_EIG_TOL

    @property
    def passed(self) -> bool:
        return self.residual <= self.residual_tol and self.min_gram_eigenvalue >= -self.eig_tol

    def to_payload(self) -> dict:
        return {
            "residual": self.residual,
            "min_gram_eigenvalue": self.min_gram_eigenvalue,
            "passed": self.passed,
        }


def _constraint_index(spec: ProblemSpec, j: int) -> int:
    if not 1 <= j <= spec.m:
        raise ValueError(f"constraint index {j} out of range 1..{spec.m}")
    return j - 1


def _multiplier_degree(d: int, g: Polynomial) -> int:
    # Keeps every product sigma_k * g_k inside total degree 2d.
    return max(0, d - ceil(g.degree / 2))


def _qmodule_target(spec: ProblemSpec, j: int) -> Polynomial:
    return midpoint_substitute(spec.constraints[_constraint_index(spec, j)])


def _qmodule_program(spec: ProblemSpec, j: int, d: int) -> SosProgram:
    target = _qmodule_target(spec, j)
    lifted = spec.space.lift()
    specs = [_TermSpec("sigma_0", Polynomial.constant(lifted, 1.0), d)]
    for k, g in enumerate(spec.constraints, start=1):
        specs.append(_TermSpec(f"sigma_{k}", lift(g, "x"), _multiplier_degree(d, g)))
    for k, g in enumerate(spec.constraints, start=1):
        specs.append(_TermSpec(f"psi_{k}", lift(g, "y"), _multiplier_degree(d, g)))
    m = spec.m  # sigma_0 is its own swap image; sigma_k and psi_k are each other's
    partner = [0, *range(m + 1, 2 * m + 1), *range(1, m + 1)]
    return SosProgram(space=lifted, target=target, term_specs=specs, match_degree=2 * d, partner=partner)


def qmodule_certificate(result: RelaxationResult, spec: ProblemSpec) -> QuadraticModuleCertificate:
    """The quadratic-module certificate carried by the solved blocks of an optimal relaxation.

    result comes from refute.solve_relaxation, whose blocks satisfy
    g_j((x+y)/2) - rho = sum of the terms. A positive rho is a constant SOS
    term: it is added to the constant entry of sigma_0's Gram matrix, which
    stays PSD. A negative rho is left in the constant coefficient, where
    verify_certificate judges it as part of the residual.
    """
    blocks = list(result.gram)
    if result.rho > 0:
        blocks[0] = blocks[0].copy()
        blocks[0][0, 0] += result.rho  # the first block, sigma_0's even one, starts with the constant monomial
    fields = _certificate_fields(result.program, blocks, result.diagnostics)
    return _checked(QuadraticModuleCertificate(j=result.j, d=result.s, **fields), spec)


def _stengle_target(spec: ProblemSpec, j: int, p: int) -> Polynomial:
    return midpoint_substitute(spec.constraints[_constraint_index(spec, j)]) ** (2 * p)


def _stengle_program(spec: ProblemSpec, j: int, d: int, p: int) -> SosProgram:
    gj = spec.constraints[_constraint_index(spec, j)]
    if p < 1:
        raise ValueError("power p must be a positive integer")
    if d < ceil(gj.degree / 2):
        raise ValueError(f"degree bound d={d} is too small for g_{j}")
    lifted = spec.space.lift()
    gmid = midpoint_substitute(gj)
    ghat = [lift(g, "x") for g in spec.constraints] + [lift(g, "y") for g in spec.constraints]
    target = _stengle_target(spec, j, p)
    specs: list[_TermSpec] = []
    sigma_of: dict[tuple[int, ...], int] = {}  # subset J -> index of sigma_J, with h_J next
    subsets = []
    for size in range(len(ghat) + 1):
        subsets.extend(itertools.combinations(range(len(ghat)), size))
    for subset in subsets:
        product = Polynomial.constant(lifted, 1.0)
        for ell in subset:
            product = product * ghat[ell]
        slack = 2 * d - product.degree
        if slack < 0:
            continue
        sigma_of[subset] = len(specs)
        tag = "{" + ",".join(str(ell + 1) for ell in subset) + "}"
        specs.append(_TermSpec(f"sigma_J{tag}", product * gmid, slack // 2))
        specs.append(_TermSpec(f"h_J{tag}", -1.0 * product, slack // 2))
    # tau J moves each g_k(x) to g_k(y) and back; the degree filter keeps it with J
    m = spec.m
    partner = []
    for subset in sigma_of:
        image = sigma_of[tuple(sorted((ell + m) % (2 * m) for ell in subset))]
        partner += [image, image + 1]
    match_degree = max(2 * d + gj.degree, 2 * p * gj.degree)
    return SosProgram(space=lifted, target=target, term_specs=specs, match_degree=match_degree,
                      partner=partner)


def certify_stengle(
    spec: ProblemSpec,
    j: int,
    d: int,
    p: int = 1,
) -> PreorderingCertificate | CertificationFailure:
    """Attempt a preordering certificate for constraint j.

    Refused for m > STENGLE_M_MAX: the doubled constraint list makes the
    preordering carry 2^(2m+1) SOS weights, which is out of desk-scale reach;
    the quadratic-module certificate has no such limit.
    """
    if spec.m > STENGLE_M_MAX:
        raise ValueError(
            f"preordering certification refused for m={spec.m} > {STENGLE_M_MAX}: "
            f"it would require 2^{2 * spec.m + 1} SOS blocks; the quadratic-module certificate has no such limit"
        )
    fields = _solve_certificate(_stengle_program(spec, j, d, p))
    if isinstance(fields, CertificationFailure):
        return fields
    terms = fields.pop("terms")
    sigma_terms = [t for t in terms if t.label.startswith("sigma_J")]
    h_terms = [t for t in terms if t.label.startswith("h_J")]
    return _checked(PreorderingCertificate(j=j, d=d, p=p, sigma_terms=sigma_terms, h_terms=h_terms, **fields), spec)


def _archimedean_target(spec: ProblemSpec, bound: float) -> Polynomial:
    return ball_polynomial(spec.space, bound)


def _archimedean_program(spec: ProblemSpec, bound: float, d: int) -> SosProgram:
    if bound <= 0:
        raise ValueError("bound M must be positive")
    space = spec.space
    specs = [_TermSpec("sigma_0", Polynomial.constant(space, 1.0), d)]
    for k, g in enumerate(spec.constraints, start=1):
        specs.append(_TermSpec(f"sigma_{k}", g, _multiplier_degree(d, g)))
    return SosProgram(space=space, target=_archimedean_target(spec, bound), term_specs=specs, match_degree=2 * d)


def archimedean_check(
    spec: ProblemSpec,
    bound: float,
    d: int,
) -> ArchimedeanCertificate | CertificationFailure:
    """Try to express M - |x|^2 inside the quadratic module of the constraints.

    Success shows the module is archimedean (the set is compact), in which
    case eps-relaxed certification is complete for convex inputs.
    """
    fields = _solve_certificate(_archimedean_program(spec, bound, d))
    if isinstance(fields, CertificationFailure):
        return fields
    return _checked(ArchimedeanCertificate(bound=bound, d=d, **fields), spec)


def verify_certificate(cert: Certificate, spec: ProblemSpec) -> CertificateCheck:
    """Recheck a certificate using polynomial arithmetic only (no solver).

    Re-expands every Gram matrix into its SOS polynomial, sums the terms of
    the certified identity, and reports the coefficientwise residual against
    the target rebuilt from spec, together with the minimum Gram eigenvalues.
    These two facts alone imply the midpoint inequality the certificate
    claims, so a passing check is a standalone proof up to the check's
    tolerances, which a caller may replace (dataclasses.replace). Reports,
    never raises, on bad data.
    """
    try:
        target = cert.target(spec)
        total: dict[Exponents, float] = {}  # one running sum, not a new polynomial per term
        for term in cert.terms:
            for exps, coeff in term.contribution(target.space).terms.items():
                total[exps] = total.get(exps, 0.0) + coeff
        residual = coeff_linf_distance(target, Polynomial(target.space, total))
    except Exception:
        residual = float("inf")
    eigs: dict[str, float] = {}
    min_eig = 0.0
    for term in cert.terms:
        val, norm = term.gram_spectrum()
        eigs[term.label] = val
        # scale-relative floor: eigenvalues are compared against eig_tol * max(1, |G|)
        min_eig = min(min_eig, val / max(1.0, norm))
    return CertificateCheck(residual=residual, min_gram_eigenvalue=min_eig, gram_eigenvalues=eigs)
