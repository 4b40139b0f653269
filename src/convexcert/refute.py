"""Non-convexity refutation via moment relaxations and atom extraction.

For each constraint g_j the relaxation minimizes the linear image of
g_j((x+y)/2) over truncated moment sequences z of probability measures on the
doubled set: the moment matrix and one localizing matrix per doubled
constraint must be PSD and z_0 = 1. The optimal value rho is a lower bound on
the true minimum of g_j at midpoints of member pairs and climbs toward it as
the order s grows. The relaxation is solved as its SOS dual, the
quadratic-module Gram program max lambda s.t. g_j((x+y)/2) - lambda lies in
the truncated quadratic module (certify._qmodule_program), and z is
read off that solve's dual multipliers. That program is built over the
orbits of the swap tau: (x, y) -> (y, x), one row per orbit, so the moments
come out swap-symmetric, z_gamma = z_tau(gamma); averaging any optimal z
with its swap gives such a one, so rho is unchanged. The solved Gram
blocks are kept as well: when rho >= 0 they are the certificate of
convexity, so one solve per (constraint, order) yields the certificate, the
bound and the moments together.

If rho < 0 and the moment matrix satisfies the flat-extension rank condition
rank M_s(z) = rank M_{s-v}(z) =: t, then z is the moment sequence of a
t-atomic measure supported on the doubled set; its atoms split into pairs
(x_i, y_i) of members whose midpoint violates g_j, which refutes convexity
outright. Extraction reads the atoms off the symmetric moment pencil: the
top-t eigenpairs (U, Lambda) of M_{s-1}(z) compress the order-(s-1)
localizing matrix H_i of each coordinate x_i to
N_i = Lambda^(-1/2) U^T H_i U Lambda^(-1/2). For a
t-atomic z each N_i equals R D_i R^T with one orthogonal R and D_i the
atoms' i-th coordinates, so the N_i commute and the eigenvectors of one
random convex combination diagonalize them all. A repeated eigenvalue of
that combination mixes atoms, which is why extraction retries with a fresh
combination when the atoms fail to reproduce z. Witness validation
re-evaluates every polynomial inequality directly, so an accepted witness
stands on its own without trusting the solver.

A witness needs no relaxation when a pair of members can be found directly.
sample_witness draws seeded uniform points in boxes of given radii, keeps
those strictly inside the set, scores g_j at every pairwise midpoint with
one matrix product through the polarized midpoint form, and offers the
least-scoring pair, as drawn, to validate_witness. One validated pair
refutes convexity outright, so the CLI draws before any solve, over the
fixed radii of SAMPLE_RADII, and only a constraint with no such pair
reaches the relaxations. Their first negative bound sizes one more box from
the order-1 moments (moment_radius), for sets too tiny or too far for the
fixed radii; rho, a lower bound on g_j((x+y)/2) over all member pairs,
stays at or below the violation of any pair. The sampler needs numpy only;
a set with empty interior leaves it without members, and then only
flatness can help.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, log10, sqrt

import numpy as np

from . import certify, sdp
from .moments import MomentSequence, localizing_matrix, monomial_basis, moment_matrix
from .polynomials import Polynomial, PolynomialSystem, _midpoint_form, _monomials
from .problemio import ProblemSpec

RANK_SINGULAR_THRESHOLD = 1e-6
RANK_GAP_RATIO = 1e2
DEFAULT_FEASIBILITY_TOL = 1e-6
RELAXATION_TOL_CEILING = 1e-7
EXTRACTION_MAX_ATTEMPTS = 5
# Moment-match tolerance of extraction, relative to the largest moment. The
# degree-2s moments magnify the atoms' error, so moments solved to ~1e-9 miss
# 1e-6 now and then even when the atoms are right to 1e-6. A loose match costs
# no soundness: validate_witness re-evaluates every atom directly.
EXTRACTION_MATCH_TOL = 1e-4
# Sampled witnesses (sample_witness).
SAMPLE_RADII = (1.0, 4.0)  # box radii of the draw before any relaxation
SAMPLE_POINTS = 400


class ExtractionError(RuntimeError):
    """Atom extraction failed: too few atoms in the moments, or no retry matched them."""


def relaxation_orders(spec: ProblemSpec) -> int:
    """v = max_k ceil(deg g_k / 2), the largest localizing order of the doubled constraints.

    Lifting g_k to g_k(x) and g_k(y) keeps its degree, so v is read off
    spec.constraints.
    """
    return max(ceil(g.degree / 2) for g in spec.constraints)


@dataclass
class RelaxationResult:
    j: int
    s: int
    status: str  # optimal | inconclusive-unbounded | infeasible | stalled
    rho: float | None
    z: MomentSequence | None
    diagnostics: dict = field(default_factory=dict)
    # the degree-s quadratic-module program that was solved and its solved
    # blocks; with rho >= 0 they carry a convexity certificate
    program: certify.SosProgram | None = None
    gram: list[np.ndarray] | None = None


@dataclass
class FlatnessResult:
    flat: bool
    t: int
    ambiguous: bool
    rank_s: int
    rank_sv: int

    def to_payload(self) -> dict:
        return {
            "flat": self.flat,
            "rank": self.t,
            "ambiguous": self.ambiguous,
            "rank_order_s": self.rank_s,
            "rank_order_s_minus_v": self.rank_sv,
        }


@dataclass
class WitnessAtom:
    x: tuple[float, ...]
    y: tuple[float, ...]
    weight: float
    midpoint: tuple[float, ...]
    violation: float  # g_j at the midpoint
    feasibility_margin: float  # min over k and both components of g_k

    def to_payload(self) -> dict:
        return {
            "x": list(self.x),
            "y": list(self.y),
            "weight": self.weight,
            "midpoint": list(self.midpoint),
            "violation": self.violation,
            "feasibility_margin": self.feasibility_margin,
        }


@dataclass
class NonconvexityWitness:
    """Member pairs of the set whose midpoints violate constraint j.

    Every atom component satisfies all defining inequalities within the
    feasibility tolerance and every midpoint violates g_j by at least the
    strict tolerance, both checked by direct evaluation.
    """

    j: int
    atoms: list[WitnessAtom]
    tol_feas: float
    tol_strict: float

    def to_payload(self) -> dict:
        return {
            "kind": "midpoint-violation",
            "constraint": self.j,
            "tol_feas": self.tol_feas,
            "tol_strict": self.tol_strict,
            "atoms": [a.to_payload() for a in self.atoms],
        }


# -- relaxation construction ---------------------------------------------------


def _moment_form(program: certify.SosProgram) -> sdp.SdpProblem:
    gram = program.to_sdp()
    # rows follow the graded order of their orbits, so the constant monomial is first
    (constant_row, _constant), *rows = gram.equalities
    return sdp.SdpProblem(block_dims=gram.block_dims, objective=constant_row, equalities=rows)


def build_moment_sdp(spec: ProblemSpec, j: int, s: int) -> sdp.SdpProblem:
    """Order-s relaxation for constraint j, in the SOS dual (Gram) form that is solved.

    This is the quadratic-module program g_j((x+y)/2) - lambda = sigma_0 +
    sum_k sigma_k g_k(x) + psi_k g_k(y), built over the swap orbits of
    certify.SosProgram, with the constant-monomial row moved into the
    objective: minimize <A_0, X> subject to the orbit-summed coefficient rows
    of every other monomial orbit, in graded order. The bound is
    rho = lambda = g_j(0) - <A_0, X>, and the multiplier y_[gamma] of the row
    of gamma's orbit is -z_gamma = -z_tau(gamma) for the optimal moment
    sequence z (z_0 = 1).
    """
    return _moment_form(certify._qmodule_program(spec, j, s))  # rejects s < v


def solve_relaxation(spec: ProblemSpec, j: int, s: int) -> RelaxationResult:
    """Solve the order-s relaxation; rho is a lower bound on the midpoint minimum.

    The Gram form from build_moment_sdp is solved once and the moments are
    read off its dual multipliers. The solve runs one decade below
    sdp.DEFAULT_TOL: at that tolerance itself the dual moments are less
    clean, enough to fail the flatness rank test at hyperbola order 4. A
    stalled solve returns its best iterate, which is accepted when its
    residuals and gap meet RELAXATION_TOL_CEILING; diagnostics["solver_tol"]
    reads the first decade they meet. Moment accuracy at 1e-7 is still far
    inside the witness-validation tolerance downstream. Across the duality,
    an infeasible Gram program means the moment relaxation is unbounded, and
    an unbounded one means it is infeasible.
    """
    program = certify._qmodule_program(spec, j, s)  # rejects s < v
    problem = _moment_form(program)
    tol = sdp.DEFAULT_TOL / 10.0
    solution = sdp.solve(problem, tol=tol)
    status = {"infeasible": "inconclusive-unbounded", "unbounded": "infeasible"}.get(
        solution.status, solution.status
    )
    accuracy = (solution.primal_residual, solution.dual_residual, solution.relative_gap)
    if status == "stalled" and all(r <= RELAXATION_TOL_CEILING for r in accuracy):  # a NaN fails
        status = "optimal"
        tol = min(tol * 10.0 ** ceil(log10(max(*accuracy, tol) / tol)), RELAXATION_TOL_CEILING)
    diagnostics = certify._solution_diagnostics(problem, solution, tol)
    if status != "optimal":
        return RelaxationResult(j=j, s=s, status=status, rho=None, z=None, diagnostics=diagnostics)
    return RelaxationResult(
        j=j,
        s=s,
        status="optimal",
        rho=spec.constraints[j - 1].terms.get((0,) * spec.n, 0.0) - float(solution.objective_value),
        # the constant row, moved into the objective, carries the multiplier -z_0 = -1
        z=program.moments(np.concatenate([[-1.0], solution.y])),
        diagnostics=diagnostics,
        program=program,
        gram=solution.X,
    )


# -- flatness and extraction ------------------------------------------------------


def _numerical_rank(singular_values: np.ndarray) -> tuple[int, bool]:
    """Rank by threshold plus a ratio-gap confidence test; (rank, ambiguous)."""
    sv = np.asarray(singular_values, dtype=float)
    if sv.size == 0:
        return 0, False
    cutoff = RANK_SINGULAR_THRESHOLD * max(1.0, float(sv[0]))
    rank = int(np.sum(sv >= cutoff))
    if rank == sv.size or rank == 0:
        return rank, False
    ratio = sv[rank - 1] / max(sv[rank], 1e-300)
    return rank, bool(ratio < RANK_GAP_RATIO)


def rank_flatness_check(result: RelaxationResult, spec: ProblemSpec) -> FlatnessResult:
    """Flat-extension test: equal numerical ranks at orders s and s - v.

    A confident rank needs both the singular-value threshold and a clear
    ratio gap; otherwise the result is marked ambiguous and extraction is
    skipped by callers, since a soft rank decision produces garbage atoms.
    """
    if result.z is None:
        raise ValueError("relaxation result carries no moment sequence")
    v = relaxation_orders(spec)
    m_s = moment_matrix(result.z, result.s)
    # the order-(s - v) basis is a prefix of the order-s one, so M_{s-v} is a leading block
    size = len(monomial_basis(result.z.space, result.s - v))
    (rank_s, amb_s), (rank_sv, amb_sv) = (
        _numerical_rank(np.linalg.svd(block, compute_uv=False))
        for block in (m_s, m_s[:size, :size])
    )
    ambiguous = amb_s or amb_sv
    flat = (not ambiguous) and rank_s == rank_sv
    return FlatnessResult(flat=flat, t=rank_s if flat else 0, ambiguous=ambiguous,
                          rank_s=rank_s, rank_sv=rank_sv)


def extract_atoms(result: RelaxationResult, t: int, seed: int = 0) -> list[tuple[np.ndarray, float]]:
    """Recover the t atoms and weights of a flat moment sequence.

    Let H_0 = M_{s-1}(z) and H_i the order-(s-1) localizing matrix of the
    coordinate x_i. For t atoms with weights W and i-th coordinates D_i,
    H_0 = V W V^T and H_i = V W D_i V^T, where V evaluates the order-(s-1)
    basis at the atoms and has rank t by flatness. The top-t eigenpairs
    (U, Lambda) of H_0 then give V W^(1/2) = U Lambda^(1/2) R for one
    orthogonal t x t matrix R, so the pencil
    N_i = Lambda^(-1/2) U^T H_i U Lambda^(-1/2) = R D_i R^T: the N_i are
    symmetric, commute, and share the eigenvectors R. The eigenvectors r_k of
    a random convex combination of the N_i are the columns of R, and atom k's
    i-th coordinate is r_k^T N_i r_k. Weights come from a least-squares match
    of the atoms' monomial values (_monomials) against z, which must reproduce
    every moment within EXTRACTION_MATCH_TOL times the largest one.

    A repeated eigenvalue of the combination mixes the eigenvectors of the
    atoms that share it, so when the moment match fails or a weight is not
    positive a fresh combination is tried; raises ExtractionError after
    EXTRACTION_MAX_ATTEMPTS, or at once when fewer than t eigenvalues of H_0
    clear the rank threshold.
    """
    if result.z is None:
        raise ValueError("relaxation result carries no moment sequence")
    if t < 1:
        raise ValueError("need at least one atom")
    z = result.z
    space = z.space
    order = result.s - 1
    eigvals, eigvecs = np.linalg.eigh(moment_matrix(z, order))  # ascending
    rank, _ambiguous = _numerical_rank(eigvals[::-1])
    if rank < t:
        raise ExtractionError(
            f"extraction-failed: order-{order} moment matrix has rank {rank} < {t}"
        )
    whiten = eigvecs[:, -t:] / np.sqrt(eigvals[-t:])  # U Lambda^(-1/2)
    pencil = np.array([
        whiten.T @ localizing_matrix(z, Polynomial.variable(space, i), order) @ whiten
        for i in range(space.arity)
    ])  # (arity, t, t)

    exponents = monomial_basis(space, 2 * result.s).exponents  # (N, arity)
    z_vec = z.values[:len(exponents)]
    scale = EXTRACTION_MATCH_TOL * max(1.0, float(np.max(np.abs(z_vec))))
    rng = np.random.default_rng(seed)
    last_error = "no attempts made"
    for _attempt in range(EXTRACTION_MAX_ATTEMPTS):
        coeffs = rng.random(space.arity)
        coeffs /= coeffs.sum()
        _, rotation = np.linalg.eigh(np.tensordot(coeffs, pencil, axes=1))
        points = np.einsum("jk,ijl,lk->ki", rotation, pencil, rotation)  # (t, arity)
        vander = _monomials(points, exponents).T  # (N, t)
        weights, *_ = np.linalg.lstsq(vander, z_vec, rcond=None)
        reproduction = float(np.max(np.abs(vander @ weights - z_vec)))
        if reproduction > scale:
            last_error = f"moment match residual {reproduction:.3e} above {scale:.3e}"
            continue
        if np.any(weights <= 0):
            last_error = "nonpositive weight in moment match"
            continue
        return [(points[k].copy(), float(weights[k])) for k in range(t)]
    raise ExtractionError(f"extraction-failed: {last_error}")


def validate_witness(
    atoms: list[tuple[np.ndarray, float]],
    spec: ProblemSpec,
    j: int,
    tol_feas: float = DEFAULT_FEASIBILITY_TOL,
) -> NonconvexityWitness | None:
    """Re-evaluate candidate atoms; keep only sound ones.

    Each atom splits into (x, y); one PolynomialSystem call evaluates g_j and
    every g_k at all components and midpoints. An atom survives when every g_k
    is >= -tol_feas at both components, g_j at the midpoint is <= -10*tol_feas
    and its weight is finite and > 0; a NaN in any of these fails it. Surviving
    weights are renormalized to sum to one. Returns None when nothing
    survives. Uses polynomial evaluation only, so an accepted witness is a
    standalone disproof of convexity at the stated tolerances.

    An atom within tol_feas of the set is accepted: an extracted atom can
    have feasibility_margin below 0 (the README's parabola example gives
    -2.0e-10). Only the CLI also requires feasibility_margin >= 0, and a
    library caller after a proof, not a tolerance claim, must check it too.
    """
    if not atoms:
        raise ValueError("no atoms supplied")
    gj = spec.constraints[certify._constraint_index(spec, j)]
    tol_strict = 10.0 * tol_feas
    n = spec.n
    points = [np.asarray(point, dtype=float) for point, _weight in atoms]
    for coords in points:
        if coords.shape != (2 * n,):
            raise ValueError(f"atom has shape {coords.shape}, expected ({2 * n},)")
    pairs = np.array(points)
    x, y = pairs[:, :n], pairs[:, n:]
    midpoints = 0.5 * (x + y)
    weights = np.array([weight for _point, weight in atoms], dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):  # a NaN or inf is judged below
        values = PolynomialSystem([gj, *spec.constraints])(np.concatenate([x, y, midpoints]))
    values = values.reshape(3, len(atoms), -1)
    margins, violations = np.min(values[:2, :, 1:], axis=(0, 2)), values[2, :, 0]
    keep = (margins >= -tol_feas) & (violations <= -tol_strict) & (weights > 0.0) & (weights < np.inf)
    survivors = [
        WitnessAtom(x=tuple(x[k].tolist()), y=tuple(y[k].tolist()), weight=float(weights[k]),
                    midpoint=tuple(midpoints[k].tolist()), violation=float(violations[k]),
                    feasibility_margin=float(margins[k]))
        for k in np.flatnonzero(keep)
    ]
    if not survivors:
        return None
    total = sum(a.weight for a in survivors)
    for atom in survivors:
        atom.weight = atom.weight / total
    return NonconvexityWitness(j=j, atoms=survivors, tol_feas=tol_feas, tol_strict=tol_strict)


# -- witnesses from sampled member pairs ----------------------------------------


def moment_radius(result: RelaxationResult) -> float | None:
    """2 * sqrt(max_i E[w_i^2]), the second moments read off the diagonal of
    the order-1 moment matrix of result; None when that is not finite and positive.

    It is the box radius of the draw that follows a relaxation, for sets too
    tiny or too far for the radii of SAMPLE_RADII.
    """
    if result.z is None:
        raise ValueError("relaxation result carries no moment sequence")
    peak = float(np.max(np.diag(moment_matrix(result.z, 1))[1:]))  # largest E[w_i^2]
    if not (np.isfinite(peak) and peak > 0.0):
        return None
    return 2.0 * sqrt(peak)


def sample_witness(
    spec: ProblemSpec,
    j: int,
    radii: tuple[float, ...] = SAMPLE_RADII,
    seed: int | np.random.Generator = 0,
    tol_feas: float = DEFAULT_FEASIBILITY_TOL,
) -> NonconvexityWitness | None:
    """The best member pair of a seeded sample, as drawn, as a one-atom witness.

    One generator serves every box radius R of radii in turn: a new one
    seeded with (seed, j) for an int seed, or seed itself when it is a
    Generator, whose stream the draw continues, so a later call sharing it
    draws fresh points. Per radius, SAMPLE_POINTS points are drawn
    uniformly from [-R, R]^n; the points where every g_k is positive,
    evaluated at the point itself with no tolerance, are the members. g_j is
    scored at the midpoints of all member pairs with one matrix product,
    Phi M Phi^T, where M is the polarized midpoint form of g_j
    (polynomials._midpoint_form) and Phi holds each member's monomials of its
    halves; no midpoint is formed. The scores only rank the pairs: a pair
    of distinct members is one candidate, whichever of its two entries wins,
    and is offered in draw order; no member pairs with itself, a NaN score
    never wins, and a radius with no negative score moves on to the next
    one, also when every score is NaN. The least-scoring pair is kept when
    validate_witness, which evaluates it directly, accepts it and it stays
    inside the set, so a sampled witness has feasibility_margin >= 0. The
    first radius that yields such a pair ends the draw.

    Returns None when no radius does: a sample with fewer than two members
    (a thin set) or with no violating pair validates nothing. Needs numpy
    only.
    """
    n = spec.n
    g = spec.constraints[certify._constraint_index(spec, j)]
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng([seed, j])
    constraints = PolynomialSystem(spec.constraints)
    halves, form = _midpoint_form(g)
    for radius in radii:
        points = rng.uniform(-radius, radius, size=(SAMPLE_POINTS, n))
        members = points[np.all(constraints(points) > 0.0, axis=1)]
        if len(members) < 2:
            continue
        phi = _monomials(members, halves)
        scores = phi @ form @ phi.T  # scores[a, b] = g((members[a] + members[b])/2)
        np.fill_diagonal(scores, np.inf)  # no point paired with itself
        if not np.any(scores < 0.0):  # also when every score is NaN
            continue
        scores[np.isnan(scores)] = np.inf  # a NaN score never wins; in place, unlike np.nanargmin
        row, col = sorted(np.unravel_index(np.argmin(scores), scores.shape))  # the pair as drawn
        pair = np.concatenate([members[row], members[col]])
        witness = validate_witness([(pair, 1.0)], spec, j, tol_feas=tol_feas)
        if witness is not None and witness.atoms[0].feasibility_margin >= 0.0:
            return witness
    return None
