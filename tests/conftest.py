import numpy as np
import pytest

from convexcert.certify import qmodule_certificate
from convexcert.problemio import parse_problem
from convexcert.refute import DEFAULT_FEASIBILITY_TOL, solve_relaxation

INTERVAL = "vars: x1\ng: 1 - x1^2\n"
DISK = "vars: x1 x2\ng: 1 - x1^2 - x2^2\n"
HALFSPACE = "vars: x1\ng: x1\n"
BOX = "vars: x1 x2\ng: 1 - x1^2\ng: 1 - x2^2\n"
PARABOLA = "vars: x1 x2\ng: x1^2 - x2\ng: 1 - x1^2\ng: 1 - x2^2\n"
TWO_INTERVAL = "vars: x1\ng: x1^2 - 1\ng: 4 - x1^2\n"


@pytest.fixture
def interval_spec():
    return parse_problem(INTERVAL)


@pytest.fixture
def disk_spec():
    return parse_problem(DISK)


@pytest.fixture
def halfspace_spec():
    return parse_problem(HALFSPACE)


@pytest.fixture
def box_spec():
    return parse_problem(BOX)


@pytest.fixture
def parabola_spec():
    return parse_problem(PARABOLA)


@pytest.fixture
def two_interval_spec():
    return parse_problem(TWO_INTERVAL)


def gram_certificate(spec, j, d):
    """The quadratic-module certificate of constraint j at degree d, as the CLI reads it.

    The certificate comes off the blocks of the one Gram solve at order d when
    that solve is optimal with rho >= -DEFAULT_FEASIBILITY_TOL; otherwise the
    RelaxationResult itself is returned.
    """
    result = solve_relaxation(spec, j, d)
    if result.status == "optimal" and result.rho >= -DEFAULT_FEASIBILITY_TOL:
        return qmodule_certificate(result, spec)
    return result


def brute_force_midpoint_min(spec, j, points_1d):
    """Grid oracle: min of g_j((x+y)/2) over member pairs of the gridded set.

    Enumerates grid points, keeps those satisfying every constraint, and
    scans all pairs. Independent of the moment machinery by construction.
    """
    n = spec.n
    grids = np.meshgrid(*([points_1d] * n), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    feasible = np.ones(len(pts), dtype=bool)
    for g in spec.constraints:
        vals = np.zeros(len(pts))
        for exps, coeff in g.terms.items():
            term = np.full(len(pts), coeff)
            for i, e in enumerate(exps):
                if e:
                    term = term * pts[:, i] ** e
            vals += term
        feasible &= vals >= 0
    members = pts[feasible]
    gj = spec.constraints[j - 1]
    best = np.inf
    argbest = None
    for a in members:
        mids = 0.5 * (a[None, :] + members)
        vals = np.zeros(len(mids))
        for exps, coeff in gj.terms.items():
            term = np.full(len(mids), coeff)
            for i, e in enumerate(exps):
                if e:
                    term = term * mids[:, i] ** e
            vals += term
        k = int(np.argmin(vals))
        if vals[k] < best:
            best = float(vals[k])
            argbest = (a.copy(), members[k].copy())
    return best, argbest
