"""Dense primal-dual interior-point solver for small block-diagonal SDPs.

Standard form: minimize sum_b <C_b, X_b> subject to sum_b <A_ib, X_b> = b_i
and every block X_b positive semidefinite. The solver runs a homogeneous
self-dual embedding with Nesterov-Todd scaling and a Mehrotra
predictor-corrector step, solving the reduced Newton system through a dense
Schur complement (Cholesky with a diagonal perturbation fallback). This gives
clean status semantics: optimal, infeasible (Farkas certificate attached),
unbounded (improving ray attached), or stalled.

The blocks, or the members they are merged into (see below), are grouped by
side length once per solve. Every iterate (X, S, the dual residual, the
corrector and the Newton directions) is one flat buffer of full k x k
member matrices laid out group by group, so a group's (members, k, k)
stack is a reshape of the buffer, and each iteration works on those stacks
with numpy's batched Cholesky, SVD, eigvalsh and matmul. SOS Gram programs
have many blocks of one size, and per-call overhead on their small blocks
would otherwise dominate. Since every data matrix is symmetric,
<A, X> = vec(A) . vec(X): the constraint map, its adjoint and the inner
products are single mat-vecs and dot products on the flat buffers, with no
svec packing of the iterates.

The constraint matrices are stacked in that full layout once per solve,
after row elimination and scaling. The scaled rows svec(G^T A_i G) of the
Schur complement keep the half-size svec form, which halves the width of
their product. They are formed a few members at a time, so their
temporaries stay within those of the largest block. Each congruence
G^T M G (rows, objective and dual residual alike) is symmetrized before its
svec is taken. svec reads one triangle, and the rounding asymmetry of a
congruence grows like |G|^2 near the boundary: left in, it makes the Newton
system inconsistent and the iteration stalls. The Schur complement is
factored and solved by LAPACK's dpotrf and dpotrs called directly; scipy's
checking wrappers cost about ten times a small solve. scipy.linalg is
imported where it is called (the Schur branch of solve, _chol_jittered and
_independent_rows), not at module level: it was about two thirds of the time
of importing the package, and closed-form certificates, sampled witnesses
and solves that the facial reduction settles never factor a matrix or
eliminate a row. The NT scaling takes
G^-1 from the same SVD as G, with no matrix inverse. The step length is
taken in the NT-scaled space, where X and S are both diag(d): it is the
smallest of 1 / -lambda_min over D^-1/2 G^-1 dX G^-T D^-1/2 and
D^-1/2 G^T dS G D^-1/2, both stacked into one batched eigvalsh per group.
The denominator that eliminates dtau is the difference of two terms that
grow like |G|^4 near the boundary; it is floored at their rounding error,
since below it dtau would be noise.

The presolve runs in this order: stack the svec rows once, checking the
data on the stacks, reduce to the diagonal face, eliminate dependent rows.
The diagonal facial reduction (Loefberg 2009, "Pre- and post-processing
sum-of-squares programs in practice"; Permenter and Parrilo 2018, "Partial
facial reduction") reads a face of the cone off the rows' sparsity pattern. A row
whose live entries are all diagonal and of one sign reads
sum_i a_i X_ii = b_i with every X_ii >= 0: with b_i = 0 it forces those
X_ii, and with them their rows and columns of X, to zero, and forcing
repeats until no row forces an index. Such a row with b_i of the other sign,
or a row with no live entry left and b_i != 0, has no PSD solution. Every
test compares an entry or a right-hand side with zero exactly. The program
is taken as stated, so an exact zero or sign is a fact about it, not an
estimate: the reduction removes no direction that a feasible X can use, and
its infeasibility is a proof. Dependent rows are then found by pivoted-QR
row elimination and checked for consistency. Either proof of infeasibility
returns before the first iteration, with a "facial-reduction" certificate
naming the forcing and contradicting rows or a "linear-inconsistency" one
naming the dependent rows.

Otherwise the blocks that keep an index are solved on the face, with the
emptied ones dropped, and the solution is lifted back: X gets zero rows and
columns at the removed indices, y is 0 on the rows left with no live entry
(row elimination drops them), and S is the solver's slack on the face and
C - A^T y at every entry in a removed row or column. Off the face the dual
constraint is void, since the dual cone of a face is larger than the PSD
cone, so S need not be PSD there. A Farkas certificate must hold on the
full cone, so its y also takes multiples of the forcing rows (b = 0 there,
so b^T y = 1 and S = -A^T y stay exact), last round first, each large
enough by a Schur-complement bound to make S positive definite on the
indices of its round and of every later one. An improving ray is lifted
like X. Rows are scaled by their full norms and the objective's norm is the
full one, so the residuals and gap measured on the face are those of the
full problem.

The blocks left after the presolve are then packed into members, the PSD
blocks the iteration runs on. Whole size groups, the one of least total side
first, are merged into one member, along its diagonal, while the member's
side stays at or below MERGE_MAX_SIDE; merging two groups or more is what
pays, as one group is already one set of batched calls. A small SOS program,
such as [4, 3, 1, 1], then runs each iteration as one group of one member,
and the per-group call overhead, not arithmetic, is what dominates at those
sizes; [9, 6, 5, 5, 5] and larger keep the grouping by size. This is sound
because every data matrix is block-diagonal: the merged program's rows and
objective are 0 between its blocks, the diagonal blocks of a PSD member are
PSD, S = C - A^T y is block-diagonal at every y, and the diagonal blocks of
an improving ray form one. X, S, the Farkas slack and the ray are read back
off each member's diagonal block by block, so the face's lift, the
certificates and every diagnostic see the blocks as stated. The threshold is
measured: on this solver, with BLAS on one thread, merging two size groups
paid up to a merged side of about 20 and lost beyond it (time ratio 1.07 at
23, 1.3 at 29 to 31). 14 stops below the first merge that the order-2
hyperbola program, [9, 6, 5, 5, 5], would make: its optimal X is not unique,
and merging its 9 and 6 moved X by up to 1.6e-5.

Pure feasibility problems (zero objective), such as the certificate
programs, are solved as stated, with no regularizing objective. With c = 0
every feasible point is optimal, and the embedding's iterates head for a
maximally complementary one, in the relative interior of the feasible set
(de Klerk, Roos and Terlaky, 1997): a solution of maximal rank, whose Gram
matrices sit as far inside the cone as the program allows. For trace X = 1
on a 2x2 block that is X = I/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Sequence

import numpy as np

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200
ROW_ELIMINATION_THRESHOLD = 1e-10
_SYMMETRY_TOL = 1e-9
# Size groups are merged into one PSD block while its side stays at or below
# this; see _Layout and the module docstring.
MERGE_MAX_SIDE = 14
_STEP_SHRINK = 0.99
_EPS = float(np.finfo(float).eps)


@dataclass
class SdpProblem:
    """Block-diagonal SDP data in primal standard form.

    block_dims: side length of each PSD block.
    objective: per-block symmetric cost matrices, keyed by block index;
        missing blocks contribute zero cost.
    equalities: list of (mats, rhs) pairs where mats maps block index to a
        symmetric coefficient matrix, meaning sum_b <mats[b], X_b> = rhs.
    """

    block_dims: Sequence[int]
    objective: dict[int, np.ndarray]
    equalities: list[tuple[dict[int, np.ndarray], float]]

    def validate(self) -> None:
        """Raise ValueError naming the first malformed matrix or right-hand side (see _stack_problem)."""
        _stack_problem(self, _Layout(self.block_dims))


@dataclass
class SdpSolution:
    status: str  # optimal | infeasible | unbounded | stalled
    X: list[np.ndarray]
    S: list[np.ndarray]
    y: np.ndarray
    objective_value: float
    primal_residual: float
    dual_residual: float
    relative_gap: float
    iterations: int
    certificate: dict | None = None
    diagnostics: dict = field(default_factory=dict)


# -- svec machinery and the flat layout ---------------------------------------------

_SVEC_META: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _svec_meta(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    meta = _SVEC_META.get(k)
    if meta is None:
        rows, cols = np.triu_indices(k)
        scale = np.where(rows == cols, 1.0, math.sqrt(2.0))
        meta = (rows, cols, scale)
        _SVEC_META[k] = meta
    return meta


def _svec(mat: np.ndarray) -> np.ndarray:
    """svec of a (..., k, k) stack, giving (..., k(k+1)/2)."""
    rows, cols, scale = _svec_meta(mat.shape[-1])
    return mat[..., rows, cols] * scale


def _svec_sym(mat: np.ndarray) -> np.ndarray:
    """svec of the symmetric part of a (..., k, k) stack.

    svec reads one triangle; a congruence G^T M G computed in floating point
    is not exactly symmetric, and near the boundary the asymmetry, which grows
    like |G|^2, is no longer small against the symmetric part.
    """
    rows, cols, scale = _svec_meta(mat.shape[-1])
    return (mat[..., rows, cols] + mat[..., cols, rows]) * (0.5 * scale)


def _t(mats: np.ndarray) -> np.ndarray:
    # the method, not np.swapaxes: its dispatch wrapper costs more than the
    # transpose of a small block, and this runs tens of times per iteration
    return mats.swapaxes(-1, -2)


def _sym(mats: np.ndarray) -> np.ndarray:
    return 0.5 * (mats + _t(mats))


def _sym_into(mats: np.ndarray, out: np.ndarray) -> None:
    np.add(mats, _t(mats), out=out)
    out *= 0.5


class _Layout:
    """Blocks packed into members, grouped by side length, and their place in the solver's vectors.

    The problem data are first stacked as svec rows in block order:
    ``offsets`` and ``sizes`` place each block there, and row elimination
    works on those rows. The indices of all blocks are numbered in one run,
    each block's from ``index_starts``: ``diagonal`` holds the svec position of
    each diagonal entry, and ``entries`` the two indices of every svec entry.

    The solver iterates on members, PSD blocks of side ``sides``: a member is
    one block, or the small blocks merged along its diagonal (see
    ``MERGE_MAX_SIDE``). It keeps every iterate as one flat buffer of full
    side x side member matrices, laid out group by group, with members grouped
    by side, groups in the order of their first block and members in block
    order. ``spans`` holds each group's slice of that buffer, whose reshape to
    (members, k, k) is the group's stack, and ``places`` the start, side and
    diagonal offset of each block's member. The scaled rows of the Schur
    complement stay in svec form, ``svec_total`` wide, group by group from
    ``svec_starts``.
    """

    def __init__(self, dims: Sequence[int]):
        self.dims = [int(k) for k in dims]
        self.sizes = [k * (k + 1) // 2 for k in self.dims]
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)]).astype(int)
        self.total = int(self.offsets[-1])
        self.index_starts = np.cumsum([0] + self.dims)[:-1].tolist()
        by_size: dict[int, list[int]] = {}
        for i, k in enumerate(self.dims):
            by_size.setdefault(k, []).append(i)
        # whole size groups, least total side first, go into one member while its side stays small
        merged: list[int] = []
        count = side = 0
        for k, idx in sorted(by_size.items(), key=lambda group: group[0] * len(group[1])):
            if side + k * len(idx) > MERGE_MAX_SIDE:
                break
            merged += idx
            count, side = count + 1, side + k * len(idx)
        self.merged = count > 1  # one group alone is merged already
        in_merged = set(merged) if self.merged else set()
        members = [[i] for i in range(len(self.dims)) if i not in in_merged]
        if self.merged:
            members.append(sorted(merged))
        members.sort()
        self.sides = [sum(self.dims[i] for i in m) for m in members]
        groups: dict[int, list[int]] = {}
        for j, k in enumerate(self.sides):
            groups.setdefault(k, []).append(j)
        self.groups = list(groups.items())
        self.places: list[tuple[int, int, int]] = [(0, 0, 0)] * len(self.dims)
        self.spans: list[tuple[int, int]] = []
        self.svec_starts: list[int] = []
        flat = svec = 0
        for k, idx in self.groups:
            for j, m in enumerate(idx):
                diag = 0
                for i in members[m]:
                    self.places[i] = (flat + j * k * k, k, diag)
                    diag += self.dims[i]
            self.spans.append((flat, flat + len(idx) * k * k))
            self.svec_starts.append(svec)
            flat += len(idx) * k * k
            svec += len(idx) * k * (k + 1) // 2
        self.flat, self.svec_total = flat, svec
        # (r, r) sits at r k - r (r - 1) / 2 in a block's row-major upper triangle
        self.diagonal = np.array(
            [lo + r * k - r * (r - 1) // 2 for lo, k in zip(self.offsets.tolist(), self.dims) for r in range(k)],
            dtype=int,
        )

    @cached_property
    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(
            np.concatenate([start + _svec_meta(k)[part] for start, k in zip(self.index_starts, self.dims)])
            for part in (0, 1)
        )

    def stacks(self, vec: np.ndarray) -> list[np.ndarray]:
        """Flat vectors (..., flat) -> one (..., members, k, k) view per group."""
        lead = vec.shape[:-1]
        return [
            vec[..., lo:hi].reshape(lead + (len(idx), k, k))
            for (k, idx), (lo, hi) in zip(self.groups, self.spans)
        ]

    def blocks(self, vec: np.ndarray) -> list[np.ndarray]:
        """Flat vector -> a view of each block, in the problem's block order."""
        return [
            vec[at : at + side * side].reshape(side, side)[diag : diag + k, diag : diag + k]
            for (at, side, diag), k in zip(self.places, self.dims)
        ]

    def unpack(self, rows: np.ndarray) -> np.ndarray:
        """svec rows in block order (..., total) -> full-matrix rows in the flat layout.

        Entries of a merged member between two of its blocks are 0.
        """
        out = (np.zeros if self.merged else np.empty)(rows.shape[:-1] + (self.flat,))
        for k, lo, size, (at, side, diag) in zip(self.dims, self.offsets, self.sizes, self.places):
            r, c, scale = _svec_meta(k)
            vals = rows[..., lo : lo + size] / scale
            out[..., at + (diag + r) * side + diag + c] = vals
            out[..., at + (diag + c) * side + diag + r] = vals
        return out


def _stack_problem(problem: SdpProblem, layout: _Layout) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """svec rows of the equalities, their right-hand sides and the objective, in block order.

    Raises ValueError naming the first malformed matrix or right-hand side.
    Matrices are taken in order, the objective's and then each equality's,
    and each is checked for block index, shape, finite entries and symmetry,
    in that order; the last two on the stack the block's rows are read from.
    """
    if len(problem.block_dims) == 0:
        raise ValueError("at least one PSD block is required")
    for k in problem.block_dims:
        if int(k) < 1:
            raise ValueError(f"block dimension must be positive, got {k}")
    # (row, block, matrix), the row an equality's index or -1 for the objective
    matrices = [problem.objective] + [mats for mats, _ in problem.equalities]
    entries = [(row, b, mat) for row, mats in enumerate(matrices, start=-1) for b, mat in mats.items()]
    faults: list[str | None] = [None] * len(entries)
    by_block: dict[int, list[int]] = {}
    for e, (_, b, mat) in enumerate(entries):
        if not 0 <= b < len(layout.dims):
            faults[e] = f"block index {b} out of range"
            break  # no later matrix can be the first fault
        k = layout.dims[b]
        if np.shape(mat) != (k, k):
            faults[e] = f"block {b} matrix has shape {np.shape(mat)}, expected {(k, k)}"
            break
        by_block.setdefault(b, []).append(e)
    a = np.zeros((len(problem.equalities) + 1, layout.total))  # the objective's row last, as row -1
    for b, members in by_block.items():
        stack = np.asarray([entries[e][2] for e in members], dtype=float)
        finite = np.isfinite(stack).all(axis=(1, 2))
        with np.errstate(invalid="ignore"):  # inf - inf, in a matrix already flagged
            asym = np.abs(stack - _t(stack)).max(axis=(1, 2))
        skew = asym > _SYMMETRY_TOL * (1.0 + np.abs(stack).max(axis=(1, 2)))
        for i in np.flatnonzero(~finite | skew):
            faults[members[i]] = f"block {b} matrix " + ("is not symmetric" if finite[i] else "has a non-finite entry")
        a[[entries[e][0] for e in members], layout.offsets[b] : layout.offsets[b] + layout.sizes[b]] = _svec(stack)
    for (row, _, _), fault in zip(entries, faults):
        if fault is not None:
            raise ValueError(("objective" if row < 0 else f"equality {row}") + f": {fault}")
    rhs = np.array([value for _, value in problem.equalities], dtype=float)
    bad = np.flatnonzero(~np.isfinite(rhs))
    if bad.size:
        raise ValueError(f"equality {bad[0]}: rhs is not finite")
    return a[:-1], rhs, a[-1].copy()


_Round = tuple[list[int], np.ndarray, np.ndarray]  # forcing rows, their signs, the indices they force out


def _diagonal_face(a: np.ndarray, b: np.ndarray, layout: _Layout) -> tuple[np.ndarray, list[_Round], list[int]]:
    """Diagonal facial reduction of the svec rows: (alive, forcing rounds, contradicting rows).

    ``alive`` flags each block index, numbered as in ``layout.diagonal``, that
    no row forces out. A row whose live entries are all diagonal and of one
    sign reads sum_i a_i X_ii = b with every X_ii >= 0. With b = 0 it forces
    those X_ii to zero, and with them their rows and columns, since X is
    PSD; this repeats, one round at a time, until no row forces a live index.
    With b of the other sign, or with no live entry left and b != 0, the row
    has no PSD solution, and the rounds found so far are returned as they stand.
    """
    alive = np.ones(len(layout.diagonal), dtype=bool)
    sub, diag = a, layout.diagonal  # the live columns, and the diagonal ones among them
    rounds: list[_Round] = []
    while True:
        on_diag = sub[:, diag]
        n_live = np.count_nonzero(sub, axis=1)
        # every live entry diagonal and positive, or negative; an empty row is both
        only_pos = n_live == np.count_nonzero(on_diag > 0, axis=1)
        only_neg = n_live == np.count_nonzero(on_diag < 0, axis=1)
        contradicting = (only_pos & (b < 0)) | (only_neg & (b > 0))
        if contradicting.any():
            return alive, rounds, np.flatnonzero(contradicting).tolist()
        force = (only_pos | only_neg) & (n_live > 0) & (b == 0)
        if not force.any():
            return alive, rounds, []
        gone = np.flatnonzero(alive)[(on_diag[force] != 0).any(axis=0)]
        rounds.append((np.flatnonzero(force).tolist(), np.where(only_pos[force], 1.0, -1.0), gone))
        alive[gone] = False
        rows, cols = layout.entries
        live = alive[rows] & alive[cols]
        sub, diag = a[:, live], np.flatnonzero((rows == cols)[live])


class _Face:
    """The face the diagonal reduction leaves, and the lift of its blocks back to the full ones.

    ``kept`` lists the surviving indices of each block, ``sizes`` their
    number, and ``live`` flags the svec entries between two of them; the
    blocks that keep an index, in block order, make up the reduced problem,
    whose svec rows are the ``live`` columns of the full ones.
    """

    def __init__(self, layout: _Layout, alive: np.ndarray, rounds: list[_Round], a: np.ndarray, c: np.ndarray):
        self.layout, self.alive, self.rounds = layout, alive, rounds
        self.kept = [np.flatnonzero(alive[at : at + k]) for at, k in zip(layout.index_starts, layout.dims)]
        self.sizes = [len(idx) for idx in self.kept]
        rows, cols = layout.entries
        self.live = alive[rows] & alive[cols]
        # off the face, S = C - A^T y is all the lift needs of the data
        self.a_dead, self.c_dead = a[:, ~self.live], c[~self.live]

    def lift(self, blocks: list[np.ndarray], y: np.ndarray | None = None, objective: bool = True) -> list[np.ndarray]:
        """Reduced blocks -> full blocks.

        Off the face the full blocks hold 0, or with y the slack C - A^T y
        (-A^T y without the objective, for a Farkas certificate).
        """
        vec = np.zeros(self.layout.total)
        if y is not None:
            vec[~self.live] = (self.c_dead if objective else 0.0) - self.a_dead.T @ y
        full = self.layout.blocks(self.layout.unpack(vec))
        reduced = iter(blocks)
        for mat, idx in zip(full, self.kept):
            if idx.size:
                mat[np.ix_(idx, idx)] = next(reduced)
        return full

    def farkas(self, blocks: list[np.ndarray], y: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """A Farkas certificate (y, S) of the face -> one of the full problem; y is updated in place.

        Signed by its live entries, a forcing row is positive on the diagonal
        of the indices its round forced out and zero between those and every
        index alive after the round, so its multiple in y only lifts them.
        Each round takes twice the least multiple that passes the Schur test
        against the indices settled before it, and at least one that lifts
        its diagonal by S's largest entry, so no index is left at zero.
        """
        full = self.lift(blocks, y, objective=False)
        size = max(float(np.abs(mat).max()) for mat in full if mat.size)
        settled = self.alive.copy()  # the face, then every index forced out in a later round
        for rows, signs, gone in reversed(self.rounds):
            vec = np.zeros(self.layout.total)
            vec[~self.live] = signs @ self.a_dead[rows]
            push = self.layout.blocks(self.layout.unpack(vec))
            tau = 0.0
            for mat, step, at, k in zip(full, push, self.layout.index_starts, self.layout.dims):
                new, old = gone[(at <= gone) & (gone < at + k)] - at, np.flatnonzero(settled[at : at + k])
                if new.size:
                    cross = mat[np.ix_(old, new)]
                    # least squares, as the settled part may be singular where S is only PSD
                    reach = np.linalg.lstsq(mat[np.ix_(old, old)], cross, rcond=None)[0]
                    deficit = cross.T @ reach - mat[np.ix_(new, new)]
                    gain = np.diag(step)[new]
                    scaled = deficit / np.sqrt(gain[:, None] * gain[None, :])
                    tau = max(tau, 2.0 * float(np.linalg.eigvalsh(scaled)[-1]), size / float(gain.min()))
            y[rows] -= tau * signs
            for mat, step in zip(full, push):
                mat += tau * step
            settled[gone] = True
        return y, full


def _independent_rows(a: np.ndarray, b: np.ndarray) -> tuple[list[int], list[int], bool]:
    """Pick a maximal independent row subset; flag inconsistent dependent rows."""
    p = a.shape[0]
    if p == 0:
        return [], [], False
    from scipy.linalg import qr

    norms = np.linalg.norm(a, axis=1)
    _, r, piv = qr(a.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r)) if r.size else np.array([])
    kept: list[int] = []
    for k in range(min(len(diag), p)):
        row = piv[k]
        if diag[k] > ROW_ELIMINATION_THRESHOLD * max(norms[row], 1e-300):
            kept.append(int(row))
        else:
            break
    kept_set = set(kept)
    dropped = [i for i in range(p) if i not in kept_set]
    inconsistent = False
    if dropped:
        scale = 1.0 + float(np.max(np.abs(b))) if b.size else 1.0
        if kept:
            coeffs, *_ = np.linalg.lstsq(a[kept].T, a[dropped].T, rcond=None)
            predicted = coeffs.T @ b[kept]
        else:
            predicted = np.zeros(len(dropped))
        if np.max(np.abs(b[dropped] - predicted)) > 1e-8 * scale:
            inconsistent = True
    return sorted(kept), dropped, inconsistent


# -- interior-point core -------------------------------------------------------


class _NumericalFailure(Exception):
    pass


def _chol_jittered(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of mat, with a growing diagonal perturbation where it needs one."""
    from scipy.linalg.lapack import dpotrf

    n = mat.shape[0]
    scale = max(float(np.trace(mat)) / n, 1e-300)
    jitter = 0.0
    for _ in range(8):
        shifted = mat + jitter * np.eye(n) if jitter else mat
        # clean=1 zeroes the strict upper triangle, which dpotrf leaves as it was
        factor, info = dpotrf(shifted, lower=1, clean=1)
        if info == 0:
            return factor
        jitter = max(jitter * 100.0, 1e-14 * scale)
    raise _NumericalFailure("Cholesky failed despite diagonal perturbation")


def _chol_lower(mats: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a (members, k, k) stack.

    Only when the stacked factorization fails is each member factored on its
    own, with a growing diagonal perturbation where it needs one.
    """
    try:
        return np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        return np.stack([_chol_jittered(m) for m in mats])


def _max_step_scaled(hat: np.ndarray, rsqrt_d: np.ndarray) -> float:
    """Largest step keeping D + step * hat PSD for every member of the stack.

    ``hat`` is a direction in the NT-scaled space, where the iterate is
    diag(d); the step limit is 1 / -lambda_min(D^-1/2 hat D^-1/2).
    """
    lam_min = float(np.min(np.linalg.eigvalsh(hat * rsqrt_d[:, :, None] * rsqrt_d[:, None, :])[:, 0]))
    if lam_min >= -1e-14:
        return np.inf
    return 1.0 / (-lam_min)


def _max_step_scalar(value: float, direction: float) -> float:
    if direction >= 0:
        return np.inf
    return value / (-direction)


def solve(
    problem: SdpProblem,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SdpSolution:
    """Solve the SDP to the requested tolerance.

    On status "optimal" the returned X, y, S satisfy primal residual, dual
    residual, and relative duality gap all <= tol. On "infeasible" or
    "unbounded" the certificate field carries the Farkas witness or the
    improving ray.
    """
    if not 0.0 < tol <= 1e-2:
        raise ValueError(f"tol must lie in (0, 1e-2], got {tol}")
    layout = _Layout(problem.block_dims)
    a_svec, b_full, c_svec = _stack_problem(problem, layout)
    alive, rounds, contradicting = _diagonal_face(a_svec, b_full, layout)
    forcing = [row for rows, _, _ in rounds for row in rows]
    face = _Face(layout, alive, rounds, a_svec, c_svec)
    diagnostics: dict = {
        "dropped_rows": [],
        "n_equalities": len(b_full),
        "reduced_blocks": list(face.sizes),
    }
    certificate = None
    if contradicting:
        certificate = {"type": "facial-reduction", "forcing_rows": forcing, "rows": contradicting}
    elif alive.any():
        a_live = a_svec[:, face.live]
        kept, dropped, inconsistent = _independent_rows(a_live, b_full)
        diagnostics["dropped_rows"] = dropped
        if inconsistent:
            certificate = {"type": "linear-inconsistency", "forcing_rows": forcing, "rows": dropped}
    if certificate is not None or not alive.any():
        # Settled before the first iteration: infeasible, or, with every index
        # forced out and every row 0 = 0, X = 0 as the only feasible point.
        feasible = certificate is None
        return SdpSolution(
            status="optimal" if feasible else "infeasible",
            X=[np.zeros((k, k)) for k in layout.dims],
            S=layout.blocks(layout.unpack(c_svec)) if feasible else [np.zeros((k, k)) for k in layout.dims],
            y=np.zeros(len(b_full)),
            objective_value=0.0 if feasible else float("nan"),
            primal_residual=0.0 if feasible else float("inf"),
            dual_residual=0.0 if feasible else float("inf"),
            relative_gap=0.0 if feasible else float("inf"),
            iterations=0,
            certificate=certificate,
            diagnostics=diagnostics,
        )
    # Row normalization: conditions the Schur complement without moving X;
    # dual multipliers are unscaled before they are returned. Rows are scaled
    # by their full norms and norm_c is that of the full objective, so the
    # residuals measured on the face are those of the full problem. From here
    # on the rows and the objective are full matrices in the flat layout of
    # the face.
    row_scale = np.maximum(np.linalg.norm(a_svec, axis=1)[kept], 1e-300)
    norm_c = 1.0 + float(np.linalg.norm(layout.unpack(c_svec)))
    del a_svec
    a_live = a_live[kept]
    layout = _Layout([k for k in face.sizes if k])
    a = layout.unpack(a_live)
    del a_live  # else it would stay alive, beside a, through the whole solve
    c = layout.unpack(c_svec[face.live])
    a /= row_scale[:, None]
    b = b_full[kept] / row_scale
    p = a.shape[0]
    nu = sum(layout.dims)
    norm_b = 1.0 + float(np.linalg.norm(b))
    cert_tol = max(10.0 * tol, 1e-10)
    # The scaled rows of a group are formed a few members at a time, so their
    # temporaries stay within p * k^2 of the largest block.
    row_budget = max(layout.sides) ** 2
    a_stacks = layout.stacks(a)
    c_stacks = layout.stacks(c)
    util = np.empty((p, layout.svec_total))

    x = np.zeros(layout.flat)
    for block in layout.blocks(x):
        np.fill_diagonal(block, 1.0)
    s = x.copy()
    x_stacks = layout.stacks(x)
    s_stacks = layout.stacks(s)
    y = np.zeros(p)
    tau = 1.0
    kappa = 1.0
    mu0 = (x @ s + tau * kappa) / (nu + 1)

    def _expand_y(yv: np.ndarray) -> np.ndarray:
        full = np.zeros(len(b_full))
        if p:
            full[kept] = yv / row_scale
        return full

    def _solution(
        state: tuple[np.ndarray, np.ndarray, np.ndarray, float],
        status: str,
        iterations: int,
        certificate: dict | None = None,
    ) -> SdpSolution:
        xs, ss, ys, stau = state
        if stau > 1e-300:
            xs, ss, ys = xs / stau, ss / stau, ys / stau
        obj = float(c @ xs)
        pres = float(np.linalg.norm(a @ xs - b)) / norm_b
        dres = float(np.linalg.norm(a.T @ ys + ss - c)) / norm_c
        dobj = float(b @ ys)
        gap = abs(obj - dobj) / (1.0 + abs(obj) + abs(dobj))
        y_full = _expand_y(ys)
        return SdpSolution(
            status=status,
            X=face.lift([_sym(m) for m in layout.blocks(xs)]),
            S=face.lift([_sym(m) for m in layout.blocks(ss)], y_full),
            y=y_full,
            objective_value=obj,
            primal_residual=pres,
            dual_residual=dres,
            relative_gap=gap,
            iterations=iterations,
            certificate=certificate,
            diagnostics=diagnostics,
        )

    def _snapshot() -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        return (x.copy(), s.copy(), y.copy(), tau)

    best_state = _snapshot()
    best_score = np.inf

    def _finish(status: str, iterations: int) -> SdpSolution:
        # Fall back to the best measured iterate; its score is above tol,
        # since an iterate that meets tol returns optimal from the loop.
        return _solution(best_state, status, iterations)

    slow_steps = 0
    iteration = 0
    try:
        for iteration in range(1, max_iter + 1):
            ax = a @ x
            aty = a.T @ y
            rp = ax - b * tau
            rd = aty + s - c * tau
            by = float(b @ y)
            cx = float(c @ x)
            rg = by - cx - kappa
            mu = (x @ s + tau * kappa) / (nu + 1)

            err_p = float(np.linalg.norm(rp)) / tau / norm_b
            err_d = float(np.linalg.norm(rd)) / tau / norm_c
            pobj = cx / tau
            dobj = by / tau
            gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
            score = max(err_p, err_d, gap)
            if not math.isfinite(score + mu):  # overflow in finite but huge data
                raise _NumericalFailure("non-finite iterate")
            if score < best_score:
                best_score = score
                best_state = _snapshot()
            if err_p <= tol and err_d <= tol and gap <= tol:
                return _solution(_snapshot(), "optimal", iteration - 1)

            if kappa > tau and by > 0.0:
                res_inf = float(np.linalg.norm(aty + s)) / by
                if res_inf <= cert_tol * norm_c:
                    y_cert, s_cert = face.farkas([m / by for m in layout.blocks(s)], _expand_y(y / by))
                    cert = {"type": "primal-infeasibility", "y": y_cert, "S": s_cert, "residual": res_inf}
                    return _solution(_snapshot(), "infeasible", iteration - 1, cert)
            if kappa > tau and cx < 0.0:
                res_unb = float(np.linalg.norm(ax)) / (-cx)
                if res_unb <= cert_tol * norm_b:
                    cert = {
                        "type": "unboundedness-ray",
                        "X": face.lift([m / (-cx) for m in layout.blocks(x)]),
                        "residual": res_unb,
                    }
                    return _solution(_snapshot(), "unbounded", iteration - 1, cert)

            if mu < 1e-18 * max(1.0, mu0):
                return _finish("stalled", iteration - 1)

            # Nesterov-Todd scaling per group: G^{-1} X G^{-T} = G^T S G = diag(d).
            # With Ls^T Lx = U diag(d) V^T: G = Lx V D^-1/2, G^-1 = D^-1/2 U^T Ls^T.
            gs: list[np.ndarray] = []
            ginvs: list[np.ndarray] = []
            dvals: list[np.ndarray] = []
            for xm, sm in zip(x_stacks, s_stacks):
                lx = _chol_lower(xm)
                ls = _chol_lower(sm)
                u, sig, vt = np.linalg.svd(_t(ls) @ lx)
                sig = np.maximum(sig, 1e-150)
                sqrt_sig = np.sqrt(sig)
                gs.append((lx @ _t(vt)) / sqrt_sig[:, None, :])
                ginvs.append((_t(u) / sqrt_sig[:, :, None]) @ _t(ls))
                dvals.append(sig)
            # twice over, so one eigvalsh per group covers both dX and dS
            rsqrt_d2 = [np.concatenate([r, r]) for r in (1.0 / np.sqrt(d) for d in dvals)]

            # Scaled constraint rows svec(G^T A_i G) and Schur complement.
            for (k, idx), start, am, g in zip(layout.groups, layout.svec_starts, a_stacks, gs):
                size = k * (k + 1) // 2
                chunk = max(1, row_budget // (k * k))
                for first in range(0, len(idx), chunk):
                    gm = g[first : first + chunk]
                    lo, width = start + first * size, len(gm) * size
                    gag = _t(gm) @ am[:, first : first + chunk] @ gm
                    util[:, lo : lo + width] = _svec_sym(gag).reshape(p, width)
            ctil = np.concatenate([_svec_sym(_t(g) @ cm @ g).ravel() for g, cm in zip(gs, c_stacks)])
            rdtil = np.concatenate(
                [_svec_sym(_t(g) @ rm @ g).ravel() for g, rm in zip(gs, layout.stacks(rd))]
            )

            if p:
                from scipy.linalg.lapack import dpotrs

                m_schur = util @ util.T
                factor = _chol_jittered(m_schur)

                def schur_solve(rhs: np.ndarray) -> np.ndarray:
                    z = dpotrs(factor, rhs, lower=1)[0]
                    # one refinement step recovers digits lost to conditioning
                    z = z + dpotrs(factor, rhs - m_schur @ z, lower=1)[0]
                    return z

                v_wc = util @ ctil
                z2 = schur_solve(v_wc + b)
            else:
                v_wc = np.zeros(0)
                z2 = np.zeros(0)

                def schur_solve(rhs: np.ndarray) -> np.ndarray:
                    return np.zeros(0)

            # (b - v_wc) @ z2 cancels against |ctil|^2, and both grow like |G|^4 as
            # the iterates near the boundary. Below the rounding error of their
            # sum its sign and size are noise that would send dtau anywhere, so
            # the sum is floored there.
            ctil_sq = float(ctil @ ctil)
            denom = max(float((b - v_wc) @ z2) + ctil_sq, layout.svec_total * _EPS * ctil_sq) + kappa / tau

            def newton(rc: np.ndarray, rc_tk: float):
                """Newton direction, with its X and S parts also in the scaled space."""
                r1 = -rp - a @ rc - util @ rdtil
                r2 = float(-rg + c @ rc + ctil @ rdtil + rc_tk / tau)
                z1 = schur_solve(r1)
                dtau = (r2 - float((b - v_wc) @ z1)) / denom
                dy = z1 + z2 * dtau
                ds = -rd - a.T @ dy + c * dtau
                dx = np.empty(layout.flat)
                dxhat, dshat = [], []
                for g, gi, rcm, dsm, dxm in zip(gs, ginvs, layout.stacks(rc), layout.stacks(ds), layout.stacks(dx)):
                    dsh = _t(g) @ dsm @ g
                    _sym_into(rcm - g @ dsh @ _t(g), dxm)
                    dxhat.append(gi @ dxm @ _t(gi))
                    dshat.append(dsh)
                dkappa = (rc_tk - kappa * dtau) / tau
                return dx, dy, ds, dtau, dkappa, dxhat, dshat

            def max_step(dxhat, dshat, dtau, dkappa) -> float:
                step = min(_max_step_scalar(tau, dtau), _max_step_scalar(kappa, dkappa))
                for dxh, dsh, r in zip(dxhat, dshat, rsqrt_d2):
                    step = min(step, _max_step_scaled(np.concatenate([dxh, dsh]), r))
                return step

            # Predictor (affine direction).
            dxa, dya, dsa, dta, dka, dxhat_a, dshat_a = newton(-x, -tau * kappa)
            alpha_aff = min(1.0, max_step(dxhat_a, dshat_a, dta, dka))
            mu_aff = (
                (x + alpha_aff * dxa) @ (s + alpha_aff * dsa) + (tau + alpha_aff * dta) * (kappa + alpha_aff * dka)
            ) / (nu + 1)
            sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3))

            # Corrector with Mehrotra second-order term in the scaled space.
            rc = np.empty(layout.flat)
            for (k, _), g, d, dxh, dsh, rcm in zip(layout.groups, gs, dvals, dxhat_a, dshat_a, layout.stacks(rc)):
                rm = -0.5 * (dxh @ dsh + dsh @ dxh)
                diag = np.arange(k)
                rm[:, diag, diag] += sigma * mu - d**2
                e = 2.0 * rm / (d[:, :, None] + d[:, None, :])
                _sym_into(g @ e @ _t(g), rcm)
            rc_tk = sigma * mu - tau * kappa - dta * dka
            dx, dy, ds, dtau, dkappa, dxhat, dshat = newton(rc, rc_tk)
            alpha = min(1.0, _STEP_SHRINK * max_step(dxhat, dshat, dtau, dkappa))
            if alpha < 1e-7:
                slow_steps += 1
                if slow_steps >= 3:
                    return _finish("stalled", iteration)
            else:
                slow_steps = 0

            # in place, so the group stacks keep viewing the iterates
            x += alpha * dx
            s += alpha * ds
            y += alpha * dy
            tau = float(tau + alpha * dtau)
            kappa = float(kappa + alpha * dkappa)
    # LinAlgError: a batched SVD or eigvalsh met an overflowed iterate or direction
    except (_NumericalFailure, np.linalg.LinAlgError) as exc:
        diagnostics["failure"] = str(exc)
        return _finish("stalled", iteration)

    return _finish("stalled", max_iter)


def dump_sdp(problem: SdpProblem, stream: IO[str]) -> None:
    """Write the instance in the sparse text format documented in docs/formats.md.

    One line per upper-triangular nonzero: objective entries as
    ``c <block> <row> <col> <value>`` and equality entries as
    ``a <index> <block> <row> <col> <value>``; indices are zero-based.
    """
    stream.write("sdp 1\n")
    stream.write("blocks " + " ".join(str(int(k)) for k in problem.block_dims) + "\n")
    stream.write(f"nconstraints {len(problem.equalities)}\n")
    for blk in sorted(problem.objective):
        mat = np.asarray(problem.objective[blk])
        for r in range(mat.shape[0]):
            for cidx in range(r, mat.shape[1]):
                if mat[r, cidx] != 0.0:
                    stream.write(f"c {blk} {r} {cidx} {float(mat[r, cidx])!r}\n")
    for i, (mats, rhs) in enumerate(problem.equalities):
        if rhs != 0.0:
            stream.write(f"b {i} {float(rhs)!r}\n")
        for blk in sorted(mats):
            mat = np.asarray(mats[blk])
            for r in range(mat.shape[0]):
                for cidx in range(r, mat.shape[1]):
                    if mat[r, cidx] != 0.0:
                        stream.write(f"a {i} {blk} {r} {cidx} {float(mat[r, cidx])!r}\n")
