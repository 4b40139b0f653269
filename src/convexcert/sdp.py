"""Dense primal-dual interior-point solver for small block-diagonal SDPs.

Standard form: minimize sum_b <C_b, X_b> subject to sum_b <A_ib, X_b> = b_i
and every block X_b positive semidefinite. The solver runs a homogeneous
self-dual embedding with Nesterov-Todd scaling and a Mehrotra
predictor-corrector step, solving the reduced Newton system through a dense
Schur complement (Cholesky with a diagonal perturbation fallback). This gives
clean status semantics: optimal, infeasible (Farkas certificate attached),
unbounded (improving ray attached), or stalled.

Blocks are grouped by side length once per solve, and each iteration works
on one stacked (members, k, k) array per group with numpy's batched
Cholesky, SVD, eigvalsh and matmul. SOS Gram programs have many blocks of
one size, and per-call overhead on their small blocks would otherwise
dominate. A group's scaled rows G^T A_i G are formed a few members at a
time, so their temporaries stay within those of the largest block. The step
length is taken in the NT-scaled space, where X and S are both diag(d): it is
the smallest of 1 / -lambda_min over D^-1/2 G^-1 dX G^-T D^-1/2 and
D^-1/2 G^T dS G D^-1/2, both stacked into one batched eigvalsh per group.
The denominator that eliminates dtau is the difference of two terms that
grow like |G|^4 near the boundary; it is floored at their rounding error,
since below it dtau would be noise.

Rank-deficient equality systems are pre-processed by pivoted-QR row
elimination; dropped rows are checked for consistency so that linearly
contradictory inputs are reported as infeasible without touching the cone.

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
from typing import IO, Sequence

import numpy as np
from scipy.linalg import cho_solve, cholesky, qr

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200
ROW_ELIMINATION_THRESHOLD = 1e-10
_SYMMETRY_TOL = 1e-9
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
        if len(self.block_dims) == 0:
            raise ValueError("at least one PSD block is required")
        for k in self.block_dims:
            if int(k) < 1:
                raise ValueError(f"block dimension must be positive, got {k}")
        for label, mats in [("objective", self.objective)] + [
            (f"equality {i}", eq[0]) for i, eq in enumerate(self.equalities)
        ]:
            for b, mat in mats.items():
                if not 0 <= b < len(self.block_dims):
                    raise ValueError(f"{label}: block index {b} out of range")
                k = self.block_dims[b]
                arr = np.asarray(mat, dtype=float)
                if arr.shape != (k, k):
                    raise ValueError(f"{label}: block {b} matrix has shape {arr.shape}, expected {(k, k)}")
                if arr.size and np.max(np.abs(arr - arr.T)) > _SYMMETRY_TOL * (1.0 + np.max(np.abs(arr))):
                    raise ValueError(f"{label}: block {b} matrix is not symmetric")


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
    tau: float
    kappa: float
    certificate: dict | None = None
    diagnostics: dict = field(default_factory=dict)


# -- svec / smat machinery ----------------------------------------------------

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


def _smat(vec: np.ndarray, k: int) -> np.ndarray:
    """Inverse of :func:`_svec` on a (..., k(k+1)/2) stack."""
    rows, cols, scale = _svec_meta(k)
    out = np.zeros(vec.shape[:-1] + (k, k))
    vals = vec / scale
    out[..., rows, cols] = vals
    out[..., cols, rows] = vals
    return out


def _t(mats: np.ndarray) -> np.ndarray:
    # the method, not np.swapaxes: its dispatch wrapper costs more than the
    # transpose of a small block, and this runs tens of times per iteration
    return mats.swapaxes(-1, -2)


def _sym(mats: np.ndarray) -> np.ndarray:
    return 0.5 * (mats + _t(mats))


class _Layout:
    """Blocks grouped by side length, and their place in the stacked svec vector.

    ``offsets`` and ``sizes`` place each block in the block-order svec
    vector of the problem data. The solver keeps each group as one
    (members, k, k) array and its svec vector group by group: ``perm`` maps
    the grouped order to the block order. Groups follow the order of their
    first block and members the block order, so when all sizes differ the
    two orders coincide.
    """

    def __init__(self, dims: Sequence[int]):
        self.dims = [int(k) for k in dims]
        self.sizes = [k * (k + 1) // 2 for k in self.dims]
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)]).astype(int)
        self.total = int(self.offsets[-1])
        members: dict[int, list[int]] = {}
        for i, k in enumerate(self.dims):
            members.setdefault(k, []).append(i)
        self.groups = list(members.items())
        self.perm = np.concatenate(
            [np.arange(self.offsets[i], self.offsets[i + 1]) for _, idx in self.groups for i in idx]
        )
        self.starts = [0]
        for k, idx in self.groups:
            self.starts.append(self.starts[-1] + len(idx) * k * (k + 1) // 2)

    def split(self, vec: np.ndarray) -> list[np.ndarray]:
        """Grouped svec vector -> one (members, k, k) array per group."""
        return [
            _smat(vec[lo:hi].reshape(len(idx), -1), k)
            for (k, idx), lo, hi in zip(self.groups, self.starts, self.starts[1:])
        ]

    def join(self, groups: Sequence[np.ndarray]) -> np.ndarray:
        return np.concatenate([_svec(m).ravel() for m in groups])

    def blocks(self, groups: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Per-group arrays -> list of blocks in the problem's block order."""
        out: list[np.ndarray] = [np.zeros(0)] * len(self.dims)
        for (_, idx), mats in zip(self.groups, groups):
            for i, m in zip(idx, mats):
                out[i] = m
        return out


def _stack_problem(problem: SdpProblem, layout: _Layout) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    p = len(problem.equalities)
    a = np.zeros((p, layout.total))
    b = np.zeros(p)
    for i, (mats, rhs) in enumerate(problem.equalities):
        b[i] = rhs
        for blk, mat in mats.items():
            off = layout.offsets[blk]
            a[i, off : off + layout.sizes[blk]] = _svec(np.asarray(mat, dtype=float))
    c = np.zeros(layout.total)
    for blk, mat in problem.objective.items():
        off = layout.offsets[blk]
        c[off : off + layout.sizes[blk]] = _svec(np.asarray(mat, dtype=float))
    return a, b, c


def _independent_rows(a: np.ndarray, b: np.ndarray) -> tuple[list[int], list[int], bool]:
    """Pick a maximal independent row subset; flag inconsistent dependent rows."""
    p = a.shape[0]
    if p == 0:
        return [], [], False
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
    n = mat.shape[0]
    scale = max(float(np.trace(mat)) / n, 1e-300)
    jitter = 0.0
    for _ in range(8):
        shifted = mat + jitter * np.eye(n) if jitter else mat
        try:
            return cholesky(shifted, lower=True, check_finite=False)
        except np.linalg.LinAlgError:
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
    problem.validate()
    layout = _Layout(problem.block_dims)
    a_full, b_full, c = _stack_problem(problem, layout)
    kept, dropped, inconsistent = _independent_rows(a_full, b_full)
    diagnostics: dict = {"dropped_rows": dropped, "n_equalities": len(b_full)}
    if inconsistent:
        dims = layout.dims
        return SdpSolution(
            status="infeasible",
            X=[np.zeros((k, k)) for k in dims],
            S=[np.zeros((k, k)) for k in dims],
            y=np.zeros(len(b_full)),
            objective_value=float("nan"),
            primal_residual=float("inf"),
            dual_residual=float("inf"),
            relative_gap=float("inf"),
            iterations=0,
            tau=0.0,
            kappa=1.0,
            certificate={"type": "linear-inconsistency", "rows": dropped},
            diagnostics=diagnostics,
        )
    # From here on the svec vectors list the blocks group by group.
    a = a_full[kept][:, layout.perm]
    c = c[layout.perm]
    b = b_full[kept]
    # Row normalization: conditions the Schur complement without moving X;
    # dual multipliers are unscaled before they are returned.
    row_scale = np.maximum(np.linalg.norm(a, axis=1), 1e-300) if a.shape[0] else np.zeros(0)
    if a.shape[0]:
        a = a / row_scale[:, None]
        b = b / row_scale
    p = a.shape[0]
    nu = sum(layout.dims)
    norm_b = 1.0 + float(np.linalg.norm(b))
    norm_c = 1.0 + float(np.linalg.norm(c))
    cert_tol = max(10.0 * tol, 1e-10)
    # The scaled rows of a group are formed a few members at a time, so their
    # temporaries stay within p * k^2 of the largest block.
    row_budget = max(layout.dims) ** 2

    xg = [np.tile(np.eye(k), (len(idx), 1, 1)) for k, idx in layout.groups]
    sg = [m.copy() for m in xg]
    y = np.zeros(p)
    tau = 1.0
    kappa = 1.0
    x = layout.join(xg)
    s = layout.join(sg)
    mu0 = (x @ s + tau * kappa) / (nu + 1)

    c_groups = layout.split(c)

    def _expand_y(yv: np.ndarray) -> np.ndarray:
        full = np.zeros(len(b_full))
        if p:
            full[kept] = yv / row_scale
        return full

    def _solution(
        state: tuple[list[np.ndarray], list[np.ndarray], np.ndarray, float, float],
        status: str,
        iterations: int,
        certificate: dict | None = None,
    ) -> SdpSolution:
        sxg, ssg, sy, stau, skappa = state
        if stau > 1e-300:
            xs = [m / stau for m in sxg]
            ss = [m / stau for m in ssg]
            ys = sy / stau
        else:
            xs, ss, ys = sxg, ssg, sy
        obj = float(c @ layout.join(xs))
        pres = float(np.linalg.norm(a @ layout.join(xs) - b)) / norm_b
        dres = float(np.linalg.norm(a.T @ ys + layout.join(ss) - c)) / norm_c
        dobj = float(b @ ys)
        gap = abs(obj - dobj) / (1.0 + abs(obj) + abs(dobj))
        return SdpSolution(
            status=status,
            X=layout.blocks([_sym(m) for m in xs]),
            S=layout.blocks([_sym(m) for m in ss]),
            y=_expand_y(ys),
            objective_value=obj,
            primal_residual=pres,
            dual_residual=dres,
            relative_gap=gap,
            iterations=iterations,
            tau=stau,
            kappa=skappa,
            certificate=certificate,
            diagnostics=diagnostics,
        )

    def _snapshot() -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray, float, float]:
        return ([m.copy() for m in xg], [m.copy() for m in sg], y.copy(), tau, kappa)

    best_state = _snapshot()
    best_score = np.inf

    def _finish(status: str, iterations: int) -> SdpSolution:
        # Fall back to the best measured iterate; report optimal when it
        # already meets the requested tolerance despite the breakdown.
        final = "optimal" if best_score <= tol else status
        return _solution(best_state, final, iterations)

    slow_steps = 0
    iteration = 0
    try:
        for iteration in range(1, max_iter + 1):
            rp = a @ x - b * tau
            rd = a.T @ y + s - c * tau
            rg = b @ y - c @ x - kappa
            mu = (x @ s + tau * kappa) / (nu + 1)

            err_p = float(np.linalg.norm(a @ x / tau - b)) / norm_b
            err_d = float(np.linalg.norm(a.T @ y / tau + s / tau - c)) / norm_c
            pobj = float(c @ x / tau)
            dobj = float(b @ y / tau)
            gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
            score = max(err_p, err_d, gap)
            if score < best_score:
                best_score = score
                best_state = _snapshot()
            if err_p <= tol and err_d <= tol and gap <= tol:
                return _solution(_snapshot(), "optimal", iteration - 1)

            by = float(b @ y)
            cx = float(c @ x)
            if kappa > tau and by > 0.0:
                res_inf = float(np.linalg.norm(a.T @ y + s)) / by
                if res_inf <= cert_tol * norm_c:
                    cert = {
                        "type": "primal-infeasibility",
                        "y": _expand_y(y / by),
                        "S": [m / by for m in layout.blocks(sg)],
                        "residual": res_inf,
                    }
                    return _solution(_snapshot(), "infeasible", iteration - 1, cert)
            if kappa > tau and cx < 0.0:
                res_unb = float(np.linalg.norm(a @ x)) / (-cx)
                if res_unb <= cert_tol * norm_b:
                    cert = {
                        "type": "unboundedness-ray",
                        "X": [m / (-cx) for m in layout.blocks(xg)],
                        "residual": res_unb,
                    }
                    return _solution(_snapshot(), "unbounded", iteration - 1, cert)

            if mu < 1e-18 * max(1.0, mu0):
                return _finish("stalled", iteration - 1)

            # Nesterov-Todd scaling per group: G^{-1} X G^{-T} = G^T S G = diag(d).
            gs: list[np.ndarray] = []
            ginvs: list[np.ndarray] = []
            dvals: list[np.ndarray] = []
            for xm, sm in zip(xg, sg):
                lx = _chol_lower(xm)
                ls = _chol_lower(sm)
                _, sig, vt = np.linalg.svd(_t(ls) @ lx)
                sig = np.maximum(sig, 1e-150)
                sqrt_sig = np.sqrt(sig)
                gs.append((lx @ _t(vt)) / sqrt_sig[:, None, :])
                ginvs.append((vt * sqrt_sig[:, :, None]) @ np.linalg.inv(lx))
                dvals.append(sig)
            # twice over, so one eigvalsh per group covers both dX and dS
            rsqrt_d2 = [np.concatenate([r, r]) for r in (1.0 / np.sqrt(d) for d in dvals)]

            # Scaled constraint rows svec(G^T A_i G) and Schur complement.
            util = np.empty((p, layout.total))
            for (k, idx), lo, g in zip(layout.groups, layout.starts, gs):
                rows, cols, scale = _svec_meta(k)
                size = len(rows)
                chunk = max(1, row_budget // (k * k))
                for first in range(0, len(idx), chunk):
                    gm = g[first : first + chunk]
                    span = slice(lo + first * size, lo + (first + len(gm)) * size)
                    amats = _smat(np.swapaxes(a[:, span].reshape(p, len(gm), size), 0, 1), k)
                    gtg = _sym(_t(gm)[:, None] @ (amats @ gm[:, None]))
                    util[:, span] = np.swapaxes(_svec(gtg), 0, 1).reshape(p, len(gm) * size)
            ctil_vec = layout.join([_sym(_t(g) @ cm @ g) for g, cm in zip(gs, c_groups)])
            rdtil_vec = layout.join([_sym(_t(g) @ rm @ g) for g, rm in zip(gs, layout.split(rd))])

            if p:
                m_schur = util @ util.T
                cho = (_chol_jittered(m_schur), True)

                def schur_solve(rhs: np.ndarray) -> np.ndarray:
                    z = cho_solve(cho, rhs)
                    # one refinement step recovers digits lost to conditioning
                    z = z + cho_solve(cho, rhs - m_schur @ z)
                    return z

                v_wc = util @ ctil_vec
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
            ctil_sq = float(ctil_vec @ ctil_vec)
            denom = max(float((b - v_wc) @ z2) + ctil_sq, layout.total * _EPS * ctil_sq) + kappa / tau

            def newton(rc_groups: list[np.ndarray], rc_tk: float):
                """Newton direction, with its X and S parts also in the scaled space."""
                svec_rc = layout.join(rc_groups)
                r1 = -rp - a @ svec_rc - util @ rdtil_vec
                r2 = float(-rg + c @ svec_rc + ctil_vec @ rdtil_vec + rc_tk / tau)
                z1 = schur_solve(r1) if p else np.zeros(0)
                dtau = (r2 - float((b - v_wc) @ z1)) / denom
                dy = z1 + z2 * dtau
                ds = layout.split(-rd - a.T @ dy + c * dtau)
                dshat = [_t(g) @ dsm @ g for g, dsm in zip(gs, ds)]
                dx = [_sym(rc - g @ dh @ _t(g)) for g, rc, dh in zip(gs, rc_groups, dshat)]
                dxhat = [gi @ dxm @ _t(gi) for gi, dxm in zip(ginvs, dx)]
                dkappa = (rc_tk - kappa * dtau) / tau
                return dx, dy, ds, dtau, dkappa, dxhat, dshat

            def max_step(dxhat, dshat, dtau, dkappa) -> float:
                step = min(_max_step_scalar(tau, dtau), _max_step_scalar(kappa, dkappa))
                for dxh, dsh, r in zip(dxhat, dshat, rsqrt_d2):
                    step = min(step, _max_step_scaled(np.concatenate([dxh, dsh]), r))
                return step

            # Predictor (affine direction).
            dxa, dya, dsa, dta, dka, dxhat_a, dshat_a = newton([-m for m in xg], -tau * kappa)
            alpha_aff = min(1.0, max_step(dxhat_a, dshat_a, dta, dka))
            x_aff = x + alpha_aff * layout.join(dxa)
            s_aff = s + alpha_aff * layout.join(dsa)
            mu_aff = (
                x_aff @ s_aff + (tau + alpha_aff * dta) * (kappa + alpha_aff * dka)
            ) / (nu + 1)
            sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3))

            # Corrector with Mehrotra second-order term in the scaled space.
            rc_groups = []
            for (k, _), g, d, dxh, dsh in zip(layout.groups, gs, dvals, dxhat_a, dshat_a):
                rm = -0.5 * (dxh @ dsh + dsh @ dxh)
                diag = np.arange(k)
                rm[:, diag, diag] += sigma * mu - d**2
                e = 2.0 * rm / (d[:, :, None] + d[:, None, :])
                rc_groups.append(_sym(g @ e @ _t(g)))
            rc_tk = sigma * mu - tau * kappa - dta * dka
            dx, dy, ds, dtau, dkappa, dxhat, dshat = newton(rc_groups, rc_tk)
            alpha = min(1.0, _STEP_SHRINK * max_step(dxhat, dshat, dtau, dkappa))
            if alpha < 1e-7:
                slow_steps += 1
                if slow_steps >= 3:
                    return _finish("stalled", iteration)
            else:
                slow_steps = 0

            xg = [_sym(m + alpha * dm) for m, dm in zip(xg, dx)]
            sg = [_sym(m + alpha * dm) for m, dm in zip(sg, ds)]
            y = y + alpha * dy
            tau = float(tau + alpha * dtau)
            kappa = float(kappa + alpha * dkappa)
            x = layout.join(xg)
            s = layout.join(sg)
    except _NumericalFailure as exc:
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
