"""Output checks for the benchmark, kept apart from the package under test.

Every check here runs outside the timed region. An instance whose output
fails a check counts as failed; it is never dropped. Polynomials are
re-parsed and re-expanded with a small dict algebra of this module's own, so
a certificate or witness is rechecked without the package's Polynomial class.
"""

from __future__ import annotations

import re

import numpy as np

RESIDUAL_TOL = 1e-6  # certificate identity, coefficientwise (ROADMAP aim 3)
GRAM_EIG_TOL = 1e-8  # scale-relative floor on Gram eigenvalues
SDP_RECHECK_TOL = 1e-6  # residuals and gap recomputed from the returned point
CONCLUSIVE = ("convex", "not convex")
EXIT_FOR_VERDICT = {"convex": (0,), "not convex": (0,), "inconclusive": (2, 3)}

Poly = dict  # exponent tuple -> coefficient

_TOKEN = re.compile(r"\s*(?:(\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
                    r"|([A-Za-z_][A-Za-z0-9_']*)|([-+*^()]))")


def _add(a: Poly, b: Poly, scale: float = 1.0) -> Poly:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0.0) + scale * c
    return out


def _mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(p + q for p, q in zip(ea, eb))
            out[e] = out.get(e, 0.0) + ca * cb
    return out


def parse_poly(text: str, names: list[str]) -> Poly:
    """Parse the problem-file expression grammar over the given variable names."""
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot tokenize {text[pos:]!r}")
        tokens.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    tokens.append("")
    arity = len(names)
    index = {name: i for i, name in enumerate(names)}
    at = [0]

    def peek() -> str:
        return tokens[at[0]]

    def take() -> str:
        at[0] += 1
        return tokens[at[0] - 1]

    def expr() -> Poly:
        sign = -1.0 if peek() == "-" else 1.0
        if peek() in ("+", "-"):
            take()
        out = _add({}, term(), sign)
        while peek() in ("+", "-"):
            op = take()
            out = _add(out, term(), -1.0 if op == "-" else 1.0)
        return out

    def term() -> Poly:
        out = factor()
        while peek() == "*":
            take()
            out = _mul(out, factor())
        return out

    def factor() -> Poly:
        base = atom()
        if peek() == "^":
            take()
            power = int(take())
            out: Poly = {(0,) * arity: 1.0}
            for _ in range(power):
                out = _mul(out, base)
            return out
        return base

    def atom() -> Poly:
        tok = take()
        if tok == "(":
            inner = expr()
            if take() != ")":
                raise ValueError("expected ')'")
            return inner
        if tok in index:
            e = [0] * arity
            e[index[tok]] = 1
            return {tuple(e): 1.0}
        return {(0,) * arity: float(tok)}

    out = expr()
    if peek():
        raise ValueError(f"trailing token {peek()!r}")
    return out


def parse_problem_text(text: str) -> tuple[list[str], list[Poly]]:
    names: list[str] = []
    constraints = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("vars:"):
            names = line[len("vars:"):].split()
        elif line.startswith("g:"):
            constraints.append(line[len("g:"):])
    return names, [parse_poly(g, names) for g in constraints]


def evaluate(poly: Poly, point) -> float:
    return float(sum(c * np.prod([v ** e for v, e in zip(point, exps)]) for exps, c in poly.items()))


def midpoint_image(g: Poly, n: int) -> Poly:
    """g((x+y)/2) in the lifted variables (x1..xn, y1..yn)."""
    out: Poly = {}
    for exps, coeff in g.items():
        term: Poly = {(0,) * (2 * n): coeff}
        for i, power in enumerate(exps):
            half = {tuple(1 if k == i else 0 for k in range(2 * n)): 0.5,
                    tuple(1 if k == n + i else 0 for k in range(2 * n)): 0.5}
            for _ in range(power):
                term = _mul(term, half)
        out = _add(out, term)
    return out


def _certificate_issue(cert: dict, g_mid: Poly, n: int) -> str | None:
    """Re-expand sum weight * basis^T Gram basis and compare with g_mid + eps."""
    if cert.get("kind") != "quadratic-module":
        return f"certificate kind {cert.get('kind')!r} is not rechecked"
    lifted = [f"x{i + 1}" for i in range(n)] + [f"y{i + 1}" for i in range(n)]
    total: Poly = {}
    for term in cert["terms"]:
        basis = [tuple(e) for e in term["basis"]]
        gram = np.asarray(term["gram"], dtype=float)
        if gram.shape != (len(basis), len(basis)):
            return f"{term['label']}: Gram shape {gram.shape} does not match its basis"
        sym = 0.5 * (gram + gram.T)
        scale = max(1.0, float(np.linalg.norm(sym, 2))) if sym.size else 1.0
        if sym.size and float(np.linalg.eigvalsh(sym)[0]) / scale < -GRAM_EIG_TOL:
            return f"{term['label']}: Gram matrix is not positive semidefinite"
        sos: Poly = {}
        for a, ea in enumerate(basis):
            for b, eb in enumerate(basis):
                e = tuple(p + q for p, q in zip(ea, eb))
                sos[e] = sos.get(e, 0.0) + float(gram[a, b])
        total = _add(total, _mul(parse_poly(term["weight"], lifted), sos))
    target = _add(g_mid, {(0,) * (2 * n): float(cert["epsilon"])})
    residual = max(abs(total.get(e, 0.0) - target.get(e, 0.0)) for e in set(total) | set(target))
    if residual > RESIDUAL_TOL:
        return f"certificate identity residual {residual:.3e} above {RESIDUAL_TOL:g}"
    return None


def _witness_issue(witness: dict, constraints: list[Poly], j: int) -> str | None:
    """Re-evaluate every atom: members of the set, midpoint outside g_j >= 0."""
    tol = float(witness["tol_feas"])
    if not witness["atoms"]:
        return "witness carries no atoms"
    for atom in witness["atoms"]:
        x = np.asarray(atom["x"], dtype=float)
        y = np.asarray(atom["y"], dtype=float)
        if min(evaluate(g, p) for g in constraints for p in (x, y)) < -tol:
            return "witness atom leaves the set"
        if evaluate(constraints[j - 1], 0.5 * (x + y)) >= 0.0:
            return "witness midpoint does not violate its constraint"
    return None


def label_issue(instance) -> str | None:
    """Confirm a 'not convex' label: the known pair lies in the set, its midpoint not."""
    if instance.pair is None:
        return None
    _names, constraints = parse_problem_text(instance.text)
    x, y = (np.asarray(p, dtype=float) for p in instance.pair)
    if min(evaluate(g, p) for g in constraints for p in (x, y)) < -1e-9:
        return "labelled pair leaves the set"
    if min(evaluate(g, 0.5 * (x + y)) for g in constraints) >= 0.0:
        return "labelled pair has its midpoint inside the set"
    return None


def check_report(payload: dict, exit_code: int, instance, validate_schema) -> tuple[bool, list[str]]:
    """Check one cli report against its schema, its label and its own evidence.

    Returns (conclusive, issues); an instance fails when issues is non-empty.
    """
    issues = list(validate_schema(payload))
    if issues:
        return False, issues
    verdict = payload["verdict"]
    if exit_code not in EXIT_FOR_VERDICT.get(verdict, ()):
        issues.append(f"exit code {exit_code} does not match verdict {verdict!r}")
    if verdict in CONCLUSIVE and verdict != instance.label:
        issues.append(f"verdict {verdict!r} contradicts ground truth {instance.label!r}")
    if instance.documented in CONCLUSIVE and verdict != instance.documented:
        issues.append(f"verdict {verdict!r} is weaker than the documented {instance.documented!r}")
    names, constraints = parse_problem_text(instance.text)
    n = len(names)
    for entry in payload["constraints"]:
        j = entry["index"]
        if entry.get("certificate") is not None:
            issue = _certificate_issue(entry["certificate"], midpoint_image(constraints[j - 1], n), n)
            if issue:
                issues.append(f"g{j}: {issue}")
        if entry.get("witness") is not None:
            issue = _witness_issue(entry["witness"], constraints, j)
            if issue:
                issues.append(f"g{j}: {issue}")
    return verdict in CONCLUSIVE, issues


def check_solution(problem, solution, instance, tol: float) -> tuple[bool, list[str]]:
    """Check one sdp.solve result: status, reported and recomputed accuracy, dropped rows."""
    issues = []
    if solution.status != "optimal":
        return False, [f"status {solution.status!r}, expected 'optimal'"]
    for name in ("primal_residual", "dual_residual", "relative_gap"):
        if getattr(solution, name) > tol:
            issues.append(f"{name} {getattr(solution, name):.3e} above {tol:g}")
    dropped = len(solution.diagnostics.get("dropped_rows", ()))
    if dropped != instance.dependent_rows:
        issues.append(f"dropped {dropped} rows, expected {instance.dependent_rows}")
    xs = [np.asarray(m, dtype=float) for m in solution.X]
    ss = [np.asarray(m, dtype=float) for m in solution.S]
    b = np.array([rhs for _mats, rhs in problem.equalities])
    ax = np.array([sum(float(np.tensordot(m, xs[k])) for k, m in mats.items())
                   for mats, _rhs in problem.equalities])
    primal = float(np.linalg.norm(ax - b)) / (1.0 + float(np.linalg.norm(b)))
    dual_sq = 0.0
    c_sq = 0.0
    for k in range(len(problem.block_dims)):
        c = np.asarray(problem.objective.get(k, np.zeros_like(xs[k])), dtype=float)
        r = c - ss[k]
        for yi, (mats, _rhs) in zip(solution.y, problem.equalities):
            if k in mats:
                r = r - yi * np.asarray(mats[k], dtype=float)
        dual_sq += float(np.sum(r * r))
        c_sq += float(np.sum(c * c))
    dual = dual_sq ** 0.5 / (1.0 + c_sq ** 0.5)
    pobj = sum(float(np.tensordot(np.asarray(problem.objective[k]), xs[k])) for k in problem.objective)
    dobj = float(b @ solution.y)
    gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    for name, value in (("recomputed primal residual", primal), ("recomputed dual residual", dual),
                        ("recomputed gap", gap)):
        if not value <= SDP_RECHECK_TOL:
            issues.append(f"{name} {value:.3e} above {SDP_RECHECK_TOL:g}")
    for label, mats in (("X", xs), ("S", ss)):
        for m in mats:
            scale = max(1.0, float(np.linalg.norm(m, 2)))
            if float(np.linalg.eigvalsh(0.5 * (m + m.T))[0]) / scale < -GRAM_EIG_TOL:
                issues.append(f"{label} block is not positive semidefinite")
    return True, issues
