"""Seeded workload generators for the convexcert benchmark.

Every instance carries the ground-truth label of its construction. The
package under test only ever sees the generated problem text (verdict
workloads) or the SdpProblem (solver workload); the seed and the label stay
in the benchmark.

The seed changes coefficients, never the shape of an instance: the list of
(kind, n, m) or (block sizes, p) is fixed per workload, so two seeds ask for
the same amount of solver work and wall times stay comparable across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

CONVEX = "convex"
NOT_CONVEX = "not convex"


@dataclass
class Instance:
    """One unit of benchmark work and the facts the checker holds it to."""

    ident: str
    label: str  # ground truth: convex | not convex | optimal (sdp-dense)
    text: str | None = None  # problem file body, for the verdict workloads
    args: tuple[str, ...] = ()  # cli flags after the problem path
    sdp: object | None = None  # SdpProblem, for sdp-dense
    # verdict the bundled docs promise; a weaker outcome than this is a failure
    documented: str | None = None
    # a member pair (x, y) whose midpoint leaves the set, by construction
    pair: tuple[tuple[float, ...], tuple[float, ...]] | None = None
    dependent_rows: int = 0  # consistent rows appended to an sdp-dense instance


def _num(value: float) -> str:
    return repr(float(abs(value)))


def _linear(coeffs, const: float) -> str:
    """Text of sum_i coeffs[i]*x_{i+1} + const, signs spelled out."""
    out = ""
    for i, a in enumerate(coeffs):
        sign = "-" if a < 0 else "+"
        out += (f"{sign} " if out else ("-" if a < 0 else "")) + f"{_num(a)}*x{i + 1} "
    return out + ("- " if const < 0 else "+ ") + _num(const)


def _problem(n: int, constraints: list[str]) -> str:
    names = " ".join(f"x{i + 1}" for i in range(n))
    return f"vars: {names}\n" + "".join(f"g: {g}\n" for g in constraints)


# -- corpus ---------------------------------------------------------------------

# Outcomes documented in the README table for `--mode analyze` at CLI defaults;
# the first entry is the truth, the second the documented verdict.
CORPUS = {
    "box": (CONVEX, CONVEX),
    "cubic_halfline": (CONVEX, "inconclusive"),
    "disk": (CONVEX, CONVEX),
    "halfspace": (CONVEX, CONVEX),
    "hyperbola": (NOT_CONVEX, NOT_CONVEX),
    "interval": (CONVEX, CONVEX),
    "parabola": (NOT_CONVEX, NOT_CONVEX),
    "two_interval": (NOT_CONVEX, "inconclusive"),
}


def corpus(root: Path, seed: int) -> list[Instance]:
    """The bundled problems/ files; the seed does not change them."""
    del seed
    out = []
    for name, (truth, documented) in CORPUS.items():
        text = (root / "problems" / f"{name}.txt").read_text()
        out.append(Instance(name, truth, text=text, args=("--mode", "analyze"), documented=documented))
    return out


# -- certify-convex -------------------------------------------------------------

# (n, half-spaces cut from an ellipsoid) or (n, None) for a scaled box.
# Five n=3 ellipsoids put the median instance inside one class, so
# instance_p50_s does not jump between classes from seed to seed.
CERTIFY_SHAPES = ((1, 1), (2, 1), (2, None), (3, 1), (3, 1), (3, 1), (3, 1), (3, 1), (3, None), (4, 1))


def _ellipsoid(rng: np.random.Generator, n: int, cuts: int) -> str:
    center = rng.uniform(-0.5, 0.5, size=n)
    radii = rng.uniform(0.6, 1.5, size=n)
    rows = (np.eye(n) + 0.3 * rng.normal(size=(n, n))) / radii[:, None]
    # g = 1 - sum_i (r_i^T (x - c))^2 is 1 - (x-c)^T R^T R (x-c) with R^T R >= 0
    squares = " ".join(f"- ({_linear(r, -float(r @ center))})^2" for r in rows)
    constraints = [f"1 {squares}"]
    for _ in range(cuts):
        normal = rng.normal(size=n)
        normal /= np.linalg.norm(normal)
        offset = rng.uniform(0.2, 0.5)  # h(c) = offset > 0, so c stays interior
        constraints.append(_linear(normal, offset - float(normal @ center)))
    return _problem(n, constraints)


def _box(rng: np.random.Generator, n: int) -> str:
    center = rng.uniform(-0.5, 0.5, size=n)
    half = rng.uniform(0.5, 1.5, size=n)
    constraints = [
        f"{_num(h * h)} - (x{i + 1} {'-' if c >= 0 else '+'} {_num(c)})^2"
        for i, (c, h) in enumerate(zip(center, half))
    ]
    return _problem(n, constraints)


def certify_convex(root: Path, seed: int) -> list[Instance]:
    """Compact convex sets whose midpoint identity holds at degree 1.

    For g = 1 - (x-c)^T Q (x-c) with Q >= 0,
    g((x+y)/2) = (g(x) + g(y))/2 + (x-y)^T Q (x-y)/4, and affine g satisfy the
    identity with the last term zero, so every instance is convex.
    """
    del root
    rng = np.random.default_rng([seed, 1])
    out = []
    for i, (n, cuts) in enumerate(CERTIFY_SHAPES):
        text = _box(rng, n) if cuts is None else _ellipsoid(rng, n, cuts)
        kind = "box" if cuts is None else "ellipsoid"
        out.append(Instance(f"{kind}{i}_n{n}", CONVEX, text=text,
                            args=("--mode", "certify", "--max-degree", "3")))
    return out


# -- refute-nonconvex -----------------------------------------------------------

REFUTE_SHAPES = ("hyperbola", "parabola", "two_interval", "hyperbola", "parabola", "two_interval", "parabola")


def _hyperbola(rng: np.random.Generator) -> tuple[str, tuple]:
    # x1*x2 >= r^2 in the box |x_i| <= 2r: the bundled hyperbola scaled by r,
    # so its flat order-3 relaxation carries over
    r = rng.uniform(0.8, 1.2)
    box = _num(4 * r * r)
    text = _problem(2, [f"x1*x2 - {_num(r * r)}", f"{box} - x1^2", f"{box} - x2^2"])
    return text, ((r, r), (-r, -r))  # midpoint 0, where x1*x2 - r^2 = -r^2


def _parabola(rng: np.random.Generator) -> tuple[str, tuple]:
    # x2 <= a*x1^2 in the box |x1| <= b, |x2| <= a*b^2: a linear image of the
    # bundled parabola, so the violating pair sits on the box corners
    a = rng.uniform(0.7, 1.4)
    b = rng.uniform(0.8, 1.25)
    top = a * b * b
    text = _problem(2, [f"{_num(a)}*x1^2 - x2", f"{_num(b * b)} - x1^2", f"{_num(top * top)} - x2^2"])
    return text, ((b, top), (-b, top))  # midpoint (0, top), where g1 = -top


def _two_interval(rng: np.random.Generator) -> tuple[str, tuple]:
    low = rng.uniform(0.5, 1.5)
    high = low + rng.uniform(0.5, 1.5)
    text = _problem(1, [f"x1^2 - {_num(low * low)}", f"{_num(high * high)} - x1^2"])
    return text, ((low,), (-low,))  # midpoint 0, where g1 = -low^2


def refute_nonconvex(root: Path, seed: int) -> list[Instance]:
    """Non-convex sets with a violating midpoint pair known by construction."""
    del root
    rng = np.random.default_rng([seed, 2])
    makers = {"hyperbola": _hyperbola, "parabola": _parabola, "two_interval": _two_interval}
    out = []
    for i, kind in enumerate(REFUTE_SHAPES):
        text, pair = makers[kind](rng)
        out.append(Instance(f"{kind}{i}", NOT_CONVEX, text=text, pair=pair,
                            args=("--mode", "refute", "--max-order", "3")))
    return out


# -- sdp-dense --------------------------------------------------------------------

# (block sizes, equality rows, dependent rows appended); cycled over the pass
SDP_SHAPES = (
    ((8,), 20, 0),
    ((12, 6), 40, 2),
    ((20,), 60, 0),
    ((10, 10, 4), 50, 0),
    ((16, 8), 80, 3),
    ((24,), 90, 0),
)
SDP_INSTANCES = 120
SDP_TOL = 1e-8


def _sym(rng: np.random.Generator, k: int) -> np.ndarray:
    m = rng.normal(size=(k, k))
    return 0.5 * (m + m.T)


def _dense_sdp(rng: np.random.Generator, dims, p: int, dependent: int):
    """Primal and dual strictly feasible block SDP, so an optimum exists."""
    from convexcert.sdp import SdpProblem

    x0, s0 = [], []
    for k in dims:
        r = rng.normal(size=(k, k))
        x0.append(r @ r.T + 0.2 * np.eye(k))
        r = rng.normal(size=(k, k))
        s0.append(r @ r.T + 0.2 * np.eye(k))
    y0 = rng.normal(size=p)
    equalities = []
    for _ in range(p):
        mats = {b: _sym(rng, k) for b, k in enumerate(dims)}
        rhs = sum(float(np.tensordot(mats[b], x0[b])) for b in range(len(dims)))
        equalities.append((mats, rhs))
    objective = {}
    for b in range(len(dims)):
        objective[b] = s0[b] + sum(y0[i] * equalities[i][0][b] for i in range(p))
    for _ in range(dependent):
        # a consistent combination of existing rows: the solver must drop it
        picks = rng.choice(p, size=3, replace=False)
        weights = rng.normal(size=3)
        mats = {b: sum(w * equalities[i][0][b] for w, i in zip(weights, picks)) for b in range(len(dims))}
        rhs = float(sum(w * equalities[i][1] for w, i in zip(weights, picks)))
        equalities.append((mats, rhs))
    return SdpProblem(block_dims=list(dims), objective=objective, equalities=equalities)


def sdp_dense(root: Path, seed: int) -> list[Instance]:
    """Random dense block SDPs solved through the public sdp.solve."""
    del root
    rng = np.random.default_rng([seed, 3])
    out = []
    for i in range(SDP_INSTANCES):
        dims, p, dependent = SDP_SHAPES[i % len(SDP_SHAPES)]
        out.append(Instance(f"sdp{i}", "optimal", sdp=_dense_sdp(rng, dims, p, dependent),
                            dependent_rows=dependent))
    return out


WORKLOADS = {
    "corpus": corpus,
    "certify-convex": certify_convex,
    "refute-nonconvex": refute_nonconvex,
    "sdp-dense": sdp_dense,
}
