"""Sparse multivariate polynomials over float coefficients.

Everything downstream (certificate identities, moment functionals, witness
validation) reduces to a handful of primitives defined here: exact term
arithmetic, point evaluation, the midpoint substitution x_i -> (x_i + y_i)/2,
and the two embeddings of an n-variable polynomial into the doubled (x, y)
space.

Point evaluation has one kernel, _monomials: Polynomial.evaluate, the
PolynomialSystem of the sampler's membership test and of witness
validation, the sampler's pair scores through _midpoint_form, and the
Vandermonde matrices of MomentSequence.from_atoms and extract_atoms use it.

Term summation has one helper too, _summed: it sums (exponents, coefficient)
pairs per key in the order given and drops only exact zeros (a NaN stays), so
the zero polynomial has an empty term map and degree 0. Keys are checked only
where they come from outside, in Polynomial(space, terms); every operation
builds its result through Polynomial._of, from keys valid by construction.
Polynomials are immutable and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product, starmap
from math import comb, inf
from numbers import Integral, Real
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

Exponents = tuple[int, ...]


def _summed(pairs: Iterable[tuple[Exponents, float]]) -> dict[Exponents, float]:
    """The coefficients summed per key in the order given, exact zeros dropped; a NaN (inf - inf) stays visible."""
    total: dict[Exponents, float] = {}
    for key, coeff in pairs:
        total[key] = total.get(key, 0.0) + float(coeff)
    return {k: v for k, v in total.items() if v != 0.0}


def grlex_key(exponents: Exponents) -> tuple[int, tuple[int, ...]]:
    """Graded-lexicographic sort key with x1 > x2 > ... precedence."""
    return (sum(exponents), tuple(-e for e in exponents))


@dataclass(frozen=True)
class VariableSpace:
    """Index space for polynomial variables.

    A base space has coordinates x1..xn. A lifted space doubles them to
    (x1..xn, y1..yn), x-block first; it is the natural home of pairwise
    membership conditions on a set and its copy.
    """

    n: int
    lifted: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one variable, got n={self.n}")

    @property
    def arity(self) -> int:
        return 2 * self.n if self.lifted else self.n

    def lift(self) -> "VariableSpace":
        if self.lifted:
            raise ValueError("space is already lifted")
        return VariableSpace(self.n, lifted=True)

    def variable_names(self, base_names: Sequence[str] | None = None) -> list[str]:
        names = list(base_names) if base_names is not None else [f"x{i + 1}" for i in range(self.n)]
        if len(names) != self.n:
            raise ValueError(f"expected {self.n} names, got {len(names)}")
        if not self.lifted:
            return names
        if base_names is None:
            return names + [f"y{i + 1}" for i in range(self.n)]
        return names + [f"{v}'" for v in names]


class Polynomial:
    """A polynomial stored as a map from exponent vectors to coefficients.

    The constructor checks each key (the space's arity, nonnegative integer
    entries) and sums the terms; internal results skip the check through _of.
    """

    __slots__ = ("space", "terms")

    def __init__(self, space: VariableSpace, terms: Mapping[Exponents, float]):
        arity = space.arity
        pairs = [(tuple(exps), coeff) for exps, coeff in terms.items()]
        for key, _ in pairs:
            if len(key) != arity:
                raise ValueError(f"exponent vector {key} has length {len(key)}, expected {arity}")
            if any((not isinstance(e, (int, np.integer))) or e < 0 for e in key):
                raise ValueError(f"exponents must be nonnegative integers, got {key}")
        self.space, self.terms = space, _summed(pairs)

    @classmethod
    def _of(cls, space: VariableSpace, pairs: Iterable[tuple[Exponents, float]]) -> "Polynomial":
        """The sum of the pairs, whose keys are valid for space by construction: they are not checked."""
        poly = cls.__new__(cls)
        poly.space, poly.terms = space, _summed(pairs)
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, space: VariableSpace) -> "Polynomial":
        return cls._of(space, ())

    @classmethod
    def constant(cls, space: VariableSpace, value: float) -> "Polynomial":
        return cls._of(space, [((0,) * space.arity, value)])

    @classmethod
    def variable(cls, space: VariableSpace, index: int) -> "Polynomial":
        if not 0 <= index < space.arity:
            raise ValueError(f"variable index {index} out of range for arity {space.arity}")
        exps = tuple(1 if i == index else 0 for i in range(space.arity))
        return cls._of(space, [(exps, 1.0)])

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[Exponents, float]]:
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]))

    def __iter__(self) -> Iterator[tuple[Exponents, float]]:
        return iter(self.sorted_terms())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.space == other.space and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    # -- arithmetic ---------------------------------------------------------

    def _check_space(self, other: "Polynomial") -> None:
        if self.space != other.space:
            raise ValueError(f"operand spaces differ: {self.space} vs {other.space}")

    def __add__(self, other: "Polynomial | Real") -> "Polynomial":
        if isinstance(other, Real):
            other = Polynomial.constant(self.space, other)
        self._check_space(other)
        return Polynomial._of(self.space, chain(self.terms.items(), other.terms.items()))

    def __radd__(self, other: Real) -> "Polynomial":
        return self.__add__(other)

    def __sub__(self, other: "Polynomial | Real") -> "Polynomial":
        return self.__add__(-other)

    def __rsub__(self, other: Real) -> "Polynomial":
        return Polynomial.constant(self.space, other).__sub__(self)

    def __neg__(self) -> "Polynomial":
        return Polynomial._of(self.space, ((e, -c) for e, c in self.terms.items()))

    def __mul__(self, other: "Polynomial | Real") -> "Polynomial":
        if isinstance(other, Real):
            return Polynomial._of(self.space, ((e, c * float(other)) for e, c in self.terms.items()))
        self._check_space(other)
        return Polynomial._of(self.space, (
            (tuple(a + b for a, b in zip(ea, eb)), ca * cb)
            for ea, ca in self.terms.items() for eb, cb in other.terms.items()
        ))

    def __rmul__(self, other: Real) -> "Polynomial":
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, Integral) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Polynomial.constant(self.space, 1.0)
        base = self
        k = int(exponent)
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, point: Sequence[float]) -> float:
        """The value at one point, as a one-point PolynomialSystem call.

        The point is read as floats: integer coordinates cannot wrap, and an
        overflow gives inf, with numpy's warning.
        """
        return float(PolynomialSystem([self])([point])[0, 0])

    def __call__(self, point: Sequence[float]) -> float:
        return self.evaluate(point)

    # -- formatting -----------------------------------------------------------

    def to_string(self, names: Sequence[str] | None = None) -> str:
        if not self.terms:
            return "0"
        if names is not None and len(names) == self.space.arity:
            labels = list(names)
        else:
            labels = self.space.variable_names(names)
        pieces: list[tuple[str, str]] = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for label, e in zip(labels, exps):
                if e == 1:
                    factors.append(label)
                elif e > 1:
                    factors.append(f"{label}^{e}")
            magnitude = repr(abs(coeff))
            if factors and abs(coeff) == 1.0:
                body = "*".join(factors)
            elif factors:
                body = magnitude + "*" + "*".join(factors)
            else:
                body = magnitude
            sign = "-" if coeff < 0 else "+"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"Polynomial({self.space!r}, {self.to_string()!r})"


def midpoint_substitute(g: Polynomial) -> Polynomial:
    """Compose g with the affine map x_i -> (x_i + y_i)/2 into the lifted space.

    The result r satisfies r(a, b) = g((a + b)/2) for all points a, b, and has
    the same total degree as g.
    """
    if g.space.lifted:
        raise ValueError("midpoint substitution expects a base-space polynomial")

    def split(exps: Exponents, coeff: float) -> Iterator[tuple[Exponents, float]]:
        # x_i^a -> sum_k comb(a, k) 0.5^a x_i^k y_i^(a - k), the splits in lexicographic order
        for ks in product(*(range(a + 1) for a in exps)):
            weight = coeff
            for a, k in zip(exps, ks):
                weight = comb(a, k) * 0.5**a * weight
            yield ks + tuple(a - k for a, k in zip(exps, ks)), weight

    return Polynomial._of(g.space.lift(), chain.from_iterable(starmap(split, g.terms.items())))


def _midpoint_form(g: Polynomial) -> tuple[np.ndarray, np.ndarray]:
    """The polarized midpoint form of g: halves H (T', n) and a matrix M (T', T').

    Each lifted exponent of midpoint_substitute(g) splits into its x half and
    its y half, and its coefficient goes to M at (x half, y half). The
    substitution is symmetric under the swap of x and y, so the x halves are
    the y halves too, the rows of H, and M is symmetric. With
    Phi = _monomials(points, H), (Phi M Phi^T)[a, b] =
    g((points[a] + points[b])/2) for every pair of points at once.
    """
    n = g.space.n
    terms = midpoint_substitute(g).terms
    halves = sorted({e[:n] for e in terms}, key=grlex_key)
    index = {h: i for i, h in enumerate(halves)}
    form = np.zeros((len(halves), len(halves)))
    for exps, coeff in terms.items():
        form[index[exps[:n]], index[exps[n:]]] = coeff
    return np.array(halves, dtype=np.int64).reshape(len(halves), n), form


def lift(g: Polynomial, side: str) -> Polynomial:
    """Embed a base-space polynomial into the lifted space on the x or y block."""
    if g.space.lifted:
        raise ValueError("polynomial already lives in the lifted space")
    if side not in ("x", "y"):
        raise ValueError(f"side must be 'x' or 'y', got {side!r}")
    pad = (0,) * g.space.n
    return Polynomial._of(g.space.lift(), (
        (exps + pad if side == "x" else pad + exps, coeff) for exps, coeff in g.terms.items()
    ))


def coeff_linf_distance(a: Polynomial, b: Polynomial) -> float:
    """Max absolute coefficient difference over the union of supports; inf where a difference is NaN."""
    if a.space != b.space:
        raise ValueError(f"operand spaces differ: {a.space} vs {b.space}")
    worst = 0.0
    for exps in set(a.terms) | set(b.terms):
        diff = abs(a.terms.get(exps, 0.0) - b.terms.get(exps, 0.0))
        if diff > worst:
            worst = diff
        elif diff != diff:  # NaN compares false with everything
            return inf
    return worst


def _monomials(points: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """prod_i points[:, i] ** exponents[:, i] for every point and exponent row: shape (N, T).

    The one code that raises coordinates to powers. The powers come from a
    table built by repeated multiplication, faster than a power per entry
    and within a few ulps of it. The sampler evaluates no midpoint here: it
    raises its members to the halves of _midpoint_form, once per member.
    """
    powers = np.empty((int(exponents.max(initial=0)) + 1,) + points.shape)
    powers[0] = 1.0
    for k in range(1, len(powers)):
        powers[k] = powers[k - 1] * points
    return powers[exponents, :, np.arange(points.shape[1])].prod(axis=1).T


class PolynomialSystem:
    """Polynomials over one space, compiled for evaluation at many points at once.

    The union of their supports becomes one exponent matrix E (T x d) and
    their coefficients one matrix C (P x T), so the values at N points are
    one product of the (N, T) monomial values with C^T.
    """

    def __init__(self, polynomials: Sequence[Polynomial]):
        if not polynomials:
            raise ValueError("need at least one polynomial")
        space = polynomials[0].space
        for p in polynomials:
            if p.space != space:
                raise ValueError(f"operand spaces differ: {space} vs {p.space}")
        d = space.arity
        support = sorted(set().union(*(p.terms for p in polynomials)), key=grlex_key)
        exps = np.array(support, dtype=np.int64).reshape(len(support), d)
        coeffs = np.array([[p.terms.get(e, 0.0) for e in support] for p in polynomials])
        coeffs = coeffs.reshape(len(polynomials), len(support))
        self.space = space
        self.exponents = exps
        self.coefficients = coeffs

    def __call__(self, points) -> np.ndarray:
        """Values at each of N points: shape (N, P)."""
        array = np.asarray(points, dtype=float)
        if array.ndim != 2 or array.shape[1] != self.space.arity:
            raise ValueError(f"points have shape {array.shape}, expected (N, {self.space.arity})")
        return _monomials(array, self.exponents) @ self.coefficients.T


def ball_polynomial(space: VariableSpace, bound: float) -> Polynomial:
    """bound - |x|^2 over every variable of the space."""
    ball = Polynomial.constant(space, bound)
    for i in range(space.arity):
        xi = Polynomial.variable(space, i)
        ball = ball - xi * xi
    return ball
