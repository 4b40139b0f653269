"""Sparse multivariate polynomials over float coefficients.

Everything downstream (certificate identities, moment functionals, witness
validation) reduces to a handful of primitives defined here: exact term
arithmetic, point evaluation, the midpoint substitution x_i -> (x_i + y_i)/2,
and the two embeddings of an n-variable polynomial into the doubled (x, y)
space.

Point evaluation has one kernel, _monomials: Polynomial.evaluate, the
PolynomialSystem of the sampler, the polish and witness validation, and the
Vandermonde matrices of MomentSequence.from_atoms and extract_atoms use it.

Polynomials are immutable after construction and all operations are pure, so
values can be shared freely across threads. Normalization drops only
coefficients that are exactly zero; in particular the zero polynomial always
has an empty term map and degree 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb, inf
from numbers import Integral, Real
from typing import Iterator, Mapping, Sequence

import numpy as np

Exponents = tuple[int, ...]


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
    """A polynomial stored as a map from exponent vectors to coefficients."""

    __slots__ = ("space", "terms")

    def __init__(self, space: VariableSpace, terms: Mapping[Exponents, float]):
        arity = space.arity
        normalized: dict[Exponents, float] = {}
        for exps, coeff in terms.items():
            key = tuple(exps)
            if len(key) != arity:
                raise ValueError(f"exponent vector {key} has length {len(key)}, expected {arity}")
            if any((not isinstance(e, (int, np.integer))) or e < 0 for e in key):
                raise ValueError(f"exponents must be nonnegative integers, got {key}")
            value = normalized.get(key, 0.0) + float(coeff)
            normalized[key] = value
        self.space = space
        # a NaN (inf - inf) is kept, so that it stays visible
        self.terms = {k: v for k, v in normalized.items() if v != 0.0}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, space: VariableSpace) -> "Polynomial":
        return cls(space, {})

    @classmethod
    def constant(cls, space: VariableSpace, value: float) -> "Polynomial":
        return cls(space, {(0,) * space.arity: value})

    @classmethod
    def variable(cls, space: VariableSpace, index: int) -> "Polynomial":
        if not 0 <= index < space.arity:
            raise ValueError(f"variable index {index} out of range for arity {space.arity}")
        exps = tuple(1 if i == index else 0 for i in range(space.arity))
        return cls(space, {exps: 1.0})

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
        merged = dict(self.terms)
        for exps, coeff in other.terms.items():
            merged[exps] = merged.get(exps, 0.0) + coeff
        return Polynomial(self.space, merged)

    def __radd__(self, other: Real) -> "Polynomial":
        return self.__add__(other)

    def __sub__(self, other: "Polynomial | Real") -> "Polynomial":
        if isinstance(other, Real):
            other = Polynomial.constant(self.space, other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other: Real) -> "Polynomial":
        return Polynomial.constant(self.space, other).__sub__(self)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.space, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "Polynomial | Real") -> "Polynomial":
        if isinstance(other, Real):
            return Polynomial(self.space, {e: c * float(other) for e, c in self.terms.items()})
        self._check_space(other)
        product: dict[Exponents, float] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(a + b for a, b in zip(ea, eb))
                product[key] = product.get(key, 0.0) + ca * cb
        return Polynomial(self.space, product)

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
    lifted = g.space.lift()
    n = g.space.n
    arity = lifted.arity
    out: dict[Exponents, float] = {}
    for exps, coeff in g.terms.items():
        partial: dict[Exponents, float] = {(0,) * arity: coeff}
        for i, a in enumerate(exps):
            if a == 0:
                continue
            scale = 0.5**a
            expanded: dict[Exponents, float] = {}
            for key, value in partial.items():
                for k in range(a + 1):
                    weight = comb(a, k) * scale * value
                    grown = list(key)
                    grown[i] += k
                    grown[n + i] += a - k
                    tkey = tuple(grown)
                    expanded[tkey] = expanded.get(tkey, 0.0) + weight
            partial = expanded
        for key, value in partial.items():
            out[key] = out.get(key, 0.0) + value
    return Polynomial(lifted, out)


def lift(g: Polynomial, side: str) -> Polynomial:
    """Embed a base-space polynomial into the lifted space on the x or y block."""
    if g.space.lifted:
        raise ValueError("polynomial already lives in the lifted space")
    if side not in ("x", "y"):
        raise ValueError(f"side must be 'x' or 'y', got {side!r}")
    lifted = g.space.lift()
    n = g.space.n
    offset = 0 if side == "x" else n
    terms = {}
    for exps, coeff in g.terms.items():
        grown = [0] * (2 * n)
        for i, e in enumerate(exps):
            grown[offset + i] = e
        terms[tuple(grown)] = coeff
    return Polynomial(lifted, terms)


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
    table built by repeated multiplication, several times faster than a power
    per entry for the thousands of points the sampler and the polish score,
    and within a few ulps of it.
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
    one product of the (N, T) monomial values with C^T. Derivatives take the
    same form: d/dw_i of w^e is e_i w^(e - e_i), so every gradient and
    Hessian entry is a fixed combination of monomials, and values, gradients
    and Hessians together are one monomial table times one coefficient
    matrix, set up on first use.
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

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """Exponents (U, d) and coefficients (U, (1 + d + d^2) P) of values and derivatives."""
        exps, coeffs = self.exponents, self.coefficients
        d = self.space.arity
        # slot b of (value, d/dw_i, d^2/dw_i dw_l): shifted exponents (b, T, d) and
        # factors (b, T); d/dw_i has factor e_i, d^2/dw_i dw_l has e_i (e_l - [i == l]),
        # and a shift that would go negative comes with a zero factor
        eye = np.eye(d, dtype=np.int64)
        shifts = np.concatenate([np.zeros((1, d), dtype=np.int64), eye,
                                 (eye[:, None, :] + eye[None, :, :]).reshape(d * d, d)])
        factors = np.concatenate([
            np.ones((1, len(exps)), dtype=np.int64),
            exps.T,
            (exps.T[:, None, :] * (exps.T[None, :, :] - eye[:, :, None])).reshape(d * d, -1),
        ])
        shifted = np.maximum(exps[None] - shifts[:, None, :], 0)
        table_exps, inverse = np.unique(shifted.reshape(-1, d), axis=0, return_inverse=True)
        slots = len(shifts)
        table = np.zeros((len(table_exps), slots, len(coeffs)))
        np.add.at(table, (inverse.reshape(slots, -1), np.arange(slots)[:, None]),
                  factors[:, :, None] * coeffs.T[None])
        return table_exps, table.reshape(len(table_exps), slots * len(coeffs))

    def _points(self, points) -> np.ndarray:
        array = np.asarray(points, dtype=float)
        if array.ndim != 2 or array.shape[1] != self.space.arity:
            raise ValueError(f"points have shape {array.shape}, expected (N, {self.space.arity})")
        return array

    def __call__(self, points) -> np.ndarray:
        """Values at each of N points: shape (N, P)."""
        return _monomials(self._points(points), self.exponents) @ self.coefficients.T

    def derivatives(self, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Values (N, P), gradients (N, P, d) and Hessians (N, P, d, d) at N points."""
        array = self._points(points)
        n, d, count = len(array), self.space.arity, len(self.coefficients)
        table_exps, table_coeffs = self._table
        table = (_monomials(array, table_exps) @ table_coeffs).reshape(n, -1, count)
        grads = table[:, 1:d + 1].transpose(0, 2, 1)
        hessians = table[:, d + 1:].reshape(n, d, d, count).transpose(0, 3, 1, 2)
        return table[:, 0], grads, hessians


def ball_polynomial(space: VariableSpace, bound: float) -> Polynomial:
    """bound - |x|^2 over every variable of the space."""
    ball = Polynomial.constant(space, bound)
    for i in range(space.arity):
        xi = Polynomial.variable(space, i)
        ball = ball - xi * xi
    return ball
