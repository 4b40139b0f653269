"""Monomial bases, moment sequences, and moment/localizing matrices.

A moment sequence z assigns a value to every monomial up to degree 2s; the
associated linear functional sends a polynomial f to sum(f_alpha * z_alpha).
The moment matrix of order s has entries z indexed by sums of basis exponents,
and the localizing matrix of a weight polynomial theta folds theta's
coefficients into those sums. Positive semidefiniteness of these matrices is
what makes z look like the moments of a nonnegative measure supported where
theta >= 0.

The bases carry the package's one coefficient index: MonomialBasis.positions
finds the place of every monomial product, so the Gram rows and swap orbits
of certify.SosProgram, the certificate recheck and the moment and localizing
matrices here all expand through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb
from typing import Sequence

import numpy as np

from .polynomials import Exponents, Polynomial, VariableSpace, _monomials, grlex_key


class MonomialBasis:
    """Canonically ordered exponent vectors of total degree <= order, also as
    the (N, arity) array exponents and as codes in base order + 1 for positions."""

    __slots__ = ("space", "order", "elements", "exponents", "_index", "_radix", "_codes", "_rank")

    def __init__(self, space: VariableSpace, order: int):
        if order < 0:
            raise ValueError(f"basis order must be nonnegative, got {order}")
        arity = space.arity
        elements: list[Exponents] = []
        for total in range(order + 1):
            for combo in combinations_with_replacement(range(arity), total):
                exps = [0] * arity
                for idx in combo:
                    exps[idx] += 1
                elements.append(tuple(exps))
        elements.sort(key=grlex_key)
        self.space = space
        self.order = order
        self.elements = tuple(elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        assert len(self.elements) == comb(arity + order, order)
        self.exponents = np.array(self.elements, dtype=np.int64)
        self._radix = (order + 1) ** np.arange(arity, dtype=np.int64)
        self._rank = np.argsort(self.exponents @ self._radix)
        self._codes = self.exponents[self._rank] @ self._radix

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, i: int) -> Exponents:
        return self.elements[i]

    def __iter__(self):
        return iter(self.elements)

    def index(self, exponents: Exponents) -> int:
        try:
            return self._index[tuple(exponents)]
        except KeyError:
            raise ValueError(f"monomial {exponents} not in basis of order {self.order}") from None

    def positions(self, *factors: np.ndarray) -> np.ndarray:
        """Index of every sum of one exponent vector from each (k_i, arity) factor, shape (k_1, k_2, ...).

        Codes add as their vectors do while no entry exceeds order, so the caller
        must keep every sum's total degree <= order: this is not checked.
        """
        total = np.zeros((), dtype=np.int64)
        for factor in factors:
            total = np.add.outer(total, np.asarray(factor, dtype=np.int64) @ self._radix)
        return self._rank[np.searchsorted(self._codes, total)]


@lru_cache(maxsize=64)
def monomial_basis(space: VariableSpace, order: int) -> MonomialBasis:
    """Enumerate the full monomial basis of the space up to the given degree.

    Bases are never modified, so one instance per (space, order) is shared:
    every SDP build asks for the same few bases many times over.
    """
    return MonomialBasis(space, order)


@dataclass
class MomentSequence:
    """Values z_gamma for every monomial gamma with |gamma| <= 2*order, in the order of monomial_basis."""

    space: VariableSpace
    order: int
    values: np.ndarray

    @classmethod
    def from_atoms(
        cls,
        space: VariableSpace,
        order: int,
        points: Sequence[Sequence[float]],
        weights: Sequence[float],
    ) -> "MomentSequence":
        """Moments of the atomic measure sum_i weights[i] * delta(points[i])."""
        pts = np.asarray(points, dtype=float)
        wts = np.asarray(weights, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != space.arity:
            raise ValueError(f"expected atom coordinates of shape (t, {space.arity})")
        if wts.shape != (pts.shape[0],):
            raise ValueError("one weight per atom required")
        return cls(space, order, _monomials(pts, monomial_basis(space, 2 * order).exponents).T @ wts)

    def value(self, exponents: Exponents) -> float:
        try:
            return float(self.values[monomial_basis(self.space, 2 * self.order).index(exponents)])
        except ValueError:
            raise ValueError(
                f"moment {exponents} missing (sequence holds degrees <= {2 * self.order})"
            ) from None


def riesz_apply(z: MomentSequence, f: Polynomial) -> float:
    """Apply the linear functional of z to f: sum of coefficient * moment."""
    if f.space != z.space:
        raise ValueError("polynomial lives in a different space than the moments")
    if f.degree > 2 * z.order:
        raise ValueError(f"degree {f.degree} exceeds available moments (<= {2 * z.order})")
    return sum(coeff * z.value(exps) for exps, coeff in f.terms.items())


def moment_matrix(z: MomentSequence, order: int) -> np.ndarray:
    """Moment matrix of the given order, the localizing matrix of 1; needs moments up to degree 2*order."""
    if order > z.order:
        raise ValueError(f"order {order} exceeds moment sequence order {z.order}")
    return localizing_matrix(z, Polynomial.constant(z.space, 1.0), order)


def localizing_matrix(z: MomentSequence, theta: Polynomial, order: int) -> np.ndarray:
    """Localizing matrix of theta at the given order.

    Entry (i, j) is sum over theta's terms of coeff * z[e_i + e_j + e_theta];
    with theta = 1 this is the moment matrix. Needs moments up to degree
    2*order + deg(theta).
    """
    if theta.space != z.space:
        raise ValueError("weight polynomial lives in a different space than the moments")
    if 2 * order + theta.degree > 2 * z.order:
        raise ValueError(f"moments of degree {2 * order + theta.degree} missing (sequence holds <= {2 * z.order})")
    basis = monomial_basis(z.space, order).exponents
    positions = monomial_basis(z.space, 2 * z.order).positions(basis, basis, list(theta.terms))
    return z.values[positions] @ list(theta.terms.values())
