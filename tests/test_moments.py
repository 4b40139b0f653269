from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexcert.moments import (
    MomentSequence,
    localizing_matrix,
    moment_matrix,
    monomial_basis,
    riesz_apply,
)
from convexcert.polynomials import Polynomial, VariableSpace, grlex_key, lift

LIFTED1 = VariableSpace(1).lift()
LIFTED2 = VariableSpace(2).lift()


# -- basis enumeration ---------------------------------------------------------


def test_basis_order_two_vars():
    basis = monomial_basis(LIFTED1, 2)
    assert basis.elements == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def test_basis_counts():
    assert len(monomial_basis(LIFTED2, 1)) == 5
    assert len(monomial_basis(LIFTED1, 0)) == 1
    for order in range(4):
        for space in (LIFTED1, LIFTED2):
            assert len(monomial_basis(space, order)) == comb(space.arity + order, order)


def test_basis_sorted_and_unique():
    basis = monomial_basis(LIFTED2, 3)
    keys = [grlex_key(e) for e in basis]
    assert keys == sorted(keys)
    assert len(set(basis.elements)) == len(basis)
    assert basis[0] == (0, 0, 0, 0)


def test_basis_index_lookup():
    basis = monomial_basis(LIFTED1, 2)
    for i, exps in enumerate(basis):
        assert basis.index(exps) == i
    with pytest.raises(ValueError):
        basis.index((5, 5))


def test_lower_order_moment_matrix_is_leading_block():
    # rank_flatness_check slices M_{s-v}(z) out of M_s(z); the graded order makes
    # every lower-order basis a prefix of the higher-order one
    rng = np.random.default_rng(11)
    for space in (LIFTED1, LIFTED2):
        pts = rng.uniform(-1, 1, size=(3, space.arity))
        z = MomentSequence.from_atoms(space, 3, pts, rng.dirichlet(np.ones(3)))
        full = moment_matrix(z, 3)
        for order in range(3):
            size = len(monomial_basis(space, order))
            assert np.array_equal(moment_matrix(z, order), full[:size, :size])


def test_positions_match_the_index_of_each_sum():
    # seeded factors whose sums stay within the basis order, for 1 to 3 factors
    rng = np.random.default_rng(17)
    for arity in range(1, 5):
        space = VariableSpace(arity)
        for order in range(7):
            basis = monomial_basis(space, order)
            for count in (1, 2, 3):
                cuts = np.sort(rng.integers(0, order + 1, size=count - 1))
                degrees = np.diff([0, *cuts, order])  # a degree budget per factor, summing to order
                factors = []
                for degree in degrees:
                    rows = monomial_basis(space, int(degree)).exponents
                    factors.append(rows[rng.integers(0, len(rows), size=rng.integers(1, 6))])
                got = basis.positions(*factors)
                assert got.shape == tuple(len(f) for f in factors)
                for cell in np.ndindex(got.shape):
                    total = sum(f[i] for f, i in zip(factors, cell))
                    assert got[cell] == basis.index(tuple(int(e) for e in total))


# -- Riesz functional ---------------------------------------------------------------


def test_riesz_dirac():
    z = MomentSequence.from_atoms(LIFTED1, 1, [[2.0, 3.0]], [1.0])
    f = Polynomial(LIFTED1, {(1, 1): 1.0})
    assert riesz_apply(z, f) == pytest.approx(6.0)


def test_riesz_normalized_constant():
    z = MomentSequence.from_atoms(LIFTED1, 2, [[0.4, -1.2], [0.0, 0.5]], [0.3, 0.7])
    assert riesz_apply(z, Polynomial.constant(LIFTED1, 1.0)) == pytest.approx(1.0)


def test_riesz_degree_overflow():
    z = MomentSequence.from_atoms(LIFTED1, 1, [[1.0, 1.0]], [1.0])
    with pytest.raises(ValueError):
        riesz_apply(z, Polynomial(LIFTED1, {(3, 0): 1.0}))


@settings(max_examples=40)
@given(
    st.lists(st.floats(-2, 2), min_size=2, max_size=2),
    st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 1)), st.floats(-5, 5), max_size=4),
    st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 1)), st.floats(-5, 5), max_size=4),
)
def test_riesz_linear(atom, fterms, gterms):
    z = MomentSequence.from_atoms(LIFTED1, 1, [atom], [1.0])
    f = Polynomial(LIFTED1, fterms)
    g = Polynomial(LIFTED1, gterms)
    lhs = riesz_apply(z, f + g)
    rhs = riesz_apply(z, f) + riesz_apply(z, g)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


# -- moment matrices -------------------------------------------------------------------


def test_moment_matrix_dirac_outer_product():
    z = MomentSequence.from_atoms(LIFTED1, 1, [[2.0, 3.0]], [1.0])
    m = moment_matrix(z, 1)
    expected = np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert np.allclose(m, expected)
    assert np.linalg.matrix_rank(m, tol=1e-9) == 1


def test_moment_matrix_unit_mass_only():
    values = np.zeros(len(monomial_basis(LIFTED1, 2)))
    values[0] = 1.0  # the constant monomial comes first
    z = MomentSequence(LIFTED1, 1, values)
    m = moment_matrix(z, 1)
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    assert np.array_equal(m, expected)


def test_moment_matrix_two_atoms_rank_two():
    z = MomentSequence.from_atoms(LIFTED1, 1, [[1.0, 0.0], [0.0, -1.0]], [0.5, 0.5])
    m = moment_matrix(z, 1)
    svals = np.linalg.svd(m, compute_uv=False)
    assert np.sum(svals > 1e-9) == 2


def test_moment_matrix_requires_enough_moments():
    z = MomentSequence.from_atoms(LIFTED1, 1, [[1.0, 1.0]], [1.0])
    with pytest.raises(ValueError):
        moment_matrix(z, 2)


# -- localizing matrices -----------------------------------------------------------------


def test_localizing_identity_weight_is_moment_matrix():
    z = MomentSequence.from_atoms(LIFTED1, 2, [[0.3, -0.7], [0.1, 0.2]], [0.4, 0.6])
    one = Polynomial.constant(LIFTED1, 1.0)
    assert np.allclose(localizing_matrix(z, one, 1), moment_matrix(z, 1))


def test_localizing_zero_weight_is_the_zero_matrix():
    space = VariableSpace(2)
    z = MomentSequence.from_atoms(space, 2, [[1.0, 2.0]], [1.0])
    basis = monomial_basis(space, 4)
    assert basis.positions(basis.exponents[:3], []).shape == (3, 0)
    np.testing.assert_array_equal(localizing_matrix(z, Polynomial.zero(space), 1), np.zeros((3, 3)))


def test_localizing_flags_negative_constraint():
    g = Polynomial(VariableSpace(1), {(0,): 1.0, (2,): -1.0})
    theta = lift(g, "x")
    z = MomentSequence.from_atoms(LIFTED1, 1, [[2.0, 3.0]], [1.0])
    loc = localizing_matrix(z, theta, 0)
    assert loc.shape == (1, 1)
    assert loc[0, 0] == pytest.approx(-3.0)


def test_localizing_psd_for_supported_measure():
    rng = np.random.default_rng(3)
    g = Polynomial(VariableSpace(1), {(0,): 1.0, (2,): -1.0})
    theta = lift(g, "x")
    pts = rng.uniform(-1, 1, size=(3, 2))  # x inside [-1,1] so theta >= 0
    wts = rng.dirichlet(np.ones(3))
    z = MomentSequence.from_atoms(LIFTED1, 2, pts, wts)
    loc = localizing_matrix(z, theta, 1)
    eigs = np.linalg.eigvalsh(loc)
    assert eigs[0] >= -1e-9 * max(1.0, np.abs(loc).max())


# -- quadratic form identities -------------------------------------------------------------


def _random_atomic(rng, space, order, max_atoms=3):
    t = rng.integers(1, max_atoms + 1)
    pts = rng.uniform(-1, 1, size=(t, space.arity))
    wts = rng.dirichlet(np.ones(t))
    return MomentSequence.from_atoms(space, order, pts, wts)


def test_moment_matrix_psd_for_atomic_measures():
    rng = np.random.default_rng(11)
    for _ in range(25):
        space = LIFTED1 if rng.random() < 0.5 else LIFTED2
        z = _random_atomic(rng, space, 2)
        m = moment_matrix(z, 2)
        norm = np.linalg.norm(m, 2)
        assert np.linalg.eigvalsh(m)[0] >= -1e-9 * max(1.0, norm)


def test_quadratic_form_equals_riesz_of_square():
    rng = np.random.default_rng(12)
    for _ in range(20):
        z = _random_atomic(rng, LIFTED1, 2)
        basis = monomial_basis(LIFTED1, 2)
        v = rng.normal(size=len(basis))
        p = Polynomial(LIFTED1, {e: c for e, c in zip(basis, v)})
        lhs = float(v @ moment_matrix(z, 2) @ v)
        rhs = riesz_apply(z, p * p)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_localized_quadratic_form_equals_riesz_of_weighted_square():
    rng = np.random.default_rng(13)
    for _ in range(20):
        pts = rng.uniform(-1, 1, size=(2, 2))
        wts = rng.dirichlet(np.ones(2))
        z = MomentSequence.from_atoms(LIFTED1, 2, pts, wts)
        theta = Polynomial(LIFTED1, {(0, 0): rng.normal(), (1, 0): rng.normal(), (0, 1): rng.normal(),
                                     (2, 0): rng.normal()})
        basis = monomial_basis(LIFTED1, 1)
        v = rng.normal(size=len(basis))
        p = Polynomial(LIFTED1, {e: c for e, c in zip(basis, v)})
        lhs = float(v @ localizing_matrix(z, theta, 1) @ v)
        rhs = riesz_apply(z, theta * p * p)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_rank_bounded_by_atom_count():
    rng = np.random.default_rng(14)
    for t in (1, 2, 3):
        pts = rng.uniform(-1, 1, size=(t, 2))
        z = MomentSequence.from_atoms(LIFTED1, 2, pts, np.full(t, 1.0 / t))
        m = moment_matrix(z, 2)
        svals = np.linalg.svd(m, compute_uv=False)
        assert np.sum(svals > 1e-8 * svals[0]) <= t
