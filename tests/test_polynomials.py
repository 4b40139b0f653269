from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexcert.polynomials import (
    Polynomial,
    PolynomialSystem,
    VariableSpace,
    coeff_linf_distance,
    lift,
    midpoint_substitute,
)

X1 = VariableSpace(1)
X2 = VariableSpace(2)


def poly(space, terms):
    return Polynomial(space, terms)


# -- hypothesis strategies -----------------------------------------------------

# keep magnitudes far from underflow, so that a product of two nonzero
# coefficients is never zero and never drops a leading term
coeffs = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False).filter(
    lambda v: v == 0.0 or abs(v) >= 1e-3
)


def polynomials(space, max_degree=3, max_terms=5):
    exps = st.tuples(*[st.integers(min_value=0, max_value=max_degree) for _ in range(space.arity)])
    return st.dictionaries(exps, coeffs, min_size=0, max_size=max_terms).map(
        lambda d: Polynomial(space, d)
    )


points = st.lists(st.floats(min_value=-2, max_value=2, allow_nan=False), min_size=2, max_size=2)


# -- arithmetic ------------------------------------------------------------------


def test_add_doubles():
    x = Polynomial.variable(X1, 0)
    assert (x + x).terms == {(1,): 2.0}


def test_mul_difference_of_squares():
    x = Polynomial.variable(X1, 0)
    product = (1 - x) * (1 + x)
    assert product == poly(X1, {(0,): 1.0, (2,): -1.0})


def test_scale_by_zero_annihilates():
    x = Polynomial.variable(X1, 0)
    result = (x * x) * 0.0
    assert result.terms == {}
    assert result.degree == 0
    assert result.is_zero()


def test_numpy_scalars_act_like_python_numbers():
    # numpy scalars are numbers.Real; only np.float64 subclasses float
    x = Polynomial.variable(X1, 0)
    for two in (np.int64(2), np.float32(2.0), np.float64(2.0), 2):
        assert x * two == two * x == poly(X1, {(1,): 2.0})
        assert x + two == two + x == poly(X1, {(0,): 2.0, (1,): 1.0})
        assert x - two == poly(X1, {(0,): -2.0, (1,): 1.0})
        assert two - x == poly(X1, {(0,): 2.0, (1,): -1.0})
    # a float32 factor scales at double precision
    assert (poly(X1, {(1,): 0.1}) * np.float32(3.0)).terms == {(1,): 0.1 * 3.0}


def test_space_mismatch_rejected():
    with pytest.raises(ValueError):
        Polynomial.variable(X1, 0) + Polynomial.variable(X2, 0)


def test_tiny_coefficients_are_kept():
    tiny = 2.0**-44  # 5.7e-14
    p = poly(X1, {(0,): -tiny, (2,): 1.0})
    assert p.terms == {(0,): -tiny, (2,): 1.0}
    assert (p * p).terms == {(0,): tiny * tiny, (2,): -2.0 * tiny, (4,): 1.0}
    assert poly(X1, {(1,): 1e-300}).degree == 1
    # only an exact cancellation leaves a term out
    assert (p + tiny).terms == {(2,): 1.0}


@settings(max_examples=60)
@given(polynomials(X2), polynomials(X2))
def test_mul_commutes(a, b):
    assert coeff_linf_distance(a * b, b * a) <= 1e-12


@settings(max_examples=60)
@given(polynomials(X2), polynomials(X2), polynomials(X2))
def test_mul_distributes_over_add(a, b, c):
    left = a * (b + c)
    right = a * b + a * c
    scale = 1.0 + max((abs(v) for p in (left, right) for v in p.terms.values()), default=0.0)
    assert coeff_linf_distance(left, right) <= 1e-12 * scale


@settings(max_examples=60)
@given(polynomials(X2, max_degree=2), polynomials(X2, max_degree=2))
def test_degree_additive_for_nonzero_products(a, b):
    product = a * b
    if a.is_zero() or b.is_zero() or product.is_zero():
        return
    assert product.degree == a.degree + b.degree


# -- evaluation -------------------------------------------------------------------


def test_evaluate_examples():
    g = poly(X1, {(0,): 1.0, (2,): -1.0})
    assert g.evaluate([2.0]) == -3.0
    xy = poly(X2, {(1, 1): 1.0})
    assert xy.evaluate([3.0, 4.0]) == 12.0
    assert Polynomial.zero(X2).evaluate([5.0, 6.0]) == 0.0


def test_evaluate_arity_mismatch():
    with pytest.raises(ValueError):
        poly(X1, {(1,): 1.0}).evaluate([1.0, 2.0])


def test_evaluate_reads_points_as_floats():
    x = Polynomial.variable(X1, 0)
    # an int64 power would wrap to 7766279631452241920
    assert (x**5).evaluate(np.array([10**4])) == 1e20
    with np.errstate(over="ignore"):
        # a Python float power would raise OverflowError
        assert (x**2).evaluate([1e200]) == np.inf
        assert (x**2).evaluate(np.array([1e200])) == np.inf


def exact_value(terms, point):
    """sum of coeff * prod(w_i ** e_i) over a term map, every float read as an exact rational."""
    w = [Fraction(v) for v in point]
    return sum((Fraction(c) * prod(wi**e for wi, e in zip(w, exps)) for exps, c in terms.items()),
               Fraction(0))


def partial(terms, i):
    """d/dw_i of a term map, term by term, with exact rational coefficients."""
    out = {}
    for exps, coeff in terms.items():
        if exps[i]:
            shifted = list(exps)
            shifted[i] -= 1
            out[tuple(shifted)] = out.get(tuple(shifted), 0) + Fraction(coeff) * exps[i]
    return out


@settings(max_examples=50, deadline=None)
@given(st.lists(polynomials(X2.lift(), max_degree=3), min_size=1, max_size=4),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_polynomial_system_matches_exact_evaluation(polys, seed):
    points = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(6, 4))
    system = PolynomialSystem(polys)
    plain = system(points)
    values, grads, hessians = system.derivatives(points)
    for k, point in enumerate(points):
        for p_index, p in enumerate(polys):
            checks = [(plain[k, p_index], p.terms), (values[k, p_index], p.terms)]
            checks += [(grads[k, p_index, i], partial(p.terms, i)) for i in range(4)]
            checks += [(hessians[k, p_index, i, l], partial(partial(p.terms, i), l))
                       for i in range(4) for l in range(4)]
            for got, terms in checks:
                expected = exact_value(terms, point)
                assert abs(Fraction(got) - expected) <= Fraction(1e-12) * max(1, abs(expected))


def test_polynomial_system_shapes_and_errors():
    system = PolynomialSystem([poly(X2, {(1, 1): 2.0}), Polynomial.constant(X2, 3.0)])
    values, grads, hessians = system.derivatives([[1.0, -2.0]])
    assert values.tolist() == [[-4.0, 3.0]]
    assert grads.tolist() == [[[-4.0, 2.0], [0.0, 0.0]]]
    assert hessians.tolist() == [[[[0.0, 2.0], [2.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]
    assert PolynomialSystem([Polynomial.zero(X1)])([[5.0]]).tolist() == [[0.0]]
    with pytest.raises(ValueError):
        system([1.0, 2.0])  # one point must still be a row
    with pytest.raises(ValueError):
        PolynomialSystem([poly(X1, {(1,): 1.0}), poly(X2, {(1, 0): 1.0})])
    with pytest.raises(ValueError):
        PolynomialSystem([])


# -- midpoint substitution -----------------------------------------------------------


def test_midpoint_linear():
    x = Polynomial.variable(X1, 0)
    mid = midpoint_substitute(x)
    assert mid == poly(X1.lift(), {(1, 0): 0.5, (0, 1): 0.5})


def test_midpoint_square():
    x = Polynomial.variable(X1, 0)
    mid = midpoint_substitute(x * x)
    assert mid == poly(X1.lift(), {(2, 0): 0.25, (1, 1): 0.5, (0, 2): 0.25})


def test_midpoint_interval_constraint():
    g = poly(X1, {(0,): 1.0, (2,): -1.0})
    mid = midpoint_substitute(g)
    expected = poly(X1.lift(), {(0, 0): 1.0, (2, 0): -0.25, (1, 1): -0.5, (0, 2): -0.25})
    assert coeff_linf_distance(mid, expected) == 0.0
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b = rng.uniform(-3, 3, size=2)
        assert mid.evaluate([a, b]) == pytest.approx(g.evaluate([(a + b) / 2]), rel=1e-12, abs=1e-12)


def test_midpoint_rejects_lifted_input():
    with pytest.raises(ValueError):
        midpoint_substitute(Polynomial.variable(X1.lift(), 0))


@settings(max_examples=60)
@given(polynomials(X2, max_degree=3), points, points)
def test_midpoint_evaluation_identity(g, a, b):
    mid = midpoint_substitute(g)
    lhs = mid.evaluate(list(a) + list(b))
    rhs = g.evaluate([(u + v) / 2 for u, v in zip(a, b)])
    scale = 1.0 + abs(lhs) + abs(rhs)
    assert abs(lhs - rhs) <= 1e-10 * scale


def test_midpoint_preserves_degree():
    g = poly(X2, {(3, 1): 2.0, (0, 2): -1.0})
    assert midpoint_substitute(g).degree == g.degree


# -- lifting ------------------------------------------------------------------------


def test_lift_examples():
    g = poly(X1, {(0,): 1.0, (2,): -1.0})
    assert lift(g, "x") == poly(X1.lift(), {(0, 0): 1.0, (2, 0): -1.0})
    assert lift(g, "y") == poly(X1.lift(), {(0, 0): 1.0, (0, 2): -1.0})


@settings(max_examples=60)
@given(polynomials(X2, max_degree=3), points, points)
def test_lift_evaluation_identity(g, a, b):
    gx = lift(g, "x")
    gy = lift(g, "y")
    joint = list(a) + list(b)
    assert gx.evaluate(joint) == pytest.approx(g.evaluate(a), rel=1e-12, abs=1e-12)
    assert gy.evaluate(joint) == pytest.approx(g.evaluate(b), rel=1e-12, abs=1e-12)


@settings(max_examples=60)
@given(polynomials(X2, max_degree=3))
def test_lift_preserves_degree_and_coefficients(g):
    for side in ("x", "y"):
        lifted = lift(g, side)
        assert lifted.degree == g.degree
        assert sorted(lifted.terms.values()) == sorted(g.terms.values())


def test_lift_bad_side():
    with pytest.raises(ValueError):
        lift(Polynomial.variable(X1, 0), "z")


# -- coefficient distance ---------------------------------------------------------------


def test_distance_examples():
    g = poly(X1, {(0,): 1.0, (2,): -1.0})
    assert coeff_linf_distance(g, g) == 0.0
    h = g + poly(X1, {(1,): 1e-8})
    assert coeff_linf_distance(g, h) == pytest.approx(1e-8)


def test_distance_to_a_nan_coefficient_is_infinite():
    g = poly(X1, {(0,): 1.0, (2,): -1.0})
    for bad in (poly(X1, {(0,): float("nan"), (2,): -1.0}), g + poly(X1, {(1,): float("nan")})):
        assert coeff_linf_distance(g, bad) == float("inf")
        assert coeff_linf_distance(bad, g) == float("inf")
    # inf - inf is NaN too
    h = poly(X1, {(0,): float("inf")})
    assert coeff_linf_distance(h, h) == float("inf")


@settings(max_examples=60)
@given(polynomials(X2), polynomials(X2))
def test_distance_symmetric(a, b):
    assert coeff_linf_distance(a, b) == coeff_linf_distance(b, a)


# -- spaces -----------------------------------------------------------------------------


def test_variable_space_invariants():
    with pytest.raises(ValueError):
        VariableSpace(0)
    lifted = VariableSpace(3).lift()
    assert lifted.arity == 6
    assert lifted.variable_names() == ["x1", "x2", "x3", "y1", "y2", "y3"]
    with pytest.raises(ValueError):
        lifted.lift()


def test_power_matches_repeated_multiplication():
    g = poly(X1, {(0,): 1.0, (1,): 2.0})
    assert coeff_linf_distance(g**3, g * g * g) <= 1e-12
    assert (g**0) == Polynomial.constant(X1, 1.0)


def test_power_accepts_numpy_integers():
    # numpy integers are numbers.Integral, as numpy scalars are numbers.Real for + - *
    g = poly(X1, {(0,): 1.0, (1,): 2.0})
    for two in (np.int64(2), np.uint8(2), np.int32(2)):
        assert g**two == g**2
    assert g ** np.int64(0) == Polynomial.constant(X1, 1.0)
    for bad in (np.int64(-1), np.float64(2.0), 2.0):
        with pytest.raises(ValueError):
            g**bad
