import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexcert.polynomials import Polynomial, VariableSpace, coeff_linf_distance
from convexcert.problemio import (
    ParseError,
    make_report,
    parse_polynomial,
    parse_problem,
    serialize_report,
    validate_report_payload,
)

X1 = VariableSpace(1)
X2 = VariableSpace(2)


# -- polynomial grammar ------------------------------------------------------------


def test_parse_simple():
    p = parse_polynomial("1 - x1^2", X1)
    assert p == Polynomial(X1, {(0,): 1.0, (2,): -1.0})


def test_parse_product():
    p = parse_polynomial("x1*x2", X2)
    assert p == Polynomial(X2, {(1, 1): 1.0})


def test_parse_negative_exponent_rejected():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x1^-1", X1)
    assert err.value.line == 1
    assert "exponent" in str(err.value)


def test_parse_fractional_exponent_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("x1^2.5", X1)


def test_parse_unknown_variable():
    with pytest.raises(ParseError) as err:
        parse_polynomial("1 + z", X1)
    assert "unknown variable" in str(err.value)
    assert err.value.column == 5


def test_parse_implicit_multiplication_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("2 x1", X1)


def test_parse_parentheses_and_powers():
    p = parse_polynomial("(1 - x1)^2", X1)
    assert p == Polynomial(X1, {(0,): 1.0, (1,): -2.0, (2,): 1.0})


def test_parse_leading_minus():
    a = parse_polynomial("1-x1^2", X1)
    b = parse_polynomial("- x1^2 + 1", X1)
    assert a == b


def test_parse_scientific_notation():
    p = parse_polynomial("2.5e-1 * x1", X1)
    assert p == Polynomial(X1, {(1,): 0.25})


def test_parse_custom_names():
    p = parse_polynomial("u*v - 1", X2, names=["u", "v"])
    assert p == Polynomial(X2, {(1, 1): 1.0, (0, 0): -1.0})


def test_parse_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        parse_polynomial("x1 )", X1)


def test_parse_rejects_unknown_character():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x1 $ 2", X1)
    assert err.value.column == 4


def test_parse_empty_input():
    with pytest.raises(ParseError):
        parse_polynomial("   ", X1)


coeff_ints = st.integers(min_value=-9, max_value=9)


@settings(max_examples=50)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        coeff_ints.filter(lambda v: v != 0),
        min_size=1,
        max_size=4,
    )
)
def test_print_parse_round_trip(terms):
    p = Polynomial(X2, {k: float(v) for k, v in terms.items()})
    if p.is_zero():
        return
    back = parse_polynomial(p.to_string(), X2)
    assert coeff_linf_distance(p, back) == 0.0


# -- problem files -------------------------------------------------------------------


def test_parse_problem_single():
    spec = parse_problem("vars: x1\ng: 1 - x1^2")
    assert spec.n == 1
    assert spec.m == 1
    assert spec.constraints[0] == Polynomial(X1, {(0,): 1.0, (2,): -1.0})


def test_parse_problem_multi():
    spec = parse_problem("vars: x1 x2\ng: x1^2 - x2\ng: 1 - x1^2\ng: 1 - x2^2")
    assert spec.n == 2
    assert spec.m == 3


def test_parse_problem_comments_and_blanks():
    text = "# heading\n\nvars: x1  # inline\n\ng: x1  # right side\n"
    spec = parse_problem(text)
    assert spec.m == 1


def test_parse_problem_missing_vars():
    with pytest.raises(ParseError):
        parse_problem("g: 1 - x1^2\n")


def test_parse_problem_no_constraints():
    with pytest.raises(ParseError):
        parse_problem("vars: x1\n")


def test_parse_problem_duplicate_names():
    with pytest.raises(ParseError):
        parse_problem("vars: x1 x1\ng: x1\n")


def test_parse_problem_constraint_before_vars():
    with pytest.raises(ParseError, match="precede"):
        parse_problem("g: x1\nvars: x1\n")


def test_parse_problem_zero_constraint():
    with pytest.raises(ParseError):
        parse_problem("vars: x1\ng: x1 - x1\n")


def test_parse_problem_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_problem("vars: x1\ng: 1 - x1^2\ng: x1^^2\n")
    assert err.value.line == 3


def test_parse_problem_keeps_tiny_coefficients():
    # the set under test is the one written: x^2 >= 1e-13, not x^2 >= 0
    spec = parse_problem("vars: x\ng: x^2 - 1e-13\n")
    assert spec.constraints[0].terms == {(0,): -1e-13, (2,): 1.0}
    report = make_report("analyze", spec, {}, [])
    assert report.payload()["problem"]["constraints"] == ["-1e-13 + x^2"]


def test_constraint_string_keeps_a_coefficient_next_to_one():
    # only an exact 1 is left unprinted, so the report's string parses back to the set under test
    spec = parse_problem("vars: x\ng: 1.0000000000000002*x - 1\n")
    text = make_report("analyze", spec, {}, []).payload()["problem"]["constraints"][0]
    assert text == "-1.0 + 1.0000000000000002*x"
    assert parse_polynomial(text, spec.space, spec.names).terms == spec.constraints[0].terms


@pytest.mark.parametrize("body", ["1e400 - x^2", "(1e200*x)^2 - 1", "1e400 - 1e400 + x"])
def test_parse_problem_rejects_non_finite_coefficients(body):
    # an overflowing literal or product must stop at the parser, not in the solver
    with pytest.raises(ParseError, match="non-finite coefficient") as err:
        parse_problem(f"vars: x\ng: 1 - x^2\n  g: {body}\n")
    assert (err.value.line, err.value.column) == (3, 5)


# -- reports ----------------------------------------------------------------------------


def _tiny_report(spec):
    entry = {
        "index": 1,
        "verdict": "certified",
        "certificate": {"kind": "quadratic-module", "residual": 3.0325999489377864e-09},
        "witness": None,
        "relaxations": [],
        "attempts": [{"kind": "quadratic-module", "degree": 1, "status": "optimal"}],
        "notes": [],
        "unproven_signal": False,
    }
    return make_report("certify", spec, {"order": 1}, [entry])


def test_report_round_trip():
    spec = parse_problem("vars: x1\ng: 1 - x1^2")
    report = _tiny_report(spec)
    payload = report.payload()
    assert json.loads(serialize_report(report)) == payload


def test_report_float_precision_survives():
    spec = parse_problem("vars: x1\ng: 1 - x1^2")
    report = _tiny_report(spec)
    text = serialize_report(report)
    back = json.loads(text)
    assert back["constraints"][0]["certificate"]["residual"] == 3.0325999489377864e-09


def test_report_verdict_invariants():
    spec = parse_problem("vars: x1 x2\ng: 1 - x1^2\ng: 1 - x2^2")
    base = {
        "certificate": None,
        "witness": None,
        "relaxations": [],
        "attempts": [],
        "notes": [],
        "unproven_signal": False,
    }
    both_certified = [
        {**base, "index": 1, "verdict": "certified"},
        {**base, "index": 2, "verdict": "certified"},
    ]
    assert make_report("certify", spec, {}, both_certified).verdict == "convex"
    one_missing = [
        {**base, "index": 1, "verdict": "certified"},
        {**base, "index": 2, "verdict": "inconclusive"},
    ]
    assert make_report("certify", spec, {}, one_missing).verdict == "inconclusive"
    witnessed = [
        {**base, "index": 1, "verdict": "refuted", "witness": {"atoms": []}},
        {**base, "index": 2, "verdict": "inconclusive"},
    ]
    assert make_report("refute", spec, {}, witnessed).verdict == "not convex"


def test_report_contradiction_flagged():
    spec = parse_problem("vars: x1\ng: 1 - x1^2")
    entry = {
        "index": 1,
        "verdict": "certified",
        "certificate": {"kind": "quadratic-module"},
        "witness": {"atoms": []},
        "relaxations": [],
        "attempts": [],
        "notes": [],
        "unproven_signal": False,
    }
    report = make_report("analyze", spec, {}, [entry])
    assert "numerical-contradiction" in report.flags
    assert report.verdict == "inconclusive"


def test_empty_inconclusive_report_schema():
    spec = parse_problem("vars: x1\ng: 1 - x1^2")
    entry = {
        "index": 1,
        "verdict": "inconclusive",
        "certificate": None,
        "witness": None,
        "relaxations": [],
        "attempts": [],
        "notes": [],
        "unproven_signal": False,
    }
    report = make_report("analyze", spec, {}, [entry])
    assert report.verdict == "inconclusive"
    assert validate_report_payload(report.payload()) == []


def test_report_with_no_entries_is_inconclusive():
    spec = parse_problem("vars: x1\ng: 1 - x1^2")
    report = make_report("analyze", spec, {}, [])
    assert report.verdict == "inconclusive"
    payload = report.payload()
    assert payload["constraints"] == []
    assert validate_report_payload(payload) == []


def test_validate_report_catches_bad_verdict():
    spec = parse_problem("vars: x1\ng: 1 - x1^2")
    payload = _tiny_report(spec).payload()
    payload["verdict"] = "maybe"
    assert validate_report_payload(payload)
    payload["verdict"] = "not convex"  # no witness present anywhere
    assert validate_report_payload(payload)


def test_serialized_report_is_deterministic():
    spec = parse_problem("vars: x1\ng: 1 - x1^2")
    a = serialize_report(_tiny_report(spec))
    b = serialize_report(_tiny_report(spec))
    assert a == b
    json.loads(a)
