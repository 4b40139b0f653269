import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexcert.cli import exit_code_for
from convexcert.polynomials import Polynomial, VariableSpace, coeff_linf_distance
from convexcert.problemio import (
    ParseError,
    make_report,
    parse_polynomial,
    parse_problem,
    serialize_report,
    validate_report_payload,
)

from conftest import ROOT, workload_texts

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


@pytest.mark.parametrize("line, column", [("g: 2 x", 6), ("  g: 1 + z", 10)])
def test_parse_problem_error_columns_count_from_the_line_start(line, column):
    with pytest.raises(ParseError) as err:
        parse_problem(f"vars: x\n{line}\n")
    assert (err.value.line, err.value.column) == (2, column)


@pytest.mark.parametrize("text, message, line, column", [
    ("vars: x x\ng: x\n", "duplicate variable name 'x'", 1, 9),
    ("  vars: x 1y\ng: x\n", "invalid variable name '1y'", 1, 11),
    ("vars: x\n   g: x - x\n", "constraint is the zero polynomial", 2, 6),
    ("  vars:\ng: x\n", "vars line names no variables", 1, 3),
    ("\n  g: x\nvars: x\n", "vars line must precede constraints", 2, 3),
    ("vars: x\n   let x\n", "unrecognized line 'let'", 2, 4),
    ("vars: x\nvars: y\ng: x\n", "duplicate vars line", 2, 1),
    ("# no vars line\n", "missing vars line", 1, 1),
    ("# no vars line", "missing vars line", 1, 1),
    ("vars: x\n", "no g: constraint lines", 1, 1),
    ("vars: x", "no g: constraint lines", 1, 1),
], ids=["duplicate-name", "invalid-name", "zero-constraint", "empty-vars", "g-before-vars", "unrecognized",
        "duplicate-vars", "missing-vars", "missing-vars-no-newline", "no-constraints", "no-constraints-no-newline"])
def test_parse_problem_points_at_the_rejected_token(text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert (err.value.message, err.value.line, err.value.column) == (message, line, column)


def test_parse_problem_keeps_tiny_coefficients():
    # the set under test is the one written: x^2 >= 1e-13, not x^2 >= 0
    spec = parse_problem("vars: x\ng: x^2 - 1e-13\n")
    assert spec.constraints[0].terms == {(0,): -1e-13, (2,): 1.0}
    report = make_report("analyze", spec, {}, [])
    assert report["problem"]["constraints"] == ["-1e-13 + x^2"]


def test_constraint_string_keeps_a_coefficient_next_to_one():
    # only an exact 1 is left unprinted, so the report's string parses back to the set under test
    spec = parse_problem("vars: x\ng: 1.0000000000000002*x - 1\n")
    text = make_report("analyze", spec, {}, [])["problem"]["constraints"][0]
    assert text == "-1.0 + 1.0000000000000002*x"
    assert parse_polynomial(text, spec.space, spec.names).terms == spec.constraints[0].terms


@pytest.mark.parametrize("body", ["1e400 - x^2", "(1e200*x)^2 - 1", "1e400 - 1e400 + x"])
def test_parse_problem_rejects_non_finite_coefficients(body):
    # an overflowing literal or product must stop at the parser, not in the solver
    with pytest.raises(ParseError, match="non-finite coefficient") as err:
        parse_problem(f"vars: x\ng: 1 - x^2\n  g: {body}\n")
    assert (err.value.line, err.value.column) == (3, 5)


# -- the parser against the operator-built polynomials -----------------------------------

_REFERENCE_TOKEN = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?|[A-Za-z_][A-Za-z0-9_]*|\S")


def _operator_built(body, space, names):
    """The polynomial of one well-formed constraint body, built with Polynomial's operators rule by rule."""
    tokens = _REFERENCE_TOKEN.findall(body) + [""]
    pos = 0

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def expr():
        negate = False
        if tokens[pos] in ("+", "-"):
            negate = take() == "-"
        result = term()
        if negate:
            result = -result
        while tokens[pos] in ("+", "-"):
            sign = take()
            rhs = term()
            result = result - rhs if sign == "-" else result + rhs
        return result

    def term():
        result = factor()
        while tokens[pos] == "*":
            take()
            result = result * factor()
        return result

    def factor():
        base = atom()
        if tokens[pos] == "^":
            take()
            base = base ** int(take())
        return base

    def atom():
        tok = take()
        if tok == "(":
            inner = expr()
            assert take() == ")"
            return inner
        if tok in names:
            return Polynomial.variable(space, names.index(tok))
        return Polynomial.constant(space, float(tok))

    result = expr()
    assert tokens[pos] == ""
    return result


REFERENCE_TEXTS = {
    "problems": [path.read_text() for path in sorted((ROOT / "problems").glob("*.txt"))],
    **{f"{name}-{seed}": list(workload_texts(name, seed).values())
       for name in ("corpus", "certify-convex", "refute-nonconvex") for seed in (1, 2, 3)},
    # terms that cancel, and one that comes back after it cancelled
    "cancellations": [f"vars: x y\ng: {body}\n" for body in (
        "x - x + x^2", "1e300*x^2 - 1e300*x^2 + x", "(x+y)^3 - (x-y)^3 - 2*y^3", "x + y - x + x")],
}


@pytest.mark.parametrize("source", sorted(REFERENCE_TEXTS))
def test_parsed_terms_equal_the_operator_built_ones(source):
    # keys, key order and coefficient bits, as Polynomial's operators build them
    for text in REFERENCE_TEXTS[source]:
        spec = parse_problem(text)
        lines = [raw.split("#", 1)[0].strip() for raw in text.splitlines()]
        bodies = [line[len("g:"):] for line in lines if line.startswith("g:")]
        assert len(bodies) == spec.m
        for g, body in zip(spec.constraints, bodies):
            expected = _operator_built(body, spec.space, list(spec.names))
            assert [(k, c.hex()) for k, c in g.terms.items()] == [(k, c.hex()) for k, c in expected.terms.items()], body


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
    assert json.loads(serialize_report(report)) == report
    special = {"values": [math.nan, math.inf, -math.inf]}
    text = serialize_report(special)
    assert text == '{"values": [NaN, Infinity, -Infinity]}'
    nan, inf, minus_inf = json.loads(text)["values"]
    assert math.isnan(nan) and (inf, minus_inf) == (math.inf, -math.inf)


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
    assert make_report("certify", spec, {}, both_certified)["verdict"] == "convex"
    one_missing = [
        {**base, "index": 1, "verdict": "certified"},
        {**base, "index": 2, "verdict": "inconclusive"},
    ]
    assert make_report("certify", spec, {}, one_missing)["verdict"] == "inconclusive"
    witnessed = [
        {**base, "index": 1, "verdict": "refuted", "witness": {"atoms": []}},
        {**base, "index": 2, "verdict": "inconclusive"},
    ]
    assert make_report("refute", spec, {}, witnessed)["verdict"] == "not convex"


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
    assert "numerical-contradiction" in report["flags"]
    assert report["verdict"] == "inconclusive"
    assert exit_code_for(report) == 70


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
    assert report["verdict"] == "inconclusive"
    assert validate_report_payload(report) == []


def test_report_with_no_entries_is_inconclusive():
    spec = parse_problem("vars: x1\ng: 1 - x1^2")
    report = make_report("analyze", spec, {}, [])
    assert report["verdict"] == "inconclusive"
    assert report["constraints"] == []
    assert validate_report_payload(report) == []


def test_validate_report_catches_bad_verdict():
    spec = parse_problem("vars: x1\ng: 1 - x1^2")
    payload = _tiny_report(spec)
    payload["verdict"] = "maybe"
    assert validate_report_payload(payload)
    payload["verdict"] = "not convex"  # no witness present anywhere
    assert validate_report_payload(payload)


@pytest.mark.parametrize("change", [
    {"verdict": "convex"},  # problem.m is 2 and the one entry is certified
    {"mode": "nonsense"},
    {"flags": ["bogus-flag"]},
])
def test_validate_report_checks_the_documented_schema(change):
    spec = parse_problem("vars: x1 x2\ng: 1 - x1^2\ng: 1 - x2^2")
    payload = _tiny_report(spec)
    assert validate_report_payload(payload) == []
    payload.update(change)
    assert validate_report_payload(payload)


TWO_INTERVAL_SPEC = "vars: x1\ng: x1^2 - 1\ng: 4 - x1^2"


def _evidence_report(mode="refute", source="sampled", margin=0.75, rhos=(-1.0,), signal=False, witness=True):
    """A report whose g1 entry carries one relaxation record per bound in rhos
    and, when witness, a one-atom witness of the given source and margin."""
    solver = {"solver_status": "optimal", "solver_tol": 1e-9, "blocks": [2, 1, 1], "reduced_blocks": [2, 1, 1],
              "p": 3, "iterations": 9, "primal_residual": 1e-11, "dual_residual": 1e-11, "relative_gap": 1e-11}
    atom = {"x": [-1.5], "y": [1.5], "weight": 1.0, "midpoint": [0.0], "violation": -1.0,
            "feasibility_margin": margin}
    entry = {
        "index": 1,
        "verdict": "refuted" if witness else "inconclusive",
        "certificate": None,
        "witness": {"kind": "midpoint-violation", "constraint": 1, "source": source, "order": len(rhos),
                    "rho": rhos[-1], "tol_feas": 1e-6, "tol_strict": 1e-5, "atoms": [atom]} if witness else None,
        "relaxations": [{"order": k, "status": "optimal", "rho": rho, "solver": dict(solver)}
                        for k, rho in enumerate(rhos, start=1)],
        "attempts": [{"kind": "preordering", "degree": 1, "status": "infeasible",
                      "reason": "no certificate at this degree", "solver": dict(solver)}],
        "notes": [],
        "unproven_signal": signal,
    }
    return make_report(mode, parse_problem(TWO_INTERVAL_SPEC), {"tol_feas": 1e-6}, [entry])


def test_evidence_report_is_valid():
    assert validate_report_payload(_evidence_report()) == []
    assert validate_report_payload(_evidence_report(source="moments", margin=0.0)) == []
    assert validate_report_payload(_evidence_report(witness=False, signal=True)) == []
    assert validate_report_payload(_evidence_report(witness=False, rhos=(-1.0, -1e-6))) == []


@pytest.mark.parametrize("key", ["relaxations", "attempts"])
@pytest.mark.parametrize("change", ["missing", "extra"])
def test_validate_report_requires_the_solver_record_keys(key, change):
    payload = _evidence_report()
    solver = payload["constraints"][0][key][0]["solver"]
    if change == "missing":
        del solver["p"]
    else:
        solver["elapsed"] = 0.0
    (issue,) = validate_report_payload(payload)
    assert issue.startswith(f"constraint 0 {key}[0].solver lacks")
    assert ("['p'] and has extra []" if change == "missing" else "[] and has extra ['elapsed']") in issue


@pytest.mark.parametrize("source, margin", [
    ("moments", -1e-12),  # outside the set as evaluated
    ("sampled", 0.0),  # a sampled atom lies strictly inside
    ("sampled", math.nan),
    ("moments", None),
])
def test_validate_report_requires_witness_atoms_in_the_set(source, margin):
    payload = _evidence_report(source=source, margin=margin)
    (issue,) = validate_report_payload(payload)
    assert issue.startswith(f"constraint 0 witness atom 0 has feasibility_margin {margin!r}")


@pytest.mark.parametrize("mode, rhos, signal", [
    ("refute", (-0.571, -4.41e-5, 8.85e-11), True),  # a nonnegative last bound withdraws the signal
    ("analyze", (-0.5, 1.0), True),
    ("refute", (-0.5,), False),  # a negative last bound with no witness is a signal
    ("certify", (-0.5,), True),  # certify mode raises no signal
])
def test_validate_report_requires_the_signal_of_the_last_bound(mode, rhos, signal):
    payload = _evidence_report(mode=mode, rhos=rhos, signal=signal, witness=False)
    (issue,) = validate_report_payload(payload)
    assert issue == (f"constraint 0 has unproven_signal {signal!r}, but its mode, evidence and "
                     f"last bound give {not signal}")
    payload["constraints"][0]["unproven_signal"] = not signal
    assert validate_report_payload(payload) == []


def test_validate_report_never_raises_on_a_partial_payload():
    payload = _evidence_report(witness=False, signal=True)
    assert validate_report_payload({**payload, "parameters": {}}) == [
        "constraint 0 has a bound but parameters.tol_feas is None"]
    entries = [{}, {"relaxations": None, "attempts": [None, {"solver": None}]},
               {"relaxations": [{"rho": "low"}], "witness": {"atoms": [None, {}]}},
               {"witness": {"atoms": "none"}, "unproven_signal": True}]
    issues = validate_report_payload({**payload, "constraints": entries})
    assert [issue.split(" has ")[0].split(" lacks ")[0] for issue in issues] == [
        "constraint 0", "constraint 1", "constraint 1 attempts[1].solver", "constraint 2",
        "constraint 2 witness atom 0", "constraint 2 witness atom 1", "constraint 3", "constraint 3"]


def test_serialized_report_is_deterministic():
    spec = parse_problem("vars: x1\ng: 1 - x1^2")
    a = serialize_report(_tiny_report(spec))
    b = serialize_report(_tiny_report(spec))
    assert a == b
    assert "\n" not in a
    assert json.loads(a) == _tiny_report(spec)
