"""Problem-file parsing and report serialization.

Problem files are line oriented: one ``vars:`` line naming the variables, one
``g:`` line per defining inequality g(x) >= 0, ``#`` comments, blank lines
ignored. Polynomial expressions use the grammar documented in
docs/formats.md: numeric literals, declared variable names, ``+ - * ^``,
parentheses, no implicit multiplication, exponents restricted to nonnegative
integer literals.

The parser descends over term maps ({exponents: coefficient}), not
Polynomial objects, and builds each constraint with one Polynomial._of. Its
maps equal, keys, key order and coefficient bits included, those that
Polynomial's operators build from the same text: products and powers share
the pair loop and square-and-multiply of polynomials.py, and a sum adds its
terms in the order written, dropping a key the moment it cancels.

A report is the plain dict it serializes to, emitted as one line of
deterministic JSON with sorted keys, by CPython's C encoder; floats are
written with repr precision so that parse(serialize(report)) is the identity
on every payload field, NaN and infinities included.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

from .polynomials import Exponents, Polynomial, VariableSpace, _pair_products, _power, _summed


class ParseError(ValueError):
    """Rejection of an input text, carrying a 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


@dataclass(frozen=True)
class ProblemSpec:
    """Dimension n plus the ordered defining polynomials g_1..g_m."""

    n: int
    constraints: tuple[Polynomial, ...]
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("dimension must be at least 1")
        if len(self.names) != self.n:
            raise ValueError("one name per variable required")
        if len(self.constraints) < 1:
            raise ValueError("at least one constraint required")
        for i, g in enumerate(self.constraints):
            if g.space != self.space:
                raise ValueError(f"constraint {i + 1} lives in the wrong space")
            if g.is_zero():
                raise ValueError(f"constraint {i + 1} is the zero polynomial")

    @property
    def space(self) -> VariableSpace:
        return VariableSpace(self.n)

    @property
    def m(self) -> int:
        return len(self.constraints)

    def constraint_strings(self) -> list[str]:
        return [g.to_string(self.names) for g in self.constraints]


# -- polynomial expression parser ----------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[+\-*^()])"
    r"|(?P<ws>\s+)"
)


_Terms = dict[Exponents, float]
_Token = tuple[str, str, int, int]  # kind (num | name | op | end), text, line, column


def _tokenize(text: str, line_offset: int = 1) -> list[_Token]:
    tokens: list[_Token] = []
    line = line_offset
    col = 1
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = match.lastgroup
        chunk = match.group()
        if kind != "ws":
            tokens.append((kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = match.end()
    tokens.append(("end", "", line, col))
    return tokens


class _ExpressionParser:
    """Recursive descent over: expr := [+-] term (('+'|'-') term)*,
    term := factor ('*' factor)*, factor := atom ['^' INT],
    atom := NUM | NAME | '(' expr ')'.

    Every rule returns a term map, the map Polynomial's operators would build
    for the same text: products and powers go through the pair loop and
    square-and-multiply of Polynomial.__mul__ and __pow__, and an expr adds
    its terms in the order written, dropping a key the moment it cancels,
    as the chain of + and - does.
    """

    def __init__(self, tokens: list[_Token], space: VariableSpace, names: list[str]):
        self.tokens = tokens
        self.pos = 0
        self.one = (0,) * space.arity
        self.variables = {
            name: {tuple(int(i == j) for j in range(space.arity)): 1.0} for i, name in enumerate(names)
        }

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> _Terms:
        result = self.expr()
        kind, text, line, column = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {text!r}", line, column)
        return result

    def expr(self) -> _Terms:
        total: _Terms = {}
        kind, text = self.peek()[:2]
        negate = kind == "op" and text == "-"
        if kind == "op" and text in "+-":
            self.advance()
        while True:
            for key, coeff in self.term().items():
                value = total.get(key, 0.0) + (-coeff if negate else coeff)
                if value == 0.0:
                    del total[key]
                else:
                    total[key] = value
            kind, text = self.peek()[:2]
            if kind != "op" or text not in "+-":
                return total
            self.advance()
            negate = text == "-"

    def term(self) -> _Terms:
        result = self.factor()
        while self.peek()[1] == "*":
            self.advance()
            result = _summed(_pair_products(result, self.factor()))
        return result

    def factor(self) -> _Terms:
        base = self.atom()
        if self.peek()[1] == "^":
            self.advance()
            kind, text, line, column = self.peek()
            if kind != "num" or not text.isdigit():
                raise ParseError("exponent must be a nonnegative integer literal", line, column)
            self.advance()
            base = _power(base, int(text), self.one)
        return base

    def atom(self) -> _Terms:
        kind, text, line, column = self.advance()
        if kind == "num":
            return _summed([(self.one, float(text))])
        if kind == "name":
            variable = self.variables.get(text)
            if variable is None:
                raise ParseError(f"unknown variable {text!r}", line, column)
            return variable  # no rule writes into a map it is given
        if kind == "op" and text == "(":
            inner = self.expr()
            kind, text, line, column = self.advance()
            if kind != "op" or text != ")":
                raise ParseError("expected ')'", line, column)
            return inner
        raise ParseError(
            f"expected a number, variable, or '(', got {text or 'end of input'!r}", line, column
        )


def parse_polynomial(
    text: str,
    space: VariableSpace,
    names: list[str] | None = None,
    line_offset: int = 1,
) -> Polynomial:
    """Parse a polynomial expression into canonical form over the given space."""
    resolved = space.variable_names(names)
    tokens = _tokenize(text, line_offset)
    return Polynomial._of(space, _ExpressionParser(tokens, space, resolved).parse().items())


def parse_problem(text: str) -> ProblemSpec:
    """Parse a problem definition file into a ProblemSpec."""
    names: list[str] | None = None
    pending: list[tuple[str, int, int]] = []
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        stripped = line.strip()
        indent = len(line) - len(line.lstrip())  # columns count from the start of the line
        if stripped.startswith("vars:"):
            if names is not None:
                raise ParseError("duplicate vars line", lineno, 1 + indent)
            after = indent + len("vars:")
            words = [(m.group(), after + m.start() + 1) for m in re.finditer(r"\S+", line[after:])]
            if not words:
                raise ParseError("vars line names no variables", lineno, 1 + indent)
            names = []
            for name, column in words:
                if name in names:
                    raise ParseError(f"duplicate variable name {name!r}", lineno, column)
                if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
                    raise ParseError(f"invalid variable name {name!r}", lineno, column)
                names.append(name)
        elif stripped.startswith("g:"):
            if names is None:
                raise ParseError("vars line must precede constraints", lineno, 1 + indent)
            column = indent + 3
            # the prefix blanked, so that token columns count from the start of the line
            pending.append((" " * (column - 1) + line[column - 1:], lineno, column))
        else:
            raise ParseError(f"unrecognized line {stripped.split()[0]!r}", lineno, 1 + indent)
    last_line = max(1, len(lines))  # a final newline opens no further line
    if names is None:
        raise ParseError("missing vars line", last_line, 1)
    if not pending:
        raise ParseError("no g: constraint lines", last_line, 1)
    space = VariableSpace(len(names))
    constraints = []
    for body, lineno, column in pending:
        poly = parse_polynomial(body, space, names, line_offset=lineno)
        if poly.is_zero():
            raise ParseError("constraint is the zero polynomial", lineno, column)
        if not all(math.isfinite(coeff) for coeff in poly.terms.values()):
            # an overflowing literal or product; the solver cannot take it
            raise ParseError("constraint expands to a non-finite coefficient", lineno, column)
        constraints.append(poly)
    return ProblemSpec(n=len(names), constraints=tuple(constraints), names=tuple(names))


# -- report assembly -------------------------------------------------------------

SCHEMA_NAME = "convexcert-report/1"

VERDICT_CERTIFIED = "certified"
VERDICT_REFUTED = "refuted"
VERDICT_INCONCLUSIVE = "inconclusive"


def make_report(
    mode: str,
    spec: ProblemSpec,
    parameters: dict,
    constraints: list[dict],
    archimedean: dict | None = None,
    diagnostics: dict | None = None,
) -> dict:
    """Assemble a report payload, deriving the overall verdict from the per-constraint ones.

    The overall verdict is "convex" only when every constraint is certified,
    "not convex" only when at least one validated witness is present, and
    "inconclusive" otherwise. A constraint that somehow carries both a
    verified certificate and a validated witness marks the whole report with
    the numerical-contradiction flag.
    """
    flags: list[str] = []
    certified = [c.get("verdict") == VERDICT_CERTIFIED for c in constraints]
    witnesses = [c.get("witness") is not None for c in constraints]
    for c in constraints:
        if c.get("verdict") == VERDICT_CERTIFIED and c.get("witness") is not None:
            flags.append("numerical-contradiction")
            break
    if any(c.get("unproven_signal") for c in constraints):
        flags.append("unproven-nonconvexity-signal")
    if "numerical-contradiction" in flags:
        verdict = "inconclusive"
    elif len(constraints) == spec.m and all(certified):
        verdict = "convex"
    elif any(witnesses):
        verdict = "not convex"
    else:
        verdict = "inconclusive"
    return {
        "schema": SCHEMA_NAME,
        "mode": mode,
        "verdict": verdict,
        "flags": flags,
        "problem": {
            "n": spec.n,
            "m": spec.m,
            "variables": list(spec.names),
            "constraints": spec.constraint_strings(),
        },
        "parameters": parameters,
        "constraints": constraints,
        "archimedean": archimedean,
        "diagnostics": diagnostics or {},
    }


def serialize_report(report: dict) -> str:
    """Render a report payload as deterministic one-line JSON, full float precision.

    Without indent, json.dumps takes CPython's C encoder; with one, or through
    json.dump to a stream, it falls back to the pure-Python encoder.
    """
    return json.dumps(report, sort_keys=True, allow_nan=True)


_REQUIRED_TOP_LEVEL = {
    "schema": str,
    "mode": str,
    "verdict": str,
    "flags": list,
    "problem": dict,
    "parameters": dict,
    "constraints": list,
    "diagnostics": dict,
}

_VALID_VERDICTS = {"convex", "not convex", "inconclusive"}
_VALID_CONSTRAINT_VERDICTS = {VERDICT_CERTIFIED, VERDICT_REFUTED, VERDICT_INCONCLUSIVE}

# the keys of the record of one SOS solve, as certify._solution_diagnostics builds it
SOLVER_RECORD_KEYS = frozenset({
    "solver_status", "solver_tol", "blocks", "reduced_blocks", "p",
    "iterations", "primal_residual", "dual_residual", "relative_gap",
})


def _listed(entry: dict, key: str) -> list:
    value = entry.get(key)
    return value if isinstance(value, list) else []


def _entry_issues(i: int, entry: dict, mode, tol_feas) -> list[str]:
    """What constraint entry i breaks of the rules its evidence keeps: solver
    records, witness atoms in the set, and the signal its last bound implies."""
    issues: list[str] = []
    for key in ("relaxations", "attempts"):
        for r, record in enumerate(_listed(entry, key)):
            if isinstance(record, dict) and "solver" in record:
                keys = set(record["solver"]) if isinstance(record["solver"], dict) else set()
                if keys != SOLVER_RECORD_KEYS:
                    issues.append(f"constraint {i} {key}[{r}].solver lacks {sorted(SOLVER_RECORD_KEYS - keys)} "
                                  f"and has extra {sorted(keys - SOLVER_RECORD_KEYS, key=str)}")
    witness = entry.get("witness")
    if isinstance(witness, dict):
        sampled = witness.get("source") == "sampled"  # drawn strictly inside the set
        for a, atom in enumerate(_listed(witness, "atoms")):
            margin = atom.get("feasibility_margin") if isinstance(atom, dict) else None
            if not (isinstance(margin, (int, float)) and (margin > 0 if sampled else margin >= 0)):
                issues.append(f"constraint {i} witness atom {a} has feasibility_margin {margin!r}, "
                              f"{'not > 0 for a sampled atom' if sampled else 'not >= 0'}")
    bounds = [r["rho"] for r in _listed(entry, "relaxations")
              if isinstance(r, dict) and isinstance(r.get("rho"), (int, float))]
    signal = False
    if mode != "certify" and witness is None and entry.get("certificate") is None and bounds:
        if not isinstance(tol_feas, (int, float)):
            return issues + [f"constraint {i} has a bound but parameters.tol_feas is {tol_feas!r}"]
        signal = not bounds[-1] >= -tol_feas  # a NaN bound counts as below
    if bool(entry.get("unproven_signal")) != signal:
        issues.append(f"constraint {i} has unproven_signal {entry.get('unproven_signal')!r}, but its "
                      f"mode, evidence and last bound give {signal}")
    return issues


def validate_report_payload(payload: dict) -> list[str]:
    """Check a payload against the documented schema and the rules of its
    evidence (see docs/formats.md); returns a list of issues, never raises
    on a partial payload."""
    issues: list[str] = []
    for key, kind in _REQUIRED_TOP_LEVEL.items():
        if key not in payload:
            issues.append(f"missing key {key!r}")
        elif not isinstance(payload[key], kind):
            issues.append(f"key {key!r} has type {type(payload[key]).__name__}, expected {kind.__name__}")
    if issues:
        return issues
    if payload["schema"] != SCHEMA_NAME:
        issues.append(f"unknown schema {payload['schema']!r}")
    if payload["mode"] not in ("certify", "refute", "analyze"):
        issues.append(f"unknown mode {payload['mode']!r}")
    if payload["verdict"] not in _VALID_VERDICTS:
        issues.append(f"unknown verdict {payload['verdict']!r}")
    for flag in payload["flags"]:
        if flag not in ("unproven-nonconvexity-signal", "numerical-contradiction"):
            issues.append(f"unknown flag {flag!r}")
    certified = 0
    any_witness = False
    for i, entry in enumerate(payload["constraints"]):
        if not isinstance(entry, dict):
            issues.append(f"constraint {i} is not an object")
            continue
        verdict = entry.get("verdict")
        if verdict not in _VALID_CONSTRAINT_VERDICTS:
            issues.append(f"constraint {i} has unknown verdict {verdict!r}")
        certified += verdict == VERDICT_CERTIFIED
        any_witness = any_witness or entry.get("witness") is not None
        issues += _entry_issues(i, entry, payload["mode"], payload["parameters"].get("tol_feas"))
    if payload["verdict"] == "convex" and not (certified == len(payload["constraints"]) == payload["problem"].get("m")):
        issues.append("verdict 'convex' requires problem.m entries, every one certified")
    if payload["verdict"] == "not convex" and not any_witness:
        issues.append("verdict 'not convex' requires at least one validated witness")
    return issues
