"""Problem-file parsing and report serialization.

Problem files are line oriented: one ``vars:`` line naming the variables, one
``g:`` line per defining inequality g(x) >= 0, ``#`` comments, blank lines
ignored. Polynomial expressions use the grammar documented in
docs/formats.md: numeric literals, declared variable names, ``+ - * ^``,
parentheses, no implicit multiplication, exponents restricted to nonnegative
integer literals.

Reports are emitted as a single deterministic JSON document; floats are
written with repr precision so that parse(serialize(report)) is the identity
on every payload field.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

from .polynomials import Polynomial, VariableSpace


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


@dataclass
class _Token:
    kind: str  # num | name | op | end
    text: str
    line: int
    column: int


def _tokenize(text: str, line_offset: int = 1) -> list[_Token]:
    tokens: list[_Token] = []
    line = line_offset
    col = 1
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = match.lastgroup or ""
        chunk = match.group()
        if kind != "ws":
            tokens.append(_Token("op" if kind == "op" else kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = match.end()
    tokens.append(_Token("end", "", line, col))
    return tokens


class _ExpressionParser:
    """Recursive descent over: expr := [+-] term (('+'|'-') term)*,
    term := factor ('*' factor)*, factor := atom ['^' INT],
    atom := NUM | NAME | '(' expr ')'."""

    def __init__(self, tokens: list[_Token], space: VariableSpace, names: list[str]):
        self.tokens = tokens
        self.pos = 0
        self.space = space
        self.index = {name: i for i, name in enumerate(names)}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Polynomial:
        result = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.column)
        return result

    def expr(self) -> Polynomial:
        tok = self.peek()
        negate = False
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            negate = tok.text == "-"
        result = self.term()
        if negate:
            result = -result
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.term()
                result = result - rhs if tok.text == "-" else result + rhs
            else:
                return result

    def term(self) -> Polynomial:
        result = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.advance()
                result = result * self.factor()
            else:
                return result

    def factor(self) -> Polynomial:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exp_tok = self.peek()
            if exp_tok.kind != "num" or not exp_tok.text.isdigit():
                raise ParseError(
                    "exponent must be a nonnegative integer literal",
                    exp_tok.line,
                    exp_tok.column,
                )
            self.advance()
            base = base ** int(exp_tok.text)
        return base

    def atom(self) -> Polynomial:
        tok = self.advance()
        if tok.kind == "num":
            return Polynomial.constant(self.space, float(tok.text))
        if tok.kind == "name":
            idx = self.index.get(tok.text)
            if idx is None:
                raise ParseError(f"unknown variable {tok.text!r}", tok.line, tok.column)
            return Polynomial.variable(self.space, idx)
        if tok.kind == "op" and tok.text == "(":
            inner = self.expr()
            closing = self.advance()
            if closing.kind != "op" or closing.text != ")":
                raise ParseError("expected ')'", closing.line, closing.column)
            return inner
        raise ParseError(
            f"expected a number, variable, or '(', got {tok.text or 'end of input'!r}",
            tok.line,
            tok.column,
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
    return _ExpressionParser(tokens, space, resolved).parse()


def parse_problem(text: str) -> ProblemSpec:
    """Parse a problem definition file into a ProblemSpec."""
    names: list[str] | None = None
    pending: list[tuple[str, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("vars:"):
            if names is not None:
                raise ParseError("duplicate vars line", lineno, 1 + line.index("vars:"))
            names = stripped[len("vars:") :].split()
            if not names:
                raise ParseError("vars line names no variables", lineno, 1)
            seen = set()
            for name in names:
                if name in seen:
                    raise ParseError(f"duplicate variable name {name!r}", lineno, 1)
                if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
                    raise ParseError(f"invalid variable name {name!r}", lineno, 1)
                seen.add(name)
        elif stripped.startswith("g:"):
            if names is None:
                raise ParseError("vars line must precede constraints", lineno, 1)
            body = line.split("g:", 1)[1]
            column = line.index("g:") + 3
            pending.append((body, lineno, column))
        else:
            raise ParseError(f"unrecognized line {stripped.split()[0]!r}", lineno, 1)
    if names is None:
        raise ParseError("missing vars line", max(1, text.count("\n") + 1), 1)
    if not pending:
        raise ParseError("no g: constraint lines", max(1, text.count("\n") + 1), 1)
    space = VariableSpace(len(names))
    constraints = []
    for body, lineno, column in pending:
        poly = parse_polynomial(body, space, names, line_offset=lineno)
        if poly.is_zero():
            raise ParseError("constraint is the zero polynomial", lineno, 1)
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


@dataclass
class Report:
    """Structured outcome of a certification/refutation run."""

    mode: str
    verdict: str
    flags: list[str]
    problem: dict
    parameters: dict
    constraints: list[dict]
    archimedean: dict | None = None
    diagnostics: dict = field(default_factory=dict)

    def payload(self) -> dict:
        return {
            "schema": SCHEMA_NAME,
            "mode": self.mode,
            "verdict": self.verdict,
            "flags": list(self.flags),
            "problem": self.problem,
            "parameters": self.parameters,
            "constraints": self.constraints,
            "archimedean": self.archimedean,
            "diagnostics": self.diagnostics,
        }


def make_report(
    mode: str,
    spec: ProblemSpec,
    parameters: dict,
    constraints: list[dict],
    archimedean: dict | None = None,
    diagnostics: dict | None = None,
) -> Report:
    """Assemble a report, deriving the overall verdict from the per-constraint ones.

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
    return Report(
        mode=mode,
        verdict=verdict,
        flags=flags,
        problem={
            "n": spec.n,
            "m": spec.m,
            "variables": list(spec.names),
            "constraints": spec.constraint_strings(),
        },
        parameters=parameters,
        constraints=constraints,
        archimedean=archimedean,
        diagnostics=diagnostics or {},
    )


def serialize_report(report: Report | dict) -> str:
    """Render a report as deterministic JSON, full float precision."""
    payload = report.payload() if isinstance(report, Report) else report
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=True)


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


def validate_report_payload(payload: dict) -> list[str]:
    """Check a payload against the documented schema; returns a list of issues."""
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
    if payload["verdict"] not in _VALID_VERDICTS:
        issues.append(f"unknown verdict {payload['verdict']!r}")
    certified_all = True
    any_witness = False
    for i, entry in enumerate(payload["constraints"]):
        if not isinstance(entry, dict):
            issues.append(f"constraint {i} is not an object")
            continue
        verdict = entry.get("verdict")
        if verdict not in _VALID_CONSTRAINT_VERDICTS:
            issues.append(f"constraint {i} has unknown verdict {verdict!r}")
        certified_all = certified_all and verdict == VERDICT_CERTIFIED
        any_witness = any_witness or entry.get("witness") is not None
    if payload["verdict"] == "convex" and not (certified_all and payload["constraints"]):
        issues.append("verdict 'convex' requires every constraint to be certified")
    if payload["verdict"] == "not convex" and not any_witness:
        issues.append("verdict 'not convex' requires at least one validated witness")
    return issues
