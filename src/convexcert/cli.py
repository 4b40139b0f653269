"""Command-line orchestration: certify, refute, or analyze a problem file.

Every mode walks one order ladder per constraint g_j. At each order k the
degree-k quadratic-module program of g_j is solved once, in the Gram form of
refute.solve_relaxation, and the mode decides only which conclusions may be
drawn from that one solve:

* bound rho >= -tol_feas: certify and analyze verify the solved Gram blocks
  as the quadratic-module certificate (a positive rho joins sigma_0 as a constant
  SOS term; a negative one stays in the constant coefficient, where the
  residual test judges it); refute stops, as no midpoint violation is left
  to find;
* rho < -tol_feas: certify notes that -rho is the least epsilon for which
  the degree-k identity holds. Refute and analyze draw, at the first such
  order, one seeded sample of member pairs (refute.sample_witness) and keep
  its best polished pair. rho is a lower bound on g_j at the midpoint of
  any two members, so a pair whose violation comes within
  refute.SAMPLE_ATTAIN_RTOL * |rho| of rho is, up to that margin, as strong
  a witness as any deeper order could give: the ladder stops there. Below
  that, the order runs the flatness test, atom extraction and witness
  validation, and later orders compare the same pair with their own rho.
  A pair that attains no bound refutes the constraint only if the ladder
  ends with no other witness.

With --stengle the preordering certificate replaces the quadratic-module
one, solved at each order before the Gram solve, which certify mode skips
as it could conclude nothing. Every certificate, the --archimedean one too,
arrives with the one recheck its builder ran (certify.verify_certificate),
and the CLI judges that check at --tol-residual instead of re-expanding the
identity. The CLI assembles a JSON report and maps outcomes to exit codes:

    0   conclusive (convex, or not convex with a validated witness)
    2   inconclusive
    3   relaxation suggests non-convexity but no witness validated
    64  usage, parse or file error
    70  numerical contradiction (a constraint both certified and refuted)
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import certify, refute, sdp
from .polynomials import ball_polynomial
from .problemio import (
    ParseError,
    ProblemSpec,
    Report,
    make_report,
    parse_problem,
    serialize_report,
    validate_report_payload,
)

EXIT_OK = 0
EXIT_INCONCLUSIVE = 2
EXIT_UNPROVEN_SIGNAL = 3
EXIT_USAGE = 64
EXIT_CONTRADICTION = 70


@dataclass
class RunConfig:
    """Run parameters; order fields left as None are derived from the problem."""

    mode: str = "analyze"
    order: int | None = None
    max_order: int | None = None
    ball: float | None = None
    stengle: bool = False
    stengle_p: int = 1
    archimedean: float | None = None
    seed: int = 0
    tol_feas: float = refute.DEFAULT_FEASIBILITY_TOL
    tol_residual: float = certify.DEFAULT_RESIDUAL_TOL
    out: str | None = None
    dump_dir: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("certify", "refute", "analyze"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.order is not None and self.order < 1:
            raise ValueError("order must be at least 1")
        if self.max_order is not None and self.max_order < 1:
            raise ValueError("max_order must be at least 1")
        if self.order is not None and self.max_order is not None and self.order > self.max_order:
            raise ValueError("order must not exceed max_order")
        for name in ("ball", "archimedean", "tol_feas", "tol_residual"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.stengle_p < 1:
            raise ValueError("stengle power must be a positive integer")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def _order_ladder(config: RunConfig, spec: ProblemSpec) -> tuple[int, int]:
    """First and last order: v = max_k ceil(deg g_k / 2) and v + 2 unless set."""
    v = refute.relaxation_orders(spec)
    start = config.order if config.order is not None else v
    if config.order is None and config.max_order is not None:
        start = min(start, config.max_order)
    start = max(start, v)
    cap = config.max_order if config.max_order is not None else start + 2
    return start, max(start, cap)


def _with_ball(spec: ProblemSpec, radius: float) -> ProblemSpec:
    """Augment the constraint list with R^2 - |x|^2 >= 0 (changes the set)."""
    ball = ball_polynomial(spec.space, radius * radius)
    return ProblemSpec(n=spec.n, constraints=spec.constraints + (ball,), names=spec.names)


def _try_certificate(entry: dict, outcome, k: int, config: RunConfig) -> bool:
    """Judge the builder's recheck at --tol-residual; True when it verified and certified the constraint."""
    record: dict = {"kind": "preordering" if config.stengle else "quadratic-module", "degree": k}
    entry["attempts"].append(record)
    if isinstance(outcome, certify.CertificationFailure):
        record.update(status=outcome.solver_status, reason=outcome.reason,
                      solver=outcome.solver_diagnostics)
        return False
    check = dataclasses.replace(outcome.check, residual_tol=config.tol_residual)
    record.update(status="optimal", residual=check.residual, verified=check.passed,
                  solver=outcome.solver_diagnostics)
    if not check.passed:
        entry["notes"].append(
            f"certificate at order {k} failed verification "
            f"(residual {check.residual:.3e}, min eig {check.min_gram_eigenvalue:.3e})"
        )
        return False
    payload = outcome.to_payload()
    payload["verification"] = check.to_payload()
    entry.update(verdict="certified", certificate=payload, unproven_signal=False)
    return True


def _moment_witness(entry: dict, record: dict, result: refute.RelaxationResult,
                    spec: ProblemSpec, config: RunConfig) -> refute.NonconvexityWitness | None:
    """Flatness, extraction and validation; the witness, or None with a note saying why."""
    k, notes = result.s, entry["notes"]
    flatness = refute.rank_flatness_check(result, spec)
    record["flatness"] = flatness.to_payload()
    if not flatness.flat:
        entry["unproven_signal"] = True
        reason = "rank-ambiguous spectrum" if flatness.ambiguous else (
            f"ranks {flatness.rank_s} vs {flatness.rank_sv} differ"
        )
        notes.append(
            f"relaxation suggests non-convexity at order {k} (rho={result.rho:.3e}) "
            f"but the flatness gate failed: {reason}"
        )
        return None
    try:
        atoms = refute.extract_atoms(result, flatness.t, seed=config.seed)
    except refute.ExtractionError as exc:
        entry["unproven_signal"] = True
        notes.append(f"flat at order {k} but atom extraction failed: {exc}")
        return None
    witness = refute.validate_witness(atoms, spec, result.j, tol_feas=config.tol_feas)
    if witness is None:
        entry["unproven_signal"] = True
        notes.append(
            f"extracted atoms at order {k} failed direct re-evaluation; "
            "no violation can be claimed"
        )
    return witness


def _accept_witness(entry: dict, witness: refute.NonconvexityWitness, source: str,
                    order: int, rho: float) -> None:
    """Refute the constraint; order and rho name the relaxation the witness answers."""
    payload = witness.to_payload()
    payload.update(source=source, order=order, rho=rho)
    entry.update(verdict="refuted", witness=payload, unproven_signal=False)


def _walk_ladder(spec: ProblemSpec, j: int, config: RunConfig) -> dict:
    """Constraint j's report entry: one Gram solve per order, conclusions by mode."""
    entry = {
        "index": j,
        "verdict": "inconclusive",
        "certificate": None,
        "witness": None,
        "relaxations": [],
        "attempts": [],
        "notes": [],
        "unproven_signal": False,
    }
    notes = entry["notes"]
    start, cap = _order_ladder(config, spec)
    stengle = config.stengle and config.mode != "refute"
    sampled: refute.NonconvexityWitness | None = None  # the kept member pair, if any
    last_negative: tuple[int, float] | None = None  # (order, rho) of the last rho < -tol_feas
    for k in range(start, cap + 1):
        if stengle:
            try:
                outcome = certify.certify_stengle(spec, j, k, p=config.stengle_p)
            except ValueError as exc:  # refused for too many constraints, so at every order
                notes.append(str(exc))
                stengle = False
            else:
                if _try_certificate(entry, outcome, k, config):
                    break
        if config.stengle and config.mode == "certify":
            continue  # the Gram blocks are no certificate under --stengle
        if config.dump_dir is not None:
            with open(Path(config.dump_dir) / f"qmodule_g{j}_d{k}.sdp", "w") as stream:
                sdp.dump_sdp(refute.build_moment_sdp(spec, j, k), stream)
        result = refute.solve_relaxation(spec, j, k)
        record = {"order": k, "status": result.status, "rho": result.rho, "solver": result.diagnostics}
        entry["relaxations"].append(record)
        if result.status == "inconclusive-unbounded":
            notes.append(
                f"relaxation at order {k} is unbounded; consider --ball R to bound the set "
                "(this changes the set under test)"
            )
            continue
        if result.status != "optimal" or result.rho is None:
            notes.append(f"relaxation at order {k} returned status {result.status}")
            continue
        if result.rho >= -config.tol_feas:
            if config.mode == "refute":
                notes.append(
                    f"lower bound rho={result.rho:.3e} at order {k} leaves no room for a "
                    "midpoint violation; deeper orders only increase it"
                )
                break
            if not config.stengle:
                certificate = certify.qmodule_certificate(result, spec)
                if _try_certificate(entry, certificate, k, config):
                    break
            continue
        if config.mode == "certify":
            notes.append(
                f"no certificate at order {k}: rho={result.rho:.3e}, so epsilon={-result.rho:.3e} "
                "is the least epsilon for which the degree-k identity holds"
            )
            continue
        if last_negative is None:  # one draw per constraint, from the first negative bound's moments
            sampled = refute.sample_witness(result, spec, seed=config.seed, tol_feas=config.tol_feas)
        violation = sampled.atoms[0].violation if sampled is not None else None
        record["sampled_violation"] = violation
        last_negative = (k, result.rho)
        if sampled is not None and refute.attains_bound(violation, result.rho):
            notes.append(
                f"sampled member pair attains rho={result.rho:.3e} at order {k} "
                f"within {refute.SAMPLE_ATTAIN_RTOL:g} (midpoint violation {violation:.3e})"
            )
            _accept_witness(entry, sampled, "sampled", k, result.rho)
            break
        witness = _moment_witness(entry, record, result, spec, config)
        if witness is not None:
            _accept_witness(entry, witness, "moments", k, result.rho)
            break
    if sampled is not None and entry["verdict"] == "inconclusive":
        order, rho = last_negative
        notes.append(
            f"no flat witness up to order {order}; the sampled member pair "
            f"(midpoint violation {sampled.atoms[0].violation:.3e}, rho={rho:.3e}) "
            "refutes the constraint"
        )
        _accept_witness(entry, sampled, "sampled", order, rho)
    return entry


def _parameters_payload(config: RunConfig, spec: ProblemSpec) -> dict:
    """Every RunConfig field but the output paths, with the orders resolved."""
    parameters = dataclasses.asdict(config)
    del parameters["out"], parameters["dump_dir"]
    parameters["order"], parameters["max_order"] = _order_ladder(config, spec)
    return {**parameters, "solver_tol": sdp.DEFAULT_TOL}


def _archimedean_payload(config: RunConfig, spec: ProblemSpec) -> dict | None:
    if config.archimedean is None or config.mode == "refute":
        return None
    start, _ = _order_ladder(config, spec)
    outcome = certify.archimedean_check(spec, config.archimedean, start)
    if isinstance(outcome, certify.CertificationFailure):
        return {
            "bound": config.archimedean,
            "holds": False,
            "status": outcome.solver_status,
            "note": "no bounding identity found at this degree; compactness not established",
        }
    check = dataclasses.replace(outcome.check, residual_tol=config.tol_residual)
    if check.passed:
        note = ("quadratic module is archimedean; epsilon certificates are complete "
                "for compact convex sets")
    else:
        note = (
            f"bounding identity found but failed verification (residual {check.residual:.3e}, "
            f"min eig {check.min_gram_eigenvalue:.3e}); compactness not established"
        )
    return {
        "bound": config.archimedean,
        "holds": bool(check.passed),
        "residual": check.residual,
        "note": note,
    }


def run(config: RunConfig, spec: ProblemSpec) -> Report:
    """The report of config.mode on spec, one order ladder per constraint."""
    started = time.perf_counter()
    if config.dump_dir is not None:
        Path(config.dump_dir).mkdir(parents=True, exist_ok=True)
    spec = _with_ball(spec, config.ball) if config.ball is not None else spec
    entries = [_walk_ladder(spec, j, config) for j in range(1, spec.m + 1)]
    return make_report(
        config.mode,
        spec,
        _parameters_payload(config, spec),
        entries,
        archimedean=_archimedean_payload(config, spec),
        diagnostics={"elapsed_seconds": time.perf_counter() - started},
    )


def exit_code_for(report: Report) -> int:
    if "numerical-contradiction" in report.flags:
        return EXIT_CONTRADICTION
    if report.verdict in ("convex", "not convex"):
        return EXIT_OK
    if "unproven-nonconvexity-signal" in report.flags:
        return EXIT_UNPROVEN_SIGNAL
    return EXIT_INCONCLUSIVE


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convexcert",
        description="Certify convexity of a basic closed semi-algebraic set, or "
        "refute it with explicit witness points.",
    )
    parser.add_argument("problem", help="problem definition file (see docs/formats.md)")
    parser.add_argument("--mode", choices=("certify", "refute", "analyze"))
    parser.add_argument("-s", "--order", "-d", "--degree", dest="order", type=int,
                        help="first order k of the ladder, which is also the degree bound d "
                        "of the certificates (default: max ceil(deg g / 2))")
    parser.add_argument("--max-order", "--max-degree", dest="max_order", type=int,
                        help="last order of the ladder (default: first order + 2)")
    parser.add_argument("--ball", type=float, metavar="R",
                        help="add R^2 - |x|^2 >= 0 to the constraints (changes the set under test)")
    parser.add_argument("--stengle", action="store_true", help="use the preordering certificate")
    parser.add_argument("--stengle-p", type=int, help="power p in the preordering identity")
    parser.add_argument("--archimedean", type=float, metavar="M",
                        help="also test whether M - |x|^2 lies in the quadratic module")
    parser.add_argument("--seed", type=int,
                        help="non-negative seed for the sampled member pairs and for extraction")
    parser.add_argument("--tol-feas", type=float)
    parser.add_argument("--tol-residual", type=float)
    parser.add_argument("--out", type=str, help="write the report here instead of stdout")
    parser.add_argument("--dump-sdp", dest="dump_dir", type=str, metavar="DIR",
                        help="dump every Gram instance that is solved, in sparse text form")
    parser.set_defaults(**dataclasses.asdict(RunConfig()))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        text = Path(args.problem).read_text()
    except OSError as exc:
        print(f"convexcert: cannot read {args.problem}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        spec = parse_problem(text)
        config = RunConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)})
    except (ParseError, ValueError) as exc:
        print(f"convexcert: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        report = run(config, spec)
        issues = validate_report_payload(report.payload())
        if issues:  # internal invariant violation, never expected
            raise RuntimeError(f"report failed its own schema: {issues}")
        text_out = serialize_report(report)
        if config.out:
            Path(config.out).write_text(text_out + "\n")
    except OSError as exc:  # an unwritable --dump-sdp or --out path
        print(f"convexcert: cannot write: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not config.out:
        print(text_out)
    return exit_code_for(report)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
