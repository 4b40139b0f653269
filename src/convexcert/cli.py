"""Command-line orchestration: certify, refute, or analyze a problem file.

Without --stengle (which refute mode ignores), a concave quadratic or
affine g_j is settled before any ladder by certify.closed_form_certificate,
which runs no solve: certify and analyze take its certificate when its
recheck passes at --tol-residual (the entry then has no relaxations), and
refute skips the constraint, as a concave g_j has rho >= 0 at every order.
Refute and analyze then sample every other constraint for a violating
member pair before any solve (refute.sample_witness over the box radii of
refute.SAMPLE_RADII); a validated pair refutes it with no relaxation, and
its witness names no order and no rho. Every constraint left, and in
certify under --stengle every constraint, walks one order ladder, refute
mode only up to the first refuted constraint (below).
At each order k the degree-k quadratic-module program of g_j is solved
once, in the Gram form of refute.solve_relaxation, and the mode decides
only which conclusions may be drawn from that one solve:

* bound rho >= -tol_feas: certify and analyze verify the solved Gram blocks
  as the quadratic-module certificate (a positive rho joins sigma_0 as a constant
  SOS term; a negative one stays in the constant coefficient, where the
  residual test judges it); refute stops, as no midpoint violation is left
  to find. Such a bound withdraws the unproven signal of an earlier order
  (below): the signal stands only on the last bound;
* rho < -tol_feas: certify notes that -rho is the least epsilon for which
  the degree-k identity holds. Refute and analyze draw, at the first such
  order, once more, in the one box whose radius that order's moments give
  (refute.moment_radius), which reaches sets too tiny or too far for the
  fixed radii; it continues the generator of the draw before the ladder.
  A validated pair refutes the constraint and ends its ladder at that
  order, as a certificate does; its witness names that order and its rho,
  a lower bound on g_j at the midpoint of any two members. With no
  validated pair (a thin set, or a sample with no member), that order and
  each later one run the flatness test, atom extraction and witness
  validation.

Refute mode walks no further ladder once a constraint ends with a validated
witness, whatever its source: one violating member pair settles "not
convex", and refute certifies nothing. Each later constraint still gets an
entry, inconclusive with no relaxations and a note naming the refuting
constraint. Certify and analyze walk every ladder the closed form leaves.

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
import functools
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import certify, refute, sdp
from .polynomials import ball_polynomial
from .problemio import (
    ParseError,
    ProblemSpec,
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
        if self.ball is not None and not (math.isfinite(self.ball * self.ball) and self.ball * self.ball > 0):
            raise ValueError(f"ball squared must be finite and positive, got {self.ball}^2 = {self.ball * self.ball}")
        if self.stengle_p < 1:
            raise ValueError("stengle power must be a positive integer")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def _order_ladder(config: RunConfig, spec: ProblemSpec) -> tuple[int, int]:
    """First and last order: v = max_k ceil(deg g_k / 2) and v + 2 unless set."""
    v = refute.relaxation_orders(spec)
    start = v if config.order is None else max(config.order, v)
    cap = config.max_order if config.max_order is not None else start + 2
    return start, max(start, cap)


def _with_ball(spec: ProblemSpec, radius: float) -> ProblemSpec:
    """Augment the constraint list with R^2 - |x|^2 >= 0 (changes the set)."""
    ball = ball_polynomial(spec.space, radius * radius)
    return ProblemSpec(n=spec.n, constraints=spec.constraints + (ball,), names=spec.names)


def _try_certificate(entry: dict, outcome, k: int, config: RunConfig) -> bool:
    """Judge the builder's recheck at --tol-residual; True when it verified and certified the constraint.

    A preordering attempt records its own solve; a quadratic-module one was
    read off the relaxation of the same order, whose record holds that solve,
    or built in closed form, which ran no solve: its record names that
    source instead of a solver status.
    """
    record: dict = {"kind": "preordering" if config.stengle else "quadratic-module", "degree": k}
    if config.stengle:
        record["solver"] = outcome.solver_diagnostics
    entry["attempts"].append(record)
    if isinstance(outcome, certify.CertificationFailure):
        record.update(status=outcome.solver_diagnostics["solver_status"], reason=outcome.reason)
        return False
    check = dataclasses.replace(outcome.check, residual_tol=config.tol_residual)
    if outcome.source is None:
        record["status"] = "optimal"
    else:
        record["source"] = outcome.source
    record.update(residual=check.residual, verified=check.passed)
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
    """Flatness, extraction and validation; the witness, or None with a note saying why.

    An atom outside the set as evaluated (feasibility_margin < 0), which a
    sampled pair never is, is dropped, and the weights of the rest renormalized.
    """
    k, witness = result.s, None
    flatness = refute.rank_flatness_check(result, spec)
    record["flatness"] = flatness.to_payload()
    if not flatness.flat:
        reason = ("rank-ambiguous spectrum" if flatness.ambiguous
                  else f"ranks {flatness.rank_s} vs {flatness.rank_sv} differ")
        note = (f"relaxation suggests non-convexity at order {k} (rho={result.rho:.3e}) "
                f"but the flatness gate failed: {reason}")
    else:
        try:
            atoms = refute.extract_atoms(result, flatness.t, seed=config.seed)
        except refute.ExtractionError as exc:
            note = f"flat at order {k} but atom extraction failed: {exc}"
        else:
            witness = refute.validate_witness(atoms, spec, result.j, tol_feas=config.tol_feas)
            inside = [] if witness is None else [a for a in witness.atoms if a.feasibility_margin >= 0.0]
            if witness is None:
                note = f"extracted atoms at order {k} failed direct re-evaluation; no violation can be claimed"
            elif not inside:
                least = min(a.feasibility_margin for a in witness.atoms)
                note = (f"extracted atoms at order {k} lie outside the set as evaluated (least feasibility "
                        f"margin {least:.3e}); no violation can be claimed")
                witness = None
            elif len(inside) < len(witness.atoms):
                total = sum(a.weight for a in inside)
                witness.atoms = [dataclasses.replace(a, weight=a.weight / total) for a in inside]
    if witness is None:
        entry["unproven_signal"] = True
        entry["notes"].append(note)
    return witness


def _accept_witness(entry: dict, witness: refute.NonconvexityWitness, source: str,
                    order: int | None, rho: float | None) -> None:
    """Refute the constraint; order and rho name the relaxation the witness answers,
    None for a pair sampled before any relaxation."""
    payload = witness.to_payload()
    payload.update(source=source, order=order, rho=rho)
    entry.update(verdict="refuted", witness=payload, unproven_signal=False)


def _entry(j: int, *notes: str) -> dict:
    """Constraint j's report entry before any solve: inconclusive, with the given notes."""
    return {
        "index": j,
        "verdict": "inconclusive",
        "certificate": None,
        "witness": None,
        "relaxations": [],
        "attempts": [],
        "notes": list(notes),
        "unproven_signal": False,
    }


def _walk_ladder(spec: ProblemSpec, j: int, config: RunConfig) -> dict:
    """Constraint j's report entry: one Gram solve per order, conclusions by mode.

    Without --stengle, and in refute mode whatever --stengle says, a concave
    quadratic or affine g_j walks no ladder: certify and analyze keep its
    closed-form certificate when it passes (and walk the ladder when it does
    not), and refute notes that no midpoint violation is left to find.
    Refute and analyze walk no ladder either for a g_j refuted by a member
    pair sampled before it.
    """
    entry = _entry(j)
    notes = entry["notes"]
    stengle = config.stengle and config.mode != "refute"
    closed_form = None if stengle else certify.closed_form_certificate(spec, j)
    if closed_form is not None:
        if config.mode == "refute":
            notes.append(
                f"g{j} is concave: its closed-form certificate gives rho >= 0 at every order, "
                "which leaves no room for a midpoint violation"
            )
            return entry
        if _try_certificate(entry, closed_form, closed_form.d, config):
            return entry
    rng = np.random.default_rng([config.seed, j])  # one stream for both draws of g_j
    if config.mode != "certify":
        sampled = refute.sample_witness(spec, j, seed=rng, tol_feas=config.tol_feas)
        if sampled is not None:
            _accept_witness(entry, sampled, "sampled", None, None)
            return entry
    start, cap = _order_ladder(config, spec)
    drawn = False  # one more draw of member pairs, in a box sized from the moments
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
            entry["unproven_signal"] = False  # withdrawn: the last bound decides the signal
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
        if not drawn:  # at the first negative bound
            drawn = True
            radius = refute.moment_radius(result)
            sampled = None if radius is None else refute.sample_witness(
                spec, j, (radius,), seed=rng, tol_feas=config.tol_feas)
            if sampled is not None:
                _accept_witness(entry, sampled, "sampled", k, result.rho)
                break
        witness = _moment_witness(entry, record, result, spec, config)
        if witness is not None:
            _accept_witness(entry, witness, "moments", k, result.rho)
            break
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
            "status": outcome.solver_diagnostics["solver_status"],
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


def run(config: RunConfig, spec: ProblemSpec) -> dict:
    """The report payload of config.mode on spec, one order ladder per
    constraint, in refute mode only up to the first entry that holds a witness."""
    started = time.perf_counter()
    if config.dump_dir is not None:
        Path(config.dump_dir).mkdir(parents=True, exist_ok=True)
    spec = _with_ball(spec, config.ball) if config.ball is not None else spec
    entries: list[dict] = []
    refuted_by: int | None = None  # refute mode: the first constraint whose entry holds a witness
    for j in range(1, spec.m + 1):
        if refuted_by is not None:
            entries.append(_entry(j, f"not examined: the witness of g{refuted_by} already refutes convexity"))
            continue
        entries.append(_walk_ladder(spec, j, config))
        if config.mode == "refute" and entries[-1]["witness"] is not None:
            refuted_by = j
    return make_report(
        config.mode,
        spec,
        _parameters_payload(config, spec),
        entries,
        archimedean=_archimedean_payload(config, spec),
        diagnostics={"elapsed_seconds": time.perf_counter() - started},
    )


def exit_code_for(report: dict) -> int:
    if "numerical-contradiction" in report["flags"]:
        return EXIT_CONTRADICTION
    if report["verdict"] in ("convex", "not convex"):
        return EXIT_OK
    if "unproven-nonconvexity-signal" in report["flags"]:
        return EXIT_UNPROVEN_SIGNAL
    return EXIT_INCONCLUSIVE


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The one parser of the process; building it costs about ten times a parse."""
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
        if config.out:  # fail before the first solve
            out = Path(config.out)
            if not out.parent.is_dir():
                raise OSError(f"{config.out}: {out.parent} is not a directory")
            if out.is_dir():
                raise OSError(f"{config.out}: is a directory")
        report = run(config, spec)
        issues = validate_report_payload(report)
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
