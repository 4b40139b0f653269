"""Command-line orchestration: certify, refute, or analyze a problem file.

The driver deepens degree/order schedules per constraint, assembles a JSON
report, and maps outcomes to exit codes:

    0   conclusive (convex, or not convex with a validated witness)
    2   inconclusive
    3   relaxation suggests non-convexity but no witness validated
    64  usage or parse error
    70  numerical contradiction (a constraint both certified and refuted)
"""

from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import ceil
from pathlib import Path
from typing import Callable

from . import certify, refute, sdp
from .polynomials import Polynomial
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

DEFAULT_EPSILON_SCHEDULE = (0.0, 1e-6, 1e-4, 1e-2)


@dataclass
class RunConfig:
    """Run parameters; order fields left as None are derived from the problem."""

    mode: str = "analyze"
    d: int | None = None
    d_max: int | None = None
    s: int | None = None
    s_max: int | None = None
    epsilons: tuple[float, ...] = DEFAULT_EPSILON_SCHEDULE
    ball: float | None = None
    stengle: bool = False
    stengle_p: int = 1
    archimedean: float | None = None
    seed: int = 0
    tol_feas: float = 1e-6
    tol_residual: float = 1e-6
    solver_tol: float = sdp.DEFAULT_TOL
    jobs: int = 1
    out: str | None = None
    dump_dir: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("certify", "refute", "analyze"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.d is not None and self.d < 1:
            raise ValueError("degree bound d must be at least 1")
        if self.s is not None and self.s < 1:
            raise ValueError("relaxation order s must be at least 1")
        if self.d is not None and self.d_max is not None and self.d > self.d_max:
            raise ValueError("d must not exceed d_max")
        if self.s is not None and self.s_max is not None and self.s > self.s_max:
            raise ValueError("s must not exceed s_max")
        for name in ("tol_feas", "tol_residual", "solver_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if any(e < 0 for e in self.epsilons):
            raise ValueError("epsilon values must be nonnegative")
        if self.stengle_p < 1:
            raise ValueError("stengle power must be a positive integer")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")


def _certify_schedule(config: RunConfig, spec: ProblemSpec) -> tuple[int, int]:
    if config.d is not None:
        d = config.d
    else:
        d = ceil(max(g.degree for g in spec.constraints) / 2) + 1
        if config.d_max is not None:
            d = max(1, min(d, config.d_max))
    d_max = config.d_max if config.d_max is not None else d + 3
    return d, max(d, d_max)


def _refute_schedule(config: RunConfig, spec: ProblemSpec) -> tuple[int, int]:
    _v_ks, v = refute.relaxation_orders(spec)
    s = config.s if config.s is not None else v
    if config.s is None and config.s_max is not None:
        s = min(s, config.s_max)
    s = max(s, v)
    s_max = config.s_max if config.s_max is not None else s + 2
    return s, max(s, s_max)


def _with_ball(spec: ProblemSpec, radius: float) -> ProblemSpec:
    """Augment the constraint list with R^2 - |x|^2 >= 0 (changes the set)."""
    space = spec.space
    ball = Polynomial.constant(space, radius * radius)
    for i in range(space.n):
        xi = Polynomial.variable(space, i)
        ball = ball - xi * xi
    return ProblemSpec(n=spec.n, constraints=spec.constraints + (ball,), names=spec.names)


def _dump_hook(config: RunConfig):
    """hook(name, build) writes build() to DIR/name.sdp; build runs only when dumping."""
    if config.dump_dir is None:
        return lambda name, build: None
    directory = Path(config.dump_dir)
    directory.mkdir(parents=True, exist_ok=True)

    def hook(name: str, build: Callable[[], sdp.SdpProblem]) -> None:
        with open(directory / f"{name}.sdp", "w") as stream:
            sdp.dump_sdp(build(), stream)

    return hook


def _blank_entry(j: int) -> dict:
    return {
        "index": j,
        "verdict": "inconclusive",
        "certificate": None,
        "near_certificates": [],
        "witness": None,
        "relaxations": [],
        "attempts": [],
        "notes": [],
        "unproven_signal": False,
    }


def _certify_steps(spec: ProblemSpec, j: int, config: RunConfig, dump, entry: dict):
    """Generator: one certification attempt per step, deepening d then epsilon.

    Sets entry["verdict"] = "certified" (and stops) when an exact identity
    verifies; epsilon > 0 successes are recorded as near-certificates only.
    """
    d0, d_max = _certify_schedule(config, spec)
    if config.stengle:
        epsilons: tuple[float, ...] = (0.0,)  # the preordering identity has no epsilon slack
    elif 0.0 in config.epsilons:
        epsilons = config.epsilons
    else:
        epsilons = (0.0,) + config.epsilons
    kind = "preordering" if config.stengle else "quadratic-module"
    notes = entry["notes"]
    for epsilon in sorted(set(epsilons)):
        for d in range(d0, d_max + 1):
            try:
                if config.stengle:
                    outcome = certify.certify_stengle(
                        spec, j, d, p=config.stengle_p, solver_tol=config.solver_tol
                    )
                else:
                    dump(
                        f"certify_g{j}_d{d}_eps{epsilon:g}",
                        lambda: certify.build_qmodule_sdp(spec, j, d, epsilon),
                    )
                    outcome = certify.certify_sufficient(
                        spec, j, d, epsilon, solver_tol=config.solver_tol
                    )
            except ValueError as exc:
                notes.append(str(exc))
                yield
                continue
            record = {"kind": kind, "degree": d, "epsilon": epsilon}
            if isinstance(outcome, certify.CertificationFailure):
                record["status"] = outcome.solver_status
                record["reason"] = outcome.reason
                record["solver"] = outcome.solver_diagnostics
                entry["attempts"].append(record)
                yield
                continue
            check = certify.verify_certificate(outcome, spec, residual_tol=config.tol_residual)
            record["status"] = "optimal"
            record["residual"] = check.residual
            record["verified"] = check.passed
            record["solver"] = outcome.solver_diagnostics
            entry["attempts"].append(record)
            if not check.passed:
                notes.append(
                    f"certificate at d={d}, eps={epsilon:g} failed verification "
                    f"(residual {check.residual:.3e}, min eig {check.min_gram_eigenvalue:.3e})"
                )
                yield
                continue
            payload = outcome.to_payload()
            payload["verification"] = check.to_payload()
            if epsilon == 0.0:
                entry["verdict"] = "certified"
                entry["certificate"] = payload
                return
            notes.append(
                f"epsilon-relaxed identity holds at eps={epsilon:g}; this bounds the "
                "midpoint defect but does not certify convexity"
            )
            entry["near_certificates"].append(payload)
            # feasibility is monotone in epsilon, so the sweep stops at the
            # tightest relaxed identity; larger epsilon adds no information
            return
    return


def _refute_steps(spec: ProblemSpec, j: int, config: RunConfig, dump, entry: dict):
    """Generator: one relaxation order per step, deepening s.

    Sets entry["verdict"] = "refuted" (and stops) when extracted atoms
    validate; a negative bound without a validated witness raises the
    unproven signal.
    """
    s0, s_max = _refute_schedule(config, spec)
    notes = entry["notes"]
    for s in range(s0, s_max + 1):
        dump(f"refute_g{j}_s{s}", lambda: refute.build_moment_sdp(spec, j, s))
        result = refute.solve_relaxation(spec, j, s, solver_tol=config.solver_tol)
        record: dict = {
            "order": s,
            "status": result.status,
            "rho": result.rho,
            "solver": result.diagnostics,
        }
        entry["relaxations"].append(record)
        if result.status == "inconclusive-unbounded":
            notes.append(
                f"relaxation at s={s} is unbounded; consider --ball R to bound the set "
                "(this changes the set under test)"
            )
            yield
            continue
        if result.status != "optimal" or result.rho is None:
            notes.append(f"relaxation at s={s} returned status {result.status}")
            yield
            continue
        if result.rho >= -config.tol_feas:
            notes.append(
                f"lower bound rho={result.rho:.3e} at s={s} leaves no room for a midpoint "
                "violation; deeper orders only increase it"
            )
            return
        flatness = refute.rank_flatness_check(result, spec)
        record["flatness"] = flatness.to_payload()
        if not flatness.flat:
            entry["unproven_signal"] = True
            reason = "rank-ambiguous spectrum" if flatness.ambiguous else (
                f"ranks {flatness.rank_s} vs {flatness.rank_sv} differ"
            )
            notes.append(
                f"relaxation suggests non-convexity at s={s} (rho={result.rho:.3e}) "
                f"but the flatness gate failed: {reason}"
            )
            yield
            continue
        try:
            atoms = refute.extract_atoms(result, flatness.t, seed=config.seed, tol=1e-4)
        except refute.ExtractionError as exc:
            entry["unproven_signal"] = True
            notes.append(f"flat at s={s} but atom extraction failed: {exc}")
            yield
            continue
        witness = refute.validate_witness(atoms, spec, j, tol_feas=config.tol_feas)
        if witness is None:
            entry["unproven_signal"] = True
            notes.append(
                f"extracted atoms at s={s} failed direct re-evaluation; "
                "no violation can be claimed"
            )
            yield
            continue
        payload = witness.to_payload()
        payload["order"] = s
        payload["rho"] = result.rho
        entry["witness"] = payload
        entry["verdict"] = "refuted"
        return
    return


def _exhaust(generator) -> None:
    for _ in generator:
        pass


def _certify_constraint(spec: ProblemSpec, j: int, config: RunConfig, dump) -> dict:
    entry = _blank_entry(j)
    _exhaust(_certify_steps(spec, j, config, dump, entry))
    return entry


def _refute_constraint(spec: ProblemSpec, j: int, config: RunConfig, dump) -> dict:
    entry = _blank_entry(j)
    _exhaust(_refute_steps(spec, j, config, dump, entry))
    return entry


def _analyze_constraint(spec: ProblemSpec, j: int, config: RunConfig, dump) -> dict:
    """Interleave certification and refutation steps deterministically.

    Each round advances both deepening schedules by one step; the round after
    either side concludes, the other stops. The outcome is independent of
    thread scheduling, and the contradiction flag can still fire when both
    sides conclude in the same round.
    """
    cert_entry = _blank_entry(j)
    ref_entry = _blank_entry(j)
    cert_gen = _certify_steps(spec, j, config, dump, cert_entry)
    ref_gen = _refute_steps(spec, j, config, dump, ref_entry)
    cert_active, ref_active = True, True
    while cert_active or ref_active:
        if cert_active:
            try:
                next(cert_gen)
            except StopIteration:
                cert_active = False
        if ref_active:
            try:
                next(ref_gen)
            except StopIteration:
                ref_active = False
        if cert_entry["verdict"] == "certified" or ref_entry["verdict"] == "refuted":
            break
    return _merge_analyze(cert_entry, ref_entry)


def _merge_analyze(cert_entry: dict, ref_entry: dict) -> dict:
    merged = {
        "index": cert_entry["index"],
        "verdict": "inconclusive",
        "certificate": cert_entry["certificate"],
        "near_certificates": cert_entry["near_certificates"],
        "witness": ref_entry["witness"],
        "relaxations": ref_entry["relaxations"],
        "attempts": cert_entry["attempts"],
        "notes": cert_entry["notes"] + ref_entry["notes"],
        "unproven_signal": ref_entry["unproven_signal"],
    }
    certified = cert_entry["verdict"] == "certified"
    refuted = ref_entry["verdict"] == "refuted"
    if certified and refuted:
        merged["verdict"] = "certified"  # make_report flags the contradiction
    elif certified:
        merged["verdict"] = "certified"
        merged["unproven_signal"] = False  # certificate overrides a soft signal
    elif refuted:
        merged["verdict"] = "refuted"
    return merged


def _parameters_payload(config: RunConfig, spec: ProblemSpec) -> dict:
    d0, d_max = _certify_schedule(config, spec)
    s0, s_max = _refute_schedule(config, spec)
    return {
        "mode": config.mode,
        "d": d0,
        "d_max": d_max,
        "s": s0,
        "s_max": s_max,
        "epsilon_schedule": sorted(set(config.epsilons) | {0.0}),
        "ball": config.ball,
        "stengle": config.stengle,
        "stengle_p": config.stengle_p,
        "archimedean": config.archimedean,
        "seed": config.seed,
        "tol_feas": config.tol_feas,
        "tol_residual": config.tol_residual,
        "solver_tol": config.solver_tol,
        "jobs": config.jobs,
    }


def _archimedean_payload(config: RunConfig, spec: ProblemSpec) -> dict | None:
    if config.archimedean is None:
        return None
    d0, _ = _certify_schedule(config, spec)
    outcome = certify.archimedean_check(spec, config.archimedean, d0, solver_tol=config.solver_tol)
    if isinstance(outcome, certify.CertificationFailure):
        return {
            "bound": config.archimedean,
            "holds": False,
            "status": outcome.solver_status,
            "note": "no bounding identity found at this degree; compactness not established",
        }
    check = certify.verify_certificate(outcome, spec, residual_tol=config.tol_residual)
    return {
        "bound": config.archimedean,
        "holds": bool(check.passed),
        "residual": check.residual,
        "note": "quadratic module is archimedean; epsilon certificates are complete "
        "for compact convex sets",
    }


def run_certify(config: RunConfig, spec: ProblemSpec) -> Report:
    started = time.perf_counter()
    spec = _with_ball(spec, config.ball) if config.ball is not None else spec
    dump = _dump_hook(config)
    with ThreadPoolExecutor(max_workers=config.jobs) as pool:
        entries = list(pool.map(lambda j: _certify_constraint(spec, j, config, dump), range(1, spec.m + 1)))
    return make_report(
        "certify",
        spec,
        _parameters_payload(config, spec),
        entries,
        archimedean=_archimedean_payload(config, spec),
        diagnostics={"elapsed_seconds": time.perf_counter() - started},
    )


def run_refute(config: RunConfig, spec: ProblemSpec) -> Report:
    started = time.perf_counter()
    spec = _with_ball(spec, config.ball) if config.ball is not None else spec
    dump = _dump_hook(config)
    with ThreadPoolExecutor(max_workers=config.jobs) as pool:
        entries = list(pool.map(lambda j: _refute_constraint(spec, j, config, dump), range(1, spec.m + 1)))
    return make_report(
        "refute",
        spec,
        _parameters_payload(config, spec),
        entries,
        diagnostics={"elapsed_seconds": time.perf_counter() - started},
    )


def run_analyze(config: RunConfig, spec: ProblemSpec) -> Report:
    started = time.perf_counter()
    spec = _with_ball(spec, config.ball) if config.ball is not None else spec
    dump = _dump_hook(config)
    with ThreadPoolExecutor(max_workers=config.jobs) as pool:
        entries = list(pool.map(lambda j: _analyze_constraint(spec, j, config, dump), range(1, spec.m + 1)))
    return make_report(
        "analyze",
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
    parser.add_argument("--mode", choices=("certify", "refute", "analyze"), default="analyze")
    parser.add_argument("-d", "--degree", type=int, default=None, help="initial SOS degree bound")
    parser.add_argument("--max-degree", type=int, default=None, help="deepening limit for -d")
    parser.add_argument("-s", "--order", type=int, default=None, help="initial relaxation order")
    parser.add_argument("--max-order", type=int, default=None, help="deepening limit for -s")
    parser.add_argument(
        "--epsilon",
        type=float,
        action="append",
        default=None,
        help="epsilon schedule entry for relaxed certification (repeatable; default 0, 1e-6, 1e-4, 1e-2)",
    )
    parser.add_argument("--ball", type=float, default=None, metavar="R",
                        help="add R^2 - |x|^2 >= 0 to the constraints (changes the set under test)")
    parser.add_argument("--stengle", action="store_true", help="use the preordering certificate")
    parser.add_argument("--stengle-p", type=int, default=1, help="power p in the preordering identity")
    parser.add_argument("--archimedean", type=float, default=None, metavar="M",
                        help="also test whether M - |x|^2 lies in the quadratic module")
    parser.add_argument("--seed", type=int, default=0, help="seed for extraction randomness")
    parser.add_argument("--tol-feas", type=float, default=1e-6)
    parser.add_argument("--tol-residual", type=float, default=1e-6)
    parser.add_argument("--jobs", type=int, default=1, help="parallel certification/refutation tasks")
    parser.add_argument("--out", type=str, default=None, help="write the report here instead of stdout")
    parser.add_argument("--dump-sdp", type=str, default=None, metavar="DIR",
                        help="dump every SDP instance in sparse text form")
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
        config = RunConfig(
            mode=args.mode,
            d=args.degree,
            d_max=args.max_degree,
            s=args.order,
            s_max=args.max_order,
            epsilons=tuple(args.epsilon) if args.epsilon else DEFAULT_EPSILON_SCHEDULE,
            ball=args.ball,
            stengle=args.stengle,
            stengle_p=args.stengle_p,
            archimedean=args.archimedean,
            seed=args.seed,
            tol_feas=args.tol_feas,
            tol_residual=args.tol_residual,
            jobs=args.jobs,
            out=args.out,
            dump_dir=args.dump_sdp,
        )
    except (ParseError, ValueError) as exc:
        print(f"convexcert: {exc}", file=sys.stderr)
        return EXIT_USAGE
    runner = {"certify": run_certify, "refute": run_refute, "analyze": run_analyze}[config.mode]
    report = runner(config, spec)
    issues = validate_report_payload(report.payload())
    if issues:  # internal invariant violation, never expected
        raise RuntimeError(f"report failed its own schema: {issues}")
    text_out = serialize_report(report)
    if config.out:
        Path(config.out).write_text(text_out + "\n")
    else:
        print(text_out)
    return exit_code_for(report)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
