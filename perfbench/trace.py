"""Span recorder for the traced benchmark run, and the per-layer metrics.

The recorder wraps the package's public functions at run time, on the name
the caller resolves (``cli.parse_problem``, not ``problemio.parse_problem``),
so ``src/`` stays untouched. Each call becomes a span with its layer, the
instance id, its parent span and any exception. Spans stay in memory until
the run ends.

The benchmark runs one instance at a time and the CLI runs with its default
single worker, so exactly one call chain is active at any moment; one shared
stack therefore gives every span its causal parent, even when the CLI hands
the work to its pool thread.

A layer's self time is the duration of its spans minus the time of their
child spans. The layers are the package modules; the table mapping their
metrics to end-to-end metrics lives in perfbench/README.md.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

LAYERS = ("cli", "problemio", "certify", "refute", "moments", "sdp")

# per_layer metric names and units, in report order
METRICS = {
    "sdp.solve_calls": "count",
    "sdp.solve_self_s": "s",
    "sdp.iterations": "count",
    "sdp.s_per_iteration": "s/iteration",
    "sdp.equalities_total": "count",
    "sdp.equalities_max": "count",
    "sdp.svec_entries_max": "count",
    "sdp.dropped_rows": "count",
    "sdp.stalled": "count",
    "sdp.infeasible": "count",
    "sdp.unbounded": "count",
    "sdp.schur_work_computed": "flop",
    "certify.attempts": "count",
    "certify.self_s": "s",
    "certify.build_s": "s",
    "certify.builds_per_attempt": "ratio",
    "certify.verify_s": "s",
    "certify.success_ratio": "ratio",
    "refute.relaxations": "count",
    "refute.self_s": "s",
    "refute.build_s": "s",
    "refute.builds_per_relaxation": "ratio",
    "refute.solves_per_relaxation": "ratio",
    "refute.flatness_s": "s",
    "refute.flat_ratio": "ratio",
    "refute.extract_s": "s",
    "refute.extract_failures": "count",
    "refute.validate_s": "s",
    "refute.witness_ratio": "ratio",
    "moments.moment_matrix_s": "s",
    "problemio.parse_s": "s",
    "problemio.report_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Span:
    ident: int
    name: str
    layer: str
    parent: int | None
    instance: str | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    error: str | None = None
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.ident, "name": self.name, "layer": self.layer, "parent": self.parent,
            "instance": self.instance, "start": self.start, "duration_s": self.duration,
            "self_s": self.duration - self.child_s, "error": self.error, "info": self.info,
        }


def _solve_info(args, kwargs, solution) -> dict:
    """Per-SDP size record, taken from the returned SdpSolution."""
    blocks = [int(x.shape[0]) for x in solution.X]
    p = int(solution.diagnostics.get("n_equalities", 0))
    dropped = len(solution.diagnostics.get("dropped_rows", ()))
    return {
        "blocks": blocks, "p": p, "N": sum(k * (k + 1) // 2 for k in blocks),
        "dropped_rows": dropped, "iterations": int(solution.iterations), "status": solution.status,
    }


def _outcome_info(args, kwargs, result) -> dict:
    return {"ok": result is not None and type(result).__name__ != "CertificationFailure"}


def _flat_info(args, kwargs, result) -> dict:
    return {"ok": bool(result.flat)}


class SpanRecorder:
    """Wraps package functions while installed; records spans while enabled."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.instance: str | None = None
        self.enabled = False
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self, modules: dict) -> None:
        """Wrap the layer-boundary functions of the imported package modules."""
        cli, certify, refute, sdp = modules["cli"], modules["certify"], modules["refute"], modules["sdp"]
        targets = [
            (cli, "main", "cli", None),
            (cli, "parse_problem", "problemio", None),
            (cli, "make_report", "problemio", None),
            (cli, "validate_report_payload", "problemio", None),
            (cli, "serialize_report", "problemio", None),
            (certify, "certify_sufficient", "certify", _outcome_info),
            (certify, "certify_stengle", "certify", _outcome_info),
            (certify, "archimedean_check", "certify", _outcome_info),
            (certify, "build_qmodule_sdp", "certify", None),
            (certify, "verify_certificate", "certify", None),
            (getattr(certify, "SosProgram", None), "to_sdp", "certify", None),
            (refute, "solve_relaxation", "refute", None),
            (refute, "build_moment_sdp", "refute", None),
            (refute, "_moment_program", "refute", None),
            (refute, "rank_flatness_check", "refute", _flat_info),
            (refute, "extract_atoms", "refute", None),
            (refute, "validate_witness", "refute", _outcome_info),
            (refute, "moment_matrix", "moments", None),
            (sdp, "solve", "sdp", _solve_info),
            (sdp, "feasibility", "sdp", None),
        ]
        for owner, attr, layer, info in targets:
            original = getattr(owner, attr, None) if owner is not None else None
            if original is not None:  # a later refactor may remove a boundary
                setattr(owner, attr, self._wrap(original, f"{layer}.{attr}", layer, info))
                self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, original, name: str, layer: str, info):
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return original(*args, **kwargs)
            parent = recorder._stack[-1] if recorder._stack else None
            span = Span(len(recorder.spans), name, layer, parent.ident if parent else None,
                        recorder.instance, time.perf_counter())
            recorder.spans.append(span)
            recorder._stack.append(span)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.error = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                span.end = time.perf_counter()
                recorder._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return wrapper


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose timed instance calls sum to wall_s."""
    self_s = {layer: 0.0 for layer in LAYERS}
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        self_s[span.layer] += span.duration - span.child_s
        by_name.setdefault(span.name, []).append(span)

    def calls(name: str) -> list[Span]:
        return by_name.get(name, [])

    def total(*names: str) -> float:
        return sum(s.duration for name in names for s in calls(name))

    def oks(name: str) -> int:
        return sum(1 for s in calls(name) if s.info and s.info.get("ok"))

    sizes = [s.info for s in calls("sdp.solve") if s.info]
    iterations = sum(r["iterations"] for r in sizes)
    parents = {s.ident: s.name for s in spans}
    attempts = len(calls("certify.certify_sufficient")) + len(calls("certify.certify_stengle")) \
        + len(calls("certify.archimedean_check"))
    attempt_oks = oks("certify.certify_sufficient") + oks("certify.certify_stengle") \
        + oks("certify.archimedean_check")
    relaxations = len(calls("refute.solve_relaxation"))
    relaxation_solves = sum(1 for s in calls("sdp.solve") if parents.get(s.parent) == "refute.solve_relaxation")
    traced_self = sum(self_s.values())
    return {
        "sdp.solve_calls": len(calls("sdp.solve")),
        "sdp.solve_self_s": self_s["sdp"],
        "sdp.iterations": iterations,
        "sdp.s_per_iteration": _ratio(self_s["sdp"], iterations),
        "sdp.equalities_total": sum(r["p"] for r in sizes),
        "sdp.equalities_max": max((r["p"] for r in sizes), default=0),
        "sdp.svec_entries_max": max((r["N"] for r in sizes), default=0),
        "sdp.dropped_rows": sum(r["dropped_rows"] for r in sizes),
        "sdp.stalled": sum(1 for r in sizes if r["status"] == "stalled"),
        "sdp.infeasible": sum(1 for r in sizes if r["status"] == "infeasible"),
        "sdp.unbounded": sum(1 for r in sizes if r["status"] == "unbounded"),
        "sdp.schur_work_computed": float(sum(
            r["iterations"] * (r["p"] - r["dropped_rows"]) ** 2 * r["N"] for r in sizes)),
        "certify.attempts": attempts,
        "certify.self_s": self_s["certify"],
        "certify.build_s": total("certify.to_sdp"),
        "certify.builds_per_attempt": _ratio(len(calls("certify.to_sdp")), attempts),
        "certify.verify_s": total("certify.verify_certificate"),
        "certify.success_ratio": _ratio(attempt_oks, attempts),
        "refute.relaxations": relaxations,
        "refute.self_s": self_s["refute"],
        "refute.build_s": total("refute._moment_program"),
        "refute.builds_per_relaxation": _ratio(len(calls("refute._moment_program")), relaxations),
        "refute.solves_per_relaxation": _ratio(relaxation_solves, relaxations),
        "refute.flatness_s": total("refute.rank_flatness_check"),
        "refute.flat_ratio": _ratio(oks("refute.rank_flatness_check"), len(calls("refute.rank_flatness_check"))),
        "refute.extract_s": total("refute.extract_atoms"),
        "refute.extract_failures": sum(1 for s in calls("refute.extract_atoms") if s.error),
        "refute.validate_s": total("refute.validate_witness"),
        "refute.witness_ratio": _ratio(oks("refute.validate_witness"), len(calls("refute.validate_witness"))),
        "moments.moment_matrix_s": self_s["moments"],
        "problemio.parse_s": total("problemio.parse_problem"),
        "problemio.report_s": total("problemio.make_report", "problemio.validate_report_payload",
                                    "problemio.serialize_report"),
        "cli.self_s": self_s["cli"],
        "trace.wall_s": wall_s,
        "trace.untraced_s": wall_s - traced_self,
    }
