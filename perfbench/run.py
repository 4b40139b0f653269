#!/usr/bin/env python3
"""Time-to-verdict benchmark for convexcert.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root. The package is imported from ./src and driven
through its public entry points: ``cli.main`` in-process (problem file plus
``--out``) for the verdict workloads, ``sdp.solve`` for ``sdp-dense``. One
client runs one instance at a time (a closed loop), with BLAS pinned to one
thread.

A pass runs every instance of the workload once. Pass 0 warms up; timed
passes follow until the next one would overrun ``--seconds`` (at least one). Every output is checked
outside the timed region. ``--trace 0`` reports the end-to-end metrics with
tracing off; ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics of the traced ones (see perfbench/trace.py).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Earlier lines carry a readable table, the
environment stamp and the path of the full result file under perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5
END_TO_END = (
    ("wall_s", "s"),
    ("conclusive_frac", "fraction"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
P90_MIN_INSTANCES = 100  # p90 needs ten samples beyond it
BLAS_THREADS = 1  # one client, one thread: see _pin_blas_threads
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
M_ARENA_MAX = -8  # glibc mallopt parameter


def _pin_blas_threads() -> int:
    """Pin BLAS to one thread; must run before numpy loads.

    On a 2-vCPU machine a certify-convex pass took 2.3x as long with two
    OpenBLAS threads as with one.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def _limit_malloc_arenas() -> None:
    """Keep glibc from giving each CLI pool thread its own malloc arena.

    cli.main starts a fresh worker thread per call; with one arena per thread
    the peak resident size after a pass varied by about 9% between identical
    runs, depending on which arenas the threads happened to get.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:  # not glibc: nothing to limit
        return
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    libc.mallopt(M_ARENA_MAX, 1)


def _import_package():
    """Import convexcert from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    from convexcert import certify, cli, problemio, refute, sdp

    if src not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"convexcert resolved to {cli.__file__}, outside {src}")
    return {"cli": cli, "certify": certify, "refute": refute, "sdp": sdp, "problemio": problemio}


def _subprocess_import_s() -> float:
    """Import time of the package in a fresh interpreter, as a user pays it."""
    code = ("import time; t = time.perf_counter(); import convexcert; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _environment(seed: int, blas_threads: int) -> dict:
    import numpy
    import scipy

    commit = "unknown"  # a benchmark checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except OSError:
            pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


class Runner:
    """Runs passes over one workload's instances and checks every output."""

    def __init__(self, instances, modules, work: Path, tol: float):
        from perfbench import check

        self.instances = instances
        self.tol = tol
        self.modules = modules
        self.work = work
        self.check = check
        self.records: list[dict] = []

    def write_inputs(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        for inst in self.instances:
            if inst.text is not None:
                (self.work / f"{inst.ident}.txt").write_text(inst.text)

    def run_one(self, inst) -> tuple[float, bool, list[str]]:
        sdp, cli = self.modules["sdp"], self.modules["cli"]
        if inst.sdp is not None:
            start = time.perf_counter()
            try:
                solution = sdp.solve(inst.sdp, tol=self.tol)
            except Exception as exc:  # an exception is a failed instance, not a crash
                return time.perf_counter() - start, False, [f"{type(exc).__name__}: {exc}"]
            elapsed = time.perf_counter() - start
            conclusive, issues = self.check.check_solution(inst.sdp, solution, inst, self.tol)
            return elapsed, conclusive, issues
        report = self.work / f"{inst.ident}.json"
        report.unlink(missing_ok=True)
        argv = [str(self.work / f"{inst.ident}.txt"), *inst.args, "--out", str(report)]
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:
            return time.perf_counter() - start, False, [f"{type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - start
        try:
            payload = json.loads(report.read_text())
        except (OSError, ValueError) as exc:
            return elapsed, False, [f"unreadable report: {exc}"]
        conclusive, issues = self.check.check_report(
            payload, code, inst, self.modules["problemio"].validate_report_payload)
        return elapsed, conclusive, issues

    def run_pass(self, index: int, traced: bool, recorder=None) -> float:
        wall = 0.0
        for inst in self.instances:
            if recorder is not None:
                recorder.instance = f"{index}:{inst.ident}"
            # garbage of earlier instances would otherwise be collected, and
            # held in memory, at points that vary from run to run
            gc.collect()
            elapsed, conclusive, issues = self.run_one(inst)
            wall += elapsed
            self.records.append({"pass": index, "traced": traced, "instance": inst.ident,
                                 "seconds": elapsed, "conclusive": conclusive, "issues": issues})
        return wall


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    """Run every workload in its own process and merge the results."""
    from perfbench.workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        print(f"== {name}")
        print(done.stdout.rstrip())
        if done.returncode != 0:
            print(done.stderr.rstrip(), file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 64
    blas_threads = _pin_blas_threads()
    _limit_malloc_arenas()
    begin = time.perf_counter()
    try:
        modules = _import_package()
    except ImportError as exc:
        print(f"run.py: cannot import convexcert from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    first_import_s = time.perf_counter() - begin
    if args.workload == "all":
        return _run_all(args)
    from perfbench import trace, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 64
    make = workloads.WORKLOADS[args.workload]
    work = OUT / "work" / args.workload

    # set-up: import, instance generation and writing, repeated; medians kept
    import_s = [_subprocess_import_s() for _ in range(SETUP_REPEATS)]
    generate_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        instances = make(ROOT, args.seed)
        runner = Runner(instances, modules, work, workloads.SDP_TOL)
        runner.write_inputs()
        generate_s.append(time.perf_counter() - start)
    setup_s = statistics.median(import_s) + statistics.median(generate_s)
    for inst in instances:
        issue = runner.check.label_issue(inst)
        if issue:  # a generator bug; no result would mean anything
            print(f"run.py: {inst.ident}: {issue}", file=sys.stderr)
            return 70

    recorder = trace.SpanRecorder() if args.trace else None
    if recorder is not None:
        recorder.install(modules)
    walls: dict[bool, list[float]] = {False: [], True: []}
    layer_runs: list[dict] = []
    # Pass 0 warms up: its outputs are checked and counted, its times are not.
    # At this commit the first pass of a process ran about 20% slower than
    # the later ones, which would otherwise dominate the run-to-run spread.
    runner.run_pass(0, False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    started = time.perf_counter()
    index = 1
    while True:
        traced = bool(args.trace) and index % 2 == 0
        if recorder is not None:
            recorder.enabled = traced
            first_span = len(recorder.spans)
        wall = runner.run_pass(index, traced, recorder)
        walls[traced].append(wall)
        if traced:
            recorder.enabled = False
            layer_runs.append(trace.layer_metrics(recorder.spans[first_span:], wall))
        index += 1
        elapsed = time.perf_counter() - started
        estimate = statistics.median(walls[False] + walls[True])
        need_traced = bool(args.trace) and not walls[True]
        if not need_traced and elapsed + estimate > args.seconds:
            break
    if recorder is not None:
        recorder.uninstall()

    records = runner.records
    failed = sum(1 for r in records if r["issues"])
    attempted = len(records)
    # per-instance medians over the timed untraced passes
    per_instance: dict[str, list[float]] = {}
    for r in records:
        if r["pass"] > 0 and not r["traced"]:
            per_instance.setdefault(r["instance"], []).append(r["seconds"])
    seconds = sorted(statistics.median(v) for v in per_instance.values())
    e2e = {
        "wall_s": statistics.median(walls[False]),
        "conclusive_frac": sum(1 for r in records if r["conclusive"]) / attempted,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    units = dict(END_TO_END)
    # printed and kept in the result file, but not gated: see perfbench/README.md
    extra = {"instance_p50_s": (statistics.median(seconds), "s"),
             "failed_frac": (failed / attempted, "fraction"),
             "instances_per_pass": (len(runner.instances), "count"),
             "passes": (len(walls[False]), "count")}
    if len(runner.instances) >= P90_MIN_INSTANCES:
        extra["instance_p90_s"] = (statistics.quantiles(seconds, n=10)[-1], "s")

    if args.trace:
        metrics = {}
        for name in trace.METRICS:
            values = [run[name] for run in layer_runs if name in run]
            metrics[name] = statistics.median(values) if values else 0.0
        metrics["trace.overhead_frac"] = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
        shown = {name: (value, trace.METRICS[name]) for name, value in metrics.items()}
    else:
        shown = {name: (e2e[name], units[name]) for name, _unit in END_TO_END}

    env = _environment(args.seed, blas_threads)
    OUT.mkdir(parents=True, exist_ok=True)
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result = {
        "workload": args.workload, "environment": env, "seconds": args.seconds,
        "setup": {"first_import_s": first_import_s, "import_s": import_s, "generate_s": generate_s},
        "pass_walls_s": {"untraced": walls[False], "traced": walls[True]},
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in {**shown, **extra}.items()},
        "instances": records,
    }
    if recorder is not None:
        result["sdp_sizes"] = [{"instance": s.instance, **s.info} for s in recorder.spans
                               if s.name == "sdp.solve" and s.info]
        result["layer_runs"] = layer_runs
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
        with open(spans_path, "w") as stream:
            for span in recorder.spans:
                stream.write(json.dumps(span.to_json()) + "\n")
    result_path.write_text(json.dumps(result, indent=1))

    for name, (value, unit) in {**shown, **extra}.items():
        print(f"{args.workload:<17} {name:<30} {value:>14.6g} {unit}")
    for r in records:
        if r["issues"]:
            print(f"FAILED {r['instance']} (pass {r['pass']}): {'; '.join(r['issues'])}")
    print("env " + json.dumps(env))
    print(f"result {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
