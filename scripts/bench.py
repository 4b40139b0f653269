#!/usr/bin/env python3
"""Write a BENCH file: benchmark medians, the traced layer split, two relaxation ladders and the sampler.

    python3 scripts/bench.py --out BENCH.json
    python3 scripts/bench.py --root ../other-checkout --out other.json

The benchmark itself is perfbench/run.py of the checkout named by --root
(default: this one), run unchanged as a subprocess, with the seed below and
the checkout's BENCHMARK.json ``run_seconds`` as ``--seconds``. The file
records:

- per workload, the median of each end-to-end metric over 5 runs of
  ``--trace 0``, next to every run's values;
- the per-layer metrics of one ``--trace 1`` run on refute-nonconvex, seed 7;
- the relaxation ladders s=2..4 (constraint 1) of hyperbola, the largest
  bundled solves, and of cubic_halfline, whose Gram programs the solver's
  presolve proves infeasible, through refute.solve_relaxation: blocks, the
  blocks left by the presolve's facial reduction (null where the solver does
  not report them), p, iterations, status and the median seconds of 3 solves
  per order, after one untimed solve that loads what a first solve imports;
- start-up: the median of 10 fresh interpreters' ``import convexcert``, the
  median of 10 whole ``python -m convexcert.cli problems/hyperbola.txt --mode
  refute`` processes (each run through runpy, as ``-m`` runs it), and whether
  each of those processes had scipy in ``sys.modules`` at exit;
- the sampler: for each constraint that refute mode samples (no closed-form
  certificate, up to the first constraint a sampled pair refutes) in the
  seed-1 refute-nonconvex instances, the bundled problems and two convex
  literals that are not concave, refute.sample_witness at the CLI's seed 0:
  the members of each radius it draws, the pairs of distinct members it
  ranks, whether it returns a witness, and the median seconds of 20 calls
  after one untimed call.

BLAS is pinned to one thread, as perfbench/run.py pins it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUNS = 5
SEED = 1
LAYER_WORKLOAD = "refute-nonconvex"
LAYER_SEED = 7
LADDERS = {"hyperbola": (2, 3, 4), "cubic_halfline": (2, 3, 4)}
LADDER_REPEATS = 3
STARTUP_RUNS = 10
SAMPLER_REPEATS = 20
# convex constraints that are not concave: the sampler draws every radius and finds no pair
SAMPLER_LITERALS = {
    "whole_line": "vars: x1\ng: 1 + x1^2\n",
    "branch": "vars: x1 x2\ng: x1*x2 - 1\ng: x1\ng: x2\ng: 4 - x1\ng: 4 - x2\n",
}
IMPORT_SNIPPET = "import time; t = time.perf_counter(); import convexcert; print(time.perf_counter() - t)"
# `python -m convexcert.cli ARGS`, reporting at exit whether scipy was loaded
CLI_SNIPPET = """import runpy, sys
try:
    runpy.run_module("convexcert.cli", run_name="__main__", alter_sys=True)
finally:
    print("scipy" in sys.modules, file=sys.stderr)
"""


def _run(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: run.py exited {done.returncode}: {done.stderr.strip()}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: entry["value"] for name, entry in result["metrics"].items()}}


def _ladder(root: Path, problem: str, orders: tuple[int, ...]) -> list[dict]:
    """Each order's relaxation, solved in this process from the checkout's src/."""
    sys.path.insert(0, str(root / "src"))
    from convexcert import refute
    from convexcert.problemio import parse_problem

    spec = parse_problem((root / "problems" / f"{problem}.txt").read_text())
    refute.solve_relaxation(spec, 1, orders[0])  # untimed: a first solve that factors loads scipy.linalg
    rows = []
    for s in orders:
        seconds = []
        for _ in range(LADDER_REPEATS):
            start = time.perf_counter()
            result = refute.solve_relaxation(spec, 1, s)
            seconds.append(time.perf_counter() - start)
        diag = result.diagnostics
        rows.append({"s": s, "blocks": diag["blocks"], "reduced_blocks": diag.get("reduced_blocks"), "p": diag["p"],
                     "iterations": diag["iterations"], "status": result.status,
                     "seconds": statistics.median(seconds), "seconds_runs": seconds})
    return rows


def _sampler(root: Path) -> list[dict]:
    """Each sampled constraint's draw and sample_witness time, in this process from the checkout's src/."""
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(root))
    import numpy as np
    from convexcert import certify, refute
    from convexcert.polynomials import PolynomialSystem
    from convexcert.problemio import parse_problem
    from perfbench.workloads import refute_nonconvex

    texts = {f"refute-nonconvex/{inst.ident}": inst.text for inst in refute_nonconvex(root, SEED)}
    texts.update({path.stem: path.read_text() for path in sorted((root / "problems").glob("*.txt"))})
    texts.update(SAMPLER_LITERALS)
    rows = []
    for name, text in texts.items():
        spec = parse_problem(text)
        for j in range(1, spec.m + 1):
            if certify.closed_form_certificate(spec, j) is not None:
                continue  # refute mode samples no concave quadratic or affine constraint
            # the radii drawn: up to the first that yields a witness, as the draw continues one stream
            drawn = next((k for k in range(1, len(refute.SAMPLE_RADII) + 1)
                          if refute.sample_witness(spec, j, refute.SAMPLE_RADII[:k]) is not None),
                         len(refute.SAMPLE_RADII))
            rng = np.random.default_rng([0, j])
            members = []
            for radius in refute.SAMPLE_RADII[:drawn]:
                points = rng.uniform(-radius, radius, size=(refute.SAMPLE_POINTS, spec.n))
                members.append(int(np.all(PolynomialSystem(spec.constraints)(points) > 0.0, axis=1).sum()))
            witness = refute.sample_witness(spec, j)  # untimed
            seconds = []
            for _ in range(SAMPLER_REPEATS):
                start = time.perf_counter()
                refute.sample_witness(spec, j)
                seconds.append(time.perf_counter() - start)
            rows.append({"problem": name, "j": j, "members": members,
                         "pairs": sum(c * (c - 1) // 2 for c in members if c >= 2),
                         "witness": witness is not None, "seconds": statistics.median(seconds),
                         "seconds_runs": seconds})
            if witness is not None:
                break  # refute mode examines no later constraint
    return rows


def _startup(root: Path) -> dict:
    """Fresh-interpreter import time, and whole-process time of one sampled refutation."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    imports = []
    for _ in range(STARTUP_RUNS):
        done = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=root, env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        imports.append(float(done.stdout.strip().splitlines()[-1]))
    argv = [sys.executable, "-c", CLI_SNIPPET, "problems/hyperbola.txt", "--mode", "refute"]
    processes, scipy_loaded = [], []
    for _ in range(STARTUP_RUNS):
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, timeout=120, check=True)
        processes.append(time.perf_counter() - start)
        scipy_loaded.append(done.stderr.strip().splitlines()[-1] == "True")
    return {"import_s": statistics.median(imports), "import_s_runs": imports,
            "cli_process_s": statistics.median(processes), "cli_process_s_runs": processes,
            "scipy_loaded_at_exit": any(scipy_loaded), "scipy_loaded_at_exit_runs": scipy_loaded}


def _commit(root: Path) -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, help="path of the BENCH file to write")
    parser.add_argument("--root", default=str(Path(__file__).resolve().parent.parent),
                        help="checkout whose perfbench/run.py and src/ are measured")
    args = parser.parse_args(argv)
    for var in BLAS_THREAD_VARS:  # before numpy loads, here and in every child
        os.environ[var] = "1"
    root = Path(args.root).resolve()
    declared = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    seconds = float(declared["run_seconds"])

    workloads = {}
    for name in names:
        runs = [_run(root, name, SEED, seconds, 0) for _ in range(RUNS)]
        medians = {metric: statistics.median(run["metrics"][metric] for run in runs) for metric in runs[0]["metrics"]}
        workloads[name] = {"correct": all(run["correct"] for run in runs),
                           "failed": sum(run["failed"] for run in runs), "median": medians,
                           "runs": [run["metrics"] for run in runs]}
        print(f"{name:<17} " + " ".join(f"{m}={v:.4g}" for m, v in medians.items()), flush=True)
    layers = _run(root, LAYER_WORKLOAD, LAYER_SEED, seconds, 1)
    startup = _startup(root)
    print(f"startup import={startup['import_s']:.3f}s cli_process={startup['cli_process_s']:.3f}s "
          f"scipy_loaded_at_exit={startup['scipy_loaded_at_exit']}", flush=True)
    sampler = _sampler(root)
    for row in sampler:
        print(f"sampler {row['problem']} g{row['j']} members={row['members']} pairs={row['pairs']} "
              f"witness={row['witness']} {row['seconds'] * 1e3:.3f}ms", flush=True)
    ladders = {problem: _ladder(root, problem, orders) for problem, orders in LADDERS.items()}
    for problem, ladder in ladders.items():
        for row in ladder:
            print(f"{problem} s={row['s']} blocks={row['blocks']} reduced={row['reduced_blocks']} p={row['p']} "
                  f"iterations={row['iterations']} {row['status']} {row['seconds']:.3f}s")

    import numpy

    bench = {
        "commit": _commit(root),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas_threads": 1,
        "nproc": os.cpu_count(),
        "settings": {"seed": SEED, "seconds": seconds, "runs": RUNS},
        "workloads": workloads,
        "layers": {"workload": LAYER_WORKLOAD, "seed": LAYER_SEED, **layers},
        "startup": startup,
        "sampler": {"seed": 0, "repeats": SAMPLER_REPEATS, "constraints": sampler},
        **{f"{problem}_ladder": ladder for problem, ladder in ladders.items()},
    }
    Path(args.out).write_text(json.dumps(bench, indent=1) + "\n")
    ok = all(w["correct"] for w in workloads.values()) and layers["correct"]
    print(f"wrote {args.out}; all outputs correct: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
