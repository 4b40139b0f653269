#!/usr/bin/env python3
"""Write a BENCH file: benchmark medians, the traced layer split and two relaxation ladders.

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
  per order.

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
        **{f"{problem}_ladder": ladder for problem, ladder in ladders.items()},
    }
    Path(args.out).write_text(json.dumps(bench, indent=1) + "\n")
    ok = all(w["correct"] for w in workloads.values()) and layers["correct"]
    print(f"wrote {args.out}; all outputs correct: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
