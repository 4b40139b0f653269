#!/usr/bin/env python3
"""Run every bundled problem through analyze mode and check the verdict table.

Each problem's verdict and exit code are compared with the outcome the README
documents. The script prints the table, names every problem that differs,
and exits 1 if any differs or a documented problem is missing, else 0.
Next to each verdict it prints the size of the largest relaxation that was
solved (its PSD block sizes and equality count p, from the report's
relaxations[].solver records) and the solver iterations over all
relaxations, so a change in SDP size shows in the log. A problem that solves
no relaxation prints `-` and 0: one whose constraints are all certified in
closed form, and the three refuted ones (`hyperbola`, `parabola`,
`two_interval`), whose member pair is sampled before any relaxation.
"""

import sys
import time
from pathlib import Path

from convexcert.cli import RunConfig, exit_code_for, run
from convexcert.problemio import parse_problem

PROBLEMS_DIR = Path(__file__).resolve().parent.parent / "problems"

# (verdict, exit code) per problem, as in the README's bundled-problem table
README_OUTCOMES = {
    "interval": ("convex", 0),
    "disk": ("convex", 0),
    "halfspace": ("convex", 0),
    "box": ("convex", 0),
    "parabola": ("not convex", 0),
    "hyperbola": ("not convex", 0),
    "two_interval": ("not convex", 0),
    "cubic_halfline": ("inconclusive", 2),
}


def main() -> int:
    rows = []
    for path in sorted(PROBLEMS_DIR.glob("*.txt")):
        spec = parse_problem(path.read_text())
        config = RunConfig(mode="analyze")
        start = time.perf_counter()
        report = run(config, spec)
        elapsed = time.perf_counter() - start
        solvers = [r["solver"] for c in report["constraints"] for r in c["relaxations"]]
        largest = max(solvers, key=lambda s: s["p"], default=None)
        size = f"{largest['blocks']} p={largest['p']}" if largest else "-"
        iterations = sum(s["iterations"] for s in solvers)
        rows.append((path.stem, spec.n, spec.m, report["verdict"], exit_code_for(report), elapsed,
                     size, iterations))
    width = max(len(r[0]) for r in rows)
    size_width = max(len(r[6]) for r in rows)
    print(f"{'problem':<{width}}  n  m  verdict       exit  seconds  {'largest SDP':<{size_width}}  iterations")
    for name, n, m, verdict, code, elapsed, size, iterations in rows:
        print(f"{name:<{width}}  {n}  {m}  {verdict:<12}  {code:<4}  {elapsed:7.2f}  "
              f"{size:<{size_width}}  {iterations}")

    mismatches = []
    seen = {name: (verdict, code) for name, _, _, verdict, code, *_ in rows}
    for name, expected in README_OUTCOMES.items():
        got = seen.get(name)
        if got is None:
            mismatches.append(f"{name}: missing from {PROBLEMS_DIR}")
        elif got != expected:
            mismatches.append(f"{name}: got {got[0]!r} exit {got[1]}, README says {expected[0]!r} exit {expected[1]}")
    for name in sorted(set(seen) - set(README_OUTCOMES)):
        mismatches.append(f"{name}: no documented outcome")
    for line in mismatches:
        print(f"MISMATCH {line}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
