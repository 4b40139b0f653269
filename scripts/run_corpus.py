#!/usr/bin/env python3
"""Run every bundled problem through analyze mode and print a verdict table."""

import sys
import time
from pathlib import Path

from convexcert.cli import RunConfig, exit_code_for, run_analyze
from convexcert.problemio import parse_problem

PROBLEMS_DIR = Path(__file__).resolve().parent.parent / "problems"


def main() -> int:
    rows = []
    for path in sorted(PROBLEMS_DIR.glob("*.txt")):
        spec = parse_problem(path.read_text())
        config = RunConfig(mode="analyze", max_order=3)
        start = time.perf_counter()
        report = run_analyze(config, spec)
        elapsed = time.perf_counter() - start
        rows.append((path.stem, spec.n, spec.m, report.verdict, exit_code_for(report), elapsed))
    width = max(len(r[0]) for r in rows)
    print(f"{'problem':<{width}}  n  m  verdict       exit  seconds")
    for name, n, m, verdict, code, elapsed in rows:
        print(f"{name:<{width}}  {n}  {m}  {verdict:<12}  {code:<4}  {elapsed:7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
