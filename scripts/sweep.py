#!/usr/bin/env python3
"""Run the 72-run regression sweep in one process and write one JSON file per run.

    python3 scripts/sweep.py OUT_DIR
    python3 scripts/sweep.py OUT_DIR --against OTHER_DIR

The runs are the seed-1 instances of the corpus, certify-convex and
refute-nonconvex workloads of perfbench.workloads, each with its own flags,
every problems/*.txt under certify, refute, analyze, certify --stengle and
--archimedean 2, and the seven EXTRA_RUNS, literal problems that reach the Gram
and moment paths, and a refute stop, that no other run reaches. Each run goes through
convexcert.cli.main of this checkout's src/, and its file holds the exit code
and the report with every ``*_seconds`` timing removed, the only values
docs/formats.md lets differ between reruns. OUT_DIR also gets the --dump-sdp
files of hyperbola in certify mode and the --help text. BLAS runs on one
thread whatever the environment says.

With --against, every file in OUT_DIR is compared byte for byte with the one
of the same name in OTHER_DIR (say, a sweep of another checkout); the script
names each that differs or is missing on either side and exits 1. For a JSON
file on both sides it also names the first path, in key order, at which the
parsed contents differ, e.g. ``report.constraints[1].notes[0]``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# BLAS on one thread before numpy loads: its thread count moves the last bits
# of some solves (a hyperbola rho read -1.562499986806972 on one thread and
# -1.562499986800743 on two), and the comparison is byte for byte
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from convexcert import cli  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SEED = 1
SWEPT_WORKLOADS = ("corpus", "certify-convex", "refute-nonconvex")
PROBLEM_FLAGS = {
    "certify": ("--mode", "certify"),
    "refute": ("--mode", "refute"),
    "analyze": ("--mode", "analyze"),
    "stengle": ("--mode", "certify", "--stengle"),
    "archimedean": ("--archimedean", "2"),
}
# name -> (problem text, flags): a quadratic-module certificate read off a
# Gram solve (whole_line), the draw sized from the moments (far_hyperbola),
# a failed flatness test (thin), an accepted extraction (tiny_two_interval),
# extracted atoms outside the set (tiny_parabola), the preordering ladder
# in analyze mode (interval), and a refute stop at a nonnegative bound after
# negative ones, which withdraws their signal (branch, convex: exit 2)
EXTRA_RUNS = {
    "whole_line": ("vars: x1\ng: 1 + x1^2\n", ("--mode", "analyze")),
    "far_hyperbola": ("vars: x1 x2\ng: x1*x2 - 10000.0\ng: 40000.0 - x1^2\ng: 40000.0 - x2^2\n",
                      ("--mode", "refute")),
    "thin": ("vars: x1 x2\ng: x1^2 - 1\ng: 1 - x1^2\ng: 1 - x2^2\n", ("--mode", "refute")),
    "tiny_two_interval": ("vars: x1\ng: x1^2 - 1e-05\ng: 4e-05 - x1^2\n", ("--mode", "refute")),
    "tiny_parabola": ("vars: x1 x2\ng: x1^2 - 0.005011872336272725*x2\n"
                      "g: 2.511886431509582e-05 - x1^2\ng: 2.511886431509582e-05 - x2^2\n", ("--mode", "refute")),
    "interval": ("vars: x1\ng: 1 - x1^2\n", ("--mode", "analyze", "--stengle")),
    "branch": ("vars: x1 x2\ng: x1*x2 - 1\ng: x1\ng: x2\ng: 4 - x1\ng: 4 - x2\n",
               ("--mode", "refute", "--max-order", "4")),
}


def _untimed(value):
    """value without the keys that end in _seconds, at any depth."""
    if isinstance(value, dict):
        return {k: _untimed(v) for k, v in value.items() if not k.endswith("_seconds")}
    if isinstance(value, list):
        return [_untimed(v) for v in value]
    return value


def _run(argv: list[str], scratch: Path) -> str:
    """The exit code and timing-free report of one CLI run, as JSON text."""
    report = scratch / "report.json"
    report.unlink(missing_ok=True)
    code = cli.main(argv + ["--out", str(report)])
    payload = _untimed(json.loads(report.read_text())) if report.exists() else None
    return json.dumps({"exit": code, "report": payload}, indent=1, sort_keys=True) + "\n"


def sweep(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        for workload in SWEPT_WORKLOADS:
            for instance in WORKLOADS[workload](ROOT, SEED):
                problem = scratch / "problem.txt"
                problem.write_text(instance.text)
                text = _run([str(problem), *instance.args], scratch)
                (out / f"{workload}-{instance.ident}.json").write_text(text)
        for path in sorted((ROOT / "problems").glob("*.txt")):
            for variant, flags in PROBLEM_FLAGS.items():
                (out / f"problem-{path.stem}-{variant}.json").write_text(_run([str(path), *flags], scratch))
        for name, (text, flags) in EXTRA_RUNS.items():
            problem = scratch / "problem.txt"
            problem.write_text(text)
            (out / f"extra-{name}.json").write_text(_run([str(problem), *flags], scratch))
        # certify mode, which samples no member pair, so g1's ladder is solved and dumped
        _run([str(ROOT / "problems" / "hyperbola.txt"), "--mode", "certify",
              "--dump-sdp", str(out / "dump-hyperbola")], scratch)
    help_text = io.StringIO()
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    with contextlib.redirect_stdout(help_text):
        cli.main(["--help"])
    (out / "help.txt").write_text(help_text.getvalue())


def differences(out: Path, against: Path) -> list[str]:
    """Relative paths of the files that differ, or exist on one side only."""
    names = {p.relative_to(root) for root in (out, against) for p in root.rglob("*") if p.is_file()}
    return sorted(str(name) for name in names
                  if not ((out / name).is_file() and (against / name).is_file()
                          and (out / name).read_bytes() == (against / name).read_bytes()))


def first_difference(a, b, path: str = "") -> str | None:
    """The first JSON path, in key order, at which a and b differ, or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            at = f"{path}.{key}" if path else key
            if key not in a or key not in b:
                return at
            found = first_difference(a[key], b[key], at)
            if found is not None:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{path}[{i}]")
            if found is not None:
                return found
        return None if len(a) == len(b) else f"{path}[{min(len(a), len(b))}]"
    return None if json.dumps(a) == json.dumps(b) else path  # as text, 1 differs from True and NaN equals NaN


def _where(name: str, out: Path, against: Path) -> str:
    """The suffix ' at PATH' for a JSON file whose parsed contents differ at PATH, else ''."""
    try:
        path = first_difference(json.loads((out / name).read_text()), json.loads((against / name).read_text()))
    except (OSError, ValueError):  # missing on one side, or not JSON (--help text, --dump-sdp files)
        return ""
    return "" if path is None else f" at {path}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory for the run files")
    parser.add_argument("--against", type=Path, help="compare with the files of this earlier sweep")
    args = parser.parse_args()
    sweep(args.out)
    if args.against is None:
        return 0
    differing = differences(args.out, args.against)
    for name in differing:
        print(f"DIFFERS {name}{_where(name, args.out, args.against)}")
    print(f"{len(differing)} of the swept files differ from {args.against}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
