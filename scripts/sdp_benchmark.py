#!/usr/bin/env python3
"""Exercise the embedded SDP solver on random strictly feasible instances.

Generates primal-and-dual strictly feasible problems (so an optimum exists),
solves each to 1e-8, and prints iteration/accuracy statistics.
"""

import argparse
import sys
import time

import numpy as np

from convexcert.sdp import SdpProblem, solve


def _sym(rng, k):
    m = rng.normal(size=(k, k))
    return 0.5 * (m + m.T)


def make_instance(rng, dims, p):
    x0 = []
    s0 = []
    for k in dims:
        r = rng.normal(size=(k, k))
        x0.append(r @ r.T + 0.2 * np.eye(k))
        r = rng.normal(size=(k, k))
        s0.append(r @ r.T + 0.2 * np.eye(k))
    y0 = rng.normal(size=p)
    eqs = []
    amats = []
    for _ in range(p):
        mats = {b: _sym(rng, k) for b, k in enumerate(dims)}
        rhs = sum(np.tensordot(mats[b], x0[b]) for b in range(len(dims)))
        eqs.append((mats, float(rhs)))
        amats.append(mats)
    objective = {}
    for b, k in enumerate(dims):
        c = s0[b].copy()
        for i in range(p):
            c = c + y0[i] * amats[i][b]
        objective[b] = c
    return SdpProblem(block_dims=list(dims), objective=objective, equalities=eqs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=25)
    parser.add_argument("--max-dim", type=int, default=30)
    parser.add_argument("--max-rows", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    # untimed: the first solve that factors loads scipy.linalg, a one-time cost
    # that trial 0 would otherwise include; its own generator leaves the trials as they were
    solve(make_instance(np.random.default_rng(args.seed), [3], 3))
    rng = np.random.default_rng(args.seed)
    iterations = []
    times = []
    for trial in range(args.trials):
        nblocks = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, args.max_dim + 1)) for _ in range(nblocks)]
        p = int(rng.integers(5, min(args.max_rows, 3 * sum(dims)) + 1))
        problem = make_instance(rng, dims, p)
        start = time.perf_counter()
        sol = solve(problem, tol=1e-8, max_iter=100)
        elapsed = time.perf_counter() - start
        iterations.append(sol.iterations)
        times.append(elapsed)
        print(
            f"trial {trial:3d}: dims={dims!s:<16} p={p:<4} status={sol.status:<8} "
            f"iters={sol.iterations:<3} gap={sol.relative_gap:.2e} {elapsed:6.3f}s"
        )
        if sol.status != "optimal":
            print("  unexpected status; aborting")
            return 1
    print(
        f"\n{args.trials} instances: iterations median {int(np.median(iterations))} "
        f"max {max(iterations)}, time median {np.median(times):.3f}s max {max(times):.3f}s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
