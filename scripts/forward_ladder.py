"""Forward-solve ladder: multigrid CG work per solve as the grid grows.

    python3 scripts/forward_ladder.py [--max N] [--max-iterations K]

For each n x n unit-square grid (64, 128 and 256; ``--max N`` drops the
larger ones) it builds one forward bundle on a heterogeneous background with
the CGO boundary set (M = 4, k = 1, J = 5), the inputs of the benchmark's
``cgo-forward-192`` workload, and prints one row: interior unknowns, CG
calls, mean and largest CG iterations per solve, the ``build_bundle`` wall
time, the worst residual of a stored solution and the process's peak RSS so
far.  With ``--max-iterations K`` it exits 1 when any solve took more than K
iterations.  BLAS runs on one thread, as in ``perfbench``: with more, the
threaded vector operations of CG made the 128x128 build up to eight times
slower in a process started after a pause.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS

import numpy as np  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import umot  # noqa: E402

SIZES = (64, 128, 256)


def smooth_variation(grid: umot.Grid, rng) -> np.ndarray:
    """Seeded sum of three broad Gaussians, scaled to maximum 1 on the grid."""
    X, Y = grid.coords()
    out = np.zeros(grid.n_nodes)
    for _ in range(3):
        cx, cy = rng.uniform(0.0, 1.0, size=2)
        width = rng.uniform(0.2, 0.35)
        weight = rng.uniform(0.5, 1.0)
        out += weight * np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2.0 * width**2))
    return out / out.max()


def ladder_row(n: int) -> dict:
    rng = np.random.default_rng(1)
    grid = umot.Grid(n, n, 1.0 / (n - 1), 1.0 / (n - 1))
    background = umot.CoefficientPair(
        umot.ScalarField(grid, 1.0 + 0.2 * smooth_variation(grid, rng)),
        umot.ScalarField(grid, 0.5 + 0.1 * smooth_variation(grid, rng)),
    )
    traces = umot.cgo_boundary_set(grid, 4.0, 1.0, background)

    iterations = []
    cg = spla.cg

    def counting_cg(*args, **kwargs):
        iterations.append(0)

        def count(xk):
            iterations[-1] += 1

        return cg(*args, callback=count, **kwargs)

    spla.cg = counting_cg
    try:
        start = time.perf_counter()
        bundle = umot.build_bundle(background, traces)
        build_s = time.perf_counter() - start
    finally:
        spla.cg = cg
    return {
        "grid": f"{n}x{n}",
        "unknowns": grid.n_nodes - grid.n_boundary,
        "cg_calls": len(iterations),
        "its_per_solve": sum(iterations) / max(len(iterations), 1),
        "max_its": max(iterations, default=0),
        "build_s": build_s,
        "residual": max(bundle.solver.residual(u, f) for f, u in bundle.solutions),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max", type=int, default=max(SIZES), help="largest grid size n")
    ap.add_argument("--max-iterations", type=int, default=None,
                    help="exit 1 when a solve takes more CG iterations than this")
    args = ap.parse_args()
    sizes = [n for n in SIZES if n <= args.max]
    if not sizes:
        ap.error(f"--max must be at least {min(SIZES)}")

    print(f"{'grid':>8} {'unknowns':>9} {'cg calls':>8} {'its/solve':>9} {'max its':>7} "
          f"{'build s':>8} {'residual':>9} {'peak RSS MB':>11}")
    worst = 0
    for n in sizes:
        r = ladder_row(n)
        worst = max(worst, r["max_its"])
        print(f"{r['grid']:>8} {r['unknowns']:>9} {r['cg_calls']:>8} "
              f"{r['its_per_solve']:>9.1f} {r['max_its']:>7} {r['build_s']:>8.3f} "
              f"{r['residual']:>9.2e} {r['peak_rss_mb']:>11.1f}", flush=True)
    if args.max_iterations is not None and worst > args.max_iterations:
        print(f"error: a solve took {worst} CG iterations, more than {args.max_iterations}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
