"""Constant-background ladder: CG steps, time, memory and error of the solve by grid.

    python3 scripts/constant_bg_ladder.py [--max N] [--max-steps K]

For each n x n unit-square grid (64, 65, 128, 129, 192, 193, 256 and 257;
``--max N`` drops the larger ones) it synthesizes exact row data
C_i dgamma + B_i dsigma from fine-grid power-4 bumps on the background
gamma0 = 1, sigma0 = 0.5, eta = 1 with the directions e1, e2 and the
diagonal, and prints one row for ``solve_constant_bg``: the spline
coefficients solved for, the CG steps, the wall time of the solve, the
tracemalloc peak of a second, traced solve, and the relative L2 errors of
dgamma and dsigma against the fine truths.  With ``--max-steps K`` it exits 1
when a solve took more than K CG steps.  Even and odd sizes are both listed
because the spline coarse grid fits the DST layout of the preconditioner only
on odd ones.  BLAS runs on one thread, as in ``perfbench``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import tracemalloc
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS

import numpy as np  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import umot  # noqa: E402
from umot.field_core import coarse_basis, rel_l2_error  # noqa: E402
from umot.phantom import bump_field  # noqa: E402

SIZES = (64, 65, 128, 129, 192, 193, 256, 257)


def row_data(bg, grid, dg, ds) -> list[umot.ScalarField]:
    """C_i dg + B_i ds on the interior nodes, one field per direction."""
    iidx = grid.interior_indices()
    data = []
    for v in bg.dirs.vectors:
        s = np.zeros(grid.n_nodes)
        s[iidx] = (umot.operator_C(bg, v, grid).matrix @ dg
                   + umot.operator_B(bg, v, grid).matrix @ ds)[iidx]
        data.append(umot.ScalarField(grid, s))
    return data


def ladder_row(n: int) -> dict:
    s = np.sqrt(0.5)
    dirs = umot.DirectionSet(2, (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([s, s])))
    bg = umot.ConstantBackground(1.0, 0.5, 1.0, dirs)
    grid = umot.Grid.unit_square(n)
    dg = bump_field(grid, (0.4, 0.45), 0.22, 0.05, power=4).values
    ds = bump_field(grid, (0.6, 0.6), 0.2, 0.04, power=4).values
    data = row_data(bg, grid, dg, ds)

    steps = []
    cg = spla.cg

    def counting_cg(*args, **kwargs):
        steps.append(0)

        def count(xk):
            steps[-1] += 1

        return cg(*args, callback=count, **kwargs)

    spla.cg = counting_cg
    try:
        start = time.perf_counter()
        rg, rs = umot.solve_constant_bg(bg, data)
        solve_s = time.perf_counter() - start
        tracemalloc.start()
        umot.solve_constant_bg(bg, data)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    finally:
        spla.cg = cg
    _, _, (mcx, mcy) = coarse_basis((n - 2, n - 2), "spline")
    return {
        "grid": f"{n}x{n}",
        "unknowns": 2 * mcx * mcy,
        "cg_steps": steps[0],
        "solve_s": solve_s,
        "peak_mb": peak / 2**20,
        "err_gamma": rel_l2_error(rg.values, dg, grid),
        "err_sigma": rel_l2_error(rs.values, ds, grid),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max", type=int, default=max(SIZES), help="largest grid size n")
    ap.add_argument("--max-steps", type=int, default=None,
                    help="exit 1 when a solve takes more CG steps than this")
    args = ap.parse_args()
    sizes = [n for n in SIZES if n <= args.max]
    if not sizes:
        ap.error(f"--max must be at least {min(SIZES)}")

    print(f"{'grid':>8} {'unknowns':>9} {'cg steps':>8} {'solve s':>8} "
          f"{'peak MB':>8} {'dgamma err':>10} {'dsigma err':>10}")
    worst = 0
    for n in sizes:
        r = ladder_row(n)
        worst = max(worst, r["cg_steps"])
        print(f"{r['grid']:>8} {r['unknowns']:>9} {r['cg_steps']:>8} {r['solve_s']:>8.3f} "
              f"{r['peak_mb']:>8.1f} {r['err_gamma']:>10.2e} {r['err_sigma']:>10.2e}",
              flush=True)
    if args.max_steps is not None and worst > args.max_steps:
        print(f"error: a solve took {worst} CG steps, more than {args.max_steps}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
