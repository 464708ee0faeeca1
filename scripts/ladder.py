"""Solver ladders: CG steps, time and memory of one solve route by grid size.

    python3 scripts/ladder.py {forward,constant-bg} [...] [--max N]
                              [--max-steps K] [--max-peak-mb M] [--json PATH]

``forward``: for each n x n unit-square grid (64, 128 and 256) it builds one
forward bundle on a heterogeneous background with the CGO boundary set
(M = 4, k = 1, J = 5), the inputs of the benchmark's ``cgo-forward-192``
workload, and prints one row: interior unknowns, CG calls, mean and largest
CG iterations per solve, the ``build_bundle`` wall time, the least wall time
of SETUP_REPEATS separate ``DiffusionSolver`` builds (the interior and
boundary blocks and the multigrid hierarchy, without any CG solve), the mean
wall time of one ``Multigrid.precondition`` (one V-cycle) over CYCLE_REPEATS
applications to the first trace's right-hand side, the worst residual of a
stored solution, the ``certify_field`` wall time and margin of that bundle,
the tracemalloc peak of a second, traced ``build_bundle`` and
``certify_field`` (this grid's footprint), and the process's peak RSS so far
(which only grows from grid to grid).

``constant-bg``: for each n x n unit-square grid (64, 65, 128, 129, 192, 193,
256 and 257) it synthesizes exact row data C_i dgamma + B_i dsigma from
fine-grid power-4 bumps on the background gamma0 = 1, sigma0 = 0.5, eta = 1
with the directions e1, e2 and the diagonal, and prints one row for
``solve_constant_bg``: the spline coefficients solved for, the CG steps, the
wall time of the solve, the tracemalloc peak of a second, traced solve, and
the relative L2 errors of dgamma and dsigma against the fine truths.  Even
and odd sizes are both listed because the spline coarse grid fits the DST
layout of the preconditioner only on odd ones.

Several routes may be named; each prints its own table.  ``--max N`` drops
the grids larger than N.  With ``--max-steps K`` the script exits 1 when any
solve took more than K CG steps, and with ``--max-peak-mb M`` when any row's
``peak MB`` exceeds M.  ``--json PATH`` also writes the rows of every route
to PATH as one JSON object: ``schema_version`` (SCHEMA_VERSION), ``created``
(UTC), ``machine`` (``nproc``, ``cpu``), the ``python``, ``numpy`` and
``scipy`` versions, ``blas`` (the BLAS numpy and scipy were built against,
null where numpy is older than 1.25 and cannot say), ``blas_threads`` and
``routes``, which maps each route to its rows, one object per grid keyed as
in the row functions.  BLAS runs on one thread,
as in ``perfbench``: with more, the threaded vector operations of CG made the
128x128 forward build up to eight times slower in a process started after a
pause.
"""

from __future__ import annotations

import argparse
import os
import platform
import resource
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import umot  # noqa: E402
from umot.field_core import coarse_basis, rel_l2_error  # noqa: E402
from umot.fileio import dump_json  # noqa: E402
from umot.phantom import bump_field  # noqa: E402


@contextmanager
def counted_cg_steps():
    """The steps of every ``spla.cg`` call made in the block, one entry per call."""
    steps = []
    cg = spla.cg

    def counting_cg(*args, **kwargs):
        steps.append(0)

        def count(xk):
            steps[-1] += 1

        return cg(*args, callback=count, **kwargs)

    spla.cg = counting_cg
    try:
        yield steps
    finally:
        spla.cg = cg


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


SETUP_REPEATS = 5  # DiffusionSolver builds per forward row; the fastest is reported
CYCLE_REPEATS = 20  # V-cycles timed per forward row


def forward_row(n: int) -> dict:
    rng = np.random.default_rng(1)
    grid = umot.Grid(n, n, 1.0 / (n - 1), 1.0 / (n - 1))
    background = umot.CoefficientPair(
        umot.ScalarField(grid, 1.0 + 0.2 * smooth_variation(grid, rng)),
        umot.ScalarField(grid, 0.5 + 0.1 * smooth_variation(grid, rng)),
    )
    traces = umot.cgo_boundary_set(grid, 4.0, 1.0, background)
    with counted_cg_steps() as steps:
        start = time.perf_counter()
        bundle = umot.build_bundle(background, traces)
        build_s = time.perf_counter() - start
    start = time.perf_counter()
    report = umot.certify_field(bundle)
    certify_s = time.perf_counter() - start
    setup_s = float("inf")
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        umot.DiffusionSolver(background)
        setup_s = min(setup_s, time.perf_counter() - start)
    mg, rhs = bundle.solver._mg, bundle.solver.dirichlet_rhs(traces[0])
    start = time.perf_counter()
    for _ in range(CYCLE_REPEATS):
        mg.precondition(rhs)
    cycle_s = (time.perf_counter() - start) / CYCLE_REPEATS
    tracemalloc.start()
    umot.certify_field(umot.build_bundle(background, traces))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "grid": f"{n}x{n}",
        "unknowns": grid.n_nodes - grid.n_boundary,
        "cg_calls": len(steps),
        "its_per_solve": sum(steps) / max(len(steps), 1),
        "max_steps": max(steps, default=0),
        "build_s": build_s,
        "setup_s": setup_s,
        "cycle_ms": 1e3 * cycle_s,
        "residual": max(bundle.solver.residual(u, f) for f, u in bundle.solutions),
        "certify_s": certify_s,
        "margin": report.global_margin,
        "peak_mb": peak / 2**20,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


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


def constant_bg_row(n: int) -> dict:
    s = np.sqrt(0.5)
    dirs = umot.DirectionSet(2, (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([s, s])))
    bg = umot.ConstantBackground(1.0, 0.5, 1.0, dirs)
    grid = umot.Grid.unit_square(n)
    dg = bump_field(grid, (0.4, 0.45), 0.22, 0.05, power=4).values
    ds = bump_field(grid, (0.6, 0.6), 0.2, 0.04, power=4).values
    data = row_data(bg, grid, dg, ds)
    with counted_cg_steps() as steps:
        start = time.perf_counter()
        rg, rs = umot.solve_constant_bg(bg, data)
        solve_s = time.perf_counter() - start
        tracemalloc.start()
        umot.solve_constant_bg(bg, data)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    _, _, (mcx, mcy) = coarse_basis((n - 2, n - 2))
    return {
        "grid": f"{n}x{n}",
        "unknowns": 2 * mcx * mcy,
        "cg_steps": steps[0],
        "max_steps": max(steps),
        "solve_s": solve_s,
        "peak_mb": peak / 2**20,
        "err_gamma": rel_l2_error(rg.values, dg, grid),
        "err_sigma": rel_l2_error(rs.values, ds, grid),
    }


# route: (grid sizes, row function, columns as (header, key, width, format))
ROUTES = {
    "forward": (
        (64, 128, 256),
        forward_row,
        [("grid", "grid", 8, ""), ("unknowns", "unknowns", 9, ""),
         ("cg calls", "cg_calls", 8, ""), ("its/solve", "its_per_solve", 9, ".1f"),
         ("max its", "max_steps", 7, ""), ("build s", "build_s", 8, ".3f"),
         ("setup s", "setup_s", 8, ".4f"), ("cycle ms", "cycle_ms", 8, ".3f"),
         ("residual", "residual", 9, ".2e"),
         ("certify s", "certify_s", 9, ".4f"),
         ("margin", "margin", 12, ".10f"), ("peak MB", "peak_mb", 8, ".1f"),
         ("peak RSS MB", "peak_rss_mb", 11, ".1f")],
    ),
    "constant-bg": (
        (64, 65, 128, 129, 192, 193, 256, 257),
        constant_bg_row,
        [("grid", "grid", 8, ""), ("unknowns", "unknowns", 9, ""),
         ("cg steps", "cg_steps", 8, ""), ("solve s", "solve_s", 8, ".3f"),
         ("peak MB", "peak_mb", 8, ".1f"), ("dgamma err", "err_gamma", 10, ".2e"),
         ("dsigma err", "err_sigma", 10, ".2e")],
    ),
}


SCHEMA_VERSION = 1


def _cpu() -> str:
    """The CPU model as /proc/cpuinfo names it, else what ``platform`` says."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas(module) -> str | None:
    """Name and version of the BLAS ``module`` was built against, or None
    when its ``show_config`` cannot return a dict (numpy older than 1.25)."""
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{blas['name']} {blas['version']}"


def environment() -> dict:
    """Everything of a ``--json`` file but the rows."""
    return {
        "schema_version": SCHEMA_VERSION,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": {"nproc": os.cpu_count(), "cpu": _cpu()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": _blas(np), "scipy": _blas(scipy)},
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("routes", nargs="+", choices=sorted(ROUTES), metavar="route",
                    help=f"a solve route to ladder: {', '.join(sorted(ROUTES))}")
    ap.add_argument("--max", type=int, default=None, help="largest grid size n")
    ap.add_argument("--max-steps", type=int, default=None,
                    help="exit 1 when a solve takes more CG steps than this")
    ap.add_argument("--max-peak-mb", type=float, default=None,
                    help="exit 1 when a row's traced peak MB exceeds this")
    ap.add_argument("--json", default=None, metavar="PATH",
                    help="also write the machine, versions and rows to PATH")
    args = ap.parse_args()
    plans = []
    for route in args.routes:
        all_sizes, row, columns = ROUTES[route]
        sizes = [n for n in all_sizes if args.max is None or n <= args.max]
        if not sizes:
            ap.error(f"--max must be at least {min(all_sizes)} for {route}")
        plans.append((route, sizes, row, columns))

    rows: dict[str, list[dict]] = {}
    worst, peak = 0, 0.0
    for route, sizes, row, columns in plans:
        if len(plans) > 1:
            print(f"{route}:")
        print(" ".join(f"{header:>{width}}" for header, _, width, _ in columns))
        for n in sizes:
            r = row(n)
            rows.setdefault(route, []).append(r)
            worst, peak = max(worst, r["max_steps"]), max(peak, r["peak_mb"])
            print(" ".join(f"{r[key]:>{width}{fmt}}" for _, key, width, fmt in columns),
                  flush=True)
    if args.json is not None:
        dump_json({**environment(), "routes": rows}, args.json)
    failed = False
    if args.max_steps is not None and worst > args.max_steps:
        print(f"error: a solve took {worst} CG steps, more than {args.max_steps}",
              file=sys.stderr)
        failed = True
    if args.max_peak_mb is not None and peak > args.max_peak_mb:
        print(f"error: a row peaked at {peak:.1f} MB, more than {args.max_peak_mb:g}",
              file=sys.stderr)
        failed = True
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
