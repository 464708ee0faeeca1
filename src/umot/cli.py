"""Command-line front end.

Subcommands: forward, certify, linearize, constbg, reconstruct, pipeline.
Every command is scenario-driven and writes machine-readable JSON (plus CSV
mirrors for fields).  The UMOT_LOG environment variable selects the logging
level (error, info, debug).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .constant_bg import ConstantBackground, solve_constant_bg
from .ellipticity import DirectionSet, certify_field
from .errors import PipelineStageError, UmotError
from .field_core import BoundaryData
from .fileio import (
    dump_json,
    field_from_dict,
    field_to_dict,
    load_json,
    read_field_list_json,
    write_field_csv,
    write_field_json,
)
from .forward import CoefficientPair, build_bundle
from .linearized import assemble_system, injectivity_probe, normal_residual, solve_normal_equations
from .nonlinear import ReconstructOptions, reconstruct
from .pipeline import _report_dict, run_pipeline
from .scenario import parse_scenario

log = logging.getLogger("umot")


def _setup_logging() -> None:
    level = os.environ.get("UMOT_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.ERROR), format="%(message)s")


def _apply_thread_cap(threads: int | None) -> None:
    if threads is None:
        return
    try:
        from threadpoolctl import threadpool_limits

        threadpool_limits(limits=threads)
    except ImportError:
        log.info("threadpoolctl not available; --threads ignored")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--threads", type=int, default=None, help="cap BLAS threads")


def cmd_forward(args) -> int:
    config = parse_scenario(Path(args.scenario).read_text())
    grid = config.make_grid()
    background = config.make_background(grid)
    truth = config.make_truth(grid, background)
    traces = config.make_traces(grid, background)
    bundle = build_bundle(
        truth, traces, config.eta, config.solver.grad_floor, config.solver.forward_tol
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for j, (f, u) in enumerate(bundle.solutions):
        write_field_json(u, out / f"u_{j}.json")
        write_field_csv(u, out / f"u_{j}.csv")
        write_field_json(bundle.H[j], out / f"H_{j}.json")
        write_field_csv(bundle.H[j], out / f"H_{j}.csv")
    print(f"wrote {2 * bundle.J} fields to {out}")
    return 0


def cmd_certify(args) -> int:
    config = parse_scenario(Path(args.scenario).read_text())
    grid = config.make_grid()
    background = config.make_background(grid)
    traces = config.make_traces(grid, background)
    bundle = build_bundle(
        background, traces, config.eta, config.solver.grad_floor, config.solver.forward_tol
    )
    n_xi = args.xi_samples or config.certify.xi_samples
    report = certify_field(bundle, n_xi=n_xi, margin_threshold=config.certify.margin_threshold)
    dump_json(_report_dict(report), args.report)
    print(f"elliptic={report.elliptic} margin={report.global_margin:.6e}")
    return 0 if report.elliptic or args.allow_noncertified else 2


def cmd_linearize(args) -> int:
    config = parse_scenario(Path(args.scenario).read_text())
    grid = config.make_grid()
    background = config.make_background(grid)
    traces = config.make_traces(grid, background)
    bundle = build_bundle(
        background, traces, config.eta, config.solver.grad_floor, config.solver.forward_tol
    )
    dH = read_field_list_json(args.dh)
    sys_ = assemble_system(bundle, dH)
    report = certify_field(
        bundle,
        n_xi=config.certify.xi_samples,
        margin_threshold=config.certify.margin_threshold,
    )
    sys_.certified = report.elliptic
    g = None
    if args.g:
        gdata = load_json(args.g)
        g = [
            BoundaryData(grid, np.asarray(comp["values"], dtype=float))
            for comp in gdata["components"]
        ]
    v = solve_normal_equations(sys_, g=g, tol=config.solver.normal_tol)
    dump_json(
        {
            "dgamma": field_to_dict(v.dgamma),
            "dsigma": field_to_dict(v.dsigma),
            "du": [field_to_dict(u) for u in v.du],
            "normal_residual": normal_residual(sys_, v),
            "injectivity_probe_rel": injectivity_probe(sys_, relative=True),
        },
        args.out,
    )
    print(f"wrote {args.out}")
    return 0


def cmd_constbg(args) -> int:
    dH = read_field_list_json(args.dh)
    dirs_d = load_json(args.dirs)
    vecs = [np.asarray(v, dtype=float) for v in dirs_d["vectors"]]
    vecs = [v / np.linalg.norm(v) for v in vecs]
    dirs = DirectionSet(int(dirs_d.get("dim", 2)), tuple(vecs))
    bg = ConstantBackground(args.gamma0, args.sigma0, args.eta, dirs)
    from .constant_bg import exponential_solution, preprocess_data

    grid = dH[0].grid
    data = [
        preprocess_data(d, exponential_solution(bg, v, grid), bg)
        for d, v in zip(dH, dirs.vectors)
    ]
    dgamma, dsigma = solve_constant_bg(bg, data)
    dump_json(
        {"dgamma": field_to_dict(dgamma), "dsigma": field_to_dict(dsigma)}, args.out
    )
    print(f"wrote {args.out}")
    return 0


def cmd_reconstruct(args) -> int:
    config = parse_scenario(Path(args.scenario).read_text())
    grid = config.make_grid()
    background = config.make_background(grid)
    traces = config.make_traces(grid, background)
    H_meas = read_field_list_json(args.hmeas)
    init = load_json(args.init)
    coeffs0 = CoefficientPair(
        field_from_dict(init["gamma"]), field_from_dict(init["sigma"])
    )
    opts = ReconstructOptions(
        mode=args.mode,
        tol=config.inversion.tol,
        kmax=config.inversion.kmax,
        forward_tol=config.solver.forward_tol,
        strict_ellipticity=not args.allow_noncertified,
    )
    result = reconstruct(H_meas, traces, coeffs0, config.eta, opts)
    if args.log:
        lines = ["k,residual,step,damping"]
        lines += [
            f"{r.k},{r.residual_norm!r},{r.step_norm!r},{r.damping!r}"
            for r in result.history
        ]
        Path(args.log).write_text("\n".join(lines) + "\n")
    dump_json(
        {
            "converged": result.converged,
            "iterations": result.iterations,
            "final_residual": result.final_residual,
            "gamma": field_to_dict(result.coeffs.gamma),
            "sigma": field_to_dict(result.coeffs.sigma),
        },
        args.out,
    )
    print(f"converged={result.converged} iterations={result.iterations}")
    return 0


def cmd_pipeline(args) -> int:
    config = parse_scenario(Path(args.scenario).read_text())
    manifest = run_pipeline(config, args.out, allow_noncertified=args.allow_noncertified)
    print(f"pipeline complete: {len(manifest.outputs)} artifacts in {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="umot",
        description="Internal-functional tomography laboratory: forward solves, "
        "ellipticity certification, linearized and nonlinear inversion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forward", help="solve the forward problems of a scenario")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_forward)

    p = sub.add_parser("certify", help="certify ellipticity of a scenario bundle")
    _add_common(p)
    p.add_argument("--xi-samples", type=int, default=None)
    p.add_argument("--report", required=True)
    p.add_argument("--allow-noncertified", action="store_true")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("linearize", help="solve the linearized inverse problem")
    _add_common(p)
    p.add_argument("--dh", required=True, help="JSON list of dH fields")
    p.add_argument("--out", required=True)
    p.add_argument("--g", default=None, help="optional normal-derivative data")
    p.set_defaults(fn=cmd_linearize)

    p = sub.add_parser("constbg", help="constant-background explicit inversion")
    p.add_argument("--gamma0", type=float, required=True)
    p.add_argument("--sigma0", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--dirs", required=True, help="JSON direction set")
    p.add_argument("--dh", required=True, help="JSON list of dH fields")
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(fn=cmd_constbg)

    p = sub.add_parser("reconstruct", help="nonlinear fixed-point reconstruction")
    _add_common(p)
    p.add_argument("--hmeas", required=True)
    p.add_argument("--init", required=True)
    p.add_argument("--mode", choices=("frozen", "refreshed"), default="frozen")
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None)
    p.add_argument("--allow-noncertified", action="store_true")
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("pipeline", help="run forward, certify, and invert stages")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--allow-noncertified", action="store_true")
    p.set_defaults(fn=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    _apply_thread_cap(getattr(args, "threads", None))
    try:
        return args.fn(args)
    except PipelineStageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UmotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
