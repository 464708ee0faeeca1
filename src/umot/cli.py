"""Command-line front end.

Subcommands: forward, certify, linearize, constbg, reconstruct, pipeline.
All read a scenario and call the stage functions and serializers of
umot.pipeline, so each writes what the matching pipeline stage writes.
Output is JSON (plus CSV mirrors for fields).  The UMOT_LOG environment
variable selects the logging level (error, info, debug).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import PipelineStageError, UmotError
from .field_core import BoundaryData
from .fileio import dump_json, field_from_dict, load_json, read_field_list_json
from .forward import CoefficientPair
from .pipeline import (
    Recorder,
    ScenarioSetup,
    constant_bg_reconstruction,
    forward_stage,
    linearized_reconstruction,
    nonlinear_dict,
    nonlinear_reconstruction,
    report_dict,
    run_pipeline,
    trace_csv,
)
from .scenario import parse_scenario


def _setup_logging() -> None:
    level = os.environ.get("UMOT_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.ERROR), format="%(message)s")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", required=True, help="scenario JSON file")


def _setup(args) -> ScenarioSetup:
    return ScenarioSetup.from_config(parse_scenario(Path(args.scenario).read_text()))


def cmd_forward(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rec = Recorder(out)
    forward_stage(_setup(args), rec)
    print(f"wrote {len(rec.files)} files to {out}")
    return 0


def cmd_certify(args) -> int:
    config = parse_scenario(Path(args.scenario).read_text())
    if args.xi_samples is not None:
        # rebuilding the certify section runs its range check
        config = replace(config, certify=replace(config.certify, xi_samples=args.xi_samples))
    report = ScenarioSetup.from_config(config).certificate
    dump_json(report_dict(report), args.report)
    print(f"elliptic={report.elliptic} margin={report.global_margin:.6e}")
    return 0 if report.elliptic or args.allow_noncertified else 2


def cmd_linearize(args) -> int:
    setup = _setup(args)
    g = None
    if args.g:
        g = [
            BoundaryData(setup.grid, np.asarray(comp["values"], dtype=float))
            for comp in load_json(args.g)["components"]
        ]
    dump_json(linearized_reconstruction(setup, read_field_list_json(args.dh), g=g), args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_constbg(args) -> int:
    dump_json(constant_bg_reconstruction(_setup(args), read_field_list_json(args.dh)), args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_reconstruct(args) -> int:
    init = load_json(args.init)
    coeffs0 = CoefficientPair(
        field_from_dict(init["gamma"]), field_from_dict(init["sigma"])
    )
    setup = replace(_setup(args), background=coeffs0)
    result, diverged = nonlinear_reconstruction(
        setup, read_field_list_json(args.hmeas), args.allow_noncertified
    )
    if args.log:
        Path(args.log).write_text(trace_csv(result))
    dump_json(nonlinear_dict(result, diverged), args.out)
    print(f"converged={result.converged} iterations={result.iterations}")
    if diverged is not None:
        raise PipelineStageError("invert", diverged)
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
    _add_common(p)
    p.add_argument("--dh", required=True, help="JSON list of dH fields")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_constbg)

    p = sub.add_parser("reconstruct", help="nonlinear fixed-point reconstruction")
    _add_common(p)
    p.add_argument("--hmeas", required=True)
    p.add_argument("--init", required=True)
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
    try:
        return args.fn(args)
    except PipelineStageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UmotError, ValueError) as exc:  # ValueError: a malformed input file
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
