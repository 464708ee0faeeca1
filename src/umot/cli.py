"""Command-line front end.

Subcommands: forward, certify, linearize, constbg, reconstruct, pipeline.
All read a scenario and call the stage functions and serializers of
umot.pipeline, so each writes what the matching pipeline stage writes, and
gate their base bundle as the certify stage does (``EllipticityReport.require``,
exit 2).  Output is JSON, except the forward stage's fields, which are
``.npy`` files beside one ``grid.json``; field inputs (``--dh``, ``--hmeas``,
``--init``) are JSON.  The UMOT_LOG environment variable selects the logging
level (error, info, debug).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from .errors import GridMismatch, NotElliptic, PipelineStageError, UmotError
from .fileio import (
    dump_json,
    field_from_dict,
    load_json,
    read_field_list_json,
    require_key,
)
from .forward import CoefficientPair
from .pipeline import (
    Recorder,
    constant_bg_reconstruction,
    forward_stage,
    linearized_reconstruction,
    nonlinear_dict,
    nonlinear_reconstruction,
    report_dict,
    run_pipeline,
    trace_csv,
)
from .scenario import ScenarioConfig, parse_scenario


def _setup_logging() -> None:
    level = os.environ.get("UMOT_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.ERROR), format="%(message)s")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", required=True, help="scenario JSON file")


def _config(args) -> ScenarioConfig:
    return parse_scenario(Path(args.scenario).read_text())


def cmd_forward(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rec = Recorder(out)
    config = _config(args)
    forward_stage(config.setup, config.noise, rec)
    print(f"wrote {len(rec.files)} files to {out}")
    return 0


def cmd_certify(args) -> int:
    report = _config(args).setup.certificate
    dump_json(report_dict(report), args.report)
    print(f"elliptic={report.elliptic} margin={report.global_margin:.6e}")
    report.require(args.allow_noncertified)
    return 0


def cmd_linearize(args) -> int:
    setup = _config(args).setup
    setup.certificate.require()
    dump_json(linearized_reconstruction(setup, read_field_list_json(args.dh)), args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_constbg(args) -> int:
    config = _config(args)
    config.setup.certificate.require()
    dh = read_field_list_json(args.dh)
    dump_json(constant_bg_reconstruction(config.setup, dh, config.constant_background), args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_reconstruct(args) -> int:
    init = load_json(args.init)
    coeffs0 = CoefficientPair(
        *(field_from_dict(require_key(init, k, "--init file")) for k in ("gamma", "sigma"))
    )
    config = _config(args)
    grid = config.setup.grid
    if coeffs0.grid != grid:
        raise GridMismatch(f"--init file is on {coeffs0.grid}, the scenario on {grid}")
    setup = replace(config.setup, background=coeffs0)
    setup.certificate.require(args.allow_noncertified)
    H_meas = read_field_list_json(args.hmeas)
    result, diverged = nonlinear_reconstruction(setup, H_meas, config.inversion.options)
    if args.log:
        Path(args.log).write_text(trace_csv(result))
    dump_json(nonlinear_dict(result, diverged), args.out)
    print(f"converged={result.converged} iterations={result.iterations}")
    if diverged is not None:
        raise PipelineStageError("invert", diverged)
    return 0


def cmd_pipeline(args) -> int:
    manifest = run_pipeline(_config(args), args.out, allow_noncertified=args.allow_noncertified)
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
    p.add_argument("--report", required=True)
    p.add_argument("--allow-noncertified", action="store_true")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("linearize", help="solve the linearized inverse problem")
    _add_common(p)
    p.add_argument("--dh", required=True, help="JSON list of dH fields")
    p.add_argument("--out", required=True)
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
    except (NotElliptic, PipelineStageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UmotError, ValueError, OSError) as exc:  # a malformed or unreadable input file
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
