import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

import umot.pipeline
from umot import Grid, ScalarField
from umot.cli import build_parser, main
from umot.errors import NotElliptic
from umot.fileio import dump_json, field_to_dict, load_json
from umot.nonlinear import IterationRecord, ReconstructionResult
from umot.scenario import parse_scenario

SCENARIO = {
    "grid": {"nx": 18, "ny": 18, "hx": 1 / 17, "hy": 1 / 17},
    "eta": 1.0,
    "background": {"type": "constant", "gamma0": 1.0, "sigma0": 0.5},
    "boundary_set": {
        "type": "constant_bg",
        "dirs": [[1, 0], [0, 1], [0.7071067811865476, 0.7071067811865476]],
    },
    "phantom": {
        "bumps": [
            {"center": [0.4, 0.45], "radius": 0.2, "amplitude": 0.02, "target": "gamma"},
            {"center": [0.6, 0.6], "radius": 0.18, "amplitude": 0.01, "target": "sigma"},
        ]
    },
    "noise": {"level": 0.0, "seed": 11},
    "inversion": {"path": "linearized"},
}


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return path


def read_field_npy(out, name) -> ScalarField:
    """Field ``name`` of a forward-stage directory: ``<name>.npy`` on ``grid.json``."""
    values = np.load(out / f"{name}.npy", allow_pickle=False)
    return ScalarField(Grid(**load_json(out / "grid.json")), values)


def write_field_list_json(fields, path) -> None:
    """A field-list file, as ``--hmeas`` and ``--dh`` read it."""
    dump_json({"fields": [field_to_dict(f) for f in fields]}, path)


def _variant(tmp_path, **changes):
    """Scenario file of SCENARIO with the given top-level keys replaced."""
    scen = json.loads(json.dumps(SCENARIO))
    scen.update(changes)
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(scen))
    return path


def _reconstruct_inputs(tmp_path, hmeas):
    """Write the measured functionals and the background as initial guess."""
    h_path = tmp_path / "hmeas.json"
    write_field_list_json(hmeas, h_path)
    g = hmeas[0].grid
    init_path = tmp_path / "init.json"
    dump_json(
        {
            "gamma": field_to_dict(ScalarField.constant(g, 1.0)),
            "sigma": field_to_dict(ScalarField.constant(g, 0.5)),
        },
        init_path,
    )
    return h_path, init_path


def test_pipeline_golden_run(tmp_path, scenario_file):
    out = tmp_path / "run"
    rc = main(["pipeline", "--scenario", str(scenario_file), "--out", str(out)])
    assert rc == 0
    manifest = load_json(out / "manifest.json")
    names = {o["path"] for o in manifest["outputs"]}
    assert "certify.json" in names
    assert "reconstruction.json" in names
    assert "H_0.npy" in names and "grid.json" in names
    report = load_json(out / "certify.json")
    assert report["elliptic"] is True
    rec = load_json(out / "reconstruction.json")
    assert rec["err_dgamma_rel"] < 0.05
    assert rec["normal_residual"] < 1e-9


def test_pipeline_determinism(tmp_path, scenario_file):
    rc1 = main(["pipeline", "--scenario", str(scenario_file), "--out", str(tmp_path / "a")])
    rc2 = main(["pipeline", "--scenario", str(scenario_file), "--out", str(tmp_path / "b")])
    assert rc1 == rc2 == 0
    ma = load_json(tmp_path / "a" / "manifest.json")
    mb = load_json(tmp_path / "b" / "manifest.json")
    assert ma["outputs"] == mb["outputs"]
    assert ma["config_digest"] == mb["config_digest"]


def test_pipeline_rejects_two_direction_set(tmp_path, capsys):
    # two directions cannot certify, and the constant_bg traces are built
    # when the scenario is parsed: refused before any file is written
    bad = json.loads(json.dumps(SCENARIO))
    bad["boundary_set"]["dirs"] = [[1, 0], [0, 1]]
    spath = tmp_path / "bad.json"
    spath.write_text(json.dumps(bad))
    rc = main(["pipeline", "--scenario", str(spath), "--out", str(tmp_path / "run")])
    assert rc == 1
    assert "direction set margin" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    # a stage that fails after parsing keeps its prior outputs
    spath = _variant(tmp_path, certify={"margin_threshold": 10.0})
    rc = main(["pipeline", "--scenario", str(spath), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert (tmp_path / "run" / "scenario.json").exists()
    assert (tmp_path / "run" / "u_0.npy").exists()
    assert not (tmp_path / "run" / "manifest.json").exists()


def test_forward_and_certify_commands(tmp_path, scenario_file, monkeypatch):
    monkeypatch.setenv("UMOT_LOG", "info")
    out = tmp_path / "fwd"
    assert main(["forward", "--scenario", str(scenario_file), "--out", str(out)]) == 0
    u0 = read_field_npy(out, "u_0")
    assert u0.grid.nx == 18
    assert (out / "H_2.npy").exists()

    report_path = tmp_path / "report.json"
    rc = main(["certify", "--scenario", str(scenario_file), "--report", str(report_path)])
    assert rc == 0
    rep = load_json(report_path)
    assert rep["elliptic"] is True
    assert "xi_samples" not in rep  # the margin is exact, nothing is sampled


def test_linearize_command(tmp_path, scenario_file):
    # build dH with the pipeline, then invert through the standalone command
    out = tmp_path / "run"
    assert main(["pipeline", "--scenario", str(scenario_file), "--out", str(out)]) == 0
    dH = [read_field_npy(out, f"dH_{j}") for j in range(3)]
    dh_path = tmp_path / "dh.json"
    write_field_list_json(dH, dh_path)
    v_path = tmp_path / "v.json"
    rc = main(
        ["linearize", "--scenario", str(scenario_file), "--dh", str(dh_path),
         "--out", str(v_path)]
    )
    assert rc == 0
    v = load_json(v_path)
    assert v["normal_residual"] < 1e-9
    assert v["injectivity_probe_rel"] > 1e-6


def test_linearize_command_uses_scenario_threshold(tmp_path, scenario_file, capsys):
    # a margin threshold above the bundle's margin must fail certification
    # in the standalone command exactly as it does in the pipeline
    out = tmp_path / "run"
    assert main(["pipeline", "--scenario", str(scenario_file), "--out", str(out)]) == 0
    dh_path = tmp_path / "dh.json"
    write_field_list_json([read_field_npy(out, f"dH_{j}") for j in range(3)], dh_path)
    strict = json.loads(json.dumps(SCENARIO))
    strict["certify"] = {"margin_threshold": 10.0}
    strict_path = tmp_path / "strict.json"
    strict_path.write_text(json.dumps(strict))
    rc = main(
        ["linearize", "--scenario", str(strict_path), "--dh", str(dh_path),
         "--out", str(tmp_path / "v.json")]
    )
    assert rc == 2
    assert "failed certification" in capsys.readouterr().err
    assert not (tmp_path / "v.json").exists()


def test_constbg_command(tmp_path):
    # the standalone command runs the pipeline's constant_bg stage on the
    # same bundle, so the same dH gives the same numbers, bit for bit
    spath = _variant(tmp_path, inversion={"path": "constant_bg"})
    out = tmp_path / "run"
    assert main(["pipeline", "--scenario", str(spath), "--out", str(out)]) == 0
    dh_path = tmp_path / "dh.json"
    write_field_list_json([read_field_npy(out, f"dH_{j}") for j in range(3)], dh_path)
    rec_path = tmp_path / "rec.json"
    rc = main(
        ["constbg", "--scenario", str(spath), "--dh", str(dh_path), "--out", str(rec_path)]
    )
    assert rc == 0
    rec, pipe = load_json(rec_path), load_json(out / "reconstruction.json")
    assert rec["dgamma"] == pipe["dgamma"]
    assert rec["dsigma"] == pipe["dsigma"]


def test_constbg_command_rejects_3d_directions(tmp_path, capsys):
    vecs = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [3 ** -0.5] * 3]
    spath = _variant(tmp_path, boundary_set={"type": "constant_bg", "dirs": vecs})
    g = Grid(18, 18, 1 / 17, 1 / 17)
    dh_path = tmp_path / "dh.json"
    write_field_list_json([ScalarField.constant(g, 0.01)] * 4, dh_path)
    rec_path = tmp_path / "rec.json"
    rc = main(
        ["constbg", "--scenario", str(spath), "--dh", str(dh_path), "--out", str(rec_path)]
    )
    assert rc == 1
    assert "nonzero 2-component vectors" in capsys.readouterr().err
    assert not rec_path.exists()


def test_constant_bg_path_needs_constant_bg_boundary_set(tmp_path, capsys):
    # rejected when the scenario is parsed, before any stage writes a file
    spath = _variant(
        tmp_path,
        background={"type": "constant", "gamma0": 1.0, "sigma0": 0.2},
        boundary_set={"type": "cgo", "M": 4.0, "k": 1.0},
        inversion={"path": "constant_bg"},
    )
    out = tmp_path / "run"
    assert main(["pipeline", "--scenario", str(spath), "--out", str(out)]) == 1
    assert "constant_bg boundary set" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"eta": 0.0, "inversion": {"path": "constant_bg"}}, "eta must be nonzero"),
        ({"background": {"type": "constant", "gamma0": 1.0, "sigma0": 0.0}}, "sigma0 > 0"),
        ({"boundary_set": {"type": "constant_bg", "dirs": [[1, 0], [-1, 0]]}}, "margin"),
    ],
)
def test_constant_bg_requirements_checked_at_parse(tmp_path, capsys, changes, message):
    # the constant-background traces and route are built when the scenario
    # is parsed, so a scenario they refuse writes nothing
    spath = _variant(tmp_path, **changes)
    out = tmp_path / "run"
    assert main(["pipeline", "--scenario", str(spath), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_constant_bg_route_is_built_on_first_use_off_its_path(tmp_path, capsys):
    # off the constant_bg path the constant-background route is built when
    # `umot constbg` first uses it: a zero eta, which that route refuses,
    # parses and runs the linearized pipeline, and only `umot constbg` fails
    spath = _variant(tmp_path, eta=0.0)
    parse_scenario(spath.read_text())
    out = tmp_path / "run"
    assert main(["pipeline", "--scenario", str(spath), "--out", str(out)]) == 0
    dh_path = tmp_path / "dh.json"
    write_field_list_json([read_field_npy(out, f"dH_{j}") for j in range(3)], dh_path)
    capsys.readouterr()
    rec_path = tmp_path / "rec.json"
    rc = main(
        ["constbg", "--scenario", str(spath), "--dh", str(dh_path), "--out", str(rec_path)]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "eta must be nonzero" in err
    assert not rec_path.exists()


@pytest.mark.parametrize("key", ["forward_tol", "normal_tol"])
def test_retired_solver_tolerances_are_unknown_keys(tmp_path, capsys, key):
    # every solve is checked at one fixed bound, so no scenario sets one;
    # the solver block that held them is gone too
    spath = _variant(tmp_path, solver={key: 1e-10})
    out = tmp_path / "run"
    assert main(["pipeline", "--scenario", str(spath), "--out", str(out)]) == 1
    assert "unknown keys ['solver'] in scenario" in capsys.readouterr().err
    assert not out.exists()


def test_retired_solver_block_is_unknown_key(tmp_path, capsys):
    # the gradient floor is the code's own constant, so the block that held
    # it is refused, also as every earlier scenario.json wrote it
    spath = _variant(tmp_path, solver={"grad_floor": None})
    out = tmp_path / "run"
    assert main(["pipeline", "--scenario", str(spath), "--out", str(out)]) == 1
    assert "unknown keys ['solver'] in scenario" in capsys.readouterr().err
    assert not out.exists()


def test_certify_command_refuses_xi_samples(tmp_path, scenario_file, capsys):
    # the frequency sample count is gone: a scenario that still sets it is
    # refused as an unknown key, and the flag no longer parses
    report_path = tmp_path / "report.json"
    spath = _variant(tmp_path, certify={"xi_samples": 128})
    assert main(["certify", "--scenario", str(spath), "--report", str(report_path)]) == 1
    assert "unknown keys ['xi_samples'] in certify" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(
            ["certify", "--scenario", str(scenario_file), "--xi-samples", "128",
             "--report", str(report_path)]
        )
    assert exc.value.code == 2
    assert not report_path.exists()


def test_linearize_command_refuses_normal_data(tmp_path, scenario_file):
    # the normal-derivative lift is gone (it moved no number of the
    # least-squares solve), so the --g flag no longer parses
    dh_path, g_path = tmp_path / "dh.json", tmp_path / "g.json"
    g = Grid(18, 18, 1 / 17, 1 / 17)
    write_field_list_json([ScalarField.constant(g, 0.01)] * 3, dh_path)
    dump_json({"components": [{"values": [0.0] * (4 * 18 - 4)}] * 5}, g_path)
    out = tmp_path / "v.json"
    with pytest.raises(SystemExit) as exc:
        main(
            ["linearize", "--scenario", str(scenario_file), "--dh", str(dh_path),
             "--out", str(out), "--g", str(g_path)]
        )
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "command, n_fields, sigma0, message",
    [
        ("linearize", 2, None, "one dH field per solution"),
        ("constbg", 2, None, "one data field per direction"),
        ("reconstruct", 3, -0.5, "absorption"),
        # a file without a key it needs names the key
        ("linearize", 3, None, "field list is missing the key 'fields'"),
        ("linearize", 3, None, "field is missing the key 'ny'"),
        ("reconstruct", 3, 0.5, "--init file is missing the key 'gamma'"),
        # extra fields are refused, not dropped
        ("constbg", 4, None, "one data field per direction"),
    ],
)
def test_malformed_input_files_exit_1(
    tmp_path, scenario_file, capsys, command, n_fields, sigma0, message
):
    # a file of the wrong shape or with a value out of range is reported as
    # an error, not a traceback, and no output is written
    g = Grid(18, 18, 1 / 17, 1 / 17)
    fields_path = tmp_path / "fields.json"
    write_field_list_json([ScalarField.constant(g, 0.01)] * n_fields, fields_path)
    carrier = {"fields": fields_path, "ny": fields_path}  # the file that holds each key
    out = tmp_path / "out.json"
    args = [command, "--scenario", str(scenario_file), "--out", str(out)]
    if command == "reconstruct":
        init_path = tmp_path / "init.json"
        dump_json(
            {
                "gamma": field_to_dict(ScalarField.constant(g, 1.0)),
                "sigma": field_to_dict(ScalarField.constant(g, sigma0)),
            },
            init_path,
        )
        carrier["gamma"] = init_path
        args += ["--hmeas", str(fields_path), "--init", str(init_path)]
    else:
        args += ["--dh", str(fields_path)]
    missing = re.search(r"missing the key '(\w+)'", message)
    if missing:  # drop the named key from the file that carries it
        key = missing.group(1)
        path = carrier[key]
        d = load_json(path)
        for obj in d["fields"] if key == "ny" else [d]:
            del obj[key]
        dump_json(d, path)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def _first_field(d: dict, **changes) -> dict:
    d["fields"][0].update(changes)
    return d


@pytest.mark.parametrize(
    "command, flag, edit, message",
    [
        ("linearize", "--dh", lambda d: {"fields": 5},
         "field list key 'fields' must be a list, got int"),
        ("reconstruct", "--hmeas", lambda d: {"fields": 5},
         "field list key 'fields' must be a list, got int"),
        ("linearize", "--dh", lambda d: _first_field(d, values={"a": 1.0}),
         "field key 'values' must be a list, got dict"),
        ("linearize", "--dh", lambda d: _first_field(d, values=[{}] * 324),
         "field key 'values' must hold numbers"),
        ("linearize", "--dh", lambda d: _first_field(d, values=[0.01] * 323 + [True]),
         "field key 'values' must hold numbers, got True"),
        ("linearize", "--dh", lambda d: _first_field(d, hx=[1 / 17]),
         "field spacings and origin must be numbers"),
    ],
    ids=["dh-fields-int", "hmeas-fields-int", "values-object", "values-objects", "values-bool",
         "hx-list"],
)
def test_wrongly_typed_input_files_exit_1(
    tmp_path, scenario_file, capsys, command, flag, edit, message
):
    # a value of the wrong JSON type in an input file is reported as an
    # error, not a traceback, and no output is written
    g = Grid(18, 18, 1 / 17, 1 / 17)
    files = dict.fromkeys(["--dh", "--hmeas"], tmp_path / "fields.json")
    write_field_list_json([ScalarField.constant(g, 0.01)] * 3, files["--dh"])
    files["--init"] = tmp_path / "init.json"
    dump_json({k: field_to_dict(ScalarField.constant(g, 1.0)) for k in ("gamma", "sigma")},
              files["--init"])
    dump_json(edit(load_json(files[flag])), files[flag])
    flags = ["--dh"] if command == "linearize" else ["--hmeas", "--init"]
    out = tmp_path / "out.json"
    args = [command, "--scenario", str(scenario_file), "--out", str(out)]
    assert main(args + [a for f in flags for a in (f, str(files[f]))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["linearize", "pipeline"])
def test_missing_input_file_exits_1(tmp_path, scenario_file, capsys, command):
    # a file that is not there is reported as an error, not a traceback
    out = tmp_path / "out"
    if command == "linearize":
        args = ["linearize", "--scenario", str(scenario_file), "--dh", "/no/such.json"]
    else:
        args = ["pipeline", "--scenario", str(tmp_path / "missing.json")]
    assert main(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No such file" in err
    assert not out.exists()


def test_malformed_scenario_json_exits_1(tmp_path, capsys):
    # a syntax error is reported as such, with its place, not as a missing file
    path = tmp_path / "bad.json"
    path.write_text('{"grid": {"nx": 10,}')
    report = tmp_path / "report.json"
    assert main(["certify", "--scenario", str(path), "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: scenario is not valid JSON: Expecting property name")
    assert "line 1 column 20" in err
    assert "No such file" not in err
    assert not report.exists()


@pytest.mark.parametrize(
    "slot, content, message",
    [
        ("gamma_file", None, "cannot read background gamma_file '{bad}': No such file"),
        ("sigma_file", "{not json", "cannot read background sigma_file '{bad}': Expecting"),
        ("trace", None, "cannot read boundary file '{bad}': No such file"),
        ("trace", "{not json", "cannot read boundary file '{bad}': Expecting"),
        ("trace", json.dumps({"values": [1.0] * 5}), "boundary data needs 68 values"),
    ],
    ids=["gamma-missing", "sigma-malformed", "trace-missing", "trace-malformed", "trace-short"],
)
def test_scenario_files_are_read_at_parse(tmp_path, capsys, slot, content, message):
    # the files a scenario names are read when it is parsed: a missing or
    # malformed one is refused before any file is written
    g = Grid(18, 18, 1 / 17, 1 / 17)
    field = tmp_path / "field.json"
    dump_json(field_to_dict(ScalarField.constant(g, 1.0)), field)
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({"values": [1.0] * g.n_boundary}))
    bad = tmp_path / "bad.json"
    if content is not None:
        bad.write_text(content)
    files = {"gamma_file": field, "sigma_file": field, "trace": trace, slot: bad}
    spath = _variant(
        tmp_path,
        background={"type": "fields", "gamma_file": str(files["gamma_file"]),
                    "sigma_file": str(files["sigma_file"])},
        boundary_set={"type": "explicit", "files": [str(trace), str(trace), str(files["trace"])]},
    )
    out = tmp_path / "run"
    assert main(["pipeline", "--scenario", str(spath), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message.format(bad=bad) in err
    assert not out.exists()


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"phantom": {"bumps": [SCENARIO["phantom"]["bumps"][0] | {"amplitude": -2.0}]}},
         "diffusion coefficient below"),
        ({"phantom": {"bumps": [SCENARIO["phantom"]["bumps"][1] | {"amplitude": -2.0}]}},
         "absorption coefficient must be nonnegative"),
        ({"phantom": {"bumps": [SCENARIO["phantom"]["bumps"][0] | {"center": [0.15, 0.5]}]}},
         "reaches the boundary band"),
        ({"noise": {"level": float("inf"), "seed": 11}}, "noise level must be a finite number"),
        ({"boundary_set": {"type": "explicit", "files": []}}, "at least one boundary file"),
        ({"background": [1]}, "background must be a JSON object"),
        ({"boundary_set": "cgo"}, "boundary_set must be a JSON object"),
        ({"noise": 5}, "noise must be a JSON object"),
    ],
    ids=["gamma-truth", "sigma-truth", "bump-at-boundary", "noise-infinite", "no-trace-files",
         "background-list", "boundary-set-string", "noise-int"],
)
def test_scenario_values_refused_at_parse(tmp_path, capsys, changes, message):
    # the truth is built, the noise level range-checked and the trace list
    # checked when the scenario is parsed: refused before any file is written
    spath = _variant(tmp_path, **changes)
    out = tmp_path / "run"
    assert main(["pipeline", "--scenario", str(spath), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("section, key", [(None, "eta"), ("noise", "level"), ("grid", "hx")])
def test_integer_too_large_for_a_float_is_refused(tmp_path, capsys, section, key):
    # a JSON integer beyond the float range is no number: parse refuses it by
    # key, where float() would raise OverflowError, and echoes a shortened repr
    # of its 401 digits
    scen = json.loads(json.dumps(SCENARIO))
    (scen[section] if section else scen)[key] = 10**400
    spath = tmp_path / "huge.json"
    spath.write_text(json.dumps(scen))
    report = tmp_path / "report.json"
    assert main(["certify", "--scenario", str(spath), "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{section or 'scenario'}.{key} must be a number" in err
    assert len(err.strip()) < 120
    assert not report.exists()


def test_pipeline_reuses_what_parse_read(tmp_path):
    # a fields background is read once, when the scenario is parsed: the
    # pipeline runs on what parsing built after its files are gone
    g = Grid(20, 20, 1 / 19, 1 / 19)
    files = {"gamma_file": tmp_path / "gamma.json", "sigma_file": tmp_path / "sigma.json"}
    dump_json(field_to_dict(ScalarField.constant(g, 1.0)), files["gamma_file"])
    dump_json(field_to_dict(ScalarField.constant(g, 0.2)), files["sigma_file"])
    scen = json.loads(json.dumps(SCENARIO))
    scen["grid"] = {"nx": 20, "ny": 20, "hx": 1 / 19, "hy": 1 / 19}
    scen["background"] = {"type": "fields", **{k: str(p) for k, p in files.items()}}
    scen["boundary_set"] = {"type": "cgo", "M": 4.0, "k": 1.0}
    scen["phantom"] = {"bumps": scen["phantom"]["bumps"][:1]}
    config = parse_scenario(json.dumps(scen))
    for path in files.values():
        path.unlink()
    manifest = umot.pipeline.run_pipeline(config, tmp_path / "run")
    assert "reconstruction.json" in {p for p, _ in manifest.outputs}
    assert load_json(tmp_path / "run" / "certify.json")["elliptic"] is True


def test_reconstruct_command(tmp_path, scenario_file):
    out = tmp_path / "run"
    assert main(["pipeline", "--scenario", str(scenario_file), "--out", str(out)]) == 0
    h_path, init_path = _reconstruct_inputs(
        tmp_path, [read_field_npy(out, f"H_{j}") for j in range(3)]
    )
    res_path = tmp_path / "result.json"
    trace_path = tmp_path / "trace.csv"
    rc = main(
        ["reconstruct", "--scenario", str(scenario_file), "--hmeas", str(h_path),
         "--init", str(init_path), "--out", str(res_path),
         "--log", str(trace_path)]
    )
    assert rc == 0
    res = load_json(res_path)
    assert res["converged"] is True
    assert trace_path.read_text().splitlines()[0] == "k,residual,step,damping"


def test_reconstruct_command_keeps_best_iterate_on_divergence(tmp_path):
    # the noisy sweep diverges in the standalone command as in the pipeline:
    # exit 2, the best iterate flagged as diverged, and the same trace
    spath = _variant(
        tmp_path,
        noise={"level": 0.002, "seed": 31},
        inversion={"path": "nonlinear", "kmax": 20},
    )
    out = tmp_path / "run"
    assert main(["pipeline", "--scenario", str(spath), "--out", str(out)]) == 2
    h_path, init_path = _reconstruct_inputs(
        tmp_path, [read_field_npy(out, f"H_{j}") for j in range(3)]
    )
    res_path, trace_path = tmp_path / "result.json", tmp_path / "trace.csv"
    rc = main(
        ["reconstruct", "--scenario", str(spath), "--hmeas", str(h_path),
         "--init", str(init_path), "--out", str(res_path), "--log", str(trace_path)]
    )
    assert rc == 2
    res = load_json(res_path)
    assert res["diverged"] is True and res["converged"] is False
    assert res["gamma"] == load_json(out / "reconstruction.json")["gamma"]
    assert trace_path.read_text() == (out / "trace.csv").read_text()


def test_reconstruct_command_uses_scenario_mode(tmp_path, monkeypatch):
    spath = _variant(tmp_path, inversion={"path": "nonlinear", "mode": "refreshed"})
    g = Grid(18, 18, 1 / 17, 1 / 17)
    h_path, init_path = _reconstruct_inputs(tmp_path, [ScalarField.constant(g, 1.0)] * 3)
    modes = []

    def fake_sweep(H_meas, bundle0, report, opts, truth=None):
        modes.append(opts.mode)
        record = IterationRecord(0, 0.0, 0.0, 1.0)
        return ReconstructionResult(bundle0.coeffs, True, 0, 0.0, (record,))

    monkeypatch.setattr(umot.pipeline, "sweep", fake_sweep)
    rc = main(
        ["reconstruct", "--scenario", str(spath), "--hmeas", str(h_path),
         "--init", str(init_path), "--out", str(tmp_path / "result.json")]
    )
    assert rc == 0
    assert modes == ["refreshed"]


def test_nonlinear_pipeline_certifies_with_scenario_settings(tmp_path, monkeypatch):
    # the sweep starts from the certify stage's bundle and certificate: the
    # base is built and certified once, with the scenario's threshold, and a
    # bundle the certify stage rejects is not passed silently
    import umot.nonlinear
    import umot.scenario

    spath = _variant(
        tmp_path,
        inversion={"path": "nonlinear", "kmax": 2},
        certify={"margin_threshold": 0.9},
    )
    calls, base_builds = [], []
    for module in (umot.scenario, umot.nonlinear):

        def recording(bundle, certify=module.certify_field, **kwargs):
            report = certify(bundle, **kwargs)
            calls.append((kwargs["margin_threshold"], report.elliptic))
            return report

        def counting(coeffs, *args, build=module.build_bundle, **kwargs):
            if (coeffs.gamma.values == 1.0).all() and (coeffs.sigma.values == 0.5).all():
                base_builds.append(coeffs)
            return build(coeffs, *args, **kwargs)

        monkeypatch.setattr(module, "certify_field", recording)
        monkeypatch.setattr(module, "build_bundle", counting)
    with pytest.warns(UserWarning) as warned:
        rc = main(
            ["pipeline", "--scenario", str(spath), "--out", str(tmp_path / "run"),
             "--allow-noncertified"]
        )
    assert rc == 0
    # the certify stage's gate warns once; the sweep and its solves do not
    messages = [str(w.message) for w in warned]
    assert len(messages) == 1 and "failed certification" in messages[0]
    assert calls == [(0.9, False)]
    assert len(base_builds) == 1


def test_forward_command_writes_pipeline_artifacts(tmp_path):
    # the standalone forward stage writes the pipeline's forward artifacts,
    # noise included, byte for byte
    spath = _variant(tmp_path, noise={"level": 0.002, "seed": 31})
    run, fwd = tmp_path / "run", tmp_path / "fwd"
    assert main(["pipeline", "--scenario", str(spath), "--out", str(run)]) == 0
    assert main(["forward", "--scenario", str(spath), "--out", str(fwd)]) == 0
    for j in range(3):
        assert (fwd / f"H_{j}.npy").read_bytes() == (run / f"H_{j}.npy").read_bytes()
    stage_only = {"scenario.json", "certify.json", "reconstruction.json", "manifest.json"}
    written = {p.name for p in fwd.iterdir()}
    assert written == {p.name for p in run.iterdir()} - stage_only
    for name in written:
        assert (fwd / name).read_bytes() == (run / name).read_bytes()


def test_forward_stage_field_artifacts(tmp_path):
    # every forward-stage field is a float64, C-order (ny, nx) .npy holding
    # the bundle's numbers bit for bit, grid.json records the scenario grid,
    # and the manifest lists exactly the files written; the grid is not
    # square and its origin moved, so a transposed or shifted layout fails
    grid = {"nx": 21, "ny": 17, "hx": 1 / 20, "hy": 1 / 16, "x0": -0.05, "y0": 0.0}
    config = parse_scenario(_variant(tmp_path, grid=grid).read_text())
    out = tmp_path / "run"
    manifest = umot.pipeline.run_pipeline(config, out)
    setup = config.setup
    bundle_truth = setup.bundle.at(setup.truth)
    expected = {"gamma_truth": setup.truth.gamma, "sigma_truth": setup.truth.sigma}
    for j, ((_, u), h, hb) in enumerate(
        zip(bundle_truth.solutions, bundle_truth.H, setup.bundle.H)
    ):
        expected.update({f"u_{j}": u, f"H_{j}": h, f"dH_{j}": h - hb})
    for name, field in expected.items():
        a = np.load(out / f"{name}.npy", allow_pickle=False)
        assert a.dtype == np.dtype("<f8") and a.shape == (17, 21) and a.flags.c_contiguous
        assert a.tobytes() == field.values.tobytes()
    assert load_json(out / "grid.json") == grid
    assert Grid(**load_json(out / "grid.json")) == setup.grid
    written = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert {path for path, _ in manifest.outputs} == written
    assert written == {f"{name}.npy" for name in expected} | {
        "grid.json", "scenario.json", "certify.json", "reconstruction.json"
    }


def test_every_json_artifact_goes_through_the_pipeline_dump_json(tmp_path, monkeypatch):
    # a tracer that rebinds umot.pipeline.dump_json and reads the path from
    # the second argument sees every JSON artifact exactly once, and every
    # file that is not a .npy field is one it saw: a write around dump_json
    # leaves a file the wrapper did not see
    calls = []
    dump_json_ = umot.pipeline.dump_json

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return dump_json_(*args, **kwargs)

    monkeypatch.setattr(umot.pipeline, "dump_json", recording)
    grid = {"nx": 24, "ny": 24, "hx": 1 / 23, "hy": 1 / 23}
    spath = _variant(tmp_path, grid=grid, inversion={"path": "constant_bg"})
    out = tmp_path / "run"
    umot.pipeline.run_pipeline(parse_scenario(spath.read_text()), out)
    assert all(len(args) == 2 and not kwargs for args, kwargs in calls)
    seen = [args[1] for args, _ in calls]
    assert sorted(path.name for path in seen) == [
        "certify.json", "grid.json", "manifest.json", "reconstruction.json", "scenario.json"
    ]
    assert all(path.parent == out for path in seen)
    assert {p.name for p in out.iterdir() if p.suffix != ".npy"} == {p.name for p in seen}


def test_nonlinear_pipeline_path(tmp_path):
    scen = json.loads(json.dumps(SCENARIO))
    scen["inversion"] = {"path": "nonlinear", "kmax": 15}
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(scen))
    out = tmp_path / "run"
    rc = main(["pipeline", "--scenario", str(spath), "--out", str(out)])
    assert rc == 0
    rec = load_json(out / "reconstruction.json")
    assert rec["converged"] is True
    assert max(rec["error_vs_truth"]) < 1e-3
    assert (out / "trace.csv").exists()


def test_cgo_pipeline_path(tmp_path):
    scen = json.loads(json.dumps(SCENARIO))
    scen["grid"] = {"nx": 20, "ny": 20, "hx": 1 / 19, "hy": 1 / 19}
    scen["background"] = {"type": "constant", "gamma0": 1.0, "sigma0": 0.2}
    scen["boundary_set"] = {"type": "cgo", "M": 4.0, "k": 1.0}
    scen["phantom"] = {"bumps": [
        {"center": [0.4, 0.45], "radius": 0.2, "amplitude": 0.02, "target": "gamma"}
    ]}
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(scen))
    out = tmp_path / "run"
    assert main(["pipeline", "--scenario", str(spath), "--out", str(out)]) == 0
    rep = load_json(out / "certify.json")
    assert rep["elliptic"] is True
    rec = load_json(out / "reconstruction.json")
    assert len(rec["du"]) == 5
    assert rec["err_dgamma_rel"] < 0.05


def test_noisy_nonlinear_pipeline_keeps_best_iterate(tmp_path):
    # noise makes the target tolerance unreachable; the semi-convergent sweep
    # trips the divergence guard, the stage fails, and the best iterate is
    # still written as an artifact
    scen = json.loads(json.dumps(SCENARIO))
    scen["noise"] = {"level": 0.002, "seed": 31}
    scen["inversion"] = {"path": "nonlinear", "kmax": 20}
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(scen))
    out = tmp_path / "run"
    rc = main(["pipeline", "--scenario", str(spath), "--out", str(out)])
    assert rc != 0
    rec = load_json(out / "reconstruction.json")
    assert rec["diverged"] is True
    assert rec["converged"] is False
    assert max(rec["error_vs_truth"]) < 0.05  # noise-floor reconstruction
    assert not (out / "manifest.json").exists()


def test_noise_pipeline_deterministic(tmp_path):
    scen = json.loads(json.dumps(SCENARIO))
    scen["noise"] = {"level": 0.001, "seed": 99}
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(scen))
    rc1 = main(["pipeline", "--scenario", str(spath), "--out", str(tmp_path / "a")])
    rc2 = main(["pipeline", "--scenario", str(spath), "--out", str(tmp_path / "b")])
    assert rc1 == rc2 == 0
    ma = load_json(tmp_path / "a" / "manifest.json")
    mb = load_json(tmp_path / "b" / "manifest.json")
    assert ma["outputs"] == mb["outputs"]


def _uncertified_run(tmp_path, command):
    """Argv of ``command`` on a scenario whose threshold its margin misses,
    the files that argv names as outputs, and the gate's expected message."""
    spath = _variant(tmp_path, certify={"margin_threshold": 10.0})
    setup = parse_scenario(spath.read_text()).setup
    with pytest.raises(NotElliptic) as refused:
        setup.certificate.require()
    g = setup.grid
    dh_path = tmp_path / "dh.json"
    write_field_list_json([ScalarField.constant(g, 0.0)] * 3, dh_path)
    h_path, init_path = _reconstruct_inputs(tmp_path, list(setup.bundle.H))
    out = tmp_path / "out.json"
    argv, outputs = {
        "certify": (["--report", str(out)], [out]),
        "linearize": (["--dh", str(dh_path), "--out", str(out)], [out]),
        "constbg": (["--dh", str(dh_path), "--out", str(out)], [out]),
        "reconstruct": (
            ["--hmeas", str(h_path), "--init", str(init_path), "--out", str(out),
             "--log", str(tmp_path / "trace.csv")],
            [out, tmp_path / "trace.csv"],
        ),
        "pipeline": (["--out", str(tmp_path / "run")], [tmp_path / "run" / "manifest.json"]),
    }[command]
    return [command, "--scenario", str(spath), *argv], outputs, str(refused.value)


@pytest.mark.parametrize(
    "command", ["certify", "linearize", "constbg", "reconstruct", "pipeline"]
)
def test_uncertified_base_refused_by_every_command(tmp_path, capsys, command):
    # one gate: every subcommand exits 2 with the report's own message, and
    # only certify writes (its report)
    argv, outputs, message = _uncertified_run(tmp_path, command)
    assert "failed certification" in message
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("failed certification") == 1
    if command == "certify":
        assert load_json(outputs[0])["elliptic"] is False
    else:
        assert not any(p.exists() for p in outputs)


@pytest.mark.parametrize("command", ["certify", "reconstruct", "pipeline"])
def test_allow_noncertified_warns_once(tmp_path, command):
    argv, outputs, message = _uncertified_run(tmp_path, command)
    with pytest.warns(UserWarning) as warned:
        assert main([*argv, "--allow-noncertified"]) == 0
    assert [str(w.message) for w in warned] == [message]
    assert all(p.exists() for p in outputs)


@pytest.mark.parametrize(
    "inversion",
    [{"path": "linearized"}, {"path": "nonlinear", "kmax": 4}, {"path": "constant_bg"}],
    ids=lambda inv: inv["path"],
)
def test_pipeline_allow_noncertified_warns_once_on_every_path(tmp_path, inversion):
    spath = _variant(tmp_path, certify={"margin_threshold": 10.0}, inversion=inversion)
    out = tmp_path / "run"
    with pytest.warns(UserWarning) as warned:
        rc = main(
            ["pipeline", "--scenario", str(spath), "--out", str(out), "--allow-noncertified"]
        )
    assert rc == 0
    assert len(warned) == 1 and "failed certification" in str(warned[0].message)
    assert load_json(out / "certify.json")["elliptic"] is False
    assert (out / "manifest.json").exists()


def test_reconstruct_command_refuses_hmeas_on_another_grid(tmp_path, scenario_file, capsys):
    # the init file is on the scenario's 18x18 grid, the functionals on 20x20
    g = Grid(18, 18, 1 / 17, 1 / 17)
    h_path, init_path = _reconstruct_inputs(tmp_path, [ScalarField.constant(g, 1.0)] * 3)
    write_field_list_json([ScalarField.constant(Grid(20, 20, 1 / 19, 1 / 19), 1.0)] * 3, h_path)
    rc = main(
        ["reconstruct", "--scenario", str(scenario_file), "--hmeas", str(h_path),
         "--init", str(init_path), "--out", str(tmp_path / "result.json")]
    )
    assert rc == 1
    assert "measured functional on the wrong grid" in capsys.readouterr().err
    assert not (tmp_path / "result.json").exists()


def test_reconstruct_command_refuses_init_on_another_grid(tmp_path, scenario_file, capsys):
    # the functionals are on the scenario's 18x18 grid, the init file on 20x20
    g = Grid(20, 20, 1 / 19, 1 / 19)
    h_path, init_path = _reconstruct_inputs(tmp_path, [ScalarField.constant(g, 1.0)] * 3)
    write_field_list_json([ScalarField.constant(Grid(18, 18, 1 / 17, 1 / 17), 1.0)] * 3, h_path)
    rc = main(
        ["reconstruct", "--scenario", str(scenario_file), "--hmeas", str(h_path),
         "--init", str(init_path), "--out", str(tmp_path / "result.json")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --init file is on Grid(nx=20, ny=20")
    assert "the scenario on Grid(nx=18, ny=18" in err
    assert not (tmp_path / "result.json").exists()


def _readme_subcommands() -> dict:
    """README's Subcommands block: each flag, True when shown without brackets."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("Subcommands:", 1)[1].split("```")[1].replace("\\\n", " ")
    out = {}
    for line in block.splitlines():
        words = line.split("#", 1)[0].split()
        if words:
            assert words[0] == "umot", line
            flags = re.findall(r"\[(--[\w-]+)[^\]]*\]|(--[\w-]+)", " ".join(words[2:]))
            out[words[1]] = {opt or req: not opt for opt, req in flags}
    return out


def test_readme_subcommands_match_the_parser():
    # every subcommand and flag is in both, and a flag is bracketed in the
    # README exactly when the parser does not require it
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    parsed = {
        name: {a.option_strings[0]: a.required for a in p._actions
               if a.option_strings and not isinstance(a, argparse._HelpAction)}
        for name, p in sub.choices.items()
    }
    assert _readme_subcommands() == parsed
