import json

import pytest

import umot.pipeline
from umot import Grid, ScalarField
from umot.cli import main
from umot.fileio import (
    dump_json,
    field_to_dict,
    load_json,
    read_field_json,
    write_field_list_json,
)
from umot.nonlinear import IterationRecord, ReconstructionResult

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
    assert "H_0.json" in names and "H_0.csv" in names
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


def test_pipeline_rejects_two_direction_set(tmp_path):
    bad = json.loads(json.dumps(SCENARIO))
    bad["boundary_set"]["dirs"] = [[1, 0], [0, 1]]
    spath = tmp_path / "bad.json"
    spath.write_text(json.dumps(bad))
    rc = main(["pipeline", "--scenario", str(spath), "--out", str(tmp_path / "run")])
    assert rc != 0
    # the failing stage kept its prior outputs
    assert (tmp_path / "run" / "scenario.json").exists()
    assert not (tmp_path / "run" / "manifest.json").exists()


def test_forward_and_certify_commands(tmp_path, scenario_file, monkeypatch):
    monkeypatch.setenv("UMOT_LOG", "info")
    out = tmp_path / "fwd"
    assert main(["forward", "--scenario", str(scenario_file), "--out", str(out)]) == 0
    u0 = read_field_json(out / "u_0.json")
    assert u0.grid.nx == 18
    assert (out / "H_2.csv").exists()

    report_path = tmp_path / "report.json"
    rc = main(
        ["certify", "--scenario", str(scenario_file), "--xi-samples", "64",
         "--report", str(report_path)]
    )
    assert rc == 0
    rep = load_json(report_path)
    assert rep["elliptic"] is True
    assert rep["xi_samples"] == 64


def test_linearize_command(tmp_path, scenario_file):
    # build dH with the pipeline, then invert through the standalone command
    out = tmp_path / "run"
    assert main(["pipeline", "--scenario", str(scenario_file), "--out", str(out)]) == 0
    dH = [read_field_json(out / f"dH_{j}.json") for j in range(3)]
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


def test_linearize_command_uses_scenario_threshold(tmp_path, scenario_file):
    # a margin threshold above the bundle's margin must fail certification
    # in the standalone command exactly as it does in the pipeline
    out = tmp_path / "run"
    assert main(["pipeline", "--scenario", str(scenario_file), "--out", str(out)]) == 0
    dh_path = tmp_path / "dh.json"
    write_field_list_json([read_field_json(out / f"dH_{j}.json") for j in range(3)], dh_path)
    strict = json.loads(json.dumps(SCENARIO))
    strict["certify"] = {"margin_threshold": 10.0}
    strict_path = tmp_path / "strict.json"
    strict_path.write_text(json.dumps(strict))
    with pytest.warns(UserWarning, match="failed certification"):
        rc = main(
            ["linearize", "--scenario", str(strict_path), "--dh", str(dh_path),
             "--out", str(tmp_path / "v.json")]
        )
    assert rc == 0


def test_linearize_command_with_normal_data(tmp_path, scenario_file):
    # interior-supported truth has vanishing normal data, so supplying g = 0
    # through the lift route must reproduce the default solve
    out = tmp_path / "run"
    assert main(["pipeline", "--scenario", str(scenario_file), "--out", str(out)]) == 0
    dH = [read_field_json(out / f"dH_{j}.json") for j in range(3)]
    dh_path = tmp_path / "dh.json"
    write_field_list_json(dH, dh_path)
    nb = 4 * 18 - 4
    g_path = tmp_path / "g.json"
    g_path.write_text(json.dumps({"components": [{"values": [0.0] * nb}] * 5}))
    va_path, vb_path = tmp_path / "va.json", tmp_path / "vb.json"
    assert main(
        ["linearize", "--scenario", str(scenario_file), "--dh", str(dh_path),
         "--out", str(va_path)]
    ) == 0
    assert main(
        ["linearize", "--scenario", str(scenario_file), "--dh", str(dh_path),
         "--out", str(vb_path), "--g", str(g_path)]
    ) == 0
    va, vb = load_json(va_path), load_json(vb_path)
    a = va["dgamma"]["values"]
    b = vb["dgamma"]["values"]
    assert max(abs(x - y) for x, y in zip(a, b)) < 1e-10


def test_constbg_command(tmp_path):
    # the standalone command runs the pipeline's constant_bg stage on the
    # same bundle, so the same dH gives the same numbers, bit for bit
    spath = _variant(tmp_path, inversion={"path": "constant_bg"})
    out = tmp_path / "run"
    assert main(["pipeline", "--scenario", str(spath), "--out", str(out)]) == 0
    dh_path = tmp_path / "dh.json"
    write_field_list_json([read_field_json(out / f"dH_{j}.json") for j in range(3)], dh_path)
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


def test_certify_command_rejects_too_few_xi_samples(tmp_path, scenario_file, capsys):
    report_path = tmp_path / "report.json"
    rc = main(
        ["certify", "--scenario", str(scenario_file), "--xi-samples", "8",
         "--report", str(report_path)]
    )
    assert rc == 1
    assert "xi_samples" in capsys.readouterr().err
    assert not report_path.exists()


NB = 4 * 18 - 4  # boundary nodes of the 18x18 scenario grid


@pytest.mark.parametrize(
    "command, n_fields, g_sizes, sigma0, message",
    [
        ("linearize", 2, None, None, "one dH field per solution"),
        ("linearize", 3, [NB] * 2, None, "normal data for each unknown block"),
        ("linearize", 3, [NB] * 4 + [5], None, "boundary"),
        ("constbg", 2, None, None, "one data field per direction"),
        ("reconstruct", 3, None, -0.5, "absorption"),
    ],
)
def test_malformed_input_files_exit_1(
    tmp_path, scenario_file, capsys, command, n_fields, g_sizes, sigma0, message
):
    # a file of the wrong shape or with a value out of range is reported as
    # an error, not a traceback, and no output is written
    g = Grid(18, 18, 1 / 17, 1 / 17)
    fields_path = tmp_path / "fields.json"
    write_field_list_json([ScalarField.constant(g, 0.01)] * n_fields, fields_path)
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
        args += ["--hmeas", str(fields_path), "--init", str(init_path)]
    else:
        args += ["--dh", str(fields_path)]
    if g_sizes is not None:
        g_path = tmp_path / "g.json"
        g_path.write_text(json.dumps({"components": [{"values": [0.0] * n} for n in g_sizes]}))
        args += ["--g", str(g_path)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_reconstruct_command(tmp_path, scenario_file):
    out = tmp_path / "run"
    assert main(["pipeline", "--scenario", str(scenario_file), "--out", str(out)]) == 0
    h_path, init_path = _reconstruct_inputs(
        tmp_path, [read_field_json(out / f"H_{j}.json") for j in range(3)]
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
        tmp_path, [read_field_json(out / f"H_{j}.json") for j in range(3)]
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
    # base is built and certified once, with the scenario's sampling and
    # threshold, and a bundle the certify stage rejects is not passed silently
    import umot.nonlinear

    spath = _variant(
        tmp_path,
        inversion={"path": "nonlinear", "kmax": 2},
        certify={"xi_samples": 128, "margin_threshold": 0.9},
    )
    calls, base_builds = [], []
    for module in (umot.pipeline, umot.nonlinear):

        def recording(bundle, certify=module.certify_field, **kwargs):
            report = certify(bundle, **kwargs)
            calls.append((kwargs["n_xi"], kwargs["margin_threshold"], report.elliptic))
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
    messages = [str(w.message) for w in warned]
    assert any("base bundle margin" in m for m in messages)
    assert any("failed certification" in m for m in messages)
    assert calls == [(128, 0.9, False)]
    assert len(base_builds) == 1


def test_forward_command_writes_pipeline_artifacts(tmp_path):
    # the standalone forward stage writes the pipeline's forward artifacts,
    # noise included, byte for byte
    spath = _variant(tmp_path, noise={"level": 0.002, "seed": 31})
    run, fwd = tmp_path / "run", tmp_path / "fwd"
    assert main(["pipeline", "--scenario", str(spath), "--out", str(run)]) == 0
    assert main(["forward", "--scenario", str(spath), "--out", str(fwd)]) == 0
    for j in range(3):
        assert (fwd / f"H_{j}.json").read_bytes() == (run / f"H_{j}.json").read_bytes()
    stage_only = {"scenario.json", "certify.json", "reconstruction.json", "manifest.json"}
    written = {p.name for p in fwd.iterdir()}
    assert written == {p.name for p in run.iterdir()} - stage_only
    for name in written:
        assert (fwd / name).read_bytes() == (run / name).read_bytes()


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
