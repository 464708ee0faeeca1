import json

import numpy as np
import pytest

from umot import (
    BumpSpec,
    BumpTouchesBoundary,
    Grid,
    ScalarField,
    ScenarioError,
    add_noise,
    generate_phantom,
    parse_scenario,
    serialize_scenario,
)
from umot.fileio import (
    read_field_csv,
    read_field_json,
    write_field_csv,
    write_field_json,
)
from umot.scenario import config_digest


def test_phantom_empty_and_single_bump():
    g = Grid.unit_square(21)
    dg, ds = generate_phantom(g, [])
    assert np.abs(dg.values).max() == 0.0

    bump = BumpSpec((0.5, 0.5), 0.2, 0.07, "gamma")
    dg, ds = generate_phantom(g, [bump])
    assert dg.values.max() == pytest.approx(0.07)  # center lands on a node
    assert np.abs(ds.values).max() == 0.0
    X, Y = g.coords()
    outside = (X - 0.5) ** 2 + (Y - 0.5) ** 2 > 0.2 ** 2
    assert np.abs(dg.values[outside]).max() == 0.0


def test_phantom_disjoint_bumps_add():
    g = Grid.unit_square(21)
    b1 = BumpSpec((0.3, 0.3), 0.12, 0.05, "gamma")
    b2 = BumpSpec((0.7, 0.7), 0.12, 0.03, "gamma")
    dg, _ = generate_phantom(g, [b1, b2])
    d1, _ = generate_phantom(g, [b1])
    d2, _ = generate_phantom(g, [b2])
    assert np.abs(dg.values - d1.values - d2.values).max() == 0.0
    assert (np.abs(d1.values) * np.abs(d2.values)).max() == 0.0


def test_phantom_boundary_guard():
    g = Grid.unit_square(21)
    with pytest.raises(BumpTouchesBoundary):
        generate_phantom(g, [BumpSpec((0.1, 0.5), 0.2, 0.05, "gamma")])
    with pytest.raises(ValueError):
        BumpSpec((0.5, 0.5), 0.2, 0.05, "kappa")


def test_noise_determinism_and_level():
    g = Grid.unit_square(65)
    H = ScalarField.constant(g, 2.0)
    assert add_noise(H, 0.0, 1) is H
    a = add_noise(H, 0.01, 123)
    b = add_noise(H, 0.01, 123)
    assert np.array_equal(a.values, b.values)
    c = add_noise(H, 0.01, 124)
    assert not np.array_equal(a.values, c.values)
    sample_std = np.std(a.values / H.values - 1.0)
    assert abs(sample_std - 0.01) < 0.002


def test_field_json_round_trip(tmp_path):
    g = Grid(9, 7, 0.1, 0.2, x0=-0.3, y0=1.0)
    rng = np.random.default_rng(0)
    f = ScalarField(g, rng.standard_normal(g.n_nodes))
    path = tmp_path / "f.json"
    write_field_json(f, path)
    f2 = read_field_json(path)
    assert f2.grid == g
    assert np.array_equal(f2.values, f.values)


def test_field_csv_round_trip(tmp_path):
    g = Grid(6, 5, 0.25, 0.5)
    rng = np.random.default_rng(1)
    f = ScalarField(g, rng.standard_normal(g.n_nodes))
    path = tmp_path / "f.csv"
    write_field_csv(f, path)
    f2 = read_field_csv(path, g)
    assert np.array_equal(f2.values, f.values)
    header = path.read_text().splitlines()[0]
    assert header == "x,y,value"


SCENARIO = {
    "grid": {"nx": 16, "ny": 16, "hx": 1 / 15, "hy": 1 / 15},
    "eta": 1.0,
    "background": {"type": "constant", "gamma0": 1.0, "sigma0": 0.5},
    "boundary_set": {
        "type": "constant_bg",
        "dirs": [[1, 0], [0, 1], [0.7071067811865476, 0.7071067811865476]],
    },
    "phantom": {
        "bumps": [
            {"center": [0.5, 0.5], "radius": 0.2, "amplitude": 0.02, "target": "gamma"}
        ]
    },
    "noise": {"level": 0.0, "seed": 3},
}


def test_scenario_parse_and_serialize_idempotent():
    config = parse_scenario(json.dumps(SCENARIO))
    text = serialize_scenario(config)
    config2 = parse_scenario(text)
    assert serialize_scenario(config2) == text
    assert config_digest(config) == config_digest(config2)


def test_scenario_rejects_unknown_keys():
    bad = dict(SCENARIO)
    bad["extra"] = 1
    with pytest.raises(ScenarioError):
        parse_scenario(json.dumps(bad))
    bad2 = json.loads(json.dumps(SCENARIO))
    bad2["grid"]["spacing"] = 0.1
    with pytest.raises(ScenarioError):
        parse_scenario(json.dumps(bad2))


def test_scenario_requires_seed_with_noise():
    noisy = json.loads(json.dumps(SCENARIO))
    noisy["noise"] = {"level": 0.01}
    with pytest.raises(ScenarioError):
        parse_scenario(json.dumps(noisy))


BUMP = {"center": [0.5, 0.5], "radius": 0.2, "amplitude": 0.02, "target": "gamma"}


@pytest.mark.parametrize(
    "section, values, message",
    [
        ("certify", {"xi_samples": 8}, "xi_samples"),
        ("noise", {"level": -0.1, "seed": 3}, "noise level"),
        ("inversion", {"path": "nonlinear", "kmax": -1}, "kmax"),
        ("boundary_set", {"type": "constant_bg", "dirs": [[1, 0, 0], [0, 1, 0]]},
         "2-component"),
        ("boundary_set", {"type": "constant_bg", "dirs": [[1, 0], [0, 0]]}, "nonzero"),
        ("boundary_set", {"type": "constant_bg"}, "boundary_set.dirs"),
        ("inversion", {"path": "nonlinear", "kmax": 1.5}, "kmax"),
        ("certify", {"xi_samples": 20.5}, "xi_samples"),
        ("grid", {"nx": 7.5, "ny": 16, "hx": 1 / 15, "hy": 1 / 15}, "integers"),
        ("grid", {"nx": 3, "ny": 16, "hx": 1 / 15, "hy": 1 / 15}, "at least 5"),
        ("grid", {"nx": 16, "ny": 16, "hx": -0.1, "hy": 1 / 15}, "spacings"),
        ("background", {"type": "constant", "gamma0": -1, "sigma0": 0.5}, "diffusion"),
        ("background", {"type": "constant", "gamma0": 1.0, "sigma0": -0.5}, "absorption"),
        ("boundary_set", {"type": "cgo", "M": 0.5, "k": 1.0}, "oscillation strength"),
        ("noise", {"level": 0.0, "seed": "7"}, "seed"),
        ("phantom", {"bumps": [BUMP | {"radius": -0.2}]}, "radius"),
        ("phantom", {"bumps": [BUMP | {"target": "x"}]}, "target"),
        ("phantom", {"bumps": [{"center": [0.5, 0.5], "amplitude": 0.02}]}, "radius"),
        ("phantom", {"bumps": [{"radius": 0.2, "amplitude": 0.02}]}, "center"),
        ("background", {"type": "constant", "sigma0": 0.5}, "gamma0"),
        (("background", "boundary_set"),
         ({"type": "constant", "sigma0": 0.5}, {"type": "cgo", "M": 4.0, "k": 1.0}), "gamma0"),
        (("background", "boundary_set"),
         ({"type": "fields", "gamma_file": "gamma.json"}, {"type": "cgo"}), "sigma_file"),
    ],
)
def test_scenario_rejects_out_of_range_values(section, values, message):
    bad = json.loads(json.dumps(SCENARIO))
    if isinstance(section, tuple):  # several sections replaced together
        bad.update(zip(section, values))
    else:
        bad[section] = values
    with pytest.raises(ScenarioError, match=message):
        parse_scenario(json.dumps(bad))


def test_scenario_builds_experiment():
    config = parse_scenario(json.dumps(SCENARIO))
    g = config.make_grid()
    assert g.nx == 16
    bg = config.make_background(g)
    assert bg.gamma.values[0] == 1.0
    truth = config.make_truth(g, bg)
    assert truth.gamma.values.max() > 1.0
    traces = config.make_traces(g, bg)
    assert len(traces) == 3


def test_scenario_field_background_and_explicit_traces(tmp_path):
    g = Grid(16, 16, 1 / 15, 1 / 15)
    X, _ = g.coords()
    gamma = ScalarField(g, 1.0 + 0.1 * X)
    sigma = ScalarField(g, np.full(g.n_nodes, 0.4))
    write_field_json(gamma, tmp_path / "gamma.json")
    write_field_json(sigma, tmp_path / "sigma.json")
    trace = {"values": list(np.linspace(1.0, 2.0, g.n_boundary))}
    for name in ("f0.json", "f1.json", "f2.json"):
        (tmp_path / name).write_text(json.dumps(trace))

    scen = json.loads(json.dumps(SCENARIO))
    scen["background"] = {
        "type": "fields",
        "gamma_file": str(tmp_path / "gamma.json"),
        "sigma_file": str(tmp_path / "sigma.json"),
    }
    scen["boundary_set"] = {
        "type": "explicit",
        "files": [str(tmp_path / f"f{i}.json") for i in range(3)],
    }
    config = parse_scenario(json.dumps(scen))
    bg = config.make_background(g)
    assert np.array_equal(bg.gamma.values, gamma.values)
    traces = config.make_traces(g, bg)
    assert len(traces) == 3
    assert traces[0].values[0] == pytest.approx(1.0)
