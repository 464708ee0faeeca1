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
    run_pipeline,
)
from umot.fileio import (
    dump_json,
    field_from_dict,
    field_to_dict,
    load_json,
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


@pytest.mark.parametrize("level", [float("nan"), float("inf")])
def test_noise_level_must_be_finite(level):
    H = ScalarField.constant(Grid.unit_square(9), 2.0)
    with pytest.raises(ValueError, match="noise level must be a finite number"):
        add_noise(H, level, 1)


def test_field_json_round_trip(tmp_path):
    g = Grid(9, 7, 0.1, 0.2, x0=-0.3, y0=1.0)
    rng = np.random.default_rng(0)
    f = ScalarField(g, rng.standard_normal(g.n_nodes))
    path = tmp_path / "f.json"
    write_field_json(f, path)
    f2 = field_from_dict(load_json(path))
    assert f2.grid == g
    assert np.array_equal(f2.values, f.values)


@pytest.mark.parametrize("count", ["nx", "ny"])
def test_field_file_with_fractional_node_count_is_refused(tmp_path, count):
    # the node count reaches Grid as written, so 7.9 is not read as 7
    g = Grid(9, 7, 0.1, 0.2)
    path = tmp_path / "f.json"
    write_field_json(ScalarField.constant(g, 1.0), path)
    d = json.loads(path.read_text())
    d[count] += 0.9
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError, match="integers"):
        field_from_dict(load_json(path))


@pytest.mark.parametrize("bad", ["1.5", True, None, pytest.param(10**400, id="401-digits")])
def test_field_file_holding_a_non_number_is_refused(tmp_path, bad):
    # float() would read "1.5" as 1.5 and True as 1.0, and cannot convert
    # 10^400: a value must be a JSON number, and the refusal echoes it shortened
    g = Grid(9, 7, 0.1, 0.2)
    d = field_to_dict(ScalarField.constant(g, 1.0))
    d["values"][5] = bad
    with pytest.raises(ValueError, match=r"field key 'values' must hold numbers, got") as info:
        field_from_dict(d)
    assert len(str(info.value)) < 120


def test_explicit_boundary_file_holding_a_string_is_refused_at_parse(tmp_path):
    g = Grid(16, 16, 1 / 15, 1 / 15)
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps({"values": [1.0] * g.n_boundary}))
    bad.write_text(json.dumps({"values": [1.0] * (g.n_boundary - 1) + ["1.5"]}))
    scen = json.loads(json.dumps(SCENARIO))
    scen["boundary_set"] = {"type": "explicit", "files": [str(good), str(good), str(bad)]}
    with pytest.raises(ScenarioError, match="boundary file key 'values' must hold numbers"):
        parse_scenario(json.dumps(scen))


def test_field_csv_round_trip(tmp_path):
    g = Grid(6, 5, 0.25, 0.5)
    rng = np.random.default_rng(1)
    f = ScalarField(g, rng.standard_normal(g.n_nodes))
    path = tmp_path / "f.csv"
    write_field_csv(f, path, write_field_json(f, tmp_path / "f.json"))
    header, *rows = path.read_text().splitlines()
    assert header == "x,y,value"
    x, y, values = np.array([[float(c) for c in r.split(",")] for r in rows]).T
    X, Y = g.coords()
    assert np.array_equal(x, X) and np.array_equal(y, Y)
    assert np.array_equal(values, f.values)


def _reference_csv(f: ScalarField) -> str:
    X, Y = f.grid.coords()
    lines = ["x,y,value"]
    lines.extend(
        f"{float(x)!r},{float(y)!r},{float(v)!r}" for x, y, v in zip(X, Y, f.values)
    )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "grid",
    [
        Grid(9, 6, 0.1, 0.3, x0=-1.7, y0=2.25),  # non-square, nonzero origin
        Grid(7, 5, 2, 0.5, x0=3),  # integer spacing and origin, which Grid keeps as given
    ],
    ids=["non-square-origin", "integer-hx-x0"],
)
def test_field_writers_match_reference_bytes(tmp_path, grid):
    # the JSON writer is json.dumps on one line; the CSV mirror writes each
    # value's repr per node
    rng = np.random.default_rng(2)
    values = rng.standard_normal(grid.n_nodes) * 10.0 ** rng.integers(-30, 30, grid.n_nodes)
    values[:5] = [-0.0, 5e-324, 1e-05, 1e300, 2.0]
    f = ScalarField(grid, values)
    jpath, cpath = tmp_path / "f.json", tmp_path / "f.csv"
    strings = write_field_json(f, jpath)
    reference = json.dumps(field_to_dict(f), sort_keys=True) + "\n"
    assert ('"hx": 2,' in reference) == isinstance(grid.hx, int)
    assert jpath.read_text() == reference
    write_field_csv(f, cpath, strings)
    assert cpath.read_text() == _reference_csv(f)


def test_dump_json_matches_json_bytes(tmp_path):
    # one line of json.dumps with sorted keys, whatever the object holds:
    # float lists, NaN and inf, tuples, empty containers, control characters
    rng = np.random.default_rng(8)
    long = (rng.standard_normal(40) * 10.0 ** rng.integers(-30, 30, 40)).tolist()
    long[:4] = [-0.0, 5e-324, 1e-05, 2.0]
    obj = {
        "b": long,
        "a": {"x": {"y": [long, {"z": long[:20]}], "empty": []}, "short": long[:3]},
        "ints": list(range(30)),
        "mixed": long[:20] + [1],
        "tuple": tuple(long[:16]),
        "nonfinite": long[:20] + [float("nan"), float("inf"), -float("inf")],
        "scalar": 0.1,
        "name": "\u0000 not a placeholder",
    }
    # a string that json escapes as "\\u0000" followed by a digit
    trap = {"b": long, "s": "\u00000"}
    for o in (obj, long, [obj, [long]], {}, [], trap):
        dump_json(o, tmp_path / "o.json")
        assert (tmp_path / "o.json").read_text() == json.dumps(o, sort_keys=True) + "\n"


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


def test_scenario_parse_and_serialize_idempotent(tmp_path):
    config = parse_scenario(json.dumps(SCENARIO))
    path = tmp_path / "scenario.json"
    dump_json(config.to_dict(), path)
    config2 = parse_scenario(path.read_text())
    assert config2.to_dict() == config.to_dict()
    dump_json(config2.to_dict(), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
    assert config_digest(config) == config_digest(config2)


def test_scenario_writes_back_what_was_parsed(tmp_path):
    # the parsed scenario owns its canonical object: changing the input dict
    # or a to_dict result afterwards changes nothing it writes
    scen = json.loads(json.dumps(SCENARIO))
    config = parse_scenario(scen)
    before = config.to_dict()
    dump_json(before, tmp_path / "before.json")
    scen["boundary_set"]["dirs"][0][0] = 5
    config.to_dict()["boundary_set"]["dirs"][1][1] = 5
    dump_json(config.to_dict(), tmp_path / "after.json")
    assert (tmp_path / "after.json").read_bytes() == (tmp_path / "before.json").read_bytes()


def test_config_digest_is_pinned(tmp_path):
    # the manifest's config_digest hashes the canonical scenario; a change to
    # what parsing writes back, or to how it is hashed, moves this value
    digest = "e60298dda8cb84d6b84b787784d48b361205cd338d1a9609c7b07c6501cf3444"
    config = parse_scenario(json.dumps(SCENARIO))
    assert config_digest(config) == digest
    assert run_pipeline(config, tmp_path / "run").config_digest == digest
    assert load_json(tmp_path / "run" / "scenario.json") == config.to_dict()


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


NAN, INF = float("nan"), float("inf")  # json writes them as the NaN and Infinity tokens
BUMP = {"center": [0.5, 0.5], "radius": 0.2, "amplitude": 0.02, "target": "gamma"}


@pytest.mark.parametrize(
    "section, values, message",
    [
        # the retired frequency sample count is an unknown key, alone or
        # next to a valid threshold
        ("certify", {"xi_samples": 128}, "xi_samples"),
        ("noise", {"level": -0.1, "seed": 3}, "noise level"),
        ("inversion", {"path": "nonlinear", "kmax": -1}, "kmax"),
        ("boundary_set", {"type": "constant_bg", "dirs": [[1, 0, 0], [0, 1, 0]]},
         "2-component"),
        ("boundary_set", {"type": "constant_bg", "dirs": [[1, 0], [0, 0]]}, "nonzero"),
        ("boundary_set", {"type": "constant_bg"}, "boundary_set.dirs"),
        ("inversion", {"path": "nonlinear", "kmax": 1.5}, "kmax"),
        ("certify", {"xi_samples": 64, "margin_threshold": 1e-5}, "xi_samples"),
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
        # the retired solver block is an unknown key of the scenario, with
        # any setting it once held, valid or not, and with the null
        # grad_floor that earlier scenario.json files carry (the full message
        # is pinned in test_cli; a lone "]" is a literal in a regex)
        ("solver", {"forward_tol": 1e-10}, "'solver']"),
        ("solver", {"forward_tol": 1e-11, "grad_floor": 1e-9}, "'solver']"),
        ("solver", {"forward_tol": 0.0}, "'solver']"),
        ("solver", {"forward_tol": NAN}, "'solver']"),
        ("solver", {"normal_tol": 1e-10}, "'solver']"),
        ("solver", {"normal_tol": INF}, "'solver']"),
        ("solver", {"grad_floor": None}, "'solver']"),
        ("solver", {"grad_floor": NAN}, "'solver']"),
        ("certify", {"margin_threshold": -1}, "margin_threshold"),
        ("certify", {"margin_threshold": NAN}, "margin_threshold"),
        ("inversion", {"tol": NAN}, "tol"),
        ("inversion", {"tol": -1.0}, "tol"),
        ("grid", {"nx": 16, "ny": 16, "hx": NAN, "hy": 1 / 15}, "finite"),
        ("grid", {"nx": 16, "ny": 16, "hx": 1 / 15, "hy": NAN}, "finite"),
        ("grid", {"nx": 16, "ny": 16, "hx": 1 / 15, "hy": 1 / 15, "x0": NAN}, "finite"),
        ("grid", {"nx": 16, "ny": 16, "hx": 1 / 15, "hy": 1 / 15, "y0": INF}, "finite"),
        ("phantom", {"bumps": [BUMP | {"radius": NAN}]}, "finite"),
        ("phantom", {"bumps": [BUMP | {"center": [0.5, NAN]}]}, "finite"),
        ("phantom", {"bumps": [BUMP | {"amplitude": NAN}]}, "finite"),
        ("eta", NAN, "eta"),
        ("eta", -INF, "eta"),
        ("phantom", {"bumps": [BUMP | {"center": [0.5, 0.5, 0.5]}]}, "2-component center"),
        # a string, a boolean or null where a number is expected is refused,
        # not converted: "eta": true once ran with eta = 1, a boolean noise
        # level added 100% noise and "gamma0": "1" was written back as a string
        ("eta", True, "scenario.eta must be a number"),
        ("eta", "1", "scenario.eta must be a number"),
        ("eta", None, "scenario.eta must be a number"),
        ("noise", {"level": True, "seed": 1}, "noise.level must be a number"),
        ("noise", {"level": "0.01", "seed": 1}, "noise.level must be a number"),
        ("grid", {"nx": 16, "ny": 16, "hx": "0.0667", "hy": 1 / 15}, "grid.hx"),
        ("grid", {"nx": 16, "ny": 16, "hx": 1 / 15, "hy": True}, "grid.hy"),
        ("grid", {"nx": 16, "ny": 16, "hx": 1 / 15, "hy": 1 / 15, "x0": "0"}, "grid.x0"),
        ("grid", {"nx": 16, "ny": 16, "hx": 1 / 15, "hy": 1 / 15, "y0": False}, "grid.y0"),
        ("background", {"type": "constant", "gamma0": "1", "sigma0": 0.5}, "background.gamma0"),
        ("background", {"type": "constant", "gamma0": 1.0, "sigma0": True}, "background.sigma0"),
        ("boundary_set", {"type": "cgo", "M": "4", "k": 1.0}, "boundary_set.M"),
        ("boundary_set", {"type": "cgo", "M": 4.0, "k": True}, "boundary_set.k"),
        ("boundary_set", {"type": "constant_bg", "dirs": [["1", 0], [0, 1], [1, 1]]},
         "vectors of numbers"),
        ("boundary_set", {"type": "constant_bg", "dirs": [[True, False], [0, 1], [1, 1]]},
         "vectors of numbers"),
        ("boundary_set", {"type": "constant_bg", "dirs": ["10", [0, 1], [1, 1]]},
         "vectors of numbers"),
        ("phantom", {"bumps": [BUMP | {"center": ["0.5", 0.5]}]}, "center must list numbers"),
        ("phantom", {"bumps": [BUMP | {"center": "ab"}]}, "center must list numbers"),
        ("phantom", {"bumps": [BUMP | {"radius": "0.2"}]}, "bump.radius must be a number"),
        ("phantom", {"bumps": [BUMP | {"amplitude": True}]}, "bump.amplitude must be a number"),
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


def test_scenario_setup_is_freed_with_its_config():
    # parsing builds the base point and the config keeps it; the setup holds
    # no reference back, so dropping the config frees the setup and its
    # cached bundle at once.  A config-setup cycle would keep every run's
    # bundle until a full garbage collection.
    import gc
    import weakref

    config = parse_scenario(json.dumps(SCENARIO))
    assert "bundle" not in vars(config.setup)  # parsing builds no bundle
    refs = [weakref.ref(x) for x in (config.setup, config.setup.bundle)]
    assert config.setup.certificate.elliptic
    gc.disable()
    try:
        del config
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_scenario_builds_experiment():
    setup = parse_scenario(json.dumps(SCENARIO)).setup
    assert setup.grid.nx == 16
    assert setup.background.gamma.values[0] == 1.0
    assert setup.truth.gamma.values.max() > 1.0
    assert len(setup.traces) == 3


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
    setup = parse_scenario(json.dumps(scen)).setup
    assert setup.grid == g
    assert np.array_equal(setup.background.gamma.values, gamma.values)
    assert len(setup.traces) == 3
    assert setup.traces[0].values[0] == pytest.approx(1.0)
