import json
import os

import numpy as np
import pytest

from boundarylab import cli, sde
from boundarylab.config import canonical_json, config_hash, parse_config
from boundarylab.errors import ConfigError

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def load(name):
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        return json.load(fh)


def minimal_classify(**overrides):
    cfg = {
        "version": 1,
        "experiment": "classify",
        "seed": 7,
        "output_dir": "out",
        "model": {"name": "A"},
        "numerics": {"grid_size": 256, "tol": 1e-8},
    }
    cfg.update(overrides)
    return cfg


def test_parse_reserialize_is_fixed_point():
    raw = load("model_d_convergence.json")
    cfg = parse_config(raw)
    again = parse_config(json.loads(canonical_json(cfg.raw)))
    assert again.config_hash == cfg.config_hash
    assert canonical_json(again.raw) == canonical_json(cfg.raw)


def test_all_bundled_configs_validate():
    for name in sorted(os.listdir(CONFIG_DIR)):
        cfg = parse_config(os.path.join(CONFIG_DIR, name))
        assert cfg.experiment in ("classify", "halfcyl", "dirichlet-convergence",
                                  "attraction", "martingale", "timescale")


def test_negative_eps_names_the_field():
    raw = load("model_d_convergence.json")
    raw["numerics"]["eps_list"] = [0.2, -1.0]
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert "eps_list[1]" in str(err.value)


def test_nonpositive_checkpoint_names_the_field():
    raw = load("martingale_a.json")
    for bad in (0.0, -0.15):
        raw["numerics"]["checkpoints"] = [0.15, bad]
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert "numerics.checkpoints[1]" in str(err.value)


def test_seed_is_mandatory():
    cfg = minimal_classify()
    del cfg["seed"]
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert "seed" in str(err.value)


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, "1"])
def test_a_seed_outside_the_stream_keys_is_rejected(seed):
    # every MC stream is keyed by the seed as one 64-bit word
    with pytest.raises(ConfigError) as err:
        parse_config(minimal_classify(seed=seed))
    assert err.value.field == "seed"
    assert parse_config(minimal_classify(seed=2**64 - 1)).seed == 2**64 - 1


def test_unknown_model_and_keys():
    with pytest.raises(ConfigError):
        parse_config(minimal_classify(model={"name": "Z"}))
    with pytest.raises(ConfigError) as err:
        parse_config(minimal_classify(extra_block=1))
    assert "extra_block" in str(err.value)
    with pytest.raises(ConfigError):
        parse_config(minimal_classify(version=2))


def test_chart_model_config():
    cfg = parse_config(minimal_classify(model={"chart": {
        "a": 1.0, "b": 0.0,
        "alpha": {"kind": "cosine", "mean": 1.0, "amp": 0.5},
        "beta": 0.0,
    }}))
    y = np.linspace(0, 2 * np.pi, 8)
    assert np.asarray(cfg.model.alpha(y)) == pytest.approx(1 + 0.5 * np.cos(y))


def test_grid_size_must_be_power_of_two():
    with pytest.raises(ConfigError) as err:
        parse_config(minimal_classify(numerics={"grid_size": 100}))
    assert "grid_size" in str(err.value)


def test_cli_run_writes_artifacts_and_manifest(tmp_path):
    rc = cli.main(["run", os.path.join(CONFIG_DIR, "model_a_convergence.json"),
                   "--output-root", str(tmp_path)])
    assert rc == 0
    out = tmp_path / "model_a_convergence"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool_version"]
    assert manifest["stream_version"] == sde.STREAM_VERSION
    import hashlib

    for art in manifest["artifacts"]:
        digest = hashlib.sha256((out / art["path"]).read_bytes()).hexdigest()
        assert digest == art["sha256"]


def test_cli_determinism_byte_identical(tmp_path):
    cfg = os.path.join(CONFIG_DIR, "classify_tilted.json")
    for sub in ("one", "two"):
        assert cli.main(["run", cfg, "--output-root", str(tmp_path / sub)]) == 0
    for name in ("invariant_measure.csv", "corrector.csv", "classification.json"):
        a = (tmp_path / "one" / "classify_tilted" / name).read_bytes()
        b = (tmp_path / "two" / "classify_tilted" / name).read_bytes()
        assert a == b, name
    m1 = json.loads((tmp_path / "one" / "classify_tilted" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "two" / "classify_tilted" / "manifest.json").read_text())
    m1.pop("wall_clock_seconds")
    m2.pop("wall_clock_seconds")
    assert m1 == m2


def test_cli_validate_and_errors(tmp_path, capsys):
    assert cli.main(["validate",
                     os.path.join(CONFIG_DIR, "martingale_a.json")]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(minimal_classify(seed=-1)))
    assert cli.main(["validate", str(bad)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["type"] == "ConfigError"
    assert err["error"]["field"] == "seed"
    assert cli.main(["run", "/does/not/exist.json"]) == 1


# (config, key, malformed value, JSON path the ConfigError names); the key is a
# numerics key unless the config has it at the top level
MALFORMED = [
    ("martingale_a.json", "band", [None, 25.0], "numerics.band[0]"),
    ("martingale_a.json", "band", ["x", 25.0], "numerics.band[0]"),
    ("martingale_a.json", "start", [0.0, None], "numerics.start[1]"),
    ("attraction_a.json", "starts", [[True, 0.5]], "numerics.starts[0][0]"),
    ("model_d_convergence.json", "probes", [[0.0, "0"]], "numerics.probes[0][1]"),
    ("model_d_convergence.json", "both_completions", "false", "numerics.both_completions"),
    ("halfcyl_model_d.json", "levels", ["x"], "numerics.levels[0]"),
    ("halfcyl_model_d.json", "data", {"kind": "bogus"}, "numerics.data"),
    ("timescale_a.json", "start", [False, 0.0], "numerics.start[0]"),
    ("timescale_a.json", "g", {"kind": "cosine", "mean": 0.0, "amp": 1.0}, "numerics.g"),
    # json.dumps writes these as the literals NaN and Infinity, which json.load reads
    ("model_d_convergence.json", "probes", [[float("nan"), 0.0]], "numerics.probes[0][0]"),
    ("halfcyl_model_d.json", "data", {"kind": "const", "c": float("inf")}, "numerics.data.c"),
    ("classify_tilted.json", "model", {"chart": {
        "a": 1.0, "b": 0.0, "beta": 0.0,
        "alpha": {"kind": "fourier", "constant": 1.0, "terms": [[1, "x", 0.0]]}}},
     "model.chart.alpha.terms[0][1]"),
    ("classify_tilted.json", "model", {"chart": {
        "a": 1.0, "b": 0.0, "beta": 0.0,
        "alpha": {"kind": "fourier", "constant": 1.0, "terms": [[10**400, 1.0, 0.0]]}}},
     "model.chart.alpha.terms[0]"),
    # a key no validator reads, misspelt or not, is an error, not a default in disguise
    ("model_d_convergence.json", "n_thetaa", 1.0, "numerics.n_thetaa"),
    ("halfcyl_model_d.json", "typo_key", float("inf"), "numerics.typo_key"),
    ("timescale_a.json", "rules", [{"name": float("nan"), "kind": "const", "c": 0.5}],
     "numerics.rules[0].name"),
    ("timescale_a.json", "rules", [{"name": "x", "kind": "const", "c": 0.5, "q": 1.0}],
     "numerics.rules[0].q"),
    ("halfcyl_model_d.json", "grid", {"n_y": 32, "n_zz": 100}, "numerics.grid.n_zz"),
    ("attraction_a.json", "mc", {"dt": 0.005, "n_paths": 8, "max_time": 1.0, "seed": 1},
     "numerics.mc.seed"),
    ("classify_tilted.json", "model", {"chart": {
        "a": 1.0, "b": 0.0, "beta": 0.0, "alpha": 1.0, "dd": 0.5}}, "model.chart.dd"),
    ("classify_tilted.json", "model", {"chart": {
        "a": 1.0, "b": 0.0, "beta": 0.0, "alpha": 1.0, "name": float("nan")}},
     "model.chart.name"),
    # a point outside the closed domain, and an attraction start outside [0, far_wall]
    ("model_d_convergence.json", "probes", [[0.0, 0.0], [1.5, 0.0]], "numerics.probes[1]"),
    ("timescale_a.json", "start", [0.0, -1.2], "numerics.start"),
    ("attraction_a.json", "starts", [[0.0, -1.0]], "numerics.starts[0]"),
    ("attraction_a.json", "starts", [[0.0, 0.3], [0.0, 60.0]], "numerics.starts[1]"),
    # the run joins output_dir to its output root: nothing may lead out of that root
    ("classify_tilted.json", "output_dir", "/tmp/elsewhere", "output_dir"),
    ("classify_tilted.json", "output_dir", "../../elsewhere", "output_dir"),
    ("classify_tilted.json", "output_dir", "runs/../../elsewhere", "output_dir"),
    ("classify_tilted.json", "output_dir", "runs\\..\\..", "output_dir"),
    # what ChartModel and the martingale sampler reject, named where the config says it
    ("classify_tilted.json", "model", {"chart": {
        "a": -1.0, "b": 0.0, "beta": 0.0, "alpha": 1.0}}, "model.chart"),
    ("classify_tilted.json", "model", {"chart": {
        "a": 1.0, "b": 0.0, "beta": 0.0, "alpha": {"kind": "cosine", "mean": 0.2, "amp": 0.5}}},
     "model.chart"),
    ("martingale_a.json", "start", [0.0, 30.0], "numerics.start"),
    ("martingale_a.json", "checkpoints", [0.15, 0.3005], "numerics.checkpoints"),
]


@pytest.mark.parametrize("name, key, value, field", MALFORMED)
def test_validate_rejects_what_run_would_reject(tmp_path, capsys, name, key, value, field):
    raw = load(name)
    (raw if key in raw else raw["numerics"])[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["validate", str(path)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["type"] == "ConfigError"
    assert err["error"]["field"] == field


def test_a_start_in_the_annulus_hole_names_the_field():
    raw = load("timescale_a.json")
    raw["domain"] = {"kind": "annulus", "inner_radius": 0.3, "chart_radius": 0.3}
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.field == "numerics.start"
    raw["numerics"]["start"] = [0.5, 0.0]
    parse_config(raw)


def test_domain_block_rejects_a_key_it_does_not_read():
    domain = {"kind": "annulus", "inner_radius": 0.3, "chart_radius": 0.3, "outer": 1.0}
    with pytest.raises(ConfigError) as err:
        parse_config(minimal_classify(domain=domain))
    assert err.value.field == "domain.outer"


def test_geometric_grid_past_its_height_is_a_config_error(tmp_path, capsys):
    # 100 steps of at least dz0 = 1 cannot end at height 50: caught before any run
    raw = load("halfcyl_model_d.json")
    raw["numerics"]["grid"] = {"n_y": 32, "n_z": 100, "height": 50, "dz0": 1}
    path = tmp_path / "tall_steps.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["validate", str(path)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["type"] == "ConfigError"
    assert err["error"]["field"] == "numerics.grid"
    assert "dz0 * n_z" in err["error"]["message"]
    assert cli.main(["run", str(path), "--output-root", str(tmp_path / "runs")]) == 1
    assert not (tmp_path / "runs").exists()


def test_cli_runtime_error_exit_code(tmp_path, capsys):
    # valid config whose run fails: Monte Carlo with no exits in max_time
    cfg = {
        "version": 1,
        "experiment": "dirichlet-convergence",
        "seed": 3,
        "output_dir": "x",
        "model": {"name": "A"},
        "numerics": {
            "eps_list": [0.4, 0.2],
            "probes": [[0.0, 0.0]],
            "data": {"kind": "const", "c": 1.0},
            "mc": {"dt": 0.002, "n_paths": 4, "max_time": 0.002},
        },
    }
    path = tmp_path / "doomed.json"
    path.write_text(json.dumps(cfg))
    rc = cli.main(["run", str(path), "--output-root", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["type"] == "NoConvergence"


def test_cli_list_models(capsys):
    assert cli.main(["list-models"]) == 0
    out = capsys.readouterr().out
    assert "A" in out and "attracting" in out
    assert "B" in out and "repelling" in out
    assert "C" in out and "neutral" in out


def test_env_var_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("BOUNDARYLAB_OUTPUT_ROOT", str(tmp_path))
    rc = cli.main(["run", os.path.join(CONFIG_DIR, "model_a_convergence.json")])
    assert rc == 0
    assert (tmp_path / "model_a_convergence" / "convergence.csv").exists()
