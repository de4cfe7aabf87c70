import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from svcache import EstimatorResult, cli, experiments
from svcache.config import (
    ConfigError,
    SweepSpec,
    default_config,
    load_config,
    parse_config_text,
    parse_sweep_flag,
    render_default_template,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

FAST_OVERRIDES = {
    "sim.trials": 2000,
    "sim.master_seed": 321,
    "optimizer.max_iterations": 15,
}


# ---------------------------------------------------------------------------
# config parsing and validation
# ---------------------------------------------------------------------------

def test_defaults_build(lib):
    cfg = default_config()
    assert cfg.library.file_count == 20
    assert cfg.library.layer_count == 2
    assert cfg.radio.sir_threshold == pytest.approx(10**0.5)
    assert cfg.geometry.mbs.serving_radius == math.inf
    assert cfg.budgets.m_d == 200e6
    assert cfg.sweep is None


def test_template_roundtrips_to_defaults():
    raw = parse_config_text(render_default_template())
    assert raw == default_config().resolved


def test_committed_template_matches_package():
    committed = (REPO_ROOT / "configs" / "default.cfg").read_text()
    assert parse_config_text(committed) == default_config().resolved


def test_config_file_loading(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("content.file_count = 5\nradio.sir_threshold_db = 3\n"
                    "# a comment\nsweep.variable = content.skewness\n"
                    "sweep.start = 0.5\nsweep.stop = 1.5\nsweep.steps = 3\n")
    cfg = load_config(path)
    assert cfg.library.file_count == 5
    assert cfg.sweep.variable == "content.skewness"
    assert list(cfg.sweep.values()) == [0.5, 1.0, 1.5]


@pytest.mark.parametrize("line,field", [
    ("content.layer_count = 1", "layer_count"),
    ("tiers.d2d.pathloss = 2.0", "pathloss"),
    ("tiers.sbs.radius_m = 5", "radius_m"),  # below the d2d radius
    ("radio.bandwidth_mbs_hz = -1", "bandwidth_mbs_hz"),
    ("budgets.d2d_bits = 0", "d2d_bits"),
    ("sim.window_multiplier = 1", "window_multiplier"),
    ("nonsense.key = 1", "nonsense.key"),
    ("sweep.variable = radio.nope", "sweep.variable"),
    ("content.file_count = abc", "file_count"),
    ("content.skewness = nan", "skewness"),
    ("content.plateau = inf", "plateau"),
    ("sim.window_multiplier = nan", "window_multiplier"),
    ("sim.master_seed = -1", "master_seed"),
    ("optimizer.initial_policy = greedy", "initial_policy"),
    ("radio.sir_threshold_db = nan", "sir_threshold_db"),
    ("radio.sir_threshold_db = inf", "sir_threshold_db"),
    ("radio.sir_threshold_db = 4000", "sir_threshold_db"),
    ("radio.sir_threshold_db = -4000", "sir_threshold_db"),
    ("tiers.d2d.pathloss = nan", "pathloss"),
    ("tiers.mbs.pathloss = inf", "pathloss"),
    ("optimizer.fd_step = 1e-6", "optimizer.fd_step"),
    ("sim.mbs_region_radius_m = -5", "sim.mbs_region_radius_m"),
    ("sim.mbs_region_radius_m = 0", "sim.mbs_region_radius_m"),
    ("sim.mbs_region_radius_m = nan", "sim.mbs_region_radius_m"),
    ("sim.mbs_region_radius_m = inf", "sim.mbs_region_radius_m"),
    ("sim.mbs_region_radius_m = abc", "sim.mbs_region_radius_m"),
    ("optimizer.max_iterations = 0", "optimizer.max_iterations"),
    ("tiers.sbs.radius_m = inf", "tiers.sbs.radius_m"),
    ("content.layer_size_bits = inf", "content.layer_size_bits"),
    ("tiers.d2d.density = inf", "tiers.d2d.density"),
    ("budgets.sbs_bits = 0", "budgets.sbs_bits"),
    ("radio.backhaul_rate_bps = inf", "radio.backhaul_rate_bps"),
    ("radio.bandwidth_d2d_hz = inf", "radio.bandwidth_d2d_hz"),
    ("optimizer.convergence_tol_s = inf", "optimizer.convergence_tol_s"),
    ("budgets.d2d_bits = inf", "budgets.d2d_bits"),
    ("budgets.sbs_bits = inf", "budgets.sbs_bits"),
    ("content.skewness = abc", "content.skewness"),
    ("content.skewness 1.0", "line 1"),
    ("sweep.start = abc", "sweep.start"),
    ("sweep.steps = 2.5", "sweep.steps"),
])
def test_config_errors_name_the_field(tmp_path, line, field):
    path = tmp_path / "bad.cfg"
    extra = ""
    if line.startswith("sweep."):  # a valid sweep, less the key the line sets
        sweep = {"sweep.variable": "content.skewness", "sweep.start": 0,
                 "sweep.stop": 1, "sweep.steps": 2}
        sweep.pop(line.split(" = ")[0])
        extra = "".join(f"{key} = {value}\n" for key, value in sweep.items())
    path.write_text(extra + line + "\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert field.split(".")[-1] in str(err.value)


def test_config_key_given_twice_names_both_lines():
    text = "budgets.d2d_bits = 1e8\n# a comment\nbudgets.d2d_bits = 3e8\n"
    with pytest.raises(ConfigError, match="^line 3: 'budgets.d2d_bits' is already set on line 1$"):
        parse_config_text(text)


def test_hash_inside_a_value_is_not_a_comment():
    raw = parse_config_text("output.path = runs/a#b.csv   # trailing note\n"
                            "  # indented comment\n"
                            "sim.trials = 500\t# after a tab\n")
    assert raw["output.path"] == "runs/a#b.csv"
    assert raw["sim.trials"] == 500
    assert default_config().hash() == "9263891552252f5f"


def test_config_hash_stable_and_sensitive():
    a = default_config()
    b = default_config()
    c = default_config(**{"radio.sir_threshold_db": 6.0})
    assert a.hash() == b.hash()
    assert a.hash() != c.hash()


def test_with_values_rejects_unknown_key():
    with pytest.raises(ConfigError):
        default_config().with_values(**{"radio.unknown": 1.0})


def test_parse_sweep_flag():
    spec = parse_sweep_flag("budgets.d2d_bits=1e8:3e8:5")
    assert spec.variable == "budgets.d2d_bits"
    assert spec.steps == 5
    with pytest.raises(ConfigError):
        parse_sweep_flag("budgets.d2d_bits=1:2")
    with pytest.raises(ConfigError):
        parse_sweep_flag("bogus=1:2:3")
    with pytest.raises(ConfigError, match="^sweep.start: start must be a finite"):
        parse_sweep_flag("content.skewness=nan:1:3")
    with pytest.raises(ConfigError, match="^sweep.stop: stop must be a finite"):
        parse_sweep_flag("content.skewness=0:-inf:3")
    with pytest.raises(ValueError, match="^variable"):
        SweepSpec("radio.nope", 0, 1, 2)
    with pytest.raises(ValueError, match="^steps"):
        SweepSpec("budgets.d2d_bits", 0, 1, 0)


@pytest.mark.parametrize("steps", [2.5, True, np.float64(3.0)], ids=["half", "bool", "numpy-float"])
def test_sweep_steps_must_be_an_integer(steps):
    with pytest.raises(ValueError, match="^steps must be an integer"):
        SweepSpec("budgets.d2d_bits", 0, 1, steps)
    sweep = {"sweep.variable": "content.skewness", "sweep.start": 0.0, "sweep.stop": 1.0}
    with pytest.raises(ConfigError, match="^sweep.steps: steps must be an integer"):
        default_config(**sweep, **{"sweep.steps": steps})
    # text is parsed, so the CLI flag, a config file and an override agree
    assert default_config(**sweep, **{"sweep.steps": "3"}).sweep.steps == 3
    assert parse_sweep_flag("content.skewness=0:1:3").steps == 3
    with pytest.raises(ConfigError, match="bad sweep spec"):
        parse_sweep_flag(f"content.skewness=0:1:{steps}")


@pytest.mark.parametrize("field, bound", [("start", math.nan), ("start", True),
                                          ("stop", math.inf), ("stop", None)],
                         ids=["nan-start", "bool-start", "inf-stop", "none-stop"])
def test_sweep_bounds_must_be_finite_numbers(field, bound):
    bounds = {"start": 0.0, "stop": 1.0, field: bound}
    with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
        SweepSpec("content.skewness", bounds["start"], bounds["stop"], 3)
    # an override reaches SweepSpec unconverted: True is not read as 1.0
    sweep = {"sweep.variable": "content.skewness", "sweep.steps": 3,
             **{f"sweep.{key}": value for key, value in bounds.items()}}
    with pytest.raises(ConfigError, match=f"^sweep.{field}: {field} must be a finite"):
        default_config(**sweep)


@pytest.mark.filterwarnings("error")
def test_cli_sweep_with_an_infinite_stop_is_a_config_error(capsys):
    assert cli.main(["optimize", "--sweep", "content.skewness=0:inf:2"]) == 2
    assert "config error: sweep.stop: " in capsys.readouterr().err


@pytest.mark.parametrize("count", [3.0, True], ids=["float", "bool"])
def test_catalog_counts_must_be_integers(count):
    for key in ("content.file_count", "content.layer_count"):
        with pytest.raises(ConfigError, match=f"^{key}: {key.split('.')[1]} must be an integer"):
            default_config(**{key: count})


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

def test_validation_rows_have_na_at_zero(monkeypatch):
    cfg = default_config(**FAST_OVERRIDES)
    rows, ok = experiments.run_probability_validation(cfg)
    zero_rows = [r for r in rows if r["value"] == 0.0 and "p_" in r["sweep_var"]]
    assert zero_rows and all(r["mc_mean"] == "na" for r in zero_rows)
    assert zero_rows and all(r["analytic"] == 0.0 for r in zero_rows)
    families = {r["sweep_var"] for r in rows}
    assert "p_d2d_nearest_cached" in families
    assert "p_sbs_cache_tier" in families
    assert "theta_db_mbs" in families


def test_validation_gate_fails_on_a_far_off_estimate(monkeypatch):
    def far_off(density, pathloss, theta, sim):
        return EstimatorResult(mean=0.0, stderr=1e-3, trials_used=sim.trials)

    monkeypatch.setattr(experiments, "mc_stp_mbs", far_off)
    rows, ok = experiments.run_probability_validation(default_config(**FAST_OVERRIDES))
    assert [r["mc_mean"] for r in rows if r["sweep_var"] == "theta_db_mbs"] == [0.0] * 5
    assert not ok


def test_delay_surface_corner_and_monotonicity():
    cfg = default_config(**FAST_OVERRIDES)
    rows = experiments.run_delay_surface(cfg, grid_points=5)
    assert len(rows) == 25
    from svcache import all_miss_delay
    corner = next(r for r in rows if r["p_d"] == 0.0 and r["p_s"] == 0.0)
    assert corner["delay_s"] == pytest.approx(
        all_miss_delay(cfg.library, cfg.geometry, cfg.radio), abs=1e-12)
    # non-increasing along each axis
    grid = {}
    for r in rows:
        grid[(r["p_d"], r["p_s"])] = r["delay_s"]
    values = sorted({k[0] for k in grid})
    for fixed in values:
        col = [grid[(fixed, v)] for v in values]
        row = [grid[(v, fixed)] for v in values]
        assert all(np.diff(col) <= 1e-15)
        assert all(np.diff(row) <= 1e-15)


def test_delay_surface_full_grid_is_fast():
    import time
    cfg = default_config()
    start = time.monotonic()
    rows = experiments.run_delay_surface(cfg, grid_points=21)
    assert len(rows) == 441
    assert time.monotonic() - start < 60.0


def test_convergence_rows_shape():
    cfg = default_config(**FAST_OVERRIDES)
    rows = experiments.run_convergence(cfg, theta_dbs=(5.0,))
    assert rows[0]["iteration"] == 0
    assert rows[0]["step_size"] == "na"
    assert rows[1]["step_size"] == 1.0
    assert rows[-1]["iteration"] == len(rows) - 1
    trajectory = [r["delay_s"] for r in rows]
    assert min(trajectory) == trajectory[-1] or min(trajectory) <= trajectory[0]


def test_baseline_rows(tmp_path):
    cfg = default_config(**FAST_OVERRIDES)
    rows, policies = experiments.run_baselines(cfg)
    names = [r["policy"] for r in rows]
    assert names == ["mpcp", "epcp", "icp", "all_miss"]
    assert all(r["feasible"] for r in rows)
    assert set(policies) == {"mpcp", "epcp", "icp"}


# ---------------------------------------------------------------------------
# CLI contract
# ---------------------------------------------------------------------------

def test_cli_delay_surface_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["delay-surface", "--grid-points", "4", "--seed", "5"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header.startswith("# config_hash=") and "master_seed=5" in header


def test_cli_validate_passes_at_moderate_trials(tmp_path):
    out = tmp_path / "validate.csv"
    code = cli.main(["validate", "--trials", "4000", "--seed", "20260809",
                     "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1].split(",") == list(experiments.VALIDATE_FIELDS)
    assert len(lines) > 30


def test_cli_validate_rejects_a_single_trial(tmp_path, capsys):
    # one trial has no standard error: a config error, not a gate failure
    out = tmp_path / "validate.csv"
    assert cli.main(["validate", "--trials", "1", "--out", str(out)]) == 2
    assert "config error: sim.trials:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_validate_gate_failure(monkeypatch, tmp_path, capsys):
    rows = [{"sweep_var": "p_d2d_cache_tier", "value": 0.5,
             "analytic": 0.5, "mc_mean": 0.4, "mc_stderr": 0.001,
             "trials": 100},
            {"sweep_var": "p_sbs_cache_tier", "value": 0.7,
             "analytic": 0.5, "mc_mean": 0.501, "mc_stderr": 0.001,
             "trials": 100},
            {"sweep_var": "theta_db_mbs", "value": 9.0,
             "analytic": 0.2, "mc_mean": 0.25, "mc_stderr": 0.0,
             "trials": 100}]

    def biased(cfg):
        return rows, False

    monkeypatch.setattr(experiments, "run_probability_validation", biased)
    out = tmp_path / "x.csv"
    code = cli.main(["validate", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "3 standard errors" in err
    # each failing row is named with its z-score; the passing row is not
    assert "p_d2d_cache_tier = 0.5: z = +100.00" in err
    assert "theta_db_mbs = 9: z = -inf" in err
    assert "p_sbs_cache_tier" not in err
    # the message goes to stderr only: the CSV is the rows as rendered
    expected = experiments.render_csv(experiments.VALIDATE_FIELDS, rows,
                                      default_config())
    assert out.read_text() == expected


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("content.layer_count = 1\n")
    code = cli.main(["validate", "--config", str(bad)])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert cli.main(["validate", "--config", str(tmp_path / "missing.cfg")]) == 2
    capsys.readouterr()
    assert cli.main(["validate", "--seed", "-1"]) == 2
    assert "master_seed" in capsys.readouterr().err
    for points in ("0", "-1"):
        assert cli.main(["delay-surface", "--grid-points", points,
                         "--out", str(tmp_path / "surface.csv")]) == 2
        assert "--grid-points" in capsys.readouterr().err
    assert not (tmp_path / "surface.csv").exists()
    for line in ("optimizer.max_iterations = 0", "tiers.sbs.radius_m = inf",
                 "content.layer_size_bits = inf", "tiers.d2d.density = inf",
                 "radio.backhaul_rate_bps = inf", "radio.bandwidth_d2d_hz = inf",
                 "optimizer.convergence_tol_s = inf", "budgets.d2d_bits = inf",
                 "budgets.sbs_bits = inf", "content.skewness = abc"):
        bad.write_text(line + "\n")
        assert cli.main(["validate", "--config", str(bad)]) == 2
        assert f"config error: {line.split(' = ')[0]}: " in capsys.readouterr().err
    for text, named in (("content.skewness 1.0\n", "line 1: "),
                        ("sweep.variable = content.skewness\nsweep.start = abc\n",
                         "sweep.start/")):
        bad.write_text(text)
        assert cli.main(["convergence", "--config", str(bad)]) == 2
        assert f"config error: {named}" in capsys.readouterr().err


def test_cli_optimize_with_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    cfgfile = tmp_path / "fast.cfg"
    cfgfile.write_text("sim.trials = 500\noptimizer.max_iterations = 5\n")
    code = cli.main(["optimize", "--config", str(cfgfile),
                     "--sweep", "radio.sir_threshold_db=3:7:3",
                     "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1].split(",") == list(experiments.COMPARE_FIELDS)
    assert len(lines) == 2 + 3


def test_cli_baselines_writes_policies(tmp_path):
    out = tmp_path / "base.csv"
    policy_dir = tmp_path / "policies"
    cfgfile = tmp_path / "fast.cfg"
    cfgfile.write_text("optimizer.max_iterations = 3\n")
    code = cli.main(["baselines", "--config", str(cfgfile), "--out", str(out),
                     "--policy-dir", str(policy_dir)])
    assert code == 0
    assert sorted(p.name for p in policy_dir.iterdir()) == [
        "epcp.policy", "icp.policy", "mpcp.policy"]
    from svcache import load_policy
    loaded = load_policy(policy_dir / "mpcp.policy")
    assert loaded.shape == (20, 2)


def test_cli_output_path_is_the_fallback_for_out(tmp_path, capsys):
    from_config, from_flag = tmp_path / "config.csv", tmp_path / "flag.csv"
    cfgfile = tmp_path / "out.cfg"
    cfgfile.write_text(f"output.path = {from_config}\n")
    assert cli.main(["baselines", "--config", str(cfgfile)]) == 0
    assert capsys.readouterr().out == ""
    assert from_config.read_text().splitlines()[1].split(",") == list(
        experiments.BASELINE_FIELDS)
    from_config.unlink()
    # --out wins over output.path
    assert cli.main(["baselines", "--config", str(cfgfile),
                     "--out", str(from_flag)]) == 0
    assert not from_config.exists()
    assert from_flag.read_text().splitlines()[1].split(",") == list(
        experiments.BASELINE_FIELDS)


def test_cli_convergence_smoke(tmp_path):
    out = tmp_path / "conv.csv"
    cfgfile = tmp_path / "fast.cfg"
    cfgfile.write_text("optimizer.max_iterations = 5\n")
    code = cli.main(["convergence", "--config", str(cfgfile),
                     "--theta-db", "5", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[1].split(",") == list(
        experiments.CONVERGENCE_FIELDS)


# Pinned bytes: the solver and the baselines must reproduce these CSVs at
# the committed defaults exactly.  Never re-record these to pass.
_PINNED_CSV_SHA256 = {
    "optimize": "4e010927501ed7fb76ee40105301ec4ec5119993f2b30e4ceee2befaac266f36",
    "convergence": "4ace953d5b8337c978dac89bfe362567cffaee5e3bbcff5d002765c1965ea06c",
    "baselines": "19d8c1123a5644b6b115b0c807ffa5225c2719e6f9802575377ee2c633089c01",
}


@pytest.mark.parametrize("command", sorted(_PINNED_CSV_SHA256))
def test_cli_csv_bytes_pinned_at_defaults(tmp_path, command):
    out = tmp_path / f"{command}.csv"
    assert cli.main([command, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _PINNED_CSV_SHA256[command]
