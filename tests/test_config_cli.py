import hashlib
import math
import re
from pathlib import Path

import numpy as np
import pytest

from svcache import (CacheBudgets, ContentLibrary, EstimatorResult, OptimizerConfig,
                     RadioConfig, SimConfig, TierGeometry, cli, experiments, project_budget)
from svcache.config import (
    ConfigError,
    SweepSpec,
    default_config,
    load_config,
    parse_config_text,
    parse_sweep_flag,
)
from svcache.config import _SCHEMA

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


def test_committed_template_lists_every_key_once():
    # the template is kept by hand, and a key missing from it would still
    # parse to its default: each key is set once, or named once in a
    # comment when its default is empty
    lines = (REPO_ROOT / "configs" / "default.cfg").read_text().splitlines()
    for key, default, _ in _SCHEMA:
        named = [line for line in lines if re.match(rf"(# )?{re.escape(key)} =", line)]
        form = f"# {key} =" if default == "" else f"{key} = "
        assert len(named) == 1 and named[0].startswith(form), (key, named)


def test_committed_template_matches_package():
    committed = (REPO_ROOT / "configs" / "default.cfg").read_text()
    assert parse_config_text(committed) == default_config().resolved


@pytest.mark.parametrize("key,value,kind", [
    ("content.skewness", "1.0", "number"),
    ("sim.window_multiplier", "10", "number"),
    ("budgets.d2d_bits", None, "number"),
    ("sim.trials", "5", "integer"),
])
def test_library_overrides_reject_text_and_none(key, value, kind):
    # typed overrides are checked like file values, never a bare TypeError
    message = f"^{key}: expected {kind}, got {value!r}$"
    with pytest.raises(ConfigError, match=message.replace(".", r"\.")):
        default_config(**{key: value})
    with pytest.raises(ConfigError, match=f"^{key}: "):
        default_config().with_values(**{key: value})


def test_override_typed_like_the_file_line(tmp_path):
    # same config, same hash: an int for a float key is stored as a float
    path = tmp_path / "budget.cfg"
    path.write_text("budgets.d2d_bits = 200000000\n")
    assert load_config(path).hash() == "9263891552252f5f"
    assert default_config(**{"budgets.d2d_bits": 200_000_000}).hash() == "9263891552252f5f"


@pytest.mark.parametrize("text,overrides", [
    ("sim.mbs_region_radius_m = 500\n", {"sim.mbs_region_radius_m": 500.0}),
    ("sweep.variable = content.skewness\nsweep.start = 0.5\nsweep.stop = 1\n"
     "sweep.steps = 3\n", {"sweep.variable": "content.skewness", "sweep.start": 0.5,
                           "sweep.stop": 1, "sweep.steps": 3}),
], ids=["mbs-region-radius", "sweep"])
def test_file_line_and_override_hash_alike(tmp_path, text, overrides):
    # the map holds the parsed value, not the text or type it arrived as
    path = tmp_path / "case.cfg"
    path.write_text(text)
    digest = load_config(path).hash()
    assert default_config(**overrides).hash() == digest
    assert default_config().with_values(**overrides).hash() == digest


@pytest.mark.parametrize("key,value", [("budgets.d2d_bits", np.float64(200e6)),
                                       ("content.file_count", np.int64(20))],
                         ids=["numpy-float", "numpy-int"])
def test_numpy_override_hashes_like_the_default(key, value):
    assert default_config(**{key: value}).hash() == "9263891552252f5f"
    assert default_config().with_values(**{key: value}).hash() == "9263891552252f5f"


@pytest.mark.parametrize("key", ["content.skewness", "radio.sir_threshold_db"])
def test_float_override_rejects_bool(key):
    # True is not read as 1
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: expected number, got True$"):
        default_config(**{key: True})


_RADIO = dict(sir_threshold=3.0, bandwidth_d2d=20e6, bandwidth_sbs=20e6,
              bandwidth_mbs=10e6, backhaul_rate=5e6)

# (constructor and field, field named first in its message, build from a value)
_REAL_FIELDS = [
    ("TierGeometry.density", "density", lambda v: TierGeometry(v, 20.0, 4.0)),
    ("TierGeometry.serving_radius", "serving_radius", lambda v: TierGeometry(0.01, v, 4.0)),
    *((f"RadioConfig.{name}", name, lambda v, name=name: RadioConfig(**{**_RADIO, name: v}))
      for name in _RADIO),
    ("RadioConfig.from_db", "sir_threshold_db",
     lambda v: RadioConfig.from_db(v, 20e6, 20e6, 10e6, 5e6)),
    ("CacheBudgets.m_d", "m_d", lambda v: CacheBudgets(m_d=v, m_s=5.0)),
    ("CacheBudgets.m_s", "m_s", lambda v: CacheBudgets(m_d=5.0, m_s=v)),
    ("ContentLibrary.uniform.layer_size_bits", "layer_sizes",
     lambda v: ContentLibrary.uniform(4, 2, layer_size_bits=v)),
    ("ContentLibrary.skewness", "skewness",
     lambda v: ContentLibrary(2, 2, np.ones((2, 2)), skewness=v)),
    ("ContentLibrary.plateau", "plateau",
     lambda v: ContentLibrary(2, 2, np.ones((2, 2)), plateau=v)),
    ("SimConfig.mbs_region_radius", "mbs_region_radius",
     lambda v: SimConfig(mbs_region_radius=v)),
    ("OptimizerConfig.convergence_tol", "convergence_tol",
     lambda v: OptimizerConfig(convergence_tol=v)),
    ("project_budget.budget", "budget",
     lambda v: project_budget(np.full(4, 0.5), np.ones(4), v)),
    ("project_budget.budget-sequence", "budget",
     lambda v: project_budget(np.full(4, 0.5), np.ones(4), (2.0, v))),
]
# where 0 is in range, False was taken as 0 too
_ZERO_ALLOWED = {"ContentLibrary.skewness", "ContentLibrary.plateau", "RadioConfig.from_db"}


@pytest.mark.parametrize("case,field,build,flag", [
    pytest.param(case, field, build, flag, id=f"{case}-{flag!r}")
    for case, field, build in _REAL_FIELDS
    for flag in (True, np.True_, np.array(True),
                 *((False, np.False_, np.array(False)) if case in _ZERO_ALLOWED else ()))])
def test_real_fields_reject_bool(case, field, build, flag):
    # a library caller is rejected on the bools the config layer rejects,
    # a 0-d bool array among them, with the field named first; the same
    # number as a float, a numpy scalar or a 0-d array is valid
    with pytest.raises(ValueError, match=rf"^{field} .*got {re.escape(repr(flag))}$"):
        build(flag)
    for number in (float(flag), np.float64(flag), np.array(float(flag))):
        build(number)


@pytest.mark.parametrize("field,build", [
    ("layer_sizes", lambda sizes: ContentLibrary(2, 2, sizes)),
    ("sizes", lambda sizes: project_budget(np.full((2, 2), 0.5), sizes, 1.0)),
], ids=["ContentLibrary.layer_sizes", "project_budget.sizes"])
@pytest.mark.parametrize("kind", [np.asarray, lambda a: a.tolist()], ids=["array", "list"])
def test_size_arrays_reject_bool(field, build, kind):
    # a bool array is not read as sizes of 1.0; the same sizes as floats are valid
    with pytest.raises(ValueError, match=f"^{field} must be real-valued, got dtype bool$"):
        build(kind(np.ones((2, 2), bool)))
    build(kind(np.ones((2, 2))))


def test_override_beyond_float_range_reads_as_infinite():
    # as the file line "content.skewness = 1e400" does, not an OverflowError
    with pytest.raises(ConfigError, match="^content.skewness: .*got inf$"):
        default_config(**{"content.skewness": 10**400})


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


@pytest.mark.parametrize("count", [3.0, 2.5, True], ids=["float", "half", "bool"])
def test_catalog_counts_must_be_integers(count):
    # a count override that is not an integer reaches its constructor as given
    for key in ("content.file_count", "content.layer_count", "sim.trials"):
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


def test_validation_checks_end_to_end_delay_of_four_placements():
    cfg = default_config(**FAST_OVERRIDES)
    rows, ok = experiments.run_probability_validation(cfg)
    e2e = [r for r in rows if r["sweep_var"] == "delay_end_to_end"]
    assert [r["value"] for r in e2e] == ["mpcp", "epcp", "icp", "optimized"]
    assert all(r["trials"] == 2000 and r["mc_stderr"] > 0 for r in e2e)
    assert ok and not experiments.gate_failures(rows)
    far = dict(e2e[1], mc_mean=e2e[1]["analytic"] + 4.0 * e2e[1]["mc_stderr"])
    assert experiments.gate_failures([far]) == [(far, pytest.approx(-4.0))]


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
             "trials": 100},
            {"sweep_var": "delay_end_to_end", "value": "icp",
             "analytic": 7.0, "mc_mean": 7.1, "mc_stderr": 0.02,
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
    assert "delay_end_to_end = icp: z = -5.00" in err
    assert "p_sbs_cache_tier" not in err
    # the message goes to stderr only: the CSV is the rows as rendered
    expected = experiments.render_csv(experiments.VALIDATE_FIELDS, rows,
                                      default_config())
    assert out.read_text() == expected


@pytest.mark.parametrize("window,code", [(None, 3), ("inf", 0)], ids=["default", "inf"])
def test_cli_validate_gate_names_the_window(tmp_path, capsys, window, code):
    # at a macro path loss of 2.5 the field beyond the default window is not
    # negligible: the gate fails and names the window, and inf passes it
    path = tmp_path / "alpha.cfg"
    path.write_text("tiers.mbs.pathloss = 2.5\n"
                    + (f"sim.window_multiplier = {window}\n" if window else ""))
    out = tmp_path / "validate.csv"
    args = ["validate", "--config", str(path), "--trials", "4096", "--out", str(out)]
    assert cli.main(args) == code
    named = ("sim.window_multiplier = 10.0 sets the Monte-Carlo window "
             "(inf removes the field's truncation)")
    assert (named in capsys.readouterr().err) == (code == 3)


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
    for line, shown in (("sim.window_multiplier = 2", "got 2.0"),
                        ("sim.mbs_region_radius_m = -5", "got -5.0")):
        bad.write_text(line + "\n")
        assert cli.main(["validate", "--config", str(bad)]) == 2
        assert capsys.readouterr().err.rstrip().endswith(shown)


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


# Pinned bytes of `svcache validate --trials 2048` at the default seed: the
# Monte-Carlo streams of every validation point and of the four end-to-end
# delay rows.  Only a change that states a stream move in CHANGES.md may
# re-record this.
_PINNED_VALIDATE_SHA256 = "d7de396fba7a4f971c68c386d5442d4bd9f205e3f1e5c19d20ace3fd74690adf"


def test_cli_validate_csv_bytes_pinned(tmp_path):
    out = tmp_path / "validate.csv"
    assert cli.main(["validate", "--trials", "2048", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _PINNED_VALIDATE_SHA256
