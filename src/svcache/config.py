"""Experiment configuration: flat dotted-key text format, defaults, and
cross-field validation.

A config file is plain ``key = value`` lines with ``#`` comments; keys
use dotted section names (``content.file_count``, ``tiers.d2d.density``,
``radio.sir_threshold_db``, ...).  Unknown keys are rejected so typos
fail loudly.  The committed defaults encode the reference parameter set;
values the reference table does not pin down (serving radii, macro
density, bandwidths, backhaul rate) are invented defaults, labelled as
such in the template, and freely overridable.

All sizes are bits, rates bit/s, bandwidths Hz, densities nodes per
square metre; the SIR threshold is given in dB and converted to linear
scale exactly once when the radio config is built.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .content import ContentLibrary
from .delay import CacheBudgets
from .geometry import NetworkGeometry, RadioConfig, TierGeometry
from .mcsim import SimConfig
from .optimizer import OptimizerConfig

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "SweepSpec",
    "default_config",
    "load_config",
    "parse_sweep_flag",
    "render_default_template",
]


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration; the message names
    the offending field."""


# (key, default, is_invented).  Invented defaults fill parameters the
# reference table leaves unspecified; the template labels them.
_SCHEMA: list[tuple[str, object, bool]] = [
    ("content.file_count", 20, False),
    ("content.layer_count", 2, False),
    ("content.layer_size_bits", 25e6, False),
    ("content.skewness", 1.0, False),
    ("content.plateau", 5.0, False),
    ("tiers.d2d.density", 0.01, False),
    ("tiers.d2d.radius_m", 20.0, True),
    ("tiers.d2d.pathloss", 4.0, False),
    ("tiers.sbs.density", 0.001, False),
    ("tiers.sbs.radius_m", 60.0, True),
    ("tiers.sbs.pathloss", 4.0, False),
    ("tiers.mbs.density", 1e-5, True),
    ("tiers.mbs.pathloss", 4.0, False),
    ("radio.sir_threshold_db", 5.0, False),
    ("radio.bandwidth_d2d_hz", 20e6, True),
    ("radio.bandwidth_sbs_hz", 20e6, True),
    ("radio.bandwidth_mbs_hz", 10e6, True),
    ("radio.backhaul_rate_bps", 5e6, True),
    ("budgets.d2d_bits", 200e6, False),
    ("budgets.sbs_bits", 500e6, False),
    ("sim.trials", 50_000, False),
    ("sim.window_multiplier", 10.0, True),
    ("sim.master_seed", 20260809, True),
    ("sim.mbs_region_radius_m", "", True),
    ("optimizer.max_iterations", 100, False),
    ("optimizer.convergence_tol_s", 1e-6, False),
    ("optimizer.initial_policy", "mpcp", True),
    ("sweep.variable", "", False),
    ("sweep.start", "", False),
    ("sweep.stop", "", False),
    ("sweep.steps", "", False),
    ("output.path", "", False),
]

_DEFAULTS = {key: value for key, value, _ in _SCHEMA}

SWEEPABLE = (
    "radio.sir_threshold_db",
    "radio.backhaul_rate_bps",
    "budgets.d2d_bits",
    "budgets.sbs_bits",
    "content.skewness",
    "content.plateau",
)


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    start: float
    stop: float
    steps: int

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment inputs plus the raw key-value view used
    for hashing and provenance."""

    library: ContentLibrary
    geometry: NetworkGeometry
    radio: RadioConfig
    budgets: CacheBudgets
    sim: SimConfig
    optimizer: OptimizerConfig
    sweep: SweepSpec | None
    output_path: str | None
    resolved: dict

    def hash(self) -> str:
        """Stable digest of the resolved key-value map."""
        canon = "\n".join(f"{k}={self.resolved[k]!r}" for k in sorted(self.resolved))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def with_values(self, **dotted) -> "ExperimentConfig":
        """New config with some dotted keys replaced (used by sweeps)."""
        raw = dict(self.resolved)
        for key, value in dotted.items():
            if key not in raw:
                raise ConfigError(f"unknown config key {key!r}")
            raw[key] = value
        return _build(raw)


def _parse_value(key, text):
    default = _DEFAULTS[key]
    if isinstance(default, bool):  # none today, kept for safety
        return text.lower() in ("1", "true", "yes")
    if isinstance(default, int) and not isinstance(default, bool):
        try:
            return int(text)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected integer, got {text!r}") from exc
    if isinstance(default, float):
        try:
            return float(text)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected number, got {text!r}") from exc
    return text


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines into a resolved key map over defaults."""
    raw = dict(_DEFAULTS)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        raw[key] = _parse_value(key, value)
    return raw


def _positive(raw, key):
    value = raw[key]
    if not (isinstance(value, (int, float)) and value > 0):
        raise ConfigError(f"{key} must be strictly positive, got {value!r}")
    return value


def _build(raw: dict) -> ExperimentConfig:
    f_count = raw["content.file_count"]
    l_count = raw["content.layer_count"]
    if f_count < 2:
        raise ConfigError("content.file_count must be >= 2")
    if l_count < 2:
        raise ConfigError("content.layer_count must be >= 2")
    for key in ("content.skewness", "content.plateau"):
        if not 0 <= raw[key] < math.inf:
            raise ConfigError(f"{key} must be finite and >= 0, got {raw[key]!r}")
    library = ContentLibrary.uniform(
        f_count, l_count,
        layer_size_bits=_positive(raw, "content.layer_size_bits"),
        skewness=raw["content.skewness"],
        plateau=raw["content.plateau"],
    )

    for key in ("tiers.d2d.pathloss", "tiers.sbs.pathloss", "tiers.mbs.pathloss"):
        if not 2 < raw[key] < math.inf:
            raise ConfigError(f"{key} must be finite and > 2, got {raw[key]!r}")
    if raw["tiers.sbs.radius_m"] < raw["tiers.d2d.radius_m"]:
        raise ConfigError("tiers.sbs.radius_m must be >= tiers.d2d.radius_m")
    geometry = NetworkGeometry(
        d2d=TierGeometry(_positive(raw, "tiers.d2d.density"),
                         _positive(raw, "tiers.d2d.radius_m"),
                         raw["tiers.d2d.pathloss"]),
        sbs=TierGeometry(_positive(raw, "tiers.sbs.density"),
                         _positive(raw, "tiers.sbs.radius_m"),
                         raw["tiers.sbs.pathloss"]),
        mbs=TierGeometry(_positive(raw, "tiers.mbs.density"), math.inf,
                         raw["tiers.mbs.pathloss"]),
    )

    bandwidths = [_positive(raw, f"radio.bandwidth_{tier}_hz")
                  for tier in ("d2d", "sbs", "mbs")]
    backhaul = _positive(raw, "radio.backhaul_rate_bps")
    try:
        radio = RadioConfig.from_db(raw["radio.sir_threshold_db"], *bandwidths,
                                    backhaul)
    except ValueError as exc:
        raise ConfigError(f"radio.{exc}") from exc
    budgets = CacheBudgets(m_d=_positive(raw, "budgets.d2d_bits"),
                           m_s=_positive(raw, "budgets.sbs_bits"))

    text = str(raw["sim.mbs_region_radius_m"]).strip()
    try:
        mbs_radius = float(text) if text else None
    except ValueError:
        mbs_radius = math.nan
    if mbs_radius is not None and not 0 < mbs_radius < math.inf:
        raise ConfigError("sim.mbs_region_radius_m must be empty or finite "
                          f"and > 0, got {text!r}")
    if raw["sim.trials"] < 1:
        raise ConfigError("sim.trials must be >= 1")
    if not 5 <= raw["sim.window_multiplier"] < math.inf:
        raise ConfigError("sim.window_multiplier must be finite and >= 5")
    if raw["sim.master_seed"] < 0:
        raise ConfigError("sim.master_seed must be >= 0")
    sim = SimConfig(trials=raw["sim.trials"],
                    window_multiplier=raw["sim.window_multiplier"],
                    master_seed=raw["sim.master_seed"],
                    mbs_region_radius=mbs_radius)

    if raw["optimizer.initial_policy"] not in ("mpcp", "epcp"):
        raise ConfigError("optimizer.initial_policy must be 'mpcp' or 'epcp', "
                          f"got {raw['optimizer.initial_policy']!r}")
    opt = OptimizerConfig(
        max_iterations=raw["optimizer.max_iterations"],
        convergence_tol=_positive(raw, "optimizer.convergence_tol_s"),
        initial_policy=raw["optimizer.initial_policy"],
    )

    sweep = None
    if str(raw["sweep.variable"]).strip():
        variable = raw["sweep.variable"]
        if variable not in SWEEPABLE:
            raise ConfigError(
                f"sweep.variable {variable!r} not sweepable; choose from {SWEEPABLE}")
        try:
            sweep = SweepSpec(variable, float(raw["sweep.start"]),
                              float(raw["sweep.stop"]), int(raw["sweep.steps"]))
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                "sweep.start/sweep.stop/sweep.steps must be numeric") from exc
        if sweep.steps < 1:
            raise ConfigError("sweep.steps must be >= 1")

    output_path = str(raw["output.path"]).strip() or None
    return ExperimentConfig(library=library, geometry=geometry, radio=radio,
                            budgets=budgets, sim=sim, optimizer=opt,
                            sweep=sweep, output_path=output_path, resolved=raw)


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Load a config file (defaults when ``path`` is None) and apply
    dotted-key overrides."""
    raw = dict(_DEFAULTS)
    if path is not None:
        with open(path) as fh:
            raw = parse_config_text(fh.read())
    for key, value in (overrides or {}).items():
        if key not in raw:
            raise ConfigError(f"unknown config key {key!r}")
        raw[key] = value
    return _build(raw)


def default_config(**overrides) -> ExperimentConfig:
    """The committed default configuration.  Dotted keys are overridable
    through keyword expansion, e.g.
    ``default_config(**{"radio.sir_threshold_db": 3.0})``."""
    raw = dict(_DEFAULTS)
    for key, value in overrides.items():
        if key not in raw:
            raise ConfigError(f"unknown config key {key!r}")
        raw[key] = value
    return _build(raw)


def parse_sweep_flag(text: str) -> SweepSpec:
    """Parse the CLI form VAR=start:stop:steps."""
    try:
        variable, rest = text.split("=", 1)
        start, stop, steps = rest.split(":")
        spec = SweepSpec(variable.strip(), float(start), float(stop), int(steps))
    except ValueError as exc:
        raise ConfigError(f"bad sweep spec {text!r}; expected VAR=start:stop:steps") from exc
    if spec.variable not in SWEEPABLE:
        raise ConfigError(
            f"sweep variable {spec.variable!r} not sweepable; choose from {SWEEPABLE}")
    if spec.steps < 1:
        raise ConfigError("sweep steps must be >= 1")
    return spec


def render_default_template() -> str:
    """The committed config template with invented defaults labelled."""
    lines = [
        "# Experiment configuration (flat dotted keys).",
        "# Values marked [invented default] fill parameters the reference",
        "# setting leaves unspecified; override them freely.",
        "",
    ]
    for key, value, invented in _SCHEMA:
        if value == "":
            rendered = f"# {key} ="
        else:
            rendered = f"{key} = {value}"
        if invented and value != "":
            rendered += "   # [invented default]"
        lines.append(rendered)
    lines.append("")
    return "\n".join(lines)
