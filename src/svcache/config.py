"""Experiment configuration: flat dotted-key text format, defaults, and
the names of rejected fields.

A config file is plain ``key = value`` lines with ``#`` comments, which
start at a ``#`` that begins the line or follows whitespace; keys
use dotted section names (``content.file_count``, ``tiers.d2d.density``,
``radio.sir_threshold_db``, ...).  Unknown and repeated keys are rejected
so typos fail loudly.  The committed defaults encode the reference set;
values the reference table does not pin down (serving radii, macro
density, bandwidths, backhaul rate) are invented defaults, labelled as
such in the template, and freely overridable.

All sizes are bits, rates bit/s, bandwidths Hz, densities nodes per
square metre; the SIR threshold is given in dB and converted to linear
scale exactly once when the radio config is built.

This module only parses text and names keys.  Every range rule lives in
the constructor it protects, whose ``ValueError`` names the field first;
a rejected value reads ``<dotted key>: <constructor message>``.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import re
from dataclasses import dataclass

import numpy as np

from .content import ContentLibrary, _is_count
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
    """Invalid or inconsistent experiment configuration; the message starts
    with the offending dotted key or names the offending line."""


# (key, default, is_invented, field).  Invented defaults fill parameters
# the reference table leaves unspecified; the template labels them.  Field
# is the constructor field that a ValueError names first, qualified by
# tier for the tiers as NetworkGeometry's messages are ("" when the key
# is only parsed here).
_SCHEMA: list[tuple[str, object, bool, str]] = [
    ("content.file_count", 20, False, "file_count"),
    ("content.layer_count", 2, False, "layer_count"),
    ("content.layer_size_bits", 25e6, False, "layer_sizes"),
    ("content.skewness", 1.0, False, "skewness"),
    ("content.plateau", 5.0, False, "plateau"),
    ("tiers.d2d.density", 0.01, False, "d2d.density"),
    ("tiers.d2d.radius_m", 20.0, True, "d2d.serving_radius"),
    ("tiers.d2d.pathloss", 4.0, False, "d2d.pathloss"),
    ("tiers.sbs.density", 0.001, False, "sbs.density"),
    ("tiers.sbs.radius_m", 60.0, True, "sbs.serving_radius"),
    ("tiers.sbs.pathloss", 4.0, False, "sbs.pathloss"),
    ("tiers.mbs.density", 1e-5, True, "mbs.density"),
    ("tiers.mbs.pathloss", 4.0, False, "mbs.pathloss"),
    ("radio.sir_threshold_db", 5.0, False, "sir_threshold_db"),
    ("radio.bandwidth_d2d_hz", 20e6, True, "bandwidth_d2d"),
    ("radio.bandwidth_sbs_hz", 20e6, True, "bandwidth_sbs"),
    ("radio.bandwidth_mbs_hz", 10e6, True, "bandwidth_mbs"),
    ("radio.backhaul_rate_bps", 5e6, True, "backhaul_rate"),
    ("budgets.d2d_bits", 200e6, False, "m_d"),
    ("budgets.sbs_bits", 500e6, False, "m_s"),
    ("sim.trials", 50_000, False, "trials"),
    ("sim.window_multiplier", 10.0, True, "window_multiplier"),
    ("sim.master_seed", 20260809, True, "master_seed"),
    ("sim.mbs_region_radius_m", "", True, "mbs_region_radius"),
    ("optimizer.max_iterations", 100, False, "max_iterations"),
    ("optimizer.convergence_tol_s", 1e-6, False, "convergence_tol"),
    ("optimizer.initial_policy", "mpcp", True, "initial_policy"),
    ("sweep.variable", "", False, "variable"),
    ("sweep.start", "", False, "start"),
    ("sweep.stop", "", False, "stop"),
    ("sweep.steps", "", False, "steps"),
    ("output.path", "", False, ""),
]

_DEFAULTS = {key: value for key, value, _, _ in _SCHEMA}
_FIELD_KEYS = {field: key for key, _, _, field in _SCHEMA if field}

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
    """``steps`` evenly spaced values of one ``SWEEPABLE`` key from a finite
    ``start`` to a finite ``stop``; each check raises ``ValueError`` naming
    its field first."""

    variable: str
    start: float
    stop: float
    steps: int

    def __post_init__(self):
        if self.variable not in SWEEPABLE:
            raise ValueError(f"variable {self.variable!r} is not sweepable; "
                             f"choose from {SWEEPABLE}")
        if not (_is_count(self.steps) and self.steps >= 1):
            raise ValueError(f"steps must be an integer >= 1, got {self.steps!r}")
        for name, value in (("start", self.start), ("stop", self.stop)):
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")

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
        return _build(self.resolved, dotted)


def _parse_value(key, text):
    default = _DEFAULTS[key]
    if isinstance(default, int):
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


_COMMENT = re.compile(r"(?:^|\s)#")


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines, each key once, into a key map over defaults."""
    raw, set_on = dict(_DEFAULTS), {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = _COMMENT.split(line, 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if set_on.setdefault(key, lineno) != lineno:
            raise ConfigError(f"line {lineno}: {key!r} is already set on line {set_on[key]}")
        raw[key] = _parse_value(key, value)
    return raw


def _sweep_bounds(start, stop, steps):
    """Sweep bounds from text or numbers: text is parsed (``float`` start and
    stop, ``int`` steps) and anything else passed unchanged, so ``SweepSpec``
    rejects a bool or a non-integer count instead of converting it."""
    return tuple(parse(value) if isinstance(value, str) else value
                 for parse, value in ((float, start), (float, stop), (int, steps)))


def _named(build, *args, tier="", **kwargs):
    """Call a constructor; re-raise its ``ValueError`` as a ``ConfigError``
    led by the dotted key of the field its message names first (``tier``
    qualifies a ``TierGeometry`` field)."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        field = tier + str(exc).split(" ", 1)[0]
        raise ConfigError(f"{_FIELD_KEYS[field]}: {exc}") from exc


def _build(resolved: dict, overrides: dict | None = None) -> ExperimentConfig:
    raw = dict(resolved)
    for key, value in (overrides or {}).items():
        if key not in raw:
            raise ConfigError(f"unknown config key {key!r}")
        raw[key] = value

    library = _named(ContentLibrary.uniform, raw["content.file_count"],
                     raw["content.layer_count"],
                     layer_size_bits=raw["content.layer_size_bits"],
                     skewness=raw["content.skewness"],
                     plateau=raw["content.plateau"])
    # the macro tier has no radius key: it is unbounded
    tiers = {tier: _named(TierGeometry, raw[f"tiers.{tier}.density"],
                          raw.get(f"tiers.{tier}.radius_m", math.inf),
                          raw[f"tiers.{tier}.pathloss"], tier=f"{tier}.")
             for tier in ("d2d", "sbs", "mbs")}
    geometry = _named(NetworkGeometry, **tiers)
    radio = _named(RadioConfig.from_db, raw["radio.sir_threshold_db"],
                   *(raw[f"radio.bandwidth_{tier}_hz"] for tier in ("d2d", "sbs", "mbs")),
                   raw["radio.backhaul_rate_bps"])
    budgets = _named(CacheBudgets, m_d=raw["budgets.d2d_bits"],
                     m_s=raw["budgets.sbs_bits"])

    text = str(raw["sim.mbs_region_radius_m"]).strip()
    try:
        mbs_radius = float(text) if text else None
    except ValueError as exc:
        raise ConfigError("sim.mbs_region_radius_m: expected empty or a number, "
                          f"got {text!r}") from exc
    sim = _named(SimConfig, trials=raw["sim.trials"],
                 window_multiplier=raw["sim.window_multiplier"],
                 master_seed=raw["sim.master_seed"],
                 mbs_region_radius=mbs_radius)
    opt = _named(OptimizerConfig, max_iterations=raw["optimizer.max_iterations"],
                 convergence_tol=raw["optimizer.convergence_tol_s"],
                 initial_policy=raw["optimizer.initial_policy"])

    sweep = None
    if str(raw["sweep.variable"]).strip():
        try:
            bounds = _sweep_bounds(raw["sweep.start"], raw["sweep.stop"],
                                   raw["sweep.steps"])
        except ValueError as exc:
            raise ConfigError(
                "sweep.start/sweep.stop/sweep.steps must be numeric") from exc
        sweep = _named(SweepSpec, raw["sweep.variable"], *bounds)

    output_path = str(raw["output.path"]).strip() or None
    return ExperimentConfig(library=library, geometry=geometry, radio=radio,
                            budgets=budgets, sim=sim, optimizer=opt,
                            sweep=sweep, output_path=output_path, resolved=raw)


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Load a config file (defaults when ``path`` is None) and apply
    dotted-key overrides."""
    raw = _DEFAULTS
    if path is not None:
        with open(path) as fh:
            raw = parse_config_text(fh.read())
    return _build(raw, overrides)


def default_config(**overrides) -> ExperimentConfig:
    """The committed default configuration.  Dotted keys are overridable
    through keyword expansion, e.g.
    ``default_config(**{"radio.sir_threshold_db": 3.0})``."""
    return _build(_DEFAULTS, overrides)


def parse_sweep_flag(text: str) -> SweepSpec:
    """Parse the CLI form VAR=start:stop:steps."""
    try:
        variable, rest = text.split("=", 1)
        start, stop, steps = rest.split(":")
        bounds = _sweep_bounds(start, stop, steps)
    except ValueError as exc:
        raise ConfigError(f"bad sweep spec {text!r}; expected VAR=start:stop:steps") from exc
    return _named(SweepSpec, variable.strip(), *bounds)


def render_default_template() -> str:
    """The committed config template with invented defaults labelled."""
    lines = [
        "# Experiment configuration (flat dotted keys).",
        "# Values marked [invented default] fill parameters the reference",
        "# setting leaves unspecified; override them freely.",
        "",
    ]
    for key, value, invented, _ in _SCHEMA:
        if value == "":
            rendered = f"# {key} ="
        else:
            rendered = f"{key} = {value}"
        if invented and value != "":
            rendered += "   # [invented default]"
        lines.append(rendered)
    lines.append("")
    return "\n".join(lines)
