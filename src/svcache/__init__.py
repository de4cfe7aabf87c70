"""Delay modelling and cache optimization for layered video delivery in a
three-tier (device-to-device / small-cell / macro-cell) wireless network.

The library has six parts:

``content``
    Video catalog, Mandelbrot-Zipf request popularity and per-quality
    preference, cumulative super-layer sizes.
``geometry``
    Closed-form success probabilities of a transmission from each tier,
    and the association probabilities.
``delay``
    Per-item d2d / sbs / macro branch delays, the popularity-weighted
    overall delay, and the content hit rate for a caching policy.
``mcsim``
    Seeded Monte-Carlo estimators that mirror the analytic sampling model
    (Poisson fields, Rayleigh fading, truncated serving-distance laws):
    the conditional, tier and macro success probabilities and the
    end-to-end delay, all through one SIR-test kernel.
``policies``
    The caching-policy data model, feasibility validation and the MPCP /
    EPCP / ICP baseline generators.
``optimizer``
    Gradient projection with a diminishing step and uniform-shift budget
    projection, plus a brute-force grid oracle for the 2x2 catalog only.

``config`` parses the flat dotted-key experiment configuration and
``cli`` exposes the experiment subcommands (``validate``,
``delay-surface``, ``optimize``, ``convergence``, ``baselines``).
"""

from .content import (
    ContentLibrary,
    preference_matrix,
    quality_preference,
    request_distribution,
    request_probability,
    super_layer_size,
    total_catalog_bits,
)
from .geometry import (
    NetworkGeometry,
    RadioConfig,
    TierGeometry,
    association_probability,
    g_integral,
    hit_term,
    q_factor,
    stp_cache_tier,
    stp_mbs,
    stp_nearest_cached,
    stp_nearest_uncached,
)
from .delay import (
    CacheBudgets,
    DelayBreakdown,
    all_miss_delay,
    hit_rate,
    overall_delay,
)
from .mcsim import (
    EstimatorResult,
    SimConfig,
    mc_delay_end_to_end,
    mc_stp_cache_tier,
    mc_stp_mbs,
    mc_stp_nearest_cached,
    mc_stp_nearest_uncached,
    sample_serving_distance,
)
from .policies import (
    CachingPolicy,
    FeasibilityReport,
    epcp,
    icp,
    load_policy,
    mpcp,
    save_policy,
    validate_policy,
)
from .optimizer import (
    OptimizerConfig,
    OptimizerResult,
    grid_oracle,
    objective_gradient,
    optimize,
    project_budget,
)
from .config import ConfigError, ExperimentConfig, default_config, load_config

__all__ = [
    "CacheBudgets",
    "CachingPolicy",
    "ConfigError",
    "ContentLibrary",
    "DelayBreakdown",
    "EstimatorResult",
    "ExperimentConfig",
    "FeasibilityReport",
    "NetworkGeometry",
    "OptimizerConfig",
    "OptimizerResult",
    "RadioConfig",
    "SimConfig",
    "TierGeometry",
    "all_miss_delay",
    "association_probability",
    "default_config",
    "epcp",
    "g_integral",
    "grid_oracle",
    "hit_rate",
    "hit_term",
    "icp",
    "load_config",
    "load_policy",
    "mc_delay_end_to_end",
    "mc_stp_cache_tier",
    "mc_stp_mbs",
    "mc_stp_nearest_cached",
    "mc_stp_nearest_uncached",
    "mpcp",
    "objective_gradient",
    "optimize",
    "overall_delay",
    "preference_matrix",
    "project_budget",
    "q_factor",
    "quality_preference",
    "request_distribution",
    "request_probability",
    "sample_serving_distance",
    "save_policy",
    "stp_cache_tier",
    "stp_mbs",
    "stp_nearest_cached",
    "stp_nearest_uncached",
    "super_layer_size",
    "total_catalog_bits",
    "validate_policy",
]
