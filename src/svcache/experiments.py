"""Seeded experiment runners and the CSV emission they share.

Each runner turns one experiment family into a list of row dicts:

validate       analytic success probabilities against their Monte-Carlo
               estimates over caching-probability and threshold sweeps,
               and the overall delay of the three baselines and the
               optimized placement against its end-to-end estimate;
delay surface  overall delay over a uniform (p_d, p_s) grid;
compare        optimized policy against the three baselines along a
               parameter sweep;
convergence    optimizer trajectories for several SIR thresholds;
baselines      the three baseline policies, their delays and usages.

Every CSV starts with a provenance comment carrying the resolved config
hash and the master seed, so identical config plus seed reproduces the
file byte for byte.  Sweep rows are emitted in sweep order regardless of
how they were computed.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from .config import ConfigError, ExperimentConfig, SweepSpec
from .delay import all_miss_delay, overall_delay
from .geometry import stp_cache_tier, stp_mbs, stp_nearest_cached, stp_nearest_uncached
from .mcsim import (
    mc_delay_end_to_end,
    mc_stp_cache_tier,
    mc_stp_mbs,
    mc_stp_nearest_cached,
    mc_stp_nearest_uncached,
)
from .optimizer import optimize
from .policies import CachingPolicy, epcp, icp, mpcp, validate_policy

__all__ = [
    "gate_failures",
    "render_csv",
    "run_baselines",
    "run_convergence",
    "run_delay_surface",
    "run_optimize_and_compare",
    "run_probability_validation",
]

_NA = "na"
_P_SWEEP = (0.0, 0.1, 0.3, 0.5, 0.7, 1.0)
_THETA_DB_SWEEP = (1.0, 3.0, 5.0, 7.0, 9.0)


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def render_csv(fieldnames, rows, cfg: ExperimentConfig) -> str:
    """Render rows with the provenance header comment; deterministic bytes
    for a fixed config and seed."""
    buf = io.StringIO()
    buf.write(f"# config_hash={cfg.hash()} master_seed={cfg.sim.master_seed}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_fmt(row[name]) for name in fieldnames])
    return buf.getvalue()


VALIDATE_FIELDS = ("sweep_var", "value", "analytic", "mc_mean", "mc_stderr", "trials")


def run_probability_validation(cfg: ExperimentConfig):
    """Sweep the analytic tier success probabilities against Monte Carlo,
    then check the overall delay of MPCP, EPCP, ICP and the optimized
    placement against ``mc_delay_end_to_end`` (``sweep_var``
    ``delay_end_to_end``, the placement's name as ``value``).

    Returns (rows, ok): ok is False when any point misses its estimate by
    more than three standard errors, or has a non-finite estimate
    (``gate_failures``).  Zero caching
    probability has no conditional Monte-Carlo law, so those rows carry
    the analytic zero and not-applicable MC columns.  The gate needs a
    standard error, so fewer than two trials raise ``ConfigError``.
    """
    if cfg.sim.trials < 2:
        raise ConfigError("sim.trials: validation needs at least 2 trials "
                          f"for a standard error, got {cfg.sim.trials}")
    theta = cfg.radio.sir_threshold
    rows = []

    tiers = (("d2d", cfg.geometry.d2d), ("sbs", cfg.geometry.sbs))
    families = (
        ("nearest_cached", stp_nearest_cached, mc_stp_nearest_cached),
        ("nearest_uncached", stp_nearest_uncached, mc_stp_nearest_uncached),
        ("cache_tier", stp_cache_tier, mc_stp_cache_tier),
    )
    for tier_name, geom in tiers:
        for fam_name, analytic_fn, mc_fn in families:
            for p in _P_SWEEP:
                analytic = analytic_fn(p, geom, theta)
                if p == 0.0:
                    rows.append({"sweep_var": f"p_{tier_name}_{fam_name}",
                                 "value": p, "analytic": analytic,
                                 "mc_mean": _NA, "mc_stderr": _NA, "trials": 0})
                    continue
                est = mc_fn(p, geom, theta, cfg.sim)
                rows.append({"sweep_var": f"p_{tier_name}_{fam_name}",
                             "value": p, "analytic": analytic,
                             "mc_mean": est.mean, "mc_stderr": est.stderr,
                             "trials": est.trials_used})

    for theta_db in _THETA_DB_SWEEP:
        lin = 10.0 ** (theta_db / 10.0)
        analytic = stp_mbs(cfg.geometry.mbs.pathloss, lin)
        est = mc_stp_mbs(cfg.geometry.mbs.density, cfg.geometry.mbs.pathloss,
                         lin, cfg.sim)
        rows.append({"sweep_var": "theta_db_mbs", "value": theta_db,
                     "analytic": analytic, "mc_mean": est.mean,
                     "mc_stderr": est.stderr, "trials": est.trials_used})

    lib, geoms, radio = cfg.library, cfg.geometry, cfg.radio
    placements = _baseline_policies(cfg)
    placements["optimized"] = optimize(lib, geoms, radio, cfg.budgets,
                                       cfg.optimizer).best_policy
    for name, policy in placements.items():
        est = mc_delay_end_to_end(policy, lib, geoms, radio, cfg.sim)
        rows.append({"sweep_var": "delay_end_to_end", "value": name,
                     "analytic": overall_delay(policy, lib, geoms, radio).total,
                     "mc_mean": est.mean, "mc_stderr": est.stderr,
                     "trials": est.trials_used})
    return rows, not gate_failures(rows)


def gate_failures(rows):
    """The validation gate: the rows whose analytic value misses its
    Monte-Carlo estimate by more than three standard errors (and by more
    than 1e-12), each paired with its z-score (analytic - mc_mean) /
    mc_stderr, infinite at zero stderr.  A row whose ``mc_mean`` or
    ``mc_stderr`` is not finite fails too, with z = nan: no comparison
    with NaN is true, so it would otherwise pass.  Rows without an
    estimate pass."""
    failed = []
    for row in rows:
        if row["mc_mean"] == _NA:
            continue
        if not (math.isfinite(row["mc_mean"]) and math.isfinite(row["mc_stderr"])):
            failed.append((row, math.nan))
            continue
        diff = row["analytic"] - row["mc_mean"]
        if abs(diff) > 3.0 * row["mc_stderr"] and abs(diff) > 1e-12:
            z = (diff / row["mc_stderr"] if row["mc_stderr"] > 0
                 else math.copysign(math.inf, diff))
            failed.append((row, z))
    return failed


SURFACE_FIELDS = ("p_d", "p_s", "delay_s")


def run_delay_surface(cfg: ExperimentConfig, grid_points: int = 21):
    """Overall delay over a uniform-policy grid (p_d, p_s) in [0, 1]^2."""
    shape = cfg.library.shape
    values = np.linspace(0.0, 1.0, grid_points)
    rows = []
    for p_d in values:
        for p_s in values:
            policy = CachingPolicy(p_d=np.full(shape, p_d),
                                   p_s=np.full(shape, p_s))
            total = overall_delay(policy, cfg.library, cfg.geometry,
                                  cfg.radio).total
            rows.append({"p_d": float(p_d), "p_s": float(p_s), "delay_s": total})
    return rows


COMPARE_FIELDS = ("sweep_var", "value", "delay_optimized", "delay_mpcp",
                  "delay_epcp", "delay_icp")


def _baseline_policies(cfg: ExperimentConfig):
    """The three baselines by name, ICP seeded by the master seed."""
    return {"mpcp": mpcp(cfg.library, cfg.budgets),
            "epcp": epcp(cfg.library, cfg.budgets),
            "icp": icp(cfg.library, cfg.budgets, seed=cfg.sim.master_seed)}


def _policy_delays(cfg: ExperimentConfig):
    lib, geoms, radio = cfg.library, cfg.geometry, cfg.radio
    result = optimize(lib, geoms, radio, cfg.budgets, cfg.optimizer)
    delays = {"delay_optimized": result.best_delay}
    for name, policy in _baseline_policies(cfg).items():
        delays[f"delay_{name}"] = overall_delay(policy, lib, geoms, radio).total
    return delays


def run_optimize_and_compare(cfg: ExperimentConfig, sweep: SweepSpec):
    """Optimized-vs-baseline delays at each sweep point."""
    rows = []
    for value in sweep.values():
        point = cfg.with_values(**{sweep.variable: float(value)})
        row = {"sweep_var": sweep.variable, "value": float(value)}
        row.update(_policy_delays(point))
        rows.append(row)
    return rows


CONVERGENCE_FIELDS = ("theta_db", "iteration", "delay_s", "step_size",
                      "budget_residual_d", "budget_residual_s")


def run_convergence(cfg: ExperimentConfig, theta_dbs=(3.0, 5.0, 7.0)):
    """Optimizer trajectories for several SIR thresholds."""
    rows = []
    for theta_db in theta_dbs:
        point = cfg.with_values(**{"radio.sir_threshold_db": float(theta_db)})
        result = optimize(point.library, point.geometry, point.radio,
                          point.budgets, point.optimizer)
        rows.append({"theta_db": theta_db, "iteration": 0,
                     "delay_s": result.delay_trajectory[0], "step_size": _NA,
                     "budget_residual_d": _NA, "budget_residual_s": _NA})
        for t in range(1, result.iterations_run + 1):
            rows.append({
                "theta_db": theta_db,
                "iteration": t,
                "delay_s": result.delay_trajectory[t],
                "step_size": result.step_sizes[t - 1],
                "budget_residual_d": result.budget_residual_d[t - 1],
                "budget_residual_s": result.budget_residual_s[t - 1],
            })
    return rows


BASELINE_FIELDS = ("policy", "delay_s", "usage_d_bits", "usage_s_bits",
                   "feasible")


def run_baselines(cfg: ExperimentConfig):
    """Delays and budget usage of the three baseline policies.

    Returns (rows, policies) so callers can also serialize the matrices.
    """
    lib, geoms, radio, budgets = (cfg.library, cfg.geometry, cfg.radio,
                                  cfg.budgets)
    policies = _baseline_policies(cfg)
    rows = []
    for name, policy in policies.items():
        report = validate_policy(policy, lib, budgets)
        rows.append({
            "policy": name,
            "delay_s": overall_delay(policy, lib, geoms, radio).total,
            "usage_d_bits": report.usage_d,
            "usage_s_bits": report.usage_s,
            "feasible": report.feasible,
        })
    rows.append({
        "policy": "all_miss",
        "delay_s": all_miss_delay(lib, geoms, radio),
        "usage_d_bits": 0.0,
        "usage_s_bits": 0.0,
        "feasible": True,
    })
    return rows, policies
