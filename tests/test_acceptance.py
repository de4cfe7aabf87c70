"""Acceptance suite: one test per release criterion, each printing a
PASS line once its assertions hold (run with ``pytest -v -s`` to see
them).  Tolerances are fixed here, not tuned at runtime.

The Monte-Carlo criteria run 50 000 trials per point and take a few
minutes together; everything else is fast.
"""

import math
import time

import numpy as np
import pytest

from svcache import (
    CacheBudgets,
    CachingPolicy,
    ContentLibrary,
    all_miss_delay,
    g_integral,
    grid_oracle,
    hit_rate,
    hit_term,
    mc_stp_cache_tier,
    mc_stp_mbs,
    mc_stp_nearest_cached,
    mc_stp_nearest_uncached,
    optimize,
    overall_delay,
    preference_matrix,
    project_budget,
    request_distribution,
    stp_cache_tier,
    stp_mbs,
    stp_nearest_cached,
    stp_nearest_uncached,
    total_catalog_bits,
)
from svcache.config import SweepSpec, default_config
from svcache.experiments import run_optimize_and_compare
from svcache.geometry import _g_general
from svcache.mcsim import SimConfig

P_POINTS = (0.1, 0.3, 0.5, 0.7, 1.0)
THETA_DB_POINTS = (1.0, 3.0, 5.0, 7.0, 9.0)


def _passed(label):
    print(f"\nACCEPTANCE {label}: PASS")


def test_criterion_1_analytic_mc_agreement(lib, geoms, radio, theta):
    """Success probabilities: analytic vs 50k-trial Monte Carlo, five sweep
    points per family, within 3 standard errors and 0.01 absolute."""
    sim = SimConfig(trials=50_000, master_seed=20260809)
    start = time.monotonic()
    checks = []
    for p in P_POINTS:
        checks.append((f"nearest_cached d2d p={p}",
                       stp_nearest_cached(p, geoms.d2d, theta),
                       mc_stp_nearest_cached(p, geoms.d2d, theta, sim)))
        checks.append((f"nearest_uncached d2d p={p}",
                       stp_nearest_uncached(p, geoms.d2d, theta),
                       mc_stp_nearest_uncached(p, geoms.d2d, theta, sim)))
        checks.append((f"cache_tier d2d p={p}",
                       stp_cache_tier(p, geoms.d2d, theta),
                       mc_stp_cache_tier(p, geoms.d2d, theta, sim)))
        checks.append((f"cache_tier sbs p={p}",
                       stp_cache_tier(p, geoms.sbs, theta),
                       mc_stp_cache_tier(p, geoms.sbs, theta, sim)))
    for theta_db in THETA_DB_POINTS:
        lin = 10.0 ** (theta_db / 10.0)
        checks.append((f"mbs theta={theta_db}dB",
                       stp_mbs(geoms.mbs.pathloss, lin),
                       mc_stp_mbs(geoms.mbs.density, geoms.mbs.pathloss, lin, sim)))
    for label, analytic, est in checks:
        gap = abs(analytic - est.mean)
        assert gap <= 3.0 * est.stderr + 1e-15, \
            f"{label}: gap {gap:.3e} > 3*stderr {3 * est.stderr:.3e}"
        assert gap <= 0.01, f"{label}: gap {gap:.3e} > 0.01 absolute"
        assert est.trials_used == 50_000
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"Monte-Carlo validation took {elapsed:.0f}s"
    _passed(f"1 (analytic-MC agreement, {len(checks)} points, {elapsed:.0f}s)")


def test_criterion_2_special_function():
    """Tail integral: quartic closed form and the sine-identity values."""
    for b in np.arange(0.0, 5.0 + 1e-9, 0.25):
        closed = math.pi / 2 - math.atan(b)
        assert abs(g_integral(4.0, float(b)) - closed) <= 1e-9
        # the generic closed-form path must agree with the shortcut
        assert abs(_g_general(4.0, float(b)) - closed) <= 1e-9
    for a in (3.0, 3.5, 4.0, 5.0):
        identity = (2 * math.pi / a) / math.sin(2 * math.pi / a)
        assert abs(g_integral(a, 0.0) - identity) <= 1e-8
    _passed("2 (special function)")


def test_criterion_3_mbs_probability(theta):
    """Macro success probability: arccot form, generic-path cross-check, and
    density independence of the Monte-Carlo estimate."""
    value = stp_mbs(4.0, theta)
    arccot_form = 1.0 / (1.0 + theta**0.5 * (math.pi / 2 - math.atan(theta**-0.5)))
    general_form = 1.0 / (1.0 + theta**0.5 * _g_general(4.0, theta**-0.5))
    assert abs(value - arccot_form) <= 5e-4
    assert abs(value - general_form) <= 5e-4
    assert value == pytest.approx(0.3469, abs=5e-4)
    for density, seed in ((1e-5, 101), (5e-5, 202)):
        est = mc_stp_mbs(density, 4.0, theta,
                         SimConfig(trials=50_000, master_seed=seed))
        assert abs(est.mean - value) <= 3.0 * est.stderr, \
            f"density {density}: {est.mean} vs {value}"
    _passed("3 (mbs probability + density independence)")


def test_criterion_4_demand_model():
    """Demand law: normalization at 1e-12 for randomized shapes, exact Zipf
    reduction, and the preference zeros."""
    rng = np.random.default_rng(8)
    for _ in range(20):
        lib = ContentLibrary.uniform(
            int(rng.integers(2, 80)), int(rng.integers(2, 6)), 1e6,
            skewness=float(rng.uniform(0.0, 3.0)),
            plateau=float(rng.uniform(0.0, 10.0)))
        assert abs(request_distribution(lib).sum() - 1.0) <= 1e-12
        pref = preference_matrix(lib)
        assert abs(pref.sum() - 1.0) <= 1e-12
        assert pref[0, 0] == 0.0
        assert np.all(pref[-1, 1:] == 0.0)
    plain = ContentLibrary.uniform(30, 2, 1e6, skewness=1.2, plateau=0.0)
    ranks = np.arange(1, 31, dtype=float)
    zipf = ranks**-1.2 / (ranks**-1.2).sum()
    assert np.array_equal(request_distribution(plain), zipf)
    _passed("4 (demand model)")


def test_criterion_5_projection_operator():
    """Uniform-shift projection: box exact, budget equality at 1e-6,
    idempotence at 1e-9, hand cases."""
    rng = np.random.default_rng(13)
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        sizes = rng.uniform(0.1, 40.0, n)
        p_hat = rng.uniform(-1.0, 2.0, n)
        budget = float(rng.uniform(0.02, 0.98) * sizes.sum())
        out = project_budget(p_hat, sizes, budget)
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert abs(float((sizes * out).sum()) - budget) <= 1e-6 * budget
        again = project_budget(out, sizes, budget)
        assert np.max(np.abs(again - out)) <= 1e-9
    assert project_budget(np.array([0.9]), np.array([10.0]), 5.0) \
        == pytest.approx([0.5], abs=1e-9)
    assert project_budget(np.array([1.4, 0.5]), np.array([1.0, 1.0]), 1.5) \
        == pytest.approx([1.0, 0.5], abs=1e-9)
    assert project_budget(np.array([0.8, 0.6]), np.array([1.0, 1.0]), 1.0) \
        == pytest.approx([0.6, 0.4], abs=1e-9)
    _passed("5 (projection operator, 1000 instances)")


def test_criterion_6_optimizer_vs_oracle(geoms, radio):
    """Two files, two layers, budgets at half the catalog: the solver's
    best delay within 1% of the 0.02-grid oracle minimum."""
    start = time.monotonic()
    lib = ContentLibrary.uniform(2, 2, 25e6, skewness=1.0, plateau=5.0)
    half = total_catalog_bits(lib) / 2
    budgets = CacheBudgets(m_d=half, m_s=half)
    _, oracle_value = grid_oracle(lib, geoms, radio, budgets, grid_step=0.02)
    result = optimize(lib, geoms, radio, budgets)
    assert result.best_delay <= 1.01 * oracle_value, \
        f"optimize {result.best_delay} vs oracle {oracle_value}"
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"criterion 6 took {elapsed:.0f}s"
    _passed(f"6 (optimizer within {result.best_delay / oracle_value - 1:.2%} "
            f"of oracle, {elapsed:.0f}s)")


def test_criterion_7_baseline_ordering_and_trends():
    """Across the five parameter sweeps: optimized <= MPCP <= max(EPCP, ICP)
    everywhere, and the optimized delay moves the right way with theta,
    cache sizes and backhaul rate."""
    cfg = default_config()
    sweeps = {
        "radio.sir_threshold_db": SweepSpec("radio.sir_threshold_db", 3.0, 7.0, 5),
        "budgets.d2d_bits": SweepSpec("budgets.d2d_bits", 100e6, 300e6, 5),
        "budgets.sbs_bits": SweepSpec("budgets.sbs_bits", 300e6, 700e6, 5),
        "content.skewness": SweepSpec("content.skewness", 0.5, 1.5, 5),
        "radio.backhaul_rate_bps": SweepSpec("radio.backhaul_rate_bps",
                                             2e6, 32e6, 5),
    }
    optimized = {}
    for name, sweep in sweeps.items():
        rows = run_optimize_and_compare(cfg, sweep)
        for row in rows:
            blind = max(row["delay_epcp"], row["delay_icp"])
            assert row["delay_optimized"] <= row["delay_mpcp"] <= blind, \
                f"{name}={row['value']}: ordering broken"
        optimized[name] = [row["delay_optimized"] for row in rows]
    assert np.all(np.diff(optimized["radio.sir_threshold_db"]) > 0), \
        "delay must increase with the SIR threshold"
    for name in ("budgets.d2d_bits", "budgets.sbs_bits",
                 "radio.backhaul_rate_bps"):
        assert np.all(np.diff(optimized[name]) < 0), \
            f"delay must decrease along {name}"
    _passed("7 (baseline ordering + sweep trends)")


def test_criterion_8_convergence():
    """Solver at defaults: tolerance met within 100 iterations, best-so-far
    trajectory non-increasing, final delays ordered by theta."""
    cfg = default_config()
    finals = {}
    for theta_db in (3.0, 5.0, 7.0):
        point = cfg.with_values(**{"radio.sir_threshold_db": theta_db})
        result = optimize(point.library, point.geometry, point.radio,
                          point.budgets, point.optimizer)
        best_so_far = np.minimum.accumulate(result.delay_trajectory)
        assert np.all(np.diff(best_so_far) <= 0)
        finals[theta_db] = result.best_delay
        if theta_db == 5.0:  # the default setting
            assert result.converged and result.iterations_run <= 100
    assert finals[3.0] < finals[5.0] < finals[7.0]
    _passed("8 (convergence)")


def test_criterion_9_structural_identities(lib, geoms, radio):
    """Branch-weight partition of unity, the all-miss closed form, and hit
    rate monotonicity on an 11x11 policy grid."""
    rng = np.random.default_rng(23)
    hit_d = hit_term(rng.random(lib.shape), geoms.d2d, radio.sir_threshold)
    hit_s = hit_term(rng.random(lib.shape), geoms.sbs, radio.sir_threshold)
    weights = hit_d + (1 - hit_d) * hit_s + (1 - hit_d) * (1 - hit_s)
    assert np.max(np.abs(weights - 1.0)) <= 1e-12

    zero = CachingPolicy.zeros(*lib.shape)
    gap = abs(overall_delay(zero, lib, geoms, radio).total
              - all_miss_delay(lib, geoms, radio))
    assert gap <= 1e-12

    grid = np.linspace(0.0, 1.0, 11)
    surface = np.array([[hit_rate(3, 2, pd, ps, lib, geoms, radio)
                         for ps in grid] for pd in grid])
    assert np.all(np.diff(surface, axis=0) >= -1e-15)
    assert np.all(np.diff(surface, axis=1) >= -1e-15)
    _passed("9 (structural identities)")
