import math

import numpy as np
import pytest

from svcache import (
    CacheBudgets,
    CachingPolicy,
    SimConfig,
    all_miss_delay,
    grid_oracle,
    hit_rate,
    hit_term,
    mc_delay_end_to_end,
    objective_gradient,
    overall_delay,
    preference_matrix,
    stp_mbs,
    total_catalog_bits,
)
from svcache.content import ContentLibrary
from svcache.delay import _cascade, branch_costs, cell_delay_matrix
from svcache.geometry import _HIT_BUFFERS, RadioConfig, _hit, _hit_buffers, _stacked_terms

THETA = 10.0**0.5
LOG_TERM = math.log2(1.0 + THETA)


def test_branch_kernel_d2d_arithmetic():
    # hand numbers: hit 0.18087 on a 50 Mbit item over 20 MHz
    radio = RadioConfig(THETA, 20e6, 20e6, 10e6, 100e6)
    d2d, _, _ = _cascade(0.18087, 0.0, *branch_costs(50e6, 0.3469, radio))
    assert d2d == pytest.approx(0.18087 * 50e6 / (20e6 * LOG_TERM), rel=1e-12)
    assert d2d == pytest.approx(0.2198, abs=2e-4)


def test_branch_kernel_sbs_arithmetic():
    radio = RadioConfig(THETA, 20e6, 20e6, 10e6, 100e6)
    _, sbs, _ = _cascade(0.18087, 0.5, *branch_costs(50e6, 0.3469, radio))
    assert sbs == pytest.approx((1 - 0.18087) * 0.5 * 50e6 / (20e6 * LOG_TERM),
                                rel=1e-12)
    assert sbs == pytest.approx(0.4977, abs=2e-4)


def test_branch_kernel_mbs_arithmetic():
    radio = RadioConfig(THETA, 20e6, 20e6, 10e6, 100e6)
    _, _, mbs = _cascade(0.0, 0.0, *branch_costs(50e6, 0.3469, radio))
    expected = 50e6 / 100e6 + 0.3469 * 50e6 / (10e6 * LOG_TERM)
    assert mbs == pytest.approx(expected, rel=1e-12)
    assert mbs == pytest.approx(1.3432, abs=2e-4)


def _cell(part, f, l, p_d, p_s, lib, geoms, radio):
    """One cell of a partial-delay matrix of overall_delay, the cell's
    caching probabilities set and every other cell at zero."""
    pd, ps = np.zeros(lib.shape), np.zeros(lib.shape)
    pd[f - 1, l - 1], ps[f - 1, l - 1] = p_d, p_s
    breakdown = overall_delay(CachingPolicy(pd, ps), lib, geoms, radio)
    return float(getattr(breakdown, part)[f - 1, l - 1])


def test_partial_delays_zero_cases(lib, geoms, radio):
    assert _cell("d2d", 1, 2, 0.0, 0.0, lib, geoms, radio) == 0.0
    assert _cell("sbs", 1, 2, 0.5, 0.0, lib, geoms, radio) == 0.0


def test_partial_delay_scales_with_item_size(lib, geoms, radio):
    one = _cell("d2d", 4, 1, 0.5, 0.0, lib, geoms, radio)
    two = _cell("d2d", 4, 2, 0.5, 0.0, lib, geoms, radio)
    assert two == pytest.approx(2.0 * one, rel=1e-12)  # uniform layers: c doubles


def test_partial_delay_consistency_with_hit_terms(lib, geoms, radio):
    hd = hit_term(0.4, geoms.d2d, radio.sir_threshold)
    hs = hit_term(0.7, geoms.sbs, radio.sir_threshold)
    pm = stp_mbs(geoms.mbs.pathloss, radio.sir_threshold)
    c = 50e6
    assert _cell("sbs", 2, 2, 0.4, 0.7, lib, geoms, radio) \
        == pytest.approx((1 - hd) * hs * c / (20e6 * LOG_TERM), rel=1e-12)
    assert _cell("mbs", 2, 2, 0.4, 0.7, lib, geoms, radio) == pytest.approx(
        (1 - hd) * (1 - hs) * c * (1 / radio.backhaul_rate + pm / (10e6 * LOG_TERM)),
        rel=1e-12)


def test_mbs_delay_decreasing_in_backhaul_rate(lib, geoms):
    values = []
    for rate in (1e6, 5e6, 20e6, 100e6):
        radio = RadioConfig(THETA, 20e6, 20e6, 10e6, rate)
        values.append(_cell("mbs", 1, 2, 0.2, 0.2, lib, geoms, radio))
    assert np.all(np.diff(values) < 0)


def test_overall_delay_breakdown(lib, geoms, radio):
    rng = np.random.default_rng(3)
    policy = CachingPolicy(rng.random(lib.shape), rng.random(lib.shape))
    bd = overall_delay(policy, lib, geoms, radio)
    weights = preference_matrix(lib)
    assert bd.total >= 0
    assert bd.total == pytest.approx(float((weights * bd.per_cell).sum()),
                                     rel=1e-12)
    assert np.all(bd.d2d >= 0) and np.all(bd.sbs >= 0) and np.all(bd.mbs >= 0)
    # spot-check one cell against the scalar operations
    f, l = 5, 2
    a, _, _ = branch_costs(lib.super_layer_sizes[f - 1, l - 1], 0.0, radio)
    assert bd.d2d[f - 1, l - 1] == pytest.approx(
        hit_term(policy.p_d[f - 1, l - 1], geoms.d2d, radio.sir_threshold) * a,
        rel=1e-12)


def test_branch_weights_partition_unity(lib, geoms, radio):
    rng = np.random.default_rng(11)
    hd = hit_term(rng.random(lib.shape), geoms.d2d, radio.sir_threshold)
    hs = hit_term(rng.random(lib.shape), geoms.sbs, radio.sir_threshold)
    total = hd + (1 - hd) * hs + (1 - hd) * (1 - hs)
    assert np.allclose(total, 1.0, rtol=0, atol=1e-12)


def test_all_miss_closed_form(lib, geoms, radio):
    zero = CachingPolicy.zeros(*lib.shape)
    assert overall_delay(zero, lib, geoms, radio).total == pytest.approx(
        all_miss_delay(lib, geoms, radio), abs=1e-12)


def test_delay_non_increasing_in_single_entries(lib, geoms, radio):
    base_pd = np.full(lib.shape, 0.3)
    base_ps = np.full(lib.shape, 0.3)
    base = overall_delay(CachingPolicy(base_pd, base_ps), lib, geoms, radio).total
    for f, l in ((0, 0), (0, 1), (9, 0), (19, 1)):
        for tier in ("d", "s"):
            pd, ps = base_pd.copy(), base_ps.copy()
            (pd if tier == "d" else ps)[f, l] = 0.8
            bumped = overall_delay(CachingPolicy(pd, ps), lib, geoms, radio).total
            assert bumped <= base + 1e-15


def test_hit_rate_values_and_monotonicity(lib, geoms, radio):
    assert hit_rate(1, 1, 0.0, 0.0, lib, geoms, radio) == 0.0
    hd = hit_term(0.5, geoms.d2d, radio.sir_threshold)
    hs = hit_term(0.5, geoms.sbs, radio.sir_threshold)
    assert hit_rate(1, 2, 0.5, 0.5, lib, geoms, radio) == pytest.approx(
        1 - (1 - hd) * (1 - hs), rel=1e-12)
    grid = np.linspace(0.0, 1.0, 11)
    surface = np.array([[hit_rate(1, 2, pd, ps, lib, geoms, radio)
                         for ps in grid] for pd in grid])
    assert np.all(np.diff(surface, axis=0) >= -1e-15)
    assert np.all(np.diff(surface, axis=1) >= -1e-15)
    assert surface.min() >= 0.0 and surface.max() <= 1.0


@pytest.mark.parametrize("f, l", [(999, 7), (0, 1), (21, 1), (1, 0), (1, 3)])
def test_hit_rate_rejects_an_item_outside_the_catalog(lib, geoms, radio, f, l):
    with pytest.raises(IndexError, match="out of range"):
        hit_rate(f, l, 0.3, 0.4, lib, geoms, radio)


def test_hand_computed_hit_rate():
    # 1 - (1 - 0.18087) * (1 - 0.5) with injected hit terms
    assert 1 - (1 - 0.18087) * 0.5 == pytest.approx(0.59044, abs=1e-5)


@pytest.mark.parametrize("evaluate", [
    overall_delay,
    objective_gradient,
    lambda *args: mc_delay_end_to_end(*args, SimConfig(trials=64)),
], ids=["overall_delay", "objective_gradient", "mc_delay_end_to_end"])
@pytest.mark.parametrize("shape", [(3, 2), (40, 2), (2, 40), (20, 1), (1, 2)],
                         ids=["3x2", "40x2", "2x40", "20x1", "1x2"])
def test_overall_delay_shape_mismatch(lib, geoms, radio, evaluate, shape):
    bad = CachingPolicy(np.zeros(shape), np.zeros(shape))
    with pytest.raises(ValueError, match="does not match catalog"):
        evaluate(bad, lib, geoms, radio)


@pytest.mark.parametrize("p_d,p_s", [
    (np.full((1, 2), 0.3), np.full((1, 2), 0.3)),
    (0.3, 0.3),
    (np.full((2, 20), 0.3), np.full((2, 20), 0.3)),
    (np.full((20, 2), 0.3), np.full((1, 2), 0.3)),
], ids=["1x2", "scalar", "2x20", "sbs-1x2"])
def test_cell_delay_matrix_rejects_mis_shaped_matrices(lib, geoms, radio, p_d, p_s):
    # broadcasting a (1, 2) matrix or a scalar over the 20x2 catalog would
    # price a full 0.3 policy; a (2, 20) one would fail inside numpy
    with pytest.raises(ValueError, match="^policy shape .* does not match catalog"):
        cell_delay_matrix(p_d, p_s, lib, geoms, radio)


def test_cache_budgets_validation():
    with pytest.raises(ValueError):
        CacheBudgets(m_d=0.0, m_s=1.0)
    with pytest.raises(ValueError):
        CacheBudgets(m_d=1.0, m_s=-5.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="^m_d must be finite"):
            CacheBudgets(m_d=bad, m_s=1.0)
        with pytest.raises(ValueError, match="^m_s must be finite"):
            CacheBudgets(m_d=1.0, m_s=bad)


@pytest.mark.parametrize("file_count", [20, 5_000], ids=["default", "5000-files"])
def test_stacked_hits_equal_per_tier_hit_term(lib, geoms, radio, file_count):
    # 5 000 files split into slices at row 4 096 as well as whole: the
    # stacked terms broadcast against any row range.  hit_term goes through
    # q_factor, a path independent of the stacked constants
    if file_count != lib.file_count:
        lib = ContentLibrary.uniform(file_count, 2, 25e6, skewness=1.0, plateau=5.0)
    theta = radio.sir_threshold
    area, terms = _stacked_terms(geoms, theta)
    rng = np.random.default_rng(file_count)
    stacks = [rng.random((2, *lib.shape)) for _ in range(3)]
    stacks += [np.zeros((2, *lib.shape)), np.ones((2, *lib.shape))]
    mixed = rng.random((2, *lib.shape))
    mixed[:, ::3], mixed[:, 1::3] = 0.0, 1.0
    stacks.append(mixed)
    split = 4096

    def hit(p, area, terms):
        return _hit(p, area, -area, terms,
                    _hit_buffers(np.empty((_HIT_BUFFERS, *p.shape))))

    for p in stacks:
        for rows in (slice(None), slice(0, split), slice(split, None)):
            hits, slope = hit(p[:, rows], area, terms)
            for tier, geom in enumerate((geoms.d2d, geoms.sbs)):
                assert np.array_equal(hits[tier], hit_term(p[tier, rows], geom, theta))
                want = hit(p[tier, rows], area[tier], terms[:, tier])[1]
                assert np.array_equal(slope[tier], want)


def test_delay_readers_build_no_stacked_terms(lib, geoms, radio, monkeypatch):
    # overall_delay, cell_delay_matrix, all_miss_delay and grid_oracle read
    # only the weights and branch costs; the tier terms serve the gradient
    from svcache import delay, geometry, optimizer

    toy = ContentLibrary.uniform(2, 2, 25e6, skewness=1.0, plateau=5.0)
    half = total_catalog_bits(toy) / 2
    toy_budgets = CacheBudgets(m_d=half, m_s=half)
    expected = (overall_delay(CachingPolicy.zeros(*lib.shape), lib, geoms, radio).total,
                all_miss_delay(lib, geoms, radio),
                grid_oracle(toy, geoms, radio, toy_budgets, grid_step=0.05)[1])

    def refused(*args):
        raise AssertionError("tier terms built for a reader of w and costs")

    monkeypatch.setattr(geometry, "_stacked_terms", refused)
    monkeypatch.setattr(optimizer, "_stacked_terms", refused)
    zero = CachingPolicy.zeros(*lib.shape)
    assert overall_delay(zero, lib, geoms, radio).total == expected[0]
    assert delay.cell_delay_matrix(zero.p_d, zero.p_s, lib, geoms, radio).sum() == expected[0]
    assert all_miss_delay(lib, geoms, radio) == expected[1]
    assert grid_oracle(toy, geoms, radio, toy_budgets, grid_step=0.05)[1] == expected[2]
    with pytest.raises(AssertionError, match="tier terms"):
        objective_gradient(zero, lib, geoms, radio)
