import hashlib
import itertools
import math
import time
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from svcache import (
    CacheBudgets,
    CachingPolicy,
    ContentLibrary,
    NetworkGeometry,
    RadioConfig,
    all_miss_delay,
    epcp,
    grid_oracle,
    hit_term,
    icp,
    mpcp,
    objective_gradient,
    optimize,
    overall_delay,
    preference_matrix,
    project_budget,
    total_catalog_bits,
)
from svcache import optimizer
from svcache.delay import _weights_and_costs, cell_delay_matrix
from svcache.optimizer import OptimizerConfig, _grid_candidates


@pytest.fixture(scope="module")
def toy_lib():
    return ContentLibrary.uniform(2, 2, 25e6, skewness=1.0, plateau=5.0)


@pytest.fixture(scope="module")
def toy_budgets(toy_lib):
    half = total_catalog_bits(toy_lib) / 2
    return CacheBudgets(m_d=half, m_s=half)


# ---------------------------------------------------------------------------
# budget projection
# ---------------------------------------------------------------------------

def test_project_single_entry():
    out = project_budget(np.array([[0.9]]), np.array([[10.0]]), 5.0)
    assert out[0, 0] == pytest.approx(0.5, abs=1e-9)


def test_project_capping_case():
    out = project_budget(np.array([1.4, 0.5]), np.array([1.0, 1.0]), 1.5)
    assert out == pytest.approx([1.0, 0.5], abs=1e-9)


def test_project_interior_shift():
    out = project_budget(np.array([0.8, 0.6]), np.array([1.0, 1.0]), 1.0)
    assert out == pytest.approx([0.6, 0.4], abs=1e-9)


def test_project_non_binding_budget():
    sizes = np.array([2.0, 3.0])
    out = project_budget(np.array([0.1, 0.2]), sizes, 10.0)
    assert np.all(out == 1.0)


def test_project_domain_error():
    with pytest.raises(ValueError, match=r"^budget must be strictly positive, got 0\.0$"):
        project_budget(np.array([0.5]), np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        project_budget(np.array([0.5]), np.array([0.0]), 1.0)
    with pytest.raises(ValueError):  # trailing shape must match sizes
        project_budget(np.zeros((4, 2)), np.ones((2, 4)), 1.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            project_budget(np.array([0.5, bad, 0.2]), np.ones(3), 1.0)
        with pytest.raises(ValueError):
            project_budget(np.array([0.5, 0.4, 0.2]), np.array([1.0, bad, 1.0]), 1.0)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 24),
)
def test_project_properties(data, n):
    rng_seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(rng_seed)
    sizes = rng.uniform(0.1, 50.0, n)
    p_hat = rng.uniform(-1.0, 2.0, n)
    budget = float(rng.uniform(0.01, 1.2) * sizes.sum())
    out = project_budget(p_hat, sizes, budget)
    assert out.min() >= 0.0 and out.max() <= 1.0  # box exact
    usage = float((sizes * out).sum())
    if budget < sizes.sum():
        assert abs(usage - budget) <= 1e-6 * budget  # binding: equality
    else:
        assert np.all(out == 1.0)
    again = project_budget(out, sizes, budget)
    assert np.max(np.abs(again - out)) <= 1e-9  # idempotent
    # a stack of rows in one call equals the rows one at a time
    stack = rng.uniform(-1.0, 2.0, (int(rng.integers(1, 40)), n))
    batched = project_budget(stack, sizes, budget)
    single = np.array([project_budget(row, sizes, budget) for row in stack])
    assert batched.shape == stack.shape
    assert np.max(np.abs(batched - single)) <= 1e-15
    if budget < sizes.sum():
        assert np.all(np.abs(batched @ sizes - budget) <= 1e-12 * budget)


def _reference_usage(rows, sizes):
    """Each (n,) row's 2n sorted breakpoints and the usage at each, as the
    breakpoint projection was first written."""
    capacity = sizes.sum()
    points = np.concatenate((rows - 1.0, rows), axis=1)
    order = np.argsort(points, axis=1, kind="stable")
    points = np.take_along_axis(points, order, axis=1)
    slope = np.cumsum(np.concatenate((-sizes.ravel(), sizes.ravel()))[order], axis=1)
    usage = np.empty_like(points)
    usage[:, 0] = capacity
    usage[:, 1:] = capacity + np.cumsum(slope[:, :-1] * np.diff(points, axis=1), axis=1)
    usage[:, -1] = 0.0
    return points, usage


def _project_budget_reference(p_hat, sizes, budget):
    """The breakpoint projection as first written, gathering each sorted
    value through per-axis ``np.take_along_axis`` index arrays."""
    p_hat = np.asarray(p_hat, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    if budget >= sizes.sum():
        return np.ones_like(p_hat)
    rows = p_hat.reshape(-1, sizes.size)
    points, usage = _reference_usage(rows, sizes)
    k = np.argmax(usage[:, 1:] <= budget, axis=1)[:, None]
    lo, hi = (np.take_along_axis(points, j, axis=1) for j in (k, k + 1))
    above, below = (np.take_along_axis(usage, j, axis=1) for j in (k, k + 1))
    u = lo + (above - budget) / (above - below) * (hi - lo)
    return np.clip(rows - u, 0.0, 1.0).reshape(p_hat.shape)


@pytest.mark.parametrize("fraction", [1e-9, 1e-3, 0.3, 0.5, 0.9, 1.0 - 1e-9],
                         ids=["tiny", "small", "0.3", "half", "0.9", "near-capacity"])
def test_project_matches_take_along_axis_reference(lib, fraction):
    rng = np.random.default_rng(int(fraction * 1e6))
    sizes = lib.super_layer_sizes
    budget = fraction * sizes.sum()
    # 79, 80 and 81 blocks of 2n = 80 breakpoints straddle the projector's
    # switch from row-major to breakpoint-major work buffers
    for shape in ((20, 2), (7, 20, 2), (79, 20, 2), (80, 20, 2), (81, 20, 2)):
        p_hat = rng.uniform(-1.0, 2.0, shape)
        assert np.array_equal(project_budget(p_hat, sizes, budget),
                              _project_budget_reference(p_hat, sizes, budget))
    # a wide batch of few distinct values: tied breakpoints everywhere
    tied = rng.choice([-0.5, 0.0, 0.25, 0.5, 1.0, 1.5], (81, 20, 2))
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        got = project_budget(tied, sizes, budget)
    assert np.array_equal(got, _project_budget_reference(tied, sizes, budget))
    # the first 65 536 rows of the 4-cell grid at step 0.05
    cells = np.array([1.0, 2.0, 3.0, 4.0]) * 25e6
    values = np.linspace(0.0, 1.0, 21)
    grid = values[np.indices((21,) * 4).reshape(4, -1).T[:65_536]]
    budget = fraction * cells.sum()
    assert np.array_equal(project_budget(grid, cells, budget),
                          _project_budget_reference(grid, cells, budget))


# non-integer sizes: across a flat usage segment, where every entry sits at
# 0 or 1, the signed slopes cancel only to +-eps, so the usage can rise there
_PLATEAU_SIZES = np.array([0.1, 0.2, 0.3, 0.7])
_PLATEAU_VALUES = (-0.3, 0.0, 0.05, 0.1, 0.15, 2.0, 2.05, 2.1, 3.0)


def _plateau_batch(rng, blocks):
    """Rows of few values spread over [-0.3, 3], many with a gap wider than
    1 between two entries (a flat usage segment); the first half is tiled
    from two rows whose usage rises along theirs."""
    rising = np.array([[0.1, 0.0, 3.0, 0.0], [0.15, 0.1, 2.0, 0.05]])
    drawn = rng.choice(_PLATEAU_VALUES, (blocks - blocks // 2, 4))
    return np.concatenate((np.resize(rising, (blocks // 2, 4)), drawn))


def test_wide_crossing_is_the_first_on_a_rising_plateau():
    # 40 blocks of 2n = 8 breakpoints are worked breakpoint-major; a level
    # set on either end of a rising step must pick the first crossing, as
    # argmax in the reference and the row-major layout of one block do
    sizes = _PLATEAU_SIZES
    batch = _plateau_batch(np.random.default_rng(29), 40)
    assert optimizer._Projector(sizes, np.ones((40, 1)))._wide
    _, usage = _reference_usage(batch, sizes)
    rises = usage[:, 1:-2] < usage[:, 2:-1]
    assert rises.sum() >= 20
    levels = sorted({*usage[:, 1:-2][rises], *usage[:, 2:-1][rises]})
    assert len(levels) >= 2
    for level in levels:
        got = project_budget(batch, sizes, level)
        assert got.tobytes() == _project_budget_reference(batch, sizes, level).tobytes()
        assert got.tobytes() == np.array(
            [project_budget(row, sizes, level) for row in batch]).tobytes()
    stacked = project_budget(batch, sizes, levels)
    for projected, level in zip(stacked, levels):
        assert projected.tobytes() == project_budget(batch, sizes, level).tobytes()


def test_wide_crossing_counts_past_a_byte():
    # 2n - 2 = 298 inner ranks: a low budget crosses past rank 255, so the
    # crossing count needs more than a byte
    rng = np.random.default_rng(37)
    sizes = rng.uniform(0.5, 3.0, 150)
    batch = rng.uniform(-1.0, 2.0, (400, 150))
    for fraction in (0.01, 0.5, 0.99):
        budget = fraction * sizes.sum()
        assert project_budget(batch, sizes, budget).tobytes() == \
            _project_budget_reference(batch, sizes, budget).tobytes()


@pytest.mark.parametrize("fractions", [(0.4,), (0.3, 0.7, 1.0)], ids=["one", "with-full"])
def test_reused_wide_projector_writes_each_batch_into_out(fractions):
    # one breakpoint-major projector, as the grid oracle reuses it, on
    # several batches: each result is written into the given array with the
    # bits of a fresh project_budget call, and none shares the projector's
    # work buffers
    rng = np.random.default_rng(31)
    sizes = _PLATEAU_SIZES
    levels = [fraction * sizes.sum() for fraction in fractions]
    project = optimizer._Projector(sizes, np.full((40, len(levels)), levels))
    buffers = [value for value in vars(project).values() if isinstance(value, np.ndarray)]
    results = []
    for _ in range(4):
        batch = _plateau_batch(rng, 40)
        expected = project_budget(batch, sizes, levels if len(levels) > 1 else levels[0])
        out = np.empty(expected.shape)
        assert project(batch, out=out) is out
        assert out.tobytes() == expected.tobytes()
        fresh = project(batch)
        assert fresh.tobytes() == expected.tobytes()
        for got in (out, fresh):
            assert not any(np.shares_memory(got, buffer) for buffer in buffers)
        results.append((out, fresh, expected))
    for out, fresh, expected in results:
        assert out.tobytes() == fresh.tobytes() == expected.tobytes()


def _kernel(p_hat, sizes, budget):
    """``optimizer._Projector`` on checked input, as ``optimize`` calls it."""
    return optimizer._Projector(sizes, budget)(np.asarray(p_hat, dtype=float))


@pytest.mark.parametrize("duplicates", [False, True], ids=["random", "duplicates"])
def test_project_two_row_kernel_matches_scalar_calls(lib, duplicates):
    rng = np.random.default_rng(11)
    sizes = lib.super_layer_sizes
    capacity = sizes.sum()
    for _ in range(50):
        if duplicates:  # few distinct values: tied breakpoints everywhere
            pair = rng.choice([-0.5, 0.0, 0.25, 0.5, 1.0, 1.5], (2, 20, 2))
        else:
            pair = rng.uniform(-1.0, 2.0, (2, 20, 2))
        m_d, m_s = rng.uniform(1e-6, 1.0, 2) * capacity
        column = np.array([[m_d], [m_s]])
        got = _kernel(pair, sizes, column)
        assert got.shape == pair.shape
        assert np.array_equal(got[0], project_budget(pair[0], sizes, m_d))
        assert np.array_equal(got[1], project_budget(pair[1], sizes, m_s))


@pytest.mark.parametrize("factor", [1.0, 3.0], ids=["at-capacity", "above"])
def test_project_full_row_is_exact_ones(lib, factor):
    sizes = lib.super_layer_sizes
    capacity = sizes.sum()
    # equal entries make the first usage segment flat: 0/0 if interpolated
    pair = np.stack((np.full((20, 2), 0.3),
                     np.random.default_rng(2).uniform(-1.0, 2.0, (20, 2))))
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for column in (np.array([[factor * capacity], [0.4 * capacity]]),
                       np.array([[0.4 * capacity], [factor * capacity]]),
                       np.array([[factor * capacity], [factor * capacity]])):
            got = _kernel(pair, sizes, column)
            assert not np.isnan(got).any()
            for row, budget in enumerate(column[:, 0]):
                if budget >= capacity:
                    assert np.array_equal(got[row], np.ones((20, 2)))
                else:
                    assert np.array_equal(got[row],
                                          project_budget(pair[row], sizes, budget))
        assert np.array_equal(project_budget(pair[0], sizes, factor * capacity),
                              np.ones((20, 2)))


@pytest.mark.parametrize("fractions", [(0.2, 0.7, 1.0, 0.05)], ids=["column"])
def test_projector_reused_matches_project_budget_row_by_row(lib, fractions):
    # one projector, as optimize builds it, applied to seeded random
    # stacked iterates; the third row's budget is at the capacity: exact ones
    rng = np.random.default_rng(13)
    sizes = lib.super_layer_sizes
    budget = np.array(fractions)[:, None] * sizes.sum()
    project = optimizer._Projector(sizes, budget)
    results = []
    for _ in range(4):
        stack = rng.uniform(-1.0, 2.0, (len(fractions), *sizes.shape))
        got = project(stack)
        assert got.shape == stack.shape
        for matrix, level, projected in zip(stack, budget[:, 0], got):
            assert projected.tobytes() == project_budget(matrix, sizes, level).tobytes()
        results.append((got, got.copy()))
    # no result aliases the reused buffers: later calls leave it alone
    for got, kept in results:
        assert got.tobytes() == kept.tobytes()
    for (first, _), (second, _) in itertools.combinations(results, 2):
        assert not np.shares_memory(first, second)


@pytest.mark.parametrize("factor", [0.3, 1.0, 3.0], ids=["binding", "at-capacity", "above"])
def test_project_budget_empty_and_all_full_batches(lib, factor):
    # an empty batch has no rows to sort; a batch whose budget leaves every
    # row full is solved at level 0 and comes back as exact ones, no 0/0
    sizes = lib.super_layer_sizes
    budget = factor * sizes.sum()
    empty = project_budget(np.empty((0, *sizes.shape)), sizes, budget)
    assert empty.shape == (0, *sizes.shape)
    if factor >= 1.0:
        stack = np.random.default_rng(5).uniform(-1.0, 2.0, (3, *sizes.shape))
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            assert np.array_equal(project_budget(stack, sizes, budget),
                                  np.ones(stack.shape))


@pytest.mark.parametrize("budget", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
def test_project_rejects_non_positive_budget(budget):
    with pytest.raises(ValueError, match="^budget"):
        project_budget(np.array([0.5, 0.2]), np.ones(2), budget)


@pytest.mark.parametrize("position", [0, 1, 2])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
def test_project_budget_names_each_rejected_budget(bad, position):
    budgets = [1.0, 2.0, 0.5]
    budgets[position] = bad
    with pytest.raises(ValueError,
                       match=rf"^budget must be strictly positive, got {bad!r}$"):
        project_budget(np.array([0.5, 0.2]), np.ones(2), budgets)
    for shape in ([], [[1.0, 2.0]]):  # no budget, or a table of them
        with pytest.raises(ValueError, match="^budget must be a number or a non-empty"):
            project_budget(np.array([0.5, 0.2]), np.ones(2), shape)


@pytest.mark.parametrize("fractions", [(0.3,), (0.5, 0.5), (0.2, 1.0, 0.7, 3.0)],
                         ids=["one", "equal-pair", "with-full"])
def test_project_budget_stacks_one_projection_per_budget(lib, fractions):
    # one sort of each block's breakpoints serves every budget: each slice
    # is the one-budget projection bit for bit, a full budget exact ones
    rng = np.random.default_rng(17)
    sizes = lib.super_layer_sizes
    capacity = sizes.sum()
    levels = [fraction * capacity for fraction in fractions]
    # 79, 80 and 81 blocks straddle the switch to breakpoint-major buffers
    # at 2n = 80; the last batch is of few distinct values, tied everywhere
    for batch in ((), (3,), (2, 5), (79,), (80,), (81,), (3, 27)):
        p_hat = rng.uniform(-1.0, 2.0, (*batch, *sizes.shape))
        if batch == (3, 27):
            p_hat = rng.choice([-0.5, 0.0, 0.25, 0.5, 1.0, 1.5], p_hat.shape)
        # equal entries make the first usage segment flat: 0/0 if a full
        # budget were interpolated
        p_hat.reshape(-1, *sizes.shape)[0] = 0.3
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            got = project_budget(p_hat, sizes, levels)
        assert got.shape == (len(levels), *p_hat.shape)
        for projected, level in zip(got, levels):
            assert projected.tobytes() == project_budget(p_hat, sizes, level).tobytes()
            if level >= capacity:
                assert np.array_equal(projected, np.ones(p_hat.shape))
            else:
                assert projected.tobytes() == _project_budget_reference(
                    p_hat, sizes, level).tobytes()


def test_optimize_keeps_a_non_binding_tier_at_ones(lib, geoms, radio, budgets):
    capacity = lib.super_layer_sizes.sum()
    result = optimize(lib, geoms, radio, CacheBudgets(2.0 * capacity, budgets.m_s),
                      OptimizerConfig(initial_policy="epcp", max_iterations=10))
    assert np.array_equal(result.best_policy.p_d, np.ones(lib.shape))
    assert result.budget_residual_d == [0.0] * result.iterations_run


def test_optimize_rejects_non_finite_iterate(lib, geoms, radio, budgets,
                                             monkeypatch):
    # the workspace's gradient blows up after each call (the start's too)
    call = optimizer._Objective.__call__

    def blown_up(self, p):
        delay = call(self, p)
        self.grad.fill(np.inf)
        return delay

    monkeypatch.setattr(optimizer._Objective, "__call__", blown_up)
    with pytest.raises(ValueError, match="not finite"):
        optimize(lib, geoms, radio, budgets)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_gradient_negative_at_all_miss(lib, geoms, radio):
    zero = CachingPolicy.zeros(*lib.shape)
    _, grad_d, grad_s = objective_gradient(zero, lib, geoms, radio)
    weights = preference_matrix(lib)
    assert np.all(grad_d[weights > 0] < 0)
    assert np.all(grad_s[weights > 0] < 0)


def test_gradient_zero_for_zero_weight_cells(lib, geoms, radio):
    rng = np.random.default_rng(0)
    policy = CachingPolicy(rng.random(lib.shape), rng.random(lib.shape))
    _, grad_d, grad_s = objective_gradient(policy, lib, geoms, radio)
    weights = preference_matrix(lib)
    scale = np.abs(grad_d).max()
    assert np.all(np.abs(grad_d[weights == 0]) <= 1e-6 * scale)
    assert np.all(np.abs(grad_s[weights == 0]) <= 1e-6 * scale)


def test_gradient_matches_literal_per_entry_differences(geoms, radio):
    # the closed form must equal perturbing one entry at a time, at the
    # quartic path loss and off it, where the tier terms of both cached
    # tiers come from _g_general
    lib = ContentLibrary.uniform(3, 2, 25e6)
    rng = np.random.default_rng(1)
    policy = CachingPolicy(rng.uniform(0.1, 0.9, (3, 2)),
                           rng.uniform(0.1, 0.9, (3, 2)))
    h = 1e-6
    non_quartic = NetworkGeometry(replace(geoms.d2d, pathloss=3.5),
                                  replace(geoms.sbs, pathloss=3.5), geoms.mbs)
    for instance in (geoms, non_quartic):
        _, grad_d, grad_s = objective_gradient(policy, lib, instance, radio)
        for f, l in itertools.product(range(3), range(2)):
            for tier, grad in (("d", grad_d), ("s", grad_s)):
                pd, ps = policy.p_d.copy(), policy.p_s.copy()
                target = pd if tier == "d" else ps
                up, down = target.copy(), target.copy()
                up[f, l] += h
                down[f, l] -= h
                if tier == "d":
                    d_up = overall_delay(CachingPolicy(up, ps), lib, instance, radio).total
                    d_dn = overall_delay(CachingPolicy(down, ps), lib, instance, radio).total
                else:
                    d_up = overall_delay(CachingPolicy(pd, up), lib, instance, radio).total
                    d_dn = overall_delay(CachingPolicy(pd, down), lib, instance, radio).total
                literal = (d_up - d_dn) / (2 * h)
                assert grad[f, l] == pytest.approx(literal, rel=1e-4, abs=1e-9)


def _tier_differences(p_d, p_s, lib, geoms, radio, d_step, s_step):
    """Difference quotients of the per-cell delays under steps of all
    entries of each tier at once (each cell depends on its own pair only)."""
    base = cell_delay_matrix(p_d, p_s, lib, geoms, radio)
    d = cell_delay_matrix(p_d + d_step, p_s, lib, geoms, radio) - base
    s = cell_delay_matrix(p_d, p_s + s_step, lib, geoms, radio) - base
    return d / d_step, s / s_step


def test_gradient_richardson_refinement(lib, geoms, radio):
    # Richardson-extrapolated central differences are fourth order, so
    # they reproduce the exact gradient to near round-off
    p = np.full(lib.shape, 0.4)
    policy = CachingPolicy(p, p)

    def central(h):
        up = _tier_differences(p, p, lib, geoms, radio, h, h)
        down = _tier_differences(p, p, lib, geoms, radio, -h, -h)
        return [(u + d) / 2 for u, d in zip(up, down)]

    coarse, fine = central(2e-3), central(1e-3)
    for grad, c, f in zip(objective_gradient(policy, lib, geoms, radio)[1:],
                           coarse, fine):
        extrapolated = (4 * f - c) / 3
        assert np.max(np.abs(grad - extrapolated)) <= 1e-7 * np.abs(grad).max()


def test_gradient_one_sided_at_edges(lib, geoms, radio):
    # on the box edges the gradient is finite and equals the one-sided
    # difference quotient into the box
    h = 1e-6
    for value, step in ((0.0, h), (1.0, -h)):
        p = np.full(lib.shape, value)
        grads = objective_gradient(CachingPolicy(p, p), lib, geoms, radio)[1:]
        quotients = _tier_differences(p, p, lib, geoms, radio, step, step)
        for grad, quotient in zip(grads, quotients):
            assert np.all(np.isfinite(grad))
            scale = np.abs(grad).max()
            assert np.all(np.abs(grad - quotient) <= 1e-5 * scale)


def test_gradient_cost_scales_linearly(geoms, radio):
    # the two sizes' repeats alternate, so a burst of contention from other
    # processes slows both sides instead of one
    cases = []
    for file_count in (100_000, 200_000):
        lib = ContentLibrary.uniform(file_count, 2, 25e6)
        policy = CachingPolicy(np.full((file_count, 2), 0.3),
                               np.full((file_count, 2), 0.3))
        cases.append((policy, lib))
    best = [math.inf, math.inf]
    for _ in range(7):
        for i, (policy, lib) in enumerate(cases):
            start = time.perf_counter()
            objective_gradient(policy, lib, geoms, radio)
            best[i] = min(best[i], time.perf_counter() - start)
    ratio = best[1] / best[0]
    assert 1.5 <= ratio <= 2.5


@pytest.mark.parametrize("file_count", [20, 5_000], ids=["default", "5000-files"])
def test_objective_delay_equals_overall_delay(lib, geoms, radio, file_count):
    # 5 000 files: the delay stays one sum of the whole cell matrix
    if file_count != lib.file_count:
        lib = ContentLibrary.uniform(file_count, 2, 25e6, skewness=1.0, plateau=5.0)
    rng = np.random.default_rng(file_count)
    policies = [CachingPolicy(rng.random(lib.shape), rng.random(lib.shape))
                for _ in range(5)]
    policies += [CachingPolicy.zeros(*lib.shape),
                 CachingPolicy(np.ones(lib.shape), np.ones(lib.shape))]
    for policy in policies:
        delay = objective_gradient(policy, lib, geoms, radio)[0]
        assert delay == overall_delay(policy, lib, geoms, radio).total


@pytest.mark.parametrize("file_count", [20, 5_000], ids=["default", "5000-files"])
def test_workspace_equals_a_fresh_gradient_call_each_time(lib, geoms, radio, file_count):
    # one solver workspace, called on a sequence of policies, gives the bits
    # of a fresh objective_gradient call on each: no buffer carries a value
    # over from an earlier policy; and what objective_gradient returned
    # earlier is not changed by later calls
    if file_count != lib.file_count:
        lib = ContentLibrary.uniform(file_count, 2, 25e6, skewness=1.0, plateau=5.0)
    rng = np.random.default_rng(file_count + 1)
    zeros, ones = np.zeros(lib.shape), np.ones(lib.shape)
    mixed = rng.random(lib.shape)
    mixed[::3], mixed[1::3] = 0.0, 1.0
    policies = [CachingPolicy(rng.random(lib.shape), rng.random(lib.shape)),
                CachingPolicy(zeros, zeros), CachingPolicy(ones, ones),
                CachingPolicy(rng.random(lib.shape), mixed),
                CachingPolicy(ones, zeros), CachingPolicy(zeros, ones),
                CachingPolicy(mixed, rng.random(lib.shape))]
    workspace = optimizer._Objective(lib, geoms, radio)
    returned = []
    for policy in policies:
        delay, grad_d, grad_s = objective_gradient(policy, lib, geoms, radio)
        returned.append(((grad_d, grad_s), (grad_d.tobytes(), grad_s.tobytes())))
        assert workspace(np.stack((policy.p_d, policy.p_s))) == delay
        assert workspace.grad.tobytes() == np.stack((grad_d, grad_s)).tobytes()
    for grads, bits in returned:
        assert tuple(grad.tobytes() for grad in grads) == bits


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

def test_optimize_fixed_point_at_toy_optimum(toy_lib, geoms, radio, toy_budgets):
    # saturating the two requested items is the optimum of this instance
    saturated = CachingPolicy(np.array([[0.0, 1.0], [1.0, 0.0]]),
                              np.array([[0.0, 1.0], [1.0, 0.0]]))
    cfg = OptimizerConfig(initial_policy=saturated, max_iterations=20)
    result = optimize(toy_lib, geoms, radio, toy_budgets, cfg)
    initial = overall_delay(saturated, toy_lib, geoms, radio).total
    assert result.best_delay <= initial
    assert result.best_delay == pytest.approx(initial, abs=1e-6)
    running_best = np.minimum.accumulate(result.delay_trajectory)
    assert np.all(np.diff(running_best) <= 0)


def test_optimize_close_to_coarse_oracle(toy_lib, geoms, radio, toy_budgets):
    _, oracle_value = grid_oracle(toy_lib, geoms, radio, toy_budgets,
                                  grid_step=0.05)
    result = optimize(toy_lib, geoms, radio, toy_budgets)
    assert result.best_delay <= 1.01 * oracle_value


def test_optimize_projects_an_over_budget_start(lib, geoms, radio, budgets):
    # every entry cached with probability at least 0.2: over both budgets
    ramp = np.linspace(1.0, 0.2, lib.shape[0] * lib.shape[1]).reshape(lib.shape)
    start = CachingPolicy(ramp, ramp[::-1].copy())
    usage_d, usage_s = start.budget_usage(lib.super_layer_sizes)
    assert usage_d > budgets.m_d and usage_s > budgets.m_s
    result = optimize(lib, geoms, radio, budgets,
                      OptimizerConfig(initial_policy=start, max_iterations=10))
    sizes = lib.super_layer_sizes
    projected = CachingPolicy(project_budget(start.p_d, sizes, budgets.m_d),
                              project_budget(start.p_s, sizes, budgets.m_s))
    assert result.delay_trajectory[0] == overall_delay(projected, lib, geoms,
                                                       radio).total
    assert result.iterations_run >= 1
    assert all(r <= 1e-6 * budgets.m_d for r in result.budget_residual_d)
    assert all(r <= 1e-6 * budgets.m_s for r in result.budget_residual_s)


def test_optimize_iterates_feasible(lib, geoms, radio, budgets):
    result = optimize(lib, geoms, radio, budgets)
    assert all(r <= 1e-6 * budgets.m_d for r in result.budget_residual_d)
    assert all(r <= 1e-6 * budgets.m_s for r in result.budget_residual_s)
    usage_d, usage_s = result.best_policy.budget_usage(lib.super_layer_sizes)
    assert usage_d <= budgets.m_d * (1 + 1e-9)
    assert usage_s <= budgets.m_s * (1 + 1e-9)


def test_optimize_converges_at_defaults(lib, geoms, radio, budgets):
    result = optimize(lib, geoms, radio, budgets)
    assert result.converged
    assert result.iterations_run <= 100
    assert result.best_delay == min(result.delay_trajectory)
    assert result.best_delay <= result.delay_trajectory[0]


def test_optimize_beats_or_matches_cold_start(lib, geoms, radio, budgets):
    warm = optimize(lib, geoms, radio, budgets)
    cold = optimize(lib, geoms, radio, budgets,
                    OptimizerConfig(initial_policy="epcp"))
    assert warm.best_delay <= cold.best_delay + 1e-12


def _sha256(values):
    return hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()


_STEPS_100 = "b870324e760284c19a67900e2a4ae68a1b99f987d9d89a1f643b132b14efa9b9"


@pytest.mark.parametrize(
    "start, theta_db, m_d_factor, iterations, best_delay, sha256", [
        ("mpcp", 5.0, None, 53, 6.278539072534185, {
            "trajectory": "a16b1af4798841dd8f85dd3efe5e4b9b88611f6acffdf49c4c6bc68cb26d1bb7",
            "steps": "5c9abf652503581451c2f32cc282365a2ae616d21026035da8fbdc1e6a739047",
            "residual_d": "26378f52882eb79913fb6d604d90ea5383a86724a7beb469ff1dfb9fec0cb4ce",
            "residual_s": "9acb9dde4b82adb3771873d73668be9c6b989e7c5085b4f20645d48de394da3a"}),
        ("epcp", 5.0, None, 100, 6.444817498211277, {
            "trajectory": "c93379bb0890b8142fd161517124d25a909e694fd489fcd374aa58d507cc073b",
            "steps": _STEPS_100,
            "residual_d": "81849893c2e986940e090a760ae441bfa21382b66f382277d684d72a93927e53",
            "residual_s": "82f7bb875c550f73c129cb9d5821a38aa98b27cd19de91356159b35dd94b39aa"}),
        ("epcp", 3.0, None, 100, 6.299748535625987, {
            "trajectory": "db632eca5e4d4b5375143c970fc25413a57bf34a552ef0983aba6db22b342d1d",
            "steps": _STEPS_100,
            "residual_d": "4a7a096ebc745baf143a17828edbe0899a2b4eae30283b2de26947ddebc71ee1",
            "residual_s": "b934e4486335c75e34cd529ea1cb7a6b473ad8d8bf5c8e67920e72070c083809"}),
        ("epcp", 5.0, 1.5, 100, 5.0604316526336355, {
            "trajectory": "8f4b20a07a4944a98af74334f3ac2656e91e6e642f4ebc76b7c70ed288058c6e",
            "steps": _STEPS_100,
            "residual_d": "67042dfda5683aead81b6055d19c4dba238341f9dd82f49c0e7cc0c19c5f10d1",
            "residual_s": "5e3bced8e3541d27542d8c3e05fe623f6282f42310c527df7c536f84d22753bb"}),
    ], ids=["mpcp", "epcp", "epcp-3dB", "epcp-d2d-above-capacity"])
def test_optimize_pinned_at_default_instance(lib, geoms, radio, budgets, start,
                                             theta_db, m_d_factor, iterations,
                                             best_delay, sha256):
    # pinned bit for bit: each iterate's delay comes from the call that
    # gives its gradient and must equal overall_delay's exactly; the step
    # sizes and budget residuals are printed by the convergence CSV.  The
    # last instance's d2d budget is above the capacity, so every d2d row
    # takes the projection's exact-ones branch.
    if theta_db != 5.0:
        radio = RadioConfig.from_db(sir_threshold_db=theta_db,
                                    bandwidth_d2d=radio.bandwidth_d2d,
                                    bandwidth_sbs=radio.bandwidth_sbs,
                                    bandwidth_mbs=radio.bandwidth_mbs,
                                    backhaul_rate=radio.backhaul_rate)
    if m_d_factor is not None:
        budgets = CacheBudgets(m_d_factor * lib.super_layer_sizes.sum(), budgets.m_s)
    result = optimize(lib, geoms, radio, budgets,
                      OptimizerConfig(initial_policy=start))
    assert result.iterations_run == iterations
    assert result.best_delay == best_delay
    assert {"trajectory": _sha256(result.delay_trajectory),
            "steps": _sha256(result.step_sizes),
            "residual_d": _sha256(result.budget_residual_d),
            "residual_s": _sha256(result.budget_residual_s)} == sha256


def test_optimize_rejects_unknown_start(lib, geoms, radio, budgets):
    with pytest.raises(ValueError):
        optimize(lib, geoms, radio, budgets,
                 OptimizerConfig(initial_policy="rarest-first"))
    with pytest.raises(ValueError, match="^initial_policy"):
        OptimizerConfig(initial_policy="greedy")


@pytest.mark.parametrize("tol", [0.0, -1e-6, math.inf, math.nan])
def test_optimizer_config_rejects_a_non_finite_or_non_positive_tolerance(tol):
    with pytest.raises(ValueError, match="^convergence_tol must be finite"):
        OptimizerConfig(convergence_tol=tol)


# ---------------------------------------------------------------------------
# grid oracle
# ---------------------------------------------------------------------------

def test_grid_oracle_refuses_large_instances(lib, geoms, radio):
    # the oracle serves the 2x2 catalog only; every other shape is refused
    # before any grid row is built
    for catalog in (lib, ContentLibrary.uniform(2, 3, 25e6, skewness=1.0, plateau=5.0),
                    ContentLibrary.uniform(3, 2, 25e6, skewness=1.0, plateau=5.0)):
        half = total_catalog_bits(catalog) / 2
        start = time.monotonic()
        with pytest.raises(ValueError, match="2x2"):
            grid_oracle(catalog, geoms, radio, CacheBudgets(m_d=half, m_s=half),
                        grid_step=0.05)
        assert time.monotonic() - start < 1.0


def test_grid_oracle_validates_step(toy_lib, geoms, radio, toy_budgets):
    for step, shown in ((0.1, r"0\.1"), ("0.05", "'0.05'"), (None, "None")):
        with pytest.raises(ValueError, match=rf"^grid_step must be one of .*, got {shown}$"):
            grid_oracle(toy_lib, geoms, radio, toy_budgets, grid_step=step)


def test_grid_oracle_tiny_budget_is_all_miss(toy_lib, geoms, radio):
    # a vanishing budget forces the projected policies to (almost) zero
    tiny = CacheBudgets(m_d=1.0, m_s=1.0)
    _, value = grid_oracle(toy_lib, geoms, radio, tiny, grid_step=0.05)
    assert value == pytest.approx(all_miss_delay(toy_lib, geoms, radio), rel=1e-6)


def test_grid_oracle_dominates_baselines(toy_lib, geoms, radio, toy_budgets):
    policy, value = grid_oracle(toy_lib, geoms, radio, toy_budgets,
                                grid_step=0.05)
    for baseline in (mpcp(toy_lib, toy_budgets), epcp(toy_lib, toy_budgets),
                     icp(toy_lib, toy_budgets, seed=4)):
        base_delay = overall_delay(baseline, toy_lib, geoms, radio).total
        assert value <= base_delay * (1 + 1e-3)
    usage_d, usage_s = policy.budget_usage(toy_lib.super_layer_sizes)
    assert usage_d == pytest.approx(toy_budgets.m_d, rel=1e-6)
    assert usage_s == pytest.approx(toy_budgets.m_s, rel=1e-6)


def test_grid_oracle_pinned_at_criterion_6_instance(toy_lib, geoms, radio,
                                                     toy_budgets):
    # toy_lib at half budgets is the criterion-6 instance
    policy, value = grid_oracle(toy_lib, geoms, radio, toy_budgets,
                                grid_step=0.05)
    assert value == pytest.approx(4.093377990380037, rel=1e-12)
    assert policy.p_d.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert policy.p_s.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_grid_oracle_pinned_on_a_multi_point_frontier(toy_lib, geoms, radio,
                                                      monkeypatch):
    # the criterion-6 instance has a one-point sbs frontier; a smaller sbs
    # budget spreads it, so the pair minimum scores many frontier points
    calls = _recorded_frontiers(monkeypatch)
    total = total_catalog_bits(toy_lib)
    budgets = CacheBudgets(m_d=0.5 * total, m_s=0.2 * total)
    policy, value = grid_oracle(toy_lib, geoms, radio, budgets, grid_step=0.05)
    _, _, frontier = _sbs_call(calls, toy_lib, budgets, 0.05)
    assert frontier.size >= 20
    assert value == pytest.approx(5.040945928885067, rel=1e-12)
    assert policy.p_d.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert policy.p_s.tolist() == [[0.0, 0.6000000000000001], [0.0, 0.0]]


def _oracle_reference(lib, geoms, radio, budgets, step):
    """The pair minimum as scored before the frontiers moved to the
    projected rows: hit terms on every row, the sbs frontier found in hit
    space and every d2d row scored."""
    weights, costs = _weights_and_costs(lib, geoms, radio)
    useful = np.flatnonzero(weights.ravel() > 0)
    w, a, b, c_m = (term.ravel()[useful] for term in (weights, *costs))
    rows_d, rows_s = _grid_candidates(lib.super_layer_sizes.ravel(), budgets,
                                      round(1.0 / step) + 1)
    theta = radio.sir_threshold
    hit_d = hit_term(rows_d[:, useful], geoms.d2d, theta)
    hit_s = hit_term(rows_s[:, useful], geoms.sbs, theta)
    base = hit_d @ (w * a) + (1.0 - hit_d) @ (w * c_m)
    v_mat = w * (b - c_m) * (1.0 - hit_d)
    best_val, best_i, best_j = np.inf, 0, 0
    for j in _pareto_reference(hit_s, maximize=(b - c_m)[0] < 0):
        scores = v_mat @ hit_s[j] + base
        i = scores.argmin()
        if scores[i] < best_val:
            best_val, best_i, best_j = scores[i], i, j
    policy = CachingPolicy(p_d=rows_d[best_i].reshape(lib.shape),
                           p_s=rows_s[best_j].reshape(lib.shape))
    return overall_delay(policy, lib, geoms, radio).total


# (d2d, sbs) bandwidths in Hz for each regime of the d2d sign rule, the
# first pair with b < c_m and the second with b > c_m (c_m = 5.4 s per 25
# Mbit, and a or b = 0.61 s at 20 MHz, 2.4 at 5, 12.2 at 1 and 24.3 at 0.5):
# a <= min(b, c_m) takes the maximal d2d frontier, a >= max(b, c_m) the
# minimal one, and a strictly between b and c_m every d2d row
_D2D_REGIMES = {"maximal": ((20e6, 20e6), (20e6, 1e6)),
                "every-row": ((5e6, 20e6), (1e6, 0.5e6)),
                "minimal": ((0.5e6, 20e6), (0.5e6, 1e6))}


@pytest.mark.parametrize("regime", sorted(_D2D_REGIMES))
def test_grid_oracle_equals_the_hit_space_scoring(regime, toy_lib, geoms, radio,
                                                  monkeypatch):
    # the frontiers found on the projected rows lose no winning pair: the
    # value agrees with scoring every d2d row against the sbs frontier of
    # the hit vectors to 2 ulps (near-ties may pick another policy); seeded
    # budgets, equal ones among them (one frontier for both tiers when the
    # directions agree), at both signs of b - c_m
    rng = np.random.default_rng(36)
    total = total_catalog_bits(toy_lib)
    useful, sizes = _useful_and_sizes(toy_lib)
    seen = []

    def recorded(p, geom, theta):
        seen.append((geom, p))
        return hit_term(p, geom, theta)

    monkeypatch.setattr(optimizer, "hit_term", recorded)
    for case in range(6):
        fractions = rng.uniform(0.05, 1.1, 2)
        if case % 3 == 0:
            fractions[1] = fractions[0]
        budgets = CacheBudgets(m_d=fractions[0] * total, m_s=fractions[1] * total)
        bandwidth_d2d, bandwidth_sbs = _D2D_REGIMES[regime][case % 2]
        case_radio = replace(radio, bandwidth_d2d=bandwidth_d2d, bandwidth_sbs=bandwidth_sbs)
        seen.clear()
        _, value = grid_oracle(toy_lib, geoms, case_radio, budgets, grid_step=0.05)
        expected = _oracle_reference(toy_lib, geoms, case_radio, budgets, 0.05)
        assert abs(value - expected) <= 2 * np.spacing(expected), (case, fractions)
        # the d2d rows that reach hit_term are the regime's candidates
        rows_d = _grid_candidates(sizes, budgets, 21)[0][:, useful]
        if regime != "every-row":
            rows_d = rows_d[np.sort(_pareto_reference(rows_d, regime == "maximal"))]
        (hit_rows,) = [p for geom, p in seen if geom is geoms.d2d]
        assert np.array_equal(hit_rows, rows_d)


@pytest.mark.parametrize("theta_db", [-5.0, 5.0, 10.0])
@pytest.mark.parametrize("pathloss", [2.5, 3.0, 4.0, 6.0])
def test_hit_term_is_strictly_increasing(pathloss, theta_db, geoms):
    # the oracle's frontiers on the projected rows rest on this: a tier's
    # hit vector is dominated exactly when its caching probabilities are
    p = np.linspace(0.0, 1.0, 1_000_001)
    theta = 10.0 ** (theta_db / 10.0)
    for geom in (geoms.d2d, geoms.sbs):
        hit = hit_term(p, replace(geom, pathloss=pathloss), theta)
        assert (np.diff(hit) > 0).all()


def _recorded_frontiers(monkeypatch):
    """Record each ``optimizer._pareto_indices`` call as (points, maximize,
    frontier)."""
    calls, pareto = [], optimizer._pareto_indices

    def recorded(points, maximize):
        calls.append((points, maximize, pareto(points, maximize)))
        return calls[-1][-1]

    monkeypatch.setattr(optimizer, "_pareto_indices", recorded)
    return calls


def _sbs_call(calls, lib, budgets, step):
    """The recorded call made on the projected sbs rows' useful cells: the
    first one, as the oracle finds the sbs frontier first."""
    useful, sizes = _useful_and_sizes(lib)
    rows_s = _grid_candidates(sizes, budgets, round(1.0 / step) + 1)[1][:, useful]
    sbs = [call for call in calls if np.array_equal(call[0], rows_s)]
    assert sbs and calls[0] is sbs[0]
    return sbs[0]


def _pareto_reference(points, maximize):
    """The frontier sort-scan over every row, without the box prefilter."""
    pts = points if maximize else -points
    order = np.lexsort((-pts[:, -1], -pts[:, 0]))
    last = pts[order, -1]
    running = np.maximum.accumulate(last)
    first = np.empty(order.size, dtype=bool)
    first[0] = True
    first[1:] = last[1:] > running[:-1]
    return order[first]


# every row in the box of the two extreme rows, either way round: the
# anti-diagonal of a hit frontier, with ties on both columns
_WHOLE_BOX = np.array([[1.0, 0.0], [0.75, 0.25], [0.75, 0.25], [0.5, 0.5],
                       [0.25, 0.75], [0.5, 0.5], [0.0, 1.0]])


@settings(max_examples=300, deadline=None)
@given(
    points=arrays(float, st.tuples(st.integers(1, 300), st.integers(1, 2)),
                  elements=st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0))),
    maximize=st.booleans(),
)
@example(points=_WHOLE_BOX, maximize=True)
@example(points=_WHOLE_BOX, maximize=False)
def test_pareto_indices_equals_the_sort_scan_reference(points, maximize):
    # a small value grid makes ties on both columns common: the boxed scan
    # must return the same indices in the same order, from a row-major
    # array and from a column-major one (the oracle's hit arrays)
    expected = _pareto_reference(points, maximize)
    for laid in (points, np.asfortranarray(points)):
        assert np.array_equal(optimizer._pareto_indices(laid, maximize), expected)


def test_pareto_indices_on_a_whole_box_frontier(toy_lib, geoms, radio, monkeypatch):
    # at an sbs budget of 0.1 catalogs every sbs row lies in the box of the
    # two extreme rows, so the scan runs on the hit array as given: its
    # indices are the whole-set sort-scan's
    calls = _recorded_frontiers(monkeypatch)
    total = total_catalog_bits(toy_lib)
    budgets = CacheBudgets(m_d=0.5 * total, m_s=0.1 * total)
    grid_oracle(toy_lib, geoms, radio, budgets, grid_step=0.05)
    points, maximize, got = _sbs_call(calls, toy_lib, budgets, 0.05)
    x, y = (points[:, c] if maximize else -points[:, c] for c in (0, -1))
    assert (x >= x[y == y.max()].max()).all() and (y >= y[x == x.max()].max()).all()
    assert got.size > 1
    assert np.array_equal(got, _pareto_reference(points, maximize))


def _useful_and_sizes(lib):
    useful = np.flatnonzero(preference_matrix(lib).ravel() > 0)
    return useful, lib.super_layer_sizes.ravel()


def _whole_grid(n_cells, n_values):
    """Every row of {0, ..., 1}^n_cells in grid order, as one block."""
    values = np.linspace(0.0, 1.0, n_values)
    return np.array(list(itertools.product(values, repeat=n_cells)))


def _whole_grid_digits(n_cells, n_values):
    """Every digit row of {0, ..., n_values - 1}^n_cells in grid order."""
    return np.ascontiguousarray(
        np.indices((n_values,) * n_cells, dtype=np.uint8).reshape(n_cells, -1).T)


@pytest.mark.parametrize("fractions", [(0.5, 0.5), (0.3, 0.8)],
                         ids=["criterion-6", "toy-0.3-0.8"])
def test_tier_candidates_are_the_projected_canonical_grid_rows(toy_lib, fractions,
                                                               monkeypatch):
    # every grid row with a zero entry, projected at each tier's budget in
    # one shared pass, in grid order: rows that project to the same matrix
    # are all kept.  Equal budgets are projected once, at one budget column,
    # and both tiers' candidates are views of that memory
    _, sizes = _useful_and_sizes(toy_lib)
    grid = _whole_grid(sizes.size, 21)
    canonical = grid[grid.min(axis=1) == 0.0]
    total = total_catalog_bits(toy_lib)
    budgets = CacheBudgets(m_d=fractions[0] * total, m_s=fractions[1] * total)
    _, built = _recorded_blocks(monkeypatch)
    rows = _grid_candidates(sizes, budgets, 21)
    equal = fractions[0] == fractions[1]
    assert built and all(budget.shape[1] == (1 if equal else 2) for budget in built)
    assert np.shares_memory(rows[0], rows[1]) == equal
    assert rows.shape == (2, 21**4 - 20**4, 4)
    for tier, budget in zip(rows, (budgets.m_d, budgets.m_s)):
        expected = project_budget(canonical, sizes, budget)
        assert tier.tobytes() == expected.tobytes()


# sha256 of the d2d and sbs projected canonical rows, recorded with the
# one-tier-at-a-time enumeration this shared pass replaced
_CANONICAL_ROWS_SHA256 = {  # step, m_d and m_s in catalogs, d2d and sbs sha256
    "criterion-6": (
        0.05, 0.5, 0.5,
        "14127bf190c37bbdcfe6560bf972d366a95460030f34bfdfdb168cdce2078438",
        "14127bf190c37bbdcfe6560bf972d366a95460030f34bfdfdb168cdce2078438"),
    "criterion-6-0.02": (
        0.02, 0.5, 0.5,
        "6ab150a2149f6f62ccbfdb11fbea59d5c0ee181b1db88fbf299da943db306e03",
        "6ab150a2149f6f62ccbfdb11fbea59d5c0ee181b1db88fbf299da943db306e03"),
    "multi-point-frontier": (
        0.05, 0.5, 0.2,
        "14127bf190c37bbdcfe6560bf972d366a95460030f34bfdfdb168cdce2078438",
        "7840bf6b184d3afcdf9bcd3eee3491378c5f91851d6b54d24ee1417a118f0e4c"),
    "d2d-full": (
        0.05, 1.5, 0.5,
        "79174d737ab23a8a753fb058239777cf57d95c60bf7b7e0f724e8d84c3c59e2a",
        "14127bf190c37bbdcfe6560bf972d366a95460030f34bfdfdb168cdce2078438"),
}


@pytest.mark.parametrize("case", sorted(_CANONICAL_ROWS_SHA256))
def test_projected_canonical_rows_are_pinned(toy_lib, case):
    # d2d-full: m_d is 1.5 catalogs, so every d2d row is exact ones while
    # the sbs rows are solved, in the same projection calls
    step, fraction_d, fraction_s, *pins = _CANONICAL_ROWS_SHA256[case]
    _, sizes = _useful_and_sizes(toy_lib)
    total = total_catalog_bits(toy_lib)
    budgets = CacheBudgets(m_d=fraction_d * total, m_s=fraction_s * total)
    rows = _grid_candidates(sizes, budgets, round(1.0 / step) + 1)
    assert [hashlib.sha256(tier.tobytes()).hexdigest() for tier in rows] == pins


# tracemalloc peaks of one oracle call after a warm-up call (numpy 2.4.6,
# Python 3.11), each bound the measured peak plus about 1% for the
# interpreter state that varies with what ran before.  Criterion 6 at step
# 0.05, the one shared budget projected once for both tiers: 3 117 604 B
# (4 692 968 B with hit terms on every row, 5 796 464 B with both tiers
# projected at the same budget)
_ONE_BUDGET_ORACLE_PEAK = 3_150_000
# m_s = 0.2 catalogs at step 0.05, both tiers projected: 4 254 100 B
# (5 796 408 B with hit terms on every row)
_TWO_PASS_ORACLE_PEAK = 4_300_000
# criterion 6 at step 0.02: 25 859 346 B (70 071 128 B with hit terms on every
# row and the intp index set unravelled block by block)
_FINE_STEP_ORACLE_PEAK = 26_100_000


def _oracle_traced_peak(lib, geoms, radio, budgets, step=0.05):
    """tracemalloc peak of an oracle call after a warm-up call."""
    grid_oracle(lib, geoms, radio, budgets, grid_step=step)
    tracemalloc.start()
    try:
        grid_oracle(lib, geoms, radio, budgets, grid_step=step)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grid_oracle_traced_peak_memory(toy_lib, geoms, radio, toy_budgets):
    assert _oracle_traced_peak(toy_lib, geoms, radio, toy_budgets) <= _ONE_BUDGET_ORACLE_PEAK


def test_grid_oracle_traced_peak_memory_at_unequal_budgets(toy_lib, geoms, radio):
    total = total_catalog_bits(toy_lib)
    budgets = CacheBudgets(m_d=0.5 * total, m_s=0.2 * total)
    assert _oracle_traced_peak(toy_lib, geoms, radio, budgets) <= _TWO_PASS_ORACLE_PEAK


def test_grid_oracle_traced_peak_memory_at_the_fine_step(toy_lib, geoms, radio,
                                                         toy_budgets):
    assert (_oracle_traced_peak(toy_lib, geoms, radio, toy_budgets, step=0.02)
            <= _FINE_STEP_ORACLE_PEAK)


def _recorded_blocks(monkeypatch):
    """Record the grid blocks the oracle hands to ``optimizer._Projector``:
    ``seen`` gets each call's rows with the (rows, budgets) table its
    projector was built on, ``built`` each projector's table, in order."""
    seen, built = [], []

    class Recorded(optimizer._Projector):
        def __init__(self, sizes, budget):
            super().__init__(sizes, budget)
            self.budget = budget
            built.append(budget)

        def __call__(self, p_hat, out=None):
            seen.append((p_hat, self.budget))
            return super().__call__(p_hat, out)

    monkeypatch.setattr(optimizer, "_Projector", Recorded)
    return seen, built


@pytest.mark.parametrize("fractions", [(0.5, 0.5), (0.3, 0.8), (0.15, 0.6)],
                         ids=["criterion-6", "toy-0.3-0.8", "toy-0.15-0.6"])
def test_grid_oracle_equals_oracle_over_every_grid_row(toy_lib, geoms, radio,
                                                       fractions, monkeypatch):
    # projecting the canonical rows only loses no candidate: the digit rows
    # of every grid row feed the same blocks and the same projection
    total = total_catalog_bits(toy_lib)
    budgets = CacheBudgets(m_d=fractions[0] * total, m_s=fractions[1] * total)
    policy, value = grid_oracle(toy_lib, geoms, radio, budgets, grid_step=0.05)
    monkeypatch.setattr(optimizer, "_grid_digits", _whole_grid_digits)
    seen, _ = _recorded_blocks(monkeypatch)
    full_policy, full_value = grid_oracle(toy_lib, geoms, radio, budgets,
                                          grid_step=0.05)
    assert np.array_equal(np.concatenate([rows for rows, _ in seen]), _whole_grid(4, 21))
    assert value == pytest.approx(full_value, rel=1e-12)
    assert np.array_equal(policy.p_d, full_policy.p_d)
    assert np.array_equal(policy.p_s, full_policy.p_s)


def test_grid_oracle_projects_each_grid_chunk_through_one_projector(
        toy_lib, geoms, radio, monkeypatch):
    total = total_catalog_bits(toy_lib)
    seen, _ = _recorded_blocks(monkeypatch)
    # criterion 6 at equal budgets, then the toy 0.3/0.8 instance
    for fraction_d, fraction_s, levels in ((0.5, 0.5, [0.5]), (0.3, 0.8, [0.3, 0.8])):
        budgets = CacheBudgets(m_d=fraction_d * total, m_s=fraction_s * total)
        seen.clear()
        grid_oracle(toy_lib, geoms, radio, budgets, grid_step=0.05)
        chunks = [rows.shape[0] for rows, _ in seen]
        assert len(chunks) == math.ceil((21**4 - 20**4) / optimizer._GRID_BLOCK)
        assert sum(chunks) == 21**4 - 20**4
        assert all(rows == optimizer._GRID_BLOCK for rows in chunks[:-1])
        # one call per canonical block, carrying each distinct tier budget
        # once for each row: one column at equal budgets, both tiers' otherwise
        assert all(budget.shape == (rows.shape[0], len(levels))
                   and (budget == [level * total for level in levels]).all()
                   for rows, budget in seen)


@pytest.mark.parametrize("step", [0.05, 0.02])
def test_grid_oracle_builds_one_projector_per_block_size(toy_lib, geoms, radio,
                                                         toy_budgets, step,
                                                         monkeypatch):
    # the full blocks share one projector and the short last block gets its
    # own, built once the first is gone; none is alive while the hit terms
    # are computed
    projectors, alive, hit_term_ = [], [], optimizer.hit_term
    seen, built = _recorded_blocks(monkeypatch)
    recorded = optimizer._Projector

    class Counted(recorded):
        def __init__(self, sizes, budget):
            alive.append(sum(ref() is not None for ref in projectors))
            super().__init__(sizes, budget)
            projectors.append(weakref.ref(self))

    def counted_hit_term(*args):
        alive.append(sum(ref() is not None for ref in projectors))
        return hit_term_(*args)

    monkeypatch.setattr(optimizer, "_Projector", Counted)
    monkeypatch.setattr(optimizer, "hit_term", counted_hit_term)
    grid_oracle(toy_lib, geoms, radio, toy_budgets, grid_step=step)
    canonical = round(1 / step + 1)**4 - round(1 / step)**4
    assert [budget.shape[0] for budget in built] == [
        optimizer._GRID_BLOCK, canonical % optimizer._GRID_BLOCK]
    assert alive == [0, 0, 0, 0]
    assert sum(rows.shape[0] for rows, _ in seen) == canonical


def _grid_index_reference(n_cells, n_values):
    """The canonical index set through a mask of the whole grid."""
    canonical = np.ones((n_values,) * n_cells, dtype=bool)
    canonical[(slice(1, None),) * n_cells] = False
    return np.flatnonzero(canonical)


def _grid_digits_reference(n_cells, n_values):
    """The canonical digit rows, unravelled from the mask's index set."""
    index = _grid_index_reference(n_cells, n_values)
    return np.column_stack(np.unravel_index(index, (n_values,) * n_cells))


@pytest.mark.parametrize("n_values", [21, 51])
@pytest.mark.parametrize("n_cells", [1, 2, 3, 4])
def test_grid_index_equals_the_full_grid_mask(n_cells, n_values):
    got = optimizer._grid_digits(n_cells, n_values)
    assert got.dtype == np.uint8 and got.flags.c_contiguous
    assert got.shape == (n_values**n_cells - (n_values - 1)**n_cells, n_cells)
    assert np.array_equal(got, _grid_digits_reference(n_cells, n_values))


@pytest.mark.parametrize("chunk", [1000, None], ids=["1000", "default"])
@pytest.mark.parametrize("n_cells", [1, 2, 3, 4])
def test_grid_chunks_yield_rows_with_a_zero_in_grid_order(n_cells, chunk, monkeypatch):
    # the digit rows select the rows with a zero entry in grid order, and
    # the oracle's candidates take their values in blocks of at most
    # _GRID_BLOCK rows
    if chunk is not None:
        monkeypatch.setattr(optimizer, "_GRID_BLOCK", chunk)
    values = np.linspace(0.0, 1.0, 21)
    full = np.array(list(itertools.product(values, repeat=n_cells)))
    expected = full[full.min(axis=1) == 0.0]
    got = values.take(optimizer._grid_digits(n_cells, 21))
    assert got.shape == (21**n_cells - 20**n_cells, n_cells)
    assert np.array_equal(got, expected)
    assert np.array_equal(got, values[_grid_digits_reference(n_cells, 21)])
    seen, _ = _recorded_blocks(monkeypatch)
    sizes = np.full(n_cells, 25e6)
    optimizer._grid_candidates(sizes, CacheBudgets(m_d=20e6, m_s=30e6), 21)
    assert all(rows.shape[0] <= optimizer._GRID_BLOCK for rows, _ in seen)
    assert np.array_equal(np.concatenate([rows for rows, _ in seen]), expected)


def test_grid_oracle_independent_of_block_size(toy_lib, geoms, radio,
                                               toy_budgets, monkeypatch):
    policy, value = grid_oracle(toy_lib, geoms, radio, toy_budgets,
                                grid_step=0.05)
    monkeypatch.setattr(optimizer, "_GRID_BLOCK", 1000)
    small_policy, small_value = grid_oracle(toy_lib, geoms, radio,
                                            toy_budgets, grid_step=0.05)
    assert small_value == value
    assert np.array_equal(small_policy.p_d, policy.p_d)
    assert np.array_equal(small_policy.p_s, policy.p_s)
