import re

import numpy as np
import pytest

from svcache import (
    CacheBudgets,
    CachingPolicy,
    epcp,
    icp,
    load_policy,
    mpcp,
    overall_delay,
    save_policy,
    total_catalog_bits,
    validate_policy,
)
from svcache.policies import greedy_fill


# ---------------------------------------------------------------------------
# policy data model
# ---------------------------------------------------------------------------

def test_policy_clamps_drift():
    policy = CachingPolicy(np.array([[1.0 + 1e-9, -1e-12]]),
                           np.array([[0.5, 0.5]]))
    assert policy.p_d[0, 0] == 1.0
    assert policy.p_d[0, 1] == 0.0


def test_policy_rejects_gross_violations():
    with pytest.raises(ValueError):
        CachingPolicy(np.array([[1.5, 0.0]]), np.array([[0.0, 0.0]]))
    with pytest.raises(ValueError):
        CachingPolicy(np.zeros((2, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        CachingPolicy(np.full((2, 2), np.nan), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        CachingPolicy(np.zeros((2, 2)), np.array([[0.5, np.nan], [0.0, 0.0]]))


def test_bool_matrices_are_a_deterministic_placement(lib, budgets):
    # unlike a real-valued size or budget, a 0/1 placement may be given as
    # bools; it is stored as the floats 0.0 and 1.0
    cached = np.zeros(lib.shape, bool)
    cached[0] = True
    policy = CachingPolicy(cached, ~cached)
    assert policy.p_d.dtype == policy.p_s.dtype == float
    assert np.array_equal(policy.p_d, cached.astype(float))
    report = validate_policy(policy, lib, budgets)
    assert report.usage_d == float(lib.super_layer_sizes[0].sum())


def test_budget_usage(lib):
    policy = CachingPolicy(np.full(lib.shape, 0.5), np.full(lib.shape, 0.1))
    usage_d, usage_s = policy.budget_usage(lib.super_layer_sizes)
    assert usage_d == pytest.approx(0.5 * total_catalog_bits(lib), rel=1e-12)
    assert usage_s == pytest.approx(0.1 * total_catalog_bits(lib), rel=1e-12)


# ---------------------------------------------------------------------------
# validation report
# ---------------------------------------------------------------------------

def test_validate_zero_policy(lib, budgets):
    report = validate_policy(CachingPolicy.zeros(*lib.shape), lib, budgets)
    assert report.feasible
    assert report.slack_d == budgets.m_d
    assert report.slack_s == budgets.m_s
    assert report.box_violations == 0


def test_validate_all_ones_infeasible(lib, budgets):
    ones = CachingPolicy(np.ones(lib.shape), np.ones(lib.shape))
    report = validate_policy(ones, lib, budgets)
    assert not report.feasible
    total = total_catalog_bits(lib)
    assert report.slack_d == pytest.approx(budgets.m_d - total, rel=1e-12)
    assert report.usage_s == pytest.approx(total, rel=1e-12)


def test_validate_shape_mismatch(lib, budgets):
    for shape in ((3, 2), (40, 2), (2, 40)):
        with pytest.raises(ValueError, match="does not match catalog"):
            validate_policy(CachingPolicy.zeros(*shape), lib, budgets)


# ---------------------------------------------------------------------------
# MPCP
# ---------------------------------------------------------------------------

def test_greedy_fill_rejects_non_positive_budget():
    with pytest.raises(ValueError, match=r"^budget must be positive, got -1\.0$"):
        greedy_fill(np.ones(2), np.ones(2), -1.0)


def test_greedy_fill_hand_ranking():
    # popularity order (1,2) > (1,1) > (2,1) > (2,2) with unit sizes and
    # budget 2.5: first two fit whole, the third gets the 0.5 remainder
    weights = np.array([[0.3, 0.4], [0.2, 0.1]])
    sizes = np.ones((2, 2))
    out = greedy_fill(weights, sizes, 2.5)
    assert out[0, 1] == 1.0
    assert out[0, 0] == 1.0
    assert out[1, 0] == 0.5
    assert out[1, 1] == 0.0


def test_greedy_fill_budget_exact():
    rng = np.random.default_rng(0)
    weights = rng.random((6, 3))
    sizes = rng.uniform(1.0, 9.0, (6, 3))
    budget = 0.43 * sizes.sum()
    out = greedy_fill(weights, sizes, budget)
    assert abs((out * sizes).sum() - budget) <= 1e-12 * budget


def test_mpcp_with_surplus_budget(lib):
    big = CacheBudgets(m_d=2 * total_catalog_bits(lib),
                       m_s=2 * total_catalog_bits(lib))
    policy = mpcp(lib, big)
    assert np.all(policy.p_d == 1.0) and np.all(policy.p_s == 1.0)


def test_mpcp_feasible_and_exact(lib, budgets):
    policy = mpcp(lib, budgets)
    report = validate_policy(policy, lib, budgets)
    assert report.feasible
    assert abs(report.usage_d - budgets.m_d) <= 1e-9 * budgets.m_d
    assert abs(report.usage_s - budgets.m_s) <= 1e-9 * budgets.m_s


# ---------------------------------------------------------------------------
# EPCP
# ---------------------------------------------------------------------------

def test_epcp_uniform_ratio(lib):
    policy = epcp(lib, CacheBudgets(m_d=200e6, m_s=500e6))
    assert np.allclose(policy.p_d, 200e6 / 1500e6, rtol=0, atol=1e-15)
    assert np.allclose(policy.p_s, 500e6 / 1500e6, rtol=0, atol=1e-15)


def test_epcp_caps_at_one(lib):
    policy = epcp(lib, CacheBudgets(m_d=5e9, m_s=1e9))
    assert np.all(policy.p_d == 1.0)


def test_epcp_budget_usage(lib, budgets):
    policy = epcp(lib, budgets)
    usage_d, usage_s = policy.budget_usage(lib.super_layer_sizes)
    assert usage_d == pytest.approx(min(budgets.m_d, total_catalog_bits(lib)),
                                    rel=1e-9)
    assert usage_s == pytest.approx(min(budgets.m_s, total_catalog_bits(lib)),
                                    rel=1e-9)


# ---------------------------------------------------------------------------
# ICP
# ---------------------------------------------------------------------------

def test_icp_deterministic(lib, budgets):
    a = icp(lib, budgets, seed=99)
    b = icp(lib, budgets, seed=99)
    assert np.array_equal(a.p_d, b.p_d) and np.array_equal(a.p_s, b.p_s)
    c = icp(lib, budgets, seed=100)
    assert not np.array_equal(a.p_d, c.p_d)


def test_icp_budget_equality(lib, budgets):
    policy = icp(lib, budgets, seed=7)
    usage_d, usage_s = policy.budget_usage(lib.super_layer_sizes)
    assert abs(usage_d - budgets.m_d) <= 1e-6 * budgets.m_d
    assert abs(usage_s - budgets.m_s) <= 1e-6 * budgets.m_s
    assert validate_policy(policy, lib, budgets).feasible


@pytest.mark.parametrize("seed", [None, True, -1, 2.5, "7"],
                         ids=["none", "bool", "negative", "float", "text"])
def test_icp_seed_must_be_a_count(lib, budgets, seed):
    # None would draw an unseeded placement and True would read as 1
    with pytest.raises(ValueError, match=rf"^seed .*got {re.escape(repr(seed))}$"):
        icp(lib, budgets, seed=seed)


def test_icp_accepts_a_numpy_integer_seed(lib, budgets):
    a = icp(lib, budgets, seed=np.int64(99))
    b = icp(lib, budgets, seed=99)
    assert np.array_equal(a.p_d, b.p_d) and np.array_equal(a.p_s, b.p_s)
    icp(lib, budgets, seed=0)


# ---------------------------------------------------------------------------
# cross-policy delay ordering
# ---------------------------------------------------------------------------

def test_mpcp_beats_blind_baselines(lib, geoms, radio, budgets):
    d_mpcp = overall_delay(mpcp(lib, budgets), lib, geoms, radio).total
    d_epcp = overall_delay(epcp(lib, budgets), lib, geoms, radio).total
    d_icp = overall_delay(icp(lib, budgets, seed=1), lib, geoms, radio).total
    assert d_mpcp <= d_epcp
    assert d_mpcp <= d_icp


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_policy_roundtrip(tmp_path, lib, budgets):
    policy = icp(lib, budgets, seed=3)
    path = tmp_path / "test.policy"
    save_policy(path, policy)
    text = path.read_text()
    assert text.startswith("# tier=d2d F=20 L=2\n")
    assert "# tier=sbs F=20 L=2\n" in text
    loaded = load_policy(path)
    assert np.allclose(loaded.p_d, policy.p_d, rtol=0, atol=1e-9)
    assert np.allclose(loaded.p_s, policy.p_s, rtol=0, atol=1e-9)
    # a matrix whose rows disagree with its header's F or L is rejected
    sbs = "# tier=sbs F=2 L=2\n0.5,0.5\n0.5,0.5\n"
    for bad_d2d in ("# tier=d2d F=3 L=2\n0.5,0.5\n0.5,0.5\n",
                    "# tier=d2d F=2 L=2\n0.5,0.5\n0.5\n",
                    "# tier=d2d F=2 L=2\n0.5,0.5\n0.5,0.5,0.5\n",
                    "# tier=d2d\n0.5,0.5\n0.5,0.5\n"):
        path.write_text(bad_d2d + sbs)
        with pytest.raises(ValueError, match="d2d"):
            load_policy(path)


def test_load_policy_rejects_a_missing_header_or_tier(tmp_path):
    path = tmp_path / "bad.policy"
    path.write_text("0.5,0.5\n0.5,0.5\n")
    with pytest.raises(ValueError, match="start with a '# tier=' header"):
        load_policy(path)
    path.write_text("# tier=d2d F=2 L=2\n0.5,0.5\n0.5,0.5\n")
    with pytest.raises(ValueError, match="must hold d2d and sbs matrices"):
        load_policy(path)


@pytest.mark.parametrize("text, line, reason", [
    ("# saved by hand\n# tier=d2d F=1 L=2\n0.5,0.5\n", 1, "key=value"),
    ("# tier=d2d F=1 L=2\n0.5,abc\n", 2, "could not convert string to float: 'abc'"),
    ("# tier=d2d F=1 L=2\n0.5,0.5\n# tier=d2d F=1 L=2\n0.25,0.25\n", 3,
     "repeated tier block '# tier=d2d"),
], ids=["free-text-header", "non-numeric-entry", "repeated-tier"])
def test_load_policy_names_the_offending_line(tmp_path, text, line, reason):
    path = tmp_path / "bad.policy"
    path.write_text(text + "# tier=sbs F=1 L=2\n0.5,0.5\n")
    with pytest.raises(ValueError, match=f"^policy file line {line}: .*{reason}"):
        load_policy(path)
