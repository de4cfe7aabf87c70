import math

import numpy as np
import pytest
from scipy import integrate

from svcache import (
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
from svcache.geometry import _g_general

# Frozen against a 30-digit mpmath evaluation of the closed forms, each
# cross-checked by quadrature of the radial integral they came from.
Q_XSTAR = 0.4197522831967307
Q_ZERO = 0.3036454366692309
ASSOC_HALF = 0.9981325572682920
CASE1 = 0.2102688065528674
CASE2 = 0.1521067690148558
MIXTURE = 0.1811877877838616
HIT = 0.1808494299664904
MBS_5DB = 0.3469382267859512
MBS_0DB = 0.5600991535115574


# ---------------------------------------------------------------------------
# g_integral
# ---------------------------------------------------------------------------

def test_g_closed_form_quartic():
    assert g_integral(4.0, 0.0) == math.pi / 2
    assert g_integral(4.0, 1.0) == pytest.approx(math.pi / 4, abs=1e-15)


def test_g_cubic_value():
    # analytic identity: integral_0^inf dx/(1+x^s) = (pi/s)/sin(pi/s)
    assert g_integral(3.0, 0.0) == pytest.approx(4 * math.pi / (3 * math.sqrt(3)),
                                                 abs=1e-10)


@pytest.mark.parametrize("a", [3.0, 3.5, 4.0, 5.0])
def test_g_at_zero_matches_sine_identity(a):
    expected = (2 * math.pi / a) / math.sin(2 * math.pi / a)
    assert g_integral(a, 0.0) == pytest.approx(expected, abs=1e-10)


def test_g_quartic_matches_general_path():
    # the a=4 shortcut must agree with the generic closed-form evaluation
    for b in np.arange(0.0, 5.01, 0.1):
        closed = g_integral(4.0, float(b))
        assert abs(closed - _g_general(4.0, float(b))) <= 1e-9


@pytest.mark.parametrize("a,b", [(2.5, 0.3), (3.3, 1.7), (6.0, 0.0), (4.8, 12.0)])
def test_g_matches_scipy_tail_quadrature(a, b):
    expected, _ = integrate.quad(lambda x: 1 / (1 + x ** (a / 2)), b, np.inf,
                                 epsabs=1e-13, epsrel=1e-13, limit=400)
    assert g_integral(a, b) == pytest.approx(expected, abs=1e-9)


def test_g_domain_errors():
    with pytest.raises(ValueError):
        g_integral(2.0, 0.0)
    with pytest.raises(ValueError):
        g_integral(1.5, 1.0)
    with pytest.raises(ValueError):
        g_integral(4.0, -0.1)
    for a, b in ((math.nan, 1.0), (3.0, math.nan), (4.0, math.nan),
                 (math.inf, 1.0)):
        with pytest.raises(ValueError):
            g_integral(a, b)
    assert g_integral(4.0, math.inf) == 0.0
    assert g_integral(3.0, math.inf) == 0.0


# 60-digit mpmath references (mpmath is not a dependency, so frozen here).
@pytest.mark.parametrize("a,b,expected", [
    (200.0, 0.3, 0.70016451234931273),     # head branch, steep exponent
    (20.0, 1e30, 1.1111111111111109e-271),  # tail branch, tiny value
    (2.001, 0.0, 2000.0008216456394),       # sine reflection near a = 2
    (2.0000001, 0.0, 20000000.03273166),    # plain sin(pi/s) is 1.7e-10 off
])
def test_g_matches_high_precision_reference(a, b, expected):
    assert g_integral(a, b) == pytest.approx(expected, rel=1e-12)


def test_stp_mbs_steep_exponent_reference():
    assert stp_mbs(200.0, 10**0.5) == pytest.approx(0.9857417870544482, rel=1e-12)


# ---------------------------------------------------------------------------
# association probability
# ---------------------------------------------------------------------------

def test_association_values(geom_d):
    assert association_probability(0.0, geom_d) == 0.0
    assert association_probability(0.5, geom_d) == pytest.approx(ASSOC_HALF, abs=1e-12)
    dense = TierGeometry(density=10.0, serving_radius=50.0, pathloss=4.0)
    assert association_probability(1.0, dense) == pytest.approx(1.0, abs=1e-15)


def test_association_unbounded_rejected(geom_m):
    with pytest.raises(ValueError):
        association_probability(0.5, geom_m)


# ---------------------------------------------------------------------------
# q_factor and the conditional success probabilities
# ---------------------------------------------------------------------------

def test_q_factor_frozen_values(geom_d, theta):
    x_star = theta ** (-2.0 / geom_d.pathloss)
    assert q_factor(0.5, geom_d, theta, x_star) == pytest.approx(Q_XSTAR, abs=1e-12)
    assert q_factor(0.5, geom_d, theta, 0.0) == pytest.approx(Q_ZERO, abs=1e-12)


def test_q_factor_saturated_limit(theta):
    # huge mean node count: the exponential vanishes and q -> 1/denominator
    geom = TierGeometry(density=10.0, serving_radius=100.0, pathloss=4.0)
    x_star = theta**-0.5
    expected = 1.0 / (0.5 + theta**0.5 * g_integral(4.0, x_star))
    assert q_factor(0.5, geom, theta, x_star) == pytest.approx(expected, rel=1e-12)


def _radial_oracle(p, geom, theta, x):
    """Independent quadrature of the serving-distance integral behind the
    conditional success probabilities."""
    lam, rc, a = geom.density, geom.serving_radius, geom.pathloss
    norm = -math.expm1(-lam * p * math.pi * rc**2)
    g_val, _ = integrate.quad(lambda t: 1 / (1 + t ** (a / 2)), x, np.inf,
                              epsabs=1e-13, epsrel=1e-13, limit=400)
    scale = math.pi * lam * theta ** (2 / a) * g_val

    def integrand(r):
        f_r = 2 * math.pi * lam * p * r * math.exp(-lam * p * math.pi * r**2) / norm
        return f_r * math.exp(-scale * r**2)

    value, _ = integrate.quad(integrand, 0.0, rc, epsabs=1e-13, epsrel=1e-13,
                              limit=400)
    return value


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9, 1.0])
def test_conditional_stp_matches_radial_quadrature(p, geom_d, theta):
    x_star = theta ** (-2.0 / geom_d.pathloss)
    assert stp_nearest_cached(p, geom_d, theta) == pytest.approx(
        _radial_oracle(p, geom_d, theta, x_star), abs=1e-10)
    assert stp_nearest_uncached(p, geom_d, theta) == pytest.approx(
        _radial_oracle(p, geom_d, theta, 0.0), abs=1e-10)


def test_conditional_stp_frozen_values(geom_d, theta):
    assert stp_nearest_cached(0.5, geom_d, theta) == pytest.approx(CASE1, abs=1e-12)
    assert stp_nearest_uncached(0.5, geom_d, theta) == pytest.approx(CASE2, abs=1e-12)


def test_stp_zero_probability_branch(geom_d, theta):
    assert stp_nearest_cached(0.0, geom_d, theta) == 0.0
    assert stp_nearest_uncached(0.0, geom_d, theta) == 0.0
    assert stp_cache_tier(0.0, geom_d, theta) == 0.0


def test_nearest_cached_dominates(geom_d, geom_s, theta):
    # less interference when the nearest node is the server
    for geom in (geom_d, geom_s):
        p = np.linspace(0.01, 1.0, 25)
        assert np.all(stp_nearest_cached(p, geom, theta)
                      >= stp_nearest_uncached(p, geom, theta))


def test_cache_tier_is_case_mixture(geom_d, theta):
    p = np.linspace(0.0, 1.0, 21)
    mix = p * stp_nearest_cached(p, geom_d, theta) \
        + (1 - p) * stp_nearest_uncached(p, geom_d, theta)
    assert np.allclose(stp_cache_tier(p, geom_d, theta), mix, rtol=0, atol=1e-14)


def test_cache_tier_frozen_value(geom_d, theta):
    assert stp_cache_tier(0.5, geom_d, theta) == pytest.approx(MIXTURE, abs=1e-12)
    assert stp_cache_tier(1.0, geom_d, theta) == pytest.approx(
        stp_nearest_cached(1.0, geom_d, theta), rel=1e-14)


def test_monotone_in_caching_probability(geom_d, geom_s, theta):
    p = np.linspace(0.0, 1.0, 101)
    for geom in (geom_d, geom_s):
        assert np.all(np.diff(stp_cache_tier(p, geom, theta)) >= -1e-12)
        assert np.all(np.diff(hit_term(p, geom, theta)) >= -1e-12)


# ---------------------------------------------------------------------------
# macro tier
# ---------------------------------------------------------------------------

def test_mbs_frozen_values(theta):
    assert stp_mbs(4.0, theta) == pytest.approx(MBS_5DB, abs=1e-12)
    assert stp_mbs(4.0, 1.0) == pytest.approx(MBS_0DB, abs=1e-12)
    assert stp_mbs(4.0, 1.0) == pytest.approx(1.0 / (1.0 + math.pi / 4), abs=1e-12)


def test_mbs_threshold_limits():
    assert stp_mbs(4.0, 1e-12) == pytest.approx(1.0, abs=1e-5)
    thetas = 10 ** (np.arange(-2.0, 15.0) / 10.0)
    values = [stp_mbs(4.0, t) for t in thetas]
    assert np.all(np.diff(values) < 0)


def test_mbs_domain():
    for pathloss in (2.0, math.inf):
        with pytest.raises(ValueError):
            stp_mbs(pathloss, 1.0)


# ---------------------------------------------------------------------------
# hit term
# ---------------------------------------------------------------------------

def test_hit_term_frozen_value(geom_d, theta):
    assert hit_term(0.5, geom_d, theta) == pytest.approx(HIT, abs=1e-12)
    assert hit_term(0.0, geom_d, theta) == 0.0


def test_hit_term_equals_association_times_stp(geom_d, geom_s, theta):
    rng = np.random.default_rng(5)
    for geom in (geom_d, geom_s):
        p = rng.random(200)
        product = association_probability(p, geom) * stp_cache_tier(p, geom, theta)
        assert np.allclose(hit_term(p, geom, theta), product, rtol=0, atol=1e-12)


def test_hit_term_finite_slope_at_zero(geom_d, theta):
    # no singularity at p=0: one-sided difference quotients stabilize
    h1 = hit_term(1e-6, geom_d, theta) / 1e-6
    h2 = hit_term(1e-8, geom_d, theta) / 1e-8
    assert math.isfinite(h1) and math.isfinite(h2)
    assert h1 == pytest.approx(h2, rel=1e-3)
    assert h2 == pytest.approx(q_factor(0.0, geom_d, theta, 0.0), rel=1e-5)


def test_probability_codomains(geom_d, geom_s, theta):
    p = np.linspace(0.0, 1.0, 41)
    for geom in (geom_d, geom_s):
        for fn in (stp_nearest_cached, stp_nearest_uncached, stp_cache_tier,
                   hit_term):
            vals = fn(p, geom, theta)
            assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


# ---------------------------------------------------------------------------
# construction contracts
# ---------------------------------------------------------------------------

def test_tier_geometry_validation():
    with pytest.raises(ValueError):
        TierGeometry(density=0.0, serving_radius=10.0, pathloss=4.0)
    with pytest.raises(ValueError):
        TierGeometry(density=1.0, serving_radius=-1.0, pathloss=4.0)
    with pytest.raises(ValueError):
        TierGeometry(density=1.0, serving_radius=10.0, pathloss=2.0)
    with pytest.raises(ValueError, match="^pathloss"):
        TierGeometry(density=1.0, serving_radius=10.0, pathloss=math.inf)
    with pytest.raises(ValueError, match="^density"):
        TierGeometry(density=math.inf, serving_radius=10.0, pathloss=4.0)


def test_network_geometry_radius_ordering(geom_d, geom_s, geom_m):
    with pytest.raises(ValueError):
        NetworkGeometry(d2d=geom_s, sbs=geom_d, mbs=geom_m)  # r_d < r_c
    with pytest.raises(ValueError):
        NetworkGeometry(d2d=geom_d, sbs=geom_s, mbs=geom_s)  # bounded macro


def test_radio_config_db_conversion():
    radio = RadioConfig.from_db(5.0, 1.0, 1.0, 1.0, 1.0)
    assert radio.sir_threshold == pytest.approx(10**0.5, rel=1e-15)
    assert radio.sir_threshold_db == pytest.approx(5.0, rel=1e-12)
    with pytest.raises(ValueError):
        RadioConfig(1.0, -1.0, 1.0, 1.0, 1.0)
    # an infinite rate leaves the model's finite-rate region
    with pytest.raises(ValueError, match="^backhaul_rate"):
        RadioConfig(1.0, 1.0, 1.0, 1.0, backhaul_rate=math.inf)
    with pytest.raises(ValueError, match="^backhaul_rate"):
        RadioConfig.from_db(5.0, 1.0, 1.0, 1.0, backhaul_rate=math.inf)
    with pytest.raises(ValueError, match="^bandwidth_d2d"):
        RadioConfig(1.0, math.inf, 1.0, 1.0, 1.0)
    # overflow, underflow to 0 and NaN are named as the dB field
    for bad_db in (4000.0, -4000.0, math.nan):
        with pytest.raises(ValueError, match="sir_threshold_db"):
            RadioConfig.from_db(bad_db, 1.0, 1.0, 1.0, 1.0)


def test_probability_domain_checked(geom_d, theta):
    with pytest.raises(ValueError):
        stp_cache_tier(1.2, geom_d, theta)
    with pytest.raises(ValueError):
        hit_term(-0.1, geom_d, theta)
    with pytest.raises(ValueError):
        hit_term(math.nan, geom_d, theta)
    with pytest.raises(ValueError):
        hit_term(np.array([0.5, math.nan]), geom_d, theta)


@pytest.mark.parametrize("bad", [math.nan, -1.0, 0.0], ids=["nan", "negative", "zero"])
def test_threshold_domain_checked(geom_d, bad):
    with pytest.raises(ValueError, match="^theta"):
        stp_mbs(4.0, bad)
    with pytest.raises(ValueError, match="^theta"):
        stp_cache_tier(0.5, geom_d, bad)
    for fn in (q_factor, stp_nearest_cached, stp_nearest_uncached, hit_term):
        args = (0.5, geom_d, bad, 0.0) if fn is q_factor else (0.5, geom_d, bad)
        with pytest.raises(ValueError, match="^theta"):
            fn(*args)
    with pytest.raises(ValueError, match="^theta"):
        stp_mbs(4.0, math.inf)
