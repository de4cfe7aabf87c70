"""Monte-Carlo estimators mirroring the analytic sampling model.

Estimand: stated once, in ``SimConfig``'s docstring.

Every estimator runs one SIR test, ``_served``, by conditional Monte Carlo
(Rao-Blackwellisation): it samples interferer positions only inside a near
window of two tier scales (the serving radius, or 3/sqrt(lambda*pi) for the
macro tier), never beyond the region radius, and returns the trial's
success probability given them instead of a 0/1 threshold crossing.  With
s = theta * r0^alpha that is the product over the near interferers of
r^alpha / (r^alpha + s), every unit-mean exponential fading gain (the
serving link's and each interferer's) averaged out, times the exact
Laplace functional of the field from the near window to the region radius,

    exp(-lambda*pi*c * [G(alpha, L/c) - G(alpha, R^2/c)]),  c = s^(2/alpha),

with L the larger of the squared lower bound (r0^2 or 0) and the squared
near radius, capped at R^2, and G the tail integral ``g_integral``
(``_far_exponent``).  Association, the nearest-vs-farther choice, the
serving distance and the near interferers' positions stay sampled.  The
trade-off: the fading average and the far factor are the identities the
analytic formulas rest on, so what the simulation checks on its own is
the interferers' positions inside two tier scales, the serving-distance
law, the association and the serving cascade; in exchange each trial
costs about 50 interferer positions instead of about 1 000 positions and
gains, and its variance is lower.

Cached tiers draw the serving distance from the truncated nearest-point
law of the p-thinned field (``_nearest_r0_sq``), the macro tier from the
unbounded law (``_macro_served``); the end-to-end cascade runs the same
pieces and prices each trial with the branch probabilities through
``delay.branch_costs``.  Distances enter only through their squares, so
fields are sampled radially; no angles are needed.

Reproducibility: trials are processed in fixed blocks of ``_BLOCK`` (1024)
trials, each block drawing from its own counter-derived substream of the
master seed (``numpy.random.SeedSequence(master_seed).spawn``), in block
order on the calling thread, so results are bit-identical for a given
master seed (see ``_over_blocks``).  Within a block, each interference
call draws the Poisson counts of its trials, then one uniform per
interferer, and nothing else; the interferers are formed in sub-chunks of
trials holding about ``_CHUNK`` interferers on average, so the
temporaries stay cache-sized at any density, and each trial's factor is
one segment product (``np.multiply.reduceat``) of its contiguous
interferers (see ``_interference``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .content import ContentLibrary, _is_bool, _is_count, preference_matrix
from .delay import _cascade, _check_shape, branch_costs
from .geometry import (NetworkGeometry, RadioConfig, TierGeometry, _check_theta,
                       _g_general, _prob)

__all__ = [
    "EstimatorResult",
    "SimConfig",
    "mc_delay_end_to_end",
    "mc_stp_cache_tier",
    "mc_stp_mbs",
    "mc_stp_nearest_cached",
    "mc_stp_nearest_uncached",
    "sample_serving_distance",
]

_BLOCK = 1024
_CHUNK = 1 << 14  # mean interferers per sub-chunk (see _interference)


@dataclass(frozen=True)
class SimConfig:
    """Trial count, simulation window and master seed.

    The estimand, stated here once: each estimator targets success (or
    delay) in a full-density Poisson interferer field, beyond the server
    when the nearest node serves and over the whole plane otherwise, cut
    off at the region radius.  That radius is ``window_multiplier`` times
    the serving radius for the bounded tiers; the macro tier has none, so
    its radius is ``mbs_region_radius`` when given, otherwise
    ``window_multiplier * 3 / sqrt(density * pi)`` (the factor 3 brings
    its truncation bias to the bounded tiers' level).  A finite window
    gives the truncated field: the bias is a few 1e-4 at the default
    multiplier and alpha = 4, but at alpha <= 3 it fails ``svcache
    validate``.  ``window_multiplier = inf`` gives the analytic model's
    own untruncated field, G(alpha, inf) = 0 in the far factor.  Either
    way interferers are sampled only inside two tier scales
    (``_windows``), so the window costs no trial time.  Each check raises
    ``ValueError`` naming its field first.
    """

    trials: int = 50_000
    window_multiplier: float = 10.0
    master_seed: int = 20260809
    mbs_region_radius: float | None = None

    def __post_init__(self):
        if not (_is_count(self.trials) and self.trials >= 1):
            raise ValueError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not (_is_count(self.master_seed) and self.master_seed >= 0):
            raise ValueError("master_seed must be an integer >= 0, "
                             f"got {self.master_seed!r}")
        if not 5 <= self.window_multiplier:
            raise ValueError(f"window_multiplier must be >= 5, got {self.window_multiplier!r}")
        radius = self.mbs_region_radius
        if radius is not None and (_is_bool(radius) or not 0 < radius < math.inf):
            raise ValueError(f"mbs_region_radius must be None or finite and > 0, got {radius!r}")

    def region_radius(self, geom: TierGeometry) -> float:
        if geom.bounded:
            return self.window_multiplier * geom.serving_radius
        if self.mbs_region_radius is not None:
            return self.mbs_region_radius
        return 3.0 * self.window_multiplier / math.sqrt(geom.density * math.pi)


@dataclass(frozen=True)
class EstimatorResult:
    """Sample mean, standard error (sample std / sqrt(n)) and trial count."""

    mean: float
    stderr: float
    trials_used: int


def _nearest_r0_sq(u, lam_p, mass):
    """Inverse CDF of the truncated nearest-point law, in squared distance.

    ``lam_p`` is the thinned density times pi and ``mass`` the probability
    1 - exp(-lam_p * rc^2) that a point lies within the serving radius rc;
    the law has density lam_p*exp(-lam_p*s) / mass on s = r^2 in [0, rc^2].
    """
    return -np.log1p(-u * mass) / lam_p


def sample_serving_distance(p, geom: TierGeometry, rng, size=None):
    """Distance to the nearest point of the p-thinned field, p in (0, 1],
    given one within the serving radius (``_nearest_r0_sq``)."""
    if not p > 0:
        raise ValueError(f"serving-distance law is conditional on p > 0, got {p!r}")
    if not geom.bounded:
        raise ValueError("use the unbounded nearest-point law for the macro tier")
    _prob(p, geom)
    lam_p = geom.density * p * math.pi
    mass = -math.expm1(-lam_p * geom.serving_radius**2)
    return np.sqrt(_nearest_r0_sq(rng.random(size), lam_p, mass))


# ---------------------------------------------------------------------------
# Vectorized SIR trial engine
# ---------------------------------------------------------------------------

def _interference(rng, r0_sq, s, lo_is_server, density, alpha, radius, mask):
    """Laplace factor of the interference per trial, its Rayleigh fading
    averaged exactly: the product over the interferers of
    E[exp(-s*g*r^-alpha)] = r^alpha / (r^alpha + s), g ~ Exp(1), with the
    trial's own ``s``.  Interferers come from a full-density radial Poisson
    field on the annulus (r0, radius) when ``lo_is_server`` else on the
    whole disk (0, radius), for the trials of the boolean ``mask``; the
    others, and trials without interferers, get the factor 1.

    Stream invariant: ``rng`` ends in the state, and every trial gets the
    bits, that drawing the whole call at once gives: the Poisson counts of
    all trials, then one uniform per interferer.  Interferers are formed
    in sub-chunks of trials holding ``_CHUNK`` interferers at the call's
    mean count, in buffers allocated once per call, sized to the largest
    sub-chunk, so the working set stays cache-sized at any density.  Each
    sub-chunk finds its own segments, one contiguous run of interferers
    per trial, and multiplies each out by ``np.multiply.reduceat`` into
    the trial's entry; trials without interferers start no segment.
    """
    n = r0_sq.shape[0]
    out = np.ones(n)
    idx_all = np.flatnonzero(mask)
    if idx_all.size == 0:
        return out
    r0s, s_all = r0_sq[idx_all], s[idx_all]
    r_max_sq = radius * radius
    if lo_is_server:
        mu = density * math.pi * np.maximum(r_max_sq - r0s, 0.0)
    else:
        mu = np.full(idx_all.size, density * math.pi * r_max_sq)
    counts = rng.poisson(mu)
    sub = min(idx_all.size, max(1, int(_CHUNK / max(float(mu.mean()), 1.0))))
    edges = list(range(0, idx_all.size, sub)) + [idx_all.size]
    totals = np.add.reduceat(counts, edges[:-1]).tolist()
    # one set of buffers per call, sized to the largest sub-chunk
    u_buf, r_buf = np.empty(max(totals)), np.empty(max(totals))
    for start, stop, total in zip(edges, edges[1:], totals):
        c = counts[start:stop]
        u = rng.random(out=u_buf[:total])
        r = r_buf[:total]
        if lo_is_server:
            lo = np.repeat(r0s[start:stop], c)
            np.subtract(r_max_sq, lo, out=r)
            np.multiply(u, r, out=r)
            np.add(lo, r, out=r)
        else:
            np.multiply(r_max_sq, u, out=r)
        den = np.repeat(s_all[start:stop], c)
        if alpha == 4.0:  # fast path for the common quartic path loss
            np.multiply(r, r, out=r)
            np.add(r, den, out=den)
            np.divide(r, den, out=r)
        else:  # as 1 / (1 + s*r^-alpha), right where r^alpha would overflow:
            # r^-alpha underflows to 0 (factor 1), s*r^-alpha overflows to
            # inf (factor 0)
            np.power(r, -0.5 * alpha, out=r)
            with np.errstate(over="ignore"):
                np.multiply(den, r, out=den)
            np.add(den, 1.0, out=den)
            np.divide(1.0, den, out=r)
        # each trial's first interferer within the sub-chunk; only trials that
        # hold one start a segment (an empty segment would cut its neighbour's)
        held = np.flatnonzero(c)
        out[idx_all[start + held]] = np.multiply.reduceat(r, (np.cumsum(c) - c)[held])
    return out


def _over_blocks(sim: SimConfig, block) -> EstimatorResult:
    """``_estimate`` of the per-trial values ``block(rng, n)`` returns for
    each block of ``_BLOCK`` trials, concatenated in block order.  Block
    i's stream is a pure function of (master_seed, i); the blocks run in
    order on the calling thread."""
    n_blocks = (sim.trials + _BLOCK - 1) // _BLOCK
    children = np.random.SeedSequence(sim.master_seed).spawn(n_blocks)
    values = [block(np.random.Generator(np.random.PCG64(child)),
                    min(_BLOCK, sim.trials - i * _BLOCK))
              for i, child in enumerate(children)]
    return _estimate(np.concatenate(values))


def _estimate(values) -> EstimatorResult:
    values = np.asarray(values, dtype=float)
    n = values.size
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return EstimatorResult(mean=mean, stderr=stderr, trials_used=n)


def _windows(sim: SimConfig, geom: TierGeometry):
    """(near, region) radii of a tier (the region radius may be inf; see
    ``SimConfig``): interferers are sampled inside the near window, two
    tier scales (the serving radius, or 3/sqrt(lambda*pi) for the macro
    tier) and never beyond the region radius; the field from there to the
    region radius is averaged exactly."""
    radius = sim.region_radius(geom)
    scale = (geom.serving_radius if geom.bounded
             else 3.0 / math.sqrt(geom.density * math.pi))
    return min(2.0 * scale, radius), radius


def _far_exponent(c, lower_sq, geom: TierGeometry, windows):
    """lambda*pi*c * [G(a, L/c) - G(a, R^2/c)]: minus the log Laplace
    functional at s = c^(a/2) of a Rayleigh-faded Poisson field on the
    annulus from sqrt(L) to the region radius R, with
    L = max(lower_sq, near^2) capped at R^2.  At a = 4 the bracket is
    arctan(R^2/c) - arctan(L/c)."""
    near, radius = windows
    r_max_sq = radius * radius
    lo = np.minimum(np.maximum(lower_sq, near * near), r_max_sq)
    if geom.pathloss == 4.0:
        bracket = np.arctan(r_max_sq / c) - np.arctan(lo / c)
    else:
        bracket = (_g_general(geom.pathloss, lo / c)
                   - _g_general(geom.pathloss, r_max_sq / c))
    return geom.density * math.pi * c * bracket


def _served(rng, r0_sq, nearest, farther, geom: TierGeometry, windows, theta):
    """The one SIR test, conditional on the near field's positions:
    interferers inside the near window beyond the server for the
    ``nearest`` trials and over the whole near disk for the ``farther``
    trials (boolean masks; other trials see none).  Returns each trial's
    success probability given them: the product of the two
    ``_interference`` factors at s = theta * r0^alpha, every fading gain
    averaged, times the far factor exp(-``_far_exponent``) at
    c = s^(2/alpha) = theta^(2/alpha) * r0^2."""
    alpha, near = geom.pathloss, windows[0]
    s = theta * r0_sq ** (0.5 * alpha)
    success = _interference(rng, r0_sq, s, True, geom.density, alpha, near, nearest)
    success *= _interference(rng, r0_sq, s, False, geom.density, alpha, near, farther)
    c = theta ** (2.0 / alpha) * r0_sq
    lower_sq = np.where(nearest, r0_sq, 0.0)
    return success * np.exp(-_far_exponent(c, lower_sq, geom, windows))


def _stp_trials(p, geom, theta, sim, nearest_serves=None):
    """Conditional SIR trials of a cached tier.  ``nearest_serves`` fixes
    whether the nearest node is the server in every trial; None draws it
    with probability p per trial."""
    windows = _windows(sim, geom)

    def block(rng, n):
        nearest = (rng.random(n) < p if nearest_serves is None
                   else np.full(n, nearest_serves))
        r0 = sample_serving_distance(p, geom, rng, size=n)
        return _served(rng, r0 * r0, nearest, ~nearest, geom, windows, theta)

    return _over_blocks(sim, block)


def _check_tier_args(p, geom, theta):
    """The analytic functions' checks: p in [0, 1] on a bounded tier and a
    finite, positive threshold."""
    _prob(p, geom)
    _check_theta(theta)


def mc_stp_nearest_cached(p, geom: TierGeometry, theta: float,
                          sim: SimConfig) -> EstimatorResult:
    """Estimate the success probability when the nearest node is the server
    (interferers only beyond the serving distance); requires p in (0, 1]."""
    _check_tier_args(p, geom, theta)
    return _stp_trials(p, geom, theta, sim, nearest_serves=True)


def mc_stp_nearest_uncached(p, geom: TierGeometry, theta: float,
                            sim: SimConfig) -> EstimatorResult:
    """Estimate the success probability when a farther potential server
    transmits (interferers over the whole disk, the server excluded);
    requires p in (0, 1]."""
    _check_tier_args(p, geom, theta)
    return _stp_trials(p, geom, theta, sim, nearest_serves=False)


def mc_stp_cache_tier(p, geom: TierGeometry, theta: float,
                      sim: SimConfig) -> EstimatorResult:
    """Estimate the tier success probability: each trial runs the
    nearest-cached variant with probability p, the farther-server variant
    otherwise.  Degenerate zero estimate at p = 0 (association never
    occurs)."""
    _check_tier_args(p, geom, theta)
    if p == 0:
        return EstimatorResult(mean=0.0, stderr=0.0, trials_used=sim.trials)
    return _stp_trials(p, geom, theta, sim)


def _macro_served(rng, n, geom: TierGeometry, windows, theta):
    """Macro-tier SIR trials: the serving distance follows the unbounded
    nearest-point law; interferers lie beyond it."""
    r0_sq = rng.standard_exponential(n) / (geom.density * math.pi)
    everyone = np.ones(n, dtype=bool)
    return _served(rng, r0_sq, everyone, ~everyone, geom, windows, theta)


def mc_stp_mbs(density: float, pathloss: float, theta: float,
               sim: SimConfig) -> EstimatorResult:
    """Estimate the macro-tier success probability (``_macro_served``)."""
    _check_theta(theta)
    geom = TierGeometry(density=density, serving_radius=math.inf,
                        pathloss=pathloss)
    windows = _windows(sim, geom)
    return _over_blocks(sim, lambda rng, n: _macro_served(rng, n, geom, windows, theta))


# ---------------------------------------------------------------------------
# End-to-end delay estimator
# ---------------------------------------------------------------------------

def _tier_service(rng, n, p_cell, geom, theta, windows):
    """Simulate one cached tier of the cascade for every trial.

    A trial associates with probability 1 - exp(-lambda*p*pi*r^2), which is
    also the mass of the truncated serving-distance law at the trial's own
    caching probability p; the nearest-vs-farther case is picked with
    probability p.  Every draw happens for all ``n`` trials in a fixed
    order.  Returns each trial's probability of being served by the tier:
    its ``_served`` success probability if it has a server, else 0.
    """
    lam_p = geom.density * math.pi * p_cell
    mass = -np.expm1(-lam_p * geom.serving_radius**2)
    has_server = rng.random(n) < mass
    nearest = rng.random(n) < p_cell
    u = rng.random(n)
    r0_sq = np.ones(n)  # unused where there is no server
    r0_sq[has_server] = _nearest_r0_sq(u[has_server], lam_p[has_server],
                                       mass[has_server])
    return has_server * _served(rng, r0_sq, has_server & nearest,
                                has_server & ~nearest, geom, windows, theta)


def mc_delay_end_to_end(policy, lib: ContentLibrary, geoms: NetworkGeometry,
                        radio: RadioConfig, sim: SimConfig) -> EstimatorResult:
    """Empirical counterpart of the overall delay.

    Each trial draws a requested (file, layer) from the demand law and,
    for each tier of the serving cascade, the association, the
    nearest-vs-farther case, the serving distance and the near field.
    Given those, the tiers serve independently with the ``_served``
    probabilities P_d, P_s and P_m (0 for a cached tier without a server),
    and the trial is priced with its expected delay
    P_d*a + (1 - P_d)*(P_s*b + (1 - P_s)*c_m(P_m)) from ``branch_costs``
    and ``delay._cascade``; c_m is linear in the macro success, so putting
    its probability in is exact.
    """
    _check_shape(policy, lib)
    theta = radio.sir_threshold
    weights = preference_matrix(lib).ravel()
    sizes, pd_flat, ps_flat = (m.ravel() for m in (lib.super_layer_sizes,
                                                    policy.p_d, policy.p_s))
    windows_d, windows_s, windows_m = (_windows(sim, g)
                                       for g in (geoms.d2d, geoms.sbs, geoms.mbs))

    def block(rng, n):
        cells = rng.choice(weights.size, size=n, p=weights)
        hit_d = _tier_service(rng, n, pd_flat[cells], geoms.d2d, theta, windows_d)
        hit_s = _tier_service(rng, n, ps_flat[cells], geoms.sbs, theta, windows_s)
        success_m = _macro_served(rng, n, geoms.mbs, windows_m, theta)
        d2d, sbs, mbs = _cascade(hit_d, hit_s,
                                 *branch_costs(sizes[cells], success_m, radio))
        return d2d + sbs + mbs

    return _over_blocks(sim, block)
