"""Monte-Carlo estimators mirroring the analytic sampling model.

Each estimator draws the serving distance from the truncated
nearest-point law of the p-thinned field, places interferers as a
full-density Poisson field over the appropriate region (beyond the
server when the nearest node is the server, the whole disk otherwise),
applies unit-mean exponential fading, and counts SIR threshold
crossings.  Distances enter only through their squares, so fields are
sampled radially; no angles are needed.

Reproducibility: trials are processed in fixed blocks of ``_BLOCK``
trials, each block drawing from its own counter-derived substream of the
master seed (``numpy.random.SeedSequence(master_seed).spawn``).  Results
are therefore bit-identical for a given master seed regardless of how
blocks are scheduled.  Within a block, interferers are drawn ``_SUB``
trials at a time so the temporaries stay cache-sized; the fading gains
come from a jump-ahead copy of the block stream (``PCG64.advance``), so
the stream layout, and every output, is exactly what drawing the whole
block at once gives (see ``_interference``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .content import ContentLibrary, preference_matrix
from .delay import _log_rate
from .geometry import NetworkGeometry, RadioConfig, TierGeometry, stp_mbs

__all__ = [
    "EstimatorResult",
    "SimConfig",
    "SirSample",
    "mc_delay_end_to_end",
    "mc_stp_cache_tier",
    "mc_stp_mbs",
    "mc_stp_nearest_cached",
    "mc_stp_nearest_uncached",
    "sample_ppp",
    "sample_serving_distance",
]

_BLOCK = 4096
_SUB = 64  # trials per interference sub-chunk (see _interference)


@dataclass(frozen=True)
class SimConfig:
    """Trial count, simulation window and master seed.

    The simulation disk radius is ``window_multiplier`` times the serving
    radius for the bounded tiers.  The macro tier has no serving radius;
    its disk radius is ``mbs_region_radius`` when given, otherwise
    ``window_multiplier * 3 / sqrt(density * pi)``.  The factor 3 on the
    natural nearest-neighbour scale compensates for the unbounded
    serving-distance tail: it brings the truncation bias at the default
    multiplier down to the bounded tiers' level (a few 1e-4).
    """

    trials: int = 50_000
    window_multiplier: float = 10.0
    master_seed: int = 20260809
    mbs_region_radius: float | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.window_multiplier < 5:
            raise ValueError("window_multiplier must be >= 5 to keep the "
                             "truncated-interference bias negligible")

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


@dataclass(frozen=True)
class SirSample:
    """One transmission draw: serving distance, fading gains (serving link
    first), interferer distances, and the resulting SIR."""

    serving_distance: float
    fading_gains: np.ndarray
    interferer_distances: np.ndarray
    sir: float

    @classmethod
    def draw(cls, p, geom: TierGeometry, sim: SimConfig, rng,
             nearest_cached=True):
        """Draw a single trial the same way the estimators do, keeping the
        raw ingredients for inspection."""
        r0 = float(sample_serving_distance(p, geom, rng))
        radius = sim.region_radius(geom)
        lo_sq = r0**2 if nearest_cached else 0.0
        mu = geom.density * math.pi * max(radius**2 - lo_sq, 0.0)
        n = rng.poisson(mu)
        dist = np.sqrt(lo_sq + rng.random(n) * (radius**2 - lo_sq))
        gains = rng.standard_exponential(n + 1)
        interference = float(np.sum(gains[1:] * dist ** (-geom.pathloss)))
        signal = gains[0] * r0 ** (-geom.pathloss)
        sir = signal / interference if interference > 0 else math.inf
        return cls(r0, gains, dist, sir)


# ---------------------------------------------------------------------------
# Elementary samplers
# ---------------------------------------------------------------------------

def sample_ppp(density: float, region_radius: float, rng) -> np.ndarray:
    """Sample a planar Poisson field on a disk: point count is
    Poisson(density * pi * R^2), positions uniform on the disk.
    Returns an (N, 2) array of xy coordinates."""
    if not (density > 0 and region_radius > 0):
        raise ValueError("density and region_radius must be positive")
    n = rng.poisson(density * math.pi * region_radius**2)
    radii = region_radius * np.sqrt(rng.random(n))
    angles = rng.random(n) * 2.0 * math.pi
    return np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))


def sample_serving_distance(p, geom: TierGeometry, rng, size=None):
    """Distance to the nearest point of the p-thinned field, conditioned on
    one existing within the serving radius.

    Inverse-CDF sampling of the truncated law with density
    2*pi*lambda*p*r*exp(-lambda*p*pi*r^2) / (1 - exp(-lambda*p*pi*rc^2)).
    """
    if not p > 0:
        raise ValueError("serving-distance law is conditional on p > 0")
    if not geom.bounded:
        raise ValueError("use the unbounded nearest-point law for the macro tier")
    lam_p = geom.density * p * math.pi
    trunc = -math.expm1(-lam_p * geom.serving_radius**2)
    u = rng.random(size)
    return np.sqrt(-np.log1p(-u * trunc) / lam_p)


# ---------------------------------------------------------------------------
# Vectorized SIR trial engine
# ---------------------------------------------------------------------------

def _pow_neg_half(r_sq, alpha):
    """r^(-alpha) from r^2; fast path for the common quartic path loss."""
    if alpha == 4.0:
        return 1.0 / (r_sq * r_sq)
    return r_sq ** (-0.5 * alpha)


def _interference(rng, r0_sq, lo_is_server, density, alpha, radius,
                  mask=None):
    """Aggregate interference per trial from a full-density radial Poisson
    field on the annulus (r0, radius) when ``lo_is_server`` else on the
    whole disk (0, radius).  ``mask`` limits sampling to a trial subset;
    masked-out trials get zero interference.

    Stream invariant: ``rng`` (a PCG64 generator) ends in the state, and
    every trial gets the bits, that drawing the whole call at once gives:
    the Poisson counts of all trials, then one uniform per interferer, then
    one exponential gain per interferer.  Interferers are formed ``_SUB``
    trials at a time so the temporaries stay cache-sized.
    ``Generator.random`` takes exactly one 64-bit output per float, so the
    gains come from a copy of the stream jumped ahead by the interferer
    count, and the caller's stream resumes where the gains end.  Per-trial
    sums keep their order (``np.bincount``).
    """
    n = r0_sq.shape[0]
    out = np.zeros(n)
    idx_all = np.arange(n) if mask is None else np.flatnonzero(mask)
    if idx_all.size == 0:
        return out
    r0s = r0_sq[idx_all]
    r_max_sq = radius * radius
    if lo_is_server:
        mu = density * math.pi * np.maximum(r_max_sq - r0s, 0.0)
    else:
        mu = np.full(idx_all.size, density * math.pi * r_max_sq)
    counts = rng.poisson(mu)
    gain_bits = np.random.PCG64(0)  # seed irrelevant: the state is replaced
    gain_bits.state = rng.bit_generator.state
    gain_bits.advance(int(counts.sum()))
    gain_rng = np.random.Generator(gain_bits)
    for s in range(0, idx_all.size, _SUB):
        e = min(s + _SUB, idx_all.size)
        c = counts[s:e]
        total = int(c.sum())
        u = rng.random(total)
        gains = gain_rng.standard_exponential(total)
        if lo_is_server:
            lo = np.repeat(r0s[s:e], c)
            r_sq = lo + u * (r_max_sq - lo)
        else:
            r_sq = r_max_sq * u
        contrib = gains * _pow_neg_half(r_sq, alpha)
        out[idx_all[s:e]] = np.bincount(np.repeat(np.arange(e - s), c),
                                        weights=contrib, minlength=e - s)
    # advance() clears the buffered 32-bit half; keep the caller's
    state = rng.bit_generator.state
    state["state"] = gain_bits.state["state"]
    rng.bit_generator.state = state
    return out


def _block_streams(sim: SimConfig):
    """Per-block generators: block i's stream is a pure function of
    (master_seed, i), so results do not depend on scheduling."""
    n_blocks = (sim.trials + _BLOCK - 1) // _BLOCK
    children = np.random.SeedSequence(sim.master_seed).spawn(n_blocks)
    done = 0
    for child in children:
        n = min(_BLOCK, sim.trials - done)
        done += n
        yield np.random.Generator(np.random.PCG64(child)), n


def _estimate(values) -> EstimatorResult:
    values = np.asarray(values, dtype=float)
    n = values.size
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return EstimatorResult(mean=mean, stderr=stderr, trials_used=n)


def _stp_trials(p, geom, theta, sim, lo_is_server, mixture=False):
    radius = sim.region_radius(geom)
    alpha = geom.pathloss
    flags = []
    for rng, n in _block_streams(sim):
        case1 = rng.random(n) < p if mixture else None
        r0 = sample_serving_distance(p, geom, rng, size=n)
        r0_sq = r0 * r0
        if mixture:
            interf = _interference(rng, r0_sq, True, geom.density, alpha,
                                   radius, mask=case1)
            interf += _interference(rng, r0_sq, False, geom.density, alpha,
                                    radius, mask=~case1)
        else:
            interf = _interference(rng, r0_sq, lo_is_server, geom.density,
                                   alpha, radius)
        signal = rng.standard_exponential(n) * _pow_neg_half(r0_sq, alpha)
        flags.append(signal >= theta * interf)
    return _estimate(np.concatenate(flags))


def mc_stp_nearest_cached(p, geom: TierGeometry, theta: float,
                          sim: SimConfig) -> EstimatorResult:
    """Estimate the success probability when the nearest node is the server
    (interferers only beyond the serving distance)."""
    if not p > 0:
        raise ValueError("conditional estimator requires p > 0")
    return _stp_trials(p, geom, theta, sim, lo_is_server=True)


def mc_stp_nearest_uncached(p, geom: TierGeometry, theta: float,
                            sim: SimConfig) -> EstimatorResult:
    """Estimate the success probability when a farther potential server
    transmits (interferers over the whole disk, the server excluded)."""
    if not p > 0:
        raise ValueError("conditional estimator requires p > 0")
    return _stp_trials(p, geom, theta, sim, lo_is_server=False)


def mc_stp_cache_tier(p, geom: TierGeometry, theta: float,
                      sim: SimConfig) -> EstimatorResult:
    """Estimate the tier success probability: each trial runs the
    nearest-cached variant with probability p, the farther-server variant
    otherwise.  Degenerate zero estimate at p = 0 (association never
    occurs)."""
    if p == 0:
        return EstimatorResult(mean=0.0, stderr=0.0, trials_used=sim.trials)
    return _stp_trials(p, geom, theta, sim, lo_is_server=True, mixture=True)


def mc_stp_mbs(density: float, pathloss: float, theta: float,
               sim: SimConfig) -> EstimatorResult:
    """Estimate the macro-tier success probability.  The serving distance
    follows the unbounded nearest-point law; interferers lie beyond it."""
    if not density > 0:
        raise ValueError("density must be positive")
    geom = TierGeometry(density=density, serving_radius=math.inf,
                        pathloss=pathloss)
    radius = sim.region_radius(geom)
    flags = []
    for rng, n in _block_streams(sim):
        r0_sq = rng.standard_exponential(n) / (density * math.pi)
        interf = _interference(rng, r0_sq, True, density, pathloss, radius)
        signal = rng.standard_exponential(n) * _pow_neg_half(r0_sq, pathloss)
        flags.append(signal >= theta * interf)
    return _estimate(np.concatenate(flags))


# ---------------------------------------------------------------------------
# End-to-end delay estimator
# ---------------------------------------------------------------------------

def _tier_service(rng, n, p_cell, geom, theta, radius, active):
    """Simulate one cached tier of the cascade for the active trials.

    Association happens with probability 1 - exp(-lambda*p*pi*r^2); for
    associated trials the serving distance is drawn from the truncated
    law with the trial's own caching probability, the nearest-vs-farther
    case is picked with probability p, and an SIR trial is run.  Returns
    a boolean served mask.  The per-trial uniform and signal draws happen
    for all ``n`` trials in a fixed order.
    """
    lam_pi = geom.density * math.pi
    r_sq = geom.serving_radius**2
    assoc_prob = -np.expm1(-lam_pi * p_cell * r_sq)
    has_server = (rng.random(n) < assoc_prob) & active
    case1 = rng.random(n) < p_cell
    u = rng.random(n)
    signal_gain = rng.standard_exponential(n)
    # inverse-CDF serving distance; a dummy rate keeps p=0 cells finite,
    # their trials are masked out through has_server anyway
    lam_p = np.where(has_server, lam_pi * p_cell, 1.0)
    trunc = -np.expm1(-lam_p * r_sq)
    r0_sq = -np.log1p(-u * trunc) / lam_p
    alpha = geom.pathloss
    interf = _interference(rng, r0_sq, True, geom.density, alpha, radius,
                           mask=has_server & case1)
    interf += _interference(rng, r0_sq, False, geom.density, alpha, radius,
                            mask=has_server & ~case1)
    signal = signal_gain * _pow_neg_half(r0_sq, alpha)
    return has_server & (signal >= theta * interf)


def mc_delay_end_to_end(policy, lib: ContentLibrary, geoms: NetworkGeometry,
                        radio: RadioConfig, sim: SimConfig) -> EstimatorResult:
    """Empirical counterpart of the overall delay.

    Each trial draws a requested (file, layer) from the demand law, walks
    the serving cascade (d2d association and SIR trial, then sbs, then
    the macro fallback) and accrues the realized delay: transmission time
    on the serving branch, plus backhaul retrieval and an SIR-gated macro
    transmission when both cached tiers miss.
    """
    theta = radio.sir_threshold
    weights = preference_matrix(lib).ravel()
    sizes = lib.super_layer_sizes.ravel()
    pd_flat = policy.p_d.ravel()
    ps_flat = policy.p_s.ravel()
    rate_d = _log_rate(radio.bandwidth_d2d, theta)
    rate_s = _log_rate(radio.bandwidth_sbs, theta)
    rate_m = _log_rate(radio.bandwidth_mbs, theta)
    radius_d = sim.region_radius(geoms.d2d)
    radius_s = sim.region_radius(geoms.sbs)
    radius_m = sim.region_radius(geoms.mbs)
    lam_m = geoms.mbs.density
    alpha_m = geoms.mbs.pathloss

    values = []
    for rng, n in _block_streams(sim):
        cells = rng.choice(weights.size, size=n, p=weights)
        c = sizes[cells]
        served_d = _tier_service(rng, n, pd_flat[cells], geoms.d2d, theta,
                                 radius_d, active=np.ones(n, dtype=bool))
        served_s = _tier_service(rng, n, ps_flat[cells], geoms.sbs, theta,
                                 radius_s, active=~served_d)
        # macro branch: always draw so the stream layout is policy-free
        r0_sq_m = rng.standard_exponential(n) / (lam_m * math.pi)
        interf_m = _interference(rng, r0_sq_m, True, lam_m, alpha_m, radius_m)
        sig_m = rng.standard_exponential(n) * _pow_neg_half(r0_sq_m, alpha_m)
        success_m = sig_m >= theta * interf_m

        miss = ~served_d & ~served_s
        delay = np.where(served_d, c / rate_d, 0.0)
        delay += np.where(~served_d & served_s, c / rate_s, 0.0)
        delay += np.where(miss, c / radio.backhaul_rate, 0.0)
        delay += np.where(miss & success_m, c / rate_m, 0.0)
        values.append(delay)
    return _estimate(np.concatenate(values))
