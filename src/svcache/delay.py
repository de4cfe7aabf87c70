"""Service-delay model for a caching policy.

A request for quality level l of file f is served by the first tier in
the cascade d2d -> sbs -> mbs that holds the item and clears the SIR
threshold.  Each branch contributes its transmission time weighted by
the probability of reaching and succeeding on that branch; the macro
branch additionally pays the backhaul retrieval time.  The three branch
weights (hit_d, (1-hit_d)*hit_s, (1-hit_d)*(1-hit_s)) partition unity.

Delays are expected-time surrogates: success probability times
transmission time, not a conditional waiting time.  Units are bits, Hz,
bit/s and seconds throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .content import ContentLibrary, preference_matrix, super_layer_size
from .geometry import NetworkGeometry, RadioConfig, hit_term, stp_mbs

__all__ = [
    "CacheBudgets",
    "DelayBreakdown",
    "all_miss_delay",
    "branch_costs",
    "branch_delays",
    "cell_delay_matrix",
    "hit_rate",
    "overall_delay",
    "partial_delay_d2d",
    "partial_delay_mbs",
    "partial_delay_sbs",
]


@dataclass(frozen=True)
class CacheBudgets:
    """Per-node cache sizes in bits: every d2d helper stores at most
    ``m_d`` bits and every small cell at most ``m_s`` bits.  A non-positive
    budget raises ``ValueError`` naming its field."""

    m_d: float
    m_s: float

    def __post_init__(self):
        for name in ("m_d", "m_s"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be strictly positive, got {value!r}")


@dataclass(frozen=True)
class DelayBreakdown:
    """Per-(file, layer) partial delays in seconds and their
    popularity-weighted total."""

    d2d: np.ndarray
    sbs: np.ndarray
    mbs: np.ndarray
    total: float

    @property
    def per_cell(self) -> np.ndarray:
        return self.d2d + self.sbs + self.mbs


def _log_rate(bandwidth, theta):
    return bandwidth * np.log2(1.0 + theta)


def branch_costs(sizes, mbs_success, radio: RadioConfig):
    """Seconds each branch costs an item of ``sizes`` bits, elementwise:

    a   = c / (W_d * log2(1 + theta))                      d2d
    b   = c / (W_s * log2(1 + theta))                      sbs
    c_m = c * (1/backhaul + P_m / (W_m * log2(1 + theta)))  macro

    The delay of an item is hit_d*a + (1 - hit_d)*(hit_s*b + (1 - hit_s)*c_m).
    """
    theta = radio.sir_threshold
    return (sizes / _log_rate(radio.bandwidth_d2d, theta),
            sizes / _log_rate(radio.bandwidth_sbs, theta),
            sizes * (1.0 / radio.backhaul_rate
                     + mbs_success / _log_rate(radio.bandwidth_mbs, theta)))


def branch_delays(hit_d, hit_s, mbs_success, sizes, radio: RadioConfig):
    """The three branch delays for given hit terms, elementwise.

    Split out so the algebra can be checked against hand-computed hit
    values; the public functions feed it hit terms derived from the
    caching probabilities.
    """
    return _cascade(hit_d, hit_s, *branch_costs(sizes, mbs_success, radio))


def _cascade(hit_d, hit_s, a, b, c_m):
    """The three branch delays from hit terms and ``branch_costs``."""
    return (hit_d * a, (1.0 - hit_d) * hit_s * b,
            (1.0 - hit_d) * (1.0 - hit_s) * c_m)


def _hits(p_d, p_s, geom_d, geom_s, radio):
    theta = radio.sir_threshold
    return hit_term(p_d, geom_d, theta), hit_term(p_s, geom_s, theta)


def _branches(p_d, p_s, sizes, geoms: NetworkGeometry, radio):
    hd, hs = _hits(p_d, p_s, geoms.d2d, geoms.sbs, radio)
    pm = stp_mbs(geoms.mbs.pathloss, radio.sir_threshold)
    return branch_delays(hd, hs, pm, sizes, radio)


def partial_delay_d2d(f, l, p_d, lib: ContentLibrary, geom_d, radio: RadioConfig):
    """Expected d2d branch delay for item (f, l) cached with probability p_d."""
    a, _, _ = branch_costs(super_layer_size(lib, f, l), 0.0, radio)
    return float(hit_term(p_d, geom_d, radio.sir_threshold) * a)


def partial_delay_sbs(f, l, p_d, p_s, lib: ContentLibrary, geom_d, geom_s,
                      radio: RadioConfig):
    """Expected small-cell branch delay for item (f, l): reached only when
    the d2d branch misses."""
    hits = _hits(p_d, p_s, geom_d, geom_s, radio)
    return float(branch_delays(*hits, 0.0, super_layer_size(lib, f, l), radio)[1])


def partial_delay_mbs(f, l, p_d, p_s, lib: ContentLibrary,
                      geoms: NetworkGeometry, radio: RadioConfig):
    """Expected macro branch delay for item (f, l): backhaul retrieval plus
    downlink transmission, reached when both cached tiers miss."""
    return float(_branches(p_d, p_s, super_layer_size(lib, f, l), geoms, radio)[2])


def _check_shape(policy, lib: ContentLibrary):
    """Reject a policy whose matrices do not have the catalog's shape; every
    entry point that reads a policy cell by cell calls this first."""
    if policy.shape != lib.shape:
        raise ValueError(
            f"policy shape {policy.shape} does not match catalog {lib.shape}")


def overall_delay(policy, lib: ContentLibrary, geoms: NetworkGeometry,
                  radio: RadioConfig) -> DelayBreakdown:
    """Popularity-weighted overall service delay of a caching policy.

    Parameters
    ----------
    policy : CachingPolicy
        Caching probability matrices, each shaped (F, L).
    lib, geoms, radio
        Catalog, tier geometry and radio parameters.

    Returns
    -------
    DelayBreakdown
        The three per-cell partial-delay matrices and the total
        sum_{f,l} p_{f,l} * (d2d + sbs + mbs).
    """
    _check_shape(policy, lib)
    d2d, sbs, mbs = _branches(policy.p_d, policy.p_s, lib.super_layer_sizes,
                              geoms, radio)
    total = float((preference_matrix(lib) * (d2d + sbs + mbs)).sum())
    return DelayBreakdown(d2d=d2d, sbs=sbs, mbs=mbs, total=total)


def cell_delay_matrix(p_d, p_s, lib: ContentLibrary, geoms: NetworkGeometry,
                      radio: RadioConfig) -> np.ndarray:
    """Popularity-weighted per-cell delay contributions, shape (F, L).

    The overall delay is the plain sum of this matrix, and each cell
    depends only on its own pair of caching probabilities.
    """
    d2d, sbs, mbs = _branches(p_d, p_s, lib.super_layer_sizes, geoms, radio)
    return preference_matrix(lib) * (d2d + sbs + mbs)


def hit_rate(f, l, p_d, p_s, lib: ContentLibrary, geoms: NetworkGeometry,
             radio: RadioConfig) -> float:
    """Probability that item (f, l) is served from a local cache (either
    cached tier): 1 - (1 - hit_d) * (1 - hit_s).  Non-decreasing in both
    caching probabilities."""
    hd, hs = _hits(p_d, p_s, geoms.d2d, geoms.sbs, radio)
    return float(1.0 - (1.0 - hd) * (1.0 - hs))


def all_miss_delay(lib: ContentLibrary, geoms: NetworkGeometry,
                   radio: RadioConfig) -> float:
    """Closed form of the overall delay when nothing is cached anywhere:
    every request pays backhaul retrieval plus macro downlink."""
    pm = stp_mbs(geoms.mbs.pathloss, radio.sir_threshold)
    _, _, c_m = branch_costs(lib.super_layer_sizes, pm, radio)
    return float((preference_matrix(lib) * c_m).sum())
