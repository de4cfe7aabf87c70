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

What the delay reads besides the policy, the preference weights and the
branch costs, is built in one place, ``_weights_and_costs``, which this
module, the solver and the grid oracle read; the hit terms' tier
constants belong to ``geometry``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .content import (ContentLibrary, _check_file_index, _check_layer_index, _is_bool,
                      preference_matrix)
from .geometry import NetworkGeometry, RadioConfig, hit_term, stp_mbs

__all__ = [
    "CacheBudgets",
    "DelayBreakdown",
    "all_miss_delay",
    "branch_costs",
    "cell_delay_matrix",
    "hit_rate",
    "overall_delay",
]


@dataclass(frozen=True)
class CacheBudgets:
    """Per-node cache sizes in bits: every d2d helper stores at most
    ``m_d`` bits and every small cell at most ``m_s`` bits.  A budget that
    is not finite and positive raises ``ValueError`` naming its field."""

    m_d: float
    m_s: float

    def __post_init__(self):
        for name in ("m_d", "m_s"):
            value = getattr(self, name)
            if _is_bool(value) or not 0 < value < np.inf:
                raise ValueError(f"{name} must be finite and strictly positive, "
                                 f"got {value!r}")


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


def branch_costs(sizes, mbs_success, radio: RadioConfig):
    """Seconds each branch costs an item of ``sizes`` bits, elementwise:

    a   = c / (W_d * log2(1 + theta))                      d2d
    b   = c / (W_s * log2(1 + theta))                      sbs
    c_m = c * (1/backhaul + P_m / (W_m * log2(1 + theta)))  macro

    The delay of an item is hit_d*a + (1 - hit_d)*(hit_s*b + (1 - hit_s)*c_m).
    """
    log_term = np.log2(1.0 + radio.sir_threshold)
    return (sizes / (radio.bandwidth_d2d * log_term),
            sizes / (radio.bandwidth_sbs * log_term),
            sizes * (1.0 / radio.backhaul_rate
                     + mbs_success / (radio.bandwidth_mbs * log_term)))


def _cascade(hit_d, hit_s, a, b, c_m, miss=None, out=(...,) * 3):
    """The three branch delays from hit terms and ``branch_costs``.  A
    caller that holds the miss terms (1 - hit_d, 1 - hit_s) passes them as
    ``miss``; ``out`` takes three buffers for the delays, new arrays by
    default (``...``), each computed in place in its own."""
    miss_d, miss_s = (1.0 - hit_d, 1.0 - hit_s) if miss is None else miss
    d2d, sbs, mbs = out
    sbs = np.multiply(miss_d, hit_s, out=sbs)
    mbs = np.multiply(miss_d, miss_s, out=mbs)
    return (np.multiply(hit_d, a, out=d2d), np.multiply(sbs, b, sbs),
            np.multiply(mbs, c_m, mbs))


def _weights_and_costs(lib: ContentLibrary, geoms: NetworkGeometry, radio: RadioConfig):
    """What the delay of an instance reads besides the policy: the
    preference weights ``w`` and the three ``branch_costs`` matrices, the
    macro success from ``stp_mbs``, as ``(w, (a, b, c_m))``."""
    pm = stp_mbs(geoms.mbs.pathloss, radio.sir_threshold)
    return preference_matrix(lib), branch_costs(lib.super_layer_sizes, pm, radio)


def _branches(p_d, p_s, lib: ContentLibrary, geoms: NetworkGeometry, radio: RadioConfig):
    """The weights and the three per-cell branch delays, hits through the
    checked ``hit_term``."""
    w, costs = _weights_and_costs(lib, geoms, radio)
    theta = radio.sir_threshold
    return w, _cascade(hit_term(p_d, geoms.d2d, theta), hit_term(p_s, geoms.sbs, theta),
                       *costs)


def _check_shape(policy, lib: ContentLibrary):
    """Reject a policy, or one of its matrices, not shaped like the catalog;
    every entry point that reads a policy cell by cell calls this first."""
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
    w, (d2d, sbs, mbs) = _branches(policy.p_d, policy.p_s, lib, geoms, radio)
    total = float((w * (d2d + sbs + mbs)).sum())
    return DelayBreakdown(d2d=d2d, sbs=sbs, mbs=mbs, total=total)


def cell_delay_matrix(p_d, p_s, lib: ContentLibrary, geoms: NetworkGeometry,
                      radio: RadioConfig) -> np.ndarray:
    """Popularity-weighted per-cell delay contributions, shape (F, L).

    The overall delay is the plain sum of this matrix, and each cell
    depends only on its own pair of caching probabilities.  Matrices not
    shaped like the catalog raise ``ValueError``; none is broadcast.
    """
    for matrix in (p_d, p_s):
        _check_shape(np.asarray(matrix), lib)
    w, (d2d, sbs, mbs) = _branches(p_d, p_s, lib, geoms, radio)
    return w * (d2d + sbs + mbs)


def hit_rate(f, l, p_d, p_s, lib: ContentLibrary, geoms: NetworkGeometry,
             radio: RadioConfig) -> float:
    """Probability that item (f, l) is served from a local cache (either
    cached tier): 1 - (1 - hit_d) * (1 - hit_s).  Non-decreasing in both
    caching probabilities.  An index outside the catalog raises
    ``IndexError``."""
    _check_file_index(lib, f)
    _check_layer_index(lib, l)
    hd = hit_term(p_d, geoms.d2d, radio.sir_threshold)
    hs = hit_term(p_s, geoms.sbs, radio.sir_threshold)
    return float(1.0 - (1.0 - hd) * (1.0 - hs))


def all_miss_delay(lib: ContentLibrary, geoms: NetworkGeometry,
                   radio: RadioConfig) -> float:
    """Closed form of the overall delay when nothing is cached anywhere:
    every request pays backhaul retrieval plus macro downlink."""
    w, (_, _, c_m) = _weights_and_costs(lib, geoms, radio)
    return float((w * c_m).sum())
