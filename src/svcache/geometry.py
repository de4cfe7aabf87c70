"""Analytic association and success probabilities for the three tiers.

Transmitters of a tier form a planar Poisson field; a requested item is
cached at each node independently with some probability p, so the
potential servers are the p-thinned field.  The user connects to the
nearest potential server inside the tier's serving radius (macro cells
are unbounded) and the transmission succeeds when the received
signal-to-interference ratio under Rayleigh fading clears a threshold.

Everything reduces to the tail integral

    g_integral(a, b) = integral_b^inf dx / (1 + x^(a/2)),   a > 2,

which is pi/2 - arctan(b) at a = 4 and, for other a, a Gauss
hypergeometric function or a regularized incomplete beta function of b.
Only those two need scipy, so ``scipy.special`` is imported on the first
non-quartic call; importing the package and working at a = 4 load numpy
alone.

All probability functions accept scalars or numpy arrays for the caching
probability ``p`` and broadcast elementwise.  Thresholds are linear SIR
values; convert from dB once at the boundary (``RadioConfig.from_db``).
A caching probability outside [0, 1] and a threshold that is not finite
and positive raise ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .content import _is_bool

__all__ = [
    "NetworkGeometry",
    "RadioConfig",
    "TierGeometry",
    "association_probability",
    "g_integral",
    "hit_term",
    "q_factor",
    "stp_cache_tier",
    "stp_mbs",
    "stp_nearest_cached",
    "stp_nearest_uncached",
]


@dataclass(frozen=True)
class TierGeometry:
    """Poisson density, serving radius and path-loss exponent of one tier.

    ``serving_radius`` is in metres; use ``math.inf`` for the unbounded
    macro tier.  The density must be finite and positive, and the path-loss
    exponent finite and above 2 or the aggregate interference integral
    diverges.  Each check raises ``ValueError`` naming its field first.
    """

    density: float
    serving_radius: float
    pathloss: float

    def __post_init__(self):
        if _is_bool(self.density) or not 0 < self.density < math.inf:
            raise ValueError(f"density must be finite and positive, got {self.density!r}")
        if _is_bool(self.serving_radius) or not self.serving_radius > 0:
            raise ValueError("serving_radius must be positive (math.inf allowed), "
                             f"got {self.serving_radius!r}")
        if not 2 < self.pathloss < math.inf:
            raise ValueError(f"pathloss must be finite and > 2, got {self.pathloss!r}")

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.serving_radius)

    @property
    def mean_nodes_in_radius(self) -> float:
        """Expected node count inside the serving disk (inf if unbounded)."""
        if not self.bounded:
            return math.inf
        return self.density * math.pi * self.serving_radius**2


@dataclass(frozen=True)
class NetworkGeometry:
    """The three tiers together, with the cross-tier radius ordering checked:
    the small-cell radius must be finite and at least the device-to-device
    radius, and the macro tier is unbounded.  Messages start with the
    tier-qualified field, e.g. ``sbs.serving_radius``."""

    d2d: TierGeometry
    sbs: TierGeometry
    mbs: TierGeometry

    def __post_init__(self):
        for tier in ("d2d", "sbs"):
            if not getattr(self, tier).bounded:
                raise ValueError(f"{tier}.serving_radius must be finite")
        if self.sbs.serving_radius < self.d2d.serving_radius:
            raise ValueError(
                "sbs.serving_radius must be >= d2d.serving_radius "
                f"({self.sbs.serving_radius} < {self.d2d.serving_radius})"
            )
        if self.mbs.bounded:
            raise ValueError("mbs.serving_radius must be math.inf (unbounded tier)")


@dataclass(frozen=True)
class RadioConfig:
    """Linear SIR threshold, per-tier bandwidths (Hz) and backhaul rate
    (bit/s); a value that is not finite and positive raises ``ValueError``
    naming its field."""

    sir_threshold: float
    bandwidth_d2d: float
    bandwidth_sbs: float
    bandwidth_mbs: float
    backhaul_rate: float

    def __post_init__(self):
        for name in ("sir_threshold", "bandwidth_d2d", "bandwidth_sbs",
                     "bandwidth_mbs", "backhaul_rate"):
            value = getattr(self, name)
            if _is_bool(value) or not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")

    @classmethod
    def from_db(cls, sir_threshold_db, bandwidth_d2d, bandwidth_sbs,
                bandwidth_mbs, backhaul_rate):
        """Build from a threshold in dB; the conversion happens only here.
        Raises ``ValueError`` naming ``sir_threshold_db`` unless the linear
        threshold is finite and positive (NaN, +-inf, overflow, underflow)."""
        try:
            linear = 10.0 ** (sir_threshold_db / 10.0)
        except OverflowError:
            linear = math.inf
        if _is_bool(sir_threshold_db) or not (math.isfinite(linear) and linear > 0):
            raise ValueError("sir_threshold_db must give a finite, positive "
                             f"linear threshold, got {sir_threshold_db!r}")
        return cls(linear, bandwidth_d2d, bandwidth_sbs, bandwidth_mbs,
                   backhaul_rate)

    @property
    def sir_threshold_db(self) -> float:
        return 10.0 * math.log10(self.sir_threshold)


def _g_general(a: float, b):
    """g_integral without the a=4 shortcut, in closed form (DLMF 8.17),
    elementwise over a scalar or array ``b >= 0`` (a float for a scalar).

    With s = a/2 the whole integral is W = (pi/s)/sin(pi/s).  Below b = 1
    the head integral_0^b is b*2F1(1, 1/s; 1 + 1/s; -b^s); from b = 1 on
    the tail is W times the regularized incomplete beta
    I_{t/(1+t)}(1 - 1/s, 1/s) with t = b^-s.  sin(pi/s) = sin(pi(s-1)/s)
    keeps the sine exact as a -> 2+.  Each branch sees only its own
    entries (the other's are replaced by 0 and 1), so no entry warns.
    """
    from scipy.special import betainc, hyp2f1  # the package's only scipy use

    s = a / 2.0
    whole = math.pi / (s * math.sin(math.pi * min(s - 1.0, 1.0) / s))
    arr = np.asarray(b, dtype=float)
    head = arr < 1.0
    lo = np.where(head, arr, 0.0)
    t = np.where(head, 1.0, arr) ** -s
    out = np.where(head, whole - lo * hyp2f1(1.0, 1.0 / s, 1.0 + 1.0 / s, -lo**s),
                   whole * betainc(1.0 - 1.0 / s, 1.0 / s, t / (1.0 + t)))
    return _scalar(b, out)


@lru_cache(maxsize=512)
def g_integral(a: float, b: float) -> float:
    """Evaluate integral_b^inf dx/(1+x^(a/2)) for finite a > 2, b >= 0.

    Returns pi/2 - arctan(b) when a == 4 and the closed form of
    ``_g_general`` otherwise: within 1e-13 relative of a 60-digit
    reference for 2.1 < a <= 200, and within 5e-11 absolute (5e-15
    relative) on (2, 2.1], where G(a, 0) grows like 2/(a - 2).
    ``b = inf`` gives 0.  scipy is imported on the first non-quartic
    call, never at a == 4.  A NaN or out-of-range argument raises
    ``ValueError``.  ``_g_general`` is the same formula over arrays.
    """
    a = float(a)
    b = float(b)
    if not 2 < a < math.inf:
        raise ValueError(f"g_integral requires finite a > 2, got {a!r}")
    if not b >= 0:
        raise ValueError(f"g_integral requires b >= 0, got {b!r}")
    if a == 4.0:
        return math.pi / 2.0 - math.atan(b)
    return _g_general(a, b)


def _check_theta(theta):
    """Reject a threshold that is not finite and > 0 (NaN included) with a
    plain scalar comparison, cheap enough for every solver iterate."""
    if not 0 < theta < math.inf:
        raise ValueError(f"theta must be finite and > 0, got {theta!r}")


def _prob(p, geom: TierGeometry):
    """p as a float array, checked to lie in [0, 1] on a bounded tier."""
    if not geom.bounded:
        raise ValueError("the tier formula needs a finite serving radius")
    arr = np.asarray(p, dtype=float)
    inside = (arr >= 0) & (arr <= 1)
    if not inside.all():
        raise ValueError("caching probability must lie in [0, 1], "
                         f"got {float(arr[~inside][0])!r}")
    return arr


def _scalar(p, out):
    """``out``, as a float when ``p`` was a scalar."""
    return out if np.ndim(p) > 0 else float(out)


def _q(p, minus_area, t, out=(...,) * 3):
    """:func:`q_factor` q = -expm1(-A*(p + t)) / (p + t) of a checked array,
    t its threshold term, from -A.  ``out`` takes three buffers of the
    broadcast shape for p + t, -A*(p + t) and q, new arrays by default
    (``...``); q is computed in place in its own."""
    den_out, z_out, q_out = out
    den = np.add(p, t, out=den_out)
    z = np.multiply(minus_area, den, out=z_out)
    q = np.expm1(z, out=q_out)
    return np.divide(np.negative(q, q), den, q)


def _stacked_terms(geoms: NetworkGeometry, theta: float):
    """The constants ``_hit`` reads for stacked (2, F, L) matrices, d2d over
    sbs: the mean node counts A in the serving disks as a (2, 1, 1) column
    and the threshold terms t_x = theta^(2/a) * G(a, theta^(-2/a)) over
    t_0 = theta^(2/a) * G(a, 0) as (2 terms, 2 tiers, 1, 1)."""
    area, terms = [], []
    for geom in (geoms.d2d, geoms.sbs):
        t = theta ** (2.0 / geom.pathloss)
        area.append(geom.mean_nodes_in_radius)
        terms.append((t * g_integral(geom.pathloss, theta ** (-2.0 / geom.pathloss)),
                      t * g_integral(geom.pathloss, 0.0)))
    return np.array(area)[:, None, None], np.stack(terms, axis=1)[:, :, None, None]


# arrays of p's shape that ``_hit_buffers`` lays out
_HIT_BUFFERS = 8


def _hit_buffers(memory):
    """Lay the buffers of ``_hit`` out in ``memory``, ``_HIT_BUFFERS``
    arrays of p's shape stacked on a leading axis: ``_q``'s three and the
    slope's, each two of them stacked on the term axis, then the halves of
    all four, then the two of those halves that the hit and its slope
    overwrite.  ``_hit`` writes each temporary into a half that is dead by
    then."""
    den_x, den_0, z_x, z_0, q_x, q_0, dq_x, dq_0 = memory
    stage = memory[0:2], memory[2:4], memory[4:6], memory[6:8]
    return stage, (q_x, q_0), (dq_x, dq_0), (den_x, den_0), (z_x, z_0), q_x, dq_x


def _hit(p, area, minus_area, terms, out):
    """Hit term p(p(q_x - q_0) + q_0) of a checked array and its slope
    2p(q_x - q_0) + p^2(q_x' - q_0') + q_0 + p*q_0', from A and -A.
    ``terms`` stacks t_x over t_0 on a leading axis that broadcasts against
    ``p``, so one ``_q`` call gives both factors, and the slopes
    q' = (A*exp(-A*(p + t)) - q) / (p + t) come from its buffers.  ``out``
    is a ``_hit_buffers`` of the broadcast shape, and the hit and the slope
    returned are its last two buffers."""
    (den, z, q, dq), (q_x, q_0), (dq_x, dq_0), (gap, inner), (twice, curve), hit, slope = out
    _q(p, minus_area, terms, (den, z, q))
    np.exp(z, out=dq)
    np.divide(np.subtract(np.multiply(area, dq, dq), q, dq), den, dq)
    np.subtract(q_x, q_0, gap)
    np.multiply(p, np.add(np.multiply(p, gap, inner), q_0, inner), hit)
    # 2p*gap + p*p*(q_x' - q_0') + q_0 + p*q_0', over q_x' and q_0'
    np.multiply(np.add(p, p, twice), gap, twice)
    np.multiply(np.multiply(p, p, curve), np.subtract(dq_x, dq_0, dq_x), curve)
    np.add(np.add(twice, curve, twice), q_0, twice)
    np.add(twice, np.multiply(p, dq_0, dq_0), slope)
    return hit, slope


def _given_association(p, geom: TierGeometry, joint):
    """joint / association probability, taken as 0 at p = 0 (no server)."""
    arr = np.asarray(p, dtype=float)
    assoc = association_probability(arr, geom)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _scalar(p, np.where(arr > 0, joint / np.where(assoc > 0, assoc, 1.0), 0.0))


def association_probability(p, geom: TierGeometry):
    """Probability that at least one potential server of the tier lies
    within the serving radius: 1 - exp(-lambda * p * pi * r^2).

    Only defined for the bounded tiers; the macro tier always has a
    nearest node, so an unbounded radius raises.
    """
    arr = _prob(p, geom)
    return _scalar(p, -np.expm1(-geom.density * arr * math.pi * geom.serving_radius**2))


def q_factor(p, geom: TierGeometry, theta: float, x: float):
    """Common kernel of the bounded-tier success probabilities:

        [1 - exp(-lambda*pi*r^2 * (p + theta^(2/a) * G))] / (p + theta^(2/a) * G)

    with G = g_integral(a, x).  Strictly positive even at p = 0 because
    G > 0 for every finite x.
    """
    _check_theta(theta)
    t = theta ** (2.0 / geom.pathloss) * g_integral(geom.pathloss, x)
    return _scalar(p, _q(_prob(p, geom), -geom.mean_nodes_in_radius, t))


def stp_nearest_cached(p, geom: TierGeometry, theta: float):
    """Success probability when the nearest node of the tier caches the item
    (interference only from nodes beyond the server).  Zero at p = 0 by
    stipulation: with nothing cached there is no server to succeed.
    """
    _check_theta(theta)
    q_x = q_factor(p, geom, theta, theta ** (-2.0 / geom.pathloss))
    return _given_association(p, geom, np.multiply(p, q_x))


def stp_nearest_uncached(p, geom: TierGeometry, theta: float):
    """Success probability when the nearest node does not cache the item and
    a farther potential server transmits (interference from the whole
    field, including nodes closer than the server).  Zero at p = 0.
    """
    return _given_association(p, geom, np.multiply(p, q_factor(p, geom, theta, 0.0)))


def stp_cache_tier(p, geom: TierGeometry, theta: float):
    """Tier success probability, mixing the nearest-cached case (weight p)
    with the nearest-uncached case (weight 1 - p).  Zero at p = 0."""
    return _given_association(p, geom, hit_term(p, geom, theta))


def stp_mbs(pathloss: float, theta: float) -> float:
    """Success probability from the nearest macro cell.

    Independent of the macro density: scaling the field moves the server
    and the interferers alike.  Equals
    [1 + theta^(2/a) * g_integral(a, theta^(-2/a))]^(-1).
    """
    if not 2 < pathloss < math.inf:
        raise ValueError(f"pathloss must be finite and > 2, got {pathloss!r}")
    _check_theta(theta)
    t = theta ** (2.0 / pathloss)
    return 1.0 / (1.0 + t * g_integral(pathloss, 1.0 / t))


def hit_term(p, geom: TierGeometry, theta: float):
    """Association probability times tier success probability, computed in
    the product form p * (p * (q(x*) - q(0)) + q(0)) that has no 0/0 at
    p = 0 and is continuous on [0, 1].

    This is the quantity the delay model consumes: the probability that
    the tier both has a potential server in range and delivers the item
    successfully.
    """
    _check_theta(theta)
    arr = np.asarray(p, dtype=float)  # q_factor checks it
    q_x = q_factor(arr, geom, theta, theta ** (-2.0 / geom.pathloss))
    q_0 = q_factor(arr, geom, theta, 0.0)
    return _scalar(p, arr * (arr * (q_x - q_0) + q_0))

