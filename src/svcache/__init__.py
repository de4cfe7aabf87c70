"""Delay modelling and cache optimization for layered video delivery in a
three-tier (device-to-device / small-cell / macro-cell) wireless network.

The library has six parts:

``content``
    Video catalog, Mandelbrot-Zipf request popularity and per-quality
    preference, cumulative super-layer sizes.
``geometry``
    Closed-form success probabilities of a transmission from each tier,
    and the association probabilities.
``delay``
    Per-item d2d / sbs / macro branch delays, the popularity-weighted
    overall delay, and the content hit rate for a caching policy.
``mcsim``
    Seeded Monte-Carlo estimators that mirror the analytic sampling model
    (Poisson fields, Rayleigh fading, truncated serving-distance laws):
    the conditional, tier and macro success probabilities and the
    end-to-end delay, all through one SIR-test kernel.
``policies``
    The caching-policy data model, feasibility validation and the MPCP /
    EPCP / ICP baseline generators.
``optimizer``
    Gradient projection with a diminishing step and uniform-shift budget
    projection, plus a brute-force grid oracle for the 2x2 catalog only.

``config`` parses the flat dotted-key experiment configuration and
``cli`` exposes the experiment subcommands (``validate``,
``delay-surface``, ``optimize``, ``convergence``, ``baselines``).  The
package re-exports the ``__all__`` of each of the six parts and ``config``,
the only list of its public names, and does not load ``experiments`` or ``cli``.
"""

# PEP 8 allows a wildcard import to republish an internal interface
from .content import *
from .geometry import *
from .delay import *
from .mcsim import *
from .policies import *
from .optimizer import *
from .config import *
from . import config, content, delay, geometry, mcsim, optimizer, policies

__all__ = sorted({name for module in (config, content, delay, geometry, mcsim, optimizer,
                                      policies) for name in module.__all__})
