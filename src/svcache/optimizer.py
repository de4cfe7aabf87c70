"""Gradient projection for the cache-budget delay minimization.

The solver alternates a diminishing-step gradient move (step 1/t at
iteration t) with a projection of each tier's matrix onto its budget
set.  The gradient is the closed form of ``objective_gradient``, not a
difference quotient, and the same call returns the delay, so each
iterate is evaluated once.  What the iterates never change is built once
per solve: the projector, the weights and branch costs
(``delay._weights_and_costs``) and the hit terms' tier constants
(``geometry._stacked_terms``, stacked so both threshold terms of both
tiers go through one ``_q`` call); iterates stay plain arrays.
The projection subtracts one uniform shift u from every entry, clips to
[0, 1], and solves for u exactly from the breakpoints of the
piecewise-linear usage so the expected cache usage equals the budget;
full utilization is optimal because the delay is non-increasing in
every caching probability.  This uniform shift is the operator used
throughout here and in the baselines, not the Euclidean projection onto
the size-weighted budget polytope (that one would shift each entry
proportionally to its size).  Its one form, ``_Projector``, takes a
column with one budget per block of a batch and sizes its work buffers
for that batch when built: the solver builds one per solve for its two
stacked tiers, ``project_budget`` one per call (the ICP baseline, and
each grid block of the oracle).

A brute-force ``grid_oracle`` provides ground truth on the 2x2 catalog
only, by minimizing over all pairs of per-tier grid matrices projected
to budget equality; only grid rows with a zero entry are projected, as
every other row is a uniform shift of one.  It evaluates the cross
product through an exact bilinear split of the objective, scoring every
d2d row against one sbs Pareto-frontier point at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .content import ContentLibrary, _is_count
from .delay import (CacheBudgets, _cascade, _check_shape, _weights_and_costs,
                    cell_delay_matrix, overall_delay)
from .geometry import NetworkGeometry, RadioConfig, _hit, _stacked_terms, hit_term
from .policies import CachingPolicy, epcp, mpcp

__all__ = [
    "OptimizerConfig",
    "OptimizerResult",
    "grid_oracle",
    "objective_gradient",
    "optimize",
    "project_budget",
]


# Baseline generators a run may start from, by name.
_STARTS = {"mpcp": mpcp, "epcp": epcp}


@dataclass(frozen=True)
class OptimizerConfig:
    """Iteration budget, stopping tolerance and starting policy.

    ``max_iterations`` must be an integer >= 1, ``convergence_tol`` finite
    and positive.  ``initial_policy`` is either an explicit policy or the
    name of a baseline ("mpcp" or "epcp"); any other name is rejected here,
    at construction, not when ``optimize`` runs.  Each check raises
    ``ValueError`` naming its field first.  The default warm-starts from
    MPCP: the 1/t step schedule refines a good feasible point well but
    moves too slowly to cross the whole box from a cold uniform start.
    """

    max_iterations: int = 100
    convergence_tol: float = 1e-6
    initial_policy: CachingPolicy | str = "mpcp"

    def __post_init__(self):
        if not (_is_count(self.max_iterations) and self.max_iterations >= 1):
            raise ValueError("max_iterations must be an integer >= 1, "
                             f"got {self.max_iterations!r}")
        if not 0 < self.convergence_tol < np.inf:
            raise ValueError("convergence_tol must be finite and positive, "
                             f"got {self.convergence_tol!r}")
        if not (isinstance(self.initial_policy, CachingPolicy)
                or self.initial_policy in _STARTS):
            raise ValueError("initial_policy must be a CachingPolicy or one of "
                             f"{sorted(_STARTS)}, got {self.initial_policy!r}")


@dataclass
class OptimizerResult:
    """Best iterate found plus the per-iteration trace.

    ``delay_trajectory[0]`` is the initial policy's delay; entry t is the
    delay after iteration t.  ``step_sizes`` and the two budget-residual
    lists align with iterations 1..iterations_run.
    """

    best_policy: CachingPolicy
    best_delay: float
    delay_trajectory: list[float]
    iterations_run: int
    converged: bool
    step_sizes: list[float] = field(default_factory=list)
    budget_residual_d: list[float] = field(default_factory=list)
    budget_residual_s: list[float] = field(default_factory=list)


def project_budget(p_hat, sizes, budget) -> np.ndarray:
    """Project raw matrices onto {q in [0,1]^n : sum(sizes * q) = budget}.

    ``p_hat.shape`` is any leading batch shape followed by ``sizes.shape``;
    each trailing block is projected on its own.  Returns
    min{[p_hat - u]+, 1} with the uniform shift u found exactly: the
    shifted-clipped usage is continuous, non-increasing and linear between
    the breakpoints p_i - 1 (entry i leaves the cap) and p_i (entry i hits
    zero), so sorting the 2n breakpoints, accumulating the usage across
    them and interpolating on the segment that crosses the budget gives
    the root (the breakpoint method of Duchi et al., 2008, and Condat,
    2016).  When the budget is at least the whole catalog the equality is
    unattainable and the all-ones matrix is returned (budget non-binding).
    The checks are made here; ``_Projector`` is the kernel behind them,
    built on a column of the budget with one row per trailing block.
    """
    if not budget > 0:
        raise ValueError("budget must be strictly positive")
    sizes = np.asarray(sizes, dtype=float)
    p_hat = np.asarray(p_hat, dtype=float)
    batch = p_hat.shape[:p_hat.ndim - sizes.ndim]
    if p_hat.shape[len(batch):] != sizes.shape:
        raise ValueError("p_hat must end with the shape of sizes")
    if not np.all(np.isfinite(p_hat)):
        raise ValueError("p_hat must be finite")
    column = np.full((math.prod(batch), 1), budget, dtype=float)
    return _Projector(sizes, column)(p_hat)


# Row blocks keep the gradient's temporaries cache-resident: its cost
# stays linear in F*L.
_BLOCK_ROWS = 4096
# 0-d operands: cheaper in small ufunc calls than Python floats
_ZERO, _ONE = np.array(0.0), np.array(1.0)


class _Projector:
    """The breakpoint projection of ``project_budget`` for one ``sizes`` and
    one (m, 1) column of budgets, applied to batches of m finite blocks.

    Block r is projected at budget r, or comes back as exact ones if that
    budget is at least the capacity sum(sizes).  All that the sizes and
    budgets fix is made here, once: the sizes check, the signed usage
    slopes concat(-s, s) of the 2n breakpoints, the capacity, the blocks
    left to solve with their levels, and the work buffers and views for
    exactly those blocks (extra memory linear in m).  A call solves them
    in one kernel pass and returns a new array.
    """

    def __init__(self, sizes, budget):
        sizes = np.asarray(sizes, dtype=float)
        if not np.all((sizes > 0) & (sizes < np.inf)):
            raise ValueError("sizes must be finite and strictly positive")
        self.sizes = sizes
        n = sizes.size
        self._signed = np.concatenate((-sizes.ravel(), sizes.ravel()))
        self._capacity = np.asarray(sizes.sum())
        full = budget[:, 0] >= self._capacity
        # rows to solve: None for all of them; the rest are exact ones
        self._solve = np.flatnonzero(~full) if full.any() else None
        self._level = budget[~full]
        m = self._level.shape[0]
        self._points, self._sorted, self._slope, usage = np.empty((4, m, 2 * n))
        usage[:, 0] = self._capacity
        # exact at max(p_hat); pinned so rounding cannot skip it
        usage[:, -1] = 0.0
        self._below = np.empty((m, 2 * n - 1), dtype=bool)
        # row r starts at r*2n in the raveled buffers
        self._offset = np.arange(0, 2 * n * m, 2 * n)[:, None]
        self._low, self._high = self._points[:, :n], self._points[:, n:]
        self._inner = self._sorted[:, 1:-1]
        self._head = self._sorted[:, :-2]
        self._head_slope = self._slope[:, :-2]
        self._inner_usage, self._tail_usage = usage[:, 1:-1], usage[:, 1:]
        self._flat_points, self._flat_sorted, self._flat_usage = (
            self._points.ravel(), self._sorted.ravel(), usage.ravel())

    def __call__(self, p_hat):
        rows = p_hat.reshape(-1, self.sizes.size)
        if self._solve is None:
            return self._kernel(rows).reshape(p_hat.shape)
        out = np.ones_like(rows)
        out[self._solve] = self._kernel(rows[self._solve])
        return out.reshape(p_hat.shape)

    def _kernel(self, rows):
        """Project the m ``rows`` left to solve at their budget levels."""
        np.subtract(rows, _ONE, out=self._low)
        np.copyto(self._high, rows)
        order = self._points.argsort(axis=1, kind="stable")
        # usage slope after each breakpoint: -s_i once entry i leaves the cap,
        # back up by s_i once it reaches zero
        self._signed.take(order, out=self._slope, mode="clip")
        np.add.accumulate(self._slope, 1, out=self._slope)
        # gather the sorted breakpoints through flat indices
        order += self._offset
        self._flat_points.take(order, out=self._sorted, mode="clip")
        # the usage between the first and the last breakpoint, both fixed:
        # capacity + cumsum(slope * diff(sorted))
        usage = np.subtract(self._inner, self._head, out=self._inner_usage)
        np.multiply(self._head_slope, usage, out=usage)
        np.add.accumulate(usage, 1, out=usage)
        np.add(usage, self._capacity, out=usage)
        # first segment [k, k+1] with usage(k) > budget >= usage(k+1)
        np.less_equal(self._tail_usage, self._level, out=self._below)
        k = self._below.argmax(axis=1, keepdims=True)
        k += self._offset
        k_next = k + 1
        lo, hi = self._flat_sorted.take(k), self._flat_sorted.take(k_next)
        above, below = self._flat_usage.take(k), self._flat_usage.take(k_next)
        out = rows - (lo + (above - self._level) / (above - below) * (hi - lo))
        # np.clip(out, 0.0, 1.0) without its Python wrapper
        np.maximum(_ZERO, out, out=out)
        np.minimum(out, _ONE, out=out)
        return out


def objective_gradient(policy: CachingPolicy, lib: ContentLibrary,
                       geoms: NetworkGeometry, radio: RadioConfig):
    """Overall delay and its exact partial derivatives, one matrix per tier.

    Returns ``(delay, grad_d, grad_s)``.  Cell (f, l) contributes
    w*(hit_d*a + (1 - hit_d)*(hit_s*b + (1 - hit_s)*c_m)), with w its
    preference weight and (a, b, c_m) its ``branch_costs``; ``delay`` sums
    the cells as ``cell_delay_matrix`` does, equal to ``overall_delay``'s
    total bit for bit.  Each cell depends on its own entry pair only, so
    with the exact hit slopes of ``geometry._hit``, on the box edges too,

        dD/dp_d = w * hit_d' * (a - hit_s*b - (1 - hit_s)*c_m)
        dD/dp_s = w * (1 - hit_d) * hit_s' * (b - c_m)
    """
    _check_shape(policy, lib)
    delay, grad = _objective(np.stack((policy.p_d, policy.p_s)),
                             *_weights_and_costs(lib, geoms, radio),
                             *_stacked_terms(geoms, radio.sir_threshold))
    return delay, grad[0], grad[1]


def _objective(p, weights, costs, area, terms):
    """``objective_gradient`` of the stacked (2, F, L) matrices ``p``,
    entries in [0, 1], from the instance's ``_weights_and_costs`` and
    ``_stacked_terms``: the delay and the stacked gradient."""
    cells, grad = np.empty(weights.shape), np.empty(p.shape)
    for start in range(0, p.shape[1], _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        w = weights[rows]
        a, b, c_m = (cost[rows] for cost in costs)
        hit, slope = _hit(p[:, rows], area, terms)
        d2d, sbs, mbs = _cascade(hit[0], hit[1], a, b, c_m)
        cells[rows] = w * (d2d + sbs + mbs)
        grad[0, rows] = w * slope[0] * (a - hit[1] * b - (1.0 - hit[1]) * c_m)
        grad[1, rows] = w * (1.0 - hit[0]) * slope[1] * (b - c_m)
    return float(cells.sum()), grad


def optimize(lib: ContentLibrary, geoms: NetworkGeometry, radio: RadioConfig,
             budgets: CacheBudgets, cfg: OptimizerConfig | None = None
             ) -> OptimizerResult:
    """Run the projected-gradient solver and return the best iterate.

    Every iterate is feasible: both gradients are evaluated at the
    current point, the two stepped matrices are stacked and projected in
    one call, each onto its own tier's budget equality, and iteration
    stops once the delay change drops below ``convergence_tol`` or the
    iteration budget runs out.  The 1/t step does not guarantee monotone
    descent, so the best iterate seen (including the start) is tracked
    and returned.  Sizes are checked and the loop's constants built once
    per solve; the start's ``objective_gradient`` and the final
    ``cell_delay_matrix`` build their own.  Iterates stay plain arrays.
    """
    cfg = cfg or OptimizerConfig()
    project = _Projector(lib.super_layer_sizes,
                         np.array([[budgets.m_d], [budgets.m_s]], dtype=float))
    sizes, capacity = project.sizes, project.sizes.sum()
    start = cfg.initial_policy
    if not isinstance(start, CachingPolicy):
        start = _STARTS[start](lib, budgets)
    _check_shape(start, lib)
    target_d, target_s = min(budgets.m_d, capacity), min(budgets.m_s, capacity)
    p = np.stack((start.p_d, start.p_s))
    off = [abs(float((matrix * sizes).sum()) - target) > 1e-9 * budget
           for matrix, budget, target in zip(p, (budgets.m_d, budgets.m_s),
                                             (target_d, target_s))]
    if any(off):  # project both tiers; a tier already on its budget keeps its start
        p = np.where(np.reshape(off, (2, 1, 1)), project(p), p)
    policy = CachingPolicy(p_d=p[0], p_s=p[1])
    current, grad_d, grad_s = objective_gradient(policy, lib, geoms, radio)
    p, grad = np.stack((policy.p_d, policy.p_s)), np.stack((grad_d, grad_s))
    weights, costs = _weights_and_costs(lib, geoms, radio)
    area, terms = _stacked_terms(geoms, radio.sir_threshold)
    best_p = None  # None while the start is the best iterate
    result = OptimizerResult(
        best_policy=policy, best_delay=current, delay_trajectory=[current],
        iterations_run=0, converged=False,
    )
    for t in range(1, cfg.max_iterations + 1):
        eps = 1.0 / t
        raw = p - eps * grad
        if not np.isfinite(raw).all():
            raise ValueError(f"iterate {t} is not finite")
        p = project(raw)
        new, grad = _objective(p, weights, costs, area, terms)
        result.delay_trajectory.append(new)
        result.step_sizes.append(eps)
        result.budget_residual_d.append(abs(float((p[0] * sizes).sum()) - target_d))
        result.budget_residual_s.append(abs(float((p[1] * sizes).sum()) - target_s))
        result.iterations_run = t
        if new < result.best_delay:
            result.best_delay = new
            best_p = p
        delta = abs(new - current)
        current = new
        if delta < cfg.convergence_tol:
            result.converged = True
            break
    if best_p is not None:
        result.best_policy = CachingPolicy(p_d=best_p[0], p_s=best_p[1])
    best = result.best_policy
    result.best_delay = float(cell_delay_matrix(best.p_d, best.p_s, lib, geoms, radio).sum())
    return result


# ---------------------------------------------------------------------------
# Brute-force grid oracle
# ---------------------------------------------------------------------------

_GRID_STEPS = (0.05, 0.02)


def _grid_chunks(n_cells, n_values, chunk=16_384):
    """Yield the grid rows of {0, ..., 1}^n_cells with a zero entry, in grid
    order, in blocks of at most ``chunk``, without materializing the full
    enumeration: n^k - (n-1)^k rows instead of n^k.  A block is the only
    batch the projection sees, so ``chunk`` bounds its work buffers."""
    values = np.linspace(0.0, 1.0, n_values)
    total = n_values**n_cells
    shape = (n_values,) * n_cells
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        coords = np.unravel_index(idx, shape)
        canonical = np.minimum.reduce(coords) == 0
        yield np.column_stack([values[c[canonical]] for c in coords])


def _tier_candidates(geom, theta, sizes_flat, budget, n_values, useful):
    """Enumerate and project one tier's grid of the 2x2 catalog.

    Returns (rows, hit): every canonical grid row (one with a zero entry,
    ``_grid_chunks``) projected to budget equality, in grid order, and its
    hit-term values on the useful cells (the zero-popularity cells cannot
    change the delay).  Every other grid row is a uniform shift c of a
    canonical one, and u absorbs the shift, P(r + c*1) = P(r), so its
    projection is already here.  Rows that project to the same matrix are
    all kept: the sbs Pareto scan keeps one of equal points, and the
    oracle's argmin keeps the first minimum in grid order.  Each block of
    ``_grid_chunks`` goes through ``project_budget`` in one call.
    """
    rows = np.concatenate([project_budget(chunk, sizes_flat, budget)
                           for chunk in _grid_chunks(sizes_flat.size, n_values)])
    return rows, hit_term(rows[:, useful], geom, theta)


def grid_oracle(lib: ContentLibrary, geoms: NetworkGeometry,
                radio: RadioConfig, budgets: CacheBudgets,
                grid_step: float = 0.02) -> tuple[CachingPolicy, float]:
    """Exhaustive ground-truth minimum over projected grid policies.

    Enumerates every per-tier matrix on the grid {0, step, ..., 1},
    projects each to budget equality, and minimizes the overall delay
    over all cross-tier pairs.  The pair minimum is computed exactly via
    the split D = u(p_d) + V(p_d) . hit_s(p_s): only the Pareto frontier
    of the sbs hit vectors can attain the inner minimum (all components of
    V share one sign, fixed by whether the small-cell transmission beats
    the backhaul-plus-macro path), and each frontier point scores every
    d2d row in one product.  Ties go to the first frontier point in
    ``_pareto_indices`` order, then the first d2d row in grid order.  Only
    the 2x2 catalog is served: any other shape raises ``ValueError`` at once.
    """
    if lib.shape != (2, 2):
        raise ValueError(f"grid_oracle serves only the 2x2 catalog, got {lib.shape}")
    if not any(abs(grid_step - s) < 1e-12 for s in _GRID_STEPS):
        raise ValueError(f"grid_step must be one of {_GRID_STEPS}")
    n_values = int(round(1.0 / grid_step)) + 1

    theta = radio.sir_threshold
    weights, costs = _weights_and_costs(lib, geoms, radio)
    sizes = lib.super_layer_sizes.ravel()
    useful = np.flatnonzero(weights.ravel() > 0)
    w, a, b, c_m = (term.ravel()[useful] for term in (weights, *costs))

    rows_d, hit_d = _tier_candidates(geoms.d2d, theta, sizes, budgets.m_d,
                                     n_values, useful)
    rows_s, hit_s = _tier_candidates(geoms.sbs, theta, sizes, budgets.m_s,
                                     n_values, useful)

    # D(i, j) = base_i + V_i . H_j with V_i = w*(1-hit_d_i)*(b-c_m) <= or >= 0
    base = hit_d @ (w * a) + (1.0 - hit_d) @ (w * c_m)
    v_mat = w * (b - c_m) * (1.0 - hit_d)

    best_val, best_i, best_j = np.inf, 0, 0
    for j in _pareto_indices(hit_s, maximize=(b - c_m)[0] < 0):
        scores = v_mat @ hit_s[j] + base
        i = scores.argmin()
        if scores[i] < best_val:
            best_val, best_i, best_j = scores[i], i, j

    policy = CachingPolicy(p_d=rows_d[best_i].reshape(lib.shape),
                           p_s=rows_s[best_j].reshape(lib.shape))
    # recompute through the delay model; the bilinear split must agree
    return policy, overall_delay(policy, lib, geoms, radio).total


def _pareto_indices(points, maximize):
    """Indices of the Pareto-optimal rows of the 2x2 catalog's hit vectors.

    For the inner minimization only non-dominated hit vectors can attain
    the optimum: dominated rows are removable because every weight vector
    they are scored against has one uniform sign.  The columns are the two
    requested cells; one sort-scan keeps each row whose last column beats
    every row ahead of it in descending first-column order.  With one column
    (the other cell's popularity underflowed) that is the first maximum.
    """
    pts = points if maximize else -points
    order = np.lexsort((-pts[:, -1], -pts[:, 0]))
    last = pts[order, -1]
    running = np.maximum.accumulate(last)
    first = np.empty(order.size, dtype=bool)
    first[0] = True
    first[1:] = last[1:] > running[:-1]
    return order[first]
