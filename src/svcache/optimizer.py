"""Gradient projection for the cache-budget delay minimization.

The solver alternates a diminishing-step gradient move (step 1/t at
iteration t) with a projection of each tier's matrix onto its budget
set.  The gradient is the closed form of ``objective_gradient``, not a
difference quotient, and the same call returns the delay, so each
iterate is evaluated once.  It runs in whole-array operations on the
stacked (2, F, L) matrices, each one elementwise, and the delay is one
sum of the full cell matrix, as in ``cell_delay_matrix``.  What the
iterates never change is built once per solve: the projector and the
gradient's workspace ``_Objective``, which holds the weights and branch
costs (``delay._weights_and_costs``), the hit terms' tier constants
(``geometry._stacked_terms``, stacked so both threshold terms of both
tiers go through one ``_q`` call) and the buffers that every ufunc of an
iterate writes in place; each projection returns a new iterate.
The projection subtracts one uniform shift u from every entry, clips to
[0, 1], and solves for u exactly from the breakpoints of the
piecewise-linear usage so the expected cache usage equals the budget;
full utilization is optimal because the delay is non-increasing in
every caching probability.  This uniform shift is the operator used
throughout here and in the baselines, not the Euclidean projection onto
the size-weighted budget polytope (that one would shift each entry
proportionally to its size).  Its one form, ``_Projector``, takes an
(m, j) array with j budgets for each block of an m-block batch: it
sorts each block's breakpoints and accumulates its usage once, and only
the crossing search and the interpolation run once per budget.  The
solver builds one per solve for its two stacked tiers (one budget
each), ``project_budget`` one per call (the ICP baseline at one budget)
and the grid oracle one per block size of a call (both tiers' budgets
on every row).  A batch of more blocks than breakpoints (the oracle's
4 096-row grid blocks) is worked breakpoint-major, so each pass over
the breakpoints is one contiguous ufunc across the blocks; a narrower
one (the solver's two tiers) stays row-major, each pass running along
every block's row.

A brute-force ``grid_oracle`` provides ground truth on the 2x2 catalog
only, by minimizing over all pairs of per-tier grid matrices projected
to budget equality; only grid rows with a zero entry are projected, as
every other row is a uniform shift of one.  Those canonical rows are
enumerated once per call, straight from their index set, and each block
of them is projected for both tiers in one call, written in place into
the candidates.  One projector serves every full block and one the short
last block, built once the first is dropped.  It evaluates the cross
product through an exact bilinear split of the objective, scoring every
d2d row against one sbs Pareto-frontier point at a time.  The frontier's
sort-scan runs only on the sbs rows in the box of its two extreme rows,
which on a short frontier is a handful of the candidates.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .content import ContentLibrary, _is_bool, _is_count
from .delay import (CacheBudgets, _cascade, _check_shape, _weights_and_costs,
                    cell_delay_matrix, overall_delay)
from .geometry import (_HIT_BUFFERS, NetworkGeometry, RadioConfig, _hit, _hit_buffers,
                       _stacked_terms, hit_term)
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
        if _is_bool(self.convergence_tol) or not 0 < self.convergence_tol < np.inf:
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
    each trailing block is projected on its own.  ``budget`` is either a
    number, giving a result of ``p_hat``'s shape, or a non-empty 1-D
    sequence, giving one projection of ``p_hat`` per budget stacked along
    a new leading axis, all from one sort of each block's breakpoints.
    Each projection is min{[p_hat - u]+, 1} with the uniform shift u found
    exactly: the shifted-clipped usage is continuous, non-increasing and
    linear between the breakpoints p_i - 1 (entry i leaves the cap) and
    p_i (entry i hits zero), so sorting the 2n breakpoints, accumulating
    the usage across them and interpolating on the segment that crosses
    the budget gives the root (the breakpoint method of Duchi et al.,
    2008, and Condat, 2016).  When a budget is at least the whole catalog
    the equality is unattainable and the all-ones matrix is returned
    (budget non-binding).  The checks are made here, and bool sizes or a
    non-positive, NaN or bool budget is named in the error; ``_Projector``
    is the kernel behind them, built per call on an array with one row of
    the budgets per trailing block.  The grid oracle builds the kernel
    itself, once per block size, as its inputs need none of these checks:
    ``CacheBudgets`` holds finite positive budgets and the grid values are
    finite.
    """
    levels = np.asarray(budget, dtype=float)
    if levels.ndim > 1 or levels.size == 0:
        raise ValueError("budget must be a number or a non-empty 1-D sequence, "
                         f"got shape {levels.shape}")
    for level, given in zip(levels.flat, [budget] if levels.ndim == 0 else budget):
        if _is_bool(given) or not level > 0:
            shown = given if _is_bool(given) else float(level)
            raise ValueError(f"budget must be strictly positive, got {shown!r}")
    sizes = np.asarray(sizes)
    if _is_bool(sizes):
        raise ValueError("sizes must be real-valued, got dtype bool")
    sizes = np.asarray(sizes, dtype=float)
    p_hat = np.asarray(p_hat, dtype=float)
    batch = p_hat.shape[:p_hat.ndim - sizes.ndim]
    if p_hat.shape[len(batch):] != sizes.shape:
        raise ValueError("p_hat must end with the shape of sizes")
    if not np.all(np.isfinite(p_hat)):
        raise ValueError("p_hat must be finite")
    out = _Projector(sizes, np.full((math.prod(batch), levels.size), levels))(p_hat)
    return out if levels.ndim == 0 else out.reshape((levels.size, *p_hat.shape))


# 0-d operands: cheaper in small ufunc calls than Python floats
_ZERO, _ONE = np.array(0.0), np.array(1.0)


class _Projector:
    """The breakpoint projection of ``project_budget`` for one ``sizes`` and
    one (m, j) array of budgets, applied to batches of m finite blocks.

    Block r is projected at each of its j budgets, or comes back as exact
    ones at a budget that is at least the capacity sum(sizes).  All that
    the sizes and budgets fix is made here, once: the sizes check, the
    signed usage slopes concat(-s, s) of the 2n breakpoints, the capacity,
    each budget's levels and clip floors (one for a full pair), and the
    work buffers and views for m blocks (extra memory linear in m: fewer
    than 8 + 2j arrays of 2n*m values, a call's own included).  A call
    sorts each block's breakpoints and accumulates its usage once, then
    finds the crossing and interpolates once per budget; it returns a new
    array, of the batch's shape when j is 1 and a stack of j projections
    otherwise, or writes the result into ``out`` and returns it.  ``out``
    has the result's shape for the batch given as (m, n) rows, and each
    projection is written into it directly (the grid oracle passes slices
    of its candidate rows).  A projector can be called on any number of
    batches; no result shares memory with its work buffers.

    The layout of the sorted breakpoints, slopes and usage is chosen here
    too, from the batch's shape.  Up to 2n blocks (the solver's two tiers)
    keep them row-major, (m, 2n), and each pass runs along every block's
    row.  More blocks than breakpoints (the oracle's grid blocks) keep them
    breakpoint-major, (2n, m), so each pass is one contiguous ufunc across
    all blocks: each running sum is one add per rank, the same sequential
    sum as ``np.add.accumulate``, and each rank's crossing compare reads
    the blocks' levels as one contiguous row.  The crossing search there
    ANDs each rank's "usage > level" mask into the one before, one ufunc
    per rank, and counts the ranks still set: argmax's first crossing, as
    a plain count of the ranks above the level is not (across a flat
    segment the slopes cancel only to +-eps with non-integer sizes, so the
    usage can rise).  Either way each value comes from the same operations
    in the same order.  Timed on random rows, the
    breakpoint-major layout breaks even between 32 and 64 blocks of 2n = 8
    at two budgets (0.72 times the row-major time at 4 096) and between 81
    and 120 blocks of 2n = 80 at one budget (3.9 times slower at the
    solver's 2); from 2n blocks to those it is up to 12% slower, a range
    no caller uses.
    """

    def __init__(self, sizes, budget):
        sizes = np.asarray(sizes, dtype=float)
        if not np.all((sizes > 0) & (sizes < np.inf)):
            raise ValueError("sizes must be finite and strictly positive")
        self.sizes = sizes
        n, m = sizes.size, budget.shape[0]
        self._wide = wide = m > 2 * n
        shape = (2 * n, m) if wide else (m, 2 * n)

        def ranks(buffer, cut):  # the view of the breakpoint ranks in cut
            return buffer[cut] if wide else buffer[:, cut]

        self._capacity = np.asarray(sizes.sum())
        # per budget: the levels its crossing compare reads, its (m, 1)
        # levels and the floor of its clip.  Row-major, the levels are
        # expanded to the usage's shape, which the solver's calls repay;
        # breakpoint-major, each rank's compare reads the m levels as they
        # are: expanded, the grid oracle's reused projectors took the same
        # time within noise, for 2n - 2 copies of the levels.  A full
        # (block, budget) pair is solved at level 0, where the crossing
        # segment has a usage drop (no 0/0), and clipped up to exact ones
        full = budget >= self._capacity
        self._columns = []
        for level, floor in zip(np.where(full, 0.0, budget).T, full.T.astype(float)):
            compared = level if wide else np.repeat(level[:, None], 2 * n, axis=1)
            self._columns.append((compared, level[:, None],
                                  floor[:, None] if floor.any() else _ZERO))
        # the sort's input is row-major in both layouts: block r's
        # breakpoints start at r*2n of the raveled points
        self._points = np.empty((m, 2 * n))
        self._low, self._high = self._points[:, :n], self._points[:, n:]
        self._flat_points = self._points.ravel()
        self._signed = np.concatenate((-sizes.ravel(), sizes.ravel()))
        starts = np.arange(0, 2 * n * m, 2 * n)
        self._sorted, self._slope, usage = np.empty((3, *shape))
        ranks(usage, 0)[...] = self._capacity
        # exact at max(p_hat); pinned so rounding cannot skip it
        ranks(usage, -1)[...] = 0.0
        self._usage, self._flat_sorted, self._flat_usage = (
            usage, self._sorted.ravel(), usage.ravel())
        self._inner = ranks(self._sorted, slice(1, -1))
        self._head = ranks(self._sorted, slice(None, -2))
        self._head_slope = ranks(self._slope, slice(None, -2))
        self._inner_usage = ranks(usage, slice(1, -1))
        if wide:
            self._index = np.empty(shape, dtype=np.intp)
            self._starts = starts
            # rank k of block r sits at k*m + r of the raveled buffers (m as
            # a 0-d intp: the crossing counts may be uint8)
            self._blocks, self._step = np.arange(m)[:, None], np.array(m, dtype=np.intp)
            # (previous, current) rank pairs of the two running sums
            self._slope_ranks = list(zip(self._slope[:-1], self._slope[1:]))
            self._usage_ranks = list(zip(usage[1:-2], usage[2:-1]))
            # the crossing search: the inner ranks' "usage > level" mask,
            # ANDed down the ranks, counted in the smallest type that holds
            # 2n - 2 (viewed as bytes: a bool-to-intp reduce costs 6 times more)
            self._above = np.empty((2 * n - 2, m), dtype=bool)
            self._above_ranks = list(zip(self._above[:-1], self._above[1:]))
            self._ones = self._above.view(np.uint8)
            self._count = np.empty(m, dtype=np.min_scalar_type(2 * n - 2))
        else:
            self._below = np.empty(shape, dtype=bool)
            # rank k of block r sits at r*2n + k
            self._starts = self._blocks = starts[:, None]
            self._step = 1

    def __call__(self, p_hat, out=None):
        rows = p_hat.reshape(-1, self.sizes.size)
        np.subtract(rows, _ONE, out=self._low)
        np.copyto(self._high, rows)
        order = self._points.argsort(axis=1, kind="stable")
        if self._wide:  # the sort order laid out as the buffers
            np.copyto(self._index, order.T)
            order = self._index
        # usage slope after each breakpoint: -s_i once entry i leaves the cap,
        # back up by s_i once it reaches zero
        self._signed.take(order, out=self._slope, mode="clip")
        if self._wide:
            for prev, rank in self._slope_ranks:
                np.add(prev, rank, out=rank)
        else:
            np.add.accumulate(self._slope, 1, out=self._slope)
        # gather the sorted breakpoints through flat indices
        order += self._starts
        self._flat_points.take(order, out=self._sorted, mode="clip")
        # the usage between the first and the last breakpoint, both fixed:
        # capacity + cumsum(slope * diff(sorted))
        usage = np.subtract(self._inner, self._head, out=self._inner_usage)
        np.multiply(self._head_slope, usage, out=usage)
        if self._wide:
            for prev, rank in self._usage_ranks:
                np.add(prev, rank, out=rank)
        else:
            np.add.accumulate(usage, 1, out=usage)
        np.add(usage, self._capacity, out=usage)
        # one budget returns its own array and more one stack, unless the
        # caller gave ``out``
        budgets = len(self._columns)
        stack = out
        if stack is None and budgets > 1:
            stack = np.empty((budgets, *rows.shape))
        for j, (compared, level, floor) in enumerate(self._columns):
            # the first rank k + 1 with usage <= level: rank 0, the capacity,
            # is above every level, so [k, k + 1] is the crossing segment
            if self._wide:
                # the running AND leaves set the inner ranks before the
                # first one at or below the level; after rank 0 (the
                # capacity, always above), k is their count
                np.greater(self._inner_usage, compared, out=self._above)
                for prev, rank in self._above_ranks:
                    np.logical_and(prev, rank, out=rank)
                np.add.reduce(self._ones, 0, out=self._count)
                k = np.multiply(self._count[:, None], self._step)
                k += self._blocks
                k_next = k + self._step
            else:
                np.less_equal(self._usage, compared, out=self._below)
                k_next = self._below.argmax(axis=1, keepdims=True)
                k_next += self._blocks
                k = k_next - self._step
            lo, hi = self._flat_sorted.take(k), self._flat_sorted.take(k_next)
            above, below = self._flat_usage.take(k), self._flat_usage.take(k_next)
            projected = np.subtract(rows, lo + (above - level) / (above - below) * (hi - lo),
                                    out=stack if budgets == 1 else stack[j])
            # np.clip(projected, floor, 1.0) without its Python wrapper
            np.maximum(floor, projected, out=projected)
            np.minimum(projected, _ONE, out=projected)
        if out is not None:
            return out
        if stack is None:
            return projected.reshape(p_hat.shape)
        return stack.reshape((budgets, *p_hat.shape))


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

    It runs the solver's kernel, ``_Objective``, in buffers of its own, with
    the instance constants broadcast rather than expanded.
    """
    _check_shape(policy, lib)
    objective = _Objective(lib, geoms, radio, expand=False)
    delay = objective(np.stack((policy.p_d, policy.p_s)))
    return delay, objective.grad[0], objective.grad[1]


class _Objective:
    """``objective_gradient``'s kernel for one instance, on stacked (2, F, L)
    matrices with entries in [0, 1]; it builds its own weights, branch
    costs and tier terms (``_weights_and_costs``, ``_stacked_terms``).  A
    call returns the delay and writes the stacked gradient into ``grad``;
    every ufunc writes in place into buffers allocated here, once, all but
    ``grad`` in one block: the hit kernel's (``geometry._hit_buffers``),
    the miss terms 1 - hit that the cascade and the gradient share, and
    the cascade's, which the gradient reuses once the delay is summed.  The
    next call overwrites them all.  With ``expand`` (the solver) A, -A and
    the threshold terms are expanded to the shape they meet, so every
    operand but p in p + t and the 0-d one in 1 - hit is contiguous and of
    one shape; ``objective_gradient`` broadcasts them.  Each value comes
    from the same operations in the same order either way.  Both stay
    because the callers differ: expanded, a 20x2 call took 36.7 against
    39.8 us, but a 100 000-file call peaked at 62.6 against 44.3 MB and
    took 2.23-2.38 times as long at 200 000.
    """

    def __init__(self, lib, geoms, radio, expand=True):
        weights, (a, b, c_m) = _weights_and_costs(lib, geoms, radio)
        area, terms = _stacked_terms(geoms, radio.sir_threshold)
        shape = (2, *weights.shape)
        minus_area = -area
        if expand:
            full = np.empty((3, 2, *shape))
            full[0], full[1], full[2] = terms, area, minus_area
            terms, area, minus_area = full
        self._constants = weights, a, b, c_m, b - c_m, area, minus_area, terms
        # one block: the hit kernel's buffers, the miss terms, the cascade's
        work = np.empty((2 * _HIT_BUFFERS + 5, *weights.shape))
        self._hit = _hit_buffers(work[:2 * _HIT_BUFFERS].reshape(_HIT_BUFFERS, *shape))
        self._miss = work[2 * _HIT_BUFFERS:-3].reshape(shape)
        self._cells = work[-3], work[-2], work[-1]
        self.grad = np.empty(shape)
        *_, hit, slope = self._hit
        self._halves = tuple((pair[0], pair[1])
                             for pair in (hit, slope, self._miss, self.grad))

    def __call__(self, p):
        weights, a, b, c_m, b_minus_c, area, minus_area, terms = self._constants
        (hit_d, hit_s), (slope_d, slope_s), miss, (grad_d, grad_s) = self._halves
        hit, _ = _hit(p, area, minus_area, terms, self._hit)
        np.subtract(_ONE, hit, self._miss)
        cells, sbs, mbs = _cascade(hit_d, hit_s, a, b, c_m, miss, self._cells)
        np.add(np.add(cells, sbs, cells), mbs, cells)
        delay = float(np.add.reduce(np.multiply(weights, cells, cells), None))
        # w*hit_d'*(a - hit_s*b - (1 - hit_s)*c_m), in the cascade's free buffers
        cost = np.subtract(a, np.multiply(hit_s, b, sbs), sbs)
        cost = np.subtract(cost, np.multiply(miss[1], c_m, mbs), sbs)
        np.multiply(np.multiply(weights, slope_d, grad_d), cost, grad_d)
        # w*(1 - hit_d)*hit_s'*(b - c_m)
        np.multiply(np.multiply(np.multiply(weights, miss[0], grad_s), slope_s, grad_s),
                    b_minus_c, grad_s)
        return delay


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
    and returned.  Sizes are checked and the loop's constants and buffers
    (the projector, the ``_Objective`` workspace, the step) built once per
    solve; the start's ``objective_gradient`` and the final
    ``cell_delay_matrix`` build their own.  The residuals of both tiers
    come from one product and one row sum.
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
    objective = _Objective(lib, geoms, radio)
    # the loop's buffers: the raw step, its finite mask and the bits each
    # entry of the iterate uses, against sizes stacked for both tiers
    raw, used, tier_sizes = np.empty((3, *p.shape))
    finite = np.empty(p.shape, dtype=bool)
    tier_sizes[...] = sizes
    best_p = None  # None while the start is the best iterate
    result = OptimizerResult(
        best_policy=policy, best_delay=current, delay_trajectory=[current],
        iterations_run=0, converged=False,
    )
    for t in range(1, cfg.max_iterations + 1):
        eps = 1.0 / t
        np.subtract(p, np.multiply(grad, eps, raw), raw)
        if not np.isfinite(raw, finite).all():
            raise ValueError(f"iterate {t} is not finite")
        p = project(raw)
        new, grad = objective(p), objective.grad
        used_d, used_s = np.add.reduce(np.multiply(p, tier_sizes, used).reshape(2, -1),
                                       1).tolist()
        result.delay_trajectory.append(new)
        result.step_sizes.append(eps)
        result.budget_residual_d.append(abs(used_d - target_d))
        result.budget_residual_s.append(abs(used_s - target_s))
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
# canonical rows per projection call: bounds the projector's work buffers
# (2 048 to 8 192 read the same oracle time; one 34 481-row block took twice as long)
_GRID_BLOCK = 4096


def _grid_index(n_cells, n_values):
    """Flat grid-order indices of the rows of {0, ..., 1}^n_cells with a zero
    entry, n^k - (n-1)^k of the n^k: the grid's index cube with its
    all-nonzero subcube [1:, ..., 1:] cleared."""
    canonical = np.ones((n_values,) * n_cells, dtype=bool)
    canonical[(slice(1, None),) * n_cells] = False
    return np.flatnonzero(canonical)


def _grid_candidates(geoms, theta, sizes_flat, budgets, n_values, useful):
    """Enumerate the grid of the 2x2 catalog once and project it for both tiers.

    Returns (rows, hits): ``rows[t]`` is every canonical grid row (one with
    a zero entry, ``_grid_index``) projected to tier t's budget equality
    (t = 0 for d2d, 1 for sbs), in grid order, and ``hits[t]`` its
    hit-term values on the useful cells (the zero-popularity cells cannot
    change the delay).  Every other grid row is a uniform shift c of a
    canonical one, and u absorbs the shift, P(r + c*1) = P(r), so its
    projection is already here.  Rows that project to the same matrix are
    all kept: the sbs Pareto scan keeps one of equal points, and the
    oracle's argmin keeps the first minimum in grid order.  Each block of
    ``_GRID_BLOCK`` rows, unravelled from the index set, is projected in
    one call at both budgets straight into its slice of ``rows``.  One
    ``_Projector`` serves every full block; the short last block gets its
    own, built once the first is dropped, so one projector's buffers are
    alive at a time, and none while the hit terms are computed.
    """
    index = _grid_index(sizes_flat.size, n_values)
    values = np.linspace(0.0, 1.0, n_values)
    shape = (n_values,) * sizes_flat.size
    levels = (budgets.m_d, budgets.m_s)
    rows = np.empty((2, index.size, sizes_flat.size))
    project = None
    for start in range(0, index.size, _GRID_BLOCK):
        block = index[start:start + _GRID_BLOCK]
        if project is None or block.size < _GRID_BLOCK:  # a short block is the last
            project = None  # one projector's buffers alive at a time
            project = _Projector(sizes_flat, np.full((block.size, 2), levels))
        project(values[np.column_stack(np.unravel_index(block, shape))],
                out=rows[:, start:start + block.size])
    del project  # and none while the hit terms are computed
    return rows, [hit_term(tier[:, useful], geom, theta)
                  for tier, geom in zip(rows, (geoms.d2d, geoms.sbs))]


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
    if not (isinstance(grid_step, numbers.Real)
            and any(abs(grid_step - s) < 1e-12 for s in _GRID_STEPS)):
        raise ValueError(f"grid_step must be one of {_GRID_STEPS}, "
                         f"got {grid_step!r}")
    n_values = int(round(1.0 / grid_step)) + 1

    theta = radio.sir_threshold
    weights, costs = _weights_and_costs(lib, geoms, radio)
    sizes = lib.super_layer_sizes.ravel()
    useful = np.flatnonzero(weights.ravel() > 0)
    w, a, b, c_m = (term.ravel()[useful] for term in (weights, *costs))

    (rows_d, rows_s), (hit_d, hit_s) = _grid_candidates(geoms, theta, sizes, budgets,
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

    Only the rows in the box of the two extreme rows go through the sort:
    first column at least the floor (the largest first column among rows
    of the largest last column) and last column at least the ceiling (the
    largest last column among rows of the largest first column).  A row
    below the floor is scanned after the row that sets the floor, and one
    below the ceiling after the row that leads the scan, and each of those
    has a larger last column; the stable sort keeps the boxed rows in their
    order, so the indices are the same, ties included.  A box that holds
    every row (a long frontier: all of them at an sbs budget of 0.1
    catalogs) is sorted as it stands, with no gathers.  The mask reads each
    column contiguously: the oracle's hit arrays are column-major already,
    and a row-major one is copied a column at a time.
    """
    x, y = (np.ascontiguousarray(points[:, c] if maximize else -points[:, c])
            for c in (0, -1))
    box = np.flatnonzero((x >= x[y == y.max()].max()) & (y >= y[x == x.max()].max()))
    whole = box.size == x.size  # every row in the box: nothing to gather
    if not whole:
        x, y = x[box], y[box]
    order = np.lexsort((-y, -x))
    last = y[order]
    running = np.maximum.accumulate(last)
    first = np.empty(order.size, dtype=bool)
    first[0] = True
    first[1:] = last[1:] > running[:-1]
    return order[first] if whole else box[order[first]]
