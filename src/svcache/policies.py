"""Caching-policy data model, feasibility validation and baseline generators.

A policy is a pair of (F, L) matrices of caching probabilities, one for
the d2d helpers and one for the small cells.  A tier's expected cache
usage is sum_{f,l} p_{f,l} * c_{f,l} with c the super-layer sizes; a
policy is feasible when the usage of each tier stays within its per-node
budget.

Three reference generators:

MPCP  caches whole items in descending joint-popularity order until the
      budget binds, giving the boundary item the fractional probability
      that exhausts the budget exactly.
EPCP  gives every item one common probability chosen to use the whole
      budget.
ICP   draws independent uniform probabilities and projects them onto the
      budget-equality set (seeded, deterministic).
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .content import ContentLibrary, preference_matrix, total_catalog_bits
from .delay import CacheBudgets, _check_shape

__all__ = [
    "CachingPolicy",
    "FeasibilityReport",
    "epcp",
    "icp",
    "load_policy",
    "mpcp",
    "save_policy",
    "validate_policy",
]

_REL_TOL = 1e-9


@dataclass(frozen=True)
class CachingPolicy:
    """Pair of caching-probability matrices, entries clamped to [0, 1].

    Clamping absorbs the sub-ulp drift that gradient steps and budget
    projections produce; NaN or grossly out-of-range input is a caller
    bug and still rejected.
    """

    p_d: np.ndarray
    p_s: np.ndarray

    def __post_init__(self):
        p_d = np.asarray(self.p_d, dtype=float)
        p_s = np.asarray(self.p_s, dtype=float)
        if p_d.ndim != 2 or p_d.shape != p_s.shape:
            raise ValueError("policy matrices must be 2-D with equal shapes")
        for name, mat in (("p_d", p_d), ("p_s", p_s)):
            if not np.all((mat >= -1e-6) & (mat <= 1 + 1e-6)):
                raise ValueError(f"{name} entries NaN or far outside [0, 1]")
        object.__setattr__(self, "p_d", np.clip(p_d, 0.0, 1.0))
        object.__setattr__(self, "p_s", np.clip(p_s, 0.0, 1.0))

    @property
    def shape(self) -> tuple[int, int]:
        return self.p_d.shape

    @classmethod
    def zeros(cls, file_count, layer_count):
        shape = (file_count, layer_count)
        return cls(np.zeros(shape), np.zeros(shape))

    def budget_usage(self, sizes) -> tuple[float, float]:
        """Expected cached bits per node for each tier."""
        sizes = np.asarray(sizes, dtype=float)
        return (float((self.p_d * sizes).sum()), float((self.p_s * sizes).sum()))


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a policy check: per-tier usage and slack (budget minus
    usage; negative means excess) plus the count of out-of-box entries."""

    feasible: bool
    usage_d: float
    usage_s: float
    slack_d: float
    slack_s: float
    box_violations: int


def validate_policy(policy: CachingPolicy, lib: ContentLibrary,
                    budgets: CacheBudgets) -> FeasibilityReport:
    """Check a policy against the catalog shape and cache budgets.

    Feasible means both tier usages stay within budget up to 1e-9
    relative slack.  Box violations are counted on the stored matrices
    (zero unless someone mutated them in place).
    """
    _check_shape(policy, lib)
    sizes = lib.super_layer_sizes
    usage_d, usage_s = policy.budget_usage(sizes)
    box = int(((policy.p_d < 0) | (policy.p_d > 1)).sum()
              + ((policy.p_s < 0) | (policy.p_s > 1)).sum())
    ok_d = usage_d <= budgets.m_d * (1 + _REL_TOL)
    ok_s = usage_s <= budgets.m_s * (1 + _REL_TOL)
    return FeasibilityReport(
        feasible=bool(ok_d and ok_s and box == 0),
        usage_d=usage_d,
        usage_s=usage_s,
        slack_d=budgets.m_d - usage_d,
        slack_s=budgets.m_s - usage_s,
        box_violations=box,
    )


def greedy_fill(weights, sizes, budget) -> np.ndarray:
    """Whole-item greedy by descending weight with a fractional boundary item.

    Items are ranked by weight (ties broken by flat index, so the result
    is deterministic); each gets probability 1 while it fits, the first
    item that does not fit gets the fraction that makes the usage equal
    the budget exactly, and the rest get 0.
    """
    weights = np.asarray(weights, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    if not budget > 0:
        raise ValueError("budget must be positive")
    flat_sizes = sizes.ravel()
    order = np.argsort(-weights.ravel(), kind="stable")
    out = np.zeros(weights.size)
    remaining = float(budget)
    for i in order:
        if flat_sizes[i] <= remaining:
            out[i] = 1.0
            remaining -= flat_sizes[i]
        else:
            out[i] = remaining / flat_sizes[i]
            remaining = 0.0
            break
    return out.reshape(weights.shape)


def mpcp(lib: ContentLibrary, budgets: CacheBudgets) -> CachingPolicy:
    """Most-popular content placement: greedy by joint request probability,
    independently per tier."""
    weights = preference_matrix(lib)
    sizes = lib.super_layer_sizes
    return CachingPolicy(
        p_d=greedy_fill(weights, sizes, budgets.m_d),
        p_s=greedy_fill(weights, sizes, budgets.m_s),
    )


def epcp(lib: ContentLibrary, budgets: CacheBudgets) -> CachingPolicy:
    """Equal-probability content placement: one uniform probability per
    tier, min(1, budget / total catalog bits), so the budget is fully
    used whenever it binds."""
    total = total_catalog_bits(lib)
    shape = lib.shape
    u_d = min(1.0, budgets.m_d / total)
    u_s = min(1.0, budgets.m_s / total)
    return CachingPolicy(p_d=np.full(shape, u_d), p_s=np.full(shape, u_s))


def icp(lib: ContentLibrary, budgets: CacheBudgets, seed: int) -> CachingPolicy:
    """Independent content placement: i.i.d. uniform(0, 1) probabilities
    per item per tier, projected onto budget equality.  Deterministic
    under the seed."""
    from .optimizer import project_budget

    rng = np.random.default_rng(seed)
    sizes = lib.super_layer_sizes
    p_d = project_budget(rng.random(lib.shape), sizes, budgets.m_d)
    p_s = project_budget(rng.random(lib.shape), sizes, budgets.m_s)
    return CachingPolicy(p_d=p_d, p_s=p_s)


# ---------------------------------------------------------------------------
# Matrix text format: header with tier and shape, one row per file,
# comma-separated probabilities at 9 significant digits.
# ---------------------------------------------------------------------------

def save_policy_matrix(fh: io.TextIOBase, matrix: np.ndarray, tier: str):
    matrix = np.asarray(matrix, dtype=float)
    fh.write(f"# tier={tier} F={matrix.shape[0]} L={matrix.shape[1]}\n")
    for row in matrix:
        fh.write(",".join(f"{v:.9g}" for v in row) + "\n")


def save_policy(path, policy: CachingPolicy):
    """Write both tier matrices of a policy to one text file."""
    with open(path, "w") as fh:
        save_policy_matrix(fh, policy.p_d, "d2d")
        save_policy_matrix(fh, policy.p_s, "sbs")


def load_policy(path) -> CachingPolicy:
    """Read a policy written by :func:`save_policy`; each matrix must have
    the F rows of L entries its header declares, and a malformed header or
    entry, or a second block of a tier, raises ``ValueError`` naming its line."""
    blocks = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if line.startswith("#"):
                fields = [part.split("=") for part in line[1:].split()]
                if any(len(field) != 2 for field in fields):
                    raise ValueError(f"policy file line {number}: header fields must "
                                     f"be key=value, got {line!r}")
                header = dict(fields)
                if header.get("tier") in [seen.get("tier") for seen, _ in blocks]:
                    raise ValueError(f"policy file line {number}: repeated tier "
                                     f"block {line!r}")
                blocks.append((header, []))
            elif line:
                if not blocks:
                    raise ValueError("policy file must start with a '# tier=' header")
                try:
                    blocks[-1][1].append([float(v) for v in line.split(",")])
                except ValueError as exc:
                    raise ValueError(f"policy file line {number}: {exc}") from None
    matrices = {}
    for fields, rows in blocks:
        tier, n_f, n_l = (fields.get(key, "") for key in ("tier", "F", "L"))
        if (not (n_f.isdigit() and n_l.isdigit())
                or [len(row) for row in rows] != [int(n_l)] * int(n_f)):
            raise ValueError(f"{tier} matrix does not match its header F={n_f} L={n_l}")
        matrices[tier] = np.array(rows)
    if set(matrices) != {"d2d", "sbs"}:
        raise ValueError(f"policy file must hold d2d and sbs matrices, got {set(matrices)}")
    return CachingPolicy(p_d=matrices["d2d"], p_s=matrices["sbs"])
