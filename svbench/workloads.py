"""The benchmark workloads: inputs made from a seed, one timed pass over
them, and the checks that the pass's outputs are correct.

Every call into the library goes through a module attribute
(``geometry.hit_term``, never a name imported from it), so a traced run
sees the wrapped functions and an untraced run the originals.

mc-validate  the ``svcache validate`` point set at defaults (d2d and sbs
             tiers x three estimator families x five caching
             probabilities, plus the macro tier at five thresholds), and
             the end-to-end delay estimate of the three baselines and the
             optimized placement.  The Monte-Carlo interference kernel
             does nearly all the work.
solve-paper  the five criterion-7 sweeps (25 instances, 20x2 catalog)
             through ``experiments.run_optimize_and_compare``, once from
             the MPCP warm start and once from the EPCP cold start, where
             every solve runs to the iteration cap: thousands of calls on
             40-entry arrays.
oracle-grid  ``grid_oracle`` on the 2x2 catalog at half-catalog budgets,
             step 0.05, plus the optimizer and baselines on the same
             instance: the projection and hit-term code batched over
             2e5 grid rows.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import time
from typing import Callable

import numpy as np

from svcache import config, content, delay, experiments, geometry, mcsim, optimizer, policies

# One 4 096-trial reproducibility block per Monte-Carlo point.
MC_TRIALS = 4096
SE_BAR = 5.0
# Criterion 1 asks for 0.01 absolute at 50 000 trials; the same bar at
# MC_TRIALS scales with the standard error, 1/sqrt(trials).
ABS_BAR = 0.01 * math.sqrt(50_000 / MC_TRIALS)
TARGET_SE = 0.002
P_POINTS = (0.1, 0.3, 0.5, 0.7, 1.0)
THETA_DB_POINTS = (1.0, 3.0, 5.0, 7.0, 9.0)
MC_FAMILIES = ("nearest_cached", "nearest_uncached", "cache_tier")

SWEEPS = (
    ("radio.sir_threshold_db", 3.0, 7.0),
    ("budgets.d2d_bits", 100e6, 300e6),
    ("budgets.sbs_bits", 300e6, 700e6),
    ("content.skewness", 0.5, 1.5),
    ("radio.backhaul_rate_bps", 2e6, 32e6),
)
SWEEP_STEPS = 5
BUDGET_RTOL = 1e-9

ORACLE_STEP = 0.05
ORACLE_VALUE = 4.093378
ORACLE_RTOL = 1e-6
ORACLE_GAP = 0.01

# Fixed work of the benchmark's own, timed next to every operation to
# gauge the speed the shared host gives the process at that moment.  It
# calls nothing in svcache, so a change to the library leaves it as it is.
# Each workload uses the kind that slows down like its own operations.
_REF_ROWS = np.random.default_rng(2020).random((64, 40)) * 3.0
_REF_WEIGHTS = np.random.default_rng(2021).random(40) + 0.5
_REF_BATCH = np.random.default_rng(2022).random((4096, 8)) * 3.0
_REF_BATCH_WEIGHTS = np.random.default_rng(2023).random(8) + 0.5
_REF_TRIALS = 8192
_REF_BISECTIONS = 30


def no_op(label):
    return contextlib.nullcontext()


@dataclasses.dataclass
class Check:
    label: str
    ok: bool
    detail: str = ""


@dataclasses.dataclass
class PassResult:
    """One pass: its wall time, the wall time of each operation, the
    factor that scales each operation's time to the reference speed, and
    the outputs, which are deterministic for a seed."""

    wall_s: float
    op_s: dict[str, float]
    scale: dict[str, float]
    outputs: dict

    def scaled_s(self) -> dict[str, float]:
        return {label: t * self.scale[label] for label, t in self.op_s.items()}


@dataclasses.dataclass
class Verified:
    """Untimed re-checks made after the timed passes, and the figures they
    yield for the report."""

    checks: list[Check] = dataclasses.field(default_factory=list)
    figures: dict = dataclasses.field(default_factory=dict)


def digest(outputs) -> str:
    """Stable digest of a pass's outputs; floats enter at full precision."""
    text = json.dumps(outputs, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def points_over_3se(outputs):
    """Monte-Carlo points more than three standard errors from their
    analytic value; 0 for a workload without such points."""
    return sum(abs(pt["mean"] - pt["analytic"]) > 3.0 * pt["stderr"]
               for pt in outputs.get("points", ()))


def _calls_work() -> float:
    """Bisection projections of 40-entry rows, one row at a time:
    interpreter and small-array overhead, like the solver."""
    total = 0.0
    for row in _REF_ROWS:
        lo, hi = 0.0, float(row.max())
        for _ in range(_REF_BISECTIONS):
            mid = 0.5 * (lo + hi)
            used = float(np.dot(np.clip(row - mid * _REF_WEIGHTS, 0.0, 1.0), _REF_WEIGHTS))
            lo, hi = (mid, hi) if used > 5.0 else (lo, mid)
        total += hi
    return total


def _arrays_work() -> float:
    """A batched bisection over 4 096 rows and a Poisson field of
    exponential gains summed per trial: whole-array passes, like the grid
    oracle and the Monte-Carlo kernel."""
    lo, hi = np.zeros(len(_REF_BATCH)), _REF_BATCH.max(axis=1)
    for _ in range(_REF_BISECTIONS):
        mid = 0.5 * (lo + hi)
        above = np.clip(_REF_BATCH - mid[:, None], 0.0, 1.0) @ _REF_BATCH_WEIGHTS > 2.0
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    rng = np.random.default_rng(7)
    counts = rng.poisson(4.0, _REF_TRIALS)
    n = int(counts.sum())
    gains = rng.standard_exponential(n) * rng.random(n) ** -2.0
    per_trial = np.bincount(np.repeat(np.arange(_REF_TRIALS), counts), weights=gains,
                            minlength=_REF_TRIALS)
    return float(hi.sum() + per_trial.sum())


@dataclasses.dataclass(frozen=True)
class Reference:
    """Reference work and its time on the quiet host the bounds were set
    on.  An operation's time times ``nominal_s`` over the reference's
    time next to it is the operation's time at that speed."""

    work: Callable[[], float]
    nominal_s: float

    def time_s(self) -> float:
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start


CALLS = Reference(_calls_work, 0.009)
ARRAYS = Reference(_arrays_work, 0.005)


class Clock:
    """Times each operation of a pass, and the reference work just before
    and just after it; ``op`` opens the traced run's span around the call."""

    def __init__(self, reference: Reference, op=no_op):
        self.reference = reference
        self.op = op
        self.op_s: dict[str, float] = {}
        self.scale: dict[str, float] = {}
        self._ref_before = reference.time_s()

    def __call__(self, label, fn, *args):
        with self.op(label):
            start = time.perf_counter()
            result = fn(*args)
            self.op_s[label] = time.perf_counter() - start
        after = self.reference.time_s()
        self.scale[label] = self.reference.nominal_s / (0.5 * (self._ref_before + after))
        self._ref_before = after
        return result

    def result(self, wall_s, outputs) -> PassResult:
        return PassResult(wall_s, self.op_s, self.scale, outputs)


def _delays(row):
    """The delay columns of a compare row."""
    return {k: row[k] for k in experiments.COMPARE_FIELDS if k.startswith("delay_")}


def _in_box(policy):
    return bool(np.all((policy.p_d >= 0) & (policy.p_d <= 1))
                and np.all((policy.p_s >= 0) & (policy.p_s <= 1)))


def _budget_checks(label, policy, lib, budgets):
    sizes = lib.super_layer_sizes
    usage_d, usage_s = policy.budget_usage(sizes)
    capacity = float(sizes.sum())
    checks = [Check(f"{label} box", _in_box(policy))]
    for tier, usage, budget in (("d2d", usage_d, budgets.m_d),
                                ("sbs", usage_s, budgets.m_s)):
        residual = abs(usage - min(budget, capacity))
        checks.append(Check(f"{label} {tier} budget",
                            residual <= BUDGET_RTOL * budget,
                            f"residual {residual:.3e}"))
    return checks


class McValidate:
    name = "mc-validate"
    reference = ARRAYS

    def setup(self, seed):
        cfg = config.default_config(**{"sim.master_seed": seed,
                                       "sim.trials": MC_TRIALS})
        theta = cfg.radio.sir_threshold
        points = []
        for tier in ("d2d", "sbs"):
            geom = getattr(cfg.geometry, tier)
            for family in MC_FAMILIES:
                for p in P_POINTS:
                    points.append((f"{tier}.{family}.p={p}", family,
                                   (p, geom, theta)))
        mbs = cfg.geometry.mbs
        for theta_db in THETA_DB_POINTS:
            points.append((f"mbs.theta_db={theta_db}", "mbs",
                           (mbs.density, mbs.pathloss, 10.0 ** (theta_db / 10.0))))
        # warm-up: one small estimate and one delay evaluation
        warm_sim = mcsim.SimConfig(trials=64, master_seed=seed)
        mcsim.mc_stp_cache_tier(0.5, cfg.geometry.d2d, theta, warm_sim)
        delay.overall_delay(policies.mpcp(cfg.library, cfg.budgets),
                            cfg.library, cfg.geometry, cfg.radio)
        return {"cfg": cfg, "points": points}

    def run_pass(self, inputs, op=no_op):
        cfg = inputs["cfg"]
        lib, geoms, radio, budgets = cfg.library, cfg.geometry, cfg.radio, cfg.budgets
        points, e2e = [], []
        start = time.perf_counter()
        clock = Clock(self.reference, op)
        for label, family, args in inputs["points"]:
            if family == "mbs":
                analytic = geometry.stp_mbs(args[1], args[2])
            else:
                analytic = getattr(geometry, f"stp_{family}")(*args)
            est = clock(label, getattr(mcsim, f"mc_stp_{family}"), *args, cfg.sim)
            points.append({"label": label, "family": family,
                           "analytic": float(analytic), "mean": est.mean,
                           "stderr": est.stderr, "trials": est.trials_used})
        placements = clock("placements", lambda: {
            "mpcp": policies.mpcp(lib, budgets),
            "epcp": policies.epcp(lib, budgets),
            "icp": policies.icp(lib, budgets, seed=cfg.sim.master_seed),
            "optimized": optimizer.optimize(lib, geoms, radio, budgets,
                                            cfg.optimizer).best_policy,
        })
        for name, policy in placements.items():
            label = f"delay_end_to_end.{name}"
            with op(label):
                analytic = delay.overall_delay(policy, lib, geoms, radio).total
            est = clock(label, mcsim.mc_delay_end_to_end, policy, lib, geoms, radio, cfg.sim)
            e2e.append({"label": label, "analytic": analytic, "mean": est.mean,
                        "stderr": est.stderr, "trials": est.trials_used})
        wall = time.perf_counter() - start
        return clock.result(wall, {"points": points, "end_to_end": e2e})

    def check(self, inputs, outputs):
        checks = []
        for pt in outputs["points"]:
            gap = abs(pt["mean"] - pt["analytic"])
            ok = (pt["trials"] == MC_TRIALS and pt["stderr"] > 0
                  and gap <= SE_BAR * pt["stderr"] and gap <= ABS_BAR)
            checks.append(Check(pt["label"], ok,
                                f"gap {gap:.4f}, z {gap / pt['stderr']:.2f}"
                                if pt["stderr"] > 0 else "zero stderr"))
        for row in outputs["end_to_end"]:
            gap = abs(row["mean"] - row["analytic"])
            ok = row["stderr"] > 0 and gap <= SE_BAR * row["stderr"]
            checks.append(Check(row["label"], ok, f"gap {gap:.4f} s"))
        return checks

    def verify(self, inputs, outputs):
        return Verified()

    def tail_samples(self, op_s):
        return "mc_op_tail_s", [t for times in op_s.values() for t in times]

    def quality(self, outputs, verified):
        """Estimator variance per trial relative to plain counting at the
        analytic value, pooled over the probability points."""
        pts = outputs["points"]
        return (sum(pt["stderr"] ** 2 * pt["trials"] for pt in pts)
                / sum(pt["analytic"] * (1.0 - pt["analytic"]) for pt in pts))

    def report(self, outputs, verified, op_med):
        pts = outputs["points"]
        trials = sum(pt["trials"] for pt in pts) + sum(
            row["trials"] for row in outputs["end_to_end"])
        mc_s = sum(t for label, t in op_med.items() if label != "placements")
        to_se = sum(op_med[pt["label"]] * (pt["stderr"] / TARGET_SE) ** 2
                    for pt in pts)
        z = [abs(pt["mean"] - pt["analytic"]) / pt["stderr"] if pt["stderr"] > 0
             else math.inf for pt in pts]
        return [
            ("mc_trials_per_s", trials / mc_s, "1/s", f"{trials} trials per pass"),
            ("mc_time_to_se_s", to_se, "s", f"{len(pts)} points to {TARGET_SE} SE"),
            ("mc_max_abs_z", max(z), "1", f"{len(pts)} points"),
            ("mc_points_over_3se", points_over_3se(outputs), "count", ""),
        ]


class SolvePaper:
    """The criterion-7 sweeps, each instance solved from the MPCP warm start
    and from the EPCP cold start."""

    name = "solve-paper"
    reference = CALLS
    starts = ("warm", "cold")

    def setup(self, seed):
        base = config.default_config(**{"sim.master_seed": seed})
        cfgs = {"warm": base.with_values(**{"optimizer.initial_policy": "mpcp"}),
                "cold": base.with_values(**{"optimizer.initial_policy": "epcp"})}
        instances = [(var, float(value)) for var, lo, hi in SWEEPS
                     for value in np.linspace(lo, hi, SWEEP_STEPS)]
        # warm-up: the first instance from each start
        var, value = instances[0]
        for cfg in cfgs.values():
            experiments.run_optimize_and_compare(cfg, config.SweepSpec(var, value, value, 1))
        return {"cfgs": cfgs, "instances": instances}

    def run_pass(self, inputs, op=no_op):
        rows = []
        start = time.perf_counter()
        clock = Clock(self.reference, op)
        for kind in self.starts:
            cfg = inputs["cfgs"][kind]
            for var, value in inputs["instances"]:
                label = f"{kind}:{var}={value:g}"
                (row,) = clock(label, experiments.run_optimize_and_compare,
                               cfg, config.SweepSpec(var, value, value, 1))
                rows.append({"label": label, "start": kind, **_delays(row)})
        wall = time.perf_counter() - start
        return clock.result(wall, {"instances": rows})

    def check(self, inputs, outputs):
        checks = []
        for row in outputs["instances"]:
            opt, mp = row["delay_optimized"], row["delay_mpcp"]
            blind = max(row["delay_epcp"], row["delay_icp"])
            if row["start"] == "warm":
                ok = opt <= mp <= blind
                detail = f"optimized {opt:.6f} <= mpcp {mp:.6f} <= {blind:.6f}"
            else:
                ok = opt <= row["delay_epcp"]
                detail = f"optimized {opt:.6f} <= epcp {row['delay_epcp']:.6f}"
            checks.append(Check(row["label"], ok and math.isfinite(opt), detail))
        return checks

    def verify(self, inputs, outputs):
        """Re-run each solve directly to check the solution itself: in the
        box, budgets used to 1e-9, and the same best delay the compare
        row reported."""
        out = Verified(figures={kind: {"iterations": 0, "converged": 0, "best": []}
                                for kind in self.starts})
        rows = iter(outputs["instances"])
        for kind in self.starts:
            for var, value in inputs["instances"]:
                row = next(rows)
                point = inputs["cfgs"][kind].with_values(**{var: value})
                lib, budgets = point.library, point.budgets
                result = optimizer.optimize(lib, point.geometry, point.radio, budgets,
                                            point.optimizer)
                out.checks += _budget_checks(row["label"], result.best_policy, lib, budgets)
                out.checks.append(Check(f"{row['label']} reproduces",
                                        result.best_delay == row["delay_optimized"]))
                figures = out.figures[kind]
                figures["iterations"] += result.iterations_run
                figures["converged"] += int(result.converged)
                figures["best"].append(result.best_delay)
        return out

    def tail_samples(self, op_s):
        return "solve_instance_tail_s", [t for times in op_s.values() for t in times]

    def quality(self, outputs, verified):
        """Mean optimized delay over the MPCP delay, warm and cold solves."""
        return float(np.mean([r["delay_optimized"] / r["delay_mpcp"]
                              for r in outputs["instances"]]))

    def report(self, outputs, verified, op_med):
        lines = []
        for kind in self.starts:
            figures = verified.figures[kind]
            ops = [label for label in op_med if label.startswith(kind + ":")]
            lines += [
                (f"solve_{kind}_s", sum(op_med[label] for label in ops), "s",
                 f"{len(ops)} instances, scaled median of each"),
                (f"solve_{kind}_iterations", figures["iterations"], "count",
                 f"{len(ops)} solves"),
                (f"solve_{kind}_converged", figures["converged"], "count",
                 f"of {len(ops)} solves"),
            ]
        warm = [r["delay_optimized"] / r["delay_mpcp"] for r in outputs["instances"]
                if r["start"] == "warm"]
        excess = np.array(verified.figures["cold"]["best"]) / verified.figures["warm"]["best"]
        lines += [("opt_delay_ratio", float(np.mean(warm)), "ratio",
                   "warm-start optimized / MPCP, mean"),
                  ("opt_cold_excess", float(np.mean(excess)) - 1.0, "ratio",
                   "cold best / warm best - 1, mean")]
        return lines


class OracleGrid:
    name = "oracle-grid"
    reference = ARRAYS

    def setup(self, seed):
        base = config.default_config(**{"content.file_count": 2,
                                        "sim.master_seed": seed})
        half = content.total_catalog_bits(base.library) / 2
        cfg = base.with_values(**{"budgets.d2d_bits": half, "budgets.sbs_bits": half})
        sweep = config.SweepSpec("budgets.d2d_bits", half, half, 1)
        # warm-up: the optimizer and baselines on the instance
        experiments.run_optimize_and_compare(cfg, sweep)
        return {"cfg": cfg, "sweep": sweep}

    def run_pass(self, inputs, op=no_op):
        cfg = inputs["cfg"]
        start = time.perf_counter()
        clock = Clock(self.reference, op)
        policy, value = clock("grid_oracle", optimizer.grid_oracle, cfg.library,
                              cfg.geometry, cfg.radio, cfg.budgets, ORACLE_STEP)
        (row,) = clock("compare", experiments.run_optimize_and_compare,
                       cfg, inputs["sweep"])
        wall = time.perf_counter() - start
        return clock.result(wall, {
            "oracle": value, "oracle_p_d": policy.p_d.ravel().tolist(),
            "oracle_p_s": policy.p_s.ravel().tolist(),
            "compare": _delays(row)})

    def check(self, inputs, outputs):
        cfg = inputs["cfg"]
        value, row = outputs["oracle"], outputs["compare"]
        shape = cfg.library.shape
        oracle_policy = policies.CachingPolicy(
            p_d=np.reshape(outputs["oracle_p_d"], shape),
            p_s=np.reshape(outputs["oracle_p_s"], shape))
        opt = row["delay_optimized"]
        return [
            Check("oracle value", abs(value - ORACLE_VALUE) <= ORACLE_RTOL * ORACLE_VALUE,
                  f"{value!r} vs {ORACLE_VALUE}"),
            *_budget_checks("oracle policy", oracle_policy, cfg.library, cfg.budgets),
            Check("optimizer within 1% of oracle", opt <= (1 + ORACLE_GAP) * value,
                  f"{opt!r} vs {value!r}"),
            Check("optimized <= mpcp", opt <= row["delay_mpcp"]),
        ]

    def verify(self, inputs, outputs):
        cfg = inputs["cfg"]
        result = optimizer.optimize(cfg.library, cfg.geometry, cfg.radio,
                                    cfg.budgets, cfg.optimizer)
        checks = _budget_checks("optimized policy", result.best_policy,
                                cfg.library, cfg.budgets)
        checks.append(Check("optimizer reproduces",
                            result.best_delay == outputs["compare"]["delay_optimized"]))
        return Verified(checks)

    def tail_samples(self, op_s):
        return "oracle_tail_s", list(op_s["grid_oracle"])

    def quality(self, outputs, verified):
        """Optimizer best delay over the grid-oracle minimum."""
        return outputs["compare"]["delay_optimized"] / outputs["oracle"]

    def report(self, outputs, verified, op_med):
        return [
            ("oracle_s", op_med["grid_oracle"], "s", "scaled median"),
            ("oracle_value", outputs["oracle"], "s", ""),
            ("opt_oracle_gap", self.quality(outputs, verified) - 1.0, "ratio",
             "optimizer best / oracle - 1"),
        ]


WORKLOADS = {w.name: w for w in (McValidate(), SolvePaper(), OracleGrid())}
