"""Command-line entry point for the experiment runners.

Subcommands::

    svcache validate       analytic vs Monte-Carlo success probabilities
                           and end-to-end delays
    svcache delay-surface  delay over a uniform (p_d, p_s) policy grid
    svcache optimize       optimizer vs baselines along a sweep
    svcache convergence    optimizer trajectories for several thresholds
    svcache baselines      baseline policy delays + matrix files

Common flags: --config PATH, --seed N, --trials N, --out PATH and
--sweep VAR=start:stop:steps where applicable.  Exit codes: 0 success,
2 configuration error, 3 validation-gate failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import experiments
from .config import ConfigError, SweepSpec, load_config, parse_sweep_flag
from .policies import save_policy

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GATE = 3


def _add_common(parser, sweep=False):
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="config file (committed defaults when omitted)")
    parser.add_argument("--seed", metavar="N", type=int, default=None,
                        help="override sim.master_seed")
    parser.add_argument("--trials", metavar="N", type=int, default=None,
                        help="override sim.trials")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="output CSV path (else output.path, else stdout)")
    if sweep:
        parser.add_argument("--sweep", metavar="VAR=start:stop:steps",
                            default=None, help="sweep specification")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svcache",
        description="Cache-aware service-delay experiments for layered video "
                    "delivery over a three-tier wireless network.")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser(
        "validate", help="analytic vs Monte-Carlo success probabilities "
                         "and end-to-end delays"))
    surface = sub.add_parser(
        "delay-surface", help="delay over a uniform policy grid")
    _add_common(surface)
    surface.add_argument("--grid-points", type=int, default=21)
    _add_common(sub.add_parser(
        "optimize", help="optimized vs baseline delays along a sweep"),
        sweep=True)
    conv = sub.add_parser("convergence", help="optimizer trajectories")
    _add_common(conv)
    conv.add_argument("--theta-db", type=float, nargs="+",
                      default=[3.0, 5.0, 7.0])
    base = sub.add_parser("baselines", help="baseline policies and delays")
    _add_common(base)
    base.add_argument("--policy-dir", metavar="DIR", default=None,
                      help="also write each baseline's matrices there")
    return parser


def _load(args):
    overrides = {}
    if args.seed is not None:
        overrides["sim.master_seed"] = args.seed
    if args.trials is not None:
        overrides["sim.trials"] = args.trials
    return load_config(args.config, overrides)


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        out = args.out if args.out is not None else cfg.output_path

        if args.command == "validate":
            rows, ok = experiments.run_probability_validation(cfg)
            _emit(experiments.render_csv(experiments.VALIDATE_FIELDS, rows, cfg), out)
            if not ok:
                print("validation gate FAILED: an analytic value misses its "
                      "Monte-Carlo estimate by more than 3 standard errors",
                      file=sys.stderr)
                for row, z in experiments.gate_failures(rows):
                    value = experiments._fmt(row["value"])
                    print(f"  {row['sweep_var']} = {value}: z = {z:+.2f}",
                          file=sys.stderr)
                print(f"sim.window_multiplier = {cfg.sim.window_multiplier!r} sets the "
                      "Monte-Carlo window (inf removes the field's truncation)", file=sys.stderr)
                return EXIT_GATE
            return EXIT_OK

        if args.command == "delay-surface":
            if args.grid_points < 1:
                raise ConfigError(f"--grid-points must be >= 1, got {args.grid_points}")
            rows = experiments.run_delay_surface(cfg, args.grid_points)
            _emit(experiments.render_csv(experiments.SURFACE_FIELDS, rows, cfg), out)
            return EXIT_OK

        if args.command == "optimize":
            if args.sweep is not None:
                sweep = parse_sweep_flag(args.sweep)
            elif cfg.sweep is not None:
                sweep = cfg.sweep
            else:
                sweep = SweepSpec("radio.sir_threshold_db", 3.0, 7.0, 5)
            rows = experiments.run_optimize_and_compare(cfg, sweep)
            _emit(experiments.render_csv(experiments.COMPARE_FIELDS, rows, cfg), out)
            return EXIT_OK

        if args.command == "convergence":
            rows = experiments.run_convergence(cfg, tuple(args.theta_db))
            _emit(experiments.render_csv(experiments.CONVERGENCE_FIELDS, rows, cfg),
                  out)
            return EXIT_OK

        if args.command == "baselines":
            rows, policies = experiments.run_baselines(cfg)
            _emit(experiments.render_csv(experiments.BASELINE_FIELDS, rows, cfg), out)
            if args.policy_dir is not None:
                directory = Path(args.policy_dir)
                directory.mkdir(parents=True, exist_ok=True)
                for name, policy in policies.items():
                    save_policy(directory / f"{name}.policy", policy)
            return EXIT_OK

        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
