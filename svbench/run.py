"""Run one benchmark workload and print its metrics.

    python3 svbench/run.py --workload solve-paper --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run times repeated passes over the workload's
inputs until ``--seconds`` is spent and reports the end-to-end metrics.
With ``--trace 1`` it runs one untraced and one traced pass, reports the
per-layer metrics and the tracing overhead, and writes the spans to
``.bench_out/``.  Either way the outputs are checked, and the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it name every
metric with its unit.  Times are scaled by the reference work timed next
to each operation (``workloads.Reference``); wall times are printed
beside them.

The library is imported from ``src/`` next to this directory; nothing
is installed.  ``--setup-only`` is the fresh-process set-up that
``setup_s`` times.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
MIN_TAIL_SAMPLES = 20
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "quality_ratio": "ratio"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print 'ready' and exit")
    return parser.parse_args(argv)


def _limit_threads():
    # one BLAS thread: steadier timings on a small shared machine
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _import_bench():
    """Import the library from src/ and the benchmark modules; None when
    the library is not there."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import svcache
    except ImportError as exc:
        print(f"cannot import svcache from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return None
    if Path(svcache.__file__).resolve().parent != ROOT / "src" / "svcache":
        print(f"svcache imported from {svcache.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return None
    import tracer
    import workloads
    return tracer, workloads


def time_setups(wl, seed, repeats=SETUP_REPEATS):
    """Time from starting a fresh interpreter to its inputs being ready
    (imports, config, instance generation, warm-up), per repeat: the wall
    time, and that time scaled by the reference work timed just before
    and after the child."""
    wall, scaled = [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", wl.name, "--seed", str(seed)]
    ref = wl.reference
    ref_before = ref.time_s()
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline()
                wall.append(time.perf_counter() - start)
                child.wait(timeout=SETUP_TIMEOUT_S)
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up child failed (exit {child.returncode})")
        ref_after = ref.time_s()
        scaled.append(wall[-1] * ref.nominal_s / (0.5 * (ref_before + ref_after)))
        ref_before = ref_after
    return wall, scaled


def tail(samples):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, nearest rank; None below MIN_TAIL_SAMPLES."""
    n = len(samples)
    if n < MIN_TAIL_SAMPLES:
        return None
    q = math.floor(100 * (1 - 10 / n))
    rank = math.ceil(q / 100 * n)
    return q, sorted(samples)[rank - 1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_timed(wl, inputs, seconds):
    """Passes until the next one would end past ``seconds``; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(wl.run_pass(inputs))
        if time.perf_counter() - start + passes[-1].wall_s > seconds:
            return passes


def _print_metric(name, value, unit, note=""):
    print(f"metric {name} = {value!r} {unit}" + (f"  ({note})" if note else ""))


def _finish(checks, metrics):
    failed = [c for c in checks if not c.ok]
    for c in failed:
        print(f"FAILED {c.label}: {c.detail}")
    _print_metric("error_rate", len(failed) / len(checks), "ratio",
                  f"{len(failed)} failed of {len(checks)} checks")
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))


def main(argv=None) -> int:
    args = parse_args(argv)
    _limit_threads()
    modules = _import_bench()
    if modules is None:
        return 2
    tracer_mod, workloads = modules
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.setup_only:
        wl.setup(args.seed)
        print("ready", flush=True)
        return 0

    setups = None if args.trace else time_setups(wl, args.seed)
    inputs = wl.setup(args.seed)
    tracer = tracer_mod.Tracer()
    checks = [workloads.Check("library functions are the originals", tracer.untouched())]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")

    if args.trace:
        untraced = wl.run_pass(inputs)
        with tracer.traced():
            traced = wl.run_pass(inputs, op=tracer.op)
        checks.append(workloads.Check("originals restored after tracing",
                                      tracer.untouched()))
        passes = [untraced, traced]
    else:
        passes = run_timed(wl, inputs, args.seconds)
    first = workloads.digest(passes[0].outputs)
    checks += [workloads.Check(f"pass {i} reproduces pass 0",
                               workloads.digest(p.outputs) == first)
               for i, p in enumerate(passes[1:], start=1)]
    outputs = passes[0].outputs
    checks += wl.check(inputs, outputs)
    verified = wl.verify(inputs, outputs)
    checks += verified.checks
    print(f"digest {first} passes {len(passes)}")

    if args.trace:
        metrics = _layer_report(tracer_mod, tracer, passes, outputs,
                                f"spans-{args.workload}-seed{args.seed}.jsonl",
                                workloads.points_over_3se(outputs))
    else:
        metrics = _end_to_end_report(wl, passes, setups, outputs, verified)
    _finish(checks, metrics)
    return 0


def _layer_report(tracer_mod, tracer, passes, outputs, spans_name, over_3se):
    untraced, traced = passes
    _print_metric("trace_overhead_s", traced.wall_s - untraced.wall_s, "s",
                  f"traced pass {traced.wall_s:.3f} s, untraced "
                  f"{untraced.wall_s:.3f} s, {len(tracer.spans)} spans")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / spans_name)
    print(f"spans written to .bench_out/{spans_name}")
    values = tracer_mod.layer_metrics(tracer.spans, over_3se)
    metrics = {}
    for name, unit, *_ in tracer_mod.LAYER_METRICS:
        _print_metric(name, values[name], unit)
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics


def _end_to_end_report(wl, passes, setups, outputs, verified):
    # On a shared host the speed the process gets moves by tens of percent
    # from second to second.  Each operation's time is scaled by the
    # reference work timed next to it (wl.reference), and the
    # median over the run's passes is taken per operation.
    scaled = [p.scaled_s() for p in passes]
    op_s = {label: [s[label] for s in scaled] for label in scaled[0]}
    op_med = {label: statistics.median(times) for label, times in op_s.items()}
    wall_med = sum(statistics.median(p.op_s[label] for p in passes) for label in op_med)
    setup_wall, setup_scaled = setups
    metrics = {
        "setup_s": (statistics.median(setup_scaled),
                    f"median of {len(setup_scaled)} fresh-process set-ups, scaled; "
                    f"wall median {statistics.median(setup_wall):.3f} s"),
        "run_s": (sum(op_med.values()),
                  f"{len(op_med)} operations, scaled, median of {len(passes)} passes "
                  f"each; wall {wall_med:.3f} s"),
        "peak_rss_mb": (peak_rss_mb(), "this process"),
        "quality_ratio": (wl.quality(outputs, verified), wl.quality.__doc__),
    }
    for name, (value, note) in metrics.items():
        _print_metric(name, value, END_TO_END[name], " ".join(note.split()))
    for name, value, unit, note in wl.report(outputs, verified, op_med):
        _print_metric(name, value, unit, note)
    tail_name, samples = wl.tail_samples(op_s)
    found = tail(samples)
    if found is None:
        print(f"metric {tail_name} = n/a  ({len(samples)} samples; a tail needs "
              f"{MIN_TAIL_SAMPLES})")
    else:
        _print_metric(tail_name, found[1], "s", f"p{found[0]} of {len(samples)} samples")
    return {name: {"value": value, "unit": END_TO_END[name]}
            for name, (value, _) in metrics.items()}


if __name__ == "__main__":
    sys.exit(main())
