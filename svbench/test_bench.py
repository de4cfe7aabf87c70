"""Checks on the benchmark itself.

    python3 -m pytest -q svbench/test_bench.py

The tests run real passes of every workload (about a minute in all).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def _with_wrapper_calls(fn, code):
    """Run ``fn`` and count the calls that enter the tracer's wrapper."""
    hits = 0

    def hook(frame, event, arg):
        nonlocal hits
        if event == "call" and frame.f_code is code:
            hits += 1

    sys.setprofile(hook)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, hits


@pytest.fixture(scope="module")
def passes():
    """Per workload: an untraced pass, then a traced pass, each with the
    number of calls that went through a tracing wrapper."""
    out = {}
    for name, wl in workloads.WORKLOADS.items():
        inputs = wl.setup(SEED)
        tr = tracer.Tracer()
        code = next(iter(tr._wrappers.values())).__code__
        untraced, untraced_hits = _with_wrapper_calls(lambda: wl.run_pass(inputs), code)
        with tr.traced():
            traced, traced_hits = _with_wrapper_calls(
                lambda: wl.run_pass(inputs, op=tr.op), code)
        out[name] = {"inputs": inputs, "untraced": untraced, "traced": traced,
                     "tracer": tr, "untraced_hits": untraced_hits,
                     "traced_hits": traced_hits, "restored": tr.untouched()}
    return out


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in tracer.LAYER_METRICS]


def test_every_layer_metric_records_calls_on_its_workloads(passes):
    for metric, _, _, target, mapped, _ in tracer.LAYER_METRICS:
        for name in mapped:
            stats = tracer.layer_stats(passes[name]["tracer"].spans)
            assert target in stats and stats[target].calls >= 1, (metric, name)


def test_untraced_pass_sees_the_original_functions(passes):
    for name, run_ in passes.items():
        assert run_["untraced_hits"] == 0, name
        layer_spans = [s for s in run_["tracer"].spans if s[0] != tracer.OP_SPAN]
        assert run_["traced_hits"] == len(layer_spans) > 0, name
        assert run_["restored"], name
        bindings = tracer.find_bindings()
        assert len(bindings) >= len(tracer.TARGETS)
        assert all(getattr(module, attr) is original
                   for module, attr, original, _ in bindings)


def test_hit_term_is_wrapped_in_every_namespace_that_binds_it():
    namespaces = {module.__name__ for module, attr, _, target in tracer.find_bindings()
                  if target.name == "geometry.hit_term"}
    assert {"svcache.geometry", "svcache.delay", "svcache.optimizer"} <= namespaces


def test_tracing_does_not_change_outputs_and_outputs_pass_checks(passes):
    for name, run_ in passes.items():
        wl = workloads.WORKLOADS[name]
        assert (workloads.digest(run_["traced"].outputs)
                == workloads.digest(run_["untraced"].outputs)), name
        checks = wl.check(run_["inputs"], run_["untraced"].outputs)
        assert checks and all(c.ok for c in checks), [c for c in checks if not c.ok]


def test_layer_stats_subtract_direct_children():
    spans = [["a", 0.0, 10.0, -1, "op", None],
             ["b", 1.0, 4.0, 0, "op", None],
             ["c", 2.0, 3.0, 1, "op", None],
             ["b", 5.0, 6.0, 0, "op", None]]
    stats = tracer.layer_stats(spans)
    assert stats["a"].self_s == pytest.approx(6.0)
    assert stats["b"].calls == 2 and stats["b"].self_s == pytest.approx(3.0)
    assert stats["b"].total_s == pytest.approx(4.0)
    assert stats["c"].self_s == pytest.approx(1.0)


def test_tail_keeps_ten_samples_beyond_it():
    assert run.tail(list(range(19))) is None
    q, value = run.tail([float(i) for i in range(100)])
    assert q == 90 and sum(s > value for s in range(100)) == 10


def _run_bench(seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "oracle-grid",
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return digest, json.loads(lines[-1])


def test_digest_repeats_per_seed_across_processes():
    first, result = _run_bench(SEED)
    again, _ = _run_bench(SEED)
    other, other_result = _run_bench(SEED + 1)
    assert first == again
    assert other != first  # the seed drives the ICP baseline
    for res in (result, other_result):
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
        assert set(res["metrics"]) == set(run.END_TO_END)


def test_clock_scales_each_operation_by_the_reference_around_it():
    for ref in (workloads.CALLS, workloads.ARRAYS):
        clock = workloads.Clock(ref)
        assert clock("double", lambda x: 2 * x, 21) == 42
        clock("noop", lambda: None)
        result = clock.result(1.0, {})
        assert list(result.op_s) == list(result.scale) == ["double", "noop"]
        assert result.scaled_s() == pytest.approx(
            {label: t * result.scale[label] for label, t in result.op_s.items()})
        # the scale is the nominal over the reference time, within a factor
        # the host can plausibly move it by
        assert all(0.05 < f < 5.0 for f in result.scale.values())
