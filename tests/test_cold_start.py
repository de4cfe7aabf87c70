"""The package surface and both sides of the lazy imports.

The package re-exports each of its seven modules' ``__all__`` and loads
numpy alone, without ``experiments`` or ``cli``; ``scipy.special`` is
imported by the first non-quartic ``g_integral`` call, and Monte-Carlo
estimates of any number of blocks run on the calling thread without
``concurrent.futures``.  Other tests load these modules into this
suite's own process, so each import check runs in a subprocess.
"""

import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import svcache
from svcache import (TierGeometry, config, content, delay, g_integral, geometry, mcsim,
                     optimizer, policies, stp_cache_tier)

SURFACE = (config, content, delay, geometry, mcsim, optimizer, policies)

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(script, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_package_reexports_each_module_all():
    # disjoint, or a later wildcard import would shadow a name silently
    for a, b in itertools.combinations(SURFACE, 2):
        assert not set(a.__all__) & set(b.__all__), (a.__name__, b.__name__)
    assert svcache.__all__ == sorted(name for module in SURFACE for name in module.__all__)
    for module in SURFACE:
        for name in module.__all__:
            assert getattr(svcache, name) is getattr(module, name), name


def test_quartic_cli_runs_load_no_scipy(tmp_path):
    lines = _run("""
        import sys, time
        start = time.perf_counter()
        import svcache
        import_s = time.perf_counter() - start
        assert "svcache.experiments" not in sys.modules
        assert "svcache.cli" not in sys.modules
        from svcache import cli
        assert cli.main(["optimize", "--out", "optimize.csv"]) == 0
        assert cli.main(["baselines", "--out", "baselines.csv"]) == 0
        loaded = sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))
        print(f"import svcache: {import_s:.3f} s")
        print(loaded)
    """, tmp_path)
    print(lines[0])  # visible with -s; timing only, never asserted
    assert lines[1] == "[]"
    assert (tmp_path / "optimize.csv").exists()
    assert (tmp_path / "baselines.csv").exists()


def test_non_quartic_path_loads_scipy_on_demand(tmp_path):
    lines = _run("""
        import sys
        from svcache import TierGeometry, g_integral, stp_cache_tier
        print("scipy.special" in sys.modules)
        print(float(g_integral(3.5, 2.0)).hex())
        print(float(stp_cache_tier(0.5, TierGeometry(0.01, 20.0, 3.5), 3.0)).hex())
        print("scipy.special" in sys.modules, "scipy.integrate" in sys.modules)
    """, tmp_path)
    assert lines == [
        "False",
        float(g_integral(3.5, 2.0)).hex(),
        float(stp_cache_tier(0.5, TierGeometry(0.01, 20.0, 3.5), 3.0)).hex(),
        "True False",
    ]


def test_multi_block_estimates_start_no_thread_pool(tmp_path):
    lines = _run("""
        import sys
        from svcache import SimConfig, default_config, mc_stp_cache_tier, mcsim
        cfg = default_config()
        args = (0.5, cfg.geometry.d2d, cfg.radio.sir_threshold)
        mc_stp_cache_tier(*args, SimConfig(trials=4 * mcsim._BLOCK + 1))
        print("concurrent.futures" in sys.modules)
    """, tmp_path)
    assert lines == ["False"]
