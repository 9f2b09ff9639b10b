"""The benchmark's trace points still name functions the library has.

`bench/run.py --trace 1` wraps every `Site` that `run.sites()` lists; a
site whose module attribute or solver entry is gone would break tracing
only when the benchmark runs, so this checks them with the ordinary tests.
"""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _load_bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_trace_site_resolves():
    run = _load_bench_run()
    sites = run.sites()
    assert sites
    for site in sites:
        assert callable(site.get()), f"{site.span}: {site.key} does not resolve"
