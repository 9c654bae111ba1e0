"""The benchmark under perfbench/ is outside this suite's testpaths, yet it
imports package names and wraps module globals of ``logicpool.harness.run``
by name. This test fails when one of those names goes away.

    python -m pytest -q tests/test_benchmark_names.py
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_imports_and_wraps_the_names_it_uses():
    saved_path = list(sys.path)
    saved_modules = set(sys.modules)
    sys.path.insert(0, str(BENCH))
    try:
        phase = importlib.import_module("phase")  # imports every package name the benchmark uses
        harness_run = importlib.import_module("logicpool.harness.run")
        tracer = phase.spans.Tracer()
        try:
            phase.spans.install(tracer, phase.SyntheticBackend)
            assert hasattr(harness_run.score_response, "__wrapped__")
        finally:
            tracer.uninstall()
        assert not hasattr(harness_run.score_response, "__wrapped__")
    finally:
        sys.path[:] = saved_path
        for name in set(sys.modules) - saved_modules:
            if str(getattr(sys.modules[name], "__file__", "")).startswith(str(BENCH)):
                del sys.modules[name]  # phase, spans, checks, synthetic, workloads
