"""The benchmark under perfbench/ is outside this suite's testpaths, yet it
imports package names, wraps module globals of ``logicpool.harness.run`` by
name and calls the solver kernels directly. This test fails when one of
those names goes away or a kernel call stops fitting its signature.

    python -m pytest -q tests/test_benchmark_names.py
"""

import importlib
import random
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

        # the calls phase.kernel_loads makes, on tiny inputs
        statements = [phase.sample_statement(random.Random(0), 3) for _ in range(3)]
        code, bounds = phase.compile_statements(statements, 3)
        assert len(phase._kernels.kk_consistent_masks(code, bounds, 3)) <= 8
        grid = phase.ZebraGrid(((0, 1, 2), (2, 0, 1)))
        _, pos = phase._position_table(3)
        encoded = phase._encode_clues(phase._all_true_clues(grid, 3, 2))
        rows = phase._kernels.zebra_solutions(pos, phase.np.delete(encoded, 0, axis=0), 2, 2)
        assert rows.tolist() == [[0, 4]]  # the full clue set less one still pins the grid
    finally:
        sys.path[:] = saved_path
        for name in set(sys.modules) - saved_modules:
            if str(getattr(sys.modules[name], "__file__", "")).startswith(str(BENCH)):
                del sys.modules[name]  # phase, spans, checks, synthetic, workloads
