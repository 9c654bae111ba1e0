"""The benchmark under perfbench/ is outside this suite's testpaths, yet it
imports package names, wraps module globals of ``logicpool.harness.run`` by
name and calls the solver kernels directly. These tests fail when one of
those names goes away, when a kernel call stops fitting its signature, or
when a run stops calling a wrapped name, so that the benchmark's layer
would read 0.

    python -m pytest -q tests/test_benchmark_names.py
"""

import importlib
import random
import shutil
import sys
from pathlib import Path

import pytest

from logicpool.harness.config import BackendConfig, ExperimentConfig, GenerateSpec
from logicpool.harness.run import build_corpus, run
from logicpool.inference import JournalingClient, MockBackend

from conftest import ClosedWorld

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def phase():
    """perfbench's phase module; the benchmark's modules are dropped again
    afterwards."""
    saved_path = list(sys.path)
    saved_modules = set(sys.modules)
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("phase")  # imports every package name the benchmark uses
    finally:
        sys.path[:] = saved_path
        for name in set(sys.modules) - saved_modules:
            if str(getattr(sys.modules[name], "__file__", "")).startswith(str(BENCH)):
                del sys.modules[name]  # phase, spans, checks, synthetic, workloads


def test_benchmark_imports_and_wraps_the_names_it_uses(phase):
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


class _GeneratedWorld(ClosedWorld):
    """The closed world's scripted answers, over the puzzles a generate spec
    makes instead of the fixed corpus."""

    def __init__(self, puzzles):
        self.puzzles = dict(zip(("kkA", "kkB", "zebraA", "zebraB"), puzzles, strict=True))


def test_a_run_calls_every_name_the_benchmark_wraps(phase, tmp_path):
    """A cold run from a generate spec, a rerun and a replay into a fresh
    directory, traced the way the benchmark traces them, between them record
    a span for every name wrapped on ``logicpool.harness.run`` and
    ``JournalingClient``; each of them writes its reports through the
    wrapped ``write_reports``."""
    harness_run = importlib.import_module("logicpool.harness.run")
    spec = GenerateSpec(kk_sizes=(3, 4), kk_per_size=1, zebra_configs=((2, 2, 1), (3, 4, 1)), seed=5)
    paths = _GeneratedWorld(build_corpus(ExperimentConfig(run_dir=".", generate=spec))).write(tmp_path)

    def config(run_name, replay=False):
        backend = BackendConfig(kind="mock", script_path=paths["script"])
        return ExperimentConfig(run_dir=str(tmp_path / run_name), generate=spec, backend=backend, replay=replay)

    tracer = phase.spans.Tracer()
    wrapped = []
    wrap = tracer.wrap

    def recording_wrap(owner, attr, name, **kwargs):
        wrapped.append((owner, name))
        wrap(owner, attr, name, **kwargs)

    tracer.wrap = recording_wrap
    seen = {}
    try:
        phase.spans.install(tracer, MockBackend)
        for step, step_config in (("cold", config("run")), ("rerun", config("run")), ("replay", config("replay", True))):
            if step == "replay":
                (tmp_path / "replay").mkdir()
                shutil.copyfile(tmp_path / "run" / "journal.jsonl", tmp_path / "replay" / "journal.jsonl")
            tracer.spans.clear()
            with tracer.root(step):
                result = run(step_config)
            assert result.exit_code == 0, step
            seen[step] = {span.name for span in tracer.spans}
    finally:
        tracer.uninstall()

    expected = {name for owner, name in wrapped if owner in (harness_run, JournalingClient)}
    assert "harness.write_reports" in expected and len(expected) >= 18
    assert expected - set().union(*seen.values()) == set()
    for step, names in seen.items():
        assert "harness.write_reports" in names, step
    assert seen["cold"] >= {"puzzles.generate_kk", "puzzles.generate_zebra", "inference.completion_probability"}
    assert "harness.load_records" in seen["rerun"] and "inference.journal_load" in seen["replay"]
