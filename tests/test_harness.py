import dataclasses
import fcntl
import functools
import hashlib
import importlib
import inspect
import json
import math
import os
import re
import shutil
import threading
import time
import types
import weakref
from dataclasses import dataclass, field
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from logicpool import inference
from logicpool.cli import main as cli_main
from logicpool.errors import BackendError, ConfigError
from logicpool.inference import MockBackend, OpenAIClient, SamplingParams
from logicpool.harness.config import (
    BackendConfig,
    ExperimentConfig,
    GenerateSpec,
    config_from_file,
    config_from_obj,
    desk_generate_spec,
)
from logicpool.harness.records import EvalRecord, SelectionRow, load_records, read_jsonl
from logicpool.harness.report import stratify
from logicpool.harness.run import _CallPlacer, build_corpus, run
from logicpool.harness.sweep import sweep
from logicpool.prompts import Strategy
from logicpool.puzzles import puzzle_to_obj, read_puzzles
from logicpool.selection import CRITERIA, CanonicalAnswer
from logicpool.verifier import chunk

from conftest import STRATEGY_SENTINELS, ClosedWorld


# every test here must close the files and descriptors it opens
pytestmark = pytest.mark.usefixtures("no_fd_leaks")


def mock_config(tmp_path, world_paths, run_name="run", **overrides):
    defaults = dict(
        run_dir=str(tmp_path / run_name),
        corpus_path=world_paths["corpus"],
        backend=BackendConfig(kind="mock", script_path=world_paths["script"]),
        concurrency=3,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    world = ClosedWorld()
    paths = world.write(tmp_path_factory.mktemp("world"))
    return world, paths


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_requires_exactly_one_corpus_source(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentConfig(run_dir=str(tmp_path))
    with pytest.raises(ConfigError):
        ExperimentConfig(
            run_dir=str(tmp_path), corpus_path="x.jsonl", generate=GenerateSpec(kk_sizes=(3,), kk_per_size=1)
        )


@pytest.mark.parametrize("generate", [{}, {"kk_per_size": 5}, {"seed": 3}, {"kk_sizes": [], "zebra_configs": []}])
def test_a_generate_spec_that_generates_nothing_is_refused(tmp_path, generate):
    obj = {"run_dir": "rd", "corpus": {"generate": generate}, "backend": {"kind": "mock", "script": "mock.json"}}
    with pytest.raises(ConfigError, match=r"^config corpus\.generate: generates no puzzles"):
        config_from_obj(obj, base_dir=str(tmp_path))
    with pytest.raises(ConfigError, match=r"^config corpus\.generate: generates no puzzles"):
        ExperimentConfig(run_dir=str(tmp_path), generate=GenerateSpec(**generate))


def test_an_empty_corpus_file_is_refused_before_the_run_starts(tmp_path, world):
    _, paths = world
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    config = mock_config(tmp_path, {**paths, "corpus": str(empty)})
    with pytest.raises(ConfigError, match="holds no puzzles"):
        run(config)
    assert not os.path.exists(config.run_dir)
    # an existing run directory is left as it was: no lock file, no outputs
    os.makedirs(config.run_dir)
    with pytest.raises(ConfigError, match="holds no puzzles"):
        run(config)
    assert os.listdir(config.run_dir) == []


def test_config_rejects_unknown_criterion(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentConfig(run_dir=str(tmp_path), corpus_path="x.jsonl", criteria=("coin_flip",))


def test_config_rejects_bad_lambdas_and_duplicates(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentConfig(run_dir=str(tmp_path), corpus_path="x.jsonl", lambda_p=1.2)
    with pytest.raises(ConfigError):
        ExperimentConfig(
            run_dir=str(tmp_path),
            corpus_path="x.jsonl",
            strategies=("no_strategy", "no_strategy"),
        )


def test_config_from_obj_with_presets(tmp_path):
    obj = {
        "run_dir": "rd",
        "corpus": {"generate": {"preset": "desk", "seed": 3}},
        "strategies": "strategies_only",
        "backend": {"kind": "mock", "script": "mock.json"},
    }
    config = config_from_obj(obj, base_dir=str(tmp_path))
    assert config.run_dir == str(tmp_path / "rd")
    assert config.generate.kk_per_size == 40
    assert config.generate.kk_sizes == (3, 4, 5, 6)
    assert len(config.generate.zebra_configs) == 9
    assert config.strategies == (
        "supposition_following",
        "chain_construction",
        "compound_strategy",
        "concatenation_strategy",
    )
    assert config.backend.script_path == str(tmp_path / "mock.json")


@pytest.mark.parametrize(
    "change",
    [
        {"sampling": {"temprature": 0.0}},
        {"lamda_p": 0.9},
        {"entropy_tail": False},
        {"corpus": {"path": "c.jsonl", "pth": "d.jsonl"}},
        {"corpus": {"generate": {"preset": "desk", "sed": 1}}},
        {"corpus": {"generate": {"kk_sizes": [3], "kk_per_size": 1, "zebra_config": []}}},
        {"backend": {"kind": "mock", "scrpt": "mock.json"}},
        {"verifier_backend": {"kind": "mock", "script": "mock.json", "modle": "m"}},
        {"sampling": [0.6]},
    ],
)
def test_config_rejects_keys_it_does_not_read(tmp_path, change):
    obj = {"run_dir": "rd", "corpus": {"path": "c.jsonl"}, "backend": {"kind": "mock", "script": "mock.json"}}
    with pytest.raises(ConfigError):
        config_from_obj({**obj, **change}, base_dir=str(tmp_path))


def test_config_rejects_unknown_preset_and_bad_sampling(tmp_path):
    obj = {"run_dir": "rd", "backend": {"kind": "mock", "script": "mock.json"}}
    with pytest.raises(ConfigError, match="preset"):
        config_from_obj({**obj, "corpus": {"generate": {"preset": "dsk"}}}, base_dir=str(tmp_path))
    with pytest.raises(ConfigError, match="top_p"):
        config_from_obj(
            {**obj, "corpus": {"path": "c.jsonl"}, "sampling": {"top_p": 2}}, base_dir=str(tmp_path)
        )


def test_env_overrides_backend(monkeypatch, tmp_path):
    monkeypatch.setenv("LOGICPOOL_ENDPOINT", "http://env-host/v1")
    monkeypatch.setenv("LOGICPOOL_MODEL", "env-model")
    monkeypatch.setenv("LOGICPOOL_API_KEY", "env-key")
    obj = {
        "run_dir": "rd",
        "corpus": {"path": "c.jsonl"},
        "backend": {"kind": "openai", "base_url": "http://file-host/v1", "model": "file-model"},
    }
    config = config_from_obj(obj, base_dir=str(tmp_path))
    assert config.backend.base_url == "http://env-host/v1"
    assert config.backend.model == "env-model"
    assert config.backend.api_key == "env-key"


def test_readme_config_example_loads(monkeypatch, tmp_path):
    """The config example in README.md stays one the loader accepts."""
    for name in [name for name in os.environ if name.startswith("LOGICPOOL_")]:
        monkeypatch.delenv(name)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config file", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    config = config_from_obj(json.loads(block), base_dir=str(tmp_path))
    assert config.criteria == CRITERIA
    assert config.backend.kind == "openai" and config.backend.model == "my-model"


def test_readme_library_example_runs(tmp_path, world, monkeypatch, capsys):
    """The library example in README.md runs as written, against a run
    directory at the path it reads."""
    _, paths = world
    run(mock_config(tmp_path, paths, run_name="runs/exp1"))
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["answer"].parse_ok and namespace["scores"].defined
    assert [r.strategy for r in namespace["pool"].candidates] == [s.key for s in Strategy]
    assert capsys.readouterr().out.startswith("CanonicalAnswer(family='kk', parse_ok=True")


def test_desk_spec_counts():
    spec = desk_generate_spec()
    assert len(spec.kk_sizes) * spec.kk_per_size == 160
    easy = sum(c for h, a, c in spec.zebra_configs if (h == 2) or (h == 3 and a in (2, 3)))
    hard = sum(c for h, a, c in spec.zebra_configs) - easy
    assert (easy, hard) == (20, 10)
    assert all(h <= 4 and a <= 4 for h, a, c in spec.zebra_configs if not (h == 2 or (h == 3 and a in (2, 3))))


def test_build_corpus_generate_counts():
    spec = GenerateSpec(kk_sizes=(3, 4), kk_per_size=2, zebra_configs=((2, 2, 2),), seed=5)
    config = ExperimentConfig(run_dir="unused", generate=spec)
    corpus = build_corpus(config)
    assert len(corpus) == 6
    assert [p.family for p in corpus] == ["kk"] * 4 + ["zebra"] * 2
    assert len({p.puzzle_id for p in corpus}) == 6


# ---------------------------------------------------------------------------
# end-to-end closed world
# ---------------------------------------------------------------------------


def test_closed_world_report_matches_hand_computation(tmp_path, world):
    world_obj, paths = world
    config = mock_config(tmp_path, paths)
    result = run(config)
    assert result.exit_code == 0
    assert result.failures == []
    # record count = |corpus| x |strategy pool| x samples
    assert len(result.records) == 4 * 5 * 1

    for row, expected_cells in world_obj.EXPECTED_KK.items():
        for column, expected in expected_cells.items():
            got = result.tables["kk"].accuracy(row, column)
            assert got == expected, f"kk {row} / {column}: {got} != {expected}"
    for row, expected_cells in world_obj.EXPECTED_ZEBRA.items():
        for column, expected in expected_cells.items():
            got = result.tables["zebra"].accuracy(row, column)
            assert got == expected, f"zebra {row} / {column}: {got} != {expected}"


def test_closed_world_tie_bookkeeping(tmp_path, world):
    _, paths = world
    result = run(mock_config(tmp_path, paths))
    rows = {(r.puzzle_id, r.criterion): r for r in result.selections}
    kk_a = next(p for p in result.records if p.difficulty == "3 Person").puzzle_id
    kk_b = next(p for p in result.records if p.difficulty == "4 Person").puzzle_id
    assert rows[(kk_a, "majority_vote")].tie_occurred
    assert rows[(kk_a, "vote_prob")].tie_breaker_used == "max_prob"
    assert rows[(kk_a, "vote_verifier")].tie_breaker_used == "verifier"
    assert not rows[(kk_b, "majority_vote")].tie_occurred
    assert rows[(kk_b, "vote_prob")].tie_breaker_used is None


def test_rerun_issues_zero_backend_calls(tmp_path, world):
    _, paths = world
    config = mock_config(tmp_path, paths)
    first = run(config)
    assert first.backend_calls > 0
    records_before = Path(config.run_dir, "records.jsonl").read_bytes()
    second = run(mock_config(tmp_path, paths))
    assert second.backend_calls == 0
    records_after = Path(config.run_dir, "records.jsonl").read_bytes()
    assert records_before == records_after
    assert [r.to_obj() for r in first.records] == [r.to_obj() for r in second.records]


def test_each_distinct_request_costs_one_backend_call(tmp_path, world):
    """The two samples of a pool ask the same verifications, often at the
    same moment; each distinct request still reaches the backend once, on
    every run."""
    _, paths = world
    for attempt in range(5):
        config = mock_config(tmp_path, paths, run_name=f"run{attempt}", samples=2, concurrency=4)
        result = run(config)
        keys = [entry["key"] for entry in read_jsonl(os.path.join(config.run_dir, "journal.jsonl"))]
        assert result.backend_calls == len(keys) == len(set(keys)) == 59


def test_replay_into_fresh_directory_is_byte_identical(tmp_path, world, monkeypatch):
    """A replay has no backend to wait on: every journal hit and every
    verification runs on the calling thread, with the same files."""
    _, paths = world
    config_a = mock_config(tmp_path, paths, run_name="runA")
    assert set(config_a.criteria) == set(CRITERIA)
    run(config_a)
    run_b_dir = tmp_path / "runB"
    os.makedirs(run_b_dir)
    shutil.copyfile(os.path.join(config_a.run_dir, "journal.jsonl"), run_b_dir / "journal.jsonl")
    run_module = importlib.import_module("logicpool.harness.run")
    monkeypatch.setattr(run_module._CallPlacer, "submit", lambda *args: pytest.fail("a replay started a backend call"))
    config_b = mock_config(tmp_path, paths, run_name="runB", replay=True)
    result_b = run(config_b)
    assert result_b.exit_code == 0 and result_b.backend_calls == 0
    assert sum(r.verifier is not None for r in result_b.records) > 0
    for name in ("records.jsonl", "selections.jsonl", "report.md",
                 "report_kk.csv", "report_zebra.csv", "clue_accuracy.csv"):
        a = Path(config_a.run_dir, name).read_bytes()
        b = (run_b_dir / name).read_bytes()
        assert a == b, f"{name} differs between original and replay"
    # token data lives only in the journal
    for run_dir in (config_a.run_dir, run_b_dir):
        assert not os.path.exists(os.path.join(run_dir, "tokens.jsonl"))


def test_oracle_only_run_never_verifies(tmp_path, world):
    _, paths = world
    config = mock_config(tmp_path, paths, criteria=("oracle",))
    run(config)
    journal = read_jsonl(os.path.join(config.run_dir, "journal.jsonl"))
    kinds = {entry["kind"] for entry in journal}
    assert kinds == {"generate"}


def test_vote_verifier_only_verifies_tied_pools(tmp_path, world):
    _, paths = world
    config = mock_config(tmp_path, paths, criteria=("vote_verifier", "oracle"))
    run(config)
    journal = read_jsonl(os.path.join(config.run_dir, "journal.jsonl"))
    verify_entries = [e for e in journal if e["kind"] == "completion_probability"]
    # only kkA's pool ties; its four parseable candidates get verified
    assert len(verify_entries) == 4


def test_resumed_run_backfills_verifier_scores(tmp_path, world):
    _, paths = world
    config = mock_config(tmp_path, paths, criteria=("majority_vote", "oracle"))
    first = run(config)
    assert all(r.verifier is None for r in first.records)
    config_full = mock_config(tmp_path, paths, criteria=("verifier", "oracle"))
    second = run(config_full)
    verified = [r for r in second.records if r.verifier is not None]
    assert verified  # lazily computed on resume
    reloaded = load_records(os.path.join(config.run_dir, "records.jsonl"))
    assert sum(1 for r in reloaded if r.verifier is not None) == len(verified)


def write_script(tmp_path, script, name):
    script_path = tmp_path / f"{name}.json"
    with open(script_path, "w") as handle:
        json.dump(script, handle)
    return str(script_path)


def broken_kkb_script(tmp_path, world_obj):
    """The closed world without kkB's fallback rule: its no_strategy prompt
    then matches nothing and its generation fails."""
    script = world_obj.mock_script()
    script["responses"] = [
        r for r in script["responses"] if r.get("match") != world_obj.question_needle("kkB")
    ]
    return write_script(tmp_path, script, "broken")


def without_timing(records):
    return [{**r.to_obj(), "elapsed_s": None} for r in records]


def test_partial_failure_sets_exit_code(tmp_path, world):
    world_obj, paths = world
    script_path = broken_kkb_script(tmp_path, world_obj)
    config = mock_config(
        tmp_path, {"corpus": paths["corpus"], "script": script_path}, run_name="broken"
    )
    result = run(config)
    assert result.exit_code == 2
    assert len(result.failures) == 1
    assert result.failures[0]["kind"] == "generate"
    failed = [r for r in result.records if r.error]
    assert len(failed) == 1
    assert failed[0].finish_reason == "error"
    assert not failed[0].answer.parse_ok
    assert os.path.exists(os.path.join(config.run_dir, "failures.jsonl"))


def test_failed_generation_is_retried_on_resume(tmp_path, world):
    world_obj, paths = world
    broken = mock_config(
        tmp_path,
        {"corpus": paths["corpus"], "script": broken_kkb_script(tmp_path, world_obj)},
        run_name="retry",
    )
    assert run(broken).exit_code == 2
    failures_path = os.path.join(broken.run_dir, "failures.jsonl")
    assert os.path.exists(failures_path)

    resumed = run(mock_config(tmp_path, paths, run_name="retry"))
    assert resumed.exit_code == 0
    assert resumed.failures == []
    assert not os.path.exists(failures_path)
    journal = read_jsonl(os.path.join(broken.run_dir, "journal.jsonl"))
    assert sum(1 for e in journal if e["kind"] == "generate") == 20
    assert not any(r.error for r in resumed.records)
    # the retried record replaces the failed line in place
    stored = load_records(os.path.join(broken.run_dir, "records.jsonl"))
    assert [r.to_obj() for r in stored] == [r.to_obj() for r in resumed.records]
    fresh = run(mock_config(tmp_path, paths, run_name="retry_fresh"))
    assert without_timing(stored) == without_timing(fresh.records)


def test_scoring_error_costs_one_record(tmp_path, world):
    world_obj, paths = world
    script = world_obj.mock_script()
    needles = [world_obj.question_needle("kkB"), STRATEGY_SENTINELS["supposition_following"]]
    rule = next(r for r in script["responses"] if r.get("match_all") == needles)
    text = world_obj.response_text("kkB", "supposition_following")
    head, _, block = text.partition("Answer:")
    # top-K mass exp(-0.1) + exp(-0.2) = 1.72 is not a distribution
    rule.pop("text")
    rule["tokens"] = [
        {"text": head, "logprob": -0.2},
        {"text": "Answer:", "logprob": -0.1, "alternatives": [["Answer:", -0.1], ["x", -0.2]]},
        {"text": block, "logprob": -0.2},
    ]
    config = mock_config(
        tmp_path,
        {"corpus": paths["corpus"], "script": write_script(tmp_path, script, "bad_mass")},
        run_name="bad_mass",
    )
    result = run(config)
    assert result.exit_code == 2
    assert [(f["kind"], f["strategy"]) for f in result.failures] == [("score", "supposition_following")]
    assert len(result.records) == 20
    bad = [r for r in result.records if r.error]
    assert len(bad) == 1
    assert bad[0].response_text == text
    assert bad[0].answer.parse_ok
    assert bad[0].confidence is None
    assert "above 1" in bad[0].error
    assert len(load_records(os.path.join(config.run_dir, "records.jsonl"))) == 20
    assert len({(s.puzzle_id, s.sample) for s in result.selections}) == 4


class CrashingMock(MockBackend):
    """A mock whose generations raise a non-package error on one puzzle and,
    optionally, take 0.2 s on another (those prompts are logged)."""

    def __init__(self, script, needle, slow_needle="", slow_calls=None):
        super().__init__(script)
        self.needle = needle
        self.slow_needle = slow_needle
        self.slow_calls = slow_calls

    def generate(self, prompt, params):
        if self.needle in prompt:
            raise RuntimeError("backend crashed")
        if self.slow_needle and self.slow_needle in prompt:
            self.slow_calls.append(prompt)
            time.sleep(0.2)
        return super().generate(prompt, params)


@dataclass
class CrashingBackendConfig(BackendConfig):
    needle: str = ""
    slow_needle: str = ""
    slow_calls: list = field(default_factory=list)

    def build(self):
        with open(self.script_path) as handle:
            return CrashingMock(json.load(handle), self.needle, self.slow_needle, self.slow_calls)


def test_pools_are_persisted_as_they_complete(tmp_path, world):
    world_obj, paths = world
    backend = CrashingBackendConfig(
        kind="mock", script_path=paths["script"], needle=world_obj.question_needle("zebraA")
    )
    config = mock_config(tmp_path, paths, run_name="crash", backend=backend)
    with pytest.raises(RuntimeError):
        run(config)
    stored = load_records(os.path.join(config.run_dir, "records.jsonl"))
    kk_ids = [world_obj.puzzles[name].puzzle_id for name in ("kkA", "kkB")]
    assert [r.puzzle_id for r in stored] == [kk_ids[0]] * 5 + [kk_ids[1]] * 5

    resumed = run(mock_config(tmp_path, paths, run_name="crash"))
    assert resumed.exit_code == 0
    assert len(resumed.records) == 20
    assert len(load_records(os.path.join(config.run_dir, "records.jsonl"))) == 20


def test_a_run_keys_each_prefix_once_and_builds_each_puzzle_s_answer_patterns_once(tmp_path, world, monkeypatch):
    """Each verification prefix is rendered and keyed once, when its call
    starts, and the verification takes those requests; each puzzle's answer
    patterns are built once, with its prompt fills, for all its samples."""
    _, paths = world
    modules = [importlib.import_module(f"logicpool.{name}") for name in ("harness.run", "selection", "inference", "verifier")]
    keyed, built = [], []

    def counting(module, name, calls):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(args[0]) or real(*args))

    for module in modules:
        if hasattr(module, "answer_patterns"):
            counting(module, "answer_patterns", built)
        if hasattr(module, "probability_request"):
            counting(module, "probability_request", keyed)
    config = mock_config(tmp_path, paths, run_name="keyed-once", samples=2)
    result = run(config)
    assert result.exit_code == 0
    with open(os.path.join(config.run_dir, "journal.jsonl"), encoding="utf-8") as handle:
        prefixes = [e["request"]["prompt"] for e in map(json.loads, handle) if e["kind"] == "completion_probability"]
    # the samples ask the same prefixes, which the journal holds once
    assert set(keyed) == set(prefixes) and len(prefixes) > 10
    assert len(keyed) == sum(len(r.verifier.per_chunk) for r in result.records if r.verifier is not None)
    assert [puzzle.puzzle_id for puzzle in built] == [puzzle.puzzle_id for puzzle in read_puzzles(paths["corpus"])]


def test_a_pool_is_scored_once_two_concurrency_pools_have_started_after_it(tmp_path, world, monkeypatch):
    """The pipeline keeps ``2 * concurrency`` pools started ahead of the
    one it scores, so their generations overlap its scoring."""
    _, paths = world
    runner = importlib.import_module("logicpool.harness.run")._Runner
    events = []
    for name in ("_start", "_score"):
        real = getattr(runner, name)
        monkeypatch.setattr(runner, name, lambda self, *args, real=real, name=name: events.append(name) or real(self, *args))
    run(mock_config(tmp_path, paths, run_name="depth", concurrency=2, samples=2))
    ahead, pools = 4, 8
    assert events == (
        ["_start"] * (ahead + 1) + ["_score"] + ["_start", "_score"] * (pools - ahead - 1) + ["_score"] * ahead
    )


def test_records_are_appended_once_per_pool_with_new_records(tmp_path, world, monkeypatch):
    """A pool's new records go to the file in one append, in task order; a
    pool without new records appends nothing."""
    _, paths = world
    run_module = importlib.import_module("logicpool.harness.run")
    appends = []
    real = run_module.append_jsonl

    def counting(path, objs):
        objs = list(objs)
        appends.append([(obj["puzzle_id"], obj["strategy"]) for obj in objs])
        real(path, objs)

    monkeypatch.setattr(run_module, "append_jsonl", counting)
    config = mock_config(tmp_path, paths, run_name="appends")
    first = run(config)
    assert appends == [
        [(r.puzzle_id, r.strategy) for r in first.records[i : i + 5]] for i in range(0, 20, 5)
    ]
    records_path = Path(config.run_dir, "records.jsonl")
    intact = records_path.read_bytes()

    appends.clear()
    run(config)
    assert appends == []

    # the last pool lost its last two records: one append of those two
    lines = intact.splitlines(keepends=True)
    records_path.write_bytes(b"".join(lines[:-2]))
    resumed = run(config)
    assert resumed.backend_calls == 0
    assert appends == [[(r.puzzle_id, r.strategy) for r in first.records[-2:]]]
    assert records_path.read_bytes() == intact


def test_crash_does_not_wait_for_queued_generations(tmp_path, world):
    world_obj, paths = world
    backend = CrashingBackendConfig(
        kind="mock",
        script_path=paths["script"],
        needle=world_obj.question_needle("zebraA"),
        slow_needle=world_obj.question_needle("zebraB"),
    )
    config = mock_config(
        tmp_path,
        paths,
        run_name="crash_queue",
        backend=backend,
        concurrency=1,
        criteria=("majority_vote", "max_prob", "oracle"),
    )
    with pytest.raises(RuntimeError):
        run(config)
    # zebraB's five generations are queued behind zebraA's; at most the
    # one or two already started may run
    assert len(backend.slow_calls) <= 2


def test_crash_with_verifier_criteria_waits_only_for_verifications(tmp_path, world):
    """A crash cancels the queued generations, then still persists the pools
    already generated: their verifications, queued behind those
    generations, run and their scores are stored."""
    world_obj, paths = world
    backend = CrashingBackendConfig(
        kind="mock",
        script_path=paths["script"],
        needle=world_obj.question_needle("zebraA"),
        slow_needle=world_obj.question_needle("zebraB"),
    )
    config = mock_config(tmp_path, paths, run_name="crash_verify", backend=backend, concurrency=1)
    assert set(config.criteria) == set(CRITERIA)
    with pytest.raises(RuntimeError):
        run(config)
    assert len(backend.slow_calls) <= 2
    stored = load_records(os.path.join(config.run_dir, "records.jsonl"))
    kk_ids = [world_obj.puzzles[name].puzzle_id for name in ("kkA", "kkB")]
    assert [r.puzzle_id for r in stored] == [kk_ids[0]] * 5 + [kk_ids[1]] * 5
    assert all((r.verifier is not None) == r.answer.parse_ok for r in stored)
    assert sum(r.verifier is not None for r in stored) == 9


class CrashingVerifierMock(MockBackend):
    """Prefix calls for one puzzle take 0.3 s, then raise a non-package
    error; prefix calls for the other needles are logged."""

    def __init__(self, script, needle, logged_needles, logged_calls):
        super().__init__(script)
        self.needle = needle
        self.logged_needles = logged_needles
        self.logged_calls = logged_calls

    def completion_probability(self, prompt_text_, candidates):
        if self.needle and self.needle in prompt_text_:
            time.sleep(0.3)
            raise RuntimeError("verifier crashed")
        if any(needle in prompt_text_ for needle in self.logged_needles):
            self.logged_calls.append(prompt_text_)
        return super().completion_probability(prompt_text_, candidates)


@dataclass
class CrashingVerifierConfig(BackendConfig):
    needle: str = ""
    logged_needles: tuple = ()
    logged_calls: list = field(default_factory=list)

    def build(self):
        with open(self.script_path) as handle:
            return CrashingVerifierMock(json.load(handle), self.needle, self.logged_needles, self.logged_calls)


def test_a_crash_while_finishing_a_pool_cancels_later_pools_queued_verifications(tmp_path, world):
    """With one worker, kkB's prefix calls are still running when the last
    pool is scored, so kkB is finished on the way out of the run; its crash
    propagates, and the zebra pools' prefix calls queued behind kkB's are
    never sent to the backend."""
    world_obj, paths = world
    zebra_needles = tuple(world_obj.question_needle(name) for name in ("zebraA", "zebraB"))
    backend = CrashingVerifierConfig(
        kind="mock",
        script_path=paths["script"],
        needle=world_obj.question_needle("kkB"),
        logged_needles=zebra_needles,
    )
    config = mock_config(tmp_path, paths, run_name="crash_finish", backend=backend, concurrency=1)
    with pytest.raises(RuntimeError, match="verifier crashed"):
        run(config)
    assert backend.logged_calls == []
    # without the crash the zebra pools do send prefix calls
    clean = CrashingVerifierConfig(kind="mock", script_path=paths["script"], logged_needles=zebra_needles)
    assert run(mock_config(tmp_path, paths, run_name="clean_finish", backend=clean, concurrency=1)).exit_code == 0
    assert len(clean.logged_calls) >= 4


@pytest.fixture
def kept_journals(monkeypatch):
    """Every journal client a run opens, kept alive after the run, so that
    only the run's own close() frees a journal's descriptor."""
    run_module = importlib.import_module("logicpool.harness.run")
    kept = []

    class KeptJournal(inference.JournalingClient):
        def __init__(self, *args):
            super().__init__(*args)
            kept.append(self)

    monkeypatch.setattr(run_module, "JournalingClient", KeptJournal)
    return kept


def test_run_closes_its_journals_after_a_clean_run_and_a_replay(tmp_path, world, no_fd_leaks, kept_journals):
    _, paths = world
    verifier = BackendConfig(kind="mock", script_path=paths["script"])
    assert run(mock_config(tmp_path, paths, run_name="closed", verifier_backend=verifier)).exit_code == 0
    assert len(kept_journals) == 2
    no_fd_leaks()
    replayed = run(mock_config(tmp_path, paths, run_name="closed", verifier_backend=verifier, replay=True))
    assert replayed.exit_code == 0 and replayed.backend_calls == 0
    assert len(kept_journals) == 4
    no_fd_leaks()
    # a replay without journals fails every request and creates no journal
    missing = run(mock_config(tmp_path, paths, run_name="closed_empty", verifier_backend=verifier, replay=True))
    assert missing.exit_code == 2
    assert len(kept_journals) == 6
    assert not (tmp_path / "closed_empty" / "journal.jsonl").exists()
    assert not (tmp_path / "closed_empty" / "verifier_journal.jsonl").exists()


def test_run_closes_its_journals_after_a_crash(tmp_path, world, no_fd_leaks, kept_journals):
    world_obj, paths = world
    backend = CrashingBackendConfig(
        kind="mock", script_path=paths["script"], needle=world_obj.question_needle("zebraA")
    )
    with pytest.raises(RuntimeError):
        run(mock_config(tmp_path, paths, run_name="closed_crash", backend=backend))
    assert len(kept_journals) == 1
    no_fd_leaks()


class CountdownMock(MockBackend):
    """A mock that crashes on every backend call after its first ``calls``."""

    def __init__(self, script, calls):
        super().__init__(script)
        self.calls = calls
        self.lock = threading.Lock()

    def _spend(self):
        with self.lock:
            self.calls -= 1
            if self.calls < 0:
                raise RuntimeError("backend crashed")

    def generate(self, prompt, params):
        self._spend()
        return super().generate(prompt, params)

    def completion_probability(self, prompt_text, candidates):
        self._spend()
        return super().completion_probability(prompt_text, candidates)


@dataclass
class CountdownBackendConfig(BackendConfig):
    calls: int = 0

    def build(self):
        with open(self.script_path) as handle:
            return CountdownMock(json.load(handle), self.calls)


def tear_last_line(path):
    data = path.read_bytes()
    start = data.rfind(b"\n", 0, len(data) - 1) + 1
    path.write_bytes(data[: start + (len(data) - start) // 2])


def run_outputs(run_dir):
    records = [r.to_obj() for r in load_records(os.path.join(run_dir, "records.jsonl"))]
    for record in records:
        del record["elapsed_s"]
    return (Path(run_dir, "selections.jsonl").read_bytes(), Path(run_dir, "report.md").read_bytes(), records)


@pytest.mark.parametrize("concurrency", [1, 3])
def test_a_crash_at_any_backend_call_resumes_to_the_uninterrupted_outputs(tmp_path, world, concurrency):
    """The run crashes after k backend calls, for every k up to the 39 calls
    the whole run makes, with the journal's last line torn on odd k. The
    resume with an intact backend writes what an uninterrupted run does,
    and pays again only for the torn line: every call that succeeded
    before the crash is journaled."""
    _, paths = world

    def config(name, **overrides):
        criteria = ("majority_vote", "verifier", "oracle")
        return mock_config(tmp_path, paths, run_name=name, criteria=criteria, concurrency=concurrency, **overrides)

    whole = run(config("whole"))
    assert whole.backend_calls == 39
    expected = run_outputs(whole.run_dir)
    for k in range(40):
        backend = CountdownBackendConfig(kind="mock", script_path=paths["script"], calls=k)
        try:
            run(config(f"crash{k}", backend=backend))
            crashed = False
        except RuntimeError:
            crashed = True
        assert crashed == (k < 39), k
        journal = tmp_path / f"crash{k}" / "journal.jsonl"
        torn = bool(k % 2 and journal.stat().st_size)
        if torn:
            tear_last_line(journal)
        resumed = run(config(f"crash{k}"))
        assert resumed.exit_code == 0, k
        assert run_outputs(resumed.run_dir) == expected, k
        if torn:
            assert resumed.backend_calls <= 40 - k, k
        else:
            assert resumed.backend_calls == 39 - k, k


@pytest.fixture(scope="module")
def uninterrupted(world, tmp_path_factory):
    """The outputs of the crash-point runs when nothing crashes, by concurrency."""
    _, paths = world
    base = tmp_path_factory.mktemp("uninterrupted")
    return {
        concurrency: run_outputs(run(crash_point_config(base, paths, f"whole{concurrency}", concurrency)).run_dir)
        for concurrency in (1, 3)
    }


def crash_point_config(base, paths, name, concurrency, **overrides):
    criteria = ("majority_vote", "verifier", "oracle")
    return mock_config(base, paths, run_name=name, criteria=criteria, concurrency=concurrency, **overrides)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(k=st.integers(0, 38), concurrency=st.sampled_from([1, 3]), cut=st.integers(0, 1000))
def test_a_crash_at_a_drawn_call_and_a_cut_in_the_last_journal_line_resumes(
    world, uninterrupted, tmp_path_factory, k, concurrency, cut
):
    """The run crashes after a drawn number k of the 39 backend calls, at
    concurrency 1 or 3, and the journal's last line is cut after ``cut``
    thousandths of its bytes (1000 leaves it whole, 0 removes it). The
    resume with an intact backend writes what an uninterrupted run does,
    paying again only for the cut line."""
    _, paths = world
    base = tmp_path_factory.mktemp("crash_point")
    backend = CountdownBackendConfig(kind="mock", script_path=paths["script"], calls=k)
    with pytest.raises(RuntimeError):
        run(crash_point_config(base, paths, "run", concurrency, backend=backend))
    journal = base / "run" / "journal.jsonl"
    whole = True
    if journal.exists():
        size = journal.stat().st_size
        last_line = journal.read_bytes().rfind(b"\n", 0, size - 1) + 1
        os.truncate(journal, last_line + (size - last_line) * cut // 1000)
        whole = cut == 1000
    resumed = run(crash_point_config(base, paths, "run", concurrency))
    assert resumed.exit_code == 0
    assert run_outputs(resumed.run_dir) == uninterrupted[concurrency]
    if whole:
        assert resumed.backend_calls == 39 - k
    else:
        assert resumed.backend_calls <= 40 - k


class SleepingMock(MockBackend):
    """A mock whose generations take at least ``sleep_s`` seconds."""

    def __init__(self, script, sleep_s):
        super().__init__(script)
        self.sleep_s = sleep_s

    def generate(self, prompt, params):
        time.sleep(self.sleep_s)
        return super().generate(prompt, params)


@dataclass
class SleepingBackendConfig(BackendConfig):
    sleep_s: float = 0.0

    def build(self):
        with open(self.script_path) as handle:
            return SleepingMock(json.load(handle), self.sleep_s)


# a generation sleep that the run reads as waiting (``harness.run.WAIT_MARGIN_S``)
WAIT_S = 0.02


def submissions_and_scores(tmp_path, paths, monkeypatch, run_name):
    """Run with one worker, all criteria and a backend that waits from its
    first call, and return what happened in order: each backend call
    submitted ("generate", or "verify" for a verification prefix) and each
    response scored ("score"). The first call runs on the run thread and
    every later one goes to the worker."""
    run_module = importlib.import_module("logicpool.harness.run")
    events, pooled = [], []
    real_submit = run_module._CallPlacer.submit

    def submit(self, fn, /, *args):
        call = args[0]  # the inner backend's method that the call runs
        events.append("verify" if call.__name__ == "completion_probability" else "generate")
        pooled.append(self.pool is not None)
        return real_submit(self, fn, *args)

    real_score = run_module.score_response

    def scoring(*args):
        events.append("score")
        return real_score(*args)

    monkeypatch.setattr(run_module._CallPlacer, "submit", submit)
    monkeypatch.setattr(run_module, "score_response", scoring)
    backend = SleepingBackendConfig(kind="mock", script_path=paths["script"], sleep_s=WAIT_S)
    config = mock_config(tmp_path, paths, run_name=run_name, backend=backend, concurrency=1)
    assert set(config.criteria) == set(CRITERIA)
    assert run(config).exit_code == 0
    assert events.count("generate") == events.count("score") == 20
    assert pooled == [False] + [True] * (len(pooled) - 1)
    return events


def test_generations_start_in_a_window_of_pools(tmp_path, world, monkeypatch):
    """One worker starts two pools ahead of the pool being scored: at most
    three pools' generations are submitted before the first response is
    scored."""
    _, paths = world
    events = submissions_and_scores(tmp_path, paths, monkeypatch, "window")
    assert events[: events.index("score")].count("generate") <= (2 + 1) * 5


def test_verifications_queue_behind_the_window_not_every_generation(tmp_path, world, monkeypatch):
    """The first pool's verifications are submitted while later pools'
    generations are still to be started."""
    _, paths = world
    events = submissions_and_scores(tmp_path, paths, monkeypatch, "window_verify")
    last_generation = len(events) - 1 - events[::-1].index("generate")
    assert events.index("verify") < last_generation


class GatedVerifierMock(SleepingMock):
    """The first prefix call for one pool waits until the first prefix call
    for another pool arrives, and fails after 5 s without it. Generations
    sleep, so the run sends every call after its first to the workers."""

    def __init__(self, script, waiting_marker, opening_marker):
        super().__init__(script, WAIT_S)
        self.waiting_marker = waiting_marker
        self.opening_marker = opening_marker
        self.gate = threading.Event()
        self.lock = threading.Lock()
        self.waited = False

    def completion_probability(self, prompt_text_, candidates):
        with self.lock:
            wait = self.waiting_marker in prompt_text_ and not self.waited
            self.waited = self.waited or wait
        if self.opening_marker in prompt_text_:
            self.gate.set()
        if wait and not self.gate.wait(timeout=5):
            raise BackendError("the first pool's verification blocked the last pool's")
        return super().completion_probability(prompt_text_, candidates)


@dataclass
class GatedBackendConfig(BackendConfig):
    waiting_marker: str = ""
    opening_marker: str = ""

    def build(self):
        with open(self.script_path) as handle:
            return GatedVerifierMock(json.load(handle), self.waiting_marker, self.opening_marker)


def test_verifications_of_later_pools_overlap_a_pending_one(tmp_path, world):
    """Pool 0's first verification cannot finish before the last pool's
    verification starts: the run completes only if verification is queued
    for every pool without waiting for the earlier pools'."""
    world_obj, paths = world
    backend = GatedBackendConfig(
        kind="mock",
        script_path=paths["script"],
        waiting_marker=world_obj.marker("kkA", ""),
        opening_marker=world_obj.marker("zebraB", ""),
    )
    result = run(mock_config(tmp_path, paths, run_name="gated", backend=backend, concurrency=2))
    assert result.failures == []
    assert result.exit_code == 0
    fresh = run(mock_config(tmp_path, paths, run_name="gated_fresh", concurrency=2))
    assert without_timing(result.records) == without_timing(fresh.records)
    assert [s.to_obj() for s in result.selections] == [s.to_obj() for s in fresh.selections]


class FailingVerifierMock(MockBackend):
    """Every prefix call that contains the marker fails."""

    def __init__(self, script, marker):
        super().__init__(script)
        self.marker = marker

    def completion_probability(self, prompt_text_, candidates):
        if self.marker in prompt_text_:
            raise BackendError("prefix call failed")
        return super().completion_probability(prompt_text_, candidates)


@dataclass
class FailingVerifierConfig(BackendConfig):
    marker: str = ""

    def build(self):
        with open(self.script_path) as handle:
            return FailingVerifierMock(json.load(handle), self.marker)


def test_failure_rows_are_in_pool_order(tmp_path, world):
    """kkA's verifications fail and kkB's no_strategy generation fails: the
    rows follow the pools, whatever order the backend answers in."""
    world_obj, paths = world
    backend = FailingVerifierConfig(
        kind="mock", script_path=broken_kkb_script(tmp_path, world_obj), marker=world_obj.marker("kkA", "")
    )
    config = mock_config(tmp_path, paths, run_name="order", backend=backend, concurrency=2)
    result = run(config)
    assert result.exit_code == 2
    kk_a, kk_b = (world_obj.puzzles[name].puzzle_id for name in ("kkA", "kkB"))
    parseable = ("no_strategy", "supposition_following", "chain_construction", "compound_strategy")
    expected = [("verify", kk_a, key) for key in parseable]
    expected.append(("generate", kk_b, "no_strategy"))
    assert [(f["kind"], f["puzzle_id"], f["strategy"]) for f in result.failures] == expected
    assert read_jsonl(os.path.join(config.run_dir, "failures.jsonl")) == result.failures


def test_lambda_change_on_resume_matches_fresh_replay(tmp_path, world):
    _, paths = world
    first = run(mock_config(tmp_path, paths, run_name="lam"))
    assert first.backend_calls > 0
    resumed = run(mock_config(tmp_path, paths, run_name="lam", lambda_p=0.2, lambda_e=0.2))
    assert resumed.backend_calls == 0
    replay_dir = tmp_path / "lam_replay"
    os.makedirs(replay_dir)
    shutil.copyfile(tmp_path / "lam" / "journal.jsonl", replay_dir / "journal.jsonl")
    replayed = run(
        mock_config(tmp_path, paths, run_name="lam_replay", lambda_p=0.2, lambda_e=0.2, replay=True)
    )
    assert replayed.backend_calls == 0
    for name in ("records.jsonl", "selections.jsonl", "report.md", "manifest.json"):
        resumed_bytes = (tmp_path / "lam" / name).read_bytes()
        assert resumed_bytes == (replay_dir / name).read_bytes(), (
            f"{name} differs between the resumed and the replayed run"
        )


@pytest.mark.parametrize("criteria", [("majority_vote", "oracle"), ("vote_verifier", "oracle")])
def test_criteria_change_on_resume_matches_a_fresh_run(tmp_path, world, criteria):
    """A record keeps a verifier score only when this run's criteria ask for
    it: a run with every criterion, resumed under fewer, writes what a
    fresh run under those criteria writes."""
    _, paths = world
    run(mock_config(tmp_path, paths, run_name="criteria"))
    resumed = run(mock_config(tmp_path, paths, run_name="criteria", criteria=criteria))
    assert resumed.backend_calls == 0
    fresh = run(mock_config(tmp_path, paths, run_name="criteria_fresh", criteria=criteria))
    stored = load_records(os.path.join(resumed.run_dir, "records.jsonl"))
    assert without_timing(stored) == without_timing(fresh.records)
    assert without_timing(resumed.records) == without_timing(fresh.records)
    for name in ("selections.jsonl", "report.md"):
        assert Path(resumed.run_dir, name).read_bytes() == Path(fresh.run_dir, name).read_bytes(), name


def test_journaled_latency_is_the_backend_call(tmp_path, world):
    """``elapsed_s`` times the backend call on its worker: in a threaded run
    it lies between the backend's sleep and the run's wall time, and a
    rerun and a replay read back the same numbers."""
    _, paths = world
    sleep_s = 0.02
    backend = SleepingBackendConfig(kind="mock", script_path=paths["script"], sleep_s=sleep_s)
    criteria = ("majority_vote", "oracle")
    config = mock_config(tmp_path, paths, run_name="latency", backend=backend, criteria=criteria)
    began = time.monotonic()
    cold = run(config)
    wall = time.monotonic() - began
    elapsed = [r.elapsed_s for r in cold.records]
    assert len(elapsed) == 20
    assert all(sleep_s <= e <= wall for e in elapsed), (elapsed, wall)
    journal = read_jsonl(os.path.join(config.run_dir, "journal.jsonl"))
    assert sorted(entry["elapsed_s"] for entry in journal) == sorted(elapsed)

    assert [r.elapsed_s for r in run(config).records] == elapsed
    replay_dir = tmp_path / "latency_replay"
    os.makedirs(replay_dir)
    shutil.copyfile(os.path.join(config.run_dir, "journal.jsonl"), replay_dir / "journal.jsonl")
    replay = run(mock_config(tmp_path, paths, run_name="latency_replay", criteria=criteria, replay=True))
    assert [r.elapsed_s for r in replay.records] == elapsed


def test_only_the_run_thread_touches_a_journal(tmp_path, world, monkeypatch):
    """Every ``JournalingClient`` method runs on the thread that called
    run(), in a threaded cold run, a rerun and a replay; the cold run's
    backend waits from its first call, so that call runs on the run thread
    and every later one on the workers."""
    _, paths = world
    owner = threading.get_ident()
    client_threads, backend_threads = [], []

    def recording(func, threads):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            threads.append(threading.get_ident())
            return func(*args, **kwargs)

        return wrapper

    for name, func in list(vars(inference.JournalingClient).items()):
        if inspect.isfunction(func):
            monkeypatch.setattr(inference.JournalingClient, name, recording(func, client_threads))
    for name in ("generate", "completion_probability"):
        monkeypatch.setattr(MockBackend, name, recording(getattr(MockBackend, name), backend_threads))

    os.makedirs(tmp_path / "owner_replay")
    backend = SleepingBackendConfig(kind="mock", script_path=paths["script"], sleep_s=WAIT_S)
    steps = [
        ("cold", mock_config(tmp_path, paths, run_name="owner", backend=backend, samples=2, concurrency=4)),
        ("rerun", mock_config(tmp_path, paths, run_name="owner", backend=backend, samples=2, concurrency=4)),
        ("replay", mock_config(tmp_path, paths, run_name="owner_replay", samples=2, concurrency=4, replay=True)),
    ]
    for step, config in steps:
        if step == "replay":
            shutil.copyfile(tmp_path / "owner" / "journal.jsonl", tmp_path / "owner_replay" / "journal.jsonl")
        client_threads.clear()
        backend_threads.clear()
        result = run(config)
        assert result.exit_code == 0, step
        assert client_threads and set(client_threads) == {owner}, step
        if step == "cold":
            assert len(backend_threads) == result.backend_calls == 59
            assert backend_threads[0] == owner and owner not in backend_threads[1:]
        else:
            assert backend_threads == [], step


@pytest.fixture
def steady_clock(monkeypatch):
    """The placer's wall clock advances only as its thread's CPU time does,
    so no call reads as waiting, however the scheduler treats the test."""
    run_module = importlib.import_module("logicpool.harness.run")
    steady = types.SimpleNamespace(monotonic=time.thread_time, thread_time=time.thread_time)
    monkeypatch.setattr(run_module, "time", steady)


@pytest.fixture
def fake_clock(monkeypatch):
    """The placer's clocks, advanced only by ``spend(wall, cpu)``."""
    run_module = importlib.import_module("logicpool.harness.run")
    clock = {"wall": 0.0, "cpu": 0.0}
    fake = types.SimpleNamespace(monotonic=lambda: clock["wall"], thread_time=lambda: clock["cpu"])
    monkeypatch.setattr(run_module, "time", fake)

    def spend(wall, cpu):
        clock["wall"] += wall
        clock["cpu"] += cpu

    return spend


def record_threads(monkeypatch, backend_class):
    """The thread of each call to the backend class's two methods, recorded
    as the call starts."""
    threads = []
    for name in ("generate", "completion_probability"):
        real = getattr(backend_class, name)

        def recording(*args, real=real):
            threads.append(threading.get_ident())
            return real(*args)

        monkeypatch.setattr(backend_class, name, recording)
    return threads


def test_a_backend_that_never_waits_runs_every_call_on_the_run_thread(tmp_path, world, monkeypatch, steady_clock):
    """The closed world's mock only computes: a cold run makes every backend
    call on the thread that called run(), starts no thread, and writes the
    golden files."""
    _, paths = world
    before = threading.active_count()
    counts = []
    threads = record_threads(monkeypatch, MockBackend)
    real = MockBackend.generate
    monkeypatch.setattr(MockBackend, "generate", lambda *args: counts.append(threading.active_count()) or real(*args))
    config = mock_config(tmp_path, paths, run_name="inline", samples=2)
    result = run(config)
    assert result.exit_code == 0
    assert len(threads) == result.backend_calls == 59
    assert set(threads) == {threading.get_ident()}
    assert set(counts) == {before} and threading.active_count() == before
    golden = Path(__file__).parent / "golden" / "closed_world"
    run_dir = Path(config.run_dir)
    assert (run_dir / "selections.jsonl").read_bytes() == (golden / "samples2_selections.jsonl").read_bytes()
    records = re.sub(rb', "elapsed_s": [^,}]+', b"", (run_dir / "records.jsonl").read_bytes())
    assert records == (golden / "samples2_records.jsonl").read_bytes()


def test_calls_that_sleep_run_on_the_workers_after_the_first(tmp_path):
    """At concurrency 2, of 20 calls that sleep 20 ms, the first runs alone
    on the calling thread and the rest on the two workers, so the 20 take
    under 0.75 of their serial sum."""
    placer = _CallPlacer(2)

    def call():
        time.sleep(WAIT_S)
        return threading.get_ident()

    began = time.monotonic()
    try:
        threads = [future.result(timeout=5) for future in [placer.submit(call) for _ in range(20)]]
    finally:
        placer.shutdown()
    wall = time.monotonic() - began
    assert threads[0] == threading.get_ident()
    assert len(set(threads[1:])) == 2 and threading.get_ident() not in threads[1:]
    assert wall < 0.75 * 20 * WAIT_S, wall


@pytest.mark.parametrize("k", [0, 1, 3])
def test_calls_that_compute_then_sleep_switch_after_the_first_sleep(k, fake_clock):
    """A backend that computes for its first k calls (2 ms of CPU time each)
    and then sleeps (20 ms): calls 1 to k+1 run on the calling thread, and
    the workers start after call k+1."""
    placer = _CallPlacer(2)

    def call(i):
        fake_clock(0.002, 0.002) if i < k else fake_clock(WAIT_S, 0.0)
        return threading.get_ident()

    futures = []
    try:
        for i in range(k + 3):
            futures.append(placer.submit(call, i))
            assert (placer.pool is not None) == (i >= k), i
        threads = [future.result(timeout=5) for future in futures]
    finally:
        placer.shutdown()
    owner = threading.get_ident()
    assert threads[: k + 1] == [owner] * (k + 1)
    assert owner not in threads[k + 1 :]


@pytest.mark.parametrize(
    "wall, cpu, waited",
    [
        (None, 0.0, False),  # exactly the margin over twice its CPU time
        (0.0101, 0.0, True),
        (0.0099, 0.0, False),
        (0.0181, 0.004, True),  # twice 4 ms of CPU time, and the margin, is 18 ms
        (0.0179, 0.004, False),
        (0.004, 0.004, False),
    ],
)
def test_a_call_waited_when_its_wall_time_exceeds_twice_its_cpu_time_by_the_margin(fake_clock, wall, cpu, waited):
    """The placer reads the call's wall and thread CPU time from the clocks;
    here a fake clock advances by the given amounts during the call."""
    run_module = importlib.import_module("logicpool.harness.run")
    if wall is None:
        wall = 2 * cpu + run_module.WAIT_MARGIN_S

    def call():
        fake_clock(wall, cpu)
        return "done"

    placer = _CallPlacer(2)
    try:
        assert placer.submit(call).result() == "done"
        assert (placer.pool is not None) == waited
    finally:
        placer.shutdown()


def test_an_inline_call_keeps_its_exception_in_its_future():
    """A call that raises an ``Exception`` on the calling thread returns a
    done future holding it, as an executor's would."""
    placer = _CallPlacer(2)
    future = placer.submit(functools.partial(int, "x"))
    assert future.done() and isinstance(future.exception(), ValueError)
    assert placer.pool is None


def test_a_backend_error_in_an_inline_call_costs_one_failure_row(tmp_path, world, monkeypatch, steady_clock):
    """The prefix calls of kkA's no_strategy candidate raise a BackendError
    on the run thread: the run writes one failure row, exits 2, and keeps
    every other result of a clean run."""
    world_obj, paths = world
    backend = FailingVerifierConfig(
        kind="mock", script_path=paths["script"], marker=world_obj.marker("kkA", "no_strategy")
    )
    threads = record_threads(monkeypatch, FailingVerifierMock)
    result = run(mock_config(tmp_path, paths, run_name="inline_error", backend=backend))
    assert threads and set(threads) == {threading.get_ident()}
    assert result.exit_code == 2
    kk_a = world_obj.puzzles["kkA"].puzzle_id
    assert [(f["kind"], f["puzzle_id"], f["strategy"]) for f in result.failures] == [("verify", kk_a, "no_strategy")]
    clean = run(mock_config(tmp_path, paths, run_name="inline_clean")).records
    failed = (kk_a, "no_strategy")
    expected = [dataclasses.replace(r, verifier=None) if (r.puzzle_id, r.strategy) == failed else r for r in clean]
    assert without_timing(result.records) == without_timing(expected)


class InterruptingMock(CountdownMock):
    """A mock interrupted, as by Ctrl-C, on its first call after ``calls``."""

    def _spend(self):
        try:
            super()._spend()
        except RuntimeError:
            raise KeyboardInterrupt from None


@dataclass
class InterruptingBackendConfig(CountdownBackendConfig):
    def build(self):
        with open(self.script_path) as handle:
            return InterruptingMock(json.load(handle), self.calls)


@pytest.mark.parametrize("k", [0, 7, 30])
def test_an_interrupt_in_an_inline_call_leaves_no_torn_journal_line(tmp_path, world, k, steady_clock):
    """A KeyboardInterrupt in the backend's (k+1)-th call, on the run
    thread, propagates out of run(). The journal holds the k calls before
    it, each on a whole line, and the resume pays only for the rest."""
    _, paths = world
    criteria = ("majority_vote", "verifier", "oracle")
    backend = InterruptingBackendConfig(kind="mock", script_path=paths["script"], calls=k)
    config = mock_config(tmp_path, paths, run_name="interrupted", criteria=criteria, backend=backend)
    with pytest.raises(KeyboardInterrupt):
        run(config)
    journal = Path(config.run_dir, "journal.jsonl")
    data = journal.read_bytes() if journal.exists() else b""
    assert data.count(b"\n") == k and data.endswith(b"\n") == bool(k)
    kinds = [json.loads(line)["kind"] for line in data.splitlines()]
    assert kinds.count("generate") == min(k, 20)
    resumed = run(mock_config(tmp_path, paths, run_name="interrupted", criteria=criteria))
    assert resumed.exit_code == 0 and resumed.backend_calls == 39 - k
    fresh = run(mock_config(tmp_path, paths, run_name="interrupted_fresh", criteria=criteria))
    assert run_outputs(resumed.run_dir) == run_outputs(fresh.run_dir)


class EndpointMock(OpenAIClient):
    """An endpoint client whose calls the mock answers at once, with no
    network: the run sees an ``OpenAIClient`` that never waits."""

    def __init__(self, script):
        super().__init__("http://127.0.0.1:9/v1", model="m", max_retries=0)
        self.mock = MockBackend(script)

    def generate(self, prompt, params):
        return self.mock.generate(prompt, params)

    def completion_probability(self, prompt_text_, candidates):
        return self.mock.completion_probability(prompt_text_, candidates)


@dataclass
class EndpointConfig(BackendConfig):
    def build(self):
        with open(self.script_path) as handle:
            return EndpointMock(json.load(handle))


@pytest.mark.parametrize("where", ["backend", "verifier_backend"])
def test_a_run_with_an_endpoint_sends_every_call_to_the_workers(tmp_path, world, monkeypatch, steady_clock, where):
    """An endpoint waits on the network however fast it answers, so a run
    whose backend or verifier backend is one sends every backend call to
    the workers from the first, though no call reads as waiting here."""
    _, paths = world
    threads = record_threads(monkeypatch, MockBackend)
    endpoint = EndpointConfig(kind="openai", script_path=paths["script"])
    config = mock_config(tmp_path, paths, run_name=where, **{where: endpoint})
    result = run(config)
    assert result.exit_code == 0
    assert len(threads) == result.backend_calls == 39  # 20 generations, 19 prefix calls
    assert threading.get_ident() not in threads


def test_temperature_change_on_resume_regenerates_every_record(tmp_path, world):
    _, paths = world
    assert run(mock_config(tmp_path, paths, run_name="temp")).backend_calls > 20
    cold = SamplingParams(temperature=0.0)
    resumed = run(mock_config(tmp_path, paths, run_name="temp", sampling=cold))
    assert resumed.backend_calls == 20
    replay_dir = tmp_path / "temp_replay"
    os.makedirs(replay_dir)
    shutil.copyfile(tmp_path / "temp" / "journal.jsonl", replay_dir / "journal.jsonl")
    run(mock_config(tmp_path, paths, run_name="temp_replay", sampling=cold, replay=True))
    for name in ("records.jsonl", "selections.jsonl", "report.md", "manifest.json"):
        assert (tmp_path / "temp" / name).read_bytes() == (replay_dir / name).read_bytes(), name


@pytest.mark.parametrize(
    "change, calls, count",
    [
        ({"instruction_tags": True}, 20, 20),
        ({"strategies": ("supposition_following", "chain_construction")}, 0, 8),
    ],
)
def test_resume_keeps_only_this_runs_records(tmp_path, world, change, calls, count):
    _, paths = world
    criteria = ("majority_vote", "max_prob", "oracle")
    run(mock_config(tmp_path, paths, criteria=criteria))
    resumed = run(mock_config(tmp_path, paths, criteria=criteria, **change))
    assert resumed.backend_calls == calls
    assert len(resumed.records) == count
    run_dir = Path(resumed.run_dir)
    stored = load_records(str(run_dir / "records.jsonl"))
    assert [r.to_obj() for r in stored] == [r.to_obj() for r in resumed.records]
    assert sweep(stored, "max_prob")
    tables = {name: (run_dir / name).read_bytes() for name in ("report.md", "report_kk.csv")}
    assert cli_main(["report", "--run-dir", str(run_dir)]) == 0
    assert tables == {name: (run_dir / name).read_bytes() for name in tables}


def _run_files(run_dir: Path) -> dict[str, tuple[bytes, int, int]]:
    return {path.name: (path.read_bytes(), path.stat().st_ino, path.stat().st_mtime_ns) for path in run_dir.iterdir()}


def test_noop_rerun_leaves_records_file_untouched(tmp_path, world):
    """A no-op rerun from a corpus file and from a generate spec, and
    ``logicpool report`` over a finished directory, leave every file of the
    run directory as it was: its bytes, its inode and its mtime."""
    _, paths = world
    script = tmp_path / "generic.json"
    script.write_text(json.dumps({"responses": [{"match": "", "text": "Answer: nothing"}]}))
    generated = ExperimentConfig(
        run_dir=str(tmp_path / "generated"),
        generate=GenerateSpec(kk_sizes=(3,), kk_per_size=2, zebra_configs=((2, 2, 1),), seed=11),
        backend=BackendConfig(kind="mock", script_path=str(script)),
    )
    cases = [
        ("corpus", mock_config(tmp_path, paths, run_name="noop"), run),
        ("generate", generated, run),
        ("report", mock_config(tmp_path, paths, run_name="report"), lambda config: cli_main(["report", "--run-dir", config.run_dir])),
    ]
    for case, config, again in cases:
        assert run(config).exit_code == 0, case
        run_dir = Path(config.run_dir)
        for path in run_dir.iterdir():
            os.utime(path, ns=(10**18, 10**18))  # in 2001: a write would move it to now
        before = _run_files(run_dir)
        assert {"corpus.jsonl", "records.jsonl", "selections.jsonl", "report.md", "manifest.json"} <= set(before)
        result = again(config)
        assert result == 0 if case == "report" else result.backend_calls == 0, case
        after = _run_files(run_dir)
        assert sorted(after) == sorted(before), case
        assert [name for name in sorted(before) if after[name] != before[name]] == [], case


def test_manifest_hashes_the_corpus_file_the_run_holds(tmp_path, world):
    """From a corpus file and from a generate spec, ``manifest.json`` holds
    the sha256 of the run's ``corpus.jsonl`` (for a corpus file, its bytes),
    the corpus and record counts, as two-space indented JSON and a newline."""
    _, paths = world
    spec = GenerateSpec(kk_sizes=(3,), kk_per_size=2, zebra_configs=((2, 2, 1),), seed=11)
    for config, size in (
        (mock_config(tmp_path, paths, criteria=("oracle",)), 4),
        (mock_config(tmp_path, paths, run_name="gen", corpus_path=None, generate=spec, criteria=("oracle",)), 3),
    ):
        result = run(config)
        run_dir = Path(config.run_dir)
        corpus = (run_dir / "corpus.jsonl").read_bytes()
        if config.corpus_path:
            assert corpus == Path(config.corpus_path).read_bytes()
        text = (run_dir / "manifest.json").read_text(encoding="utf-8")
        manifest = json.loads(text)
        assert text == json.dumps(manifest, indent=2, ensure_ascii=False) + "\n"
        assert manifest["corpus_sha256"] == hashlib.sha256(corpus).hexdigest()
        assert (manifest["corpus_size"], manifest["record_count"]) == (size, len(result.records))


def test_puzzles_with_one_prompt_keep_their_own_records(tmp_path, world):
    """Two puzzles that render the same prompts share journal entries, but
    each keeps its own records across reruns."""
    world_obj, paths = world
    obj = puzzle_to_obj(world_obj.puzzles["kkA"])
    corpus_path = tmp_path / "twins.jsonl"
    twin = json.dumps({**obj, "id": obj["id"] + "-twin"})
    corpus_path.write_text(Path(paths["corpus"]).read_text() + twin + "\n")
    twins = {"corpus": str(corpus_path), "script": paths["script"]}
    config = mock_config(tmp_path, twins, run_name="twins")
    first = run(config)
    assert len({r.key for r in first.records}) == len(first.records) - 5
    records_path = Path(config.run_dir, "records.jsonl")
    before = records_path.stat()
    second = run(mock_config(tmp_path, twins, run_name="twins"))
    assert second.backend_calls == 0
    assert [r.puzzle_id for r in second.records] == [r.puzzle_id for r in first.records]
    assert records_path.stat().st_ino == before.st_ino


def test_sweep_midpoint_matches_run_selection(tmp_path, world):
    _, paths = world
    result = run(mock_config(tmp_path, paths))
    for criterion in ("max_prob", "min_entropy"):
        rows = sweep(result.records, criterion)
        at_half = next(accuracy for lam, accuracy, _ in rows if lam == 0.5)
        selected = [s for s in result.selections if s.criterion == criterion]
        run_accuracy = sum(s.correct for s in selected) / len(selected)
        assert at_half == run_accuracy


def test_run_with_generated_corpus_and_unparseable_responses(tmp_path):
    # a generic mock rule with no answer block: every candidate is
    # unparseable, criteria degrade to no-answer rows, oracle scores 0
    script_path = tmp_path / "generic.json"
    with open(script_path, "w") as handle:
        json.dump({"responses": [{"match": "", "text": "I have no conclusion."}]}, handle)
    config = ExperimentConfig(
        run_dir=str(tmp_path / "gen_run"),
        generate=GenerateSpec(kk_sizes=(3,), kk_per_size=2, zebra_configs=((2, 2, 1),), seed=11),
        backend=BackendConfig(kind="mock", script_path=str(script_path)),
        criteria=("majority_vote", "max_prob", "oracle"),
    )
    result = run(config)
    assert result.exit_code == 0
    assert os.path.exists(os.path.join(config.run_dir, "corpus.jsonl"))
    assert len(result.records) == 3 * 5
    assert all(not r.answer.parse_ok for r in result.records)
    for row in result.selections:
        assert not row.correct
        if row.criterion != "oracle":
            assert row.error  # no parseable candidate to select
    # a resume rebuilds the same corpus from the spec and reuses the journal
    second = run(
        ExperimentConfig(
            run_dir=config.run_dir,
            generate=config.generate,
            backend=config.backend,
            criteria=config.criteria,
        )
    )
    assert second.backend_calls == 0
    assert [r.to_obj() for r in second.records] == [r.to_obj() for r in result.records]


def test_resume_with_a_new_generate_spec_runs_the_new_corpus(tmp_path):
    """The corpus always comes from the config: a resume under a new seed
    runs that seed's puzzles and writes the same files as replaying its
    journal into a fresh directory."""
    script_path = tmp_path / "generic.json"
    script_path.write_text(json.dumps({"responses": [{"match": "", "text": "I have no conclusion."}]}))

    def config(seed, run_name, replay=False):
        return ExperimentConfig(
            run_dir=str(tmp_path / run_name),
            generate=GenerateSpec(kk_sizes=(3,), kk_per_size=1, zebra_configs=((2, 2, 1),), seed=seed),
            backend=BackendConfig(kind="mock", script_path=str(script_path)),
            criteria=("majority_vote", "max_prob", "oracle"),
            replay=replay,
        )

    run(config(0, "seeded"))
    resumed = run(config(5, "seeded"))
    assert {r.puzzle_id for r in resumed.records} == {p.puzzle_id for p in build_corpus(config(5, "seeded"))}
    replay_dir = tmp_path / "seeded_replay"
    os.makedirs(replay_dir)
    shutil.copyfile(tmp_path / "seeded" / "journal.jsonl", replay_dir / "journal.jsonl")
    assert run(config(5, "seeded_replay", replay=True)).exit_code == 0
    for name in ("corpus.jsonl", "records.jsonl", "selections.jsonl", "report.md"):
        assert (tmp_path / "seeded" / name).read_bytes() == (replay_dir / name).read_bytes(), name


def test_run_directory_lock(tmp_path, world):
    _, paths = world
    config = mock_config(tmp_path, paths, run_name="locked")
    os.makedirs(config.run_dir)
    with open(os.path.join(config.run_dir, ".lock"), "w") as holder:
        fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)
        with pytest.raises(ConfigError):
            run(config)


def test_leftover_lock_file_does_not_block(tmp_path, world):
    _, paths = world
    config = mock_config(tmp_path, paths, run_name="stale")
    os.makedirs(config.run_dir)
    # what a killed holder leaves behind: the file, without a lock on it
    with open(os.path.join(config.run_dir, ".lock"), "w") as handle:
        handle.write("12345")
    assert run(config).exit_code == 0
    # the run released its lock on the way out
    with open(os.path.join(config.run_dir, ".lock")) as holder:
        fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)


def test_separate_verifier_backend_uses_own_journal(tmp_path, world):
    _, paths = world
    config = mock_config(
        tmp_path,
        paths,
        verifier_backend=BackendConfig(kind="mock", script_path=paths["script"]),
    )
    result = run(config)
    assert result.exit_code == 0
    generation_kinds = {e["kind"] for e in read_jsonl(os.path.join(config.run_dir, "journal.jsonl"))}
    assert generation_kinds == {"generate"}
    verifier_entries = read_jsonl(os.path.join(config.run_dir, "verifier_journal.jsonl"))
    assert verifier_entries
    assert {e["kind"] for e in verifier_entries} == {"completion_probability"}
    assert result.backend_calls == 20 + len(verifier_entries)


def test_strategy_pool_preset_runs_without_baseline(tmp_path, world):
    _, paths = world
    config = mock_config(
        tmp_path,
        paths,
        strategies=(
            "supposition_following",
            "chain_construction",
            "compound_strategy",
            "concatenation_strategy",
        ),
        criteria=("majority_vote", "max_prob", "oracle"),
    )
    result = run(config)
    assert len(result.records) == 4 * 4
    assert "no_strategy" not in {r.strategy for r in result.records}
    # kkA now has one correct (supp) vs two wrong (chain, comp): majority wrong
    kk_a = next(r.puzzle_id for r in result.records if r.difficulty == "3 Person")
    majority = next(
        s for s in result.selections if s.puzzle_id == kk_a and s.criterion == "majority_vote"
    )
    assert not majority.correct and not majority.tie_occurred


def test_unsorted_strategy_list_writes_pools_in_strategy_order(tmp_path, world):
    """Whatever order ``strategies`` lists, each pool's records are written
    in strategy order, and the selections and report are byte for byte
    those of the sorted list."""
    _, paths = world
    keys = [s.key for s in Strategy]
    shuffled = ("compound_strategy", "no_strategy", "concatenation_strategy", "chain_construction",
                "supposition_following")
    sorted_run = run(mock_config(tmp_path, paths, run_name="sorted", strategies=tuple(keys)))
    shuffled_run = run(mock_config(tmp_path, paths, run_name="shuffled", strategies=shuffled))
    stored = load_records(str(tmp_path / "shuffled" / "records.jsonl"))
    assert [r.strategy for r in stored] == [r.strategy for r in shuffled_run.records] == keys * 4
    assert [r.strategy for r in sorted_run.records] == keys * 4
    for name in ("selections.jsonl", "report.md"):
        assert (tmp_path / "shuffled" / name).read_bytes() == (tmp_path / "sorted" / name).read_bytes()


def test_samples_multiply_records(tmp_path, world):
    _, paths = world
    config = mock_config(tmp_path, paths, run_name="sampled", samples=2)
    result = run(config)
    assert len(result.records) == 4 * 5 * 2
    assert {r.sample for r in result.records} == {0, 1}
    per_sample_rows = {(s.puzzle_id, s.sample) for s in result.selections}
    assert len(per_sample_rows) == 8


# ---------------------------------------------------------------------------
# stratify unit fixture
# ---------------------------------------------------------------------------


def _record(puzzle_id, difficulty, strategy, correct, family="kk"):
    return EvalRecord(
        puzzle_id=puzzle_id,
        family=family,
        difficulty=difficulty,
        strategy=strategy,
        sample=0,
        request_sha256="h",
        response_text="",
        finish_reason="stop",
        answer=CanonicalAnswer.unparsed(family),
        correct=correct,
    )


def test_record_roundtrip_with_annotations():
    record = _record("p1", "3 Person", "no_strategy", True)
    record.annotations = {"observed_strategy": "supposition_following", "annotator": "rk"}
    record.verifier = None
    clone = EvalRecord.from_obj(json.loads(json.dumps(record.to_obj())))
    assert clone.to_obj() == record.to_obj()
    assert clone.annotations["observed_strategy"] == "supposition_following"


def test_clue_accuracy_series(tmp_path, world):
    _, paths = world
    result = run(mock_config(tmp_path, paths))
    from logicpool.harness.report import clue_count_series

    series = clue_count_series(result.records, result.selections)
    assert series, "zebra records must produce clue-count rows"
    names = {name for name, _, _, _ in series}
    assert "Oracle" in names and "No strategy" in names
    zebra_records = [r for r in result.records if r.family == "zebra"]
    observed_counts = {r.n_clues for r in zebra_records}
    assert {n for _, n, _, _ in series} <= observed_counts
    # within each (row, clue count) cell the accuracy is correct/total
    for name, n_clues, accuracy, total in series:
        assert 0.0 <= accuracy <= 1.0 and total >= 1


def test_stratify_exact_percentages():
    records = [
        _record("p1", "3 Person", "no_strategy", True),
        _record("p2", "3 Person", "no_strategy", False),
        _record("p3", "5 Person", "no_strategy", True),
        _record("p1", "3 Person", "chain_construction", False),
    ]
    selections = [
        SelectionRow("p1", "kk", "3 Person", "majority_vote", True),
        SelectionRow("p2", "kk", "3 Person", "majority_vote", False),
        SelectionRow("p3", "kk", "5 Person", "majority_vote", False),
    ]
    table = stratify(records, selections, "kk")
    assert table.accuracy("No strategy", "3 Person") == 0.5
    assert table.accuracy("No strategy", "5 Person") == 1.0
    assert table.accuracy("No strategy", "Avg.") == pytest.approx(2 / 3)
    assert table.accuracy("No strategy", "4 Person") is None
    assert table.accuracy("Chain Construction", "3 Person") == 0.0
    assert table.accuracy("majority_vote", "Avg.") == pytest.approx(1 / 3)
    markdown = table.to_markdown()
    assert "| No strategy" in markdown and "66.7%" in markdown
    csv = table.to_csv()
    assert csv.splitlines()[0] == "row,3 Person,4 Person,5 Person,6 Person,Avg."


# ---------------------------------------------------------------------------
# config casts, torn records, verifier failures, the lazy journal
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "change, setting",
    [
        ({"samples": "two"}, "samples"),
        ({"concurrency": "many"}, "concurrency"),
        ({"lambda_p": "half"}, "lambda_p"),
        ({"lambda_e": [0.5]}, "lambda_e"),
        ({"corpus": {"generate": {"kk_sizes": [3], "kk_per_size": "ten"}}}, "corpus.generate.kk_per_size"),
        ({"corpus": {"generate": {"kk_sizes": [3], "kk_per_size": 1, "seed": "s"}}}, "corpus.generate.seed"),
        ({"corpus": {"generate": {"preset": "desk", "seed": None}}}, "corpus.generate.seed"),
        ({"backend": {"kind": "mock", "script": "m.json", "max_retries": "three"}}, "backend.max_retries"),
        ({"verifier_backend": {"kind": "mock", "script": "m.json", "timeout": "x"}}, "verifier_backend.timeout"),
        ({"instruction_tags": "false"}, "instruction_tags"),
        ({"replay": "no"}, "replay"),
        ({"backend": {"kind": "mokc", "script": "m.json"}}, "backend.kind"),
        ({"backend": {"kind": "openai", "base_url": "http://h/v1", "model": "m", "api": "chatt"}}, "backend.api"),
        ({"strategies": ["no_strategy", "chain_constrution"]}, "strategies"),
        ({"corpus": {"generate": {"zebra_configs": [[2, 2]]}}}, "corpus.generate.zebra_configs"),
        ({"corpus": {"generate": {"kk_sizes": ["x"], "kk_per_size": 1}}}, "corpus.generate.kk_sizes"),
        ({"corpus": {"generate": {"kk_sizes": [9], "kk_per_size": 1}}}, "corpus.generate.kk_sizes"),
        ({"strategies": 5}, "strategies"),
        ({"criteria": 5}, "criteria"),
    ],
)
def test_config_values_that_do_not_cast_are_config_errors(tmp_path, change, setting):
    obj = {"run_dir": "rd", "corpus": {"path": "c.jsonl"}, "backend": {"kind": "mock", "script": "m.json"}}
    with pytest.raises(ConfigError, match=f"config {setting}: "):
        config_from_obj({**obj, **change}, base_dir=str(tmp_path))


@pytest.mark.parametrize(
    "change, setting",
    [
        ({"samples": 2.9}, "samples"),
        ({"concurrency": True}, "concurrency"),
        ({"corpus": {"generate": {"kk_sizes": [3], "kk_per_size": 2.5}}}, "corpus.generate.kk_per_size"),
        ({"corpus": {"generate": {"kk_sizes": [3], "kk_per_size": 1, "seed": 1.5}}}, "corpus.generate.seed"),
        ({"corpus": {"generate": {"preset": "desk", "seed": True}}}, "corpus.generate.seed"),
        ({"sampling": {"max_tokens": 100.5}}, "sampling.max_tokens"),
        ({"sampling": {"top_k": True}}, "sampling.top_k"),
        ({"sampling": {"seed": 1.5}}, "sampling.seed"),
        ({"backend": {"kind": "mock", "script": "m.json", "max_retries": 2.5}}, "backend.max_retries"),
    ],
)
def test_integer_settings_refuse_floats_and_booleans(tmp_path, change, setting):
    obj = {"run_dir": "rd", "corpus": {"path": "c.jsonl"}, "backend": {"kind": "mock", "script": "m.json"}}
    with pytest.raises(ConfigError, match=f"config {setting}: .* is not a valid value"):
        config_from_obj({**obj, **change}, base_dir=str(tmp_path))


@pytest.fixture
def no_logicpool_env(monkeypatch):
    for name in [name for name in os.environ if name.startswith("LOGICPOOL_")]:
        monkeypatch.delenv(name)


@pytest.mark.parametrize("where", ["backend", "verifier_backend"])
@pytest.mark.parametrize("key, value", [("max_retries", -1), ("timeout", 0), ("timeout", -2.5)])
def test_negative_retries_and_non_positive_timeouts_are_one_error_line(
    tmp_path, capsys, no_logicpool_env, where, key, value
):
    """Such a backend would fail every request after zero attempts, so the
    config refuses it: one error line naming the setting, exit 1 and no run
    directory."""
    obj = {"run_dir": "rd", "corpus": {"path": "c.jsonl"}, "backend": {"kind": "mock", "script": "m.json"}}
    obj[where] = {"kind": "mock", "script": "m.json", key: value}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(obj))
    assert cli_main(["run", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {where}.{key}: {value!r} is not a valid value") and err.count("\n") == 1
    assert not (tmp_path / "rd").exists()


def test_zero_retries_and_a_positive_timeout_load(tmp_path):
    obj = {"run_dir": "rd", "corpus": {"path": "c.jsonl"},
           "backend": {"kind": "mock", "script": "m.json", "max_retries": 0, "timeout": 0.5}}
    backend = config_from_obj(obj, base_dir=str(tmp_path)).backend
    assert (backend.max_retries, backend.timeout) == (0, 0.5)


ABSENT = object()  # a change that removes the key


@pytest.mark.parametrize(
    "change, setting",
    [
        ({"lambda_p": True}, "lambda_p"),
        ({"lambda_e": "0.5"}, "lambda_e"),
        ({"sampling": {"top_p": "0.5"}}, "sampling.top_p"),
        ({"sampling": {"temperature": False}}, "sampling.temperature"),
        ({"backend": {"kind": "mock", "script": "m.json", "timeout": "inf"}}, "backend.timeout"),
        ({"run_dir": 5}, "run_dir"),
        ({"corpus": {"path": 5}}, "corpus.path"),
        ({"backend": {"kind": "openai", "base_url": 5, "model": "m"}}, "backend.base_url"),
        ({"backend": {"kind": "mock", "script": 5}}, "backend.script"),
        ({"verifier_backend": {"kind": "mock", "script": "m.json", "api_key_env": 5}}, "verifier_backend.api_key_env"),
        ({"criteria": "oracle"}, "criteria"),
        ({"run_dir": ABSENT}, "run_dir"),
    ],
    ids=[
        "lambda_p-true", "lambda_e-string", "top_p-string", "temperature-false", "timeout-inf-string",
        "run_dir-number", "corpus-path-number", "base_url-number", "script-number", "api_key_env-number",
        "criteria-bare-string", "no-run_dir",
    ],
)
def test_config_values_of_the_wrong_json_type_are_one_error_line(tmp_path, capsys, no_logicpool_env, change, setting):
    """Each setting has one JSON type: a value of another type is a
    ConfigError naming the setting, and `run --config` prints one error
    line and exits 1 without making the run directory."""
    base = {"run_dir": "rd", "corpus": {"path": "c.jsonl"}, "backend": {"kind": "mock", "script": "m.json"}}
    obj = {key: value for key, value in {**base, **change}.items() if value is not ABSENT}
    with pytest.raises(ConfigError, match=f"config {setting}: "):
        config_from_obj(obj, base_dir=str(tmp_path))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(obj))
    assert cli_main(["run", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {setting}: ") and err.count("\n") == 1
    assert not (tmp_path / "rd").exists()


@pytest.mark.parametrize(
    "change, setting",
    [
        ({"lambda_p": float("nan")}, "lambda_p"),
        ({"sampling": {"temperature": float("nan")}}, "sampling.temperature"),
        ({"backend": {"kind": "mock", "script": "m.json", "timeout": float("inf")}}, "backend.timeout"),
        ({"backend": {"kind": "mock", "script": "m.json", "timeout": 10**400}}, "backend.timeout"),
        ({"strategies": "al"}, "strategies"),
        ({"strategies": {"no_strategy": 1}}, "strategies"),
        ({"corpus": {"generate": {"kk_sizes": "34", "kk_per_size": 1}}}, "corpus.generate.kk_sizes"),
        ({"corpus": {"generate": {"zebra_configs": "2x2"}}}, "corpus.generate.zebra_configs"),
        ({"corpus": {"generate": {"preset": "desk", "kk_sizes": [3]}}}, "corpus.generate"),
        ({"corpus": {"path": ""}}, "corpus.path"),
        ({"lambda_p": None}, "lambda_p"),
        ({"backend": {"kind": None, "script": "m.json"}}, "backend.kind"),
        ({"samples": None}, "samples"),
        ({"corpus": {"generate": None}}, "corpus.generate"),
    ],
)
def test_config_refuses_non_finite_numbers_bare_strings_and_nulls(tmp_path, change, setting):
    obj = {"run_dir": "rd", "corpus": {"path": "c.jsonl"}, "backend": {"kind": "mock", "script": "m.json"}}
    with pytest.raises(ConfigError, match=f"config {setting}[: ]"):
        config_from_obj({**obj, **change}, base_dir=str(tmp_path))


def test_null_string_settings_and_sampling_seed_are_the_defaults(tmp_path, no_logicpool_env):
    obj = {
        "run_dir": "rd",
        "corpus": {"path": "c.jsonl"},
        "sampling": {"seed": None},
        "backend": {"kind": "openai", "base_url": "http://h/v1", "model": "m", "api_key": None, "script": None},
        "verifier_backend": {"kind": "mock", "script": "v.json", "base_url": None, "api_key_env": None},
    }
    config = config_from_obj(obj, base_dir=str(tmp_path))
    assert config.sampling == SamplingParams()
    assert config.backend == BackendConfig(kind="openai", base_url="http://h/v1", model="m")
    assert config.verifier_backend == BackendConfig(kind="mock", script_path=str(tmp_path / "v.json"))


def test_empty_strategy_pool_is_a_config_error(tmp_path, world, capsys):
    with pytest.raises(ConfigError, match="config strategies: "):
        ExperimentConfig(run_dir=str(tmp_path / "run"), corpus_path="x.jsonl", strategies=())
    _, paths = world
    config = {
        "run_dir": "run",
        "corpus": {"path": paths["corpus"]},
        "strategies": [],
        "backend": {"kind": "mock", "script": paths["script"]},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert cli_main(["run", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err.startswith("error: config strategies: ")
    assert not (tmp_path / "run").exists()


def test_config_file_that_is_not_json_is_one_error_line(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text('{"run_dir": "rd",')
    assert cli_main(["run", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config_path}: not a JSON config file") and err.count("\n") == 1


@pytest.mark.parametrize(
    "backend, expected",
    [
        (
            {"base_url": "http://host:8000/v1/", "model": "m1", "api": "completions", "timeout": 5, "max_retries": 0},
            ("http://host:8000/v1", "m1", "completions", 5.0, 0),
        ),
        ({"base_url": "http://host/v1", "model": "m2"}, ("http://host/v1", "m2", "chat", 120.0, 3)),
    ],
)
def test_config_builds_the_openai_client(tmp_path, no_logicpool_env, backend, expected):
    obj = {"run_dir": "rd", "corpus": {"path": "c.jsonl"}, "backend": {"kind": "openai", **backend}}
    client = config_from_obj(obj, base_dir=str(tmp_path)).backend.build()
    try:
        assert isinstance(client, inference.OpenAIClient)
        assert (client.base_url, client.model, client.api, client.timeout, client.max_retries) == expected
    finally:
        client._session.close()


@pytest.mark.parametrize(
    "backend, message",
    [
        ({"kind": "openai", "model": "m"}, "openai backend needs base_url and model"),
        ({"kind": "openai", "base_url": "http://host/v1"}, "openai backend needs base_url and model"),
        ({"kind": "mock"}, "mock backend needs a script path"),
    ],
)
def test_backend_without_its_endpoint_or_script_is_a_config_error(tmp_path, no_logicpool_env, backend, message):
    obj = {"run_dir": "rd", "corpus": {"path": "c.jsonl"}, "backend": backend}
    config = config_from_obj(obj, base_dir=str(tmp_path))
    with pytest.raises(ConfigError, match=message):
        config.backend.build()


@pytest.mark.parametrize("script", ["scripts/verifier.json", "verifier.json", "ABSOLUTE"])
def test_verifier_backend_script_resolves_against_the_config_directory(tmp_path, no_logicpool_env, script):
    config_dir = tmp_path / "configs"
    config_dir.mkdir()
    if script == "ABSOLUTE":
        script = str(tmp_path / "elsewhere" / "verifier.json")
    obj = {
        "run_dir": "rd",
        "corpus": {"path": "c.jsonl"},
        "backend": {"kind": "mock", "script": "m.json"},
        "verifier_backend": {"kind": "mock", "script": script},
    }
    config_path = config_dir / "config.json"
    config_path.write_text(json.dumps(obj))
    config = config_from_file(str(config_path))
    assert config.verifier_backend.script_path == str(config_dir / script)
    assert config.backend.script_path == str(config_dir / "m.json")


def test_torn_records_line_is_truncated_and_regenerated(tmp_path, world, capsys, caplog):
    """A kill during a pool's append leaves a torn last record: report and
    sweep skip it with a warning and write nothing to the file (a run may
    still be appending that line); the resume truncates it and rebuilds the
    record from the journal."""
    _, paths = world
    config = mock_config(tmp_path, paths, run_name="torn")
    run(config)
    records_path = Path(config.run_dir, "records.jsonl")
    intact = records_path.read_bytes()
    last = intact[: len(intact) - 1].rfind(b"\n") + 1
    torn = intact[: last + 60]
    records_path.write_bytes(torn)

    with caplog.at_level("WARNING", logger="logicpool"):
        assert cli_main(["report", "--run-dir", config.run_dir]) == 0
        assert cli_main(["sweep", "--run-dir", config.run_dir, "--criterion", "max_prob"]) == 0
    assert records_path.read_bytes() == torn
    assert sum("skipping a torn final line" in r.getMessage() for r in caplog.records) == 2
    resumed = run(mock_config(tmp_path, paths, run_name="torn"))
    assert resumed.backend_calls == 0
    assert resumed.exit_code == 0
    assert records_path.read_bytes() == intact
    capsys.readouterr()
    assert cli_main(["report", "--run-dir", config.run_dir]) == 0
    assert "Oracle" in capsys.readouterr().out


def _ten_key_confidence(c):
    """A confidence as versions before journal_format 2 stored it: the four
    segment scores plus six numbers derived at lambda 0.5."""
    p_r, p_a = math.exp(c["log_p_rational"]), math.exp(c["log_p_answer"])
    h_combined = (c["h_rational"] + c["h_answer"]) / 2
    derived = {"p_rational": p_r, "p_answer": p_a, "p_combined": p_r * p_a, "h_combined": h_combined}
    return {"lambda_p": 0.5, "lambda_e": 0.5, **c, **derived}


def _edited(change):
    """A records line rewritten by applying ``change`` to its object."""
    return lambda line: (json.dumps(change(json.loads(line))) + "\n").encode()


# record lines that are not current records: cut short, a missing key, and
# the shapes written before journal_format 2
_NOT_RECORDS = {
    "cut short": lambda line: line[:50] + b"\n",
    "no family": _edited(lambda obj: {k: v for k, v in obj.items() if k != "family"}),
    "prompt_sha256": _edited(
        lambda obj: {("prompt_sha256" if k == "request_sha256" else k): v for k, v in obj.items()}
    ),
    "ten-key confidence": _edited(lambda obj: {**obj, "confidence": _ten_key_confidence(obj["confidence"])}),
    "any_failed verifier": _edited(
        lambda obj: {**obj, "verifier": {"per_chunk": [None], "mean": 0.0, "any_failed": True}}
    ),
}


def test_malformed_records_line_is_a_data_error(tmp_path, world, capsys):
    """A records line that is not a current record is a fatal error naming
    the file and the line, for run, report and sweep alike, and none of them
    writes to the file."""
    _, paths = world
    config = mock_config(tmp_path, paths, run_name="garbled")
    run(config)
    config_path = tmp_path / "garbled.json"
    config_path.write_text(
        json.dumps({"run_dir": config.run_dir, "corpus": {"path": paths["corpus"]},
                    "backend": {"kind": "mock", "script": paths["script"]}})
    )
    records_path = Path(config.run_dir, "records.jsonl")
    lines = records_path.read_bytes().splitlines(keepends=True)
    # a record with both scores, past the first line
    index = next(i for i, line in enumerate(lines) if i and b'"verifier": {' in line and b'"confidence": {' in line)
    for name, garble in _NOT_RECORDS.items():
        records_path.write_bytes(b"".join(lines[:index]) + garble(lines[index]) + b"".join(lines[index + 1 :]))
        garbled = records_path.read_bytes()
        for command in (
            ["run", "--config", str(config_path)],
            ["report", "--run-dir", config.run_dir],
            ["sweep", "--run-dir", config.run_dir, "--criterion", "max_prob"],
        ):
            capsys.readouterr()
            assert cli_main(command) == 1, (name, command[0])
            assert f"records.jsonl: line {index + 1} is malformed" in capsys.readouterr().err, (name, command[0])
            assert records_path.read_bytes() == garbled, (name, command[0])

    records_path.write_bytes(b"".join(lines))
    selections_path = Path(config.run_dir, "selections.jsonl")
    rows = selections_path.read_bytes().splitlines(keepends=True)
    selections_path.write_bytes(rows[0] + rows[1].replace(b'"criterion"', b'"criteria"') + b"".join(rows[2:]))
    capsys.readouterr()
    assert cli_main(["report", "--run-dir", config.run_dir]) == 1
    assert "selections.jsonl: line 2 is malformed" in capsys.readouterr().err


class FlakyVerifierMock(MockBackend):
    """Fails every third prefix call with a BackendError."""

    def __init__(self, script, counts):
        super().__init__(script)
        self.counts = counts
        self.lock = threading.Lock()

    def completion_probability(self, prompt_text_, candidates):
        with self.lock:
            self.counts["calls"] += 1
            failing = self.counts["calls"] % 3 == 0
            self.counts["failed" if failing else "answered"] += 1
        if failing:
            raise BackendError("prefix call failed")
        return super().completion_probability(prompt_text_, candidates)


@dataclass
class FlakyBackendConfig(BackendConfig):
    counts: dict = field(default_factory=lambda: {"calls": 0, "failed": 0, "answered": 0})

    def build(self):
        with open(self.script_path) as handle:
            return FlakyVerifierMock(json.load(handle), self.counts)


def test_failed_verifier_prefix_is_a_failure_and_is_retried(tmp_path, world, monkeypatch):
    """With 3-word chunks every response has several prefixes. A failed
    prefix fails its candidate's verification: a "verify" failure row, exit
    code 2 and no stored score; a healthy resume verifies it again, asking
    the backend only for the prefixes the journal lacks."""
    _, paths = world
    # the package exports the function run under the module's name
    run_module = importlib.import_module("logicpool.harness.run")
    monkeypatch.setattr(run_module, "chunk", lambda text: chunk(text, target_words=3))
    criteria = ("verifier", "oracle")
    flaky = FlakyBackendConfig(kind="mock", script_path=paths["script"])
    first = run(mock_config(tmp_path, paths, run_name="flaky", criteria=criteria, backend=flaky))
    assert flaky.counts["failed"] > 0
    assert first.exit_code == 2
    assert {f["kind"] for f in first.failures} == {"verify"}
    failed = {(f["puzzle_id"], f["strategy"]) for f in first.failures}
    for record in load_records(os.path.join(tmp_path, "flaky", "records.jsonl")):
        prefixes = len(chunk(record.response_text, target_words=3).chunks)
        if (record.puzzle_id, record.strategy) in failed:
            assert record.verifier is None
        elif record.answer.parse_ok:
            assert len(record.verifier.per_chunk) == prefixes > 1

    resumed = run(mock_config(tmp_path, paths, run_name="flaky", criteria=criteria))
    assert resumed.exit_code == 0
    verified = [r for r in resumed.records if r.answer.parse_ok]
    prefixes = sum(len(chunk(r.response_text, target_words=3).chunks) for r in verified)
    assert resumed.backend_calls == prefixes - flaky.counts["answered"]
    fresh = run(mock_config(tmp_path, paths, run_name="flaky_fresh", criteria=criteria))
    assert without_timing(resumed.records) == without_timing(fresh.records)


def test_cached_rerun_decodes_no_journal_entry(tmp_path, world, monkeypatch):
    """A fully cached rerun reads only the journal's keys: it runs even when
    every entry's body is unreadable, and never calls response_from_obj."""
    _, paths = world
    config = mock_config(tmp_path, paths, run_name="lazy")
    run(config)
    journal = Path(config.run_dir, "journal.jsonl")
    records_before = Path(config.run_dir, "records.jsonl").read_bytes()
    lines = journal.read_bytes().splitlines()
    journal.write_bytes(b"".join(line[: line.index(b'"kind"')] + b"unreadable}\n" for line in lines))
    decoded = []
    real = inference.response_from_obj
    monkeypatch.setattr(inference, "response_from_obj", lambda obj: decoded.append(obj) or real(obj))
    rerun = run(config)
    assert rerun.backend_calls == 0 and rerun.exit_code == 0
    assert decoded == []
    assert Path(config.run_dir, "records.jsonl").read_bytes() == records_before

    replay_dir = tmp_path / "lazy_replay"
    os.makedirs(replay_dir)
    shutil.copyfile(journal, replay_dir / "journal.jsonl")
    replay = run(mock_config(tmp_path, paths, run_name="lazy_replay", replay=True))
    assert replay.exit_code == 2
    assert len(replay.failures) == 20
    assert all(f["kind"] == "generate" and "journal.jsonl: line" in f["error"] for f in replay.failures)


def test_resume_calls_the_backend_only_for_journal_misses(tmp_path, world):
    """The first pool keeps its records; of the other requests, every other
    one stays in the journal and the rest are gone. The resume serves the
    journal hits from the journal and calls the backend only for the
    misses."""
    _, paths = world
    criteria = ("majority_vote", "max_prob", "oracle")
    config = mock_config(tmp_path, paths, run_name="partial", criteria=criteria)
    first = run(config)
    keys = [r.request_sha256 for r in first.records]
    assert len(set(keys)) == len(keys) == 20
    hits, misses = keys[5::2], keys[6::2]
    records_path = Path(config.run_dir, "records.jsonl")
    records_path.write_bytes(b"".join(records_path.read_bytes().splitlines(keepends=True)[:5]))
    journal = Path(config.run_dir, "journal.jsonl")
    kept = set(keys[:5] + hits)
    lines = journal.read_bytes().splitlines(keepends=True)
    journal.write_bytes(b"".join(line for line in lines if json.loads(line)["key"] in kept))

    resumed = run(config)
    assert resumed.backend_calls == len(misses)
    assert resumed.exit_code == 0
    assert without_timing(resumed.records) == without_timing(first.records)
    assert without_timing(load_records(str(records_path))) == without_timing(first.records)


def test_replay_holds_one_decoded_response_at_a_time(tmp_path, world, monkeypatch):
    """Each journal hit is decoded, scored and dropped before the next is
    decoded."""
    _, paths = world
    config = mock_config(tmp_path, paths, run_name="one_at_a_time")
    run(config)
    replay_dir = tmp_path / "one_at_a_time_replay"
    os.makedirs(replay_dir)
    shutil.copyfile(os.path.join(config.run_dir, "journal.jsonl"), replay_dir / "journal.jsonl")
    decoded = []
    real = inference.response_from_obj

    def tracked(obj):
        alive = sum(ref() is not None for ref in decoded)
        assert alive == 0, f"{alive} earlier responses are still alive"
        response = real(obj)
        decoded.append(weakref.ref(response))
        return response

    monkeypatch.setattr(inference, "response_from_obj", tracked)
    replay = run(mock_config(tmp_path, paths, run_name="one_at_a_time_replay", replay=True))
    assert replay.exit_code == 0
    assert len(decoded) == 20
