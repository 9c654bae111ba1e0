import fcntl
import hashlib
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from logicpool.cli import main as cli_main
from logicpool.errors import ConfigError
from logicpool.inference import MockBackend, SamplingParams
from logicpool.harness.config import (
    BackendConfig,
    ExperimentConfig,
    GenerateSpec,
    config_from_obj,
    desk_generate_spec,
)
from logicpool.harness.records import (
    EvalRecord,
    SelectionRow,
    candidate_pool,
    load_records,
    read_jsonl,
)
from logicpool.harness.report import stratify
from logicpool.harness.run import apply_criterion, build_corpus, run
from logicpool.harness.sweep import sweep
from logicpool.prompts import Strategy, render
from logicpool.puzzles import puzzle_to_obj
from logicpool.selection import CRITERIA, ORACLE, CanonicalAnswer

from conftest import STRATEGY_SENTINELS, ClosedWorld


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


def test_replay_into_fresh_directory_is_byte_identical(tmp_path, world):
    _, paths = world
    config_a = mock_config(tmp_path, paths, run_name="runA")
    run(config_a)
    run_b_dir = tmp_path / "runB"
    os.makedirs(run_b_dir)
    shutil.copyfile(os.path.join(config_a.run_dir, "journal.jsonl"), run_b_dir / "journal.jsonl")
    config_b = mock_config(tmp_path, paths, run_name="runB", replay=True)
    result_b = run(config_b)
    assert result_b.backend_calls == 0
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


def test_crash_does_not_wait_for_queued_generations(tmp_path, world):
    # verifier criteria are left out: verification shares the executor's
    # queue and would wait behind it
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


def test_records_without_request_key_resume_from_the_journal(tmp_path, world):
    """Records written before they carried their request key (with the
    prompt's sha256 instead) match no request: a resume rebuilds them from
    the journal with zero backend calls."""
    _, paths = world
    first = run(mock_config(tmp_path, paths, run_name="old"))
    corpus = {p.puzzle_id: p for p in build_corpus(mock_config(tmp_path, paths))}
    old_lines = []
    for record in first.records:
        prompt = render(Strategy.from_key(record.strategy), corpus[record.puzzle_id])
        obj = record.to_obj()
        del obj["request_sha256"]
        obj["prompt_sha256"] = hashlib.sha256(prompt.full_text.encode("utf-8")).hexdigest()
        old_lines.append(json.dumps(obj, ensure_ascii=False) + "\n")
    records_path = tmp_path / "old" / "records.jsonl"
    records_path.write_text("".join(old_lines), encoding="utf-8")
    assert len(load_records(str(records_path))) == 20  # still loads for report and sweep

    resumed = run(mock_config(tmp_path, paths, run_name="old"))
    assert resumed.backend_calls == 0
    replay_dir = tmp_path / "old_replay"
    os.makedirs(replay_dir)
    shutil.copyfile(tmp_path / "old" / "journal.jsonl", replay_dir / "journal.jsonl")
    run(mock_config(tmp_path, paths, run_name="old_replay", replay=True))
    assert records_path.read_bytes() == (replay_dir / "records.jsonl").read_bytes()
    journal_keys = {e["key"] for e in read_jsonl(str(tmp_path / "old" / "journal.jsonl"))}
    assert all(obj["request_sha256"] in journal_keys for obj in read_jsonl(str(records_path)))


def test_noop_rerun_leaves_records_file_untouched(tmp_path, world):
    _, paths = world
    config = mock_config(tmp_path, paths, run_name="noop")
    run(config)
    records_path = Path(config.run_dir, "records.jsonl")
    before = records_path.stat()
    assert run(config).backend_calls == 0
    after = records_path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


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


def ten_key_confidence(obj):
    """A record object with its confidence as earlier versions stored it:
    the four segment scores plus six numbers derived at lambda 0.5."""
    c = obj["confidence"]
    p_r, p_a = (None if c[k] is None else math.exp(c[k]) for k in ("log_p_rational", "log_p_answer"))
    h_r, h_a = c["h_rational"], c["h_answer"]
    old = {
        "lambda_p": 0.5,
        "lambda_e": 0.5,
        "log_p_rational": c["log_p_rational"],
        "log_p_answer": c["log_p_answer"],
        "p_rational": p_r,
        "p_answer": p_a,
        "p_combined": p_r * p_a if p_r is not None and p_a is not None else None,
        "h_rational": h_r,
        "h_answer": h_a,
        "h_combined": (h_r + h_a) / 2 if h_r is not None and h_a is not None else None,
    }
    return {**obj, "confidence": old}


def test_ten_key_records_select_like_four_key_records(tmp_path, world):
    _, paths = world
    result = run(mock_config(tmp_path, paths))
    current = [EvalRecord.from_obj(r.to_obj()) for r in result.records]
    older = [EvalRecord.from_obj(ten_key_confidence(r.to_obj())) for r in result.records]
    assert [r.confidence for r in older] == [r.confidence for r in current]
    assert [r.to_obj() for r in older] == [r.to_obj() for r in current]
    for start in range(0, len(current), 5):
        new_pool = candidate_pool(current[start : start + 5])
        old_pool = candidate_pool(older[start : start + 5])
        for criterion in CRITERIA:
            if criterion == ORACLE:
                continue
            for lam in (0.0, 0.2, 0.5, 1.0):
                assert apply_criterion(criterion, old_pool, lam, lam) == apply_criterion(
                    criterion, new_pool, lam, lam
                )
    for criterion in ("max_prob", "min_entropy"):
        assert sweep(older, criterion) == sweep(current, criterion)


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
    # resume reuses the generated corpus and the journal
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
