"""Tests of the benchmark itself: synthetic backend, output checks, result
contract.

    python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import checks
import run as bench
from logicpool.harness import run
from logicpool.harness.records import write_jsonl
from logicpool.puzzles import puzzle_to_obj
from synthetic import ResponseShape
from workloads import NO_VERIFIER, WORKLOADS, Workload, experiment, generate_corpus, make_backend

ROOT = os.path.dirname(bench.HERE)
TINY = Workload("tiny", 1, ((2, 3),), ResponseShape(24, 1, 5), NO_VERIFIER)


def _cold(tmp_path, workload: Workload, seed: int, name: str):
    corpus = generate_corpus(workload, seed)
    corpus_path = str(tmp_path / f"{name}-corpus.jsonl")
    write_jsonl(corpus_path, [puzzle_to_obj(p) for p in corpus])
    backend = make_backend(workload, corpus, seed)
    run_dir = str(tmp_path / name)
    result = run(experiment(workload, run_dir, corpus_path, backend))
    assert result.exit_code == 0
    return corpus, corpus_path, backend, run_dir, result


def _journal_entries(run_dir: str) -> list[dict]:
    """Journal entries in key order, without the measured backend latency."""
    with open(os.path.join(run_dir, "journal.jsonl"), encoding="utf-8") as handle:
        entries = [json.loads(line) for line in handle]
    for entry in entries:
        entry.pop("elapsed_s", None)
    return sorted(entries, key=lambda entry: entry["key"])


def test_same_seed_gives_identical_journal(tmp_path):
    # Raw bytes cannot match: the journal records each call's measured
    # latency, and worker threads append in completion order. Everything
    # else, every request and every response, must be identical.
    _cold(tmp_path, TINY, 3, "a")
    _cold(tmp_path, TINY, 3, "b")
    _cold(tmp_path, TINY, 4, "c")
    first = _journal_entries(str(tmp_path / "a"))
    assert first == _journal_entries(str(tmp_path / "b"))
    assert [e["response"] for e in first] != [e["response"] for e in _journal_entries(str(tmp_path / "c"))]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_topk_mass_at_most_one(name):
    workload = dataclasses.replace(WORKLOADS[name], generate_sleep_s=0.0, verify_sleep_s=0.0)
    corpus = generate_corpus(TINY, 1)
    backend = make_backend(workload, corpus, 1)
    tokens = list(backend.bank.reasoning)
    for prompt in backend._by_prompt:
        response = backend.generate(prompt, None)
        assert len(response.tokens) > workload.shape.reasoning_tokens
        tokens += response.tokens
    for token in tokens:
        assert len(token.top_alternatives) == workload.shape.top_k
        assert sum(math.exp(lp) for _, lp in token.top_alternatives) <= 1.0


def test_outcome_shares_are_fixed():
    corpus = generate_corpus(WORKLOADS["run-desk"], 0)
    for seed in (0, 1):
        outcomes = list(make_backend(TINY, corpus, seed).plan.values())
        assert (outcomes.count("correct"), outcomes.count("wrong"), outcomes.count("unparseable")) == (20, 12, 8)


def test_corpus_check_catches_a_wrong_solution():
    corpus = generate_corpus(TINY, 0)
    assert checks.corpus_problems(corpus) == []
    kk = corpus[0]
    flipped = tuple("knave" if t == "knight" else "knight" for t in kk.solution)
    assert checks.corpus_problems([dataclasses.replace(kk, solution=flipped)])


def test_run_checks_catch_corruption(tmp_path):
    corpus, corpus_path, backend, cold_dir, result = _cold(tmp_path, TINY, 2, "cold")
    assert checks.accuracy_problems(cold_dir, corpus, backend.answered) == []

    replay_dir = str(tmp_path / "replay")
    os.makedirs(replay_dir)
    shutil.copyfile(os.path.join(cold_dir, "journal.jsonl"), os.path.join(replay_dir, "journal.jsonl"))
    assert run(experiment(TINY, replay_dir, corpus_path, replay=True)).exit_code == 0
    assert checks.replay_problems(cold_dir, replay_dir) == []

    records = os.path.join(replay_dir, "records.jsonl")
    with open(records, "r+b") as handle:
        byte = handle.read(1)
        handle.seek(0)
        handle.write(b"[" if byte != b"[" else b"{")
    assert checks.replay_problems(cold_dir, replay_dir)
    os.remove(os.path.join(replay_dir, "selections.jsonl"))
    assert any("selections" in p for p in checks.replay_problems(cold_dir, replay_dir))

    report = os.path.join(cold_dir, "report_kk.csv")
    with open(report, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    cells = lines[1].split(",")
    cells[-1] = "0.123456"
    lines[1] = ",".join(cells)
    with open(report, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    assert checks.accuracy_problems(cold_dir, corpus, backend.answered)

    assert checks.rerun_problems(0, "a", "a") == []
    assert checks.rerun_problems(1, "a", "a")
    assert checks.rerun_problems(0, "a", "b")


def test_prefix_call_check(tmp_path):
    workload = dataclasses.replace(WORKLOADS["run-verify"], generate_sleep_s=0.0, verify_sleep_s=0.0)
    workload = dataclasses.replace(workload, kk_per_size=1, zebra_shapes=((2, 3),))
    _, _, backend, _, result = _cold(tmp_path, workload, 5, "verify")
    assert backend.probability_calls > 0
    assert checks.prefix_call_problems(result.records, backend.probability_calls) == []
    assert checks.prefix_call_problems(result.records, backend.probability_calls + 1)


def test_benchmark_json_matches_the_metrics_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOAD_NAMES) == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == bench.per_layer_names()
    assert all(m["unit"] == bench._unit(m["name"]) for m in spec["per_layer"])


def test_traced_run_reports_every_layer_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run-verify", "--seed", "7", "--seconds", "0", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == bench.per_layer_names()
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics["cold.verifier.prefix_calls"] == metrics["replay.verifier.prefix_calls"] > 0
    assert metrics["rerun.inference.journal_load.s"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gen-desk", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_adjusted_time_scales_only_the_cpu_part():
    assert bench.adjusted_s(1.0, 1.0, bench.REFERENCE_S) == pytest.approx(1.0)
    assert bench.adjusted_s(1.0, 1.0, 2 * bench.REFERENCE_S) == pytest.approx(0.5)
    assert bench.adjusted_s(1.0, 0.2, 2 * bench.REFERENCE_S) == pytest.approx(0.8 + 0.1)
    assert bench.adjusted_s(1.0, 1.5, bench.REFERENCE_S / 2) == pytest.approx(2.0)  # CPU beyond wall: threads
