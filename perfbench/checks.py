"""Output checks. Each returns a list of problems; an empty list passes."""

from __future__ import annotations

import csv
import hashlib
import os

from logicpool.prompts import Strategy
from logicpool.puzzles import KnightsKnavesPuzzle, Puzzle, solve_kk, solve_zebra
from logicpool.verifier import chunk

from synthetic import CORRECT

# Files that replaying the journal into a fresh directory must reproduce;
# every run writes the first three, the others exist per puzzle family.
REPLAYED_FILES = ("records.jsonl", "selections.jsonl", "report.md", "report_kk.csv", "report_zebra.csv", "clue_accuracy.csv")
_ALWAYS_WRITTEN = REPLAYED_FILES[:3]
_AVERAGE_COLUMN = {"kk": "Avg.", "zebra": "All Avg."}


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def corpus_problems(corpus: list[Puzzle]) -> list[str]:
    """Every puzzle re-solves to exactly its stored solution."""
    problems = []
    for puzzle in corpus:
        if isinstance(puzzle, KnightsKnavesPuzzle):
            solutions = solve_kk(puzzle.statements, puzzle.n_chars)
        else:
            solutions = solve_zebra(puzzle.n_houses, puzzle.n_attrs, puzzle.clues, limit=2)
        if solutions != [puzzle.solution]:
            problems.append(f"{puzzle.puzzle_id}: re-solve gives {len(solutions)} solution(s), not the stored one")
    return problems


def accuracy_problems(run_dir: str, corpus: list[Puzzle], answered: dict[tuple[str, str], str]) -> list[str]:
    """Per-strategy accuracy in the report equals the share the backend
    answered correctly."""
    family_of = {puzzle.puzzle_id: puzzle.family for puzzle in corpus}
    if len(answered) != len(corpus) * len(Strategy):
        return [f"the backend answered {len(answered)} prompts, the corpus has {len(corpus) * len(Strategy)}"]
    expected: dict[tuple[str, str], list[int]] = {}
    for (puzzle_id, strategy), outcome in answered.items():
        cell = expected.setdefault((family_of[puzzle_id], Strategy.from_key(strategy).title), [0, 0])
        cell[0] += outcome == CORRECT
        cell[1] += 1
    problems = []
    for family in sorted({family for family, _ in expected}):
        path = os.path.join(run_dir, f"report_{family}.csv")
        if not os.path.exists(path):
            problems.append(f"missing {os.path.basename(path)}")
            continue
        with open(path, encoding="utf-8", newline="") as handle:
            rows = {row["row"]: row for row in csv.DictReader(handle)}
        for strategy in Strategy:
            correct, total = expected.get((family, strategy.title), (0, 0))
            if total == 0:
                continue
            want = f"{correct / total:.6f}"
            got = rows.get(strategy.title, {}).get(_AVERAGE_COLUMN[family])
            if got != want:
                problems.append(f"{family} {strategy.title}: report says {got}, backend answered {want}")
    return problems


def replay_problems(cold_dir: str, replay_dir: str) -> list[str]:
    """The replayed directory reproduces the cold run's outputs byte for byte."""
    problems = []
    for name in REPLAYED_FILES:
        cold, replay = os.path.join(cold_dir, name), os.path.join(replay_dir, name)
        if not os.path.exists(cold) and name not in _ALWAYS_WRITTEN:
            continue
        if not (os.path.exists(cold) and os.path.exists(replay)):
            problems.append(f"{name}: missing from the cold or the replayed directory")
        elif sha256_file(cold) != sha256_file(replay):
            problems.append(f"{name}: replay differs from the cold run")
    return problems


def rerun_problems(backend_calls: int, records_before: str, records_after: str) -> list[str]:
    """A rerun of a complete directory calls no backend and leaves the
    records untouched (arguments are the records' sha256 before and after)."""
    problems = []
    if backend_calls:
        problems.append(f"rerun made {backend_calls} backend call(s)")
    if records_before != records_after:
        problems.append("rerun changed records.jsonl")
    return problems


def prefix_call_problems(records, prefix_calls: int) -> list[str]:
    """Prefix calls equal the chunk count summed over verified candidates."""
    expected = sum(len(chunk(r.response_text).chunks) for r in records if r.verifier is not None)
    if prefix_calls != expected:
        return [f"{prefix_calls} verifier prefix calls, chunking says {expected}"]
    return []
