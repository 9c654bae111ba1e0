"""Persisted experiment units: per-response EvalRecords and per-puzzle
selection rows, stored as JSONL, and the candidate pool rebuilt from a
pool's records."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

# run files are read and written through this module
from ..jsonl import append_jsonl, read_jsonl, write_jsonl  # noqa: F401
from ..prompts import Strategy
from ..scoring import ConfidenceScore
from ..selection import Candidate, CandidatePool, CanonicalAnswer
from ..verifier import VerifierScore


@dataclass
class EvalRecord:
    """One puzzle x strategy x sample: the response, its scores, and the
    correctness verdict. Token arrays live only in the run's journal, under
    the record's key: ``request_sha256``, the journal key of the generation
    request (prompt, sampling and sample tag)."""

    puzzle_id: str
    family: str
    difficulty: str
    strategy: str
    sample: int
    request_sha256: str
    response_text: str
    finish_reason: str
    answer: CanonicalAnswer
    correct: bool
    confidence: ConfidenceScore | None = None
    verifier: VerifierScore | None = None
    elapsed_s: float = 0.0
    n_clues: int | None = None
    error: str | None = None
    # Free-form human annotation slot (e.g. observed-strategy labels).
    annotations: dict[str, Any] | None = None

    @property
    def key(self) -> str:
        return self.request_sha256

    def to_obj(self) -> dict[str, Any]:
        return {
            "puzzle_id": self.puzzle_id,
            "family": self.family,
            "difficulty": self.difficulty,
            "strategy": self.strategy,
            "sample": self.sample,
            "request_sha256": self.request_sha256,
            "response_text": self.response_text,
            "finish_reason": self.finish_reason,
            "answer": self.answer.to_obj(),
            "correct": self.correct,
            "confidence": self.confidence.to_obj() if self.confidence else None,
            "verifier": self.verifier.to_obj() if self.verifier else None,
            "elapsed_s": self.elapsed_s,
            "n_clues": self.n_clues,
            "error": self.error,
            "annotations": self.annotations,
        }

    @classmethod
    def from_obj(cls, obj: dict[str, Any]) -> "EvalRecord":
        return cls(
            puzzle_id=obj["puzzle_id"],
            family=obj["family"],
            difficulty=obj["difficulty"],
            strategy=obj["strategy"],
            sample=int(obj["sample"]),
            # records written before the request key match no request
            request_sha256=obj.get("request_sha256", ""),
            response_text=obj["response_text"],
            finish_reason=obj["finish_reason"],
            answer=CanonicalAnswer.from_obj(obj["answer"]),
            correct=bool(obj["correct"]),
            confidence=ConfidenceScore.from_obj(obj["confidence"]) if obj.get("confidence") else None,
            verifier=_verifier_from_obj(obj.get("verifier")),
            elapsed_s=float(obj.get("elapsed_s", 0.0)),
            n_clues=obj.get("n_clues"),
            error=obj.get("error"),
            annotations=obj.get("annotations"),
        )


def _verifier_from_obj(obj: dict[str, Any] | None) -> VerifierScore | None:
    # older versions stored a score with failed prefixes as any_failed;
    # it counts as unverified, so a resume verifies it again
    if not obj or obj.get("any_failed"):
        return None
    return VerifierScore.from_obj(obj)


def candidate_pool(records: list[EvalRecord]) -> CandidatePool:
    """The candidate pool of one (puzzle, sample), one candidate per record
    in the order given; selection needs only the stored answers and scores."""
    return CandidatePool(
        puzzle_id=records[0].puzzle_id,
        family=records[0].family,
        candidates=[
            Candidate(
                strategy=Strategy.from_key(r.strategy),
                answer=r.answer,
                confidence=r.confidence,
                verifier_score=r.verifier,
            )
            for r in records
        ],
    )


@dataclass
class SelectionRow:
    """Outcome of one criterion on one puzzle's candidate pool."""

    puzzle_id: str
    family: str
    difficulty: str
    criterion: str
    correct: bool
    sample: int = 0
    chosen_strategy: str | None = None
    tie_occurred: bool = False
    tie_breaker_used: str | None = None
    error: str | None = None
    n_clues: int | None = None

    def to_obj(self) -> dict[str, Any]:
        return {
            "puzzle_id": self.puzzle_id,
            "family": self.family,
            "difficulty": self.difficulty,
            "criterion": self.criterion,
            "correct": self.correct,
            "sample": self.sample,
            "chosen_strategy": self.chosen_strategy,
            "tie_occurred": self.tie_occurred,
            "tie_breaker_used": self.tie_breaker_used,
            "error": self.error,
            "n_clues": self.n_clues,
        }

    @classmethod
    def from_obj(cls, obj: dict[str, Any]) -> "SelectionRow":
        return cls(
            puzzle_id=obj["puzzle_id"],
            family=obj["family"],
            difficulty=obj["difficulty"],
            criterion=obj["criterion"],
            correct=bool(obj["correct"]),
            sample=int(obj.get("sample", 0)),
            chosen_strategy=obj.get("chosen_strategy"),
            tie_occurred=bool(obj.get("tie_occurred", False)),
            tie_breaker_used=obj.get("tie_breaker_used"),
            error=obj.get("error"),
            n_clues=obj.get("n_clues"),
        )


def load_records(path: str, torn: str = "skip") -> list[EvalRecord]:
    return [EvalRecord.from_obj(obj) for obj in read_jsonl(path, torn)]


def load_selections(path: str) -> list[SelectionRow]:
    return [SelectionRow.from_obj(obj) for obj in read_jsonl(path)]
