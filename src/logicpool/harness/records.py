"""Persisted experiment units: per-response EvalRecords and per-puzzle
selection rows, stored as JSONL with their dataclass fields as the schema
(a line with a missing or an unknown key is malformed)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

# run files are read and written through this module
from ..jsonl import append_jsonl, parse_object, read_jsonl, read_lines, write_bytes, write_jsonl  # noqa: F401
from ..prompts import Strategy
from ..scoring import ConfidenceScore
from ..selection import CanonicalAnswer
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
        obj = dict(vars(self))  # the fields in order; asdict would deep-copy each value
        obj["answer"] = self.answer.to_obj()
        obj["confidence"] = None if self.confidence is None else self.confidence.to_obj()
        obj["verifier"] = None if self.verifier is None else self.verifier.to_obj()
        return obj

    @classmethod
    def from_obj(cls, obj: dict[str, Any]) -> "EvalRecord":
        Strategy.from_key(obj["strategy"])  # an unknown strategy raises KeyError
        confidence, verifier = obj["confidence"], obj["verifier"]
        return cls(**{
            **obj,
            "answer": CanonicalAnswer.from_obj(obj["answer"]),
            "confidence": None if confidence is None else ConfidenceScore.from_obj(confidence),
            "verifier": None if verifier is None else VerifierScore.from_obj(verifier),
        })


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
        return dict(vars(self))

    @classmethod
    def from_obj(cls, obj: dict[str, Any]) -> "SelectionRow":
        return cls(**obj)


def load_records(path: str, torn: str = "skip") -> list[EvalRecord]:
    lines = read_lines(path, lambda raw: EvalRecord.from_obj(parse_object(raw)), torn)
    return [record for _, _, record in lines]


def load_selections(path: str) -> list[SelectionRow]:
    return [row for _, _, row in read_lines(path, lambda raw: SelectionRow.from_obj(parse_object(raw)))]
