"""Canonical answers and the merging criteria over a candidate pool.

A pool holds one candidate per strategy. Criteria never choose an
unparseable candidate; score comparisons are strict floating-point with
ties resolved by the lowest strategy index (NO_STRATEGY first).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable

from .errors import NoAnswerError, StructureError
from .prompts import ANSWER_MARKER, Strategy
from .puzzles import KnightsKnavesPuzzle, Puzzle, ZebraPuzzle
from .scoring import ConfidenceScore
from .verifier import VerifierScore

MAJORITY_VOTE = "majority_vote"
MAX_PROB = "max_prob"
MIN_ENTROPY = "min_entropy"
VERIFIER = "verifier"
VOTE_PROB = "vote_prob"
VOTE_VERIFIER = "vote_verifier"
ORACLE = "oracle"
CRITERIA = (MAJORITY_VOTE, MAX_PROB, MIN_ENTROPY, VERIFIER, VOTE_PROB, VOTE_VERIFIER, ORACLE)


@dataclass(frozen=True)
class CanonicalAnswer:
    """Order-independent structured answer; equality is structural."""

    family: str
    parse_ok: bool
    # kk: sorted (label, knight|knave) pairs
    kk_assignments: tuple[tuple[str, str], ...] = ()
    # zebra: per house (in order), sorted (attribute, value) pairs
    zebra_grid: tuple[tuple[tuple[str, str], ...], ...] = ()

    @classmethod
    def unparsed(cls, family: str) -> "CanonicalAnswer":
        return cls(family=family, parse_ok=False)

    @classmethod
    def from_kk(cls, assignments: dict[str, str]) -> "CanonicalAnswer":
        pairs = tuple(sorted((label.upper(), kind.lower()) for label, kind in assignments.items()))
        return cls(family="kk", parse_ok=True, kk_assignments=pairs)

    @classmethod
    def from_zebra(cls, houses: list[dict[str, str]]) -> "CanonicalAnswer":
        grid = tuple(tuple(sorted(house.items())) for house in houses)
        return cls(family="zebra", parse_ok=True, zebra_grid=grid)

    def to_obj(self) -> dict[str, Any]:
        obj: dict[str, Any] = {"family": self.family, "parse_ok": self.parse_ok}
        if self.family == "kk":
            obj["assignments"] = dict(self.kk_assignments)
        else:
            obj["houses"] = [dict(house) for house in self.zebra_grid]
        return obj

    @classmethod
    def from_obj(cls, obj: dict[str, Any]) -> "CanonicalAnswer":
        if not obj.get("parse_ok"):
            return cls.unparsed(obj["family"])
        if obj["family"] == "kk":
            return cls.from_kk(obj["assignments"])
        return cls.from_zebra(obj["houses"])


def truth_answer(puzzle: Puzzle) -> CanonicalAnswer:
    if isinstance(puzzle, KnightsKnavesPuzzle):
        return CanonicalAnswer.from_kk(puzzle.solution_dict())
    return CanonicalAnswer.from_zebra(puzzle.grid_as_dicts())


# ---------------------------------------------------------------------------
# answer extraction
# ---------------------------------------------------------------------------

_KK_LINE = re.compile(r"^[\s>*_#`|-]*([A-Za-z])[\s*_`]*[:\-][\s*_`]*(knight|knave)\b", re.IGNORECASE)
_HOUSE_LINE = re.compile(r"^[\s>*_#`|-]*house\s+(\d+)\b(.*)$", re.IGNORECASE)


def extract_answer(text: str, puzzle: Puzzle) -> CanonicalAnswer:
    """Parse the canonical answer from the text after the LAST answer marker.

    Failures never raise; they come back as parse_ok=False.
    """
    position = text.rfind(ANSWER_MARKER)
    if position < 0:
        return CanonicalAnswer.unparsed(puzzle.family)
    tail = text[position + len(ANSWER_MARKER):]
    if isinstance(puzzle, KnightsKnavesPuzzle):
        return _extract_kk(tail, puzzle)
    return _extract_zebra(tail, puzzle)


def _extract_kk(tail: str, puzzle: KnightsKnavesPuzzle) -> CanonicalAnswer:
    labels = {chr(ord("A") + i) for i in range(puzzle.n_chars)}
    seen: dict[str, list[str]] = {}
    for line in tail.splitlines():
        match = _KK_LINE.match(line)
        if not match:
            continue
        label = match.group(1).upper()
        if label not in labels:
            continue
        seen.setdefault(label, []).append(match.group(2).lower())
    if set(seen) != labels or any(len(kinds) != 1 for kinds in seen.values()):
        return CanonicalAnswer.unparsed("kk")
    return CanonicalAnswer.from_kk({label: kinds[0] for label, kinds in seen.items()})


def _extract_zebra(tail: str, puzzle: ZebraPuzzle) -> CanonicalAnswer:
    value_patterns = {
        attr.name: [(v, re.compile(rf"\b{re.escape(v)}\b", re.IGNORECASE)) for v in attr.values]
        for attr in puzzle.attributes
    }
    bound: dict[tuple[int, str], str] = {}
    for line in tail.splitlines():
        match = _HOUSE_LINE.match(line)
        if not match:
            continue
        house = int(match.group(1)) - 1
        if not 0 <= house < puzzle.n_houses:
            continue
        rest = match.group(2)
        for attr in puzzle.attributes:
            hits = {v for v, pattern in value_patterns[attr.name] if pattern.search(rest)}
            if len(hits) != 1:
                continue
            value = hits.pop()
            key = (house, attr.name)
            if key in bound and bound[key] != value:
                return CanonicalAnswer.unparsed("zebra")
            bound[key] = value
    houses = []
    for h in range(puzzle.n_houses):
        house_map = {}
        for attr in puzzle.attributes:
            value = bound.get((h, attr.name))
            if value is None:
                return CanonicalAnswer.unparsed("zebra")
            house_map[attr.name] = value
        houses.append(house_map)
    return CanonicalAnswer.from_zebra(houses)


# ---------------------------------------------------------------------------
# candidate pools
# ---------------------------------------------------------------------------


@dataclass
class Candidate:
    strategy: Strategy
    answer: CanonicalAnswer
    confidence: ConfidenceScore | None = None
    verifier_score: VerifierScore | None = None


@dataclass
class CandidatePool:
    puzzle_id: str
    family: str
    candidates: list[Candidate] = field(default_factory=list)

    def __post_init__(self) -> None:
        strategies = [c.strategy for c in self.candidates]
        if len(set(strategies)) != len(strategies):
            raise StructureError("pool strategies must be distinct")

    def __len__(self) -> int:
        return len(self.candidates)


@dataclass(frozen=True)
class SelectionResult:
    criterion: str
    chosen_index: int
    chosen_answer: CanonicalAnswer
    tie_occurred: bool = False
    tie_breaker_used: str | None = None


def _parseable(pool: CandidatePool) -> list[int]:
    return [i for i, c in enumerate(pool.candidates) if c.answer.parse_ok]


def _group_by_answer(pool: CandidatePool, indices: list[int]) -> list[list[int]]:
    """Indices grouped by answer equality; groups ordered by their lowest
    strategy, members in strategy order."""
    groups: dict[Any, list[int]] = {}
    for i in sorted(indices, key=lambda i: pool.candidates[i].strategy):
        groups.setdefault(pool.candidates[i].answer, []).append(i)
    return sorted(groups.values(), key=lambda members: pool.candidates[members[0]].strategy)


def majority_groups(pool: CandidatePool) -> tuple[list[list[int]], bool]:
    indices = _parseable(pool)
    if not indices:
        raise NoAnswerError(f"pool for {pool.puzzle_id} has no parseable candidate")
    groups = _group_by_answer(pool, indices)
    top = max(len(g) for g in groups)
    winners = [g for g in groups if len(g) == top]
    return winners, len(winners) > 1


def majority_vote(pool: CandidatePool) -> SelectionResult:
    """Largest answer group wins; a tie falls back to the group holding the
    lowest strategy index."""
    winners, tie = majority_groups(pool)
    chosen = winners[0][0]  # groups and members are in strategy order
    return SelectionResult(
        criterion=MAJORITY_VOTE,
        chosen_index=chosen,
        chosen_answer=pool.candidates[chosen].answer,
        tie_occurred=tie,
    )


def _argbest(
    pool: CandidatePool,
    indices: list[int],
    score_of: Callable[[Candidate], float],
    prefer_high: bool,
) -> tuple[int, bool]:
    """Strict-comparison argmax/argmin in strategy order; returns the chosen
    index and whether another candidate scored exactly the same."""
    ordered = sorted(indices, key=lambda i: pool.candidates[i].strategy)
    best = ordered[0]
    best_score = score_of(pool.candidates[best])
    tie = False
    for i in ordered[1:]:
        score = score_of(pool.candidates[i])
        if score == best_score:
            tie = True
        elif (score > best_score) if prefer_high else (score < best_score):
            best, best_score, tie = i, score, False
    return best, tie


def _score_defined(candidate: Candidate) -> bool:
    return candidate.confidence is not None and candidate.confidence.defined


def select_max_prob(pool: CandidatePool, lambda_p: float = 0.5) -> SelectionResult:
    """Argmax of the combined probability; candidates with an undefined
    answer-segment score are excluded."""
    indices = [i for i in _parseable(pool) if _score_defined(pool.candidates[i])]
    if not indices:
        raise NoAnswerError(f"pool for {pool.puzzle_id} has no scored parseable candidate")
    chosen, tie = _argbest(
        pool, indices, lambda c: c.confidence.recombined_logprob(lambda_p), prefer_high=True
    )
    return SelectionResult(MAX_PROB, chosen, pool.candidates[chosen].answer, tie_occurred=tie)


def select_min_entropy(pool: CandidatePool, lambda_e: float = 0.5) -> SelectionResult:
    """Argmin of the combined entropy; same exclusion and tie rules as
    select_max_prob."""
    indices = [i for i in _parseable(pool) if _score_defined(pool.candidates[i])]
    if not indices:
        raise NoAnswerError(f"pool for {pool.puzzle_id} has no scored parseable candidate")
    chosen, tie = _argbest(
        pool, indices, lambda c: c.confidence.recombined_entropy(lambda_e), prefer_high=False
    )
    return SelectionResult(MIN_ENTROPY, chosen, pool.candidates[chosen].answer, tie_occurred=tie)


def select_verifier(pool: CandidatePool) -> SelectionResult:
    """Argmax of the mean verifier score over parseable candidates."""
    indices = _parseable(pool)
    if not indices:
        raise NoAnswerError(f"pool for {pool.puzzle_id} has no parseable candidate")
    missing = [i for i in indices if pool.candidates[i].verifier_score is None]
    if missing:
        raise ValueError(
            f"verifier scores missing for strategies "
            f"{[pool.candidates[i].strategy.key for i in missing]}; verify first"
        )
    chosen, tie = _argbest(pool, indices, lambda c: c.verifier_score.mean, prefer_high=True)
    return SelectionResult(VERIFIER, chosen, pool.candidates[chosen].answer, tie_occurred=tie)


def _vote_with_auxiliary(
    pool: CandidatePool,
    criterion: str,
    score_indices: Callable[[list[int]], tuple[int, str]],
) -> SelectionResult:
    winners, tie = majority_groups(pool)
    if not tie:
        chosen = winners[0][0]
        return SelectionResult(criterion, chosen, pool.candidates[chosen].answer)
    tied = [i for group in winners for i in group]
    chosen, breaker = score_indices(tied)
    return SelectionResult(
        criterion, chosen, pool.candidates[chosen].answer, tie_occurred=True, tie_breaker_used=breaker
    )


def vote_plus_prob(pool: CandidatePool, lambda_p: float = 0.5) -> SelectionResult:
    """Majority vote; ties break by combined probability over the tied
    groups' candidates."""

    def break_tie(tied: list[int]) -> tuple[int, str]:
        scored = [i for i in tied if _score_defined(pool.candidates[i])]
        if not scored:  # every tied candidate lacks an answer-segment score
            return min(tied, key=lambda i: pool.candidates[i].strategy), "strategy_index"
        chosen, _ = _argbest(
            pool, scored, lambda c: c.confidence.recombined_logprob(lambda_p), prefer_high=True
        )
        return chosen, MAX_PROB

    return _vote_with_auxiliary(pool, VOTE_PROB, break_tie)


def vote_plus_verifier(pool: CandidatePool) -> SelectionResult:
    """Majority vote; ties break by verifier mean. Verifier scores are only
    required (and thus only computed upstream) for the tied candidates."""

    def break_tie(tied: list[int]) -> tuple[int, str]:
        missing = [i for i in tied if pool.candidates[i].verifier_score is None]
        if missing:
            raise ValueError(
                f"verifier scores missing for tie-broken strategies "
                f"{[pool.candidates[i].strategy.key for i in missing]}"
            )
        chosen, _ = _argbest(pool, tied, lambda c: c.verifier_score.mean, prefer_high=True)
        return chosen, VERIFIER

    return _vote_with_auxiliary(pool, VOTE_VERIFIER, break_tie)


def oracle(pool: CandidatePool, truth: CanonicalAnswer) -> bool:
    """True iff any parseable candidate matches the ground truth."""
    return any(c.answer.parse_ok and c.answer == truth for c in pool.candidates)
