"""Canonical answers and the merging criteria over a candidate pool.

A pool is the records of one (puzzle, sample), at most one per strategy,
in strictly increasing strategy order (NO_STRATEGY first), so a
candidate's index is its place in the tie-break order. Criteria never
choose an unparseable candidate. A score criterion compares float64
scores exactly, with no epsilon, in pool order: the first candidate
holding the best score is chosen, and the selection is a tie when another
candidate holds exactly that score. A NaN score (a -inf log-prob weighted
by zero, at lambda 0 or 1) is never best, except that a NaN first
candidate is chosen, with no tie. ``argbest`` is that rule over the last
axis of an array.

``select_pools`` applies one criterion to many pools in one pass. The
scores of every pool's candidates go into one array of pools x [lambdas x]
candidates, each pool's row packed to the front in pool order and padded
with trailing NaN, which by the rule above is never best and never a tie;
one ``argbest`` call then selects every pool. A pool that cannot be
selected keeps its own error. The run selects all of its pools at its
lambdas in one call per criterion, the sweep all pools at every grid point
in one call, and each per-pool function is that pass over one pool.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from .errors import ConfigError, NoAnswerError, StructureError
from .prompts import ANSWER_MARKER, Strategy
from .puzzles import KnightsKnavesPuzzle, Puzzle, ZebraPuzzle
from .scoring import combined_entropy, combined_logprob

if TYPE_CHECKING:
    from .harness.records import EvalRecord

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
class CandidatePool:
    """The records of one pool; selection reads each record's ``strategy``
    key, ``answer``, ``confidence`` and ``verifier``."""

    puzzle_id: str
    candidates: list[EvalRecord]

    def __post_init__(self) -> None:
        order = [Strategy.from_key(c.strategy) for c in self.candidates]
        if any(a >= b for a, b in zip(order, order[1:])):
            raise StructureError(
                f"pool for {self.puzzle_id}: candidates must be in strictly increasing strategy order, "
                f"not {[c.strategy for c in self.candidates]}"
            )


@dataclass(frozen=True)
class SelectionResult:
    criterion: str
    chosen_index: int
    chosen_answer: CanonicalAnswer
    tie_occurred: bool = False
    tie_breaker_used: str | None = None


Groups = tuple[list[list[int]], bool]  # majority_groups: the largest answer groups, and whether they tie
Outcome = SelectionResult | NoAnswerError | ValueError  # a pool's result, or the error it alone raises


def _parseable(pool: CandidatePool) -> list[int]:
    return [i for i, c in enumerate(pool.candidates) if c.answer.parse_ok]


def _group_by_answer(pool: CandidatePool, indices: list[int]) -> list[list[int]]:
    """Increasing indices grouped by answer equality; groups ordered by
    their lowest index, members in increasing order."""
    groups: dict[Any, list[int]] = {}
    for i in indices:
        groups.setdefault(pool.candidates[i].answer, []).append(i)
    return list(groups.values())


def majority_groups(pool: CandidatePool) -> Groups:
    indices = _parseable(pool)
    if not indices:
        raise NoAnswerError(f"pool for {pool.puzzle_id} has no parseable candidate")
    groups = _group_by_answer(pool, indices)
    top = max(len(g) for g in groups)
    winners = [g for g in groups if len(g) == top]
    return winners, len(winners) > 1


def vote_groups(
    pools: list[CandidatePool], group: Callable[[CandidatePool], Groups] = majority_groups
) -> list[Groups | NoAnswerError]:
    """``group(pool)`` of each pool, or the NoAnswerError of a pool with no
    parseable candidate."""
    outcomes: list[Groups | NoAnswerError] = []
    for pool in pools:
        try:
            outcomes.append(group(pool))
        except NoAnswerError as exc:
            outcomes.append(exc)
    return outcomes


def argbest(scores: np.ndarray, prefer_high: bool) -> tuple[np.ndarray, np.ndarray]:
    """The position of the best score along the last (non-empty) axis, and
    whether another score there equals it, by the rule in the module
    docstring."""
    better = np.fmax if prefer_high else np.fmin  # both skip NaNs
    first = scores[..., 0]
    best = first.copy()
    # one elementwise step per candidate: the axis is short, the others long
    for column in range(1, scores.shape[-1]):
        better(best, scores[..., column], out=best)
    best = np.where(np.isnan(first), first, best)
    hit = scores == best[..., None]
    return hit.argmax(axis=-1), np.count_nonzero(hit, axis=-1) > 1


def pack_rows(rows: list[list[float]], width: int | None = None, fill: float = math.nan) -> np.ndarray:
    """Rows of different lengths as one float64 array of ``width`` columns
    (the longest row's by default), each row packed to the front and
    padded with ``fill``."""
    if width is None:
        width = max(map(len, rows), default=0)
    padded = [row + [fill] * (width - len(row)) for row in rows]
    return np.array(padded, dtype=np.float64).reshape(len(rows), width)


def _picks(
    orders: list[list[int]], scores: np.ndarray, errors: list[Exception | None], prefer_high: bool
) -> list[tuple[int, bool] | Exception]:
    """Per pool, its error, or the candidate that argbest picks from its row
    of ``scores`` (pools x candidates, in ``orders``) and the tie flag."""
    if not scores.shape[-1]:  # then every pool has an error
        return list(errors)
    positions, ties = argbest(scores, prefer_high)
    return [
        (order[position], tie) if error is None else error
        for order, error, position, tie in zip(orders, errors, positions.tolist(), ties.tolist())
    ]


def _result(criterion: str, pool: CandidatePool, pick, breaker: str | None = None) -> Outcome:
    """The pool's SelectionResult for a pick of ``_picks``, or its error."""
    if isinstance(pick, Exception):
        return pick
    chosen, tie = pick
    return SelectionResult(criterion, chosen, pool.candidates[chosen].answer, tie, breaker)


def _score_defined(candidate: EvalRecord) -> bool:
    return candidate.confidence is not None and candidate.confidence.defined


def confidence_score_rows(
    pools: list[CandidatePool],
    criterion: str,
    lambdas: float | np.ndarray,
    indices: list[list[int]] | None = None,
) -> tuple[list[list[int]], np.ndarray, list[Exception | None]]:
    """The combined ``criterion`` score (max_prob or min_entropy) of the
    parseable candidates with a defined confidence, for many pools in one
    array.

    Returns each pool's scored candidates in pool order, their scores with
    shape ``(len(pools),) + np.shape(lambdas) + (width,)``, and each pool's error
    or None. Each pool's row holds its candidates' scores packed to the
    front, padded with trailing NaN; a pool with an error has a row of NaN.
    ``indices`` holds each pool's increasing candidate indices to consider.
    A lambda outside [0, 1] raises for the whole batch, unless no pool has
    a scored candidate.
    """
    if criterion == MAX_PROB:
        rational_field, answer_field = "log_p_rational", "log_p_answer"
    else:
        rational_field, answer_field = "h_rational", "h_answer"
    orders, errors, rational, answer = [], [], [], []
    for p, pool in enumerate(pools):
        candidates = pool.candidates
        considered = _parseable(pool) if indices is None else indices[p]
        order = [i for i in considered if _score_defined(candidates[i])]
        confidences = [candidates[i].confidence for i in order]
        orders.append(order)
        errors.append(None if order else NoAnswerError(f"pool for {pool.puzzle_id} has no scored parseable candidate"))
        rational.append([getattr(c, rational_field) for c in confidences])
        answer.append([getattr(c, answer_field) for c in confidences])
    rational, answer = pack_rows(rational), pack_rows(answer)
    lam = np.asarray(lambdas, dtype=np.float64)
    width = rational.shape[1]
    if not width:  # no pool is scored, so no lambda is applied
        return orders, np.empty((len(pools),) + lam.shape + (0,)), errors
    shape = (len(pools),) + (1,) * lam.ndim + (width,)
    with np.errstate(invalid="ignore"):  # 0 * -inf is NaN, which argbest handles
        if criterion == MAX_PROB:
            return orders, combined_logprob(rational.reshape(shape), answer.reshape(shape), lam[..., None]), errors
        # the error combined_entropy raises for a pool alone with a negative entropy
        for p in np.flatnonzero((np.fmin(rational, answer) < 0).any(axis=1)).tolist():
            errors[p] = ValueError("entropies must be >= 0")
            rational[p] = answer[p] = math.nan
        return orders, combined_entropy(rational.reshape(shape), answer.reshape(shape), lam[..., None]), errors


def _verifier_picks(
    pools: list[CandidatePool], orders: list[list[int]], missing: str
) -> list[tuple[int, bool] | Exception]:
    """argbest of the mean verifier scores of each pool's ``orders``. An
    empty order is a NoAnswerError; candidates without a score are a
    ValueError, the ``missing`` message formatted with their strategies."""
    errors: list[Exception | None] = []
    means = []
    for pool, order in zip(pools, orders):
        candidates = [pool.candidates[i] for i in order]
        absent = [c.strategy for c in candidates if c.verifier is None]
        if not order:
            errors.append(NoAnswerError(f"pool for {pool.puzzle_id} has no parseable candidate"))
        else:
            errors.append(ValueError(missing.format(absent)) if absent else None)
        means.append([] if errors[-1] is not None else [c.verifier.mean for c in candidates])
    return _picks(orders, pack_rows(means), errors, prefer_high=True)


def select_pools(
    criterion: str,
    pools: list[CandidatePool],
    lambda_p: float = 0.5,
    lambda_e: float = 0.5,
    groups: list[Groups | NoAnswerError] | None = None,
) -> list[Outcome]:
    """Apply one criterion other than the oracle to every pool in one pass:
    per pool, its SelectionResult, or the NoAnswerError or ValueError that
    the pool alone raises. A score criterion selects every pool with one
    ``argbest`` call. The vote criteria read ``groups``, the pools'
    ``vote_groups`` (computed here when not given), and break the ties of
    all tied pools in one call. A lambda outside [0, 1] raises for the
    whole batch."""
    if criterion in (MAX_PROB, MIN_ENTROPY):
        rows = confidence_score_rows(pools, criterion, lambda_p if criterion == MAX_PROB else lambda_e)
        picks = _picks(*rows, prefer_high=criterion == MAX_PROB)
        return [_result(criterion, pool, pick) for pool, pick in zip(pools, picks)]
    if criterion == VERIFIER:
        orders = [_parseable(pool) for pool in pools]
        picks = _verifier_picks(pools, orders, "verifier scores missing for strategies {}; verify first")
        return [_result(criterion, pool, pick) for pool, pick in zip(pools, picks)]
    if criterion not in (MAJORITY_VOTE, VOTE_PROB, VOTE_VERIFIER):
        raise ConfigError(f"unknown criterion {criterion!r}")
    if groups is None:
        groups = vote_groups(pools)
    outcomes: list[Outcome | None] = []
    tied_at, tied_pools, tied = [], [], []
    for p, (pool, group) in enumerate(zip(pools, groups)):
        if isinstance(group, NoAnswerError):
            outcomes.append(group)
            continue
        winners, tie = group
        if tie and criterion != MAJORITY_VOTE:
            outcomes.append(None)  # broken below
            tied_at.append(p)
            tied_pools.append(pool)
            tied.append(sorted(i for members in winners for i in members))
        else:
            # groups and members are in pool order, so majority_vote's tie
            # falls back to the group holding the lowest strategy index
            outcomes.append(_result(criterion, pool, (winners[0][0], tie)))
    if criterion == MAJORITY_VOTE:
        return outcomes
    if criterion == VOTE_PROB:
        picks = _picks(*confidence_score_rows(tied_pools, MAX_PROB, lambda_p, tied), prefer_high=True)
        breaker = MAX_PROB
    else:
        picks = _verifier_picks(tied_pools, tied, "verifier scores missing for tie-broken strategies {}")
        breaker = VERIFIER
    for p, pool, candidates, pick in zip(tied_at, tied_pools, tied, picks):
        if criterion == VOTE_PROB and isinstance(pick, NoAnswerError):
            # every tied candidate lacks an answer-segment score
            outcomes[p] = _result(criterion, pool, (candidates[0], True), "strategy_index")
        elif isinstance(pick, Exception):
            outcomes[p] = pick
        else:
            outcomes[p] = _result(criterion, pool, (pick[0], True), breaker)
    return outcomes


def _single(outcomes: list[Outcome]) -> SelectionResult:
    (outcome,) = outcomes
    if isinstance(outcome, SelectionResult):
        return outcome
    raise outcome


def majority_vote(pool: CandidatePool) -> SelectionResult:
    """Largest answer group wins; a tie falls back to the group holding the
    lowest strategy index."""
    return _single(select_pools(MAJORITY_VOTE, [pool]))


def select_max_prob(pool: CandidatePool, lambda_p: float = 0.5) -> SelectionResult:
    """Argmax of the combined probability; candidates with an undefined
    answer-segment score are excluded."""
    return _single(select_pools(MAX_PROB, [pool], lambda_p=lambda_p))


def select_min_entropy(pool: CandidatePool, lambda_e: float = 0.5) -> SelectionResult:
    """Argmin of the combined entropy; same exclusion and tie rules as
    select_max_prob."""
    return _single(select_pools(MIN_ENTROPY, [pool], lambda_e=lambda_e))


def select_verifier(pool: CandidatePool) -> SelectionResult:
    """Argmax of the mean verifier score over parseable candidates."""
    return _single(select_pools(VERIFIER, [pool]))


def vote_plus_prob(pool: CandidatePool, lambda_p: float = 0.5) -> SelectionResult:
    """Majority vote; ties break by combined probability over the tied
    groups' candidates."""
    return _single(select_pools(VOTE_PROB, [pool], lambda_p=lambda_p))


def vote_plus_verifier(pool: CandidatePool) -> SelectionResult:
    """Majority vote; ties break by verifier mean. Verifier scores are only
    required (and thus only computed upstream) for the tied candidates."""
    return _single(select_pools(VOTE_VERIFIER, [pool]))


def oracle(pool: CandidatePool, truth: CanonicalAnswer) -> bool:
    """True iff any parseable candidate matches the ground truth."""
    return any(c.answer.parse_ok and c.answer == truth for c in pool.candidates)
