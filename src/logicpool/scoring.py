"""Confidence scores over a segmented response.

A response splits at the last "Answer:" marker into a rational segment and
an answer segment. Each segment keeps two numbers: its mean token logprob
(the log of the geometric-mean probability) and its mean token entropy.
A ConfidenceScore holds only these four. The lambda weights that combine
the two segments are applied when a criterion runs, with lambda = 0.5
giving the plain product / plain average, so one stored score serves every
lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Any, Sequence

from .errors import DataError, UndefinedScoreError
from .inference import ModelResponse, TokenInfo

DEFAULT_MARKER = "Answer:"
ENTROPY_TAIL_EPSILON = 1e-9
PROB_SUM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class SegmentedResponse:
    """Token split of a response: everything before the final answer marker
    is rational, the rest (starting at the token containing the marker's
    first character) is the answer."""

    rational_tokens: tuple[TokenInfo, ...]
    answer_tokens: tuple[TokenInfo, ...]
    marker_found: bool

    @property
    def rational_text(self) -> str:
        return "".join(t.text for t in self.rational_tokens)

    @property
    def answer_text(self) -> str:
        return "".join(t.text for t in self.answer_tokens)


def segment(response: ModelResponse, marker: str = DEFAULT_MARKER) -> SegmentedResponse:
    """Split at the LAST occurrence of ``marker``; without one the whole
    response is rational."""
    if not marker:
        raise ValueError("marker must be non-empty")
    position = response.full_text.rfind(marker)
    if position < 0:
        return SegmentedResponse(tuple(response.tokens), (), marker_found=False)
    offset = 0
    for index, token in enumerate(response.tokens):
        if offset <= position < offset + len(token.text):
            return SegmentedResponse(
                tuple(response.tokens[:index]), tuple(response.tokens[index:]), marker_found=True
            )
        offset += len(token.text)
    raise DataError("marker position does not map to any token span")  # unreachable


def mean_logprob(tokens: Sequence[TokenInfo]) -> float:
    if not tokens:
        raise UndefinedScoreError("cannot score an empty token segment")
    return sum(t.logprob for t in tokens) / len(tokens)


def geometric_mean_prob(tokens: Sequence[TokenInfo]) -> float:
    """exp(mean logprob); stable for arbitrarily long sequences."""
    return math.exp(mean_logprob(tokens))


def combined_prob(p_rational: float, p_answer: float, lambda_p: float = 0.5) -> float:
    """p_rational^(2(1-lambda)) * p_answer^(2*lambda), in log space.

    The endpoints are special-cased so lambda = 0.5 is exactly the product
    and lambda in {0, 1} is exactly the square of one side.
    """
    if not 0 <= lambda_p <= 1:
        raise ValueError(f"lambda_p must be in [0, 1], got {lambda_p}")
    if not (0 < p_rational <= 1 and 0 < p_answer <= 1):
        raise ValueError("segment probabilities must be in (0, 1]")
    if lambda_p == 0.5:
        return p_rational * p_answer
    if lambda_p == 0.0:
        return p_rational * p_rational
    if lambda_p == 1.0:
        return p_answer * p_answer
    return math.exp(2 * (1 - lambda_p) * math.log(p_rational) + 2 * lambda_p * math.log(p_answer))


def combined_logprob(log_p_rational: float, log_p_answer: float, lambda_p: float = 0.5) -> float:
    """Same combination on log values (used when re-selecting from records)."""
    if not 0 <= lambda_p <= 1:
        raise ValueError(f"lambda_p must be in [0, 1], got {lambda_p}")
    return 2 * (1 - lambda_p) * log_p_rational + 2 * lambda_p * log_p_answer


def token_entropy(token: TokenInfo, tail: bool = True) -> float:
    """Entropy (nats) over the observed top-K alternatives, plus one
    pseudo-outcome for the residual mass when ``tail`` is on.

    The single-bucket tail makes this a lower bound on the entropy of any
    full distribution agreeing on the observed outcomes; it is exact when
    the alternatives already cover the whole distribution.
    """
    probs = [math.exp(lp) for _, lp in token.top_alternatives]
    total = sum(probs)
    if total > 1 + PROB_SUM_TOLERANCE:
        raise DataError(f"alternative probabilities sum to {total}, above 1")
    entropy = -sum(p * math.log(p) for p in probs if p > 0)
    if tail:
        residual = 1.0 - total
        if residual > ENTROPY_TAIL_EPSILON:
            entropy -= residual * math.log(residual)
    return max(entropy, 0.0)


def mean_entropy(tokens: Sequence[TokenInfo], tail: bool = True) -> float:
    if not tokens:
        raise UndefinedScoreError("cannot score an empty token segment")
    return sum(token_entropy(t, tail=tail) for t in tokens) / len(tokens)


def combined_entropy(h_rational: float, h_answer: float, lambda_e: float = 0.5) -> float:
    """(1-lambda)*h_rational + lambda*h_answer."""
    if not 0 <= lambda_e <= 1:
        raise ValueError(f"lambda_e must be in [0, 1], got {lambda_e}")
    if h_rational < 0 or h_answer < 0:
        raise ValueError("entropies must be >= 0")
    return (1 - lambda_e) * h_rational + lambda_e * h_answer


@dataclass(frozen=True)
class ConfidenceScore:
    """Per-segment mean logprob and mean entropy of one response; the
    answer-side fields are None when the response has no (or an empty)
    answer segment."""

    log_p_rational: float | None
    log_p_answer: float | None
    h_rational: float | None
    h_answer: float | None

    @property
    def defined(self) -> bool:
        return self.log_p_rational is not None and self.log_p_answer is not None

    def recombined_logprob(self, lambda_p: float) -> float:
        if self.log_p_rational is None or self.log_p_answer is None:
            raise UndefinedScoreError("response has an undefined segment score")
        return combined_logprob(self.log_p_rational, self.log_p_answer, lambda_p)

    def recombined_entropy(self, lambda_e: float) -> float:
        if self.h_rational is None or self.h_answer is None:
            raise UndefinedScoreError("response has an undefined segment score")
        return combined_entropy(self.h_rational, self.h_answer, lambda_e)

    def to_obj(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_obj(cls, obj: dict[str, Any]) -> "ConfidenceScore":
        return cls(
            log_p_rational=obj["log_p_rational"],
            log_p_answer=obj["log_p_answer"],
            h_rational=obj["h_rational"],
            h_answer=obj["h_answer"],
        )


def score_response(segmented: SegmentedResponse, entropy_tail: bool = True) -> ConfidenceScore:
    """Mean logprob and mean entropy of each non-empty segment."""
    log_p_rational = h_rational = None
    if segmented.rational_tokens:
        log_p_rational = mean_logprob(segmented.rational_tokens)
        h_rational = mean_entropy(segmented.rational_tokens, tail=entropy_tail)
    log_p_answer = h_answer = None
    if segmented.answer_tokens:
        log_p_answer = mean_logprob(segmented.answer_tokens)
        h_answer = mean_entropy(segmented.answer_tokens, tail=entropy_tail)
    return ConfidenceScore(log_p_rational, log_p_answer, h_rational, h_answer)
