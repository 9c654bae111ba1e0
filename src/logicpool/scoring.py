"""Confidence scores over a segmented response.

A response splits at the last "Answer:" marker into a rational segment and
an answer segment. Each segment keeps two numbers: its mean token logprob
(the log of the geometric-mean probability) and its mean token entropy.
A ConfidenceScore holds only these four. The lambda weights that combine
the two segments are applied when a criterion runs, with lambda = 0.5
giving the plain product / plain average, so one stored score serves every
lambda. Scores are computed with numpy on the response's logprob arrays.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Any

import numpy as np

from .errors import DataError
from .inference import ModelResponse
from .jsonl import is_number
from .prompts import ANSWER_MARKER

ENTROPY_TAIL_EPSILON = 1e-9
PROB_SUM_TOLERANCE = 1e-6


def segment(response: ModelResponse) -> int:
    """The index of the first answer token: the token holding the first
    character of the LAST answer marker. Without a marker it is the token
    count, and the whole response is rational."""
    position = response.full_text.rfind(ANSWER_MARKER)
    if position < 0:
        return len(response.texts)
    return bisect_right(list(accumulate(map(len, response.texts))), position)


def _check_lambda(name: str, lam: float | np.ndarray) -> None:
    values = np.asarray(lam)
    if values.size and not (0 <= values.min() and values.max() <= 1):  # a NaN fails too
        raise ValueError(f"{name} must be in [0, 1], got {lam}")


def combined_logprob(
    log_p_rational: float | np.ndarray, log_p_answer: float | np.ndarray, lambda_p: float | np.ndarray = 0.5
) -> float | np.ndarray:
    """log(p_rational^(2(1-lambda)) * p_answer^(2*lambda)), so lambda = 0.5
    is the log of the plain product of the segment probabilities. Floats or
    numpy arrays, broadcast together; the result is float64 with the same
    rounding either way."""
    _check_lambda("lambda_p", lambda_p)
    return 2 * (1 - lambda_p) * log_p_rational + 2 * lambda_p * log_p_answer


def combined_entropy(
    h_rational: float | np.ndarray, h_answer: float | np.ndarray, lambda_e: float | np.ndarray = 0.5
) -> float | np.ndarray:
    """(1-lambda)*h_rational + lambda*h_answer, for floats or arrays as
    combined_logprob."""
    _check_lambda("lambda_e", lambda_e)
    if (np.fmin(h_rational, h_answer) < 0).any():  # fmin skips a NaN, as the comparison would
        raise ValueError("entropies must be >= 0")
    return (1 - lambda_e) * h_rational + lambda_e * h_answer


@dataclass(frozen=True)
class ConfidenceScore:
    """Per-segment mean logprob and mean entropy of one response. An empty
    segment (no answer marker, or a marker at the first token) has both of
    its fields None; a segment with one None, or with a value that is not a
    number, is rejected."""

    log_p_rational: float | None
    log_p_answer: float | None
    h_rational: float | None
    h_answer: float | None

    def __post_init__(self) -> None:
        for name, log_p, h in (
            ("rational", self.log_p_rational, self.h_rational),
            ("answer", self.log_p_answer, self.h_answer),
        ):
            if not (log_p is None and h is None or is_number(log_p) and is_number(h)):
                raise ValueError(
                    f"{name} segment score needs a log-prob and an entropy both null or both numbers, "
                    f"got {log_p!r} and {h!r}"
                )

    @property
    def defined(self) -> bool:
        return self.log_p_rational is not None and self.log_p_answer is not None

    def to_obj(self) -> dict[str, Any]:
        return dict(vars(self))

    @classmethod
    def from_obj(cls, obj: dict[str, Any]) -> "ConfidenceScore":
        return cls(**obj)


def token_entropies(response: ModelResponse) -> np.ndarray:
    """Entropy (nats) of each position over its observed top-K
    alternatives, plus one pseudo-outcome for the residual mass.

    The single-bucket tail makes this a lower bound on the entropy of any
    full distribution agreeing on the observed outcomes; it is exact when
    the alternatives already cover the whole distribution.
    """
    top = response.top_logprobs
    probs = np.exp(top)  # the -inf padding adds nothing
    total = probs.sum(axis=1)
    if (total > 1 + PROB_SUM_TOLERANCE).any():
        raise DataError(f"alternative probabilities sum to {total.max()}, above 1")
    entropy = -np.multiply(probs, top, out=np.zeros_like(probs), where=probs > 0).sum(axis=1)
    residual = 1.0 - total
    tail = residual > ENTROPY_TAIL_EPSILON
    entropy[tail] -= residual[tail] * np.log(residual[tail])
    return np.maximum(entropy, 0.0)


def score_response(response: ModelResponse, split: int) -> ConfidenceScore:
    """Mean logprob and mean entropy of each non-empty segment, with
    ``split`` the first answer token (see ``segment``)."""
    entropy = token_entropies(response)

    def means(part: slice) -> tuple[float | None, float | None]:
        logprobs = response.logprobs[part]
        if not logprobs.size:
            return None, None
        return float(logprobs.mean()), float(entropy[part].mean())

    log_p_rational, h_rational = means(slice(None, split))
    log_p_answer, h_answer = means(slice(split, None))
    return ConfidenceScore(log_p_rational, log_p_answer, h_rational, h_answer)
