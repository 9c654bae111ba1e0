"""Chunked soundness verification of a response by a judge model.

The response text is packed into ~100-word sentence-bounded chunks; for
each prefix of chunks the judge is asked whether the reasoning is correct
so far, and the per-prefix P("Yes") values are averaged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from .errors import BackendError
from .inference import InferenceClient
from .prompts import verifier_template

TARGET_WORDS = 100
YES = "Yes"
_SENTENCE_END = (".", "!", "?")


@dataclass(frozen=True)
class ChunkedAnswer:
    chunks: tuple[str, ...]


@dataclass(frozen=True)
class VerifierScore:
    """Per-prefix P("Yes") values and their mean. A backend failure leaves
    None in per_chunk and sets any_failed; the mean is over the successes."""

    per_chunk: tuple[float | None, ...]
    mean: float
    any_failed: bool

    def to_obj(self) -> dict[str, Any]:
        return {"per_chunk": list(self.per_chunk), "mean": self.mean, "any_failed": self.any_failed}

    @classmethod
    def from_obj(cls, obj: dict[str, Any]) -> "VerifierScore":
        return cls(tuple(obj["per_chunk"]), float(obj["mean"]), bool(obj["any_failed"]))


def _is_sentence_end(word: str) -> bool:
    return word.endswith(_SENTENCE_END)


def chunk(text: str, target_words: int = TARGET_WORDS) -> ChunkedAnswer:
    """Greedy packing: accumulate words until ``target_words``, then extend
    to the end of the current sentence; the final partial chunk stays as-is.

    If no sentence boundary exists ahead when the target is reached, the
    chunk closes at exactly ``target_words`` and the (boundary-free)
    remainder becomes the final chunk.
    """
    if not text.strip():
        raise ValueError("cannot chunk empty text")
    if target_words < 1:
        raise ValueError("target_words must be >= 1")
    words = text.split()
    chunks: list[str] = []
    start = 0
    while start < len(words):
        end = start + target_words
        if end >= len(words):
            chunks.append(" ".join(words[start:]))
            break
        boundary = end - 1
        while boundary < len(words) and not _is_sentence_end(words[boundary]):
            boundary += 1
        if boundary < len(words):
            end = boundary + 1
            chunks.append(" ".join(words[start:end]))
            start = end
        else:
            chunks.append(" ".join(words[start:end]))
            chunks.append(" ".join(words[end:]))
            break
    return ChunkedAnswer(tuple(chunks))


def build_verification_prompt(question: str, chunks: Sequence[str]) -> str:
    return verifier_template().replace("{question}", question).replace("{answer}", " ".join(chunks))


def verify(question: str, chunked: ChunkedAnswer, client: InferenceClient) -> VerifierScore:
    """Cumulative-prefix verification: prompt i embeds chunks 0..i, and the
    score is the mean P("Yes") over all prefixes.

    Prefix prompts go out sequentially: each embeds all prior chunks, and
    sequential issue keeps the journal in a reproducible order.
    """
    if not chunked.chunks:
        raise ValueError("need at least one chunk to verify")
    per_chunk: list[float | None] = []
    for i in range(len(chunked.chunks)):
        prompt = build_verification_prompt(question, chunked.chunks[: i + 1])
        try:
            mass = client.completion_probability(prompt, [YES])
            per_chunk.append(mass[YES])
        except BackendError:
            per_chunk.append(None)
    scores = [p for p in per_chunk if p is not None]
    if not scores:
        raise BackendError("verification failed for every chunk")
    return VerifierScore(
        per_chunk=tuple(per_chunk),
        mean=sum(scores) / len(scores),
        any_failed=any(p is None for p in per_chunk),
    )
