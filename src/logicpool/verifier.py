"""Chunked soundness verification of a response by a judge model.

The response text is packed into ~100-word sentence-bounded chunks; for
each prefix of chunks the judge is asked whether the reasoning is correct
so far, and the per-prefix P("Yes") values are averaged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from .inference import InferenceClient
from .jsonl import is_number
from .prompts import verifier_template

TARGET_WORDS = 100
YES = "Yes"
_SENTENCE_END = (".", "!", "?")


@dataclass(frozen=True)
class ChunkedAnswer:
    chunks: tuple[str, ...]


@dataclass(frozen=True)
class VerifierScore:
    """Per-prefix P("Yes") values and their mean."""

    per_chunk: tuple[float, ...]
    mean: float

    def __post_init__(self) -> None:
        # a stored score comes back from JSON with a list
        object.__setattr__(self, "per_chunk", tuple(self.per_chunk))
        if not all(map(is_number, (self.mean, *self.per_chunk))):
            raise ValueError(f"verifier score needs numbers, got mean {self.mean!r} and per_chunk {self.per_chunk!r}")

    def to_obj(self) -> dict[str, Any]:
        return dict(vars(self))

    @classmethod
    def from_obj(cls, obj: dict[str, Any]) -> "VerifierScore":
        return cls(**obj)


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


def prefix_prompts(question: str, chunked: ChunkedAnswer) -> list[str]:
    """The verification prompt of each prefix of chunks, in prefix order:
    prompt i embeds chunks 0..i."""
    return [build_verification_prompt(question, chunked.chunks[: i + 1]) for i in range(len(chunked.chunks))]


def verify(question: str, chunked: ChunkedAnswer, client: InferenceClient, prefixes=None) -> VerifierScore:
    """Cumulative-prefix verification: the score is the mean P("Yes") over
    the prompts of ``prefix_prompts``. Their ``probability_request``s, when
    given as ``prefixes``, go to a journaling client as already keyed.

    The prefixes are asked one after another, so a journaling client
    appends the candidate's entries in prefix order. The run harness starts
    every prefix call of a candidate first and calls this once they have
    landed. A failed prefix (BackendError) fails the whole
    verification: a partial mean is never a score. The prefixes already
    answered stay in the journal, so a retry asks only for the rest.
    """
    if not chunked.chunks:
        raise ValueError("need at least one chunk to verify")
    calls = [(prompt, [YES]) for prompt in prefix_prompts(question, chunked)] if prefixes is None else [
        (request["prompt"], [YES], (key, request)) for key, request in prefixes]
    per_chunk = [client.completion_probability(*call)[YES] for call in calls]
    return VerifierScore(per_chunk=tuple(per_chunk), mean=sum(per_chunk) / len(per_chunk))
