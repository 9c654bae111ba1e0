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


def verify(question: str, chunked: ChunkedAnswer, client: InferenceClient) -> VerifierScore:
    """Cumulative-prefix verification: prompt i embeds chunks 0..i, and the
    score is the mean P("Yes") over all prefixes.

    Prefix prompts go out sequentially within a candidate: each embeds all
    prior chunks, and sequential issue keeps the candidate's journal
    entries in prefix order. The run harness calls this once per candidate
    on its executor, so candidates of different pools overlap. A failed
    prefix (BackendError) fails the whole verification: a partial mean is
    never a score. The prefixes already answered stay in the journal, so a
    retry asks only for the rest.
    """
    if not chunked.chunks:
        raise ValueError("need at least one chunk to verify")
    per_chunk = []
    for i in range(len(chunked.chunks)):
        prompt = build_verification_prompt(question, chunked.chunks[: i + 1])
        per_chunk.append(client.completion_probability(prompt, [YES])[YES])
    return VerifierScore(per_chunk=tuple(per_chunk), mean=sum(per_chunk) / len(per_chunk))
