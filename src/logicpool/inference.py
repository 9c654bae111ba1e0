"""Model backends: request types, an OpenAI-compatible HTTP client, a fully
scripted mock for closed-world tests, and a request/response journal that
makes every run replayable without a live endpoint.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Protocol, Sequence

import requests

from .errors import BackendError, DataError, ProtocolError, ReplayMissError
from .prompts import RenderedPrompt

logger = logging.getLogger(__name__)

DEFAULT_TOP_P = 0.9
DEFAULT_TEMPERATURE = 0.6
DEFAULT_MAX_TOKENS = 3072
DEFAULT_TOP_K = 20
VERIFIER_MIN_TOP_K = 8


@dataclass(frozen=True)
class SamplingParams:
    top_p: float = DEFAULT_TOP_P
    temperature: float = DEFAULT_TEMPERATURE
    max_tokens: int = DEFAULT_MAX_TOKENS
    seed: int | None = None
    top_k: int = DEFAULT_TOP_K  # alternatives requested per token

    def __post_init__(self) -> None:
        if not 0 < self.top_p <= 1:
            raise ValueError(f"top_p must be in (0, 1], got {self.top_p}")
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be positive, got {self.max_tokens}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")


@dataclass(frozen=True)
class TokenInfo:
    """One generated token with its logprob and the top-K alternatives at
    that position (sorted by logprob descending, sampled token included)."""

    text: str
    logprob: float
    top_alternatives: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        if self.logprob > 1e-6:
            raise DataError(f"token logprob must be <= 0, got {self.logprob}")
        if not self.top_alternatives:
            raise DataError("token needs at least one alternative")
        probs = [lp for _, lp in self.top_alternatives]
        if any(lp > 1e-6 for lp in probs):
            raise DataError("alternative logprobs must be <= 0")
        if sorted(probs, reverse=True) != list(probs):
            raise DataError("alternatives must be sorted by logprob descending")
        if all(text != self.text for text, _ in self.top_alternatives):
            raise DataError(f"sampled token {self.text!r} missing from alternatives")

    @property
    def prob(self) -> float:
        return math.exp(min(self.logprob, 0.0))


def make_token(text: str, logprob: float, alternatives: Iterable[tuple[str, float]] = ()) -> TokenInfo:
    """Build a TokenInfo, inserting the sampled token into the alternatives
    and sorting them (what the wire clients do with raw payloads)."""
    logprob = min(float(logprob), 0.0)
    alts = [(str(t), min(float(lp), 0.0)) for t, lp in alternatives]
    if all(t != text for t, _ in alts):
        alts.append((text, logprob))
    alts.sort(key=lambda pair: -pair[1])
    return TokenInfo(text=text, logprob=logprob, top_alternatives=tuple(alts))


@dataclass(frozen=True)
class ModelResponse:
    tokens: tuple[TokenInfo, ...]
    full_text: str
    finish_reason: str  # stop | length | error

    def __post_init__(self) -> None:
        joined = "".join(t.text for t in self.tokens)
        if joined != self.full_text:
            raise DataError("full_text does not equal the token concatenation")

    @classmethod
    def from_tokens(cls, tokens: Sequence[TokenInfo], finish_reason: str) -> "ModelResponse":
        return cls(tuple(tokens), "".join(t.text for t in tokens), finish_reason)


class InferenceClient(Protocol):
    def generate(self, prompt: RenderedPrompt | str, params: SamplingParams) -> ModelResponse: ...

    def completion_probability(
        self, prompt_text: str, candidates: Sequence[str]
    ) -> dict[str, float]: ...


def prompt_text(prompt: RenderedPrompt | str) -> str:
    return prompt.full_text if isinstance(prompt, RenderedPrompt) else prompt


_EDGE_PUNCTUATION = ".,!?;:"


def _normalize_candidate_token(text: str) -> str:
    return text.strip().lower().strip(_EDGE_PUNCTUATION)


def first_token_candidate_mass(
    alternatives: Iterable[tuple[str, float]], candidates: Sequence[str]
) -> dict[str, float]:
    """Sum first-position probability mass per candidate.

    Matching trims whitespace and edge punctuation and lowercases, so
    " Yes" and "Yes." both count toward "yes". Candidates absent from the
    top-K score 0.
    """
    mass = {c: 0.0 for c in candidates}
    normalized = {c: _normalize_candidate_token(c) for c in candidates}
    for text, logprob in alternatives:
        token_norm = _normalize_candidate_token(text)
        for candidate, cand_norm in normalized.items():
            if token_norm == cand_norm:
                mass[candidate] += math.exp(min(logprob, 0.0))
    return mass


# ---------------------------------------------------------------------------
# scripted mock backend
# ---------------------------------------------------------------------------

_WORDISH = re.compile(r"\s*\S+")


def _tokenize_script_text(text: str, logprob: float) -> list[TokenInfo]:
    pieces = [m.group(0) for m in _WORDISH.finditer(text)]
    consumed = "".join(pieces)
    if consumed != text:  # trailing whitespace
        if pieces:
            pieces[-1] += text[len(consumed):]
        else:
            pieces = [text]
    return [make_token(p, logprob) for p in pieces]


class MockBackend:
    """Deterministic backend driven entirely by a script.

    The script is a dict (or a JSON file with the same shape)::

        {
          "responses": [
            {"match": "<substring of the prompt>",
             "text": "...", "token_logprob": -0.1, "finish_reason": "stop"},
            {"match": "...", "tokens": [
             {"text": " Answer:", "logprob": -0.2,
              "alternatives": [[" Answer:", -0.2], [" answer", -2.0]]}]}
          ],
          "first_token_distributions": [
            {"match": "<substring>", "distribution": {" Yes": 0.9, " No": 0.1}}
          ]
        }

    Rules are tried in order; the first whose ``match`` substring occurs in
    the prompt wins (an empty/omitted ``match`` matches everything). A rule
    may instead carry ``match_all``: a list of substrings that must all
    occur, e.g. to pin one (puzzle, strategy) pair.
    """

    def __init__(self, script: dict[str, Any]):
        self._responses = list(script.get("responses", []))
        self._distributions = list(script.get("first_token_distributions", []))
        self.generate_calls = 0
        self.probability_calls = 0
        self.generate_prompts: list[str] = []
        self.probability_prompts: list[str] = []

    @classmethod
    def from_file(cls, path: str) -> "MockBackend":
        with open(path, encoding="utf-8") as handle:
            return cls(json.load(handle))

    @staticmethod
    def _pick(rules: list[dict[str, Any]], prompt: str) -> dict[str, Any]:
        for rule in rules:
            needles = rule.get("match_all", [rule.get("match", "")])
            if all(needle in prompt for needle in needles):
                return rule
        raise ProtocolError(f"mock script has no rule for prompt starting {prompt[:60]!r}")

    def generate(self, prompt: RenderedPrompt | str, params: SamplingParams) -> ModelResponse:
        text = prompt_text(prompt)
        self.generate_calls += 1
        self.generate_prompts.append(text)
        rule = self._pick(self._responses, text)
        if "tokens" in rule:
            tokens = [
                make_token(t["text"], t["logprob"], t.get("alternatives", ()))
                for t in rule["tokens"]
            ]
        else:
            tokens = _tokenize_script_text(
                rule["text"], float(rule.get("token_logprob", math.log(0.5)))
            )
        finish_reason = rule.get("finish_reason", "stop")
        if len(tokens) > params.max_tokens:
            tokens = tokens[: params.max_tokens]
            finish_reason = "length"
        return ModelResponse.from_tokens(tokens, finish_reason)

    def completion_probability(
        self, prompt_text_: str, candidates: Sequence[str]
    ) -> dict[str, float]:
        self.probability_calls += 1
        self.probability_prompts.append(prompt_text_)
        rule = self._pick(self._distributions, prompt_text_)
        alternatives = [
            (token, math.log(p) if p > 0 else -745.0)
            for token, p in rule["distribution"].items()
        ]
        return first_token_candidate_mass(alternatives, candidates)


# ---------------------------------------------------------------------------
# OpenAI-compatible HTTP client
# ---------------------------------------------------------------------------


class OpenAIClient:
    """Client for OpenAI-compatible completions / chat-completions endpoints
    that return token logprobs with top-K alternatives."""

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key: str | None = None,
        api: str = "chat",  # "chat" or "completions"
        timeout: float = 120.0,
        max_retries: int = 3,
        backoff: float = 0.5,
        session: requests.Session | None = None,
    ) -> None:
        if api not in ("chat", "completions"):
            raise ValueError(f"api must be 'chat' or 'completions', got {api!r}")
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key = api_key
        self.api = api
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self._session = session or requests.Session()

    def _post(self, path: str, payload: dict[str, Any]) -> dict[str, Any]:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        url = f"{self.base_url}{path}"
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            try:
                response = self._session.post(url, json=payload, headers=headers, timeout=self.timeout)
                if response.status_code in (429,) or response.status_code >= 500:
                    raise BackendError(f"HTTP {response.status_code}: {response.text[:200]}")
                if response.status_code >= 400:
                    raise ProtocolError(f"HTTP {response.status_code}: {response.text[:200]}")
                return response.json()
            except ProtocolError:
                raise
            except (requests.RequestException, BackendError, ValueError) as exc:
                last_error = exc
                if attempt < self.max_retries:
                    time.sleep(self.backoff * (2**attempt))
        raise BackendError(f"request failed after {self.max_retries + 1} attempts: {last_error}")

    def _payload(self, text: str, params: SamplingParams) -> tuple[str, dict[str, Any]]:
        common: dict[str, Any] = {
            "model": self.model,
            "max_tokens": params.max_tokens,
            "temperature": params.temperature,
            "top_p": params.top_p,
        }
        if params.seed is not None:
            common["seed"] = params.seed
        if self.api == "chat":
            common["messages"] = [{"role": "user", "content": text}]
            common["logprobs"] = True
            common["top_logprobs"] = params.top_k
            return "/chat/completions", common
        common["prompt"] = text
        common["logprobs"] = params.top_k
        common["echo"] = False
        return "/completions", common

    def _parse_tokens(self, choice: dict[str, Any]) -> list[TokenInfo]:
        logprobs = choice.get("logprobs")
        if not logprobs:
            raise ProtocolError("backend returned no logprobs; enable logprobs support")
        tokens: list[TokenInfo] = []
        try:
            if self.api == "chat":
                for entry in logprobs["content"]:
                    alts = [(alt["token"], alt["logprob"]) for alt in entry.get("top_logprobs", [])]
                    tokens.append(make_token(entry["token"], entry["logprob"], alts))
            else:
                texts = logprobs["tokens"]
                lps = logprobs["token_logprobs"]
                tops = logprobs.get("top_logprobs") or [None] * len(texts)
                for text, lp, top in zip(texts, lps, tops):
                    alts = list(top.items()) if top else []
                    tokens.append(make_token(text, lp if lp is not None else 0.0, alts))
        except (KeyError, TypeError) as exc:
            raise ProtocolError(f"malformed logprobs payload: {exc}") from exc
        return tokens

    def generate(self, prompt: RenderedPrompt | str, params: SamplingParams) -> ModelResponse:
        text = prompt_text(prompt)
        path, payload = self._payload(text, params)
        data = self._post(path, payload)
        try:
            choice = data["choices"][0]
            finish_reason = choice.get("finish_reason") or "stop"
        except (KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(f"malformed completion payload: {exc}") from exc
        tokens = self._parse_tokens(choice)
        return ModelResponse.from_tokens(tokens, finish_reason)

    def completion_probability(
        self, prompt_text_: str, candidates: Sequence[str]
    ) -> dict[str, float]:
        params = SamplingParams(
            temperature=0.0,
            top_p=1.0,
            max_tokens=1,
            top_k=max(DEFAULT_TOP_K, VERIFIER_MIN_TOP_K),
        )
        response = self.generate(prompt_text_, params)
        if not response.tokens:
            raise ProtocolError("backend returned an empty first position")
        return first_token_candidate_mass(response.tokens[0].top_alternatives, candidates)


# ---------------------------------------------------------------------------
# journal: record / replay
# ---------------------------------------------------------------------------


def token_to_obj(token: TokenInfo) -> dict[str, Any]:
    return {
        "text": token.text,
        "logprob": token.logprob,
        "alternatives": [[t, lp] for t, lp in token.top_alternatives],
    }


def token_from_obj(obj: dict[str, Any]) -> TokenInfo:
    return TokenInfo(
        text=obj["text"],
        logprob=float(obj["logprob"]),
        top_alternatives=tuple((t, float(lp)) for t, lp in obj["alternatives"]),
    )


def response_to_obj(response: ModelResponse) -> dict[str, Any]:
    return {
        "tokens": [token_to_obj(t) for t in response.tokens],
        "finish_reason": response.finish_reason,
    }


def response_from_obj(obj: dict[str, Any]) -> ModelResponse:
    return ModelResponse.from_tokens(
        [token_from_obj(t) for t in obj["tokens"]], obj["finish_reason"]
    )


def _request_key(kind: str, request: dict[str, Any]) -> str:
    canonical = json.dumps({"kind": kind, **request}, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class JournalStats:
    backend_calls: int = 0
    served_from_journal: int = 0


class JournalingClient:
    """Wraps a client with an append-only request/response journal.

    Requests already present in the journal are served from it (no backend
    call); new ones hit the inner client and are appended. Without an inner
    client the journal is replayed: a missing entry is an error, so
    completed runs re-execute bit-for-bit offline.
    """

    def __init__(self, journal_path: str, inner: InferenceClient | None = None) -> None:
        self.journal_path = journal_path
        self.inner = inner
        self.stats = JournalStats()
        self._lock = threading.Lock()
        self._entries: dict[str, dict[str, Any]] = {}
        self._load()

    def _load(self) -> None:
        """Read the journal. Every entry is written with its newline, so a
        final line without one is a write cut short: it is truncated away
        with a warning. Any other line that is not an entry is a DataError."""
        try:
            handle = open(self.journal_path, "rb")
        except FileNotFoundError:
            return
        torn_at = None
        with handle:
            offset = 0
            for number, raw in enumerate(handle, 1):
                if not raw.endswith(b"\n"):
                    torn_at = offset
                    break
                offset += len(raw)
                if not raw.strip():
                    continue
                try:
                    entry = json.loads(raw)
                    self._entries[entry["key"]] = entry
                except (ValueError, TypeError, KeyError) as exc:
                    raise DataError(
                        f"{self.journal_path}: line {number} is not a journal entry ({exc!r})"
                    ) from None
        if torn_at is not None:
            logger.warning(
                "%s: truncating a torn final line at byte %d", self.journal_path, torn_at
            )
            os.truncate(self.journal_path, torn_at)

    def _append(self, entry: dict[str, Any]) -> None:
        with self._lock:
            with open(self.journal_path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(entry, ensure_ascii=False) + "\n")
            self._entries[entry["key"]] = entry

    def _lookup(self, key: str) -> dict[str, Any] | None:
        with self._lock:
            return self._entries.get(key)

    def generate_timed(
        self, prompt: RenderedPrompt | str, params: SamplingParams, tag: str = ""
    ) -> tuple[ModelResponse, float]:
        """Like generate, but also returns the backend latency. Latency is
        journaled with the response, so journal hits report the original
        timing and replays stay bit-identical.

        ``tag`` distinguishes otherwise-identical requests (e.g. repeated
        samples of one prompt) in the journal.
        """
        text = prompt_text(prompt)
        request = {
            "prompt": text,
            "top_p": params.top_p,
            "temperature": params.temperature,
            "max_tokens": params.max_tokens,
            "seed": params.seed,
            "top_k": params.top_k,
            "tag": tag,
        }
        key = _request_key("generate", request)
        entry = self._lookup(key)
        if entry is not None:
            with self._lock:
                self.stats.served_from_journal += 1
            return response_from_obj(entry["response"]), float(entry.get("elapsed_s", 0.0))
        if self.inner is None:
            raise ReplayMissError(f"no journaled response for prompt starting {text[:60]!r}")
        started = time.monotonic()
        response = self.inner.generate(text, params)
        elapsed = round(time.monotonic() - started, 6)
        with self._lock:
            self.stats.backend_calls += 1
        self._append(
            {
                "key": key,
                "kind": "generate",
                "request": request,
                "response": response_to_obj(response),
                "elapsed_s": elapsed,
            }
        )
        return response, elapsed

    def generate(
        self, prompt: RenderedPrompt | str, params: SamplingParams, tag: str = ""
    ) -> ModelResponse:
        return self.generate_timed(prompt, params, tag)[0]

    def completion_probability(
        self, prompt_text_: str, candidates: Sequence[str]
    ) -> dict[str, float]:
        request = {"prompt": prompt_text_, "candidates": sorted(candidates)}
        key = _request_key("completion_probability", request)
        entry = self._lookup(key)
        if entry is not None:
            with self._lock:
                self.stats.served_from_journal += 1
            return dict(entry["response"])
        if self.inner is None:
            raise ReplayMissError(
                f"no journaled verification for prompt starting {prompt_text_[:60]!r}"
            )
        result = self.inner.completion_probability(prompt_text_, candidates)
        with self._lock:
            self.stats.backend_calls += 1
        self._append({"key": key, "kind": "completion_probability", "request": request, "response": result})
        return result
