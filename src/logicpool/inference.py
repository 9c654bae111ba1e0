"""Model backends: request types, an OpenAI-compatible HTTP client, a fully
scripted mock for closed-world tests, and a request/response journal that
makes every run replayable without a live endpoint.
"""

from __future__ import annotations

import base64
import hashlib
import json
import logging
import math
import os
import re
import time
import weakref
from dataclasses import dataclass, field, fields
from collections.abc import Sequence as SequenceABC
from typing import TYPE_CHECKING, Any, Callable, Iterable, NamedTuple, Protocol, Sequence, TypeVar

import numpy as np

from .errors import BackendError, ConfigError, DataError, ProtocolError, ReplayMissError
from .jsonl import read_lines
from .prompts import RenderedPrompt

if TYPE_CHECKING:
    from concurrent.futures import Future

    import requests

logger = logging.getLogger(__name__)

DEFAULT_TOP_P = 0.9
DEFAULT_TEMPERATURE = 0.6
DEFAULT_MAX_TOKENS = 3072
DEFAULT_TOP_K = 20

# Version 2: a generation's logprobs are arrays (see response_to_obj);
# version 1 stored one JSON object per token and per alternative.
JOURNAL_FORMAT = 2
_ENTRY_START = re.compile(rb'\{"key": "([0-9a-f]{64})"')
# JSON escapes every quote inside a string, so the first "tokens": [ of a
# line is the response's own key, right after the request; version 1 opened
# that list with a token object.
_TOKENS_KEY = b'"tokens": ['
_dumps = json.JSONEncoder(ensure_ascii=False).encode  # what json.dumps(obj, ensure_ascii=False) writes

T = TypeVar("T")


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


def make_token(text: str, logprob: float, alternatives: Iterable[tuple[str, float]] = ()) -> TokenInfo:
    """Build a TokenInfo, inserting the sampled token into the alternatives
    and sorting them (what the wire clients do with raw payloads)."""
    logprob = min(float(logprob), 0.0)
    alts = [(str(t), min(float(lp), 0.0)) for t, lp in alternatives]
    if all(t != text for t, _ in alts):
        alts.append((text, logprob))
    alts.sort(key=lambda pair: -pair[1])
    return TokenInfo(text=text, logprob=logprob, top_alternatives=tuple(alts))


@dataclass(frozen=True, eq=False)
class ModelResponse:
    """One generation as arrays: the token texts, the sampled logprobs (T,)
    and the top-K logprobs (T, K) of each position, sorted descending and
    padded with -inf where a row has fewer alternatives. The alternatives'
    texts are not kept: nothing downstream of a generation reads them."""

    texts: tuple[str, ...]
    logprobs: np.ndarray
    top_logprobs: np.ndarray
    finish_reason: str  # stop | length | error
    full_text: str = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "texts", tuple(self.texts))
        object.__setattr__(self, "full_text", "".join(self.texts))
        n, logprobs, top = len(self.texts), self.logprobs, self.top_logprobs
        if logprobs.shape != (n,) or top.ndim != 2 or top.shape[0] != n:
            raise DataError(f"{n} tokens with logprobs {logprobs.shape} and top logprobs {top.shape}")
        if n:
            if top.shape[1] == 0 or (top[:, 0] == -np.inf).any():
                raise DataError("token needs at least one alternative")
            if not (logprobs.max() <= 1e-6 and top.max() <= 1e-6):  # a NaN maximum fails too
                raise DataError("logprobs must be <= 0")
            if not (top[:, :-1] >= top[:, 1:]).all():
                raise DataError("alternatives must be sorted by logprob descending")
        logprobs.flags.writeable = False
        top.flags.writeable = False

    @classmethod
    def from_tokens(cls, tokens: Sequence[TokenInfo], finish_reason: str) -> "ModelResponse":
        """Pack wire tokens into arrays; only ragged rows need the padding mask."""
        widths = [len(t.top_alternatives) for t in tokens]
        flat = np.array([lp for t in tokens for _, lp in t.top_alternatives], dtype=np.float64)
        shape = len(tokens), max(widths, default=0)
        if flat.size == shape[0] * shape[1]:
            top = flat.reshape(shape)
        else:  # a boolean mask assigns in row-major order: each row's alternatives, left-aligned
            top = np.full(shape, -np.inf)
            top[np.arange(shape[1]) < np.array(widths)[:, None]] = flat
        logprobs = np.array([t.logprob for t in tokens], dtype=np.float64)
        return cls([t.text for t in tokens], logprobs, top, finish_reason)

    @property
    def tokens(self) -> "Positions":
        """The positions, read like wire tokens (see ``Positions``)."""
        return Positions(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModelResponse):
            return NotImplemented
        return (
            self.texts == other.texts
            and self.finish_reason == other.finish_reason
            and np.array_equal(self.logprobs, other.logprobs)
            and np.array_equal(self.top_logprobs, other.top_logprobs)
        )


class Position(NamedTuple):
    """One position of a ModelResponse, with TokenInfo's field names. The
    alternatives' texts are not kept, so each alternative is
    ``(None, logprob)``; the -inf padding is left out."""

    text: str
    logprob: float
    top_alternatives: tuple[tuple[None, float], ...]


class Positions(SequenceABC):
    """A read-only view of a response's positions, built on access, so code
    written against the per-token form (``response.tokens[i].logprob``)
    still reads a response."""

    __slots__ = ("_response",)

    def __init__(self, response: ModelResponse) -> None:
        self._response = response

    def __len__(self) -> int:
        return len(self._response.texts)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        response = self._response
        row = response.top_logprobs[index]
        return Position(
            response.texts[index],
            float(response.logprobs[index]),
            tuple((None, float(lp)) for lp in row[row > -np.inf]),
        )


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
        if type(max_retries) is not int or max_retries < 0:
            raise ValueError(f"max_retries must be an integer >= 0, got {max_retries!r}")
        if not timeout > 0:
            raise ValueError(f"timeout must be > 0, got {timeout!r}")
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key = api_key
        self.api = api
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        # imported here: only this client needs it, and it is slow to import
        import requests

        self._requests = requests
        self._session = session or requests.Session()

    def _post(self, path: str, payload: dict[str, Any]) -> dict[str, Any]:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        url = f"{self.base_url}{path}"
        last_error: Exception | None = None
        attempts = self.max_retries + 1
        for attempt in range(attempts):
            try:
                response = self._session.post(url, json=payload, headers=headers, timeout=self.timeout)
                if response.status_code in (429,) or response.status_code >= 500:
                    raise BackendError(f"HTTP {response.status_code}: {response.text[:200]}")
                if response.status_code >= 400:
                    raise ProtocolError(f"HTTP {response.status_code}: {response.text[:200]}")
                return response.json()
            except ProtocolError:
                raise
            except (self._requests.RequestException, BackendError, ValueError) as exc:
                last_error = exc
                if attempt < self.max_retries:
                    delay = self.backoff * (2**attempt)
                    logger.warning(
                        "POST %s failed (%s), attempt %d/%d; retrying in %.2f s",
                        url, exc, attempt + 1, attempts, delay,
                    )
                    time.sleep(delay)
        raise BackendError(f"request failed after {attempts} attempts: {last_error}")

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

    def _complete(self, text: str, params: SamplingParams) -> tuple[list[TokenInfo], str]:
        path, payload = self._payload(text, params)
        data = self._post(path, payload)
        try:
            choice = data["choices"][0]
            finish_reason = choice.get("finish_reason") or "stop"
        except (KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(f"malformed completion payload: {exc}") from exc
        return self._parse_tokens(choice), finish_reason

    def generate(self, prompt: RenderedPrompt | str, params: SamplingParams) -> ModelResponse:
        return ModelResponse.from_tokens(*self._complete(prompt_text(prompt), params))

    def completion_probability(
        self, prompt_text_: str, candidates: Sequence[str]
    ) -> dict[str, float]:
        params = SamplingParams(temperature=0.0, top_p=1.0, max_tokens=1)
        tokens, _ = self._complete(prompt_text_, params)
        if not tokens:
            raise ProtocolError("backend returned an empty first position")
        return first_token_candidate_mass(tokens[0].top_alternatives, candidates)


# ---------------------------------------------------------------------------
# journal: record / replay
# ---------------------------------------------------------------------------


def _pack(array: np.ndarray) -> bytes:
    return base64.b64encode(array.astype("<f8").tobytes())


def _unpack(text: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text, validate=True), dtype="<f8")


def response_to_obj(response: ModelResponse) -> dict[str, Any]:
    """The journaled form of a response: the token texts as a list, both
    logprob arrays as base64 of little-endian f8, so a replay scores
    exactly the numbers the original run scored."""
    return {
        "tokens": list(response.texts),
        "logprobs": _pack(response.logprobs).decode("ascii"),
        "top_logprobs": _pack(response.top_logprobs).decode("ascii"),
        "finish_reason": response.finish_reason,
    }


def response_from_obj(obj: dict[str, Any]) -> ModelResponse:
    tokens = obj["tokens"]
    top = _unpack(obj["top_logprobs"])
    if tokens and top.size % len(tokens):
        raise ValueError(f"{top.size} top logprobs do not fill {len(tokens)} rows")
    width = top.size // len(tokens) if tokens else 0
    return ModelResponse(
        tokens, _unpack(obj["logprobs"]), top.reshape(len(tokens), width), obj["finish_reason"]
    )


def _request_key(kind: str, request: dict[str, Any]) -> str:
    canonical = json.dumps({"kind": kind, **request}, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# (kind, what fixes its other fields) -> _keyed_request's frame. A generation's params go in
# by repr, which tells apart values that compare equal but dump differently (0 and 0.0, 0.0 and -0.0).
_FRAMES: dict[tuple[str, Any], tuple[str, dict[str, Any], str]] = {}


def _keyed_request(kind: str, prompt: str, spec: Any, build: Callable[[], dict]) -> tuple[str, dict]:
    """The key and journaled form of a ``kind`` request of ``prompt`` and the fields ``build()``
    makes, hashed over the bytes of ``_request_key``: its canonical JSON, cut before and after the
    prompt's string, is built once per (kind, spec), and each prompt is dumped between the parts."""
    frame = _FRAMES.get((kind, spec))
    if frame is None:
        others = build()
        canonical = json.dumps({"kind": kind, "prompt": "", **others}, sort_keys=True, ensure_ascii=False)
        # every quote inside a JSON string is escaped, so this is the prompt's key and value
        head, _, tail = canonical.partition('"prompt": ""')
        frame = _FRAMES[kind, spec] = (f'{head}"prompt": ', others, tail)
    head, others, tail = frame
    key = hashlib.sha256(f"{head}{_dumps(prompt)}{tail}".encode("utf-8")).hexdigest()
    return key, {"prompt": prompt, **others}


def generate_request(
    prompt: RenderedPrompt | str, params: SamplingParams, tag: str = ""
) -> tuple[str, dict[str, Any]]:
    """The journaled form of one generation and its key: the sha256 of the
    prompt text, every sampling parameter and the tag. The key is the one
    identity of a response, in the journal and in the run's records."""
    return _keyed_request(
        "generate", prompt_text(prompt), (repr(params), tag),
        # every sampling field, so a new one is keyed too
        lambda: {**{f.name: getattr(params, f.name) for f in fields(params)}, "tag": tag},
    )


def probability_request(prompt_text_: str, candidates: Sequence[str]) -> tuple[str, dict[str, Any]]:
    """The journaled form of one completion-probability call and its key;
    the candidates are sorted."""
    ordered = tuple(sorted(candidates))
    return _keyed_request("completion_probability", prompt_text_, ordered, lambda: {"candidates": [*ordered]})


def _keyed(method: str, prompt: RenderedPrompt | str, arg: Any) -> tuple[str, dict[str, Any]]:
    """The key and journaled form of ``inner.<method>(prompt, arg)``; a
    generation is untagged."""
    return (generate_request if method == "generate" else probability_request)(prompt, arg)


def _timed(call: Callable[..., T], *args: Any) -> tuple[T, float]:
    """``call(*args)`` and its wall time in seconds. This is all that
    ``submit`` runs, on a worker thread or the owner's, so a journaled
    ``elapsed_s`` is the backend's latency."""
    started = time.monotonic()
    result = call(*args)
    return result, round(time.monotonic() - started, 6)


def _line(key: str, method: str, request: dict[str, Any], result: Any, elapsed: float) -> bytes:
    """``json.dumps`` of one backend call's entry, with the ``_pack``ed arrays
    joined in as bytes: base64 holds no character JSON escapes."""
    head = f'{_dumps({"key": key, "kind": method, "request": request})[:-1]}, "response": '.encode()
    if method != "generate":
        return b"%s%s}\n" % (head, _dumps(result).encode())
    return b'%s{"tokens": %s, "logprobs": "%s", "top_logprobs": "%s", "finish_reason": %s}, "elapsed_s": %s}\n' % (
        head, _dumps(result.texts).encode(), _pack(result.logprobs), _pack(result.top_logprobs),
        _dumps(result.finish_reason).encode(), _dumps(elapsed).encode(),
    )


def _decoded(entry: dict[str, Any]) -> tuple[Any, float]:
    """The result and latency of an entry that ``_line`` wrote."""
    if entry["kind"] == "generate":
        return response_from_obj(entry["response"]), float(entry.get("elapsed_s", 0.0))
    return dict(entry["response"]), 0.0


@dataclass
class JournalStats:
    backend_calls: int = 0  # backend calls whose response was journaled
    served_from_journal: int = 0


class JournalingClient:
    """Wraps a client with an append-only request/response journal.

    Requests already present in the journal are served from it (no backend
    call); new ones go to the inner client and are appended. Without an
    inner client the journal is replayed: a missing entry is an error, so
    completed runs re-execute bit-for-bit offline.

    Opening the journal is one buffered pass that keeps only each line's
    key and byte offset; an entry is parsed when a lookup asks for it, so a
    fully cached rerun decodes nothing.

    The journal is read and written through one descriptor that stays open
    until ``close()`` (or the end of a ``with`` block). It is opened once
    the load has truncated a torn final line, or at the first append when
    there is no journal yet, so a replay without a journal creates no file.
    An append is one write of the whole line, and a lookup one ``pread``.
    This client must be the journal's only writer, as the run directory's
    lock makes it: an entry's offset is the journal size this client knows,
    not one asked of the file. A client dropped without ``close()`` closes
    its descriptor when it is garbage-collected.

    One thread owns the client and makes every call on it. ``start`` hands
    a backend call to ``submit``, which returns its future, and keeps one
    future per key in flight. ``submit`` may run the call on the owner's
    thread and return a done future, or hand it to a worker thread that
    runs only the inner client's method, as an executor's ``submit`` does. A
    blocking call (``generate_timed``, ``completion_probability``) takes
    that future and appends its entry, or serves a journal hit, or else
    calls the backend itself. A call that raised is no longer in flight.
    """

    def __init__(self, journal_path: str, inner: InferenceClient | None = None, submit=None) -> None:
        self.journal_path = journal_path
        self.inner = inner
        self.stats = JournalStats()
        self._submit = submit
        self._index: dict[str, tuple[int, int, int]] = {}  # key -> (offset, length, line)
        self._in_flight: dict[str, tuple[Future, str, dict[str, Any]]] = {}  # key -> (future, method, request)
        self._lines = 0
        self._size = 0  # bytes in the journal: the next entry's offset
        self._fd: int | None = None  # None until opened, -1 once closed
        self._closer: weakref.finalize | None = None
        self._load()

    def __enter__(self) -> "JournalingClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Append each call that landed without error and was never asked
        for, then close the journal; any later lookup or append fails. Call
        it once no backend call runs: one still running is lost."""
        try:
            for key, (future, method, request) in self._in_flight.items():
                if future.done() and not future.cancelled() and future.exception() is None:
                    self._append(key, method, request, *future.result())
        finally:
            self._in_flight.clear()
            self._fd = -1
            if self._closer is not None:
                self._closer()

    def _open(self) -> None:
        fd = os.open(self.journal_path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
        self._closer = weakref.finalize(self, os.close, fd)
        self._size = os.fstat(fd).st_size
        self._fd = fd

    def _load(self) -> None:
        """Index the journal under the JSON-lines rule (a torn final line is
        truncated away) and open it. Every entry is written key first, so a
        line that does not start with its key and end with ``}`` is a
        DataError. The format check reads only the line's head, up to its
        tokens list."""
        if not os.path.exists(self.journal_path):
            return

        def key_of(raw: bytes) -> tuple[str, int]:
            match = _ENTRY_START.match(raw)
            if match is None or not raw.endswith(b"}\n"):
                raise ValueError("not a journal entry")
            at = raw.find(_TOKENS_KEY)
            if at >= 0 and raw.startswith(b"{", at + len(_TOKENS_KEY)):
                raise ConfigError(
                    f"{self.journal_path} is in the old journal format (per-token JSON), which this "
                    f"version cannot read; it reads journal_format {JOURNAL_FORMAT}. "
                    "Run into a fresh directory."
                )
            return match.group(1).decode("ascii"), len(raw)

        for number, offset, (key, length) in read_lines(self.journal_path, key_of, torn="truncate"):
            self._index[key] = (offset, length, number)
            self._lines = number
        self._open()

    def _append(self, key: str, method: str, request: dict[str, Any], result: Any, elapsed: float) -> None:
        """Write the entry of one backend call and count the call. A write
        that fails or stops short is cut back off the journal, so the next
        append starts on a clean line."""
        line = _line(key, method, request, result, elapsed)
        if self._fd is None:
            self._open()
        offset, written = self._size, 0
        try:
            while written < len(line):
                written += os.write(self._fd, line[written:])
        except BaseException:
            os.ftruncate(self._fd, offset)
            raise
        self._size = offset + len(line)
        self._lines += 1
        self._index[key] = (offset, len(line), self._lines)
        self.stats.backend_calls += 1

    def start(self, method: str, prompt: RenderedPrompt | str, arg: Any, keyed=None) -> Future | None:
        """Submit the backend call ``inner.<method>(prompt, arg)`` and return
        its future, or the future already in flight for its key. Returns
        None for a journal hit, and when there is no backend or no
        ``submit``. ``keyed`` is the request's key and journaled form."""
        if self.inner is None or self._submit is None:
            return None
        key, request = keyed or _keyed(method, prompt, arg)
        if key not in self._index and key not in self._in_flight:
            future = self._submit(_timed, getattr(self.inner, method), request["prompt"], arg)
            self._in_flight[key] = (future, method, request)
        return self._in_flight[key][0] if key in self._in_flight else None

    def _take(self, method: str, prompt: RenderedPrompt | str, arg: Any, keyed=None) -> tuple[Any, float]:
        """The result of ``inner.<method>(prompt, arg)`` and its latency:
        parsed from the journal when a lookup finds it there (a ``pread``),
        or taken from the key's future, or asked of the backend here; a
        result from the backend is appended. Without a backend, a miss
        raises a ReplayMissError naming the prompt."""
        key, request = keyed or _keyed(method, prompt, arg)
        found = self._index.get(key)
        if found is not None:
            self.stats.served_from_journal += 1
            offset, length, number = found
            raw = os.pread(self._fd, length, offset)
            try:
                return _decoded(json.loads(raw))
            except (ValueError, TypeError, KeyError, DataError) as exc:
                raise DataError(f"{self.journal_path}: line {number} is not a journal entry ({exc!r})") from None
        if self.inner is None:
            what = "response" if method == "generate" else "verification"
            raise ReplayMissError(f"no journaled {what} for prompt starting {request['prompt'][:60]!r}")
        in_flight = self._in_flight.pop(key, None)
        if in_flight is None:
            result = _timed(getattr(self.inner, method), request["prompt"], arg)
        else:
            result = in_flight[0].result()
        self._append(key, method, request, *result)
        return result

    def generate_timed(
        self, prompt: RenderedPrompt | str, params: SamplingParams, keyed=None
    ) -> tuple[ModelResponse, float]:
        """Like generate, but also returns the backend latency. Latency is
        journaled with the response, so journal hits report the original
        timing and replays stay bit-identical.

        ``keyed`` is the request's ``generate_request`` result, whose tag
        tells otherwise-identical requests (e.g. repeated samples of one
        prompt) apart; without it the request is untagged.
        """
        return self._take("generate", prompt, params, keyed)

    def generate(self, prompt: RenderedPrompt | str, params: SamplingParams, tag: str = "") -> ModelResponse:
        return self.generate_timed(prompt, params, generate_request(prompt, params, tag))[0]

    def completion_probability(self, prompt_text_: str, candidates: Sequence[str], keyed=None) -> dict:
        return self._take("completion_probability", prompt_text_, candidates, keyed)[0]
