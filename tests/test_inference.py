import base64
import dataclasses
import errno
import json
import math
import os
import random
import subprocess
import sys
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import logicpool
from logicpool.errors import BackendError, ConfigError, DataError, ProtocolError, ReplayMissError
from logicpool.inference import (
    JournalingClient,
    MockBackend,
    ModelResponse,
    OpenAIClient,
    SamplingParams,
    TokenInfo,
    first_token_candidate_mass,
    generate_request,
    make_token,
    response_from_obj,
    response_to_obj,
)
from logicpool.inference import _line, _request_key

# every test here must close the files and descriptors it opens
pytestmark = pytest.mark.usefixtures("no_fd_leaks")


def test_requests_is_imported_only_by_the_http_client():
    src = os.path.dirname(os.path.dirname(logicpool.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "import logicpool.cli, logicpool.harness; print('requests' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_sampling_defaults_match_protocol():
    params = SamplingParams()
    assert params.top_p == 0.9
    assert params.temperature == 0.6
    assert params.max_tokens == 3072
    assert params.top_k == 20


@pytest.mark.parametrize(
    "kwargs",
    [
        {"top_p": 0.0},
        {"top_p": 1.5},
        {"temperature": -0.1},
        {"max_tokens": 0},
        {"top_k": 0},
    ],
)
def test_sampling_validation(kwargs):
    with pytest.raises(ValueError):
        SamplingParams(**kwargs)


def test_a_single_alternative_per_token_is_a_valid_top_k():
    assert SamplingParams(top_k=1).top_k == 1


@pytest.mark.parametrize(
    "kwargs", [{"api": "chatt"}, {"max_retries": -1}, {"timeout": 0}, {"timeout": -2.5}, {"timeout": math.nan}]
)
def test_openai_client_refuses_settings_no_request_could_succeed_with(kwargs):
    with pytest.raises(ValueError):
        OpenAIClient("http://h/v1", model="m", **kwargs)


def test_token_validation():
    with pytest.raises(DataError):
        TokenInfo("x", 0.5, (("x", 0.0),))
    with pytest.raises(DataError):
        TokenInfo("x", -0.1, ())
    with pytest.raises(DataError):  # alternatives unsorted
        TokenInfo("x", -0.1, (("y", -2.0), ("x", -0.1)))
    with pytest.raises(DataError):  # sampled token missing
        TokenInfo("x", -0.1, (("y", -0.05),))
    TokenInfo("x", -0.1, (("x", -0.1), ("y", -2.0)))


def test_make_token_repairs_payloads():
    token = make_token("x", -0.2, [("y", -1.0)])
    assert token.top_alternatives == (("x", -0.2), ("y", -1.0))
    clamped = make_token("x", 1e-9)
    assert clamped.logprob == 0.0


def test_model_response_concat_invariant():
    tokens = (make_token("Hello", -0.1), make_token(" world", -0.2))
    response = ModelResponse.from_tokens(tokens, "stop")
    assert response.full_text == "Hello world"
    assert response.texts == ("Hello", " world")
    with pytest.raises(DataError):  # one logprob for two tokens
        ModelResponse(("Hello", " world"), np.zeros(1), np.zeros((2, 1)), "stop")
    with pytest.raises(DataError):  # a row sorted ascending
        ModelResponse(("Hello",), np.array([-1.0]), np.array([[-1.0, -0.5]]), "stop")
    with pytest.raises(DataError):  # a positive logprob
        ModelResponse(("Hello",), np.array([0.5]), np.array([[0.5]]), "stop")
    with pytest.raises(DataError):  # a row of padding only
        ModelResponse(("Hello",), np.array([-1.0]), np.array([[-np.inf]]), "stop")


def test_mock_echoes_scripted_tokens():
    lp = math.log(0.5)
    backend = MockBackend(
        {"responses": [{"match": "", "text": "Answer:\nA: knight", "token_logprob": lp}]}
    )
    response = backend.generate("whatever prompt", SamplingParams())
    assert response.full_text == "Answer:\nA: knight"
    assert response.finish_reason == "stop"
    assert (response.logprobs == lp).all()


def test_mock_respects_max_tokens():
    backend = MockBackend({"responses": [{"match": "", "text": "one two three four"}]})
    response = backend.generate("p", SamplingParams(max_tokens=1))
    assert len(response.tokens) == 1
    assert response.finish_reason == "length"


def test_mock_response_of_exactly_max_tokens_stopped_by_itself():
    backend = MockBackend({"responses": [{"match": "", "text": "one two three four"}]})
    response = backend.generate("p", SamplingParams(max_tokens=4))
    assert len(response.texts) == 4
    assert response.finish_reason == "stop"


def test_mock_explicit_tokens_and_match_all():
    backend = MockBackend(
        {
            "responses": [
                {
                    "match_all": ["alpha", "beta"],
                    "tokens": [{"text": "ok", "logprob": -0.3, "alternatives": [["ok", -0.3]]}],
                },
                {"match": "alpha", "text": "fallback"},
            ]
        }
    )
    assert backend.generate("alpha beta", SamplingParams()).full_text == "ok"
    assert backend.generate("alpha only", SamplingParams()).full_text == "fallback"
    with pytest.raises(ProtocolError):
        backend.generate("gamma", SamplingParams())


def test_candidate_mass_sums_matching_alternatives():
    # " Yes" and "Yes." both normalize to "yes"; " No" and the unrelated token do not
    distribution = {" Yes": 0.7, " No": 0.2, "Yes.": 0.05, "Maybe": 0.05}
    backend = MockBackend(
        {"first_token_distributions": [{"match": "", "distribution": distribution}]}
    )
    mass = backend.completion_probability("prompt", ["yes"])
    assert mass["yes"] == pytest.approx(0.75)


def test_candidate_absent_scores_zero():
    alternatives = [("foo", math.log(0.9))]
    assert first_token_candidate_mass(alternatives, ["yes"])["yes"] == 0.0


def test_candidate_masses_bounded_by_one():
    distribution = {" Yes": 0.7, "No": 0.25}
    backend = MockBackend(
        {"first_token_distributions": [{"match": "", "distribution": distribution}]}
    )
    mass = backend.completion_probability("prompt", ["Yes", "No"])
    assert sum(mass.values()) <= 1.0 + 1e-12


def test_response_serialization_roundtrip():
    response = ModelResponse.from_tokens(
        (make_token("a", -0.5, [("b", -1.0)]), make_token(" b", -0.25)), "length"
    )
    clone = response_from_obj(response_to_obj(response))
    assert clone == response


class _CountingBackend:
    def __init__(self):
        self.calls = 0

    def generate(self, prompt, params):
        self.calls += 1
        return ModelResponse.from_tokens((make_token("hi", -0.1),), "stop")

    def completion_probability(self, prompt_text, candidates):
        self.calls += 1
        return {c: 0.5 for c in candidates}


def test_journal_records_and_serves_repeats(tmp_path):
    inner = _CountingBackend()
    journal = tmp_path / "journal.jsonl"
    client = JournalingClient(str(journal), inner)
    params = SamplingParams()
    first = client.generate("p", params)
    again = client.generate("p", params)
    assert first == again
    assert inner.calls == 1
    assert client.stats.backend_calls == 1
    assert client.stats.served_from_journal == 1
    # distinct tag = distinct request
    client.generate("p", params, tag="s1")
    assert inner.calls == 2


def test_journal_replay_without_backend(tmp_path):
    inner = _CountingBackend()
    journal = tmp_path / "journal.jsonl"
    recorder = JournalingClient(str(journal), inner)
    params = SamplingParams()
    recorded = recorder.generate("p", params)
    recorded_probs = recorder.completion_probability("q", ["Yes"])

    replayer = JournalingClient(str(journal))
    assert replayer.generate("p", params) == recorded
    assert replayer.completion_probability("q", ["Yes"]) == recorded_probs
    assert replayer.stats.backend_calls == 0
    unseen = "unseen " * 20  # the error shows its first 60 characters
    with pytest.raises(ReplayMissError, match=f"^no journaled response for prompt starting {unseen[:60]!r}$"):
        replayer.generate(unseen, params)
    with pytest.raises(ReplayMissError, match=f"^no journaled verification for prompt starting {unseen[:60]!r}$"):
        replayer.completion_probability(unseen, ["Yes"])


def test_journal_timing_is_stable_across_replays(tmp_path):
    inner = _CountingBackend()
    journal = tmp_path / "journal.jsonl"
    recorder = JournalingClient(str(journal), inner)
    _, elapsed = recorder.generate_timed("p", SamplingParams())
    replayer = JournalingClient(str(journal))
    _, replay_elapsed = replayer.generate_timed("p", SamplingParams())
    assert replay_elapsed == elapsed


def test_journal_lines_are_json(tmp_path):
    inner = _CountingBackend()
    journal = tmp_path / "journal.jsonl"
    client = JournalingClient(str(journal), inner)
    client.generate("p", SamplingParams())
    lines = journal.read_text().strip().splitlines()
    assert len(lines) == 1
    entry = json.loads(lines[0])
    assert entry["kind"] == "generate"
    assert entry["request"]["prompt"] == "p"


def _record_two(journal):
    client = JournalingClient(str(journal), _CountingBackend())
    client.generate("p", SamplingParams())
    client.generate("q", SamplingParams())


def test_journal_torn_final_line_is_truncated(tmp_path, caplog):
    journal = tmp_path / "journal.jsonl"
    _record_two(journal)
    intact = journal.read_bytes()
    with open(journal, "ab") as handle:
        handle.write(b'{"key": "abc", "kind": "gen')  # a write cut short
    inner = _CountingBackend()
    with caplog.at_level("WARNING", logger="logicpool"):
        client = JournalingClient(str(journal), inner)
    assert journal.read_bytes() == intact
    assert any("torn" in r.getMessage() and r.name.startswith("logicpool") for r in caplog.records)
    client.generate("p", SamplingParams())
    client.generate("r", SamplingParams())
    assert inner.calls == 1
    lines = journal.read_text().splitlines()
    assert len(lines) == 3 and all(json.loads(line)["key"] for line in lines)


def test_journal_malformed_inner_line_raises_data_error(tmp_path):
    journal = tmp_path / "journal.jsonl"
    _record_two(journal)
    first, second = journal.read_text().splitlines()
    journal.write_text(first + "\n" + second[:20] + "\n" + first + "\n")
    with pytest.raises(DataError, match="line 2"):
        JournalingClient(str(journal))
    journal.write_text(first + "\n" + '["no key"]' + "\n")
    with pytest.raises(DataError, match="line 2"):
        JournalingClient(str(journal))
    # an object without a key, and an entry cut short after its key, are found at open
    for inner in ('{"kind": "generate"}', first[:200]):
        journal.write_text(first + "\n" + inner + "\n")
        with pytest.raises(DataError, match="line 2"):
            JournalingClient(str(journal))


# ---------------------------------------------------------------------------
# the array codec and the indexed journal
# ---------------------------------------------------------------------------

_TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=6)


@st.composite
def wire_token(draw):
    """A wire token with 1-5 alternatives; when the sampled token is not
    among them ``make_token`` adds it, so rows differ in width."""
    logprobs = sorted(
        draw(st.lists(st.floats(min_value=-50.0, max_value=0.0), min_size=1, max_size=5)), reverse=True
    )
    text = draw(_TEXT)
    listed = draw(st.booleans())
    sampled = logprobs[0] if listed else draw(st.floats(min_value=-50.0, max_value=0.0))
    alternatives = [(text if listed and i == 0 else f"\x00{i}", lp) for i, lp in enumerate(logprobs)]
    return make_token(text, sampled, alternatives)


@given(st.lists(wire_token(), min_size=1, max_size=12), st.sampled_from(["stop", "length"]))
@settings(max_examples=200, deadline=None)
def test_response_codec_round_trip_is_bit_exact(tokens, finish_reason):
    response = ModelResponse.from_tokens(tokens, finish_reason)
    line = json.dumps(response_to_obj(response), ensure_ascii=False)
    clone = response_from_obj(json.loads(line))
    assert clone == response
    assert clone.texts == tuple(t.text for t in tokens)
    assert clone.logprobs.tobytes() == response.logprobs.tobytes()
    assert clone.top_logprobs.tobytes() == response.top_logprobs.tobytes()
    widths = {len(t.top_alternatives) for t in tokens}
    assert response.top_logprobs.shape == (len(tokens), max(widths))
    if len(widths) > 1:  # ragged rows are padded with -inf
        assert np.isneginf(response.top_logprobs).any()


def test_response_codec_pads_a_ragged_row():
    # the sampled token is not listed in the first row, so make_token adds it
    tokens = (make_token("é", -0.5, [("x", -0.1), ("y", -2.0)]), make_token(" 🙂", -0.2))
    response = ModelResponse.from_tokens(tokens, "stop")
    assert response.top_logprobs.tolist() == [[-0.1, -0.5, -2.0], [-0.2, -np.inf, -np.inf]]
    assert response_from_obj(response_to_obj(response)) == response


def test_an_empty_response_round_trips_with_no_alternative_column():
    empty = ModelResponse.from_tokens([], "length")
    clone = response_from_obj(response_to_obj(empty))
    assert clone == empty and clone.top_logprobs.shape == (0, 0)


def test_top_logprobs_that_do_not_fill_the_rows_are_named():
    obj = response_to_obj(ModelResponse.from_tokens([make_token("a", -0.1), make_token("b", -0.2)], "stop"))
    obj["top_logprobs"] = base64.b64encode(np.zeros(3).tobytes()).decode("ascii")
    with pytest.raises(ValueError, match="3 top logprobs do not fill 2 rows"):
        response_from_obj(obj)


# every character JSON escapes, line separators and a non-BMP character, then any text
_ANY_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\\x00\x01\x1f\x7f\u2028\u2029\U0001f600'),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=8,
)
_LOGPROB = st.floats(min_value=-50.0, max_value=0.0)


@st.composite
def journaled_response(draw):
    """A response of 0-8 positions whose rows hold 1-K alternatives, padded
    with -inf, and any finish reason."""
    n, width = draw(st.integers(0, 8)), draw(st.integers(1, 5))
    top = np.full((n, width), -np.inf)
    for row in top:
        filled = draw(st.integers(1, width))
        row[:filled] = sorted(draw(st.lists(_LOGPROB, min_size=filled, max_size=filled)), reverse=True)
    logprobs = np.array([draw(st.sampled_from(row[row > -np.inf].tolist())) for row in top])
    texts = draw(st.lists(_ANY_TEXT, min_size=n, max_size=n))
    return ModelResponse(texts, logprobs, top, draw(st.sampled_from(["stop", "length", "error"])))


def _dumped(entry):
    return (json.dumps(entry, ensure_ascii=False) + "\n").encode("utf-8")


@given(
    journaled_response(),
    _ANY_TEXT,
    _ANY_TEXT,
    st.sampled_from([0.0, 1e-06, 123.456789]) | st.floats(0.0, 1e4).map(lambda s: round(s, 6)),
    st.dictionaries(_ANY_TEXT, st.floats(0.0, 1.0), max_size=4),
)
@settings(max_examples=300, deadline=None)
def test_journal_line_is_json_dumps_of_the_entry(response, prompt, tag, elapsed, mass):
    key, request = generate_request(prompt, SamplingParams(), tag)
    line = _line(key, "generate", request, response, elapsed)
    journaled = response_to_obj(response)
    entry = {"key": key, "kind": "generate", "request": request, "response": journaled, "elapsed_s": elapsed}
    assert line == _dumped(entry)
    assert json.loads(line)["response"] == journaled
    request = {"prompt": prompt, "candidates": sorted(mass)}
    line = _line(key, "completion_probability", request, mass, elapsed)
    assert line == _dumped({"key": key, "kind": "completion_probability", "request": request, "response": mass})
    assert json.loads(line)["response"] == mass


def test_response_positions_read_like_wire_tokens():
    tokens = (make_token("é", -0.5, [("x", -0.1), ("y", -2.0)]), make_token(" 🙂", -0.2))
    positions = ModelResponse.from_tokens(tokens, "stop").tokens
    assert len(positions) == 2
    assert positions[0] == ("é", -0.5, ((None, -0.1), (None, -0.5), (None, -2.0)))
    # the -inf padding is not an alternative
    assert positions[-1].top_alternatives == ((None, -0.2),)
    assert [p.text for p in positions] == ["é", " 🙂"]
    assert positions[1:] == (positions[1],)
    with pytest.raises(IndexError):
        positions[2]


def test_one_token_response_round_trips(tmp_path):
    journal = tmp_path / "journal.jsonl"
    recorded = JournalingClient(str(journal), _CountingBackend()).generate("p", SamplingParams())
    assert len(recorded.tokens) == 1
    assert JournalingClient(str(journal)).generate("p", SamplingParams()) == recorded


def test_old_format_journal_is_a_config_error(tmp_path):
    journal = tmp_path / "journal.jsonl"
    _record_two(journal)
    first = json.loads(journal.read_text().splitlines()[0])
    first["response"] = {
        "tokens": [{"text": "hi", "logprob": -0.1, "alternatives": [["hi", -0.1]]}],
        "finish_reason": "stop",
    }
    with open(journal, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(first) + "\n")
    with pytest.raises(ConfigError, match="old journal format"):
        JournalingClient(str(journal))


def test_journal_entries_are_parsed_on_lookup(tmp_path):
    """Opening reads keys only: a line with a key and a broken body opens,
    and the lookup that reads it is a DataError naming the line."""
    journal = tmp_path / "journal.jsonl"
    _record_two(journal)
    first, second = journal.read_text().splitlines()
    broken = second[: second.index('"kind"')] + "not json}"
    journal.write_text(first + "\n" + broken + "\n")
    client = JournalingClient(str(journal), _CountingBackend())
    assert client.generate("p", SamplingParams()).full_text == "hi"
    with pytest.raises(DataError, match="line 2"):
        client.generate("q", SamplingParams())
    # an appended entry is served from its own offset
    client.generate("r", SamplingParams())
    assert JournalingClient(str(journal)).generate("r", SamplingParams()).full_text == "hi"


def test_a_journaled_array_with_a_character_outside_base64_is_a_data_error(tmp_path):
    """The decoder skips nothing: an array whose base64 text holds a
    foreign character fails its lookup instead of decoding the rest."""
    journal = tmp_path / "journal.jsonl"
    _record_two(journal)
    first, second = journal.read_text().splitlines()
    packed = json.loads(second)["response"]["logprobs"]
    damaged = second.replace(f'"logprobs": "{packed}"', f'"logprobs": "{packed[:4]}*{packed[4:]}"')
    assert damaged != second
    journal.write_text(first + "\n" + damaged + "\n")
    with JournalingClient(str(journal)) as client:
        assert client.generate("p", SamplingParams()).full_text == "hi"
        with pytest.raises(DataError, match="line 2"):
            client.generate("q", SamplingParams())


class _ScriptedBackend:
    """Answers each prompt with its response from a dict."""

    def __init__(self, responses):
        self.responses = responses

    def generate(self, prompt, params):
        return self.responses[prompt]


def test_long_journal_entry_indexes_and_replays_bit_exactly(tmp_path):
    """A 3072-token response with top-20 is a line of about 0.7 MB; it and
    the entries around it index, replay and look up bit for bit."""
    rng = np.random.default_rng(7)
    n, k = 3072, 20
    top = -np.sort(rng.exponential(3.0, size=(n, k)), axis=1)
    top[rng.random(n) < 0.1, k // 2 :] = -np.inf  # some ragged rows
    big = ModelResponse([f" w{i}" for i in range(n)], top[:, 0].copy(), top, "length")
    small = ModelResponse.from_tokens((make_token("hi", -0.1),), "stop")
    journal = tmp_path / "journal.jsonl"
    recorder = JournalingClient(str(journal), _ScriptedBackend({"a": small, "big": big, "b": small}))
    for prompt in ("a", "big", "b"):
        recorder.generate(prompt, SamplingParams())
    lines = journal.read_bytes().splitlines(keepends=True)
    assert 0.6e6 < len(lines[1]) < 0.8e6

    replayer = JournalingClient(str(journal))
    offsets = np.cumsum([0] + [len(line) for line in lines[:-1]])
    assert sorted(replayer._index.values()) == [
        (int(offset), len(line), number) for number, (offset, line) in enumerate(zip(offsets, lines), 1)
    ]
    clone = replayer.generate("big", SamplingParams())
    assert clone == big
    assert clone.logprobs.tobytes() == big.logprobs.tobytes()
    assert clone.top_logprobs.tobytes() == big.top_logprobs.tobytes()
    assert replayer.generate("b", SamplingParams()) == small
    assert replayer.stats.backend_calls == 0


def _v1_line(entry):
    """A journal line as journal_format 1 wrote it: per-token JSON."""
    entry = {**entry, "response": {
        "tokens": [{"text": "hi", "logprob": -0.1, "alternatives": [["hi", -0.1]]}],
        "finish_reason": "stop",
    }}
    return json.dumps(entry) + "\n"


# text a prompt may hold: JSON escapes its quotes, so it is never the key
_TOKENS_TEXT = 'reply as JSON: {"tokens": [{"text": "a"}]} ' * 80


def test_old_format_entry_after_new_ones_is_a_config_error(tmp_path):
    journal = tmp_path / "journal.jsonl"
    client = JournalingClient(str(journal), _CountingBackend())
    for prompt in ("p", _TOKENS_TEXT, "q"):
        client.generate(prompt, SamplingParams())
    lines = journal.read_text().splitlines(keepends=True)
    old = _v1_line(json.loads(lines[1]))
    assert old.index('"tokens": [{') > 3000  # past a long prompt
    journal.write_text(lines[0] + old + lines[2])
    with pytest.raises(ConfigError, match="old journal format"):
        JournalingClient(str(journal))


def test_prompt_holding_the_tokens_key_text_opens(tmp_path):
    journal = tmp_path / "journal.jsonl"
    recorded = JournalingClient(str(journal), _CountingBackend()).generate(_TOKENS_TEXT, SamplingParams())
    assert '"tokens": [{' in _TOKENS_TEXT
    replayer = JournalingClient(str(journal))
    assert replayer.generate(_TOKENS_TEXT, SamplingParams()) == recorded
    assert replayer.stats.backend_calls == 0


class _EchoBackend:
    """One token per response: the prompt itself, with a logprob read from
    it. The first ``failures`` calls raise instead."""

    def __init__(self, failures=0):
        self.calls = 0
        self.failures = failures

    def generate(self, prompt, params):
        self.calls += 1
        if self.calls <= self.failures:
            raise BackendError("endpoint down")
        return ModelResponse.from_tokens((make_token(prompt, -int(prompt[1:]) / 1000),), "stop")

    def completion_probability(self, prompt_text, candidates):
        self.calls += 1
        if self.calls <= self.failures:
            raise BackendError("endpoint down")
        return {c: int(prompt_text[1:]) / 1000 for c in candidates}


class _HeldCall(Future):
    """A backend call that runs when ``land()`` is called, or when its
    result is asked for, on the calling thread."""

    def __init__(self, fn, args):
        super().__init__()
        self._call = fn, args

    def land(self):
        if not self.done():
            fn, args = self._call
            try:
                self.set_result(fn(*args))
            except Exception as exc:  # the future holds it
                self.set_exception(exc)

    def result(self, timeout=None):
        self.land()
        return super().result(timeout)


class _HeldCalls:
    """A ``submit`` that holds each call until it is landed, so a test
    decides when a call in flight lands."""

    def __init__(self):
        self.held = []

    def __call__(self, fn, *args):
        self.held.append(_HeldCall(fn, args))
        return self.held[-1]

    def land(self, count=None):
        """Land the first ``count`` calls held (all by default)."""
        landing = self.held if count is None else self.held[:count]
        self.held = self.held[len(landing):]
        for call in landing:
            call.land()


def _ask(client, kind, prompt):
    if kind == "generate":
        return client.generate_timed(prompt, SamplingParams())[0].full_text
    return client.completion_probability(prompt, ["Yes"])


@pytest.mark.parametrize("kind", ["generate", "completion_probability"])
def test_a_key_in_flight_costs_one_backend_call(tmp_path, kind):
    """Starting a key that is in flight returns its future; the first
    request takes the landed call and appends it, the rest are hits."""
    journal = tmp_path / "journal.jsonl"
    inner, held = _EchoBackend(), _HeldCalls()
    arg = SamplingParams() if kind == "generate" else ["Yes"]
    with JournalingClient(str(journal), inner, held) as client:
        futures = [client.start(kind, "p7", arg) for _ in range(3)]
        assert futures[0] is not None and futures == [futures[0]] * 3
        assert len(held.held) == 1 and inner.calls == 0
        held.land()
        results = [_ask(client, kind, "p7") for _ in range(3)]
        assert results == [results[0]] * 3
        assert inner.calls == 1
        assert client.stats.backend_calls == 1 and client.stats.served_from_journal == 2
        assert client.start(kind, "p7", arg) is None  # journaled now
    assert len(journal.read_bytes().splitlines()) == 1


def test_start_returns_none_for_a_hit_a_replay_and_no_submit(tmp_path):
    journal = tmp_path / "journal.jsonl"
    with JournalingClient(str(journal), _EchoBackend()) as inline:
        assert inline.start("generate", "p1", SamplingParams()) is None  # no submit: served when asked
        assert inline.generate("p1", SamplingParams()).full_text == "p1"
    held = _HeldCalls()
    with JournalingClient(str(journal), _EchoBackend(), held) as client:
        assert client.start("generate", "p1", SamplingParams()) is None
    with JournalingClient(str(journal), None, held) as replayer:
        assert replayer.start("generate", "p2", SamplingParams()) is None
    assert held.held == []


def test_a_request_after_a_failed_call_makes_its_own(tmp_path):
    journal = tmp_path / "journal.jsonl"
    inner, held = _EchoBackend(failures=1), _HeldCalls()
    with JournalingClient(str(journal), inner, held) as client:
        client.start("generate", "p1", SamplingParams())
        held.land()
        with pytest.raises(BackendError, match="endpoint down"):
            client.generate("p1", SamplingParams())
        assert client.generate("p1", SamplingParams()).full_text == "p1"  # called here
        assert held.held == []
        assert inner.calls == 2 and client.stats.backend_calls == 1
    assert len(journal.read_bytes().splitlines()) == 1


def test_close_appends_the_calls_that_landed_and_drops_the_rest(tmp_path):
    """Closing appends each call that landed without error and was never
    asked for; a call that failed or has not landed is not journaled."""
    journal = tmp_path / "journal.jsonl"
    inner, held = _EchoBackend(failures=1), _HeldCalls()
    client = JournalingClient(str(journal), inner, held)
    for prompt in ("p1", "p2", "p3", "p4"):
        client.start("generate", prompt, SamplingParams())
    client.start("completion_probability", "p5", ["Yes"])
    held.land(3)  # p1 fails, p2 and p3 land
    assert not journal.exists()
    client.close()
    assert client.stats.backend_calls == 2
    with JournalingClient(str(journal)) as reopened:
        assert reopened.generate("p2", SamplingParams()).full_text == "p2"
        assert reopened.generate("p3", SamplingParams()).full_text == "p3"
        for prompt in ("p1", "p4"):
            with pytest.raises(ReplayMissError):
                reopened.generate(prompt, SamplingParams())
        with pytest.raises(ReplayMissError):
            reopened.completion_probability("p5", ["Yes"])


def test_hit_and_call_counts_over_interleaved_starts_and_requests(tmp_path):
    """Each of 50 prompts is started and asked for several times, in a
    shuffled order with calls landing in between: one backend call per
    prompt, every other request a hit, and the responses are each
    prompt's own."""
    journal = tmp_path / "journal.jsonl"
    inner, held = _EchoBackend(), _HeldCalls()
    prompts = [f"p{i}" for i in range(50)]
    steps = [("start", p) for p in prompts] * 2 + [("ask", p) for p in prompts] * 4
    rng = random.Random(3)
    rng.shuffle(steps)
    asked = set()
    with JournalingClient(str(journal), inner, held) as client:
        for step, prompt in steps:
            if step == "start":
                client.start("generate", prompt, SamplingParams())
            else:
                response = client.generate(prompt, SamplingParams())
                assert response.full_text == prompt
                assert response.logprobs[0] == -int(prompt[1:]) / 1000
                asked.add(prompt)
            if rng.random() < 0.3:
                held.land(rng.randrange(1, 4))
        held.land()
    assert inner.calls == client.stats.backend_calls == len(prompts)
    assert asked == set(prompts)
    assert client.stats.served_from_journal == 3 * len(prompts)
    with JournalingClient(str(journal)) as reopened:
        for prompt in prompts:
            assert reopened.generate(prompt, SamplingParams()).full_text == prompt
        assert reopened.stats.backend_calls == 0


def test_interleaved_calls_index_every_entry_at_its_own_offset(tmp_path):
    """Calls are started, landed, appended and looked up in a random order,
    the lookups asking for keys journaled, in flight, not started yet and
    never journaled; every entry is indexed at its own offset, and a reload
    indexes the same."""
    journal = tmp_path / "journal.jsonl"
    inner, held = _EchoBackend(), _HeldCalls()
    client = JournalingClient(str(journal), inner, held)
    prompts = [f"p{i}" for i in range(120)]
    rng = random.Random(11)
    order = prompts[:]
    rng.shuffle(order)
    asked = set()
    for n, prompt in enumerate(order):
        if n % 3:
            client.start("generate", prompt, SamplingParams())
            asked.add(prompt)
        held.land(rng.randrange(0, 3))
        looked_up = rng.choice(prompts)
        assert client.generate(looked_up, SamplingParams()).full_text == looked_up
        asked.add(looked_up)
        assert generate_request(f"x{n}", SamplingParams())[0] not in client._index
    held.land()
    client.close()  # appends the calls started and never asked for
    lines = journal.read_bytes().splitlines(keepends=True)
    assert inner.calls == client.stats.backend_calls == len(lines)
    assert sorted(json.loads(line)["request"]["prompt"] for line in lines) == sorted(asked)
    assert sorted(client._index) == sorted(json.loads(line)["key"] for line in lines)
    with open(journal, "rb") as handle:
        for key, (offset, length, number) in client._index.items():
            raw = os.pread(handle.fileno(), length, offset)
            assert raw == lines[number - 1]
            assert json.loads(raw)["key"] == key
    with JournalingClient(str(journal)) as reopened:
        assert reopened._index == client._index


def test_a_failed_journal_write_is_cut_back_before_the_next_append(tmp_path, monkeypatch):
    """A write that stops half way through a line and fails leaves the
    journal as it was, so the next append and the next load read clean."""
    journal = tmp_path / "journal.jsonl"
    inner = _CountingBackend()
    client = JournalingClient(str(journal), inner)
    client.generate("p", SamplingParams())
    intact = journal.read_bytes()
    real_write = os.write

    def half_then_fail(fd, data):
        if fd != client._fd:
            return real_write(fd, data)
        real_write(fd, data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "write", half_then_fail)
    with pytest.raises(OSError, match="No space left"):
        client.generate("q", SamplingParams())
    monkeypatch.undo()
    assert journal.read_bytes() == intact
    client.generate("r", SamplingParams())
    client.generate("q", SamplingParams())  # the lost response is asked for again
    assert inner.calls == 4 and client.stats.backend_calls == 3
    client.close()
    assert [json.loads(line)["request"]["prompt"] for line in journal.read_text().splitlines()] == ["p", "r", "q"]
    with JournalingClient(str(journal)) as reopened:
        for prompt in ("p", "q", "r"):
            assert reopened.generate(prompt, SamplingParams()).full_text == "hi"
        assert reopened.stats.backend_calls == 0


def test_journal_descriptor_lives_until_close_or_collection(tmp_path, no_fd_leaks):
    missing = tmp_path / "missing.jsonl"
    with JournalingClient(str(missing)) as replayer:
        with pytest.raises(ReplayMissError):
            replayer.generate("p", SamplingParams())
    assert not missing.exists()  # a replay creates no journal

    journal = tmp_path / "journal.jsonl"
    with JournalingClient(str(journal), _CountingBackend()) as client:
        recorded = client.generate("p", SamplingParams())  # opens the journal
        assert client.generate("p", SamplingParams()) == recorded
    no_fd_leaks()
    with pytest.raises(OSError):  # a closed client serves nothing
        client.generate("p", SamplingParams())

    dropped = JournalingClient(str(journal))  # opens the journal at load
    assert dropped.generate("p", SamplingParams()) == recorded
    del dropped
    no_fd_leaks()


# a value other than the default for every SamplingParams field; a new field
# needs one here before the key test below can pass
OTHER_SAMPLING = {"top_p": 0.5, "temperature": 1.3, "max_tokens": 77, "seed": 7, "top_k": 3}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SamplingParams)])
def test_every_sampling_field_changes_the_generation_key(name):
    params = SamplingParams()
    changed = dataclasses.replace(params, **{name: OTHER_SAMPLING[name]})
    assert getattr(changed, name) != getattr(params, name)
    key, request = generate_request("Puzzle: who is a knight?", changed, "s0")
    assert request[name] == OTHER_SAMPLING[name]
    assert key != generate_request("Puzzle: who is a knight?", params, "s0")[0]


def test_default_generation_key_and_journal_line_are_pinned(tmp_path):
    """The key and the journaled request of the default sampling settings,
    as the journals written so far hold them: a resume finds its responses
    only while both stay the same."""
    prompt = "Puzzle: who is a knight?"
    key, request = generate_request(prompt, SamplingParams(), "s0")
    assert key == "8419241b9e4a509087d8a4a0bb23e13c6e4c66e586e7ae7c0249e3e4ad0d63ac"
    assert generate_request(prompt, SamplingParams())[0] == (
        "32519c425f302815173c876d74649c36fad9e388b578d4070f8943abec441b2b"
    )
    backend = MockBackend({"responses": [{"match": "", "text": "Answer: none"}]})
    with JournalingClient(str(tmp_path / "journal.jsonl"), backend) as client:
        client.generate_timed(prompt, SamplingParams(), (key, request))
    line = (tmp_path / "journal.jsonl").read_text(encoding="utf-8")
    assert line.startswith(
        f'{{"key": "{key}", "kind": "generate", "request": {{"prompt": "Puzzle: who is a knight?", '
        '"top_p": 0.9, "temperature": 0.6, "max_tokens": 3072, "seed": null, "top_k": 20, "tag": "s0"}, '
        '"response": '
    )


# values that compare equal but dump differently, so a frame cached under one
# of them must not serve another
_EQUAL_NUMBERS = [0, 0.0, -0.0, 1, 1.0, True, False]
_SAMPLING = st.builds(
    SamplingParams,
    top_p=st.sampled_from([1, 1.0, True]) | st.floats(0.0, 1.0, exclude_min=True),
    temperature=st.sampled_from([*_EQUAL_NUMBERS, math.nan, math.inf]) | st.floats(min_value=0.0),
    max_tokens=st.sampled_from([1, True]) | st.integers(1, 2**70),
    seed=st.none() | st.sampled_from(_EQUAL_NUMBERS[::3]) | st.integers(-(2**70), 2**70),
    top_k=st.sampled_from([1, True]) | st.integers(1, 10**6),
)
# the prompt's own JSON text, and the texts around it in the canonical request
_KEY_TEXT = st.one_of(_ANY_TEXT, st.sampled_from(['"prompt": ""', '", "prompt": "', '\\"prompt\\": ', "}"]))


@given(_KEY_TEXT, _SAMPLING, _KEY_TEXT)
@settings(max_examples=500, deadline=None)
def test_generation_key_is_the_request_key_of_its_request(prompt, params, tag):
    key, request = generate_request(prompt, params, tag)
    sampling = {f.name: getattr(params, f.name) for f in dataclasses.fields(params)}
    assert json.dumps(request, ensure_ascii=False) == json.dumps(
        {"prompt": prompt, **sampling, "tag": tag}, ensure_ascii=False
    )
    assert key == _request_key("generate", request)
