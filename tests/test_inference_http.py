"""Wire-level tests for the OpenAI-compatible client against a local HTTP
stub (chat + completions payloads, retry behavior, protocol errors)."""

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
import requests

from logicpool.errors import BackendError, ProtocolError
from logicpool.inference import OpenAIClient, SamplingParams


class _StubHandler(BaseHTTPRequestHandler):
    script = []  # list of (status, payload_dict) consumed per request
    requests = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        type(self).requests.append({"path": self.path, "body": body})
        status, payload = self.script.pop(0) if self.script else (500, {"error": "empty script"})
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):  # keep test output clean
        pass


@pytest.fixture
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _StubHandler.script = []
    _StubHandler.requests = []
    yield f"http://127.0.0.1:{server.server_port}", _StubHandler
    server.shutdown()
    server.server_close()


@pytest.fixture
def session():
    """The HTTP session a test hands its client, closed after the test so
    no connection outlives it."""
    with requests.Session() as session:
        yield session


def _chat_payload(tokens):
    return {
        "choices": [
            {
                "finish_reason": "stop",
                "logprobs": {
                    "content": [
                        {
                            "token": text,
                            "logprob": lp,
                            "top_logprobs": [{"token": text, "logprob": lp}] + [
                                {"token": alt, "logprob": alt_lp} for alt, alt_lp in alts
                            ],
                        }
                        for text, lp, alts in tokens
                    ]
                },
            }
        ]
    }


def test_chat_parse(stub_server, session):
    base_url, handler = stub_server
    handler.script.append(
        (200, _chat_payload([("Hello", -0.1, [(" Hi", -2.0)]), (" there", -0.2, [])]))
    )
    client = OpenAIClient(base_url, model="m", api="chat", max_retries=0, session=session)
    response = client.generate("prompt text", SamplingParams(max_tokens=16))
    assert response.full_text == "Hello there"
    assert response.texts == ("Hello", " there")
    assert response.logprobs.tolist() == [-0.1, -0.2]
    # the second position has one alternative: its row is padded with -inf
    assert response.top_logprobs.tolist() == [[-0.1, -2.0], [-0.2, float("-inf")]]
    body = handler.requests[0]["body"]
    assert handler.requests[0]["path"] == "/chat/completions"
    assert body["messages"] == [{"role": "user", "content": "prompt text"}]
    assert body["top_logprobs"] == 20
    assert body["top_p"] == 0.9 and body["temperature"] == 0.6


def test_completions_parse(stub_server, session):
    base_url, handler = stub_server
    handler.script.append(
        (
            200,
            {
                "choices": [
                    {
                        "finish_reason": "length",
                        "logprobs": {
                            "tokens": ["A", ":"],
                            "token_logprobs": [-0.3, -0.05],
                            "top_logprobs": [{"A": -0.3, "B": -1.7}, {":": -0.05}],
                        },
                    }
                ]
            },
        )
    )
    client = OpenAIClient(base_url, model="m", api="completions", max_retries=0, session=session)
    response = client.generate("p", SamplingParams(max_tokens=2))
    assert response.full_text == "A:"
    assert response.finish_reason == "length"
    assert handler.requests[0]["path"] == "/completions"
    assert handler.requests[0]["body"]["logprobs"] == 20


def test_retry_then_success(stub_server, session):
    base_url, handler = stub_server
    handler.script.append((500, {"error": "boom"}))
    handler.script.append((200, _chat_payload([("ok", -0.1, [])])))
    client = OpenAIClient(base_url, model="m", max_retries=2, backoff=0.01, session=session)
    response = client.generate("p", SamplingParams())
    assert response.full_text == "ok"
    assert len(handler.requests) == 2


def test_each_retry_is_logged(stub_server, session, caplog):
    base_url, handler = stub_server
    handler.script.extend([(500, {"error": "boom"}), (503, {"error": "down"})])
    handler.script.append((200, _chat_payload([("ok", -0.1, [])])))
    client = OpenAIClient(base_url, model="m", max_retries=2, backoff=0.01, session=session)
    with caplog.at_level("WARNING", logger="logicpool.inference"):
        assert client.generate("p", SamplingParams()).full_text == "ok"
    retries = [r for r in caplog.records if r.name == "logicpool.inference"]
    assert [r.levelname for r in retries] == ["WARNING", "WARNING"]
    first, second = (r.getMessage() for r in retries)
    assert "HTTP 500" in first and "attempt 1/3" in first and "retrying in 0.01 s" in first
    assert "HTTP 503" in second and "attempt 2/3" in second and "retrying in 0.02 s" in second


def test_retries_exhausted_raise_backend_error(stub_server, session):
    base_url, handler = stub_server
    handler.script.extend([(503, {"error": "down"})] * 3)
    client = OpenAIClient(base_url, model="m", max_retries=2, backoff=0.01, session=session)
    with pytest.raises(BackendError):
        client.generate("p", SamplingParams())
    assert len(handler.requests) == 3


def test_client_error_is_not_retried(stub_server, session):
    base_url, handler = stub_server
    handler.script.append((400, {"error": "bad request"}))
    client = OpenAIClient(base_url, model="m", max_retries=3, backoff=0.01, session=session)
    with pytest.raises(ProtocolError):
        client.generate("p", SamplingParams())
    assert len(handler.requests) == 1


def test_client_error_names_its_status(stub_server, session):
    base_url, handler = stub_server
    handler.script.append((400, {"error": "bad request"}))
    client = OpenAIClient(base_url, model="m", max_retries=0, session=session)
    with pytest.raises(ProtocolError, match="^HTTP 400: "):
        client.generate("p", SamplingParams())


def test_missing_logprobs_is_protocol_error(stub_server, session):
    base_url, handler = stub_server
    handler.script.append((200, {"choices": [{"finish_reason": "stop"}]}))
    client = OpenAIClient(base_url, model="m", max_retries=0, session=session)
    with pytest.raises(ProtocolError):
        client.generate("p", SamplingParams())


def test_completion_probability_uses_first_position(stub_server, session):
    base_url, handler = stub_server
    handler.script.append(
        (
            200,
            _chat_payload(
                [(" Yes", math.log(0.6), [(" No", math.log(0.3)), ("Yes.", math.log(0.05))])]
            ),
        )
    )
    client = OpenAIClient(base_url, model="m", max_retries=0, session=session)
    mass = client.completion_probability("is it sound?", ["Yes", "No"])
    assert mass["Yes"] == pytest.approx(0.65)
    assert mass["No"] == pytest.approx(0.3)
    assert handler.requests[0]["body"]["max_tokens"] == 1


def test_api_key_header(stub_server, session):
    base_url, handler = stub_server

    captured = {}
    original = _StubHandler.do_POST

    def spy(self):
        captured["auth"] = self.headers.get("Authorization")
        original(self)

    _StubHandler.do_POST = spy
    try:
        handler.script.append((200, _chat_payload([("x", -0.1, [])])))
        client = OpenAIClient(base_url, model="m", api_key="sk-test", max_retries=0, session=session)
        client.generate("p", SamplingParams())
    finally:
        _StubHandler.do_POST = original
    assert captured["auth"] == "Bearer sk-test"
