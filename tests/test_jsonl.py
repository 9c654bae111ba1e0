import json
import logging
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from logicpool import jsonl
from logicpool.errors import DataError


def _parse(raw: bytes) -> bytes:
    if raw.startswith(b"!"):
        raise ValueError("a line the parser rejects")
    return raw


def reference_read(path: str, data: bytes, torn: str):
    """What ``read_lines`` must give for ``data``, from ``bytes.splitlines``:
    ``(rows, error, warnings, size after)``."""
    rows, offset = [], 0
    for number, raw in enumerate(data.splitlines(keepends=True), 1):
        if torn != "read" and not raw.endswith(b"\n"):
            verb = "truncating" if torn == "truncate" else "skipping"
            size = offset if torn == "truncate" else len(data)
            return rows, None, [f"{path}: {verb} a torn final line at byte {offset}"], size
        if raw.strip():
            if raw.startswith(b"!"):
                return None, f"{path}: line {number} is malformed", [], len(data)
            rows.append((number, offset, raw))
        offset += len(raw)
    return rows, None, [], len(data)


class _Messages(logging.Handler):
    def __init__(self) -> None:
        super().__init__()
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


# no "\r": bytes.splitlines would end a line there, a file's lines do not
_SHORT_LINE = st.one_of(
    st.just(b""),
    st.binary(min_size=1, max_size=4).map(lambda b: bytes(b" \t\x0b\x0c"[x % 4] for x in b)),
    st.binary(min_size=1, max_size=40).map(lambda b: bytes(b"ab {}!"[x % 6] for x in b)),
)
# about one read block, so a file stays within a few MB
_LONG_LINE = st.tuples(st.integers(-2, 2), st.sampled_from(b"xy!")).map(
    lambda t: bytes([t[1]]) + b"z" * (jsonl._BLOCK + t[0])
)


@st.composite
def _lines(draw):
    lines = draw(st.lists(_SHORT_LINE, max_size=10))
    for line in draw(st.lists(_LONG_LINE, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return lines


@given(lines=_lines(), final_newline=st.booleans(), torn=st.sampled_from(["truncate", "skip", "read"]))
@settings(max_examples=80, deadline=None)
def test_read_lines_matches_a_splitlines_model(lines, final_newline, torn):
    """Blank and whitespace-only lines, lines longer than the read block, a
    final line with or without its newline, in every torn mode: the rows,
    the error, the warning and the file's size after reading all match the
    model."""
    data = b"\n".join(lines) + (b"\n" if final_newline and lines else b"")
    handler = _Messages()
    logger = logging.getLogger("logicpool.jsonl")
    logger.addHandler(handler)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "lines.jsonl")
            with open(path, "wb") as handle:
                handle.write(data)
            rows, error, warnings, size = reference_read(path, data, torn)
            if error is None:
                assert jsonl.read_lines(path, _parse, torn) == rows
            else:
                with pytest.raises(DataError) as caught:
                    jsonl.read_lines(path, _parse, torn)
                assert str(caught.value).startswith(error)
            assert handler.messages == warnings
            assert os.path.getsize(path) == size
    finally:
        logger.removeHandler(handler)


_NEW = b'{"a": 1}\n{"b": 2}\n'


@pytest.mark.parametrize(
    "old",
    [
        None,
        b'{"a": 1}\n{"b": 3}\n',
        _NEW[:-9],
        _NEW + b'{"c": 3}\n',
        _NEW[:-3],  # a prefix of the new bytes: a write cut short
        b"",
    ],
    ids=["missing", "same-size", "shorter", "longer", "torn", "empty"],
)
def test_write_bytes_rewrites_a_file_that_differs(tmp_path, old):
    path = tmp_path / "out.jsonl"
    if old is not None:
        path.write_bytes(old)
    jsonl.write_bytes(str(path), _NEW)
    assert path.read_bytes() == _NEW


def test_write_bytes_leaves_a_file_that_holds_the_bytes_untouched(tmp_path):
    path = tmp_path / "out.jsonl"
    path.write_bytes(_NEW)
    os.utime(path, ns=(10**18, 10**18))  # in 2001: opening it for writing would move it to now
    before = path.stat()
    jsonl.write_bytes(str(path), _NEW)
    after = path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert path.read_bytes() == _NEW


def test_write_jsonl_returns_the_bytes_it_leaves_in_the_file(tmp_path):
    path = tmp_path / "out.jsonl"
    objs = [{"a": "é "}, {"b": [1, 2.5, None]}]
    data = jsonl.write_jsonl(str(path), objs)
    assert data == path.read_bytes()
    assert data == "".join(json.dumps(obj, ensure_ascii=False) + "\n" for obj in objs).encode("utf-8")
    assert jsonl.read_jsonl(str(path)) == objs
