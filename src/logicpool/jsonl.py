"""JSON-lines files, the one rule for reading them, and the one writer of
whole files.

Every line is written with its newline in one write, so a final line
without one is a write cut short (a killed run). The process that holds the
run directory's lock truncates it away with a warning, so the next append
starts on a clean line; any other reader (``report``, ``sweep``) skips it
with a warning and writes nothing, because a run may still be appending
that line. Any other line that cannot be read is a DataError naming the
file and the line.

Every file a run or a command writes whole (a corpus, the selection rows,
the failures, the reports, the manifest, a sweep) goes through
``write_bytes``, which leaves a file that already holds the bytes as it is:
a no-op rerun or ``report`` rewrites no file and keeps every file's inode
and mtime.
"""

from __future__ import annotations

import json
import logging
import os
from typing import Any, Callable, Iterable, TypeVar

from .errors import DataError

logger = logging.getLogger(__name__)

T = TypeVar("T")

# The read buffer: larger than a line of the run files (a journal entry of
# 3072 tokens with top-20 is about 0.7 MB), so a line is cut from the buffer
# in one copy instead of being joined from many small refills. A longer
# line still reads, in several refills.
_BLOCK = 1 << 20


def read_lines(path: str, parse: Callable[[bytes], T], torn: str = "skip") -> list[tuple[int, int, T]]:
    """``(line number, byte offset, parse(line))`` for every non-blank line.

    The file is read in one buffered pass, each line handed to ``parse`` as
    it is cut from the buffer. ``parse`` raises ValueError, TypeError or
    KeyError on a line it cannot read. ``torn`` says what happens to a final
    line without its newline: ``"truncate"`` it away (only under the run
    lock), ``"skip"`` it, or ``"read"`` it like any other line (a file the
    program did not write, such as an input corpus).
    """
    rows: list[tuple[int, int, T]] = []
    torn_at = None
    with open(path, "rb", buffering=_BLOCK) as handle:
        offset = 0
        for number, raw in enumerate(handle, 1):
            if torn != "read" and not raw.endswith(b"\n"):
                torn_at = offset
                break
            if not raw.isspace():  # iteration yields no empty line
                try:
                    rows.append((number, offset, parse(raw)))
                except (ValueError, TypeError, KeyError) as exc:
                    raise DataError(f"{path}: line {number} is malformed ({exc!r})") from None
            offset += len(raw)
    if torn_at is not None and torn == "truncate":
        logger.warning("%s: truncating a torn final line at byte %d", path, torn_at)
        os.truncate(path, torn_at)
    elif torn_at is not None:
        logger.warning("%s: skipping a torn final line at byte %d", path, torn_at)
    return rows


def parse_object(raw: bytes) -> dict[str, Any]:
    obj = json.loads(raw)
    if not isinstance(obj, dict):
        raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def is_number(value: Any) -> bool:
    """True for a JSON number as ``json`` reads it (a bool is not one)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def read_jsonl(path: str, torn: str = "skip") -> list[dict[str, Any]]:
    """The objects of a JSON-lines file, under the rule above."""
    return [obj for _, _, obj in read_lines(path, parse_object, torn)]


def write_bytes(path: str | os.PathLike[str], data: bytes) -> None:
    """Make ``data`` the whole content of ``path``. A file that already holds
    exactly these bytes (its size first, then its bytes) is not opened for
    writing; any other, or none, is written as ``open(path, "wb")`` writes."""
    try:
        if os.stat(path).st_size == len(data):
            with open(path, "rb") as handle:
                if handle.read() == data:
                    return
    except OSError:  # no file, or one that cannot be read: write it
        pass
    with open(path, "wb") as handle:
        handle.write(data)


def _lines(objs: Iterable[dict[str, Any]]) -> bytes:
    return "".join(json.dumps(obj, ensure_ascii=False) + "\n" for obj in objs).encode("utf-8")


def write_jsonl(path: str, objs: Iterable[dict[str, Any]]) -> bytes:
    """Write the objects' lines as the whole file through ``write_bytes``;
    return the file's bytes."""
    data = _lines(objs)
    write_bytes(path, data)
    return data


def append_jsonl(path: str, objs: Iterable[dict[str, Any]]) -> None:
    """Append the objects' lines with one open and one write."""
    with open(path, "ab") as handle:
        handle.write(_lines(objs))
