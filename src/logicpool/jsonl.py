"""JSON-lines files and the one rule for reading them.

Every line is written with its newline in one write, so a final line
without one is a write cut short (a killed run). The process that holds the
run directory's lock truncates it away with a warning, so the next append
starts on a clean line; any other reader (``report``, ``sweep``) skips it
with a warning and writes nothing, because a run may still be appending
that line. Any other line that cannot be read is a DataError naming the
file and the line.
"""

from __future__ import annotations

import json
import logging
import os
from typing import Any, Callable, Iterable, TypeVar

from .errors import DataError

logger = logging.getLogger(__name__)

T = TypeVar("T")


def read_lines(path: str, parse: Callable[[bytes], T], torn: str = "skip") -> list[tuple[int, int, T]]:
    """``(line number, byte offset, parse(line))`` for every non-blank line.

    ``parse`` raises ValueError, TypeError or KeyError on a line it cannot
    read. ``torn`` says what happens to a final line without its newline:
    ``"truncate"`` it away (only under the run lock), ``"skip"`` it, or
    ``"read"`` it like any other line (a file the program did not write,
    such as an input corpus).
    """
    rows: list[tuple[int, int, T]] = []
    torn_at = None
    with open(path, "rb") as handle:
        offset = 0
        for number, raw in enumerate(handle, 1):
            if torn != "read" and not raw.endswith(b"\n"):
                torn_at = offset
                break
            if raw.strip():
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


def write_jsonl(path: str, objs: Iterable[dict[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for obj in objs:
            handle.write(json.dumps(obj, ensure_ascii=False) + "\n")


def append_jsonl(path: str, obj: dict[str, Any]) -> None:
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(obj, ensure_ascii=False) + "\n")
