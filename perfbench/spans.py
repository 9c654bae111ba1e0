"""Spans recorded from outside the package, and the per-layer numbers
derived from them.

``install`` replaces the module-level functions and methods that the
harness, the puzzle generators and the journaling client call with thin
wrappers that record a span per call: name, start, end, parent span,
request id and thread. Spans stay in memory until the phase ends.

Self time is computed per thread: a span's self time is its duration minus
the part covered by its children on the same thread. On the thread that
runs the phase, the self times of all spans therefore add up to the phase
wall time; spans on worker threads add up to their busy time.
"""

from __future__ import annotations

import contextlib
import itertools
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None
    thread: int
    size: int = 0  # what the call handled: prompt characters, tokens or chunks

    def to_row(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent, self.request, self.thread, self.size]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: Span | None = None
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, func, args, kwargs, request=None, size=None):
        if not self.enabled:
            return func(*args, **kwargs)
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        if request is None and parent is not None:
            request = parent.request
        span = Span(next(self._ids), name, 0.0, 0.0, parent.id if parent else None, request, threading.get_ident())
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if size is not None:
            span.size = size(args)
        return result

    @contextlib.contextmanager
    def root(self, name: str):
        """The phase span every other span descends from; spans are recorded
        only inside it."""
        span = Span(next(self._ids), name, 0.0, 0.0, None, None, threading.get_ident())
        self._root = span
        self._stack().append(span)
        self.enabled = True
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self.enabled = False
            self._stack().pop()
            self.spans.append(span)
            self._root = None

    def wrap(self, owner, attr: str, name: str, request=None, size=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        func = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            req = request(args) if request is not None and tracer.enabled else None
            return tracer.call(name, func, args, kwargs, req, size)

        wrapper.__wrapped__ = func
        self._patched.append((owner, attr, func))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, func in reversed(self._patched):
            setattr(owner, attr, func)
        self._patched.clear()


def _prompt_request(args) -> str | None:
    prompt = args[1]
    return f"{prompt.puzzle_id}/{prompt.strategy.key}" if hasattr(prompt, "puzzle_id") else None


def _render_request(args) -> str:
    return f"{args[1].puzzle_id}/{args[0].key}"


def _zebra_shape(args) -> str:
    return f"{args[0]}x{args[1]}"


def install(tracer: Tracer, backend_cls) -> None:
    """Wrap every layer boundary the benchmark measures, the synthetic
    backend class's calls included."""
    import importlib
    from concurrent.futures import Future

    import logicpool.inference as inference
    import logicpool.puzzles.knights as knights
    import logicpool.puzzles.zebra as zebra

    # the package re-exports the function run() under the module's name
    harness_run = importlib.import_module("logicpool.harness.run")

    wrap = tracer.wrap
    wrap(harness_run, "generate_kk", "puzzles.generate_kk")
    wrap(harness_run, "generate_zebra", "puzzles.generate_zebra", request=_zebra_shape)
    wrap(zebra, "solve_zebra", "puzzles.solve_zebra")
    wrap(knights, "solve_kk", "puzzles.solve_kk")
    wrap(harness_run, "build_corpus", "harness.build_corpus")
    wrap(harness_run, "render", "prompts.render", request=_render_request)
    client = inference.JournalingClient
    wrap(client, "generate_timed", "inference.generate_timed", request=_prompt_request)
    wrap(client, "completion_probability", "inference.completion_probability", size=lambda args: len(args[1]))
    wrap(client, "_load", "inference.journal_load")
    wrap(client, "_append", "inference.journal_append")
    wrap(inference, "response_from_obj", "inference.response_from_obj")
    wrap(harness_run, "segment", "scoring.segment", size=lambda args: len(args[0].tokens))
    wrap(harness_run, "score_response", "scoring.score_response")
    wrap(harness_run, "chunk", "verifier.chunk")
    wrap(harness_run, "verify", "verifier.verify", size=lambda args: len(args[1].chunks))
    wrap(harness_run, "extract_answer", "selection.extract_answer")
    for criterion in (
        "majority_groups",
        "majority_vote",
        "select_max_prob",
        "select_min_entropy",
        "select_verifier",
        "vote_plus_prob",
        "vote_plus_verifier",
        "oracle",
    ):
        wrap(harness_run, criterion, "selection.criteria")
    wrap(harness_run, "append_jsonl", "harness.append_jsonl")
    wrap(harness_run, "write_jsonl", "harness.write_jsonl")
    wrap(harness_run, "load_records", "harness.load_records")
    wrap(harness_run, "write_reports", "harness.write_reports")
    wrap(Future, "result", "harness.wait")
    wrap(backend_cls, "generate", "backend.generate")
    wrap(backend_cls, "completion_probability", "backend.completion_probability")


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    by_id = {span.id: span for span in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is not None and parent.thread == span.thread:
            children[parent.id].append((span.start, span.end))
    return {
        span.id: (span.end - span.start) - _covered(children[span.id], span.start, span.end)
        for span in spans
    }


@dataclass
class LayerStats:
    calls: int = 0
    s: float = 0.0  # inclusive
    self_s: float = 0.0
    size: int = 0
    durations: list[float] = field(default_factory=list)

    def quantile_ms(self, q: float) -> float:
        values = sorted(self.durations)
        if not values:
            return 0.0
        if len(values) == 1:
            return values[0] * 1000
        cuts = statistics.quantiles(values, n=100, method="inclusive")
        return cuts[int(round(q * 100)) - 1] * 1000


def aggregate(spans: list[Span]) -> tuple[dict[str, LayerStats], Span, float]:
    """Per-name totals, the root span, and the self-time sum on the root's
    thread."""
    root = next(span for span in spans if span.parent is None)
    selfs = self_times(spans)
    stats: dict[str, LayerStats] = defaultdict(LayerStats)
    main_self = 0.0
    for span in spans:
        entry = stats[span.name]
        entry.calls += 1
        entry.s += span.end - span.start
        entry.self_s += selfs[span.id]
        entry.size += span.size
        entry.durations.append(span.end - span.start)
        if span.thread == root.thread:
            main_self += selfs[span.id]
    return stats, root, main_self
