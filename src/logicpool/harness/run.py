"""End-to-end experiment driver.

A run directory holds the corpus, the request/response journal (the only
copy of token data), EvalRecords (JSONL), per-puzzle selection rows,
reports, and a manifest. Everything downstream of the journal is pure, so
re-running a completed directory (or replaying its journal into a fresh
one) reproduces records and reports byte-for-byte with zero backend calls.
A run rewrites only the files whose bytes change (``write_bytes``), so a
no-op rerun leaves every file of the directory untouched.

A run is a pipeline of (puzzle, sample) pools, one ``_Pool`` each. A pool
is started when its prompts are rendered and keyed and its missing
generations started, scored ``2 * concurrency`` pools later (its new
records built, the calls of its verification prefixes started), and
finished in corpus order once those calls land (its candidates verified,
its new records appended). So the work in flight does not grow with the
corpus, and one pool's verifications overlap the next pools' generations.
A finished pool keeps only its records, its truth and its shared fields.
After the last pool, one pass makes every selection row: each criterion
selects all pools in one call (``selection.select_pools``).

The thread that calls ``run()`` is the only one that touches a journal:
it keys every request, serves journal hits, keeps one future per key in
flight and appends each landed response. It also runs the backend's calls
itself until one of them waits; from then on, and from the first call
when a client calls an endpoint, ``concurrency`` worker threads run them
(``_CallPlacer``), and the workers only run the backend's calls. A
replay's clients have no backend, so it starts nothing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import fcntl
import hashlib
import json
import os
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

from .. import __version__
from ..errors import ConfigError, LogicPoolError
from ..inference import JOURNAL_FORMAT, InferenceClient, JournalingClient, OpenAIClient, generate_request, probability_request
from ..prompts import TEMPLATE_VERSION, RenderedPrompt, Strategy, prompt_fills, render
from ..puzzles import Puzzle, generate_kk, generate_zebra, puzzle_to_obj, read_puzzles
from ..scoring import score_response, segment
from ..selection import (
    MAJORITY_VOTE,
    MAX_PROB,
    MIN_ENTROPY,
    ORACLE,
    VERIFIER,
    VOTE_PROB,
    VOTE_VERIFIER,
    CandidatePool,
    CanonicalAnswer,
    SelectionResult,
    answer_patterns,
    extract_answer,
    majority_groups,
    majority_vote,
    oracle,
    select_max_prob,
    select_min_entropy,
    select_pools,
    select_verifier,
    truth_answer,
    vote_groups,
    vote_plus_prob,
    vote_plus_verifier,
)
from ..verifier import YES, ChunkedAnswer, chunk, prefix_prompts, verify
from .config import ExperimentConfig
from .records import (
    EvalRecord,
    SelectionRow,
    append_jsonl,
    load_records,
    write_bytes,
    write_jsonl,
)
# run() calls write_reports as this module's global, so it can be wrapped here
from .report import ReportTable, write_reports

RECORDS_FILE = "records.jsonl"
SELECTIONS_FILE = "selections.jsonl"
JOURNAL_FILE = "journal.jsonl"
VERIFIER_JOURNAL_FILE = "verifier_journal.jsonl"
CORPUS_FILE = "corpus.jsonl"
MANIFEST_FILE = "manifest.json"
FAILURES_FILE = "failures.jsonl"
LOCK_FILE = ".lock"


@dataclass
class RunResult:
    run_dir: str
    records: list[EvalRecord]
    selections: list[SelectionRow]
    tables: dict[str, ReportTable]
    failures: list[dict]
    backend_calls: int
    exit_code: int


@contextlib.contextmanager
def _run_lock(run_dir: str):
    """One process owns a run directory at a time: it holds an exclusive
    flock on the directory's lock file for the whole run. The lock goes
    with the process however it ends, so a lock file left behind blocks
    nothing. The file itself stays; removing it would let two processes
    lock different files."""
    path = os.path.join(run_dir, LOCK_FILE)
    with open(path, "a") as handle:  # closing the file releases the lock
        try:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise ConfigError(f"run directory is in use by another process ({path})") from None
        yield


def build_corpus(config: ExperimentConfig) -> list[Puzzle]:
    """Deterministic corpus: generated from the spec or loaded from JSONL."""
    if config.corpus_path:
        return read_puzzles(config.corpus_path)
    spec = config.generate
    assert spec is not None
    puzzles: list[Puzzle] = []
    index = 0
    for size in spec.kk_sizes:
        for _ in range(spec.kk_per_size):
            puzzles.append(generate_kk(size, seed=spec.seed + index))
            index += 1
    for houses, attrs, count in spec.zebra_configs:
        for offset in range(count):
            puzzles.append(generate_zebra(houses, attrs, seed=spec.seed + offset))
    return puzzles


def apply_criterion(
    criterion: str, pool: CandidatePool, lambda_p: float, lambda_e: float
) -> SelectionResult:
    """Apply one criterion other than the oracle to one pool, as the run's
    selection pass applies it to each pool."""
    if criterion == MAJORITY_VOTE:
        return majority_vote(pool)
    if criterion == MAX_PROB:
        return select_max_prob(pool, lambda_p)
    if criterion == MIN_ENTROPY:
        return select_min_entropy(pool, lambda_e)
    if criterion == VERIFIER:
        return select_verifier(pool)
    if criterion == VOTE_PROB:
        return vote_plus_prob(pool, lambda_p)
    if criterion == VOTE_VERIFIER:
        return vote_plus_verifier(pool)
    raise ConfigError(f"unknown criterion {criterion!r}")


# How far a call's wall time must exceed twice its thread CPU time for the
# call to count as waiting. A call that only computes still loses the CPU
# to other processes for a scheduler slice or two: with two busy processes
# on two cores, 8 in 6,000 such calls ran over 5 ms past twice their CPU
# time and 1 over 10 ms. A longer call is preempted more often, hence the
# factor. An endpoint's calls are not timed at all (``_CallPlacer.add``).
WAIT_MARGIN_S = 0.010


class _CallPlacer:
    """Runs a run's backend calls on the run thread until one of them waits,
    then hands each later call to ``workers`` threads.

    A backend that computes on the calling thread (the mock) gains nothing
    from worker threads: they only pass the interpreter lock back and forth
    with the run thread. So a call runs inline while no call has waited. A
    call waited when its wall time exceeds twice its thread CPU time by
    ``WAIT_MARGIN_S``; measured on the run thread, no other thread of the
    run holds the interpreter lock, so the gap is time spent off the CPU
    (work the backend does on other threads or a device counts as waiting).
    The switch is one-way, and the first call that waits runs alone. A run
    with an endpoint client starts on the workers instead (``add``).
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.pool: ThreadPoolExecutor | None = None  # None until a call waits

    def add(self, client: InferenceClient | None) -> None:
        """Note a client whose calls this placer runs. Every call to an
        endpoint (``OpenAIClient``) waits on the network, however fast the
        endpoint answers, so from a run with one every call goes to the
        workers: timing a quick first call could keep the run serial."""
        if isinstance(client, OpenAIClient) and self.pool is None:
            self.pool = ThreadPoolExecutor(max_workers=self.workers)

    def submit(self, fn, /, *args) -> Future:
        """The future of ``fn(*args)``: done when the call ran inline. Like
        an executor's, it holds an ``Exception`` the call raised; any other
        ``BaseException`` (an interrupt) propagates."""
        if self.pool is not None:
            return self.pool.submit(fn, *args)
        future: Future = Future()
        wall, cpu = time.monotonic(), time.thread_time()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        if time.monotonic() - wall > 2 * (time.thread_time() - cpu) + WAIT_MARGIN_S:
            self.pool = ThreadPoolExecutor(max_workers=self.workers)
        return future

    def shutdown(self) -> None:
        """Drop the calls not started yet and wait for the running ones."""
        if self.pool is not None:
            self.pool.shutdown(cancel_futures=True)


@dataclass
class _CandidateTask:
    strategy: Strategy
    prompt: RenderedPrompt
    keyed: tuple[str, dict]  # the generation's key and journaled request
    record: EvalRecord | None = None
    pending: tuple[ChunkedAnswer, list] | None = None  # the chunks and prefix requests of a pending verification
    failure: dict | None = None  # the generate or score failure row


@dataclass
class _Pool:
    """One (puzzle, sample) candidate pool, from its generations to its
    selection rows. ``shared`` holds the fields its records and selection
    rows share; ``new`` are the tasks whose records this run builds from
    their generations."""

    puzzle: Puzzle
    sample: int
    question: str
    truth: CanonicalAnswer
    patterns: dict | None  # the puzzle's answer_patterns
    shared: dict
    tasks: list[_CandidateTask]
    new: list[_CandidateTask]
    futures: list[Future]  # its backend calls in flight: generations, then verification prefixes

    def candidates(self) -> CandidatePool:
        """The pool of the tasks' current records, which are in strategy
        order because the tasks are."""
        return CandidatePool(self.puzzle.puzzle_id, [task.record for task in self.tasks])

    def landed(self) -> bool:
        return all(future.done() for future in self.futures)


def _failure_row(kind: str, pool: _Pool, task: _CandidateTask, exc: LogicPoolError) -> dict:
    return {
        "kind": kind,
        "puzzle_id": pool.puzzle.puzzle_id,
        "strategy": task.strategy.key,
        "sample": pool.sample,
        "error": str(exc),
    }


class _Runner:
    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config
        self.failures: list[dict] = []
        self.records: list[EvalRecord] = []
        self.selections: list[SelectionRow] = []
        # the finished pools, in corpus order, as their records, truth and shared fields
        self.finished: list[tuple[CandidatePool, CanonicalAnswer, dict]] = []
        # the run's journals, opened by run(); one client unless verification has its own backend
        self.client: JournalingClient | None = None
        self.verifier_client: JournalingClient | None = None

    # -- the pool pipeline -----------------------------------------------------

    def _start(self, puzzle: Puzzle, fills: dict[str, str], patterns, sample: int, strategies, existing) -> _Pool:
        """Render the pool's prompts from the puzzle's ``prompt_fills`` and
        key them, take the stored record of each request, and start the
        generations of the others."""
        config = self.config
        tasks, new, futures = [], [], []
        for strategy in strategies:
            prompt = render(strategy, puzzle, instruction_tags=config.instruction_tags, fills=fills)
            keyed = generate_request(prompt, config.sampling, f"s{sample}")
            task = _CandidateTask(strategy, prompt, keyed, record=existing.get((puzzle.puzzle_id, keyed[0])))
            if task.record is None:
                futures.append(self.client.start("generate", prompt, config.sampling, keyed))
                new.append(task)
            tasks.append(task)
        shared = dict(
            puzzle_id=puzzle.puzzle_id,
            family=puzzle.family,
            difficulty=puzzle.difficulty,
            sample=sample,
            n_clues=len(puzzle.clues) if hasattr(puzzle, "clues") else None,
        )
        futures = [future for future in futures if future is not None]
        return _Pool(puzzle, sample, prompt.question, truth_answer(puzzle), patterns, shared, tasks, new, futures)

    def _build_record(self, pool: _Pool, task: _CandidateTask) -> EvalRecord:
        """Take the task's generation and score it. A failed generation or a
        response that cannot be scored sets the task's failure row and the
        record's error; the response itself is not kept, so a replay holds
        one decoded response at a time."""
        text, finish_reason, confidence, elapsed, error = "", "error", None, 0.0, None
        try:
            response, elapsed = self.client.generate_timed(task.prompt, self.config.sampling, task.keyed)
        except LogicPoolError as exc:
            task.failure = _failure_row("generate", pool, task, exc)
        else:
            text = response.full_text
            finish_reason = response.finish_reason
            try:
                confidence = score_response(response, segment(response))
            except LogicPoolError as exc:
                task.failure = _failure_row("score", pool, task, exc)
        if task.failure is not None:
            error = task.failure["error"]
        answer = extract_answer(text, pool.puzzle, pool.patterns)
        return EvalRecord(
            strategy=task.strategy.key,
            request_sha256=task.keyed[0],
            response_text=text,
            finish_reason=finish_reason,
            answer=answer,
            correct=answer.parse_ok and answer == pool.truth,
            confidence=confidence,
            verifier=None,
            elapsed_s=elapsed,
            error=error,
            **pool.shared,
        )

    def _score(self, pool: _Pool) -> None:
        """Build the pool's new records, then key (once) and start the prefix
        calls of the verifications the criteria need, skipping stored
        scores: every parseable candidate for ``verifier``; for
        ``vote_verifier`` without it, only the tied majority groups. Any
        other candidate keeps no score, so a resume under fewer criteria
        writes a fresh run's records."""
        for task in pool.new:
            task.record = self._build_record(pool, task)
        criteria = self.config.criteria
        indices = []
        if VERIFIER in criteria or VOTE_VERIFIER in criteria:
            indices = [i for i, task in enumerate(pool.tasks) if task.record.answer.parse_ok]
        if VERIFIER not in criteria and indices:
            winners, tie = majority_groups(pool.candidates())
            indices = [i for group in winners for i in group] if tie else []
        futures, start = [], self.verifier_client.start
        for i, task in enumerate(pool.tasks):
            if i not in indices:
                if task.record.verifier is not None:
                    task.record = dataclasses.replace(task.record, verifier=None)
            elif task.record.verifier is None:
                chunked = chunk(task.record.response_text)
                prompts = prefix_prompts(pool.question, chunked)
                task.pending = chunked, [probability_request(prompt, [YES]) for prompt in prompts]
                futures += [start("completion_probability", r["prompt"], [YES], (key, r)) for key, r in task.pending[1]]
        pool.futures = [future for future in futures if future is not None]

    def _finish(self, pool: _Pool, records_path: str) -> None:
        """Verify the pool's candidates, persist its new records and keep
        what the selection pass reads of it. Its failure rows are recorded
        here, generate and score rows before verify rows, so failures run
        pool by pool whatever order the backend answers in. A verified
        record is replaced by a scored copy, so the run sees that it
        changed."""
        self.failures.extend(task.failure for task in pool.tasks if task.failure is not None)
        for task in pool.tasks:
            if task.pending is not None:
                (chunked, prefixes), task.pending = task.pending, None
                try:
                    score = verify(pool.question, chunked, self.verifier_client, prefixes)
                except LogicPoolError as exc:
                    self.failures.append(_failure_row("verify", pool, task, exc))
                else:
                    task.record = dataclasses.replace(task.record, verifier=score)
        self.records.extend(task.record for task in pool.tasks)
        self.finished.append((pool.candidates(), pool.truth, pool.shared))
        if pool.new:
            append_jsonl(records_path, [task.record.to_obj() for task in pool.new])

    def _select(self) -> None:
        """Apply every criterion to every finished pool in one pass. The
        rows come in corpus order, each pool's in the criteria's order. Each
        criterion other than the oracle selects all pools in one call, and
        the vote criteria share one ``majority_groups`` call per pool."""
        config = self.config
        pools = [candidates for candidates, _, _ in self.finished]
        groups = None
        if {MAJORITY_VOTE, VOTE_PROB, VOTE_VERIFIER} & set(config.criteria):
            # through this module's global, so it can be wrapped here
            groups = vote_groups(pools, majority_groups)
        outcomes = {
            criterion: select_pools(criterion, pools, config.lambda_p, config.lambda_e, groups)
            for criterion in config.criteria
            if criterion != ORACLE
        }
        for p, (candidates, truth, shared) in enumerate(self.finished):
            for criterion in config.criteria:
                if criterion == ORACLE:
                    outcome = dict(correct=oracle(candidates, truth))
                elif isinstance(result := outcomes[criterion][p], SelectionResult):
                    chosen = candidates.candidates[result.chosen_index]
                    outcome = dict(
                        correct=chosen.answer == truth,
                        chosen_strategy=chosen.strategy,
                        tie_occurred=result.tie_occurred,
                        tie_breaker_used=result.tie_breaker_used,
                    )
                else:
                    outcome = dict(correct=False, error=str(result))
                self.selections.append(SelectionRow(criterion=criterion, **outcome, **shared))

    # -- main loop ---------------------------------------------------------------

    def run(self) -> RunResult:
        config = self.config
        # the corpus always comes from the config, so a resume under a new
        # corpus path or generate spec runs the new corpus; it is built
        # before the run directory is made, so a corpus that cannot be read
        # leaves no directory behind
        corpus = build_corpus(config)
        if not corpus:  # an empty generate spec is refused with the config
            raise ConfigError(f"config corpus.path: {config.corpus_path} holds no puzzles")
        os.makedirs(config.run_dir, exist_ok=True)
        with _run_lock(config.run_dir):
            return self._run_locked(corpus)

    def _run_locked(self, corpus: list[Puzzle]) -> RunResult:
        config = self.config
        run_dir = config.run_dir

        corpus_path = os.path.join(run_dir, CORPUS_FILE)
        if config.corpus_path:
            with open(config.corpus_path, "rb") as handle:
                corpus_bytes = handle.read()
            write_bytes(corpus_path, corpus_bytes)
        else:
            corpus_bytes = write_jsonl(corpus_path, [puzzle_to_obj(p) for p in corpus])

        records_path = os.path.join(run_dir, RECORDS_FILE)
        stored = load_records(records_path, torn="truncate") if os.path.exists(records_path) else []
        # a stored record is reused only for the very request it answers
        # (two puzzles may render the same prompt); failed ones are retried
        existing = {(r.puzzle_id, r.key): r for r in stored if r.error is None}

        strategies = config.strategy_pool()
        calls = _CallPlacer(config.concurrency)
        ahead = 2 * config.concurrency
        started: deque[_Pool] = deque()
        # scored pools, in corpus order, whose verification calls may still be in flight
        waiting: deque[_Pool] = deque()
        journals = contextlib.ExitStack()

        def score() -> None:
            # the pool leaves ``started`` once scored, so an error while
            # scoring still cancels its pending generations
            self._score(started[0])
            waiting.append(started.popleft())
            while waiting and waiting[0].landed():
                self._finish(waiting.popleft(), records_path)

        try:
            # replay means no inner client: a journal miss is an error
            inner = None if config.replay else config.backend.build()
            calls.add(inner)
            path = os.path.join(run_dir, JOURNAL_FILE)
            self.client = self.verifier_client = journals.enter_context(
                JournalingClient(path, inner, calls.submit)
            )
            if config.verifier_backend is not None:
                verifier_inner = None if config.replay else config.verifier_backend.build()
                calls.add(verifier_inner)
                path = os.path.join(run_dir, VERIFIER_JOURNAL_FILE)
                self.verifier_client = journals.enter_context(JournalingClient(path, verifier_inner, calls.submit))
            for puzzle in corpus:
                fills, patterns = prompt_fills(puzzle), answer_patterns(puzzle)
                for sample in range(config.samples):
                    started.append(self._start(puzzle, fills, patterns, sample, strategies, existing))
                    if len(started) > ahead:
                        score()
            while started:
                score()
        except BaseException:
            # an error leaving the loop must not wait for the started
            # generations: drop those not running yet; the pools already
            # scored are still persisted below, which waits only for their
            # verifications
            for pool in started:
                for future in pool.futures:
                    future.cancel()
            raise
        finally:
            # on every way out the running calls finish, then the journals
            # append every call that landed and close
            with journals:
                try:
                    while waiting:
                        self._finish(waiting.popleft(), records_path)
                finally:
                    calls.shutdown()

        self._select()

        # the file must hold exactly this run's records: the appends already
        # do unless a resume dropped, replaced or added some
        if stored and list(map(id, self.records)) != list(map(id, stored)):
            tmp = records_path + ".tmp"
            write_jsonl(tmp, [r.to_obj() for r in self.records])
            os.replace(tmp, records_path)

        write_jsonl(os.path.join(run_dir, SELECTIONS_FILE), [s.to_obj() for s in self.selections])
        failures_path = os.path.join(run_dir, FAILURES_FILE)
        if self.failures:
            write_jsonl(failures_path, self.failures)
        elif os.path.exists(failures_path):
            os.remove(failures_path)

        tables = write_reports(run_dir, self.records, self.selections)
        self._write_manifest(run_dir, hashlib.sha256(corpus_bytes).hexdigest(), len(corpus))

        backend_calls = self.client.stats.backend_calls
        if self.verifier_client is not self.client:
            backend_calls += self.verifier_client.stats.backend_calls
        return RunResult(
            run_dir=run_dir,
            records=self.records,
            selections=self.selections,
            tables=tables,
            failures=self.failures,
            backend_calls=backend_calls,
            exit_code=2 if self.failures else 0,
        )

    def _write_manifest(self, run_dir: str, corpus_sha256: str, corpus_size: int) -> None:
        config = self.config
        manifest = {
            "package_version": __version__,
            "template_version": TEMPLATE_VERSION,
            "corpus_sha256": corpus_sha256,
            "corpus_size": corpus_size,
            "strategies": list(config.strategies),
            "criteria": list(config.criteria),
            "lambda_p": config.lambda_p,
            "lambda_e": config.lambda_e,
            "samples": config.samples,
            "sampling": dataclasses.asdict(config.sampling),
            "backend_kind": config.backend.kind,
            "journal_format": JOURNAL_FORMAT,
            "record_count": len(self.records),
        }
        text = json.dumps(manifest, indent=2, ensure_ascii=False) + "\n"
        write_bytes(os.path.join(run_dir, MANIFEST_FILE), text.encode("utf-8"))


def run(config: ExperimentConfig) -> RunResult:
    """Execute (or resume / replay) an experiment under its run directory."""
    return _Runner(config).run()
