"""End-to-end experiment driver.

A run directory holds the corpus, the request/response journal (the only
copy of token data), EvalRecords (JSONL), per-puzzle selection rows,
reports, and a manifest. Everything downstream of the journal is pure, so
re-running a completed directory (or replaying its journal into a fresh
one) reproduces records and reports byte-for-byte with zero backend calls.

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
flight and appends each landed response. The worker threads only run the
backend's calls. A replay's clients have no backend, so it starts nothing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import fcntl
import hashlib
import json
import os
import shutil
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

from .. import __version__
from ..errors import ConfigError, LogicPoolError
from ..inference import JOURNAL_FORMAT, JournalingClient, generate_request
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


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


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


@dataclass
class _CandidateTask:
    strategy: Strategy
    prompt: RenderedPrompt
    keyed: tuple[str, dict]  # the generation's key and journaled request
    record: EvalRecord | None = None
    chunked: ChunkedAnswer | None = None  # set while a verification is pending
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

    def _start(self, puzzle: Puzzle, fills: dict[str, str], sample: int, strategies, existing) -> _Pool:
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
        return _Pool(puzzle, sample, prompt.question, truth_answer(puzzle), shared, tasks, new, futures)

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
        answer = extract_answer(text, pool.puzzle)
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
        """Build the pool's new records, then start the prefix calls of the
        verifications the criteria need, skipping stored scores: every
        parseable candidate for ``verifier``; for ``vote_verifier`` without
        it, only the tied majority groups. Any other candidate keeps no
        score, so a resume under fewer criteria writes a fresh run's
        records."""
        for task in pool.new:
            task.record = self._build_record(pool, task)
        criteria = self.config.criteria
        indices = []
        if VERIFIER in criteria or VOTE_VERIFIER in criteria:
            indices = [i for i, task in enumerate(pool.tasks) if task.record.answer.parse_ok]
        if VERIFIER not in criteria and indices:
            winners, tie = majority_groups(pool.candidates())
            indices = [i for group in winners for i in group] if tie else []
        futures = []
        for i, task in enumerate(pool.tasks):
            if i not in indices:
                if task.record.verifier is not None:
                    task.record = dataclasses.replace(task.record, verifier=None)
            elif task.record.verifier is None:
                task.chunked = chunk(task.record.response_text)
                for prompt in prefix_prompts(pool.question, task.chunked):
                    futures.append(self.verifier_client.start("completion_probability", prompt, [YES]))
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
            if task.chunked is not None:
                chunked, task.chunked = task.chunked, None
                try:
                    score = verify(pool.question, chunked, self.verifier_client)
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
        if not config.corpus_path:
            write_jsonl(corpus_path, [puzzle_to_obj(p) for p in corpus])
        elif os.path.abspath(config.corpus_path) != os.path.abspath(corpus_path):
            shutil.copyfile(config.corpus_path, corpus_path)

        records_path = os.path.join(run_dir, RECORDS_FILE)
        stored = load_records(records_path, torn="truncate") if os.path.exists(records_path) else []
        # a stored record is reused only for the very request it answers
        # (two puzzles may render the same prompt); failed ones are retried
        existing = {(r.puzzle_id, r.key): r for r in stored if r.error is None}

        strategies = config.strategy_pool()
        executor = ThreadPoolExecutor(max_workers=config.concurrency)
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
            path = os.path.join(run_dir, JOURNAL_FILE)
            self.client = self.verifier_client = journals.enter_context(
                JournalingClient(path, inner, executor.submit)
            )
            if config.verifier_backend is not None:
                verifier_inner = None if config.replay else config.verifier_backend.build()
                path = os.path.join(run_dir, VERIFIER_JOURNAL_FILE)
                self.verifier_client = journals.enter_context(JournalingClient(path, verifier_inner, executor.submit))
            for puzzle in corpus:
                fills = prompt_fills(puzzle)
                for sample in range(config.samples):
                    started.append(self._start(puzzle, fills, sample, strategies, existing))
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
                    executor.shutdown(cancel_futures=True)

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
        self._write_manifest(run_dir, corpus_path, len(corpus))

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

    def _write_manifest(self, run_dir: str, corpus_path: str, corpus_size: int) -> None:
        config = self.config
        manifest = {
            "package_version": __version__,
            "template_version": TEMPLATE_VERSION,
            "corpus_sha256": _sha256_file(corpus_path),
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
        with open(os.path.join(run_dir, MANIFEST_FILE), "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, ensure_ascii=False)
            handle.write("\n")


def run(config: ExperimentConfig) -> RunResult:
    """Execute (or resume / replay) an experiment under its run directory."""
    return _Runner(config).run()
