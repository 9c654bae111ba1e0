"""End-to-end experiment driver.

A run directory holds the corpus, the request/response journal (the only
copy of token data), EvalRecords (JSONL), per-puzzle selection rows,
reports, and a manifest. Everything downstream of the journal is pure, so
re-running a completed directory (or replaying its journal into a fresh
one) reproduces records and reports byte-for-byte with zero backend calls.
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
from ..errors import ConfigError, LogicPoolError, NoAnswerError
from ..inference import JOURNAL_FORMAT, JournalingClient, generate_request
from ..prompts import TEMPLATE_VERSION, RenderedPrompt, Strategy, render
from ..puzzles import Puzzle, generate_kk, generate_zebra, puzzle_from_obj, puzzle_to_obj
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
    SelectionResult,
    majority_groups,
    extract_answer,
    majority_vote,
    oracle,
    select_max_prob,
    select_min_entropy,
    select_verifier,
    truth_answer,
    vote_plus_prob,
    vote_plus_verifier,
)
from ..verifier import VerifierScore, chunk, verify
from .config import ExperimentConfig
from .records import (
    EvalRecord,
    SelectionRow,
    append_jsonl,
    candidate_pool,
    load_records,
    read_jsonl,
    write_jsonl,
)
from .report import ReportTable, clue_count_series, clue_series_csv, stratify

RECORDS_FILE = "records.jsonl"
SELECTIONS_FILE = "selections.jsonl"
JOURNAL_FILE = "journal.jsonl"
VERIFIER_JOURNAL_FILE = "verifier_journal.jsonl"
CORPUS_FILE = "corpus.jsonl"
MANIFEST_FILE = "manifest.json"
FAILURES_FILE = "failures.jsonl"
REPORT_MD_FILE = "report.md"
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
        return [puzzle_from_obj(obj) for obj in read_jsonl(config.corpus_path, torn="read")]
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
    """Apply one criterion other than the oracle to a pool. The lambdas
    weight the stored segment scores here, for the run and the sweep alike."""
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
    puzzle: Puzzle
    strategy: Strategy
    sample: int
    prompt: RenderedPrompt
    request_sha256: str
    future: Future | _Deferred | None = None  # set while a generation is pending
    verification: Future | _Deferred | None = None  # set while a verification is pending
    record: EvalRecord | None = None
    failure: dict | None = None  # the generate or score failure row


@dataclass
class _Pool:
    """One (puzzle, sample) candidate pool from its scored records to its
    selection; ``new`` are the tasks whose records this run builds from
    their generations."""

    tasks: list[_CandidateTask]
    new: list[_CandidateTask]
    candidate_pool: CandidatePool

    def verified(self) -> bool:
        return all(task.verification is None or task.verification.done() for task in self.tasks)


def _failure_row(kind: str, task: _CandidateTask, exc: LogicPoolError) -> dict:
    return {
        "kind": kind,
        "puzzle_id": task.puzzle.puzzle_id,
        "strategy": task.strategy.key,
        "sample": task.sample,
        "error": str(exc),
    }


def _verify_text(question: str, text: str, client) -> VerifierScore:
    return verify(question, chunk(text), client)


class _Deferred:
    """Stands in for a Future in a replay, which has no backend to wait on:
    ``fn(*args)`` runs on the calling thread when the result is asked for,
    so a replay decodes one response at a time."""

    def __init__(self, fn, *args) -> None:
        self._fn, self._args = fn, args

    def done(self) -> bool:
        return True

    def cancel(self) -> bool:
        return False

    def result(self):
        return self._fn(*self._args)


class _Runner:
    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config
        self.failures: list[dict] = []
        self.records: list[EvalRecord] = []
        self.selections: list[SelectionRow] = []

    # -- record construction -------------------------------------------------

    def _build_record(self, task: _CandidateTask) -> EvalRecord:
        """Take the task's generation and score it. A failed generation or a
        response that cannot be scored sets the task's failure row and the
        record's error; the response itself is not kept, so a replay holds
        one decoded response at a time."""
        future, task.future = task.future, None
        puzzle = task.puzzle
        text, finish_reason, confidence, elapsed, error = "", "error", None, 0.0, None
        try:
            response, elapsed = future.result()
        except LogicPoolError as exc:
            task.failure = _failure_row("generate", task, exc)
        else:
            text = response.full_text
            finish_reason = response.finish_reason
            try:
                confidence = score_response(response, segment(response))
            except LogicPoolError as exc:
                task.failure = _failure_row("score", task, exc)
        if task.failure is not None:
            error = task.failure["error"]
        answer = extract_answer(text, puzzle)
        return EvalRecord(
            puzzle_id=puzzle.puzzle_id,
            family=puzzle.family,
            difficulty=puzzle.difficulty,
            strategy=task.strategy.key,
            sample=task.sample,
            request_sha256=task.request_sha256,
            response_text=text,
            finish_reason=finish_reason,
            answer=answer,
            correct=answer.parse_ok and answer == truth_answer(puzzle),
            confidence=confidence,
            verifier=None,
            elapsed_s=elapsed,
            n_clues=len(puzzle.clues) if hasattr(puzzle, "clues") else None,
            error=error,
        )

    # -- verification ---------------------------------------------------------

    def _submit_verification(self, pool: _Pool, verifier_client, submit) -> None:
        """Submit the verifications the criteria need, skipping cached
        scores: every parseable candidate for ``verifier``; for
        ``vote_verifier`` without it, only the tied majority groups."""
        indices = [i for i, c in enumerate(pool.candidate_pool.candidates) if c.answer.parse_ok]
        if VERIFIER not in self.config.criteria and indices:
            winners, tie = majority_groups(pool.candidate_pool)
            indices = [i for group in winners for i in group] if tie else []
        question = pool.tasks[0].prompt.question
        for i in indices:
            task = pool.tasks[i]
            if task.record.verifier is None:
                task.verification = submit(_verify_text, question, task.record.response_text, verifier_client)

    # -- selection -------------------------------------------------------------

    def _finish(self, pool: _Pool, records_path: str) -> None:
        """Take the pool's verifier scores, apply every criterion and persist
        its new records. Its failure rows are recorded here, generate and
        score rows before verify rows, so failures run pool by pool
        whatever order the backend answers in. A verified record is
        replaced by a scored copy, so the run sees that it changed."""
        self.failures.extend(task.failure for task in pool.tasks if task.failure is not None)
        for task, candidate in zip(pool.tasks, pool.candidate_pool.candidates):
            if task.verification is not None:
                future, task.verification = task.verification, None
                try:
                    task.record = dataclasses.replace(task.record, verifier=future.result())
                except LogicPoolError as exc:
                    self.failures.append(_failure_row("verify", task, exc))
            candidate.verifier_score = task.record.verifier
        self._select(pool)
        self.records.extend(task.record for task in pool.tasks)
        if pool.new:
            append_jsonl(records_path, [task.record.to_obj() for task in pool.new])

    def _select(self, pool: _Pool) -> None:
        """Apply every criterion to one (puzzle, sample) pool."""
        puzzle = pool.tasks[0].puzzle
        sample = pool.tasks[0].sample
        candidates = pool.candidate_pool
        truth = truth_answer(puzzle)
        base = dict(
            puzzle_id=puzzle.puzzle_id,
            family=puzzle.family,
            difficulty=puzzle.difficulty,
            n_clues=len(puzzle.clues) if hasattr(puzzle, "clues") else None,
        )
        for criterion in self.config.criteria:
            if criterion == ORACLE:
                self.selections.append(
                    SelectionRow(criterion=ORACLE, correct=oracle(candidates, truth), sample=sample, **base)
                )
                continue
            try:
                result = apply_criterion(criterion, candidates, self.config.lambda_p, self.config.lambda_e)
            except (NoAnswerError, ValueError) as exc:
                self.selections.append(
                    SelectionRow(criterion=criterion, correct=False, error=str(exc), sample=sample, **base)
                )
                continue
            chosen = candidates.candidates[result.chosen_index]
            self.selections.append(
                SelectionRow(
                    criterion=criterion,
                    correct=chosen.answer == truth,
                    chosen_strategy=chosen.strategy.key,
                    tie_occurred=result.tie_occurred,
                    tie_breaker_used=result.tie_breaker_used,
                    sample=sample,
                    **base,
                )
            )

    # -- main loop ---------------------------------------------------------------

    def run(self) -> RunResult:
        config = self.config
        os.makedirs(config.run_dir, exist_ok=True)
        with _run_lock(config.run_dir):
            return self._run_locked()

    def _run_locked(self) -> RunResult:
        config = self.config
        run_dir = config.run_dir

        # the corpus always comes from the config, so a resume under a new
        # corpus path or generate spec runs the new corpus
        corpus = build_corpus(config)
        corpus_path = os.path.join(run_dir, CORPUS_FILE)
        if not config.corpus_path:
            write_jsonl(corpus_path, [puzzle_to_obj(p) for p in corpus])
        elif os.path.abspath(config.corpus_path) != os.path.abspath(corpus_path):
            shutil.copyfile(config.corpus_path, corpus_path)

        # replay means no inner client: a journal miss is an error
        inner = None if config.replay else config.backend.build()
        client = JournalingClient(os.path.join(run_dir, JOURNAL_FILE), inner)
        if config.verifier_backend is not None:
            verifier_inner = None if config.replay else config.verifier_backend.build()
            verifier_client = JournalingClient(
                os.path.join(run_dir, VERIFIER_JOURNAL_FILE), verifier_inner
            )
        else:
            verifier_client = client

        records_path = os.path.join(run_dir, RECORDS_FILE)
        stored = load_records(records_path, torn="truncate") if os.path.exists(records_path) else []
        # a stored record is reused only for the very request it answers
        # (two puzzles may render the same prompt); failed ones are retried
        existing = {(r.puzzle_id, r.key): r for r in stored if r.error is None}

        strategies = config.strategy_pool()
        verifying = VERIFIER in config.criteria or VOTE_VERIFIER in config.criteria

        executor = ThreadPoolExecutor(max_workers=config.concurrency)
        # one rule for every generation and verification: a replay runs it on
        # this thread when its result is taken, any other run hands it to the
        # workers, which serve journal hits from the journal
        submit = _Deferred if config.replay else executor.submit
        units = [(puzzle, sample) for puzzle in corpus for sample in range(config.samples)]
        # a unit's pool is scored ``ahead`` units after its generations
        # start, so work in flight does not grow with the corpus and a
        # pool's verifications queue right behind the window
        ahead = 2 * config.concurrency
        started: deque[list[_CandidateTask]] = deque()
        # scored pools, in corpus order, that may still wait on verifications
        waiting: deque[_Pool] = deque()
        try:
            for i in range(len(units) + ahead):
                if i < len(units):
                    puzzle, sample = units[i]
                    tasks = []
                    for strategy in strategies:
                        prompt = render(strategy, puzzle, instruction_tags=config.instruction_tags)
                        keyed = generate_request(prompt, config.sampling, f"s{sample}")
                        task = _CandidateTask(
                            puzzle=puzzle,
                            strategy=strategy,
                            sample=sample,
                            prompt=prompt,
                            request_sha256=keyed[0],
                            record=existing.get((puzzle.puzzle_id, keyed[0])),
                        )
                        if task.record is None:
                            task.future = submit(client.generate_timed, prompt, config.sampling, keyed)
                        tasks.append(task)
                    started.append(tasks)
                if i < ahead:
                    continue
                # pools are selected and persisted in order as their
                # verifications land, so one pool's verification overlaps
                # the next pools'
                pool_tasks = started[0]
                new = [task for task in pool_tasks if task.record is None]
                for task in new:
                    task.record = self._build_record(task)
                pool = _Pool(pool_tasks, new, candidate_pool([task.record for task in pool_tasks]))
                started.popleft()
                if verifying:
                    self._submit_verification(pool, verifier_client, submit)
                waiting.append(pool)
                while waiting and waiting[0].verified():
                    self._finish(waiting.popleft(), records_path)
        except BaseException:
            # an error leaving the loop must not wait for the started
            # generations: drop those not running yet; the pools already
            # scored are still persisted below, which waits only for their
            # verifications
            for tasks in started:
                for task in tasks:
                    if task.future is not None:
                        task.future.cancel()
            raise
        finally:
            try:
                while waiting:
                    self._finish(waiting.popleft(), records_path)
            finally:
                executor.shutdown(cancel_futures=True)

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

        backend_calls = client.stats.backend_calls
        if verifier_client is not client:
            backend_calls += verifier_client.stats.backend_calls
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


def write_reports(
    run_dir: str, records: list[EvalRecord], selections: list[SelectionRow]
) -> dict[str, ReportTable]:
    tables: dict[str, ReportTable] = {}
    sections: list[str] = []
    for family, heading in (("kk", "Knights and knaves"), ("zebra", "Zebra")):
        if not any(r.family == family for r in records):
            continue
        table = stratify(records, selections, family)
        tables[family] = table
        sections.append(f"## {heading}\n\n{table.to_markdown()}\n")
        with open(os.path.join(run_dir, f"report_{family}.csv"), "w", encoding="utf-8") as handle:
            handle.write(table.to_csv() + "\n")
    if any(r.family == "zebra" for r in records):
        series = clue_count_series(records, selections)
        with open(os.path.join(run_dir, "clue_accuracy.csv"), "w", encoding="utf-8") as handle:
            handle.write(clue_series_csv(series) + "\n")
    with open(os.path.join(run_dir, REPORT_MD_FILE), "w", encoding="utf-8") as handle:
        handle.write("# Accuracy report\n\n" + "\n".join(sections))
    return tables


def run(config: ExperimentConfig) -> RunResult:
    """Execute (or resume / replay) an experiment under its run directory."""
    return _Runner(config).run()
