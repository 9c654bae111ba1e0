"""One step of a workload as a worker process, so that its peak RSS is its own.

    python3 perfbench/phase.py '{"phase": "cold", "workload": "run-desk", "seed": 0,
                                 "work": ".bench_work/x", "trace": false}'

Phases: ``gen``, ``cold``, ``rerun``, ``replay``, and ``setup`` (the cold
phase's set-up alone, which exits at once). A worker sets up, prints
``{"setup_s", "setup_cpu_s"}``, then reads commands from stdin, one per
line: ``sample`` times the reference load and one run of its step, checks
the outputs and prints ``{"wall_s", "cpu_s", "ref_s"}``; ``finish`` prints
the peak RSS, operation counts, the problems the checks found and, when
traced, the per-layer numbers of every sample, then exits.
"""

import time

STARTED = time.perf_counter()  # set-up time counts from here, imports included
CPU_STARTED = time.process_time()

import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import logicpool  # noqa: E402
from logicpool.errors import BackendError  # noqa: E402
from logicpool.harness import run, sweep  # noqa: E402
from logicpool.harness.records import read_jsonl, write_jsonl  # noqa: E402
from logicpool.puzzles import _kernels, active_backend, puzzle_from_obj, puzzle_to_obj  # noqa: E402
from logicpool.puzzles.knights import sample_statement  # noqa: E402
from logicpool.puzzles.statements import compile_statements  # noqa: E402
from logicpool.puzzles.zebra import ZebraGrid, _all_true_clues, _encode_clues, _position_table  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from synthetic import SyntheticBackend  # noqa: E402
from workloads import CONCURRENCY, WORKLOADS, experiment, generate_corpus, make_backend, run_subset  # noqa: E402

MB = 1e6


class RefusingBackend:
    """Backend for the rerun: every record is cached, so any call is a defect."""

    def generate(self, prompt, params):
        raise BackendError("a rerun of a complete run directory called the backend")

    def completion_probability(self, prompt_text, candidates):
        raise BackendError("a rerun of a complete run directory called the backend")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name)) for name in os.listdir(path))


def _file_mb(path: str) -> float:
    return os.path.getsize(path) / MB if os.path.exists(path) else 0.0


def reference_load() -> float:
    """Wall time of a fixed load shaped like the run steps' work (JSON
    encode and decode, hashing, an interpreter loop). Timed right before
    each sample, it tells how fast the machine ran this process then."""
    start = time.perf_counter()
    data = [
        {"text": f" w{i}", "logprob": -i / 997.0, "alternatives": [[f"a{j}", -j / 7.0] for j in range(8)]}
        for i in range(1500)
    ]
    text = json.dumps(data)
    json.loads(text)
    hashlib.sha256(text.encode("utf-8")).hexdigest()
    sum(i * i for i in range(150_000))
    return time.perf_counter() - start


def _median_time(func, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def kernel_loads(seed: int) -> dict[str, float]:
    """The solver-kernel loads, on the active kernel path: 300 random
    six-character kk instances, and one 4x4 zebra re-solve per dropped clue
    (the minimization loop's pattern)."""
    rng = random.Random(f"perfbench-kernels:{seed}")
    compiled = [compile_statements([sample_statement(rng, 6) for _ in range(6)], 6) for _ in range(300)]
    grid = ZebraGrid(tuple(tuple(rng.sample(range(4), 4)) for _ in range(4)))
    _, pos = _position_table(4)
    encoded = _encode_clues(_all_true_clues(grid, 4, 4))

    def kk():
        for code, bounds in compiled:
            _kernels.kk_consistent_masks(code, bounds, 6)

    def zebra():
        for drop in range(encoded.shape[0]):
            _kernels.zebra_solutions(pos, np.delete(encoded, drop, axis=0), 4, 2)

    kk()  # compiles the kernels when numba is the active path
    zebra()
    return {"puzzles.kernel.kk_masks.s": _median_time(kk), "puzzles.kernel.zebra_resolve_4x4.s": _median_time(zebra)}


def _layers(stats: dict[str, spans.LayerStats], wall: float) -> dict[str, float]:
    def get(name: str) -> spans.LayerStats:
        return stats.get(name) or spans.LayerStats()

    out: dict[str, float] = {}
    for name in (
        "puzzles.generate_kk",
        "puzzles.generate_zebra",
        "puzzles.solve_zebra",
        "puzzles.solve_kk",
        "prompts.render",
        "inference.generate_timed",
        "backend.generate",
        "backend.completion_probability",
        "verifier.verify",
        "harness.append_jsonl",
    ):
        out[f"{name}.calls"] = get(name).calls
        out[f"{name}.s"] = get(name).s
    for name in ("puzzles.solve_zebra", "inference.generate_timed", "verifier.verify"):
        out[f"{name}.p50_ms"] = get(name).quantile_ms(0.5)
        out[f"{name}.p90_ms"] = get(name).quantile_ms(0.9)
    for name in (
        "inference.journal_load",
        "inference.response_from_obj",
        "inference.journal_append",
        "scoring.segment",
        "scoring.score_response",
        "verifier.chunk",
        "selection.extract_answer",
        "selection.criteria",
        "harness.load_records",
        "harness.write_reports",
        "harness.sweep",
        "harness.wait",
    ):
        out[f"{name}.s"] = get(name).s
    backend_s = out["backend.generate.s"] + out["backend.completion_probability.s"]
    out["backend.busy_share"] = backend_s / (wall * CONCURRENCY)
    prefix = get("inference.completion_probability")
    out["inference.journal_hits"] = (out["inference.generate_timed.calls"] - out["backend.generate.calls"]) + (
        prefix.calls - out["backend.completion_probability.calls"]
    )
    tokens = get("scoring.segment").size
    out["scoring.tokens"] = tokens
    scoring_s = out["scoring.segment.s"] + out["scoring.score_response.s"]
    out["scoring.s_per_1k_tokens"] = scoring_s / tokens * 1000 if tokens else 0.0
    out["verifier.prefix_calls"] = prefix.calls
    verify = get("verifier.verify")
    out["verifier.prefix_calls_per_candidate"] = prefix.calls / verify.calls if verify.calls else 0.0
    out["verifier.prompt_mb"] = prefix.size / MB
    return out


def trace_layers(tracer: spans.Tracer, wall: float) -> dict[str, float]:
    """Per-layer numbers of one traced phase. ``trace.self_sum_s`` is the
    self-time sum on the phase's thread, which should equal its wall time."""
    stats, root, main_self = spans.aggregate(tracer.spans)
    layers = _layers(stats, wall)
    layers["harness.self_s"] = stats[root.name].self_s
    zebra = [s for s in tracer.spans if s.name == "puzzles.generate_zebra" and s.request == "4x4"]
    layers["puzzles.generate_zebra.4x4.s_per_puzzle"] = (
        sum(s.end - s.start for s in zebra) / len(zebra) if zebra else 0.0
    )
    layers["trace.self_sum_s"] = main_self
    return layers


def _check(out: dict, name: str, problems: list[str]) -> None:
    """Count one output check; a check with any problem is one failure."""
    out["attempted"] += 1
    if problems:
        out["failed"] += 1
        out["problems"] += [f"{name}: {problem}" for problem in problems]


def _tie_share(selections) -> float:
    rows = [row for row in selections if row.criterion != "oracle"]
    return sum(row.tie_occurred for row in rows) / len(rows) if rows else 0.0


class Phase:
    """One workload step; ``sample`` runs and checks it once."""

    def __init__(self, args: dict, tracer: spans.Tracer | None) -> None:
        self.workload = WORKLOADS[args["workload"]]
        self.seed = int(args["seed"])
        self.work = args["work"]
        self.tracer = tracer
        self.corpus_path = os.path.join(self.work, "corpus.jsonl")
        self.run_corpus_path = os.path.join(self.work, "run_corpus.jsonl")
        self.cold_dir = os.path.join(self.work, "cold")
        self.samples = 0
        self.out: dict = {"attempted": 0, "failed": 0, "problems": [], "layers": []}

    def timed(self, func):
        """Run ``func`` (under the phase span when traced); returns its
        result, wall time and process CPU time."""
        if self.tracer is not None:
            self.tracer.spans.clear()
        start, cpu = time.perf_counter(), time.process_time()
        if self.tracer is None:
            result = func()
        else:
            with self.tracer.root(self.name):
                result = func()
        return result, time.perf_counter() - start, time.process_time() - cpu

    def count_run(self, result) -> None:
        """Responses and selection rows are operations; failed ones count."""
        self.out["attempted"] += len(result.records) + len(result.selections)
        self.out["failed"] += len(result.failures) + sum(row.error is not None for row in result.selections)
        self.out["tie_share"] = _tie_share(result.selections)
        _check(self.out, "run", [f"exit code {result.exit_code}"] if result.exit_code else [])

    def sample(self) -> dict:
        ref = reference_load()
        wall, cpu = self.run_once(self.samples)
        self.samples += 1
        if self.tracer is not None:
            self.out["layers"].append(trace_layers(self.tracer, wall))
        return {"wall_s": wall, "cpu_s": cpu, "ref_s": ref}

    def finish(self) -> dict:
        self.out["rss_mb"] = _peak_rss_mb()
        return self.out


class Gen(Phase):
    name = "gen"

    def run_once(self, i: int) -> tuple[float, float]:
        def build():
            corpus = generate_corpus(self.workload, self.seed)
            write_jsonl(self.corpus_path, [puzzle_to_obj(p) for p in corpus])
            return corpus

        corpus, wall, cpu = self.timed(build)
        digest = checks.sha256_file(self.corpus_path)
        if i == 0:
            self.out["corpus_sha256"] = digest
            self.out["attempted"] += len(corpus)
            _check(self.out, "corpus", checks.corpus_problems(corpus))
            subset = run_subset(self.workload, corpus, self.seed)
            write_jsonl(self.run_corpus_path, [puzzle_to_obj(p) for p in subset])
        else:
            _check(self.out, "deterministic corpus", [] if digest == self.out["corpus_sha256"] else ["rebuild differs"])
        return wall, cpu

    def finish(self) -> dict:
        self.out["environment"] = {
            "numpy": np.__version__,
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "active_backend": active_backend(),
            "package_version": logicpool.__version__,
        }
        if self.tracer is not None:
            self.out["kernels"] = kernel_loads(self.seed)
        return super().finish()


class Cold(Phase):
    name = "cold"

    def __init__(self, args: dict, tracer: spans.Tracer | None) -> None:
        super().__init__(args, tracer)
        self.corpus = [puzzle_from_obj(obj) for obj in read_jsonl(self.run_corpus_path)]
        self.backend = make_backend(self.workload, self.corpus, self.seed)
        self.verified = any(c in self.workload.criteria for c in ("verifier", "vote_verifier"))

    def run_once(self, i: int) -> tuple[float, float]:
        run_dir = self.cold_dir if i == 0 else f"{self.cold_dir}{i}"
        self.backend.answered.clear()
        calls = self.backend.probability_calls
        config = experiment(self.workload, run_dir, self.run_corpus_path, self.backend)
        result, wall, cpu = self.timed(lambda: run(config))
        self.count_run(result)
        _check(self.out, "accuracy", checks.accuracy_problems(run_dir, self.corpus, self.backend.answered))
        if self.verified:
            prefix_calls = self.backend.probability_calls - calls
            _check(self.out, "prefix calls", checks.prefix_call_problems(result.records, prefix_calls))
        if i == 0:
            self.out["run_dir_mb"] = _dir_bytes(run_dir) / MB
            self.out["files"] = {
                "inference.journal_mb": _file_mb(os.path.join(run_dir, "journal.jsonl")),
                "harness.tokens_jsonl_mb": _file_mb(os.path.join(run_dir, "tokens.jsonl")),
                "inference.backend_calls": result.backend_calls,
                "responses": len(result.records),
            }
        else:
            shutil.rmtree(run_dir)
        return wall, cpu


class Rerun(Phase):
    name = "rerun"

    def run_once(self, i: int) -> tuple[float, float]:
        records_path = os.path.join(self.cold_dir, "records.jsonl")
        config = experiment(self.workload, self.cold_dir, self.run_corpus_path, RefusingBackend())

        def rerun_and_sweep():
            result = run(config)
            for criterion in ("max_prob", "min_entropy"):
                if self.tracer is None:
                    sweep(result.records, criterion)
                else:
                    self.tracer.call("harness.sweep", sweep, (result.records, criterion), {})
            return result

        before = checks.sha256_file(records_path)
        result, wall, cpu = self.timed(rerun_and_sweep)
        self.count_run(result)
        after = checks.sha256_file(records_path)
        _check(self.out, "rerun", checks.rerun_problems(result.backend_calls, before, after))
        return wall, cpu


class Replay(Phase):
    name = "replay"

    def run_once(self, i: int) -> tuple[float, float]:
        replay_dir = os.path.join(self.work, f"replay{i}")
        os.makedirs(replay_dir)
        shutil.copyfile(os.path.join(self.cold_dir, "journal.jsonl"), os.path.join(replay_dir, "journal.jsonl"))
        config = experiment(self.workload, replay_dir, self.run_corpus_path, replay=True)
        result, wall, cpu = self.timed(lambda: run(config))
        self.count_run(result)
        _check(self.out, "replay", checks.replay_problems(self.cold_dir, replay_dir))
        shutil.rmtree(replay_dir)
        return wall, cpu


PHASE_CLASSES = {"gen": Gen, "cold": Cold, "setup": Cold, "rerun": Rerun, "replay": Replay}


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    args = json.loads(sys.argv[1])
    tracer = spans.Tracer() if args.get("trace") else None
    if tracer is not None:
        spans.install(tracer, SyntheticBackend)
    phase = PHASE_CLASSES[args["phase"]](args, tracer)
    setup_s, setup_cpu_s = time.perf_counter() - STARTED, time.process_time() - CPU_STARTED
    _emit({"setup_s": setup_s, "setup_cpu_s": setup_cpu_s})
    if args["phase"] == "setup":
        return 0
    for line in sys.stdin:
        command = line.strip()
        if command == "sample":
            _emit(phase.sample())
        elif command == "finish":
            break
        else:
            raise SystemExit(f"unknown command {command!r}")
    out = phase.finish()
    if tracer is not None:
        tracer.uninstall()
        if args.get("spans_out"):
            with open(args["spans_out"], "w", encoding="utf-8") as handle:
                json.dump([span.to_row() for span in tracer.spans], handle)
    _emit(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
