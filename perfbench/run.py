"""logicpool benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload run-desk --seed 0 --seconds 40 --trace 0

Run from a checkout. Each step of the workload (gen, cold, rerun, replay;
see workloads.py) runs in its own worker process (phase.py). Rounds take
samples from every step in turn, so the steps are measured over the same
stretch of time, and each untraced round also times one fresh set-up
process. Rounds repeat while the next one still fits in ``--seconds`` (at
least MIN_ROUNDS run). Every sample's outputs are checked.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: with ``--trace 0`` the end-to-end metrics (medians over the
samples), with ``--trace 1`` the per-layer metrics of traced workers, whose
samples alternate with untraced ones so that the tracing overhead can be
reported. The line before it records the environment; the full result, and
the spans of the last traced sample of each step, are written under
``.bench_results/``. Exits 1 when an output check fails and 2 when the
benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("gen-desk", "run-desk", "run-verify")
PHASES = ("gen", "cold", "rerun", "replay")
MIN_ROUNDS = 3  # also the fewest set-up samples
# A short phase takes several samples per round, until they add up to
# ROUND_PHASE_S, so that it is measured over as much time as a long one.
ROUND_PHASE_S = 0.6
MAX_PER_ROUND = 4
CHILD_TIMEOUT_S = 150

# Per-layer metrics, by phase; every workload reports all of them (zero
# where a layer does no work, e.g. the verifier outside run-verify).
_RUN_COMMON = (
    "prompts.render.calls",
    "prompts.render.s",
    "selection.criteria.s",
    "selection.tie_share",
    "harness.write_reports.s",
    "harness.self_s",
    "trace.overhead_share",
)
_SCORED = (
    "inference.generate_timed.calls",
    "inference.generate_timed.s",
    "scoring.segment.s",
    "scoring.score_response.s",
    "scoring.tokens",
    "scoring.s_per_1k_tokens",
    "verifier.chunk.s",
    "verifier.verify.calls",
    "verifier.verify.s",
    "verifier.prefix_calls",
    "verifier.prompt_mb",
    "selection.extract_answer.s",
    "harness.append_jsonl.calls",
    "harness.append_jsonl.s",
    "harness.wait.s",
)
_JOURNAL_READ = ("inference.journal_load.s", "inference.response_from_obj.s", "inference.journal_hits")
LAYER_METRICS = {
    "gen": (
        "puzzles.generate_kk.calls",
        "puzzles.generate_kk.s",
        "puzzles.generate_zebra.calls",
        "puzzles.generate_zebra.s",
        "puzzles.generate_zebra.4x4.s_per_puzzle",
        "puzzles.solve_zebra.calls",
        "puzzles.solve_zebra.s",
        "puzzles.solve_zebra.p50_ms",
        "puzzles.solve_zebra.p90_ms",
        "puzzles.solve_zebra.share",
        "puzzles.solve_kk.calls",
        "puzzles.solve_kk.s",
        "harness.self_s",
        "trace.overhead_share",
    ),
    "cold": _RUN_COMMON
    + _SCORED
    + (
        "inference.generate_timed.p50_ms",
        "inference.generate_timed.p90_ms",
        "inference.journal_append.s",
        "inference.backend_calls",
        "inference.journal_mb",
        "inference.journal_bytes_per_response",
        "backend.generate.calls",
        "backend.generate.s",
        "backend.completion_probability.calls",
        "backend.completion_probability.s",
        "backend.busy_share",
        "verifier.verify.p50_ms",
        "verifier.verify.p90_ms",
        "verifier.prefix_calls_per_candidate",
        "harness.tokens_jsonl_mb",
    ),
    "rerun": _RUN_COMMON + _JOURNAL_READ + ("harness.load_records.s", "harness.sweep.s"),
    "replay": _RUN_COMMON + _JOURNAL_READ + _SCORED,
}
KERNEL_METRICS = ("puzzles.kernel.kk_masks.s", "puzzles.kernel.zebra_resolve_4x4.s")


def per_layer_names() -> list[str]:
    names = [f"{phase}.{name}" for phase in PHASES for name in LAYER_METRICS[phase]]
    return names + list(KERNEL_METRICS)


END_TO_END = (
    ("setup_s", "s"),
    ("gen_s", "s"),
    ("gen_rss_mb", "MB"),
    ("cold_s", "s"),
    ("cold_rss_mb", "MB"),
    ("rerun_s", "s"),
    ("rerun_rss_mb", "MB"),
    ("replay_s", "s"),
    ("replay_rss_mb", "MB"),
    ("run_dir_mb", "MB"),
)


# Seconds the reference load (phase.reference_load) takes on the machine
# the end-to-end times are scaled to: the 2-core Xeon VM the ROADMAP
# baselines come from, when it runs at its usual speed.
REFERENCE_S = 0.035


def adjusted_s(wall: float, cpu: float, ref: float) -> float:
    """A sample's time at the reference machine speed: the CPU part of its
    wall time scaled by how much slower or faster the reference load ran
    around it (``ref``), the waiting part unchanged."""
    busy = min(cpu, wall)
    return (wall - busy) + busy * REFERENCE_S / ref


class ChildFailed(RuntimeError):
    pass


class Worker:
    """A phase.py process: set up once, then timed samples on request."""

    def __init__(self, spec: dict, work: str) -> None:
        self.phase = spec["phase"]
        self.log_path = os.path.join(work, f"{self.phase}-{'traced' if spec.get('trace') else 'plain'}.log")
        self.log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "phase.py"), json.dumps(spec)],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
        )
        self.setup = self._read()

    def _read(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.close()
            with open(self.log_path, encoding="utf-8") as handle:
                tail = handle.read().strip().splitlines()[-5:]
            raise ChildFailed(f"{self.phase} worker stopped: " + " | ".join(tail))
        return json.loads(line)

    def _send(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read()

    def sample(self) -> dict:
        return self._send("sample")

    def finish(self) -> dict:
        out = self._send("finish")
        self.proc.wait(timeout=CHILD_TIMEOUT_S)
        self.close()
        return out

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.log.close()


def environment(seed: int, gen: dict) -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **gen.get("environment", {}),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "seed": seed,
        "corpus_sha256": gen.get("corpus_sha256"),
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """sha256 over the package sources, so a result names the code it ran."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(hashlib.sha256(handle.read()).digest())
    return digest.hexdigest()


def run_rounds(args, work: str, spans_dir: str) -> dict:
    """Interleaved samples of the four phases, a round at a time, while the
    next round still fits in ``--seconds``. Each phase keeps one worker
    process for the whole run. Untraced rounds also start a fresh set-up
    process; with ``--trace 1`` each round also samples traced workers,
    which work in their own directory."""
    sides = [("plain", False)] + ([("traced", True)] if args.trace else [])
    workers: dict[tuple[str, str], Worker] = {}
    samples: dict[tuple[str, str], list[dict]] = {(side, p): [] for side, _ in sides for p in PHASES}
    setup: list[dict] = []
    started, last, rounds = time.perf_counter(), 0.0, 0
    try:
        while rounds < MIN_ROUNDS or time.perf_counter() - started + last <= args.seconds:
            begun = time.perf_counter()
            taken: list[dict] = []
            for side, traced in sides:
                side_dir = os.path.join(work, side)
                os.makedirs(side_dir, exist_ok=True)
                for phase in PHASES:
                    if (side, phase) not in workers:
                        spec = {"phase": phase, "workload": args.workload, "seed": args.seed, "work": side_dir, "trace": traced}
                        if traced:
                            spec["spans_out"] = os.path.join(spans_dir, f"{args.workload}-seed{args.seed}-{phase}.json")
                        workers[(side, phase)] = Worker(spec, work)
                    spent = 0.0
                    for _ in range(MAX_PER_ROUND):
                        sample = workers[(side, phase)].sample()
                        sample["round"] = rounds
                        samples[(side, phase)].append(sample)
                        taken.append(sample)
                        spent += sample["wall_s"]
                        if spent >= ROUND_PHASE_S:
                            break
            # One reference load time is noisy; the round's median follows the
            # machine's drift without that noise.
            round_ref = statistics.median(sample["ref_s"] for sample in taken)
            for sample in taken:
                sample["round_ref_s"] = round_ref
            if not args.trace:
                setup.append(dict(_setup_sample(args, work), round_ref_s=round_ref))
            rounds += 1
            last = time.perf_counter() - begun
        finals = {key: worker.finish() for key, worker in workers.items()}
    finally:
        for worker in workers.values():
            worker.close()
    return {"rounds": rounds, "samples": samples, "finals": finals, "setup": setup}


def _setup_sample(args, work: str) -> dict:
    spec = {"phase": "setup", "workload": args.workload, "seed": args.seed, "work": os.path.join(work, "plain")}
    worker = Worker(spec, work)
    worker.proc.wait(timeout=CHILD_TIMEOUT_S)  # it exits once set up
    worker.close()
    return worker.setup


def _walls(result: dict, side: str, phase: str) -> list[float]:
    return [sample["wall_s"] for sample in result["samples"][(side, phase)]]


def end_to_end(result: dict) -> dict[str, float]:
    """Medians of the samples' times at reference speed (adjusted_s), the
    peak RSS of each step's process and the cold run directory's size."""
    setup = [adjusted_s(s["setup_s"], s["setup_cpu_s"], s["round_ref_s"]) for s in result["setup"]]
    metrics = {"setup_s": statistics.median(setup)}
    for phase in PHASES:
        samples = result["samples"][("plain", phase)]
        metrics[f"{phase}_s"] = statistics.median(adjusted_s(s["wall_s"], s["cpu_s"], s["round_ref_s"]) for s in samples)
        metrics[f"{phase}_rss_mb"] = result["finals"][("plain", phase)]["rss_mb"]
    metrics["run_dir_mb"] = result["finals"][("plain", "cold")]["run_dir_mb"]
    return metrics


def per_layer(result: dict) -> tuple[dict[str, float], list[str]]:
    """Medians over the traced samples, the tracing overhead per phase, and
    the span accounting check: on the phase's thread the span self times add
    up to the wall time, within the tracing overhead."""
    metrics: dict[str, float] = {}
    problems = []
    for phase in PHASES:
        untraced_wall = statistics.median(_walls(result, "plain", phase))
        final = result["finals"][("traced", phase)]
        values: dict[str, list[float]] = {}
        for wall, layers in zip(_walls(result, "traced", phase), final["layers"]):
            overhead = wall - untraced_wall
            layers = dict(layers, **final.get("files", {}))
            layers["selection.tie_share"] = final.get("tie_share", 0.0)
            if "responses" in layers:
                layers["inference.journal_bytes_per_response"] = (
                    layers["inference.journal_mb"] * 1e6 / layers["responses"]
                )
            layers["puzzles.solve_zebra.share"] = layers["puzzles.solve_zebra.s"] / wall
            layers["trace.overhead_share"] = overhead / untraced_wall
            for name, value in layers.items():
                values.setdefault(name, []).append(value)
            gap = abs(layers["trace.self_sum_s"] - wall)
            if gap > max(overhead, 0.0) + 1e-3:
                problems.append(f"{phase}: span self times miss the wall time by {gap:.4f} s")
        for name in LAYER_METRICS[phase]:
            metrics[f"{phase}.{name}"] = statistics.median(values[name])
    metrics.update(result["finals"][("traced", "gen")]["kernels"])
    return metrics, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))  # runs the cleanup below

    if not os.path.isfile(os.path.join(ROOT, "src", "logicpool", "__init__.py")):
        print(f"perfbench: no logicpool sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2

    results_dir = os.path.join(ROOT, ".bench_results")
    spans_dir = os.path.join(results_dir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        result = run_rounds(args, work, spans_dir)
    except (ChildFailed, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"perfbench: {exc!r}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    finals = result["finals"]
    attempted = sum(final["attempted"] for final in finals.values())
    failed = sum(final["failed"] for final in finals.values())
    problems = [problem for final in finals.values() for problem in final["problems"]]
    attempted += 1
    if len({finals[(side, "gen")]["corpus_sha256"] for side, phase in finals if phase == "gen"}) != 1:
        failed += 1
        problems.append("the same seed generated different corpora")
    if args.trace:
        metrics, trace_problems = per_layer(result)
        attempted += len(PHASES)
        failed += len(trace_problems)
        problems += trace_problems
        units = {name: _unit(name) for name in metrics}
    else:
        metrics = end_to_end(result)
        units = dict(END_TO_END)

    env = environment(args.seed, finals[("plain", "gen")])
    env.update(workload=args.workload, seconds=args.seconds, trace=args.trace, rounds=result["rounds"])
    # How fast the machine ran during this run, and the plain wall times
    # the end-to-end times were scaled from.
    env["reference_load_s"] = statistics.median(
        sample["ref_s"] for (side, _), values in result["samples"].items() if side == "plain" for sample in values
    )
    env["wall_s_medians"] = {phase: statistics.median(_walls(result, "plain", phase)) for phase in PHASES}
    record = {
        "environment": env,
        "problems": problems,
        "samples": {f"{side}.{phase}": values for (side, phase), values in result["samples"].items()},
        "setup_samples": result["setup"],
        "finals": {f"{side}.{phase}": final for (side, phase), final in finals.items()},
        "metrics": metrics,
    }
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({"environment": env}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def _unit(name: str) -> str:
    """Unit of a per-layer metric, from its name's last part."""
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "self_s", "s_per_puzzle", "s_per_1k_tokens"):
        return "s"
    if last.endswith("_ms"):
        return "ms"
    if last.endswith("_mb"):
        return "MB"
    if "share" in last:
        return "ratio"
    if last == "journal_bytes_per_response":
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
