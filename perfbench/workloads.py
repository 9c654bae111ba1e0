"""The benchmark's workloads: corpus, synthetic backend shape and criteria.

Every workload runs the same user flow, each step in its own process: gen
(build the corpus and write it, as ``logicpool gen`` does), cold (run into
a fresh directory), rerun (run the same directory again, then sweep both
lambda criteria) and replay (replay the cold journal into a fresh
directory). The run steps use ``run_subset`` of the corpus. The workloads
differ in what dominates that flow.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from logicpool.harness import BackendConfig, ExperimentConfig, GenerateSpec, build_corpus, desk_generate_spec
from logicpool.inference import SamplingParams
from logicpool.puzzles import Puzzle

from synthetic import ResponseShape, SyntheticBackend

CONCURRENCY = 2
NO_VERIFIER = ("majority_vote", "max_prob", "min_entropy", "vote_prob", "oracle")
ALL_CRITERIA = (
    "majority_vote",
    "max_prob",
    "min_entropy",
    "verifier",
    "vote_prob",
    "vote_verifier",
    "oracle",
)


@dataclass(frozen=True)
class Workload:
    name: str
    kk_per_size: int | None  # kk puzzles drawn per desk size; None: the whole desk corpus
    zebra_shapes: tuple[tuple[int, int], ...]  # one desk zebra puzzle per (houses, attrs)
    shape: ResponseShape
    criteria: tuple[str, ...]
    generate_sleep_s: float = 0.0
    verify_sleep_s: float = 0.0
    run_share: float = 1.0  # share of each puzzle group the run phases use


WORKLOADS = {
    w.name: w
    for w in (
        # The whole desk corpus: zebra minimization dominates gen. The run
        # phases take a seeded quarter of it (40 kk puzzles and one zebra
        # puzzle per shape, 245 short responses), so per-response overhead
        # dominates them.
        Workload("gen-desk", None, (), ResponseShape(30, 1, 5), NO_VERIFIER, run_share=0.25),
        # 40 responses of ~400 tokens with top-20: the journal codec and
        # scoring dominate the run phases.
        Workload(
            "run-desk", 1, ((2, 3), (2, 5), (3, 4), (4, 2)), ResponseShape(380, 1, 20), NO_VERIFIER
        ),
        # Few tokens but ~400 words per response, every criterion, and a
        # backend that sleeps: cold is bound by waiting and verifier scheduling.
        Workload(
            "run-verify",
            2,
            ((2, 3), (2, 5), (3, 4), (4, 2)),
            ResponseShape(40, 10, 5),
            ALL_CRITERIA,
            generate_sleep_s=0.020,
            verify_sleep_s=0.005,
        ),
    )
}


def _one(seed: int, **spec) -> list[Puzzle]:
    return build_corpus(ExperimentConfig(run_dir=".", generate=GenerateSpec(seed=seed, **spec)))


def generate_corpus(workload: Workload, seed: int) -> list[Puzzle]:
    """The desk corpus for ``seed``, or a seeded subset of it that covers
    every kk size and the workload's zebra shapes."""
    spec = desk_generate_spec(seed)
    if workload.kk_per_size is None:
        return build_corpus(ExperimentConfig(run_dir=".", generate=spec))
    rng = random.Random(f"perfbench-subset:{workload.name}:{seed}")
    puzzles: list[Puzzle] = []
    first = spec.seed  # desk kk seeds run on across sizes
    for size in spec.kk_sizes:
        for pick in sorted(rng.sample(range(spec.kk_per_size), workload.kk_per_size)):
            puzzles += _one(first + pick, kk_sizes=(size,), kk_per_size=1)
        first += spec.kk_per_size
    counts = {(houses, attrs): count for houses, attrs, count in spec.zebra_configs}
    for houses, attrs in workload.zebra_shapes:
        offset = rng.randrange(counts[(houses, attrs)])
        puzzles += _one(spec.seed + offset, zebra_configs=((houses, attrs, 1),))
    return puzzles


def run_subset(workload: Workload, corpus: list[Puzzle], seed: int) -> list[Puzzle]:
    """The puzzles the run phases use: a seeded ``run_share`` of every kk
    size and every zebra shape (at least one each), in corpus order."""
    if workload.run_share >= 1:
        return list(corpus)
    rng = random.Random(f"perfbench-run-subset:{workload.name}:{seed}")
    groups: dict[str, list[int]] = {}
    for index, puzzle in enumerate(corpus):
        group = puzzle.difficulty if puzzle.family == "kk" else f"{puzzle.n_houses}x{puzzle.n_attrs}"
        groups.setdefault(group, []).append(index)
    keep: set[int] = set()
    for members in groups.values():
        keep.update(rng.sample(members, math.ceil(len(members) * workload.run_share)))
    return [corpus[i] for i in sorted(keep)]


@dataclass
class SyntheticBackendConfig(BackendConfig):
    """Hands ``run`` an already built synthetic backend."""

    instance: SyntheticBackend | None = None

    def build(self) -> SyntheticBackend:
        return self.instance


def make_backend(workload: Workload, corpus: list[Puzzle], seed: int) -> SyntheticBackend:
    return SyntheticBackend(
        corpus, seed, workload.shape, workload.generate_sleep_s, workload.verify_sleep_s
    )


def experiment(
    workload: Workload,
    run_dir: str,
    corpus_path: str,
    backend: SyntheticBackend | None = None,
    replay: bool = False,
) -> ExperimentConfig:
    return ExperimentConfig(
        run_dir=run_dir,
        corpus_path=corpus_path,
        criteria=workload.criteria,
        sampling=SamplingParams(top_k=workload.shape.top_k),
        concurrency=CONCURRENCY,
        replay=replay,
        backend=SyntheticBackendConfig(kind="synthetic", instance=backend),
    )
