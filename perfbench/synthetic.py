"""Deterministic synthetic logprob backend for the benchmark.

The backend answers every prompt of a known corpus from the puzzle's truth.
Responses are assembled from a token bank built once in set-up, so the
backend's own cost per call stays small; the benchmark reports that cost as
``backend.*`` so it can be subtracted from the run phases.

An outcome plan fixes, per (puzzle, strategy), whether the answer is
correct, wrong or unparseable. Pools follow a fixed cycle of vote patterns,
so majority ties, tie-breaks and parse failures occur in fixed shares on
every seed.
"""

from __future__ import annotations

import hashlib
import math
import random
import threading
import time
from dataclasses import dataclass

from logicpool.inference import ModelResponse, TokenInfo
from logicpool.prompts import Strategy, render
from logicpool.puzzles import KnightsKnavesPuzzle, Puzzle

CORRECT = "correct"
WRONG = "wrong"
UNPARSEABLE = "unparseable"

# One pattern per pool, cycled over the pools in a seeded order. "CCWWU" is
# a 2-2 vote tie, so vote_prob and vote_verifier must break it; "CWWUU"
# makes the majority wrong.
POOL_PATTERNS = ("CCCCW", "CCWWU", "CCCWU", "CWWUU")
_OUTCOME_OF = {"C": CORRECT, "W": WRONG, "U": UNPARSEABLE}

_SYLLABLES = ("ka", "lo", "mi", "ne", "ru", "sa", "to", "vi", "de", "po", "an", "el")
_N_FILLER_WORDS = 256
_N_SHAPES = 32


@dataclass(frozen=True)
class ResponseShape:
    """Size of every generated response."""

    reasoning_tokens: int  # bank tokens before the answer section
    words_per_token: int  # filler words carried by one reasoning token
    top_k: int  # alternatives per token, sampled token included


def plan_outcomes(corpus: list[Puzzle], seed: int) -> dict[tuple[str, str], str]:
    """Outcome per (puzzle_id, strategy key): a fixed count of each pool
    pattern, assigned to pools and strategies in a seeded order."""
    rng = random.Random(f"perfbench-outcomes:{seed}")
    order = list(range(len(corpus)))
    rng.shuffle(order)
    plan: dict[tuple[str, str], str] = {}
    for rank, index in enumerate(order):
        pattern = list(POOL_PATTERNS[rank % len(POOL_PATTERNS)])
        rng.shuffle(pattern)
        for strategy, letter in zip(Strategy, pattern):
            plan[(corpus[index].puzzle_id, strategy.key)] = _OUTCOME_OF[letter]
    return plan


def _alternative_logprobs(rng: random.Random, top_k: int) -> tuple[float, list[float]]:
    """(sampled logprob, filler logprobs) with total mass below 1."""
    sampled = rng.uniform(0.35, 0.97)
    rest = (1.0 - sampled) * rng.uniform(0.5, 0.95)
    weights = [rng.random() + 0.05 for _ in range(top_k - 1)]
    scale = rest / sum(weights) if weights else 0.0
    return math.log(sampled), [math.log(w * scale) for w in weights]


class TokenBank:
    """Prebuilt reasoning tokens plus a memo of answer-section tokens.

    Every token carries ``top_k`` alternatives whose probabilities sum to at
    most 1.
    """

    def __init__(self, seed: int, shape: ResponseShape, size: int = 1024) -> None:
        rng = random.Random(f"perfbench-bank:{seed}")
        words = sorted(
            {"".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4))) for _ in range(4 * _N_FILLER_WORDS)}
        )[:_N_FILLER_WORDS]
        self._filler = [f"~{i}" for i in range(shape.top_k)]
        self._shapes = [_alternative_logprobs(rng, shape.top_k) for _ in range(_N_SHAPES)]
        self.reasoning: list[TokenInfo] = []
        for i in range(size):
            picked = [rng.choice(words) for _ in range(shape.words_per_token)]
            text = " " + " ".join(picked)
            if i % 3 == 2:
                text += "."
            self.reasoning.append(self._build(text, i % _N_SHAPES))
        self._answer: dict[tuple[str, int], TokenInfo] = {}

    def _build(self, text: str, shape: int) -> TokenInfo:
        sampled, fillers = self._shapes[shape]
        alternatives = [(text, sampled)] + [(f, lp) for f, lp in zip(self._filler, fillers)]
        alternatives.sort(key=lambda pair: -pair[1])
        return TokenInfo(text=text, logprob=sampled, top_alternatives=tuple(alternatives))

    def answer_token(self, text: str, shape: int) -> TokenInfo:
        # Two threads may build the same token at once; both results are equal.
        token = self._answer.get((text, shape))
        if token is None:
            token = self._answer[(text, shape)] = self._build(text, shape)
        return token


def _word_pieces(text: str) -> list[str]:
    """Split into tokens that each start with their leading whitespace."""
    pieces: list[str] = []
    current = ""
    for char in text:
        if char.isspace() and current.strip():
            pieces.append(current)
            current = ""
        current += char
    if current:
        pieces.append(current)
    return pieces


def answer_text(puzzle: Puzzle, outcome: str) -> str:
    """Final answer section in the format the prompts ask for."""
    if outcome == UNPARSEABLE:
        return "\n\nAnswer:\nI could not pin down a unique assignment."
    if isinstance(puzzle, KnightsKnavesPuzzle):
        solution = dict(puzzle.solution_dict())
        if outcome == WRONG:
            solution["A"] = "knave" if solution["A"] == "knight" else "knight"
        lines = [f"{label}: {kind}" for label, kind in sorted(solution.items())]
    else:
        houses = [dict(house) for house in puzzle.grid_as_dicts()]
        if outcome == WRONG:
            name = puzzle.attributes[-1].name
            houses[0][name], houses[1][name] = houses[1][name], houses[0][name]
        lines = [
            f"House {h + 1}: " + ", ".join(f"{attr.name}: {houses[h][attr.name]}" for attr in puzzle.attributes)
            for h in range(puzzle.n_houses)
        ]
    return "\n\nAnswer:\n" + "\n".join(lines)


class SyntheticBackend:
    """InferenceClient over a known corpus; see the module docstring."""

    def __init__(
        self,
        corpus: list[Puzzle],
        seed: int,
        shape: ResponseShape,
        generate_sleep_s: float = 0.0,
        verify_sleep_s: float = 0.0,
    ) -> None:
        self.seed = seed
        self.shape = shape
        self.generate_sleep_s = generate_sleep_s
        self.verify_sleep_s = verify_sleep_s
        self.bank = TokenBank(seed, shape)
        self.plan = plan_outcomes(corpus, seed)
        self._by_prompt = {
            render(strategy, puzzle).full_text: (puzzle, strategy.key)
            for puzzle in corpus
            for strategy in Strategy
        }
        self._lock = threading.Lock()
        self.answered: dict[tuple[str, str], str] = {}
        self.generate_calls = 0
        self.probability_calls = 0

    def generate(self, prompt, params) -> ModelResponse:
        text = prompt if isinstance(prompt, str) else prompt.full_text
        puzzle, strategy = self._by_prompt[text]
        key = (puzzle.puzzle_id, strategy)
        outcome = self.plan[key]
        digest = hashlib.sha256(f"{self.seed}:{text}".encode("utf-8")).digest()
        rng = random.Random(digest)
        bank = self.bank.reasoning
        tokens = [bank[i] for i in rng.choices(range(len(bank)), k=self.shape.reasoning_tokens)]
        for piece in _word_pieces(answer_text(puzzle, outcome)):
            tokens.append(self.bank.answer_token(piece, rng.randrange(_N_SHAPES)))
        if self.generate_sleep_s:
            time.sleep(self.generate_sleep_s)
        with self._lock:
            self.generate_calls += 1
            self.answered[key] = outcome
        return ModelResponse.from_tokens(tokens, "stop")

    def completion_probability(self, prompt_text: str, candidates) -> dict[str, float]:
        digest = hashlib.sha256(f"{self.seed}:{prompt_text}".encode("utf-8")).digest()
        p_yes = 0.05 + 0.9 * int.from_bytes(digest[:4], "big") / 2**32
        if self.verify_sleep_s:
            time.sleep(self.verify_sleep_s)
        with self._lock:
            self.probability_calls += 1
        return {candidate: p_yes if candidate.strip().lower() == "yes" else 0.0 for candidate in candidates}
