"""Shared fixtures and independent oracles.

The oracles here deliberately re-derive everything from first principles
(recursive evaluation, itertools.product enumeration) so they share no code
path with the bytecode/kernel solvers they check.
"""

from __future__ import annotations

import itertools
import os
import random

import pytest

from logicpool.puzzles.statements import Atom, BinaryOp, Not, OP_AND, OP_IFF, OP_IMPLIES, OP_OR
from logicpool.puzzles.zebra import (
    AT_POSITION,
    Clue,
    DIRECTLY_LEFT_OF,
    LEFT_OF,
    NEXT_TO,
    NOT_SAME_HOUSE,
    SAME_HOUSE,
)

# ---------------------------------------------------------------------------
# knights and knaves oracle
# ---------------------------------------------------------------------------


def eval_statement_oracle(statement, knight_flags):
    """Independent recursive evaluator (no shared code with the solver)."""
    if isinstance(statement, Atom):
        value = knight_flags[statement.character]
        return value if statement.claimed == "knight" else not value
    if isinstance(statement, Not):
        return not eval_statement_oracle(statement.operand, knight_flags)
    left = eval_statement_oracle(statement.left, knight_flags)
    right = eval_statement_oracle(statement.right, knight_flags)
    if statement.op == OP_AND:
        return left and right
    if statement.op == OP_OR:
        return left or right
    if statement.op == OP_IMPLIES:
        return not left or right
    if statement.op == OP_IFF:
        return left == right
    raise AssertionError(f"unknown op {statement.op}")


def solve_kk_oracle(statements, n_chars):
    """Exhaustive truth-table enumeration, knight=True."""
    solutions = []
    for flags in itertools.product([False, True], repeat=n_chars):
        if all(eval_statement_oracle(s, flags) == flags[i] for i, s in enumerate(statements)):
            solutions.append(tuple("knight" if f else "knave" for f in flags))
    # match the solver's ordering contract: mask ascending, character 0 = bit 0
    solutions.sort(key=lambda sol: sum(1 << i for i, t in enumerate(sol) if t == "knight"))
    return solutions


def random_statement(rng: random.Random, n_chars: int, depth: int = 2):
    """Arbitrary-shape statement sampler for property tests (wider than the
    generation grammar)."""
    if depth == 0 or rng.random() < 0.4:
        return Atom(rng.randrange(n_chars), rng.choice(["knight", "knave"]))
    if rng.random() < 0.3:
        return Not(random_statement(rng, n_chars, depth - 1))
    op = rng.choice([OP_AND, OP_OR, OP_IMPLIES, OP_IFF])
    return BinaryOp(
        op, random_statement(rng, n_chars, depth - 1), random_statement(rng, n_chars, depth - 1)
    )


# ---------------------------------------------------------------------------
# zebra oracle
# ---------------------------------------------------------------------------


def clue_holds_oracle(clue: Clue, position_of) -> bool:
    """Independent clue semantics over a position lookup."""
    ha = position_of(clue.a_attr, clue.a_val)
    if clue.kind == AT_POSITION:
        return ha == clue.house
    hb = position_of(clue.b_attr, clue.b_val)
    if clue.kind == SAME_HOUSE:
        return ha == hb
    if clue.kind == NOT_SAME_HOUSE:
        return ha != hb
    if clue.kind == LEFT_OF:
        return ha < hb
    if clue.kind == DIRECTLY_LEFT_OF:
        return hb - ha == 1
    if clue.kind == NEXT_TO:
        return abs(ha - hb) == 1
    raise AssertionError(f"unknown clue kind {clue.kind}")


def solve_zebra_oracle(n_houses: int, n_attrs: int, clues) -> list[tuple[tuple[int, ...], ...]]:
    """Product-of-permutations enumeration; grids as per-attribute value
    tuples (house order), lexicographic."""
    perms = list(itertools.permutations(range(n_houses)))
    grids = []
    for combo in itertools.product(perms, repeat=n_attrs):
        def position_of(attr, val, combo=combo):
            return combo[attr].index(val)

        if all(clue_holds_oracle(c, position_of) for c in clues):
            grids.append(combo)
    return grids


def random_zebra_clues(rng: random.Random, n_houses: int, n_attrs: int, n_clues: int) -> list[Clue]:
    clues = []
    kinds = [SAME_HOUSE, AT_POSITION, LEFT_OF, DIRECTLY_LEFT_OF, NEXT_TO, NOT_SAME_HOUSE]
    for _ in range(n_clues):
        kind = rng.choice(kinds)
        a_attr, a_val = rng.randrange(n_attrs), rng.randrange(n_houses)
        if kind == AT_POSITION:
            clues.append(Clue(kind, a_attr, a_val, house=rng.randrange(n_houses)))
            continue
        b_attr, b_val = rng.randrange(n_attrs), rng.randrange(n_houses)
        if a_attr == b_attr and a_val == b_val:
            b_val = (b_val + 1) % n_houses
        clues.append(Clue(kind, a_attr, a_val, b_attr, b_val))
    return clues


@pytest.fixture
def rng():
    return random.Random(1234)


_FD_DIR = "/proc/self/fd"


def _open_fds() -> dict[str, str]:
    fds = {}
    for fd in os.listdir(_FD_DIR):
        try:
            fds[fd] = os.readlink(os.path.join(_FD_DIR, fd))
        except OSError:  # the directory's own descriptor, closed by now
            pass
    return fds


@pytest.fixture
def no_fd_leaks():
    """Fail the test if it leaves a file descriptor open that was not open
    before it. ``error::ResourceWarning`` catches only file objects; this
    also catches raw descriptors. The fixture's value runs the same check
    mid-test. Checks nothing where the process has no ``/proc/self/fd``."""
    if not os.path.isdir(_FD_DIR):
        yield lambda: None
        return
    before = _open_fds()

    def check() -> None:
        leaked = {fd: target for fd, target in _open_fds().items() if before.get(fd) != target}
        assert not leaked, f"descriptors left open: {leaked}"

    yield check
    check()


# ---------------------------------------------------------------------------
# closed-world experiment fixture
# ---------------------------------------------------------------------------

STRATEGY_SENTINELS = {
    "supposition_following": "You will reason with supposition following",
    "chain_construction": "You will reason with chain construction",
    "compound_strategy": "You will reason with compound strategy",
    "concatenation_strategy": "You will reason with concatenation strategy",
}


def kk_answer_block(solution_dict) -> str:
    return "\n".join(f"{label}: {kind}" for label, kind in solution_dict.items())


def kk_flipped(solution_dict) -> dict:
    flip = {"knight": "knave", "knave": "knight"}
    return {label: flip[kind] for label, kind in solution_dict.items()}


def zebra_answer_block(houses) -> str:
    lines = []
    for h, house in enumerate(houses, start=1):
        rendered = ", ".join(f"{attr}: {value}" for attr, value in house.items())
        lines.append(f"House {h}: {rendered}")
    return "\n".join(lines)


def zebra_rotated(puzzle):
    """A fully bound but wrong grid: every attribute's values shift one house."""
    n = puzzle.n_houses
    return [
        {
            attr.name: attr.values[puzzle.solution.value_index((h + 1) % n, a)]
            for a, attr in enumerate(puzzle.attributes)
        }
        for h in range(n)
    ]


class ClosedWorld:
    """A fully scripted corpus + mock backend with hand-computable outcomes.

    Four puzzles:
      kkA (3 chars):  no/supp correct, chain/comp wrong, concat unparseable;
                      chain has the highest token prob -> max_prob and
                      min_entropy pick it (wrong); verifier favors supp.
      kkB (4 chars):  all five wrong with one shared answer (no tie).
      zebraA (2x2):   all five correct.
      zebraB (3x4):   only no_strategy correct; it also has the highest
                      token prob; verifier favors a wrong candidate.
    """

    LOGPROBS = {
        "kkA": {"no_strategy": -0.30, "supposition_following": -0.25,
                "chain_construction": -0.10, "compound_strategy": -0.40,
                "concatenation_strategy": -0.35},
        "kkB": {"no_strategy": -0.20, "supposition_following": -0.30,
                "chain_construction": -0.25, "compound_strategy": -0.35,
                "concatenation_strategy": -0.15},
        "zebraA": {k: -0.20 for k in ["no_strategy", "supposition_following",
                                      "chain_construction", "compound_strategy",
                                      "concatenation_strategy"]},
        "zebraB": {"no_strategy": -0.10, "supposition_following": -0.30,
                   "chain_construction": -0.25, "compound_strategy": -0.40,
                   "concatenation_strategy": -0.35},
    }
    YES_PROBS = {
        "kkA": {"no_strategy": 0.6, "supposition_following": 0.9,
                "chain_construction": 0.7, "compound_strategy": 0.5},
        "kkB": {k: 0.5 for k in ["no_strategy", "supposition_following",
                                 "chain_construction", "compound_strategy",
                                 "concatenation_strategy"]},
        "zebraA": {k: 0.8 for k in ["no_strategy", "supposition_following",
                                    "chain_construction", "compound_strategy",
                                    "concatenation_strategy"]},
        "zebraB": {"no_strategy": 0.3, "supposition_following": 0.8,
                   "chain_construction": 0.75, "compound_strategy": 0.7,
                   "concatenation_strategy": 0.65},
    }

    def __init__(self):
        from logicpool.puzzles import generate_kk, generate_zebra

        self.puzzles = {
            "kkA": generate_kk(3, seed=101),
            "kkB": generate_kk(4, seed=202),
            "zebraA": generate_zebra(2, 2, seed=303),
            "zebraB": generate_zebra(3, 4, seed=404),
        }

    def marker(self, name: str, strategy_key: str) -> str:
        return f"mk{name}x{strategy_key}"

    def response_text(self, name: str, strategy_key: str) -> str:
        puzzle = self.puzzles[name]
        marker = self.marker(name, strategy_key)
        if name == "kkA":
            if strategy_key == "concatenation_strategy":
                return f"I could not finish my reasoning {marker} and gave no block"
            correct = strategy_key in ("no_strategy", "supposition_following")
            block = kk_answer_block(
                puzzle.solution_dict() if correct else kk_flipped(puzzle.solution_dict())
            )
        elif name == "kkB":
            block = kk_answer_block(kk_flipped(puzzle.solution_dict()))
        elif name == "zebraA":
            block = zebra_answer_block(puzzle.grid_as_dicts())
        else:  # zebraB
            correct = strategy_key == "no_strategy"
            block = zebra_answer_block(
                puzzle.grid_as_dicts() if correct else zebra_rotated(puzzle)
            )
        return f"Let me think {marker} carefully.\nAnswer:\n{block}"

    def question_needle(self, name: str) -> str:
        from logicpool.prompts import kk_question, zebra_question
        from logicpool.puzzles.knights import KnightsKnavesPuzzle

        puzzle = self.puzzles[name]
        if isinstance(puzzle, KnightsKnavesPuzzle):
            return kk_question(puzzle)
        return zebra_question(puzzle)

    def mock_script(self) -> dict:
        responses = []
        dists = []
        for name in self.puzzles:
            for strategy_key, sentinel in STRATEGY_SENTINELS.items():
                responses.append(
                    {
                        "match_all": [self.question_needle(name), sentinel],
                        "text": self.response_text(name, strategy_key),
                        "token_logprob": self.LOGPROBS[name][strategy_key],
                    }
                )
            responses.append(
                {
                    "match": self.question_needle(name),
                    "text": self.response_text(name, "no_strategy"),
                    "token_logprob": self.LOGPROBS[name]["no_strategy"],
                }
            )
            for strategy_key, p_yes in self.YES_PROBS[name].items():
                dists.append(
                    {
                        "match": self.marker(name, strategy_key),
                        "distribution": {" Yes": p_yes, " No": round(1 - p_yes, 6)},
                    }
                )
        return {"responses": responses, "first_token_distributions": dists}

    def write(self, directory) -> dict:
        """Write corpus.jsonl + mock.json under directory; return paths."""
        import json
        import os

        from logicpool.puzzles import puzzle_to_obj

        corpus_path = os.path.join(str(directory), "corpus.jsonl")
        with open(corpus_path, "w", encoding="utf-8") as handle:
            for puzzle in self.puzzles.values():
                handle.write(json.dumps(puzzle_to_obj(puzzle), ensure_ascii=False) + "\n")
        script_path = os.path.join(str(directory), "mock.json")
        with open(script_path, "w", encoding="utf-8") as handle:
            json.dump(self.mock_script(), handle, ensure_ascii=False, indent=1)
        return {"corpus": corpus_path, "script": script_path}

    # hand-computed expectations (accuracy fractions per report column)
    EXPECTED_KK = {
        "No strategy": {"3 Person": 1.0, "4 Person": 0.0, "Avg.": 0.5},
        "Supposition Following": {"3 Person": 1.0, "4 Person": 0.0, "Avg.": 0.5},
        "Chain Construction": {"3 Person": 0.0, "4 Person": 0.0, "Avg.": 0.0},
        "Compound Strategy": {"3 Person": 0.0, "4 Person": 0.0, "Avg.": 0.0},
        "Concatenation Strategy": {"3 Person": 0.0, "4 Person": 0.0, "Avg.": 0.0},
        "majority_vote": {"3 Person": 1.0, "4 Person": 0.0, "Avg.": 0.5},
        "max_prob": {"3 Person": 0.0, "4 Person": 0.0, "Avg.": 0.0},
        "min_entropy": {"3 Person": 0.0, "4 Person": 0.0, "Avg.": 0.0},
        "verifier": {"3 Person": 1.0, "4 Person": 0.0, "Avg.": 0.5},
        "vote_prob": {"3 Person": 0.0, "4 Person": 0.0, "Avg.": 0.0},
        "vote_verifier": {"3 Person": 1.0, "4 Person": 0.0, "Avg.": 0.5},
        "Oracle": {"3 Person": 1.0, "4 Person": 0.0, "Avg.": 0.5},
    }
    EXPECTED_ZEBRA = {
        "No strategy": {"Easy Avg.": 1.0, "Hard Avg.": 1.0, "All Avg.": 1.0},
        "Supposition Following": {"Easy Avg.": 1.0, "Hard Avg.": 0.0, "All Avg.": 0.5},
        "Chain Construction": {"Easy Avg.": 1.0, "Hard Avg.": 0.0, "All Avg.": 0.5},
        "Compound Strategy": {"Easy Avg.": 1.0, "Hard Avg.": 0.0, "All Avg.": 0.5},
        "Concatenation Strategy": {"Easy Avg.": 1.0, "Hard Avg.": 0.0, "All Avg.": 0.5},
        "majority_vote": {"Easy Avg.": 1.0, "Hard Avg.": 0.0, "All Avg.": 0.5},
        "max_prob": {"Easy Avg.": 1.0, "Hard Avg.": 1.0, "All Avg.": 1.0},
        "min_entropy": {"Easy Avg.": 1.0, "Hard Avg.": 1.0, "All Avg.": 1.0},
        "verifier": {"Easy Avg.": 1.0, "Hard Avg.": 0.0, "All Avg.": 0.5},
        "vote_prob": {"Easy Avg.": 1.0, "Hard Avg.": 0.0, "All Avg.": 0.5},
        "vote_verifier": {"Easy Avg.": 1.0, "Hard Avg.": 0.0, "All Avg.": 0.5},
        "Oracle": {"Easy Avg.": 1.0, "Hard Avg.": 1.0, "All Avg.": 1.0},
    }
