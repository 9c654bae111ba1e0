"""Knights-and-knaves puzzles: exact solving and unique-solution generation.

A puzzle gives one statement per character; knights speak truly, knaves
falsely. The solver enumerates every truth assignment, so results are exact
and deterministically ordered.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..errors import CapacityError, GenerationError
from . import _kernels
from .statements import (
    KNAVE,
    KNIGHT,
    Atom,
    BinaryOp,
    Not,
    OP_AND,
    OP_IFF,
    OP_IMPLIES,
    OP_OR,
    Statement,
    character_label,
    compile_statements,
    evaluate_statement,
)

MAX_CHARS = 16
GENERATION_BUDGET = 10_000

TruthAssignment = tuple[str, ...]  # KNIGHT / KNAVE per character index


def assignment_from_mask(mask: int, n_chars: int) -> TruthAssignment:
    return tuple(KNIGHT if (mask >> i) & 1 else KNAVE for i in range(n_chars))


def assignment_to_mask(assignment: TruthAssignment) -> int:
    return sum(1 << i for i, t in enumerate(assignment) if t == KNIGHT)


def assignment_as_dict(assignment: TruthAssignment) -> dict[str, str]:
    return {character_label(i): t for i, t in enumerate(assignment)}


@dataclass(frozen=True)
class KnightsKnavesPuzzle:
    puzzle_id: str
    n_chars: int
    statements: tuple[Statement, ...]
    solution: TruthAssignment
    seed: int | None = None

    family: str = field(default="kk", init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.statements) != self.n_chars:
            raise ValueError("need exactly one statement per character")
        if len(self.solution) != self.n_chars:
            raise ValueError("solution must assign every character")

    @property
    def difficulty(self) -> str:
        return f"{self.n_chars} Person"

    def solution_dict(self) -> dict[str, str]:
        return assignment_as_dict(self.solution)


def check_assignment(statements: list[Statement] | tuple[Statement, ...], assignment: TruthAssignment) -> bool:
    """True iff every character's statement truth matches their type."""
    flags = tuple(t == KNIGHT for t in assignment)
    return all(
        evaluate_statement(s, flags) == flags[i] for i, s in enumerate(statements)
    )


def solve_kk(statements: list[Statement] | tuple[Statement, ...], n_chars: int) -> list[TruthAssignment]:
    """All consistent truth assignments, ordered by binary encoding
    (character i = bit i, knight = 1) ascending. Empty list means the
    statements are inconsistent."""
    if n_chars > MAX_CHARS:
        raise CapacityError(f"{n_chars} characters exceeds enumeration bound {MAX_CHARS}")
    code, bounds = compile_statements(list(statements), n_chars)
    masks = _kernels.kk_consistent_masks(code, bounds, n_chars)
    return [assignment_from_mask(m, n_chars) for m in masks]


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

_BINARY_OPCODES = (OP_AND, OP_OR, OP_IMPLIES, OP_IFF)
# Statement shapes: depth <= 2 and at most 2 connectives.
_SHAPES = ("atom", "not_atom", "binary", "not_binary", "binary_not_left", "binary_not_right")


def _sample_atom(rng: random.Random, n_chars: int) -> Atom:
    return Atom(rng.randrange(n_chars), rng.choice((KNIGHT, KNAVE)))


def sample_statement(rng: random.Random, n_chars: int) -> Statement:
    """One statement drawn uniformly over the generation grammar's shapes."""
    shape = rng.choice(_SHAPES)
    if shape == "atom":
        return _sample_atom(rng, n_chars)
    if shape == "not_atom":
        return Not(_sample_atom(rng, n_chars))
    op = rng.choice(_BINARY_OPCODES)
    left: Statement = _sample_atom(rng, n_chars)
    right: Statement = _sample_atom(rng, n_chars)
    if shape == "not_binary":
        return Not(BinaryOp(op, left, right))
    if shape == "binary_not_left":
        left = Not(left)
    elif shape == "binary_not_right":
        right = Not(right)
    return BinaryOp(op, left, right)


def generate_kk(n_chars: int, seed: int, budget: int = GENERATION_BUDGET) -> KnightsKnavesPuzzle:
    """Rejection-sample statement sets until exactly one assignment survives.

    Deterministic for a given (n_chars, seed).
    """
    if not 3 <= n_chars <= 6:
        raise ValueError(f"n_chars must be in [3, 6], got {n_chars}")
    rng = random.Random(f"kk:{n_chars}:{seed}")
    for _ in range(budget):
        statements = tuple(sample_statement(rng, n_chars) for _ in range(n_chars))
        solutions = solve_kk(statements, n_chars)
        if len(solutions) == 1:
            return KnightsKnavesPuzzle(
                puzzle_id=f"kk{n_chars}-{seed:06d}",
                n_chars=n_chars,
                statements=statements,
                solution=solutions[0],
                seed=seed,
            )
    raise GenerationError(
        f"no unique-solution puzzle within {budget} attempts (n_chars={n_chars}, seed={seed})"
    )
