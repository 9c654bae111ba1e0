"""Knights-and-knaves puzzles: exact solving and unique-solution generation.

A puzzle gives one statement per character; knights speak truly, knaves
falsely. The solver enumerates every truth assignment with the bitset kernel
(``_kernels.kk_consistent_masks``), the one evaluator of statements, so
results are exact and deterministically ordered.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..errors import CapacityError, GenerationError
from . import _kernels
from .statements import (
    KNAVE,
    KNIGHT,
    OP_AND,
    OP_ATOM,
    OP_IFF,
    OP_IMPLIES,
    OP_NOT,
    OP_OR,
    Statement,
    character_label,
    compile_statements,
    statement_from_code,
)

MAX_CHARS = 16
KK_SIZES = (3, 4, 5, 6)  # the character counts generate_kk makes
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
_NOT = (OP_NOT, 0, 0)


def _draw_atom(rng: random.Random, n_chars: int) -> tuple[int, int, int]:
    return (OP_ATOM, rng.randrange(n_chars), rng.choice((1, 0)))  # knight (1) or knave, as (KNIGHT, KNAVE)


def _draw_statement(rng: random.Random, n_chars: int) -> list[tuple[int, int, int]]:
    """One statement drawn uniformly over the generation grammar's shapes,
    as the solver bytecode ``compile_statements`` gives for it."""
    shape = rng.choice(_SHAPES)
    if shape == "atom":
        return [_draw_atom(rng, n_chars)]
    if shape == "not_atom":
        return [_draw_atom(rng, n_chars), _NOT]
    op = (rng.choice(_BINARY_OPCODES), 0, 0)
    left = [_draw_atom(rng, n_chars)]
    right = [_draw_atom(rng, n_chars)]
    if shape == "binary_not_left":
        left.append(_NOT)
    elif shape == "binary_not_right":
        right.append(_NOT)
    code = left + right + [op]
    if shape == "not_binary":
        code.append(_NOT)
    return code


def sample_statement(rng: random.Random, n_chars: int) -> Statement:
    """One statement drawn uniformly over the generation grammar's shapes."""
    return statement_from_code(_draw_statement(rng, n_chars))


def generate_kk(n_chars: int, seed: int, budget: int = GENERATION_BUDGET) -> KnightsKnavesPuzzle:
    """Rejection-sample statement sets until exactly one assignment survives.
    Each set is drawn and solved as bytecode; statements are built only for
    the set kept.

    Deterministic for a given (n_chars, seed).
    """
    if n_chars not in KK_SIZES:
        raise ValueError(f"n_chars must be one of {KK_SIZES}, got {n_chars}")
    rng = random.Random(f"kk:{n_chars}:{seed}")
    for _ in range(budget):
        code: list[tuple[int, int, int]] = []
        bounds = [0]
        for _ in range(n_chars):
            code += _draw_statement(rng, n_chars)
            bounds.append(len(code))
        masks = _kernels.kk_consistent_masks(code, bounds, n_chars)
        if len(masks) == 1:
            return KnightsKnavesPuzzle(
                puzzle_id=f"kk{n_chars}-{seed:06d}",
                n_chars=n_chars,
                statements=tuple(statement_from_code(code[s:e]) for s, e in zip(bounds, bounds[1:])),
                solution=assignment_from_mask(masks[0], n_chars),
                seed=seed,
            )
    raise GenerationError(
        f"no unique-solution puzzle within {budget} attempts (n_chars={n_chars}, seed={seed})"
    )
