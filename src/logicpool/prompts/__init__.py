"""The five prompt variants for both puzzle families.

Templates live under ``templates/`` as plain-text assets, each split once at
its placeholders; rendering joins those parts with the puzzle's placeholder
values (``prompt_fills``), so identical inputs always produce identical
prompt text.
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass
from importlib import resources

from ..puzzles.knights import KnightsKnavesPuzzle
from ..puzzles.statements import character_label, render_statement
from ..puzzles.zebra import ZebraPuzzle, render_clue

ANSWER_MARKER = "Answer:"
TEMPLATE_VERSION = "1"


class Strategy(enum.IntEnum):
    """Reasoning strategies; enum order is the deterministic tie-break order."""

    NO_STRATEGY = 0
    SUPPOSITION_FOLLOWING = 1
    CHAIN_CONSTRUCTION = 2
    COMPOUND_STRATEGY = 3
    CONCATENATION_STRATEGY = 4

    @property
    def key(self) -> str:
        return _KEYS[self]

    @property
    def title(self) -> str:
        return _TITLES[self]

    @classmethod
    def from_key(cls, key: str) -> "Strategy":
        try:
            return STRATEGY_BY_KEY[key]
        except KeyError:
            raise KeyError(f"unknown strategy {key!r}") from None


_KEYS = {
    Strategy.NO_STRATEGY: "no_strategy",
    Strategy.SUPPOSITION_FOLLOWING: "supposition_following",
    Strategy.CHAIN_CONSTRUCTION: "chain_construction",
    Strategy.COMPOUND_STRATEGY: "compound_strategy",
    Strategy.CONCATENATION_STRATEGY: "concatenation_strategy",
}
STRATEGY_BY_KEY = {key: strategy for strategy, key in _KEYS.items()}
_TITLES = {
    Strategy.NO_STRATEGY: "No strategy",
    Strategy.SUPPOSITION_FOLLOWING: "Supposition Following",
    Strategy.CHAIN_CONSTRUCTION: "Chain Construction",
    Strategy.COMPOUND_STRATEGY: "Compound Strategy",
    Strategy.CONCATENATION_STRATEGY: "Concatenation Strategy",
}

@dataclass(frozen=True)
class RenderedPrompt:
    """One fully rendered prompt and the puzzle question embedded in it."""

    strategy: Strategy
    puzzle_id: str
    question: str
    full_text: str


@functools.cache
def _load_template(name: str) -> str:
    return (resources.files(__package__) / "templates" / name).read_text(encoding="utf-8")


def verifier_template() -> str:
    return _load_template("verifier.txt")


def kk_question(puzzle: KnightsKnavesPuzzle) -> str:
    lines = []
    for i, statement in enumerate(puzzle.statements):
        text = render_statement(statement)
        lines.append(f"{character_label(i)}: {text[0].upper()}{text[1:]}.")
    return "\n".join(lines)


def zebra_question(puzzle: ZebraPuzzle) -> str:
    lines = [
        f"There are {puzzle.n_houses} houses, numbered 1 to {puzzle.n_houses} from left to right.",
        "Each house has the following features, and every value is used exactly once across the houses:",
    ]
    for attr in puzzle.attributes:
        lines.append(f"- {attr.name}: {', '.join(attr.values)}")
    lines.append("Clues:")
    for i, clue in enumerate(puzzle.clues, 1):
        lines.append(f"{i}. {render_clue(clue, puzzle)}")
    return "\n".join(lines)


def zebra_answer_template(puzzle: ZebraPuzzle) -> str:
    """The per-house answer line format the model is asked to emit."""
    names = ", ".join(f"{attr.name}: ___" for attr in puzzle.attributes)
    return "\n".join(f"House {h + 1}: {names}" for h in range(puzzle.n_houses))


def prompt_fills(puzzle: KnightsKnavesPuzzle | ZebraPuzzle) -> dict[str, str]:
    """The value of every placeholder of the puzzle's templates, built once
    for all five strategies; ``"{Question}"`` is the puzzle question."""
    if isinstance(puzzle, KnightsKnavesPuzzle):
        labels = [character_label(i) for i in range(puzzle.n_chars)]
        return {
            "{AnswerLines}": "\n".join(f"{label}: ..." for label in labels),
            "{AnswerTemplate}": "\n".join(f"{label}: {{knight/knave}}" for label in labels),
            "{number of characters}": str(puzzle.n_chars),
            "{Question}": kk_question(puzzle),
        }
    return {
        "{HouseLines}": "\n".join(f"House {h + 1}: ..." for h in range(puzzle.n_houses)),
        "{Template}": zebra_answer_template(puzzle),
        "{number of houses}": str(puzzle.n_houses),
        "{number of features}": str(puzzle.n_attrs),
        "{Question}": zebra_question(puzzle),
    }


@functools.cache
def _template_parts(name: str) -> tuple[str, ...]:
    """The template split at its placeholders: text and ``{...}`` parts
    alternate, so no text part equals a placeholder."""
    return tuple(re.split(r"(\{[^{}]*\})", _load_template(name)))


def render(
    strategy: Strategy,
    puzzle: KnightsKnavesPuzzle | ZebraPuzzle,
    instruction_tags: bool = False,
    fills: dict[str, str] | None = None,
) -> RenderedPrompt:
    """Render the prompt for (strategy, puzzle).

    ``fills`` is the puzzle's ``prompt_fills``, built here when not given.
    Each value is inserted verbatim, even one that holds a placeholder; a
    brace group that is no placeholder stays as it is.

    ``instruction_tags`` wraps the text in "[INST] ... [/INST]" for backends
    that expect raw instruction framing; chat endpoints take the inner text.
    """
    if fills is None:
        fills = prompt_fills(puzzle)
    parts = _template_parts(f"{puzzle.family}_{strategy.key}.txt")
    full_text = "".join([fills.get(part, part) for part in parts])
    if instruction_tags:
        full_text = f"[INST] {full_text} [/INST]"
    return RenderedPrompt(
        strategy=strategy, puzzle_id=puzzle.puzzle_id, question=fills["{Question}"], full_text=full_text
    )


__all__ = [
    "ANSWER_MARKER",
    "TEMPLATE_VERSION",
    "RenderedPrompt",
    "Strategy",
    "kk_question",
    "prompt_fills",
    "render",
    "verifier_template",
    "zebra_answer_template",
    "zebra_question",
]
