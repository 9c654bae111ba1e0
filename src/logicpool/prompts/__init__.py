"""The five prompt variants for both puzzle families.

Templates live under ``templates/`` as plain-text assets; rendering is pure
string substitution (no runtime string surgery beyond filling the
placeholders), so identical inputs always produce identical prompt text.
"""

from __future__ import annotations

import enum
import functools
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
        for member in cls:
            if member.key == key:
                return member
        raise KeyError(f"unknown strategy {key!r}")


_KEYS = {
    Strategy.NO_STRATEGY: "no_strategy",
    Strategy.SUPPOSITION_FOLLOWING: "supposition_following",
    Strategy.CHAIN_CONSTRUCTION: "chain_construction",
    Strategy.COMPOUND_STRATEGY: "compound_strategy",
    Strategy.CONCATENATION_STRATEGY: "concatenation_strategy",
}
_TITLES = {
    Strategy.NO_STRATEGY: "No strategy",
    Strategy.SUPPOSITION_FOLLOWING: "Supposition Following",
    Strategy.CHAIN_CONSTRUCTION: "Chain Construction",
    Strategy.COMPOUND_STRATEGY: "Compound Strategy",
    Strategy.CONCATENATION_STRATEGY: "Concatenation Strategy",
}

# First line of each strategy-description block, used to carve the s segment
# out of the rendered template.
_STRATEGY_SENTINEL = "You will reason with"


@dataclass(frozen=True)
class RenderedPrompt:
    """One fully rendered prompt: question q, strategy description s (empty
    for NO_STRATEGY), and the answer-format instructions x."""

    strategy: Strategy
    family: str
    puzzle_id: str
    question: str
    strategy_description: str
    formatting_instructions: str
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


def _substitute(template: str, mapping: dict[str, str]) -> str:
    text = template
    for placeholder, value in mapping.items():
        text = text.replace(placeholder, value)
    return text


def render(
    strategy: Strategy,
    puzzle: KnightsKnavesPuzzle | ZebraPuzzle,
    instruction_tags: bool = False,
) -> RenderedPrompt:
    """Render the prompt for (strategy, puzzle).

    ``instruction_tags`` wraps the text in "[INST] ... [/INST]" for backends
    that expect raw instruction framing; chat endpoints take the inner text.
    """
    template = _load_template(f"{puzzle.family}_{strategy.key}.txt")
    if isinstance(puzzle, KnightsKnavesPuzzle):
        question = kk_question(puzzle)
        labels = [character_label(i) for i in range(puzzle.n_chars)]
        answer_format = "\n".join(f"{label}: {{knight/knave}}" for label in labels)
        mapping = {
            "{AnswerLines}": "\n".join(f"{label}: ..." for label in labels),
            "{AnswerTemplate}": answer_format,
            "{number of characters}": str(puzzle.n_chars),
            "{Question}": question,
        }
    else:
        question = zebra_question(puzzle)
        answer_format = zebra_answer_template(puzzle)
        mapping = {
            "{HouseLines}": "\n".join(f"House {h + 1}: ..." for h in range(puzzle.n_houses)),
            "{Template}": answer_format,
            "{number of houses}": str(puzzle.n_houses),
            "{number of features}": str(puzzle.n_attrs),
            "{Question}": question,
        }
    full_text = _substitute(template, mapping)
    if instruction_tags:
        full_text = f"[INST] {full_text} [/INST]"

    if strategy is Strategy.NO_STRATEGY:
        description = ""
    else:
        block_start = full_text.index(_STRATEGY_SENTINEL)
        block_end = full_text.index("### Now your turn ###", block_start)
        marker_at = full_text.find(f"\n{ANSWER_MARKER}", block_start, block_end)
        if marker_at >= 0:  # kk strategy blocks end in the answer-format excerpt
            block_end = marker_at
        description = full_text[block_start:block_end].rstrip("\n")

    return RenderedPrompt(
        strategy=strategy,
        family=puzzle.family,
        puzzle_id=puzzle.puzzle_id,
        question=question,
        strategy_description=description,
        formatting_instructions=f"{ANSWER_MARKER}\n{answer_format}",
        full_text=full_text,
    )


__all__ = [
    "ANSWER_MARKER",
    "TEMPLATE_VERSION",
    "RenderedPrompt",
    "Strategy",
    "kk_question",
    "render",
    "verifier_template",
    "zebra_answer_template",
    "zebra_question",
]
