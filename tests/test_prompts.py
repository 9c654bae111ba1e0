import hashlib
import json
from pathlib import Path

import pytest

from logicpool.prompts import (
    ANSWER_MARKER,
    Strategy,
    kk_question,
    prompt_fills,
    render,
    verifier_template,
    zebra_answer_template,
    zebra_question,
)
from logicpool.puzzles import generate_kk, generate_zebra, puzzle_to_json, read_puzzles
from logicpool.puzzles.statements import character_label
from logicpool.puzzles.zebra import AT_POSITION, Attribute, Clue, ZebraGrid, ZebraPuzzle

GOLDEN_PROMPTS = Path(__file__).parent / "golden" / "prompt_sha256.json"


@pytest.fixture(scope="module")
def kk_puzzle():
    return generate_kk(4, seed=12)


@pytest.fixture(scope="module")
def zebra_puzzle():
    return generate_zebra(3, 2, seed=12)


def test_strategy_enum_is_stable():
    assert [s.value for s in Strategy] == [0, 1, 2, 3, 4]
    assert Strategy.NO_STRATEGY < Strategy.SUPPOSITION_FOLLOWING
    assert Strategy.from_key("chain_construction") is Strategy.CHAIN_CONSTRUCTION
    with pytest.raises(KeyError):
        Strategy.from_key("zigzag")


def test_chain_construction_contains_expected_step(kk_puzzle):
    text = render(Strategy.CHAIN_CONSTRUCTION, kk_puzzle).full_text
    assert "Step 1: Identify the logical relationships in each statement" in text
    assert "You will reason with chain construction." in text


def test_no_strategy_has_no_strategy_sentence(kk_puzzle, zebra_puzzle):
    for puzzle in (kk_puzzle, zebra_puzzle):
        assert "You will reason with" not in render(Strategy.NO_STRATEGY, puzzle).full_text


def test_supposition_contains_contradiction_step(kk_puzzle):
    text = render(Strategy.SUPPOSITION_FOLLOWING, kk_puzzle).full_text
    assert "Step 4: If you identify any contradictions, test the alternative supposition." in text


def test_rendering_is_pure(kk_puzzle, zebra_puzzle):
    for puzzle in (kk_puzzle, zebra_puzzle):
        for strategy in Strategy:
            assert render(strategy, puzzle).full_text == render(strategy, puzzle).full_text


def test_strategy_named_exactly_once(kk_puzzle, zebra_puzzle):
    for puzzle in (kk_puzzle, zebra_puzzle):
        for strategy in Strategy:
            if strategy is Strategy.NO_STRATEGY:
                continue
            text = render(strategy, puzzle).full_text
            assert text.count("You will reason with") == 1
            assert text.count(strategy.title.lower()) == 1


def test_placeholders_fully_substituted(kk_puzzle, zebra_puzzle):
    for puzzle in (kk_puzzle, zebra_puzzle):
        for strategy in Strategy:
            text = render(strategy, puzzle).full_text
            for placeholder in (
                "{number of characters}",
                "{number of houses}",
                "{number of features}",
                "{Question}",
                "{Template}",
                "{AnswerLines}",
                "{AnswerTemplate}",
                "{HouseLines}",
            ):
                assert placeholder not in text


def test_character_count_matches_puzzle(kk_puzzle):
    for strategy in Strategy:
        text = render(strategy, kk_puzzle).full_text
        # the answer-format block lists exactly n_chars lines
        assert text.count("{knight/knave}") == kk_puzzle.n_chars
        assert f"statements from {kk_puzzle.n_chars} characters" in text


def test_house_lines_match_puzzle(zebra_puzzle):
    for strategy in Strategy:
        prompt = render(strategy, zebra_puzzle)
        template_lines = zebra_answer_template(zebra_puzzle).splitlines()
        assert len(template_lines) == zebra_puzzle.n_houses
        assert all(line in prompt.full_text for line in template_lines)
        assert f"clues for {zebra_puzzle.n_houses} houses" in prompt.full_text
        assert f"has {zebra_puzzle.n_attrs} features" in prompt.full_text


def test_answer_marker_appears_once_in_instructions(kk_puzzle, zebra_puzzle):
    kk_format = "\n".join(f"{character_label(i)}: {{knight/knave}}" for i in range(kk_puzzle.n_chars))
    formats = {kk_puzzle: kk_format, zebra_puzzle: zebra_answer_template(zebra_puzzle)}
    for puzzle, answer_format in formats.items():
        for strategy in Strategy:
            text = render(strategy, puzzle).full_text
            # once in the preamble format hint, once in the instruction block
            assert text.count(ANSWER_MARKER) == 2
            assert f"{ANSWER_MARKER}\n{answer_format}" in text


def test_question_embedded(kk_puzzle):
    prompt = render(Strategy.COMPOUND_STRATEGY, kk_puzzle)
    assert prompt.question == kk_question(kk_puzzle)
    assert prompt.question in prompt.full_text
    assert prompt.question.count("\n") == kk_puzzle.n_chars - 1


def test_strategy_description_embedded(kk_puzzle):
    text = render(Strategy.CONCATENATION_STRATEGY, kk_puzzle).full_text
    start = text.index("You will reason with concatenation strategy.")
    assert start < text.index("Step 4: Draw a final conclusion.") < text.index("### Now your turn ###")


def test_instruction_tag_framing(kk_puzzle):
    plain = render(Strategy.NO_STRATEGY, kk_puzzle)
    tagged = render(Strategy.NO_STRATEGY, kk_puzzle, instruction_tags=True)
    assert not plain.full_text.startswith("[INST]")
    assert tagged.full_text.startswith("[INST] ")
    assert tagged.full_text.endswith(" [/INST]")
    assert plain.full_text in tagged.full_text


def test_verifier_template_shape():
    template = verifier_template()
    assert "{question}" in template and "{answer}" in template
    assert template.endswith("My answer is (Yes or No):")
    assert "Is the reasoning correct so far?" in template


def _prompt_digests() -> dict[str, str]:
    """The sha256 of every prompt of a fixed corpus: kk at each size 3-6
    and zebra 2x2, 3x4 and 4x4, each strategy, with and without tags."""
    puzzles = [generate_kk(n, seed=0) for n in range(3, 7)]
    puzzles += [generate_zebra(houses, attrs, seed=0) for houses, attrs in ((2, 2), (3, 4), (4, 4))]
    return {
        f"{puzzle.puzzle_id}/{strategy.key}/{'tags' if tags else 'plain'}": hashlib.sha256(
            render(strategy, puzzle, instruction_tags=tags).full_text.encode("utf-8")
        ).hexdigest()
        for puzzle in puzzles
        for strategy in Strategy
        for tags in (False, True)
    }


def test_prompt_bytes_are_pinned():
    """Every prompt's bytes are part of its journal key, so a change in any
    of them re-keys every run directory made so far."""
    assert _prompt_digests() == json.loads(GOLDEN_PROMPTS.read_text(encoding="utf-8"))


def test_a_fill_that_holds_a_placeholder_is_inserted_verbatim(tmp_path):
    # attribute names from a puzzle file that read like placeholders
    attributes = (Attribute("{Question}", ("Alice", "Peter")), Attribute("{number of houses}", ("cat", "dog")))
    clues = (Clue(AT_POSITION, 0, 0, house=0), Clue(AT_POSITION, 1, 1, house=1))
    path = tmp_path / "corpus.jsonl"
    path.write_text(puzzle_to_json(ZebraPuzzle("z", 2, attributes, clues, ZebraGrid(((0, 1), (0, 1))))) + "\n")
    [puzzle] = read_puzzles(str(path))
    fills = prompt_fills(puzzle)
    for strategy in Strategy:
        prompt = render(strategy, puzzle, fills=fills)
        assert prompt == render(strategy, puzzle)
        assert prompt.question == fills["{Question}"] == zebra_question(puzzle)
        assert f"{ANSWER_MARKER}\nHouse 1: {{Question}}: ___, {{number of houses}}: ___\n" in prompt.full_text
        assert prompt.full_text.count(prompt.question) == 1
        assert "- {number of houses}: cat, dog" in prompt.question
