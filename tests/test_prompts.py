import pytest

from logicpool.prompts import (
    ANSWER_MARKER,
    Strategy,
    kk_question,
    render,
    verifier_template,
    zebra_answer_template,
)
from logicpool.puzzles import generate_kk, generate_zebra


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
        prompt = render(Strategy.NO_STRATEGY, puzzle)
        assert "You will reason with" not in prompt.full_text
        assert prompt.strategy_description == ""


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
    for puzzle in (kk_puzzle, zebra_puzzle):
        for strategy in Strategy:
            prompt = render(strategy, puzzle)
            # once in the preamble format hint, once in the instruction block
            assert prompt.full_text.count(ANSWER_MARKER) == 2
            assert prompt.formatting_instructions.count(ANSWER_MARKER) == 1
            assert prompt.formatting_instructions in prompt.full_text


def test_question_embedded(kk_puzzle):
    prompt = render(Strategy.COMPOUND_STRATEGY, kk_puzzle)
    assert prompt.question == kk_question(kk_puzzle)
    assert prompt.question in prompt.full_text
    assert prompt.question.count("\n") == kk_puzzle.n_chars - 1


def test_strategy_description_embedded(kk_puzzle):
    prompt = render(Strategy.CONCATENATION_STRATEGY, kk_puzzle)
    assert prompt.strategy_description.startswith("You will reason with concatenation strategy.")
    assert "Step 4: Draw a final conclusion." in prompt.strategy_description
    assert prompt.strategy_description in prompt.full_text


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
