import random

import pytest
from hypothesis import given, settings, strategies as st

from logicpool.errors import CapacityError, GenerationError, StructureError
from logicpool.puzzles import puzzle_from_obj, puzzle_to_json, puzzle_to_obj
from logicpool.puzzles import _kernels
from logicpool.puzzles._kernels import kk_consistent_masks
from logicpool.puzzles.knights import (
    assignment_as_dict,
    assignment_from_mask,
    assignment_to_mask,
    generate_kk,
    sample_statement,
    solve_kk,
)
from logicpool.puzzles.statements import (
    OP_AND,
    OP_IFF,
    OP_IMPLIES,
    OP_OR,
    Atom,
    BinaryOp,
    Iff,
    Implies,
    Not,
    compile_statements,
    connective_count,
    statement_depth,
    statement_to_obj,
)

from conftest import random_statement, solve_kk_oracle

KNIGHT, KNAVE = "knight", "knave"


def paper_style_example():
    return [
        Implies(Atom(2, KNIGHT), Atom(1, KNAVE)),
        Iff(Atom(0, KNIGHT), Atom(2, KNAVE)),
        Atom(0, KNIGHT),
    ]


def test_example_has_unique_expected_solution():
    solutions = solve_kk(paper_style_example(), 3)
    assert [assignment_as_dict(s) for s in solutions] == [
        {"A": "knight", "B": "knave", "C": "knight"}
    ]


def test_self_accusation_has_no_model():
    assert solve_kk([Atom(0, KNAVE)], 1) == []


def test_solutions_ordered_by_mask_ascending():
    # no statements constrain nothing: every assignment is a model
    solutions = solve_kk([], 0)
    assert solutions == [()]
    rng = random.Random(3)
    statements = [random_statement(rng, 3) for _ in range(3)]
    solutions = solve_kk(statements, 3)
    masks = [assignment_to_mask(s) for s in solutions]
    assert masks == sorted(masks)


def test_capacity_guard():
    with pytest.raises(CapacityError):
        solve_kk([Atom(0, KNIGHT)] * 17, 17)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=4))
@settings(max_examples=150, deadline=None)
def test_solver_matches_exhaustive_oracle(seed, n_chars):
    rng = random.Random(seed)
    statements = [random_statement(rng, n_chars) for _ in range(n_chars)]
    assert solve_kk(statements, n_chars) == solve_kk_oracle(statements, n_chars)


def test_solver_sound_at_larger_sizes():
    # 5-6 characters: each returned assignment re-checks against every
    # statement with the independent recursive evaluator
    from conftest import eval_statement_oracle

    rng = random.Random(55)
    for _ in range(40):
        n_chars = rng.randint(5, 6)
        statements = [random_statement(rng, n_chars) for _ in range(n_chars)]
        for solution in solve_kk(statements, n_chars):
            flags = tuple(t == KNIGHT for t in solution)
            assert all(
                eval_statement_oracle(s, flags) == flags[i] for i, s in enumerate(statements)
            )


def test_generation_is_deterministic():
    first = generate_kk(3, seed=0)
    second = generate_kk(3, seed=0)
    assert puzzle_to_json(first) == puzzle_to_json(second)
    assert puzzle_to_json(first) != puzzle_to_json(generate_kk(3, seed=1))


def test_generated_puzzles_have_unique_solution():
    for seed in range(25):
        puzzle = generate_kk(4, seed=seed)
        solutions = solve_kk(puzzle.statements, puzzle.n_chars)
        assert solutions == [puzzle.solution]


def test_loader_rejects_inconsistent_solution():
    obj = puzzle_to_obj(generate_kk(4, seed=0))
    assert puzzle_from_obj(obj).solution_dict() == obj["solution"]
    for label, claimed in obj["solution"].items():
        # the solution is unique, so flipping any one character breaks it
        flipped = {**obj, "solution": {**obj["solution"], label: KNAVE if claimed == KNIGHT else KNIGHT}}
        with pytest.raises(StructureError, match="bundled solution is inconsistent"):
            puzzle_from_obj(flipped)


def test_loader_rejects_a_puzzle_with_more_than_one_solution():
    # three characters who each say "I am a knight": every assignment is consistent
    obj = puzzle_to_obj(generate_kk(3, seed=0))
    obj["statements"] = [statement_to_obj(Atom(i, KNIGHT)) for i in range(3)]
    obj["solution"] = {"A": KNIGHT, "B": KNIGHT, "C": KNIGHT}
    with pytest.raises(StructureError, match=r"puzzle .*: 8 consistent assignments, not one"):
        puzzle_from_obj(obj)


def test_generator_grammar_bounds():
    rng = random.Random(99)
    for _ in range(2000):
        statement = sample_statement(rng, 4)
        assert statement_depth(statement) <= 2
        assert connective_count(statement) <= 2


def _reference_sample_statement(rng, n_chars):
    """The generation grammar as a direct object sampler: the same draws in
    the same order as ``sample_statement``."""
    def atom():
        return Atom(rng.randrange(n_chars), rng.choice((KNIGHT, KNAVE)))

    shape = rng.choice(("atom", "not_atom", "binary", "not_binary", "binary_not_left", "binary_not_right"))
    if shape == "atom":
        return atom()
    if shape == "not_atom":
        return Not(atom())
    op = rng.choice((OP_AND, OP_OR, OP_IMPLIES, OP_IFF))
    left, right = atom(), atom()
    if shape == "not_binary":
        return Not(BinaryOp(op, left, right))
    if shape == "binary_not_left":
        left = Not(left)
    elif shape == "binary_not_right":
        right = Not(right)
    return BinaryOp(op, left, right)


def test_sampler_draws_what_the_object_grammar_draws():
    for seed in range(50):
        rng, reference = random.Random(seed), random.Random(seed)
        n_chars = 3 + seed % 4
        for _ in range(40):
            assert sample_statement(rng, n_chars) == _reference_sample_statement(reference, n_chars)
        assert rng.random() == reference.random()  # and consume the stream alike


def test_generation_solves_the_bytecode_of_the_statements_it_returns(monkeypatch):
    """generate_kk samples bytecode and builds statements only for the set
    it keeps; the last set it solved compiles from those statements."""
    solved = []

    def recording(code, bounds, n_chars):
        solved.append((list(code), list(bounds)))
        return kk_consistent_masks(code, bounds, n_chars)

    monkeypatch.setattr(_kernels, "kk_consistent_masks", recording)
    rng = random.Random(20)
    for _ in range(40):
        n_chars, seed = rng.randint(3, 6), rng.randrange(100_000)
        solved.clear()
        puzzle = generate_kk(n_chars, seed=seed)
        assert solved[-1] == compile_statements(list(puzzle.statements), n_chars)
        assert [assignment_from_mask(m, n_chars) for m in kk_consistent_masks(*solved[-1], n_chars)] == [
            puzzle.solution
        ]


def test_thousand_generated_puzzles_respect_depth_bound():
    for seed in range(1000):
        puzzle = generate_kk(3, seed=seed)
        assert all(statement_depth(s) <= 2 for s in puzzle.statements)


def test_generation_budget_exhaustion():
    with pytest.raises(GenerationError):
        generate_kk(3, seed=0, budget=0)


def test_size_validation():
    with pytest.raises(ValueError):
        generate_kk(2, seed=0)
    with pytest.raises(ValueError):
        generate_kk(7, seed=0)


def test_difficulty_label():
    assert generate_kk(6, seed=0).difficulty == "6 Person"
    assert generate_kk(3, seed=0).difficulty == "3 Person"
