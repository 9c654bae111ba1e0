import random

import pytest

from logicpool.errors import StructureError
from logicpool.puzzles.statements import (
    Atom,
    And,
    Iff,
    Implies,
    Not,
    Or,
    compile_statements,
    connective_count,
    render_statement,
    statement_depth,
    statement_from_code,
    statement_from_obj,
    statement_to_obj,
)
from logicpool.puzzles import _kernels
from logicpool.puzzles.knights import solve_kk

from conftest import eval_statement_oracle, random_statement, solve_kk_oracle

KNIGHT, KNAVE = "knight", "knave"


def kernel_truth(statement, flags):
    """The solver kernel's truth value of ``statement`` under the knight
    flags. Each flagged character says "I am a knight", which is consistent
    either way, and one more character, a knight, says ``statement``; the
    assignment is then consistent exactly when ``statement`` is true."""
    n_chars = len(flags) + 1
    code, bounds = compile_statements([Atom(i, KNIGHT) for i in range(len(flags))] + [statement], n_chars)
    mask = sum(1 << i for i, flag in enumerate(flags + (True,)) if flag)
    return mask in _kernels.kk_consistent_masks(code, bounds, n_chars)


def assert_truth(statement, flags, expected):
    assert kernel_truth(statement, flags) is expected
    assert eval_statement_oracle(statement, flags) is expected


def test_atom_under_assignment():
    assert_truth(Atom(0, KNIGHT), (True,), True)
    assert_truth(Atom(0, KNIGHT), (False,), False)
    assert_truth(Atom(0, KNAVE), (False,), True)


def test_iff_with_unequal_sides_is_false():
    assert_truth(Iff(Atom(0, KNIGHT), Atom(2, KNAVE)), (True, True, True), False)


def test_three_speaker_example_consistent():
    # A: if C is a knight then B is a knave; B: A knight iff C knave; C: A is a knight
    statements = [
        Implies(Atom(2, KNIGHT), Atom(1, KNAVE)),
        Iff(Atom(0, KNIGHT), Atom(2, KNAVE)),
        Atom(0, KNIGHT),
    ]
    expected = [(KNIGHT, KNAVE, KNIGHT)]  # A knight, B knave, C knight
    assert solve_kk(statements, 3) == solve_kk_oracle(statements, 3) == expected


def test_unknown_character_raises():
    with pytest.raises(StructureError):
        solve_kk([Atom(3, KNIGHT), Atom(0, KNIGHT)], 2)
    with pytest.raises(StructureError):
        compile_statements([Atom(5, KNIGHT)], n_chars=2)


def test_material_implication_and_connectives():
    assert_truth(Implies(Atom(0, KNIGHT), Atom(1, KNIGHT)), (False, False), True)
    assert_truth(Or(Atom(0, KNIGHT), Atom(1, KNIGHT)), (False, True), True)
    assert_truth(And(Atom(0, KNIGHT), Atom(1, KNIGHT)), (False, True), False)
    assert_truth(Not(Atom(0, KNIGHT)), (False,), True)


def test_depth_and_connective_counts():
    atom = Atom(0, KNIGHT)
    assert statement_depth(atom) == 0 and connective_count(atom) == 0
    assert statement_depth(Not(atom)) == 1
    binary = And(atom, Atom(1, KNAVE))
    assert statement_depth(binary) == 1 and connective_count(binary) == 1
    assert statement_depth(Not(binary)) == 2 and connective_count(Not(binary)) == 2
    assert statement_depth(And(Not(atom), atom)) == 2


def test_bytecode_matches_recursive_evaluation():
    rng = random.Random(7)
    for _ in range(200):
        n_chars = rng.randint(1, 5)
        statements = [random_statement(rng, n_chars) for _ in range(n_chars)]
        code, bounds = compile_statements(statements, n_chars)
        # and the bytecode of each statement decompiles back to it
        assert [statement_from_code(code[s:e]) for s, e in zip(bounds, bounds[1:])] == statements
        masks = set(int(m) for m in _kernels.kk_consistent_masks(code, bounds, n_chars))
        for mask in range(1 << n_chars):
            flags = tuple(bool((mask >> i) & 1) for i in range(n_chars))
            consistent = all(
                eval_statement_oracle(s, flags) == flags[i] for i, s in enumerate(statements)
            )
            assert (mask in masks) == consistent


def test_serialization_roundtrip():
    rng = random.Random(11)
    for _ in range(50):
        statement = random_statement(rng, 4)
        assert statement_from_obj(statement_to_obj(statement)) == statement


def test_rendering_fixed_templates():
    assert render_statement(Atom(0, KNIGHT)) == "A is a knight"
    assert render_statement(Not(Atom(1, KNAVE))) == "B is not a knave"
    assert (
        render_statement(Implies(Atom(2, KNIGHT), Atom(1, KNAVE)))
        == "if C is a knight, then B is a knave"
    )
    assert (
        render_statement(Iff(Atom(0, KNIGHT), Atom(2, KNAVE)))
        == "A is a knight if and only if C is a knave"
    )
    assert (
        render_statement(Not(Or(Atom(0, KNIGHT), Atom(1, KNIGHT))))
        == "it is not the case that A is a knight or B is a knight"
    )
