"""The solver kernels: the kk bitset kernel against the truth-table oracle,
and the compiled zebra constraint tables against the product-enumeration
oracle."""

import random

import numpy as np

from logicpool.puzzles import _kernels
from logicpool.puzzles.knights import MAX_CHARS, assignment_from_mask
from logicpool.puzzles.statements import KNAVE, KNIGHT, Atom, compile_statements
from logicpool.puzzles.zebra import ZebraGrid, _all_true_clues, _encode_clues, _position_table

from conftest import random_statement, random_zebra_clues, solve_kk_oracle, solve_zebra_oracle


def test_active_backend_reports_path():
    assert _kernels.active_backend() == "numpy"


def kk_masks(statements, n_chars):
    return _kernels.kk_consistent_masks(*compile_statements(statements, n_chars), n_chars)


def test_kk_kernel_with_no_characters_keeps_the_empty_assignment():
    assert kk_masks([], 0) == [0]


def test_kk_kernel_is_complete_at_seven_and_eight_characters():
    rng = random.Random(78)
    counts = set()
    for n_chars in (7, 8):
        for _ in range(12):
            statements = [random_statement(rng, n_chars) for _ in range(n_chars)]
            masks = kk_masks(statements, n_chars)
            assert [assignment_from_mask(m, n_chars) for m in masks] == solve_kk_oracle(statements, n_chars)
            counts.add(min(len(masks), 2))
    assert counts == {0, 1, 2}  # inconsistent, unique and ambiguous sets all occur


def test_kk_kernel_at_the_character_limit():
    n = MAX_CHARS
    assert n == 16
    # A says A is a knight; every later character says the one before is a
    # knave, so the types alternate from either choice for A.
    chain = [Atom(0, KNIGHT)] + [Atom(i - 1, KNAVE) for i in range(1, n)]
    assert kk_masks(chain, n) == [0x5555, 0xAAAA]
    # everyone claims to be a knight: every assignment is consistent
    assert kk_masks([Atom(i, KNIGHT) for i in range(n)], n) == list(range(1 << n))
    # everyone claims to be a knave: no assignment is
    assert kk_masks([Atom(i, KNAVE) for i in range(n)], n) == []


def _grids(rows, perms):
    return [tuple(perms[j] for j in row) for row in rows.tolist()]


def test_zebra_solutions_respect_limit_on_empty_clues():
    perms, pos = _position_table(3)
    rows = _kernels.zebra_solutions(pos, _encode_clues([]), 2, 7)
    assert rows.shape == (7, 2)
    assert _grids(rows, perms) == solve_zebra_oracle(3, 2, [])[:7]


def test_removing_a_clue_restores_the_tables_without_it():
    rng = random.Random(44)
    for _ in range(40):
        n_houses = rng.randint(2, 3)
        n_attrs = rng.randint(1, 3)
        clues = random_zebra_clues(rng, n_houses, n_attrs, rng.randint(1, 8))
        perms, pos = _position_table(n_houses)
        rows = _encode_clues(clues).tolist()
        tables = _kernels.ZebraTables(pos, n_attrs)
        for row in rows:
            tables.add([row])
        drop = rng.randrange(len(clues))
        _, freed = tables.remove(rows[drop])

        rest = clues[:drop] + clues[drop + 1 :]
        fresh = _kernels.ZebraTables(pos, n_attrs, _encode_clues(rest).tolist())
        for key, allowed in tables.allowed.items():
            expected = fresh.allowed.get(key, np.ones_like(allowed))
            assert np.array_equal(allowed, expected)
        assert _grids(tables.solutions(10_000), perms) == solve_zebra_oracle(n_houses, n_attrs, rest)
        # a drop that frees no cell cannot change the solution set
        if not freed.any():
            assert solve_zebra_oracle(n_houses, n_attrs, rest) == solve_zebra_oracle(
                n_houses, n_attrs, clues
            )


def test_freed_cells_reach_exactly_the_solutions_a_drop_adds():
    # A grid that satisfies every clue but the dropped one puts a freed cell
    # under its key, and a grid that does so breaks the dropped clue. The
    # clues are some of those true in one grid, as during generation.
    rng = random.Random(45)
    outcomes = []
    for _ in range(40):
        n_houses = 3
        n_attrs = rng.randint(2, 3)
        grid = ZebraGrid(tuple(tuple(rng.sample(range(n_houses), n_houses)) for _ in range(n_attrs)))
        clues = rng.sample(_all_true_clues(grid, n_houses, n_attrs), rng.randint(2, 8))
        _, pos = _position_table(n_houses)
        rows = _encode_clues(clues).tolist()
        tables = _kernels.ZebraTables(pos, n_attrs, rows)
        before = len(solve_zebra_oracle(n_houses, n_attrs, clues))
        for drop, row in enumerate(rows):
            key, freed = tables.remove(row)
            rest = clues[:drop] + clues[drop + 1 :]
            added = len(solve_zebra_oracle(n_houses, n_attrs, rest)) > before
            assert tables.has_solution_in(key, freed) == added
            outcomes.append(added)
            tables.add([row])
    assert 0.2 < sum(outcomes) / len(outcomes) < 0.8  # both outcomes are exercised
