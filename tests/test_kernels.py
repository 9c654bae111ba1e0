"""The solver kernels: the kk bitset kernel against the truth-table oracle,
and the compiled zebra constraint tables against the product-enumeration
oracle."""

import random

import numpy as np

from logicpool.puzzles import _kernels
from logicpool.puzzles.knights import MAX_CHARS, assignment_from_mask
from logicpool.puzzles.statements import KNAVE, KNIGHT, Atom, compile_statements
from logicpool.puzzles.zebra import ZebraGrid, _all_true_clues, _encode_clues, _position_table

from conftest import (
    clue_holds_oracle,
    random_statement,
    random_zebra_clues,
    solve_kk_oracle,
    solve_zebra_oracle,
)


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
        tables = _kernels.ZebraTables(pos, n_attrs, _encode_clues(clues).tolist())
        drop = rng.randrange(len(clues))
        _, freed = tables.remove(drop)

        rest = clues[:drop] + clues[drop + 1 :]
        fresh = _kernels.ZebraTables(pos, n_attrs, _encode_clues(rest).tolist())
        for key, allowed in tables.allowed.items():
            expected = fresh.allowed.get(key, np.ones_like(allowed))
            assert np.array_equal(allowed, expected)
        assert _grids(tables.solutions(10_000), perms) == solve_zebra_oracle(n_houses, n_attrs, rest)
        # a drop that frees no cell cannot change the solution set
        if freed is None:
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
        tables = _kernels.ZebraTables(pos, n_attrs, _encode_clues(clues).tolist())
        before = len(solve_zebra_oracle(n_houses, n_attrs, clues))
        for drop in range(len(clues)):
            key, freed = tables.remove(drop)
            rest = clues[:drop] + clues[drop + 1 :]
            added = len(solve_zebra_oracle(n_houses, n_attrs, rest)) > before
            assert tables.has_solution_in(key, freed) == added
            outcomes.append(added)
            tables.restore(drop)
    assert 0.2 < sum(outcomes) / len(outcomes) < 0.8  # both outcomes are exercised


def _violations(n_houses, n_attrs, clues):
    """Every grid of the product-enumeration oracle, each with the bitmask
    of the clue indices it breaks."""
    grids = solve_zebra_oracle(n_houses, n_attrs, [])
    masks = []
    for grid in grids:
        def position_of(attr, val, grid=grid):
            return grid[attr].index(val)

        masks.append(sum(1 << i for i, clue in enumerate(clues) if not clue_holds_oracle(clue, position_of)))
    return grids, masks


def test_drop_and_restore_sequences_match_the_oracle():
    """Random sequences of drops and restores, over clue lists that repeat
    some rows, keep the tables equal to tables built from the clues still
    in, and their solutions equal the oracle's; a drop frees exactly the
    cells that were forbidden and no longer are."""
    rng = random.Random(46)
    shapes = [(2, 1), (2, 3), (3, 1), (3, 2), (3, 3), (4, 2), (4, 3)]
    for trial in range(28):
        n_houses, n_attrs = shapes[trial % len(shapes)]
        clues = random_zebra_clues(rng, n_houses, n_attrs, rng.randint(1, 7))
        clues += rng.choices(clues, k=rng.randint(1, 4))  # duplicated rows
        rng.shuffle(clues)
        perms, pos = _position_table(n_houses)
        rows = _encode_clues(clues).tolist()
        tables = _kernels.ZebraTables(pos, n_attrs, rows)
        grids, violated = _violations(n_houses, n_attrs, clues)
        present = set(range(len(clues)))
        for _ in range(12):
            before = {key: allowed.copy() for key, allowed in tables.allowed.items()}
            index = rng.randrange(len(clues))
            if index in present:
                present.remove(index)
                key, freed = tables.remove(index)
                newly = tables.allowed[key] & ~before[key]
                if freed is None:
                    assert not newly.any()
                else:
                    assert np.array_equal(freed, newly)
            else:
                present.add(index)
                tables.restore(index)
            fresh = _kernels.ZebraTables(pos, n_attrs, [rows[i] for i in sorted(present)])
            for key, count in tables.count.items():
                assert np.array_equal(count, fresh.count.get(key, np.zeros_like(count)))
                assert np.array_equal(tables.allowed[key], count == 0)
            mask = sum(1 << i for i in present)
            expected = [grid for grid, v in zip(grids, violated) if not v & mask]
            assert _grids(tables.solutions(100_000), perms) == expected


def test_repeated_clues_leave_every_count_within_the_keys_value_pairs():
    """A cell's count is the number of value pairs on its key that forbid
    it, so 300 copies of each clue give the counts of one copy, and no
    count exceeds the key's value pairs: n^2 between two attributes,
    n (n + 1) / 2 within one. That keeps uint8 counts exact."""
    n_houses, n_attrs = 6, 3
    rng = random.Random(47)
    grid = ZebraGrid(tuple(tuple(rng.sample(range(n_houses), n_houses)) for _ in range(n_attrs)))
    rows = _encode_clues(_all_true_clues(grid, n_houses, n_attrs)).tolist()
    rows += _encode_clues(random_zebra_clues(rng, n_houses, n_attrs, 60)).tolist()
    perms, pos = _position_table(n_houses)
    once = _kernels.ZebraTables(pos, n_attrs, rows)
    repeated = _kernels.ZebraTables(pos, n_attrs, rows * 300)
    assert set(repeated.count) == set(once.count)
    for (a, b), count in repeated.count.items():
        assert count.dtype == np.uint8
        assert np.array_equal(count, once.count[a, b])
        value_pairs = n_houses * (n_houses + 1) // 2 if a == b else n_houses**2
        assert 0 < count.max() <= value_pairs
    # the key of a pair of values from two attributes reaches its bound
    assert max(int(count.max()) for (a, b), count in repeated.count.items() if a != b) == n_houses**2
    assert repeated.solutions(2).tolist() == once.solutions(2).tolist()


def test_counts_match_counts_made_by_plain_loops():
    """A table build counts, per cell, the value pairs on its key that some
    clue on the pair forbids there. Counted here cell by cell with the
    oracle's clue semantics, over random clue lists with repeated clues,
    at_position clues and value pairs within one attribute."""
    rng = random.Random(48)
    for n_houses, n_attrs in [(2, 1), (2, 3), (3, 1), (3, 3), (4, 2), (4, 3), (5, 2)]:
        clues = random_zebra_clues(rng, n_houses, n_attrs, rng.randint(4, 2 * n_houses * n_attrs))
        clues += rng.choices(clues, k=3)
        perms, pos = _position_table(n_houses)
        tables = _kernels.ZebraTables(pos, n_attrs, _encode_clues(clues).tolist())
        by_pair = {}
        for clue in clues:
            first = (clue.a_attr, clue.a_val)
            second = first if clue.b_attr < 0 else (clue.b_attr, clue.b_val)
            by_pair.setdefault(tuple(sorted((first, second))), []).append(clue)
        keys = {(first[0], second[0]) for first, second in by_pair}
        assert set(tables.count) == keys
        for a, b in keys:
            count = tables.count[a, b]
            assert count.dtype == np.uint8
            expected = np.zeros(count.shape, dtype=int)
            for cell in np.ndindex(count.shape):
                j, k = cell * 2 if a == b else cell

                def position_of(attr, val, j=j, k=k):
                    return perms[j if attr == a else k].index(val)

                expected[cell] = sum(
                    any(not clue_holds_oracle(clue, position_of) for clue in pair_clues)
                    for (first, second), pair_clues in by_pair.items()
                    if (first[0], second[0]) == (a, b)
                )
            assert np.array_equal(count, expected), (n_houses, n_attrs, a, b)
            assert np.array_equal(tables.allowed[a, b], expected == 0)
