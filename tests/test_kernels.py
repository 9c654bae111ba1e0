"""The compiled zebra constraint tables, checked against the product-
enumeration oracle."""

import random

import numpy as np

from logicpool.puzzles import _kernels
from logicpool.puzzles.zebra import _encode_clues, _position_table

from conftest import random_zebra_clues, solve_zebra_oracle


def test_active_backend_reports_path():
    assert _kernels.active_backend() == "numpy"


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
        tables = _kernels.ZebraTables(pos, n_attrs)
        compiled = [tables.compile(row) for row in _encode_clues(clues).tolist()]
        for key, forbid in compiled:
            tables.add(key, forbid)
        drop = rng.randrange(len(clues))
        freed = tables.remove(*compiled[drop])

        rest = clues[:drop] + clues[drop + 1 :]
        fresh = _kernels.ZebraTables(pos, n_attrs, _encode_clues(rest).tolist())
        for key, allowed in tables.allowed.items():
            expected = fresh.allowed.get(key, np.ones_like(allowed))
            assert np.array_equal(allowed, expected)
        assert _grids(tables.solutions(10_000), perms) == solve_zebra_oracle(n_houses, n_attrs, rest)
        # a drop that frees no cell cannot change the solution set
        if not freed:
            assert solve_zebra_oracle(n_houses, n_attrs, rest) == solve_zebra_oracle(
                n_houses, n_attrs, clues
            )
