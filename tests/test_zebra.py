import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from logicpool.errors import CapacityError, StructureError
from logicpool.puzzles import puzzle_from_json, puzzle_from_obj, puzzle_to_json, puzzle_to_obj
from logicpool.puzzles.zebra import (
    AT_POSITION,
    ATTRIBUTE_POOLS,
    CLUE_KINDS,
    Attribute,
    Clue,
    DIRECTLY_LEFT_OF,
    LEFT_OF,
    NEXT_TO,
    NOT_SAME_HOUSE,
    SAME_HOUSE,
    ZebraGrid,
    ZebraPuzzle,
    clue_holds,
    generate_zebra,
    render_clue,
    solve_zebra,
    _all_true_clues,
    zebra_difficulty,
)

from conftest import clue_holds_oracle, random_zebra_clues, solve_zebra_oracle


def two_house_example():
    # attributes: 0 = name (Alice, Peter), 1 = pet (cat, dog)
    # clues: the cat's house is left of the dog's; Alice has the cat
    return [Clue(LEFT_OF, 1, 0, 1, 1), Clue(SAME_HOUSE, 0, 0, 1, 0)]


def test_two_house_example_unique_solution():
    grids = solve_zebra(2, 2, two_house_example())
    assert len(grids) == 1
    grid = grids[0]
    # Alice (value 0) and the cat (value 0) share house 1; Peter and the dog house 2
    assert grid.perms == ((0, 1), (0, 1))


def test_zero_clue_puzzle_enumerates_both_permutations():
    grids = solve_zebra(2, 1, [])
    assert len(grids) == 2
    assert [g.perms for g in grids] == [((0, 1),), ((1, 0),)]


def test_solutions_in_lexicographic_order():
    grids = solve_zebra(3, 2, [Clue(NEXT_TO, 0, 0, 1, 1)])
    as_tuples = [g.perms for g in grids]
    assert as_tuples == sorted(as_tuples)


def test_capacity_guard():
    # solving and generation share one guard, whose message names the limit
    for call in (
        lambda: solve_zebra(7, 2, []),
        lambda: solve_zebra(3, 7, []),
        lambda: generate_zebra(7, 2, seed=0),
        lambda: generate_zebra(3, 7, seed=0),
    ):
        with pytest.raises(CapacityError, match=r"enumeration guard \(6x6\)"):
            call()


@pytest.mark.parametrize(
    "clue, message",
    [
        (Clue(AT_POSITION, 5, 0, house=0), "unknown attribute 5"),
        (Clue(AT_POSITION, 0, 7, house=0), "unknown value 7"),
        (Clue(AT_POSITION, 0, 0, house=2), "unknown house 2"),
        (Clue(SAME_HOUSE, 0, 0, 2, 1), "unknown attribute 2"),
        (Clue(NEXT_TO, 0, 0, 1, 7), "unknown value 7"),
    ],
)
def test_solver_refuses_clues_outside_the_grid(clue, message):
    """The solver checks clue references as a puzzle does, rather than
    ignoring the clue or failing on an index."""
    attributes = (Attribute("name", ("Alice", "Peter")), Attribute("pet", ("cat", "dog")))
    with pytest.raises(StructureError, match=message):
        solve_zebra(2, 2, [clue])
    with pytest.raises(StructureError, match=message):
        ZebraPuzzle("z", 2, attributes, (clue,), ZebraGrid(((0, 1), (0, 1))))


def test_limit_truncates():
    grids = solve_zebra(3, 2, [], limit=5)
    assert len(grids) == 5


@pytest.mark.parametrize("limit", [0, -1, -10_000])
def test_limit_below_one_is_refused(limit):
    # a limit of 0 used to return one grid
    with pytest.raises(ValueError, match=f"limit must be at least 1, got {limit}"):
        solve_zebra(3, 2, [], limit=limit)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=120, deadline=None)
def test_solver_matches_product_enumeration_oracle(seed):
    rng = random.Random(seed)
    n_houses = rng.randint(2, 3)
    n_attrs = rng.randint(1, 3)
    clues = random_zebra_clues(rng, n_houses, n_attrs, rng.randint(0, 6))
    got = [g.perms for g in solve_zebra(n_houses, n_attrs, clues)]
    assert got == solve_zebra_oracle(n_houses, n_attrs, clues)


def test_solver_sound_at_larger_sizes():
    # beyond the oracle-comparison sizes: every returned grid must satisfy
    # every clue when re-checked independently
    from conftest import clue_holds_oracle

    rng = random.Random(77)
    for _ in range(10):
        clues = random_zebra_clues(rng, 4, 4, rng.randint(2, 10))
        for grid in solve_zebra(4, 4, clues, limit=200):
            for clue in clues:
                assert clue_holds_oracle(clue, grid.position_of)
                assert clue_holds(clue, grid)


def test_solver_matches_oracle_on_4x3():
    rng = random.Random(88)
    clues = random_zebra_clues(rng, 4, 3, 5)
    got = [g.perms for g in solve_zebra(4, 3, clues, limit=20_000)]
    assert got == solve_zebra_oracle(4, 3, clues)


def test_generation_is_deterministic():
    a = generate_zebra(3, 3, seed=5)
    b = generate_zebra(3, 3, seed=5)
    assert puzzle_to_json(a) == puzzle_to_json(b)
    assert puzzle_to_json(a) != puzzle_to_json(generate_zebra(3, 3, seed=6))


def test_generated_puzzles_unique_and_minimal():
    for seed in range(6):
        puzzle = generate_zebra(3, 3, seed=seed)
        assert len(puzzle.clues) >= 1
        solutions = solve_zebra(puzzle.n_houses, puzzle.n_attrs, puzzle.clues, limit=3)
        assert [g.perms for g in solutions] == [puzzle.solution.perms]
        for dropped in range(len(puzzle.clues)):
            remaining = [c for i, c in enumerate(puzzle.clues) if i != dropped]
            assert len(solve_zebra(puzzle.n_houses, puzzle.n_attrs, remaining, limit=3)) > 1


def test_small_puzzle_has_clues():
    assert len(generate_zebra(2, 2, seed=0).clues) >= 1


def test_generated_clues_hold_in_solution():
    puzzle = generate_zebra(4, 3, seed=2)
    for clue in puzzle.clues:
        assert clue_holds(clue, puzzle.solution)


@pytest.mark.parametrize("n_houses, n_attrs", [(2, 2), (3, 3), (4, 2), (5, 3), (6, 2)])
def test_true_clues_are_every_clue_the_oracle_accepts(n_houses, n_attrs):
    """The saturated clue set holds every clue true in the grid once: each
    at_position clue, each symmetric kind with its references in
    (attribute, value) order, and each ordered kind the way round it holds,
    with the fields the kind does not use left at their defaults."""
    rng = random.Random(10 * n_houses + n_attrs)
    grid = ZebraGrid(tuple(tuple(rng.sample(range(n_houses), n_houses)) for _ in range(n_attrs)))
    refs = [(a, v) for a in range(n_attrs) for v in range(n_houses)]
    candidates = [Clue(AT_POSITION, a, v, house=h) for a, v in refs for h in range(n_houses)]
    for i, first in enumerate(refs):
        for second in refs[i + 1 :]:
            candidates += [Clue(kind, *first, *second) for kind in (SAME_HOUSE, NOT_SAME_HOUSE, NEXT_TO)]
            candidates += [
                Clue(kind, *a, *b) for kind in (LEFT_OF, DIRECTLY_LEFT_OF) for a, b in ((first, second), (second, first))
            ]
    clues = _all_true_clues(grid, n_houses, n_attrs)
    assert len(set(clues)) == len(clues)
    assert set(clues) == {clue for clue in candidates if clue_holds_oracle(clue, grid.position_of)}


def test_difficulty_split():
    assert zebra_difficulty(2, 5) == "easy"
    assert zebra_difficulty(2, 2) == "easy"
    assert zebra_difficulty(3, 3) == "easy"
    assert zebra_difficulty(3, 4) == "hard"
    assert zebra_difficulty(4, 2) == "hard"
    assert generate_zebra(2, 4, seed=1).difficulty == "easy"


def test_grid_validation():
    with pytest.raises(StructureError):
        ZebraGrid(((0, 0),))


def test_clue_validation():
    with pytest.raises(StructureError):
        Clue("sideways", 0, 0, 1, 1)
    with pytest.raises(StructureError):
        Clue(AT_POSITION, 0, 0)  # missing house
    with pytest.raises(StructureError):
        Clue(LEFT_OF, 0, 0)  # missing second reference


def test_puzzle_rejects_bad_clue_reference():
    grid = ZebraGrid(((0, 1), (0, 1)))
    attrs = (Attribute("name", ("Alice", "Peter")), Attribute("pet", ("cat", "dog")))
    with pytest.raises(StructureError):
        ZebraPuzzle("z", 2, attrs, (Clue(LEFT_OF, 0, 0, 5, 1),), grid)


def test_render_clue_fixed_templates():
    puzzle = ZebraPuzzle(
        "z",
        2,
        (Attribute("name", ("Alice", "Peter")), Attribute("pet", ("cat", "dog"))),
        tuple(two_house_example()),
        ZebraGrid(((0, 1), (0, 1))),
    )
    texts = [render_clue(c, puzzle) for c in puzzle.clues]
    assert texts[0] == (
        "The person whose pet is cat lives somewhere to the left of the person whose pet is dog."
    )
    assert texts[1] == "Alice is the same person as the person whose pet is cat."


def test_at_position_clue_renders_and_round_trips():
    puzzle = ZebraPuzzle(
        "z",
        2,
        (Attribute("name", ("Alice", "Peter")), Attribute("pet", ("cat", "dog"))),
        (Clue(AT_POSITION, 0, 0, house=0), Clue(AT_POSITION, 1, 1, house=1)),
        ZebraGrid(((0, 1), (0, 1))),
        seed=3,
    )
    assert [render_clue(c, puzzle) for c in puzzle.clues] == [
        "Alice lives in house 1.",
        "The person whose pet is dog lives in house 2.",
    ]
    obj = puzzle_to_obj(puzzle)
    assert obj["clues"][1] == {"kind": AT_POSITION, "a": ["pet", "dog"], "house": 2}  # 1-based on disk
    assert puzzle_from_obj(obj) == puzzle


def test_serialization_roundtrip_byte_identical():
    puzzle = generate_zebra(3, 3, seed=9)
    text = puzzle_to_json(puzzle)
    reloaded = puzzle_from_json(text)
    assert puzzle_to_json(reloaded) == text


def test_loader_rejects_inconsistent_solution():
    puzzle = generate_zebra(2, 2, seed=0)
    obj = puzzle_to_json(puzzle)
    # swap the two houses in the stored solution so some clue breaks
    import json

    data = json.loads(obj)
    data["solution"] = data["solution"][::-1]
    with pytest.raises(StructureError):
        puzzle_from_json(json.dumps(data))


@pytest.mark.parametrize("ref", [["sport", "golf"], ["pet", "tennis"]], ids=["value", "attribute"])
def test_loader_names_a_clue_reference_the_puzzle_lacks(ref):
    obj = puzzle_to_obj(generate_zebra(2, 2, seed=0))  # attributes name and sport
    obj["clues"][0]["a"] = ref
    with pytest.raises(StructureError, match=f"^clue references unknown value {ref[0]}={ref[1]}$"):
        puzzle_from_obj(obj)


@pytest.mark.parametrize("house", [{"name": "Carol"}, {"name": "Carol", "sport": "golf"}], ids=["missing", "unknown"])
def test_loader_names_a_solution_attribute_the_house_lacks(house):
    obj = puzzle_to_obj(generate_zebra(2, 2, seed=0))
    obj["solution"][0] = house
    with pytest.raises(StructureError, match="^solution house missing attribute 'sport'$"):
        puzzle_from_obj(obj)


def test_loader_rejects_a_puzzle_with_more_than_one_grid():
    # no clues: each of the 2 attributes can take either order, 4 grids in all
    obj = puzzle_to_obj(generate_zebra(2, 2, seed=0))
    obj["clues"] = []
    assert len(solve_zebra(2, 2, [], limit=10)) == 4
    with pytest.raises(StructureError, match=r"puzzle zebra.*: more than one grid satisfies its clues"):
        puzzle_from_obj(obj)
    # one clue pins the names, the pets stay free
    obj["clues"] = [{"kind": AT_POSITION, "a": ["name", obj["solution"][0]["name"]], "house": 1}]
    with pytest.raises(StructureError, match="more than one grid"):
        puzzle_from_obj(obj)


def test_loader_rejects_a_puzzle_too_large_to_solve():
    # the bundled solution keeps its clues, but no solve can tell whether it is the only grid
    perms = tuple(tuple(range(7)) for _ in range(2))
    attrs = tuple(Attribute(f"a{i}", tuple(f"v{i}{j}" for j in range(7))) for i in range(2))
    clues = tuple(Clue(AT_POSITION, a, h, house=h) for a in range(2) for h in range(7))
    obj = puzzle_to_obj(ZebraPuzzle("z7", 7, attrs, clues, ZebraGrid(perms)))
    with pytest.raises(StructureError, match=r"puzzle z7: 7 houses x 2 attributes exceeds the enumeration guard"):
        puzzle_from_obj(obj)


def _clue_sort_key(clue):
    """The order a generated puzzle lists its clues in."""
    return (CLUE_KINDS.index(clue.kind), clue.a_attr, clue.a_val, clue.b_attr, clue.b_val, clue.house)


def _saturated_in_drop_order(n_houses, n_attrs, seed):
    """The generator's solution grid and its true clues in the order the
    greedy minimization tries to drop them (same seeded draws)."""
    rng = random.Random(f"zebra:{n_houses}x{n_attrs}:{seed}")
    pool_names = [n for n in ATTRIBUTE_POOLS if n != "name"]
    for name in ["name"] + rng.sample(pool_names, n_attrs - 1):
        rng.sample(ATTRIBUTE_POOLS[name], n_houses)
    grid = ZebraGrid(tuple(tuple(rng.sample(range(n_houses), n_houses)) for _ in range(n_attrs)))
    clues = _all_true_clues(grid, n_houses, n_attrs)
    rng.shuffle(clues)
    return grid, clues


def _reference_minimize(n_houses, n_attrs, clues):
    """Greedy minimization over the product-enumeration oracle: drop each
    clue in turn while exactly one grid satisfies the remaining ones.

    Equivalent to calling ``solve_zebra_oracle`` per trial, but each grid's
    violated clues are enumerated once, as a bitmask over clue indices."""
    perms = list(itertools.permutations(range(n_houses)))
    violated = []
    for combo in itertools.product(perms, repeat=n_attrs):
        def position_of(attr, val, combo=combo):
            return combo[attr].index(val)

        violated.append(
            sum(1 << i for i, clue in enumerate(clues) if not clue_holds_oracle(clue, position_of))
        )
    kept = (1 << len(clues)) - 1
    for i in range(len(clues)):
        trial = kept & ~(1 << i)
        if sum(1 for v in violated if not v & trial) == 1:
            kept = trial
    return [clue for i, clue in enumerate(clues) if kept >> i & 1]


@pytest.mark.parametrize(
    "n_houses,n_attrs,seed",
    [(2, 2, 11), (2, 3, 402), (3, 2, 7), (3, 3, 5), (3, 3, 1234), (4, 3, 2), (4, 3, 31)],
)
def test_generation_matches_reference_greedy_minimizer(n_houses, n_attrs, seed):
    puzzle = generate_zebra(n_houses, n_attrs, seed=seed)
    grid, clues = _saturated_in_drop_order(n_houses, n_attrs, seed)
    assert grid == puzzle.solution
    kept = _reference_minimize(n_houses, n_attrs, clues)
    assert tuple(sorted(kept, key=_clue_sort_key)) == puzzle.clues


@pytest.mark.parametrize("n_houses,n_attrs", [(5, 5), (6, 6)])
def test_large_puzzle_resolves_to_its_solution(n_houses, n_attrs):
    puzzle = generate_zebra(n_houses, n_attrs, seed=0)
    solutions = solve_zebra(n_houses, n_attrs, puzzle.clues, limit=3)
    assert [g.perms for g in solutions] == [puzzle.solution.perms]
    for clue in puzzle.clues:
        assert clue_holds_oracle(clue, puzzle.solution.position_of)


def test_5x5_puzzle_is_minimal():
    puzzle = generate_zebra(5, 5, seed=3)
    for dropped in range(len(puzzle.clues)):
        remaining = [c for i, c in enumerate(puzzle.clues) if i != dropped]
        assert len(solve_zebra(5, 5, remaining, limit=2)) == 2


# sha256 of puzzle_to_json at shapes beyond the desk corpus, where the
# minimizer's uniqueness search does the most work: the kept clue set must
# not move when the search changes.
GENERATED_SHA256 = {
    (5, 5, 0): "e4ce95ef304ed98360d98afa175af15c19be6ef7f98a63ac0770751f48a679ae",
    (5, 5, 1): "6e28f4e67294eabe20aea862e16200edde80d12b9cdef1ad7842760c38f15ffc",
    (5, 5, 2): "3c6a90251df10cc30dde0115603a8a7cc87af9e51f34ae0ce4773677310a9896",
    (6, 4, 0): "7ec79dab1ce28cf809e55b9cd9ddae0d38d125df09357c2baa4d98cea69354d6",
    (6, 4, 1): "24aecb872aeec7bcd925bc4426a1ac153d93f4d0f8749702a15bd58b987866a9",
    (5, 3, 0): "105cad4b05534574b6fa1ee15acef4e9f937d2bee072a89a599b6c46c09c7d22",
    (3, 6, 0): "b2276fc0dd1d2c9cc27545acab2f3565b98ac4727de9e8ebe079684bcb7fa5c7",
    (6, 6, 0): "efabe1ddce50eb082341ca6faf790e51397946a271d9cc7e7d40da8b0fce3c9a",
}


@pytest.mark.parametrize("shape", list(GENERATED_SHA256), ids=lambda s: f"{s[0]}x{s[1]}-seed{s[2]}")
def test_generation_is_pinned_beyond_the_desk_shapes(shape):
    n_houses, n_attrs, seed = shape
    text = puzzle_to_json(generate_zebra(n_houses, n_attrs, seed=seed))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GENERATED_SHA256[shape]
