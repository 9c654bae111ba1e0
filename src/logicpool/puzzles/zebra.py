"""Zebra puzzles: houses x attributes grids, clue semantics, exact solving,
and unique-solution generation by clue saturation + greedy minimization."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from ..errors import CapacityError, GenerationError, StructureError
from . import _kernels

MAX_HOUSES = 6
MAX_ATTRS = 6
DEFAULT_SOLUTION_LIMIT = 10_000

SAME_HOUSE = "same_house"
AT_POSITION = "at_position"
LEFT_OF = "left_of"
DIRECTLY_LEFT_OF = "directly_left_of"
NEXT_TO = "next_to"
NOT_SAME_HOUSE = "not_same_house"

_KIND_CODES = {
    SAME_HOUSE: _kernels.K_SAME_HOUSE,
    AT_POSITION: _kernels.K_AT_POSITION,
    LEFT_OF: _kernels.K_LEFT_OF,
    DIRECTLY_LEFT_OF: _kernels.K_DIRECTLY_LEFT_OF,
    NEXT_TO: _kernels.K_NEXT_TO,
    NOT_SAME_HOUSE: _kernels.K_NOT_SAME_HOUSE,
}
CLUE_KINDS = tuple(_KIND_CODES)

# Fixed value pools; disjoint across attributes so answer lines parse
# unambiguously. "name" always comes first when available.
ATTRIBUTE_POOLS: dict[str, tuple[str, ...]] = {
    "name": ("Alice", "Peter", "Eric", "Arnold", "Carol", "Bob"),
    "pet": ("cat", "dog", "fish", "bird", "hamster", "horse"),
    "drink": ("water", "tea", "coffee", "milk", "juice", "cola"),
    "color": ("red", "green", "blue", "yellow", "white", "purple"),
    "sport": ("soccer", "tennis", "golf", "chess", "swimming", "cycling"),
    "hobby": ("painting", "reading", "cooking", "gardening", "music", "photography"),
}


@dataclass(frozen=True)
class Attribute:
    name: str
    values: tuple[str, ...]  # one per house, all distinct

    def __post_init__(self) -> None:
        if len(set(self.values)) != len(self.values):
            raise StructureError(f"attribute {self.name!r} has duplicate values")


@dataclass(frozen=True)
class Clue:
    """One constraint over (attribute, value) references.

    ``a_attr``/``b_attr`` index into the puzzle's attributes and
    ``a_val``/``b_val`` into their value lists. ``house`` is only used by
    at_position (0-based). left_of means a strictly smaller house index.
    """

    kind: str
    a_attr: int
    a_val: int
    b_attr: int = -1
    b_val: int = -1
    house: int = -1

    def __post_init__(self) -> None:
        if self.kind not in _KIND_CODES:
            raise StructureError(f"unknown clue kind {self.kind!r}")
        if self.kind == AT_POSITION:
            if self.house < 0:
                raise StructureError("at_position clue needs a house index")
        elif self.b_attr < 0 or self.b_val < 0:
            raise StructureError(f"{self.kind} clue needs a second reference")


@dataclass(frozen=True)
class ZebraGrid:
    """Solved grid: ``perms[a][h]`` is the value index of attribute ``a`` at
    house ``h``; each row is a permutation of the attribute's domain."""

    perms: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.perms[0]) if self.perms else 0
        for row in self.perms:
            if sorted(row) != list(range(n)):
                raise StructureError("grid row is not a permutation")

    def value_index(self, house: int, attr: int) -> int:
        return self.perms[attr][house]

    def position_of(self, attr: int, value_index: int) -> int:
        return self.perms[attr].index(value_index)


@dataclass(frozen=True)
class ZebraPuzzle:
    puzzle_id: str
    n_houses: int
    attributes: tuple[Attribute, ...]
    clues: tuple[Clue, ...]
    solution: ZebraGrid
    seed: int | None = None

    family: str = field(default="zebra", init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_houses < 2:
            raise StructureError("a zebra puzzle needs at least 2 houses")
        for attr in self.attributes:
            if len(attr.values) != self.n_houses:
                raise StructureError(f"attribute {attr.name!r} must have {self.n_houses} values")
        for clue in self.clues:
            _check_clue_refs(clue, self.n_houses, len(self.attributes))

    @property
    def n_attrs(self) -> int:
        return len(self.attributes)

    @property
    def difficulty(self) -> str:
        return zebra_difficulty(self.n_houses, self.n_attrs)

    def grid_as_dicts(self, grid: ZebraGrid | None = None) -> list[dict[str, str]]:
        """Per-house {attribute: value} mappings, house order."""
        grid = self.solution if grid is None else grid
        return [
            {attr.name: attr.values[grid.value_index(h, a)] for a, attr in enumerate(self.attributes)}
            for h in range(self.n_houses)
        ]


def _check_clue_refs(clue: Clue, n_houses: int, n_attrs: int) -> None:
    def check(attr: int, val: int) -> None:
        if not 0 <= attr < n_attrs:
            raise StructureError(f"clue references unknown attribute {attr}")
        if not 0 <= val < n_houses:
            raise StructureError(f"clue references unknown value {val}")

    check(clue.a_attr, clue.a_val)
    if clue.kind == AT_POSITION:
        if not 0 <= clue.house < n_houses:
            raise StructureError(f"clue references unknown house {clue.house}")
    else:
        check(clue.b_attr, clue.b_val)


def _check_capacity(n_houses: int, n_attrs: int) -> None:
    if n_houses > MAX_HOUSES or n_attrs > MAX_ATTRS:
        raise CapacityError(
            f"{n_houses} houses x {n_attrs} attributes exceeds the enumeration guard "
            f"({MAX_HOUSES}x{MAX_ATTRS})"
        )


def zebra_difficulty(n_houses: int, n_attrs: int) -> str:
    """Size-based split: 2xM for M in 2..6 and 3x2/3x3 are easy, larger
    configurations are hard."""
    if n_houses == 2 and 2 <= n_attrs <= 6:
        return "easy"
    if n_houses == 3 and n_attrs in (2, 3):
        return "easy"
    return "hard"


def clue_holds(clue: Clue, grid: ZebraGrid) -> bool:
    ha = grid.position_of(clue.a_attr, clue.a_val)
    if clue.kind == AT_POSITION:
        return ha == clue.house
    hb = grid.position_of(clue.b_attr, clue.b_val)
    if clue.kind == SAME_HOUSE:
        return ha == hb
    if clue.kind == LEFT_OF:
        return ha < hb
    if clue.kind == DIRECTLY_LEFT_OF:
        return ha + 1 == hb
    if clue.kind == NEXT_TO:
        return abs(ha - hb) == 1
    return ha != hb  # NOT_SAME_HOUSE


def _encode_clues(clues: tuple[Clue, ...] | list[Clue]) -> np.ndarray:
    rows = [
        (_KIND_CODES[c.kind], c.a_attr, c.a_val, c.b_attr, c.b_val, c.house)
        for c in clues
    ]
    return np.array(rows, dtype=np.int64).reshape(-1, 6)


def _position_table(n_houses: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """All value permutations (lexicographic) and pos[j, v] = house of value
    v under permutation j."""
    perms = list(itertools.permutations(range(n_houses)))
    pos = np.empty((len(perms), n_houses), dtype=np.int64)
    for j, perm in enumerate(perms):
        for house, value in enumerate(perm):
            pos[j, value] = house
    return perms, pos


def solve_zebra(
    n_houses: int,
    n_attrs: int,
    clues: tuple[Clue, ...] | list[Clue],
    limit: int = DEFAULT_SOLUTION_LIMIT,
) -> list[ZebraGrid]:
    """All grids satisfying every clue, in lexicographic permutation order.

    ``limit`` caps the number of returned grids (uniqueness checks pass 2).
    """
    _check_capacity(n_houses, n_attrs)
    if n_houses < 2 or n_attrs < 1:
        raise StructureError("need n_houses >= 2 and at least one attribute")
    for clue in clues:
        _check_clue_refs(clue, n_houses, n_attrs)
    perms, pos = _position_table(n_houses)
    rows = _kernels.zebra_solutions(pos, _encode_clues(clues), n_attrs, limit)
    return [ZebraGrid(tuple(perms[int(j)] for j in row)) for row in rows]


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def _clue_sort_key(clue: Clue) -> tuple:
    return (CLUE_KINDS.index(clue.kind), clue.a_attr, clue.a_val, clue.b_attr, clue.b_val, clue.house)


def _all_true_clues(grid: ZebraGrid, n_houses: int, n_attrs: int) -> list[Clue]:
    """Every clue of the six kinds that holds in ``grid``."""
    pos = [[grid.position_of(a, v) for v in range(n_houses)] for a in range(n_attrs)]
    clues: list[Clue] = []
    for a in range(n_attrs):
        for v in range(n_houses):
            clues.append(Clue(AT_POSITION, a, v, house=pos[a][v]))
    entities = [(a, v) for a in range(n_attrs) for v in range(n_houses)]
    for i, (aa, av) in enumerate(entities):
        for bb, bv in entities[i + 1 :]:
            ha, hb = pos[aa][av], pos[bb][bv]
            if ha == hb:
                if aa != bb:
                    clues.append(Clue(SAME_HOUSE, aa, av, bb, bv))
                continue
            clues.append(Clue(NOT_SAME_HOUSE, aa, av, bb, bv))
            left, right = ((aa, av), (bb, bv)) if ha < hb else ((bb, bv), (aa, av))
            clues.append(Clue(LEFT_OF, left[0], left[1], right[0], right[1]))
            if abs(ha - hb) == 1:
                clues.append(Clue(DIRECTLY_LEFT_OF, left[0], left[1], right[0], right[1]))
                clues.append(Clue(NEXT_TO, aa, av, bb, bv))
    return clues


def generate_zebra(n_houses: int, n_attrs: int, seed: int) -> ZebraPuzzle:
    """Sample a solution grid, saturate with true clues, then greedily drop
    clues while the solution stays unique. Deterministic given the seed."""
    _check_capacity(n_houses, n_attrs)
    if n_houses < 2 or n_attrs < 2:
        raise GenerationError("need at least 2 houses and 2 attributes")
    rng = random.Random(f"zebra:{n_houses}x{n_attrs}:{seed}")

    pool_names = [n for n in ATTRIBUTE_POOLS if n != "name"]
    chosen = ["name"] + rng.sample(pool_names, n_attrs - 1)
    attributes = tuple(
        Attribute(name, tuple(rng.sample(ATTRIBUTE_POOLS[name], n_houses)))
        for name in chosen
    )

    perms = [tuple(rng.sample(range(n_houses), n_houses)) for _ in range(n_attrs)]
    grid = ZebraGrid(tuple(perms))

    clues = _all_true_clues(grid, n_houses, n_attrs)
    rng.shuffle(clues)
    encoded = _encode_clues(clues).tolist()
    tables = _kernels.ZebraTables(_position_table(n_houses)[1], n_attrs, encoded)
    # Drop each clue in turn and put it back if the solution stops being
    # unique. The solution was unique before the drop and satisfies the
    # dropped clue, so another one exists exactly when some grid uses a
    # cell the drop freed; a drop that frees none needs no search. A clue
    # is compiled again to take it out or put it back rather than kept from
    # the build: at 6x6 the 1,290 pair clues' (720, 720) tables would take
    # 670 MB together.
    kept = []
    for clue, row in zip(clues, encoded):
        key, freed = tables.remove(row)
        if tables.has_solution_in(key, freed):
            tables.add([row])
            kept.append(clue)
    kept.sort(key=_clue_sort_key)

    return ZebraPuzzle(
        puzzle_id=f"zebra{n_houses}x{n_attrs}-{seed:06d}",
        n_houses=n_houses,
        attributes=attributes,
        clues=tuple(kept),
        solution=grid,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# fixed English rendering for prompts
# ---------------------------------------------------------------------------


def _ref(puzzle: ZebraPuzzle, attr: int, val: int) -> str:
    attribute = puzzle.attributes[attr]
    if attribute.name == "name":
        return attribute.values[val]
    return f"the person whose {attribute.name} is {attribute.values[val]}"


def render_clue(clue: Clue, puzzle: ZebraPuzzle) -> str:
    a = _ref(puzzle, clue.a_attr, clue.a_val)
    if clue.kind == AT_POSITION:
        text = f"{a} lives in house {clue.house + 1}."
    else:
        b = _ref(puzzle, clue.b_attr, clue.b_val)
        if clue.kind == SAME_HOUSE:
            text = f"{a} is the same person as {b}."
        elif clue.kind == LEFT_OF:
            text = f"{a} lives somewhere to the left of {b}."
        elif clue.kind == DIRECTLY_LEFT_OF:
            text = f"{a} lives directly to the left of {b}."
        elif clue.kind == NEXT_TO:
            text = f"{a} lives next to {b}."
        else:
            text = f"{a} is not the same person as {b}."
    return text[0].upper() + text[1:]
