"""Puzzle (de)serialization: one JSON object per puzzle, schema version v1.

Field order is fixed so identical puzzles serialize to identical bytes:
version, family, id, seed, structure, statements|clues, solution,
difficulty. The loader accepts externally produced files in this schema and
checks the bundled solution with the solver's rules: a kk solution must be
the one consistent assignment ``solve_kk`` finds, and a zebra solution must
keep every clue (``clue_holds``, which reads the kernel's ``clue_fails``) and
be the one grid ``solve_zebra`` finds. Any object that is not a puzzle of
this schema is a StructureError.
"""

from __future__ import annotations

import json
from typing import Any

from ..errors import CapacityError, StructureError
from ..jsonl import parse_object, read_lines
from .knights import KnightsKnavesPuzzle, TruthAssignment, solve_kk
from .statements import (
    KNAVE,
    KNIGHT,
    character_label,
    statement_from_obj,
    statement_to_obj,
)
from .zebra import (
    AT_POSITION,
    Attribute,
    Clue,
    ZebraGrid,
    ZebraPuzzle,
    clue_holds,
    solve_zebra,
)

SCHEMA_VERSION = "v1"

Puzzle = KnightsKnavesPuzzle | ZebraPuzzle


def puzzle_to_obj(puzzle: Puzzle) -> dict[str, Any]:
    obj: dict[str, Any] = {"version": SCHEMA_VERSION, "family": puzzle.family}
    obj["id"] = puzzle.puzzle_id
    obj["seed"] = puzzle.seed
    if isinstance(puzzle, KnightsKnavesPuzzle):
        obj["structure"] = {"n_chars": puzzle.n_chars}
        obj["statements"] = [statement_to_obj(s) for s in puzzle.statements]
        obj["solution"] = puzzle.solution_dict()
    else:
        obj["structure"] = {
            "n_houses": puzzle.n_houses,
            "attributes": [{"name": a.name, "values": list(a.values)} for a in puzzle.attributes],
        }
        obj["clues"] = [_clue_to_obj(c, puzzle) for c in puzzle.clues]
        obj["solution"] = puzzle.grid_as_dicts()
    obj["difficulty"] = puzzle.difficulty
    return obj


def puzzle_to_json(puzzle: Puzzle) -> str:
    return json.dumps(puzzle_to_obj(puzzle), ensure_ascii=False)


def _clue_to_obj(clue: Clue, puzzle: ZebraPuzzle) -> dict[str, Any]:
    def ref(attr: int, val: int) -> list[str]:
        attribute = puzzle.attributes[attr]
        return [attribute.name, attribute.values[val]]

    obj: dict[str, Any] = {"kind": clue.kind, "a": ref(clue.a_attr, clue.a_val)}
    if clue.kind == AT_POSITION:
        obj["house"] = clue.house + 1  # 1-based in the file format
    else:
        obj["b"] = ref(clue.b_attr, clue.b_val)
    return obj


def puzzle_from_obj(obj: dict[str, Any]) -> Puzzle:
    try:
        if obj.get("version") != SCHEMA_VERSION:
            raise StructureError(f"unsupported schema version {obj.get('version')!r}")
        family = obj.get("family")
        if family == "kk":
            return _kk_from_obj(obj)
        if family == "zebra":
            return _zebra_from_obj(obj)
    except (LookupError, TypeError, ValueError, AttributeError) as exc:  # a field missing or of the wrong shape
        raise StructureError(f"malformed puzzle object ({exc!r})") from None
    raise StructureError(f"unknown puzzle family {family!r}")


def puzzle_from_json(text: str) -> Puzzle:
    return puzzle_from_obj(json.loads(text))


def read_puzzles(path: str) -> list[Puzzle]:
    """The puzzles of a JSON-lines file, one per line; a line that is not a
    puzzle is a StructureError naming the file and the line."""
    puzzles = []
    for number, _, obj in read_lines(path, parse_object, torn="read"):
        try:
            puzzles.append(puzzle_from_obj(obj))
        except StructureError as exc:
            raise StructureError(f"{path}: line {number}: {exc}") from None
    return puzzles


def _kk_from_obj(obj: dict[str, Any]) -> KnightsKnavesPuzzle:
    n_chars = int(obj["structure"]["n_chars"])
    statements = tuple(statement_from_obj(s) for s in obj["statements"])
    solution_map = {str(k).upper(): str(v).lower() for k, v in obj["solution"].items()}
    solution: TruthAssignment = tuple(
        _require_type(solution_map, character_label(i)) for i in range(n_chars)
    )
    puzzle = KnightsKnavesPuzzle(
        puzzle_id=str(obj["id"]),
        n_chars=n_chars,
        statements=statements,
        solution=solution,
        seed=obj.get("seed"),
    )
    solutions = solve_kk(statements, n_chars)
    if solution not in solutions:
        raise StructureError(f"puzzle {puzzle.puzzle_id}: bundled solution is inconsistent")
    if len(solutions) > 1:
        raise StructureError(f"puzzle {puzzle.puzzle_id}: {len(solutions)} consistent assignments, not one")
    return puzzle


def _require_type(solution_map: dict[str, str], label: str) -> str:
    value = solution_map.get(label)
    if value not in (KNIGHT, KNAVE):
        raise StructureError(f"solution for character {label} missing or not knight/knave")
    return value


def _zebra_from_obj(obj: dict[str, Any]) -> ZebraPuzzle:
    structure = obj["structure"]
    n_houses = int(structure["n_houses"])
    attributes = tuple(
        Attribute(str(a["name"]), tuple(str(v) for v in a["values"]))
        for a in structure["attributes"]
    )
    attr_index = {a.name: i for i, a in enumerate(attributes)}
    value_index = {a.name: {v: j for j, v in enumerate(a.values)} for a in attributes}

    def ref(pair: list) -> tuple[int, int]:
        name, value = str(pair[0]), str(pair[1])
        if name not in attr_index or value not in value_index[name]:
            raise StructureError(f"clue references unknown value {name}={value}")
        return attr_index[name], value_index[name][value]

    clues = []
    for c in obj["clues"]:
        a_attr, a_val = ref(c["a"])
        if c["kind"] == AT_POSITION:
            clues.append(Clue(AT_POSITION, a_attr, a_val, house=int(c["house"]) - 1))
        else:
            b_attr, b_val = ref(c["b"])
            clues.append(Clue(str(c["kind"]), a_attr, a_val, b_attr, b_val))

    perms = []
    for a, attribute in enumerate(attributes):
        row = []
        for house_obj in obj["solution"]:
            value = house_obj.get(attribute.name)
            if value not in value_index[attribute.name]:
                raise StructureError(f"solution house missing attribute {attribute.name!r}")
            row.append(value_index[attribute.name][value])
        perms.append(tuple(row))
    grid = ZebraGrid(tuple(perms))

    puzzle = ZebraPuzzle(
        puzzle_id=str(obj["id"]),
        n_houses=n_houses,
        attributes=attributes,
        clues=tuple(clues),
        solution=grid,
        seed=obj.get("seed"),
    )
    for clue in puzzle.clues:
        if not clue_holds(clue, grid):
            raise StructureError(
                f"puzzle {puzzle.puzzle_id}: bundled solution violates a {clue.kind} clue"
            )
    try:
        grids = solve_zebra(n_houses, puzzle.n_attrs, puzzle.clues, limit=2)
    except CapacityError as exc:  # too large to tell whether its solution is the only one
        raise StructureError(f"puzzle {puzzle.puzzle_id}: {exc}") from None
    if len(grids) > 1:
        raise StructureError(f"puzzle {puzzle.puzzle_id}: more than one grid satisfies its clues")
    return puzzle
