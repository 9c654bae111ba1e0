"""Propositional statements made by knights-and-knaves characters.

A statement is a small AST over atoms of the form "character i is a
knight/knave", combined with not/and/or/implies/iff. Characters are
identified by index; display labels are the letters A, B, C, ...
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import StructureError

KNIGHT = "knight"
KNAVE = "knave"
CHARACTER_LABELS = "ABCDEFGHIJKLMNOP"

# Postfix opcodes shared with the solver kernels.
OP_ATOM = 0
OP_NOT = 1
OP_AND = 2
OP_OR = 3
OP_IMPLIES = 4
OP_IFF = 5

_BINARY_OPS = {OP_AND: "and", OP_OR: "or", OP_IMPLIES: "implies", OP_IFF: "iff"}
_OP_BY_NAME = {"and": OP_AND, "or": OP_OR, "implies": OP_IMPLIES, "iff": OP_IFF}


def character_label(index: int) -> str:
    if not 0 <= index < len(CHARACTER_LABELS):
        raise StructureError(f"character index {index} out of label range")
    return CHARACTER_LABELS[index]


@dataclass(frozen=True)
class Atom:
    character: int
    claimed: str  # KNIGHT or KNAVE

    def __post_init__(self) -> None:
        if self.claimed not in (KNIGHT, KNAVE):
            raise StructureError(f"unknown character type {self.claimed!r}")


@dataclass(frozen=True)
class Not:
    operand: "Statement"


@dataclass(frozen=True)
class BinaryOp:
    op: int  # one of OP_AND, OP_OR, OP_IMPLIES, OP_IFF
    left: "Statement"
    right: "Statement"

    def __post_init__(self) -> None:
        if self.op not in _BINARY_OPS:
            raise StructureError(f"unknown binary op code {self.op}")


Statement = Atom | Not | BinaryOp


def And(left: Statement, right: Statement) -> BinaryOp:
    return BinaryOp(OP_AND, left, right)


def Or(left: Statement, right: Statement) -> BinaryOp:
    return BinaryOp(OP_OR, left, right)


def Implies(left: Statement, right: Statement) -> BinaryOp:
    return BinaryOp(OP_IMPLIES, left, right)


def Iff(left: Statement, right: Statement) -> BinaryOp:
    return BinaryOp(OP_IFF, left, right)


def evaluate_statement(statement: Statement, assignment: tuple[bool, ...]) -> bool:
    """Classical truth value of ``statement`` under a knight-flag assignment.

    ``assignment[i]`` is True when character ``i`` is a knight. Implication
    is material, iff is the biconditional.
    """
    if isinstance(statement, Atom):
        if not 0 <= statement.character < len(assignment):
            raise StructureError(
                f"statement references character {statement.character}, "
                f"assignment covers {len(assignment)}"
            )
        is_knight = assignment[statement.character]
        return is_knight if statement.claimed == KNIGHT else not is_knight
    if isinstance(statement, Not):
        return not evaluate_statement(statement.operand, assignment)
    left = evaluate_statement(statement.left, assignment)
    right = evaluate_statement(statement.right, assignment)
    if statement.op == OP_AND:
        return left and right
    if statement.op == OP_OR:
        return left or right
    if statement.op == OP_IMPLIES:
        return (not left) or right
    return left == right


def statement_depth(statement: Statement) -> int:
    if isinstance(statement, Atom):
        return 0
    if isinstance(statement, Not):
        return 1 + statement_depth(statement.operand)
    return 1 + max(statement_depth(statement.left), statement_depth(statement.right))


def connective_count(statement: Statement) -> int:
    if isinstance(statement, Atom):
        return 0
    if isinstance(statement, Not):
        return 1 + connective_count(statement.operand)
    return 1 + connective_count(statement.left) + connective_count(statement.right)


def compile_statements(
    statements: list[Statement], n_chars: int
) -> tuple[list[tuple[int, int, int]], list[int]]:
    """Flatten statements into postfix bytecode for the solver kernels.

    Returns ``(code, bounds)`` where ``code`` is a list of ``(opcode, arg1,
    arg2)`` rows and ``bounds[c]:bounds[c+1]`` delimits the rows of
    statement ``c``. Atoms carry ``(character, claimed_knight)``.
    """
    code: list[tuple[int, int, int]] = []
    bounds = [0]

    def emit(s: Statement) -> None:
        if isinstance(s, Atom):
            if not 0 <= s.character < n_chars:
                raise StructureError(f"statement references unknown character {s.character}")
            code.append((OP_ATOM, s.character, 1 if s.claimed == KNIGHT else 0))
        elif isinstance(s, Not):
            emit(s.operand)
            code.append((OP_NOT, 0, 0))
        else:
            emit(s.left)
            emit(s.right)
            code.append((s.op, 0, 0))

    for statement in statements:
        emit(statement)
        bounds.append(len(code))
    return code, bounds


def render_statement(statement: Statement) -> str:
    """Fixed English rendering used in prompt texts."""
    if isinstance(statement, Atom):
        return f"{character_label(statement.character)} is a {statement.claimed}"
    if isinstance(statement, Not):
        inner = statement.operand
        if isinstance(inner, Atom):
            return f"{character_label(inner.character)} is not a {inner.claimed}"
        return f"it is not the case that {render_statement(inner)}"
    left = render_statement(statement.left)
    right = render_statement(statement.right)
    if statement.op == OP_AND:
        return f"{left} and {right}"
    if statement.op == OP_OR:
        return f"{left} or {right}"
    if statement.op == OP_IMPLIES:
        return f"if {left}, then {right}"
    return f"{left} if and only if {right}"


def statement_to_obj(statement: Statement) -> list:
    """JSON-friendly nested-list form, labels instead of indices."""
    if isinstance(statement, Atom):
        return ["atom", character_label(statement.character), statement.claimed]
    if isinstance(statement, Not):
        return ["not", statement_to_obj(statement.operand)]
    return [_BINARY_OPS[statement.op], statement_to_obj(statement.left), statement_to_obj(statement.right)]


def statement_from_obj(obj: list) -> Statement:
    if not isinstance(obj, list) or not obj:
        raise StructureError(f"malformed statement object: {obj!r}")
    tag = obj[0]
    if tag == "atom":
        label, claimed = obj[1], obj[2]
        index = CHARACTER_LABELS.find(str(label).upper())
        if index < 0:
            raise StructureError(f"unknown character label {label!r}")
        return Atom(index, claimed)
    if tag == "not":
        return Not(statement_from_obj(obj[1]))
    if tag in _OP_BY_NAME:
        return BinaryOp(_OP_BY_NAME[tag], statement_from_obj(obj[1]), statement_from_obj(obj[2]))
    raise StructureError(f"unknown statement tag {tag!r}")
