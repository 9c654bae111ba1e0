"""Enumeration kernels behind the puzzle solvers.

Knights-and-knaves runs compiled statement bytecode on Python integers used
as bitsets over all 2^n truth assignments, so a solve makes no numpy call.
Zebra solving compiles each clue into a numpy constraint table and walks
per-attribute permutations depth-first with forward checking on those
tables (``ZebraTables``).
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

import numpy as np

from .statements import OP_AND, OP_ATOM, OP_IFF, OP_IMPLIES, OP_NOT, OP_OR

# Zebra clue kind codes (mirrored by puzzles.zebra).
K_SAME_HOUSE = 0
K_AT_POSITION = 1
K_LEFT_OF = 2
K_DIRECTLY_LEFT_OF = 3
K_NEXT_TO = 4
K_NOT_SAME_HOUSE = 5

Key = tuple[int, int]


# ---------------------------------------------------------------------------
# knights and knaves: consistent assignment masks
# ---------------------------------------------------------------------------


@functools.cache
def _kk_columns(n_chars: int) -> tuple[int, tuple[int, ...]]:
    """The bitset of all 2^n assignments, and each character's knight
    column: bit ``m`` of column ``i`` is bit ``i`` of assignment ``m``."""
    everything = (1 << (1 << n_chars)) - 1
    columns = []
    for i in range(n_chars):
        run = 1 << i  # 2^i knaves, then 2^i knights, repeated
        block = ((1 << run) - 1) << run
        columns.append(block * (everything // ((1 << (2 * run)) - 1)))
    return everything, tuple(columns)


def kk_consistent_masks(code: Sequence[Sequence[int]], bounds: Sequence[int], n_chars: int) -> list[int]:
    """All assignment masks (character i = bit i, knight = 1) consistent with
    every character's statement, ascending."""
    everything, columns = _kk_columns(n_chars)
    consistent = everything
    for c in range(n_chars):
        stack: list[int] = []
        for op, a1, a2 in code[bounds[c] : bounds[c + 1]]:
            if op == OP_ATOM:
                stack.append(columns[a1] if a2 else columns[a1] ^ everything)
            elif op == OP_NOT:
                stack[-1] ^= everything
            else:
                b = stack.pop()
                a = stack.pop()
                if op == OP_AND:
                    stack.append(a & b)
                elif op == OP_OR:
                    stack.append(a | b)
                elif op == OP_IMPLIES:
                    stack.append((a ^ everything) | b)
                else:  # OP_IFF
                    stack.append(a ^ b ^ everything)
        consistent &= stack[0] ^ columns[c] ^ everything
        if not consistent:
            return []
    return [m for m, bit in enumerate(bin(consistent)[:1:-1]) if bit == "1"]


# ---------------------------------------------------------------------------
# zebra: compiled clue tables and depth-first search
# ---------------------------------------------------------------------------


def _violates(kind: int, ha: np.ndarray, hb: np.ndarray) -> np.ndarray:
    """Where a two-reference clue fails, given the houses of its references."""
    if kind == K_SAME_HOUSE:
        return ha != hb
    if kind == K_LEFT_OF:
        return ha >= hb
    if kind == K_DIRECTLY_LEFT_OF:
        return ha + 1 != hb
    if kind == K_NEXT_TO:
        return np.abs(ha - hb) != 1
    return ha == hb  # K_NOT_SAME_HOUSE


class ZebraTables:
    """The constraint tables of a zebra clue set over ``m_attrs`` attributes.

    ``pos[j, v]`` is the house of value ``v`` under permutation ``j``, with
    permutations in lexicographic order. A clue compiles to the cells it
    forbids under a key: ``(a, a)`` for a mask over the permutations of
    attribute ``a``, ``(a, b)`` with ``a < b`` for a table whose rows are
    ``a``'s permutations and whose columns are ``b``'s. Each key keeps an
    int16 count of the clues forbidding each cell, summed in place, and the
    ``count == 0`` table derived from it once per ``add`` or ``remove``.

    Taking a clue out returns the cells it alone forbade. A grid that the
    drop lets in puts one of those freed cells under the clue's key, and a
    grid that does so breaks the dropped clue, so ``has_solution_in`` tells
    whether a drop adds a solution by searching only for such a grid.
    """

    def __init__(self, pos: np.ndarray, m_attrs: int, clues: Iterable[Sequence[int]] = ()) -> None:
        self.n_perms = pos.shape[0]
        self.houses = np.ascontiguousarray(pos.T, dtype=np.int8)  # houses[v, j] = pos[j, v]
        self.m_attrs = m_attrs
        self.count: dict[Key, np.ndarray] = {}
        self.allowed: dict[Key, np.ndarray] = {}
        self.add(clues)

    def compile(self, clue: Sequence[int]) -> tuple[Key, np.ndarray]:
        """One encoded clue row -> (key, boolean table of the cells it forbids)."""
        kind, a_attr, a_val, b_attr, b_val, house = clue
        ha = self.houses[a_val]
        if kind == K_AT_POSITION:
            return (a_attr, a_attr), ha != house
        hb = self.houses[b_val]
        if a_attr == b_attr:
            return (a_attr, a_attr), _violates(kind, ha, hb)
        if a_attr < b_attr:
            return (a_attr, b_attr), _violates(kind, ha[:, None], hb[None, :])
        return (b_attr, a_attr), _violates(kind, ha[None, :], hb[:, None])

    def add(self, clues: Iterable[Sequence[int]]) -> None:
        """Put encoded clues in: sum each one's forbidden cells into its
        key's count, then derive every touched key's allowed table once."""
        touched: set[Key] = set()
        for clue in clues:
            key, forbid = self.compile(clue)
            count = self.count.get(key)
            if count is None:
                self.count[key] = forbid.astype(np.int16)
            else:
                count += forbid
            touched.add(key)
        for key in touched:
            self.allowed[key] = self.count[key] == 0

    def remove(self, clue: Sequence[int]) -> tuple[Key, np.ndarray]:
        """Take an encoded clue out; return its key and the cells it alone
        forbade, now allowed."""
        key, forbid = self.compile(clue)
        count = self.count[key]
        count -= forbid
        allowed = self.allowed[key]
        np.equal(count, 0, out=allowed)
        return key, allowed & forbid

    def _root(self) -> list[np.ndarray]:
        everything = np.ones(self.n_perms, dtype=bool)
        return [self.allowed.get((a, a), everything) for a in range(self.m_attrs)]

    def solutions(self, limit: int) -> np.ndarray:
        """Permutation-index tuples (one per attribute) allowed by every
        table, in lexicographic order, truncated at ``limit`` rows."""
        found = self._search(range(self.m_attrs), self._root(), self.allowed, limit)
        return np.array(found, dtype=np.int64).reshape(-1, self.m_attrs)

    def has_solution_in(self, key: Key, cells: np.ndarray) -> bool:
        """Whether some grid allowed by every table has its ``key`` cell in
        ``cells``, a subset of ``allowed[key]``.

        The search puts ``cells`` in place of the key's table, cuts the root
        domains of the key's attributes to the rows and columns holding one
        of them, assigns those attributes first and stops at the first grid.
        """
        if not cells.any():
            return False
        a, b = key
        root = self._root()
        tables = self.allowed
        if a == b:
            root[a] = cells
        else:
            root[a] = root[a] & cells.any(axis=1)
            root[b] = root[b] & cells.any(axis=0)
            tables = {**tables, key: cells}
        first = [a] if a == b else [a, b]
        order = first + [x for x in range(self.m_attrs) if x not in key]
        return bool(self._search(order, root, tables, 1))

    def _search(
        self, order: Sequence[int], root: list[np.ndarray], tables: dict[Key, np.ndarray], limit: int
    ) -> list[tuple[int, ...]]:
        """Permutation-index tuples (one per attribute) within the ``root``
        domains and allowed by every pair table in ``tables``, truncated at
        ``limit``. Attributes are assigned in ``order``; with ascending order
        the tuples come out in lexicographic order.

        Before descending, every later attribute's domain is narrowed by its
        pair table for each candidate, and a candidate that empties one is
        dropped before the next table is read."""
        later: list[list[tuple[int, np.ndarray]]] = []
        for depth, a in enumerate(order):
            narrowing = []
            for b in order[depth + 1 :]:
                table = tables.get((min(a, b), max(a, b)))
                if table is not None:
                    narrowing.append((b, table if a < b else table.T))
            later.append(narrowing)
        found: list[tuple[int, ...]] = []
        assigned = [0] * self.m_attrs

        def descend(depth: int, domains: list[np.ndarray]) -> bool:
            if depth == len(order):
                found.append(tuple(assigned))
                return len(found) >= limit
            candidates = domains[order[depth]].nonzero()[0]
            narrowed = []
            for b, table in later[depth]:
                rows = table[candidates]  # a copy, so narrowing it in place is safe
                rows &= domains[b]
                alive = rows.any(axis=1)
                if not alive.all():
                    candidates = candidates[alive]
                    narrowed = [(c, r[alive]) for c, r in narrowed]
                    rows = rows[alive]
                narrowed.append((b, rows))
            for k, candidate in enumerate(candidates.tolist()):
                assigned[order[depth]] = candidate
                child = list(domains)
                for b, rows in narrowed:
                    child[b] = rows[k]
                if descend(depth + 1, child):
                    return True
            return False

        descend(0, root)
        del descend  # the closure refers to itself; free the tables it holds now, not at the next gc
        return found


def zebra_solutions(pos: np.ndarray, clues: np.ndarray, m_attrs: int, limit: int) -> np.ndarray:
    """Permutation-index tuples (one per attribute) satisfying every encoded
    clue, in lexicographic order, truncated at ``limit`` rows."""
    return ZebraTables(pos, m_attrs, clues.tolist()).solutions(limit)


def active_backend() -> str:
    """Which kernel path is live; numpy is the only one."""
    return "numpy"
