"""Enumeration kernels behind the puzzle solvers, in numpy.

Knights-and-knaves checks every truth assignment at once against compiled
statement bytecode. Zebra solving compiles each clue into a constraint
table once and walks per-attribute permutations depth-first with forward
checking on those tables (``ZebraTables``).
"""

from __future__ import annotations

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


# ---------------------------------------------------------------------------
# knights and knaves: consistent assignment masks
# ---------------------------------------------------------------------------


def kk_consistent_masks(code: np.ndarray, bounds: np.ndarray, n_chars: int) -> np.ndarray:
    """All assignment masks (character i = bit i, knight = 1) consistent with
    every character's statement, ascending."""
    n_masks = 1 << n_chars
    masks = np.arange(n_masks, dtype=np.int64)
    knight = ((masks[:, None] >> np.arange(n_chars)) & 1).astype(bool)
    consistent = np.ones(n_masks, dtype=bool)
    for c in range(n_chars):
        stack: list[np.ndarray] = []
        for i in range(bounds[c], bounds[c + 1]):
            op, a1, a2 = int(code[i, 0]), int(code[i, 1]), int(code[i, 2])
            if op == OP_ATOM:
                stack.append(knight[:, a1] == bool(a2))
            elif op == OP_NOT:
                stack[-1] = ~stack[-1]
            else:
                b = stack.pop()
                a = stack.pop()
                if op == OP_AND:
                    stack.append(a & b)
                elif op == OP_OR:
                    stack.append(a | b)
                elif op == OP_IMPLIES:
                    stack.append(~a | b)
                else:  # OP_IFF
                    stack.append(a == b)
        consistent &= stack[0] == knight[:, c]
    return masks[consistent]


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
    int16 count of the clues forbidding each cell and the derived
    ``count == 0`` table, so adding or removing a clue touches one table.
    """

    def __init__(self, pos: np.ndarray, m_attrs: int, clues: Iterable[Sequence[int]] = ()) -> None:
        self.n_perms = pos.shape[0]
        self.houses = np.ascontiguousarray(pos.T, dtype=np.int8)  # houses[v, j] = pos[j, v]
        self.m_attrs = m_attrs
        self.count: dict[tuple[int, int], np.ndarray] = {}
        self.allowed: dict[tuple[int, int], np.ndarray] = {}
        for clue in clues:
            self.add(*self.compile(clue))

    def compile(self, clue: Sequence[int]) -> tuple[tuple[int, int], np.ndarray]:
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

    def add(self, key: tuple[int, int], forbid: np.ndarray) -> None:
        count = self.count.get(key)
        if count is None:
            count = self.count[key] = np.zeros(forbid.shape, dtype=np.int16)
            self.allowed[key] = np.empty(forbid.shape, dtype=bool)
        count += forbid
        np.equal(count, 0, out=self.allowed[key])

    def remove(self, key: tuple[int, int], forbid: np.ndarray) -> bool:
        """Take a clue out; True if some cell no other clue forbids was freed."""
        count = self.count[key]
        count -= forbid
        allowed = self.allowed[key]
        np.equal(count, 0, out=allowed)
        return bool((allowed & forbid).any())

    def solutions(self, limit: int) -> np.ndarray:
        """Permutation-index tuples (one per attribute) allowed by every
        table, in lexicographic order, truncated at ``limit`` rows.

        Attributes are assigned in order 0..m-1. Before descending into a
        candidate, every later attribute's domain is narrowed by its pair
        table, and candidates that empty one are skipped."""
        m = self.m_attrs
        everything = np.ones(self.n_perms, dtype=bool)
        root = [self.allowed.get((a, a), everything) for a in range(m)]
        later = [
            [(b, self.allowed[(a, b)]) for b in range(a + 1, m) if (a, b) in self.allowed]
            for a in range(m)
        ]
        found: list[tuple[int, ...]] = []
        assigned = [0] * m

        def descend(depth: int, domains: list[np.ndarray]) -> bool:
            if depth == m:
                found.append(tuple(assigned))
                return len(found) >= limit
            candidates = domains[depth].nonzero()[0]
            alive = np.ones(candidates.size, dtype=bool)
            narrowed = []
            for b, table in later[depth]:
                rows = table[candidates] & domains[b]
                alive &= rows.any(axis=1)
                narrowed.append((b, rows))
            for k in alive.nonzero()[0]:
                assigned[depth] = int(candidates[k])
                child = list(domains)
                for b, rows in narrowed:
                    child[b] = rows[k]
                if descend(depth + 1, child):
                    return True
            return False

        descend(0, root)
        return np.array(found, dtype=np.int64).reshape(-1, m)


def zebra_solutions(pos: np.ndarray, clues: np.ndarray, m_attrs: int, limit: int) -> np.ndarray:
    """Permutation-index tuples (one per attribute) satisfying every encoded
    clue, in lexicographic order, truncated at ``limit`` rows."""
    return ZebraTables(pos, m_attrs, clues.tolist()).solutions(limit)


def active_backend() -> str:
    """Which kernel path is live; numpy is the only one."""
    return "numpy"
