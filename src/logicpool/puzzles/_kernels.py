"""Enumeration kernels behind the puzzle solvers, and the one statement of
the puzzle rules: a kk statement's truth is its bytecode run here, and a
zebra clue's truth is ``clue_fails`` (``at_position`` aside, which compares
one house). The loader and the clue generator read these rules too.

Knights-and-knaves runs statement bytecode on Python integers used as
bitsets over all 2^n truth assignments, so a solve makes no numpy call; the
generator draws its statements straight into that bytecode. Zebra solving
keeps a uint8 table per pair of attributes that counts, for each pair of
their permutations, the value pairs whose clues forbid it; each value pair
tracks the house pairs its clues forbid, so a clue whose house pairs stay
forbidden changes no table. The search walks per-attribute permutations
depth-first with forward checking on the ``count == 0`` tables
(``ZebraTables``).
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


def clue_fails(kind: int, ha: int, hb: int) -> bool:
    """Whether a two-reference clue fails with its references in houses
    ``ha`` and ``hb``: the one statement of the zebra clue rules."""
    if kind == K_SAME_HOUSE:
        return ha != hb
    if kind == K_LEFT_OF:
        return ha >= hb
    if kind == K_DIRECTLY_LEFT_OF:
        return ha + 1 != hb
    if kind == K_NEXT_TO:
        return abs(ha - hb) != 1
    return ha == hb  # K_NOT_SAME_HOUSE


@functools.cache
def _failing_house_pairs(n_houses: int) -> dict[tuple[int, bool], int]:
    """For each two-reference clue kind, the house pairs at which it fails,
    as a bitset with bit ``8 * h1 + h2`` for the pair (h1, h2); with
    ``swapped`` the pair is read as (second reference, first reference)."""
    houses = range(n_houses)
    return {
        (kind, swapped): sum(
            1 << (8 * h1 + h2)
            for h1 in houses
            for h2 in houses
            if clue_fails(kind, *((h2, h1) if swapped else (h1, h2)))
        )
        for kind in (K_SAME_HOUSE, K_LEFT_OF, K_DIRECTLY_LEFT_OF, K_NEXT_TO, K_NOT_SAME_HOUSE)
        for swapped in (False, True)
    }


@functools.cache
def holding_clues(n_houses: int) -> tuple[tuple[tuple[tuple[int, bool], ...], ...], ...]:
    """For references in houses ``ha`` and ``hb``, ``[ha][hb]`` lists the
    two-reference clue kinds that hold, each with ``swapped``: False when
    the clue holds read as (ha, hb), else True (it holds read as (hb, ha)).
    Kinds come in the order the generator lists a pair's true clues."""
    houses = range(n_houses)
    kinds = (K_SAME_HOUSE, K_NOT_SAME_HOUSE, K_LEFT_OF, K_DIRECTLY_LEFT_OF, K_NEXT_TO)
    return tuple(
        tuple(
            tuple(
                (kind, clue_fails(kind, ha, hb))
                for kind in kinds
                if not (clue_fails(kind, ha, hb) and clue_fails(kind, hb, ha))
            )
            for hb in houses
        )
        for ha in houses
    )


ValuePair = tuple[int, int, int, int]  # (attribute, value, attribute, value), first <= second
Compiled = tuple[ValuePair, Key, int]  # a clue's value pair, table key and failing house pairs


class ZebraTables:
    """The constraint tables of a zebra clue set over ``m_attrs`` attributes.

    ``pos[j, v]`` is the house of value ``v`` under permutation ``j``, with
    permutations in lexicographic order. A table key is ``(a, a)`` for a
    mask over the permutations of attribute ``a``, or ``(a, b)`` with
    ``a < b`` for a table whose rows are ``a``'s permutations and whose
    columns are ``b``'s.

    Each clue constrains one value pair: its two (attribute, value)
    references, or for ``at_position`` its one reference paired with
    itself. It forbids the house pairs at which it fails, and so the cells
    of its key that put the pair's values on one of them. Per value pair
    the tables count the clues forbidding each house-pair set (bit
    ``8 * h1 + h2`` for houses ``(h1, h2)``). A cell's uint8 ``count`` is
    the number of value pairs on its key that forbid it: at most n^2, or
    n(n + 1)/2 on ``(a, a)``, however often clues repeat. ``allowed`` is
    ``count == 0``.

    Clues are compiled once, when the tables are built, and are taken out
    and put back by index. A clue whose house pairs another clue on its
    value pair still forbids changes no table. Otherwise its key's counts
    change at the cells on the house pairs it alone forbade: each of the
    first value's permutations takes the byte of those pairs' second houses
    at its own house, masked with the second value's one-hot house bits
    (``1 << houses[v]``).

    Taking a clue out returns the cells it alone forbade. A grid that the
    drop lets in puts one of those freed cells under the clue's key, and a
    grid that does so breaks the dropped clue, so ``has_solution_in`` tells
    whether a drop adds a solution by searching only for such a grid.
    """

    def __init__(self, pos: np.ndarray, m_attrs: int, clues: Sequence[Sequence[int]] = ()) -> None:
        self.n_perms, self.n_houses = pos.shape
        self.m_attrs = m_attrs
        houses = np.ascontiguousarray(pos.T, dtype=np.uint8)  # houses[v, j] = pos[j, v]
        self._houses = list(houses)
        self._house_columns = [row[:, None] for row in houses]
        self._house_bits = list(np.left_shift(1, houses, dtype=np.uint8))  # each value's one-hot house
        self._failing = _failing_house_pairs(self.n_houses)
        self._diagonal = sum(1 << (9 * h) for h in range(self.n_houses))
        self.count: dict[Key, np.ndarray] = {}
        self.allowed: dict[Key, np.ndarray] = {}
        # value pair -> {house-pair set: how many of the clues in forbid exactly that set}
        self._forbidding: dict[ValuePair, dict[int, int]] = {}
        self._transposed: dict[Key, np.ndarray] = {}  # contiguous allowed[key].T, dropped on change
        self._plans: dict[Key | None, tuple[list[int], list[list[tuple[int, Key, bool]]]]] = {}
        # the cells an update touched, as 0/1 bytes and as a mask: the whole
        # buffer for a key of two attributes, its first row for one
        hit = np.empty((self.n_perms, self.n_perms), dtype=np.uint8)
        self._hit = (hit, hit[0])
        self._hit_mask = (hit.view(bool), hit[0].view(bool))
        self._everything = np.ones(self.n_perms, dtype=bool)
        self._clues = [self._compile(clue) for clue in clues]
        for pair, _, forbids in self._clues:
            self._put(pair, forbids)
        self._count(pos)
        for key, count in self.count.items():
            self.allowed[key] = count == 0

    def _count(self, pos: np.ndarray) -> None:
        """Build every key's counts, one pass per key over all its value pairs.

        ``forbids[k][va * n + h1, vb * n + h2]`` is 1 when the value pair
        (va, vb) on the k-th key forbids the house pair (h1, h2), and
        ``cells[j, v] = v * n + pos[j, v]`` is the row of value ``v`` under
        permutation ``j``. A cell (j, l) of a key (a, b) then counts
        ``forbids[cells[j, va], cells[l, vb]]`` over the value pairs; a
        key (a, a) counts the same with l = j.
        """
        n = self.n_houses
        pairs = [(pair, _union(sets)) for pair, sets in self._forbidding.items()]
        pairs = [(pair, forbidden) for pair, forbidden in pairs if forbidden]
        if not pairs:
            return
        keys = list(dict.fromkeys((a, b) for (a, _, b, _), _ in pairs))
        slot = {key: k for k, key in enumerate(keys)}
        rows = np.frombuffer(b"".join(f.to_bytes(n, "little") for _, f in pairs), dtype=np.uint8)
        houses = np.unpackbits(rows.reshape(-1, n, 1), axis=2, bitorder="little")[:, :, :n]  # [pair, h1, h2]
        forbids = np.zeros((len(keys), n, n, n, n), dtype=np.uint8)  # [key, va, h1, vb, h2]
        forbids[
            [slot[a, b] for (a, _, b, _), _ in pairs], [va for (_, va, _, _), _ in pairs], :,
            [vb for (_, _, _, vb), _ in pairs], :,
        ] = houses
        forbids = forbids.reshape(len(keys), n * n, n * n)
        cells = np.arange(n) * n + pos
        for key, table in zip(keys, forbids):
            if key[0] == key[1]:
                self.count[key] = table[cells[:, :, None], cells[:, None, :]].sum(axis=(1, 2), dtype=np.uint8)
            else:
                # by_column[(va, h1), l]: the pairs of value va at house h1 that forbid column l
                by_column = np.ascontiguousarray(table.T[cells].sum(axis=1, dtype=np.uint8).T)
                self.count[key] = by_column[cells].sum(axis=1, dtype=np.uint8)

    def _compile(self, clue: Sequence[int]) -> Compiled:
        """One encoded clue row -> (value pair, key, failing house pairs)."""
        kind, a, va, b, vb, house = clue
        if kind == K_AT_POSITION:
            return (a, va, a, va), (a, a), self._diagonal & ~(1 << (9 * house))
        swapped = (b, vb) < (a, va)
        if swapped:
            a, va, b, vb = b, vb, a, va
        return (a, va, b, vb), (a, b), self._failing[kind, swapped]

    def _put(self, pair: ValuePair, forbids: int) -> int:
        """Count one more clue forbidding ``forbids`` on ``pair``; return
        the house pairs that were not forbidden before."""
        sets = self._forbidding.setdefault(pair, {})
        new = forbids & ~_union(sets)
        sets[forbids] = sets.get(forbids, 0) + 1
        return new

    def _update(self, pair: ValuePair, house_pairs: int, step: int) -> bool:
        """Add ``step`` (1 or -1) to the count of every cell of the pair's
        key whose values sit on one of ``house_pairs``, and leave those
        cells in the hit buffer, which the next update overwrites.
        ``allowed`` is left to the caller. Returns whether the key is of one
        attribute, which selects the buffer."""
        a, va, b, vb = pair
        one = a == b
        rows = np.frombuffer(house_pairs.to_bytes(self.n_houses, "little"), dtype=np.uint8)
        # per permutation of a: the houses b's value may not take
        first = rows[self._houses[va] if one else self._house_columns[va]]
        hit = self._hit[one]
        np.bitwise_and(first, self._house_bits[vb], out=hit)
        np.not_equal(hit, 0, out=self._hit_mask[one])
        count = self.count.get((a, b))
        if count is None:
            count = self.count[a, b] = np.zeros(hit.shape, dtype=np.uint8)
        (np.add if step > 0 else np.subtract)(count, hit, out=count)
        return one

    def remove(self, index: int) -> tuple[Key, np.ndarray | None]:
        """Take clue ``index`` out; return its key and the cells it alone
        forbade, now allowed, or None when it frees no cell. The cells are a
        buffer that the next ``remove`` or ``restore`` overwrites."""
        pair, key, forbids = self._clues[index]
        sets = self._forbidding[pair]
        sets[forbids] -= 1
        if not sets[forbids]:
            del sets[forbids]
        lost = forbids & ~_union(sets)
        if not lost:
            return key, None
        one = self._update(pair, lost, -1)
        freed = np.greater(self._hit[one], self.count[key], out=self._hit_mask[one])  # hit, now with no count
        if not freed.any():
            return key, None
        np.logical_or(self.allowed[key], freed, out=self.allowed[key])
        self._transposed.pop(key, None)
        return key, freed

    def restore(self, index: int) -> None:
        """Put clue ``index`` back after ``remove(index)``."""
        pair, key, forbids = self._clues[index]
        new = self._put(pair, forbids)
        if new:
            one = self._update(pair, new, 1)
            np.greater(self.allowed[key], self._hit_mask[one], out=self.allowed[key])  # allowed and not hit
            self._transposed.pop(key, None)

    def _root(self) -> list[np.ndarray]:
        return [self.allowed.get((a, a), self._everything) for a in range(self.m_attrs)]

    def solutions(self, limit: int) -> np.ndarray:
        """Permutation-index tuples (one per attribute) allowed by every
        table, in lexicographic order, truncated at ``limit`` rows."""
        found = self._search(None, self._root(), limit)
        return np.array(found, dtype=np.int64).reshape(-1, self.m_attrs)

    def has_solution_in(self, key: Key, cells: np.ndarray | None) -> bool:
        """Whether some grid allowed by every table has its ``key`` cell in
        ``cells``, a subset of ``allowed[key]`` (None for no cell).

        The search puts ``cells`` in place of the key's table (or root
        domain), assigns the key's attributes first and stops at the first
        grid. A first attribute's candidate whose row holds no cell is
        dropped by the first narrowing, which reads ``cells``.
        """
        if cells is None:
            return False
        root = self._root()
        if key[0] == key[1]:
            root[key[0]] = cells
        return bool(self._search(key, root, 1, cells))

    def _plan(self, key: Key | None) -> tuple[list[int], list[list[tuple[int, Key, bool]]]]:
        """The assignment order of a search (ascending for ``None``, else
        ``key``'s attributes first) and, per depth, each later attribute
        with the key of the table that narrows it and whether that table is
        read transposed."""
        plan = self._plans.get(key)
        if plan is None:
            order = list(range(self.m_attrs))
            if key is not None:
                order = sorted(set(key)) + [x for x in order if x not in key]
            later = [
                [(b, (min(a, b), max(a, b)), a > b) for b in order[depth + 1 :]]
                for depth, a in enumerate(order)
            ]
            plan = self._plans[key] = (order, later)
        return plan

    def _transpose(self, key: Key) -> np.ndarray:
        table = self._transposed.get(key)
        if table is None:
            table = self._transposed[key] = np.ascontiguousarray(self.allowed[key].T)
        return table

    def _search(
        self, key: Key | None, root: list[np.ndarray], limit: int, cells: np.ndarray | None = None
    ) -> list[tuple[int, ...]]:
        """Permutation-index tuples (one per attribute) within the ``root``
        domains and allowed by every pair table, with ``cells`` in place of
        ``key``'s, truncated at ``limit``, in the order ``_plan(key)``
        assigns; with ``key`` None the tuples come out in lexicographic
        order.

        Before descending, every later attribute's domain is narrowed by its
        pair table for each candidate, and a candidate that empties one is
        dropped before the next table is read."""
        order, plan = self._plan(key)
        tables = self.allowed
        later: list[list[tuple[int, np.ndarray]] | None] = [None] * len(order)  # read on first reach
        found: list[tuple[int, ...]] = []
        assigned = [0] * self.m_attrs

        def descend(depth: int, domains: list[np.ndarray]) -> bool:
            if depth == len(order):
                found.append(tuple(assigned))
                return len(found) >= limit
            narrowing = later[depth]
            if narrowing is None:
                narrowing = later[depth] = [
                    (b, cells if k == key else self._transpose(k) if transposed else tables[k])
                    for b, k, transposed in plan[depth]
                    if k in tables
                ]
            candidates = domains[order[depth]].nonzero()[0]
            narrowed = []
            for b, table in narrowing:
                rows = table[candidates]  # a copy, so narrowing it in place is safe
                rows &= domains[b]
                alive = np.logical_or.reduce(rows, axis=1)
                if not alive.all():
                    candidates = candidates[alive]
                    if not len(candidates):
                        return False
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


def _union(sets: Iterable[int]) -> int:
    union = 0
    for house_pairs in sets:
        union |= house_pairs
    return union


def zebra_solutions(pos: np.ndarray, clues: np.ndarray, m_attrs: int, limit: int) -> np.ndarray:
    """Permutation-index tuples (one per attribute) satisfying every encoded
    clue, in lexicographic order, truncated at ``limit`` rows."""
    return ZebraTables(pos, m_attrs, clues.tolist()).solutions(limit)


def active_backend() -> str:
    """Which kernel path is live; numpy is the only one."""
    return "numpy"
