"""Lambda sweeps: re-run max_prob / min_entropy selection from stored
per-segment scores across a grid of lambda values, no backend calls."""

from __future__ import annotations

from ..errors import ConfigError, NoAnswerError
from ..selection import MAX_PROB, MIN_ENTROPY
from .records import EvalRecord, candidate_pool
from .run import apply_criterion

DEFAULT_GRID = tuple(i / 100 for i in range(100))  # 0.00, 0.01, ..., 0.99


def sweep(
    records: list[EvalRecord],
    criterion: str,
    grid: tuple[float, ...] = DEFAULT_GRID,
) -> list[tuple[float, float, int]]:
    """(lambda, accuracy, pool count) per grid point.

    Pools are selected exactly as a run selects them, with the grid value
    as both lambdas. A pool with no scorable candidate counts as incorrect,
    mirroring the run-time handling.
    """
    if criterion not in (MAX_PROB, MIN_ENTROPY):
        raise ConfigError(f"sweep supports {MAX_PROB} and {MIN_ENTROPY}, not {criterion!r}")
    if any(not 0 <= lam <= 1 for lam in grid):
        raise ConfigError("sweep grid values must lie in [0, 1]")
    grouped: dict[tuple[str, int], list[EvalRecord]] = {}
    for record in records:
        grouped.setdefault((record.puzzle_id, record.sample), []).append(record)
    if not grouped:
        raise ConfigError("no records to sweep")
    pools = [(candidate_pool(members), members) for members in grouped.values()]
    rows = []
    for lam in grid:
        correct = 0
        for pool, members in pools:
            try:
                result = apply_criterion(criterion, pool, lam, lam)
            except (NoAnswerError, ValueError):
                continue
            if members[result.chosen_index].correct:
                correct += 1
        rows.append((lam, correct / len(pools), len(pools)))
    return rows


def sweep_csv(rows: list[tuple[float, float, int]]) -> str:
    lines = ["lambda,accuracy,pools"]
    for lam, accuracy, pools in rows:
        lines.append(f"{lam:.2f},{accuracy:.6f},{pools}")
    return "\n".join(lines)
