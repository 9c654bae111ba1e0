"""Lambda sweeps: re-run max_prob / min_entropy selection from stored
per-segment scores across a grid of lambda values, no backend calls."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, NoAnswerError
from ..selection import MAX_PROB, MIN_ENTROPY, argbest, confidence_scores
from .records import EvalRecord, candidate_pool

DEFAULT_GRID = tuple(i / 100 for i in range(100))  # 0.00, 0.01, ..., 0.99


def sweep(
    records: list[EvalRecord],
    criterion: str,
    grid: tuple[float, ...] = DEFAULT_GRID,
) -> list[tuple[float, float, int]]:
    """(lambda, accuracy, pool count) per grid point.

    Pools are selected exactly as a run selects them, with the grid value
    as both lambdas, and each pool at every grid point in one ``argbest``
    call. A pool with no scorable candidate, or with a negative entropy
    under min_entropy, counts as incorrect at every grid point, as the run
    gives it an error row.
    """
    if criterion not in (MAX_PROB, MIN_ENTROPY):
        raise ConfigError(f"sweep supports {MAX_PROB} and {MIN_ENTROPY}, not {criterion!r}")
    lambdas = np.array(grid, dtype=np.float64)
    if lambdas.size and not (0 <= lambdas.min() and lambdas.max() <= 1):
        raise ConfigError("sweep grid values must lie in [0, 1]")
    grouped: dict[tuple[str, int], list[EvalRecord]] = {}
    for record in records:
        grouped.setdefault((record.puzzle_id, record.sample), []).append(record)
    if not grouped:
        raise ConfigError("no records to sweep")
    correct = np.zeros(lambdas.shape, dtype=np.int64)
    for members in grouped.values():
        try:
            ordered, scores = confidence_scores(candidate_pool(members), criterion, lambdas)
        except (NoAnswerError, ValueError):
            continue
        chosen, _ = argbest(scores, prefer_high=criterion == MAX_PROB)
        correct += np.array([members[i].correct for i in ordered])[chosen]
    return [(lam, int(hits) / len(grouped), len(grouped)) for lam, hits in zip(grid, correct)]


def sweep_csv(rows: list[tuple[float, float, int]]) -> str:
    lines = ["lambda,accuracy,pools"]
    for lam, accuracy, pools in rows:
        lines.append(f"{lam:.2f},{accuracy:.6f},{pools}")
    return "\n".join(lines)
