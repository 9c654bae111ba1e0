"""Lambda sweeps: re-run max_prob / min_entropy selection from stored
per-segment scores across a grid of lambda values, no backend calls."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..prompts import STRATEGY_BY_KEY
from ..selection import MAX_PROB, MIN_ENTROPY, CandidatePool, argbest, confidence_score_rows, pack_rows
from .records import EvalRecord

DEFAULT_GRID = tuple(i / 100 for i in range(100))  # 0.00, 0.01, ..., 0.99


def sweep(
    records: list[EvalRecord],
    criterion: str,
    grid: tuple[float, ...] = DEFAULT_GRID,
) -> list[tuple[float, float, int]]:
    """(lambda, accuracy, pool count) per grid point.

    Pools are selected exactly as a run selects them, with the grid value
    as both lambdas: every pool at every grid point in one array and one
    ``argbest`` call. A pool with no scorable candidate, or with a negative
    entropy under min_entropy, counts as incorrect at every grid point, as
    the run gives it an error row.
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
    # an unknown strategy key sorts first, and the pool's order check names it
    ordered = (sorted(members, key=lambda r: STRATEGY_BY_KEY.get(r.strategy, -1)) for members in grouped.values())
    pools = [CandidatePool(members[0].puzzle_id, members) for members in ordered]
    orders, scores, errors = confidence_score_rows(pools, criterion, lambdas)
    correct = np.zeros(lambdas.shape)
    if scores.shape[-1]:
        chosen, _ = argbest(scores, prefer_high=criterion == MAX_PROB)  # pools x grid
        # each row's candidates' verdicts, in the row's order; a pool with an error has none
        verdicts = [
            [pool.candidates[i].correct for i in order] if error is None else []
            for pool, order, error in zip(pools, orders, errors)
        ]
        correct = np.take_along_axis(pack_rows(verdicts, scores.shape[-1], fill=0.0), chosen, axis=1).sum(axis=0)
    return [(lam, int(hits) / len(pools), len(pools)) for lam, hits in zip(grid, correct)]


def sweep_csv(rows: list[tuple[float, float, int]]) -> str:
    lines = ["lambda,accuracy,pools"]
    for lam, accuracy, pools in rows:
        lines.append(f"{lam:.2f},{accuracy:.6f},{pools}")
    return "\n".join(lines)
