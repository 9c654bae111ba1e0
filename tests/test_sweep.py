import math

import pytest
from hypothesis import given, settings, strategies as st

from logicpool.errors import ConfigError, NoAnswerError
from logicpool.harness.records import EvalRecord
from logicpool.harness.run import apply_criterion
from logicpool.harness.sweep import DEFAULT_GRID, sweep, sweep_csv
from logicpool.prompts import Strategy
from logicpool.scoring import ConfidenceScore
from logicpool.selection import CandidatePool, CanonicalAnswer


def record(puzzle_id, strategy, correct, p_rational, p_answer, h_rational=0.1, h_answer=0.1):
    answer = CanonicalAnswer.from_kk({"A": "knight" if correct else "knave"})
    confidence = ConfidenceScore(
        log_p_rational=math.log(p_rational),
        log_p_answer=math.log(p_answer),
        h_rational=h_rational,
        h_answer=h_answer,
    )
    return EvalRecord(
        puzzle_id=puzzle_id,
        family="kk",
        difficulty="3 Person",
        strategy=strategy,
        sample=0,
        request_sha256="h",
        response_text="",
        finish_reason="stop",
        answer=answer,
        correct=correct,
        confidence=confidence,
    )


def crossover_lambda(p_r1, p_a1, p_r2, p_a2):
    """Analytic lambda where the two candidates' combined scores cross:
    2(1-l)ln(pr1/pr2) = 2 l ln(pa2/pa1)."""
    num = math.log(p_r1 / p_r2)
    return num / (num + math.log(p_a2 / p_a1))


def test_default_grid_has_100_points():
    assert len(DEFAULT_GRID) == 100
    assert DEFAULT_GRID[0] == 0.0
    assert DEFAULT_GRID[-1] == 0.99


def test_sweep_emits_one_row_per_grid_point():
    records = [
        record("p", "no_strategy", True, 0.9, 0.4),
        record("p", "chain_construction", False, 0.6, 0.7),
    ]
    rows = sweep(records, "max_prob")
    assert len(rows) == 100
    assert all(n == 1 for _, _, n in rows)


def test_sweep_is_flat_when_segments_agree():
    # p_rational == p_answer per candidate: lambda cancels
    records = [
        record("p", "no_strategy", True, 0.9, 0.9),
        record("p", "chain_construction", False, 0.6, 0.6),
    ]
    accuracies = {accuracy for _, accuracy, _ in sweep(records, "max_prob")}
    assert accuracies == {1.0}


def test_sweep_flips_at_analytic_crossover():
    p_r1, p_a1 = 0.9, 0.4   # correct candidate: strong rational, weak answer
    p_r2, p_a2 = 0.6, 0.7   # wrong candidate: the reverse
    records = [
        record("p", "no_strategy", True, p_r1, p_a1),
        record("p", "chain_construction", False, p_r2, p_a2),
    ]
    lam_star = crossover_lambda(p_r1, p_a1, p_r2, p_a2)
    assert 0.0 < lam_star < 1.0
    rows = sweep(records, "max_prob")
    for lam, accuracy, _ in rows:
        expected = 1.0 if lam < lam_star else 0.0
        assert accuracy == expected, f"at lambda={lam} (crossover {lam_star:.4f})"
    # the flip happens between adjacent grid points around lam_star
    below = max(lam for lam, _, _ in rows if lam < lam_star)
    above = min(lam for lam, _, _ in rows if lam >= lam_star)
    assert above - below == pytest.approx(0.01)


def test_sweep_min_entropy_crossover():
    # entropies cross at lambda where (1-l)h_r1 + l h_a1 = (1-l)h_r2 + l h_a2
    records = [
        record("p", "no_strategy", True, 0.9, 0.9, h_rational=0.02, h_answer=0.30),
        record("p", "chain_construction", False, 0.9, 0.9, h_rational=0.20, h_answer=0.05),
    ]
    lam_star = (0.20 - 0.02) / ((0.20 - 0.02) + (0.30 - 0.05))
    rows = sweep(records, "min_entropy")
    for lam, accuracy, _ in rows:
        expected = 1.0 if lam < lam_star else 0.0
        assert accuracy == expected


def test_sweep_counts_unscorable_pools_as_incorrect():
    scored = record("p1", "no_strategy", True, 0.9, 0.9)
    unscored = record("p2", "no_strategy", False, 0.9, 0.9)
    unscored.answer = CanonicalAnswer.unparsed("kk")
    rows = sweep([scored, unscored], "max_prob")
    assert all(accuracy == 0.5 for _, accuracy, _ in rows)


def test_sweep_counts_pools_that_raise_as_incorrect_among_pools_that_do_not():
    """One sweep over four pools: two are selected at every grid point,
    one has no scored candidate and one holds a negative entropy, which
    only min_entropy rejects. An empty grid gives no rows."""
    right = record("p1", "no_strategy", True, 0.9, 0.9, h_rational=0.1, h_answer=0.1)
    wrong = record("p1", "chain_construction", False, 0.5, 0.5, h_rational=0.5, h_answer=0.5)
    unscored = record("p2", "no_strategy", True, 0.9, 0.9)
    unscored.confidence = None
    negative = record("p3", "no_strategy", True, 0.9, 0.9, h_rational=-0.1, h_answer=0.1)
    lone_wrong = record("p4", "no_strategy", False, 0.9, 0.9)
    records = [right, wrong, unscored, negative, lone_wrong]
    grid = (0.0, 0.5, 1.0)
    assert sweep(records, "max_prob", grid) == [(lam, 2 / 4, 4) for lam in grid]
    assert sweep(records, "min_entropy", grid) == [(lam, 1 / 4, 4) for lam in grid]
    assert sweep(records, "max_prob", ()) == []


def test_sweep_rejects_other_criteria():
    with pytest.raises(ConfigError):
        sweep([record("p", "no_strategy", True, 0.9, 0.9)], "majority_vote")
    with pytest.raises(ConfigError):
        sweep([], "max_prob")


def test_sweep_csv_shape():
    records = [record("p", "no_strategy", True, 0.9, 0.9)]
    text = sweep_csv(sweep(records, "max_prob", grid=(0.0, 0.5, 0.99)))
    lines = text.splitlines()
    assert lines[0] == "lambda,accuracy,pools"
    assert lines[1] == "0.00,1.000000,1"
    assert len(lines) == 4


# ---------------------------------------------------------------------------
# the vectorized sweep against a per-lambda, per-pool loop over the run's
# selection
# ---------------------------------------------------------------------------


def reference_sweep(records, criterion, grid):
    grouped = {}
    for r in records:
        grouped.setdefault((r.puzzle_id, r.sample), []).append(r)
    pools = []
    for members in grouped.values():
        members = sorted(members, key=lambda r: Strategy.from_key(r.strategy))
        pools.append((CandidatePool(members[0].puzzle_id, members), members))
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


RIGHT = CanonicalAnswer.from_kk({"A": "knight"})
WRONG = CanonicalAnswer.from_kk({"A": "knave"})
# few distinct values, so exact ties are common; -inf makes NaN scores at
# lambda 0 and 1, and a negative entropy makes min_entropy reject the pool
log_p = st.sampled_from([-math.inf, -2.0, -0.5, -0.25, 0.0])
entropy = st.sampled_from([0.0, 0.25, 0.5, 1.5, -0.125])


@st.composite
def sweep_records(draw):
    records = []
    for puzzle in range(draw(st.integers(min_value=1, max_value=4))):
        for sample in range(draw(st.integers(min_value=1, max_value=2))):
            strategies = draw(st.permutations(list(Strategy)))
            for strategy in strategies[: draw(st.integers(min_value=1, max_value=5))]:
                answer = draw(st.sampled_from([RIGHT, WRONG, CanonicalAnswer.unparsed("kk")]))
                kind = draw(st.sampled_from(["scored", "scored", "scored", "unscored", "no_answer_segment"]))
                if kind == "unscored":
                    confidence = None
                elif kind == "no_answer_segment":
                    confidence = ConfidenceScore(draw(log_p), None, draw(entropy), None)
                else:
                    confidence = ConfidenceScore(draw(log_p), draw(log_p), draw(entropy), draw(entropy))
                records.append(EvalRecord(
                    puzzle_id=f"p{puzzle}", family="kk", difficulty="3 Person", strategy=strategy.key,
                    sample=sample, request_sha256="h", response_text="", finish_reason="stop",
                    answer=answer, correct=answer == RIGHT, confidence=confidence,
                ))
    return records


grid_value = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0))


@given(sweep_records(), st.sampled_from(["max_prob", "min_entropy"]), st.lists(grid_value, min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_sweep_matches_the_run_selection_at_every_lambda(records, criterion, grid):
    assert sweep(records, criterion, tuple(grid)) == reference_sweep(records, criterion, grid)
