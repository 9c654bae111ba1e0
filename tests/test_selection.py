import math

import pytest
import numpy as np
from hypothesis import example, given, settings, strategies as st

from logicpool.errors import NoAnswerError, StructureError
from logicpool.harness.config import ExperimentConfig
from logicpool.harness.records import EvalRecord, SelectionRow
from logicpool.harness.run import _Runner, apply_criterion
from logicpool.prompts import Strategy
from logicpool.puzzles import generate_kk, generate_zebra
from logicpool.scoring import ConfidenceScore, combined_entropy, combined_logprob
from logicpool.selection import (
    CRITERIA,
    ORACLE,
    VOTE_PROB,
    CandidatePool,
    CanonicalAnswer,
    argbest,
    extract_answer,
    majority_vote,
    oracle,
    select_max_prob,
    select_min_entropy,
    select_pools,
    select_verifier,
    truth_answer,
    vote_plus_prob,
    vote_plus_verifier,
)
from logicpool.verifier import VerifierScore

STRATEGIES = list(Strategy)


def confidence(p_rational=0.9, p_answer=0.9, h_rational=0.1, h_answer=0.1):
    return ConfidenceScore(
        log_p_rational=math.log(p_rational),
        log_p_answer=math.log(p_answer),
        h_rational=h_rational,
        h_answer=h_answer,
    )


def undefined_confidence():
    return ConfidenceScore(
        log_p_rational=math.log(0.9),
        log_p_answer=None,
        h_rational=0.1,
        h_answer=None,
    )


def kk_answer(types):
    return CanonicalAnswer.from_kk({chr(ord("A") + i): t for i, t in enumerate(types)})


def candidate(strategy, answer, confidence=None, verifier=None):
    """A pool member: the record of one response under ``strategy``."""
    return EvalRecord(
        puzzle_id="p", family="kk", difficulty="3 Person", strategy=strategy.key, sample=0,
        request_sha256="h", response_text="", finish_reason="stop", answer=answer, correct=False,
        confidence=confidence, verifier=verifier,
    )


def make_pool(entries):
    """entries: list of dicts with answer/confidence/verifier per strategy order."""
    candidates = []
    for strategy, entry in zip(STRATEGIES, entries):
        candidates.append(
            candidate(
                strategy,
                entry.get("answer", CanonicalAnswer.unparsed("kk")),
                entry.get("confidence"),
                entry.get("verifier"),
            )
        )
    return CandidatePool(puzzle_id="p", candidates=candidates)


def vscore(mean):
    return VerifierScore(per_chunk=(mean,), mean=mean)


X = kk_answer(["knight", "knave", "knight"])
Y = kk_answer(["knave", "knight", "knight"])
Z = kk_answer(["knave", "knave", "knave"])
BAD = CanonicalAnswer.unparsed("kk")


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


def test_extract_kk_paper_format():
    puzzle = generate_kk(3, seed=0)
    text = "Some reasoning...\nAnswer:\nA: knight\nB: knave\nC: knight"
    answer = extract_answer(text, puzzle)
    assert answer.parse_ok
    assert answer == kk_answer(["knight", "knave", "knight"])


def test_extract_without_marker_fails():
    puzzle = generate_kk(3, seed=0)
    assert not extract_answer("A: knight\nB: knave\nC: knight", puzzle).parse_ok


def test_extract_is_case_insensitive():
    puzzle = generate_kk(3, seed=0)
    text = "Answer:\na: KNIGHT\nB: Knave\nc: knight"
    answer = extract_answer(text, puzzle)
    assert answer.parse_ok
    assert answer == kk_answer(["knight", "knave", "knight"])


def test_extract_uses_last_marker():
    puzzle = generate_kk(3, seed=0)
    text = "Answer:\nA: knave\nB: knave\nC: knave\nwait...\nAnswer:\nA: knight\nB: knave\nC: knight"
    assert extract_answer(text, puzzle) == kk_answer(["knight", "knave", "knight"])


def test_extract_ignores_markup_and_unknown_labels():
    puzzle = generate_kk(3, seed=0)
    text = "Answer:\n**A**: knight\n- B: knave\n> C: knight\nD: knight"
    answer = extract_answer(text, puzzle)
    assert answer.parse_ok


def test_extract_requires_every_character_once():
    puzzle = generate_kk(3, seed=0)
    assert not extract_answer("Answer:\nA: knight\nB: knave", puzzle).parse_ok
    twice = "Answer:\nA: knight\nA: knave\nB: knave\nC: knight"
    assert not extract_answer(twice, puzzle).parse_ok


def test_extract_zebra_answer():
    puzzle = generate_zebra(2, 2, seed=0)
    lines = ["Answer:"]
    for h, house in enumerate(puzzle.grid_as_dicts(), start=1):
        rendered = ", ".join(f"{attr}: {value}" for attr, value in house.items())
        lines.append(f"House {h}: {rendered}")
    answer = extract_answer("\n".join(lines), puzzle)
    assert answer.parse_ok
    assert answer == truth_answer(puzzle)


def test_extract_zebra_incomplete_grid_fails():
    puzzle = generate_zebra(2, 2, seed=0)
    houses = puzzle.grid_as_dicts()
    first = ", ".join(f"{a}: {v}" for a, v in houses[0].items())
    assert not extract_answer(f"Answer:\nHouse 1: {first}", puzzle).parse_ok


def test_extract_zebra_conflicting_binding_fails():
    puzzle = generate_zebra(2, 2, seed=0)
    houses = puzzle.grid_as_dicts()
    line1 = ", ".join(f"{a}: {v}" for a, v in houses[0].items())
    line2 = ", ".join(f"{a}: {v}" for a, v in houses[1].items())
    text = f"Answer:\nHouse 1: {line1}\nHouse 2: {line2}\nHouse 1: {line2}"
    assert not extract_answer(text, puzzle).parse_ok


def test_canonical_equality_is_order_independent():
    a = CanonicalAnswer.from_kk({"A": "knight", "B": "knave"})
    b = CanonicalAnswer.from_kk({"B": "knave", "A": "knight"})
    assert a == b


# ---------------------------------------------------------------------------
# majority vote
# ---------------------------------------------------------------------------


def test_majority_strict():
    pool = make_pool([{"answer": a} for a in (X, X, Y, X, Y)])
    result = majority_vote(pool)
    assert result.chosen_answer == X
    assert not result.tie_occurred
    assert result.tie_breaker_used is None


def test_majority_tie_falls_back_to_lowest_strategy():
    pool = make_pool([{"answer": a} for a in (X, X, Y, Y, BAD)])
    result = majority_vote(pool)
    assert result.tie_occurred
    assert result.chosen_answer == X
    assert result.chosen_index == 0


def test_majority_five_way_tie():
    answers = [X, Y, Z, kk_answer(["knight", "knight", "knight"]), kk_answer(["knave", "knight", "knave"])]
    pool = make_pool([{"answer": a} for a in answers])
    result = majority_vote(pool)
    assert result.tie_occurred
    assert result.chosen_index == 0


def test_majority_requires_a_parseable_candidate():
    pool = make_pool([{"answer": BAD} for _ in range(5)])
    with pytest.raises(NoAnswerError):
        majority_vote(pool)


# ---------------------------------------------------------------------------
# probability / entropy criteria
# ---------------------------------------------------------------------------


def table_row_pool(values, kind):
    """Pool whose combined prob (or entropy) at lambda=0.5 equals the given
    per-strategy values: probabilities use p_answer=1, entropies use equal
    segment entropies."""
    entries = []
    for value in values:
        if value is None:
            entries.append({"answer": BAD, "confidence": undefined_confidence()})
        elif kind == "prob":
            entries.append({"answer": X, "confidence": confidence(p_rational=value, p_answer=1.0)})
        else:
            entries.append({"answer": X, "confidence": confidence(h_rational=value, h_answer=value)})
    return make_pool(entries)


def test_max_prob_selects_highest_published_row():
    pool = table_row_pool([0.238, 0.209, 0.230, 0.222, 0.227], "prob")
    result = select_max_prob(pool)
    assert result.chosen_index == 0
    score = pool.candidates[0].confidence
    assert math.exp(combined_logprob(score.log_p_rational, score.log_p_answer, 0.5)) == pytest.approx(0.238)


def test_max_prob_single_candidate():
    pool = make_pool(
        [{"answer": X, "confidence": confidence()}] + [{"answer": BAD}] * 4
    )
    assert select_max_prob(pool).chosen_index == 0


def test_max_prob_tie_breaks_by_strategy_index():
    pool = table_row_pool([0.2, 0.23, 0.23, 0.1, 0.05], "prob")
    result = select_max_prob(pool)
    assert result.chosen_index == 1
    assert result.tie_occurred


def test_max_prob_excludes_undefined_scores():
    values = [0.3, None, 0.2, 0.1, 0.15]
    pool = table_row_pool(values, "prob")
    # make the undefined-score candidate parseable but still unscored
    pool.candidates[1].answer = X
    result = select_max_prob(pool)
    assert result.chosen_index == 0


def test_max_prob_with_no_eligible_candidate():
    pool = make_pool([{"answer": BAD, "confidence": confidence()} for _ in range(5)])
    with pytest.raises(NoAnswerError):
        select_max_prob(pool)


def test_min_entropy_selects_lowest_published_row():
    pool = table_row_pool([0.044, 0.110, 0.078, 0.075, 0.075], "entropy")
    assert select_min_entropy(pool).chosen_index == 0


def test_min_entropy_all_equal_takes_lowest_index():
    pool = table_row_pool([0.07] * 5, "entropy")
    result = select_min_entropy(pool)
    assert result.chosen_index == 0
    assert result.tie_occurred


def test_min_entropy_excludes_unparsed():
    pool = table_row_pool([0.9, 0.01, 0.5, 0.6, 0.7], "entropy")
    pool.candidates[1].answer = BAD  # lowest entropy but unparseable
    assert select_min_entropy(pool).chosen_index == 2


# ---------------------------------------------------------------------------
# verifier criterion
# ---------------------------------------------------------------------------


def test_verifier_argmax():
    means = [0.6, 0.9, 0.7, 0.5, 0.8]
    pool = make_pool([{"answer": X, "verifier": vscore(m)} for m in means])
    assert select_verifier(pool).chosen_index == 1


def test_verifier_equal_means_lowest_index():
    pool = make_pool([{"answer": X, "verifier": vscore(0.5)} for _ in range(5)])
    result = select_verifier(pool)
    assert result.chosen_index == 0
    assert result.tie_occurred


def test_verifier_strict_comparison_no_epsilon():
    pool = make_pool(
        [
            {"answer": X, "verifier": vscore(0.5)},
            {"answer": Y, "verifier": vscore(0.5 + 1e-9)},
        ]
        + [{"answer": BAD}] * 3
    )
    assert select_verifier(pool).chosen_index == 1


def test_verifier_missing_score_is_an_error():
    pool = make_pool([{"answer": X, "verifier": vscore(0.5)}, {"answer": Y}] + [{"answer": BAD}] * 3)
    with pytest.raises(ValueError):
        select_verifier(pool)


# ---------------------------------------------------------------------------
# hybrids
# ---------------------------------------------------------------------------


def test_hybrids_match_majority_when_no_tie():
    entries = [
        {"answer": X, "confidence": confidence(p_rational=0.5, p_answer=0.5)},
        {"answer": X, "confidence": confidence(p_rational=0.6, p_answer=0.6)},
        {"answer": X, "confidence": confidence(p_rational=0.7, p_answer=0.7)},
        {"answer": Y, "confidence": confidence(p_rational=0.99, p_answer=0.99)},
        {"answer": Y, "confidence": confidence(p_rational=0.98, p_answer=0.98)},
    ]
    pool = make_pool(entries)
    majority = majority_vote(pool)
    by_prob = vote_plus_prob(pool)
    by_verifier = vote_plus_verifier(pool)  # no tie: must not need verifier scores
    assert by_prob.chosen_answer == majority.chosen_answer == X
    assert by_verifier.chosen_answer == X
    assert not by_prob.tie_occurred and by_prob.tie_breaker_used is None
    assert not by_verifier.tie_occurred and by_verifier.tie_breaker_used is None


def test_vote_plus_prob_breaks_tie_by_combined_probability():
    probs = [0.230, 0.225, 0.240, 0.210]
    entries = [
        {"answer": X, "confidence": confidence(p_rational=probs[0], p_answer=1.0)},
        {"answer": X, "confidence": confidence(p_rational=probs[1], p_answer=1.0)},
        {"answer": Y, "confidence": confidence(p_rational=probs[2], p_answer=1.0)},
        {"answer": Y, "confidence": confidence(p_rational=probs[3], p_answer=1.0)},
        {"answer": BAD},
    ]
    pool = make_pool(entries)
    result = vote_plus_prob(pool)
    assert result.tie_occurred
    assert result.tie_breaker_used == "max_prob"
    assert result.chosen_index == 2
    assert result.chosen_answer == Y


def test_vote_plus_verifier_breaks_tie_by_mean():
    entries = [
        {"answer": X, "verifier": vscore(0.9)},
        {"answer": X, "verifier": vscore(0.85)},
        {"answer": Y, "verifier": vscore(0.4)},
        {"answer": Y, "verifier": vscore(0.35)},
        {"answer": BAD},
    ]
    pool = make_pool(entries)
    result = vote_plus_verifier(pool)
    assert result.tie_occurred
    assert result.tie_breaker_used == "verifier"
    assert result.chosen_answer == X


def test_vote_plus_verifier_requires_scores_only_on_tie():
    entries = [
        {"answer": X, "verifier": vscore(0.9)},
        {"answer": X, "verifier": vscore(0.1)},
        {"answer": Y, "verifier": None},
        {"answer": Y, "verifier": None},
        {"answer": BAD},
    ]
    pool = make_pool(entries)
    with pytest.raises(ValueError):
        vote_plus_verifier(pool)


def test_vote_tie_breaks_scan_the_tied_candidates_in_strategy_order():
    """Groups X = {0, 3} and Y = {1, 2} tie; candidates 1 and 3 share the
    best score, and 1 comes first in strategy order though its group is
    second."""
    entries = [
        {"answer": X, "confidence": confidence(0.5, 0.5), "verifier": vscore(0.5)},
        {"answer": Y, "confidence": confidence(0.9, 0.9), "verifier": vscore(0.9)},
        {"answer": Y, "confidence": confidence(0.5, 0.5), "verifier": vscore(0.5)},
        {"answer": X, "confidence": confidence(0.9, 0.9), "verifier": vscore(0.9)},
        {"answer": BAD},
    ]
    pool = make_pool(entries)
    for result in (vote_plus_prob(pool), vote_plus_verifier(pool)):
        assert result.tie_occurred and (result.chosen_index, result.chosen_answer) == (1, Y)


def test_vote_plus_prob_all_tied_unscored_falls_back():
    entries = [
        {"answer": X, "confidence": undefined_confidence()},
        {"answer": Y, "confidence": undefined_confidence()},
    ]
    pool = CandidatePool(
        puzzle_id="p",
        candidates=[candidate(STRATEGIES[i], e["answer"], e["confidence"]) for i, e in enumerate(entries)],
    )
    result = vote_plus_prob(pool)
    assert result.tie_breaker_used == "strategy_index"
    assert result.chosen_index == 0


# ---------------------------------------------------------------------------
# oracle + pool structure
# ---------------------------------------------------------------------------


def test_oracle_detects_any_correct_candidate():
    pool = make_pool([{"answer": a} for a in (Y, Y, X, Z, BAD)])
    assert oracle(pool, X) is True
    assert oracle(pool, kk_answer(["knight", "knight", "knave"])) is False


def test_oracle_all_wrong_or_unparseable():
    pool = make_pool([{"answer": BAD} for _ in range(5)])
    assert oracle(pool, X) is False


def test_pool_rejects_duplicate_strategies():
    """A pool's candidates are in strictly increasing strategy order: a
    duplicate or an out-of-order strategy is a structure error."""
    for strategies in (
        [Strategy.NO_STRATEGY, Strategy.NO_STRATEGY],
        [Strategy.CHAIN_CONSTRUCTION, Strategy.NO_STRATEGY],
        [Strategy.NO_STRATEGY, Strategy.COMPOUND_STRATEGY, Strategy.SUPPOSITION_FOLLOWING],
    ):
        with pytest.raises(StructureError, match="strictly increasing strategy order"):
            CandidatePool(puzzle_id="p", candidates=[candidate(s, X) for s in strategies])


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

answer_choice = st.sampled_from([X, Y, Z, BAD])


@st.composite
def pools(draw):
    entries = []
    for _ in STRATEGIES:
        answer = draw(answer_choice)
        # a coarse grid keeps float ties exact (strict comparisons stay stable)
        p_rational = round(draw(st.floats(min_value=0.05, max_value=1.0)), 3)
        p_answer = round(draw(st.floats(min_value=0.05, max_value=1.0)), 3)
        h_rational = round(draw(st.floats(min_value=0.0, max_value=2.0)), 3)
        h_answer = round(draw(st.floats(min_value=0.0, max_value=2.0)), 3)
        undefined = draw(st.booleans())
        conf = (
            undefined_confidence()
            if undefined
            else confidence(p_rational, p_answer, h_rational, h_answer)
        )
        verifier = vscore(draw(st.floats(min_value=0.0, max_value=1.0)))
        entries.append({"answer": answer, "confidence": conf, "verifier": verifier})
    return make_pool(entries)


@given(pools())
@settings(max_examples=200, deadline=None)
def test_unparseable_candidates_never_chosen(pool):
    for criterion in (majority_vote, select_max_prob, select_min_entropy, select_verifier,
                      vote_plus_prob, vote_plus_verifier):
        try:
            result = criterion(pool)
        except (NoAnswerError, ValueError):
            continue
        assert pool.candidates[result.chosen_index].answer.parse_ok


@given(pools())
@settings(max_examples=200, deadline=None)
def test_oracle_dominates_every_criterion(pool):
    truth = X
    for criterion in (majority_vote, select_max_prob, select_min_entropy, select_verifier,
                      vote_plus_prob, vote_plus_verifier):
        try:
            result = criterion(pool)
        except (NoAnswerError, ValueError):
            continue
        if result.chosen_answer == truth:
            assert oracle(pool, truth)


@given(pools())
@settings(max_examples=200, deadline=None)
def test_hybrids_equal_majority_without_tie(pool):
    try:
        majority = majority_vote(pool)
    except NoAnswerError:
        return
    if majority.tie_occurred:
        return
    assert vote_plus_prob(pool).chosen_answer == majority.chosen_answer
    assert vote_plus_verifier(pool).chosen_answer == majority.chosen_answer


@given(pools())
@settings(max_examples=200, deadline=None)
def test_selection_is_deterministic(pool):
    for criterion in (majority_vote, select_max_prob, select_min_entropy, select_verifier,
                      vote_plus_prob, vote_plus_verifier):
        try:
            first = criterion(pool)
            second = criterion(pool)
        except (NoAnswerError, ValueError):
            continue
        assert first == second


def _on_grid(x):
    """``x`` rounded to a multiple of 2^-20. Sums of such numbers of the
    size of these log-probs are exact in float64."""
    return round(x * 2**20) / 2**20


@given(pools(), st.floats(min_value=0.1, max_value=10.0))
@example(  # a tie in float64 that adding log(scale) unrounded broke: argmax 0 -> 1
    make_pool([{"answer": X, "confidence": confidence(0.5, 0.948)},
               {"answer": Y, "confidence": confidence(1.0, 0.474)}]),
    1.09375,
)
@settings(max_examples=100, deadline=None)
def test_max_prob_invariant_under_positive_scaling(pool, scale):
    """Scaling every candidate's segment probabilities by one positive factor
    (in log space) never changes the argmax. The log-probs and log(scale)
    are put on a 2^-20 grid first, so at lambda = 0.5 every shifted score
    is exactly its baseline + 2 log(scale), and a tie stays a tie."""
    def put_on_grid_and_shift(shift):
        for candidate in pool.candidates:
            conf = candidate.confidence
            if conf is None or not conf.defined:
                continue
            candidate.confidence = ConfidenceScore(
                log_p_rational=_on_grid(conf.log_p_rational) + shift,
                log_p_answer=_on_grid(conf.log_p_answer) + shift,
                h_rational=conf.h_rational,
                h_answer=conf.h_answer,
            )

    put_on_grid_and_shift(0.0)
    try:
        baseline = select_max_prob(pool)
    except NoAnswerError:
        return
    put_on_grid_and_shift(_on_grid(math.log(scale)))
    assert select_max_prob(pool).chosen_index == baseline.chosen_index


# ---------------------------------------------------------------------------
# the argbest kernel against the scalar loop it replaced
# ---------------------------------------------------------------------------


def reference_argbest(pool, indices, score_of, prefer_high):
    """Strict-comparison argmax/argmin in strategy order; returns the chosen
    index and whether another candidate scored exactly the same."""
    ordered = sorted(indices, key=lambda i: Strategy.from_key(pool.candidates[i].strategy))
    best = ordered[0]
    best_score = score_of(pool.candidates[best])
    tie = False
    for i in ordered[1:]:
        score = score_of(pool.candidates[i])
        if score == best_score:
            tie = True
        elif (score > best_score) if prefer_high else (score < best_score):
            best, best_score, tie = i, score, False
    return best, tie


# few distinct values, so exact ties are common
kernel_score = st.sampled_from([-math.inf, -1.0, 0.0, 0.5, 2.0, math.inf, math.nan])


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(
            st.permutations(STRATEGIES).map(lambda order: sorted(order[:n])),
            st.lists(st.lists(kernel_score, min_size=n, max_size=n), min_size=1, max_size=4),
        )
    ),
    st.booleans(),
)
@settings(max_examples=500, deadline=None)
def test_argbest_matches_the_scalar_loop(case, prefer_high):
    """One row per lambda: the kernel over all rows at once picks, row by
    row, the candidate and tie flag the scalar loop picks."""
    strategies, rows = case
    pool = CandidatePool(puzzle_id="p", candidates=[candidate(s, X) for s in strategies])
    indices = list(range(len(strategies)))
    ordered = sorted(indices, key=lambda i: strategies[i])
    scores = np.array([[row[i] for i in ordered] for row in rows])
    positions, ties = argbest(scores, prefer_high)
    for row, position, tie in zip(rows, positions, ties):
        expected = reference_argbest(
            pool, indices, lambda c: row[strategies.index(Strategy.from_key(c.strategy))], prefer_high
        )
        assert (ordered[position], bool(tie)) == expected


def reference_select(pool, criterion, lam):
    """The score criteria as the scalar loop selected them."""
    indices = [i for i, c in enumerate(pool.candidates) if c.answer.parse_ok]
    if criterion is select_verifier:
        score_of, prefer_high = (lambda c: c.verifier.mean), True
    else:
        indices = [i for i in indices if pool.candidates[i].confidence is not None
                   and pool.candidates[i].confidence.defined]
        if criterion is select_max_prob:
            score_of = lambda c: combined_logprob(c.confidence.log_p_rational, c.confidence.log_p_answer, lam)
            prefer_high = True
        else:
            score_of = lambda c: combined_entropy(c.confidence.h_rational, c.confidence.h_answer, lam)
            prefer_high = False
    if not indices:
        raise NoAnswerError("no candidate")
    return reference_argbest(pool, indices, score_of, prefer_high)


@st.composite
def shuffled_pools(draw):
    strategies = sorted(draw(st.permutations(STRATEGIES))[: draw(st.integers(min_value=1, max_value=5))])
    log_p = st.sampled_from([-math.inf, -1.0, -0.5, 0.0])
    entropy = st.sampled_from([0.0, 0.5, 1.0, -0.5])
    candidates = []
    for strategy in strategies:
        kind = draw(st.sampled_from(["scored", "scored", "none", "no_answer_segment"]))
        if kind == "none":
            conf = None
        elif kind == "no_answer_segment":
            conf = ConfidenceScore(draw(log_p), None, draw(entropy), None)
        else:
            conf = ConfidenceScore(draw(log_p), draw(log_p), draw(entropy), draw(entropy))
        mean = draw(st.sampled_from([0.25, 0.5, 0.75, math.nan]))
        candidates.append(candidate(strategy, draw(st.sampled_from([X, Y, BAD])), conf, vscore(mean)))
    return CandidatePool(puzzle_id="p", candidates=candidates)


@given(shuffled_pools(), st.sampled_from([0.0, 0.3, 0.5, 1.0]))
@settings(max_examples=500, deadline=None)
def test_score_criteria_match_the_scalar_loop(pool, lam):
    """Pools of any strategy subset, with unscored, unparseable and NaN-scored
    candidates and negative entropies: each score criterion picks what the
    scalar loop picked, or raises the same error type."""
    for criterion, args in ((select_max_prob, (lam,)), (select_min_entropy, (lam,)), (select_verifier, ())):
        try:
            expected = reference_select(pool, criterion, lam)
        except (NoAnswerError, ValueError) as exc:
            with pytest.raises(type(exc)):
                criterion(pool, *args)
            continue
        result = criterion(pool, *args)
        assert (result.chosen_index, result.tie_occurred) == expected


# ---------------------------------------------------------------------------
# the run's one selection pass against selecting each pool alone
# ---------------------------------------------------------------------------

# few distinct values, so exact ties are common; NaN, +-inf and negative
# entropies included
pass_log_p = st.sampled_from([-math.inf, -1.0, -0.5, 0.0, math.inf, math.nan])
pass_entropy = st.sampled_from([0.0, 0.5, 1.0, -0.5, math.inf, math.nan])
pass_mean = st.sampled_from([0.25, 0.5, 0.75, math.nan, math.inf, -math.inf])


@st.composite
def pass_pools(draw, puzzle_id):
    """A pool of any strategy subset: unparseable candidates, candidates
    with no confidence or an undefined answer segment, NaN and infinite
    scores, negative entropies and missing verifier scores."""
    strategies = sorted(draw(st.permutations(STRATEGIES))[: draw(st.integers(min_value=1, max_value=5))])
    candidates = []
    for strategy in strategies:
        kind = draw(st.sampled_from(["scored", "scored", "none", "no_answer_segment"]))
        if kind == "none":
            conf = None
        elif kind == "no_answer_segment":
            conf = ConfidenceScore(draw(pass_log_p), None, draw(pass_entropy), None)
        else:
            conf = ConfidenceScore(draw(pass_log_p), draw(pass_log_p), draw(pass_entropy), draw(pass_entropy))
        verifier = draw(st.one_of(st.none(), pass_mean.map(vscore)))
        candidates.append(candidate(strategy, draw(st.sampled_from([X, Y, Z, BAD])), conf, verifier))
    return CandidatePool(puzzle_id=puzzle_id, candidates=candidates)


def rows_one_pool_at_a_time(finished, config):
    """Selection rows as the run made them pool by pool, with the per-pool
    functions."""
    rows = []
    for pool, truth, shared in finished:
        for criterion in config.criteria:
            if criterion == ORACLE:
                outcome = dict(correct=oracle(pool, truth))
            else:
                try:
                    result = apply_criterion(criterion, pool, config.lambda_p, config.lambda_e)
                except (NoAnswerError, ValueError) as exc:
                    outcome = dict(correct=False, error=str(exc))
                else:
                    chosen = pool.candidates[result.chosen_index]
                    outcome = dict(
                        correct=chosen.answer == truth,
                        chosen_strategy=chosen.strategy,
                        tie_occurred=result.tie_occurred,
                        tie_breaker_used=result.tie_breaker_used,
                    )
            rows.append(SelectionRow(criterion=criterion, **outcome, **shared))
    return rows


lambda_value = st.sampled_from([0.0, 0.3, 0.5, 1.0])


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(*(pass_pools(f"p{i}") for i in range(n)))
    ),
    st.lists(st.sampled_from(CRITERIA), min_size=1, max_size=7, unique=True),
    lambda_value,
    lambda_value,
    st.sampled_from([X, Y]),
)
@settings(max_examples=250, deadline=None)
def test_the_selection_pass_makes_the_rows_of_each_pool_alone(pools, criteria, lambda_p, lambda_e, truth):
    """The run's one pass over many pools gives the selection rows, error
    strings included, that selecting each pool alone gives: in the same
    order, whatever the other pools hold."""
    config = ExperimentConfig(
        run_dir=".", corpus_path="corpus.jsonl", criteria=tuple(criteria), lambda_p=lambda_p, lambda_e=lambda_e
    )
    finished = [
        (pool, truth, dict(puzzle_id=pool.puzzle_id, family="kk", difficulty="3 Person", sample=0, n_clues=None))
        for pool in pools
    ]
    runner = _Runner(config)
    runner.finished = list(finished)
    runner._select()
    assert runner.selections == rows_one_pool_at_a_time(finished, config)


def test_vote_prob_falls_back_in_a_pass_where_other_pools_are_scored():
    """A tied pool whose tied candidates are all unscored falls back to
    strategy order, while another tied pool in the same pass is broken by
    its scores, and a pool with no parseable candidate keeps its error."""
    unscored = make_pool([
        {"answer": X, "confidence": undefined_confidence()},
        {"answer": Y},
        {"answer": BAD, "confidence": confidence(0.9, 0.9)},
    ])
    scored = make_pool([
        {"answer": X, "confidence": confidence(0.5, 0.5)},
        {"answer": Y, "confidence": confidence(0.9, 0.9)},
    ])
    empty = CandidatePool(puzzle_id="empty", candidates=[candidate(STRATEGIES[0], BAD, confidence())])
    first, second, third = select_pools(VOTE_PROB, [unscored, scored, empty])
    assert (first.chosen_index, first.tie_occurred, first.tie_breaker_used) == (0, True, "strategy_index")
    assert (second.chosen_index, second.tie_occurred, second.tie_breaker_used) == (1, True, "max_prob")
    assert isinstance(third, NoAnswerError) and str(third) == "pool for empty has no parseable candidate"
