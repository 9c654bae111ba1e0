import math

import pytest
from hypothesis import given, settings, strategies as st

from logicpool.errors import DataError, UndefinedScoreError
from logicpool.inference import ModelResponse, TokenInfo, make_token
from logicpool.scoring import (
    combined_entropy,
    combined_prob,
    geometric_mean_prob,
    mean_entropy,
    score_response,
    segment,
    token_entropy,
)


def tokens_from(text_logprob_pairs):
    return tuple(make_token(text, lp) for text, lp in text_logprob_pairs)


def response_from(text_logprob_pairs, finish_reason="stop"):
    return ModelResponse.from_tokens(tokens_from(text_logprob_pairs), finish_reason)


def dist_token(probabilities):
    """A token whose alternatives carry the given probability masses."""
    alternatives = sorted(
        ((f"t{i}", math.log(p)) for i, p in enumerate(probabilities)), key=lambda x: -x[1]
    )
    return TokenInfo(alternatives[0][0], alternatives[0][1], tuple(alternatives))


# ---------------------------------------------------------------------------
# segmentation
# ---------------------------------------------------------------------------


def test_segment_at_single_marker():
    response = response_from(
        [("I reason", -0.1), (" a lot.", -0.2), (" Answer:", -0.3), (" A: knight", -0.4)]
    )
    segmented = segment(response)
    assert segmented.marker_found
    assert segmented.rational_text == "I reason a lot."
    assert segmented.answer_text == " Answer: A: knight"


def test_segment_splits_at_last_marker():
    response = response_from(
        [
            ("Answer: format hint.", -0.1),
            (" thinking.", -0.2),
            (" Answer:", -0.3),
            (" B: knave", -0.4),
        ]
    )
    segmented = segment(response)
    assert segmented.marker_found
    assert segmented.answer_text == " Answer: B: knave"
    assert segmented.rational_text.startswith("Answer: format hint.")


def test_segment_without_marker():
    response = response_from([("no marker here", -0.1)])
    segmented = segment(response)
    assert not segmented.marker_found
    assert segmented.answer_tokens == ()
    assert len(segmented.rational_tokens) == 1


def test_segment_marker_inside_token():
    # marker spans into a token: the token containing its first char starts the answer
    response = response_from([("text ", -0.1), ("Ans", -0.2), ("wer: A: knight", -0.3)])
    segmented = segment(response)
    assert segmented.marker_found
    assert segmented.answer_text == "Answer: A: knight"


# ---------------------------------------------------------------------------
# geometric mean
# ---------------------------------------------------------------------------


def test_geometric_mean_two_tokens():
    tokens = tokens_from([("a", math.log(0.25)), ("b", 0.0)])
    assert geometric_mean_prob(tokens) == pytest.approx(0.5, abs=1e-12)


def test_geometric_mean_identity():
    tokens = tokens_from([("a", math.log(0.9))])
    assert geometric_mean_prob(tokens) == pytest.approx(0.9, abs=1e-12)


def test_geometric_mean_long_sequence_no_underflow():
    tokens = tokens_from([(f"t{i}", math.log(0.99)) for i in range(1000)])
    value = geometric_mean_prob(tokens)
    assert abs(value - 0.99) < 1e-12
    naive = 1.0
    for _ in range(1000):
        naive *= 0.99
    assert value**1000 == pytest.approx(naive, rel=1e-9)


def test_geometric_mean_empty_segment():
    with pytest.raises(UndefinedScoreError):
        geometric_mean_prob(())


@given(st.lists(st.floats(min_value=-5, max_value=0), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_geometric_mean_permutation_and_duplication_invariant(logprobs):
    tokens = tokens_from([(f"t{i}", lp) for i, lp in enumerate(logprobs)])
    reversed_tokens = tuple(reversed(tokens))
    assert geometric_mean_prob(tokens) == pytest.approx(
        geometric_mean_prob(reversed_tokens), rel=1e-12
    )
    assert geometric_mean_prob(tokens + tokens) == pytest.approx(
        geometric_mean_prob(tokens), rel=1e-12
    )


def test_log_space_matches_direct_product_small():
    logprobs = [math.log(p) for p in (0.9, 0.5, 0.7, 0.99, 0.3)]
    tokens = tokens_from([(f"t{i}", lp) for i, lp in enumerate(logprobs)])
    direct = math.prod(math.exp(lp) for lp in logprobs) ** (1 / len(logprobs))
    assert abs(geometric_mean_prob(tokens) - direct) < 1e-12


# ---------------------------------------------------------------------------
# combined probability
# ---------------------------------------------------------------------------


def test_combined_prob_midpoint_is_plain_product():
    assert combined_prob(0.9, 0.8, 0.5) == 0.9 * 0.8


def test_combined_prob_endpoints_square_one_side():
    assert combined_prob(0.9, 0.8, 1.0) == pytest.approx(0.64, abs=1e-12)
    assert combined_prob(0.9, 0.8, 0.0) == pytest.approx(0.81, abs=1e-12)


def test_combined_prob_validation():
    with pytest.raises(ValueError):
        combined_prob(0.9, 0.8, 1.5)
    with pytest.raises(ValueError):
        combined_prob(0.0, 0.8, 0.5)


@given(
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=150, deadline=None)
def test_combined_prob_monotone_in_each_argument(p1, p2, q, lam):
    low, high = sorted((p1, p2))
    assert combined_prob(low, q, lam) <= combined_prob(high, q, lam) + 1e-15
    assert combined_prob(q, low, lam) <= combined_prob(q, high, lam) + 1e-15


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def test_entropy_of_deterministic_distribution_is_zero():
    assert token_entropy(dist_token([1.0])) == 0.0


def test_entropy_uniform_binary():
    assert token_entropy(dist_token([0.5, 0.5])) == pytest.approx(math.log(2), abs=1e-12)


def test_entropy_tail_rule():
    expected = -(0.7 * math.log(0.7) + 0.2 * math.log(0.2) + 0.1 * math.log(0.1))
    assert token_entropy(dist_token([0.7, 0.2])) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.8018, abs=5e-4)


def test_entropy_tail_can_be_disabled():
    without_tail = -(0.7 * math.log(0.7) + 0.2 * math.log(0.2))
    assert token_entropy(dist_token([0.7, 0.2]), tail=False) == pytest.approx(
        without_tail, abs=1e-12
    )


def test_entropy_rejects_excess_mass():
    with pytest.raises(DataError):
        token_entropy(dist_token([0.8, 0.3]))


@given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_entropy_nonnegative_and_zero_iff_point_mass(weights):
    total = sum(weights)
    probabilities = [w / total for w in weights]
    entropy = token_entropy(dist_token(probabilities))
    assert entropy >= 0.0
    if len(probabilities) == 1:
        assert entropy == 0.0
    elif min(probabilities) > 1e-9:
        assert entropy > 0.0


@given(
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=6),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=100, deadline=None)
def test_truncated_entropy_lower_bounds_full_entropy(weights, keep):
    """Dropping outcomes into the single tail bucket can only lower entropy."""
    total = sum(weights)
    probabilities = sorted((w / total for w in weights), reverse=True)
    keep = min(keep, len(probabilities))
    full = token_entropy(dist_token(probabilities))
    truncated = token_entropy(dist_token(probabilities[:keep]))
    assert truncated <= full + 1e-9


def test_mean_entropy_and_combination():
    deterministic = [dist_token([1.0]) for _ in range(4)]
    assert mean_entropy(deterministic) == 0.0
    assert combined_entropy(0.0, 0.0) == 0.0
    assert combined_entropy(0.08, 0.04, 0.5) == pytest.approx(0.06, abs=1e-15)
    assert combined_entropy(0.08, 0.04, 1.0) == pytest.approx(0.04, abs=1e-15)
    assert combined_entropy(0.08, 0.04, 0.0) == pytest.approx(0.08, abs=1e-15)
    with pytest.raises(UndefinedScoreError):
        mean_entropy(())
    with pytest.raises(ValueError):
        combined_entropy(0.1, 0.1, -0.2)


# ---------------------------------------------------------------------------
# ConfidenceScore assembly
# ---------------------------------------------------------------------------


def test_score_response_full():
    response = response_from(
        [("thinking.", math.log(0.8)), (" Answer:", math.log(0.9)), (" A: knight", math.log(0.9))]
    )
    score = score_response(segment(response))
    assert score.defined
    assert math.exp(score.log_p_rational) == pytest.approx(0.8, rel=1e-12)
    assert math.exp(score.log_p_answer) == pytest.approx(0.9, rel=1e-12)
    assert math.exp(score.recombined_logprob(0.5)) == pytest.approx(0.8 * 0.9, rel=1e-12)
    assert score.recombined_entropy(0.5) == pytest.approx((score.h_rational + score.h_answer) / 2, rel=1e-12)


def test_score_response_without_marker_is_undefined():
    response = response_from([("no answer block", -0.1)])
    score = score_response(segment(response))
    assert not score.defined
    assert score.log_p_answer is None and score.h_answer is None
    with pytest.raises(UndefinedScoreError):
        score.recombined_logprob(0.5)
    with pytest.raises(UndefinedScoreError):
        score.recombined_entropy(0.5)


def test_score_roundtrip():
    response = response_from([("x.", -0.2), (" Answer:", -0.1), (" y", -0.05)])
    score = score_response(segment(response))
    from logicpool.scoring import ConfidenceScore

    assert ConfidenceScore.from_obj(score.to_obj()) == score


def test_recombination_matches_fresh_computation():
    response = response_from([("x.", -0.4), (" Answer:", -0.1), (" y", -0.2)])
    score = score_response(segment(response))
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        expected = combined_prob(math.exp(score.log_p_rational), math.exp(score.log_p_answer), lam)
        assert math.exp(score.recombined_logprob(lam)) == pytest.approx(expected, rel=1e-10)
