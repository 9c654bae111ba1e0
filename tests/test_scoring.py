import math
from typing import Sequence

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from logicpool.errors import DataError
from logicpool.inference import ModelResponse, TokenInfo, make_token
from logicpool.prompts import ANSWER_MARKER
from logicpool.scoring import (
    ENTROPY_TAIL_EPSILON,
    PROB_SUM_TOLERANCE,
    ConfidenceScore,
    combined_entropy,
    combined_logprob,
    score_response,
    segment,
)

# ---------------------------------------------------------------------------
# the independent reference: the scoring formulas per token, in plain Python
# ---------------------------------------------------------------------------


class EmptySegmentError(Exception):
    """The reference was asked to score an empty token segment."""


def mean_logprob(tokens: Sequence[TokenInfo]) -> float:
    if not tokens:
        raise EmptySegmentError("cannot score an empty token segment")
    return sum(t.logprob for t in tokens) / len(tokens)


def geometric_mean_prob(tokens: Sequence[TokenInfo]) -> float:
    """exp(mean logprob); stable for arbitrarily long sequences."""
    return math.exp(mean_logprob(tokens))


def combined_prob(p_rational: float, p_answer: float, lambda_p: float = 0.5) -> float:
    """p_rational^(2(1-lambda)) * p_answer^(2*lambda), in log space; lambda =
    0.5 is exactly the product and lambda in {0, 1} the square of one side."""
    if not 0 <= lambda_p <= 1:
        raise ValueError(f"lambda_p must be in [0, 1], got {lambda_p}")
    if not (0 < p_rational <= 1 and 0 < p_answer <= 1):
        raise ValueError("segment probabilities must be in (0, 1]")
    if lambda_p == 0.5:
        return p_rational * p_answer
    if lambda_p == 0.0:
        return p_rational * p_rational
    if lambda_p == 1.0:
        return p_answer * p_answer
    return math.exp(2 * (1 - lambda_p) * math.log(p_rational) + 2 * lambda_p * math.log(p_answer))


def token_entropy(token: TokenInfo) -> float:
    """Entropy over the observed alternatives plus one pseudo-outcome for
    the residual mass."""
    probs = [math.exp(lp) for _, lp in token.top_alternatives]
    total = sum(probs)
    if total > 1 + PROB_SUM_TOLERANCE:
        raise DataError(f"alternative probabilities sum to {total}, above 1")
    entropy = -sum(p * math.log(p) for p in probs if p > 0)
    residual = 1.0 - total
    if residual > ENTROPY_TAIL_EPSILON:
        entropy -= residual * math.log(residual)
    return max(entropy, 0.0)


def mean_entropy(tokens: Sequence[TokenInfo]) -> float:
    if not tokens:
        raise EmptySegmentError("cannot score an empty token segment")
    return sum(token_entropy(t) for t in tokens) / len(tokens)


def segment_tokens(tokens: Sequence[TokenInfo]) -> tuple[tuple[TokenInfo, ...], tuple[TokenInfo, ...]]:
    """(rational, answer): the answer starts at the token holding the first
    character of the last marker; without one everything is rational."""
    text = "".join(t.text for t in tokens)
    position = text.rfind(ANSWER_MARKER)
    if position < 0:
        return tuple(tokens), ()
    offset = 0
    for index, token in enumerate(tokens):
        if offset <= position < offset + len(token.text):
            return tuple(tokens[:index]), tuple(tokens[index:])
        offset += len(token.text)
    raise AssertionError("marker position maps to no token")


def reference_score(tokens: Sequence[TokenInfo]) -> tuple:
    rational, answer = segment_tokens(tokens)
    return (
        mean_logprob(rational) if rational else None,
        mean_logprob(answer) if answer else None,
        mean_entropy(rational) if rational else None,
        mean_entropy(answer) if answer else None,
    )


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


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


def scored(tokens):
    response = ModelResponse.from_tokens(tokens, "stop")
    return score_response(response, segment(response))


def split_texts(response):
    split = segment(response)
    return "".join(response.texts[:split]), "".join(response.texts[split:])


# ---------------------------------------------------------------------------
# segmentation
# ---------------------------------------------------------------------------


def test_segment_at_single_marker():
    response = response_from(
        [("I reason", -0.1), (" a lot.", -0.2), (" Answer:", -0.3), (" A: knight", -0.4)]
    )
    assert segment(response) == 2
    assert split_texts(response) == ("I reason a lot.", " Answer: A: knight")


def test_segment_splits_at_last_marker():
    response = response_from(
        [
            ("Answer: format hint.", -0.1),
            (" thinking.", -0.2),
            (" Answer:", -0.3),
            (" B: knave", -0.4),
        ]
    )
    assert segment(response) == 2
    rational, answer = split_texts(response)
    assert answer == " Answer: B: knave"
    assert rational.startswith("Answer: format hint.")


def test_segment_without_marker():
    response = response_from([("no marker here", -0.1)])
    assert segment(response) == len(response.tokens) == 1
    assert split_texts(response) == ("no marker here", "")


def test_segment_marker_inside_token():
    # marker spans into a token: the token containing its first char starts the answer
    response = response_from([("text ", -0.1), ("Ans", -0.2), ("wer: A: knight", -0.3)])
    assert segment(response) == 1
    assert split_texts(response) == ("text ", "Answer: A: knight")


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
    with pytest.raises(EmptySegmentError):
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
    assert scored((dist_token([0.7, 0.2]),)).h_rational == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.8018, abs=5e-4)


def test_entropy_rejects_excess_mass():
    with pytest.raises(DataError):
        token_entropy(dist_token([0.8, 0.3]))
    with pytest.raises(DataError, match="above 1"):
        scored((make_token("a", -0.5), dist_token([0.8, 0.3])))


def test_mass_at_the_tolerance_is_accepted_and_the_largest_mass_above_it_is_named():
    at = math.log(1 + PROB_SUM_TOLERANCE)  # whose exp is 1 + PROB_SUM_TOLERANCE exactly
    assert ConfidenceScore(at, None, 0.0, None) == score_response(
        ModelResponse(["a"], np.array([at]), np.array([[at]]), "stop"), 1
    )
    top = np.array([[-1.0, -np.inf], [math.log(0.8), math.log(0.3)], [math.log(0.6), math.log(0.45)]])
    response = ModelResponse(["a", "b", "c"], top[:, 0].copy(), top, "stop")
    with pytest.raises(DataError, match=r"^alternative probabilities sum to 1\.1\d*, above 1$"):
        score_response(response, 0)


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
    with pytest.raises(EmptySegmentError):
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
    score = score_response(response, segment(response))
    assert score.defined
    assert math.exp(score.log_p_rational) == pytest.approx(0.8, rel=1e-12)
    assert math.exp(score.log_p_answer) == pytest.approx(0.9, rel=1e-12)
    assert math.exp(combined_logprob(score.log_p_rational, score.log_p_answer, 0.5)) == pytest.approx(
        0.8 * 0.9, rel=1e-12
    )
    assert combined_entropy(score.h_rational, score.h_answer, 0.5) == pytest.approx(
        (score.h_rational + score.h_answer) / 2, rel=1e-12
    )


def test_score_response_without_marker_is_undefined():
    pairs = [("no answer block", -0.1)]
    response = response_from(pairs)
    score = score_response(response, segment(response))
    assert not score.defined
    assert score.log_p_answer is None and score.h_answer is None
    assert score.log_p_rational == pytest.approx(mean_logprob(tokens_from(pairs)), rel=1e-12)
    assert score.h_rational == pytest.approx(mean_entropy(tokens_from(pairs)), rel=1e-12)


def test_score_roundtrip():
    response = response_from([("x.", -0.2), (" Answer:", -0.1), (" y", -0.05)])
    score = score_response(response, segment(response))
    assert ConfidenceScore.from_obj(score.to_obj()) == score


def test_recombination_matches_fresh_computation():
    response = response_from([("x.", -0.4), (" Answer:", -0.1), (" y", -0.2)])
    score = score_response(response, segment(response))
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        expected = combined_prob(math.exp(score.log_p_rational), math.exp(score.log_p_answer), lam)
        got = combined_logprob(score.log_p_rational, score.log_p_answer, lam)
        assert math.exp(got) == pytest.approx(expected, rel=1e-10)


def test_empty_response_scores_undefined():
    response = ModelResponse.from_tokens((), "length")
    assert segment(response) == 0
    assert score_response(response, 0) == ConfidenceScore(None, None, None, None)


# ---------------------------------------------------------------------------
# the vectorized scorer against the reference
# ---------------------------------------------------------------------------

_TEXTS = st.sampled_from(["a", " b", "c.", "\n", ANSWER_MARKER, " Ans", "wer:", " ok", "é", ""])


@st.composite
def wire_token(draw):
    """A token with 1-6 alternatives whose masses sum to at most 1. With
    ``make_token`` the sampled token may arrive outside the alternatives
    and be added as one more, so rows are ragged."""
    weights = draw(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=6))
    mass = draw(st.floats(min_value=0.05, max_value=1.0))
    # keep away from the tail cut-off, where the two summation orders may disagree
    assume(abs((1.0 - mass) - ENTROPY_TAIL_EPSILON) > 1e-12)
    total = sum(weights)
    logprobs = sorted((math.log(w / total * mass) for w in weights), reverse=True)
    text = draw(_TEXTS)
    if draw(st.booleans()):  # the sampled token is listed
        chosen = draw(st.integers(min_value=0, max_value=len(logprobs) - 1))
        alternatives = [(text if i == chosen else f"~{i}", lp) for i, lp in enumerate(logprobs)]
        return TokenInfo(text, logprobs[chosen], tuple(alternatives))
    sampled = logprobs.pop()  # the sampled token arrives outside the listed ones
    return make_token(text, sampled, [(f"~{i}", lp) for i, lp in enumerate(logprobs)])


@given(st.lists(wire_token(), min_size=1, max_size=25))
@settings(max_examples=200, deadline=None)
def test_vectorized_score_matches_reference(tokens):
    response = ModelResponse.from_tokens(tokens, "stop")
    rational, _ = segment_tokens(tokens)
    assert segment(response) == len(rational)
    got = score_response(response, segment(response))
    expected = reference_score(tokens)
    assert (got.log_p_rational, got.log_p_answer, got.h_rational, got.h_answer) == pytest.approx(
        expected, abs=1e-12
    )


# ---------------------------------------------------------------------------
# the array scorer against the np.mean formulas, bit for bit
# ---------------------------------------------------------------------------

# logprobs whose probabilities underflow to 0 (below about -745) or nearly so
_ARRAY_LOGPROB = st.one_of(
    st.floats(min_value=-30.0, max_value=0.0), st.sampled_from([0.0, -0.0, -700.0, -745.2, -800.0, -1e300])
)


@st.composite
def scored_arrays(draw):
    """A response of 0-9 positions whose rows hold 1-K alternatives, padded
    with -inf, with mass at most 1 per row, and a split anywhere in it."""
    n, width = draw(st.integers(0, 9)), draw(st.integers(1, 6))
    top = np.full((n, width), -np.inf)
    for row in top:
        filled = draw(st.integers(1, width))
        values = sorted(draw(st.lists(_ARRAY_LOGPROB, min_size=filled, max_size=filled)), reverse=True)
        # scale the row's mass below 1 in log space, keeping its order
        mass = sum(math.exp(v) for v in values)
        shift = max(0.0, math.log(mass) + draw(st.sampled_from([0.0, 1e-3, 0.5]))) if mass else 0.0
        row[:filled] = [v - shift for v in values]
    logprobs = np.array([draw(st.sampled_from(row[row > -np.inf].tolist())) for row in top])
    response = ModelResponse(["t"] * n, logprobs, top, "stop")
    return response, draw(st.integers(0, n))


@given(scored_arrays())
@settings(max_examples=300, deadline=None)
def test_score_response_is_the_np_mean_formulas_bit_for_bit(case):
    response, split = case
    top = response.top_logprobs
    with np.errstate(all="ignore"):
        probs = np.exp(top)
        total = probs.sum(axis=1)
        assume(not (total > 1 + PROB_SUM_TOLERANCE).any())
        entropy = -np.multiply(probs, top, out=np.zeros_like(probs), where=probs > 0).sum(axis=1)
        residual = 1.0 - total
        tail = residual > ENTROPY_TAIL_EPSILON
        entropy[tail] -= residual[tail] * np.log(residual[tail])
        entropy = np.maximum(entropy, 0.0)

    def means(part):
        if not response.logprobs[part].size:
            return None, None
        return float(response.logprobs[part].mean()), float(entropy[part].mean())

    (log_p_rational, h_rational), (log_p_answer, h_answer) = means(slice(None, split)), means(slice(split, None))
    got = score_response(response, split)
    expected = ConfidenceScore(log_p_rational, log_p_answer, h_rational, h_answer)
    assert repr(got) == repr(expected)  # repr tells -0.0 from 0.0
    assert list(map(type, vars(got).values())) == list(map(type, vars(expected).values()))
