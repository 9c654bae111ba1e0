import pytest
from hypothesis import given, settings, strategies as st

from logicpool.errors import BackendError
from logicpool.inference import MockBackend
from logicpool.verifier import build_verification_prompt, chunk, verify


def sentence(words, index, terminal="."):
    return " ".join(f"w{index}_{j}" for j in range(words - 1)) + f" end{index}{terminal}"


def words_of(text):
    return text.split()


def test_short_single_sentence_is_one_chunk():
    text = sentence(50, 0)
    chunked = chunk(text)
    assert len(chunked.chunks) == 1
    assert chunked.chunks[0] == " ".join(words_of(text))


def test_ten_thirty_word_sentences_pack_120_120_60():
    text = " ".join(sentence(30, i) for i in range(10))
    chunked = chunk(text)
    sizes = [len(words_of(c)) for c in chunked.chunks]
    assert sizes == [120, 120, 60]
    # reconstruction invariant: single-space join restores the word sequence
    assert " ".join(chunked.chunks).split() == words_of(text)


def test_no_punctuation_hard_splits_once():
    text = " ".join(f"w{i}" for i in range(250))
    chunked = chunk(text)
    sizes = [len(words_of(c)) for c in chunked.chunks]
    assert sizes == [100, 150]


def test_boundary_exactly_at_target():
    text = " ".join(sentence(50, i) for i in range(4))  # sentences end at words 50, 100, ...
    chunked = chunk(text)
    sizes = [len(words_of(c)) for c in chunked.chunks]
    assert sizes == [100, 100]


def test_trailing_fragment_without_punctuation():
    text = sentence(120, 0) + " " + " ".join(f"x{i}" for i in range(130))
    chunked = chunk(text)
    sizes = [len(words_of(c)) for c in chunked.chunks]
    # first chunk extends to the sentence end at word 120; the fragment has
    # no boundary, so it hard-splits at 100 and keeps the rest whole
    assert sizes == [120, 100, 30]


def test_question_and_exclamation_are_boundaries():
    text = sentence(60, 0, terminal="!") + " " + sentence(60, 1, terminal="?") + " " + sentence(20, 2)
    chunked = chunk(text)
    sizes = [len(words_of(c)) for c in chunked.chunks]
    assert sizes == [120, 20]


def test_754_word_answer_lands_near_reported_chunk_scale():
    # ~10-word sentences: boundaries align with the target, 7x100 + 54
    sentences = [sentence(10, i) for i in range(75)]
    text = " ".join(sentences) + " tail words four here."
    words = text.split()
    assert len(words) == 754
    chunked = chunk(text)
    assert len(chunked.chunks) == 8


def test_chunk_rejects_empty_text():
    with pytest.raises(ValueError):
        chunk("   ")


def test_custom_target_words():
    text = " ".join(sentence(5, i) for i in range(4))
    chunked = chunk(text, target_words=10)
    assert [len(words_of(c)) for c in chunked.chunks] == [10, 10]


@given(
    st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=40),
    st.booleans(),
    st.sampled_from([10, 25, 100]),
)
@settings(max_examples=200, deadline=None)
def test_chunk_size_invariants(run_lengths, terminate_last, target):
    """Every chunk but the last holds >= target words, and no chunk exceeds
    target + the longest boundary-delimited run."""
    parts = []
    word_index = 0
    for i, length in enumerate(run_lengths):
        run = [f"u{word_index + j}" for j in range(length)]
        word_index += length
        if i < len(run_lengths) - 1 or terminate_last:
            run[-1] += "."
        parts.append(" ".join(run))
    text = " ".join(parts)
    words = text.split()

    chunked = chunk(text, target_words=target)
    sizes = [len(c.split()) for c in chunked.chunks]
    assert " ".join(chunked.chunks).split() == words
    assert all(size >= target for size in sizes[:-1])
    longest_run = max(run_lengths)
    assert all(size <= target + longest_run for size in sizes)


# ---------------------------------------------------------------------------
# verification protocol
# ---------------------------------------------------------------------------


def constant_backend(p_yes):
    return MockBackend(
        {"first_token_distributions": [{"match": "", "distribution": {" Yes": p_yes, " No": 1 - p_yes}}]}
    )


def test_constant_script_mean():
    text = " ".join(sentence(40, i) for i in range(8))  # 320 words -> 3 chunks
    chunked = chunk(text)
    assert len(chunked.chunks) == 3
    backend = constant_backend(0.9)
    score = verify("the question", chunked, backend)
    assert list(score.per_chunk) == pytest.approx([0.9, 0.9, 0.9])
    assert score.mean == pytest.approx(0.9)


def test_prefix_prompts_embed_chunks_verbatim():
    text = " ".join(sentence(40, i) for i in range(8))
    chunked = chunk(text)
    backend = constant_backend(0.8)
    verify("q-text", chunked, backend)
    assert len(backend.probability_prompts) == len(chunked.chunks)
    for i, prompt in enumerate(backend.probability_prompts):
        assert "Question: q-text" in prompt
        expected_answer = " ".join(chunked.chunks[: i + 1])
        assert f"Answer: {expected_answer}\n" in prompt
        for j, chunk_text in enumerate(chunked.chunks):
            assert (chunk_text in prompt) == (j <= i)


def test_two_prefix_mean():
    text = " ".join(sentence(60, i) for i in range(3))  # 180 words -> 2 chunks
    chunked = chunk(text)
    assert len(chunked.chunks) == 2
    backend = MockBackend(
        {
            "first_token_distributions": [
                # prefix of both chunks contains the second chunk's marker word
                {"match": "end2.", "distribution": {" No": 1.0}},
                {"match": "", "distribution": {" Yes": 1.0}},
            ]
        }
    )
    score = verify("q", chunked, backend)
    assert list(score.per_chunk) == [1.0, 0.0]
    assert score.mean == pytest.approx(0.5)


def test_pointwise_higher_script_gives_higher_mean():
    text = " ".join(sentence(40, i) for i in range(8))
    chunked = chunk(text)
    low = verify("q", chunked, constant_backend(0.4))
    high = verify("q", chunked, constant_backend(0.7))
    assert high.mean >= low.mean


class _FlakyBackend:
    """Fails the second prefix request, succeeds otherwise."""

    def __init__(self):
        self.calls = 0

    def completion_probability(self, prompt_text, candidates):
        self.calls += 1
        if self.calls == 2:
            raise BackendError("transient")
        return {c: 0.6 for c in candidates}


def test_failed_prefix_fails_the_verification():
    text = " ".join(sentence(40, i) for i in range(8))
    chunked = chunk(text)
    assert len(chunked.chunks) == 3
    backend = _FlakyBackend()
    with pytest.raises(BackendError, match="transient"):
        verify("q", chunked, backend)
    assert backend.calls == 2  # no partial mean: the third prefix is not asked


class _DeadBackend:
    def completion_probability(self, prompt_text, candidates):
        raise BackendError("down")


def test_all_chunks_failed_raises():
    chunked = chunk(sentence(20, 0))
    with pytest.raises(BackendError):
        verify("q", chunked, _DeadBackend())


def test_build_verification_prompt_template():
    prompt = build_verification_prompt("Q?", ["part one.", "part two."])
    assert prompt.startswith("You are a reasoning assistant.")
    assert "Question: Q?" in prompt
    assert "Answer: part one. part two." in prompt
    assert prompt.endswith("My answer is (Yes or No):")
