"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 9 (live endpoint smoke) is non-gating and skipped unless
LOGICPOOL_LIVE_ENDPOINT is set.
"""

import json
import math
import os
import random
import shutil
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from logicpool.harness.config import BackendConfig, ExperimentConfig
from logicpool.harness.run import run
from logicpool.harness.sweep import sweep
from logicpool.inference import MockBackend, ModelResponse, TokenInfo
from logicpool.prompts import Strategy
from logicpool.puzzles import (
    KNIGHT,
    KNAVE,
    assignment_as_dict,
    generate_kk,
    generate_zebra,
    solve_kk,
    solve_zebra,
)
from logicpool.puzzles.statements import Atom, Iff, Implies
from logicpool.puzzles.zebra import Clue, LEFT_OF, SAME_HOUSE
from logicpool.scoring import combined_entropy, combined_logprob, score_response, segment
from logicpool.selection import select_max_prob, select_min_entropy
from logicpool.verifier import chunk, verify

from conftest import ClosedWorld, random_statement, random_zebra_clues, solve_kk_oracle, solve_zebra_oracle
from test_selection import table_row_pool
from test_sweep import crossover_lambda, record as sweep_record
from test_verifier import RecordingBackend


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"\nACCEPTANCE {number}: PASS - {description}")


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # JIT compilation is a fixed one-off cost; the timing bounds below
    # measure solving.
    solve_kk([Atom(0, KNIGHT)], 1)
    solve_zebra(2, 1, [])


def test_criterion_1_solver_correctness():
    with criterion(1, "solver correctness on the worked examples (<1 s)"):
        started = time.perf_counter()
        statements = [
            Implies(Atom(2, KNIGHT), Atom(1, KNAVE)),
            Iff(Atom(0, KNIGHT), Atom(2, KNAVE)),
            Atom(0, KNIGHT),
        ]
        solutions = solve_kk(statements, 3)
        assert [assignment_as_dict(s) for s in solutions] == [
            {"A": "knight", "B": "knave", "C": "knight"}
        ]

        # two houses, attributes name=(Alice, Peter) and pet=(cat, dog);
        # clues: cat-house strictly left of dog-house, Alice has the cat.
        clues = [Clue(LEFT_OF, 1, 0, 1, 1), Clue(SAME_HOUSE, 0, 0, 1, 0)]
        grids = solve_zebra(2, 2, clues)
        assert len(grids) == 1
        grid = grids[0]
        alice_house = grid.position_of(0, 0)
        peter_house = grid.position_of(0, 1)
        cat_house = grid.position_of(1, 0)
        dog_house = grid.position_of(1, 1)
        # Alice keeps the cat and Peter the dog, with the cat strictly left:
        # the unique satisfying grid is house 1 = Alice+cat, house 2 = Peter+dog
        # (the clue set itself pins Alice to the left house).
        assert alice_house == cat_house == 0
        assert peter_house == dog_house == 1
        assert time.perf_counter() - started < 1.0


def test_criterion_2_solver_completeness():
    with criterion(2, "solver output equals exhaustive enumeration on 500 random instances (<30 s)"):
        started = time.perf_counter()
        rng = random.Random(20240601)
        for index in range(250):
            n_chars = rng.randint(1, 4)
            statements = [random_statement(rng, n_chars) for _ in range(n_chars)]
            assert solve_kk(statements, n_chars) == solve_kk_oracle(statements, n_chars), (
                f"kk instance {index} disagrees"
            )
        for index in range(250):
            n_houses = rng.randint(2, 3)
            n_attrs = rng.randint(1, 3)
            clues = random_zebra_clues(rng, n_houses, n_attrs, rng.randint(0, 7))
            got = [g.perms for g in solve_zebra(n_houses, n_attrs, clues)]
            assert got == solve_zebra_oracle(n_houses, n_attrs, clues), (
                f"zebra instance {index} disagrees"
            )
        assert time.perf_counter() - started < 30.0


def _scoring_fixtures():
    """(description, got, expected) triples: what the package's scorer gives
    for a response, against an independent direct formula."""
    fixtures = []

    def score(tokens):
        response = ModelResponse.from_tokens(tokens, "stop")  # no marker: all rational
        return score_response(response, segment(response))

    def geom_tokens(probabilities):
        tokens = tuple(
            TokenInfo(f"t{i}", math.log(p), ((f"t{i}", math.log(p)),))
            for i, p in enumerate(probabilities)
        )
        direct = math.prod(probabilities) ** (1.0 / len(probabilities))
        got = math.exp(score(tokens).log_p_rational)
        fixtures.append((f"geometric mean {probabilities}", got, direct))

    geom_tokens([0.25, 1.0])           # sqrt(0.25) = 0.5
    geom_tokens([0.9])                 # identity
    geom_tokens([0.5, 0.5, 0.5])
    geom_tokens([0.9, 0.8, 0.7, 0.6])
    geom_tokens([0.99] * 20)
    geom_tokens([0.01, 0.99])

    for p_r, p_a, lam in [
        (0.9, 0.8, 0.5), (0.9, 0.8, 0.0), (0.9, 0.8, 1.0),
        (0.5, 0.7, 0.25), (0.3, 0.9, 0.75), (0.6, 0.6, 0.5),
        (0.95, 0.05, 0.1), (0.2, 0.4, 0.9),
    ]:
        direct = (p_r ** (2 * (1 - lam))) * (p_a ** (2 * lam))
        fixtures.append(
            (
                f"combined prob ({p_r}, {p_a}, lambda={lam})",
                math.exp(combined_logprob(math.log(p_r), math.log(p_a), lam)),
                direct,
            )
        )

    def entropy_token(probabilities):
        alternatives = tuple(
            sorted(((f"t{i}", math.log(p)) for i, p in enumerate(probabilities)), key=lambda x: -x[1])
        )
        token = TokenInfo(alternatives[0][0], alternatives[0][1], alternatives)
        residual = 1.0 - sum(probabilities)
        direct = -sum(p * math.log(p) for p in probabilities)
        if residual > 1e-9:
            direct -= residual * math.log(residual)
        fixtures.append((f"token entropy {probabilities}", score((token,)).h_rational, direct))

    entropy_token([1.0])               # deterministic -> 0
    entropy_token([0.5, 0.5])          # ln 2
    entropy_token([0.7, 0.2])          # tail rule
    entropy_token([0.6, 0.3, 0.1])
    entropy_token([0.4, 0.3, 0.2])     # tail 0.1
    entropy_token([0.25, 0.25, 0.25, 0.25])
    entropy_token([0.9, 0.05])

    for h_r, h_a, lam in [
        (0.08, 0.04, 0.5), (0.08, 0.04, 1.0), (0.08, 0.04, 0.0),
        (0.0, 0.0, 0.5), (1.5, 0.5, 0.3), (0.2, 0.9, 0.7),
    ]:
        direct = (1 - lam) * h_r + lam * h_a
        fixtures.append(
            (f"combined entropy ({h_r}, {h_a}, lambda={lam})", combined_entropy(h_r, h_a, lam), direct)
        )
    return fixtures


def test_criterion_3_scoring_math():
    with criterion(3, "scoring formulas match independent computation within 1e-10 on 20+ fixtures"):
        fixtures = _scoring_fixtures()
        assert len(fixtures) >= 20
        for description, got, expected in fixtures:
            assert abs(got - expected) <= 1e-10, f"{description}: {got} vs {expected}"
        # ln 2 sanity anchor for the uniform-binary entropy fixture
        assert abs(math.log(2) - 0.6931471805599453) < 1e-15


def test_criterion_4_published_selection_rows():
    with criterion(4, "published score rows pick the bolded candidates"):
        prob_pool = table_row_pool([0.238, 0.209, 0.230, 0.222, 0.227], "prob")
        chosen = select_max_prob(prob_pool)
        assert chosen.chosen_index == 0
        score = prob_pool.candidates[chosen.chosen_index].confidence
        assert math.exp(combined_logprob(score.log_p_rational, score.log_p_answer, 0.5)) == pytest.approx(
            0.238, abs=1e-12
        )

        entropy_pool = table_row_pool([0.044, 0.110, 0.078, 0.075, 0.075], "entropy")
        chosen = select_min_entropy(entropy_pool)
        assert chosen.chosen_index == 0
        score = entropy_pool.candidates[chosen.chosen_index].confidence
        assert combined_entropy(score.h_rational, score.h_answer, 0.5) == pytest.approx(0.044, abs=1e-12)


def _run_closed_world(tmp_path, run_name="run", **overrides):
    world = ClosedWorld()
    paths = world.write(tmp_path)
    config = ExperimentConfig(
        run_dir=str(tmp_path / run_name),
        corpus_path=paths["corpus"],
        backend=BackendConfig(kind="mock", script_path=paths["script"]),
        **overrides,
    )
    return world, config, run(config)


def test_criterion_5_structural_invariants(tmp_path):
    with criterion(5, "structural invariants hold on a full mock run"):
        world, config, result = _run_closed_world(tmp_path)
        records_by_key = {(r.puzzle_id, r.strategy, r.sample): r for r in result.records}

        # oracle accuracy bounds every criterion and strategy per stratum
        for family, table in result.tables.items():
            oracle_cells = table.row("Oracle")
            for name, cells in table.rows:
                for column in table.columns:
                    if cells[column].total == 0:
                        continue
                    assert oracle_cells[column].accuracy >= cells[column].accuracy, (
                        f"{family}/{name}/{column} beats the oracle"
                    )

        # hybrids agree with majority_vote whenever no tie occurred
        by_pool = {}
        for row in result.selections:
            by_pool.setdefault((row.puzzle_id, row.sample), {})[row.criterion] = row
        for rows in by_pool.values():
            majority = rows["majority_vote"]
            if majority.tie_occurred:
                continue
            for hybrid in ("vote_prob", "vote_verifier"):
                assert rows[hybrid].chosen_strategy == majority.chosen_strategy
                assert rows[hybrid].correct == majority.correct

        # no criterion ever selects an unparseable candidate
        for row in result.selections:
            if row.chosen_strategy is None:
                continue
            record = records_by_key[(row.puzzle_id, row.chosen_strategy, row.sample)]
            assert record.answer.parse_ok

        # property-test suite (hypothesis invariants) runs in the rest of
        # this test suite; this criterion gates on the same session being
        # green.


def test_criterion_6_verifier_protocol():
    with criterion(6, "chunk boundaries, prefix embedding, and scripted means"):
        def words(n, prefix, terminal=""):
            body = [f"{prefix}{i}" for i in range(n)]
            if terminal:
                body[-1] += terminal
            return " ".join(body)

        # 1: short single sentence -> one chunk
        chunked = chunk(words(50, "a", "."))
        assert [len(c.split()) for c in chunked.chunks] == [50]
        # 2: ten 30-word sentences -> 120/120/60
        text = " ".join(words(30, f"s{i}_", ".") for i in range(10))
        chunked = chunk(text)
        assert [len(c.split()) for c in chunked.chunks] == [120, 120, 60]
        # 3: degenerate, no punctuation: hard split at 100 + remainder
        chunked = chunk(words(250, "w"))
        assert [len(c.split()) for c in chunked.chunks] == [100, 150]
        # 4: boundary exactly at the target
        text = " ".join(words(50, f"e{i}_", ".") for i in range(4))
        chunked = chunk(text)
        assert [len(c.split()) for c in chunked.chunks] == [100, 100]
        # 5: terminal fragment without punctuation after a long sentence
        text = words(120, "f", ".") + " " + words(130, "g")
        chunked = chunk(text)
        assert [len(c.split()) for c in chunked.chunks] == [120, 100, 30]
        # 6: ! and ? are boundaries
        text = words(60, "h", "!") + " " + words(60, "i", "?") + " " + words(20, "j", ".")
        chunked = chunk(text)
        assert [len(c.split()) for c in chunked.chunks] == [120, 20]

        # prefix prompts embed chunks 0..i verbatim
        text = " ".join(words(40, f"p{i}_", ".") for i in range(8))
        chunked = chunk(text)
        backend = RecordingBackend(
            {"first_token_distributions": [{"match": "", "distribution": {" Yes": 0.9}}]}
        )
        score = verify("the question", chunked, backend)
        assert len(backend.probability_prompts) == len(chunked.chunks)
        for i, prompt in enumerate(backend.probability_prompts):
            for j, chunk_text in enumerate(chunked.chunks):
                assert (chunk_text in prompt) == (j <= i)

        # scripted means are exact arithmetic averages
        assert score.mean == pytest.approx(0.9, abs=1e-12)
        two_chunks = chunk(" ".join(words(60, f"q{i}_", ".") for i in range(3)))
        assert len(two_chunks.chunks) == 2
        backend = MockBackend(
            {
                "first_token_distributions": [
                    {"match": "q2_0", "distribution": {" No": 1.0}},
                    {"match": "", "distribution": {" Yes": 1.0}},
                ]
            }
        )
        score = verify("q", two_chunks, backend)
        assert list(score.per_chunk) == [1.0, 0.0]
        assert abs(score.mean - 0.5) <= 1e-12
        # three prefixes with distinct scripted values
        three = chunk(" ".join(words(40, f"r{i}_", ".") for i in range(8)))
        assert len(three.chunks) == 3
        backend = MockBackend(
            {
                "first_token_distributions": [
                    {"match": three.chunks[2].split()[0], "distribution": {" Yes": 0.3}},
                    {"match": three.chunks[1].split()[0], "distribution": {" Yes": 0.6}},
                    {"match": "", "distribution": {" Yes": 0.9}},
                ]
            }
        )
        score = verify("q", three, backend)
        assert list(score.per_chunk) == pytest.approx([0.9, 0.6, 0.3], abs=1e-12)
        assert abs(score.mean - 0.6) <= 1e-12


def test_criterion_7_end_to_end_closed_world(tmp_path):
    with criterion(7, "closed-world run matches hand-computed report; replay is byte-identical (<1 min)"):
        started = time.perf_counter()
        world, config, result = _run_closed_world(tmp_path, run_name="runA")
        assert result.exit_code == 0
        for row, cells in world.EXPECTED_KK.items():
            for column, expected in cells.items():
                assert result.tables["kk"].accuracy(row, column) == expected
        for row, cells in world.EXPECTED_ZEBRA.items():
            for column, expected in cells.items():
                assert result.tables["zebra"].accuracy(row, column) == expected

        run_b = tmp_path / "runB"
        os.makedirs(run_b)
        shutil.copyfile(os.path.join(config.run_dir, "journal.jsonl"), run_b / "journal.jsonl")
        config_b = ExperimentConfig(
            run_dir=str(run_b),
            corpus_path=os.path.join(tmp_path, "corpus.jsonl"),
            backend=BackendConfig(kind="mock", script_path=os.path.join(tmp_path, "mock.json")),
            replay=True,
        )
        result_b = run(config_b)
        assert result_b.backend_calls == 0
        for name in ("records.jsonl", "selections.jsonl", "report.md", "report_kk.csv",
                     "report_zebra.csv", "clue_accuracy.csv"):
            a = Path(config.run_dir, name).read_bytes()
            b = (run_b / name).read_bytes()
            assert a == b, f"{name} differs under replay"
        assert time.perf_counter() - started < 60.0


def test_criterion_8_lambda_sweep(tmp_path):
    with criterion(8, "100-point sweep flips at the analytic crossover and is flat when segments agree"):
        p_r1, p_a1 = 0.9, 0.4
        p_r2, p_a2 = 0.6, 0.7
        records = [
            sweep_record("p", "no_strategy", True, p_r1, p_a1),
            sweep_record("p", "chain_construction", False, p_r2, p_a2),
        ]
        rows = sweep(records, "max_prob")
        assert len(rows) == 100
        lam_star = crossover_lambda(p_r1, p_a1, p_r2, p_a2)
        for lam, accuracy, _ in rows:
            assert accuracy == (1.0 if lam < lam_star else 0.0)

        flat = [
            sweep_record("p", "no_strategy", True, 0.9, 0.9),
            sweep_record("p", "chain_construction", False, 0.6, 0.6),
        ]
        assert {accuracy for _, accuracy, _ in sweep(flat, "max_prob")} == {1.0}


@pytest.mark.live
@pytest.mark.skipif(
    not os.environ.get("LOGICPOOL_LIVE_ENDPOINT"),
    reason="set LOGICPOOL_LIVE_ENDPOINT (and LOGICPOOL_LIVE_MODEL) for the live smoke",
)
def test_criterion_9_live_smoke(tmp_path):
    with criterion(9, "live endpoint smoke: 20-puzzle run with stratified table"):
        corpus = [generate_kk(3, seed=i) for i in range(10)]
        corpus += [generate_zebra(2, 2, seed=i) for i in range(10)]
        corpus_path = tmp_path / "corpus.jsonl"
        from logicpool.puzzles import puzzle_to_obj

        with open(corpus_path, "w") as handle:
            for puzzle in corpus:
                handle.write(json.dumps(puzzle_to_obj(puzzle)) + "\n")
        config = ExperimentConfig(
            run_dir=str(tmp_path / "live"),
            corpus_path=str(corpus_path),
            backend=BackendConfig(
                kind="openai",
                base_url=os.environ["LOGICPOOL_LIVE_ENDPOINT"],
                model=os.environ.get("LOGICPOOL_LIVE_MODEL", ""),
                api=os.environ.get("LOGICPOOL_LIVE_API", "chat"),
                api_key=os.environ.get("LOGICPOOL_API_KEY"),
            ),
            criteria=("majority_vote", "max_prob", "min_entropy", "vote_prob", "oracle"),
        )
        result = run(config)
        assert result.tables
        # token logprob bounds are enforced at parse time; a non-error record
        # therefore implies a well-formed, non-empty response
        for record in result.records:
            if record.error is None:
                assert record.response_text
        for family, table in result.tables.items():
            oracle_cells = table.row("Oracle")
            for name, cells in table.rows:
                for column in table.columns:
                    if cells[column].total:
                        assert oracle_cells[column].accuracy >= cells[column].accuracy
