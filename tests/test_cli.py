import hashlib
import json
import os

import pytest

from logicpool.cli import main
from logicpool.puzzles import generate_kk, generate_zebra, puzzle_from_obj, puzzle_to_obj

from conftest import ClosedWorld


def test_gen_writes_corpus(tmp_path, capsys):
    out = tmp_path / "corpus.jsonl"
    rc = main(["gen", "--out", str(out), "--kk-sizes", "3", "--kk-per-size", "2",
               "--zebra-configs", "2x2:1", "--seed", "7"])
    assert rc == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(lines) == 3
    puzzles = [puzzle_from_obj(obj) for obj in lines]
    assert [p.family for p in puzzles] == ["kk", "kk", "zebra"]
    assert "wrote 3 puzzles" in capsys.readouterr().out


def test_gen_is_deterministic(tmp_path):
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    args = ["--kk-sizes", "3", "--kk-per-size", "3", "--zebra-configs", "2x3:2", "--seed", "9"]
    assert main(["gen", "--out", str(first)] + args) == 0
    assert main(["gen", "--out", str(second)] + args) == 0
    assert first.read_bytes() == second.read_bytes()


def test_gen_requires_a_spec(tmp_path, capsys):
    rc = main(["gen", "--out", str(tmp_path / "x.jsonl")])
    assert rc == 1


def test_render_prints_prompt(capsys):
    rc = main(["render", "--strategy", "chain_construction", "--family", "kk",
               "--n-chars", "3", "--seed", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "You will reason with chain construction." in out
    assert "knights and knaves" in out


def test_render_from_corpus_file(tmp_path, capsys):
    out = tmp_path / "c.jsonl"
    main(["gen", "--out", str(out), "--zebra-configs", "2x2:1"])
    capsys.readouterr()
    rc = main(["render", "--strategy", "no_strategy", "--puzzle-file", str(out), "--index", "0"])
    assert rc == 0
    assert "features of each house" in capsys.readouterr().out


@pytest.mark.parametrize(
    "args, message",
    [
        (["render", "--strategy", "no_strategy", "--puzzle-file", "{corpus}", "--index", "7"], "--index 7"),
        (["render", "--strategy", "no_strategy", "--puzzle-file", "{garbled}"], "garbled.jsonl: line 1"),
        (["gen", "--out", "{out}", "--zebra-configs", "2x"], "--zebra-configs '2x'"),
        (["gen", "--out", "{out}", "--kk-sizes", "3,x", "--kk-per-size", "1"], "--kk-sizes '3,x'"),
        (["render", "--n-chars", "9", "--strategy", "no_strategy"], "--n-chars: 9 is not an integer from 3 to 6"),
        (["render", "--n-chars", "2", "--strategy", "no_strategy"], "--n-chars: 2 is not an integer from 3 to 6"),
        (["gen", "--out", "{out}", "--kk-sizes", "9", "--kk-per-size", "1"], "--kk-sizes: 9 is not an integer from 3 to 6"),
        (["gen", "--out", "{out}", "--kk-sizes", "3", "--kk-per-size", "0"], "--kk-per-size must be at least 1"),
        (["gen", "--out", "{out}", "--zebra-configs", "3x3:0"], "--zebra-configs '3x3:0'"),
        (["gen", "--out", "{out}", "--zebra-configs", "1x3"], "--zebra-configs '1x3'"),
        (["gen", "--out", "{out}", "--zebra-configs", "2x2:1,7x7:1"], "--zebra-configs '7x7:1': 7x7 is not a shape from 2x2 to 6x6"),
        (["render", "--strategy", "no_strategy", "--family", "zebra", "--houses", "7"], "--houses/--attrs: 7x2 is not a shape from 2x2 to 6x6"),
        (["gen", "--out", "{out}", "--preset", "desk", "--kk-sizes", "3", "--zebra-configs", "2x2:1"],
         "--preset desk takes only --seed, not --kk-sizes, --zebra-configs"),
        (["gen", "--out", "{out}"], "gen: nothing to generate"),
    ],
    ids=["index-out-of-range", "malformed-puzzle-file", "bad-zebra-configs", "bad-kk-sizes",
         "n-chars-above-6", "n-chars-below-3", "kk-size-above-6", "kk-per-size-zero",
         "zebra-count-zero", "zebra-one-house", "zebra-above-6x6", "render-zebra-above-6x6",
         "desk-preset-with-shape-flags", "gen-nothing"],
)
def test_cli_input_errors_are_error_lines(tmp_path, capsys, args, message):
    corpus = tmp_path / "c.jsonl"
    assert main(["gen", "--out", str(corpus), "--zebra-configs", "2x2:2"]) == 0
    (tmp_path / "garbled.jsonl").write_text('{"family": \n' + corpus.read_text())
    paths = {"corpus": corpus, "garbled": tmp_path / "garbled.jsonl", "out": tmp_path / "out.jsonl"}
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def _drop_second_reference(obj):
    next(clue for clue in obj["clues"] if "b" in clue).pop("b")


MALFORMED = "malformed puzzle object ("


@pytest.mark.parametrize(
    "line, edit, message",
    [
        (1, lambda obj: obj["statements"].pop(), MALFORMED),
        (1, lambda obj: obj["structure"].update(n_chars="three"), MALFORMED),
        (1, lambda obj: obj["statements"].__setitem__(0, ["atom", "A"]), MALFORMED),
        (1, lambda obj: obj.pop("solution"), MALFORMED),
        (2, _drop_second_reference, MALFORMED),
        (2, lambda obj: obj.update(version="v0"), "unsupported schema version 'v0'"),
        (1, lambda obj: obj.update(family="sudoku"), "unknown puzzle family 'sudoku'"),
    ],
    ids=["kk-statement-missing", "kk-n-chars-not-an-integer", "kk-short-atom", "kk-no-solution",
         "zebra-clue-without-b", "unknown-version", "unknown-family"],
)
def test_malformed_puzzle_line_is_an_error_line(tmp_path, capsys, line, edit, message):
    """A puzzle line with a field missing or of the wrong shape is one error
    line naming the file and the line, from ``render --puzzle-file`` and from
    ``run`` on a ``corpus.path``; the run makes no run directory."""
    objs = [puzzle_to_obj(generate_kk(3, seed=0)), puzzle_to_obj(generate_zebra(3, 3, seed=0))]
    edit(objs[line - 1])
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
    config = {"run_dir": "run", "corpus": {"path": str(corpus)}, "backend": {"kind": "mock", "script": "m.json"}}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    for args in (["render", "--strategy", "no_strategy", "--puzzle-file", str(corpus)],
                 ["run", "--config", str(config_path)]):
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {corpus}: line {line}: {message}") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.fixture
def world_run(tmp_path):
    world = ClosedWorld()
    paths = world.write(tmp_path)
    config = {
        "run_dir": "run",
        "corpus": {"path": paths["corpus"]},
        "backend": {"kind": "mock", "script": paths["script"]},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return tmp_path, config_path


def test_run_report_sweep_roundtrip(world_run, capsys):
    tmp_path, config_path = world_run
    rc = main(["run", "--config", str(config_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[kk]" in out and "[zebra]" in out
    run_dir = str(tmp_path / "run")

    rc = main(["report", "--run-dir", run_dir])
    assert rc == 0
    assert "Oracle" in capsys.readouterr().out

    sweep_out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--run-dir", run_dir, "--criterion", "max_prob", "--out", str(sweep_out)])
    assert rc == 0
    lines = sweep_out.read_text().strip().splitlines()
    assert len(lines) == 101  # header + 100 grid points

    capsys.readouterr()
    for points in ("0", "-3"):
        rc = main(["sweep", "--run-dir", run_dir, "--criterion", "max_prob", "--points", points])
        assert rc == 1
        assert "--points must be at least 1" in capsys.readouterr().err


def test_unknown_strategy_in_records_is_an_error_line(world_run, capsys):
    tmp_path, config_path = world_run
    assert main(["run", "--config", str(config_path)]) == 0
    records = tmp_path / "run" / "records.jsonl"
    lines = records.read_bytes().splitlines(keepends=True)
    first = json.loads(lines[0])
    first["strategy"] = "zigzag"
    records.write_bytes(json.dumps(first, ensure_ascii=False).encode("utf-8") + b"\n" + b"".join(lines[1:]))
    edited = records.read_bytes()
    capsys.readouterr()
    assert main(["report", "--run-dir", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "records.jsonl: line 1 is malformed" in err and "zigzag" in err
    assert records.read_bytes() == edited


@pytest.mark.parametrize(
    "score, key, message",
    [("confidence", "h_answer", "answer segment score needs"), ("verifier", "mean", "verifier score needs numbers")],
    ids=["half-null-confidence", "null-verifier-mean"],
)
def test_unusable_stored_score_is_an_error_line(world_run, capsys, score, key, message):
    """A stored score that selection cannot use (a segment with a log-prob
    but no entropy, a verifier score with no mean) is a malformed line, not
    an error met mid-selection."""
    tmp_path, config_path = world_run
    assert main(["run", "--config", str(config_path)]) == 0
    records = tmp_path / "run" / "records.jsonl"
    lines = records.read_bytes().splitlines(keepends=True)
    first = json.loads(lines[0])
    assert first["confidence"]["log_p_answer"] is not None and first["verifier"] is not None
    first[score][key] = None
    records.write_bytes(json.dumps(first, ensure_ascii=False).encode("utf-8") + b"\n" + b"".join(lines[1:]))
    capsys.readouterr()
    run_dir = str(tmp_path / "run")
    for args in (["run", "--config", str(config_path)],
                 ["sweep", "--run-dir", run_dir, "--criterion", "min_entropy"]):
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "records.jsonl: line 1 is malformed" in err and message in err


def test_run_replay_flag(world_run, capsys):
    tmp_path, config_path = world_run
    assert main(["run", "--config", str(config_path)]) == 0
    capsys.readouterr()
    assert main(["run", "--config", str(config_path), "--replay"]) == 0
    assert "backend calls: 0" in capsys.readouterr().out


def test_verify_one(world_run, tmp_path, capsys):
    _, config_path = world_run
    question = tmp_path / "question.txt"
    question.write_text("is this sound?")
    response = tmp_path / "response.txt"
    world = ClosedWorld()
    response.write_text(world.response_text("kkA", "no_strategy"))
    rc = main(["verify-one", "--config", str(config_path),
               "--question-file", str(question), "--response-file", str(response)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "chunk 0: P(Yes) = 0.6000" in out
    assert "mean: 0.6000" in out


@pytest.mark.parametrize(
    "target_words, response, message",
    [("0", "Some reasoning.", "--target-words must be at least 1"), ("100", " \n\t ", "response.txt: the response is empty")],
    ids=["zero-target-words", "blank-response"],
)
def test_verify_one_input_errors_are_error_lines(world_run, tmp_path, capsys, target_words, response, message):
    _, config_path = world_run
    question = tmp_path / "question.txt"
    question.write_text("is this sound?")
    response_file = tmp_path / "response.txt"
    response_file.write_text(response)
    rc = main(["verify-one", "--config", str(config_path), "--question-file", str(question),
               "--response-file", str(response_file), "--target-words", target_words])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_fatal_error_exit_code(tmp_path, capsys):
    config = {"run_dir": "r", "corpus": {"path": str(tmp_path / "missing.jsonl")},
              "backend": {"kind": "mock", "script": str(tmp_path / "missing.json")}}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    rc = main(["run", "--config", str(config_path)])
    assert rc == 1


def test_missing_corpus_path_leaves_no_run_directory(tmp_path, capsys):
    """The corpus is read before the run directory (and its lock file) is
    made, so a corpus that cannot be read leaves nothing behind."""
    config = {"run_dir": "rd", "corpus": {"path": "missing.jsonl"},
              "backend": {"kind": "mock", "script": "m.json"}}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 2] ") and err.count("\n") == 1
    assert not (tmp_path / "rd").exists()


def test_bad_sampling_value_is_a_config_error(tmp_path, capsys):
    config = {"run_dir": "r", "corpus": {"path": "c.jsonl"}, "sampling": {"top_p": 2},
              "backend": {"kind": "mock", "script": "m.json"}}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(config_path)]) == 1
    assert "error: sampling: top_p must be in (0, 1]" in capsys.readouterr().err


def test_zebra_shape_above_6x6_in_a_config_is_an_error_line(tmp_path, capsys):
    config = {
        "run_dir": "run",
        "corpus": {"generate": {"zebra_configs": [[2, 2, 1], [7, 7, 1]]}},
        "backend": {"kind": "mock", "script": "m.json"},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config corpus.generate.zebra_configs: 7x7 is not a shape from 2x2 to 6x6")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "generate, message",
    [
        ({"kk_sizes": [3], "kk_per_size": 0}, "config corpus.generate.kk_per_size: 0 is not an integer >= 1"),
        ({"zebra_configs": [[2, 2, 0]]}, "config corpus.generate.zebra_configs: [2, 2, 0] has a count below 1"),
        ({}, "config corpus.generate: generates no puzzles"),
        ({"kk_per_size": 5}, "config corpus.generate: generates no puzzles"),
    ],
)
def test_corpus_count_below_one_in_a_config_names_the_setting(tmp_path, capsys, generate, message):
    config = {"run_dir": "run", "corpus": {"generate": generate}, "backend": {"kind": "mock", "script": "m.json"}}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "run").exists()


def test_torn_and_malformed_journal(world_run, capsys):
    tmp_path, config_path = world_run
    assert main(["run", "--config", str(config_path)]) == 0
    journal = tmp_path / "run" / "journal.jsonl"
    lines = journal.read_bytes().splitlines(keepends=True)
    # a final line cut short by a crash: dropped, and the rerun completes
    journal.write_bytes(b"".join(lines[:-1]) + lines[-1][:40])
    assert main(["run", "--config", str(config_path)]) == 0
    # a malformed line before the end: a fatal error with a message
    journal.write_bytes(lines[0][:40] + b"\n" + b"".join(lines[1:]))
    capsys.readouterr()
    assert main(["run", "--config", str(config_path)]) == 1
    assert "journal.jsonl: line 1" in capsys.readouterr().err


# sha256 of `logicpool gen --preset desk --seed S`. Zebra minimization keeps
# a clue exactly when dropping it leaves more than one solution, so any
# solver that decides uniqueness exactly must reproduce these bytes.
DESK_CORPUS_SHA256 = {
    0: "4d0b6f2152910455899b3e8bd5b65a03a064acef291bd5c4049b2462e90ff9de",
    1: "f2166c9f52ff2e55716444c24fb5f6811f38bf7b15beebed63c27b3a956c33c7",
}


@pytest.mark.parametrize("seed", sorted(DESK_CORPUS_SHA256))
def test_gen_desk_output_is_pinned(tmp_path, seed):
    out = tmp_path / "desk.jsonl"
    assert main(["gen", "--out", str(out), "--preset", "desk", "--seed", str(seed)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DESK_CORPUS_SHA256[seed]
