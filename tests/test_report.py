"""The closed world's report and run files' exact bytes, and what a report
table holds.

    python -m pytest -q tests/test_report.py
"""

import dataclasses
import re
from pathlib import Path

import pytest

from logicpool.cli import main as cli_main
from logicpool.harness.config import BackendConfig, ExperimentConfig
from logicpool.harness.records import SelectionRow
from logicpool.harness.report import ReportTable, stratify
from logicpool.harness.run import run

from conftest import ClosedWorld

GOLDEN = Path(__file__).parent / "golden" / "closed_world"
REPORT_FILES = ("report.md", "report_kk.csv", "report_zebra.csv", "clue_accuracy.csv")


def test_closed_world_report_files_are_pinned(tmp_path):
    """A closed-world run writes these exact bytes, and ``logicpool report``
    rebuilds them from the run's records and selections."""
    paths = ClosedWorld().write(tmp_path)
    run_dir = tmp_path / "run"
    config = ExperimentConfig(
        run_dir=str(run_dir),
        corpus_path=paths["corpus"],
        backend=BackendConfig(kind="mock", script_path=paths["script"]),
    )
    assert run(config).exit_code == 0
    for name in REPORT_FILES:
        assert (run_dir / name).read_bytes() == (GOLDEN / name).read_bytes(), name
        (run_dir / name).unlink()
    assert cli_main(["report", "--run-dir", str(run_dir)]) == 0
    for name in REPORT_FILES:
        assert (run_dir / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_accuracy_of_a_row_the_table_lacks_is_a_key_error():
    table = ReportTable("kk", ("Avg.",))
    with pytest.raises(KeyError, match="nope"):
        table.accuracy("nope", "Avg.")
    assert table.rows == []
    assert table.to_markdown().splitlines()[2:] == []  # the header and divider only

    stratified = stratify([], [SelectionRow("p1", "kk", "3 Person", "oracle", True)], "kk")
    names = [name for name, _ in stratified.rows]
    assert names[-1] == "Oracle" and stratified.accuracy("Oracle", "Avg.") == 1.0
    with pytest.raises(KeyError, match="majority_vote"):
        stratified.accuracy("majority_vote", "Avg.")
    assert [name for name, _ in stratified.rows] == names


def test_closed_world_run_files_are_pinned(tmp_path):
    """A closed-world run at two samples with every criterion writes these
    exact selection rows and records; ``elapsed_s`` is wall time, so it is
    cut from the records before they are compared."""
    paths = ClosedWorld().write(tmp_path)
    run_dir = tmp_path / "run"
    config = ExperimentConfig(
        run_dir=str(run_dir),
        corpus_path=paths["corpus"],
        samples=2,
        backend=BackendConfig(kind="mock", script_path=paths["script"]),
    )
    assert run(config).exit_code == 0
    selections = (run_dir / "selections.jsonl").read_bytes()
    assert selections == (GOLDEN / "samples2_selections.jsonl").read_bytes()
    records = re.sub(rb', "elapsed_s": [^,}]+', b"", (run_dir / "records.jsonl").read_bytes())
    assert records == (GOLDEN / "samples2_records.jsonl").read_bytes()


def test_a_run_of_one_family_writes_only_its_reports(tmp_path):
    """A fresh run whose corpus has no zebra puzzles writes the kk reports
    and no zebra report."""
    paths = ClosedWorld().write(tmp_path)
    kk_corpus = tmp_path / "kk.jsonl"
    lines = Path(paths["corpus"]).read_text(encoding="utf-8").splitlines(keepends=True)
    kk_corpus.write_text("".join(line for line in lines if '"family": "kk"' in line), encoding="utf-8")
    run_dir = tmp_path / "run"
    backend = BackendConfig(kind="mock", script_path=paths["script"])
    result = run(ExperimentConfig(run_dir=str(run_dir), corpus_path=str(kk_corpus), backend=backend))
    assert result.exit_code == 0 and list(result.tables) == ["kk"]
    assert [name for name in REPORT_FILES if (run_dir / name).exists()] == ["report.md", "report_kk.csv"]


def test_report_files_of_a_family_without_records_are_removed(tmp_path):
    """A resume whose corpus has no zebra puzzles leaves no zebra report
    behind, and neither does ``logicpool report`` over its records."""
    paths = ClosedWorld().write(tmp_path)
    run_dir = tmp_path / "run"
    config = ExperimentConfig(
        run_dir=str(run_dir),
        corpus_path=paths["corpus"],
        backend=BackendConfig(kind="mock", script_path=paths["script"]),
    )
    assert run(config).exit_code == 0
    zebra_files = ("report_zebra.csv", "clue_accuracy.csv")
    assert all((run_dir / name).exists() for name in zebra_files)
    kk_corpus = tmp_path / "kk.jsonl"
    lines = Path(paths["corpus"]).read_text(encoding="utf-8").splitlines(keepends=True)
    kk_corpus.write_text("".join(line for line in lines if '"family": "kk"' in line), encoding="utf-8")

    result = run(dataclasses.replace(config, corpus_path=str(kk_corpus)))
    assert result.exit_code == 0 and list(result.tables) == ["kk"]
    assert [name for name in zebra_files if (run_dir / name).exists()] == []
    assert (run_dir / "report_kk.csv").exists()

    for name in zebra_files:
        (run_dir / name).write_text("stale\n", encoding="utf-8")
    assert cli_main(["report", "--run-dir", str(run_dir)]) == 0
    assert [name for name in zebra_files if (run_dir / name).exists()] == []
