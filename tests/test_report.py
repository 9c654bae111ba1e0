"""The report files' exact bytes, and what a report table holds.

    python -m pytest -q tests/test_report.py
"""

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
