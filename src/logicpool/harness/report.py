"""Accuracy tables, clue-count series and report files from records and
selection rows. One rule names the row an outcome counts toward: a record's
strategy title ("No strategy", ...), a selection row's criterion, and
``Oracle`` for the oracle criterion."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from ..prompts import Strategy
from ..puzzles.knights import KK_SIZES
from ..selection import ORACLE
from .records import EvalRecord, SelectionRow

KK_COLUMNS = tuple(f"{size} Person" for size in KK_SIZES) + ("Avg.",)
ZEBRA_COLUMNS = ("Easy Avg.", "Hard Avg.", "All Avg.")
REPORT_MD_FILE = "report.md"
_HEADINGS = {"kk": "Knights and knaves", "zebra": "Zebra"}  # report.md sections, in order


@dataclass
class Cell:
    correct: int = 0
    total: int = 0

    def add(self, ok: bool) -> None:
        self.total += 1
        self.correct += int(ok)

    @property
    def accuracy(self) -> float | None:
        return None if self.total == 0 else self.correct / self.total


@dataclass
class ReportTable:
    """Rows are every strategy in enum order, then the criteria in the order
    the selection rows first name them; columns are the family's difficulty
    strata plus the overall average."""

    family: str
    columns: tuple[str, ...]
    rows: list[tuple[str, dict[str, Cell]]] = field(default_factory=list)

    def row(self, name: str) -> dict[str, Cell]:
        """The row's cells, added as an empty row if the table lacks it."""
        for row_name, cells in self.rows:
            if row_name == name:
                return cells
        cells = {column: Cell() for column in self.columns}
        self.rows.append((name, cells))
        return cells

    def accuracy(self, name: str, column: str) -> float | None:
        """The accuracy in one cell, None where it holds no outcome. A row
        the table lacks is a KeyError."""
        for row_name, cells in self.rows:
            if row_name == name:
                return cells[column].accuracy
        raise KeyError(f"{self.family} table has no row {name!r}")

    def _grid(self, corner: str, number: Callable[[float], str], empty: str) -> list[list[str]]:
        """The header (``corner``, then the columns) and one line per row:
        its name, then each cell's accuracy through ``number``, or ``empty``
        where the cell holds no outcome."""
        grid = [[corner, *self.columns]]
        for name, cells in self.rows:
            accuracies = (cells[column].accuracy for column in self.columns)
            grid.append([name, *(empty if value is None else number(value) for value in accuracies)])
        return grid

    def to_markdown(self) -> str:
        lines = [
            f"| {name:24} | " + " | ".join(cells) + " |"
            for name, *cells in self._grid("", lambda value: f"{value * 100:.1f}%", "-")
        ]
        lines.insert(1, "|" + "-" * 26 + "|" + "|".join("-" * (len(c) + 2) for c in self.columns) + "|")
        return "\n".join(lines)

    def to_csv(self) -> str:
        return "\n".join(",".join(line) for line in self._grid("row", lambda value: f"{value:.6f}", ""))


def _outcomes(
    records: list[EvalRecord], selections: list[SelectionRow], family: str
) -> Iterator[tuple[str, int | None, str, bool]]:
    """(difficulty, n_clues, row name, correct) for every record of the
    family, then for every selection row of it."""
    for record in records:
        if record.family == family:
            title = Strategy.from_key(record.strategy).title
            yield record.difficulty, record.n_clues, title, record.correct
    for row in selections:
        if row.family == family:
            name = "Oracle" if row.criterion == ORACLE else row.criterion
            yield row.difficulty, row.n_clues, name, row.correct


def stratify(records: list[EvalRecord], selections: list[SelectionRow], family: str) -> ReportTable:
    """Accuracy per (row, stratum) over the family's outcomes. An outcome
    counts in its stratum's column (a kk difficulty, or zebra's easy or hard
    average) and in the last column, the family's overall average."""
    table = ReportTable(family=family, columns=KK_COLUMNS if family == "kk" else ZEBRA_COLUMNS)
    for strategy in Strategy:  # every strategy has a row, in enum order
        table.row(strategy.title)
    overall = table.columns[-1]
    for difficulty, _, name, correct in _outcomes(records, selections, family):
        if family != "kk":
            difficulty = "Easy Avg." if difficulty == "easy" else "Hard Avg."
        cells = table.row(name)
        cells[difficulty].add(correct)
        cells[overall].add(correct)
    return table


def clue_count_series(
    records: list[EvalRecord], selections: list[SelectionRow]
) -> list[tuple[str, int, float, int]]:
    """Accuracy grouped by zebra clue count: (row name, n_clues, accuracy,
    total) tuples, plot-ready."""
    cells: dict[tuple[str, int], Cell] = {}
    for _, n_clues, name, correct in _outcomes(records, selections, "zebra"):
        if n_clues is not None:
            cells.setdefault((name, n_clues), Cell()).add(correct)
    return sorted((name, n_clues, cell.accuracy or 0.0, cell.total) for (name, n_clues), cell in cells.items())


def clue_series_csv(series: list[tuple[str, int, float, int]]) -> str:
    lines = ["row,n_clues,accuracy,total"]
    for name, n_clues, accuracy, total in series:
        lines.append(f"{name},{n_clues},{accuracy:.6f},{total}")
    return "\n".join(lines)


def write_reports(
    run_dir: str, records: list[EvalRecord], selections: list[SelectionRow]
) -> dict[str, ReportTable]:
    """Write ``report.md``, a ``report_<family>.csv`` per family that has
    records and, with zebra records, ``clue_accuracy.csv``; return the
    tables by family. A report file these records do not produce is
    removed, so the directory holds no report of an earlier corpus."""
    families = {record.family for record in records}
    tables = {family: stratify(records, selections, family) for family in _HEADINGS if family in families}
    csvs = {f"report_{family}.csv": tables[family].to_csv() if family in tables else None for family in _HEADINGS}
    csvs["clue_accuracy.csv"] = (
        clue_series_csv(clue_count_series(records, selections)) if "zebra" in tables else None
    )
    for name, text in csvs.items():
        if text is None:
            Path(run_dir, name).unlink(missing_ok=True)
        else:
            Path(run_dir, name).write_text(text + "\n", encoding="utf-8")
    sections = [f"## {_HEADINGS[family]}\n\n{table.to_markdown()}\n" for family, table in tables.items()]
    Path(run_dir, REPORT_MD_FILE).write_text("# Accuracy report\n\n" + "\n".join(sections), encoding="utf-8")
    return tables
