"""The mutation tool's test ordering: the test files that import the
mutated module run first, and a mutant survives only when every stage
passes."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"


@pytest.fixture(scope="module")
def mutants():
    spec = importlib.util.spec_from_file_location("mutants_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "path, module",
    [
        ("src/logicpool/scoring.py", "logicpool.scoring"),
        ("src/logicpool/harness/run.py", "logicpool.harness.run"),
        ("src/logicpool/puzzles/__init__.py", "logicpool.puzzles"),
    ],
)
def test_module_name_of_a_source_file(mutants, path, module):
    assert mutants.module_name(path) == module


def test_files_that_import_the_module_run_first(mutants, tmp_path):
    tests = tmp_path / "tests"
    tests.mkdir()
    sources = {
        "test_a_other.py": "import logicpool.scoringx\nfrom logicpool import inference\n",
        "test_b_from_module.py": "from logicpool.harness.run import apply_criterion\n",
        "test_c_from_package.py": "from logicpool.harness import run, sweep\n",
        "test_d_plain.py": "import logicpool.harness.run as harness_run\n",
        "test_e_nested.py": "def f():\n    from logicpool.harness.run import run\n",
        "test_f_relative.py": "from .harness import run\n",
        "test_g_parent.py": "import logicpool.harness\n",
        "helper.py": "from logicpool.harness.run import run\n",
    }
    for name, source in sources.items():
        (tests / name).write_text(source, encoding="utf-8")
    first, rest = mutants.stages_for("src/logicpool/harness/run.py", str(tmp_path))
    assert first == [f"tests/{name}" for name in ("test_b_from_module.py", "test_c_from_package.py",
                                                  "test_d_plain.py", "test_e_nested.py")]
    assert rest == [f"tests/{name}" for name in ("test_a_other.py", "test_f_relative.py", "test_g_parent.py")]


def test_an_empty_stage_is_left_out(mutants, tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_x.py").write_text("import os\n", encoding="utf-8")
    assert mutants.stages_for("src/logicpool/scoring.py", str(tmp_path)) == [["tests/test_x.py"]]


def test_the_suite_s_own_stages_cover_every_test_file(mutants):
    root = TOOL.parents[1]
    stages = mutants.stages_for("src/logicpool/scoring.py", str(root))
    assert "tests/test_scoring.py" in stages[0] and "tests/test_cli.py" in stages[1]
    assert sorted(sum(stages, [])) == sorted(f"tests/{p.name}" for p in (root / "tests").glob("test_*.py"))


@pytest.mark.parametrize(
    "results, verdict, ran",
    [
        (["fail", "pass"], "killed  ", 1),
        (["timeout", "pass"], "timeout ", 1),
        (["pass", "fail"], "killed  ", 2),
        (["pass", "timeout"], "timeout ", 2),
        (["pass", "pass"], "SURVIVED", 2),
    ],
)
def test_a_mutant_survives_only_when_every_stage_passes(mutants, results, verdict, ran):
    stages = [["tests/test_first.py"], ["tests/test_rest.py"]]
    asked = []

    def run_stage(stage):
        asked.append(stage)
        return results[len(asked) - 1]

    assert mutants.judge(stages, run_stage) == verdict
    assert asked == stages[:ran]


def test_annotations_of_nested_functions_are_not_mutated(mutants):
    source = (
        "def outer(x: int | None) -> int | None:\n"
        "    def inner(y: int | None) -> float | None:\n"
        "        z: int | None = y\n"
        "        return z\n"
        "    return inner(x) | 1\n"
    )
    labels = [label for _, label, _ in mutants.mutants(source, ["outer"])]
    assert sorted(labels) == ["1 -> 0 in '1'", "1 -> 2 in '1'", "BitOr -> BitAnd in 'inner(x) | 1'"]
