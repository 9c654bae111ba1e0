"""One-operator mutation testing with the standard library only.

    python tools/mutants.py src/logicpool/inference.py _pack _unpack JournalingClient._append
    python tools/mutants.py FILE FUNC... -- tests/test_inference.py  # run only these tests

Each mutant changes one site inside the named functions (``Class.method``
for a method): a comparison, arithmetic, bitwise or boolean operator is
swapped, a ``not``, unary minus or ``abs`` is dropped, a ``raise`` becomes
``pass``, an integer constant becomes itself + 1 or 0, a bool is flipped.
The mutated function is spliced into a copy of the checkout made under a
temporary directory, so the checkout is never edited, and the tests run
there with ``pytest -x -q`` (the whole suite unless test paths follow
``--``), first once without a mutant, where they must pass. A mutant is
killed when the tests fail or run longer than ``TIMEOUT_S``. A surviving
mutant is a missing test or an equivalent mutant. Exit code 1 when any
mutant survives.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import textwrap

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult, ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitAnd, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.And: ast.Or, ast.Or: ast.And,
}
TIMEOUT_S = 120.0  # per test run; the full suite takes about 40 s, a mutant that loops is killed
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _variants(node: ast.AST) -> list:
    """The mutants of one node: (what to do, a label)."""
    out = []
    for field in ("op", "ops"):
        ops = getattr(node, field, None)
        for i, op in enumerate(ops if isinstance(ops, list) else [ops] if ops is not None else []):
            if type(op) in SWAPS:
                out.append((("swap", field, i), f"{type(op).__name__} -> {SWAPS[type(op)].__name__}"))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.Not, ast.USub)):
        out.append((("drop", "operand"), f"drop {type(node.op).__name__}"))
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "abs" and len(node.args) == 1:
        out.append((("drop", "arg"), "drop abs"))
    if isinstance(node, ast.Raise):
        out.append((("pass",), "raise -> pass"))
    if isinstance(node, ast.Constant) and type(node.value) is bool:
        out.append((("const", not node.value), f"{node.value} -> {not node.value}"))
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        out += [(("const", v), f"{node.value} -> {v}") for v in {node.value + 1, 0} - {node.value}]
    return out


def _apply(node: ast.AST, action: tuple) -> ast.AST:
    """The node with ``action`` done to it (a new node where it is replaced)."""
    if action[0] == "swap":
        _, field, i = action
        if field == "ops":
            node.ops[i] = SWAPS[type(node.ops[i])]()
        else:
            node.op = SWAPS[type(node.op)]()
        return node
    if action[0] == "drop":
        return node.operand if action[1] == "operand" else node.args[0]
    if action[0] == "pass":
        return ast.Pass()
    return ast.Constant(action[1])


def _functions(tree: ast.Module, names: list[str]) -> list:
    found = {}
    for top in tree.body:
        members = top.body if isinstance(top, ast.ClassDef) else [top]
        for node in members:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found[f"{top.name}.{node.name}" if node is not top else node.name] = node
    missing = [n for n in names if n not in found]
    if missing:
        raise SystemExit(f"no function {', '.join(missing)} in the file")
    return [found[n] for n in names]


def _sites(func: ast.AST) -> list:
    """(node, variant) for every mutant of the function, leaving out its
    annotations, which are never evaluated."""
    notes = [n.annotation for n in ast.walk(func) if isinstance(n, (ast.arg, ast.AnnAssign)) and n.annotation]
    skip = {id(n) for note in notes + [func.returns] if note for n in ast.walk(note)}
    return [(n, v) for n in ast.walk(func) if id(n) not in skip for v in _variants(n)]


def mutants(source: str, names: list[str]):
    """Yield (line, label, mutated source) for every site in the functions."""
    lines = source.splitlines(keepends=True)
    for func in _functions(ast.parse(source), names):
        first = min([func.lineno] + [d.lineno for d in func.decorator_list])
        for index, (site, (action, label)) in enumerate(_sites(func)):
            mutated = copy.deepcopy(func)
            target = _sites(mutated)[index][0]
            replacement = _apply(target, action)
            if replacement is not target:
                for parent in ast.walk(mutated):
                    for field, value in ast.iter_fields(parent):
                        if value is target:
                            setattr(parent, field, replacement)
                        elif isinstance(value, list) and any(v is target for v in value):
                            value[[id(v) for v in value].index(id(target))] = replacement
            indent = lines[first - 1][: len(lines[first - 1]) - len(lines[first - 1].lstrip())]
            body = textwrap.indent(ast.unparse(ast.fix_missing_locations(mutated)), indent) + "\n"
            shown = " ".join((ast.get_source_segment(source, site) or "").split())
            label = f"{label} in {shown[:60]!r}" if shown else label
            yield site.lineno, label, "".join(lines[: first - 1]) + body + "".join(lines[func.end_lineno:])


def _limits() -> None:
    # a mutant that loops on a write or an allocation stops at these, not at the disk or memory
    resource.setrlimit(resource.RLIMIT_FSIZE, (256 << 20, 256 << 20))
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("file", help="a source file, relative to the checkout")
    parser.add_argument("functions", nargs="+", help="function names, Class.method for a method")
    argv = sys.argv[1:]
    tests = argv[argv.index("--") + 1:] if "--" in argv else []
    args = parser.parse_args(argv[: argv.index("--")] if "--" in argv else argv)
    with open(os.path.join(ROOT, args.file), encoding="utf-8") as handle:
        source = handle.read()
    found = list(mutants(source, args.functions))
    survivors = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as work:
        work = os.path.join(work, "checkout")
        shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(".git", ".bench_*", ".hypothesis", "__pycache__"))
        env = {**os.environ, "PYTHONPATH": os.path.join(work, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]

        def outcome() -> str:
            try:
                done = subprocess.run(command, cwd=work, env=env, capture_output=True, timeout=TIMEOUT_S,
                                      preexec_fn=_limits)
            except subprocess.TimeoutExpired:
                return "timeout "  # the tests did not finish: a hang counts as killed
            return "killed  " if done.returncode else "SURVIVED"

        if outcome() != "SURVIVED":
            raise SystemExit("the tests do not pass on the unmutated copy; no mutant can be judged")
        for number, (line, label, mutated) in enumerate(found, 1):
            with open(os.path.join(work, args.file), "w", encoding="utf-8") as handle:
                handle.write(mutated)
            result = outcome()
            survivors += result == "SURVIVED"
            print(f"{number}/{len(found)} {result} {args.file}:{line}: {label}", flush=True)
    print(f"{len(found) - survivors} of {len(found)} killed, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
