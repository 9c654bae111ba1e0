"""Command-line interface.

Subcommands: gen (corpus generation), run (experiment), report (stratify
existing records), sweep (lambda grid), render (dump one prompt),
verify-one (score a single response with the verifier).

Exit codes: 0 success, 1 fatal error, 2 completed with partial failures.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ConfigError, DataError, LogicPoolError
from .harness.config import (
    check_kk_size, check_zebra_shape, config_from_file, desk_generate_spec, ExperimentConfig, GenerateSpec,
)
from .harness.records import load_records, load_selections, write_jsonl
from .harness.report import ReportTable, write_reports
from .harness.run import RECORDS_FILE, SELECTIONS_FILE, build_corpus, run as run_experiment
from .harness.sweep import sweep, sweep_csv
from .prompts import Strategy, render
from .puzzles import generate_kk, generate_zebra, puzzle_to_obj, read_puzzles
from .verifier import chunk, verify


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(",") if part)
    except ValueError:
        raise ConfigError(f"--kk-sizes {text!r}: expected a comma list of integers, e.g. 3,4,5,6") from None
    for size in sizes:
        check_kk_size(size, "--kk-sizes")
    return sizes


def _parse_zebra_configs(text: str) -> tuple[tuple[int, int, int], ...]:
    # e.g. "2x2:4,2x3:4,4x4:2"
    configs = []
    for part in text.split(","):
        if not part:
            continue
        shape, _, count = part.partition(":")
        houses, _, attrs = shape.partition("x")
        try:
            config = int(houses), int(attrs), int(count) if count else 1
        except ValueError:
            raise ConfigError(f"--zebra-configs {part!r}: expected HOUSESxATTRS[:COUNT], e.g. 2x3:4") from None
        check_zebra_shape(config[0], config[1], f"--zebra-configs {part!r}")
        if config[2] < 1:
            raise ConfigError(f"--zebra-configs {part!r}: needs COUNT >= 1")
        configs.append(config)
    return tuple(configs)


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.preset == "desk":
        given = [
            flag
            for flag, value in (
                ("--kk-sizes", args.kk_sizes),
                ("--kk-per-size", args.kk_per_size),
                ("--zebra-configs", args.zebra_configs),
            )
            if value
        ]
        if given:
            raise ConfigError(f"gen: --preset desk takes only --seed, not {', '.join(given)}")
        spec = desk_generate_spec(args.seed)
    else:
        spec = GenerateSpec(
            kk_sizes=_parse_sizes(args.kk_sizes) if args.kk_sizes else (),
            kk_per_size=args.kk_per_size,
            zebra_configs=_parse_zebra_configs(args.zebra_configs) if args.zebra_configs else (),
            seed=args.seed,
        )
        if not spec.kk_sizes and not spec.zebra_configs:
            raise ConfigError("gen: nothing to generate (use --preset desk or --kk-sizes/--zebra-configs)")
        if spec.kk_sizes and spec.kk_per_size < 1:
            raise ConfigError(f"--kk-per-size must be at least 1 with --kk-sizes, got {spec.kk_per_size}")
    config = ExperimentConfig(run_dir=".", generate=spec)
    puzzles = build_corpus(config)
    write_jsonl(args.out, [puzzle_to_obj(p) for p in puzzles])
    print(f"wrote {len(puzzles)} puzzles to {args.out}")
    return 0


def _print_tables(tables: dict[str, ReportTable]) -> None:
    for family, table in tables.items():
        print(f"[{family}]")
        print(table.to_markdown())
        print()


def _cmd_run(args: argparse.Namespace) -> int:
    config = config_from_file(args.config)
    if args.replay:
        config.replay = True
    result = run_experiment(config)
    _print_tables(result.tables)
    if result.failures:
        print(f"{len(result.failures)} partial failures; see failures.jsonl", file=sys.stderr)
    print(f"run dir: {result.run_dir} (backend calls: {result.backend_calls})")
    return result.exit_code


def _cmd_report(args: argparse.Namespace) -> int:
    records = load_records(os.path.join(args.run_dir, RECORDS_FILE))
    selections = load_selections(os.path.join(args.run_dir, SELECTIONS_FILE))
    _print_tables(write_reports(args.run_dir, records, selections))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.points < 1:
        raise ConfigError(f"--points must be at least 1, got {args.points}")
    records = load_records(os.path.join(args.run_dir, RECORDS_FILE))
    grid = tuple(i / args.points for i in range(args.points))
    rows = sweep(records, args.criterion, grid)
    text = sweep_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        print(text)
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    strategy = Strategy.from_key(args.strategy)
    if args.puzzle_file:
        puzzles = read_puzzles(args.puzzle_file)
        if not 0 <= args.index < len(puzzles):
            raise ConfigError(f"--index {args.index}: {args.puzzle_file} holds {len(puzzles)} puzzles")
        puzzle = puzzles[args.index]
    elif args.family == "kk":
        check_kk_size(args.n_chars, "--n-chars")
        puzzle = generate_kk(args.n_chars, seed=args.seed)
    else:
        check_zebra_shape(args.houses, args.attrs, "--houses/--attrs")
        puzzle = generate_zebra(args.houses, args.attrs, seed=args.seed)
    prompt = render(strategy, puzzle, instruction_tags=args.inst_tags)
    print(prompt.full_text)
    return 0


def _cmd_verify_one(args: argparse.Namespace) -> int:
    if args.target_words < 1:
        raise ConfigError(f"--target-words must be at least 1, got {args.target_words}")
    config = config_from_file(args.config)
    backend_config = config.verifier_backend or config.backend
    client = backend_config.build()
    with open(args.question_file, encoding="utf-8") as handle:
        question = handle.read().strip()
    with open(args.response_file, encoding="utf-8") as handle:
        response_text = handle.read()
    if not response_text.strip():
        raise DataError(f"{args.response_file}: the response is empty")
    chunked = chunk(response_text, target_words=args.target_words)
    score = verify(question, chunked, client)
    for i, value in enumerate(score.per_chunk):
        print(f"chunk {i}: P(Yes) = {value:.4f}")
    print(f"mean: {score.mean:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="logicpool", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a puzzle corpus (JSONL)")
    gen.add_argument("--out", required=True)
    gen.add_argument("--preset", choices=["desk"], default=None)
    gen.add_argument("--kk-sizes", default="", help="comma list, e.g. 3,4,5,6")
    gen.add_argument("--kk-per-size", type=int, default=0)
    gen.add_argument("--zebra-configs", default="", help="e.g. 2x2:4,2x3:4,4x4:2")
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=_cmd_gen)

    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--replay", action="store_true", help="serve everything from the journal")
    run_p.set_defaults(func=_cmd_run)

    report = sub.add_parser("report", help="rebuild stratified reports from a run directory")
    report.add_argument("--run-dir", required=True)
    report.set_defaults(func=_cmd_report)

    sweep_p = sub.add_parser("sweep", help="lambda sweep over stored records")
    sweep_p.add_argument("--run-dir", required=True)
    sweep_p.add_argument("--criterion", choices=["max_prob", "min_entropy"], required=True)
    sweep_p.add_argument("--points", type=int, default=100)
    sweep_p.add_argument("--out", default="")
    sweep_p.set_defaults(func=_cmd_sweep)

    render_p = sub.add_parser("render", help="print one rendered prompt")
    render_p.add_argument("--strategy", required=True, choices=[s.key for s in Strategy])
    render_p.add_argument("--family", choices=["kk", "zebra"], default="kk")
    render_p.add_argument("--puzzle-file", default="")
    render_p.add_argument("--index", type=int, default=0)
    render_p.add_argument("--seed", type=int, default=0)
    render_p.add_argument("--n-chars", type=int, default=3)
    render_p.add_argument("--houses", type=int, default=2)
    render_p.add_argument("--attrs", type=int, default=2)
    render_p.add_argument("--inst-tags", action="store_true")
    render_p.set_defaults(func=_cmd_render)

    verify_p = sub.add_parser("verify-one", help="verifier-score a single response")
    verify_p.add_argument("--config", required=True)
    verify_p.add_argument("--question-file", required=True)
    verify_p.add_argument("--response-file", required=True)
    verify_p.add_argument("--target-words", type=int, default=100)
    verify_p.set_defaults(func=_cmd_verify_one)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LogicPoolError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
