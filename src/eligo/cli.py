"""Command line entry point: eligo screen | evaluate | convert | report."""

from __future__ import annotations

import argparse
import gc
import logging
import sys
from functools import cache

from .corpus import load_json
from .errors import EligoError
from .runner import (
    EXIT_CONFIG,
    EXIT_INPUT,
    RunConfig,
    canonicalize_results_file,
    cmd_convert,
    cmd_evaluate,
    cmd_report,
    cmd_screen,
    write_output,
    write_stdout,
)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: it is a reference cycle, which each
    build would leave to the collector."""
    parser = argparse.ArgumentParser(
        prog="eligo",
        description="Pre-screen patients for clinical trials from admission notes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    screen = sub.add_parser("screen", help="answer every (note, question) unit")
    screen.add_argument("--config", required=True, help="run.json path")

    evaluate = sub.add_parser("evaluate", help="score results against gold labels")
    evaluate.add_argument("--results", required=True)
    evaluate.add_argument("--gold", required=True)
    evaluate.add_argument("--catalog", required=True, help="catalog directory")
    evaluate.add_argument("--out", required=True, help="output directory")
    evaluate.add_argument("--notes", help="notes.jsonl for grounding checks")
    evaluate.add_argument("--positive-class", default="YES",
                          choices=["YES", "NO", "UNKNOWN"])

    convert = sub.add_parser("convert", help="decompose criteria into questions")
    convert.add_argument("--criteria", required=True)
    convert.add_argument("--backends", required=True, help="backends.json path")
    convert.add_argument("--out", required=True, help="output catalog directory")
    convert.add_argument("--prompts", help="prompt template override directory")

    report = sub.add_parser("report", help="render metrics.json to Markdown")
    report.add_argument("--metrics", required=True)
    report.add_argument("--out", help="also write the Markdown here")

    canon = sub.add_parser(
        "canonicalize",
        help="strip volatile fields and sort results.jsonl for comparisons",
    )
    canon.add_argument("--results", required=True)
    canon.add_argument("--out", help="write canonical JSONL here (default stdout)")

    return parser


def _screen(args: argparse.Namespace) -> int:
    try:
        config = RunConfig.from_dict(load_json(args.config))
    except (EligoError, OSError) as exc:
        logging.getLogger("eligo").error("config error: %s", exc)
        return EXIT_CONFIG
    return cmd_screen(config)


def _canonicalize(args: argparse.Namespace) -> int:
    try:
        text = canonicalize_results_file(args.results)
    except (OSError, EligoError) as exc:
        logging.getLogger("eligo").error("cannot canonicalize: %s", exc)
        return EXIT_INPUT
    if args.out:
        return write_output(args.out, text)
    return write_stdout(text)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    if args.command == "screen":
        return _screen(args)
    if args.command == "evaluate":
        return cmd_evaluate(
            args.results, args.gold, args.catalog, args.out,
            notes_path=args.notes, positive_class=args.positive_class,
        )
    if args.command == "convert":
        return cmd_convert(args.criteria, args.backends, args.out,
                           prompts_dir=args.prompts)
    if args.command == "report":
        return cmd_report(args.metrics, args.out)
    if args.command == "canonicalize":
        return _canonicalize(args)
    raise AssertionError(f"unhandled command {args.command!r}")


def run() -> None:
    """``main``, then exit with the heap frozen: shutdown does not scan it."""
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
