"""``cedar-repro lint``: the static-analysis gate.

Exit codes: 0 — clean; 1 — findings; 2 — usage or configuration
error. CI runs
``cedar-repro lint src`` and fails the job on non-zero.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence, TextIO

from ..errors import ConfigError
from .engine import LintConfig, iter_python_files, lint_paths
from .report import render_json, render_rule_list, render_text
from .rules import default_rules

__all__ = ["add_lint_arguments", "run_lint", "main"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach lint options (shared by the subcommand and ``main``)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format",
    )
    parser.add_argument(
        "--select",
        default="",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default="",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="after linting, run the smoke benches under the runtime "
        "determinism sanitizer and fail on any static/runtime "
        "disagreement (see repro.checks.sanitizer)",
    )
    parser.add_argument(
        "--sanitize-out",
        default="",
        metavar="PATH",
        help="write the sanitizer agreement report (JSON) to PATH",
    )


def _split_ids(raw: str) -> frozenset[str]:
    return frozenset(
        part.strip().upper() for part in raw.split(",") if part.strip()
    )


def run_lint(
    args: argparse.Namespace, stdout: Optional[TextIO] = None
) -> int:
    """Execute a parsed lint invocation; returns the process exit code."""
    out = stdout if stdout is not None else sys.stdout
    if args.list_rules:
        print(render_rule_list(), file=out)
        return 0
    config = LintConfig(
        select=_split_ids(args.select), ignore=_split_ids(args.ignore)
    )
    try:
        findings = lint_paths(args.paths, rules=default_rules(), config=config)
        files_checked = sum(1 for _ in iter_python_files(args.paths, config))
    except ConfigError as exc:
        print(f"cedarlint: error: {exc}", file=sys.stderr)
        return 2
    renderer = render_json if args.format == "json" else render_text
    print(renderer(findings, files_checked), file=out)
    code = 1 if findings else 0
    if args.sanitize:
        code = max(code, _run_sanitize(args, out))
    return code


def _run_sanitize(args: argparse.Namespace, out: TextIO) -> int:
    from .sanitizer import render_report, run_sanitizer, write_report

    report = run_sanitizer(paths=list(args.paths))
    print(render_report(report), file=out)
    if args.sanitize_out:
        write_report(report, args.sanitize_out)
        print(
            f"cedarlint: wrote sanitizer report -> {args.sanitize_out}",
            file=out,
        )
    return 0 if report["agreed"] else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone entry point (``python -m repro.checks.cli``)."""
    parser = argparse.ArgumentParser(
        prog="cedarlint",
        description="AST-based determinism & concurrency lint for cedar-repro",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
