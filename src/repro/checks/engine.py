"""cedarlint engine: file discovery, suppressions, and rule dispatch.

The engine is deliberately boring: it parses each file once with
:mod:`ast`, hands the tree to every enabled rule, and filters the
resulting findings through inline suppressions. Rules never read the
filesystem and never import the code under analysis — everything is
syntactic, so linting cannot execute side effects or depend on the
environment (the property that makes it safe to run in CI on any
revision, including broken ones).
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import os
import re
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .flow import ProjectIndex

__all__ = [
    "Finding",
    "FileContext",
    "LintConfig",
    "Rule",
    "lint_paths",
    "lint_source",
]

#: rule id reserved for files the engine itself cannot process.
PARSE_ERROR_RULE = "CDR000"

_PRAGMA = re.compile(
    r"#\s*cedarlint:\s*(?P<verb>disable|disable-file)\s*=\s*"
    r"(?P<rules>(?:CDR\d+|all)(?:\s*,\s*(?:CDR\d+|all))*)",
    re.IGNORECASE,
)


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    source_line: str = ""

    def fingerprint(self, occurrence: int = 0) -> str:
        """Stable identity of a finding across edits elsewhere in a file.

        Built from the rule, the file, and the *text* of the flagged
        line (not its number), so unrelated edits above the finding do
        not change it. ``occurrence`` disambiguates identical lines
        within one file.
        """
        material = "\x1f".join(
            (
                self.rule_id,
                self.path.replace(os.sep, "/"),
                self.source_line.strip(),
                str(occurrence),
            )
        )
        return hashlib.sha1(material.encode("utf-8")).hexdigest()[:16]

    def render(self) -> str:
        """``path:line:col: CDR00x message`` (one text-report line)."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} {self.message}"
        )


@dataclasses.dataclass
class FileContext:
    """Everything a rule may look at for one file."""

    path: str
    module: str
    source: str
    tree: ast.Module
    lines: list[str]
    #: project-wide symbol table when linting a whole tree; ``None`` for
    #: standalone ``lint_source`` calls (flow rules then build a
    #: single-file index on the fly).
    project: Optional["ProjectIndex"] = None

    def line_text(self, lineno: int) -> str:
        """1-based source line (empty string when out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


@dataclasses.dataclass
class LintConfig:
    """Engine options shared by the CLI and the test harness."""

    #: run only these rule ids (empty means all registered rules).
    select: frozenset[str] = frozenset()
    #: never run these rule ids.
    ignore: frozenset[str] = frozenset()
    #: path fragments skipped during *directory* walks (explicit file
    #: arguments are always linted, so fixture snippets stay testable).
    exclude: tuple[str, ...] = ("__pycache__", "/fixtures/", "/.git/")

    def enabled(self, rule_id: str) -> bool:
        if rule_id in self.ignore:
            return False
        return not self.select or rule_id in self.select


class Rule:
    """Base class: subclasses set the metadata and implement ``check``.

    ``exempt_modules`` names dotted module prefixes where the rule does
    not apply — e.g. :mod:`repro.rng` is the one place allowed to touch
    ``numpy.random`` seeding machinery.
    """

    rule_id: str = "CDR999"
    title: str = ""
    rationale: str = ""
    exempt_modules: tuple[str, ...] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        return not any(
            ctx.module == m or ctx.module.startswith(m + ".")
            for m in self.exempt_modules
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Finding:
        line = int(getattr(node, "lineno", 1))
        col = int(getattr(node, "col_offset", 0)) + 1
        return Finding(
            rule_id=self.rule_id,
            path=ctx.path,
            line=line,
            col=col,
            message=message,
            source_line=ctx.line_text(line),
        )


# ----------------------------------------------------------------------
# suppressions


def _parse_suppressions(
    lines: Sequence[str],
) -> tuple[dict[int, frozenset[str]], frozenset[str]]:
    """Map 1-based line numbers to suppressed rule ids.

    A trailing pragma suppresses its own line; a standalone comment line
    suppresses the next line (so multi-line statements can be annotated
    above instead of after a ``\\`` continuation). ``disable-file``
    pragmas suppress the whole file.
    """
    per_line: dict[int, set[str]] = {}
    whole_file: set[str] = set()
    for idx, raw in enumerate(lines, start=1):
        match = _PRAGMA.search(raw)
        if match is None:
            continue
        rules = frozenset(
            r.strip().upper() for r in match.group("rules").split(",")
        )
        if match.group("verb").lower() == "disable-file":
            whole_file |= rules
            continue
        target = idx
        if raw.strip().startswith("#"):
            target = idx + 1  # standalone comment guards the next line
        per_line.setdefault(target, set()).update(rules)
    return (
        {k: frozenset(v) for k, v in per_line.items()},
        frozenset(whole_file),
    )


def _suppressed(
    finding: Finding,
    per_line: dict[int, frozenset[str]],
    whole_file: frozenset[str],
) -> bool:
    if "ALL" in whole_file or finding.rule_id in whole_file:
        return True
    rules = per_line.get(finding.line)
    if rules is None:
        return False
    return "ALL" in rules or finding.rule_id in rules


# ----------------------------------------------------------------------
# module naming + discovery


def module_name_for(path: str) -> str:
    """Dotted module guess for ``path`` (drives rule exemptions).

    Anything under a ``src/`` (or importable package) prefix maps to its
    dotted import path; other files fall back to their slash-joined
    relative path so exemptions simply never match them.
    """
    norm = path.replace(os.sep, "/")
    if norm.endswith(".py"):
        norm = norm[: -len(".py")]
    if norm.endswith("/__init__"):
        norm = norm[: -len("/__init__")]
    parts = norm.split("/")
    for anchor in ("src", "lib"):
        if anchor in parts:
            parts = parts[parts.index(anchor) + 1 :]
            break
    return ".".join(p for p in parts if p not in ("", "."))


def iter_python_files(
    paths: Sequence[str], config: Optional[LintConfig] = None
) -> Iterator[str]:
    """Yield ``.py`` files under ``paths`` in deterministic order."""
    config = config or LintConfig()
    for path in paths:
        if os.path.isfile(path):
            yield path  # explicit files bypass the exclude list
            continue
        for root, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d
                for d in dirnames
                if not d.startswith(".") and d != "__pycache__"
            )
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                full = os.path.join(root, name)
                probe = "/" + full.replace(os.sep, "/").strip("/") + "/"
                if any(frag.strip("/") + "/" in probe for frag in config.exclude):
                    continue
                yield full


# ----------------------------------------------------------------------
# entry points


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
    config: Optional[LintConfig] = None,
    module: Optional[str] = None,
    project: Optional["ProjectIndex"] = None,
) -> list[Finding]:
    """Lint one in-memory source blob (test and fixture entry point)."""
    config = config or LintConfig()
    if rules is None:
        from .rules import default_rules

        rules = default_rules()
    lines = source.splitlines()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                rule_id=PARSE_ERROR_RULE,
                path=path,
                line=int(exc.lineno or 1),
                col=int(exc.offset or 0) + 1,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    ctx = FileContext(
        path=path,
        module=module if module is not None else module_name_for(path),
        source=source,
        tree=tree,
        lines=lines,
        project=project,
    )
    per_line, whole_file = _parse_suppressions(lines)
    findings: list[Finding] = []
    for rule in rules:
        if not config.enabled(rule.rule_id):
            continue
        if not rule.applies_to(ctx):
            continue
        for finding in rule.check(ctx):
            if not _suppressed(finding, per_line, whole_file):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings


def lint_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
    config: Optional[LintConfig] = None,
) -> list[Finding]:
    """Lint every Python file under ``paths``; findings sorted by location.

    All files are parsed up front into a shared
    :class:`~repro.checks.flow.ProjectIndex`, so flow rules see symbols
    across every module in the run — not just the file being checked.
    """
    config = config or LintConfig()
    findings: list[Finding] = []
    sources: list[tuple[str, str]] = []
    for path in iter_python_files(paths, config):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                sources.append((path, handle.read()))
        except OSError as exc:
            findings.append(
                Finding(
                    rule_id=PARSE_ERROR_RULE,
                    path=path,
                    line=1,
                    col=1,
                    message=f"file is unreadable: {exc}",
                )
            )
    from .flow import ProjectIndex

    parsed: list[tuple[str, str, ast.Module]] = []
    for path, source in sources:
        try:
            parsed.append(
                (module_name_for(path), path, ast.parse(source, filename=path))
            )
        except SyntaxError:
            continue  # lint_source reports the parse error per file
    project = ProjectIndex.build(parsed)
    for path, source in sources:
        findings.extend(
            lint_source(
                source, path=path, rules=rules, config=config, project=project
            )
        )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings


def fingerprint_findings(
    findings: Iterable[Finding],
) -> list[tuple[str, Finding]]:
    """Pair findings with occurrence-disambiguated fingerprints."""
    seen: dict[tuple[str, str, str], int] = {}
    out: list[tuple[str, Finding]] = []
    for finding in findings:
        key = (
            finding.rule_id,
            finding.path.replace(os.sep, "/"),
            finding.source_line.strip(),
        )
        occurrence = seen.get(key, 0)
        seen[key] = occurrence + 1
        out.append((finding.fingerprint(occurrence), finding))
    return out
