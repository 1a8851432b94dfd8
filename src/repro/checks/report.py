"""cedarlint reporters: human text and machine JSON."""

from __future__ import annotations

import json
from typing import Sequence

from .engine import Finding
from .rules import rule_catalog

__all__ = ["render_text", "render_json", "render_rule_list"]


def render_text(new: Sequence[Finding], files_checked: int = 0) -> str:
    """One line per finding plus a summary line (empty-run friendly)."""
    lines = [finding.render() for finding in new]
    by_rule: dict[str, int] = {}
    for finding in new:
        by_rule[finding.rule_id] = by_rule.get(finding.rule_id, 0) + 1
    if new:
        breakdown = ", ".join(
            f"{rule}={count}" for rule, count in sorted(by_rule.items())
        )
        lines.append(
            f"cedarlint: {len(new)} new finding(s) in "
            f"{files_checked} file(s) [{breakdown}]"
        )
    else:
        lines.append(f"cedarlint: clean ({files_checked} file(s) checked)")
    return "\n".join(lines)


def render_json(new: Sequence[Finding], files_checked: int = 0) -> str:
    """Stable JSON document for tooling (sorted keys)."""

    def row(finding: Finding) -> dict[str, object]:
        return {
            "rule": finding.rule_id,
            "path": finding.path,
            "line": finding.line,
            "col": finding.col,
            "message": finding.message,
        }

    doc = {
        "files_checked": files_checked,
        "new": [row(f) for f in new],
        "summary": {"new": len(new)},
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def render_rule_list() -> str:
    """``--list-rules`` output: id, title, rationale."""
    rows = rule_catalog()
    width = max(len(title) for _, title, _ in rows)
    return "\n".join(
        f"{rule_id}  {title:<{width}}  {rationale}"
        for rule_id, title, rationale in rows
    )
