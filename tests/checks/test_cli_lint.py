"""CLI-level gate behavior: exit codes, report formats, self-lint."""

import json
import pathlib

import pytest

from repro.checks import ALL_RULES
from repro.cli import main

REPO_ROOT = pathlib.Path(__file__).parents[2]
FIXTURES = pathlib.Path(__file__).parent / "fixtures"
RULE_IDS = [cls.rule_id for cls in ALL_RULES]


def run_lint(*argv):
    return main(["lint", *argv])


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_positive_fixture_exits_nonzero(rule_id, capsys):
    """Flipping any negative fixture to its positive form fails the gate."""
    code = run_lint(str(FIXTURES / f"{rule_id.lower()}_pos.py"))
    assert code == 1
    assert rule_id in capsys.readouterr().out


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_negative_fixture_exits_zero(rule_id, capsys):
    code = run_lint(str(FIXTURES / f"{rule_id.lower()}_neg.py"))
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_self_lint_src_is_clean_at_head(capsys):
    """Acceptance: cedar-repro lint src exits 0."""
    code = run_lint(str(REPO_ROOT / "src"))
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_json_report_is_machine_readable(capsys):
    code = run_lint(str(FIXTURES / "cdr001_pos.py"), "--format", "json")
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["new"] >= 1
    assert {row["rule"] for row in doc["new"]} == {"CDR001"}


@pytest.mark.parametrize(
    "flag", ["--baseline=x.json", "--no-baseline", "--update-baseline"]
)
def test_baseline_flags_are_gone(flag, capsys):
    """There is no baseline: its flags are usage errors (exit 2)."""
    with pytest.raises(SystemExit) as exc:
        run_lint(str(FIXTURES / "cdr001_pos.py"), flag)
    assert exc.value.code == 2


def test_select_limits_rules(capsys):
    code = run_lint(str(FIXTURES / "cdr001_pos.py"), "--select", "CDR002")
    assert code == 0


def test_list_rules_prints_catalog(capsys):
    assert run_lint("--list-rules") == 0
    out = capsys.readouterr().out
    for rule_id in RULE_IDS:
        assert rule_id in out


def test_lint_tests_tree_is_clean_at_head(capsys):
    """The test suite itself obeys the rules (fixtures are excluded)."""
    code = run_lint(str(REPO_ROOT / "tests" / "checks"))
    assert code == 0
