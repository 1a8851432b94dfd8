"""cedarlint: AST-based static analysis for the Cedar reproduction.

The repo's headline guarantees — bit-identical simulation at zero fault
rates and traced-vs-bare float equality — rest on conventions that no
runtime test can police exhaustively: *every* stochastic draw goes
through :mod:`repro.rng`, *every* wall-clock read goes through
:class:`repro.service.clock.Clock` (or the explicitly-sanctioned
profiler), floats are never compared with ``==``, and set iteration
never feeds output ordering. A single violation silently corrupts
results instead of crashing, so these invariants are enforced at review
time by a dependency-free static-analysis pass.

Public surface:

* :func:`repro.checks.engine.lint_paths` — run the rule set over files
  or directory trees, returning :class:`~repro.checks.engine.Finding`
  objects.
* :data:`repro.checks.rules.ALL_RULES` — the registered rule classes
  (CDR001..CDR011; CDR009-011 are the cross-module *flow* rules built
  on :class:`repro.checks.flow.ProjectIndex`).
* :func:`repro.checks.cli.run_lint` — the ``cedar-repro lint``
  entry point (non-zero exit on new findings).
* :func:`repro.checks.sanitizer.run_sanitizer` — the runtime
  determinism sanitizer behind ``cedar-repro lint --sanitize``: replays
  the smoke benches with tracked generators and traced locks and
  cross-checks the observations against the static verdicts.

Suppress a finding inline with a trailing (or immediately preceding)
comment::

    value = random.random()  # cedarlint: disable=CDR001 -- test-only helper

There is no baseline of grandfathered findings: ``src`` lints clean, so
every finding is new and fails the gate.
"""

from __future__ import annotations

from .engine import Finding, LintConfig, Rule, lint_paths, lint_source
from .flow import ProjectIndex, infer_lock_discipline
from .rules import ALL_RULES, rule_catalog
from .sanitizer import run_sanitizer

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintConfig",
    "ProjectIndex",
    "Rule",
    "infer_lock_discipline",
    "lint_paths",
    "lint_source",
    "rule_catalog",
    "run_sanitizer",
]
