"""Static contract checker for the MapReduce engine (``repro lint``).

The engine's correctness rests on contracts no type checker sees: UDFs must
be pure (executor and retry parity), everything crossing the
process-pool boundary must pickle, lock-guarded state must stay guarded,
and broad ``except`` must not swallow task failures.  This package checks
them statically — an AST-walking rule framework (registry, per-rule
severity, ``# repro: allow[rule-id]`` suppressions, text/JSON reporters,
baseline files) plus four codebase-specific rule packs.

Programmatic use::

    from repro.analysis import run_lint, render_text

    result = run_lint(["src/repro"])
    print(render_text(result))
    raise SystemExit(result.exit_code)

See ``docs/static_analysis.md`` for the rule catalogue and how to add a
rule.
"""

from repro.analysis.base import Rule, all_rule_ids, all_rules, register, rules_by_id
from repro.analysis.baseline import BaselineError, load_baseline, write_baseline
from repro.analysis.engine import (
    PARSE_RULE_ID,
    LintResult,
    changed_python_files,
    run_lint,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.project import Module, Project
from repro.analysis.reporters import render_json, render_sarif, render_text
from repro.analysis.suppressions import PRAGMA_RULE_ID, parse_suppressions

__all__ = [
    "Rule",
    "register",
    "all_rules",
    "all_rule_ids",
    "rules_by_id",
    "Finding",
    "Severity",
    "Project",
    "Module",
    "LintResult",
    "run_lint",
    "render_text",
    "render_json",
    "render_sarif",
    "changed_python_files",
    "load_baseline",
    "write_baseline",
    "BaselineError",
    "parse_suppressions",
    "PRAGMA_RULE_ID",
    "PARSE_RULE_ID",
]
