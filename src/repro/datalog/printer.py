"""Pretty-printing of Datalog programs.

The ``str()`` of every AST node is already valid Datalog source; this
module adds whole-program formatting helpers (stable ordering, optional
grouping by head predicate) used by the examples and by round-trip
tests (``parse(to_source(p)) == p``).
"""

from __future__ import annotations

from .program import Program
from .rules import Rule


def rule_to_source(rule: Rule) -> str:
    """Valid source text for one rule (terminated by a period)."""
    return str(rule)


def program_to_source(program: Program, group_by_predicate: bool = False) -> str:
    """Valid source text for a whole program.

    With ``group_by_predicate`` the rules are emitted grouped by head
    predicate (stable within each group), separated by blank lines.
    """
    if not group_by_predicate:
        return "\n".join(rule_to_source(rule) for rule in program.rules)
    seen = []
    for rule in program.rules:
        if rule.head.predicate not in seen:
            seen.append(rule.head.predicate)
    blocks = []
    for predicate in seen:
        block = "\n".join(rule_to_source(r) for r in program.rules_for(predicate))
        blocks.append(block)
    return "\n\n".join(blocks)
