#!/usr/bin/env python
"""The codebase invariant linter: AST checks for the repo's own rules.

Four invariants, each with a stable code:

* **L001 deadline-free fixpoint loop** -- a ``while`` loop whose
  condition mentions a fixpoint/worklist name (``frontier``,
  ``changed``, ``delta``, ``work``, ...) must call
  ``check_deadline()`` somewhere in its body.  These loops are where
  the EXPTIME-hard decision procedures spend unbounded time; a loop
  no deadline can interrupt silently defeats
  ``time_budget`` (see ``src/repro/budget.py``).
* **L002 lru_cache** -- no ``functools.lru_cache``: a module-level
  memo table is process-global state that no session owns, so
  ``Session.clear_caches()``, snapshot restore and the test-isolation
  fixtures cannot reset it.  Memoize in the ambient session's
  :class:`~repro.context.CacheScope` instead
  (``current_scope().memo(...)``).
* **L003 bare except** -- ``except:`` swallows ``KeyboardInterrupt``
  and ``BudgetExhausted``; catch something.
* **L004 unsorted __all__** -- module-level ``__all__`` literals must
  be ASCII-sorted so export diffs stay reviewable.

Escape hatches, both explicit and diff-visible:

* inline: append ``# lint: allow(L001)`` to the flagged line;
* the committed allowlist (``tools/lint_allowlist.txt``): lines of
  ``{code} {relpath}::{qualname}`` grandfathering existing
  violations.  Stale entries fail the run, so the allowlist can only
  shrink.

Usage::

    python tools/lint_invariants.py [--root src] [--allowlist FILE] [paths...]

Exits 1 on any non-allowlisted violation (or stale allowlist entry),
0 otherwise.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

#: Condition names that mark a ``while`` loop as a fixpoint/worklist
#: loop (L001).  Deliberately narrow: plain traversal stacks/queues
#: (``stack``, ``queue``, ``mask``) terminate in one pass over a
#: finite structure and are exempt.
FIXPOINT_NAMES = frozenset({
    "agenda", "changed", "changed_ref", "delta", "frontier",
    "pending", "work", "worklist",
})

_ALLOW_RE = re.compile(r"#\s*lint:\s*allow\(\s*([A-Z0-9,\s]+?)\s*\)")


class Violation:
    """One finding: ``code`` at ``path:line``, keyed for the allowlist
    by ``{code} {relpath}::{qualname}``."""

    def __init__(self, code: str, path: str, line: int, qualname: str,
                 message: str):
        self.code = code
        self.path = path
        self.line = line
        self.qualname = qualname
        self.message = message

    @property
    def key(self) -> str:
        return f"{self.code} {self.path}::{self.qualname}"

    def render(self) -> str:
        return (f"{self.path}:{self.line}: {self.code} {self.message}"
                f" [{self.path}::{self.qualname}]")


def _inline_allows(source_lines: List[str], line: int) -> Set[str]:
    """Codes allowed by a ``# lint: allow(...)`` comment on *line*."""
    if not 1 <= line <= len(source_lines):
        return set()
    match = _ALLOW_RE.search(source_lines[line - 1])
    if not match:
        return set()
    return {code.strip() for code in match.group(1).split(",")
            if code.strip()}


def _is_check_deadline_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "check_deadline"
    return isinstance(func, ast.Attribute) and func.attr == "check_deadline"


def _decorator_is_lru_cache(node: ast.AST) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Name):
        return target.id == "lru_cache"
    return isinstance(target, ast.Attribute) and target.attr == "lru_cache"


def _sorted_all_violation(node: ast.Assign) -> Optional[str]:
    """The L004 message for a module-level ``__all__`` literal, or
    None when the invariant holds (or is not statically checkable)."""
    if len(node.targets) != 1:
        return None
    target = node.targets[0]
    if not (isinstance(target, ast.Name) and target.id == "__all__"):
        return None
    if not isinstance(node.value, (ast.List, ast.Tuple)):
        return None
    names: List[str] = []
    for element in node.value.elts:
        if not (isinstance(element, ast.Constant)
                and isinstance(element.value, str)):
            return None  # computed entry: not statically checkable
        names.append(element.value)
    if names != sorted(names):
        first = next(a for a, b in zip(names, sorted(names)) if a != b)
        return (f"__all__ is not sorted (first out-of-order entry: "
                f"{first!r})")
    return None


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, source_lines: List[str]):
        self.path = path
        self.source_lines = source_lines
        self.scope: List[str] = []
        self.violations: List[Violation] = []

    @property
    def qualname(self) -> str:
        return ".".join(self.scope) if self.scope else "<module>"

    def _report(self, code: str, line: int, message: str,
                qualname: Optional[str] = None) -> None:
        if code in _inline_allows(self.source_lines, line):
            return
        self.violations.append(Violation(
            code, self.path, line, qualname or self.qualname, message))

    # -- scope tracking ------------------------------------------------

    def _visit_scoped(self, node, name: str) -> None:
        self.scope.append(name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._visit_scoped(node, node.name)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_lru_cache(node)
        self._visit_scoped(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_lru_cache(node)
        self._visit_scoped(node, node.name)

    # -- L001: deadline-free fixpoint loops ----------------------------

    def visit_While(self, node: ast.While) -> None:
        condition_names = {n.id for n in ast.walk(node.test)
                           if isinstance(n, ast.Name)}
        hot = sorted(condition_names & FIXPOINT_NAMES)
        if hot and not any(_is_check_deadline_call(n)
                           for n in ast.walk(node)):
            self._report(
                "L001", node.lineno,
                f"fixpoint loop over {', '.join(hot)} never calls "
                f"check_deadline(); no deadline can interrupt it")
        self.generic_visit(node)

    # -- L002: lru_cache -----------------------------------------------

    def _check_lru_cache(self, node) -> None:
        for decorator in node.decorator_list:
            if _decorator_is_lru_cache(decorator):
                self._report(
                    "L002", decorator.lineno,
                    f"lru_cache on {node.name!r} is process-global state "
                    f"no session can clear; memoize in the ambient "
                    f"CacheScope (current_scope().memo) instead",
                    qualname=self.qualname + "." + node.name
                    if self.scope else node.name)

    # -- L003: bare except ---------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._report("L003", node.lineno,
                         "bare 'except:' swallows KeyboardInterrupt "
                         "and BudgetExhausted")
        self.generic_visit(node)

    # -- L004: unsorted __all__ ----------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        if not self.scope:
            message = _sorted_all_violation(node)
            if message:
                self._report("L004", node.lineno, message,
                             qualname="__all__")
        self.generic_visit(node)


def lint_source(source: str, path: str) -> List[Violation]:
    """All violations in *source* (reported under *path*)."""
    tree = ast.parse(source, filename=path)
    linter = _Linter(path, source.splitlines())
    linter.visit(tree)
    return sorted(linter.violations, key=lambda v: (v.line, v.code))


def lint_paths(paths: List[Path], root: Path) -> List[Violation]:
    """Lint every ``.py`` file under *paths*, reporting repo-relative
    POSIX paths (stable allowlist keys across machines)."""
    violations: List[Violation] = []
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    for file in files:
        try:
            relative = file.resolve().relative_to(root.resolve())
            label = relative.as_posix()
        except ValueError:
            label = file.as_posix()
        violations.extend(lint_source(file.read_text(), label))
    return violations


def load_allowlist(path: Path) -> Set[str]:
    """Allowlist keys from *path* (blank lines and ``#`` comments
    skipped)."""
    if not path.is_file():
        return set()
    keys: Set[str] = set()
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            keys.add(line)
    return keys


def apply_allowlist(violations: List[Violation], allowed: Set[str],
                    ) -> Tuple[List[Violation], Set[str]]:
    """``(remaining, stale)``: violations not covered by *allowed*,
    and allowlist entries that matched nothing (must be deleted)."""
    used: Set[str] = set()
    remaining: List[Violation] = []
    for violation in violations:
        if violation.key in allowed:
            used.add(violation.key)
        else:
            remaining.append(violation)
    return remaining, allowed - used


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="lint the repo's codebase invariants")
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories (default: src/)")
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repo root for relative allowlist keys")
    parser.add_argument("--allowlist", type=Path,
                        default=Path(__file__).resolve().parent
                        / "lint_allowlist.txt")
    args = parser.parse_args(argv)

    paths = args.paths or [args.root / "src"]
    violations = lint_paths(paths, args.root)
    remaining, stale = apply_allowlist(violations,
                                       load_allowlist(args.allowlist))

    for violation in remaining:
        print(violation.render())
    for key in sorted(stale):
        print(f"stale allowlist entry (nothing matches; delete it): {key}")
    if remaining or stale:
        print(f"{len(remaining)} violation(s), {len(stale)} stale "
              f"allowlist entr(ies)")
        return 1
    allowed = len(violations) - len(remaining)
    print(f"invariants clean ({allowed} grandfathered)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
