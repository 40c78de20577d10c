"""The codebase invariant linter (``tools/lint_invariants.py``): every
rule, the escape hatches, and the live run over ``src/``.

The tool lives outside the package (it must lint the package without
importing it), so tests load it by file path.
"""

import importlib.util
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
TOOL = REPO_ROOT / "tools" / "lint_invariants.py"


def _load():
    spec = importlib.util.spec_from_file_location("lint_invariants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


lint = _load()


def _codes(source):
    return [v.code for v in lint.lint_source(textwrap.dedent(source),
                                             "x.py")]


# ----------------------------------------------------------------------
# L001: deadline-free fixpoint loops.
# ----------------------------------------------------------------------

class TestDeadlineRule:
    def test_flags_frontier_loop_without_check(self):
        assert _codes("""
            def f(frontier):
                while frontier:
                    frontier.pop()
        """) == ["L001"]

    def test_accepts_loop_with_check(self):
        assert _codes("""
            def f(frontier):
                while frontier:
                    check_deadline()
                    frontier.pop()
        """) == []

    def test_accepts_nested_check(self):
        assert _codes("""
            def f(changed):
                while changed:
                    if True:
                        budget.check_deadline()
                    changed = step()
        """) == []

    def test_ignores_plain_traversal_stacks(self):
        assert _codes("""
            def f(stack, queue):
                while stack:
                    stack.pop()
                while queue:
                    queue.popleft()
        """) == []

    def test_compound_condition_detected(self):
        assert _codes("""
            def f(delta, stage):
                while any(delta.values()) and stage < 5:
                    delta = step(delta)
        """) == ["L001"]

    def test_violation_key_uses_qualname(self):
        violations = lint.lint_source(textwrap.dedent("""
            class Kernel:
                def run(self, work):
                    while work:
                        work.pop()
        """), "pkg/mod.py")
        assert violations[0].key == "L001 pkg/mod.py::Kernel.run"


# ----------------------------------------------------------------------
# L002: unregistered lru_cache.
# ----------------------------------------------------------------------

class TestCacheRule:
    def test_flags_unregistered_cache(self):
        assert _codes("""
            from functools import lru_cache

            @lru_cache(maxsize=None)
            def lookup(key):
                return key
        """) == ["L002"]

    def test_accepts_registered_cache(self):
        assert _codes("""
            from functools import lru_cache

            @lru_cache(maxsize=None)
            def lookup(key):
                return key

            register_shared_cache(lookup.cache_clear, "mod.lookup")
        """) == ["L002"]

    def test_bare_decorator_and_attribute_form(self):
        assert _codes("""
            import functools

            @functools.lru_cache
            def lookup(key):
                return key
        """) == ["L002"]


# ----------------------------------------------------------------------
# L003: bare except.
# ----------------------------------------------------------------------

class TestBareExceptRule:
    def test_flags_bare_except(self):
        assert _codes("""
            def f():
                try:
                    g()
                except:
                    pass
        """) == ["L003"]

    def test_accepts_typed_except(self):
        assert _codes("""
            def f():
                try:
                    g()
                except Exception:
                    pass
        """) == []


# ----------------------------------------------------------------------
# L004: sorted __all__.
# ----------------------------------------------------------------------

class TestSortedAllRule:
    def test_flags_unsorted(self):
        assert _codes('__all__ = ["b", "a"]\n') == ["L004"]

    def test_accepts_sorted(self):
        assert _codes('__all__ = ["a", "b"]\n') == []

    def test_ignores_computed_entries(self):
        assert _codes('__all__ = ["b"] \n__all__ = ["b", "a" + ""]\n') == []

    def test_ignores_non_module_scope(self):
        assert _codes("""
            def f():
                __all__ = ["b", "a"]
        """) == []


# ----------------------------------------------------------------------
# Escape hatches.
# ----------------------------------------------------------------------

class TestEscapeHatches:
    def test_inline_allow_suppresses(self):
        assert _codes("""
            def f(work):
                while work:  # lint: allow(L001)
                    work.pop()
        """) == []

    def test_inline_allow_is_code_specific(self):
        assert _codes("""
            def f(work):
                while work:  # lint: allow(L002)
                    work.pop()
        """) == ["L001"]

    def test_allowlist_covers_and_reports_stale(self):
        violations = lint.lint_source(
            "def f(work):\n    while work:\n        work.pop()\n", "m.py")
        remaining, stale = lint.apply_allowlist(
            violations, {"L001 m.py::f", "L003 gone.py::g"})
        assert remaining == []
        assert stale == {"L003 gone.py::g"}

    def test_load_allowlist_skips_comments(self, tmp_path):
        path = tmp_path / "allow.txt"
        path.write_text("# comment\n\nL001 a.py::f\n")
        assert lint.load_allowlist(path) == {"L001 a.py::f"}


# ----------------------------------------------------------------------
# The live run: src/ must be clean modulo the committed allowlist.
# ----------------------------------------------------------------------

def test_src_tree_is_clean():
    violations = lint.lint_paths([REPO_ROOT / "src"], REPO_ROOT)
    allowed = lint.load_allowlist(REPO_ROOT / "tools" /
                                  "lint_allowlist.txt")
    remaining, stale = lint.apply_allowlist(violations, allowed)
    assert not remaining, [v.render() for v in remaining]
    assert not stale, sorted(stale)


def test_cli_entry_point_green():
    assert lint.main([]) == 0


def test_cli_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(frontier):\n    while frontier:\n"
                   "        frontier.pop()\n")
    assert lint.main([str(bad), "--root", str(tmp_path),
                      "--allowlist", str(tmp_path / "none.txt")]) == 1
    out = capsys.readouterr().out
    assert "L001" in out and "bad.py" in out
