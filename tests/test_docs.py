"""Documentation cannot rot.

Two enforcement passes:

* **doctests** -- every module under ``repro`` is swept with
  :mod:`doctest`; any ``>>>`` example that stops working fails the
  suite (the package root's quickstart, the workloads examples, ...).
* **markdown snippets** -- every ```` ```python ```` fenced block in
  the README and ``docs/*.md`` is executed, cumulatively per file, so
  the published examples keep importing and asserting cleanly.
  Shell/json/text blocks are ignored.
"""

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent

DOC_FILES = [
    "README.md",
    "docs/ANALYSIS.md",
    "docs/ARCHITECTURE.md",
    "docs/BENCHMARKS.md",
    "docs/FUZZING.md",
    "docs/RESILIENCE.md",
    "docs/SERVICE.md",
    "docs/THEORY.md",
]

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
) + ["repro"]

PYTHON_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)


@pytest.mark.parametrize("module_name", MODULES)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, f"{module_name}: {result.failed} doctest failure(s)"


def test_doctests_exist_somewhere():
    # The sweep above is vacuous if no module ships doctests; keep at
    # least the package-root quickstart and the workloads examples live.
    attempted = sum(
        doctest.testmod(importlib.import_module(name), verbose=False).attempted
        for name in MODULES
    )
    assert attempted >= 3


@pytest.mark.parametrize("relpath", DOC_FILES)
def test_markdown_python_blocks_execute(relpath):
    """Execute the file's python blocks in one cumulative namespace
    (later blocks may reuse names defined by earlier ones)."""
    text = (REPO_ROOT / relpath).read_text()
    blocks = PYTHON_BLOCK.findall(text)
    namespace = {"__name__": f"docs_snippet::{relpath}"}
    for index, block in enumerate(blocks):
        code = compile(block, f"{relpath}[block {index}]", "exec")
        exec(code, namespace)  # noqa: S102 - executing our own docs


def test_readme_has_python_blocks():
    text = (REPO_ROOT / "README.md").read_text()
    assert len(PYTHON_BLOCK.findall(text)) >= 3


def test_theory_atlas_covers_every_core_module():
    """The acceptance bar: docs/THEORY.md cross-links every
    src/repro/core/* module by path."""
    atlas = (REPO_ROOT / "docs" / "THEORY.md").read_text()
    core = REPO_ROOT / "src" / "repro" / "core"
    for module in sorted(core.glob("*.py")):
        if module.name == "__init__.py":
            continue
        assert f"src/repro/core/{module.name}" in atlas, (
            f"docs/THEORY.md does not link src/repro/core/{module.name}"
        )


def test_benchmarks_doc_matches_registry():
    """BENCHMARKS.md documents the real verdict keys and cache hooks."""
    doc = (REPO_ROOT / "docs" / "BENCHMARKS.md").read_text()
    for needle in ("clear_shared_caches", "cache_stats",
                   "BENCH_automata.json", "BENCH_plans.json",
                   "--verify-serial", "magic_beats_direct"):
        assert needle in doc, f"docs/BENCHMARKS.md lost mention of {needle}"
