"""Public-API surface tests: exports resolve, __all__ is consistent,
and every public item is documented."""

import importlib
import inspect

import pytest

MODULES = [
    "repro",
    "repro.automata",
    "repro.cq",
    "repro.core",
    "repro.datalog",
    "repro.lowerbounds",
    "repro.programs",
    "repro.resilience",
    "repro.runner",
    "repro.service",
    "repro.trees",
    "repro.workloads",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    assert getattr(module, "__all__", None), f"{name} lacks __all__"
    for entry in module.__all__:
        assert hasattr(module, entry), f"{name}.__all__ lists missing {entry!r}"
    # A lazily exported name is the very object its submodule defines,
    # and every lazy name is public.
    lazy = getattr(getattr(module, "__getattr__", None), "origin", {})
    for entry, (submodule, attr) in lazy.items():
        assert entry in module.__all__, f"{name} exports {entry!r} lazily only"
        defining = importlib.import_module(submodule, name)
        assert getattr(module, entry) is getattr(defining, attr), (
            f"{name}.{entry} is not {defining.__name__}.{attr}")


@pytest.mark.parametrize("name", MODULES)
def test_all_is_sorted_and_unique(name):
    module = importlib.import_module(name)
    entries = list(getattr(module, "__all__", []))
    assert entries == sorted(set(entries)), f"{name}.__all__ unsorted/duplicated"


@pytest.mark.parametrize("name", MODULES)
def test_submodules_have_docstrings(name):
    """Every .py file under the listed packages carries a module
    docstring (the docstring-audit backstop)."""
    import pkgutil

    package = importlib.import_module(name)
    if not hasattr(package, "__path__"):
        return
    for info in pkgutil.iter_modules(package.__path__):
        sub = importlib.import_module(f"{name}.{info.name}")
        assert sub.__doc__, f"{name}.{info.name} lacks a module docstring"


@pytest.mark.parametrize("name", MODULES)
def test_public_callables_documented(name):
    module = importlib.import_module(name)
    for entry in getattr(module, "__all__", []):
        item = getattr(module, entry)
        if inspect.isfunction(item) or inspect.isclass(item):
            assert item.__doc__, f"{name}.{entry} lacks a docstring"


def test_version():
    import repro

    assert repro.__version__


def test_quickstart_docstring_runs():
    """The usage example in the package docstring must be executable."""
    from repro import is_equivalent_to_nonrecursive, parse_program

    recursive = parse_program(
        """
        buys(X, Y) :- likes(X, Y).
        buys(X, Y) :- trendy(X), buys(Z, Y).
        """
    )
    nonrecursive = parse_program(
        """
        buys(X, Y) :- likes(X, Y).
        buys(X, Y) :- trendy(X), likes(Z, Y).
        """
    )
    assert is_equivalent_to_nonrecursive(recursive, nonrecursive, goal="buys")
