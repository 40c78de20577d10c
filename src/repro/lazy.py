"""Lazy package exports (PEP 562 module ``__getattr__``).

A package ``__init__`` keeps ``__all__`` as its public list and names
the submodule behind each entry in a table; the submodule is imported
on the first access of one of its names, so ``import repro`` loads only
the layers a caller touches.  A package ``__init__`` imports no
submodule but this stdlib-only leaf: a thread importing a submodule
holds that submodule's import lock while it waits for the package, so
an ``__init__`` importing the same submodule on another thread would
deadlock.  Module import locks make the first access thread-safe.
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import ModuleType
from typing import Callable, Dict, Tuple

__all__ = ["lazy_exports"]


class _Package(ModuleType):
    """A package whose lazy exports outrank its submodules: the import
    system binds each loaded submodule on its package, and
    ``repro.cq.minimize`` must stay the function, not its module."""

    def __setattr__(self, name, value):
        if not (isinstance(value, ModuleType)
                and name in self.__getattr__.origin):
            super().__setattr__(name, value)


def lazy_exports(package: str, table: Dict[str, str]
                 ) -> Tuple[Callable, Callable]:
    """The ``__getattr__`` and ``__dir__`` of *package* (its
    ``__name__``).  *table* maps a relative submodule (``".engine"``)
    to the space-separated names it exports; ``alias=name`` exports
    the submodule's *name* as *alias*.  A resolved name is stored in
    the package, so later lookups never reach ``__getattr__``, whose
    ``origin`` attribute maps each name to its (submodule, name)."""
    origin = {}
    for module, names in table.items():
        for entry in names.split():
            alias, _, name = entry.partition("=")
            origin[alias] = (module, name or alias)
    namespace = sys.modules[package].__dict__

    def __getattr__(attr):
        try:
            module, name = origin[attr]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {attr!r}") from None
        value = getattr(import_module(module, package), name)
        namespace[attr] = value
        return value

    def __dir__():
        return sorted(namespace.keys() | origin.keys())

    __getattr__.origin = origin
    sys.modules[package].__class__ = _Package
    return __getattr__, __dir__
