"""Ambient-session plumbing: the ContextVar and the cache scopes.

Every decision procedure in this package resolves two ambient things
when the caller does not pass them explicitly: an evaluation engine,
and the memoization tables behind the ``shared_*`` automaton factories
and the columnar EDB images.  Historically both were process-global
mutable state (the module-level default engine, ``lru_cache``
factories), which races when two threads want different
configurations.

This module is the fix, and it is deliberately the *bottom* of the
import graph (stdlib only) so every layer -- ``automata.kernel``,
``datalog.engine``, ``datalog.columns``, ``repro.core`` -- can consult
it without cycles:

* :class:`CacheScope` is a named bundle of memo tables with hit/miss
  counters -- the unit of cache isolation.  One process-wide
  :data:`GLOBAL_SCOPE` backs the default session; every other
  :class:`~repro.session.Session` owns a private scope.
* the ambient :class:`~repro.session.Session` lives in a
  :class:`contextvars.ContextVar`: per-thread and per-async-task, so
  two threads with different configs no longer share mutable defaults.
  :func:`current_session` resolves it (falling back to the lazily
  created process default session), and :func:`current_scope` resolves
  the cache scope every shared factory writes into.

``repro.session`` registers the default-session factory at import
time; :func:`default_session` imports it on first need, since a caller
of a free function may never have loaded it.
"""

from __future__ import annotations

import threading
from contextvars import ContextVar
from importlib import import_module
from typing import Any, Callable, Dict, Optional


class CacheScope:
    """A named bundle of memoization tables with hit/miss counters.

    Tables are keyed by a dotted name (``"core.cq_automaton"``,
    ``"datalog.edb_images"``, ...).  :meth:`memo` is the common path:
    build-on-miss with an optional size limit (the table is dropped
    wholesale when full, mirroring the package's other caches).
    Callers with bespoke entry lifecycles (the weakref'd EDB images)
    take the raw :meth:`table` and report :meth:`hit`/:meth:`miss`
    themselves, so :meth:`stats` stays honest either way.

    Counters are how the test suite proves session isolation: a
    decision run inside one session must move only that session's
    counters, never another scope's.
    """

    __slots__ = ("name", "_tables", "_hits", "_misses", "_limits")

    def __init__(self, name: str = "private"):
        self.name = name
        self._tables: Dict[str, Dict] = {}
        self._hits: Dict[str, int] = {}
        self._misses: Dict[str, int] = {}
        self._limits: Dict[str, int] = {}

    def table(self, name: str, limit: Optional[int] = None) -> Dict:
        """The raw table *name* (created on first use)."""
        tbl = self._tables.get(name)
        if tbl is None:
            tbl = self._tables[name] = {}
            if limit is not None:
                self._limits[name] = limit
        return tbl

    def hit(self, name: str) -> None:
        self._hits[name] = self._hits.get(name, 0) + 1

    def miss(self, name: str) -> None:
        self._misses[name] = self._misses.get(name, 0) + 1

    def memo(self, name: str, key: Any, build: Callable[[], Any],
             limit: Optional[int] = None) -> Any:
        """The memoized value of *key* in table *name*, building (and
        counting a miss) on first sight.

        Tables with a *limit* evict least-recently-used entries one at
        a time (dict insertion order doubles as the recency order:
        hits reinsert their key), matching the ``lru_cache`` factories
        this replaced -- a long-running session crossing the cap loses
        one cold entry per insert, never its whole warm set.
        """
        tbl = self.table(name, limit)
        try:
            value = tbl.pop(key)
        except KeyError:
            self.miss(name)
            cap = self._limits.get(name)
            if cap is not None and len(tbl) >= cap:
                del tbl[next(iter(tbl))]  # evict the least recent
            value = tbl[key] = build()
            return value
        tbl[key] = value  # reinsert: most recent position
        self.hit(name)
        return value

    def clear(self) -> None:
        """Drop every table (cold-start hook; counters survive so
        before/after deltas stay meaningful, use :meth:`reset_stats`
        to zero them)."""
        for tbl in self._tables.values():
            tbl.clear()

    def reset_stats(self) -> None:
        self._hits.clear()
        self._misses.clear()

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-table ``{"size", "hits", "misses"}`` counters."""
        names = set(self._tables) | set(self._hits) | set(self._misses)
        return {
            name: {
                "size": len(self._tables.get(name, ())),
                "hits": self._hits.get(name, 0),
                "misses": self._misses.get(name, 0),
            }
            for name in sorted(names)
        }

    def total_entries(self) -> int:
        return sum(len(tbl) for tbl in self._tables.values())

    def __repr__(self):
        return f"CacheScope({self.name!r}, entries={self.total_entries()})"


#: The process-wide scope backing the default session (every other
#: session owns a private one).
GLOBAL_SCOPE = CacheScope("global")

#: The ambient session override.  ``None`` means "the default session".
_CURRENT: ContextVar[Optional[Any]] = ContextVar("repro_session", default=None)

_factory: Optional[Callable[[], Any]] = None
_process_default: Optional[Any] = None
_default_lock = threading.Lock()


def register_default_session_factory(factory: Callable[[], Any]) -> None:
    """Install the zero-argument default-session builder.  Called once
    by :mod:`repro.session` at import time."""
    global _factory
    _factory = factory


def default_session() -> Optional[Any]:
    """The process default session, created lazily (and exactly once,
    under a lock) from the registered factory.  ``None`` only while
    :mod:`repro.session` itself is importing."""
    global _process_default
    if _factory is None:
        import_module(".session", __package__)
    if _process_default is None and _factory is not None:
        with _default_lock:
            if _process_default is None:
                _process_default = _factory()
    return _process_default


def current_session() -> Optional[Any]:
    """The ambient session: the ContextVar override when one is
    active, else the process default."""
    session = _CURRENT.get()
    if session is not None:
        return session
    return default_session()


def activate(session: Any):
    """Make *session* the ambient session for the current context.
    Returns the ContextVar token for :func:`deactivate`."""
    return _CURRENT.set(session)


def deactivate(token) -> None:
    """Undo a matching :func:`activate`."""
    _CURRENT.reset(token)


#: Per-context stack of activation tokens backing ``with session:``.
#: Tokens are context-bound (ContextVar.reset rejects tokens from
#: another context), so the stack must live in a ContextVar too --
#: an instance attribute would make one Session entered from two
#: threads pop the other thread's token.
_TOKENS: ContextVar[tuple] = ContextVar("repro_session_tokens", default=())


def push_session(session: Any) -> None:
    """``activate`` with the token kept on the current context's
    stack (the ``with session:`` protocol)."""
    _TOKENS.set(_TOKENS.get() + (activate(session),))


def pop_session() -> None:
    """Undo the innermost :func:`push_session` of this context."""
    tokens = _TOKENS.get()
    if not tokens:
        raise RuntimeError("no session activation to exit in this context")
    _TOKENS.set(tokens[:-1])
    deactivate(tokens[-1])


def current_scope() -> CacheScope:
    """The ambient session's cache scope (the global scope while
    :mod:`repro.session` is still importing)."""
    session = current_session()
    if session is None:
        return GLOBAL_SCOPE
    return session.caches
