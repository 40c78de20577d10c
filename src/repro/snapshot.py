"""Persistent warm state: on-disk snapshots of a session's caches.

Everything a long-running :class:`~repro.session.Session` accumulates
before it reaches steady state -- compiled
:class:`~repro.datalog.plan.JoinPlan` objects, interned columnar
:class:`~repro.datalog.columns.EdbImage` relations, and the shared
automaton caches (:func:`~repro.core.cq_automaton.shared_cq_automaton`
and friends) -- is deterministic given the session configuration and
the inputs, so a respawned worker rebuilding it from scratch is pure
waste.  This module serializes that warm state to a versioned on-disk
snapshot and restores it into a fresh session, turning worker respawn
from a full cold start into a single ``pickle.loads``.

Lifecycle rules (each asserted by ``tests/test_snapshot.py``):

* **Keyed by config fingerprint.**  A snapshot file is named after the
  producing session's :attr:`~repro.session.Session.fingerprint`; a
  session only ever loads its own fingerprint's file, and the payload
  repeats the fingerprint (plus a format number) so a renamed or stale
  file is rejected, never trusted.
* **Invalid = silent cold start.**  A missing file, a fingerprint or
  format mismatch, or a truncated/corrupt pickle all degrade to a cold
  start; corruption additionally emits a :class:`SnapshotWarning`
  (something on disk is broken and worth a log line) while mismatch is
  silent (a different configuration's snapshot is a normal sight).
* **Trusted files only.**  Unpickling runs code, so a file not owned
  by the current user, or writable by group or others, is refused
  unread (a cold start with a :class:`SnapshotWarning`).  Our own
  writes pass: ``mkstemp`` creates them with mode 0600.
* **Atomic writes.**  Snapshots are written to a temp file in the
  target directory and published with :func:`os.replace`, so two
  processes snapshotting the same key race to last-writer-wins and a
  reader never observes a torn file.
* **EDB images travel by scenario name.**  The image cache itself is
  keyed by database *identity* (see :mod:`repro.datalog.columns`),
  which cannot survive a process boundary.  Registry scenarios build
  deterministic payloads by contract ("two builds are
  interchangeable"), so their images are snapshotted under the
  scenario name and re-adopted -- after a relation-shape validation --
  when the scenario is next run (:func:`repro.datalog.columns.adopt_image`).

The snapshot directory is configured per process: explicitly via the
``--snapshot-dir`` flags (``repro serve``, ``repro scenarios``) or the
``REPRO_SNAPSHOT_DIR`` environment variable; both end up in the
environment, so spawned pool workers inherit the setting for free.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import warnings
from pathlib import Path
from typing import Any, Dict, Iterable, Optional

__all__ = [
    "ENV_VAR",
    "SNAPSHOT_FORMAT",
    "SnapshotWarning",
    "configured_dir",
    "load_snapshot",
    "restore_session",
    "save_snapshot",
    "set_snapshot_dir",
    "snapshot_path",
]

#: Bumped whenever the payload layout changes; a mismatched format is
#: a cold start, never a best-effort parse.  Format 2: EDB images
#: intern bare values, not :class:`~repro.datalog.terms.Constant`
#: objects.  Format 3: query-automaton states
#: (:class:`~repro.core.cq_automaton.CQState`) hold an int bitmask
#: ``beta`` and a term-id tuple ``mapping``, not frozensets.
SNAPSHOT_FORMAT = 3

ENV_VAR = "REPRO_SNAPSHOT_DIR"

#: Scope tables that must never be snapshotted: the EDB image table is
#: keyed by ``id(database)`` and holds weakrefs -- meaningless in
#: another process.  Images travel under scenario names instead.
_SKIP_TABLES = frozenset({"datalog.edb_images"})


class SnapshotWarning(UserWarning):
    """A snapshot file exists but cannot be used (truncated, corrupt,
    unreadable).  The session proceeds with a cold start."""


def configured_dir() -> Optional[str]:
    """The process's snapshot directory (``REPRO_SNAPSHOT_DIR``), or
    ``None`` when persistence is off."""
    return os.environ.get(ENV_VAR) or None


def set_snapshot_dir(directory: Optional[str]) -> None:
    """Configure (or clear, with ``None``) the process snapshot
    directory.  Stored in the environment so pool workers -- spawned
    by either executor kind -- inherit it."""
    if directory is None:
        os.environ.pop(ENV_VAR, None)
    else:
        os.environ[ENV_VAR] = str(directory)


def snapshot_path(directory, fingerprint: str) -> Path:
    """Where the snapshot of configuration *fingerprint* lives inside
    *directory*."""
    return Path(directory) / f"warm-{fingerprint}.snap"


# ----------------------------------------------------------------------
# Capture.
# ----------------------------------------------------------------------

def _picklable_entries(table: Dict) -> Dict:
    """The subset of *table* that survives a pickle **round-trip**.
    Cache entries are best-effort by design: an unpicklable automaton
    (or key) is simply rebuilt on the other side, it must never abort
    the snapshot.  Loads are checked too -- a class can serialize fine
    yet explode on deserialize (e.g. frozen dataclasses with
    ``__slots__`` and no explicit ``__setstate__``), and that must
    surface as a skipped entry here, not a corrupt-looking snapshot at
    restore time."""
    entries = {}
    for key, value in table.items():
        try:
            pickle.loads(
                pickle.dumps((key, value),
                             protocol=pickle.HIGHEST_PROTOCOL))
        except Exception:
            continue
        entries[key] = value
    return entries


def capture(session, scenarios: Iterable[str] = ()) -> Dict[str, Any]:
    """The snapshot payload of *session*: compiled plans, picklable
    scope tables, and the scenario-keyed EDB images the session has
    accumulated (plus images built on the spot for any extra
    *scenarios* named)."""
    tables = {}
    for name, (entries, limit) in session.caches.export_tables().items():
        if name in _SKIP_TABLES or not entries:
            continue
        entries = _picklable_entries(entries)
        if entries:
            tables[name] = (entries, limit)
    images = dict(session._snapshot_images)
    for name in scenarios:
        if name not in images:
            image = _build_scenario_image(session, name)
            if image is not None:
                images[name] = image
    return {
        "format": SNAPSHOT_FORMAT,
        "fingerprint": session.fingerprint,
        "plans": session.engine.export_plans(),
        "tables": tables,
        "images": images,
    }


def _build_scenario_image(session, name: str):
    """The columnar image of scenario *name*'s payload database
    (``None`` for scenarios without one)."""
    from .datalog.columns import edb_image
    from .workloads.scenarios import get_scenario

    payload = get_scenario(name).build()
    database = payload.get("database")
    if database is None:
        return None
    with session.activated():
        return edb_image(database)


def save_snapshot(session, directory=None,
                  scenarios: Iterable[str] = ()) -> Optional[Path]:
    """Atomically write *session*'s warm state under its fingerprint.

    *directory* defaults to the configured process directory; with
    neither set this is a no-op returning ``None``.  Concurrent savers
    of the same key are safe: each writes a private temp file and the
    final :func:`os.replace` is atomic, so readers see one complete
    snapshot (the last writer's) and never a torn mix.
    """
    directory = directory or configured_dir()
    if directory is None:
        return None
    payload = capture(session, scenarios)
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    os.makedirs(directory, exist_ok=True)
    path = snapshot_path(directory, session.fingerprint)
    fd, tmp = tempfile.mkstemp(dir=str(directory), prefix=".snap-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


# ----------------------------------------------------------------------
# Restore.
# ----------------------------------------------------------------------

def load_snapshot(directory, fingerprint: str) -> Optional[Dict[str, Any]]:
    """The validated snapshot payload for *fingerprint*, or ``None``
    for every flavour of unusable: missing file (silent), a file not
    owned by this user or writable by group or others, and a corrupt
    or truncated pickle (:class:`SnapshotWarning`), format or
    fingerprint mismatch (silent -- it is some other configuration's
    state)."""
    path = snapshot_path(directory, fingerprint)
    try:
        with open(path, "rb") as handle:
            # Unpickling runs code: trust only a file that nobody but
            # this user could have written.
            info = os.fstat(handle.fileno())
            if info.st_uid != os.geteuid() or info.st_mode & 0o022:
                warnings.warn(
                    f"ignoring untrusted snapshot {path}: not owned by "
                    f"this user, or writable by group or others",
                    SnapshotWarning, stacklevel=2)
                return None
            blob = handle.read()
    except OSError:
        return None
    try:
        payload = pickle.loads(blob)
    except Exception as exc:
        warnings.warn(
            f"ignoring corrupt snapshot {path}: "
            f"{type(exc).__name__}: {exc}", SnapshotWarning,
            stacklevel=2)
        return None
    if not isinstance(payload, dict):
        warnings.warn(f"ignoring malformed snapshot {path}: "
                      f"payload is {type(payload).__name__}",
                      SnapshotWarning, stacklevel=2)
        return None
    if payload.get("format") != SNAPSHOT_FORMAT:
        return None
    if payload.get("fingerprint") != fingerprint:
        return None
    return payload


def restore_session(session, directory=None) -> bool:
    """Install the on-disk warm state matching *session*'s fingerprint
    (compiled plans, scope tables, scenario images) and report whether
    anything was restored.  Unusable snapshots -- missing, corrupt,
    mismatched -- leave the session untouched (cold start)."""
    directory = directory or configured_dir()
    if directory is None:
        return False
    payload = load_snapshot(directory, session.fingerprint)
    if payload is None:
        return False
    session.engine.adopt_plans(payload.get("plans") or {})
    session.caches.adopt_tables(payload.get("tables") or {})
    session._snapshot_images.update(payload.get("images") or {})
    return True
