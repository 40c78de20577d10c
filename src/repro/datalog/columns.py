"""Columnar relation storage and batch join kernels.

The production evaluation path.  Rules are compiled once into
:class:`~repro.datalog.plan.JoinPlan` register programs (fixed join
order, interned constants); this module executes them over whole
relation columns, so the hot loops run inside the CPython C runtime
instead of interpreting one Python tuple at a time.  It is the
data-plane analogue of the bitset automaton kernel.

Three ideas, in the spirit of Souffle-style compiled Datalog:

* **Columnar, interned relations.**  :class:`ColumnStore` keeps each
  relation as parallel list columns of interned value ids (the
  interner's own int objects, so reading a column builds none).
  The interner is keyed by the bare values the :class:`Database`
  stores (``str`` hashes are computed in C and cached), never by
  :class:`Constant` objects.  The extensional part is built once per
  :class:`Database` into an immutable :class:`EdbImage` (C-level
  ``itemgetter`` transpose, one distinct-values set pass per relation,
  bulk ``map`` interning) and cached, so repeated evaluations over the
  same database -- fixpoint probes, benchmark repeats, magic counts --
  skip re-interning entirely.  The image cache lives in the ambient
  session's cache scope (:mod:`repro.context`), so
  ``clear_shared_caches()`` / ``Session.clear_caches()`` drop it
  along with the automaton caches and two live sessions never share
  images.  The active domain is never maintained row by row: it is
  the image's extensional ids (a ``range``) plus the program's
  resolved constants, listed only for programs with unsafe rules
  (:meth:`ColumnStore.domain`).
* **Batch execution of join plans.**  :func:`execute_batch_fused` runs
  a :class:`~repro.datalog.plan.ResolvedPlan` over a whole frontier at
  once.  The frontier is a set of register *columns*; each plan step
  probes a hash index with ``dict.get``, fans out matches with C-level
  ``itertools.chain``/``itertools.repeat``, gathers columns with
  ``map(list.__getitem__, ids)``, and applies residual
  constant/equality checks as vectorized filters.  No per-row Python
  function calls, no recursion.  Radix-partitioned hash joins and
  fused filter+project with dead-register elimination sit on top (see
  the comment block above :class:`_FusedStep`).
* **Packed-key dedup.**  A derived row is identified by one Python
  int -- its column ids packed positionally with base ``B`` (the
  sealed interner size) -- so deduplication against the stable store
  is a C-level ``set`` difference over ints instead of tuple hashing,
  and only the genuinely fresh rows are unpacked back into columns.

The drivers :func:`columnar_naive` and :func:`columnar_seminaive`
mirror :func:`~repro.datalog.engine.naive_evaluate` /
:func:`~repro.datalog.engine.seminaive_evaluate` stage by stage, so
results -- ``idb`` rows, ``stages``, ``fixpoint`` -- are bit-identical
to the interpretive oracle (asserted by the differential suites in
``tests/test_columnar.py`` and ``tests/test_plan.py`` and by the fuzz
harness).  They return a lazy
:class:`~repro.datalog.result.EvaluationResult` holding the store:
counts and checksums read the id columns, and :class:`Constant` rows
are built only when a caller asks for them.

    >>> from repro.datalog.parser import parse_program
    >>> from repro.datalog.database import Database
    >>> from repro.datalog.engine import Engine
    >>> program = parse_program('p(X, Y) :- e(X, Z), e(Z, Y).')
    >>> db = Database.from_facts([("e", ("a", "b")), ("e", ("b", "c"))])
    >>> sorted(Engine().query(program, db, "p"))
    [(Constant('a'), Constant('c'))]
"""

from __future__ import annotations

import weakref
from itertools import chain, compress, islice, repeat
from operator import eq as _eq
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..budget import check_deadline
from ..context import current_scope as _current_scope
from .database import Database
from .plan import OP_BIND, OP_CHECK, OP_CONST, PlanCache, ResolvedPlan
from .program import Program
from .result import EvaluationResult
from .terms import Constant

__all__ = [
    "ColumnStore",
    "EdbImage",
    "columnar_naive",
    "columnar_seminaive",
    "edb_image",
    "execute_batch_fused",
]

_EMPTY: tuple = ()


# ----------------------------------------------------------------------
# Packed row keys.
#
# A row (i0, ..., ik) of interned ids < B is identified by the single
# int ((i0*B + i1)*B + i2)... -- positional base-B packing.  Python
# ints are unbounded, so any arity works; packing and unpacking are
# specialised for the common arities so the per-row work stays inside
# comprehensions.
# ----------------------------------------------------------------------

def _pack(cols: Sequence[Sequence[int]], n: int, base: int) -> List[int]:
    """Pack parallel columns into one key per row."""
    arity = len(cols)
    if arity == 0:
        return [0] * n
    if arity == 1:
        return list(cols[0])
    if arity == 2:
        return [a * base + b for a, b in zip(cols[0], cols[1])]
    if arity == 3:
        return [(a * base + b) * base + c
                for a, b, c in zip(cols[0], cols[1], cols[2])]
    keys = list(cols[0])
    for col in cols[1:]:
        keys = [k * base + v for k, v in zip(keys, col)]
    return keys


def _unpack(keys: Sequence[int], arity: int, base: int) -> List[List[int]]:
    """Invert :func:`_pack`: per-row keys back into parallel columns."""
    if arity == 0:
        return []
    if arity == 1:
        return [list(keys)]
    if arity == 2:
        # Two plain int-op passes instead of one divmod pass that
        # allocates a pair tuple per row.
        return [[k // base for k in keys], [k % base for k in keys]]
    cols: List[List[int]] = [[] for _ in range(arity)]
    appends = [col.append for col in cols]
    for key in keys:
        for position in range(arity - 1, 0, -1):
            key, value = divmod(key, base)
            appends[position](value)
        appends[0](key)
    return cols


class Batch:
    """A set of rows of one relation, in columnar form.

    ``keys`` are the packed row identities (unique within the batch),
    ``cols`` the parallel id columns, ``n`` the row count.  Batches are
    how deltas travel between semi-naive rounds.
    """

    __slots__ = ("n", "keys", "cols")

    def __init__(self, keys: List[int], cols: Sequence[Sequence[int]]):
        self.keys = keys
        self.cols = cols
        self.n = len(keys)

    def __bool__(self):
        return self.n > 0


# ----------------------------------------------------------------------
# The cached extensional image.
# ----------------------------------------------------------------------

class EdbImage:
    """The immutable columnar form of one :class:`Database`.

    Holds the interner (``ids``/``values``, keyed by bare values),
    per-relation id columns, the extensional active domain (the
    ``range`` of ids the build handed out), and lazily-built hash
    indexes.  Shared across evaluations: :class:`ColumnStore` copies
    only the relations a program derives into.  The interner is
    deliberately *shared and append-only* -- later programs may add
    their constants, which never invalidates existing columns and never
    enters ``domain``.
    """

    __slots__ = ("ids", "values", "cols", "counts", "domain", "indexes",
                 "frozen", "version", "__weakref__")

    #: Bound on the materialized-view cache (``frozen``): distinct
    #: derived relations kept un-interned per image.
    _MAX_FROZEN = 16

    def __init__(self, database: Database):
        self.ids: Dict[object, int] = {}
        self.values: List[object] = []
        self.cols: Dict[str, Tuple[List[int], ...]] = {}
        self.counts: Dict[str, int] = {}
        self.indexes: Dict[Tuple[str, int], Dict[int, List[int]]] = {}
        # Materialized-view cache of the fused path: (predicate, arity,
        # base, packed keyset) -> frozenset of constant rows.  Keyed by
        # the exact derived content, so repeated evaluations of the
        # same program skip re-building 10^5 constant tuples.
        self.frozen: Dict[tuple, frozenset] = {}
        self.version = database.version()
        ids, values = self.ids, self.values
        for predicate, rows in database.relations():
            check_deadline()
            if not rows:
                continue
            # C-level transpose: one itemgetter pass per column (two
            # iterations of an unmodified set visit rows in one order).
            columns = [list(map(itemgetter(position), rows))
                       for position in range(database.arity(predicate))]
            # The relation's distinct unseen values, numbered in C.
            missing = list(set().union(*columns).difference(ids))
            ids.update(zip(missing, range(len(values),
                                          len(values) + len(missing))))
            values.extend(missing)
            self.cols[predicate] = tuple(list(map(ids.__getitem__, column))
                                         for column in columns)
            self.counts[predicate] = len(rows)
        # The interner started empty and every value above came from a
        # column, so the extensional active domain is every id so far.
        self.domain = range(len(values))

    def index(self, predicate: str, position: int):
        """The (built-once) hash index on *position* of *predicate*,
        as ``(mapping, unique)``.

        When the column is a unique key -- the common case for edge
        relations indexed on their source -- the mapping holds bare row
        ids and probes can run as one C-level ``map``; otherwise values
        map to row-id lists.
        """
        key = (predicate, position)
        entry = self.indexes.get(key)
        if entry is None:
            cols = self.cols.get(predicate)
            column = cols[position] if cols else ()
            index: Dict[int, object] = dict(zip(column, range(len(column))))
            unique = len(index) == len(column)  # built in C
            if not unique:
                index = {}
                setdefault = index.setdefault
                for row_id, value in enumerate(column):
                    setdefault(value, []).append(row_id)
            entry = (index, unique)
            self.indexes[key] = entry
        return entry


#: Scope-table name: id(database) -> (weakref-to-database, EdbImage).
#: Keyed by identity because Database defines __eq__ without __hash__;
#: weakrefs evict entries when the database dies, _MAX_IMAGES bounds
#: the live set.  The table lives in the ambient session's
#: :class:`~repro.context.CacheScope`, so concurrent sessions image the
#: same database independently (zero cache bleed) and
#: ``Session.clear_caches()`` drops images along with the automaton
#: caches.
_IMAGES_TABLE = "datalog.edb_images"
_MAX_IMAGES = 64


def edb_image(database: Database) -> EdbImage:
    """The cached columnar image of *database* (rebuilt when the
    database's mutation version moved)."""
    scope = _current_scope()
    images = scope.table(_IMAGES_TABLE)
    key = id(database)
    entry = images.get(key)
    if entry is not None:
        ref, image = entry
        if ref() is database and image.version == database.version():
            scope.hit(_IMAGES_TABLE)
            return image
        del images[key]
    scope.miss(_IMAGES_TABLE)
    image = EdbImage(database)
    if len(images) >= _MAX_IMAGES:
        images.clear()

    def _evict(_ref, _images=images, _key=key):
        _images.pop(_key, None)

    images[key] = (weakref.ref(database, _evict), image)
    return image


# ----------------------------------------------------------------------
# The mutable per-evaluation store.
# ----------------------------------------------------------------------

class ColumnStore:
    """The mutable relation store of one columnar evaluation.

    Extensional relations are *shared* with the cached
    :class:`EdbImage`; relations the program derives into (the IDB
    predicates) get private copies of their columns and packed-key
    sets, extended per batch insert, and indexes, extended when probed.
    :meth:`~repro.datalog.plan.JoinPlan.resolve` binds compiled plans
    against it through :meth:`resolve`.
    """

    __slots__ = ("_image", "_idb", "_ids", "_values", "_constants", "_cols",
                 "_counts", "_keys", "_indexes", "_arity", "base")

    def __init__(self, database: Database, idb: Iterable[str]):
        image = edb_image(database)
        self._image = image
        self._idb = frozenset(idb)
        # The interner is shared (append-only); the program's constants
        # are private (they join this evaluation's active domain only).
        self._ids = image.ids
        self._values = image.values
        self._constants: Set[int] = set()
        self._cols: Dict[str, List[List[int]]] = {}
        self._counts: Dict[str, int] = {}
        self._keys: Dict[str, Set[int]] = {}
        #: (predicate, position) -> (index, rows indexed so far).
        self._indexes: Dict[Tuple[str, int], tuple] = {}
        self._arity: Dict[str, int] = {}
        self.base = 0  # set by seal()
        for predicate in self._idb:
            cols = image.cols.get(predicate)
            if cols is not None:
                # Derived-into relation with extensional seed rows
                # (e.g. magic seeds): private, growable copies.
                self._cols[predicate] = [list(col) for col in cols]
                self._counts[predicate] = image.counts[predicate]

    def resolve(self, constant: Constant):
        """Intern *constant*'s value; resolved constants join the active
        domain (mirroring the interpretive path's inclusion of program
        constants)."""
        value = constant.value
        ident = self._ids.get(value)
        if ident is None:
            ident = len(self._values)
            self._ids[value] = ident
            self._values.append(value)
        self._constants.add(ident)
        return ident

    # -- relation access ----------------------------------------------

    def seal(self) -> None:
        """Fix the packed-key base.  Call after every plan is resolved:
        no new constants are interned during execution (head values
        come from body rows or the active domain), so ``base`` bounds
        every id a packed key will ever carry."""
        self.base = len(self._values) + 1

    def count(self, predicate: str) -> int:
        n = self._counts.get(predicate)
        if n is not None:
            return n
        if predicate in self._idb:
            return 0
        return self._image.counts.get(predicate, 0)

    def cols(self, predicate: str) -> Sequence[Sequence[int]]:
        cols = self._cols.get(predicate)
        if cols is not None:
            return cols
        if predicate in self._idb:
            return _EMPTY
        return self._image.cols.get(predicate, _EMPTY)

    def index(self, predicate: str, position: int):
        """The hash index for a probe, as ``(mapping, unique)`` --
        image-cached (with the unique-key specialization) for
        extensional relations; private and list-valued for derived
        ones, extended at probe time over the rows added since its
        last probe (so an index no later stage probes costs nothing
        to keep)."""
        if predicate not in self._idb:
            return self._image.index(predicate, position)
        key = (predicate, position)
        index, upto = self._indexes.get(key) or ({}, 0)
        count = self._counts.get(predicate, 0)
        if upto < count:
            setdefault = index.setdefault
            for row_id, value in enumerate(
                    islice(self._cols[predicate][position], upto, None), upto):
                setdefault(value, []).append(row_id)
        self._indexes[key] = (index, count)
        return index, False

    def keyset(self, predicate: str) -> Set[int]:
        """The packed identities of the relation's current rows (built
        on first use; IDB relations usually start empty, so this is
        free on the hot path)."""
        keys = self._keys.get(predicate)
        if keys is None:
            count = self._counts.get(predicate, 0)
            if count:
                keys = set(_pack(self._cols[predicate], count, self.base))
            else:
                keys = set()
            self._keys[predicate] = keys
        return keys

    def add_keys(self, predicate: str, fresh: Set[int],
                 arity: int) -> Optional[Batch]:
        """Insert rows given by packed key, none of them in the
        relation yet (:func:`execute_batch_fused` subtracted its
        keyset); maintain columns and the keyset; return the rows as a
        :class:`Batch` (``None`` when *fresh* is empty).  *fresh*
        becomes the keyset while that is still empty."""
        if not fresh:
            return None
        existing = self.keyset(predicate)
        if existing:
            existing.update(fresh)
        else:
            self._keys[predicate] = fresh
        fresh_keys = list(fresh)
        fresh_cols = _unpack(fresh_keys, arity, self.base)
        cols = self._cols.get(predicate)
        if cols is None:
            cols = self._cols[predicate] = [[] for _ in range(arity)]
            self._counts[predicate] = 0
        for column, fresh_column in zip(cols, fresh_cols):
            column.extend(fresh_column)
        self._counts[predicate] += len(fresh_keys)
        self._arity.setdefault(predicate, arity)
        return Batch(fresh_keys, fresh_cols)

    def domain(self) -> List[int]:
        """The active domain, deterministically ordered (only consulted
        when some rule is unsafe).

        A derived row's ids come from body rows, head constants or this
        domain, so derivation never widens it: the image's extensional
        domain plus the program's constants is the whole of it, fixed
        once every plan is resolved.  Constants that other programs
        appended to the shared interner stay out.
        """
        domain = self._image.domain
        return [*domain, *sorted(c for c in self._constants
                                 if c not in domain)]

    @property
    def idb(self) -> frozenset:
        """The predicates this store derives into."""
        return self._idb

    def value_columns(self, predicate: str) -> List[List]:
        """The relation's columns as lists of bare values, read off the
        id columns (C-level ``map``); builds no :class:`Constant`."""
        getter = self._values.__getitem__
        return [list(map(getter, col)) for col in self.cols(predicate)]

    def unintern_rows(self, predicate: str):
        """The relation as a frozenset of constant tuples -- C-level
        ``zip`` over ``map``-translated columns.

        Derived relations are memoized on the shared :class:`EdbImage` keyed by the *exact* packed keyset (plus
        predicate, arity and packed base, so re-interpretation under a
        different interner state can never alias): re-deriving the same
        relation -- warm benchmark repeats, repeated service decisions
        -- skips re-building the constant tuples entirely.  The key
        match is by content equality, not by hash alone, so a hit is
        always the identical relation.
        """
        count = self.count(predicate)
        if not count:
            return frozenset()
        cols = self.cols(predicate)
        if not cols:  # 0-ary relation with at least one (empty) row
            return frozenset({()})
        cache_key = None
        if predicate in self._idb:
            image = self._image
            cache_key = (predicate, len(cols), self.base,
                         frozenset(self.keyset(predicate)))
            cached = image.frozen.get(cache_key)
            if cached is not None:
                return cached
        getter = self._values.__getitem__
        rows = frozenset(zip(*[map(Constant, map(getter, col))
                               for col in cols]))
        if cache_key is not None:
            if len(image.frozen) >= EdbImage._MAX_FROZEN:
                image.frozen.clear()
            image.frozen[cache_key] = rows
        return rows


# ----------------------------------------------------------------------
# Batch plan execution.
# ----------------------------------------------------------------------

def _gather(column: Sequence[int], ids: List[int]) -> List[int]:
    return list(map(column.__getitem__, ids))


# ----------------------------------------------------------------------
# Fused batch kernels.
#
# Two techniques on top of plain batch execution (probe, fan out,
# gather, filter):
#
# * **Radix-partitioned hash joins.**  A delta or full scan whose atom
#   equi-joins an earlier-bound register no longer cross-products the
#   frontier and filters: the scan side is partitioned by its join
#   column into per-key row buckets (single-level radix on the full
#   key -- CPython dict buckets; finer bit-level passes lose to the
#   dict) and probed with the frontier's register column like any
#   other index.  Turns the O(frontier x relation) candidate build
#   into O(frontier + relation + matches).
# * **Fused filter+project.**  Constant and same-atom equality filters
#   on scan steps are applied to the relation *before* it meets the
#   frontier (``map(payload.__eq__, col)`` bitmaps -- the filtered
#   cross product is never materialized); a backward liveness pass over
#   the register program drops dead registers at each step (no gathers
#   for columns nothing downstream reads), and steps carrying no live
#   registers skip building the frontier-correspondence column
#   ``out_f`` entirely.
#
# The metadata is compiled once per ResolvedPlan (cached on its
# ``fused`` slot).  Bit-identity with the interpretive oracle is
# asserted by the differential fuzz harness (EVAL_MATRIX cells) and
# tests/test_columnar.
# ----------------------------------------------------------------------

class _FusedStep:
    """Precompiled per-step metadata for :func:`execute_batch_fused`."""

    __slots__ = ("scan", "const_ops", "samestep", "join_check", "residual",
                 "binds", "live_binds", "carry", "needs_f")

    def __init__(self, scan, const_ops, samestep, join_check, residual,
                 binds, live_binds, carry, needs_f):
        self.scan = scan              # True: delta/full scan; False: probe
        self.const_ops = const_ops    # ((pos, payload), ...) pushed down
        self.samestep = samestep      # ((check_pos, bind_pos), ...) pushed down
        self.join_check = join_check  # (check_pos, reg) hash-join pivot
        self.residual = residual      # ((pos, op, payload), ...) leftover
        self.binds = binds            # ((pos, reg), ...) all binds
        self.live_binds = live_binds  # binds someone downstream reads
        self.carry = carry            # regs gathered through out_f
        self.needs_f = needs_f        # must out_f be materialized?


def _compile_fused(rplan: ResolvedPlan) -> Tuple[_FusedStep, ...]:
    """Liveness analysis + filter pushdown over the register program."""
    steps = rplan.steps
    nsteps = len(steps)
    # Backward pass: live_after[i] = registers read by steps > i or the
    # head projection.  Binds kill, reads (index probes, checks) gen.
    needed = {payload for is_reg, payload in rplan.head_ops if is_reg}
    live_after: List[frozenset] = [frozenset()] * nsteps
    for i in range(nsteps - 1, -1, -1):
        live_after[i] = frozenset(needed)
        _, _, index_spec, ops = steps[i]
        for _, op, payload in ops:
            if op == OP_BIND:
                needed.discard(payload)
        for _, op, payload in ops:
            if op == OP_CHECK:
                needed.add(payload)
        if index_spec is not None and index_spec[1]:
            needed.add(index_spec[2])

    fused: List[_FusedStep] = []
    bound: frozenset = frozenset()  # live regs entering the step
    for i, (predicate, use_delta, index_spec, ops) in enumerate(steps):
        live = live_after[i]
        binds = tuple((pos, payload) for pos, op, payload in ops
                      if op == OP_BIND)
        bind_regs = {payload for _, payload in binds}
        scan = use_delta or index_spec is None
        const_ops: tuple = ()
        samestep: tuple = ()
        join_check = None
        if scan:
            # Push constant and same-atom equality filters down to the
            # relation; pick the first earlier-reg check as the hash
            # join pivot; everything else stays residual.
            const_ops = tuple((pos, payload) for pos, op, payload in ops
                              if op == OP_CONST)
            bind_pos = {payload: pos for pos, payload in binds}
            samestep_list = []
            residual_list = []
            for pos, op, payload in ops:
                if op != OP_CHECK:
                    continue
                if payload in bind_regs:
                    samestep_list.append((pos, bind_pos[payload]))
                elif payload in bound and join_check is None:
                    join_check = (pos, payload)
                else:
                    residual_list.append((pos, OP_CHECK, payload))
            samestep = tuple(samestep_list)
            residual = tuple(residual_list)
        else:
            residual = tuple(op for op in ops if op[1] != OP_BIND)
        carry = tuple(sorted(bound & live))
        needs_f = bool(carry) or any(payload in bound
                                     for _, op, payload in residual
                                     if op == OP_CHECK)
        live_binds = tuple((pos, reg) for pos, reg in binds if reg in live)
        fused.append(_FusedStep(scan, const_ops, samestep, join_check,
                                residual, binds, live_binds, carry, needs_f))
        bound = (bound | bind_regs) & live
    return tuple(fused)


def _probe_multi(index, key_col, needs_f: bool):
    """Probe a list-valued index with the frontier's key column; the
    fan-out runs in C (``chain.from_iterable``).  Returns ``(out_f,
    out_r)``; ``out_f`` is ``None`` when the caller carries no live
    registers."""
    matches = list(map(index.get, key_col, repeat(_EMPTY)))
    out_r = list(chain.from_iterable(matches))
    if not needs_f:
        return None, out_r
    return list(chain.from_iterable(map(
        repeat, range(len(matches)), map(len, matches)))), out_r


def execute_batch_fused(rplan: ResolvedPlan, store: ColumnStore, domain,
                        delta: Optional[Batch] = None,
                        dedup: Optional[Set[int]] = None) -> Set[int]:
    """One application of *rplan* over whole column slices.

    Returns the set of packed keys of the derived head rows that are
    not in *dedup* (the stable store's keyset).
    When *delta* is given, the plan's delta step scans it instead of
    the store (semi-naive mode).
    """
    check_deadline()
    meta = rplan.fused
    if meta is None:
        meta = rplan.fused = _compile_fused(rplan)
    regs: Dict[int, Sequence[int]] = {}
    n = -1  # -1: virgin frontier (one empty row)
    for (predicate, use_delta, index_spec, _ops), step in zip(rplan.steps,
                                                              meta):
        if use_delta:
            rel_cols: Sequence[Sequence[int]] = delta.cols
            rel_n = delta.n
        else:
            rel_cols = store.cols(predicate)
            rel_n = store.count(predicate)

        gathered: Dict[int, Sequence[int]] = {}
        if step.scan:
            if rel_n == 0:
                return set()
            # --- pushed-down filters: relation-level bitmaps ---
            sel: Optional[List[int]] = None  # surviving relation row ids
            for pos, payload in step.const_ops:
                column = (rel_cols[pos] if sel is None
                          else _gather(rel_cols[pos], sel))
                universe = range(rel_n) if sel is None else sel
                sel = list(compress(universe, map(payload.__eq__, column)))
                if not sel:
                    return set()
            for check_pos, bind_pos in step.samestep:
                if sel is None:
                    left: Sequence[int] = rel_cols[check_pos]
                    right: Sequence[int] = rel_cols[bind_pos]
                    universe = range(rel_n)
                else:
                    left = _gather(rel_cols[check_pos], sel)
                    right = _gather(rel_cols[bind_pos], sel)
                    universe = sel
                sel = list(compress(universe, map(_eq, left, right)))
                if not sel:
                    return set()
            if step.join_check is not None and n >= 0:
                # --- radix-partitioned hash join ---
                check_pos, jreg = step.join_check
                column = rel_cols[check_pos]
                buckets: Dict[int, List[int]] = {}
                setdefault = buckets.setdefault
                if sel is None:
                    for row_id, value in enumerate(column):
                        setdefault(value, []).append(row_id)
                else:
                    for row_id in sel:
                        setdefault(column[row_id], []).append(row_id)
                out_f, out_r = _probe_multi(buckets, regs[jreg],
                                            step.needs_f)
            elif n < 0:
                out_f = None
                out_r = range(rel_n) if sel is None else sel
            elif n == 0:
                return set()
            else:
                # Genuine cross product with the frontier (no shared
                # variables) -- rare.
                rows = list(range(rel_n)) if sel is None else sel
                out_r = rows * n
                out_f = [i for i in range(n) for _ in rows]
        else:
            position, is_reg, payload = index_spec
            index, unique = store.index(predicate, position)
            if is_reg and n >= 0:
                key_col = regs[payload]
                if unique:
                    hits = list(map(index.get, key_col))
                    if None in hits:
                        if step.needs_f:
                            out_f = [i for i, h in enumerate(hits)
                                     if h is not None]
                            out_r = _gather(hits, out_f)
                        else:
                            out_f = None
                            out_r = [h for h in hits if h is not None]
                    else:
                        out_r = hits
                        out_f = range(n) if step.needs_f else None
                else:
                    out_f, out_r = _probe_multi(index, key_col,
                                                step.needs_f)
            else:
                # Constant probe (reg probes off a virgin frontier are
                # never compiled).
                ids = index.get(payload if not is_reg else None)
                if ids is None:
                    return set()
                if unique:
                    ids = [ids]
                if n <= 0:
                    out_r = list(ids)
                    if n == 0:
                        return set()
                    out_f = None
                else:
                    out_r = list(ids) * n
                    out_f = [i for i in range(n) for _ in ids]

        if not out_r:
            return set()

        # --- residual ops (probe-step filters, spill-over checks) ---
        pending_binds = {reg: pos for pos, reg in step.binds}
        identity = type(out_r) is range
        for pos, op, payload in step.residual:
            column = gathered.get(pos)
            if column is None:
                column = rel_cols[pos] if identity else _gather(
                    rel_cols[pos], out_r)
                gathered[pos] = column
            if op == OP_CONST:
                keep = list(compress(range(len(column)),
                                     map(payload.__eq__, column)))
            else:  # OP_CHECK
                bound_pos = pending_binds.get(payload)
                if bound_pos is not None and payload not in regs:
                    other = gathered.get(bound_pos)
                    if other is None:
                        other = rel_cols[bound_pos] if identity else _gather(
                            rel_cols[bound_pos], out_r)
                        gathered[bound_pos] = other
                else:
                    other = (_gather(regs[payload], out_f)
                             if out_f is not None else [])
                keep = list(compress(range(len(column)),
                                     map(_eq, column, other)))
            if len(keep) != len(column):
                if not keep:
                    return set()
                out_r = _gather(out_r, keep)
                identity = False
                if out_f is not None:
                    out_f = _gather(out_f, keep)
                gathered = {p: _gather(col, keep)
                            for p, col in gathered.items()}

        # --- next frontier: live registers only ---
        next_regs: Dict[int, Sequence[int]] = {}
        if step.carry:
            if type(out_f) is range:  # identity selection
                for reg in step.carry:
                    next_regs[reg] = regs[reg]
            else:
                for reg in step.carry:
                    next_regs[reg] = _gather(regs[reg], out_f)
        whole = type(out_r) is range
        for pos, reg in step.live_binds:
            column = gathered.get(pos)
            if column is None:
                column = rel_cols[pos] if whole else _gather(
                    rel_cols[pos], out_r)
            next_regs[reg] = column
        regs = next_regs
        n = len(out_r)

    if n < 0:
        n = 1  # empty body: one empty binding
    if n == 0:
        return set()

    # --- unsafe head variables range over the active domain ---
    for reg in rplan.unsafe_regs:
        m = len(domain)
        if m == 0:
            return set()
        spread = [i for i in range(n) for _ in range(m)]
        regs = {r: _gather(col, spread) for r, col in regs.items()}
        regs[reg] = list(domain) * n
        n *= m

    # --- emit: head columns -> packed keys -> dedup ---
    head_cols = [regs[payload] if is_reg else [payload] * n
                 for is_reg, payload in rplan.head_ops]
    keys = set(_pack(head_cols, n, store.base))
    if dedup:
        keys.difference_update(dedup)
    return keys


# ----------------------------------------------------------------------
# Fixpoint drivers (stage/fixpoint bookkeeping mirrors the interpretive
# naive_evaluate / seminaive_evaluate in engine.py).
# ----------------------------------------------------------------------

def _resolved_plans(program: Program, store: ColumnStore, cache: PlanCache):
    full = [(rule, rule.head.predicate, len(rule.head.args),
             cache.plan(rule, None).resolve(store))
            for rule in program.rules]
    return full


def columnar_naive(program: Program, database: Database,
                   max_stages: Optional[int] = None, *,
                   cache: Optional[PlanCache] = None):
    """Naive rounds over batch-executed plans; same stage bookkeeping
    as :func:`~repro.datalog.engine.naive_evaluate`, returned as a lazy
    :class:`~repro.datalog.result.EvaluationResult` over the store."""
    cache = PlanCache() if cache is None else cache
    idb = program.idb_predicates
    store = ColumnStore(database, idb)
    full = _resolved_plans(program, store, cache)
    store.seal()
    needs_domain = any(rplan.unsafe_regs for _, _, _, rplan in full)
    domain = store.domain() if needs_domain else ()
    stage = 0
    fixpoint = False
    while max_stages is None or stage < max_stages:
        check_deadline()
        derived: Dict[str, Tuple[Set[int], int]] = {}
        for _, head_predicate, arity, rplan in full:
            keys = execute_batch_fused(rplan, store, domain,
                                       dedup=store.keyset(head_predicate))
            entry = derived.get(head_predicate)
            if entry is None:
                derived[head_predicate] = (keys, arity)
            else:
                entry[0].update(keys)
        changed = False
        for predicate, (keys, arity) in derived.items():
            if store.add_keys(predicate, keys, arity):
                changed = True
        stage += 1
        if not changed:
            fixpoint = True
            stage -= 1  # the last round derived nothing new
            break
    return EvaluationResult(stages=stage, fixpoint=fixpoint, store=store)


def columnar_seminaive(program: Program, database: Database,
                       max_stages: Optional[int] = None, *,
                       cache: Optional[PlanCache] = None):
    """Semi-naive deltas over batch-executed plans; mirrors
    :func:`~repro.datalog.engine.seminaive_evaluate` and returns like
    :func:`columnar_naive`."""
    cache = PlanCache() if cache is None else cache
    idb = program.idb_predicates
    store = ColumnStore(database, idb)
    full = _resolved_plans(program, store, cache)
    delta_plans = [
        [(index, cache.plan(rule, index).resolve(store))
         for index, atom in enumerate(rule.body) if atom.predicate in idb]
        for rule in program.rules
    ]
    store.seal()
    needs_domain = any(rplan.unsafe_regs for _, _, _, rplan in full)
    domain = store.domain() if needs_domain else ()

    def _merge_delta(deltas: Dict[str, Optional[Batch]], predicate: str,
                     fresh: Optional[Batch]) -> bool:
        """Fold a fresh batch into the round's delta for *predicate*.

        Batches from different rules are disjoint by construction
        (:func:`execute_batch_fused` filtered each against the keyset,
        which already held the earlier batches' rows), so
        concatenation preserves key uniqueness.  Returns whether
        anything was added.
        """
        if fresh is None:
            return False
        current = deltas[predicate]
        if current is None:
            deltas[predicate] = fresh
        else:
            current.keys.extend(fresh.keys)
            for column, fresh_column in zip(current.cols, fresh.cols):
                column.extend(fresh_column)
            current.n += fresh.n
        return True

    # Stage 1: full application of every rule to the EDB-only store
    # (later rules see earlier rules' insertions, as in the reference).
    delta: Dict[str, Optional[Batch]] = {p: None for p in idb}
    for _, head_predicate, arity, rplan in full:
        keys = execute_batch_fused(rplan, store, domain,
                                   dedup=store.keyset(head_predicate))
        _merge_delta(delta, head_predicate,
                     store.add_keys(head_predicate, keys, arity))
    any_delta = any(delta.values())
    stage = 1 if any_delta else 0
    fixpoint = not any_delta

    while any(delta.values()) and (max_stages is None or stage < max_stages):
        check_deadline()
        new_delta: Dict[str, Optional[Batch]] = {p: None for p in idb}
        changed = False
        for (rule, head_predicate, arity, _), variants in zip(full, delta_plans):
            for index, rplan in variants:
                focus = delta.get(rule.body[index].predicate)
                if not focus:
                    continue
                keys = execute_batch_fused(
                    rplan, store, domain, delta=focus,
                    dedup=store.keyset(head_predicate))
                fresh = store.add_keys(head_predicate, keys, arity)
                if _merge_delta(new_delta, head_predicate, fresh):
                    changed = True
        delta = new_delta
        if changed:
            stage += 1
        else:
            fixpoint = True
            break
    if not any(delta.values()):
        fixpoint = True
    return EvaluationResult(stages=stage, fixpoint=fixpoint, store=store)
