"""Bottom-up evaluation of Datalog programs.

Two execution paths compute the same fixpoints:

* the *columnar* path (the default, ``EngineConfig(compiled=True)``)
  compiles each rule once into a
  :class:`~repro.datalog.plan.JoinPlan`, interns constants to small
  ints, and executes the plans as batch join kernels over relation
  columns (:mod:`repro.datalog.columns`);
* the *interpretive* path (:func:`naive_evaluate`,
  :func:`seminaive_evaluate`, ``EngineConfig(compiled=False)``)
  re-derives a greedy join order on every rule application -- kept as
  the independent oracle the columnar path is tested against.

Both are wrapped by :class:`Engine`, configured by
:class:`EngineConfig`; the module-level :func:`evaluate` and
:func:`query` route through the ambient session's engine.

The stage-bounded relation ``Q^i_Pi(D)`` of Section 2.1 ("facts
deducible by at most i applications of the rules") is exposed via the
``max_stages`` argument: stage *i* performs one parallel application of
all rules to the stage *i-1* result.

Unsafe rules (head variables that do not occur in the body, including
empty-body rules as in Example 6.2) are evaluated under active-domain
semantics: unbound head variables range over the constants occurring in
the database, the program, or previously derived facts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..budget import check_deadline
from ..context import current_session as _current_session
from .atoms import Atom
from .columns import columnar_naive, columnar_seminaive
from .database import Database
from .errors import UnsafeProgramError, ValidationError
from .plan import PlanCache
from .program import Program
from .result import EvaluationResult, Row
from .rules import Rule
from .terms import Constant, Variable, is_variable


def _match_rows(atom: Atom, rows: Iterable[Row], binding: Dict[Variable, Constant]):
    """Yield extensions of *binding* unifying *atom* with each row."""
    args = atom.args
    for row in rows:
        extended = dict(binding)
        ok = True
        for arg, value in zip(args, row):
            if is_variable(arg):
                bound = extended.get(arg)
                if bound is None:
                    extended[arg] = value
                elif bound != value:
                    ok = False
                    break
            elif arg != value:
                ok = False
                break
        if ok:
            yield extended


class _Store:
    """Relation store used during evaluation: pred -> set of rows.

    Maintains lazily-built hash indexes per (predicate, position) so
    joins can look up candidate rows by a bound argument instead of
    scanning the relation.
    """

    def __init__(self, database: Database):
        self._rows: Dict[str, Set[Row]] = {}
        self._indexes: Dict[Tuple[str, int], Dict[Constant, Set[Row]]] = {}
        for predicate, row in database.facts():
            check_deadline()
            self._rows.setdefault(predicate, set()).add(row)

    def rows(self, predicate: str) -> Set[Row]:
        return self._rows.get(predicate, set())

    def candidates(self, predicate: str, position: int, value: Constant) -> Set[Row]:
        """Rows of *predicate* whose *position*-th column is *value*."""
        key = (predicate, position)
        index = self._indexes.get(key)
        if index is None:
            index = {}
            for row in self._rows.get(predicate, ()):
                index.setdefault(row[position], set()).add(row)
            self._indexes[key] = index
        return index.get(value, set())

    def add_all(self, predicate: str, rows: Iterable[Row]) -> Set[Row]:
        """Insert rows; return the genuinely new ones."""
        existing = self._rows.setdefault(predicate, set())
        fresh = {row for row in rows if row not in existing}
        existing.update(fresh)
        if fresh:
            for (pred, position), index in self._indexes.items():
                if pred != predicate:
                    continue
                for row in fresh:
                    index.setdefault(row[position], set()).add(row)
        return fresh


def _active_domain(database: Database, program: Program, store: _Store) -> List[Constant]:
    domain: Set[Constant] = set(database.active_domain())
    domain.update(program.constants)
    for predicate in program.idb_predicates:
        for row in store.rows(predicate):
            domain.update(row)
    return sorted(domain, key=repr)


def _apply_rule(rule: Rule, store: _Store, domain: List[Constant],
                delta: Optional[Tuple[int, Set[Row]]] = None) -> Set[Row]:
    """All head rows derivable by one application of *rule*.

    When *delta* is ``(index, rows)``, the body atom at *index* is
    matched against *rows* instead of the full store (semi-naive mode).
    """
    body = rule.body
    plan: List[Tuple[Atom, Optional[Set[Row]]]] = []
    for i, atom in enumerate(body):
        source = delta[1] if delta is not None and i == delta[0] else None
        plan.append((atom, source))
    # Order the join greedily, keeping the (atom, source) association.
    ordered: List[Tuple[Atom, Optional[Set[Row]]]] = []
    remaining = list(plan)
    bound: Set[Variable] = set()
    while remaining:
        def score(entry):
            atom = entry[0]
            variables = atom.variable_set()
            return (len(variables & bound) + len(atom.constants()), -len(variables - bound))

        best = max(remaining, key=score)
        remaining.remove(best)
        ordered.append(best)
        bound.update(best[0].variable_set())

    bindings: List[Dict[Variable, Constant]] = [{}]
    bound_so_far: Set[Variable] = set()
    for atom, source in ordered:
        # Pick an indexable position: a constant argument or a variable
        # bound by the join prefix (the bound set is the same for every
        # partial binding in the batch).
        index_position = None
        for position, arg in enumerate(atom.args):
            if not is_variable(arg) or arg in bound_so_far:
                index_position = position
                break
        next_bindings: List[Dict[Variable, Constant]] = []
        if source is not None or index_position is None:
            rows = source if source is not None else store.rows(atom.predicate)
            for binding in bindings:
                check_deadline()
                next_bindings.extend(_match_rows(atom, rows, binding))
        else:
            arg = atom.args[index_position]
            for binding in bindings:
                check_deadline()
                value = binding[arg] if is_variable(arg) else arg
                rows = store.candidates(atom.predicate, index_position, value)
                next_bindings.extend(_match_rows(atom, rows, binding))
        bindings = next_bindings
        bound_so_far.update(atom.variable_set())
        if not bindings:
            return set()

    derived: Set[Row] = set()
    head = rule.head
    for binding in bindings:
        check_deadline()
        missing = [v for v in head.variable_set() if v not in binding]
        if missing:
            # Unsafe rule: instantiate unbound head variables over the
            # active domain (empty domain derives nothing).
            for values in product(domain, repeat=len(missing)):
                full = dict(binding)
                full.update(zip(missing, values))
                derived.add(tuple(full[a] if is_variable(a) else a for a in head.args))
        else:
            derived.add(tuple(binding[a] if is_variable(a) else a for a in head.args))
    return derived


def naive_evaluate(program: Program, database: Database,
                   max_stages: Optional[int] = None) -> EvaluationResult:
    """Naive (Jacobi-style) fixpoint evaluation.

    Stage *i* applies every rule to the stage *i-1* store, so the result
    after ``max_stages=i`` is exactly ``Q^i_Pi(D)`` for every IDB
    predicate Q.
    """
    store = _Store(database)
    stage = 0
    fixpoint = False
    while max_stages is None or stage < max_stages:
        check_deadline()
        domain = _active_domain(database, program, store)
        changed = False
        derived: Dict[str, Set[Row]] = {}
        for rule in program.rules:
            derived.setdefault(rule.head.predicate, set()).update(
                _apply_rule(rule, store, domain)
            )
        for predicate, rows in derived.items():
            if store.add_all(predicate, rows):
                changed = True
        stage += 1
        if not changed:
            fixpoint = True
            stage -= 1  # the last round derived nothing new
            break
    idb = {p: frozenset(store.rows(p)) for p in program.idb_predicates}
    return EvaluationResult(idb=idb, stages=stage, fixpoint=fixpoint)


def seminaive_evaluate(program: Program, database: Database,
                       max_stages: Optional[int] = None) -> EvaluationResult:
    """Semi-naive fixpoint evaluation with per-IDB-occurrence deltas."""
    store = _Store(database)
    idb = program.idb_predicates
    domain = _active_domain(database, program, store)

    # Stage 1: full application of every rule to the EDB-only store.
    delta: Dict[str, Set[Row]] = {p: set() for p in idb}
    for rule in program.rules:
        fresh = store.add_all(rule.head.predicate, _apply_rule(rule, store, domain))
        delta[rule.head.predicate].update(fresh)
    stage = 1 if any(delta.values()) else 0
    fixpoint = not any(delta.values())

    while any(delta.values()) and (max_stages is None or stage < max_stages):
        check_deadline()
        domain = _active_domain(database, program, store)
        new_delta: Dict[str, Set[Row]] = {p: set() for p in idb}
        changed = False
        for rule in program.rules:
            for index, atom in enumerate(rule.body):
                if atom.predicate not in idb:
                    continue
                focus = delta.get(atom.predicate)
                if not focus:
                    continue
                rows = _apply_rule(rule, store, domain, delta=(index, focus))
                fresh = store.add_all(rule.head.predicate, rows)
                if fresh:
                    new_delta[rule.head.predicate].update(fresh)
                    changed = True
        delta = new_delta
        if changed:
            stage += 1
        else:
            fixpoint = True
            break
    if not any(delta.values()):
        fixpoint = True
    idb_rows = {p: frozenset(store.rows(p)) for p in idb}
    return EvaluationResult(idb=idb_rows, stages=stage, fixpoint=fixpoint)


_STRATEGIES = ("auto", "naive", "seminaive")


def _validate_program(program: Program) -> None:
    """The ``EngineConfig(validate=True)`` gate: raise
    :class:`UnsafeProgramError` when the static analyzer finds
    error-severity diagnostics."""
    # Local import: repro.analysis sits above the datalog substrate.
    from ..analysis.checks import safety_errors

    errors = safety_errors(program)
    if errors:
        raise UnsafeProgramError(
            f"program rejected by validate gate: "
            f"{len(errors)} error diagnostic(s), first: {errors[0].render()}",
            diagnostics=[d.as_dict() for d in errors])


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of the evaluation engine.

    ``strategy``
        ``"auto"`` (semi-naive, falling back to naive rounds when
        ``max_stages`` is given -- stage-bounded semantics is defined by
        naive rounds), ``"naive"``, or ``"seminaive"``.
    ``compiled``
        Use the columnar path (compiled join plans executed as batch
        kernels over column stores, :mod:`repro.datalog.columns`)
        instead of the interpretive oracle.
    ``validate``
        Refuse programs with error-severity static diagnostics:
        :meth:`Engine.evaluate` raises
        :class:`~repro.datalog.errors.UnsafeProgramError` (carrying
        the analyzer's diagnostics) instead of evaluating unsafe rules
        under active-domain semantics.  Off by default -- the engines
        define active-domain behaviour for unsafe rules and the fuzz
        differential relies on it.
    """

    strategy: str = "auto"
    compiled: bool = True
    validate: bool = False

    def __post_init__(self):
        if self.strategy not in _STRATEGIES:
            raise ValidationError(
                f"unknown strategy {self.strategy!r}; expected one of {_STRATEGIES}"
            )


#: Named engine configurations: the labels of the CLI's ``--engine``,
#: the batch matrix and the service's ``"engine"`` field.  "columnar"
#: is the shipped default (batch join kernels over column stores);
#: "interpretive" is the per-tuple evaluator kept as the oracle.
ENGINE_CONFIGS: Dict[str, EngineConfig] = {
    "columnar": EngineConfig(compiled=True),
    "interpretive": EngineConfig(compiled=False),
}


class Engine:
    """A reusable evaluator: compiled plans are cached across calls.

    Both paths produce bit-identical :class:`EvaluationResult` values
    (including ``stages`` and ``fixpoint``); the columnar path is the
    default and the faster one.
    """

    def __init__(self, config: Optional[EngineConfig] = None):
        self.config = config or EngineConfig()
        self._plans = PlanCache()

    def evaluate(self, program: Program, database: Database,
                 max_stages: Optional[int] = None) -> EvaluationResult:
        """Evaluate *program* on *database* under this configuration."""
        cfg = self.config
        if cfg.validate:
            _validate_program(program)
        use_naive = cfg.strategy == "naive" or (
            cfg.strategy == "auto" and max_stages is not None)
        if not cfg.compiled:
            runner = naive_evaluate if use_naive else seminaive_evaluate
            return runner(program, database, max_stages=max_stages)
        runner = columnar_naive if use_naive else columnar_seminaive
        return runner(program, database, max_stages, cache=self._plans)

    def query(self, program: Program, database: Database, goal: str,
              max_stages: Optional[int] = None) -> FrozenSet[Row]:
        """The relation ``goal_Pi(D)`` (or its stage-bounded version)."""
        program.require_goal(goal)
        return self.evaluate(program, database, max_stages=max_stages).facts(goal)

    def clear_plans(self) -> None:
        """Drop this engine's compiled-plan cache."""
        self._plans.clear()

    def plan_cache_size(self) -> int:
        """Number of compiled plans currently cached (diagnostics --
        the session facade reports it in ``cache_stats()``)."""
        return len(self._plans)


def default_engine() -> Engine:
    """The ambient session's engine (used by :func:`evaluate`).

    Resolution goes through the ambient :class:`~repro.session.Session`
    held in a :class:`contextvars.ContextVar`, so concurrent sessions
    with different engine configurations do not share a mutable module
    global.  While :mod:`repro.session` is still importing (no session
    exists yet) a throwaway engine answers.
    """
    session = _current_session()
    return session.engine if session is not None else Engine()


def evaluate(program: Program, database: Database,
             max_stages: Optional[int] = None,
             engine: Optional[Engine] = None) -> EvaluationResult:
    """Evaluate *program* on *database* (columnar semi-naive by default;
    see module docs).  ``engine=None`` uses the ambient session's
    engine."""
    return (engine or default_engine()).evaluate(program, database,
                                                 max_stages=max_stages)


def query(program: Program, database: Database, goal: str,
          max_stages: Optional[int] = None,
          engine: Optional[Engine] = None) -> FrozenSet[Row]:
    """The relation ``goal_Pi(D)`` (or its stage-bounded version)."""
    return (engine or default_engine()).query(program, database, goal,
                                              max_stages=max_stages)
