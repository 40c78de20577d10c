"""The session facade: one configured entry point for every decision.

The paper's decision procedures (containment in a UCQ, Theorem 5.12;
equivalence to a nonrecursive program, Theorem 6.5; the boundedness
semi-decision) plus bottom-up evaluation and the scenario registry are
methods of a :class:`Session`, each returning one uniform
:class:`Decision`.  A session *is* its configuration: an
:class:`~repro.datalog.engine.EngineConfig` chosen when the session is
built, plus its caches (compiled plans, automaton factories, EDB
images -- a private :class:`~repro.context.CacheScope` per session).
No decision method takes an engine of its own, so every decision is
computed by the engine its :attr:`Decision.fingerprint` names.  To
decide on another engine, build another session.

Two sessions are fully isolated: different backends, separate caches,
zero bleed -- the enabling step for concurrent multi-config serving.
The ambient session is held in a :class:`contextvars.ContextVar`; the
*default* one owns the process-global cache scope.  The free functions
of :mod:`repro.core` are the procedures themselves: they resolve
caches and engine from the ambient session, and the session methods
call them with the session activated.  :meth:`Session.run_payload` is
the one dispatcher from a payload kind to a decision method; the
scenario runner, the CLI, the service workers and the fuzz harness all
go through it.

    >>> from repro import Session, parse_program
    >>> session = Session()
    >>> recursive = parse_program('''
    ...     buys(X, Y) :- likes(X, Y).
    ...     buys(X, Y) :- trendy(X), buys(Z, Y).
    ... ''')
    >>> nonrecursive = parse_program('''
    ...     buys(X, Y) :- likes(X, Y).
    ...     buys(X, Y) :- trendy(X), likes(Z, Y).
    ... ''')
    >>> decision = session.equivalent_to_nonrecursive(
    ...     recursive, nonrecursive, goal="buys")
    >>> bool(decision), decision.verdict["equivalent"]
    (True, True)
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from time import perf_counter
from typing import TYPE_CHECKING, Any, Dict, Iterator, Mapping, Optional

from . import context as _context
from .budget import BudgetExhausted, time_budget
from .datalog.database import Database
from .datalog.engine import Engine, EngineConfig
from .datalog.errors import UnsafeProgramError, ValidationError
from .datalog.parser import parse_program
from .datalog.program import Program
from .datalog.result import rows_checksum

if TYPE_CHECKING:
    from .cq.query import ConjunctiveQuery, UnionOfConjunctiveQueries

__all__ = [
    "Decision",
    "Session",
    "config_fingerprint",
    "current_session",
    "decide_payload",
    "default_session",
    "rows_checksum",
]


def config_fingerprint(engine: "EngineConfig") -> str:
    """The stable digest of an engine configuration -- what
    :attr:`Session.fingerprint` reports, computable without
    constructing a session (the decision service derives coalescing
    keys from it)."""
    blob = repr(sorted(asdict(engine).items()))
    return hashlib.sha1(blob.encode()).hexdigest()[:16]


#: Per-kind verdict key that drives ``bool(decision)``.
_TRUTH_KEYS = {
    "containment": "contained",
    "equivalence": "equivalent",
    "boundedness": "bounded",
}


@dataclass
class Decision:
    """The uniform outcome of every session entry point.

    ``verdict`` is the JSON-serializable core (the keys the scenario
    registry checks against ground truth); ``certificate`` carries the
    procedure's rich payload (a witness proof tree, a witness union, an
    :class:`~repro.datalog.engine.EvaluationResult`); ``stats`` and
    ``timings`` carry per-phase search metrics and wall-clock seconds;
    ``fingerprint`` identifies the producing session's configuration,
    so two decisions are comparable only when their fingerprints match;
    ``checksum`` is the row digest of evaluation answers; ``ok`` is the
    ground-truth check when one exists (scenario runs); ``meta`` holds
    carrier fields (scenario name, matrix cell, worker pid).

    The resilience layer adds two fields: ``error`` is the
    error-taxonomy category of a job that was quarantined after
    exhausting its retries (``None`` for a real verdict); ``attempts``
    counts the tries that produced this decision (1 = first try; every
    retry runs on the same configuration).  Both round-trip through
    :meth:`record`.

    ``raw`` is the procedure's own result object
    (:class:`~repro.core.tree_containment.ContainmentResult`,
    :class:`~repro.core.equivalence.EquivalenceResult`,
    :class:`~repro.core.boundedness.BoundednessResult`, the goal rows
    of :meth:`Session.query`, ...), e.g. for reading a certificate's
    invariant.

    Decisions are dict-compatible for the batch runner's trajectory
    records: ``decision["verdict"]`` reads from :meth:`record`.
    """

    kind: str
    verdict: Dict[str, Any]
    ok: Optional[bool] = None
    stats: Dict[str, Any] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    fingerprint: str = ""
    checksum: Optional[str] = None
    error: Optional[str] = None
    attempts: int = 1
    certificate: Any = field(default=None, repr=False)
    meta: Dict[str, Any] = field(default_factory=dict)
    raw: Any = field(default=None, repr=False, compare=False)

    def __bool__(self) -> bool:
        if self.error is not None:
            return False
        if self.ok is False:
            return False
        key = _TRUTH_KEYS.get(self.kind)
        if key is not None:
            return bool(self.verdict.get(key))
        return True

    # -- dict compatibility (trajectory records, scenario harnesses) --

    def record(self) -> Dict[str, Any]:
        """The JSON-serializable view: ``meta`` flattened, then the
        uniform fields.  This is what the batch runner writes to the
        ``BENCH_*.json`` trajectories."""
        rec: Dict[str, Any] = dict(self.meta)
        rec["kind"] = self.kind
        rec["verdict"] = dict(self.verdict)
        rec["ok"] = self.ok
        rec["stats"] = dict(self.stats)
        rec["timings"] = dict(self.timings)
        rec["fingerprint"] = self.fingerprint
        rec["attempts"] = self.attempts
        if self.checksum is not None:
            rec["checksum"] = self.checksum
        if self.error is not None:
            rec["error"] = self.error
        return rec

    #: Dataclass fields surfaced as record keys (uniform fields win
    #: over ``meta`` on collision, matching :meth:`record`).
    _RECORD_FIELDS = ("kind", "verdict", "ok", "stats", "timings",
                      "fingerprint", "attempts")

    #: Optional fields that appear as record keys only when set.
    _OPTIONAL_FIELDS = ("checksum", "error")

    def __getitem__(self, key: str) -> Any:
        # Field-direct reads: hot in the batch runner (job-order
        # reassembly, verdict comparison), so no record() rebuild.
        if key in self._RECORD_FIELDS:
            return getattr(self, key)
        if key in self._OPTIONAL_FIELDS and getattr(self, key) is not None:
            return getattr(self, key)
        return self.meta[key]

    def get(self, key: str, default: Any = None) -> Any:
        try:
            return self[key]
        except KeyError:
            return default

    def __contains__(self, key: str) -> bool:
        if key in self._RECORD_FIELDS:
            return True
        if key in self._OPTIONAL_FIELDS:
            return getattr(self, key) is not None
        return key in self.meta

    def keys(self):
        return self.record().keys()

    def without_payload(self) -> "Decision":
        """A copy without ``certificate``/``raw`` -- the shape the
        batch runner ships across process boundaries (witness trees
        and engine results stay in the worker)."""
        return replace(self, certificate=None, raw=None)

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "Decision":
        """Rebuild a (payload-stripped) decision from its
        :meth:`record` dict -- the inverse the decision service's wire
        format relies on: non-uniform keys land back in ``meta``.

            >>> d = Decision("containment", {"contained": True},
            ...              meta={"scenario": "x"})
            >>> Decision.from_record(d.record()) == d
            True
        """
        record = dict(record)
        kwargs: Dict[str, Any] = {
            field_name: record.pop(field_name)
            for field_name in cls._RECORD_FIELDS + cls._OPTIONAL_FIELDS
            if field_name in record
        }
        return cls(meta=record, **kwargs)


class Session:
    """A configured, isolated entry point to every decision procedure.

    A session owns an engine configuration (and hence a compiled-plan
    cache) and a private cache scope; its decision methods activate
    the session in the ambient :class:`contextvars.ContextVar` for the
    duration of the call, so every cache the procedures consult
    (automaton factories, EDB images) resolves to this session's
    scope.  Methods return :class:`Decision`.

        >>> from repro import Session
        >>> from repro.datalog.engine import EngineConfig
        >>> fast = Session(engine=EngineConfig())
        >>> reference = Session(engine=EngineConfig(compiled=False))
        >>> fast.fingerprint != reference.fingerprint
        True
    """

    def __init__(self, engine: Optional[Any] = None,
                 name: Optional[str] = None):
        if isinstance(engine, Engine):
            self._engine = engine
            self.engine_config = engine.config
        elif engine is None or isinstance(engine, EngineConfig):
            self.engine_config = engine or EngineConfig()
            self._engine = Engine(self.engine_config)
        else:
            raise ValidationError(
                f"engine must be an Engine or EngineConfig, got {engine!r}"
            )
        self.name = name or f"session-{id(self):x}"
        self.caches = _context.CacheScope(self.name)
        self._fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    # Configuration identity.
    # ------------------------------------------------------------------

    @property
    def engine(self) -> Engine:
        """This session's (plan-cache-owning) evaluation engine."""
        return self._engine

    @property
    def config(self) -> Dict[str, Any]:
        """The JSON-able configuration the fingerprint hashes."""
        return {"engine": asdict(self.engine_config)}

    @property
    def fingerprint(self) -> str:
        """A stable digest of the configuration: two sessions with the
        same fingerprint decide identically (caches never affect
        verdicts, so the cache scope and name are excluded)."""
        if self._fingerprint is None:
            self._fingerprint = config_fingerprint(self.engine_config)
        return self._fingerprint

    def __repr__(self):
        return f"Session({self.name!r}, engine={self.engine_config})"

    # ------------------------------------------------------------------
    # Activation: make this session the ambient one.
    # ------------------------------------------------------------------

    @contextmanager
    def activated(self) -> Iterator["Session"]:
        """Make this session ambient for the ``with`` block: free
        functions and shared factories called inside resolve to this
        session's configuration and caches."""
        token = _context.activate(self)
        try:
            yield self
        finally:
            _context.deactivate(token)

    def __enter__(self) -> "Session":
        # The activation token is context-bound, so it is stacked on
        # the current context (not on self): one Session entered from
        # two threads must not pop the other thread's token.
        _context.push_session(self)
        return self

    def __exit__(self, *exc) -> bool:
        _context.pop_session()
        return False

    # ------------------------------------------------------------------
    # Decision construction.
    # ------------------------------------------------------------------

    def _decision(self, kind: str, verdict: Dict[str, Any], *,
                  ok: Optional[bool] = None,
                  stats: Optional[Dict] = None,
                  timings: Optional[Dict[str, float]] = None,
                  checksum: Optional[str] = None,
                  certificate: Any = None,
                  meta: Optional[Dict] = None,
                  raw: Any = None) -> Decision:
        return Decision(
            kind=kind,
            verdict=verdict,
            ok=ok,
            stats=dict(stats or {}),
            timings={key: round(value, 6)
                     for key, value in (timings or {}).items()},
            fingerprint=self.fingerprint,
            checksum=checksum,
            certificate=certificate,
            meta=dict(meta or {}),
            raw=raw,
        )

    @contextmanager
    def _deadline(self, seconds: Optional[float]) -> Iterator[None]:
        """Run the block under a per-call deadline (``None`` = no
        deadline of its own; an enclosing one still applies).  When
        any budget fires inside the block, this session's caches are
        dropped before the :class:`~repro.budget.BudgetExhausted`
        propagates, since the interrupt may have landed inside a
        cache-entry construction.
        """
        try:
            with time_budget(seconds):
                yield
        except BudgetExhausted:
            self.clear_caches()
            raise

    # ------------------------------------------------------------------
    # Forward containment (Theorem 5.12 / Corollary 5.7 / Theorem 6.4).
    # ------------------------------------------------------------------

    def contains(self, program: Program, goal: str,
                 union: UnionOfConjunctiveQueries, *,
                 deadline: Optional[float] = None) -> Decision:
        """Decide ``Q_Pi subseteq union`` (Theorem 5.12).

        The program's shape picks the automata, as in
        :func:`repro.core.contained_in_ucq`; ``deadline`` bounds the
        call's wall clock (every decision method takes one).  On
        non-containment the ``certificate`` is the witness: the
        counterexample probe's unfolding tree or the automata's proof
        tree, either of which
        :func:`repro.core.counterexample_database` accepts.
        """
        from .core import containment

        return self._containment(deadline, containment.contained_in_ucq,
                                 program, goal, union)

    def _containment(self, deadline: Optional[float], decide,
                     *args) -> Decision:
        start = perf_counter()
        with self._deadline(deadline), self.activated():
            result = decide(*args)
        return self._decision(
            "containment", {"contained": result.contained},
            stats=result.stats,
            timings={**result.timings, "decide_s": perf_counter() - start},
            certificate=result.witness, raw=result,
        )

    def contains_cq(self, program: Program, goal: str,
                    theta: ConjunctiveQuery, *,
                    deadline: Optional[float] = None) -> Decision:
        """Decide ``Q_Pi subseteq theta`` (Corollary 5.7)."""
        from .cq.query import UnionOfConjunctiveQueries

        union = UnionOfConjunctiveQueries([theta], theta.arity)
        return self.contains(program, goal, union, deadline=deadline)

    def contains_nonrecursive(self, program: Program, goal: str,
                              nonrecursive: Program,
                              nonrecursive_goal: Optional[str] = None, *,
                              deadline: Optional[float] = None) -> Decision:
        """Decide ``Q_Pi subseteq Q'_Pi'`` for nonrecursive Pi'
        (Theorem 6.4): unfold Pi' to a UCQ, then decide containment,
        both under the deadline."""
        from .core import containment

        return self._containment(
            deadline, containment.contained_in_nonrecursive, program, goal,
            nonrecursive, nonrecursive_goal)

    # ------------------------------------------------------------------
    # The classical reverse direction (canonical databases).
    # ------------------------------------------------------------------

    def cq_contained(self, theta: ConjunctiveQuery, program: Program,
                     goal: str, *,
                     deadline: Optional[float] = None) -> Decision:
        """Decide ``theta subseteq Q_Pi`` by the canonical-database
        test [CK86, Sa88b], on this session's engine."""
        from .core import containment

        start = perf_counter()
        with self._deadline(deadline), self.activated():
            held = containment.cq_contained_in_datalog(theta, program, goal)
        return self._decision(
            "containment", {"contained": held},
            timings={"decide_s": perf_counter() - start}, raw=held,
        )

    def ucq_contained(self, union: UnionOfConjunctiveQueries,
                      program: Program, goal: str, *,
                      deadline: Optional[float] = None) -> Decision:
        """Decide ``union subseteq Q_Pi`` disjunct-wise (Theorem 2.3)."""
        from .core import containment

        start = perf_counter()
        with self._deadline(deadline), self.activated():
            held = containment.ucq_contained_in_datalog(union, program, goal)
        return self._decision(
            "containment", {"contained": held},
            stats={"union_disjuncts": len(union)},
            timings={"decide_s": perf_counter() - start}, raw=held,
        )

    def nonrecursive_contained(self, nonrecursive: Program,
                               nonrecursive_goal: str, program: Program,
                               goal: str, *,
                               deadline: Optional[float] = None) -> Decision:
        """Decide ``Q'_Pi' subseteq Q_Pi`` for nonrecursive Pi'."""
        from .core import containment

        start = perf_counter()
        with self._deadline(deadline), self.activated():
            # The perfbench-patched name of
            # nonrecursive_contained_in_datalog (ROADMAP items 7 and 9).
            held = containment.decide_nonrecursive_in_datalog(
                nonrecursive, nonrecursive_goal, program, goal)
        return self._decision(
            "containment", {"contained": held},
            timings={"decide_s": perf_counter() - start}, raw=held,
        )

    # ------------------------------------------------------------------
    # Equivalence (Theorem 6.5) and boundedness.
    # ------------------------------------------------------------------

    def equivalent_to_nonrecursive(self, program: Program,
                                   nonrecursive: Program, goal: str,
                                   nonrecursive_goal: Optional[str] = None, *,
                                   deadline: Optional[float] = None) -> Decision:
        """Decide ``Pi == Pi'`` for nonrecursive Pi' (Theorem 6.5),
        with per-phase timings (``unfold_s`` / ``backward_s`` /
        ``forward_s``)."""
        from .core import equivalence

        with self._deadline(deadline), self.activated():
            result = equivalence.is_equivalent_to_nonrecursive(
                program, nonrecursive, goal,
                nonrecursive_goal=nonrecursive_goal)
        return self._equivalence_decision(result)

    def equivalent_to_ucq(self, program: Program, goal: str,
                          union: UnionOfConjunctiveQueries, *,
                          deadline: Optional[float] = None) -> Decision:
        """Decide ``Pi == union`` (the Theorem 5.12 form)."""
        from .core import equivalence

        with self._deadline(deadline), self.activated():
            result = equivalence.equivalent_to_ucq(program, goal, union)
        return self._equivalence_decision(result)

    def _equivalence_decision(self, result) -> Decision:
        return self._decision(
            "equivalence",
            {"equivalent": result.equivalent,
             "forward": result.forward_holds,
             "backward": result.backward_holds},
            stats=result.stats, timings=result.timings,
            certificate=result.forward_witness, raw=result,
        )

    def bounded(self, program: Program, goal: str, max_depth: int = 4, *,
                deadline: Optional[float] = None) -> Decision:
        """Search for a boundedness certificate up to ``max_depth``
        (semi-decision; ``bounded`` is True or None=unknown).  The
        ``certificate`` is the equivalent union of conjunctive queries
        when one is found, at the minimal depth; ``stats``/``timings``
        report the per-depth probe work.
        """
        from .core import boundedness

        with self._deadline(deadline), self.activated():
            result = boundedness.search_boundedness(
                program, goal, max_depth=max_depth)
        return self._decision(
            "boundedness",
            {"bounded": result.bounded, "depth": result.depth},
            stats=result.stats, timings=result.timings,
            certificate=result.witness_union, raw=result,
        )

    # ------------------------------------------------------------------
    # Static analysis.
    # ------------------------------------------------------------------

    def analyze(self, program, goal: Optional[str] = None, *,
                plans: bool = True):
        """Statically analyze *program* (a :class:`Program` or source
        text) and return an
        :class:`~repro.analysis.diagnostics.AnalysisReport` -- typed
        diagnostics, class certificates, no evaluation.  Source text
        with syntax or arity errors yields E004/E003 diagnostics
        rather than raising."""
        # Imported on first use: the analyzer sits above the datalog
        # substrate this module is built from.
        from . import analysis

        with self.activated():
            if isinstance(program, str):
                return analysis.analyze_source(program, goal, plans=plans)
            return analysis.analyze_program(program, goal, plans=plans)

    # ------------------------------------------------------------------
    # Evaluation and magic sets.
    # ------------------------------------------------------------------

    def evaluate(self, program: Program, database: Database,
                 max_stages: Optional[int] = None, *,
                 goal: Optional[str] = None,
                 deadline: Optional[float] = None) -> Decision:
        """Bottom-up evaluation on this session's engine.

        The ``certificate`` (and ``raw``) is the full
        :class:`~repro.datalog.engine.EvaluationResult`; with ``goal=``
        the verdict gains ``count`` and the decision a row
        ``checksum`` over the goal relation.  ``deadline`` bounds the
        evaluation and the digest.
        """
        if goal is not None:
            program.require_goal(goal)
        start = perf_counter()
        try:
            with self._deadline(deadline), self.activated():
                result = self._engine.evaluate(program, database,
                                               max_stages=max_stages)
                evaluate_s = perf_counter() - start
                checksum = None if goal is None else result.checksum(goal)
        except UnsafeProgramError as exc:
            # The EngineConfig(validate=True) gate: an unsafe program
            # becomes a typed error decision carrying the analyzer's
            # diagnostics instead of an exception.
            decision = self._decision(
                "evaluation", {"valid": False}, ok=False,
                timings={"evaluate_s": perf_counter() - start},
                meta={"diagnostics": exc.diagnostics},
            )
            decision.error = "invalid-program"
            return decision
        timings = {"evaluate_s": evaluate_s}
        verdict: Dict[str, Any] = {
            "stages": result.stages,
            "fixpoint": result.fixpoint,
            "facts": sum(map(result.count, program.idb_predicates)),
        }
        if goal is not None:
            verdict["count"] = result.count(goal)
        return self._decision("evaluation", verdict, timings=timings,
                              checksum=checksum, certificate=result,
                              raw=result)

    def query(self, program: Program, database: Database, goal: str,
              max_stages: Optional[int] = None, *,
              deadline: Optional[float] = None) -> Decision:
        """The relation ``goal_Pi(D)``: an evaluation decision whose
        ``raw`` is the frozenset of goal rows."""
        decision = self.evaluate(program, database, max_stages=max_stages,
                                 goal=goal, deadline=deadline)
        if decision.error is not None:
            return decision
        decision.raw = decision.certificate.facts(goal)
        return decision

    def magic(self, program: Program, database: Database, goal: str,
              adornment: str, bindings, *,
              deadline: Optional[float] = None) -> Decision:
        """Goal-directed evaluation via magic sets, with the
        direct-vs-magic derived-fact counts as ``stats``."""
        from .datalog.magic import derived_fact_count, magic_query

        with self._deadline(deadline), self.activated():
            start = perf_counter()
            rows = magic_query(program, database, goal, adornment,
                               bindings, engine=self._engine)
            magic_s = perf_counter() - start
            start = perf_counter()
            counts = derived_fact_count(program, database, goal, adornment,
                                        bindings, engine=self._engine)
            count_s = perf_counter() - start
        verdict = {"rows": len(rows),
                   "magic_beats_direct": counts["magic"] < counts["direct"]}
        return self._decision(
            "magic", verdict, stats=counts,
            timings={"magic_s": magic_s, "count_s": count_s},
            checksum=rows_checksum(rows), certificate=rows, raw=rows,
        )

    # ------------------------------------------------------------------
    # Payload dispatch and scenario execution.
    # ------------------------------------------------------------------

    def run_payload(self, kind: str, payload: Mapping[str, Any], *,
                    deadline: Optional[float] = None) -> Decision:
        """Run the decision method for *kind* on a scenario-shaped
        *payload* (built objects, as :meth:`Scenario.build
        <repro.workloads.scenarios.Scenario>` returns them):

        ===============  ==============================================
        kind             method (payload keys)
        ===============  ==============================================
        ``containment``  :meth:`contains` (``union``)
        ``equivalence``  :meth:`equivalent_to_nonrecursive`
                         (``nonrecursive``, ``nonrecursive_goal``)
        ``boundedness``  :meth:`bounded` (``max_depth``)
        ``magic``        :meth:`magic` (``database``, ``adornment``,
                         ``bindings``)
        ===============  ==============================================

        Every kind reads ``program`` and ``goal``.  No key selects the
        containment automata: the program's shape does.
        """
        program, goal = payload["program"], payload["goal"]
        if kind == "containment":
            return self.contains(program, goal, payload["union"],
                                 deadline=deadline)
        if kind == "equivalence":
            return self.equivalent_to_nonrecursive(
                program, payload["nonrecursive"], goal,
                payload.get("nonrecursive_goal"), deadline=deadline)
        if kind == "boundedness":
            return self.bounded(program, goal, payload.get("max_depth", 4),
                                deadline=deadline)
        if kind == "magic":
            return self.magic(program, payload["database"], goal,
                              payload["adornment"], payload["bindings"],
                              deadline=deadline)
        raise ValidationError(f"unknown payload kind {kind!r}")

    def run_scenario(self, scenario, *,
                     deadline: Optional[float] = None) -> Decision:
        """Execute a registry scenario (by name or object) under this
        session and check its verdict against constructed ground truth
        (``decision.ok``).  Evaluation scenarios run :meth:`evaluate`
        (verdict ``{"count", "checksum"}``), every other kind
        :meth:`run_payload`; the decision keeps that method's stats and
        timings and adds ``build_s`` (payload build) and ``decide_s``
        (everything after it).  The payload objects are dropped.

        Scenarios carrying a ``budget_s`` (the ``tag:stress`` tier's
        provably-infeasible lower-bound instances) run under a
        wall-clock budget; when it fires the verdict is the
        deterministic ``{"budget_exhausted": True}`` -- exactly what
        such scenarios register as ground truth -- and the session's
        caches are dropped, since the interrupt may have landed inside
        a cache-entry construction.

        A caller ``deadline`` composes with the scenario budget by
        tightest-wins.  The two exhaust differently: the scenario's
        *own* budget firing is part of the scenario's expected verdict,
        while a tighter caller deadline firing is an external timeout,
        so :class:`~repro.budget.BudgetExhausted` propagates for the
        resilience layer to classify.
        """
        from .workloads.scenarios import get_scenario

        if isinstance(scenario, str):
            scenario = get_scenario(scenario)
        budget = getattr(scenario, "budget_s", None)
        start = perf_counter()
        payload = scenario.build()
        build_s = perf_counter() - start
        start = perf_counter()
        try:
            with self._deadline(deadline), self.activated(), \
                    time_budget(budget):
                if scenario.kind == "evaluation":
                    decision = self.evaluate(
                        payload["program"], payload["database"],
                        goal=payload["goal"])
                    verdict = {"count": decision.verdict.get("count"),
                               "checksum": decision.checksum}
                else:
                    decision = self.run_payload(scenario.kind, payload)
                    verdict = decision.verdict
        except BudgetExhausted as exhausted:
            # self._deadline has already dropped the caches.
            if budget is None or exhausted.seconds != budget:
                raise
            verdict = {"budget_exhausted": True}
            decision = self._decision(scenario.kind, verdict,
                                      stats={"budget_s": budget})
        decide_s = perf_counter() - start
        return replace(
            decision, verdict=verdict,
            ok=(verdict == dict(scenario.expected)),
            timings={**decision.timings, "build_s": round(build_s, 6),
                     "decide_s": round(decide_s, 6)},
            checksum=verdict.get("checksum"), certificate=None, raw=None,
            meta={**decision.meta, "scenario": scenario.name},
        )

    # ------------------------------------------------------------------
    # Cache lifecycle.
    # ------------------------------------------------------------------

    def clear_caches(self) -> None:
        """Return this session to a cold state: drop its cache scope
        (automaton factories, EDB images) and its engine's compiled
        plans.  Every cache is built again on first use."""
        self.caches.clear()
        self._engine.clear_plans()

    def cache_stats(self) -> Dict[str, Any]:
        """Observability hook: per-table ``{"size", "hits", "misses"}``
        counters of this session's scope plus the compiled-plan count.
        The session-isolation tests assert zero bleed with these."""
        return {
            "scope": self.caches.stats(),
            "scope_name": self.caches.name,
            "plans": self._engine.plan_cache_size(),
        }


# ----------------------------------------------------------------------
# The default session and ambient resolution.
# ----------------------------------------------------------------------

def _make_default_session() -> Session:
    """The default session: the default engine configuration over the
    process-global cache scope (every other session owns a private
    one)."""
    session = Session(name="default")
    session.caches = _context.GLOBAL_SCOPE
    return session


_context.register_default_session_factory(_make_default_session)


def default_session() -> Session:
    """The process default session (created lazily, exactly once).
    Its caches are the process-global scope; the free functions run
    against it when no session is active."""
    return _context.default_session()


def current_session() -> Session:
    """The ambient session: the innermost active one (``with
    session:`` / ``session.activated()``), else the context's default,
    else :func:`default_session`."""
    return _context.current_session()


def decide_payload(fields: Mapping[str, Any],
                   read_program=parse_program) -> Dict[str, Any]:
    """The :meth:`Session.run_payload` payload of a source-level
    ``decide`` request -- the CLI's flags or the service's wire fields
    (``kind``, ``program``, ``goal``, ``nonrecursive``,
    ``nonrecursive_goal``, ``union``, ``union_goal``, ``union_depth``,
    ``max_depth``).  Programs are read by *read_program*; a containment
    target is the ``union`` program unfolded at ``union_goal``
    (default: ``goal``), else the program's own depth-``union_depth``
    expansion union."""
    from .datalog.unfold import expansion_union, unfold_nonrecursive

    program, goal = read_program(fields["program"]), fields["goal"]
    payload: Dict[str, Any] = {
        "program": program, "goal": goal,
        "max_depth": fields.get("max_depth", 4),
    }
    if fields.get("nonrecursive") is not None:
        payload["nonrecursive"] = read_program(fields["nonrecursive"])
        payload["nonrecursive_goal"] = fields.get("nonrecursive_goal")
    if fields["kind"] == "containment":
        if fields.get("union") is not None:
            payload["union"] = unfold_nonrecursive(
                read_program(fields["union"]),
                fields.get("union_goal") or goal)
        else:
            payload["union"] = expansion_union(program, goal,
                                               fields["union_depth"])
    return payload
