"""The session facade: one configured entry point for every decision.

The paper's decision procedures (containment in a UCQ, Theorem 5.12;
equivalence to a nonrecursive program, Theorem 6.5; the boundedness
semi-decision) plus bottom-up evaluation and the scenario registry
used to be reachable only as free functions with divergent signatures
-- the engine picked by a process-global default, three unrelated
result dataclasses.  A :class:`Session` owns that configuration (an
:class:`~repro.datalog.engine.EngineConfig` and a
:class:`CachePolicy`) together with its caches (compiled plans,
automaton factories, EDB images -- a private
:class:`~repro.context.CacheScope` per session), and exposes every
entry point as a method returning one uniform :class:`Decision`.

Two sessions are fully isolated: different backends, separate caches,
zero bleed -- the enabling step for concurrent multi-config serving.
The ambient session is held in a :class:`contextvars.ContextVar`; the
*default* one owns the process-global cache scope.  The free functions
of :mod:`repro.core` are the procedures themselves: they resolve
caches and engine from the ambient session, and the session methods
call them.  :meth:`Session.run_payload` is the one dispatcher from a
payload kind to a decision method; the scenario runner, the CLI, the
service workers and the fuzz harness all go through it.

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
from typing import Any, Dict, Iterator, Mapping, Optional

from . import context as _context
from .budget import BudgetExhausted, time_budget
from .core import boundedness as _boundedness
from .core import containment as _containment
from .core import equivalence as _equivalence
from .core.instances import warm_shared_caches as _warm_caches
from .cq.query import ConjunctiveQuery, UnionOfConjunctiveQueries
from .datalog.database import Database
from .datalog.engine import Engine, EngineConfig
from .datalog.errors import UnsafeProgramError, ValidationError
from .datalog.parser import parse_program
from .datalog.program import Program
from .datalog.result import rows_checksum
from .datalog.unfold import expansion_union, unfold_nonrecursive

__all__ = [
    "CachePolicy",
    "Decision",
    "Session",
    "config_fingerprint",
    "current_session",
    "decide_payload",
    "default_session",
    "rows_checksum",
]

_CACHE_SCOPES = ("private", "shared")


@dataclass(frozen=True)
class CachePolicy:
    """Cache ownership of a session.

    ``scope``
        ``"private"`` (the default): the session owns a fresh
        :class:`~repro.context.CacheScope` -- automaton factories and
        EDB images are isolated from every other session.
        ``"shared"``: the session reads and writes the process-global
        scope (what the default session does), trading isolation for
        reuse across sessions with compatible configuration.
    """

    scope: str = "private"

    def __post_init__(self):
        if self.scope not in _CACHE_SCOPES:
            raise ValidationError(
                f"unknown cache scope {self.scope!r}; "
                f"expected one of {_CACHE_SCOPES}"
            )


def config_fingerprint(engine: "EngineConfig", cache: "CachePolicy") -> str:
    """The stable digest of an (engine, cache-policy) configuration
    pair -- what :attr:`Session.fingerprint` reports, computable
    without constructing a session (the decision service derives
    coalescing keys from it)."""
    config = {
        "engine": asdict(engine),
        "cache": asdict(cache),
    }
    blob = repr(sorted(
        (section, sorted(values.items()))
        for section, values in config.items()
    ))
    return hashlib.sha1(blob.encode()).hexdigest()[:16]


def _analysis():
    """The static-analysis package, imported on first use (it sits
    above the datalog substrate this module is built from)."""
    from . import analysis
    return analysis


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

    The resilience layer adds three fields: ``error`` is the
    error-taxonomy category of a job that was quarantined after
    exhausting its retries (``None`` for a real verdict); ``attempts``
    counts the tries that produced this decision (1 = first try);
    ``degraded_to`` names the ladder rung (an engine label such as
    ``"interpretive"``) that answered when it was not the requested
    configuration.  All three
    round-trip through :meth:`record`.

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
    degraded_to: Optional[str] = None
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
        if self.degraded_to is not None:
            rec["degraded_to"] = self.degraded_to
        return rec

    #: Dataclass fields surfaced as record keys (uniform fields win
    #: over ``meta`` on collision, matching :meth:`record`).
    _RECORD_FIELDS = ("kind", "verdict", "ok", "stats", "timings",
                      "fingerprint", "attempts")

    #: Optional fields that appear as record keys only when set.
    _OPTIONAL_FIELDS = ("checksum", "error", "degraded_to")

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
    cache) and a cache policy; its decision
    methods activate the session in the ambient
    :class:`contextvars.ContextVar` for the duration of the call, so
    every cache the procedures consult (automaton factories, EDB
    images) resolves to this session's scope.  Methods return
    :class:`Decision`.

        >>> from repro import Session
        >>> from repro.datalog.engine import EngineConfig
        >>> fast = Session(engine=EngineConfig())
        >>> reference = Session(engine=EngineConfig(compiled=False))
        >>> fast.fingerprint != reference.fingerprint
        True
    """

    def __init__(self, engine: Optional[Any] = None,
                 cache: Optional[Any] = None,
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
        if isinstance(cache, str):
            cache = CachePolicy(scope=cache)
        self.cache_policy = cache or CachePolicy()
        self.name = name or f"session-{id(self):x}"
        if self.cache_policy.scope == "shared":
            self.caches = _context.GLOBAL_SCOPE
        else:
            self.caches = _context.CacheScope(self.name)
        self._fingerprint: Optional[str] = None
        # Scenario-name-keyed EdbImages: populated by snapshot restore
        # and by scenario runs, consumed by later runs of the same
        # (deterministic) scenario payload.  Registry-bounded.
        self._snapshot_images: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Configuration identity.
    # ------------------------------------------------------------------

    @property
    def engine(self) -> Engine:
        """This session's (plan-cache-owning) evaluation engine."""
        return self._engine

    @property
    def config(self) -> Dict[str, Any]:
        """The JSON-able configuration pair the fingerprint hashes."""
        return {
            "engine": asdict(self.engine_config),
            "cache": asdict(self.cache_policy),
        }

    @property
    def fingerprint(self) -> str:
        """A stable digest of the configuration: two sessions with the
        same fingerprint decide identically (caches never affect
        verdicts, so scope/name are excluded deliberately -- only the
        ``cache`` policy dict participates)."""
        if self._fingerprint is None:
            self._fingerprint = config_fingerprint(
                self.engine_config, self.cache_policy)
        return self._fingerprint

    def __repr__(self):
        return (f"Session({self.name!r}, engine={self.engine_config}, "
                f"cache={self.cache_policy})")

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
                 method: str = "auto", use_antichain: bool = True,
                 use_certificates: bool = False,
                 deadline: Optional[float] = None) -> Decision:
        """Decide ``Q_Pi subseteq union`` (Theorem 5.12).

        ``method`` is ``"auto"`` / ``"tree"`` / ``"word"`` as in
        :func:`repro.core.contained_in_ucq`; ``deadline`` bounds the
        call's wall clock (every decision method takes one).  On
        non-containment the ``certificate`` is the witness proof tree.

        ``use_certificates=True`` consults the static analyzer first:
        a chain-rule class certificate (H005) pins the word-automaton
        method explicitly and is recorded in ``meta["analysis"]``.
        """
        analysis_meta = None
        if use_certificates and method == "auto":
            report = _analysis().analyze_program(program, goal, plans=False)
            analysis_meta = {"classes": list(report.classes)}
            if "chain" in report.classes:
                method = "word"
                analysis_meta["method"] = "word"
        start = perf_counter()
        with self._deadline(deadline), self.activated():
            result = _containment.contained_in_ucq(
                program, goal, union, method=method,
                use_antichain=use_antichain,
            )
        decision = self._decision(
            "containment", {"contained": result.contained},
            stats=result.stats,
            timings={"decide_s": perf_counter() - start},
            certificate=result.witness, raw=result,
        )
        if analysis_meta is not None:
            decision.meta["analysis"] = analysis_meta
        return decision

    def contains_cq(self, program: Program, goal: str,
                    theta: ConjunctiveQuery, *, method: str = "auto",
                    use_antichain: bool = True,
                    deadline: Optional[float] = None) -> Decision:
        """Decide ``Q_Pi subseteq theta`` (Corollary 5.7)."""
        union = UnionOfConjunctiveQueries([theta], theta.arity)
        return self.contains(program, goal, union, method=method,
                             use_antichain=use_antichain,
                             deadline=deadline)

    def contains_nonrecursive(self, program: Program, goal: str,
                              nonrecursive: Program,
                              nonrecursive_goal: Optional[str] = None, *,
                              method: str = "auto",
                              deadline: Optional[float] = None) -> Decision:
        """Decide ``Q_Pi subseteq Q'_Pi'`` for nonrecursive Pi'
        (Theorem 6.4): unfold Pi' to a UCQ, then decide containment."""
        start = perf_counter()
        union = unfold_nonrecursive(nonrecursive, nonrecursive_goal or goal)
        unfold_s = perf_counter() - start
        decision = self.contains(program, goal, union, method=method,
                                 deadline=deadline)
        decision.timings["unfold_s"] = round(unfold_s, 6)
        decision.stats.setdefault("union_disjuncts", len(union))
        return decision

    # ------------------------------------------------------------------
    # The classical reverse direction (canonical databases).
    # ------------------------------------------------------------------

    def cq_contained(self, theta: ConjunctiveQuery, program: Program,
                     goal: str, *, engine: Optional[Engine] = None,
                     deadline: Optional[float] = None) -> Decision:
        """Decide ``theta subseteq Q_Pi`` by the canonical-database
        test [CK86, Sa88b], on this session's engine."""
        start = perf_counter()
        with self._deadline(deadline), self.activated():
            held = _containment.cq_contained_in_datalog(
                theta, program, goal, engine=engine or self._engine)
        return self._decision(
            "containment", {"contained": held},
            timings={"decide_s": perf_counter() - start}, raw=held,
        )

    def ucq_contained(self, union: UnionOfConjunctiveQueries,
                      program: Program, goal: str, *,
                      engine: Optional[Engine] = None,
                      deadline: Optional[float] = None) -> Decision:
        """Decide ``union subseteq Q_Pi`` disjunct-wise (Theorem 2.3)."""
        start = perf_counter()
        with self._deadline(deadline), self.activated():
            held = _containment.ucq_contained_in_datalog(
                union, program, goal, engine=engine or self._engine)
        return self._decision(
            "containment", {"contained": held},
            stats={"union_disjuncts": len(union)},
            timings={"decide_s": perf_counter() - start}, raw=held,
        )

    def nonrecursive_contained(self, nonrecursive: Program,
                               nonrecursive_goal: str, program: Program,
                               goal: str, *,
                               engine: Optional[Engine] = None,
                               deadline: Optional[float] = None) -> Decision:
        """Decide ``Q'_Pi' subseteq Q_Pi`` for nonrecursive Pi'."""
        start = perf_counter()
        with self._deadline(deadline), self.activated():
            # The perfbench-patched name of
            # nonrecursive_contained_in_datalog (ROADMAP item 4).
            held = _containment.decide_nonrecursive_in_datalog(
                nonrecursive, nonrecursive_goal, program, goal,
                engine=engine or self._engine)
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
                                   method: str = "auto",
                                   engine: Optional[Engine] = None,
                                   deadline: Optional[float] = None) -> Decision:
        """Decide ``Pi == Pi'`` for nonrecursive Pi' (Theorem 6.5),
        with per-phase timings (``unfold_s`` / ``backward_s`` /
        ``forward_s``)."""
        with self._deadline(deadline), self.activated():
            result = _equivalence.is_equivalent_to_nonrecursive(
                program, nonrecursive, goal,
                nonrecursive_goal=nonrecursive_goal, method=method,
                engine=engine or self._engine,
            )
        return self._equivalence_decision(result)

    def equivalent_to_ucq(self, program: Program, goal: str,
                          union: UnionOfConjunctiveQueries, *,
                          method: str = "auto",
                          engine: Optional[Engine] = None,
                          deadline: Optional[float] = None) -> Decision:
        """Decide ``Pi == union`` (the Theorem 5.12 form)."""
        with self._deadline(deadline), self.activated():
            result = _equivalence.equivalent_to_ucq(
                program, goal, union, method=method,
                engine=engine or self._engine,
            )
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
                method: str = "auto", use_certificates: bool = False,
                engine: Optional[Engine] = None,
                deadline: Optional[float] = None) -> Decision:
        """Search for a boundedness certificate up to ``max_depth``
        (semi-decision; ``bounded`` is True or None=unknown).  The
        ``certificate`` is the equivalent union of conjunctive queries
        when one is found; ``stats``/``timings`` report the per-depth
        probe work.

        ``use_certificates=True`` consults the static analyzer first:
        an H001 certificate whose depth bound fits ``max_depth`` skips
        the containment search entirely and answers with the certified
        depth and its expansion-union witness.  Opt-in because the
        certified depth is a *bound*, not necessarily the minimal
        depth the search would report.
        """
        if use_certificates:
            cert = _analysis().boundedness_certificate(program, goal)
            if cert is not None and cert["depth_bound"] <= max_depth:
                start = perf_counter()
                with self._deadline(deadline), self.activated():
                    union = expansion_union(
                        program, goal, cert["depth_bound"])
                result = _boundedness.BoundednessResult(
                    bounded=True, depth=cert["depth_bound"],
                    witness_union=union)
                decision = self._decision(
                    "boundedness",
                    {"bounded": True, "depth": cert["depth_bound"]},
                    stats={"certificate_fast_path": 1},
                    timings={"expand_s": perf_counter() - start},
                    certificate=union, raw=result,
                )
                decision.meta["analysis"] = cert
                return decision
        with self._deadline(deadline), self.activated():
            # engine=None deliberately stays None: the search gives its
            # one-off candidate programs a throwaway probe engine so
            # they cannot churn this session's plan cache.
            result = _boundedness.search_boundedness(
                program, goal, max_depth=max_depth, method=method,
                engine=engine,
            )
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
        analysis = _analysis()
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
                 engine: Optional[Engine] = None,
                 deadline: Optional[float] = None) -> Decision:
        """Bottom-up evaluation on this session's engine.

        The ``certificate`` (and ``raw``) is the full
        :class:`~repro.datalog.engine.EvaluationResult`; with ``goal=``
        the verdict gains ``count`` and the decision a row
        ``checksum`` over the goal relation.
        """
        if goal is not None:
            program.require_goal(goal)
        start = perf_counter()
        try:
            with self._deadline(deadline), self.activated():
                result = (engine or self._engine).evaluate(
                    program, database, max_stages=max_stages)
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
        timings = {"evaluate_s": perf_counter() - start}
        verdict: Dict[str, Any] = {
            "stages": result.stages,
            "fixpoint": result.fixpoint,
            "facts": sum(map(result.count, program.idb_predicates)),
        }
        checksum = None
        if goal is not None:
            verdict["count"] = result.count(goal)
            checksum = result.checksum(goal)
        return self._decision("evaluation", verdict, timings=timings,
                              checksum=checksum, certificate=result,
                              raw=result)

    def query(self, program: Program, database: Database, goal: str,
              max_stages: Optional[int] = None, *,
              engine: Optional[Engine] = None,
              deadline: Optional[float] = None) -> Decision:
        """The relation ``goal_Pi(D)``: an evaluation decision whose
        ``raw`` is the frozenset of goal rows."""
        decision = self.evaluate(program, database, max_stages=max_stages,
                                 goal=goal, engine=engine,
                                 deadline=deadline)
        if decision.error is not None:
            return decision
        decision.raw = decision.certificate.facts(goal)
        return decision

    def magic(self, program: Program, database: Database, goal: str,
              adornment: str, bindings, *,
              engine: Optional[Engine] = None,
              deadline: Optional[float] = None) -> Decision:
        """Goal-directed evaluation via magic sets, with the
        direct-vs-magic derived-fact counts as ``stats``."""
        from .datalog.magic import derived_fact_count, magic_query

        engine = engine or self._engine
        with self._deadline(deadline), self.activated():
            start = perf_counter()
            rows = magic_query(program, database, goal, adornment,
                               bindings, engine=engine)
            magic_s = perf_counter() - start
            start = perf_counter()
            counts = derived_fact_count(program, database, goal, adornment,
                                        bindings, engine=engine)
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
                    engine: Optional[Engine] = None,
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

        Every kind reads ``program`` and ``goal``; the automata kinds
        also read an optional ``method``.
        """
        program, goal = payload["program"], payload["goal"]
        method = payload.get("method", "auto")
        if kind == "containment":
            return self.contains(program, goal, payload["union"],
                                 method=method, deadline=deadline)
        if kind == "equivalence":
            return self.equivalent_to_nonrecursive(
                program, payload["nonrecursive"], goal,
                payload.get("nonrecursive_goal"), method=method,
                engine=engine, deadline=deadline)
        if kind == "boundedness":
            return self.bounded(program, goal, payload.get("max_depth", 4),
                                method=method, engine=engine,
                                deadline=deadline)
        if kind == "magic":
            return self.magic(program, payload["database"], goal,
                              payload["adornment"], payload["bindings"],
                              engine=engine, deadline=deadline)
        raise ValidationError(f"unknown payload kind {kind!r}")

    def run_scenario(self, scenario, *, engine: Optional[Engine] = None,
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
                self._adopt_scenario_image(scenario.name, payload)
                if scenario.kind == "evaluation":
                    decision = self.evaluate(
                        payload["program"], payload["database"],
                        goal=payload["goal"], engine=engine)
                    verdict = {"count": decision.verdict.get("count"),
                               "checksum": decision.checksum}
                else:
                    decision = self.run_payload(scenario.kind, payload,
                                                engine=engine)
                    verdict = decision.verdict
        except BudgetExhausted as exhausted:
            # self._deadline has already dropped the caches.
            if budget is None or exhausted.seconds != budget:
                raise
            verdict = {"budget_exhausted": True}
            decision = self._decision(scenario.kind, verdict,
                                      stats={"budget_s": budget})
        else:
            self._stash_scenario_image(scenario.name, payload)
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
    # Scenario image reuse (in-session and snapshot-restored).
    # ------------------------------------------------------------------

    def _adopt_scenario_image(self, name: str, payload) -> None:
        """Before running scenario *name*: if a columnar image of its
        payload database is banked (from an earlier run of this
        deterministic payload, or restored from a snapshot), install
        it so evaluation skips the interning pass.  Shape mismatch
        drops the banked image and falls back to a cold build."""
        database = payload.get("database") if isinstance(payload, dict) \
            else None
        if database is None:
            return
        image = self._snapshot_images.get(name)
        if image is None:
            return
        from .datalog.columns import adopt_image

        if not adopt_image(database, image, scope=self.caches):
            self._snapshot_images.pop(name, None)

    def _stash_scenario_image(self, name: str, payload) -> None:
        """After a successful scenario run: bank the image built for
        its payload database under the scenario name, so the next run
        (or a snapshot) reuses it.  A reference, not a copy."""
        database = payload.get("database") if isinstance(payload, dict) \
            else None
        if database is None:
            return
        from .datalog.columns import peek_image

        image = peek_image(database, scope=self.caches)
        if image is not None:
            self._snapshot_images[name] = image

    # ------------------------------------------------------------------
    # Cache lifecycle.
    # ------------------------------------------------------------------

    def warm(self, program: Optional[Program] = None,
             goal: Optional[str] = None, union=None, *,
             scenario=None, snapshot=None) -> "Session":
        """Pre-build this session's caches: either the automaton
        caches for an explicit ``(program, goal[, union])``, or
        everything a registry ``scenario`` (name or object) will touch
        -- the unions its decision procedure actually constructs.
        With ``snapshot=`` (a directory path), previously persisted
        warm state for this configuration fingerprint is restored
        first (see :mod:`repro.snapshot`), making the rest of the
        warm-up cache hits.  Returns ``self`` for chaining."""
        if snapshot is not None:
            from .snapshot import restore_session
            restore_session(self, snapshot)
        with self.activated():
            if scenario is not None:
                self._warm_scenario(scenario)
            if program is not None:
                if goal is None:
                    raise ValidationError(
                        "Session.warm(program=...) requires goal=")
                _warm_caches(program, goal, union)
        return self

    def snapshot(self, directory=None, scenarios=()) -> Optional[Any]:
        """Persist this session's warm state (see
        :func:`repro.snapshot.save_snapshot`): compiled plans, the
        automaton caches, and scenario-keyed EDB images.  Returns the
        written path, or ``None`` when no directory is configured."""
        from .snapshot import save_snapshot

        return save_snapshot(self, directory, scenarios)

    def _warm_scenario(self, scenario) -> None:
        """Warm the caches one scenario's decision will hit:
        containment payloads carry their union, equivalence unfolds
        its nonrecursive program, and the boundedness search
        probes the expansion unions of every depth up to its
        ``max_depth``.  Evaluation scenarios warm their columnar EDB
        image instead (adopted from the session's image bank when one
        is available, built and banked otherwise); their plans compile
        on first run."""
        from .datalog.unfold import expansion_union
        from .workloads.scenarios import DECISION_KINDS, get_scenario

        if isinstance(scenario, str):
            scenario = get_scenario(scenario)
        if scenario.kind not in DECISION_KINDS:
            if self.engine_config.compiled:
                from .datalog.columns import edb_image

                payload = scenario.build()
                database = payload.get("database")
                if database is not None:
                    self._adopt_scenario_image(scenario.name, payload)
                    edb_image(database)
                    self._stash_scenario_image(scenario.name, payload)
            return
        try:
            # Warming is best-effort: a budgeted (tag:stress) scenario's
            # caches may be as infeasible to build as its decision.
            with time_budget(getattr(scenario, "budget_s", None)):
                payload = scenario.build()
                program, goal = payload["program"], payload["goal"]
                unions = []
                if scenario.kind == "containment":
                    unions.append(payload["union"])
                elif scenario.kind == "equivalence":
                    unions.append(unfold_nonrecursive(
                        payload["nonrecursive"],
                        payload.get("nonrecursive_goal") or goal))
                elif scenario.kind == "boundedness":
                    unions.extend(
                        expansion_union(program, goal, depth)
                        for depth in range(1, payload.get("max_depth", 3) + 1))
                _warm_caches(program, goal)
                for union in unions:
                    _warm_caches(program, goal, union)
        except BudgetExhausted:
            self.clear_caches()

    def clear_caches(self) -> None:
        """Return this session to a cold state: drop its cache scope
        (automaton factories, EDB images) and its engine's compiled
        plans."""
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
    process-global cache scope."""
    return Session(cache=CachePolicy(scope="shared"), name="default")


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
    (``kind``, ``program``, ``goal``, ``method``, ``nonrecursive``,
    ``nonrecursive_goal``, ``union``, ``union_goal``, ``union_depth``,
    ``max_depth``).  Programs are read by *read_program*; a containment
    target is the ``union`` program unfolded at ``union_goal``
    (default: ``goal``), else the program's own depth-``union_depth``
    expansion union."""
    program, goal = read_program(fields["program"]), fields["goal"]
    payload: Dict[str, Any] = {
        "program": program, "goal": goal,
        "method": fields.get("method", "auto"),
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
