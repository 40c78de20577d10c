"""The session facade: one configured entry point for every decision.

The paper's decision procedures (containment in a UCQ, Theorem 5.12;
equivalence to a nonrecursive program, Theorem 6.5; the boundedness
semi-decision) plus bottom-up evaluation and the scenario registry
used to be reachable only as free functions with divergent signatures
-- ``kernel=`` threaded by hand, the engine picked by a process-global
default, three unrelated result dataclasses.  A :class:`Session` owns
that configuration (an :class:`~repro.datalog.engine.EngineConfig`, a
:class:`~repro.automata.kernel.KernelConfig`, and a
:class:`CachePolicy`) together with its caches (compiled plans,
automaton factories, EDB images -- a private
:class:`~repro.context.CacheScope` per session), and exposes every
entry point as a method returning one uniform :class:`Decision`.

Two sessions are fully isolated: different backends, separate caches,
zero bleed -- the enabling step for concurrent multi-config serving.
The *default* session wraps the historical process-global state (the
default engine, the global cache scope) and is held in a
:class:`contextvars.ContextVar`, so the legacy free functions -- which
now delegate here -- keep their exact behavior while becoming
thread-safe.

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
from .automata.kernel import KernelConfig
from .budget import BudgetExhausted, time_budget
from .core import boundedness as _boundedness
from .core import containment as _containment
from .core import equivalence as _equivalence
from .core.instances import warm_shared_caches as _warm_caches
from .cq.query import ConjunctiveQuery, UnionOfConjunctiveQueries
from .datalog.database import Database
from .datalog.engine import (
    Engine,
    EngineConfig,
    process_default_engine,
)
from .datalog.errors import UnsafeProgramError, ValidationError
from .datalog.program import Program
from .datalog.result import rows_checksum
from .datalog.unfold import expansion_union, unfold_nonrecursive

__all__ = [
    "CachePolicy",
    "Decision",
    "Session",
    "config_fingerprint",
    "current_session",
    "default_session",
    "rows_checksum",
    "use_session",
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


def config_fingerprint(engine: "EngineConfig", kernel: KernelConfig,
                       cache: "CachePolicy") -> str:
    """The stable digest of a (engine, kernel, cache-policy)
    configuration triple -- what :attr:`Session.fingerprint` reports,
    computable without constructing a session (the decision service
    derives coalescing keys from it)."""
    config = {
        "engine": asdict(engine),
        "kernel": asdict(kernel),
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
    ``degraded_to`` names the ladder rung (``"engine/kernel"``) that
    answered when it was not the requested configuration.  All three
    round-trip through :meth:`record`.

    ``raw`` is the legacy result object
    (:class:`~repro.core.tree_containment.ContainmentResult`,
    :class:`~repro.core.equivalence.EquivalenceResult`,
    :class:`~repro.core.boundedness.BoundednessResult`, ...) that the
    delegating shims hand back, so pre-session call sites keep their
    exact return types.

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
    cache), a kernel configuration, and a cache policy; its decision
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
                 kernel: Optional[KernelConfig] = None,
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
        self.kernel = kernel or KernelConfig()
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
        """The JSON-able configuration triple the fingerprint hashes."""
        return {
            "engine": asdict(self.engine_config),
            "kernel": asdict(self.kernel),
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
                self.engine_config, self.kernel, self.cache_policy)
        return self._fingerprint

    def with_config(self, *, engine: Optional[Any] = None,
                    kernel: Optional[KernelConfig] = None,
                    cache: Optional[Any] = None,
                    name: Optional[str] = None) -> "Session":
        """A derived session: overridden fields are replaced, the rest
        -- including the live cache scope and engine -- are shared.
        (:func:`~repro.automata.kernel.set_default_kernel` uses this to
        swap the ambient kernel without discarding warm caches.)"""
        derived = Session.__new__(Session)
        if engine is None:
            derived._engine = self._engine
            derived.engine_config = self.engine_config
        elif isinstance(engine, Engine):
            derived._engine = engine
            derived.engine_config = engine.config
        else:
            derived.engine_config = engine
            derived._engine = Engine(engine)
        derived.kernel = kernel or self.kernel
        if isinstance(cache, str):
            cache = CachePolicy(scope=cache)
        derived.cache_policy = cache or self.cache_policy
        derived.name = name or self.name
        if cache is None:
            derived.caches = self.caches
            derived._snapshot_images = self._snapshot_images
        elif derived.cache_policy.scope == "shared":
            derived.caches = _context.GLOBAL_SCOPE
            derived._snapshot_images = {}
        else:
            derived.caches = _context.CacheScope(derived.name)
            derived._snapshot_images = {}
        derived._fingerprint = None
        return derived

    def __repr__(self):
        return (f"Session({self.name!r}, engine={self.engine_config}, "
                f"kernel={self.kernel}, cache={self.cache_policy})")

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
        deadline).  Enforced by both budget tiers -- the cooperative
        ``check_deadline`` hooks in the fixpoint/antichain loops make
        this work off the main thread too.  When the deadline fires,
        this session's caches are dropped before the
        :class:`~repro.budget.BudgetExhausted` propagates, since the
        interrupt may have landed inside a cache-entry construction.
        """
        if seconds is None:
            yield
            return
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
                 kernel: Optional[KernelConfig] = None,
                 deadline: Optional[float] = None) -> Decision:
        """Decide ``Q_Pi subseteq union`` (Theorem 5.12).

        ``method`` is ``"auto"`` / ``"tree"`` / ``"word"`` as in
        :func:`repro.core.contained_in_ucq`; ``kernel`` overrides the
        session kernel for this call; ``deadline`` bounds the call's
        wall clock (every decision method takes one).  On
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
        kernel = kernel or self.kernel
        start = perf_counter()
        with self._deadline(deadline), self.activated():
            result = _containment.decide_containment_in_ucq(
                program, goal, union, method=method,
                use_antichain=use_antichain, kernel=kernel,
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
                    kernel: Optional[KernelConfig] = None,
                    deadline: Optional[float] = None) -> Decision:
        """Decide ``Q_Pi subseteq theta`` (Corollary 5.7)."""
        union = UnionOfConjunctiveQueries([theta], theta.arity)
        return self.contains(program, goal, union, method=method,
                             use_antichain=use_antichain, kernel=kernel,
                             deadline=deadline)

    def contains_nonrecursive(self, program: Program, goal: str,
                              nonrecursive: Program,
                              nonrecursive_goal: Optional[str] = None, *,
                              method: str = "auto",
                              kernel: Optional[KernelConfig] = None,
                              deadline: Optional[float] = None) -> Decision:
        """Decide ``Q_Pi subseteq Q'_Pi'`` for nonrecursive Pi'
        (Theorem 6.4): unfold Pi' to a UCQ, then decide containment."""
        start = perf_counter()
        union = unfold_nonrecursive(nonrecursive, nonrecursive_goal or goal)
        unfold_s = perf_counter() - start
        decision = self.contains(program, goal, union, method=method,
                                 kernel=kernel, deadline=deadline)
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
            held = _containment.decide_cq_in_datalog(
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
            held = _containment.decide_ucq_in_datalog(
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
                                   kernel: Optional[KernelConfig] = None,
                                   deadline: Optional[float] = None) -> Decision:
        """Decide ``Pi == Pi'`` for nonrecursive Pi' (Theorem 6.5),
        with per-phase timings (``unfold_s`` / ``backward_s`` /
        ``forward_s``)."""
        timings: Dict[str, float] = {}
        with self._deadline(deadline), self.activated():
            result = _equivalence.decide_equivalence(
                program, nonrecursive, goal,
                nonrecursive_goal=nonrecursive_goal, method=method,
                engine=engine or self._engine, kernel=kernel or self.kernel,
                timings=timings,
            )
        return self._decision(
            "equivalence",
            {"equivalent": result.equivalent,
             "forward": result.forward_holds,
             "backward": result.backward_holds},
            stats=result.stats, timings=timings,
            certificate=result.forward_witness, raw=result,
        )

    def equivalent_to_ucq(self, program: Program, goal: str,
                          union: UnionOfConjunctiveQueries, *,
                          method: str = "auto",
                          engine: Optional[Engine] = None,
                          kernel: Optional[KernelConfig] = None,
                          deadline: Optional[float] = None) -> Decision:
        """Decide ``Pi == union`` (the Theorem 5.12 form)."""
        timings: Dict[str, float] = {}
        with self._deadline(deadline), self.activated():
            result = _equivalence.decide_equivalence_to_ucq(
                program, goal, union, method=method,
                engine=engine or self._engine, kernel=kernel or self.kernel,
                timings=timings,
            )
        return self._decision(
            "equivalence",
            {"equivalent": result.equivalent,
             "forward": result.forward_holds,
             "backward": result.backward_holds},
            stats=result.stats, timings=timings,
            certificate=result.forward_witness, raw=result,
        )

    def bounded(self, program: Program, goal: str, max_depth: int = 4, *,
                method: str = "auto", use_certificates: bool = False,
                engine: Optional[Engine] = None,
                kernel: Optional[KernelConfig] = None,
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
        timings: Dict[str, float] = {}
        stats: Dict[str, int] = {}
        with self._deadline(deadline), self.activated():
            # engine=None deliberately stays None: the search gives its
            # one-off candidate programs a throwaway probe engine so
            # they cannot churn this session's plan cache.
            result = _boundedness.search_boundedness(
                program, goal, max_depth=max_depth, method=method,
                engine=engine, kernel=kernel or self.kernel,
                timings=timings, stats=stats,
            )
        return self._decision(
            "boundedness",
            {"bounded": result.bounded, "depth": result.depth},
            stats=stats, timings=timings,
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
        program.require_goal(goal)
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
    # Scenario execution.
    # ------------------------------------------------------------------

    def run_scenario(self, scenario, *, engine: Optional[Engine] = None,
                     kernel: Optional[KernelConfig] = None,
                     deadline: Optional[float] = None) -> Decision:
        """Execute a registry scenario (by name or object) under this
        session and check its verdict against constructed ground truth
        (``decision.ok``).

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
        from .workloads import scenarios as _scenarios

        if isinstance(scenario, str):
            scenario = _scenarios.get_scenario(scenario)
        budget = getattr(scenario, "budget_s", None)
        start = perf_counter()
        payload = scenario.build()
        build_s = perf_counter() - start
        start = perf_counter()
        try:
            with self._deadline(deadline), self.activated(), \
                    time_budget(budget):
                self._adopt_scenario_image(scenario.name, payload)
                verdict, stats = _scenarios.kind_runner(scenario.kind)(
                    payload, engine or self._engine, kernel or self.kernel)
        except BudgetExhausted as exhausted:
            self.clear_caches()
            if budget is None or exhausted.seconds != budget:
                raise
            verdict, stats = {"budget_exhausted": True}, {"budget_s": budget}
        else:
            self._stash_scenario_image(scenario.name, payload)
        decide_s = perf_counter() - start
        return self._decision(
            scenario.kind, verdict,
            ok=(verdict == dict(scenario.expected)),
            stats=stats,
            timings={"build_s": build_s, "decide_s": decide_s},
            checksum=verdict.get("checksum"),
            meta={"scenario": scenario.name},
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
        """Warm the kernel-neutral caches one scenario's decision will
        hit: containment payloads carry their union, equivalence
        unfolds its nonrecursive program, and the boundedness search
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
        plans.  On the default session this also runs every clearer in
        the kernel's shared-cache registry, preserving the historical
        ``clear_shared_caches()`` contract."""
        self.caches.clear()
        self._engine.clear_plans()
        if self.caches is _context.GLOBAL_SCOPE:
            from .automata.kernel import clear_registered_caches
            from .core.instances import register_core_caches

            register_core_caches()
            clear_registered_caches()

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
    """The default session wraps the historical process-global state:
    the process default engine and the global cache scope."""
    return Session(engine=process_default_engine(),
                   cache=CachePolicy(scope="shared"), name="default")


_context.register_default_session_factory(_make_default_session)


def default_session() -> Session:
    """The process default session (created lazily, exactly once).
    Its caches are the process-global scope; the legacy free functions
    delegate to it when no session is active."""
    return _context.default_session()


def current_session() -> Session:
    """The ambient session: the innermost active one (``with
    session:`` / ``session.activated()``), else the context's default
    (as adjusted by :func:`~repro.automata.kernel.set_default_kernel`),
    else :func:`default_session`."""
    return _context.current_session()


@contextmanager
def use_session(session: Session) -> Iterator[Session]:
    """Make *session* ambient for the ``with`` block (alias for
    ``session.activated()`` that reads well at call sites)."""
    with session.activated() as active:
        yield active
