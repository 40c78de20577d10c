"""Layer spans recorded from outside the program.

Each layer's public functions are wrapped at the name their caller
looks up (``module:attribute``), and only while a traced pass runs.
A span's self time is its duration minus the time of the spans that
opened inside it, so the self times of all layers add up to the time
the top-level spans cover, without double counting.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


def _engine_counts(tracer: "Tracer", result) -> None:
    tracer.counts["engine.stages"] += result.stages
    tracer.counts["engine.rows_out"] += sum(
        len(rows) for rows in result.idb.values())


#: (caller-side name, layer).  The layer is the metric prefix; the
#: per-layer metric is ``<layer>_s`` (self seconds per operation).
LAYER_TARGETS: Tuple[Tuple[str, str], ...] = (
    # database: EDB ingest (per-fact Database.add) of the scale payloads.
    ("repro.workloads.generators:edges_database", "database.ingest"),
    # columns: interning into the EdbImage, join kernels, id -> constant.
    ("repro.datalog.columns:edb_image", "columns.intern"),
    ("repro.datalog.columns:execute_batch_fused", "columns.join"),
    ("repro.datalog.columns:ColumnStore.unintern_rows", "columns.unintern"),
    # plan: JoinPlan compile (cache lookup) and resolve against the store.
    ("repro.datalog.plan:PlanCache.plan", "plan.compile"),
    ("repro.datalog.plan:JoinPlan.resolve", "plan.compile"),
    # engine: the fixpoint loop, minus the spans above.
    ("repro.datalog.engine:Engine.evaluate", "engine.evaluate"),
    # session: the evaluation row digest.
    ("repro.workloads.scenarios:rows_checksum", "session.checksum"),
    ("repro.session:rows_checksum", "session.checksum"),
    # unfold: expansion unions and nonrecursive unfolding.
    ("repro.workloads.scenarios:expansion_union", "unfold.expand"),
    ("repro.core.boundedness:expansion_union", "unfold.expand"),
    ("repro.core.equivalence:unfold_nonrecursive", "unfold.expand"),
    ("repro.core.containment:unfold_nonrecursive", "unfold.expand"),
    ("repro.core.word_path:unfold_nonrecursive", "unfold.expand"),
    # core: automaton factories, the profile/antichain searches, the
    # canonical-database backward direction, the boundedness probes.
    ("repro.core.tree_containment:shared_ptree_automaton",
     "core.automaton_build"),
    ("repro.core.tree_containment:shared_cq_automaton",
     "core.automaton_build"),
    ("repro.core.word_path:shared_ptree_automaton", "core.automaton_build"),
    ("repro.core.word_path:shared_cq_automaton", "core.automaton_build"),
    ("repro.core.ptree_automaton:shared_enumerator", "core.automaton_build"),
    ("repro.core.containment:datalog_contained_in_ucq", "core.search"),
    ("repro.core.containment:datalog_contained_in_ucq_linear",
     "core.search"),
    ("repro.core.equivalence:decide_ucq_in_datalog", "core.backward"),
    ("repro.core.containment:decide_nonrecursive_in_datalog",
     "core.backward"),
    ("repro.workloads.scenarios:search_boundedness", "core.bounded_probe"),
    ("repro.core.boundedness:search_boundedness", "core.bounded_probe"),
    # automata: lazy witness trees thawed into proof trees.
    ("repro.core.tree_containment:thaw_witness", "automata.witness"),
    ("repro.automata.tree:thaw_witness", "automata.witness"),
)

#: Post-call hooks that read counts off a wrapped call's return value.
RETURN_HOOKS: Dict[str, Callable] = {
    "repro.datalog.engine:Engine.evaluate": _engine_counts,
}

#: Layers whose span count is itself a metric.
CALL_COUNTS = {"columns.join": "columns.join_calls"}

#: The layer spans the scenario payload build is given (the build is
#: a field of the frozen Scenario, so it is wrapped per operation).
BUILD_LAYER = "workloads.build"


class Tracer:
    """In-memory span accumulator: self seconds and calls per layer,
    plus named counts."""

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        # Child-time accumulators of the open spans; the bottom entry
        # collects the inclusive time of top-level spans.
        self._open: List[float] = [0.0]
        self._patches: List[Tuple[object, str, object]] = []

    @property
    def covered_s(self) -> float:
        """Inclusive time of the top-level spans."""
        return self._open[0]

    def wrap(self, layer: str, fn: Callable,
             on_return: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            tracer._open.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = tracer._open.pop()
                tracer._open[-1] += elapsed
                tracer.self_s[layer] += elapsed - children
                tracer.calls[layer] += 1
            if on_return is not None:
                on_return(tracer, result)
            return result

        return span

    def install(self) -> None:
        """Patch every :data:`LAYER_TARGETS` name."""
        for target, layer in LAYER_TARGETS:
            module_name, path = target.split(":")
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = (owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
            setattr(owner, attr,
                    self.wrap(layer, original, RETURN_HOOKS.get(target)))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched name."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, operations: int) -> Dict[str, float]:
        """Per-operation self seconds of every layer seen, plus the
        call and return-value counts, all divided by *operations*."""
        out = {f"{layer}_s": seconds / operations
               for layer, seconds in self.self_s.items()}
        for layer, name in CALL_COUNTS.items():
            out[name] = self.calls.get(layer, 0) / operations
        for name, value in self.counts.items():
            out[name] = value / operations
        return out
