"""The scenario registry: named, self-checking decision workloads.

A :class:`Scenario` bundles one decision (or evaluation) job -- its
inputs, its kind, and its **expected ground truth** -- behind a stable
name.  The registry is the single catalogue that the batch runner
(:mod:`repro.runner`), the benchmark suite (``benchmarks/``), the CI
smoke matrix, and the tests all draw from, replacing the ad-hoc
configs that used to live in each ``benchmarks/bench_*.py``.

Kinds and their verdicts
------------------------

===============  ====================================================
kind             verdict (JSON-serializable, process-independent)
===============  ====================================================
``containment``  ``{"contained": bool}``
``equivalence``  ``{"equivalent", "forward", "backward": bool}``
``boundedness``  ``{"bounded": True|None, "depth": int|None}``
``evaluation``   ``{"count": int, "checksum": str}`` (sha1 of the
                 sorted goal rows -- stable across processes, unlike
                 ``hash()`` under ``PYTHONHASHSEED``)
``magic``        ``{"rows": int, "magic_beats_direct": bool}`` (the
                 derived-fact counts land in ``stats``)
===============  ====================================================

``run_scenario(scenario)`` executes a scenario on the ambient session
(:meth:`repro.session.Session.run_scenario`, which hands the payload
to :meth:`~repro.session.Session.run_payload`) and returns its
:class:`~repro.session.Decision` -- dict-compatible, so
``result["verdict"]`` / ``result["ok"]`` / ``result["stats"]`` read as
before; the caller owns cache lifecycle.  The engine is the ambient
session's: to run a scenario on another engine, run it in a
``Session(engine=EngineConfig(...))``.  Scenarios are rebuilt from
the registry *by name* inside worker processes, so nothing here needs
to pickle beyond the name strings.

    >>> from repro.workloads import get_scenario, run_scenario
    >>> run_scenario(get_scenario("bounded_buys"))["ok"]
    True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

# perfbench/spans.py patches this name (ROADMAP items 7 and 9).
from ..core.boundedness import search_boundedness  # noqa: F401
from ..cq.query import UnionOfConjunctiveQueries
from ..datalog.unfold import expansion_union
from ..programs.library import (
    buys_bounded,
    buys_bounded_rewriting,
    buys_recursive,
    buys_recursive_rewriting,
    dist,
    plain_transitive_closure,
    same_generation,
    transitive_closure,
    widget_certified,
    widget_certified_rewriting,
)
from ..session import rows_checksum
from . import generators as gen

KINDS = ("containment", "equivalence", "boundedness", "evaluation", "magic")

#: Kinds decided by the automaton stack; the remaining kinds run on
#: the evaluation engine (the engine matters).
DECISION_KINDS = ("containment", "equivalence", "boundedness")


@dataclass(frozen=True)
class Scenario:
    """One named, self-checking workload.

    ``build`` returns the scenario payload (programs, unions,
    databases) freshly on every call -- payloads are deterministic, so
    two builds are interchangeable.  ``expected`` is the ground-truth
    verdict computed by construction (see
    :mod:`repro.workloads.generators`), against which every run is
    checked.
    """

    name: str
    kind: str
    description: str
    build: Callable[[], Dict]
    expected: Mapping
    tags: Tuple[str, ...] = ()
    #: Rough relative cost of one run (1.0 = a few ms).  Only a load-
    #: balancing hint for the batch runner's shard dealer -- never
    #: affects verdicts or ordering of results.
    weight: float = 1.0
    #: Wall-clock budget in seconds, or None for unbudgeted.  The
    #: ``tag:stress`` tier runs the paper's lower-bound instances --
    #: EXPSPACE/2EXPTIME-hard *by construction* -- so exhausting the
    #: budget is their expected verdict: when the budget fires,
    #: :meth:`repro.session.Session.run_scenario` reports the verdict
    #: ``{"budget_exhausted": True}``, which such scenarios register
    #: as their ground truth (see :mod:`repro.workloads.stress`).
    budget_s: Optional[float] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")


class LazyExpected(Mapping):
    """A ground-truth verdict computed on first use.

    The ``tag:scale`` scenarios' oracles walk 10^5--10^6-fact edge
    lists; computing them eagerly at registration would tax every
    ``import repro.workloads``.  This Mapping defers the thunk until a
    run (or a test) actually compares against the verdict, then caches
    the dict.
    """

    __slots__ = ("_thunk", "_value")

    def __init__(self, thunk: Callable[[], Dict]):
        self._thunk = thunk
        self._value: Optional[Dict] = None

    def _materialize(self) -> Dict:
        if self._value is None:
            self._value = dict(self._thunk())
        return self._value

    def __getitem__(self, key):
        return self._materialize()[key]

    def __iter__(self) -> Iterator:
        return iter(self._materialize())

    def __len__(self) -> int:
        return len(self._materialize())

    def __repr__(self):
        if self._value is None:
            return "LazyExpected(<unevaluated>)"
        return f"LazyExpected({self._value!r})"


REGISTRY: Dict[str, Scenario] = {}


def register(scenario: Scenario) -> Scenario:
    """Add *scenario* to the registry (names must be unique)."""
    if scenario.name in REGISTRY:
        raise ValueError(f"duplicate scenario name {scenario.name!r}")
    REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look a scenario up by name (raises ``KeyError`` with the known
    names listed when absent)."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(sorted(REGISTRY))}"
        ) from None


def scenario_names(kind: Optional[str] = None,
                   tag: Optional[str] = None) -> List[str]:
    """Registered names, sorted, optionally filtered by kind / tag."""
    return sorted(
        name
        for name, s in REGISTRY.items()
        if (kind is None or s.kind == kind) and (tag is None or tag in s.tags)
    )


# ``rows_checksum`` is the digest of :mod:`repro.datalog.result`, exposed
# on the session layer (it is the ``checksum`` hook of every evaluation
# Decision); re-exported here because the registry's ground-truth
# builders are its heaviest users.  Engine answers are digested by
# ``EvaluationResult.checksum``, which feeds the same encoding.


def run_scenario(scenario: Scenario):
    """Execute *scenario* and check its verdict against ground truth.

    Runs on the ambient session
    (:meth:`repro.session.Session.run_scenario`), with its engine, and
    returns its :class:`~repro.session.Decision` -- dict-compatible, so
    ``result["verdict"]`` / ``result["ok"]`` / ``result["stats"]``
    keep working.  Cache lifecycle belongs to the caller
    (:mod:`repro.runner`).
    """
    from ..session import current_session

    return current_session().run_scenario(scenario)


# ----------------------------------------------------------------------
# The registered catalogue.
#
# Builders are module-level closures over deterministic generator
# calls, so worker processes reconstruct identical payloads by name.
# ----------------------------------------------------------------------

def _containment(name, description, build, contained, tags=(), weight=1.0):
    register(Scenario(name=name, kind="containment",
                      description=description, build=build,
                      expected={"contained": contained}, tags=tuple(tags),
                      weight=weight))


def _equivalence(name, description, build, equivalent, forward, backward,
                 tags=(), weight=1.0):
    register(Scenario(name=name, kind="equivalence",
                      description=description, build=build,
                      expected={"equivalent": equivalent, "forward": forward,
                                "backward": backward},
                      tags=tuple(tags), weight=weight))


def _boundedness(name, description, build, bounded, depth, tags=(),
                 weight=1.0):
    register(Scenario(name=name, kind="boundedness",
                      description=description, build=build,
                      expected={"bounded": bounded, "depth": depth},
                      tags=tuple(tags), weight=weight))


# --- containment ------------------------------------------------------

_containment(
    "contain_chain_w1",
    "guarded chain (width 1) in its covering union (Theorem 5.12, holds)",
    lambda: {"program": gen.guarded_chain(1), "goal": "p",
             "union": gen.covering_union()},
    contained=True, tags=("bench", "chain"),
)

_containment(
    "contain_chain_w2",
    "guarded chain (width 2) in its covering union (wider instance space)",
    lambda: {"program": gen.guarded_chain(2), "goal": "p",
             "union": gen.covering_union()},
    contained=True, tags=("bench", "chain"), weight=3.0,
)

_containment(
    "contain_tc_trunc1",
    "transitive closure in its depth-1 truncation (fails immediately)",
    lambda: {"program": transitive_closure(), "goal": "p",
             "union": expansion_union(transitive_closure(), "p", 1)},
    contained=False, tags=("bench", "truncation"),
)

_containment(
    "contain_tc_trunc2",
    "transitive closure in its depth-2 truncation (fails: unbounded)",
    lambda: {"program": transitive_closure(), "goal": "p",
             "union": expansion_union(transitive_closure(), "p", 2)},
    contained=False, tags=("bench", "truncation"),
)

_containment(
    "contain_tc_trunc3",
    "transitive closure in its depth-3 truncation (fails, deeper search)",
    lambda: {"program": transitive_closure(), "goal": "p",
             "union": expansion_union(transitive_closure(), "p", 3)},
    contained=False, tags=("bench", "truncation"),
)

_containment(
    "contain_tc_trunc2_word",
    "depth-2 truncation; auto picks the word-automaton pathway for "
    "the chain-form transitive closure (Proposition 4.3)",
    lambda: {"program": transitive_closure(), "goal": "p",
             "union": expansion_union(transitive_closure(), "p", 2)},
    contained=False, tags=("word", "truncation"),
)

_containment(
    "contain_sirup_s7",
    "random sirup (seed 7) in its covering union (holds by construction)",
    lambda: {"program": gen.sirup(2, seed=7), "goal": "p",
             "union": gen.sirup_covering_union(2, seed=7)},
    contained=True, tags=("generated", "sirup"), weight=20.0,
)

_containment(
    "contain_sirup_s11_uncovered",
    "random sirup (seed 11) against a union missing the base disjunct "
    "(fails with a depth-0 witness)",
    lambda: {"program": gen.sirup(2, seed=11), "goal": "p",
             "union": UnionOfConjunctiveQueries(
                 list(gen.sirup_covering_union(2, seed=11))[1:])},
    contained=False, tags=("generated", "sirup"),
)

_containment(
    "contain_alternating_trunc2",
    "alternating p/q recursion in its depth-2 truncation (fails)",
    lambda: {"program": gen.alternating_recursion(), "goal": "p",
             "union": expansion_union(gen.alternating_recursion(), "p", 2)},
    contained=False, tags=("alternating", "truncation"),
)

# --- equivalence ------------------------------------------------------

_equivalence(
    "equiv_buys_bounded",
    "Example 1.1: Pi_1 is equivalent to its nonrecursive rewriting",
    lambda: {"program": buys_bounded(),
             "nonrecursive": buys_bounded_rewriting(), "goal": "buys"},
    equivalent=True, forward=True, backward=True, tags=("paper", "bench"),
)

_equivalence(
    "equiv_buys_recursive",
    "Example 1.1: Pi_2 is inherently recursive (forward containment fails)",
    lambda: {"program": buys_recursive(),
             "nonrecursive": buys_recursive_rewriting(), "goal": "buys"},
    equivalent=False, forward=False, backward=True, tags=("paper", "bench"),
)

_equivalence(
    "equiv_widget",
    "certified-supplier program equals its depth-2 rewriting",
    lambda: {"program": widget_certified(),
             "nonrecursive": widget_certified_rewriting(), "goal": "ok"},
    equivalent=True, forward=True, backward=True, tags=("bench",),
)

_equivalence(
    "equiv_bounded_family_s3",
    "generated bounded program (2 guards, seed 3) equals its rewriting",
    lambda: {"program": gen.bounded_program(2, seed=3),
             "nonrecursive": gen.bounded_rewriting(2, seed=3), "goal": "p"},
    equivalent=True, forward=True, backward=True, tags=("generated",),
)

_equivalence(
    "equiv_dist_mismatch",
    "Example 6.1: dist(2) (paths of length 4) is not dist(1) (length 2)",
    lambda: {"program": dist(2), "nonrecursive": dist(1), "goal": "dist2",
             "nonrecursive_goal": "dist1"},
    equivalent=False, forward=False, backward=False, tags=("paper",),
    weight=3.0,
)

# --- boundedness ------------------------------------------------------

_boundedness(
    "bounded_buys",
    "Example 1.1: Pi_1 certified bounded at depth 2",
    lambda: {"program": buys_bounded(), "goal": "buys", "max_depth": 3},
    bounded=True, depth=2, tags=("paper", "bench"),
)

_boundedness(
    "bounded_widget",
    "certified-supplier program certified bounded at depth 2",
    lambda: {"program": widget_certified(), "goal": "ok", "max_depth": 3},
    bounded=True, depth=2, tags=("bench",),
)

_boundedness(
    "bounded_family_s5",
    "generated bounded program (3 guards, seed 5) certified at depth 2",
    lambda: {"program": gen.bounded_program(3, seed=5), "goal": "p",
             "max_depth": 3},
    bounded=True, depth=2, tags=("generated",), weight=3.0,
)

_boundedness(
    "unbounded_tc",
    "transitive closure: no certificate up to depth 3 (unbounded)",
    lambda: {"program": transitive_closure(), "goal": "p", "max_depth": 3},
    bounded=None, depth=None, tags=("bench",),
)

_boundedness(
    "unbounded_sirup_s9",
    "random sirup (seed 9): no certificate up to depth 3 (unbounded)",
    lambda: {"program": gen.sirup(1, seed=9), "goal": "p", "max_depth": 3},
    bounded=None, depth=None, tags=("generated", "sirup"),
)

# --- evaluation -------------------------------------------------------

def _eval_chain_payload():
    edges = gen.chain_edges(120)
    return {"program": transitive_closure(), "goal": "p",
            "database": gen.edges_database(edges, ("e", "e0"))}


def _eval_grid_payload():
    edges = gen.grid_edges(10, 10)
    return {"program": plain_transitive_closure(), "goal": "p",
            "database": gen.edges_database(edges, ("e",))}


def _eval_random_payload():
    edges = gen.random_graph_edges(60, 180, seed=13)
    return {"program": plain_transitive_closure(), "goal": "p",
            "database": gen.edges_database(edges, ("e",))}


def _eval_sg_payload():
    return {"program": same_generation(), "goal": "sg",
            "database": gen.tree_updown_database(5, 2)}


def _evaluation(name, description, build, expected_rows, tags=()):
    """Register an evaluation scenario whose ground truth (count and
    row checksum) comes from a *structurally* computed row set -- the
    engine's answer is checked against graph walks, not against
    itself."""
    register(Scenario(
        name=name, kind="evaluation", description=description, build=build,
        expected={"count": len(expected_rows),
                  "checksum": rows_checksum(expected_rows)},
        tags=tuple(tags),
    ))


_evaluation(
    "eval_tc_chain_120",
    "transitive closure over a 120-edge chain (7260 paths)",
    _eval_chain_payload,
    gen.reachable_pairs(gen.chain_edges(120)),
    tags=("bench", "chain"),
)

_evaluation(
    "eval_tc_grid_10x10",
    "nonlinear reachability over a 10x10 monotone grid",
    _eval_grid_payload,
    gen.reachable_pairs(gen.grid_edges(10, 10)),
    tags=("bench", "grid"),
)

_evaluation(
    "eval_tc_random_s13",
    "reachability over a random graph (60 nodes, seed 13)",
    _eval_random_payload,
    gen.reachable_pairs(gen.random_graph_edges(60, 180, seed=13)),
    tags=("generated",),
)

_evaluation(
    "eval_sg_tree_d5",
    "same-generation over a binary tree of depth 5 "
    "(equal-depth pairs: sum of 4^d)",
    _eval_sg_payload,
    gen.same_depth_pairs(5, 2),
    tags=("bench", "tree"),
)

# --- the scale tier (tag:scale) ---------------------------------------
#
# Large-EDB evaluation scenarios for the columnar data plane: 10^5-fact
# databases whose answers stay linear in the input (two-hop joins,
# single-source reachability), so the join work -- not the output
# materialization -- is what gets measured.  Ground truth comes from
# single-pass structural oracles and is computed lazily (LazyExpected)
# the first time a run checks its verdict.


def _scale_evaluation(name, description, build, rows_thunk, tags=("scale",),
                      weight=50.0):
    """Register a large-EDB evaluation scenario; *rows_thunk* produces
    the structurally-computed expected row set on demand."""
    register(Scenario(
        name=name, kind="evaluation", description=description, build=build,
        expected=LazyExpected(lambda: {
            "count": len(rows := rows_thunk()),
            "checksum": rows_checksum(rows),
        }),
        tags=tuple(tags), weight=weight,
    ))


def _scale_chain_payload(length):
    return lambda: {"program": gen.two_hop_program(), "goal": "p",
                    "database": gen.edges_database(gen.chain_edges(length),
                                                   ("e",))}


def _scale_random_payload(nodes, edges, seed):
    def build():
        db = gen.edges_database(
            gen.random_graph_edges(nodes, edges, seed=seed), ("e",))
        db.add("src", ("u0",))
        return {"program": gen.single_source_reach(), "goal": "r",
                "database": db}
    return build


def _scale_grid_payload(rows, cols):
    def build():
        db = gen.edges_database(gen.grid_edges(rows, cols), ("e",))
        db.add("src", ("g0_0",))
        return {"program": gen.single_source_reach(), "goal": "r",
                "database": db}
    return build


_scale_evaluation(
    "scale_chain_2hop_100k",
    "two-hop join over a 100k-edge chain (pure join, one stage)",
    _scale_chain_payload(100_000),
    lambda: gen.two_hop_pairs(gen.chain_edges(100_000)),
)

_scale_evaluation(
    "scale_random_reach_120k",
    "single-source reachability over a random graph "
    "(60k nodes, 120k edges, seed 29)",
    _scale_random_payload(60_000, 120_000, 29),
    lambda: {(node,) for node in gen.reachable_from(
        gen.random_graph_edges(60_000, 120_000, seed=29), "u0")},
)

_scale_evaluation(
    "scale_grid_reach_230x230",
    "corner reachability over a 230x230 monotone grid "
    "(105k edges, ~459 semi-naive rounds)",
    _scale_grid_payload(230, 230),
    lambda: {(node,) for node in gen.reachable_from(
        gen.grid_edges(230, 230), "g0_0")},
)

_scale_evaluation(
    "scale_chain_2hop_5k",
    "two-hop join over a 5k-edge chain (smoke-size probe of the scale "
    "tier's shape)",
    _scale_chain_payload(5_000),
    lambda: gen.two_hop_pairs(gen.chain_edges(5_000)),
    tags=("scale", "smoke"), weight=3.0,
)

# --- magic ------------------------------------------------------------

register(Scenario(
    name="magic_star_8x12",
    kind="magic",
    description="bound-first reachability on an 8-ray star: magic "
                "derives an order of magnitude fewer facts",
    build=lambda: {"program": plain_transitive_closure(), "goal": "p",
                   "database": gen.edges_database(gen.star_edges(8, 12),
                                                  ("e",)),
                   "adornment": "bf", "bindings": ("r0_0",)},
    expected={"rows": 12, "magic_beats_direct": True},
    tags=("bench", "magic"),
))
