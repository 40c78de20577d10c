"""The compiled join-plan engine (repro.datalog.plan).

Differential coverage against the interpretive reference path on the
library programs (including unsafe / empty-body rules and the
stage-bounded semantics), plan-compiler unit checks, and
index-maintenance tests for the interpretive store's ``add_all``.
"""

from __future__ import annotations

import random

import pytest

from repro.datalog.database import Database
from repro.datalog.engine import (
    Engine,
    EngineConfig,
    _Store,
    evaluate,
    naive_evaluate,
    query,
    seminaive_evaluate,
)
from repro.datalog.errors import ValidationError
from repro.datalog.parser import parse_program
from repro.datalog.plan import JoinPlan, PlanCache, compile_program
from repro.datalog.terms import Constant
from repro.programs import library as lib

from .conftest import random_graph_database

COMPILED = Engine(EngineConfig(compiled=True))
INTERPRETIVE = Engine(EngineConfig(compiled=False))


def labeled_graph(seed: int = 3, nodes: int = 5) -> Database:
    rng = random.Random(seed)
    db = random_graph_database(rng, nodes=nodes)
    names = [f"n{i}" for i in range(nodes)]
    for name in names:
        db.add("e0", (name, names[(names.index(name) + 1) % nodes]))
        db.add("zero" if rng.random() < 0.5 else "one", (name,))
        db.add("flat", (name, names[0]))
        db.add("up", (name, names[-1]))
        db.add("down", (names[0], name))
        for j in range(4):
            db.add(f"g{j}", (name, names[(names.index(name) + 1) % nodes]))
    return db


LIBRARY_BUILDERS = [
    lib.buys_bounded, lib.buys_bounded_rewriting, lib.buys_recursive,
    lib.buys_recursive_rewriting, lib.transitive_closure,
    lib.plain_transitive_closure, lambda: lib.dist(3),
    lambda: lib.dist_le(2), lambda: lib.equal(2), lambda: lib.word(3),
    lambda: lib.chain_program(4), lib.nonlinear_reach, lib.same_generation,
    lib.widget_supply_chain, lib.widget_certified,
    lib.widget_certified_rewriting,
]


def database_for(program) -> Database:
    db = labeled_graph()
    # Give every EDB predicate of the program at least some rows over
    # the same constants so no join is trivially empty.
    names = [f"n{i}" for i in range(5)]
    for predicate in sorted(program.edb_predicates):
        if predicate not in db.predicates():
            arity = program.arity[predicate]
            for i in range(4):
                db.add(predicate,
                       tuple(names[(i + k) % len(names)] for k in range(arity)))
    return db


class TestDifferential:
    @pytest.mark.parametrize("builder", LIBRARY_BUILDERS,
                             ids=lambda b: getattr(b, "__name__", "param"))
    @pytest.mark.parametrize("max_stages", [None, 0, 1, 3])
    def test_bit_identical_on_library(self, builder, max_stages):
        program = builder()
        db = database_for(program)
        compiled = COMPILED.evaluate(program, db, max_stages=max_stages)
        interpretive = INTERPRETIVE.evaluate(program, db, max_stages=max_stages)
        assert compiled.idb == interpretive.idb
        assert compiled.stages == interpretive.stages
        assert compiled.fixpoint == interpretive.fixpoint

    def test_unsafe_and_empty_body_rules(self):
        # dist_le carries the paper's empty-body rules dist0(X, X) :- .
        program = lib.dist_le(2)
        db = labeled_graph(seed=5)
        compiled = COMPILED.evaluate(program, db)
        interpretive = INTERPRETIVE.evaluate(program, db)
        assert compiled.idb == interpretive.idb
        # Unsafe head variables range over the whole active domain.
        assert compiled.facts("distlt0")

    def test_unsafe_rule_with_program_constant(self):
        program = parse_program(
            """
            marked(X, Y) :- tag(c, Y).
            tag(c, X) :- .
            """
        )
        db = Database.from_facts([("seen", ("a",)), ("seen", ("b",))])
        compiled = COMPILED.evaluate(program, db)
        interpretive = INTERPRETIVE.evaluate(program, db)
        assert compiled.idb == interpretive.idb
        # 'c' enters the active domain from the program itself.
        values = {c.value for row in compiled.facts("tag") for c in row}
        assert "c" in values

    def test_empty_database_unsafe_rule_derives_nothing(self):
        program = parse_program("p(X) :- .")
        result = COMPILED.evaluate(program, Database())
        assert result.facts("p") == frozenset()
        assert result.idb == INTERPRETIVE.evaluate(program, Database()).idb

    def test_repeated_variables_and_constants(self):
        program = parse_program(
            """
            loop(X) :- e(X, X).
            to_hub(X) :- e(X, hub).
            pair(X, X) :- e(X, Y), e(Y, X).
            """
        )
        db = Database.from_facts([
            ("e", ("a", "a")), ("e", ("a", "hub")), ("e", ("hub", "a")),
            ("e", ("b", "c")), ("e", ("c", "b")),
        ])
        compiled = COMPILED.evaluate(program, db)
        interpretive = INTERPRETIVE.evaluate(program, db)
        assert compiled.idb == interpretive.idb
        assert compiled.facts("loop") == frozenset({(Constant("a"),)})

    def test_module_level_evaluate_routes_compiled(self, tc_program):
        db = labeled_graph(seed=9)
        default = evaluate(tc_program, db)
        forced = evaluate(tc_program, db, engine=INTERPRETIVE)
        assert default.idb == forced.idb
        assert (query(tc_program, db, "p")
                == query(tc_program, db, "p", engine=INTERPRETIVE))


class TestPlanCompiler:
    def test_plan_compiles_once_per_rule_and_variant(self, tc_program):
        cache = PlanCache()
        rule = tc_program.rules[0]
        assert cache.plan(rule, None) is cache.plan(rule, None)
        assert cache.plan(rule, 1) is cache.plan(rule, 1)
        assert cache.plan(rule, None) is not cache.plan(rule, 1)

    def test_compile_program_covers_all_rules(self, tc_program):
        plans = compile_program(tc_program)
        assert set(plans) == set(tc_program.rules)

    def test_head_projection_and_registers(self):
        program = parse_program("p(Y, X, k) :- e(X, Y).")
        plan = JoinPlan(program.rules[0])
        assert plan.nregs == 2
        assert len(plan.head_ops) == 3
        is_regs = [is_reg for is_reg, _ in plan.head_ops]
        assert is_regs == [True, True, False]
        assert plan.unsafe_regs == ()

    def test_unsafe_head_variables_detected(self):
        program = parse_program("p(X, Y) :- e(X, X).")
        plan = JoinPlan(program.rules[0])
        assert len(plan.unsafe_regs) == 1

    def test_delta_variant_marks_delta_step(self, tc_program):
        recursive = tc_program.rules[0]  # p(X,Y) :- e(X,Z), p(Z,Y).
        plan = JoinPlan(recursive, delta_index=1)
        delta_flags = [use_delta for _, use_delta, _, _ in plan.steps]
        assert delta_flags.count(True) == 1
        predicate = [s[0] for s in plan.steps if s[1]][0]
        assert predicate == "p"

    def test_bound_prefix_gets_index_spec(self, tc_program):
        plan = JoinPlan(tc_program.rules[0])
        # The second step joins on a variable bound by the first, so it
        # must carry an index spec.
        assert plan.steps[1][2] is not None

    def test_engine_rejects_unknown_strategy(self):
        with pytest.raises(ValidationError):
            EngineConfig(strategy="bogus")


class TestStoreIndexMaintenance:
    def test_interpretive_store_add_all_maintains_indexes(self):
        db = Database.from_facts([("e", ("a", "b"))])
        store = _Store(db)
        a, b, c = Constant("a"), Constant("b"), Constant("c")
        # Force the lazy index into existence, then insert more rows.
        assert store.candidates("e", 0, a) == {(a, b)}
        fresh = store.add_all("e", {(a, c), (a, b)})
        assert fresh == {(a, c)}
        assert store.candidates("e", 0, a) == {(a, b), (a, c)}
        # Rows for other predicates never leak into the index.
        store.add_all("f", {(a, b)})
        assert store.candidates("e", 0, a) == {(a, b), (a, c)}
