"""Session facade: isolation, uniform Decisions, shim compatibility.

The load-bearing properties of the API redesign:

* **Isolation** -- two live sessions with different backends produce
  bit-identical verdicts with *zero* cache bleed (asserted via the
  scopes' hit/miss counters);
* **Uniformity** -- every decision/evaluation entry point is reachable
  as a ``Session`` method returning a ``Decision`` (verdict + stats +
  timings + config fingerprint);
* **Compatibility** -- the legacy free functions keep their exact
  signatures and return types while delegating to the ambient session,
  and the ambient session is per-context rather than process-global
  mutable state.
"""

import hashlib
import inspect
import json
import pickle
import threading

import pytest

from repro import (
    Decision,
    Session,
    current_session,
    default_session,
    parse_program,
)
from repro.context import GLOBAL_SCOPE
from repro.core import (
    ContainmentResult,
    EquivalenceResult,
    BoundednessResult,
    contained_in_ucq,
    decide_boundedness,
    is_equivalent_to_nonrecursive,
)
from repro.datalog.database import Database
from repro.datalog.engine import Engine, EngineConfig, default_engine
from repro.datalog.errors import ValidationError
from repro.datalog.unfold import expansion_union
from repro.programs import transitive_closure
from repro.programs.library import buys_bounded, buys_bounded_rewriting
from repro.runner.batch import ENGINE_CONFIGS
from repro.session import config_fingerprint, rows_checksum
from repro.workloads.generators import automata_pair
from repro import __main__ as cli


TC = transitive_closure()


def _tc_union(depth=2):
    return expansion_union(TC, "p", depth)


#: A contained pair that neither front decides, so deciding it builds
#: the word automata in the ambient session.
AUTOMATA_PAIR = automata_pair("word")


# ----------------------------------------------------------------------
# Isolation.
# ----------------------------------------------------------------------

def test_sessions_with_different_engines_agree_without_cache_bleed():
    columnar = Session(engine=EngineConfig(), name="s-columnar")
    interpretive = Session(engine=EngineConfig(compiled=False),
                           name="s-interpretive")
    program, goal, union = AUTOMATA_PAIR

    first = columnar.contains(program, goal, union)
    second = interpretive.contains(program, goal, union)

    # Bit-identical verdicts AND search stats across sessions.
    assert first.verdict == second.verdict == {"contained": True}
    assert first.stats == second.stats
    assert first.fingerprint != second.fingerprint

    # Each session built its own automata (misses in its own scope)...
    for session in (columnar, interpretive):
        scope = session.cache_stats()["scope"]
        assert scope["core.ptree_automaton"]["misses"] == 1
        assert scope["core.cq_automaton"]["misses"] == len(union)
    # ... and neither borrowed from the other: zero hits anywhere.
    for session in (columnar, interpretive):
        for counters in session.cache_stats()["scope"].values():
            assert counters["hits"] == 0


def test_session_work_does_not_touch_global_scope():
    before = GLOBAL_SCOPE.stats()
    session = Session(name="s-private")
    session.contains(*AUTOMATA_PAIR)
    assert GLOBAL_SCOPE.stats() == before
    assert session.caches.total_entries() > 0


def test_sessions_with_different_engines_agree_on_evaluation():
    from repro.workloads import generators as gen

    db = gen.edges_database(gen.chain_edges(30), ("e", "e0"))
    columnar = Session(engine=EngineConfig())
    interpretive = Session(engine=EngineConfig(compiled=False))
    a = columnar.evaluate(TC, db, goal="p")
    b = interpretive.evaluate(TC, db, goal="p")
    assert a.verdict == b.verdict
    assert a.checksum == b.checksum
    assert a.fingerprint != b.fingerprint  # different configs...
    assert a.checksum == rows_checksum(a.raw.facts("p"))  # ...same rows


def test_clear_caches_resets_scope_and_plans():
    from repro.workloads import generators as gen

    session = Session(name="s-clear")
    db = gen.edges_database(gen.chain_edges(5), ("e", "e0"))
    session.evaluate(TC, db)
    session.contains(TC, "p", _tc_union())
    assert session.caches.total_entries() > 0
    assert session.cache_stats()["plans"] > 0
    session.clear_caches()
    assert session.caches.total_entries() == 0
    assert session.cache_stats()["plans"] == 0


def test_cache_policy_shared_uses_global_scope():
    """Only the default session reads and writes the process-global
    scope; every constructed session owns a private one, and there is
    no cache-scope argument to share it."""
    assert default_session().caches is GLOBAL_SCOPE
    assert Session().caches is not GLOBAL_SCOPE
    with pytest.raises(TypeError):
        Session(cache="shared")


# ----------------------------------------------------------------------
# Ambient resolution (the ContextVar).
# ----------------------------------------------------------------------

def test_activation_makes_session_ambient():
    session = Session(engine=EngineConfig(compiled=False),
                      name="s-ambient")
    # Outside any activation the ambient session is the default one.
    assert current_session().caches is default_session().caches
    ambient_before = current_session()
    with session:
        assert current_session() is session
        assert default_engine() is session.engine
    assert current_session() is ambient_before
    assert default_engine() is not session.engine


def test_free_functions_run_inside_ambient_session():
    session = Session(name="s-freefn")
    with session:
        result = contained_in_ucq(*AUTOMATA_PAIR)
    assert isinstance(result, ContainmentResult)
    # The work landed in the session's scope, not the global one.
    assert session.caches.total_entries() > 0


# ----------------------------------------------------------------------
# The uniform Decision.
# ----------------------------------------------------------------------

def test_every_entry_point_returns_a_decision():
    from repro.programs import plain_transitive_closure
    from repro.workloads import generators as gen

    session = Session(name="s-surface")
    union = _tc_union()
    star = gen.edges_database(gen.star_edges(3, 4), ("e",))
    chain = gen.edges_database(gen.chain_edges(6), ("e", "e0"))
    theta = list(union)[0]
    nonrec = buys_bounded_rewriting()
    calls = [
        session.contains(TC, "p", union),
        session.contains_cq(TC, "p", theta),
        session.contains_nonrecursive(buys_bounded(), "buys", nonrec),
        session.cq_contained(theta, TC, "p"),
        session.ucq_contained(union, TC, "p"),
        session.nonrecursive_contained(nonrec, "buys", buys_bounded(), "buys"),
        session.equivalent_to_nonrecursive(buys_bounded(), nonrec, "buys"),
        session.equivalent_to_ucq(TC, "p", union),
        session.bounded(buys_bounded(), "buys", max_depth=3),
        session.evaluate(TC, chain, goal="p"),
        session.query(TC, chain, "p"),
        session.magic(plain_transitive_closure(), star, "p", "bf",
                      ("r0_0",)),
        session.run_scenario("bounded_buys"),
    ]
    for decision in calls:
        assert isinstance(decision, Decision)
        assert decision.fingerprint == session.fingerprint
        assert isinstance(decision.verdict, dict)
        assert decision.timings


def test_decision_record_and_mapping_compat():
    session = Session(name="s-record")
    decision = session.run_scenario("bounded_buys")
    assert decision.ok is True
    assert decision["ok"] is True
    assert decision["verdict"] == {"bounded": True, "depth": 2}
    assert decision["stats"] == decision.stats
    assert "fingerprint" in decision
    json.dumps(decision.record())  # trajectory-serializable
    assert bool(decision)


def test_decision_truthiness_follows_kind():
    session = Session(name="s-truth")
    assert bool(session.contains(TC, "p", _tc_union())) is False
    assert bool(session.bounded(buys_bounded(), "buys", max_depth=3))
    failing = session.run_scenario("contain_tc_trunc2")
    assert failing.ok is True  # ground truth says non-containment
    assert bool(failing) is False  # but the verdict itself is negative


def test_one_session_entered_from_two_threads():
    """``with session:`` from two threads concurrently: each thread's
    exit must pop its *own* context's token (a shared token stack on
    the instance crashed here with 'Token created in a different
    Context')."""
    session = Session(name="s-two-threads")
    barrier = threading.Barrier(2, timeout=10)
    errors = []

    def worker():
        try:
            with session:
                barrier.wait()  # both threads are inside the block
                assert current_session() is session
            assert current_session() is not session
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors


def test_counterexample_rejects_witnessless_decisions():
    from repro.core import counterexample_database

    session = Session(name="s-no-witness")
    stripped = session.contains(TC, "p", _tc_union()).without_payload()
    with pytest.raises(ValidationError, match="no witness payload"):
        counterexample_database(stripped, TC)
    boolean = session.cq_contained(list(_tc_union())[0], TC, "p")
    with pytest.raises(ValidationError, match="no proof-tree witness"):
        counterexample_database(boolean, TC)


def test_decision_pickles_without_payload():
    session = Session(name="s-pickle")
    decision = session.contains(TC, "p", _tc_union()).without_payload()
    clone = pickle.loads(pickle.dumps(decision))
    assert clone.verdict == decision.verdict
    assert clone.certificate is None and clone.raw is None


def test_containment_certificate_converts_to_counterexample():
    from repro.core import counterexample_database
    from repro.datalog.engine import evaluate

    session = Session(name="s-cert")
    decision = session.contains(TC, "p", _tc_union())
    assert decision.certificate is not None
    database, row = counterexample_database(decision, TC)
    assert row in evaluate(TC, database).facts("p")


@pytest.mark.parametrize("scenario", ["eval_sg_tree_d5",
                                      "equiv_buys_bounded"])
def test_decision_fingerprint_names_the_computing_engine(scenario):
    interpretive_config = EngineConfig(compiled=False)
    columnar = Session(engine=EngineConfig())
    interpretive = Session(engine=interpretive_config)
    fast = columnar.run_scenario(scenario)
    reference = interpretive.run_scenario(scenario)
    assert fast.ok and reference.ok
    assert reference.verdict == fast.verdict
    assert reference.checksum == fast.checksum
    assert reference.fingerprint == config_fingerprint(interpretive_config)
    assert fast.fingerprint == config_fingerprint(EngineConfig())
    # Each session's own engine did the evaluation: only the columnar
    # one compiles plans.
    assert interpretive.cache_stats()["plans"] == 0
    assert columnar.cache_stats()["plans"] > 0


def test_fingerprint_stable_and_config_sensitive():
    a = Session(engine=EngineConfig())
    b = Session(engine=EngineConfig())
    c = Session(engine=EngineConfig(compiled=False))
    assert a.fingerprint == b.fingerprint
    assert a.fingerprint != c.fingerprint
    assert sorted(a.config) == ["engine"]


# ----------------------------------------------------------------------
# Shim compatibility: the legacy free functions.
# ----------------------------------------------------------------------

#: Every Session decision method, by its parameters after ``self``.
#: The engine is the session's own, so none takes ``engine``; the
#: program picks the containment pathway, so none takes ``method``; and
#: no decision takes an analyzer (``use_certificates``) or search
#: (``use_antichain``) switch: adding a per-call knob is a diff here.
SESSION_SIGNATURES = {
    "contains": ["program", "goal", "union", "deadline"],
    "contains_cq": ["program", "goal", "theta", "deadline"],
    "contains_nonrecursive": ["program", "goal", "nonrecursive",
                              "nonrecursive_goal", "deadline"],
    "cq_contained": ["theta", "program", "goal", "deadline"],
    "ucq_contained": ["union", "program", "goal", "deadline"],
    "nonrecursive_contained": ["nonrecursive", "nonrecursive_goal",
                               "program", "goal", "deadline"],
    "equivalent_to_nonrecursive": ["program", "nonrecursive", "goal",
                                   "nonrecursive_goal", "deadline"],
    "equivalent_to_ucq": ["program", "goal", "union", "deadline"],
    "bounded": ["program", "goal", "max_depth", "deadline"],
    "evaluate": ["program", "database", "max_stages", "goal", "deadline"],
    "query": ["program", "database", "goal", "max_stages", "deadline"],
    "magic": ["program", "database", "goal", "adornment", "bindings",
              "deadline"],
    "run_payload": ["kind", "payload", "deadline"],
    "run_scenario": ["scenario", "deadline"],
}


def test_legacy_signatures_are_pinned():
    from repro.core import (
        contained_in_cq,
        contained_in_nonrecursive,
        cq_contained_in_datalog,
        equivalent_to_ucq,
        nonrecursive_contained_in_datalog,
        search_boundedness,
        ucq_contained_in_datalog,
    )
    from repro.workloads import run_scenario

    expected = {
        contained_in_ucq: ["program", "goal", "union"],
        contained_in_cq: ["program", "goal", "theta"],
        contained_in_nonrecursive: ["program", "goal", "nonrecursive",
                                    "nonrecursive_goal"],
        cq_contained_in_datalog: ["theta", "program", "goal"],
        ucq_contained_in_datalog: ["union", "program", "goal"],
        nonrecursive_contained_in_datalog: ["nonrecursive",
                                            "nonrecursive_goal",
                                            "program", "goal"],
        is_equivalent_to_nonrecursive: ["program", "nonrecursive", "goal",
                                        "nonrecursive_goal"],
        equivalent_to_ucq: ["program", "goal", "union"],
        decide_boundedness: ["program", "goal", "max_depth"],
        search_boundedness: ["program", "goal", "max_depth"],
        run_scenario: ["scenario"],
    }
    for function, parameters in expected.items():
        assert list(inspect.signature(function).parameters) == parameters
    decision_methods = {
        name for name, member in vars(Session).items()
        if inspect.isfunction(member) and not name.startswith("_")
        and inspect.signature(member).return_annotation == "Decision"
    }
    assert decision_methods == set(SESSION_SIGNATURES)
    for name, parameters in SESSION_SIGNATURES.items():
        signature = inspect.signature(getattr(Session, name))
        assert list(signature.parameters)[1:] == parameters, name


def test_legacy_return_types_preserved():
    assert isinstance(contained_in_ucq(TC, "p", _tc_union()),
                      ContainmentResult)
    assert isinstance(
        is_equivalent_to_nonrecursive(buys_bounded(),
                                      buys_bounded_rewriting(), "buys"),
        EquivalenceResult)
    assert isinstance(decide_boundedness(buys_bounded(), "buys", max_depth=3),
                      BoundednessResult)


def test_shims_and_session_agree():
    session = Session(name="s-agree")
    union = _tc_union()
    shim = contained_in_ucq(TC, "p", union)
    direct = session.contains(TC, "p", union)
    assert shim.contained == direct.verdict["contained"]
    assert shim.stats == direct.stats


def test_clear_and_warm_shims_target_ambient_session():
    from repro.core import clear_shared_caches

    session = Session(name="s-lifecycle")
    with session:
        contained_in_ucq(*AUTOMATA_PAIR)
        assert session.caches.total_entries() > 0
        clear_shared_caches()
        assert session.caches.total_entries() == 0


# ----------------------------------------------------------------------
# The unified CLI.
# ----------------------------------------------------------------------

QUICKSTART_RECURSIVE = ("buys(X, Y) :- likes(X, Y). "
                        "buys(X, Y) :- trendy(X), buys(Z, Y).")
QUICKSTART_NONRECURSIVE = ("buys(X, Y) :- likes(X, Y). "
                           "buys(X, Y) :- trendy(X), likes(Z, Y).")


def test_cli_decide_reproduces_quickstart(capsys):
    code = cli.main(["decide", "equivalence",
                     "--program", QUICKSTART_RECURSIVE,
                     "--nonrecursive", QUICKSTART_NONRECURSIVE,
                     "--goal", "buys", "--expect", "true"])
    out = capsys.readouterr().out
    assert code == 0
    assert '"equivalent": true' in out


def test_cli_decide_containment_truncation(capsys):
    code = cli.main(["decide", "containment",
                     "--program", "p(X, Y) :- e(X, Z), p(Z, Y). "
                                  "p(X, Y) :- e0(X, Y).",
                     "--goal", "p", "--union-depth", "2",
                     "--expect", "false", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == {"contained": False}
    assert record["fingerprint"]


def test_cli_decide_expect_mismatch_fails(capsys):
    code = cli.main(["decide", "boundedness",
                     "--program", QUICKSTART_RECURSIVE,
                     "--goal", "buys", "--expect", "false"])
    capsys.readouterr()
    assert code == 1  # Pi_1 is bounded; expecting false must fail


def test_cli_eval_lists_rows(capsys):
    code = cli.main(["eval",
                     "--program", "p(X, Y) :- e(X, Z), p(Z, Y). "
                                  "p(X, Y) :- e(X, Y).",
                     "--db", "e(a, b). e(b, c).", "--goal", "p"])
    out = capsys.readouterr().out
    assert code == 0
    assert "p(a, c)" in out and '"count": 3' in out


@pytest.mark.parametrize("engine", ["columnar", "interpretive"])
def test_mixed_int_and_str_rows_checksum_numbers_first(engine, capsys):
    """Ints and strs in one column do not compare: the digest sorts
    numbers first instead of raising, on either engine."""
    program, facts = "p(X, Y) :- e(X, Y).", "e(1, a). e(b, 2)."
    expected = rows_checksum([("b", 2), (1, "a")])
    assert expected == hashlib.sha1(
        repr([(1, "a"), ("b", 2)]).encode()).hexdigest()[:16]
    decision = Session(engine=ENGINE_CONFIGS[engine]).query(
        parse_program(program), Database.from_source(facts), "p")
    assert decision.checksum == expected
    code = cli.main(["eval", "--program", program, "--db", facts,
                     "--goal", "p", "--engine", engine, "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["checksum"] == expected


def test_cli_scenarios_alias(capsys):
    code = cli.main(["scenarios", "--scenarios", "bounded_buys",
                     "--workers", "1", "--no-write"])
    out = capsys.readouterr().out
    assert code == 0
    assert "bounded_buys" in out and "FAIL" not in out


def test_cli_usage_errors(capsys):
    assert cli.main(["decide", "equivalence", "--program",
                     QUICKSTART_RECURSIVE, "--goal", "buys"]) == 2
    assert cli.main(["decide", "containment", "--program",
                     QUICKSTART_RECURSIVE, "--goal", "buys"]) == 2
    capsys.readouterr()


# ----------------------------------------------------------------------
# EDB images in scenario runs.
# ----------------------------------------------------------------------

def _adhoc_tc(edges):
    """An ad-hoc evaluation scenario named ``adhoc``: transitive
    closure over *edges*, with ground truth from a graph walk."""
    from repro.programs.library import plain_transitive_closure
    from repro.workloads import generators as gen
    from repro.workloads.scenarios import Scenario

    expected = gen.reachable_pairs(edges)
    return Scenario(
        name="adhoc", kind="evaluation", description="ad-hoc closure",
        build=lambda: {"program": plain_transitive_closure(), "goal": "p",
                       "database": gen.edges_database(edges)},
        expected={"count": len(expected),
                  "checksum": rows_checksum(expected)})


def test_same_named_scenarios_do_not_share_a_banked_image():
    """Each run evaluates its own facts: a second ``adhoc`` scenario
    with other facts of the same shape (one relation, three rows), run
    in the same session, answers as it does in a fresh session."""
    session = Session(name="same-name")
    first = session.run_scenario(_adhoc_tc([(1, 2), (2, 3), (3, 4)]))
    second_scenario = _adhoc_tc([(1, 2), (2, 1), (5, 6)])
    second = session.run_scenario(second_scenario)
    fresh = Session(name="same-name-fresh").run_scenario(second_scenario)
    assert first.ok and second.ok
    assert second.verdict == fresh.verdict
    assert second.verdict["count"] == 5


def test_one_scenario_run_counts_one_image_lookup():
    """An evaluation run builds its payload database afresh, so it
    moves the ``datalog.edb_images`` hits+misses by exactly one --
    also on a repeat run in the same session."""
    session = Session(name="image-count")

    def lookups():
        counters = session.cache_stats()["scope"].get(
            "datalog.edb_images", {"hits": 0, "misses": 0})
        return counters["hits"] + counters["misses"]

    for _ in range(2):
        before = lookups()
        assert session.run_scenario("eval_tc_chain_120").ok
        assert lookups() == before + 1
