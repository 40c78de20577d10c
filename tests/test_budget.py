"""Wall-clock budgets (:mod:`repro.budget`): the one deadline
mechanism behind the ``tag:stress`` tier's deterministic
``{"budget_exhausted": True}`` verdicts and every caller deadline."""

import time

import pytest

from repro import __main__ as cli
from repro.budget import BudgetExhausted, check_deadline, time_budget
from repro.cq.containment import cq_contained_in_ucq
from repro.datalog.engine import EngineConfig
from repro.datalog.unfold import expansion_union
from repro.programs import transitive_closure, word
from repro.programs.library import buys_bounded, buys_bounded_rewriting
from repro.session import Session
from repro.workloads.scenarios import get_scenario

from .conftest import run_in_thread


def test_no_budget_is_a_no_op():
    with time_budget(None):
        check_deadline()
    with time_budget(0):
        check_deadline()
    with time_budget(-1.0):
        check_deadline()


def _spin():
    while True:
        check_deadline()
        time.sleep(0.01)


def test_budget_fires_on_overrun():
    with pytest.raises(BudgetExhausted) as info:
        with time_budget(0.05):
            _spin()
    assert info.value.seconds == 0.05


def test_budget_does_not_fire_under_the_limit():
    with time_budget(5.0):
        total = sum(range(1000))
        check_deadline()
    assert total == 499500
    # The deadline is gone afterwards: nothing fires later.
    time.sleep(0.01)
    check_deadline()


def test_nested_budgets_restore_the_outer_timer():
    started = time.monotonic()
    with time_budget(30.0):
        with time_budget(0.05):
            with pytest.raises(BudgetExhausted) as info:
                with time_budget(10.0):
                    # The tightest enclosing budget wins even under a
                    # looser inner one.
                    _spin()
        assert info.value.seconds == 0.05
        assert time.monotonic() - started < 1.0
        check_deadline()  # the outer 30 s budget is back, unexpired
    check_deadline()


#: The two budgeted stress containments (``budget_s`` 1.5 s) plus two
#: interpretive trace evaluations, whose engine set-up and joins run
#: long stretches between fixpoint iterations.
TIGHTEST_WINS_CELLS = [
    ("stress_space_containment_n1", None),
    ("stress_nonrec_containment_n1", None),
    ("stress_trace_eval_corrupt_n2", EngineConfig(compiled=False)),
    ("stress_trace_eval_legal_n2", EngineConfig(compiled=False)),
]


@pytest.mark.usefixtures("frozen_heap")
@pytest.mark.parametrize("on_thread", [False, True],
                         ids=["main", "worker"])
@pytest.mark.parametrize("name,engine", TIGHTEST_WINS_CELLS,
                         ids=[cell[0] for cell in TIGHTEST_WINS_CELLS])
def test_tightest_caller_deadline_wins_on_every_thread(name, engine,
                                                       on_thread):
    """A 0.3 s caller deadline fires as ``BudgetExhausted(0.3)`` --
    not the scenario's own looser budget -- promptly, on the main
    thread and on a worker thread alike."""

    def run():
        started = time.monotonic()
        with pytest.raises(BudgetExhausted) as info:
            Session(engine=engine).run_scenario(
                name, deadline=0.3)
        return info.value.seconds, time.monotonic() - started

    seconds, wall = run_in_thread(run, timeout=10) if on_thread else run()
    assert seconds == 0.3
    assert wall < 0.6, f"{name} overran its 0.3 s deadline: {wall:.2f}s"


def test_budgeted_scenario_reports_exhaustion_as_its_verdict():
    scenario = get_scenario("stress_space_containment_n1")
    assert scenario.budget_s is not None
    session = Session(name="budget-test")
    result = session.run_scenario(scenario)
    assert result["verdict"] == {"budget_exhausted": True}
    assert result["ok"] is True  # exhaustion IS the expected verdict


@pytest.mark.usefixtures("frozen_heap")
def test_budgeted_scenario_reports_exhaustion_on_a_worker_thread():
    scenario = get_scenario("stress_space_containment_n1")
    started = time.monotonic()
    result = run_in_thread(
        lambda: Session().run_scenario(scenario), timeout=10)
    assert result["verdict"] == {"budget_exhausted": True}
    assert time.monotonic() - started < scenario.budget_s + 0.3


def test_deadline_covers_the_unfolding_of_a_nonrecursive_target():
    # word(12) unfolds to 4,096 disjuncts: seconds of unfolding, then a
    # cover search per probed expansion against all of them.
    started = time.monotonic()
    with pytest.raises(BudgetExhausted):
        Session().contains_nonrecursive(transitive_closure(), "p", word(12),
                                        "word12", deadline=0.05)
    assert time.monotonic() - started < 0.5


def test_nonrecursive_containment_records_its_unfolding():
    decision = Session().contains_nonrecursive(
        buys_bounded(), "buys", buys_bounded_rewriting())
    assert decision.verdict == {"contained": True}
    assert decision.stats["union_disjuncts"] == 2
    assert "unfold_s" in decision.timings


def test_cli_deadline_covers_the_union_payload(capsys):
    started = time.monotonic()
    code = cli.main(["decide", "containment",
                     "--program", "p(X, Y) :- e(X, Y). "
                                  "p(X, Y) :- e(X, Z), p(Z, Y).",
                     "--goal", "p",
                     "--union", " ".join(map(str, word(12).rules)),
                     "--union-goal", "word12", "--deadline", "0.05"])
    assert code == 2
    assert "budget of 0.05s exhausted" in capsys.readouterr().err
    assert time.monotonic() - started < 0.5


def test_cover_search_and_deduplication_check_the_deadline():
    union = expansion_union(transitive_closure(), "p", 3)
    theta = union.disjuncts[-1]
    with time_budget(1e-9):
        with pytest.raises(BudgetExhausted):
            cq_contained_in_ucq(theta, union)
        with pytest.raises(BudgetExhausted):
            union.deduplicated()
