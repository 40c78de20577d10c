"""Wall-clock budgets (:mod:`repro.budget`): the one deadline
mechanism behind the ``tag:stress`` tier's deterministic
``{"budget_exhausted": True}`` verdicts and every caller deadline."""

import time

import pytest

from repro.budget import BudgetExhausted, check_deadline, time_budget
from repro.datalog.engine import EngineConfig
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


#: The three budgeted stress scenarios (``budget_s`` 1.5 s) plus an
#: interpretive trace evaluation, whose engine set-up and joins run
#: long stretches between fixpoint iterations.
TIGHTEST_WINS_CELLS = [
    ("stress_space_containment_n1", None),
    ("stress_nonrec_containment_n1", None),
    ("stress_dist_equiv_4v3", None),
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
            Session(engine=engine, cache="private").run_scenario(
                name, deadline=0.3)
        return info.value.seconds, time.monotonic() - started

    seconds, wall = run_in_thread(run, timeout=10) if on_thread else run()
    assert seconds == 0.3
    assert wall < 0.6, f"{name} overran its 0.3 s deadline: {wall:.2f}s"


def test_budgeted_scenario_reports_exhaustion_as_its_verdict():
    scenario = get_scenario("stress_space_containment_n1")
    assert scenario.budget_s is not None
    session = Session(cache="private", name="budget-test")
    result = session.run_scenario(scenario)
    assert result["verdict"] == {"budget_exhausted": True}
    assert result["ok"] is True  # exhaustion IS the expected verdict


@pytest.mark.usefixtures("frozen_heap")
def test_budgeted_scenario_reports_exhaustion_on_a_worker_thread():
    scenario = get_scenario("stress_space_containment_n1")
    started = time.monotonic()
    result = run_in_thread(
        lambda: Session(cache="private").run_scenario(scenario), timeout=10)
    assert result["verdict"] == {"budget_exhausted": True}
    assert time.monotonic() - started < scenario.budget_s + 0.3
