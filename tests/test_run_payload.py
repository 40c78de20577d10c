"""One path from every caller to each decision procedure.

``Session.run_scenario`` hands its payload to ``Session.run_payload``,
so a scenario run and a direct payload run of the same scenario report
the same verdict, stats and timing keys.  The free functions of
:mod:`repro.core` are the procedures the Session methods call, not
wrappers around them.
"""

import pytest

import repro.core
from repro.core import boundedness, containment, equivalence
from repro.cq.query import UnionOfConjunctiveQueries
from repro.datalog.errors import ValidationError
from repro.datalog.unfold import expansion_union
from repro.programs import transitive_closure
from repro.programs.library import buys_bounded, buys_bounded_rewriting
from repro.session import Session
from repro.workloads.scenarios import get_scenario

from .test_search_counts import EXPECTED_COUNTS


@pytest.mark.parametrize("name", sorted(EXPECTED_COUNTS))
def test_run_scenario_matches_run_payload(name):
    scenario = get_scenario(name)
    by_scenario = Session().run_scenario(name)
    by_payload = Session().run_payload(scenario.kind, scenario.build())
    assert by_scenario.ok
    assert by_scenario.verdict == by_payload.verdict
    assert by_scenario.stats == by_payload.stats
    assert set(by_scenario.timings) == \
        set(by_payload.timings) | {"build_s", "decide_s"}


def test_run_payload_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        Session().run_payload("evaluation", {"program": transitive_closure(),
                                             "goal": "p"})


TC = transitive_closure()
TC_UNION = expansion_union(TC, "p", 2)
BUYS = buys_bounded()


def _theta():
    return next(iter(TC_UNION))


#: (module, attribute the Session method looks up, public free
#: function, Session call).
ROUTES = [
    (containment, "contained_in_ucq", repro.core.contained_in_ucq,
     lambda s: s.contains(TC, "p", TC_UNION)),
    (containment, "cq_contained_in_datalog",
     repro.core.cq_contained_in_datalog,
     lambda s: s.cq_contained(_theta(), TC, "p")),
    (containment, "ucq_contained_in_datalog",
     repro.core.ucq_contained_in_datalog,
     lambda s: s.ucq_contained(TC_UNION, TC, "p")),
    (containment, "decide_nonrecursive_in_datalog",
     repro.core.nonrecursive_contained_in_datalog,
     lambda s: s.nonrecursive_contained(buys_bounded_rewriting(), "buys",
                                        BUYS, "buys")),
    (equivalence, "is_equivalent_to_nonrecursive",
     repro.core.is_equivalent_to_nonrecursive,
     lambda s: s.equivalent_to_nonrecursive(BUYS, buys_bounded_rewriting(),
                                            "buys")),
    (equivalence, "equivalent_to_ucq", repro.core.equivalent_to_ucq,
     lambda s: s.equivalent_to_ucq(
         TC, "p", UnionOfConjunctiveQueries([_theta()]))),
    (boundedness, "search_boundedness", repro.core.decide_boundedness,
     lambda s: s.bounded(BUYS, "buys", max_depth=3)),
]


@pytest.mark.parametrize("module,attribute,public,call", ROUTES,
                         ids=[route[1] for route in ROUTES])
def test_session_methods_call_the_free_functions(monkeypatch, module,
                                                 attribute, public, call):
    implementation = getattr(module, attribute)
    assert implementation is public
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return implementation(*args, **kwargs)

    monkeypatch.setattr(module, attribute, spy)
    decision = call(Session())
    assert len(calls) == 1
    assert decision.raw is not None
