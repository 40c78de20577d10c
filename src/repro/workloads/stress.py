"""The ``tag:stress`` tier: the paper's hardness constructions as
registered workloads.

The happy-path registry (:mod:`repro.workloads.scenarios`) exercises
the decision procedures where they succeed.  This module registers the
opposite regime -- the *lower-bound* instances of Sections 5.3 and 6
(:mod:`repro.lowerbounds`) and the Example 6.1 succinctness family --
so the antichain searches are measured exactly where the paper proves
the problems get hard:

* **Decidable edge.** ``stress_space_bounded_probe`` runs the
  boundedness semi-decision at depth 1 on the Section 5.3 EXPSPACE
  encoding (no certificate: the chain program is unbounded), and
  ``stress_dist_equiv_3v2`` decides that ``dist(3)`` (paths of length
  8) is not ``dist(2)`` (length 4) -- both finish in seconds and give
  real verdicts.
* **Budgeted wall.** The full containment questions of the encodings
  (Pi in Theta, Theorem 5.13; Pi in the unfolded Pi', Theorem 6.4 on
  the Section 6 pair) are EXPSPACE-hard *by construction*: even the
  minimal machine at n=1 does not finish.  Those scenarios carry a
  ``budget_s`` and register ``{"budget_exhausted": True}`` as their
  **expected** verdict -- the paper-faithful ground truth is "this
  instance is infeasible", and the budget makes that verdict
  deterministic and cheap (see :mod:`repro.budget`).
* **Evaluation blow-up.** ``stress_trace_eval_*_n2`` evaluate the
  Section 6 nonrecursive checker Pi' over trace databases at n=2,
  where the quadratic ``equal``-subprogram dominates -- a worst-case
  join workload for the columnar/row planes with ground truth from
  the trace construction (legal trace: no error derived; corrupted
  counter: exactly one).

Scenarios here are tagged ``stress`` (never ``bench``/``generated``,
so the perf-trajectory suites and the CI smoke matrices don't pick
them up implicitly) and the batch runner drops the interpretive
engine for the evaluation members, as it does for ``tag:scale``.
Select the tier with ``python -m repro scenarios --scenarios
tag:stress``.
"""

from __future__ import annotations

from ..datalog.unfold import unfold_nonrecursive
from ..lowerbounds.encoding_nonrec import encode_nonrecursive, trace_database
from ..lowerbounds.encoding_space import encode_deterministic
from ..lowerbounds.turing import sweeping_machine, tiny_accepting_machine
from ..programs.library import dist
from .scenarios import Scenario, register, rows_checksum

#: Wall-clock budget (seconds) for the provably-infeasible decisions.
#: Any value short of hours yields the same verdict -- the instances
#: are EXPSPACE-hard at n=1 already -- so this only bounds suite time.
STRESS_BUDGET_S = 1.5


def _space_bounded_payload():
    enc = encode_deterministic(sweeping_machine(), 1)
    return {"program": enc.program, "goal": "c", "max_depth": 1}


def _space_containment_payload():
    enc = encode_deterministic(tiny_accepting_machine(), 1)
    return {"program": enc.program, "goal": "c", "union": enc.union}


def _nonrec_containment_payload():
    enc = encode_nonrecursive(tiny_accepting_machine(), 1,
                              include_transition_errors=False)
    return {"program": enc.program, "goal": "c",
            "union": unfold_nonrecursive(enc.nonrecursive, "c")}


def _trace_eval_payload(corrupt_counter_at: int = -1):
    machine = sweeping_machine()
    enc = encode_nonrecursive(machine, 2, include_transition_errors=False)
    # Two configurations of 2^(2^2) = 16 cells each: enough points for
    # the quadratic distance subprograms to dominate, small enough to
    # finish in ~10s on the columnar plane.
    configurations = machine.run_configurations(16)[:2]
    db = trace_database(machine, configurations, 2,
                        corrupt_counter_at=corrupt_counter_at)
    return {"program": enc.nonrecursive, "goal": "c", "database": db}


register(Scenario(
    name="stress_space_bounded_probe",
    kind="boundedness",
    description="Section 5.3 EXPSPACE encoding (sweeping machine, n=1): "
                "the linear chain program is unbounded -- no certificate "
                "at depth 1 (the decidable edge of the hardness family)",
    build=_space_bounded_payload,
    expected={"bounded": None, "depth": None},
    tags=("stress", "lowerbound"), weight=5.0,
))

register(Scenario(
    name="stress_space_containment_n1",
    kind="containment",
    description="Theorem 5.13 instance (tiny machine, n=1): Pi in Theta "
                "is EXPSPACE-hard by construction; exhausting the budget "
                "IS the expected verdict",
    build=_space_containment_payload,
    expected={"budget_exhausted": True},
    tags=("stress", "lowerbound"), weight=10.0,
    budget_s=STRESS_BUDGET_S,
))

register(Scenario(
    name="stress_nonrec_containment_n1",
    kind="containment",
    description="Section 6 pair (tiny machine, n=1): Pi against the "
                "unfolded nonrecursive checker Pi' (Theorem 6.4 pathway); "
                "infeasible by construction, budgeted",
    build=_nonrec_containment_payload,
    expected={"budget_exhausted": True},
    tags=("stress", "lowerbound"), weight=10.0,
    budget_s=STRESS_BUDGET_S,
))

register(Scenario(
    name="stress_dist_equiv_3v2",
    kind="equivalence",
    description="Example 6.1 succinctness wall: dist(3) (paths of length "
                "8) vs dist(2) (length 4) -- decidable but seconds-scale, "
                "the largest dist pair the search still finishes",
    build=lambda: {"program": dist(3), "nonrecursive": dist(2),
                   "goal": "dist3", "nonrecursive_goal": "dist2"},
    expected={"equivalent": False, "forward": False, "backward": False},
    tags=("stress", "succinctness"), weight=30.0,
))

register(Scenario(
    name="stress_dist_equiv_4v3",
    kind="equivalence",
    description="Example 6.1 one doubling further: dist(4) vs dist(3) "
                "(length-16 paths) crosses the feasibility wall; budgeted",
    build=lambda: {"program": dist(4), "nonrecursive": dist(3),
                   "goal": "dist4", "nonrecursive_goal": "dist3"},
    expected={"budget_exhausted": True},
    tags=("stress", "succinctness"), weight=10.0,
    budget_s=STRESS_BUDGET_S,
))

register(Scenario(
    name="stress_trace_eval_legal_n2",
    kind="evaluation",
    description="Section 6 checker Pi' over a legal 2-configuration "
                "trace at n=2 (quadratic equal-subprogram joins): a "
                "legal trace derives no error, so c is empty",
    build=_trace_eval_payload,
    expected={"count": 0, "checksum": rows_checksum(())},
    # active-domain: the Section 6 encoding uses bodiless variable-head
    # rules (dle0(X, X).) on purpose; the analyzer sweep accepts E001
    # on scenarios carrying this tag.
    tags=("stress", "lowerbound", "active-domain"), weight=200.0,
))

register(Scenario(
    name="stress_trace_eval_corrupt_n2",
    kind="evaluation",
    description="Section 6 checker Pi' over the same n=2 trace with one "
                "corrupted counter bit: exactly the nullary error fact "
                "c() is derived",
    build=lambda: _trace_eval_payload(corrupt_counter_at=0),
    expected={"count": 1, "checksum": rows_checksum([()])},
    tags=("stress", "lowerbound", "active-domain"), weight=200.0,
))
