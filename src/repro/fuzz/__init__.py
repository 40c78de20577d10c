"""``repro.fuzz`` -- the differential fuzz subsystem.

Three layers, one loop:

* :mod:`~repro.fuzz.harness` draws seed-deterministic random cases
  (programs from :mod:`repro.workloads.generators`, EDBs from the six
  edge families) and runs each through the full configuration matrix
  -- the columnar and interpretive backends x naive/semi-naive
  against the interpretive naive oracle; decisions once, through the
  certificate checker or witness refutation and against the
  constructed ground truth;
* :mod:`~repro.fuzz.shrinker` delta-debugs a diverging case to a
  1-minimal reproducer (rules, body atoms, facts, union disjuncts);
* :mod:`~repro.fuzz.regressions` persists the minimized case as a
  self-contained JSON scenario under ``tests/regressions/`` that
  round-trips into the scenario registry as a permanent test.

:func:`~repro.fuzz.sweep.run_fuzz` composes them; ``python -m repro
fuzz`` and the CI fuzz job are thin wrappers around it.  See
``docs/FUZZING.md`` for the operational story.
"""

from .harness import (
    DECISION_CELL,
    EVAL_BASELINE,
    EVAL_MATRIX,
    EVAL_MATRIX_QUICK,
    KIND_ROTATION,
    Divergence,
    FuzzCase,
    analysis_divergences,
    baseline_verdict,
    decision_outcome,
    decision_verdict,
    draw_case,
    evaluation_verdict,
    proof_divergences,
    run_case,
)
from .regressions import (
    case_from_dict,
    case_to_dict,
    default_regressions_dir,
    load_regression,
    register_regressions,
    scenario_from_case,
    write_regression,
)
from .shrinker import ddmin, shrink_case, still_diverges
from .sweep import FuzzReport, planted_fault, run_fuzz

__all__ = [
    "DECISION_CELL",
    "Divergence",
    "EVAL_BASELINE",
    "EVAL_MATRIX",
    "EVAL_MATRIX_QUICK",
    "FuzzCase",
    "FuzzReport",
    "KIND_ROTATION",
    "analysis_divergences",
    "baseline_verdict",
    "case_from_dict",
    "case_to_dict",
    "ddmin",
    "decision_outcome",
    "decision_verdict",
    "default_regressions_dir",
    "draw_case",
    "evaluation_verdict",
    "load_regression",
    "planted_fault",
    "proof_divergences",
    "register_regressions",
    "run_case",
    "run_fuzz",
    "scenario_from_case",
    "shrink_case",
    "still_diverges",
    "write_regression",
]
