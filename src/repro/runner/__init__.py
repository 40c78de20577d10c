"""Parallel batch runner for the scenario registry.

``python -m repro scenarios`` (:mod:`repro.runner.cli`) shards the
scenario matrix (scenario x engine) across worker processes, each
running its jobs on long-lived per-engine sessions;
:mod:`repro.runner.batch` is the library API and
:mod:`repro.runner.trajectory` the ``BENCH_*.json`` writer.
See ``docs/BENCHMARKS.md``.
"""

from .batch import (
    ENGINE_CONFIGS,
    Job,
    build_jobs,
    run_batch,
    run_decision,
    select_scenarios,
    verdicts,
)
from .trajectory import (
    AUTOMATA_TRAJECTORY,
    PLANS_TRAJECTORY,
    append_trajectory,
    find_repo_root,
    run_metadata,
)

__all__ = [
    "AUTOMATA_TRAJECTORY",
    "ENGINE_CONFIGS",
    "Job",
    "PLANS_TRAJECTORY",
    "append_trajectory",
    "build_jobs",
    "find_repo_root",
    "run_batch",
    "run_decision",
    "run_metadata",
    "select_scenarios",
    "verdicts",
]
