#!/usr/bin/env python
"""Standalone benchmark runner with a machine-readable trajectory.

Times the performance-critical workloads of the repository -- the
decision stack over registry scenarios, the generic automata
substrate, and compiled join plans -- and appends a run record
(median-of-N timings plus derived speedups) to
``BENCH_automata.json`` / ``BENCH_plans.json`` so performance can be
tracked across commits.

The decision-stack and plans suites draw their configurations from the
**scenario registry** (:mod:`repro.workloads.scenarios`) -- the same
catalogue the batch runner (``python -m repro scenarios``) and CI use
-- rather than ad-hoc per-file configs.  Each decision case is timed
on the bitset kernel with warm shared caches (``bitset_s``, the
steady-state repeated-query workload the benchmarks model).

The plans suite times both engine paths (columnar / interpretive) and
the **scale suite** times the columnar batch kernels on ``tag:scale``
scenarios (10^5-fact EDBs).  Every entry also records a tracemalloc
``*_peak_kb`` footprint, measured outside the timing loops (see
``docs/BENCHMARKS.md`` for the schema).

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py            # full run, repo-root JSON
    PYTHONPATH=src python benchmarks/run_bench.py --smoke    # tiny sizes, no JSON write
    PYTHONPATH=src python benchmarks/run_bench.py --out DIR  # write JSON elsewhere
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.automata.tree import TreeAutomaton, find_counterexample_tree  # noqa: E402
from repro.datalog.engine import Engine, EngineConfig  # noqa: E402
from repro.runner.trajectory import (  # noqa: E402
    AUTOMATA_TRAJECTORY,
    PLANS_TRAJECTORY,
    append_trajectory,
    run_metadata,
)
from repro.session import Session  # noqa: E402
from repro.workloads.scenarios import (  # noqa: E402
    get_scenario,
    scenario_names,
)

# Registry scenarios timed by the decision-stack suite.
DECISION_CASES = [
    "contain_chain_w1",
    "contain_chain_w2",
    "contain_tc_trunc1",
    "contain_tc_trunc2",
    "contain_tc_trunc3",
    "bounded_buys",
    "bounded_widget",
    "unbounded_tc",
]
DECISION_CASES_SMOKE = ["contain_chain_w1", "contain_tc_trunc1", "bounded_buys"]

# Evaluation scenarios timed by the plans suite (engine ablation).
PLANS_CASES = ["eval_tc_chain_120", "eval_tc_grid_10x10", "eval_sg_tree_d5"]
PLANS_CASES_SMOKE = ["eval_sg_tree_d5"]

# Large-EDB scenarios timed by the scale suite (columnar vs row-at-a-
# time data plane; 10^5 facts each).
SCALE_CASES = ["scale_chain_2hop_100k", "scale_random_reach_120k",
               "scale_grid_reach_230x230"]
SCALE_CASES_SMOKE = ["scale_chain_2hop_5k"]


def median_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_kb(fn) -> float:
    """Peak traced allocation of one *fn* call, in KiB.

    Measured once, outside the timing loops -- tracemalloc slows the
    interpreter severalfold, so footprint and wall time come from
    separate runs of the same callable.
    """
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return round(peak / 1024, 1)


def time_kernel_case(name: str, fn, repeats: int):
    """Time one decision-stack case on the bitset kernel with warm
    shared caches (``fn()`` runs the decision once)."""
    fn()  # warm the shared caches
    bitset = median_seconds(fn, repeats)
    entry = {
        "name": name,
        "repeats": repeats,
        "bitset_s": round(bitset, 6),
        "bitset_peak_kb": peak_kb(fn),
    }
    print(f"  {name:42s} bitset {bitset*1000:8.2f}ms")
    return entry


def scenario_decision_fn(name: str):
    """A ``fn()`` closure for one registry scenario: build the payload
    and its Session once, run the scenario's decision procedure
    (``Session.run_payload``), and assert the ground-truth verdict
    every time."""
    scenario = get_scenario(name)
    payload = scenario.build()
    session = Session()
    expected = dict(scenario.expected)

    def fn():
        verdict = session.run_payload(scenario.kind, payload).verdict
        assert verdict == expected, (name, verdict, expected)

    return fn


def decision_suite(repeats: int, smoke: bool):
    print("decision stack (registry scenarios):")
    cases = DECISION_CASES_SMOKE if smoke else DECISION_CASES
    return [time_kernel_case(name, scenario_decision_fn(name), repeats)
            for name in cases]


def _random_nta(rng) -> TreeAutomaton:
    states = [f"s{i}" for i in range(5)]
    transitions = []
    for state in states:
        if rng.random() < 0.8:
            transitions.append((state, "a", ()))
        for _ in range(rng.randint(0, 4)):
            transitions.append(
                (state, "f", (rng.choice(states), rng.choice(states)))
            )
        if rng.random() < 0.5:
            transitions.append((state, "g", (rng.choice(states),)))
    return TreeAutomaton.build(
        ["f", "g", "a"], states, [rng.choice(states)], transitions
    )


def automata_suite(repeats: int, smoke: bool):
    import random

    print("automata substrate:")
    pairs = 4 if smoke else 16
    rng = random.Random(2024)
    tree_pairs = [(_random_nta(rng), _random_nta(rng)) for _ in range(pairs)]

    def tree_batch():
        for left, right in tree_pairs:
            find_counterexample_tree(left, right)

    return [time_kernel_case("tree_containment_batch", tree_batch, repeats)]


def evaluation_verdict(session: Session, payload) -> dict:
    """An evaluation scenario's ``{"count", "checksum"}`` verdict on
    *session* (what ``Session.run_scenario`` checks)."""
    decision = session.evaluate(payload["program"], payload["database"],
                                goal=payload["goal"])
    return {"count": decision.verdict["count"],
            "checksum": decision.checksum}


def plans_suite(repeats: int, smoke: bool):
    """Columnar vs interpretive engine over registry evaluation
    scenarios (each run's verdict is checked against the structural
    ground truth)."""
    print("evaluation plans (registry scenarios):")
    columnar = Session(engine=EngineConfig())
    interpretive = Session(engine=EngineConfig(compiled=False))
    entries = []
    cases = PLANS_CASES_SMOKE if smoke else PLANS_CASES
    for name in cases:
        scenario = get_scenario(name)
        payload = scenario.build()
        expected = dict(scenario.expected)

        def run(session):
            verdict = evaluation_verdict(session, payload)
            assert verdict == expected, (name, verdict, expected)

        columnar_s = median_seconds(lambda: run(columnar), repeats)
        interpretive_s = median_seconds(lambda: run(interpretive), repeats)
        entry = {
            "name": name,
            "repeats": repeats,
            "columnar_s": round(columnar_s, 6),
            "interpretive_s": round(interpretive_s, 6),
            "speedup": (round(interpretive_s / columnar_s, 2)
                        if columnar_s else None),
            "columnar_peak_kb": peak_kb(lambda: run(columnar)),
        }
        print(f"  {name:42s} columnar {columnar_s*1000:8.2f}ms  "
              f"interpretive {interpretive_s*1000:8.2f}ms  "
              f"speedup {entry['speedup']}x")
        entries.append(entry)
    return entries


def scale_suite(repeats: int, smoke: bool):
    """The large-EDB tier: columnar batch kernels on ``tag:scale``
    scenarios (10^5-fact EDBs).

    Times the bare ``Engine.evaluate`` fixpoint (ground truth --
    including the row checksum over 10^5 rows -- is asserted once
    outside the timing loops) and records the tracemalloc peak.
    """
    print("scale tier (columnar data plane):")
    columnar = Engine(EngineConfig())
    session = Session(engine=columnar)
    entries = []
    cases = SCALE_CASES_SMOKE if smoke else SCALE_CASES
    for name in cases:
        scenario = get_scenario(name)
        payload = scenario.build()
        expected = dict(scenario.expected)
        verdict = evaluation_verdict(session, payload)
        assert verdict == expected, (name, verdict, expected)
        program, database = payload["program"], payload["database"]

        columnar_s = median_seconds(
            lambda: columnar.evaluate(program, database), repeats)
        entry = {
            "name": name,
            "repeats": repeats,
            "edb_facts": len(database),
            "columnar_s": round(columnar_s, 6),
            "columnar_peak_kb": peak_kb(
                lambda: columnar.evaluate(program, database)),
        }
        print(f"  {name:42s} columnar {columnar_s*1000:8.2f}ms  "
              f"peak {entry['columnar_peak_kb']:.0f}KiB")
        entries.append(entry)
    return entries


def analyze_suite(repeats: int, smoke: bool):
    """The static analyzer swept over every registry scenario program
    (diagnostics + class certificates + plan lints).  Budget: the
    analyzer must stay interactive, < 50 ms per program."""
    from repro.analysis import analyze_program

    print("static analyzer (registry scenarios):")
    targets = []
    for name in scenario_names():
        scenario = get_scenario(name)
        payload = scenario.build()
        targets.append((payload["program"], payload.get("goal")))

    def sweep():
        for program, goal in targets:
            analyze_program(program, goal)

    analyze_s = median_seconds(sweep, repeats)
    per_program_s = analyze_s / max(1, len(targets))
    entry = {
        "name": "analyze_registry",
        "repeats": repeats,
        "programs": len(targets),
        "analyze_s": round(analyze_s, 6),
        "analyze_per_program_s": round(per_program_s, 6),
    }
    budget_note = "" if per_program_s < 0.050 else \
        "  !! exceeds the 50ms/program budget"
    print(f"  {'analyze_registry':42s} sweep    {analyze_s*1000:8.2f}ms  "
          f"per-program {per_program_s*1000:8.3f}ms "
          f"({len(targets)} programs){budget_note}")
    return [entry]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5,
                        help="iterations per timing (median is recorded)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, median of 3, no JSON write "
                             "unless --out is given")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for the BENCH_*.json trajectories "
                             "(default: repo root; with --smoke: no write)")
    parser.add_argument("--suite",
                        choices=["all", "automata", "plans", "scale"],
                        default="all")
    args = parser.parse_args()

    # Smoke still takes a median (of 3): the CI regression guard
    # compares smoke records, and single-iteration ms-scale timings
    # jitter well past its 2x threshold.
    repeats = 3 if args.smoke else args.repeats
    meta = run_metadata(REPO_ROOT)
    print(f"run_bench: commit {meta['commit']}, python {meta['python']}, "
          f"repeats {repeats}{' (smoke)' if args.smoke else ''}; "
          f"{len(scenario_names())} scenarios registered")

    automata_entries = []
    plans_entries = []
    if args.suite in ("all", "automata"):
        automata_entries += decision_suite(repeats, args.smoke)
        automata_entries += automata_suite(repeats, args.smoke)
    if args.suite in ("all", "plans"):
        plans_entries += plans_suite(repeats, args.smoke)
        plans_entries += analyze_suite(repeats, args.smoke)
    if args.suite in ("all", "scale"):
        plans_entries += scale_suite(repeats, args.smoke)

    out_dir = args.out
    if out_dir is None:
        if args.smoke:
            return 0
        out_dir = REPO_ROOT
    out_dir.mkdir(parents=True, exist_ok=True)
    if automata_entries:
        append_trajectory(out_dir / AUTOMATA_TRAJECTORY,
                          {**meta, "smoke": args.smoke, "entries": automata_entries})
    if plans_entries:
        append_trajectory(out_dir / PLANS_TRAJECTORY,
                          {**meta, "smoke": args.smoke, "entries": plans_entries})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
