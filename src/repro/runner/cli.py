"""``python -m repro scenarios`` -- the scenario-matrix CLI.

Runs the scenario registry across engine configurations, serially or
sharded over worker processes, checks every verdict
against constructed ground truth, and appends trajectory records to
``BENCH_automata.json`` (decision scenarios) and ``BENCH_plans.json``
(evaluation / magic scenarios).

Examples::

    python -m repro scenarios --list
    python -m repro scenarios --scenarios tag:bench --workers 4
    python -m repro scenarios --scenarios kind:boundedness
    python -m repro scenarios --scenarios tag:bench --cache cold --no-write
    python -m repro scenarios --scenarios tag:bench --workers 4 --verify-serial
    python -m repro scenarios --scenarios tag:scale --engines columnar
    python -m repro scenarios --scenarios tag:bench --deadline 30 \
        --chaos "crash:scenario=eval_tc_grid_10x10,attempt=1"

Exit status: 0 when every job answered and matched ground truth
(degraded rungs included); 1 when any verdict missed its ground truth
(or, under ``--verify-serial``, the parallel run disagreed with the
serial one); 2 when verdicts all held but one or more jobs were
quarantined after exhausting their retries.  See
``docs/BENCHMARKS.md`` and ``docs/RESILIENCE.md`` for the full
reference.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path
from typing import Dict, List

from ..resilience import ERROR_CATEGORIES, PoolConfig
from ..resilience.chaos import CHAOS_ENV
from .batch import (
    ENGINE_CONFIGS,
    build_jobs,
    run_batch,
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
from ..workloads.scenarios import DECISION_KINDS, get_scenario

REPO_ROOT = find_repo_root()


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro scenarios",
        description="Batch scenario runner: decision + evaluation matrix "
                    "across engine configurations.",
    )
    parser.add_argument("--scenarios", default="all",
                        help="'all', 'kind:<kind>', 'tag:<tag>', or a "
                             "comma-separated list of names (default: all)")
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool width; 1 = serial (default)")
    parser.add_argument("--engines", default="both",
                        help="comma list from {%s}, or 'both'/'all' for "
                             "every config (default: all)"
                             % ", ".join(sorted(ENGINE_CONFIGS)))
    parser.add_argument("--cache", choices=("warm", "cold"), default="warm",
                        help="cache lifecycle: warm (pre-built shared "
                             "caches) or cold (cleared before every job)")
    parser.add_argument("--verify-serial", action="store_true",
                        help="also run the matrix serially and fail on "
                             "any verdict difference")
    parser.add_argument("--list", action="store_true",
                        help="list the selected scenarios and exit")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for BENCH_*.json (default: repo "
                             "root)")
    parser.add_argument("--no-write", action="store_true",
                        help="skip the trajectory write (CI smoke)")
    parser.add_argument("--deadline", type=float, default=None,
                        help="per-job wall-clock deadline in seconds")
    parser.add_argument("--max-attempts", type=int, default=3,
                        help="total tries per job before quarantine "
                             "(default: 3)")
    parser.add_argument("--chaos", default=None, metavar="SPEC",
                        help="fault-injection schedule, e.g. "
                             "'crash:scenario=X,attempt=1;hang:nth=2,"
                             "seconds=5' (also read from $%s)" % CHAOS_ENV)
    parser.add_argument("--quarantine-out", type=Path, default=None,
                        help="write quarantined job records to this "
                             "JSON file (CI artifact)")
    parser.add_argument("--snapshot-dir", type=Path, default=None,
                        metavar="DIR",
                        help="persist/restore warm session state "
                             "(compiled plans, EDB images, automaton "
                             "caches) under this directory, keyed by "
                             "config fingerprint (also read from "
                             "$REPRO_SNAPSHOT_DIR)")
    return parser.parse_args(argv)


def _labels(spec: str, table: Dict) -> List[str]:
    return sorted(table) if spec in ("both", "all") else spec.split(",")


def _print_error_summary(records: List[Dict]) -> None:
    """The per-error-category summary table (only printed when some
    job failed a try: quarantines, retries, or degradations)."""
    by_category: Dict[str, int] = {}
    retried = sum(1 for r in records if r["attempts"] > 1)
    degraded = sum(1 for r in records if r.get("degraded_to"))
    for record in records:
        error = record.get("error")
        if error is not None:
            by_category[error] = by_category.get(error, 0) + 1
    if not by_category and not retried and not degraded:
        return
    print("error summary:")
    print(f"  {'category':12s} {'quarantined':>11s}")
    for category in ERROR_CATEGORIES:
        if category in by_category:
            print(f"  {category:12s} {by_category[category]:>11d}")
    print(f"  jobs retried: {retried}, answered degraded: {degraded}, "
          f"quarantined: {sum(by_category.values())}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.snapshot_dir is not None:
        from ..snapshot import set_snapshot_dir
        set_snapshot_dir(str(args.snapshot_dir))
    names = select_scenarios(args.scenarios)
    if args.list:
        for name in names:
            scenario = get_scenario(name)
            print(f"{name:32s} {scenario.kind:12s} {scenario.description}")
        return 0

    engines = _labels(args.engines, ENGINE_CONFIGS)
    jobs = build_jobs(names, engines=engines, cache=args.cache)
    print(f"repro scenarios: {len(names)} scenarios -> {len(jobs)} jobs "
          f"(engines {engines}, cache {args.cache}, "
          f"workers {args.workers})")
    cores = os.cpu_count() or 1
    if args.workers > cores:
        print(f"note: {args.workers} workers on {cores} CPU core(s) -- "
              f"workers will time-slice; wall-clock speedup needs "
              f"workers <= cores")

    config = PoolConfig(max_attempts=args.max_attempts,
                        deadline_s=args.deadline, chaos=args.chaos)
    start = time.perf_counter()
    decisions = run_batch(jobs, workers=args.workers, config=config)
    wall = time.perf_counter() - start
    records = [decision.record() for decision in decisions]

    # ok=False is a verdict that missed ground truth; quarantined jobs
    # carry error!=None with ok=None (no verdict to check).
    failures = [r for r in records if r["ok"] is False]
    quarantined = [r for r in records if r.get("error") is not None]
    for record in records:
        if record.get("error") is not None:
            flag = "QUAR"
        else:
            flag = "ok " if record["ok"] else "FAIL"
        extra = ""
        if record["attempts"] > 1:
            extra += f"  attempts={record['attempts']}"
        if record.get("degraded_to"):
            extra += f"  degraded_to={record['degraded_to']}"
        print(f"  {flag} {record['scenario']:32s} "
              f"{record['engine']:12s} "
              f"{record['seconds']*1000:9.1f}ms  {record['verdict']}"
              f"{extra}")
    print(f"total wall-clock {wall:.2f}s "
          f"(sum of job times {sum(r['seconds'] for r in records):.2f}s)")
    _print_error_summary(records)

    if args.quarantine_out is not None:
        args.quarantine_out.parent.mkdir(parents=True, exist_ok=True)
        args.quarantine_out.write_text(
            json.dumps(quarantined, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(quarantined)} quarantine record(s) to "
              f"{args.quarantine_out}")

    if args.verify_serial:
        serial_start = time.perf_counter()
        serial_records = run_batch(jobs, workers=1, config=config)
        serial_wall = time.perf_counter() - serial_start
        if verdicts(serial_records) != verdicts(decisions):
            print("FAIL: parallel verdicts differ from serial execution")
            return 1
        print(f"verified against serial run ({serial_wall:.2f}s wall; "
              f"parallel was {wall:.2f}s)")

    if not args.no_write:
        out_dir = args.out or REPO_ROOT
        out_dir.mkdir(parents=True, exist_ok=True)
        meta = run_metadata(REPO_ROOT)
        runner_meta = {"workers": args.workers, "cache": args.cache,
                       "engines": engines,
                       "wall_s": round(wall, 3), "source": "repro.runner"}
        decision = [r for r in records if r["kind"] in DECISION_KINDS]
        evaluation = [r for r in records if r["kind"] not in DECISION_KINDS]
        if decision:
            append_trajectory(out_dir / AUTOMATA_TRAJECTORY,
                              {**meta, "runner": runner_meta,
                               "entries": decision})
        if evaluation:
            append_trajectory(out_dir / PLANS_TRAJECTORY,
                              {**meta, "runner": runner_meta,
                               "entries": evaluation})
        print(f"wrote trajectories under {out_dir}")

    if failures:
        print(f"FAIL: {len(failures)} job(s) missed ground truth")
        return 1
    if quarantined:
        print(f"QUARANTINED: {len(quarantined)} job(s) abandoned after "
              f"retries (verdicts that answered all held)")
        return 2
    return 0

