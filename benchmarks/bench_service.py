#!/usr/bin/env python
"""Load driver for the decision service daemon.

Starts a daemon (or targets a running one via ``--socket``), drives it
with ``--clients`` concurrent connections issuing a deterministic
round-robin mix of cheap registry scenarios, and appends a trajectory
record to ``BENCH_service.json`` with per-request latency percentiles
(``p50_s`` / ``p99_s``) and sustained throughput (``decisions_per_s``)
-- the served-system numbers the ROADMAP's north star asks for, gated
by ``check_regression.py`` like every other benchmark (throughput
regresses downward, latency upward).

Every response is verified: verdict ``ok`` must be true, and each
scenario's decision record must be identical across all requests that
served it (the coalescing/purity contract).  ``--chaos-drill`` repeats
the load with a planted worker crash (``crash`` fault on one scenario,
every attempt) and asserts the poisoned requests quarantine with typed
errors while every other verdict stays bit-identical to the clean run
-- the chaos-under-load acceptance drill, at load-driver scale.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py             # full run
    PYTHONPATH=src python benchmarks/bench_service.py --smoke     # CI scale
    PYTHONPATH=src python benchmarks/bench_service.py --smoke --chaos-drill
    PYTHONPATH=src python benchmarks/bench_service.py --socket /tmp/repro.sock
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.service import PoolConfig, ServiceConfig, start_in_thread  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.runner.trajectory import (  # noqa: E402
    append_trajectory,
    find_repo_root,
    run_metadata,
)

SERVICE_TRAJECTORY = "BENCH_service.json"

#: The request mix: cheap bench-tagged scenarios, round-robin.  Small
#: enough that the driver measures the service, not the decisions.
MIX = ("bounded_buys", "equiv_buys_bounded", "contain_chain_w1",
       "eval_tc_chain_120", "eval_sg_tree_d5")

#: The scenario the chaos drill poisons (crash on every attempt).
POISONED = "bounded_buys"


def _percentile(samples, q):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def round_robin_schedule(client_index: int, per_client: int):
    """The classic mix: every scenario equally often, phase-shifted
    per client so the service sees all of them concurrently."""
    return [MIX[(client_index + i) % len(MIX)]
            for i in range(per_client)]


def zipf_schedule(client_index: int, per_client: int, seed: int = 1992):
    """Repeat-heavy traffic: scenario ranks drawn Zipf-style (rank k
    weighted 1/(k+1)), deterministic per (seed, client).  This is the
    distribution real decision services see -- a hot head of repeated
    questions and a long cold tail -- and what makes a served-decision
    result cache pay."""
    import random

    rng = random.Random(seed * 1009 + client_index)
    weights = [1.0 / (rank + 1) for rank in range(len(MIX))]
    return rng.choices(MIX, weights=weights, k=per_client)


def drive(socket_path: str, clients: int, per_client: int,
          schedule=round_robin_schedule):
    """Run the load: each client thread issues its share of the mix
    serially (one in flight per connection; concurrency comes from the
    client count).  *schedule* maps ``(client_index, per_client)`` to
    that client's scenario list.  Returns ``(samples, by_scenario,
    errors, wall)`` where each sample is ``(scenario, latency_s,
    cached)``."""
    samples = []
    by_scenario = {}
    errors = []
    lock = threading.Lock()

    def one_client(client_index: int) -> None:
        plan = schedule(client_index, per_client)
        with ServiceClient(socket_path=socket_path, timeout=300.0) as client:
            for scenario in plan:
                started = time.perf_counter()
                response = client.request(
                    {"op": "scenario", "scenario": scenario})
                elapsed = time.perf_counter() - started
                with lock:
                    if response["type"] == "decision":
                        samples.append((scenario, elapsed,
                                        response.get("cached", False)))
                        by_scenario.setdefault(scenario, []).append(
                            response["decision"])
                    else:
                        samples.append((scenario, elapsed, False))
                        errors.append((scenario, response))

    threads = [threading.Thread(target=one_client, args=(index,))
               for index in range(clients)]
    wall_started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_started
    return samples, by_scenario, errors, wall


def stable_blob(record: dict) -> str:
    """The deterministic slice of a decision record, as a comparable
    blob (timings and retry bookkeeping vary run to run)."""
    view = {key: record.get(key) for key in
            ("kind", "verdict", "ok", "checksum", "fingerprint")}
    stats = dict(record.get("stats") or {})
    stats.pop("retried_after", None)
    view["stats"] = stats
    return json.dumps(view, sort_keys=True, default=str)


def check_consistency(by_scenario) -> int:
    """Every request that served a scenario must have received the
    same record; returns the number of diverging scenarios."""
    divergences = 0
    for scenario, records in sorted(by_scenario.items()):
        blobs = {stable_blob(record) for record in records}
        if len(blobs) != 1:
            print(f"bench_service: DIVERGENCE in {scenario}: "
                  f"{len(blobs)} distinct records across "
                  f"{len(records)} responses")
            divergences += 1
        if not all(record.get("ok") for record in records):
            print(f"bench_service: verdict not ok for {scenario}")
            divergences += 1
    return divergences


def zipf_cache_phase(socket_dir: str, clients: int, per_client: int,
                     workers: int, executor: str, capacity: int):
    """The repeat-traffic phase: a fresh daemon with the result cache
    on, driven with Zipf-distributed repeats.  Records the cache hit
    rate and the hit-vs-miss latency split -- a cached p50 must be a
    small fraction of the computed p50 for the cache to be worth its
    memory -- and verifies cached replays stay bit-identical.
    Returns ``(entry, failures)``."""
    sock = str(Path(socket_dir) / "repro-zipf.sock")
    config = ServiceConfig(
        socket_path=sock, result_cache=capacity,
        pool=PoolConfig(workers=workers, executor=executor))
    with start_in_thread(config):
        samples, by_scenario, errors, wall = drive(
            sock, clients, per_client, schedule=zipf_schedule)
        with ServiceClient(socket_path=sock, timeout=60.0) as client:
            status = client.request({"op": "status"})["status"]

    failures = len(errors)
    for scenario, response in errors[:5]:
        print(f"bench_service: zipf ERROR response on {scenario}: "
              f"{response}")
    failures += check_consistency(by_scenario)

    latencies = [latency for _, latency, _ in samples]
    hit_latencies = [latency for _, latency, cached in samples if cached]
    miss_latencies = [latency for _, latency, cached in samples
                      if not cached]
    cache = status["result_cache"]
    total = len(samples)
    entry = {
        "name": "service_zipf_cache",
        "clients": clients,
        "requests": total,
        "workers": workers,
        "executor": executor,
        "result_cache": capacity,
        "cache_hit_rate": cache["hit_rate"],
        "p50_s": round(_percentile(latencies, 0.50), 6),
        "p99_s": round(_percentile(latencies, 0.99), 6),
        "hit_p50_s": (round(_percentile(hit_latencies, 0.50), 6)
                      if hit_latencies else None),
        "miss_p50_s": (round(_percentile(miss_latencies, 0.50), 6)
                       if miss_latencies else None),
        "decisions_per_s": round(total / wall, 1),
        "wall_s": round(wall, 3),
    }
    hit_p50 = entry["hit_p50_s"]
    miss_p50 = entry["miss_p50_s"]
    ratio = (f"{hit_p50 / miss_p50:.1%} of computed p50"
             if hit_p50 and miss_p50 else "n/a")
    print(f"bench_service: zipf: {total} decisions in {wall:.2f}s -- "
          f"hit rate {cache['hit_rate']:.0%}  "
          f"hit p50 {1000 * (hit_p50 or 0):.2f}ms ({ratio})  "
          f"miss p50 {1000 * (miss_p50 or 0):.2f}ms  "
          f"{entry['decisions_per_s']:.1f} decisions/s")
    return entry, failures


def chaos_drill(socket_dir: str, clients: int, per_client: int,
                workers: int, clean_blobs: dict,
                result_cache: int = 0) -> int:
    """The seeded drill: same load, but the poisoned scenario crashes
    its worker on every attempt.  Poisoned requests must quarantine
    with typed ``crash`` errors; every other scenario's record must be
    bit-identical to the clean run's.  Runs with the result cache
    *enabled* when ``result_cache > 0`` -- cached replays must stay
    bit-identical under chaos, and failures must never be cached.
    Returns the failure count."""
    sock = str(Path(socket_dir) / "repro-chaos.sock")
    config = ServiceConfig(
        socket_path=sock,
        result_cache=result_cache,
        pool=PoolConfig(workers=workers, executor="process",
                        max_attempts=2,
                        chaos=f"crash:scenario={POISONED},attempt=*"))
    with start_in_thread(config):
        samples, by_scenario, errors, wall = drive(
            sock, clients, per_client)

    failures = 0
    poisoned_errors = [e for e in errors if e[0] == POISONED]
    if by_scenario.get(POISONED):
        print(f"bench_service: chaos drill FAILED -- poisoned scenario "
              f"{POISONED} returned decisions")
        failures += 1
    if not poisoned_errors:
        print("bench_service: chaos drill FAILED -- poisoned scenario "
              "was never requested")
        failures += 1
    for scenario, response in errors:
        if scenario != POISONED or response.get("error") != "crash":
            print(f"bench_service: chaos drill FAILED -- unexpected "
                  f"error {response.get('error')!r} on {scenario}")
            failures += 1
    for scenario, records in sorted(by_scenario.items()):
        blobs = {stable_blob(record) for record in records}
        if blobs != {clean_blobs[scenario]}:
            print(f"bench_service: chaos drill FAILED -- {scenario} "
                  f"diverged from the clean run under chaos")
            failures += 1
    survivors = sum(len(records) for records in by_scenario.values())
    print(f"bench_service: chaos drill: {len(poisoned_errors)} poisoned "
          f"request(s) quarantined (typed crash), {survivors} innocent "
          f"request(s) bit-identical to the clean run, "
          f"{failures} failure(s)")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=4,
                        help="concurrent client connections (default: 4)")
    parser.add_argument("--requests", type=int, default=50,
                        help="requests per client (default: 50)")
    parser.add_argument("--workers", type=int, default=2,
                        help="daemon pool workers (default: 2)")
    parser.add_argument("--executor", choices=("process", "thread"),
                        default="thread",
                        help="daemon executor when self-hosting "
                             "(default: thread -- measures service "
                             "overhead, not process-pool IPC)")
    parser.add_argument("--socket", default=None,
                        help="drive an already-running daemon instead "
                             "of self-hosting one")
    parser.add_argument("--smoke", action="store_true",
                        help="CI scale: 2 clients x 10 requests")
    parser.add_argument("--chaos-drill", action="store_true",
                        help="also run the seeded crash drill (result "
                             "cache enabled) and verify zero verdict "
                             "divergences")
    parser.add_argument("--result-cache", type=int, default=64,
                        metavar="N",
                        help="result-cache capacity for the zipf "
                             "repeat-traffic phase and the chaos drill "
                             "(default: 64; 0 skips the phase)")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for the trajectory JSON "
                             "(default: repo root; --smoke skips the "
                             "write unless --out is given)")
    args = parser.parse_args()
    # The daemon sockets of every phase live here and go with it.
    with tempfile.TemporaryDirectory(prefix="repro-service-") as tmp:
        return run(args, tmp)


def run(args: argparse.Namespace, tmp: str) -> int:
    clients = 2 if args.smoke else args.clients
    per_client = 10 if args.smoke else args.requests

    handle = None
    if args.socket is not None:
        sock = args.socket
    else:
        sock = str(Path(tmp) / "repro.sock")
        handle = start_in_thread(ServiceConfig(
            socket_path=sock,
            pool=PoolConfig(workers=args.workers,
                            executor=args.executor)))
    try:
        samples, by_scenario, errors, wall = drive(
            sock, clients, per_client)
        with ServiceClient(socket_path=sock, timeout=60.0) as client:
            status = client.request({"op": "status"})["status"]
    finally:
        if handle is not None:
            handle.stop()

    latencies = [latency for _, latency, _ in samples]
    total = len(latencies)
    if errors:
        for scenario, response in errors[:5]:
            print(f"bench_service: ERROR response on {scenario}: "
                  f"{response}")
        print(f"bench_service: {len(errors)}/{total} requests failed")
        return 1
    divergences = check_consistency(by_scenario)
    if divergences:
        return 1

    entry = {
        "name": "service_mix",
        "clients": clients,
        "requests": total,
        "workers": args.workers,
        "executor": args.executor if args.socket is None else "external",
        "p50_s": round(_percentile(latencies, 0.50), 6),
        "p99_s": round(_percentile(latencies, 0.99), 6),
        "mean_s": round(statistics.fmean(latencies), 6),
        "decisions_per_s": round(total / wall, 1),
        "wall_s": round(wall, 3),
        "coalesced": status["coalescer"]["joined"],
    }
    print(f"bench_service: {total} decisions in {wall:.2f}s -- "
          f"p50 {entry['p50_s'] * 1000:.2f}ms  "
          f"p99 {entry['p99_s'] * 1000:.2f}ms  "
          f"{entry['decisions_per_s']:.1f} decisions/s  "
          f"({entry['coalesced']} coalesced)")
    entries = [entry]

    if args.socket is None and args.result_cache > 0:
        zipf_entry, zipf_failures = zipf_cache_phase(
            tmp, clients, per_client, workers=args.workers,
            executor=args.executor, capacity=args.result_cache)
        if zipf_failures:
            return 1
        entries.append(zipf_entry)

    drill_failures = 0
    if args.chaos_drill:
        clean_blobs = {scenario: stable_blob(records[0])
                       for scenario, records in by_scenario.items()}
        drill_failures = chaos_drill(tmp, clients=2, per_client=5,
                                     workers=args.workers,
                                     clean_blobs=clean_blobs,
                                     result_cache=args.result_cache)

    record = run_metadata(find_repo_root())
    record["smoke"] = bool(args.smoke)
    record["entries"] = entries
    if args.smoke and args.out is None:
        print("bench_service: smoke run, trajectory not written "
              "(pass --out to write)")
    else:
        out_dir = args.out or find_repo_root()
        out_dir.mkdir(parents=True, exist_ok=True)
        path = Path(out_dir) / SERVICE_TRAJECTORY
        append_trajectory(path, record)
        print(f"bench_service: appended to {path}")
    return 1 if drill_failures else 0


if __name__ == "__main__":
    sys.exit(main())
