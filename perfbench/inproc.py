"""The two in-process workloads: ``eval_scale`` and ``decide_cold``.

Both run registry scenarios through ``Session.run_scenario``, each on a
fresh ``Session`` (a private cache scope), one caller in a closed loop.
The set of scenarios runs in whole passes, each pass in a seed-shuffled
order, so every run measures the same multiset of operations.  One
untimed pass first lets process-level lazy set-up finish (module
imports, allocator growth); a caller pays that once per process, not
per question.

A planted wrong expectation (the self-test's ``expected`` override) is
counted as failed and its time is dropped from the samples.
"""

from __future__ import annotations

import dataclasses
import json
import random
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Mapping, Optional, Tuple

from common import (
    ROOT,
    child_env,
    latency_percentiles,
    loadgen_latency,
    peak_rss_mb,
    setup_probe_s,
)
from spans import BUILD_LAYER, Tracer

from repro import Session
from repro.workloads.scenarios import REGISTRY, LazyExpected, get_scenario

#: Computes the registry's structural ground truth of the scale
#: scenarios in a child, so neither its time nor its memory lands in
#: the measured process.
ORACLE_PROBE = (
    "import json, sys\n"
    "from repro.workloads.scenarios import get_scenario\n"
    "names = sys.argv[1:]\n"
    "print(json.dumps({n: dict(get_scenario(n).expected) for n in names}))\n"
)

_SCOPE_IMAGES = "datalog.edb_images"


def decision_scenarios(excluded_tags) -> List[str]:
    """Every decision-kind registry scenario carrying none of
    *excluded_tags*, by name."""
    return sorted(name for name, scenario in REGISTRY.items()
                  if scenario.kind in ("containment", "equivalence",
                                       "boundedness")
                  and not set(scenario.tags) & set(excluded_tags))


def _start_oracle(names: List[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", ORACLE_PROBE, *names], env=child_env(),
        cwd=ROOT, stdout=subprocess.PIPE, text=True)


class _Stats:
    """What one measurement loop observed."""

    def __init__(self):
        self.samples: List[float] = []
        # Latencies of the untraced passes (all of them when untraced).
        self.plain_samples: List[float] = []
        self.attempted = 0
        self.failed = 0
        # (wall seconds, traced, correct operations, their summed
        # latency) per measured pass.
        self.passes: List[Tuple[float, bool, int, float]] = []
        self.setups: List[float] = []
        self.traced_ops = 0
        self.traced_op_s = 0.0
        self.edb_facts = 0
        self.cache = {"core": [0, 0], "images": [0, 0]}
        self.search = {"pairs": 0, "profiles": 0, "rounds": 0}


def _counting_build(scenario, facts: Dict[str, int]):
    """*scenario* with a build that records its EDB fact count."""
    def build():
        payload = scenario.build()
        database = payload.get("database")
        facts[scenario.name] = len(database) if database is not None else 0
        return payload
    return dataclasses.replace(scenario, build=build)


def _record_cache(stats: _Stats, session: Session) -> None:
    for table, counters in session.cache_stats()["scope"].items():
        bucket = stats.cache["images" if table == _SCOPE_IMAGES else "core"]
        bucket[0] += counters["hits"]
        bucket[1] += counters["hits"] + counters["misses"]


def _one_pass(order, expected: Mapping[str, Mapping], stats: _Stats,
              tracer: Optional[Tracer], facts: Mapping[str, int]) -> float:
    """Run every scenario of *order* once; return the pass wall time."""
    started = perf_counter()
    for scenario in order:
        if tracer is not None:
            scenario = dataclasses.replace(
                scenario, build=tracer.wrap(BUILD_LAYER, scenario.build))
        op_start = perf_counter()
        session = Session()
        decision = session.run_scenario(scenario)
        elapsed = perf_counter() - op_start
        stats.attempted += 1
        if (decision.error is not None
                or decision.verdict != dict(expected[scenario.name])):
            stats.failed += 1
            continue
        stats.samples.append(elapsed)
        if tracer is None:
            stats.plain_samples.append(elapsed)
        stats.edb_facts += facts.get(scenario.name, 0)
        if tracer is not None:
            stats.traced_ops += 1
            stats.traced_op_s += elapsed
            _record_cache(stats, session)
            for key in stats.search:
                stats.search[key] += decision.stats.get(key, 0)
    return perf_counter() - started


def _measure(scenarios, expected, seconds: float, rng: random.Random,
             tracer: Optional[Tracer], facts: Mapping[str, int],
             probes: int) -> _Stats:
    """Whole passes until *seconds* are spent (a pass starts only when
    at least half of it fits).  With a *tracer*, passes alternate
    untraced/traced so the overhead compares like with like.

    *probes* set-up timings run between passes, due at even intervals
    of the window: the host's speed shifts by up to half for seconds at
    a time, so probes taken together at one moment can all land in one
    slow spell, where spread over the run their median does not."""
    stats = _Stats()
    started = perf_counter()
    estimate = 0.0
    min_passes = 2 if tracer is not None else 1
    while True:
        while (len(stats.setups) < probes and perf_counter() - started
               >= len(stats.setups) * seconds / probes):
            stats.setups.append(setup_probe_s())
        elapsed = perf_counter() - started
        if (len(stats.passes) >= min_passes
                and elapsed + 0.5 * estimate >= seconds):
            break
        order = list(scenarios)
        rng.shuffle(order)
        traced = tracer is not None and len(stats.passes) % 2 == 1
        first = len(stats.samples)
        if traced:
            tracer.install()
        try:
            estimate = _one_pass(order, expected, stats,
                                 tracer if traced else None, facts)
        finally:
            if traced:
                tracer.uninstall()
        fresh = stats.samples[first:]
        stats.passes.append((estimate, traced, len(fresh), sum(fresh)))
    while len(stats.setups) < probes:
        stats.setups.append(setup_probe_s())
    return stats


def _share(hits_total) -> float:
    hits, total = hits_total
    return hits / total if total else 0.0


def run(config: Mapping, seed: int, seconds: float, trace: bool,
        expected_override: Optional[Mapping] = None) -> dict:
    """Run ``eval_scale`` or ``decide_cold``; returns ``{"attempted",
    "failed", "values", "summary"}``."""
    rng = random.Random(seed)
    if "scenarios" in config:
        names = list(config["scenarios"])
    else:
        names = decision_scenarios(config["exclude_tags"])
    scenarios = [get_scenario(name) for name in names]

    oracle = None
    if any(isinstance(s.expected, LazyExpected) for s in scenarios):
        # Ground truth not computed yet (the scale tier's oracles walk
        # 10^5 edges): compute it in a child, so the measured process
        # never materializes it, inside an operation or at all.
        oracle = _start_oracle(names)
        scenarios = [dataclasses.replace(s, expected={}) for s in scenarios]
    facts: Dict[str, int] = {}
    try:
        # The untimed first pass, which also counts each EDB.
        for scenario in scenarios:
            Session().run_scenario(_counting_build(scenario, facts))
        out = oracle.communicate(timeout=300)[0] if oracle else None
    finally:
        if oracle is not None and oracle.poll() is None:
            oracle.kill()
            oracle.wait()
    if oracle is not None:
        if oracle.returncode != 0:
            raise RuntimeError("ground-truth child failed")
        expected = json.loads(out)
        scenarios = [dataclasses.replace(s, expected=expected[s.name])
                     for s in scenarios]
    else:
        expected = {s.name: dict(s.expected) for s in scenarios}
    if expected_override:
        expected = {**expected, **expected_override}

    tracer = Tracer() if trace else None
    stats = _measure(scenarios, expected, seconds, rng, tracer, facts,
                     0 if trace else config["setup_repeats"])
    percentiles, real = latency_percentiles(stats.plain_samples)
    summary = {
        "operations": stats.attempted,
        "passes": len(stats.passes),
        "samples": len(stats.plain_samples),
        "latency_s": percentiles,
        "real_percentiles": real,
        "edb_facts_per_s": stats.edb_facts / sum(
            wall for wall, _, _, _ in stats.passes),
        # One caller in a closed loop: the reciprocal of the mean
        # latency, so it is printed here and not bounded twice.
        "ops_per_s": statistics.median(
            done / wall for wall, _, done, _ in stats.passes),
    }
    if not trace:
        values = {
            "setup_s": statistics.median(stats.setups),
            # Median over passes of the pass's mean operation latency: a
            # pass is the same work every time, so a transient stall
            # moves one pass, not the figure.
            "latency_mean_s": statistics.median(
                [spent / done for _, _, done, spent in stats.passes if done]
                or [0.0]),
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        ops = max(stats.traced_ops, 1)
        values = loadgen_latency(percentiles)
        values.update(tracer.layer_metrics(ops))
        values.update({
            "core.pairs": stats.search["pairs"] / ops,
            "core.profiles": stats.search["profiles"] / ops,
            "core.rounds": stats.search["rounds"] / ops,
            "core.cache_hit_rate": _share(stats.cache["core"]),
            "columns.image_hit_rate": _share(stats.cache["images"]),
            "trace.coverage": (tracer.covered_s / stats.traced_op_s
                               if stats.traced_op_s else 0.0),
            "trace.overhead_share": _overhead(stats.passes),
        })
    return {"attempted": stats.attempted, "failed": stats.failed,
            "values": values, "summary": summary}


def _overhead(passes: List[Tuple[float, bool, int, float]]) -> float:
    """Traced minus untraced mean pass time, as a share of untraced."""
    traced = [wall for wall, is_traced, _, _ in passes if is_traced]
    plain = [wall for wall, is_traced, _, _ in passes if not is_traced]
    if not traced or not plain:
        return 0.0
    base = sum(plain) / len(plain)
    return (sum(traced) / len(traced) - base) / base
