"""Shared plumbing of the benchmark: paths, the spec, percentiles,
set-up probes, peak memory and the result line."""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONTRACT = ROOT / "BENCHMARK.json"

#: A tail percentile is reported only when at least this many samples
#: lie beyond it; otherwise it is clamped to the highest lower
#: percentile that has them (the median is always reported).
MIN_BEYOND = 10

PERCENTILES: Tuple[Tuple[str, float], ...] = (
    ("latency_p50_s", 0.50),
    ("latency_p90_s", 0.90),
    ("latency_p99_s", 0.99),
)


#: Fresh-interpreter set-up of the in-process workloads: import the
#: package and build the first Session, timed inside the child so the
#: interpreter's own start-up is excluded.
SETUP_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import repro\n"
    "repro.Session()\n"
    "print(time.perf_counter() - start)\n"
)


def load_spec() -> dict:
    """Workload parameters and their documentation (``spec.json``)."""
    return json.loads((BENCH_DIR / "spec.json").read_text())


def load_contract() -> dict:
    """``BENCHMARK.json``: the metric names and units every run emits."""
    return json.loads(CONTRACT.read_text())


def child_env() -> Dict[str, str]:
    """The environment for child interpreters: the checkout's ``src``
    first on ``PYTHONPATH``."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def nearest_rank(ordered: Sequence[float], q: float) -> Tuple[float, int]:
    """The nearest-rank *q* quantile of sorted samples, and how many
    samples lie beyond it."""
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def latency_percentiles(samples: Sequence[float]):
    """p50/p90/p99 by nearest rank, and the names of the real ones.  A
    tail percentile with fewer than :data:`MIN_BEYOND` samples beyond it
    takes the value of the highest lower percentile that has them.
    Without samples (every operation failed, so the run reports
    ``correct: false``) all read 0."""
    values: Dict[str, float] = {name: 0.0 for name, _ in PERCENTILES}
    real: List[str] = []
    ordered = sorted(samples)
    for name, q in PERCENTILES if ordered else ():
        candidate, beyond = nearest_rank(ordered, q)
        if not real or beyond >= MIN_BEYOND:
            real.append(name)
            values[name] = candidate
        else:
            values[name] = values[real[-1]]
    return values, real


def loadgen_latency(percentiles: Dict[str, float]) -> Dict[str, float]:
    """The percentiles as the traced run reports them: without a bound,
    under the load generator's name.  On a shared 2-vCPU host their
    run-to-run spread was wider than any bound a benchmark may set (the
    median of decide_cold switches between two scenarios' clusters), so
    the untraced run prints them on its summary line only."""
    return {f"loadgen.{name}": value for name, value in percentiles.items()}


def setup_probe_s() -> float:
    """One fresh-interpreter ``import repro`` + ``Session()`` timing."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident memory in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def result_line(correct: bool, attempted: int, failed: int,
                values: Dict[str, float], declared: Sequence[dict]) -> str:
    """The last stdout line: every *declared* metric with its unit.
    Raises ``KeyError`` when a declared metric was not measured."""
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in declared
    }
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})
