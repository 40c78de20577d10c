"""Machine-readable benchmark trajectories (``BENCH_*.json``).

Shared by ``python -m repro scenarios`` and the standalone
``benchmarks/run_bench.py``: run metadata (commit, interpreter,
machine) and append-only JSON trajectory files, so performance and
verdict records accumulate across commits in one place.  The schema is
documented in ``docs/BENCHMARKS.md``.
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from pathlib import Path
from typing import Dict, List

#: Decision-stack records (containment / equivalence / boundedness).
AUTOMATA_TRAJECTORY = "BENCH_automata.json"
#: Evaluation-engine records (evaluation / magic / compiled plans).
PLANS_TRAJECTORY = "BENCH_plans.json"


def find_repo_root(start: Path = None) -> Path:
    """The directory trajectories default to: the enclosing checkout.

    Walks up from *start* (default: this file) looking for a repo
    marker (``.git`` or ``ROADMAP.md``).  When the package is
    installed outside a checkout (site-packages), no marker exists --
    fall back to the current working directory rather than writing
    into the interpreter's lib tree.
    """
    here = (start or Path(__file__)).resolve()
    for candidate in [here] + list(here.parents):
        if (candidate / ".git").exists() or (candidate / "ROADMAP.md").exists():
            return candidate
    return Path.cwd()


def run_metadata(repo_root: Path) -> Dict:
    """Commit / interpreter / machine stamp for one trajectory record."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=repo_root,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except Exception:
        commit = "unknown"
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "commit": commit,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def append_trajectory(path: Path, record: Dict) -> None:
    """Append *record* to the JSON list at *path* (created, or reset,
    when missing or unparsable)."""
    trajectory: List = []
    if path.exists():
        try:
            trajectory = json.loads(path.read_text())
        except json.JSONDecodeError:
            trajectory = []
    trajectory.append(record)
    path.write_text(json.dumps(trajectory, indent=2) + "\n")
