"""The degradation ladder: which cheaper configuration answers when a
job's own configuration fails.

The ladder orders the evaluation engines by how much machinery sits
between the program and the answer -- ``columnar`` (vectorized
relation storage + batch join kernels) over ``interpretive`` (the
direct reference interpreter).  Each step down trades speed for a
smaller, simpler footprint, which is exactly what a job that just blew
its memory budget or crashed a worker needs on its retry.

Evaluation-kind jobs (evaluation / magic) degrade along the engine
axis.  Decision-kind jobs (containment / equivalence / boundedness)
spend their time in the antichain searches, which have one
implementation, so they keep a single rung and retry on it.  Every
rung still runs the same procedure against the same scenario ground
truth -- degradation changes *how* the answer is computed, never
*what* is checked.
"""

from __future__ import annotations

from typing import List, Tuple

__all__ = [
    "ENGINE_CHAIN",
    "ladder_rungs",
]

#: Engine backends, fastest/heaviest first (labels match
#: ``repro.runner.batch.ENGINE_CONFIGS``).
ENGINE_CHAIN: Tuple[str, ...] = ("columnar", "interpretive")


def ladder_rungs(engine: str, decision: bool) -> List[str]:
    """The engine labels to try, in order.

    The first rung is the job's own engine.  Evaluation jobs then walk
    :data:`ENGINE_CHAIN` down from wherever they sit; decision jobs,
    and engines outside the chain, get a single rung.

        >>> ladder_rungs("columnar", decision=False)
        ['columnar', 'interpretive']
        >>> ladder_rungs("columnar", decision=True)
        ['columnar']
        >>> ladder_rungs("interpretive", decision=False)
        ['interpretive']
    """
    if decision or engine not in ENGINE_CHAIN:
        return [engine]
    return list(ENGINE_CHAIN[ENGINE_CHAIN.index(engine):])
