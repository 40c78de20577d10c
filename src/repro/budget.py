"""Wall-clock budgets and universal deadlines for decision instances.

The paper's decision procedures are EXPTIME-hard (nonrecursive
containment is EXPTIME-complete, boundedness is undecidable in
general), so a long-running system *will* see individual decisions
overrun any budget.  This module delivers deterministic "ran out of
budget" outcomes with one mechanism: :func:`time_budget` installs the
deadline in a :class:`contextvars.ContextVar`
(tightest-enclosing-deadline-wins), and the hot loops of the
evaluation and decision stack -- the fixpoint drivers and the
interpretive join, the antichain and profile searches, rule-instance
enumeration, query-automaton successor construction, expansion
enumeration and unfolding, the parser -- call :func:`check_deadline`
once per outer iteration.  The check is one
ContextVar read plus one clock read, so it is free when no deadline is
armed, and it fires the same way on a main thread, a worker thread and
a pool process.

Hooks sit at outer-iteration granularity and never inside the update
of a shared memo: a raise leaves every cache either without the entry
or with a complete one.  Code that never reaches a hook cannot be
interrupted, so a loop whose single pass can outlast a deadline needs
its own hook.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from time import monotonic
from typing import Iterator, Optional, Tuple


class BudgetExhausted(Exception):
    """Raised inside a :func:`time_budget` block when the wall-clock
    budget runs out."""

    def __init__(self, seconds: float):
        super().__init__(f"wall-clock budget of {seconds}s exhausted")
        self.seconds = seconds


#: The tightest active deadline of this context: ``(expires_at,
#: seconds)`` with ``expires_at`` on the monotonic clock, or None.
_DEADLINE: ContextVar[Optional[Tuple[float, float]]] = ContextVar(
    "repro_deadline", default=None
)


def check_deadline() -> None:
    """Raise :class:`BudgetExhausted` when the ambient
    :func:`time_budget` deadline has passed.

    One ContextVar read when no deadline is armed, so the fixpoint
    drivers and search kernels call it once per outer iteration at
    negligible cost.  The exception carries the *seconds* of the
    budget that fired (the tightest enclosing one).
    """
    entry = _DEADLINE.get()
    if entry is not None and monotonic() >= entry[0]:
        raise BudgetExhausted(entry[1])


@contextmanager
def time_budget(seconds: Optional[float]) -> Iterator[None]:
    """Run the block under a wall-clock budget of *seconds*.

    ``None`` (or a non-positive value) disables the budget.  Nested
    budgets compose by tightest-wins: an inner budget looser than the
    time an enclosing one has left changes nothing.  When the budget
    fires, :class:`BudgetExhausted` propagates out of the block from
    the next :func:`check_deadline` hook.
    """
    if seconds is None or seconds <= 0:
        yield
        return
    seconds = float(seconds)
    expires = monotonic() + seconds
    outer = _DEADLINE.get()
    entry = outer if (outer is not None and outer[0] <= expires) \
        else (expires, seconds)
    token = _DEADLINE.set(entry)
    try:
        yield
    finally:
        _DEADLINE.reset(token)
