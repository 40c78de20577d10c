"""Compiled join plans for bottom-up evaluation.

The interpretive evaluator (:mod:`repro.datalog.engine`) re-derives a
greedy join order and re-inspects every atom argument on each rule
application of each fixpoint round.  This module compiles each
:class:`~repro.datalog.rules.Rule` once into a reusable
:class:`JoinPlan`:

* the join order is fixed at compile time, one plan variant per
  delta-position (``delta_index=None`` for naive / stage-1 full
  application, ``delta_index=i`` for the semi-naive variant matching
  body atom *i* against the delta);
* every argument slot becomes one of three register ops -- constant
  check, bind-register, check-register -- so executing a step is a flat
  loop over precomputed tuples instead of repeated term inspection;
* the index position used to look up candidate rows (a constant
  argument or a variable bound by the join prefix) is selected at
  compile time;
* the head projection is a tuple of slot references (register index or
  constant), with unsafe head variables enumerated over the active
  domain exactly as in the interpretive path.

Plans are *symbolic*: they mention :class:`Constant` objects, not store
values.  :meth:`JoinPlan.resolve` binds a plan to a concrete
:class:`~repro.datalog.columns.ColumnStore` -- interning its constants
-- and yields a :class:`ResolvedPlan`, which the columnar batch kernels
(:func:`~repro.datalog.columns.execute_batch_fused`) execute over whole
relation columns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .program import Program
from .rules import Rule
from .terms import is_variable

if TYPE_CHECKING:  # columns imports this module
    from .columns import ColumnStore

# Register ops: (position, op, payload).
OP_CONST = 0   # row[position] must equal the (resolved) constant payload
OP_BIND = 1    # regs[payload] = row[position]
OP_CHECK = 2   # row[position] must equal regs[payload]


class ResolvedPlan:
    """A :class:`JoinPlan` bound to a store: ready to execute."""

    __slots__ = ("steps", "head_ops", "unsafe_regs", "nregs", "fused")

    def __init__(self, steps, head_ops, unsafe_regs, nregs):
        self.steps = steps            # ((predicate, use_delta, index_spec, ops), ...)
        self.head_ops = head_ops      # ((is_reg, payload), ...)
        self.unsafe_regs = unsafe_regs
        self.nregs = nregs
        # Lazily-compiled metadata for the fused columnar kernels
        # (liveness analysis, pushed-down filters); built on first use
        # by :func:`repro.datalog.columns.execute_batch_fused`.
        self.fused = None


class JoinPlan:
    """The compile-time join program for one rule and delta position.

    Symbolic: constants are :class:`Constant` objects and index needs
    are recorded, so the plan is reusable across stores; call
    :meth:`resolve` to bind it to one evaluation.
    """

    __slots__ = ("rule", "delta_index", "steps", "head_ops", "unsafe_regs",
                 "nregs")

    def __init__(self, rule: Rule, delta_index: Optional[int] = None):
        self.rule = rule
        self.delta_index = delta_index
        self._compile()

    def _compile(self) -> None:
        rule = self.rule
        delta_index = self.delta_index
        # Greedy join order (same heuristic and tie-break as the
        # interpretive path): prefer atoms sharing many bound variables
        # or carrying constants, penalize fresh variables.
        remaining = list(enumerate(rule.body))
        ordered: List[Tuple[int, object]] = []
        bound: set = set()
        while remaining:
            def score(entry):
                atom = entry[1]
                variables = atom.variable_set()
                return (len(variables & bound) + len(atom.constants()),
                        -len(variables - bound))

            best = max(remaining, key=score)
            remaining.remove(best)
            ordered.append(best)
            bound.update(best[1].variable_set())

        regmap: Dict[object, int] = {}

        def reg(var) -> int:
            r = regmap.get(var)
            if r is None:
                r = len(regmap)
                regmap[var] = r
            return r

        steps = []
        bound_so_far: set = set()
        for orig_index, atom in ordered:
            use_delta = delta_index is not None and orig_index == delta_index
            index_spec = None
            if not use_delta:
                # First indexable position: a constant argument or a
                # variable bound by the join prefix.
                for pos, arg in enumerate(atom.args):
                    if not is_variable(arg):
                        index_spec = (pos, False, arg)
                        break
                    if arg in bound_so_far:
                        index_spec = (pos, True, reg(arg))
                        break
            ops = []
            seen_here: set = set()
            for pos, arg in enumerate(atom.args):
                if not is_variable(arg):
                    ops.append((pos, OP_CONST, arg))
                elif arg in bound_so_far or arg in seen_here:
                    ops.append((pos, OP_CHECK, reg(arg)))
                else:
                    seen_here.add(arg)
                    ops.append((pos, OP_BIND, reg(arg)))
            steps.append((atom.predicate, use_delta, index_spec, tuple(ops)))
            bound_so_far.update(atom.variable_set())

        head_ops = []
        unsafe_regs: List[int] = []
        unsafe_seen: set = set()
        for arg in rule.head.args:
            if not is_variable(arg):
                head_ops.append((False, arg))
            else:
                r = reg(arg)
                head_ops.append((True, r))
                if arg not in bound_so_far and arg not in unsafe_seen:
                    unsafe_seen.add(arg)
                    unsafe_regs.append(r)

        self.steps = tuple(steps)
        self.head_ops = tuple(head_ops)
        self.unsafe_regs = tuple(unsafe_regs)
        self.nregs = len(regmap)

    def resolve(self, store: "ColumnStore") -> ResolvedPlan:
        """Bind the plan to *store*: intern constants and drop the
        per-row op made redundant by an index lookup."""
        steps = []
        for predicate, use_delta, index_spec, ops in self.steps:
            resolved_index = None
            if index_spec is not None:
                pos, is_reg, payload = index_spec
                resolved_index = (
                    pos, is_reg, payload if is_reg else store.resolve(payload))
                # Candidate rows already satisfy the indexed position.
                ops = tuple(op for op in ops if op[0] != pos)
            resolved_ops = tuple(
                (pos, op, store.resolve(payload) if op == OP_CONST else payload)
                for pos, op, payload in ops)
            steps.append((predicate, use_delta, resolved_index, resolved_ops))
        head_ops = tuple(
            (is_reg, payload if is_reg else store.resolve(payload))
            for is_reg, payload in self.head_ops)
        return ResolvedPlan(tuple(steps), head_ops, self.unsafe_regs,
                            self.nregs)


class PlanCache:
    """Compile-once cache keyed by ``(rule, delta_index)``."""

    __slots__ = ("_plans",)
    _MAX_ENTRIES = 8192

    def __init__(self):
        self._plans: Dict[Tuple[Rule, Optional[int]], JoinPlan] = {}

    def plan(self, rule: Rule, delta_index: Optional[int] = None) -> JoinPlan:
        key = (rule, delta_index)
        plan = self._plans.get(key)
        if plan is None:
            if len(self._plans) >= self._MAX_ENTRIES:
                self._plans.clear()
            plan = JoinPlan(rule, delta_index)
            self._plans[key] = plan
        return plan

    def clear(self) -> None:
        """Drop every compiled plan (cold-start / memory valve)."""
        self._plans.clear()

    def __len__(self):
        return len(self._plans)


def compile_program(program: Program,
                    cache: Optional[PlanCache] = None) -> Dict[Rule, JoinPlan]:
    """Full-application plans for every rule (convenience for tests)."""
    cache = PlanCache() if cache is None else cache
    return {rule: cache.plan(rule, None) for rule in program.rules}
