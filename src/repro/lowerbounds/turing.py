"""Turing machines and their local transition relations (Section 5.3).

The lower-bound encodings need, for a machine M:

* configurations as strings over ``symbols(M)`` = tape symbols plus
  *composite* symbols ``(state, symbol)`` marking the head;
* the 4-ary relation ``R_M`` on symbols such that b is a successor
  configuration of a iff ``(a[i-1], a[i], a[i+1], b[i]) in R_M`` for
  all interior i, plus the 3-ary end relations ``Rl_M`` and ``Rr_M``;
* a direct simulator used to cross-check the encodings on tiny
  machines.

Deterministic machines drive the EXPSPACE encoding; the
:class:`AlternatingTuringMachine` (existential/universal states with a
left and a right successor transition, as the paper normalizes) drives
the 2EXPTIME variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from ..datalog.errors import ValidationError

Symbol = str
Composite = Tuple[str, str]  # (state, tape symbol)
CellSymbol = Union[Symbol, Composite]

LEFT, STAY, RIGHT = -1, 0, 1


def is_composite(symbol: CellSymbol) -> bool:
    """True for a head-marking composite symbol."""
    return isinstance(symbol, tuple)


def symbol_name(symbol: CellSymbol) -> str:
    """A predicate-friendly name for a cell symbol."""
    if is_composite(symbol):
        return f"{symbol[0]}_{symbol[1]}"
    return str(symbol)


@dataclass(frozen=True)
class TuringMachine:
    """A deterministic single-tape Turing machine.

    ``transitions`` maps ``(state, symbol)`` to
    ``(state', symbol', move)`` with move in {-1, 0, +1}.  The head
    never moves off the left end; the tape is bounded by the space
    limit supplied to the simulator (the paper's machines are
    space-bounded by construction).
    """

    states: FrozenSet[str]
    tape_symbols: FrozenSet[str]
    blank: str
    initial_state: str
    accepting_states: FrozenSet[str]
    transitions: Dict[Tuple[str, str], Tuple[str, str, int]]

    def __post_init__(self):
        if self.blank not in self.tape_symbols:
            raise ValidationError("blank symbol must be a tape symbol")
        if self.initial_state not in self.states:
            raise ValidationError("initial state missing from state set")

    def cell_symbols(self) -> List[CellSymbol]:
        """All cell symbols: tape symbols plus composites."""
        symbols: List[CellSymbol] = sorted(self.tape_symbols)
        symbols.extend(
            (state, tape) for state in sorted(self.states) for tape in sorted(self.tape_symbols)
        )
        return symbols

    def accepting_cell_symbols(self) -> List[Composite]:
        """Composites whose state is accepting."""
        return [
            (state, tape)
            for state in sorted(self.accepting_states)
            for tape in sorted(self.tape_symbols)
        ]

    def initial_configuration(self, space: int) -> Tuple[CellSymbol, ...]:
        """``(s0, blank) blank^(space-1)``: the empty-tape start."""
        return ((self.initial_state, self.blank),) + (self.blank,) * (space - 1)

    def step_configuration(self, config: Tuple[CellSymbol, ...]) -> Optional[Tuple[CellSymbol, ...]]:
        """The successor configuration, or None when the machine halts
        (no applicable transition, or the head would leave the tape)."""
        cells = list(config)
        head = next((i for i, c in enumerate(cells) if is_composite(c)), None)
        if head is None:
            return None
        state, symbol = cells[head]
        action = self.transitions.get((state, symbol))
        if action is None:
            return None
        new_state, written, move = action
        cells[head] = written
        target = head + move
        if target < 0 or target >= len(cells):
            return None
        cells[target] = (new_state, cells[target])
        return tuple(cells)

    def accepts_in_space(self, space: int, max_steps: int = 10_000) -> bool:
        """Simulate on the empty tape within *space* cells."""
        config = self.initial_configuration(space)
        for _ in range(max_steps):
            head = next((c for c in config if is_composite(c)), None)
            if head is not None and head[0] in self.accepting_states:
                return True
            successor = self.step_configuration(config)
            if successor is None:
                return False
            config = successor
        return False

    def run_configurations(self, space: int, max_steps: int = 10_000) -> List[Tuple[CellSymbol, ...]]:
        """The configuration sequence until halt/accept (inclusive)."""
        config = self.initial_configuration(space)
        history = [config]
        for _ in range(max_steps):
            head = next((c for c in config if is_composite(c)), None)
            if head is not None and head[0] in self.accepting_states:
                break
            successor = self.step_configuration(config)
            if successor is None:
                break
            config = successor
            history.append(config)
        return history


def _written_cell(machine: TuringMachine, state: str, symbol: str) -> Optional[CellSymbol]:
    action = machine.transitions.get((state, symbol))
    if action is None:
        return None
    new_state, written, move = action
    if move == STAY:
        return (new_state, written)
    return written


def local_relations(machine: TuringMachine):
    """The relations ``(R_M, Rl_M, Rr_M)`` characterizing legal
    successor configurations by purely local constraints.

    ``(x, y, z, b) in R_M`` iff whenever three consecutive cells read
    x y z, the middle cell may read b in the successor configuration.
    Tuples with more than one composite among x, y, z never occur in a
    configuration and are excluded (so they are flagged as errors).
    """
    symbols = machine.cell_symbols()
    r_m: Set[Tuple[CellSymbol, CellSymbol, CellSymbol, CellSymbol]] = set()
    r_left: Set[Tuple[CellSymbol, CellSymbol, CellSymbol]] = set()
    r_right: Set[Tuple[CellSymbol, CellSymbol, CellSymbol]] = set()

    def middle_successors(x: CellSymbol, y: CellSymbol, z: CellSymbol) -> List[CellSymbol]:
        composites = sum(1 for c in (x, y, z) if is_composite(c))
        if composites > 1:
            return []
        if is_composite(y):
            state, symbol = y
            action = machine.transitions.get((state, symbol))
            if action is None:
                # Halting configuration: it has no successor, so no
                # tuple is legal (any claimed successor is an error).
                return []
            written = _written_cell(machine, state, symbol)
            return [written] if written is not None else []
        if is_composite(x):
            state, symbol = x
            action = machine.transitions.get((state, symbol))
            if action is not None and action[2] == RIGHT and not is_composite(y):
                return [(action[0], y)]
            return [y]
        if is_composite(z):
            state, symbol = z
            action = machine.transitions.get((state, symbol))
            if action is not None and action[2] == LEFT and not is_composite(y):
                return [(action[0], y)]
            return [y]
        return [y]

    for x, y, z in product(symbols, repeat=3):
        for b in middle_successors(x, y, z):
            r_m.add((x, y, z, b))

    for x, y in product(symbols, repeat=2):
        # Left end: cell 1 with right neighbour y.
        composites = sum(1 for c in (x, y) if is_composite(c))
        if composites <= 1:
            if is_composite(x):
                state, symbol = x
                action = machine.transitions.get((state, symbol))
                if action is not None:
                    written = _written_cell(machine, state, symbol)
                    if written is not None and action[2] != LEFT:
                        r_left.add((x, y, written))
            elif is_composite(y):
                state, symbol = y
                action = machine.transitions.get((state, symbol))
                if action is not None and action[2] == LEFT:
                    r_left.add((x, y, (action[0], x)))
                elif action is not None:
                    r_left.add((x, y, x))
            else:
                r_left.add((x, y, x))
        # Right end: cell m with left neighbour x (reuse roles: the
        # pair is (a_{m-1}, a_m)).
        if composites <= 1:
            if is_composite(y):
                state, symbol = y
                action = machine.transitions.get((state, symbol))
                if action is not None:
                    written = _written_cell(machine, state, symbol)
                    if written is not None and action[2] != RIGHT:
                        r_right.add((x, y, written))
            elif is_composite(x):
                state, symbol = x
                action = machine.transitions.get((state, symbol))
                if action is not None and action[2] == RIGHT:
                    r_right.add((x, y, (action[0], y)))
                elif action is not None:
                    r_right.add((x, y, y))
            else:
                r_right.add((x, y, y))
    return r_m, frozenset(r_left), frozenset(r_right)


def composite_count(*symbols: CellSymbol) -> int:
    """How many of *symbols* are head-marking composites.

    Windows with two or more composites never occur in a legal
    computation (configurations have a single head, and the
    initial-configuration checks plus induction preserve that), so the
    encodings skip error rules for them -- this is what keeps the
    reductions polynomial in practice.
    """
    return sum(1 for s in symbols if is_composite(s))


@dataclass(frozen=True)
class AlternatingTuringMachine:
    """An alternating machine normalized as in Section 5.3: states are
    existential or universal (strictly alternating is not enforced),
    and every configuration has a *left* and a *right* successor, given
    by two deterministic transition tables."""

    states: FrozenSet[str]
    tape_symbols: FrozenSet[str]
    blank: str
    initial_state: str
    accepting_states: FrozenSet[str]
    universal_states: FrozenSet[str]
    left_transitions: Dict[Tuple[str, str], Tuple[str, str, int]]
    right_transitions: Dict[Tuple[str, str], Tuple[str, str, int]]

    def is_universal(self, state: str) -> bool:
        return state in self.universal_states

    def _branch(self, which: str) -> TuringMachine:
        transitions = self.left_transitions if which == "left" else self.right_transitions
        return TuringMachine(
            states=self.states,
            tape_symbols=self.tape_symbols,
            blank=self.blank,
            initial_state=self.initial_state,
            accepting_states=self.accepting_states,
            transitions=transitions,
        )

    def accepts_in_space(self, space: int, max_depth: int = 64) -> bool:
        """Evaluate the computation tree (memoized) on the empty tape."""
        left = self._branch("left")
        right = self._branch("right")
        memo: Dict[Tuple[Tuple[CellSymbol, ...], int], bool] = {}

        def run(config: Tuple[CellSymbol, ...], depth: int) -> bool:
            key = (config, depth)
            if key in memo:
                return memo[key]
            memo[key] = False  # cycle-safe default
            head = next((c for c in config if is_composite(c)), None)
            if head is None or depth <= 0:
                return False
            state = head[0]
            if state in self.accepting_states:
                memo[key] = True
                return True
            successors = [
                branch.step_configuration(config) for branch in (left, right)
            ]
            successors = [s for s in successors if s is not None]
            if not successors:
                memo[key] = False
            elif self.is_universal(state):
                memo[key] = all(run(s, depth - 1) for s in successors)
            else:
                memo[key] = any(run(s, depth - 1) for s in successors)
            return memo[key]

        return run(self._branch("left").initial_configuration(space), max_depth)


def tiny_accepting_machine() -> TuringMachine:
    """The smallest accepting machine (two states, one tape symbol:
    step straight into qa).  Its cell alphabet has 3 symbols, so it
    yields the smallest Section 5.3 / Section 6 encodings -- the
    ``tag:stress`` tier uses it to pin the *minimum* instance size at
    which the containment decisions are already infeasible."""
    return TuringMachine(
        states=frozenset({"q0", "qa"}),
        tape_symbols=frozenset({"b"}),
        blank="b",
        initial_state="q0",
        accepting_states=frozenset({"qa"}),
        transitions={("q0", "b"): ("qa", "b", STAY)},
    )


def simple_accepting_machine() -> TuringMachine:
    """A machine that immediately accepts (writes and enters qa)."""
    return TuringMachine(
        states=frozenset({"q0", "qa"}),
        tape_symbols=frozenset({"0", "1", "b"}),
        blank="b",
        initial_state="q0",
        accepting_states=frozenset({"qa"}),
        transitions={("q0", "b"): ("qa", "1", STAY)},
    )


def simple_rejecting_machine() -> TuringMachine:
    """A machine that loops in place and never accepts."""
    return TuringMachine(
        states=frozenset({"q0", "q1", "qa"}),
        tape_symbols=frozenset({"0", "1", "b"}),
        blank="b",
        initial_state="q0",
        accepting_states=frozenset({"qa"}),
        transitions={
            ("q0", "b"): ("q1", "0", STAY),
            ("q1", "0"): ("q0", "b", STAY),
        },
    )


def sweeping_machine() -> TuringMachine:
    """Writes a 1, steps right, writes another 1, steps back left and
    accepts -- exercises both head directions in the local relations.
    Accepts in any space of at least two cells."""
    return TuringMachine(
        states=frozenset({"q0", "q1", "q2", "qa"}),
        tape_symbols=frozenset({"1", "b"}),
        blank="b",
        initial_state="q0",
        accepting_states=frozenset({"qa"}),
        transitions={
            ("q0", "b"): ("q1", "1", RIGHT),
            ("q1", "b"): ("q2", "1", LEFT),
            ("q2", "1"): ("qa", "1", STAY),
        },
    )
