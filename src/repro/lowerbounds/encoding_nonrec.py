"""The Section 6 lower-bound encoding: doubly-exponential-space Turing
machines -> containment of linear programs in *nonrecursive* programs.

Configurations now have 2^(2^n) cells, each addressed by a 2^n-bit
counter; a cell is a chain of 2^n *address points* followed by one
*symbol point*.  The recursive program Pi uses a single ternary IDB
``bit`` (one unfolding per point); the nonrecursive program Pi' packs
the error checks into succinct distance/equality subprograms:

* ``dexact_i`` -- paths of length exactly 2^i (Example 6.1's dist);
* ``dle_i`` / ``dlt_i`` -- paths of length at most 2^i / 2^i - 1
  (Example 6.2, with the paper's empty-body rules);
* ``equal_i`` -- pairs of equally-labeled paths of length 2^i
  (Example 6.3), used to align corresponding cells of successive
  configurations;
* ``allones_i`` / ``allzeros_i`` -- constant-labeled exact paths, our
  completion of the paper's sketch for the "configuration must change
  at address 1...1" and end-of-tape checks.

``Pi contained-in Pi'`` iff the machine does not accept the empty tape
in space 2^(2^n).  As with Section 5.3 the generator exists to be
*measured* and semantically validated (Pi' is a plain nonrecursive
program, so it can be evaluated directly on encoded traces), not to be
pushed through the triply-exponential decision procedure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..datalog.atoms import Atom
from ..datalog.database import Database
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..datalog.terms import Variable
from .encoding_space import standard_carries
from .turing import CellSymbol, TuringMachine, is_composite, local_relations, symbol_name

Z, U, V = Variable("Z"), Variable("U"), Variable("V")
Z2, U2 = Variable("Z2"), Variable("U2")


def _q(symbol) -> str:
    return f"q_{symbol_name(symbol)}"


@dataclass
class NonrecEncoding:
    """The generated (Pi, Pi') pair and bookkeeping."""

    program: Program
    nonrecursive: Program
    machine: TuringMachine
    n: int
    rule_families: Dict[str, int] = field(default_factory=dict)

    def sizes(self) -> Dict[str, int]:
        return {
            "n": self.n,
            "program_rules": len(self.program),
            "program_size": self.program.size(),
            "nonrecursive_rules": len(self.nonrecursive),
            "nonrecursive_size": self.nonrecursive.size(),
        }


def _recursive_program(machine: TuringMachine) -> Tuple[List[Rule], Dict[str, int]]:
    rules: List[Rule] = []
    families: Dict[str, int] = {}

    def add(family: str, rule: Rule) -> None:
        rules.append(rule)
        families[family] = families.get(family, 0) + 1

    bit = lambda z, u, v: Atom("bit", (z, u, v))  # noqa: E731

    # Address rules: four bit-value combinations.
    for value_pred in ("zero", "one"):
        for carry_pred in ("carry0", "carry1"):
            add(
                "address",
                Rule(
                    bit(Z, U, V),
                    (
                        bit(Z2, U, V),
                        Atom("a", (Z, U, V)),
                        Atom("address", (Z,)),
                        Atom("e", (Z, Z2)),
                        Atom(value_pred, (Z,)),
                        Atom(carry_pred, (Z,)),
                    ),
                ),
            )

    # Symbol rules: same configuration continues.
    for symbol in machine.cell_symbols():
        add(
            "symbol",
            Rule(
                bit(Z, U, V),
                (
                    bit(Z2, U, V),
                    Atom("a", (Z, U, V)),
                    Atom("e", (Z, Z2)),
                    Atom("symbol", (Z,)),
                    Atom(_q(symbol), (Z,)),
                ),
            ),
        )
        # Transition rules: u migrates one position.
        add(
            "transition",
            Rule(
                bit(Z, U, V),
                (
                    bit(Z2, U2, U),
                    Atom("a", (Z, U, V)),
                    Atom("e", (Z, Z2)),
                    Atom("symbol", (Z,)),
                    Atom(_q(symbol), (Z,)),
                ),
            ),
        )

    # End rules at accepting composites.
    for symbol in machine.accepting_cell_symbols():
        add(
            "end",
            Rule(
                bit(Z, U, V),
                (Atom("a", (Z, U, V)), Atom("symbol", (Z,)), Atom(_q(symbol), (Z,))),
            ),
        )

    # Start rule: the first point is address bit 0 with carry 1.
    add(
        "start",
        Rule(
            Atom("c", ()),
            (
                Atom("start", (Z,)),
                bit(Z, U, V),
                Atom("a", (Z, U, V)),
                Atom("address", (Z,)),
                Atom("zero", (Z,)),
                Atom("carry1", (Z,)),
            ),
        ),
    )
    return rules, families


def _distance_subprograms(n: int) -> List[Rule]:
    """dexact/dle/dlt/equal/allones/allzeros up to level n."""
    src: List[str] = [
        "dexact0(X, Y) :- e(X, Y).",
        "dle0(X, Y) :- e(X, Y).",
        "dle0(X, X) :- .",
        "dlt0(X, X) :- .",
        "equal0(X, Y, U, V) :- e(X, Y), e(U, V), zero(X), zero(U).",
        "equal0(X, Y, U, V) :- e(X, Y), e(U, V), one(X), one(U).",
        "allones0(X, Y) :- e(X, Y), one(X), address(X).",
        "allzeros0(X, Y) :- e(X, Y), zero(X), address(X).",
    ]
    for i in range(1, n + 1):
        src.append(f"dexact{i}(X, Y) :- dexact{i-1}(X, Z), dexact{i-1}(Z, Y).")
        src.append(f"dle{i}(X, Y) :- dle{i-1}(X, Z), dle{i-1}(Z, Y).")
        src.append(f"dlt{i}(X, Y) :- dlt{i-1}(X, Z), dle{i-1}(Z, Y).")
        src.append(
            f"equal{i}(X, Y, U, V) :- equal{i-1}(X, X1, U, U1), equal{i-1}(X1, Y, U1, V)."
        )
        src.append(f"allones{i}(X, Y) :- allones{i-1}(X, Z), allones{i-1}(Z, Y).")
        src.append(f"allzeros{i}(X, Y) :- allzeros{i-1}(X, Z), allzeros{i-1}(Z, Y).")
    from ..datalog.parser import parse_program

    return list(parse_program("\n".join(src)).rules)


def encode_nonrecursive(machine: TuringMachine, n: int,
                        include_transition_errors: bool = True) -> NonrecEncoding:
    """Build (Pi, Pi') for Section 6 with 2^n-bit cell addresses."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rules, families = _recursive_program(machine)
    program = Program(rules)

    checks: List[Rule] = list(_distance_subprograms(n))
    check_families: Dict[str, int] = {}

    def add(family: str, source: str) -> None:
        from ..datalog.parser import parse_rule

        checks.append(parse_rule(source))
        check_families[family] = check_families.get(family, 0) + 1

    D = n  # distance level for 2^n

    # Format filters: blocks of 2^n address points, then a symbol point.
    add("format", f"c() :- start(Z), dlt{D}(Z, Z1), symbol(Z1).")
    add("format", f"c() :- start(Z), dexact{D}(Z, Z1), address(Z1).")
    add("format", f"c() :- symbol(Z), e(Z, Z1), dlt{D}(Z1, Z2), symbol(Z2).")
    add("format", f"c() :- symbol(Z), dexact{D}(Z, Z1), e(Z1, Z2), address(Z2).")

    # Counter errors.
    add("counter", f"c() :- start(Z), dlt{D}(Z, Z1), one(Z1).")
    add("counter", "c() :- start(Z), carry0(Z).")
    add("counter", "c() :- symbol(Z), e(Z, Z1), address(Z1), carry0(Z1).")
    # gamma_i = 0 forces gamma_{i+1} = 0 within one address block.
    add("counter", "c() :- address(Z), carry0(Z), e(Z, Z1), address(Z1), carry1(Z1).")
    # alpha_i = 1 and gamma_i(next) = 1 force gamma_{i+1}(next) = 1.
    add(
        "counter",
        f"c() :- address(Z), one(Z), dexact{D}(Z, Z1), e(Z1, Z2), carry1(Z2), "
        "e(Z2, Z3), address(Z3), carry0(Z3).",
    )
    # alpha_i = 0 forces gamma_{i+1}(next) = 0.
    add(
        "counter",
        f"c() :- address(Z), zero(Z), dexact{D}(Z, Z1), e(Z1, Z2), "
        "e(Z2, Z3), address(Z3), carry1(Z3).",
    )
    # Sum errors: beta_i = alpha_i xor gamma_i.
    for alpha, gamma, beta in (
        ("zero", "carry0", "one"),
        ("one", "carry1", "one"),
        ("one", "carry0", "zero"),
        ("zero", "carry1", "zero"),
    ):
        add(
            "sum",
            f"c() :- address(Z), {alpha}(Z), dexact{D}(Z, Z1), e(Z1, Z2), "
            f"address(Z2), {gamma}(Z2), {beta}(Z2).",
        )

    # Configuration boundary errors.
    add(
        "config",
        f"c() :- address(Z), a(Z, U, V), zero(Z), dexact{D}(Z, Z1), symbol(Z1), "
        "e(Z1, Z2), a(Z2, U2, U).",
    )
    add(
        "config",
        f"c() :- allones{D}(Z, Z1), symbol(Z1), a(Z1, U, V), e(Z1, Z2), a(Z2, U, V).",
    )

    # Initial-configuration errors.
    initial_symbol = (machine.initial_state, machine.blank)
    for symbol in machine.cell_symbols():
        if symbol != initial_symbol:
            add(
                "initial",
                f"c() :- start(Z), dexact{D}(Z, Z1), symbol(Z1), {_q(symbol)}(Z1).",
            )
        if symbol != machine.blank:
            add(
                "initial",
                f"c() :- start(Z0), a(Z0, U, V), one(Z), address(Z), a(Z, U, V), "
                f"dle{D}(Z, Z1), symbol(Z1), {_q(symbol)}(Z1).",
            )

    # Transition errors via address equality (equal_n).
    if include_transition_errors:
        from .turing import composite_count

        r_m, r_left, r_right = local_relations(machine)
        symbols = machine.cell_symbols()
        for a in symbols:
            for b in symbols:
                for c_sym in symbols:
                    if composite_count(a, b, c_sym) > 1:
                        # Multi-head windows cannot occur; see turing.py.
                        continue
                    for d in symbols:
                        if (a, b, c_sym, d) in r_m:
                            continue
                        add(
                            "transition",
                            "c() :- "
                            f"symbol(Z1), {_q(a)}(Z1), a(Z1, U, V), e(Z1, T1), "
                            f"dexact{D}(T1, Z2), symbol(Z2), {_q(b)}(Z2), a(Z2, U, V), "
                            f"e(Z2, T15), dexact{D}(T15, Z3), symbol(Z3), {_q(c_sym)}(Z3), "
                            "a(Z3, U, V), "
                            f"a(T2, U3, U), dexact{D}(T2, Z4), symbol(Z4), {_q(d)}(Z4), "
                            f"a(Z4, U3, U), equal{D}(T1, Z2, T2, Z4).",
                        )
        for a in symbols:
            for b in symbols:
                if composite_count(a, b) > 1:
                    continue
                for d in symbols:
                    if (a, b, d) not in r_left:
                        add(
                            "transition_left",
                            "c() :- "
                            f"allzeros{D}(T1, Z1), symbol(Z1), {_q(a)}(Z1), a(Z1, U, V), "
                            f"e(Z1, T15), dexact{D}(T15, Z2), symbol(Z2), {_q(b)}(Z2), "
                            "a(Z2, U, V), "
                            f"allzeros{D}(T2, Z4), symbol(Z4), {_q(d)}(Z4), a(Z4, U3, U).",
                        )
                    if (a, b, d) not in r_right:
                        add(
                            "transition_right",
                            "c() :- "
                            f"symbol(Z1), {_q(a)}(Z1), a(Z1, U, V), e(Z1, T1), "
                            f"allones{D}(T1, Z2), symbol(Z2), {_q(b)}(Z2), a(Z2, U, V), "
                            f"allones{D}(T2, Z4), symbol(Z4), {_q(d)}(Z4), a(Z4, U3, U).",
                        )

    nonrecursive = Program(checks)
    families.update({f"check_{k}": v for k, v in check_families.items()})
    return NonrecEncoding(program, nonrecursive, machine, n, families)


# ----------------------------------------------------------------------
# Trace databases: encode a configuration sequence as a database, so
# that Pi and Pi' can be *evaluated* against it (semantic validation).
# ----------------------------------------------------------------------

def trace_database(machine: TuringMachine,
                   configurations: List[Tuple[CellSymbol, ...]],
                   n: int, corrupt_counter_at: int = -1) -> Database:
    """Encode a configuration sequence as a chain database.

    Every cell becomes 2^n address points (labelled zero/one, with
    carry bits of the running increment) followed by a symbol point;
    configuration identity is carried by the ``a(point, u, v)`` facts.
    Setting ``corrupt_counter_at`` to a point index flips that address
    bit, planting exactly one counter error (used to validate that Pi'
    fires on flawed traces and stays silent on legal ones).
    """
    bits = 2 ** n
    expected_cells = 2 ** bits
    for config in configurations:
        if len(config) != expected_cells:
            raise ValueError(
                f"the n={n} encoding addresses configurations of exactly "
                f"{expected_cells} cells; got {len(config)} (run the machine "
                f"with space={expected_cells})"
            )
    db = Database()
    point = 0

    def point_name(index: int) -> str:
        return f"p{index}"

    first = True
    for config_index, config in enumerate(configurations):
        # The paper's convention: a point of configuration k carries
        # (u, v) where v is the *previous* configuration's u -- the
        # transition rules pass the parent's u into the child's v slot.
        u = f"cfg{config_index}"
        v = f"cfg{config_index - 1}"
        for cell_index, cell in enumerate(config):
            address = cell_index
            carry_bits = standard_carries(cell_index, bits)
            for bit_index in range(bits):
                name = point_name(point)
                value = (address >> bit_index) & 1
                if point == corrupt_counter_at:
                    value = 1 - value
                if first:
                    db.add("start", (name,))
                    first = False
                db.add("address", (name,))
                db.add("one" if value else "zero", (name,))
                db.add("carry1" if carry_bits[bit_index] else "carry0", (name,))
                db.add("a", (name, u, v))
                db.add("e", (name, point_name(point + 1)))
                point += 1
            name = point_name(point)
            db.add("symbol", (name,))
            db.add(_q(cell), (name,))
            db.add("a", (name, u, v))
            db.add("e", (name, point_name(point + 1)))
            point += 1
    return db
