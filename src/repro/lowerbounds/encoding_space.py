"""The Section 5.3 lower-bound encoding: exponential-space Turing
machines -> containment of linear programs in unions of conjunctive
queries.

Given a machine M and a parameter n, :func:`encode_deterministic`
builds a linear Datalog program Pi and a union Theta of Boolean
conjunctive queries such that the unfolding expansions of Pi spell out
sequences of 2^n-cell configurations (n address bits per cell, one rule
unfolding per bit) ending in an accepting configuration, and Theta
collects one query per *local error* that disqualifies an expansion
from being a legal accepting computation:

* address-counter errors (the first address is not 0...0; carry and
  sum bits violate binary increment) -- 7 error shapes, as in the
  paper;
* configuration-boundary errors (the configuration changes at an
  address other than 1...1, or fails to change at 1...1);
* initial-configuration errors (the first cell is not ``(s0, blank)``,
  a later cell of the first configuration is not blank);
* transition errors: violations of the local relations R_M, Rl_M, Rr_M
  between corresponding cells of successive configurations.

Then ``Pi contained-in Theta`` iff M does not accept the empty tape in
space 2^n.  Deciding these instances is doubly exponential by design --
the generator is used to *measure* instance growth and to validate the
encoding semantically (expansions decode to configuration sequences;
each error query matches exactly the flawed expansions), not to run
the full decision procedure on real machines.

The alternating variant (2EXPTIME-hardness) is in
:func:`encode_alternating`: Bit/A gain two arguments, universal
configurations spawn both successors through a nonlinear rule, and the
error queries are extended as the paper sketches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..cq.query import ConjunctiveQuery, UnionOfConjunctiveQueries
from ..datalog.atoms import Atom
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..datalog.terms import Variable
from .turing import AlternatingTuringMachine, TuringMachine, local_relations, symbol_name

X, Y, Z, U, V = (Variable(n) for n in "XYZUV")
Z2, U2 = Variable("Z2"), Variable("U2")


def _q(symbol) -> str:
    return f"q_{symbol_name(symbol)}"


@dataclass
class SpaceEncoding:
    """The generated instance and its bookkeeping."""

    program: Program
    union: UnionOfConjunctiveQueries
    machine: TuringMachine
    n: int
    query_families: Dict[str, int] = field(default_factory=dict)

    def sizes(self) -> Dict[str, int]:
        return {
            "n": self.n,
            "program_rules": len(self.program),
            "program_size": self.program.size(),
            "union_disjuncts": len(self.union),
            "union_size": self.union.size(),
        }


class _QueryBuilder:
    """Assembles the Boolean error queries.

    All queries share the convention of the paper: arguments 1-2 of
    every A_i atom are the persistent variables x, y acting as the
    constants 0 and 1; argument 3 is the address bit, argument 4 the
    carry bit, arguments 5-6 chain consecutive positions, arguments 7-8
    identify the configuration.
    """

    def __init__(self, n: int):
        self.n = n
        self._fresh = 0

    def fresh(self, prefix: str = "F") -> Variable:
        self._fresh += 1
        return Variable(f"{prefix}{self._fresh}")

    def a_atom(self, i: int, addr, carry, z_in, z_out, u, v) -> Atom:
        addr = addr if addr is not None else self.fresh("D")
        carry = carry if carry is not None else self.fresh("D")
        return Atom(f"a{i}", (X, Y, addr, carry, z_in, z_out, u, v))

    def chain(self, levels: Sequence[int], z_vars: Sequence[Variable], u, v,
              addr: Optional[Dict[int, Variable]] = None,
              carry: Optional[Dict[int, Variable]] = None) -> List[Atom]:
        """A run of A atoms at the given bit levels, chained through
        *z_vars* (length len(levels)+1), sharing (u, v)."""
        addr = addr or {}
        carry = carry or {}
        atoms = []
        for position, level in enumerate(levels):
            atoms.append(
                self.a_atom(
                    level,
                    addr.get(position),
                    carry.get(position),
                    z_vars[position],
                    z_vars[position + 1],
                    u,
                    v,
                )
            )
        return atoms

    def zs(self, count: int) -> List[Variable]:
        return [self.fresh("Z") for _ in range(count)]

    def boolean(self, atoms: Sequence[Atom]) -> ConjunctiveQuery:
        return ConjunctiveQuery(Atom("c", ()), tuple(atoms))


def _levels_from(start: int, count: int, n: int) -> List[int]:
    """Bit levels cycling 1..n, beginning at *start*."""
    return [(start - 1 + offset) % n + 1 for offset in range(count)]


def encode_deterministic(machine: TuringMachine, n: int,
                         include_transition_errors: bool = True) -> SpaceEncoding:
    """The Section 5.3 instance for a deterministic machine.

    Returns Pi (linear, goal ``c``) and Theta such that Pi is contained
    in Theta iff *machine* does not accept the empty tape in space 2^n.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    symbols = machine.cell_symbols()
    rules: List[Rule] = []

    bit_pairs = [(X, X), (X, Y), (Y, X), (Y, Y)]
    head = lambda i, z=Z: Atom(f"bit{i}", (X, Y, z, U, V))  # noqa: E731

    # Address rules: one unfolding per address bit.
    for i in range(1, n):
        for addr, carry in bit_pairs:
            rules.append(
                Rule(
                    head(i),
                    (
                        Atom(f"bit{i+1}", (X, Y, Z2, U, V)),
                        Atom(f"a{i}", (X, Y, addr, carry, Z, Z2, U, V)),
                    ),
                )
            )

    # Symbol rules: the n-th bit carries the cell's symbol and loops
    # back to bit 1 within the same configuration.
    for symbol in symbols:
        for addr, carry in bit_pairs:
            rules.append(
                Rule(
                    head(n),
                    (
                        Atom("bit1", (X, Y, Z2, U, V)),
                        Atom(f"a{n}", (X, Y, addr, carry, Z, Z2, U, V)),
                        Atom(_q(symbol), (Z,)),
                    ),
                )
            )
            # Configuration-transition rules: u migrates one position.
            rules.append(
                Rule(
                    head(n),
                    (
                        Atom("bit1", (X, Y, Z2, U2, U)),
                        Atom(f"a{n}", (X, Y, addr, carry, Z, Z2, U, V)),
                        Atom(_q(symbol), (Z,)),
                    ),
                )
            )

    # End rules: the computation may stop at an accepting composite.
    for symbol in machine.accepting_cell_symbols():
        for addr, carry in bit_pairs:
            rules.append(
                Rule(
                    head(n),
                    (
                        Atom(f"a{n}", (X, Y, addr, carry, Z, Z2, U, V)),
                        Atom(_q(symbol), (Z,)),
                    ),
                )
            )

    # Start rule.
    rules.append(
        Rule(Atom("c", ()), (Atom("bit1", (X, Y, Z, U, V)), Atom("start", (Z,))))
    )
    program = Program(rules)

    # ------------------------------------------------------------------
    # Error queries.
    # ------------------------------------------------------------------
    builder = _QueryBuilder(n)
    queries: List[ConjunctiveQuery] = []
    families: Dict[str, int] = {}

    def add(family: str, query: ConjunctiveQuery) -> None:
        queries.append(query)
        families[family] = families.get(family, 0) + 1

    # (1) First address not 0...0: some bit of the first address is 1.
    for i in range(1, n + 1):
        zs = builder.zs(i + 1)
        atoms = [Atom("start", (zs[0],))]
        atoms += builder.chain(list(range(1, i + 1)), zs, U, V, addr={i - 1: Y})
        add("first_address_nonzero", builder.boolean(atoms))

    # (2) Carry errors.  alpha_i = address bit i of one address (first
    # block), gamma_i / beta_i = carry / address bit i of the *next*
    # address (second block, n positions later).
    def two_address_query(i: int, span: int, first_addr, second_addr, second_carry,
                          extra_level_bits=()) -> ConjunctiveQuery:
        levels = _levels_from(i, span, n)
        zs = builder.zs(span + 1)
        addr: Dict[int, Variable] = {}
        carry: Dict[int, Variable] = {}
        if first_addr is not None:
            addr[0] = first_addr
        if second_addr is not None:
            addr[n] = second_addr
        if second_carry is not None:
            carry[n] = second_carry
        for position, bit in extra_level_bits:
            carry[position] = bit
        atoms = builder.chain(levels, zs, builder.fresh("U"), builder.fresh("V"),
                              addr=addr, carry=carry)
        return builder.boolean(atoms)

    # gamma_1 = 0 anywhere: the first carry bit must always be 1.
    add("carry", builder.boolean([builder.a_atom(1, None, X, builder.fresh("Z"),
                                                 builder.fresh("Z"),
                                                 builder.fresh("U"), builder.fresh("V"))]))
    for i in range(1, n):
        # alpha_i=1, gamma_i=1, gamma_{i+1}=0
        add("carry", two_address_query(i, n + 2, Y, None, Y, [(n + 1, X)]))
        # alpha_i=0 but gamma_{i+1}=1
        add("carry", two_address_query(i, n + 2, X, None, None, [(n + 1, Y)]))
        # gamma_i=0 but gamma_{i+1}=1
        add("carry", two_address_query(i, n + 2, None, None, X, [(n + 1, Y)]))
    for i in range(1, n + 1):
        # Sum errors: beta_i must be alpha_i XOR gamma_i.
        add("sum", two_address_query(i, n + 1, X, Y, X))   # 0 xor 0 -> 1
        add("sum", two_address_query(i, n + 1, Y, Y, Y))   # 1 xor 1 -> 1
        add("sum", two_address_query(i, n + 1, Y, X, X))   # 1 xor 0 -> 0
        add("sum", two_address_query(i, n + 1, X, X, Y))   # 0 xor 1 -> 0

    # (3) Configuration boundary errors.
    for i in range(1, n + 1):
        # Change although address bit i is 0.
        levels = _levels_from(i, n - i + 1, n)
        zs = builder.zs(len(levels) + 2)
        atoms = builder.chain(levels, zs[:-1], U, V, addr={0: X})
        atoms.append(builder.a_atom(1, None, None, zs[-2], zs[-1], builder.fresh("U"), U))
        add("config_change", builder.boolean(atoms))
    # No change although the address is 1...1.
    zs = builder.zs(n + 2)
    atoms = builder.chain(list(range(1, n + 1)), zs[:-1], U, V,
                          addr={k: Y for k in range(n)})
    atoms.append(builder.a_atom(1, None, None, zs[-2], zs[-1], U, V))
    add("config_change", builder.boolean(atoms))

    # (4) Initial configuration errors.
    initial_symbol = (machine.initial_state, machine.blank)
    for symbol in symbols:
        if symbol != initial_symbol:
            zs = builder.zs(n + 1)
            atoms = [Atom("start", (zs[0],))]
            atoms += builder.chain(list(range(1, n + 1)), zs, U, V)
            atoms.append(Atom(_q(symbol), (zs[n - 1],)))
            add("initial_first_cell", builder.boolean(atoms))
        if symbol != machine.blank:
            for i in range(1, n + 1):
                z0 = builder.fresh("Z")
                atoms = [Atom("start", (z0,)),
                         builder.a_atom(1, None, None, z0, builder.fresh("Z"), U, V)]
                levels = _levels_from(i, n - i + 1, n)
                zs = builder.zs(len(levels) + 1)
                atoms += builder.chain(levels, zs, U, V, addr={0: Y})
                atoms.append(Atom(_q(symbol), (zs[-2],)))
                add("initial_rest_blank", builder.boolean(atoms))

    # (5) Transition errors: violations of R_M / Rl_M / Rr_M between
    # corresponding cells of successive configurations.
    if include_transition_errors:
        r_m, r_left, r_right = local_relations(machine)

        def cell_block(z_start: Variable, addr_vars, u, v, symbol) -> Tuple[List[Atom], Variable]:
            zs = [z_start] + builder.zs(n)
            addr = {k: addr_vars[k] for k in range(n)} if addr_vars else {}
            atoms = builder.chain(list(range(1, n + 1)), zs, u, v, addr=addr)
            atoms.append(Atom(_q(symbol), (zs[n - 1],)))
            return atoms, zs[-1]

        from .turing import composite_count

        for a in symbols:
            for b in symbols:
                for c_sym in symbols:
                    if composite_count(a, b, c_sym) > 1:
                        # Multi-head windows cannot occur (single-head
                        # invariant); skipping keeps the query count small.
                        continue
                    for d in symbols:
                        if (a, b, c_sym, d) in r_m:
                            continue
                        shared = [builder.fresh("S") for _ in range(n)]
                        u, v, u_next = (builder.fresh(p) for p in ("U", "V", "U"))
                        z0 = builder.fresh("Z")
                        block1, z1 = cell_block(z0, None, u, v, a)
                        block2, z2_ = cell_block(z1, shared, u, v, b)
                        block3, _ = cell_block(z2_, None, u, v, c_sym)
                        block4, _ = cell_block(builder.fresh("Z"), shared, u_next, u, d)
                        add("transition", builder.boolean(block1 + block2 + block3 + block4))

        for a, b, d in (
            tuple((a, b, d) for a in symbols for b in symbols for d in symbols)
        ):
            if composite_count(a, b) > 1:
                continue
            if (a, b, d) not in r_left:
                zeros = [X] * n
                u, v, u_next = (builder.fresh(p) for p in ("U", "V", "U"))
                block1, z1 = cell_block(builder.fresh("Z"), zeros, u, v, a)
                block2, _ = cell_block(z1, None, u, v, b)
                block4, _ = cell_block(builder.fresh("Z"), zeros, u_next, u, d)
                add("transition_left", builder.boolean(block1 + block2 + block4))
            if (a, b, d) not in r_right:
                ones = [Y] * n
                u, v, u_next = (builder.fresh(p) for p in ("U", "V", "U"))
                block1, z1 = cell_block(builder.fresh("Z"), None, u, v, a)
                block2, _ = cell_block(z1, ones, u, v, b)
                block4, _ = cell_block(builder.fresh("Z"), ones, u_next, u, d)
                add("transition_right", builder.boolean(block1 + block2 + block4))

    union = UnionOfConjunctiveQueries(queries, arity=0)
    return SpaceEncoding(program, union, machine, n, families)


# ----------------------------------------------------------------------
# Decoding expansions back into configuration traces (for validation).
# ----------------------------------------------------------------------

@dataclass
class DecodedStep:
    """One rule unfolding of the encoding's spine: a single bit."""

    level: int
    address_bit: Optional[int]
    carry_bit: Optional[int]
    symbol: Optional[str]
    config_break: bool


def decode_expansion(tree, n: int) -> List[DecodedStep]:
    """Decode an unfolding expansion tree of the deterministic encoding
    into its bit trace (root of the tree must be the goal ``c``)."""
    steps: List[DecodedStep] = []
    node = tree
    # Skip the start rule (goal c).
    if node.atom.predicate == "c":
        node = node.children[0] if node.children else None
    while node is not None:
        rule = node.rule
        level = int(node.atom.predicate.removeprefix("bit"))
        x_var, y_var = rule.head.args[0], rule.head.args[1]
        a_atom = next(a for a in rule.body if a.predicate.startswith("a"))
        addr = {x_var: 0, y_var: 1}.get(a_atom.args[2])
        carry = {x_var: 0, y_var: 1}.get(a_atom.args[3])
        symbol = None
        for atom in rule.body:
            if atom.predicate.startswith("q_"):
                symbol = atom.predicate.removeprefix("q_")
        config_break = False
        for atom in rule.body:
            if atom.predicate.startswith("bit") and len(atom.args) == 5:
                # Transition rules pass u into the child's 5th slot.
                config_break = atom.args[4] == rule.head.args[3]
        steps.append(DecodedStep(level, addr, carry, symbol, config_break))
        node = node.children[0] if node.children else None
    return steps


@dataclass
class AlternatingEncoding:
    """The alternating (2EXPTIME) variant of the Section 5.3 instance."""

    program: Program
    union: UnionOfConjunctiveQueries
    machine: AlternatingTuringMachine
    n: int
    query_families: Dict[str, int] = field(default_factory=dict)

    def sizes(self) -> Dict[str, int]:
        return {
            "n": self.n,
            "program_rules": len(self.program),
            "program_size": self.program.size(),
            "union_disjuncts": len(self.union),
            "union_size": self.union.size(),
        }


def encode_alternating(machine: AlternatingTuringMachine, n: int) -> AlternatingEncoding:
    """The alternating-machine extension sketched at the end of
    Section 5.3 (the 2EXPTIME lower bound).

    Bit_i and A_i gain two arguments (w, t): the configuration pair
    (u, v) becomes a triple (u, v, w) because a universal configuration
    has two successors, and t in {x, y} marks the configuration as
    existential or universal.  Universal configurations spawn both
    successors through a *nonlinear* rule (two Bit_1 subgoals).  The
    paper sketches the revised error queries; we generate the two
    families it illustrates (universal configurations mistagged as
    existential, and left-successor transition errors) alongside the
    counter machinery shared with the deterministic encoding.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    W, T = Variable("W"), Variable("T")
    W2, U3 = Variable("W2"), Variable("U3")
    symbols = machine._branch("left").cell_symbols()
    universal_composites = {
        (state, tape)
        for state in machine.universal_states
        for tape in sorted(machine.tape_symbols)
    }
    bit_pairs = [(X, X), (X, Y), (Y, X), (Y, Y)]
    rules: List[Rule] = []

    def bit(i, z=Z, u=U, v=V, w=W, t=T):
        return Atom(f"bit{i}", (X, Y, z, u, v, w, t))

    def a_atom(i, addr, carry, z=Z, z2=Z2, u=U, v=V, w=W, t=T):
        return Atom(f"a{i}", (X, Y, addr, carry, z, z2, u, v, w, t))

    # Address rules (t and the triple pass through unchanged).
    for i in range(1, n):
        for addr, carry in bit_pairs:
            rules.append(
                Rule(bit(i), (bit(i + 1, z=Z2), a_atom(i, addr, carry)))
            )

    for symbol in symbols:
        is_universal = symbol in universal_composites
        tag = Y if is_universal else X
        for addr, carry in bit_pairs:
            # Same-configuration symbol rules.
            rules.append(
                Rule(
                    bit(n, t=tag),
                    (bit(1, z=Z2, t=tag), a_atom(n, addr, carry, t=tag),
                     Atom(_q(symbol), (Z,))),
                )
            )
            if not is_universal:
                # Existential: u migrates into the fifth OR the sixth
                # slot (left or right successor).
                rules.append(
                    Rule(
                        bit(n, t=X),
                        (Atom(f"bit{1}", (X, Y, Z2, U2, U, W2, Y)),
                         a_atom(n, addr, carry, t=X), Atom(_q(symbol), (Z,))),
                    )
                )
                rules.append(
                    Rule(
                        bit(n, t=X),
                        (Atom(f"bit{1}", (X, Y, Z2, U2, V, U, Y)),
                         a_atom(n, addr, carry, t=X), Atom(_q(symbol), (Z,))),
                    )
                )
            else:
                # Universal: both successors, via the nonlinear rule.
                rules.append(
                    Rule(
                        bit(n, t=Y),
                        (
                            Atom(f"bit{1}", (X, Y, Z2, U2, U, W2, X)),
                            Atom(f"bit{1}", (X, Y, Z2, U3, V, U, X)),
                            a_atom(n, addr, carry, t=Y),
                            Atom(_q(symbol), (Z,)),
                        ),
                    )
                )

    # End rules at accepting composites.
    for symbol in machine._branch("left").accepting_cell_symbols():
        if symbol[0] not in machine.accepting_states:
            continue
        for addr, carry in bit_pairs:
            rules.append(
                Rule(bit(n), (a_atom(n, addr, carry), Atom(_q(symbol), (Z,))))
            )

    # Start rule: the initial configuration is existential.
    rules.append(
        Rule(
            Atom("c", ()),
            (Atom("bit1", (X, Y, Z, U, V, W, X)), Atom("start", (Z,))),
        )
    )
    program = Program(rules)

    # Error queries: the counter families carry over with two extra
    # don't-care arguments; we add the two alternation-specific
    # families the paper spells out.
    builder = _QueryBuilder(n)
    queries: List[ConjunctiveQuery] = []
    families: Dict[str, int] = {}

    def add(family: str, query: ConjunctiveQuery) -> None:
        queries.append(query)
        families[family] = families.get(family, 0) + 1

    def alt_a_atom(i, addr, carry, z_in, z_out, u, v, w, t):
        addr = addr if addr is not None else builder.fresh("D")
        carry = carry if carry is not None else builder.fresh("D")
        return Atom(f"a{i}", (X, Y, addr, carry, z_in, z_out, u, v, w, t))

    # (1) First address not zero.
    for i in range(1, n + 1):
        zs = builder.zs(i + 1)
        u, v, w, t = (builder.fresh(p) for p in "UVWT")
        atoms = [Atom("start", (zs[0],))]
        atoms += [
            alt_a_atom(j, Y if j == i else None, None, zs[j - 1], zs[j], u, v, w, t)
            for j in range(1, i + 1)
        ]
        add("first_address_nonzero", builder.boolean(atoms))

    # (2) Universal configurations mistagged as existential (the
    # query family the paper shows).
    for symbol in universal_composites:
        zs = builder.zs(2)
        u, v, w = (builder.fresh(p) for p in "UVW")
        atoms = [
            alt_a_atom(n, None, None, zs[0], zs[1], u, v, w, X),
            Atom(_q(symbol), (zs[0],)),
        ]
        add("universal_mistagged", builder.boolean(atoms))
    # ... and existential composites tagged universal.
    for symbol in symbols:
        if symbol in universal_composites:
            continue
        if not (isinstance(symbol, tuple)):
            continue
        zs = builder.zs(2)
        u, v, w = (builder.fresh(p) for p in "UVW")
        atoms = [
            alt_a_atom(n, None, None, zs[0], zs[1], u, v, w, Y),
            Atom(_q(symbol), (zs[0],)),
        ]
        add("existential_mistagged", builder.boolean(atoms))

    # (3) Left-successor transition errors (the illustrated family):
    # u migrates one position to the right.
    from .turing import composite_count

    r_m, _, _ = local_relations(machine._branch("left"))
    for a in symbols:
        for b in symbols:
            for c_sym in symbols:
                if composite_count(a, b, c_sym) > 1:
                    continue
                for d in symbols:
                    if (a, b, c_sym, d) in r_m:
                        continue
                    shared = [builder.fresh("S") for _ in range(n)]
                    u, v, w, t = (builder.fresh(p) for p in "UVWT")
                    u2, w2, t2 = (builder.fresh(p) for p in ("U", "W", "T"))
                    z0 = builder.fresh("Z")

                    def block(z_start, addr_vars, uu, vv, ww, tt, sym):
                        zs = [z_start] + builder.zs(n)
                        atoms = []
                        for j in range(1, n + 1):
                            addr = addr_vars[j - 1] if addr_vars else None
                            atoms.append(
                                alt_a_atom(j, addr, None, zs[j - 1], zs[j],
                                           uu, vv, ww, tt)
                            )
                        atoms.append(Atom(_q(sym), (zs[n - 1],)))
                        return atoms, zs[-1]

                    block1, z1 = block(z0, None, u, v, w, t, a)
                    block2, z2_ = block(z1, shared, u, v, w, t, b)
                    block3, _ = block(z2_, None, u, v, w, t, c_sym)
                    block4, _ = block(builder.fresh("Z"), shared, u2, u, w2, t2, d)
                    add("transition_left_successor",
                        builder.boolean(block1 + block2 + block3 + block4))

    union = UnionOfConjunctiveQueries(queries, arity=0)
    return AlternatingEncoding(program, union, machine, n, families)


def synthesize_trace_query(n: int, cells: List[dict]):
    """The expansion query of the unfolding that spells out *cells*.

    Each cell is a dict with ``address`` (int), ``carries`` (list of n
    bits), ``symbol`` (cell symbol), and optional ``config_break``
    (True when the configuration changes right after this cell).  The
    atoms produced are exactly those of the corresponding unfolding
    expansion of :func:`encode_deterministic`'s program, so error
    queries can be homomorphism-tested against it without searching the
    (enormous) expansion space.
    """
    from ..cq.query import ConjunctiveQuery

    x, y = Variable("GX"), Variable("GY")
    atoms: List[Atom] = []
    z_vars = [Variable(f"GZ{k}") for k in range(len(cells) * n + 1)]
    atoms.append(Atom("start", (z_vars[0],)))
    config = 0
    u_vars = [Variable("GU0"), Variable("GU1")]

    def config_pair(index: int):
        while len(u_vars) <= index + 1:
            u_vars.append(Variable(f"GU{len(u_vars)}"))
        # Configuration c carries (u_c, u_{c-1})-style linkage: we give
        # config c the pair (u_{c+1}, u_c).
        return u_vars[index + 1], u_vars[index]

    k = 0
    for cell in cells:
        u, v = config_pair(config)
        address = cell["address"]
        carries = cell["carries"]
        for i in range(1, n + 1):
            addr_bit = (address >> (i - 1)) & 1
            carry_bit = carries[i - 1]
            atoms.append(
                Atom(
                    f"a{i}",
                    (
                        x, y,
                        y if addr_bit else x,
                        y if carry_bit else x,
                        z_vars[k], z_vars[k + 1],
                        u, v,
                    ),
                )
            )
            k += 1
        atoms.append(Atom(_q(cell["symbol"]), (z_vars[k - 1],)))
        if cell.get("config_break"):
            config += 1
    return ConjunctiveQuery(Atom("c", ()), tuple(atoms))


def standard_carries(address: int, n: int) -> List[int]:
    """Carry bits stored with *address* (produced when the previous
    address was incremented, wrapping modulo 2^n)."""
    previous = (address - 1) % (2 ** n)
    carries = []
    carry = 1
    for i in range(n):
        carries.append(carry)
        carry = 1 if (((previous >> i) & 1) and carry) else 0
    return carries
