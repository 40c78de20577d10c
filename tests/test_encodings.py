"""Tests for the Section 5.3 and Section 6 lower-bound generators.

The instances themselves are (by design) infeasible to *decide*, so
validation is semantic and structural: sizes grow polynomially in n,
the generated programs have the claimed shape (linear / nonrecursive),
expansions decode to bit traces, error queries match exactly the
flawed expansions, and the Section 6 nonrecursive checker fires on
exactly the corrupted traces.
"""

import pytest

from repro.core.boundedness import search_boundedness
from repro.core.certificate import witness_refutes
from repro.core.containment import contained_in_ucq
from repro.cq.homomorphism import find_homomorphism
from repro.datalog.analysis import is_linear, is_nonrecursive, is_recursive
from repro.datalog.engine import Engine, EngineConfig, evaluate
from repro.datalog.unfold import expansion_union
from repro.core.word_path import is_chain_program
from repro.lowerbounds.encoding_nonrec import encode_nonrecursive, trace_database
from repro.lowerbounds.encoding_space import (
    decode_expansion,
    encode_deterministic,
)
from repro.lowerbounds.turing import sweeping_machine, tiny_accepting_machine
from repro.trees.expansion import unfolding_trees


@pytest.fixture(scope="module")
def machine():
    return sweeping_machine()


@pytest.fixture(scope="module")
def enc(machine):
    return encode_deterministic(machine, 2)


class TestSpaceEncodingStructure:
    def test_program_is_linear_chain(self, enc):
        assert is_recursive(enc.program)
        assert is_linear(enc.program)
        assert is_chain_program(enc.program)

    def test_goal_is_boolean(self, enc):
        assert enc.program.arity["c"] == 0
        assert enc.union.arity == 0

    def test_all_error_families_present(self, enc):
        expected = {
            "first_address_nonzero",
            "carry",
            "sum",
            "config_change",
            "initial_first_cell",
            "initial_rest_blank",
            "transition",
            "transition_left",
            "transition_right",
        }
        assert expected <= set(enc.query_families)

    def test_program_growth_is_linear_in_n(self, machine):
        sizes = [encode_deterministic(machine, n,
                                      include_transition_errors=False).sizes()
                 for n in (1, 2, 3, 4)]
        rules = [s["program_rules"] for s in sizes]
        deltas = [b - a for a, b in zip(rules, rules[1:])]
        assert len(set(deltas)) == 1  # exactly 4 new address rules per n

    def test_query_count_linear_in_n_without_transitions(self, machine):
        sizes = [encode_deterministic(machine, n,
                                      include_transition_errors=False).sizes()
                 for n in (2, 3, 4)]
        counts = [s["union_disjuncts"] for s in sizes]
        assert counts[0] < counts[1] < counts[2]
        # Quadratic at most (each family is O(n) queries of O(n) size).
        assert counts[2] - counts[1] <= (counts[1] - counts[0]) + 25

    def test_queries_are_edb_only(self, enc):
        idb = enc.program.idb_predicates
        for query in list(enc.union)[:50]:
            assert all(a.predicate not in idb for a in query.body)


class TestSpaceEncodingSemantics:
    def test_expansions_decode(self, enc):
        count = 0
        for tree in unfolding_trees(enc.program, "c", 6):
            steps = decode_expansion(tree, 2)
            levels = [s.level for s in steps]
            # Levels cycle 1, 2, 1, 2, ... (n = 2).
            assert levels == [(i % 2) + 1 for i in range(len(steps))]
            count += 1
            if count >= 25:
                break
        assert count > 0

    def test_correct_counter_not_flagged(self, enc, machine):
        """An expansion whose addresses count 0,1,2,3 with correct
        carries must escape all counter/sum error queries."""
        from repro.lowerbounds.encoding_space import (
            standard_carries,
            synthesize_trace_query,
        )

        blank = machine.blank
        cells = [
            {"address": a, "carries": standard_carries(a, 2), "symbol": blank}
            for a in range(4)
        ]
        cells[0]["symbol"] = (machine.initial_state, blank)
        query_atoms = synthesize_trace_query(2, cells).body
        flagged = [
            q for q in enc.union
            if _is_counter_query(q)
            and find_homomorphism(q.body, query_atoms) is not None
        ]
        assert flagged == []

    def test_wrong_counter_flagged(self, enc, machine):
        """A trace whose second address repeats 0 must be caught."""
        from repro.lowerbounds.encoding_space import (
            standard_carries,
            synthesize_trace_query,
        )

        blank = machine.blank
        cells = [
            {"address": 0, "carries": standard_carries(0, 2), "symbol": blank},
            {"address": 0, "carries": standard_carries(0, 2), "symbol": blank},
        ]
        query_atoms = synthesize_trace_query(2, cells).body
        assert any(
            find_homomorphism(q.body, query_atoms) is not None
            for q in enc.union
            if _is_counter_query(q)
        )

    def test_bad_carry_flagged(self, enc, machine):
        from repro.lowerbounds.encoding_space import synthesize_trace_query

        blank = machine.blank
        # First carry bit 0: always an error.
        cells = [{"address": 0, "carries": [0, 0], "symbol": blank}]
        query_atoms = synthesize_trace_query(2, cells).body
        assert any(
            find_homomorphism(q.body, query_atoms) is not None
            for q in enc.union
            if _is_counter_query(q)
        )

    def test_wrong_first_address_flagged(self, enc, machine):
        from repro.lowerbounds.encoding_space import (
            standard_carries,
            synthesize_trace_query,
        )

        blank = machine.blank
        cells = [
            {"address": 2, "carries": standard_carries(2, 2), "symbol": blank}
        ]
        query_atoms = synthesize_trace_query(2, cells).body
        assert any(
            find_homomorphism(q.body, query_atoms) is not None
            for q in enc.union
            if _is_counter_query(q)
        )


def _is_counter_query(query) -> bool:
    predicates = {a.predicate for a in query.body}
    # Counter/sum queries never mention symbol predicates.
    return not any(p.startswith("q_") for p in predicates)


class TestNonrecEncoding:
    @pytest.fixture(scope="class")
    def enc6(self, machine):
        return encode_nonrecursive(machine, 1)

    @pytest.fixture(scope="class")
    def legal_trace(self, machine):
        return machine.run_configurations(4)  # 4 cells = 2^(2^1)

    def test_shapes(self, enc6):
        assert is_recursive(enc6.program) and is_linear(enc6.program)
        assert is_nonrecursive(enc6.nonrecursive)

    def test_sizes_polynomial(self, machine):
        sizes = [
            encode_nonrecursive(machine, n, include_transition_errors=False).sizes()
            for n in (1, 2, 3, 4)
        ]
        rules = [s["nonrecursive_rules"] for s in sizes]
        deltas = [b - a for a, b in zip(rules, rules[1:])]
        assert len(set(deltas)) == 1  # six subprogram rules per level

    def test_legal_trace_not_flagged(self, enc6, machine, legal_trace):
        db = trace_database(machine, legal_trace, 1)
        assert not evaluate(enc6.nonrecursive, db).facts("c")

    def test_legal_trace_accepted_by_pi(self, enc6, machine, legal_trace):
        db = trace_database(machine, legal_trace, 1)
        assert evaluate(enc6.program, db).facts("c")

    def test_truncated_trace_rejected_by_pi(self, enc6, machine, legal_trace):
        db = trace_database(machine, legal_trace[:-1], 1)
        assert not evaluate(enc6.program, db).facts("c")

    # Valid corruption targets are address points; with n=1 every third
    # point (2, 5, 8, ...) is a symbol point the flip would miss.
    @pytest.mark.parametrize("corrupt_at", [0, 1, 3, 4])
    def test_corrupted_counter_flagged(self, enc6, machine, legal_trace, corrupt_at):
        db = trace_database(machine, legal_trace, 1, corrupt_counter_at=corrupt_at)
        assert evaluate(enc6.nonrecursive, db).facts("c")

    def test_transition_violation_flagged(self, enc6, machine, legal_trace):
        corrupted = list(legal_trace)
        config = list(corrupted[1])
        config[3] = "1"  # plant a symbol the machine never writes there
        corrupted[1] = tuple(config)
        db = trace_database(machine, corrupted, 1)
        assert evaluate(enc6.nonrecursive, db).facts("c")

    def test_wrong_size_trace_rejected(self, machine, legal_trace):
        with pytest.raises(ValueError):
            trace_database(machine, [legal_trace[0][:2]], 1)


# ----------------------------------------------------------------------
# Verdicts, not just shapes: the decision procedures run on the
# encoded machines at the sizes where they terminate.  (The full
# EXPSPACE containment questions are
# infeasible by construction -- those live in the budgeted tag:stress
# tier, repro.workloads.stress -- but the decidable edges give real
# verdicts here.)
# ----------------------------------------------------------------------

class TestEncodingVerdicts:
    @pytest.fixture(scope="class")
    def tiny_enc(self):
        return encode_deterministic(tiny_accepting_machine(), 1)

    def test_space_encoding_is_unbounded(self, machine):
        # The Section 5.3 chain program threads the counter through an
        # unbounded recursion: no boundedness certificate exists at any
        # depth, so the semi-decision must come back empty-handed.
        enc = encode_deterministic(machine, 1)
        result = search_boundedness(enc.program, "c", max_depth=1)
        assert result.bounded is None and result.depth is None

    def test_space_encoding_not_contained_in_truncation(self, tiny_enc):
        # Deeper expansions of the chain program exist (one per counter
        # step), so Pi is not contained in its own depth-1 expansion
        # union: the search must find the counterexample expansion, and
        # its counterexample database must refute the containment.
        # This is the largest containment question on the encodings
        # that still answers (seconds-scale; the Theta direction of
        # Theorem 5.13 is the budgeted stress tier).
        union = expansion_union(tiny_enc.program, "c", 1)
        result = contained_in_ucq(tiny_enc.program, "c", union)
        assert result.contained is False
        assert witness_refutes(tiny_enc.program, "c", union, result)

    @pytest.mark.parametrize("corrupt_at", [-1, 0])
    def test_trace_verdict_matches_oracle_on_all_engines(self, corrupt_at):
        # The Section 6 checker Pi' is itself an evaluation workload:
        # a legal trace derives no error fact, a corrupted counter
        # derives exactly c() -- on every engine backend.
        m = sweeping_machine()
        enc6 = encode_nonrecursive(m, 1, include_transition_errors=False)
        configs = m.run_configurations(4)[:2]
        db = trace_database(m, configs, 1, corrupt_counter_at=corrupt_at)
        expected = 0 if corrupt_at < 0 else 1
        for config in (EngineConfig(), EngineConfig(compiled=False)):
            rows = Engine(config).query(enc6.nonrecursive, db, "c")
            assert len(rows) == expected, config
