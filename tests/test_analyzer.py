"""The static analyzer (``repro.analysis``): diagnostics, class
certificates, plan lints, and their end-to-end wiring.

Covers the full diagnostic code table (E/W/H), both H001 sufficient
conditions and their boundary cases, the ``EngineConfig(validate=True)``
gate, ``Session.analyze`` / the certificate fast paths, and the
``python -m repro analyze`` CLI.
"""

import json

import pytest

from repro import __main__ as cli
from repro.analysis import (
    CODES,
    SEVERITIES,
    AnalysisReport,
    Diagnostic,
    analyze_program,
    analyze_source,
    boundedness_certificate,
    class_certificates,
    diagnostic,
    plan_diagnostics,
    safety_errors,
)
from repro.datalog import (
    Database,
    Engine,
    EngineConfig,
    UnsafeProgramError,
    parse_program,
)
from repro.programs import transitive_closure
from repro.programs.library import buys_bounded
from repro.session import Session

BUYS = buys_bounded()
TC = transitive_closure()

UNSAFE = "p(X, Y) :- e(X)."
CLEAN = "p(X, Y) :- e(X, Y). q(X) :- p(X, X)."


# ----------------------------------------------------------------------
# The diagnostic vocabulary.
# ----------------------------------------------------------------------

class TestDiagnostics:
    def test_code_table_is_complete_and_typed(self):
        assert set(SEVERITIES) == {"error", "warning", "hint"}
        for code, (name, severity, hint) in CODES.items():
            assert code[0] in "EWH" and code[1:].isdigit()
            assert severity in SEVERITIES
            assert name and hint
        # Severity letter matches the code prefix.
        for code, (_, severity, _) in CODES.items():
            assert severity == {"E": "error", "W": "warning",
                                "H": "hint"}[code[0]]

    def test_factory_rejects_unknown_codes(self):
        with pytest.raises(KeyError):
            diagnostic("E999", "nope")

    def test_diagnostic_render_and_dict(self):
        diag = diagnostic("E001", "head variable(s) Y not bound",
                          predicate="p", rule="p(X, Y) :- e(X).",
                          rule_index=0)
        assert diag.code == "E001" and diag.severity == "error"
        rendered = diag.render()
        assert "E001" in rendered and "unsafe-rule" in rendered
        record = diag.as_dict()
        assert record["rule_index"] == 0 and record["predicate"] == "p"
        # Optional keys are omitted when unset.
        bare = diagnostic("W005", "cross product").as_dict()
        assert "predicate" not in bare and "rule" not in bare

    def test_report_orders_by_severity(self):
        report = analyze_program(parse_program(
            "p(X, Y) :- e(X)."
            "p(X, Y) :- e(X)."
            "q(A, B) :- e(A), f(B)."), goal="q")
        severities = [d.severity for d in report.diagnostics]
        assert severities == sorted(
            severities, key=("error", "warning", "hint").index)
        assert not report.ok and report.errors and report.warnings


# ----------------------------------------------------------------------
# Layer 1: safety and well-formedness.
# ----------------------------------------------------------------------

class TestSafetyChecks:
    def test_unsafe_rule_flagged(self):
        report = analyze_source(UNSAFE, goal="p")
        assert report.codes() == ("E001",)
        (diag,) = report.errors
        assert "Y" in diag.message and diag.rule_index == 0

    def test_bodiless_variable_head_is_unsafe(self):
        assert [d.code for d in safety_errors(parse_program("p(X, X)."))] \
            == ["E001"]

    def test_ground_fact_rule_is_safe(self):
        assert not safety_errors(parse_program("p(a, b)."))

    def test_clean_program_has_no_errors(self):
        report = analyze_source(CLEAN, goal="q")
        assert report.ok and not report.errors

    def test_undefined_goal_e002(self):
        body_only = analyze_source(CLEAN, goal="e")
        assert "E002" in body_only.codes()
        assert "bodies" in body_only.errors[0].message
        missing = analyze_source(CLEAN, goal="zzz")
        assert "E002" in missing.codes()
        assert "at all" in missing.errors[0].message

    def test_arity_mismatch_e003(self):
        report = analyze_source("p(X) :- e(X, X). p(X, Y) :- e(X, Y).")
        assert report.codes() == ("E003",)

    def test_parse_error_e004(self):
        report = analyze_source("p(X :- q(X).")
        assert report.codes() == ("E004",)
        assert not report.ok

    def test_duplicate_rule_w001(self):
        report = analyze_source("p(X) :- e(X, X). p(X) :- e(X, X).",
                                goal="p")
        assert "W001" in report.codes()

    def test_unreachable_rule_w003(self):
        report = analyze_source(
            "p(X) :- e(X, X). orphan(X) :- e(X, X).", goal="p")
        assert "W003" in report.codes()
        (warning,) = [d for d in report.warnings if d.code == "W003"]
        assert warning.predicate == "orphan"


# ----------------------------------------------------------------------
# Layer 2: class certificates and H001.
# ----------------------------------------------------------------------

class TestCertificates:
    def test_nonrecursive_classes(self):
        classes, hints = class_certificates(parse_program(CLEAN))
        assert "nonrecursive" in classes and "linear" in classes
        assert {h.code for h in hints} >= {"H002", "H003"}

    def test_buys_is_linear_sirup_chain(self):
        report = analyze_program(BUYS, goal="buys")
        assert {"linear", "sirup", "chain"} <= set(report.classes)

    def test_h001_nonrecursive_slice_depth(self):
        cert = boundedness_certificate(
            parse_program("p(X) :- q(X), e(X, X). q(X) :- e(X, X)."), "p")
        assert cert["reason"] == "nonrecursive-slice"
        assert cert["depth_bound"] == 2

    def test_h001_guarded_self_recursion(self):
        cert = boundedness_certificate(BUYS, "buys")
        assert cert == {"code": "H001",
                        "reason": "guarded-self-recursion",
                        "depth_bound": 2, "goal": "buys"}

    def test_transitive_closure_gets_no_certificate(self):
        assert boundedness_certificate(TC, "p") is None

    def test_no_certificate_without_base_rule(self):
        program = parse_program("p(X, Y) :- t(X), p(Z, Y).")
        assert boundedness_certificate(program, "p") is None

    def test_no_certificate_when_passthrough_arg_reused(self):
        # Z occurs twice, so depth-2 truncation is not obviously
        # complete; the analyzer must stay silent.
        program = parse_program(
            "p(X, Y) :- e(X, Y). p(X, Y) :- t(X, Z), p(Z, Y).")
        assert boundedness_certificate(program, "p") is None

    def test_no_certificate_for_unsafe_slice(self):
        assert boundedness_certificate(parse_program("p(X, Y)."),
                                       "p") is None

    def test_certificate_agrees_with_search(self):
        session = Session()
        cert = boundedness_certificate(BUYS, "buys")
        decision = session.bounded(BUYS, "buys",
                                   max_depth=cert["depth_bound"])
        assert decision.verdict["bounded"] is True
        assert decision.verdict["depth"] <= cert["depth_bound"]

    def test_reachable_slice_recorded(self):
        report = analyze_program(BUYS, goal="buys")
        assert set(report.certificates["reachable"]) \
            == {"buys", "likes", "trendy"}


# ----------------------------------------------------------------------
# Layer 3: plan lints.
# ----------------------------------------------------------------------

class TestPlanLints:
    def test_cross_product_w005(self):
        diags = plan_diagnostics(parse_program("q(A, B) :- e(A), f(B)."))
        assert "W005" in {d.code for d in diags}

    def test_bound_join_not_flagged(self):
        diags = plan_diagnostics(parse_program(
            "p(X, Y) :- e(X, Z), e(Z, Y)."))
        assert "W005" not in {d.code for d in diags}

    def test_unindexed_probe_w004(self):
        diags = plan_diagnostics(parse_program("p(X) :- e(X, X)."))
        assert "W004" in {d.code for d in diags}

    def test_dead_register_w002(self):
        diags = plan_diagnostics(parse_program(
            "p(X) :- e(X, Dead), f(X)."))
        codes = {d.code for d in diags}
        assert "W002" in codes

    def test_buys_plan_lints_present_in_report(self):
        report = analyze_program(BUYS, goal="buys")
        assert {"W002", "W005"} <= set(report.codes())


# ----------------------------------------------------------------------
# End-to-end wiring: engine gate, Session, CLI.
# ----------------------------------------------------------------------

class TestValidateGate:
    def test_gate_rejects_unsafe_program(self):
        db = Database.from_facts([("e", ("a",))])
        engine = Engine(EngineConfig(validate=True))
        with pytest.raises(UnsafeProgramError) as excinfo:
            engine.evaluate(parse_program(UNSAFE), db)
        assert excinfo.value.diagnostics[0]["code"] == "E001"

    def test_gate_off_by_default_active_domain(self):
        db = Database.from_facts([("e", ("a",))])
        result = Engine(EngineConfig()).evaluate(parse_program(UNSAFE), db)
        assert result.facts("p")  # active-domain instantiation

    def test_session_turns_gate_into_error_decision(self):
        session = Session(engine=EngineConfig(validate=True))
        db = Database.from_facts([("e", ("a",))])
        decision = session.evaluate(parse_program(UNSAFE), db)
        assert decision.error == "invalid-program"
        assert not decision.ok and not bool(decision)
        assert decision.meta["diagnostics"][0]["code"] == "E001"

    def test_session_query_short_circuits_on_gate(self):
        session = Session(engine=EngineConfig(validate=True))
        db = Database.from_facts([("e", ("a",))])
        decision = session.query(parse_program(UNSAFE), db, "p")
        assert decision.error == "invalid-program"
        assert decision.raw is None


class TestSessionAnalysis:
    def test_analyze_program_and_source(self):
        session = Session()
        assert session.analyze(BUYS, goal="buys").ok
        report = session.analyze(UNSAFE, goal="p")
        assert report.codes() == ("E001",)


class TestAnalyzeCLI:
    def _write(self, tmp_path, source):
        path = tmp_path / "prog.dl"
        path.write_text(source)
        return str(path)

    def test_unsafe_program_exits_1(self, tmp_path, capsys):
        code = cli.main(["analyze", "--program",
                         self._write(tmp_path, UNSAFE), "--goal", "p"])
        assert code == 1
        out = capsys.readouterr().out
        assert "E001" in out

    def test_clean_program_json(self, tmp_path, capsys):
        code = cli.main(["analyze", "--program",
                         self._write(tmp_path, CLEAN), "--goal", "q",
                         "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert "nonrecursive" in payload["classes"]
        assert payload["certificates"]["bounded"]["code"] == "H001"

    def test_scenario_analysis(self, capsys):
        assert cli.main(["analyze", "--scenario", "bounded_buys"]) == 0
        assert "H001" in capsys.readouterr().out

    def test_all_scenarios_sweep_is_clean(self, capsys):
        assert cli.main(["analyze", "--all-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "0 with error diagnostics" in out

    def test_requires_a_target(self, capsys):
        assert cli.main(["analyze"]) == 2


# ----------------------------------------------------------------------
# Report serialization invariants.
# ----------------------------------------------------------------------

def test_report_as_dict_roundtrips_to_json():
    report = analyze_program(BUYS, goal="buys")
    payload = json.loads(json.dumps(report.as_dict()))
    assert payload["goal"] == "buys"
    assert tuple(d["code"] for d in payload["diagnostics"]) \
        == report.codes()


def test_report_render_mentions_counts():
    report = analyze_source(UNSAFE, goal="p")
    assert "1 error" in report.render()
    assert isinstance(report, AnalysisReport)
    assert all(isinstance(d, Diagnostic) for d in report.diagnostics)
