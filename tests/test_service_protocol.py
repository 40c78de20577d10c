"""Golden tests pinning the decision service wire protocol.

Every request and response JSON shape -- decide/eval/scenario/status/
shutdown requests, decision/error/overload/status/ok responses, and
the typed ``bad-request`` rejection of each malformed-input class --
is pinned byte-for-byte in committed golden files under
``tests/golden/service/``.  A wire change (renamed field, new default,
different coalescing key) fails here first, on the exact line that
moved, before any client notices.

To regenerate after an *intentional* protocol change::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_service_protocol.py

then review the golden diff like any other API change.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.service.protocol import (
    MAX_LINE_BYTES,
    OPS,
    ProtocolError,
    canonical_payload,
    coalesce_key,
    decode_request,
    decision_response,
    encode_response,
    error_response,
    fingerprint_for,
    ok_response,
    overload_response,
    status_response,
)
from repro.session import Decision

GOLDEN_DIR = Path(__file__).parent / "golden" / "service"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

BUYS = ("buys(X, Y) :- likes(X, Y). "
        "buys(X, Y) :- trendy(X), buys(Z, Y).")
BUYS_NR = ("buys(X, Y) :- likes(X, Y). "
           "buys(X, Y) :- trendy(X), likes(Z, Y).")

#: Every valid-request class on the wire: (name, raw request line).
#: Decoding is pinned as (op, id, normalized payload, coalescing key).
VALID_REQUESTS = [
    ("decide_equivalence",
     json.dumps({"op": "decide", "kind": "equivalence", "id": "q1",
                 "program": BUYS, "nonrecursive": BUYS_NR,
                 "goal": "buys"})),
    ("decide_containment_union",
     json.dumps({"op": "decide", "kind": "containment", "id": 7,
                 "program": BUYS, "union": BUYS_NR, "goal": "buys",
                 "method": "tree"})),
    ("decide_containment_depth",
     json.dumps({"op": "decide", "kind": "containment",
                 "program": BUYS, "union_depth": 2, "goal": "buys",
                 "engine": "interpretive"})),
    ("decide_boundedness",
     json.dumps({"op": "decide", "kind": "boundedness",
                 "program": BUYS, "goal": "buys", "deadline_s": 30})),
    ("eval",
     json.dumps({"op": "eval", "id": "e1",
                 "program": "tc(X,Y) :- e(X,Y). "
                            "tc(X,Y) :- tc(X,Z), e(Z,Y).",
                 "db": "e(1, 2). e(2, 3).", "goal": "tc",
                 "max_stages": 5})),
    ("scenario",
     json.dumps({"op": "scenario", "scenario": "bounded_buys",
                 "id": "s1"})),
    ("scenario_defaults_spelled_out",
     json.dumps({"op": "scenario", "scenario": "bounded_buys",
                 "engine": "columnar"})),
    ("status", json.dumps({"op": "status", "id": 0})),
    ("shutdown", json.dumps({"op": "shutdown"})),
]

#: Every malformed-input class: (name, raw line).  Each is pinned to
#: the exact ProtocolError message -- typed rejection, never a dropped
#: connection.
MALFORMED_REQUESTS = [
    ("not_json", "{op: status}"),
    ("not_an_object", "[1, 2, 3]"),
    ("missing_op", json.dumps({"id": "x"})),
    ("unknown_op", json.dumps({"op": "warp"})),
    ("bad_id_type", json.dumps({"op": "status", "id": [1]})),
    ("unknown_field", json.dumps({"op": "status", "turbo": True})),
    ("decide_missing_kind", json.dumps({"op": "decide", "program": BUYS,
                                        "goal": "buys"})),
    ("decide_bad_kind", json.dumps({"op": "decide", "kind": "halting",
                                    "program": BUYS, "goal": "buys"})),
    ("decide_missing_program", json.dumps({"op": "decide",
                                           "kind": "boundedness",
                                           "goal": "buys"})),
    ("decide_program_not_str", json.dumps({"op": "decide",
                                           "kind": "boundedness",
                                           "program": 9, "goal": "buys"})),
    ("equivalence_missing_nonrecursive",
     json.dumps({"op": "decide", "kind": "equivalence", "program": BUYS,
                 "goal": "buys"})),
    ("containment_both_targets",
     json.dumps({"op": "decide", "kind": "containment", "program": BUYS,
                 "goal": "buys", "union": BUYS_NR, "union_depth": 2})),
    ("containment_no_target",
     json.dumps({"op": "decide", "kind": "containment", "program": BUYS,
                 "goal": "buys"})),
    ("bad_union_depth",
     json.dumps({"op": "decide", "kind": "containment", "program": BUYS,
                 "goal": "buys", "union_depth": 0})),
    ("bad_max_depth",
     json.dumps({"op": "decide", "kind": "boundedness", "program": BUYS,
                 "goal": "buys", "max_depth": -1})),
    ("bad_method",
     json.dumps({"op": "decide", "kind": "boundedness", "program": BUYS,
                 "goal": "buys", "method": "oracle"})),
    ("bad_engine", json.dumps({"op": "scenario",
                               "scenario": "bounded_buys",
                               "engine": "quantum"})),
    ("retired_engine_compiled", json.dumps({"op": "scenario",
                                            "scenario": "bounded_buys",
                                            "engine": "compiled"})),
    # The retired automaton-kernel knob: any value is an unknown field.
    ("retired_kernel_field", json.dumps({"op": "scenario",
                                         "scenario": "bounded_buys",
                                         "kernel": "bitset"})),
    ("decide_retired_kernel_field",
     json.dumps({"op": "decide", "kind": "boundedness", "program": BUYS,
                 "goal": "buys", "kernel": "frozenset"})),
    ("bad_deadline", json.dumps({"op": "scenario",
                                 "scenario": "bounded_buys",
                                 "deadline_s": 0})),
    ("unknown_scenario", json.dumps({"op": "scenario",
                                     "scenario": "no_such_scenario"})),
    ("eval_missing_db", json.dumps({"op": "eval", "program": BUYS,
                                    "goal": "buys"})),
    ("eval_bad_max_stages", json.dumps({"op": "eval", "program": BUYS,
                                        "db": "likes(a, b).",
                                        "goal": "buys",
                                        "max_stages": 0})),
    ("eval_rejects_kernel", json.dumps({"op": "eval", "program": BUYS,
                                        "db": "likes(a, b).",
                                        "goal": "buys",
                                        "kernel": "bitset"})),
    # Statically invalid programs are rejected at decode time by the
    # analyzer (repro.analysis) -- never dispatched to a worker.
    ("decide_unsafe_program",
     json.dumps({"op": "decide", "kind": "boundedness",
                 "program": "p(X, Y) :- e(X).", "goal": "p"})),
    ("decide_goal_not_idb",
     json.dumps({"op": "decide", "kind": "boundedness",
                 "program": BUYS, "goal": "likes"})),
    ("eval_unparseable_program",
     json.dumps({"op": "eval", "program": "p(X :- q(X).",
                 "db": "q(a).", "goal": "p"})),
]

#: A fixed payload-stripped decision record (the worker wire shape)
#: for pinning the decision-response envelope.
FIXED_RECORD = {
    "kind": "boundedness",
    "verdict": {"bounded": True, "depth": 2},
    "ok": True,
    "stats": {"expansions": 3},
    "timings": {"decide_s": 0.004},
    "fingerprint": "0123456789abcdef",
    "checksum": "feedface",
    "attempts": 1,
    "meta": {"op": "scenario", "engine": "columnar",
             "scenario": "bounded_buys"},
}

def _analyzer_rejection_response():
    """The server's answer to an analyzer-rejected program, built from
    the real decode-time ProtocolError so the golden can never drift
    from the decode path."""
    try:
        decode_request(json.dumps({"op": "decide", "kind": "boundedness",
                                   "program": "p(X, Y) :- e(X).",
                                   "goal": "p", "id": "q8"}))
    except ProtocolError as exc:
        return error_response("q8", "bad-request", str(exc),
                              diagnostics=exc.diagnostics)
    raise AssertionError("unsafe program was not rejected at decode time")


#: Every response shape: (name, builder result).  Includes the
#: quarantine-style error (category + attempts spent) and every typed
#: rejection.
RESPONSES = [
    ("decision", decision_response("q1", FIXED_RECORD, coalesced=False,
                                   attempts=1, queue_ms=0.25,
                                   service_ms=4.125)),
    ("decision_coalesced", decision_response(7, FIXED_RECORD,
                                             coalesced=True, attempts=1,
                                             queue_ms=0.0,
                                             service_ms=3.5)),
    ("error_bad_request", error_response("q2", "bad-request",
                                         "unknown op 'warp'; expected one "
                                         "of ['decide', 'eval', 'scenario',"
                                         " 'shutdown', 'status']")),
    ("error_timeout", error_response("q3", "timeout",
                                     "attempt 1 timeout: BudgetExhausted: "
                                     "wall-clock budget of 0.5s exhausted",
                                     attempts=1)),
    ("error_quarantine", error_response("q4", "crash",
                                        "attempt 1 crash: worker process "
                                        "died; attempt 2 crash: worker "
                                        "process died; attempt 3 crash: "
                                        "worker process died",
                                        attempts=3)),
    ("overload", overload_response("q5", queue_depth=64, capacity=64,
                                   retry_after_ms=50.0)),
    ("error_bad_request_diagnostics", _analyzer_rejection_response()),
    ("status", status_response("q6", {"protocol": 1, "served": 12})),
    ("ok", ok_response("q7")),
]


def _golden(name: str, payload):
    """Compare *payload* to the committed golden file (or rewrite it
    under REPRO_REGEN_GOLDEN=1)."""
    path = GOLDEN_DIR / f"{name}.json"
    rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if REGEN:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(rendered)
        return
    assert path.is_file(), (
        f"missing golden file {path}; run REPRO_REGEN_GOLDEN=1 "
        f"python -m pytest {__file__}")
    assert rendered == path.read_text(), (
        f"{name} drifted from {path}; if the protocol change is "
        f"intentional, regenerate with REPRO_REGEN_GOLDEN=1")


def test_valid_requests_golden():
    """Decoding of every valid request class is pinned: op, echoed id,
    normalized payload (defaults filled), and the coalescing key."""
    decoded = {}
    for name, line in VALID_REQUESTS:
        request = decode_request(line)
        decoded[name] = {
            "line": json.loads(line),
            "op": request.op,
            "id": request.id,
            "payload": dict(request.payload),
            "canonical": canonical_payload(request),
            "coalesce_key": coalesce_key(request),
        }
    _golden("requests", decoded)


def test_malformed_requests_golden():
    """Every malformed-input class raises ProtocolError with a pinned
    message (the typed ``bad-request`` the server answers with)."""
    rejections = {}
    for name, line in MALFORMED_REQUESTS:
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(line)
        rejections[name] = {"line": line, "error": str(excinfo.value)}
    _golden("malformed", rejections)


def test_responses_golden():
    """Every response envelope encodes to a pinned byte-stable line."""
    encoded = {name: encode_response(response).decode().rstrip("\n")
               for name, response in RESPONSES}
    _golden("responses", encoded)


def test_analyzer_rejection_carries_diagnostics():
    """An analyzer-rejected program raises a ProtocolError carrying
    structured diagnostics, and the bad-request envelope forwards
    them."""
    with pytest.raises(ProtocolError) as excinfo:
        decode_request(json.dumps({"op": "decide", "kind": "boundedness",
                                   "program": "p(X, Y) :- e(X).",
                                   "goal": "p"}))
    diagnostics = excinfo.value.diagnostics
    assert diagnostics and diagnostics[0]["code"] == "E001"
    assert diagnostics[0]["severity"] == "error"
    response = error_response("r1", "bad-request", str(excinfo.value),
                              diagnostics=diagnostics)
    assert response["diagnostics"] == diagnostics
    # Plain bad requests carry no diagnostics key at all.
    assert "diagnostics" not in error_response("r2", "bad-request", "nope")


def test_oversized_line_rejected():
    line = json.dumps({"op": "decide", "kind": "boundedness",
                       "goal": "p", "program": "x" * MAX_LINE_BYTES})
    with pytest.raises(ProtocolError, match="exceeds"):
        decode_request(line.encode())


def test_invalid_utf8_rejected():
    with pytest.raises(ProtocolError, match="UTF-8"):
        decode_request(b'{"op": "status"\xff}')


def test_bool_is_not_an_int_field():
    """JSON ``true`` must not satisfy integer fields (bool is an int
    subclass in Python)."""
    with pytest.raises(ProtocolError, match="max_depth"):
        decode_request(json.dumps({"op": "decide", "kind": "boundedness",
                                   "program": BUYS, "goal": "buys",
                                   "max_depth": True}))


def test_defaults_make_coalescing_honest():
    """Spelling out a default and omitting it decode to the same
    normalized payload, canonical form, and coalescing key."""
    bare = decode_request(json.dumps(
        {"op": "scenario", "scenario": "bounded_buys"}))
    spelled = decode_request(json.dumps(
        {"op": "scenario", "scenario": "bounded_buys",
         "engine": "columnar", "id": "different"}))
    assert dict(bare.payload) == dict(spelled.payload)
    assert coalesce_key(bare) == coalesce_key(spelled)


def test_distinct_configs_never_share_a_key():
    keys = set()
    for engine in ("columnar", "interpretive"):
        keys.add(coalesce_key(decode_request(json.dumps(
            {"op": "scenario", "scenario": "bounded_buys",
             "engine": engine}))))
    assert len(keys) == 2


def test_fingerprint_matches_session():
    """The protocol's precomputed config fingerprint is the one a real
    Session of that configuration reports."""
    from repro.runner.batch import ENGINE_CONFIGS
    from repro.session import Session

    session = Session(engine=ENGINE_CONFIGS["interpretive"])
    assert fingerprint_for("interpretive") == session.fingerprint


def test_every_op_has_a_request_case():
    covered = {json.loads(line)["op"] for _, line in VALID_REQUESTS}
    assert covered == set(OPS)


def test_response_roundtrip_and_record_rehydration():
    """encode_response lines parse back to the same object, and the
    embedded record rehydrates into a Decision equal to its source."""
    for name, response in RESPONSES:
        assert json.loads(encode_response(response)) == response
    decision = Decision.from_record(FIXED_RECORD)
    assert decision.record() == FIXED_RECORD
