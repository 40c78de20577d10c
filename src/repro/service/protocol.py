"""The decision service wire protocol.

One JSON object per ``\\n``-terminated line, both directions.  Every
request names an ``op`` and may carry a client-chosen ``id`` (echoed
verbatim on its response, so clients may pipeline requests and match
responses out of order).  Malformed input never kills a connection: it
produces a typed ``bad-request`` error response and the stream
resynchronizes at the next newline.

Request shapes (defaults are filled in during decoding, so two
requests that differ only in spelled-out defaults are *identical* on
the wire -- that is what makes the coalescing key honest)::

    {"op": "decide", "kind": "containment" | "equivalence"
                             | "boundedness",
     "program": <datalog source>, "goal": <predicate>,
     ...kind-specific fields...,
     "engine": "columnar", "deadline_s": null,
     "id": null}
    {"op": "eval", "program": ..., "db": <ground facts source>,
     "goal": ..., "max_stages": null, "engine": ..., "deadline_s": ...}
    {"op": "scenario", "scenario": <registry name>, "engine": ...,
     "deadline_s": ...}
    {"op": "status"}
    {"op": "shutdown"}

Kind-specific ``decide`` fields: equivalence takes ``nonrecursive``
(+ optional ``nonrecursive_goal``); containment takes exactly one of
``union`` (a nonrecursive program source, + optional ``union_goal``)
or ``union_depth`` (the program's own depth-k expansion union);
boundedness takes ``max_depth`` (default 4).

Response shapes (see the golden files under ``tests/golden/service/``,
which pin every one of them)::

    {"id": ..., "type": "decision", "decision": <Decision.record()>,
     "coalesced": bool, "cached": bool, "attempts": int,
     "queue_ms": float, "service_ms": float}
    {"id": ..., "type": "error", "error": <category>, "message": str,
     "attempts": int}
    {"id": ..., "type": "overload", "error": "overload",
     "queue_depth": int, "capacity": int, "retry_after_ms": float}
    {"id": ..., "type": "status", "status": {...}}
    {"id": ..., "type": "ok"}

Error categories are the resilience taxonomy (``timeout`` / ``memory``
/ ``crash`` / ``corrupt`` / ``error``) plus the protocol's own
``bad-request`` and ``overload``.

The **coalescing key** of a request is
``sha1(config fingerprint + ":" + canonical payload JSON)`` -- the
:attr:`~repro.session.Session.fingerprint` of the engine
configuration the request will run under, joined with the normalized
payload.  Two requests coalesce exactly when a single computation is
guaranteed to produce bit-identical decision records for both.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from ..datalog.engine import ENGINE_CONFIGS
from ..resilience import ERROR_CATEGORIES

__all__ = [
    "MAX_LINE_BYTES",
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Request",
    "canonical_payload",
    "coalesce_key",
    "decision_response",
    "decode_request",
    "encode_response",
    "error_response",
    "fingerprint_for",
    "ok_response",
    "overload_response",
    "status_response",
]

PROTOCOL_VERSION = 2

#: Hard per-line bound, both directions.  A line longer than this is a
#: ``bad-request`` (and the connection closes: framing is lost).
MAX_LINE_BYTES = 1 << 20

OPS = ("decide", "eval", "scenario", "status", "shutdown")

DECIDE_KINDS = ("containment", "equivalence", "boundedness")

#: Response categories beyond the resilience taxonomy.
BAD_REQUEST = "bad-request"
OVERLOAD = "overload"
RESPONSE_CATEGORIES: Tuple[str, ...] = ERROR_CATEGORIES + (BAD_REQUEST,
                                                           OVERLOAD)


class ProtocolError(ValueError):
    """A malformed request (bad JSON, unknown op, missing or ill-typed
    fields, or a program rejected by the static analyzer).  Always
    answered with a ``bad-request`` error response, never with a
    dropped connection.

    ``diagnostics`` carries the analyzer's findings (plain dicts, see
    :mod:`repro.analysis.diagnostics`) when the rejection came from
    program validation; empty for purely structural rejections.  The
    error response forwards them so clients learn *why* a program was
    refused, not just that it was."""

    def __init__(self, message, diagnostics=()):
        super().__init__(message)
        self.diagnostics = [dict(d) for d in diagnostics]


@dataclass(frozen=True)
class Request:
    """One decoded, normalized request.

    ``payload`` is the canonical field dict: defaults filled, unknown
    fields rejected, key order irrelevant (canonicalization sorts).
    ``id`` is the client's correlation handle (echoed verbatim;
    ``None`` when absent).
    """

    op: str
    id: Optional[Union[str, int]] = None
    payload: Mapping[str, Any] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.payload is None:
            object.__setattr__(self, "payload", {})

    @property
    def engine(self) -> str:
        return self.payload.get("engine", "columnar")

    @property
    def deadline_s(self) -> Optional[float]:
        return self.payload.get("deadline_s")

    def chaos_label(self) -> str:
        """What a :class:`~repro.resilience.Fault`'s ``scenario``
        selector matches for this request: the scenario name for
        ``scenario`` ops, else the decide kind, else the op itself."""
        return self.payload.get("scenario",
                                self.payload.get("kind", self.op))


# ----------------------------------------------------------------------
# Decoding and validation.
# ----------------------------------------------------------------------

def _require(fields: Mapping, key: str, kind: type, what: str) -> Any:
    if key not in fields:
        raise ProtocolError(f"{what} requires {key!r}")
    value = fields[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ProtocolError(
            f"{what} field {key!r} must be {kind.__name__}, "
            f"got {type(value).__name__}")
    return value


def _optional(fields: Mapping, key: str, kind: type, what: str,
              default: Any = None) -> Any:
    if key not in fields or fields[key] is None:
        return default
    return _require(fields, key, kind, what)


def _choice(value: str, choices, what: str) -> str:
    if value not in choices:
        raise ProtocolError(f"unknown {what} {value!r}; "
                            f"expected one of {sorted(choices)}")
    return value


def _config_fields(fields: Mapping, what: str) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "engine": _choice(
            _optional(fields, "engine", str, what, "columnar"),
            ENGINE_CONFIGS, "engine"),
    }
    deadline = _optional(fields, "deadline_s", (int, float), what)
    if deadline is not None:
        if deadline <= 0:
            raise ProtocolError(f"{what} deadline_s must be positive, "
                                f"got {deadline}")
        payload["deadline_s"] = float(deadline)
    return payload


def _validated_program(source: str, what: str,
                       goal: Optional[str] = None) -> str:
    """Statically validate a program source field at decode time.

    Unsafe or unparsable programs fail fast here -- a typed
    ``bad-request`` carrying the analyzer's diagnostics -- instead of
    burning worker dispatches (and retries) on a program the decision
    procedures would reject anyway.  Databases are *not* validated
    here: they can be arbitrarily large and are parsed worker-side.
    """
    from ..analysis import analyze_source

    report = analyze_source(source, goal, plans=False)
    if report.ok:
        return source
    first = report.errors[0]
    raise ProtocolError(
        f"{what} rejected by static analysis: {first.code} {first.name}: "
        f"{first.message}",
        diagnostics=[d.as_dict() for d in report.errors])


def _decode_decide(fields: Mapping) -> Dict[str, Any]:
    kind = _choice(_require(fields, "kind", str, "decide"), DECIDE_KINDS,
                   "decide kind")
    goal = _require(fields, "goal", str, "decide")
    payload: Dict[str, Any] = {
        "kind": kind,
        "program": _validated_program(
            _require(fields, "program", str, "decide"),
            "decide 'program'", goal),
        "goal": goal,
    }
    if kind == "equivalence":
        nonrecursive_goal = _optional(fields, "nonrecursive_goal", str,
                                      "decide")
        payload["nonrecursive"] = _validated_program(
            _require(fields, "nonrecursive", str, "decide equivalence"),
            "decide 'nonrecursive'", nonrecursive_goal or goal)
        if nonrecursive_goal is not None:
            payload["nonrecursive_goal"] = nonrecursive_goal
    elif kind == "containment":
        union = _optional(fields, "union", str, "decide")
        depth = _optional(fields, "union_depth", int, "decide")
        if (union is None) == (depth is None):
            raise ProtocolError("decide containment requires exactly one "
                                "of 'union' / 'union_depth'")
        if union is not None:
            union_goal = _optional(fields, "union_goal", str, "decide")
            payload["union"] = _validated_program(
                union, "decide 'union'", union_goal or goal)
            if union_goal is not None:
                payload["union_goal"] = union_goal
        else:
            if depth < 1:
                raise ProtocolError("decide union_depth must be >= 1, "
                                    f"got {depth}")
            payload["union_depth"] = depth
    else:  # boundedness
        payload["max_depth"] = _optional(fields, "max_depth", int,
                                         "decide", 4)
        if payload["max_depth"] < 1:
            raise ProtocolError("decide max_depth must be >= 1, "
                                f"got {payload['max_depth']}")
    payload.update(_config_fields(fields, "decide"))
    return payload


def _decode_eval(fields: Mapping) -> Dict[str, Any]:
    goal = _require(fields, "goal", str, "eval")
    payload: Dict[str, Any] = {
        "program": _validated_program(
            _require(fields, "program", str, "eval"), "eval 'program'",
            goal),
        "db": _require(fields, "db", str, "eval"),
        "goal": goal,
    }
    stages = _optional(fields, "max_stages", int, "eval")
    if stages is not None:
        if stages < 1:
            raise ProtocolError(f"eval max_stages must be >= 1, got {stages}")
        payload["max_stages"] = stages
    payload.update(_config_fields(fields, "eval"))
    return payload


def _decode_scenario(fields: Mapping) -> Dict[str, Any]:
    from ..workloads.scenarios import get_scenario

    name = _require(fields, "scenario", str, "scenario")
    try:
        get_scenario(name)
    except KeyError:
        raise ProtocolError(f"unknown scenario {name!r}") from None
    payload: Dict[str, Any] = {"scenario": name}
    payload.update(_config_fields(fields, "scenario"))
    return payload


_KNOWN_FIELDS = {
    "decide": {"id", "op", "kind", "program", "goal", "nonrecursive",
               "nonrecursive_goal", "union", "union_goal", "union_depth",
               "max_depth", "engine", "deadline_s"},
    "eval": {"id", "op", "program", "db", "goal", "max_stages", "engine",
             "deadline_s"},
    "scenario": {"id", "op", "scenario", "engine", "deadline_s"},
    "status": {"id", "op"},
    "shutdown": {"id", "op"},
}

_DECODERS = {
    "decide": _decode_decide,
    "eval": _decode_eval,
    "scenario": _decode_scenario,
    "status": lambda fields: {},
    "shutdown": lambda fields: {},
}


def decode_request(line: Union[str, bytes]) -> Request:
    """Parse and validate one request line into a normalized
    :class:`Request`; raise :class:`ProtocolError` on anything
    malformed.

        >>> request = decode_request(
        ...     '{"op": "scenario", "scenario": "bounded_buys"}')
        >>> request.op, request.payload["scenario"], request.engine
        ('scenario', 'bounded_buys', 'columnar')
        >>> decode_request('{"op": "warp"}')
        Traceback (most recent call last):
            ...
        repro.service.protocol.ProtocolError: unknown op 'warp'; \
expected one of ['decide', 'eval', 'scenario', 'shutdown', 'status']
    """
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(
                f"request line exceeds {MAX_LINE_BYTES} bytes")
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"request is not valid UTF-8: {exc}") \
                from None
    try:
        fields = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from None
    if not isinstance(fields, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(fields).__name__}")
    op = _choice(_require(fields, "op", str, "request"), OPS, "op")
    request_id = fields.get("id")
    if request_id is not None and not isinstance(request_id, (str, int)):
        raise ProtocolError("request 'id' must be a string or integer")
    unknown = set(fields) - _KNOWN_FIELDS[op]
    if unknown:
        raise ProtocolError(
            f"unknown field(s) for op {op!r}: {sorted(unknown)}")
    return Request(op=op, id=request_id, payload=_DECODERS[op](fields))


# ----------------------------------------------------------------------
# The coalescing key.
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def fingerprint_for(engine: str) -> str:
    """The Session config fingerprint of an engine label -- what the
    service's worker sessions for that engine report as
    :attr:`~repro.session.Decision.fingerprint`, computed without
    building an engine."""
    from ..session import config_fingerprint

    return config_fingerprint(ENGINE_CONFIGS[engine])


def canonical_payload(request: Request) -> str:
    """The canonical JSON of a request's normalized payload (sorted
    keys, no whitespace) -- the request half of the coalescing key."""
    return json.dumps(dict(request.payload), sort_keys=True,
                      separators=(",", ":"))


def coalesce_key(request: Request) -> str:
    """``sha1(config fingerprint : canonical payload)``: requests with
    equal keys are guaranteed bit-identical decision records, so the
    coalescer may serve N of them from one computation.

        >>> a = decode_request('{"op": "scenario", '
        ...                    '"scenario": "bounded_buys"}')
        >>> b = decode_request('{"op": "scenario", "engine": "columnar", '
        ...                    '"scenario": "bounded_buys", "id": "x9"}')
        >>> coalesce_key(a) == coalesce_key(b)   # id never participates
        True
        >>> c = decode_request('{"op": "scenario", "engine": "interpretive",'
        ...                    ' "scenario": "bounded_buys"}')
        >>> coalesce_key(a) == coalesce_key(c)   # config does
        False
    """
    blob = (f"{request.op}:{fingerprint_for(request.engine)}"
            f":{canonical_payload(request)}")
    return hashlib.sha1(blob.encode()).hexdigest()


# ----------------------------------------------------------------------
# Responses.
# ----------------------------------------------------------------------

def decision_response(request_id, record: Mapping, *, coalesced: bool,
                      attempts: int, queue_ms: float,
                      service_ms: float,
                      cached: bool = False) -> Dict[str, Any]:
    """A completed decision: ``record`` is the payload-stripped
    :meth:`~repro.session.Decision.record` produced by the worker.
    ``queue_ms`` is admission-to-dispatch, ``service_ms`` is
    dispatch-to-completion (a coalesced joiner reports the time it
    itself waited on the shared computation).  ``cached`` marks a
    replay from the result cache (:mod:`repro.service.cache`): the
    record was computed by an earlier identical request and no worker
    ran for this one."""
    return {
        "id": request_id,
        "type": "decision",
        "decision": dict(record),
        "coalesced": bool(coalesced),
        "cached": bool(cached),
        "attempts": int(attempts),
        "queue_ms": round(float(queue_ms), 3),
        "service_ms": round(float(service_ms), 3),
    }


def error_response(request_id, category: str, message: str,
                   attempts: int = 1,
                   diagnostics=None) -> Dict[str, Any]:
    """A typed failure: ``category`` is the resilience taxonomy
    (``timeout``/``memory``/``crash``/``corrupt``/``error``) or
    ``bad-request``.  A quarantine -- a request abandoned after
    exhausting its retries -- is this response with ``attempts`` set
    to the tries spent.  ``diagnostics`` (when non-empty) carries the
    static analyzer's findings for program-validation rejections."""
    if category not in RESPONSE_CATEGORIES:
        raise ValueError(f"unknown error category {category!r}")
    response = {
        "id": request_id,
        "type": "error",
        "error": category,
        "message": str(message),
        "attempts": int(attempts),
    }
    if diagnostics:
        response["diagnostics"] = [dict(d) for d in diagnostics]
    return response


def overload_response(request_id, *, queue_depth: int, capacity: int,
                      retry_after_ms: float) -> Dict[str, Any]:
    """A typed admission rejection: the bounded queue is full.  The
    request was *not* enqueued; the client should back off
    ``retry_after_ms`` before retrying."""
    return {
        "id": request_id,
        "type": "overload",
        "error": OVERLOAD,
        "queue_depth": int(queue_depth),
        "capacity": int(capacity),
        "retry_after_ms": round(float(retry_after_ms), 3),
    }


def status_response(request_id, status: Mapping) -> Dict[str, Any]:
    """The reply to a ``status`` op: the server's counters."""
    return {"id": request_id, "type": "status", "status": dict(status)}


def ok_response(request_id) -> Dict[str, Any]:
    """A bare acknowledgement (the reply to ``shutdown``)."""
    return {"id": request_id, "type": "ok"}


def encode_response(response: Mapping) -> bytes:
    """One response line: compact JSON, sorted keys (byte-stable for
    identical payloads -- the coalescing tests compare these), newline
    terminated."""
    return (json.dumps(response, sort_keys=True, separators=(",", ":"),
                       default=str) + "\n").encode("utf-8")
