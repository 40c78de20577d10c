"""Behavioural tests for the decision service daemon.

Each test embeds a live server (:func:`repro.service.start_in_thread`)
on a throwaway unix socket and drives it with the blocking client over
real sockets -- the full wire path, not unit shims.  Determinism comes
from chaos ``hang`` faults (a leader held in flight for a known
duration is a window to pile joiners or saturate admission in) and
``crash`` faults with ``attempt=*`` (a request that can never succeed
must quarantine after exactly ``max_attempts`` tries).

The three core properties pinned here, per the service's contract:

* **Coalescing**: N concurrent identical requests cost exactly one
  Session computation (asserted via ``cache_stats()`` miss deltas
  *and* coalescer counters) and yield bit-identical decision records;
  distinct config fingerprints never coalesce.
* **Chaos under load**: a crash-poisoned request gets a typed error
  while every other in-flight request completes bit-identical to a
  serial rerun -- zero verdict divergences.
* **Admission**: a full service answers deterministic typed overload
  responses, then drains and recovers without a restart.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.runner.batch import ENGINE_CONFIGS
from repro.service import PoolConfig, ServiceConfig, start_in_thread
from repro.service.client import ServiceClient
from repro.session import Session


@pytest.fixture
def sock_path(tmp_path):
    return str(tmp_path / "repro.sock")


def _serve(sock_path, **pool_kwargs):
    """An embedded thread-executor server (the deterministic mode:
    chaos crashes simulate instead of killing a process)."""
    pool_kwargs.setdefault("workers", 1)
    pool_kwargs.setdefault("executor", "thread")
    config = ServiceConfig(
        socket_path=sock_path,
        capacity=pool_kwargs.pop("capacity", 64),
        result_cache=pool_kwargs.pop("result_cache", 0),
        result_cache_ttl_s=pool_kwargs.pop("result_cache_ttl_s", None),
        pool=PoolConfig(**pool_kwargs))
    return start_in_thread(config)


def _serial_record(scenario: str) -> dict:
    """The scenario's decision record from a fresh serial Session --
    the ground truth served responses must match bit-for-bit."""
    session = Session(engine=ENGINE_CONFIGS["columnar"],
                      name="serial-control")
    return session.run_scenario(scenario).without_payload().record()


def _stable_view(record: dict) -> dict:
    """The deterministic slice of a decision record: everything except
    wall-clock timings and service bookkeeping."""
    view = {key: record.get(key) for key in
            ("kind", "verdict", "ok", "checksum", "fingerprint")}
    stats = dict(record.get("stats") or {})
    stats.pop("retried_after", None)  # transparent recovery bookkeeping
    view["stats"] = stats
    return view


def _scope_misses(status: dict) -> int:
    """Total Session cache misses across every worker session the
    server can see (thread mode: the whole pool)."""
    return sum(cache["misses"]
               for entry in status["worker_sessions"]
               for cache in entry["scope"].values())


# ----------------------------------------------------------------------
# Coalescing.
# ----------------------------------------------------------------------

def test_coalescing_single_computation(sock_path):
    """N concurrent identical requests: one Session computation, one
    coalescer lead, N-1 joins, bit-identical decision records."""
    n = 8
    # The leader hangs 0.6s before computing (no deadline set, so the
    # hang completes normally): a deterministic window in which every
    # other identical request must coalesce rather than recompute.
    with _serve(sock_path,
                chaos="hang:scenario=bounded_buys,attempt=*,seconds=0.6"):
        with ServiceClient(socket_path=sock_path) as client:
            before = client.request({"op": "status"})["status"]
            responses = client.request_many(
                [{"op": "scenario", "scenario": "bounded_buys"}
                 for _ in range(n)])
            after = client.request({"op": "status"})["status"]

    assert [r["type"] for r in responses] == ["decision"] * n
    assert sorted(r["coalesced"] for r in responses) == \
        [False] + [True] * (n - 1)
    # Exactly one underlying computation...
    assert after["coalescer"]["computed"] - \
        before["coalescer"]["computed"] == 1
    assert after["coalescer"]["joined"] - before["coalescer"]["joined"] \
        == n - 1
    assert after["pool"]["submitted"] - before["pool"]["submitted"] == 1
    # ... confirmed at the Session layer: the cache-miss delta is one
    # run's worth, not n runs' worth (and the serial control says how
    # much one run's worth is).
    serial = Session(engine=ENGINE_CONFIGS["columnar"],
                     name="coalesce-control")
    serial.run_scenario("bounded_buys")
    one_run = sum(cache["misses"]
                  for cache in serial.cache_stats()["scope"].values())
    assert _scope_misses(after) - _scope_misses(before) == one_run
    # Bit-identical payloads: every response carries the same record.
    blobs = {json.dumps(r["decision"], sort_keys=True) for r in responses}
    assert len(blobs) == 1
    # Joiners never consume admission slots: one admit for n requests.
    assert after["admission"]["admitted"] - \
        before["admission"]["admitted"] == 1


def test_distinct_fingerprints_never_coalesce(sock_path):
    """The same question under different engine configs is a different
    computation -- no coalescing across config fingerprints."""
    with _serve(sock_path,
                chaos="hang:scenario=bounded_buys,attempt=*,seconds=0.3"):
        with ServiceClient(socket_path=sock_path) as client:
            before = client.request({"op": "status"})["status"]
            responses = client.request_many([
                {"op": "scenario", "scenario": "bounded_buys",
                 "engine": "columnar"},
                {"op": "scenario", "scenario": "bounded_buys",
                 "engine": "interpretive"},
            ])
            after = client.request({"op": "status"})["status"]
    assert [r["type"] for r in responses] == ["decision", "decision"]
    assert [r["coalesced"] for r in responses] == [False, False]
    assert after["coalescer"]["computed"] - \
        before["coalescer"]["computed"] == 2
    assert after["coalescer"]["joined"] == before["coalescer"]["joined"]
    # Same verdict, different config fingerprint.
    a, b = (r["decision"] for r in responses)
    assert a["verdict"] == b["verdict"]
    assert a["fingerprint"] != b["fingerprint"]


def test_coalesced_joiners_share_typed_errors(sock_path):
    """A poisoned computation fails once; its joiners receive the same
    typed error instead of recomputing the poison.  The poison is a
    hang under a request deadline, so the leader is deterministically
    in flight while the joiners arrive."""
    with _serve(sock_path, max_attempts=1,
                chaos="hang:scenario=bounded_buys,attempt=*,seconds=30"):
        with ServiceClient(socket_path=sock_path) as client:
            responses = client.request_many(
                [{"op": "scenario", "scenario": "bounded_buys",
                  "deadline_s": 0.5} for _ in range(4)])
            status = client.request({"op": "status"})["status"]
    assert [r["type"] for r in responses] == ["error"] * 4
    assert {r["error"] for r in responses} == {"timeout"}
    assert status["pool"]["submitted"] == 1  # the poison ran once
    assert status["errors"] == 4  # but every waiter was answered


# ----------------------------------------------------------------------
# Chaos under load.
# ----------------------------------------------------------------------

INNOCENTS = ("contain_chain_w1", "equiv_buys_bounded", "eval_sg_tree_d5")


def test_chaos_under_load_process_pool(sock_path):
    """A real worker crash (process executor, ``os._exit``) mid-load:
    the poisoned client gets a typed ``crash`` error after exactly
    ``max_attempts`` tries; every innocent in-flight request completes
    bit-identical to a serial rerun -- zero verdict divergences."""
    max_attempts = 3
    with _serve(sock_path, workers=2, executor="process",
                max_attempts=max_attempts,
                chaos="crash:scenario=bounded_buys,attempt=*"):
        with ServiceClient(socket_path=sock_path, timeout=300.0) as client:
            batch = [{"op": "scenario", "scenario": "bounded_buys",
                      "id": "poisoned"}]
            batch += [{"op": "scenario", "scenario": name, "id": name}
                      for name in INNOCENTS]
            responses = {r["id"]: r for r in client.request_many(batch)}
            status = client.request({"op": "status"})["status"]

    poisoned = responses["poisoned"]
    assert poisoned["type"] == "error"
    assert poisoned["error"] == "crash"
    assert poisoned["attempts"] == max_attempts
    assert status["pool"]["quarantined"] == 1
    assert status["pool"]["respawns"] >= 1  # the pool really broke

    divergences = []
    for name in INNOCENTS:
        response = responses[name]
        assert response["type"] == "decision", (name, response)
        if _stable_view(response["decision"]) != \
                _stable_view(_serial_record(name)):
            divergences.append(name)
    assert divergences == []


def test_simulated_crash_quarantine_thread_pool(sock_path):
    """The same quarantine discipline in the embedded thread mode,
    where chaos crashes raise SimulatedWorkerCrash instead of killing
    anything -- and an unaffected request on the same connection still
    completes."""
    with _serve(sock_path, max_attempts=2,
                chaos="crash:scenario=bounded_buys,attempt=*"):
        with ServiceClient(socket_path=sock_path) as client:
            responses = client.request_many([
                {"op": "scenario", "scenario": "bounded_buys", "id": "bad"},
                {"op": "scenario", "scenario": "contain_chain_w1",
                 "id": "good"},
            ])
    by_id = {r["id"]: r for r in responses}
    assert by_id["bad"]["type"] == "error"
    assert by_id["bad"]["error"] == "crash"
    assert by_id["bad"]["attempts"] == 2
    assert by_id["good"]["type"] == "decision"
    assert by_id["good"]["decision"]["ok"] is True


def test_retry_backoff_is_keyed_per_request(sock_path, monkeypatch):
    """Two distinct retried requests of one op sleep different
    backoffs: the jitter is keyed on each request's coalescing key,
    not on the op they share."""
    from repro.resilience import RetryPolicy
    from repro.service.protocol import coalesce_key, decode_request

    sleeps = {}
    backoff = RetryPolicy.backoff

    def recording(policy, key, failures):
        seconds = backoff(policy, key, failures)
        if failures:
            sleeps[key] = seconds
        return seconds

    monkeypatch.setattr(RetryPolicy, "backoff", recording)
    requests = [{"op": "scenario", "scenario": name}
                for name in ("bounded_buys", "contain_chain_w1")]
    with _serve(sock_path, chaos="memory:attempt=1", backoff_base_s=0.001):
        with ServiceClient(socket_path=sock_path) as client:
            responses = client.request_many(requests)
    assert [r["type"] for r in responses] == ["decision", "decision"]
    assert [r["attempts"] for r in responses] == [2, 2]
    keys = [coalesce_key(decode_request(json.dumps(r))) for r in requests]
    assert sorted(sleeps) == sorted(keys)
    assert len(set(sleeps.values())) == 2


def test_deadline_is_a_typed_timeout(sock_path):
    """A planted hang under a request deadline surfaces as a typed
    ``timeout`` error, not a stuck connection."""
    with _serve(sock_path, max_attempts=1,
                chaos="hang:scenario=bounded_buys,attempt=*,seconds=30"):
        with ServiceClient(socket_path=sock_path) as client:
            started = time.perf_counter()
            response = client.request({"op": "scenario",
                                       "scenario": "bounded_buys",
                                       "deadline_s": 0.3})
            elapsed = time.perf_counter() - started
    assert response["type"] == "error"
    assert response["error"] == "timeout"
    assert elapsed < 10.0  # interrupted the 30s hang, not waited it out


@pytest.mark.usefixtures("frozen_heap")
@pytest.mark.parametrize("executor", ["thread", "process"])
def test_deadline_cuts_an_infeasible_decision(sock_path, executor):
    """A request deadline tighter than the scenario's own 1.5 s budget
    cuts a real (unplanted) infeasible decision promptly, under both
    executors: the same deadline fires on any thread."""
    with _serve(sock_path, executor=executor, max_attempts=1):
        with ServiceClient(socket_path=sock_path, timeout=30.0) as client:
            started = time.perf_counter()
            response = client.request({
                "op": "scenario", "scenario": "stress_space_containment_n1",
                "deadline_s": 0.5})
            elapsed = time.perf_counter() - started
    assert response["type"] == "error"
    assert response["error"] == "timeout"
    assert elapsed < 2.0, f"timeout answered after {elapsed:.2f}s"


#: Nonlinear transitive closure: the number of expansions grows doubly
#: exponentially with the height, so a deep expansion union cannot be
#: built within any deadline.
_BRANCHING = "p(X,Y) :- e(X,Y).\np(X,Y) :- p(X,Z), p(Z,Y).\n"

#: A nonrecursive program whose unfolding at ``q10`` has 2^(2^10)
#: disjuncts (the Section 6 blowup).
_DOUBLING = "\n".join(
    ["q0(X,Y) :- e(X,Y).", "q0(X,Y) :- f(X,Y)."]
    + [f"q{i}(X,Y) :- q{i - 1}(X,Z), q{i - 1}(Z,Y)." for i in range(1, 11)])


@pytest.mark.usefixtures("frozen_heap")
@pytest.mark.parametrize("executor", ["thread", "process"])
@pytest.mark.parametrize("fields", [
    {"kind": "boundedness", "max_depth": 12},
    {"kind": "containment", "union_depth": 8},
    {"kind": "containment", "union": _DOUBLING, "union_goal": "q10"},
], ids=["boundedness_max_depth", "containment_union_depth",
        "containment_unfolded_union"])
def test_deadline_cuts_a_deep_decide_request(sock_path, executor, fields):
    """The client picks the depths of a ``decide`` request, so building
    its expansion union or unfolding its nonrecursive target is part of
    the budgeted work: a deadline cuts it there, on both executors."""
    with _serve(sock_path, executor=executor, max_attempts=1):
        with ServiceClient(socket_path=sock_path, timeout=30.0) as client:
            started = time.perf_counter()
            response = client.request({
                "op": "decide", "program": _BRANCHING, "goal": "p",
                "deadline_s": 0.5, **fields})
            elapsed = time.perf_counter() - started
    assert response["type"] == "error"
    assert response["error"] == "timeout"
    assert elapsed < 2.0, f"timeout answered after {elapsed:.2f}s"


# ----------------------------------------------------------------------
# Admission control.
# ----------------------------------------------------------------------

def test_admission_overload_and_recovery(sock_path):
    """Fill the bounded queue: requests beyond capacity get
    deterministic typed overload responses (never enqueued), and once
    the backlog drains the same server admits again -- no restart."""
    retry_after_ms = 25.0
    with _serve(sock_path, capacity=2, max_attempts=1,
                chaos="hang:scenario=eval_tc_chain_120,attempt=*,"
                      "seconds=1.5") as handle:
        handle.server.admission.retry_after_ms = retry_after_ms
        with ServiceClient(socket_path=sock_path) as client:
            # Saturate: the hanging request holds the single worker,
            # the filler holds the second (and last) admission slot.
            slow_id = client.send({"op": "scenario",
                                   "scenario": "eval_tc_chain_120",
                                   "id": "slow"})
            filler_id = client.send({"op": "scenario",
                                     "scenario": "contain_chain_w1",
                                     "id": "filler"})
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                status = client.request({"op": "status"})["status"]
                if status["admission"]["depth"] == 2:
                    break
                time.sleep(0.01)
            assert status["admission"]["depth"] == 2

            # Distinct requests (distinct keys: no coalescing) are now
            # refused with the typed overload response, deterministically.
            overloads = client.request_many([
                {"op": "scenario", "scenario": "equiv_buys_bounded"},
                {"op": "scenario", "scenario": "eval_sg_tree_d5"},
                {"op": "scenario", "scenario": "magic_star_8x12"},
            ])
            for response in overloads:
                assert response["type"] == "overload"
                assert response["error"] == "overload"
                assert response["queue_depth"] == 2
                assert response["capacity"] == 2
                assert response["retry_after_ms"] == retry_after_ms

            # Control ops never queue behind decisions.
            assert client.request({"op": "status"})["type"] == "status"

            # Drain: both admitted requests complete...
            results = {}
            while len(results) < 2:
                response = client.recv()
                if response.get("id") in (slow_id, filler_id):
                    results[response["id"]] = response
            assert all(r["type"] == "decision" for r in results.values())

            # ... and the same server admits fresh work again.
            recovered = client.request({"op": "scenario",
                                        "scenario": "equiv_buys_bounded"})
            assert recovered["type"] == "decision"
            status = client.request({"op": "status"})["status"]
            assert status["admission"]["depth"] == 0
            assert status["admission"]["rejected"] == 3
            assert status["admission"]["high_water"] == 2


# ----------------------------------------------------------------------
# Protocol lifecycle on a live socket.
# ----------------------------------------------------------------------

def test_malformed_lines_do_not_kill_the_connection(sock_path):
    """Garbage, unknown ops, and bad fields each get a typed
    bad-request (with the id echoed when parseable) -- and the same
    connection then serves a valid request."""
    with _serve(sock_path):
        with ServiceClient(socket_path=sock_path) as client:
            client._sock.sendall(b"this is not json\n")
            response = client.recv()
            assert (response["type"], response["error"]) == \
                ("error", "bad-request")
            assert response["id"] is None

            client._sock.sendall(
                b'{"op": "warp", "id": "w1"}\n')
            response = client.recv()
            assert (response["type"], response["error"]) == \
                ("error", "bad-request")
            assert response["id"] == "w1"  # echoed from the bad line

            response = client.request({"op": "scenario",
                                       "scenario": "bounded_buys"})
            assert response["type"] == "decision"


@pytest.mark.parametrize("db", ["e(X, b).", "e(a, b) :- f(a)."])
def test_eval_rejects_a_facts_literal_with_rules(sock_path, db):
    """An ``eval`` whose ``db`` is not ground facts gets a typed error
    naming the offending rule; the connection keeps serving."""
    with _serve(sock_path, max_attempts=1):
        with ServiceClient(socket_path=sock_path) as client:
            response = client.request({
                "op": "eval", "id": "bad-db", "goal": "p",
                "program": "p(X, Y) :- e(X, Y).", "db": db})
            assert (response["type"], response["error"]) == \
                ("error", "error")
            assert response["id"] == "bad-db"
            assert "a facts literal holds ground facts only" in \
                response["message"]
            response = client.request({
                "op": "eval", "goal": "p",
                "program": "p(X, Y) :- e(X, Y).", "db": "e(a, b)."})
            assert response["type"] == "decision"


def test_blank_lines_are_ignored(sock_path):
    with _serve(sock_path):
        with ServiceClient(socket_path=sock_path) as client:
            client._sock.sendall(b"\n\n")
            assert client.request({"op": "status"})["type"] == "status"


def test_status_shape(sock_path):
    with _serve(sock_path):
        with ServiceClient(socket_path=sock_path) as client:
            response = client.request({"op": "status", "id": 42})
    assert response["type"] == "status"
    assert response["id"] == 42
    status = response["status"]
    assert status["protocol"] == 2
    assert set(status) >= {"uptime_s", "served", "errors", "admission",
                           "coalescer", "pool", "worker_sessions"}
    assert status["pool"]["executor"] == "thread"


def test_shutdown_op_stops_the_server(sock_path):
    handle = _serve(sock_path)
    try:
        with ServiceClient(socket_path=sock_path) as client:
            assert client.request({"op": "shutdown"})["type"] == "ok"
        handle._thread.join(timeout=10.0)
        assert not handle._thread.is_alive()
        assert not os.path.exists(sock_path) or True  # socket may linger
        with pytest.raises((ConnectionRefusedError, FileNotFoundError,
                            ConnectionResetError, BrokenPipeError)):
            probe = ServiceClient(socket_path=sock_path, timeout=2.0)
            probe.request({"op": "status"})
            probe.close()
    finally:
        handle.stop()


def test_tcp_endpoint(sock_path):
    """The optional TCP listener speaks the same protocol; port 0
    binds a free port, discoverable from the handle."""
    config = ServiceConfig(tcp=("127.0.0.1", 0),
                           pool=PoolConfig(workers=1, executor="thread"))
    with start_in_thread(config) as handle:
        endpoint = next(e for e in handle.endpoints
                        if e.startswith("tcp:"))
        _, host, port = endpoint.split(":")
        with ServiceClient(tcp=(host, int(port))) as client:
            response = client.request({"op": "scenario",
                                       "scenario": "bounded_buys"})
    assert response["type"] == "decision"
    assert response["decision"]["verdict"] == {"bounded": True, "depth": 2}


def test_served_records_match_serial_sessions(sock_path):
    """No chaos, no tricks: a served decision is byte-for-byte the
    record a serial Session produces for the same question."""
    with _serve(sock_path):
        with ServiceClient(socket_path=sock_path) as client:
            responses = client.request_many(
                [{"op": "scenario", "scenario": name, "id": name}
                 for name in INNOCENTS])
    for response in responses:
        name = response["id"]
        assert response["type"] == "decision"
        assert _stable_view(response["decision"]) == \
            _stable_view(_serial_record(name))
        record = response["decision"]  # meta flattens into the record
        assert (record["op"], record["engine"]) == ("scenario", "columnar")
        assert "kernel" not in record


# ----------------------------------------------------------------------
# The served-decision result cache.
# ----------------------------------------------------------------------

def test_result_cache_replays_without_pool_dispatch(sock_path):
    """A repeat of an already-served request is answered from the
    result cache: bit-identical record, ``cached: true``, and neither
    an admission slot nor a pool dispatch is consumed."""
    with _serve(sock_path, result_cache=32):
        with ServiceClient(socket_path=sock_path) as client:
            first = client.request({"op": "scenario",
                                    "scenario": "bounded_buys"})
            before = client.request({"op": "status"})["status"]
            second = client.request({"op": "scenario",
                                     "scenario": "bounded_buys"})
            after = client.request({"op": "status"})["status"]

    assert first["type"] == second["type"] == "decision"
    assert first["cached"] is False
    assert second["cached"] is True
    assert second["coalesced"] is False
    assert second["decision"] == first["decision"]  # byte-for-byte replay
    # The hit bypassed every inner layer.
    assert after["pool"]["submitted"] == before["pool"]["submitted"]
    assert after["admission"]["admitted"] == before["admission"]["admitted"]
    assert after["coalescer"]["computed"] == before["coalescer"]["computed"]
    cache = after["result_cache"]
    assert (cache["hits"], cache["size"]) == (1, 1)
    assert cache["misses"] == 1  # the first request's lookup


def test_result_cache_distinguishes_configs(sock_path):
    """The cache key is the full coalescing key, so the same scenario
    under a different engine config is a miss, not a poisoned hit."""
    with _serve(sock_path, result_cache=32):
        with ServiceClient(socket_path=sock_path) as client:
            columnar = client.request({"op": "scenario",
                                       "scenario": "bounded_buys",
                                       "engine": "columnar"})
            interpretive = client.request({"op": "scenario",
                                           "scenario": "bounded_buys",
                                           "engine": "interpretive"})
            status = client.request({"op": "status"})["status"]
    assert columnar["cached"] is False and interpretive["cached"] is False
    assert status["result_cache"]["hits"] == 0
    assert status["result_cache"]["size"] == 2
    assert columnar["decision"]["verdict"] == \
        interpretive["decision"]["verdict"]
    assert columnar["decision"]["fingerprint"] != \
        interpretive["decision"]["fingerprint"]


def test_result_cache_never_stores_failures(sock_path):
    """Errors are not answers: a quarantined request leaves the cache
    empty, and its repeat re-executes (and re-fails) on the pool."""
    with _serve(sock_path, result_cache=32, max_attempts=2,
                chaos="crash:scenario=bounded_buys,attempt=*"):
        with ServiceClient(socket_path=sock_path) as client:
            first = client.request({"op": "scenario",
                                    "scenario": "bounded_buys"})
            second = client.request({"op": "scenario",
                                     "scenario": "bounded_buys"})
            status = client.request({"op": "status"})["status"]
    assert first["type"] == second["type"] == "error"
    assert status["result_cache"]["size"] == 0
    assert status["result_cache"]["hits"] == 0
    assert status["pool"]["submitted"] == 2  # both really dispatched


def test_result_cache_disabled_by_default(sock_path):
    """Without ``--result-cache`` the server behaves exactly as
    before: repeats recompute, nothing is marked cached, and the
    status payload shows a zero-capacity cache."""
    with _serve(sock_path):
        with ServiceClient(socket_path=sock_path) as client:
            responses = [client.request({"op": "scenario",
                                         "scenario": "bounded_buys"})
                         for _ in range(2)]
            status = client.request({"op": "status"})["status"]
    assert [r["cached"] for r in responses] == [False, False]
    assert status["result_cache"]["capacity"] == 0
    assert status["result_cache"]["hits"] == 0
    assert status["pool"]["submitted"] == 2
