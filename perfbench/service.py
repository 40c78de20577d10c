"""The ``service_mix`` workload: an open-loop generator against a
``python -m repro serve`` daemon, over TCP on localhost.

Requests are due on a fixed schedule (``rate_per_s``, evenly spaced)
and are sent on that schedule whether or not earlier ones were
answered, as independent users would; each request's latency runs
from when it was due, so a stall also charges the requests queued
behind it.  How late the generator itself sent is reported as
``loadgen.late_p99_s``.  The mix has three parts, drawn per request
from the seed:

* ``scenario`` ops: cheap registry scenarios repeated with Zipf ranks
  -- reads served by the result cache and the coalescer;
* ``eval`` ops: a fresh random graph per request with inline facts and
  unique constants, checked against a BFS oracle (count and row
  checksum) -- never cacheable, and each answer evicts a cache entry;
* ``decide`` ops: boundedness of a seeded labeled program (the
  generator families behind ``bounded_unbounded_pairs``) with unique
  predicate names -- cold automata inside warm workers.

Everything the run reports is read from outside the daemon: response
fields (``queue_ms``/``service_ms``/``cached``) and ``status`` deltas.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import threading
from time import perf_counter
from typing import Dict, List, Mapping, Optional, Tuple

from common import (
    ROOT,
    child_env,
    latency_percentiles,
    loadgen_latency,
    nearest_rank,
    peak_rss_mb,
)

from repro.service.client import ServiceClient
from repro.service.protocol import decode_request, encode_response
from repro.session import rows_checksum
from repro.workloads.generators import (
    bounded_program,
    random_graph_edges,
    reachable_pairs,
    unbounded_program,
)
from repro.workloads.scenarios import get_scenario

READY = re.compile(r"repro-service ready on .*tcp:127\.0\.0\.1:(\d+)")
TC_PROGRAM = "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y)."
BOUNDED_VERDICT = {"bounded": True, "depth": 2}
UNBOUNDED_VERDICT = {"bounded": None, "depth": None}


# ----------------------------------------------------------------------
# The daemon.
# ----------------------------------------------------------------------

class Daemon:
    """One ``repro serve`` child in its own process group."""

    def __init__(self, config: Mapping, ready_timeout: float = 60.0):
        started = perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--tcp", "127.0.0.1:0",
             "--workers", str(config["workers"]),
             "--executor", config["executor"],
             "--result-cache", str(config["result_cache"])],
            env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, start_new_session=True)
        self.tail: List[str] = []
        ready = threading.Event()
        self.port: Optional[int] = None
        self._drain = threading.Thread(target=self._read, args=(ready,),
                                       daemon=True)
        self._drain.start()
        if not ready.wait(ready_timeout) or self.port is None:
            self.close()
            raise RuntimeError("daemon never became ready: "
                               + " | ".join(self.tail[-5:]))
        self.ready_s = perf_counter() - started

    def _read(self, ready: threading.Event) -> None:
        for line in self.process.stdout:
            self.tail = (self.tail + [line.rstrip()])[-20:]
            match = READY.search(line)
            if match and self.port is None:
                self.port = int(match.group(1))
                ready.set()
        ready.set()

    def client(self) -> ServiceClient:
        """A blocking connection for the untimed control requests."""
        return ServiceClient(tcp=("127.0.0.1", self.port), timeout=120)

    def close(self) -> None:
        """Ask for a clean shutdown; escalate to the process group."""
        if self.process.poll() is None and self.port is not None:
            try:
                with self.client() as client:
                    client.request({"op": "shutdown"})
            except OSError:
                pass
        for sig in (None, signal.SIGTERM, signal.SIGKILL):
            if sig is not None and self.process.poll() is None:
                try:
                    os.killpg(self.process.pid, sig)
                except ProcessLookupError:
                    pass
            try:
                self.process.wait(timeout=20)
                break
            except subprocess.TimeoutExpired:
                continue
        self._drain.join(timeout=5)
        self.process.stdout.close()


def timed_daemon(config: Mapping) -> Tuple[Daemon, float]:
    """A fresh daemon, and the seconds from its spawn to its first
    answered request."""
    daemon = Daemon(config)
    try:
        started = perf_counter()
        with daemon.client() as client:
            response = client.request(config["first_request"])
        if response.get("type") != "decision":
            raise RuntimeError(f"first request failed: {response}")
    except BaseException:
        daemon.close()
        raise
    return daemon, daemon.ready_s + perf_counter() - started


def setup_probe_s(config: Mapping) -> float:
    daemon, seconds = timed_daemon(config)
    daemon.close()
    return seconds


def warm_pool(daemon: Daemon, workers: int) -> None:
    """Occupy every pool worker at once so all of them are spawned
    before the measured window (a daemon pays that once): one pipelined
    eval per worker, which the server runs concurrently."""
    with daemon.client() as client:
        client.request_many([
            {"op": "eval", "program": TC_PROGRAM, "goal": "p",
             "db": f"e(w{lane}a, w{lane}b)."} for lane in range(workers)])


def status(daemon: Daemon) -> dict:
    with daemon.client() as client:
        return client.request({"op": "status"})["status"]


# ----------------------------------------------------------------------
# The request mix.
# ----------------------------------------------------------------------

def _eval_op(index: int, shape: Tuple[int, int, int]):
    nodes, edges, graph = shape
    edges = random_graph_edges(nodes, edges, seed=graph)
    # Unique constants: the graph's shape repeats, the request never does.
    edges = [(f"o{index}{a}", f"o{index}{b}") for a, b in edges]
    rows = reachable_pairs(edges)
    request = {"op": "eval", "program": TC_PROGRAM, "goal": "p",
               "db": "\n".join(f"e({a}, {b})." for a, b in edges)}
    return request, ("eval", len(rows), rows_checksum(rows))


def _decide_op(index: int, guards: int, rng: random.Random, cfg: Mapping):
    """Boundedness of a generated program; *guards* = 0 draws an
    unbounded one.  Labels are the generators' constructions: bounded
    programs certify at depth 2, unbounded ones never do."""
    sub = rng.randrange(1 << 30)
    program = (bounded_program(guards, seed=sub) if guards
               else unbounded_program(seed=sub))
    # Unique predicate names keep every decide a cold computation.
    source = re.sub(r"\b([a-z]\w*)\(",
                    lambda m: m.group(0) if m.group(1) == "p"
                    else f"{m.group(1)}_o{index}(",
                    str(program))
    request = {"op": "decide", "kind": "boundedness", "program": source,
               "goal": "p", "max_depth": cfg["max_depth"]}
    return request, ("decide",
                     BOUNDED_VERDICT if guards else UNBOUNDED_VERDICT)


def _apportion(total: int, weights) -> List[int]:
    """*total* split in proportion to *weights* (largest remainder)."""
    scale = total / sum(weights)
    counts = [int(w * scale) for w in weights]
    order = sorted(range(len(weights)),
                   key=lambda i: counts[i] - weights[i] * scale)
    for i in order[:total - sum(counts)]:
        counts[i] += 1
    return counts


def _shuffled(rng: random.Random, items, counts) -> list:
    out = [item for item, n in zip(items, counts) for _ in range(n)]
    rng.shuffle(out)
    return out


def build_requests(seed: int, count: int, config: Mapping):
    """*count* request lines and their ground truth.  The composition
    is fixed by the config (exact shares of op kinds, Zipf counts per
    scenario, eval graph sizes and shapes, decide variants); *seed*
    draws their order and the decide programs' names, so runs on
    different seeds measure the same traffic and a percentile does not
    move with how many slow operations a seed happened to draw."""
    rng = random.Random(seed)
    mix = config["mix"]
    kinds = _shuffled(rng, list(mix), _apportion(count, list(mix.values())))
    names = config["zipf_scenarios"]
    weights = [1.0 / (rank + 1) ** config["zipf_exponent"]
               for rank in range(len(names))]
    picks = iter(_shuffled(rng, names,
                           _apportion(kinds.count("scenario"), weights)))
    evals = config["eval"]
    shape_list = [(nodes, edges, graph)
                  for nodes, edges in evals["sizes"]
                  for graph in range(evals["graphs"])]
    shape_weights = [weight for weight in evals["weights"]
                     for _ in range(evals["graphs"])]
    shapes = iter(_shuffled(rng, shape_list,
                            _apportion(kinds.count("eval"), shape_weights)))
    variants = config["decide"]["guards"]
    guards = iter(_shuffled(rng, variants,
                            _apportion(kinds.count("decide"),
                                       [1] * len(variants))))
    expected = {name: dict(get_scenario(name).expected) for name in names}
    lines, truths = [], []
    for index, kind in enumerate(kinds):
        if kind == "scenario":
            name = next(picks)
            request = {"op": "scenario", "scenario": name}
            truth = ("scenario", expected[name])
        elif kind == "eval":
            request, truth = _eval_op(index, next(shapes))
        else:
            request, truth = _decide_op(index, next(guards), rng,
                                        config["decide"])
        request["id"] = index
        lines.append((json.dumps(request) + "\n").encode())
        truths.append(truth)
    return lines, truths


def is_correct(response: Mapping, truth: Tuple) -> bool:
    if response.get("type") != "decision":
        return False
    record = response["decision"]
    if truth[0] == "eval":
        return (record["verdict"].get("count") == truth[1]
                and record.get("checksum") == truth[2])
    if truth[0] == "scenario" and record.get("ok") is not True:
        return False
    return record["verdict"] == truth[1]


# ----------------------------------------------------------------------
# The open-loop drive.
# ----------------------------------------------------------------------

async def _drive(port: int, lines: List[bytes], rate: float,
                 connections: int, drain_s: float):
    count = len(lines)
    due = [0.0] * count
    sent = [0.0] * count
    received: List[Optional[float]] = [None] * count
    responses: List[Optional[dict]] = [None] * count
    conns = [await asyncio.open_connection("127.0.0.1", port, limit=1 << 22)
             for _ in range(connections)]
    start = perf_counter() + 0.05

    async def send(lane: int) -> None:
        writer = conns[lane][1]
        for index in range(lane, count, connections):
            due[index] = start + index / rate
            delay = due[index] - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent[index] = perf_counter()
            writer.write(lines[index])
        await writer.drain()

    async def receive(lane: int) -> None:
        reader = conns[lane][0]
        for _ in range(lane, count, connections):
            line = await reader.readline()
            if not line:
                return
            now = perf_counter()
            response = json.loads(line)
            index = response.get("id")
            if isinstance(index, int) and 0 <= index < count:
                received[index] = now
                responses[index] = response

    senders = [asyncio.create_task(send(lane)) for lane in range(connections)]
    receivers = [asyncio.create_task(receive(lane))
                 for lane in range(connections)]
    await asyncio.gather(*senders)
    _, pending = await asyncio.wait(receivers, timeout=drain_s)
    for task in pending:
        task.cancel()
    await asyncio.gather(*receivers, return_exceptions=True)
    for _, writer in conns:
        writer.close()
    return start, due, sent, received, responses


def _status_delta(before: Mapping, after: Mapping) -> Dict[str, float]:
    def delta(section, key):
        return after[section][key] - before[section][key]
    hits = delta("result_cache", "hits")
    misses = delta("result_cache", "misses")
    return {
        "hits": hits, "lookups": hits + misses,
        "evictions": delta("result_cache", "evictions"),
        "joined": delta("coalescer", "joined"),
        "rejected": delta("admission", "rejected"),
        "retries": delta("pool", "retries"),
        "respawns": delta("pool", "respawns"),
    }


def run(config: Mapping, seed: int, seconds: float, trace: bool,
        truth_override: Optional[Mapping[int, Tuple]] = None) -> dict:
    """Run ``service_mix``; returns ``{"attempted", "failed", "values",
    "summary"}``."""
    rate = config["rate_per_s"]
    count = max(1, int(rate * seconds))
    lines, truths = build_requests(seed, count, config)
    if truth_override:
        for index, truth in truth_override.items():
            truths[index] = truth

    # Set-up: spawn -> ready line -> first answered request.  Untraced,
    # half the daemons are timed before the measured window and half
    # after it: the host's speed shifts for seconds at a time, and the
    # median should not rest on one such spell.  The last daemon timed
    # before the window serves the run.
    repeats = 1 if trace else config["setup_repeats"]
    setups = [setup_probe_s(config) for _ in range(repeats // 2)]
    daemon, seconds = timed_daemon(config)
    setups.append(seconds)
    try:
        warm_pool(daemon, config["workers"])
        before = status(daemon)
        start, due, sent, received, responses = asyncio.run(_drive(
            daemon.port, lines, rate, config["connections"],
            config["drain_s"]))
        after = status(daemon)
    finally:
        daemon.close()
    setups += [setup_probe_s(config) for _ in range(repeats - len(setups))]

    latencies, served, failed = [], [], 0
    for index in range(count):
        response = responses[index]
        if response is None or not is_correct(response, truths[index]):
            failed += 1
            continue
        latencies.append(received[index] - due[index])
        served.append(index)
    done = [t for t in received if t is not None]
    wall = (max(done) if done else perf_counter()) - start
    limit = config["latency_limit_s"]
    percentiles, real = latency_percentiles(latencies)
    mean = statistics.fmean(latencies) if latencies else 0.0
    summary = {
        "requests": count,
        "samples": len(latencies),
        "latency_s": percentiles,
        "latency_mean_s": mean,
        "real_percentiles": real,
        "offered_per_s": rate,
        # At a fixed offered rate below saturation this is the offered
        # rate less the share over the limit: not a bounded metric.
        "goodput_per_s": sum(1 for s in latencies if s <= limit) / wall,
        "mean_by_kind_s": {
            kind: statistics.fmean(
                latency for latency, index in zip(latencies, served)
                if truths[index][0] == kind)
            for kind in config["mix"]
            if any(truths[index][0] == kind for index in served)},
    }
    if not trace:
        values = {
            "setup_s": statistics.median(setups),
            # Every request's wait from when it was due to its answer,
            # cache hits and queueing behind slow requests included:
            # moves with the daemon's speed at a fixed offered rate.
            "latency_mean_s": mean,
            "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        }
    else:
        values = loadgen_latency(percentiles)
        values.update(_layer_values(
            lines, responses, served, sent, received, due,
            _status_delta(before, after), count))
    return {"attempted": count, "failed": failed, "values": values,
            "summary": summary}


def _layer_values(lines, responses, served, sent, received, due,
                  status: Mapping, count: int) -> Dict[str, float]:
    """Service-layer metrics of a run, from outside the daemon."""
    started = perf_counter()
    for line in lines:
        decode_request(line)
    decode_s = (perf_counter() - started) / len(lines)
    answered = [r for r in responses if r is not None]
    started = perf_counter()
    for response in answered:
        encode_response(response)
    encode_s = (perf_counter() - started) / max(len(answered), 1)

    queue = [responses[i]["queue_ms"] / 1000.0 for i in served]
    compute = [responses[i]["service_ms"] / 1000.0 for i in served]
    wire = [received[i] - sent[i] for i in served]
    late = sorted(sent[i] - due[i] for i in range(count) if sent[i])
    mean = statistics.fmean if served else (lambda values: 0.0)
    inside = sum(queue) + sum(compute)
    return {
        "service.decode_s": decode_s,
        "service.encode_s": encode_s,
        "service.queue_s": mean(queue),
        "service.compute_s": mean(compute),
        "service.overhead_s": mean([w - q - c for w, q, c
                                    in zip(wire, queue, compute)]),
        "service.cache_hit_rate": (status["hits"] / status["lookups"]
                                   if status["lookups"] else 0.0),
        "service.cache_evictions": status["evictions"] / count,
        "service.coalesced_share": status["joined"] / count,
        "service.rejected": float(status["rejected"]),
        "service.retries": float(status["retries"]),
        "service.respawns": float(status["respawns"]),
        "loadgen.late_p99_s": nearest_rank(late, 0.99)[0] if late else 0.0,
        "trace.coverage": inside / sum(wire) if wire else 0.0,
        # No wrapper sits in the request path: the traced run sends and
        # times exactly what the untraced one does.
        "trace.overhead_share": 0.0,
    }

