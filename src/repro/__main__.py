"""``python -m repro`` -- the unified CLI over the Session API.

One entry point for every paper decision procedure and harness:

=============  ========================================================
subcommand     what it does
=============  ========================================================
``decide``     one decision from the shell: ``containment``,
               ``equivalence`` (the README quickstart), or
               ``boundedness``; prints the uniform ``Decision`` record
``analyze``    the static analyzer (:mod:`repro.analysis`): typed
               diagnostics (E/W/H codes), class certificates, plan
               lints; text or JSON output, exit 1 on error diagnostics
``eval``       bottom-up evaluation of a program over a facts file
``serve``      the long-lived decision service daemon
               (:mod:`repro.service`): newline-delimited JSON over a
               unix socket (and/or TCP), request coalescing, bounded
               admission, per-worker Sessions
``request``    send one JSON request line to a running daemon and
               print its response (the CI/docs smoke client)
``scenarios``  the scenario-matrix batch runner
               (:mod:`repro.runner.cli`)
``fuzz``       the differential fuzz sweep (:mod:`repro.fuzz`): random
               programs/EDBs through every backend x strategy, decision
               verdicts through the certificate checker and witness
               refutation, divergences delta-debugged to minimized
               regression files
=============  ========================================================

Examples::

    python -m repro decide equivalence \\
        --program "buys(X, Y) :- likes(X, Y). \\
                   buys(X, Y) :- trendy(X), buys(Z, Y)." \\
        --nonrecursive "buys(X, Y) :- likes(X, Y). \\
                        buys(X, Y) :- trendy(X), likes(Z, Y)." \\
        --goal buys
    python -m repro decide boundedness --program prog.dl --goal p
    python -m repro decide containment --program prog.dl --goal p \\
        --union-depth 2
    python -m repro analyze --program prog.dl --goal p --format json
    python -m repro analyze --all-scenarios
    python -m repro eval --program tc.dl --db facts.dl --goal p
    python -m repro serve --socket /tmp/repro.sock --workers 2
    python -m repro request --socket /tmp/repro.sock \\
        '{"op": "scenario", "scenario": "bounded_buys"}'
    python -m repro scenarios --scenarios tag:bench --workers 4
    python -m repro fuzz --seed 0 --iterations 50

``--program`` / ``--nonrecursive`` / ``--union`` / ``--db`` accept a
file path or inline Datalog source.  Exit status: 0 on a completed
decision (whatever the verdict), 1 when ``--expect`` was given and the
verdict's truth value did not match it, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .budget import BudgetExhausted, time_budget
from .datalog.database import Database
from .datalog.errors import ReproError
from .datalog.parser import parse_program
from .datalog.program import Program
from .runner.batch import ENGINE_CONFIGS
from .session import Decision, Session, decide_payload


def _read_source(spec: str) -> str:
    """*spec* is a path (read it) or inline Datalog source (use it)."""
    path = Path(spec)
    try:
        if path.exists() and path.is_file():
            return path.read_text()
    except OSError:
        pass
    return spec


def _read_program(spec: str) -> Program:
    return parse_program(_read_source(spec))


def _session(args) -> Session:
    return Session(engine=ENGINE_CONFIGS[args.engine], name="cli")


def _emit(decision: Decision, as_json: bool) -> None:
    record = decision.record()
    if as_json:
        print(json.dumps(record, indent=2, sort_keys=True, default=str))
        return
    print(f"kind        {record['kind']}")
    print(f"verdict     {json.dumps(record['verdict'], default=str)}")
    if decision.checksum:
        print(f"checksum    {decision.checksum}")
    if record["stats"]:
        print(f"stats       {json.dumps(record['stats'], default=str)}")
    print(f"timings     {json.dumps(record['timings'])}")
    print(f"fingerprint {record['fingerprint']}")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--engine", choices=sorted(ENGINE_CONFIGS),
                        default="columnar",
                        help="evaluation engine config (default: columnar)")
    parser.add_argument("--json", action="store_true",
                        help="print the full Decision record as JSON")
    parser.add_argument("--deadline", type=float, default=None,
                        help="wall-clock deadline in seconds for the "
                             "decision (exit 2 when it fires)")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Unified CLI over the repro Session API.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    decide = sub.add_parser(
        "decide", help="run one decision procedure from the shell")
    decide.add_argument("kind",
                        choices=("containment", "equivalence", "boundedness"))
    decide.add_argument("--program", required=True,
                        help="path or inline Datalog source of Pi")
    decide.add_argument("--goal", required=True,
                        help="goal predicate of Pi")
    decide.add_argument("--nonrecursive", default=None,
                        help="[equivalence] path/source of nonrecursive Pi'")
    decide.add_argument("--nonrecursive-goal", default=None,
                        help="[equivalence] Pi' goal (default: --goal)")
    decide.add_argument("--union", default=None,
                        help="[containment] path/source of a nonrecursive "
                             "program unfolded into the target UCQ")
    decide.add_argument("--union-goal", default=None,
                        help="[containment] goal of --union (default: --goal)")
    decide.add_argument("--union-depth", type=int, default=None,
                        help="[containment] use Pi's own depth-k expansion "
                             "union as the target (truncation test)")
    decide.add_argument("--max-depth", type=int, default=4,
                        help="[boundedness] search depth bound (default: 4)")
    decide.add_argument("--expect", choices=("true", "false"), default=None,
                        help="exit 1 unless the verdict matches")
    _add_config_flags(decide)

    analyze = sub.add_parser(
        "analyze",
        help="static analysis: typed diagnostics and class certificates")
    analyze.add_argument("--program", default=None,
                         help="path or inline Datalog source to analyze")
    analyze.add_argument("--goal", default=None,
                         help="goal predicate (enables reachability and "
                              "boundedness certificates)")
    analyze.add_argument("--format", choices=("text", "json"),
                         default="text",
                         help="report format (default: text)")
    analyze.add_argument("--scenario", default=None,
                         help="analyze one registry scenario's program")
    analyze.add_argument("--all-scenarios", action="store_true",
                         help="analyze every registry scenario program; "
                              "exit 1 if any carries error diagnostics")

    evalp = sub.add_parser(
        "eval", help="bottom-up evaluation of a program over facts")
    evalp.add_argument("--program", required=True,
                       help="path or inline Datalog source")
    evalp.add_argument("--db", required=True,
                       help="path or inline ground facts (e(a, b). ...)")
    evalp.add_argument("--goal", required=True, help="goal predicate")
    evalp.add_argument("--max-stages", type=int, default=None,
                       help="stage bound (the paper's Q^i semantics)")
    _add_config_flags(evalp)

    serve = sub.add_parser(
        "serve", help="run the decision service daemon (repro.service)")
    serve.add_argument("--socket", default=None,
                       help="unix socket path to bind")
    serve.add_argument("--tcp", default=None, metavar="HOST:PORT",
                       help="TCP endpoint to bind (port 0 picks a free "
                            "one; printed on the ready line)")
    serve.add_argument("--workers", type=int, default=2,
                       help="pool workers (default: 2)")
    serve.add_argument("--executor", choices=("process", "thread"),
                       default="process",
                       help="worker executor (default: process)")
    serve.add_argument("--queue", type=int, default=64,
                       help="admission capacity: max requests in service "
                            "at once (default: 64)")
    serve.add_argument("--max-attempts", type=int, default=3,
                       help="tries per request before a typed quarantine "
                            "error (default: 3)")
    serve.add_argument("--deadline", type=float, default=None,
                       help="default per-request deadline in seconds "
                            "(a request's own deadline_s overrides)")
    serve.add_argument("--chaos", default=None,
                       help="fault-schedule spec for drills (same grammar "
                            "as REPRO_CHAOS)")
    serve.add_argument("--result-cache", type=int, default=0, metavar="N",
                       help="served-decision result cache capacity "
                            "(entries; default 0 = off).  Hits replay "
                            "the stored record without an admission "
                            "slot or a worker dispatch")
    serve.add_argument("--result-cache-ttl", type=float, default=None,
                       metavar="SECONDS",
                       help="expire result-cache entries after this "
                            "many seconds (default: no expiry)")

    request = sub.add_parser(
        "request", help="send one JSON request to a running daemon")
    request.add_argument("line",
                         help="the request JSON object, e.g. "
                              "'{\"op\": \"status\"}'")
    request.add_argument("--socket", default=None,
                         help="unix socket path of the daemon")
    request.add_argument("--tcp", default=None, metavar="HOST:PORT",
                         help="TCP endpoint of the daemon")
    request.add_argument("--timeout", type=float, default=60.0,
                         help="client timeout in seconds (default: 60)")

    fuzz = sub.add_parser(
        "fuzz", help="differential fuzz sweep; exits 1 on any divergence")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="base seed of the deterministic case stream "
                           "(default: 0)")
    fuzz.add_argument("--iterations", type=int, default=50,
                      help="number of cases to draw (default: 50)")
    fuzz.add_argument("--matrix", choices=("full", "quick"), default="full",
                      help="evaluation matrix: full = every backend x "
                           "strategy, quick = one strategy per backend")
    fuzz.add_argument("--shrink", dest="shrink", action="store_true",
                      default=True,
                      help="delta-debug failures to minimal reproducers "
                           "(default)")
    fuzz.add_argument("--no-shrink", dest="shrink", action="store_false",
                      help="record raw failing cases without minimizing")
    fuzz.add_argument("--max-failures", type=int, default=1,
                      help="stop after this many diverging cases "
                           "(default: 1)")
    fuzz.add_argument("--out", type=Path, default=None,
                      help="directory for minimized regression files "
                           "(default: tests/regressions/ of the checkout)")
    fuzz.add_argument("--chaos-seed", type=int, default=None,
                      help="chaos mode: deterministically plant "
                           "memory/hang/corrupt faults on first tries "
                           "and prove the sweep recovers from each")

    sub.add_parser(
        "scenarios", add_help=False,
        help="scenario-matrix batch runner (try: scenarios --help)")
    return parser


def _cmd_decide(args) -> int:
    if args.kind == "equivalence" and args.nonrecursive is None:
        print("decide equivalence requires --nonrecursive", file=sys.stderr)
        return 2
    if args.kind == "containment" and \
            (args.union is None) == (args.union_depth is None):
        print("decide containment requires exactly one of --union / "
              "--union-depth", file=sys.stderr)
        return 2
    # The deadline covers the union's unfolding in the payload too.
    with time_budget(args.deadline):
        decision = _session(args).run_payload(
            args.kind, decide_payload(vars(args), _read_program),
            deadline=args.deadline)
    _emit(decision, args.json)
    if args.expect is not None:
        if bool(decision) != (args.expect == "true"):
            print(f"FAIL: expected {args.expect}, verdict says "
                  f"{bool(decision)}", file=sys.stderr)
            return 1
    return 0


def _emit_report(name: Optional[str], report, as_json: bool) -> None:
    if as_json:
        record = report.as_dict()
        if name is not None:
            record = {"scenario": name, **record}
        print(json.dumps(record, indent=2, sort_keys=True))
        return
    if name is not None:
        print(f"=== {name}")
    print(report.render())


def _cmd_analyze(args) -> int:
    from .analysis import analyze_program, analyze_source

    targets = []
    if args.all_scenarios or args.scenario:
        from .workloads.scenarios import REGISTRY, get_scenario

        names = (sorted(REGISTRY) if args.all_scenarios
                 else [args.scenario])
        for name in names:
            scenario = get_scenario(name)
            payload = scenario.build()
            targets.append((name, payload["program"], payload.get("goal"),
                            "active-domain" in scenario.tags))
    elif args.program is not None:
        targets.append((None, _read_source(args.program), args.goal, False))
    else:
        print("analyze requires --program, --scenario, or "
              "--all-scenarios", file=sys.stderr)
        return 2

    failed = 0
    for name, program, goal, allow_unsafe in targets:
        if isinstance(program, str):
            report = analyze_source(program, goal)
        else:
            report = analyze_program(program, goal)
        _emit_report(name, report, args.format == "json")
        if report.ok:
            continue
        if allow_unsafe and all(d.code == "E001" for d in report.errors):
            # Scenarios tagged active-domain opt into unsafe rules
            # (the Section 5.3/6 lower-bound encodings); E001 is
            # expected there, anything else still fails the sweep.
            print(f"note: {name}: E001 accepted (active-domain scenario)")
            continue
        failed += 1
    if len(targets) > 1:
        print(f"analyzed {len(targets)} program(s), "
              f"{failed} with error diagnostics")
    return 1 if failed else 0


def _cmd_eval(args) -> int:
    session = _session(args)
    database = Database.from_source(_read_source(args.db))
    decision = session.query(_read_program(args.program), database,
                             args.goal, max_stages=args.max_stages,
                             deadline=args.deadline)
    _emit(decision, args.json)
    if not args.json:
        rows = sorted(tuple(str(constant.value) for constant in row)
                      for row in decision.raw)
        for row in rows:
            print(f"  {args.goal}({', '.join(row)})")
    return 0


def _parse_tcp(spec: Optional[str]):
    if spec is None:
        return None
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise ReproError(f"--tcp expects HOST:PORT, got {spec!r}")
    return (host or "127.0.0.1", int(port))


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from .service import PoolConfig, ServiceConfig, ServiceServer

    try:
        config = ServiceConfig(
            socket_path=args.socket,
            tcp=_parse_tcp(args.tcp),
            capacity=args.queue,
            result_cache=args.result_cache,
            result_cache_ttl_s=args.result_cache_ttl,
            pool=PoolConfig(workers=args.workers, executor=args.executor,
                            max_attempts=args.max_attempts,
                            deadline_s=args.deadline, chaos=args.chaos))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    async def run() -> None:
        server = ServiceServer(config)
        await server.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, server.request_stop)
        # The ready line: flushed so wrappers (CI, the load driver)
        # can wait for it before connecting.
        print(f"repro-service ready on {' '.join(server.endpoints)} "
              f"(workers={config.pool.workers} "
              f"executor={config.pool.executor} "
              f"queue={config.capacity})", flush=True)
        await server.serve_until_stopped()

    asyncio.run(run())
    return 0


def _cmd_request(args) -> int:
    from .service.client import ServiceClient

    if (args.socket is None) == (args.tcp is None):
        print("request requires exactly one of --socket / --tcp",
              file=sys.stderr)
        return 2
    try:
        fields = json.loads(args.line)
    except json.JSONDecodeError as exc:
        print(f"error: request is not valid JSON: {exc}", file=sys.stderr)
        return 2
    with ServiceClient(socket_path=args.socket, tcp=_parse_tcp(args.tcp),
                       timeout=args.timeout) as client:
        response = client.request(fields)
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0 if response.get("type") in ("decision", "status", "ok") else 1


def _cmd_fuzz(args) -> int:
    from .fuzz import run_fuzz

    report = run_fuzz(seed=args.seed, iterations=args.iterations,
                      matrix=args.matrix, shrink=args.shrink,
                      out_dir=args.out, max_failures=args.max_failures,
                      chaos_seed=args.chaos_seed)
    kinds = ", ".join(f"{kind}={count}"
                      for kind, count in sorted(report.by_kind.items()))
    print(f"fuzz: seed={report.seed} cases={report.cases_run} "
          f"matrix={report.matrix} ({kinds})")
    if report.chaos_seed is not None:
        print(f"fuzz: chaos seed {report.chaos_seed}: "
              f"{report.faults_injected} fault(s) injected, "
              f"{report.faults_recovered} recovered")
    if report.ok:
        print("fuzz: all cells agree on every case")
        return 0
    for divergence in report.divergences:
        print(f"fuzz: DIVERGENCE {divergence.describe()}", file=sys.stderr)
    for case, path in zip(report.minimized, report.written):
        print(f"fuzz: minimized reproducer ({len(case.program.rules)} "
              f"rules) written to {path}", file=sys.stderr)
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Pass-through subcommands keep their own argparse (and --help).
    if argv and argv[0] == "scenarios":
        from .runner.cli import main as runner_main

        return runner_main(argv[1:])

    args = _parser().parse_args(argv)
    try:
        if args.command == "decide":
            return _cmd_decide(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "request":
            return _cmd_request(args)
        if args.command == "fuzz":
            return _cmd_fuzz(args)
    except BudgetExhausted as exc:
        print(f"error: {exc} (raise --deadline or drop it)",
              file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2  # unreachable: argparse enforces the subcommand set


if __name__ == "__main__":
    sys.exit(main())
