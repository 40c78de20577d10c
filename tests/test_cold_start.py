"""Cold start: the layers a fresh interpreter loads for each entry point.

Every check runs in a new interpreter and reads its ``sys.modules``,
so nothing this test process has already imported can hide a load.
An evaluation caller never loads the decision stack (the automata,
proof trees and conjunctive queries), and neither evaluation nor a
decision loads the batch runner, the service, the scenario registry,
the lower-bound encodings or the fuzz harness.  The service daemon
loads the whole decision stack before its pool forks; the service
client loads none of it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

DECISION_LAYERS = ("repro.core.", "repro.automata", "repro.trees", "repro.cq")
HARNESS_LAYERS = ("repro.runner", "repro.service", "repro.workloads",
                  "repro.lowerbounds", "repro.fuzz")

BUYS = ("buys(X, Y) :- likes(X, Y). "
        "buys(X, Y) :- trendy(X), buys(Z, Y).")
BUYS_NONRECURSIVE = ("buys(X, Y) :- likes(X, Y). "
                     "buys(X, Y) :- trendy(X), likes(Z, Y).")
CHAIN = "p(X, Y) :- e(X, Y). p(X, Y) :- e(X, Z), p(Z, Y)."
CHAIN_DEPTH_2 = "p(X, Y) :- e(X, Y). p(X, Y) :- e(X, Z), e(Z, Y)."


def _fresh(code: str) -> str:
    """The last stdout line of *code* run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def _loaded_after(code: str) -> list:
    """The ``repro`` modules a fresh interpreter holds after *code*."""
    return json.loads(_fresh(
        code + "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.startswith('repro'))))\n"))


def _cli(*argv: str) -> str:
    """Code that runs ``python -m repro`` on *argv* and checks exit 0."""
    return ("from repro.__main__ import main\n"
            f"assert main({list(argv)!r}) == 0\n")


def _under(modules, prefixes):
    """The *modules* inside any of *prefixes*: a package with its
    submodules, or its submodules alone when the prefix ends in a dot."""
    return [name for name in modules
            if any(name == prefix or name.startswith(prefix.rstrip(".") + ".")
                   for prefix in prefixes)]


def test_lazy_packages_import_no_submodule():
    """A package ``__init__`` that imported a submodule would hold the
    package's import lock while waiting for the submodule's, which a
    thread importing that submodule holds while waiting for the
    package: two first decisions at once could deadlock."""
    packages = ["repro", "repro.datalog", "repro.core", "repro.cq",
                "repro.automata", "repro.trees", "repro.service"]
    loaded = _loaded_after(f"import {', '.join(packages)}\n")
    assert sorted(loaded) == sorted(packages + ["repro.lazy"])


def test_session_loads_only_the_evaluation_stack():
    loaded = _loaded_after("import repro\nrepro.Session()\n")
    assert "repro.datalog.engine" in loaded
    assert _under(loaded, DECISION_LAYERS + HARNESS_LAYERS) == []


def test_cli_eval_loads_only_the_evaluation_stack():
    loaded = _loaded_after(_cli(
        "eval", "--program", "p(X, Y) :- e(X, Y).",
        "--db", "e(1, a). e(b, 2).", "--goal", "p"))
    assert "repro.datalog.columns" in loaded
    assert _under(loaded, DECISION_LAYERS + HARNESS_LAYERS) == []


def test_cli_decide_loads_no_harness():
    loaded = _loaded_after(_cli(
        "decide", "containment", "--program", CHAIN, "--goal", "p",
        "--union-depth", "2", "--expect", "false"))
    assert "repro.core.containment" in loaded
    assert _under(loaded, HARNESS_LAYERS) == []


def test_free_functions_build_the_default_session():
    """A caller of the free functions alone never imports
    ``repro.session``; the default session is still built."""
    assert _fresh(
        "from repro.core import clear_shared_caches\n"
        "clear_shared_caches()\n"
        "from repro.context import current_session\n"
        "print(current_session().name)\n") == "default"


def test_service_client_loads_no_decision_stack():
    """``python -m repro request`` needs the wire protocol only: no
    engine, parser or worker pool, and neither ``asyncio`` nor
    ``concurrent.futures``."""
    loaded = _loaded_after(
        "from repro.service.client import ServiceClient\n"
        "import sys\n"
        "assert 'asyncio' not in sys.modules\n"
        "assert 'concurrent.futures' not in sys.modules\n")
    assert "repro.service.protocol" in loaded
    assert _under(loaded, ("repro.runner", "repro.workloads",
                           "repro.lowerbounds", "repro.core.",
                           "repro.datalog", "repro.resilience",
                           "repro.session")) == []


def test_service_preloads_the_decision_stack():
    """Pool workers fork from the daemon warm: importing the server
    loads every module a session method imports on first use."""
    loaded = _loaded_after("import repro.service.server\n")
    assert {"repro.core.boundedness", "repro.core.containment",
            "repro.core.equivalence", "repro.cq.query",
            "repro.datalog.magic", "repro.datalog.unfold"} <= set(loaded)


THREADED_FIRST_DECISIONS = f"""
import json, sys, threading
from repro import Session
from repro.datalog.parser import parse_program

BUYS = parse_program({BUYS!r})
CHAIN = parse_program({CHAIN!r})
DECIDE = {{
    "equivalence": lambda: Session().equivalent_to_nonrecursive(
        BUYS, parse_program({BUYS_NONRECURSIVE!r}), "buys"),
    "boundedness": lambda: Session().bounded(BUYS, "buys"),
    "containment": lambda: Session().contains_nonrecursive(
        CHAIN, "p", parse_program({CHAIN_DEPTH_2!r})),
}}
KINDS = sorted(DECIDE)
ORDERS = [KINDS, KINDS[1:] + KINDS[:1], KINDS[2:] + KINDS[:2], KINDS[::-1]]
barrier = threading.Barrier(len(ORDERS))
results = [None] * len(ORDERS)


def run(slot):
    barrier.wait()
    try:
        results[slot] = {{kind: DECIDE[kind]().verdict
                         for kind in ORDERS[slot]}}
    except Exception as exc:
        results[slot] = repr(exc)


# Switch threads often, so the imports interleave.
sys.setswitchinterval(1e-5)
threads = [threading.Thread(target=run, args=(slot,))
           for slot in range(len(ORDERS))]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
assert not any(thread.is_alive() for thread in threads)
print(json.dumps(results, sort_keys=True))
"""


def test_concurrent_first_decisions_agree():
    """Four threads import the decision stack at once, each through
    its first decisions on fresh sessions, in different orders: each
    decision kind enters the stack through its own module."""
    results = json.loads(_fresh(THREADED_FIRST_DECISIONS))
    assert all(isinstance(result, dict) for result in results), results
    first, *others = results
    assert all(other == first for other in others)
    assert first["equivalence"]["equivalent"] is True
    assert first["boundedness"]["bounded"] is True
    assert first["containment"]["contained"] is False
