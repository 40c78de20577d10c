"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import gc
import random
import threading

import pytest

from repro.datalog.database import Database
from repro.datalog.parser import parse_program


@pytest.fixture
def tc_program():
    """Example 2.5: transitive closure with distinct base relation."""
    return parse_program(
        """
        p(X, Y) :- e(X, Z), p(Z, Y).
        p(X, Y) :- e0(X, Y).
        """
    )


@pytest.fixture
def buys1():
    """Example 1.1 Pi_1 (bounded)."""
    return parse_program(
        """
        buys(X, Y) :- likes(X, Y).
        buys(X, Y) :- trendy(X), buys(Z, Y).
        """
    )


@pytest.fixture
def buys1_nr():
    return parse_program(
        """
        buys(X, Y) :- likes(X, Y).
        buys(X, Y) :- trendy(X), likes(Z, Y).
        """
    )


@pytest.fixture
def buys2():
    """Example 1.1 Pi_2 (inherently recursive)."""
    return parse_program(
        """
        buys(X, Y) :- likes(X, Y).
        buys(X, Y) :- knows(X, Z), buys(Z, Y).
        """
    )


@pytest.fixture
def buys2_nr():
    return parse_program(
        """
        buys(X, Y) :- likes(X, Y).
        buys(X, Y) :- knows(X, Z), likes(Z, Y).
        """
    )


def random_database(rng: random.Random, predicates, constants=("a", "b", "c"),
                    max_facts: int = 6) -> Database:
    """A small random database over the given (name, arity) pairs."""
    db = Database()
    for predicate, arity in predicates:
        for _ in range(rng.randint(0, max_facts)):
            db.add(predicate, tuple(rng.choice(constants) for _ in range(arity)))
    return db


def random_graph_database(rng: random.Random, nodes: int = 5,
                          edge_prob: float = 0.4,
                          edge_pred: str = "e") -> Database:
    """A random directed graph as a database."""
    db = Database()
    names = [f"n{i}" for i in range(nodes)]
    for a in names:
        for b in names:
            if rng.random() < edge_prob:
                db.add(edge_pred, (a, b))
    if len(db) == 0:
        db.add(edge_pred, (names[0], names[min(1, nodes - 1)]))
    return db


def run_in_thread(fn, timeout: float = 30.0):
    """``fn()`` on a worker thread; returns its result or raises its
    exception.  A wedged thread fails the test instead of hanging it
    (it is a daemon, so it cannot keep the interpreter alive)."""
    box = {}

    def runner():
        try:
            box["result"] = fn()
        except BaseException as exc:  # noqa: BLE001 - relayed to the test
            box["error"] = exc

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    thread.join(timeout=timeout)
    assert not thread.is_alive(), f"worker thread still running after {timeout}s"
    if "error" in box:
        raise box["error"]
    return box.get("result")


@pytest.fixture
def frozen_heap():
    """Move every object the test process already holds into the
    collector's permanent generation for the test's duration, so a
    wall-clock assertion times the code under test rather than a full
    collection over the heap earlier tests left behind (several
    million objects late in the suite, about 2 s per pass; a forked
    pool worker inherits the same heap)."""
    gc.freeze()
    yield
    gc.unfreeze()
