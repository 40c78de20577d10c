"""The names ``perfbench/spans.py`` patches still exist and are still
on the production path.

The tracer wraps functions by ``module:attribute`` name, so a rename
in ``src/`` silently breaks ``perfbench/run.py --trace 1``.  These
tests install the tracer, check every target resolved and was wrapped,
check that decision scenarios run through the wrapped names, and check
that uninstalling restores every original.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.session import Session
from repro.workloads.generators import automata_pair

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(target: str):
    """The object a target names, read the way the tracer reads it."""
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


@pytest.fixture
def spans():
    return _load_spans()


def test_every_target_resolves_is_wrapped_and_restored(spans):
    targets = [target for target, _layer in spans.LAYER_TARGETS]
    originals = {target: _resolve(target) for target in targets}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for target in targets:
            assert _resolve(target) is not originals[target], target
    finally:
        tracer.uninstall()
    for target in targets:
        assert _resolve(target) is originals[target], target


@pytest.mark.parametrize("scenario,layers", [
    ("equiv_buys_bounded", ("core.backward", "unfold.expand")),
    ("bounded_buys", ("core.bounded_probe", "unfold.expand")),
])
def test_decision_scenarios_run_through_the_patched_names(spans, scenario,
                                                          layers):
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert Session().run_scenario(scenario).ok
    finally:
        tracer.uninstall()
    for layer in layers:
        assert tracer.calls[layer] > 0, layer


@pytest.mark.parametrize("pathway", ["word", "tree"])
def test_automata_run_through_the_patched_names(spans, pathway):
    """The fronts decide every registry decision outside tag:stress, so
    the automata's spans are checked on the pairs only they decide."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        decision = Session().contains(*automata_pair(pathway))
    finally:
        tracer.uninstall()
    assert decision.verdict == {"contained": True}
    for layer in ("core.search", "core.automaton_build"):
        assert tracer.calls[layer] > 0, layer
