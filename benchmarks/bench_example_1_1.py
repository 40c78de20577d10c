"""E1 -- Example 1.1: the flagship equivalence decisions.

Paper claim: Pi_1 is equivalent to its nonrecursive rewriting; Pi_2 is
not (it is inherently recursive).  Regenerates both verdicts and times
the full Theorem 6.5 decision.
"""

from repro.core import is_equivalent_to_nonrecursive
from repro.programs import (
    buys_bounded,
    buys_bounded_rewriting,
    buys_recursive,
    buys_recursive_rewriting,
)


def test_pi1_equivalence_decision(benchmark):
    pi1, rewrite = buys_bounded(), buys_bounded_rewriting()
    result = benchmark(
        lambda: is_equivalent_to_nonrecursive(pi1, rewrite, goal="buys")
    )
    assert result.equivalent
    benchmark.extra_info["verdict"] = "equivalent (matches paper)"


def test_pi2_equivalence_decision(benchmark):
    pi2, rewrite = buys_recursive(), buys_recursive_rewriting()
    result = benchmark(
        lambda: is_equivalent_to_nonrecursive(pi2, rewrite, goal="buys")
    )
    assert not result.equivalent
    assert result.backward_holds and not result.forward_holds
    benchmark.extra_info["verdict"] = "not equivalent (matches paper)"
    benchmark.extra_info["witness_height"] = result.forward_witness.height()


def test_pi2_word_pathway(benchmark):
    pi2, rewrite = buys_recursive(), buys_recursive_rewriting()
    result = benchmark(
        lambda: is_equivalent_to_nonrecursive(pi2, rewrite, goal="buys")
    )
    assert not result.equivalent
