"""repro: reproduction of Chaudhuri & Vardi,
"On the Equivalence of Recursive and Nonrecursive Datalog Programs"
(PODS 1992; JCSS 54(1):61-78, 1997).

The package decides containment of recursive Datalog programs in
unions of conjunctive queries (Theorem 5.12) and equivalence of
recursive programs to nonrecursive programs (Theorem 6.5), using the
paper's proof-tree / tree-automaton machinery, and ships the paper's
lower-bound constructions as executable generators.

Quickstart (a live doctest -- ``tests/test_docs.py`` executes it):

    >>> from repro import parse_program, is_equivalent_to_nonrecursive
    >>> recursive = parse_program('''
    ...     buys(X, Y) :- likes(X, Y).
    ...     buys(X, Y) :- trendy(X), buys(Z, Y).
    ... ''')
    >>> nonrecursive = parse_program('''
    ...     buys(X, Y) :- likes(X, Y).
    ...     buys(X, Y) :- trendy(X), likes(Z, Y).
    ... ''')
    >>> bool(is_equivalent_to_nonrecursive(recursive, nonrecursive, goal="buys"))
    True

The same decision through the session facade (every decision
procedure is a :class:`~repro.session.Session` method returning a
uniform :class:`~repro.session.Decision`; it calls the free function
above and wraps its result):

    >>> from repro import Session
    >>> decision = Session().equivalent_to_nonrecursive(
    ...     recursive, nonrecursive, goal="buys")
    >>> decision.kind, decision.verdict["equivalent"]
    ('equivalence', True)
"""

from .datalog import (
    Atom,
    Constant,
    Database,
    Program,
    Rule,
    Variable,
    evaluate,
    is_linear,
    is_nonrecursive,
    is_recursive,
    make_atom,
    parse_atom,
    parse_program,
    parse_rule,
    query,
    unfold_nonrecursive,
)
from .cq import (
    ConjunctiveQuery,
    UnionOfConjunctiveQueries,
    cq_contained_in,
    cq_equivalent,
    evaluate_cq,
    minimize,
    ucq_contained_in,
)
from .core import (
    contained_in_cq,
    contained_in_nonrecursive,
    contained_in_ucq,
    cq_contained_in_datalog,
    decide_boundedness,
    is_equivalent_to_nonrecursive,
    nonrecursive_contained_in_datalog,
    ucq_contained_in_datalog,
)

from .session import (
    CachePolicy,
    Decision,
    Session,
    current_session,
    default_session,
)

__version__ = "1.0.0"

__all__ = [
    "Atom",
    "CachePolicy",
    "ConjunctiveQuery",
    "Constant",
    "Database",
    "Decision",
    "Program",
    "Rule",
    "Session",
    "UnionOfConjunctiveQueries",
    "Variable",
    "contained_in_cq",
    "contained_in_nonrecursive",
    "contained_in_ucq",
    "cq_contained_in",
    "cq_contained_in_datalog",
    "cq_equivalent",
    "current_session",
    "decide_boundedness",
    "default_session",
    "evaluate",
    "evaluate_cq",
    "is_equivalent_to_nonrecursive",
    "is_linear",
    "is_nonrecursive",
    "is_recursive",
    "make_atom",
    "minimize",
    "nonrecursive_contained_in_datalog",
    "parse_atom",
    "parse_program",
    "parse_rule",
    "query",
    "ucq_contained_in",
    "ucq_contained_in_datalog",
    "unfold_nonrecursive",
]
