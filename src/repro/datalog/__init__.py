"""Datalog substrate: language, parser, databases, evaluation, analysis.

This subpackage implements everything the paper assumes about Datalog
itself (Section 2.1): the rule language, bottom-up evaluation, the
dependence graph with its recursion/linearity classification, and the
rewriting of nonrecursive programs into unions of conjunctive queries.
"""

from .atoms import Atom, make_atom
from .database import Database
from .engine import (
    Engine,
    EngineConfig,
    EvaluationResult,
    default_engine,
    evaluate,
    naive_evaluate,
    query,
    seminaive_evaluate,
)
from .plan import JoinPlan, PlanCache, compile_program
from .columns import (
    ColumnStore,
    columnar_naive,
    columnar_seminaive,
    edb_image,
)
from .errors import (
    ArityError,
    EvaluationError,
    NotLinearError,
    NotNonrecursiveError,
    ParseError,
    ReproError,
    UnsafeProgramError,
    ValidationError,
)
from .parser import parse_atom, parse_program, parse_rule
from .printer import program_to_source, rule_to_source
from .program import Program
from .rules import Rule
from .terms import Constant, FreshVariableFactory, Term, Variable
from .analysis import (
    dependence_graph,
    is_linear,
    is_nonrecursive,
    is_recursive,
    recursive_predicates,
    slice_for_goal,
    strongly_connected_components,
    topological_order,
)
from .magic import MagicRewriting, derived_fact_count, magic_query, magic_rewrite
from .unfold import count_expansions, expansion_union, expansions, unfold_nonrecursive
from .uniform import (
    rule_uniformly_subsumed,
    uniformly_contained_in,
    uniformly_equivalent,
)

__all__ = [
    "ArityError",
    "Atom",
    "ColumnStore",
    "Constant",
    "Database",
    "Engine",
    "EngineConfig",
    "EvaluationError",
    "EvaluationResult",
    "FreshVariableFactory",
    "JoinPlan",
    "MagicRewriting",
    "NotLinearError",
    "NotNonrecursiveError",
    "ParseError",
    "PlanCache",
    "Program",
    "ReproError",
    "Rule",
    "Term",
    "UnsafeProgramError",
    "ValidationError",
    "Variable",
    "columnar_naive",
    "columnar_seminaive",
    "compile_program",
    "count_expansions",
    "default_engine",
    "dependence_graph",
    "derived_fact_count",
    "edb_image",
    "evaluate",
    "expansion_union",
    "expansions",
    "is_linear",
    "is_nonrecursive",
    "is_recursive",
    "magic_query",
    "magic_rewrite",
    "make_atom",
    "naive_evaluate",
    "parse_atom",
    "parse_program",
    "parse_rule",
    "program_to_source",
    "query",
    "recursive_predicates",
    "rule_to_source",
    "rule_uniformly_subsumed",
    "seminaive_evaluate",
    "slice_for_goal",
    "strongly_connected_components",
    "topological_order",
    "unfold_nonrecursive",
    "uniformly_contained_in",
    "uniformly_equivalent",
]
