"""Datalog substrate: language, parser, databases, evaluation, analysis.

This subpackage implements everything the paper assumes about Datalog
itself (Section 2.1): the rule language, bottom-up evaluation, the
dependence graph with its recursion/linearity classification, and the
rewriting of nonrecursive programs into unions of conjunctive queries.
"""

from ..lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".atoms": "Atom make_atom",
    ".database": "Database",
    ".engine": "Engine EngineConfig default_engine evaluate naive_evaluate"
               " query seminaive_evaluate",
    ".result": "EvaluationResult",
    ".plan": "JoinPlan PlanCache compile_program",
    ".columns": "ColumnStore columnar_naive columnar_seminaive edb_image",
    ".errors": "ArityError NotLinearError NotNonrecursiveError ParseError"
               " ReproError UnsafeProgramError ValidationError",
    ".parser": "parse_atom parse_program parse_rule",
    ".printer": "program_to_source rule_to_source",
    ".program": "Program",
    ".rules": "Rule",
    ".terms": "Constant FreshVariableFactory Term Variable",
    ".analysis": "dependence_graph is_linear is_nonrecursive is_recursive"
                 " recursive_predicates slice_for_goal"
                 " strongly_connected_components topological_order",
    ".magic": "MagicRewriting derived_fact_count magic_query magic_rewrite",
    ".unfold": "count_expansions expansion_union expansions"
               " unfold_nonrecursive",
    ".uniform": "rule_uniformly_subsumed uniformly_contained_in"
                " uniformly_equivalent",
})

__all__ = [
    "ArityError",
    "Atom",
    "ColumnStore",
    "Constant",
    "Database",
    "Engine",
    "EngineConfig",
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
