"""Query languages of the paper and their evaluators.

Exports the AST building blocks, the concrete query classes for each language
LQ in {SP, CQ, UCQ, ∃FO+, DATALOG_nr, FO, DATALOG}, the language lattice, the
membership problem, the fluent builder helpers and a small rule parser.
"""

from repro.queries.ast import (
    And,
    Comparison,
    ComparisonOp,
    Const,
    Exists,
    ForAll,
    Formula,
    Not,
    Or,
    RelationAtom,
    Term,
    Var,
    free_variables,
)
from repro.queries.base import Query
from repro.queries.bindings import enumerate_bindings, enumerate_bindings_naive
from repro.queries.cq import ConjunctiveQuery, cq_from_formula
from repro.queries.datalog import DatalogProgram, DatalogRule, NonRecursiveDatalogProgram
from repro.queries.efo import PositiveExistentialQuery
from repro.queries.fo import FirstOrderQuery
from repro.queries.languages import (
    ALL_LANGUAGES,
    CQ_GROUP,
    DATALOG_GROUP,
    FO_GROUP,
    QueryLanguage,
    classify_query,
)
from repro.queries.membership import answer_size, is_empty, is_member
from repro.queries.parser import parse_cq, parse_program, parse_rule
from repro.queries.plan import (
    JoinPlan,
    PlannedAtom,
    PlannedRange,
    cached_plan,
    clear_plan_cache,
    plan_cache_info,
    plan_conjunction,
)
from repro.queries.sp import SPQuery, identity_query, identity_query_for
from repro.queries.ucq import UnionOfConjunctiveQueries

__all__ = [
    "ALL_LANGUAGES",
    "And",
    "CQ_GROUP",
    "Comparison",
    "ComparisonOp",
    "ConjunctiveQuery",
    "Const",
    "DATALOG_GROUP",
    "DatalogProgram",
    "DatalogRule",
    "Exists",
    "FO_GROUP",
    "FirstOrderQuery",
    "ForAll",
    "Formula",
    "JoinPlan",
    "PlannedAtom",
    "PlannedRange",
    "NonRecursiveDatalogProgram",
    "Not",
    "Or",
    "PositiveExistentialQuery",
    "Query",
    "QueryLanguage",
    "RelationAtom",
    "SPQuery",
    "Term",
    "UnionOfConjunctiveQueries",
    "Var",
    "answer_size",
    "cached_plan",
    "classify_query",
    "clear_plan_cache",
    "cq_from_formula",
    "enumerate_bindings",
    "enumerate_bindings_naive",
    "free_variables",
    "plan_cache_info",
    "plan_conjunction",
    "identity_query",
    "identity_query_for",
    "is_empty",
    "is_member",
    "parse_cq",
    "parse_program",
    "parse_rule",
]
