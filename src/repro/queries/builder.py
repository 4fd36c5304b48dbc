"""Convenience constructors for building queries programmatically.

The hardness reductions and the workload generators build many queries whose
shape depends on instance parameters (number of variables, number of clauses,
...).  The helpers here keep that construction code readable:

>>> x, y = variables("x y")
>>> q = cq([x, y], [atom("edge", x, y)], [neq(x, y)], name="distinct_edges")
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple, Union

from repro.queries.ast import (
    Comparison,
    ComparisonOp,
    Exists,
    Formula,
    Not,
    RelationAtom,
    Term,
    Var,
    as_term,
)
from repro.queries.cq import ConjunctiveQuery
from repro.queries.datalog import DatalogProgram, DatalogRule
from repro.queries.efo import PositiveExistentialQuery
from repro.queries.fo import FirstOrderQuery
from repro.queries.sp import SPQuery
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.relational.schema import Value

TermLike = Union[Term, Value]


def variables(names: "str | Iterable[str]") -> Tuple[Var, ...]:
    """Create variables from a space-separated string or an iterable of names."""
    if isinstance(names, str):
        names = names.split()
    return tuple(Var(name) for name in names)


def var(name: str) -> Var:
    """A single variable."""
    return Var(name)


def atom(relation: str, *terms: TermLike) -> RelationAtom:
    """A relation atom ``relation(terms...)``; raw values become constants."""
    return RelationAtom(relation, [as_term(t) for t in terms])


def comparison(op: "ComparisonOp | str", left: TermLike, right: TermLike) -> Comparison:
    """A comparison atom."""
    return Comparison(op, as_term(left), as_term(right))


def eq(left: TermLike, right: TermLike) -> Comparison:
    """``left = right``."""
    return comparison(ComparisonOp.EQ, left, right)


def neq(left: TermLike, right: TermLike) -> Comparison:
    """``left ≠ right``."""
    return comparison(ComparisonOp.NE, left, right)


def lt(left: TermLike, right: TermLike) -> Comparison:
    """``left < right``."""
    return comparison(ComparisonOp.LT, left, right)


def le(left: TermLike, right: TermLike) -> Comparison:
    """``left ≤ right``."""
    return comparison(ComparisonOp.LE, left, right)


def gt(left: TermLike, right: TermLike) -> Comparison:
    """``left > right``."""
    return comparison(ComparisonOp.GT, left, right)


def ge(left: TermLike, right: TermLike) -> Comparison:
    """``left ≥ right``."""
    return comparison(ComparisonOp.GE, left, right)


def negation(formula: Formula) -> Not:
    """Negation (FO only)."""
    return Not(formula)


def exists(vars_: "Var | Sequence[Var]", formula: Formula) -> Exists:
    """Existential quantification."""
    return Exists(vars_, formula)


def cq(
    head: Sequence[TermLike],
    atoms: Iterable[RelationAtom],
    comparisons: Iterable[Comparison] = (),
    name: str = "Q",
) -> ConjunctiveQuery:
    """A conjunctive query."""
    return ConjunctiveQuery(head, atoms, comparisons, name=name)


def ucq(disjuncts: Iterable[ConjunctiveQuery], name: str = "Q") -> UnionOfConjunctiveQueries:
    """A union of conjunctive queries."""
    return UnionOfConjunctiveQueries(disjuncts, name=name)


def efo(head: Sequence[TermLike], formula: Formula, name: str = "Q") -> PositiveExistentialQuery:
    """A positive existential FO query."""
    return PositiveExistentialQuery(head, formula, name=name)


def fo(head: Sequence[TermLike], formula: Formula, name: str = "Q") -> FirstOrderQuery:
    """A first-order query."""
    return FirstOrderQuery(head, formula, name=name)


def sp(
    relation: str,
    relation_terms: Sequence[TermLike],
    head: Sequence[TermLike],
    comparisons: Iterable[Comparison] = (),
    name: str = "Q",
) -> SPQuery:
    """A selection-projection query."""
    return SPQuery(relation, relation_terms, head, comparisons, name=name)


def rule(
    head: RelationAtom,
    body: Iterable[RelationAtom] = (),
    comparisons: Iterable[Comparison] = (),
) -> DatalogRule:
    """A Datalog rule."""
    return DatalogRule(head, body, comparisons)


def datalog(rules: Iterable[DatalogRule], output: str, name: str = "Q") -> DatalogProgram:
    """A (possibly recursive) Datalog program."""
    return DatalogProgram(rules, output, name=name)
