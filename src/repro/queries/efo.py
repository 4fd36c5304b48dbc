"""Positive existential first-order queries (∃FO+).

Formulas built from atoms with ∧, ∨ and ∃.  Evaluation proceeds by
standardising bound variables apart, flattening to disjunctive normal form and
reusing the conjunctive-query machinery per disjunct; this mirrors the
textbook equivalence ∃FO+ ≡ UCQ (with the usual exponential worst case in the
formula size, which is exactly the combined-complexity behaviour the paper
studies).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.queries.ast import (
    And,
    Comparison,
    Exists,
    Formula,
    Or,
    RelationAtom,
    Term,
    Var,
    as_term,
    formula_constants,
    free_variables,
    is_positive_existential,
    relation_names,
    substitute,
    fresh_variables,
)
from repro.queries.base import Query
from repro.queries.cq import ConjunctiveQuery
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.relational.database import Database, Relation, Row
from repro.relational.errors import QueryError
from repro.relational.schema import Value


def _standardise_apart(formula: Formula, factory) -> Formula:
    """Rename every quantified variable to a fresh name.

    After this pass the quantifiers can be dropped safely: no two quantifiers
    bind the same name and bound names never clash with free names.
    """
    if isinstance(formula, (RelationAtom, Comparison)):
        return formula
    if isinstance(formula, And):
        return And(*(_standardise_apart(op, factory) for op in formula.operands))
    if isinstance(formula, Or):
        return Or(*(_standardise_apart(op, factory) for op in formula.operands))
    if isinstance(formula, Exists):
        mapping: Dict[Var, Term] = {var: factory.fresh() for var in formula.variables}
        renamed_body = substitute(formula.operand, mapping)
        return Exists(
            tuple(mapping[var] for var in formula.variables),
            _standardise_apart(renamed_body, factory),
        )
    raise QueryError(f"node not allowed in ∃FO+: {formula!r}")


def _strip_quantifiers(formula: Formula) -> Formula:
    if isinstance(formula, (RelationAtom, Comparison)):
        return formula
    if isinstance(formula, And):
        return And(*(_strip_quantifiers(op) for op in formula.operands))
    if isinstance(formula, Or):
        return Or(*(_strip_quantifiers(op) for op in formula.operands))
    if isinstance(formula, Exists):
        return _strip_quantifiers(formula.operand)
    raise QueryError(f"node not allowed in ∃FO+: {formula!r}")


def _to_dnf(formula: Formula) -> List[List[Formula]]:
    """Disjunctive normal form as a list of conjunctions of atoms."""
    if isinstance(formula, (RelationAtom, Comparison)):
        return [[formula]]
    if isinstance(formula, Or):
        result: List[List[Formula]] = []
        for operand in formula.operands:
            result.extend(_to_dnf(operand))
        return result
    if isinstance(formula, And):
        if not formula.operands:
            return [[]]
        operand_dnfs = [_to_dnf(op) for op in formula.operands]
        result = []
        for combination in product(*operand_dnfs):
            merged: List[Formula] = []
            for conjunct in combination:
                merged.extend(conjunct)
            result.append(merged)
        return result
    raise QueryError(f"node not allowed in quantifier-free ∃FO+: {formula!r}")


@dataclass
class PositiveExistentialQuery(Query):
    """An ∃FO+ query: a head plus a positive existential formula."""

    head: Tuple[Term, ...]
    formula: Formula
    name: str = "Q"
    answer_name: str = Query.answer_name
    #: Evaluated through the UCQ rewriting, which reads only its relations.
    active_domain_independent = True

    def __init__(
        self,
        head: Sequence["Term | Value"],
        formula: Formula,
        name: str = "Q",
        answer_name: str = Query.answer_name,
    ) -> None:
        if not is_positive_existential(formula):
            raise QueryError(
                "formula is outside ∃FO+ (only atoms, AND, OR and EXISTS are allowed)"
            )
        self.head = tuple(as_term(t) for t in head)
        self.formula = formula
        self.name = name
        self.answer_name = answer_name
        self._ucq: Optional[UnionOfConjunctiveQueries] = None

    # -- normalisation ---------------------------------------------------------
    def to_ucq(self) -> UnionOfConjunctiveQueries:
        """The equivalent UCQ (computed once and cached)."""
        if self._ucq is None:
            factory = fresh_variables("_e")
            renamed = _standardise_apart(self.formula, factory)
            stripped = _strip_quantifiers(renamed)
            disjuncts = []
            for index, conjunction in enumerate(_to_dnf(stripped), start=1):
                atoms = [a for a in conjunction if isinstance(a, RelationAtom)]
                comparisons = [a for a in conjunction if isinstance(a, Comparison)]
                disjuncts.append(
                    ConjunctiveQuery(
                        self.head,
                        atoms,
                        comparisons,
                        name=f"{self.name}_{index}",
                        answer_name=self.answer_name,
                    )
                )
            self._ucq = UnionOfConjunctiveQueries(
                disjuncts, name=self.name, answer_name=self.answer_name
            )
        return self._ucq

    # -- Query interface ----------------------------------------------------------
    @property
    def output_attributes(self) -> Tuple[str, ...]:
        return self.to_ucq().output_attributes

    def relations_used(self) -> FrozenSet[str]:
        return relation_names(self.formula)

    def evaluate(
        self,
        database: Database,
        extra_relations=None,
    ) -> Relation:
        return self.to_ucq().evaluate(database, extra_relations=extra_relations)

    def contains(self, database: Database, row: Row) -> bool:
        return self.to_ucq().contains(database, row)

    def is_satisfiable_on(self, database: Database) -> bool:
        """Whether ``Q(D)`` is non-empty."""
        return self.to_ucq().is_satisfiable_on(database)

    def constants(self) -> Tuple[Value, ...]:
        """All constants in the formula and head."""
        head_constants = tuple(t.value for t in self.head if not isinstance(t, Var))
        return head_constants + formula_constants(self.formula)

    def free_variables(self) -> FrozenSet[Var]:
        """Free variables of the formula."""
        return free_variables(self.formula)

    def __str__(self) -> str:
        head = ", ".join(str(t) for t in self.head)
        return f"{self.name}({head}) = {self.formula}"
