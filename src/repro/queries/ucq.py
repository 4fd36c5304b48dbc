"""Unions of conjunctive queries (UCQ).

``Q = Q1 ∪ ... ∪ Qr`` where each ``Qi`` is a CQ with the same output arity.
The running item-recommendation example ("direct or one-stop flights") is a
UCQ with two disjuncts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Tuple

from repro.queries.base import Query
from repro.queries.cq import ConjunctiveQuery
from repro.relational.database import Database, Relation, Row
from repro.relational.errors import QueryError


@dataclass
class UnionOfConjunctiveQueries(Query):
    """A union of CQs sharing one answer schema."""

    disjuncts: Tuple[ConjunctiveQuery, ...]
    name: str = "Q"
    answer_name: str = Query.answer_name
    #: Each disjunct is a CQ, so the union reads only its own relations.
    active_domain_independent = True

    def __init__(
        self,
        disjuncts: Iterable[ConjunctiveQuery],
        name: str = "Q",
        answer_name: str = Query.answer_name,
    ) -> None:
        self.disjuncts = tuple(disjuncts)
        if not self.disjuncts:
            raise QueryError("a UCQ needs at least one disjunct")
        arities = {cq.output_arity for cq in self.disjuncts}
        if len(arities) != 1:
            raise QueryError(f"UCQ disjuncts disagree on output arity: {sorted(arities)}")
        self.name = name
        self.answer_name = answer_name

    @property
    def output_attributes(self) -> Tuple[str, ...]:
        return self.disjuncts[0].output_attributes

    def relations_used(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for cq in self.disjuncts:
            result |= cq.relations_used()
        return result

    def evaluate(
        self,
        database: Database,
        extra_relations=None,
    ) -> Relation:
        result = self.empty_answer()
        for cq in self.disjuncts:
            partial = cq.evaluate(database, extra_relations=extra_relations)
            result.add_all(partial.rows())
        return result

    def contains(self, database: Database, row: Row) -> bool:
        return any(cq.contains(database, row) for cq in self.disjuncts)

    def is_satisfiable_on(self, database: Database) -> bool:
        """Whether ``Q(D)`` is non-empty."""
        return any(cq.is_satisfiable_on(database) for cq in self.disjuncts)

    def body_size(self) -> int:
        """Total number of atoms across disjuncts."""
        return sum(cq.body_size() for cq in self.disjuncts)

    def constants(self):
        """All constants across disjuncts."""
        values = ()
        for cq in self.disjuncts:
            values += cq.constants()
        return values

    def __len__(self) -> int:
        return len(self.disjuncts)

    def __str__(self) -> str:
        return " ∪ ".join(str(cq) for cq in self.disjuncts)
