"""SP queries and identity queries.

Section 6 of the paper singles out *SP queries* — selection plus projection
over one relation — as the prototypical language with a PTIME membership
problem, and uses the *identity query* (an SP query with no selection and full
projection) in several data-complexity lower bounds.

``Q(x̄) = ∃ x̄, ȳ (R(x̄, ȳ) ∧ ψ(x̄, ȳ))`` with ψ a conjunction of built-in
predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Sequence, Tuple

from repro.queries.ast import Comparison, Const, RelationAtom, Term, Var, as_term
from repro.queries.base import Query, unique_attribute_names
from repro.queries.cq import ConjunctiveQuery
from repro.relational.database import Database, Relation, Row
from repro.relational.errors import QueryError
from repro.relational.schema import Value
from repro.resilience.deadline import checked_deadline


@dataclass
class SPQuery(Query):
    """A selection-projection query over a single relation."""

    relation: str
    relation_terms: Tuple[Term, ...]
    head: Tuple[Term, ...]
    comparisons: Tuple[Comparison, ...] = ()
    name: str = "Q"
    answer_name: str = Query.answer_name
    #: A single scan of the one relation; nothing else is consulted.
    active_domain_independent = True

    def __init__(
        self,
        relation: str,
        relation_terms: Sequence["Term | Value"],
        head: Sequence["Term | Value"],
        comparisons: Iterable[Comparison] = (),
        name: str = "Q",
        answer_name: str = Query.answer_name,
    ) -> None:
        self.relation = relation
        self.relation_terms = tuple(as_term(t) for t in relation_terms)
        self.head = tuple(as_term(t) for t in head)
        self.comparisons = tuple(comparisons)
        self.name = name
        self.answer_name = answer_name
        atom_vars = {t.name for t in self.relation_terms if isinstance(t, Var)}
        for term in self.head:
            if isinstance(term, Var) and term.name not in atom_vars:
                raise QueryError(
                    f"SP query {name!r}: head variable {term.name!r} does not occur "
                    f"in the relation atom"
                )
        for comparison in self.comparisons:
            for var in comparison.variables():
                if var.name not in atom_vars:
                    raise QueryError(
                        f"SP query {name!r}: comparison variable {var.name!r} does not "
                        f"occur in the relation atom"
                    )

    # -- conversions ------------------------------------------------------------
    def atom(self) -> RelationAtom:
        """The single relation atom of the body."""
        return RelationAtom(self.relation, self.relation_terms)

    def to_cq(self) -> ConjunctiveQuery:
        """The same query as a :class:`ConjunctiveQuery`."""
        return ConjunctiveQuery(
            self.head,
            [self.atom()],
            self.comparisons,
            name=self.name,
            answer_name=self.answer_name,
        )

    # -- Query interface -----------------------------------------------------------
    @property
    def output_attributes(self) -> Tuple[str, ...]:
        raw = []
        for position, term in enumerate(self.head, start=1):
            raw.append(term.name if isinstance(term, Var) else f"c{position}")
        return unique_attribute_names(raw)

    def relations_used(self) -> FrozenSet[str]:
        return frozenset({self.relation})

    def evaluate(self, database: Database, extra_relations=None) -> Relation:
        """One scan of the relation, charging the ambient deadline one step per row."""
        deadline = checked_deadline()
        source = (
            extra_relations[self.relation]
            if extra_relations and self.relation in extra_relations
            else database.relation(self.relation)
        )
        result = self.empty_answer()
        for row in source:
            if deadline is not None:
                deadline.tick()
            binding = self._match(row)
            if binding is None:
                continue
            if all(c.evaluate(binding) for c in self.comparisons):
                result.add(
                    tuple(
                        binding[t.name] if isinstance(t, Var) else t.value for t in self.head
                    )
                )
        if deadline is not None:
            deadline.check()
        return result

    def _match(self, row: Row) -> Optional[dict]:
        if len(row) != len(self.relation_terms):
            return None
        binding: dict = {}
        for term, value in zip(self.relation_terms, row):
            if isinstance(term, Const):
                if term.value != value:
                    return None
            else:
                if term.name in binding and binding[term.name] != value:
                    return None
                binding[term.name] = value
        return binding

    def contains(self, database: Database, row: Row) -> bool:
        """PTIME membership check: scan the single relation once."""
        return tuple(row) in self.evaluate(database).rows()

    def constants(self) -> Tuple[Value, ...]:
        """All constants of the query."""
        values = tuple(t.value for t in self.relation_terms if isinstance(t, Const))
        values += tuple(t.value for t in self.head if isinstance(t, Const))
        for comparison in self.comparisons:
            values += comparison.constants()
        return values

    def __str__(self) -> str:
        head = ", ".join(str(t) for t in self.head)
        body = [str(self.atom())] + [str(c) for c in self.comparisons]
        return f"{self.name}({head}) :- " + " ∧ ".join(body)


def identity_query(
    relation_name: str,
    arity: "int | Sequence[str]",
    name: str = "Q",
    answer_name: str = Query.answer_name,
) -> SPQuery:
    """The identity query on a relation: select everything, project everything.

    ``arity`` is either the number of attributes (output attributes are then
    named ``x1, ..., xn``) or the attribute names themselves, in which case the
    answer schema reuses them — convenient when cost/val functions address
    attributes by name.

    The paper's data-complexity lower bounds (e.g. Lemma 4.4 and the
    MAX-WEIGHT SAT reduction) take ``Q`` to be exactly this query, which makes
    them apply to every language containing SP.
    """
    if isinstance(arity, int):
        variables = [Var(f"x{i}") for i in range(1, arity + 1)]
    else:
        variables = [Var(attribute) for attribute in arity]
    return SPQuery(relation_name, variables, variables, name=name, answer_name=answer_name)


def identity_query_for(relation, name: str = "Q", answer_name: str = Query.answer_name) -> SPQuery:
    """The identity query for a concrete :class:`~repro.relational.database.Relation`.

    The answer schema keeps the relation's attribute names.
    """
    return identity_query(
        relation.name, relation.schema.attribute_names, name=name, answer_name=answer_name
    )
