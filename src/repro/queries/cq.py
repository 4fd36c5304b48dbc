"""Conjunctive queries (CQ).

A conjunctive query has a head of output terms and a body that is a
conjunction of relation atoms and built-in comparisons; all body variables not
in the head are implicitly existentially quantified.  This is the base
language of the paper: the running travel example, the compatibility
constraint "no more than two museums" and most hardness gadgets are CQs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Sequence, Tuple

from repro.queries.ast import (
    And,
    Comparison,
    Const,
    Exists,
    Formula,
    RelationAtom,
    Term,
    Var,
    as_term,
    is_conjunctive,
)
from repro.queries.base import Query, unique_attribute_names
from repro.queries.bindings import enumerate_bindings, project_bindings
from repro.relational.database import Database, Relation, Row
from repro.relational.errors import QueryError
from repro.relational.schema import Value


def _head_attribute_names(head: Sequence[Term]) -> Tuple[str, ...]:
    raw = []
    for position, term in enumerate(head, start=1):
        if isinstance(term, Var):
            raw.append(term.name)
        else:
            raw.append(f"c{position}")
    return unique_attribute_names(raw)


@dataclass
class ConjunctiveQuery(Query):
    """``Q(head) = ∃ (bound vars) body-atoms``.

    Parameters
    ----------
    head:
        Output terms; variables must occur in some relation atom of the body
        (safety), constants are allowed and returned verbatim.
    atoms:
        Relation atoms of the body.
    comparisons:
        Built-in predicate atoms of the body.
    name:
        Optional human-readable query name.
    answer_name:
        Name of the answer relation ``RQ`` (referenced by compatibility
        constraints).
    """

    head: Tuple[Term, ...]
    atoms: Tuple[RelationAtom, ...]
    comparisons: Tuple[Comparison, ...] = ()
    name: str = "Q"
    answer_name: str = Query.answer_name
    #: Bindings come only from matching body atoms against their relations.
    active_domain_independent = True

    def __init__(
        self,
        head: Sequence["Term | Value"],
        atoms: Iterable[RelationAtom],
        comparisons: Iterable[Comparison] = (),
        name: str = "Q",
        answer_name: str = Query.answer_name,
    ) -> None:
        self.head = tuple(as_term(t) for t in head)
        self.atoms = tuple(atoms)
        self.comparisons = tuple(comparisons)
        self.name = name
        self.answer_name = answer_name
        self._validate_safety()

    # -- construction helpers ------------------------------------------------
    def _validate_safety(self) -> None:
        body_vars: FrozenSet[Var] = frozenset()
        for atom in self.atoms:
            body_vars |= atom.variables()
        for term in self.head:
            if isinstance(term, Var) and term not in body_vars:
                raise QueryError(
                    f"unsafe conjunctive query {self.name!r}: head variable "
                    f"{term.name!r} does not occur in any relation atom"
                )
        for comparison in self.comparisons:
            for var in comparison.variables():
                if var not in body_vars:
                    raise QueryError(
                        f"unsafe conjunctive query {self.name!r}: comparison variable "
                        f"{var.name!r} does not occur in any relation atom"
                    )

    # -- Query interface -------------------------------------------------------
    @property
    def output_attributes(self) -> Tuple[str, ...]:
        return _head_attribute_names(self.head)

    def relations_used(self) -> FrozenSet[str]:
        return frozenset(atom.relation for atom in self.atoms)

    def evaluate(
        self,
        database: Database,
        extra_relations=None,
    ) -> Relation:
        result = self.empty_answer()
        for row in project_bindings(
            database,
            self.atoms,
            self.comparisons,
            self.head,
            extra_relations=extra_relations,
        ):
            result.add(row)
        return result

    def is_satisfiable_on(
        self,
        database: Database,
        extra_relations=None,
    ) -> bool:
        """Whether ``Q(D)`` is non-empty (early exit after the first answer)."""
        for _ in enumerate_bindings(
            database,
            self.atoms,
            self.comparisons,
            extra_relations=extra_relations,
        ):
            return True
        return False

    def contains(self, database: Database, row: Row) -> bool:
        """Membership check that binds head variables before searching."""
        row = tuple(row)
        if len(row) != len(self.head):
            return False
        initial: dict = {}
        for term, value in zip(self.head, row):
            if isinstance(term, Const):
                if term.value != value:
                    return False
            else:
                if term.name in initial and initial[term.name] != value:
                    return False
                initial[term.name] = value
        for binding in enumerate_bindings(
            database, self.atoms, self.comparisons, initial_binding=initial
        ):
            return True
        return False

    # -- structural accessors ----------------------------------------------------
    def variables(self) -> FrozenSet[Var]:
        """All variables of head and body."""
        result: FrozenSet[Var] = frozenset(t for t in self.head if isinstance(t, Var))
        for atom in self.atoms:
            result |= atom.variables()
        for comparison in self.comparisons:
            result |= comparison.variables()
        return result

    def constants(self) -> Tuple[Value, ...]:
        """All constants of head and body, with duplicates."""
        values: Tuple[Value, ...] = tuple(t.value for t in self.head if isinstance(t, Const))
        for atom in self.atoms:
            values += atom.constants()
        for comparison in self.comparisons:
            values += comparison.constants()
        return values

    def body_size(self) -> int:
        """Number of body atoms, a natural size measure for scaling studies."""
        return len(self.atoms) + len(self.comparisons)

    def to_formula(self) -> Formula:
        """The body as an ∃-quantified formula (head variables stay free)."""
        body: Formula = And(*(self.atoms + self.comparisons)) if (self.atoms or self.comparisons) else And()
        head_vars = frozenset(t for t in self.head if isinstance(t, Var))
        bound = sorted(
            (v for v in self.variables() - head_vars), key=lambda v: v.name
        )
        if bound:
            return Exists(tuple(bound), body)
        return body

    def __str__(self) -> str:
        head = ", ".join(str(t) for t in self.head)
        body = " ∧ ".join([str(a) for a in self.atoms] + [str(c) for c in self.comparisons])
        return f"{self.name}({head}) :- {body}"


def cq_from_formula(
    head: Sequence["Term | Value"], formula: Formula, name: str = "Q"
) -> ConjunctiveQuery:
    """Build a CQ from an ∃/∧ formula by flattening it into a list of atoms."""
    if not is_conjunctive(formula):
        raise QueryError("formula is not in the CQ fragment (only atoms, AND, EXISTS allowed)")
    atoms: list = []
    comparisons: list = []

    def collect(node: Formula) -> None:
        if isinstance(node, RelationAtom):
            atoms.append(node)
        elif isinstance(node, Comparison):
            comparisons.append(node)
        elif isinstance(node, And):
            for operand in node.operands:
                collect(operand)
        elif isinstance(node, Exists):
            collect(node.operand)
        else:  # pragma: no cover - guarded by is_conjunctive
            raise QueryError(f"unexpected node in CQ formula: {node!r}")

    collect(formula)
    return ConjunctiveQuery(head, atoms, comparisons, name=name)
