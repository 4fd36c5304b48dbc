"""First-order queries (relational calculus) under active-domain semantics.

FO adds negation and universal quantification to ∃FO+.  Following the standard
convention (and the paper's use of FO for, e.g., course-prerequisite
constraints), quantifiers range over the *active domain*: every constant in
the database, in the query, and in the optional extra relations (such as a
materialised candidate package).

Evaluation is the textbook structural recursion; its cost is polynomial in
``|D|`` for a fixed query but exponential in the quantifier depth of the
query, matching the paper's PSPACE combined complexity for FO.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.queries.ast import (
    And,
    Comparison,
    Const,
    Exists,
    ForAll,
    Formula,
    Not,
    Or,
    RelationAtom,
    Term,
    Var,
    as_term,
    formula_constants,
    free_variables,
    relation_names,
)
from repro.queries.base import Query
from repro.relational.database import Database, Relation, Row
from repro.relational.errors import EvaluationError, QueryError
from repro.relational.ordering import value_sort_key
from repro.relational.schema import Value
from repro.resilience.deadline import checked_deadline


@dataclass
class FirstOrderQuery(Query):
    """An FO query: output terms plus an arbitrary first-order formula."""

    head: Tuple[Term, ...]
    formula: Formula
    name: str = "Q"
    answer_name: str = Query.answer_name

    def __init__(
        self,
        head: Sequence["Term | Value"],
        formula: Formula,
        name: str = "Q",
        answer_name: str = Query.answer_name,
    ) -> None:
        self.head = tuple(as_term(t) for t in head)
        self.formula = formula
        self.name = name
        self.answer_name = answer_name
        head_vars = {t for t in self.head if isinstance(t, Var)}
        missing = head_vars - set(free_variables(formula))
        if missing:
            names = ", ".join(sorted(v.name for v in missing))
            raise QueryError(
                f"FO query {name!r}: head variables not free in the formula: {names}"
            )

    # -- Query interface ---------------------------------------------------------
    @property
    def output_attributes(self) -> Tuple[str, ...]:
        from repro.queries.cq import _head_attribute_names

        return _head_attribute_names(self.head)

    def relations_used(self) -> FrozenSet[str]:
        return relation_names(self.formula)

    def active_domain(
        self, database: Database, extra_relations: Optional[Mapping[str, Relation]] = None
    ) -> Tuple[Value, ...]:
        """``adom(Q, D)``: constants of the database, the query and extras."""
        domain = set(database.active_domain())
        domain.update(formula_constants(self.formula))
        domain.update(t.value for t in self.head if isinstance(t, Const))
        if extra_relations:
            for relation in extra_relations.values():
                domain |= relation.active_domain()
        return tuple(sorted(domain, key=value_sort_key))

    def evaluate(
        self,
        database: Database,
        extra_relations: Optional[Mapping[str, Relation]] = None,
    ) -> Relation:
        domain = self.active_domain(database, extra_relations)
        evaluator = _FormulaEvaluator(database, domain, extra_relations)
        result = self.empty_answer()
        head_vars: List[Var] = []
        seen = set()
        for term in self.head:
            if isinstance(term, Var) and term.name not in seen:
                head_vars.append(term)
                seen.add(term.name)
        for assignment in product(domain, repeat=len(head_vars)):
            binding = {var.name: value for var, value in zip(head_vars, assignment)}
            if evaluator.satisfies(self.formula, binding):
                result.add(
                    tuple(
                        binding[t.name] if isinstance(t, Var) else t.value for t in self.head
                    )
                )
        evaluator.finish()
        return result

    def contains(self, database: Database, row: Row) -> bool:
        row = tuple(row)
        if len(row) != len(self.head):
            return False
        binding: Dict[str, Value] = {}
        for term, value in zip(self.head, row):
            if isinstance(term, Const):
                if term.value != value:
                    return False
            else:
                if term.name in binding and binding[term.name] != value:
                    return False
                binding[term.name] = value
        domain = self.active_domain(database)
        evaluator = _FormulaEvaluator(database, domain, None)
        verdict = evaluator.satisfies(self.formula, binding)
        evaluator.finish()
        return verdict

    def is_boolean_true(self, database: Database) -> bool:
        """Evaluate a Boolean (0-ary) FO query to a truth value."""
        if self.head:
            raise QueryError("is_boolean_true is only defined for Boolean queries")
        domain = self.active_domain(database)
        evaluator = _FormulaEvaluator(database, domain, None)
        verdict = evaluator.satisfies(self.formula, {})
        evaluator.finish()
        return verdict

    def constants(self) -> Tuple[Value, ...]:
        """All constants in head and formula."""
        head_constants = tuple(t.value for t in self.head if isinstance(t, Const))
        return head_constants + formula_constants(self.formula)

    def __str__(self) -> str:
        head = ", ".join(str(t) for t in self.head)
        return f"{self.name}({head}) = {self.formula}"


class _FormulaEvaluator:
    """Structural-recursion satisfaction checking for FO formulas.

    Charges the ambient :class:`~repro.resilience.deadline.Deadline`, read
    and checked once when the evaluator is made, one step per
    :meth:`satisfies` call; the join-guided ``∃`` candidates charge it
    through :func:`~repro.queries.bindings.enumerate_bindings`.
    """

    def __init__(
        self,
        database: Database,
        domain: Sequence[Value],
        extra_relations: Optional[Mapping[str, Relation]],
    ) -> None:
        self._database = database
        self._domain = tuple(domain)
        self._extra = dict(extra_relations or {})
        self._deadline = checked_deadline()

    def finish(self) -> None:
        """Check the deadline once more: the run has reached its end."""
        if self._deadline is not None:
            self._deadline.check()

    def _relation(self, name: str) -> Relation:
        if name in self._extra:
            return self._extra[name]
        return self._database.relation(name)

    def satisfies(self, formula: Formula, binding: Mapping[str, Value]) -> bool:
        if self._deadline is not None:
            self._deadline.tick()
        if isinstance(formula, RelationAtom):
            values = []
            for term in formula.terms:
                if isinstance(term, Const):
                    values.append(term.value)
                else:
                    if term.name not in binding:
                        raise EvaluationError(
                            f"free variable {term.name!r} not bound during FO evaluation"
                        )
                    values.append(binding[term.name])
            relation = self._relation(formula.relation)
            if len(values) != relation.arity:
                raise EvaluationError(
                    f"atom {formula} has arity {len(values)} but relation "
                    f"{formula.relation!r} has arity {relation.arity}"
                )
            return tuple(values) in relation.rows()
        if isinstance(formula, Comparison):
            return formula.evaluate(binding)
        if isinstance(formula, And):
            return all(self.satisfies(op, binding) for op in formula.operands)
        if isinstance(formula, Or):
            return any(self.satisfies(op, binding) for op in formula.operands)
        if isinstance(formula, Not):
            return not self.satisfies(formula.operand, binding)
        if isinstance(formula, Exists):
            return self._quantify(formula.variables, formula.operand, binding, existential=True)
        if isinstance(formula, ForAll):
            return self._quantify(formula.variables, formula.operand, binding, existential=False)
        raise EvaluationError(f"unknown formula node: {formula!r}")

    def _quantify(
        self,
        variables: Tuple[Var, ...],
        operand: Formula,
        binding: Mapping[str, Value],
        existential: bool,
    ) -> bool:
        if existential:
            return self._exists(variables, operand, binding)
        names = [v.name for v in variables]
        for assignment in product(self._domain, repeat=len(names)):
            extended = dict(binding)
            extended.update(zip(names, assignment))
            if not self.satisfies(operand, extended):
                return False
        return True

    def _exists(
        self, variables: Tuple[Var, ...], operand: Formula, binding: Mapping[str, Value]
    ) -> bool:
        """Existential quantification with join-guided candidate generation.

        When the operand is a conjunction containing positive relation atoms,
        candidate bindings for the quantified variables are generated by
        matching those atoms against the database (a backtracking join) instead
        of iterating the full ``|adom|^n`` product; quantified variables that do
        not occur in any positive atom still range over the active domain.
        This changes nothing semantically — every satisfying binding must
        satisfy the positive conjuncts — but makes the FO compatibility
        constraints of realistic workloads tractable.
        """
        names = {v.name for v in variables}
        positive_atoms: List[RelationAtom] = []
        if isinstance(operand, And):
            positive_atoms = [f for f in operand.operands if isinstance(f, RelationAtom)]
        elif isinstance(operand, RelationAtom):
            positive_atoms = [operand]
        guided = [v for v in variables if any(v in atom.variables() for atom in positive_atoms)]
        free_iteration = [v for v in variables if v not in guided]

        if positive_atoms and guided:
            from repro.queries.bindings import enumerate_bindings

            initial = {
                name: value for name, value in binding.items() if name not in names
            }
            seen = set()
            try:
                candidate_bindings = enumerate_bindings(
                    self._database,
                    positive_atoms,
                    (),
                    initial_binding=initial,
                    extra_relations=self._extra,
                )
            except Exception:  # pragma: no cover - fall back to plain iteration
                candidate_bindings = None
            if candidate_bindings is not None:
                for candidate in candidate_bindings:
                    key = tuple(candidate.get(v.name) for v in guided)
                    if key in seen:
                        continue
                    seen.add(key)
                    partial = dict(binding)
                    partial.update({v.name: candidate[v.name] for v in guided if v.name in candidate})
                    if self._exists_iterate(free_iteration, operand, partial):
                        return True
                return False
        return self._exists_iterate(list(variables), operand, binding)

    def _exists_iterate(
        self, variables: Sequence[Var], operand: Formula, binding: Mapping[str, Value]
    ) -> bool:
        if not variables:
            return self.satisfies(operand, binding)
        first, rest = variables[0], variables[1:]
        for value in self._domain:
            extended = dict(binding)
            extended[first.name] = value
            if self._exists_iterate(rest, operand, extended):
                return True
        return False
