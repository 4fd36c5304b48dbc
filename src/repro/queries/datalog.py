"""Datalog and non-recursive Datalog.

A program is a set of rules ``p(x̄) ← p1(x̄1), ..., pn(x̄n)`` whose head
predicates are the IDB relations; body atoms may refer to database (EDB)
relations, IDB relations and built-in comparisons.  The *dependency graph*
has the program's predicates as nodes and an edge ``(p', p)`` whenever ``p'``
occurs in the body of a rule with head ``p``; a program is non-recursive when
this graph is acyclic (Section 2 of the paper).

* :class:`DatalogProgram` evaluates by semi-naive fixpoint iteration and
  therefore supports recursion (flight connectivity, transitive prerequisite
  closure, ...).
* :class:`NonRecursiveDatalogProgram` additionally checks acyclicity and
  evaluates predicates in topological order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.queries.ast import Comparison, Const, RelationAtom, Term, Var
from repro.queries.base import Query, unique_attribute_names
from repro.queries.bindings import project_bindings
from repro.relational.database import Database, Relation, Row
from repro.relational.errors import QueryError
from repro.relational.schema import RelationSchema, Value


@dataclass(frozen=True)
class DatalogRule:
    """One rule ``head ← body``."""

    head: RelationAtom
    body: Tuple[RelationAtom, ...]
    comparisons: Tuple[Comparison, ...] = ()

    def __init__(
        self,
        head: RelationAtom,
        body: Iterable[RelationAtom] = (),
        comparisons: Iterable[Comparison] = (),
    ) -> None:
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", tuple(body))
        object.__setattr__(self, "comparisons", tuple(comparisons))
        self._validate_safety()

    def _validate_safety(self) -> None:
        body_vars: Set[Var] = set()
        for atom in self.body:
            body_vars |= atom.variables()
        for term in self.head.terms:
            if isinstance(term, Var) and term not in body_vars:
                raise QueryError(
                    f"unsafe Datalog rule: head variable {term.name!r} of "
                    f"{self.head.relation!r} does not occur in the body"
                )
        for comparison in self.comparisons:
            missing = comparison.variables() - body_vars
            if missing:
                names = ", ".join(sorted(v.name for v in missing))
                raise QueryError(
                    f"unsafe Datalog rule for {self.head.relation!r}: comparison "
                    f"variables not bound in the body: {names}"
                )

    def body_predicates(self) -> FrozenSet[str]:
        """Relation names occurring in the body."""
        return frozenset(atom.relation for atom in self.body)

    def constants(self) -> Tuple[Value, ...]:
        """All constants of the rule."""
        values = self.head.constants()
        for atom in self.body:
            values += atom.constants()
        for comparison in self.comparisons:
            values += comparison.constants()
        return values

    def __str__(self) -> str:
        body = ", ".join([str(a) for a in self.body] + [str(c) for c in self.comparisons])
        return f"{self.head} :- {body}" if body else f"{self.head}."


class DatalogProgram(Query):
    """A (possibly recursive) Datalog program with a designated output predicate."""

    #: Rule bodies join EDB/IDB atoms; no quantification over the active domain.
    active_domain_independent = True

    def __init__(
        self,
        rules: Iterable[DatalogRule],
        output: str,
        name: str = "Q",
        answer_name: str = Query.answer_name,
    ) -> None:
        self.rules: Tuple[DatalogRule, ...] = tuple(rules)
        if not self.rules:
            raise QueryError("a Datalog program needs at least one rule")
        self.output = output
        self.name = name
        self.answer_name = answer_name
        self._idb_arities: Dict[str, int] = {}
        for rule in self.rules:
            arity = rule.head.arity
            existing = self._idb_arities.get(rule.head.relation)
            if existing is not None and existing != arity:
                raise QueryError(
                    f"predicate {rule.head.relation!r} used with arities "
                    f"{existing} and {arity}"
                )
            self._idb_arities[rule.head.relation] = arity
        if output not in self._idb_arities:
            raise QueryError(f"output predicate {output!r} is not the head of any rule")

    # -- structure --------------------------------------------------------------
    def idb_predicates(self) -> FrozenSet[str]:
        """Predicates defined by rules."""
        return frozenset(self._idb_arities)

    def edb_predicates(self) -> FrozenSet[str]:
        """Body predicates not defined by any rule (database relations)."""
        used: Set[str] = set()
        for rule in self.rules:
            used |= rule.body_predicates()
        return frozenset(used - self.idb_predicates())

    def relations_used(self) -> FrozenSet[str]:
        return self.edb_predicates()

    def dependency_graph(self) -> Dict[str, Set[str]]:
        """Adjacency sets: ``graph[p]`` is the set of predicates ``p`` depends on."""
        graph: Dict[str, Set[str]] = {p: set() for p in self._idb_arities}
        for rule in self.rules:
            graph[rule.head.relation] |= rule.body_predicates()
        return graph

    def is_recursive(self) -> bool:
        """Whether the dependency graph restricted to IDB predicates has a cycle."""
        graph = self.dependency_graph()
        idb = self.idb_predicates()
        colour: Dict[str, int] = {}

        def visit(node: str) -> bool:
            colour[node] = 1
            for successor in graph.get(node, ()):  # pragma: no branch
                if successor not in idb:
                    continue
                state = colour.get(successor, 0)
                if state == 1:
                    return True
                if state == 0 and visit(successor):
                    return True
            colour[node] = 2
            return False

        return any(colour.get(node, 0) == 0 and visit(node) for node in idb)

    def stratification(self) -> List[str]:
        """IDB predicates in a topological order of the dependency graph.

        Only defined for non-recursive programs; raises :class:`QueryError`
        when a cycle exists.
        """
        if self.is_recursive():
            raise QueryError("program is recursive; no topological order exists")
        graph = self.dependency_graph()
        idb = self.idb_predicates()
        order: List[str] = []
        visited: Set[str] = set()

        def visit(node: str) -> None:
            if node in visited or node not in idb:
                return
            visited.add(node)
            for dependency in sorted(graph.get(node, ())):
                visit(dependency)
            order.append(node)

        for node in sorted(idb):
            visit(node)
        return order

    @property
    def output_attributes(self) -> Tuple[str, ...]:
        arity = self._idb_arities[self.output]
        head = next(rule.head for rule in self.rules if rule.head.relation == self.output)
        raw = []
        for position, term in enumerate(head.terms, start=1):
            raw.append(term.name if isinstance(term, Var) else f"c{position}")
        names = unique_attribute_names(raw)
        return names[:arity]

    def constants(self) -> Tuple[Value, ...]:
        """All constants across all rules."""
        values: Tuple[Value, ...] = ()
        for rule in self.rules:
            values += rule.constants()
        return values

    def body_size(self) -> int:
        """Total number of body atoms, a size measure for scaling studies."""
        return sum(len(rule.body) + len(rule.comparisons) for rule in self.rules)

    # -- evaluation ----------------------------------------------------------------
    def _idb_schema(self, predicate: str) -> RelationSchema:
        arity = self._idb_arities[predicate]
        return RelationSchema(predicate, [f"a{i}" for i in range(1, arity + 1)])

    def _apply_rule(
        self,
        rule: DatalogRule,
        database: Database,
        idb: Mapping[str, Relation],
        delta: Optional[Mapping[str, Relation]] = None,
        delta_position: Optional[int] = None,
    ) -> Set[Row]:
        """All head tuples derivable by one rule.

        When ``delta``/``delta_position`` are given, the IDB atom at that body
        position reads from the delta relation instead of the full relation
        (the semi-naive restriction).
        """
        extra: Dict[str, Relation] = dict(idb)
        atoms = list(rule.body)
        if delta is not None and delta_position is not None:
            target = atoms[delta_position]
            alias = f"__delta__{target.relation}"
            extra[alias] = Relation(
                self._idb_schema(target.relation).rename(alias),
                delta[target.relation].rows(),
            )
            atoms[delta_position] = RelationAtom(alias, target.terms)
        return set(
            project_bindings(
                database,
                atoms,
                rule.comparisons,
                rule.head.terms,
                extra_relations=extra,
            )
        )

    def evaluate_all(self, database: Database) -> Dict[str, Relation]:
        """Fixpoint of the whole program: every IDB predicate's relation."""
        idb: Dict[str, Relation] = {
            predicate: Relation(self._idb_schema(predicate)) for predicate in self._idb_arities
        }
        # Round 0: rules fire on EDB-only information.
        delta: Dict[str, Set[Row]] = {predicate: set() for predicate in self._idb_arities}
        for rule in self.rules:
            for row in self._apply_rule(rule, database, idb):
                delta[rule.head.relation].add(row)
        while any(delta.values()):
            delta_relations = {
                predicate: Relation(self._idb_schema(predicate), rows)
                for predicate, rows in delta.items()
            }
            for predicate, rows in delta.items():
                idb[predicate].add_all(rows)
            new_delta: Dict[str, Set[Row]] = {predicate: set() for predicate in self._idb_arities}
            for rule in self.rules:
                idb_positions = [
                    index
                    for index, atom in enumerate(rule.body)
                    if atom.relation in self._idb_arities
                ]
                if not idb_positions:
                    continue
                for position in idb_positions:
                    if not delta_relations[rule.body[position].relation].rows():
                        continue
                    derived = self._apply_rule(
                        rule, database, idb, delta_relations, position
                    )
                    for row in derived:
                        if row not in idb[rule.head.relation].rows():
                            new_delta[rule.head.relation].add(row)
            delta = new_delta
        return idb

    def evaluate(self, database: Database, extra_relations=None) -> Relation:
        if extra_relations:
            database = database.copy()
            for name, relation in extra_relations.items():
                if name in database:
                    database = database.without_relation(name)
                database.add_relation(relation)
        idb = self.evaluate_all(database)
        result = self.empty_answer()
        result.add_all(idb[self.output].rows())
        return result

    def __str__(self) -> str:
        return "\n".join(str(rule) for rule in self.rules)


class NonRecursiveDatalogProgram(DatalogProgram):
    """A Datalog program whose dependency graph is required to be acyclic."""

    def __init__(
        self,
        rules: Iterable[DatalogRule],
        output: str,
        name: str = "Q",
        answer_name: str = Query.answer_name,
    ) -> None:
        super().__init__(rules, output, name=name, answer_name=answer_name)
        if self.is_recursive():
            raise QueryError(
                f"program {name!r} is recursive; use DatalogProgram for recursive queries"
            )

    def evaluate_all(self, database: Database) -> Dict[str, Relation]:
        """Evaluate predicates bottom-up along a topological order (no fixpoint)."""
        idb: Dict[str, Relation] = {
            predicate: Relation(self._idb_schema(predicate)) for predicate in self._idb_arities
        }
        rules_by_head: Dict[str, List[DatalogRule]] = {}
        for rule in self.rules:
            rules_by_head.setdefault(rule.head.relation, []).append(rule)
        for predicate in self.stratification():
            for rule in rules_by_head.get(predicate, ()):  # pragma: no branch
                idb[predicate].add_all(self._apply_rule(rule, database, idb))
        return idb
