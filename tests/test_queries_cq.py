"""Tests for conjunctive queries and the shared binding enumeration."""

import pytest

from repro.queries import ConjunctiveQuery, answer_size, cq_from_formula
from repro.queries.ast import And, Comparison, Exists, RelationAtom, Var
from repro.queries.bindings import enumerate_bindings
from repro.relational import Database
from repro.relational.errors import EvaluationError, QueryError
from repro.resilience.deadline import Deadline, deadline_scope


@pytest.fixture
def graph(edge_database: Database) -> Database:
    return edge_database


class TestConjunctiveQuery:
    def test_single_atom(self, graph: Database):
        x, y = Var("x"), Var("y")
        query = ConjunctiveQuery([x, y], [RelationAtom("edge", [x, y])])
        assert query.evaluate(graph).rows() == graph.relation("edge").rows()

    def test_join(self, graph: Database):
        x, y, z = Var("x"), Var("y"), Var("z")
        query = ConjunctiveQuery(
            [x, z], [RelationAtom("edge", [x, y]), RelationAtom("edge", [y, z])]
        )
        assert query.evaluate(graph).rows() == {(1, 3), (1, 4), (2, 4)}

    def test_constant_in_atom(self, graph: Database):
        y = Var("y")
        query = ConjunctiveQuery([y], [RelationAtom("edge", [2, y])])
        assert query.evaluate(graph).rows() == {(3,), (4,)}

    def test_comparison_filters(self, graph: Database):
        x, y = Var("x"), Var("y")
        query = ConjunctiveQuery(
            [x, y], [RelationAtom("edge", [x, y])], [Comparison(">", y, 3)]
        )
        assert query.evaluate(graph).rows() == {(3, 4), (2, 4)}

    def test_repeated_head_variable(self, graph: Database):
        x, y = Var("x"), Var("y")
        query = ConjunctiveQuery([x, x, y], [RelationAtom("edge", [x, y])])
        assert (1, 1, 2) in query.evaluate(graph).rows()
        assert query.output_attributes == ("x", "x_2", "y")

    def test_constant_in_head(self, graph: Database):
        x, y = Var("x"), Var("y")
        query = ConjunctiveQuery(["flag", x], [RelationAtom("edge", [x, y])])
        assert ("flag", 1) in query.evaluate(graph).rows()

    def test_unsafe_head_variable_rejected(self):
        x, y = Var("x"), Var("y")
        with pytest.raises(QueryError):
            ConjunctiveQuery([x, y], [RelationAtom("edge", [x, x])])

    def test_unsafe_comparison_variable_rejected(self):
        x, z = Var("x"), Var("z")
        with pytest.raises(QueryError):
            ConjunctiveQuery([x], [RelationAtom("edge", [x, x])], [Comparison("=", z, 1)])

    def test_boolean_query(self, graph: Database):
        x = Var("x")
        query = ConjunctiveQuery([], [RelationAtom("edge", [x, 4])])
        assert len(query.evaluate(graph)) == 1  # non-empty means "true"
        empty = ConjunctiveQuery([], [RelationAtom("edge", [x, 99])])
        assert len(empty.evaluate(graph)) == 0

    def test_contains_binds_head(self, graph: Database):
        x, y = Var("x"), Var("y")
        query = ConjunctiveQuery([x, y], [RelationAtom("edge", [x, y])])
        assert query.contains(graph, (1, 2)) is True
        assert query.contains(graph, (1, 3)) is False
        assert query.contains(graph, (1,)) is False

    def test_is_satisfiable_on(self, graph: Database):
        x = Var("x")
        assert ConjunctiveQuery([x], [RelationAtom("edge", [x, 4])]).is_satisfiable_on(graph)
        assert not ConjunctiveQuery([x], [RelationAtom("edge", [x, 42])]).is_satisfiable_on(graph)

    def test_constants_and_body_size(self):
        x, y = Var("x"), Var("y")
        query = ConjunctiveQuery(
            [x], [RelationAtom("edge", [x, y]), RelationAtom("edge", [y, 7])], [Comparison(">", x, 0)]
        )
        assert 7 in query.constants()
        assert 0 in query.constants()
        assert query.body_size() == 3

    def test_relations_used(self):
        x = Var("x")
        query = ConjunctiveQuery([x], [RelationAtom("a", [x]), RelationAtom("b", [x])])
        assert query.relations_used() == frozenset({"a", "b"})

    def test_to_formula_roundtrip(self, graph: Database):
        x, y, z = Var("x"), Var("y"), Var("z")
        query = ConjunctiveQuery(
            [x, z], [RelationAtom("edge", [x, y]), RelationAtom("edge", [y, z])]
        )
        rebuilt = cq_from_formula([x, z], query.to_formula())
        assert rebuilt.evaluate(graph).rows() == query.evaluate(graph).rows()

    def test_cq_from_formula_rejects_disjunction(self):
        from repro.queries.ast import Or

        x = Var("x")
        with pytest.raises(QueryError):
            cq_from_formula([x], Or(RelationAtom("a", [x]), RelationAtom("b", [x])))

    def test_answer_relation_name(self, graph: Database):
        x, y = Var("x"), Var("y")
        query = ConjunctiveQuery([x, y], [RelationAtom("edge", [x, y])], answer_name="ANSWERS")
        assert query.evaluate(graph).name == "ANSWERS"


class TestBindingEnumeration:
    def test_step_budget_limits_work(self, graph: Database):
        x, y, z, w = Var("x"), Var("y"), Var("z"), Var("w")
        atoms = [RelationAtom("edge", [x, y]), RelationAtom("edge", [z, w])]
        with deadline_scope(Deadline(max_steps=3)), pytest.raises(EvaluationError):
            list(enumerate_bindings(graph, atoms))

    def test_initial_binding_restricts_results(self, graph: Database):
        x, y = Var("x"), Var("y")
        bindings = list(
            enumerate_bindings(graph, [RelationAtom("edge", [x, y])], initial_binding={"x": 2})
        )
        assert {binding["y"] for binding in bindings} == {3, 4}

    def test_extra_relations_override(self, graph: Database):
        from repro.relational import Relation, RelationSchema

        x, y = Var("x"), Var("y")
        override = Relation(RelationSchema("edge", ["a", "b"]), [(9, 9)])
        bindings = list(
            enumerate_bindings(
                graph, [RelationAtom("edge", [x, y])], extra_relations={"edge": override}
            )
        )
        assert [{**b} for b in bindings] == [{"x": 9, "y": 9}]

    def test_unbound_comparison_raises(self, graph: Database):
        x, y, z = Var("x"), Var("y"), Var("z")
        atoms = [RelationAtom("edge", [x, y])]
        comparisons = [Comparison("=", z, 1)]
        with pytest.raises(EvaluationError):
            list(enumerate_bindings(graph, atoms, comparisons))


class TestAnswerSize:
    """``answer_size`` evaluates once, under the ambient deadline."""

    def _recording(self, query: ConjunctiveQuery):
        calls = []
        evaluate = query.evaluate

        def recorded(database, extra_relations=None):
            calls.append(database)
            return evaluate(database, extra_relations=extra_relations)

        query.evaluate = recorded
        return calls

    def test_counts_under_the_ambient_deadline(self, graph: Database):
        x, y = Var("x"), Var("y")
        query = ConjunctiveQuery([x, y], [RelationAtom("edge", [x, y])])
        calls = self._recording(query)
        with deadline_scope(Deadline()) as budget:
            assert answer_size(query, graph) == len(graph.relation("edge"))
        assert calls == [graph] and budget.steps > 0

    def test_a_type_error_in_the_evaluation_propagates_after_one_run(self):
        database = Database()
        database.create_relation("item", ["iid", "value"], [(1, 1), (2, "b")])
        v, w = Var("v"), Var("w")
        query = ConjunctiveQuery(
            [],
            [RelationAtom("item", [Var("x"), v]), RelationAtom("item", [Var("y"), w])],
            [Comparison("<", v, w)],
        )
        calls = self._recording(query)
        with deadline_scope(Deadline(max_steps=10_000)), pytest.raises(TypeError):
            answer_size(query, database)
        assert calls == [database]

    def test_a_query_without_extra_parameters_is_evaluated_once(self, graph: Database):
        x, y = Var("x"), Var("y")
        inner = ConjunctiveQuery([x, y], [RelationAtom("edge", [x, y])])
        calls = []

        class Bare:
            def evaluate(self, database):
                calls.append(database)
                return inner.evaluate(database)

        assert answer_size(Bare(), graph) == len(graph.relation("edge"))
        assert calls == [graph]
