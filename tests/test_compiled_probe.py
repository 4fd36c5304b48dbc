"""The ``Qc`` probe against the copying reference.

:class:`~repro.core.compatibility.QueryConstraint` answers every probe by
overlaying the candidate package as ``RQ`` and evaluating ``Qc`` once, in
full.  Its verdict must equal :meth:`QueryConstraint.is_satisfied_copying`
— a fresh relation, a copied database and the whole answer — on random
packages of every size up to the bound, for a CQ ``Qc`` that joins a base
relation, for UCQ, ∃FO⁺ and FO ``Qc``, on a live database across commits to
the joined relation and on snapshots.  On a mixed-type column the probe must
raise exactly where the reference raises, including where a violation found
before the raising binding would have ended an early-exit search.  The probe
must also spend the ambient request deadline's step budget and honour its
wall clock.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core import QueryConstraint
from repro.core.packages import Package
from repro.queries.ast import And, Comparison, ComparisonOp, Exists, Or, RelationAtom, Var
from repro.queries.bindings import enumerate_bindings_naive
from repro.queries.cq import ConjunctiveQuery
from repro.queries.efo import PositiveExistentialQuery
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.relational.database import Database, Relation
from repro.relational.errors import StepLimitExceeded
from repro.resilience import Deadline, RequestTimeout, deadline_scope
from repro.workloads.courses import (
    PREREQ,
    prerequisite_closure_constraint,
    random_course_database,
)

SIZE_BOUND = 3
NUM_PACKAGES = 60

C, P = Var("c"), Var("p")


def _course(var: Var, suffix: str) -> RelationAtom:
    rest = [Var(f"{name}{suffix}") for name in ("t", "a", "cr", "s")]
    return RelationAtom("RQ", [var, *rest])


def prerequisite_pair_cq() -> ConjunctiveQuery:
    """A violation joining ``prereq``: a course and its prerequisite both chosen."""
    atoms = [_course(C, "1"), RelationAtom(PREREQ, [C, P]), _course(P, "2")]
    return ConjunctiveQuery([], atoms, name="pair")


def same_area_cq() -> ConjunctiveQuery:
    """A violation over ``RQ`` alone: two distinct courses of one area."""
    area = Var("area")
    first = RelationAtom("RQ", [C, Var("t1"), area, Var("cr1"), Var("s1")])
    second = RelationAtom("RQ", [P, Var("t2"), area, Var("cr2"), Var("s2")])
    return ConjunctiveQuery([], [first, second], [Comparison(ComparisonOp.NE, C, P)], name="area")


def prerequisite_or_area_efo() -> PositiveExistentialQuery:
    """The union of both violations, written as one ∃FO⁺ formula."""
    area = Var("area")
    return PositiveExistentialQuery(
        [],
        Exists(
            (C, P),
            Or(
                And(_course(C, "1"), RelationAtom(PREREQ, [C, P]), _course(P, "2")),
                And(
                    RelationAtom("RQ", [C, Var("t3"), area, Var("cr3"), Var("s3")]),
                    RelationAtom("RQ", [P, Var("t4"), area, Var("cr4"), Var("s4")]),
                    Comparison(ComparisonOp.NE, C, P),
                ),
            ),
        ),
        name="efo",
    )


CONSTRAINTS = {
    "cq_join": lambda: QueryConstraint(prerequisite_pair_cq()),
    "ucq": lambda: QueryConstraint(
        UnionOfConjunctiveQueries([prerequisite_pair_cq(), same_area_cq()])
    ),
    "efo": lambda: QueryConstraint(prerequisite_or_area_efo()),
    "fo_fallback": prerequisite_closure_constraint,
}


def _database(seed: int) -> Database:
    return random_course_database(12, prereq_probability=0.9, seed=seed)


def _random_packages(database: Database, seed: int):
    rng = random.Random(seed)
    courses = database.relation("course")
    rows = sorted(courses.rows())
    for _ in range(NUM_PACKAGES):
        yield Package(courses.schema, rng.sample(rows, rng.randint(0, SIZE_BOUND)))


def _assert_agrees(constraint, database, packages):
    for package in packages:
        expected = constraint.is_satisfied_copying(package, database)
        assert constraint.is_satisfied(package, database) is expected, sorted(package.items)


@pytest.mark.parametrize("kind", sorted(CONSTRAINTS))
@pytest.mark.parametrize("seed", range(4))
def test_probe_matches_copying_on_live_databases_and_snapshots(kind, seed):
    database = _database(seed)
    constraint = CONSTRAINTS[kind]()
    packages = list(_random_packages(database, seed))
    _assert_agrees(constraint, database, packages)
    _assert_agrees(constraint, database.snapshot(), packages)


@pytest.mark.parametrize("kind", sorted(CONSTRAINTS))
def test_probe_follows_commits_to_the_joined_relation(kind):
    database = _database(7)
    constraint = CONSTRAINTS[kind]()
    packages = list(_random_packages(database, 7))
    rng = random.Random(7)
    course_ids = sorted(row[0] for row in database.relation("course"))
    for _ in range(6):
        before = database.snapshot()
        _assert_agrees(constraint, database, packages)
        prereqs = sorted(database.relation(PREREQ).rows())
        delta = [("delete", PREREQ, rng.choice(prereqs))] if prereqs and rng.random() < 0.5 else []
        low, high = sorted(rng.sample(course_ids, 2))
        delta.append(("insert", PREREQ, (high, low)))
        database.apply_delta(delta)
        _assert_agrees(constraint, database, packages)
        # A snapshot pinned before the commit keeps answering its epoch.
        _assert_agrees(constraint, before, packages)


def _mixed_type_database() -> Database:
    """Items whose ``value`` column mixes ints and strings (malformed data)."""
    database = Database()
    database.create_relation(
        "item",
        ["iid", "grp", "value"],
        [(1, "g", 1), (2, "g", 2), (3, "h", "c"), (4, "h", 3), (5, "k", "d")],
    )
    return database


def _same_group_cq() -> ConjunctiveQuery:
    """A violation with no ordering comparison: two items of one group."""
    x, y, g = Var("x"), Var("y"), Var("g")
    atoms = [RelationAtom("RQ", [x, g, Var("v1")]), RelationAtom("RQ", [y, g, Var("v2")])]
    return ConjunctiveQuery([], atoms, [Comparison(ComparisonOp.NE, x, y)], name="group")


def _ordered_values_cq() -> ConjunctiveQuery:
    """A violation comparing values, which raises ``TypeError`` on int vs str."""
    v, w = Var("v"), Var("w")
    atoms = [
        RelationAtom("RQ", [Var("x"), Var("g1"), v]),
        RelationAtom("RQ", [Var("y"), Var("g2"), w]),
    ]
    return ConjunctiveQuery([], atoms, [Comparison(ComparisonOp.LT, v, w)], name="ordered")


def _mixed_type_efo() -> PositiveExistentialQuery:
    return PositiveExistentialQuery(
        [], Or(_same_group_cq().to_formula(), _ordered_values_cq().to_formula()), name="mixed"
    )


MIXED_TYPE_QUERIES = {
    "cq": _ordered_values_cq,
    # The first disjunct has no comparison: a search that stops at the first
    # violating binding returns before the second disjunct raises.
    "ucq": lambda: UnionOfConjunctiveQueries([_same_group_cq(), _ordered_values_cq()]),
    "efo": _mixed_type_efo,
}


def _outcome(probe, package, database):
    """A verdict, or the type of the exception the probe raised."""
    try:
        return probe(package, database)
    except Exception as error:  # noqa: BLE001 - the type is the outcome
        return type(error)


@pytest.mark.parametrize("pinned", [False, True], ids=["live", "snapshot"])
@pytest.mark.parametrize("kind", sorted(MIXED_TYPE_QUERIES))
def test_probe_raises_where_copying_raises_on_a_mixed_type_column(kind, pinned):
    database = _mixed_type_database()
    target = database.snapshot() if pinned else database
    query = MIXED_TYPE_QUERIES[kind]()
    constraint = QueryConstraint(query)
    items = database.relation("item")
    rows = sorted(items.rows(), key=lambda row: row[0])
    outcomes = {}
    for size in range(SIZE_BOUND + 1):
        for chosen in itertools.combinations(rows, size):
            package = Package(items.schema, chosen)
            expected = _outcome(constraint.is_satisfied_copying, package, target)
            assert _outcome(constraint.is_satisfied, package, target) is expected, chosen
            outcomes[chosen] = expected
    assert TypeError in outcomes.values() and False in outcomes.values()
    if kind != "cq":
        # Some package violates the first disjunct and raises in the second:
        # the reference raises, so the probe must too.
        hidden = [
            chosen
            for chosen, outcome in outcomes.items()
            if outcome is TypeError
            and _same_group_cq().is_satisfiable_on(
                target, extra_relations={"RQ": Relation(items.schema.rename("RQ"), chosen)}
            )
        ]
        assert hidden


@pytest.mark.parametrize("pinned", [False, True])
def test_probe_spends_the_ambient_step_budget(pinned):
    # Every one of 30 courses: a probe of several hundred steps, more than
    # the deadline charges between two reads of its clock.
    database = random_course_database(30, prereq_probability=0.9, seed=2)
    probed = database.snapshot() if pinned else database
    constraint = QueryConstraint(same_area_cq())
    courses = database.relation("course")
    package = Package(courses.schema, courses.rows())
    budget = Deadline()
    with deadline_scope(budget):
        verdict = constraint.is_satisfied(package, probed)
    assert budget.steps > 0
    with deadline_scope(Deadline(max_steps=0)):
        with pytest.raises(StepLimitExceeded):
            constraint.is_satisfied(package, probed)
    # The aborted probe leaves the next verdict correct.
    expected = constraint.is_satisfied_copying(package, probed)
    assert verdict is expected
    assert constraint.is_satisfied(package, probed) is expected


@pytest.mark.parametrize("courses", [12, 30], ids=["short", "long"])
def test_probe_charges_every_step_to_the_ambient_deadline(courses):
    """A probe charges the request every step its evaluation takes, whether
    it is shorter or longer than the deadline's clock-read stride."""
    database = random_course_database(courses, prereq_probability=0.9, seed=2)
    constraint = QueryConstraint(same_area_cq())
    relation = database.relation("course")
    package = Package(relation.schema, relation.rows())
    answer = {constraint.answer_relation: package.as_relation(constraint.answer_relation)}
    with deadline_scope(Deadline()) as direct:
        constraint.query.evaluate(database, extra_relations=answer)
    steps = direct.steps
    assert (steps < 128) == (courses == 12)  # under / over the clock-read stride
    budget = Deadline()
    with deadline_scope(budget):
        verdict = constraint.is_satisfied(package, database)
    assert budget.steps == steps
    with deadline_scope(Deadline(max_steps=steps - 1)):
        with pytest.raises(StepLimitExceeded):
            constraint.is_satisfied(package, database)
    with deadline_scope(Deadline(max_steps=steps)):
        assert constraint.is_satisfied(package, database) is verdict


def test_the_naive_evaluator_charges_every_step_to_the_ambient_deadline():
    database = random_course_database(12, prereq_probability=0.9, seed=2)
    courses = database.relation("course")
    extra = {"RQ": Package(courses.schema, sorted(courses.rows())[:6]).as_relation("RQ")}
    area = same_area_cq()

    def run():
        return list(
            enumerate_bindings_naive(
                database, area.atoms, area.comparisons, extra_relations=extra
            )
        )

    budget = Deadline()
    with deadline_scope(budget):
        answers = run()
    assert 0 < budget.steps < 128
    with deadline_scope(Deadline(max_steps=budget.steps - 1)):
        with pytest.raises(StepLimitExceeded):
            run()
    with deadline_scope(Deadline(max_steps=budget.steps)):
        assert run() == answers


@pytest.mark.parametrize("kind", sorted(CONSTRAINTS))
def test_probe_fires_an_expired_ambient_deadline(kind):
    database = _database(3)
    constraint = CONSTRAINTS[kind]()
    package = next(p for p in _random_packages(database, 3) if len(p) == 2)
    with deadline_scope(Deadline.after(-1.0)):
        with pytest.raises(RequestTimeout):
            constraint.is_satisfied(package, database)
    expected = constraint.is_satisfied_copying(package, database)
    assert constraint.is_satisfied(package, database) is expected
