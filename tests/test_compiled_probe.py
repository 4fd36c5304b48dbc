"""The compiled ``Qc`` probe against the copying reference.

:class:`~repro.core.compatibility.QueryConstraint` answers every probe through
one compiled probe that stops at the first violating binding and plans
without gathering statistics.  Its verdict must equal :meth:`QueryConstraint.is_satisfied_copying`
— a fresh relation, a copied database and the whole answer — on random
packages of every size up to the bound, for a CQ ``Qc`` that joins a base
relation, for UCQ and ∃FO⁺ ``Qc`` (which take the early exit too) and for an
FO ``Qc`` (which evaluates its whole answer), on a live database across
commits to the joined relation and on snapshots.  The probe must also tick
the caller's :class:`StepCounter` and honour the ambient request deadline.
"""

from __future__ import annotations

import random

import pytest

from repro.core import QueryConstraint
from repro.core.packages import Package
from repro.queries import plan as plan_module
from repro.queries.ast import And, Comparison, ComparisonOp, Exists, Or, RelationAtom, Var
from repro.queries.bindings import StepCounter
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


def test_cq_ucq_and_efo_take_the_early_exit_and_fo_does_not():
    for kind, make in CONSTRAINTS.items():
        assert make()._compiled().early_exit is (kind != "fo_fallback"), kind


def test_probe_stops_at_the_first_violating_binding():
    database = _database(1)
    constraint = QueryConstraint(same_area_cq())
    courses = database.relation("course")
    by_area = {}
    for row in sorted(courses.rows()):
        by_area.setdefault(row[2], []).append(row)
    crowded = max(by_area.values(), key=len)
    assert len(crowded) >= 3
    package = Package(courses.schema, crowded)
    probe_steps, full_steps = StepCounter(), StepCounter()
    assert constraint.is_satisfied(package, database, counter=probe_steps) is False
    extended = database.with_relation(package.as_relation("RQ"))
    assert len(constraint.query.evaluate(extended, counter=full_steps)) > 0
    assert 0 < probe_steps.steps < full_steps.steps


@pytest.mark.parametrize("pinned", [False, True])
def test_probe_ticks_the_callers_counter(pinned):
    database = _database(2)
    probed = database.snapshot() if pinned else database
    constraint = QueryConstraint(prerequisite_pair_cq())
    package = next(p for p in _random_packages(database, 2) if len(p) == SIZE_BOUND)
    counter = StepCounter()
    constraint.is_satisfied(package, probed, counter=counter)
    assert counter.steps > 0
    with pytest.raises(StepLimitExceeded):
        constraint.is_satisfied(package, probed, counter=StepCounter(limit=0))
    # The aborted probe leaves the next verdict correct.
    expected = constraint.is_satisfied_copying(package, probed)
    assert constraint.is_satisfied(package, probed) is expected


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


@pytest.mark.parametrize("pinned", [False, True])
def test_a_warm_probe_gathers_no_statistics(pinned, monkeypatch):
    database = _database(4)
    probed = database.snapshot() if pinned else database
    constraint = QueryConstraint(prerequisite_pair_cq())
    packages = [p for p in _random_packages(database, 4) if len(p) == 2]
    constraint.is_satisfied(packages[0], probed)  # warm: plan compiled, base key taken
    calls = []
    original_statistics = Relation.statistics
    original_key = plan_module._quantized_stats_key

    def counting_statistics(self):
        calls.append(self.name)
        return original_statistics(self)

    def counting_key(stats):
        calls.append(stats.relation)
        return original_key(stats)

    monkeypatch.setattr(Relation, "statistics", counting_statistics)
    monkeypatch.setattr(plan_module, "_quantized_stats_key", counting_key)
    for package in packages[1:]:
        constraint.is_satisfied(package, probed)
    assert calls == []


def test_ucq_and_efo_satisfiability_take_a_counter_and_an_overlay():
    database = _database(5)
    courses = database.relation("course")
    pair = next(row for row in database.relation(PREREQ).rows())
    rows = [row for row in courses.rows() if row[0] in pair]
    answer = Relation(courses.schema.rename("RQ"), rows)
    for query in (
        UnionOfConjunctiveQueries([same_area_cq(), prerequisite_pair_cq()]),
        prerequisite_or_area_efo(),
    ):
        counter = StepCounter()
        assert query.is_satisfiable_on(database, counter=counter, extra_relations={"RQ": answer})
        assert counter.steps > 0
        empty = Relation(courses.schema.rename("RQ"))
        assert not query.is_satisfiable_on(database, extra_relations={"RQ": empty})
