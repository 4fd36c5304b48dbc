"""Witness-set ``Qc`` verdicts against the copying reference.

For a CQ, UCQ or ∃FO⁺ ``Qc`` the :class:`~repro.core.compatibility.CompatibilityOracle`
answers a package ``N ⊆ Q(D)`` from the witness sets of ``Qc`` over
``RQ := Q(D)`` instead of evaluating ``Qc(N, D)``.  Over random ``Qc`` —
0-3 ``RQ`` atoms per disjunct, constants, repeated variables (two ``RQ``
atoms may bind one row), comparisons across atoms and joins with a base
relation — and every package of size 0..3, plus packages outside ``Q(D)``,
the oracle's verdict must equal
:meth:`~repro.core.compatibility.QueryConstraint.is_satisfied_copying` on a
live database, on a snapshot and after commits.

The decline cases are pinned one by one: a witness cap exactly at and one
past the index size, the build's step limit, a build that raises, FO and
Datalog ``Qc``, predicates, an unregistered ``Q(D)``; a deadline or
cancellation firing mid-build leaves no index behind and is not retried; a
request's step budget is not charged for the build; a second ``Q(D)`` keeps
the one index.  Readers racing on one pinned problem build its index once,
and a reader waiting for another's build keeps its own deadline.

The index is built straight into the candidate pool's index space.  Its
masks and its count of distinct witness sets equal a test-side row-space
reference built from ``enumerate_bindings`` — for random CQ, UCQ and ∃FO⁺
``Qc``, one-, two- and three-row sets, r = 0, mirrored bindings at and one
past the cap — and so do the masks it remaps onto a foreign item order, whose
rows outside the indexed pool are left to the probe.

The lattice walk answers its nodes from those per-candidate bitmasks.  Each
of its branches — witness sets of three rows, candidates outside the indexed
``Q(D)``, masks remapped onto a foreign item order, cost and rating functions with and without an incremental form,
exclusion sets, rating ties, an absent ``Qc`` — gives every search mode the
reference enumerator's answers and the oracle the counts it recorded when
each node asked the oracle; a commit between two yields on a live database
reaches the walk's later verdicts.

The next epoch's oracle carries the previous epoch's index by the ``Q(D)``
row diff.  Over random delta streams — deletes, inserts, rows crossing
``Q``'s filter, empty diffs, and ``prereq`` commits, which make the oracle
build afresh — with CQ, UCQ and ∃FO⁺ ``Qc``, sets of three rows and
``RQ``-free disjuncts, every carried index equals a fresh build.  A carry
past the witness cap declines; a carry a deadline interrupts keeps nothing
and is remembered as a decline.  A served trace carries in every epoch after
its first and answers as serial re-execution, and the previous epoch's
snapshot is collectable once the next epoch has answered a request.
"""

from __future__ import annotations

import gc
import random
import sys
import threading
import time
import weakref
from contextlib import closing
from itertools import combinations

import pytest

import repro.core.compatibility as compatibility
from repro.core import (
    AttributeSumCost,
    AttributeSumRating,
    CallableCost,
    CallableRating,
    CountCost,
    CountRating,
    RecommendationProblem,
    WeightedSumRating,
    best_valid_packages_reference,
    enumerate_valid_packages_reference,
)
from repro.core.compatibility import (
    CompatibilityOracle,
    EmptyConstraint,
    PredicateConstraint,
    QueryConstraint,
)
from repro.core.enumeration import PackageSearchEngine
from repro.core.model import CandidatePool, ConstantBound
from repro.core.packages import Package
from repro.queries.ast import (
    And,
    Comparison,
    ComparisonOp,
    Const,
    Exists,
    Not,
    Or,
    RelationAtom,
    Var,
)
from repro.queries.bindings import enumerate_bindings
from repro.queries.cq import ConjunctiveQuery
from repro.queries.datalog import DatalogRule, NonRecursiveDatalogProgram
from repro.queries.efo import PositiveExistentialQuery
from repro.queries.fo import FirstOrderQuery
from repro.queries.sp import SPQuery
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.relational.database import Database, Relation
from repro.resilience import CancellationToken, Deadline, RequestCancelled, RequestTimeout
from repro.resilience.deadline import current_deadline, deadline_scope
from repro.serving import ServeRequest, SnapshotServer, build_trace, execute_request
from repro.serving.trace import serving_problem
from repro.workloads.synthetic import item_selection_query, random_item_database

NUM_SEEDS = 60
CATEGORIES = ("a", "b", "c")

#: Variables per column type, so no comparison mixes types.
INT_VARIABLES = ("i", "j", "k", "p", "q")
STR_VARIABLES = ("c", "d")
INT_OPS = tuple(ComparisonOp)
STR_OPS = (ComparisonOp.EQ, ComparisonOp.NE)


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------
def _database(rng: random.Random) -> Database:
    """``items(iid, cat, price)`` and a ``prereq(before, after)`` base relation."""
    database = Database()
    rows = [(iid, rng.choice(CATEGORIES), rng.randint(1, 4)) for iid in range(rng.randint(3, 6))]
    database.create_relation("items", ["iid", "cat", "price"], rows)
    iids = [row[0] for row in rows]
    pairs = {(rng.choice(iids), rng.choice(iids)) for _ in range(rng.randint(0, 6))}
    database.create_relation("prereq", ["before", "after"], pairs)
    return database


def _answers(rng: random.Random, database: Database) -> Relation:
    """A ``Q(D)``: most of the items (the rest are outside it)."""
    rows = sorted(database.relation("items").rows())
    keep = rng.sample(rows, max(1, len(rows) - rng.randint(0, 2)))
    return Relation(database.relation("items").schema.rename("Q"), keep)


def _term(rng: random.Random, variables, constants):
    if rng.random() < 0.85:
        return Var(rng.choice(variables))
    return Const(rng.choice(constants))


def _random_body(rng: random.Random, rq_atoms: int):
    """Atoms and comparisons of one conjunctive ``Qc`` body with ``rq_atoms`` RQ atoms."""
    atoms = [
        RelationAtom(
            "RQ",
            [
                _term(rng, INT_VARIABLES[:3], range(6)),
                _term(rng, STR_VARIABLES, CATEGORIES),
                _term(rng, INT_VARIABLES[3:], range(1, 5)),
            ],
        )
        for _ in range(rq_atoms)
    ]
    # A base-relation join (always one when there is no RQ atom, so that the
    # disjunct still depends on the database).
    if not rq_atoms or rng.random() < 0.35:
        atoms.append(
            RelationAtom("prereq", [_term(rng, INT_VARIABLES[:3], range(6)) for _ in range(2)])
        )
    bound = sorted({var.name for atom in atoms for var in atom.variables()})
    ints = [name for name in bound if name in INT_VARIABLES]
    strs = [name for name in bound if name in STR_VARIABLES]
    comparisons = []
    for _ in range(rng.randint(0, 2)):
        if strs and (not ints or rng.random() < 0.3):
            left, pool, constants, ops = Var(rng.choice(strs)), strs, CATEGORIES, STR_OPS
        elif ints:
            left, pool, constants, ops = Var(rng.choice(ints)), ints, range(6), INT_OPS
        else:
            break
        right = Var(rng.choice(pool)) if rng.random() < 0.7 else Const(rng.choice(constants))
        comparisons.append(Comparison(rng.choice(ops), left, right))
    return atoms, comparisons


def _random_qc(rng: random.Random, kind: str):
    """A random CQ, UCQ (disjuncts of different r) or ∃FO⁺ ``Qc``."""
    if kind == "cq":
        atoms, comparisons = _random_body(rng, rng.randint(0, 3))
        return ConjunctiveQuery([], atoms, comparisons, name="Qc")
    bodies = [_random_body(rng, r) for r in rng.sample(range(4), rng.randint(2, 3))]
    if kind == "ucq":
        return UnionOfConjunctiveQueries(
            [ConjunctiveQuery([], atoms, comparisons) for atoms, comparisons in bodies]
        )
    formula = Or(*(And(*(atoms + comparisons)) for atoms, comparisons in bodies))
    free = sorted({var.name for atoms, _ in bodies for atom in atoms for var in atom.variables()})
    if free and rng.random() < 0.6:
        formula = Exists(tuple(Var(name) for name in free), formula)
    return PositiveExistentialQuery([], formula, name="Qc")


def _packages(database: Database, answers: Relation):
    """Every package of size 0..3 over ``Q(D)``, plus some reaching outside it."""
    schema = answers.schema
    rows = sorted(answers.rows())
    inside = [Package(schema, items) for size in range(4) for items in combinations(rows, size)]
    outside_rows = sorted(database.relation("items").rows() - answers.rows())
    outside_rows.append((99, "z", 9))  # not even an item
    outside = [Package(schema, [row, *rows[:1]]) for row in outside_rows]
    return inside, outside


def _witness_oracle(constraint, database, answers) -> CompatibilityOracle:
    oracle = CompatibilityOracle(constraint, database)
    oracle.register_answers(CandidatePool(answers))
    return oracle


def _assert_matches_reference(oracle, constraint, database, inside, outside):
    """Witness verdicts inside ``Q(D)``, declines outside, all equal to the reference."""
    verdicts, declines = oracle.witness_verdicts, oracle.witness_declines
    memo = oracle.hits + oracle.misses
    for package in inside:
        assert oracle.is_satisfied(package) == constraint.is_satisfied_copying(
            package, database
        ), sorted(package.items)
    assert oracle.witness_verdicts - verdicts == len(inside)
    assert oracle.witness_declines == declines
    assert oracle.hits + oracle.misses == memo  # nothing inside Q(D) was probed
    for package in outside:
        assert oracle.is_satisfied(package) == constraint.is_satisfied_copying(
            package, database
        ), sorted(package.items)
    assert oracle.witness_declines - declines == len(outside)
    assert oracle.witness_verdicts - verdicts == len(inside)


# ---------------------------------------------------------------------------
# The differential
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["cq", "ucq", "efo"])
@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_witness_verdicts_equal_the_copying_reference(kind, seed):
    rng = random.Random(f"{kind}-{seed}")
    database = _database(rng)
    answers = _answers(rng, database)
    everything = Package(answers.schema, answers.rows())
    for _ in range(4):  # prefer a Qc that rejects some package over Q(D)
        constraint = QueryConstraint(_random_qc(rng, kind))
        if not constraint.is_satisfied_copying(everything, database):
            break
    inside, outside = _packages(database, answers)

    # A live database.
    oracle = _witness_oracle(constraint, database, answers)
    _assert_matches_reference(oracle, constraint, database, inside, outside)
    assert oracle.witness_builds == 1

    # A snapshot, pinned before a commit the live database then takes.
    snapshot = database.snapshot()
    pinned = _witness_oracle(constraint, snapshot, answers)
    iids = [row[0] for row in database.relation("items").rows()]
    database.apply_delta(
        [("insert", "prereq", (rng.choice(iids), rng.choice(iids)))]
        + [("delete", "prereq", row) for row in sorted(database.relation("prereq").rows())[:1]]
    )
    _assert_matches_reference(pinned, constraint, snapshot, inside, outside)

    # The live database after the commit: the index is rebuilt if Qc reads
    # prereq, and kept otherwise.
    _assert_matches_reference(oracle, constraint, database, inside, outside)
    changed = database.relation("prereq").version != snapshot.relation("prereq").version
    read = "prereq" in constraint.relation_footprint()
    assert oracle.witness_builds == (2 if changed and read else 1)


def test_a_disjunct_without_rq_atoms_decides_every_package():
    """r = 0: a binding over the database alone makes every package
    incompatible, the empty one included; without a binding it adds nothing."""
    database = Database()
    database.create_relation("items", ["iid", "cat", "price"], [(1, "a", 1), (2, "b", 2)])
    prereq = database.create_relation("prereq", ["before", "after"])
    pair = ConjunctiveQuery(
        [],
        [
            RelationAtom("RQ", [Var("i"), Var("c"), Var("p")]),
            RelationAtom("RQ", [Var("j"), Var("c"), Var("q")]),
        ],
        [Comparison(ComparisonOp.NE, Var("i"), Var("j"))],
    )
    blocked = ConjunctiveQuery([], [RelationAtom("prereq", [Var("x"), Var("y")])])
    constraint = QueryConstraint(UnionOfConjunctiveQueries([pair, blocked]))
    answers = database.relation("items")
    inside, _ = _packages(database, answers)

    oracle = _witness_oracle(constraint, database, answers)
    for package in inside:
        assert oracle.is_satisfied(package)  # distinct categories, no prereq row
    prereq.add((1, 2))
    for package in inside:
        assert not oracle.is_satisfied(package)
        assert not constraint.is_satisfied_copying(package, database)
    assert oracle.witness_builds == 2 and oracle.misses == 0

    atom_free = QueryConstraint(ConjunctiveQuery([], []))
    oracle = _witness_oracle(atom_free, database, answers)
    assert not oracle.is_satisfied(Package(answers.schema, ()))


def test_two_rq_atoms_bound_to_one_row_make_a_singleton_witness():
    """Set semantics: a binding using one row twice has a one-row witness."""
    database = Database()
    items = database.create_relation(
        "items", ["iid", "cat", "price"], [(1, "a", 3), (2, "b", 1), (3, "a", 1)]
    )
    # Two RQ atoms, same category, one price at least 3 — (1, "a", 3) alone.
    qc = ConjunctiveQuery(
        [],
        [
            RelationAtom("RQ", [Var("i"), Var("c"), Var("p")]),
            RelationAtom("RQ", [Var("j"), Var("c"), Var("q")]),
        ],
        [Comparison(ComparisonOp.GE, Var("p"), Const(3))],
    )
    constraint = QueryConstraint(qc)
    oracle = _witness_oracle(constraint, database, items)
    alone = Package(items.schema, [(1, "a", 3)])
    assert not oracle.is_satisfied(alone)
    assert oracle.is_satisfied(Package(items.schema, [(2, "b", 1), (3, "a", 1)]))
    assert oracle.cache_info()["witness_sets"] == 2  # {row 1} and {row 1, row 3}


def test_witness_sets_of_one_two_and_three_rows_mixed():
    """r = 1/2/3 in one ``Qc``: one-row sets (an item incompatible alone),
    two-row sets (partners) and three-row sets (scanned) all decide every
    package of up to four items as the copying reference does."""
    database = Database()
    items = database.create_relation(
        "items",
        ["iid", "cat", "price"],
        [(1, "a", 4), (2, "a", 1), (3, "b", 2), (4, "b", 1), (5, "c", 3), (6, "c", 2), (7, "a", 2)],
    )
    database.create_relation("prereq", ["before", "after"], [(2, 3), (4, 6), (6, 7)])
    first, second, third = (
        RelationAtom("RQ", [Var(iid), Var(cat), Var(price)])
        for iid, cat, price in (("i", "c", "p"), ("j", "d", "q"), ("k", "e", "r"))
    )
    # r = 1: an item priced 4 is incompatible on its own.
    alone = ConjunctiveQuery([], [first], [Comparison(ComparisonOp.GE, Var("p"), Const(4))])
    # r = 2: an item together with one of its prerequisites.
    pair = ConjunctiveQuery([], [first, second, RelationAtom("prereq", [Var("i"), Var("j")])])
    # r = 3: three distinct items of distinct categories priced 2 or less.
    triple = ConjunctiveQuery(
        [],
        [first, second, third],
        [
            Comparison(ComparisonOp.LT, Var("c"), Var("d")),
            Comparison(ComparisonOp.LT, Var("d"), Var("e")),
            Comparison(ComparisonOp.LE, Var("p"), Const(2)),
            Comparison(ComparisonOp.LE, Var("q"), Const(2)),
            Comparison(ComparisonOp.LE, Var("r"), Const(2)),
        ],
    )
    constraint = QueryConstraint(UnionOfConjunctiveQueries([alone, pair, triple]))
    oracle = _witness_oracle(constraint, database, items)
    rows = sorted(items.rows())
    packages = [
        Package(items.schema, chosen) for size in range(5) for chosen in combinations(rows, size)
    ]
    for package in packages:
        assert oracle.is_satisfied(package) == constraint.is_satisfied_copying(
            package, database
        ), sorted(package.items)
    assert oracle.witness_verdicts == len(packages) and oracle.misses == 0
    index = oracle._witness
    assert any(mask >> i & 1 for i, mask in enumerate(index.conflicts))  # {item}
    assert any(mask & ~(1 << i) for i, mask in enumerate(index.conflicts))  # pairs
    assert {bin(witness).count("1") for larger in index.larger for witness in larger} == {3}
    verdicts = [oracle.is_satisfied(package) for package in packages]
    assert True in verdicts and False in verdicts


def test_the_engine_registers_q_of_d_and_reuses_the_index_across_engines(monkeypatch):
    problem = serving_problem(30, seed=2).pinned()
    evaluations = []
    evaluate = SPQuery.evaluate

    def counting(query, database, *args, **kwargs):
        evaluations.append(database)
        return evaluate(query, database, *args, **kwargs)

    monkeypatch.setattr(SPQuery, "evaluate", counting)
    first = PackageSearchEngine(problem)
    count = first.count_valid()
    oracle = problem.compatibility_oracle()
    assert oracle.witness_builds == 1 and oracle.misses == 0
    # A second engine reads the pinned problem's one Q(D): the same relation.
    second = PackageSearchEngine(problem)
    assert second.answers is first.answers and second.items is first.items
    assert len(evaluations) == 1
    assert second.count_valid() == count
    # A third over an explicitly re-evaluated Q(D), a new relation with the
    # same rows, still reuses the index.
    third = PackageSearchEngine(
        problem, candidate_items=problem.query.evaluate(problem.database)
    )
    assert third.answers is not first.answers and len(evaluations) == 2
    assert third.count_valid() == count
    assert oracle.witness_builds == 1


# ---------------------------------------------------------------------------
# The index's masks against a row-space reference
# ---------------------------------------------------------------------------
def _reference_witness_sets(query, database, answers):
    """``Qc``'s distinct witness sets over ``RQ := answers`` as row frozensets,
    straight from :func:`enumerate_bindings`; ``None`` when the empty set is
    one (a disjunct without ``RQ`` atoms has a binding)."""
    if isinstance(query, PositiveExistentialQuery):
        query = query.to_ucq()
    disjuncts = query.disjuncts if isinstance(query, UnionOfConjunctiveQueries) else (query,)
    extra = {"RQ": Relation(answers.schema.rename("RQ"), answers.rows())}
    witnesses = set()
    for cq in disjuncts:
        placed = [atom for atom in cq.atoms if atom.relation == "RQ"]
        for binding in enumerate_bindings(
            database, cq.atoms, cq.comparisons, extra_relations=extra
        ):
            if not placed:
                return None
            witnesses.add(
                frozenset(
                    tuple(
                        binding[term.name] if isinstance(term, Var) else term.value
                        for term in atom.terms
                    )
                    for atom in placed
                )
            )
    return witnesses


def _reference_masks(witnesses, items):
    """The witness sets within ``items`` as ``(conflicts, larger)`` in the
    index space of ``items``: a pair's rows name each other, a singleton
    names itself, a set of three rows or more is one mask."""
    position = {item: i for i, item in enumerate(items)}
    conflicts, larger = [0] * len(items), set()
    for witness in witnesses:
        if not witness <= position.keys():
            continue
        bits = [position[row] for row in witness]
        if len(bits) > 2:
            larger.add(sum(1 << i for i in bits))
            continue
        a, b = bits * 2 if len(bits) == 1 else bits
        conflicts[a] |= 1 << b
        conflicts[b] |= 1 << a
    return conflicts, larger


def _flat_masks(conflicts, larger):
    """``(conflicts, larger)`` with the per-candidate buckets of the larger
    sets flattened; each set must sit in the bucket of its lowest bit."""
    masks = set()
    for i, bucket in enumerate(larger or ()):
        for mask in bucket:
            assert (mask & -mask).bit_length() - 1 == i, (i, bin(mask))
            masks.add(mask)
    return list(conflicts), masks


def _assert_index_matches_reference(constraint, database, answers, foreign_rows):
    """The oracle's index over ``answers``, in its own index space and
    remapped onto a pool of ``foreign_rows``, equals the reference."""
    pool = CandidatePool(answers)
    oracle = CompatibilityOracle(constraint, database)
    oracle.register_answers(pool)
    oracle.is_satisfied(Package(answers.schema, ()))
    index = oracle._witness
    assert index.pool is pool
    witnesses = _reference_witness_sets(constraint.query, database, answers)
    foreign = CandidatePool(Relation(answers.schema, foreign_rows))
    outside = [i for i, row in enumerate(foreign.items) if row not in pool.position]
    if witnesses is None:
        assert index.always and oracle.cache_info()["witness_sets"] == 1
        assert list(index.conflicts) == [1 << i for i in range(len(pool.items))]
        expected = [0 if i in outside else 1 << i for i in range(len(foreign.items))], set()
    else:
        assert not index.always
        assert oracle.cache_info()["witness_sets"] == index.size == len(witnesses)
        assert _flat_masks(index.conflicts, index.larger) == _reference_masks(
            witnesses, pool.items
        )
        expected = _reference_masks(witnesses, foreign.items)
    # A foreign item order: remapped once, the rows outside the pool probed.
    conflicts, larger, probe = index.over(foreign)
    assert _flat_masks(conflicts, larger) == expected
    assert probe == sum(1 << i for i in outside)
    for i in outside:
        assert index.compatible(frozenset([foreign.items[i]])) is None
    # The pool's own order is served as it stands.
    own = CandidatePool(Relation(answers.schema, answers.rows()))
    assert index.over(own) == (index.conflicts, index.larger, 0)
    return witnesses


def _foreign_rows(rng: random.Random, database: Database, answers: Relation):
    """Some of ``Q(D)``'s rows plus rows outside it: another index space."""
    rows = sorted(answers.rows())
    kept = rng.sample(rows, max(1, len(rows) - 1))
    return kept + sorted(database.relation("items").rows() - answers.rows()) + [(99, "z", 9)]


@pytest.mark.parametrize("kind", ["cq", "ucq", "efo"])
@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_the_index_equals_a_row_space_reference(kind, seed):
    rng = random.Random(f"index-{kind}-{seed}")
    database = _database(rng)
    answers = _answers(rng, database)
    constraint = QueryConstraint(_random_qc(rng, kind))
    _assert_index_matches_reference(
        constraint, database, answers, _foreign_rows(rng, database, answers)
    )


def test_the_reference_seeds_cover_every_kind_of_witness_set():
    """The random ``Qc`` above give singletons, pairs, sets of three rows and
    an ``RQ``-free disjunct with a binding (r = 0)."""
    seen = set()
    for kind in ("cq", "ucq", "efo"):
        for seed in range(NUM_SEEDS):
            rng = random.Random(f"index-{kind}-{seed}")
            database = _database(rng)
            answers = _answers(rng, database)
            query = _random_qc(rng, kind)
            witnesses = _reference_witness_sets(query, database, answers)
            if witnesses is None:
                seen.add(0)
            else:
                seen.update(min(len(witness), 3) for witness in witnesses)
    assert seen == {0, 1, 2, 3}


def test_the_mixed_and_rq_free_indexes_equal_the_reference():
    """The fixed instances of one-, two- and three-row sets and of r = 0."""
    database = Database()
    items = database.create_relation(
        "items",
        ["iid", "cat", "price"],
        [(1, "a", 4), (2, "a", 1), (3, "b", 2), (4, "b", 1), (5, "c", 3), (6, "c", 2), (7, "a", 2)],
    )
    database.create_relation("prereq", ["before", "after"], [(2, 3), (4, 6), (6, 7)])
    first, second, third = (
        _rq(*names) for names in (("i", "c", "p"), ("j", "d", "q"), ("k", "e", "r"))
    )
    alone = ConjunctiveQuery([], [first], [Comparison(ComparisonOp.GE, Var("p"), Const(4))])
    pair = ConjunctiveQuery([], [first, second, RelationAtom("prereq", [Var("i"), Var("j")])])
    triple = ConjunctiveQuery(
        [],
        [first, second, third],
        [
            Comparison(ComparisonOp.LT, Var("c"), Var("d")),
            Comparison(ComparisonOp.LT, Var("d"), Var("e")),
        ],
    )
    rows = sorted(items.rows())
    foreign = rows[1:5] + [(8, "a", 1)]
    mixed = QueryConstraint(UnionOfConjunctiveQueries([alone, pair, triple]))
    witnesses = _assert_index_matches_reference(mixed, database, items, foreign)
    assert {len(witness) for witness in witnesses} == {1, 2, 3}
    blocked = ConjunctiveQuery([], [RelationAtom("prereq", [Var("x"), Var("y")])])
    rq_free = QueryConstraint(UnionOfConjunctiveQueries([pair, blocked]))
    assert _assert_index_matches_reference(rq_free, database, items, foreign) is None


def _two_of_one_category() -> QueryConstraint:
    """Two distinct items of one category, over ``items(iid, cat, price)``."""
    return QueryConstraint(
        ConjunctiveQuery(
            [],
            [_rq("i", "c", "p"), _rq("j", "c", "q")],
            [Comparison(ComparisonOp.NE, Var("i"), Var("j"))],
        )
    )


@pytest.mark.parametrize("past_the_cap", [False, True], ids=["at-cap", "one-past"])
def test_the_cap_counts_distinct_sets_of_mirrored_bindings(monkeypatch, past_the_cap):
    """``i ≠ j`` binds every pair twice, as ``(a, b)`` and ``(b, a)``: the cap
    counts each set once."""
    database = Database()
    items = database.create_relation(
        "items", ["iid", "cat", "price"], [(i, "ab"[i % 2], i) for i in range(8)]
    )
    constraint = _two_of_one_category()
    witnesses = _reference_witness_sets(constraint.query, database, items)
    extra = {"RQ": Relation(items.schema.rename("RQ"), items.rows())}
    bindings = list(
        enumerate_bindings(
            database, constraint.query.atoms, constraint.query.comparisons, extra_relations=extra
        )
    )
    assert len(bindings) == 2 * len(witnesses) == 24
    monkeypatch.setattr(compatibility, "WITNESS_CAP", len(witnesses) - past_the_cap)
    oracle = _witness_oracle(constraint, database, items)
    oracle.is_satisfied(Package(items.schema, ()))
    if past_the_cap:
        assert oracle._witness.conflicts is None and oracle.witness_builds == 0
        assert oracle.cache_info()["witness_sets"] == 0
    else:
        assert oracle.witness_builds == 1
        _assert_index_matches_reference(constraint, database, items, sorted(items.rows())[2:])


# ---------------------------------------------------------------------------
# Declines
# ---------------------------------------------------------------------------
def _serving_instance():
    """The serving problem's CQ Qc over its 80-item ``Q(D)`` (a few hundred witnesses)."""
    problem = serving_problem(80, seed=1)
    database = problem.database
    answers = problem.candidate_items()
    return problem.compatibility, database, answers


def _sample_packages(answers, count=40, seed=0):
    rng = random.Random(seed)
    rows = sorted(answers.rows())
    return [Package(answers.schema, rng.sample(rows, rng.randint(0, 3))) for _ in range(count)]


def _witness_set_count():
    constraint, database, answers = _serving_instance()
    oracle = _witness_oracle(constraint, database, answers)
    oracle.is_satisfied(Package(answers.schema, ()))
    return oracle.cache_info()["witness_sets"]


@pytest.mark.parametrize("past_the_cap", [False, True], ids=["at-cap", "one-past"])
def test_the_witness_cap(monkeypatch, past_the_cap):
    size = _witness_set_count()
    assert size > 100
    monkeypatch.setattr(compatibility, "WITNESS_CAP", size - 1 if past_the_cap else size)
    constraint, database, answers = _serving_instance()
    oracle = _witness_oracle(constraint, database, answers)
    packages = _sample_packages(answers)
    for package in packages:
        assert oracle.is_satisfied(package) == constraint.is_satisfied_copying(package, database)
    if past_the_cap:
        assert oracle.witness_builds == 0 and oracle.witness_verdicts == 0
        assert oracle.witness_declines == len(packages)
        assert oracle.misses + oracle.hits == len(packages)
    else:
        assert oracle.witness_builds == 1 and oracle.witness_verdicts == len(packages)
        assert oracle.cache_info()["witness_sets"] == size


def test_the_build_step_limit_declines(monkeypatch):
    monkeypatch.setattr(compatibility, "WITNESS_STEP_LIMIT", 5)
    constraint, database, answers = _serving_instance()
    oracle = _witness_oracle(constraint, database, answers)
    for package in _sample_packages(answers):
        assert oracle.is_satisfied(package) == constraint.is_satisfied_copying(package, database)
    assert oracle.witness_builds == 0 and oracle.witness_verdicts == 0 and oracle.misses > 0


def test_a_build_that_raises_declines_to_the_probe():
    """A mixed-type comparison raises in the build; the probe then raises
    (or not) exactly as it does without the index."""
    database = Database()
    items = database.create_relation("items", ["iid", "cat", "price"], [(1, "a", 3), (2, "b", 1)])
    qc = ConjunctiveQuery(
        [],
        [RelationAtom("RQ", [Var("i"), Var("c"), Var("p")])],
        [Comparison(ComparisonOp.LT, Var("c"), Var("p"))],
    )
    constraint = QueryConstraint(qc)
    oracle = _witness_oracle(constraint, database, items)
    empty = Package(items.schema, ())
    assert oracle.is_satisfied(empty) == constraint.is_satisfied(empty, database)
    with pytest.raises(TypeError):
        constraint.is_satisfied(Package(items.schema, [(1, "a", 3)]), database)
    with pytest.raises(TypeError):
        oracle.is_satisfied(Package(items.schema, [(1, "a", 3)]))
    assert oracle.witness_builds == 0 and oracle.witness_verdicts == 0
    assert oracle.witness_declines == 2


def _not_witness_served(database):
    """FO, Datalog and predicate constraints equivalent to "two items share a category"."""
    i, j, c, p, q = Var("i"), Var("j"), Var("c"), Var("p"), Var("q")
    body = [RelationAtom("RQ", [i, c, p]), RelationAtom("RQ", [j, c, q])]
    different = Comparison(ComparisonOp.NE, i, j)
    fo = FirstOrderQuery(
        [],
        Exists((i, j, c, p, q), And(*body, Not(Comparison(ComparisonOp.EQ, i, j)))),
        name="fo_qc",
    )
    datalog = NonRecursiveDatalogProgram(
        [DatalogRule(RelationAtom("clash", [i]), body, [different])], output="clash"
    )
    cq = QueryConstraint(ConjunctiveQuery([], body, [different]))
    predicate = PredicateConstraint(cq.is_satisfied, "the CQ behind a predicate")
    return [QueryConstraint(fo), QueryConstraint(datalog), predicate], cq


def test_fo_datalog_and_predicate_constraints_keep_the_probe():
    database = Database()
    items = database.create_relation(
        "items", ["iid", "cat", "price"], [(1, "a", 3), (2, "b", 1), (3, "a", 1)]
    )
    constraints, cq = _not_witness_served(database)
    inside, _ = _packages(database, items)
    for constraint in constraints:
        oracle = _witness_oracle(constraint, database, items)
        for package in inside:
            assert oracle.is_satisfied(package) == cq.is_satisfied_copying(package, database)
        assert oracle.witness_builds == 0 and oracle.witness_verdicts == 0
        assert oracle.misses == len(inside)
        # Only a QueryConstraint is offered to the witness path at all.
        expected = len(inside) if isinstance(constraint, QueryConstraint) else 0
        assert oracle.witness_declines == expected


def test_no_registered_q_of_d_keeps_the_probe():
    constraint, database, answers = _serving_instance()
    oracle = CompatibilityOracle(constraint, database)
    packages = _sample_packages(answers, count=10)
    for package in packages:
        assert oracle.is_satisfied(package) == constraint.is_satisfied_copying(package, database)
    assert oracle.witness_verdicts == 0 and oracle.witness_declines == len(packages)


def _fire_after_the_first_binding(monkeypatch, fire):
    """Make the build's joins call ``fire(request deadline)`` once a binding is
    out, then check the ambient (build) deadline: it fires mid-build."""
    real = compatibility.project_bindings

    def project_then_fire(*args, **kwargs):
        bindings = real(*args, **kwargs)
        with closing(bindings):
            for index, binding in enumerate(bindings):
                if index == 1:
                    fire()
                    current_deadline().check()
                yield binding

    monkeypatch.setattr(compatibility, "project_bindings", project_then_fire)


def _wait_out(deadline):
    while deadline.remaining() > 0:
        time.sleep(deadline.remaining())


@pytest.mark.parametrize(
    "cancel, error", [(False, RequestTimeout), (True, RequestCancelled)], ids=["timeout", "cancel"]
)
def test_a_deadline_firing_mid_build_leaves_no_index(monkeypatch, cancel, error):
    """The request's clock and token bound the build; an interrupted build
    keeps nothing, is not charged to the request's steps, and is not retried
    until the footprint changes, so the next request takes the probe path."""
    constraint, database, answers = _serving_instance()
    oracle = _witness_oracle(constraint, database, answers)
    package = _sample_packages(answers, count=1, seed=3)[0]
    deadline = Deadline.after(None if cancel else 0.05, token=CancellationToken())
    _fire_after_the_first_binding(
        monkeypatch, deadline.token.cancel if cancel else lambda: _wait_out(deadline)
    )
    with deadline_scope(deadline):
        with pytest.raises(error):
            oracle.is_satisfied(package)
    assert deadline.steps == 0
    assert oracle.witness_builds == 0 and oracle.cache_info()["witness_sets"] == 0
    assert oracle.witness_verdicts == 0 and oracle.misses == 0
    # The decline is remembered: the next verdict is probed, not rebuilt.
    monkeypatch.undo()
    for package in _sample_packages(answers, count=10, seed=4):
        assert oracle.is_satisfied(package) == constraint.is_satisfied_copying(package, database)
    assert oracle.witness_builds == 0 and oracle.witness_verdicts == 0
    assert oracle.misses + oracle.hits == 10
    # Dropping the index (what a footprint delta does) allows a new build.
    oracle.clear()
    assert oracle.is_satisfied(package) == constraint.is_satisfied_copying(package, database)
    assert oracle.witness_builds == 1 and oracle.witness_verdicts == 1


def test_a_request_step_budget_that_fits_the_probes_fits_a_fresh_build():
    """The build is not charged to the request that triggers it: a step
    budget covering the probes of a few verdicts also covers those verdicts
    on a fresh oracle, whose first verdict builds the index."""
    constraint, database, answers = _serving_instance()
    packages = _sample_packages(answers, count=10, seed=5)
    with deadline_scope(Deadline()) as probes:
        for package in packages:
            # A probe is one evaluation of Qc with RQ := the package.
            answer = {constraint.answer_relation: package.as_relation(constraint.answer_relation)}
            constraint.query.evaluate(database, extra_relations=answer)
    assert 0 < probes.steps < 200
    oracle = _witness_oracle(constraint, database, answers)
    budget = Deadline(max_steps=probes.steps)
    # The copying reference runs outside the request: its own evaluations
    # would be charged to the budget.
    expected = [constraint.is_satisfied_copying(package, database) for package in packages]
    with deadline_scope(budget):
        verdicts = [oracle.is_satisfied(package) for package in packages]
    assert verdicts == expected
    assert oracle.witness_builds == 1 and oracle.witness_verdicts == len(packages)
    assert budget.steps == 0  # the build's own deadline took its steps
    assert oracle.misses == 0


def test_a_second_q_of_d_keeps_the_index():
    """At most one build until the footprint changes: a registration with
    other rows (QRPP's relaxations) or rows added in place (ARPP's
    adjustments) keeps the index for the packages within its rows and sends
    the rest to the memo."""
    constraint, database, answers = _serving_instance()
    rows = sorted(answers.rows())
    first = Relation(answers.schema, rows[: len(rows) // 2])
    oracle = _witness_oracle(constraint, database, first)
    inside, outside = [], []
    for package in _sample_packages(answers, count=60, seed=6):
        (inside if package.items <= first.rows() else outside).append(package)
    assert inside and outside
    oracle.is_satisfied(inside[0])
    assert oracle.witness_builds == 1
    oracle.register_answers(CandidatePool(answers))  # a wider Q(D), as the next relaxation's
    _assert_matches_reference(oracle, constraint, database, inside, outside)
    first.add(rows[-1])  # grown in place, as a maintained Q(D) is
    oracle.register_answers(CandidatePool(first))
    grown = Package(answers.schema, [rows[0], rows[-1]])
    assert oracle.is_satisfied(grown) == constraint.is_satisfied_copying(grown, database)
    assert oracle.witness_builds == 1
    assert oracle.witness_declines == len(outside) + 1


# ---------------------------------------------------------------------------
# Concurrent readers of one pinned problem
# ---------------------------------------------------------------------------
def test_concurrent_readers_build_the_index_once():
    """Eight readers' first verdicts race; one builds, the others wait and reuse."""
    problem = serving_problem(120, seed=4).pinned()
    engines = [PackageSearchEngine(problem) for _ in range(8)]
    barrier = threading.Barrier(len(engines))
    counts, errors = [], []

    def reader(engine):
        try:
            barrier.wait(timeout=10)
            counts.append(engine.count_valid())
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(engine,)) for engine in engines]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(set(counts)) == 1 and len(counts) == len(engines)
    oracle = problem.compatibility_oracle()
    assert oracle.witness_builds == 1 and oracle.misses == 0


def test_a_reader_waiting_for_a_build_keeps_its_deadline():
    constraint, database, answers = _serving_instance()
    oracle = _witness_oracle(constraint, database, answers)
    package = _sample_packages(answers, count=1, seed=3)[0]
    with oracle._build_lock:  # another reader is building
        with deadline_scope(Deadline.after(0.01)):
            with pytest.raises(RequestTimeout):
                oracle.is_satisfied(package)
    assert oracle.witness_builds == 0
    assert oracle.is_satisfied(package) == constraint.is_satisfied_copying(package, database)
    assert oracle.witness_builds == 1


# ---------------------------------------------------------------------------
# The lattice walk's witness masks
# ---------------------------------------------------------------------------
def _rq(*names):
    return RelationAtom("RQ", [Var(name) for name in names])


def _three_per_category_or_high_twins() -> QueryConstraint:
    """At most two items per category, and no two items of one quality above
    12: witness sets of three rows beside witness sets of two."""
    ordered = Comparison(ComparisonOp.LT, Var("i1"), Var("i2"))
    three = ConjunctiveQuery(
        [],
        [_rq("i1", "c", "p1", "q1"), _rq("i2", "c", "p2", "q2"), _rq("i3", "c", "p3", "q3")],
        [ordered, Comparison(ComparisonOp.LT, Var("i2"), Var("i3"))],
    )
    twins = ConjunctiveQuery(
        [],
        [_rq("i1", "c1", "p1", "q"), _rq("i2", "c2", "p2", "q")],
        [ordered, Comparison(ComparisonOp.GT, Var("q"), 12)],
    )
    return QueryConstraint(UnionOfConjunctiveQueries([three, twins]))


def _same_category() -> QueryConstraint:
    return QueryConstraint(
        ConjunctiveQuery(
            [],
            [_rq("i1", "c", "p1", "q1"), _rq("i2", "c", "p2", "q2")],
            [Comparison(ComparisonOp.NE, Var("i1"), Var("i2"))],
        )
    )


def _kernel_problem(database: Database, compatibility, **fields) -> RecommendationProblem:
    settings = dict(
        database=database,
        query=item_selection_query(30),
        cost=AttributeSumCost("price"),
        val=AttributeSumRating("quality"),
        budget=70.0,
        k=3,
        compatibility=compatibility,
        size_bound=ConstantBound(3),
        monotone_cost=True,
        antimonotone_compatibility=True,
        monotone_val=True,
    )
    settings.update(fields)
    return RecommendationProblem(**settings)


#: Each case: a problem builder, a rating bound, and the oracle counts
#: (witness_verdicts, witness_declines, hits, misses) that the lattice walk
#: recorded over :func:`_every_search_mode` when it built a package per node
#: and asked the oracle for every verdict.
KERNEL_CASES = {
    "three-row-witness-sets": (
        lambda: _kernel_problem(
            random_item_database(12, seed=3), _three_per_category_or_high_twins()
        ),
        20.0,
        (256, 0, 0, 0),
    ),
    "callable-cost-and-rating": (
        lambda: _kernel_problem(
            random_item_database(10, seed=5),
            _same_category(),
            cost=CallableCost(lambda package: max(package.column("price")) + len(package)),
            val=CallableRating(lambda package: sum(q * q for q in package.column("quality"))),
            budget=40.0,
        ),
        100.0,
        (143, 0, 0, 0),
    ),
    "incremental-non-additive": (
        lambda: _kernel_problem(
            random_item_database(10, seed=6),
            _same_category(),
            cost=CountCost(),
            val=WeightedSumRating({"quality": 1.0, "price": -0.5}),
            budget=3.0,
        ),
        5.0,
        (162, 0, 0, 0),
    ),
    "rating-ties": (
        lambda: _kernel_problem(
            random_item_database(11, seed=7), _same_category(), val=CountRating(), k=4
        ),
        2.0,
        (162, 0, 0, 0),
    ),
    "no-qc": (
        lambda: _kernel_problem(
            random_item_database(8, seed=8), EmptyConstraint(), monotone_val=False
        ),
        15.0,
        (0, 0, 0, 0),
    ),
}


def _every_search_mode(problem: RecommendationProblem, bound: float, engine=None):
    """Each search mode's answer, rendered: enumeration with and without a
    rating bound and an exclusion set, counting, first-valid and top-k."""
    engine = engine or PackageSearchEngine(problem)
    found = [package.sorted_items() for package in engine.iter_valid()]
    schema = engine.schema
    excluded = [Package(schema, items) for items in found[1:4]]
    excluded.append(Package(schema, [(99, "z", 1, 1)]))  # no node's items
    first = engine.first_valid(rating_bound=bound, exclude=excluded)
    scored, _, _ = engine.best_valid(problem.k)
    return {
        "iter": found,
        "iter_bound": [p.sorted_items() for p in engine.iter_valid(rating_bound=bound)],
        "iter_excluded": [p.sorted_items() for p in engine.iter_valid(exclude=excluded)],
        "count": engine.count_valid(rating_bound=bound, strict=True, by_size=True),
        "first_excluded": None if first is None else first.sorted_items(),
        "best": [(rating, package.sorted_items()) for rating, package in scored],
    }, excluded


def _reference_modes(problem: RecommendationProblem, bound: float, excluded):
    """:func:`_every_search_mode` through the reference enumerator."""

    def render(packages):
        return [package.sorted_items() for package in packages]

    first = next(
        enumerate_valid_packages_reference(problem, rating_bound=bound, exclude=excluded), None
    )
    strict = list(enumerate_valid_packages_reference(problem, rating_bound=bound, strict=True))
    histogram = {}
    for package in strict:
        histogram[len(package)] = histogram.get(len(package), 0) + 1
    return {
        "iter": render(enumerate_valid_packages_reference(problem)),
        "iter_bound": render(enumerate_valid_packages_reference(problem, rating_bound=bound)),
        "iter_excluded": render(enumerate_valid_packages_reference(problem, exclude=excluded)),
        "count": (len(strict), histogram),
        "first_excluded": None if first is None else first.sorted_items(),
        "best": [
            (problem.val(package), package.sorted_items())
            for package in best_valid_packages_reference(problem, problem.k)
        ],
    }


def _oracle_counts(problem: RecommendationProblem):
    info = problem.compatibility_oracle().cache_info()
    return tuple(info[name] for name in ("witness_verdicts", "witness_declines", "hits", "misses"))


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_the_walk_answers_and_counts_as_the_reference_on_each_branch(case):
    make, bound, counts = KERNEL_CASES[case]
    problem = make()
    engine_answers, excluded = _every_search_mode(problem, bound)
    assert engine_answers == _reference_modes(make(), bound, excluded)
    assert _oracle_counts(problem) == counts
    if case == "three-row-witness-sets":
        index = problem.compatibility_oracle()._witness
        assert index.larger is not None and any(index.larger)
        assert any(index.conflicts)


def test_a_second_q_of_d_walks_past_the_indexed_rows():
    """The index built over a narrower ``Q(D)`` serves the wider one's
    packages within its rows; the rest go to the memo."""
    problem = _kernel_problem(random_item_database(12, seed=9), _same_category())
    narrower = problem.with_query(item_selection_query(15))
    PackageSearchEngine(narrower).count_valid()
    engine = PackageSearchEngine(problem)
    assert engine.answers.rows() > narrower.candidate_items().rows()
    engine_answers, excluded = _every_search_mode(problem, 20.0, engine)
    assert engine_answers == _reference_modes(
        _kernel_problem(random_item_database(12, seed=9), _same_category()), 20.0, excluded
    )
    assert _oracle_counts(problem) == (69, 110, 84, 26)
    assert problem.compatibility_oracle().witness_builds == 1


def test_a_foreign_item_order_walks_on_remapped_masks():
    """An index built over a wider ``Q(D)`` serves a narrower one's walk
    (QRPP's relaxations share one oracle): the masks, three-row sets
    included, are remapped onto the narrower order, and every node is a
    mask test."""
    make = lambda: _kernel_problem(  # noqa: E731
        random_item_database(14, seed=5), _three_per_category_or_high_twins()
    )
    wider = make()
    PackageSearchEngine(wider).count_valid()
    oracle = wider.compatibility_oracle()
    assert oracle.witness_builds == 1 and oracle._witness.larger is not None
    narrower = wider.with_query(item_selection_query(15))
    engine = PackageSearchEngine(narrower)
    assert engine.pool.items != oracle._witness.pool.items
    assert set(engine.pool.items) < set(oracle._witness.pool.items)
    _, larger, probe = oracle._witness.over(engine.pool)
    assert probe == 0 and sum(map(len, larger)) == 4  # of the index's 5
    engine_answers, excluded = _every_search_mode(narrower, 20.0, engine)
    reference = make().with_query(item_selection_query(15))
    assert engine_answers == _reference_modes(reference, 20.0, excluded)
    info = oracle.cache_info()
    assert info["witness_builds"] == 1
    assert info["witness_declines"] == info["hits"] == info["misses"] == 0


#: What :func:`test_a_commit_between_yields_reaches_the_walks_later_verdicts`
#: saw when the walk asked the oracle for every verdict: the packages after
#: the first, as candidate positions, and the oracle counts.
CLASH_WALK = [
    (0, 1), (0, 2), (0, 3), (0, 5), (0, 6), (0, 7), (0, 8),
    (1,), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8),
    (2,), (2, 3), (2, 4), (2, 5), (2, 6), (2, 8),
    (3,), (3, 6),
    (4,), (4, 5), (4, 6), (4, 8),
    (5,), (5, 6), (5, 7), (5, 8),
    (6,), (6, 7), (6, 8),
    (7,), (7, 8),
    (8,),
]  # fmt: skip
CLASH_COUNTS = (40, 0, 0, 0)
#: The oracle counts the same walk gave in
#: :func:`test_masks_compiled_after_a_commit_still_test_the_whole_path`.
PATH_COUNTS = (39, 1, 0, 1)


def _clash_problem():
    """Pairs of clashing items (a base relation ``Qc`` reads) may not share a package."""
    database = random_item_database(9, seed=12)
    database.create_relation("clash", ["left", "right"], [(0, 4), (2, 7)])
    constraint = QueryConstraint(
        ConjunctiveQuery(
            [],
            [
                _rq("i1", "c1", "p1", "q1"),
                _rq("i2", "c2", "p2", "q2"),
                RelationAtom("clash", [Var("i1"), Var("i2")]),
            ],
        )
    )
    return _kernel_problem(
        database, constraint, query=item_selection_query(), size_bound=ConstantBound(2)
    )


def test_a_commit_between_yields_reaches_the_walks_later_verdicts():
    """A consumer committing to ``Qc``'s footprint on a live database between
    two yields gets the later packages' verdicts on the committed rows."""
    problem = _clash_problem()
    database = problem.database
    walk = PackageSearchEngine(problem).iter_valid()
    first = next(walk)
    items = sorted(problem.candidate_items().rows())
    assert first.sorted_items() == (items[0],)
    database.apply_delta([("insert", "clash", (items[1][0], items[2][0]))])
    rest = [package.sorted_items() for package in walk]
    # The packages, as candidate positions, that the walk gave when every
    # verdict came from the oracle.
    position = {item: i for i, item in enumerate(items)}
    assert [tuple(position[item] for item in items) for items in rest] == CLASH_WALK
    assert problem.compatibility_oracle().witness_builds == 2
    assert _oracle_counts(problem) == CLASH_COUNTS
    # The same as a reference search of the committed database, from the
    # first package on (that package's own verdict came before the commit).
    reference = [
        package.sorted_items() for package in enumerate_valid_packages_reference(problem)
    ]
    assert reference[0] == first.sorted_items() and rest == reference[1:]


def test_masks_compiled_after_a_commit_still_test_the_whole_path(monkeypatch):
    """The walk's first index comes after a commit: a node whose ancestors
    were checked before the commit is tested on all its candidates."""
    problem = _clash_problem()
    monkeypatch.setattr(compatibility, "WITNESS_CAP", 0)  # the first build declines
    walk = PackageSearchEngine(problem).iter_valid()
    first = next(walk)
    monkeypatch.undo()
    oracle = problem.compatibility_oracle()
    assert oracle.witness_builds == 0
    (item,) = first.items
    # {item} alone becomes a witness set: no package holding it is compatible.
    problem.database.apply_delta([("insert", "clash", (item[0], item[0]))])
    rest = [package.sorted_items() for package in walk]
    assert oracle.witness_builds == 1
    assert all(item not in items for items in rest)
    assert _oracle_counts(problem) == PATH_COUNTS
    reference = [
        package.sorted_items() for package in enumerate_valid_packages_reference(problem)
    ]
    assert rest == reference


# ---------------------------------------------------------------------------
# Carried indexes: the next epoch's index advanced by the Q(D) row diff
# ---------------------------------------------------------------------------
#: Q: the items priced at most 3, so a price change moves a row across Q's filter.
CHEAP_ITEMS = SPQuery(
    "items",
    [Var("i"), Var("c"), Var("p")],
    [Var("i"), Var("c"), Var("p")],
    [Comparison(ComparisonOp.LE, Var("p"), Const(3))],
    name="cheap",
)

#: The step kinds of a carry stream; ``footprint`` changes ``prereq`` and
#: ``outside`` inserts an item Q filters out (an empty ``Q(D)`` diff).
CARRY_STEPS = ("delete", "insert", "cross", "outside", "footprint", "none")


def _carry_step(rng: random.Random, database: Database, kind: str, fresh: int):
    """One delta of ``kind`` over ``_database``'s relations."""
    rows = sorted(database.relation("items").rows())
    if kind == "delete" and rows:
        return [("delete", "items", rng.choice(rows))]
    if kind == "cross" and rows:
        iid, cat, price = rng.choice(rows)
        moved = rng.choice([p for p in range(1, 6) if (p <= 3) != (price <= 3)])
        return [("delete", "items", (iid, cat, price)), ("insert", "items", (iid, cat, moved))]
    if kind == "outside":
        return [("insert", "items", (fresh, rng.choice(CATEGORIES), 5))]
    if kind == "footprint":
        iids = [row[0] for row in rows] or [0]
        return [("insert", "prereq", (rng.choice(iids), rng.choice(iids)))]
    if kind == "none":
        return []
    return [("insert", "items", (fresh, rng.choice(CATEGORIES), rng.randint(1, 4)))]


def _epoch_oracle(constraint, snapshot, previous):
    """The oracle of one pinned epoch, offered ``previous``'s index, with
    its index in place (the first verdict builds or carries it)."""
    pool = CandidatePool(CHEAP_ITEMS.evaluate(snapshot))
    oracle = CompatibilityOracle(constraint, snapshot)
    if previous is not None:
        oracle.inherit(previous)
    oracle.register_answers(pool)
    oracle.is_satisfied(Package(pool.answers.schema, ()))
    return oracle, pool


def _assert_equals_the_reference(oracle, constraint, snapshot, pool):
    """The epoch's index over ``pool`` equals the row-space reference:
    ``always`` and ``size``, and the masks in ``pool``'s index space."""
    index = oracle._witness
    assert index.pool is pool
    witnesses = _reference_witness_sets(constraint.query, snapshot, pool.answers)
    if witnesses is None:
        assert index.always and index.size == 1
        assert list(index.conflicts) == [1 << i for i in range(len(pool.items))]
    else:
        assert not index.always and index.size == len(witnesses)
        assert _flat_masks(index.conflicts, index.larger) == _reference_masks(
            witnesses, pool.items
        )
    return index


def _carry_stream(kind: str, seed: int, steps: int = 8, emptied: bool = False):
    """Drive a random delta stream; after every step the epoch's index
    (carried or built) equals the row-space reference.  ``emptied`` first
    deletes every row of ``Q(D)``, so the stream starts from an index over
    an empty ``Q(D)``.  Returns what the stream covered."""
    rng = random.Random(f"carry-{kind}-{seed}")
    database = _database(rng)
    constraint = QueryConstraint(_random_qc(rng, kind))
    if emptied:
        rows = CHEAP_ITEMS.evaluate(database).rows()
        database.apply_delta([("delete", "items", row) for row in rows])
    covered = set()
    snapshot = database.snapshot()
    oracle, pool = _epoch_oracle(constraint, snapshot, None)
    index = _assert_equals_the_reference(oracle, constraint, snapshot, pool)
    assert oracle.witness_builds == (index.conflicts is not None)
    if not pool.items:
        covered.add("fresh over empty")
    for step in range(steps):
        step_kind = rng.choice(CARRY_STEPS)
        before = database.version()
        database.apply_delta(_carry_step(rng, database, step_kind, 100 + step))
        snapshot = database.snapshot()
        previous, previous_pool = oracle, pool
        oracle, pool = _epoch_oracle(constraint, snapshot, previous)
        index = _assert_equals_the_reference(oracle, constraint, snapshot, pool)
        assert oracle._predecessor is None
        footprint_moved = dict(before)["prereq"] != dict(database.version())["prereq"]
        removed = set(previous_pool.items) - set(pool.items)
        added = set(pool.items) - set(previous_pool.items)
        offered = previous._witness.conflicts is not None and not (
            footprint_moved and "prereq" in constraint.relation_footprint()
        )
        large = len(added) > compatibility.CARRY_LIMIT * len(pool.items)
        carried = offered and (previous._witness.always or not large)
        finished = index.conflicts is not None
        assert oracle.witness_carries == (carried and finished)
        assert oracle.witness_builds == (not carried and finished)
        if offered and not carried:
            covered.add("large diff")
        if carried:
            covered.add("carry")
            covered.update(
                name
                for name, seen in (
                    ("removed", removed),
                    ("added", added),
                    ("empty diff", not (removed or added)),
                    ("always", index.always),
                    ("three rows", index.larger),
                )
                if seen
            )
        elif previous._witness.conflicts is not None:
            covered.add("fallback")
        # The three ways "every row added" meets an empty Q(D).
        covered.update(
            name
            for name, seen in (
                ("fresh over empty", not carried and not pool.items),
                ("carry onto emptied", carried and previous_pool.items and not pool.items),
                ("from empty onto refilled", offered and not previous_pool.items and pool.items),
            )
            if seen
        )
    return covered


#: The shipped :data:`~repro.core.compatibility.CARRY_LIMIT`, and a limit
#: that carries every diff however large, so every step is a carry.
CARRY_LIMITS = {"shipped": None, "every-diff": 1.0}

#: The seeds of the streams that start from an emptied ``Q(D)``.
EMPTIED_SEEDS = 5


@pytest.mark.parametrize("limit", sorted(CARRY_LIMITS))
@pytest.mark.parametrize("kind", ["cq", "ucq", "efo"])
@pytest.mark.parametrize("seed", range(20))
def test_a_carried_index_equals_a_fresh_build(monkeypatch, limit, kind, seed):
    if CARRY_LIMITS[limit] is not None:
        monkeypatch.setattr(compatibility, "CARRY_LIMIT", CARRY_LIMITS[limit])
    _carry_stream(kind, seed)


@pytest.mark.parametrize("limit", sorted(CARRY_LIMITS))
@pytest.mark.parametrize("kind", ["cq", "ucq", "efo"])
@pytest.mark.parametrize("seed", range(EMPTIED_SEEDS))
def test_a_stream_from_an_empty_q_of_d_equals_the_reference(monkeypatch, limit, kind, seed):
    """The random streams never start from an empty ``Q(D)``; these do, so
    a fresh index over an empty ``Q(D)`` meets the reference too."""
    if CARRY_LIMITS[limit] is not None:
        monkeypatch.setattr(compatibility, "CARRY_LIMIT", CARRY_LIMITS[limit])
    assert "fresh over empty" in _carry_stream(kind, seed, emptied=True)


def _covered(kinds=("cq", "ucq", "efo")):
    covered = set()
    for kind in kinds:
        for seed in range(20):
            covered |= _carry_stream(kind, seed)
        for seed in range(EMPTIED_SEEDS):
            covered |= _carry_stream(kind, seed, emptied=True)
    return covered


def test_the_carry_streams_cover_every_kind_of_diff(monkeypatch):
    """The streams above carry over removed rows, added rows and an empty
    diff, with sets of three rows and an ``RQ``-free disjunct, and fall back
    to a build when ``prereq``, a footprint relation, changes; with the
    shipped limit, a diff adding too many rows builds afresh too.  Each
    way an empty ``Q(D)`` meets "every row added" is reached: a fresh index
    over it, a carry onto it, and an index over a refilled ``Q(D)`` offered
    an empty predecessor."""
    assert "large diff" in _covered()
    monkeypatch.setattr(compatibility, "CARRY_LIMIT", 1.0)
    assert _covered() == {
        "carry",
        "removed",
        "added",
        "empty diff",
        "always",
        "three rows",
        "fallback",
        "fresh over empty",
        "carry onto emptied",
        "from empty onto refilled",
    }


def _serving_epochs(delta):
    """The serving problem's Qc over two pinned epochs of 80 items, the
    second after ``delta`` (a function of the first epoch's ``Q(D)`` rows)."""
    problem = serving_problem(80, seed=1)
    first = problem.pinned()
    rows = sorted(first.candidate_items().rows())
    problem.database.apply_delta(delta(rows))
    return first, problem.pinned()


def _fresh_items(rows, count):
    """``count`` new candidates, each of an existing candidate's category."""
    return [("insert", "items", (1000 + n, *row[1:])) for n, row in enumerate(rows[:count])]


@pytest.mark.parametrize("past_the_cap", [False, True], ids=["at-cap", "one-past"])
def test_a_carry_past_the_witness_cap_declines(monkeypatch, past_the_cap):
    """The predecessor fits the cap; the sets the added rows bring push the
    carried index to it, or one past it, where the carry declines like a build."""
    first, second = _serving_epochs(lambda rows: _fresh_items(rows, 3))
    first_size = _witness_set_count()
    oracle = first.compatibility_oracle()
    oracle.register_answers(first.candidate_pool())
    monkeypatch.setattr(compatibility, "WITNESS_CAP", first_size)
    empty = Package(first.query.output_schema(), ())
    oracle.is_satisfied(empty)
    assert oracle.witness_builds == 1 and oracle.cache_info()["witness_sets"] == first_size
    pool = second.candidate_pool()
    query = second.compatibility.query
    size = len(_reference_witness_sets(query, second.database, pool.answers))
    assert size > first_size
    monkeypatch.setattr(compatibility, "WITNESS_CAP", size - past_the_cap)
    carried = second.compatibility_oracle()
    carried.inherit(oracle)
    carried.register_answers(pool)
    packages = _sample_packages(pool.answers, count=20, seed=7)
    for package in packages:
        assert carried.is_satisfied(package) == second.compatibility.is_satisfied_copying(
            package, second.database
        )
    assert carried.witness_builds == 0 and carried._predecessor is None
    if past_the_cap:
        assert carried._witness.conflicts is None and carried.witness_carries == 0
        assert carried.witness_declines == len(packages)
    else:
        assert carried.witness_carries == 1 and carried.witness_verdicts == len(packages)
        assert carried.cache_info()["witness_sets"] == size


@pytest.mark.parametrize("added", [0, 1, 3])
def test_a_carry_joins_each_rq_occurrence_over_the_added_rows_only(monkeypatch, added):
    """A fresh index joins the serving ``Qc`` once as it stands; a carry
    joins once per ``RQ`` occurrence, that occurrence over the added rows,
    and not at all when the diff adds no row."""
    first, second = _serving_epochs(
        lambda rows: [("delete", "items", rows[0])] + _fresh_items(rows[1:], added)
    )
    joined = []
    join = compatibility.project_bindings

    def spy(database, atoms, *args, **kwargs):
        joined.append(atoms)
        return join(database, atoms, *args, **kwargs)

    monkeypatch.setattr(compatibility, "project_bindings", spy)
    previous = first.compatibility_oracle()
    previous.register_answers(first.candidate_pool())
    previous.is_satisfied(Package(first.query.output_schema(), ()))
    (cq,) = compatibility._witness_disjuncts(first.compatibility.query)
    assert joined == [cq.atoms]
    joined.clear()
    oracle = second.compatibility_oracle()
    oracle.inherit(previous)
    oracle.register_answers(second.candidate_pool())
    oracle.is_satisfied(Package(second.query.output_schema(), ()))
    assert oracle.witness_carries == 1 and oracle.witness_builds == 0
    occurrences = [k for k, atom in enumerate(cq.atoms) if atom.relation == "RQ"]
    assert len(joined) == (len(occurrences) if added else 0)
    for atoms, k in zip(joined, occurrences):
        assert atoms[k] == RelationAtom("RQ_added", cq.atoms[k].terms)
        assert atoms[:k] + atoms[k + 1 :] == cq.atoms[:k] + cq.atoms[k + 1 :]


@pytest.mark.parametrize(
    "cancel, error", [(False, RequestTimeout), (True, RequestCancelled)], ids=["timeout", "cancel"]
)
def test_a_deadline_firing_mid_carry_leaves_no_index(monkeypatch, cancel, error):
    """An interrupted carry keeps nothing, drops the predecessor and is
    remembered as a decline: the epoch's later verdicts are probed."""
    first, second = _serving_epochs(
        lambda rows: [("delete", "items", rows[0])] + _fresh_items(rows[1:], 2)
    )
    previous = first.compatibility_oracle()
    previous.register_answers(first.candidate_pool())
    previous.is_satisfied(Package(first.query.output_schema(), ()))
    assert previous.witness_builds == 1
    oracle = second.compatibility_oracle()
    oracle.inherit(previous)
    oracle.register_answers(second.candidate_pool())
    answers = second.candidate_items()
    deadline = Deadline.after(None if cancel else 0.05, token=CancellationToken())
    _fire_after_the_first_binding(
        monkeypatch, deadline.token.cancel if cancel else lambda: _wait_out(deadline)
    )
    with deadline_scope(deadline):
        with pytest.raises(error):
            oracle.is_satisfied(_sample_packages(answers, count=1, seed=3)[0])
    monkeypatch.undo()
    assert oracle._predecessor is None and oracle._witness.conflicts is None
    assert oracle.witness_carries == 0 and oracle.witness_builds == 0
    for package in _sample_packages(answers, count=10, seed=4):
        assert oracle.is_satisfied(package) == second.compatibility.is_satisfied_copying(
            package, second.database
        )
    assert oracle.witness_verdicts == 0 and oracle.misses + oracle.hits == 10


def test_a_different_constraint_or_a_live_database_is_not_inherited():
    """Only a finished index of the same constraint object over a pinned
    snapshot is offered; anything else leaves the oracle to build."""
    first, second = _serving_epochs(lambda rows: _fresh_items(rows, 1))
    previous = first.compatibility_oracle()
    previous.register_answers(first.candidate_pool())
    other = CompatibilityOracle(QueryConstraint(first.compatibility.query), second.database)
    other.inherit(previous)  # unbuilt: nothing to offer
    assert other._predecessor is None
    previous.is_satisfied(Package(first.query.output_schema(), ()))
    other.inherit(previous)  # another constraint object
    assert other._predecessor is None
    live = CompatibilityOracle(first.compatibility, first.database.source())
    live.register_answers(first.candidate_pool())
    live.is_satisfied(Package(first.query.output_schema(), ()))
    oracle = second.compatibility_oracle()
    oracle.inherit(live)  # an index over a live database
    assert oracle._predecessor is None
    oracle.inherit(previous)
    assert oracle._predecessor is not None


def _epoch_oracle_of(server):
    return server._current_context().problem.compatibility_oracle()


def test_a_served_trace_carries_and_answers_as_serial_reexecution():
    """Every epoch of a served trace after the first carries its index, and
    each answer equals a serial re-execution on a copy of its epoch."""
    trace = build_trace(num_items=40, num_rounds=8, batch_size=10, seed=3)
    server = SnapshotServer(trace.problem, max_workers=2)
    database = trace.problem.database
    rows = sorted(database.relation("items").rows())
    carries = builds = 0
    archive = []
    for round_index, (delta, requests) in enumerate(trace.rounds):
        # Deletes of the original rows too, some inside Q's price filter.
        delta = list(delta) + [("delete", "items", rows[round_index])]
        server.apply(delta)
        results = server.serve_batch(requests)
        info = _epoch_oracle_of(server).cache_info()
        carries += info["witness_carries"]
        builds += info["witness_builds"]
        archive.append((database.epoch, database.copy(), results))
    assert (builds, carries) == (1, len(trace.rounds) - 1)
    for epoch, copy, results in archive:
        problem = trace.problem.with_database(copy)
        for result in results:
            assert result.error is None and result.epoch == epoch
            assert result.answer == execute_request(problem, result.request)


def test_the_previous_epochs_snapshot_is_collected_after_one_request():
    """Once the next epoch has answered one request, nothing refers to the
    previous epoch's snapshot: the carry kept neither its pool nor the
    snapshot, and the server kept no older context."""
    problem = serving_problem(40, seed=2)
    server = SnapshotServer(problem, max_workers=1)
    assert server.serve_one(ServeRequest.top_k()).error is None
    previous = weakref.ref(server._current_context().problem.database)
    rows = sorted(problem.candidate_items().rows())
    server.apply([("delete", "items", rows[0])])
    result = server.serve_one(ServeRequest.top_k())
    assert result.error is None
    assert _epoch_oracle_of(server).witness_carries == 1
    gc.collect()
    assert previous() is None
