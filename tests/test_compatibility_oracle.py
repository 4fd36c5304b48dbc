"""Tests for the memoized compatibility oracle.

Covers the cache contract end to end: hit/miss accounting, invalidation when
the underlying database mutates, sharing across derived problems (the QRPP
path), and — the property everything else rests on — that results of the
counting and top-k solvers are byte-identical whether the verdicts are
witness-served or probed (:func:`scenarios.probe_path`).  The memo holds
at most ``VERDICT_MEMO_LIMIT`` verdicts on long predicate and streaming
QRPP runs, which answer as with every verdict kept.
"""

from __future__ import annotations

import random
import sys
import threading
from dataclasses import replace

import pytest

import repro.core.compatibility as compatibility
from repro.core import (
    CompatibilityOracle,
    CountCost,
    CountRating,
    PredicateConstraint,
    QueryConstraint,
    RecommendationProblem,
    all_distinct_on,
    compute_top_k,
    count_valid_packages,
    enumerate_valid_packages,
)
from repro.core.enumeration import PackageSearchEngine
from repro.core.model import CandidatePool, PolynomialBound
from repro.core.packages import Package
from repro.incremental import StreamingQRPP
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.queries import parse_cq
from repro.queries.ast import Comparison, ComparisonOp, RelationAtom, Var
from repro.queries.cq import ConjunctiveQuery
from repro.relational.database import Database
from repro.relaxation import RelaxationSpace, find_package_relaxation
from repro.serving.trace import serving_problem
from repro.workloads.synthetic import synthetic_package_problem

from scenarios import duplicate_category_qc, probe_path


def _counting_constraint():
    """A predicate constraint that records how often it is evaluated."""
    calls = []

    def predicate(package, database):
        calls.append(package.items)
        return len(package) <= 2

    return PredicateConstraint(predicate, "at most two items"), calls


@pytest.fixture
def items_database() -> Database:
    database = Database()
    database.create_relation(
        "items", ["iid", "kind"], [(1, "a"), (2, "b"), (3, "a"), (4, "c")]
    )
    return database


def _package(database: Database, *iids: int) -> Package:
    relation = database.relation("items")
    rows = [row for row in relation if row[0] in iids]
    return Package(relation.schema, rows)


# ---------------------------------------------------------------------------
# Accounting
# ---------------------------------------------------------------------------
def test_cache_hit_and_miss_accounting(items_database):
    constraint, calls = _counting_constraint()
    oracle = CompatibilityOracle(constraint, items_database)
    package = _package(items_database, 1, 2)

    assert oracle.is_satisfied(package)
    assert oracle.is_satisfied(package)
    assert oracle.is_satisfied(_package(items_database, 3))

    assert oracle.hits == 1
    assert oracle.misses == 2
    assert len(calls) == 2
    info = oracle.cache_info()
    assert info["hits"] == 1 and info["misses"] == 2 and info["size"] == 2


def _kind_clash_constraint() -> QueryConstraint:
    """A CQ Qc, "two items of one kind", which the witness path serves."""
    return QueryConstraint(
        ConjunctiveQuery(
            [],
            [
                RelationAtom("RQ", [Var("x"), Var("k")]),
                RelationAtom("RQ", [Var("y"), Var("k")]),
            ],
            [Comparison(ComparisonOp.NE, Var("x"), Var("y"))],
        )
    )


def test_witness_verdict_accounting(items_database):
    """The witness-path twin of the accounting test: the memo is untouched."""
    oracle = CompatibilityOracle(_kind_clash_constraint(), items_database)
    # Without a registered Q(D) the verdict is probed (and memoized).
    assert not oracle.is_satisfied(_package(items_database, 1, 3))
    assert oracle.misses == 1 and oracle.witness_declines == 1
    oracle.register_answers(CandidatePool(items_database.relation("items")))
    package = _package(items_database, 1, 2)

    assert oracle.is_satisfied(package)
    assert oracle.is_satisfied(package)
    assert not oracle.is_satisfied(_package(items_database, 1, 3))

    assert oracle.hits == 0 and oracle.misses == 1
    assert oracle.witness_verdicts == 3 and oracle.witness_builds == 1
    info = oracle.cache_info()
    assert info["size"] == 1 and info["witness_sets"] == 1  # {item 1, item 3}
    oracle.clear()
    assert oracle.witness_verdicts == 0 and oracle.witness_builds == 0
    assert oracle.cache_info()["witness_sets"] == 0


def test_clear_resets_cache_and_accounting(items_database):
    constraint, _ = _counting_constraint()
    oracle = CompatibilityOracle(constraint, items_database)
    oracle.is_satisfied(_package(items_database, 1))
    oracle.is_satisfied(_package(items_database, 1))
    oracle.clear()
    assert oracle.hits == 0 and oracle.misses == 0
    assert oracle.cache_info()["size"] == 0


# ---------------------------------------------------------------------------
# Invalidation on database mutation
# ---------------------------------------------------------------------------
def test_database_mutation_invalidates_cached_verdicts():
    """A Qc consulting a conflict relation must see in-place updates."""
    database = Database()
    database.create_relation("items", ["iid", "kind"], [(1, "a"), (2, "b")])
    conflicts = database.create_relation("conflict", ["left", "right"])
    # Qc: two package items whose ids are declared conflicting.
    qc = ConjunctiveQuery(
        [Var("x")],
        [
            RelationAtom("RQ", [Var("x"), Var("kx")]),
            RelationAtom("RQ", [Var("y"), Var("ky")]),
            RelationAtom("conflict", [Var("x"), Var("y")]),
        ],
        name="Qc",
    )
    oracle = CompatibilityOracle(QueryConstraint(qc), database)
    package = _package(database, 1, 2)

    assert oracle.is_satisfied(package)  # no conflicts declared yet
    conflicts.add((1, 2))
    assert not oracle.is_satisfied(package)  # stale verdict must not be served
    conflicts.discard((1, 2))
    assert oracle.is_satisfied(package)


def test_oracle_reuse_across_problems_on_one_database(items_database):
    """Two problems over the same database may share one oracle safely."""
    constraint, calls = _counting_constraint()
    oracle = CompatibilityOracle(constraint, items_database)
    package = _package(items_database, 1, 2)
    assert oracle.is_satisfied(package)
    # A second "problem" probing the same package hits the shared cache.
    assert oracle.is_satisfied(_package(items_database, 1, 2))
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Footprint-aware retention on database deltas (PR 3)
# ---------------------------------------------------------------------------
def test_delta_outside_footprint_retains_cached_verdicts():
    """A Qc reading only ``conflict`` keeps its verdicts across item deltas."""
    database = Database()
    items = database.create_relation("items", ["iid", "kind"], [(1, "a"), (2, "b")])
    database.create_relation("conflict", ["left", "right"])
    qc = ConjunctiveQuery(
        [Var("x")],
        [
            RelationAtom("RQ", [Var("x"), Var("kx")]),
            RelationAtom("RQ", [Var("y"), Var("ky")]),
            RelationAtom("conflict", [Var("x"), Var("y")]),
        ],
        name="Qc",
    )
    constraint = QueryConstraint(qc)
    assert constraint.relation_footprint() == frozenset({"conflict"})
    oracle = CompatibilityOracle(constraint, database)
    package = _package(database, 1, 2)
    assert oracle.is_satisfied(package)
    items.add((3, "c"))  # outside the footprint
    assert oracle.is_satisfied(package)
    assert oracle.hits == 1 and oracle.misses == 1
    assert oracle.retentions == 1 and oracle.invalidations == 0
    assert oracle.witness_verdicts == 0  # no Q(D) registered: the probe path


def test_the_witness_index_follows_the_footprint():
    """The witness-path twin of the retention tests: a delta outside the
    footprint keeps the index, one inside rebuilds it, and the verdicts
    follow the footprint delta."""
    database = Database()
    items = database.create_relation("items", ["iid", "kind"], [(1, "a"), (2, "b")])
    conflicts = database.create_relation("conflict", ["left", "right"])
    qc = ConjunctiveQuery(
        [Var("x")],
        [
            RelationAtom("RQ", [Var("x"), Var("kx")]),
            RelationAtom("RQ", [Var("y"), Var("ky")]),
            RelationAtom("conflict", [Var("x"), Var("y")]),
        ],
        name="Qc",
    )
    oracle = CompatibilityOracle(QueryConstraint(qc), database)
    oracle.register_answers(CandidatePool(items))
    package = _package(database, 1, 2)
    assert oracle.is_satisfied(package)
    items.add((3, "c"))  # outside the footprint
    assert oracle.is_satisfied(package)
    assert oracle.witness_builds == 1
    conflicts.add((1, 2))  # inside the footprint
    assert not oracle.is_satisfied(package)
    assert oracle.witness_builds == 2
    assert oracle.witness_verdicts == 3 and oracle.misses == 0


def test_delta_inside_footprint_still_clears():
    database = Database()
    database.create_relation("items", ["iid", "kind"], [(1, "a"), (2, "b")])
    conflicts = database.create_relation("conflict", ["left", "right"])
    qc = ConjunctiveQuery(
        [Var("x")],
        [
            RelationAtom("RQ", [Var("x"), Var("kx")]),
            RelationAtom("RQ", [Var("y"), Var("ky")]),
            RelationAtom("conflict", [Var("x"), Var("y")]),
        ],
        name="Qc",
    )
    oracle = CompatibilityOracle(QueryConstraint(qc), database)
    package = _package(database, 1, 2)
    assert oracle.is_satisfied(package)
    conflicts.add((1, 2))
    assert not oracle.is_satisfied(package)
    assert oracle.invalidations == 1 and oracle.retentions == 0


def test_unknown_footprint_always_clears(items_database):
    """PredicateConstraint without a declared footprint stays conservative."""
    constraint, calls = _counting_constraint()
    assert constraint.relation_footprint() is None
    oracle = CompatibilityOracle(constraint, items_database)
    package = _package(items_database, 1, 2)
    oracle.is_satisfied(package)
    items_database.relation("items").add((9, "z"))
    oracle.is_satisfied(package)
    assert len(calls) == 2  # re-evaluated: the cache was cleared
    assert oracle.invalidations == 1 and oracle.retentions == 0


def test_declared_empty_footprint_survives_every_delta(items_database):
    """relations=() promises a package-only predicate: verdicts always survive."""
    from repro.core.compatibility import all_distinct_on

    constraint = all_distinct_on("kind")
    assert constraint.relation_footprint() == frozenset()
    oracle = CompatibilityOracle(constraint, items_database)
    package = _package(items_database, 1, 2)
    assert oracle.is_satisfied(package)
    items_database.relation("items").add((9, "z"))
    assert oracle.is_satisfied(package)
    assert oracle.hits == 1 and oracle.misses == 1 and oracle.retentions == 1


def test_active_domain_dependent_qc_has_no_footprint():
    """An FO Qc quantifies over the whole active domain: any delta can flip
    its verdicts, so the footprint must stay unknown (always clear)."""
    from repro.queries.ast import Not
    from repro.queries.fo import FirstOrderQuery

    database = Database()
    items = database.create_relation("items", ["iid"], [(1,), (2,)])
    other = database.create_relation("other", ["v"])
    qc = FirstOrderQuery([Var("x")], Not(RelationAtom("RQ", [Var("x")])), name="fo_qc")
    constraint = QueryConstraint(qc)
    assert constraint.relation_footprint() is None
    oracle = CompatibilityOracle(constraint, database)
    # the package covers the whole active domain, so Qc(N, D) is empty ...
    package = Package(items.schema.rename("RQ"), [(1,), (2,)])
    assert oracle.is_satisfied(package) is True
    other.add((42,))  # ... until a delta to an unrelated relation grows adom
    assert oracle.is_satisfied(package) is False  # stale verdict not served
    assert oracle.is_satisfied(package) == constraint.is_satisfied(package, database)


def test_conjunction_footprint_is_the_union():
    from repro.core.compatibility import (
        ConjunctionConstraint,
        all_distinct_on,
        at_most_k_with_value,
    )

    package_only = ConjunctionConstraint(all_distinct_on("kind"), at_most_k_with_value("kind", "a", 2))
    assert package_only.relation_footprint() == frozenset()
    qc = ConjunctiveQuery(
        [Var("x")], [RelationAtom("RQ", [Var("x"), Var("k")]), RelationAtom("conflict", [Var("x"), Var("x")])],
        name="Qc",
    )
    mixed = ConjunctionConstraint(all_distinct_on("kind"), QueryConstraint(qc))
    assert mixed.relation_footprint() == frozenset({"conflict"})
    constraint, _ = _counting_constraint()
    unknown = ConjunctionConstraint(all_distinct_on("kind"), constraint)
    assert unknown.relation_footprint() is None


# ---------------------------------------------------------------------------
# A probe that explodes mid-way leaves the next verdict correct
# ---------------------------------------------------------------------------
def test_failed_probe_leaves_the_next_verdict_correct(items_database):
    """A mid-probe exception must not leak the failed package into later probes.

    Inject a failure *during* the evaluation — a mixed-type comparison
    raising ``TypeError`` once the package's rows reach it — and check that
    nothing was left behind: the database is unchanged, and subsequent
    probes see exactly the reference (copying) semantics.
    """
    qc = ConjunctiveQuery(
        [Var("x")],
        [RelationAtom("RQ", [Var("x"), Var("k")])],
        [Comparison(ComparisonOp.LT, Var("x"), 5)],
        name="exploding_qc",
    )
    constraint = QueryConstraint(qc)
    schema = items_database.relation("items").schema.rename("RQ")
    poisoned = Package(schema, [("not-an-int", "a")])  # "not-an-int" < 5 raises
    version_before = items_database.version()

    with pytest.raises(TypeError):
        constraint.is_satisfied(poisoned, items_database)

    assert items_database.version() == version_before
    assert "RQ" not in items_database
    # The next probe agrees with the per-probe copying reference.
    clean = _package(items_database, 1, 2)
    assert constraint.is_satisfied(clean, items_database) is False  # 1 < 5 matched
    assert constraint.is_satisfied(clean, items_database) == (
        constraint.is_satisfied_copying(clean, items_database)
    )


# ---------------------------------------------------------------------------
# The probe vs the copying reference, live and pinned
# ---------------------------------------------------------------------------
def _conflict_qc_database():
    database = Database()
    database.create_relation("items", ["iid", "kind"], [(1, "a"), (2, "b"), (3, "a")])
    database.create_relation("conflict", ["left", "right"], [(1, 3)])
    qc = ConjunctiveQuery(
        [Var("x")],
        [
            RelationAtom("RQ", [Var("x"), Var("kx")]),
            RelationAtom("RQ", [Var("y"), Var("ky")]),
            RelationAtom("conflict", [Var("x"), Var("y")]),
        ],
        name="Qc",
    )
    return database, qc


@pytest.mark.parametrize("pinned", [False, True], ids=["live", "snapshot"])
@pytest.mark.parametrize("iids", [(1,), (1, 2), (1, 3), (1, 2, 3), ()])
def test_probe_and_copying_reference_agree(iids, pinned):
    """The one probe path returns the reference verdict on every package."""
    database, qc = _conflict_qc_database()
    package = _package(database, *iids)
    target = database.snapshot() if pinned else database
    constraint = QueryConstraint(qc)
    reference = constraint.is_satisfied_copying(package, target)
    assert constraint.is_satisfied(package, target) is reference


def test_probe_mutates_nothing():
    """A probe touches neither the database nor any relation in it."""
    database, qc = _conflict_qc_database()
    constraint = QueryConstraint(qc)
    versions_before = database.version()
    assert constraint.is_satisfied(_package(database, 1, 3), database) is False
    assert constraint.is_satisfied(_package(database, 1, 2), database) is True
    assert database.version() == versions_before
    assert "RQ" not in database


def test_probe_falls_back_to_copying_without_extra_relations_support():
    """A query class without the ``extra_relations`` overlay still probes right."""
    database, qc = _conflict_qc_database()

    class _BareQuery:
        def __init__(self, inner):
            self._inner = inner

        def evaluate(self, database):
            return self._inner.evaluate(database)

        def __getattr__(self, name):
            return getattr(self._inner, name)

    constraint = QueryConstraint(_BareQuery(qc))
    for target in (database, database.snapshot()):
        assert constraint.is_satisfied(_package(database, 1, 3), target) is False
        assert constraint.is_satisfied(_package(database, 1, 2), target) is True


def test_pinned_oracle_never_leaks_verdicts_across_epochs():
    """An oracle over a pinned problem keeps answering as of its epoch."""
    database, qc = _conflict_qc_database()
    constraint = QueryConstraint(qc)
    snapshot = database.snapshot()
    oracle = CompatibilityOracle(constraint, snapshot)
    package = _package(database, 1, 2)
    assert oracle.is_satisfied(package) is True
    # A writer commits a conflict making (1, 2) incompatible on the *live* db.
    database.apply_delta([("insert", "conflict", (1, 2))])
    assert oracle.is_satisfied(package) is True  # pinned epoch: still valid
    assert oracle.invalidations == 0  # the snapshot's version never moved
    fresh = CompatibilityOracle(constraint, database.snapshot())
    assert fresh.is_satisfied(package) is False  # the new epoch sees the delta


# ---------------------------------------------------------------------------
# Problem wiring
# ---------------------------------------------------------------------------
def test_problem_transforms_share_the_oracle():
    problem = synthetic_package_problem(6, seed=1).problem
    oracle = problem.compatibility_oracle()
    assert problem.with_budget(10.0).compatibility_oracle() is oracle
    assert problem.with_k(2).compatibility_oracle() is oracle
    assert problem.with_query(problem.query).compatibility_oracle() is oracle
    assert problem.with_constant_bound(2).compatibility_oracle() is oracle


def test_siblings_share_without_probing_the_parent_first():
    """Deriving from an untouched parent still yields one shared oracle.

    This is the QRPP flow: ``find_package_relaxation`` never probes the base
    problem itself, only the relaxed problems derived from it — verdict
    sharing must not depend on the parent's oracle already existing.
    """
    problem = synthetic_package_problem(6, seed=1).problem
    first = problem.with_query(problem.query)
    second = problem.with_budget(50.0)
    assert first.compatibility_oracle() is second.compatibility_oracle()
    assert first.compatibility_oracle() is problem.compatibility_oracle()


def test_changing_database_or_constraint_gets_a_fresh_oracle():
    problem = synthetic_package_problem(6, seed=1).problem
    oracle = problem.compatibility_oracle()
    other_database = synthetic_package_problem(6, seed=2).problem.database
    assert problem.with_database(other_database).compatibility_oracle() is not oracle
    assert problem.without_compatibility().compatibility_oracle() is not oracle


def test_enumeration_actually_hits_the_cache():
    # Pin updated for the PR-2 search engine: within ONE enumeration the
    # engine probes each lattice node at most once (the verdict serves both
    # the pruning hint and the validity check), so a single solver run
    # produces only misses.  The cache pays off when a second solver — or a
    # QRPP-style derived problem — walks the same lattice: on this problem
    # the top-k search only probes nodes the count already probed, so every
    # probe of the second run must be a hit.
    problem = synthetic_package_problem(8, seed=3).problem
    count_valid_packages(problem, rating_bound=10.0)  # full lattice walk
    oracle = problem.compatibility_oracle()
    assert oracle.misses > 0
    assert oracle.hits == 0  # the engine never probes one node twice
    misses_after_first = oracle.misses
    compute_top_k(problem)  # walks a (possibly pruned) subset of the lattice
    assert oracle.misses == misses_after_first  # second solver: all served from cache
    assert oracle.hits > 0
    assert oracle.witness_verdicts == 0  # a predicate Qc: the probe path


def test_enumeration_reuses_the_witness_index():
    """The witness-path twin: a second solver over the same Q(D) reuses the
    index the first one built, and nothing is probed."""
    problem = synthetic_package_problem(8, seed=3).problem
    problem = replace(problem, compatibility=duplicate_category_qc())
    count_valid_packages(problem, rating_bound=10.0)  # full lattice walk
    oracle = problem.compatibility_oracle()
    assert oracle.witness_builds == 1 and oracle.witness_verdicts > 0
    verdicts_after_first = oracle.witness_verdicts
    compute_top_k(problem)
    assert oracle.witness_builds == 1
    assert oracle.witness_verdicts > verdicts_after_first
    assert oracle.hits == 0 and oracle.misses == 0


def test_readers_sharing_an_oracle_lose_no_count():
    """Each walk tallies its own verdicts and settles them under the oracle's
    lock, so readers sharing one pinned problem's oracle (as the serving
    pool's workers do) count every verdict, in the oracle and the registry."""
    per_walk = PackageSearchEngine(serving_problem(40, seed=3).pinned())
    per_walk.count_valid()
    verdicts_per_walk = per_walk.oracle.witness_verdicts
    assert verdicts_per_walk > 0
    problem = serving_problem(40, seed=3).pinned()
    engines = [PackageSearchEngine(problem) for _ in range(6)]
    package = next(iter(engines[0].iter_valid()))
    walks, singles = 4, 300
    barrier = threading.Barrier(len(engines))
    errors = []

    def reader(engine):
        try:
            barrier.wait(timeout=10)
            for _ in range(walks):
                engine.count_valid()
                for _ in range(singles // walks):
                    engine.oracle.is_satisfied(package)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    oracle = problem.compatibility_oracle()
    oracle.clear()
    registry = MetricsRegistry()
    threads = [threading.Thread(target=reader, args=(engine,)) for engine in engines]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with use_metrics(registry):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    expected = len(engines) * (walks * verdicts_per_walk + singles)
    assert oracle.witness_verdicts == expected
    assert registry.counter("oracle.witness.verdicts") == expected
    assert oracle.misses == 0 and registry.counter("oracle.verdict.misses") == 0


# ---------------------------------------------------------------------------
# Witness-served/probed equivalence
# ---------------------------------------------------------------------------
def _served_and_probed(num_items):
    """A problem with a CQ ``Qc`` (which the witness path serves) and its
    :func:`probe_path` twin (which probes every verdict)."""
    served = serving_problem(num_items, seed=num_items)
    return served, probe_path(served)


def _assert_took_both_paths(served, probed):
    assert served.compatibility_oracle().witness_verdicts > 0
    assert served.compatibility_oracle().misses == 0
    assert probed.compatibility_oracle().witness_verdicts == 0
    assert probed.compatibility_oracle().misses > 0


@pytest.mark.parametrize("num_items", [6, 8, 10])
def test_count_valid_packages_identical_witness_served_and_probed(num_items):
    served, probed = _served_and_probed(num_items)
    witness_count = count_valid_packages(served, rating_bound=10.0)
    probed_count = count_valid_packages(probed, rating_bound=10.0)
    assert repr(witness_count) == repr(probed_count)
    assert witness_count.count == probed_count.count
    _assert_took_both_paths(served, probed)


@pytest.mark.parametrize("num_items", [6, 8, 10])
def test_compute_top_k_identical_witness_served_and_probed(num_items):
    served, probed = _served_and_probed(num_items)
    witness_top = compute_top_k(served)
    probed_top = compute_top_k(probed)
    assert repr(witness_top) == repr(probed_top)
    assert witness_top.ratings == probed_top.ratings
    assert [p.sorted_items() for p in witness_top.selection] == [
        p.sorted_items() for p in probed_top.selection
    ]
    _assert_took_both_paths(served, probed)


# ---------------------------------------------------------------------------
# The memo's bound
# ---------------------------------------------------------------------------
MEMO_LIMIT = 8


def _predicate_run(problem):
    """A long predicate-``Qc`` run: every valid package, counts at several
    rating bounds and the top-3, with the memo's size after each."""
    answers, sizes = [], []
    oracle = problem.compatibility_oracle()
    answers.append(sorted(p.sorted_items() for p in enumerate_valid_packages(problem)))
    sizes.append(oracle.cache_info()["size"])
    for bound in (5.0, 15.0, 25.0, 40.0):
        answers.append(count_valid_packages(problem, rating_bound=bound).count)
        sizes.append(oracle.cache_info()["size"])
    answers.append([p.sorted_items() for p in compute_top_k(problem.with_k(3)).selection])
    sizes.append(oracle.cache_info()["size"])
    return answers, sizes, oracle


def test_the_memo_holds_at_most_its_limit_on_a_predicate_run(monkeypatch):
    """Many more distinct packages than the limit: the memo clears when
    full, stays at or below the limit, and the answers are the reference's
    (the same run with every verdict kept)."""
    reference, sizes, oracle = _predicate_run(synthetic_package_problem(10, seed=3).problem)
    assert max(sizes) > 4 * MEMO_LIMIT and oracle.hits > 0
    monkeypatch.setattr(compatibility, "VERDICT_MEMO_LIMIT", MEMO_LIMIT)
    answers, sizes, oracle = _predicate_run(synthetic_package_problem(10, seed=3).problem)
    assert answers == reference
    assert max(sizes) <= MEMO_LIMIT
    assert oracle.misses > 4 * MEMO_LIMIT


def _shop_stream(seed):
    """StreamingQRPP's differential instance, with a predicate ``Qc``."""
    rng = random.Random(7000 + seed)
    database = Database()
    cities = ["nyc", "ewr", "sfo"]
    database.create_relation(
        "shop",
        ["name", "city", "rating"],
        {(f"s{i}", rng.choice(cities), rng.randrange(1, 9)) for i in range(12)},
    )
    problem = RecommendationProblem(
        database=database,
        query=parse_cq("Q(n, r) :- shop(n, 'nyc', r).", name="nyc_shops"),
        cost=CountCost(),
        val=CountRating(),
        budget=5.0,
        k=2,
        compatibility=all_distinct_on("r"),
        size_bound=PolynomialBound(1.0, 1),
        monotone_cost=True,
        name="bounded memo",
    )
    batches = [
        [
            (
                rng.choice(["insert", "delete"]),
                "shop",
                (f"s{rng.randrange(12)}", rng.choice(cities), rng.randrange(1, 9)),
            )
            for _ in range(rng.randint(1, 2))
        ]
        for _ in range(6)
    ]
    return problem, batches


@pytest.mark.parametrize("seed", range(4))
def test_the_memo_holds_at_most_its_limit_on_a_streaming_qrpp_run(monkeypatch, seed):
    """Streaming QRPP over a predicate ``Qc`` with a bounded memo answers as
    the search re-run from scratch on a copy of each step's database."""
    monkeypatch.setattr(compatibility, "VERDICT_MEMO_LIMIT", MEMO_LIMIT)
    problem, batches = _shop_stream(seed)
    space = RelaxationSpace.for_constants(problem.query)
    streaming = StreamingQRPP(problem, space, 5.0, 2.0)
    oracle = problem.compatibility_oracle()
    for batch in batches:
        streaming.apply(batch)
        live = streaming.current()
        assert oracle.cache_info()["size"] <= MEMO_LIMIT
        scratch = find_package_relaxation(
            problem.with_database(problem.database.copy()), space, 5.0, 2.0
        )
        assert (live.found, live.gap, live.relaxations_tried) == (
            scratch.found,
            scratch.gap,
            scratch.relaxations_tried,
        )
        if live.found:
            assert [p.sorted_items() for p in live.witnesses] == [
                p.sorted_items() for p in scratch.witnesses
            ]
    assert oracle.misses > 2 * MEMO_LIMIT  # the memo was full at least twice
