"""Property tests: snapshot isolation pins answers, indexes and verdicts.

Seeded-random in the house style: every case derives a database, a query or a
whole recommendation problem, and a writer's update stream from an integer
seed through the shared scenario kit (:mod:`scenarios`), takes a
:class:`~repro.relational.database.DatabaseSnapshot`, lets the writer commit
arbitrary :meth:`~repro.relational.database.Database.apply_delta` batches
(and undo them), and asserts the snapshot's world is **bit-identical** before
and after: query answers, relation versions, statistics snapshots,
sorted/trie indexes and compatibility verdicts all keep answering as of the
pinned epoch.  The serial-re-execution cross-check — a plain
:meth:`~repro.relational.database.Database.copy` taken at pin time must agree
with the snapshot forever — is what licenses the serving layer to answer
requests from pinned snapshots while a writer commits concurrently.
"""

from __future__ import annotations

import random

import pytest

from repro.core import compute_top_k, count_valid_packages
from repro.relational import Database, DatabaseSnapshot
from repro.relational.errors import ModelError

from scenarios import (
    random_cq_or_ucq,
    random_database,
    random_problem,
    random_update_stream,
)


def _answers(query, database):
    return query.evaluate(database).rows()


# ---------------------------------------------------------------------------
# Query answers are pinned
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(20))
def test_snapshot_answers_survive_update_streams(seed):
    """A pinned snapshot's answers and versions never move under a writer."""
    rng = random.Random(9_000 + seed)
    database = random_database(rng)
    query = random_cq_or_ucq(rng, database)
    reference = database.copy()  # serial re-execution twin, taken at pin time
    snapshot = database.snapshot()
    pinned_answers = _answers(query, snapshot)
    pinned_versions = snapshot.version()
    pinned_epoch = snapshot.epoch

    tokens = []
    for batch in random_update_stream(rng, database, 8):
        tokens.append(database.apply_delta(batch))

    # The snapshot is bit-identical to its pin time ...
    assert _answers(query, snapshot) == pinned_answers
    assert snapshot.version() == pinned_versions
    assert snapshot.epoch == pinned_epoch
    # ... and equal to a serial re-execution against the pin-time copy.
    assert _answers(query, reference) == pinned_answers

    # Undoing the whole stream restores the live database to the pinned world
    # (undo tokens revert exact row sets; versions keep moving forward).
    for token in reversed(tokens):
        token.undo()
    assert database == reference
    assert _answers(query, database) == pinned_answers


@pytest.mark.parametrize("seed", range(10))
def test_snapshot_taken_mid_stream_pins_that_prefix(seed):
    """A snapshot taken after k batches equals a copy taken at the same point."""
    rng = random.Random(11_000 + seed)
    database = random_database(rng)
    query = random_cq_or_ucq(rng, database)
    stream = random_update_stream(rng, database, 6)
    cut = rng.randrange(len(stream) + 1)
    for batch in stream[:cut]:
        database.apply_delta(batch)
    mid_copy = database.copy()
    mid_snapshot = database.snapshot()
    for batch in stream[cut:]:
        database.apply_delta(batch)
    assert _answers(query, mid_snapshot) == _answers(query, mid_copy)
    assert mid_snapshot == mid_copy  # full row-set equality, every relation


# ---------------------------------------------------------------------------
# Indexes and statistics are per-epoch
# ---------------------------------------------------------------------------
def test_snapshot_indexes_and_statistics_are_frozen_at_the_epoch():
    """Lazy structures built through a snapshot describe its epoch forever."""
    database = Database()
    database.create_relation(
        "R", ["a", "b"], [(1, 10), (2, 20), (2, 30), (3, 10)]
    )
    snapshot = database.snapshot()
    relation = snapshot.relation("R")
    stats = relation.statistics()
    assert (stats.cardinality, stats.distinct_counts) == (4, (3, 3))
    probe = relation.probe((0,), (2,))
    ranged = relation.range_rows(0, "<", 3)
    trie = relation.trie_index_on((0, 1)).as_nested()

    database.apply_delta(
        [("insert", "R", (2, 40)), ("delete", "R", (3, 10)), ("insert", "R", (9, 9))]
    )

    # The snapshot's structures are untouched — same results, same memoized
    # statistics object (the pinned relation's version never moved).
    assert relation.statistics() is stats
    assert relation.probe((0,), (2,)) == probe
    assert relation.range_rows(0, "<", 3) == ranged
    assert relation.trie_index_on((0, 1)).as_nested() == trie

    # The live relation follows the ordinary maintenance contract: its clone
    # was mutated in place and serves post-delta statistics and probes.
    live = database.relation("R")
    assert live is not relation
    assert live.statistics().cardinality == 5
    assert len(live.probe((0,), (2,))) == 3
    assert live.range_rows(0, "<", 3) is not None
    assert len(live.range_rows(0, "<", 3)) == 4  # rows with a in {1, 2}


def test_copy_on_write_is_relation_granular():
    """Only relations a delta touches are cloned; the rest share storage."""
    database = Database()
    touched = database.create_relation("touched", ["a"], [(1,)])
    shared = database.create_relation("shared", ["a"], [(7,)])
    snapshot = database.snapshot()
    database.apply_delta([("insert", "touched", (2,))])
    assert snapshot.relation("touched") is touched
    assert database.relation("touched") is not touched
    # The untouched relation is the same object in both worlds.
    assert snapshot.relation("shared") is shared
    assert database.relation("shared") is shared


def test_copy_on_write_holds_for_every_database_sharing_a_relation():
    """Pins live on the relation object: a commit through another database
    that holds the pinned relation clones it there, as the pinning one would."""
    database = Database()
    relation = database.create_relation("R", ["a"], [(1,), (2,)])
    database.create_relation("S", ["b"], [(9,)])
    snapshot = database.snapshot()
    pinned_versions = snapshot.version()
    for other in (
        Database([relation]),
        database.with_relation(relation),
        database.without_relation("S"),
    ):
        other.apply_delta([("insert", "R", (3,))])
        assert other.relation("R") is not relation
        assert sorted(other.relation("R").rows()) == [(1,), (2,), (3,)]
        assert sorted(snapshot.relation("R").rows()) == [(1,), (2,)]
        assert snapshot.version() == pinned_versions
    assert database.relation("R") is relation


def test_epoch_advances_only_on_effective_commits():
    database = Database()
    database.create_relation("R", ["a"], [(1,)])
    assert database.epoch == 0
    database.apply_delta([("insert", "R", (2,))])
    assert database.epoch == 1
    database.apply_delta([("insert", "R", (2,))])  # no-op under set semantics
    assert database.epoch == 1
    token = database.apply_delta([("delete", "R", (2,))])
    assert database.epoch == 2
    token.undo()  # an undo is itself an effective commit
    assert database.epoch == 3


def test_snapshots_are_immutable():
    database = Database()
    database.create_relation("R", ["a"], [(1,)])
    snapshot = database.snapshot()
    assert isinstance(snapshot, DatabaseSnapshot)
    with pytest.raises(ModelError):
        snapshot.apply_delta([("insert", "R", (2,))])
    with pytest.raises(ModelError):
        snapshot.create_relation("S", ["b"])
    with pytest.raises(ModelError):
        snapshot.invalidate_indexes()
    assert snapshot.snapshot() is snapshot
    # A mutable branch is one copy() away and leaves the snapshot pinned.
    branch = snapshot.copy()
    branch.apply_delta([("insert", "R", (2,))])
    assert len(snapshot.relation("R")) == 1


def test_dropping_every_reference_lifts_copy_on_write():
    """Snapshots pin weakly: a dead snapshot stops forcing clones."""
    database = Database()
    relation = database.create_relation("R", ["a"], [(1,)])
    snapshot = database.snapshot()
    del snapshot
    database.apply_delta([("insert", "R", (2,))])
    # No live snapshot held the relation, so the single-user in-place fast
    # path applied: same object, mutated directly.
    assert database.relation("R") is relation


# ---------------------------------------------------------------------------
# Verdicts and whole solver runs are pinned
# ---------------------------------------------------------------------------
def _item_rows(database):
    return sorted(database.relation("items").rows())


def _writer_batches(problem):
    """Schema-valid deltas against the scenario kit's items relation."""
    rows = _item_rows(problem.database)
    template = rows[0]
    return [
        [("insert", "items", (1000, template[1], 5, 19))],
        [("delete", "items", rows[len(rows) // 2]), ("insert", "items", (1001, template[1], 1, 19))],
        [("insert", "items", (1002, template[1], 2, 18)), ("insert", "items", (1003, template[1], 3, 17))],
    ]


@pytest.mark.parametrize("seed", range(12))
def test_pinned_problem_solver_results_survive_a_writer(seed):
    """FRP/CPP results over a pinned problem are identical across commits."""
    problem, rating_bound = random_problem(13_000 + seed)
    pinned = problem.pinned()
    top_before = compute_top_k(pinned)
    count_before = count_valid_packages(pinned, rating_bound=rating_bound)

    tokens = [problem.database.apply_delta(batch) for batch in _writer_batches(problem)]

    top_after = compute_top_k(pinned)
    count_after = count_valid_packages(pinned, rating_bound=rating_bound)
    assert repr(top_after) == repr(top_before)
    assert top_after.ratings == top_before.ratings

    def selection_items(result):
        if result.selection is None:  # no valid top-k selection exists
            return None
        return [p.sorted_items() for p in result.selection]

    assert selection_items(top_after) == selection_items(top_before)
    assert count_after.count == count_before.count

    # Serial re-execution on a mutable copy of the pinned epoch agrees too.
    serial = problem.with_database(pinned.database.copy())
    assert repr(compute_top_k(serial)) == repr(top_before)

    # And a problem pinned *after* the stream sees the writer's world.
    for token in reversed(tokens):
        token.undo()
    assert repr(compute_top_k(problem.pinned())) == repr(top_before)
