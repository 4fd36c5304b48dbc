"""A maintained delta is one commit: atomic for faults, the log and snapshots.

:func:`~repro.incremental.views.apply_maintained` and its token's undo apply a
delta as one commit of :meth:`~repro.relational.database.Database._apply_validated`,
with the views notified after each effective modification inside it.  These
tests pin what that buys over committing each modification on its own:

* a fault mid-delta leaves rows, relation versions and the epoch unchanged,
  and the views — which saw the unwound intermediate states — rebuild rather
  than trust a relation version the unwind wound back;
* a durable delta is one WAL record, so a torn log recovers the whole delta
  or none of it;
* a snapshot taken by another thread mid-delta sees none of it or all of it;
* a fault in the token's undo leaves the views as safe as one in the apply.
"""

from __future__ import annotations

import shutil
import threading

import pytest

from repro.durability import (
    checkpoint_path,
    open_durable,
    recover,
    truncated_copy,
    wal_path,
)
from repro.incremental import MaintainedQuery, apply_maintained
from repro.queries.ast import Comparison, ComparisonOp, Const, RelationAtom, Var
from repro.queries.cq import ConjunctiveQuery
from repro.queries.fo import FirstOrderQuery
from repro.relational import Database
from repro.resilience import FaultPlan, FaultRule, InjectedFault, chaos

#: Two effective insertions; the first alone already adds the path (3, 5).
_TWO_MODIFICATIONS = (("insert", "edge", (4, 5)), ("insert", "edge", (5, 6)))

#: An out-of-band one-row delta on the same relation: it takes ``edge`` back
#: to the version the unwound first modification had, over other rows.
_ONE_ROW = (("insert", "edge", (9, 9)),)


def _edge_database() -> Database:
    database = Database()
    database.create_relation("edge", ["src", "dst"], [(1, 2), (2, 3), (3, 4)])
    return database


def _views(database: Database):
    """An incremental two-occurrence CQ, a selection CQ and a recompute view."""
    x, y, z = Var("x"), Var("y"), Var("z")
    path2 = ConjunctiveQuery(
        [x, z], [RelationAtom("edge", [x, y]), RelationAtom("edge", [y, z])], name="path2"
    )
    high = ConjunctiveQuery(
        [x, y],
        [RelationAtom("edge", [x, y])],
        [Comparison(ComparisonOp.GE, y, Const(4))],
        name="high",
    )
    edges = FirstOrderQuery([x, y], RelationAtom("edge", [x, y]), name="fo_edges")
    return [MaintainedQuery(query, database) for query in (path2, high, edges)]


def _assert_fresh(views, database: Database) -> None:
    for view in views:
        assert view.answer_rows() == view.query.evaluate(database).rows(), view.query.name


def _state(database: Database):
    return database.epoch, {rel.name: (rel.rows(), rel.version) for rel in database.relations()}


def _fault_at(hit: int):
    return chaos(FaultPlan({"commit.modification": FaultRule(at={hit})}, seed=0))


class TestFaultMidDelta:
    def test_a_fault_mid_delta_leaves_no_trace(self):
        database = _edge_database()
        views = _views(database)
        before = _state(database)
        with _fault_at(1):
            with pytest.raises(InjectedFault):
                apply_maintained(database, _TWO_MODIFICATIONS, views)
        assert _state(database) == before
        _assert_fresh(views, database)

    def test_views_rebuild_after_a_fault_and_a_one_row_delta(self):
        database = _edge_database()
        views = _views(database)
        _assert_fresh(views, database)
        with _fault_at(1):
            with pytest.raises(InjectedFault):
                apply_maintained(database, _TWO_MODIFICATIONS, views)
        # No read in between: the one-row delta restores the relation version
        # the views recorded after the unwound first modification.
        database.apply_delta(_ONE_ROW)
        _assert_fresh(views, database)

    def test_a_fault_in_undo_leaves_the_views_safe(self):
        database = _edge_database()
        views = _views(database)
        token = apply_maintained(database, _TWO_MODIFICATIONS, views)
        _assert_fresh(views, database)
        with _fault_at(1):
            with pytest.raises(InjectedFault):
                token.undo()
        database.apply_delta(_ONE_ROW)
        _assert_fresh(views, database)


class TestOneCommitPerDelta:
    def test_apply_and_undo_each_advance_the_epoch_once(self):
        database = _edge_database()
        views = _views(database)
        before = database.relation("edge").rows()
        token = apply_maintained(
            database, _TWO_MODIFICATIONS + (("delete", "edge", (1, 2)),), views
        )
        assert (database.epoch, len(token)) == (1, 3)
        _assert_fresh(views, database)
        token.undo()
        assert database.epoch == 2
        assert database.relation("edge").rows() == before
        _assert_fresh(views, database)

    def test_a_durable_delta_is_one_record_and_recovers_whole(self, tmp_path):
        source = tmp_path / "source"
        database = _edge_database()
        wal = open_durable(database, source)
        database.apply_delta([("insert", "edge", (7, 8))])
        views = _views(database)
        before_rows = database.relation("edge").rows()
        records, epoch, start = len(wal.records()), database.epoch, wal_path(source).stat().st_size
        apply_maintained(
            database,
            (
                ("insert", "edge", (4, 5)),
                ("delete", "edge", (1, 2)),
                ("insert", "edge", (5, 6)),
                ("delete", "edge", (7, 8)),
            ),
            views,
        )
        after_rows = database.relation("edge").rows()
        assert database.epoch == epoch + 1
        assert len(wal.records()) == records + 1
        wal.close()
        database.detach_wal()
        end = wal_path(source).stat().st_size
        crash = tmp_path / "crash"
        crash.mkdir()
        shutil.copyfile(checkpoint_path(source), checkpoint_path(crash))
        for length in range(start, end + 1):
            truncated_copy(wal_path(source), length, wal_path(crash))
            recovered = recover(crash).database.relation("edge").rows()
            expected = after_rows if length == end else before_rows
            assert recovered == expected, f"cut at byte {length}"


class _SnapshottingView(MaintainedQuery):
    """A view whose first notification has another thread take a snapshot."""

    __slots__ = ("taker", "seen")

    def __init__(self, query, database) -> None:
        super().__init__(query, database)
        self.taker = self.seen = None

    def on_modification(self, kind, relation_name, row):
        super().on_modification(kind, relation_name, row)
        if self.taker is None:

            def take() -> None:
                self.seen = self.database.snapshot().relation("edge").rows()

            self.taker = threading.Thread(target=take)
            self.taker.start()
            # Long enough for the snapshot to land if nothing holds the
            # commit's lock; the commit goes on regardless.
            self.taker.join(timeout=0.2)


def test_a_concurrent_snapshot_sees_none_or_all_of_a_maintained_delta():
    database = _edge_database()
    x, y = Var("x"), Var("y")
    view = _SnapshottingView(ConjunctiveQuery([x, y], [RelationAtom("edge", [x, y])]), database)
    before = database.relation("edge").rows()
    apply_maintained(database, _TWO_MODIFICATIONS, (view,))
    view.taker.join(timeout=10)
    assert not view.taker.is_alive()
    assert view.seen in (before, database.relation("edge").rows())
