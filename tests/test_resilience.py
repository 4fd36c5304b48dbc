"""Unit tests for the resilience subsystem (PR 7).

Covers the pieces in isolation — deadlines/cancellation, the deterministic
fault harness, the error taxonomy, the crash-safe commit unwind, the
snapshot-safety guard — and their integration into the evaluator, the
lattice engine and both servers.  The whole-system fault schedules live in
``test_chaos_differential.py``.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import count_valid_packages
from repro.core.enumeration import _DEADLINE_STRIDE, PackageSearchEngine
from repro.observability import MetricsRegistry, use_metrics
from repro.queries.ast import RelationAtom, Var
from repro.queries.bindings import StepCounter, enumerate_bindings, enumerate_bindings_naive
from repro.relational.database import (
    Database,
    set_snapshot_safety_guard,
    snapshot_safety_guard,
)
from repro.relational.errors import (
    EvaluationError,
    SnapshotViolationError,
    StepLimitExceeded,
)
from repro.resilience import (
    CancellationToken,
    Deadline,
    FaultPlan,
    FaultRule,
    InjectedFault,
    RequestCancelled,
    RequestFailed,
    RequestTimeout,
    ServerOverloaded,
    chaos,
    classify_error,
    current_deadline,
    deadline_scope,
    fault_point,
    register_fault_point,
)
from repro.serving import (
    GlobalLockServer,
    ResilienceConfig,
    ServeRequest,
    SnapshotServer,
    build_trace,
    overload_problem,
    serving_problem,
)

from scenarios import probe_path


# ---------------------------------------------------------------------------
# Deadlines and cancellation
# ---------------------------------------------------------------------------
class TestDeadline:
    def test_unbounded_deadline_never_trips(self):
        deadline = Deadline()
        deadline.check()
        deadline.tick(10_000)
        assert deadline.remaining() is None and not deadline.expired()

    def test_wall_clock_expiry_raises_timeout(self):
        deadline = Deadline.after(0.005)
        assert not deadline.expired()
        time.sleep(0.01)
        assert deadline.expired()
        with pytest.raises(RequestTimeout):
            deadline.check()

    def test_cancellation_wins_over_timeout(self):
        token = CancellationToken()
        deadline = Deadline.after(-1.0, token=token)  # already timed out
        token.cancel()
        with pytest.raises(RequestCancelled):
            deadline.check()

    def test_step_budget_raises_the_evaluator_exception(self):
        deadline = Deadline(max_steps=10)
        deadline.tick(10)
        with pytest.raises(StepLimitExceeded) as info:
            deadline.tick(1)
        assert info.value.limit == 10 and info.value.steps == 11

    def test_scope_is_thread_local_and_restores_the_previous_deadline(self):
        assert current_deadline() is None
        outer, inner = Deadline(), Deadline()
        with deadline_scope(outer):
            assert current_deadline() is outer
            with deadline_scope(inner):
                assert current_deadline() is inner
            assert current_deadline() is outer
            seen_in_thread = []
            thread = threading.Thread(
                target=lambda: seen_in_thread.append(current_deadline())
            )
            thread.start()
            thread.join()
            assert seen_in_thread == [None]  # never leaks across threads
        assert current_deadline() is None

    def test_scope_accepts_none_as_a_no_op(self):
        with deadline_scope(None):
            assert current_deadline() is None


# ---------------------------------------------------------------------------
# The fault harness
# ---------------------------------------------------------------------------
class TestFaultHarness:
    def test_plans_reject_unknown_points_and_bad_rates(self):
        with pytest.raises(ValueError):
            FaultPlan({"not.a.point": FaultRule(rate=0.5)})
        with pytest.raises(ValueError):
            FaultRule(rate=1.5)

    def test_registering_a_point_makes_it_plannable(self):
        name = register_fault_point("test.extension_point")
        FaultPlan({name: FaultRule(at={0})})  # no longer rejected

    def test_off_is_a_no_op_and_scopes_do_not_nest(self):
        fault_point("relational.access")  # inactive: nothing raises
        plan = FaultPlan({"relational.access": FaultRule(rate=1.0)}, seed=0)
        with chaos(plan):
            with pytest.raises(RuntimeError):
                with chaos(plan):
                    pass  # pragma: no cover
            with pytest.raises(InjectedFault):
                fault_point("relational.access")
        fault_point("relational.access")  # deactivated again

    def test_explicit_hit_indices_fire_exactly_there(self):
        plan = FaultPlan({"serving.worker": FaultRule(at={1, 3})}, seed=5)
        fired = []
        with chaos(plan):
            for index in range(5):
                try:
                    fault_point("serving.worker")
                except InjectedFault as fault:
                    fired.append((index, fault.index))
        assert fired == [(1, 1), (3, 3)]

    def test_seeded_rates_replay_the_identical_schedule(self):
        def schedule():
            plan = FaultPlan({"serving.worker": FaultRule(rate=0.4)}, seed=11)
            hits = []
            with chaos(plan):
                for index in range(50):
                    try:
                        fault_point("serving.worker")
                    except InjectedFault:
                        hits.append(index)
            return hits

        first, second = schedule(), schedule()
        assert first == second and 0 < len(first) < 50

    def test_streams_are_independent_per_point(self):
        plan = FaultPlan(
            {
                "serving.worker": FaultRule(rate=0.5),
                "relational.access": FaultRule(rate=0.5),
            },
            seed=3,
        )

        def hits(point):
            out = []
            with chaos(plan):
                for index in range(40):
                    try:
                        fault_point(point)
                    except InjectedFault:
                        out.append(index)
            return out

        assert hits("serving.worker") != hits("relational.access")


# ---------------------------------------------------------------------------
# The error taxonomy
# ---------------------------------------------------------------------------
class TestClassifyError:
    @pytest.mark.parametrize(
        "error, code, retryable",
        [
            (RequestTimeout("t"), "timeout", False),
            (RequestCancelled("c"), "cancelled", False),
            (ServerOverloaded("o"), "overloaded", True),
            (StepLimitExceeded(10, 11), "step_limit", False),
            (InjectedFault("serving.worker", 0, transient=True), "fault", True),
            (InjectedFault("serving.worker", 0, transient=False), "fault", False),
            (RequestFailed("f", retryable=True), "failed", True),
            (ValueError("boom"), "failed", False),
        ],
    )
    def test_mapping_table(self, error, code, retryable):
        classified = classify_error(error)
        assert (classified.code, classified.retryable) == (code, retryable)

    def test_generic_errors_keep_their_type_name_in_the_message(self):
        assert "ValueError" in classify_error(ValueError("boom")).message


# ---------------------------------------------------------------------------
# StepCounter and the evaluator
# ---------------------------------------------------------------------------
class TestStepCounterIntegration:
    def test_step_limit_raises_the_dedicated_class_with_the_old_message(self):
        counter = StepCounter(limit=3)
        with pytest.raises(StepLimitExceeded, match="step limit of 3 search steps"):
            counter.tick(4)
        # Historical guards catch the base class.
        with pytest.raises(EvaluationError):
            StepCounter(limit=1).tick(2)

    def test_counter_flushes_ticks_to_its_deadline(self):
        deadline = Deadline()
        counter = StepCounter(deadline=deadline)
        counter.tick(127)
        assert deadline.steps == 0  # still batching
        counter.tick(1)
        assert deadline.steps == 128  # flushed at the stride

    def test_enumerate_bindings_honours_the_ambient_deadline(self, edge_database):
        atoms = [RelationAtom("edge", [Var("x"), Var("y")])]
        expired = Deadline.after(-1.0)
        for evaluator in (enumerate_bindings, enumerate_bindings_naive):
            with deadline_scope(expired):
                with pytest.raises(RequestTimeout):
                    list(evaluator(edge_database, atoms))
            assert len(list(evaluator(edge_database, atoms))) == 4  # scope exited

    def test_enumerate_bindings_respects_a_caller_counter_with_a_deadline(
        self, edge_database
    ):
        atoms = [RelationAtom("edge", [Var("x"), Var("y")])]
        counter = StepCounter()
        with deadline_scope(Deadline(max_steps=2)):
            with pytest.raises(StepLimitExceeded):
                # 1 root + 4 rows + joins: well past 2 steps once flushed...
                for _ in range(200):  # force enough ticks to flush the stride
                    list(enumerate_bindings(edge_database, atoms, counter=counter))


class TestEngineDeadlines:
    def test_expired_deadline_fails_fast_at_every_entry_point(self):
        engine = PackageSearchEngine(serving_problem(20, seed=3))
        with deadline_scope(Deadline.after(-1.0)):
            with pytest.raises(RequestTimeout):
                list(engine.iter_valid())
            with pytest.raises(RequestTimeout):
                engine.count_valid()
            with pytest.raises(RequestTimeout):
                engine.best_valid(2)

    # The long counts below run on the probe path (``probe_path``: the
    # witness path declines a predicate), where the 60-item size-3 lattice
    # outlasts 20 ms; each has a witness-path twin on a lattice large enough
    # to outlast it with witness verdicts.

    def test_deadline_interrupts_a_long_count_mid_search(self):
        problem = probe_path(overload_problem(60, seed=3))
        engine = PackageSearchEngine(problem)
        with deadline_scope(Deadline.after(0.02)):
            with pytest.raises(RequestTimeout):
                engine.count_valid(rating_bound=-1.0)

    def test_cancellation_interrupts_a_long_count(self):
        problem = probe_path(overload_problem(60, seed=3))
        engine = PackageSearchEngine(problem)
        token = CancellationToken()
        timer = threading.Timer(0.02, token.cancel)
        timer.start()
        try:
            with deadline_scope(Deadline(token=token)):
                with pytest.raises(RequestCancelled):
                    engine.count_valid(rating_bound=-1.0)
        finally:
            timer.cancel()

    @staticmethod
    def _witness_served_engine():
        """An engine over the 120-item size-3 lattice, its index already built."""
        engine = PackageSearchEngine(overload_problem(120, seed=3))
        engine.oracle.is_satisfied(engine.singleton(engine.items[0]))
        assert engine.oracle.witness_builds == 1
        return engine

    def test_deadline_interrupts_a_long_witness_path_count(self):
        engine = self._witness_served_engine()
        with deadline_scope(Deadline.after(0.02)):
            with pytest.raises(RequestTimeout):
                engine.count_valid(rating_bound=-1.0)
        assert engine.oracle.witness_verdicts > 1 and engine.oracle.misses == 0

    def test_cancellation_interrupts_a_long_witness_path_count(self):
        engine = self._witness_served_engine()
        token = CancellationToken()
        timer = threading.Timer(0.02, token.cancel)
        timer.start()
        try:
            with deadline_scope(Deadline(token=token)):
                with pytest.raises(RequestCancelled):
                    engine.count_valid(rating_bound=-1.0)
        finally:
            timer.cancel()
        assert engine.oracle.witness_verdicts > 1 and engine.oracle.misses == 0

    @staticmethod
    def _examined_under(engine, deadline, run):
        """Run ``run(engine)`` under ``deadline``; the walk's examined nodes."""
        registry = MetricsRegistry()
        with use_metrics(registry), deadline_scope(deadline):
            run(engine)
        return registry.counter("engine.nodes.examined")

    @pytest.mark.parametrize("items", [12, 40])
    def test_a_walk_charges_every_examined_node(self, items):
        """Nodes past the last full stride are charged when the walk ends:
        a 21-node walk charges 21, not 0, and a 190-node one 190, not 128."""
        engine = PackageSearchEngine(serving_problem(items, seed=1))
        engine.oracle.is_satisfied(engine.singleton(engine.items[0]))  # build outside
        deadline = Deadline()
        examined = self._examined_under(engine, deadline, PackageSearchEngine.count_valid)
        assert examined % _DEADLINE_STRIDE and deadline.steps == examined

    def test_a_step_budget_below_one_stride_stops_a_finished_walk(self):
        engine = PackageSearchEngine(serving_problem(12, seed=1))
        with deadline_scope(Deadline(max_steps=5)):
            with pytest.raises(StepLimitExceeded):
                engine.count_valid()

    def test_a_walk_closed_early_charges_without_raising(self):
        engine = PackageSearchEngine(serving_problem(12, seed=1))
        engine.oracle.is_satisfied(engine.singleton(engine.items[0]))
        deadline = Deadline(max_steps=0)
        examined = self._examined_under(
            engine, deadline, lambda engine: next(iter(engine.iter_valid()))
        )
        assert examined and deadline.steps == examined

    def test_no_deadline_changes_nothing(self):
        problem = serving_problem(20, seed=3)
        direct = count_valid_packages(problem, rating_bound=0.0)
        with deadline_scope(Deadline()):  # unbounded: hooks run, never trip
            guarded = count_valid_packages(problem, rating_bound=0.0)
        assert direct == guarded


# ---------------------------------------------------------------------------
# Crash-safe commits
# ---------------------------------------------------------------------------
def _observable_state(database: Database):
    """Rows, versions, epoch and index-probe results — the commit invariants."""
    state = {"epoch": database.epoch}
    for relation in database.relations():
        state[relation.name] = (
            relation.rows(),
            relation.version,
            relation.statistics(),
            dict(relation.index_on((0,))),
            relation.sorted_index_on(0).range_values(">=", 0),
        )
    return state


def _crash_database() -> Database:
    database = Database()
    database.create_relation(
        "items", ["iid", "cat", "price"], [(1, "a", 5), (2, "b", 7), (3, "a", 9)]
    )
    database.create_relation("tags", ["iid", "tag"], [(1, "hot"), (2, "cold")])
    return database


_CRASH_DELTA = (
    ("insert", "items", (4, "c", 11)),
    ("delete", "items", (1, "a", 5)),
    ("insert", "tags", (3, "warm")),
    ("delete", "tags", (2, "cold")),
    ("insert", "items", (1, "a", 5)),  # reinsert what was deleted above
)


class TestCrashSafeCommit:
    @pytest.mark.parametrize("crash_index", range(len(_CRASH_DELTA)))
    def test_a_crash_at_every_modification_unwinds_to_the_pre_commit_state(
        self, crash_index
    ):
        database = _crash_database()
        before = _observable_state(database)
        plan = FaultPlan({"commit.modification": FaultRule(at={crash_index})}, seed=0)
        with chaos(plan):
            with pytest.raises(InjectedFault):
                database.apply_delta(list(_CRASH_DELTA))
        assert _observable_state(database) == before
        # The database still works: the same delta commits cleanly afterwards.
        database.apply_delta(list(_CRASH_DELTA))
        assert database.epoch == before["epoch"] + 1

    def test_a_crash_after_the_epoch_bump_rolls_the_epoch_back(self):
        database = _crash_database()
        before = _observable_state(database)
        with chaos(FaultPlan({"commit.epoch": FaultRule(at={0})}, seed=0)):
            with pytest.raises(InjectedFault):
                database.apply_delta(list(_CRASH_DELTA))
        assert _observable_state(database) == before

    def test_a_crashed_commit_with_a_live_snapshot_leaves_both_worlds_clean(self):
        database = _crash_database()
        snapshot = database.snapshot()
        snapshot_rows = snapshot.relation("items").rows()
        before = _observable_state(database)
        with chaos(FaultPlan({"commit.modification": FaultRule(at={2})}, seed=0)):
            with pytest.raises(InjectedFault):
                database.apply_delta(list(_CRASH_DELTA))
        assert _observable_state(database) == before
        assert snapshot.relation("items").rows() == snapshot_rows
        assert snapshot.epoch == before["epoch"]

    def test_a_crashed_undo_unwinds_like_a_crashed_commit(self):
        database = _crash_database()
        applied = database.apply_delta(list(_CRASH_DELTA))
        after_commit = _observable_state(database)
        with chaos(FaultPlan({"commit.modification": FaultRule(at={1})}, seed=0)):
            with pytest.raises(InjectedFault):
                applied.undo()
        # The failed undo left the committed state fully intact...
        assert _observable_state(database) == after_commit
        # ...but AppliedDelta.undo is once-only by design: the failed attempt
        # consumed the token, so recovery re-derives the inverse delta.
        inverse = [
            ("delete" if kind == "insert" else "insert", name, row)
            for kind, name, row in reversed(applied.effective)
        ]
        database.apply_delta(inverse)
        assert database.relation("items").rows() == _crash_database().relation("items").rows()


# ---------------------------------------------------------------------------
# The snapshot-safety guard
# ---------------------------------------------------------------------------
class TestSnapshotSafetyGuard:
    def test_direct_mutations_on_a_pinned_relation_raise_under_the_guard(self):
        database = _crash_database()
        snapshot = database.snapshot()
        items = database.relation("items")
        with snapshot_safety_guard():
            with pytest.raises(SnapshotViolationError):
                items.add((9, "z", 1))
            with pytest.raises(SnapshotViolationError):
                items.discard((1, "a", 5))
            with pytest.raises(SnapshotViolationError):
                items.clear()
            with pytest.raises(SnapshotViolationError):
                items.replace_rows([(9, "z", 1)])
            # No-op mutations never corrupt anything and stay permitted.
            items.add((1, "a", 5))
            assert not items.discard((999, "x", 0))
        assert snapshot.relation("items").rows() == items.rows()

    def test_the_transactional_write_path_never_trips_the_guard(self):
        database = _crash_database()
        snapshot = database.snapshot()
        before = snapshot.relation("items").rows()
        with snapshot_safety_guard():
            database.apply_delta([("insert", "items", (9, "z", 1))])
        assert snapshot.relation("items").rows() == before  # copy-on-write
        assert (9, "z", 1) in database.relation("items").rows()

    def test_guard_off_is_the_historical_silent_behaviour(self):
        database = _crash_database()
        database.snapshot()
        database.relation("items").add((9, "z", 1))  # no guard: no raise

    def test_dropping_the_snapshot_lifts_the_guard(self):
        database = _crash_database()
        snapshot = database.snapshot()
        del snapshot
        import gc

        gc.collect()
        with snapshot_safety_guard():
            database.relation("items").add((9, "z", 1))

    def test_set_returns_the_previous_value(self):
        assert set_snapshot_safety_guard(True) is False
        try:
            assert set_snapshot_safety_guard(False) is True
        finally:
            set_snapshot_safety_guard(False)


# ---------------------------------------------------------------------------
# Resilient serving
# ---------------------------------------------------------------------------
class TestServeBatchErrorIsolation:
    @pytest.mark.parametrize("server_class", [SnapshotServer, GlobalLockServer])
    def test_one_failing_request_no_longer_kills_its_batch(self, server_class):
        server = server_class(serving_problem(20, seed=5))
        requests = [
            ServeRequest.count(10.0),
            ServeRequest.exists(15.0),
            ServeRequest.count(20.0),
        ]
        # One worker => unique requests execute in order, so the second hit
        # of serving.worker deterministically fails the second request.
        plan = FaultPlan({"serving.worker": FaultRule(at={1})}, seed=0)
        with chaos(plan):
            results = server.serve_batch(requests, max_workers=1)
        assert [result.request for result in results] == requests
        assert results[0].ok and results[2].ok
        assert not results[1].ok and results[1].error.code == "fault"
        assert results[1].answer is None
        # The failure was not memoized: re-serving succeeds.
        assert server.serve_one(requests[1]).ok

    def test_duplicates_share_one_error_result_within_a_batch(self):
        server = SnapshotServer(serving_problem(20, seed=5))
        bad = ServeRequest.count(10.0)
        with chaos(FaultPlan({"serving.worker": FaultRule(at={0})}, seed=0)):
            results = server.serve_batch([bad, bad], max_workers=1)
        assert results[0] is results[1] and not results[0].ok


class TestResilienceConfig:
    @staticmethod
    def _assert_poison_times_out(problem):
        server = SnapshotServer(
            problem, resilience=ResilienceConfig(deadline_s=0.02)
        )
        result = server.serve_one(ServeRequest.count(-1.0))
        assert not result.ok and result.error.code == "timeout"
        assert not result.error.retryable
        cheap = server.serve_one(ServeRequest.exists(1.0))
        assert cheap.ok  # the server survives and keeps answering

    def test_deadline_turns_a_poison_request_into_a_typed_timeout(self):
        # On the probe path: the witness path declines a predicate.
        self._assert_poison_times_out(probe_path(overload_problem(60, seed=3)))

    def test_deadline_turns_a_poison_witness_path_request_into_a_typed_timeout(self):
        # A lattice that outlasts the 20 ms deadline with witness verdicts.
        registry = MetricsRegistry()
        with use_metrics(registry):
            self._assert_poison_times_out(overload_problem(120, seed=3))
        assert registry.counter("oracle.witness.verdicts") > 0
        assert registry.counter("oracle.verdict.misses") == 0

    def test_step_budget_maps_into_the_taxonomy(self):
        problem = overload_problem(60, seed=3)
        server = SnapshotServer(problem, resilience=ResilienceConfig(max_steps=50))
        result = server.serve_one(ServeRequest.count(-1.0))
        assert not result.ok and result.error.code == "step_limit"

    def test_transient_faults_are_retried_with_a_shared_deadline(self):
        server = SnapshotServer(
            serving_problem(20, seed=5),
            resilience=ResilienceConfig(deadline_s=5.0, max_retries=2),
        )
        with chaos(FaultPlan({"serving.worker": FaultRule(at={0})}, seed=0)):
            result = server.serve_one(ServeRequest.count(10.0))
        assert result.ok and result.attempts == 2

    def test_permanent_faults_are_not_retried(self):
        server = SnapshotServer(
            serving_problem(20, seed=5),
            resilience=ResilienceConfig(max_retries=3),
        )
        plan = FaultPlan(
            {"serving.worker": FaultRule(rate=1.0, transient=False)}, seed=0
        )
        with chaos(plan):
            result = server.serve_one(ServeRequest.count(10.0))
        assert not result.ok and result.attempts == 1

    def test_retries_exhaust_into_the_last_classified_error(self):
        server = SnapshotServer(
            serving_problem(20, seed=5),
            resilience=ResilienceConfig(max_retries=2, retry_backoff_s=0.001),
        )
        with chaos(FaultPlan({"serving.worker": FaultRule(rate=1.0)}, seed=0)):
            result = server.serve_one(ServeRequest.count(10.0))
        assert not result.ok and result.error.code == "fault"
        assert result.attempts == 3  # 1 try + 2 retries

    def test_admission_control_sheds_excess_load_with_a_retryable_error(self):
        problem = overload_problem(60, seed=3)
        server = SnapshotServer(
            problem,
            max_workers=4,
            resilience=ResilienceConfig(deadline_s=0.25, max_inflight=1),
        )
        requests = [ServeRequest.count(-1.0 - slot) for slot in range(4)]
        results = server.serve_batch(requests)
        shed = [r for r in results if not r.ok and r.error.code == "overloaded"]
        assert shed, "with 4 workers racing one slot, someone must be shed"
        for result in shed:
            assert result.error.retryable and result.attempts == 0
        # The admission slots were all released: a fresh request is admitted.
        assert server.serve_one(ServeRequest.exists(1.0)).ok

    def test_all_knobs_off_serves_bit_identically_to_no_config(self):
        trace = build_trace(25, 3, 10, seed=4)
        plain = SnapshotServer(trace.problem)
        trace2 = build_trace(25, 3, 10, seed=4)
        armed = SnapshotServer(trace2.problem, resilience=ResilienceConfig())
        plain_answers, armed_answers = [], []
        for (delta, requests), (delta2, requests2) in zip(trace.rounds, trace2.rounds):
            assert delta == delta2 and requests == requests2
            if delta:
                plain.apply(list(delta))
                armed.apply(list(delta2))
            plain_answers.extend(
                (r.epoch, r.answer, r.ok) for r in plain.serve_batch(requests)
            )
            armed_answers.extend(
                (r.epoch, r.answer, r.ok) for r in armed.serve_batch(requests2)
            )
        assert plain_answers == armed_answers
