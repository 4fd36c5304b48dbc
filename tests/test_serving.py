"""Unit tests for the serving layer's request vocabulary and servers.

The thread-stress properties live in ``test_serving_concurrency.py``; this
module pins the single-threaded contract: canonical hashable requests,
answers equal to direct solver calls, per-epoch answer memoization on the
snapshot server, and the global-lock baseline agreeing answer for answer
over a replayed trace.
"""

from __future__ import annotations

import pytest

from repro.core import (
    compute_top_k,
    count_valid_packages,
    is_top_k_selection,
    selection_from_items,
)
from repro.observability import MetricsRegistry, use_metrics
from repro.serving import (
    GlobalLockServer,
    ServeRequest,
    SnapshotServer,
    build_trace,
    execute_request,
    latency_percentiles,
    serving_problem,
)
from repro.serving.server import EPOCH_MEMO_LIMIT


# ---------------------------------------------------------------------------
# The request vocabulary
# ---------------------------------------------------------------------------
class TestServeRequest:
    def test_requests_are_hashable_and_equal_by_value(self):
        assert ServeRequest.top_k() == ServeRequest.top_k()
        assert ServeRequest.exists(3.0) == ServeRequest("exists", rating_bound=3.0)
        assert ServeRequest.exists(3.0) != ServeRequest.exists(3.0, strict=True)
        assert len({ServeRequest.top_k(), ServeRequest.top_k()}) == 1

    def test_check_items_are_canonicalised_to_tuples(self):
        made_of_lists = ServeRequest.check([[[1, "a", 2, 3]], [[4, "b", 5, 6]]])
        made_of_tuples = ServeRequest.check((((1, "a", 2, 3),), ((4, "b", 5, 6),)))
        assert made_of_lists == made_of_tuples
        assert hash(made_of_lists) == hash(made_of_tuples)

    def test_invalid_requests_are_rejected(self):
        with pytest.raises(ValueError):
            ServeRequest("frobnicate")
        with pytest.raises(ValueError):
            ServeRequest("exists")  # no rating bound
        with pytest.raises(ValueError):
            ServeRequest("count")
        with pytest.raises(ValueError):
            ServeRequest("check")  # no selection

    def test_describe_names_every_kind(self):
        assert ServeRequest.top_k().describe() == "top_k"
        assert "≥ 3.0" in ServeRequest.exists(3.0).describe()
        assert "> 3.0" in ServeRequest.exists(3.0, strict=True).describe()
        assert "count" in ServeRequest.count(2.0).describe()
        assert "1 packages" in ServeRequest.check([[(1, "a", 2, 3)]]).describe()


# ---------------------------------------------------------------------------
# execute_request ≡ the direct solver calls
# ---------------------------------------------------------------------------
class TestExecuteRequest:
    @pytest.fixture()
    def problem(self):
        return serving_problem(20, seed=3)

    def test_top_k_matches_compute_top_k(self, problem):
        answer = execute_request(problem, ServeRequest.top_k())
        result = compute_top_k(problem)
        assert answer == (
            "top_k",
            tuple(package.sorted_items() for package in result.selection),
            result.ratings,
        )

    def test_exists_matches_the_oracle_and_carries_a_witness(self, problem):
        top_rating = compute_top_k(problem).ratings[0]
        found = execute_request(problem, ServeRequest.exists(top_rating))
        assert found[1] is True and found[2] is not None
        none = execute_request(problem, ServeRequest.exists(top_rating, strict=True))
        assert none == ("exists", False, None)

    def test_count_matches_count_valid_packages(self, problem):
        answer = execute_request(problem, ServeRequest.count(20.0))
        assert answer == ("count", count_valid_packages(problem, rating_bound=20.0).count)

    def test_check_matches_is_top_k_selection(self, problem):
        items = tuple(
            package.sorted_items() for package in compute_top_k(problem).selection
        )
        answer = execute_request(problem, ServeRequest.check(items))
        direct = is_top_k_selection(problem, selection_from_items(problem, items))
        assert answer == ("check", direct.is_top_k, direct.reason)
        assert answer[1] is True

    def test_execution_is_pure_on_the_live_database(self, problem):
        version = problem.database.version()
        for request in (
            ServeRequest.top_k(),
            ServeRequest.exists(10.0),
            ServeRequest.count(10.0),
        ):
            execute_request(problem, request)
        assert problem.database.version() == version


# ---------------------------------------------------------------------------
# The servers
# ---------------------------------------------------------------------------
class TestSnapshotServer:
    def test_batches_preserve_order_and_dedupe_onto_one_answer(self):
        server = SnapshotServer(serving_problem(20, seed=5))
        requests = [
            ServeRequest.top_k(),
            ServeRequest.count(20.0),
            ServeRequest.top_k(),
            ServeRequest.exists(15.0),
            ServeRequest.top_k(),
        ]
        results = server.serve_batch(requests)
        assert [result.request for result in results] == requests
        # Duplicates share the identical ServeResult (one computation).
        assert results[0] is results[2] is results[4]
        assert all(result.epoch == 0 for result in results)

    def test_commits_advance_the_served_epoch_and_change_answers_only_then(self):
        server = SnapshotServer(serving_problem(20, seed=5))
        before = server.serve_one(ServeRequest.count(10.0))
        again = server.serve_one(ServeRequest.count(10.0))
        assert (before.epoch, before.answer) == (again.epoch, again.answer)
        server.apply([("insert", "items", (5_000, "a", 2, 19))])
        after = server.serve_one(ServeRequest.count(10.0))
        assert after.epoch == before.epoch + 1
        assert after.answer[1] > before.answer[1]  # one more cheap, high-quality item

    def test_served_answers_match_serial_reexecution_on_a_pinned_copy(self):
        trace = build_trace(30, 3, 8, seed=9)
        server = SnapshotServer(trace.problem)
        for delta, requests in trace.rounds:
            if delta:
                server.apply(list(delta))
            serial = trace.problem.with_database(
                trace.problem.database.snapshot().copy()
            )
            for result in server.serve_batch(requests):
                assert result.answer == execute_request(serial, result.request)

    def test_empty_batch(self):
        assert SnapshotServer(serving_problem(10, seed=1)).serve_batch([]) == []

    def test_the_epoch_memo_is_a_bounded_lru(self):
        problem = serving_problem(10, seed=1)
        server = SnapshotServer(problem)
        overflow = 5
        requests = [
            ServeRequest.exists(0.5 * index) for index in range(EPOCH_MEMO_LIMIT + overflow)
        ]
        registry = MetricsRegistry()
        with use_metrics(registry):
            first = [server.serve_one(request).answer for request in requests]
            # The most recent answer is still memoized; the oldest ones were evicted.
            assert server.serve_one(requests[-1]).answer == first[-1]
            assert server.serve_one(requests[0]).answer == first[0]
        assert len(server._current_context()._memo) == EPOCH_MEMO_LIMIT
        assert registry.counter("serving.memo.hits") == 1
        assert registry.counter("serving.memo.evictions") == overflow + 1
        for request, answer in zip(requests, first):
            assert answer == execute_request(problem, request)


class TestGlobalLockBaseline:
    def test_identical_trace_replay_agrees_with_the_snapshot_server(self):
        snapshot_trace = build_trace(30, 3, 10, seed=2)
        baseline_trace = build_trace(30, 3, 10, seed=2)
        snapshot_server = SnapshotServer(snapshot_trace.problem)
        baseline_server = GlobalLockServer(baseline_trace.problem)
        snapshot_answers, baseline_answers = [], []
        for (delta, requests), (delta2, requests2) in zip(
            snapshot_trace.rounds, baseline_trace.rounds
        ):
            assert delta == delta2 and requests == requests2  # same trace
            if delta:
                snapshot_server.apply(list(delta))
                baseline_server.apply(list(delta2))
            snapshot_answers.extend(
                (r.epoch, r.answer) for r in snapshot_server.serve_batch(requests)
            )
            baseline_answers.extend(
                (r.epoch, r.answer) for r in baseline_server.serve_batch(requests2)
            )
        assert snapshot_answers == baseline_answers


class TestLatencyPercentiles:
    def test_empty_results(self):
        assert latency_percentiles([]) == {"p50": 0.0, "p99": 0.0}

    def test_percentiles_are_drawn_from_the_observed_latencies(self):
        server = SnapshotServer(serving_problem(10, seed=1))
        results = server.serve_batch([ServeRequest.top_k(), ServeRequest.count(5.0)])
        summary = latency_percentiles(results, percentiles=(0.0, 50.0, 99.0))
        observed = sorted(result.latency_s for result in results)
        assert summary["p0"] == observed[0]
        assert summary["p99"] == observed[-1]
        assert summary["p0"] <= summary["p50"] <= summary["p99"]
