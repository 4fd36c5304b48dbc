"""Tests for the observability subsystem (PR 8): metrics, tracing, EXPLAIN.

Four families:

* unit tests for the :class:`~repro.observability.MetricsRegistry` (counters,
  labels, gauges, bounded histograms, the frozen snapshot and its three
  renderings), the instrument roster's naming discipline, the span tree, the
  ambient trace scope and the seeded :class:`~repro.observability.TraceSampler`;
* the **on/off differential**: answers and every compared ``ServeResult``
  field are bit-identical with observability fully enabled vs fully disabled,
  over the serving scenario kit and over the query evaluator — the knob
  contract for this PR;
* end-to-end counter plumbing: one serving round under ``use_metrics``
  populates the plan-cache, oracle, executor, engine, database and serving
  instruments, and a rate-1.0 sampler attaches a span tree to every result;
* registry consistency under real threads: counter totals are exact with
  concurrent writers (a small unmarked smoke plus a scaled-up variant behind
  the ``concurrency`` marker).
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.observability import (
    INSTRUMENT_NAME_PATTERN,
    INSTRUMENTS,
    MetricsRegistry,
    Span,
    TraceSampler,
    active_registry,
    begin,
    child_span,
    current_span,
    end_span,
    finish,
    latency_percentiles,
    percentile_summary,
    register_counter,
    trace_scope,
    use_metrics,
)
from repro.observability.tracing import MAX_CHILDREN
from repro.queries.ast import RelationAtom, Var
from repro.queries.bindings import enumerate_bindings
from repro.serving import SnapshotServer, build_trace

from scenarios import probe_path


# ---------------------------------------------------------------------------
# The instrument roster
# ---------------------------------------------------------------------------
class TestInstrumentRoster:
    def test_every_registered_name_matches_the_naming_scheme(self):
        for name in INSTRUMENTS:
            assert INSTRUMENT_NAME_PATTERN.match(name), name

    def test_names_are_unique_case_insensitively(self):
        lowered = [name.lower() for name in INSTRUMENTS]
        assert len(lowered) == len(set(lowered))

    def test_malformed_names_are_rejected(self):
        for bad in ("NoDots", "Upper.case", "trailing.", ".leading", "a.b-c", "one"):
            with pytest.raises(ValueError):
                register_counter(bad, "malformed")

    def test_reregistration_is_idempotent_but_conflicts_are_loud(self):
        name = register_counter("test.observability.scratch", "a scratch counter")
        # Identical spec: fine.
        assert register_counter(name, "a scratch counter") == name
        # Conflicting spec: loud.
        with pytest.raises(ValueError):
            register_counter(name, "a different help string")


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.inc("serving.requests")
        registry.inc("serving.requests", 4)
        assert registry.counter("serving.requests") == 5
        assert registry.counter("serving.retries") == 0

    def test_inc_many_batches_and_skips_zero_amounts(self):
        registry = MetricsRegistry()
        registry.inc_many(
            [("executor.rows.scanned", 7), ("executor.rows.probed", 0), ("executor.steps", 3)]
        )
        assert registry.counter("executor.rows.scanned") == 7
        assert registry.counter("executor.steps") == 3
        # The zero increment never touched its counter: absent from snapshots.
        assert "executor.rows.probed" not in registry.snapshot()

    def test_labelled_counters_split_one_total(self):
        registry = MetricsRegistry()
        registry.inc("serving.errors", label="timeout")
        registry.inc("serving.errors", label="timeout")
        registry.inc("serving.errors", label="fault")
        assert registry.counter("serving.errors") == 3
        assert registry.counter("serving.errors", label="timeout") == 2
        assert registry.labelled_counts("serving.errors") == {"timeout": 2, "fault": 1}
        snapshot = registry.snapshot()
        assert snapshot["serving.errors"] == 3
        assert snapshot['serving.errors{code="timeout"}'] == 2

    def test_label_key_follows_the_instrument_spec(self):
        registry = MetricsRegistry()
        registry.inc("resilience.faults.injected", label="commit.epoch")
        assert 'resilience.faults.injected{point="commit.epoch"}' in registry.snapshot()

    def test_unregistered_and_miskinded_instruments_raise(self):
        registry = MetricsRegistry()
        with pytest.raises(KeyError):
            registry.inc("no.such.instrument")
        with pytest.raises(TypeError):
            registry.inc("serving.inflight")  # a gauge, not a counter
        with pytest.raises(TypeError):
            registry.observe("serving.requests", 1.0)  # a counter, not a histogram

    def test_gauges_hold_the_last_value(self):
        registry = MetricsRegistry()
        registry.set_gauge("serving.inflight", 3)
        registry.set_gauge("serving.inflight", 1)
        assert registry.snapshot()["serving.inflight"] == 1

    def test_histograms_bucket_and_summarise(self):
        registry = MetricsRegistry()
        for value in (0.00005, 0.0002, 0.0002, 5.0):
            registry.observe("serving.latency_s", value)
        snap = registry.snapshot()["serving.latency_s"]
        assert snap.count == 4
        assert snap.min == pytest.approx(0.00005)
        assert snap.max == pytest.approx(5.0)
        assert snap.sum == pytest.approx(0.00005 + 0.0002 + 0.0002 + 5.0)
        counts = dict(snap.buckets)
        assert counts[0.0001] == 1  # 0.00005
        assert counts[0.0004] == 2  # the two 0.0002 samples
        assert counts[float("inf")] == 1  # 5.0 overflows every bound
        assert sum(count for _, count in snap.buckets) == snap.count

    def test_snapshot_is_frozen_and_sorted(self):
        registry = MetricsRegistry()
        registry.inc("serving.requests")
        registry.inc("plan.cache.hits")
        snapshot = registry.snapshot()
        with pytest.raises(TypeError):
            snapshot["plan.cache.hits"] = 99
        assert list(snapshot) == sorted(snapshot)

    def test_to_json_round_trips(self):
        registry = MetricsRegistry()
        registry.inc("serving.requests", 2)
        registry.observe("serving.latency_s", 0.01)
        payload = json.loads(registry.to_json())
        assert payload["serving.requests"] == 2
        assert payload["serving.latency_s"]["count"] == 1

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.inc("serving.errors", label="timeout")
        registry.set_gauge("serving.inflight", 2)
        registry.observe("serving.latency_s", 0.0002)
        text = registry.render_prometheus()
        assert "# TYPE serving_errors counter" in text
        assert 'serving_errors{code="timeout"} 1' in text
        assert "# TYPE serving_inflight gauge" in text
        assert "# TYPE serving_latency_s histogram" in text
        # Buckets are cumulative and end at +Inf == the sample count.
        assert 'serving_latency_s_bucket{le="+Inf"} 1' in text
        assert "serving_latency_s_count 1" in text

    def test_render_table_on_an_empty_registry(self):
        assert MetricsRegistry().render_table() == "(no samples)"


class TestUseMetrics:
    def test_scope_installs_and_clears(self):
        registry = MetricsRegistry()
        assert active_registry() is None
        with use_metrics(registry) as installed:
            assert installed is registry
            assert active_registry() is registry
        assert active_registry() is None

    def test_scopes_do_not_nest(self):
        with use_metrics(MetricsRegistry()):
            with pytest.raises(RuntimeError):
                with use_metrics(MetricsRegistry()):
                    pass  # pragma: no cover
        assert active_registry() is None

    def test_scope_clears_on_exception(self):
        with pytest.raises(RuntimeError, match="boom"):
            with use_metrics(MetricsRegistry()):
                raise RuntimeError("boom")
        assert active_registry() is None


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------
class TestSpan:
    def test_children_attach_to_their_parent(self):
        root = Span("request", kind="top_k")
        child = Span("execute", root, attempt=1)
        assert root.children == [child]
        assert child.parent is root
        assert root.attributes == {"kind": "top_k"}

    def test_finish_is_idempotent(self):
        span = Span("x")
        first = span.finish().end_s
        assert span.finish().end_s == first
        assert span.duration_s >= 0.0

    def test_child_cap_counts_drops_instead_of_growing(self):
        root = Span("request")
        spans = [Span("step", root) for _ in range(MAX_CHILDREN + 5)]
        assert len(root.children) == MAX_CHILDREN
        assert root.dropped_children == 5
        assert spans[-1].parent is root
        assert f"{root.dropped_children} children dropped" in root.describe()

    def test_to_dict_renders_the_subtree(self):
        root = Span("request", kind="count")
        Span("plan", root).finish()
        root.finish()
        payload = root.to_dict()
        assert payload["name"] == "request"
        assert payload["attributes"] == {"kind": "count"}
        assert [child["name"] for child in payload["children"]] == ["plan"]
        json.dumps(payload)  # JSON-friendly end to end


class TestAmbientScope:
    def test_trace_scope_nests_and_restores(self):
        outer, inner = Span("outer"), Span("inner")
        assert current_span() is None
        with trace_scope(outer):
            assert current_span() is outer
            with trace_scope(inner):
                assert current_span() is inner
            assert current_span() is outer
            with trace_scope(None):  # explicit opt-out masks the outer scope
                assert current_span() is None
        assert current_span() is None

    def test_begin_is_a_noop_without_an_ambient_span(self):
        assert begin("plan") is None
        finish(None)  # and finish tolerates the None

    def test_begin_finish_pair_under_an_ambient_root(self):
        root = Span("request")
        with trace_scope(root):
            span = begin("plan", cached=False)
            assert span is not None
            assert current_span() is span
            assert span.parent is root
            finish(span)
            assert current_span() is root
            assert span.end_s is not None
        assert root.children == [span]

    def test_child_span_is_explicit_and_none_safe(self):
        assert child_span(None, "admit") is None
        end_span(None)
        root = Span("request")
        span = child_span(root, "admit")
        assert current_span() is None  # no ambient install
        end_span(span)
        assert span.end_s is not None


class TestTraceSampler:
    def test_rate_is_validated(self):
        with pytest.raises(ValueError):
            TraceSampler(rate=1.5)
        with pytest.raises(ValueError):
            TraceSampler(rate=-0.1)

    def test_extreme_rates_short_circuit_without_draws(self):
        always, never = TraceSampler(rate=1.0), TraceSampler(rate=0.0)
        assert [always.sample() for _ in range(5)] == [True] * 5
        assert [never.sample() for _ in range(5)] == [False] * 5
        assert always.decisions == 0
        assert never.decisions == 0

    def test_same_seed_same_decision_sequence(self):
        one, two = TraceSampler(rate=0.4, seed=7), TraceSampler(rate=0.4, seed=7)
        first = [one.sample() for _ in range(64)]
        second = [two.sample() for _ in range(64)]
        assert first == second
        assert True in first and False in first
        assert one.decisions == 64

    def test_different_seeds_differ(self):
        one, two = TraceSampler(rate=0.5, seed=1), TraceSampler(rate=0.5, seed=2)
        a = [one.sample() for _ in range(64)]
        b = [two.sample() for _ in range(64)]
        assert a != b


# ---------------------------------------------------------------------------
# The summary helpers (moved out of the serving layer in this PR)
# ---------------------------------------------------------------------------
class TestSummary:
    def test_percentile_summary_of_nothing_is_zero(self):
        assert percentile_summary([]) == {"p50": 0.0, "p99": 0.0}

    def test_percentile_summary_nearest_rank(self):
        values = [0.001 * i for i in range(1, 101)]
        summary = percentile_summary(values, percentiles=(50.0, 99.0, 100.0))
        # Nearest rank = ceil(n * p / 100), 1-based.
        assert summary["p50"] == pytest.approx(0.050)
        assert summary["p99"] == pytest.approx(0.099)
        assert summary["p100"] == pytest.approx(0.100)

    def test_percentile_summary_two_samples(self):
        # The off-by-one this PR fixes: p50 of two samples is the first.
        assert percentile_summary([1.0, 2.0])["p50"] == 1.0
        assert percentile_summary([2.0, 1.0])["p50"] == 1.0

    def test_percentile_summary_p90_of_ten_is_not_the_max(self):
        values = [float(i) for i in range(1, 11)]
        assert percentile_summary(values, percentiles=(90.0,))["p90"] == 9.0

    def test_serving_reexport_is_the_same_function(self):
        from repro.serving import latency_percentiles as via_serving

        assert via_serving is latency_percentiles

    @staticmethod
    def _reference_nearest_rank(values, percentile):
        """Brute-force nearest-rank: the sample at 1-based rank ceil(n*p/100)."""
        import math

        ordered = sorted(values)
        if not ordered:
            return 0.0
        rank = math.ceil(len(ordered) * percentile / 100.0)
        rank = max(1, min(len(ordered), rank))
        return ordered[rank - 1]

    @pytest.mark.parametrize("seed", range(25))
    def test_percentile_summary_matches_bruteforce_reference(self, seed):
        import random

        rng = random.Random(seed)
        values = [rng.uniform(0.0, 10.0) for _ in range(rng.randint(0, 200))]
        percentiles = tuple(
            sorted({round(rng.uniform(0.0, 100.0), 2) for _ in range(rng.randint(1, 6))})
        )
        summary = percentile_summary(values, percentiles=percentiles)
        for percentile in percentiles:
            assert summary[f"p{percentile:g}"] == self._reference_nearest_rank(
                values, percentile
            ), f"p{percentile} diverged on n={len(values)}"

    def test_percentile_summary_edges(self):
        # Empty input: the all-zeros contract, regardless of percentiles asked.
        assert percentile_summary([], percentiles=(0.0, 37.5, 100.0)) == {
            "p0": 0.0,
            "p37.5": 0.0,
            "p100": 0.0,
        }
        # A single sample is every percentile.
        for percentile in (0.0, 1.0, 50.0, 99.0, 100.0):
            assert percentile_summary([4.2], percentiles=(percentile,)) == {
                f"p{percentile:g}": 4.2
            }


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE
# ---------------------------------------------------------------------------
class TestExplainAnalyze:
    def test_actuals_line_up_with_a_direct_evaluation(self, edge_database):
        from repro.observability.explain import explain_analyze

        X, Y, Z = Var("x"), Var("y"), Var("z")
        atoms = [RelationAtom("edge", [X, Y]), RelationAtom("edge", [Y, Z])]
        expected = list(enumerate_bindings(edge_database, atoms))
        analysis = explain_analyze(edge_database, atoms)
        assert analysis.answer_count == len(expected)
        assert analysis.elapsed_s > 0.0
        rendering = analysis.render()
        assert "actual" in rendering
        assert f"answers: {len(expected)}" in rendering

    def test_render_pairs_estimates_with_actuals_per_step(self, edge_database):
        from repro.observability.explain import explain_analyze

        X, Y, Z = Var("x"), Var("y"), Var("z")
        atoms = [RelationAtom("edge", [X, Y]), RelationAtom("edge", [Y, Z])]
        analysis = explain_analyze(edge_database, atoms)
        rendering = analysis.render()
        # One annotated line per plan step, each carrying est + actual counts.
        step_lines = [line for line in rendering.splitlines() if "actual" in line]
        assert len(step_lines) == len(analysis.plan.steps)
        assert any("est" in line for line in step_lines)

    def test_analyze_leaves_answers_unchanged(self, edge_database):
        from repro.observability.explain import explain_analyze

        X, Y = Var("x"), Var("y")
        atoms = [RelationAtom("edge", [X, Y])]
        analysis = explain_analyze(edge_database, atoms)
        assert analysis.answer_count == len(list(enumerate_bindings(edge_database, atoms)))


# ---------------------------------------------------------------------------
# End-to-end plumbing: one serving round fills the instruments
# ---------------------------------------------------------------------------
def _trace_kit(seed: int = 3):
    return build_trace(30, 2, 6, seed=seed)


def _replay(server, trace):
    results = []
    for delta, requests in trace.rounds:
        if delta:
            server.apply(list(delta))
        results.append(server.serve_batch(requests))
    return results


class TestEndToEndCounters:
    def test_one_round_populates_the_stack_instruments(self):
        trace = _trace_kit()
        # On the probe path (the witness path declines a predicate), so the
        # oracle's memo misses; the witness twin is the next test.
        server = SnapshotServer(probe_path(trace.problem))
        registry = MetricsRegistry()
        with use_metrics(registry):
            _replay(server, trace)
        # Serving layer.
        unique = sum(len(dict.fromkeys(requests)) for _, requests in trace.rounds)
        assert registry.counter("serving.requests") == unique
        assert registry.snapshot()["serving.latency_s"].count == unique
        assert registry.snapshot()["serving.queue_wait_s"].count == unique
        # Database layer: one effective commit per non-empty delta.
        commits = sum(1 for delta, _ in trace.rounds if delta)
        assert registry.counter("database.commits") == commits
        assert registry.counter("database.snapshots_pinned") >= 1
        # Query + engine + oracle layers all ran.
        assert registry.counter("plan.cache.misses") >= 1
        assert registry.counter("executor.steps") >= 1
        assert registry.counter("engine.nodes.examined") >= 1
        assert registry.counter("oracle.verdict.misses") >= 1

    def test_one_round_populates_the_witness_instruments(self):
        trace = _trace_kit()
        server = SnapshotServer(trace.problem)
        registry = MetricsRegistry()
        with use_metrics(registry):
            _replay(server, trace)
        # One index per served epoch at most, and every verdict served by one.
        epochs = 1 + sum(1 for delta, _ in trace.rounds if delta)
        assert 1 <= registry.counter("oracle.witness.builds") <= epochs
        assert registry.counter("oracle.witness.verdicts") >= 1
        assert registry.counter("oracle.witness.declines") == 0
        assert registry.counter("oracle.verdict.misses") == 0
        assert registry.counter("engine.nodes.examined") >= 1

    def test_counters_stay_silent_without_a_registry(self):
        trace = _trace_kit()
        server = SnapshotServer(trace.problem)
        registry = MetricsRegistry()
        _replay(server, trace)  # no use_metrics: nothing may accumulate
        assert dict(registry.snapshot()) == {}

    def test_rate_one_sampler_attaches_a_span_tree(self):
        trace = _trace_kit()
        server = SnapshotServer(trace.problem, tracing=TraceSampler(rate=1.0))
        results = [result for round in _replay(server, trace) for result in round]
        assert results
        for result in results:
            assert result.trace is not None
            assert result.trace.name == "request"
            assert result.trace.end_s is not None
            names = {child.name for child in result.trace.children}
            assert "snapshot_pin" in names
            assert "execute" in names

    def test_admission_control_adds_the_admit_span(self):
        from repro.serving import ResilienceConfig

        trace = _trace_kit()
        server = SnapshotServer(
            trace.problem,
            resilience=ResilienceConfig(max_inflight=64),
            tracing=TraceSampler(rate=1.0),
        )
        results = [result for round in _replay(server, trace) for result in round]
        assert results
        for result in results:
            names = {child.name for child in result.trace.children}
            assert "admit" in names

    def test_rate_zero_sampler_attaches_nothing(self):
        trace = _trace_kit()
        server = SnapshotServer(trace.problem, tracing=TraceSampler(rate=0.0))
        for round in _replay(server, trace):
            assert all(result.trace is None for result in round)


# ---------------------------------------------------------------------------
# The on/off differential: the knob contract for this PR
# ---------------------------------------------------------------------------
def _comparable(result):
    """The compared projection of a ServeResult: everything except timing
    (latency varies run to run) and the trace/metrics attachments."""
    return (
        result.request,
        result.answer,
        result.epoch,
        result.ok,
        None if result.error is None else result.error.code,
        result.attempts,
    )


class TestOnOffDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_serving_results_are_bit_identical(self, seed):
        baseline_trace = _trace_kit(seed)
        baseline = _replay(SnapshotServer(baseline_trace.problem), baseline_trace)

        observed_trace = _trace_kit(seed)
        server = SnapshotServer(
            observed_trace.problem, tracing=TraceSampler(rate=1.0)
        )
        with use_metrics(MetricsRegistry()):
            observed = _replay(server, observed_trace)

        assert [
            [_comparable(result) for result in round] for round in baseline
        ] == [[_comparable(result) for result in round] for round in observed]
        # The dataclass itself also compares equal: ``trace`` is excluded
        # from equality, and latency is the one compared field we rebuild.
        for base_round, obs_round in zip(baseline, observed):
            for base, obs in zip(base_round, obs_round):
                assert obs.trace is not None
                import dataclasses

                assert dataclasses.replace(obs, latency_s=base.latency_s) == base

    @pytest.mark.parametrize("seed", [11, 12])
    def test_evaluator_answers_are_bit_identical(self, seed):
        import random as _random

        from scenarios import EVALUATOR_VALUES, random_conjunction, random_database

        rng = _random.Random(seed)
        database = random_database(rng, values=EVALUATOR_VALUES)
        atoms, comparisons = random_conjunction(rng, database)
        plain = list(enumerate_bindings(database, atoms, comparisons))
        with use_metrics(MetricsRegistry()):
            root = Span("request")
            with trace_scope(root):
                instrumented = list(enumerate_bindings(database, atoms, comparisons))
        assert plain == instrumented


# ---------------------------------------------------------------------------
# Registry consistency under real threads
# ---------------------------------------------------------------------------
def _hammer(registry, writers, per_writer):
    """``writers`` threads each add ``per_writer`` across four write paths."""

    def work(index: int) -> None:
        label = f"w{index % 3}"
        for _ in range(per_writer):
            registry.inc("serving.requests")
            registry.inc("serving.errors", label=label)
            registry.inc_many([("executor.steps", 2), ("executor.rows.scanned", 1)])
            registry.observe("serving.latency_s", 0.001 * (index + 1))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(writers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestRegistryThreadConsistency:
    def test_two_writer_smoke(self):
        registry = MetricsRegistry()
        _hammer(registry, writers=2, per_writer=2000)
        assert registry.counter("serving.requests") == 4000
        assert registry.counter("executor.steps") == 8000
        assert registry.snapshot()["serving.latency_s"].count == 4000

    @pytest.mark.concurrency
    def test_eight_writer_totals_are_exact(self):
        writers, per_writer = 8, 20_000
        registry = MetricsRegistry()
        _hammer(registry, writers, per_writer)
        total = writers * per_writer
        assert registry.counter("serving.requests") == total
        assert registry.counter("serving.errors") == total
        assert sum(registry.labelled_counts("serving.errors").values()) == total
        assert registry.counter("executor.steps") == 2 * total
        assert registry.counter("executor.rows.scanned") == total
        histogram = registry.snapshot()["serving.latency_s"]
        assert histogram.count == total
        assert histogram.sum == pytest.approx(
            sum(0.001 * (i + 1) * per_writer for i in range(writers))
        )
