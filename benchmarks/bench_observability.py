"""EXP-OBS — the price of watching: observability overhead on the serving path.

PR 8 threads a metrics registry and ambient request tracing through every
layer of the stack, all behind the ``_ACTIVE is None`` inline guard.  This
benchmark prices the three configurations on the mixed read/update serving
trace of :func:`~repro.serving.build_trace`:

* **off** — no registry installed, no sampler: the knob-contract baseline,
  which must cost nothing beyond the guard loads;
* **metrics** — a :class:`~repro.observability.MetricsRegistry` installed via
  :func:`~repro.observability.use_metrics`: every layer's counters and
  histograms accumulate (batched in hot loops, flushed through ``inc_many``);
* **metrics+tracing** — additionally a rate-1.0
  :class:`~repro.observability.TraceSampler`, so every request builds and
  attaches a full span tree.

Each configuration replays the identical trace (fresh problem per
replay), ``REPEATS`` times, the three configurations interleaved within each
repeat.  A configuration's overhead is the median over the repeats of its
*paired* overhead, its replay against the ``off`` replay of the same repeat,
so host drift between repeats cancels out of each pair and a few disturbed
replays cannot move the median.  The measured replays are also held to the
on/off differential invariant: every compared ``ServeResult`` field —
request, answer, epoch, ok, error code, attempts — must be bit-identical
across configurations.

``test_fully_enabled_overhead_within_10_percent`` is the acceptance gate:
metrics + rate-1.0 tracing costs ≤10% end-to-end at the largest trace,
recorded to ``BENCH_observability.json``.

Run stand-alone for the machine-readable report::

    PYTHONPATH=src python benchmarks/bench_observability.py --json

The smallest sweep size below is auto-registered under the ``bench_smoke``
marker by ``benchmarks/conftest.py`` (sweeps are listed ascending).
"""

from statistics import median

import pytest

from repro.bench.harness import time_callable
from repro.observability import MetricsRegistry, TraceSampler, use_metrics
from repro.serving import SnapshotServer, build_trace

from _report import REPO_ROOT, replay, run_cli, write_report

#: (num_items, num_rounds, batch_size) triples, ascending — the same shape
#: as ``bench_serving.py``'s sweep, so the overhead numbers are directly
#: comparable to the uninstrumented serving benchmark.
OBS_SWEEP = [(40, 2, 12), (80, 4, 32), (120, 6, 48)]

#: Interleaved repeats per configuration.  The largest off-replay takes
#: ≈0.1 s, so one disturbed replay can move a best-of-few ratio by tens of
#: percent; the median of this many paired ratios does not move with it.
REPEATS = 15

#: The gate: fully-enabled observability may cost at most this fraction of
#: the disabled replay at the largest sweep size.
MAX_OVERHEAD = 0.10

RESULTS_PATH = REPO_ROOT / "BENCH_observability.json"

VARIANTS = ("off", "metrics", "metrics+tracing")


# ---------------------------------------------------------------------------
# Trace replay drivers (shared by the pytest benchmarks and the gate)
# ---------------------------------------------------------------------------
def _run_once(variant, num_items, num_rounds, batch_size):
    """One timed replay of a fresh trace under ``variant``.

    The trace build is excluded from the timing: it is identical across
    variants, and the instrumented surface under measurement is the serving
    path, not the workload generator.
    """
    trace = build_trace(num_items, num_rounds, batch_size, seed=num_items)
    sampler = TraceSampler(rate=1.0) if variant == "metrics+tracing" else None
    server = SnapshotServer(trace.problem, tracing=sampler)
    if variant == "off":
        seconds, results = time_callable(lambda: replay(server, trace))
        return seconds, results, None
    registry = MetricsRegistry()
    with use_metrics(registry):
        seconds, results = time_callable(lambda: replay(server, trace))
    return seconds, results, registry


def _run_interleaved(num_items, num_rounds, batch_size, repeats=REPEATS):
    """``repeats`` rounds of one replay per variant, the variants interleaved.

    Round-robin order matters: the replays take seconds, over which a loaded
    host drifts.  Running all of one variant's repeats back to back would
    fold that drift into the overhead ratio; interleaving exposes the
    variants of one round to the same conditions, so each round's ratios
    compare like with like.  Each round maps a variant to its
    ``(seconds, compared results, registry)``.
    """
    rounds = []
    for _ in range(repeats):
        round_ = {}
        for variant in VARIANTS:
            seconds, results, registry = _run_once(variant, num_items, num_rounds, batch_size)
            round_[variant] = seconds, [_comparable(result) for result in results], registry
        rounds.append(round_)
    return rounds


def _comparable(result):
    """The on/off-compared projection (everything but timing and the trace)."""
    return (
        result.request,
        result.answer,
        result.epoch,
        result.ok,
        None if result.error is None else result.error.code,
        result.attempts,
    )


# ---------------------------------------------------------------------------
# The pytest benchmark series
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("num_items,num_rounds,batch_size", OBS_SWEEP)
def test_disabled_serving_trace(benchmark, annotate, num_items, num_rounds, batch_size):
    annotate(
        group="observability/serving",
        variant="off (inline guards only)",
        num_items=num_items,
        num_rounds=num_rounds,
        batch_size=batch_size,
    )
    results = benchmark(lambda: _run_once("off", num_items, num_rounds, batch_size)[1])
    assert len(results) == num_rounds * batch_size


@pytest.mark.parametrize("num_items,num_rounds,batch_size", OBS_SWEEP[:2])
def test_fully_enabled_serving_trace(
    benchmark, annotate, num_items, num_rounds, batch_size
):
    """Metrics + rate-1.0 tracing; the largest size runs only in the gate."""
    annotate(
        group="observability/serving",
        variant="metrics + tracing at rate 1.0",
        num_items=num_items,
        num_rounds=num_rounds,
        batch_size=batch_size,
    )
    results = benchmark(
        lambda: _run_once("metrics+tracing", num_items, num_rounds, batch_size)[1]
    )
    assert len(results) == num_rounds * batch_size
    assert all(result.trace is not None for result in results)


# ---------------------------------------------------------------------------
# The acceptance gate + machine-readable report
# ---------------------------------------------------------------------------
def _measure_size(num_items, num_rounds, batch_size):
    """Median seconds per variant and median paired overheads against ``off``."""
    rounds = _run_interleaved(num_items, num_rounds, batch_size)
    baseline = rounds[0]["off"][1]
    identical = all(
        round_[variant][1] == baseline for round_ in rounds for variant in VARIANTS
    )
    registry = rounds[-1]["metrics+tracing"][2]
    row = {
        "num_items": num_items,
        "num_rounds": num_rounds,
        "batch_size": batch_size,
        "num_requests": num_rounds * batch_size,
        "off_seconds": round(median(round_["off"][0] for round_ in rounds), 6),
        "identical_results": identical,
    }
    for variant in VARIANTS[1:]:
        key = variant.replace("+", "_")
        row[f"{key}_seconds"] = round(median(round_[variant][0] for round_ in rounds), 6)
        row[f"{key}_overhead"] = round(
            median(round_[variant][0] / round_["off"][0] - 1.0 for round_ in rounds), 4
        )
    row["sample_counters"] = {
        name: registry.counter(name)
        for name in (
            "serving.requests",
            "plan.cache.hits",
            "plan.cache.misses",
            "oracle.verdict.hits",
            "oracle.verdict.misses",
            "executor.steps",
            "engine.nodes.examined",
            "database.commits",
        )
    }
    return row


def run_sweep(sizes=tuple(OBS_SWEEP)):
    """Measure every sweep size and assemble the machine-readable report."""
    results = [_measure_size(*size) for size in sizes]
    return {
        "benchmark": "observability",
        "workload": "mixed read/update serving trace replayed under three "
        "configurations: observability off, metrics registry installed, and "
        "metrics plus rate-1.0 request tracing",
        "sizes": [list(size) for size in sizes],
        "repeats": REPEATS,
        "results": results,
        "identical_on_off": all(row["identical_results"] for row in results),
        "tracing_overhead_at_largest": results[-1]["metrics_tracing_overhead"],
    }


@pytest.mark.bench_full  # wall-clock assertion at the largest size: not a smoke test
def test_fully_enabled_overhead_within_10_percent(record_property):
    """Acceptance gate: metrics + full tracing cost ≤10% on the largest trace."""
    report = run_sweep()
    write_report(report, RESULTS_PATH)
    assert report["identical_on_off"], (
        "an instrumented replay changed a compared ServeResult field"
    )
    largest = report["results"][-1]
    for key, value in largest.items():
        record_property(key, value)
    assert largest["metrics_tracing_overhead"] <= MAX_OVERHEAD, (
        f"fully-enabled observability costs "
        f"{largest['metrics_tracing_overhead'] * 100:.1f}% at the largest trace "
        f"(limit {MAX_OVERHEAD * 100:.0f}%)"
    )


if __name__ == "__main__":
    run_cli(run_sweep, RESULTS_PATH, __doc__)
