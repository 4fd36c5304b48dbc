"""EXP-SERVE — the snapshot-isolated serving layer against a global lock.

PR 6 adds MVCC snapshots to the relational layer and a batched serving front
end on top (:mod:`repro.serving`).  This benchmark measures the *service*,
not a solver: a mixed read/update trace — rounds of one committed delta batch
followed by a skewed batch of recommendation requests (FRP / EXISTPACK≥ /
CPP / RPP) — replayed through

* the :class:`~repro.serving.SnapshotServer` (readers share one pinned
  problem per epoch: memoized compatibility verdicts, one EXISTPACK engine,
  per-epoch answer memo, batch deduplication), and
* the :class:`~repro.serving.GlobalLockServer` baseline (one lock serialises
  every request and commit; each request rebuilds fresh state, because over
  a mutable live database nothing can be soundly reused).

Reported per sweep size: wall-clock for both replicas, requests/second, and
p50/p99 per-request latency on the snapshot path.  Both replicas replay the
identical trace (same seeds, same deltas), so the answer sequences —
``(epoch, answer)`` per request, ties included — must match exactly or the
measurement itself fails.

``test_serving_beats_global_lock_by_5x_at_largest_size`` is the acceptance
gate: ≥5x end-to-end at the largest trace, recorded to ``BENCH_serving.json``
so the perf trajectory is tracked across PRs.

Run stand-alone for the machine-readable report::

    PYTHONPATH=src python benchmarks/bench_serving.py --json

The smallest sweep size below is auto-registered under the ``bench_smoke``
marker by ``benchmarks/conftest.py`` (sweeps are listed ascending), so CI's
smoke pass exercises both servers end to end.
"""

import pytest

from repro.bench.harness import time_callable
from repro.serving import (
    GlobalLockServer,
    SnapshotServer,
    build_trace,
    latency_percentiles,
)

from _report import REPO_ROOT, replay, run_cli, write_report

# (num_items, num_rounds, batch_size) triples, ascending.
SERVE_SWEEP = [(40, 2, 12), (80, 4, 32), (120, 6, 48)]

RESULTS_PATH = REPO_ROOT / "BENCH_serving.json"


# ---------------------------------------------------------------------------
# Trace replay drivers (shared by the pytest benchmarks and the gate)
# ---------------------------------------------------------------------------
def _run_snapshot(num_items, num_rounds, batch_size):
    trace = build_trace(num_items, num_rounds, batch_size, seed=num_items)
    return replay(SnapshotServer(trace.problem), trace)


def _run_global_lock(num_items, num_rounds, batch_size):
    trace = build_trace(num_items, num_rounds, batch_size, seed=num_items)
    return replay(GlobalLockServer(trace.problem), trace)


def _answer_sequence(results):
    return [(result.epoch, result.answer) for result in results]


# ---------------------------------------------------------------------------
# The pytest benchmark series
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("num_items,num_rounds,batch_size", SERVE_SWEEP)
def test_snapshot_server_trace(benchmark, annotate, num_items, num_rounds, batch_size):
    annotate(
        group="serving/trace",
        variant="snapshot server (MVCC epochs)",
        num_items=num_items,
        num_rounds=num_rounds,
        batch_size=batch_size,
    )
    results = benchmark(lambda: _run_snapshot(num_items, num_rounds, batch_size))
    assert len(results) == num_rounds * batch_size


@pytest.mark.parametrize("num_items,num_rounds,batch_size", SERVE_SWEEP[:2])
def test_global_lock_server_trace(benchmark, annotate, num_items, num_rounds, batch_size):
    """The baseline; the largest size runs only inside the speedup gate."""
    annotate(
        group="serving/trace",
        variant="global lock, fresh state per request",
        num_items=num_items,
        num_rounds=num_rounds,
        batch_size=batch_size,
    )
    results = benchmark(lambda: _run_global_lock(num_items, num_rounds, batch_size))
    assert len(results) == num_rounds * batch_size


# ---------------------------------------------------------------------------
# The acceptance gate + machine-readable report
# ---------------------------------------------------------------------------
def _measure_pair(num_items, num_rounds, batch_size):
    """Replay the identical trace through both servers and compare answers."""
    baseline_seconds, baseline_results = time_callable(
        lambda: _run_global_lock(num_items, num_rounds, batch_size)
    )
    snapshot_seconds, snapshot_results = time_callable(
        lambda: _run_snapshot(num_items, num_rounds, batch_size)
    )

    num_requests = num_rounds * batch_size
    latency = latency_percentiles(snapshot_results)
    return {
        "num_items": num_items,
        "num_rounds": num_rounds,
        "batch_size": batch_size,
        "num_requests": num_requests,
        "baseline_seconds": round(baseline_seconds, 6),
        "snapshot_seconds": round(snapshot_seconds, 6),
        "speedup": round(baseline_seconds / snapshot_seconds, 2),
        "snapshot_requests_per_second": round(num_requests / snapshot_seconds, 1),
        "baseline_requests_per_second": round(num_requests / baseline_seconds, 1),
        "snapshot_p50_latency_s": round(latency["p50"], 6),
        "snapshot_p99_latency_s": round(latency["p99"], 6),
        "identical_results": (
            _answer_sequence(snapshot_results) == _answer_sequence(baseline_results)
        ),
    }


def run_sweep(sizes=tuple(SERVE_SWEEP)):
    """Measure every sweep size and assemble the machine-readable report."""
    results = [_measure_pair(*size) for size in sizes]
    return {
        "benchmark": "serving",
        "workload": "mixed read/update trace (skewed FRP/EXISTPACK/CPP/RPP request "
        "batches, one delta commit per round) over random item databases",
        "sizes": [list(size) for size in sizes],
        "results": results,
        "speedup_at_largest": results[-1]["speedup"],
    }


@pytest.mark.bench_full  # wall-clock assertion at the largest size: not a smoke test
def test_serving_beats_global_lock_by_5x_at_largest_size(record_property):
    """Acceptance gate: ≥5x end-to-end over the global-lock baseline."""
    report = run_sweep()
    write_report(report, RESULTS_PATH)
    largest = report["results"][-1]
    for key, value in largest.items():
        record_property(key, value)
    assert all(row["identical_results"] for row in report["results"]), (
        "snapshot and global-lock answers diverged"
    )
    assert largest["speedup"] >= 5.0, (
        f"snapshot serving only {largest['speedup']:.1f}x faster than the global lock "
        f"({largest['snapshot_seconds']:.4f}s vs {largest['baseline_seconds']:.4f}s)"
    )


if __name__ == "__main__":
    run_cli(run_sweep, RESULTS_PATH, __doc__)
