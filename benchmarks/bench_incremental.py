"""EXP-INC — the delta-maintenance subsystem against recompute-from-scratch.

PR 3 turns O(|D|) work per database modification into O(|Δ|) work.  This
benchmark quantifies that on the two workloads the subsystem serves:

* **Streaming view maintenance** — a join query kept live over a stream of
  single-tuple updates: :class:`repro.incremental.MaintainedQuery` (delta
  rules seeded through the indexed join planner, support counting for
  deletes) against re-evaluating ``Q(D)`` after every update.
* **ARPP sweeps** — :func:`repro.adjustment.find_package_adjustment` (apply/
  undo deltas, maintained ``Q(D)``, footprint-retained oracle verdicts)
  against the historical copy-per-candidate search
  (:func:`~repro.adjustment.arpp.find_package_adjustment_recompute`).

``test_incremental_beats_scratch_by_5x_at_largest_size`` is the acceptance
gate: at the largest sweep size the maintained stream must be at least 5x
faster wall-clock than the from-scratch replay while producing the identical
answer sets after every update, and it records the sweep (plus the ARPP
series) to ``BENCH_incremental.json`` so the perf trajectory is tracked
across PRs.

Run stand-alone for the machine-readable report::

    PYTHONPATH=src python benchmarks/bench_incremental.py --json

The smallest sweep size of every benchmark below is auto-registered under the
``bench_smoke`` marker by ``benchmarks/conftest.py`` (sweeps are listed
ascending), so CI's smoke pass exercises each entry point end to end.
"""

import random

import pytest

from repro.adjustment import find_package_adjustment, find_package_adjustment_recompute
from repro.bench.harness import time_callable
from repro.core import CountCost, CountRating, RecommendationProblem
from repro.core.model import ConstantBound
from repro.incremental import MaintainedQuery
from repro.relational import Database, Relation, RelationSchema
from repro.workloads.synthetic import path_query, streaming_update_workload

from _report import REPO_ROOT, run_cli, write_report

# (num_nodes, num_edges, num_updates) triples, ascending.
STREAM_SWEEP = [(40, 90, 30), (90, 240, 40), (160, 480, 40), (240, 800, 50)]

# (num_nodes, num_edges, candidate-pool size) for the ARPP series, ascending.
ARPP_SWEEP = [(60, 150, 4), (120, 400, 5), (200, 800, 6)]

RESULTS_PATH = REPO_ROOT / "BENCH_incremental.json"


# ---------------------------------------------------------------------------
# Workload drivers (shared by the pytest benchmarks and the gate)
# ---------------------------------------------------------------------------
def _run_incremental_stream(workload):
    """Replay the stream through a maintained view; return per-step answer keys."""
    maintained = MaintainedQuery(workload.query, workload.database)
    states = []
    for batch in workload.stream:
        maintained.apply(batch)
        states.append(hash(maintained.answer_rows()))
    return states


def _run_scratch_stream(workload):
    """Replay the stream applying deltas but re-evaluating ``Q(D)`` each step."""
    database = workload.database
    states = []
    for batch in workload.stream:
        database.apply_delta(batch)
        states.append(hash(workload.query.evaluate(database).rows()))
    return states


def _stream_workload(num_nodes, num_edges, num_updates):
    return streaming_update_workload(
        num_nodes, num_edges, num_updates, seed=num_nodes
    )


def _arpp_problem(num_nodes: int, num_edges: int, pool_size: int):
    """A join-selection ARPP instance where per-candidate ``Q(D)`` work dominates.

    The graph is layered (edges only cross from the first to the second half),
    so the path-2 selection query has no answers under *any* candidate
    adjustment — the whole k′-bounded space is swept, and each candidate's
    cost is exactly the recompute-vs-delta difference the subsystem targets.
    """
    rng = random.Random(num_nodes)
    half = num_nodes // 2
    edges = set()
    while len(edges) < num_edges:
        edges.add((rng.randrange(half), half + rng.randrange(half)))
    relation = Relation(RelationSchema("edge", ["src", "dst"]))
    relation.replace_rows(edges)
    problem = RecommendationProblem(
        database=Database([relation]),
        query=path_query(2),
        cost=CountCost(),
        val=CountRating(),
        budget=1.0,
        k=1,
        size_bound=ConstantBound(1),
        monotone_cost=True,
        name=f"arpp over a layered graph of {num_nodes} nodes",
    )
    pool = []
    while len(pool) < pool_size:
        row = (rng.randrange(half), half + rng.randrange(half))
        if row not in edges:
            edges.add(row)
            pool.append(("insert", "edge", row))
    return problem, tuple(pool)


# ---------------------------------------------------------------------------
# The pytest benchmark series
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("num_nodes,num_edges,num_updates", STREAM_SWEEP)
def test_maintained_stream(benchmark, annotate, num_nodes, num_edges, num_updates):
    annotate(
        group="incremental/stream",
        variant="maintained view (delta rules)",
        num_nodes=num_nodes,
        num_edges=num_edges,
        num_updates=num_updates,
    )
    result = benchmark(
        lambda: _run_incremental_stream(
            _stream_workload(num_nodes, num_edges, num_updates)
        )
    )
    assert len(result) == num_updates


@pytest.mark.parametrize("num_nodes,num_edges,num_updates", STREAM_SWEEP[:2])
def test_scratch_stream(benchmark, annotate, num_nodes, num_edges, num_updates):
    """The from-scratch baseline; the largest size runs only in the speedup gate."""
    annotate(
        group="incremental/stream",
        variant="recompute per update",
        num_nodes=num_nodes,
        num_edges=num_edges,
        num_updates=num_updates,
    )
    result = benchmark(
        lambda: _run_scratch_stream(_stream_workload(num_nodes, num_edges, num_updates))
    )
    assert len(result) == num_updates


@pytest.mark.parametrize("num_nodes,num_edges,pool_size", ARPP_SWEEP)
def test_arpp_incremental_sweep(benchmark, annotate, num_nodes, num_edges, pool_size):
    problem, pool = _arpp_problem(num_nodes, num_edges, pool_size)
    annotate(
        group="incremental/arpp",
        variant="apply/undo deltas + maintained Q(D)",
        num_nodes=num_nodes,
        num_edges=num_edges,
        pool_size=pool_size,
    )
    result = benchmark(
        lambda: find_package_adjustment(
            problem, None, rating_bound=1.0, max_changes=2, pool=pool
        )
    )
    assert not result.found  # layered graph: the full space was swept


@pytest.mark.parametrize("num_nodes,num_edges,pool_size", ARPP_SWEEP[:2])
def test_arpp_recompute_sweep(benchmark, annotate, num_nodes, num_edges, pool_size):
    problem, pool = _arpp_problem(num_nodes, num_edges, pool_size)
    annotate(
        group="incremental/arpp",
        variant="copy per candidate (pre-PR3)",
        num_nodes=num_nodes,
        num_edges=num_edges,
        pool_size=pool_size,
    )
    result = benchmark(
        lambda: find_package_adjustment_recompute(
            problem, None, rating_bound=1.0, max_changes=2, pool=pool
        )
    )
    assert not result.found


# ---------------------------------------------------------------------------
# The acceptance gate + machine-readable report
# ---------------------------------------------------------------------------
def _measure_stream_pair(num_nodes, num_edges, num_updates, repeats: int = 3):
    """Time the from-scratch replay and the maintained replay on one stream.

    Both replay the identical batches from identical starting databases; the
    per-step answer fingerprints must agree or the measurement itself fails.
    """
    scratch_seconds, scratch_states = time_callable(
        lambda: _run_scratch_stream(_stream_workload(num_nodes, num_edges, num_updates))
    )

    incremental_seconds = float("inf")
    incremental_states = None
    for _ in range(repeats):  # best-of-N shields the fast path from scheduler noise
        workload = _stream_workload(num_nodes, num_edges, num_updates)
        seconds, incremental_states = time_callable(lambda: _run_incremental_stream(workload))
        incremental_seconds = min(incremental_seconds, seconds)

    return {
        "num_nodes": num_nodes,
        "num_edges": num_edges,
        "num_updates": num_updates,
        "scratch_seconds": round(scratch_seconds, 6),
        "incremental_seconds": round(incremental_seconds, 6),
        "speedup": round(scratch_seconds / incremental_seconds, 2),
        "identical_results": incremental_states == scratch_states,
    }


def _measure_arpp_pair(num_nodes, num_edges, pool_size):
    problem, pool = _arpp_problem(num_nodes, num_edges, pool_size)
    recompute_seconds, recompute = time_callable(
        lambda: find_package_adjustment_recompute(
            problem, None, rating_bound=1.0, max_changes=2, pool=pool
        )
    )
    problem, pool = _arpp_problem(num_nodes, num_edges, pool_size)
    incremental_seconds, incremental = time_callable(
        lambda: find_package_adjustment(problem, None, rating_bound=1.0, max_changes=2, pool=pool)
    )
    return {
        "num_nodes": num_nodes,
        "num_edges": num_edges,
        "pool_size": pool_size,
        "recompute_seconds": round(recompute_seconds, 6),
        "incremental_seconds": round(incremental_seconds, 6),
        "speedup": round(recompute_seconds / incremental_seconds, 2),
        "identical_results": (
            incremental.found == recompute.found
            and incremental.adjustments_tried == recompute.adjustments_tried
        ),
    }


def run_sweep(stream_sizes=tuple(STREAM_SWEEP), arpp_sizes=tuple(ARPP_SWEEP)):
    """Measure every sweep size and assemble the machine-readable report."""
    stream_results = [_measure_stream_pair(*size) for size in stream_sizes]
    arpp_results = [_measure_arpp_pair(*size) for size in arpp_sizes]
    return {
        "benchmark": "incremental",
        "workload": "path-2 join maintained over a random-graph update stream; "
        "ARPP sweep with apply/undo deltas",
        "stream_sizes": [list(size) for size in stream_sizes],
        "stream_results": stream_results,
        "arpp_results": arpp_results,
        "speedup_at_largest": stream_results[-1]["speedup"],
    }


@pytest.mark.bench_full  # wall-clock assertion at the largest size: not a smoke test
def test_incremental_beats_scratch_by_5x_at_largest_size(record_property):
    """Acceptance gate: ≥5x end-to-end speedup at the largest sweep size."""
    report = run_sweep()
    write_report(report, RESULTS_PATH)
    largest = report["stream_results"][-1]
    for key, value in largest.items():
        record_property(key, value)
    assert all(row["identical_results"] for row in report["stream_results"]), (
        "maintained and recomputed answers diverged"
    )
    assert all(row["identical_results"] for row in report["arpp_results"]), (
        "incremental and recompute ARPP diverged"
    )
    assert largest["speedup"] >= 5.0, (
        f"maintained stream only {largest['speedup']:.1f}x faster than recompute "
        f"({largest['incremental_seconds']:.4f}s vs {largest['scratch_seconds']:.4f}s)"
    )


if __name__ == "__main__":
    run_cli(run_sweep, RESULTS_PATH, __doc__)
