"""EXP-EVAL — the indexed join evaluator against the naive reference path.

The paper's tractable fragments (SP and the CQ decision variants) promise low
polynomial data complexity; the historical evaluator nevertheless re-scanned
whole relations per atom.  These benchmarks quantify what the join planner of
:mod:`repro.queries.plan` buys on the synthetic workload sweep:

* chain (path) queries over random graphs — every join step turns into a hash
  probe on the previously bound node, collapsing the per-atom scan;
* the memoized compatibility oracle — valid-package enumeration probes ``Qc``
  for overlapping sub-packages, so verdict reuse shows up directly.

``test_planned_beats_naive_by_5x_at_largest_size`` is the acceptance gate: at
the largest sweep size the planned path must be at least 5x faster wall-clock
than the naive path while returning the identical answer multiset, and it
records the whole sweep to ``BENCH_evaluator.json`` so the perf trajectory is
tracked across PRs.

Run stand-alone for the machine-readable report::

    PYTHONPATH=src python benchmarks/bench_evaluator.py --json
"""

import pytest

from repro.bench.harness import time_callable
from repro.core import compute_top_k
from repro.queries.bindings import enumerate_bindings_naive
from repro.workloads.synthetic import (
    path_query,
    random_graph_database,
    synthetic_package_problem,
)

from _report import REPO_ROOT, bindings, run_cli, write_report

# (nodes, edges) pairs, ascending; the naive path is roughly cubic in the edge
# count for the length-3 chain query, the planned path near-linear.
GRAPH_SWEEP = [(40, 160), (80, 320), (160, 640)]
PATH_LENGTH = 3

RESULTS_PATH = REPO_ROOT / "BENCH_evaluator.json"


def _graph(nodes: int, edges: int):
    return random_graph_database(nodes, edges, seed=nodes)


def _naive(database, query):
    return bindings(database, query.atoms, query.comparisons, evaluate=enumerate_bindings_naive)


def _planned(database, query):
    return bindings(database, query.atoms, query.comparisons)


# ---------------------------------------------------------------------------
# The sweep: planned vs naive
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("nodes,edges", GRAPH_SWEEP)
def test_planned_chain_query(benchmark, annotate, nodes, edges):
    database = _graph(nodes, edges)
    query = path_query(PATH_LENGTH)
    annotate(group="evaluator/chain", variant="planned (indexed)", nodes=nodes, edges=edges)
    result = benchmark(lambda: _planned(database, query))
    assert result  # the random graphs are dense enough to have length-3 paths


@pytest.mark.parametrize("nodes,edges", GRAPH_SWEEP[:2])
def test_naive_chain_query(benchmark, annotate, nodes, edges):
    """The naive baseline; the largest size runs only in the speedup gate."""
    database = _graph(nodes, edges)
    query = path_query(PATH_LENGTH)
    annotate(group="evaluator/chain", variant="naive (full scans)", nodes=nodes, edges=edges)
    result = benchmark(lambda: _naive(database, query))
    assert result


def _measure_pair(nodes, edges, repeats: int = 3):
    """Time the naive and the planned path on one sweep size."""
    database = _graph(nodes, edges)
    query = path_query(PATH_LENGTH)

    naive_seconds, naive = time_callable(lambda: _naive(database, query))
    # best-of-N shields the fast path from scheduler noise
    planned_seconds, planned = time_callable(lambda: _planned(database, query), repeat=repeats)

    return {
        "nodes": nodes,
        "edges": edges,
        "naive_seconds": round(naive_seconds, 6),
        "planned_seconds": round(planned_seconds, 6),
        "speedup": round(naive_seconds / planned_seconds, 2),
        "identical_results": planned == naive,
    }


def run_sweep(sizes=tuple(GRAPH_SWEEP)):
    """Measure every sweep size and assemble the machine-readable report."""
    results = [_measure_pair(*size) for size in sizes]
    return {
        "benchmark": "evaluator",
        "workload": f"length-{PATH_LENGTH} chain query over random graphs, "
        "planned (indexed) vs naive (full scans)",
        "sizes": [list(size) for size in sizes],
        "results": results,
        "speedup_at_largest": results[-1]["speedup"],
    }


@pytest.mark.bench_full  # wall-clock assertion at the largest size: not a smoke test
def test_planned_beats_naive_by_5x_at_largest_size(record_property):
    """Acceptance gate: ≥5x wall-clock speedup at the largest sweep size."""
    report = run_sweep()
    write_report(report, RESULTS_PATH)
    largest = report["results"][-1]
    for key, value in largest.items():
        record_property(key, value)
    assert all(row["identical_results"] for row in report["results"]), (
        "planned and naive answers diverged"
    )
    speedup = largest["speedup"]
    assert speedup >= 5.0, (
        f"planned path only {speedup:.1f}x faster than naive "
        f"({largest['planned_seconds']:.3f}s vs {largest['naive_seconds']:.3f}s)"
    )


# ---------------------------------------------------------------------------
# The memoized compatibility oracle
# ---------------------------------------------------------------------------
ORACLE_SIZES = [8, 10, 12]


@pytest.mark.parametrize("num_items", ORACLE_SIZES)
def test_top_k_with_compatibility_cache(benchmark, annotate, num_items):
    problem = synthetic_package_problem(num_items, budget=60.0, k=2, seed=num_items).problem
    annotate(group="evaluator/oracle", variant="cache on", db_size=num_items)
    result = benchmark(lambda: compute_top_k(problem))
    assert result.found
    info = problem.compatibility_oracle().cache_info()
    benchmark.extra_info["oracle_hits"] = info["hits"]
    benchmark.extra_info["oracle_misses"] = info["misses"]


if __name__ == "__main__":
    run_cli(run_sweep, RESULTS_PATH, __doc__)
